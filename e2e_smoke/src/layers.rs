//! The per-layer table of the traced run.
//!
//! Two sources feed it. While the statement list is replayed, the harness
//! puts a span around each call it makes into a layer (`parse_one`,
//! `plan::optimize`, `Session::execute`, `Client::execute`) and reads the
//! engine's existing read-outs after each statement (`last_trace()`,
//! `StatementProfile`, `Client::last_stats()`, `scan(system.storage)`).
//! Afterwards, probes call single layers directly on the same inputs — the
//! kernel a statement runs, the rectangle it needs from storage, one WAL
//! append, one answer's encoding — to price the part of a statement that
//! layer alone accounts for.

use crate::gen::{self, Stmt, Workload};
use crate::run::{issue_wire, nproc, timed, Args, Issued, Sut};
use crate::spans::{self, Recorder, Span};
use crate::stats::{median, percentile, unit_of};
use crate::target::{local, Answer, Target};
use scidb_core::array::Array;
use scidb_core::exec::ExecContext;
use scidb_core::geometry::HyperRect;
use scidb_core::ops::structural::{DimCond, DimPredicate};
use scidb_core::ops::{self, AggInput};
use scidb_core::registry::Registry;
use scidb_query::{Database, Session, StatementProfile, StoredArray};
use scidb_relational::ArrayTable;
use scidb_server::{Client, Response};
use scidb_storage::wal::{Record, Wal};
use scidb_storage::{serialize_chunk, CodecPolicy, MemDisk, ReadOptions, StorageManager};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Kernel operators reported by name.
const KERNEL_OPS: [&str; 6] = [
    "subsample",
    "filter",
    "apply",
    "aggregate",
    "regrid",
    "sjoin",
];

/// Accumulates the traced run's samples and spans. One per recording
/// thread; wire_mix's client threads fork from and join into the main one.
pub struct Layers {
    origin: Instant,
    rec: Recorder,
    /// Span lists of joined threads.
    joined: Vec<Vec<Span>>,
    /// Per-statement samples; reported as medians.
    samples: BTreeMap<String, Vec<f64>>,
    /// Running totals that ratios are taken from.
    sums: BTreeMap<&'static str, f64>,
    /// Values computed elsewhere (probes, phase totals).
    fixed: BTreeMap<String, f64>,
    stmt_id: u64,
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times `f` in microseconds.
fn timed_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let (r, ms) = timed(f);
    (r, ms * 1e3)
}

/// `(hits, misses, evictions)` of the buffer pool, read through AQL.
fn pool_counters(sess: &mut Session) -> Option<(f64, f64, f64)> {
    let row = match sess.exec("scan(system.storage)").ok()? {
        Answer::Array(a) => a.cells().next()?.1,
        Answer::Done => return None,
    };
    Some((row[1].as_f64()?, row[2].as_f64()?, row[3].as_f64()?))
}

impl Layers {
    pub fn new(origin: Instant) -> Self {
        Layers {
            origin,
            rec: Recorder::new(origin),
            joined: Vec::new(),
            samples: BTreeMap::new(),
            sums: BTreeMap::new(),
            fixed: BTreeMap::new(),
            stmt_id: 0,
        }
    }

    /// An empty accumulator on the same clock, for another thread.
    pub fn fork(&self) -> Layers {
        Layers::new(self.origin)
    }

    pub fn join(&mut self, other: Layers) {
        self.joined.push(other.rec.into_spans());
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        for (k, v) in other.sums {
            *self.sums.entry(k).or_default() += v;
        }
    }

    /// Records one sample of a metric the table lists (others are dropped:
    /// not every class has every metric).
    fn push(&mut self, name: &str, v: f64) {
        if unit_of(name).is_some() {
            self.samples.entry(name.to_string()).or_default().push(v);
        }
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    pub fn set(&mut self, name: &str, v: f64) {
        self.fixed.insert(name.to_string(), v);
    }

    fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Issues one statement through an in-process session with spans
    /// around parse, plan and execute, then reads the engine's trace of it.
    pub fn traced_session(
        &mut self,
        sess: &mut Session,
        stmt: &Stmt,
        text: &str,
        durable: bool,
    ) -> Issued {
        self.stmt_id += 1;
        let id = self.stmt_id;
        let class = stmt.class.name();
        // Pool counters bracket the statements that read exactly one of the
        // two arrays sized against the pool.
        let pool_of = durable
            .then(|| {
                ["hot", "cold"]
                    .into_iter()
                    .find(|a| stmt.text.contains(&format!("({a},")))
            })
            .flatten();
        let before = pool_of.and_then(|_| pool_counters(sess));

        let mut parts = (0.0, None, 0.0);
        let (res, total_us) = self.rec.span("stmt", id, |rec| {
            let (parsed, parse_us) = rec.span("query.parse", id, |_| scidb_query::parse_one(text));
            let parsed = parsed.map_err(|e| e.to_string())?;
            let plan_us = match &parsed {
                scidb_query::Stmt::Query(expr) => Some(
                    rec.span("query.plan", id, |_| {
                        std::hint::black_box(scidb_query::plan::optimize(expr.clone()));
                    })
                    .1,
                ),
                _ => None,
            };
            let (res, exec_us) = rec.span("query.exec", id, |_| sess.execute(parsed));
            parts = (parse_us, plan_us, exec_us);
            local(res)
        });
        let (parse_us, plan_us, exec_us) = parts;
        self.push("query.parse_us", parse_us);
        if let Some(p) = plan_us {
            self.push("query.plan_us", p);
        }
        self.push(&format!("query.exec_us.{class}"), exec_us);
        self.add("exec_us", exec_us);
        self.add("statements", 1.0);

        if let Some(trace) = sess.last_trace() {
            let mut attributed = 0.0;
            for (layer, wall) in trace.layer_totals() {
                attributed += us(wall);
                let name = match layer {
                    "query" => "query.self_us",
                    "core" => "core.kernel_us",
                    "storage" => "storage.read_us",
                    _ => continue,
                };
                self.push(&format!("{name}.{class}"), us(wall));
            }
            self.add("attributed_us", attributed);
            for k in trace.kernel_events() {
                if KERNEL_OPS.contains(&k.op.as_str()) {
                    self.push(&format!("core.kernel_us.{}", k.op), us(k.wall));
                }
                self.add("kernel_cells", k.cells as f64);
                self.add("kernel_s", k.wall.as_secs_f64());
            }
            let profile = StatementProfile::from_trace(trace);
            let reads: Vec<_> = trace
                .spans
                .iter()
                .filter(|s| s.name == "read_region")
                .collect();
            if !reads.is_empty() {
                let buckets: u64 = reads
                    .iter()
                    .filter_map(|s| s.attr("buckets")?.as_u64())
                    .sum();
                self.push("storage.buckets_read_per_stmt", buckets as f64);
                self.push("storage.bytes_read_per_stmt", profile.bytes_decoded as f64);
            }
            if let Ok(answer) = &res {
                if profile.cells_scanned > 0 {
                    self.add("cells_scanned", profile.cells_scanned as f64);
                    self.add("cells_out", answer.cells().max(1) as f64);
                }
            }
        }
        if let (Some(array), Some(b), Some(a)) = (pool_of, before, pool_counters(sess)) {
            let (hits, misses) = if array == "hot" {
                ("hot_hits", "hot_misses")
            } else {
                ("cold_hits", "cold_misses")
            };
            self.add(hits, a.0 - b.0);
            self.add(misses, a.1 - b.1);
            self.add("evictions", a.2 - b.2);
        }
        (res, total_us / 1e3)
    }

    /// Issues one statement over the wire with a span around the call, and
    /// splits its round trip with the server's own account of it.
    pub fn traced_client(
        &mut self,
        client: &mut Client,
        stmt: &Stmt,
        text: &str,
        repeat: bool,
    ) -> Issued {
        self.stmt_id += 1;
        let id = self.stmt_id;
        let class = stmt.class.name();
        let ((res, ms), _) = self.rec.span("stmt", id, |rec| {
            rec.span("server.rtt", id, |_| issue_wire(client, text, repeat))
                .0
        });
        let rtt_us = ms * 1e3;
        let (_, parse_us) = timed_us(|| std::hint::black_box(scidb_query::parse_one(text).is_ok()));
        self.push("query.parse_us", parse_us);
        self.push(&format!("server.rtt_us.{class}"), rtt_us);
        self.add("statements", 1.0);
        if let Some(st) = client.last_stats() {
            let (exec, queue) = (st.exec_us as f64, st.queue_wait_us as f64);
            self.push(&format!("server.exec_us.{class}"), exec);
            self.push("server.queue_wait_us", queue);
            self.push(
                &format!("server.wire_us.{class}"),
                (rtt_us - exec - queue).max(0.0),
            );
            self.add("cache_hits", f64::from(u8::from(st.cache_hit)));
            self.add("lock_acquisitions", st.lock_acquisitions as f64);
            self.add("lock_contended", st.lock_contended as f64);
            if let (Ok(answer), true) = (&res, st.cells_scanned > 0) {
                self.add("cells_scanned", st.cells_scanned as f64);
                self.add("cells_out", answer.cells().max(1) as f64);
            }
        }
        (res, ms)
    }

    /// Every metric this run produced, medians and ratios worked out.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let mut out: BTreeMap<String, f64> = self
            .samples
            .iter()
            .map(|(k, v)| (k.clone(), median(v)))
            .collect();
        let ratio = |num: &str, den: &str, scale: f64| {
            let d = self.sum(den);
            (d > 0.0).then(|| self.sum(num) / d * scale)
        };
        let mut derived = vec![
            (
                "query.cells_scanned_per_cell_out",
                ratio("cells_scanned", "cells_out", 1.0),
            ),
            (
                "query.result_cache_hit_pct",
                ratio("cache_hits", "statements", 100.0),
            ),
            (
                "core.kernel_cells_per_s",
                ratio("kernel_cells", "kernel_s", 1.0),
            ),
            (
                "server.lock_contended_pct",
                ratio("lock_contended", "lock_acquisitions", 100.0),
            ),
            (
                "query.unattributed_pct",
                ratio("attributed_us", "exec_us", 1.0).map(|a| (1.0 - a).max(0.0) * 100.0),
            ),
        ];
        for (name, hits, misses) in [
            ("storage.pool_hit_pct.hot", "hot_hits", "hot_misses"),
            ("storage.pool_hit_pct.cold", "cold_hits", "cold_misses"),
        ] {
            let total = self.sum(hits) + self.sum(misses);
            derived.push((name, (total > 0.0).then(|| self.sum(hits) / total * 100.0)));
        }
        derived.push((
            "storage.pool_evictions",
            self.sums.get("evictions").copied(),
        ));
        for (name, v) in derived {
            if let Some(v) = v {
                out.insert(name.to_string(), v);
            }
        }
        out.extend(self.fixed.clone());
        out.into_iter().collect()
    }

    /// The spans of every recording thread.
    pub fn trace_json(self) -> String {
        let mut threads = vec![self.rec.into_spans()];
        threads.extend(self.joined);
        spans::to_json(&threads)
    }
}

/// A rectangle as the Subsample predicate that selects it.
fn predicate(schema: &scidb_core::ArraySchema, rect: &HyperRect) -> DimPredicate {
    let mut p = DimPredicate::new();
    for (d, dim) in schema.dims().iter().enumerate() {
        p = p.with(
            dim.name.clone(),
            DimCond::Between(rect.low[d], rect.high[d]),
        );
    }
    p
}

/// Median wall (µs) of `f` over `reps` calls.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    median(&(0..reps).map(|_| timed_us(&mut f).1).collect::<Vec<_>>())
}

/// aql_mem: the kernel-only cost of one statement kind per read class, by
/// calling `ops::*_with` on the statement's own input, and E1's four
/// queries through AQL against the array-on-tables simulation.
fn probe_core(args: &Args, layers: &mut Layers, pool: &[Stmt]) -> Result<(), String> {
    let e = |e: scidb_core::Error| e.to_string();
    let ds = gen::dataset(args.sizes(), args.seed);
    let cold = ds.array("cold");
    let reg = Registry::with_builtins();
    let ctx = ExecContext::with_threads(nproc());
    let region = |kind: &str| {
        pool.iter()
            .find(|s| s.kind == kind)
            .and_then(|s| s.region.clone())
    };

    if let Some((_, rect)) = region("e1_slab") {
        let p = predicate(cold.schema(), &rect);
        let run = || -> Result<(), scidb_core::Error> {
            let sub = ops::subsample_with(cold, &p, Some(&reg), &ctx)?;
            std::hint::black_box(ops::aggregate_with(
                &sub,
                &[],
                "sum",
                AggInput::Attr("v".into()),
                &reg,
                &ctx,
            )?);
            Ok(())
        };
        run().map_err(e)?;
        layers.set(
            "core.direct_kernel_us.slab",
            median_us(9, || run().expect("checked above")),
        );
    }
    let regrid = || ops::regrid_with(cold, &[4, 4], "avg", &reg, &ctx).map(std::hint::black_box);
    regrid().map_err(e)?;
    layers.set(
        "core.direct_kernel_us.sweep",
        median_us(5, || drop(regrid())),
    );
    if let Some((_, rect)) = region("e1_sjoin") {
        let p = predicate(cold.schema(), &rect);
        let run = || -> Result<(), scidb_core::Error> {
            let a = ops::subsample_with(cold, &p, Some(&reg), &ctx)?;
            let b = ops::subsample_with(cold, &p, Some(&reg), &ctx)?;
            std::hint::black_box(ops::sjoin(&a, &b, &[("i", "i"), ("j", "j")])?);
            Ok(())
        };
        run().map_err(e)?;
        layers.set(
            "core.direct_kernel_us.join",
            median_us(5, || run().expect("checked above")),
        );
    }

    // The paper's headline, through AQL: E1 at n = 256.
    let n = if args.quick { 64 } else { 256 };
    let e1 = gen::dense("e1", n, args.seed);
    let table = ArrayTable::from_array(&e1).map_err(e)?;
    let mut db = Database::with_threads(nproc());
    db.put_array("e1", e1).map_err(e)?;
    let (lo, hi) = (n / 4, n / 2);
    let rect = HyperRect::new(vec![lo, lo], vec![hi, hi]).map_err(e)?;
    let queries = [
        format!("slice(e1, j, {hi})"),
        format!("aggregate(subsample(e1, i >= {lo} and i <= {hi} and j >= {lo} and j <= {hi}), {{}}, sum(v))"),
        "regrid(e1, [4, 4], avg)".to_string(),
        "sjoin(e1, e1, i = i and j = j)".to_string(),
    ];
    let mut aql_us = 0.0;
    for q in &queries {
        db.query(q).map_err(e)?;
        aql_us += median_us(3, || drop(std::hint::black_box(db.query(q))));
    }
    let table_us = median_us(3, || drop(std::hint::black_box(table.slice("j", hi))))
        + median_us(3, || drop(std::hint::black_box(table.slab(&rect))))
        + median_us(3, || {
            drop(std::hint::black_box(table.regrid(
                &[4, 4],
                "avg",
                "v",
                &reg,
            )))
        })
        + median_us(3, || {
            drop(std::hint::black_box(table.sjoin_all_dims(&table)))
        });
    layers.set("relational.e1_speedup_x", table_us / aql_us.max(1e-9));
    Ok(())
}

/// Durable workloads: what storage charges for the rectangle a slab
/// statement needs against the full domain `Scan` reads today, what one
/// commit costs, and what a cell costs to store.
fn probe_storage(
    args: &Args,
    layers: &mut Layers,
    db: &Database,
    pool: &[Stmt],
) -> Result<(), String> {
    let e = |e: scidb_core::Error| e.to_string();
    let (mut region_us, mut full_us) = (Vec::new(), Vec::new());
    for stmt in pool.iter().filter(|s| s.region.is_some()).take(9) {
        let (name, rect) = stmt.region.as_ref().expect("filtered");
        let guard = db.array(name).map_err(e)?;
        let StoredArray::OnDisk(mgr) = &*guard else {
            continue;
        };
        let dims = mgr.schema().dims();
        let full = HyperRect::new(
            vec![1; dims.len()],
            dims.iter().map(|d| d.upper.unwrap_or(1)).collect(),
        )
        .map_err(e)?;
        region_us.push(
            timed_us(|| {
                mgr.read_region(rect, ReadOptions::serial())
                    .map(std::hint::black_box)
            })
            .1,
        );
        full_us.push(
            timed_us(|| {
                mgr.read_region(&full, ReadOptions::serial())
                    .map(std::hint::black_box)
            })
            .1,
        );
    }
    layers.set("storage.region_read_us", median(&region_us));
    layers.set("storage.full_read_us", median(&full_us));

    let path = args.dir.join("scratch-wal.log");
    let (mut wal, _) = Wal::open(&path).map_err(e)?;
    let appends: Vec<f64> = (0..200u64)
        .map(|op| {
            let group = [
                Record::Begin { op },
                Record::Stmt {
                    aql: format!("insert into log[{}, 1] values (1.5)", op + 1),
                },
                Record::Commit { op },
            ];
            timed_us(|| wal.append_group(&group).expect("scratch wal append")).1
        })
        .collect();
    layers.set("storage.wal_append_p50_us", median(&appends));
    layers.set("storage.wal_append_p95_us", percentile(&appends, 95.0));

    let ds = gen::dataset(args.sizes(), args.seed);
    let cold: &Array = ds.array("cold");
    let mut mgr = StorageManager::new(
        Arc::new(MemDisk::new()),
        Arc::new(cold.schema().renamed("probe")),
        CodecPolicy::adaptive(),
    );
    let (stored, store_us) = timed_us(|| mgr.store_array(cold));
    stored.map_err(e)?;
    layers.set(
        "storage.store_cells_per_s",
        cold.cell_count() as f64 / (store_us / 1e6),
    );
    let mut bytes = 0usize;
    for chunk in cold.chunks().values() {
        bytes += serialize_chunk(chunk, CodecPolicy::adaptive())
            .map_err(e)?
            .len();
    }
    layers.set(
        "storage.codec_bytes_per_cell",
        bytes as f64 / cold.cell_count() as f64,
    );
    Ok(())
}

/// wire_mix: what a connection costs, and what one large answer costs to
/// encode and decode.
fn probe_server(
    layers: &mut Layers,
    server: &scidb_server::Server,
    client: &mut Client,
    pool: &[Stmt],
) -> Result<(), String> {
    let e = |e: scidb_core::Error| e.to_string();
    let connects: Vec<f64> = (0..20)
        .map(|_| {
            let (c, us) = timed_us(|| Client::connect(server.addr(), "probe"));
            c.and_then(Client::close).map(|()| us)
        })
        .collect::<Result<_, _>>()
        .map_err(e)?;
    layers.set("server.connect_us", median(&connects));

    let large = pool
        .iter()
        .find(|s| s.kind == "e1_filter")
        .ok_or("wire pool has no large answer")?;
    let Answer::Array(array) = client.exec(&large.text)? else {
        return Err("large answer is not an array".into());
    };
    let cells = array.cell_count().max(1) as f64;
    let resp = Response::ArrayResult {
        array: Box::new(array),
    };
    let payload = resp.encode();
    layers.set("server.bytes_per_result_cell", payload.len() as f64 / cells);
    layers.set(
        "server.encode_us",
        median_us(3, || drop(std::hint::black_box(resp.encode()))),
    );
    Response::decode(resp.msg_type(), &payload).map_err(e)?;
    layers.set(
        "server.decode_us",
        median_us(3, || {
            drop(std::hint::black_box(Response::decode(
                resp.msg_type(),
                &payload,
            )))
        }),
    );
    Ok(())
}

/// Runs the probes that apply to `args.workload`.
pub fn probes(
    args: &Args,
    layers: &mut Layers,
    sut: &mut Sut,
    pools: &[Vec<Stmt>],
) -> Result<(), String> {
    match (args.workload, sut) {
        (Workload::AqlMem, _) => probe_core(args, layers, &pools[0]),
        (Workload::AqlDisk | Workload::IngestMix, Sut::InProc { db, .. }) => {
            probe_storage(args, layers, db, &pools[0])
        }
        (
            Workload::WireMix,
            Sut::Wire {
                clients, server, ..
            },
        ) => probe_server(layers, server, &mut clients[0], &pools[0]),
        _ => Ok(()),
    }
}

/// Reopens `first_query` times; each replays the whole log, which takes
/// seconds.
const REOPENS: usize = 3;

/// ingest_mix, after the handle is dropped: `Database::open` plus the first
/// aggregate answer, [`REOPENS`] times, and what the last recovery replayed.
pub fn first_query(layers: &mut Layers, dir: &Path) -> Result<(), String> {
    let mut walls = Vec::new();
    for _ in 0..REOPENS {
        let start = Instant::now();
        let db = Database::open_with_threads(dir, nproc()).map_err(|e| format!("reopen: {e}"))?;
        let mut sess = db.share().session();
        sess.exec("aggregate(hot, {}, sum(v))")?;
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        if walls.len() == REOPENS {
            if let Answer::Array(a) = sess.exec("scan(system.storage)")? {
                let row = a.cells().next().ok_or("system.storage is empty")?.1;
                layers.set("storage.replayed_ops", row[10].as_f64().unwrap_or(0.0));
                layers.set("storage.replay_ms", row[11].as_f64().unwrap_or(0.0));
            }
        }
    }
    layers.set("storage.first_query_ms", median(&walls));
    Ok(())
}
