//! One workload, in its own process: set-up, the oracle pass over the
//! system under test, the closed-loop timed window (or the traced replay),
//! and the workload's own checks. The parent reads the lines this prints.

use crate::gen::{self, Class, Dataset, Sizes, Stmt, Workload};
use crate::layers::{self, Layers};
use crate::oracle::issue_text;
use crate::stats::{median, percentile, tail_percentile};
use crate::target::{remote, Answer, Fingerprint, Target};
use scidb_query::{Database, Session};
use scidb_server::{Client, Server, ServerConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// ingest_mix runs a `merge_on_disk` every this many operations.
const MERGE_EVERY: u64 = 256;
/// Statements per client and second of `--seconds` that the traced run
/// issues twice, untraced and then traced: a quarter of what the seed commit
/// gets through on the reference sandbox. A count and not a time, so that
/// the same seed and `--seconds` give the same statements and the per-layer
/// counts repeat exactly.
fn traced_ops(w: Workload, seconds: f64) -> u64 {
    let per_second = match w {
        Workload::AqlMem => 47.0,
        Workload::AqlDisk => 9.0,
        Workload::IngestMix => 30.0,
        Workload::WireMix => 11.0,
    };
    ((per_second * seconds) as u64).max(1)
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Directory for durable databases and scratch files.
    pub dir: PathBuf,
    /// Where the trace JSON goes.
    pub out_dir: PathBuf,
}

impl Args {
    pub fn sizes(&self) -> Sizes {
        Sizes::of(self.quick)
    }
}

/// Client threads (wire_mix) or engine threads (the rest): never more than
/// the machine has.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The engine's thread budget: wire_mix gives it one thread, because its
/// clients are the load.
pub fn engine_threads(w: Workload) -> usize {
    if w == Workload::WireMix {
        1
    } else {
        nproc()
    }
}

/// Closed-loop clients of a workload: wire_mix opens a connection per
/// processor (at most 4), the in-process workloads have one session.
pub fn clients(w: Workload) -> usize {
    if w == Workload::WireMix {
        nproc().clamp(1, 4)
    } else {
        1
    }
}

/// The system under test.
pub enum Sut {
    InProc {
        sess: Session,
        /// Owns the catalog (and the merge entry point); dropped last.
        db: Database,
    },
    Wire {
        clients: Vec<Client>,
        server: Server,
        /// Owns the catalog the server shares; dropped last.
        _db: Database,
    },
}

/// What one set-up cost, and what it stored.
pub struct Setup {
    pub total: Duration,
    /// The bulk load alone (`put_array` / `put_array_on_disk` of every
    /// array).
    pub load: Duration,
    pub cells: u64,
    pub user_bytes: u64,
    /// `wal.log` and `pages.db` sizes right after the load.
    pub wal_bytes: u64,
    pub pages_bytes: u64,
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

/// Cooks the data and loads it the way `w` places it.
pub fn set_up(w: Workload, sizes: Sizes, seed: u64, dir: &Path) -> Result<(Sut, Setup), String> {
    let e = |e: scidb_core::Error| e.to_string();
    let start = Instant::now();
    let ds: Dataset = gen::dataset(sizes, seed);
    let (cells, user_bytes) = (ds.cells(), ds.user_bytes());
    let threads = engine_threads(w);
    let mut db = if w.durable() {
        Database::open_with_threads(dir, threads).map_err(e)?
    } else {
        Database::with_threads(threads)
    };
    let load_start = Instant::now();
    for (name, array) in ds.arrays {
        if w.durable() {
            db.put_array_on_disk(name, &array).map_err(e)?;
        } else {
            db.put_array(name, array).map_err(e)?;
        }
    }
    let load = load_start.elapsed();
    let (wal_bytes, pages_bytes) = (
        file_len(&dir.join("wal.log")),
        file_len(&dir.join("pages.db")),
    );
    db.run(&gen::create_log(&sizes)).map_err(e)?;
    let sut = if w == Workload::WireMix {
        let server = Server::start(db.share(), ServerConfig::default()).map_err(e)?;
        let clients = (0..clients(w))
            .map(|_| Client::connect(server.addr(), "e2e"))
            .collect::<Result<Vec<_>, _>>()
            .map_err(e)?;
        Sut::Wire {
            clients,
            server,
            _db: db,
        }
    } else {
        Sut::InProc {
            sess: db.share().session(),
            db,
        }
    };
    Ok((
        sut,
        Setup {
            total: start.elapsed(),
            load,
            cells,
            user_bytes,
            wal_bytes,
            pages_bytes,
        },
    ))
}

/// What came back from issuing a statement: the answer (or why not) and the
/// latency in milliseconds.
pub type Issued = (Result<Answer, String>, f64);

/// The kind an `execute_prepared` repeat is logged under: it is another
/// call than `execute`, meant to be answered from the result cache, and is
/// no execution of its statement's class.
pub const REPEAT: &str = "prepared_repeat";

/// Walks a workload's class pattern over one client's pool, closed loop:
/// the next statement is issued when the previous one has answered.
pub struct Driver<'a> {
    pattern: Vec<Option<Class>>,
    /// Pool indices per class, in issue order.
    by_class: BTreeMap<Class, Vec<usize>>,
    cursor: BTreeMap<Class, usize>,
    pool: &'a [Stmt],
    /// What each pool statement answered in the oracle pass.
    seen: &'a [Fingerprint],
    last_slab: Option<usize>,
    pub ops: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Every statement issued, in issue order.
    pub log: Vec<Sample>,
    /// Inserts the system acknowledged: coordinates → last value.
    pub acked: BTreeMap<(i64, i64), f64>,
    pub stores: u64,
}

/// Statement sequence numbers, unique across the whole process (they name
/// `store` targets).
pub struct Seq(pub u64);

impl<'a> Driver<'a> {
    pub fn new(w: Workload, pool: &'a [Stmt], seen: &'a [Fingerprint]) -> Self {
        let mut by_class: BTreeMap<Class, Vec<usize>> = BTreeMap::new();
        for (i, s) in pool.iter().enumerate() {
            by_class.entry(s.class).or_default().push(i);
        }
        Driver {
            pattern: gen::pattern(w),
            by_class,
            cursor: BTreeMap::new(),
            pool,
            seen,
            last_slab: None,
            ops: 0,
            failed: 0,
            errors: Vec::new(),
            log: Vec::new(),
            acked: BTreeMap::new(),
            stores: 0,
        }
    }

    /// Issues the next statement through `issue(stmt, text, repeat)`;
    /// `repeat` marks an `execute_prepared` repeat of the previous slab
    /// statement. Returns the statement and its latency.
    pub fn step(
        &mut self,
        seq: &mut Seq,
        issue: &mut dyn FnMut(&Stmt, &str, bool) -> Issued,
    ) -> (&'a Stmt, f64) {
        let slot = self.pattern[(self.ops % self.pattern.len() as u64) as usize];
        let (idx, repeat) = match (slot, self.last_slab) {
            (None, Some(idx)) => (idx, true),
            (slot, _) => {
                let class = slot.unwrap_or(Class::Slab);
                let list = &self.by_class[&class];
                let at = self.cursor.entry(class).or_insert(0);
                let idx = list[*at % list.len()];
                *at += 1;
                (idx, false)
            }
        };
        let stmt = &self.pool[idx];
        if stmt.class == Class::Slab {
            self.last_slab = Some(idx);
        }
        seq.0 += 1;
        self.ops += 1;
        let (res, ms) = issue(stmt, &issue_text(stmt, seq.0), repeat);
        let kind = if repeat { REPEAT } else { stmt.kind };
        self.log.push((kind, stmt.class, ms));
        match res {
            Ok(answer) if answer.cells() == self.seen[idx].cells => {
                if let Some((i, j, v)) = stmt.insert {
                    self.acked.insert((i, j), v);
                }
                self.stores += u64::from(stmt.is_store());
            }
            Ok(answer) => self.fail(format!(
                "{}: {} cells, the oracle pass saw {}",
                stmt.text,
                answer.cells(),
                self.seen[idx].cells
            )),
            Err(e) => self.fail(format!("{}: {e}", stmt.text)),
        }
        (stmt, ms)
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Statements per pass over the pool; a session's retained traces are
    /// drained this often so they do not drive `peak_rss_mb`.
    pub fn pass_len(&self) -> u64 {
        self.pool.len() as u64
    }
}

/// Times `f` in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// The wire's issue step: a repeat prepares (untimed) and times only
/// `execute_prepared`, the call a cache hit is meant to make cheap.
pub fn issue_wire(client: &mut Client, text: &str, repeat: bool) -> Issued {
    if repeat {
        match client.prepare(text) {
            Ok(key) => timed(|| remote(client.execute_prepared(&key))),
            Err(e) => (Err(e.to_string()), 0.0),
        }
    } else {
        timed(|| client.exec(text))
    }
}

/// Runs the oracle pass: every pool statement once through `target`, each
/// answer fully checksummed. This is also the warm-up.
fn oracle_pass(
    target: &mut dyn Target,
    pool: &[Stmt],
    seq: &mut Seq,
    acked: &mut BTreeMap<(i64, i64), f64>,
) -> Result<Vec<Fingerprint>, String> {
    pool.iter()
        .map(|stmt| {
            seq.0 += 1;
            let answer = target
                .exec(&issue_text(stmt, seq.0))
                .map_err(|e| format!("oracle pass: {}: {e}", stmt.text))?;
            if let Some((i, j, v)) = stmt.insert {
                acked.insert((i, j), v);
            }
            Ok(answer.fingerprint())
        })
        .collect()
}

/// Sets `VmHWM` back to the current resident size, so that what is read
/// after a window is the window's peak and not the set-up's. Returns
/// whether the kernel allowed it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Lines the parent parses.
pub struct Report;

impl Report {
    pub fn metric(name: &str, value: f64) {
        println!("M {name} {value:?}");
    }
    pub fn info(text: &str) {
        println!("I {text}");
    }
    pub fn error(text: &str) {
        println!("E {}", text.replace('\n', " "));
    }
}

/// One statement of a window: its kind, its class, and its latency in ms.
pub type Sample = (&'static str, Class, f64);

/// Per class, the median latency over every execution of the class in the
/// window, and their number. Prepared repeats are not executions of a
/// class; they count in the throughput and the tail.
pub fn class_medians(samples: &[Sample]) -> BTreeMap<Class, (f64, usize)> {
    let mut per_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for &(_, class, ms) in samples.iter().filter(|x| x.0 != REPEAT) {
        per_class.entry(class).or_default().push(ms);
    }
    per_class
        .into_iter()
        .map(|(c, v)| (c, (median(&v), v.len())))
        .collect()
}

/// Per kind, fastest first: the median latency and the number of
/// executions. Printed with every run, so the mix behind a class median
/// can be seen.
fn kind_medians(samples: &[Sample], class: Class) -> Vec<(&'static str, f64, usize)> {
    let mut per_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for &(kind, _, ms) in samples.iter().filter(|x| x.1 == class) {
        per_kind.entry(kind).or_default().push(ms);
    }
    let mut out: Vec<_> = per_kind
        .into_iter()
        .map(|(k, v)| (k, median(&v), v.len()))
        .collect();
    out.sort_by(|a, b| a.1.total_cmp(&b.1));
    out
}

/// Everything a finished window hands to the metric and check code.
struct Window {
    wall: Duration,
    ops: u64,
    failed: u64,
    errors: Vec<String>,
    samples: Vec<Sample>,
    acked: BTreeMap<(i64, i64), f64>,
    stores: u64,
    merges: Vec<(f64, scidb_storage::MergeStats)>,
    /// Latencies of the statements issued right after a merge.
    after_merge: Vec<f64>,
}

impl Window {
    fn absorb(&mut self, d: Driver<'_>) {
        self.ops += d.ops;
        self.failed += d.failed;
        self.errors.extend(d.errors);
        self.samples.extend(d.log);
        self.acked.extend(d.acked);
        self.stores += d.stores;
    }
}

/// When a window ends: at a time, or (the traced run's two windows) after a
/// number of operations per client.
#[derive(Clone, Copy)]
enum Until {
    Deadline(Instant),
    Ops(u64),
}

impl Until {
    fn reached(self, ops: u64) -> bool {
        match self {
            Until::Deadline(t) => Instant::now() >= t,
            Until::Ops(n) => ops >= n,
        }
    }
}

/// What a window issues: the workload's pools, one per client, and what the
/// oracle pass saw each statement answer.
#[derive(Clone, Copy)]
struct Plan<'a> {
    w: Workload,
    pools: &'a [Vec<Stmt>],
    seen: &'a [Vec<Fingerprint>],
}

/// What carries over from one window of a run to the next.
struct Progress {
    seq: Seq,
    merges_done: u64,
}

/// The arrays ingest_mix merges, in turn.
const MERGE_TARGETS: [&str; 4] = ["cold", "stack", "sky", "hot"];

/// One closed-loop window against `sut`. `layers` is `Some` for the traced
/// replay.
fn window(
    plan: &Plan<'_>,
    sut: &mut Sut,
    progress: &mut Progress,
    until: Until,
    mut layers: Option<&mut Layers>,
) -> Window {
    let Plan { w, pools, seen } = *plan;
    let Progress { seq, merges_done } = progress;
    let mut out = Window {
        wall: Duration::ZERO,
        ops: 0,
        failed: 0,
        errors: Vec::new(),
        samples: Vec::new(),
        acked: BTreeMap::new(),
        stores: 0,
        merges: Vec::new(),
        after_merge: Vec::new(),
    };
    let start = Instant::now();
    match sut {
        Sut::InProc { sess, db } => {
            let mut d = Driver::new(w, &pools[0], &seen[0]);
            let mut since_merge = u64::MAX;
            while !until.reached(d.ops) {
                if w == Workload::IngestMix
                    && d.ops % MERGE_EVERY == MERGE_EVERY - 1
                    && since_merge != 0
                {
                    let name = MERGE_TARGETS[(*merges_done % 4) as usize];
                    let factor = 2 << (*merges_done / 4).min(2);
                    *merges_done += 1;
                    match timed(|| db.merge_on_disk(name, factor)) {
                        (Ok(stats), ms) => out.merges.push((ms, stats)),
                        (Err(e), _) => {
                            out.failed += 1;
                            out.errors
                                .push(format!("merge_on_disk({name}, {factor}): {e}"));
                        }
                    }
                    out.ops += 1;
                    since_merge = 0;
                    continue;
                }
                let (_, ms) = match layers.as_deref_mut() {
                    Some(l) => d.step(seq, &mut |stmt, text, _| {
                        l.traced_session(sess, stmt, text, w.durable())
                    }),
                    None => d.step(seq, &mut |_, text, _| timed(|| sess.exec(text))),
                };
                if since_merge < 4 {
                    out.after_merge.push(ms);
                }
                since_merge = since_merge.saturating_add(1);
                if d.ops.is_multiple_of(d.pass_len()) {
                    sess.take_metrics();
                }
            }
            out.wall = start.elapsed();
            out.absorb(d);
        }
        Sut::Wire { clients, .. } => {
            let barrier = Barrier::new(clients.len());
            let mut traced: Vec<Option<Layers>> = clients
                .iter()
                .map(|_| layers.as_ref().map(|l| l.fork()))
                .collect();
            let drivers: Vec<(Driver<'_>, Duration)> = std::thread::scope(|s| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .zip(traced.iter_mut())
                    .enumerate()
                    .map(|(c, (client, layers))| {
                        let barrier = &barrier;
                        let (pool, seen) = (&pools[c], &seen[c]);
                        s.spawn(move || {
                            // The wire issues no `store`, the only
                            // statement a sequence number names.
                            let mut seq = Seq(0);
                            let mut d = Driver::new(w, pool, seen);
                            barrier.wait();
                            let t = Instant::now();
                            while !until.reached(d.ops) {
                                match layers.as_mut() {
                                    Some(l) => d.step(&mut seq, &mut |stmt, text, rep| {
                                        l.traced_client(client, stmt, text, rep)
                                    }),
                                    None => d.step(&mut seq, &mut |_, text, rep| {
                                        issue_wire(client, text, rep)
                                    }),
                                };
                            }
                            (d, t.elapsed())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            });
            for (d, wall) in drivers {
                out.wall = out.wall.max(wall);
                out.absorb(d);
            }
            if let Some(l) = layers {
                for t in traced.into_iter().flatten() {
                    l.join(t);
                }
            }
        }
    }
    out
}

/// ingest_mix: drop the handle, reopen, and re-read every acknowledged
/// insert and store. Returns the failures.
fn reopen_and_verify(
    dir: &Path,
    acked: &BTreeMap<(i64, i64), f64>,
    stores: u64,
) -> Result<(), String> {
    let db = Database::open_with_threads(dir, nproc()).map_err(|e| format!("reopen: {e}"))?;
    let mut sess = db.share().session();
    let log = match sess.exec("scan(log)")? {
        Answer::Array(a) => a,
        Answer::Done => return Err("scan(log) answered no array".into()),
    };
    let got: BTreeMap<(i64, i64), f64> = log.cells_f64(0).map(|(c, v)| ((c[0], c[1]), v)).collect();
    if &got != acked {
        let missing = acked.iter().filter(|(k, v)| got.get(k) != Some(v)).count();
        return Err(format!(
            "after reopen {missing} of {} acknowledged inserts are missing or changed ({} cells in log)",
            acked.len(),
            got.len()
        ));
    }
    let kept = db
        .array_names()
        .iter()
        .filter(|n| n.starts_with("st_"))
        .count() as u64;
    if kept != stores {
        return Err(format!(
            "after reopen {kept} stored arrays, {stores} were acknowledged"
        ));
    }
    Ok(())
}

/// Runs the child: prints `M`/`C`/`I`/`E` lines and an `O attempted failed`
/// line. Returns the process exit code.
pub fn child_main(args: &Args) -> i32 {
    match run(args) {
        Ok(failed) => i32::from(failed > 0),
        Err(e) => {
            Report::error(&e);
            println!("O 1 1");
            1
        }
    }
}

fn run(args: &Args) -> Result<u64, String> {
    let w = args.workload;
    let sizes = args.sizes();
    std::fs::create_dir_all(&args.dir).map_err(|e| format!("{}: {e}", args.dir.display()))?;
    Report::info(&format!(
        "{}: seed {} loop closed, {} engine threads, {} client(s), nproc {}, dir {}",
        w.name(),
        args.seed,
        engine_threads(w),
        clients(w),
        nproc(),
        args.dir.display()
    ));

    // ---- set-up, several times; the last one is kept -------------------
    let mut setups = Vec::new();
    let mut kept: Option<(Sut, PathBuf)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((sut, dir)) = kept.take() {
            drop(sut);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = args.dir.join(format!("db{rep}"));
        let (sut, setup) = set_up(w, sizes, args.seed, &dir)?;
        setups.push(setup);
        kept = Some((sut, dir));
    }
    let (mut sut, db_dir) = kept.expect("at least one set-up");
    let setup_s = median(
        &setups
            .iter()
            .map(|s| s.total.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let load_s = median(
        &setups
            .iter()
            .map(|s| s.load.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let setup = &setups[SETUP_REPS - 1];

    // ---- oracle pass ----------------------------------------------------
    let n_clients = clients(w);
    let pools = gen::pools(w, &sizes, args.seed, n_clients);
    let mut seq = Seq(0);
    let mut acked = BTreeMap::new();
    let mut seen = Vec::new();
    for (c, pool) in pools.iter().enumerate() {
        let prints = match &mut sut {
            Sut::InProc { sess, .. } => {
                let p = oracle_pass(sess, pool, &mut seq, &mut acked)?;
                sess.take_metrics();
                p
            }
            Sut::Wire { clients, .. } => oracle_pass(&mut clients[c], pool, &mut seq, &mut acked)?,
        };
        for (i, p) in prints.iter().enumerate() {
            println!("C {c} {i} {:016x} {}", p.hash, p.cells);
        }
        seen.push(prints);
    }
    let checked: u64 = pools.iter().map(|p| p.len() as u64).sum();
    let stores_before: u64 = pools.iter().flatten().filter(|s| s.is_store()).count() as u64;

    // ---- the window(s) --------------------------------------------------
    let plan = Plan {
        w,
        pools: &pools,
        seen: &seen,
    };
    let mut progress = Progress {
        seq,
        merges_done: 0,
    };
    let mut layers = args.trace.then(|| Layers::new(Instant::now()));
    let rss_reset = reset_peak_rss();
    let until = if args.trace {
        Until::Ops(traced_ops(w, args.seconds))
    } else {
        Until::Deadline(Instant::now() + Duration::from_secs_f64(args.seconds))
    };
    let mut win = window(&plan, &mut sut, &mut progress, until, None);
    let mut attempted = checked + win.ops;
    let mut failed = win.failed;
    for e in &win.errors {
        Report::error(e);
    }

    if let Some(layers) = layers.as_mut() {
        // Replay the same statements, traced, and compare the walls.
        // Four threads hammering two shared counters would slow the wire's
        // allocation-heavy decode several times over; in process it is one
        // statement at a time.
        crate::spans::arm_alloc_counter(w != Workload::WireMix);
        let allocs_before = crate::spans::alloc_counts();
        let traced = window(&plan, &mut sut, &mut progress, until, Some(layers));
        let allocs_after = crate::spans::alloc_counts();
        crate::spans::arm_alloc_counter(false);
        attempted += traced.ops;
        failed += traced.failed;
        for e in &traced.errors {
            Report::error(e);
        }
        let stmts = traced.samples.len().max(1) as f64;
        layers.set(
            "query.alloc_count_per_stmt",
            (allocs_after.0 - allocs_before.0) as f64 / stmts,
        );
        layers.set(
            "query.alloc_bytes_per_stmt",
            (allocs_after.1 - allocs_before.1) as f64 / stmts,
        );
        // The replay issues the untraced window's statements again; both
        // walls are scaled to their own statement counts before comparing.
        let per_stmt = |w: &Window| w.wall.as_secs_f64() / w.samples.len().max(1) as f64;
        layers.set(
            "obs.trace_overhead_pct",
            (per_stmt(&traced) / per_stmt(&win) - 1.0) * 100.0,
        );
        if !traced.merges.is_empty() {
            layers.set(
                "storage.merge_ms",
                median(&traced.merges.iter().map(|m| m.0).collect::<Vec<_>>()),
            );
            layers.set(
                "storage.merge_bytes_rewritten",
                traced.merges.iter().map(|m| m.1.bytes_written as f64).sum(),
            );
            layers.set(
                "storage.merge_stall_p95_ms",
                percentile(&traced.after_merge, 95.0),
            );
        }
        win.acked.extend(traced.acked.clone());
        win.stores += traced.stores;
    }
    acked.extend(win.acked.clone());
    let stores = stores_before + win.stores;

    // ---- end-to-end metrics --------------------------------------------
    let rss = peak_rss_mb();
    if !args.trace {
        let all: Vec<f64> = win.samples.iter().map(|x| x.2).collect();
        let medians = class_medians(&win.samples);
        Report::metric("setup_s", setup_s);
        Report::metric(
            "stmt_per_s",
            all.len() as f64 / win.wall.as_secs_f64().max(1e-9),
        );
        for class in Class::ALL {
            let (p50, n) = medians.get(&class).copied().unwrap_or((0.0, 0));
            // A write on a durable database is one fdatasync on a shared
            // disk, whose latency drifts by a third within the hour: its
            // median is printed, and gated nowhere.
            if class != Class::Write {
                Report::metric(&format!("{}_p50_ms", class.name()), p50);
            } else if n == 0 {
                continue;
            }
            let listing: Vec<String> = kind_medians(&win.samples, class)
                .iter()
                .map(|(k, ms, n)| format!("{k} {ms:.3} x{n}"))
                .collect();
            Report::info(&format!(
                "{} samples: {n}, median {p50:.4} ms; kind medians (ms): {}",
                class.name(),
                listing.join(", ")
            ));
        }
        Report::metric("stmt_p95_ms", percentile(&all, 95.0));
        Report::metric("peak_rss_mb", rss);
        let n = all.len();
        Report::info(&format!(
            "{n} statements in {:.2} s; the tail percentile {n} samples support is p{}; peak RSS is {}",
            win.wall.as_secs_f64(),
            tail_percentile(n).unwrap_or(0.0),
            if rss_reset {
                "the window's"
            } else {
                "the whole process's (the kernel refused the reset)"
            },
        ));
    }

    // ---- the workload's own checks and probes --------------------------
    if let Some(layers) = layers.as_mut() {
        layers.set(
            "storage.ingest_cells_per_s",
            if w.durable() {
                setup.cells as f64 / load_s.max(1e-9)
            } else {
                0.0
            },
        );
        if w.durable() {
            layers.set(
                "storage.stored_bytes_per_user_byte",
                (setup.wal_bytes + setup.pages_bytes) as f64 / setup.user_bytes as f64,
            );
            layers.set(
                "storage.wal_bytes_per_user_byte",
                setup.wal_bytes as f64 / setup.user_bytes as f64,
            );
            layers.set("storage.pages_bytes", setup.pages_bytes as f64);
        }
        layers::probes(args, layers, &mut sut, &pools)?;
    }
    drop(sut);
    if w == Workload::IngestMix {
        attempted += 1;
        if let Err(e) = reopen_and_verify(&db_dir, &acked, stores) {
            failed += 1;
            Report::error(&e);
        }
        if let Some(layers) = layers.as_mut() {
            layers::first_query(layers, &db_dir)?;
        }
    }
    if let Some(layers) = layers {
        for (name, value) in layers.metrics() {
            Report::metric(&name, value);
        }
        let path = args
            .out_dir
            .join(format!("e2e-smoke-trace-{}.json", w.name()));
        std::fs::write(&path, layers.trace_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Report::info(&format!("trace written to {}", path.display()));
    }
    let _ = std::fs::remove_dir_all(&args.dir);
    println!("O {attempted} {failed}");
    Ok(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_median_is_over_every_execution_but_prepared_repeats() {
        let slab = |kind, ms| (kind, Class::Slab, ms);
        let samples = vec![
            slab("cheap", 1.3),
            slab("mid", 26.0),
            slab("dear", 60.0),
            slab("cheap", 1.0),
            slab("mid", 20.0),
            slab("dear", 75.0),
            slab("cheap", 1.2),
            slab("mid", 25.0),
            slab("dear", 58.0),
            ("insert", Class::Write, 0.4),
            (REPEAT, Class::Slab, 0.02),
            (REPEAT, Class::Slab, 0.03),
        ];
        let medians = class_medians(&samples);
        assert_eq!(medians[&Class::Slab], (25.0, 9));
        assert_eq!(medians[&Class::Write], (0.4, 1));
        assert!(!medians.contains_key(&Class::Join));
        let kinds = kind_medians(&samples, Class::Slab);
        assert_eq!(kinds[0], (REPEAT, 0.025, 2));
        assert_eq!(kinds[2], ("mid", 25.0, 3));
    }

    #[test]
    fn driver_follows_the_pattern_and_counts_a_wrong_cell_count_as_failed() {
        let sizes = Sizes::quick();
        let pool = gen::pool(Workload::WireMix, &sizes, 1, 0);
        let seen = vec![Fingerprint::default(); pool.len()];
        let mut d = Driver::new(Workload::WireMix, &pool, &seen);
        let mut seq = Seq(0);
        let mut issued = Vec::new();
        for _ in 0..20 {
            d.step(&mut seq, &mut |stmt, _, repeat| {
                issued.push((stmt.class, repeat));
                (Ok(Answer::Done), 1.0)
            });
        }
        let count = |c: Class, rep: bool| issued.iter().filter(|x| **x == (c, rep)).count();
        assert_eq!(count(Class::Slab, false), 11);
        assert_eq!(count(Class::Slab, true), 2);
        assert_eq!(count(Class::Sweep, false), 5);
        assert_eq!(
            (count(Class::Write, false), count(Class::Join, false)),
            (1, 1)
        );
        assert_eq!((d.ops, d.failed, seq.0), (20, 0, 20));
        // An answer whose size differs from the oracle pass's is a failure.
        d.step(&mut seq, &mut |_, _, _| {
            (Ok(Answer::Array(gen::dense("x", 2, 0))), 1.0)
        });
        assert_eq!(d.failed, 1);
        assert_eq!(d.log.iter().filter(|x| x.0 == REPEAT).count(), 2);
    }
}
