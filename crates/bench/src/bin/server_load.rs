//! `server_load` — the serving-layer benchmark behind the CI bench gate.
//!
//! Starts one in-process [`Server`] over a shared engine, connects
//! `SESSIONS` concurrent client sessions, and drives a mixed statement
//! workload (scans, filters via prepared statements, aggregates, and the
//! occasional write that invalidates the result cache) through the full
//! stack: wire codec, handshake, admission control, session isolation,
//! parallel executor. Per-request latencies feed a power-of-two histogram
//! (printed for humans) and the p50/p99 quantiles that
//! `cargo xtask bench-gate` holds within ±20 % of `BENCH_baseline.json`.
//! The deterministic counters (sessions, statements, errors, final cell
//! count) are pinned exactly — `server_errors` must stay 0, so any
//! admission rejection or protocol fault under this load fails the gate.

use scidb_query::Database;
use scidb_server::admission::AdmissionConfig;
use scidb_server::{Client, Server, ServerConfig};
use std::fmt::Write as _;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const SESSIONS: usize = 256;
const QUERIES_PER_SESSION: usize = 8;
const SIDE: i64 = 32;
const REPS: usize = 3;

/// The filter every session prepares once and re-executes by key.
const PREPARED: &str = "filter(bench, v > 500)";

/// Whether request `i` of a session re-executes the prepared statement.
fn uses_prepared(i: usize) -> bool {
    matches!(i % 8, 1 | 6)
}

/// The statement mix one session cycles through. Request 3 is a write:
/// it exercises the write path and invalidates the shared result cache,
/// so reads re-execute rather than coasting on one cached answer.
fn statement(i: usize) -> &'static str {
    match i % 8 {
        0 | 4 => "scan(bench)",
        2 => "aggregate(bench, {I}, sum(v))",
        3 => "insert into bench[1, 1] values (1001)",
        5 => "regrid(bench, [4, 4], max)",
        _ => "filter(bench, v > 100)",
    }
}

fn build_engine() -> Database {
    let mut db = Database::with_threads(2);
    db.run(&format!(
        "define sky (v = int) (I = 1:{SIDE}, J = 1:{SIDE});
         create bench as sky [{SIDE}, {SIDE}];"
    ))
    .expect("create bench array");
    for i in 1..=SIDE {
        for j in 1..=SIDE {
            db.run(&format!(
                "insert into bench[{i}, {j}] values ({})",
                i * 100 + j
            ))
            .expect("seed cell");
        }
    }
    db
}

fn config() -> ServerConfig {
    ServerConfig {
        admission: AdmissionConfig {
            max_active: 64,
            max_queued: 2 * SESSIONS,
            max_wait: Duration::from_secs(60),
        },
        ..ServerConfig::default()
    }
}

struct SessionReport {
    latencies_us: Vec<u128>,
    errors: usize,
    /// Server-reported queue waits from the QueryStats trailers (µs).
    queue_waits_us: Vec<u128>,
    /// Trailer-reported cells scanned, summed over the session.
    cells_scanned: u64,
    /// Trailer-reported result-cache hits over the session.
    cache_hits: u64,
}

fn drive_session(addr: std::net::SocketAddr, start: &Barrier) -> SessionReport {
    let mut report = SessionReport {
        latencies_us: Vec::with_capacity(QUERIES_PER_SESSION + 1),
        errors: 0,
        queue_waits_us: Vec::with_capacity(QUERIES_PER_SESSION),
        cells_scanned: 0,
        cache_hits: 0,
    };
    let mut client = match Client::connect(addr, "") {
        Ok(c) => c,
        Err(_) => {
            report.errors += QUERIES_PER_SESSION + 1;
            start.wait();
            return report;
        }
    };
    let key = match client.prepare(PREPARED) {
        Ok(k) => k,
        Err(_) => {
            report.errors += 1;
            PREPARED.to_string()
        }
    };
    start.wait();
    for i in 0..QUERIES_PER_SESSION {
        let t = Instant::now();
        let outcome = if uses_prepared(i) {
            client.execute_prepared(&key).map(|_| ())
        } else {
            client.execute(statement(i)).map(|_| ())
        };
        report.latencies_us.push(t.elapsed().as_micros());
        if outcome.is_err() {
            report.errors += 1;
        }
        // Every response carries a QueryStats trailer (protocol v1):
        // server-side queue wait and resource accounting ride back with
        // the answer, so the bench needs no second channel to observe it.
        if let Some(stats) = client.last_stats() {
            report.queue_waits_us.push(stats.queue_wait_us as u128);
            report.cells_scanned += stats.cells_scanned;
            report.cache_hits += u64::from(stats.cache_hit);
        }
    }
    report
}

struct LoadRun {
    latencies_us: Vec<u128>,
    errors: usize,
    wall_us: u128,
    final_cells: usize,
    /// Ranked-lock witness deltas over the run (acquisitions, contended).
    lock_acquisitions: u64,
    lock_contended: u64,
    /// Admission queue waits reported by the QueryStats trailers (µs).
    queue_waits_us: Vec<u128>,
    /// Trailer-derived totals across every request of the run.
    trailer_cells_scanned: u64,
    trailer_cache_hits: u64,
    /// The server's own `Request::Stats { json }` dump, taken after the
    /// load drains (uploaded as a CI artifact).
    stats_json: String,
}

fn run_load() -> LoadRun {
    let locks_before = scidb_obs::sync::witness::stats();
    let db = build_engine();
    let server = Server::start(db.clone(), config()).expect("server start");
    let addr = server.addr();
    let start = Arc::new(Barrier::new(SESSIONS));
    let wall = Instant::now();
    let mut handles = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let start = Arc::clone(&start);
        // Stagger connection attempts a little so a quarter-thousand
        // simultaneous SYNs cannot overflow the listener backlog; the
        // barrier re-synchronizes every session before the timed loop.
        // analyze: allow(R3, one OS thread per simulated client session)
        handles.push(std::thread::spawn(move || {
            std::thread::sleep(Duration::from_micros((i as u64 % 64) * 200));
            drive_session(addr, &start)
        }));
    }
    let mut latencies_us = Vec::with_capacity(SESSIONS * QUERIES_PER_SESSION);
    let mut errors = 0usize;
    let mut queue_waits_us = Vec::with_capacity(SESSIONS * QUERIES_PER_SESSION);
    let mut trailer_cells_scanned = 0u64;
    let mut trailer_cache_hits = 0u64;
    for h in handles {
        let r = h.join().expect("session thread");
        latencies_us.extend(r.latencies_us);
        errors += r.errors;
        queue_waits_us.extend(r.queue_waits_us);
        trailer_cells_scanned += r.cells_scanned;
        trailer_cache_hits += r.cache_hits;
    }
    let wall_us = wall.elapsed().as_micros();
    // Ask the server for its own accounting over the admin surface while
    // it is still up — the same dump `scidb-top` renders live.
    let stats_json = Client::connect(addr, "")
        .and_then(|mut c| c.stats(scidb_server::StatsFormat::Json))
        .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
    let final_cells = db
        .snapshot("bench")
        .expect("bench survives the load")
        .cell_count();
    server.stop();
    let locks = scidb_obs::sync::witness::stats();
    LoadRun {
        latencies_us,
        errors,
        wall_us,
        final_cells,
        lock_acquisitions: locks.acquisitions - locks_before.acquisitions,
        lock_contended: locks.contended - locks_before.contended,
        queue_waits_us,
        trailer_cells_scanned,
        trailer_cache_hits,
        stats_json,
    }
}

fn quantile(sorted: &[u128], q: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn print_histogram(sorted: &[u128]) {
    println!("  latency histogram ({} requests):", sorted.len());
    let mut lo = 0u128;
    let mut hi = 64u128;
    while lo <= *sorted.last().unwrap_or(&0) {
        let n = sorted.iter().filter(|&&v| v >= lo && v < hi).count();
        if n > 0 {
            let bar = "#".repeat(1 + n * 40 / sorted.len().max(1));
            println!("    {lo:>8} - {hi:>8} us  {n:>5}  {bar}");
        }
        lo = hi;
        hi *= 2;
    }
}

fn main() {
    // Min-of-N repetitions: same scheduler-noise filter as chaos_smoke.
    // The deterministic counters must not vary across reps.
    let mut best: Option<LoadRun> = None;
    for _ in 0..REPS {
        let run = run_load();
        assert_eq!(run.errors, 0, "load run saw request errors");
        match &mut best {
            None => best = Some(run),
            Some(b) => {
                assert_eq!(b.final_cells, run.final_cells, "deterministic catalog");
                if run.wall_us < b.wall_us {
                    *b = run;
                }
            }
        }
    }
    let mut run = best.expect("REPS > 0");
    run.latencies_us.sort_unstable();
    run.queue_waits_us.sort_unstable();
    let total = run.latencies_us.len();
    let p50 = quantile(&run.latencies_us, 0.50);
    let p99 = quantile(&run.latencies_us, 0.99);
    let queue_wait_p99 = quantile(&run.queue_waits_us, 0.99);

    println!(
        "server load: {SESSIONS} concurrent sessions x {QUERIES_PER_SESSION} statements \
         ({total} requests, {} errors)",
        run.errors
    );
    println!(
        "  wall {} us, p50 {} us, p99 {} us, final cells {}",
        run.wall_us, p50, p99, run.final_cells
    );
    println!(
        "  locks: {} acquisitions, {} contended",
        run.lock_acquisitions, run.lock_contended
    );
    println!(
        "  trailers: queue-wait p99 {} us, {} cells scanned, {} cache hits",
        queue_wait_p99, run.trailer_cells_scanned, run.trailer_cache_hits
    );
    print_histogram(&run.latencies_us);

    let mut json = String::from("{");
    let _ = write!(json, "\"server_sessions\":{SESSIONS},");
    let _ = write!(json, "\"server_queries\":{total},");
    let _ = write!(json, "\"server_errors\":{},", run.errors);
    let _ = write!(json, "\"server_cells\":{},", run.final_cells);
    let _ = write!(json, "\"server_p50_us\":{p50},");
    let _ = write!(json, "\"server_p99_us\":{p99},");
    let _ = write!(
        json,
        "\"server_lock_acquisitions\":{},",
        run.lock_acquisitions
    );
    let _ = write!(json, "\"server_lock_contended\":{},", run.lock_contended);
    // Trailer-derived observability keys: informational in the bench
    // gate (queue wait is scheduler-dependent; the scanned/hit split
    // depends on cache timing under concurrency), but tracked so trends
    // are visible in CI artifacts.
    let _ = write!(json, "\"server_queue_wait_p99_us\":{queue_wait_p99},");
    let _ = write!(
        json,
        "\"server_trailer_cells_scanned\":{},",
        run.trailer_cells_scanned
    );
    let _ = write!(
        json,
        "\"server_trailer_cache_hits\":{},",
        run.trailer_cache_hits
    );
    let _ = write!(json, "\"server_wall_us\":{}", run.wall_us);
    json.push('}');

    let out = std::path::Path::new("target/server-load.json");
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).expect("create target dir");
    }
    std::fs::write(out, &json).expect("write server-load.json");
    println!("wrote {} ({} bytes)", out.display(), json.len());

    // The server's post-load Stats dump (wire `Request::Stats`, JSON
    // format): uploaded by CI so every bench run keeps the full registry
    // snapshot, not just the gated quantiles.
    let stats_out = std::path::Path::new("target/server-stats.json");
    std::fs::write(stats_out, &run.stats_json).expect("write server-stats.json");
    println!(
        "wrote {} ({} bytes)",
        stats_out.display(),
        run.stats_json.len()
    );

    assert!(total >= SESSIONS * QUERIES_PER_SESSION, "all requests ran");
}
