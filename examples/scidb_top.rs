//! `scidb-top` — a terminal monitor for a running SciDB server, built
//! entirely on the observability wire surface (DESIGN.md §14):
//!
//! * `Request::Health` for the admission-gate gauges,
//! * `Request::Stats { format: json }` for the raw registry dump,
//! * plain AQL over `system.sessions` / `system.slow_queries` /
//!   `system.locks` / `system.result_cache` — the monitoring API *is* the
//!   query language, so no bespoke admin protocol is needed,
//! * the per-response `QueryStats` trailer for the monitor's own cost.
//!
//! Usage:
//!
//! ```text
//! cargo run --example scidb_top                  # self-hosted demo server
//! cargo run --example scidb_top -- 127.0.0.1:1239 [ticks]
//! ```
//!
//! With no address, the example starts a loopback server, drives a small
//! background workload, and watches it for a few refresh ticks.

use scidb::server::{Client, Health, Server, ServerConfig, StatsFormat};
use scidb::{Database, Value};
use std::time::Duration;

/// One refresh: everything the monitor shows, fetched over one connection.
struct Tick {
    health: Health,
    sessions: Vec<(i64, i64, i64, i64, i64)>,
    slow: Vec<(i64, String, String, i64)>,
    locks: Vec<(String, i64, i64, i64)>,
    cache: Option<(i64, i64, i64, i64)>,
    statements: i64,
    monitor_cost_us: u64,
}

fn str_of(v: &Value) -> String {
    match v {
        Value::Scalar(scidb::Scalar::String(s)) => s.clone(),
        other => other.to_string(),
    }
}

fn i64_of(v: &Value) -> i64 {
    v.as_i64().unwrap_or(0)
}

fn fetch_tick(client: &mut Client) -> Result<Tick, scidb::Error> {
    let health = client.health()?;

    // The registry dump is the source for process-wide counters; pull one
    // headline number out of the JSON without a parser dependency.
    let stats_json = client.stats(StatsFormat::Json)?;
    let statements = stats_json
        .split("\"scidb.query.statements\":{\"type\":\"counter\",\"value\":")
        .nth(1)
        .and_then(|rest| rest.split(['}', ',']).next())
        .and_then(|n| n.trim().parse::<i64>().ok())
        .unwrap_or(0);

    let mut monitor_cost_us = 0u64;
    let mut run = |client: &mut Client, aql: &str| -> Result<scidb::Array, scidb::Error> {
        let a = client.query(aql)?;
        // The monitor observes its own cost through the same trailer every
        // client gets: introspection queries are accounted like any other.
        if let Some(t) = client.last_stats() {
            monitor_cost_us += t.exec_us;
        }
        Ok(a)
    };

    let sessions = run(client, "scan(system.sessions)")?
        .cells()
        .map(|(_, r)| {
            (
                i64_of(&r[0]),
                i64_of(&r[1]),
                i64_of(&r[2]),
                i64_of(&r[3]),
                i64_of(&r[4]),
            )
        })
        .collect();
    let slow = run(client, "scan(system.slow_queries)")?
        .cells()
        .map(|(_, r)| (i64_of(&r[0]), str_of(&r[1]), str_of(&r[2]), i64_of(&r[3])))
        .collect();
    let locks = run(client, "filter(system.locks, contended > -1)")?
        .cells()
        .map(|(_, r)| (str_of(&r[0]), i64_of(&r[1]), i64_of(&r[2]), i64_of(&r[3])))
        .collect();
    let cache = run(client, "scan(system.result_cache)")?
        .cells()
        .next()
        .map(|(_, r)| (i64_of(&r[0]), i64_of(&r[1]), i64_of(&r[2]), i64_of(&r[3])));

    Ok(Tick {
        health,
        sessions,
        slow,
        locks,
        cache,
        statements,
        monitor_cost_us,
    })
}

fn render(tick: &Tick, n: usize) {
    println!("── scidb-top · tick {n} ──────────────────────────────────────");
    let h = &tick.health;
    println!(
        "admission  active {}/{}  queued {}/{}  timed-out {}  sessions {}",
        h.active, h.max_active, h.queued, h.max_queued, h.timed_out, h.sessions
    );
    println!(
        "engine     {} statements executed (process-wide)",
        tick.statements
    );

    println!("sessions   sid  stmts  errs  cache-hits  cells-scanned");
    for (sid, stmts, errs, hits, cells) in &tick.sessions {
        println!("           {sid:<4} {stmts:<6} {errs:<5} {hits:<11} {cells}");
    }

    if let Some((generation, entries, capacity, hits)) = tick.cache {
        println!("cache      gen {generation}  entries {entries}/{capacity}  hits {hits}");
    }

    let contended: Vec<_> = tick.locks.iter().filter(|l| l.3 > 0).collect();
    println!(
        "locks      {} ranked locks, {} with contention",
        tick.locks.len(),
        contended.len()
    );
    for (name, rank, acq, cont) in contended.iter().take(5) {
        println!("           {name} (rank {rank}): {acq} acquisitions, {cont} contended");
    }

    println!("slow log   {} entries", tick.slow.len());
    for (sid, fingerprint, aql, wall) in tick.slow.iter().rev().take(5) {
        let aql = if aql.len() > 40 { &aql[..40] } else { aql };
        println!("           [{sid}/{fingerprint}] {wall:>8} us  {aql}");
    }
    println!(
        "monitor    {} us spent on this refresh's queries",
        tick.monitor_cost_us
    );
    println!();
}

/// Starts a loopback demo server with a little churn so the monitor has
/// something to show.
fn demo_server() -> (Server, Vec<std::thread::JoinHandle<()>>) {
    let mut db = Database::with_threads(2);
    db.run(
        "define sky (v = int) (X = 1:16, Y = 1:16);
         create stars as sky [16, 16];",
    )
    .expect("seed schema");
    for x in 1..=16 {
        db.run(&format!("insert into stars[{x}, {x}] values ({})", x * x))
            .expect("seed cell");
    }
    let server = Server::start(db, ServerConfig::default()).expect("start server");
    let addr = server.addr();
    let workers = (0..3)
        .map(|w| {
            std::thread::spawn(move || {
                let Ok(mut c) = Client::connect(addr, "") else {
                    return;
                };
                for i in 0..12 {
                    let _ = match (w + i) % 3 {
                        0 => c.query("scan(stars)"),
                        1 => c.query("filter(stars, v > 50)"),
                        _ => c.query("aggregate(stars, {X}, sum(v))"),
                    };
                    std::thread::sleep(Duration::from_millis(25));
                }
            })
        })
        .collect();
    (server, workers)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ticks: usize = args.get(1).and_then(|t| t.parse().ok()).unwrap_or(3);

    let (addr, _demo) = match args.first() {
        Some(a) => (a.parse().expect("addr like 127.0.0.1:1239"), None),
        None => {
            let (server, workers) = demo_server();
            let addr = server.addr();
            println!("no address given; self-hosting a demo server on {addr}\n");
            (addr, Some((server, workers)))
        }
    };

    let mut client = Client::connect(addr, "").expect("connect");
    println!(
        "connected: session {} over protocol v{}\n",
        client.session_id(),
        client.protocol_version()
    );
    for n in 1..=ticks {
        match fetch_tick(&mut client) {
            Ok(tick) => render(&tick, n),
            Err(e) => {
                eprintln!("refresh failed: {e}");
                break;
            }
        }
        if n < ticks {
            std::thread::sleep(Duration::from_millis(120));
        }
    }
    if let Some((server, workers)) = _demo {
        for w in workers {
            let _ = w.join();
        }
        server.stop();
    }
}
