//! Concurrency tests for the shared-database API: many threads executing
//! through clones of one `Database`, with per-session trace/metric
//! isolation and writer/reader coherence.

use scidb::query::StmtResult;
use scidb::{Database, Value};
use std::thread;

fn seeded(threads: usize) -> Database {
    let mut db = Database::with_threads(threads);
    db.run(
        "define H (v = int) (X = 1:8, Y = 1:8);
         create A as H [8, 8];",
    )
    .unwrap();
    for x in 1..=8 {
        for y in 1..=8 {
            db.run(&format!("insert into A[{x}, {y}] values ({})", x * 10 + y))
                .unwrap();
        }
    }
    db
}

#[test]
fn many_threads_share_one_database_handle() {
    let shared = seeded(2);
    let expected = shared.session().query("aggregate(A, {Y}, sum(v))").unwrap();
    let mut handles = Vec::new();
    for _ in 0..16 {
        let shared = shared.clone();
        let expected = expected.clone();
        handles.push(thread::spawn(move || {
            let mut session = shared.session();
            for _ in 0..20 {
                let got = session.query("aggregate(A, {Y}, sum(v))").unwrap();
                assert_eq!(got, expected);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn per_session_traces_and_metrics_stay_isolated() {
    let shared = seeded(1);
    let queries = ["filter(A, v > 40)", "scan(A)", "regrid(A, [2, 2], sum)"];
    let mut handles = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let shared = shared.clone();
        let q = q.to_string();
        handles.push(thread::spawn(move || {
            let mut session = shared.session();
            for _ in 0..(i + 1) * 5 {
                session.query(&q).unwrap();
            }
            // Each session sees exactly its own statements: trace count
            // matches its executions, and every trace is its own query.
            let traces = session.traces();
            assert_eq!(traces.len(), (i + 1) * 5);
            for t in traces {
                assert_eq!(
                    t.spans[0].attr("aql").and_then(|v| v.as_str()),
                    Some(session.prepare(&q).unwrap().cache_key())
                );
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn writers_and_readers_interleave_coherently() {
    let shared = seeded(1);
    let mut handles = Vec::new();
    for i in 0..8 {
        let shared = shared.clone();
        handles.push(thread::spawn(move || {
            let mut session = shared.session();
            session
                .run(&format!("store filter(A, v > {}) into W{i}", i * 10))
                .unwrap();
            // Our own write is immediately visible to our session.
            let got = session.query(&format!("scan(W{i})")).unwrap();
            assert_eq!(got.cell_count(), 64);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // All writes are visible afterwards from a fresh session.
    let mut session = shared.session();
    let names = shared.array_names();
    for i in 0..8 {
        assert!(names.iter().any(|n| n == &format!("W{i}")));
        session.query(&format!("scan(W{i})")).unwrap();
    }
}

#[test]
fn exists_probes_race_with_inserts_without_corruption() {
    let shared = seeded(1);
    let writer = {
        let shared = shared.clone();
        thread::spawn(move || {
            let mut session = shared.session();
            for x in 1..=8 {
                for y in 1..=8 {
                    session
                        .run(&format!("insert into A[{x}, {y}] values (0)"))
                        .unwrap();
                }
            }
        })
    };
    let reader = {
        let shared = shared.clone();
        thread::spawn(move || {
            let mut session = shared.session();
            for _ in 0..50 {
                let r = session.run("exists(A, 4, 4)").unwrap().pop().unwrap();
                assert!(matches!(r, StmtResult::Bool(true)));
            }
        })
    };
    writer.join().unwrap();
    reader.join().unwrap();
    let got = shared.session().query("scan(A)").unwrap();
    assert_eq!(got.get_cell(&[4, 4]), Some(vec![Value::from(0i64)]));
}

/// The shared result cache under concurrent DDL/DML: readers hammering a
/// cached query while a writer mutates the catalog must never observe a
/// stale generation. The cache versions entries with a generation counter
/// bumped under the catalog write lock and loaded under the read lock, so
/// each reader's observed values must be monotonically non-decreasing.
#[test]
fn result_cache_never_serves_stale_results_under_concurrent_ddl() {
    let shared = seeded(1);
    const ROUNDS: i64 = 24;

    let writer = {
        let shared = shared.clone();
        thread::spawn(move || {
            let mut session = shared.session();
            for k in 1..=ROUNDS {
                // Strictly increasing cell values make staleness visible.
                session
                    .run(&format!("insert into A[1, 1] values ({})", 100 + k))
                    .unwrap();
                // Pure DDL invalidates too: create/drop unrelated arrays.
                if k % 6 == 0 {
                    session
                        .run(&format!("create T{k} as H [8, 8]; drop array T{k}"))
                        .unwrap();
                }
            }
        })
    };
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let shared = shared.clone();
            thread::spawn(move || {
                let mut session = shared.session();
                session.set_result_cache(true);
                let mut last = 0i64;
                for _ in 0..60 {
                    let got = session.query("scan(A)").unwrap();
                    let v = got.get_cell(&[1, 1]).unwrap()[0].as_i64().unwrap();
                    // Seeded value 11, then 101..=100+ROUNDS, never backwards.
                    assert!(v == 11 || (101..=100 + ROUNDS).contains(&v), "{v}");
                    assert!(v >= last, "stale cached result: saw {v} after {last}");
                    last = v;
                    thread::yield_now();
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }

    // Deterministic tail: a repeat query is a cache hit; DDL on an
    // *unrelated* array still invalidates (the generation is global), and
    // the re-evaluated answer is unchanged and final. The query text is
    // unique to this session — the cache is shared, so reusing the
    // readers' `scan(A)` key would start on an already-warm entry.
    let mut session = shared.session();
    session.set_result_cache(true);
    let v1 = session.query("filter(A, v > -1)").unwrap();
    let v2 = session.query("filter(A, v > -1)").unwrap();
    assert_eq!(v1, v2);
    session.run("create Tinv as H [8, 8]").unwrap();
    let v3 = session.query("filter(A, v > -1)").unwrap();
    assert_eq!(v2, v3);
    assert_eq!(
        v3.get_cell(&[1, 1]),
        Some(vec![Value::from(100 + ROUNDS)]),
        "final write must be visible"
    );
    let traces = session.traces();
    let hit = |i: usize| {
        traces[i].spans[0]
            .attr("cache_hit")
            .and_then(|v| v.as_bool())
            .unwrap_or(false)
    };
    assert!(!hit(0), "first query populates the cache");
    assert!(hit(1), "repeat query must be served from the cache");
    assert!(!hit(2), "DDL must invalidate the cached entry");
}

#[test]
fn shared_handle_is_cheap_to_clone_and_send() {
    fn assert_clone_send_sync<T: Clone + Send + Sync>(_: &T) {}
    let shared = seeded(1);
    assert_clone_send_sync(&shared);
    let clone = shared.clone();
    let h = thread::spawn(move || clone.session().query("scan(A)").unwrap().cell_count());
    assert_eq!(h.join().unwrap(), 64);
}

/// One named counter's value out of a `scan(system.metrics)` result.
fn metric_value(metrics: &scidb::Array, name: &str) -> i64 {
    metrics
        .cells()
        .find(|(_, rec)| rec[0] == Value::from(name.to_string()))
        .and_then(|(_, rec)| rec[2].as_i64())
        .unwrap_or(0)
}

/// The wire-level accounting loop closes: the QueryStats trailer on every
/// response must agree with what the engine's own introspection arrays
/// report for the same session, and with the process-wide counters in
/// `system.metrics` (which other concurrent tests may also advance, so
/// global deltas are lower-bounded rather than exact).
#[test]
fn query_stats_trailers_cross_check_against_system_metrics() {
    use scidb::server::{Client, Server, ServerConfig};

    let shared = seeded(1);
    let server = Server::start(shared, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr(), "").unwrap();

    // system.metrics scans are excluded from cells-scanned accounting
    // (their scan spans are marked system=true), so the baseline read
    // does not perturb the counter it reads.
    let before = client.query("scan(system.metrics)").unwrap();
    let scanned_before = metric_value(&before, "scidb.query.cells_scanned");
    let hits_before = metric_value(&before, "scidb.query.cache_hits");

    // A cold scan of the 8×8 array reports its 64 cells in the trailer.
    client.query("scan(A)").unwrap();
    let cold = client.last_stats().expect("trailer on every response");
    assert_eq!(cold.cells_scanned, 64, "{cold:?}");
    assert!(!cold.cache_hit);
    // The repeat is served from the shared result cache.
    client.query("scan(A)").unwrap();
    let warm = client.last_stats().unwrap();
    assert!(warm.cache_hit, "{warm:?}");
    assert_eq!(warm.cells_scanned, 0);

    let after = client.query("scan(system.metrics)").unwrap();
    let scanned_after = metric_value(&after, "scidb.query.cells_scanned");
    let hits_after = metric_value(&after, "scidb.query.cache_hits");
    assert!(
        scanned_after - scanned_before >= 64,
        "global cells-scanned delta {} must cover the trailer's 64",
        scanned_after - scanned_before
    );
    assert!(
        hits_after - hits_before >= 1,
        "global cache-hit delta must cover the trailer's hit"
    );

    // Per-session counters are exact (no cross-test pollution): the
    // session's system.sessions row equals the trailer sums.
    let sid = client.session_id();
    let rows = client.query("scan(system.sessions)").unwrap();
    let (_, mine) = rows
        .cells()
        .find(|(_, rec)| rec[0] == Value::from(sid as i64))
        .expect("own session row");
    assert_eq!(mine[4].as_i64(), Some(64), "cells_scanned: {mine:?}");
    assert_eq!(mine[3].as_i64(), Some(1), "cache_hits: {mine:?}");
}

/// `system.metrics` queried twice in one session is monotone: process-wide
/// counters never decrease between two reads.
#[test]
fn system_metrics_counters_are_monotone_within_a_session() {
    let shared = seeded(1);
    let mut session = shared.session();
    let first = session.query("scan(system.metrics)").unwrap();
    session.query("scan(A)").unwrap();
    let second = session.query("scan(system.metrics)").unwrap();
    for (_, rec) in first.cells() {
        let name = match &rec[0] {
            Value::Scalar(scidb::Scalar::String(s)) => s.clone(),
            other => panic!("metric name must be a string, got {other:?}"),
        };
        let kind = match &rec[1] {
            Value::Scalar(scidb::Scalar::String(s)) => s.clone(),
            other => panic!("metric kind must be a string, got {other:?}"),
        };
        if kind == "gauge" {
            continue; // gauges may move either way
        }
        let later = second
            .cells()
            .find(|(_, r)| r[0] == rec[0])
            .unwrap_or_else(|| panic!("metric {name} must not disappear"))
            .1;
        for idx in [2, 3, 4] {
            if let (Some(a), Some(b)) = (rec[idx].as_i64(), later[idx].as_i64()) {
                assert!(b >= a, "{name}[{idx}] went backwards: {a} -> {b}");
            }
        }
    }
}
