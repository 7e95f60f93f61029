//! End-to-end serving-layer tests: real TCP connections against a real
//! engine, exercising the handshake, statement execution, prepared
//! statements, bulk load, typed error codes, auth, and admission control.

use scidb_core::error::Error;
use scidb_core::schema::SchemaBuilder;
use scidb_core::value::{Scalar, ScalarType, Value};
use scidb_query::Database;
use scidb_server::admission::AdmissionConfig;
use scidb_server::auth::TokenAuth;
use scidb_server::{Client, RemoteResult, Server, ServerConfig, StatsFormat, PROTOCOL_VERSION};
use std::sync::Arc;
use std::time::Duration;

fn serve(config: ServerConfig) -> (Server, Database) {
    let mut db = Database::with_threads(2);
    db.run(
        "define H (v = int) (X = 1:4, Y = 1:4);
         create A as H [4, 4];
         insert into A[1, 1] values (1);
         insert into A[2, 2] values (4);
         insert into A[3, 3] values (9);",
    )
    .unwrap();
    let server = Server::start(db.clone(), config).unwrap();
    (server, db)
}

#[test]
fn execute_queries_and_ddl_over_the_wire() {
    let (server, _db) = serve(ServerConfig::default());
    let mut client = Client::connect(server.addr(), "").unwrap();
    client.ping().unwrap();

    let a = client.query("scan(A)").unwrap();
    assert_eq!(a.cell_count(), 3);
    assert_eq!(a.get_cell(&[2, 2]), Some(vec![Value::from(4i64)]));

    // DDL acknowledges; the created array is immediately queryable.
    match client.execute("store filter(A, v > 2) into B").unwrap() {
        RemoteResult::Done(msg) => assert!(msg.contains("stored")),
        other => panic!("expected Done, got {other:?}"),
    }
    // Filter preserves shape over the *present* cells (3 of 16).
    assert_eq!(client.query("scan(B)").unwrap().cell_count(), 3);

    // Bool probes and explain analyze travel as their own frame kinds.
    let b = client.execute("exists(A, 2, 2)").unwrap();
    assert_eq!(b.as_bool(), Some(true));
    let report = client.execute("explain analyze scan(A)").unwrap();
    assert!(report.as_explain().unwrap().contains("scan [query]"));

    client.close().unwrap();
}

#[test]
fn wire_results_match_in_process_results() {
    let (server, mut db) = serve(ServerConfig::default());
    let mut client = Client::connect(server.addr(), "").unwrap();
    for q in [
        "filter(A, v > 1)",
        "aggregate(A, {Y}, sum(v))",
        "project(apply(A, w, v * 2), w)",
        "regrid(A, [2, 2], sum)",
    ] {
        let local = db.query(q).unwrap();
        let remote = client.query(q).unwrap();
        assert_eq!(local, remote, "{q} must be identical over the wire");
    }
}

#[test]
fn prepared_statements_round_trip_and_reexecute() {
    let (server, _db) = serve(ServerConfig::default());
    let mut client = Client::connect(server.addr(), "").unwrap();
    let key = client.prepare("Filter(A,   v > 1)").unwrap();
    assert_eq!(key, "filter(scan(A), (v > 1))");
    let first = client.execute_prepared(&key).unwrap().into_array().unwrap();
    let second = client.execute_prepared(&key).unwrap().into_array().unwrap();
    assert_eq!(first, second);
    // A fresh connection can execute by canonical key without preparing.
    let mut other = Client::connect(server.addr(), "").unwrap();
    let third = other.execute_prepared(&key).unwrap().into_array().unwrap();
    assert_eq!(first, third);
}

#[test]
fn put_array_and_fetch_round_trip_bit_exactly() {
    let (server, _db) = serve(ServerConfig::default());
    let mut client = Client::connect(server.addr(), "").unwrap();
    let schema = SchemaBuilder::new("up")
        .attr("f", ScalarType::Float64)
        .dim("i", 8)
        .build()
        .unwrap();
    let mut arr = scidb_core::array::Array::new(schema);
    arr.set_cell(&[1], vec![Value::from(0.1f64 + 0.2f64)])
        .unwrap();
    arr.set_cell(&[8], vec![Value::Null]).unwrap();
    client.put_array("Uploaded", &arr).unwrap();
    let back = client.fetch("Uploaded").unwrap();
    assert_eq!(arr, back);
    // The uploaded array participates in queries.
    assert_eq!(client.query("scan(Uploaded)").unwrap(), arr);
    // Duplicate names surface the typed already_exists error.
    let err = client.put_array("Uploaded", &arr).unwrap_err();
    assert!(matches!(err, Error::AlreadyExists(_)), "{err:?}");
}

#[test]
fn typed_errors_cross_the_wire_with_stable_codes() {
    let (server, _db) = serve(ServerConfig::default());
    let mut client = Client::connect(server.addr(), "").unwrap();
    let not_found = client.query("scan(nope)").unwrap_err();
    assert!(matches!(not_found, Error::NotFound(_)), "{not_found:?}");
    let parse = client.execute("scan(").unwrap_err();
    assert!(matches!(parse, Error::Parse(_)), "{parse:?}");
    let dim = client.query("Subsample(A, X = Y)").unwrap_err();
    assert!(matches!(dim, Error::Dimension(_)), "{dim:?}");
    // The connection survives statement errors.
    assert_eq!(client.query("scan(A)").unwrap().cell_count(), 3);
}

#[test]
fn auth_hook_rejects_bad_tokens() {
    let config = ServerConfig {
        auth: Arc::new(TokenAuth::new("sesame")),
        ..ServerConfig::default()
    };
    let (server, _db) = serve(config);
    let err = Client::connect(server.addr(), "wrong").unwrap_err();
    assert!(matches!(err, Error::Auth(_)), "{err:?}");
    let mut ok = Client::connect(server.addr(), "sesame").unwrap();
    ok.ping().unwrap();
}

#[test]
fn session_inflight_limit_zero_rejects_statements() {
    let config = ServerConfig {
        session_inflight_limit: 0,
        ..ServerConfig::default()
    };
    let (server, _db) = serve(config);
    let mut client = Client::connect(server.addr(), "").unwrap();
    let err = client.query("scan(A)").unwrap_err();
    assert!(matches!(err, Error::Admission(_)), "{err:?}");
    // Non-statement requests are not gated.
    client.ping().unwrap();
    client.fetch("A").unwrap();
}

#[test]
fn saturated_admission_queue_rejects_with_typed_error() {
    let config = ServerConfig {
        admission: AdmissionConfig {
            max_active: 1,
            max_queued: 0,
            max_wait: Duration::from_millis(50),
        },
        ..ServerConfig::default()
    };
    let (server, _db) = serve(config);
    let addr = server.addr();
    // Upload a dense 16×16 array so the holder's quadratic cjoin holds
    // the single execution slot long enough to observe saturation.
    let schema = SchemaBuilder::new("dense")
        .attr("v", ScalarType::Int64)
        .dim("X", 16)
        .dim("Y", 16)
        .build()
        .unwrap();
    let mut dense = scidb_core::array::Array::new(schema);
    for x in 1..=16 {
        for y in 1..=16 {
            dense
                .set_cell(&[x, y], vec![Value::from(x * 100 + y)])
                .unwrap();
        }
    }
    let mut loader = Client::connect(addr, "").unwrap();
    loader.put_array("Dense", &dense).unwrap();
    // One long-running statement saturates the single slot; a second
    // session's statement is rejected rather than queued.
    let mut prober = Client::connect(addr, "").unwrap();
    let hold = std::thread::spawn(move || {
        let mut c = Client::connect(addr, "").unwrap();
        loop {
            match c.query("cjoin(Dense, Dense, Dense.v = Dense.v_r)") {
                Err(Error::Admission(_)) => continue, // a probe owned the slot
                other => return other.map(|a| a.cell_count()),
            }
        }
    });
    // Probe only once the holder's statement owns the slot, and only while
    // it does: the first probe to arrive meets a saturated gate.
    while server.active_statements() == 0 {
        assert!(!hold.is_finished(), "the holder was never seen active");
        std::thread::yield_now();
    }
    let mut saw_reject = false;
    while !saw_reject && !hold.is_finished() {
        saw_reject = matches!(prober.query("scan(A)"), Err(Error::Admission(_)));
    }
    let held = hold.join().unwrap();
    assert!(held.is_ok(), "holder must finish cleanly: {held:?}");
    assert!(
        saw_reject,
        "a statement arriving at a saturated zero-queue gate must be rejected"
    );
}

#[test]
fn concurrent_clients_share_one_engine() {
    let (server, _db) = serve(ServerConfig::default());
    let addr = server.addr();
    let mut handles = Vec::new();
    for i in 0..8 {
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr, "").unwrap();
            let a = c.query("filter(A, v > 1)").unwrap();
            assert_eq!(a.cell_count(), 3);
            c.execute(&format!("store scan(A) into Copy{i}")).unwrap();
            c.close().unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // All eight writes landed in the shared catalog.
    let mut c = Client::connect(addr, "").unwrap();
    for i in 0..8 {
        assert_eq!(c.query(&format!("scan(Copy{i})")).unwrap().cell_count(), 3);
    }
}

#[test]
fn handshake_negotiates_protocol_version_and_session_id() {
    let (server, _db) = serve(ServerConfig::default());
    let mut client = Client::connect(server.addr(), "").unwrap();
    assert_eq!(client.protocol_version(), PROTOCOL_VERSION);
    let sid = client.session_id();
    assert!(sid > 0, "engine session ids start at 1");
    // The wire session id IS the engine session id: the client can find
    // its own row in system.sessions by sid.
    let rows = client.query("scan(system.sessions)").unwrap();
    let mine = rows
        .cells()
        .find(|(_, rec)| rec[0] == Value::Scalar(Scalar::Int64(sid as i64)))
        .expect("own session row");
    // One statement (this scan) has executed on the session so far.
    assert_eq!(mine.1[1], Value::Scalar(Scalar::Int64(1)));
}

#[test]
fn every_response_carries_a_query_stats_trailer() {
    let (server, _db) = serve(ServerConfig::default());
    let mut client = Client::connect(server.addr(), "").unwrap();
    // The handshake itself carries no trailer.
    assert_eq!(client.last_stats(), None);
    // A statement's trailer reports its scan work.
    client.query("scan(A)").unwrap();
    let stats = client.last_stats().expect("statement trailer");
    assert_eq!(stats.cells_scanned, 3, "{stats:?}");
    assert!(!stats.cache_hit);
    assert!(stats.lock_acquisitions > 0, "{stats:?}");
    // Re-running the same query is answered from the result cache.
    client.query("scan(A)").unwrap();
    let hit = client.last_stats().unwrap();
    assert!(hit.cache_hit, "{hit:?}");
    assert_eq!(hit.cells_scanned, 0, "a cache hit scans nothing");
    // Non-statement requests still carry a (zeroed-profile) trailer.
    client.ping().unwrap();
    let ping = client.last_stats().expect("ping trailer");
    assert_eq!(ping.exec_us, 0);
    assert_eq!(ping.cells_scanned, 0);
    // Error responses carry one too.
    client.query("scan(nope)").unwrap_err();
    assert!(
        client.last_stats().is_some(),
        "error responses are profiled"
    );
}

#[test]
fn statement_ids_are_assigned_per_connection() {
    let (server, _db) = serve(ServerConfig::default());
    let mut client = Client::connect(server.addr(), "").unwrap();
    client.query("scan(A)").unwrap();
    assert_eq!(client.last_statement_id(), 1);
    let key = client.prepare("scan(A)").unwrap();
    client.execute_prepared(&key).unwrap();
    assert_eq!(client.last_statement_id(), 2);
}

#[test]
fn stats_and_health_admin_requests_work() {
    let (server, _db) = serve(ServerConfig::default());
    let mut client = Client::connect(server.addr(), "").unwrap();
    client.query("scan(A)").unwrap();
    let json = client.stats(StatsFormat::Json).unwrap();
    assert!(json.starts_with('{'), "{json}");
    assert!(json.contains("scidb.server.requests"), "{json}");
    let prom = client.stats(StatsFormat::Prometheus).unwrap();
    assert!(
        prom.contains("# TYPE scidb_server_requests counter"),
        "{prom}"
    );
    let health = client.health().unwrap();
    assert_eq!(health.max_active, 64);
    assert_eq!(health.max_queued, 1024);
    assert!(health.sessions >= 1, "{health:?}");
    assert_eq!(health.queued, 0);
}

/// Drops wall times and duration-valued attributes from a rendered span
/// tree, leaving the structural skeleton that must be byte-identical
/// between a local and a remote execution of the same statement.
fn strip_times(report: &str) -> String {
    report
        .lines()
        .map(|line| {
            line.split(' ')
                .filter(|tok| match tok.split_once('=') {
                    Some((_, v)) => {
                        !(v.ends_with("ns")
                            || v.ends_with("µs")
                            || v.ends_with("ms")
                            || (v.ends_with('s')
                                && v.chars().next().is_some_and(|c| c.is_ascii_digit())))
                    }
                    None => true,
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn remote_explain_analyze_matches_local_span_tree() {
    // Serial execution and no result cache on either side, so both span
    // trees are fully deterministic.
    let mut db = Database::with_threads(1);
    db.run(
        "define H (v = int) (X = 1:4, Y = 1:4);
         create A as H [4, 4];
         insert into A[1, 1] values (1);
         insert into A[2, 2] values (4);
         insert into A[3, 3] values (9);",
    )
    .unwrap();
    let config = ServerConfig {
        result_cache: false,
        ..ServerConfig::default()
    };
    let server = Server::start(db.clone(), config).unwrap();
    let mut client = Client::connect(server.addr(), "").unwrap();
    for q in ["scan(A)", "filter(A, v > 1)", "aggregate(A, {Y}, sum(v))"] {
        let stmt = format!("explain analyze {q}");
        let local = match db.run(&stmt).unwrap().pop().unwrap() {
            scidb_query::StmtResult::Explain(t) => t,
            other => panic!("expected explain report, got {other:?}"),
        };
        let remote = client.execute(&stmt).unwrap();
        assert_eq!(
            strip_times(&local),
            strip_times(remote.as_explain().unwrap()),
            "{q}: remote span tree must match local"
        );
    }
    // Golden skeleton for the simplest plan: pinned so the wire path
    // cannot silently drop spans or attributes.
    let remote = client.execute("explain analyze scan(A)").unwrap();
    assert_eq!(
        strip_times(remote.as_explain().unwrap()),
        "statement [query] aql=\"scan(A)\"\n└─ scan [query] array=\"A\" chunks_out=1 cells_out=3",
        "golden explain-analyze skeleton"
    );
}

#[test]
fn system_arrays_are_queryable_over_the_wire() {
    let (server, _db) = serve(ServerConfig::default());
    let mut client = Client::connect(server.addr(), "").unwrap();
    client.query("scan(A)").unwrap();
    // Filtering a virtual array runs through the normal kernels.
    let hits = client.query("filter(system.metrics, count >= 0)").unwrap();
    assert!(hits.cell_count() > 0, "histogram rows exist");
    // The reserved namespace rejects writes with a typed schema error.
    let err = client
        .execute("store scan(A) into system.hijack")
        .unwrap_err();
    assert!(matches!(err, Error::Schema(_)), "{err:?}");
}

#[test]
fn slow_query_log_works_over_the_wire() {
    let config = ServerConfig {
        slow_query_threshold: Some(Duration::ZERO),
        ..ServerConfig::default()
    };
    let (server, db) = serve(config);
    let mut client = Client::connect(server.addr(), "").unwrap();
    client.query("filter(A, v > 1)").unwrap();
    let entries = db.slow_queries();
    assert!(
        entries
            .iter()
            .any(|e| e.label == "filter(scan(A), (v > 1))"),
        "wire statements must reach the shared slow-query log"
    );
}
