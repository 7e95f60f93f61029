//! Differential conformance: replay the pinned corpus and a fixed smoke
//! seed range through all four backends (serial, parallel, grid,
//! relational) and require byte-identical canonical results.
//!
//! Corpus cases live in `tests/conformance-corpus/*.json`; each is a
//! shrunk, replayable repro of a previously observed divergence, pinned
//! so the fix cannot regress. New failures found by `cargo xtask
//! conformance` (or the nightly fuzz job) land here the same way.

use scidb_conformance::case::Case;
use scidb_conformance::{Harness, Outcome};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("conformance-corpus")
}

#[test]
fn corpus_cases_replay_byte_identical() {
    let harness = Harness::new();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory missing")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "conformance corpus is empty");
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let case = Case::from_json(&text)
            .unwrap_or_else(|e| panic!("bad corpus file {}: {e}", path.display()));
        match harness.run_case(&case) {
            Outcome::Match { .. } => {}
            Outcome::Diverged(d) => panic!(
                "corpus case {} diverged ({} vs {}): {}",
                path.display(),
                d.left,
                d.right,
                d.first_diff()
            ),
        }
    }
}

#[test]
fn corpus_cases_roundtrip_through_json() {
    for entry in std::fs::read_dir(corpus_dir()).expect("corpus directory missing") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let case = Case::from_json(&text).expect("parseable corpus case");
        let reparsed = Case::from_json(&case.to_json()).expect("re-parseable");
        assert_eq!(case, reparsed, "lossy roundtrip for {}", path.display());
    }
}

/// Introspection over the wire is self-consistent: `system.metrics`
/// queried twice in one session (bracketing real conformance work) is
/// monotone — counters never decrease and never disappear — so the
/// virtual arrays are safe to diff against themselves while the engine
/// is live, even though they are excluded from the seeded generator.
#[test]
fn system_metrics_is_monotone_across_reads_in_one_session() {
    use scidb::server::{Client, Server, ServerConfig};
    use scidb::{Database, Value};

    let mut db = Database::with_threads(2);
    db.run(
        "define G (v = int) (X = 1:4);
         create M as G [4];
         insert into M[1] values (7);",
    )
    .unwrap();
    let server = Server::start(db.clone(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr(), "").unwrap();

    let name_of = |rec: &[Value]| match &rec[0] {
        Value::Scalar(scidb::Scalar::String(s)) => s.clone(),
        other => panic!("metric name must be a string, got {other:?}"),
    };
    let first = client.query("scan(system.metrics)").unwrap();
    client.query("scan(M)").unwrap();
    client.query("scan(M)").unwrap();
    let second = client.query("scan(system.metrics)").unwrap();

    assert!(first.cell_count() > 0, "metrics array must not be empty");
    for (_, rec) in first.cells() {
        let name = name_of(&rec);
        if rec[1] == Value::from("gauge".to_string()) {
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

#[test]
fn smoke_seed_range_matches_across_all_backends() {
    let harness = Harness::new();
    for seed in 1..=5 {
        let (case, outcome) = harness.run_seed(seed);
        assert!(
            outcome.is_match(),
            "seed {seed} diverged; case:\n{}",
            case.to_json()
        );
    }
}
