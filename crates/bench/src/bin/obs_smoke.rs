//! `obs_smoke` — an end-to-end smoke run of the telemetry layer.
//!
//! Drives a small traced workload through the AQL `Database` (in-memory
//! and on-disk arrays, `explain analyze`, a zero-threshold slow-query
//! log), prints the per-layer trace summary table, and writes the raw
//! telemetry — span trees, metrics registry, slow-query labels — to
//! `target/obs-smoke.json` for CI to upload as an artifact.

use scidb_bench::report::layer_summary;
use scidb_query::{Database, StoredArray};
use std::fmt::Write as _;
use std::time::Duration;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn main() {
    let mut db = Database::with_threads(2);
    // Every statement is "slow" so the workload exercises the slow log.
    db.set_slow_query_threshold(Duration::ZERO);

    db.run(
        "define H (v = int) (X = 1:8, Y = 1:8); \
         create A as H [8, 8];",
    )
    .expect("schema setup");
    for x in 1..=8i64 {
        for y in 1..=8i64 {
            db.run(&format!("insert into A[{x}, {y}] values ({})", x * 10 + y))
                .expect("insert");
        }
    }
    let arr = match &*db.array("A").expect("A exists") {
        StoredArray::Plain(a) => a.clone(),
        other => panic!("expected plain array, got {other:?}"),
    };
    db.put_array_on_disk("D", &arr).expect("store on disk");

    // One traced session over both memory- and disk-backed scans, ending
    // with `explain analyze` so the rendered span tree is part of the run.
    let mut session = db.session();
    session.query("scan(A)").expect("memory scan");
    session.query("scan(D)").expect("disk scan");
    session
        .query("filter(scan(D), (v > 40))")
        .expect("disk filter");
    session
        .query("aggregate(filter(scan(D), (v > 40)), {Y}, sum(*))")
        .expect("disk aggregate");
    let results = session
        .run("explain analyze aggregate(filter(scan(D), (v > 40)), {Y}, sum(*))")
        .expect("explain analyze");
    let report = match results.as_slice() {
        [r] => r.as_explain().expect("explain result").to_string(),
        other => panic!("expected one result, got {}", other.len()),
    };

    let traces = session.traces().to_vec();
    let table = layer_summary("obs smoke: per-layer self time", &traces);
    println!("{report}");
    println!("{table}");

    let mut json = String::from("{");
    let _ = write!(json, "\"explain\":\"{}\",", json_escape(&report));
    json.push_str("\"traces\":[");
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&t.to_json());
    }
    json.push_str("],\"layer_totals_us\":{");
    for (i, row) in table.rows.iter().enumerate() {
        let mut us = Duration::ZERO;
        for t in &traces {
            for (layer, d) in t.layer_totals() {
                if layer == row[0] {
                    us += d;
                }
            }
        }
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "\"{}\":{}", json_escape(&row[0]), us.as_micros());
    }
    json.push_str("},\"slow_queries\":[");
    for (i, e) in db.slow_queries().iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"label\":\"{}\",\"wall_us\":{}}}",
            json_escape(&e.label),
            e.wall.as_micros()
        );
    }
    json.push_str("],\"metrics\":");
    json.push_str(&scidb_obs::global().to_json());
    json.push('}');

    let out = std::path::Path::new("target/obs-smoke.json");
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).expect("create target dir");
    }
    std::fs::write(out, &json).expect("write obs-smoke.json");
    println!("wrote {} ({} bytes)", out.display(), json.len());

    assert!(
        report.contains("[storage]") && report.contains("[query]"),
        "explain analyze must cross the query/storage boundary"
    );
    assert_eq!(traces.len(), 5, "the session keeps one trace per statement");
    assert!(
        !db.slow_queries().is_empty(),
        "zero-threshold slow log must capture statements"
    );
}
