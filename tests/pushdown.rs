//! A scan of an on-disk array reads only the box the operator directly
//! above it keeps: `subsample` narrows the read to its predicate's
//! rectangle and `slice` to its one coordinate. The `read_region` spans of
//! the statement's trace count the buckets read, and every answer (or
//! error) equals the same statement's over the same array held in memory.
//!
//! The fixture is a 256² float array in 64² chunks, so a full read touches
//! 16 buckets.

use scidb::core::udf::ClosureFn;
use scidb::core::value::record;
use scidb::query::Database;
use scidb::{Array, Error, Result, ScalarType, SchemaBuilder, Session, Value};
use std::sync::Arc;

/// `A`: v = 1000·i + j, NULL where 17 divides i + j.
fn fixture() -> Array {
    let schema = SchemaBuilder::new("A")
        .attr("v", ScalarType::Float64)
        .dim_chunked("i", 256, 64)
        .dim_chunked("j", 256, 64)
        .build()
        .unwrap();
    let mut a = Array::new(schema);
    a.fill_with(|c| {
        let v = if (c[0] + c[1]) % 17 == 0 {
            Value::Null
        } else {
            Value::from((c[0] * 1000 + c[1]) as f64)
        };
        record([v])
    })
    .unwrap();
    a
}

/// A database holding the fixture on disk as `D`, merged into 128²
/// super-tile buckets as `G`, and in memory as `MD` and `MG`; a rank-1
/// array on disk as `R1` and in memory as `MR1`; and two dimension UDFs.
/// Each memory copy carries its disk twin's schema name, which answers
/// and errors quote.
fn database() -> Database {
    let a = fixture();
    let mut db = Database::new();
    db.put_array_on_disk("D", &a).unwrap();
    db.put_array_on_disk("G", &a).unwrap();
    db.merge_on_disk("G", 2).unwrap();
    db.put_array("MD", a.clone().renamed("D")).unwrap();
    db.put_array("MG", a.renamed("G")).unwrap();
    let line = Array::int_1d("L", "x", &(1..=100).collect::<Vec<_>>());
    db.put_array_on_disk("R1", &line).unwrap();
    db.put_array("MR1", line.renamed("R1")).unwrap();
    let mut reg = db.registry_mut();
    reg.register_scalar_fn(Arc::new(ClosureFn::new("small", Some(1), |args| {
        Ok(Value::from(args[0].as_f64().is_some_and(|v| v <= 3.0)))
    })))
    .unwrap();
    reg.register_scalar_fn(Arc::new(ClosureFn::new(
        "fails_past_200",
        Some(1),
        |args| match args[0].as_f64() {
            Some(v) if v > 200.0 => Err(Error::eval("past 200")),
            _ => Ok(Value::from(true)),
        },
    )))
    .unwrap();
    drop(reg);
    db
}

/// Runs `query` and returns its answer with the buckets its trace read.
fn run(s: &mut Session, query: &str) -> (Result<Array>, u64) {
    let out = s.query(query);
    let trace = s.last_trace().expect("a traced statement");
    let buckets = trace
        .spans
        .iter()
        .filter(|sp| sp.name == "read_region")
        .filter_map(|sp| sp.attr("buckets")?.as_u64())
        .sum();
    (out, buckets)
}

/// Runs `template` with `@` as `disk` and as `mem`, asserts that the two
/// answer alike (arrays: schema, chunk rectangles and cells; errors: the
/// same `Error`), and returns the disk run's bucket count.
fn same_answer(s: &mut Session, template: &str, disk: &str, mem: &str) -> u64 {
    let (got, buckets) = run(s, &template.replace('@', disk));
    let (want, _) = run(s, &template.replace('@', mem));
    match (got, want) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.schema(), want.schema(), "{template}");
            let rects = |a: &Array| {
                a.chunks()
                    .values()
                    .map(|c| c.rect().clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(rects(&got), rects(&want), "{template}: chunk rectangles");
            assert!(got.same_cells(&want), "{template}: cells");
        }
        (got, want) => assert_eq!(got.err(), want.err(), "{template}"),
    }
    buckets
}

#[test]
fn pushed_reads_touch_only_the_buckets_the_box_needs() {
    let db = database();
    let mut s = db.session();
    for (template, want) in [
        ("scan(@)", 16),
        // One aligned 64² chunk.
        (
            "aggregate(subsample(@, i >= 65 and i <= 128 and j >= 129 and j <= 192), {}, sum(v))",
            1,
        ),
        // A box straddling the corner of four chunks.
        (
            "subsample(@, i >= 60 and i <= 70 and j >= 60 and j <= 70)",
            4,
        ),
        ("slice(@, i, 70)", 4),
        ("slice(@, j, 256)", 4),
        // Nothing lies in the box, so nothing is read.
        ("subsample(@, i > 300)", 0),
        ("subsample(@, i = 5 and i = 6)", 0),
        ("slice(@, i, 999)", 0),
        ("slice(@, j, 0)", 0),
        // `!=`, `even` and `odd` keep the whole range of their dimension.
        ("subsample(@, i != 5)", 16),
        ("subsample(@, even(i) and j < 10)", 4),
        ("subsample(@, odd(j) and i >= 129 and i <= 130)", 4),
        ("filter(subsample(@, i <= 64 and j <= 64), v > 20000.0)", 1),
    ] {
        assert_eq!(same_answer(&mut s, template, "D", "MD"), want, "{template}");
    }
}

#[test]
fn unpushable_scans_read_everything_and_fail_alike() {
    let db = database();
    let mut s = db.session();
    for (template, want) in [
        // A UDF is evaluated per cell, so its scan is not narrowed.
        ("subsample(@, small(j) and i < 10)", 16),
        ("subsample(@, fails_past_200(j) and i < 10)", 16),
        // An unknown dimension is the kernel's error, after a full read.
        ("subsample(@, k = 3)", 16),
        ("slice(@, k, 3)", 16),
        // A predicate that does not lower.
        ("subsample(@, i = j)", 16),
    ] {
        assert_eq!(same_answer(&mut s, template, "D", "MD"), want, "{template}");
    }
    let (err, _) = run(&mut s, "subsample(D, fails_past_200(j) and i < 10)");
    assert_eq!(err.err(), Some(Error::eval("past 200")));
    // Rank 1 (100 cells in two chunks): slicing the only dimension is an
    // error wherever `at` lies, after a full read; a subsample narrows.
    for template in ["slice(@, i, 3)", "slice(@, i, 999)"] {
        assert_eq!(same_answer(&mut s, template, "R1", "MR1"), 2, "{template}");
        assert!(s.query(&template.replace('@', "R1")).is_err());
    }
    assert_eq!(same_answer(&mut s, "subsample(@, i < 5)", "R1", "MR1"), 1);
}

#[test]
fn merged_buckets_split_into_schema_chunks() {
    let db = database();
    let mut s = db.session();
    for (template, want) in [
        ("scan(@)", 4),
        (
            "aggregate(subsample(@, i >= 65 and i <= 128 and j >= 129 and j <= 192), {}, sum(v))",
            1,
        ),
        (
            "subsample(@, i >= 120 and i <= 140 and j >= 60 and j <= 70)",
            2,
        ),
        ("slice(@, j, 130)", 2),
        ("subsample(@, even(i) and odd(j))", 4),
    ] {
        assert_eq!(same_answer(&mut s, template, "G", "MG"), want, "{template}");
    }
}
