//! Error-path regression tests: the failures that used to (or could)
//! panic must surface as typed `Err` values. Companions to the R1
//! conversions enforced by `cargo xtask analyze`.

use scidb::core::geometry::HyperRect;
use scidb::core::ops;
use scidb::core::registry::Registry;
use scidb::storage::{CodecPolicy, MemDisk, ReadOptions, StorageManager};
use scidb::{Array, ScalarType, SchemaBuilder, Value};
use std::sync::Arc;

fn stored(n: i64) -> StorageManager {
    let schema = SchemaBuilder::new("grid")
        .attr("v", ScalarType::Float64)
        .dim_chunked("x", n, 8)
        .dim_chunked("y", n, 8)
        .build()
        .unwrap();
    let mut a = Array::new(schema);
    a.fill_with(|c| vec![Value::from((c[0] * 100 + c[1]) as f64)])
        .unwrap();
    let mut mgr = StorageManager::new(
        Arc::new(MemDisk::new()),
        a.schema_arc(),
        CodecPolicy::default_policy(),
    );
    mgr.store_array(&a).unwrap();
    mgr
}

#[test]
fn read_region_out_of_bounds_is_err() {
    let mgr = stored(16);
    // Past the declared upper bound.
    let high = HyperRect::new(vec![1, 1], vec![17, 16]).unwrap();
    let err = mgr
        .read_region(&high, ReadOptions::default())
        .expect_err("beyond upper bound");
    assert!(err.to_string().contains("out of bounds"), "{err}");
    // Below the 1-based lower bound.
    let low = HyperRect::new(vec![0, 1], vec![4, 4]).unwrap();
    assert!(mgr.read_region(&low, ReadOptions::default()).is_err());
    // Wrong rank.
    let flat = HyperRect::new(vec![1], vec![4]).unwrap();
    let err = mgr
        .read_region(&flat, ReadOptions::default())
        .expect_err("rank mismatch");
    assert!(err.to_string().contains("rank"), "{err}");
    // The in-bounds corner still works.
    let ok = HyperRect::new(vec![1, 1], vec![16, 16]).unwrap();
    let (arr, _) = mgr.read_region(&ok, ReadOptions::default()).unwrap();
    assert_eq!(arr.cell_count(), 256);
}

#[test]
fn malformed_schema_is_err() {
    // Zero-extent dimension.
    assert!(SchemaBuilder::new("bad")
        .attr("v", ScalarType::Int64)
        .dim("x", 0)
        .build()
        .is_err());
    // No attributes at all.
    assert!(SchemaBuilder::new("bad").dim("x", 4).build().is_err());
    // Duplicate dimension names.
    assert!(SchemaBuilder::new("bad")
        .attr("v", ScalarType::Int64)
        .dim("x", 4)
        .dim("x", 4)
        .build()
        .is_err());
    // The fallible convenience constructors propagate instead of panicking.
    assert!(Array::try_int_1d("", "v", &[1, 2]).is_err());
    assert!(Array::try_f64_2d("", "v", &[vec![1.0]]).is_err());
    assert!(Array::try_int_1d("ok", "v", &[1, 2, 3]).is_ok());
}

#[test]
fn malformed_query_schema_is_err() {
    use scidb::query::Database;
    let db = Database::new();
    let mut sess = db.session();
    // A parse error, not a panic.
    assert!(sess.run("create array A <v:int64> [x=1:0]").is_err());
    // Statement-count misuse reports instead of unwrapping.
    assert!(scidb::query::parse_one("load A; load B").is_err());
    assert!(scidb::query::parse_one("").is_err());
}

#[test]
fn mismatched_shape_operator_inputs_are_err() {
    let r = Registry::with_builtins();
    let a = Array::f64_2d("A", "v", &[vec![1.0, 2.0], vec![3.0, 4.0]]);
    let b = Array::int_1d("B", "w", &[1, 2, 3]);
    // Structural join of a 2-D with a 1-D array on a missing dimension.
    assert!(ops::structural::sjoin(&a, &b, &[("i", "i"), ("j", "j")]).is_err());
    // Concat along a dimension that does not exist.
    assert!(ops::structural::concat(&a, &b, "nope").is_err());
    // Regrid with the wrong number of factors (rank mismatch).
    assert!(ops::regrid::regrid(&a, &[2], "avg", &r).is_err());
}

#[test]
fn nested_attribute_operands_are_err() {
    let inner = Arc::new(
        SchemaBuilder::new("I")
            .attr("x", ScalarType::Int64)
            .dim("k", 2)
            .build()
            .unwrap(),
    );
    let schema = SchemaBuilder::new("A")
        .attr("v", ScalarType::Int64)
        .nested_attr("m", inner.clone())
        .dim("i", 2)
        .build()
        .unwrap();
    let mut a = Array::new(schema);
    a.fill_with(|c| {
        let nested = Array::from_arc(inner.clone());
        vec![Value::from(c[0]), Value::Array(Box::new(nested))]
    })
    .unwrap();
    let mut db = scidb::query::Database::new();
    db.put_array("A", a).unwrap();
    // A comparison and an arithmetic operator over a nested attribute are
    // typed evaluation errors, not panics.
    for q in ["filter(A, m > 1)", "apply(A, w, m + 1)"] {
        let err = db.query(q).expect_err(q);
        assert!(err.to_string().contains("nested array"), "{q}: {err}");
    }
}
