//! `kernel_smoke` — the vectorized-kernel benchmark behind the CI bench gate.
//!
//! Runs every chunk-parallel kernel (filter, apply, project, subsample,
//! aggregate, regrid) over a fixed deterministic array, prints a per-kernel
//! cells/sec table, and emits `target/kernel-smoke.json`:
//!
//! * `kernel_<op>_us` — wall time of a fixed iteration count per kernel,
//!   under the ±20 % wall gate. The columnar batch fast paths dispatch on
//!   these workloads (dense chunks, batch-safe expressions), so a silent
//!   fallback to the per-cell loops shows up as a wall regression.
//! * `kernel_smoke_cells` / `kernel_filter_survivors` — deterministic cell
//!   counters pinned exactly; a batch kernel that drops or double-counts a
//!   lane diffs here before it ever diffs on timing.
//! * `compressed_bytes_{int,float}_{default,adaptive}` — total bucket bytes
//!   for the int and float smoke arrays under the fixed default policy and
//!   the adaptive per-section policy, pinned exactly. Codec-selection drift
//!   (a new candidate, a changed tie-break) must be acknowledged with
//!   `--update-baseline`.

use scidb_core::array::Array;
use scidb_core::exec::ExecContext;
use scidb_core::expr::Expr;
use scidb_core::ops::structural::{DimCond, DimPredicate};
use scidb_core::ops::{self, AggInput};
use scidb_core::registry::Registry;
use scidb_core::schema::SchemaBuilder;
use scidb_core::value::{record, ScalarType, Value};
use scidb_storage::{serialize_chunk, CodecPolicy};
use std::fmt::Write as _;
use std::time::Instant;

const SIDE: i64 = 256;
const CHUNK: i64 = 32;
const ITERS: u32 = 8;

/// Dense 2-D smoke array: a smooth float attribute (XOR-friendly), an
/// integer attribute with long row-major runs (RLE- and delta-friendly),
/// and a sprinkle of NULL lanes so the batch kernels cross validity words.
fn smoke_array() -> Array {
    let schema = SchemaBuilder::new("smoke")
        .attr("v", ScalarType::Float64)
        .attr("q", ScalarType::Int64)
        .dim_chunked("i", SIDE, CHUNK)
        .dim_chunked("j", SIDE, CHUNK)
        .build()
        .expect("valid schema");
    let mut a = Array::new(schema);
    a.fill_with(|c| {
        let (i, j) = (c[0], c[1]);
        let v = ((i as f64) * 0.05).sin() * 100.0 + (j as f64) * 0.01;
        let q = if (i + j) % 97 == 0 {
            Value::Null
        } else {
            Value::from((i * 7 + j / 16) % 1000)
        };
        record([Value::from(v), q])
    })
    .expect("fill in bounds");
    a
}

/// Times `f` over [`ITERS`] runs after one warm-up; returns (wall_us, the
/// last result).
fn time_kernel<F: FnMut() -> Array>(mut f: F) -> (u128, Array) {
    let mut last = f();
    let t = Instant::now();
    for _ in 0..ITERS {
        last = f();
    }
    (t.elapsed().as_micros(), last)
}

/// Sums serialized bucket bytes for every chunk of `a` under `policy`.
fn bucket_bytes(a: &Array, policy: CodecPolicy) -> usize {
    a.chunks()
        .values()
        .map(|c| serialize_chunk(c, policy).expect("serialize").len())
        .sum()
}

fn main() {
    let registry = Registry::with_builtins();
    let ctx = ExecContext::new();
    let a = smoke_array();
    let in_cells = a.cell_count() as u64;

    let pred = Expr::attr("v").gt(Expr::lit(0.0));
    let (filter_us, filtered) =
        time_kernel(|| ops::filter_with(&a, &pred, Some(&registry), &ctx).expect("filter"));
    // Filter null-masks failing lanes in place, so the pinned counter is
    // the number of lanes the selection vector kept, not the cell count.
    let survivors = filtered
        .cells()
        .filter(|(_, rec)| !matches!(rec.first(), Some(Value::Null) | None))
        .count();

    let expr = Expr::attr("v").mul(Expr::lit(2.0)).add(Expr::lit(1.0));
    let (apply_us, _) = time_kernel(|| {
        ops::apply_with(&a, "w", &expr, ScalarType::Float64, Some(&registry), &ctx).expect("apply")
    });

    let (project_us, _) = time_kernel(|| ops::project_with(&a, &["q"], &ctx).expect("project"));

    let dim_pred = DimPredicate::new().with("i", DimCond::Even);
    let (subsample_us, _) =
        time_kernel(|| ops::subsample_with(&a, &dim_pred, None, &ctx).expect("subsample"));

    let (aggregate_us, _) = time_kernel(|| {
        ops::aggregate_with(&a, &["i"], "sum", AggInput::Star, &registry, &ctx).expect("aggregate")
    });

    let (regrid_us, _) =
        time_kernel(|| ops::regrid_with(&a, &[8, 8], "avg", &registry, &ctx).expect("regrid"));

    // Adaptive-vs-default codec footprint over the same chunks. The int
    // and float attributes ride in the same buckets, so split them by
    // projecting each attribute out before serializing.
    let floats = ops::project(&a, &["v"]).expect("project v");
    let ints = ops::project(&a, &["q"]).expect("project q");
    let float_default = bucket_bytes(&floats, CodecPolicy::default_policy());
    let float_adaptive = bucket_bytes(&floats, CodecPolicy::adaptive());
    let int_default = bucket_bytes(&ints, CodecPolicy::default_policy());
    let int_adaptive = bucket_bytes(&ints, CodecPolicy::adaptive());

    println!("kernel_smoke: {in_cells} cells/iteration, {ITERS} iterations/kernel");
    println!("  {:<12} {:>10}  {:>14}", "kernel", "wall_us", "cells/sec");
    let table = [
        ("filter", filter_us),
        ("apply", apply_us),
        ("project", project_us),
        ("subsample", subsample_us),
        ("aggregate", aggregate_us),
        ("regrid", regrid_us),
    ];
    for (name, us) in table {
        let rate = (in_cells as u128 * ITERS as u128 * 1_000_000) / us.max(1);
        println!("  {name:<12} {us:>10}  {rate:>14}");
    }
    println!(
        "  bucket bytes: int {int_default} -> {int_adaptive} adaptive, \
         float {float_default} -> {float_adaptive} adaptive"
    );

    let mut json = String::from("{");
    let _ = write!(json, "\"kernel_smoke_cells\":{in_cells},");
    let _ = write!(json, "\"kernel_filter_survivors\":{survivors},");
    let _ = write!(json, "\"kernel_filter_us\":{filter_us},");
    let _ = write!(json, "\"kernel_apply_us\":{apply_us},");
    let _ = write!(json, "\"kernel_project_us\":{project_us},");
    let _ = write!(json, "\"kernel_subsample_us\":{subsample_us},");
    let _ = write!(json, "\"kernel_aggregate_us\":{aggregate_us},");
    let _ = write!(json, "\"kernel_regrid_us\":{regrid_us},");
    let _ = write!(json, "\"compressed_bytes_int_default\":{int_default},");
    let _ = write!(json, "\"compressed_bytes_int_adaptive\":{int_adaptive},");
    let _ = write!(json, "\"compressed_bytes_float_default\":{float_default},");
    let _ = write!(json, "\"compressed_bytes_float_adaptive\":{float_adaptive}");
    json.push('}');

    let out = std::path::Path::new("target/kernel-smoke.json");
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).expect("create target dir");
    }
    std::fs::write(out, &json).expect("write kernel-smoke.json");
    println!("wrote {} ({} bytes)", out.display(), json.len());

    assert_eq!(in_cells, (SIDE * SIDE) as u64, "smoke array must be dense");
    assert!(
        survivors > 0 && (survivors as u64) < in_cells,
        "filter must keep a strict subset ({survivors}/{in_cells})"
    );
    assert!(
        int_adaptive <= int_default && float_adaptive <= float_default,
        "adaptive selection must never lose to the fixed policy"
    );
}
