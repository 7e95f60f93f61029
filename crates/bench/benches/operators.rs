//! Operator micro-benchmarks: the §2.2 suite on a 256² array, including
//! the exact Figure 1–3 operations, plus the serial-vs-parallel comparison
//! of the chunk-parallel kernels on a 256-chunk array.

use criterion::{criterion_group, criterion_main, Criterion};
use scidb_bench::data::dense_f64;
use scidb_core::array::Array;
use scidb_core::exec::{ExecContext, QueryMetrics};
use scidb_core::expr::Expr;
use scidb_core::ops::structural::{DimCond, DimPredicate};
use scidb_core::ops::{self, AggInput};
use scidb_core::registry::Registry;
use std::hint::black_box;
use std::time::Instant;

fn bench_operators(c: &mut Criterion) {
    let registry = Registry::with_builtins();
    let a = dense_f64(256, 64);
    let mut g = c.benchmark_group("operators_256x256");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));

    g.bench_function("subsample_slice", |b| {
        let pred = DimPredicate::new().with("i", DimCond::Eq(128));
        b.iter(|| ops::subsample(black_box(&a), &pred, None).unwrap())
    });
    g.bench_function("subsample_even", |b| {
        let pred = DimPredicate::new().with("i", DimCond::Even);
        b.iter(|| ops::subsample(black_box(&a), &pred, None).unwrap())
    });
    g.bench_function("filter_gt", |b| {
        let pred = Expr::attr("v").gt(Expr::lit(50.0));
        b.iter(|| ops::filter(black_box(&a), &pred, Some(&registry)).unwrap())
    });
    g.bench_function("aggregate_group_dim", |b| {
        b.iter(|| ops::aggregate(black_box(&a), &["i"], "sum", AggInput::Star, &registry).unwrap())
    });
    g.bench_function("regrid_8x8_avg", |b| {
        b.iter(|| ops::regrid(black_box(&a), &[8, 8], "avg", &registry).unwrap())
    });
    g.bench_function("apply_arith", |b| {
        let e = Expr::attr("v").mul(Expr::lit(2.0)).add(Expr::lit(1.0));
        b.iter(|| {
            ops::apply(
                black_box(&a),
                "w",
                &e,
                scidb_core::value::ScalarType::Float64,
                Some(&registry),
            )
            .unwrap()
        })
    });
    g.bench_function("reshape_to_1d", |b| {
        b.iter(|| ops::reshape(black_box(&a), &["i", "j"], &[("k".into(), 256 * 256)]).unwrap())
    });
    g.finish();

    let mut g = c.benchmark_group("figures");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    let f1a = Array::int_1d("A", "x", &[1, 2]);
    let f1b = Array::int_1d("B", "x", &[1, 2]);
    g.bench_function("figure1_sjoin", |b| {
        b.iter(|| ops::sjoin(black_box(&f1a), black_box(&f1b), &[("i", "i")]).unwrap())
    });
    g.bench_function("figure3_cjoin", |b| {
        let pred = Expr::attr("x").eq(Expr::attr("x_r"));
        b.iter(|| ops::cjoin(black_box(&f1a), black_box(&f1b), &pred, Some(&registry)).unwrap())
    });
    g.finish();
}

/// Chunk-parallel kernels, serial vs machine-sized thread budget, on a
/// 512² array chunked 32×32 (256 chunks). Results are verified identical
/// before timing; the printed speedup is the acceptance signal (it needs a
/// multi-core machine to exceed 1× — thread counts are reported alongside).
fn bench_parallel_speedup(c: &mut Criterion) {
    let registry = Registry::with_builtins();
    let a = dense_f64(512, 32);
    assert_eq!(a.chunks().len(), 256);
    let serial = ExecContext::serial();
    let parallel = ExecContext::new();
    let pred = Expr::attr("v").gt(Expr::lit(50.0));

    // Identical-results check up front, outside the timed loops.
    let f_ser = ops::filter_with(&a, &pred, Some(&registry), &serial).unwrap();
    let f_par = ops::filter_with(&a, &pred, Some(&registry), &parallel).unwrap();
    assert_eq!(f_ser, f_par, "filter results must not depend on threads");
    let g_ser = ops::aggregate_with(&a, &["i"], "avg", AggInput::Star, &registry, &serial).unwrap();
    let g_par =
        ops::aggregate_with(&a, &["i"], "avg", AggInput::Star, &registry, &parallel).unwrap();
    assert_eq!(g_ser, g_par, "aggregate results must not depend on threads");

    let mut g = c.benchmark_group("parallel_512x512_256chunks");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("filter_serial", |b| {
        b.iter(|| ops::filter_with(black_box(&a), &pred, Some(&registry), &serial).unwrap())
    });
    g.bench_function("filter_parallel", |b| {
        b.iter(|| ops::filter_with(black_box(&a), &pred, Some(&registry), &parallel).unwrap())
    });
    g.bench_function("aggregate_serial", |b| {
        b.iter(|| {
            ops::aggregate_with(
                black_box(&a),
                &["i"],
                "avg",
                AggInput::Star,
                &registry,
                &serial,
            )
            .unwrap()
        })
    });
    g.bench_function("aggregate_parallel", |b| {
        b.iter(|| {
            ops::aggregate_with(
                black_box(&a),
                &["i"],
                "avg",
                AggInput::Star,
                &registry,
                &parallel,
            )
            .unwrap()
        })
    });
    g.finish();

    // The directly-timed parallel runs record their kernel events on this
    // span; the per-op report below is the view over its trace.
    let trace = scidb_obs::Trace::new();
    let root = trace.root("bench", scidb_obs::LAYER_CORE);
    parallel.set_current_span(Some(root.clone()));

    // Direct speedup report (median of 5 runs each).
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(|x, y| x.partial_cmp(y).unwrap());
        xs[xs.len() / 2]
    };
    let time5 = |f: &dyn Fn()| {
        median(
            (0..5)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                })
                .collect(),
        )
    };
    let fs = time5(&|| {
        ops::filter_with(&a, &pred, Some(&registry), &serial).unwrap();
    });
    let fp = time5(&|| {
        ops::filter_with(&a, &pred, Some(&registry), &parallel).unwrap();
    });
    let gs = time5(&|| {
        ops::aggregate_with(&a, &["i"], "avg", AggInput::Star, &registry, &serial).unwrap();
    });
    let gp = time5(&|| {
        ops::aggregate_with(&a, &["i"], "avg", AggInput::Star, &registry, &parallel).unwrap();
    });
    println!(
        "parallel speedup over serial ({} threads, 256 chunks, identical results):",
        parallel.threads()
    );
    println!(
        "  filter    {:.2}x  ({:.1} ms -> {:.1} ms)",
        fs / fp,
        fs * 1e3,
        fp * 1e3
    );
    println!(
        "  aggregate {:.2}x  ({:.1} ms -> {:.1} ms)",
        gs / gp,
        gs * 1e3,
        gp * 1e3
    );
    parallel.set_current_span(None);
    root.finish();
    println!("{}", QueryMetrics::from_trace(&trace.finish()).report());
}

criterion_group!(benches, bench_operators, bench_parallel_speedup);
criterion_main!(benches);
