//! Serial/parallel equivalence: every chunk-parallel kernel must produce an
//! array *identical* to its serial run — same chunks, same cells, bitwise
//! identical values (including floating-point aggregates, which rely on the
//! per-chunk partial + ordered-merge rule) — over seeded schemas, chunk
//! sizes, cell densities, and operator pipelines.
//!
//! Each case is drawn from `SmallRng` over a fixed seed range, so a failure
//! names its seed and replays exactly. The last test checks which path each
//! chunk took: the columnar batch path on dense input, the per-cell path for
//! a predicate the batch evaluator declines.

use scidb::core::exec::ExecContext;
use scidb::core::expr::Expr;
use scidb::core::ops::{self, AggInput, DimCond, DimPredicate};
use scidb::core::registry::Registry;
use scidb::core::rng::SmallRng;
use scidb::{Array, ScalarType, SchemaBuilder, Value};

/// Builds a seeded array: `dims` gives (extent, chunk_len) per dimension;
/// `density_mod` drops every cell whose coordinate hash is
/// `0 (mod density_mod)`, exercising sparse chunks and absent chunks.
fn build_array(dims: &[(i64, i64)], salt: i64, density_mod: i64) -> Array {
    let mut b = SchemaBuilder::new("P")
        .attr("v", ScalarType::Float64)
        .attr("n", ScalarType::Int64);
    for (i, &(extent, chunk)) in dims.iter().enumerate() {
        b = b.dim_chunked(format!("d{i}"), extent, chunk);
    }
    let mut a = Array::new(b.build().unwrap());
    let mut full = Array::from_arc(a.schema_arc());
    full.fill_with(|_| vec![Value::Null, Value::Null]).unwrap();
    for (coords, _) in full.cells() {
        let h: i64 = coords
            .iter()
            .fold(salt, |acc, &c| acc.wrapping_mul(31).wrapping_add(c));
        if density_mod > 1 && h.rem_euclid(density_mod) == 0 {
            continue;
        }
        let v = (h % 1000) as f64 / 7.0;
        a.set_cell(&coords, vec![Value::from(v), Value::from(h % 97)])
            .unwrap();
    }
    a
}

/// One seeded chunk-separable operation, applied under a context.
#[derive(Debug, Clone)]
enum ParOp {
    Filter(f64),
    /// `abs(v) > 1`: a UDF call, which the batch evaluator declines, so
    /// dense chunks run the per-cell body too.
    UdfFilter,
    Subsample(i64),
    Apply,
    Project,
    Aggregate(usize, &'static str),
    Regrid(i64, &'static str),
}

const AGGS: [&str; 6] = ["sum", "avg", "count", "min", "max", "stddev"];

fn udf_pred() -> Expr {
    Expr::func("abs", vec![Expr::attr("v")]).gt(Expr::lit(1.0))
}

fn run_op(a: &Array, op: &ParOp, reg: &Registry, ctx: &ExecContext) -> Array {
    match op {
        ParOp::Filter(t) => {
            ops::filter_with(a, &Expr::attr("v").gt(Expr::lit(*t)), Some(reg), ctx).unwrap()
        }
        ParOp::UdfFilter => ops::filter_with(a, &udf_pred(), Some(reg), ctx).unwrap(),
        ParOp::Subsample(hi) => {
            let pred = DimPredicate::new().with("d0", DimCond::Le(*hi));
            ops::subsample_with(a, &pred, Some(reg), ctx).unwrap()
        }
        ParOp::Apply => ops::apply_with(
            a,
            "w",
            &Expr::attr("v").mul(Expr::lit(3.0)),
            ScalarType::Float64,
            Some(reg),
            ctx,
        )
        .unwrap(),
        ParOp::Project => ops::project_with(a, &["v"], ctx).unwrap(),
        ParOp::Aggregate(gdim, agg) => {
            let name = format!("d{}", gdim % a.schema().rank());
            ops::aggregate_with(a, &[&name], agg, AggInput::Attr("v".into()), reg, ctx).unwrap()
        }
        ParOp::Regrid(f, agg) => {
            let factors: Vec<i64> = vec![*f; a.schema().rank()];
            ops::regrid_with(a, &factors, agg, reg, ctx).unwrap()
        }
    }
}

/// 1–3 dimensions, extents 1–12, chunk lengths 1–5 (capped at the extent).
fn gen_dims(rng: &mut SmallRng) -> Vec<(i64, i64)> {
    (0..rng.gen_range(1..=3usize))
        .map(|_| {
            let extent = rng.gen_range(1..=12i64);
            (extent, rng.gen_range(1..=5i64).min(extent))
        })
        .collect()
}

fn gen_op(rng: &mut SmallRng) -> ParOp {
    let agg = |rng: &mut SmallRng| AGGS[rng.gen_range(0..AGGS.len())];
    match rng.gen_range(0..7u32) {
        0 => ParOp::Filter(rng.gen_range(-100.0..100.0)),
        1 => ParOp::UdfFilter,
        2 => ParOp::Subsample(rng.gen_range(1..=12i64)),
        3 => ParOp::Apply,
        4 => ParOp::Project,
        5 => ParOp::Aggregate(rng.gen_range(0..3usize), agg(rng)),
        _ => ParOp::Regrid(rng.gen_range(1..=4i64), agg(rng)),
    }
}

/// Single kernels: parallel output equals serial output exactly.
#[test]
fn kernel_parallel_equals_serial() {
    let reg = Registry::with_builtins();
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dims = gen_dims(&mut rng);
        let a = build_array(&dims, rng.gen_range(-1000..1000i64), rng.gen_range(1..5i64));
        let op = gen_op(&mut rng);
        let threads = rng.gen_range(2..=8usize);
        let serial = run_op(&a, &op, &reg, &ExecContext::serial());
        let parallel = run_op(&a, &op, &reg, &ExecContext::with_threads(threads));
        assert_eq!(
            serial, parallel,
            "seed {seed}: {op:?} over {dims:?} diverged at {threads} threads"
        );
    }
}

/// Whole pipelines (the composition the executor actually runs):
/// Subsample → Filter → Apply → Aggregate over seeded schemas.
#[test]
fn pipeline_parallel_equals_serial() {
    let reg = Registry::with_builtins();
    for seed in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dims = gen_dims(&mut rng);
        let a = build_array(&dims, rng.gen_range(-1000..1000i64), rng.gen_range(1..5i64));
        let hi = rng.gen_range(1..=12i64);
        let thresh = rng.gen_range(-100.0..100.0);
        let agg = AGGS[rng.gen_range(0..5usize)];
        let threads = rng.gen_range(2..=8usize);
        let pipeline = |ctx: &ExecContext| -> Array {
            let pred = DimPredicate::new().with("d0", DimCond::Le(hi));
            let s = ops::subsample_with(&a, &pred, Some(&reg), ctx).unwrap();
            let f = ops::filter_with(&s, &Expr::attr("v").gt(Expr::lit(thresh)), Some(&reg), ctx)
                .unwrap();
            let ap = ops::apply_with(
                &f,
                "w",
                &Expr::attr("v").add(Expr::attr("n")),
                ScalarType::Float64,
                Some(&reg),
                ctx,
            )
            .unwrap();
            ops::aggregate_with(&ap, &["d0"], agg, AggInput::Attr("w".into()), &reg, ctx).unwrap()
        };
        let serial = pipeline(&ExecContext::serial());
        let parallel = pipeline(&ExecContext::with_threads(threads));
        assert_eq!(
            serial, parallel,
            "seed {seed}: pipeline over {dims:?} diverged at {threads} threads"
        );
    }
}

/// The executor-level equivalence: a `Database` with threads=1 and one with
/// threads=N answer every query identically (metrics aside).
#[test]
fn database_thread_count_is_unobservable_in_results() {
    let setup = "define H (v = float) (X = 1:16, Y = 1:16);
                 create A as H [16, 16];";
    let mut serial = scidb::Database::with_threads(1);
    let mut parallel = scidb::Database::with_threads(8);
    serial.run(setup).unwrap();
    parallel.run(setup).unwrap();
    for x in 1i64..=16 {
        for y in 1i64..=16 {
            if (x * 31 + y) % 3 == 0 {
                continue;
            }
            let ins = format!(
                "insert into A[{x}, {y}] values ({})",
                (x * 100 + y) as f64 / 3.0
            );
            serial.run(&ins).unwrap();
            parallel.run(&ins).unwrap();
        }
    }
    for q in [
        "filter(A, v > 200.0)",
        "subsample(A, even(X))",
        "project(apply(A, w, v * 2.0), w)",
        "aggregate(A, {Y}, avg(v))",
        "aggregate(A, {}, stddev(v))",
        "regrid(A, [4, 4], sum)",
    ] {
        let a = serial.query(q).unwrap();
        let b = parallel.query(q).unwrap();
        assert_eq!(a, b, "{q} must not observe the thread count");
    }
}

/// `(batch_chunks, fallback_chunks)` a kernel records on the installed span.
fn chunk_paths(kernel: impl FnOnce(&ExecContext) -> Array) -> (u64, u64) {
    let ctx = ExecContext::with_threads(2);
    let trace = scidb::obs::Trace::new();
    let span = trace.root("kernel", scidb::obs::LAYER_QUERY);
    ctx.set_current_span(Some(span.clone()));
    kernel(&ctx);
    span.finish();
    let data = trace.finish();
    let count = |key| data.spans[0].attr(key).and_then(|v| v.as_u64()).unwrap();
    (count("batch_chunks"), count("fallback_chunks"))
}

/// Every chunk-rewriting kernel takes its columnar path on `Float64`
/// chunks, full or sparse, and a UDF predicate sends every chunk down the
/// per-cell path.
#[test]
fn dense_chunks_take_the_batch_path() {
    let schema = SchemaBuilder::new("D")
        .attr("v", ScalarType::Float64)
        .dim_chunked("d0", 8, 4)
        .dim_chunked("d1", 8, 4)
        .build()
        .unwrap();
    let mut full = Array::new(schema.clone());
    full.fill_with(|c| vec![Value::from((c[0] * 10 + c[1]) as f64 / 3.0)])
        .unwrap();
    // Every 7th cell: 9 or 10 of 64, 2 or 3 per 16-cell chunk.
    let mut sparse = Array::new(schema);
    for (k, (coords, rec)) in full.cells().enumerate() {
        if k % 7 == 0 {
            sparse.set_cell(&coords, rec).unwrap();
        }
    }
    assert!(sparse
        .chunks()
        .values()
        .all(|c| c.present_count() * 4 < c.capacity()));
    let reg = Registry::with_builtins();
    for a in [&full, &sparse] {
        let n = a.chunks().len() as u64;
        assert_eq!(n, 4);
        for op in [
            ParOp::Filter(5.0),
            ParOp::Subsample(8),
            ParOp::Apply,
            ParOp::Project,
        ] {
            let paths = chunk_paths(|ctx| run_op(a, &op, &reg, ctx));
            assert_eq!(paths, (n, 0), "{op:?} fell back on {}", a.cell_count());
        }
        let paths = chunk_paths(|ctx| run_op(a, &ParOp::UdfFilter, &reg, ctx));
        assert_eq!(paths, (0, n), "a UDF predicate must take the per-cell path");
    }
}
