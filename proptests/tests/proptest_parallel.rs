//! Serial/parallel equivalence: every chunk-parallel kernel must produce an
//! array *identical* to its serial run — same chunks, same cells, bitwise
//! identical values (including floating-point aggregates, which rely on the
//! per-chunk partial + ordered-merge rule) — over randomized schemas,
//! chunk sizes, cell densities, and operator pipelines.

use proptest::prelude::*;
use scidb::core::exec::ExecContext;
use scidb::core::expr::Expr;
use scidb::core::ops::{self, AggInput, DimCond, DimPredicate};
use scidb::core::registry::Registry;
use scidb::{Array, ScalarType, SchemaBuilder, Value};

/// Builds a randomized array: `dims` gives (extent, chunk_len) per
/// dimension; `density_mod` drops every cell whose coordinate hash is
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

/// One randomized chunk-separable operation, applied under a context.
#[derive(Debug, Clone)]
enum ParOp {
    Filter(f64),
    Subsample(i64),
    Apply,
    Project,
    Aggregate(usize, String),
    Regrid(i64, String),
}

fn run_op(a: &Array, op: &ParOp, reg: &Registry, ctx: &ExecContext) -> Array {
    match op {
        ParOp::Filter(t) => {
            ops::filter_with(a, &Expr::attr("v").gt(Expr::lit(*t)), Some(reg), ctx).unwrap()
        }
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

fn arb_dims() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((1i64..=12, 1i64..=5), 1..=3)
        .prop_map(|dims| dims.into_iter().map(|(e, c)| (e, c.min(e))).collect())
}

fn arb_op() -> impl Strategy<Value = ParOp> {
    let aggs = || prop::sample::select(vec!["sum", "avg", "count", "min", "max", "stddev"]);
    prop_oneof![
        (-100.0f64..100.0).prop_map(ParOp::Filter),
        (1i64..=12).prop_map(ParOp::Subsample),
        Just(ParOp::Apply),
        Just(ParOp::Project),
        (0usize..3, aggs()).prop_map(|(d, a)| ParOp::Aggregate(d, a.to_string())),
        (1i64..=4, aggs()).prop_map(|(f, a)| ParOp::Regrid(f, a.to_string())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Single kernels: parallel output equals serial output exactly.
    #[test]
    fn kernel_parallel_equals_serial(
        dims in arb_dims(),
        salt in -1000i64..1000,
        density_mod in 1i64..5,
        op in arb_op(),
        threads in 2usize..=8,
    ) {
        let a = build_array(&dims, salt, density_mod);
        let reg = Registry::with_builtins();
        let serial = run_op(&a, &op, &reg, &ExecContext::serial());
        let parallel = run_op(&a, &op, &reg, &ExecContext::with_threads(threads));
        prop_assert_eq!(&serial, &parallel, "op {:?} diverged at {} threads", op, threads);
    }

    /// Whole pipelines (the composition the executor actually runs):
    /// Subsample → Filter → Apply → Aggregate over randomized schemas.
    #[test]
    fn pipeline_parallel_equals_serial(
        dims in arb_dims(),
        salt in -1000i64..1000,
        density_mod in 1i64..5,
        hi in 1i64..=12,
        thresh in -100.0f64..100.0,
        agg in prop::sample::select(vec!["sum", "avg", "count", "min", "max"]),
        threads in 2usize..=8,
    ) {
        let a = build_array(&dims, salt, density_mod);
        let reg = Registry::with_builtins();
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
        prop_assert_eq!(&serial, &parallel, "pipeline diverged at {} threads", threads);
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
