//! Property-based tests on the query layer: the parser never panics on
//! arbitrary input, and every parse tree the Rust binding can build
//! round-trips through its canonical AQL rendering.

use proptest::prelude::*;
use scidb::core::expr::Expr;
use scidb::query::{parse, parse_one, scan, Q};

// ---- parser robustness -------------------------------------------------------

proptest! {
    /// Arbitrary garbage: tokenize+parse must return Ok or Err, never panic.
    #[test]
    fn parser_never_panics_on_arbitrary_input(input in ".{0,200}") {
        let _ = parse(&input);
    }

    /// AQL-shaped garbage: random keywords/symbols glued together.
    #[test]
    fn parser_never_panics_on_aql_shaped_input(
        parts in prop::collection::vec(
            prop::sample::select(vec![
                "define", "create", "insert", "store", "drop", "scan", "filter",
                "subsample", "aggregate", "sjoin", "cjoin", "reshape", "regrid",
                "A", "B", "v", "X", "(", ")", "[", "]", "{", "}", ",", ";", "=",
                "<", ">", "*", ":", "1", "2.5", "'s'", "and", "or", "null",
            ]),
            0..40,
        ),
    ) {
        let text = parts.join(" ");
        let _ = parse(&text);
    }
}

// ---- binding ⇄ text round trip --------------------------------------------------

/// A generator of random (but valid) operator pipelines via the binding.
fn arb_pipeline() -> impl Strategy<Value = Q> {
    let leaf = prop::sample::select(vec!["A", "B", "My_remote"]).prop_map(scan);
    leaf.prop_recursive(4, 16, 2, |inner| {
        prop_oneof![
            // Unary operators.
            (inner.clone(), 1i64..100)
                .prop_map(|(q, k)| { q.subsample(Expr::attr("X").le(Expr::lit(k))) }),
            (inner.clone(), -50.0f64..50.0)
                .prop_map(|(q, t)| { q.filter(Expr::attr("v").gt(Expr::lit(t))) }),
            (
                inner.clone(),
                prop::sample::select(vec!["sum", "avg", "count", "min", "max"])
            )
                .prop_map(|(q, agg)| q.aggregate(&["X"], agg, "v")),
            (inner.clone(), 1i64..8, 1i64..8).prop_map(|(q, fi, fj)| q.regrid(&[fi, fj], "avg")),
            (inner.clone()).prop_map(|q| q.apply(
                "w",
                Expr::attr("v").mul(Expr::lit(2.0)).add(Expr::lit(1i64)),
            )),
            (inner.clone()).prop_map(|q| q.project(&["v"])),
            (inner.clone()).prop_map(|q| q.add_dim("layer")),
            // Binary operators.
            (inner.clone(), prop::sample::select(vec!["A", "B"]))
                .prop_map(|(q, name)| { q.sjoin(scan(name), &[("X", "X")]) }),
            (inner.clone(), prop::sample::select(vec!["A", "B"])).prop_map(|(q, name)| {
                q.cjoin(scan(name), Expr::attr("v").eq(Expr::attr("v_r")))
            }),
            (inner, prop::sample::select(vec!["A", "B"])).prop_map(|(q, name)| q.cross(scan(name))),
        ]
    })
}

/// Pinned regressions from `proptest_query.proptest-regressions`: shrunk
/// pipelines whose canonical AQL once failed to round-trip.
#[test]
fn pinned_roundtrip_regressions() {
    let cases: Vec<Q> = vec![
        scan("A")
            .apply(
                "w",
                Expr::attr("v").mul(Expr::lit(2.0)).add(Expr::lit(1i64)),
            )
            .subsample(Expr::attr("X").le(Expr::lit(1i64)))
            .subsample(Expr::attr("X").le(Expr::lit(1i64))),
        scan("A").filter(Expr::attr("v").gt(Expr::lit(-0.8357318137472601))),
    ];
    for q in cases {
        let text = q.to_aql();
        let reparsed =
            parse_one(&text).unwrap_or_else(|e| panic!("canonical AQL must parse: {text}\n{e}"));
        assert_eq!(reparsed, q.into_stmt(), "{}", text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every binding-built tree renders to AQL that parses back to the
    /// same tree — the §2.4 "one parse tree, many bindings" invariant.
    #[test]
    fn binding_roundtrips_through_canonical_aql(q in arb_pipeline()) {
        let text = q.to_aql();
        let reparsed = parse_one(&text)
            .unwrap_or_else(|e| panic!("canonical AQL must parse: {text}\n{e}"));
        prop_assert_eq!(reparsed, q.into_stmt(), "{}", text);
    }
}
