//! The chaos suite's property over arbitrary hand-shaped fault plans; the
//! fixture, model and checker are shared with `tests/chaos.rs`, which
//! states the invariant.

use proptest::prelude::*;

include!("../../tests/support/chaos_model.rs");

// ---------------------------------------------------------------------
// Property: arbitrary hand-shaped plans
// ---------------------------------------------------------------------

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    prop::collection::vec(
        (
            1u64..=N_OPS,
            0usize..N_NODES,
            0u32..4,
            2u32..=6,
            1u32..=2 * MAX_RETRIES,
        ),
        0..6,
    )
    .prop_map(|events| {
        let mut plan = FaultPlan::new(0);
        for (at_op, node, kind, factor, failures) in events {
            plan = match kind {
                0 => plan.crash(at_op, node),
                1 => plan.restart(at_op, node),
                2 => plan.slow(at_op, node, factor),
                _ => plan.flaky(at_op, node, failures),
            };
        }
        plan
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any fault plan: results are byte-identical to the fault-free
    /// run or typed-Unavailable, exactly as the model predicts; no panics.
    #[test]
    fn chaos_no_wrong_answers(plan in arb_plan()) {
        if let Err(msg) = check_plan(&plan) {
            dump_failure(&plan);
            prop_assert!(false, "{msg}\nplan: {}", plan.to_json());
        }
    }
}
