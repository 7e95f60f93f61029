//! Chaos suite: deterministic fault injection against the shared-nothing
//! grid (§2.11 "node failure recovery").
//!
//! The invariant under test, from the Jepsen playbook adapted to a
//! deterministic simulator: **no wrong answers, ever**. For any
//! [`FaultPlan`] — crashes, restarts, slow nodes, flaky I/O in any order —
//! every distributed operation either returns a result *byte-identical* to
//! the fault-free run, or the typed [`Error::Unavailable`]; and
//! `Unavailable` appears exactly when an independent model of the
//! replicated placement says some requested cell has no readable copy this
//! operation. The model re-implements the failure semantics from the
//! public API only (placements, node states, retry budget), so a bug in
//! the cluster's failover path cannot hide in the oracle.
//!
//! `chaos_seeded_run` is the CI entry point: it sweeps a batch of
//! generated plans for one seed (`CHAOS_SEED`, default 1) and, on
//! violation, writes the minimal failing schedule to
//! `target/chaos-failure.json` so the workflow can upload it as an
//! artifact and anyone can replay it offline.

include!("support/chaos_model.rs");

// ---------------------------------------------------------------------
// Seeded batch runner (the CI chaos matrix entry point)
// ---------------------------------------------------------------------

#[test]
fn chaos_seeded_run() {
    let seed: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    for case in 0..50u64 {
        let plan = FaultPlan::random(seed.wrapping_mul(1000).wrapping_add(case), N_NODES, N_OPS);
        if let Err(msg) = check_plan(&plan) {
            dump_failure(&plan);
            panic!(
                "chaos invariant violated (CHAOS_SEED={seed}, case {case}): {msg}\nplan: {}",
                plan.to_json()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic pinned scenarios
// ---------------------------------------------------------------------

/// Losing both ring copies of a tile is a permanent, typed loss.
#[test]
fn losing_every_copy_is_unavailable() {
    let mut c = build_cluster();
    c.set_fault_plan(FaultPlan::new(0).crash(1, 0).crash(1, 1));
    let full = HyperRect::new(vec![1, 1], vec![SIDE, SIDE]).unwrap();
    match c.query_region("A", &full) {
        Err(Error::Unavailable { lost_cells }) => {
            assert!(lost_cells > 0, "tile homed at node 0 lost both copies")
        }
        other => panic!("expected Unavailable, got {other:?}"),
    }
    // Even recovery cannot resurrect the data (the disks are gone).
    c.recover_node(0).unwrap();
    c.recover_node(1).unwrap();
    assert!(matches!(
        c.query_region("A", &full),
        Err(Error::Unavailable { .. })
    ));
    assert!(c.lost_cells("A").unwrap() > 0);
}

/// A single crash with k = 2 replication is fully survivable, and the
/// recovery pass restores the replication factor.
#[test]
fn single_crash_fully_survivable() {
    let plan = FaultPlan::new(0).crash(2, 3).restart(5, 3);
    assert_eq!(check_plan(&plan), Ok(()));
}

/// Slow and flaky nodes never change results, only cost.
#[test]
fn degraded_nodes_never_change_results() {
    let plan = FaultPlan::new(0)
        .slow(1, 0, 4)
        .flaky(2, 2, 2)
        .slow(4, 1, 8)
        .flaky(6, 3, MAX_RETRIES);
    assert_eq!(check_plan(&plan), Ok(()));
}
