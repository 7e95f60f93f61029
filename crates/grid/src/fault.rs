//! Deterministic fault injection for the shared-nothing grid (§2.11–§2.13).
//!
//! A science DBMS grid must keep answering queries while nodes crash,
//! restart, slow down, or drop requests. This module makes failure a
//! first-class, *seedable* input: a [`FaultPlan`] is a schedule of
//! [`FaultEvent`]s keyed by the cluster's **logical operation index** — the
//! count of distributed operations executed so far — never by wall-clock
//! time (workspace rule R5: grid code owns no raw clock, so a plan replays
//! byte-identically on any machine at any speed).
//!
//! Semantics, in the Jepsen / GFS-era fail-stop tradition:
//!
//! * [`FaultKind::Crash`] — the node fail-stops and its disk is lost: the
//!   shard is wiped, surviving replicas serve its data.
//! * [`FaultKind::Restart`] — the node rejoins empty and healthy; the
//!   cluster runs a re-replication pass to restore the replication factor.
//! * [`FaultKind::Slow`] — the node stays correct but serves reads at a
//!   degraded rate (load accounting is multiplied by `factor`).
//! * [`FaultKind::Flaky`] — the node's next `failures` requests fail
//!   transiently; the coordinator retries with bounded, attempt-counted
//!   backoff ([`MAX_RETRIES`]) before treating the node as unavailable for
//!   the current operation.

use scidb_core::rng::SmallRng;
use std::fmt::Write as _;

/// Retries the coordinator attempts against a flaky node within one
/// distributed operation before treating it as unavailable for that
/// operation. Backoff is attempt-counted (`1 << attempt` units), never
/// timed, so recovery work is deterministic.
pub const MAX_RETRIES: u32 = 3;

/// Health of one grid node as seen by the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeState {
    /// Healthy: serves reads at full speed.
    #[default]
    Up,
    /// Reachable but impaired: slow (load inflated) or flaky (reads need
    /// retries and may fail for an operation).
    Degraded,
    /// Fail-stopped: shard wiped, unreachable until a restart.
    Down,
}

/// What happens to a node at a scheduled point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail-stop with disk loss.
    Crash,
    /// Rejoin empty and healthy (triggers re-replication).
    Restart,
    /// Serve reads `factor`× slower until restarted.
    Slow {
        /// Load multiplier (≥ 2 to be observable).
        factor: u32,
    },
    /// Fail the next `failures` requests transiently.
    Flaky {
        /// Transient failures to inject.
        failures: u32,
    },
}

impl FaultKind {
    fn name(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Restart => "restart",
            FaultKind::Slow { .. } => "slow",
            FaultKind::Flaky { .. } => "flaky",
        }
    }
}

/// One scheduled fault: at logical operation `at_op`, `node` undergoes
/// `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Logical operation index at which the fault fires (the event applies
    /// before the `at_op`-th distributed operation executes; the first
    /// operation has index 1).
    pub at_op: u64,
    /// Target node.
    pub node: usize,
    /// The fault.
    pub kind: FaultKind,
}

/// A deterministic, seedable schedule of node faults.
///
/// Events are kept sorted by `at_op` (stable for equal indices: insertion
/// order), and the cluster fires each exactly once as its logical operation
/// counter passes the event's index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults). `seed` is carried for provenance only.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// The seed this plan was built from (0 for hand-built plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Schedules a crash. Returns `self` for chaining.
    pub fn crash(self, at_op: u64, node: usize) -> Self {
        self.push(at_op, node, FaultKind::Crash)
    }

    /// Schedules a restart.
    pub fn restart(self, at_op: u64, node: usize) -> Self {
        self.push(at_op, node, FaultKind::Restart)
    }

    /// Schedules a slowdown.
    pub fn slow(self, at_op: u64, node: usize, factor: u32) -> Self {
        self.push(at_op, node, FaultKind::Slow { factor })
    }

    /// Schedules transient request failures.
    pub fn flaky(self, at_op: u64, node: usize, failures: u32) -> Self {
        self.push(at_op, node, FaultKind::Flaky { failures })
    }

    fn push(mut self, at_op: u64, node: usize, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at_op, node, kind });
        // Stable sort: equal-index events keep insertion order.
        self.events.sort_by_key(|e| e.at_op);
        self
    }

    /// The schedule, sorted by `at_op`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a random plan over `n_nodes` nodes and a horizon of
    /// `n_ops` logical operations — same seed, same plan, forever.
    ///
    /// Crashes are followed by a scheduled restart with probability ~2/3,
    /// so generated histories exercise the recover / re-replicate path as
    /// well as sustained degradation.
    pub fn random(seed: u64, n_nodes: usize, n_ops: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new(seed);
        let n_events = rng.gen_range(0..=(n_nodes.min(4) + 2));
        for _ in 0..n_events {
            let node = rng.gen_range(0..n_nodes);
            let at_op = rng.gen_range(1..=n_ops.max(1));
            plan = match rng.gen_range(0..4u32) {
                0 => {
                    let p = plan.crash(at_op, node);
                    if rng.gen_range(0..3u32) < 2 {
                        let back = rng.gen_range(at_op..=n_ops.max(at_op) + 2);
                        p.restart(back, node)
                    } else {
                        p
                    }
                }
                1 => plan.restart(at_op, node),
                2 => plan.slow(at_op, node, rng.gen_range(2..=8)),
                _ => plan.flaky(at_op, node, rng.gen_range(1..=2 * MAX_RETRIES)),
            };
        }
        plan
    }

    /// Serializes the plan as JSON — the artifact CI uploads when a chaos
    /// run fails, so the minimal failing schedule is reproducible offline.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"seed\":{},\"events\":[", self.seed);
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"at_op\":{},\"node\":{},\"kind\":\"{}\"",
                e.at_op,
                e.node,
                e.kind.name()
            );
            match e.kind {
                FaultKind::Slow { factor } => {
                    let _ = write!(out, ",\"factor\":{factor}");
                }
                FaultKind::Flaky { failures } => {
                    let _ = write!(out, ",\"failures\":{failures}");
                }
                FaultKind::Crash | FaultKind::Restart => {}
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_keeps_events_sorted_by_op() {
        let p = FaultPlan::new(7)
            .crash(5, 1)
            .flaky(2, 0, 3)
            .restart(9, 1)
            .slow(2, 2, 4);
        let ops: Vec<u64> = p.events().iter().map(|e| e.at_op).collect();
        assert_eq!(ops, vec![2, 2, 5, 9]);
        // Stable for equal indices: flaky(2) was inserted before slow(2).
        assert_eq!(p.events()[0].kind, FaultKind::Flaky { failures: 3 });
        assert_eq!(p.events()[1].kind, FaultKind::Slow { factor: 4 });
        assert_eq!(p.seed(), 7);
    }

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let a = FaultPlan::random(42, 8, 20);
        let b = FaultPlan::random(42, 8, 20);
        let c = FaultPlan::random(43, 8, 20);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, c, "different seed, different plan");
        for e in a.events() {
            assert!(e.node < 8);
            assert!(e.at_op >= 1);
        }
    }

    #[test]
    fn json_roundtrips_fields() {
        let p = FaultPlan::new(3).crash(1, 0).slow(2, 1, 5).flaky(3, 2, 4);
        let js = p.to_json();
        assert!(js.starts_with("{\"seed\":3,\"events\":["), "{js}");
        assert!(js.contains("\"kind\":\"crash\""), "{js}");
        assert!(js.contains("\"factor\":5"), "{js}");
        assert!(js.contains("\"failures\":4"), "{js}");
    }

    #[test]
    fn empty_plan() {
        let p = FaultPlan::new(0);
        assert!(p.is_empty());
        assert_eq!(p.to_json(), "{\"seed\":0,\"events\":[]}");
    }
}
