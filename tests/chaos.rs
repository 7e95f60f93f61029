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
//! `chaos_seeded_run` is the CI entry point: it sweeps 128
//! `FaultPlan::random` plans for one seed (`CHAOS_SEED`, default 1) and, on
//! violation, writes the minimal failing schedule to
//! `target/chaos-failure.json` so the workflow can upload it as an
//! artifact and anyone can replay it offline.

use scidb::core::error::Error;
use scidb::core::geometry::HyperRect;
use scidb::core::registry::Registry;
use scidb::core::value::{record, Value};
use scidb::grid::{
    Cluster, FaultKind, FaultPlan, NodeState, PartitionScheme, ReplicatedPlacement, MAX_RETRIES,
};
use scidb::{ArraySchema, ScalarType, SchemaBuilder};
use std::collections::{BTreeMap, BTreeSet};

const N_NODES: usize = 4;
const SIDE: i64 = 16;
const REPLICAS: usize = 2;

fn schema() -> ArraySchema {
    SchemaBuilder::new("A")
        .attr("v", ScalarType::Int64)
        .dim("I", SIDE)
        .dim("J", SIDE)
        .build()
        .unwrap()
}

fn scheme() -> PartitionScheme {
    let space = HyperRect::new(vec![1, 1], vec![SIDE, SIDE]).unwrap();
    PartitionScheme::grid(space, vec![2, 2], N_NODES).unwrap()
}

fn placement() -> ReplicatedPlacement {
    ReplicatedPlacement::with_replicas(scheme(), 0, REPLICAS)
}

fn dense_cells() -> Vec<(Vec<i64>, Vec<Value>)> {
    let mut cells = Vec::new();
    for i in 1..=SIDE {
        for j in 1..=SIDE {
            cells.push((vec![i, j], record([Value::from(i * 100 + j)])));
        }
    }
    cells
}

fn build_cluster() -> Cluster {
    let mut c = Cluster::new(N_NODES);
    c.create_replicated_array("A", schema(), placement())
        .unwrap();
    c.load_at("A", 0, dense_cells()).unwrap();
    c
}

/// One distributed operation of the fixed chaos history. Aggregates use
/// `count` and `sum` over an Int64 attribute: both are exact regardless of
/// merge order, so "byte-identical to the fault-free run" is well-defined
/// even when failover reshuffles which node serves which cell.
#[derive(Debug, Clone)]
enum Op {
    Query(HyperRect),
    Agg(&'static str),
}

fn history() -> Vec<Op> {
    let r = |lo: [i64; 2], hi: [i64; 2]| HyperRect::new(lo.to_vec(), hi.to_vec()).unwrap();
    vec![
        Op::Query(r([1, 1], [SIDE, SIDE])),
        Op::Query(r([1, 1], [8, 8])),
        Op::Agg("count"),
        Op::Query(r([1, 1], [SIDE, 4])),
        Op::Agg("sum"),
        Op::Query(r([9, 1], [SIDE, 8])),
        Op::Query(r([9, 9], [SIDE, SIDE])),
        Op::Query(r([1, 1], [SIDE, SIDE])),
    ]
}

const N_OPS: u64 = 8;

#[derive(Debug, Clone, PartialEq)]
enum OpResult {
    Cells(Vec<(Vec<i64>, Vec<Value>)>),
    Value(Value),
}

fn run_op(c: &mut Cluster, op: &Op, reg: &Registry) -> Result<OpResult, Error> {
    match op {
        Op::Query(region) => {
            let (out, _) = c.query_region("A", region)?;
            let mut cells: Vec<_> = out.cells().collect();
            cells.sort_by(|a, b| a.0.cmp(&b.0));
            Ok(OpResult::Cells(cells))
        }
        Op::Agg(name) => {
            let (v, _) = c.aggregate("A", name, "v", reg)?;
            Ok(OpResult::Value(v))
        }
    }
}

// ---------------------------------------------------------------------
// The independent model (oracle)
// ---------------------------------------------------------------------

/// Mirror of the cluster's failure semantics built on the *public*
/// placement API: per-cell holder sets, per-node state / slowdown / flaky
/// budget, and the same logical-operation clock.
struct Model {
    holders: BTreeMap<Vec<i64>, BTreeSet<usize>>,
    placements: BTreeMap<Vec<i64>, Vec<usize>>,
    lost: BTreeSet<Vec<i64>>,
    state: Vec<NodeState>,
    slow: Vec<u32>,
    flaky: Vec<u32>,
    cursor: usize,
    op: u64,
}

impl Model {
    fn new() -> Self {
        let rp = placement();
        let mut holders = BTreeMap::new();
        let mut placements = BTreeMap::new();
        for (coords, _) in dense_cells() {
            let p = rp.placements(&coords);
            holders.insert(coords.clone(), p.iter().copied().collect());
            placements.insert(coords, p);
        }
        Model {
            holders,
            placements,
            lost: BTreeSet::new(),
            state: vec![NodeState::Up; N_NODES],
            slow: vec![1; N_NODES],
            flaky: vec![0; N_NODES],
            cursor: 0,
            op: 0,
        }
    }

    fn crash(&mut self, node: usize) {
        self.state[node] = NodeState::Down;
        self.slow[node] = 1;
        self.flaky[node] = 0;
        for (coords, h) in self.holders.iter_mut() {
            h.remove(&node);
            if h.is_empty() {
                self.lost.insert(coords.clone());
            }
        }
    }

    fn restart(&mut self, node: usize) {
        self.state[node] = NodeState::Up;
        self.slow[node] = 1;
        self.flaky[node] = 0;
        // Re-replication: every surviving cell regains a copy on each live
        // placement node.
        for (coords, h) in self.holders.iter_mut() {
            if h.is_empty() {
                continue;
            }
            for &p in &self.placements[coords] {
                if self.state[p] != NodeState::Down {
                    h.insert(p);
                }
            }
        }
    }

    /// Advances one logical operation: fires due plan events, then
    /// computes the availability mask exactly as the coordinator does.
    fn step(&mut self, plan: &FaultPlan) -> Vec<bool> {
        self.op += 1;
        while let Some(e) = plan.events().get(self.cursor).copied() {
            if e.at_op > self.op {
                break;
            }
            self.cursor += 1;
            if e.node >= N_NODES {
                continue;
            }
            match e.kind {
                FaultKind::Crash => self.crash(e.node),
                FaultKind::Restart => self.restart(e.node),
                FaultKind::Slow { factor } => {
                    self.slow[e.node] = factor.max(1);
                    if self.state[e.node] != NodeState::Down && factor > 1 {
                        self.state[e.node] = NodeState::Degraded;
                    }
                }
                FaultKind::Flaky { failures } => {
                    self.flaky[e.node] += failures;
                    if self.state[e.node] != NodeState::Down && failures > 0 {
                        self.state[e.node] = NodeState::Degraded;
                    }
                }
            }
        }
        let mut avail = vec![false; N_NODES];
        for (n, up) in avail.iter_mut().enumerate() {
            match self.state[n] {
                NodeState::Down => {}
                NodeState::Up => *up = true,
                NodeState::Degraded => {
                    let consumed = self.flaky[n].min(MAX_RETRIES);
                    self.flaky[n] -= consumed;
                    if self.flaky[n] == 0 {
                        *up = true;
                        if self.slow[n] <= 1 {
                            self.state[n] = NodeState::Up;
                        }
                    }
                }
            }
        }
        avail
    }

    /// True when every cell of the operation's footprint has a readable
    /// copy under the availability mask.
    fn reachable(&self, region: Option<&HyperRect>, avail: &[bool]) -> bool {
        self.holders.iter().all(|(coords, h)| {
            if region.is_some_and(|r| !r.contains(coords)) {
                return true;
            }
            !self.lost.contains(coords) && h.iter().any(|&n| avail[n])
        })
    }
}

// ---------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------

/// The fixed history's answers on a cluster without faults: the same for
/// every plan, so a batch computes them once.
fn fault_free_results() -> Vec<OpResult> {
    let reg = Registry::with_builtins();
    let mut clean = build_cluster();
    history()
        .iter()
        .map(|op| run_op(&mut clean, op, &reg).expect("fault-free run cannot fail"))
        .collect()
}

/// Runs the fixed history under `plan` and checks every operation against
/// the fault-free answers and the model's reachability verdict, then
/// recovers all down nodes and checks the cluster heals. Returns a
/// description of the first violation.
fn check_plan(plan: &FaultPlan, clean_results: &[OpResult]) -> Result<(), String> {
    let reg = Registry::with_builtins();
    let ops = history();

    let mut c = build_cluster();
    c.set_fault_plan(plan.clone());
    let mut model = Model::new();

    for (i, op) in ops.iter().enumerate() {
        let avail = model.step(plan);
        let region = match op {
            Op::Query(r) => Some(r),
            Op::Agg(_) => None,
        };
        let expect_ok = model.reachable(region, &avail);
        match run_op(&mut c, op, &reg) {
            Ok(got) => {
                if !expect_ok {
                    return Err(format!(
                        "op {i} ({op:?}): returned Ok but model says a cell is unreachable"
                    ));
                }
                if got != clean_results[i] {
                    return Err(format!(
                        "op {i} ({op:?}): result differs from fault-free run"
                    ));
                }
            }
            Err(Error::Unavailable { lost_cells }) => {
                if expect_ok {
                    return Err(format!(
                        "op {i} ({op:?}): Unavailable({lost_cells}) but model says every \
                         cell has a readable copy"
                    ));
                }
            }
            Err(other) => {
                return Err(format!("op {i} ({op:?}): unexpected error {other}"));
            }
        }
    }

    // Heal: recover every down node, then the final full query must match
    // the fault-free run — unless some cell lost every copy, in which case
    // it must stay Unavailable.
    for n in 0..N_NODES {
        if c.node_state(n) == Some(NodeState::Down) {
            c.recover_node(n)
                .map_err(|e| format!("recover_node({n}): {e}"))?;
            model.restart(n);
        }
    }
    let final_op = Op::Query(HyperRect::new(vec![1, 1], vec![SIDE, SIDE]).unwrap());
    let avail = model.step(plan);
    let expect_ok = model.reachable(None, &avail);
    match run_op(&mut c, &final_op, &reg) {
        Ok(got) => {
            if !expect_ok {
                return Err("post-recovery query succeeded despite lost cells".into());
            }
            if got != clean_results[0] {
                return Err("post-recovery query differs from fault-free run".into());
            }
        }
        Err(Error::Unavailable { .. }) => {
            if expect_ok {
                return Err("post-recovery query Unavailable despite full healing".into());
            }
        }
        Err(other) => return Err(format!("post-recovery query: unexpected error {other}")),
    }
    Ok(())
}

/// Dumps the failing plan where CI picks it up as an artifact.
fn dump_failure(plan: &FaultPlan) {
    let _ = std::fs::create_dir_all("target");
    let _ = std::fs::write("target/chaos-failure.json", plan.to_json());
}

// ---------------------------------------------------------------------
// Seeded batch runner (the CI chaos matrix entry point)
// ---------------------------------------------------------------------

#[test]
fn chaos_seeded_run() {
    let seed: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let clean = fault_free_results();
    for case in 0..128u64 {
        let plan = FaultPlan::random(seed.wrapping_mul(1000).wrapping_add(case), N_NODES, N_OPS);
        if let Err(msg) = check_plan(&plan, &clean) {
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
    assert_eq!(check_plan(&plan, &fault_free_results()), Ok(()));
}

/// Slow and flaky nodes never change results, only cost.
#[test]
fn degraded_nodes_never_change_results() {
    let plan = FaultPlan::new(0)
        .slow(1, 0, 4)
        .flaky(2, 2, 2)
        .slow(4, 1, 8)
        .flaky(6, 3, MAX_RETRIES);
    assert_eq!(check_plan(&plan, &fault_free_results()), Ok(()));
}
