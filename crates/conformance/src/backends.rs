//! The four array-engine backends: serial, parallel, grid, durable.
//!
//! All four run the identical logical pipeline; they differ in *where*
//! the input array comes from, *how many threads* execute the
//! chunk-parallel kernels, and whether the pipeline runs as Rust calls or
//! as AQL:
//!
//! - serial: [`ExecContext::serial`] over the locally built input;
//! - parallel: [`ExecContext::with_threads`]`(4)` over the same input;
//! - grid: the input is loaded into a 4-node [`Cluster`] under
//!   [`ReplicatedPlacement`] (k = 2 copies), optionally crashed via a
//!   benign [`FaultPlan`] so reads fail over, read back with
//!   `query_region`, and then piped through the serial executor;
//! - durable: the input is written into an on-disk [`Database`]
//!   (buffer pool + WAL), the process handle is dropped, and the store
//!   is re-opened so the pipeline runs, as one AQL statement, over state
//!   recovered from the log — byte-identity here proves recovery is
//!   lossless, not merely crash-safe, and that a scan which reads only
//!   the box its subsample keeps answers as a full read would.

use crate::case::{Case, Cmp, OpSpec};
use crate::remote::pipeline_aql;
use scidb_core::array::Array;
use scidb_core::error::{Error, Result};
use scidb_core::exec::ExecContext;
use scidb_core::expr::Expr;
use scidb_core::geometry::HyperRect;
use scidb_core::ops::{
    add_dimension, aggregate_with, apply_with, cjoin, concat, filter_with, project_with,
    regrid_with, remove_dimension, reshape, sjoin, subsample_with, AggInput, DimCond, DimPredicate,
};
use scidb_core::registry::Registry;
use scidb_core::value::ScalarType;
use scidb_grid::cluster::Cluster;
use scidb_grid::fault::FaultPlan;
use scidb_grid::partition::PartitionScheme;
use scidb_grid::replication::ReplicatedPlacement;
use scidb_query::Database;
use std::sync::atomic::{AtomicU64, Ordering};

/// Kernel perturbations for the shrinker demo: each variant intentionally
/// mis-executes one kernel in the backend it is injected into, so the
/// harness must flag a divergence and shrink it to a minimal repro.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Perturb {
    /// No perturbation (production configuration).
    #[default]
    None,
    /// The filter kernel treats `>=` as `>` and `<=` as `<` — a classic
    /// boundary off-by-one, visible whenever a value lands exactly on the
    /// predicate literal.
    FilterBoundary,
}

fn cmp_expr(attr: &str, cmp: Cmp, lit: f64, perturb: Perturb) -> Expr {
    let a = Expr::attr(attr);
    let l = Expr::lit(lit);
    let effective = if perturb == Perturb::FilterBoundary {
        match cmp {
            Cmp::Ge => Cmp::Gt,
            Cmp::Le => Cmp::Lt,
            other => other,
        }
    } else {
        cmp
    };
    match effective {
        Cmp::Gt => a.gt(l),
        Cmp::Lt => a.lt(l),
        Cmp::Ge => a.ge(l),
        Cmp::Le => a.le(l),
    }
}

/// Runs the case's pipeline over `input` with the given execution context.
pub fn run_ops(
    input: &Array,
    ops: &[OpSpec],
    ctx: &ExecContext,
    registry: &Registry,
    perturb: Perturb,
) -> Result<Array> {
    let mut a = input.clone();
    for op in ops {
        a = match op {
            OpSpec::Subsample { dim, lo, hi } => {
                let pred = DimPredicate::new().with(dim.clone(), DimCond::Between(*lo, *hi));
                subsample_with(&a, &pred, None, ctx)?
            }
            OpSpec::Filter { attr, cmp, lit } => {
                let pred = cmp_expr(attr, *cmp, *lit, perturb);
                filter_with(&a, &pred, None, ctx)?
            }
            OpSpec::Apply { new, src, mul, add } => {
                let expr = Expr::attr(src.clone())
                    .mul(Expr::lit(*mul))
                    .add(Expr::lit(*add));
                apply_with(&a, new, &expr, ScalarType::Float64, None, ctx)?
            }
            OpSpec::Project { keep } => {
                let refs: Vec<&str> = keep.iter().map(String::as_str).collect();
                project_with(&a, &refs, ctx)?
            }
            OpSpec::Aggregate { dims, agg, attr } => {
                let refs: Vec<&str> = dims.iter().map(String::as_str).collect();
                aggregate_with(&a, &refs, agg, AggInput::Attr(attr.clone()), registry, ctx)?
            }
            OpSpec::Regrid { factors, agg } => regrid_with(&a, factors, agg, registry, ctx)?,
            OpSpec::Sjoin => {
                let names: Vec<String> = a.schema().dims().iter().map(|d| d.name.clone()).collect();
                let on: Vec<(&str, &str)> =
                    names.iter().map(|n| (n.as_str(), n.as_str())).collect();
                let b = a.clone();
                sjoin(&a, &b, &on)?
            }
            OpSpec::Cjoin { attr, cmp, lit } => {
                let pred = cmp_expr(attr, *cmp, *lit, Perturb::None);
                let b = a.clone();
                cjoin(&a, &b, &pred, None)?
            }
            OpSpec::Concat { dim } => {
                let b = a.clone();
                concat(&a, &b, dim)?
            }
            OpSpec::Reshape => {
                let rect = a
                    .rect()
                    .ok_or_else(|| Error::dimension("reshape requires a fully bounded array"))?;
                let volume = rect.volume() as i64;
                let order: Vec<String> = a
                    .schema()
                    .dims()
                    .iter()
                    .rev()
                    .map(|d| d.name.clone())
                    .collect();
                let refs: Vec<&str> = order.iter().map(String::as_str).collect();
                reshape(&a, &refs, &[("z".to_string(), volume.max(1))])?
            }
            OpSpec::Slice { dim, at } => remove_dimension(&a, dim, *at)?,
            OpSpec::AddDim { name } => add_dimension(&a, name)?,
        };
    }
    Ok(a)
}

/// Serial backend.
pub fn run_serial(case: &Case, registry: &Registry) -> Result<Array> {
    let input = case.build_input()?;
    run_ops(
        &input,
        &case.ops,
        &ExecContext::serial(),
        registry,
        Perturb::None,
    )
}

/// Parallel chunk-engine backend (4 worker threads). `perturb` is the
/// shrinker-demo hook — [`Perturb::None`] in production.
pub fn run_parallel(case: &Case, registry: &Registry, perturb: Perturb) -> Result<Array> {
    let input = case.build_input()?;
    run_ops(
        &input,
        &case.ops,
        &ExecContext::with_threads(4),
        registry,
        perturb,
    )
}

/// Grid backend: 4-node cluster, hash placement over all dimensions with
/// k = 2 replicas; when `case.grid_fault` is set, a [`FaultPlan`] crashes
/// one node before the readback so the query must fail over to the
/// surviving copies.
pub fn run_grid(case: &Case, registry: &Registry) -> Result<Array> {
    let input = case.build_input()?;
    let rank = input.rank();
    let mut cluster = Cluster::new(4);
    let scheme = PartitionScheme::Hash {
        dims: (0..rank).collect(),
        n_nodes: 4,
    };
    cluster.create_replicated_array(
        "conf",
        case.schema()?,
        ReplicatedPlacement::with_replicas(scheme, 0, 2),
    )?;
    cluster.load_at("conf", 0, input.cells())?;
    if case.grid_fault {
        // Benign: k = 2 guarantees every cell survives a single crash.
        let victim = (case.seed % 4) as usize;
        cluster.set_fault_plan(FaultPlan::new(case.seed).crash(0, victim));
    }
    let region = HyperRect {
        low: vec![1; rank],
        high: (0..rank).map(|d| input.high_water(d).max(1)).collect(),
    };
    let (readback, _stats) = cluster.query_region("conf", &region)?;
    run_ops(
        &readback,
        &case.ops,
        &ExecContext::serial(),
        registry,
        Perturb::None,
    )
}

/// Monotonic disambiguator so concurrent durable runs (test threads, the
/// shrinker re-running one seed many times) never share a directory.
static DURABLE_RUN: AtomicU64 = AtomicU64::new(0);

/// Durable backend: writes the input into an on-disk [`Database`]
/// (page-based buffer pool + WAL), drops the handle, re-opens the
/// directory so the catalog is rebuilt purely from the log, and runs the
/// pipeline over the recovered `conf` as one AQL statement (translated as
/// the remote backend translates it), so the executor's disk-read
/// pushdown is inside the contract.
///
/// Fully bounded, non-nested inputs take the disk-backed path
/// (`put_array_on_disk`: chunks through the storage manager, physical
/// `BucketWrite` records in the WAL); unbounded or nested inputs are
/// logged as whole-array images (`put_array`).
pub fn run_durable(case: &Case, registry: &Registry) -> Result<Array> {
    let input = case.build_input()?;
    let dir = std::env::temp_dir().join(format!(
        "scidb_conf_durable_{}_{}_{}",
        std::process::id(),
        case.seed,
        DURABLE_RUN.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let run = (|| {
        let bounded = case.dims.iter().all(|d| d.upper.is_some());
        {
            let mut db = Database::open(&dir)?;
            if bounded && !case.has_nested() && input.cells().next().is_some() {
                db.put_array_on_disk("conf", &input)?;
            } else {
                db.put_array("conf", input.clone())?;
            }
        }
        let statement = pipeline_aql(case, input, "conf".to_string(), registry)?;
        Database::open(&dir)?.query(&statement)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::{canon_array, Canon};
    use crate::gen::generate;

    #[test]
    fn serial_and_parallel_agree_on_a_sample_of_seeds() {
        let registry = Registry::with_builtins();
        for seed in 0..20 {
            let case = generate(seed);
            let s = run_serial(&case, &registry).unwrap();
            let p = run_parallel(&case, &registry, Perturb::None).unwrap();
            assert_eq!(
                canon_array(&s, Canon::Full),
                canon_array(&p, Canon::Full),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn durable_readback_matches_serial_on_a_sample_of_seeds() {
        let registry = Registry::with_builtins();
        for seed in 0..20 {
            let case = generate(seed);
            let s = run_serial(&case, &registry).unwrap();
            let d = run_durable(&case, &registry).unwrap();
            assert_eq!(
                canon_array(&s, Canon::Full),
                canon_array(&d, Canon::Full),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn grid_readback_matches_serial_input_under_fault() {
        let registry = Registry::with_builtins();
        for seed in 0..20 {
            let mut case = generate(seed);
            case.grid_fault = true;
            let s = run_serial(&case, &registry).unwrap();
            let g = run_grid(&case, &registry).unwrap();
            assert_eq!(
                canon_array(&s, Canon::Full),
                canon_array(&g, Canon::Full),
                "seed {seed}"
            );
        }
    }
}
