//! The SciDB operator suite (§2.2).
//!
//! Operators "fall into two broad categories":
//!
//! * [`structural`] — operators that "create new arrays based purely on the
//!   structure of the inputs … data-agnostic", presenting optimization
//!   opportunities because they need not read data values: Subsample,
//!   Exists?, Reshape, Sjoin, add/remove dimension, Concat, Cross product.
//! * [`content`] — operators "whose result depends on the data that is
//!   stored in the input array": Filter, Aggregate, Cjoin, Apply, Project.
//! * [`regrid`] — the canonical user-extendable science operation (§2.3):
//!   "science users wish to regrid arrays".
//!
//! Each operator has one kernel. Where chunks are dense the chunk-parallel
//! kernels run column-at-a-time (the `batch` module), and
//! [`sjoin`](structural::sjoin) picks its own path from the two schemas:
//! co-aligned inputs join chunk by chunk as a column concatenation (the
//! §2.1 array-over-tables advantage), every other join hashes
//! ([`structural::sjoin_is_aligned`]).
//!
//! # The parallel-kernel contract
//!
//! Chunk-parallel kernels fan per-chunk work out over
//! [`ExecContext::try_par_map`](crate::exec::ExecContext::try_par_map) and
//! combine the per-chunk partial results with a *named*, deterministic merge
//! function, so serial and parallel runs are bitwise identical. Every such
//! kernel must be declared in [`PARALLEL_KERNELS`]; `cargo xtask analyze`
//! (rule R2) cross-checks the declaration against the source — an
//! undeclared `try_par_map` call site, a missing merge function, or a
//! kernel absent from the serial≡parallel equivalence tests is a build
//! failure.

pub(crate) mod batch;
pub mod content;
pub mod regrid;
pub mod structural;

use crate::array::Array;
use crate::chunk::Chunk;
use crate::error::Result;
use crate::geometry::Coords;
use crate::udf::{AggState, AggregateFn};
use crate::value::Record;
use std::collections::BTreeMap;

pub use content::{
    aggregate, aggregate_with, apply, apply_with, cjoin, filter, filter_with, project,
    project_with, AggInput,
};
pub use regrid::{regrid, regrid_with};
pub use structural::{
    add_dimension, concat, cross_product, exists, remove_dimension, reshape, sjoin, subsample,
    subsample_with, DimCond, DimPredicate,
};

/// Contract descriptor for one chunk-parallel kernel.
///
/// Checked statically by `cargo xtask analyze` (rules R2/R6): the `entry`
/// function must exist and be the only place its file calls
/// `try_par_map`/`par_map`, the `merge` function must be referenced from the
/// same file, the entry must appear in `proptests/tests/proptest_parallel.rs` (the
/// serial≡parallel equivalence suite), and the `batch` function must exist
/// in `core::ops` and be referenced from the entry's file (the columnar
/// fast path is actually wired, not just declared).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSpec {
    /// Operator name as recorded in [`OpMetrics`](crate::exec::OpMetrics).
    pub name: &'static str,
    /// The `*_with` entry point that fans chunks out over the context.
    pub entry: &'static str,
    /// The deterministic merge combining per-chunk partial results.
    pub merge: &'static str,
    /// The columnar batch kernel ([`batch`] module) the entry dispatches
    /// to for dense chunks.
    pub batch: &'static str,
}

/// Every chunk-parallel kernel in the engine, with its merge function.
pub const PARALLEL_KERNELS: &[KernelSpec] = &[
    KernelSpec {
        name: "subsample",
        entry: "subsample_with",
        merge: "merge_chunk_outputs",
        batch: "subsample_columns",
    },
    KernelSpec {
        name: "filter",
        entry: "filter_with",
        merge: "merge_chunk_outputs",
        batch: "filter_columns",
    },
    KernelSpec {
        name: "apply",
        entry: "apply_with",
        merge: "merge_chunk_outputs",
        batch: "apply_columns",
    },
    KernelSpec {
        name: "project",
        entry: "project_with",
        merge: "merge_chunk_outputs",
        batch: "project_columns",
    },
    KernelSpec {
        name: "aggregate",
        entry: "aggregate_with",
        merge: "merge_agg_partials",
        batch: "fold_groups_columnar",
    },
    KernelSpec {
        name: "regrid",
        entry: "regrid_with",
        merge: "merge_agg_partials",
        batch: "fold_groups_columnar",
    },
];

/// Per-chunk partial aggregate export: `(group key, one partial record per
/// aggregate state)`.
pub(crate) type AggPartials = Vec<(Coords, Vec<Record>)>;

/// Merged per-group aggregate states, keyed by group coordinates.
pub(crate) type GroupStates = BTreeMap<Coords, Vec<Box<dyn AggState>>>;

/// Deterministic merge for chunk-rewriting kernels (subsample, filter,
/// apply, project): inserts each non-empty output chunk into `out` in chunk
/// order and returns the total cell count.
///
/// `results` arrives from `try_par_map` in *item order* (the array's chunk
/// map order) regardless of thread scheduling, so the output array is
/// identical at every thread count.
pub(crate) fn merge_chunk_outputs(out: &mut Array, results: Vec<(Chunk, u64)>) -> u64 {
    let mut total_cells = 0u64;
    for (oc, cells) in results {
        total_cells += cells;
        if !oc.is_empty() {
            out.insert_chunk(oc);
        }
    }
    total_cells
}

/// Deterministic merge for partial-aggregating kernels (aggregate, regrid):
/// folds per-chunk exported partials into per-group states, merging in
/// chunk order — never in thread-completion order — so floating-point
/// aggregates are bitwise identical at every thread count.
///
/// `n_states` is the number of aggregate states per group (one per
/// aggregated attribute). Returns the merged groups and total cell count.
pub(crate) fn merge_agg_partials(
    agg: &dyn AggregateFn,
    n_states: usize,
    partials: Vec<(AggPartials, u64)>,
) -> Result<(GroupStates, u64)> {
    let mut groups: GroupStates = BTreeMap::new();
    let mut total_cells = 0u64;
    for (exported, cells) in partials {
        total_cells += cells;
        for (key, recs) in exported {
            let states = groups
                .entry(key)
                .or_insert_with(|| (0..n_states).map(|_| agg.create()).collect());
            for (state, prec) in states.iter_mut().zip(&recs) {
                state.merge(prec)?;
            }
        }
    }
    Ok((groups, total_cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::value::Value;

    #[test]
    fn kernel_manifest_is_well_formed() {
        let mut names: Vec<&str> = PARALLEL_KERNELS.iter().map(|k| k.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            PARALLEL_KERNELS.len(),
            "kernel names must be unique"
        );
        for k in PARALLEL_KERNELS {
            assert!(!k.name.is_empty());
            assert!(
                k.entry.ends_with("_with"),
                "kernel entry '{}' must be a *_with context entry point",
                k.entry
            );
            assert!(k.merge.starts_with("merge_"));
            assert!(
                !k.batch.is_empty(),
                "kernel '{}' must name its columnar batch function",
                k.name
            );
        }
    }

    #[test]
    fn merge_chunk_outputs_skips_empty_and_counts_cells() {
        let a = Array::int_1d("A", "x", &[1, 2, 3]);
        let mut out = Array::from_arc(a.schema_arc());
        let full: Vec<(Chunk, u64)> = a.chunks().values().map(|c| (c.clone(), 2)).collect();
        let empty = Chunk::new(
            a.chunks().values().next().expect("chunk").rect().clone(),
            a.chunks().values().next().expect("chunk").attr_types(),
        );
        let n = full.len();
        let mut results = full;
        results.push((empty, 0));
        let cells = merge_chunk_outputs(&mut out, results);
        assert_eq!(cells, 2 * n as u64);
        assert_eq!(out.chunks().len(), n); // empty chunk not inserted
    }

    #[test]
    fn merge_agg_partials_merges_in_chunk_order() {
        let reg = Registry::with_builtins();
        let agg = reg.aggregate("sum").expect("builtin sum");
        let partials: Vec<(AggPartials, u64)> = vec![
            (vec![(vec![1], vec![sum_partial(&*agg, 10)])], 1),
            (vec![(vec![1], vec![sum_partial(&*agg, 32)])], 1),
        ];
        let (groups, cells) = merge_agg_partials(&*agg, 1, partials).expect("merge");
        assert_eq!(cells, 2);
        let states = groups.get(&vec![1]).expect("group");
        assert_eq!(states[0].finalize(), Value::from(42i64));
    }

    fn sum_partial(agg: &dyn AggregateFn, v: i64) -> Record {
        let mut s = agg.create();
        s.update(&Value::from(v)).expect("update");
        s.partial()
    }
}
