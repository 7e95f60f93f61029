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
//! * [`regrid`](mod@regrid) — the canonical user-extendable science operation (§2.3):
//!   "science users wish to regrid arrays".
//!
//! Each operator has one kernel. Where chunks are dense the chunk-parallel
//! kernels run column-at-a-time (the `batch` module), and
//! [`sjoin`] picks its own path from the two schemas:
//! co-aligned inputs join chunk by chunk as a column concatenation (the
//! §2.1 array-over-tables advantage), every other join hashes
//! ([`structural::sjoin_is_aligned`]).
//!
//! # The chunk drivers
//!
//! The chunk is the unit of both storage and parallel work (§2.8), and one
//! chunk-at-a-time loop serves every chunk-parallel kernel. Two private
//! drivers are the only fan-out in this module:
//!
//! * `map_chunks` rewrites each chunk into one output chunk (Filter,
//!   Apply, Project, Subsample): the columnar `batch` body first, else the
//!   per-cell body, then `merge_chunk_outputs`;
//! * `fold_chunks` folds each chunk into per-group partial aggregates
//!   (Aggregate, Regrid) and combines them with `merge_agg_partials`.
//!
//! Both fan out over
//! [`ExecContext::try_par_map`](crate::exec::ExecContext::try_par_map),
//! time the call through
//! [`ExecContext::timed`](crate::exec::ExecContext::timed), and merge per-chunk
//! results in chunk order, so serial and parallel runs are bitwise
//! identical. A kernel is a `*_with` entry that validates its inputs,
//! builds its output schema and calls one driver; `cargo xtask analyze`
//! derives the kernel list from those call sites (rules R2 and R6).

pub(crate) mod batch;
pub mod content;
pub mod regrid;
pub mod structural;

use crate::array::Array;
use crate::chunk::Chunk;
use crate::error::Result;
use crate::exec::ExecContext;
use crate::geometry::Coords;
use crate::schema::{ArraySchema, AttrType};
use crate::udf::{AggState, AggregateFn};
use crate::value::{Record, ScalarType};
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

/// Per-chunk partial aggregate export: `(group key, one partial record per
/// aggregate state)`.
pub(crate) type AggPartials = Vec<(Coords, Vec<Record>)>;

/// Merged per-group aggregate states, keyed by group coordinates.
pub(crate) type GroupStates = BTreeMap<Coords, Vec<Box<dyn AggState>>>;

/// The driver of the chunk-rewriting kernels (filter, apply, project,
/// subsample): maps every chunk of `chunks` to one output chunk and merges
/// them into `out` in chunk order, timed as `op`.
///
/// Per chunk, `batch` runs first and returns the output chunk plus the
/// cells it touched, or `None` to decline (the bail-out contract of the
/// `batch` module). A declined chunk runs `cell` on every present cell
/// `(chunk, coords, offset)`; `Some(record)` writes that record at the
/// cell's coordinates in the output, `None` leaves the cell empty. With a
/// kernel span installed, the span records how many chunks took each path
/// as `batch_chunks` and `fallback_chunks`.
pub(crate) fn map_chunks<B, C>(
    op: &str,
    chunks: &[&Chunk],
    mut out: Array,
    ctx: &ExecContext,
    batch: B,
    cell: C,
) -> Result<Array>
where
    B: Fn(&Chunk) -> Option<(Chunk, u64)> + Sync,
    C: Fn(&Chunk, &Coords, usize) -> Result<Option<Record>> + Sync,
{
    ctx.timed(op, || {
        let out_types: Vec<AttrType> = out.schema().attrs().iter().map(|a| a.ty.clone()).collect();
        let results = ctx.try_par_map(chunks, |chunk| {
            if let Some(done) = batch(chunk) {
                return Ok((done, true));
            }
            let mut oc = Chunk::new(chunk.rect().clone(), &out_types);
            let mut cells = 0u64;
            for (coords, idx) in chunk.iter_present() {
                cells += 1;
                if let Some(rec) = cell(chunk, &coords, idx)? {
                    oc.set_record(&coords, &rec)?;
                }
            }
            Ok(((oc, cells), false))
        })?;
        if let Some(span) = ctx.current_span() {
            let batched = results.iter().filter(|(_, b)| *b).count() as u64;
            span.set_attr("batch_chunks", batched);
            span.set_attr("fallback_chunks", results.len() as u64 - batched);
        }
        let cells = merge_chunk_outputs(&mut out, results.into_iter().map(|(r, _)| r));
        Ok((out, chunks.len() as u64, cells))
    })
}

/// The driver of the partial-aggregating kernels (aggregate, regrid):
/// folds the attributes `attr_idxs` of every chunk of `a` into per-group
/// states of `agg`, merges the partials in chunk order and finalizes one
/// output cell per group into an array of `out_schema`, timed as `op`.
///
/// `group` maps a cell's coordinates to its group key (the output cell);
/// `None` folds the whole array into the single group `[1]`.
pub(crate) fn fold_chunks<G>(
    op: &str,
    a: &Array,
    attr_idxs: &[usize],
    agg: &dyn AggregateFn,
    group: Option<G>,
    out_schema: ArraySchema,
    ctx: &ExecContext,
) -> Result<Array>
where
    G: Fn(&[i64]) -> Coords + Sync,
{
    ctx.timed(op, || {
        let chunks: Vec<&Chunk> = a.chunks().values().collect();
        // Columnar folds: both visit values in ascending offset order, so
        // the partials are bitwise identical to a per-cell loop's.
        let partials = ctx.try_par_map(&chunks, |chunk| {
            let mut local: GroupStates = BTreeMap::new();
            let cells = match &group {
                None => {
                    let mut states: Vec<Box<dyn AggState>> =
                        attr_idxs.iter().map(|_| agg.create()).collect();
                    let c = batch::fold_ungrouped_columnar(chunk, attr_idxs, &mut states)?;
                    if c > 0 {
                        local.insert(vec![1], states);
                    }
                    c
                }
                Some(key_of) => {
                    batch::fold_groups_columnar(chunk, attr_idxs, agg, key_of, &mut local)?
                }
            };
            let exported: AggPartials = local
                .into_iter()
                .map(|(k, states)| (k, states.iter().map(|s| s.partial()).collect()))
                .collect();
            Ok((exported, cells))
        })?;
        let (groups, cells) = merge_agg_partials(agg, attr_idxs.len(), partials)?;
        let mut out = Array::new(out_schema);
        for (key, states) in groups {
            out.set_cell(&key, states.iter().map(|s| s.finalize()).collect())?;
        }
        Ok((out, chunks.len() as u64, cells))
    })
}

/// The output type of aggregate `agg_name` over an attribute of type
/// `input`: `count` is an integer, the moments (`avg`, `stddev`, `var`)
/// are floats, every other aggregate keeps the input's scalar type.
pub(crate) fn agg_output_type(agg_name: &str, input: &AttrType) -> ScalarType {
    match agg_name.to_ascii_lowercase().as_str() {
        "count" => ScalarType::Int64,
        "avg" | "stddev" | "var" => ScalarType::Float64,
        _ => input.as_scalar().unwrap_or(ScalarType::Float64),
    }
}

/// Deterministic merge for chunk-rewriting kernels (subsample, filter,
/// apply, project): inserts each non-empty output chunk into `out` in chunk
/// order and returns the total cell count.
///
/// `results` arrives from `try_par_map` in *item order* (the array's chunk
/// map order) regardless of thread scheduling, so the output array is
/// identical at every thread count.
pub(crate) fn merge_chunk_outputs(
    out: &mut Array,
    results: impl IntoIterator<Item = (Chunk, u64)>,
) -> u64 {
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

    /// Integer `/`, `%` and negation wrap on both paths: a dense chunk runs
    /// the batch evaluator, a sparse chunk with the same cells the per-cell
    /// one, and neither panics or answers differently at `i64::MIN`.
    #[test]
    fn int_overflow_wraps_alike_on_dense_and_sparse_chunks() {
        use crate::expr::{BinOp, Expr, UnaryOp};
        use crate::schema::SchemaBuilder;
        let vals = [i64::MIN, -7, 3, i64::MAX];
        let dense = Array::int_1d("D", "v", &vals);
        let schema = SchemaBuilder::new("S")
            .attr("v", ScalarType::Int64)
            .dim_chunked("x", 64, 64)
            .build()
            .expect("schema");
        let mut sparse = Array::new(schema);
        for (x, &v) in (1..).zip(&vals) {
            sparse.set_cell(&[x], vec![Value::from(v)]).expect("set");
        }
        assert!(dense.chunks().values().all(Chunk::is_dense));
        assert!(!sparse.chunks().values().any(Chunk::is_dense));
        let v = || Box::new(Expr::attr("v"));
        let minus_one = || Box::new(Expr::lit(-1i64));
        for expr in [
            Expr::Binary(BinOp::Div, v(), minus_one()),
            Expr::Binary(BinOp::Mod, v(), minus_one()),
            Expr::Unary(UnaryOp::Neg, v()),
            Expr::Binary(BinOp::Mul, v(), minus_one()),
        ] {
            let on_dense =
                content::apply(&dense, "w", &expr, ScalarType::Int64, None).expect("dense");
            let on_sparse =
                content::apply(&sparse, "w", &expr, ScalarType::Int64, None).expect("sparse");
            for x in 1..=vals.len() as i64 {
                assert_eq!(
                    on_dense.get_value(1, &[x]),
                    on_sparse.get_value(1, &[x]),
                    "{expr:?} at x={x}"
                );
            }
        }
        assert_eq!(
            content::apply(
                &sparse,
                "w",
                &Expr::Binary(BinOp::Div, v(), minus_one()),
                ScalarType::Int64,
                None
            )
            .expect("apply")
            .get_value(1, &[1]),
            Some(Value::from(i64::MIN))
        );
    }

    #[test]
    fn int_sum_wraps_instead_of_panicking() {
        let reg = Registry::with_builtins();
        let a = Array::int_1d("A", "v", &[i64::MAX, 1]);
        let out = content::aggregate(&a, &[], "sum", content::AggInput::Star, &reg).expect("sum");
        assert_eq!(out.get_cell(&[1]), Some(vec![Value::from(i64::MIN)]));
    }

    fn sum_partial(agg: &dyn AggregateFn, v: i64) -> Record {
        let mut s = agg.create();
        s.update(&Value::from(v)).expect("update");
        s.partial()
    }
}
