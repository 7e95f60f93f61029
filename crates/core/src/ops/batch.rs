//! Vectorized batch kernels over dense columnar chunks (§2.8).
//!
//! The chunk-parallel kernels in [`content`](super::content),
//! [`structural`](super::structural), and [`regrid`](super::regrid) fan
//! work out *across* chunks; this module makes execution *inside* a chunk
//! column-at-a-time. A dense chunk already stores each attribute as a
//! contiguous typed vector with a validity bitmap
//! ([`Column`](crate::chunk::Column)), so the batch path:
//!
//! * evaluates expressions as whole-column vector operations ([`BVec`]),
//!   producing tight `Vec<i64>`/`Vec<f64>` loops the compiler can
//!   autovectorize;
//! * turns filter into a **selection vector** — a null-out bitmap combined
//!   with the presence bitmap by word-level bit operations, never touching
//!   the value vectors (§2.2.2 semantics: failing present cells keep their
//!   position and become all-NULL records);
//! * turns project into pure column clones, apply into a fused
//!   expression-plus-append loop, and aggregate/regrid into per-column
//!   folds that never materialize records;
//! * evaluates subsample's per-dimension conditions once per distinct
//!   index value instead of once per cell.
//!
//! # The bail-out contract
//!
//! Every entry point returns `Option`: `None` means "this chunk or this
//! expression needs the value-at-a-time path", and the caller falls back
//! to the original per-cell loop. The batch evaluator only accepts
//! expression forms that are **provably error-free at every lane** for the
//! column types involved, because it evaluates all `capacity()` lanes —
//! including empty cells, whose column slots may hold stale values — and
//! only consumes results at present lanes. Anything that could error
//! (UDF calls, string/nested operands, modulo on floats, comparisons
//! where a relevant lane holds NaN, type-mismatched writes) bails, so the
//! fallback reproduces the serial engine's exact error behavior. Uncertain
//! columns are admitted **only** as direct comparison operands (compared
//! by mean, exactly like [`Scalar::compare`](crate::value::Scalar)); any
//! arithmetic on them bails because §2.13 error propagation changes the
//! result type.
//!
//! The caller is one of the chunk drivers in [`ops`](super): `map_chunks`
//! tries a kernel's batch body per chunk and counts the chunks that took
//! each path on the kernel span (`batch_chunks`, `fallback_chunks`).
//! Byte-identity with the per-cell path is enforced by the conformance
//! harness (six engines) and by `tests/parallel_equivalence.rs`, which also
//! asserts that dense input takes the batch path.

use crate::bitvec::BitVec;
use crate::chunk::{Chunk, Column};
use crate::error::Result;
use crate::expr::{BinOp, Expr, UnaryOp};
use crate::geometry::{Coords, HyperRect};
use crate::ops::structural::{DimCond, DimPredicate};
use crate::schema::{ArraySchema, AttrType};
use crate::udf::{AggState, AggregateFn};
use crate::value::{Scalar, ScalarType};
use std::collections::BTreeMap;

/// Typed value vector spanning every lane (linear offset) of one chunk.
enum BData {
    I64(Vec<i64>),
    F64(Vec<f64>),
    Bool(Vec<bool>),
}

/// A batch evaluation result: one value per lane plus a NULL bitmap.
///
/// `uncertain` marks vectors whose `F64` data are the *means* of an
/// uncertain column; only comparisons may consume them (comparison is
/// defined on means), everything else bails.
struct BVec {
    data: BData,
    nulls: BitVec,
    uncertain: bool,
}

impl BVec {
    fn exact(data: BData, nulls: BitVec) -> BVec {
        BVec {
            data,
            nulls,
            uncertain: false,
        }
    }
}

/// Lane values of dimension `d`: `low[d] + (lane / stride) % extent`,
/// matching [`HyperRect::delinearize`] row-major order.
fn dim_lanes(rect: &HyperRect, d: usize) -> Vec<i64> {
    let n = rect.volume() as usize;
    let mut stride = 1usize;
    for e in d + 1..rect.rank() {
        stride *= rect.len(e) as usize;
    }
    let extent = rect.len(d) as usize;
    let lo = rect.low[d];
    (0..n)
        .map(|i| lo + ((i / stride) % extent) as i64)
        .collect()
}

/// Evaluates `expr` over every lane of a dense chunk. `None` = bail to the
/// per-cell path (see the module docs for the bail-out contract).
fn eval_batch(
    expr: &Expr,
    schema: &ArraySchema,
    cols: &[Column],
    rect: &HyperRect,
    present: &BitVec,
) -> Option<BVec> {
    let n = rect.volume() as usize;
    match expr {
        Expr::Attr(name) => {
            let i = schema.attr_index(name)?;
            match cols.get(i)? {
                Column::Int64 { data, nulls } => {
                    Some(BVec::exact(BData::I64(data.clone()), nulls.clone()))
                }
                Column::Float64 { data, nulls } => {
                    Some(BVec::exact(BData::F64(data.clone()), nulls.clone()))
                }
                Column::Bool { data, nulls } => {
                    Some(BVec::exact(BData::Bool(data.clone()), nulls.clone()))
                }
                Column::Uncertain { means, nulls, .. } => Some(BVec {
                    data: BData::F64(means.clone()),
                    nulls: nulls.clone(),
                    uncertain: true,
                }),
                Column::Str { .. } | Column::Nested { .. } => None,
            }
        }
        Expr::Dim(name) => {
            let d = schema.dim_index(name)?;
            Some(BVec::exact(
                BData::I64(dim_lanes(rect, d)),
                BitVec::filled(n, false),
            ))
        }
        Expr::Const(s) => {
            let data = match s {
                Scalar::Int64(v) => BData::I64(vec![*v; n]),
                Scalar::Float64(v) => BData::F64(vec![*v; n]),
                Scalar::Bool(v) => BData::Bool(vec![*v; n]),
                Scalar::String(_) | Scalar::Uncertain(_) => return None,
            };
            Some(BVec::exact(data, BitVec::filled(n, false)))
        }
        Expr::IsNull(inner) => {
            // IS NULL never errors and only needs the NULL bitmap, so any
            // column type is admissible when probed directly.
            let bits: Vec<bool> = if let Expr::Attr(name) = inner.as_ref() {
                let i = schema.attr_index(name)?;
                let col = cols.get(i)?;
                (0..n).map(|idx| col.is_null(idx)).collect()
            } else {
                let v = eval_batch(inner, schema, cols, rect, present)?;
                (0..n).map(|idx| v.nulls.get(idx)).collect()
            };
            Some(BVec::exact(BData::Bool(bits), BitVec::filled(n, false)))
        }
        Expr::Unary(op, e) => {
            let v = eval_batch(e, schema, cols, rect, present)?;
            if v.uncertain {
                return None; // §2.13 propagation changes the result type
            }
            match (op, v.data) {
                (UnaryOp::Neg, BData::I64(d)) => Some(BVec::exact(
                    BData::I64(d.iter().map(|x| x.wrapping_neg()).collect()),
                    v.nulls,
                )),
                (UnaryOp::Neg, BData::F64(d)) => Some(BVec::exact(
                    BData::F64(d.iter().map(|x| -x).collect()),
                    v.nulls,
                )),
                (UnaryOp::Not, BData::Bool(d)) => Some(BVec::exact(
                    BData::Bool(d.iter().map(|x| !x).collect()),
                    v.nulls,
                )),
                _ => None, // Neg on bool / Not on numeric error serially
            }
        }
        Expr::Binary(op, a, b) => {
            // The serial evaluator computes both operands unconditionally
            // (no short-circuit), so evaluating both here is equivalent.
            let va = eval_batch(a, schema, cols, rect, present)?;
            let vb = eval_batch(b, schema, cols, rect, present)?;
            match op {
                BinOp::And | BinOp::Or => eval_logic_batch(*op, va, vb),
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    eval_cmp_batch(*op, va, vb, present)
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                    eval_arith_batch(*op, va, vb)
                }
            }
        }
        // UDF calls can error per lane; NULL literals are rare enough that
        // the per-cell path handles them.
        Expr::Func(_, _) | Expr::Null => None,
    }
}

/// Kleene three-valued AND/OR over boolean vectors.
fn eval_logic_batch(op: BinOp, va: BVec, vb: BVec) -> Option<BVec> {
    if va.uncertain || vb.uncertain {
        return None;
    }
    let (BData::Bool(a), BData::Bool(b)) = (&va.data, &vb.data) else {
        return None; // non-boolean operands error serially (to_tri)
    };
    let n = a.len();
    let mut data = vec![false; n];
    let mut nulls = BitVec::filled(n, false);
    for i in 0..n {
        let ta = if va.nulls.get(i) { None } else { Some(a[i]) };
        let tb = if vb.nulls.get(i) { None } else { Some(b[i]) };
        let r = match op {
            BinOp::And => match (ta, tb) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            _ => match (ta, tb) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
        };
        match r {
            Some(v) => data[i] = v,
            None => nulls.set(i, true),
        }
    }
    Some(BVec::exact(BData::Bool(data), nulls))
}

/// True iff `ord` (of `a` vs `b`) satisfies the comparison operator —
/// the exact mapping used by the serial `eval_cmp`.
#[inline]
fn cmp_holds(op: BinOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Eq => ord == Equal,
        BinOp::Ne => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        // Only comparison operators reach this helper.
        _ => ord != Less,
    }
}

/// Vector comparison with [`Scalar::compare`] semantics: integer pairs
/// compare exactly, booleans order `false < true`, every other numeric mix
/// compares as `f64`. A NaN at any lane that is present and non-null on
/// both sides bails (the serial engine errors there).
fn eval_cmp_batch(op: BinOp, va: BVec, vb: BVec, present: &BitVec) -> Option<BVec> {
    let n = va.nulls.len();
    let mut nulls = va.nulls.clone();
    nulls.union_with(&vb.nulls);
    let mut data = vec![false; n];
    match (&va.data, &vb.data) {
        (BData::I64(a), BData::I64(b)) => {
            for i in 0..n {
                data[i] = cmp_holds(op, a[i].cmp(&b[i]));
            }
        }
        (BData::Bool(a), BData::Bool(b)) => {
            for i in 0..n {
                data[i] = cmp_holds(op, a[i].cmp(&b[i]));
            }
        }
        (BData::Bool(_), _) | (_, BData::Bool(_)) => return None, // errors serially
        _ => {
            let widen = |d: &BData| -> Vec<f64> {
                match d {
                    BData::I64(v) => v.iter().map(|&x| x as f64).collect(),
                    BData::F64(v) => v.clone(),
                    BData::Bool(_) => Vec::new(), // unreachable: handled above
                }
            };
            let a = widen(&va.data);
            let b = widen(&vb.data);
            for i in present.iter_ones() {
                if !nulls.get(i) && (a[i].is_nan() || b[i].is_nan()) {
                    return None; // serial: partial_cmp → None → error
                }
            }
            for i in 0..n {
                // Non-NaN at every consumed lane, so total order applies.
                let ord = if a[i] < b[i] {
                    std::cmp::Ordering::Less
                } else if a[i] > b[i] {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                };
                data[i] = cmp_holds(op, ord);
            }
        }
    }
    Some(BVec::exact(BData::Bool(data), nulls))
}

/// Vector arithmetic mirroring the serial `eval_arith`: int ⊕ int stays
/// integral (wrapping, division by zero → NULL), any float operand widens
/// both sides to `f64`, modulo is integer-only, uncertain operands bail.
fn eval_arith_batch(op: BinOp, va: BVec, vb: BVec) -> Option<BVec> {
    if va.uncertain || vb.uncertain {
        return None;
    }
    let n = va.nulls.len();
    let mut nulls = va.nulls.clone();
    nulls.union_with(&vb.nulls);
    if let (BData::I64(a), BData::I64(b)) = (&va.data, &vb.data) {
        let mut data = vec![0i64; n];
        match op {
            BinOp::Add => {
                for i in 0..n {
                    data[i] = a[i].wrapping_add(b[i]);
                }
            }
            BinOp::Sub => {
                for i in 0..n {
                    data[i] = a[i].wrapping_sub(b[i]);
                }
            }
            BinOp::Mul => {
                for i in 0..n {
                    data[i] = a[i].wrapping_mul(b[i]);
                }
            }
            _ => {
                // Div / Mod: zero divisor yields NULL, like the serial path.
                for i in 0..n {
                    if b[i] == 0 {
                        nulls.set(i, true);
                    } else if !nulls.get(i) {
                        data[i] = if op == BinOp::Div {
                            a[i].wrapping_div(b[i])
                        } else {
                            a[i].wrapping_rem(b[i])
                        };
                    }
                }
            }
        }
        return Some(BVec::exact(BData::I64(data), nulls));
    }
    if op == BinOp::Mod {
        return None; // "modulo requires integers" serially
    }
    let widen = |d: &BData| -> Option<Vec<f64>> {
        match d {
            BData::I64(v) => Some(v.iter().map(|&x| x as f64).collect()),
            BData::F64(v) => Some(v.clone()),
            BData::Bool(_) => None, // non-numeric operand errors serially
        }
    };
    let a = widen(&va.data)?;
    let b = widen(&vb.data)?;
    let mut data = vec![0.0f64; n];
    match op {
        BinOp::Add => {
            for i in 0..n {
                data[i] = a[i] + b[i];
            }
        }
        BinOp::Sub => {
            for i in 0..n {
                data[i] = a[i] - b[i];
            }
        }
        BinOp::Mul => {
            for i in 0..n {
                data[i] = a[i] * b[i];
            }
        }
        _ => {
            for i in 0..n {
                if b[i] == 0.0 {
                    nulls.set(i, true);
                } else {
                    data[i] = a[i] / b[i];
                }
            }
        }
    }
    Some(BVec::exact(BData::F64(data), nulls))
}

/// Batch filter over one dense chunk (§2.2.2): evaluates the predicate
/// column-at-a-time into a selection vector, then nulls out the records of
/// present cells that fail (or NULL) it with one word-level bitmap union
/// per column. The presence bitmap is untouched — failing cells stay
/// present as all-NULL records, exactly like the per-cell path.
pub(crate) fn filter_columns(chunk: &Chunk, schema: &ArraySchema, pred: &Expr) -> Option<Chunk> {
    let cols = chunk.columns()?;
    let present = chunk.present_bitmap()?;
    let v = eval_batch(pred, schema, cols, chunk.rect(), present)?;
    if v.uncertain {
        return None;
    }
    let BData::Bool(keep) = &v.data else {
        return None; // non-boolean predicates error serially
    };
    // Selection vector: present ∧ ¬(keep ∧ ¬null) = the cells to null out.
    let n = chunk.capacity();
    let mut null_out = BitVec::filled(n, false);
    for idx in present.iter_ones() {
        if v.nulls.get(idx) || !keep[idx] {
            null_out.set(idx, true);
        }
    }
    let mut out_cols = cols.to_vec();
    for col in &mut out_cols {
        col.null_out(&null_out);
    }
    Chunk::from_parts(
        chunk.rect().clone(),
        chunk.attr_types().to_vec(),
        present.clone(),
        out_cols,
    )
    .ok() // analyze: allow(R4, None means "fall back to the per-cell loop", which reproduces the exact error)
}

/// Batch apply over one dense chunk: fused expression evaluation plus
/// column append. Bails when the expression result cannot be written to
/// the declared output type without the per-cell validation path (whose
/// errors must surface exactly).
pub(crate) fn apply_columns(
    chunk: &Chunk,
    schema: &ArraySchema,
    expr: &Expr,
    out_types: &[AttrType],
) -> Option<Chunk> {
    let cols = chunk.columns()?;
    let present = chunk.present_bitmap()?;
    let v = eval_batch(expr, schema, cols, chunk.rect(), present)?;
    if v.uncertain {
        return None;
    }
    let new_col = match (v.data, out_types.last()?) {
        (BData::I64(d), AttrType::Scalar(ScalarType::Int64)) => Column::Int64 {
            data: d,
            nulls: v.nulls,
        },
        // Ints widen into float columns, mirroring per-cell `set_scalar`.
        (BData::I64(d), AttrType::Scalar(ScalarType::Float64)) => Column::Float64 {
            data: d.iter().map(|&x| x as f64).collect(),
            nulls: v.nulls,
        },
        (BData::F64(d), AttrType::Scalar(ScalarType::Float64)) => Column::Float64 {
            data: d,
            nulls: v.nulls,
        },
        (BData::Bool(d), AttrType::Scalar(ScalarType::Bool)) => Column::Bool {
            data: d,
            nulls: v.nulls,
        },
        _ => return None,
    };
    let mut out_cols = cols.to_vec();
    out_cols.push(new_col);
    Chunk::from_parts(
        chunk.rect().clone(),
        out_types.to_vec(),
        present.clone(),
        out_cols,
    )
    .ok() // analyze: allow(R4, None means "fall back to the per-cell loop", which reproduces the exact error)
}

/// Batch project over one dense chunk: a pure column subset — clones the
/// kept value vectors and the presence bitmap, touching no cell.
pub(crate) fn project_columns(
    chunk: &Chunk,
    idxs: &[usize],
    out_types: &[AttrType],
) -> Option<Chunk> {
    let cols = chunk.columns()?;
    let present = chunk.present_bitmap()?;
    let out_cols: Vec<Column> = idxs
        .iter()
        .map(|&i| cols.get(i).cloned())
        .collect::<Option<_>>()?;
    Chunk::from_parts(
        chunk.rect().clone(),
        out_types.to_vec(),
        present.clone(),
        out_cols,
    )
    .ok() // analyze: allow(R4, None means "fall back to the per-cell loop", which reproduces the exact error)
}

/// Batch subsample over one dense chunk: evaluates each dimension
/// condition once per distinct index value into per-dimension allow
/// tables, then visits only the cells they allow. Returns the output
/// chunk and the number of present cells visited. Bails on sparse
/// chunks and on `Fn` conditions (UDFs need the registry and can error).
pub(crate) fn subsample_columns(
    chunk: &Chunk,
    schema: &ArraySchema,
    pred: &DimPredicate,
) -> Option<(Chunk, u64)> {
    let cols = chunk.columns()?;
    let present = chunk.present_bitmap()?;
    if pred
        .conds()
        .iter()
        .any(|(_, c)| matches!(c, DimCond::Fn(_)))
    {
        return None;
    }
    let rect = chunk.rect();
    let rank = rect.rank();
    let mut allowed: Vec<Vec<bool>> = (0..rank)
        .map(|d| vec![true; rect.len(d) as usize])
        .collect();
    for (dim, cond) in pred.conds() {
        let d = schema.dim_index(dim)?;
        for (o, slot) in allowed[d].iter_mut().enumerate() {
            if *slot {
                // Registry-free conditions never error (Fn bailed above).
                // analyze: allow(R4, None means "fall back to the per-cell loop", which reproduces the exact error)
                *slot = cond.matches(rect.low[d] + o as i64, None).ok()?;
            }
        }
    }
    // The row-major offsets every dimension allows: only these cells are
    // visited, so a slice touches its own cells and no others.
    let mut idxs = vec![0usize];
    for allow in &allowed {
        let offs: Vec<usize> = (0..allow.len()).filter(|&o| allow[o]).collect();
        idxs = idxs
            .iter()
            .flat_map(|&base| offs.iter().map(move |&o| base * allow.len() + o))
            .collect();
    }
    let mut mask = BitVec::filled(chunk.capacity(), false);
    let mut cells = 0u64;
    for idx in idxs {
        if present.get(idx) {
            cells += 1;
            mask.set(idx, true);
        }
    }
    let oc = Chunk::from_parts(
        rect.clone(),
        chunk.attr_types().to_vec(),
        mask,
        cols.to_vec(),
    )
    .ok()?;
    Some((oc, cells))
}

/// Per-chunk grouped aggregate fold reading values column-direct (no
/// record materialization on dense chunks). Each aggregate state receives
/// its updates in ascending row-major order — the same sequence as the
/// value-at-a-time path — so partials are bitwise identical.
pub(crate) fn fold_groups_columnar<K: Fn(&[i64]) -> Coords>(
    chunk: &Chunk,
    attr_idxs: &[usize],
    agg: &dyn AggregateFn,
    key_of: K,
    local: &mut BTreeMap<Coords, Vec<Box<dyn AggState>>>,
) -> Result<u64> {
    let n_states = attr_idxs.len();
    let mut cells = 0u64;
    if let Some(cols) = chunk.columns() {
        for (coords, idx) in chunk.iter_present() {
            cells += 1;
            let states = local
                .entry(key_of(&coords))
                .or_insert_with(|| (0..n_states).map(|_| agg.create()).collect());
            for (si, &ai) in attr_idxs.iter().enumerate() {
                states[si].update(&cols[ai].get(idx))?;
            }
        }
    } else {
        for (coords, idx) in chunk.iter_present() {
            cells += 1;
            let rec = chunk.record_at(idx);
            let states = local
                .entry(key_of(&coords))
                .or_insert_with(|| (0..n_states).map(|_| agg.create()).collect());
            for (si, &ai) in attr_idxs.iter().enumerate() {
                states[si].update(&rec[ai])?;
            }
        }
    }
    Ok(cells)
}

/// Ungrouped per-chunk aggregate fold: one pass per aggregated column over
/// the presence bitmap — the true per-column fold. Safe because each state
/// only observes its own column, in ascending offset order either way.
pub(crate) fn fold_ungrouped_columnar(
    chunk: &Chunk,
    attr_idxs: &[usize],
    states: &mut [Box<dyn AggState>],
) -> Result<u64> {
    if let (Some(cols), Some(present)) = (chunk.columns(), chunk.present_bitmap()) {
        for (si, &ai) in attr_idxs.iter().enumerate() {
            let col = &cols[ai];
            for idx in present.iter_ones() {
                states[si].update(&col.get(idx))?;
            }
        }
        Ok(present.count_ones() as u64)
    } else {
        let mut cells = 0u64;
        for (_, idx) in chunk.iter_present() {
            cells += 1;
            for (si, &ai) in attr_idxs.iter().enumerate() {
                states[si].update(&chunk.value_at(ai, idx))?;
            }
        }
        Ok(cells)
    }
}
