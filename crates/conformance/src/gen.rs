//! The seeded case generator.
//!
//! One `u64` seed fully determines a [`Case`]: schema (incl. unbounded `*`
//! dimensions and nested cells), data (nulls, uncertain values), and an
//! operator pipeline drawn from [`OP_TABLE`].
//!
//! # Determinism by construction
//!
//! Every float the generator emits is a dyadic rational `k × 0.25` with
//! `|k| ≤ 4096`. Sums, differences, and products of such values are exact
//! in `f64`, so *any* summation order produces identical bits — the
//! chunk-order partial merges of the array engines and the row-order folds
//! of the relational oracle must agree byte-for-byte, and a mismatch is a
//! real engine bug rather than floating-point noise. `-0.0` can never
//! arise (no value is a negative zero and `apply` multipliers are
//! positive), so min/max ties always tie on bit-identical values.
//!
//! Three deliberate restrictions keep order-sensitivity out of the *spec*
//! (not the engines): `min`/`max` are not generated over `uncertain`
//! attributes (ties compare by mean but carry distinct sigmas, so
//! "keep-first" depends on enumeration order); joins appear at most
//! once per pipeline (the `_r` attribute renaming is not idempotent); and
//! `sum`/`avg` are never re-applied to an attribute that already passed
//! through `avg` — `avg` divides by an arbitrary group count, which
//! leaves the dyadic lattice, and summing such values is
//! association-sensitive (the chunk engines merge per-chunk partials,
//! `a + (b + c)`, while the relational fold is linear, `(a + b) + c`;
//! seed 1771 produced a one-ulp divergence exactly this way).

use crate::case::{AttrKind, AttrSpec, Case, CellValue, Cmp, DimSpec, OpSpec};
use crate::optable::OP_TABLE;
use scidb_core::rng::SmallRng;
use std::collections::BTreeSet;

/// All aggregates the generator can draw from; per-site gates below
/// restrict the choice by attribute kind and lattice exactness.
const ALL_AGGS: [&str; 5] = ["count", "sum", "min", "max", "avg"];

/// Maximum pipeline length.
pub const MAX_OPS: usize = 5;
/// Maximum generated cells in the base array.
pub const MAX_CELLS: usize = 48;

/// Simulated shape of the current intermediate result, mirroring the
/// engines' output-schema rules so generated ops always reference live
/// names.
#[derive(Debug, Clone)]
struct Shape {
    dims: Vec<(String, Option<i64>)>,
    attrs: Vec<(String, AttrKind)>,
    cells: usize,
    next_attr_id: usize,
    /// Attribute names whose values may have left the exact dyadic
    /// lattice (downstream of an `avg`); `sum`/`avg` over these would be
    /// association-sensitive and must not be generated.
    inexact: BTreeSet<String>,
}

impl Shape {
    fn numeric_attrs(&self) -> Vec<usize> {
        self.attrs
            .iter()
            .enumerate()
            .filter(|(_, (_, k))| matches!(k, AttrKind::Int64 | AttrKind::Float64))
            .map(|(i, _)| i)
            .collect()
    }

    fn aggregatable_attrs(&self) -> Vec<usize> {
        self.attrs
            .iter()
            .enumerate()
            .filter(|(_, (_, k))| *k != AttrKind::Nested)
            .map(|(i, _)| i)
            .collect()
    }

    fn all_bounded(&self) -> bool {
        self.dims.iter().all(|(_, u)| u.is_some())
    }

    fn bounded_volume(&self) -> Option<i64> {
        self.dims.iter().map(|(_, u)| *u).product::<Option<i64>>()
    }

    fn has_join_names(&self) -> bool {
        self.attrs.iter().any(|(n, _)| n.ends_with("_r"))
            || self.dims.iter().any(|(n, _)| n.ends_with("_r"))
    }
}

fn dyadic(rng: &mut SmallRng, k_range: i64) -> f64 {
    rng.gen_range(-k_range..=k_range) as f64 * 0.25
}

fn gen_value(rng: &mut SmallRng, kind: AttrKind) -> CellValue {
    if rng.gen_bool(0.12) {
        return CellValue::Null;
    }
    match kind {
        AttrKind::Int64 => CellValue::Int(rng.gen_range(-64..=64)),
        AttrKind::Float64 => CellValue::Float(dyadic(rng, 4096)),
        AttrKind::Uncertain => {
            CellValue::Uncertain(dyadic(rng, 4096), rng.gen_range(0..=64) as f64 * 0.25)
        }
        AttrKind::Nested => CellValue::Nested(
            (0..crate::case::NESTED_LEN)
                .map(|_| {
                    if rng.gen_bool(0.25) {
                        None
                    } else {
                        Some(rng.gen_range(-9..=9))
                    }
                })
                .collect(),
        ),
    }
}

/// Literal for a predicate over `kind`, on the same lattice as the data so
/// exact boundary hits (`v == lit`) occur with useful probability.
fn gen_lit(rng: &mut SmallRng, kind: AttrKind) -> f64 {
    match kind {
        AttrKind::Int64 => rng.gen_range(-64..=64) as f64,
        _ => dyadic(rng, 4096),
    }
}

fn gen_cmp(rng: &mut SmallRng) -> Cmp {
    match rng.gen_range(0..4) {
        0 => Cmp::Gt,
        1 => Cmp::Lt,
        2 => Cmp::Ge,
        _ => Cmp::Le,
    }
}

/// Generates one op valid for `shape`, updating `shape` to the op's
/// output; returns `None` if this op kind is not applicable right now.
fn gen_op(rng: &mut SmallRng, name: &str, shape: &mut Shape) -> Option<OpSpec> {
    match name {
        "subsample" => {
            let d = rng.gen_range(0..shape.dims.len());
            let u = shape.dims[d].1.unwrap_or(6);
            let lo = rng.gen_range(1..=u);
            let hi = rng.gen_range(lo..=u);
            Some(OpSpec::Subsample {
                dim: shape.dims[d].0.clone(),
                lo,
                hi,
            })
        }
        "filter" => {
            let nums = shape.numeric_attrs();
            if nums.is_empty() {
                return None;
            }
            let i = nums[rng.gen_range(0..nums.len())];
            let kind = shape.attrs[i].1;
            Some(OpSpec::Filter {
                attr: shape.attrs[i].0.clone(),
                cmp: gen_cmp(rng),
                lit: gen_lit(rng, kind),
            })
        }
        "apply" => {
            let nums = shape.numeric_attrs();
            if nums.is_empty() || shape.attrs.len() >= 6 {
                return None;
            }
            let i = nums[rng.gen_range(0..nums.len())];
            let new = format!("a{}", shape.next_attr_id);
            shape.next_attr_id += 1;
            // Positive dyadic multipliers: products stay exact and -0.0
            // cannot appear.
            let mul = [0.25, 0.5, 1.5, 2.0][rng.gen_range(0..4usize)];
            let add = rng.gen_range(-16..=16) as f64 * 0.25;
            let spec = OpSpec::Apply {
                new: new.clone(),
                src: shape.attrs[i].0.clone(),
                mul,
                add,
            };
            if shape.inexact.contains(&shape.attrs[i].0) {
                shape.inexact.insert(new.clone());
            }
            shape.attrs.push((new, AttrKind::Float64));
            Some(spec)
        }
        "project" => {
            if shape.attrs.len() < 2 {
                return None;
            }
            let mut keep: Vec<usize> = (0..shape.attrs.len())
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            if keep.is_empty() {
                keep.push(rng.gen_range(0..shape.attrs.len()));
            }
            let names: Vec<String> = keep.iter().map(|&i| shape.attrs[i].0.clone()).collect();
            shape.attrs = keep.iter().map(|&i| shape.attrs[i].clone()).collect();
            Some(OpSpec::Project { keep: names })
        }
        "aggregate" => {
            let eligible = shape.aggregatable_attrs();
            if eligible.is_empty() {
                return None;
            }
            let i = eligible[rng.gen_range(0..eligible.len())];
            let (attr, kind) = shape.attrs[i].clone();
            // min/max over uncertain values tie by mean while carrying
            // distinct sigmas — keep-first would be order-sensitive; and
            // summing off-lattice values is association-sensitive.
            let off_lattice = shape.inexact.contains(&attr);
            let aggs: Vec<&str> = ALL_AGGS
                .iter()
                .copied()
                .filter(|a| match *a {
                    "min" | "max" => kind != AttrKind::Uncertain,
                    "sum" | "avg" => !off_lattice,
                    _ => true,
                })
                .collect();
            let agg = aggs[rng.gen_range(0..aggs.len())];
            let gdims: Vec<usize> = (0..shape.dims.len())
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            let dims: Vec<String> = gdims.iter().map(|&d| shape.dims[d].0.clone()).collect();
            let out_kind = match agg {
                "count" => AttrKind::Int64,
                "avg" => AttrKind::Float64,
                _ => kind,
            };
            let spec = OpSpec::Aggregate {
                dims: dims.clone(),
                agg: agg.into(),
                attr: attr.clone(),
            };
            let out_name = format!("{agg}_{attr}");
            shape.inexact.clear();
            // avg leaves the lattice; min/max copy whatever the input was.
            if agg == "avg" || (matches!(agg, "min" | "max") && off_lattice) {
                shape.inexact.insert(out_name.clone());
            }
            shape.attrs = vec![(out_name, out_kind)];
            shape.dims = if gdims.is_empty() {
                vec![("all".into(), Some(1))]
            } else {
                gdims.iter().map(|&d| shape.dims[d].clone()).collect()
            };
            shape.cells = shape.cells.min(64);
            Some(spec)
        }
        "regrid" => {
            if !shape.all_bounded() || shape.attrs.iter().any(|(_, k)| *k == AttrKind::Nested) {
                return None;
            }
            let has_uncertain = shape.attrs.iter().any(|(_, k)| *k == AttrKind::Uncertain);
            // Regrid applies the agg to every attribute, so the lattice
            // gate considers all of them.
            let any_off_lattice = shape.attrs.iter().any(|(n, _)| shape.inexact.contains(n));
            let aggs: Vec<&str> = ALL_AGGS
                .iter()
                .copied()
                .filter(|a| match *a {
                    "min" | "max" => !has_uncertain,
                    "sum" | "avg" => !any_off_lattice,
                    _ => true,
                })
                .collect();
            let agg = aggs[rng.gen_range(0..aggs.len())];
            let factors: Vec<i64> = shape
                .dims
                .iter()
                .map(|(_, u)| rng.gen_range(1..=3.min(u.unwrap_or(1))))
                .collect();
            for (i, (_, u)) in shape.dims.iter_mut().enumerate() {
                let b = u.expect("all bounded checked above");
                *u = Some((b + factors[i] - 1) / factors[i]);
            }
            for (_, k) in shape.attrs.iter_mut() {
                *k = match agg {
                    "count" => AttrKind::Int64,
                    "avg" => AttrKind::Float64,
                    _ => *k,
                };
            }
            match agg {
                "avg" => {
                    shape.inexact = shape.attrs.iter().map(|(n, _)| n.clone()).collect();
                }
                "count" => shape.inexact.clear(),
                // sum was gated on all-exact inputs; min/max copy values,
                // so exactness is unchanged.
                _ => {}
            }
            Some(OpSpec::Regrid {
                factors,
                agg: agg.into(),
            })
        }
        "sjoin" => {
            if shape.has_join_names() || shape.attrs.len() > 3 {
                return None;
            }
            let rs: Vec<(String, AttrKind)> = shape
                .attrs
                .iter()
                .map(|(n, k)| (format!("{n}_r"), *k))
                .collect();
            let r_inexact: Vec<String> = shape.inexact.iter().map(|n| format!("{n}_r")).collect();
            shape.inexact.extend(r_inexact);
            shape.attrs.extend(rs);
            Some(OpSpec::Sjoin)
        }
        "cjoin" => {
            if shape.has_join_names()
                || shape.dims.len() > 2
                || shape.attrs.len() > 2
                || shape.cells > 7
            {
                return None;
            }
            let nums = shape.numeric_attrs();
            if nums.is_empty() {
                return None;
            }
            let i = nums[rng.gen_range(0..nums.len())];
            let kind = shape.attrs[i].1;
            let spec = OpSpec::Cjoin {
                attr: shape.attrs[i].0.clone(),
                cmp: gen_cmp(rng),
                lit: gen_lit(rng, kind),
            };
            let rdims: Vec<(String, Option<i64>)> = shape
                .dims
                .iter()
                .map(|(n, u)| (format!("{n}_r"), *u))
                .collect();
            shape.dims.extend(rdims);
            let rattrs: Vec<(String, AttrKind)> = shape
                .attrs
                .iter()
                .map(|(n, k)| (format!("{n}_r"), *k))
                .collect();
            let r_inexact: Vec<String> = shape.inexact.iter().map(|n| format!("{n}_r")).collect();
            shape.inexact.extend(r_inexact);
            shape.attrs.extend(rattrs);
            shape.cells *= shape.cells.max(1);
            Some(spec)
        }
        "concat" => {
            if shape.cells > 150 {
                return None;
            }
            let d = rng.gen_range(0..shape.dims.len());
            let spec = OpSpec::Concat {
                dim: shape.dims[d].0.clone(),
            };
            if let Some(u) = shape.dims[d].1 {
                shape.dims[d].1 = Some(u * 2);
            }
            shape.cells *= 2;
            Some(spec)
        }
        "reshape" => {
            let vol = shape.bounded_volume()?;
            if vol > 4096 {
                return None;
            }
            shape.dims = vec![("z".into(), Some(vol))];
            Some(OpSpec::Reshape)
        }
        other => unreachable!("op table entry '{other}' not handled"),
    }
}

/// Picks an op kind by table weight.
fn pick_op_name(rng: &mut SmallRng) -> &'static str {
    let total: u32 = OP_TABLE.iter().map(|e| e.weight).sum();
    let mut roll = rng.gen_range(0..total);
    for e in OP_TABLE {
        if roll < e.weight {
            return e.name;
        }
        roll -= e.weight;
    }
    OP_TABLE[0].name
}

/// Generates the case for `seed`.
pub fn generate(seed: u64) -> Case {
    let mut rng = SmallRng::seed_from_u64(seed);

    let rank = rng.gen_range(1..=3);
    let dims: Vec<DimSpec> = (0..rank)
        .map(|i| {
            let unbounded = rng.gen_bool(0.2);
            let upper = if unbounded {
                None
            } else {
                Some(rng.gen_range(2..=8))
            };
            let chunk = rng.gen_range(1..=4.min(upper.unwrap_or(4)));
            DimSpec {
                name: format!("d{i}"),
                upper,
                chunk,
            }
        })
        .collect();

    let n_attrs = rng.gen_range(1..=3);
    let attrs: Vec<AttrSpec> = (0..n_attrs)
        .map(|i| {
            let kind = match rng.gen_range(0..10) {
                0..=3 => AttrKind::Float64,
                4..=6 => AttrKind::Int64,
                7..=8 => AttrKind::Uncertain,
                _ => AttrKind::Nested,
            };
            AttrSpec {
                name: format!("a{i}"),
                kind,
            }
        })
        .collect();

    // ~10% of cases force one attribute all-NULL, so the batch kernels'
    // null-column handling (all-null aggregate folds, NULL predicate
    // lanes, null-bitmap scatter) is exercised end to end.
    let all_null_attr: Option<usize> = if rng.gen_bool(0.1) {
        Some(rng.gen_range(0..n_attrs))
    } else {
        None
    };

    // Sample distinct coordinates inside the (virtual) box; unbounded dims
    // draw from 1..=6 so high-water marks vary per seed. A slice of seeds
    // is pinned to degenerate sizes — empty arrays and single-cell chunks
    // are where selection-vector and fold edge cases live.
    let extents: Vec<i64> = dims.iter().map(|d| d.upper.unwrap_or(6)).collect();
    let vol: i64 = extents.iter().product::<i64>().min(MAX_CELLS as i64 * 4);
    let target = if rng.gen_bool(0.12) {
        rng.gen_range(0..=1)
    } else {
        rng.gen_range(0..=(vol.min(MAX_CELLS as i64)) as usize)
    };
    let mut coords_set: BTreeSet<Vec<i64>> = BTreeSet::new();
    for _ in 0..target * 2 {
        if coords_set.len() >= target {
            break;
        }
        let c: Vec<i64> = extents.iter().map(|&e| rng.gen_range(1..=e)).collect();
        coords_set.insert(c);
    }
    let cells: Vec<(Vec<i64>, Vec<CellValue>)> = coords_set
        .into_iter()
        .map(|c| {
            let rec = attrs
                .iter()
                .enumerate()
                .map(|(ai, a)| {
                    if Some(ai) == all_null_attr {
                        CellValue::Null
                    } else {
                        gen_value(&mut rng, a.kind)
                    }
                })
                .collect();
            (c, rec)
        })
        .collect();

    let mut shape = Shape {
        dims: dims.iter().map(|d| (d.name.clone(), d.upper)).collect(),
        attrs: attrs.iter().map(|a| (a.name.clone(), a.kind)).collect(),
        cells: cells.len(),
        next_attr_id: n_attrs,
        inexact: BTreeSet::new(),
    };

    let n_ops = rng.gen_range(1..=MAX_OPS);
    let mut ops = Vec::with_capacity(n_ops);
    while ops.len() < n_ops {
        let mut placed = false;
        for _ in 0..20 {
            let name = pick_op_name(&mut rng);
            if let Some(op) = gen_op(&mut rng, name, &mut shape) {
                ops.push(op);
                placed = true;
                break;
            }
        }
        if !placed {
            // Nothing applicable but subsample always is; fall back so the
            // pipeline still reaches its length.
            if let Some(op) = gen_op(&mut rng, "subsample", &mut shape) {
                ops.push(op);
            } else {
                break;
            }
        }
    }

    Case {
        seed,
        comment: format!("generated from seed {seed}"),
        dims,
        attrs,
        cells,
        ops,
        grid_fault: rng.gen_bool(0.5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42);
        let b = generate(42);
        assert_eq!(a, b);
        assert_ne!(generate(42), generate(43));
    }

    #[test]
    fn generated_cases_build_valid_inputs() {
        for seed in 0..200 {
            let c = generate(seed);
            let arr = c.build_input().unwrap_or_else(|e| {
                panic!("seed {seed}: input failed to build: {e}");
            });
            assert_eq!(arr.cell_count(), c.cells.len(), "seed {seed}");
            assert!(!c.ops.is_empty(), "seed {seed}");
        }
    }

    /// The generator must stay out of the engine's reserved `system.`
    /// namespace: those arrays are live telemetry, so a case defined over
    /// them could never replay byte-identically. Every identifier a case
    /// carries — and every fixed name the backends mint for case arrays —
    /// must fail `is_system_array`.
    #[test]
    fn generated_names_never_enter_the_reserved_system_namespace() {
        for seed in 0..200 {
            let c = generate(seed);
            for name in c
                .dims
                .iter()
                .map(|d| d.name.as_str())
                .chain(c.attrs.iter().map(|a| a.name.as_str()))
            {
                assert!(
                    !scidb_query::is_system_array(name) && !name.contains('.'),
                    "seed {seed}: generated identifier {name:?} collides with \
                     the reserved namespace"
                );
            }
        }
        for name in ["conformance_input", "conf", "conf_remote_0"] {
            assert!(!scidb_query::is_system_array(name), "{name}");
        }
    }

    #[test]
    fn generator_emits_floats_on_the_dyadic_lattice() {
        for seed in 0..50 {
            for (_, rec) in &generate(seed).cells {
                for v in rec {
                    let check = |x: f64| {
                        assert_eq!(x, (x * 4.0).round() / 4.0, "non-dyadic value {x}");
                    };
                    match v {
                        CellValue::Float(x) => check(*x),
                        CellValue::Uncertain(m, s) => {
                            check(*m);
                            check(*s);
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}
