//! The relational oracle backend.
//!
//! The input array is lowered to one-row-per-cell form via
//! [`scidb_relational::ArrayTable`] and the pipeline is re-executed with
//! relational plans: row filters, nested-loop / hash joins, and
//! [`group_aggregate`] over dimension columns. The implementation is
//! deliberately independent of `scidb_core::ops` — shared code would make
//! the differential comparison vacuous — but mirrors the paper semantics
//! the array engine implements: a failed `Filter`/`Cjoin` predicate keeps
//! the cell with an all-NULL record, `Concat` offsets by the declared
//! bound (or the high-water mark for `*` dimensions), and aggregates use
//! the same registry states so NULL/uncertainty handling matches.
//!
//! Row order is preserved through every operator (and the base table is in
//! the array's chunk-major `cells()` order), so aggregate folds see update
//! sequences compatible with the array engines' chunk-order partial
//! merges; with the generator's exact dyadic values every shared aggregate
//! is order-insensitive anyway.

use crate::case::{Case, Cmp, OpSpec};
use scidb_core::error::{Error, Result};
use scidb_core::registry::Registry;
use scidb_core::value::{ScalarType, Value};
use scidb_relational::exec::group_aggregate;
use scidb_relational::table::{ColumnDef, Row, Table};
use scidb_relational::ArrayTable;

/// The relational simulation of an intermediate array: a table whose first
/// columns are the dimensions, plus the dimension bound metadata the
/// relational model itself does not carry.
pub struct RelState {
    /// The row table: dimension columns first, then attribute columns.
    pub table: Table,
    /// Dimension names and declared upper bounds (`None` = `*`).
    pub dims: Vec<(String, Option<i64>)>,
}

impl RelState {
    fn n_dims(&self) -> usize {
        self.dims.len()
    }

    fn dim_index(&self, name: &str) -> Result<usize> {
        self.dims
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| Error::not_found(format!("dimension '{name}'")))
    }

    fn attr_columns(&self) -> &[ColumnDef] {
        &self.table.columns()[self.n_dims()..]
    }

    /// Observed maximum along dimension `d` (0 when empty) — the
    /// relational analogue of `Array::high_water` for `*` dimensions.
    fn high_water(&self, d: usize) -> i64 {
        self.table
            .rows()
            .iter()
            .filter_map(|r| r[d].as_i64())
            .max()
            .unwrap_or(0)
    }

    fn rebuild(&self, columns: Vec<ColumnDef>, rows: Vec<Row>) -> Result<Table> {
        let mut t = Table::new("conf_rel", columns)?;
        for row in rows {
            t.insert(row)?;
        }
        Ok(t)
    }
}

fn cmp_matches(v: &Value, cmp: Cmp, lit: f64) -> bool {
    // Mirrors Expr comparison: NULL propagates (→ no match), numerics
    // widen to f64.
    match v.as_f64() {
        Some(x) => cmp.eval(x, lit),
        None => false,
    }
}

/// Executes the case through the relational oracle. Errors with
/// [`Error::Unsupported`] on nested attributes (`ArrayTable` cannot
/// represent them), which the harness records as a skipped comparison.
pub fn run_relational(case: &Case, registry: &Registry) -> Result<RelState> {
    let input = case.build_input()?;
    let base = ArrayTable::from_array(&input)?;
    let mut state = RelState {
        table: base.table().clone(),
        dims: case
            .dims
            .iter()
            .map(|d| (d.name.clone(), d.upper))
            .collect(),
    };
    for op in &case.ops {
        state = apply_op(state, op, registry)?;
    }
    Ok(state)
}

fn apply_op(state: RelState, op: &OpSpec, registry: &Registry) -> Result<RelState> {
    let n = state.n_dims();
    match op {
        OpSpec::Subsample { dim, lo, hi } => {
            let d = state.dim_index(dim)?;
            let rows: Vec<Row> = state
                .table
                .rows()
                .iter()
                .filter(|r| {
                    let c = r[d].as_i64().expect("integer dim column");
                    *lo <= c && c <= *hi
                })
                .cloned()
                .collect();
            let table = state.rebuild(state.table.columns().to_vec(), rows)?;
            Ok(RelState { table, ..state })
        }
        OpSpec::Filter { attr, cmp, lit } => {
            let a = state.table.column_index(attr)?;
            let rows: Vec<Row> = state
                .table
                .rows()
                .iter()
                .map(|r| {
                    if cmp_matches(&r[a], *cmp, *lit) {
                        r.clone()
                    } else {
                        // Failed/NULL predicate: cell survives, record
                        // becomes all-NULL (§2.2.2 / Figure 3 semantics).
                        let mut out = r[..n].to_vec();
                        out.extend(std::iter::repeat_n(Value::Null, r.len() - n));
                        out
                    }
                })
                .collect();
            let table = state.rebuild(state.table.columns().to_vec(), rows)?;
            Ok(RelState { table, ..state })
        }
        OpSpec::Apply { new, src, mul, add } => {
            let s = state.table.column_index(src)?;
            let mut columns = state.table.columns().to_vec();
            columns.push(ColumnDef {
                name: new.clone(),
                ty: ScalarType::Float64,
            });
            let rows: Vec<Row> = state
                .table
                .rows()
                .iter()
                .map(|r| {
                    let mut out = r.clone();
                    // (src * mul) + add with f64 widening, as Expr does.
                    out.push(match r[s].as_f64() {
                        Some(x) => Value::from(x * mul + add),
                        None => Value::Null,
                    });
                    out
                })
                .collect();
            let table = state.rebuild(columns, rows)?;
            Ok(RelState { table, ..state })
        }
        OpSpec::Project { keep } => {
            let idxs: Vec<usize> = keep
                .iter()
                .map(|k| state.table.column_index(k))
                .collect::<Result<_>>()?;
            let mut columns = state.table.columns()[..n].to_vec();
            columns.extend(idxs.iter().map(|&i| state.table.columns()[i].clone()));
            let rows: Vec<Row> = state
                .table
                .rows()
                .iter()
                .map(|r| {
                    let mut out = r[..n].to_vec();
                    out.extend(idxs.iter().map(|&i| r[i].clone()));
                    out
                })
                .collect();
            let table = state.rebuild(columns, rows)?;
            Ok(RelState { table, ..state })
        }
        OpSpec::Aggregate { dims, agg, attr } => {
            let refs: Vec<&str> = dims.iter().map(String::as_str).collect();
            let grouped = group_aggregate(&state.table, &refs, agg, attr, registry)?;
            if dims.is_empty() {
                // Grand aggregate: the array engine emits a single cell at
                // coordinate 1 of a synthetic `all` dimension.
                let mut columns = vec![ColumnDef {
                    name: "all".into(),
                    ty: ScalarType::Int64,
                }];
                columns.extend(grouped.columns().to_vec());
                let rows: Vec<Row> = grouped
                    .rows()
                    .iter()
                    .map(|r| {
                        let mut out = vec![Value::from(1i64)];
                        out.extend(r.iter().cloned());
                        out
                    })
                    .collect();
                let table = state.rebuild(columns, rows)?;
                return Ok(RelState {
                    table,
                    dims: vec![("all".into(), Some(1))],
                });
            }
            let new_dims: Vec<(String, Option<i64>)> = dims
                .iter()
                .map(|name| {
                    let d = state.dim_index(name)?;
                    Ok(state.dims[d].clone())
                })
                .collect::<Result<_>>()?;
            Ok(RelState {
                table: grouped,
                dims: new_dims,
            })
        }
        OpSpec::Regrid { factors, agg } => {
            if factors.len() != n {
                return Err(Error::dimension("regrid factor rank mismatch"));
            }
            let a = registry.aggregate(agg)?;
            let n_attrs = state.attr_columns().len();
            let mut groups: std::collections::BTreeMap<
                Vec<i64>,
                Vec<Box<dyn scidb_core::udf::AggState>>,
            > = std::collections::BTreeMap::new();
            for r in state.table.rows() {
                let key: Vec<i64> = (0..n)
                    .map(|d| (r[d].as_i64().expect("integer dim column") - 1) / factors[d] + 1)
                    .collect();
                let states = groups
                    .entry(key)
                    .or_insert_with(|| (0..n_attrs).map(|_| a.create()).collect());
                for (s, v) in states.iter_mut().zip(&r[n..]) {
                    s.update(v)?;
                }
            }
            let mut columns = state.table.columns()[..n].to_vec();
            for c in state.attr_columns() {
                let ty = match agg.to_ascii_lowercase().as_str() {
                    "count" => ScalarType::Int64,
                    "avg" | "stddev" | "var" => ScalarType::Float64,
                    _ => c.ty,
                };
                columns.push(ColumnDef {
                    name: c.name.clone(),
                    ty,
                });
            }
            let rows: Vec<Row> = groups
                .into_iter()
                .map(|(key, states)| {
                    let mut out: Row = key.into_iter().map(Value::from).collect();
                    out.extend(states.iter().map(|s| s.finalize()));
                    out
                })
                .collect();
            let table = state.rebuild(columns, rows)?;
            let dims = state
                .dims
                .iter()
                .zip(factors)
                .map(|((name, u), &f)| (name.clone(), u.map(|b| (b + f - 1) / f)))
                .collect();
            Ok(RelState { table, dims })
        }
        OpSpec::Sjoin => {
            // Self-join on every dimension: one row per cell joins exactly
            // itself; attributes double with `_r` names.
            let mut columns = state.table.columns().to_vec();
            columns.extend(state.attr_columns().iter().map(|c| ColumnDef {
                name: format!("{}_r", c.name),
                ty: c.ty,
            }));
            let rows: Vec<Row> = state
                .table
                .rows()
                .iter()
                .map(|r| {
                    let mut out = r.clone();
                    out.extend(r[n..].iter().cloned());
                    out
                })
                .collect();
            let table = state.rebuild(columns, rows)?;
            Ok(RelState { table, ..state })
        }
        OpSpec::Cjoin { attr, cmp, lit } => {
            let a = state.table.column_index(attr)?;
            let n_attrs = state.attr_columns().len();
            let mut columns = state.table.columns()[..n].to_vec();
            columns.extend(state.table.columns()[..n].iter().map(|c| ColumnDef {
                name: format!("{}_r", c.name),
                ty: c.ty,
            }));
            columns.extend(state.attr_columns().iter().cloned());
            columns.extend(state.attr_columns().iter().map(|c| ColumnDef {
                name: format!("{}_r", c.name),
                ty: c.ty,
            }));
            let mut rows = Vec::new();
            for ra in state.table.rows() {
                for rb in state.table.rows() {
                    let mut out = ra[..n].to_vec();
                    out.extend(rb[..n].iter().cloned());
                    if cmp_matches(&ra[a], *cmp, *lit) {
                        out.extend(ra[n..].iter().cloned());
                        out.extend(rb[n..].iter().cloned());
                    } else {
                        // Non-matching pairs stay present with NULLs.
                        out.extend(std::iter::repeat_n(Value::Null, 2 * n_attrs));
                    }
                    rows.push(out);
                }
            }
            let table = state.rebuild(columns, rows)?;
            let mut dims = state.dims.clone();
            dims.extend(state.dims.iter().map(|(name, u)| (format!("{name}_r"), *u)));
            Ok(RelState { table, dims })
        }
        OpSpec::Concat { dim } => {
            let d = state.dim_index(dim)?;
            let a_extent = state.dims[d].1.unwrap_or_else(|| state.high_water(d));
            let mut rows: Vec<Row> = state.table.rows().to_vec();
            rows.extend(state.table.rows().iter().map(|r| {
                let mut out = r.clone();
                let c = out[d].as_i64().expect("integer dim column");
                out[d] = Value::from(c + a_extent);
                out
            }));
            let table = state.rebuild(state.table.columns().to_vec(), rows)?;
            let mut dims = state.dims.clone();
            dims[d].1 = dims[d].1.map(|u| a_extent + u);
            Ok(RelState { table, dims })
        }
        OpSpec::Reshape => {
            let extents: Vec<i64> = state
                .dims
                .iter()
                .map(|(_, u)| u.ok_or_else(|| Error::dimension("reshape requires bounded dims")))
                .collect::<Result<_>>()?;
            let volume: i64 = extents.iter().product::<i64>().max(1);
            let mut columns = vec![ColumnDef {
                name: "z".into(),
                ty: ScalarType::Int64,
            }];
            columns.extend(state.attr_columns().iter().cloned());
            let rows: Vec<Row> = state
                .table
                .rows()
                .iter()
                .map(|r| {
                    // Reversed dimension order, first listed slowest — the
                    // same linearization the array engine applies.
                    let mut lin: i64 = 0;
                    for d in (0..n).rev() {
                        let c = r[d].as_i64().expect("integer dim column");
                        lin = lin * extents[d] + (c - 1);
                    }
                    let mut out: Row = vec![Value::from(lin + 1)];
                    out.extend(r[n..].iter().cloned());
                    out
                })
                .collect();
            let table = state.rebuild(columns, rows)?;
            Ok(RelState {
                table,
                dims: vec![("z".into(), Some(volume))],
            })
        }
        OpSpec::Slice { dim, at } => {
            let d = state.dim_index(dim)?;
            if n == 1 {
                return Err(Error::dimension("cannot remove the only dimension"));
            }
            let mut columns = state.table.columns().to_vec();
            columns.remove(d);
            let rows: Vec<Row> = state
                .table
                .rows()
                .iter()
                .filter(|r| r[d].as_i64() == Some(*at))
                .map(|r| {
                    let mut out = r.clone();
                    out.remove(d);
                    out
                })
                .collect();
            let table = state.rebuild(columns, rows)?;
            let mut dims = state.dims.clone();
            dims.remove(d);
            Ok(RelState { table, dims })
        }
        OpSpec::AddDim { name } => {
            // Every row gains coordinate 1 on a new last dimension column.
            let mut columns = state.table.columns().to_vec();
            columns.insert(
                n,
                ColumnDef {
                    name: name.clone(),
                    ty: ScalarType::Int64,
                },
            );
            let rows: Vec<Row> = state
                .table
                .rows()
                .iter()
                .map(|r| {
                    let mut out = r.clone();
                    out.insert(n, Value::from(1i64));
                    out
                })
                .collect();
            let table = state.rebuild(columns, rows)?;
            let mut dims = state.dims.clone();
            dims.push((name.clone(), Some(1)));
            Ok(RelState { table, dims })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::run_serial;
    use crate::canon::{canon_array, canon_table, cells_of_full, Canon};
    use crate::gen::generate;

    #[test]
    fn relational_oracle_matches_serial_on_a_sample_of_seeds() {
        let registry = Registry::with_builtins();
        let mut compared = 0;
        for seed in 0..30 {
            let case = generate(seed);
            if case.has_nested() {
                continue;
            }
            let s = run_serial(&case, &registry).unwrap();
            let r = run_relational(&case, &registry).unwrap();
            let full = canon_array(&s, Canon::Full);
            assert_eq!(
                cells_of_full(&full),
                canon_table(&r.table, r.dims.len()),
                "seed {seed}"
            );
            compared += 1;
        }
        assert!(compared > 5, "too few relational-comparable seeds");
    }
}
