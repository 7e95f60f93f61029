//! Regrid — the canonical science operation (§2.3).
//!
//! "The key science operations are rarely the popular table primitives,
//! such as Join. Instead, science users wish to regrid arrays." Regrid
//! coarsens an array by an integer factor per dimension, aggregating each
//! block into one output cell. It is also registered as a user-defined
//! whole-array operation to demonstrate the §2.3 extension point.

use crate::array::Array;
use crate::error::{Error, Result};
use crate::registry::Registry;
use crate::schema::{ArraySchema, AttrType, AttributeDef, DimensionDef};

/// Regrids `a` by `factors` (one integer ≥ 1 per dimension), applying the
/// named aggregate to every block. Output dimension `d` has extent
/// `ceil(N_d / factors[d])`; input cell `c` lands in output cell
/// `(c-1)/factor + 1`.
pub fn regrid(a: &Array, factors: &[i64], agg_name: &str, registry: &Registry) -> Result<Array> {
    regrid_with(
        a,
        factors,
        agg_name,
        registry,
        &crate::exec::ExecContext::serial(),
    )
}

/// [`regrid`] under an [`ExecContext`](crate::exec::ExecContext): each chunk
/// folds its cells into per-block partial aggregate states; partials are
/// merged in chunk order, so results are identical at every thread count
/// (see [`crate::ops::content::aggregate_with`] for the merge rule).
pub fn regrid_with(
    a: &Array,
    factors: &[i64],
    agg_name: &str,
    registry: &Registry,
    ctx: &crate::exec::ExecContext,
) -> Result<Array> {
    let schema = a.schema();
    if factors.len() != schema.rank() {
        return Err(Error::dimension(format!(
            "regrid got {} factors for {} dimensions",
            factors.len(),
            schema.rank()
        )));
    }
    if factors.iter().any(|&f| f < 1) {
        return Err(Error::dimension("regrid factors must be >= 1"));
    }
    let agg = registry.aggregate(agg_name)?;

    let out_dims: Vec<DimensionDef> = schema
        .dims()
        .iter()
        .zip(factors)
        .map(|(d, &f)| {
            let mut def = d.clone();
            def.upper = d.upper.map(|u| (u + f - 1) / f);
            def.chunk_len = def.chunk_len.min(def.upper.unwrap_or(def.chunk_len)).max(1);
            def
        })
        .collect();
    let out_attrs: Vec<AttributeDef> = schema
        .attrs()
        .iter()
        .map(|attr| {
            AttributeDef::scalar(
                attr.name.clone(),
                super::agg_output_type(agg_name, &attr.ty),
            )
        })
        .collect();
    for attr in schema.attrs() {
        if matches!(attr.ty, AttrType::Nested(_)) {
            return Err(Error::schema(format!(
                "cannot regrid nested-array attribute '{}'",
                attr.name
            )));
        }
    }
    let out_schema = ArraySchema::new(format!("regrid({})", schema.name()), out_attrs, out_dims)?;

    let all_idxs: Vec<usize> = (0..schema.attrs().len()).collect();
    let block_of = |coords: &[i64]| {
        coords
            .iter()
            .zip(factors)
            .map(|(&c, &f)| (c - 1) / f + 1)
            .collect()
    };
    super::fold_chunks(
        "regrid",
        a,
        &all_idxs,
        &*agg,
        Some(block_of),
        out_schema,
        ctx,
    )
}

/// Regrid packaged as a registered array operation (§2.3): fixed factors
/// and aggregate chosen at registration time.
#[derive(Debug)]
pub struct RegridOp {
    name: String,
    factors: Vec<i64>,
    agg: String,
}

impl RegridOp {
    /// Creates a named regrid operation.
    pub fn new(name: impl Into<String>, factors: Vec<i64>, agg: impl Into<String>) -> Self {
        RegridOp {
            name: name.into(),
            factors,
            agg: agg.into(),
        }
    }
}

impl crate::udf::ArrayOp for RegridOp {
    fn name(&self) -> &str {
        &self.name
    }
    fn apply(&self, inputs: &[&Array], registry: &Registry) -> Result<Array> {
        if inputs.len() != 1 {
            return Err(Error::eval("regrid takes exactly one input array"));
        }
        regrid(inputs[0], &self.factors, &self.agg, registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{record, Value};

    fn ramp(n: i64) -> Array {
        let rows: Vec<Vec<f64>> = (1..=n)
            .map(|i| (1..=n).map(|j| (i * 100 + j) as f64).collect())
            .collect();
        Array::f64_2d("R", "v", &rows)
    }

    #[test]
    fn regrid_2x2_avg() {
        let a = ramp(4);
        let r = Registry::with_builtins();
        let out = regrid(&a, &[2, 2], "avg", &r).unwrap();
        assert_eq!(out.schema().dims()[0].upper, Some(2));
        assert_eq!(out.cell_count(), 4);
        // Block (1,1) covers cells (1..2, 1..2): values 101,102,201,202.
        assert_eq!(out.get_f64(0, &[1, 1]), Some(151.5));
        // Block (2,2): 303,304,403,404.
        assert_eq!(out.get_f64(0, &[2, 2]), Some(353.5));
    }

    #[test]
    fn regrid_uneven_edges() {
        let a = ramp(5);
        let r = Registry::with_builtins();
        let out = regrid(&a, &[2, 2], "count", &r).unwrap();
        assert_eq!(out.schema().dims()[0].upper, Some(3));
        // Corner block has a single cell.
        assert_eq!(out.get_cell(&[3, 3]), Some(vec![Value::from(1i64)]));
        // Full block has four.
        assert_eq!(out.get_cell(&[1, 1]), Some(vec![Value::from(4i64)]));
    }

    #[test]
    fn regrid_factor_one_is_identity_shape() {
        let a = ramp(3);
        let r = Registry::with_builtins();
        let out = regrid(&a, &[1, 1], "sum", &r).unwrap();
        assert_eq!(out.cell_count(), 9);
        assert_eq!(out.get_f64(0, &[2, 3]), Some(203.0));
    }

    #[test]
    fn regrid_validates_factors() {
        let a = ramp(2);
        let r = Registry::with_builtins();
        assert!(regrid(&a, &[2], "avg", &r).is_err());
        assert!(regrid(&a, &[0, 2], "avg", &r).is_err());
        assert!(regrid(&a, &[2, 2], "nope", &r).is_err());
    }

    #[test]
    fn regrid_sparse_blocks_only_where_data() {
        let dense = Array::f64_2d("S", "v", &[vec![vec![0.0; 8]; 8]].concat());
        // Rebuild sparse: same schema, only two cells set.
        let mut a = Array::new(dense.schema().renamed("S2"));
        a.set_cell(&[1, 1], record([Value::from(5.0)])).unwrap();
        a.set_cell(&[8, 8], record([Value::from(7.0)])).unwrap();
        let r = Registry::with_builtins();
        let out = regrid(&a, &[4, 4], "max", &r).unwrap();
        assert_eq!(out.cell_count(), 2);
        assert_eq!(out.get_f64(0, &[1, 1]), Some(5.0));
        assert_eq!(out.get_f64(0, &[2, 2]), Some(7.0));
    }

    #[test]
    fn regrid_as_registered_array_op() {
        let mut r = Registry::with_builtins();
        r.register_array_op(std::sync::Arc::new(RegridOp::new(
            "coarsen4",
            vec![2, 2],
            "avg",
        )))
        .unwrap();
        let op = r.array_op("coarsen4").unwrap();
        let a = ramp(4);
        let out = op.apply(&[&a], &r).unwrap();
        assert_eq!(out.cell_count(), 4);
        assert!(op.apply(&[&a, &a], &r).is_err());
    }
}
