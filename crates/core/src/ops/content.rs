//! Content-dependent operators (§2.2.2): Filter, Aggregate, Cjoin, Apply,
//! Project — "operators whose result depends on the data that is stored in
//! the input array".

use crate::array::Array;
use crate::chunk::Chunk;
use crate::error::{Error, Result};
use crate::exec::ExecContext;
use crate::expr::{EvalContext, Expr};
use crate::registry::Registry;
use crate::schema::{ArraySchema, AttrType, AttributeDef, DimensionDef};
use crate::value::{Record, ScalarType, Value};

/// `Filter(A, P)` (§2.2.2): "Filter returns an array with the same
/// dimensions as A. … A(v) will contain A(v) if P(A(v)) evaluates to true,
/// otherwise it will contain NULL."
///
/// Present cells that fail the predicate (or for which it is NULL) become
/// all-NULL records; empty cells stay empty.
pub fn filter(a: &Array, pred: &Expr, registry: Option<&Registry>) -> Result<Array> {
    filter_with(a, pred, registry, &ExecContext::serial())
}

/// [`filter`] under an [`ExecContext`]: the predicate touches each chunk
/// independently, so chunks are evaluated in parallel up to the context's
/// thread budget.
pub fn filter_with(
    a: &Array,
    pred: &Expr,
    registry: Option<&Registry>,
    ctx: &ExecContext,
) -> Result<Array> {
    let chunks: Vec<&Chunk> = a.chunks().values().collect();
    // Columnar path: evaluate the predicate over whole columns and null out
    // failing lanes via a selection mask.
    super::map_chunks(
        "filter",
        &chunks,
        Array::from_arc(a.schema_arc()),
        ctx,
        |chunk| {
            super::batch::filter_columns(chunk, a.schema(), pred)
                .map(|oc| (oc, chunk.present_count() as u64))
        },
        |chunk, coords, lane| {
            let mut rec = chunk.record_at(lane);
            let ectx = EvalContext {
                schema: a.schema(),
                coords,
                record: &rec,
                registry,
            };
            if !pred.eval_bool(&ectx)?.unwrap_or(false) {
                rec.iter_mut().for_each(|v| *v = Value::Null);
            }
            Ok(Some(rec))
        },
    )
}

/// What an aggregate consumes.
#[derive(Debug, Clone)]
pub enum AggInput {
    /// `Agg(*)`: aggregate every attribute, producing one output attribute
    /// per input attribute.
    Star,
    /// `Agg(attr)`: aggregate one named attribute.
    Attr(String),
}

/// `Aggregate(A, G, Agg)` (§2.2.2): groups on `k` dimensions and applies the
/// aggregate over each (n−k)-dimensional subarray — Figure 2's
/// `Aggregate(H, {Y}, Sum(*))`.
///
/// With an empty `group_dims`, the whole array aggregates to a single cell
/// in a 1-dimensional result of extent 1. "Data attributes cannot be used
/// for grouping" by construction: `group_dims` names dimensions only.
pub fn aggregate(
    a: &Array,
    group_dims: &[&str],
    agg_name: &str,
    input: AggInput,
    registry: &Registry,
) -> Result<Array> {
    aggregate_with(
        a,
        group_dims,
        agg_name,
        input,
        registry,
        &ExecContext::serial(),
    )
}

/// [`aggregate`] under an [`ExecContext`]: each chunk computes partial
/// aggregate states independently; the coordinator merges partials in chunk
/// order via [`crate::udf::AggState::merge`].
///
/// The partial/merge structure is used at *every* thread count — parallelism
/// changes which thread computes a chunk's partial, never how partials are
/// combined — so serial and parallel runs are bitwise identical even for
/// floating-point aggregates.
pub fn aggregate_with(
    a: &Array,
    group_dims: &[&str],
    agg_name: &str,
    input: AggInput,
    registry: &Registry,
    ctx: &ExecContext,
) -> Result<Array> {
    let schema = a.schema();
    let mut gdims = Vec::with_capacity(group_dims.len());
    for g in group_dims {
        let d = schema.require_dim(g)?;
        if gdims.contains(&d) {
            return Err(Error::dimension(format!("dimension '{g}' grouped twice")));
        }
        gdims.push(d);
    }
    let agg = registry.aggregate(agg_name)?;

    // Which attributes feed the aggregate.
    let attr_idxs: Vec<usize> = match &input {
        AggInput::Star => (0..schema.attrs().len()).collect(),
        AggInput::Attr(name) => vec![schema.require_attr(name)?],
    };
    for &i in &attr_idxs {
        if matches!(schema.attrs()[i].ty, AttrType::Nested(_)) {
            return Err(Error::schema(format!(
                "cannot aggregate nested-array attribute '{}'",
                schema.attrs()[i].name
            )));
        }
    }

    // Output schema: grouping dims (bounds inherited), one attribute per
    // aggregated input attribute.
    let out_dims: Vec<DimensionDef> = if gdims.is_empty() {
        vec![DimensionDef::bounded("all", 1)]
    } else {
        gdims.iter().map(|&d| schema.dims()[d].clone()).collect()
    };
    let out_attrs: Vec<AttributeDef> = attr_idxs
        .iter()
        .map(|&i| {
            let in_attr = &schema.attrs()[i];
            let ty = super::agg_output_type(agg_name, &in_attr.ty);
            AttributeDef::scalar(format!("{}_{}", agg_name, in_attr.name), ty)
        })
        .collect();
    let out_schema =
        ArraySchema::new(format!("aggregate({})", schema.name()), out_attrs, out_dims)?;

    let group =
        (!gdims.is_empty()).then_some(|coords: &[i64]| gdims.iter().map(|&d| coords[d]).collect());
    super::fold_chunks("aggregate", a, &attr_idxs, &*agg, group, out_schema, ctx)
}

/// `Cjoin(A, B, P)` (§2.2.2): content-based join whose predicate ranges
/// **over data values only**. The result is (m+n)-dimensional "with
/// concatenated cell tuples wherever the JOIN-predicate was true. For cases
/// in which this predicate is false, the result array contains a NULL" —
/// Figure 3.
///
/// The predicate is evaluated against the concatenated record using the
/// output schema's attribute names (B's clashing attributes are suffixed
/// `_r`, so the paper's `A.val = B.val` is written `val = val_r`).
pub fn cjoin(a: &Array, b: &Array, pred: &Expr, registry: Option<&Registry>) -> Result<Array> {
    // Reuse the structural join's naming rules.
    let attrs = {
        let mut attrs = a.schema().attrs().to_vec();
        for attr in b.schema().attrs() {
            let mut def = attr.clone();
            if a.schema().attr_index(&attr.name).is_some() {
                def.name = format!("{}_r", attr.name);
            }
            attrs.push(def);
        }
        attrs
    };
    let dims = {
        let mut dims = a.schema().dims().to_vec();
        for d in b.schema().dims() {
            let mut def = d.clone();
            if a.schema().dim_index(&d.name).is_some() {
                def.name = format!("{}_r", d.name);
            }
            dims.push(def);
        }
        dims
    };
    let out_schema = ArraySchema::new(
        format!("cjoin({},{})", a.schema().name(), b.schema().name()),
        attrs,
        dims,
    )?;
    let mut out = Array::new(out_schema);
    let null_rec: Record = vec![Value::Null; a.schema().attrs().len() + b.schema().attrs().len()];

    let b_cells: Vec<(Vec<i64>, Record)> = b.cells().collect();
    for (a_coords, a_rec) in a.cells() {
        for (b_coords, b_rec) in &b_cells {
            let mut coords = a_coords.clone();
            coords.extend_from_slice(b_coords);
            let mut rec = a_rec.clone();
            rec.extend(b_rec.iter().cloned());
            let ctx = EvalContext {
                schema: out.schema(),
                coords: &coords,
                record: &rec,
                registry,
            };
            let matched = pred.eval_bool(&ctx)?.unwrap_or(false);
            if matched {
                out.set_cell(&coords, rec)?;
            } else {
                out.set_cell(&coords, null_rec.clone())?;
            }
        }
    }
    Ok(out)
}

/// `Apply(A, name, expr)` (§2.2.2): appends a computed attribute to every
/// present cell.
pub fn apply(
    a: &Array,
    new_attr: &str,
    expr: &Expr,
    out_type: ScalarType,
    registry: Option<&Registry>,
) -> Result<Array> {
    apply_with(
        a,
        new_attr,
        expr,
        out_type,
        registry,
        &ExecContext::serial(),
    )
}

/// [`apply`] under an [`ExecContext`]: the expression is evaluated per cell
/// with no cross-cell state, so chunks are computed in parallel.
pub fn apply_with(
    a: &Array,
    new_attr: &str,
    expr: &Expr,
    out_type: ScalarType,
    registry: Option<&Registry>,
    ctx: &ExecContext,
) -> Result<Array> {
    if a.schema().attr_index(new_attr).is_some() {
        return Err(Error::AlreadyExists(format!("attribute '{new_attr}'")));
    }
    let mut attrs = a.schema().attrs().to_vec();
    attrs.push(AttributeDef::scalar(new_attr, out_type));
    let out_schema = ArraySchema::new(
        format!("apply({})", a.schema().name()),
        attrs,
        a.schema().dims().to_vec(),
    )?;
    let out_types: Vec<AttrType> = out_schema.attrs().iter().map(|at| at.ty.clone()).collect();
    let chunks: Vec<&Chunk> = a.chunks().values().collect();
    // Columnar path: evaluate the expression over whole columns and append
    // the result as a new column.
    super::map_chunks(
        "apply",
        &chunks,
        Array::new(out_schema),
        ctx,
        |chunk| {
            super::batch::apply_columns(chunk, a.schema(), expr, &out_types)
                .map(|oc| (oc, chunk.present_count() as u64))
        },
        |chunk, coords, lane| {
            let mut rec = chunk.record_at(lane);
            let ectx = EvalContext {
                schema: a.schema(),
                coords,
                record: &rec,
                registry,
            };
            let v = expr.eval(&ectx)?;
            rec.push(v);
            Ok(Some(rec))
        },
    )
}

/// `Project(A, attrs)` (§2.2.2): keeps only the named attributes.
pub fn project(a: &Array, keep: &[&str]) -> Result<Array> {
    project_with(a, keep, &ExecContext::serial())
}

/// [`project`] under an [`ExecContext`]: a pure per-chunk column selection,
/// computed in parallel.
pub fn project_with(a: &Array, keep: &[&str], ctx: &ExecContext) -> Result<Array> {
    if keep.is_empty() {
        return Err(Error::schema("project requires at least one attribute"));
    }
    let mut idxs = Vec::with_capacity(keep.len());
    let mut attrs = Vec::with_capacity(keep.len());
    for name in keep {
        let i = a.schema().require_attr(name)?;
        if idxs.contains(&i) {
            return Err(Error::schema(format!("attribute '{name}' listed twice")));
        }
        idxs.push(i);
        attrs.push(a.schema().attrs()[i].clone());
    }
    let out_schema = ArraySchema::new(
        format!("project({})", a.schema().name()),
        attrs,
        a.schema().dims().to_vec(),
    )?;
    let out_types: Vec<AttrType> = out_schema.attrs().iter().map(|at| at.ty.clone()).collect();
    let chunks: Vec<&Chunk> = a.chunks().values().collect();
    // Projection is a straight column subset, with no per-cell records at
    // all; it never declines, so it has no per-cell body.
    super::map_chunks(
        "project",
        &chunks,
        Array::new(out_schema),
        ctx,
        |chunk| {
            let oc = super::batch::project_columns(chunk, &idxs, &out_types);
            Some((oc, chunk.present_count() as u64))
        },
        |_, _, _| Err(Error::eval("project has no per-cell path")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::record;

    #[test]
    fn filter_keeps_or_nulls_matching_paper() {
        let a = Array::f64_2d("A", "v", &[vec![1.0, 5.0], vec![3.0, 7.0]]);
        let out = filter(&a, &Expr::attr("v").gt(Expr::lit(4.0)), None).unwrap();
        // Same dimensions, same present cells.
        assert_eq!(out.cell_count(), 4);
        assert_eq!(out.get_cell(&[1, 2]), Some(vec![Value::from(5.0)]));
        assert_eq!(out.get_cell(&[1, 1]), Some(vec![Value::Null]));
        assert_eq!(out.get_cell(&[2, 2]), Some(vec![Value::from(7.0)]));
    }

    #[test]
    fn filter_null_predicate_yields_null_cell() {
        let mut a = Array::f64_2d("A", "v", &[vec![1.0]]);
        a.set_cell(&[1, 1], record([Value::Null])).unwrap();
        let out = filter(&a, &Expr::attr("v").gt(Expr::lit(0.0)), None).unwrap();
        assert_eq!(out.get_cell(&[1, 1]), Some(vec![Value::Null]));
    }

    #[test]
    fn aggregate_figure2() {
        // Figure 2: 2-D H grouped on Y with Sum(*).
        // H[x=1,y=1]=1, H[x=2,y=1]=3, H[x=1,y=2]=2, H[x=2,y=2]=5
        // → y=1 ↦ 4, y=2 ↦ 7.
        let schema = SchemaBuilder::new("H")
            .attr("v", ScalarType::Int64)
            .dim("X", 2)
            .dim("Y", 2)
            .build()
            .unwrap();
        let mut h = Array::new(schema);
        h.set_cell(&[1, 1], record([Value::from(1i64)])).unwrap();
        h.set_cell(&[2, 1], record([Value::from(3i64)])).unwrap();
        h.set_cell(&[1, 2], record([Value::from(2i64)])).unwrap();
        h.set_cell(&[2, 2], record([Value::from(5i64)])).unwrap();
        let r = Registry::with_builtins();
        let out = aggregate(&h, &["Y"], "sum", AggInput::Star, &r).unwrap();
        assert_eq!(out.rank(), 1);
        assert_eq!(out.schema().dims()[0].name, "Y");
        assert_eq!(out.get_cell(&[1]), Some(vec![Value::from(4i64)]));
        assert_eq!(out.get_cell(&[2]), Some(vec![Value::from(7i64)]));
    }

    #[test]
    fn aggregate_no_groups_single_cell() {
        let a = Array::f64_2d("A", "v", &[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let r = Registry::with_builtins();
        let out = aggregate(&a, &[], "avg", AggInput::Attr("v".into()), &r).unwrap();
        assert_eq!(out.rank(), 1);
        assert_eq!(out.get_cell(&[1]), Some(vec![Value::from(2.5)]));
    }

    #[test]
    fn aggregate_multi_attr_star() {
        let schema = SchemaBuilder::new("M")
            .attr("a", ScalarType::Int64)
            .attr("b", ScalarType::Float64)
            .dim("X", 2)
            .build()
            .unwrap();
        let mut m = Array::new(schema);
        m.set_cell(&[1], record([Value::from(1i64), Value::from(10.0)]))
            .unwrap();
        m.set_cell(&[2], record([Value::from(2i64), Value::from(20.0)]))
            .unwrap();
        let r = Registry::with_builtins();
        let out = aggregate(&m, &[], "sum", AggInput::Star, &r).unwrap();
        assert_eq!(out.schema().attrs().len(), 2);
        assert_eq!(out.schema().attrs()[0].name, "sum_a");
        assert_eq!(
            out.get_cell(&[1]),
            Some(vec![Value::from(3i64), Value::from(30.0)])
        );
    }

    #[test]
    fn aggregate_group_on_unknown_dim_rejected() {
        let a = Array::f64_2d("A", "v", &[vec![1.0]]);
        let r = Registry::with_builtins();
        assert!(aggregate(&a, &["nope"], "sum", AggInput::Star, &r).is_err());
        assert!(aggregate(&a, &["i", "i"], "sum", AggInput::Star, &r).is_err());
    }

    #[test]
    fn cjoin_figure3() {
        // Figure 3: same inputs as Figure 1, predicate on values.
        let a = Array::int_1d("A", "val", &[1, 2]);
        let b = Array::int_1d("B", "val", &[1, 2]);
        let pred = Expr::attr("val").eq(Expr::attr("val_r"));
        let out = cjoin(&a, &b, &pred, None).unwrap();
        assert_eq!(out.rank(), 2); // m + n
        assert_eq!(out.cell_count(), 4); // all combinations present
                                         // Matches on the diagonal carry concatenated tuples…
        assert_eq!(
            out.get_cell(&[1, 1]),
            Some(vec![Value::from(1i64), Value::from(1i64)])
        );
        assert_eq!(
            out.get_cell(&[2, 2]),
            Some(vec![Value::from(2i64), Value::from(2i64)])
        );
        // …and the rest are NULL.
        assert_eq!(out.get_cell(&[1, 2]), Some(vec![Value::Null, Value::Null]));
        assert_eq!(out.get_cell(&[2, 1]), Some(vec![Value::Null, Value::Null]));
    }

    #[test]
    fn apply_computes_new_attribute() {
        let a = Array::f64_2d("A", "v", &[vec![1.0, 2.0]]);
        let out = apply(
            &a,
            "double",
            &Expr::attr("v").mul(Expr::lit(2.0)),
            ScalarType::Float64,
            None,
        )
        .unwrap();
        assert_eq!(out.schema().attrs().len(), 2);
        assert_eq!(
            out.get_cell(&[1, 2]),
            Some(vec![Value::from(2.0), Value::from(4.0)])
        );
    }

    #[test]
    fn apply_can_use_dimensions_and_udfs() {
        let a = Array::f64_2d("A", "v", &[vec![0.0, 0.0]]);
        let r = Registry::with_builtins();
        let out = apply(
            &a,
            "jsq",
            &Expr::func("abs", vec![Expr::dim("j").mul(Expr::dim("j"))]),
            ScalarType::Float64,
            Some(&r),
        )
        .unwrap();
        assert_eq!(out.get_value(1, &[1, 2]), Some(Value::from(4.0)));
    }

    #[test]
    fn apply_duplicate_name_rejected() {
        let a = Array::f64_2d("A", "v", &[vec![1.0]]);
        assert!(apply(&a, "v", &Expr::attr("v"), ScalarType::Float64, None).is_err());
    }

    #[test]
    fn project_keeps_subset() {
        let schema = SchemaBuilder::new("M")
            .attr("a", ScalarType::Int64)
            .attr("b", ScalarType::Float64)
            .attr("c", ScalarType::Bool)
            .dim("X", 1)
            .build()
            .unwrap();
        let mut m = Array::new(schema);
        m.set_cell(
            &[1],
            record([Value::from(1i64), Value::from(2.0), Value::from(true)]),
        )
        .unwrap();
        let out = project(&m, &["c", "a"]).unwrap();
        assert_eq!(out.schema().attrs()[0].name, "c");
        assert_eq!(
            out.get_cell(&[1]),
            Some(vec![Value::from(true), Value::from(1i64)])
        );
        assert!(project(&m, &[]).is_err());
        assert!(project(&m, &["a", "a"]).is_err());
        assert!(project(&m, &["zz"]).is_err());
    }
}
