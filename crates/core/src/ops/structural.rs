//! Structural operators (§2.2.1): data-agnostic array restructuring.
//!
//! "These operators do not necessarily have to read the data values to
//! produce a result", so implementations here prune whole chunks by
//! rectangle arithmetic wherever possible.

use crate::array::{cut, Array};
use crate::chunk::{Chunk, Layer};
use crate::error::{Error, Result};
use crate::geometry::{Coords, HyperRect};
use crate::registry::Registry;
use crate::schema::{ArraySchema, AttributeDef, DimensionDef};
use crate::value::{Record, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A condition on a single dimension's value.
///
/// Subsample predicates "must be a conjunction of conditions on each
/// dimension independently" — `X = 3 and Y < 4` is legal, `X = Y` is not.
/// That legality rule is enforced *by construction*: a [`DimCond`] mentions
/// exactly one dimension and cannot reference another.
#[derive(Debug, Clone)]
pub enum DimCond {
    /// `= v`
    Eq(i64),
    /// `!= v`
    Ne(i64),
    /// `< v`
    Lt(i64),
    /// `<= v`
    Le(i64),
    /// `> v`
    Gt(i64),
    /// `>= v`
    Ge(i64),
    /// `BETWEEN lo AND hi` (inclusive).
    Between(i64, i64),
    /// Membership in an explicit set.
    In(Vec<i64>),
    /// Even index — the paper's `Subsample(F, even(X))`.
    Even,
    /// Odd index.
    Odd,
    /// A registered integer→bool UDF, by name (§2.3 extendibility).
    Fn(String),
}

impl DimCond {
    /// Evaluates the condition for one dimension value.
    pub fn matches(&self, v: i64, registry: Option<&Registry>) -> Result<bool> {
        Ok(match self {
            DimCond::Eq(x) => v == *x,
            DimCond::Ne(x) => v != *x,
            DimCond::Lt(x) => v < *x,
            DimCond::Le(x) => v <= *x,
            DimCond::Gt(x) => v > *x,
            DimCond::Ge(x) => v >= *x,
            DimCond::Between(lo, hi) => *lo <= v && v <= *hi,
            DimCond::In(set) => set.contains(&v),
            DimCond::Even => v % 2 == 0,
            DimCond::Odd => v % 2 != 0,
            DimCond::Fn(name) => {
                let registry = registry.ok_or_else(|| {
                    Error::eval(format!("no registry for dimension predicate '{name}'"))
                })?;
                let f = registry.scalar_fn(name)?;
                f.call(&[Value::from(v)])?
                    .as_bool()
                    .ok_or_else(|| Error::eval(format!("'{name}' must return bool")))?
            }
        })
    }

    /// Narrows a `[lo, hi]` index range using the condition; used for
    /// chunk pruning. Returns `None` when the range becomes empty.
    pub fn narrow(&self, lo: i64, hi: i64) -> Option<(i64, i64)> {
        let (nlo, nhi) = match self {
            DimCond::Eq(x) => (lo.max(*x), hi.min(*x)),
            DimCond::Lt(x) => (lo, hi.min(x - 1)),
            DimCond::Le(x) => (lo, hi.min(*x)),
            DimCond::Gt(x) => (lo.max(x + 1), hi),
            DimCond::Ge(x) => (lo.max(*x), hi),
            DimCond::Between(a, b) => (lo.max(*a), hi.min(*b)),
            DimCond::In(set) => {
                let (mn, mx) = (set.iter().min(), set.iter().max());
                match (mn, mx) {
                    (Some(&mn), Some(&mx)) => (lo.max(mn), hi.min(mx)),
                    _ => return None,
                }
            }
            // Ne/Even/Odd/Fn don't narrow the contiguous range.
            _ => (lo, hi),
        };
        (nlo <= nhi).then_some((nlo, nhi))
    }
}

/// A conjunction of per-dimension conditions (the Subsample predicate).
#[derive(Debug, Clone, Default)]
pub struct DimPredicate {
    conds: Vec<(String, DimCond)>,
}

impl DimPredicate {
    /// The empty (always-true) predicate.
    pub fn new() -> Self {
        DimPredicate::default()
    }

    /// Adds a condition on dimension `dim` (fluent).
    pub fn with(mut self, dim: impl Into<String>, cond: DimCond) -> Self {
        self.conds.push((dim.into(), cond));
        self
    }

    /// The conditions.
    pub fn conds(&self) -> &[(String, DimCond)] {
        &self.conds
    }

    /// Validates that every referenced dimension exists in `schema`.
    pub fn validate(&self, schema: &ArraySchema) -> Result<()> {
        for (dim, _) in &self.conds {
            schema.require_dim(dim)?;
        }
        Ok(())
    }

    /// Evaluates the conjunction for one coordinate vector.
    pub fn matches(
        &self,
        schema: &ArraySchema,
        coords: &[i64],
        registry: Option<&Registry>,
    ) -> Result<bool> {
        for (dim, cond) in &self.conds {
            let d = schema.require_dim(dim)?;
            if !cond.matches(coords[d], registry)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Narrows a chunk rectangle; `None` if the chunk cannot contain
    /// matches (the structural-operator pruning opportunity of §2.2.1).
    pub fn narrow_rect(&self, schema: &ArraySchema, rect: &HyperRect) -> Option<HyperRect> {
        let mut low = rect.low.clone();
        let mut high = rect.high.clone();
        for (dim, cond) in &self.conds {
            let d = schema.dim_index(dim)?;
            let (nlo, nhi) = cond.narrow(low[d], high[d])?;
            low[d] = nlo;
            high[d] = nhi;
        }
        // analyze: allow(R4, an inverted rect means the predicate matches nothing; None is pruning, not an error)
        HyperRect::new(low, high).ok()
    }
}

/// `Subsample(A, P)`: selects the subslab matching a conjunctive dimension
/// predicate. "The output will always have the same number of dimensions as
/// the input … the index values are retained."
pub fn subsample(a: &Array, pred: &DimPredicate, registry: Option<&Registry>) -> Result<Array> {
    subsample_with(a, pred, registry, &crate::exec::ExecContext::serial())
}

/// [`subsample`] under an [`ExecContext`](crate::exec::ExecContext):
/// structural pruning first discards chunks whose rectangle cannot match,
/// then surviving chunks are filtered cell-by-cell in parallel.
pub fn subsample_with(
    a: &Array,
    pred: &DimPredicate,
    registry: Option<&Registry>,
    ctx: &crate::exec::ExecContext,
) -> Result<Array> {
    pred.validate(a.schema())?;
    // Structural pruning: skip chunks whose rectangle cannot match.
    let survivors: Vec<&Chunk> = a
        .chunks()
        .values()
        .filter(|chunk| pred.narrow_rect(a.schema(), chunk.rect()).is_some())
        .collect();
    // Columnar path: a conjunctive dimension predicate reduces to
    // per-dimension lookup tables that pick the lanes to keep.
    // It declines `DimCond::Fn`, which can error and needs the registry.
    super::map_chunks(
        "subsample",
        &survivors,
        Array::from_arc(a.schema_arc()),
        ctx,
        |chunk| super::batch::subsample_columns(chunk, a.schema(), pred),
        |chunk, coords, lane| {
            Ok(pred
                .matches(a.schema(), coords, registry)?
                .then(|| chunk.record_at(lane)))
        },
    )
}

/// `Exists? [A, 7, 7]` (§2.2.1): cell-presence test.
pub fn exists(a: &Array, coords: &[i64]) -> bool {
    a.exists(coords)
}

/// `Reshape(G, [X, Z, Y], [U = 1:8, V = 1:3])` (§2.2.1).
///
/// `order` lists the input dimensions in linearization order — the first
/// "most slowly" and the last "most quickly" varying. The linearized cells
/// are then re-formed into the new dimensions (first new dimension slowest).
/// Cell count must be preserved.
pub fn reshape(a: &Array, order: &[&str], new_dims: &[(String, i64)]) -> Result<Array> {
    let schema = a.schema();
    if order.len() != schema.rank() {
        return Err(Error::dimension(format!(
            "reshape order lists {} of {} dimensions",
            order.len(),
            schema.rank()
        )));
    }
    let mut perm = Vec::with_capacity(order.len());
    for name in order {
        let d = schema.require_dim(name)?;
        if perm.contains(&d) {
            return Err(Error::dimension(format!("dimension '{name}' listed twice")));
        }
        perm.push(d);
    }
    let old_rect = a
        .rect()
        .ok_or_else(|| Error::dimension("reshape requires a fully bounded array"))?;
    let old_count: i64 = old_rect.volume() as i64;
    let new_count: i64 = new_dims.iter().map(|(_, n)| *n).product();
    if old_count != new_count {
        return Err(Error::dimension(format!(
            "reshape must preserve cell count: {old_count} vs {new_count}"
        )));
    }
    for (name, n) in new_dims {
        if *n < 1 {
            return Err(Error::dimension(format!(
                "dimension '{name}' bound {n} < 1"
            )));
        }
    }

    let out_schema = ArraySchema::new(
        format!("reshape({})", schema.name()),
        schema.attrs().to_vec(),
        new_dims
            .iter()
            .map(|(name, n)| DimensionDef::bounded(name.clone(), *n))
            .collect(),
    )?;
    let mut out = Array::new(out_schema);

    // Permuted extents for linearization.
    let perm_lens: Vec<i64> = perm.iter().map(|&d| old_rect.len(d)).collect();
    let new_rect = out
        .rect()
        .ok_or_else(|| Error::dimension("reshape output must be bounded"))?;

    for (coords, rec) in a.cells() {
        // Linear position with `order[0]` slowest, `order[last]` fastest.
        let mut lin: i64 = 0;
        for (k, &d) in perm.iter().enumerate() {
            lin = lin * perm_lens[k] + (coords[d] - 1);
        }
        let new_coords = new_rect.delinearize(lin as usize);
        out.set_cell(&new_coords, rec)?;
    }
    Ok(out)
}

/// Builds the output attribute list of a join: A's attributes keep their
/// names; clashing B attributes are suffixed `_r` ("right").
fn join_attrs(a: &ArraySchema, b: &ArraySchema) -> Vec<AttributeDef> {
    let mut attrs = a.attrs().to_vec();
    for attr in b.attrs() {
        let mut def = attr.clone();
        if a.attr_index(&attr.name).is_some() {
            def.name = format!("{}_r", attr.name);
        }
        attrs.push(def);
    }
    attrs
}

/// Builds joined dimension list: all of A's dims, plus B's dims not named
/// in `drop_b`, suffixed `_r` on clashes.
fn join_dims(a: &ArraySchema, b: &ArraySchema, drop_b: &[usize]) -> Vec<DimensionDef> {
    let mut dims = a.dims().to_vec();
    for (i, d) in b.dims().iter().enumerate() {
        if drop_b.contains(&i) {
            continue;
        }
        let mut def = d.clone();
        if a.dim_index(&d.name).is_some() {
            def.name = format!("{}_r", d.name);
        }
        dims.push(def);
    }
    dims
}

/// `Sjoin(A, B, predicate)` (§2.2.1): structured join whose predicate is a
/// conjunction of equalities **over dimension values only**.
///
/// `on` pairs `(a_dim, b_dim)`. For an m-D and an n-D input joined on k
/// dimension pairs, the result is (m + n − k)-dimensional "with concatenated
/// cell tuples wherever the JOIN-predicate is true" — Figure 1.
///
/// Co-aligned inputs ([`sjoin_is_aligned`]) join chunk by chunk, by
/// position; all others through a hash table on B's join dimensions.
pub fn sjoin(a: &Array, b: &Array, on: &[(&str, &str)]) -> Result<Array> {
    if on.is_empty() {
        return Err(Error::dimension(
            "sjoin requires at least one dimension pair",
        ));
    }
    let mut a_dims = Vec::new();
    let mut b_dims = Vec::new();
    for (da, db) in on {
        let ia = a.schema().require_dim(da)?;
        let ib = b.schema().require_dim(db)?;
        if a_dims.contains(&ia) || b_dims.contains(&ib) {
            return Err(Error::dimension("dimension joined twice"));
        }
        a_dims.push(ia);
        b_dims.push(ib);
    }

    let out_schema = ArraySchema::new(
        format!("sjoin({},{})", a.schema().name(), b.schema().name()),
        join_attrs(a.schema(), b.schema()),
        join_dims(a.schema(), b.schema(), &b_dims),
    )?;
    if sjoin_is_aligned(a.schema(), b.schema(), on) {
        return sjoin_chunks(a, b, out_schema);
    }
    let mut out = Array::new(out_schema);

    // Hash B on its join-dimension values.
    let mut table: HashMap<Vec<i64>, Vec<(Coords, Record)>> = HashMap::new();
    for (coords, rec) in b.cells() {
        let key: Vec<i64> = b_dims.iter().map(|&d| coords[d]).collect();
        table.entry(key).or_default().push((coords, rec));
    }

    for (coords, rec) in a.cells() {
        let key: Vec<i64> = a_dims.iter().map(|&d| coords[d]).collect();
        let Some(matches) = table.get(&key) else {
            continue;
        };
        for (b_coords, b_rec) in matches {
            let mut out_coords = coords.clone();
            for (i, c) in b_coords.iter().enumerate() {
                if !b_dims.contains(&i) {
                    out_coords.push(*c);
                }
            }
            let mut out_rec = rec.clone();
            out_rec.extend(b_rec.iter().cloned());
            out.set_cell(&out_coords, out_rec)?;
        }
    }
    Ok(out)
}

/// Whether [`sjoin`] takes its positional path: `on` pairs dimension *k*
/// of A with dimension *k* of B for every *k*, and the schemas agree on
/// rank, `upper` and `chunk_len` on every dimension. Equal coordinates
/// then sit at the same offset of the same chunk on both sides, so the
/// join is a per-chunk concatenation; every other join hashes B.
pub fn sjoin_is_aligned(a: &ArraySchema, b: &ArraySchema, on: &[(&str, &str)]) -> bool {
    a.rank() == b.rank()
        && on.len() == a.rank()
        && a.dims()
            .iter()
            .zip(b.dims())
            .all(|(da, db)| da.upper == db.upper && da.chunk_len == db.chunk_len)
        && (0..a.rank()).all(|k| {
            on.iter()
                .any(|(da, db)| a.dim_index(da) == Some(k) && b.dim_index(db) == Some(k))
        })
}

/// The positional path of [`sjoin`]: each pair of chunks at one origin
/// joins on the cells present in both. Equal presence shares the offsets
/// and concatenates the columns; otherwise a merge of the two sorted offset
/// lists picks the common lanes and both sides' columns are gathered.
fn sjoin_chunks(a: &Array, b: &Array, schema: ArraySchema) -> Result<Array> {
    let attr_types: Vec<_> = schema.attrs().iter().map(|x| x.ty.clone()).collect();
    let mut out = Array::new(schema);
    for (origin, ca) in a.chunks() {
        let Some(cb) = b.chunks().get(origin) else {
            continue;
        };
        let joined = if ca.offsets() == cb.offsets() {
            let columns = ca.columns().iter().chain(cb.columns()).cloned().collect();
            ca.with_columns(attr_types.clone(), columns)
        } else {
            let (mut la, mut lb) = (Vec::new(), Vec::new());
            let (oa, ob) = (ca.offsets(), cb.offsets());
            let (mut i, mut j) = (0, 0);
            while i < oa.len() && j < ob.len() {
                match oa[i].cmp(&ob[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        la.push(i);
                        lb.push(j);
                        i += 1;
                        j += 1;
                    }
                }
            }
            let columns = (ca.columns().iter().map(|c| c.gather(&la)))
                .chain(cb.columns().iter().map(|c| c.gather(&lb)))
                .collect();
            let offsets = la.iter().map(|&l| oa[l]).collect();
            Chunk::from_parts(
                ca.rect().clone(),
                attr_types.clone(),
                Arc::new(offsets),
                columns,
            )?
        };
        if !joined.is_empty() {
            out.insert_chunk(joined);
        }
    }
    Ok(out)
}

/// `add dimension` (§2.2.1): appends a new dimension of extent 1; every
/// existing cell moves to coordinate 1 along it.
pub fn add_dimension(a: &Array, name: &str) -> Result<Array> {
    if a.schema().dim_index(name).is_some() {
        return Err(Error::AlreadyExists(format!("dimension '{name}'")));
    }
    let mut dims = a.schema().dims().to_vec();
    dims.push(DimensionDef::bounded(name, 1));
    let schema = ArraySchema::new(
        format!("adddim({})", a.schema().name()),
        a.schema().attrs().to_vec(),
        dims,
    )?;
    // Each chunk gains the new extent-1 side; its lanes stay as they are.
    let layers = a.chunks().values().map(|c| {
        let mut rect = c.rect().clone();
        rect.low.push(1);
        rect.high.push(1);
        Ok(Layer::from(c.clone().relabel(rect)?))
    });
    Array::assemble(Arc::new(schema), layers.collect::<Result<Vec<_>>>()?)
}

/// `remove dimension` (§2.2.1): slices the array at `at` along dimension
/// `name` and drops that dimension.
pub fn remove_dimension(a: &Array, name: &str, at: i64) -> Result<Array> {
    let d = a.schema().require_dim(name)?;
    if a.schema().rank() == 1 {
        return Err(Error::dimension("cannot remove the only dimension"));
    }
    let mut dims = a.schema().dims().to_vec();
    dims.remove(d);
    let schema = ArraySchema::new(
        format!("slice({})", a.schema().name()),
        a.schema().attrs().to_vec(),
        dims,
    )?;
    // Each chunk that meets `at` is projected onto its slab there, which
    // has extent 1 along `d`, and relabelled without dimension `d`.
    let meets = |c: &&Chunk| c.rect().low[d] <= at && at <= c.rect().high[d];
    let layers = a.chunks().values().filter(meets).map(|c| {
        let mut slab = c.rect().clone();
        (slab.low[d], slab.high[d]) = (at, at);
        let mut sliced = slab.clone();
        sliced.low.remove(d);
        sliced.high.remove(d);
        Ok(Layer::from(c.project_onto(&slab, &slab).relabel(sliced)?))
    });
    Array::assemble(Arc::new(schema), layers.collect::<Result<Vec<_>>>()?)
}

/// `Concatenate` (§2.2.1): appends B after A along dimension `dim`.
/// Attribute lists must match; the other dimensions must have equal bounds.
pub fn concat(a: &Array, b: &Array, dim: &str) -> Result<Array> {
    if !a.schema().attrs_compatible(b.schema()) {
        return Err(Error::schema("concat requires identical attribute lists"));
    }
    let d = a.schema().require_dim(dim)?;
    let db = b.schema().require_dim(dim)?;
    if a.schema().rank() != b.schema().rank() {
        return Err(Error::dimension("concat requires equal rank"));
    }
    for (i, (da, dbm)) in a.schema().dims().iter().zip(b.schema().dims()).enumerate() {
        if i != d && da.upper != dbm.upper {
            return Err(Error::dimension(format!(
                "concat: dimension '{}' bounds differ",
                da.name
            )));
        }
    }
    let a_extent = a.schema().dims()[d]
        .upper
        .unwrap_or_else(|| a.high_water(d));
    let b_upper = b.schema().dims()[db].upper;

    let mut dims = a.schema().dims().to_vec();
    dims[d].upper = match (dims[d].upper, b_upper) {
        (Some(_), Some(bu)) => Some(a_extent + bu),
        _ => None,
    };
    let schema = ArraySchema::new(
        format!("concat({},{})", a.schema().name(), b.schema().name()),
        a.schema().attrs().to_vec(),
        dims,
    )?;
    // A's chunks, and B's translated by `a_extent` along `d`, are cut onto
    // the output grid: A's last chunk along `d` grows when A's bound
    // clipped it, and where A's tail and B's head share a grid chunk the
    // two overlay (their cells never collide).
    let schema = Arc::new(schema);
    let mut layers = Vec::new();
    for (x, shift) in [(a, 0), (b, a_extent)] {
        for c in x.chunks().values() {
            let mut rect = c.rect().clone();
            rect.low[d] += shift;
            rect.high[d] += shift;
            let moved = c.clone().relabel(rect)?;
            let keep = moved.rect().clone();
            layers.extend(cut(moved, &keep, &schema));
        }
    }
    Array::assemble(schema, layers.into_iter().map(Layer::from))
}

/// `Cross product` (§2.2.1): the (m+n)-dimensional array pairing every cell
/// of A with every cell of B, records concatenated.
pub fn cross_product(a: &Array, b: &Array) -> Result<Array> {
    let schema = ArraySchema::new(
        format!("cross({},{})", a.schema().name(), b.schema().name()),
        join_attrs(a.schema(), b.schema()),
        join_dims(a.schema(), b.schema(), &[]),
    )?;
    let mut out = Array::new(schema);
    for (a_coords, a_rec) in a.cells() {
        for (b_coords, b_rec) in b.cells() {
            let mut coords = a_coords.clone();
            coords.extend_from_slice(&b_coords);
            let mut rec = a_rec.clone();
            rec.extend(b_rec.iter().cloned());
            out.set_cell(&coords, rec)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;
    use crate::schema::SchemaBuilder;
    use crate::value::{record, ScalarType};

    /// 2-D array F with dims X, Y; F[x,y] = 10x + y.
    fn grid(nx: i64, ny: i64) -> Array {
        let schema = SchemaBuilder::new("F")
            .attr("v", ScalarType::Int64)
            .dim("X", nx)
            .dim("Y", ny)
            .build()
            .unwrap();
        let mut a = Array::new(schema);
        a.fill_with(|c| record([Value::from(10 * c[0] + c[1])]))
            .unwrap();
        a
    }

    #[test]
    fn subsample_even_x_matches_paper_example() {
        // Subsample(F, even(X)) keeps slices with even X, indices retained.
        let f = grid(4, 3);
        let r = Registry::with_builtins();
        let pred = DimPredicate::new().with("X", DimCond::Fn("even".into()));
        let out = subsample(&f, &pred, Some(&r)).unwrap();
        assert_eq!(out.rank(), 2);
        assert_eq!(out.cell_count(), 6);
        assert!(out.exists(&[2, 1]) && out.exists(&[4, 3]));
        assert!(!out.exists(&[1, 1]) && !out.exists(&[3, 2]));
        // Index values retained, not renumbered.
        assert_eq!(out.get_f64(0, &[2, 3]), Some(23.0));
    }

    #[test]
    fn subsample_conjunction() {
        // "X = 3 and Y < 4" — the paper's legal predicate.
        let f = grid(5, 5);
        let pred = DimPredicate::new()
            .with("X", DimCond::Eq(3))
            .with("Y", DimCond::Lt(4));
        let out = subsample(&f, &pred, None).unwrap();
        let coords: Vec<_> = out.cells().map(|(c, _)| c).collect();
        assert_eq!(coords, vec![vec![3, 1], vec![3, 2], vec![3, 3]]);
    }

    #[test]
    fn subsample_unknown_dim_rejected() {
        let f = grid(2, 2);
        let pred = DimPredicate::new().with("Z", DimCond::Eq(1));
        assert!(subsample(&f, &pred, None).is_err());
    }

    #[test]
    fn subsample_between_and_in() {
        let f = grid(6, 1);
        let pred = DimPredicate::new().with("X", DimCond::Between(2, 4));
        assert_eq!(subsample(&f, &pred, None).unwrap().cell_count(), 3);
        let pred = DimPredicate::new().with("X", DimCond::In(vec![1, 6]));
        assert_eq!(subsample(&f, &pred, None).unwrap().cell_count(), 2);
    }

    #[test]
    fn dimcond_narrow_prunes() {
        assert_eq!(DimCond::Eq(5).narrow(1, 10), Some((5, 5)));
        assert_eq!(DimCond::Eq(15).narrow(1, 10), None);
        assert_eq!(DimCond::Between(3, 20).narrow(1, 10), Some((3, 10)));
        assert_eq!(DimCond::Lt(1).narrow(1, 10), None);
        assert_eq!(DimCond::Even.narrow(1, 10), Some((1, 10)));
    }

    #[test]
    fn exists_probe() {
        let f = grid(2, 2);
        assert!(exists(&f, &[2, 2]));
        assert!(!exists(&f, &[3, 1]));
    }

    #[test]
    fn reshape_2x3x4_to_8x3_like_paper() {
        // Reshape(G, [X, Z, Y], [U = 1:8, V = 1:3])
        let schema = SchemaBuilder::new("G")
            .attr("v", ScalarType::Int64)
            .dim("X", 2)
            .dim("Y", 3)
            .dim("Z", 4)
            .build()
            .unwrap();
        let mut g = Array::new(schema);
        g.fill_with(|c| record([Value::from(100 * c[0] + 10 * c[1] + c[2])]))
            .unwrap();
        let out = reshape(&g, &["X", "Z", "Y"], &[("U".into(), 8), ("V".into(), 3)]).unwrap();
        assert_eq!(out.rank(), 2);
        assert_eq!(out.cell_count(), 24);
        assert_eq!(out.schema().dims()[0].name, "U");
        // Linearization: X slowest, Y fastest. First cell = G[1,1,1].
        assert_eq!(out.get_f64(0, &[1, 1]), Some(111.0));
        // Position 1 (0-based) = G[1,2,1] (Y varies fastest).
        assert_eq!(out.get_f64(0, &[1, 2]), Some(121.0));
        // Position 3 = G[1,1,2] (after Y wraps 3 values).
        assert_eq!(out.get_f64(0, &[2, 1]), Some(112.0));
        // Last cell = G[2,3,4].
        assert_eq!(out.get_f64(0, &[8, 3]), Some(234.0));
    }

    #[test]
    fn reshape_to_1d() {
        let g = grid(2, 3);
        let out = reshape(&g, &["X", "Y"], &[("k".into(), 6)]).unwrap();
        assert_eq!(out.rank(), 1);
        assert_eq!(out.get_f64(0, &[1]), Some(11.0));
        assert_eq!(out.get_f64(0, &[6]), Some(23.0));
    }

    #[test]
    fn reshape_count_mismatch_rejected() {
        let g = grid(2, 3);
        assert!(reshape(&g, &["X", "Y"], &[("k".into(), 5)]).is_err());
    }

    #[test]
    fn reshape_rejects_partial_order() {
        let g = grid(2, 3);
        assert!(reshape(&g, &["X"], &[("k".into(), 6)]).is_err());
        assert!(reshape(&g, &["X", "X"], &[("k".into(), 6)]).is_err());
    }

    #[test]
    fn sjoin_figure1() {
        // Figure 1: two 1-D arrays with values [1, 2]; join on the
        // dimension; result has concatenated values at matching indices.
        let a = Array::int_1d("A", "x", &[1, 2]);
        let b = Array::int_1d("B", "x", &[1, 2]);
        let out = sjoin(&a, &b, &[("i", "i")]).unwrap();
        assert_eq!(out.rank(), 1); // 1 + 1 - 1
        assert_eq!(out.schema().attrs().len(), 2);
        assert_eq!(
            out.get_cell(&[1]),
            Some(vec![Value::from(1i64), Value::from(1i64)])
        );
        assert_eq!(
            out.get_cell(&[2]),
            Some(vec![Value::from(2i64), Value::from(2i64)])
        );
        assert_eq!(out.cell_count(), 2);
        // Clashing attribute renamed.
        assert_eq!(out.schema().attrs()[1].name, "x_r");
    }

    #[test]
    fn sjoin_partial_dims_gives_m_plus_n_minus_k() {
        // 2-D ⋈ 1-D on one dim pair → 2 dimensional result.
        let a = grid(2, 2); // dims X, Y
        let b = Array::int_1d("B", "w", &[5, 6]); // dim i
        let out = sjoin(&a, &b, &[("X", "i")]).unwrap();
        assert_eq!(out.rank(), 2); // 2 + 1 - 1
        assert_eq!(out.cell_count(), 4);
        // A[2,1] joins B[2]=6.
        assert_eq!(
            out.get_cell(&[2, 1]),
            Some(vec![Value::from(21i64), Value::from(6i64)])
        );
    }

    #[test]
    fn sjoin_no_match_empty() {
        let a = Array::int_1d("A", "x", &[1]);
        let mut b = Array::new(
            SchemaBuilder::new("B")
                .attr("y", ScalarType::Int64)
                .dim("i", 5)
                .build()
                .unwrap(),
        );
        b.set_cell(&[5], record([Value::from(9i64)])).unwrap();
        let out = sjoin(&a, &b, &[("i", "i")]).unwrap();
        assert_eq!(out.cell_count(), 0);
    }

    /// `n × n` float array chunked `chunk` with dims `i, j`, holding
    /// `v = 100i + j` everywhere.
    fn dense_ij(n: i64, chunk: i64) -> Array {
        let schema = SchemaBuilder::new("D")
            .attr("v", ScalarType::Float64)
            .dim_chunked("i", n, chunk)
            .dim_chunked("j", n, chunk)
            .build()
            .unwrap();
        let mut a = Array::new(schema);
        a.fill_with(|c| record([Value::from((c[0] * 100 + c[1]) as f64)]))
            .unwrap();
        a
    }

    /// 12×12 array (`v = float`, `w = int` with NULLs) chunked 4×4, each
    /// chunk filled at a seeded density: empty, sparse, mostly or fully
    /// present — so chunk pairs meet dense-dense, dense-sparse and
    /// sparse-sparse.
    fn seeded_ij(seed: u64) -> Array {
        let mut rng = SmallRng::seed_from_u64(seed);
        let schema = SchemaBuilder::new("S")
            .attr("v", ScalarType::Float64)
            .attr("w", ScalarType::Int64)
            .dim_chunked("i", 12, 4)
            .dim_chunked("j", 12, 4)
            .build()
            .unwrap();
        let mut a = Array::new(schema);
        for (ci, cj) in (0..3).flat_map(|ci| (0..3).map(move |cj| (ci, cj))) {
            let fill = [0.0, 0.1, 0.6, 1.0][rng.gen_range(0..4usize)];
            for (i, j) in (1..=4).flat_map(|i| (1..=4).map(move |j| (i, j))) {
                if !rng.gen_bool(fill) {
                    continue;
                }
                let w = if rng.gen_bool(0.2) {
                    Value::Null
                } else {
                    Value::from(rng.gen_range(-3..=3i64))
                };
                let v = Value::from(rng.gen_range(0.0..1.0f64));
                a.set_cell(&[4 * ci + i, 4 * cj + j], vec![v, w]).unwrap();
            }
        }
        a
    }

    /// Joins `a ⋈ b` on every dimension, and again with `b` re-chunked so
    /// the hash path runs; asserts the two agree and returns the first.
    fn join_both_ways(a: &Array, b: &Array) -> Array {
        let on = [("i", "i"), ("j", "j")];
        let mut dims = b.schema().dims().to_vec();
        for d in &mut dims {
            d.chunk_len = if d.chunk_len > 1 { d.chunk_len - 1 } else { 2 };
        }
        let mut b2 = Array::new(
            ArraySchema::new(b.schema().name(), b.schema().attrs().to_vec(), dims).unwrap(),
        );
        for (coords, rec) in b.cells() {
            b2.set_cell(&coords, rec).unwrap();
        }
        assert!(!sjoin_is_aligned(a.schema(), b2.schema(), &on));
        let hashed = sjoin(a, &b2, &on).unwrap();
        let out = sjoin(a, b, &on).unwrap();
        assert_eq!(out.schema().attrs(), hashed.schema().attrs());
        assert!(out.same_cells(&hashed), "positional and hash joins differ");
        out
    }

    #[test]
    fn sjoin_positional_path_agrees_with_hash_path() {
        let on = [("i", "i"), ("j", "j")];
        for seed in 0..200 {
            let (a, b) = (seeded_ij(seed), seeded_ij(seed + 1000));
            assert!(sjoin_is_aligned(a.schema(), b.schema(), &on));
            join_both_ways(&a, &b);
        }
    }

    #[test]
    fn sjoin_positional_path_cases() {
        let on = [("i", "i"), ("j", "j")];
        // Fully dense: every cell joins.
        let full = join_both_ways(&dense_ij(16, 8), &dense_ij(16, 8));
        assert_eq!(full.cell_count(), 256);

        // Partial presence: a cell missing on one side is missing out.
        let mut a = dense_ij(8, 8);
        a.delete_cell(&[3, 3]).unwrap();
        let out = join_both_ways(&a, &dense_ij(8, 8));
        assert_eq!(out.cell_count(), 63);
        assert!(!out.exists(&[3, 3]));
        assert_eq!(
            out.get_cell(&[2, 2]),
            Some(vec![Value::from(202.0), Value::from(202.0)])
        );

        // Sparse chunks of unequal presence: merge the offset lists.
        let mut a = Array::new(dense_ij(8, 8).schema().renamed("Sp"));
        let mut b = Array::new(dense_ij(8, 8).schema().renamed("Sp2"));
        a.set_cell(&[1, 1], record([Value::from(1.0)])).unwrap();
        a.set_cell(&[2, 2], record([Value::from(2.0)])).unwrap();
        b.set_cell(&[2, 2], record([Value::from(20.0)])).unwrap();
        let out = join_both_ways(&a, &b);
        assert_eq!(out.cell_count(), 1);
        assert_eq!(
            out.get_cell(&[2, 2]),
            Some(vec![Value::from(2.0), Value::from(20.0)])
        );

        // Misaligned chunking or bounds, or crossed dimensions: the hash
        // path answers instead of an error.
        let a = dense_ij(16, 8);
        for (b, cells) in [(dense_ij(16, 4), 256), (dense_ij(8, 8), 64)] {
            assert!(!sjoin_is_aligned(a.schema(), b.schema(), &on));
            assert_eq!(sjoin(&a, &b, &on).unwrap().cell_count(), cells);
        }
        let crossed = [("i", "j"), ("j", "i")];
        assert!(!sjoin_is_aligned(a.schema(), a.schema(), &crossed));
        let out = sjoin(&a, &a, &crossed).unwrap();
        assert_eq!(out.get_f64(1, &[3, 5]), Some(503.0));
    }

    #[test]
    fn add_remove_dimension_roundtrip() {
        let a = grid(2, 3);
        let up = add_dimension(&a, "layer").unwrap();
        assert_eq!(up.rank(), 3);
        assert_eq!(up.get_f64(0, &[2, 3, 1]), Some(23.0));
        let down = remove_dimension(&up, "layer", 1).unwrap();
        assert_eq!(down.rank(), 2);
        assert!(down.same_cells(&a));
    }

    #[test]
    fn remove_dimension_slices() {
        let a = grid(3, 4);
        let row2 = remove_dimension(&a, "X", 2).unwrap();
        assert_eq!(row2.rank(), 1);
        assert_eq!(row2.cell_count(), 4);
        assert_eq!(row2.get_f64(0, &[4]), Some(24.0));
    }

    #[test]
    fn remove_only_dimension_rejected() {
        let a = Array::int_1d("A", "x", &[1, 2]);
        assert!(remove_dimension(&a, "i", 1).is_err());
    }

    #[test]
    fn concat_along_dimension() {
        let a = grid(2, 3);
        let b = grid(2, 3);
        let out = concat(&a, &b, "X").unwrap();
        assert_eq!(out.schema().dims()[0].upper, Some(4));
        assert_eq!(out.cell_count(), 12);
        assert_eq!(out.get_f64(0, &[3, 1]), Some(11.0)); // b[1,1] shifted
        assert_eq!(out.get_f64(0, &[2, 3]), Some(23.0)); // a[2,3] in place
    }

    #[test]
    fn concat_requires_matching_bounds_and_attrs() {
        let a = grid(2, 3);
        let b = grid(2, 4);
        assert!(concat(&a, &b, "X").is_err());
        let c = Array::f64_2d("C", "v", &[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert!(concat(&a, &c, "X").is_err()); // attr type differs
    }

    #[test]
    fn cross_product_dims_and_cells() {
        let a = Array::int_1d("A", "x", &[1, 2]);
        let b = Array::int_1d("B", "y", &[7, 8, 9]);
        let out = cross_product(&a, &b).unwrap();
        assert_eq!(out.rank(), 2);
        assert_eq!(out.cell_count(), 6);
        assert_eq!(
            out.get_cell(&[2, 3]),
            Some(vec![Value::from(2i64), Value::from(9i64)])
        );
        // Clashing dim name suffixed.
        assert_eq!(out.schema().dims()[1].name, "i_r");
    }
}
