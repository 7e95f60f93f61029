//! The array container: a chunked, multi-dimensional, nested array
//! (§2.1), with optional enhancements (pseudo-coordinate systems) and at
//! most one shape function (ragged bounds).
//!
//! Cells are addressed by 1-based integer coordinates — `A[7, 8]` — or, for
//! enhanced arrays, by pseudo-coordinates — `A{16.3, 48.2}` — resolved
//! through an enhancement's inverse. Data is stored in rectangular chunks
//! with columnar attribute storage (see [`crate::chunk`]).

use crate::chunk::{Chunk, Layer};
use crate::enhance::{EnhancementRef, PseudoValue};
use crate::error::{Error, Result};
use crate::geometry::{chunk_origin_of, chunk_rect, Coords, HyperRect};
use crate::schema::ArraySchema;
use crate::shape::ShapeRef;
use crate::value::{Record, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A multi-dimensional array instance.
#[derive(Debug, Clone)]
pub struct Array {
    schema: Arc<ArraySchema>,
    chunks: BTreeMap<Coords, Chunk>,
    enhancements: Vec<EnhancementRef>,
    shape: Option<ShapeRef>,
}

impl PartialEq for Array {
    /// Equality compares schema and cell contents plus the *names* of
    /// attached enhancements and shape function (function bodies are opaque).
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.chunks == other.chunks
            && self
                .enhancements
                .iter()
                .map(|e| e.name())
                .eq(other.enhancements.iter().map(|e| e.name()))
            && self.shape.as_ref().map(|s| s.name()) == other.shape.as_ref().map(|s| s.name())
    }
}

impl Array {
    /// Creates an empty array with the given schema.
    pub fn new(schema: ArraySchema) -> Array {
        Array::from_arc(Arc::new(schema))
    }

    /// Creates an empty array sharing an existing schema handle.
    pub fn from_arc(schema: Arc<ArraySchema>) -> Array {
        Array {
            schema,
            chunks: BTreeMap::new(),
            enhancements: Vec::new(),
            shape: None,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &ArraySchema {
        &self.schema
    }

    /// Shared schema handle.
    pub fn schema_arc(&self) -> Arc<ArraySchema> {
        Arc::clone(&self.schema)
    }

    /// The same array under another name: the schema handle is swapped and
    /// the chunks are kept as they are (the dimensions are unchanged, so
    /// every chunk rectangle stays valid).
    pub fn renamed(self, name: impl Into<String>) -> Array {
        Array {
            schema: Arc::new(self.schema.renamed(name)),
            ..self
        }
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.schema.rank()
    }

    /// Per-dimension chunk strides.
    pub fn strides(&self) -> Vec<i64> {
        self.schema.dims().iter().map(|d| d.chunk_len).collect()
    }

    /// Per-dimension upper bounds (`None` = unbounded).
    pub fn uppers(&self) -> Vec<Option<i64>> {
        self.schema.dims().iter().map(|d| d.upper).collect()
    }

    /// The full bounding rectangle, if every dimension is bounded.
    pub fn rect(&self) -> Option<HyperRect> {
        let high: Option<Vec<i64>> = self.schema.dims().iter().map(|d| d.upper).collect();
        high.map(|h| HyperRect {
            low: vec![1; self.rank()],
            high: h,
        })
    }

    /// Validates that `coords` addresses a legal cell: correct rank, each
    /// coordinate ≥ 1, within the high-water mark of bounded dimensions,
    /// and inside the shape function if one is attached.
    pub fn validate_coords(&self, coords: &[i64]) -> Result<()> {
        if coords.len() != self.rank() {
            return Err(Error::dimension(format!(
                "array '{}' has rank {}, got {} coordinates",
                self.schema.name(),
                self.rank(),
                coords.len()
            )));
        }
        for (d, (&c, dim)) in coords.iter().zip(self.schema.dims()).enumerate() {
            if c < 1 {
                return Err(Error::dimension(format!(
                    "coordinate {c} for dimension '{}' (index {d}) must be >= 1",
                    dim.name
                )));
            }
            if let Some(u) = dim.upper {
                if c > u {
                    return Err(Error::dimension(format!(
                        "coordinate {c} exceeds high-water mark {u} of dimension '{}'",
                        dim.name
                    )));
                }
            }
        }
        if let Some(shape) = &self.shape {
            if !shape.contains(coords) {
                return Err(Error::dimension(format!(
                    "cell {coords:?} is outside shape '{}'",
                    shape.name()
                )));
            }
        }
        Ok(())
    }

    /// True if `coords` is a legal address (without shape violation being an
    /// error — used by readers).
    fn addressable(&self, coords: &[i64]) -> bool {
        coords.len() == self.rank()
            && coords
                .iter()
                .zip(self.schema.dims())
                .all(|(&c, dim)| c >= 1 && dim.upper.is_none_or(|u| c <= u))
    }

    // ----- cell access --------------------------------------------------

    /// Writes a full record at `coords`.
    pub fn set_cell(&mut self, coords: &[i64], record: Record) -> Result<()> {
        self.validate_coords(coords)?;
        let chunk = self.ensure_chunk(coords);
        chunk.set_record(coords, &record)
    }

    /// Writes one attribute (by index) at `coords`.
    pub fn set_value(&mut self, attr: usize, coords: &[i64], value: Value) -> Result<()> {
        self.validate_coords(coords)?;
        if attr >= self.schema.attrs().len() {
            return Err(Error::schema(format!(
                "attribute index {attr} out of range"
            )));
        }
        let chunk = self.ensure_chunk(coords);
        chunk.set_value(attr, coords, &value)
    }

    /// Writes one attribute (by name) at `coords`.
    pub fn set_named(&mut self, attr: &str, coords: &[i64], value: Value) -> Result<()> {
        let idx = self.schema.require_attr(attr)?;
        self.set_value(idx, coords, value)
    }

    /// Reads the record at `coords`; `None` if the cell is empty or outside
    /// the array.
    pub fn get_cell(&self, coords: &[i64]) -> Option<Record> {
        if !self.exists(coords) {
            return None;
        }
        self.chunk_for(coords).and_then(|c| c.get_record(coords))
    }

    /// Reads one attribute (by index) at `coords`.
    pub fn get_value(&self, attr: usize, coords: &[i64]) -> Option<Value> {
        if !self.exists(coords) {
            return None;
        }
        self.chunk_for(coords)
            .and_then(|c| c.get_value(attr, coords))
    }

    /// Reads one attribute (by name) at `coords`; the paper's `A[7, 8].x`.
    pub fn get_named(&self, attr: &str, coords: &[i64]) -> Result<Option<Value>> {
        let idx = self.schema.require_attr(attr)?;
        Ok(self.get_value(idx, coords))
    }

    /// Fast numeric read of one attribute.
    pub fn get_f64(&self, attr: usize, coords: &[i64]) -> Option<f64> {
        if !self.exists(coords) {
            return None;
        }
        let chunk = self.chunk_for(coords)?;
        chunk.value_f64(attr, chunk.lane_at(coords)?)
    }

    /// Borrows a nested-array attribute without cloning it.
    pub fn get_nested(&self, attr: usize, coords: &[i64]) -> Option<&Array> {
        if !self.exists(coords) {
            return None;
        }
        let chunk = self.chunk_for(coords)?;
        chunk.nested_at(attr, chunk.lane_at(coords)?)
    }

    /// The paper's `Exists? [A, 7, 7]`: true if the cell is present
    /// (written, inside bounds, and inside the shape).
    pub fn exists(&self, coords: &[i64]) -> bool {
        if !self.addressable(coords) {
            return false;
        }
        if let Some(shape) = &self.shape {
            if !shape.contains(coords) {
                return false;
            }
        }
        self.chunk_for(coords)
            .is_some_and(|c| c.cell_present(coords))
    }

    /// Removes a cell (marks it empty).
    pub fn delete_cell(&mut self, coords: &[i64]) -> Result<()> {
        self.validate_coords(coords)?;
        let origin = chunk_origin_of(coords, &self.strides());
        if let Some(chunk) = self.chunks.get_mut(&origin) {
            chunk.clear_cell(coords);
        }
        Ok(())
    }

    /// Number of present cells.
    pub fn cell_count(&self) -> usize {
        self.chunks.values().map(Chunk::present_count).sum()
    }

    /// True if no cell is present.
    pub fn is_empty(&self) -> bool {
        self.cell_count() == 0
    }

    // ----- enhancements and shape ----------------------------------------

    /// Attaches an enhancement (`Enhance A with f`, §2.1). Output dimension
    /// names must not clash with an already-attached enhancement.
    pub fn enhance(&mut self, f: EnhancementRef) -> Result<()> {
        if self.enhancements.iter().any(|e| e.name() == f.name()) {
            return Err(Error::AlreadyExists(format!(
                "enhancement '{}' already attached",
                f.name()
            )));
        }
        self.enhancements.push(f);
        Ok(())
    }

    /// The attached enhancements, in attachment order.
    pub fn enhancements(&self) -> &[EnhancementRef] {
        &self.enhancements
    }

    /// Finds an enhancement by name.
    pub fn enhancement(&self, name: &str) -> Option<&EnhancementRef> {
        self.enhancements.iter().find(|e| e.name() == name)
    }

    /// Resolves enhanced (`{…}`) pseudo-coordinates to basic coordinates.
    ///
    /// With `enh = Some(name)` only that enhancement is consulted; with
    /// `None`, the unique enhancement of matching arity is used (ambiguity
    /// is an error, mirroring named addressing `A{K = 20, L = 50}`).
    pub fn resolve_enhanced(
        &self,
        enh: Option<&str>,
        pseudo: &[PseudoValue],
    ) -> Result<Option<Coords>> {
        let candidates: Vec<&EnhancementRef> = match enh {
            Some(name) => vec![self
                .enhancement(name)
                .ok_or_else(|| Error::not_found(format!("enhancement '{name}'")))?],
            None => {
                let matching: Vec<_> = self
                    .enhancements
                    .iter()
                    .filter(|e| e.output_names().len() == pseudo.len())
                    .collect();
                if matching.is_empty() {
                    return Err(Error::not_found(format!(
                        "no enhancement with {} output dimensions",
                        pseudo.len()
                    )));
                }
                if matching.len() > 1 {
                    return Err(Error::dimension(
                        "ambiguous enhanced addressing; name the enhancement",
                    ));
                }
                matching
            }
        };
        candidates[0].inverse(pseudo)
    }

    /// Reads a cell via enhanced addressing — `A{20, 50}`.
    pub fn get_enhanced(
        &self,
        enh: Option<&str>,
        pseudo: &[PseudoValue],
    ) -> Result<Option<Record>> {
        match self.resolve_enhanced(enh, pseudo)? {
            Some(coords) => Ok(self.get_cell(&coords)),
            None => Ok(None),
        }
    }

    /// Attaches the shape function (`Shape A with f`, §2.1). At most one is
    /// allowed.
    pub fn set_shape(&mut self, shape: ShapeRef) -> Result<()> {
        if self.shape.is_some() {
            return Err(Error::AlreadyExists(
                "array already has a shape function (at most one allowed)".into(),
            ));
        }
        self.shape = Some(shape);
        Ok(())
    }

    /// The attached shape function.
    pub fn shape_fn(&self) -> Option<&ShapeRef> {
        self.shape.as_ref()
    }

    /// High-water mark of dimension `d`: the declared bound, the shape
    /// function's global bound, or the observed maximum for unbounded
    /// dimensions (0 when no data).
    pub fn high_water(&self, d: usize) -> i64 {
        if let Some(u) = self.schema.dims()[d].upper {
            return u;
        }
        if let Some(shape) = &self.shape {
            return shape.global_bounds(d).1;
        }
        self.chunks
            .values()
            .filter(|c| !c.is_empty())
            .flat_map(|c| c.iter_present().map(move |(coords, _)| coords[d]))
            .max()
            .unwrap_or(0)
    }

    // ----- iteration ------------------------------------------------------

    /// Iterates `(coords, record)` over present cells, chunk-major
    /// (chunks in origin order, row-major within each chunk).
    pub fn cells(&self) -> impl Iterator<Item = (Coords, Record)> + '_ {
        self.chunks.values().flat_map(move |chunk| {
            chunk
                .iter_present()
                .map(move |(coords, lane)| (coords, chunk.record_at(lane)))
        })
    }

    /// Iterates `(coords, f64)` for a numeric attribute, skipping NULLs.
    pub fn cells_f64(&self, attr: usize) -> impl Iterator<Item = (Coords, f64)> + '_ {
        self.chunks.values().flat_map(move |chunk| {
            chunk
                .iter_present()
                .filter_map(move |(coords, lane)| chunk.value_f64(attr, lane).map(|v| (coords, v)))
        })
    }

    /// Iterates present cells whose coordinates fall in `region`.
    pub fn cells_in<'a>(
        &'a self,
        region: &'a HyperRect,
    ) -> impl Iterator<Item = (Coords, Record)> + 'a {
        self.chunks
            .values()
            .filter(move |c| c.rect().intersects(region))
            .flat_map(move |chunk| {
                chunk.iter_present().filter_map(move |(coords, lane)| {
                    region
                        .contains(&coords)
                        .then(|| (coords, chunk.record_at(lane)))
                })
            })
    }

    /// Fills every cell of a fully bounded array (respecting the shape
    /// function) from a generator.
    pub fn fill_with(&mut self, mut f: impl FnMut(&[i64]) -> Record) -> Result<()> {
        let rect = self
            .rect()
            .ok_or_else(|| Error::dimension("fill_with requires a fully bounded array"))?;
        let shape = self.shape.clone();
        for coords in rect.iter_cells() {
            if let Some(s) = &shape {
                if !s.contains(&coords) {
                    continue;
                }
            }
            let record = f(&coords);
            let chunk = self.ensure_chunk(&coords);
            chunk.set_record(&coords, &record)?;
        }
        Ok(())
    }

    // ----- chunk plumbing (used by the storage and grid crates) -----------

    /// The chunks, keyed by origin.
    pub fn chunks(&self) -> &BTreeMap<Coords, Chunk> {
        &self.chunks
    }

    /// Inserts (or replaces) a whole chunk. The chunk must lie on this
    /// array's grid — over the rectangle [`Array::ensure_chunk`] builds for
    /// its origin — with the schema's attribute types.
    pub fn insert_chunk(&mut self, chunk: Chunk) {
        debug_assert_eq!(
            *chunk.rect(),
            chunk_rect(&chunk.rect().low, &self.strides(), &self.uppers()),
            "chunk off the array's grid"
        );
        debug_assert!(
            chunk
                .attr_types()
                .iter()
                .eq(self.schema.attrs().iter().map(|a| &a.ty)),
            "chunk attribute types differ from the schema's"
        );
        self.chunks.insert(chunk.rect().low.clone(), chunk);
    }

    /// Assembles an array of `schema` from layers laid over one another in
    /// the order given, oldest first — the one assembly path for region
    /// reads, structural operators and history snapshots. Each layer's chunk
    /// must already lie on the grid (see [`cut`]); the layers of one grid
    /// chunk meet in one [`Chunk::overlay`], and a chunk left with no
    /// present cell is not inserted.
    pub fn assemble(
        schema: Arc<ArraySchema>,
        layers: impl IntoIterator<Item = Layer>,
    ) -> Result<Array> {
        let mut targets: BTreeMap<Coords, Vec<Layer>> = BTreeMap::new();
        for layer in layers {
            targets
                .entry(layer.chunk.rect().low.clone())
                .or_default()
                .push(layer);
        }
        let mut out = Array::from_arc(schema);
        for (_, layers) in targets {
            let chunk = Chunk::overlay(layers)?;
            if !chunk.is_empty() {
                out.insert_chunk(chunk);
            }
        }
        Ok(out)
    }

    /// The chunk containing `coords`, if materialized.
    pub fn chunk_for(&self, coords: &[i64]) -> Option<&Chunk> {
        let origin = chunk_origin_of(coords, &self.strides());
        self.chunks.get(&origin)
    }

    /// The chunk containing `coords`, materializing it if needed.
    pub fn ensure_chunk(&mut self, coords: &[i64]) -> &mut Chunk {
        use std::collections::btree_map::Entry;
        let strides = self.strides();
        let origin = chunk_origin_of(coords, &strides);
        let uppers = self.uppers();
        match self.chunks.entry(origin) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let rect = chunk_rect(e.key(), &strides, &uppers);
                let types: Vec<_> = self.schema.attrs().iter().map(|a| a.ty.clone()).collect();
                e.insert(Chunk::new(rect, &types))
            }
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn byte_size(&self) -> usize {
        self.chunks.values().map(Chunk::byte_size).sum()
    }

    /// True if both arrays expose identical visible cells (coords + record),
    /// ignoring chunking, enhancements, and schema names. The content
    /// equality used by reshape/versioning tests.
    pub fn same_cells(&self, other: &Array) -> bool {
        if self.cell_count() != other.cell_count() {
            return false;
        }
        self.cells()
            .all(|(coords, rec)| other.get_cell(&coords) == Some(rec))
    }
}

/// The parts of `chunk` inside `keep`, one per chunk of `schema`'s grid
/// they meet (some perhaps with no present cell), each over the rectangle
/// [`Array::ensure_chunk`] builds for that grid chunk — the one function
/// that cuts a chunk onto an array's chunk grid. A merged super-tile bucket
/// becomes schema chunks again, a region read clips its buckets, and a
/// chunk moved to another grid (a concatenation's) is re-chunked. A chunk
/// that is exactly one grid chunk inside `keep` moves whole.
pub fn cut(chunk: Chunk, keep: &HyperRect, schema: &ArraySchema) -> Vec<Chunk> {
    let Some(clip) = chunk.rect().intersection(keep) else {
        return Vec::new();
    };
    let strides: Vec<i64> = schema.dims().iter().map(|d| d.chunk_len).collect();
    let uppers: Vec<Option<i64>> = schema.dims().iter().map(|d| d.upper).collect();
    let first = chunk_origin_of(&clip.low, &strides);
    if clip == *chunk.rect() && chunk_rect(&first, &strides, &uppers) == clip {
        return vec![chunk];
    }
    // The cells of the chunk grid that `clip` meets, as grid indices.
    let index = |c: &[i64]| -> Vec<i64> {
        c.iter()
            .zip(&strides)
            .map(|(&c, &s)| (c - 1).div_euclid(s))
            .collect()
    };
    let cells = HyperRect {
        low: index(&clip.low),
        high: index(&clip.high),
    };
    cells
        .iter_cells()
        .map(|cell| {
            let origin: Vec<i64> = cell
                .iter()
                .zip(&strides)
                .map(|(&i, &s)| i * s + 1)
                .collect();
            chunk.project_onto(&clip, &chunk_rect(&origin, &strides, &uppers))
        })
        .collect()
}

/// Convenience constructors used pervasively in tests, examples, and the
/// benchmark harness.
impl Array {
    /// Fallible form of [`Array::int_1d`]: fails if `name`/`attr` do not
    /// form a valid schema.
    pub fn try_int_1d(name: &str, attr: &str, values: &[i64]) -> Result<Array> {
        use crate::schema::SchemaBuilder;
        use crate::value::ScalarType;
        let schema = SchemaBuilder::new(name)
            .attr(attr, ScalarType::Int64)
            .dim("i", (values.len() as i64).max(1))
            .build()?;
        let mut a = Array::new(schema);
        for (i, &v) in values.iter().enumerate() {
            a.set_cell(&[i as i64 + 1], vec![Value::from(v)])?;
        }
        Ok(a)
    }

    /// Builds a 1-D int array named `name` with dimension `i`, cells
    /// `1..=values.len()`. Panics on an invalid schema name; library code
    /// should use [`Array::try_int_1d`].
    pub fn int_1d(name: &str, attr: &str, values: &[i64]) -> Array {
        // analyze: allow(R1, test/bench convenience; try_int_1d is the fallible form)
        Array::try_int_1d(name, attr, values).expect("valid 1-D schema")
    }

    /// Fallible form of [`Array::f64_2d`]: fails if `name`/`attr` do not
    /// form a valid schema.
    pub fn try_f64_2d(name: &str, attr: &str, rows: &[Vec<f64>]) -> Result<Array> {
        use crate::schema::SchemaBuilder;
        use crate::value::ScalarType;
        let n = rows.len() as i64;
        let m = rows.first().map_or(0, |r| r.len()) as i64;
        let schema = SchemaBuilder::new(name)
            .attr(attr, ScalarType::Float64)
            .dim("i", n.max(1))
            .dim("j", m.max(1))
            .build()?;
        let mut a = Array::new(schema);
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                a.set_cell(&[i as i64 + 1, j as i64 + 1], vec![Value::from(v)])?;
            }
        }
        Ok(a)
    }

    /// Builds a 2-D float array from row-major `rows` (dimensions `i`, `j`).
    /// Panics on an invalid schema name; library code should use
    /// [`Array::try_f64_2d`].
    pub fn f64_2d(name: &str, attr: &str, rows: &[Vec<f64>]) -> Array {
        // analyze: allow(R1, test/bench convenience; try_f64_2d is the fallible form)
        Array::try_f64_2d(name, attr, rows).expect("valid 2-D schema")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enhance::Scale;
    use crate::schema::SchemaBuilder;
    use crate::shape::{CircleShape, LowerTriangular};
    use crate::value::{record, ScalarType};

    fn small() -> Array {
        let schema = SchemaBuilder::new("A")
            .attr("x", ScalarType::Float64)
            .dim("I", 8)
            .dim("J", 8)
            .build()
            .unwrap();
        Array::new(schema)
    }

    #[test]
    fn set_get_roundtrip() {
        let mut a = small();
        a.set_cell(&[7, 8], record([Value::from(3.5)])).unwrap();
        assert_eq!(a.get_cell(&[7, 8]), Some(vec![Value::from(3.5)]));
        assert_eq!(a.get_named("x", &[7, 8]).unwrap(), Some(Value::from(3.5)));
        assert_eq!(a.get_f64(0, &[7, 8]), Some(3.5));
        assert_eq!(a.cell_count(), 1);
    }

    #[test]
    fn renamed_equals_a_cell_by_cell_rebuild_and_serializes_identically() {
        let mut a = small();
        for (i, j) in [(1, 1), (4, 7), (8, 8)] {
            a.set_cell(&[i, j], record([Value::from((i * j) as f64)]))
                .unwrap();
        }
        let mut rebuilt = Array::new(a.schema().renamed("B"));
        for (coords, rec) in a.cells() {
            rebuilt.set_cell(&coords, rec).unwrap();
        }
        let renamed = a.renamed("B");
        assert_eq!(renamed.schema().name(), "B");
        assert_eq!(renamed, rebuilt);
        let image = |a: &Array| {
            let mut buf = Vec::new();
            crate::codec::encode_array(&mut buf, a);
            buf
        };
        assert_eq!(image(&renamed), image(&rebuilt));
    }

    #[test]
    fn exists_matches_paper_semantics() {
        let mut a = small();
        assert!(!a.exists(&[7, 7]));
        a.set_cell(&[7, 7], record([Value::from(1.0)])).unwrap();
        assert!(a.exists(&[7, 7]));
        assert!(!a.exists(&[9, 9])); // out of bounds is simply "not present"
        assert!(!a.exists(&[7])); // wrong rank
    }

    #[test]
    fn bounds_are_enforced_on_write() {
        let mut a = small();
        assert!(a.set_cell(&[0, 1], record([Value::from(1.0)])).is_err());
        assert!(a.set_cell(&[9, 1], record([Value::from(1.0)])).is_err());
        assert!(a.set_cell(&[1], record([Value::from(1.0)])).is_err());
    }

    #[test]
    fn unbounded_dimension_grows() {
        let schema = SchemaBuilder::new("S")
            .attr("v", ScalarType::Int64)
            .dim_unbounded("t")
            .build()
            .unwrap();
        let mut a = Array::new(schema);
        a.set_cell(&[1_000_000], record([Value::from(5i64)]))
            .unwrap();
        assert!(a.exists(&[1_000_000]));
        assert_eq!(a.high_water(0), 1_000_000);
        assert_eq!(a.rect(), None);
    }

    #[test]
    fn delete_cell_marks_empty() {
        let mut a = small();
        a.set_cell(&[1, 1], record([Value::from(1.0)])).unwrap();
        a.delete_cell(&[1, 1]).unwrap();
        assert!(!a.exists(&[1, 1]));
        assert_eq!(a.cell_count(), 0);
    }

    #[test]
    fn cells_iterates_all_present() {
        let mut a = small();
        a.set_cell(&[1, 2], record([Value::from(1.0)])).unwrap();
        a.set_cell(&[5, 5], record([Value::from(2.0)])).unwrap();
        let cells: Vec<_> = a.cells().collect();
        assert_eq!(cells.len(), 2);
        assert!(cells.contains(&(vec![1, 2], vec![Value::from(1.0)])));
    }

    #[test]
    fn cells_in_region_filters() {
        let mut a = small();
        for i in 1..=8 {
            a.set_cell(&[i, i], record([Value::from(i as f64)]))
                .unwrap();
        }
        let region = HyperRect::new(vec![2, 2], vec![4, 4]).unwrap();
        let got: Vec<_> = a.cells_in(&region).map(|(c, _)| c).collect();
        assert_eq!(got, vec![vec![2, 2], vec![3, 3], vec![4, 4]]);
    }

    #[test]
    fn fill_with_fills_bounded_rect() {
        let mut a = small();
        a.fill_with(|c| record([Value::from((c[0] * 10 + c[1]) as f64)]))
            .unwrap();
        assert_eq!(a.cell_count(), 64);
        assert_eq!(a.get_f64(0, &[3, 4]), Some(34.0));
    }

    #[test]
    fn chunking_splits_large_arrays() {
        let schema = SchemaBuilder::new("Big")
            .attr("x", ScalarType::Float64)
            .dim_chunked("I", 100, 32)
            .dim_chunked("J", 100, 32)
            .build()
            .unwrap();
        let mut a = Array::new(schema);
        a.set_cell(&[1, 1], record([Value::from(1.0)])).unwrap();
        a.set_cell(&[100, 100], record([Value::from(2.0)])).unwrap();
        assert_eq!(a.chunks().len(), 2);
        // Edge chunk is clipped to the bound.
        let last = a.chunk_for(&[100, 100]).unwrap();
        assert_eq!(last.rect().high, vec![100, 100]);
        assert_eq!(last.rect().low, vec![97, 97]);
    }

    #[test]
    fn enhancement_addressing() {
        let mut a = small();
        a.set_cell(&[2, 5], record([Value::from(9.0)])).unwrap();
        a.enhance(Arc::new(Scale::scale10(2))).unwrap();
        // A{20, 50} == A[2, 5]
        let got = a
            .get_enhanced(None, &[PseudoValue::Int(20), PseudoValue::Int(50)])
            .unwrap();
        assert_eq!(got, Some(vec![Value::from(9.0)]));
        // Off-grid address resolves to no cell.
        let none = a
            .get_enhanced(None, &[PseudoValue::Int(21), PseudoValue::Int(50)])
            .unwrap();
        assert_eq!(none, None);
    }

    #[test]
    fn duplicate_enhancement_rejected() {
        let mut a = small();
        a.enhance(Arc::new(Scale::scale10(2))).unwrap();
        assert!(a.enhance(Arc::new(Scale::scale10(2))).is_err());
    }

    #[test]
    fn ambiguous_enhanced_addressing_errors() {
        let mut a = small();
        a.enhance(Arc::new(Scale::scale10(2))).unwrap();
        a.enhance(Arc::new(Scale::new("Scale100", 100, 2))).unwrap();
        let err = a
            .resolve_enhanced(None, &[PseudoValue::Int(10), PseudoValue::Int(10)])
            .unwrap_err();
        assert!(matches!(err, Error::Dimension(_)));
        // Named resolution works.
        let ok = a
            .resolve_enhanced(
                Some("Scale100"),
                &[PseudoValue::Int(100), PseudoValue::Int(100)],
            )
            .unwrap();
        assert_eq!(ok, Some(vec![1, 1]));
    }

    #[test]
    fn shape_restricts_writes_and_exists() {
        let mut a = small();
        a.set_shape(Arc::new(LowerTriangular::new("tri", 8)))
            .unwrap();
        assert!(a.set_cell(&[1, 2], record([Value::from(1.0)])).is_err());
        a.set_cell(&[2, 1], record([Value::from(1.0)])).unwrap();
        assert!(a.exists(&[2, 1]));
        assert!(!a.exists(&[1, 2]));
    }

    #[test]
    fn only_one_shape_allowed() {
        let mut a = small();
        a.set_shape(Arc::new(LowerTriangular::new("tri", 8)))
            .unwrap();
        assert!(a
            .set_shape(Arc::new(CircleShape::new("disk", (4, 4), 2)))
            .is_err());
    }

    #[test]
    fn fill_with_respects_shape() {
        let mut a = small();
        a.set_shape(Arc::new(LowerTriangular::new("tri", 8)))
            .unwrap();
        a.fill_with(|_| record([Value::from(1.0)])).unwrap();
        assert_eq!(a.cell_count(), 8 * 9 / 2);
    }

    #[test]
    fn same_cells_ignores_chunking() {
        let mut a = {
            let s = SchemaBuilder::new("A")
                .attr("x", ScalarType::Float64)
                .dim_chunked("I", 10, 2)
                .build()
                .unwrap();
            Array::new(s)
        };
        let mut b = {
            let s = SchemaBuilder::new("B")
                .attr("x", ScalarType::Float64)
                .dim_chunked("I", 10, 5)
                .build()
                .unwrap();
            Array::new(s)
        };
        for i in 1..=10i64 {
            a.set_cell(&[i], record([Value::from(i as f64)])).unwrap();
            b.set_cell(&[i], record([Value::from(i as f64)])).unwrap();
        }
        assert!(a.same_cells(&b));
        b.set_cell(&[3], record([Value::from(0.0)])).unwrap();
        assert!(!a.same_cells(&b));
    }

    #[test]
    fn helpers_build_expected_arrays() {
        let a = Array::int_1d("A", "x", &[1, 2]);
        assert_eq!(a.get_cell(&[2]), Some(vec![Value::from(2i64)]));
        let b = Array::f64_2d("B", "v", &[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(b.get_f64(0, &[2, 1]), Some(3.0));
    }

    #[test]
    fn nested_array_attribute_roundtrip() {
        let inner_schema = SchemaBuilder::new("results")
            .attr("item", ScalarType::Int64)
            .dim("rank", 3)
            .build()
            .unwrap();
        let outer_schema = SchemaBuilder::new("Session")
            .attr("query", ScalarType::String)
            .nested_attr("results", Arc::new(inner_schema.clone()))
            .dim_unbounded("t")
            .build()
            .unwrap();
        let inner = Array::int_1d("results", "item", &[7, 9, 4]);
        let mut outer = Array::new(outer_schema);
        outer
            .set_cell(
                &[1],
                record([Value::from("banjo"), Value::Array(Box::new(inner.clone()))]),
            )
            .unwrap();
        let got = outer.get_cell(&[1]).unwrap();
        assert_eq!(got[0], Value::from("banjo"));
        assert_eq!(
            got[1].as_array().unwrap().get_cell(&[2]),
            inner.get_cell(&[2])
        );
    }
}
