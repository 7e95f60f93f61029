//! Chunks: the in-memory unit of array storage.
//!
//! An array is decomposed into rectangular chunks ("buckets, defined by a
//! stride in each dimension", §2.8). A chunk's representation is
//! **adaptive**:
//!
//! * it starts *sparse* — a sorted map from row-major offset to record — so
//!   that delta layers (history versions §2.5, named-version deltas §2.11)
//!   holding a handful of cells consume "essentially no space";
//! * once a quarter of its cells are present it *densifies* into columnar
//!   storage — one typed vector per attribute with presence/NULL bitmaps —
//!   which is what makes the array-native engine fast relative to the
//!   tuple-at-a-time relational simulation (experiment E1).
//!
//! The `uncertain float` column keeps the §2.13 promise that "arrays with the
//! same error bounds for all values will require negligible extra space": the
//! sigma store starts empty, records a single constant on first write, and is
//! upgraded to a per-cell vector only when a different sigma is written.

use crate::array::Array;
use crate::bitvec::BitVec;
use crate::error::{Error, Result};
use crate::geometry::HyperRect;
use crate::schema::AttrType;
use crate::uncertain::Uncertain;
use crate::value::{Record, Scalar, ScalarType, Value};
use std::collections::BTreeMap;

/// Sigma storage for an uncertain column: constant-σ (compact) or per-cell.
#[derive(Debug, Clone, PartialEq)]
pub enum SigmaStore {
    /// No sigma written yet.
    Empty,
    /// All cells share one sigma. Upgraded lazily on a divergent write.
    Constant(f64),
    /// Per-cell sigmas.
    PerCell(Vec<f64>),
}

impl SigmaStore {
    /// Sigma of cell `idx`.
    pub fn get(&self, idx: usize) -> f64 {
        match self {
            SigmaStore::Empty => 0.0,
            SigmaStore::Constant(s) => *s,
            SigmaStore::PerCell(v) => v[idx],
        }
    }

    /// True if still in a compact (constant or empty) representation.
    pub fn is_constant(&self) -> bool {
        !matches!(self, SigmaStore::PerCell(_))
    }

    fn set(&mut self, idx: usize, sigma: f64, len: usize) {
        match self {
            SigmaStore::Empty => *self = SigmaStore::Constant(sigma),
            SigmaStore::Constant(s) if *s == sigma => {}
            SigmaStore::Constant(s) => {
                let mut v = vec![*s; len];
                v[idx] = sigma;
                *self = SigmaStore::PerCell(v);
            }
            SigmaStore::PerCell(v) => v[idx] = sigma,
        }
    }

    /// Approximate heap size in bytes.
    pub fn byte_size(&self) -> usize {
        match self {
            SigmaStore::Empty | SigmaStore::Constant(_) => 8,
            SigmaStore::PerCell(v) => v.len() * 8,
        }
    }
}

/// A typed column of attribute values within one dense chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers.
    Int64 {
        /// Cell values (defaulted where null/empty).
        data: Vec<i64>,
        /// NULL bitmap (1 = null).
        nulls: BitVec,
    },
    /// 64-bit floats.
    Float64 {
        /// Cell values (defaulted where null/empty).
        data: Vec<f64>,
        /// NULL bitmap (1 = null).
        nulls: BitVec,
    },
    /// Booleans.
    Bool {
        /// Cell values.
        data: Vec<bool>,
        /// NULL bitmap.
        nulls: BitVec,
    },
    /// Strings.
    Str {
        /// Cell values.
        data: Vec<String>,
        /// NULL bitmap.
        nulls: BitVec,
    },
    /// Uncertain floats with compact constant-σ storage (§2.13).
    Uncertain {
        /// Means.
        means: Vec<f64>,
        /// Sigma store.
        sigmas: SigmaStore,
        /// NULL bitmap.
        nulls: BitVec,
    },
    /// Nested arrays; `None` is NULL.
    Nested {
        /// Cell values.
        data: Vec<Option<Array>>,
    },
}

impl Column {
    /// Allocates a column of `len` cells for the given attribute type, all
    /// NULL.
    pub fn new(ty: &AttrType, len: usize) -> Column {
        match ty {
            AttrType::Scalar(ScalarType::Int64) => Column::Int64 {
                data: vec![0; len],
                nulls: BitVec::filled(len, true),
            },
            AttrType::Scalar(ScalarType::Float64) => Column::Float64 {
                data: vec![0.0; len],
                nulls: BitVec::filled(len, true),
            },
            AttrType::Scalar(ScalarType::Bool) => Column::Bool {
                data: vec![false; len],
                nulls: BitVec::filled(len, true),
            },
            AttrType::Scalar(ScalarType::String) => Column::Str {
                data: vec![String::new(); len],
                nulls: BitVec::filled(len, true),
            },
            AttrType::Scalar(ScalarType::UncertainFloat64) => Column::Uncertain {
                means: vec![0.0; len],
                sigmas: SigmaStore::Empty,
                nulls: BitVec::filled(len, true),
            },
            AttrType::Nested(_) => Column::Nested {
                data: vec![None; len],
            },
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64 { data, .. } => data.len(),
            Column::Float64 { data, .. } => data.len(),
            Column::Bool { data, .. } => data.len(),
            Column::Str { data, .. } => data.len(),
            Column::Uncertain { means, .. } => means.len(),
            Column::Nested { data } => data.len(),
        }
    }

    /// True if the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if cell `idx` is NULL.
    pub fn is_null(&self, idx: usize) -> bool {
        match self {
            Column::Int64 { nulls, .. }
            | Column::Float64 { nulls, .. }
            | Column::Bool { nulls, .. }
            | Column::Str { nulls, .. }
            | Column::Uncertain { nulls, .. } => nulls.get(idx),
            Column::Nested { data } => data[idx].is_none(),
        }
    }

    /// Reads cell `idx` as a [`Value`].
    pub fn get(&self, idx: usize) -> Value {
        match self {
            Column::Nested { data } => data[idx]
                .as_ref()
                .map_or(Value::Null, |a| Value::Array(Box::new(a.clone()))),
            _ if self.is_null(idx) => Value::Null,
            Column::Int64 { data, .. } => Value::Scalar(Scalar::Int64(data[idx])),
            Column::Float64 { data, .. } => Value::Scalar(Scalar::Float64(data[idx])),
            Column::Bool { data, .. } => Value::Scalar(Scalar::Bool(data[idx])),
            Column::Str { data, .. } => Value::Scalar(Scalar::String(data[idx].clone())),
            Column::Uncertain { means, sigmas, .. } => Value::Scalar(Scalar::Uncertain(
                Uncertain::new(means[idx], sigmas.get(idx)),
            )),
        }
    }

    /// Fast numeric read without allocating a `Value`.
    #[inline]
    pub fn get_f64(&self, idx: usize) -> Option<f64> {
        if self.is_null(idx) {
            return None;
        }
        match self {
            Column::Int64 { data, .. } => Some(data[idx] as f64),
            Column::Float64 { data, .. } => Some(data[idx]),
            Column::Uncertain { means, .. } => Some(means[idx]),
            _ => None,
        }
    }

    /// Writes cell `idx`.
    pub fn set(&mut self, idx: usize, value: &Value) -> Result<()> {
        match value {
            Value::Null => {
                self.set_null(idx);
                Ok(())
            }
            Value::Scalar(s) => self.set_scalar(idx, s),
            Value::Array(a) => match self {
                Column::Nested { data } => {
                    data[idx] = Some((**a).clone());
                    Ok(())
                }
                _ => Err(Error::schema("nested array written to scalar column")),
            },
        }
    }

    fn set_scalar(&mut self, idx: usize, s: &Scalar) -> Result<()> {
        match (&mut *self, s) {
            (Column::Int64 { data, nulls }, Scalar::Int64(v)) => {
                data[idx] = *v;
                nulls.set(idx, false);
            }
            (Column::Float64 { data, nulls }, Scalar::Float64(v)) => {
                data[idx] = *v;
                nulls.set(idx, false);
            }
            // Ints widen into float columns for convenience.
            (Column::Float64 { data, nulls }, Scalar::Int64(v)) => {
                data[idx] = *v as f64;
                nulls.set(idx, false);
            }
            (Column::Bool { data, nulls }, Scalar::Bool(v)) => {
                data[idx] = *v;
                nulls.set(idx, false);
            }
            (Column::Str { data, nulls }, Scalar::String(v)) => {
                data[idx] = v.clone();
                nulls.set(idx, false);
            }
            (
                Column::Uncertain {
                    means,
                    sigmas,
                    nulls,
                },
                s,
            ) => {
                let u = s
                    .as_uncertain()
                    .ok_or_else(|| Error::schema("non-numeric written to uncertain column"))?;
                let len = means.len();
                means[idx] = u.mean;
                sigmas.set(idx, u.sigma, len);
                nulls.set(idx, false);
            }
            (col, s) => {
                return Err(Error::schema(format!(
                    "type mismatch: {} written to {} column",
                    s.scalar_type(),
                    col.type_name()
                )))
            }
        }
        Ok(())
    }

    fn set_null(&mut self, idx: usize) {
        match self {
            Column::Int64 { nulls, .. }
            | Column::Float64 { nulls, .. }
            | Column::Bool { nulls, .. }
            | Column::Str { nulls, .. }
            | Column::Uncertain { nulls, .. } => nulls.set(idx, true),
            Column::Nested { data } => data[idx] = None,
        }
    }

    /// Marks every set bit of `mask` NULL — one word-level bitmap union
    /// for scalar columns. The batch filter's selection-vector write-back.
    pub fn null_out(&mut self, mask: &BitVec) {
        match self {
            Column::Int64 { nulls, .. }
            | Column::Float64 { nulls, .. }
            | Column::Bool { nulls, .. }
            | Column::Str { nulls, .. }
            | Column::Uncertain { nulls, .. } => nulls.union_with(mask),
            Column::Nested { data } => {
                for idx in mask.iter_ones() {
                    data[idx] = None;
                }
            }
        }
    }

    /// Human-readable column type name.
    pub fn type_name(&self) -> &'static str {
        match self {
            Column::Int64 { .. } => "int",
            Column::Float64 { .. } => "float",
            Column::Bool { .. } => "bool",
            Column::Str { .. } => "string",
            Column::Uncertain { .. } => "uncertain float",
            Column::Nested { .. } => "array",
        }
    }

    /// Approximate heap footprint in bytes (used by experiment E7 and the
    /// bulk loader's memory budget).
    pub fn byte_size(&self) -> usize {
        match self {
            Column::Int64 { data, nulls } => data.len() * 8 + nulls.byte_size(),
            Column::Float64 { data, nulls } => data.len() * 8 + nulls.byte_size(),
            Column::Bool { data, nulls } => data.len() + nulls.byte_size(),
            Column::Str { data, nulls } => {
                data.iter().map(|s| s.len() + 24).sum::<usize>() + nulls.byte_size()
            }
            Column::Uncertain {
                means,
                sigmas,
                nulls,
            } => means.len() * 8 + sigmas.byte_size() + nulls.byte_size(),
            Column::Nested { data } => data
                .iter()
                .map(|a| a.as_ref().map_or(8, |arr| arr.byte_size() + 8))
                .sum(),
        }
    }
}

/// Approximate heap footprint of one sparse-stored value.
fn value_byte_size(v: &Value) -> usize {
    match v {
        Value::Null => 8,
        Value::Scalar(Scalar::String(s)) => 24 + s.len(),
        Value::Scalar(Scalar::Uncertain(_)) => 16,
        Value::Scalar(_) => 16,
        Value::Array(a) => 8 + a.byte_size(),
    }
}

/// Dense fill fraction (1/DENSIFY_DIVISOR of capacity) at which a sparse
/// chunk converts to columnar storage.
const DENSIFY_DIVISOR: usize = 4;

#[derive(Debug, Clone)]
enum Repr {
    /// Sorted map: row-major offset → record. Sorted keys give row-major
    /// iteration for free.
    Sparse(BTreeMap<usize, Record>),
    /// Columnar storage with a presence bitmap.
    Dense {
        present: BitVec,
        columns: Vec<Column>,
    },
}

/// One rectangular chunk of an array (adaptive sparse/dense representation).
#[derive(Debug, Clone)]
pub struct Chunk {
    rect: HyperRect,
    attr_types: Vec<AttrType>,
    repr: Repr,
}

impl PartialEq for Chunk {
    /// Logical equality: same rectangle and same visible cells, regardless
    /// of representation.
    fn eq(&self, other: &Self) -> bool {
        if self.rect != other.rect || self.present_count() != other.present_count() {
            return false;
        }
        self.iter_present()
            .all(|(_, idx)| self.record_at(idx) == other.record_at(idx) && other.present_at(idx))
    }
}

impl Chunk {
    /// Allocates an all-empty chunk covering `rect` with the given attribute
    /// types. Starts sparse; densifies automatically as cells are written.
    pub fn new(rect: HyperRect, attr_types: &[AttrType]) -> Chunk {
        Chunk {
            rect,
            attr_types: attr_types.to_vec(),
            repr: Repr::Sparse(BTreeMap::new()),
        }
    }

    /// Allocates a chunk directly in dense columnar form (used by bulk
    /// paths that know they will fill it).
    pub fn new_dense(rect: HyperRect, attr_types: &[AttrType]) -> Chunk {
        let len = rect.volume() as usize;
        Chunk {
            rect,
            attr_types: attr_types.to_vec(),
            repr: Repr::Dense {
                present: BitVec::filled(len, false),
                columns: attr_types.iter().map(|t| Column::new(t, len)).collect(),
            },
        }
    }

    /// The chunk's covering rectangle.
    pub fn rect(&self) -> &HyperRect {
        &self.rect
    }

    /// The attribute types.
    pub fn attr_types(&self) -> &[AttrType] {
        &self.attr_types
    }

    /// Number of addressable cells (present or not).
    pub fn capacity(&self) -> usize {
        self.rect.volume() as usize
    }

    /// Number of present (non-empty) cells.
    pub fn present_count(&self) -> usize {
        match &self.repr {
            Repr::Sparse(cells) => cells.len(),
            Repr::Dense { present, .. } => present.count_ones(),
        }
    }

    /// True if no cell is present.
    pub fn is_empty(&self) -> bool {
        self.present_count() == 0
    }

    /// True if the chunk has densified to columnar storage.
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense { .. })
    }

    /// Columnar view, available once dense (`None` while sparse). Used by
    /// vectorized kernels and the sigma-compactness accounting.
    pub fn columns(&self) -> Option<&[Column]> {
        match &self.repr {
            Repr::Dense { columns, .. } => Some(columns),
            Repr::Sparse(_) => None,
        }
    }

    /// The presence bitmap, available once dense.
    pub fn present_bitmap(&self) -> Option<&BitVec> {
        match &self.repr {
            Repr::Dense { present, .. } => Some(present),
            Repr::Sparse(_) => None,
        }
    }

    /// Assembles a dense chunk directly from parts — the zero-copy path
    /// used by positional (vectorized) kernels such as the aligned
    /// structural join.
    pub fn from_parts(
        rect: HyperRect,
        attr_types: Vec<AttrType>,
        present: BitVec,
        columns: Vec<Column>,
    ) -> Result<Chunk> {
        let len = rect.volume() as usize;
        if present.len() != len {
            return Err(Error::schema("presence bitmap length mismatch"));
        }
        if columns.len() != attr_types.len() {
            return Err(Error::schema("column count mismatch"));
        }
        for c in &columns {
            if c.len() != len {
                return Err(Error::schema("column length mismatch"));
            }
        }
        Ok(Chunk {
            rect,
            attr_types,
            repr: Repr::Dense { present, columns },
        })
    }

    /// Forces densification (bulk paths call this before columnar kernels).
    pub fn densify(&mut self) -> Result<()> {
        if self.is_dense() {
            return Ok(());
        }
        let len = self.capacity();
        let mut present = BitVec::filled(len, false);
        let mut columns: Vec<Column> = self
            .attr_types
            .iter()
            .map(|t| Column::new(t, len))
            .collect();
        if let Repr::Sparse(cells) = &self.repr {
            for (&idx, rec) in cells {
                present.set(idx, true);
                for (col, val) in columns.iter_mut().zip(rec) {
                    col.set(idx, val)?;
                }
            }
        }
        self.repr = Repr::Dense { present, columns };
        Ok(())
    }

    /// Row-major offset of `coords` within this chunk.
    #[inline]
    pub fn offset_of(&self, coords: &[i64]) -> usize {
        self.rect.linearize(coords)
    }

    /// True if the cell at `coords` is present.
    pub fn cell_present(&self, coords: &[i64]) -> bool {
        self.rect.contains(coords) && self.present_at(self.offset_of(coords))
    }

    /// True if the cell at linear offset `idx` is present.
    #[inline]
    pub fn present_at(&self, idx: usize) -> bool {
        match &self.repr {
            Repr::Sparse(cells) => cells.contains_key(&idx),
            Repr::Dense { present, .. } => present.get(idx),
        }
    }

    /// Reads the full record at linear offset `idx`; all-NULL placeholder
    /// if the cell is empty (callers check `present_at` first).
    pub fn record_at(&self, idx: usize) -> Record {
        match &self.repr {
            Repr::Sparse(cells) => cells
                .get(&idx)
                .cloned()
                .unwrap_or_else(|| vec![Value::Null; self.attr_types.len()]),
            Repr::Dense { columns, .. } => columns.iter().map(|c| c.get(idx)).collect(),
        }
    }

    /// Reads one attribute at linear offset `idx` (NULL if empty).
    pub fn value_at(&self, attr: usize, idx: usize) -> Value {
        match &self.repr {
            Repr::Sparse(cells) => cells.get(&idx).map_or(Value::Null, |rec| rec[attr].clone()),
            Repr::Dense { columns, .. } => columns[attr].get(idx),
        }
    }

    /// Borrows a nested-array attribute at a linear offset without cloning
    /// it (`None` when empty, NULL, or not a nested column) — the fast path
    /// for the §2.14 clickstream analyses.
    pub fn nested_at(&self, attr: usize, idx: usize) -> Option<&Array> {
        match &self.repr {
            Repr::Sparse(cells) => cells.get(&idx).and_then(|rec| rec[attr].as_array()),
            Repr::Dense { present, columns } => {
                if !present.get(idx) {
                    return None;
                }
                match &columns[attr] {
                    Column::Nested { data } => data[idx].as_ref(),
                    _ => None,
                }
            }
        }
    }

    /// Fast numeric read of one attribute at a linear offset; `None` when
    /// the cell is empty or the value NULL/non-numeric.
    #[inline]
    pub fn value_f64(&self, attr: usize, idx: usize) -> Option<f64> {
        match &self.repr {
            Repr::Sparse(cells) => cells.get(&idx).and_then(|rec| rec[attr].as_f64()),
            Repr::Dense { present, columns } => {
                if !present.get(idx) {
                    return None;
                }
                columns[attr].get_f64(idx)
            }
        }
    }

    /// Reads the full record at `coords`, or `None` if the cell is empty.
    pub fn get_record(&self, coords: &[i64]) -> Option<Record> {
        let idx = self.offset_of(coords);
        self.present_at(idx).then(|| self.record_at(idx))
    }

    /// Reads one attribute at `coords`, or `None` if the cell is empty.
    pub fn get_value(&self, attr: usize, coords: &[i64]) -> Option<Value> {
        let idx = self.offset_of(coords);
        self.present_at(idx).then(|| self.value_at(attr, idx))
    }

    fn validate_record(&self, record: &Record) -> Result<()> {
        if record.len() != self.attr_types.len() {
            return Err(Error::schema(format!(
                "record has {} values for {} attributes",
                record.len(),
                self.attr_types.len()
            )));
        }
        for (v, ty) in record.iter().zip(&self.attr_types) {
            match (v, ty) {
                (Value::Null, _) => {}
                (Value::Scalar(s), AttrType::Scalar(t)) => {
                    let ok = match (s.scalar_type(), t) {
                        (a, b) if a == *b => true,
                        // Ints widen into float and uncertain columns.
                        (ScalarType::Int64, ScalarType::Float64) => true,
                        (ScalarType::Int64, ScalarType::UncertainFloat64) => true,
                        (ScalarType::Float64, ScalarType::UncertainFloat64) => true,
                        _ => false,
                    };
                    if !ok {
                        return Err(Error::schema(format!(
                            "type mismatch: {} written to {t} column",
                            s.scalar_type()
                        )));
                    }
                }
                (Value::Array(_), AttrType::Nested(_)) => {}
                (Value::Scalar(s), AttrType::Nested(_)) => {
                    return Err(Error::schema(format!(
                        "scalar {s} written to nested-array column"
                    )))
                }
                (Value::Array(_), AttrType::Scalar(_)) => {
                    return Err(Error::schema("nested array written to scalar column"))
                }
            }
        }
        Ok(())
    }

    fn maybe_densify(&mut self) -> Result<()> {
        let threshold = (self.capacity() / DENSIFY_DIVISOR).max(1);
        match &self.repr {
            Repr::Sparse(cells) if cells.len() >= threshold => self.densify(),
            _ => Ok(()),
        }
    }

    /// Normalizes widening conversions (int→float/uncertain) for sparse
    /// storage so reads are type-stable across representations.
    fn normalize(&self, record: &Record) -> Record {
        record
            .iter()
            .zip(&self.attr_types)
            .map(|(v, ty)| match (v, ty) {
                (Value::Scalar(Scalar::Int64(x)), AttrType::Scalar(ScalarType::Float64)) => {
                    Value::from(*x as f64)
                }
                (
                    Value::Scalar(Scalar::Int64(x)),
                    AttrType::Scalar(ScalarType::UncertainFloat64),
                ) => Value::from(Uncertain::exact(*x as f64)),
                (
                    Value::Scalar(Scalar::Float64(x)),
                    AttrType::Scalar(ScalarType::UncertainFloat64),
                ) => Value::from(Uncertain::exact(*x)),
                _ => v.clone(),
            })
            .collect()
    }

    /// Writes a record at `coords`, marking the cell present.
    pub fn set_record(&mut self, coords: &[i64], record: &Record) -> Result<()> {
        self.validate_record(record)?;
        let idx = self.offset_of(coords);
        match &mut self.repr {
            Repr::Sparse(_) => {
                let normalized = self.normalize(record);
                if let Repr::Sparse(cells) = &mut self.repr {
                    cells.insert(idx, normalized);
                }
                self.maybe_densify()?;
            }
            Repr::Dense { present, columns } => {
                for (col, val) in columns.iter_mut().zip(record) {
                    col.set(idx, val)?;
                }
                present.set(idx, true);
            }
        }
        Ok(())
    }

    /// Writes one attribute at `coords`, marking the cell present (other
    /// attributes default to NULL for a previously-empty cell).
    pub fn set_value(&mut self, attr: usize, coords: &[i64], value: &Value) -> Result<()> {
        let mut rec = self
            .get_record(coords)
            .unwrap_or_else(|| vec![Value::Null; self.attr_types.len()]);
        rec[attr] = value.clone();
        self.set_record(coords, &rec)
    }

    /// Marks a cell empty again (used by delta deletion flags, §2.5).
    pub fn clear_cell(&mut self, coords: &[i64]) {
        let idx = self.offset_of(coords);
        match &mut self.repr {
            Repr::Sparse(cells) => {
                cells.remove(&idx);
            }
            Repr::Dense { present, .. } => present.set(idx, false),
        }
    }

    /// Iterates `(coords, linear offset)` of present cells in row-major
    /// order.
    pub fn iter_present(&self) -> Box<dyn Iterator<Item = (crate::geometry::Coords, usize)> + '_> {
        match &self.repr {
            Repr::Sparse(cells) => Box::new(
                cells
                    .keys()
                    .map(move |&idx| (self.rect.delinearize(idx), idx)),
            ),
            Repr::Dense { present, .. } => Box::new(
                present
                    .iter_ones()
                    .map(move |idx| (self.rect.delinearize(idx), idx)),
            ),
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn byte_size(&self) -> usize {
        match &self.repr {
            Repr::Sparse(cells) => cells
                .values()
                .map(|rec| 16 + rec.iter().map(value_byte_size).sum::<usize>())
                .sum(),
            Repr::Dense { present, columns } => {
                present.byte_size() + columns.iter().map(Column::byte_size).sum::<usize>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::HyperRect;
    use crate::value::record;

    fn rect2() -> HyperRect {
        HyperRect::new(vec![1, 1], vec![4, 4]).unwrap()
    }

    fn float_chunk() -> Chunk {
        Chunk::new(rect2(), &[AttrType::Scalar(ScalarType::Float64)])
    }

    #[test]
    fn new_chunk_is_empty_and_sparse() {
        let c = float_chunk();
        assert_eq!(c.capacity(), 16);
        assert_eq!(c.present_count(), 0);
        assert!(c.is_empty());
        assert!(!c.is_dense());
        assert_eq!(c.get_record(&[1, 1]), None);
    }

    #[test]
    fn set_get_record_roundtrip_sparse() {
        let mut c = float_chunk();
        c.set_record(&[2, 3], &record([Value::from(1.5)])).unwrap();
        assert_eq!(c.present_count(), 1);
        assert!(!c.is_dense());
        assert_eq!(c.get_record(&[2, 3]), Some(vec![Value::from(1.5)]));
        assert!(c.cell_present(&[2, 3]));
        assert!(!c.cell_present(&[3, 2]));
    }

    #[test]
    fn densifies_at_quarter_fill() {
        let mut c = float_chunk();
        for j in 1..=4i64 {
            c.set_record(&[1, j], &record([Value::from(j as f64)]))
                .unwrap();
        }
        assert!(c.is_dense(), "16-cell chunk densifies at 4 cells");
        // Contents survive densification.
        for j in 1..=4i64 {
            assert_eq!(c.get_record(&[1, j]), Some(vec![Value::from(j as f64)]));
        }
        assert_eq!(c.present_count(), 4);
    }

    #[test]
    fn dense_and_sparse_compare_equal() {
        let mut sparse = float_chunk();
        sparse
            .set_record(&[2, 2], &record([Value::from(9.0)]))
            .unwrap();
        let mut dense = float_chunk();
        dense.densify().unwrap();
        dense
            .set_record(&[2, 2], &record([Value::from(9.0)]))
            .unwrap();
        assert_eq!(sparse, dense);
        dense
            .set_record(&[3, 3], &record([Value::from(1.0)]))
            .unwrap();
        assert_ne!(sparse, dense);
    }

    #[test]
    fn record_arity_checked() {
        let mut c = float_chunk();
        assert!(c
            .set_record(&[1, 1], &record([Value::from(1.0), Value::from(2.0)]))
            .is_err());
    }

    #[test]
    fn type_mismatch_rejected_in_both_representations() {
        let mut c = float_chunk();
        assert!(matches!(
            c.set_record(&[1, 1], &record([Value::from("oops")])),
            Err(Error::Schema(_))
        ));
        c.densify().unwrap();
        assert!(matches!(
            c.set_record(&[1, 1], &record([Value::from("oops")])),
            Err(Error::Schema(_))
        ));
    }

    #[test]
    fn int_widens_to_float_column_in_both_representations() {
        let mut c = float_chunk();
        c.set_record(&[1, 1], &record([Value::from(3i64)])).unwrap();
        assert_eq!(c.get_value(0, &[1, 1]), Some(Value::from(3.0)));
        c.densify().unwrap();
        assert_eq!(c.get_value(0, &[1, 1]), Some(Value::from(3.0)));
    }

    #[test]
    fn null_value_is_present_but_null() {
        let mut c = float_chunk();
        c.set_record(&[1, 1], &record([Value::Null])).unwrap();
        assert!(c.cell_present(&[1, 1]));
        assert_eq!(c.get_value(0, &[1, 1]), Some(Value::Null));
        assert_eq!(c.value_f64(0, c.offset_of(&[1, 1])), None);
    }

    #[test]
    fn clear_cell_marks_empty() {
        let mut c = float_chunk();
        c.set_record(&[1, 1], &record([Value::from(1.0)])).unwrap();
        c.clear_cell(&[1, 1]);
        assert!(!c.cell_present(&[1, 1]));
        c.densify().unwrap();
        c.set_record(&[1, 1], &record([Value::from(1.0)])).unwrap();
        c.clear_cell(&[1, 1]);
        assert!(!c.cell_present(&[1, 1]));
    }

    #[test]
    fn iter_present_row_major_both_representations() {
        let mut c = float_chunk();
        c.set_record(&[2, 1], &record([Value::from(1.0)])).unwrap();
        c.set_record(&[1, 4], &record([Value::from(2.0)])).unwrap();
        let coords: Vec<_> = c.iter_present().map(|(co, _)| co).collect();
        assert_eq!(coords, vec![vec![1, 4], vec![2, 1]]);
        c.densify().unwrap();
        let coords: Vec<_> = c.iter_present().map(|(co, _)| co).collect();
        assert_eq!(coords, vec![vec![1, 4], vec![2, 1]]);
    }

    #[test]
    fn set_value_preserves_other_attributes() {
        let mut c = Chunk::new(
            rect2(),
            &[
                AttrType::Scalar(ScalarType::Float64),
                AttrType::Scalar(ScalarType::Int64),
            ],
        );
        c.set_value(0, &[1, 1], &Value::from(1.5)).unwrap();
        c.set_value(1, &[1, 1], &Value::from(7i64)).unwrap();
        assert_eq!(
            c.get_record(&[1, 1]),
            Some(vec![Value::from(1.5), Value::from(7i64)])
        );
    }

    #[test]
    fn sparse_chunk_is_small() {
        // One cell in a 4096-cell chunk: sparse bytes ≪ dense bytes.
        let big = HyperRect::new(vec![1, 1], vec![64, 64]).unwrap();
        let mut sparse = Chunk::new(big.clone(), &[AttrType::Scalar(ScalarType::Float64)]);
        sparse
            .set_record(&[1, 1], &record([Value::from(1.0)]))
            .unwrap();
        let mut dense = Chunk::new_dense(big, &[AttrType::Scalar(ScalarType::Float64)]);
        dense
            .set_record(&[1, 1], &record([Value::from(1.0)]))
            .unwrap();
        assert!(sparse.byte_size() * 50 < dense.byte_size());
    }

    #[test]
    fn uncertain_constant_sigma_stays_compact() {
        let mut c = Chunk::new(rect2(), &[AttrType::Scalar(ScalarType::UncertainFloat64)]);
        for coords in rect2().iter_cells() {
            c.set_record(
                &coords,
                &record([Value::from(Uncertain::new(coords[0] as f64, 0.5))]),
            )
            .unwrap();
        }
        assert!(c.is_dense());
        match &c.columns().unwrap()[0] {
            Column::Uncertain { sigmas, .. } => assert!(sigmas.is_constant()),
            _ => panic!("wrong column type"),
        }
        // A divergent sigma upgrades the store.
        c.set_record(&[1, 1], &record([Value::from(Uncertain::new(0.0, 0.9))]))
            .unwrap();
        match &c.columns().unwrap()[0] {
            Column::Uncertain { sigmas, .. } => {
                assert!(!sigmas.is_constant());
                assert_eq!(sigmas.get(c.offset_of(&[1, 1])), 0.9);
                assert_eq!(sigmas.get(c.offset_of(&[1, 2])), 0.5);
            }
            _ => panic!("wrong column type"),
        }
    }

    #[test]
    fn constant_sigma_byte_size_is_smaller() {
        let mk = |varying: bool| {
            let mut c = Chunk::new(rect2(), &[AttrType::Scalar(ScalarType::UncertainFloat64)]);
            for (i, coords) in rect2().iter_cells().enumerate() {
                let sigma = if varying { i as f64 + 1.0 } else { 0.5 };
                c.set_record(&coords, &record([Value::from(Uncertain::new(1.0, sigma))]))
                    .unwrap();
            }
            assert!(c.is_dense());
            c.byte_size()
        };
        assert!(mk(false) < mk(true));
    }

    #[test]
    fn bool_and_string_columns() {
        let mut c = Chunk::new(
            rect2(),
            &[
                AttrType::Scalar(ScalarType::Bool),
                AttrType::Scalar(ScalarType::String),
            ],
        );
        c.set_record(&[1, 1], &record([Value::from(true), Value::from("hi")]))
            .unwrap();
        assert_eq!(
            c.get_record(&[1, 1]),
            Some(vec![Value::from(true), Value::from("hi")])
        );
        c.densify().unwrap();
        assert_eq!(
            c.get_record(&[1, 1]),
            Some(vec![Value::from(true), Value::from("hi")])
        );
    }
}
