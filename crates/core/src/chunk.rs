//! Chunks: the in-memory unit of array storage.
//!
//! An array is decomposed into rectangular chunks ("buckets, defined by a
//! stride in each dimension", §2.8). Every chunk has one representation,
//! the layout its bucket already stores (`scidb_storage::bucket`):
//!
//! * **offsets** — the row-major offsets of its present cells inside its
//!   rectangle, strictly increasing, stored as `u32` behind an `Arc` so that
//!   a clone, and every kernel that keeps presence (filter, apply, project,
//!   an aligned sjoin of equal presence), shares them instead of copying;
//! * **compact columns** — one typed [`Column`] per attribute holding one
//!   value and one NULL bit per *lane*, a lane being a present cell's
//!   position in the offsets.
//!
//! A delta layer of a handful of cells (history versions §2.5, named-version
//! deltas §2.11) costs a handful of lanes — "essentially no space" — and a
//! full chunk costs its values plus 4 bytes of offset per cell, so the
//! columnar batch kernels run on every chunk, sparse or full. Accessors take
//! a lane; a write in row-major order appends, and an out-of-order write or
//! a [`Chunk::clear_cell`] inserts or removes at its binary-searched lane.
//!
//! The `uncertain float` column keeps the §2.13 promise that "arrays with the
//! same error bounds for all values will require negligible extra space": the
//! sigma store starts empty, records a single constant on first write, and is
//! upgraded to a per-lane vector only when a different sigma is written.

use crate::array::Array;
use crate::bitvec::BitVec;
use crate::error::{Error, Result};
use crate::geometry::{Coords, HyperRect};
use crate::schema::AttrType;
use crate::uncertain::Uncertain;
use crate::value::{Record, Scalar, ScalarType, Value};
use std::sync::Arc;

/// Sigma storage for an uncertain column: constant-σ (compact) or per-lane.
#[derive(Debug, Clone, PartialEq)]
pub enum SigmaStore {
    /// No sigma written yet.
    Empty,
    /// All lanes share one sigma. Upgraded lazily on a divergent write.
    Constant(f64),
    /// Per-lane sigmas.
    PerCell(Vec<f64>),
}

impl SigmaStore {
    /// Sigma of lane `idx`.
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

/// A compact typed column: one value and one NULL bit per lane, in offset
/// order. A NULL lane's value slot holds a placeholder or a stale value and
/// is never read as a value.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers.
    Int64 {
        /// Lane values.
        data: Vec<i64>,
        /// NULL bitmap (1 = null).
        nulls: BitVec,
    },
    /// 64-bit floats.
    Float64 {
        /// Lane values.
        data: Vec<f64>,
        /// NULL bitmap (1 = null).
        nulls: BitVec,
    },
    /// Booleans.
    Bool {
        /// Lane values.
        data: Vec<bool>,
        /// NULL bitmap.
        nulls: BitVec,
    },
    /// Strings.
    Str {
        /// Lane values.
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
        /// Lane values.
        data: Vec<Option<Array>>,
    },
}

impl Column {
    /// Allocates a column of `len` lanes for the given attribute type, all
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

    /// Number of lanes.
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

    /// True if the column has no lanes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if lane `idx` is NULL.
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

    /// Reads lane `idx` as a [`Value`].
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

    /// Writes lane `idx`.
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

    /// The NULL bitmap of a scalar column; `None` for a nested column,
    /// whose NULLs are `None` values.
    pub fn nulls(&self) -> Option<&BitVec> {
        match self {
            Column::Int64 { nulls, .. }
            | Column::Float64 { nulls, .. }
            | Column::Bool { nulls, .. }
            | Column::Str { nulls, .. }
            | Column::Uncertain { nulls, .. } => Some(nulls),
            Column::Nested { .. } => None,
        }
    }

    fn nulls_mut(&mut self) -> Option<&mut BitVec> {
        match self {
            Column::Int64 { nulls, .. }
            | Column::Float64 { nulls, .. }
            | Column::Bool { nulls, .. }
            | Column::Str { nulls, .. }
            | Column::Uncertain { nulls, .. } => Some(nulls),
            Column::Nested { .. } => None,
        }
    }

    /// Opens a NULL lane at `idx`, shifting later lanes up by one.
    fn insert_null(&mut self, idx: usize) {
        if let Some(nulls) = self.nulls_mut() {
            nulls.insert(idx, true);
        }
        match self {
            Column::Int64 { data, .. } => data.insert(idx, 0),
            Column::Float64 { data, .. } => data.insert(idx, 0.0),
            Column::Bool { data, .. } => data.insert(idx, false),
            Column::Str { data, .. } => data.insert(idx, String::new()),
            Column::Uncertain { means, sigmas, .. } => {
                means.insert(idx, 0.0);
                if let SigmaStore::PerCell(v) = sigmas {
                    v.insert(idx, 0.0);
                }
            }
            Column::Nested { data } => data.insert(idx, None),
        }
    }

    /// Removes lane `idx`, shifting later lanes down by one.
    fn remove(&mut self, idx: usize) {
        if let Some(nulls) = self.nulls_mut() {
            nulls.remove(idx);
        }
        match self {
            Column::Int64 { data, .. } => {
                data.remove(idx);
            }
            Column::Float64 { data, .. } => {
                data.remove(idx);
            }
            Column::Bool { data, .. } => {
                data.remove(idx);
            }
            Column::Str { data, .. } => {
                data.remove(idx);
            }
            Column::Uncertain { means, sigmas, .. } => {
                means.remove(idx);
                if let SigmaStore::PerCell(v) = sigmas {
                    v.remove(idx);
                }
            }
            Column::Nested { data } => {
                data.remove(idx);
            }
        }
    }

    /// The column of lanes `lanes`, in that order.
    pub(crate) fn gather(&self, lanes: &[usize]) -> Column {
        let bits = |nulls: &BitVec| {
            let mut words = vec![0u64; lanes.len().div_ceil(64)];
            for (i, &l) in lanes.iter().enumerate() {
                words[i / 64] |= u64::from(nulls.get(l)) << (i % 64);
            }
            BitVec::from_words(words, lanes.len())
        };
        match self {
            Column::Int64 { data, nulls } => Column::Int64 {
                data: lanes.iter().map(|&l| data[l]).collect(),
                nulls: bits(nulls),
            },
            Column::Float64 { data, nulls } => Column::Float64 {
                data: lanes.iter().map(|&l| data[l]).collect(),
                nulls: bits(nulls),
            },
            Column::Bool { data, nulls } => Column::Bool {
                data: lanes.iter().map(|&l| data[l]).collect(),
                nulls: bits(nulls),
            },
            Column::Str { data, nulls } => Column::Str {
                data: lanes.iter().map(|&l| data[l].clone()).collect(),
                nulls: bits(nulls),
            },
            Column::Uncertain {
                means,
                sigmas,
                nulls,
            } => Column::Uncertain {
                means: lanes.iter().map(|&l| means[l]).collect(),
                sigmas: match sigmas {
                    SigmaStore::PerCell(v) => {
                        SigmaStore::PerCell(lanes.iter().map(|&l| v[l]).collect())
                    }
                    compact => compact.clone(),
                },
                nulls: bits(nulls),
            },
            Column::Nested { data } => Column::Nested {
                data: lanes.iter().map(|&l| data[l].clone()).collect(),
            },
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

/// One rectangular chunk of an array: the sorted offsets of its present
/// cells plus one compact column per attribute (see the module docs).
#[derive(Debug, Clone)]
pub struct Chunk {
    rect: HyperRect,
    attr_types: Vec<AttrType>,
    /// Row-major offsets of the present cells, strictly increasing; lane
    /// `i` of every column belongs to `offsets[i]`.
    offsets: Arc<Vec<u32>>,
    columns: Vec<Column>,
}

impl PartialEq for Chunk {
    /// Logical equality: same rectangle, same present cells, same records.
    /// A NULL lane's stale value slot is not compared.
    fn eq(&self, other: &Self) -> bool {
        self.rect == other.rect
            && self.offsets == other.offsets
            && (0..self.present_count()).all(|lane| self.record_at(lane) == other.record_at(lane))
    }
}

/// One layer of an [`Chunk::overlay`]: a chunk and, when it carries
/// deletion flags ("insert a deletion-flag as the delta", §2.5), which of
/// its lanes delete their cell instead of writing it.
#[derive(Debug, Clone)]
pub struct Layer {
    /// The layer's cells.
    pub chunk: Chunk,
    /// One bit per lane of `chunk`, set where the lane is a deletion flag;
    /// `None` when the layer deletes nothing.
    pub deleted: Option<BitVec>,
}

impl From<Chunk> for Layer {
    fn from(chunk: Chunk) -> Layer {
        Layer {
            chunk,
            deleted: None,
        }
    }
}

impl Chunk {
    /// Allocates an all-empty chunk covering `rect` with the given attribute
    /// types.
    pub fn new(rect: HyperRect, attr_types: &[AttrType]) -> Chunk {
        Chunk {
            rect,
            attr_types: attr_types.to_vec(),
            offsets: Arc::default(),
            columns: attr_types.iter().map(|t| Column::new(t, 0)).collect(),
        }
    }

    /// Assembles a chunk from its parts: the strictly increasing row-major
    /// offsets of the present cells and one compact column per attribute
    /// with one lane per offset.
    pub fn from_parts(
        rect: HyperRect,
        attr_types: Vec<AttrType>,
        offsets: Arc<Vec<u32>>,
        columns: Vec<Column>,
    ) -> Result<Chunk> {
        let capacity = rect
            .checked_volume()
            .filter(|&cells| cells <= u64::from(u32::MAX))
            .ok_or_else(|| Error::schema("chunk holds more than u32::MAX cells"))?;
        if offsets.last().is_some_and(|&o| u64::from(o) >= capacity) {
            return Err(Error::schema("chunk offset out of range"));
        }
        if offsets.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::schema("chunk offsets not strictly increasing"));
        }
        if columns.len() != attr_types.len() {
            return Err(Error::schema("column count mismatch"));
        }
        if columns.iter().any(|c| c.len() != offsets.len()) {
            return Err(Error::schema("column length mismatch"));
        }
        Ok(Chunk {
            rect,
            attr_types,
            offsets,
            columns,
        })
    }

    /// A chunk with this chunk's rectangle and present cells (sharing its
    /// offsets) and the given columns, one lane per present cell.
    pub(crate) fn with_columns(&self, attr_types: Vec<AttrType>, columns: Vec<Column>) -> Chunk {
        debug_assert!(columns.iter().all(|c| c.len() == self.offsets.len()));
        Chunk {
            rect: self.rect.clone(),
            attr_types,
            offsets: Arc::clone(&self.offsets),
            columns,
        }
    }

    /// The chunk of lanes `lanes` (strictly increasing) of this chunk.
    pub(crate) fn gather(&self, lanes: &[usize]) -> Chunk {
        Chunk {
            rect: self.rect.clone(),
            attr_types: self.attr_types.clone(),
            offsets: Arc::new(lanes.iter().map(|&l| self.offsets[l]).collect()),
            columns: self.columns.iter().map(|c| c.gather(lanes)).collect(),
        }
    }

    /// The lanes of this chunk whose cells lie inside both `keep` and
    /// `target`, re-offset into a chunk covering `target`: what writing
    /// each such cell into an empty chunk of `target` would build, done on
    /// offsets and columns alone. A region read clips a bucket with it, and
    /// a merged bucket splits into schema chunks. When `target` is this
    /// chunk's rectangle and every present cell is kept, the result shares
    /// this chunk's offsets. `target` holds at most `u32::MAX` cells, as
    /// every schema chunk does.
    pub fn project_onto(&self, keep: &HyperRect, target: &HyperRect) -> Chunk {
        let clip = self
            .rect
            .intersection(keep)
            .and_then(|r| r.intersection(target));
        let Some(clip) = clip else {
            return Chunk::new(target.clone(), &self.attr_types);
        };
        if *target == self.rect && clip == self.rect {
            return self.clone();
        }
        // Walk the rows of `clip` (all dimensions but the last) in
        // row-major order. A row is one contiguous offset run in both
        // rectangles, so its lanes are a range of the sorted offsets and
        // the target offsets come out increasing.
        let last = clip.rank() - 1;
        let run = clip.len(last) as usize;
        let mut lanes = Vec::new();
        let mut offsets = Vec::new();
        let mut row = clip.low.clone();
        let mut from = 0;
        'rows: loop {
            let src = self.rect.linearize(&row);
            let dst = target.linearize(&row);
            let lo = from + self.offsets[from..].partition_point(|&o| (o as usize) < src);
            let hi = lo + self.offsets[lo..].partition_point(|&o| (o as usize) < src + run);
            for (lane, &o) in (lo..hi).zip(&self.offsets[lo..hi]) {
                lanes.push(lane);
                offsets.push((dst + (o as usize - src)) as u32);
            }
            from = hi;
            // The next row: carry leftwards through dimensions `..last`.
            let mut d = last;
            loop {
                if d == 0 {
                    break 'rows;
                }
                d -= 1;
                row[d] += 1;
                if row[d] <= clip.high[d] {
                    break;
                }
                row[d] = clip.low[d];
            }
        }
        if *target == self.rect && lanes.len() == self.offsets.len() {
            return self.clone();
        }
        Chunk {
            rect: target.clone(),
            attr_types: self.attr_types.clone(),
            offsets: Arc::new(offsets),
            columns: self.columns.iter().map(|c| c.gather(&lanes)).collect(),
        }
    }

    /// This chunk under another rectangle with the same row-major layout —
    /// equal extents once the extent-1 sides of both are dropped — keeping
    /// its lanes, its offsets `Arc` and its columns. One check covers
    /// dropping an extent-1 dimension (a slice, a history layer read as a
    /// snapshot), adding one, and translating the chunk. Errors when the
    /// layouts differ.
    pub fn relabel(self, rect: HyperRect) -> Result<Chunk> {
        let sides = |r: &HyperRect| {
            (0..r.rank())
                .map(|d| r.len(d))
                .filter(|&n| n != 1)
                .collect::<Vec<_>>()
        };
        if sides(&self.rect) != sides(&rect) {
            return Err(Error::dimension(format!(
                "cannot relabel a chunk over {:?} as {rect:?}: the layouts differ",
                self.rect
            )));
        }
        Ok(Chunk { rect, ..self })
    }

    /// `layers` laid over one another, oldest first: the union of their
    /// offsets, the newest layer holding an offset winning it, and a
    /// winning deleted lane removing the cell (§2.5's deletion flag).
    /// This one function is a bucket merge (§2.8), a region read's
    /// overlapping buckets and a history snapshot. Every layer must cover
    /// the same rectangle with the same attribute types; a lone layer
    /// without deletions comes back as it is.
    pub fn overlay(mut layers: Vec<Layer>) -> Result<Chunk> {
        if layers.len() == 1 && layers[0].deleted.is_none() {
            return Ok(layers.swap_remove(0).chunk);
        }
        let Some(first) = layers.first() else {
            return Err(Error::schema("overlay of no layers"));
        };
        let (rect, types) = (&first.chunk.rect, &first.chunk.attr_types);
        for l in &layers {
            if l.chunk.rect != *rect || l.chunk.attr_types != *types {
                return Err(Error::schema(
                    "overlay of chunks with different rectangles or attribute types",
                ));
            }
            if l.deleted
                .as_ref()
                .is_some_and(|d| d.len() != l.chunk.present_count())
            {
                return Err(Error::schema(
                    "deletion lanes do not match the chunk's lanes",
                ));
            }
        }
        // Every lane of every layer by offset; the sort is stable, so the
        // lanes holding one offset stay oldest first and the last one wins.
        let mut lanes: Vec<(u32, usize, usize)> = layers
            .iter()
            .enumerate()
            .flat_map(|(i, l)| {
                l.chunk
                    .offsets
                    .iter()
                    .enumerate()
                    .map(move |(lane, &o)| (o, i, lane))
            })
            .collect();
        lanes.sort_by_key(|&(offset, _, _)| offset);
        let mut offsets = Vec::with_capacity(lanes.len());
        let mut picks = Vec::with_capacity(lanes.len());
        for (k, &(offset, i, lane)) in lanes.iter().enumerate() {
            let shadowed = lanes.get(k + 1).is_some_and(|next| next.0 == offset);
            if !shadowed && !layers[i].deleted.as_ref().is_some_and(|d| d.get(lane)) {
                offsets.push(offset);
                picks.push((i, lane));
            }
        }
        let columns = types
            .iter()
            .enumerate()
            .map(|(a, ty)| {
                let mut col = Column::new(ty, picks.len());
                for (to, &(i, lane)) in picks.iter().enumerate() {
                    col.set(to, &layers[i].chunk.columns[a].get(lane))?;
                }
                Ok(col)
            })
            .collect::<Result<_>>()?;
        Ok(Chunk {
            rect: rect.clone(),
            attr_types: types.clone(),
            offsets: Arc::new(offsets),
            columns,
        })
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

    /// Number of present (non-empty) cells, which is the number of lanes.
    pub fn present_count(&self) -> usize {
        self.offsets.len()
    }

    /// True if no cell is present.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The row-major offsets of the present cells, one per lane, strictly
    /// increasing.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The compact columns, one per attribute, one lane per present cell.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Row-major offset of `coords` within this chunk.
    #[inline]
    pub fn offset_of(&self, coords: &[i64]) -> usize {
        self.rect.linearize(coords)
    }

    /// The lane of the present cell at `coords`, if any: a binary search
    /// of the offsets.
    pub fn lane_at(&self, coords: &[i64]) -> Option<usize> {
        if !self.rect.contains(coords) {
            return None;
        }
        let offset = self.offset_of(coords);
        self.offsets
            .binary_search_by(|&o| (o as usize).cmp(&offset))
            // analyze: allow(R4, Err is where an absent cell would go, not an error)
            .ok()
    }

    /// True if the cell at `coords` is present.
    pub fn cell_present(&self, coords: &[i64]) -> bool {
        self.lane_at(coords).is_some()
    }

    /// Reads the full record at lane `lane`.
    pub fn record_at(&self, lane: usize) -> Record {
        self.columns.iter().map(|c| c.get(lane)).collect()
    }

    /// Reads one attribute at lane `lane`.
    pub fn value_at(&self, attr: usize, lane: usize) -> Value {
        self.columns[attr].get(lane)
    }

    /// Borrows a nested-array attribute at lane `lane` without cloning it
    /// (`None` when NULL or not a nested column) — the fast path for the
    /// §2.14 clickstream analyses.
    pub fn nested_at(&self, attr: usize, lane: usize) -> Option<&Array> {
        match &self.columns[attr] {
            Column::Nested { data } => data[lane].as_ref(),
            _ => None,
        }
    }

    /// Fast numeric read of one attribute at lane `lane`; `None` when the
    /// value is NULL or non-numeric.
    #[inline]
    pub fn value_f64(&self, attr: usize, lane: usize) -> Option<f64> {
        self.columns[attr].get_f64(lane)
    }

    /// Reads the full record at `coords`, or `None` if the cell is empty.
    pub fn get_record(&self, coords: &[i64]) -> Option<Record> {
        self.lane_at(coords).map(|lane| self.record_at(lane))
    }

    /// Reads one attribute at `coords`, or `None` if the cell is empty.
    pub fn get_value(&self, attr: usize, coords: &[i64]) -> Option<Value> {
        self.lane_at(coords).map(|lane| self.value_at(attr, lane))
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

    /// Writes a record at `coords`, marking the cell present. A cell past
    /// the last present one appends a lane; any other new cell inserts one
    /// at its binary-searched position.
    pub fn set_record(&mut self, coords: &[i64], record: &Record) -> Result<()> {
        self.validate_record(record)?;
        let offset = u32::try_from(self.offset_of(coords))
            .map_err(|_| Error::dimension("chunk offset exceeds the u32 cell limit"))?;
        let lane = match self.offsets.last() {
            None => Err(0),
            Some(&last) if offset > last => Err(self.offsets.len()),
            Some(_) => self.offsets.binary_search(&offset),
        };
        let lane = match lane {
            Ok(lane) => lane,
            Err(lane) => {
                Arc::make_mut(&mut self.offsets).insert(lane, offset);
                for col in &mut self.columns {
                    col.insert_null(lane);
                }
                lane
            }
        };
        for (col, val) in self.columns.iter_mut().zip(record) {
            col.set(lane, val)?;
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
        if let Some(lane) = self.lane_at(coords) {
            Arc::make_mut(&mut self.offsets).remove(lane);
            for col in &mut self.columns {
                col.remove(lane);
            }
        }
    }

    /// Iterates `(coords, lane)` of present cells in row-major order.
    pub fn iter_present(&self) -> impl Iterator<Item = (Coords, usize)> + '_ {
        self.offsets
            .iter()
            .enumerate()
            .map(move |(lane, &off)| (self.rect.delinearize(off as usize), lane))
    }

    /// Approximate heap footprint in bytes: 4 bytes of offset per present
    /// cell plus the compact columns.
    pub fn byte_size(&self) -> usize {
        self.offsets.len() * 4 + self.columns.iter().map(Column::byte_size).sum::<usize>()
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
    fn new_chunk_is_empty() {
        let c = float_chunk();
        assert_eq!(c.capacity(), 16);
        assert_eq!(c.present_count(), 0);
        assert!(c.is_empty());
        assert!(c.offsets().is_empty());
        assert_eq!(c.get_record(&[1, 1]), None);
    }

    #[test]
    fn set_get_record_roundtrip() {
        let mut c = float_chunk();
        c.set_record(&[2, 3], &record([Value::from(1.5)])).unwrap();
        assert_eq!(c.present_count(), 1);
        assert_eq!(c.offsets(), &[6]);
        assert_eq!(c.get_record(&[2, 3]), Some(vec![Value::from(1.5)]));
        assert!(c.cell_present(&[2, 3]));
        assert!(!c.cell_present(&[3, 2]));
        assert!(!c.cell_present(&[5, 5]), "outside the rectangle");
    }

    #[test]
    fn out_of_order_writes_keep_offsets_sorted() {
        let mut c = float_chunk();
        for (k, coords) in [[3, 1], [1, 2], [4, 4], [1, 1], [3, 1]].iter().enumerate() {
            c.set_record(coords, &record([Value::from(k as f64)]))
                .unwrap();
        }
        assert_eq!(c.offsets(), &[0, 1, 8, 15]);
        assert_eq!(c.columns()[0].len(), 4);
        // The second write to [3, 1] overwrote its lane.
        assert_eq!(c.get_value(0, &[3, 1]), Some(Value::from(4.0)));
        assert_eq!(c.get_value(0, &[1, 1]), Some(Value::from(3.0)));
        c.clear_cell(&[1, 2]);
        assert_eq!(c.offsets(), &[0, 8, 15]);
        assert_eq!(c.get_value(0, &[4, 4]), Some(Value::from(2.0)));
    }

    #[test]
    fn equality_is_logical() {
        let mut forward = float_chunk();
        let mut backward = float_chunk();
        for j in 1..=4i64 {
            forward
                .set_record(&[1, j], &record([Value::from(j as f64)]))
                .unwrap();
            backward
                .set_record(&[1, 5 - j], &record([Value::from((5 - j) as f64)]))
                .unwrap();
        }
        assert_eq!(forward, backward);
        // A NULL lane's stale value slot is invisible.
        forward.set_record(&[1, 2], &record([Value::Null])).unwrap();
        let mut fresh = backward.clone();
        fresh.clear_cell(&[1, 2]);
        fresh.set_record(&[1, 2], &record([Value::Null])).unwrap();
        assert_eq!(forward, fresh);
        backward
            .set_record(&[3, 3], &record([Value::from(1.0)]))
            .unwrap();
        assert_ne!(forward, backward);
    }

    #[test]
    fn clones_share_offsets_until_written() {
        let mut c = float_chunk();
        c.set_record(&[1, 1], &record([Value::from(1.0)])).unwrap();
        let mut d = c.clone();
        assert_eq!(c.offsets().as_ptr(), d.offsets().as_ptr());
        d.set_record(&[2, 2], &record([Value::from(2.0)])).unwrap();
        assert_ne!(c.offsets().as_ptr(), d.offsets().as_ptr());
        assert_eq!(c.present_count(), 1);
        assert_eq!(d.present_count(), 2);
    }

    #[test]
    fn from_parts_rejects_bad_offsets_and_lengths() {
        let types = vec![AttrType::Scalar(ScalarType::Int64)];
        let col = |n| Column::new(&types[0], n);
        let parts = |offsets: Vec<u32>, n| {
            Chunk::from_parts(rect2(), types.clone(), Arc::new(offsets), vec![col(n)])
        };
        assert!(parts(vec![0, 5, 15], 3).is_ok());
        assert!(parts(vec![5, 5], 2).is_err(), "repeated offset");
        assert!(parts(vec![5, 0], 2).is_err(), "descending offsets");
        assert!(parts(vec![16], 1).is_err(), "offset past the capacity");
        assert!(parts(vec![1, 2], 3).is_err(), "column longer than offsets");
    }

    #[test]
    fn record_arity_checked() {
        let mut c = float_chunk();
        assert!(c
            .set_record(&[1, 1], &record([Value::from(1.0), Value::from(2.0)]))
            .is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = float_chunk();
        for _ in 0..2 {
            assert!(matches!(
                c.set_record(&[1, 1], &record([Value::from("oops")])),
                Err(Error::Schema(_))
            ));
            c.set_record(&[2, 2], &record([Value::from(1.0)])).unwrap();
        }
        assert_eq!(c.present_count(), 1, "a rejected write adds no lane");
    }

    #[test]
    fn int_widens_to_float_column() {
        let mut c = float_chunk();
        c.set_record(&[1, 1], &record([Value::from(3i64)])).unwrap();
        assert_eq!(c.get_value(0, &[1, 1]), Some(Value::from(3.0)));
    }

    #[test]
    fn null_value_is_present_but_null() {
        let mut c = float_chunk();
        c.set_record(&[1, 1], &record([Value::Null])).unwrap();
        assert!(c.cell_present(&[1, 1]));
        assert_eq!(c.get_value(0, &[1, 1]), Some(Value::Null));
        assert_eq!(c.value_f64(0, c.lane_at(&[1, 1]).unwrap()), None);
    }

    #[test]
    fn clear_cell_marks_empty() {
        let mut c = float_chunk();
        c.set_record(&[1, 1], &record([Value::from(1.0)])).unwrap();
        c.clear_cell(&[1, 1]);
        assert!(!c.cell_present(&[1, 1]));
        assert!(c.is_empty());
        c.clear_cell(&[1, 1]);
        assert!(c.is_empty(), "clearing an empty cell is a no-op");
    }

    #[test]
    fn iter_present_row_major() {
        let mut c = float_chunk();
        c.set_record(&[2, 1], &record([Value::from(1.0)])).unwrap();
        c.set_record(&[1, 4], &record([Value::from(2.0)])).unwrap();
        let cells: Vec<_> = c.iter_present().collect();
        assert_eq!(cells, vec![(vec![1, 4], 0), (vec![2, 1], 1)]);
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
    fn chunk_bytes_follow_present_cells() {
        // One cell of a 4096-cell chunk costs one lane; a full chunk costs
        // its values, its NULL bitmap and 4 bytes of offset per cell.
        let big = HyperRect::new(vec![1, 1], vec![64, 64]).unwrap();
        let mut c = Chunk::new(big.clone(), &[AttrType::Scalar(ScalarType::Float64)]);
        c.set_record(&[1, 1], &record([Value::from(1.0)])).unwrap();
        assert_eq!(c.byte_size(), 4 + 8 + 8);
        for coords in big.iter_cells() {
            c.set_record(&coords, &record([Value::from(1.0)])).unwrap();
        }
        assert_eq!(c.byte_size(), 4096 * (4 + 8) + 4096 / 8);
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
        match &c.columns()[0] {
            Column::Uncertain { sigmas, .. } => assert!(sigmas.is_constant()),
            _ => panic!("wrong column type"),
        }
        // A divergent sigma upgrades the store.
        c.set_record(&[1, 1], &record([Value::from(Uncertain::new(0.0, 0.9))]))
            .unwrap();
        match &c.columns()[0] {
            Column::Uncertain { sigmas, .. } => {
                assert!(!sigmas.is_constant());
                assert_eq!(sigmas.get(c.lane_at(&[1, 1]).unwrap()), 0.9);
                assert_eq!(sigmas.get(c.lane_at(&[1, 2]).unwrap()), 0.5);
            }
            _ => panic!("wrong column type"),
        }
        // Lanes opened and closed later keep the per-lane sigmas aligned.
        c.clear_cell(&[1, 1]);
        c.set_record(&[1, 1], &record([Value::from(Uncertain::new(0.0, 0.7))]))
            .unwrap();
        assert_eq!(
            c.get_value(0, &[1, 1]),
            Some(Value::from(Uncertain::new(0.0, 0.7)))
        );
        assert_eq!(
            c.get_value(0, &[1, 2]),
            Some(Value::from(Uncertain::new(1.0, 0.5)))
        );
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
        c.set_record(&[2, 2], &record([Value::from(false), Value::from("b")]))
            .unwrap();
        c.set_record(&[1, 1], &record([Value::from(true), Value::from("hi")]))
            .unwrap();
        assert_eq!(
            c.get_record(&[1, 1]),
            Some(vec![Value::from(true), Value::from("hi")])
        );
        assert_eq!(
            c.get_record(&[2, 2]),
            Some(vec![Value::from(false), Value::from("b")])
        );
    }
}
