//! No-overwrite storage semantics (§2.5): updatable arrays with a history
//! dimension.
//!
//! "Scientists do not want to perform updates in place. To support this
//! concept, a history dimension must be added to every updatable array. An
//! initial transaction adds values into appropriate cells for history = 1.
//! The first subsequent SciDB transaction adds new values in the appropriate
//! cells for history = 2. … A delete operation removes a cell from an array
//! and in the obvious implementation based on deltas, one would insert a
//! deletion-flag as the delta."
//!
//! [`UpdatableArray`] wraps an [`Array`] whose schema carries the implicit
//! `history` dimension and exposes transactional, delta-based updates plus
//! time-travel reads. The history dimension can be enhanced with a
//! wall-clock mapping ([`crate::enhance::WallClock`]).

use crate::array::Array;
use crate::bitvec::BitVec;
use crate::chunk::Layer;
use crate::enhance::{EnhancementRef, PseudoValue};
use crate::error::{Error, Result};
use crate::geometry::Coords;
use crate::schema::{ArraySchema, HISTORY_DIM};
use crate::value::{Record, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Result of probing one history layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// No delta for the cell at or below the probed history value.
    Missing,
    /// The most recent delta is a deletion flag.
    Deleted,
    /// The most recent delta is a value.
    Value(Record),
}

impl Lookup {
    /// Collapses to an `Option`, losing the Missing/Deleted distinction.
    pub fn into_option(self) -> Option<Record> {
        match self {
            Lookup::Value(r) => Some(r),
            _ => None,
        }
    }
}

/// A buffered transaction: cell puts and deletes that commit atomically as
/// one new history version.
#[derive(Debug, Default)]
pub struct Transaction {
    puts: Vec<(Coords, Record)>,
    deletes: Vec<Coords>,
}

impl Transaction {
    /// Creates an empty transaction.
    pub fn new() -> Self {
        Transaction::default()
    }

    /// Buffers a cell write (coordinates exclude the history dimension).
    pub fn put(&mut self, coords: &[i64], record: Record) -> &mut Self {
        self.puts.push((coords.to_vec(), record));
        self
    }

    /// Buffers a cell deletion ("insert a deletion-flag as the delta").
    pub fn delete(&mut self, coords: &[i64]) -> &mut Self {
        self.deletes.push(coords.to_vec());
        self
    }

    /// Number of buffered operations.
    pub fn len(&self) -> usize {
        self.puts.len() + self.deletes.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.puts.is_empty() && self.deletes.is_empty()
    }
}

/// An updatable array: delta transactions along an implicit history
/// dimension; nothing is ever overwritten.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdatableArray {
    inner: Array,
    hist_dim: usize,
    current: i64,
    /// Full coordinates (including history) of deletion flags.
    tombstones: BTreeSet<Coords>,
}

impl UpdatableArray {
    /// Creates an updatable array. The schema is made updatable (appending
    /// the `history` dimension) if it is not already.
    pub fn new(schema: ArraySchema) -> Result<Self> {
        let schema = if schema.is_updatable() {
            schema
        } else {
            schema.updatable()?
        };
        let hist_dim = schema
            .dim_index(HISTORY_DIM)
            .ok_or_else(|| Error::schema("updatable schema lacks history dimension"))?;
        Ok(UpdatableArray {
            inner: Array::new(schema),
            hist_dim,
            current: 0,
            tombstones: BTreeSet::new(),
        })
    }

    /// The underlying array, history dimension included — supports the
    /// paper's direct addressing `A[x=2, y=2, history=1]`.
    pub fn array(&self) -> &Array {
        &self.inner
    }

    /// Index of the history dimension.
    pub fn history_dim(&self) -> usize {
        self.hist_dim
    }

    /// The latest committed history value (0 before the initial load).
    pub fn current_history(&self) -> i64 {
        self.current
    }

    /// Commits a transaction as history version `current + 1` and returns
    /// the new history value.
    pub fn commit(&mut self, txn: Transaction) -> Result<i64> {
        let h = self.current + 1;
        // Validate first: a failed commit must not leave partial deltas.
        for (coords, _) in &txn.puts {
            self.validate_base_coords(coords)?;
        }
        for coords in &txn.deletes {
            self.validate_base_coords(coords)?;
        }
        for (coords, record) in txn.puts {
            let full = with_history(&coords, self.hist_dim, h);
            self.inner.set_cell(&full, record)?;
        }
        let null_rec: Record = vec![Value::Null; self.inner.schema().attrs().len()];
        for coords in txn.deletes {
            let full = with_history(&coords, self.hist_dim, h);
            self.inner.set_cell(&full, null_rec.clone())?;
            self.tombstones.insert(full);
        }
        self.current = h;
        Ok(h)
    }

    /// Convenience: commits a single-cell write.
    pub fn commit_put(&mut self, coords: &[i64], record: Record) -> Result<i64> {
        let mut t = Transaction::new();
        t.put(coords, record);
        self.commit(t)
    }

    /// Probes the cell as of history version `h`: the most recent delta at
    /// or below `h`.
    pub fn lookup_at(&self, coords: &[i64], h: i64) -> Lookup {
        let h = h.min(self.current);
        for hh in (1..=h).rev() {
            let full = with_history(coords, self.hist_dim, hh);
            if self.tombstones.contains(&full) {
                return Lookup::Deleted;
            }
            if let Some(rec) = self.inner.get_cell(&full) {
                return Lookup::Value(rec);
            }
        }
        Lookup::Missing
    }

    /// Reads the cell as of history version `h`.
    pub fn get_at(&self, coords: &[i64], h: i64) -> Option<Record> {
        self.lookup_at(coords, h).into_option()
    }

    /// Reads the cell at the latest history version.
    pub fn get_latest(&self, coords: &[i64]) -> Option<Record> {
        self.get_at(coords, self.current)
    }

    /// "Travels along the history dimension": every delta recorded for the
    /// cell, in history order. `None` records are deletion flags.
    pub fn cell_history(&self, coords: &[i64]) -> Vec<(i64, Option<Record>)> {
        let mut out = Vec::new();
        for h in 1..=self.current {
            let full = with_history(coords, self.hist_dim, h);
            if self.tombstones.contains(&full) {
                out.push((h, None));
            } else if let Some(rec) = self.inner.get_cell(&full) {
                out.push((h, Some(rec)));
            }
        }
        out
    }

    /// Materializes a snapshot (history dimension dropped) as of version
    /// `h`: [`snapshot`] of this array's [`layers`](Self::layers).
    pub fn snapshot_at(&self, h: i64) -> Result<Array> {
        snapshot(self.inner.schema(), self.hist_dim, h, self.layers())
    }

    /// The history layers: every chunk of the delta array — one history
    /// value each, the history dimension having stride 1 — with its
    /// deletion flags as deletion lanes.
    pub fn layers(&self) -> impl Iterator<Item = Layer> + '_ {
        self.inner.chunks().values().map(|chunk| {
            // The rectangle's corners bound its cells in coordinate order.
            let (low, high) = (chunk.rect().low.clone(), chunk.rect().high.clone());
            let lanes = self
                .tombstones
                .range(low..=high)
                .filter_map(|full| chunk.lane_at(full));
            let mut deleted = BitVec::filled(chunk.present_count(), false);
            lanes.for_each(|lane| deleted.set(lane, true));
            Layer {
                chunk: chunk.clone(),
                deleted: (deleted.count_ones() > 0).then_some(deleted),
            }
        })
    }

    /// Attaches a wall-clock enhancement to the history dimension (§2.5:
    /// "the array can be addressed using conventional time").
    pub fn set_clock(&mut self, clock: EnhancementRef) -> Result<()> {
        if clock.output_names().len() != 1 {
            return Err(Error::dimension("history clock must map one dimension"));
        }
        self.inner.enhance(clock)
    }

    /// Reads the cell as of wall-clock `time`, resolved through the
    /// attached clock enhancement.
    pub fn get_at_time(
        &self,
        coords: &[i64],
        time: i64,
        clock_name: &str,
    ) -> Result<Option<Record>> {
        let clock = self
            .inner
            .enhancement(clock_name)
            .ok_or_else(|| Error::not_found(format!("clock '{clock_name}'")))?;
        match clock.inverse(&[PseudoValue::Int(time)])? {
            Some(h) => Ok(self.get_at(coords, h[0])),
            None => Ok(None),
        }
    }

    /// Total bytes of delta storage.
    pub fn byte_size(&self) -> usize {
        self.inner.byte_size()
    }

    /// Number of delta cells recorded across all versions.
    pub fn delta_count(&self) -> usize {
        self.inner.cell_count()
    }

    fn validate_base_coords(&self, coords: &[i64]) -> Result<()> {
        if coords.len() != self.inner.rank() - 1 {
            return Err(Error::dimension(format!(
                "expected {} coordinates (history excluded), got {}",
                self.inner.rank() - 1,
                coords.len()
            )));
        }
        // Delegate bound checks by probing with history = 1.
        let full = with_history(coords, self.hist_dim, 1);
        self.inner.validate_coords(&full)
    }
}

/// The full coordinates of base cell `coords` at history value `h`, the
/// history dimension being dimension `hist_dim`.
pub fn with_history(coords: &[i64], hist_dim: usize, h: i64) -> Coords {
    let mut full = Vec::with_capacity(coords.len() + 1);
    full.extend_from_slice(&coords[..hist_dim.min(coords.len())]);
    full.push(h);
    if hist_dim < coords.len() {
        full.extend_from_slice(&coords[hist_dim..]);
    }
    full
}

/// The snapshot at history `h` of an updatable array's history layers,
/// `schema` being the array's own and `hist` its history dimension: the
/// layers at or below `h` are relabelled without the history dimension and
/// overlaid in ascending history order, so the latest delta of each cell
/// wins and a deletion flag removes the cell. The in-memory
/// [`UpdatableArray`] and the storage crate's persisted history layers both
/// read a version through it. A layer that spans more than one history
/// value is an error.
pub fn snapshot(
    schema: &ArraySchema,
    hist: usize,
    h: i64,
    layers: impl IntoIterator<Item = Layer>,
) -> Result<Array> {
    let mut dims = schema.dims().to_vec();
    dims.remove(hist);
    let out = ArraySchema::new(
        format!("{}@{h}", schema.name()),
        schema.attrs().to_vec(),
        dims,
    )?;
    let mut layers: Vec<Layer> = layers
        .into_iter()
        .filter(|l| l.chunk.rect().low[hist] <= h)
        .collect();
    layers.sort_by_key(|l| l.chunk.rect().low[hist]);
    let layers = layers.into_iter().map(|Layer { chunk, deleted }| {
        let mut rect = chunk.rect().clone();
        rect.low.remove(hist);
        rect.high.remove(hist);
        Ok(Layer {
            chunk: chunk.relabel(rect)?,
            deleted,
        })
    });
    Array::assemble(Arc::new(out), layers.collect::<Result<Vec<_>>>()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enhance::WallClock;
    use crate::schema::SchemaBuilder;
    use crate::value::{record, ScalarType};
    use std::sync::Arc;

    fn remote2() -> UpdatableArray {
        // define updatable Remote_2 (s1 = float) (I, J, history) — §2.5.
        let schema = SchemaBuilder::new("Remote_2")
            .attr("s1", ScalarType::Float64)
            .dim("I", 4)
            .dim("J", 4)
            .updatable()
            .build()
            .unwrap();
        UpdatableArray::new(schema).unwrap()
    }

    #[test]
    fn initial_transaction_is_history_one() {
        let mut a = remote2();
        let mut t = Transaction::new();
        t.put(&[1, 1], record([Value::from(1.0)]));
        t.put(&[2, 2], record([Value::from(2.0)]));
        let h = a.commit(t).unwrap();
        assert_eq!(h, 1);
        assert_eq!(a.current_history(), 1);
        // Direct dimension addressing, as in the paper.
        assert_eq!(a.array().get_cell(&[2, 2, 1]), Some(vec![Value::from(2.0)]));
    }

    #[test]
    fn updates_never_overwrite() {
        let mut a = remote2();
        a.commit_put(&[2, 2], record([Value::from(1.0)])).unwrap();
        a.commit_put(&[2, 2], record([Value::from(9.0)])).unwrap();
        // Old value still present at history = 1.
        assert_eq!(a.get_at(&[2, 2], 1), Some(vec![Value::from(1.0)]));
        assert_eq!(a.get_at(&[2, 2], 2), Some(vec![Value::from(9.0)]));
        assert_eq!(a.get_latest(&[2, 2]), Some(vec![Value::from(9.0)]));
    }

    #[test]
    fn travel_along_history_dimension() {
        let mut a = remote2();
        a.commit_put(&[2, 2], record([Value::from(1.0)])).unwrap();
        a.commit_put(&[3, 3], record([Value::from(5.0)])).unwrap(); // unrelated
        a.commit_put(&[2, 2], record([Value::from(2.0)])).unwrap();
        let hist = a.cell_history(&[2, 2]);
        assert_eq!(
            hist,
            vec![
                (1, Some(vec![Value::from(1.0)])),
                (3, Some(vec![Value::from(2.0)]))
            ]
        );
    }

    #[test]
    fn intermediate_versions_fall_through() {
        let mut a = remote2();
        a.commit_put(&[1, 1], record([Value::from(1.0)])).unwrap(); // h=1
        a.commit_put(&[2, 2], record([Value::from(2.0)])).unwrap(); // h=2
                                                                    // At h=2, cell [1,1] still reads its h=1 value.
        assert_eq!(a.get_at(&[1, 1], 2), Some(vec![Value::from(1.0)]));
    }

    #[test]
    fn delete_inserts_deletion_flag() {
        let mut a = remote2();
        a.commit_put(&[1, 1], record([Value::from(1.0)])).unwrap();
        let mut t = Transaction::new();
        t.delete(&[1, 1]);
        a.commit(t).unwrap();
        assert_eq!(a.get_latest(&[1, 1]), None);
        assert_eq!(a.lookup_at(&[1, 1], 2), Lookup::Deleted);
        // History 1 still shows the value — provenance retained.
        assert_eq!(a.get_at(&[1, 1], 1), Some(vec![Value::from(1.0)]));
        // Re-insert after delete.
        a.commit_put(&[1, 1], record([Value::from(7.0)])).unwrap();
        assert_eq!(a.get_latest(&[1, 1]), Some(vec![Value::from(7.0)]));
    }

    #[test]
    fn missing_vs_deleted() {
        let a = remote2();
        assert_eq!(a.lookup_at(&[1, 1], 1), Lookup::Missing);
    }

    #[test]
    fn snapshot_materializes_latest_wins() {
        let mut a = remote2();
        a.commit_put(&[1, 1], record([Value::from(1.0)])).unwrap();
        let mut t = Transaction::new();
        t.put(&[1, 1], record([Value::from(2.0)]));
        t.put(&[2, 2], record([Value::from(3.0)]));
        a.commit(t).unwrap();
        let mut t = Transaction::new();
        t.delete(&[2, 2]);
        a.commit(t).unwrap();

        let snap2 = a.snapshot_at(2).unwrap();
        assert_eq!(snap2.rank(), 2);
        assert_eq!(snap2.get_f64(0, &[1, 1]), Some(2.0));
        assert_eq!(snap2.get_f64(0, &[2, 2]), Some(3.0));

        let snap3 = a.snapshot_at(3).unwrap();
        assert_eq!(snap3.get_f64(0, &[1, 1]), Some(2.0));
        assert!(!snap3.exists(&[2, 2]));

        let snap1 = a.snapshot_at(1).unwrap();
        assert_eq!(snap1.cell_count(), 1);
    }

    #[test]
    fn failed_commit_validates_bounds_first() {
        let mut a = remote2();
        let mut t = Transaction::new();
        t.put(&[1, 1], record([Value::from(1.0)]));
        t.put(&[99, 1], record([Value::from(2.0)])); // out of bounds
        assert!(a.commit(t).is_err());
        assert_eq!(a.current_history(), 0);
        assert_eq!(a.get_latest(&[1, 1]), None, "no partial commit");
    }

    #[test]
    fn wall_clock_time_travel() {
        let mut a = remote2();
        a.set_clock(Arc::new(WallClock::new("clock", 1000, 100)))
            .unwrap();
        a.commit_put(&[1, 1], record([Value::from(1.0)])).unwrap(); // t=1000
        a.commit_put(&[1, 1], record([Value::from(2.0)])).unwrap(); // t=1100
        assert_eq!(
            a.get_at_time(&[1, 1], 1050, "clock").unwrap(),
            Some(vec![Value::from(1.0)])
        );
        assert_eq!(
            a.get_at_time(&[1, 1], 1100, "clock").unwrap(),
            Some(vec![Value::from(2.0)])
        );
        assert_eq!(a.get_at_time(&[1, 1], 500, "clock").unwrap(), None);
    }

    #[test]
    fn transaction_builder() {
        let mut t = Transaction::new();
        assert!(t.is_empty());
        t.put(&[1, 1], record([Value::from(1.0)])).delete(&[2, 2]);
        assert_eq!(t.len(), 2);
    }
}
