//! Persistence for no-overwrite updatable arrays (§2.5).
//!
//! A [`DeltaStore`] writes each committed history version of an
//! [`UpdatableArray`] as its own set of immutable buckets (the physical
//! counterpart of "every transaction adds new array values for the next
//! value of the history dimension") and answers time-travel reads by
//! probing version layers newest-first. Experiment E8 measures how the
//! probe cost grows with history depth.

use crate::bucket::CodecPolicy;
use crate::disk::Disk;
use crate::manager::StorageManager;
use scidb_core::array::Array;
use scidb_core::error::{Error, Result};
use scidb_core::geometry::HyperRect;
use scidb_core::history::{snapshot, with_history, UpdatableArray};
use scidb_core::schema::ArraySchema;
use scidb_core::value::Record;
use std::sync::Arc;

/// Persistent store of an updatable array's history layers.
pub struct DeltaStore {
    mgr: StorageManager,
    hist_dim: usize,
    persisted_through: i64,
}

impl DeltaStore {
    /// Creates a store for the given updatable schema.
    pub fn new(disk: Arc<dyn Disk>, schema: &ArraySchema, policy: CodecPolicy) -> Result<Self> {
        let schema = if schema.is_updatable() {
            schema.clone()
        } else {
            schema.clone().updatable()?
        };
        let hist_dim = schema
            .dim_index(scidb_core::schema::HISTORY_DIM)
            .ok_or_else(|| Error::schema("updatable schema lacks history dimension"))?;
        Ok(DeltaStore {
            mgr: StorageManager::new(disk, Arc::new(schema), policy),
            hist_dim,
            persisted_through: 0,
        })
    }

    /// The highest history version persisted so far.
    pub fn persisted_through(&self) -> i64 {
        self.persisted_through
    }

    /// The underlying storage manager (for stats).
    pub fn manager(&self) -> &StorageManager {
        &self.mgr
    }

    /// Persists all not-yet-persisted history layers of `array`, each with
    /// its deletion lanes ([`StorageManager::write_layer`]).
    pub fn sync_from(&mut self, array: &UpdatableArray) -> Result<usize> {
        let mut written = 0;
        let target = array.current_history();
        if target <= self.persisted_through {
            return Ok(0);
        }
        // Select layers whose history coordinate is new. The history
        // dimension has stride 1, so each chunk belongs to one version.
        for layer in array.layers() {
            if layer.chunk.is_empty() {
                continue;
            }
            let h = layer.chunk.rect().low[self.hist_dim];
            debug_assert_eq!(h, layer.chunk.rect().high[self.hist_dim]);
            if h > self.persisted_through && h <= target {
                self.mgr.write_layer(&layer.chunk, layer.deleted.as_ref())?;
                written += 1;
            }
        }
        self.persisted_through = target;
        Ok(written)
    }

    /// Reads one cell as of history `h`, probing layers newest-first; a
    /// deletion flag reads as `None`. Each probe is a disk-backed point
    /// read; cost grows with the number of versions that must be probed
    /// before a delta is found.
    pub fn read_cell_at(&self, coords: &[i64], h: i64) -> Result<(Option<Record>, usize)> {
        let h = h.min(self.persisted_through);
        let mut probes = 0;
        for hh in (1..=h).rev() {
            let cell = HyperRect::cell(&with_history(coords, self.hist_dim, hh));
            self.mgr.check_region(&cell)?;
            probes += 1;
            for key in self.mgr.buckets_in(&cell).into_iter().rev() {
                let layer = self.mgr.read_layer(key)?;
                if let Some(lane) = layer.chunk.lane_at(&cell.low) {
                    let deleted = layer.deleted.is_some_and(|d| d.get(lane));
                    return Ok(((!deleted).then(|| layer.chunk.record_at(lane)), probes));
                }
            }
        }
        Ok((None, probes))
    }

    /// Materializes a full snapshot as of history `h`: the persisted layers
    /// at or below `h` overlaid in history order ([`snapshot`]), so the
    /// latest delta of each cell wins and a deletion flag removes the cell,
    /// as in the in-memory [`UpdatableArray::snapshot_at`].
    pub fn snapshot_at(&self, h: i64) -> Result<Array> {
        let layers = self
            .mgr
            .bucket_metas()
            .into_iter()
            .filter(|meta| meta.rect.low[self.hist_dim] <= h)
            .map(|meta| self.mgr.read_layer(meta.key))
            .collect::<Result<Vec<_>>>()?;
        snapshot(self.mgr.schema(), self.hist_dim, h, layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use scidb_core::history::Transaction;
    use scidb_core::schema::SchemaBuilder;
    use scidb_core::value::{record, ScalarType, Value};

    fn updatable() -> UpdatableArray {
        let schema = SchemaBuilder::new("U")
            .attr("v", ScalarType::Float64)
            .dim("I", 8)
            .dim("J", 8)
            .updatable()
            .build()
            .unwrap();
        UpdatableArray::new(schema).unwrap()
    }

    fn store_for(a: &UpdatableArray) -> DeltaStore {
        DeltaStore::new(
            Arc::new(MemDisk::new()),
            a.array().schema(),
            CodecPolicy::default_policy(),
        )
        .unwrap()
    }

    #[test]
    fn sync_persists_each_version_once() {
        let mut a = updatable();
        let mut store = store_for(&a);
        let mut t = Transaction::new();
        for i in 1..=8i64 {
            t.put(&[i, i], record([Value::from(i as f64)]));
        }
        a.commit(t).unwrap();
        let w1 = store.sync_from(&a).unwrap();
        assert!(w1 >= 1);
        assert_eq!(store.persisted_through(), 1);
        // Nothing new: no writes.
        assert_eq!(store.sync_from(&a).unwrap(), 0);

        a.commit_put(&[1, 1], record([Value::from(99.0)])).unwrap();
        let w2 = store.sync_from(&a).unwrap();
        assert!(w2 >= 1);
        assert_eq!(store.persisted_through(), 2);
    }

    #[test]
    fn point_time_travel_reads() {
        let mut a = updatable();
        let mut store = store_for(&a);
        a.commit_put(&[2, 2], record([Value::from(1.0)])).unwrap();
        a.commit_put(&[2, 2], record([Value::from(2.0)])).unwrap();
        a.commit_put(&[3, 3], record([Value::from(9.0)])).unwrap();
        store.sync_from(&a).unwrap();

        let (v, probes) = store.read_cell_at(&[2, 2], 3).unwrap();
        assert_eq!(v, Some(vec![Value::from(2.0)]));
        assert_eq!(probes, 2, "h=3 misses, h=2 hits");
        let (v, _) = store.read_cell_at(&[2, 2], 1).unwrap();
        assert_eq!(v, Some(vec![Value::from(1.0)]));
        let (v, probes) = store.read_cell_at(&[5, 5], 3).unwrap();
        assert_eq!(v, None);
        assert_eq!(probes, 3, "full scan of history for missing cells");
    }

    #[test]
    fn snapshot_matches_in_memory() {
        let mut a = updatable();
        let mut store = store_for(&a);
        a.commit_put(&[1, 1], record([Value::from(1.0)])).unwrap();
        let mut t = Transaction::new();
        t.put(&[1, 1], record([Value::from(5.0)]));
        t.put(&[4, 4], record([Value::from(6.0)]));
        a.commit(t).unwrap();
        store.sync_from(&a).unwrap();

        let snap = store.snapshot_at(2).unwrap();
        let mem = a.snapshot_at(2).unwrap();
        assert!(snap.same_cells(&mem));
        let snap1 = store.snapshot_at(1).unwrap();
        assert_eq!(snap1.cell_count(), 1);
        assert_eq!(snap1.get_f64(0, &[1, 1]), Some(1.0));
    }

    #[test]
    fn a_persisted_delete_reads_back_absent() {
        let mut a = updatable();
        let mut store = store_for(&a);
        a.commit_put(&[1, 1], record([Value::from(1.0)])).unwrap();
        let mut t = Transaction::new();
        t.delete(&[1, 1]);
        a.commit(t).unwrap();
        store.sync_from(&a).unwrap();
        let mem = a.snapshot_at(2).unwrap();
        assert_eq!(mem.cell_count(), 0);
        assert_eq!(store.snapshot_at(2).unwrap(), mem);
        assert_eq!(store.read_cell_at(&[1, 1], 2).unwrap(), (None, 1));
        assert_eq!(
            store.read_cell_at(&[1, 1], 1).unwrap().0,
            Some(vec![Value::from(1.0)])
        );
        assert_eq!(store.snapshot_at(1).unwrap(), a.snapshot_at(1).unwrap());
    }

    #[test]
    fn probe_cost_grows_with_depth() {
        let mut a = updatable();
        let mut store = store_for(&a);
        a.commit_put(&[1, 1], record([Value::from(0.0)])).unwrap();
        for i in 0..16 {
            a.commit_put(&[2, 2], record([Value::from(i as f64)]))
                .unwrap();
        }
        store.sync_from(&a).unwrap();
        // Cell [1,1] was written only at h=1: reading it at h=17 probes all
        // 17 layers.
        let (_, probes) = store.read_cell_at(&[1, 1], 17).unwrap();
        assert_eq!(probes, 17);
        // Cell [2,2] was written at h=17: one probe.
        let (_, probes) = store.read_cell_at(&[2, 2], 17).unwrap();
        assert_eq!(probes, 1);
    }
}
