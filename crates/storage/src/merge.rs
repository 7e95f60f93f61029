//! Background bucket merging (§2.8).
//!
//! "In a style similar to that employed by Vertica, a background thread can
//! combine buckets into larger ones as an optimization." Merging reduces
//! bucket count and read amplification for slab queries (experiment E3).
//!
//! The policy is super-tile based: buckets are grouped by the super-tile
//! (`factor ×` the schema's chunk stride) containing their origin; each
//! group with more than one bucket is rewritten as a single bucket covering
//! the union rectangle. [`BackgroundMerger`] runs passes on a worker thread
//! over a shared manager, communicating over a bounded `std` channel.

use crate::manager::StorageManager;
use scidb_core::chunk::Chunk;
use scidb_core::error::Result;
use scidb_core::geometry::chunk_origin;
use scidb_obs::sync::OrderedMutex;
use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Outcome of one merge pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Bucket groups rewritten.
    pub groups: usize,
    /// Buckets consumed.
    pub buckets_in: usize,
    /// Buckets produced.
    pub buckets_out: usize,
    /// Compressed bytes read during the pass.
    pub bytes_read: u64,
    /// Compressed bytes written during the pass.
    pub bytes_written: u64,
}

/// Runs one synchronous merge pass: groups buckets by super-tiles of
/// `factor ×` the schema chunk stride and rewrites multi-bucket groups.
pub fn merge_pass(mgr: &mut StorageManager, factor: i64) -> Result<MergeStats> {
    assert!(factor >= 2, "merge factor must be >= 2");
    let strides: Vec<i64> = mgr
        .schema()
        .dims()
        .iter()
        .map(|d| d.chunk_len * factor)
        .collect();
    let io_before = mgr.io_stats();

    // Group bucket keys by super-tile origin.
    let mut groups: HashMap<Vec<i64>, Vec<u64>> = HashMap::new();
    for meta in mgr.bucket_metas() {
        let origin: Vec<i64> = meta
            .rect
            .low
            .iter()
            .zip(&strides)
            .map(|(&c, &s)| chunk_origin(c, s))
            .collect();
        groups.entry(origin).or_default().push(meta.key);
    }

    // Deterministic pass order: WAL replay re-runs merges and verifies the
    // resulting bucket writes byte-for-byte, so the super-tile groups (and
    // the buckets within each) must be visited in a stable order.
    let mut groups: Vec<(Vec<i64>, Vec<u64>)> = groups.into_iter().collect();
    groups.sort();

    let mut stats = MergeStats::default();
    for (_, mut keys) in groups {
        if keys.len() < 2 {
            continue;
        }
        keys.sort_unstable();
        // Read all member chunks, union their rectangles, rebuild.
        let mut chunks = Vec::with_capacity(keys.len());
        for &k in &keys {
            chunks.push(mgr.read_bucket(k)?);
        }
        let rect = chunks
            .iter()
            .skip(1)
            .fold(chunks[0].rect().clone(), |acc, c| acc.union(c.rect()));
        // Every member cell in the merged rectangle's row-major order, so
        // each write appends a lane. The sort is stable: on a cell two
        // members share, the later member is written last and wins.
        let mut cells = Vec::new();
        for chunk in &chunks {
            for (coords, lane) in chunk.iter_present() {
                cells.push((rect.linearize(&coords), chunk, lane));
            }
        }
        cells.sort_by_key(|&(offset, _, _)| offset);
        let mut merged = Chunk::new(rect.clone(), chunks[0].attr_types());
        for (offset, chunk, lane) in cells {
            merged.set_record(&rect.delinearize(offset), &chunk.record_at(lane))?;
        }
        mgr.write_chunk(&merged)?;
        for &k in &keys {
            mgr.delete_bucket(k)?;
        }
        stats.groups += 1;
        stats.buckets_in += keys.len();
        stats.buckets_out += 1;
    }
    let io_after = mgr.io_stats();
    stats.bytes_read = io_after.bytes_read - io_before.bytes_read;
    stats.bytes_written = io_after.bytes_written - io_before.bytes_written;
    Ok(stats)
}

enum Command {
    Pass(i64),
    Stop,
}

/// A background merge thread over a shared storage manager.
pub struct BackgroundMerger {
    tx: SyncSender<Command>,
    handle: Option<JoinHandle<Vec<MergeStats>>>,
}

impl BackgroundMerger {
    /// Spawns the merger thread over a shared manager. Construct the lock
    /// at [`scidb_obs::sync::ranks::MERGE`]: the pass acquires the
    /// manager and then the disk's `STORAGE`-ranked stats locks under it.
    pub fn spawn(mgr: Arc<OrderedMutex<StorageManager>>) -> Self {
        let (tx, rx) = sync_channel::<Command>(16);
        // analyze: allow(R3, dedicated background merge worker joined on Drop)
        let handle = std::thread::spawn(move || {
            let mut results = Vec::new();
            while let Ok(cmd) = rx.recv() {
                match cmd {
                    Command::Pass(factor) => {
                        let mut guard = mgr.lock();
                        if let Ok(stats) = merge_pass(&mut guard, factor) {
                            results.push(stats);
                        }
                    }
                    Command::Stop => break,
                }
            }
            results
        });
        BackgroundMerger {
            tx,
            handle: Some(handle),
        }
    }

    /// Requests an asynchronous merge pass.
    pub fn request_pass(&self, factor: i64) {
        let _ = self.tx.send(Command::Pass(factor));
    }

    /// Stops the thread and returns per-pass statistics.
    pub fn stop(mut self) -> Vec<MergeStats> {
        let _ = self.tx.send(Command::Stop);
        self.handle
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

impl Drop for BackgroundMerger {
    fn drop(&mut self) {
        let _ = self.tx.send(Command::Stop);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::CodecPolicy;
    use crate::disk::MemDisk;
    use crate::manager::ReadOptions;
    use scidb_core::array::Array;
    use scidb_core::geometry::HyperRect;
    use scidb_core::schema::{ArraySchema, SchemaBuilder};
    use scidb_core::value::{record, ScalarType, Value};

    fn schema() -> Arc<ArraySchema> {
        Arc::new(
            SchemaBuilder::new("A")
                .attr("v", ScalarType::Float64)
                .dim_chunked("I", 64, 8)
                .dim_chunked("J", 64, 8)
                .build()
                .unwrap(),
        )
    }

    fn loaded_manager() -> StorageManager {
        let s = schema();
        let mut mgr = StorageManager::new(
            Arc::new(MemDisk::new()),
            Arc::clone(&s),
            CodecPolicy::default_policy(),
        );
        let mut a = Array::from_arc(s);
        a.fill_with(|c| record([Value::from((c[0] * 100 + c[1]) as f64)]))
            .unwrap();
        mgr.store_array(&a).unwrap();
        mgr
    }

    #[test]
    fn merge_reduces_bucket_count_preserving_data() {
        let mut mgr = loaded_manager();
        assert_eq!(mgr.bucket_count(), 64);
        let full = HyperRect::new(vec![1, 1], vec![64, 64]).unwrap();
        let (before, _) = mgr.read_region(&full, ReadOptions::default()).unwrap();

        let stats = merge_pass(&mut mgr, 2).unwrap();
        assert_eq!(stats.groups, 16); // 8x8 grid of 2x2 super-tiles
        assert_eq!(stats.buckets_in, 64);
        assert_eq!(stats.buckets_out, 16);
        assert_eq!(mgr.bucket_count(), 16);

        let (after, _) = mgr.read_region(&full, ReadOptions::default()).unwrap();
        assert!(before.same_cells(&after));
    }

    #[test]
    fn merge_reduces_read_amplification_for_slabs() {
        let mut mgr = loaded_manager();
        let slab = HyperRect::new(vec![1, 1], vec![16, 16]).unwrap();
        let (_, before) = mgr.read_region(&slab, ReadOptions::default()).unwrap();
        merge_pass(&mut mgr, 2).unwrap();
        let (_, after) = mgr.read_region(&slab, ReadOptions::default()).unwrap();
        assert!(
            after.buckets < before.buckets,
            "slab read touches fewer buckets after merge ({} -> {})",
            before.buckets,
            after.buckets
        );
        assert_eq!(before.cells_returned, after.cells_returned);
    }

    #[test]
    fn repeated_merges_converge() {
        let mut mgr = loaded_manager();
        merge_pass(&mut mgr, 2).unwrap();
        merge_pass(&mut mgr, 4).unwrap();
        let stats = merge_pass(&mut mgr, 4).unwrap();
        assert_eq!(stats.groups, 0, "already fully merged at this factor");
    }

    #[test]
    fn merge_noop_on_single_bucket_groups() {
        let s = schema();
        let mut mgr = StorageManager::new(
            Arc::new(MemDisk::new()),
            Arc::clone(&s),
            CodecPolicy::default_policy(),
        );
        let mut a = Array::from_arc(s);
        a.set_cell(&[1, 1], record([Value::from(1.0)])).unwrap();
        mgr.store_array(&a).unwrap();
        let stats = merge_pass(&mut mgr, 2).unwrap();
        assert_eq!(stats.groups, 0);
        assert_eq!(mgr.bucket_count(), 1);
    }

    #[test]
    fn background_merger_runs_passes() {
        let mgr = Arc::new(OrderedMutex::new(
            scidb_obs::sync::ranks::MERGE,
            loaded_manager(),
        ));
        let merger = BackgroundMerger::spawn(Arc::clone(&mgr));
        merger.request_pass(2);
        merger.request_pass(4);
        let results = merger.stop();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].buckets_in, 64);
        assert_eq!(mgr.lock().bucket_count(), 4);
        // Data intact after concurrent merging.
        let full = HyperRect::new(vec![1, 1], vec![64, 64]).unwrap();
        let (out, _) = mgr
            .lock()
            .read_region(&full, ReadOptions::default())
            .unwrap();
        assert_eq!(out.cell_count(), 64 * 64);
    }
}
