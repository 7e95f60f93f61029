//! The node-local storage manager (§2.8).
//!
//! "Within a node, the storage manager must decompose a partition into disk
//! blocks. … within a node an array partition is divided into variable size
//! rectangular buckets. An R-tree keeps track of the size of the various
//! buckets." Buckets are immutable compressed blocks (no-overwrite, §2.5);
//! the background merge (see [`crate::merge`]) combines small buckets into
//! larger ones "in a style similar to that employed by Vertica".

use crate::bucket::{deserialize_chunk, deserialize_layer, serialize_layer, CodecPolicy};
use crate::disk::{BlockId, Disk, IoStats};
use crate::rtree::RTree;
use scidb_core::array::{cut, Array};
use scidb_core::bitvec::BitVec;
use scidb_core::chunk::{Chunk, Layer};
use scidb_core::error::{Error, Result};
use scidb_core::exec::par_map_threads;
use scidb_core::geometry::HyperRect;
use scidb_core::schema::ArraySchema;
use scidb_obs::{Span, Stopwatch};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Catalog entry for one bucket.
#[derive(Debug, Clone)]
pub struct BucketMeta {
    /// Bucket key in the manager's catalog.
    pub key: u64,
    /// Disk block holding the payload.
    pub block: BlockId,
    /// Covering rectangle.
    pub rect: HyperRect,
    /// Present cells.
    pub cells: usize,
    /// Compressed payload bytes.
    pub bytes: usize,
}

/// Options controlling a region read.
#[derive(Debug, Clone, Copy)]
pub struct ReadOptions {
    /// Decode intersecting buckets concurrently (assembly stays serial and
    /// deterministic). Defaults to `true`.
    pub parallel: bool,
    /// Thread budget for parallel decode; `0` auto-sizes to the machine.
    pub threads: usize,
}

impl Default for ReadOptions {
    fn default() -> Self {
        ReadOptions {
            parallel: true,
            threads: 0,
        }
    }
}

impl ReadOptions {
    /// Single-threaded decode — the escape hatch.
    pub fn serial() -> Self {
        ReadOptions {
            parallel: false,
            threads: 1,
        }
    }

    /// Parallel decode with an explicit thread budget (`0` = auto).
    pub fn parallel_with(threads: usize) -> Self {
        ReadOptions {
            parallel: true,
            threads,
        }
    }

    /// The decode thread budget for `buckets` buckets. One bucket, or
    /// none, decodes inline without asking the machine for its
    /// parallelism.
    fn decode_threads(&self, buckets: usize) -> usize {
        if !self.parallel || buckets < 2 {
            return 1;
        }
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// Statistics from a region read, for the E3/E4 experiments. Each read
/// returns its own self-contained stats — including per-bucket decode
/// timing — so callers no longer need to poll
/// [`io_stats`](StorageManager::io_stats) around a read.
#[derive(Debug, Clone, Default)]
pub struct ReadStats {
    /// Buckets touched.
    pub buckets: usize,
    /// Compressed bytes read from disk.
    pub bytes_read: u64,
    /// Cells returned to the caller.
    pub cells_returned: usize,
    /// Cells decoded (including those clipped away) — `decoded /
    /// returned` is the read amplification the background merge reduces.
    pub cells_decoded: usize,
    /// Per-bucket read+decode wall time, in bucket-key order.
    pub chunk_times: Vec<Duration>,
    /// Total wall time of the read (decode + assembly).
    pub elapsed: Duration,
}

impl ReadStats {
    /// The slowest single bucket decode. Always `<= elapsed`: every bucket
    /// decode happens inside the read window regardless of parallelism.
    pub fn max_chunk_time(&self) -> Duration {
        self.chunk_times.iter().copied().max().unwrap_or_default()
    }

    /// Summed per-bucket decode time. Under serial decode the buckets are
    /// decoded back-to-back inside the read window, so the sum is `<=
    /// elapsed`; only under parallel decode may it exceed `elapsed`, and
    /// that surplus is the parallel speedup. Tested as an invariant by
    /// `decode_time_invariants` below.
    pub fn total_chunk_time(&self) -> Duration {
        self.chunk_times.iter().sum()
    }
}

/// The per-node storage manager: an R-tree-indexed collection of immutable
/// compressed buckets on one disk.
pub struct StorageManager {
    disk: Arc<dyn Disk>,
    schema: Arc<ArraySchema>,
    policy: CodecPolicy,
    index: RTree<u64>,
    buckets: HashMap<u64, BucketMeta>,
    next_key: u64,
}

impl std::fmt::Debug for StorageManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageManager")
            .field("schema", &self.schema.name())
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

impl StorageManager {
    /// Creates a manager for arrays of `schema` on `disk`.
    pub fn new(disk: Arc<dyn Disk>, schema: Arc<ArraySchema>, policy: CodecPolicy) -> Self {
        StorageManager {
            disk,
            schema,
            policy,
            index: RTree::new(),
            buckets: HashMap::new(),
            next_key: 0,
        }
    }

    /// The managed schema.
    pub fn schema(&self) -> &ArraySchema {
        &self.schema
    }

    /// The codec policy.
    pub fn policy(&self) -> CodecPolicy {
        self.policy
    }

    /// The disk (shared with experiments for I/O accounting).
    pub fn disk(&self) -> &Arc<dyn Disk> {
        &self.disk
    }

    /// Writes one chunk as a new immutable bucket; returns its key.
    pub fn write_chunk(&mut self, chunk: &Chunk) -> Result<u64> {
        self.write_layer(chunk, None)
    }

    /// Writes one history layer — a chunk and its deletion lanes — as a new
    /// immutable bucket ([`serialize_layer`]); returns its key.
    pub fn write_layer(&mut self, chunk: &Chunk, deleted: Option<&BitVec>) -> Result<u64> {
        let payload = serialize_layer(chunk, deleted, self.policy)?;
        let block = self.disk.write(&payload)?;
        let key = self.next_key;
        self.next_key += 1;
        let meta = BucketMeta {
            key,
            block,
            rect: chunk.rect().clone(),
            cells: chunk.present_count(),
            bytes: payload.len(),
        };
        self.index.insert(meta.rect.clone(), key);
        self.buckets.insert(key, meta);
        Ok(key)
    }

    /// Writes every chunk of an array (bulk store).
    pub fn store_array(&mut self, array: &Array) -> Result<usize> {
        let mut n = 0;
        for chunk in array.chunks().values() {
            if chunk.is_empty() {
                continue;
            }
            self.write_chunk(chunk)?;
            n += 1;
        }
        Ok(n)
    }

    /// Reads one bucket's chunk.
    pub fn read_bucket(&self, key: u64) -> Result<Chunk> {
        deserialize_chunk(&self.read_payload(key)?)
    }

    /// Reads one bucket as a history layer: its chunk and deletion lanes.
    pub fn read_layer(&self, key: u64) -> Result<Layer> {
        deserialize_layer(&self.read_payload(key)?)
    }

    fn read_payload(&self, key: u64) -> Result<Vec<u8>> {
        let meta = self
            .buckets
            .get(&key)
            .ok_or_else(|| Error::storage(format!("bucket {key} not found")))?;
        self.disk.read(meta.block)
    }

    /// Deletes a bucket (background merge only — user data is never
    /// removed outside a merge rewrite).
    pub fn delete_bucket(&mut self, key: u64) -> Result<()> {
        let meta = self
            .buckets
            .remove(&key)
            .ok_or_else(|| Error::storage(format!("bucket {key} not found")))?;
        self.index.remove_where(&meta.rect, |&k| k == key);
        self.disk.delete(meta.block)
    }

    /// Keys of buckets intersecting `region`.
    pub fn buckets_in(&self, region: &HyperRect) -> Vec<u64> {
        let mut keys: Vec<u64> = self.index.search(region).into_iter().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Reads all cells in `region` into an in-memory array, with stats.
    ///
    /// Intersecting buckets are read, decoded and cut onto the schema's
    /// chunk grid ([`cut`]) concurrently when `opts.parallel` (the disk and
    /// catalog are only read through `&self`), so a merged super-tile
    /// bucket becomes schema chunks again. Assembly ([`Array::assemble`])
    /// is serial, in bucket-key order: a later bucket wins a cell that an
    /// earlier one also holds, so the result is identical at every thread
    /// count.
    pub fn read_region(&self, region: &HyperRect, opts: ReadOptions) -> Result<(Array, ReadStats)> {
        let start = Stopwatch::start();
        self.check_region(region)?;
        let keys = self.buckets_in(region);
        let types: Vec<_> = self.schema.attrs().iter().map(|a| a.ty.clone()).collect();
        // analyze: allow(R2, bucket I/O fan-out, not an operator kernel; merged serially in bucket-key order below)
        let decoded = par_map_threads(opts.decode_threads(keys.len()), &keys, |&key| {
            let t = Stopwatch::start();
            let chunk = self.read_bucket(key)?;
            let took = t.elapsed();
            if chunk.attr_types() != types.as_slice() {
                return Err(Error::storage(
                    "bucket attribute types do not match the schema",
                ));
            }
            let cells = chunk.present_count();
            Ok((cut(chunk, region, &self.schema), cells, took))
        });
        let mut stats = ReadStats::default();
        let mut pieces = Vec::new();
        for (key, res) in keys.iter().zip(decoded) {
            let (cut, cells, took) = res?;
            stats.buckets += 1;
            stats.bytes_read += self.buckets[key].bytes as u64;
            stats.cells_decoded += cells;
            stats.chunk_times.push(took);
            pieces.extend(cut.into_iter().map(Layer::from));
        }
        let out = Array::assemble(Arc::clone(&self.schema), pieces)?;
        stats.cells_returned = out.cell_count();
        stats.elapsed = start.elapsed();
        let reg = scidb_obs::global();
        reg.counter("scidb.storage.reads").inc(1);
        reg.counter("scidb.storage.buckets_read")
            .inc(stats.buckets as u64);
        reg.counter("scidb.storage.bytes_read")
            .inc(stats.bytes_read);
        reg.histogram("scidb.storage.read_wall_us")
            .record(stats.elapsed.as_micros() as u64);
        Ok((out, stats))
    }

    /// [`read_region`](Self::read_region) with the read recorded as a
    /// `read_region` child span of `parent` — this is how a statement trace
    /// gains its storage level. The span carries the [`ReadStats`] as typed
    /// attributes (the stats stay the single timing source; the span is a
    /// view of them) and its wall time is the stats' `elapsed`.
    pub fn read_region_traced(
        &self,
        region: &HyperRect,
        opts: ReadOptions,
        parent: &Span,
    ) -> Result<(Array, ReadStats)> {
        let span = parent.child("read_region", scidb_obs::LAYER_STORAGE);
        let res = self.read_region(region, opts);
        match &res {
            Ok((_, stats)) => {
                span.set_attr("buckets", stats.buckets);
                span.set_attr("bytes_read", stats.bytes_read);
                span.set_attr("cells_decoded", stats.cells_decoded);
                span.set_attr("cells_returned", stats.cells_returned);
                span.set_attr("decode_total", stats.total_chunk_time());
                span.set_attr("parallel", opts.parallel);
            }
            Err(e) => {
                span.set_attr("error", e.to_string());
            }
        }
        span.finish();
        res
    }

    /// Validates a read region against the schema: matching rank, 1-based
    /// lower bounds, and within the declared extent on bounded dimensions.
    pub(crate) fn check_region(&self, region: &HyperRect) -> Result<()> {
        let rank = self.schema.rank();
        if region.low.len() != rank {
            return Err(Error::dimension(format!(
                "read_region rank {} does not match schema rank {rank}",
                region.low.len()
            )));
        }
        for (d, dim) in self.schema.dims().iter().enumerate() {
            if region.low[d] < 1 || dim.upper.is_some_and(|u| region.high[d] > u) {
                let upper = dim.upper.map_or("*".to_string(), |u| u.to_string());
                return Err(Error::dimension(format!(
                    "read_region [{}..{}] out of bounds for dimension '{}' (1..{upper})",
                    region.low[d], region.high[d], dim.name
                )));
            }
        }
        Ok(())
    }

    /// All bucket metadata (sorted by key; for experiments and merge).
    pub fn bucket_metas(&self) -> Vec<BucketMeta> {
        let mut v: Vec<BucketMeta> = self.buckets.values().cloned().collect();
        v.sort_by_key(|m| m.key);
        v
    }

    /// Number of live buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Total compressed bytes across buckets.
    pub fn total_bytes(&self) -> usize {
        self.buckets.values().map(|m| m.bytes).sum()
    }

    /// Total present cells across buckets.
    pub fn total_cells(&self) -> usize {
        self.buckets.values().map(|m| m.cells).sum()
    }

    /// Disk I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.disk.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use scidb_core::schema::SchemaBuilder;
    use scidb_core::value::{record, ScalarType, Value};

    fn schema(n: i64, chunk: i64) -> Arc<ArraySchema> {
        Arc::new(
            SchemaBuilder::new("A")
                .attr("v", ScalarType::Float64)
                .dim_chunked("I", n, chunk)
                .dim_chunked("J", n, chunk)
                .build()
                .unwrap(),
        )
    }

    fn filled_array(schema: &Arc<ArraySchema>) -> Array {
        let mut a = Array::from_arc(Arc::clone(schema));
        a.fill_with(|c| record([Value::from((c[0] * 1000 + c[1]) as f64)]))
            .unwrap();
        a
    }

    fn manager(n: i64, chunk: i64) -> (StorageManager, Arc<ArraySchema>) {
        let s = schema(n, chunk);
        (
            StorageManager::new(
                Arc::new(MemDisk::new()),
                Arc::clone(&s),
                CodecPolicy::default_policy(),
            ),
            s,
        )
    }

    #[test]
    fn store_and_read_back_full_array() {
        let (mut mgr, s) = manager(32, 8);
        let a = filled_array(&s);
        let n = mgr.store_array(&a).unwrap();
        assert_eq!(n, 16); // (32/8)^2 chunks
        assert_eq!(mgr.bucket_count(), 16);
        assert_eq!(mgr.total_cells(), 1024);
        let (back, stats) = mgr
            .read_region(
                &HyperRect::new(vec![1, 1], vec![32, 32]).unwrap(),
                ReadOptions::default(),
            )
            .unwrap();
        assert!(back.same_cells(&a));
        assert_eq!(stats.buckets, 16);
        assert_eq!(stats.cells_returned, 1024);
    }

    #[test]
    fn region_read_touches_only_intersecting_buckets() {
        let (mut mgr, s) = manager(32, 8);
        mgr.store_array(&filled_array(&s)).unwrap();
        mgr.disk().reset_stats();
        let region = HyperRect::new(vec![1, 1], vec![8, 8]).unwrap();
        let (out, stats) = mgr.read_region(&region, ReadOptions::default()).unwrap();
        assert_eq!(stats.buckets, 1, "aligned slab reads one bucket");
        assert_eq!(out.cell_count(), 64);
        assert_eq!(mgr.io_stats().reads, 1);
    }

    #[test]
    fn unaligned_read_shows_amplification() {
        let (mut mgr, s) = manager(32, 8);
        mgr.store_array(&filled_array(&s)).unwrap();
        // A 2x2 region straddling four chunk corners.
        let region = HyperRect::new(vec![8, 8], vec![9, 9]).unwrap();
        let (out, stats) = mgr.read_region(&region, ReadOptions::default()).unwrap();
        assert_eq!(out.cell_count(), 4);
        assert_eq!(stats.buckets, 4);
        assert_eq!(stats.cells_decoded, 4 * 64);
        assert_eq!(stats.cells_returned, 4);
    }

    #[test]
    fn read_value_correctness() {
        let (mut mgr, s) = manager(16, 4);
        mgr.store_array(&filled_array(&s)).unwrap();
        let region = HyperRect::new(vec![5, 9], vec![5, 9]).unwrap();
        let (out, _) = mgr.read_region(&region, ReadOptions::serial()).unwrap();
        assert_eq!(out.get_f64(0, &[5, 9]), Some(5009.0));
    }

    #[test]
    fn delete_bucket_removes_from_index_and_disk() {
        let (mut mgr, s) = manager(8, 8);
        mgr.store_array(&filled_array(&s)).unwrap();
        let keys = mgr.buckets_in(&HyperRect::new(vec![1, 1], vec![8, 8]).unwrap());
        assert_eq!(keys.len(), 1);
        mgr.delete_bucket(keys[0]).unwrap();
        assert_eq!(mgr.bucket_count(), 0);
        let (out, stats) = mgr
            .read_region(
                &HyperRect::new(vec![1, 1], vec![8, 8]).unwrap(),
                ReadOptions::default(),
            )
            .unwrap();
        assert_eq!(out.cell_count(), 0);
        assert_eq!(stats.buckets, 0);
        assert!(mgr.read_bucket(keys[0]).is_err());
        assert!(mgr.delete_bucket(keys[0]).is_err());
    }

    #[test]
    fn decode_time_invariants() {
        // Regression for the doc/behavior mismatch on total_chunk_time():
        // per-bucket decode happens inside the read window, so under serial
        // decode the *sum* is bounded by elapsed, and at any thread count
        // the *max* is bounded by elapsed. Only a parallel decode may push
        // the sum past elapsed (that surplus is the speedup).
        let (mut mgr, s) = manager(32, 4); // 64 buckets
        mgr.store_array(&filled_array(&s)).unwrap();
        let region = HyperRect::new(vec![1, 1], vec![32, 32]).unwrap();
        let (_, serial) = mgr.read_region(&region, ReadOptions::serial()).unwrap();
        assert_eq!(serial.chunk_times.len(), 64);
        assert!(
            serial.total_chunk_time() <= serial.elapsed,
            "serial decode: sum {:?} must not exceed elapsed {:?}",
            serial.total_chunk_time(),
            serial.elapsed
        );
        for opts in [ReadOptions::serial(), ReadOptions::parallel_with(4)] {
            let (_, stats) = mgr.read_region(&region, opts).unwrap();
            assert!(
                stats.max_chunk_time() <= stats.elapsed,
                "max {:?} must not exceed elapsed {:?} (parallel={})",
                stats.max_chunk_time(),
                stats.elapsed,
                opts.parallel
            );
        }
    }

    #[test]
    fn traced_read_attaches_stats_to_span() {
        let (mut mgr, s) = manager(16, 4);
        mgr.store_array(&filled_array(&s)).unwrap();
        let trace = scidb_obs::Trace::new();
        let root = trace.root("statement", scidb_obs::LAYER_QUERY);
        let region = HyperRect::new(vec![1, 1], vec![16, 16]).unwrap();
        let (out, stats) = mgr
            .read_region_traced(&region, ReadOptions::serial(), &root)
            .unwrap();
        assert_eq!(out.cell_count(), 256);
        root.finish();
        let td = trace.finish();
        assert_eq!(td.spans.len(), 2);
        let read = &td.spans[1];
        assert_eq!(read.name, "read_region");
        assert_eq!(read.layer, scidb_obs::LAYER_STORAGE);
        assert_eq!(read.parent, Some(td.spans[0].id));
        let get = |k: &str| read.attr(k).and_then(scidb_obs::AttrValue::as_u64);
        assert_eq!(get("buckets"), Some(stats.buckets as u64));
        assert_eq!(get("bytes_read"), Some(stats.bytes_read));
        assert_eq!(get("cells_returned"), Some(stats.cells_returned as u64));
        assert!(get("bytes_read").unwrap() > 0);

        // Error reads still finish the span, with an error attribute.
        let trace = scidb_obs::Trace::new();
        let root = trace.root("statement", scidb_obs::LAYER_QUERY);
        let bad = HyperRect::new(vec![1, 1], vec![99, 99]).unwrap();
        assert!(mgr
            .read_region_traced(&bad, ReadOptions::serial(), &root)
            .is_err());
        root.finish();
        let td = trace.finish();
        assert!(td.spans[1].attr("error").is_some());
    }

    #[test]
    fn a_later_bucket_wins_a_cell_an_earlier_one_holds() {
        let (mut mgr, s) = manager(8, 4);
        let rect = HyperRect::new(vec![1, 1], vec![4, 4]).unwrap();
        let types: Vec<_> = s.attrs().iter().map(|a| a.ty.clone()).collect();
        let mut first = Chunk::new(rect.clone(), &types);
        let mut second = Chunk::new(rect, &types);
        for (coords, v) in [([1, 1], 1.0), ([2, 2], 2.0), ([4, 4], 4.0)] {
            first
                .set_record(&coords, &record([Value::from(v)]))
                .unwrap();
        }
        for (coords, v) in [([2, 2], 20.0), ([3, 1], 30.0)] {
            second
                .set_record(&coords, &record([Value::from(v)]))
                .unwrap();
        }
        mgr.write_chunk(&first).unwrap();
        mgr.write_chunk(&second).unwrap();
        let (out, stats) = mgr
            .read_region(
                &HyperRect::new(vec![1, 1], vec![8, 8]).unwrap(),
                ReadOptions::default(),
            )
            .unwrap();
        assert_eq!(stats.buckets, 2);
        assert_eq!(out.chunks().len(), 1, "both buckets land in one chunk");
        assert_eq!(out.cell_count(), 4);
        assert_eq!(stats.cells_returned, 4, "a shared cell is returned once");
        assert_eq!(stats.cells_decoded, 5);
        for (coords, v) in [([1, 1], 1.0), ([2, 2], 20.0), ([3, 1], 30.0), ([4, 4], 4.0)] {
            assert_eq!(out.get_f64(0, &coords), Some(v), "{coords:?}");
        }
    }

    #[test]
    fn a_merged_bucket_reads_back_as_schema_chunks() {
        let (mut mgr, s) = manager(16, 4);
        let a = filled_array(&s);
        mgr.store_array(&a).unwrap();
        crate::merge::merge_pass(&mut mgr, 2).unwrap();
        assert_eq!(mgr.bucket_count(), 4, "2x2 super-tiles of 8x8 cells");
        let region = HyperRect::new(vec![3, 3], vec![10, 12]).unwrap();
        let (out, stats) = mgr.read_region(&region, ReadOptions::serial()).unwrap();
        assert_eq!(stats.buckets, 4);
        assert_eq!(stats.cells_decoded, 256);
        assert_eq!(stats.cells_returned, 8 * 10);
        let fresh = {
            let mut b = Array::from_arc(Arc::clone(&s));
            for (coords, rec) in a.cells_in(&region) {
                b.set_cell(&coords, rec).unwrap();
            }
            b
        };
        let rects = |x: &Array| {
            x.chunks()
                .values()
                .map(|c| c.rect().clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            rects(&out),
            rects(&fresh),
            "the rectangles ensure_chunk builds"
        );
        assert!(out.same_cells(&fresh));
    }

    #[test]
    fn one_bucket_decodes_inline() {
        for opts in [ReadOptions::default(), ReadOptions::parallel_with(4)] {
            assert_eq!(opts.decode_threads(0), 1);
            assert_eq!(opts.decode_threads(1), 1);
        }
        assert_eq!(ReadOptions::parallel_with(4).decode_threads(8), 4);
        assert_eq!(ReadOptions::serial().decode_threads(8), 1);
    }

    #[test]
    fn empty_chunks_are_skipped_on_store() {
        let (mut mgr, s) = manager(8, 4);
        let mut a = Array::from_arc(Arc::clone(&s));
        a.set_cell(&[1, 1], record([Value::from(1.0)])).unwrap();
        let n = mgr.store_array(&a).unwrap();
        assert_eq!(n, 1, "only the non-empty chunk is stored");
    }
}
