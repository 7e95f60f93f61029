//! Pinned buffer pool over the page file, exposed as a [`Disk`].
//!
//! [`BufferPool`] caches a fixed number of page frames with clock (second
//! chance) eviction and write-back of dirty frames; hit/miss/eviction
//! counters are always on and mirrored to the global metrics registry
//! (`scidb.storage.pool.*`, surfaced by the `system.storage` virtual
//! array). [`PagedDisk`] maps variable-size chunk buckets onto extents of
//! contiguous pages and implements the [`Disk`] trait, so the existing
//! [`crate::manager::StorageManager`] / [`crate::delta::DeltaStore`] /
//! [`crate::merge`] stack runs over durable pages unchanged.
//!
//! Every write is journalled as a [`Record::BucketWrite`] full image (and
//! every delete as a [`Record::BucketFree`]) for the durability layer to
//! fold into its WAL group. During recovery the disk runs in *replay*
//! mode: expected physical records are queued, and each re-executed write
//! must match its queued image byte-for-byte (and lands at the recorded
//! block id), turning replay into a self-verifying redo pass.
//!
//! The single internal mutex holds rank `POOL` (46): above the catalog
//! and merge guards that reach bucket I/O, below the legacy `STORAGE`
//! stats locks.

use crate::disk::{BlockId, Disk, IoStats};
use crate::page::{PageFile, PAGE_CAPACITY};
use crate::wal::Record;
use scidb_core::error::{Error, Result};
use scidb_obs::sync::{ranks, OrderedMutex};
use scidb_obs::Counter;
use std::collections::{HashMap, VecDeque};
use std::path::Path;

/// Default number of resident page frames (256 KiB of cached pages).
pub const DEFAULT_POOL_FRAMES: usize = 64;

/// Snapshot of pool effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests served from a resident frame.
    pub hits: u64,
    /// Page requests that had to load from the page file.
    pub misses: u64,
    /// Frames displaced to make room (dirty ones written back).
    pub evictions: u64,
    /// Frames currently resident.
    pub frames: usize,
    /// Frame capacity.
    pub capacity: usize,
}

#[derive(Debug)]
struct Frame {
    page: u64,
    data: Vec<u8>,
    dirty: bool,
    referenced: bool,
}

/// A clock-eviction buffer pool of fixed-size page frames.
#[derive(Debug)]
pub struct BufferPool {
    frames: Vec<Frame>,
    table: HashMap<u64, usize>,
    hand: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    hits_metric: Counter,
    misses_metric: Counter,
    evictions_metric: Counter,
}

impl BufferPool {
    /// A pool of `capacity` frames (at least 1).
    pub fn new(capacity: usize) -> Self {
        let reg = scidb_obs::global();
        BufferPool {
            frames: Vec::new(),
            table: HashMap::new(),
            hand: 0,
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            evictions: 0,
            hits_metric: reg.counter("scidb.storage.pool.hits"),
            misses_metric: reg.counter("scidb.storage.pool.misses"),
            evictions_metric: reg.counter("scidb.storage.pool.evictions"),
        }
    }

    /// Effectiveness counters and occupancy.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            frames: self.frames.len(),
            capacity: self.capacity,
        }
    }

    /// Picks (possibly evicting into `file`) the frame slot for `page`.
    fn slot_for(&mut self, file: &mut PageFile, page: u64) -> Result<usize> {
        if self.frames.len() < self.capacity {
            let idx = self.frames.len();
            self.frames.push(Frame {
                page,
                data: Vec::new(),
                dirty: false,
                referenced: true,
            });
            self.table.insert(page, idx);
            return Ok(idx);
        }
        // Clock sweep: clear reference bits until an unreferenced victim
        // turns up (bounded: after one full lap every bit is clear).
        loop {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let frame = &mut self.frames[idx];
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            if frame.dirty {
                file.write_page(frame.page, &frame.data)?;
            }
            self.table.remove(&frame.page);
            self.evictions += 1;
            self.evictions_metric.inc(1);
            frame.page = page;
            frame.data.clear();
            frame.dirty = false;
            frame.referenced = true;
            self.table.insert(page, idx);
            return Ok(idx);
        }
    }

    /// Reads `page` through the pool.
    pub fn read_page(&mut self, file: &mut PageFile, page: u64) -> Result<Vec<u8>> {
        if let Some(&idx) = self.table.get(&page) {
            self.hits += 1;
            self.hits_metric.inc(1);
            self.frames[idx].referenced = true;
            return Ok(self.frames[idx].data.clone());
        }
        self.misses += 1;
        self.misses_metric.inc(1);
        let data = file.read_page(page)?;
        let idx = self.slot_for(file, page)?;
        self.frames[idx].data = data.clone();
        Ok(data)
    }

    /// Writes `page` through the pool (write-back: the file is updated on
    /// eviction or [`BufferPool::flush`]).
    pub fn write_page(&mut self, file: &mut PageFile, page: u64, payload: &[u8]) -> Result<()> {
        if payload.len() > PAGE_CAPACITY {
            return Err(Error::storage(format!(
                "page payload of {} bytes exceeds capacity {PAGE_CAPACITY}",
                payload.len()
            )));
        }
        let idx = match self.table.get(&page) {
            Some(&idx) => {
                self.hits += 1;
                self.hits_metric.inc(1);
                idx
            }
            None => {
                self.misses += 1;
                self.misses_metric.inc(1);
                self.slot_for(file, page)?
            }
        };
        let frame = &mut self.frames[idx];
        frame.data.clear();
        frame.data.extend_from_slice(payload);
        frame.dirty = true;
        frame.referenced = true;
        Ok(())
    }

    /// Writes every dirty frame back to the file.
    pub fn flush(&mut self, file: &mut PageFile) -> Result<()> {
        for frame in &mut self.frames {
            if frame.dirty {
                file.write_page(frame.page, &frame.data)?;
                frame.dirty = false;
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct Extent {
    first_page: u64,
    len: u64,
}

#[derive(Debug)]
struct Inner {
    file: PageFile,
    pool: BufferPool,
    extents: HashMap<u64, Extent>,
    next_block: u64,
    next_page: u64,
    journal: Vec<Record>,
    replay: Option<VecDeque<Record>>,
    io: IoStats,
}

/// A durable [`Disk`] of page extents behind a buffer pool, journalling
/// physical redo records for the WAL.
#[derive(Debug)]
pub struct PagedDisk {
    inner: OrderedMutex<Inner>,
}

impl PagedDisk {
    /// Creates a paged disk over a fresh (truncated) page file at `path`
    /// with the default pool size. The page file is derived state — the
    /// WAL replay repopulates it — so creation always starts empty.
    pub fn create(path: &Path) -> Result<Self> {
        PagedDisk::with_frames(path, DEFAULT_POOL_FRAMES)
    }

    /// [`PagedDisk::create`] with an explicit pool frame budget.
    pub fn with_frames(path: &Path, frames: usize) -> Result<Self> {
        Ok(PagedDisk {
            inner: OrderedMutex::new(
                ranks::POOL,
                Inner {
                    file: PageFile::create(path)?,
                    pool: BufferPool::new(frames),
                    extents: HashMap::new(),
                    next_block: 0,
                    next_page: 0,
                    journal: Vec::new(),
                    replay: None,
                    io: IoStats::default(),
                },
            ),
        })
    }

    /// Drains the physical redo records journalled since the last drain.
    pub fn take_journal(&self) -> Vec<Record> {
        std::mem::take(&mut self.inner.lock().journal)
    }

    /// Enters replay mode: writes and deletes stop journalling and instead
    /// verify against records queued via [`PagedDisk::queue_replay`].
    pub fn begin_replay(&self) {
        self.inner.lock().replay = Some(VecDeque::new());
    }

    /// Queues one expected physical record for replay verification.
    pub fn queue_replay(&self, rec: Record) {
        if let Some(q) = self.inner.lock().replay.as_mut() {
            q.push_back(rec);
        }
    }

    /// Fails if queued physical records were not consumed — a committed
    /// group whose logical re-execution produced different bucket traffic.
    pub fn assert_replay_drained(&self) -> Result<()> {
        match self.inner.lock().replay.as_ref() {
            Some(q) if !q.is_empty() => Err(Error::storage(format!(
                "wal replay: {} physical record(s) not consumed (next: {})",
                q.len(),
                q.front().map(Record::kind).unwrap_or("?"),
            ))),
            _ => Ok(()),
        }
    }

    /// Leaves replay mode, failing if queued records remain.
    pub fn end_replay(&self) -> Result<()> {
        self.assert_replay_drained()?;
        self.inner.lock().replay = None;
        Ok(())
    }

    /// Pool effectiveness counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.lock().pool.stats()
    }

    /// Writes every dirty pool frame back and syncs the page file.
    pub fn flush(&self) -> Result<()> {
        let mut g = self.inner.lock();
        let Inner { file, pool, .. } = &mut *g;
        pool.flush(file)?;
        file.sync()
    }
}

impl Disk for PagedDisk {
    fn write(&self, data: &[u8]) -> Result<BlockId> {
        let mut g = self.inner.lock();
        let block = match g.replay.as_mut() {
            Some(q) => match q.pop_front() {
                Some(Record::BucketWrite { block, bytes }) => {
                    if bytes != data {
                        return Err(Error::storage(format!(
                            "wal replay diverged: bucket write at block {block} produced \
                             {} bytes, log recorded {}",
                            data.len(),
                            bytes.len()
                        )));
                    }
                    block
                }
                Some(other) => {
                    return Err(Error::storage(format!(
                        "wal replay diverged: expected {}, re-execution wrote a bucket",
                        other.kind()
                    )))
                }
                None => {
                    return Err(Error::storage(
                        "wal replay diverged: unjournalled bucket write",
                    ))
                }
            },
            None => g.next_block,
        };
        let first_page = g.next_page;
        let n_pages = data.len().div_ceil(PAGE_CAPACITY).max(1) as u64;
        for i in 0..n_pages {
            let lo = (i as usize) * PAGE_CAPACITY;
            let hi = data.len().min(lo + PAGE_CAPACITY);
            let Inner { file, pool, .. } = &mut *g;
            pool.write_page(file, first_page + i, &data[lo..hi])?;
        }
        g.next_page += n_pages;
        g.extents.insert(
            block,
            Extent {
                first_page,
                len: data.len() as u64,
            },
        );
        g.next_block = g.next_block.max(block + 1);
        if g.replay.is_none() {
            g.journal.push(Record::BucketWrite {
                block,
                bytes: data.to_vec(),
            });
        }
        g.io.bytes_written += data.len() as u64;
        g.io.writes += 1;
        Ok(BlockId(block))
    }

    fn read(&self, id: BlockId) -> Result<Vec<u8>> {
        let mut g = self.inner.lock();
        let extent = *g
            .extents
            .get(&id.0)
            .ok_or_else(|| Error::storage(format!("block {id:?} not found")))?;
        let n_pages = (extent.len as usize).div_ceil(PAGE_CAPACITY).max(1) as u64;
        let mut out = Vec::with_capacity(extent.len as usize);
        for i in 0..n_pages {
            let Inner { file, pool, .. } = &mut *g;
            let page = pool.read_page(file, extent.first_page + i)?;
            out.extend_from_slice(&page);
        }
        if out.len() < extent.len as usize {
            return Err(Error::storage(format!(
                "block {id:?}: short extent ({} of {} bytes)",
                out.len(),
                extent.len
            )));
        }
        out.truncate(extent.len as usize);
        g.io.bytes_read += extent.len;
        g.io.reads += 1;
        Ok(out)
    }

    fn delete(&self, id: BlockId) -> Result<()> {
        let mut g = self.inner.lock();
        if g.extents.remove(&id.0).is_none() {
            return Err(Error::storage(format!("block {id:?} not found")));
        }
        match g.replay.as_mut() {
            Some(q) => match q.pop_front() {
                Some(Record::BucketFree { block }) if block == id.0 => {}
                Some(other) => {
                    return Err(Error::storage(format!(
                        "wal replay diverged: expected {}, re-execution freed block {}",
                        other.kind(),
                        id.0
                    )))
                }
                None => {
                    return Err(Error::storage(
                        "wal replay diverged: unjournalled bucket free",
                    ))
                }
            },
            None => g.journal.push(Record::BucketFree { block: id.0 }),
        }
        g.io.deletes += 1;
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.inner.lock().io
    }

    fn reset_stats(&self) {
        self.inner.lock().io = IoStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("scidb_pool_{}_{name}", std::process::id()))
    }

    fn cleanup(path: &std::path::Path) {
        let _ = std::fs::remove_file(path);
    }

    #[test]
    #[cfg_attr(miri, ignore = "positioned file I/O is exercised natively")]
    fn blocks_roundtrip_across_page_boundaries() {
        let path = tmp("roundtrip");
        let d = PagedDisk::create(&path).unwrap();
        let small = vec![1u8; 10];
        let big: Vec<u8> = (0..3 * PAGE_CAPACITY + 100)
            .map(|i| (i % 251) as u8)
            .collect();
        let a = d.write(&small).unwrap();
        let b = d.write(&big).unwrap();
        assert_eq!(d.read(a).unwrap(), small);
        assert_eq!(d.read(b).unwrap(), big);
        let s = d.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.bytes_written, (small.len() + big.len()) as u64);
        d.delete(a).unwrap();
        assert!(d.read(a).is_err());
        assert!(d.delete(a).is_err());
        cleanup(&path);
    }

    #[test]
    #[cfg_attr(miri, ignore = "positioned file I/O is exercised natively")]
    fn journal_captures_writes_and_frees() {
        let path = tmp("journal");
        let d = PagedDisk::create(&path).unwrap();
        let a = d.write(b"aaa").unwrap();
        d.write(b"bbbb").unwrap();
        d.delete(a).unwrap();
        let j = d.take_journal();
        assert_eq!(
            j,
            vec![
                Record::BucketWrite {
                    block: 0,
                    bytes: b"aaa".to_vec()
                },
                Record::BucketWrite {
                    block: 1,
                    bytes: b"bbbb".to_vec()
                },
                Record::BucketFree { block: 0 },
            ]
        );
        assert!(d.take_journal().is_empty(), "drain resets the journal");
        cleanup(&path);
    }

    #[test]
    #[cfg_attr(miri, ignore = "positioned file I/O is exercised natively")]
    fn replay_verifies_and_forces_block_ids() {
        let path = tmp("replay");
        let d = PagedDisk::create(&path).unwrap();
        d.begin_replay();
        d.queue_replay(Record::BucketWrite {
            block: 5,
            bytes: b"xyz".to_vec(),
        });
        d.queue_replay(Record::BucketFree { block: 5 });
        let id = d.write(b"xyz").unwrap();
        assert_eq!(id, BlockId(5), "replay forces the recorded block id");
        d.delete(id).unwrap();
        d.end_replay().unwrap();
        // Fresh allocations resume past the forced id.
        let next = d.write(b"after").unwrap();
        assert_eq!(next, BlockId(6));
        assert_eq!(
            d.take_journal(),
            vec![Record::BucketWrite {
                block: 6,
                bytes: b"after".to_vec()
            }],
            "replay-mode traffic is not re-journalled"
        );
        cleanup(&path);
    }

    #[test]
    #[cfg_attr(miri, ignore = "positioned file I/O is exercised natively")]
    fn replay_divergence_is_an_error() {
        let path = tmp("diverge");
        let d = PagedDisk::create(&path).unwrap();
        d.begin_replay();
        d.queue_replay(Record::BucketWrite {
            block: 0,
            bytes: b"expected".to_vec(),
        });
        let err = d.write(b"different").unwrap_err().to_string();
        assert!(err.contains("diverged"), "got: {err}");
        let path2 = tmp("diverge2");
        let d2 = PagedDisk::create(&path2).unwrap();
        d2.begin_replay();
        assert!(d2.write(b"anything").is_err(), "empty queue rejects writes");
        let path3 = tmp("diverge3");
        let d3 = PagedDisk::create(&path3).unwrap();
        d3.begin_replay();
        d3.queue_replay(Record::BucketWrite {
            block: 0,
            bytes: b"left over".to_vec(),
        });
        assert!(d3.assert_replay_drained().is_err());
        assert!(d3.end_replay().is_err());
        cleanup(&path);
        cleanup(&path2);
        cleanup(&path3);
    }

    #[test]
    #[cfg_attr(miri, ignore = "positioned file I/O is exercised natively")]
    fn pool_eviction_and_hit_accounting() {
        let path = tmp("evict");
        let d = PagedDisk::with_frames(&path, 2).unwrap();
        let a = d.write(b"block-a").unwrap();
        let b = d.write(b"block-b").unwrap();
        let c = d.write(b"block-c").unwrap(); // evicts one of a/b (dirty write-back)
        let s = d.pool_stats();
        assert_eq!(s.capacity, 2);
        assert_eq!(s.frames, 2);
        assert!(s.evictions >= 1, "third page must evict: {s:?}");
        // All three blocks still read correctly through reload.
        assert_eq!(d.read(a).unwrap(), b"block-a");
        assert_eq!(d.read(b).unwrap(), b"block-b");
        assert_eq!(d.read(c).unwrap(), b"block-c");
        let s = d.pool_stats();
        assert!(s.misses >= 1, "reloads count as misses: {s:?}");
        // Re-reading the most recent page is a hit.
        let hits_before = s.hits;
        assert_eq!(d.read(c).unwrap(), b"block-c");
        assert!(d.pool_stats().hits > hits_before);
        cleanup(&path);
    }

    #[test]
    #[cfg_attr(miri, ignore = "positioned file I/O is exercised natively")]
    fn storage_manager_runs_over_paged_disk() {
        use crate::bucket::CodecPolicy;
        use crate::manager::{ReadOptions, StorageManager};
        use scidb_core::array::Array;
        use scidb_core::geometry::HyperRect;
        use scidb_core::schema::SchemaBuilder;
        use scidb_core::value::{record, ScalarType, Value};
        use std::sync::Arc;

        let path = tmp("manager");
        let disk = Arc::new(PagedDisk::with_frames(&path, 4).unwrap());
        let schema = Arc::new(
            SchemaBuilder::new("P")
                .attr("v", ScalarType::Float64)
                .dim_chunked("I", 32, 8)
                .dim_chunked("J", 32, 8)
                .build()
                .unwrap(),
        );
        let mut mgr = StorageManager::new(
            Arc::clone(&disk) as Arc<dyn Disk>,
            Arc::clone(&schema),
            CodecPolicy::default_policy(),
        );
        let mut a = Array::from_arc(schema);
        a.fill_with(|c| record([Value::from((c[0] * 37 + c[1]) as f64)]))
            .unwrap();
        mgr.store_array(&a).unwrap();
        let full = HyperRect::new(vec![1, 1], vec![32, 32]).unwrap();
        let (back, _) = mgr.read_region(&full, ReadOptions::default()).unwrap();
        assert_eq!(back.cell_count(), 32 * 32);
        assert!(back.same_cells(&a));
        let s = disk.pool_stats();
        assert!(s.hits + s.misses > 0, "pool metered the traffic: {s:?}");
        cleanup(&path);
    }
}
