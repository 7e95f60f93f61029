//! Block storage with I/O accounting.
//!
//! The storage manager (§2.8) writes immutable compressed buckets to disk.
//! [`Disk`] abstracts the medium; [`MemDisk`] is the metered in-memory
//! backend used by tests and the read-amplification experiments (E3), and
//! [`FileDisk`] stores each block as a file for durability demonstrations.
//! Blocks are immutable once written — the no-overwrite principle (§2.5)
//! applies to the physical layer too: updates land in new blocks.

use scidb_core::error::{Error, Result};
use scidb_obs::sync::{ranks, OrderedMutex};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of one stored block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

/// Cumulative I/O statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Bytes written since creation (or last reset).
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Number of block writes.
    pub writes: u64,
    /// Number of block reads (a proxy for seeks on spinning media).
    pub reads: u64,
    /// Number of block deletions.
    pub deletes: u64,
}

/// A block device: append-only writes of immutable blocks.
pub trait Disk: Send + Sync {
    /// Writes a new immutable block, returning its id.
    fn write(&self, data: &[u8]) -> Result<BlockId>;
    /// Reads a block in full.
    fn read(&self, id: BlockId) -> Result<Vec<u8>>;
    /// Deletes a block (only the background merge reclaims space this way).
    fn delete(&self, id: BlockId) -> Result<()>;
    /// Current I/O statistics.
    fn stats(&self) -> IoStats;
    /// Resets the statistics (experiments call this between phases).
    fn reset_stats(&self);
}

/// In-memory metered disk.
#[derive(Debug)]
pub struct MemDisk {
    blocks: OrderedMutex<HashMap<BlockId, Vec<u8>>>,
    next: AtomicU64,
    stats: OrderedMutex<IoStats>,
}

impl Default for MemDisk {
    fn default() -> Self {
        MemDisk {
            blocks: OrderedMutex::new(ranks::STORAGE, HashMap::new()),
            next: AtomicU64::new(0),
            stats: OrderedMutex::new(ranks::STORAGE, IoStats::default()),
        }
    }
}

impl MemDisk {
    /// Creates an empty in-memory disk.
    pub fn new() -> Self {
        MemDisk::default()
    }

    /// Number of live blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.lock().len()
    }

    /// Total bytes of live blocks.
    pub fn live_bytes(&self) -> u64 {
        self.blocks.lock().values().map(|b| b.len() as u64).sum()
    }
}

impl Disk for MemDisk {
    fn write(&self, data: &[u8]) -> Result<BlockId> {
        let id = BlockId(self.next.fetch_add(1, Ordering::Relaxed));
        self.blocks.lock().insert(id, data.to_vec());
        let mut s = self.stats.lock();
        s.bytes_written += data.len() as u64;
        s.writes += 1;
        Ok(id)
    }

    fn read(&self, id: BlockId) -> Result<Vec<u8>> {
        let blocks = self.blocks.lock();
        let data = blocks
            .get(&id)
            .ok_or_else(|| Error::storage(format!("block {id:?} not found")))?
            .clone();
        drop(blocks);
        let mut s = self.stats.lock();
        s.bytes_read += data.len() as u64;
        s.reads += 1;
        Ok(data)
    }

    fn delete(&self, id: BlockId) -> Result<()> {
        let removed = self.blocks.lock().remove(&id);
        if removed.is_none() {
            return Err(Error::storage(format!("block {id:?} not found")));
        }
        self.stats.lock().deletes += 1;
        Ok(())
    }

    fn stats(&self) -> IoStats {
        *self.stats.lock()
    }

    fn reset_stats(&self) {
        *self.stats.lock() = IoStats::default();
    }
}

/// File-backed disk: one file per block under a directory.
#[derive(Debug)]
pub struct FileDisk {
    dir: PathBuf,
    next: AtomicU64,
    stats: OrderedMutex<IoStats>,
}

impl FileDisk {
    /// Opens (creating if needed) a file-backed disk rooted at `dir`.
    /// Existing blocks are re-indexed by file name.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut max_id = 0u64;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            if let Some(stem) = entry.path().file_stem().and_then(|s| s.to_str()) {
                if let Ok(id) = stem.parse::<u64>() {
                    max_id = max_id.max(id + 1);
                }
            }
        }
        Ok(FileDisk {
            dir,
            next: AtomicU64::new(max_id),
            stats: OrderedMutex::new(ranks::STORAGE, IoStats::default()),
        })
    }

    fn path(&self, id: BlockId) -> PathBuf {
        self.dir.join(format!("{}.blk", id.0))
    }
}

impl Disk for FileDisk {
    fn write(&self, data: &[u8]) -> Result<BlockId> {
        let id = BlockId(self.next.fetch_add(1, Ordering::Relaxed));
        std::fs::write(self.path(id), data)?;
        let mut s = self.stats.lock();
        s.bytes_written += data.len() as u64;
        s.writes += 1;
        Ok(id)
    }

    fn read(&self, id: BlockId) -> Result<Vec<u8>> {
        let data = std::fs::read(self.path(id))
            .map_err(|e| Error::storage(format!("block {id:?}: {e}")))?;
        let mut s = self.stats.lock();
        s.bytes_read += data.len() as u64;
        s.reads += 1;
        Ok(data)
    }

    fn delete(&self, id: BlockId) -> Result<()> {
        std::fs::remove_file(self.path(id))
            .map_err(|e| Error::storage(format!("block {id:?}: {e}")))?;
        self.stats.lock().deletes += 1;
        Ok(())
    }

    fn stats(&self) -> IoStats {
        *self.stats.lock()
    }

    fn reset_stats(&self) {
        *self.stats.lock() = IoStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(disk: &dyn Disk) {
        let a = disk.write(b"hello").unwrap();
        let b = disk.write(b"world!").unwrap();
        assert_ne!(a, b);
        assert_eq!(disk.read(a).unwrap(), b"hello");
        assert_eq!(disk.read(b).unwrap(), b"world!");
        let s = disk.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.bytes_written, 11);
        assert_eq!(s.reads, 2);
        assert_eq!(s.bytes_read, 11);
        disk.delete(a).unwrap();
        assert!(disk.read(a).is_err());
        assert!(disk.delete(a).is_err());
        disk.reset_stats();
        assert_eq!(disk.stats(), IoStats::default());
    }

    #[test]
    fn memdisk_roundtrip_and_stats() {
        let d = MemDisk::new();
        exercise(&d);
        assert_eq!(d.block_count(), 1);
        assert_eq!(d.live_bytes(), 6);
    }

    #[test]
    fn filedisk_roundtrip_and_stats() {
        let dir = std::env::temp_dir().join(format!("scidb_filedisk_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = FileDisk::open(&dir).unwrap();
        exercise(&d);
        drop(d);
        // Reopen resumes id allocation past existing blocks.
        let d2 = FileDisk::open(&dir).unwrap();
        let c = d2.write(b"again").unwrap();
        assert_eq!(d2.read(c).unwrap(), b"again");
        assert!(c.0 >= 2, "id allocation resumed, got {c:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memdisk_read_unknown_block_fails() {
        let d = MemDisk::new();
        assert!(d.read(BlockId(42)).is_err());
    }
}
