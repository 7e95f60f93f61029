//! The durability layer: the write-ahead log behind
//! [`DbCore::commit`](super::DbCore::commit) and ARIES-lite replay.
//!
//! A durable database ([`super::Database::open`]) has a [`Log`] under its
//! writer mutex — the group-commit [`Wal`], the shared [`PagedDisk`] every
//! disk-backed structure writes through, and the per-array history stores —
//! plus a lock-free [`Durability`] holding what the open found. Each
//! committed operation appends exactly one WAL group — `Begin`, physical
//! bucket images, the logical record that owns them, delta syncs, `Commit`
//! — and fsyncs once; aborted operations append nothing.
//!
//! Recovery is physical-redo with self-verification: the page file is
//! derived state rebuilt from scratch, each group's logical record goes
//! through the same `commit` as a live operation with the disk in replay
//! mode and the log not appending, and every bucket write the re-execution
//! produces must match the logged image byte-for-byte (and lands at the
//! logged block id). A mismatch is a replay divergence and fails the open,
//! never silently corrupts.

use super::catalog::{CatalogOp, CatalogState, StoredArray};
use super::DbCore;
use crate::parser;
use scidb_core::error::Result;
use scidb_core::exec::ExecContext;
use scidb_obs::{Stopwatch, Trace, LAYER_QUERY};
use scidb_storage::wal::{self, Record, Wal};
use scidb_storage::{CodecPolicy, DeltaStore, Disk, MergeStats, PagedDisk};
use std::collections::hash_map::{Entry, HashMap};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The log of a durable database, guarded by the writer mutex.
pub(super) struct Log {
    pub(super) wal: Wal,
    next_op: u64,
    /// The shared page-backed disk all durable buckets live on.
    pub(super) disk: Arc<PagedDisk>,
    /// Per-updatable-array history persistence, keyed by catalog name.
    deltas: HashMap<String, DeltaStore>,
    /// True while [`DbCore::open`] re-commits the recovered groups: the
    /// disk verifies bucket traffic instead of journalling it, and nothing
    /// is appended.
    pub(super) replaying: bool,
}

impl Log {
    /// Called under the catalog write guard once an operation has been
    /// applied: persists the history versions it added and assembles its
    /// group — `Begin`, the journalled bucket records, the logical record,
    /// one `DeltaAppend` (after its bucket records) per synced array,
    /// `Commit`. Without a `record` (replay) the syncs still run, so the
    /// disk sees the logged bucket traffic again, and no group is returned.
    pub(super) fn seal(
        &mut self,
        record: Option<Record>,
        state: &CatalogState,
    ) -> Result<Option<Vec<Record>>> {
        let logging = record.is_some();
        let op = self.next_op;
        self.next_op += 1;
        let mut group = vec![Record::Begin { op }];
        group.append(&mut self.disk.take_journal());
        group.extend(record);
        // A store whose array was dropped goes: a later array of the same
        // name starts its history over.
        self.deltas
            .retain(|name, _| matches!(state.arrays.get(name), Some(StoredArray::Updatable(_))));
        // Sorted array order, so replay regenerates identical bucket traffic.
        let updatable: BTreeMap<_, _> = state
            .arrays
            .iter()
            .filter_map(|(name, stored)| match stored {
                StoredArray::Updatable(ua) => Some((name, ua)),
                _ => None,
            })
            .collect();
        for (name, ua) in updatable {
            let store = match self.deltas.entry(name.clone()) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(v) => v.insert(DeltaStore::new(
                    Arc::clone(&self.disk) as Arc<dyn Disk>,
                    ua.array().schema(),
                    CodecPolicy::adaptive(),
                )?),
            };
            if ua.current_history() > store.persisted_through() {
                store.sync_from(ua)?;
                group.append(&mut self.disk.take_journal());
                group.push(Record::DeltaAppend {
                    array: name.clone(),
                    through: ua.current_history(),
                });
            }
        }
        group.push(Record::Commit { op });
        Ok(logging.then_some(group))
    }
}

/// What opening a durable database found, readable without the writer
/// mutex (`system.storage` is scanned under the catalog guard, which ranks
/// above it).
pub(super) struct Durability {
    /// The shared paged disk (for its buffer-pool counters).
    pub(super) disk: Arc<PagedDisk>,
    /// The directory this database persists under.
    pub(super) dir: PathBuf,
    /// Operations replayed by the open.
    pub(super) replayed_ops: u64,
    /// Wall milliseconds the replay took.
    pub(super) replay_ms: u64,
    /// Torn-tail bytes truncated by the open.
    pub(super) torn_bytes: u64,
}

impl DbCore {
    /// Opens (creating if needed) the durable store under `dir` and replays
    /// its committed WAL groups into a fresh core. The page file is
    /// recreated empty — it is rebuilt entirely from the log. Each group's
    /// physical records queue on the disk; its logical record becomes the
    /// [`CatalogOp`] it was logged from and goes through [`DbCore::commit`],
    /// whose bucket writes (the op's own and its delta syncs') consume the
    /// queue under byte verification; `Commit` asserts the queue drained.
    /// Then the log switches to appending.
    pub(super) fn open(dir: &Path, threads: usize) -> Result<DbCore> {
        let sw = Stopwatch::start();
        std::fs::create_dir_all(dir)?;
        let (wal, recovered) = Wal::open(&dir.join("wal.log"))?;
        let disk = Arc::new(PagedDisk::create(&dir.join("pages.db"))?);
        let mut core = DbCore::new(
            threads,
            Some(Log {
                wal,
                next_op: 0,
                disk: Arc::clone(&disk),
                deltas: HashMap::new(),
                replaying: true,
            }),
        );
        let ctx = ExecContext::with_threads(1);
        disk.begin_replay();
        let mut next_op = 0;
        let mut replayed_ops = 0;
        for group in recovered.groups {
            let (physical, logical): (Vec<_>, Vec<_>) = group.into_iter().partition(|rec| {
                matches!(rec, Record::BucketWrite { .. } | Record::BucketFree { .. })
            });
            for rec in physical {
                disk.queue_replay(rec);
            }
            for rec in logical {
                match rec {
                    Record::Begin { op } => next_op = next_op.max(op + 1),
                    Record::Commit { .. } => {
                        disk.assert_replay_drained()?;
                        replayed_ops += 1;
                    }
                    // Queued above; regenerated by the owning op's commit.
                    Record::BucketWrite { .. }
                    | Record::BucketFree { .. }
                    | Record::DeltaAppend { .. } => {}
                    Record::Stmt { aql } => {
                        let trace = Trace::new();
                        let root = trace.root("recovery", LAYER_QUERY);
                        core.commit(CatalogOp::Stmt {
                            stmt: parser::parse_one(&aql)?,
                            aql: &aql,
                            root: &root,
                            ctx: &ctx,
                        })?;
                        root.finish();
                    }
                    Record::PutArray { name, bytes } => {
                        core.commit(CatalogOp::PutArray {
                            name: &name,
                            array: wal::decode_array(&bytes)?,
                        })?;
                    }
                    Record::PutArrayOnDisk { name, bytes } => {
                        core.commit(CatalogOp::PutArrayOnDisk {
                            name: &name,
                            array: &wal::decode_array(&bytes)?,
                        })?;
                    }
                    Record::Merge { array, factor } => {
                        core.commit(CatalogOp::Merge {
                            name: &array,
                            factor,
                            stats: &mut MergeStats::default(),
                        })?;
                    }
                }
            }
        }
        disk.end_replay()?;
        if let Some(log) = &mut core.writer.lock().log {
            log.next_op = next_op;
            log.replaying = false;
        }
        let replay_ms = sw.elapsed().as_millis() as u64;
        let reg = scidb_obs::global();
        reg.gauge("scidb.storage.recovery.replay_ms")
            .set(replay_ms as i64);
        reg.counter("scidb.storage.recovery.replayed_ops")
            .inc(replayed_ops);
        reg.counter("scidb.storage.recovery.torn_bytes")
            .inc(recovered.torn_bytes);
        core.durable = Some(Durability {
            disk,
            dir: dir.to_path_buf(),
            replayed_ops,
            replay_ms,
            torn_bytes: recovered.torn_bytes,
        });
        Ok(core)
    }
}
