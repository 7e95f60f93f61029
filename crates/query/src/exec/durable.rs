//! The durability layer: WAL-backed catalog writes and ARIES-lite replay.
//!
//! A durable database ([`super::Database::open`]) owns a [`Durability`]
//! holding the group-commit [`Wal`] and the shared [`PagedDisk`] every
//! disk-backed structure writes through. Each committed operation appends
//! exactly one WAL group — `Begin`, physical bucket images, the logical
//! record that owns them, `Commit` — and fsyncs once; aborted operations
//! append nothing.
//!
//! The `op` mutex (rank `WAL` = 25, *below* `CATALOG`) serializes durable
//! writers so a group's physical records are attributable to one logical
//! operation. Long bulk loads ([`Durability::put_array_on_disk`]) run
//! while holding only this mutex: concurrent readers keep scanning the
//! previous catalog generation (MVCC over the generation counter) and the
//! catalog write lock is taken only for the final publish.
//!
//! Recovery is physical-redo with self-verification: the page file is
//! derived state rebuilt from scratch, each group's logical record is
//! re-executed with the disk in replay mode, and every bucket write the
//! re-execution produces must match the logged image byte-for-byte (and
//! lands at the logged block id). A mismatch is a replay divergence and
//! fails the open, never silently corrupts.

use super::{apply_write, store_on_disk, system, DbCore, StoredArray};
use crate::ast::Stmt;
use crate::parser;
use scidb_core::array::Array;
use scidb_core::error::{Error, Result};
use scidb_core::exec::ExecContext;
use scidb_core::sync::{ranks, OrderedMutex};
use scidb_obs::{Stopwatch, Trace, LAYER_QUERY};
use scidb_storage::pool::PoolStats;
use scidb_storage::wal::{self, Record, Wal};
use scidb_storage::{merge_pass, CodecPolicy, DeltaStore, Disk, MergeStats, PagedDisk};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// State guarded by the durable-operation mutex.
struct WalState {
    wal: Wal,
    next_op: u64,
    /// Per-updatable-array history persistence, keyed by catalog name.
    deltas: HashMap<String, DeltaStore>,
}

/// The durable backend of one database: WAL appender, paged disk, and
/// recovery bookkeeping.
pub(super) struct Durability {
    /// The shared page-backed disk all durable buckets live on.
    pub(super) disk: Arc<PagedDisk>,
    op: OrderedMutex<WalState>,
    dir: PathBuf,
    replayed_ops: AtomicU64,
    replay_ms: AtomicU64,
    torn_bytes: AtomicU64,
}

impl Durability {
    /// Opens (creating if needed) the durable store under `dir` and
    /// salvages the committed WAL groups for replay. The page file is
    /// recreated empty — it is rebuilt entirely from the log.
    pub(super) fn create(dir: &Path) -> Result<(Durability, Vec<Vec<Record>>)> {
        std::fs::create_dir_all(dir)?;
        let (wal, recovered) = Wal::open(&dir.join("wal.log"))?;
        let disk = Arc::new(PagedDisk::create(&dir.join("pages.db"))?);
        let d = Durability {
            disk,
            op: OrderedMutex::new(
                ranks::WAL,
                WalState {
                    wal,
                    next_op: 0,
                    deltas: HashMap::new(),
                },
            ),
            dir: dir.to_path_buf(),
            replayed_ops: AtomicU64::new(0),
            replay_ms: AtomicU64::new(0),
            torn_bytes: AtomicU64::new(recovered.torn_bytes),
        };
        Ok((d, recovered.groups))
    }

    /// The directory this database persists under.
    pub(super) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Operations replayed by the last open.
    pub(super) fn replayed_ops(&self) -> u64 {
        self.replayed_ops.load(Ordering::Relaxed)
    }

    /// Wall milliseconds the last replay took.
    pub(super) fn replay_ms(&self) -> u64 {
        self.replay_ms.load(Ordering::Relaxed)
    }

    /// Torn-tail bytes truncated by the last open.
    pub(super) fn torn_bytes(&self) -> u64 {
        self.torn_bytes.load(Ordering::Relaxed)
    }

    /// Buffer-pool counters of the shared paged disk.
    pub(super) fn pool_stats(&self) -> PoolStats {
        self.disk.pool_stats()
    }

    /// Replays recovered WAL groups against a freshly constructed core:
    /// physical records queue on the disk, logical records re-execute and
    /// consume them under byte verification, `Commit` asserts the queue
    /// drained. Runs before the database handle is shared, single-threaded.
    pub(super) fn replay(&self, core: &DbCore, groups: Vec<Vec<Record>>) -> Result<()> {
        let sw = Stopwatch::start();
        let ctx = ExecContext::with_threads(1);
        let mut ws = self.op.lock();
        self.disk.begin_replay();
        let mut ops = 0u64;
        for group in groups {
            for rec in group {
                match rec {
                    Record::Begin { op } => ws.next_op = ws.next_op.max(op + 1),
                    Record::Commit { .. } => {
                        self.disk.assert_replay_drained()?;
                        ops += 1;
                    }
                    Record::BucketWrite { .. } | Record::BucketFree { .. } => {
                        self.disk.queue_replay(rec)
                    }
                    Record::Stmt { aql } => {
                        let stmt = parser::parse_one(&aql)?;
                        let dropped = match &stmt {
                            Stmt::Drop { name } => Some(name.clone()),
                            _ => None,
                        };
                        let trace = Trace::new();
                        let root = trace.root("recovery", LAYER_QUERY);
                        let mut state = core.state.write();
                        apply_write(core, &mut state, stmt, &root, &ctx)?;
                        drop(state);
                        root.finish();
                        if let Some(name) = dropped {
                            ws.deltas.remove(&name);
                        }
                    }
                    Record::PutArray { name, bytes } => {
                        let array = wal::decode_array(&bytes)?;
                        core.state
                            .write()
                            .arrays
                            .insert(name, StoredArray::Plain(array));
                    }
                    Record::PutArrayOnDisk { name, bytes } => {
                        let array = wal::decode_array(&bytes)?;
                        let mgr = store_on_disk(self.disk.clone(), &name, &array)?;
                        core.state
                            .write()
                            .arrays
                            .insert(name, StoredArray::OnDisk(mgr));
                    }
                    Record::DeltaAppend { array, through } => {
                        let state = core.state.read();
                        let ua = match state.stored(&array)? {
                            StoredArray::Updatable(ua) => ua,
                            _ => {
                                return Err(Error::storage(format!(
                                    "wal replay: DeltaAppend target '{array}' is not updatable"
                                )))
                            }
                        };
                        if ua.current_history() != through {
                            return Err(Error::storage(format!(
                                "wal replay diverged: '{array}' history at {} but log \
                                 persisted through {through}",
                                ua.current_history()
                            )));
                        }
                        let ds = delta_store_for(&mut ws.deltas, &self.disk, &array, ua)?;
                        ds.sync_from(ua)?;
                    }
                    Record::Merge { array, factor } => {
                        let mut state = core.state.write();
                        match state.stored_mut(&array)? {
                            StoredArray::OnDisk(mgr) => {
                                merge_pass(mgr, factor)?;
                            }
                            _ => {
                                return Err(Error::storage(format!(
                                    "wal replay: Merge target '{array}' is not disk-backed"
                                )))
                            }
                        }
                    }
                }
            }
        }
        self.disk.end_replay()?;
        drop(ws);
        core.touch();
        let ms = sw.elapsed().as_millis() as u64;
        self.replayed_ops.store(ops, Ordering::Relaxed);
        self.replay_ms.store(ms, Ordering::Relaxed);
        let reg = scidb_obs::global();
        reg.gauge("scidb.storage.recovery.replay_ms").set(ms as i64);
        reg.counter("scidb.storage.recovery.replayed_ops").inc(ops);
        reg.counter("scidb.storage.recovery.torn_bytes")
            .inc(self.torn_bytes());
        Ok(())
    }

    /// Durable statement execution: applies the write under the catalog
    /// lock, syncs updatable-array deltas, and commits one WAL group.
    pub(super) fn stmt(
        &self,
        core: &DbCore,
        stmt: Stmt,
        aql: &str,
        root: &scidb_obs::Span,
        ctx: &ExecContext,
    ) -> Result<super::StmtResult> {
        let mut ws = self.op.lock();
        debug_assert!(self.disk.take_journal().is_empty());
        let dropped = match &stmt {
            Stmt::Drop { name } => Some(name.clone()),
            _ => None,
        };
        let mut state = core.state.write();
        let out = match apply_write(core, &mut state, stmt, root, ctx) {
            Ok(v) => v,
            Err(e) => {
                // Aborts append nothing; discard any journalled traffic.
                drop(state);
                let _ = self.disk.take_journal();
                return Err(e);
            }
        };
        let op = ws.next_op;
        ws.next_op += 1;
        let mut group = vec![
            Record::Begin { op },
            Record::Stmt {
                aql: aql.to_string(),
            },
        ];
        // Persist any history versions this statement added, in sorted
        // array order so replay regenerates identical bucket traffic.
        let mut names: Vec<String> = state.arrays.keys().cloned().collect();
        names.sort_unstable();
        for name in names {
            let Some(StoredArray::Updatable(ua)) = state.arrays.get(&name) else {
                continue;
            };
            let ds = delta_store_for(&mut ws.deltas, &self.disk, &name, ua)?;
            if ua.current_history() > ds.persisted_through() {
                ds.sync_from(ua)?;
                group.append(&mut self.disk.take_journal());
                group.push(Record::DeltaAppend {
                    array: name.clone(),
                    through: ua.current_history(),
                });
            }
        }
        if let Some(name) = dropped {
            ws.deltas.remove(&name);
        }
        group.push(Record::Commit { op });
        drop(state);
        core.touch();
        ws.wal.append_group(&group)?;
        Ok(out)
    }

    /// Durable bulk registration of an in-memory array.
    pub(super) fn put_array(&self, core: &DbCore, name: &str, array: Array) -> Result<()> {
        let mut ws = self.op.lock();
        let bytes = wal::encode_array(&array);
        core.put_array_plain(name, array)?;
        let op = ws.next_op;
        ws.next_op += 1;
        ws.wal.append_group(&[
            Record::Begin { op },
            Record::PutArray {
                name: name.to_string(),
                bytes,
            },
            Record::Commit { op },
        ])?;
        Ok(())
    }

    /// Durable disk-backed load. The bucket conversion — the expensive
    /// part — runs *outside* the catalog lock: readers keep scanning the
    /// previous generation and only the final publish takes the write
    /// lock briefly.
    pub(super) fn put_array_on_disk(&self, core: &DbCore, name: &str, array: &Array) -> Result<()> {
        system::reject_reserved(name)?;
        let mut ws = self.op.lock();
        debug_assert!(self.disk.take_journal().is_empty());
        if core.state.read().arrays.contains_key(name) {
            return Err(Error::AlreadyExists(format!("array '{name}'")));
        }
        let mgr = store_on_disk(self.disk.clone(), name, array).inspect_err(|_| {
            let _ = self.disk.take_journal();
        })?;
        let op = ws.next_op;
        ws.next_op += 1;
        let mut group = vec![Record::Begin { op }];
        group.append(&mut self.disk.take_journal());
        group.push(Record::PutArrayOnDisk {
            name: name.to_string(),
            bytes: wal::encode_array(array),
        });
        group.push(Record::Commit { op });
        {
            let mut state = core.state.write();
            state
                .arrays
                .insert(name.to_string(), StoredArray::OnDisk(mgr));
        }
        core.touch();
        ws.wal.append_group(&group)?;
        Ok(())
    }

    /// Durable super-tile merge pass over a disk-backed array.
    pub(super) fn merge_on_disk(
        &self,
        core: &DbCore,
        name: &str,
        factor: i64,
    ) -> Result<MergeStats> {
        let mut ws = self.op.lock();
        debug_assert!(self.disk.take_journal().is_empty());
        let mut state = core.state.write();
        let stats = match state.stored_mut(name)? {
            StoredArray::OnDisk(mgr) => match merge_pass(mgr, factor) {
                Ok(s) => s,
                Err(e) => {
                    drop(state);
                    let _ = self.disk.take_journal();
                    return Err(e);
                }
            },
            _ => {
                return Err(Error::Unsupported(format!(
                    "merge of non-disk-backed array '{name}'"
                )))
            }
        };
        let op = ws.next_op;
        ws.next_op += 1;
        let mut group = vec![Record::Begin { op }];
        group.append(&mut self.disk.take_journal());
        group.push(Record::Merge {
            array: name.to_string(),
            factor,
        });
        group.push(Record::Commit { op });
        drop(state);
        core.touch();
        ws.wal.append_group(&group)?;
        Ok(stats)
    }
}

/// Gets (creating on first use) the delta store for updatable array
/// `name`, backed by the shared paged disk.
fn delta_store_for<'a>(
    deltas: &'a mut HashMap<String, DeltaStore>,
    disk: &Arc<PagedDisk>,
    name: &str,
    ua: &scidb_core::history::UpdatableArray,
) -> Result<&'a mut DeltaStore> {
    match deltas.entry(name.to_string()) {
        std::collections::hash_map::Entry::Occupied(e) => Ok(e.into_mut()),
        std::collections::hash_map::Entry::Vacant(v) => {
            let ds = DeltaStore::new(
                Arc::clone(disk) as Arc<dyn Disk>,
                ua.array().schema(),
                CodecPolicy::adaptive(),
            )?;
            Ok(v.insert(ds))
        }
    }
}
