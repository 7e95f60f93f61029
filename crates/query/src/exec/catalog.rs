//! The catalog and its one write path.
//!
//! Every catalog mutation is one [`CatalogOp`] taken through
//! [`DbCore::commit`], which applies it with [`apply`] — the only function
//! that changes [`CatalogState`]. A durable database
//! ([`super::Database::open`]) differs from an in-memory one in exactly two
//! things, both decided inside `commit`: it has a [`Log`]
//! to append the op's group to, and new on-disk arrays go to its shared
//! paged disk instead of a fresh [`MemDisk`]. Recovery re-runs logged ops
//! through the same `commit` with the log in replay mode (DESIGN.md §15,
//! "One write path").

use super::durable::Log;
use super::eval::Evaluator;
use super::{system, DbCore, StmtResult};
use crate::ast::{Literal, Stmt};
use crate::plan;
use scidb_core::array::Array;
use scidb_core::error::{Error, Result};
use scidb_core::exec::ExecContext;
use scidb_core::history::UpdatableArray;
use scidb_core::registry::Registry;
use scidb_core::schema::{ArraySchema, AttributeDef, DimensionDef};
use scidb_core::uncertain::Uncertain;
use scidb_core::value::{ScalarType, Value};
use scidb_obs::sync::OrderedRwLockWriteGuard;
use scidb_obs::Span;
use scidb_storage::wal::{self, Record};
use scidb_storage::{merge_pass, CodecPolicy, Disk, MemDisk, MergeStats, StorageManager};
use std::collections::HashMap;
use std::sync::Arc;

/// A stored array instance.
#[derive(Debug)]
pub enum StoredArray {
    /// A plain in-memory array.
    Plain(Array),
    /// An updatable (no-overwrite) array (§2.5).
    Updatable(UpdatableArray),
    /// A disk-backed array served by the storage manager (§2.8); scans
    /// stream through [`StorageManager::read_region_traced`].
    OnDisk(StorageManager),
}

impl StoredArray {
    /// A scannable in-memory view: plain arrays as-is; updatable arrays
    /// expose their full inner array including the history dimension.
    /// Disk-backed arrays have no resident view — scan them instead.
    pub fn as_array(&self) -> Option<&Array> {
        match self {
            StoredArray::Plain(a) => Some(a),
            StoredArray::Updatable(u) => Some(u.array()),
            StoredArray::OnDisk(_) => None,
        }
    }
}

/// The lock-guarded catalog: array types, array instances, and the
/// function registry move together under one reader/writer lock so a
/// statement sees an atomic snapshot of all three.
pub(super) struct CatalogState {
    pub(super) types: HashMap<String, ArraySchema>,
    pub(super) arrays: HashMap<String, StoredArray>,
    pub(super) registry: Registry,
}

impl CatalogState {
    pub(super) fn new() -> Self {
        CatalogState {
            types: HashMap::new(),
            arrays: HashMap::new(),
            registry: Registry::with_builtins(),
        }
    }

    pub(super) fn stored(&self, name: &str) -> Result<&StoredArray> {
        self.arrays
            .get(name)
            .ok_or_else(|| Error::not_found(format!("array '{name}'")))
    }

    fn stored_mut(&mut self, name: &str) -> Result<&mut StoredArray> {
        self.arrays
            .get_mut(name)
            .ok_or_else(|| Error::not_found(format!("array '{name}'")))
    }

    /// Errors unless `name` may be given to a new array: outside the
    /// reserved `system.*` namespace and not in the catalog yet.
    fn ensure_free(&self, name: &str) -> Result<()> {
        system::reject_reserved(name)?;
        if self.arrays.contains_key(name) {
            return Err(Error::AlreadyExists(format!("array '{name}'")));
        }
        Ok(())
    }

    /// Enters a new array into the catalog under a free name.
    fn publish(&mut self, name: &str, stored: StoredArray) -> Result<()> {
        self.ensure_free(name)?;
        self.arrays.insert(name.to_string(), stored);
        Ok(())
    }
}

/// Applies a DDL/DML statement to the exclusively borrowed catalog.
/// `core` rides along so `store(...)` evaluations can resolve `system.*`
/// virtual arrays against live telemetry.
fn apply_write(
    core: &DbCore,
    state: &mut CatalogState,
    stmt: Stmt,
    root: &Span,
    ctx: &ExecContext,
) -> Result<StmtResult> {
    match stmt {
        Stmt::DefineArray {
            name,
            updatable,
            attrs,
            dims,
        } => {
            if state.types.contains_key(&name) {
                return Err(Error::AlreadyExists(format!("type '{name}'")));
            }
            let mut attr_defs = Vec::new();
            for (aname, tname) in &attrs {
                let ty = ScalarType::parse(tname)
                    .or_else(|| {
                        // User-defined types resolve to their base.
                        state.registry.type_def(tname).ok().map(|t| t.base())
                    })
                    .ok_or_else(|| Error::schema(format!("unknown type '{tname}'")))?;
                attr_defs.push(AttributeDef::scalar(aname.clone(), ty));
            }
            let mut dim_defs = Vec::new();
            for d in &dims {
                let mut def = match d.upper {
                    Some(u) => DimensionDef::bounded(d.name.clone(), u),
                    None => DimensionDef::unbounded(d.name.clone()),
                };
                if let Some(c) = d.chunk {
                    def = def.with_chunk(c);
                }
                dim_defs.push(def);
            }
            let mut schema = ArraySchema::new(&name, attr_defs, dim_defs)?;
            if updatable {
                schema = schema.updatable()?;
            }
            state.types.insert(name.clone(), schema);
            Ok(StmtResult::Done(format!("defined type {name}")))
        }
        Stmt::CreateArray {
            name,
            type_name,
            bounds,
        } => {
            state.ensure_free(&name)?;
            let ty = state
                .types
                .get(&type_name)
                .ok_or_else(|| Error::not_found(format!("type '{type_name}'")))?;
            // Updatable types: bounds exclude the implicit history dim.
            let schema = if ty.is_updatable() && bounds.len() == ty.rank() - 1 {
                let mut b = bounds.clone();
                b.push(None);
                ty.instantiate(&name, &b)?
            } else {
                ty.instantiate(&name, &bounds)?
            };
            let stored = if schema.is_updatable() {
                StoredArray::Updatable(UpdatableArray::new(schema)?)
            } else {
                StoredArray::Plain(Array::new(schema))
            };
            state.arrays.insert(name.clone(), stored);
            Ok(StmtResult::Done(format!("created array {name}")))
        }
        Stmt::Enhance { array, function } => {
            let f = state.registry.enhancement(&function)?;
            match state.stored_mut(&array)? {
                StoredArray::Plain(a) => a.enhance(f)?,
                StoredArray::Updatable(u) => {
                    if f.output_names().len() == 1 {
                        u.set_clock(f)?;
                    } else {
                        return Err(Error::Unsupported(
                            "multi-dimension enhancement of an updatable array".into(),
                        ));
                    }
                }
                StoredArray::OnDisk(_) => {
                    return Err(Error::Unsupported(
                        "enhancement of a disk-backed array".into(),
                    ))
                }
            }
            Ok(StmtResult::Done(format!(
                "enhanced {array} with {function}"
            )))
        }
        Stmt::Shape { array, function } => {
            let f = state.registry.shape(&function)?;
            match state.stored_mut(&array)? {
                StoredArray::Plain(a) => a.set_shape(f)?,
                StoredArray::Updatable(_) => {
                    return Err(Error::Unsupported(
                        "shape functions on updatable arrays".into(),
                    ))
                }
                StoredArray::OnDisk(_) => {
                    return Err(Error::Unsupported(
                        "shape functions on disk-backed arrays".into(),
                    ))
                }
            }
            Ok(StmtResult::Done(format!("shaped {array} with {function}")))
        }
        Stmt::Insert {
            array,
            coords,
            values,
        } => {
            let record: Vec<Value> = values.iter().map(literal_to_value).collect();
            match state.stored_mut(&array)? {
                StoredArray::Plain(a) => a.set_cell(&coords, record)?,
                StoredArray::Updatable(u) => {
                    // No-overwrite: the insert lands at the next
                    // history version (§2.5).
                    u.commit_put(&coords, record)?;
                }
                StoredArray::OnDisk(_) => {
                    return Err(Error::Unsupported(
                        "cell insert into a disk-backed array".into(),
                    ))
                }
            }
            Ok(StmtResult::Done(format!("inserted into {array}")))
        }
        Stmt::Store { expr, into } => {
            state.ensure_free(&into)?;
            let ev = Evaluator {
                state: &*state,
                ctx,
                core,
            };
            let result = ev.eval_node(root, plan::optimize(expr))?;
            let stored = StoredArray::Plain(result.renamed(into.as_str()));
            state.arrays.insert(into.clone(), stored);
            Ok(StmtResult::Done(format!("stored into {into}")))
        }
        Stmt::Drop { name } => {
            state
                .arrays
                .remove(&name)
                .ok_or_else(|| Error::not_found(format!("array '{name}'")))?;
            Ok(StmtResult::Done(format!("dropped {name}")))
        }
        // Read statements never reach here (dispatch routes them to the
        // read path); degrade to a typed error rather than panicking.
        other => Err(Error::eval(format!(
            "statement '{other}' is not a catalog write"
        ))),
    }
}

/// Loads `array` into a fresh storage manager over `disk` as catalog entry
/// `name` (adaptive codecs). All dimensions must be bounded.
fn store_on_disk(disk: Arc<dyn Disk>, name: &str, array: &Array) -> Result<StorageManager> {
    if let Some(d) = array.schema().dims().iter().find(|d| d.is_unbounded()) {
        return Err(Error::Unsupported(format!(
            "on-disk array with unbounded dimension '{}'",
            d.name
        )));
    }
    let schema = Arc::new(array.schema().renamed(name));
    let mut mgr = StorageManager::new(disk, schema, CodecPolicy::adaptive());
    mgr.store_array(array)?;
    Ok(mgr)
}

/// One catalog mutation: what [`DbCore::commit`] applies, logs and replays.
pub(super) enum CatalogOp<'a> {
    /// A DDL/DML statement, run under `root` (logged as `Record::Stmt`).
    Stmt {
        stmt: Stmt,
        /// The statement's canonical rendering, as logged.
        aql: &'a str,
        root: &'a Span,
        ctx: &'a ExecContext,
    },
    /// Registers an in-memory array (`Record::PutArray`).
    PutArray { name: &'a str, array: Array },
    /// Loads an array into storage-manager buckets
    /// (`Record::PutArrayOnDisk`, preceded by its bucket images).
    PutArrayOnDisk { name: &'a str, array: &'a Array },
    /// One super-tile merge pass over a disk-backed array (`Record::Merge`,
    /// preceded by its bucket writes and frees); fills in `stats`.
    Merge {
        name: &'a str,
        factor: i64,
        stats: &'a mut MergeStats,
    },
}

impl CatalogOp<'_> {
    /// The logical WAL record that replays this op.
    fn record(&self) -> Record {
        match self {
            CatalogOp::Stmt { aql, .. } => Record::Stmt {
                aql: aql.to_string(),
            },
            CatalogOp::PutArray { name, array } => Record::PutArray {
                name: name.to_string(),
                bytes: wal::encode_array(array),
            },
            CatalogOp::PutArrayOnDisk { name, array } => Record::PutArrayOnDisk {
                name: name.to_string(),
                bytes: wal::encode_array(array),
            },
            CatalogOp::Merge { name, factor, .. } => Record::Merge {
                array: name.to_string(),
                factor: *factor,
            },
        }
    }
}

/// Applies one op to the catalog — the only code that mutates it — and
/// returns the acknowledgement with the catalog write guard still held, so
/// [`DbCore::commit`] can persist what the op added before any reader sees
/// it. `new_disk` supplies the disk a new on-disk array's buckets go to.
fn apply<'c>(
    core: &'c DbCore,
    op: CatalogOp<'_>,
    new_disk: impl FnOnce() -> Arc<dyn Disk>,
) -> Result<(StmtResult, OrderedRwLockWriteGuard<'c, CatalogState>)> {
    match op {
        CatalogOp::Stmt {
            stmt, root, ctx, ..
        } => {
            let mut state = core.state.write();
            let out = apply_write(core, &mut state, stmt, root, ctx)?;
            Ok((out, state))
        }
        CatalogOp::PutArray { name, array } => {
            let mut state = core.state.write();
            state.publish(name, StoredArray::Plain(array))?;
            Ok((StmtResult::Done(format!("put array {name}")), state))
        }
        CatalogOp::PutArrayOnDisk { name, array } => {
            // The bucket conversion — the expensive part — runs outside the
            // catalog lock: readers keep scanning the previous generation
            // and only the publish, which checks the name again, takes the
            // write lock.
            core.state.read().ensure_free(name)?;
            let mgr = store_on_disk(new_disk(), name, array)?;
            let mut state = core.state.write();
            state.publish(name, StoredArray::OnDisk(mgr))?;
            Ok((StmtResult::Done(format!("put array {name} on disk")), state))
        }
        CatalogOp::Merge {
            name,
            factor,
            stats,
        } => {
            let mut state = core.state.write();
            *stats = match state.stored_mut(name)? {
                StoredArray::OnDisk(mgr) => merge_pass(mgr, factor)?,
                _ => {
                    return Err(Error::Unsupported(format!(
                        "merge of non-disk-backed array '{name}'"
                    )))
                }
            };
            Ok((StmtResult::Done(format!("merged {name}")), state))
        }
    }
}

/// What the writer mutex guards. An in-memory database is a durable one
/// with no log.
pub(super) struct Writer {
    pub(super) log: Option<Log>,
}

impl DbCore {
    /// The one catalog write path, live and replayed. Takes the writer
    /// mutex (rank `WAL`, below `CATALOG`), so the op's bucket traffic is
    /// attributable to it and its group is the next in the log; applies the
    /// op; seals its group while the catalog write guard is still held;
    /// bumps the generation and releases the guard; then appends and
    /// fsyncs. A failed op appends nothing.
    pub(super) fn commit(&self, op: CatalogOp<'_>) -> Result<StmtResult> {
        let mut writer = self.writer.lock();
        let mut log = writer.log.as_mut();
        // Encoded before `apply` moves a put array into the catalog; a
        // replayed op is in the log already.
        let record = log.as_ref().filter(|l| !l.replaying).map(|_| op.record());
        let new_disk = || match &log {
            Some(l) => Arc::clone(&l.disk) as Arc<dyn Disk>,
            None => Arc::new(MemDisk::new()),
        };
        let (out, state, group) = apply(self, op, new_disk)
            .and_then(|(out, state)| {
                let group = match &mut log {
                    Some(l) => l.seal(record, &state)?,
                    None => None,
                };
                Ok((out, state, group))
            })
            .inspect_err(|_| {
                // Aborts append nothing: drop what the op journalled.
                if let Some(l) = &log {
                    l.disk.take_journal();
                }
            })?;
        self.touch();
        drop(state);
        if let (Some(l), Some(group)) = (log, group) {
            l.wal.append_group(&group)?;
        }
        Ok(out)
    }
}

fn literal_to_value(l: &Literal) -> Value {
    match l {
        Literal::Int(v) => Value::from(*v),
        Literal::Float(v) => Value::from(*v),
        Literal::Str(s) => Value::from(s.clone()),
        Literal::Bool(b) => Value::from(*b),
        Literal::Null => Value::Null,
        Literal::Uncertain(m, s) => Value::from(Uncertain::new(*m, *s)),
    }
}
