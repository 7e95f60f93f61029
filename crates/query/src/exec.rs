//! The query executor: statement execution over a shared core, and the
//! two handles to it.
//!
//! The catalog lives in an internal, interior-synchronized core (`DbCore`):
//! an immutable handle to it can be shared across threads, and every
//! statement executes through that shared core under a reader/writer lock
//! — read statements (`Query`, `exists`) take the read side and run
//! concurrently through the evaluator (`eval`); DDL/DML, like every other
//! catalog mutation, is a `CatalogOp` through `DbCore::commit` (`catalog`),
//! which takes the write side. Two public handles wrap the core:
//!
//! * [`Database`] — a cheaply cloneable (`Arc`) catalog handle:
//!   construction, catalog access, the shared slow-query log, and the
//!   [`Session`]s that execute. Its `run`/`query` are one-line calls over a
//!   fresh session; it retains no trace.
//! * [`Session`] — the statement-execution handle with its *own*
//!   [`ExecContext`] and trace/metric accumulation, so concurrent sessions
//!   never share per-statement state (the context's current-span slot in
//!   particular must not be shared between concurrently executing
//!   statements). Prepared statements and the result cache are used
//!   through it.
//!
//! Statement texts prepare into [`Prepared`] handles exposing the §2.4
//! canonical parse-tree cache key (`Stmt`'s `Display` rendering); the core
//! keeps an opt-in result cache keyed on that canonical form, invalidated
//! by a generation counter that every catalog write bumps.
//!
//! Every statement executes under a [`Trace`]: the executor opens a root
//! `statement` span, one child span per plan node, and the storage layer
//! nests `read_region` spans beneath the `scan` that triggered them, so
//! `explain analyze <stmt>` renders the full cross-layer tree.
//! [`Session::metrics`] is a thin view derived from those traces
//! (see [`QueryMetrics::from_traces`]); statements slower than the
//! configured threshold are retained in a [`SlowLog`] ring shared by all
//! handles to one database, retrievable via [`Database::slow_queries`].
//!
//! Chunk-separable operators (Subsample, Filter, Apply, Project, Aggregate,
//! Regrid) execute chunk-parallel up to the context's thread budget;
//! [`Database::with_threads`] (or `with_threads(1)` as the escape hatch)
//! controls it.

use crate::ast::{AExpr, Stmt};
use crate::parser;
use crate::plan;
use scidb_core::array::Array;
use scidb_core::error::{Error, Result};
use scidb_core::exec::{ExecContext, QueryMetrics};
use scidb_core::registry::Registry;
use scidb_obs::sync::{
    ranks, OrderedMutex, OrderedRwLock, OrderedRwLockReadGuard, OrderedRwLockWriteGuard,
};
use scidb_obs::{
    RenderOptions, SlowEntry, SlowLog, Span, Trace, TraceData, EVENT_RETRY, LAYER_QUERY,
};
use scidb_storage::MergeStats;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod catalog;
mod durable;
mod eval;
mod system;

use catalog::{CatalogOp, CatalogState, Writer};
use durable::Durability;
use eval::Evaluator;

pub use catalog::StoredArray;
pub use system::{is_system_array, SYSTEM_PREFIX};

/// Default slow-query threshold (see [`Database::set_slow_query_threshold`]).
pub const DEFAULT_SLOW_QUERY_THRESHOLD: Duration = Duration::from_millis(100);

/// Default slow-query ring capacity.
pub const DEFAULT_SLOW_QUERY_CAPACITY: usize = 32;

/// Result-cache entry budget; when full the cache is wholesale-evicted
/// (entries are invalidated by catalog writes far more often in practice).
pub const RESULT_CACHE_CAPACITY: usize = 64;

/// Result of executing one statement.
#[derive(Debug)]
pub enum StmtResult {
    /// DDL/DML acknowledgement.
    Done(String),
    /// A query result array.
    Array(Array),
    /// A scalar probe result (`exists`).
    Bool(bool),
    /// The rendered span tree of an `explain analyze` statement.
    Explain(String),
}

impl StmtResult {
    /// The result kind, for error messages and dispatch.
    pub fn kind(&self) -> &'static str {
        match self {
            StmtResult::Done(_) => "acknowledgement",
            StmtResult::Array(_) => "array",
            StmtResult::Bool(_) => "bool",
            StmtResult::Explain(_) => "explain",
        }
    }

    /// Borrows the array result, if this is one.
    pub fn as_array(&self) -> Option<&Array> {
        match self {
            StmtResult::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The boolean probe result, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            StmtResult::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The `explain analyze` report, if this is one.
    pub fn as_explain(&self) -> Option<&str> {
        match self {
            StmtResult::Explain(s) => Some(s),
            _ => None,
        }
    }

    /// The array result, if any.
    pub fn into_array(self) -> Result<Array> {
        match self {
            StmtResult::Array(a) => Ok(a),
            other => Err(Error::eval(format!(
                "expected array result, got {} result",
                other.kind()
            ))),
        }
    }

    /// The DDL/DML acknowledgement message, erroring on any other kind.
    pub fn expect_done(self) -> Result<String> {
        match self {
            StmtResult::Done(msg) => Ok(msg),
            other => Err(Error::eval(format!(
                "expected statement acknowledgement, got {} result",
                other.kind()
            ))),
        }
    }
}

/// Shared read access to a stored array: the catalog read guard (released
/// on drop) and the name the array was found under while it was held.
pub struct ArrayRef<'a> {
    state: OrderedRwLockReadGuard<'a, CatalogState>,
    name: String,
}

impl std::ops::Deref for ArrayRef<'_> {
    type Target = StoredArray;
    fn deref(&self) -> &StoredArray {
        // `array_guard` found the name under this same read guard.
        &self.state.arrays[&self.name]
    }
}

/// Shared read access to the function registry (the catalog read guard).
pub struct RegistryRef<'a>(OrderedRwLockReadGuard<'a, CatalogState>);

impl std::ops::Deref for RegistryRef<'_> {
    type Target = Registry;
    fn deref(&self) -> &Registry {
        &self.0.registry
    }
}

/// Exclusive access to the function registry (the catalog write guard).
pub struct RegistryRefMut<'a>(OrderedRwLockWriteGuard<'a, CatalogState>);

impl std::ops::Deref for RegistryRefMut<'_> {
    type Target = Registry;
    fn deref(&self) -> &Registry {
        &self.0.registry
    }
}

impl std::ops::DerefMut for RegistryRefMut<'_> {
    fn deref_mut(&mut self) -> &mut Registry {
        &mut self.0.registry
    }
}

/// One cached query result, valid while the catalog generation matches.
struct CachedQuery {
    generation: u64,
    array: Array,
}

/// Live, lock-free execution counters for one open [`Session`], surfaced
/// as one row of the `system.sessions` virtual array. All counters are
/// relaxed atomics: they are monitoring data, not synchronization.
#[derive(Debug)]
pub struct SessionStats {
    id: u64,
    statements: AtomicU64,
    errors: AtomicU64,
    cache_hits: AtomicU64,
    cells_scanned: AtomicU64,
    queue_wait_us: AtomicU64,
    active: AtomicU64,
    timed_out: AtomicU64,
}

impl SessionStats {
    fn new(id: u64) -> Self {
        SessionStats {
            id,
            statements: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cells_scanned: AtomicU64::new(0),
            queue_wait_us: AtomicU64::new(0),
            active: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
        }
    }

    /// The database-wide session id (1-based, allocation order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Statements executed through this handle.
    pub fn statements(&self) -> u64 {
        self.statements.load(Ordering::Relaxed)
    }

    /// Statements that returned an error.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Query statements answered from the result cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Cells produced by `scan` nodes across this handle's statements
    /// (system arrays excluded).
    pub fn cells_scanned(&self) -> u64 {
        self.cells_scanned.load(Ordering::Relaxed)
    }

    /// Cumulative admission queue wait attributed by the serving layer.
    pub fn queue_wait_us(&self) -> u64 {
        self.queue_wait_us.load(Ordering::Relaxed)
    }

    /// Statements currently executing.
    pub fn active(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    /// Admission waits that timed out, attributed by the serving layer.
    pub fn timed_out(&self) -> u64 {
        self.timed_out.load(Ordering::Relaxed)
    }

    /// Adds admission queue wait (serving layer).
    pub fn add_queue_wait(&self, micros: u64) {
        self.queue_wait_us.fetch_add(micros, Ordering::Relaxed);
    }

    /// Records an admission timeout (serving layer).
    pub fn add_timeout(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
    }
}

/// Per-statement resource profile derived from a finished trace — the
/// payload of the wire protocol's `QueryStats` trailer and the source of
/// the `scidb.query.cells_scanned` counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatementProfile {
    /// Statement wall time in microseconds (the root span's wall).
    pub exec_us: u64,
    /// Cells produced by `scan` nodes over stored arrays (`system.*`
    /// virtual arrays excluded).
    pub cells_scanned: u64,
    /// Bytes read by storage `read_region` spans.
    pub bytes_decoded: u64,
    /// Whether the statement was answered from the result cache.
    pub cache_hit: bool,
    /// Retry events observed anywhere in the trace.
    pub retries: u64,
}

impl StatementProfile {
    /// Derives the profile from a finished statement trace.
    pub fn from_trace(trace: &TraceData) -> Self {
        let mut p = StatementProfile::default();
        for s in &trace.spans {
            if s.parent.is_none() {
                p.exec_us = s.wall.as_micros() as u64;
                p.cache_hit = s
                    .attr("cache_hit")
                    .and_then(|v| v.as_bool())
                    .unwrap_or(false);
            }
            if s.name == "scan" && s.attr("system").is_none() {
                p.cells_scanned += s.attr("cells_out").and_then(|v| v.as_u64()).unwrap_or(0);
            }
            if s.name == "read_region" {
                p.bytes_decoded += s.attr("bytes_read").and_then(|v| v.as_u64()).unwrap_or(0);
            }
            p.retries += s.events.iter().filter(|e| e.name == EVENT_RETRY).count() as u64;
        }
        p
    }
}

/// The interior-synchronized database core shared by every handle.
struct DbCore {
    state: OrderedRwLock<CatalogState>,
    slow_log: OrderedRwLock<SlowLog>,
    /// The thread budget new sessions inherit, resolved once by
    /// [`DbCore::budget`] so that opening a session asks the system
    /// nothing.
    threads: AtomicUsize,
    /// Bumped by every catalog write; versions the result cache.
    generation: AtomicU64,
    result_cache: OrderedRwLock<HashMap<String, CachedQuery>>,
    /// Registered execution handles, keyed by session id — the live rows
    /// of `system.sessions`.
    sessions: OrderedRwLock<BTreeMap<u64, Arc<SessionStats>>>,
    next_session: AtomicU64,
    /// The writer mutex: held across every catalog mutation
    /// ([`DbCore::commit`]), and around the log of a durable database.
    writer: OrderedMutex<Writer>,
    /// What [`Database::open`] found; `None` for an in-memory database.
    durable: Option<Durability>,
}

impl DbCore {
    /// A core over an empty catalog, in memory (`log: None`) or about to
    /// replay `log` ([`DbCore::open`]).
    fn new(threads: usize, log: Option<durable::Log>) -> Self {
        DbCore {
            state: OrderedRwLock::new(ranks::CATALOG, CatalogState::new()),
            slow_log: OrderedRwLock::new(
                ranks::SLOW_LOG,
                SlowLog::new(DEFAULT_SLOW_QUERY_THRESHOLD, DEFAULT_SLOW_QUERY_CAPACITY),
            ),
            threads: AtomicUsize::new(DbCore::budget(threads)),
            generation: AtomicU64::new(0),
            result_cache: OrderedRwLock::new(ranks::RESULT_CACHE, HashMap::new()),
            sessions: OrderedRwLock::new(ranks::SESSION_REGISTRY, BTreeMap::new()),
            next_session: AtomicU64::new(0),
            writer: OrderedMutex::new(ranks::WAL, Writer { log }),
            durable: None,
        }
    }

    /// A configured thread budget as a count: `0` (auto) becomes the
    /// machine's available parallelism.
    fn budget(threads: usize) -> usize {
        ExecContext::with_threads(threads).threads()
    }

    /// Allocates a session id and registers its stats row.
    fn register_session(&self) -> Arc<SessionStats> {
        let id = self.next_session.fetch_add(1, Ordering::SeqCst) + 1;
        let stats = Arc::new(SessionStats::new(id));
        self.sessions.write().insert(id, Arc::clone(&stats));
        stats
    }

    /// Removes a closed session's stats row.
    fn deregister_session(&self, id: u64) {
        self.sessions.write().remove(&id);
    }

    /// Records a catalog write: versions the result cache. Called while
    /// the state write lock is held (or handed out), so readers acquiring
    /// the read lock afterwards observe the new generation.
    fn touch(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// Executes one statement under a root `statement` span, records
    /// process-wide counters, and offers the trace to the shared
    /// slow-query log. Returns the result *and* the statement trace; the
    /// calling handle retains the trace for its own metrics view.
    fn execute_stmt(
        &self,
        stmt: Stmt,
        ctx: &ExecContext,
        use_cache: bool,
        stats: &SessionStats,
    ) -> (Result<StmtResult>, TraceData) {
        let mut stmt = stmt;
        let mut explain = false;
        while let Stmt::ExplainAnalyze(inner) = stmt {
            explain = true;
            stmt = *inner;
        }
        let aql = stmt.to_string();
        let trace = Trace::new();
        let root = trace.root("statement", LAYER_QUERY);
        root.set_attr("aql", aql.as_str());
        let reg = scidb_obs::global();
        reg.counter("scidb.query.statements").inc(1);
        stats.statements.fetch_add(1, Ordering::Relaxed);
        stats.active.fetch_add(1, Ordering::Relaxed);
        let result = self.dispatch(stmt, &aql, &root, ctx, use_cache);
        if let Err(e) = &result {
            root.set_attr("error", e.to_string());
            reg.counter("scidb.query.errors").inc(1);
            stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        let wall = root.finish();
        reg.histogram("scidb.query.statement_wall_us")
            .record(wall.as_micros() as u64);
        let data = trace.finish();
        let profile = StatementProfile::from_trace(&data);
        reg.counter("scidb.query.cells_scanned")
            .inc(profile.cells_scanned);
        stats
            .cells_scanned
            .fetch_add(profile.cells_scanned, Ordering::Relaxed);
        if profile.cache_hit {
            stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        stats.active.fetch_sub(1, Ordering::Relaxed);
        self.slow_log.write().observe(&aql, stats.id, wall, &data);
        let result = if explain {
            // `explain analyze` returns the rendered span tree — wall
            // times and kernel events included — instead of the result.
            result.map(|_| {
                StmtResult::Explain(data.render_tree(&RenderOptions {
                    times: true,
                    events: true,
                }))
            })
        } else {
            result
        };
        (result, data)
    }

    /// Statement dispatch, inside the root span: reads take the state
    /// read lock, writes the write lock.
    fn dispatch(
        &self,
        stmt: Stmt,
        aql: &str,
        root: &Span,
        ctx: &ExecContext,
        use_cache: bool,
    ) -> Result<StmtResult> {
        match stmt {
            Stmt::Query(expr) => {
                // `system.*` scans read live telemetry the generation
                // counter does not version, so they never enter the result
                // cache (the canonical rendering names every scanned array).
                let cacheable = use_cache && !aql.contains("scan(system.");
                let key = if cacheable { Some(aql) } else { None };
                Ok(StmtResult::Array(self.execute_query(expr, root, ctx, key)?))
            }
            Stmt::Exists { array, coords } => {
                let state = self.state.read();
                let found = match state.stored(&array)? {
                    StoredArray::OnDisk(mgr) => {
                        let span = root.child("exists", LAYER_QUERY);
                        span.set_attr("array", array.as_str());
                        let res = eval::exists_on_disk(mgr, &coords, &span);
                        match &res {
                            Ok(b) => span.set_attr("found", *b),
                            Err(e) => span.set_attr("error", e.to_string()),
                        }
                        span.finish();
                        res?
                    }
                    other => other.as_array().is_some_and(|a| a.exists(&coords)),
                };
                Ok(StmtResult::Bool(found))
            }
            stmt => self.commit(CatalogOp::Stmt {
                stmt,
                aql,
                root,
                ctx,
            }),
        }
    }

    /// Evaluates a query expression under the state read lock, consulting
    /// the result cache first when a key is supplied. A hit is recorded on
    /// the root span (`cache_hit`) and skips evaluation entirely.
    fn execute_query(
        &self,
        expr: AExpr,
        root: &Span,
        ctx: &ExecContext,
        cache_key: Option<&str>,
    ) -> Result<Array> {
        if let Some(key) = cache_key {
            let generation = self.generation.load(Ordering::SeqCst);
            if let Some(hit) = self.result_cache.read().get(key) {
                if hit.generation == generation {
                    root.set_attr("cache_hit", true);
                    scidb_obs::global().counter("scidb.query.cache_hits").inc(1);
                    return Ok(hit.array.clone());
                }
            }
        }
        let state = self.state.read();
        // Stable while the read lock is held: writers bump under the
        // write lock, so this generation exactly versions the snapshot
        // the evaluation is about to read.
        let generation = self.generation.load(Ordering::SeqCst);
        let ev = Evaluator {
            state: &state,
            ctx,
            core: self,
        };
        let out = ev.eval_node(root, plan::optimize(expr))?;
        drop(state);
        if let Some(key) = cache_key {
            let mut cache = self.result_cache.write();
            if cache.len() >= RESULT_CACHE_CAPACITY && !cache.contains_key(key) {
                cache.clear();
            }
            cache.insert(
                key.to_string(),
                CachedQuery {
                    generation,
                    array: out.clone(),
                },
            );
        }
        Ok(out)
    }

    // ---- catalog helpers ------------------------------------------------

    fn array_names(&self) -> Vec<String> {
        let state = self.state.read();
        let mut v: Vec<String> = state.arrays.keys().cloned().collect();
        v.sort_unstable();
        v
    }

    fn array_guard(&self, name: &str) -> Result<ArrayRef<'_>> {
        let state = self.state.read();
        state.stored(name)?;
        Ok(ArrayRef {
            state,
            name: name.to_string(),
        })
    }
}

/// A prepared statement: the parsed tree plus the canonical parse-tree
/// cache key (§2.4) it renders to. Prepare once, execute many times —
/// re-execution skips the parser, and (when the result cache is enabled)
/// query results are reused across *any* statement with the same key
/// until a catalog write invalidates them.
#[derive(Debug, Clone)]
pub struct Prepared {
    stmt: Stmt,
    key: String,
}

impl Prepared {
    fn from_stmt(stmt: Stmt) -> Self {
        Prepared {
            key: stmt.to_string(),
            stmt,
        }
    }

    /// The canonical cache key: the parse tree rendered back to canonical
    /// AQL, so differently spelled but structurally identical statements
    /// share one key.
    pub fn cache_key(&self) -> &str {
        &self.key
    }

    /// The parsed statement.
    pub fn stmt(&self) -> &Stmt {
        &self.stmt
    }
}

/// The catalog handle: construction, catalog access, and the [`Session`]s
/// that execute statements. Clones share one core — catalog, registry,
/// result cache, and slow-query log — and the handle is `Send + Sync`, so
/// a serving layer hands a clone to each thread. A `Database` retains no
/// trace: [`run`](Self::run) and [`query`](Self::query) execute through a
/// fresh [`Session`] that is dropped with its traces; open a session with
/// [`session`](Self::session) to read traces or metrics, to prepare
/// statements, or to use the result cache.
///
/// Every method that executes a statement or takes the catalog write lock
/// takes `&mut self`, so the borrow checker rejects one called while the
/// same handle still holds an [`array`](Self::array) or
/// [`registry`](Self::registry) guard.
#[derive(Clone)]
pub struct Database {
    core: Arc<DbCore>,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    /// Creates a database with the built-in function library and a
    /// machine-sized thread budget.
    pub fn new() -> Self {
        Database::with_threads(0)
    }

    /// Creates a database with an explicit thread budget (`1` forces serial
    /// execution, `0` auto-sizes to the machine).
    pub fn with_threads(threads: usize) -> Self {
        Database {
            core: Arc::new(DbCore::new(threads, None)),
        }
    }

    /// Opens (creating if needed) a *durable* database persisted under
    /// `path`: every catalog write commits through a write-ahead log
    /// (`wal.log`) and disk-backed buckets live in a buffer-pooled page
    /// file (`pages.db`). Committed operations found in the log are
    /// replayed — with byte verification of every bucket image — before
    /// the handle is returned; a torn log tail is truncated away
    /// (ARIES-lite redo, see DESIGN.md §15).
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Database::open_with_threads(path, 0)
    }

    /// [`Database::open`] with an explicit thread budget.
    pub fn open_with_threads(path: impl AsRef<Path>, threads: usize) -> Result<Self> {
        Ok(Database {
            core: Arc::new(DbCore::open(path.as_ref(), threads)?),
        })
    }

    /// True if this database persists through a WAL ([`Database::open`]).
    pub fn is_durable(&self) -> bool {
        self.core.durable.is_some()
    }

    /// The directory a durable database persists under.
    pub fn storage_dir(&self) -> Option<&Path> {
        self.core.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// Runs one super-tile merge pass (factor × the chunk stride) over a
    /// disk-backed array, compacting small buckets (§2.8). On a durable
    /// database the pass commits as a WAL group and is re-run (and
    /// byte-verified) on recovery.
    pub fn merge_on_disk(&mut self, name: &str, factor: i64) -> Result<MergeStats> {
        let mut stats = MergeStats::default();
        self.core.commit(CatalogOp::Merge {
            name,
            factor,
            stats: &mut stats,
        })?;
        Ok(stats)
    }

    /// Another handle to the same core (a clone).
    pub fn share(&self) -> Database {
        self.clone()
    }

    /// Opens a [`Session`] over the same core: its own execution context,
    /// inheriting the configured thread budget, and its own traces.
    pub fn session(&self) -> Session {
        Session::over(Arc::clone(&self.core))
    }

    /// Replaces the thread budget that sessions opened later inherit;
    /// open sessions keep theirs.
    pub fn set_threads(&mut self, threads: usize) {
        self.core
            .threads
            .store(DbCore::budget(threads), Ordering::SeqCst);
    }

    /// Execution sessions currently open on this database.
    pub fn session_count(&self) -> usize {
        self.core.sessions.read().len()
    }

    /// Retained slow-query entries, oldest first (the log every handle to
    /// this database shares).
    pub fn slow_queries(&self) -> Vec<SlowEntry> {
        self.core.slow_log.read().entries().to_vec()
    }

    /// Statements with wall time at or above `threshold` are retained in
    /// the slow-query log.
    pub fn set_slow_query_threshold(&self, threshold: Duration) {
        self.core.slow_log.write().set_threshold(threshold);
    }

    /// The function registry (register UDFs, aggregates, enhancements,
    /// shapes here — §2.3).
    pub fn registry(&self) -> RegistryRef<'_> {
        RegistryRef(self.core.state.read())
    }

    /// Mutable registry access.
    pub fn registry_mut(&mut self) -> RegistryRefMut<'_> {
        self.core.touch();
        RegistryRefMut(self.core.state.write())
    }

    /// Looks up a stored array under the catalog read lock, held until the
    /// guard drops. Executing through the same handle needs the guard
    /// released first:
    ///
    /// ```
    /// let mut db = scidb_query::Database::new();
    /// db.run("define H (v = int) (X = 1:4); create A as H [4];").unwrap();
    /// let guard = db.array("A").unwrap();
    /// drop(guard);
    /// db.run("insert into A[1] values (1)").unwrap();
    /// ```
    ///
    /// and the borrow checker rejects the statement while it is held:
    ///
    /// ```compile_fail,E0502
    /// let mut db = scidb_query::Database::new();
    /// db.run("define H (v = int) (X = 1:4); create A as H [4];").unwrap();
    /// let guard = db.array("A").unwrap();
    /// db.run("insert into A[1] values (1)").unwrap();
    /// drop(guard);
    /// ```
    pub fn array(&self, name: &str) -> Result<ArrayRef<'_>> {
        self.core.array_guard(name)
    }

    /// Registers an existing array under a name (the bulk-load path).
    pub fn put_array(&mut self, name: &str, array: Array) -> Result<()> {
        self.core
            .commit(CatalogOp::PutArray { name, array })
            .map(drop)
    }

    /// Registers an array as a disk-backed instance: its chunks are
    /// compressed into storage-manager buckets (adaptive codecs; on a fresh
    /// in-memory disk, or the paged disk of a durable database) and
    /// subsequent scans stream through
    /// [`scidb_storage::StorageManager::read_region_traced`], nesting
    /// storage spans under the query's trace. All dimensions must be
    /// bounded.
    pub fn put_array_on_disk(&mut self, name: &str, array: &Array) -> Result<()> {
        self.core
            .commit(CatalogOp::PutArrayOnDisk { name, array })
            .map(drop)
    }

    /// Array names in the catalog (sorted).
    pub fn array_names(&self) -> Vec<String> {
        self.core.array_names()
    }

    /// An owned clone of a stored array's in-memory view (plain arrays
    /// as-is, updatable arrays including the history dimension);
    /// disk-backed arrays have no resident view and must be scanned.
    pub fn snapshot(&self, name: &str) -> Result<Array> {
        let guard = self.core.array_guard(name)?;
        guard
            .as_array()
            .cloned()
            .ok_or_else(|| Error::Unsupported(format!("snapshot of disk-backed array '{name}'")))
    }

    /// Parses, plans, and executes a script through a fresh [`Session`];
    /// returns one result per statement.
    pub fn run(&mut self, text: &str) -> Result<Vec<StmtResult>> {
        self.session().run(text)
    }

    /// Runs a single-statement query expecting an array result, through a
    /// fresh [`Session`].
    pub fn query(&mut self, text: &str) -> Result<Array> {
        self.session().query(text)
    }
}

/// The statement-execution handle over a database core, and the only one
/// that keeps traces, metrics, prepared statements, and the result-cache
/// switch. A session accumulates traces (and therefore metrics) across all
/// statements it executes; drain them with
/// [`take_metrics`](Self::take_metrics). Each session owns its execution
/// context, so sessions on one database execute concurrently without
/// sharing per-statement state.
pub struct Session {
    core: Arc<DbCore>,
    ctx: ExecContext,
    traces: Vec<TraceData>,
    use_cache: bool,
    stats: Arc<SessionStats>,
}

impl Drop for Session {
    fn drop(&mut self) {
        self.core.deregister_session(self.stats.id());
    }
}

impl Session {
    fn over(core: Arc<DbCore>) -> Self {
        let threads = core.threads.load(Ordering::SeqCst);
        let stats = core.register_session();
        Session {
            core,
            ctx: ExecContext::with_threads(threads),
            traces: Vec::new(),
            use_cache: false,
            stats,
        }
    }

    /// The session's execution context (thread budget).
    pub fn ctx(&self) -> &ExecContext {
        &self.ctx
    }

    /// The database-wide session id (also the `sid` of this session's
    /// `system.sessions` row).
    pub fn id(&self) -> u64 {
        self.stats.id()
    }

    /// This session's live execution counters; the serving layer adds
    /// admission queue-wait and timeout attribution through this handle.
    pub fn session_stats(&self) -> Arc<SessionStats> {
        Arc::clone(&self.stats)
    }

    /// Enables or disables the shared canonical-key result cache for
    /// query statements executed through this session.
    pub fn set_result_cache(&mut self, enabled: bool) {
        self.use_cache = enabled;
    }

    /// Parses, plans, and executes a script without resetting traces.
    pub fn run(&mut self, text: &str) -> Result<Vec<StmtResult>> {
        let stmts = parser::parse(text)?;
        stmts.into_iter().map(|s| self.execute(s)).collect()
    }

    /// Runs a single-statement query expecting an array result, without
    /// resetting traces.
    pub fn query(&mut self, text: &str) -> Result<Array> {
        let stmt = parser::parse_one(text)?;
        self.execute(stmt)?.into_array()
    }

    /// Executes one parsed statement.
    pub fn execute(&mut self, stmt: Stmt) -> Result<StmtResult> {
        let (result, trace) = self
            .core
            .execute_stmt(stmt, &self.ctx, self.use_cache, &self.stats);
        self.traces.push(trace);
        result
    }

    /// Parses a single statement into a reusable [`Prepared`] handle.
    pub fn prepare(&self, text: &str) -> Result<Prepared> {
        Ok(Prepared::from_stmt(parser::parse_one(text)?))
    }

    /// Executes a prepared statement, skipping the parser.
    pub fn execute_prepared(&mut self, prepared: &Prepared) -> Result<StmtResult> {
        self.execute(prepared.stmt.clone())
    }

    /// Traces of the statements executed by this session so far.
    pub fn traces(&self) -> &[TraceData] {
        &self.traces
    }

    /// The trace of the session's most recently executed statement.
    pub fn last_trace(&self) -> Option<&TraceData> {
        self.traces.last()
    }

    /// Snapshot of the metrics accumulated so far in this session, derived
    /// from its retained traces.
    pub fn metrics(&self) -> QueryMetrics {
        QueryMetrics::from_traces(self.traces.iter())
    }

    /// Drains the session's retained traces, returning the metrics view.
    pub fn take_metrics(&mut self) -> QueryMetrics {
        let m = self.metrics();
        self.traces.clear();
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scidb_core::geometry::HyperRect;
    use scidb_core::value::{ScalarType, Value};
    use scidb_storage::{CodecPolicy, ReadOptions};

    fn db_with_h() -> Database {
        let mut db = Database::new();
        db.run(
            "define H (v = int) (X = 1:2, Y = 1:2);
             create A as H [2, 2];
             insert into A[1, 1] values (1);
             insert into A[2, 1] values (3);
             insert into A[1, 2] values (2);
             insert into A[2, 2] values (5);",
        )
        .unwrap();
        db
    }

    /// A serial database with a 4×4 array stored both in memory (`Tmp`)
    /// and on disk (`D`).
    fn disk_db() -> Database {
        let mut db = Database::with_threads(1);
        db.run("define H (v = int) (X = 1:4, Y = 1:4); create Tmp as H [4, 4];")
            .unwrap();
        for x in 1..=4 {
            for y in 1..=4 {
                db.run(&format!(
                    "insert into Tmp[{x}, {y}] values ({})",
                    x * 10 + y
                ))
                .unwrap();
            }
        }
        let arr = match &*db.array("Tmp").unwrap() {
            StoredArray::Plain(a) => a.clone(),
            other => panic!("expected plain, got {other:?}"),
        };
        db.put_array_on_disk("D", &arr).unwrap();
        db
    }

    #[test]
    fn define_create_insert_scan() {
        let mut db = db_with_h();
        let a = db.query("scan(A)").unwrap();
        assert_eq!(a.cell_count(), 4);
        assert_eq!(a.get_cell(&[2, 2]), Some(vec![Value::from(5i64)]));
    }

    #[test]
    fn figure2_through_aql() {
        let mut db = db_with_h();
        let out = db.query("Aggregate(A, {Y}, Sum(*))").unwrap();
        assert_eq!(out.get_cell(&[1]), Some(vec![Value::from(4i64)]));
        assert_eq!(out.get_cell(&[2]), Some(vec![Value::from(7i64)]));
    }

    #[test]
    fn subsample_with_even_and_legality() {
        let mut db = db_with_h();
        let out = db.query("Subsample(A, even(X))").unwrap();
        assert_eq!(out.cell_count(), 2);
        // The paper's illegal predicate errors with a helpful message.
        let err = db.query("Subsample(A, X = Y)").unwrap_err();
        assert!(err.to_string().contains("not legal"), "{err}");
    }

    /// The guards `array`, `registry` and `registry_mut` hand out keep the
    /// catalog lock (and its witness entry) until they drop.
    #[test]
    fn catalog_guards_hold_the_catalog_until_dropped() {
        use scidb_obs::sync::witness;
        let mut db = db_with_h();
        let a = db.array("A").unwrap();
        assert!(matches!(&*a, StoredArray::Plain(arr) if arr.cell_count() == 4));
        assert_eq!(witness::held(), vec!["CATALOG"]);
        drop(a);
        assert!(witness::held().is_empty());
        assert!(db.array("nope").is_err());
        assert!(
            witness::held().is_empty(),
            "a declined lookup holds nothing"
        );

        assert!(db.registry().scalar_fn("guard_probe").is_err());
        let mut reg = db.registry_mut();
        assert_eq!(witness::held(), vec!["CATALOG"]);
        let probe = scidb_core::udf::ClosureFn::new("guard_probe", Some(1), |a| Ok(a[0].clone()));
        reg.register_scalar_fn(Arc::new(probe)).unwrap();
        drop(reg);
        assert!(witness::held().is_empty());
        assert!(db.registry().scalar_fn("guard_probe").is_ok());
    }

    #[test]
    fn filter_apply_project_pipeline() {
        let mut db = db_with_h();
        let out = db
            .query("project(apply(filter(A, v > 2), dbl, v * 2), dbl)")
            .unwrap();
        assert_eq!(out.schema().attrs().len(), 1);
        assert_eq!(out.get_cell(&[2, 2]), Some(vec![Value::from(10i64)]));
        // Filtered-out cells are NULL.
        assert_eq!(out.get_cell(&[1, 1]), Some(vec![Value::Null]));
    }

    #[test]
    fn joins_through_aql() {
        let mut db = Database::new();
        db.run(
            "define T (val = int) (i = 1:2);
             create A as T [2]; create B as T [2];
             insert into A[1] values (1); insert into A[2] values (2);
             insert into B[1] values (1); insert into B[2] values (2);",
        )
        .unwrap();
        let s = db.query("sjoin(A, B, A.i = B.i)").unwrap();
        assert_eq!(s.rank(), 1);
        assert_eq!(s.cell_count(), 2);
        let c = db.query("cjoin(A, B, A.val = B.val_r)").unwrap();
        assert_eq!(c.rank(), 2);
        assert_eq!(
            c.get_cell(&[1, 1]),
            Some(vec![Value::from(1i64), Value::from(1i64)])
        );
        assert_eq!(c.get_cell(&[1, 2]), Some(vec![Value::Null, Value::Null]));
    }

    #[test]
    fn store_and_drop() {
        let mut db = db_with_h();
        db.run("store filter(A, v > 2) into Big").unwrap();
        let big = db.query("scan(Big)").unwrap();
        assert_eq!(big.schema().name(), "Big");
        assert_eq!(big.cell_count(), 4);
        db.run("drop array Big").unwrap();
        assert!(db.query("scan(Big)").is_err());
        assert!(db.run("drop array Big").is_err());
    }

    #[test]
    fn updatable_array_no_overwrite_via_aql() {
        let mut db = Database::new();
        db.run(
            "define updatable R (v = float) (I = 1:4, J = 1:4);
             create M as R [4, 4];
             insert into M[2, 2] values (1.0);
             insert into M[2, 2] values (9.0);",
        )
        .unwrap();
        match &*db.array("M").unwrap() {
            StoredArray::Updatable(u) => {
                assert_eq!(u.current_history(), 2);
                assert_eq!(u.get_at(&[2, 2], 1), Some(vec![Value::from(1.0)]));
                assert_eq!(u.get_latest(&[2, 2]), Some(vec![Value::from(9.0)]));
            }
            other => panic!("expected updatable, got {other:?}"),
        }
        // Scan exposes the history dimension.
        let scan = db.query("scan(M)").unwrap();
        assert_eq!(scan.rank(), 3);
        assert_eq!(scan.cell_count(), 2);
    }

    #[test]
    fn exists_probe() {
        let mut db = db_with_h();
        let r = db.run("exists(A, 2, 2); exists(A, 9, 9)").unwrap();
        assert!(matches!(r[0], StmtResult::Bool(true)));
        assert!(matches!(r[1], StmtResult::Bool(false)));
    }

    #[test]
    fn regrid_and_reshape_via_aql() {
        let mut db = db_with_h();
        let rg = db.query("regrid(A, [2, 2], sum)").unwrap();
        assert_eq!(rg.cell_count(), 1);
        assert_eq!(rg.get_cell(&[1, 1]), Some(vec![Value::from(11i64)]));
        let rs = db.query("reshape(A, [X, Y], [k = 1:4])").unwrap();
        assert_eq!(rs.rank(), 1);
        assert_eq!(rs.cell_count(), 4);
    }

    #[test]
    fn unknown_names_error() {
        let mut db = Database::new();
        assert!(db.query("scan(nope)").is_err());
        assert!(db.run("create X as NoType [2]").is_err());
        assert!(db.run("define T (v = blob) (X = 1:2)").is_err());
    }

    #[test]
    fn duplicate_definitions_rejected() {
        let mut db = db_with_h();
        assert!(db.run("define H (v = int) (X = 1:2)").is_err());
        assert!(db.run("create A as H [2, 2]").is_err());
    }

    #[test]
    fn stmt_result_typed_accessors() {
        let mut db = db_with_h();
        let r = db.run("scan(A)").unwrap().pop().unwrap();
        assert_eq!(r.kind(), "array");
        assert!(r.as_bool().is_none());
        assert!(r.as_explain().is_none());
        assert_eq!(r.as_array().unwrap().cell_count(), 4);
        assert!(r.expect_done().is_err());

        let r = db.run("exists(A, 1, 1)").unwrap().pop().unwrap();
        assert_eq!(r.as_bool(), Some(true));
        assert!(r.as_array().is_none());
        assert!(r.into_array().is_err());

        let r = db.run("drop array A").unwrap().pop().unwrap();
        assert_eq!(r.kind(), "acknowledgement");
        assert!(r.expect_done().unwrap().contains("dropped"));
    }

    #[test]
    fn into_array_error_names_result_kind() {
        let mut db = db_with_h();
        let err = db
            .run("exists(A, 1, 1)")
            .unwrap()
            .pop()
            .unwrap()
            .into_array()
            .unwrap_err();
        assert!(err.to_string().contains("bool result"), "{err}");
    }

    #[test]
    fn query_metrics_report_per_operator() {
        let mut s = db_with_h().session();
        s.query("aggregate(filter(A, v > 1), {Y}, sum(*))").unwrap();
        let m = s.metrics();
        let ops: Vec<&str> = m.ops.iter().map(|o| o.op.as_str()).collect();
        assert_eq!(ops, ["filter", "aggregate"]);
        assert!(m.ops[0].cells_touched == 4);
        assert!(m.chunks_scanned() >= 2);
    }

    #[test]
    fn parallel_database_matches_serial() {
        let script = "define H (v = int) (X = 1:8, Y = 1:8);
             create A as H [8, 8];";
        let mut serial = Database::with_threads(1);
        let mut parallel = Database::with_threads(4);
        serial.run(script).unwrap();
        parallel.run(script).unwrap();
        for x in 1..=8 {
            for y in 1..=8 {
                let ins = format!("insert into A[{x}, {y}] values ({})", x * 10 + y);
                serial.run(&ins).unwrap();
                parallel.run(&ins).unwrap();
            }
        }
        for q in [
            "filter(A, v > 30)",
            "subsample(A, even(X))",
            "project(apply(A, w, v * 2), w)",
            "aggregate(A, {X}, avg(v))",
            "regrid(A, [2, 2], sum)",
        ] {
            let a = serial.query(q).unwrap();
            let b = parallel.query(q).unwrap();
            assert_eq!(a, b, "{q} must be identical at any thread count");
        }
    }

    #[test]
    fn session_accumulates_metrics_across_statements() {
        let db = db_with_h();
        let mut session = db.session();
        assert!(session.ctx().threads() >= 1);
        session.query("filter(A, v > 1)").unwrap();
        session.query("aggregate(A, {Y}, sum(*))").unwrap();
        let m = session.metrics();
        let ops: Vec<&str> = m.ops.iter().map(|o| o.op.as_str()).collect();
        assert_eq!(ops, ["filter", "aggregate"]);
        // Draining empties the sink; subsequent statements start fresh.
        assert_eq!(session.take_metrics().ops.len(), 2);
        assert!(session.metrics().ops.is_empty());
        let r = session.run("exists(A, 1, 1)").unwrap().pop().unwrap();
        assert_eq!(r.as_bool(), Some(true));
    }

    #[test]
    fn user_defined_type_in_define() {
        let mut db = Database::new();
        db.registry_mut()
            .register_type(scidb_core::udf::TypeDef::new(
                "declination",
                ScalarType::Float64,
            ))
            .unwrap();
        db.run("define S (dec = declination) (i = 1:4); create D as S [4]")
            .unwrap();
        db.run("insert into D[1] values (45.0)").unwrap();
        let out = db.query("scan(D)").unwrap();
        assert_eq!(out.get_f64(0, &[1]), Some(45.0));
    }

    #[test]
    fn on_disk_scan_matches_memory() {
        let mut db = disk_db();
        let mem = db.query("scan(Tmp)").unwrap();
        let disk = db.query("scan(D)").unwrap();
        assert_eq!(mem.cell_count(), disk.cell_count());
        for x in 1..=4 {
            for y in 1..=4 {
                assert_eq!(mem.get_cell(&[x, y]), disk.get_cell(&[x, y]));
            }
        }
        // Probes hit the storage layer; out-of-domain coords are absent.
        let r = db.run("exists(D, 2, 2); exists(D, 9, 9)").unwrap();
        assert!(matches!(r[0], StmtResult::Bool(true)));
        assert!(matches!(r[1], StmtResult::Bool(false)));
    }

    #[test]
    fn on_disk_arrays_reject_mutation_and_duplicates() {
        let mut db = disk_db();
        assert!(db.run("insert into D[1, 1] values (0)").is_err());
        let arr = match &*db.array("Tmp").unwrap() {
            StoredArray::Plain(a) => a.clone(),
            other => panic!("expected plain, got {other:?}"),
        };
        assert!(db.put_array_on_disk("D", &arr).is_err());
        // Unbounded dimensions cannot be fully scanned, so they are
        // rejected at registration time.
        let mut unbounded = Database::new();
        unbounded
            .run("define U (v = int) (X = 1:4, Y); create Ub as U [4, *]")
            .unwrap();
        let arr = match &*unbounded.array("Ub").unwrap() {
            StoredArray::Plain(a) => a.clone(),
            other => panic!("expected plain, got {other:?}"),
        };
        assert!(unbounded.put_array_on_disk("UbDisk", &arr).is_err());
    }

    #[test]
    fn explain_analyze_renders_cross_layer_span_tree() {
        let db = disk_db();
        let mut s = db.session();
        let report = s
            .run("explain analyze aggregate(filter(scan(D), v > 20), {Y}, sum(*))")
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(report.kind(), "explain");
        let text = report.as_explain().unwrap().to_string();
        // The user-facing report spans all three layers and carries wall
        // times and kernel events.
        for needle in [
            "statement [query]",
            "aggregate [query]",
            "filter [query]",
            "scan [query]",
            "read_region [storage]",
            "wall=",
            "· kernel",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }

        // Golden rendering: with times suppressed the tree is byte-stable.
        // bytes_read comes from an independent read of the same region. The
        // filter's one dense chunk takes the columnar path.
        let bytes_read = match &*db.array("D").unwrap() {
            StoredArray::OnDisk(mgr) => {
                let region = HyperRect::new(vec![1, 1], vec![4, 4]).unwrap();
                let (_, stats) = mgr.read_region(&region, ReadOptions::serial()).unwrap();
                stats.bytes_read
            }
            other => panic!("expected on-disk, got {other:?}"),
        };
        let expected = format!(
            "statement [query] aql=\"aggregate(filter(scan(D), (v > 20)), {{Y}}, sum(*))\"\n\
             └─ aggregate [query] chunks_out=1 cells_out=4\n   \
             └─ filter [query] batch_chunks=1 fallback_chunks=0 chunks_out=1 cells_out=16\n      \
             └─ scan [query] array=\"D\" chunks_out=1 cells_out=16\n         \
             └─ read_region [storage] buckets=1 bytes_read={bytes_read} \
             cells_decoded=16 cells_returned=16 parallel=false\n"
        );
        let got = s.last_trace().unwrap().render_tree(&RenderOptions {
            times: false,
            events: false,
        });
        assert_eq!(got, expected);

        // Per-layer self-time attribution covers query, core (kernel
        // events), and storage.
        let layers: Vec<&str> = s
            .last_trace()
            .unwrap()
            .layer_totals()
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        for layer in ["query", "core", "storage"] {
            assert!(
                layers.contains(&layer),
                "missing layer {layer} in {layers:?}"
            );
        }

        // The join node says which sjoin path ran: co-aligned inputs join
        // by position, crossed dimensions by hash.
        for (on, path) in [("X = X and Y = Y", "aligned"), ("X = Y and Y = X", "hash")] {
            let report = s
                .run(&format!("explain analyze sjoin(D, Tmp, {on})"))
                .unwrap()
                .pop()
                .unwrap();
            let text = report.as_explain().unwrap().to_string();
            let needle = format!("sjoin [query] path=\"{path}\"");
            assert!(text.contains(&needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn explain_analyze_renders_a_pushed_scan() {
        // A 4×4 array in 2×2 chunks: the box [2..3, 1..2] meets two of the
        // four buckets and keeps half of each.
        let schema = scidb_core::schema::SchemaBuilder::new("Q")
            .attr("v", ScalarType::Int64)
            .dim_chunked("X", 4, 2)
            .dim_chunked("Y", 4, 2)
            .build()
            .unwrap();
        let mut arr = Array::new(schema);
        arr.fill_with(|c| vec![Value::from(c[0] * 10 + c[1])])
            .unwrap();
        let mut db = Database::with_threads(1);
        db.put_array_on_disk("Q", &arr).unwrap();
        let mut s = db.session();
        s.run("explain analyze aggregate(subsample(scan(Q), X >= 2 and X <= 3 and Y <= 2), {}, sum(v))")
            .unwrap();
        let bytes_read = match &*db.array("Q").unwrap() {
            StoredArray::OnDisk(mgr) => {
                let region = HyperRect::new(vec![2, 1], vec![3, 2]).unwrap();
                let (_, stats) = mgr.read_region(&region, ReadOptions::serial()).unwrap();
                stats.bytes_read
            }
            other => panic!("expected on-disk, got {other:?}"),
        };
        let expected = format!(
            "statement [query] aql=\"aggregate(subsample(scan(Q), (((X >= 2) and (X <= 3)) and (Y <= 2))), {{}}, sum(v))\"\n\
             └─ aggregate [query] chunks_out=1 cells_out=1\n   \
             └─ subsample [query] batch_chunks=2 fallback_chunks=0 chunks_out=2 cells_out=4\n      \
             └─ scan [query] array=\"Q\" region=\"[2..3, 1..2]\" pushed=true chunks_out=2 cells_out=4\n         \
             └─ read_region [storage] buckets=2 bytes_read={bytes_read} \
             cells_decoded=8 cells_returned=4 parallel=false\n"
        );
        let got = s.last_trace().unwrap().render_tree(&RenderOptions {
            times: false,
            events: false,
        });
        assert_eq!(got, expected);
    }

    #[test]
    fn explain_analyze_unwraps_nesting_and_propagates_errors() {
        let mut s = db_with_h().session();
        let r = s
            .run("explain analyze explain analyze scan(A)")
            .unwrap()
            .pop()
            .unwrap();
        assert!(r.as_explain().unwrap().contains("scan [query]"));
        // Errors in the traced statement surface as errors, and the failed
        // trace is still retained with an error attribute.
        assert!(s.run("explain analyze scan(nope)").is_err());
        let root = &s.last_trace().unwrap().spans[0];
        assert!(root.attr("error").is_some());
    }

    #[test]
    fn slow_query_log_threshold_and_capture() {
        let mut db = db_with_h();
        assert!(db.slow_queries().is_empty());
        db.set_slow_query_threshold(Duration::ZERO);
        db.query("filter(A, v > 1)").unwrap();
        assert_eq!(db.slow_queries().len(), 1);
        let entries = db.slow_queries();
        let e = &entries[0];
        assert_eq!(e.label, "filter(scan(A), (v > 1))");
        assert!(e.trace.spans.iter().any(|s| s.name == "filter"));
        // Raising the threshold stops retention; retained entries stay.
        db.set_slow_query_threshold(Duration::from_secs(3600));
        db.query("scan(A)").unwrap();
        assert_eq!(db.slow_queries().len(), 1);
    }

    #[test]
    fn traces_capture_statement_spans_in_order() {
        let mut s = db_with_h().session();
        s.run("scan(A); exists(A, 1, 1)").unwrap();
        s.run("scan(A)").unwrap();
        let aql: Vec<&str> = s
            .traces()
            .iter()
            .filter_map(|t| t.spans[0].attr("aql").and_then(|v| v.as_str()))
            .collect();
        assert_eq!(aql, ["scan(A)", "exists(A, 1, 1)", "scan(A)"]);
    }

    #[test]
    fn set_threads_preserves_slow_log_and_is_inherited_by_later_sessions() {
        let mut db = db_with_h();
        db.set_slow_query_threshold(Duration::ZERO);
        db.query("filter(A, v > 1)").unwrap();
        db.set_threads(1);
        let open = db.session();
        db.set_threads(3);
        assert_eq!(db.slow_queries().len(), 1);
        // Sessions opened later, through any clone, inherit the new
        // budget; open ones keep theirs.
        assert_eq!(db.session().ctx().threads(), 3);
        assert_eq!(db.clone().session().ctx().threads(), 3);
        assert_eq!(open.ctx().threads(), 1);
    }

    #[test]
    fn clones_share_one_catalog() {
        let mut a = db_with_h();
        let mut b = a.clone();
        b.put_array("P", a.snapshot("A").unwrap()).unwrap();
        b.run("create B as H [4, 4]").unwrap();
        assert_eq!(a.array_names(), vec!["A", "B", "P"]);
        a.run("drop array B").unwrap();
        assert_eq!(b.array_names(), vec!["A", "P"]);
        assert_eq!(b.query("scan(P)").unwrap(), a.query("scan(A)").unwrap());
    }

    #[test]
    fn run_and_query_open_no_lasting_session() {
        let mut db = db_with_h();
        let _s = db.session();
        assert_eq!(db.session_count(), 1);
        db.run("insert into A[1, 1] values (5); scan(A)").unwrap();
        db.query("scan(A)").unwrap();
        assert!(db.run("scan(nope)").is_err());
        assert_eq!(db.session_count(), 1);
    }

    #[test]
    fn prepared_statements_expose_canonical_key_and_reexecute() {
        let mut s = db_with_h().session();
        // Differently spelled, structurally identical statements share
        // one canonical key.
        let p1 = s.prepare("Filter(A, v > 1)").unwrap();
        let p2 = s.prepare("filter(  A ,   v>1 )").unwrap();
        assert_eq!(p1.cache_key(), "filter(scan(A), (v > 1))");
        assert_eq!(p1.cache_key(), p2.cache_key());
        assert!(matches!(p1.stmt(), Stmt::Query(_)));
        let a = s.execute_prepared(&p1).unwrap().into_array().unwrap();
        let b = s.execute_prepared(&p2).unwrap().into_array().unwrap();
        assert_eq!(a, b);
        // Prepared handles survive catalog changes and re-execute
        // against the current data.
        s.run("insert into A[1, 1] values (7)").unwrap();
        let c = s.execute_prepared(&p1).unwrap().into_array().unwrap();
        assert_eq!(c.get_cell(&[1, 1]), Some(vec![Value::from(7i64)]));
    }

    #[test]
    fn result_cache_hits_and_invalidates_on_writes() {
        let mut s = db_with_h().session();
        s.set_result_cache(true);
        let p = s.prepare("filter(A, v > 1)").unwrap();
        let first = s.execute_prepared(&p).unwrap().into_array().unwrap();
        assert!(s.last_trace().unwrap().spans[0].attr("cache_hit").is_none());
        let second = s.execute_prepared(&p).unwrap().into_array().unwrap();
        assert_eq!(first, second);
        assert!(
            s.last_trace().unwrap().spans[0].attr("cache_hit").is_some(),
            "second execution must be served from the result cache"
        );
        // Any catalog write invalidates: the next execution re-evaluates
        // and sees the new data.
        s.execute(parser::parse_one("insert into A[1, 1] values (9)").unwrap())
            .unwrap();
        let third = s.execute_prepared(&p).unwrap().into_array().unwrap();
        assert!(s.last_trace().unwrap().spans[0].attr("cache_hit").is_none());
        assert_eq!(third.get_cell(&[1, 1]), Some(vec![Value::from(9i64)]));
    }

    #[test]
    fn shared_database_sessions_are_isolated() {
        let db = db_with_h();
        let mut s1 = db.session();
        let mut s2 = db.session();
        s1.query("filter(A, v > 1)").unwrap();
        s2.query("scan(A)").unwrap();
        s2.query("scan(A)").unwrap();
        // Traces/metrics accumulate per session, not on the shared core.
        assert_eq!(s1.traces().len(), 1);
        assert_eq!(s2.traces().len(), 2);
        let m1 = s1.metrics();
        let ops1: Vec<&str> = m1.ops.iter().map(|o| o.op.as_str()).collect();
        assert_eq!(ops1, ["filter"]);
        // Writes through one session are visible to the other.
        s1.run("store filter(A, v > 2) into Big").unwrap();
        assert_eq!(s2.query("scan(Big)").unwrap().cell_count(), 4);
        assert_eq!(db.array_names(), vec!["A", "Big"]);
    }

    #[test]
    fn database_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<Database>();
        assert_send::<Session>();
    }

    use scidb_core::value::Scalar;

    #[test]
    fn system_metrics_is_a_queryable_array() {
        let mut db = db_with_h();
        db.query("scan(A)").unwrap();
        let m = db.query("scan(system.metrics)").unwrap();
        assert!(m.cell_count() > 0);
        let names: Vec<String> = m
            .cells()
            .map(|(_, rec)| match &rec[0] {
                Value::Scalar(Scalar::String(s)) => s.clone(),
                other => panic!("name must be a string, got {other:?}"),
            })
            .collect();
        assert!(
            names.iter().any(|n| n == "scidb.query.statements"),
            "{names:?}"
        );
        // The rows flow through the ordinary kernels: filter on an
        // attribute, then count the survivors with aggregate.
        let counters = db.query("filter(system.metrics, value >= 0)").unwrap();
        assert!(counters.cell_count() > 0, "counter/gauge rows survive");
        let total = db.query("aggregate(system.metrics, {}, count(*))").unwrap();
        assert!(total.cell_count() > 0);
    }

    #[test]
    fn system_sessions_tracks_live_handles() {
        let db = db_with_h();
        let mut s = db.session();
        s.query("scan(A)").unwrap();
        s.query("scan(A)").unwrap();
        let rows = s.query("scan(system.sessions)").unwrap();
        // A `Database` handle registers no session: only `s` is open.
        assert_eq!(rows.cell_count(), 1);
        let sid = s.id();
        let mine = rows
            .cells()
            .find(|(_, rec)| rec[0] == Value::from(sid as i64))
            .expect("own row");
        // statements counts this very scan as the third statement.
        assert_eq!(mine.1[1], Value::from(3i64));
        // Dropping a session removes its row.
        let other_sid = {
            let mut other = db.session();
            other.query("scan(A)").unwrap();
            other.id()
        };
        let rows = s.query("scan(system.sessions)").unwrap();
        assert!(
            !rows
                .cells()
                .any(|(_, rec)| rec[0] == Value::from(other_sid as i64)),
            "dropped sessions deregister"
        );
    }

    #[test]
    fn system_slow_queries_carries_session_and_fingerprint() {
        let db = db_with_h();
        db.set_slow_query_threshold(Duration::ZERO);
        let mut s = db.session();
        s.query("filter(A, v > 1)").unwrap();
        let rows = s.query("scan(system.slow_queries)").unwrap();
        let (_, rec) = rows
            .cells()
            .find(|(_, rec)| rec[2] == Value::from("filter(scan(A), (v > 1))".to_string()))
            .expect("slow entry row");
        assert_eq!(rec[0], Value::from(s.id() as i64));
        assert_eq!(
            rec[1],
            Value::from(scidb_obs::fingerprint("filter(scan(A), (v > 1))"))
        );
    }

    #[test]
    fn system_locks_and_result_cache_render() {
        let mut s = db_with_h().session();
        s.set_result_cache(true);
        s.query("scan(A)").unwrap();
        s.query("scan(A)").unwrap();
        let locks = s.query("scan(system.locks)").unwrap();
        // One row per registered rank plus the `total` witness row.
        assert_eq!(locks.cell_count(), scidb_obs::sync::ranks::ALL.len() + 1);
        let cache = s.query("scan(system.result_cache)").unwrap();
        assert_eq!(cache.cell_count(), 1);
        let (_, rec) = cache.cells().next().unwrap();
        assert!(
            matches!(rec[1], Value::Scalar(Scalar::Int64(n)) if n >= 1),
            "the cached scan(A) entry is visible: {rec:?}"
        );
    }

    #[test]
    fn system_namespace_is_reserved_and_uncached() {
        let mut db = db_with_h();
        for stmt in ["create system.x as H [4, 4]", "store scan(A) into system.y"] {
            let err = db.run(stmt).unwrap_err();
            assert!(matches!(err, Error::Schema(_)), "{stmt}: {err:?}");
        }
        let copy = db.query("scan(A)").unwrap();
        let err = db.put_array("system.z", copy);
        assert!(matches!(err, Err(Error::Schema(_))), "{err:?}");
        // Unknown system arrays are a not-found error, not a catalog miss.
        let err = db.query("scan(system.nope)").unwrap_err();
        assert!(matches!(err, Error::NotFound(_)), "{err:?}");
        // system.* scans bypass the result cache even when it is enabled:
        // re-scanning metrics never reports a cache hit.
        let mut s = db.session();
        s.set_result_cache(true);
        s.query("scan(system.metrics)").unwrap();
        s.query("scan(system.metrics)").unwrap();
        assert!(
            s.last_trace().unwrap().spans[0].attr("cache_hit").is_none(),
            "system scans must not be served from the result cache"
        );
    }

    fn durable_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("scidb_durable_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Cell-level canonical form for whole-array equality checks.
    fn canon(a: &Array) -> Vec<(Vec<i64>, Vec<Value>)> {
        a.cells().collect()
    }

    #[test]
    fn durable_reopen_replays_committed_state() {
        let dir = durable_dir("reopen");
        let before = {
            let mut db = Database::open(&dir).unwrap();
            assert!(db.is_durable());
            db.run("define H (v = int) (X = 1:2, Y = 1:2)").unwrap();
            db.run("create A as H [2, 2]").unwrap();
            db.run("insert into A[1, 1] values (1)").unwrap();
            db.run("insert into A[2, 2] values (4)").unwrap();
            db.run("define updatable R (v = int) (I = 1:2, J = 1:2)")
                .unwrap();
            db.run("create U as R [2, 2]").unwrap();
            db.run("insert into U[1, 2] values (7)").unwrap();
            db.run("insert into U[1, 2] values (8)").unwrap();
            db.run("store filter(scan(A), (v > 1)) into B").unwrap();
            // Direct-API paths: put_array, put_array_on_disk, merge.
            let arr = db.query("scan(A)").unwrap();
            db.put_array("P", arr.clone()).unwrap();
            db.put_array_on_disk("D", &arr).unwrap();
            db.merge_on_disk("D", 4).unwrap();
            ["A", "U", "B", "P", "D"].map(|n| canon(&db.query(&format!("scan({n})")).unwrap()))
        };
        let mut db = Database::open(&dir).unwrap();
        let after =
            ["A", "U", "B", "P", "D"].map(|n| canon(&db.query(&format!("scan({n})")).unwrap()));
        assert_eq!(before, after, "reopen must replay to identical state");
        // The replayed database accepts further writes.
        db.run("insert into A[1, 2] values (9)").unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `grp.n` of the benchmark: 38 cells in 2 runs. The adaptive policy
    /// picks RLE for both columns (19 bytes for 38 elements), a bucket the
    /// reader used to reject as "count exceeds payload".
    #[test]
    fn long_run_columns_survive_adaptive_buckets_and_durable_reopen() {
        let schema = scidb_core::schema::SchemaBuilder::new("runs")
            .attr("n", ScalarType::Int64)
            .attr("f", ScalarType::Float64)
            .dim_chunked("g", 38, 38)
            .build()
            .unwrap();
        let mut a = Array::new(schema);
        a.fill_with(|c| {
            let run = i64::from(c[0] > 19);
            vec![Value::from(100 + run), Value::from(0.5 + run as f64)]
        })
        .unwrap();
        let chunk = a.chunks().values().next().unwrap();
        let bucket = scidb_storage::serialize_chunk(chunk, CodecPolicy::adaptive()).unwrap();
        assert!(
            bucket.len() < 38 * 8,
            "runs must compress: {}",
            bucket.len()
        );
        assert_eq!(&scidb_storage::deserialize_chunk(&bucket).unwrap(), chunk);

        let dir = durable_dir("runs");
        {
            let mut db = Database::open(&dir).unwrap();
            db.put_array_on_disk("R", &a).unwrap();
            assert_eq!(canon(&db.query("scan(R)").unwrap()), canon(&a));
        }
        let mut db = Database::open(&dir).unwrap();
        assert_eq!(canon(&db.query("scan(R)").unwrap()), canon(&a));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_drop_survives_reopen() {
        let dir = durable_dir("drop");
        {
            let mut db = Database::open(&dir).unwrap();
            db.run("define updatable R (v = int) (I = 1:2, J = 1:2)")
                .unwrap();
            db.run("create U as R [2, 2]").unwrap();
            db.run("insert into U[1, 1] values (3)").unwrap();
            db.run("drop array U").unwrap();
            // Re-creating under the same name after a drop must replay
            // cleanly (the delta-store bookkeeping is keyed by name).
            db.run("create U as R [2, 2]").unwrap();
            db.run("insert into U[2, 2] values (5)").unwrap();
        }
        let mut db = Database::open(&dir).unwrap();
        let u = db.query("scan(U)").unwrap();
        assert_eq!(u.cell_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_failed_statement_appends_nothing() {
        let dir = durable_dir("failed");
        let len_after_ddl;
        {
            let mut db = Database::open(&dir).unwrap();
            db.run("define H (v = int) (X = 1:2, Y = 1:2)").unwrap();
            db.run("create A as H [2, 2]").unwrap();
            len_after_ddl = std::fs::metadata(dir.join("wal.log")).unwrap().len();
            db.run("insert into A[9, 9] values (1)").unwrap_err();
            assert_eq!(
                std::fs::metadata(dir.join("wal.log")).unwrap().len(),
                len_after_ddl,
                "a failed statement must not reach the log"
            );
        }
        let mut db = Database::open(&dir).unwrap();
        assert_eq!(db.query("scan(A)").unwrap().cell_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn system_storage_reports_durability() {
        // Non-durable: the singleton row exists with durable = 0.
        let mut mem = db_with_h();
        assert!(!mem.is_durable());
        let row = mem.query("scan(system.storage)").unwrap();
        assert_eq!(row.cell_count(), 1);
        let (_, rec) = row.cells().next().unwrap();
        assert_eq!(rec[0], Value::from(0i64), "durable flag: {rec:?}");

        // Durable: durable = 1 and WAL commits are visible.
        let dir = durable_dir("system");
        let mut db = Database::open(&dir).unwrap();
        assert!(db.storage_dir().is_some());
        db.run("define H (v = int) (X = 1:2, Y = 1:2)").unwrap();
        db.run("create A as H [2, 2]").unwrap();
        db.run("insert into A[1, 1] values (1)").unwrap();
        let row = db.query("scan(system.storage)").unwrap();
        let (_, rec) = row.cells().next().unwrap();
        assert_eq!(rec[0], Value::from(1i64), "durable flag: {rec:?}");
        assert!(
            matches!(rec[7], Value::Scalar(Scalar::Int64(n)) if n >= 3),
            "wal_commits after three statements: {rec:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
