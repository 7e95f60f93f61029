//! The `system.*` virtual arrays: live telemetry resolved as ordinary
//! arrays so AQL itself is the monitoring API (filter/project/aggregate
//! over them run through the normal kernels).
//!
//! Six arrays exist, each rebuilt from live state at scan time:
//!
//! | array                | one row per                | source                      |
//! |----------------------|----------------------------|-----------------------------|
//! | `system.metrics`     | global registry instrument | `scidb_obs::global()`       |
//! | `system.sessions`    | registered session         | `DbCore::sessions`          |
//! | `system.slow_queries`| retained slow-log entry    | `DbCore::slow_log`          |
//! | `system.locks`       | registered lock rank       | `sync::ranks` + witness     |
//! | `system.result_cache`| (singleton)                | `DbCore::result_cache`      |
//! | `system.storage`     | (singleton)                | `Durability` + pool/WAL     |
//!
//! All are 1-dimensional over `i = 1:N`. They are virtual: the `system.`
//! prefix is reserved ([`reject_reserved`]) and never enters the catalog
//! or the result cache. Lock ordering is safe by construction — every
//! lock consulted here (`SESSION_REGISTRY` 35, `POOL` 46, `SLOW_LOG` 70,
//! `RESULT_CACHE` 80, `METRICS` 100) ranks above the `CATALOG` (30) guard
//! held while a scan evaluates. The writer mutex (`WAL` 25) ranks
//! *below* `CATALOG` and is therefore never consulted here —
//! `system.storage` reads WAL traffic from lock-free counters instead.

use scidb_core::array::Array;
use scidb_core::error::{Error, Result};
use scidb_core::schema::{ArraySchema, AttributeDef, DimensionDef};
use scidb_core::value::{Scalar, ScalarType, Value};
use scidb_obs::sync::{ranks, witness};
use scidb_obs::MetricValue;
use std::sync::atomic::Ordering;

use super::{DbCore, RESULT_CACHE_CAPACITY};

/// The reserved virtual-array namespace.
pub const SYSTEM_PREFIX: &str = "system.";

/// True if `name` addresses the reserved `system.*` namespace.
pub fn is_system_array(name: &str) -> bool {
    name.starts_with(SYSTEM_PREFIX)
}

/// Rejects catalog writes into the reserved namespace.
pub(super) fn reject_reserved(name: &str) -> Result<()> {
    if is_system_array(name) {
        return Err(Error::schema(format!(
            "array name '{name}': the '{SYSTEM_PREFIX}' namespace is reserved for virtual arrays"
        )));
    }
    Ok(())
}

/// Resolves a scan of a `system.*` array against live telemetry; `None`
/// for ordinary array names, an error for unknown system names.
pub(super) fn resolve(core: &DbCore, name: &str) -> Option<Result<Array>> {
    if !is_system_array(name) {
        return None;
    }
    Some(match name {
        "system.metrics" => metrics(),
        "system.sessions" => sessions(core),
        "system.slow_queries" => slow_queries(core),
        "system.locks" => locks(),
        "system.result_cache" => result_cache(core),
        "system.storage" => storage(core),
        _ => Err(Error::not_found(format!("system array '{name}'"))),
    })
}

fn int(v: u64) -> Value {
    Value::Scalar(Scalar::Int64(v.min(i64::MAX as u64) as i64))
}

fn signed(v: i64) -> Value {
    Value::Scalar(Scalar::Int64(v))
}

fn text(v: &str) -> Value {
    Value::Scalar(Scalar::String(v.to_string()))
}

/// Builds a 1-D array `i = 1:max(rows,1)` over the given scalar attrs.
fn table(name: &str, attrs: &[(&str, ScalarType)], rows: Vec<Vec<Value>>) -> Result<Array> {
    let attr_defs = attrs
        .iter()
        .map(|(n, t)| AttributeDef::scalar(*n, *t))
        .collect();
    let dims = vec![DimensionDef::bounded("i", rows.len().max(1) as i64)];
    let mut out = Array::new(ArraySchema::new(name, attr_defs, dims)?);
    for (idx, rec) in rows.into_iter().enumerate() {
        out.set_cell(&[idx as i64 + 1], rec)?;
    }
    Ok(out)
}

/// `system.metrics`: the global registry snapshot, one row per
/// instrument, sorted by name. Counters/gauges fill `value`; histograms
/// fill `count`/`sum`.
fn metrics() -> Result<Array> {
    let snap = scidb_obs::global().snapshot();
    let rows = snap
        .values
        .iter()
        .map(|(name, v)| match v {
            MetricValue::Counter(c) => {
                vec![
                    text(name),
                    text("counter"),
                    int(*c),
                    Value::Null,
                    Value::Null,
                ]
            }
            MetricValue::Gauge(g) => {
                vec![
                    text(name),
                    text("gauge"),
                    signed(*g),
                    Value::Null,
                    Value::Null,
                ]
            }
            MetricValue::Hist(h) => vec![
                text(name),
                text("histogram"),
                Value::Null,
                int(h.count),
                int(h.sum),
            ],
        })
        .collect();
    table(
        "system.metrics",
        &[
            ("name", ScalarType::String),
            ("kind", ScalarType::String),
            ("value", ScalarType::Int64),
            ("count", ScalarType::Int64),
            ("sum", ScalarType::Int64),
        ],
        rows,
    )
}

/// `system.sessions`: one row per registered execution handle, by id.
fn sessions(core: &DbCore) -> Result<Array> {
    let rows = core
        .sessions
        .read()
        .values()
        .map(|s| {
            vec![
                int(s.id()),
                int(s.statements()),
                int(s.errors()),
                int(s.cache_hits()),
                int(s.cells_scanned()),
                int(s.active()),
                int(s.queue_wait_us()),
                int(s.timed_out()),
            ]
        })
        .collect();
    table(
        "system.sessions",
        &[
            ("sid", ScalarType::Int64),
            ("statements", ScalarType::Int64),
            ("errors", ScalarType::Int64),
            ("cache_hits", ScalarType::Int64),
            ("cells_scanned", ScalarType::Int64),
            ("active", ScalarType::Int64),
            ("queue_wait_us", ScalarType::Int64),
            ("timed_out", ScalarType::Int64),
        ],
        rows,
    )
}

/// `system.slow_queries`: the retained slow-log ring, oldest first.
fn slow_queries(core: &DbCore) -> Result<Array> {
    let rows = core
        .slow_log
        .read()
        .entries()
        .iter()
        .map(|e| {
            vec![
                int(e.session),
                text(&e.fingerprint),
                text(&e.label),
                int(e.wall.as_micros() as u64),
                int(e.trace.spans.len() as u64),
            ]
        })
        .collect();
    table(
        "system.slow_queries",
        &[
            ("sid", ScalarType::Int64),
            ("fingerprint", ScalarType::String),
            ("aql", ScalarType::String),
            ("wall_us", ScalarType::Int64),
            ("spans", ScalarType::Int64),
        ],
        rows,
    )
}

/// `system.locks`: the registered rank table plus a `total` row carrying
/// the process-wide witness counters (per-pair counters live in
/// `system.metrics` as `scidb.sync.pair.*`).
fn locks() -> Result<Array> {
    let mut rows: Vec<Vec<Value>> = ranks::ALL
        .iter()
        .map(|r| {
            vec![
                text(r.name()),
                signed(i64::from(r.level())),
                Value::Null,
                Value::Null,
            ]
        })
        .collect();
    let stats = witness::stats();
    rows.push(vec![
        text("total"),
        Value::Null,
        int(stats.acquisitions),
        int(stats.contended),
    ]);
    table(
        "system.locks",
        &[
            ("name", ScalarType::String),
            ("rank", ScalarType::Int64),
            ("acquisitions", ScalarType::Int64),
            ("contended", ScalarType::Int64),
        ],
        rows,
    )
}

/// `system.storage`: a singleton row describing the durable backend —
/// buffer-pool effectiveness, WAL traffic, and the last recovery. On a
/// non-durable database `durable` is 0 and the instance columns are 0;
/// the `wal_*` columns mirror the process-wide counters either way.
fn storage(core: &DbCore) -> Result<Array> {
    let reg = scidb_obs::global();
    let (durable, pool, replayed_ops, replay_ms, torn_bytes) = match &core.durable {
        Some(d) => (
            1u64,
            d.disk.pool_stats(),
            d.replayed_ops,
            d.replay_ms,
            d.torn_bytes,
        ),
        None => (0, Default::default(), 0, 0, 0),
    };
    let row = vec![
        int(durable),
        int(pool.hits),
        int(pool.misses),
        int(pool.evictions),
        int(pool.frames as u64),
        int(pool.capacity as u64),
        int(reg.counter("scidb.storage.wal.records").get()),
        int(reg.counter("scidb.storage.wal.commits").get()),
        int(reg.counter("scidb.storage.wal.bytes").get()),
        int(reg.histogram("scidb.storage.wal.fsync_us").count()),
        int(replayed_ops),
        int(replay_ms),
        int(torn_bytes),
    ];
    table(
        "system.storage",
        &[
            ("durable", ScalarType::Int64),
            ("pool_hits", ScalarType::Int64),
            ("pool_misses", ScalarType::Int64),
            ("pool_evictions", ScalarType::Int64),
            ("pool_frames", ScalarType::Int64),
            ("pool_capacity", ScalarType::Int64),
            ("wal_records", ScalarType::Int64),
            ("wal_commits", ScalarType::Int64),
            ("wal_bytes", ScalarType::Int64),
            ("wal_fsyncs", ScalarType::Int64),
            ("replayed_ops", ScalarType::Int64),
            ("replay_ms", ScalarType::Int64),
            ("torn_bytes", ScalarType::Int64),
        ],
        vec![row],
    )
}

/// `system.result_cache`: a singleton row describing the shared cache.
fn result_cache(core: &DbCore) -> Result<Array> {
    let row = vec![
        int(core.generation.load(Ordering::SeqCst)),
        int(core.result_cache.read().len() as u64),
        int(RESULT_CACHE_CAPACITY as u64),
        int(scidb_obs::global().counter("scidb.query.cache_hits").get()),
    ];
    table(
        "system.result_cache",
        &[
            ("generation", ScalarType::Int64),
            ("entries", ScalarType::Int64),
            ("capacity", ScalarType::Int64),
            ("hits", ScalarType::Int64),
        ],
        vec![row],
    )
}
