//! `scidb-obs` — the dependency-free telemetry substrate for SciDB-rs.
//!
//! The paper's central claim is a performance claim, so every layer of the
//! engine must be attributable: this crate provides hierarchical [`Span`]s
//! collected into per-query [`Trace`]s, a process-wide [`Registry`] of
//! counters/gauges/histograms with snapshot-and-diff semantics, JSON and
//! Prometheus-style exporters, and a [`SlowLog`] ring of slow-query traces.
//!
//! Zero external dependencies, by design: the workspace build is hermetic
//! (see DESIGN.md §9), telemetry must never be the thing that breaks the
//! build, and nothing here needs more than `std` atomics and a mutex.
//! Instrument hot paths (`Counter::inc`, `Histogram::record`) are relaxed
//! atomic ops with no allocation; span creation allocates a handful of
//! small structures and takes one short-lived lock per finished span.
//!
//! This crate also hosts the workspace lock discipline ([`sync`]): the
//! global lock-rank registry, the `std`-backed ordered mutex and rwlock
//! every crate uses, and the debug-only per-thread witness they report to
//! (see DESIGN.md §13).

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod slowlog;
pub mod span;
pub mod sync;

pub use metrics::{
    bucket_index, bucket_upper, global, Counter, Gauge, HistSnapshot, Histogram, MetricValue,
    Registry, Snapshot,
};
pub use slowlog::{fingerprint, SlowEntry, SlowLog};
pub use span::{
    AttrValue, EventData, KernelEvent, RenderOptions, Span, SpanData, Stopwatch, Trace, TraceData,
    EVENT_DEGRADED, EVENT_FAILOVER, EVENT_KERNEL, EVENT_NODE, EVENT_REREPLICATE, EVENT_RETRY,
    LAYER_CORE, LAYER_GRID, LAYER_QUERY, LAYER_SERVER, LAYER_STORAGE,
};
pub use sync::{LockStats, Rank};
