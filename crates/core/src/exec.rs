//! The chunk-parallel execution context.
//!
//! SciDB's unit of physical storage — the chunk — is also its unit of
//! parallelism. An [`ExecContext`] carries a thread budget and the current
//! kernel span through the executor into the operator kernels; chunk-separable
//! kernels (Subsample, Filter, Apply, Project, Aggregate, Regrid) fan their
//! chunk lists out over [`par_map`](ExecContext::par_map)-style scoped threads and combine the
//! per-chunk results deterministically, so serial (`threads = 1`) and
//! parallel runs produce identical arrays.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::error::Result;
use scidb_obs::sync::{ranks, OrderedMutex};

/// Metrics for one operator invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpMetrics {
    /// Operator name (`filter`, `aggregate`, …).
    pub op: String,
    /// Input chunks scanned (after structural pruning).
    pub chunks_scanned: u64,
    /// Present cells touched.
    pub cells_touched: u64,
    /// Wall time of the kernel.
    pub wall: Duration,
}

/// Per-operator metrics of one or more statements: a view derived from
/// their traces' `kernel` events.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    /// One entry per operator invocation, in execution order.
    pub ops: Vec<OpMetrics>,
}

impl QueryMetrics {
    /// Derives metrics from a finished trace: one [`OpMetrics`] per
    /// `kernel` span event, in execution (sequence) order. This is the
    /// thin-view direction — the trace is the source of truth and the
    /// metrics struct is a projection of it.
    pub fn from_trace(trace: &scidb_obs::TraceData) -> QueryMetrics {
        let ops = trace
            .kernel_events()
            .into_iter()
            .map(|e| OpMetrics {
                op: e.op,
                chunks_scanned: e.chunks,
                cells_touched: e.cells,
                wall: e.wall,
            })
            .collect();
        QueryMetrics { ops }
    }

    /// [`QueryMetrics::from_trace`] over several traces, concatenated in
    /// trace order (e.g. one trace per statement of a session).
    pub fn from_traces<'a>(
        traces: impl IntoIterator<Item = &'a scidb_obs::TraceData>,
    ) -> QueryMetrics {
        let mut all = QueryMetrics::default();
        for t in traces {
            all.ops.extend(QueryMetrics::from_trace(t).ops);
        }
        all
    }

    /// Total chunks scanned across operators.
    pub fn chunks_scanned(&self) -> u64 {
        self.ops.iter().map(|o| o.chunks_scanned).sum()
    }

    /// Total cells touched across operators.
    pub fn cells_touched(&self) -> u64 {
        self.ops.iter().map(|o| o.cells_touched).sum()
    }

    /// Total operator wall time (sum, not elapsed span).
    pub fn total_wall(&self) -> Duration {
        self.ops.iter().map(|o| o.wall).sum()
    }

    /// A compact one-line-per-operator report.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for o in &self.ops {
            let _ = writeln!(
                s,
                "{:<12} chunks={:<6} cells={:<10} wall={:?}",
                o.op, o.chunks_scanned, o.cells_touched, o.wall
            );
        }
        s
    }
}

/// Thread budget + current kernel span threaded from the executor down
/// into the operator kernels.
#[derive(Debug)]
pub struct ExecContext {
    threads: usize,
    span: OrderedMutex<Option<scidb_obs::Span>>,
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext::new()
    }
}

impl ExecContext {
    /// A context sized to the machine (`available_parallelism`).
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        ExecContext::with_threads(threads)
    }

    /// A context with an explicit thread budget (`0` means auto-size).
    pub fn with_threads(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        ExecContext {
            threads,
            span: OrderedMutex::new(ranks::EXEC, None),
        }
    }

    /// The single-threaded escape hatch.
    pub fn serial() -> Self {
        ExecContext::with_threads(1)
    }

    /// The thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Installs `span` as the current kernel span, returning the previous
    /// one. While a span is installed, [`record`](Self::record) forwards
    /// each operator invocation to it as a `kernel` event, so per-kernel
    /// timing lands in the enclosing trace. Executors should
    /// restore the previous span when the kernel call returns.
    pub fn set_current_span(&self, span: Option<scidb_obs::Span>) -> Option<scidb_obs::Span> {
        std::mem::replace(&mut *self.span.lock(), span)
    }

    /// The currently installed kernel span, if any.
    pub fn current_span(&self) -> Option<scidb_obs::Span> {
        self.span.lock().clone()
    }

    /// Records one operator invocation as a `kernel` event on the current
    /// span — the one sink; [`QueryMetrics::from_trace`] is the view. With
    /// no span installed the invocation is not recorded.
    pub fn record(&self, op: &str, chunks_scanned: u64, cells_touched: u64, wall: Duration) {
        if let Some(span) = self.current_span() {
            span.record_kernel(op, chunks_scanned, cells_touched, wall);
        }
    }

    /// Maps `f` over `items`, in parallel when the budget allows.
    /// Results are returned in item order regardless of scheduling.
    pub fn par_map<'a, T, R, F>(&self, items: &'a [T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        par_map_threads(self.threads, items, f)
    }

    /// Fallible [`par_map`](Self::par_map): returns the first error in
    /// *item order* (deterministic across thread schedules).
    pub fn try_par_map<'a, T, R, F>(&self, items: &'a [T], f: F) -> Result<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a T) -> Result<R> + Sync,
    {
        par_map_threads(self.threads, items, f)
            .into_iter()
            .collect()
    }

    /// Times `f`, [`record`](Self::record)ing it on success.
    pub fn timed<R>(&self, op: &str, f: impl FnOnce() -> Result<(R, u64, u64)>) -> Result<R> {
        let start = Instant::now();
        let (out, chunks, cells) = f()?;
        self.record(op, chunks, cells, start.elapsed());
        Ok(out)
    }
}

/// Order-preserving parallel map over a slice with `threads` workers
/// pulling items from a shared counter (dynamic load balancing; chunk
/// workloads are rarely uniform). Falls back to a plain serial loop for
/// `threads <= 1` or tiny inputs.
pub fn par_map_threads<'a, T, R, F>(threads: usize, items: &'a [T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.min(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let f = &f;
    let next_ref = &next;
    let mut labelled: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let i = next_ref.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(&items[i])));
                }
                local
            }));
        }
        for h in handles {
            // analyze: allow(R1, re-raises a worker panic so parallel runs fail like serial ones)
            labelled.extend(h.join().expect("worker panicked"));
        }
    });
    labelled.sort_by_key(|(i, _)| *i);
    labelled.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 4, 8] {
            let items: Vec<u64> = (0..100).collect();
            let out = par_map_threads(threads, &items, |&x| x * 2);
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny() {
        let empty: Vec<u64> = vec![];
        assert!(par_map_threads(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map_threads(4, &[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn try_par_map_returns_first_error_in_item_order() {
        let ctx = ExecContext::with_threads(4);
        let items: Vec<i64> = (0..64).collect();
        let err = ctx
            .try_par_map(&items, |&x| {
                if x % 10 == 3 {
                    Err(Error::eval(format!("bad item {x}")))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
        assert!(err.to_string().contains("bad item 3"), "{err}");
    }

    #[test]
    fn record_forwards_to_current_span_and_metrics_derive_from_trace() {
        let ctx = ExecContext::serial();
        let trace = scidb_obs::Trace::new();
        let root = trace.root("statement", scidb_obs::LAYER_QUERY);
        let prev = ctx.set_current_span(Some(root.clone()));
        assert!(prev.is_none());
        ctx.record("filter", 2, 8, Duration::from_millis(1));
        ctx.record("aggregate", 2, 8, Duration::from_millis(2));
        let restored = ctx.set_current_span(None);
        assert!(restored.is_some());
        ctx.record("untraced", 1, 1, Duration::from_millis(1));
        root.finish();
        let td = trace.finish();
        let derived = QueryMetrics::from_trace(&td);
        assert_eq!(derived.ops.len(), 2, "untraced op must not reach the span");
        assert_eq!(derived.ops[0].op, "filter");
        assert_eq!(derived.ops[1].op, "aggregate");
        assert_eq!(derived.cells_touched(), 16);
        assert_eq!(derived.chunks_scanned(), 4);
        assert_eq!(derived.total_wall(), Duration::from_millis(3));
        assert!(derived.report().contains("filter"));
        let both = QueryMetrics::from_traces([&td, &td]);
        assert_eq!(both.ops.len(), 4);
    }

    #[test]
    fn thread_budget_resolution() {
        assert_eq!(ExecContext::serial().threads(), 1);
        assert_eq!(ExecContext::with_threads(3).threads(), 3);
        assert!(ExecContext::with_threads(0).threads() >= 1);
        assert!(ExecContext::new().threads() >= 1);
    }
}
