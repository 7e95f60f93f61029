//! Harness-side tracing for the `--trace 1` run: spans around each call the
//! harness makes into a layer's public functions, and an allocation counter.
//! Nothing here touches the engine; spans inside it are a later change.

use crate::stats::json_number;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One finished (or still open) span. Times are microseconds since the
/// recorder was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// Statement the span belongs to; spans of one statement share it.
    pub stmt: u64,
}

/// An in-memory span list with a stack of open spans: a span's parent is
/// whatever was open when it started. One recorder per thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in microseconds.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        stmt: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, f64) {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            stmt,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[id].end_us = end_us;
        (out, end_us - start_us)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of each span: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_us - s.start_us;
        }
    }
    own.iter().map(|v| v.max(0.0)).collect()
}

/// Renders span lists (one per recording thread) as one JSON document.
pub fn to_json(threads: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"unit\": \"us\", \"threads\": [\n");
    for (t, spans) in threads.iter().enumerate() {
        let own = self_times(spans);
        out.push_str(" [\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"stmt\": {}, \"parent\": {parent}, \"start\": {}, \"end\": {}, \"self\": {}}}{}\n",
                s.name,
                s.stmt,
                json_number(s.start_us),
                json_number(s.end_us),
                json_number(own[i]),
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        out.push_str(if t + 1 < threads.len() {
            " ],\n"
        } else {
            " ]\n"
        });
    }
    out.push_str("]}\n");
    out
}

/// The process allocator, counting calls and bytes while armed. Counting is
/// two relaxed atomic adds; the untraced run never arms it.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(
                new_size.saturating_sub(layout.size()) as u64,
                Ordering::Relaxed,
            );
        }
        // SAFETY: as in `dealloc`; `new_size` is passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts or stops counting.
pub fn arm_alloc_counter(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// `(allocation calls, bytes requested)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_us: start,
            end_us: end,
            parent,
            stmt: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        // root 0..100 with children 10..40 and 50..70; the first child has
        // its own child 20..30, which must not be charged to the root.
        let spans = vec![
            sp(0.0, 100.0, None),
            sp(10.0, 40.0, Some(0)),
            sp(20.0, 30.0, Some(1)),
            sp(50.0, 70.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50.0, 20.0, 10.0, 20.0]);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut r = Recorder::new(Instant::now());
        r.span("stmt", 7, |r| {
            r.span("parse", 7, |_| ());
            r.span("exec", 7, |r| {
                r.span("inner", 7, |_| ());
            });
        });
        let spans = r.into_spans();
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(spans.iter().all(|s| s.stmt == 7 && s.end_us >= s.start_us));
        let own = self_times(&spans);
        let total = spans[0].end_us - spans[0].start_us;
        assert!((own.iter().sum::<f64>() - total).abs() < 1e-6);
        assert!(to_json(&[spans]).contains("\"name\": \"inner\""));
    }

    #[test]
    fn allocator_counts_only_while_armed() {
        // Other tests allocate concurrently, so only lower bounds hold.
        let before = alloc_counts();
        arm_alloc_counter(true);
        let v: Vec<u8> = Vec::with_capacity(4096);
        arm_alloc_counter(false);
        let after = alloc_counts();
        assert!(after.0 > before.0 && after.1 >= before.1 + 4096);
        drop(v);
    }
}
