//! Bounded admission control for statement execution.
//!
//! Two gates guard the engine:
//!
//! * A **global** gate bounding concurrently executing statements
//!   (`max_active`) with a bounded wait queue (`max_queued`, `max_wait`).
//!   A request that finds both full — or that waits past the deadline —
//!   is rejected with a typed `admission` error rather than piling onto
//!   an overloaded engine.
//! * A **per-session** in-flight gate ([`SessionGate`]) bounding how many
//!   statements one session may have admitted at once.
//!
//! Both gates are atomics-only (no locks, no parked threads): waiters spin
//! with a short sleep, which keeps the controller trivially correct under
//! the fairness needs of a few hundred sessions.
//!
//! Although no lock is involved, permits participate in the workspace lock
//! discipline (DESIGN.md §13): a [`SessionPermit`] occupies the `SESSION`
//! rank and a [`Permit`] the `ADMISSION` rank in the debug lock-witness,
//! as counting *slots* — several permits of one rank may coexist on a
//! thread (a semaphore cannot self-deadlock), but acquiring one while a
//! strictly higher-ranked lock is held panics in debug builds.

use scidb_core::error::{Error, Result};
use scidb_obs::sync::{ranks, witness};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long a queued waiter sleeps between admission attempts.
const WAIT_QUANTUM: Duration = Duration::from_micros(100);

/// Global admission limits.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Statements allowed to execute concurrently.
    pub max_active: usize,
    /// Statements allowed to wait for an execution slot; arrivals beyond
    /// this are rejected immediately.
    pub max_queued: usize,
    /// Longest a statement may wait in the queue before rejection.
    pub max_wait: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_active: 64,
            max_queued: 1024,
            max_wait: Duration::from_secs(5),
        }
    }
}

/// The global admission gate.
#[derive(Debug)]
pub struct Admission {
    cfg: AdmissionConfig,
    active: AtomicUsize,
    queued: AtomicUsize,
    timed_out: AtomicU64,
}

/// An admitted statement's slot; releasing is dropping.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a Admission,
    queue_wait: Duration,
}

impl Permit<'_> {
    /// How long this statement waited in the admission queue (zero when
    /// admitted on the fast path).
    pub fn queue_wait(&self) -> Duration {
        self.queue_wait
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.active.fetch_sub(1, Ordering::SeqCst);
        witness::release(ranks::ADMISSION);
    }
}

impl Admission {
    /// A gate with the given limits (`max_active` is clamped to >= 1).
    pub fn new(mut cfg: AdmissionConfig) -> Self {
        cfg.max_active = cfg.max_active.max(1);
        Admission {
            cfg,
            active: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            timed_out: AtomicU64::new(0),
        }
    }

    /// The configured limits.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Statements currently executing.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Statements currently waiting for a slot.
    pub fn queued(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }

    /// Waits that ended in rejection (queue full or deadline passed)
    /// since the gate was built.
    pub fn timed_out(&self) -> u64 {
        self.timed_out.load(Ordering::SeqCst)
    }

    fn try_acquire(&self) -> bool {
        let mut cur = self.active.load(Ordering::SeqCst);
        loop {
            if cur >= self.cfg.max_active {
                return false;
            }
            match self
                .active
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Admits one statement, waiting in the bounded queue if the engine
    /// is saturated. Errors with [`Error::Admission`] when the queue is
    /// full or the wait deadline passes.
    pub fn admit(&self) -> Result<Permit<'_>> {
        witness::check(ranks::ADMISSION, true);
        if self.try_acquire() {
            witness::acquired(ranks::ADMISSION, false);
            scidb_obs::global()
                .histogram("scidb.server.queue_wait_us")
                .record(0);
            return Ok(Permit {
                gate: self,
                queue_wait: Duration::ZERO,
            });
        }
        // Engine saturated: take a queue slot (bounded) and wait.
        let mut q = self.queued.load(Ordering::SeqCst);
        loop {
            if q >= self.cfg.max_queued {
                self.timed_out.fetch_add(1, Ordering::SeqCst);
                scidb_obs::global()
                    .counter("scidb.server.admission_timeouts")
                    .inc(1);
                return Err(Error::admission(format!(
                    "query queue full ({} waiting, limit {})",
                    q, self.cfg.max_queued
                )));
            }
            match self
                .queued
                .compare_exchange(q, q + 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(now) => q = now,
            }
        }
        let start = Instant::now();
        let deadline = start + self.cfg.max_wait;
        loop {
            if self.try_acquire() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                witness::acquired(ranks::ADMISSION, true);
                let queue_wait = start.elapsed();
                scidb_obs::global()
                    .histogram("scidb.server.queue_wait_us")
                    .record(queue_wait.as_micros() as u64);
                return Ok(Permit {
                    gate: self,
                    queue_wait,
                });
            }
            if Instant::now() >= deadline {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                self.timed_out.fetch_add(1, Ordering::SeqCst);
                scidb_obs::global()
                    .counter("scidb.server.admission_timeouts")
                    .inc(1);
                return Err(Error::admission(format!(
                    "no execution slot within {:?} ({} active, {} waiting)",
                    self.cfg.max_wait,
                    self.active(),
                    self.queued()
                )));
            }
            std::thread::sleep(WAIT_QUANTUM);
        }
    }
}

/// Per-session in-flight gate: at most `limit` statements of one session
/// may hold admission at once.
#[derive(Debug)]
pub struct SessionGate {
    limit: usize,
    inflight: AtomicUsize,
}

/// One session statement's in-flight slot; releasing is dropping.
#[derive(Debug)]
pub struct SessionPermit<'a> {
    gate: &'a SessionGate,
}

impl Drop for SessionPermit<'_> {
    fn drop(&mut self) {
        self.gate.inflight.fetch_sub(1, Ordering::SeqCst);
        witness::release(ranks::SESSION);
    }
}

impl SessionGate {
    /// A gate admitting up to `limit` concurrent statements.
    pub fn new(limit: usize) -> Self {
        SessionGate {
            limit,
            inflight: AtomicUsize::new(0),
        }
    }

    /// Claims an in-flight slot, or rejects with a typed `admission`
    /// error when the session is already at its limit.
    pub fn enter(&self) -> Result<SessionPermit<'_>> {
        witness::check(ranks::SESSION, true);
        let mut cur = self.inflight.load(Ordering::SeqCst);
        loop {
            if cur >= self.limit {
                return Err(Error::admission(format!(
                    "session in-flight limit of {} reached",
                    self.limit
                )));
            }
            match self
                .inflight
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    witness::acquired(ranks::SESSION, false);
                    return Ok(SessionPermit { gate: self });
                }
                Err(now) => cur = now,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permits_release_on_drop() {
        let gate = Admission::new(AdmissionConfig {
            max_active: 2,
            max_queued: 0,
            max_wait: Duration::from_millis(10),
        });
        let p1 = gate.admit().unwrap();
        let _p2 = gate.admit().unwrap();
        assert_eq!(gate.active(), 2);
        // Saturated with an empty queue: immediate rejection.
        let err = gate.admit().unwrap_err();
        assert_eq!(err.code().name(), "admission");
        drop(p1);
        assert_eq!(gate.active(), 1);
        let _p3 = gate.admit().unwrap();
    }

    #[test]
    fn queued_waiter_times_out_with_admission_error() {
        let gate = Admission::new(AdmissionConfig {
            max_active: 1,
            max_queued: 4,
            max_wait: Duration::from_millis(5),
        });
        let _held = gate.admit().unwrap();
        let err = gate.admit().unwrap_err();
        assert_eq!(err.code().name(), "admission");
        assert_eq!(gate.queued(), 0, "timed-out waiter must leave the queue");
        assert_eq!(gate.timed_out(), 1);
    }

    #[test]
    fn queue_wait_is_measured_and_recorded() {
        let gate = Admission::new(AdmissionConfig {
            max_active: 1,
            max_queued: 4,
            max_wait: Duration::from_secs(5),
        });
        let before = scidb_obs::global()
            .histogram("scidb.server.queue_wait_us")
            .count();
        let fast = gate.admit().unwrap();
        assert_eq!(fast.queue_wait(), Duration::ZERO);
        // A contended waiter measures a positive wait once the slot frees.
        let waited = std::thread::scope(|s| {
            let handle = s.spawn(|| gate.admit().map(|p| p.queue_wait()));
            std::thread::sleep(Duration::from_millis(5));
            drop(fast);
            handle.join().expect("waiter thread")
        })
        .unwrap();
        assert!(waited >= Duration::from_millis(1), "waited {waited:?}");
        let after = scidb_obs::global()
            .histogram("scidb.server.queue_wait_us")
            .count();
        assert!(after >= before + 2, "both admissions recorded");
    }

    #[test]
    fn session_gate_bounds_in_flight_statements() {
        let gate = SessionGate::new(1);
        let p = gate.enter().unwrap();
        assert!(gate.enter().is_err());
        drop(p);
        assert!(gate.enter().is_ok());
        // A zero limit rejects everything.
        assert!(SessionGate::new(0).enter().is_err());
    }
}
