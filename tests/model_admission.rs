//! Model checking for the admission hand-off in `scidb_server::admission`.
//!
//! `loom`/`shuttle` are unavailable in this hermetic build, so — like
//! `tests/model_exec.rs` — this file hand-rolls exhaustive schedule
//! enumeration at the algorithm's natural granularity. The admission
//! controller's shared state is three atomics (`active`, `queued`, and a
//! per-session `inflight`), and every transition in the real code
//! linearizes at a single CAS or `fetch_sub`, so a schedule is fully
//! described by which statement performs which atomic step next. The model
//! below DFS-enumerates every such schedule for small shapes — including
//! the hand-off window where a woken waiter has incremented `active` but
//! not yet decremented `queued` — and checks on every step:
//!
//! 1. `active <= max_active` and `queued <= max_queued` always hold,
//! 2. no counter underflows (a double release would panic the model),
//! 3. per-session `inflight` never exceeds the session limit,
//! 4. every terminal state has all counters back at zero and every
//!    statement resolved to exactly one outcome,
//! 5. with timeouts disabled, every statement that reached the queue is
//!    eventually admitted (the hand-off never strands a waiter).
//!
//! Real-thread stress tests then drive the actual [`Admission`] /
//! [`SessionGate`] to cross-check the model against the implementation,
//! including the debug lock-witness slot accounting.

use scidb_server::admission::{Admission, AdmissionConfig, SessionGate};
use std::time::Duration;

/// Where one modelled statement is in the admission protocol. Each variant
/// boundary is an atomic step in the real code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pc {
    /// About to CAS the session gate's `inflight`.
    SessionEnter,
    /// Holds a session slot; about to CAS `active`.
    TryAcquire,
    /// `active` was full; about to CAS `queued`.
    TryEnqueue,
    /// In the wait queue: may win a slot (CAS `active`) or time out.
    Waiting,
    /// Won a slot from the queue; about to `fetch_sub` `queued`.
    DequeueAdmit,
    /// Timed out; about to `fetch_sub` `queued`.
    DequeueReject,
    /// Executing; about to release the admission slot.
    Admitted,
    /// Released admission; about to release the session slot.
    ReleaseSession,
    /// Rejected (queue full / timeout); about to release the session slot.
    ReleaseSessionRejected,
    Done(Outcome),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Admitted,
    SessionRejected,
    QueueFull,
    TimedOut,
}

/// One statement: its session and protocol position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stmt {
    session: usize,
    pc: Pc,
    /// Set once the statement entered the wait queue (for invariant 5).
    was_queued: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Model {
    max_active: usize,
    max_queued: usize,
    session_limit: usize,
    active: usize,
    queued: usize,
    inflight: Vec<usize>,
    stmts: Vec<Stmt>,
    /// When false, the timeout branch is disabled (models a generous
    /// deadline) so liveness of the hand-off itself is observable.
    allow_timeout: bool,
}

/// A schedule step: statement `stmt` takes its atomic step; for `Waiting`
/// statements, `timeout` selects the deadline branch.
#[derive(Debug, Clone, Copy)]
struct Step {
    stmt: usize,
    timeout: bool,
}

impl Model {
    fn new(
        n_stmts: usize,
        n_sessions: usize,
        max_active: usize,
        max_queued: usize,
        session_limit: usize,
        allow_timeout: bool,
    ) -> Model {
        Model {
            max_active,
            max_queued,
            session_limit,
            active: 0,
            queued: 0,
            inflight: vec![0; n_sessions],
            stmts: (0..n_stmts)
                .map(|i| Stmt {
                    session: i % n_sessions,
                    pc: Pc::SessionEnter,
                    was_queued: false,
                })
                .collect(),
            allow_timeout,
        }
    }

    /// Every step any statement can take from this state.
    fn enabled(&self) -> Vec<Step> {
        let mut steps = Vec::new();
        for (i, s) in self.stmts.iter().enumerate() {
            match s.pc {
                Pc::Done(_) => {}
                Pc::Waiting => {
                    // A failed `try_acquire` retry leaves the state
                    // unchanged, so only the succeeding retry is a step.
                    if self.active < self.max_active {
                        steps.push(Step {
                            stmt: i,
                            timeout: false,
                        });
                    }
                    if self.allow_timeout {
                        steps.push(Step {
                            stmt: i,
                            timeout: true,
                        });
                    }
                }
                _ => steps.push(Step {
                    stmt: i,
                    timeout: false,
                }),
            }
        }
        steps
    }

    /// Applies one atomic step, asserting the step invariants.
    fn step(&mut self, step: Step) {
        let s = self.stmts[step.stmt];
        let next = match s.pc {
            Pc::SessionEnter => {
                if self.inflight[s.session] < self.session_limit {
                    self.inflight[s.session] += 1;
                    Pc::TryAcquire
                } else {
                    Pc::Done(Outcome::SessionRejected)
                }
            }
            Pc::TryAcquire => {
                if self.active < self.max_active {
                    self.active += 1;
                    Pc::Admitted
                } else {
                    Pc::TryEnqueue
                }
            }
            Pc::TryEnqueue => {
                if self.queued < self.max_queued {
                    self.queued += 1;
                    self.stmts[step.stmt].was_queued = true;
                    Pc::Waiting
                } else {
                    Pc::ReleaseSessionRejected
                }
            }
            Pc::Waiting => {
                if step.timeout {
                    Pc::DequeueReject
                } else {
                    assert!(self.active < self.max_active, "retry step while full");
                    self.active += 1;
                    Pc::DequeueAdmit
                }
            }
            Pc::DequeueAdmit => {
                self.queued = self.queued.checked_sub(1).expect("queued underflow");
                Pc::Admitted
            }
            Pc::DequeueReject => {
                self.queued = self.queued.checked_sub(1).expect("queued underflow");
                Pc::ReleaseSessionRejected
            }
            Pc::Admitted => {
                self.active = self.active.checked_sub(1).expect("active underflow");
                Pc::ReleaseSession
            }
            Pc::ReleaseSession => {
                self.inflight[s.session] = self.inflight[s.session]
                    .checked_sub(1)
                    .expect("inflight underflow");
                Pc::Done(Outcome::Admitted)
            }
            Pc::ReleaseSessionRejected => {
                self.inflight[s.session] = self.inflight[s.session]
                    .checked_sub(1)
                    .expect("inflight underflow");
                let outcome = if self.stmts[step.stmt].was_queued {
                    Outcome::TimedOut
                } else {
                    Outcome::QueueFull
                };
                Pc::Done(outcome)
            }
            Pc::Done(_) => unreachable!("stepped a finished statement"),
        };
        self.stmts[step.stmt].pc = next;

        // Invariants 1–3 hold after *every* atomic step, including the
        // hand-off window (active already bumped, queued not yet dropped).
        assert!(self.active <= self.max_active, "active overflow: {self:?}");
        assert!(self.queued <= self.max_queued, "queued overflow: {self:?}");
        assert!(
            self.inflight.iter().all(|&n| n <= self.session_limit),
            "session overflow: {self:?}"
        );
    }

    fn terminal(&self) -> bool {
        self.stmts.iter().all(|s| matches!(s.pc, Pc::Done(_)))
    }
}

/// DFS over every schedule; calls `check` on each terminal state. Returns
/// the number of distinct complete schedules explored.
fn explore(model: Model, check: &mut dyn FnMut(&Model)) -> u64 {
    let steps = model.enabled();
    if steps.is_empty() {
        assert!(model.terminal(), "deadlock: {model:?}");
        check(&model);
        return 1;
    }
    let mut schedules = 0;
    for step in steps {
        let mut next = model.clone();
        next.step(step);
        schedules += explore(next, check);
    }
    schedules
}

/// Invariant 4: terminal states leave no residue and resolve everything.
fn assert_terminal(m: &Model) {
    assert_eq!(m.active, 0, "leaked active slot: {m:?}");
    assert_eq!(m.queued, 0, "leaked queue slot: {m:?}");
    assert!(
        m.inflight.iter().all(|&n| n == 0),
        "leaked session slot: {m:?}"
    );
}

#[test]
fn model_exhaustive_small_schedules_hold_invariants() {
    // Shapes chosen to cover: saturation (max_active < stmts), queue
    // overflow (max_queued < overflow), session contention (two statements
    // per session with limit 1), and the degenerate zero-length queue.
    // Kept deliberately tiny: a statement takes up to 7 atomic steps, so
    // the schedule count grows multinomially in statements.
    let shapes: &[(usize, usize, usize, usize, usize)] = &[
        // (stmts, sessions, max_active, max_queued, session_limit)
        (2, 1, 1, 1, 2),
        (2, 2, 1, 1, 1),
        (2, 1, 1, 2, 2),
        (3, 2, 1, 0, 1),
        (3, 1, 1, 0, 3),
        (3, 3, 2, 1, 1),
    ];
    let mut total = 0u64;
    for &(stmts, sessions, max_active, max_queued, limit) in shapes {
        let mut seen = 0u64;
        let m = Model::new(stmts, sessions, max_active, max_queued, limit, true);
        let explored = explore(m, &mut |t| {
            assert_terminal(t);
            seen += 1;
        });
        assert_eq!(explored, seen);
        total += explored;
    }
    // The point of the test is breadth: many distinct interleavings,
    // including every timeout/hand-off race.
    assert!(total > 10_000, "explored only {total} schedules");
}

#[test]
fn model_without_timeouts_no_queued_waiter_is_stranded() {
    // Invariant 5: with the deadline branch disabled, the only way out of
    // the queue is winning a slot — so every schedule must hand a freed
    // slot to each waiter, and every queued statement ends admitted.
    for &(stmts, sessions, max_active, max_queued, limit) in
        &[(2usize, 1usize, 1usize, 2usize, 2usize), (3, 2, 1, 2, 2)]
    {
        let m = Model::new(stmts, sessions, max_active, max_queued, limit, false);
        let schedules = explore(m, &mut |t| {
            assert_terminal(t);
            for s in &t.stmts {
                if s.was_queued {
                    assert_eq!(s.pc, Pc::Done(Outcome::Admitted), "stranded waiter: {t:?}");
                }
            }
        });
        assert!(schedules > 0);
    }
}

#[test]
fn model_zero_queue_resolves_to_admit_or_reject_only() {
    // With `max_queued == 0` nothing ever waits: every statement is
    // admitted, session-rejected, or queue-full-rejected immediately.
    let m = Model::new(3, 2, 1, 0, 2, true);
    explore(m, &mut |t| {
        assert_terminal(t);
        for s in &t.stmts {
            assert!(!s.was_queued, "waiter despite zero queue: {t:?}");
            assert!(
                !matches!(s.pc, Pc::Done(Outcome::TimedOut)),
                "timeout despite zero queue: {t:?}"
            );
        }
    });
}

#[test]
fn model_single_statement_is_always_admitted() {
    let schedules = explore(Model::new(1, 1, 1, 0, 1, true), &mut |t| {
        assert_eq!(t.stmts[0].pc, Pc::Done(Outcome::Admitted), "{t:?}");
    });
    // enter → acquire → release admission → release session: one schedule.
    assert_eq!(schedules, 1);
}

/// Cross-check against the real implementation: hammer a small gate from
/// many threads; the bound must hold at every instant and all counters
/// must return to zero.
#[test]
fn real_threads_respect_bounds_and_drain() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let gate = Arc::new(Admission::new(AdmissionConfig {
        max_active: 2,
        max_queued: 16,
        max_wait: Duration::from_secs(10),
    }));
    let peak = Arc::new(AtomicUsize::new(0));
    let admitted = Arc::new(AtomicUsize::new(0));
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let gate = Arc::clone(&gate);
            let peak = Arc::clone(&peak);
            let admitted = Arc::clone(&admitted);
            std::thread::spawn(move || {
                for _ in 0..6 {
                    let _permit = gate.admit().expect("generous deadline");
                    admitted.fetch_add(1, Ordering::SeqCst);
                    peak.fetch_max(gate.active(), Ordering::SeqCst);
                    std::thread::yield_now();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("worker");
    }
    assert_eq!(admitted.load(Ordering::SeqCst), 48);
    assert!(peak.load(Ordering::SeqCst) <= 2, "active bound violated");
    assert_eq!(gate.active(), 0, "active slot leaked");
    assert_eq!(gate.queued(), 0, "queue slot leaked");
}

/// The model's timeout branch, on real threads: waiters past the deadline
/// reject with the typed admission error and leave the queue clean.
#[test]
fn real_threads_timeout_leaves_no_queue_residue() {
    let gate = Admission::new(AdmissionConfig {
        max_active: 1,
        max_queued: 4,
        max_wait: Duration::from_millis(5),
    });
    let held = gate.admit().expect("first slot");
    std::thread::scope(|scope| {
        let waiters: Vec<_> = (0..3)
            .map(|_| scope.spawn(|| gate.admit().map(drop)))
            .collect();
        for w in waiters {
            let err = w.join().expect("waiter").expect_err("must time out");
            assert_eq!(err.code().name(), "admission");
        }
    });
    drop(held);
    assert_eq!(gate.active(), 0);
    assert_eq!(gate.queued(), 0, "timed-out waiters left queue residue");
}

/// Permits participate in the lock-witness slot discipline: admissions are
/// counted, several same-rank permits may coexist on one thread, and
/// nothing is left held afterwards.
#[test]
fn witness_counts_permit_slots_and_releases_them() {
    use scidb_obs::sync::witness;

    let before = witness::stats();
    let session = SessionGate::new(2);
    let gate = Admission::new(AdmissionConfig {
        max_active: 2,
        max_queued: 0,
        max_wait: Duration::from_millis(5),
    });
    {
        // Slot semantics: several same-rank permits may coexist on one
        // thread, but ranks still ascend — both SESSION slots before any
        // ADMISSION slot (SESSION = 10 < ADMISSION = 20).
        let _s1 = session.enter().expect("session slot");
        let _s2 = session.enter().expect("second session slot");
        assert!(session.enter().is_err(), "session limit of 2");
        let _p1 = gate.admit().expect("admission slot");
        let _p2 = gate.admit().expect("second admission slot");
    }
    let after = witness::stats();
    assert!(
        after.acquisitions >= before.acquisitions + 4,
        "permit acquisitions not counted: {before:?} -> {after:?}"
    );
    // Debug builds track the held stack per thread; everything released.
    assert!(
        witness::held().is_empty(),
        "witness leak: {:?}",
        witness::held()
    );
}
