//! The workspace lock discipline: ranked locks and the per-thread witness.
//!
//! Every lock in the engine is wrapped in an *ordered* primitive carrying a
//! compile-time [`Rank`] from the single [`ranks`] registry below. A thread
//! may only acquire locks in **strictly ascending** rank order; the
//! per-thread [`witness`] checks this on every acquisition in debug builds
//! and panics on the first out-of-rank acquisition — turning any potential
//! lock-order inversion (deadlock) into an immediate, attributable test
//! failure. Release builds skip the check entirely; the acquisition and
//! contention counters stay on (two relaxed atomic adds) so load benchmarks
//! can report them.
//!
//! This module is the one lock module of the workspace: it owns the rank
//! table, the witness, and the `std`-backed [`OrderedMutex`] and
//! [`OrderedRwLock`] every crate uses (this crate is dependency-free by
//! design). The static analyzer (`cargo xtask analyze`) enforces that raw
//! `Mutex`/`RwLock`/`Condvar` appear *only* in this file (R3) and that the
//! static acquisition graph is consistent with this table (R7/R8).

use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    LockResult, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError,
    TryLockResult,
};

/// A lock's position in the global acquisition order.
///
/// Ranks are compared by `level`; the `name` is carried for diagnostics.
/// All ranks come from the [`ranks`] registry — constructing ad-hoc ranks
/// outside the registry defeats the analyzer and the witness alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rank {
    level: u16,
    name: &'static str,
}

impl Rank {
    /// A rank at `level` named `name`. Used by the `lock_ranks!` registry;
    /// prefer the constants in [`ranks`].
    pub const fn new(level: u16, name: &'static str) -> Self {
        Rank { level, name }
    }

    /// The numeric level (higher = acquired later / more "inner").
    pub const fn level(&self) -> u16 {
        self.level
    }

    /// The registry name, e.g. `"CATALOG"`.
    pub const fn name(&self) -> &'static str {
        self.name
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (rank {})", self.name, self.level)
    }
}

/// Declares the single, total lock order of the workspace.
macro_rules! lock_ranks {
    ($($(#[$doc:meta])* $name:ident = $level:literal),+ $(,)?) => {
        $(
            $(#[$doc])*
            pub const $name: $crate::sync::Rank =
                $crate::sync::Rank::new($level, stringify!($name));
        )+
        /// Every registered rank, in ascending order.
        pub const ALL: &[$crate::sync::Rank] = &[$($name),+];
    };
}

/// The global lock-rank registry: one total order for every lock in the
/// workspace, ascending. A thread holding a rank may only acquire
/// *strictly greater* ranks. The order is derived from the measured
/// nesting of the engine (DESIGN.md §13): a session permit is taken before
/// the global admission permit, the catalog read guard is held across
/// kernel execution (which touches storage, the exec context, spans, and
/// counters), and the result cache sets span attributes and bumps counters
/// while its guard is live.
pub mod ranks {
    lock_ranks! {
        /// Per-session in-flight permit (`scidb-server` `SessionGate`).
        SESSION = 10,
        /// Global admission permit (`scidb-server` `Admission`).
        ADMISSION = 20,
        /// The write-ahead-log appender and durable-operation serializer
        /// in `scidb-query`'s durability layer; taken *before* the
        /// catalog on every durable write path so a single WAL group
        /// covers the whole operation.
        WAL = 25,
        /// The catalog/array state `RwLock` in `scidb-query`'s `DbCore`.
        CATALOG = 30,
        /// The per-session stats registry `RwLock` in `DbCore`, read while
        /// the catalog guard may be held (`system.sessions` scans).
        SESSION_REGISTRY = 35,
        /// The background-merge `StorageManager` mutex (`scidb-storage`).
        MERGE = 40,
        /// The paged-disk frame/extent/journal mutex guarding the buffer
        /// pool and page file (`scidb-storage`), reached from bucket I/O
        /// under the catalog or merge guards.
        POOL = 46,
        /// Disk block-map and I/O-stats mutexes (`scidb-storage`).
        STORAGE = 50,
        /// `ExecContext` metrics/span mutexes (`scidb-core`), taken by
        /// kernels while the catalog guard is held.
        EXEC = 60,
        /// The slow-query log `RwLock` in `DbCore`.
        SLOW_LOG = 70,
        /// The prepared-statement result cache `RwLock` in `DbCore`.
        RESULT_CACHE = 80,
        /// Span/trace interior mutexes (`scidb-obs`), settable from under
        /// any engine lock.
        TRACE = 90,
        /// The metrics-registry map mutex (`scidb-obs`), the innermost
        /// lock: counters may be created from under anything else.
        METRICS = 100,
    }
}

/// Cumulative witness counters, for benchmarks and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockStats {
    /// Ordered-lock (and permit) acquisitions since process start.
    pub acquisitions: u64,
    /// Acquisitions that found the lock contended (a `try_lock` probe
    /// failed before blocking).
    pub contended: u64,
}

/// The per-thread lock witness.
///
/// Debug builds keep a thread-local stack of held ranks: [`witness::check`]
/// panics if the rank about to be acquired is not strictly greater than the
/// top of the stack, [`witness::acquired`] pushes (recording the held →
/// acquired rank pair into the `scidb-obs` metrics registry), and
/// [`witness::release`] pops. Release builds compile the stack away and
/// keep only the two global counters.
///
/// Guards are expected to stay on the acquiring thread (`std` guards are
/// `!Send`); permits that migrate are tolerated —
/// releasing a rank the current thread does not hold is a no-op.
pub mod witness {
    use super::{AtomicU64, Cell, LockStats, Ordering, Rank, RefCell};

    static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);
    static CONTENDED: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        static HELD: RefCell<Vec<Rank>> = const { RefCell::new(Vec::new()) };
        static RECORDING: Cell<bool> = const { Cell::new(false) };
    }

    /// Cumulative acquisition/contention counters.
    pub fn stats() -> LockStats {
        LockStats {
            acquisitions: ACQUISITIONS.load(Ordering::Relaxed),
            contended: CONTENDED.load(Ordering::Relaxed),
        }
    }

    /// The ranks currently held by this thread, outermost first. Always
    /// empty in release builds (the stack is debug-only).
    pub fn held() -> Vec<&'static str> {
        #[cfg(debug_assertions)]
        {
            HELD.with(|h| h.borrow().iter().map(|r| r.name()).collect())
        }
        #[cfg(not(debug_assertions))]
        {
            Vec::new()
        }
    }

    /// Validates that acquiring `rank` now respects the global order.
    ///
    /// Called *before* blocking on the lock, so an inversion panics
    /// immediately instead of deadlocking. `slot` relaxes the check for
    /// counting permits (admission slots): a thread may hold several
    /// permits of the same rank, which cannot self-deadlock, so only a
    /// strictly *lower* acquisition is an inversion there.
    pub fn check(rank: Rank, slot: bool) {
        #[cfg(debug_assertions)]
        HELD.with(|h| {
            if let Some(top) = h.borrow().last() {
                let inverted = if slot {
                    rank.level() < top.level()
                } else {
                    rank.level() <= top.level()
                };
                if inverted {
                    // Deliberate, debug-only tripwire (see DESIGN.md §13):
                    // deadlock-by-inversion becomes an attributable panic.
                    panic!(
                        "lock-order violation: acquiring {rank} while holding {top} — \
                         ranks must strictly ascend (see scidb_obs::sync::ranks)"
                    );
                }
            }
        });
        #[cfg(not(debug_assertions))]
        let _ = (rank, slot);
    }

    /// Records a successful acquisition: bumps the global counters, and in
    /// debug builds pushes `rank` onto the thread's stack and records the
    /// held → acquired pair as a `scidb.sync.pair.<held>-><acquired>`
    /// counter in the global metrics registry.
    pub fn acquired(rank: Rank, contended: bool) {
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        if contended {
            CONTENDED.fetch_add(1, Ordering::Relaxed);
        }
        #[cfg(debug_assertions)]
        HELD.with(|h| {
            let pair = h.borrow().last().map(|top| (top.name(), rank.name()));
            h.borrow_mut().push(rank);
            // Pairs into METRICS itself are not recorded: counting one
            // would re-enter the registry's own METRICS-ranked lock.
            if rank.level() < super::ranks::METRICS.level() {
                if let Some((held, acq)) = pair {
                    record_pair(held, acq);
                }
            }
        });
        #[cfg(not(debug_assertions))]
        let _ = rank;
    }

    /// Records a release: removes the innermost occurrence of `rank` from
    /// the thread's stack. Removing a rank this thread does not hold (a
    /// permit released on another thread) is a no-op.
    pub fn release(rank: Rank) {
        #[cfg(debug_assertions)]
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|r| r.level() == rank.level()) {
                held.remove(pos);
            }
        });
        #[cfg(not(debug_assertions))]
        let _ = rank;
    }

    /// Debug-only: count the (held, acquired) pair in the global registry.
    /// Creating the counter takes the registry's own METRICS-ranked lock,
    /// whose acquisition re-enters the witness — the `RECORDING` flag
    /// breaks that recursion (the inner acquisition is still order-checked,
    /// it just doesn't record a pair of its own).
    #[cfg(debug_assertions)]
    fn record_pair(held: &'static str, acquired: &'static str) {
        RECORDING.with(|r| {
            if r.get() {
                return;
            }
            r.set(true);
            crate::global()
                .counter(&format!("scidb.sync.pair.{held}->{acquired}"))
                .inc(1);
            r.set(false);
        });
    }
}

/// The one acquisition path of every ranked lock: witness-check `rank`
/// (an inversion panics in debug builds *before* blocking, so it never
/// deadlocks), take the guard `probe` returns or `block` for it, and count
/// the acquisition as contended if it had to block. A poisoned lock is
/// recovered (`into_inner`): every update under an engine lock leaves the
/// value valid at each step, so a thread that panicked holding one (a
/// test's own panic, or a connection thread's) must not take the lock down
/// with it.
fn acquire<G>(
    rank: Rank,
    probe: impl FnOnce() -> TryLockResult<G>,
    block: impl FnOnce() -> LockResult<G>,
) -> OrderedGuard<G> {
    witness::check(rank, false);
    let (raw, contended) = match probe() {
        Ok(g) => (g, false),
        Err(TryLockError::Poisoned(e)) => (e.into_inner(), false),
        Err(TryLockError::WouldBlock) => (block().unwrap_or_else(|e| e.into_inner()), true),
    };
    witness::acquired(rank, contended);
    OrderedGuard { raw, rank }
}

/// A rank-checked mutex over `std::sync::Mutex`, poison-tolerant.
#[derive(Debug)]
pub struct OrderedMutex<T> {
    rank: Rank,
    raw: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// A mutex holding `value` at `rank`.
    pub const fn new(rank: Rank, value: T) -> Self {
        OrderedMutex {
            rank,
            raw: Mutex::new(value),
        }
    }

    /// This lock's rank.
    pub const fn rank(&self) -> Rank {
        self.rank
    }

    /// Acquires the lock, witness-checked.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        acquire(self.rank, || self.raw.try_lock(), || self.raw.lock())
    }
}

/// A rank-checked reader-writer lock over `std::sync::RwLock`,
/// poison-tolerant like [`OrderedMutex`].
#[derive(Debug)]
pub struct OrderedRwLock<T> {
    rank: Rank,
    raw: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// An rwlock holding `value` at `rank`.
    pub const fn new(rank: Rank, value: T) -> Self {
        OrderedRwLock {
            rank,
            raw: RwLock::new(value),
        }
    }

    /// This lock's rank.
    pub const fn rank(&self) -> Rank {
        self.rank
    }

    /// Acquires a shared read guard, witness-checked.
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        acquire(self.rank, || self.raw.try_read(), || self.raw.read())
    }

    /// Acquires the exclusive write guard, witness-checked.
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        acquire(self.rank, || self.raw.try_write(), || self.raw.write())
    }
}

/// A `std` guard plus its witness entry, released together on drop.
#[derive(Debug)]
pub struct OrderedGuard<G> {
    raw: G,
    rank: Rank,
}

/// Guard for [`OrderedMutex`].
pub type OrderedMutexGuard<'a, T> = OrderedGuard<MutexGuard<'a, T>>;
/// Shared guard for [`OrderedRwLock`].
pub type OrderedRwLockReadGuard<'a, T> = OrderedGuard<RwLockReadGuard<'a, T>>;
/// Exclusive guard for [`OrderedRwLock`].
pub type OrderedRwLockWriteGuard<'a, T> = OrderedGuard<RwLockWriteGuard<'a, T>>;

impl<G: Deref> Deref for OrderedGuard<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.raw
    }
}

impl<G: DerefMut> DerefMut for OrderedGuard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.raw
    }
}

impl<G> Drop for OrderedGuard<G> {
    fn drop(&mut self) {
        witness::release(self.rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_strictly_ascending() {
        for w in ranks::ALL.windows(2) {
            assert!(
                w[0].level() < w[1].level(),
                "{} must be below {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn ascending_acquisition_is_clean_and_counted() {
        let before = witness::stats();
        let lo = OrderedMutex::new(ranks::TRACE, 1u8);
        let hi = OrderedMutex::new(ranks::METRICS, 2u8);
        {
            let a = lo.lock();
            let b = hi.lock();
            assert_eq!(*a + *b, 3);
            assert_eq!(witness::held(), vec!["TRACE", "METRICS"]);
        }
        assert!(witness::held().is_empty());
        let after = witness::stats();
        assert!(after.acquisitions >= before.acquisitions + 2);
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn descending_acquisition_panics_in_debug() {
        let hi = OrderedMutex::new(ranks::METRICS, ());
        let lo = OrderedMutex::new(ranks::TRACE, ());
        let _g = hi.lock();
        let _bad = lo.lock(); // METRICS held, TRACE requested: inversion.
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn same_rank_nesting_panics_in_debug() {
        let a = OrderedMutex::new(ranks::TRACE, ());
        let b = OrderedMutex::new(ranks::TRACE, ());
        let _g = a.lock();
        let _bad = b.lock();
    }

    #[test]
    fn out_of_order_release_is_tolerated() {
        let lo = OrderedMutex::new(ranks::TRACE, ());
        let hi = OrderedMutex::new(ranks::METRICS, ());
        let a = lo.lock();
        let b = hi.lock();
        drop(a); // release the outer rank first
        assert_eq!(witness::held(), vec!["METRICS"]);
        drop(b);
        assert!(witness::held().is_empty());
    }

    #[test]
    fn slot_acquisitions_allow_same_rank() {
        witness::check(ranks::ADMISSION, true);
        witness::acquired(ranks::ADMISSION, false);
        witness::check(ranks::ADMISSION, true); // second permit: fine
        witness::acquired(ranks::ADMISSION, false);
        witness::release(ranks::ADMISSION);
        witness::release(ranks::ADMISSION);
        assert!(witness::held().is_empty());
    }

    #[test]
    fn acquisition_pairs_land_in_the_registry() {
        let lo = OrderedMutex::new(ranks::SLOW_LOG, ());
        let hi = OrderedMutex::new(ranks::RESULT_CACHE, ());
        let _a = lo.lock();
        let _b = hi.lock();
        drop((_b, _a));
        let snap = crate::global().snapshot();
        assert!(
            snap.values
                .contains_key("scidb.sync.pair.SLOW_LOG->RESULT_CACHE"),
            "pair counter missing: {:?}",
            snap.values.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn rwlock_read_write_and_witness_roundtrip() {
        let l = OrderedRwLock::new(ranks::CATALOG, 5u32);
        {
            let r = l.read();
            assert_eq!(*r, 5);
            assert_eq!(witness::held(), vec!["CATALOG"]);
        }
        {
            let mut w = l.write();
            *w += 1;
            assert_eq!(witness::held(), vec!["CATALOG"]);
        }
        assert_eq!(*l.read(), 6);
        assert!(witness::held().is_empty());
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn rank_inversion_panics_across_lock_flavors() {
        // Same inversion shape as the R7 seeded fixture: take the higher
        // rank first, then request a lower one.
        let cache = OrderedRwLock::new(ranks::RESULT_CACHE, ());
        let storage = OrderedMutex::new(ranks::STORAGE, ());
        let _held = cache.read();
        let _bad = storage.lock();
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn rwlock_under_same_rank_rwlock_panics() {
        let a = OrderedRwLock::new(ranks::CATALOG, ());
        let b = OrderedRwLock::new(ranks::CATALOG, ());
        let _g = a.read();
        let _bad = b.write();
    }

    #[test]
    fn contended_acquisitions_are_counted() {
        use std::sync::atomic::AtomicBool;
        let l = OrderedMutex::new(ranks::STORAGE, 0u64);
        let attempting = AtomicBool::new(false);
        let before = witness::stats();
        std::thread::scope(|s| {
            let held = l.lock();
            s.spawn(|| {
                attempting.store(true, Ordering::SeqCst);
                let mut g = l.lock(); // probe fails: main thread holds it
                *g += 1;
            });
            while !attempting.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            // Give the spawned thread time to run its try_lock probe
            // against the still-held mutex before we release it.
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(held);
        });
        let after = witness::stats();
        assert_eq!(*l.lock(), 1);
        assert!(after.acquisitions > before.acquisitions);
        assert!(after.contended > before.contended, "{after:?} {before:?}");
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let m = std::sync::Arc::new(OrderedMutex::new(ranks::TRACE, 7u8));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }

    /// `std` poisons an `RwLock` whose writer panicked; the catalog must
    /// outlive a connection thread that does.
    #[test]
    fn a_writer_that_panics_does_not_poison_the_rwlock() {
        let l = std::sync::Arc::new(OrderedRwLock::new(ranks::CATALOG, 1u32));
        let l2 = std::sync::Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let mut w = l2.write();
            *w = 2;
            panic!("poison it");
        })
        .join();
        assert_eq!(*l.read(), 2);
        *l.write() += 1;
        assert_eq!(*l.read(), 3);
        assert!(witness::held().is_empty());
    }
}
