//! Ranked lock wrappers for the engine crates.
//!
//! Every lock in `scidb-core`, `scidb-storage`, `scidb-query`, and
//! `scidb-server` is one of these wrappers, constructed with a compile-time
//! [`Rank`] from the single [`ranks`] registry (owned by `scidb-obs`, the
//! dependency root, and re-exported here). Acquisitions are validated by
//! the debug-only per-thread [`witness`]: acquiring a rank that is not
//! strictly above every rank the thread already holds panics immediately
//! (tests/debug builds only — release builds keep just two relaxed
//! counters), so a lock-order inversion fails a test instead of deadlocking
//! a server. See DESIGN.md §13 for the rank table and how to add a lock.
//!
//! The wrappers are parking_lot-backed (no poisoning, mapped guards for
//! borrowing one field of the locked value). `cargo xtask analyze` rule R7
//! forbids raw `Mutex`/`RwLock`/`Condvar` outside the `sync.rs` wrapper
//! modules and statically checks the acquisition graph against the rank
//! table; R8 forbids blocking calls while a `CATALOG`-or-higher write guard
//! is live.

use parking_lot::{
    MappedRwLockReadGuard, MappedRwLockWriteGuard, Mutex, MutexGuard, RwLock, RwLockReadGuard,
    RwLockWriteGuard,
};

pub use scidb_obs::sync::{ranks, witness, LockStats, Rank};

/// Cumulative witness counters (acquisitions / contended acquisitions),
/// shared with `scidb-obs`. Surfaced by the `server_load` bench.
pub fn lock_stats() -> LockStats {
    witness::stats()
}

/// A rank-checked mutual-exclusion lock (parking_lot-backed).
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

    /// Acquires the lock, witness-checked (panics on rank inversion in
    /// debug builds *before* blocking, so inversions never deadlock).
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        witness::check(self.rank, false);
        let (guard, contended) = match self.raw.try_lock() {
            Some(g) => (g, false),
            None => (self.raw.lock(), true),
        };
        witness::acquired(self.rank, contended);
        OrderedMutexGuard {
            raw: Some(guard),
            rank: self.rank,
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.raw.into_inner()
    }
}

/// Guard for [`OrderedMutex`]; releases the witness entry on drop.
pub struct OrderedMutexGuard<'a, T> {
    raw: Option<MutexGuard<'a, T>>,
    rank: Rank,
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.raw {
            Some(g) => g,
            None => unreachable!("guard accessed after release"),
        }
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.raw {
            Some(g) => g,
            None => unreachable!("guard accessed after release"),
        }
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.raw.take().is_some() {
            witness::release(self.rank);
        }
    }
}

/// A rank-checked reader-writer lock (parking_lot-backed) with mapped
/// guards ([`OrderedRwLockReadGuard::map`] and friends) for handing out
/// borrows of one field of the locked value.
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
        witness::check(self.rank, false);
        let (guard, contended) = match self.raw.try_read() {
            Some(g) => (g, false),
            None => (self.raw.read(), true),
        };
        witness::acquired(self.rank, contended);
        OrderedRwLockReadGuard {
            raw: Some(guard),
            rank: self.rank,
        }
    }

    /// Acquires the exclusive write guard, witness-checked.
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        witness::check(self.rank, false);
        let (guard, contended) = match self.raw.try_write() {
            Some(g) => (g, false),
            None => (self.raw.write(), true),
        };
        witness::acquired(self.rank, contended);
        OrderedRwLockWriteGuard {
            raw: Some(guard),
            rank: self.rank,
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.raw.into_inner()
    }
}

macro_rules! guard_impls {
    ($guard:ident, $raw:ident $(, $mut_:tt)?) => {
        impl<T> std::ops::Deref for $guard<'_, T> {
            type Target = T;
            fn deref(&self) -> &T {
                match &self.raw {
                    Some(g) => g,
                    None => unreachable!("guard accessed after release"),
                }
            }
        }

        $(
            impl<T> std::ops::DerefMut for $guard<'_, T> {
                fn deref_mut(&mut self) -> &$mut_ T {
                    match &mut self.raw {
                        Some(g) => g,
                        None => unreachable!("guard accessed after release"),
                    }
                }
            }
        )?

        impl<T> Drop for $guard<'_, T> {
            fn drop(&mut self) {
                if self.raw.take().is_some() {
                    witness::release(self.rank);
                }
            }
        }
    };
}

/// Shared guard for [`OrderedRwLock`]; releases the witness entry on drop.
pub struct OrderedRwLockReadGuard<'a, T> {
    raw: Option<RwLockReadGuard<'a, T>>,
    rank: Rank,
}
guard_impls!(OrderedRwLockReadGuard, RwLockReadGuard);

/// Exclusive guard for [`OrderedRwLock`]; releases the witness entry on
/// drop.
pub struct OrderedRwLockWriteGuard<'a, T> {
    raw: Option<RwLockWriteGuard<'a, T>>,
    rank: Rank,
}
guard_impls!(OrderedRwLockWriteGuard, RwLockWriteGuard, mut);

/// A read guard mapped to one component of the locked value. The
/// underlying lock (and its witness entry) stays held until this drops.
pub struct OrderedMappedReadGuard<'a, T: ?Sized> {
    raw: Option<MappedRwLockReadGuard<'a, T>>,
    rank: Rank,
}

/// A write guard mapped to one component of the locked value. The
/// underlying lock (and its witness entry) stays held until this drops.
pub struct OrderedMappedWriteGuard<'a, T: ?Sized> {
    raw: Option<MappedRwLockWriteGuard<'a, T>>,
    rank: Rank,
}

impl<T: ?Sized> std::ops::Deref for OrderedMappedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.raw {
            Some(g) => g,
            None => unreachable!("guard accessed after release"),
        }
    }
}

impl<T: ?Sized> Drop for OrderedMappedReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.raw.take().is_some() {
            witness::release(self.rank);
        }
    }
}

impl<T: ?Sized> std::ops::Deref for OrderedMappedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.raw {
            Some(g) => g,
            None => unreachable!("guard accessed after release"),
        }
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedMappedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.raw {
            Some(g) => g,
            None => unreachable!("guard accessed after release"),
        }
    }
}

impl<T: ?Sized> Drop for OrderedMappedWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.raw.take().is_some() {
            witness::release(self.rank);
        }
    }
}

impl<'a, T> OrderedRwLockReadGuard<'a, T> {
    /// Maps the guard to a component of the locked value.
    pub fn map<U: ?Sized>(
        mut guard: Self,
        f: impl FnOnce(&T) -> &U,
    ) -> OrderedMappedReadGuard<'a, U> {
        let rank = guard.rank;
        let raw = match guard.raw.take() {
            Some(g) => g,
            None => unreachable!("guard mapped after release"),
        };
        // `guard` drops with `raw == None`, keeping the witness entry; the
        // mapped guard inherits responsibility for releasing it.
        OrderedMappedReadGuard {
            raw: Some(RwLockReadGuard::map(raw, f)),
            rank,
        }
    }

    /// Maps the guard to a component selected by `f`, or returns the
    /// original guard when `f` declines.
    // analyze: allow(R4, guard-mapping idiom — the Err arm returns the original guard, not an error)
    pub fn try_map<U: ?Sized>(
        mut guard: Self,
        f: impl FnOnce(&T) -> Option<&U>,
    ) -> Result<OrderedMappedReadGuard<'a, U>, Self> {
        let rank = guard.rank;
        let raw = match guard.raw.take() {
            Some(g) => g,
            None => unreachable!("guard mapped after release"),
        };
        match RwLockReadGuard::try_map(raw, f) {
            Ok(m) => Ok(OrderedMappedReadGuard { raw: Some(m), rank }),
            Err(g) => {
                guard.raw = Some(g);
                Err(guard)
            }
        }
    }
}

impl<'a, T> OrderedRwLockWriteGuard<'a, T> {
    /// Maps the guard to a component of the locked value.
    pub fn map<U: ?Sized>(
        mut guard: Self,
        f: impl FnOnce(&mut T) -> &mut U,
    ) -> OrderedMappedWriteGuard<'a, U> {
        let rank = guard.rank;
        let raw = match guard.raw.take() {
            Some(g) => g,
            None => unreachable!("guard mapped after release"),
        };
        OrderedMappedWriteGuard {
            raw: Some(RwLockWriteGuard::map(raw, f)),
            rank,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        }
        assert_eq!(*l.read(), 6);
        assert!(witness::held().is_empty());
        assert_eq!(l.into_inner(), 6);
    }

    #[test]
    fn mapped_guards_keep_the_witness_entry_until_drop() {
        struct S {
            a: u8,
            b: u8,
        }
        let l = OrderedRwLock::new(ranks::CATALOG, S { a: 1, b: 2 });
        let m = OrderedRwLockReadGuard::map(l.read(), |s| &s.a);
        assert_eq!(*m, 1);
        assert_eq!(witness::held(), vec!["CATALOG"]);
        drop(m);
        assert!(witness::held().is_empty());

        let mut w = OrderedRwLockWriteGuard::map(l.write(), |s| &mut s.b);
        *w = 9;
        assert_eq!(witness::held(), vec!["CATALOG"]);
        drop(w);
        assert!(witness::held().is_empty());
        assert_eq!(l.read().b, 9);
    }

    #[test]
    fn try_map_declining_returns_the_guard_still_held() {
        let l = OrderedRwLock::new(ranks::CATALOG, 3u8);
        let g = l.read();
        let back = match OrderedRwLockReadGuard::try_map(g, |_| None::<&u8>) {
            Err(g) => g,
            Ok(_) => panic!("mapping must decline"),
        };
        assert_eq!(witness::held(), vec!["CATALOG"], "guard survives Err");
        assert_eq!(*back, 3);
        drop(back);
        assert!(witness::held().is_empty());
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn rank_inversion_panics_across_wrapper_flavors() {
        // Same inversion shape as the R7 seeded fixture: take the higher
        // rank first, then request a lower one.
        let cache = OrderedRwLock::new(ranks::RESULT_CACHE, ());
        let catalog = OrderedRwLock::new(ranks::CATALOG, ());
        let _held = cache.read();
        let _bad = catalog.read();
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn mutex_under_same_rank_mutex_panics() {
        let a = OrderedMutex::new(ranks::STORAGE, ());
        let b = OrderedMutex::new(ranks::STORAGE, ());
        let _g = a.lock();
        let _bad = b.lock();
    }

    #[test]
    fn contended_acquisitions_are_counted() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let l = OrderedMutex::new(ranks::STORAGE, 0u64);
        let attempting = AtomicBool::new(false);
        let before = lock_stats();
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
        let after = lock_stats();
        assert_eq!(*l.lock(), 1);
        assert!(after.acquisitions > before.acquisitions);
        assert!(after.contended > before.contended, "{after:?} {before:?}");
    }
}
