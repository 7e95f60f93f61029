//! Stand-in for the part of `parking_lot` that `scidb_core::sync` uses:
//! a non-poisoning `Mutex`, and an `RwLock` whose guards can be mapped to
//! one component of the locked value. Backed by `std::sync`; the sandbox
//! has no crate registry, and the benchmark builds the engine from source.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{PoisonError, TryLockError};

pub use std::sync::MutexGuard;

/// A mutex that ignores poisoning, as parking_lot's does.
#[derive(Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        acquired(self.0.try_lock())
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Mutex { .. }")
    }
}

/// A reader-writer lock with mappable guards: std's lock around `()` does
/// the locking, and the value sits beside it.
pub struct RwLock<T> {
    raw: std::sync::RwLock<()>,
    data: UnsafeCell<T>,
}

// SAFETY: the lock hands out `&T` to many threads at once (needs `T: Sync`)
// and `&mut T` to one thread at a time (needs `T: Send`), as std's does.
unsafe impl<T: Send> Send for RwLock<T> {}
// SAFETY: as above.
unsafe impl<T: Send + Sync> Sync for RwLock<T> {}

/// `None` when the lock is held the other way.
fn acquired<G>(r: Result<G, TryLockError<G>>) -> Option<G> {
    match r {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock {
            raw: std::sync::RwLock::new(()),
            data: UnsafeCell::new(value),
        }
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.read_guard(self.raw.read().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        acquired(self.raw.try_read()).map(|held| self.read_guard(held))
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.write_guard(self.raw.write().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        acquired(self.raw.try_write()).map(|held| self.write_guard(held))
    }

    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    fn read_guard<'a>(
        &'a self,
        held: std::sync::RwLockReadGuard<'a, ()>,
    ) -> RwLockReadGuard<'a, T> {
        MappedRwLockReadGuard {
            _held: held,
            data: self.data.get(),
        }
    }

    fn write_guard<'a>(
        &'a self,
        held: std::sync::RwLockWriteGuard<'a, ()>,
    ) -> RwLockWriteGuard<'a, T> {
        MappedRwLockWriteGuard {
            _held: held,
            data: self.data.get(),
        }
    }
}

impl<T> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RwLock { .. }")
    }
}

/// A shared guard, possibly narrowed to one component of the locked value.
/// Invariant: `data` points into the value that the lock `_held` belongs to
/// protects; dropping the guard drops `_held`, which releases the lock.
pub struct MappedRwLockReadGuard<'a, T: ?Sized> {
    _held: std::sync::RwLockReadGuard<'a, ()>,
    data: *const T,
}

/// The unmapped guard is the same type: mapping only moves the pointer.
pub type RwLockReadGuard<'a, T> = MappedRwLockReadGuard<'a, T>;

impl<'a, T: ?Sized> MappedRwLockReadGuard<'a, T> {
    pub fn map<U: ?Sized>(guard: Self, f: impl FnOnce(&T) -> &U) -> MappedRwLockReadGuard<'a, U> {
        // SAFETY: the shared lock is held (type invariant), so no writer
        // exists while `f` reads through the pointer.
        let data: *const U = f(unsafe { &*guard.data });
        MappedRwLockReadGuard {
            _held: guard._held,
            data,
        }
    }

    pub fn try_map<U: ?Sized>(
        guard: Self,
        f: impl FnOnce(&T) -> Option<&U>,
    ) -> Result<MappedRwLockReadGuard<'a, U>, Self> {
        // SAFETY: as in `map`.
        match f(unsafe { &*guard.data }) {
            Some(u) => {
                let data: *const U = u;
                Ok(MappedRwLockReadGuard {
                    _held: guard._held,
                    data,
                })
            }
            None => Err(guard),
        }
    }
}

impl<T: ?Sized> Deref for MappedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the shared lock is held for the guard's lifetime.
        unsafe { &*self.data }
    }
}

/// An exclusive guard, possibly narrowed to one component of the locked
/// value. Invariant: as for the shared guard, with the lock held exclusively.
pub struct MappedRwLockWriteGuard<'a, T: ?Sized> {
    _held: std::sync::RwLockWriteGuard<'a, ()>,
    data: *mut T,
}

pub type RwLockWriteGuard<'a, T> = MappedRwLockWriteGuard<'a, T>;

impl<'a, T: ?Sized> MappedRwLockWriteGuard<'a, T> {
    pub fn map<U: ?Sized>(
        guard: Self,
        f: impl FnOnce(&mut T) -> &mut U,
    ) -> MappedRwLockWriteGuard<'a, U> {
        // SAFETY: the exclusive lock is held (type invariant) and `guard`
        // is consumed, so this is the only live reference.
        let data: *mut U = f(unsafe { &mut *guard.data });
        MappedRwLockWriteGuard {
            _held: guard._held,
            data,
        }
    }

    pub fn try_map<U: ?Sized>(
        guard: Self,
        f: impl FnOnce(&mut T) -> Option<&mut U>,
    ) -> Result<MappedRwLockWriteGuard<'a, U>, Self> {
        // SAFETY: as in `map`.
        match f(unsafe { &mut *guard.data }) {
            Some(u) => {
                let data: *mut U = u;
                Ok(MappedRwLockWriteGuard {
                    _held: guard._held,
                    data,
                })
            }
            None => Err(guard),
        }
    }
}

impl<T: ?Sized> Deref for MappedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the exclusive lock is held for the guard's lifetime.
        unsafe { &*self.data }
    }
}

impl<T: ?Sized> DerefMut for MappedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the exclusive lock is held and `&mut self` is unique.
        unsafe { &mut *self.data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn readers_share_and_writer_excludes() {
        let l = RwLock::new((1u32, 2u32));
        let a = l.read();
        let b = l.try_read().expect("readers share");
        assert!(l.try_write().is_none());
        let first = RwLockReadGuard::map(a, |v| &v.0);
        assert_eq!(*first, 1);
        drop((first, b));
        let mut w = RwLockWriteGuard::map(l.write(), |v| &mut v.1);
        *w = 7;
        assert!(l.try_read().is_none());
        drop(w);
        assert_eq!(*l.read(), (1, 7));
    }

    #[test]
    fn try_map_returns_the_guard_when_declined() {
        let l = RwLock::new(3u8);
        let g = match RwLockReadGuard::try_map(l.read(), |_| None::<&u8>) {
            Err(g) => g,
            Ok(_) => panic!("declined"),
        };
        assert_eq!(*g, 3);
        drop(g);
        assert!(l.try_write().is_some());
    }

    #[test]
    fn writers_are_exclusive_across_threads() {
        let l = Arc::new(RwLock::new(0u64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *l.write() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("writer thread");
        }
        assert_eq!(*l.read(), 4000);
    }
}
