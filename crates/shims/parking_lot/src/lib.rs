//! Offline shim for the `parking_lot` API subset this workspace uses.
//!
//! The build environment has no registry access, so the workspace vendors a std-backed
//! stand-in: same method signatures (`lock()`/`read()`/`write()` return guards directly,
//! no `Result`), poison is ignored by design — a panicked writer aborts the test anyway,
//! and GSN's lock scopes never leave partially updated state behind on panic.

use std::sync::{self, PoisonError};

/// A mutual-exclusion lock whose `lock` method returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// RAII guard for [`Mutex`].
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose `read`/`write` methods return guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

/// Shared RAII guard for [`RwLock`].
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
/// Exclusive RAII guard for [`RwLock`].
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    #[allow(clippy::disallowed_methods)] // the property under test needs other threads
    fn mutex_guards_data() {
        let m = Arc::new(Mutex::new(0u32));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 400);
    }

    #[test]
    fn rwlock_allows_parallel_reads() {
        let l = RwLock::new(5);
        let a = l.read();
        let b = l.read();
        assert_eq!(*a + *b, 10);
        drop((a, b));
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }
}
