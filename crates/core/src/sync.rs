//! A non-poisoning mutex.
//!
//! The DSM runtime takes short, local-only critical sections from both a
//! node's compute thread and whichever thread serves its requests. The
//! `parking_lot` API it was designed against returns the guard directly from
//! `lock()`; this stand-in wraps `std::sync::Mutex` and recovers from
//! poisoning (a panicked critical section in this codebase can only have
//! completed or not-started a single field update, so continuing is safe —
//! and test harnesses want the panic itself, not a cascade of poison errors).

use std::fmt;
use std::sync::MutexGuard;

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub fn new(value: T) -> Mutex<T> {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires the lock if it is free.
    fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &*guard).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_guards_mutation() {
        let m = Mutex::new(0u32);
        *m.lock() += 5;
        assert_eq!(*m.lock(), 5);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let m = Mutex::new(());
        let guard = m.lock();
        assert!(m.try_lock().is_none());
        drop(guard);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn survives_a_poisoning_panic() {
        let m = std::sync::Arc::new(Mutex::new(1u32));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // The value is still reachable.
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn debug_renders_data() {
        let m = Mutex::new(42u8);
        assert!(format!("{m:?}").contains("42"));
    }
}
