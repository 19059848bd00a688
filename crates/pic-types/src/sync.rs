//! A poison-recovering [`Mutex`] that refuses to nest (DESIGN.md §14).
//!
//! `lock()` never panics on a poisoned lock: a panic in one critical
//! section must not take down every later thread that touches the same
//! lock (the resident service's "one panicked handler kills every later
//! connection" failure). That is sound only because every critical section
//! in the workspace leaves its data valid at every step — bookkeeping
//! only, never a half-applied multi-step update.
//!
//! No critical section holds two locks, and none enters the shared thread
//! pool, so no lock order exists to get wrong. Debug builds check both:
//! each thread counts the locks it holds, [`Mutex::lock`] asserts the
//! count is zero, and [`crate::pool::install`] asserts the same. Release
//! builds keep no count.

use std::sync::PoisonError;

#[cfg(debug_assertions)]
thread_local! {
    /// Locks the current thread holds (0 or 1).
    static HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Panic, in debug builds, if the calling thread holds a [`Mutex`];
/// `context` names what it was about to do.
#[inline]
pub(crate) fn assert_no_lock_held(context: &str) {
    #[cfg(debug_assertions)]
    assert_eq!(HELD.with(|h| h.get()), 0, "{context} while holding a lock");
    #[cfg(not(debug_assertions))]
    let _ = context;
}

/// A mutex whose [`Mutex::lock`] recovers a poisoned lock and, in debug
/// builds, asserts that the thread holds no other lock.
pub struct Mutex<T>(std::sync::Mutex<T>);

/// Guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T>(std::sync::MutexGuard<'a, T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex holding `value`.
    pub fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquire, recovering a poisoned lock instead of panicking.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        assert_no_lock_held("nested lock");
        let guard = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        #[cfg(debug_assertions)]
        HELD.with(|h| h.set(h.get() + 1));
        MutexGuard(guard)
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        HELD.with(|h| h.set(h.get() - 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_roundtrip_and_counters() {
        let m = Mutex::new(7u32);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 8);
        // every guard is gone: the held count is back to zero
        assert_no_lock_held("test");
    }

    /// A panic under the lock poisons it; the next acquisition on the same
    /// thread recovers the data instead of panicking, and the unwound
    /// guard no longer counts as held.
    #[test]
    fn poison_is_recovered_not_cascaded() {
        let m = Mutex::new(vec![1, 2, 3]);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock();
            panic!("poison the lock");
        }));
        assert!(unwound.is_err());
        assert!(m.0.is_poisoned());
        assert_eq!(m.lock().len(), 3);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "nested lock while holding a lock")]
    fn nested_lock_panics() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        let _a = a.lock();
        let _b = b.lock();
    }
}
