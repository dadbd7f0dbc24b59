//! The workspace's one lock type. **No guard is taken while the same
//! thread holds another**, so no lock-order deadlock can form: each shared
//! structure sits behind one [`Mutex`], and every site locks, copies or
//! inserts, and drops. In debug builds [`Mutex::lock`] enforces the rule
//! with a thread-local flag and panics at a nesting, so it fails the first
//! test that reaches it instead of hanging under some interleaving. The
//! flag has no destructor, so locking still works while thread-locals are
//! torn down. Release builds carry no flag and no check.
//!
//! Poisoning is recovered here, in one place: every structure behind these
//! locks is valid at every step, and instrumentation must never turn an
//! unrelated panic into a second one.

#![expect(
    clippy::disallowed_types,
    reason = "the checked wrapper's one definition over std::sync::Mutex"
)]

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, PoisonError};

/// A mutual-exclusion lock whose guards may not nest on one thread (see
/// the [module docs](self)).
#[derive(Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// The guard of a [`Mutex`]; unlocks on drop.
pub struct MutexGuard<'a, T> {
    inner: std::sync::MutexGuard<'a, T>,
    _held: Held,
}

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Blocks until the lock is acquired, recovering a poisoned lock.
    ///
    /// # Panics
    ///
    /// In debug builds, if the calling thread already holds a guard of any
    /// [`Mutex`].
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = Held::take();
        MutexGuard {
            inner: self.0.lock().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }
}

impl<'a, T> MutexGuard<'a, T> {
    /// Releases the lock and blocks on `cv` until notified, then
    /// reacquires it (spurious wake-ups included, as [`Condvar::wait`]).
    pub fn wait(self, cv: &Condvar) -> MutexGuard<'a, T> {
        let MutexGuard { inner, _held } = self;
        MutexGuard {
            inner: cv.wait(inner).unwrap_or_else(PoisonError::into_inner),
            _held,
        }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// Proof that this thread holds one guard: dropping it (also on unwind)
/// clears the thread's flag. Zero-sized and inert in release builds.
struct Held;

#[cfg(debug_assertions)]
thread_local! {
    static HOLDS_GUARD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl Held {
    #[cfg_attr(
        debug_assertions,
        expect(
            clippy::panic,
            reason = "a nested guard is a bug in this program, reported where it is written"
        )
    )]
    #[inline]
    fn take() -> Held {
        #[cfg(debug_assertions)]
        if HOLDS_GUARD.with(|h| h.replace(true)) {
            panic!("nss_obs::sync::Mutex locked while this thread holds another guard");
        }
        Held
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HOLDS_GUARD.with(|h| h.set(false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "holds another guard")]
    fn second_guard_panics() {
        let (a, b) = (Mutex::new(1), Mutex::new(2));
        let _a = a.lock();
        let _b = b.lock();
    }

    #[test]
    fn flag_is_cleared_on_unwind() {
        let m = Mutex::new(0);
        let r = std::panic::catch_unwind(|| {
            let _g = m.lock();
            panic!("while locked");
        });
        assert!(r.is_err());
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn poisoned_lock_is_recovered() {
        let m = Arc::new(Mutex::new(vec![1]));
        let m2 = Arc::clone(&m);
        let joined = std::thread::spawn(move || {
            let mut g = m2.lock();
            g.push(2);
            panic!("poison it");
        })
        .join();
        assert!(joined.is_err());
        m.lock().push(3);
        assert_eq!(*m.lock(), [1, 2, 3]);
    }

    #[test]
    fn wait_hands_the_guard_back() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let other = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            *other.0.lock() = true;
            other.1.notify_all();
        });
        let mut ready = pair.0.lock();
        while !*ready {
            ready = ready.wait(&pair.1);
        }
        *ready = false;
        drop(ready);
        t.join().expect("notifier");
        // The flag travelled with the guard: a fresh lock still works.
        assert!(!*pair.0.lock());
    }
}
