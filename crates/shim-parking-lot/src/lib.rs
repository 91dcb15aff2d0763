//! Offline stand-in for `parking_lot`: poison-free `Mutex`, `RwLock` and
//! `Condvar` built on `std::sync`. Only the surface `simgrid` uses is
//! provided — `Mutex::lock`, `RwLock::read` and `RwLock::write` returning
//! a guard directly (no `Result`), and `Condvar::wait` taking
//! `&mut MutexGuard`.

use std::ops::{Deref, DerefMut};
use std::sync::{RwLockReadGuard, RwLockWriteGuard};

pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(t: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(t),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            guard: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }
}

/// Guard wrapping the std guard in an `Option` so [`Condvar::wait`] can
/// temporarily take ownership while blocking (parking_lot waits through a
/// `&mut` guard; std consumes and returns it).
pub struct MutexGuard<'a, T: ?Sized> {
    guard: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present")
    }
}

/// Reader-writer lock: any number of readers or one writer. The guards are
/// std's — they deref exactly as parking_lot's do.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(t: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(t),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Block until notified, releasing the guarded mutex while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.guard.take().expect("guard present");
        let g = self.inner.wait(g).unwrap_or_else(|e| e.into_inner());
        guard.guard = Some(g);
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_guards_data() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn rwlock_shares_reads_and_survives_a_poisoning_writer() {
        let l = Arc::new(RwLock::new(vec![1, 2]));
        {
            let (a, b) = (l.read(), l.read());
            assert_eq!(a.len() + b.len(), 4);
        }
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let mut w = l2.write();
            w.push(3);
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*l.read(), vec![1, 2, 3]);
        l.write().clear();
        assert!(l.read().is_empty());
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut done = lock.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        let (lock, cv) = &*pair;
        *lock.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }
}
