//! `std::sync`-backed stand-in for the subset of `parking_lot` the
//! repository uses. Same call shapes (no `Result` from `lock`, `Condvar::
//! wait` takes `&mut guard`); different behaviour in two places: a lock
//! poisoned by a panicking holder is recovered rather than never poisoned,
//! and fairness/spin behaviour is whatever `std` gives.

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};

#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// Holds the `std` guard in an `Option` so `Condvar::wait` can move it out
/// and back while the caller keeps a `&mut` to this wrapper.
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present outside Condvar::wait")
    }
}

#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Atomically release the lock and block; the lock is held again on
    /// return. Spurious wake-ups are possible, as with the real crate.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present outside Condvar::wait");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_guards_exclusive_access() {
        let m = Arc::new(Mutex::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn condvar_wakes_a_waiter_and_reacquires_the_lock() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let waiter = Arc::clone(&pair);
            s.spawn(move || {
                let (lock, cv) = &*waiter;
                let mut ready = lock.lock();
                tx.send(()).expect("main thread is receiving");
                while !*ready {
                    cv.wait(&mut ready);
                }
                // Lock is held again here: writing through the guard must work.
                *ready = false;
            });
            // The waiter holds the lock until it parks in `wait`, so taking
            // the lock after its signal proves it is waiting (or about to
            // re-check the flag): no lost wake-up either way.
            rx.recv().expect("waiter signals before parking");
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        });
        assert!(!*pair.0.lock(), "waiter saw the flag and reset it");
    }

    #[test]
    fn poisoned_locks_are_recovered() {
        let m = Arc::new(Mutex::new(5));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the mutex");
        })
        .join();
        assert_eq!(*m.lock(), 5);
    }

    #[test]
    fn rwlock_allows_shared_readers_then_a_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
        }
        l.write().push(3);
        assert_eq!(*l.read(), [1, 2, 3]);
    }
}
