#![cfg(loom)]
//! Loom model of the core-permit protocol the pilot agent's slots use for
//! [`pilot::LocalExecutor`]'s units (`pilot::agent::Permits`).
//!
//! A slot acquires a unit's `cores` permits before running its payload and
//! releases them after; the invariants are (a) the pool never oversubscribes and
//! (b) a release never strands a satisfiable waiter (lost wakeup — which
//! loom reports as a deadlock when a spawned thread can't finish).
//!
//! ```sh
//! cargo add loom --dev --package pilot
//! RUSTFLAGS="--cfg loom" cargo test -p pilot --test loom_permits
//! ```

use loom::sync::Arc;
use pilot::Permits;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn pool_never_oversubscribes() {
    loom::model(|| {
        let permits = Arc::new(Permits::new(1));
        let held = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let p = Arc::clone(&permits);
                let held = Arc::clone(&held);
                loom::thread::spawn(move || {
                    p.acquire(1);
                    let now = held.fetch_add(1, Ordering::SeqCst) + 1;
                    assert!(now <= 1, "{now} holders of a 1-permit pool");
                    held.fetch_sub(1, Ordering::SeqCst);
                    p.release(1);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(permits.available(), 1);
    });
}

#[test]
fn contended_waiters_are_always_woken() {
    loom::model(|| {
        let permits = Arc::new(Permits::new(1));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let p = Arc::clone(&permits);
                loom::thread::spawn(move || {
                    p.acquire(1);
                    p.release(1);
                })
            })
            .collect();
        // If a wakeup could be lost, some interleaving would leave a
        // thread blocked in acquire forever and loom would flag it.
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(permits.available(), 1);
    });
}

#[test]
fn wide_acquire_takes_the_whole_pool() {
    loom::model(|| {
        let permits = Arc::new(Permits::new(2));
        let p = Arc::clone(&permits);
        let narrow = loom::thread::spawn(move || {
            p.acquire(1);
            p.release(1);
        });
        permits.acquire(2);
        assert_eq!(permits.available(), 0, "wide holder owns every permit");
        permits.release(2);
        narrow.join().unwrap();
        assert_eq!(permits.available(), 2);
    });
}
