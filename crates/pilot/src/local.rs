//! Real-thread executor: payloads run concurrently on actual cores and are
//! charged their measured wall time. Built on `std` alone: one OS thread per
//! unit, a `std::sync::mpsc` channel for completions, and a mutex + condvar
//! permit count ([`Permits`]) for the core budget.

use crate::description::UnitDescription;
use crate::executor::{CompletedUnit, Executor, TaskWork, UnitId};
use hpc::SimTime;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, PoisonError};
use std::time::Instant;

#[cfg(loom)]
use loom::sync;
#[cfg(not(loom))]
use std::sync;

/// Core-permit accounting shared with worker threads. A unit requesting
/// `k` cores holds `k` permits for its whole run.
///
/// One body over `sync`: `std::sync` in production, loom's modeled
/// primitives under `--cfg loom`, where `tests/loom_permits.rs`
/// exhaustively checks the acquire/release protocol for over-subscription
/// and lost wakeups. Every update leaves the count valid, so a poisoned
/// lock is recovered rather than propagated.
pub struct Permits {
    available: sync::Mutex<usize>,
    cv: sync::Condvar,
}

impl Permits {
    pub fn new(cores: usize) -> Self {
        Permits { available: sync::Mutex::new(cores), cv: sync::Condvar::new() }
    }

    /// Block until `n` permits are free, then take them.
    pub fn acquire(&self, n: usize) {
        let mut avail = self.available.lock().unwrap_or_else(PoisonError::into_inner);
        while *avail < n {
            avail = self.cv.wait(avail).unwrap_or_else(PoisonError::into_inner);
        }
        *avail -= n;
    }

    /// Return `n` permits and wake every waiter: waiters need different
    /// permit counts, so a single `notify_one` could wake a waiter whose
    /// demand still isn't met while a satisfiable one keeps sleeping.
    pub fn release(&self, n: usize) {
        *self.available.lock().unwrap_or_else(PoisonError::into_inner) += n;
        self.cv.notify_all();
    }

    /// Currently free permits (a racy snapshot, for observability only).
    pub fn available(&self) -> usize {
        *self.available.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Executes units on real threads, limiting concurrency to a core budget.
/// A unit requesting `k` cores holds `k` permits for its whole run.
pub struct LocalExecutor<R> {
    cores: usize,
    permits: Arc<Permits>,
    epoch: Instant,
    tx: Sender<CompletedUnit<R>>,
    rx: Receiver<CompletedUnit<R>>,
    outstanding: usize,
    next_id: u64,
    overhead: f64,
    recorder: obs::Recorder,
}

impl<R: Send + 'static> LocalExecutor<R> {
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0);
        let (tx, rx) = channel();
        LocalExecutor {
            cores,
            permits: Arc::new(Permits::new(cores)),
            epoch: Instant::now(),
            tx,
            rx,
            outstanding: 0,
            next_id: 0,
            overhead: 0.0,
            recorder: obs::Recorder::default(),
        }
    }
}

impl<R: Send + 'static> Executor<R> for LocalExecutor<R> {
    fn submit(&mut self, desc: UnitDescription, work: TaskWork<R>) -> Result<UnitId, String> {
        desc.validate()?;
        if desc.cores > self.cores {
            return Err(format!(
                "unit {} needs {} cores but the pool has {}",
                desc.name, desc.cores, self.cores
            ));
        }
        let id = UnitId(self.next_id);
        self.next_id += 1;
        self.outstanding += 1;
        self.recorder.count("pilot.units_submitted", 1);
        let permits = Arc::clone(&self.permits);
        let tx = self.tx.clone();
        let epoch = self.epoch;
        let cores = desc.cores;
        let name = desc.name;
        std::thread::spawn(move || {
            permits.acquire(cores);
            let start = SimTime::seconds(epoch.elapsed().as_secs_f64());
            // Payload panics become failures rather than poisoning the pool.
            let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)) {
                Ok(r) => r,
                Err(_) => Err("task panicked".to_string()),
            };
            let end = SimTime::seconds(epoch.elapsed().as_secs_f64());
            permits.release(cores);
            // Receiver may be gone if the executor was dropped; ignore.
            let _ = tx.send(CompletedUnit { id, name, cores, start, end, outcome });
        });
        Ok(id)
    }

    fn next_completion(&mut self) -> Option<CompletedUnit<R>> {
        if self.outstanding == 0 {
            return None;
        }
        let unit = self.rx.recv().expect("worker sender alive while outstanding > 0");
        self.outstanding -= 1;
        self.recorder.count("pilot.units_completed", 1);
        if unit.is_failed() {
            self.recorder.count("pilot.units_failed", 1);
        }
        Some(unit)
    }

    fn now(&self) -> SimTime {
        SimTime::seconds(self.epoch.elapsed().as_secs_f64())
    }

    fn n_cores(&self) -> usize {
        self.cores
    }

    fn charge_overhead(&mut self, seconds: f64) {
        // Real overheads on the local executor are the actual time the
        // framework spends; this only tracks the modeled component.
        self.overhead += seconds;
    }

    fn overhead_charged(&self) -> f64 {
        self.overhead
    }

    fn set_recorder(&mut self, recorder: obs::Recorder) {
        self.recorder = recorder;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::drain;
    use std::time::Duration;

    fn unit(name: &str, cores: usize) -> UnitDescription {
        UnitDescription::new(name, "local", cores)
    }

    #[test]
    fn runs_payloads_and_returns_results() {
        let mut ex: LocalExecutor<u64> = LocalExecutor::new(4);
        for i in 0..8u64 {
            ex.submit(unit(&format!("t{i}"), 1), Box::new(move || Ok(i * i))).unwrap();
        }
        let mut results: Vec<u64> =
            drain(&mut ex).into_iter().map(|c| c.outcome.unwrap()).collect();
        results.sort_unstable();
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn concurrency_is_limited_by_cores() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut ex: LocalExecutor<()> = LocalExecutor::new(2);
        for i in 0..6 {
            let running = Arc::clone(&running);
            let peak = Arc::clone(&peak);
            ex.submit(
                unit(&format!("t{i}"), 1),
                Box::new(move || {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    running.fetch_sub(1, Ordering::SeqCst);
                    Ok(())
                }),
            )
            .unwrap();
        }
        drain(&mut ex);
        assert!(peak.load(Ordering::SeqCst) <= 2, "peak {}", peak.load(Ordering::SeqCst));
    }

    #[test]
    fn multicore_task_blocks_others() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let wide_running = Arc::new(AtomicBool::new(false));
        let overlap = Arc::new(AtomicBool::new(false));
        let mut ex: LocalExecutor<()> = LocalExecutor::new(2);
        {
            let wide_running = Arc::clone(&wide_running);
            ex.submit(
                unit("wide", 2),
                Box::new(move || {
                    wide_running.store(true, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(50));
                    wide_running.store(false, Ordering::SeqCst);
                    Ok(())
                }),
            )
            .unwrap();
        }
        // Give the wide task a head start so it grabs both permits first.
        std::thread::sleep(Duration::from_millis(10));
        {
            let wide_running = Arc::clone(&wide_running);
            let overlap = Arc::clone(&overlap);
            ex.submit(
                unit("narrow", 1),
                Box::new(move || {
                    if wide_running.load(Ordering::SeqCst) {
                        overlap.store(true, Ordering::SeqCst);
                    }
                    Ok(())
                }),
            )
            .unwrap();
        }
        drain(&mut ex);
        assert!(!overlap.load(Ordering::SeqCst), "narrow ran while 2-core task held the pool");
    }

    #[test]
    fn panicking_payload_is_contained() {
        let mut ex: LocalExecutor<()> = LocalExecutor::new(1);
        ex.submit(unit("boom", 1), Box::new(|| panic!("kaboom"))).unwrap();
        ex.submit(unit("ok", 1), Box::new(|| Ok(()))).unwrap();
        let done = drain(&mut ex);
        assert_eq!(done.len(), 2);
        assert_eq!(done.iter().filter(|c| c.is_failed()).count(), 1);
    }

    #[test]
    fn durations_are_measured() {
        let mut ex: LocalExecutor<()> = LocalExecutor::new(1);
        ex.submit(
            unit("sleepy", 1),
            Box::new(|| {
                std::thread::sleep(Duration::from_millis(40));
                Ok(())
            }),
        )
        .unwrap();
        let done = drain(&mut ex);
        assert!(done[0].duration() >= 0.035, "measured {}", done[0].duration());
    }

    #[test]
    fn empty_executor_returns_none() {
        let mut ex: LocalExecutor<()> = LocalExecutor::new(1);
        assert!(ex.next_completion().is_none());
    }
}
