//! Real-thread executor: payloads run on the pilot's [`Agent`] and are
//! charged their measured wall time. A unit of `k` cores holds `k` of the
//! pool's [`Permits`] while it runs; the thread that takes completions works
//! the agent's queue while it waits for them.

use crate::agent::{Agent, Fifo, Job, Permits, Scratch};
use crate::description::UnitDescription;
use crate::executor::{CompletedUnit, Executor, TaskWork, UnitId};
use hpc::SimTime;
use std::panic::resume_unwind;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// A unit back from its slot, or the panic of its payload.
type Ran<R> = thread::Result<CompletedUnit<R>>;

/// Executes units on the agent's slots, limiting concurrency to a core
/// budget.
pub struct LocalExecutor<R> {
    cores: usize,
    permits: Arc<Permits>,
    agent: Agent,
    epoch: Instant,
    done: Arc<Fifo<Ran<R>>>,
    outstanding: usize,
    next_id: u64,
    overhead: f64,
    recorder: obs::Recorder,
}

impl<R: Send + 'static> LocalExecutor<R> {
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0);
        LocalExecutor {
            cores,
            permits: Arc::new(Permits::new(cores)),
            agent: Agent::new(),
            epoch: Instant::now(),
            done: Arc::default(),
            outstanding: 0,
            next_id: 0,
            overhead: 0.0,
            recorder: obs::Recorder::default(),
        }
    }
}

impl<R: Send + 'static> Executor<R> for LocalExecutor<R> {
    fn submit(&mut self, desc: UnitDescription, work: TaskWork<R>) -> Result<UnitId, String> {
        desc.check_fits(self.cores)?;
        let id = UnitId(self.next_id);
        self.next_id += 1;
        self.outstanding += 1;
        self.recorder.count("pilot.units_submitted", 1);
        let (permits, done, epoch) =
            (Arc::clone(&self.permits), Arc::clone(&self.done), self.epoch);
        let UnitDescription { name, cores, .. } = desc;
        let job: Job = Box::new(move |scratch: &mut Scratch| {
            let now = || SimTime::seconds(epoch.elapsed().as_secs_f64());
            permits.acquire(cores);
            let start = now();
            let outcome = scratch.lend(work);
            let end = now();
            permits.release(cores);
            done.push([outcome.map(|outcome| CompletedUnit {
                id,
                name,
                cores,
                start,
                end,
                outcome,
            })]);
        });
        self.agent.queue([job]);
        Ok(id)
    }

    fn next_completion(&mut self) -> Option<CompletedUnit<R>> {
        if self.outstanding == 0 {
            return None;
        }
        let ran = self.agent.wait(&self.done);
        self.outstanding -= 1;
        self.recorder.count("pilot.units_completed", 1);
        let unit = ran.unwrap_or_else(|panic| resume_unwind(panic));
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

    /// The one panic policy, on this backend: the panic is re-raised on the
    /// thread that takes the unit's result, and the slot that ran it keeps
    /// running units.
    #[test]
    fn panicking_payload_is_contained() {
        let mut ex: LocalExecutor<()> = LocalExecutor::new(1);
        ex.submit(unit("boom", 1), Box::new(|| panic!("kaboom"))).unwrap();
        ex.submit(unit("ok", 1), Box::new(|| Ok(()))).unwrap();
        let (mut panics, mut done) = (0, 0);
        loop {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ex.next_completion())) {
                Ok(Some(c)) => done += usize::from(c.outcome.is_ok()),
                Ok(None) => break,
                Err(panic) => {
                    assert_eq!(*panic.downcast::<&str>().unwrap(), "kaboom");
                    panics += 1;
                }
            }
        }
        assert_eq!((panics, done), (1, 1));
        ex.submit(unit("after", 1), Box::new(|| Ok(()))).unwrap();
        assert!(drain(&mut ex)[0].outcome.is_ok());
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
