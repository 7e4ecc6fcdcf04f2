//! The executor abstraction: where compute units actually run.
//!
//! Two implementations:
//!
//! * [`crate::sim::SimExecutor`] — tasks execute their payload immediately
//!   (so results are real), but wall-clock durations are charged on a
//!   virtual [`hpc::CoreTimeline`] from the calibrated performance model.
//!   This is how the paper-scale experiments (up to 1 728 replicas on
//!   thousands of cores) run on a laptop.
//! * [`crate::local::LocalExecutor`] — tasks run on real threads and are
//!   charged their measured wall time. Used for validation and examples.
//!
//! The executor is deliberately *synchronous*: callers drive it by calling
//! [`Executor::next_completion`], which returns finished units in completion
//! order. This is the natural shape for both a DES and a thread pool, and
//! the framework's EMM builds both the synchronous barrier and the
//! asynchronous criterion on top of it.

use crate::description::UnitDescription;
use crate::staging::StagingArea;
use hpc::SimTime;

/// Unique unit handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UnitId(pub u64);

/// The work a unit performs. It runs exactly once; errors become unit
/// failures (distinct from injected hardware faults but surfaced the same
/// way, as the framework cannot tell them apart either).
pub type TaskWork<R> = Box<dyn FnOnce() -> Result<R, String> + Send>;

/// A finished unit.
#[derive(Debug, Clone)]
pub struct CompletedUnit<R> {
    pub id: UnitId,
    pub name: String,
    pub cores: usize,
    pub start: SimTime,
    pub end: SimTime,
    pub outcome: Result<R, String>,
}

impl<R> CompletedUnit<R> {
    /// Wall-clock duration the unit occupied its cores.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    pub fn is_failed(&self) -> bool {
        self.outcome.is_err()
    }
}

/// A place compute units run.
pub trait Executor<R> {
    /// Submit a unit; it will eventually appear in `next_completion`.
    fn submit(&mut self, desc: UnitDescription, work: TaskWork<R>) -> Result<UnitId, String>;

    /// Submit a wave of independent units; returns the ids assigned, in
    /// order. Equivalent to `submit` on each in order, which is what the
    /// default does (stopping at the first error); an executor that runs
    /// payloads at submission may run a wave's payloads concurrently, so
    /// they must not depend on one another.
    fn submit_batch(
        &mut self,
        units: Vec<(UnitDescription, TaskWork<R>)>,
    ) -> Result<Vec<UnitId>, String> {
        units.into_iter().map(|(desc, work)| self.submit(desc, work)).collect()
    }

    /// Block (or advance virtual time) until the next unit finishes.
    /// Returns `None` when no units are outstanding.
    fn next_completion(&mut self) -> Option<CompletedUnit<R>>;

    /// Current time (virtual or real-elapsed).
    fn now(&self) -> SimTime;

    /// Size of the core pool.
    fn n_cores(&self) -> usize;

    /// Charge serialized client-side time (framework overheads, data
    /// staging) that is not attached to any unit. On the virtual cluster
    /// this advances the clock and delays subsequent work; on the local
    /// executor it is recorded but not slept.
    fn charge_overhead(&mut self, seconds: f64);

    /// Total overhead charged so far.
    fn overhead_charged(&self) -> f64;

    /// Advance the clock to `to_seconds` (if later than now) without
    /// charging overhead — used when resuming a checkpointed campaign so
    /// virtual time continues from where the interrupted run stopped. The
    /// default is a no-op: executors without a restorable clock (real
    /// threads) ignore it.
    fn fast_forward(&mut self, to_seconds: f64) {
        let _ = to_seconds;
    }

    /// Attach a structured-event recorder. Executors count submissions,
    /// failures and overhead charges against it; the default implementation
    /// ignores the recorder (tracing stays opt-in per executor).
    fn set_recorder(&mut self, recorder: obs::Recorder) {
        let _ = recorder;
    }
}

/// Drain every outstanding completion (the global barrier of the
/// synchronous RE pattern). Returns completions in completion order.
pub fn drain<R, E: Executor<R> + ?Sized>(exec: &mut E) -> Vec<CompletedUnit<R>> {
    let mut out = Vec::new();
    while let Some(c) = exec.next_completion() {
        out.push(c);
    }
    out
}

/// An active pilot: the executor that holds its cores for the whole
/// campaign, plus the staging area its units share files through.
pub struct Pilot<R> {
    pub executor: Box<dyn Executor<R>>,
    pub staging: StagingArea,
}

impl<R> Pilot<R> {
    pub fn cores(&self) -> usize {
        self.executor.n_cores()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::DurationSpec;
    use crate::local::LocalExecutor;
    use crate::sim::SimExecutor;

    fn pilot<R>(executor: impl Executor<R> + 'static) -> Pilot<R> {
        Pilot { executor: Box::new(executor), staging: StagingArea::new() }
    }

    #[test]
    fn simulated_pilot_end_to_end() {
        let mut pilot = pilot(SimExecutor::<u32>::new(64, 0));
        assert_eq!(pilot.cores(), 64);
        for i in 0..64 {
            let u = UnitDescription::new(format!("t{i}"), "sander", 1)
                .with_duration(DurationSpec::Modeled { seconds: 139.6, sigma: 0.0 });
            pilot.executor.submit(u, Box::new(move || Ok(i))).unwrap();
        }
        let done = drain(pilot.executor.as_mut());
        assert_eq!(done.len(), 64);
        // All concurrent: makespan is one task's duration.
        assert!((pilot.executor.now().as_secs() - 139.6).abs() < 1e-9);
    }

    #[test]
    fn local_pilot_end_to_end() {
        let mut pilot = pilot(LocalExecutor::<u32>::new(4));
        for i in 0..8 {
            let u = UnitDescription::new(format!("t{i}"), "x", 1);
            pilot.executor.submit(u, Box::new(move || Ok(i))).unwrap();
        }
        let done = drain(pilot.executor.as_mut());
        assert_eq!(done.len(), 8);
    }

    #[test]
    fn staging_area_shared_with_tasks() {
        let mut pilot = pilot(SimExecutor::<String>::new(2, 0));
        pilot.staging.put_text("input.mdin", "nstlim = 10");
        let staging = pilot.staging.clone();
        let u = UnitDescription::new("reader", "sander", 1)
            .with_duration(DurationSpec::modeled(1.0, 0.0));
        pilot
            .executor
            .submit(u, Box::new(move || staging.read_text("input.mdin", str::to_owned)))
            .unwrap();
        let done = drain(pilot.executor.as_mut());
        assert_eq!(done[0].outcome.as_ref().unwrap(), "nstlim = 10");
    }
}
