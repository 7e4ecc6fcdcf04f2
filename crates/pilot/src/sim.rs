//! Virtual-time executor backed by the DES cluster.

use crate::agent::Agent;
use crate::description::{DurationSpec, UnitDescription};
use crate::executor::{CompletedUnit, Executor, TaskWork, UnitId};
use hpc::fault::{FaultModel, HazardModel};
use hpc::perfmodel::NoiseModel;
use hpc::scenario::Scenario;
use hpc::timeline::CoreTimeline;
use hpc::{EventQueue, SimTime};
use rng::Rng;

/// FNV-1a over the unit name: the per-unit RNG stream key.
fn name_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Executes payloads eagerly, on its [`Agent`], but charges modeled
/// durations on a virtual core timeline. Deterministic given the seed.
///
/// All stochastic charges for a unit (straggler noise, scenario slowdowns,
/// injected failures) are drawn from an RNG keyed by `seed ^ hash(name)`,
/// not from a shared stream — a unit's fate is a pure function of its
/// identity, independent of submission order. This is what makes a resumed
/// campaign replay the identical failure/noise sequence: unit names encode
/// (replica, cycle, attempt), so resubmitting the same work reproduces the
/// same draws with no RNG state in the checkpoint.
pub struct SimExecutor<R> {
    timeline: CoreTimeline,
    now: SimTime,
    /// Completions waiting to be delivered, ordered by end time. Submission
    /// order breaks end-time ties (the queue is FIFO among equal
    /// timestamps), reproducing the former `(end, id)` ordering; payload
    /// slots are pooled, so steady-state submission does not allocate.
    pending: EventQueue<CompletedUnit<R>>,
    next_id: u64,
    hazard: HazardModel,
    scenario: Option<Scenario>,
    noise: NoiseModel,
    seed: u64,
    overhead: f64,
    recorder: obs::Recorder,
    /// Where the payloads run.
    agent: Agent,
}

impl<R> SimExecutor<R> {
    pub fn new(cores: usize, seed: u64) -> Self {
        SimExecutor {
            timeline: CoreTimeline::new(cores),
            now: SimTime::ZERO,
            pending: EventQueue::new(),
            next_id: 0,
            hazard: HazardModel::NONE,
            scenario: None,
            noise: NoiseModel::default(),
            seed,
            overhead: 0.0,
            recorder: obs::Recorder::default(),
            agent: Agent::new(),
        }
    }

    /// Enable constant-rate failure injection.
    pub fn with_faults(mut self, fault: FaultModel) -> Self {
        self.hazard = HazardModel::Constant(fault);
        self
    }

    /// Enable time-varying failure injection (failure storms).
    pub fn with_hazard(mut self, hazard: HazardModel) -> Self {
        self.hazard = hazard;
        self
    }

    /// Layer a stress scenario over task durations.
    pub fn with_scenario(mut self, scenario: Option<Scenario>) -> Self {
        self.scenario = scenario;
        self
    }

    /// Busy core-seconds scheduled so far (for utilization, Eq. 4).
    pub fn busy_core_seconds(&self) -> f64 {
        self.timeline.busy_core_seconds()
    }

    /// Time when every core is idle.
    pub fn all_idle_at(&self) -> SimTime {
        self.timeline.all_idle_at()
    }

    /// Charge a unit whose payload has run; its result becomes visible at
    /// completion time. Everything order-dependent (the timeline, the
    /// pending queue's FIFO tie-break, unit ids) happens here, on the
    /// submitting thread, in submission order.
    fn account(&mut self, desc: UnitDescription, result: Result<R, String>) -> UnitId {
        // Every stochastic charge for this unit comes from its own stream.
        let mut unit_rng = Rng::seed(self.seed ^ name_hash(&desc.name));
        let modeled = match desc.duration {
            DurationSpec::Modeled { seconds, sigma } => {
                let mut m = seconds * self.noise.factor(sigma, &mut unit_rng);
                if let Some(sc) = &self.scenario {
                    m *= sc.speed_factor(desc.replica, self.seed, &mut unit_rng);
                }
                m
            }
            DurationSpec::Measured => {
                // Measure the (already-run) payload is impossible post hoc;
                // treat Measured as zero-cost in virtual time. Framework code
                // always supplies Modeled durations to the SimExecutor.
                0.0
            }
        };
        // Failure injection: the task dies partway through its slot. Storm
        // hazards are phased by submission time (queue delay inside the
        // pilot is not re-phased; the storm window is long relative to it).
        let (duration, outcome) =
            match self.hazard.sample_failure(self.now.as_secs(), modeled, &mut unit_rng) {
                Some(t_fail) => (t_fail, Err(format!("injected task failure after {t_fail:.1}s"))),
                None => (modeled, result),
            };
        let slot = self.timeline.schedule(desc.cores, duration, self.now);
        self.recorder.count("pilot.units_submitted", 1);
        if outcome.is_err() {
            self.recorder.count("pilot.units_failed", 1);
        }
        let id = UnitId(self.next_id);
        self.next_id += 1;
        self.pending.push(
            slot.end,
            CompletedUnit {
                id,
                name: desc.name,
                cores: desc.cores,
                start: slot.start,
                end: slot.end,
                outcome,
            },
        );
        id
    }
}

impl<R: Send + 'static> Executor<R> for SimExecutor<R> {
    fn submit(&mut self, desc: UnitDescription, work: TaskWork<R>) -> Result<UnitId, String> {
        desc.check_fits(self.timeline.n_cores())?;
        // Run the payload now, on the submitting slot; the result becomes
        // visible at completion time.
        let result = self.agent.run_here(work);
        Ok(self.account(desc, result))
    }

    /// The payloads run on the agent's slots; the accounting follows on this
    /// thread, in submission order. Nothing is submitted (no payload runs)
    /// unless every unit is valid.
    fn submit_batch(
        &mut self,
        units: Vec<(UnitDescription, TaskWork<R>)>,
    ) -> Result<Vec<UnitId>, String> {
        units.iter().try_for_each(|(desc, _)| desc.check_fits(self.timeline.n_cores()))?;
        let (descs, works): (Vec<_>, Vec<_>) = units.into_iter().unzip();
        let results = self.agent.run_wave(works);
        Ok(descs
            .into_iter()
            .zip(results)
            .map(|(desc, result)| self.account(desc, result))
            .collect())
    }

    fn next_completion(&mut self) -> Option<CompletedUnit<R>> {
        let (end, unit) = self.pending.pop()?;
        debug_assert_eq!(unit.end, end);
        self.now = self.now.max(end);
        self.recorder.count("pilot.units_completed", 1);
        Some(unit)
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn n_cores(&self) -> usize {
        self.timeline.n_cores()
    }

    fn charge_overhead(&mut self, seconds: f64) {
        assert!(seconds >= 0.0);
        self.overhead += seconds;
        self.now += seconds;
        // Client-side overhead serializes the pipeline: nothing new may
        // start before it is done.
        self.timeline.barrier(self.now);
    }

    fn overhead_charged(&self) -> f64 {
        self.overhead
    }

    fn fast_forward(&mut self, to_seconds: f64) {
        let to = SimTime::seconds(to_seconds);
        if to > self.now {
            self.now = to;
            self.timeline.barrier(self.now);
        }
    }

    fn set_recorder(&mut self, recorder: obs::Recorder) {
        self.timeline.set_recorder(recorder.clone());
        self.recorder = recorder;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::drain;

    fn unit(name: &str, cores: usize, secs: f64) -> UnitDescription {
        UnitDescription::new(name, "sander", cores)
            .with_duration(DurationSpec::Modeled { seconds: secs, sigma: 0.0 })
    }

    #[test]
    fn completions_arrive_in_time_order() {
        let mut ex: SimExecutor<u32> = SimExecutor::new(4, 1);
        ex.submit(unit("slow", 1, 30.0), Box::new(|| Ok(1))).unwrap();
        ex.submit(unit("fast", 1, 5.0), Box::new(|| Ok(2))).unwrap();
        ex.submit(unit("mid", 1, 10.0), Box::new(|| Ok(3))).unwrap();
        let done = drain(&mut ex);
        let names: Vec<_> = done.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["fast", "mid", "slow"]);
        assert_eq!(ex.now().as_secs(), 30.0);
    }

    #[test]
    fn mode_ii_batching_on_scarce_cores() {
        // 8 tasks of 10s on 2 cores -> makespan 40s.
        let mut ex: SimExecutor<()> = SimExecutor::new(2, 1);
        for i in 0..8 {
            ex.submit(unit(&format!("t{i}"), 1, 10.0), Box::new(|| Ok(()))).unwrap();
        }
        let done = drain(&mut ex);
        assert_eq!(done.len(), 8);
        assert_eq!(ex.now().as_secs(), 40.0);
    }

    #[test]
    fn payload_results_are_real() {
        let mut ex: SimExecutor<u64> = SimExecutor::new(1, 1);
        ex.submit(unit("sum", 1, 1.0), Box::new(|| Ok((0..=100u64).sum()))).unwrap();
        let done = drain(&mut ex);
        assert_eq!(done[0].outcome.as_ref().unwrap(), &5050);
    }

    #[test]
    fn payload_error_is_failure() {
        let mut ex: SimExecutor<()> = SimExecutor::new(1, 1);
        ex.submit(unit("bad", 1, 1.0), Box::new(|| Err("parse error".into()))).unwrap();
        let done = drain(&mut ex);
        assert!(done[0].is_failed());
    }

    #[test]
    fn oversized_unit_rejected() {
        let mut ex: SimExecutor<()> = SimExecutor::new(2, 1);
        assert!(ex.submit(unit("wide", 3, 1.0), Box::new(|| Ok(()))).is_err());
    }

    #[test]
    fn deterministic_given_seed_with_noise() {
        let run = |seed: u64| -> Vec<f64> {
            let mut ex: SimExecutor<()> = SimExecutor::new(4, seed);
            for i in 0..6 {
                let d = UnitDescription::new(format!("t{i}"), "sander", 1)
                    .with_duration(DurationSpec::Modeled { seconds: 100.0, sigma: 0.05 });
                ex.submit(d, Box::new(|| Ok(()))).unwrap();
            }
            drain(&mut ex).iter().map(|c| c.duration()).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        // Noise actually perturbs durations.
        let ds = run(7);
        assert!(ds.iter().any(|d| (d - 100.0).abs() > 0.1));
    }

    #[test]
    fn fault_injection_fails_some_tasks_early() {
        let mut ex: SimExecutor<()> =
            SimExecutor::new(64, 3).with_faults(FaultModel::new(500.0).unwrap());
        for i in 0..64 {
            ex.submit(unit(&format!("t{i}"), 1, 1000.0), Box::new(|| Ok(()))).unwrap();
        }
        let done = drain(&mut ex);
        let failed: Vec<_> = done.iter().filter(|c| c.is_failed()).collect();
        assert!(!failed.is_empty(), "with MTBF 500s and 1000s tasks, some must fail");
        assert!(failed.len() < 64, "not all should fail");
        for f in &failed {
            assert!(f.duration() < 1000.0, "failed tasks end early");
        }
    }

    #[test]
    fn unit_fate_is_a_pure_function_of_its_name() {
        // Same units submitted in a different order draw identical noise and
        // failures: the per-unit RNG stream is keyed by (seed, name) only.
        let run = |order: &[usize]| -> Vec<(String, f64, bool)> {
            let mut ex: SimExecutor<()> =
                SimExecutor::new(8, 5).with_faults(FaultModel::new(300.0).unwrap());
            for &i in order {
                let d = UnitDescription::new(format!("t{i}"), "sander", 1)
                    .with_duration(DurationSpec::Modeled { seconds: 200.0, sigma: 0.05 });
                ex.submit(d, Box::new(|| Ok(()))).unwrap();
            }
            let mut done: Vec<_> = drain(&mut ex)
                .into_iter()
                .map(|c| (c.name.clone(), c.duration(), c.is_failed()))
                .collect();
            done.sort_by(|a, b| a.0.cmp(&b.0));
            done
        };
        let forward = run(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let reversed = run(&[7, 6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(forward, reversed);
    }

    #[test]
    fn fast_forward_restores_the_clock_without_overhead() {
        let mut ex: SimExecutor<()> = SimExecutor::new(2, 1);
        ex.fast_forward(123.5);
        assert_eq!(ex.now().as_secs(), 123.5);
        assert_eq!(ex.overhead_charged(), 0.0);
        // Work scheduled after the jump starts at the restored clock.
        ex.submit(unit("a", 1, 1.0), Box::new(|| Ok(()))).unwrap();
        let done = drain(&mut ex);
        assert_eq!(done[0].start.as_secs(), 123.5);
        // Rewinding is refused: fast_forward never moves time backwards.
        ex.fast_forward(50.0);
        assert_eq!(ex.now().as_secs(), 124.5);
    }

    #[test]
    fn straggler_scenario_stretches_some_tasks() {
        let sc = Scenario::Stragglers { fraction: 0.3, slowdown: 4.0 };
        let mut ex: SimExecutor<()> = SimExecutor::new(64, 9).with_scenario(Some(sc));
        for i in 0..64 {
            ex.submit(unit(&format!("t{i}"), 1, 100.0), Box::new(|| Ok(()))).unwrap();
        }
        let done = drain(&mut ex);
        let slow = done.iter().filter(|c| c.duration() > 300.0).count();
        assert!(slow > 0, "some tasks must straggle");
        assert!(slow < 64, "not all tasks straggle");
    }

    #[test]
    fn heterogeneous_scenario_slows_a_stable_replica_subset() {
        let sc = Scenario::HeterogeneousNodes { slow_fraction: 0.5, slowdown: 3.0 };
        let run = || -> Vec<bool> {
            let mut ex: SimExecutor<()> = SimExecutor::new(16, 4).with_scenario(Some(sc));
            for r in 0..16 {
                let d = UnitDescription::new(format!("md-r{r}"), "sander", 1)
                    .with_duration(DurationSpec::Modeled { seconds: 100.0, sigma: 0.0 })
                    .with_replica(r);
                ex.submit(d, Box::new(|| Ok(()))).unwrap();
            }
            let mut done = drain(&mut ex);
            done.sort_by(|a, b| a.name.cmp(&b.name));
            done.iter().map(|c| c.duration() > 200.0).collect()
        };
        let first = run();
        assert!(first.iter().any(|&s| s), "some replicas on slow nodes");
        assert!(first.iter().any(|&s| !s), "some replicas on fast nodes");
        // Membership is stable across runs (it keys off seed + replica id).
        assert_eq!(first, run());
    }

    #[test]
    fn recorder_counts_submissions_and_failures() {
        let rec = obs::Recorder::enabled();
        let mut ex: SimExecutor<()> = SimExecutor::new(2, 1);
        ex.set_recorder(rec.clone());
        ex.submit(unit("ok", 1, 1.0), Box::new(|| Ok(()))).unwrap();
        ex.submit(unit("bad", 1, 1.0), Box::new(|| Err("boom".into()))).unwrap();
        drain(&mut ex);
        let counters = rec.counters();
        assert_eq!(counters.get("pilot.units_submitted"), Some(&2));
        assert_eq!(counters.get("pilot.units_failed"), Some(&1));
        // The recorder was forwarded to the core timeline as well.
        assert_eq!(counters.get("timeline.tasks_scheduled"), Some(&2));
    }

    #[test]
    fn overhead_serializes_subsequent_work() {
        let mut ex: SimExecutor<()> = SimExecutor::new(2, 1);
        ex.submit(unit("a", 1, 10.0), Box::new(|| Ok(()))).unwrap();
        drain(&mut ex);
        ex.charge_overhead(5.0);
        assert_eq!(ex.now().as_secs(), 15.0);
        ex.submit(unit("b", 1, 1.0), Box::new(|| Ok(()))).unwrap();
        let done = drain(&mut ex);
        assert_eq!(done[0].start.as_secs(), 15.0);
        assert_eq!(ex.overhead_charged(), 5.0);
    }

    #[test]
    fn multicore_units_occupy_multiple_cores() {
        let mut ex: SimExecutor<()> = SimExecutor::new(4, 1);
        ex.submit(unit("wide", 4, 10.0), Box::new(|| Ok(()))).unwrap();
        ex.submit(unit("next", 1, 1.0), Box::new(|| Ok(()))).unwrap();
        let done = drain(&mut ex);
        // Second unit cannot start until the 4-core unit ends.
        let next = done.iter().find(|c| c.name == "next").unwrap();
        assert_eq!(next.start.as_secs(), 10.0);
        assert!((ex.busy_core_seconds() - 41.0).abs() < 1e-9);
    }
}
