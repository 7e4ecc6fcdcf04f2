//! Pilot and unit managers: the top of the runtime API.
//!
//! `PilotManager::submit` takes a [`PilotDescription`], pays the batch-queue
//! wait (when a queue model is configured) and hands back an active
//! [`Pilot`] whose executor the framework drives. This mirrors the RP
//! pattern: one pilot job absorbs the queue wait, then many compute units
//! run inside it with no further queueing.

use crate::description::PilotDescription;
use crate::executor::Executor;
use crate::local::LocalExecutor;
use crate::sim::SimExecutor;
use crate::staging::StagingArea;
use crate::states::PilotState;
use hpc::fault::{FaultModel, HazardModel};
use hpc::scenario::Scenario;
use rng::Rng;

/// Which backend a pilot uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Virtual time on the DES cluster (paper-scale experiments).
    Simulated,
    /// Real threads on this machine (validation, examples).
    Local,
}

/// An active pilot: an executor plus shared staging area.
pub struct Pilot<R> {
    pub description: PilotDescription,
    pub state: PilotState,
    /// Seconds spent waiting in the batch queue before activation.
    pub queue_wait: f64,
    pub executor: Box<dyn Executor<R>>,
    pub staging: StagingArea,
}

impl<R> Pilot<R> {
    pub fn cores(&self) -> usize {
        self.executor.n_cores()
    }
}

/// Creates pilots against either backend.
pub struct PilotManager {
    backend: Backend,
    hazard: HazardModel,
    scenario: Option<Scenario>,
}

impl PilotManager {
    pub fn new(backend: Backend) -> Self {
        PilotManager { backend, hazard: HazardModel::NONE, scenario: None }
    }

    /// Enable constant-rate failure injection for pilots created by this
    /// manager (simulated backend only; local payloads fail on their own).
    pub fn with_faults(mut self, fault: FaultModel) -> Self {
        self.hazard = HazardModel::Constant(fault);
        self
    }

    /// Enable a time-varying failure hazard (failure storms).
    pub fn with_hazard(mut self, hazard: HazardModel) -> Self {
        self.hazard = hazard;
        self
    }

    /// Layer a stress scenario over task durations (simulated backend only).
    pub fn with_scenario(mut self, scenario: Option<Scenario>) -> Self {
        self.scenario = scenario;
        self
    }

    /// Validate, queue and activate a pilot.
    pub fn submit<R: Send + 'static>(&self, desc: PilotDescription) -> Result<Pilot<R>, String> {
        desc.validate()?;
        let mut queue_wait = 0.0;
        if let Some(queue) = &desc.queue {
            let mut rng = Rng::seed(desc.seed ^ 0x5149_5545); // "QUEUE"
            queue_wait = queue.sample_wait(desc.cores, &desc.cluster, &mut rng);
        }
        let executor: Box<dyn Executor<R>> = match self.backend {
            Backend::Simulated => Box::new(
                SimExecutor::new(desc.cores, desc.seed)
                    .with_hazard(self.hazard)
                    .with_scenario(self.scenario),
            ),
            Backend::Local => Box::new(LocalExecutor::new(desc.cores)),
        };
        Ok(Pilot {
            description: desc,
            state: PilotState::Active,
            queue_wait,
            executor,
            staging: StagingArea::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::{DurationSpec, UnitDescription};
    use crate::executor::drain;
    use hpc::cluster::ClusterSpec;
    use hpc::queue::BatchQueue;

    #[test]
    fn simulated_pilot_end_to_end() {
        let pm = PilotManager::new(Backend::Simulated);
        let desc = PilotDescription::new(ClusterSpec::supermic(), 64);
        let mut pilot: Pilot<u32> = pm.submit(desc).unwrap();
        assert_eq!(pilot.state, PilotState::Active);
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
        let pm = PilotManager::new(Backend::Local);
        let desc = PilotDescription::new(ClusterSpec::small_cluster(4), 4);
        let mut pilot: Pilot<u32> = pm.submit(desc).unwrap();
        for i in 0..8 {
            let u = UnitDescription::new(format!("t{i}"), "x", 1);
            pilot.executor.submit(u, Box::new(move || Ok(i))).unwrap();
        }
        let done = drain(pilot.executor.as_mut());
        assert_eq!(done.len(), 8);
    }

    #[test]
    fn queue_wait_sampled_when_configured() {
        let pm = PilotManager::new(Backend::Simulated);
        let mut desc = PilotDescription::new(ClusterSpec::supermic(), 1000);
        desc.queue = Some(BatchQueue::default());
        desc.seed = 9;
        let pilot: Pilot<()> = pm.submit(desc).unwrap();
        assert!(pilot.queue_wait > 0.0);
    }

    #[test]
    fn invalid_pilot_rejected() {
        let pm = PilotManager::new(Backend::Simulated);
        let desc = PilotDescription::new(ClusterSpec::small_cluster(16), 0);
        assert!(pm.submit::<()>(desc).is_err());
    }

    #[test]
    fn staging_area_shared_with_tasks() {
        let pm = PilotManager::new(Backend::Simulated);
        let mut pilot: Pilot<String> =
            pm.submit(PilotDescription::new(ClusterSpec::supermic(), 2)).unwrap();
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
