//! MD engines.
//!
//! An engine is the unit RepEx treats as a black box: it consumes a job
//! description (steps, thermostat target, salt concentration, restraints),
//! propagates a [`System`], and reports energies. The physics is shared —
//! one Langevin segment loop ([`run_langevin`]) and one single-point path,
//! both provided by [`MdEngine`] over an engine's base parameters and its
//! thread count — so an engine is what it adds to them:
//!
//! * [`SanderEngine`] — the Amber `sander` analogue: one thread, nothing
//!   else.
//! * [`PmemdEngine`] — the `pmemd.MPI` analogue: the force evaluation on as
//!   many threads as the replica has cores; like the real code it refuses
//!   to run on a single core.
//! * [`NamdEngine`] — NAMD-style configuration (fs time step), its own RNG
//!   stream, and velocities drawn at the start of a cold run.
//! * [`GmxEngine`] — `.mdp` configuration (`tau-t` for friction, nm cutoffs).

mod gmx;
mod namd;
mod pmemd;
mod sander;

pub use gmx::GmxEngine;
pub use namd::NamdEngine;
pub use pmemd::PmemdEngine;
pub use sander::SanderEngine;

use crate::forcefield::{
    DihedralRestraint, EnergyBreakdown, EvalContext, ForceField, NonbondedParams,
};
pub use crate::integrator::EngineScratch;
use crate::integrator::LangevinBaoab;
use crate::io::mdinfo::MdInfo;
use crate::system::{State, System};
use rng::Rng;

/// One request in a single-point energy batch: the exchange parameters under
/// which the system's (fixed) coordinates are to be evaluated.
#[derive(Debug, Clone, Copy)]
pub struct SinglePointRequest<'a> {
    /// Salt concentration in mol/L (S-REMD exchange parameter).
    pub salt_molar: f64,
    /// Solvent pH (pH-REMD exchange parameter).
    pub ph: f64,
    /// Umbrella restraints (U-REMD exchange parameter).
    pub restraints: &'a [DihedralRestraint],
}

impl<'a> SinglePointRequest<'a> {
    pub fn new(salt_molar: f64, ph: f64, restraints: &'a [DihedralRestraint]) -> Self {
        SinglePointRequest { salt_molar, ph, restraints }
    }
}

/// A fully-specified MD task (the content of one replica's cycle).
#[derive(Debug, Clone, PartialEq)]
pub struct MdJob {
    /// Number of integration steps.
    pub steps: u64,
    /// Time step in ps.
    pub dt_ps: f64,
    /// Thermostat target temperature in K.
    pub temperature: f64,
    /// Langevin friction in ps⁻¹.
    pub gamma_ps: f64,
    /// RNG seed (replica- and cycle-specific for reproducibility).
    pub seed: u64,
    /// Salt concentration in mol/L (S-REMD exchange parameter).
    pub salt_molar: f64,
    /// Solvent pH (pH-REMD exchange parameter; 7.0 = neutral reference).
    pub ph: f64,
    /// Umbrella restraints (U-REMD exchange parameter).
    pub restraints: Vec<DihedralRestraint>,
    /// Record the (phi, psi) dihedrals every this many steps (0 = never).
    pub sample_stride: u64,
    /// Skip sampling during the first `sample_warmup` steps of the segment
    /// (re-equilibration after an accepted exchange).
    pub sample_warmup: u64,
}

impl Default for MdJob {
    fn default() -> Self {
        MdJob {
            steps: 1000,
            dt_ps: 0.002,
            temperature: 300.0,
            gamma_ps: 5.0,
            seed: 1,
            salt_molar: 0.0,
            ph: 7.0,
            restraints: Vec::new(),
            sample_stride: 0,
            sample_warmup: 0,
        }
    }
}

/// What an engine returns after a run.
#[derive(Debug, Clone, PartialEq)]
pub struct MdOutput {
    /// Final coordinates/velocities (what the restart file holds).
    pub final_state: State,
    /// Energy summary at the last step (what `.mdinfo` holds).
    pub mdinfo: MdInfo,
    /// Sampled (phi, psi) in radians, if the topology names them and
    /// `sample_stride > 0`.
    pub dihedral_trace: Vec<(f64, f64)>,
}

/// Engine failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Engine cannot run with the requested core count.
    BadCoreCount { engine: &'static str, requested: usize, minimum: usize },
    /// The trajectory produced non-finite coordinates.
    NumericalBlowup { step: u64 },
    /// Input was inconsistent (e.g. restraint names a missing dihedral).
    BadInput(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::BadCoreCount { engine, requested, minimum } => {
                write!(f, "{engine} cannot run on {requested} core(s); needs at least {minimum}")
            }
            EngineError::NumericalBlowup { step } => {
                write!(f, "non-finite coordinates at step {step}")
            }
            EngineError::BadInput(s) => write!(f, "bad engine input: {s}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The black-box MD engine interface the framework programs against.
///
/// An implementation names its parameters ([`MdEngine::base`], and
/// [`MdEngine::threads`] when it is more than one); running a segment and
/// evaluating single points are provided over those two.
pub trait MdEngine: Send + Sync {
    /// Base nonbonded parameters; a job's salt and pH override them.
    fn base(&self) -> &NonbondedParams;

    /// Threads a force or energy evaluation runs on.
    fn threads(&self) -> usize {
        1
    }

    /// Propagate `system` in place according to `job`, on fresh buffers.
    fn run(&self, system: &mut System, job: &MdJob) -> Result<MdOutput, EngineError> {
        self.run_in(system, job, &mut EngineScratch::default())
    }

    /// [`MdEngine::run`] on buffers kept from earlier segments (a pilot
    /// slot's): the same bits, without rebuilding what they hold.
    fn run_in(
        &self,
        system: &mut System,
        job: &MdJob,
        scratch: &mut EngineScratch,
    ) -> Result<MdOutput, EngineError> {
        run_langevin(system, job, self.base(), self.threads(), scratch, |_| Rng::seed(job.seed))
    }

    /// Single-point energy under given salt/pH/restraint parameters,
    /// without moving the system. This is the primitive S-, U- and
    /// pH-exchange need.
    fn single_point_with(
        &self,
        system: &System,
        salt_molar: f64,
        ph: f64,
        restraints: &[DihedralRestraint],
    ) -> EnergyBreakdown {
        let request = SinglePointRequest::new(salt_molar, ph, restraints);
        single_point(self.base(), self.threads(), system, &request, &mut EvalContext::new())
    }

    /// Single-point energy at neutral pH (convenience).
    fn single_point(
        &self,
        system: &System,
        salt_molar: f64,
        restraints: &[DihedralRestraint],
    ) -> EnergyBreakdown {
        self.single_point_with(system, salt_molar, 7.0, restraints)
    }

    /// A batch of single-point energies on the **same coordinates** under
    /// different exchange parameters — the shape of the extra evaluations
    /// S-, U- and pH-exchange need per candidate pair.
    ///
    /// One [`EvalContext`] serves the whole batch: coordinates and cutoff
    /// are identical across it, so the first request builds the pair list
    /// and every later one reuses it (only `NonbondedParams`/restraints
    /// differ).
    fn single_points_with(
        &self,
        system: &System,
        requests: &[SinglePointRequest<'_>],
    ) -> Vec<EnergyBreakdown> {
        let mut ctx = EvalContext::new();
        let (base, threads) = (self.base(), self.threads());
        requests.iter().map(|r| single_point(base, threads, system, r, &mut ctx)).collect()
    }
}

/// One single-point energy (no force accumulation) on `threads` threads,
/// through a context the caller may share across requests.
fn single_point(
    base: &NonbondedParams,
    threads: usize,
    system: &System,
    request: &SinglePointRequest<'_>,
    ctx: &mut EvalContext,
) -> EnergyBreakdown {
    job_forcefield(base, request.salt_molar, request.ph, request.restraints)
        .evaluate(system, ctx, None, threads)
}

/// The one MD segment loop: Langevin (BAOAB) dynamics for `job.steps` steps
/// under `base` + the job's exchange parameters, on `scratch`'s buffers,
/// sampling (phi, psi) and checking for blow-up as it goes.
///
/// `prelude` seeds the segment's noise stream and does whatever the engine
/// does to a system before its first step (NAMD draws velocities for a cold
/// one); it runs after the job has been validated, so a rejected job leaves
/// the system untouched.
pub(crate) fn run_langevin(
    system: &mut System,
    job: &MdJob,
    base: &NonbondedParams,
    threads: usize,
    scratch: &mut EngineScratch,
    prelude: impl FnOnce(&mut System) -> Rng,
) -> Result<MdOutput, EngineError> {
    validate_restraints(system, &job.restraints)?;
    let ff = job_forcefield(base, job.salt_molar, job.ph, &job.restraints);
    let mut rng = prelude(system);
    let mut integ = LangevinBaoab::with_scratch(
        job.dt_ps,
        job.temperature,
        job.gamma_ps,
        std::mem::take(scratch),
    );
    let mut trace = Vec::new();
    let stepped = integrate(system, job, &ff, threads, &mut integ, &mut rng, &mut trace);
    *scratch = integ.into_scratch();
    let last = stepped?;
    // The last step's breakdown is the energy at the final positions; only
    // a segment of no steps has to evaluate one.
    let last = last.unwrap_or_else(|| ff.energy(system));
    let mdinfo = MdInfo::from_breakdown(
        system.state.step,
        system.state.time_ps,
        system.instantaneous_temperature(),
        system.kinetic_energy(),
        &last,
    );
    let final_state = scratch.copy_out(&system.state);
    Ok(MdOutput { final_state, mdinfo, dihedral_trace: trace })
}

/// `job.steps` steps of `integ`, sampling (phi, psi) into `trace`: the last
/// step's breakdown (none for no steps).
fn integrate(
    system: &mut System,
    job: &MdJob,
    ff: &ForceField,
    threads: usize,
    integ: &mut LangevinBaoab,
    rng: &mut Rng,
    trace: &mut Vec<(f64, f64)>,
) -> Result<Option<EnergyBreakdown>, EngineError> {
    /// Look for non-finite coordinates every this many steps.
    const BLOWUP_CHECK_STRIDE: u64 = 200;
    let mut last = None;
    for step in 1..=job.steps {
        last = Some(integ.step(system, ff, threads, rng));
        if job.sample_stride > 0 && step > job.sample_warmup && step % job.sample_stride == 0 {
            if let (Some(phi), Some(psi)) =
                (system.named_dihedral_angle("phi"), system.named_dihedral_angle("psi"))
            {
                trace.push((phi, psi));
            }
        }
        if step % BLOWUP_CHECK_STRIDE == 0 && !system.state.is_finite() {
            return Err(EngineError::NumericalBlowup { step });
        }
    }
    if !system.state.is_finite() {
        return Err(EngineError::NumericalBlowup { step: job.steps });
    }
    Ok(last)
}

/// Shared helper: build the per-job force field from an engine's base
/// nonbonded parameters plus the job's exchange parameters.
fn job_forcefield(
    base: &NonbondedParams,
    salt_molar: f64,
    ph: f64,
    restraints: &[DihedralRestraint],
) -> ForceField {
    let mut ff = ForceField::new(NonbondedParams { salt_molar, ph, ..*base });
    ff.set_restraints(restraints.to_vec());
    ff
}

/// Shared helper: validate that every restraint names a dihedral that exists.
fn validate_restraints(
    system: &System,
    restraints: &[DihedralRestraint],
) -> Result<(), EngineError> {
    for r in restraints {
        if system.topology.dihedral(&r.dihedral).is_none() {
            return Err(EngineError::BadInput(format!(
                "restraint references unknown dihedral {:?}",
                r.dihedral
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{alanine_dipeptide, dipeptide_forcefield};

    #[test]
    fn job_forcefield_applies_exchange_params() {
        let base = dipeptide_forcefield().nonbonded;
        let rs = vec![DihedralRestraint::new("phi", 0.02, 45.0)];
        let ff = job_forcefield(&base, 0.3, 7.0, &rs);
        assert_eq!(ff.nonbonded.salt_molar, 0.3);
        assert_eq!(ff.nonbonded.cutoff, base.cutoff);
        assert_eq!(ff.restraints.len(), 1);
    }

    #[test]
    fn validate_restraints_catches_unknown_dihedral() {
        let sys = alanine_dipeptide();
        let ok = vec![DihedralRestraint::new("phi", 0.02, 0.0)];
        let bad = vec![DihedralRestraint::new("omega", 0.02, 0.0)];
        assert!(validate_restraints(&sys, &ok).is_ok());
        assert!(validate_restraints(&sys, &bad).is_err());
    }

    #[test]
    fn batched_single_points_match_individual_evaluations() {
        let base = dipeptide_forcefield().nonbonded;
        let engine = SanderEngine::new(base);
        let sys = alanine_dipeptide();
        let rs = vec![DihedralRestraint::new("phi", 0.02, 45.0)];
        let requests = [
            SinglePointRequest::new(0.0, 7.0, &[]),
            SinglePointRequest::new(0.5, 7.0, &[]),
            SinglePointRequest::new(0.5, 5.0, &rs),
            SinglePointRequest::new(2.0, 7.0, &rs),
        ];
        let batched = engine.single_points_with(&sys, &requests);
        assert_eq!(batched.len(), requests.len());
        for (b, r) in batched.iter().zip(&requests) {
            let single = engine.single_point_with(&sys, r.salt_molar, r.ph, r.restraints);
            assert!(
                (b.total() - single.total()).abs() < 1e-9,
                "batched {} vs individual {}",
                b.total(),
                single.total()
            );
        }
    }

    #[test]
    fn error_display() {
        let e = EngineError::BadCoreCount { engine: "pmemd.MPI", requested: 1, minimum: 2 };
        assert!(e.to_string().contains("pmemd.MPI"));
        assert!(EngineError::NumericalBlowup { step: 9 }.to_string().contains('9'));
    }
}
