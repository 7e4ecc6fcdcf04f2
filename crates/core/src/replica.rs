//! The replica object: one independent copy of the physical system walking
//! through parameter space.

use exchange::multidim::ParamGrid;
use exchange::param::ExchangeParam;
use mdsim::{DihedralRestraint, System};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Lock a replica's microstate. A payload that panicked mid-segment fails
/// its unit; it must not also wedge the replica for the relaunch or the
/// checkpoint, so a poisoned lock is recovered.
pub fn lock_system(system: &Mutex<System>) -> MutexGuard<'_, System> {
    system.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A replica: identity and the shared microstate handle that MD and
/// exchange tasks operate on. Which grid slot (parameter set) it holds right
/// now is the campaign's walk, `DriverCtx::ledger`.
pub struct Replica {
    /// Stable identity (never changes).
    pub id: usize,
    /// The physical microstate. `Arc<Mutex<_>>` so task payloads (which may
    /// run on worker threads under the local executor) can own a handle.
    pub system: Arc<Mutex<System>>,
    /// MD segments completed.
    pub segments_done: u64,
    /// Failed attempts at this replica's MD segments, relaunched or not
    /// (counted where a completion settles; carried by checkpoints).
    pub failures: u32,
    /// Whether the last MD segment failed and was not recovered — a stale
    /// replica sits out the next exchange.
    pub stale: bool,
}

impl Replica {
    pub fn new(id: usize, system: System) -> Self {
        Replica {
            id,
            system: Arc::new(Mutex::new(system)),
            segments_done: 0,
            failures: 0,
            stale: false,
        }
    }
}

/// The parameters a slot implies, split by how the engine consumes them.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotParams {
    /// Thermostat temperature (defaults to `default_temperature` when no T
    /// dimension exists).
    pub temperature: f64,
    /// Salt concentration in mol/L (0 when no S dimension).
    pub salt_molar: f64,
    /// Solvent pH (7.0 when no pH dimension).
    pub ph: f64,
    /// All umbrella restraints (one per U dimension).
    pub restraints: Vec<DihedralRestraint>,
}

impl SlotParams {
    /// Resolve a slot's full parameter set from the grid.
    pub fn resolve(grid: &ParamGrid, slot: usize, default_temperature: f64) -> SlotParams {
        let coords = grid.coords_of(slot);
        let params = grid.params_at(&coords);
        let mut out = SlotParams {
            temperature: default_temperature,
            salt_molar: 0.0,
            ph: 7.0,
            restraints: Vec::new(),
        };
        for p in &params {
            match p {
                ExchangeParam::Temperature(t) => out.temperature = *t,
                ExchangeParam::Salt(c) => out.salt_molar = *c,
                ExchangeParam::Ph(v) => out.ph = *v,
                ExchangeParam::Umbrella { .. } => {
                    out.restraints.push(p.as_restraint().expect("umbrella param"))
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exchange::param::Dimension;
    use mdsim::models::alanine_dipeptide;

    fn grid() -> ParamGrid {
        ParamGrid::new(vec![
            Dimension::temperature_geometric(273.0, 373.0, 4),
            Dimension::salt_linear(0.0, 0.6, 3),
            Dimension::umbrella_uniform("phi", 4, 0.02),
        ])
        .unwrap()
    }

    #[test]
    fn resolve_combines_all_dimensions() {
        let g = grid();
        let slot = g.slot_of(&[1, 2, 3]);
        let p = SlotParams::resolve(&g, slot, 300.0);
        assert!((p.temperature - g.dims[0].ladder[1].scalar()).abs() < 1e-12);
        assert!((p.salt_molar - 0.6).abs() < 1e-12);
        assert_eq!(p.restraints.len(), 1);
        assert_eq!(p.restraints[0].dihedral, "phi");
    }

    #[test]
    fn default_temperature_when_no_t_dimension() {
        let g = ParamGrid::new(vec![Dimension::umbrella_uniform("phi", 8, 0.02)]).unwrap();
        let p = SlotParams::resolve(&g, 3, 310.0);
        assert_eq!(p.temperature, 310.0);
        assert_eq!(p.salt_molar, 0.0);
        assert_eq!(p.ph, 7.0);
        assert_eq!(p.restraints.len(), 1);
    }

    #[test]
    fn two_umbrella_dimensions_give_two_restraints() {
        let g = ParamGrid::new(vec![
            Dimension::umbrella_uniform("phi", 4, 0.02),
            Dimension::umbrella_uniform("psi", 4, 0.02),
        ])
        .unwrap();
        let p = SlotParams::resolve(&g, g.slot_of(&[1, 2]), 300.0);
        assert_eq!(p.restraints.len(), 2);
        assert_eq!(p.restraints[0].dihedral, "phi");
        assert_eq!(p.restraints[1].dihedral, "psi");
    }

    #[test]
    fn ph_dimension_resolves() {
        let g = ParamGrid::new(vec![
            Dimension::temperature_geometric(280.0, 320.0, 2),
            Dimension::ph_linear(4.0, 9.0, 3),
        ])
        .unwrap();
        let p = SlotParams::resolve(&g, g.slot_of(&[1, 2]), 300.0);
        assert_eq!(p.ph, 9.0);
        assert!(p.temperature > 300.0);
    }

    #[test]
    fn replica_construction() {
        let r = Replica::new(7, alanine_dipeptide());
        assert_eq!(r.id, 7);
        assert_eq!(r.segments_done, 0);
        assert!(!r.stale);
        assert_eq!(lock_system(&r.system).n_atoms(), mdsim::models::BACKBONE_ATOMS);
    }
}
