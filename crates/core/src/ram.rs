//! Remote Application Modules (RAM): the exchange calculators.
//!
//! RAMs "execute on \[the\] HPC cluster" — here, inside compute-unit payloads.
//! The exchange math is always real: T-exchange parses the replicas' staged
//! `mdinfo` files; U-exchange evaluates each window's bias on the partner's
//! actual coordinates; S-exchange performs the four single-point energy
//! evaluations per candidate pair through the engine (the cost the paper
//! singles out as dominating S-REMD).

use crate::replica::{lock_system, SlotParams};
use crate::task::ExchangeReport;
use exchange::metropolis::{
    hamiltonian_delta, metropolis_accept, temperature_delta, umbrella_delta,
};
use exchange::pairing::{select_pairs, PairingStrategy};
use exchange::param::ExchangeParam;
use mdsim::engine::{MdEngine, SinglePointRequest};
use mdsim::System;
use rng::Rng;
use std::sync::{Arc, Mutex};

/// Per-slot data the exchange needs.
pub struct SlotInput {
    /// Grid slot (ladder position within the group is the index in
    /// `GroupInput::slots`).
    pub slot: usize,
    /// Replica currently occupying the slot.
    pub replica: usize,
    /// The occupant's segment whose staged output this exchange reads
    /// (T-exchange: its `.mdinfo`, under [`crate::amm::file_base`]).
    pub segment: u64,
    /// The rung's parameter in the exchanging dimension.
    pub param: ExchangeParam,
    /// Everything the slot implies: the thermostat temperature (shared
    /// across the group except in a T dimension), salt, pH and all
    /// restraints (for the S and pH single-points). The campaign's table
    /// entry, shared.
    pub params: Arc<SlotParams>,
    /// Microstate handle.
    pub system: Arc<Mutex<System>>,
    /// Whether this slot's occupant is stale (failed MD, sits out).
    pub stale: bool,
}

/// One exchange group: a 1-D sub-ladder (ordered by rung).
pub struct GroupInput {
    pub slots: Vec<SlotInput>,
}

/// The whole exchange task for one dimension.
pub struct ExchangeInput {
    pub dim: usize,
    pub cycle: u64,
    pub strategy: PairingStrategy,
    pub seed: u64,
    pub groups: Vec<GroupInput>,
    /// Staging area holding the replicas' mdinfo files.
    pub staging: pilot::staging::StagingArea,
}

/// Execute the exchange: returns every attempted pair's outcome, in order.
pub fn run_exchange(
    input: ExchangeInput,
    engine: Arc<dyn MdEngine>,
) -> Result<ExchangeReport, String> {
    let mut pair_outcomes = Vec::new();
    let mut rng = Rng::seed(
        input.seed ^ input.cycle.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (input.dim as u64) << 56,
    );
    for group in &input.groups {
        let n = group.slots.len();
        for (a, b) in select_pairs(input.strategy, n, input.cycle, &mut rng) {
            let sa = &group.slots[a];
            let sb = &group.slots[b];
            if sa.stale || sb.stale {
                continue; // fault policy Continue: failed replicas sit out
            }
            let delta = pair_delta(sa, sb, &input.staging, engine.as_ref())?;
            let accepted = metropolis_accept(delta, &mut rng);
            pair_outcomes.push((sa.slot.min(sb.slot), sa.slot.max(sb.slot), accepted));
        }
    }
    Ok(ExchangeReport { dim: input.dim, pair_outcomes })
}

/// The Metropolis `delta` for one candidate pair, per exchange type.
fn pair_delta(
    sa: &SlotInput,
    sb: &SlotInput,
    staging: &pilot::staging::StagingArea,
    engine: &dyn MdEngine,
) -> Result<f64, String> {
    match (&sa.param, &sb.param) {
        (ExchangeParam::Temperature(ta), ExchangeParam::Temperature(tb)) => {
            // Physical potential energies from the staged mdinfo files.
            let read =
                |s: &SlotInput| crate::amm::read_staged_mdinfo(staging, s.replica, s.segment);
            let (ea, eb) = (read(sa)?.physical_potential(), read(sb)?.physical_potential());
            Ok(temperature_delta(*ta, ea, *tb, eb))
        }
        (ExchangeParam::Umbrella { .. }, ExchangeParam::Umbrella { .. }) => {
            let ra = sa.param.as_restraint().expect("umbrella param");
            let rb = sb.param.as_restraint().expect("umbrella param");
            let (phi_a, phi_b) = {
                let sys_a = lock_system(&sa.system);
                let sys_b = lock_system(&sb.system);
                (
                    sys_a
                        .named_dihedral_angle(&ra.dihedral)
                        .ok_or_else(|| format!("missing dihedral {}", ra.dihedral))?,
                    sys_b
                        .named_dihedral_angle(&rb.dihedral)
                        .ok_or_else(|| format!("missing dihedral {}", rb.dihedral))?,
                )
            };
            // u_x_of_y: window x's bias on replica-at-slot-y's coordinates.
            let u_a_of_a = ra.energy_at(phi_a);
            let u_a_of_b = ra.energy_at(phi_b);
            let u_b_of_a = rb.energy_at(phi_a);
            let u_b_of_b = rb.energy_at(phi_b);
            Ok(umbrella_delta(sa.params.temperature, u_a_of_a, u_a_of_b, u_b_of_a, u_b_of_b))
        }
        (ExchangeParam::Salt(ca), ExchangeParam::Salt(cb)) => {
            // Four single-point energies through the engine — the expensive
            // part of S-REMD exchange. Batched per system so each replica's
            // pair list is built once and shared by both parameter sets.
            let requests = [
                SinglePointRequest::new(*ca, sa.params.ph, &sa.params.restraints),
                SinglePointRequest::new(*cb, sb.params.ph, &sb.params.restraints),
            ];
            let sys_a = lock_system(&sa.system);
            let sys_b = lock_system(&sb.system);
            let on_a = engine.single_points_with(&sys_a, &requests);
            let on_b = engine.single_points_with(&sys_b, &requests);
            Ok(hamiltonian_delta(
                sa.params.temperature,
                on_a[0].total(),
                on_b[0].total(),
                on_a[1].total(),
                on_b[1].total(),
            ))
        }
        (ExchangeParam::Ph(pa), ExchangeParam::Ph(pb)) => {
            // pH exchange is a Hamiltonian exchange over the pH-dependent
            // effective charges of the titratable sites (the paper's
            // proposed extension; same structure as constant-pH REMD).
            // Batched like S-exchange: one pair list per system.
            let requests = [
                SinglePointRequest::new(sa.params.salt_molar, *pa, &sa.params.restraints),
                SinglePointRequest::new(sb.params.salt_molar, *pb, &sb.params.restraints),
            ];
            let sys_a = lock_system(&sa.system);
            let sys_b = lock_system(&sb.system);
            let on_a = engine.single_points_with(&sys_a, &requests);
            let on_b = engine.single_points_with(&sys_b, &requests);
            Ok(hamiltonian_delta(
                sa.params.temperature,
                on_a[0].total(),
                on_b[0].total(),
                on_a[1].total(),
                on_b[1].total(),
            ))
        }
        (pa, pb) => Err(format!(
            "mismatched exchange parameters in one dimension: {:?} vs {:?}",
            pa.letter(),
            pb.letter()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::engine::SanderEngine;
    use mdsim::io::mdinfo::MdInfo;
    use mdsim::models::{alanine_dipeptide, dipeptide_forcefield};
    use mdsim::DihedralRestraint;
    use pilot::staging::StagingArea;

    fn params(
        temperature: f64,
        salt_molar: f64,
        ph: f64,
        restraints: Vec<DihedralRestraint>,
    ) -> Arc<SlotParams> {
        Arc::new(SlotParams { temperature, salt_molar, ph, restraints })
    }

    fn engine() -> Arc<dyn MdEngine> {
        Arc::new(SanderEngine::new(dipeptide_forcefield().nonbonded))
    }

    /// Stage the `.mdinfo` of replica `replica`'s segment 0.
    fn stage_mdinfo(staging: &StagingArea, replica: usize, eptot: f64) {
        let info = MdInfo {
            nstep: 100,
            time_ps: 1.0,
            temperature: 300.0,
            etot: eptot,
            ektot: 0.0,
            eptot,
            bond: eptot,
            angle: 0.0,
            dihed: 0.0,
            vdwaals: 0.0,
            eel: 0.0,
            restraint: 0.0,
        };
        staging.put_text(crate::amm::file_name(replica, 0, "mdinfo"), info.render());
    }

    /// Rung `rung`, held by replica `rung` after its segment 0.
    fn t_slot(rung: usize, t: f64) -> SlotInput {
        SlotInput {
            slot: rung,
            replica: rung,
            segment: 0,
            param: ExchangeParam::Temperature(t),
            params: params(t, 0.0, 7.0, vec![]),
            system: Arc::new(Mutex::new(alanine_dipeptide())),
            stale: false,
        }
    }

    #[test]
    fn favorable_temperature_swap_is_accepted() {
        let staging = StagingArea::new();
        // Cold replica holds much higher energy: swap always accepted.
        stage_mdinfo(&staging, 0, 100.0);
        stage_mdinfo(&staging, 1, -100.0);
        let input = ExchangeInput {
            dim: 0,
            cycle: 0,
            strategy: PairingStrategy::NeighborAlternating,
            seed: 1,
            groups: vec![GroupInput { slots: vec![t_slot(0, 300.0), t_slot(1, 400.0)] }],
            staging,
        };
        let report = run_exchange(input, engine()).unwrap();
        assert_eq!(report.pair_outcomes, vec![(0, 1, true)]);
    }

    #[test]
    fn very_unfavorable_temperature_swap_is_rejected() {
        let staging = StagingArea::new();
        stage_mdinfo(&staging, 0, -10_000.0);
        stage_mdinfo(&staging, 1, 10_000.0);
        let input = ExchangeInput {
            dim: 0,
            cycle: 0,
            strategy: PairingStrategy::NeighborAlternating,
            seed: 1,
            groups: vec![GroupInput { slots: vec![t_slot(0, 300.0), t_slot(1, 301.0)] }],
            staging,
        };
        let report = run_exchange(input, engine()).unwrap();
        assert_eq!(report.pair_outcomes, vec![(0, 1, false)]);
    }

    #[test]
    fn stale_replicas_sit_out() {
        let staging = StagingArea::new();
        stage_mdinfo(&staging, 0, 100.0);
        stage_mdinfo(&staging, 1, -100.0);
        let mut slot_a = t_slot(0, 300.0);
        slot_a.stale = true;
        let input = ExchangeInput {
            dim: 0,
            cycle: 0,
            strategy: PairingStrategy::NeighborAlternating,
            seed: 1,
            groups: vec![GroupInput { slots: vec![slot_a, t_slot(1, 400.0)] }],
            staging,
        };
        let report = run_exchange(input, engine()).unwrap();
        assert!(report.pair_outcomes.is_empty(), "stale pair not attempted");
    }

    #[test]
    fn missing_mdinfo_is_an_error() {
        let staging = StagingArea::new();
        stage_mdinfo(&staging, 0, 0.0);
        let input = ExchangeInput {
            dim: 0,
            cycle: 0,
            strategy: PairingStrategy::NeighborAlternating,
            seed: 1,
            groups: vec![GroupInput { slots: vec![t_slot(0, 300.0), t_slot(1, 330.0)] }],
            staging,
        };
        assert!(run_exchange(input, engine()).is_err());
    }

    fn u_slot(rung: usize, center: f64, sys: System) -> SlotInput {
        SlotInput {
            slot: rung,
            replica: rung,
            segment: 0,
            param: ExchangeParam::Umbrella {
                dihedral: "phi".into(),
                center_deg: center,
                k_deg: 0.02,
            },
            params: params(300.0, 0.0, 7.0, vec![DihedralRestraint::new("phi", 0.02, center)]),
            system: Arc::new(Mutex::new(sys)),
            stale: false,
        }
    }

    #[test]
    fn umbrella_exchange_runs_and_records_stats() {
        // Two adjacent windows on identical coordinates: cross terms equal
        // self terms, delta = 0, always accepted.
        let sys = alanine_dipeptide();
        let input = ExchangeInput {
            dim: 0,
            cycle: 0,
            strategy: PairingStrategy::NeighborAlternating,
            seed: 2,
            groups: vec![GroupInput {
                slots: vec![u_slot(0, 0.0, sys.clone()), u_slot(1, 0.0, sys.clone())],
            }],
            staging: StagingArea::new(),
        };
        let report = run_exchange(input, engine()).unwrap();
        assert_eq!(report.pair_outcomes, vec![(0, 1, true)], "identical windows exchange freely");
    }

    fn s_slot(rung: usize, salt: f64) -> SlotInput {
        SlotInput {
            slot: rung,
            replica: rung,
            segment: 0,
            param: ExchangeParam::Salt(salt),
            params: params(300.0, salt, 7.0, vec![]),
            system: Arc::new(Mutex::new(alanine_dipeptide())),
            stale: false,
        }
    }

    #[test]
    fn salt_exchange_with_identical_coordinates_accepts() {
        // Same coordinates in both replicas: e_a_of_b == e_a_of_a, delta = 0.
        let input = ExchangeInput {
            dim: 0,
            cycle: 0,
            strategy: PairingStrategy::NeighborAlternating,
            seed: 3,
            groups: vec![GroupInput { slots: vec![s_slot(0, 0.0), s_slot(1, 1.0)] }],
            staging: StagingArea::new(),
        };
        let report = run_exchange(input, engine()).unwrap();
        assert_eq!(report.pair_outcomes, vec![(0, 1, true)]);
    }

    fn ph_slot(rung: usize, ph: f64) -> SlotInput {
        SlotInput {
            slot: rung,
            replica: rung,
            segment: 0,
            param: ExchangeParam::Ph(ph),
            params: params(300.0, 0.0, ph, vec![]),
            system: Arc::new(Mutex::new(alanine_dipeptide())),
            stale: false,
        }
    }

    #[test]
    fn ph_exchange_with_identical_coordinates_accepts() {
        // Same coordinates: cross terms equal self terms, delta = 0.
        let input = ExchangeInput {
            dim: 0,
            cycle: 0,
            strategy: PairingStrategy::NeighborAlternating,
            seed: 4,
            groups: vec![GroupInput { slots: vec![ph_slot(0, 4.0), ph_slot(1, 9.0)] }],
            staging: StagingArea::new(),
        };
        let report = run_exchange(input, engine()).unwrap();
        assert_eq!(report.pair_outcomes, vec![(0, 1, true)]);
    }

    #[test]
    fn ph_changes_single_point_energy_of_titratable_system() {
        let e = engine();
        let sys = alanine_dipeptide();
        let lo = e.single_point_with(&sys, 0.0, 3.0, &[]).total();
        let hi = e.single_point_with(&sys, 0.0, 11.0, &[]).total();
        assert!((lo - hi).abs() > 1e-9, "titratable sites must respond to pH");
    }

    #[test]
    fn mismatched_params_in_dimension_error() {
        let staging = StagingArea::new();
        stage_mdinfo(&staging, 0, 0.0);
        let mixed = GroupInput { slots: vec![t_slot(0, 300.0), s_slot(1, 0.5)] };
        let input = ExchangeInput {
            dim: 0,
            cycle: 0,
            strategy: PairingStrategy::NeighborAlternating,
            seed: 1,
            groups: vec![mixed],
            staging,
        };
        assert!(run_exchange(input, engine()).is_err());
    }

    #[test]
    fn multiple_groups_all_processed() {
        let staging = StagingArea::new();
        for g in 0..3 {
            stage_mdinfo(&staging, 2 * g, 50.0);
            stage_mdinfo(&staging, 2 * g + 1, -50.0);
        }
        let groups = (0..3)
            .map(|g| GroupInput { slots: vec![t_slot(2 * g, 300.0), t_slot(2 * g + 1, 400.0)] })
            .collect();
        let input = ExchangeInput {
            dim: 0,
            cycle: 0,
            strategy: PairingStrategy::NeighborAlternating,
            seed: 1,
            groups,
            staging,
        };
        let report = run_exchange(input, engine()).unwrap();
        assert_eq!(report.pair_outcomes.len(), 3);
        assert!(report.pair_outcomes.iter().all(|&(.., accepted)| accepted));
    }
}
