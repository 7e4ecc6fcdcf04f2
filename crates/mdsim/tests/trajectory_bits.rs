//! Whole trajectories, pinned to the bit. Each case runs three segments, each
//! at its own temperature and seed, and then a batch of closing single points
//! on one context; it hashes (FNV-1a over the `f64` bits) the positions and
//! velocities after every segment, every mdinfo energy, the dihedral trace and
//! the single points. The golden values were taken before the pair list moved
//! to 16-bit pages, the lookups behind the screen and the segment-constant
//! integrator factors: those are storage and scheduling changes, and none of
//! them may move a bit.
//!
//! Each engine runs its cases on one `EngineScratch`, kept from segment to
//! segment and case to case as a pilot slot keeps it, so the golden values
//! also say that a kept scratch moves no bit;
//! `trajectory_bits_on_one_kept_scratch` carries one across systems of
//! different and of equal sizes.
//!
//! Cases: `SanderEngine` and 4-thread `PmemdEngine` on the 7-atom dipeptide
//! (the all-pairs list) with and without phi/psi restraints at salt 0 and 0.5,
//! on an aliased grid (600 solvated atoms, two cells per axis) and on an
//! image-shift grid (1 100 atoms, three per axis). The solvated cases are
//! tests of their own so that they run side by side.
//!
//! The values assume IEEE `f64` and the platform's `exp`, `sin`, `cos`,
//! `atan2` and `acos`; they were taken on x86-64 Linux (glibc).

use mdsim::engine::{
    EngineScratch, MdEngine, MdJob, MdOutput, PmemdEngine, SanderEngine, SinglePointRequest,
};
use mdsim::models::{alanine_dipeptide, dipeptide_forcefield, solvated_alanine_dipeptide};
use mdsim::{DihedralRestraint, EnergyBreakdown, System, Vec3};
use rng::Rng;

/// FNV-1a, 64 bits, fed whole `u64` words byte by byte.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn vecs(&mut self, vs: &[Vec3]) {
        for v in vs {
            self.f64(v.x);
            self.f64(v.y);
            self.f64(v.z);
        }
    }

    fn breakdown(&mut self, e: &EnergyBreakdown) {
        for x in [e.bond, e.angle, e.torsion, e.lj, e.coulomb, e.restraint] {
            self.f64(x);
        }
    }

    /// A segment's final state, mdinfo energies and dihedral trace.
    fn segment(&mut self, out: &MdOutput) {
        self.vecs(&out.final_state.positions);
        self.vecs(&out.final_state.velocities);
        let m = &out.mdinfo;
        for x in [m.time_ps, m.temperature, m.etot, m.ektot, m.eptot, m.bond, m.angle] {
            self.f64(x);
        }
        for x in [m.dihed, m.vdwaals, m.eel, m.restraint] {
            self.f64(x);
        }
        self.word(m.nstep);
        for (phi, psi) in &out.dihedral_trace {
            self.f64(*phi);
            self.f64(*psi);
        }
    }
}

struct Case {
    name: &'static str,
    system: fn() -> System,
    salt: f64,
    restrained: bool,
    /// Steps per segment and the sampling stride.
    steps: u64,
    stride: u64,
}

fn dipeptide() -> System {
    alanine_dipeptide()
}

fn aliased() -> System {
    solvated_alanine_dipeptide(600, 3)
}

fn image_shift() -> System {
    solvated_alanine_dipeptide(1100, 5)
}

/// The 7-atom cases: 40 steps a segment, a sample every fifth.
const fn small(salt: f64, restrained: bool) -> Case {
    Case { name: "dipeptide", system: dipeptide, salt, restrained, steps: 40, stride: 5 }
}

const CASES: [Case; 6] = [
    small(0.0, false),
    small(0.5, false),
    small(0.0, true),
    small(0.5, true),
    Case { name: "aliased 600", system: aliased, salt: 0.5, restrained: true, steps: 3, stride: 1 },
    Case {
        name: "image-shift 1100",
        system: image_shift,
        salt: 0.0,
        restrained: true,
        steps: 3,
        stride: 1,
    },
];

/// The hash of one case's three segments, on `scratch`, and closing single
/// points.
fn run(engine: &dyn MdEngine, case: &Case, scratch: &mut EngineScratch) -> u64 {
    let mut sys = (case.system)();
    sys.assign_maxwell_boltzmann(300.0, &mut Rng::seed(17));
    let restraints = if case.restrained {
        vec![DihedralRestraint::new("phi", 0.02, -60.0), DihedralRestraint::new("psi", 0.02, 135.0)]
    } else {
        Vec::new()
    };
    let mut h = Fnv::new();
    for (segment, temperature) in [300.0, 340.0, 280.0].into_iter().enumerate() {
        let job = MdJob {
            steps: case.steps,
            temperature,
            seed: 101 + segment as u64,
            salt_molar: case.salt,
            restraints: restraints.clone(),
            sample_stride: case.stride,
            ..Default::default()
        };
        h.segment(&engine.run_in(&mut sys, &job, scratch).expect("a stable segment"));
    }
    // One context for the batch: the run's own parameters, then another salt
    // and pH (the charges and scalars must follow), then the first again.
    let requests = [
        SinglePointRequest::new(case.salt, 7.0, &restraints),
        SinglePointRequest::new(0.3, 5.0, &[]),
        SinglePointRequest::new(case.salt, 7.0, &restraints),
    ];
    let points = engine.single_points_with(&sys, &requests);
    assert_eq!(points[0], points[2], "{}: the batch came back to its first request", case.name);
    for e in &points {
        h.breakdown(e);
    }
    h.0
}

/// Golden hashes, `CASES` order: sander, then pmemd on four threads.
const GOLDEN: [[u64; 2]; 6] = [
    [0xf8d0959a43e52cf5, 0xf8d0959a43e52cf5],
    [0x8bae9aadaa166e43, 0x8bae9aadaa166e43],
    [0x4c607b3b96b8f055, 0x4c607b3b96b8f055],
    [0x5f432800720ea4be, 0x5f432800720ea4be],
    [0x720820b8a12f4d07, 0x1f6e29d359440d5b],
    [0x106ee2e25e3828a1, 0x75d428bee078dc55],
];

/// Run `cases` on `engines` (0 sander, 1 pmemd) and compare with `GOLDEN`.
fn check(cases: std::ops::Range<usize>, engines: std::ops::Range<usize>) {
    let base = dipeptide_forcefield().nonbonded;
    let sander = SanderEngine::new(base);
    let pmemd = PmemdEngine::new(base, 4);
    let by_index: [&dyn MdEngine; 2] = [&sander, &pmemd];
    let mut scratch = [EngineScratch::default(), EngineScratch::default()];
    let mut moved = String::new();
    for c in cases {
        for e in engines.clone() {
            let got = run(by_index[e], &CASES[c], &mut scratch[e]);
            if got != GOLDEN[c][e] {
                let Case { name, salt, restrained, .. } = CASES[c];
                moved += &format!(
                    "GOLDEN[{c}][{e}] ({name}, salt {salt}, restrained {restrained}): {got:#018x}\n"
                );
            }
        }
    }
    assert!(moved.is_empty(), "trajectory hashes moved:\n{moved}");
}

#[test]
fn trajectory_bits_dipeptide() {
    check(0..4, 0..2);
}

#[test]
fn trajectory_bits_aliased_sander() {
    check(4..5, 0..1);
}

#[test]
fn trajectory_bits_aliased_pmemd() {
    check(4..5, 1..2);
}

#[test]
fn trajectory_bits_image_shift_sander() {
    check(5..6, 0..1);
}

#[test]
fn trajectory_bits_image_shift_pmemd() {
    check(5..6, 1..2);
}

/// One slot's scratch across systems: a 7-atom, a 2 881-atom and another
/// 7-atom segment back to back, then two more 7-atom topologies, each
/// with other LJ parameters than the one before. Every segment hashes as it
/// does on a fresh scratch.
#[test]
fn trajectory_bits_on_one_kept_scratch() {
    fn stiffer() -> System {
        let mut sys = alanine_dipeptide();
        let top = std::sync::Arc::make_mut(&mut sys.topology);
        top.atoms.iter_mut().for_each(|a| a.lj_epsilon *= 1.5);
        sys
    }
    fn solvated() -> System {
        solvated_alanine_dipeptide(2881, 7)
    }
    let systems: [fn() -> System; 5] = [dipeptide, solvated, dipeptide, stiffer, dipeptide];
    let engine = SanderEngine::new(dipeptide_forcefield().nonbonded);
    let mut kept = EngineScratch::default();
    for (k, system) in systems.into_iter().enumerate() {
        let hash = |out: MdOutput| {
            let mut h = Fnv::new();
            h.segment(&out);
            h.0
        };
        let mut sys = system();
        sys.assign_maxwell_boltzmann(300.0, &mut Rng::seed(17));
        // Two steps of the solvated system (a debug build is slow), forty
        // of the others.
        let steps = if sys.n_atoms() > 7 { 2 } else { 40 };
        let job = MdJob { steps, seed: 7 + k as u64, sample_stride: 1, ..Default::default() };
        let mut twin = sys.clone();
        let fresh = hash(engine.run(&mut twin, &job).expect("a stable segment"));
        let on_kept = hash(engine.run_in(&mut sys, &job, &mut kept).expect("a stable segment"));
        assert_eq!(on_kept, fresh, "segment {k} ({} atoms) on the kept scratch", sys.n_atoms());
    }
}
