//! The engine seam, through the crate's public API: every engine binding
//! goes down the one MD task path (`amm::prepare_md`) and differs only in
//! its file dialect. One table over the five bindings; a short campaign per
//! `EngineChoice`. Also compiled by `tests-offline/`.

use mdsim::forcefield::NonbondedParams;
use mdsim::io::mdin::MdinControl;
use mdsim::models::dipeptide_forcefield;
use mdsim::DihedralRestraint;
use pilot::staging::StagingArea;
use repex::amm::{prepare_md, read_staged_mdinfo, AmberAmm, Amm, GromacsAmm, MdSpec, NamdAmm};
use repex::config::{EngineChoice, SimulationConfig};
use repex::emm::sync::run_sync;
use repex::simulation::build_ctx;
use std::sync::Arc;

/// One way a campaign can be configured to run its MD, and what that must
/// come out as.
#[derive(Clone, Copy)]
struct Binding {
    name: &'static str,
    engine: EngineChoice,
    cores: usize,
    gpu: bool,
    executable: &'static str,
    /// Extension of the control file and of the restart file.
    control_ext: &'static str,
    restart_ext: &'static str,
    /// Text that makes the control file unparseable in this dialect.
    garbage: &'static str,
}

const BINDINGS: [Binding; 5] = [
    Binding {
        name: "amber 1 core",
        engine: EngineChoice::Amber,
        cores: 1,
        gpu: false,
        executable: "sander",
        control_ext: "mdin",
        restart_ext: "rst7",
        garbage: "no namelist here\n",
    },
    Binding {
        name: "amber 4 cores",
        engine: EngineChoice::Amber,
        cores: 4,
        gpu: false,
        executable: "pmemd.MPI",
        control_ext: "mdin",
        restart_ext: "rst7",
        garbage: "no namelist here\n",
    },
    Binding {
        name: "amber gpu",
        engine: EngineChoice::Amber,
        cores: 1,
        gpu: true,
        executable: "pmemd.cuda",
        control_ext: "mdin",
        restart_ext: "rst7",
        garbage: "no namelist here\n",
    },
    Binding {
        name: "namd",
        engine: EngineChoice::Namd,
        cores: 1,
        gpu: false,
        executable: "namd2",
        control_ext: "conf",
        restart_ext: "coor",
        garbage: "explodeNow yes\n",
    },
    Binding {
        name: "gromacs",
        engine: EngineChoice::Gromacs,
        cores: 1,
        gpu: false,
        executable: "gmx mdrun",
        control_ext: "mdp",
        restart_ext: "gro",
        garbage: "integrator = md\n",
    },
];

const BASE: &str = "r00003_c0001";

/// The AMM and the segment spec a campaign configured as `b` hands to
/// `prepare_md` for replica 3, cycle 1 — taken from the real context, so the
/// config → binding → executable chain is the one under test. 6000 nominal
/// steps, 50 integrated, sampled every 10.
fn segment(b: &Binding, restraints: Vec<DihedralRestraint>) -> (Arc<dyn Amm>, MdSpec) {
    let mut cfg = SimulationConfig::t_remd(4, 6000, 2);
    cfg.engine = b.engine;
    cfg.resource.cores_per_replica = b.cores;
    cfg.resource.use_gpu = b.gpu;
    cfg.surrogate_steps = 50;
    cfg.sample_stride = 10;
    let ctx = build_ctx(cfg).unwrap();
    let mut spec = ctx.md_spec(3, 1, 0);
    assert_eq!((spec.replica, spec.cycle), (3, 1));
    spec.params.temperature = 320.0;
    spec.params.salt_molar = 0.25;
    spec.params.ph = 6.0;
    spec.params.restraints = restraints;
    (Arc::clone(&ctx.amm), spec)
}

fn umbrella() -> Vec<DihedralRestraint> {
    vec![DihedralRestraint::new("psi", 0.02, -120.0)]
}

#[test]
fn every_binding_goes_down_the_one_task_path() {
    for b in &BINDINGS {
        for restraints in [vec![], umbrella()] {
            let row = format!("{} / {} restraint(s)", b.name, restraints.len());
            let restrained = !restraints.is_empty();
            let staging = StagingArea::new();
            let (amm, spec) = segment(b, restraints);
            let seed = spec.seed;
            let (desc, work) = prepare_md(&amm, spec, &staging).unwrap();

            // The unit: one name scheme, the binding's executable and cores,
            // the control file in, restart + mdinfo out.
            let control = format!("{BASE}.{}", b.control_ext);
            let restart = format!("{BASE}.{}", b.restart_ext);
            let mdinfo = format!("{BASE}.mdinfo");
            assert_eq!(desc.name, format!("md-{BASE}"), "{row}");
            assert_eq!(desc.executable, b.executable, "{row}");
            assert_eq!(desc.cores, b.cores, "{row}");
            assert_eq!(desc.replica, Some(3), "{row}");
            assert_eq!(desc.input_staging, vec![control.clone()], "{row}");
            assert_eq!(desc.output_staging, vec![restart.clone(), mdinfo.clone()], "{row}");

            // The inputs: the slot's current parameters in the dialect's own
            // keywords and units, nominal steps, the base's 9 Å cutoff.
            let text = staging.get_text(&control).unwrap();
            let has = |line: &str| assert!(text.contains(line), "{row}: no {line:?} in\n{text}");
            match b.control_ext {
                "mdin" => {
                    let ctl = MdinControl::parse(&text).unwrap();
                    assert_eq!(ctl.temp0, 320.0, "{row}");
                    assert_eq!(ctl.saltcon, 0.25, "{row}");
                    assert_eq!(ctl.solvph, 6.0, "{row}");
                    assert_eq!(ctl.nstlim, 6000, "{row}: nominal steps in the file");
                    has(&format!("ig = {seed},"));
                    has("cut = 9.00,");
                    let rst = format!("{BASE}.RST");
                    assert_eq!(ctl.disang.as_deref(), restrained.then_some(rst.as_str()), "{row}");
                    assert_eq!(staging.contains(&rst), restrained, "{row}");
                    if restrained {
                        // psi is atoms 2..=5 zero-based: 1-based in the file.
                        let disang = staging.get_text(&rst).unwrap();
                        assert!(
                            disang.contains("iat=3,4,5,6, r2=-120.0000, rk2=0.020000"),
                            "{row}: {disang}"
                        );
                    }
                }
                "conf" => {
                    has("numsteps            6000");
                    has("timestep            2"); // fs
                    has("temperature         320");
                    has("saltConcentration   0.25");
                    has("solventPH           6");
                    has("cutoff              9\n");
                    assert_eq!(
                        text.contains("harmonicDihedral    psi -120 0.02"),
                        restrained,
                        "{row}"
                    );
                }
                "mdp" => {
                    has("integrator          = sd");
                    has("nsteps              = 6000");
                    has("ref-t               = 320");
                    has("tau-t               = 0.2"); // gamma 5 -> tau 0.2
                    has("salt-concentration  = 0.25");
                    has("solvent-ph          = 6");
                    has("rcoulomb            = 0.9\n"); // nm
                    assert_eq!(
                        text.contains("dihres              = psi -120 0.02"),
                        restrained,
                        "{row}"
                    );
                }
                other => unreachable!("{other}"),
            }
            assert_eq!(
                staging.len(),
                1 + usize::from(restrained && b.control_ext == "mdin"),
                "{row}"
            );

            // The payload: runs the surrogate steps, reports for its
            // replica, and stages restart + mdinfo under the dialect's names.
            let result = work().unwrap();
            let md = result.as_md().unwrap();
            assert_eq!((md.replica, md.slot, md.cycle), (3, 3, 1), "{row}");
            assert_eq!(md.trace.len(), 5, "{row}: 50 steps / stride 10");
            assert!(staging.contains(&restart), "{row}");
            let info = read_staged_mdinfo(&staging, BASE).unwrap();
            assert_eq!(info.nstep, 50, "{row}");
            assert!((info.eptot - md.potential).abs() < 1e-3, "{row}");
            assert!((info.physical_potential() - md.physical_potential).abs() < 1e-3, "{row}");
            assert_eq!(info.restraint > 0.0, restrained, "{row}");
            let title = staging.get_text(&restart).unwrap();
            assert!(title.lines().next().unwrap().ends_with("replica 3 cycle 1"), "{row}");
        }
    }
    // Whatever the core count, NAMD is namd2.
    let (_, spec) = segment(&Binding { cores: 64, ..BINDINGS[3] }, vec![]);
    assert_eq!((spec.engine.executable(), spec.cores), ("namd2", 64));
}

/// A 64-bit seed survives render → stage → parse in every dialect, so the
/// replicas of a wide campaign keep the distinct thermostat streams
/// `task_seed` gives them (read through `f64`, the 7000 cycle-0 replicas of
/// `--seed 7` reached the engine with 8 distinct seeds).
#[test]
fn every_dialect_round_trips_a_64_bit_seed() {
    let mut cfg = SimulationConfig::t_remd(4, 6000, 2);
    cfg.seed = 7;
    let ctx = build_ctx(cfg).unwrap();
    let seeds: Vec<u64> = (0..7000).map(|replica| ctx.task_seed(replica, 0, 0)).collect();
    for b in [&BINDINGS[0], &BINDINGS[3], &BINDINGS[4]] {
        let (amm, mut spec) = segment(b, vec![]);
        let staging = StagingArea::new();
        let mut round_trip = |seed: u64| {
            spec.seed = seed;
            let inputs = amm.render(&spec, BASE).unwrap();
            let control = inputs[0].0.clone();
            for (name, text) in inputs {
                staging.put_text(name, text);
            }
            amm.parse(&staging, &control, &spec.system).unwrap().seed
        };
        assert_eq!(round_trip(u64::MAX - 1), u64::MAX - 1, "{}", b.name);
        let parsed: std::collections::BTreeSet<u64> =
            seeds.iter().map(|&s| round_trip(s)).collect();
        assert_eq!(parsed.len(), 7000, "{}: one noise stream per replica", b.name);
        assert!(seeds.iter().all(|s| parsed.contains(s)), "{}", b.name);
    }
}

/// Bad inputs fail preparation or fail the task; none of them panics (a
/// panicking payload is re-raised on the submitter and kills the campaign).
#[test]
fn bad_inputs_fail_the_task_not_the_process() {
    for b in &BINDINGS {
        let control = format!("{BASE}.{}", b.control_ext);
        let prepared = |restraints| {
            let staging = StagingArea::new();
            let (amm, spec) = segment(b, restraints);
            let unit = prepare_md(&amm, spec, &staging);
            (staging, unit)
        };

        // Missing control file.
        let (staging, unit) = prepared(vec![]);
        assert!(staging.delete(&control));
        let err = (unit.unwrap().1)().unwrap_err();
        assert!(err.contains(&control), "{}: {err}", b.name);

        // Corrupted control file.
        let (staging, unit) = prepared(vec![]);
        staging.put_text(&control, b.garbage);
        assert!((unit.unwrap().1)().is_err(), "{}", b.name);

        // A restraint on a dihedral the topology does not name: Amber cannot
        // even write its index-based file; the name-based dialects stage it
        // and the engine rejects the job.
        let (_, unit) = prepared(vec![DihedralRestraint::new("chi1", 0.02, 0.0)]);
        match (b.control_ext, unit) {
            ("mdin", unit) => assert!(unit.is_err(), "{}", b.name),
            (_, unit) => {
                let err = (unit.unwrap().1)().unwrap_err();
                assert!(err.contains("chi1"), "{}: {err}", b.name);
            }
        }

        if b.control_ext == "mdin" {
            let rst = format!("{BASE}.RST");
            // Missing and corrupted DISANG.
            let (staging, unit) = prepared(umbrella());
            assert!(staging.delete(&rst));
            assert!((unit.unwrap().1)().unwrap_err().contains(&rst), "{}", b.name);
            let (staging, unit) = prepared(umbrella());
            staging.put_text(&rst, " &rst iat=3,4,5, r2=0.0, rk2=0.02, /\n");
            assert!((unit.unwrap().1)().is_err(), "{}", b.name);
            // Indices that parse but name no dihedral; and a zero, which is
            // not a 1-based index at all (`iat - 1` used to underflow).
            for iat in ["1,2,3,4", "0,2,3,4"] {
                let (staging, unit) = prepared(umbrella());
                staging.put_text(
                    &rst,
                    format!(" &rst iat=3,4,5,6, r2=0.0, rk2=0.02, /\n &rst iat={iat}, r2=0.0, rk2=0.02, /\n"),
                );
                let err = (unit.unwrap().1)().unwrap_err();
                assert!(err.contains(&rst) && err.contains("record 2"), "{} {iat}: {err}", b.name);
            }
        }
    }
}

/// The input files state the cutoff the engine uses, each in its own unit.
#[test]
fn dialects_render_the_cutoff_of_their_base() {
    let base = NonbondedParams { cutoff: 12.0, ..dipeptide_forcefield().nonbonded };
    let amms: [(Arc<dyn Amm>, &str); 3] = [
        (Arc::new(AmberAmm::new(base)), "cut = 12.00,"),
        (Arc::new(NamdAmm::new(base)), "cutoff              12\n"),
        (Arc::new(GromacsAmm::new(base)), "rcoulomb            = 1.2\n"),
    ];
    for (amm, line) in amms {
        let (_, spec) = segment(&BINDINGS[0], vec![]);
        let files = amm.render(&spec, BASE).unwrap();
        assert_eq!(files.len(), 1);
        assert!(files[0].1.contains(line), "no {line:?} in\n{}", files[0].1);
    }
}

/// A 6-replica, 2-cycle synchronous campaign per engine choice: every
/// replica advances, exchanges are attempted, and what is left in staging is
/// each replica's last segment — control, restart, mdinfo — in that engine's
/// dialect and no other.
#[test]
fn a_campaign_per_engine_choice_leaves_its_dialects_files() {
    let n = 6;
    for (engine, exts) in [
        (EngineChoice::Amber, ["mdin", "rst7", "mdinfo"]),
        (EngineChoice::Namd, ["conf", "coor", "mdinfo"]),
        (EngineChoice::Gromacs, ["mdp", "gro", "mdinfo"]),
    ] {
        let mut cfg = SimulationConfig::t_remd(n, 600, 2);
        cfg.engine = engine;
        cfg.surrogate_steps = 10;
        let mut ctx = build_ctx(cfg).unwrap();
        let cycles = run_sync(&mut ctx).unwrap();
        assert_eq!(cycles.len(), 2, "{engine:?}");
        assert_eq!(ctx.failed_tasks, 0, "{engine:?}");
        assert!(ctx.replicas.iter().all(|r| r.segments_done == 2 && !r.stale), "{engine:?}");
        assert!(ctx.acceptance[0].attempts > 0, "{engine:?}");
        let mut staged = ctx.pilot.staging.list("");
        staged.sort();
        let mut expected: Vec<String> = (0..n)
            .flat_map(|r| exts.iter().map(move |ext| format!("r{r:05}_c0001.{ext}")))
            .collect();
        expected.sort();
        assert_eq!(staged, expected, "{engine:?}: exactly 3n files of its own dialect");
    }
}
