//! The engine seam, through the crate's public API: every engine binding
//! goes down the one MD task path (`amm::prepare_md`) and differs only in
//! its file dialect. One table over the five bindings; a short campaign per
//! `EngineChoice`.

use mdsim::engine::{MdEngine, MdJob};
use mdsim::forcefield::NonbondedParams;
use mdsim::io::mdin::MdinControl;
use mdsim::models::dipeptide_forcefield;
use mdsim::{DihedralRestraint, System};
use pilot::staging::{Retired, StagingArea};
use repex::amm::{prepare_md, read_staged_mdinfo, AmberAmm, Amm, GromacsAmm, MdSpec, NamdAmm};
use repex::config::{DimensionConfig, EngineChoice, SimulationConfig};
use repex::emm::sync::run_sync;
use repex::replica::SlotParams;
use repex::simulation::build_ctx;
use std::sync::{Arc, Mutex};

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
/// What the driver calls the first attempt of that segment's first pass.
const NAME: &str = "md-r00003_c0001-d0-a0";

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
    let ctx = build_ctx(cfg).expect("a valid config");
    let mut spec = ctx.md_spec(3, 1, 0);
    assert_eq!((spec.replica, spec.cycle), (3, 1));
    assert!(Arc::ptr_eq(&spec.params, &ctx.slot_params[3]), "the table's entry, not a copy");
    spec.params =
        Arc::new(SlotParams { temperature: 320.0, salt_molar: 0.25, ph: 6.0, restraints });
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
            let (desc, work) =
                prepare_md(&amm, spec, NAME.into(), &staging, Retired::default()).unwrap();

            // The unit: the caller's name, the binding's executable and
            // cores; staged so far, the control file (and Amber's DISANG).
            let control = format!("{BASE}.{}", b.control_ext);
            let restart = format!("{BASE}.{}", b.restart_ext);
            let mdinfo = format!("{BASE}.mdinfo");
            let rst = format!("{BASE}.RST");
            assert_eq!(desc.name, NAME, "{row}");
            assert_eq!(desc.executable, b.executable, "{row}");
            assert_eq!(desc.cores, b.cores, "{row}");
            assert_eq!(desc.replica, Some(3), "{row}");
            let mut inputs = vec![control.clone()];
            if restrained && b.control_ext == "mdin" {
                inputs.push(rst.clone());
            }
            inputs.sort();
            assert_eq!(staging.list(BASE), inputs, "{row}: inputs in");

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
            assert_eq!(staging.len(), inputs.len(), "{row}: nothing under another base");

            // The payload: runs the surrogate steps, reports for its
            // replica, and stages restart + mdinfo under the dialect's names.
            let result = work().unwrap();
            let md = result.as_md().unwrap();
            assert_eq!((md.replica, md.slot, md.cycle), (3, 3, 1), "{row}");
            assert_eq!(md.trace.len(), 5, "{row}: 50 steps / stride 10");
            let mut staged = inputs;
            staged.extend([restart.clone(), mdinfo]);
            staged.sort();
            assert_eq!(staging.list(BASE), staged, "{row}: restart + mdinfo out");
            let info = read_staged_mdinfo(&staging, 3, 1).unwrap();
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
            let unit = prepare_md(&amm, spec, NAME.into(), &staging, Retired::default());
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

/// `trait Amm` is the extension point, and nothing in it stops `render`
/// from returning no file at all: that fails the unit's preparation.
#[test]
fn an_amm_that_renders_no_input_file_fails_preparation() {
    struct Silent(AmberAmm);
    impl Amm for Silent {
        fn engine(&self, cores: usize) -> Arc<dyn MdEngine> {
            self.0.engine(cores)
        }
        fn restart_format(&self) -> (&'static str, &'static str) {
            self.0.restart_format()
        }
        fn render(&self, _: &MdSpec, _: &str) -> Result<Vec<(String, String)>, String> {
            Ok(Vec::new())
        }
        fn parse(&self, s: &StagingArea, c: &str, sys: &Mutex<System>) -> Result<MdJob, String> {
            self.0.parse(s, c, sys)
        }
    }
    let (_, spec) = segment(&BINDINGS[0], vec![]);
    let amm: Arc<dyn Amm> = Arc::new(Silent(AmberAmm::new(dipeptide_forcefield().nonbonded)));
    let staging = StagingArea::new();
    let err = prepare_md(&amm, spec, NAME.into(), &staging, Retired::default())
        .err()
        .expect("no control, no unit");
    assert!(err.contains("rendered no input file") && err.contains(NAME), "{err}");
    assert!(staging.is_empty());
}

/// The restart is staged as the state it will say and rendered for whoever
/// reads it: present from the moment the payload returns, byte-equal to
/// `write_restart` of the state the segment ended in, and still that state
/// after the replica has run its next segment.
#[test]
fn the_staged_restart_is_the_state_at_staging_time() {
    use mdsim::io::restart::{read_restart, write_restart};
    use repex::replica::lock_system;

    for b in [&BINDINGS[0], &BINDINGS[3], &BINDINGS[4]] {
        let staging = StagingArea::new();
        let (amm, spec) = segment(b, vec![]);
        let system = Arc::clone(&spec.system);
        let next = MdSpec { cycle: 2, ..spec.clone() };
        let (_, tag) = amm.restart_format();

        let (_, work) = prepare_md(&amm, spec, NAME.into(), &staging, Retired::default()).unwrap();
        work().unwrap();
        let after_first = lock_system(&system).state.clone();
        assert_eq!(after_first.step, 50, "{}", b.name);
        let restart = format!("{BASE}.{}", b.restart_ext);
        assert!(staging.contains(&restart), "{}", b.name);
        assert_eq!(staging.list(BASE).len(), 3, "{}: control, restart, mdinfo", b.name);

        // The replica moves on before anybody opens the file.
        let (_, work) =
            prepare_md(&amm, next, "md-r00003_c0002-d0-a0".into(), &staging, Retired::default())
                .unwrap();
        work().unwrap();
        assert_eq!(lock_system(&system).state.step, 100, "{}", b.name);

        let text = staging.get_text(&restart).unwrap();
        let title = format!("{tag}replica 3 cycle 1");
        assert_eq!(text, write_restart(&title, &after_first), "{}", b.name);
        assert_eq!(read_restart(&text).unwrap(), after_first, "{}", b.name);
        assert_eq!(staging.get_text(&restart).unwrap(), text, "{}: cached", b.name);
        let second = staging.get_text(&format!("r00003_c0002.{}", b.restart_ext)).unwrap();
        assert_eq!(read_restart(&second).unwrap().step, 100, "{}", b.name);
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
        assert!(ctx.ledger.dims()[0].attempts > 0, "{engine:?}");
        let mut staged = ctx.pilot.staging.list("");
        staged.sort();
        let mut expected: Vec<String> = (0..n)
            .flat_map(|r| exts.iter().map(move |ext| format!("r{r:05}_c0001.{ext}")))
            .collect();
        expected.sort();
        assert_eq!(staged, expected, "{engine:?}: exactly 3n files of its own dialect");
    }
}

// ---------------------------------------------------------------------------
// Every staged byte: four small campaigns, one per dialect.
// ---------------------------------------------------------------------------

/// 4 replicas × 2 cycles per dialect — Amber over a temperature ladder and
/// over temperature × umbrella (the DISANG path), NAMD, GROMACS — and what
/// each leaves in staging.
fn dialect_campaigns() -> Vec<(&'static str, repex::emm::DriverCtx)> {
    let rows = [
        ("amber T", EngineChoice::Amber, false),
        ("amber TxU", EngineChoice::Amber, true),
        ("namd", EngineChoice::Namd, false),
        ("gromacs", EngineChoice::Gromacs, false),
    ];
    rows.into_iter()
        .map(|(name, engine, umbrella)| {
            let mut cfg = SimulationConfig::t_remd(4, 600, 2);
            cfg.engine = engine;
            cfg.surrogate_steps = 10;
            cfg.seed = 7;
            if umbrella {
                cfg.dimensions = vec![
                    DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 2 },
                    DimensionConfig::Umbrella { dihedral: "phi".into(), count: 2, k_deg: 0.02 },
                ];
            }
            let mut ctx = build_ctx(cfg).expect("a valid config");
            run_sync(&mut ctx).expect("the campaign runs");
            assert_eq!(ctx.failed_tasks, 0, "{name}");
            (name, ctx)
        })
        .collect()
}

/// Prints one FNV-1a hash over every name and every byte the four campaigns
/// leave staged. Not an assertion: restart coordinates carry 17 digits of
/// what the host's libm computed, so the value is compared between two
/// builds on one host (`-- --ignored --nocapture staged_bytes_fingerprint`).
#[test]
#[ignore = "prints a host-dependent fingerprint to compare across builds"]
fn staged_bytes_fingerprint() {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes.iter().chain(&[0xff]) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut files = 0;
    for (_, ctx) in dialect_campaigns() {
        for name in ctx.pilot.staging.list("") {
            eat(name.as_bytes());
            eat(ctx.pilot.staging.get_text(&name).unwrap().as_bytes());
            files += 1;
        }
    }
    println!("staged_bytes_fingerprint: {files} files, fnv1a64 = {hash:016x}");
}

/// What `MdinControl::render`, `render_disang` and `MdInfo::render` wrote
/// through `core::fmt` before they had a writer of their own: every Amber
/// file a campaign stages is byte-equal to these renderings of the values it
/// parses to, and every restart to `write_restart` of the state it holds.
#[test]
fn every_staged_file_is_byte_equal_to_its_oracle() {
    use mdsim::io::mdin::parse_disang;
    use mdsim::io::mdinfo::MdInfo;
    use mdsim::io::restart::{read_restart, write_restart};
    use repex::replica::lock_system;

    let mdin_oracle = |c: &MdinControl, title: &str| {
        let mut s = format!("{title}\n &cntrl\n");
        s += &format!("  nstlim = {}, dt = {:.5},\n", c.nstlim, c.dt);
        s += &format!("  temp0 = {:.3}, gamma_ln = {:.3},\n", c.temp0, c.gamma_ln);
        s += &format!("  ig = {}, ntpr = {},\n", c.ig, c.ntpr);
        s += &format!(
            "  saltcon = {:.4}, solvph = {:.3}, cut = {:.2},\n /\n",
            c.saltcon, c.solvph, c.cut
        );
        c.disang.iter().for_each(|d| s += &format!("DISANG={d}\n"));
        s
    };
    let mdinfo_oracle = |i: &MdInfo| {
        format!(
            " NSTEP = {:>10}   TIME(PS) = {:>12.3}  TEMP(K) = {:>8.2}\n \
             Etot   = {:>14.4}  EKtot   = {:>14.4}  EPtot      = {:>14.4}\n \
             BOND   = {:>14.4}  ANGLE   = {:>14.4}  DIHED      = {:>14.4}\n \
             VDWAALS= {:>14.4}  EEL     = {:>14.4}  RESTRAINT  = {:>14.4}\n",
            i.nstep,
            i.time_ps,
            i.temperature,
            i.etot,
            i.ektot,
            i.eptot,
            i.bond,
            i.angle,
            i.dihed,
            i.vdwaals,
            i.eel,
            i.restraint
        )
    };
    for (row, ctx) in dialect_campaigns() {
        let staging = &ctx.pilot.staging;
        let mut seen = [0; 4];
        for name in staging.list("") {
            let text = staging.get_text(&name).unwrap();
            let (stem, ext) = name.rsplit_once('.').unwrap();
            let replica: usize = stem[1..6].parse().unwrap();
            match ext {
                "mdin" => {
                    let ctl = MdinControl::parse(&text).unwrap();
                    let title = format!("replica {replica} cycle 1");
                    assert_eq!(text, mdin_oracle(&ctl, &title), "{row}: {name}");
                    seen[0] += 1;
                }
                "RST" => {
                    let oracle: String = parse_disang(&text)
                        .unwrap()
                        .iter()
                        .map(|r| {
                            let [a, b, c, d] = r.iat;
                            format!(
                                " &rst iat={a},{b},{c},{d}, r2={:.4}, rk2={:.6}, /\n",
                                r.r2, r.rk2
                            )
                        })
                        .collect();
                    assert_eq!(text, oracle, "{row}: {name}");
                    seen[1] += 1;
                }
                "mdinfo" => {
                    let info = MdInfo::parse(&text).unwrap();
                    assert_eq!(text, mdinfo_oracle(&info), "{row}: {name}");
                    seen[2] += 1;
                }
                "rst7" | "coor" | "gro" => {
                    // Exchanges swap slots, not microstates (an accepted
                    // T-move rescales velocities): the replica still sits
                    // where its last segment ended.
                    let title = text.lines().next().unwrap();
                    assert!(title.ends_with(&format!("replica {replica} cycle 1")), "{row}");
                    let staged = read_restart(&text).unwrap();
                    assert_eq!(text, write_restart(title, &staged), "{row}: {name}");
                    let live = lock_system(&ctx.replicas[replica].system);
                    assert_eq!(staged.step, live.state.step, "{row}: {name}");
                    assert_eq!(staged.positions, live.state.positions, "{row}: {name}");
                    seen[3] += 1;
                }
                "conf" | "mdp" => {}
                other => panic!("{row}: unexpected staged file {name} ({other})"),
            }
        }
        let amber = usize::from(row.starts_with("amber"));
        let disang = usize::from(row == "amber TxU");
        assert_eq!(seen, [4 * amber, 4 * disang, 4, 4], "{row}");
    }
}
