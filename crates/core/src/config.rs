//! Simulation and resource configuration.
//!
//! The paper's usability requirement: REMD runs "must be fully specified by
//! configuration files … with a minimal set of parameters". RepEx-rs
//! simulations are described by a JSON document ([`SimulationConfig`])
//! covering the physics (dimensions, steps, engine) and a resource section
//! (cluster, cores, backend) — the two halves the framework deliberately
//! decouples.

use exchange::multidim::ParamGrid;
use exchange::pairing::PairingStrategy;
use exchange::param::Dimension;
use hpc::perfmodel::{EngineKind, PerfModel};
use hpc::ClusterSpec;
use obs::json::{self, Encode};
use obs::{json_enum, json_struct};
use obs::{Diagnostic, Severity};

/// Which MD engine family (and executable) runs the simulation phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// Amber family: `sander` for 1 core/replica, `pmemd.MPI` otherwise
    /// (`pmemd.cuda` when `resource.use-gpu` is set).
    Amber,
    /// NAMD (`namd2`).
    Namd,
    /// GROMACS (`gmx mdrun`) — the Section 5 engine extension.
    Gromacs,
}

json_enum!(EngineChoice { Amber: "amber", Namd: "namd", Gromacs: "gromacs" });

/// Synchronization pattern (Section 3.2.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Global barrier between simulation and exchange phases.
    Synchronous,
    /// No barrier; replicas transition to exchange on a fixed real-time
    /// tick. `tick_fraction` is the tick interval as a fraction of the
    /// nominal MD segment time.
    Asynchronous { tick_fraction: f64 },
}

// `"synchronous"` or `{"asynchronous": {"tick-fraction": 0.25}}`.
json_enum!(Pattern {
    Synchronous: "synchronous",
    Asynchronous { tick_fraction: "tick-fraction" }: "asynchronous",
});

/// What to do when a replica's MD task fails (Section 1: RepEx "can either
/// continue a simulation in case of replica failure or can relaunch").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPolicy {
    /// The failed replica sits out this cycle's exchange and resumes from
    /// its previous restart next cycle.
    Continue,
    /// Relaunch the failed task, up to `max_retries` times per task.
    Relaunch { max_retries: u32 },
}

// `"continue"` or `{"relaunch": {"max-retries": 3}}`.
json_enum!(FaultPolicy { Continue: "continue", Relaunch { max_retries: "max-retries" }: "relaunch" });

/// The physical model replicas simulate.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Reduced 7-atom alanine dipeptide in vacuum (cheap enough for real
    /// sampling at paper-scale replica counts).
    DipeptideVacuum,
    /// Solvated dipeptide with the given total atom count.
    DipeptideSolvated { atoms: usize },
}

// `"dipeptide-vacuum"` or `{"dipeptide-solvated": {"atoms": 2881}}`.
json_enum!(Workload {
    DipeptideVacuum: "dipeptide-vacuum",
    DipeptideSolvated { atoms: "atoms" }: "dipeptide-solvated",
});

impl Workload {
    /// Atom count charged to the performance model. For the vacuum model
    /// this is overridden by `cost_atoms` so virtual timings reflect the
    /// paper's solvated systems.
    pub fn real_atoms(&self) -> usize {
        match self {
            Workload::DipeptideVacuum => mdsim::models::BACKBONE_ATOMS,
            Workload::DipeptideSolvated { atoms } => *atoms,
        }
    }
}

/// One dimension in the config file.
#[derive(Debug, Clone, PartialEq)]
pub enum DimensionConfig {
    Temperature {
        min_k: f64,
        max_k: f64,
        count: usize,
    },
    /// Explicit (possibly non-geometric) temperature rungs — what the
    /// adaptive ladder optimizer produces.
    TemperatureList {
        temps_k: Vec<f64>,
    },
    Umbrella {
        dihedral: String,
        count: usize,
        k_deg: f64,
    },
    Salt {
        min_molar: f64,
        max_molar: f64,
        count: usize,
    },
    /// pH-exchange dimension (the paper's Section 5 extension).
    Ph {
        min_ph: f64,
        max_ph: f64,
        count: usize,
    },
}

// `{"type": "temperature", "min-k": 273.0, "max-k": 373.0, "count": 8}`.
json_enum!(DimensionConfig tagged by "type" {
    Temperature { min_k: "min-k", max_k: "max-k", count: "count" }: "temperature",
    TemperatureList { temps_k: "temps-k" }: "temperature-list",
    Umbrella { dihedral: "dihedral", count: "count", k_deg: "k-deg" }: "umbrella",
    Salt { min_molar: "min-molar", max_molar: "max-molar", count: "count" }: "salt",
    Ph { min_ph: "min-ph", max_ph: "max-ph", count: "count" }: "ph",
});

impl DimensionConfig {
    /// Structural checks this dimension must pass before [`Self::build`]
    /// can run (the ladder constructors assert on bad input). `idx` is the
    /// dimension's position in the config, used for the diagnostic path.
    pub fn check(&self, idx: usize) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let at = |field: &str| format!("/dimensions/{idx}/{field}");
        match self {
            DimensionConfig::Temperature { min_k, max_k, count } => {
                if *count == 0 {
                    out.push(
                        Diagnostic::error("C010", format!("dimension {idx}: zero rungs"))
                            .with_path(at("count"))
                            .with_hint("a dimension needs at least 1 rung (replica per rung)"),
                    );
                }
                if *min_k <= 0.0 || *max_k < *min_k {
                    out.push(
                        Diagnostic::error(
                            "C011",
                            format!(
                                "dimension {idx}: temperature range {min_k}..{max_k} K invalid"
                            ),
                        )
                        .with_path(at("min-k"))
                        .with_hint("require 0 < min-k <= max-k"),
                    );
                }
            }
            DimensionConfig::TemperatureList { temps_k } => {
                if temps_k.is_empty() {
                    out.push(
                        Diagnostic::error("C010", format!("dimension {idx}: zero rungs"))
                            .with_path(at("temps-k"))
                            .with_hint("list at least one temperature"),
                    );
                } else if temps_k[0] <= 0.0 || temps_k.windows(2).any(|w| w[1] <= w[0]) {
                    out.push(
                        Diagnostic::error(
                            "C012",
                            format!(
                                "dimension {idx}: temperatures must be positive and strictly \
                                 increasing (duplicates are not allowed)"
                            ),
                        )
                        .with_path(at("temps-k"))
                        .with_hint("sort the ladder and remove duplicate rungs"),
                    );
                }
            }
            DimensionConfig::Umbrella { count, k_deg, .. } => {
                if *count == 0 {
                    out.push(
                        Diagnostic::error("C010", format!("dimension {idx}: zero rungs"))
                            .with_path(at("count"))
                            .with_hint("a dimension needs at least 1 rung (replica per rung)"),
                    );
                }
                if *k_deg <= 0.0 {
                    out.push(
                        Diagnostic::error(
                            "C013",
                            format!("dimension {idx}: force constant k-deg must be positive"),
                        )
                        .with_path(at("k-deg")),
                    );
                }
            }
            DimensionConfig::Salt { min_molar, max_molar, count } => {
                if *count == 0 {
                    out.push(
                        Diagnostic::error("C010", format!("dimension {idx}: zero rungs"))
                            .with_path(at("count"))
                            .with_hint("a dimension needs at least 1 rung (replica per rung)"),
                    );
                }
                if *min_molar < 0.0 || *max_molar < *min_molar {
                    out.push(
                        Diagnostic::error(
                            "C011",
                            format!(
                                "dimension {idx}: salt range {min_molar}..{max_molar} M invalid"
                            ),
                        )
                        .with_path(at("min-molar"))
                        .with_hint("require 0 <= min-molar <= max-molar"),
                    );
                }
            }
            DimensionConfig::Ph { min_ph, max_ph, count } => {
                if *count == 0 {
                    out.push(
                        Diagnostic::error("C010", format!("dimension {idx}: zero rungs"))
                            .with_path(at("count"))
                            .with_hint("a dimension needs at least 1 rung (replica per rung)"),
                    );
                }
                if *max_ph < *min_ph {
                    out.push(
                        Diagnostic::error(
                            "C011",
                            format!("dimension {idx}: pH range {min_ph}..{max_ph} invalid"),
                        )
                        .with_path(at("min-ph")),
                    );
                }
            }
        }
        out
    }

    /// Rung count of this dimension.
    pub fn count(&self) -> usize {
        match self {
            DimensionConfig::Temperature { count, .. }
            | DimensionConfig::Umbrella { count, .. }
            | DimensionConfig::Salt { count, .. }
            | DimensionConfig::Ph { count, .. } => *count,
            DimensionConfig::TemperatureList { temps_k } => temps_k.len(),
        }
    }

    pub fn build(&self) -> Dimension {
        match self {
            DimensionConfig::Temperature { min_k, max_k, count } => {
                Dimension::temperature_geometric(*min_k, *max_k, *count)
            }
            DimensionConfig::TemperatureList { temps_k } => Dimension::temperature_list(temps_k),
            DimensionConfig::Umbrella { dihedral, count, k_deg } => {
                Dimension::umbrella_uniform(dihedral, *count, *k_deg)
            }
            DimensionConfig::Salt { min_molar, max_molar, count } => {
                Dimension::salt_linear(*min_molar, *max_molar, *count)
            }
            DimensionConfig::Ph { min_ph, max_ph, count } => {
                Dimension::ph_linear(*min_ph, *max_ph, *count)
            }
        }
    }
}

/// Where and how the workload executes.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceConfig {
    /// Cluster preset name: `supermic`, `stampede`, or `small:<cores>`.
    pub cluster: String,
    /// Pilot cores. `None` = enough for all replicas concurrently
    /// (Execution Mode I); fewer cores select Execution Mode II.
    pub cores: Option<usize>,
    /// Cores per replica (multi-core replicas, Section 4.5).
    pub cores_per_replica: usize,
    /// `"simulated"` (virtual cluster) or `"local"` (real threads).
    pub backend: String,
    /// Run MD on GPUs (one GPU per replica; Amber family switches to
    /// `pmemd.cuda`). The paper's Section 5: GPU support "is already
    /// available on Stampede".
    pub use_gpu: bool,
}

json_struct!(ResourceConfig {
    cluster: "cluster",
    cores: "cores",
    cores_per_replica: "cores-per-replica",
    backend: "backend",
    use_gpu: "use-gpu" = false,
});

impl Default for ResourceConfig {
    fn default() -> Self {
        ResourceConfig {
            cluster: "supermic".into(),
            cores: None,
            cores_per_replica: 1,
            backend: "simulated".into(),
            use_gpu: false,
        }
    }
}

/// The complete simulation description.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    pub title: String,
    pub engine: EngineChoice,
    pub pattern: Pattern,
    pub dimensions: Vec<DimensionConfig>,
    /// MD steps between exchange attempts.
    pub steps_per_cycle: u64,
    /// Number of cycles (exchange attempts per dimension sweep).
    pub n_cycles: u64,
    pub dt_ps: f64,
    pub gamma_ps: f64,
    /// Thermostat temperature when no T dimension is present.
    pub base_temperature: f64,
    pub workload: Option<Workload>,
    /// Atom count charged to the virtual-cluster performance model
    /// (defaults to the workload's real atom count).
    pub cost_atoms: Option<usize>,
    /// Real MD steps integrated per segment under the simulated backend
    /// (virtual time is still charged for `steps_per_cycle`).
    pub surrogate_steps: u64,
    /// Record (phi, psi) samples every this many integrated steps
    /// (0 = off).
    pub sample_stride: u64,
    /// Skip sampling during the first steps of each segment
    /// (re-equilibration after exchanges).
    pub sample_warmup: u64,
    /// Discard samples from cycles before this one (equilibration; the
    /// paper analyzes "the last 1 ns of production data").
    pub production_after_cycle: u64,
    pub fault_policy: FaultPolicy,
    /// Mean time between failures injected per running task, in seconds
    /// (`None` = no failure injection). Pairs with `fault-policy`.
    pub fault_mtbf_seconds: Option<f64>,
    /// Stress scenario layered over the simulated cluster: failure storms,
    /// heterogeneous node speeds, filesystem slowdowns or straggler
    /// injection (`None` = nominal cluster). Simulated backend only.
    pub scenario: Option<hpc::Scenario>,
    /// Asynchronous pattern only: minimum number of ready replicas before a
    /// tick flushes an exchange round (a FIFO-style window; `None` = flush
    /// whatever is ready). Must be at least 2 when set.
    pub async_min_ready: Option<usize>,
    pub pairing: PairingStrategy,
    pub seed: u64,
    pub resource: ResourceConfig,
    /// Skip the exchange phase entirely (the "No exchange" baseline of
    /// Fig. 7).
    pub no_exchange: bool,
    /// Energy-minimize each replica's starting structure before assigning
    /// velocities (standard equilibration-protocol hygiene).
    pub minimize_first: bool,
    /// Print a run-health progress line every N cycles (0 = off): Tc
    /// p50/p99, per-dimension acceptance, cumulative straggler flags.
    pub progress_every: u64,
}

json_struct!(SimulationConfig {
    title: "title",
    engine: "engine",
    pattern: "pattern",
    dimensions: "dimensions",
    steps_per_cycle: "steps-per-cycle",
    n_cycles: "n-cycles",
    dt_ps: "dt-ps" = DEFAULT_DT_PS,
    gamma_ps: "gamma-ps" = DEFAULT_GAMMA_PS,
    base_temperature: "base-temperature" = DEFAULT_TEMPERATURE,
    workload: "workload",
    cost_atoms: "cost-atoms",
    surrogate_steps: "surrogate-steps" = DEFAULT_SURROGATE_STEPS,
    sample_stride: "sample-stride" = 0,
    sample_warmup: "sample-warmup" = 0,
    production_after_cycle: "production-after-cycle" = 0,
    fault_policy: "fault-policy" = FaultPolicy::Continue,
    fault_mtbf_seconds: "fault-mtbf-seconds",
    scenario: "scenario",
    async_min_ready: "async-min-ready",
    pairing: "pairing" = PairingStrategy::NeighborAlternating,
    seed: "seed" = 0,
    resource: "resource" = ResourceConfig::default(),
    no_exchange: "no-exchange" = false,
    minimize_first: "minimize-first" = false,
    progress_every: "progress-every" = 0,
});

/// What an absent key means, for the four keys with a number to fall back to.
const DEFAULT_DT_PS: f64 = 0.002;
const DEFAULT_GAMMA_PS: f64 = 5.0;
const DEFAULT_TEMPERATURE: f64 = 300.0;
const DEFAULT_SURROGATE_STEPS: u64 = 200;

impl SimulationConfig {
    /// A minimal 1-D T-REMD config, the starting point most callers tweak.
    pub fn t_remd(n_replicas: usize, steps: u64, cycles: u64) -> Self {
        SimulationConfig {
            title: format!("T-REMD {n_replicas} replicas"),
            engine: EngineChoice::Amber,
            pattern: Pattern::Synchronous,
            dimensions: vec![DimensionConfig::Temperature {
                min_k: 273.0,
                max_k: 373.0,
                count: n_replicas,
            }],
            steps_per_cycle: steps,
            n_cycles: cycles,
            dt_ps: DEFAULT_DT_PS,
            gamma_ps: DEFAULT_GAMMA_PS,
            base_temperature: DEFAULT_TEMPERATURE,
            workload: Some(Workload::DipeptideVacuum),
            cost_atoms: Some(2881),
            surrogate_steps: DEFAULT_SURROGATE_STEPS,
            sample_stride: 0,
            sample_warmup: 0,
            production_after_cycle: 0,
            fault_policy: FaultPolicy::Continue,
            fault_mtbf_seconds: None,
            scenario: None,
            async_min_ready: None,
            pairing: PairingStrategy::NeighborAlternating,
            seed: 1,
            resource: ResourceConfig {
                cluster: "supermic".into(),
                cores: None,
                cores_per_replica: 1,
                backend: "simulated".into(),
                use_gpu: false,
            },
            no_exchange: false,
            minimize_first: false,
            progress_every: 0,
        }
    }

    /// Build the parameter grid from the dimension configs.
    pub fn build_grid(&self) -> Result<ParamGrid, String> {
        ParamGrid::new(self.dimensions.iter().map(|d| d.build()).collect())
    }

    /// Number of replicas (= grid slots).
    pub fn n_replicas(&self) -> Result<usize, String> {
        Ok(self.build_grid()?.n_slots())
    }

    /// Parse from JSON text. A syntax error carries its line and column; a
    /// shape error the pointer of the offending value and where that is.
    pub fn from_json(text: &str) -> Result<Self, json::Error> {
        json::from_str(text)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        self.encode().pretty()
    }

    /// Resolve the cluster preset, with any configured scenario's
    /// cluster-level effects (filesystem slowdown) applied — so the lints,
    /// the data-staging model and the drivers all see the stressed cluster.
    pub fn cluster(&self) -> Result<hpc::ClusterSpec, String> {
        let mut spec = cluster_preset(self.resource.cluster.as_str())?;
        if let Some(sc) = &self.scenario {
            sc.apply_to_cluster(&mut spec);
        }
        Ok(spec)
    }

    /// Sanity-check the whole document. Thin wrapper over
    /// [`Self::validate_diagnostics`]: the first Error-level finding becomes
    /// the `Err` message.
    pub fn validate(&self) -> Result<(), String> {
        match self.validate_diagnostics().into_iter().find(|d| d.severity == Severity::Error) {
            Some(d) => Err(d.message),
            None => Ok(()),
        }
    }

    /// Structural validation as typed diagnostics (`C0xx` codes). The `lint`
    /// crate folds these into its report; [`Self::validate`] surfaces the
    /// first error for callers that only need pass/fail.
    pub fn validate_diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        if self.dimensions.is_empty() {
            out.push(
                Diagnostic::error("C001", "dimensions list is empty")
                    .with_path("/dimensions")
                    .with_hint("declare at least one exchange dimension"),
            );
        }
        for (i, d) in self.dimensions.iter().enumerate() {
            out.extend(d.check(i));
        }
        if self.steps_per_cycle == 0 {
            out.push(
                Diagnostic::error("C020", "steps-per-cycle must be positive")
                    .with_path("/steps-per-cycle"),
            );
        }
        if self.n_cycles == 0 {
            out.push(Diagnostic::error("C021", "n-cycles must be positive").with_path("/n-cycles"));
        }
        if self.dt_ps <= 0.0 {
            out.push(Diagnostic::error("C022", "dt-ps must be positive").with_path("/dt-ps"));
        }
        if let Some(Workload::DipeptideSolvated { atoms }) = self.workload {
            let min = mdsim::models::min_solvated_atoms();
            if atoms < min {
                out.push(
                    Diagnostic::error(
                        "C023",
                        format!("a solvated dipeptide needs at least {min} atoms, got {atoms}"),
                    )
                    .with_path("/workload/atoms")
                    .with_hint("the periodic box must be at least two cutoffs wide"),
                );
            }
        }
        if self.resource.cores_per_replica == 0 {
            out.push(
                Diagnostic::error("C030", "cores-per-replica must be positive")
                    .with_path("/resource/cores-per-replica"),
            );
        }
        // The grid (and anything needing the replica count) only exists once
        // the per-dimension structure is sound.
        let mut grid = None;
        if !obs::diag::has_errors(&out) {
            match self.build_grid() {
                Ok(g) => grid = Some(g),
                // Sound dimensions can still fail grid assembly (>3 dims).
                Err(e) => out.push(Diagnostic::error("C002", e).with_path("/dimensions")),
            }
        }
        let cluster = match self.cluster() {
            Ok(c) => Some(c),
            Err(e) => {
                out.push(Diagnostic::error("C031", e).with_path("/resource/cluster"));
                None
            }
        };
        if let (Some(grid), Some(cluster)) = (&grid, &cluster) {
            let n = grid.n_slots();
            if let Some(cores) = self.resource.cores {
                if cores == 0 {
                    out.push(
                        Diagnostic::error("C032", "cores must be positive")
                            .with_path("/resource/cores"),
                    );
                } else {
                    if cores < self.resource.cores_per_replica {
                        out.push(
                            Diagnostic::error(
                                "C033",
                                format!(
                                    "pilot cores {cores} < cores-per-replica {}",
                                    self.resource.cores_per_replica
                                ),
                            )
                            .with_path("/resource/cores"),
                        );
                    }
                    if cores > cluster.total_cores() {
                        out.push(
                            Diagnostic::error(
                                "C034",
                                format!(
                                    "pilot cores {cores} exceed cluster capacity {}",
                                    cluster.total_cores()
                                ),
                            )
                            .with_path("/resource/cores"),
                        );
                    }
                }
            } else {
                let needed = n * self.resource.cores_per_replica;
                if needed > cluster.total_cores() {
                    out.push(
                        Diagnostic::error(
                            "C035",
                            format!(
                                "Execution Mode I needs {needed} cores but {} has {}; set \
                                 resource.cores for Execution Mode II",
                                cluster.name,
                                cluster.total_cores()
                            ),
                        )
                        .with_path("/resource/cores")
                        .with_hint("set resource.cores below the replica total for Mode II"),
                    );
                }
            }
            if matches!(self.pattern, Pattern::Asynchronous { .. }) && grid.n_dims() > 1 {
                out.push(
                    Diagnostic::error(
                        "C040",
                        "the asynchronous pattern currently supports 1-D REMD only",
                    )
                    .with_path("/pattern"),
                );
            }
        }
        if let Pattern::Asynchronous { tick_fraction } = self.pattern {
            if tick_fraction <= 0.0 {
                out.push(
                    Diagnostic::error("C041", "async tick-fraction must be positive")
                        .with_path("/pattern/tick-fraction"),
                );
            }
        }
        if let Some(m) = self.async_min_ready {
            if m < 2 {
                out.push(
                    Diagnostic::error("C042", "async-min-ready must be at least 2 when set")
                        .with_path("/async-min-ready")
                        .with_hint("an exchange needs at least one candidate pair"),
                );
            }
            if self.pattern == Pattern::Synchronous {
                out.push(
                    Diagnostic::warning(
                        "C043",
                        "async-min-ready has no effect under the synchronous pattern",
                    )
                    .with_path("/async-min-ready"),
                );
            }
        }
        if let Some(mtbf) = self.fault_mtbf_seconds {
            // The typed constructor is the single source of truth for what
            // makes a valid MTBF (rejects NaN and subnormals, not just
            // non-positives).
            if let Err(e) = hpc::FaultModel::new(mtbf) {
                out.push(
                    Diagnostic::error("C044", format!("fault-mtbf-seconds: {e}"))
                        .with_path("/fault-mtbf-seconds"),
                );
            }
        }
        if let Some(sc) = &self.scenario {
            if let Err(e) = sc.check() {
                out.push(
                    Diagnostic::error("C050", format!("scenario {}: {e}", sc.name()))
                        .with_path("/scenario"),
                );
            } else {
                if let hpc::Scenario::FailureStorm { storm_mtbf_seconds, .. } = sc {
                    let base = self.fault_mtbf_seconds.unwrap_or(f64::INFINITY);
                    if *storm_mtbf_seconds >= base {
                        out.push(
                            Diagnostic::warning(
                                "C051",
                                "failure-storm MTBF is no lower than the baseline \
                                 fault-mtbf-seconds; the storm adds no stress",
                            )
                            .with_path("/scenario"),
                        );
                    }
                }
                if self.resource.backend != "simulated" {
                    out.push(
                        Diagnostic::warning(
                            "C052",
                            "scenarios model the virtual cluster; the local backend ignores them",
                        )
                        .with_path("/scenario"),
                    );
                }
            }
        }
        match self.resource.backend.as_str() {
            "simulated" | "local" => {}
            other => out.push(
                Diagnostic::error("C036", format!("unknown backend {other:?} (simulated|local)"))
                    .with_path("/resource/backend"),
            ),
        }
        if self.resource.use_gpu && self.resource.cores_per_replica > 1 {
            out.push(
                Diagnostic::error(
                    "C037",
                    "use-gpu assigns one GPU per replica; cores-per-replica must be 1",
                )
                .with_path("/resource/use-gpu"),
            );
        }
        if self.resource.use_gpu && self.engine != EngineChoice::Amber {
            out.push(
                Diagnostic::error(
                    "C038",
                    "GPU support is currently available for the Amber family only",
                )
                .with_path("/resource/use-gpu"),
            );
        }
        out
    }

    /// Pilot core count: explicit, or Mode I default (all replicas
    /// concurrent).
    pub fn pilot_cores(&self) -> Result<usize, String> {
        let n = self.n_replicas()?;
        Ok(self.resource.cores.unwrap_or(n * self.resource.cores_per_replica))
    }

    /// Execution Mode as the paper defines it: Mode I when allocated cores
    /// cover the whole simulation, Mode II otherwise.
    pub fn execution_mode(&self) -> Result<u8, String> {
        let needed = self.n_replicas()? * self.resource.cores_per_replica;
        Ok(if self.pilot_cores()? >= needed { 1 } else { 2 })
    }

    /// The engine-kind charged by the cost model for MD tasks.
    pub fn engine_kind(&self) -> EngineKind {
        match self.engine {
            EngineChoice::Namd => EngineKind::Namd2,
            EngineChoice::Gromacs => EngineKind::GmxMdrun,
            EngineChoice::Amber => {
                if self.resource.use_gpu {
                    EngineKind::PmemdCuda
                } else if self.resource.cores_per_replica > 1 {
                    EngineKind::PmemdMpi
                } else {
                    EngineKind::Sander
                }
            }
        }
    }

    /// Atom count charged to the performance model (`cost_atoms` override,
    /// else the workload's real atom count, else the paper's 2 881).
    pub fn model_atoms(&self) -> usize {
        self.cost_atoms.unwrap_or_else(|| self.workload.as_ref().map_or(2881, |w| w.real_atoms()))
    }

    /// Modeled wall seconds of one MD segment on the given cluster.
    pub fn md_segment_seconds(&self, perf: &PerfModel, cluster: &ClusterSpec) -> f64 {
        perf.md.md_seconds(
            self.engine_kind(),
            self.model_atoms(),
            self.steps_per_cycle,
            self.resource.cores_per_replica,
            cluster.core_speed,
        )
    }
}

/// Resolve a bare cluster preset name (`supermic|stampede|small:<cores>`)
/// without a configuration document — the campaign service uses this to
/// stand up the one shared virtual cluster its tenants multiplex onto.
/// [`SimulationConfig::cluster`] goes through the same table before
/// layering scenario effects on top.
pub fn cluster_preset(name: &str) -> Result<hpc::ClusterSpec, String> {
    if name == "supermic" {
        Ok(hpc::ClusterSpec::supermic())
    } else if name == "stampede" {
        Ok(hpc::ClusterSpec::stampede())
    } else if let Some(cores) = name.strip_prefix("small:") {
        let cores: usize =
            cores.parse().map_err(|_| format!("bad small cluster size {cores:?}"))?;
        Ok(hpc::ClusterSpec::small_cluster(cores))
    } else {
        Err(format!("unknown cluster {name:?} (supermic|stampede|small:<cores>)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_remd_default_is_valid() {
        let c = SimulationConfig::t_remd(64, 6000, 4);
        c.validate().unwrap();
        assert_eq!(c.n_replicas().unwrap(), 64);
        assert_eq!(c.execution_mode().unwrap(), 1);
        assert_eq!(c.pilot_cores().unwrap(), 64);
    }

    #[test]
    fn json_roundtrip() {
        let c = SimulationConfig::t_remd(16, 1000, 2);
        let text = c.to_json();
        let back = SimulationConfig::from_json(&text).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn parse_handwritten_config() {
        let text = r#"{
            "title": "TSU on stampede",
            "engine": "amber",
            "pattern": "synchronous",
            "dimensions": [
                {"type": "temperature", "min-k": 273.0, "max-k": 373.0, "count": 4},
                {"type": "salt", "min-molar": 0.0, "max-molar": 1.0, "count": 4},
                {"type": "umbrella", "dihedral": "phi", "count": 4, "k-deg": 0.02}
            ],
            "steps-per-cycle": 6000,
            "n-cycles": 4,
            "resource": {
                "cluster": "stampede",
                "cores": 112,
                "cores-per-replica": 1,
                "backend": "simulated"
            }
        }"#;
        let c = SimulationConfig::from_json(text).unwrap();
        c.validate().unwrap();
        assert_eq!(c.n_replicas().unwrap(), 64);
        // 112 cores cover all 64 single-core replicas: Execution Mode I.
        assert_eq!(c.execution_mode().unwrap(), 1);
    }

    #[test]
    fn execution_mode_ii_detected() {
        let mut c = SimulationConfig::t_remd(128, 1000, 2);
        c.resource.cores = Some(32);
        c.validate().unwrap();
        assert_eq!(c.execution_mode().unwrap(), 2);
    }

    #[test]
    fn mode_i_too_big_for_cluster_is_rejected() {
        let mut c = SimulationConfig::t_remd(10_000, 1000, 2);
        c.resource.cluster = "small:128".into();
        assert!(c.validate().is_err());
        // But Mode II on the same cluster is the paper's flagship scenario:
        // 10 000 replicas on 128 cores.
        c.resource.cores = Some(128);
        c.validate().unwrap();
        assert_eq!(c.execution_mode().unwrap(), 2);
    }

    #[test]
    fn async_multidim_rejected() {
        let mut c = SimulationConfig::t_remd(8, 100, 1);
        c.pattern = Pattern::Asynchronous { tick_fraction: 0.25 };
        c.dimensions.push(DimensionConfig::Salt { min_molar: 0.0, max_molar: 1.0, count: 2 });
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_values_rejected() {
        let mut c = SimulationConfig::t_remd(8, 100, 1);
        c.steps_per_cycle = 0;
        assert!(c.validate().is_err());

        let mut c = SimulationConfig::t_remd(8, 100, 1);
        c.resource.backend = "cloud".into();
        assert!(c.validate().is_err());

        let mut c = SimulationConfig::t_remd(8, 100, 1);
        c.resource.cluster = "frontier".into();
        assert!(c.validate().is_err());

        let mut c = SimulationConfig::t_remd(8, 100, 1);
        c.resource.cores = Some(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn cluster_presets_resolve() {
        let mut c = SimulationConfig::t_remd(8, 100, 1);
        assert_eq!(c.cluster().unwrap().name, "supermic");
        c.resource.cluster = "small:64".into();
        assert_eq!(c.cluster().unwrap().total_cores(), 64);
    }

    #[test]
    fn multicore_replicas_mode_i_cores() {
        let mut c = SimulationConfig::t_remd(16, 1000, 2);
        c.resource.cores_per_replica = 4;
        assert_eq!(c.pilot_cores().unwrap(), 64);
        assert_eq!(c.execution_mode().unwrap(), 1);
    }

    fn codes(c: &SimulationConfig) -> Vec<String> {
        c.validate_diagnostics().into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn empty_dimension_list_rejected() {
        let mut c = SimulationConfig::t_remd(8, 100, 1);
        c.dimensions.clear();
        assert!(c.validate().is_err());
        assert!(codes(&c).contains(&"C001".to_string()));
    }

    #[test]
    fn zero_replica_dimension_rejected_without_panic() {
        let mut c = SimulationConfig::t_remd(8, 100, 1);
        c.dimensions = vec![DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 0 }];
        // Must be a structured error, not a ladder-constructor panic.
        assert!(c.validate().is_err());
        let diags = c.validate_diagnostics();
        let d = diags.iter().find(|d| d.code == "C010").expect("zero-rung diagnostic");
        assert_eq!(d.path.as_deref(), Some("/dimensions/0/count"));
    }

    #[test]
    fn duplicate_temperatures_rejected_without_panic() {
        let mut c = SimulationConfig::t_remd(8, 100, 1);
        c.dimensions =
            vec![DimensionConfig::TemperatureList { temps_k: vec![300.0, 300.0, 320.0] }];
        assert!(c.validate().is_err());
        assert!(codes(&c).contains(&"C012".to_string()));
        // Non-increasing is the same defect.
        c.dimensions = vec![DimensionConfig::TemperatureList { temps_k: vec![320.0, 300.0] }];
        assert!(codes(&c).contains(&"C012".to_string()));
        // Empty list is a zero-rung dimension.
        c.dimensions = vec![DimensionConfig::TemperatureList { temps_k: vec![] }];
        assert!(codes(&c).contains(&"C010".to_string()));
    }

    #[test]
    fn bad_ranges_rejected() {
        let mut c = SimulationConfig::t_remd(8, 100, 1);
        c.dimensions = vec![DimensionConfig::Temperature { min_k: 373.0, max_k: 273.0, count: 4 }];
        assert!(codes(&c).contains(&"C011".to_string()));
        c.dimensions =
            vec![DimensionConfig::Umbrella { dihedral: "phi".into(), count: 4, k_deg: 0.0 }];
        assert!(codes(&c).contains(&"C013".to_string()));
        c.dimensions = vec![DimensionConfig::Salt { min_molar: -0.5, max_molar: 1.0, count: 4 }];
        assert!(codes(&c).contains(&"C011".to_string()));
    }

    #[test]
    fn async_min_ready_validated() {
        let mut c = SimulationConfig::t_remd(8, 100, 2);
        c.pattern = Pattern::Asynchronous { tick_fraction: 0.25 };
        c.async_min_ready = Some(1);
        assert!(codes(&c).contains(&"C042".to_string()));
        c.async_min_ready = Some(4);
        c.validate().unwrap();
        // On a synchronous plan the knob is inert: warn, don't fail.
        c.pattern = Pattern::Synchronous;
        assert!(codes(&c).contains(&"C043".to_string()));
        c.validate().unwrap();
    }

    #[test]
    fn fault_mtbf_validated() {
        let mut c = SimulationConfig::t_remd(8, 100, 1);
        c.fault_mtbf_seconds = Some(0.0);
        assert!(c.validate().is_err());
        c.fault_mtbf_seconds = Some(3600.0);
        c.validate().unwrap();
        // The typed constructor catches what the old `<= 0` assert missed.
        c.fault_mtbf_seconds = Some(f64::NAN);
        assert!(codes(&c).contains(&"C044".to_string()));
        c.fault_mtbf_seconds = Some(f64::MIN_POSITIVE / 2.0);
        assert!(codes(&c).contains(&"C044".to_string()));
    }

    #[test]
    fn scenario_parameters_validated() {
        let mut c = SimulationConfig::t_remd(8, 100, 1);
        c.scenario = Some(hpc::Scenario::FailureStorm {
            storm_mtbf_seconds: -1.0,
            period_seconds: 600.0,
            storm_fraction: 0.2,
        });
        assert!(codes(&c).contains(&"C050".to_string()));
        assert!(c.validate().is_err());
        c.scenario = Some(hpc::Scenario::Stragglers { fraction: 0.1, slowdown: 3.0 });
        c.validate().unwrap();
    }

    #[test]
    fn calm_storm_and_local_backend_scenarios_warn() {
        let mut c = SimulationConfig::t_remd(8, 100, 1);
        c.fault_mtbf_seconds = Some(100.0);
        c.scenario = Some(hpc::Scenario::FailureStorm {
            storm_mtbf_seconds: 500.0, // calmer than the baseline
            period_seconds: 600.0,
            storm_fraction: 0.2,
        });
        assert!(codes(&c).contains(&"C051".to_string()));
        c.validate().unwrap(); // warning, not error

        let mut c = SimulationConfig::t_remd(8, 100, 1);
        c.resource.backend = "local".into();
        c.resource.cluster = "small:16".into();
        c.scenario = Some(hpc::Scenario::Stragglers { fraction: 0.1, slowdown: 2.0 });
        assert!(codes(&c).contains(&"C052".to_string()));
        c.validate().unwrap();
    }

    #[test]
    fn scenario_survives_json_roundtrip_and_shapes_the_cluster() {
        let mut c = SimulationConfig::t_remd(8, 100, 1);
        c.scenario =
            Some(hpc::Scenario::SlowFilesystem { latency_factor: 10.0, bandwidth_factor: 0.25 });
        let text = c.to_json();
        assert!(text.contains("slow-filesystem"), "kebab-case scenario tag: {text}");
        let back = SimulationConfig::from_json(&text).unwrap();
        assert_eq!(back.scenario, c.scenario);
        // cluster() applies the filesystem degradation.
        let nominal = SimulationConfig::t_remd(8, 100, 1).cluster().unwrap();
        let stressed = c.cluster().unwrap();
        assert!(stressed.fs.latency > nominal.fs.latency * 9.9);
        assert!(stressed.fs.bandwidth < nominal.fs.bandwidth * 0.26);
    }

    #[test]
    fn validate_diagnostics_collects_multiple_findings() {
        let mut c = SimulationConfig::t_remd(8, 100, 1);
        c.steps_per_cycle = 0;
        c.n_cycles = 0;
        c.dt_ps = -1.0;
        let found = codes(&c);
        for code in ["C020", "C021", "C022"] {
            assert!(found.contains(&code.to_string()), "missing {code} in {found:?}");
        }
        // validate() surfaces the first error.
        assert!(c.validate().is_err());
    }

    /// One crafted config per structural code: the registry check
    /// (`tests/it_diag_registry.rs`) requires every cataloged code to be
    /// exercised by at least one test, and this table is the single place
    /// the workload and resource/pattern family (C002, C023, C03x, C04x) is
    /// pinned down.
    #[test]
    fn every_structural_code_fires_on_its_crafted_config() {
        type Edit = fn(&mut SimulationConfig);
        let cases: Vec<(&str, Edit)> = vec![
            // A box under two cutoffs wide.
            ("C023", |c| c.workload = Some(Workload::DipeptideSolvated { atoms: 150 })),
            ("C002", |c| {
                // Four sound dimensions: grid assembly itself refuses.
                let dim = DimensionConfig::Temperature { min_k: 300.0, max_k: 310.0, count: 2 };
                c.dimensions = vec![dim.clone(), dim.clone(), dim.clone(), dim];
            }),
            ("C030", |c| c.resource.cores_per_replica = 0),
            ("C031", |c| c.resource.cluster = "nonesuch".into()),
            ("C032", |c| c.resource.cores = Some(0)),
            ("C033", |c| {
                c.resource.cores_per_replica = 2;
                c.resource.cores = Some(1);
            }),
            ("C034", |c| c.resource.cores = Some(1_000_000)),
            ("C035", |c| {
                // small:4 rounds up to one 16-core node; 8 replicas at 4
                // cores each need 32 — Mode I cannot fit without `cores`.
                c.resource.cluster = "small:4".into();
                c.resource.cores_per_replica = 4;
                c.resource.cores = None;
            }),
            ("C036", |c| c.resource.backend = "quantum".into()),
            ("C037", |c| {
                c.resource.use_gpu = true;
                c.resource.cores_per_replica = 2;
            }),
            ("C038", |c| {
                c.resource.use_gpu = true;
                c.engine = EngineChoice::Gromacs;
            }),
            ("C040", |c| {
                c.pattern = Pattern::Asynchronous { tick_fraction: 0.25 };
                c.dimensions = vec![
                    DimensionConfig::Temperature { min_k: 280.0, max_k: 320.0, count: 2 },
                    DimensionConfig::Temperature { min_k: 280.0, max_k: 320.0, count: 2 },
                ];
            }),
            ("C041", |c| c.pattern = Pattern::Asynchronous { tick_fraction: 0.0 }),
        ];
        for (code, mutate) in cases {
            let mut c = SimulationConfig::t_remd(8, 600, 2);
            mutate(&mut c);
            let found = codes(&c);
            assert!(found.contains(&code.to_string()), "expected {code}, got {found:?}");
            assert!(c.validate().is_err(), "{code} must be an error");
        }
    }

    #[test]
    fn model_helpers_match_driver_expectations() {
        let c = SimulationConfig::t_remd(8, 6000, 2);
        assert_eq!(c.model_atoms(), 2881);
        assert_eq!(c.engine_kind(), EngineKind::Sander);
        let cluster = c.cluster().unwrap();
        let t = c.md_segment_seconds(&PerfModel::default(), &cluster);
        assert!((t - 139.6).abs() < 1e-9, "sander calibration point: {t}");
    }
}
