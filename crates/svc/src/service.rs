//! The campaign service: durable queue + fair-share scheduler + REST API.
//!
//! One scheduler thread plans queued jobs onto the shared pool every tick
//! (or whenever woken by a submission/completion); each planned job runs
//! **one slice** on its own runner thread — resume from its checkpoint if
//! one exists, run up to `slice_cycles` cycles, checkpoint, release the
//! cores, re-queue. Slicing is what makes fair-share real: a long
//! campaign cannot squat on the pool, because between slices its cores
//! return to the planner and the least-charged tenant goes first.
//!
//! Admission is lint-gated (the same pass as `repex run`) and rejects
//! with typed `S0xx` diagnostics:
//!
//! | code | condition | HTTP |
//! |------|-----------|------|
//! | S001 | invalid campaign id                      | 400 |
//! | S002 | duplicate campaign id                    | 409 |
//! | S003 | config cluster ≠ service pool cluster    | 422 |
//! | S004 | campaign needs more cores than the pool  | 422 |
//! | S006 | non-positive / non-finite weight         | 400 |
//! | S010 | queue at capacity (backpressure)         | 429 |
//! | P010 | predicted cost exceeds the per-campaign budget | 422 |
//!
//! Admission is also *predictive* (DESIGN.md §14): a floor priced
//! without running turns away a campaign far over the budget, and the
//! planner's dry run prices every lint-clean one before it queues. Predictions above
//! the service budget reject with the same typed `P010` the `repex plan`
//! CLI emits, and accepted jobs carry the estimate as an up-front
//! fair-share charge that is credited back when they terminate.
//!
//! Lint findings at Error level reject with 422 and the full diagnostic
//! list in the body (same JSON schema as `repex check --json` findings).

use crate::http::{Handler, HttpServer, Request, Response};
use crate::queue::{save_record, scan_spool, JobDirs, JobRecord, JobState};
use crate::sched::{Candidate, FairShare};
use obs::json::{self, Decode, Value};
use obs::{json_struct, obj, Diagnostic, TelemetrySnapshot};
use repex::config::SimulationConfig;
use repex::emm::LiveTelemetry;
use repex::simulation::RemdSimulation;
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Seek, SeekFrom};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Service configuration (`repex serve` flags).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Spool root: one subdirectory per campaign.
    pub spool: PathBuf,
    /// Shared virtual cluster preset (`supermic|stampede|small:<cores>`).
    /// Submitted configs must name the same preset — every tenant's pilot
    /// is carved out of this one pool.
    pub cluster: String,
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Backpressure: submissions beyond this many queued jobs are
    /// rejected with 429/S010.
    pub max_queue: usize,
    /// Cycles per scheduling slice for synchronous campaigns (0 = run
    /// each campaign to completion in one slice). Asynchronous campaigns
    /// always run in one slice — their doneness is not observable from a
    /// partial report — but still honor cancellation mid-run.
    pub slice_cycles: u64,
    /// Scheduler tick: the idle re-plan interval (submissions and
    /// completions wake the planner immediately).
    pub tick: Duration,
    /// Per-campaign admission budget in core·seconds: submissions whose
    /// *predicted* cost (`lint::plan::predicted_core_seconds`, or first
    /// its run-free `core_seconds_floor`) exceeds this reject with
    /// 422/P010 before they ever queue. Unlimited by default.
    pub budget_core_seconds: f64,
}

impl ServiceConfig {
    /// Defaults for everything but the spool directory.
    pub fn new(spool: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            spool: spool.into(),
            cluster: "small:64".into(),
            addr: "127.0.0.1:0".into(),
            max_queue: 64,
            slice_cycles: 4,
            tick: Duration::from_millis(200),
            budget_core_seconds: f64::INFINITY,
        }
    }
}

/// One campaign job: the durable record plus in-process runtime state.
struct Job {
    record: JobRecord,
    dirs: JobDirs,
    /// Cooperative stop flag handed to the running slice.
    cancel: Arc<AtomicBool>,
    /// Distinguishes user cancellation (terminal) from a service-shutdown
    /// stop (job re-queues and resumes on restart).
    user_cancelled: bool,
    /// Shared across all slices of this job: accumulates the full event
    /// stream for the final Chrome trace and busy-core integral.
    recorder: obs::Recorder,
}

struct State {
    jobs: HashMap<String, Job>,
    fair: FairShare,
    next_seq: u64,
    stopping: bool,
    /// Live runner threads (graceful stop waits for zero).
    running: usize,
}

struct Inner {
    cfg: ServiceConfig,
    state: Mutex<State>,
    wake: Condvar,
}

impl Inner {
    /// A holder that panicked leaves the state as its last completed
    /// update left it; the service keeps serving from there.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running campaign service. [`CampaignService::stop`] (or drop) shuts
/// down gracefully: running slices are stopped at their next consistency
/// point, checkpointed, and re-queued durably so a restarted service
/// resumes them.
pub struct CampaignService {
    inner: Arc<Inner>,
    addr: SocketAddr,
    http: Option<HttpServer>,
    sched: Option<std::thread::JoinHandle<()>>,
}

struct SubmitRequest {
    campaign: String,
    tenant: String,
    weight: f64,
    priority: u8,
    config: Value,
}

json_struct!(SubmitRequest {
    campaign: "campaign",
    tenant: "tenant" = "default".to_string(),
    weight: "weight" = 1.0,
    priority: "priority" = 0,
    config: "config",
});

/// JSON body for a typed rejection: top-level error plus the full
/// diagnostic list (same schema as `repex check --json` findings).
fn reject(status: u16, diags: Vec<Diagnostic>) -> Response {
    let error = diags.first().map_or_else(|| "rejected".to_string(), |d| d.message.clone());
    Response::json(status, &obj! { "error" => error, "diagnostics" => diags })
}

impl CampaignService {
    /// Stand up the service: resolve the shared cluster, replay the spool
    /// into the queue, start the scheduler thread and bind the API.
    pub fn start(cfg: ServiceConfig) -> Result<Self, String> {
        let cluster = repex::config::cluster_preset(&cfg.cluster)?;
        let pool_cores = cluster.total_cores();
        std::fs::create_dir_all(&cfg.spool)
            .map_err(|e| format!("cannot create spool {}: {e}", cfg.spool.display()))?;
        let mut jobs = HashMap::new();
        let mut next_seq = 0u64;
        for mut record in scan_spool(&cfg.spool)? {
            next_seq = next_seq.max(record.seq + 1);
            let dirs = JobDirs::new(&cfg.spool, &record.campaign);
            // A record stuck in `running` means the previous service
            // process died mid-slice; its checkpoint covers everything up
            // to the last consistency point, so it simply re-queues.
            if record.state == JobState::Running {
                record.state = JobState::Queued;
                save_record(&dirs, &record)?;
            }
            jobs.insert(
                record.campaign.clone(),
                Job {
                    record,
                    dirs,
                    cancel: Arc::new(AtomicBool::new(false)),
                    user_cancelled: false,
                    recorder: obs::Recorder::enabled(),
                },
            );
        }
        let mut fair = FairShare::new(pool_cores);
        // Replayed jobs that have not terminated still carry their
        // admission-time estimate; terminal ones were already credited.
        for job in jobs.values() {
            if !job.record.state.is_terminal() {
                fair.charge_estimate(
                    &job.record.tenant,
                    job.record.weight,
                    job.record.predicted_core_seconds,
                );
            }
        }
        let inner = Arc::new(Inner {
            cfg,
            state: Mutex::new(State { jobs, fair, next_seq, stopping: false, running: 0 }),
            wake: Condvar::new(),
        });
        let sched_inner = Arc::clone(&inner);
        let sched = std::thread::Builder::new()
            .name("repex-svc-sched".into())
            .spawn(move || scheduler_loop(&sched_inner))
            .map_err(|e| format!("spawn scheduler: {e}"))?;
        let handler_inner = Arc::clone(&inner);
        let handler: Handler = Arc::new(move |req: &Request| route(&handler_inner, req));
        let http = HttpServer::bind(&inner.cfg.addr, handler)?;
        let addr = http.addr();
        Ok(CampaignService { inner, addr, http: Some(http), sched: Some(sched) })
    }

    /// The bound API address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, signal running slices to stop at
    /// their next consistency point (final checkpoint + durable re-queue),
    /// and wait for every runner to finish.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        {
            let mut st = self.inner.lock();
            st.stopping = true;
            for job in st.jobs.values() {
                if job.record.state == JobState::Running {
                    job.cancel.store(true, Ordering::Relaxed);
                }
            }
        }
        self.inner.wake.notify_all();
        if let Some(t) = self.sched.take() {
            let _ = t.join();
        }
        if let Some(h) = self.http.take() {
            h.stop();
        }
    }
}

impl Drop for CampaignService {
    fn drop(&mut self) {
        if self.sched.is_some() || self.http.is_some() {
            self.shutdown();
        }
    }
}

fn scheduler_loop(inner: &Arc<Inner>) {
    let mut st = inner.lock();
    loop {
        if st.stopping {
            if st.running == 0 {
                return;
            }
        } else {
            let queued: Vec<Candidate> = st
                .jobs
                .values()
                .filter(|j| j.record.state == JobState::Queued)
                .map(|j| Candidate {
                    id: j.record.campaign.clone(),
                    tenant: j.record.tenant.clone(),
                    weight: j.record.weight,
                    priority: j.record.priority,
                    seq: j.record.seq,
                    cores: j.record.cores,
                })
                .collect();
            for c in st.fair.plan(&queued) {
                if st.fair.start(&c).is_err() {
                    continue;
                }
                let Some(job) = st.jobs.get_mut(&c.id) else { continue };
                job.record.state = JobState::Running;
                // A fresh flag per slice: a stale stop request from a
                // previous shutdown must not cancel the new slice.
                job.cancel = Arc::new(AtomicBool::new(false));
                if let Err(e) = save_record(&job.dirs, &job.record) {
                    eprintln!("[repex-svc] {}: {e}", c.id);
                }
                st.running += 1;
                let runner_inner = Arc::clone(inner);
                let id = c.id.clone();
                let spawned = std::thread::Builder::new()
                    .name("repex-svc-runner".into())
                    .spawn(move || run_slice(&runner_inner, &id, run_leg));
                if spawned.is_err() {
                    // Could not start the runner: undo the lease and
                    // requeue so the job is not stranded in `running`.
                    st.running -= 1;
                    let _ = st.fair.finish(&c.id, &c.tenant, 0.0);
                    if let Some(job) = st.jobs.get_mut(&c.id) {
                        job.record.state = JobState::Queued;
                        let _ = save_record(&job.dirs, &job.record);
                    }
                }
            }
        }
        st = inner.wake.wait_timeout(st, inner.cfg.tick).unwrap_or_else(PoisonError::into_inner).0;
    }
}

/// How a slice runs its leg of the campaign ([`run_leg`]; a test's stand-in).
type Leg = fn(
    &SimulationConfig,
    &JobDirs,
    &Arc<AtomicBool>,
    &obs::Recorder,
    bool,
    u64,
) -> Result<repex::SimulationReport, String>;

/// Run one slice of campaign `id`: resume (or start) the simulation with
/// checkpointing, live telemetry and the job's stop flag attached, then
/// fold the outcome back into the job state. A panic in the leg fails the
/// job with the panic's message, so its cores and its runner are always
/// given back (and [`CampaignService::stop`], which waits for the runners,
/// returns).
fn run_slice(inner: &Arc<Inner>, id: &str, leg: Leg) {
    let (config, dirs, cancel, recorder, slice_cycles) = {
        let st = inner.lock();
        let Some(job) = st.jobs.get(id) else { return };
        (
            job.record.config.clone(),
            job.dirs.clone(),
            Arc::clone(&job.cancel),
            job.recorder.clone(),
            inner.cfg.slice_cycles,
        )
    };
    let is_async = matches!(config.pattern, repex::config::Pattern::Asynchronous { .. });
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        leg(&config, &dirs, &cancel, &recorder, is_async, slice_cycles)
    }))
    .unwrap_or_else(|panic| {
        let message = (panic.downcast_ref::<&str>().copied())
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("a panic without a message");
        Err(format!("the campaign panicked: {message}"))
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut st = inner.lock();
    let Some(job) = st.jobs.get_mut(id) else { return };
    let tenant = job.record.tenant.clone();
    match result {
        Err(e) => {
            job.record.state = JobState::Failed;
            job.record.error = Some(e);
        }
        Ok(report) => {
            let done = if is_async {
                !cancel.load(Ordering::Relaxed)
            } else {
                report.cycles.len() as u64 >= config.n_cycles
            };
            if done {
                match finalize(&dirs, &report, &job.recorder) {
                    Ok(()) => job.record.state = JobState::Done,
                    Err(e) => {
                        job.record.state = JobState::Failed;
                        job.record.error = Some(e);
                    }
                }
            } else if job.user_cancelled {
                // The driver already wrote the final checkpoint at the
                // stop point; the spool keeps it for post-mortems.
                job.record.state = JobState::Cancelled;
            } else {
                // Slice limit reached, or a service shutdown stop: either
                // way the job re-queues durably and resumes later.
                job.record.state = JobState::Queued;
            }
        }
    }
    let weight = job.record.weight;
    let predicted = job.record.predicted_core_seconds;
    let terminal = job.record.state.is_terminal();
    if let Err(e) = save_record(&job.dirs, &job.record) {
        eprintln!("[repex-svc] {id}: {e}");
    }
    let _ = st.fair.finish(id, &tenant, elapsed);
    if terminal {
        // The estimate's job is done: only actual slice charges remain.
        st.fair.credit_estimate(&tenant, weight, predicted);
    }
    st.running -= 1;
    inner.wake.notify_all();
}

fn run_leg(
    config: &SimulationConfig,
    dirs: &JobDirs,
    cancel: &Arc<AtomicBool>,
    recorder: &obs::Recorder,
    is_async: bool,
    slice_cycles: u64,
) -> Result<repex::SimulationReport, String> {
    let ckpt_dir = dirs.checkpoint();
    let ckpt_file = ckpt_dir.join(repex::checkpoint::CHECKPOINT_FILE);
    let mut sim = if ckpt_file.exists() {
        RemdSimulation::resume(&ckpt_dir)?
    } else {
        RemdSimulation::new(config.clone())?
    };
    sim = sim
        .with_checkpoints(&ckpt_dir, 1)
        .with_stop_flag(Arc::clone(cancel))
        .with_recorder(recorder.clone())
        .with_live_telemetry(LiveTelemetry {
            stream: Some(dirs.stream()),
            prom: None,
            campaign: Some(
                dirs.dir
                    .file_name()
                    .map_or_else(|| config.title.clone(), |n| n.to_string_lossy().into_owned()),
            ),
        });
    if !is_async && slice_cycles > 0 {
        sim = sim.with_cycle_limit(slice_cycles);
    }
    sim.run()
}

/// Write the terminal artifacts: the canonical report document (built by
/// the same encoder as `repex run --json`, hence bit-identical) and the
/// whole-campaign Chrome trace.
fn finalize(
    dirs: &JobDirs,
    report: &repex::SimulationReport,
    recorder: &obs::Recorder,
) -> Result<(), String> {
    std::fs::write(dirs.report(), report.to_json_doc().pretty())
        .map_err(|e| format!("write {}: {e}", dirs.report().display()))?;
    std::fs::write(dirs.trace(), recorder.chrome_trace_json())
        .map_err(|e| format!("write {}: {e}", dirs.trace().display()))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Routing

fn route(inner: &Arc<Inner>, req: &Request) -> Response {
    let path = req.path.split('?').next().unwrap_or("");
    let segs: Vec<&str> = path.trim_matches('/').split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["metrics"]) => metrics(inner),
        ("POST", ["campaigns"]) => submit(inner, &req.body),
        ("GET", ["campaigns"]) => list(inner),
        ("GET", ["campaigns", id]) => status(inner, id),
        ("DELETE", ["campaigns", id]) => cancel(inner, id),
        ("GET", ["campaigns", id, "results"]) => results(inner, id),
        ("GET", _) | ("DELETE", _) => {
            Response::json(404, &obj! { "error" => format!("no route {path}") })
        }
        (m, _) => Response::json(405, &obj! { "error" => format!("method {m} not allowed") }),
    }
}

fn submit(inner: &Arc<Inner>, body: &[u8]) -> Response {
    let text = String::from_utf8_lossy(body);
    let req: SubmitRequest = match json::from_str(&text) {
        Ok(r) => r,
        Err(e) => return Response::json(400, &obj! { "error" => format!("bad submit body: {e}") }),
    };
    if let Err(e) = obs::validate_campaign_id(&req.campaign) {
        return reject(
            400,
            vec![Diagnostic::error("S001", format!("invalid campaign id: {e}"))
                .with_hint("ids are 1-64 characters of [A-Za-z0-9._-], starting alphanumeric")],
        );
    }
    if !(req.weight.is_finite() && req.weight > 0.0) {
        return reject(
            400,
            vec![Diagnostic::error(
                "S006",
                format!("fair-share weight must be a positive finite number, got {}", req.weight),
            )],
        );
    }
    let config = match SimulationConfig::decode(&req.config) {
        Ok(c) => c,
        Err(e) => {
            return Response::json(400, &obj! { "error" => format!("config parse error: {e}") })
        }
    };
    // The pool constraint: every tenant's pilot is carved out of the one
    // shared cluster, so the config must target exactly that preset.
    if config.resource.cluster != inner.cfg.cluster {
        return reject(
            422,
            vec![Diagnostic::error(
                "S003",
                format!(
                    "config targets cluster {:?} but this service schedules onto {:?}",
                    config.resource.cluster, inner.cfg.cluster
                ),
            )
            .with_path("/resource/cluster")
            .with_hint(format!("set resource.cluster to {:?}", inner.cfg.cluster))],
        );
    }
    let cores = match config.pilot_cores() {
        Ok(c) => c,
        Err(e) => return reject(422, vec![Diagnostic::error("C002", e)]),
    };
    let pool_cores = {
        let st = inner.lock();
        st.fair.pool().total()
    };
    if cores > pool_cores {
        return reject(
            422,
            vec![Diagnostic::error(
                "S004",
                format!("campaign needs {cores} cores but the shared pool has only {pool_cores}"),
            )
            .with_path("/resource")],
        );
    }
    // Predictive admission (DESIGN.md §14): a floor priced without running
    // turns a campaign far over the budget away first; the dry run, whose
    // time grows with n-cycles × replicas, waits for the lint gate. A dry
    // run that fails prices at 0, and the campaign's run reports why.
    let budget = inner.cfg.budget_core_seconds;
    let over_budget = |cost: String| {
        reject(
            422,
            vec![Diagnostic::error(
                "P010",
                format!(
                    "predicted cost {cost} core·s exceeds this service's per-campaign budget of \
                     {budget:.0} core·s"
                ),
            )
            .with_path("/resource/cores")
            .with_hint("`repex plan` ranks cheaper ladders and core counts for this config")],
        )
    };
    let floor = lint::plan::core_seconds_floor(&config).unwrap_or(0.0);
    if floor > budget {
        return over_budget(format!("≥{floor:.0}"));
    }
    // The same lint pass that gates `repex run`: error findings reject.
    let diags = lint::lint_config(&config);
    if obs::diag::has_errors(&diags) {
        return reject(422, diags);
    }
    let predicted = lint::plan::predicted_core_seconds(&config).unwrap_or(0.0);
    if predicted > budget {
        return over_budget(format!("≈{predicted:.0}"));
    }

    let mut st = inner.lock();
    if st.stopping {
        return Response::json(503, &obj! { "error" => "service is shutting down" });
    }
    if st.jobs.contains_key(&req.campaign) {
        return reject(
            409,
            vec![Diagnostic::error(
                "S002",
                format!("campaign id {:?} already exists", req.campaign),
            )
            .with_hint("pick a fresh id; ids are never reused within one spool")],
        );
    }
    let queued = st.jobs.values().filter(|j| j.record.state == JobState::Queued).count();
    if queued >= inner.cfg.max_queue {
        return reject(
            429,
            vec![Diagnostic::error(
                "S010",
                format!(
                    "queue is at capacity ({queued}/{} jobs); retry after campaigns drain",
                    inner.cfg.max_queue
                ),
            )],
        );
    }
    let record = JobRecord {
        campaign: req.campaign.clone(),
        tenant: req.tenant,
        weight: req.weight,
        priority: req.priority,
        seq: st.next_seq,
        cores,
        predicted_core_seconds: predicted,
        state: JobState::Queued,
        error: None,
        config,
    };
    st.next_seq += 1;
    // Charge the estimate up front; credited back at the terminal state.
    st.fair.charge_estimate(&record.tenant, record.weight, predicted);
    let dirs = JobDirs::new(&inner.cfg.spool, &req.campaign);
    if let Err(e) = save_record(&dirs, &record) {
        return Response::json(500, &obj! { "error" => e });
    }
    let doc = obj! {
        "campaign" => record.campaign,
        "tenant" => record.tenant,
        "state" => record.state,
        "seq" => record.seq,
        "cores" => record.cores,
        "warnings" => diags,
    };
    st.jobs.insert(
        req.campaign,
        Job {
            record,
            dirs,
            cancel: Arc::new(AtomicBool::new(false)),
            user_cancelled: false,
            recorder: obs::Recorder::enabled(),
        },
    );
    drop(st);
    inner.wake.notify_all();
    Response::json(201, &doc)
}

/// Job summary shared by the list and status endpoints.
fn job_doc(job: &Job) -> Value {
    obj! {
        "campaign" => job.record.campaign,
        "tenant" => job.record.tenant,
        "weight" => job.record.weight,
        "priority" => job.record.priority,
        "seq" => job.record.seq,
        "cores" => job.record.cores,
        "state" => job.record.state,
        "error" => job.record.error,
    }
}

fn list(inner: &Arc<Inner>) -> Response {
    let st = inner.lock();
    let mut campaigns: Vec<&Job> = st.jobs.values().collect();
    campaigns.sort_by_key(|j| j.record.seq);
    let doc = obj! {
        "pool" => obj! {
            "cluster" => inner.cfg.cluster,
            "total_cores" => st.fair.pool().total(),
            "free_cores" => st.fair.free_cores(),
            "peak_leased_cores" => st.fair.peak_leased(),
        },
        "queue_depth" => st.jobs.values().filter(|j| j.record.state == JobState::Queued).count(),
        "campaigns" => campaigns.iter().map(|j| job_doc(j)).collect::<Vec<_>>(),
    };
    Response::json(200, &doc)
}

/// The last line of a campaign's JSONL stream that decodes as a snapshot
/// (a torn tail is skipped). Reads the file backwards from its end, a
/// window at a time, so a scrape does not grow with the campaign's length.
fn latest_snapshot(path: &std::path::Path) -> Option<TelemetrySnapshot> {
    let mut file = std::fs::File::open(path).ok()?;
    let len = file.metadata().ok()?.len();
    let mut window = 16 * 1024;
    loop {
        let start = len.saturating_sub(window);
        let mut tail = Vec::new();
        file.seek(SeekFrom::Start(start)).and_then(|_| file.read_to_end(&mut tail)).ok()?;
        let tail = String::from_utf8_lossy(&tail);
        // Unless the window reaches the start, its first line may be cut.
        let whole =
            if start > 0 { tail.split_once('\n').map_or("", |(_, rest)| rest) } else { &tail };
        let found = whole.lines().rev().find_map(|l| json::from_str(l).ok());
        if found.is_some() || start == 0 {
            return found;
        }
        window *= 4;
    }
}

fn status(inner: &Arc<Inner>, id: &str) -> Response {
    let st = inner.lock();
    let Some(job) = st.jobs.get(id) else {
        return Response::json(404, &obj! { "error" => format!("no campaign {id:?}") });
    };
    let checkpoint = job.dirs.checkpoint().join(repex::checkpoint::CHECKPOINT_FILE);
    let doc = job_doc(job)
        .with("snapshot", latest_snapshot(&job.dirs.stream()))
        .with("checkpoint_exists", checkpoint.exists());
    Response::json(200, &doc)
}

fn cancel(inner: &Arc<Inner>, id: &str) -> Response {
    let mut st = inner.lock();
    let Some(job) = st.jobs.get_mut(id) else {
        return Response::json(404, &obj! { "error" => format!("no campaign {id:?}") });
    };
    match job.record.state {
        s if s.is_terminal() => Response::json(
            409,
            &obj! { "error" => format!("campaign {id:?} is already {}", s.name()), "state" => s },
        ),
        JobState::Queued => {
            job.user_cancelled = true;
            job.record.state = JobState::Cancelled;
            let tenant = job.record.tenant.clone();
            let (weight, predicted) = (job.record.weight, job.record.predicted_core_seconds);
            if let Err(e) = save_record(&job.dirs, &job.record) {
                return Response::json(500, &obj! { "error" => e });
            }
            // A job cancelled before it ever ran owes nothing.
            st.fair.credit_estimate(&tenant, weight, predicted);
            Response::json(200, &obj! { "campaign" => id, "state" => "cancelled" })
        }
        JobState::Running => {
            // The runner observes the flag at the next consistency point,
            // writes a final checkpoint and marks the job cancelled.
            job.user_cancelled = true;
            job.cancel.store(true, Ordering::Relaxed);
            Response::json(202, &obj! { "campaign" => id, "state" => "cancelling" })
        }
        _ => unreachable!("terminal states matched above"),
    }
}

fn results(inner: &Arc<Inner>, id: &str) -> Response {
    let st = inner.lock();
    let Some(job) = st.jobs.get(id) else {
        return Response::json(404, &obj! { "error" => format!("no campaign {id:?}") });
    };
    if job.record.state != JobState::Done {
        return Response::json(
            409,
            &obj! {
                "error" => format!(
                    "campaign {id:?} is {}, results are available once done",
                    job.record.state.name()
                ),
                "state" => job.record.state,
                "job_error" => job.record.error,
            },
        );
    }
    let report = match std::fs::read_to_string(job.dirs.report())
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t).map_err(String::from))
    {
        Ok(doc) => doc,
        Err(e) => {
            return Response::json(500, &obj! { "error" => format!("report unreadable: {e}") })
        }
    };
    // Busy-core integral two ways: from the in-process event trace, and
    // from the report's own utilization identity (Eq. 4) — the latter
    // survives service restarts, the former proves the trace agrees.
    let trace_busy = obs::md_busy_core_seconds(&job.recorder.events());
    let report_busy = report["utilization_percent"].as_f64().unwrap_or(0.0) / 100.0
        * report["pilot_cores"].as_f64().unwrap_or(0.0)
        * report["makespan_s"].as_f64().unwrap_or(0.0);
    let path = |p: PathBuf| p.display().to_string();
    let doc = obj! {
        "campaign" => id,
        "state" => "done",
        "report" => report,
        "service" => obj! {
            "tenant" => job.record.tenant,
            "weight" => job.record.weight,
            "cores" => job.record.cores,
            "md_busy_core_seconds" => report_busy,
            "trace_md_busy_core_seconds" => trace_busy,
            "artifacts" => obj! {
                "report" => path(job.dirs.report()),
                "trace" => path(job.dirs.trace()),
                "stream" => path(job.dirs.stream()),
                "checkpoint" => path(job.dirs.checkpoint()),
            },
        },
    };
    Response::json(200, &doc)
}

/// `GET /metrics`: the service's gauges, then every campaign's latest
/// snapshot rendered as one exposition (one `campaign` label each,
/// validated and deduplicated at admission, so series stay disjoint).
fn metrics(inner: &Arc<Inner>) -> Response {
    let st = inner.lock();
    let mut out = String::new();
    let one = |value: usize| [(String::new(), value.to_string())];
    let queued = st.jobs.values().filter(|j| j.record.state == JobState::Queued).count();
    let pool = [
        ("repex_svc_pool_cores", "cores in the shared virtual cluster", st.fair.pool().total()),
        ("repex_svc_free_cores", "cores not currently leased to a campaign", st.fair.free_cores()),
        (
            "repex_svc_peak_leased_cores",
            "high-water mark of simultaneously leased cores",
            st.fair.peak_leased(),
        ),
        ("repex_svc_queue_depth", "campaigns waiting for cores", queued),
    ];
    for (name, help, value) in pool {
        obs::prometheus_gauge(&mut out, name, help, one(value));
    }
    let mut by_state: BTreeMap<&str, usize> = BTreeMap::new();
    for job in st.jobs.values() {
        *by_state.entry(job.record.state.name()).or_default() += 1;
    }
    let by_state = by_state
        .into_iter()
        .map(|(state, n)| (obs::prometheus_labels(&[("state", state)]), n.to_string()));
    obs::prometheus_gauge(&mut out, "repex_svc_jobs", "campaigns by lifecycle state", by_state);
    let mut jobs: Vec<&Job> = st.jobs.values().collect();
    jobs.sort_by_key(|j| j.record.seq);
    let snaps: Vec<TelemetrySnapshot> =
        jobs.iter().filter_map(|j| latest_snapshot(&j.dirs.stream())).collect();
    out.push_str(&obs::prometheus_text(&snaps));
    Response::text(200, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::Encode;

    /// `reject` bodies carry machine-readable codes in a stable schema.
    #[test]
    fn reject_body_schema() {
        let resp = reject(
            429,
            vec![Diagnostic::error("S010", "queue is at capacity").with_hint("retry later")],
        );
        assert_eq!(resp.status, 429);
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc["error"], "queue is at capacity");
        assert_eq!(doc["diagnostics"][0]["code"], "S010");
        assert_eq!(doc["diagnostics"][0]["severity"], "error");
        assert_eq!(doc["diagnostics"][0]["hint"], "retry later");
    }

    #[test]
    fn submit_body_defaults_and_shape_errors() {
        let req: SubmitRequest = json::from_str(r#"{"campaign": "c", "config": {}}"#).unwrap();
        assert_eq!((req.tenant.as_str(), req.weight, req.priority), ("default", 1.0, 0));
        let e =
            json::from_str::<SubmitRequest>(r#"{"campaign": "c", "config": {}, "priority": 256}"#);
        assert!(e.is_err_and(|e| e.pointer == "/priority" && e.message.contains("out of range")));
        let e = json::from_str::<SubmitRequest>(r#"{"config": {}}"#).map(|r| r.campaign);
        assert_eq!(e.unwrap_err().message, "missing field `campaign`");
    }

    /// A slice whose leg panics ends its job `Failed` with the message,
    /// gives its cores back, and leaves nothing for `stop` to wait on.
    #[test]
    fn a_panicking_slice_fails_its_job_and_returns_its_cores() {
        let spool = std::env::temp_dir().join(format!("repex-svc-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        let svc = CampaignService::start(ServiceConfig::new(&spool)).unwrap();
        let pool = svc.inner.lock().fair.free_cores();
        let mut config = SimulationConfig::t_remd(4, 600, 2);
        config.resource.cluster = svc.inner.cfg.cluster.clone();
        let record = JobRecord {
            campaign: "boom".into(),
            tenant: "t".into(),
            weight: 1.0,
            priority: 0,
            seq: 0,
            cores: 4,
            predicted_core_seconds: 0.0,
            state: JobState::Running,
            error: None,
            config,
        };
        {
            // What the scheduler does when it starts a slice.
            let mut st = svc.inner.lock();
            let c = Candidate {
                id: record.campaign.clone(),
                tenant: record.tenant.clone(),
                weight: record.weight,
                priority: record.priority,
                seq: record.seq,
                cores: record.cores,
            };
            st.fair.start(&c).unwrap();
            st.running += 1;
            let job = Job {
                dirs: JobDirs::new(&spool, &record.campaign),
                record,
                cancel: Arc::new(AtomicBool::new(false)),
                user_cancelled: false,
                recorder: obs::Recorder::disabled(),
            };
            st.jobs.insert("boom".into(), job);
        }
        run_slice(&svc.inner, "boom", |_, _, _, _, _, _| panic!("engine exploded"));
        {
            let st = svc.inner.lock();
            let job = &st.jobs["boom"].record;
            assert_eq!(job.state, JobState::Failed);
            assert_eq!(job.error.as_deref(), Some("the campaign panicked: engine exploded"));
            assert_eq!((st.running, st.fair.free_cores()), (0, pool), "the cores are back");
        }
        let saved = std::fs::read_to_string(JobDirs::new(&spool, "boom").record()).unwrap();
        assert!(saved.contains("engine exploded"), "{saved}");
        svc.stop();
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn latest_snapshot_skips_torn_tail() {
        let dir = std::env::temp_dir().join(format!("repex-svc-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.jsonl");
        let line = |seq| TelemetrySnapshot { seq, ..Default::default() }.encode().compact();
        let body = format!("{}\n{}\n{{\"seq\":3,\"tr", line(1), line(2));
        std::fs::write(&path, &body).unwrap();
        assert_eq!(latest_snapshot(&path).map(|s| s.seq), Some(2), "torn trailing line is skipped");
        // A tail longer than the first window: the reader widens it.
        std::fs::write(&path, body + &"x".repeat(40_000)).unwrap();
        assert_eq!(latest_snapshot(&path).map(|s| s.seq), Some(2));
        std::fs::write(&path, "{\"seq\":1}\n").unwrap();
        assert_eq!(latest_snapshot(&path), None, "a line that is not a snapshot is not one");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
