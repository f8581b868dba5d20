//! Parallel experiment runners.
//!
//! Every job in a sweep runs under `catch_unwind` with a bounded retry
//! loop, so a single diverging configuration cannot take down a
//! multi-hour figure run: failures are classified retryable (panics,
//! deadline overruns — conditions a fresh attempt can clear) or fatal
//! (typed simulator errors, which are deterministic), only the former
//! are retried (with deterministic exponential backoff), and the
//! suites collect whatever remains into a digest the `figures` binary
//! prints at the end.
//!
//! Jobs are distributed over a work-stealing pool of scoped threads;
//! results are committed by input slot, so every statistic is
//! byte-identical at any worker count (pinned by the determinism
//! suite).

use crate::estimate::{summarize, SamplingSummary};
use crate::persist;
use crate::telemetry::{self, JobRecord};
use dlp_core::{CacheGeometry, PolicyKind, ProtectionConfig};
use gpu_sim::{Gpu, RunStats, SamplingConfig, SamplingParseError, SimConfig};
use gpu_workloads::{build, registry, BenchSpec, Scale};
use parking_lot::Mutex;
use rd_tools::{RdProfiler, SharedRdd};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// What to simulate for one run.
///
/// `Eq`/`Hash` make the config usable as a run-cache key: two jobs
/// with equal configs are guaranteed identical statistics (the
/// simulator is deterministic), so a sweep only ever simulates each
/// distinct configuration once.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExperimentConfig {
    /// L1D management scheme.
    pub policy: PolicyKind,
    /// L1D geometry (defaults to the 16 KB baseline).
    pub geom: CacheGeometry,
    /// Workload scale.
    pub scale: Scale,
    /// Attach reuse-distance profilers to every SM.
    pub profile_rd: bool,
    /// Protection-parameter override for ablation studies.
    pub protection: Option<ProtectionConfig>,
    /// Optional CCWS-style warp throttle (future-work ablation).
    pub warp_limit: Option<usize>,
    /// SMARTS-style interval sampling (`None` = exact simulation, the
    /// code path every golden digest pins). Part of the cache key:
    /// sampled and exact results for the same app are never conflated.
    pub sampling: Option<SamplingConfig>,
}

impl ExperimentConfig {
    /// Baseline LRU on the 16 KB cache at full scale.
    pub fn baseline() -> Self {
        ExperimentConfig {
            policy: PolicyKind::Baseline,
            geom: CacheGeometry::fermi_l1d_16k(),
            scale: Scale::Full,
            profile_rd: false,
            protection: None,
            warp_limit: None,
            sampling: sampling_override(),
        }
    }

    /// Same but with a different policy.
    pub fn with_policy(mut self, p: PolicyKind) -> Self {
        self.policy = p;
        self
    }

    /// Same but with a different L1D geometry.
    pub fn with_geom(mut self, g: CacheGeometry) -> Self {
        self.geom = g;
        self
    }

    fn geom_label(&self) -> String {
        format!("{}KB/{}-way", self.geom.capacity_bytes() / 1024, self.geom.assoc)
    }
}

/// One completed run.
#[derive(Clone)]
pub struct AppRun {
    /// Benchmark metadata.
    pub spec: BenchSpec,
    /// Simulation statistics.
    pub stats: RunStats,
    /// Cycles the simulator stepped one at a time; the rest of
    /// `stats.cycles` was leapt by the cycle-leap event core. Kept out
    /// of `RunStats` so the statistics stay byte-identical between the
    /// leap and reference paths (only this number legitimately differs).
    pub ticked_cycles: u64,
    /// RD profile, if requested.
    pub rdd: Option<SharedRdd>,
    /// Sampling estimates, for runs driven in sampled mode. `None` for
    /// exact runs — consumers must not invent zero-width intervals.
    pub sampling: Option<SamplingSummary>,
}

/// Whether a failed job is worth another attempt.
///
/// The split drives the retry loop: panics and deadline overruns can
/// be caused by transient host conditions (an unlucky scheduling
/// stall, memory pressure) and get retried with backoff; a typed
/// simulator error is deterministic — the identical configuration
/// will fail identically — so retrying only wastes the sweep's time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureClass {
    /// A fresh attempt may succeed (panic, deadline overrun).
    Retryable,
    /// Deterministic failure; retrying cannot help (simulator error,
    /// incomplete run).
    Fatal,
}

impl FailureClass {
    /// Rendering used in failure digests.
    pub fn label(self) -> &'static str {
        match self {
            FailureClass::Retryable => "retryable",
            FailureClass::Fatal => "fatal",
        }
    }
}

/// One job that did not produce statistics: the simulator returned a
/// typed error (hang, invariant violation, cycle-cap overrun), the run
/// panicked, or it overran its deadline. Identifies the exact
/// configuration so a sweep's failure digest names what to re-run.
#[derive(Clone, Debug)]
pub struct RunFailure {
    /// Benchmark abbreviation.
    pub app: String,
    /// L1D management scheme of the failing run.
    pub policy: PolicyKind,
    /// Human-readable cache geometry ("16KB/4-way").
    pub geom: String,
    /// Workload scale.
    pub scale: Scale,
    /// What went wrong (a `SimError` rendering, a panic payload, or a
    /// deadline overrun).
    pub error: String,
    /// True when the job failed more than once before giving up.
    pub retried: bool,
    /// Retryable or fatal — the decision the retry loop recorded.
    pub class: FailureClass,
    /// Attempts made before giving up (1 = failed on first try).
    pub attempts: u32,
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{} @ {} {:?}, {}{}]: {}",
            self.app,
            self.policy.label(),
            self.geom,
            self.scale,
            self.class.label(),
            if self.retried {
                format!(", retried ({} attempts)", self.attempts)
            } else {
                String::new()
            },
            self.error
        )
    }
}

impl std::error::Error for RunFailure {}

/// Environment variable that forces the named app to panic inside the
/// harness — a hook for exercising the failure path of a full sweep
/// without corrupting the simulator itself.
pub const FORCE_FAIL_ENV: &str = "DLP_FORCE_FAIL";

/// The `DLP_FORCE_FAIL` target, read from the environment exactly once
/// per process: `run_app` sits on the hot path of every sweep job, and
/// `std::env::var` takes a global lock on some platforms.
fn force_fail_target() -> Option<&'static str> {
    static TARGET: OnceLock<Option<String>> = OnceLock::new();
    TARGET.get_or_init(|| std::env::var(FORCE_FAIL_ENV).ok()).as_deref()
}

/// Environment variable overriding the worker count of [`run_many`]
/// (the determinism acceptance runs sweep it over 1/4/8).
pub const WORKERS_ENV: &str = "DLP_WORKERS";

/// The `DLP_WORKERS` override, read once per process.
fn worker_override() -> Option<usize> {
    static WORKERS: OnceLock<Option<usize>> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::env::var(WORKERS_ENV).ok().and_then(|v| v.parse().ok()).filter(|&w| w >= 1)
    })
}

/// Environment variable bounding the wall-clock time of one job, in
/// milliseconds. Unset = no deadline, and the simulation runs on the
/// exact code path the determinism suite pins; with a deadline the run
/// is driven in bounded increments so an overrun is detected between
/// chunks and reported as a retryable [`RunFailure`].
pub const JOB_DEADLINE_ENV: &str = "DLP_JOB_DEADLINE_MS";

/// The `DLP_JOB_DEADLINE_MS` value, read from the environment on
/// *every* call — deliberately not memoized. The deadline is per-job
/// policy, not process identity: the sweep daemon serves many requests
/// from one process, each carrying its own deadline in the request
/// frame, and a `OnceLock` here silently pinned every later job to
/// whatever the first request established (the bug this replaced).
/// The env read is nowhere near hot — a job simulates for milliseconds
/// to minutes.
fn env_deadline() -> Option<Duration> {
    std::env::var(JOB_DEADLINE_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis)
}

/// The sharded engine `DLP_SHARDS` once selected was retired after it
/// measured slower than one thread everywhere. A leftover setting is
/// ignored, but said so once per process on stderr rather than silently.
fn note_retired_shards_env() {
    static NOTE: std::sync::Once = std::sync::Once::new();
    NOTE.call_once(|| {
        if std::env::var_os("DLP_SHARDS").is_some() {
            eprintln!(
                "note: DLP_SHARDS is ignored: the sharded engine was retired \
                 (see EXPERIMENTS.md \"Shard telemetry\")"
            );
        }
    });
}

/// Environment variable enabling SMARTS-style interval sampling for
/// every simulation job: `detail:skip[:warmup[:seed]]` in cycles
/// (e.g. `DLP_SAMPLING=2000:18000`). Unset = exact simulation, the
/// code path every golden digest pins. Sampled statistics are
/// *estimates* — deterministic for a fixed seed, but they carry a
/// confidence interval instead of matching the exact run bit for bit.
pub const SAMPLING_ENV: &str = "DLP_SAMPLING";

/// Parse the `DLP_SAMPLING` environment variable, surfacing malformed
/// values as the typed parse error — front doors (the `figures`
/// binary) call this once at startup so a typo fails loudly instead of
/// silently running the exact path for hours.
pub fn sampling_env() -> Result<Option<SamplingConfig>, SamplingParseError> {
    match std::env::var(SAMPLING_ENV) {
        Ok(v) => SamplingConfig::parse(&v).map(Some),
        Err(_) => Ok(None),
    }
}

/// The `DLP_SAMPLING` override, read once per process. Memoization is
/// safe here (unlike the per-job deadline above) because the parsed
/// config is part of every [`ExperimentConfig`] cache key, so a stale
/// value can never alias a sampled result to an exact one. Malformed
/// values degrade to `None` here; [`sampling_env`] is the validating
/// entry point.
fn sampling_override() -> Option<SamplingConfig> {
    static SAMPLING: OnceLock<Option<SamplingConfig>> = OnceLock::new();
    *SAMPLING.get_or_init(|| sampling_env().ok().flatten())
}

/// Environment variable selecting the workload scale factor for every
/// Full-scale job: `DLP_SCALE=10|100|1000` multiplies each app's
/// streamed work per warp (the grid shape stays the Full
/// configuration). Unset = the exact Full workloads every golden
/// digest pins; `DLP_SCALE=1` is trace-identical to Full but keyed
/// separately in the run cache and store. Streaming keeps resident
/// trace memory O(1) per warp at any factor, so the only cost of a
/// large factor is simulated cycles — pair it with `DLP_SAMPLING` to
/// keep wall time bounded.
pub const SCALE_ENV: &str = "DLP_SCALE";

/// Parse the `DLP_SCALE` environment variable, surfacing malformed
/// values as an error string — the `figures` front door calls this
/// once at startup so `DLP_SCALE=10x` fails loudly instead of silently
/// running the unscaled suite.
pub fn scale_env() -> Result<Option<u32>, String> {
    match std::env::var(SCALE_ENV) {
        Ok(v) => match v.parse::<u32>() {
            Ok(f) if f >= 1 => Ok(Some(f)),
            _ => Err(format!(
                "{SCALE_ENV}: invalid scale factor {v:?} (expected an integer >= 1, \
                 e.g. {SCALE_ENV}=100)"
            )),
        },
        Err(_) => Ok(None),
    }
}

/// Cycles simulated between deadline checks when a deadline is active.
/// Small enough to bound overshoot to well under a second of wall
/// time, large enough to keep the checking overhead negligible.
const DEADLINE_CHUNK_CYCLES: u64 = 65_536;

/// The chunk actually used for a given budget: the full
/// [`DEADLINE_CHUNK_CYCLES`] for second-scale deadlines, proportionally
/// fewer for sub-second ones — the overshoot past the deadline is at
/// most one chunk of wall time, and that must stay a small fraction of
/// the budget itself (a 5 ms budget checked only after a chunk costing
/// hundreds of ms would overshoot 100×).
fn deadline_chunk(deadline: Duration) -> u64 {
    let ms = u64::try_from(deadline.as_millis()).unwrap_or(u64::MAX).min(1_000);
    (DEADLINE_CHUNK_CYCLES * ms / 1_000).max(64)
}

/// Process-wide memo of completed runs keyed by the *full* experiment
/// configuration. The simulator is deterministic, so a cached result
/// is byte-identical to a re-run; `figures all` asks for several
/// configurations more than once (the size sweep's 16 KB/32 KB
/// baseline rows reappear in the policy sweep, profiled runs repeat
/// across figures) and only pays for each exactly once. Failures are
/// never cached — a transient host condition must stay retryable.
fn run_cache() -> &'static Mutex<HashMap<(String, ExperimentConfig), AppRun>> {
    static CACHE: OnceLock<Mutex<HashMap<(String, ExperimentConfig), AppRun>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Number of runs currently memoized (tests, progress reports).
pub fn run_cache_len() -> usize {
    run_cache().lock().len()
}

/// Simulate one application under one configuration.
///
/// Results are memoized per process and — when `DLP_STORE_DIR` is set
/// or [`persist::init_store`] was called — persisted through the
/// crash-safe `dlp-store` layer, so a killed sweep resumes serving
/// every job it had completed from disk.
pub fn run_app(abbr: &str, cfg: ExperimentConfig) -> Result<AppRun, RunFailure> {
    run_app_with_deadline(abbr, cfg, env_deadline())
}

/// [`run_app`] with the job deadline as an explicit argument instead
/// of the `DLP_JOB_DEADLINE_MS` fallback — the entry point for callers
/// that carry a deadline per request (the sweep daemon decodes one out
/// of every job frame). `None` = unlimited, the exact code path the
/// determinism suite pins.
pub fn run_app_with_deadline(
    abbr: &str,
    cfg: ExperimentConfig,
    deadline: Option<Duration>,
) -> Result<AppRun, RunFailure> {
    note_retired_shards_env();
    if force_fail_target() == Some(abbr) {
        panic!("{abbr}: forced failure ({FORCE_FAIL_ENV} is set)");
    }
    let start = Instant::now();
    let record = |cached: bool, store_hit: bool, run: Option<&AppRun>| {
        telemetry::record_job(JobRecord {
            app: abbr.to_string(),
            policy: cfg.policy.label().to_string(),
            geom: cfg.geom_label(),
            scale: format!("{:?}", cfg.scale),
            cached,
            store_hit,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            sim_cycles: run.map_or(0, |r| r.stats.cycles),
            ticked_cycles: run.map_or(0, |r| r.ticked_cycles),
            // Exact runs are 100% detailed with nothing estimated:
            // fraction 1, zero windows, zero CI width.
            windows: run.and_then(|r| r.sampling).map_or(0, |s| s.windows),
            sampled_fraction: run
                .and_then(|r| r.sampling)
                .map_or(1.0, |s| s.sampled_fraction()),
            ci_rel_width: run.and_then(|r| r.sampling).map_or(0.0, |s| s.ci_rel_width()),
            insn_id_wraps: run.map_or(0, |r| r.stats.insn_id_wraps),
            pdpt_evict_pressure: run.map_or(0, |r| r.stats.pdpt_evict_pressure),
            peak_warp_trace_bytes: run.map_or(0, |r| r.stats.peak_warp_trace_bytes),
        });
    };
    let key = (abbr.to_string(), cfg);
    if let Some(hit) = run_cache().lock().get(&key).cloned() {
        record(true, false, Some(&hit));
        return Ok(hit);
    }
    if let Some(run) = persist::load(abbr, &cfg) {
        record(true, true, Some(&run));
        run_cache().lock().insert(key, run.clone());
        return Ok(run);
    }
    match run_app_uncached(abbr, cfg, deadline, None) {
        Ok(run) => {
            record(false, false, Some(&run));
            run_cache().lock().insert(key, run.clone());
            persist::save(abbr, &cfg, &run);
            Ok(run)
        }
        Err(f) => {
            record(false, false, None);
            Err(f)
        }
    }
}

/// Test-only window past the memo layers: simulate unconditionally,
/// with an explicit deadline and (optionally) an explicit chunk size
/// for the deadline arm's `run_for` driving. The determinism suite
/// uses this to prove chunked driving is byte-identical to the
/// unlimited path — through `run_app` the second arm would be served
/// from the cache and the comparison would be vacuous.
#[doc(hidden)]
pub fn run_app_uncached_for_tests(
    abbr: &str,
    cfg: ExperimentConfig,
    deadline: Option<Duration>,
    chunk_override: Option<u64>,
) -> Result<AppRun, RunFailure> {
    run_app_uncached(abbr, cfg, deadline, chunk_override)
}

/// The actual simulation behind [`run_app`]'s memo layer.
fn run_app_uncached(
    abbr: &str,
    cfg: ExperimentConfig,
    deadline: Option<Duration>,
    chunk_override: Option<u64>,
) -> Result<AppRun, RunFailure> {
    let fail = |error: String, class: FailureClass| RunFailure {
        app: abbr.to_string(),
        policy: cfg.policy,
        geom: cfg.geom_label(),
        scale: cfg.scale,
        error,
        retried: false,
        class,
        attempts: 1,
    };
    let spec = gpu_workloads::registry::spec(abbr);
    let kernel = build(abbr, cfg.scale);
    // Profiled jobs force exact simulation: the fast-forward path
    // executes accesses functionally, which would punch unprofiled
    // holes into the reuse-distance histograms.
    let sampling = if cfg.profile_rd { None } else { cfg.sampling };
    let mut sim_cfg = SimConfig::tesla_m2090(cfg.policy).with_l1_geometry(cfg.geom);
    sim_cfg.protection_override = cfg.protection;
    sim_cfg.warp_limit = cfg.warp_limit;
    sim_cfg.sampling = sampling;
    // The hang-guard cycle cap is calibrated for the Full workloads; a
    // scaled run legitimately needs proportionally more cycles, so the
    // cap grows with the factor (the per-cycle watchdog still catches
    // genuine no-progress hangs long before the cap).
    if let Scale::Scaled(f) = cfg.scale {
        sim_cfg.max_cycles = sim_cfg.max_cycles.saturating_mul(u64::from(f));
    }
    let mut gpu = Gpu::new(sim_cfg, kernel);
    let rdd = if cfg.profile_rd {
        let sink = RdProfiler::new_sink();
        for sm in 0..sim_cfg.num_sms {
            gpu.set_l1d_observer(sm, Box::new(RdProfiler::new(cfg.geom.num_sets, sink.clone())));
        }
        Some(sink)
    } else {
        None
    };
    let stats = match deadline {
        // No deadline: the exact code path the determinism suite pins.
        None => gpu.run().map_err(|e| fail(e.to_string(), FailureClass::Fatal))?,
        // Sampled runs are driven whole even under a deadline: the
        // sampling controller owns the run loop (`run_for` does not
        // dispatch it), and sampling exists precisely to make jobs
        // short — the deadline keeps protecting the sweep through the
        // cycle cap and the retry layer.
        Some(_) if sampling.is_some() => {
            gpu.run().map_err(|e| fail(e.to_string(), FailureClass::Fatal))?
        }
        Some(deadline) => {
            let t0 = Instant::now();
            let chunk = chunk_override.unwrap_or_else(|| deadline_chunk(deadline));
            loop {
                let s = gpu
                    .run_for(chunk)
                    .map_err(|e| fail(e.to_string(), FailureClass::Fatal))?;
                if s.completed {
                    break s;
                }
                if t0.elapsed() >= deadline {
                    return Err(fail(
                        format!(
                            "deadline: exceeded {} ms ({JOB_DEADLINE_ENV}) at cycle {}",
                            deadline.as_millis(),
                            s.cycles
                        ),
                        FailureClass::Retryable,
                    ));
                }
            }
        }
    };
    let ticked_cycles = gpu.ticked_cycles();
    if !stats.completed {
        return Err(fail("run stopped before kernel completion".to_string(), FailureClass::Fatal));
    }
    let sampling = gpu.sampling_report().map(summarize);
    Ok(AppRun { spec, stats, ticked_cycles, rdd, sampling })
}

/// `run_app` behind `catch_unwind`, so a panicking job becomes a
/// `RunFailure` instead of poisoning the whole sweep.
fn run_app_caught(
    abbr: &str,
    cfg: ExperimentConfig,
    deadline: Option<Duration>,
) -> Result<AppRun, RunFailure> {
    match catch_unwind(AssertUnwindSafe(|| run_app_with_deadline(abbr, cfg, deadline))) {
        Ok(res) => res,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panicked with a non-string payload".to_string());
            Err(RunFailure {
                app: abbr.to_string(),
                policy: cfg.policy,
                geom: cfg.geom_label(),
                scale: cfg.scale,
                error: format!("panic: {msg}"),
                retried: false,
                class: FailureClass::Retryable,
                attempts: 1,
            })
        }
    }
}

/// Ceiling on attempts for a retryable failure.
const MAX_ATTEMPTS: u32 = 3;
/// First backoff delay; doubles per retry (deterministic — no jitter,
/// so a retrying sweep behaves identically run to run).
const BACKOFF_BASE_MS: u64 = 25;
/// Backoff ceiling.
const BACKOFF_CAP_MS: u64 = 200;

/// The deterministic bounded exponential backoff before retry number
/// `attempt + 1` (25 ms, 50 ms, 100 ms, …, capped at 200 ms).
fn backoff(attempt: u32) -> Duration {
    let exp = attempt.saturating_sub(1).min(8);
    Duration::from_millis((BACKOFF_BASE_MS << exp).min(BACKOFF_CAP_MS))
}

/// One job with the retry policy applied: retryable failures (panics,
/// deadline overruns — see [`FailureClass`]) get up to
/// [`MAX_ATTEMPTS`] attempts with deterministic exponential backoff in
/// between; fatal failures (typed simulator errors) are reported
/// immediately, because the simulator is deterministic and would fail
/// identically. The returned failure records the class and attempt
/// count, so the sweep's failure digest shows the decision.
///
/// This is the hardened single-job entry point (panic-catching,
/// retrying); `run_many` applies it per job, and the sweep daemon uses
/// it directly so a panicking job becomes a typed wire error.
pub fn run_app_with_retry(abbr: &str, cfg: ExperimentConfig) -> Result<AppRun, RunFailure> {
    run_app_with_retry_deadline(abbr, cfg, env_deadline())
}

/// [`run_app_with_retry`] with the deadline as an explicit argument
/// (see [`run_app_with_deadline`]); the sweep daemon passes each
/// request frame's own deadline here.
pub fn run_app_with_retry_deadline(
    abbr: &str,
    cfg: ExperimentConfig,
    deadline: Option<Duration>,
) -> Result<AppRun, RunFailure> {
    let mut attempt = 1;
    loop {
        match run_app_caught(abbr, cfg, deadline) {
            Ok(run) => return Ok(run),
            Err(mut f) => {
                f.attempts = attempt;
                f.retried = attempt > 1;
                if f.class == FailureClass::Fatal || attempt >= MAX_ATTEMPTS {
                    return Err(f);
                }
                std::thread::sleep(backoff(attempt));
                attempt += 1;
            }
        }
    }
}

/// Run `jobs` of (app, config) pairs in parallel, preserving input
/// order in the result. Each job yields `Ok(run)` or a `RunFailure`
/// naming the app, policy and geometry that failed; one bad job never
/// aborts the others. `DLP_WORKERS` overrides the worker count.
pub fn run_many(jobs: &[(String, ExperimentConfig)]) -> Vec<Result<AppRun, RunFailure>> {
    let workers = worker_override()
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8))
        .min(jobs.len().max(1));
    run_many_with_workers(jobs, workers)
}

/// `run_many` with an explicit worker count (1 = fully serial).
///
/// The pool is work-stealing: the job list is split into one
/// contiguous chunk per worker, each worker drains its own chunk from
/// the front and, when empty, steals from the *back* of another
/// worker's chunk (back-stealing minimizes contention on the victim's
/// front end). Results are committed into a slot indexed by the job's
/// input position, so the returned vector — and every statistic in it
/// — is byte-identical at any worker count and under any stealing
/// interleaving; the determinism suite pins this for 1, 4 and 8
/// workers.
pub fn run_many_with_workers(
    jobs: &[(String, ExperimentConfig)],
    workers: usize,
) -> Vec<Result<AppRun, RunFailure>> {
    assert!(workers >= 1);
    let workers = workers.min(jobs.len().max(1));
    let results: Vec<Mutex<Option<Result<AppRun, RunFailure>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    // One contiguous slice of job indices per worker. Contiguity keeps
    // the common no-stealing case cache-friendly: neighbouring jobs
    // usually share an app whose kernel build state is warm.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            let lo = jobs.len() * w / workers;
            let hi = jobs.len() * (w + 1) / workers;
            Mutex::new((lo..hi).collect())
        })
        .collect();
    std::thread::scope(|s| {
        for w in 0..workers {
            let queues = &queues;
            let results = &results;
            s.spawn(move || loop {
                // Own queue first; then sweep the others for work to
                // steal. Every index is handed out exactly once: pops
                // happen under the owning queue's lock. The own-queue
                // guard must drop before stealing: two idle workers each
                // holding their own lock while locking the other's would
                // deadlock.
                let own = queues[w].lock().pop_front();
                let claimed = own.or_else(|| {
                    (1..workers).find_map(|d| queues[(w + d) % workers].lock().pop_back())
                });
                let Some(i) = claimed else { break };
                let (abbr, cfg) = &jobs[i];
                *results[i].lock() = Some(run_app_with_retry(abbr, *cfg));
            });
        }
    });
    results
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            m.into_inner().unwrap_or_else(|| {
                // A worker died between claiming the slot and storing a
                // result (it cannot panic past catch_unwind, but be
                // defensive rather than poison the whole sweep).
                let (abbr, cfg) = &jobs[i];
                Err(RunFailure {
                    app: abbr.clone(),
                    policy: cfg.policy,
                    geom: cfg.geom_label(),
                    scale: cfg.scale,
                    error: "worker produced no result".to_string(),
                    retried: false,
                    class: FailureClass::Fatal,
                    attempts: 0,
                })
            })
        })
        .collect()
}

/// Render a sweep's failures as a short report, one line per job.
/// Empty string when everything succeeded.
pub fn failure_digest(failures: &[RunFailure]) -> String {
    if failures.is_empty() {
        return String::new();
    }
    let mut out = format!("{} job(s) failed:\n", failures.len());
    for f in failures {
        out.push_str(&format!("  - {f}\n"));
    }
    out
}

/// Figure 10–13 data: every app under the four schemes (16 KB) plus the
/// 32 KB baseline-policy configuration.
pub struct PolicySuite {
    /// app → (scheme label → run). Failed jobs are absent.
    pub runs: HashMap<String, HashMap<&'static str, AppRun>>,
    /// Row order (Table 2 order).
    pub apps: Vec<BenchSpec>,
    /// Jobs that produced no statistics.
    pub failures: Vec<RunFailure>,
    /// app → (scheme label → failure) for the same jobs, so renderers
    /// can degrade gracefully: a partial sweep still prints every row,
    /// with an explicit `FAILED(reason)` cell where a run is missing.
    pub failed: HashMap<String, HashMap<&'static str, RunFailure>>,
}

impl PolicySuite {
    /// One-line-per-failure report (empty when the sweep was clean).
    pub fn failure_digest(&self) -> String {
        failure_digest(&self.failures)
    }
}

/// Label used for the 32 KB configuration column.
pub const LABEL_32K: &str = "32KB";

/// Run the full policy comparison at the given scale.
pub fn run_policy_suite(scale: Scale) -> PolicySuite {
    telemetry::sweep("policy_suite", || run_policy_suite_inner(scale))
}

fn run_policy_suite_inner(scale: Scale) -> PolicySuite {
    let apps = registry();
    let mut jobs = Vec::new();
    for spec in &apps {
        for kind in PolicyKind::ALL {
            let cfg = ExperimentConfig { scale, ..ExperimentConfig::baseline().with_policy(kind) };
            jobs.push((spec.abbr.to_string(), cfg));
        }
        let cfg32 = ExperimentConfig {
            scale,
            ..ExperimentConfig::baseline().with_geom(CacheGeometry::fermi_l1d_32k())
        };
        jobs.push((spec.abbr.to_string(), cfg32));
    }
    let mut results = run_many(&jobs).into_iter();
    let mut runs: HashMap<String, HashMap<&'static str, AppRun>> = HashMap::new();
    let mut failed: HashMap<String, HashMap<&'static str, RunFailure>> = HashMap::new();
    let mut failures = Vec::new();
    for spec in &apps {
        // Every app gets a row, even if all of its jobs failed: callers
        // index `runs[abbr]` and read an empty map, not a missing key.
        runs.entry(spec.abbr.to_string()).or_default();
        let mut take = |label: &'static str| match results.next().expect("one result per job") {
            Ok(run) => {
                runs.entry(spec.abbr.to_string()).or_default().insert(label, run);
            }
            Err(f) => {
                failed.entry(spec.abbr.to_string()).or_default().insert(label, f.clone());
                failures.push(f);
            }
        };
        for kind in PolicyKind::ALL {
            take(kind.label());
        }
        take(LABEL_32K);
    }
    PolicySuite { runs, apps, failures, failed }
}

/// Figure 4–5 data: every app at 16/32/64 KB under baseline LRU.
pub struct SizeSuite {
    /// app → (capacity label → run). Failed jobs are absent.
    pub runs: HashMap<String, HashMap<&'static str, AppRun>>,
    /// Row order.
    pub apps: Vec<BenchSpec>,
    /// Jobs that produced no statistics.
    pub failures: Vec<RunFailure>,
    /// app → (capacity label → failure), for `FAILED(reason)` cells.
    pub failed: HashMap<String, HashMap<&'static str, RunFailure>>,
}

impl SizeSuite {
    /// One-line-per-failure report (empty when the sweep was clean).
    pub fn failure_digest(&self) -> String {
        failure_digest(&self.failures)
    }
}

/// Capacity labels for the size sweep.
pub const SIZE_LABELS: [&str; 3] = ["16KB", "32KB", "64KB"];

/// Run the cache-size sweep of Figures 4 and 5.
pub fn run_size_suite(scale: Scale) -> SizeSuite {
    telemetry::sweep("size_suite", || run_size_suite_inner(scale))
}

fn run_size_suite_inner(scale: Scale) -> SizeSuite {
    let geoms = [
        CacheGeometry::fermi_l1d_16k(),
        CacheGeometry::fermi_l1d_32k(),
        CacheGeometry::fermi_l1d_64k(),
    ];
    let apps = registry();
    let mut jobs = Vec::new();
    for spec in &apps {
        for g in geoms {
            let cfg = ExperimentConfig { scale, ..ExperimentConfig::baseline().with_geom(g) };
            jobs.push((spec.abbr.to_string(), cfg));
        }
    }
    let mut results = run_many(&jobs).into_iter();
    let mut runs: HashMap<String, HashMap<&'static str, AppRun>> = HashMap::new();
    let mut failed: HashMap<String, HashMap<&'static str, RunFailure>> = HashMap::new();
    let mut failures = Vec::new();
    for spec in &apps {
        runs.entry(spec.abbr.to_string()).or_default();
        for label in SIZE_LABELS {
            match results.next().expect("one result per job") {
                Ok(run) => {
                    runs.entry(spec.abbr.to_string()).or_default().insert(label, run);
                }
                Err(f) => {
                    failed.entry(spec.abbr.to_string()).or_default().insert(label, f.clone());
                    failures.push(f);
                }
            }
        }
    }
    SizeSuite { runs, apps, failures, failed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_app_completes_at_tiny_scale() {
        let cfg = ExperimentConfig { scale: Scale::Tiny, ..ExperimentConfig::baseline() };
        let run = run_app("KM", cfg).unwrap();
        assert!(run.stats.completed);
        assert!(run.stats.thread_insns > 0);
    }

    #[test]
    fn rd_profiling_collects_data() {
        let cfg = ExperimentConfig {
            scale: Scale::Tiny,
            profile_rd: true,
            ..ExperimentConfig::baseline()
        };
        let run = run_app("SS", cfg).unwrap();
        let sink = run.rdd.expect("profile requested");
        let prof = sink.lock();
        assert!(prof.overall.total() + prof.overall.compulsory > 0);
    }

    #[test]
    fn run_many_preserves_order() {
        let cfg = ExperimentConfig { scale: Scale::Tiny, ..ExperimentConfig::baseline() };
        let jobs = vec![("KM".to_string(), cfg), ("MM".to_string(), cfg), ("SS".to_string(), cfg)];
        let out = run_many(&jobs);
        assert_eq!(out[0].as_ref().unwrap().spec.abbr, "KM");
        assert_eq!(out[1].as_ref().unwrap().spec.abbr, "MM");
        assert_eq!(out[2].as_ref().unwrap().spec.abbr, "SS");
    }

    #[test]
    fn repeated_configs_hit_the_run_cache() {
        // StallBypass is used by no other test in this binary, so the
        // (app, config) key is owned by this test even though the
        // process-wide cache is shared.
        let cfg = ExperimentConfig {
            scale: Scale::Tiny,
            ..ExperimentConfig::baseline().with_policy(PolicyKind::StallBypass)
        };
        let first = run_app("MM", cfg).unwrap();
        let second = run_app("MM", cfg).unwrap();
        assert_eq!(first.stats.cycles, second.stats.cycles);
        assert_eq!(first.stats.l1d, second.stats.l1d);
        assert!(run_cache_len() >= 1);
        let jobs: Vec<_> = telemetry::jobs_snapshot()
            .into_iter()
            .filter(|j| j.app == "MM" && j.policy == PolicyKind::StallBypass.label())
            .collect();
        assert!(jobs.iter().any(|j| !j.cached), "first run simulates");
        assert!(jobs.iter().any(|j| j.cached), "repeat is served from the cache");
        let hit = jobs.iter().find(|j| j.cached).unwrap();
        assert_eq!(hit.sim_cycles, first.stats.cycles);
    }

    #[test]
    fn failure_digest_names_the_failing_configuration() {
        let f = RunFailure {
            app: "KM".to_string(),
            policy: PolicyKind::Dlp,
            geom: "16KB/4-way".to_string(),
            scale: Scale::Tiny,
            error: "hang: no forward progress".to_string(),
            retried: true,
            class: FailureClass::Retryable,
            attempts: 3,
        };
        let digest = failure_digest(&[f]);
        assert!(digest.contains("KM"), "{digest}");
        assert!(digest.contains("DLP"), "{digest}");
        assert!(digest.contains("16KB/4-way"), "{digest}");
        assert!(digest.contains("retried (3 attempts)"), "{digest}");
        assert!(digest.contains("retryable"), "{digest}");
        assert!(failure_digest(&[]).is_empty());

        let fatal = RunFailure {
            error: "invariant violated".to_string(),
            retried: false,
            class: FailureClass::Fatal,
            attempts: 1,
            ..failure_digest_sample()
        };
        let digest = failure_digest(&[fatal]);
        assert!(digest.contains("fatal"), "{digest}");
        assert!(!digest.contains("retried"), "fatal failures are not retried: {digest}");
    }

    fn failure_digest_sample() -> RunFailure {
        RunFailure {
            app: "KM".to_string(),
            policy: PolicyKind::Dlp,
            geom: "16KB/4-way".to_string(),
            scale: Scale::Tiny,
            error: String::new(),
            retried: false,
            class: FailureClass::Fatal,
            attempts: 1,
        }
    }

    #[test]
    fn deadline_chunk_scales_with_the_budget() {
        assert_eq!(deadline_chunk(Duration::from_secs(3600)), DEADLINE_CHUNK_CYCLES);
        assert_eq!(deadline_chunk(Duration::from_secs(1)), DEADLINE_CHUNK_CYCLES);
        assert_eq!(deadline_chunk(Duration::from_millis(500)), DEADLINE_CHUNK_CYCLES / 2);
        // Millisecond budgets are checked every few dozen cycles, so
        // the overshoot stays proportionate; the floor keeps the chunk
        // from degenerating to single-cycle stepping.
        assert_eq!(deadline_chunk(Duration::from_millis(1)), 65);
        assert_eq!(deadline_chunk(Duration::from_millis(0)), 64);
    }

    #[test]
    fn tiny_deadline_fails_retryably_and_an_unlimited_rerun_succeeds() {
        // Per-call deadlines: the same process runs the same job under
        // a 1 ms budget (must overrun — the proportional chunk makes
        // even a Tiny job check its budget mid-run) and then with no
        // budget at all. Under the old process-cached deadline the
        // second call would have inherited the first call's budget.
        let cfg = ExperimentConfig {
            scale: Scale::Tiny,
            ..ExperimentConfig::baseline().with_policy(PolicyKind::GlobalProtection)
        };
        let Err(failed) =
            run_app_uncached_for_tests("CFD", cfg, Some(Duration::from_millis(1)), None)
        else {
            panic!("a 1 ms budget cannot cover a CFD simulation");
        };
        assert_eq!(failed.class, FailureClass::Retryable);
        assert!(failed.error.contains("deadline"), "{}", failed.error);
        let ok = run_app_uncached_for_tests("CFD", cfg, None, None).unwrap();
        assert!(ok.stats.completed);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        assert_eq!(backoff(1), Duration::from_millis(25));
        assert_eq!(backoff(2), Duration::from_millis(50));
        assert_eq!(backoff(3), Duration::from_millis(100));
        assert_eq!(backoff(4), Duration::from_millis(200));
        assert_eq!(backoff(40), Duration::from_millis(200), "cap holds far out");
    }
}
