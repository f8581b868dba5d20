//! Parallel experiment runners.
//!
//! Every job in a sweep runs once under `catch_unwind`, so a single
//! diverging configuration cannot take down a multi-hour figure run: a
//! typed simulator error or a panic becomes a [`RunFailure`], and the
//! suites collect the failures into a digest the `figures` binary
//! prints at the end. A failed job is not retried: the simulator is
//! deterministic, so a second attempt would only repeat the failure.
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
use std::time::Instant;

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

/// One job that did not produce statistics: the simulator returned a
/// typed error (hang, invariant violation, cycle-cap overrun) or the
/// run panicked. Identifies the exact configuration so a sweep's
/// failure digest names what to re-run.
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
    /// What went wrong (a `SimError` rendering or a panic payload).
    pub error: String,
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{} @ {} {:?}]: {}", self.app, self.policy.label(), self.geom, self.scale, self.error)
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
/// safe here because the parsed config is part of every
/// [`ExperimentConfig`] cache key, so a stale value can never alias a
/// sampled result to an exact one. Malformed values degrade to `None`
/// here; [`sampling_env`] is the validating entry point.
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

/// Process-wide memo of completed runs keyed by the *full* experiment
/// configuration. The simulator is deterministic, so a cached result
/// is byte-identical to a re-run; `figures all` asks for several
/// configurations more than once (the size sweep's 16 KB/32 KB
/// baseline rows reappear in the policy sweep, profiled runs repeat
/// across figures) and only pays for each exactly once. Failures are
/// never cached, so a later request re-runs the job and reports it.
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
/// — persisted through the crash-safe `dlp-store` layer, so a killed
/// sweep resumes serving every job it had completed from disk. A job
/// that simulates runs to completion under `Gpu::run`, bounded by the
/// simulator's own watchdog and cycle cap.
pub fn run_app(abbr: &str, cfg: ExperimentConfig) -> Result<AppRun, RunFailure> {
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
    match run_app_uncached(abbr, cfg) {
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

/// The actual simulation behind [`run_app`]'s memo layer.
fn run_app_uncached(abbr: &str, cfg: ExperimentConfig) -> Result<AppRun, RunFailure> {
    let spec = gpu_workloads::registry::spec(abbr);
    let kernel = build(abbr, cfg.scale);
    // Profiled jobs force exact simulation: the fast-forward path
    // executes accesses functionally, which would punch unprofiled
    // holes into the reuse-distance histograms.
    let mut sim_cfg = SimConfig::tesla_m2090(cfg.policy).with_l1_geometry(cfg.geom);
    sim_cfg.protection_override = cfg.protection;
    sim_cfg.warp_limit = cfg.warp_limit;
    sim_cfg.sampling = if cfg.profile_rd { None } else { cfg.sampling };
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
    let stats = gpu.run().map_err(|e| RunFailure {
        app: abbr.to_string(),
        policy: cfg.policy,
        geom: cfg.geom_label(),
        scale: cfg.scale,
        error: e.to_string(),
    })?;
    let ticked_cycles = gpu.ticked_cycles();
    let sampling = gpu.sampling_report().map(summarize);
    Ok(AppRun { spec, stats, ticked_cycles, rdd, sampling })
}

/// `run_app` behind `catch_unwind`, so a panicking job becomes a
/// `RunFailure` instead of poisoning the whole sweep.
fn run_app_caught(abbr: &str, cfg: ExperimentConfig) -> Result<AppRun, RunFailure> {
    match catch_unwind(AssertUnwindSafe(|| run_app(abbr, cfg))) {
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
            })
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
                *results[i].lock() = Some(run_app_caught(abbr, *cfg));
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
    let base = ExperimentConfig { scale, ..ExperimentConfig::baseline() };
    let mut columns: Vec<_> =
        PolicyKind::ALL.into_iter().map(|kind| (kind.label(), base.with_policy(kind))).collect();
    columns.push((LABEL_32K, base.with_geom(CacheGeometry::fermi_l1d_32k())));
    let (apps, runs, failed, failures) = run_suite(&columns);
    PolicySuite { runs, apps, failures, failed }
}

/// A suite's `app → (column label → T)` cells.
type Cells<T> = HashMap<String, HashMap<&'static str, T>>;

/// Run every app under every labelled configuration, as one batch, and
/// sort the results into the suite's cells: runs, failures by cell, and
/// the failures in job order. Every app gets a row, even if all of its
/// jobs failed: callers index `runs[abbr]` and read an empty map, not a
/// missing key.
fn run_suite(
    columns: &[(&'static str, ExperimentConfig)],
) -> (Vec<BenchSpec>, Cells<AppRun>, Cells<RunFailure>, Vec<RunFailure>) {
    let apps = registry();
    let jobs: Vec<(String, ExperimentConfig)> = apps
        .iter()
        .flat_map(|spec| columns.iter().map(|&(_, cfg)| (spec.abbr.to_string(), cfg)))
        .collect();
    let mut results = run_many(&jobs).into_iter();
    let (mut runs, mut failed, mut failures) = (Cells::new(), Cells::new(), Vec::new());
    for spec in &apps {
        let row = runs.entry(spec.abbr.to_string()).or_default();
        for &(label, _) in columns {
            match results.next().expect("one result per job") {
                Ok(run) => {
                    row.insert(label, run);
                }
                Err(f) => {
                    failed.entry(spec.abbr.to_string()).or_default().insert(label, f.clone());
                    failures.push(f);
                }
            }
        }
    }
    (apps, runs, failed, failures)
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
    let base = ExperimentConfig { scale, ..ExperimentConfig::baseline() };
    let geoms = [
        CacheGeometry::fermi_l1d_16k(),
        CacheGeometry::fermi_l1d_32k(),
        CacheGeometry::fermi_l1d_64k(),
    ];
    let columns: Vec<_> =
        SIZE_LABELS.into_iter().zip(geoms).map(|(label, g)| (label, base.with_geom(g))).collect();
    let (apps, runs, failed, failures) = run_suite(&columns);
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
        };
        let digest = failure_digest(&[f]);
        assert_eq!(digest, "1 job(s) failed:\n  - KM [DLP @ 16KB/4-way Tiny]: hang: no forward progress\n");
        assert!(failure_digest(&[]).is_empty());
    }
}
