//! The four workloads: what each child simulates, how it sets up, and
//! what its results are checked against.
//!
//! Every call goes through the program crates' public API. Configuration
//! is set through `ExperimentConfig` / `SimConfig` fields only; children
//! see no `DLP_*` variable except the worker count.

use crate::inputs::{self, Encoding, Shape};
use crate::spans::Spans;
use dlp_bench::harness::{
    run_app, run_many, run_policy_suite, run_size_suite, AppRun, ExperimentConfig, PolicySuite,
    RunFailure, LABEL_32K, SIZE_LABELS,
};
use dlp_bench::report::{geomean, normalize};
use dlp_bench::SamplingSummary;
use dlp_core::{CacheGeometry, PolicyKind};
use gpu_sim::{Gpu, RunStats, SamplingConfig, SimConfig};
use gpu_workloads::{build, registry, AppClass, Scale, TraceKernel};
use std::collections::HashSet;
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Exactly the simulations `figures all` runs at Full scale.
    FullAll,
    /// KM/BFS/STR × Baseline/DLP at `SAMPLED_SCALE`× work per warp,
    /// interval-sampled.
    ScaleSampled,
    /// A seeded binary trace replayed under the four schemes.
    TraceMixed,
    /// A seeded text trace of latency-bound pointer chasing, Baseline
    /// and DLP.
    TraceChase,
}

/// Apps of the sampled scale workload (the `figures scale` set).
const SCALE_APPS: [&str; 3] = ["KM", "BFS", "STR"];
/// Work per warp of the sampled scale workload, against `Full`: enough
/// windows per job for the sampling regime, small enough that one run
/// holds several batches.
const SAMPLED_SCALE: u32 = 2;
/// Schemes of the sampled scale workload and of `trace-chase`.
const TWO_SCHEMES: [PolicyKind; 2] = [PolicyKind::Baseline, PolicyKind::Dlp];

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::FullAll,
        Workload::ScaleSampled,
        Workload::TraceMixed,
        Workload::TraceChase,
    ];

    /// The workloads `BENCHMARK.json` lists. Each fits several batches in
    /// one run, so the run's best batch is a steady estimate. A
    /// `full-all` batch takes about half a minute on two workers, so it
    /// is measured in sets only.
    pub const LISTED: [Workload; 3] = [
        Workload::ScaleSampled,
        Workload::TraceMixed,
        Workload::TraceChase,
    ];

    /// The name later changes refer to.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FullAll => "full-all",
            Workload::ScaleSampled => "scale2-sampled",
            Workload::TraceMixed => "trace-mixed",
            Workload::TraceChase => "trace-chase",
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::FullAll => {
                "the figures-all regeneration users wait on: detailed core, RD profiler and run cache; leap skips ~1% of cycles"
            }
            Workload::ScaleSampled => {
                "interval sampling at 2x work per warp: most cycles go through fast-forward and the generators, one job after another"
            }
            Workload::TraceMixed => {
                "binary trace replay at full occupancy: 32 memory PCs, 32-lane ops, stores and gathers load the L1D write path and PDPT"
            }
            Workload::TraceChase => {
                "latency-bound text trace of 4 single-lane warps: cycle-leap skips most cycles and text parsing supplies the ops"
            }
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generated input this workload replays, if any.
    pub fn trace_input(self) -> Option<(Shape, Encoding)> {
        match self {
            Workload::TraceMixed => Some((Shape::Mixed, Encoding::Binary)),
            Workload::TraceChase => Some((Shape::Chase, Encoding::Text)),
            _ => None,
        }
    }

    /// Schemes a trace workload replays under, one after another.
    pub fn schemes(self) -> &'static [PolicyKind] {
        match self {
            Workload::TraceMixed => &PolicyKind::ALL,
            _ => &TWO_SCHEMES,
        }
    }

    fn scale(self, smoke: bool) -> Scale {
        match (self, smoke) {
            (_, true) => Scale::Tiny,
            (Workload::ScaleSampled, false) => Scale::Scaled(SAMPLED_SCALE),
            _ => Scale::Full,
        }
    }

    /// Does this workload go through the experiment harness?
    pub fn uses_harness(self) -> bool {
        self.trace_input().is_none()
    }

    /// Harness workers a child gets. `full-all` spreads its 163 jobs over
    /// two (fewer on a smaller machine). The rest run on one thread: two
    /// busy threads on a 2-core host time up to twice as noisily, and
    /// one thread leaves a core to the runner.
    pub fn workers(self) -> usize {
        match self {
            Workload::FullAll => crate::nproc().min(2),
            _ => 1,
        }
    }

    /// Jobs one child attempts (what a timed-out child counts as failed).
    pub fn job_count(self) -> usize {
        match self {
            // Fig. 3 (one per app), Fig. 7 (BFS), the size suite and the
            // policy suite (four schemes plus 32 KB).
            Workload::FullAll => {
                let apps = registry().len();
                apps + 1 + apps * SIZE_LABELS.len() + apps * (PolicyKind::ALL.len() + 1)
            }
            Workload::ScaleSampled => SCALE_APPS.len() * TWO_SCHEMES.len(),
            _ => self.schemes().len(),
        }
    }

    /// The distinct simulations a harness workload runs, in first-use
    /// order: what one set-up pass builds and what the per-call
    /// replays feed. Mirrors the configurations the harness suites build.
    pub fn harness_jobs(self, p: &Params) -> Vec<(String, ExperimentConfig)> {
        let scale = self.scale(p.smoke);
        let base = ExperimentConfig {
            scale,
            ..ExperimentConfig::baseline()
        };
        let mut jobs = Vec::new();
        match self {
            Workload::FullAll => {
                for s in registry() {
                    jobs.push((
                        s.abbr.to_string(),
                        ExperimentConfig {
                            profile_rd: true,
                            ..base
                        },
                    ));
                }
                let geoms = [
                    CacheGeometry::fermi_l1d_16k(),
                    CacheGeometry::fermi_l1d_32k(),
                    CacheGeometry::fermi_l1d_64k(),
                ];
                for s in registry() {
                    for g in geoms {
                        jobs.push((s.abbr.to_string(), base.with_geom(g)));
                    }
                }
                for s in registry() {
                    for kind in &PolicyKind::ALL[1..] {
                        jobs.push((s.abbr.to_string(), base.with_policy(*kind)));
                    }
                }
            }
            Workload::ScaleSampled => {
                let sampled = ExperimentConfig {
                    sampling: Some(sampling(p.seed)),
                    ..base
                };
                for app in SCALE_APPS {
                    for kind in TWO_SCHEMES {
                        jobs.push((app.to_string(), sampled.with_policy(kind)));
                    }
                }
            }
            _ => {}
        }
        jobs
    }
}

/// Interval sampling of the scale workload: 2 000-cycle windows, each
/// after a 2 000-cycle warm-up, every 18 000 fast-forwarded cycles. The
/// seed sets the window phase.
fn sampling(seed: u64) -> SamplingConfig {
    SamplingConfig {
        detail: 2000,
        skip: 18000,
        warmup: 2000,
        seed: inputs::mix(seed, 0x5a),
    }
}

/// What a child needs besides the workload.
#[derive(Clone, Debug)]
pub struct Params {
    /// Workload seed.
    pub seed: u64,
    /// Cut-down job lists (Tiny scale, few-hundred-op traces).
    pub smoke: bool,
    /// The generated trace, for trace workloads.
    pub input: Option<PathBuf>,
}

impl Params {
    fn trace_path(&self) -> Result<&Path, String> {
        self.input
            .as_deref()
            .ok_or_else(|| "trace workload without --input".to_string())
    }
}

/// One job's outcome, in job order.
pub struct Job {
    /// Display name, unique within the batch.
    pub name: String,
    /// The kernel the job simulates, keying its expected instruction count.
    pub kernel: String,
    /// L1D scheme.
    pub policy: PolicyKind,
    /// L1D capacity in KB.
    pub l1_kb: u64,
    /// Whether this job is the first to simulate its configuration (the
    /// rest were served by the run cache).
    pub unique: bool,
    /// Whether the reuse-distance profiler was attached.
    pub profiled: bool,
    /// Statistics, or why the job failed.
    pub result: Result<JobData, String>,
}

/// A completed job's results.
pub struct JobData {
    /// Simulation statistics.
    pub stats: RunStats,
    /// Cycles stepped one at a time (the rest were leapt).
    pub ticked: u64,
    /// Sampling estimates, for sampled runs.
    pub sampling: Option<SamplingSummary>,
}

/// Everything one child simulated.
pub struct Batch {
    /// Jobs in order.
    pub jobs: Vec<Job>,
    /// Simulated-output accuracy metrics of this workload.
    pub accuracy: Vec<(&'static str, f64)>,
}

/// The key a harness job's expected instruction count is stored under.
fn kernel_key(app: &str, scale: Scale) -> String {
    format!("{app}@{scale:?}")
}

/// Key of the single kernel a trace workload replays.
pub const TRACE_KERNEL: &str = "trace";

fn harness_job(
    name: String,
    app: &str,
    cfg: ExperimentConfig,
    res: Result<AppRun, String>,
    seen: &mut HashSet<(String, ExperimentConfig)>,
) -> Job {
    Job {
        name,
        kernel: kernel_key(app, cfg.scale),
        policy: cfg.policy,
        l1_kb: cfg.geom.capacity_bytes() / 1024,
        unique: seen.insert((app.to_string(), cfg)),
        profiled: cfg.profile_rd,
        result: res.map(|run| JobData {
            stats: run.stats,
            ticked: run.ticked_cycles,
            sampling: run.sampling,
        }),
    }
}

/// The configuration the harness builds for one job, so set-up passes
/// and per-call replays construct the machine the timed run does.
///
/// This mirrors the private `ExperimentConfig` → `SimConfig` step in
/// `dlp_bench::harness::run_app_uncached`, minus `with_shards` (children
/// run one shard). Keep the two in step until the harness makes that
/// step public and this copy can go.
pub fn sim_config(cfg: &ExperimentConfig) -> SimConfig {
    let mut c = SimConfig::tesla_m2090(cfg.policy).with_l1_geometry(cfg.geom);
    c.protection_override = cfg.protection;
    c.warp_limit = cfg.warp_limit;
    c.sampling = if cfg.profile_rd { None } else { cfg.sampling };
    if let Scale::Scaled(f) = cfg.scale {
        c.max_cycles = c.max_cycles.saturating_mul(u64::from(f));
    }
    c
}

impl Workload {
    /// Simulate the workload's job list once.
    pub fn run(self, p: &Params, spans: &mut Spans) -> Result<Batch, String> {
        match self {
            Workload::FullAll => Ok(full_all(self.scale(p.smoke), spans)),
            Workload::ScaleSampled => {
                let jobs = self.harness_jobs(p);
                let results = spans.time("run_many", |_| run_many(&jobs));
                let mut seen = HashSet::new();
                let jobs: Vec<Job> = jobs
                    .iter()
                    .zip(&results)
                    .map(|((app, cfg), r)| {
                        let name = format!("{app}/{}", cfg.policy.label());
                        harness_job(
                            name,
                            app,
                            *cfg,
                            r.clone().map_err(|f| f.to_string()),
                            &mut seen,
                        )
                    })
                    .collect();
                let ci = jobs
                    .iter()
                    .filter_map(|j| j.result.as_ref().ok()?.sampling.map(|s| s.ci_rel_width()))
                    .fold(None, |m: Option<f64>, w| Some(m.map_or(w, |m| m.max(w))));
                Ok(Batch {
                    jobs,
                    accuracy: ci.map(|c| ("ci_rel_width_max", c)).into_iter().collect(),
                })
            }
            Workload::TraceMixed | Workload::TraceChase => {
                let path = p.trace_path()?;
                let kernel = spans
                    .time("TraceKernel::open", |_| TraceKernel::open(path))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let jobs = self
                    .schemes()
                    .iter()
                    .map(|&kind| {
                        let label = kind.label();
                        let mut gpu = spans.time(format!("Gpu::new {label}"), |_| {
                            Gpu::new(SimConfig::tesla_m2090(kind), Box::new(kernel.clone()))
                        });
                        let res = spans.time(format!("Gpu::run {label}"), |_| gpu.run());
                        let result = match res {
                            Ok(stats) if stats.completed => Ok(JobData {
                                stats,
                                ticked: gpu.ticked_cycles(),
                                sampling: None,
                            }),
                            Ok(_) => Err("run stopped before kernel completion".to_string()),
                            Err(e) => Err(e.to_string()),
                        };
                        Job {
                            name: format!("{}/{label}", self.name()),
                            kernel: TRACE_KERNEL.into(),
                            policy: kind,
                            l1_kb: 16,
                            unique: true,
                            profiled: false,
                            result,
                        }
                    })
                    .collect();
                Ok(Batch {
                    jobs,
                    accuracy: Vec::new(),
                })
            }
        }
    }

    /// One set-up pass: build (or open) every kernel and construct every
    /// machine the job list simulates, without running anything.
    pub fn setup_pass(self, p: &Params) -> Result<(), String> {
        if self.uses_harness() {
            for (app, cfg) in self.harness_jobs(p) {
                black_box(Gpu::new(sim_config(&cfg), build(&app, cfg.scale)));
            }
        } else {
            let kernel = TraceKernel::open(p.trace_path()?).map_err(|e| e.to_string())?;
            for &kind in self.schemes() {
                black_box(Gpu::new(
                    SimConfig::tesla_m2090(kind),
                    Box::new(kernel.clone()),
                ));
            }
        }
        Ok(())
    }

    /// The thread instructions each harness kernel must retire, from a
    /// static replay of its warp streams (trace workloads take theirs
    /// from the generator instead).
    pub fn expected_thread_insns(self, p: &Params) -> Vec<(String, u64)> {
        let mut apps: Vec<(String, Scale)> = Vec::new();
        for (app, cfg) in self.harness_jobs(p) {
            if !apps.iter().any(|(a, _)| *a == app) {
                apps.push((app, cfg.scale));
            }
        }
        apps.into_iter()
            .map(|(app, scale)| {
                let k = build(&app, scale);
                (
                    kernel_key(&app, scale),
                    gpu_workloads::registry::static_mem_profile(k.as_ref()).1,
                )
            })
            .collect()
    }
}

/// `figures all`: the same calls in the same order, minus rendering.
fn full_all(scale: Scale, spans: &mut Spans) -> Batch {
    let apps = registry();
    let profiled = ExperimentConfig {
        scale,
        profile_rd: true,
        ..ExperimentConfig::baseline()
    };
    let mut seen = HashSet::new();
    let mut jobs = Vec::new();
    let static_ratios = |spans: &mut Spans, name: &str| {
        spans.time(name, |_| {
            for s in &apps {
                let k = build(s.abbr, scale);
                black_box(gpu_workloads::registry::static_mem_ratio(k.as_ref()));
            }
        })
    };
    static_ratios(spans, "tab2");
    spans.time("fig3", |spans| {
        for s in &apps {
            let res = spans.time(format!("run_app profiled {}", s.abbr), |_| {
                run_app(s.abbr, profiled)
            });
            if let Ok(run) = &res {
                black_box(run.rdd.as_ref().map(|sink| sink.lock().overall.shares()));
            }
            let res = res.map_err(|f| f.to_string());
            jobs.push(harness_job(
                format!("fig3/{}", s.abbr),
                s.abbr,
                profiled,
                res,
                &mut seen,
            ));
        }
    });
    static_ratios(spans, "fig6");
    let bfs = spans.time("fig7", |spans| {
        spans.time("run_app profiled BFS", |_| run_app("BFS", profiled))
    });
    jobs.push(harness_job(
        "fig7/BFS".into(),
        "BFS",
        profiled,
        bfs.map_err(|f| f.to_string()),
        &mut seen,
    ));
    let sizes = spans.time("run_size_suite", |_| run_size_suite(scale));
    let geoms = [
        CacheGeometry::fermi_l1d_16k(),
        CacheGeometry::fermi_l1d_32k(),
        CacheGeometry::fermi_l1d_64k(),
    ];
    for spec in &sizes.apps {
        for (label, g) in SIZE_LABELS.into_iter().zip(geoms) {
            let cfg = ExperimentConfig {
                scale,
                ..ExperimentConfig::baseline().with_geom(g)
            };
            let res = lookup(&sizes.runs, &sizes.failed, spec.abbr, label);
            jobs.push(harness_job(
                format!("size/{}/{label}", spec.abbr),
                spec.abbr,
                cfg,
                res,
                &mut seen,
            ));
        }
    }
    let suite = spans.time("run_policy_suite", |_| run_policy_suite(scale));
    for spec in &suite.apps {
        let columns = PolicyKind::ALL
            .iter()
            .map(|&k| {
                (
                    k.label(),
                    ExperimentConfig {
                        scale,
                        ..ExperimentConfig::baseline().with_policy(k)
                    },
                )
            })
            .chain([(
                LABEL_32K,
                ExperimentConfig {
                    scale,
                    ..ExperimentConfig::baseline().with_geom(CacheGeometry::fermi_l1d_32k())
                },
            )]);
        for (label, cfg) in columns {
            let res = lookup(&suite.runs, &suite.failed, spec.abbr, label);
            jobs.push(harness_job(
                format!("policy/{}/{label}", spec.abbr),
                spec.abbr,
                cfg,
                res,
                &mut seen,
            ));
        }
    }
    let geom = CacheGeometry::fermi_l1d_16k();
    black_box(dlp_core::dlp_overhead(geom, geom.num_lines() as u64));
    Batch {
        jobs,
        accuracy: accuracy(&suite),
    }
}

type Runs = std::collections::HashMap<String, std::collections::HashMap<&'static str, AppRun>>;
type Failed =
    std::collections::HashMap<String, std::collections::HashMap<&'static str, RunFailure>>;

fn lookup(runs: &Runs, failed: &Failed, app: &str, label: &str) -> Result<AppRun, String> {
    match runs.get(app).and_then(|r| r.get(label)) {
        Some(run) => Ok(run.clone()),
        None => Err(failed.get(app).and_then(|f| f.get(label)).map_or_else(
            || "missing from the suite".to_string(),
            RunFailure::to_string,
        )),
    }
}

/// The paper's Fig. 10 geomean cells: (class, column, value).
const PAPER_FIG10: [(AppClass, &str, f64); 8] = [
    (AppClass::CS, "Stall-Bypass", 0.976),
    (AppClass::CS, "Global-Protection", 1.0),
    (AppClass::CS, "DLP", 0.998),
    (AppClass::CS, LABEL_32K, 1.07),
    (AppClass::CI, "Stall-Bypass", 1.14),
    (AppClass::CI, "Global-Protection", 1.347),
    (AppClass::CI, "DLP", 1.438),
    (AppClass::CI, LABEL_32K, 1.50),
];

/// Which normalized quantity a held-out cell reads.
#[derive(Clone, Copy)]
enum Quantity {
    /// Fig. 11a: L1D traffic.
    Traffic,
    /// Fig. 11b: L1D evictions.
    Evictions,
    /// Fig. 13: interconnect flits.
    Flits,
}

/// CI cells `figures calib` never tunes (Fig. 11a, 11b and 13).
const PAPER_HELDOUT: [(Quantity, &str, f64); 8] = [
    (Quantity::Traffic, "Stall-Bypass", 0.716),
    (Quantity::Traffic, "Global-Protection", 0.598),
    (Quantity::Traffic, "DLP", 0.475),
    (Quantity::Evictions, "Stall-Bypass", 0.565),
    (Quantity::Evictions, "Global-Protection", 0.357),
    (Quantity::Evictions, "DLP", 0.207),
    (Quantity::Flits, "Stall-Bypass", 0.938),
    (Quantity::Flits, "DLP", 0.885),
];

/// Geomean over one class of `metric(run) / metric(baseline run)`, the
/// way `figures` builds a G.MEANS cell. `fig10_rule` keeps Fig. 10's
/// treatment (zero bases normalize to 0); otherwise zero bases are
/// excluded and values floored, as `print_normalized` does.
fn class_geomean(
    suite: &PolicySuite,
    class: AppClass,
    label: &str,
    metric: impl Fn(&AppRun) -> f64,
    fig10_rule: bool,
) -> Option<f64> {
    let base_label = PolicyKind::Baseline.label();
    let mut vals = Vec::new();
    for spec in suite.apps.iter().filter(|s| s.class == class) {
        let row = suite.runs.get(spec.abbr)?;
        let (run, base) = (row.get(label)?, row.get(base_label)?);
        let b = metric(base);
        if fig10_rule {
            vals.push(normalize(metric(run), b));
        } else if b != 0.0 {
            vals.push(normalize(metric(run), b).max(1e-9));
        }
    }
    geomean(&vals)
}

/// Mean absolute error of the live Fig. 10 and held-out cells against
/// the paper. A cell that cannot be computed (failed jobs) drops the
/// metric rather than biasing it.
fn accuracy(suite: &PolicySuite) -> Vec<(&'static str, f64)> {
    let mae = |cells: Vec<Option<f64>>, paper: Vec<f64>| -> Option<f64> {
        let live: Option<Vec<f64>> = cells.into_iter().collect();
        let live = live?;
        Some(
            live.iter()
                .zip(&paper)
                .map(|(l, p)| (l - p).abs())
                .sum::<f64>()
                / paper.len() as f64,
        )
    };
    let fig10 = mae(
        PAPER_FIG10
            .iter()
            .map(|&(c, l, _)| class_geomean(suite, c, l, |r| r.stats.ipc(), true))
            .collect(),
        PAPER_FIG10.iter().map(|c| c.2).collect(),
    );
    let heldout = mae(
        PAPER_HELDOUT
            .iter()
            .map(|&(q, l, _)| {
                let metric = move |r: &AppRun| match q {
                    Quantity::Traffic => r.stats.l1d.cache_traffic() as f64,
                    Quantity::Evictions => r.stats.l1d.evictions as f64,
                    Quantity::Flits => r.stats.icnt.total_flits() as f64,
                };
                class_geomean(suite, AppClass::CI, l, metric, false)
            })
            .collect(),
        PAPER_HELDOUT.iter().map(|c| c.2).collect(),
    );
    [("fig10_mae", fig10), ("heldout_mae", heldout)]
        .into_iter()
        .filter_map(|(n, v)| Some((n, v?)))
        .collect()
}
