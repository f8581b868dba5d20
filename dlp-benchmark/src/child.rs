//! What runs inside one child process: a timed batch, a set-up child
//! or a per-call replay child. Each prints one JSON report as its last
//! stdout line for the runner to check and aggregate.

use crate::json::{obj, Value};
use crate::spans::Spans;
use crate::workloads::{Batch, Params, Workload};
use crate::{fnv1a, layers, out_dir, peak_rss_mb};
use std::time::{Duration, Instant};

/// Which kind of child this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// One closed-loop batch of the workload's jobs.
    Run,
    /// Repeated set-up passes.
    Setup,
    /// Isolated per-call replays.
    Isolate,
}

impl Mode {
    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Setup => "setup",
            Mode::Isolate => "isolate",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::Run, Mode::Setup, Mode::Isolate]
            .into_iter()
            .find(|m| m.name() == s)
    }
}

/// FNV-1a over each job's `RunStats` Debug rendering, in job order: two
/// runs that simulated the same thing agree on it exactly.
pub fn stats_digest(batch: &Batch) -> String {
    let mut canon = String::new();
    for j in &batch.jobs {
        match &j.result {
            Ok(d) => canon.push_str(&format!("{}={:?}\n", j.name, d.stats)),
            Err(_) => canon.push_str(&format!("{}=FAILED\n", j.name)),
        }
    }
    format!("{:#018x}", fnv1a(canon.as_bytes()))
}

/// The worker count the runner handed down.
fn workers() -> usize {
    std::env::var(dlp_bench::harness::WORKERS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn layers_json(layers: &[(&str, f64)]) -> Value {
    Value::Obj(
        layers
            .iter()
            .map(|&(k, v)| (k.to_string(), v.into()))
            .collect(),
    )
}

/// The members of a child's report.
type Report = Vec<(String, Value)>;

/// Run one child; returns its exit code.
pub fn main(mode: Mode, w: Workload, p: &Params, traced: bool) -> i32 {
    let t0 = Instant::now();
    let report = match mode {
        Mode::Run => run(w, p, traced, t0),
        Mode::Setup => setup(w, p),
        Mode::Isolate => layers::isolated(w, p).map(|l| vec![("layers".into(), layers_json(&l))]),
    };
    match report {
        Ok(mut kv) => {
            kv.push(("peak_rss_mb".into(), peak_rss_mb().into()));
            println!("{}", Value::Obj(kv).render());
            0
        }
        Err(e) => {
            eprintln!("dlp-benchmark {} {}: {e}", mode.name(), w.name());
            1
        }
    }
}

fn run(w: Workload, p: &Params, traced: bool, t0: Instant) -> Result<Report, String> {
    let mut spans = Spans::new(traced);
    let batch = w.run(p, &mut spans)?;
    let child_s = t0.elapsed().as_secs_f64();
    let jobs = batch
        .jobs
        .iter()
        .map(|j| {
            obj([
                ("name", j.name.as_str().into()),
                ("kernel", j.kernel.as_str().into()),
                ("ok", j.result.is_ok().into()),
                (
                    "error",
                    j.result
                        .as_ref()
                        .err()
                        .map_or(Value::Null, |e| e.as_str().into()),
                ),
                (
                    "thread_insns",
                    j.result.as_ref().map_or(0, |d| d.stats.thread_insns).into(),
                ),
            ])
        })
        .collect();
    let sim_warp_insns: u64 = batch
        .jobs
        .iter()
        .filter(|j| j.unique)
        .filter_map(|j| j.result.as_ref().ok())
        .map(|d| d.stats.warp_insns)
        .sum();
    let mut kv = vec![
        ("jobs".to_string(), Value::Arr(jobs)),
        ("stats_digest".to_string(), stats_digest(&batch).into()),
        ("sim_warp_insns".to_string(), sim_warp_insns.into()),
        ("accuracy".to_string(), layers_json(&batch.accuracy)),
    ];
    if traced {
        let records = dlp_bench::telemetry::jobs_snapshot();
        let layers = layers::traced(w, &batch, &spans, &records, child_s, workers());
        // Recorded relative to the output directory, so result files name
        // no machine path.
        let rel = format!("spans/{}-seed{}.json", w.name(), p.seed);
        let file = out_dir().join(&rel);
        let dir = out_dir().join("spans");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let doc = obj([
            ("workload", w.name().into()),
            ("seed", p.seed.into()),
            ("spans", spans.to_json()),
        ]);
        std::fs::write(&file, doc.render()).map_err(|e| format!("{}: {e}", file.display()))?;
        kv.push(("layers".into(), layers_json(&layers)));
        kv.push(("spans".into(), spans.spans.len().into()));
        kv.push(("spans_file".into(), rel.into()));
    }
    Ok(kv)
}

/// Set-up passes repeat until this much time has accumulated.
fn setup_budget(smoke: bool) -> Duration {
    if smoke {
        Duration::from_millis(20)
    } else {
        Duration::from_secs(1)
    }
}

/// Fewest set-up passes per child, so the median has a middle.
const MIN_SETUP_PASSES: usize = 3;

fn setup(w: Workload, p: &Params) -> Result<Report, String> {
    let budget = setup_budget(p.smoke);
    let mut passes = Vec::new();
    let mut total = Duration::ZERO;
    while total < budget || passes.len() < MIN_SETUP_PASSES {
        let t = Instant::now();
        w.setup_pass(p)?;
        let d = t.elapsed();
        total += d;
        passes.push(Value::from(d.as_secs_f64()));
    }
    Ok(vec![("setup_passes".into(), Value::Arr(passes))])
}
