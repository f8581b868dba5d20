//! The runner: generates inputs, spawns children, checks their output
//! and aggregates what they measured.
//!
//! Two front ends share it. The one-workload form prints one result
//! line (`--workload W --seed N --seconds S --trace 0|1`); `run`
//! measures a whole set (warm-up round, alternating workload order,
//! traced children) and writes a result file that `compare` reads.

use crate::catalog::{Better, Metric, END_TO_END, PER_LAYER, WORKLOAD_END_TO_END};
use crate::child::Mode;
use crate::inputs::{self, Encoding};
use crate::json::{self, obj, Value};
use crate::stats::{self, Verdict};
use crate::workloads::{Params, Workload, TRACE_KERNEL};
use crate::{commit, nproc, out_dir, RUSTC_VERSION};
use dlp_bench::harness::{FORCE_FAIL_ENV, WORKERS_ENV};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed held out for checking claims made with the default seed.
pub const HELD_OUT_SEED: u64 = 2;

/// Options shared by the runner's commands.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload seed.
    pub seed: u64,
    /// Cut-down job lists for the smoke test.
    pub smoke: bool,
    /// Test hook: make this app's harness jobs fail in every child.
    pub force_fail: Option<String>,
}

/// A workload with its generated inputs and the thread instructions
/// each of its kernels must retire.
pub struct Prepared {
    w: Workload,
    params: Params,
    expected: BTreeMap<String, u64>,
}

/// Generate the workload's inputs (not timed) and its reference counts.
pub fn prepare(w: Workload, opts: &Opts) -> Result<Prepared, String> {
    let mut params = Params {
        seed: opts.seed,
        smoke: opts.smoke,
        input: None,
    };
    let expected = match w.trace_input() {
        Some((shape, enc)) => {
            let dir = out_dir().join("inputs");
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let ext = if enc == Encoding::Binary {
                "dlpt"
            } else {
                "trace"
            };
            let smoke = if opts.smoke { "-smoke" } else { "" };
            let path = dir.join(format!("{}-seed{}{smoke}.{ext}", w.name(), opts.seed));
            let counts = inputs::write_trace(&path, shape, opts.seed, shape.size(opts.smoke), enc)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            params.input = Some(path);
            BTreeMap::from([(TRACE_KERNEL.to_string(), counts.thread_insns)])
        }
        None => w.expected_thread_insns(&params).into_iter().collect(),
    };
    Ok(Prepared {
        w,
        params,
        expected,
    })
}

impl Prepared {
    /// Delete the generated input: every seed writes its own file.
    fn remove_input(&self) {
        if let Some(path) = &self.params.input {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One finished (or abandoned) child.
struct ChildRun {
    wall_s: f64,
    report: Result<Value, String>,
}

/// Spawn one child with a clean environment: every `DLP_*` variable
/// removed, then exactly the workload's worker count set. Waits for it
/// to exit or kills it at `timeout`; `wall_s` runs from spawn to exit.
fn spawn(prep: &Prepared, mode: Mode, traced: bool, opts: &Opts, timeout: Duration) -> ChildRun {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            return ChildRun {
                wall_s: 0.0,
                report: Err(e.to_string()),
            }
        }
    };
    let mut cmd = Command::new(exe);
    cmd.args([
        "__child",
        mode.name(),
        "--workload",
        prep.w.name(),
        "--seed",
        &prep.params.seed.to_string(),
    ]);
    if prep.params.smoke {
        cmd.arg("--smoke");
    }
    if let Some(input) = &prep.params.input {
        cmd.arg("--input").arg(input);
    }
    if traced {
        cmd.arg("--traced");
    }
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("DLP_") {
            cmd.env_remove(k);
        }
    }
    cmd.env(WORKERS_ENV, prep.w.workers().to_string());
    if let Some(app) = &opts.force_fail {
        cmd.env(FORCE_FAIL_ENV, app);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let start = Instant::now();
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => {
            return ChildRun {
                wall_s: 0.0,
                report: Err(format!("spawn: {e}")),
            }
        }
    };
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let (done, exited) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        let _ = done.send(());
        s
    });
    // The child's stdout ends when it exits, so the runner sleeps until
    // then rather than polling beside the child it times.
    let status = match exited.recv_timeout(timeout) {
        Ok(()) | Err(RecvTimeoutError::Disconnected) => child.wait().map_err(|e| e.to_string()),
        Err(RecvTimeoutError::Timeout) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("timed out after {:.0} s", timeout.as_secs_f64()))
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let out = reader.join().unwrap_or_default();
    let report = status.and_then(|st| {
        if !st.success() {
            return Err(format!("exited with {st}"));
        }
        out.lines()
            .last()
            .ok_or("no report".to_string())
            .and_then(json::parse)
    });
    ChildRun { wall_s, report }
}

/// What the children of one workload measured and what their checks found.
#[derive(Default)]
struct Tally {
    wall: Vec<f64>,
    setup: Vec<f64>,
    minsn: Vec<f64>,
    rss: Vec<f64>,
    accuracy: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
    /// Per checked child: its stats digest and how many jobs it ran.
    digests: Vec<(String, u64)>,
    problems: Vec<String>,
    layers: BTreeMap<String, f64>,
    spans_file: Option<String>,
}

impl Tally {
    /// Check a batch child: every job completed and retired exactly the
    /// thread instructions its kernel holds. A child that produced no
    /// report (crash, timeout) fails all its jobs. `measured` children
    /// also contribute end-to-end samples.
    fn add_run(&mut self, prep: &Prepared, run: &ChildRun, measured: bool) {
        let name = prep.w.name();
        let rep = match &run.report {
            Ok(r) => r,
            Err(e) => {
                let n = prep.w.job_count() as u64;
                self.attempted += n;
                self.failed += n;
                self.problems.push(format!(
                    "{name}: child failed ({e}); its {n} jobs count as failed"
                ));
                return;
            }
        };
        let jobs = rep.get("jobs").and_then(Value::as_arr).unwrap_or_default();
        self.attempted += jobs.len() as u64;
        for j in jobs {
            let job = j.get("name").and_then(Value::as_str).unwrap_or("?");
            let kernel = j.get("kernel").and_then(Value::as_str).unwrap_or("?");
            let insns = j.get("thread_insns").and_then(Value::as_u64);
            if j.get("ok").and_then(Value::as_bool) != Some(true) {
                self.failed += 1;
                let err = j.get("error").and_then(Value::as_str).unwrap_or("failed");
                self.problems.push(format!("{name}: {job}: {err}"));
            } else if insns != prep.expected.get(kernel).copied() {
                self.failed += 1;
                self.problems.push(format!(
                    "{name}: {job}: retired {insns:?} thread instructions, its kernel holds {:?}",
                    prep.expected.get(kernel)
                ));
            }
        }
        if jobs.len() != prep.w.job_count() {
            self.problems.push(format!(
                "{name}: {} jobs reported, {} expected",
                jobs.len(),
                prep.w.job_count()
            ));
        }
        let digest = rep
            .get("stats_digest")
            .and_then(Value::as_str)
            .unwrap_or("none");
        self.digests.push((digest.to_string(), jobs.len() as u64));
        if let Some(layers) = rep.get("layers").and_then(Value::as_obj) {
            self.layers.extend(
                layers
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))),
            );
            self.spans_file = rep
                .get("spans_file")
                .and_then(Value::as_str)
                .map(str::to_string);
            if rep.get("spans").and_then(Value::as_u64).unwrap_or(0) == 0 {
                self.problems
                    .push(format!("{name}: the traced child recorded no spans"));
            }
        }
        if !measured {
            return;
        }
        self.wall.push(run.wall_s);
        let insns = rep
            .get("sim_warp_insns")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        self.minsn.push(insns / run.wall_s / 1e6);
        self.rss.push(
            rep.get("peak_rss_mb")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
        );
        for (k, v) in rep
            .get("accuracy")
            .and_then(Value::as_obj)
            .unwrap_or_default()
        {
            if let Some(v) = v.as_f64() {
                self.accuracy.entry(k.clone()).or_default().push(v);
            }
        }
    }

    /// A set-up child contributes the median of its passes.
    fn add_setup(&mut self, prep: &Prepared, run: &ChildRun) {
        let passes: Vec<f64> = run
            .report
            .as_ref()
            .ok()
            .and_then(|r| {
                r.get("setup_passes")?
                    .as_arr()
                    .map(|a| a.iter().filter_map(Value::as_f64).collect())
            })
            .unwrap_or_default();
        match stats::summarize(&passes) {
            Some(s) => self.setup.push(s.median),
            None => self.problems.push(format!(
                "{}: set-up child failed ({:?})",
                prep.w.name(),
                run.report.as_ref().err()
            )),
        }
    }

    /// Merge a per-call replay child's metrics.
    fn add_isolated(&mut self, prep: &Prepared, run: &ChildRun) {
        match run
            .report
            .as_ref()
            .map(|r| r.get("layers").and_then(Value::as_obj))
        {
            Ok(Some(layers)) => self.layers.extend(
                layers
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))),
            ),
            _ => self.problems.push(format!(
                "{}: replay child failed ({:?})",
                prep.w.name(),
                run.report.as_ref().err()
            )),
        }
    }

    /// Per-layer values taken from the untraced samples: peak memory and
    /// what tracing cost against the untraced median.
    fn derive_layers(&mut self, traced: &ChildRun) {
        let (Some(wall), Some(rss)) = (stats::summarize(&self.wall), stats::summarize(&self.rss))
        else {
            return;
        };
        self.layers.insert("peak_rss_mb".into(), rss.median);
        if traced.report.is_ok() {
            self.layers.insert(
                "traced.overhead_frac".into(),
                traced.wall_s / wall.median - 1.0,
            );
        }
    }

    /// Every child of a workload simulated the same thing, so all stats
    /// digests must agree; jobs of a child that disagrees with the
    /// majority count as failed. Returns the majority digest.
    fn settle_digests(&mut self) -> Option<String> {
        let mut votes: BTreeMap<&str, usize> = BTreeMap::new();
        for (d, _) in &self.digests {
            *votes.entry(d).or_default() += 1;
        }
        let majority = votes
            .iter()
            .max_by_key(|(_, n)| **n)
            .map(|(d, _)| d.to_string())?;
        for (d, jobs) in &self.digests {
            if *d != majority {
                self.failed += jobs;
                self.problems
                    .push(format!("stats digest {d} differs from {majority}"));
            }
        }
        Some(majority)
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Samples of an end-to-end metric.
    fn samples(&self, name: &str) -> Vec<f64> {
        match name {
            "wall_s" => self.wall.clone(),
            "setup_s" => self.setup.clone(),
            "minsn_per_s" => self.minsn.clone(),
            "peak_rss_mb" => self.rss.clone(),
            "failed_frac" => vec![if self.attempted == 0 {
                1.0
            } else {
                self.failed as f64 / self.attempted as f64
            }],
            other => self.accuracy.get(other).cloned().unwrap_or_default(),
        }
    }

    /// What the one-workload form reports for an end-to-end metric: for
    /// the batch metrics the whole run's throughput (mean batch time,
    /// and all batches' instructions over their summed time), for the
    /// others the median. The host slows batches by up to 1.7× in
    /// episodes from seconds to minutes long; the run's mean tracks the
    /// share of slow time smoothly, where its median or its best batch
    /// jumps between the fast and the slow speed.
    fn run_value(&self, m: &Metric) -> f64 {
        let total_s: f64 = self.wall.iter().sum();
        match m.name {
            "wall_s" if total_s > 0.0 => total_s / self.wall.len() as f64,
            "minsn_per_s" if total_s > 0.0 => {
                self.minsn
                    .iter()
                    .zip(&self.wall)
                    .map(|(r, s)| r * s)
                    .sum::<f64>()
                    / total_s
            }
            _ => stats::summarize(&self.samples(m.name)).map_or(0.0, |s| s.median),
        }
    }
}

/// A one-workload invocation stops starting children, and kills a
/// straggler, so that it ends within three minutes.
const INVOCATION_LIMIT: Duration = Duration::from_secs(170);
/// Timeout of a child with no reference time yet, in set mode.
const SET_CHILD_CEILING: Duration = Duration::from_secs(900);
/// A measured child may take this many times the reference run.
const TIMEOUT_FACTOR: f64 = 5.0;

fn remaining(start: Instant) -> Duration {
    INVOCATION_LIMIT.saturating_sub(start.elapsed())
}

fn provenance(opts: &Opts) -> Value {
    let workers = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.workers().into()))
        .collect();
    obj([
        ("commit", commit().into()),
        ("nproc", nproc().into()),
        ("rustc", RUSTC_VERSION.into()),
        ("workers", Value::Obj(workers)),
        ("seed", opts.seed.into()),
        ("held_out_seed", HELD_OUT_SEED.into()),
        ("smoke", opts.smoke.into()),
    ])
}

fn print_provenance(opts: &Opts, workloads: &[Workload]) {
    let workers: Vec<String> = workloads
        .iter()
        .map(|w| format!("{} {}", w.name(), w.workers()))
        .collect();
    println!(
        "dlp-benchmark: commit {} | nproc {} | {} | workers: {} | seed {}{}",
        commit(),
        nproc(),
        RUSTC_VERSION,
        workers.join(", "),
        opts.seed,
        if opts.smoke { " | smoke" } else { "" }
    );
}

fn metric_value(m: &Metric, v: f64) -> Value {
    obj([("value", v.into()), ("unit", m.unit.into())])
}

/// The one-workload front end: measure one workload for about `seconds`
/// (trace off) or run its traced and per-call children (trace on), then
/// print the result object as the last stdout line.
pub fn one_workload(w: Workload, opts: &Opts, seconds: f64, trace: bool) -> i32 {
    let start = Instant::now();
    let prep = match prepare(w, opts) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("dlp-benchmark: {e}");
            return 1;
        }
    };
    let mut tally = Tally::default();
    print_provenance(opts, &[w]);
    let metrics: Vec<(&Metric, f64)> = if trace {
        let untraced = spawn(&prep, Mode::Run, false, opts, remaining(start));
        tally.add_run(&prep, &untraced, true);
        let traced = spawn(&prep, Mode::Run, true, opts, remaining(start));
        tally.add_run(&prep, &traced, false);
        tally.add_isolated(
            &prep,
            &spawn(&prep, Mode::Isolate, false, opts, remaining(start)),
        );
        tally.derive_layers(&traced);
        PER_LAYER
            .iter()
            .map(|m| (m, tally.layers.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        tally.add_setup(
            &prep,
            &spawn(&prep, Mode::Setup, false, opts, remaining(start)),
        );
        let measure = Instant::now();
        let mut timeout = remaining(start);
        loop {
            let run = spawn(&prep, Mode::Run, false, opts, timeout);
            tally.add_run(&prep, &run, true);
            let next_fits =
                start.elapsed().as_secs_f64() + 1.5 * run.wall_s < INVOCATION_LIMIT.as_secs_f64();
            if run.report.is_err() || measure.elapsed().as_secs_f64() >= seconds || !next_fits {
                break;
            }
            // Later children may take TIMEOUT_FACTOR times the first.
            timeout = Duration::from_secs_f64(tally.wall[0] * TIMEOUT_FACTOR).min(remaining(start));
        }
        END_TO_END.iter().map(|m| (m, tally.run_value(m))).collect()
    };
    prep.remove_input();
    tally.settle_digests();
    for p in &tally.problems {
        eprintln!("check: {p}");
    }
    println!(
        "{} (seed {}{})",
        w.name(),
        opts.seed,
        if trace { ", traced" } else { "" }
    );
    for (m, v) in &metrics {
        println!("  {:<32} {:>16.6} {}", m.name, v, m.unit);
    }
    let result = obj([
        ("correct", tally.correct().into()),
        ("attempted", tally.attempted.into()),
        ("failed", tally.failed.into()),
        (
            "metrics",
            Value::Obj(
                metrics
                    .iter()
                    .map(|(m, v)| (m.name.to_string(), metric_value(m, *v)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    0
}

fn summary_json(m: &Metric, values: &[f64]) -> Option<Value> {
    let s = stats::summarize(values)?;
    Some(obj([
        ("unit", m.unit.into()),
        ("better", m.better.label().into()),
        ("bound", m.bound.into()),
        ("median", s.median.into()),
        ("q1", s.q1.into()),
        ("q3", s.q3.into()),
        ("n", s.n.into()),
        (
            "values",
            Value::Arr(values.iter().map(|&v| v.into()).collect()),
        ),
    ]))
}

/// The set front end, over every workload: `runs` measured rounds after
/// a discarded warm-up round, workload order reversing every round, then
/// one traced and one per-call replay child per workload. Prints every
/// metric and writes the result file `compare` reads.
pub fn run_set(opts: &Opts, runs: usize, out: &Path) -> i32 {
    let mut preps = Vec::new();
    for w in Workload::ALL {
        match prepare(w, opts) {
            Ok(p) => preps.push(p),
            Err(e) => {
                eprintln!("dlp-benchmark: {e}");
                return 1;
            }
        }
    }
    print_provenance(opts, &Workload::ALL);
    let mut tallies: Vec<Tally> = preps.iter().map(|_| Tally::default()).collect();
    let mut reference: Vec<Option<f64>> = vec![None; preps.len()];
    for (round, order) in stats::round_orders(preps.len(), runs + 1)
        .into_iter()
        .enumerate()
    {
        for i in order {
            let prep = &preps[i];
            let timeout = reference[i].map_or(SET_CHILD_CEILING, |r| {
                Duration::from_secs_f64(r * TIMEOUT_FACTOR)
            });
            let setup = spawn(prep, Mode::Setup, false, opts, timeout);
            let run = spawn(prep, Mode::Run, false, opts, timeout);
            let tag = if round == 0 { "warm-up" } else { "round" };
            eprintln!("{tag} {round}: {} {:.3} s", prep.w.name(), run.wall_s);
            if round == 0 {
                reference[i] = run.report.is_ok().then_some(run.wall_s.max(1.0));
                continue;
            }
            tallies[i].add_setup(prep, &setup);
            tallies[i].add_run(prep, &run, true);
        }
    }
    let mut results = Vec::new();
    for (i, prep) in preps.iter().enumerate() {
        let tally = &mut tallies[i];
        let timeout = reference[i].map_or(SET_CHILD_CEILING, |r| {
            Duration::from_secs_f64(r * TIMEOUT_FACTOR)
        });
        let traced = spawn(prep, Mode::Run, true, opts, timeout);
        tally.add_run(prep, &traced, false);
        tally.add_isolated(prep, &spawn(prep, Mode::Isolate, false, opts, timeout));
        tally.derive_layers(&traced);
        let digest = tally.settle_digests();
        results.push(workload_result(prep.w, tally, digest));
        prep.remove_input();
    }
    let doc = obj([
        ("schema", "dlp-benchmark/set/v1".into()),
        ("provenance", provenance(opts)),
        ("runs", runs.into()),
        ("workloads", Value::Arr(results)),
    ]);
    print_set(&doc);
    for t in &tallies {
        t.problems.iter().for_each(|p| eprintln!("check: {p}"));
    }
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(out, doc.render() + "\n") {
        eprintln!("dlp-benchmark: {}: {e}", out.display());
        return 1;
    }
    println!("results: {}", out.display());
    0
}

fn workload_result(w: Workload, tally: &Tally, digest: Option<String>) -> Value {
    let e2e = END_TO_END
        .iter()
        .chain(&WORKLOAD_END_TO_END)
        .filter_map(|m| Some((m.name.to_string(), summary_json(m, &tally.samples(m.name))?)))
        .collect();
    let layers = PER_LAYER
        .iter()
        .filter_map(|m| {
            Some((
                m.name.to_string(),
                metric_value(m, *tally.layers.get(m.name)?),
            ))
        })
        .collect();
    obj([
        ("name", w.name().into()),
        ("why", w.why().into()),
        ("workers", w.workers().into()),
        ("correct", tally.correct().into()),
        ("attempted", tally.attempted.into()),
        ("failed", tally.failed.into()),
        ("stats_digest", digest.map_or(Value::Null, Value::from)),
        ("end_to_end", Value::Obj(e2e)),
        ("per_layer", Value::Obj(layers)),
        (
            "spans_file",
            tally.spans_file.clone().map_or(Value::Null, Value::from),
        ),
        (
            "problems",
            Value::Arr(tally.problems.iter().map(|p| p.as_str().into()).collect()),
        ),
    ])
}

fn print_set(doc: &Value) {
    for w in doc
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap_or_default()
    {
        let name = w.get("name").and_then(Value::as_str).unwrap_or("?");
        let correct = w.get("correct").and_then(Value::as_bool).unwrap_or(false);
        let digest = w.get("stats_digest").and_then(Value::as_str).unwrap_or("-");
        println!("== {name}: correct {correct}, stats_digest {digest}");
        for (k, v) in w
            .get("end_to_end")
            .and_then(Value::as_obj)
            .unwrap_or_default()
        {
            let f = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = v.get("unit").and_then(Value::as_str).unwrap_or("");
            println!(
                "  {k:<32} {:>14.6} {unit:<8} [q1 {:.6}, q3 {:.6}] n={}",
                f("median"),
                f("q1"),
                f("q3"),
                f("n")
            );
        }
        for (k, v) in w
            .get("per_layer")
            .and_then(Value::as_obj)
            .unwrap_or_default()
        {
            let value = v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = v.get("unit").and_then(Value::as_str).unwrap_or("");
            println!("  {k:<32} {value:>14.6} {unit}");
        }
    }
}

/// Compare two set result files: for each (workload, end-to-end metric)
/// report whether the second set's median is within its bound of the
/// first's, over it, or unresolved because the runs spread wider than
/// the bound; and whether the stats digests agree. Exit 1 when a pair is
/// over its bound or a digest differs.
pub fn compare(base: &Path, new: &Path) -> i32 {
    let load = |p: &Path| -> Result<Value, String> {
        json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?)
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = match (load(base), load(new)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("dlp-benchmark compare: {e}");
            return 2;
        }
    };
    let workloads = |d: &Value| {
        d.get("workloads")
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .to_vec()
    };
    let same_inputs = a
        .get("provenance")
        .and_then(|p| Some((p.get("seed")?.clone(), p.get("smoke")?.clone())))
        == b.get("provenance")
            .and_then(|p| Some((p.get("seed")?.clone(), p.get("smoke")?.clone())));
    let mut bad = false;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "base", "new", "change", "spread", "bound"
    );
    for wa in workloads(&a) {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = workloads(&b)
            .into_iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            println!("{name:<16} missing from {}", new.display());
            continue;
        };
        for m in END_TO_END.iter().chain(&WORKLOAD_END_TO_END) {
            let values = |w: &Value| -> Option<Vec<f64>> {
                let v = w.get("end_to_end")?.get(m.name)?.get("values")?.as_arr()?;
                Some(v.iter().filter_map(Value::as_f64).collect())
            };
            let (Some(va), Some(vb)) = (values(&wa), values(&wb)) else {
                continue;
            };
            let (Some(sa), Some(sb)) = (stats::summarize(&va), stats::summarize(&vb)) else {
                continue;
            };
            let lower = m.better == Better::Lower;
            let verdict = stats::verdict(&va, &vb, lower, m.bound);
            bad |= verdict == Verdict::Over;
            let change = if sa.median == 0.0 {
                0.0
            } else {
                (sb.median - sa.median) / sa.median.abs()
            };
            println!(
                "{name:<16} {:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>7.2}%  {}",
                m.name,
                sa.median,
                sb.median,
                100.0 * change,
                100.0 * sa.spread().max(sb.spread()),
                100.0 * m.bound,
                verdict.label()
            );
        }
        if same_inputs {
            let (da, db) = (wa.get("stats_digest"), wb.get("stats_digest"));
            let same = da == db && da.is_some_and(|d| *d != Value::Null);
            bad |= !same;
            println!(
                "{name:<16} stats_digest {}",
                if same { "identical" } else { "DIFFERENT" }
            );
        }
    }
    i32::from(bad)
}

/// Default result path of a set.
pub fn default_out(opts: &Opts) -> PathBuf {
    out_dir().join(format!(
        "set-seed{}{}.json",
        opts.seed,
        if opts.smoke { "-smoke" } else { "" }
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    /// A run reports its throughput over all batches, and its median
    /// set-up pass.
    #[test]
    fn a_run_reports_its_throughput_and_median_set_up() {
        // Four batches of 2 M instructions each.
        let wall = [4.0, 2.5, 4.0, 3.5];
        let tally = Tally {
            wall: wall.to_vec(),
            minsn: wall.iter().map(|s| 2.0 / s).collect(),
            setup: vec![0.2, 0.3, 0.25],
            ..Tally::default()
        };
        assert_eq!(tally.run_value(metric("wall_s")), 3.5);
        let rate = tally.run_value(metric("minsn_per_s"));
        assert!((rate - 8.0 / 14.0).abs() < 1e-12, "{rate}");
        assert_eq!(tally.run_value(metric("setup_s")), 0.25);
        assert_eq!(Tally::default().run_value(metric("wall_s")), 0.0);
    }
}
