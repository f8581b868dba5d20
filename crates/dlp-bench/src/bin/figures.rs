//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures <artifact> [--tiny]
//!   artifact: tab1 tab2 fig3 fig4 fig5 fig6 fig7 fig10 fig11 fig12
//!             fig13 overhead ablation all
//!             calib           (CI tuning table: hit%, bypass%, stalls, PD)
//!             inspect <APP>   (raw per-scheme statistics dump)
//!             pdpt <APP>      (DLP's learned per-instruction PDs vs RDDs)
//!             scale           (scale-axis suite: DLP_SCALE x workloads,
//!                              streamed with O(1) warp-trace memory)
//!             trace <FILE>    (replay an external trace file; malformed
//!                              traces exit 2)
//!   --tiny:   run the Tiny workload scale (smoke test)
//!
//! DLP_SCALE=10|100|1000 multiplies every Full-scale workload's
//! streamed work per warp (all artifacts; invalid values exit 2).
//! ```

use dlp_bench::harness::{
    failure_digest, run_app, run_many, run_policy_suite, run_size_suite, AppRun, ExperimentConfig,
    PolicySuite, RunFailure, SizeSuite, LABEL_32K, SIZE_LABELS,
};
use dlp_bench::report::{geomean_cell, normalize, Table};
use dlp_core::{dlp_overhead, CacheGeometry, PolicyKind, ProtectionConfig};
use gpu_workloads::{registry, AppClass, Scale};
use std::collections::HashMap;

/// The four policy columns in figure order.
const POLICY_LABELS: [&str; 4] =
    ["16KB(Baseline)", "Stall-Bypass", "Global-Protection", "DLP"];

/// Print a sweep's failure digest (if any) to stderr, so partial
/// figures come with an explanation of what is missing.
fn report_failures(digest: &str) {
    if !digest.is_empty() {
        eprintln!("-- some runs failed; affected cells are marked FAILED(reason) --");
        eprint!("{digest}");
    }
}

/// Per-(app, column) failures of a suite — what the `FAILED(reason)`
/// cells are rendered from.
type FailedMap = HashMap<String, HashMap<&'static str, RunFailure>>;

/// A compact reason for a table cell: the head of the error before its
/// first colon ("panic", "cycle cap ex", ...), truncated to 12
/// characters so tables stay readable; the full rendering is in the
/// stderr digest.
fn short_reason(f: &RunFailure) -> String {
    let head = f.error.split(':').next().unwrap_or("error").trim();
    let mut s: String = head.chars().take(12).collect();
    if s.is_empty() {
        s.push_str("error");
    }
    s
}

/// The cell printed where a run should have been: a sweep with
/// failures still renders every row, each missing value explicit.
fn failed_cell(failed: &FailedMap, app: &str, label: &str) -> String {
    let reason = failed
        .get(app)
        .and_then(|m| m.get(label))
        .map(short_reason)
        .unwrap_or_else(|| "missing".to_string());
    format!("FAILED({reason})")
}

/// Unwrap a single must-have run, exiting with the failure description
/// (app, policy, geometry) instead of a panic backtrace.
fn must_run(res: Result<AppRun, RunFailure>) -> AppRun {
    res.unwrap_or_else(|f| {
        eprintln!("run failed: {f}");
        std::process::exit(1);
    })
}

/// Where the telemetry JSON goes: `DLP_TELEMETRY_PATH` if set, else
/// `BENCH_figures.json` in the working directory (the repo root when
/// invoked through `cargo run`).
fn telemetry_path() -> std::path::PathBuf {
    std::env::var_os("DLP_TELEMETRY_PATH")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_figures.json"))
}

fn main() {
    // A malformed DLP_SAMPLING must fail loudly before any sweep
    // starts — silently falling back to exact simulation would turn a
    // typo into hours of unintended work.
    if let Err(e) = dlp_bench::harness::sampling_env() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    // Same discipline for the scale axis: a malformed DLP_SCALE exits 2
    // before any sweep starts.
    let scale_factor = match dlp_bench::harness::scale_env() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // And for the store's fault campaign. A store directory that cannot
    // be opened is not fatal: the sweep runs without persistence, and
    // says so before its first job rather than after its last.
    if let Err(e) = dlp_bench::persist::store_fault_env() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    if let Some(e) = dlp_bench::persist::store_poisoned() {
        eprintln!("store: disabled for this run: {e}");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--tiny") {
        Scale::Tiny
    } else {
        match scale_factor {
            Some(f) => Scale::Scaled(f),
            None => Scale::Full,
        }
    };
    let what = args.iter().find(|a| !a.starts_with("--")).map(String::as_str).unwrap_or("all");

    dlp_bench::telemetry::sweep(&format!("figures {what}"), || run_artifact(what, scale, &args));

    // One-line observability warning: 7-bit instruction-ID wraps alias
    // distinct PCs onto shared PDPT/VTA slots. The built-in apps never
    // wrap; replayed external traces can. Stderr, so exact-mode stdout
    // stays byte-identical.
    let wraps: u64 =
        dlp_bench::telemetry::jobs_snapshot().iter().map(|j| j.insn_id_wraps).sum();
    if wraps > 0 {
        eprintln!(
            "warning: {wraps} instruction-id wrap(s) across this run's jobs — distinct PCs \
             alias in the 7-bit PDPT/VTA index; per-instruction statistics are conflated"
        );
    }

    if let Some(c) = dlp_bench::persist::store_counters() {
        dlp_bench::telemetry::record_store(c);
    }

    let path = telemetry_path();
    match dlp_bench::telemetry::write_json(&path) {
        Ok(()) => eprintln!("telemetry: {}", path.display()),
        Err(e) => eprintln!("telemetry: failed to write {}: {e}", path.display()),
    }
}

fn run_artifact(what: &str, scale: Scale, args: &[String]) {
    match what {
        "tab1" => tab1(),
        "tab2" => tab2(scale),
        "fig3" => fig3(scale),
        "fig4" => {
            let s = run_size_suite(scale);
            fig4(&s);
            report_failures(&s.failure_digest());
        }
        "fig5" => {
            let s = run_size_suite(scale);
            fig5(&s);
            report_failures(&s.failure_digest());
        }
        "fig6" => fig6(scale),
        "fig7" => fig7(scale),
        "fig10" => {
            let s = run_policy_suite(scale);
            fig10(&s);
            report_failures(&s.failure_digest());
        }
        "fig11" => {
            let s = run_policy_suite(scale);
            fig11(&s);
            report_failures(&s.failure_digest());
        }
        "fig12" => {
            let s = run_policy_suite(scale);
            fig12(&s);
            report_failures(&s.failure_digest());
        }
        "fig13" => {
            let s = run_policy_suite(scale);
            fig13(&s);
            report_failures(&s.failure_digest());
        }
        "overhead" => overhead(),
        "ablation" => ablation(scale),
        "all" => {
            tab1();
            tab2(scale);
            fig3(scale);
            fig6(scale);
            fig7(scale);
            let sizes = run_size_suite(scale);
            fig4(&sizes);
            fig5(&sizes);
            let suite = run_policy_suite(scale);
            fig10(&suite);
            fig11(&suite);
            fig12(&suite);
            fig13(&suite);
            overhead();
            report_failures(&sizes.failure_digest());
            report_failures(&suite.failure_digest());
        }
        "calib" => calib(scale),
        "pdpt" => {
            let app = args
                .iter()
                .filter(|a| !a.starts_with("--"))
                .nth(1)
                .expect("usage: figures pdpt <APP>");
            pdpt_report(app, scale);
        }
        "inspect" => {
            // figures inspect <APP> — dump raw stats for all schemes.
            let app = args
                .iter()
                .filter(|a| !a.starts_with("--"))
                .nth(1)
                .expect("usage: figures inspect <APP>");
            inspect(app, scale);
        }
        "scale" => {
            // figures scale — the streaming-engine scale axis. The
            // factor comes from DLP_SCALE (already folded into `scale`
            // by main); an unset variable defaults to 10× so the suite
            // is still meaningful standalone.
            let factor = match scale {
                Scale::Scaled(f) => f,
                _ => 10,
            };
            scale_suite(factor);
        }
        "trace" => {
            // figures trace <FILE> — replay an externally recorded
            // trace through the simulator.
            let path = args
                .iter()
                .filter(|a| !a.starts_with("--"))
                .nth(1)
                .expect("usage: figures trace <FILE>");
            trace_report(path);
        }
        other => {
            eprintln!("unknown artifact {other:?}");
            std::process::exit(2);
        }
    }
}

/// The scale-axis suite: a subset of apps at `factor`× work per warp,
/// under the two schemes the paper contrasts. The point of the table
/// is the last three columns — resident-trace memory stays O(1) per
/// warp no matter the factor (`PeakTraceB` is the high-water mark the
/// scale-smoke CI job asserts a bound on), and the wrap/eviction
/// counters surface aliasing pressure that only appears at scale.
fn scale_suite(factor: u32) {
    println!("== Scale suite: {factor}x work per warp, O(1)-memory streaming ==");
    const SCALE_APPS: [&str; 3] = ["KM", "BFS", "STR"];
    const SCHEMES: [PolicyKind; 2] = [PolicyKind::Baseline, PolicyKind::Dlp];
    let jobs: Vec<_> = SCALE_APPS
        .iter()
        .flat_map(|app| {
            SCHEMES.iter().map(move |&kind| {
                let cfg = ExperimentConfig {
                    scale: Scale::Scaled(factor),
                    ..ExperimentConfig::baseline().with_policy(kind)
                };
                (app.to_string(), cfg)
            })
        })
        .collect();
    let results = run_many(&jobs);

    let mut t = Table::new(vec![
        "App", "Scheme", "Cycles", "IPC", "Hit%", "PeakTraceB", "IdWraps", "PdptEvict",
    ]);
    let mut failures: Vec<RunFailure> = Vec::new();
    for ((app, cfg), res) in jobs.iter().zip(results) {
        match res {
            Ok(run) => {
                let s = &run.stats;
                let ipc_ci = run
                    .sampling
                    .and_then(|sm| sm.ipc)
                    .map(|e| format!("±{:.2}", e.half))
                    .unwrap_or_default();
                t.row(vec![
                    app.clone(),
                    format!("{:?}", cfg.policy),
                    s.cycles.to_string(),
                    format!("{:.2}{ipc_ci}", s.ipc()),
                    format!("{:.1}%{}", s.l1d.hit_rate() * 100.0, hit_rate_ci_suffix(&run)),
                    s.peak_warp_trace_bytes.to_string(),
                    s.insn_id_wraps.to_string(),
                    s.pdpt_evict_pressure.to_string(),
                ]);
            }
            Err(f) => {
                let mut cells = vec![
                    app.clone(),
                    format!("{:?}", cfg.policy),
                    format!("FAILED({})", short_reason(&f)),
                ];
                cells.extend(std::iter::repeat_n("-".to_string(), 5));
                t.row(cells);
                failures.push(f);
            }
        }
    }
    println!("{}", t.render());
    report_failures(&failure_digest(&failures));
}

/// Replay an externally recorded trace file (text or binary format,
/// see `gpu_workloads::trace`) under the baseline and DLP schemes. A
/// malformed or unreadable trace exits 2 before any simulation starts.
fn trace_report(path: &str) {
    use gpu_sim::{Gpu, SimConfig};
    let kernel = match gpu_workloads::TraceKernel::open(std::path::Path::new(path)) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("figures trace: {path}: {e}");
            std::process::exit(2);
        }
    };
    let grid = gpu_sim::Kernel::grid(&kernel);
    println!(
        "== Trace replay: {path} ({} recorded warp(s), grid {}x{}) ==",
        kernel.recorded_warps(),
        grid.num_ctas,
        grid.warps_per_cta,
    );
    let mut t = Table::new(vec!["Scheme", "Cycles", "IPC", "Hit%", "IdWraps", "PeakTraceB"]);
    for kind in [PolicyKind::Baseline, PolicyKind::Dlp] {
        let cfg = SimConfig::tesla_m2090(kind);
        let mut gpu = Gpu::new(cfg, Box::new(kernel.clone()));
        let stats = gpu.run().unwrap_or_else(|e| {
            eprintln!("{path} ({kind:?}) failed: {e}");
            std::process::exit(1);
        });
        if stats.insn_id_wraps > 0 {
            eprintln!(
                "warning: {path} ({kind:?}): {} instruction-id wrap(s) — distinct PCs alias \
                 in the 7-bit PDPT/VTA index; per-instruction statistics are conflated",
                stats.insn_id_wraps
            );
        }
        t.row(vec![
            format!("{kind:?}"),
            stats.cycles.to_string(),
            format!("{:.2}", stats.ipc()),
            format!("{:.1}%", stats.l1d.hit_rate() * 100.0),
            stats.insn_id_wraps.to_string(),
            stats.peak_warp_trace_bytes.to_string(),
        ]);
    }
    println!("{}", t.render());
}

fn tab1() {
    println!("== Table 1: GPU configuration ==");
    let cfg = gpu_sim::SimConfig::tesla_m2090(PolicyKind::Baseline);
    let mut t = Table::new(vec!["Parameter", "Value"]);
    t.row(vec!["Number of Cores".to_string(), cfg.num_sms.to_string()]);
    t.row(vec!["Warp Size".to_string(), cfg.warp_size.to_string()]);
    t.row(vec!["Max # of warps per core".to_string(), cfg.max_warps_per_sm.to_string()]);
    t.row(vec![
        "Warp schedulers per core".to_string(),
        format!("{}, GTO scheduling policy", cfg.schedulers_per_sm),
    ]);
    t.row(vec![
        "L1D cache".to_string(),
        format!(
            "{}KB, {}sets, {}-ways, Hash index",
            cfg.l1d.geom.capacity_bytes() / 1024,
            cfg.l1d.geom.num_sets,
            cfg.l1d.geom.assoc
        ),
    ]);
    t.row(vec!["# of memory partition".to_string(), cfg.icnt.num_partitions.to_string()]);
    t.row(vec![
        "L2 cache".to_string(),
        format!(
            "{}KB, {}sets, {}-ways, Linear index",
            cfg.partition.l2_geom.capacity_bytes() * cfg.icnt.num_partitions as u64 / 1024,
            cfg.partition.l2_geom.num_sets,
            cfg.partition.l2_geom.assoc
        ),
    ]);
    t.row(vec![
        "DRAM".to_string(),
        format!(
            "32bits bus width/partition, {} banks/partition, GDDR5 timing",
            cfg.partition.dram.num_banks
        ),
    ]);
    println!("{}", t.render());
}

fn tab2(scale: Scale) {
    println!("== Table 2: benchmark applications ==");
    let mut t = Table::new(vec!["Abbr", "Name", "Suite", "Type", "Input", "MeasuredRatio"]);
    for s in registry() {
        let k = gpu_workloads::build(s.abbr, scale);
        let ratio = gpu_workloads::registry::static_mem_ratio(k.as_ref());
        t.row(vec![
            s.abbr.to_string(),
            s.name.to_string(),
            s.suite.to_string(),
            format!("{:?}", s.class),
            s.input.to_string(),
            format!("{:.2}%", ratio * 100.0),
        ]);
    }
    println!("{}", t.render());
}

fn fig3(scale: Scale) {
    println!("== Figure 3: Reuse Distance Distribution per application ==");
    let mut t = Table::new(vec!["App", "RD 1~4", "RD 5~8", "RD 9~64", "RD >64", "Compulsory%"]);
    let cfg = ExperimentConfig { scale, profile_rd: true, ..ExperimentConfig::baseline() };
    let specs = registry();
    let jobs: Vec<_> = specs.iter().map(|spec| (spec.abbr.to_string(), cfg)).collect();
    for (spec, res) in specs.iter().zip(run_many(&jobs)) {
        let run = match res {
            Ok(r) => r,
            Err(f) => {
                eprintln!("row failed: {f}");
                let mut cells = vec![spec.abbr.to_string(), format!("FAILED({})", short_reason(&f))];
                cells.extend(std::iter::repeat_n("-".to_string(), 4));
                t.row(cells);
                continue;
            }
        };
        let sink = run.rdd.unwrap();
        let prof = sink.lock();
        let sh = prof.overall.shares();
        let total = prof.overall.total() + prof.overall.compulsory;
        let comp = if total == 0 { 0.0 } else { prof.overall.compulsory as f64 / total as f64 };
        t.row(vec![
            spec.abbr.to_string(),
            format!("{:.1}%", sh[0] * 100.0),
            format!("{:.1}%", sh[1] * 100.0),
            format!("{:.1}%", sh[2] * 100.0),
            format!("{:.1}%", sh[3] * 100.0),
            format!("{:.1}%", comp * 100.0),
        ]);
    }
    println!("{}", t.render());
}

fn fig4(s: &SizeSuite) {
    println!("== Figure 4: reuse-data miss rate vs cache size (compulsory excluded) ==");
    let mut t = Table::new(vec!["App", "16KB", "32KB", "64KB"]);
    for spec in &s.apps {
        let row = s.runs.get(spec.abbr);
        let mut cells = vec![spec.abbr.to_string()];
        for l in SIZE_LABELS {
            cells.push(match row.and_then(|r| r.get(l)) {
                Some(run) => format!("{:.1}%", run.stats.l1d.reuse_miss_rate() * 100.0),
                None => failed_cell(&s.failed, spec.abbr, l),
            });
        }
        t.row(cells);
    }
    println!("{}", t.render());
}

fn fig5(s: &SizeSuite) {
    println!("== Figure 5: IPC vs cache size, normalized to 16KB ==");
    let mut t = Table::new(vec!["App", "16KB", "32KB", "64KB"]);
    for spec in &s.apps {
        let row = s.runs.get(spec.abbr);
        let base = row.and_then(|r| r.get("16KB")).map(|run| run.stats.ipc());
        let mut cells = vec![
            spec.abbr.to_string(),
            if base.is_some() {
                "1.00".to_string()
            } else {
                failed_cell(&s.failed, spec.abbr, "16KB")
            },
        ];
        for l in ["32KB", "64KB"] {
            cells.push(match (row.and_then(|r| r.get(l)), base) {
                (Some(run), Some(b)) => format!("{:.2}", normalize(run.stats.ipc(), b)),
                (Some(_), None) => "n/a".to_string(),
                (None, _) => failed_cell(&s.failed, spec.abbr, l),
            });
        }
        t.row(cells);
    }
    println!("{}", t.render());
}

fn fig6(scale: Scale) {
    println!("== Figure 6: memory access ratio (sorted; CS/CI split at 1%) ==");
    let mut rows: Vec<(String, f64, AppClass)> = registry()
        .into_iter()
        .map(|s| {
            let k = gpu_workloads::build(s.abbr, scale);
            (s.abbr.to_string(), gpu_workloads::registry::static_mem_ratio(k.as_ref()), s.class)
        })
        .collect();
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut t = Table::new(vec!["App", "Ratio", "Class"]);
    for (abbr, ratio, class) in rows {
        t.row(vec![abbr, format!("{:.2}%", ratio * 100.0), format!("{class:?}")]);
    }
    println!("{}", t.render());
}

fn fig7(scale: Scale) {
    println!("== Figure 7: RDD per memory instruction, BFS ==");
    let cfg = ExperimentConfig { scale, profile_rd: true, ..ExperimentConfig::baseline() };
    let run = must_run(run_app("BFS", cfg));
    let sink = run.rdd.unwrap();
    let prof = sink.lock();
    let mut pcs: Vec<u32> = prof.per_pc.keys().copied().collect();
    pcs.sort_unstable();
    let mut t = Table::new(vec!["Insn", "RD 1~4", "RD 5~8", "RD 9~64", "RD >64", "Samples"]);
    for pc in pcs {
        let h = &prof.per_pc[&pc];
        if h.total() == 0 {
            continue;
        }
        let sh = h.shares();
        t.row(vec![
            format!("insn{pc}"),
            format!("{:.1}%", sh[0] * 100.0),
            format!("{:.1}%", sh[1] * 100.0),
            format!("{:.1}%", sh[2] * 100.0),
            format!("{:.1}%", sh[3] * 100.0),
            h.total().to_string(),
        ]);
    }
    println!("{}", t.render());
}

/// `±` suffix for a normalized-IPC cell of a sampled run: a ratio of
/// two estimates carries both relative CI widths (first-order, they
/// add). Empty for exact runs — exact-mode stdout stays byte-identical
/// to builds without sampling.
fn ipc_ci_suffix(run: &AppRun, base: &AppRun, v: f64) -> String {
    let rw = |r: &AppRun| r.sampling.and_then(|s| s.ipc).map(|e| e.rel_width());
    match (rw(run), rw(base)) {
        (None, None) => String::new(),
        (a, b) => format!("±{:.2}", v * (a.unwrap_or(0.0) + b.unwrap_or(0.0))),
    }
}

/// `±` suffix for an absolute hit-rate cell: the estimate's own CI
/// half-width. Empty for exact runs.
fn hit_rate_ci_suffix(run: &AppRun) -> String {
    match run.sampling.and_then(|s| s.hit_rate) {
        Some(e) => format!("±{:.3}", e.half),
        None => String::new(),
    }
}

fn class_rows<'a>(
    suite: &'a PolicySuite,
    class: AppClass,
) -> impl Iterator<Item = &'a gpu_workloads::BenchSpec> + 'a {
    suite.apps.iter().filter(move |s| s.class == class)
}

fn fig10(suite: &PolicySuite) {
    println!("== Figure 10: IPC normalized to the 16KB baseline ==");
    let mut t = Table::new(vec!["App", "Base", "Stall-Bypass", "Global-Prot", "DLP", "32KB"]);
    for class in [AppClass::CS, AppClass::CI] {
        let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); 5];
        let all_labels =
            [POLICY_LABELS[0], POLICY_LABELS[1], POLICY_LABELS[2], POLICY_LABELS[3], LABEL_32K];
        for spec in class_rows(suite, class) {
            let row = suite.runs.get(spec.abbr);
            let base_run = row.and_then(|r| r.get(POLICY_LABELS[0]));
            let base = base_run.map(|run| run.stats.ipc());
            let mut cells = vec![spec.abbr.to_string()];
            for (i, label) in all_labels.iter().enumerate() {
                cells.push(match (row.and_then(|r| r.get(label)), base_run, base) {
                    (Some(run), Some(br), Some(b)) => {
                        let v = normalize(run.stats.ipc(), b);
                        per_scheme[i].push(v);
                        format!("{v:.2}{}", ipc_ci_suffix(run, br, v))
                    }
                    (Some(_), _, _) => "n/a".to_string(),
                    (None, _, _) => failed_cell(&suite.failed, spec.abbr, label),
                });
            }
            t.row(cells);
        }
        let mut gm = vec![format!("G.MEANS({class:?})")];
        for vals in &per_scheme {
            gm.push(geomean_cell(vals, 2));
        }
        t.row(gm);
    }
    println!("{}", t.render());
}

fn fig11(suite: &PolicySuite) {
    println!("== Figure 11a: L1D traffic normalized to baseline ==");
    print_normalized(suite, |r| r.stats.l1d.cache_traffic() as f64);
    println!("== Figure 11b: L1D evictions normalized to baseline ==");
    print_normalized(suite, |r| r.stats.l1d.evictions as f64);
}

fn fig12(suite: &PolicySuite) {
    println!("== Figure 12a: L1D hit rate ==");
    let mut t = Table::new(vec!["App", "Base", "Stall-Bypass", "Global-Prot", "DLP"]);
    for class in [AppClass::CS, AppClass::CI] {
        for spec in class_rows(suite, class) {
            let row = suite.runs.get(spec.abbr);
            let mut cells = vec![spec.abbr.to_string()];
            for label in POLICY_LABELS {
                cells.push(match row.and_then(|r| r.get(label)) {
                    Some(run) => {
                        format!("{:.3}{}", run.stats.l1d.hit_rate(), hit_rate_ci_suffix(run))
                    }
                    None => failed_cell(&suite.failed, spec.abbr, label),
                });
            }
            t.row(cells);
        }
    }
    println!("{}", t.render());
    println!("== Figure 12b: number of L1D hits normalized to baseline ==");
    print_normalized(suite, |r| r.stats.l1d.hits as f64);
}

fn fig13(suite: &PolicySuite) {
    println!("== Figure 13: interconnect traffic normalized to baseline ==");
    print_normalized(suite, |r| r.stats.icnt.total_flits() as f64);
}

fn print_normalized(suite: &PolicySuite, metric: impl Fn(&dlp_bench::AppRun) -> f64) {
    let mut t = Table::new(vec!["App", "Base", "Stall-Bypass", "Global-Prot", "DLP"]);
    for class in [AppClass::CS, AppClass::CI] {
        let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for spec in class_rows(suite, class) {
            let row = suite.runs.get(spec.abbr);
            // A zero base (e.g. a zero-hit app) has nothing to
            // normalize against: render n/a, exclude from the means.
            let base = row
                .and_then(|r| r.get(POLICY_LABELS[0]))
                .map(&metric)
                .filter(|b| *b != 0.0);
            let mut cells = vec![spec.abbr.to_string()];
            for (i, label) in POLICY_LABELS.iter().enumerate() {
                cells.push(match (row.and_then(|r| r.get(label)), base) {
                    (Some(run), Some(b)) => {
                        let v = normalize(metric(run), b);
                        per_scheme[i].push(v.max(1e-9));
                        format!("{v:.2}")
                    }
                    (Some(_), None) => "n/a".to_string(),
                    (None, _) => failed_cell(&suite.failed, spec.abbr, label),
                });
            }
            t.row(cells);
        }
        let mut gm = vec![format!("G.MEANS({class:?})")];
        for vals in &per_scheme {
            gm.push(geomean_cell(vals, 2));
        }
        t.row(gm);
    }
    println!("{}", t.render());
}

/// What DLP learned: the per-instruction protection distances of SM 0
/// after a full run, next to each instruction's measured RDD — the
/// paper's §3.3 argument made observable.
fn pdpt_report(app: &str, scale: Scale) {
    use gpu_sim::{Gpu, SimConfig};
    // Profiled baseline run for the per-PC RDDs.
    let prof_run = must_run(run_app(
        app,
        ExperimentConfig { scale, profile_rd: true, ..ExperimentConfig::baseline() },
    ));
    let sink = prof_run.rdd.unwrap();
    let prof = sink.lock();

    // DLP run; inspect SM 0's PDPT afterwards.
    let cfg = SimConfig::tesla_m2090(PolicyKind::Dlp);
    let mut gpu = Gpu::new(cfg, gpu_workloads::build(app, scale));
    let stats = gpu.run().unwrap_or_else(|e| {
        eprintln!("{app} (DLP) failed: {e}");
        std::process::exit(1);
    });
    assert!(stats.completed);
    let snapshot = gpu
        .l1d(0)
        .policy()
        .pd_snapshot()
        .expect("DLP keeps per-instruction PDs");

    println!("== {app}: learned protection distances (SM 0) vs measured RDDs ==");
    let mut t = Table::new(vec!["Insn", "final PD", "RD 1~4", "RD 5~8", "RD 9~64", "RD >64"]);
    for (insn, pd) in snapshot {
        let pc = insn as u32; // workload PCs are < 64, so the 7-bit hash is the identity
        let (s0, s1, s2, s3) = match prof.per_pc.get(&pc) {
            Some(h) if h.total() > 0 => {
                let s = h.shares();
                (s[0], s[1], s[2], s[3])
            }
            _ => (0.0, 0.0, 0.0, 0.0),
        };
        t.row(vec![
            format!("insn{insn}"),
            pd.to_string(),
            format!("{:.0}%", s0 * 100.0),
            format!("{:.0}%", s1 * 100.0),
            format!("{:.0}%", s2 * 100.0),
            format!("{:.0}%", s3 * 100.0),
        ]);
    }
    println!("{}", t.render());
    println!(
        "mean PD over samples: {:.2}; increases {}, decreases {}",
        stats.policy.avg_pd(),
        stats.policy.pd_increases,
        stats.policy.pd_decreases
    );
}

/// Every counter of each scheme's run (and the 32 KB baseline's), by
/// field name and block, each block followed by the rates read off it.
fn inspect(app: &str, scale: Scale) {
    let mut runs: Vec<(String, ExperimentConfig)> = PolicyKind::ALL
        .iter()
        .map(|&kind| (format!("{kind:?}"), ExperimentConfig::baseline().with_policy(kind)))
        .collect();
    runs.push((
        "32KB".to_string(),
        ExperimentConfig::baseline().with_geom(CacheGeometry::fermi_l1d_32k()),
    ));
    for (label, cfg) in runs {
        let s = must_run(run_app(app, ExperimentConfig { scale, ..cfg })).stats;
        println!("--- {app} {label} ---");
        println!(
            "cycles {} thread_insns {} warp_insns {} mem_transactions {} completed {} | ipc {:.2}",
            s.cycles,
            s.thread_insns,
            s.warp_insns,
            s.mem_transactions,
            s.completed,
            s.ipc()
        );
        let l1d_rates = format!(
            "hit_rate {:.1}% avg_load_latency {:.0}",
            s.l1d.hit_rate() * 100.0,
            s.l1d.avg_load_latency()
        );
        let row_hits = s.dram.row_hits as f64 / (s.dram.row_hits + s.dram.row_misses).max(1) as f64;
        print_block("L1D", s.l1d.fields(), &l1d_rates);
        print_block("policy", s.policy.fields(), &format!("avg_pd {:.2}", s.policy.avg_pd()));
        print_block("icnt", s.icnt.fields(), "");
        print_block("L2", s.l2.fields(), "");
        print_block("DRAM", s.dram.fields(), &format!("row_hit_rate {:.0}%", row_hits * 100.0));
    }
}

/// One `inspect` line: `label: name value ... [| rates]`.
fn print_block(label: &str, fields: impl Iterator<Item = (&'static str, u64)>, rates: &str) {
    let mut line = format!("{label}:");
    for (name, v) in fields {
        line += &format!(" {name} {v}");
    }
    if !rates.is_empty() {
        line += &format!(" | {rates}");
    }
    println!("{line}");
}

/// Compact calibration table: every CI app under the four schemes plus
/// 32 KB, with the metrics that drive tuning decisions.
fn calib(scale: Scale) {
    let suite = run_policy_suite(scale);
    let mut t = Table::new(vec![
        "App", "Scheme", "IPCx", "Hit%", "Byp%", "Stall/SMcyc", "AllResv", "AvgPD",
    ]);
    let labels = ["16KB(Baseline)", "Stall-Bypass", "Global-Protection", "DLP", "32KB"];
    for spec in suite.apps.iter().filter(|s| s.class == AppClass::CI) {
        let row = suite.runs.get(spec.abbr);
        let base_ipc =
            row.and_then(|r| r.get("16KB(Baseline)")).map(|run| run.stats.ipc());
        for label in labels {
            let Some(run) = row.and_then(|r| r.get(label)) else {
                let mut cells =
                    vec![spec.abbr.to_string(), label.to_string(), failed_cell(&suite.failed, spec.abbr, label)];
                cells.extend(std::iter::repeat_n("-".to_string(), 5));
                t.row(cells);
                continue;
            };
            let s = &run.stats;
            t.row(vec![
                spec.abbr.to_string(),
                label.to_string(),
                match base_ipc {
                    Some(b) => format!("{:.2}", normalize(s.ipc(), b)),
                    None => "n/a".to_string(),
                },
                format!("{:.0}%", s.l1d.hit_rate() * 100.0),
                format!(
                    "{:.0}%",
                    100.0 * (s.l1d.bypassed_loads + s.l1d.bypassed_stores) as f64
                        / s.l1d.accesses.max(1) as f64
                ),
                format!("{:.2}", s.l1d.stall_cycles as f64 / (s.cycles * 16).max(1) as f64),
                format!("{}", s.l1d.stall_all_reserved),
                format!("{:.1}", s.policy.avg_pd()),
            ]);
        }
    }
    println!("{}", t.render());
    report_failures(&suite.failure_digest());
}

fn overhead() {
    println!("== §4.3: DLP hardware overhead ==");
    let geom = CacheGeometry::fermi_l1d_16k();
    let r = dlp_overhead(geom, geom.num_lines() as u64);
    let mut t = Table::new(vec!["Component", "Bytes"]);
    t.row(vec!["TDA extra (insn id + PL)".to_string(), r.tda_extra_bytes.to_string()]);
    t.row(vec!["VTA (tags + insn id)".to_string(), r.vta_bytes.to_string()]);
    t.row(vec!["PDPT".to_string(), r.pdpt_bytes.to_string()]);
    t.row(vec!["Total extra".to_string(), r.total_extra_bytes().to_string()]);
    t.row(vec!["Baseline cache".to_string(), r.baseline_bytes.to_string()]);
    t.row(vec![
        "Overhead".to_string(),
        format!("{:.2}%", r.fraction_of_baseline() * 100.0),
    ]);
    println!("{}", t.render());
    let _ = ProtectionConfig::paper_default(geom);
}

/// Per-app normalized IPCs for an ablation variant; pairs where either
/// the baseline or the variant failed are reported and excluded.
fn norm_vs_base(runs: Vec<Result<AppRun, RunFailure>>, base: &[Option<f64>]) -> Vec<f64> {
    runs.into_iter()
        .zip(base)
        .filter_map(|(r, b)| match (r, b) {
            (Ok(run), Some(b)) => Some(normalize(run.stats.ipc(), *b)),
            (Err(f), _) => {
                eprintln!("skipping: {f}");
                None
            }
            _ => None,
        })
        .collect()
}

fn ablation(scale: Scale) {
    println!("== Ablations: DLP design choices (CI geomean IPC vs 16KB baseline) ==");
    let ci: Vec<_> = registry().into_iter().filter(|s| s.class == AppClass::CI).collect();

    // Baseline reference IPCs, computed once in parallel.
    let base_jobs: Vec<_> = ci
        .iter()
        .map(|s| (s.abbr.to_string(), ExperimentConfig { scale, ..ExperimentConfig::baseline() }))
        .collect();
    let base: Vec<Option<f64>> = dlp_bench::harness::run_many(&base_jobs)
        .into_iter()
        .map(|r| match r {
            Ok(run) => Some(run.stats.ipc()),
            Err(f) => {
                eprintln!("baseline run failed: {f}");
                None
            }
        })
        .collect();

    let geom = CacheGeometry::fermi_l1d_16k();
    let mut variants: Vec<(String, ProtectionConfig)> = Vec::new();
    let paper = ProtectionConfig::paper_default(geom);
    variants.push(("DLP paper (sample 200, step-cmp, dec 4, VTA 4w)".into(), paper));
    for period in [50u32, 100, 400, 800] {
        variants.push((format!("sampling period {period}"), ProtectionConfig { sample_period: period, ..paper }));
    }
    variants.push(("exact division instead of step comparison".into(),
        ProtectionConfig { step_comparison: false, ..paper }));
    for dec in [1u8, 2, 8] {
        variants.push((format!("PD decrease step {dec}"), ProtectionConfig { decrease_step: dec, ..paper }));
    }
    for vta in [2usize, 8] {
        variants.push((format!("VTA associativity {vta}"), ProtectionConfig { vta_assoc: vta, ..paper }));
    }

    let mut t = Table::new(vec!["Variant", "CI geomean IPC"]);
    for (label, pc) in variants {
        let jobs: Vec<_> = ci
            .iter()
            .map(|s| {
                (
                    s.abbr.to_string(),
                    ExperimentConfig {
                        scale,
                        protection: Some(pc),
                        ..ExperimentConfig::baseline().with_policy(PolicyKind::Dlp)
                    },
                )
            })
            .collect();
        let norm = norm_vs_base(dlp_bench::harness::run_many(&jobs), &base);
        t.row(vec![label, geomean_cell(&norm, 3)]);
    }

    // Future-work extension (§8): DLP combined with CCWS-style warp
    // throttling.
    for limit in [24usize, 12] {
        let jobs: Vec<_> = ci
            .iter()
            .map(|s| {
                (
                    s.abbr.to_string(),
                    ExperimentConfig {
                        scale,
                        warp_limit: Some(limit),
                        ..ExperimentConfig::baseline().with_policy(PolicyKind::Dlp)
                    },
                )
            })
            .collect();
        let norm = norm_vs_base(dlp_bench::harness::run_many(&jobs), &base);
        t.row(vec![format!("DLP + warp throttle ({limit}/48 warps)"), geomean_cell(&norm, 3)]);
    }

    // Global-Protection reference (the per-instruction-vs-global ablation).
    let jobs: Vec<_> = ci
        .iter()
        .map(|s| {
            (
                s.abbr.to_string(),
                ExperimentConfig {
                    scale,
                    ..ExperimentConfig::baseline().with_policy(PolicyKind::GlobalProtection)
                },
            )
        })
        .collect();
    let norm = norm_vs_base(dlp_bench::harness::run_many(&jobs), &base);
    t.row(vec!["single global PD (Global-Protection)".to_string(), geomean_cell(&norm, 3)]);
    println!("{}", t.render());
}
