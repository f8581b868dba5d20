//! End-to-end smoke test of the real benchmark binary on cut-down job
//! lists (Tiny scale, few-hundred-op traces): every metric
//! `BENCHMARK.json` names is reported, the traced children write their
//! spans, checks pass, and a forced failure is counted without stopping
//! the set.

use dlp_benchmark::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dlp-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn names(doc: &Value, section: &str) -> Vec<String> {
    doc.get(section)
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

fn out_file(name: &str) -> PathBuf {
    dlp_benchmark::out_dir().join(format!("smoke-{}-{name}.json", std::process::id()))
}

fn run_set(name: &str, extra: &[&str]) -> Value {
    let out = out_file(name);
    let mut args = vec![
        "run",
        "--smoke",
        "--runs",
        "1",
        "--out",
        out.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let o = benchmark(&args);
    assert!(
        o.status.success(),
        "benchmark failed: {}",
        String::from_utf8_lossy(&o.stderr)
    );
    let doc = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    std::fs::remove_file(&out).ok();
    doc
}

fn workload<'a>(doc: &'a Value, name: &str) -> &'a Value {
    doc.get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        .unwrap()
}

fn failed_frac(w: &Value) -> f64 {
    w.get("end_to_end")
        .and_then(|e| e.get("failed_frac")?.get("median")?.as_f64())
        .unwrap()
}

#[test]
fn a_smoke_set_reports_every_metric_with_spans_and_no_failures() {
    let doc = run_set("set", &["--seed", "1"]);
    let spec = benchmark_json();
    let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
    // A set measures every workload BENCHMARK.json lists, and full-all.
    let listed = names(&spec, "workloads");
    assert_eq!(workloads.len(), listed.len() + 1);
    for name in &listed {
        workload(&doc, name);
    }
    for w in workloads {
        let name = w.get("name").and_then(Value::as_str).unwrap();
        assert_eq!(failed_frac(w), 0.0, "{name}: {:?}", w.get("problems"));
        assert_eq!(
            w.get("correct").and_then(Value::as_bool),
            Some(true),
            "{name}: {:?}",
            w.get("problems")
        );
        for m in names(&spec, "end_to_end") {
            assert!(
                w.get("end_to_end").and_then(|e| e.get(&m)).is_some(),
                "{name}: no {m}"
            );
        }
        let spans_file = w
            .get("spans_file")
            .and_then(Value::as_str)
            .expect("traced child wrote spans");
        let spans_file = dlp_benchmark::out_dir().join(spans_file);
        let spans = json::parse(&std::fs::read_to_string(spans_file).unwrap()).unwrap();
        assert!(
            !spans
                .get("spans")
                .and_then(Value::as_arr)
                .unwrap()
                .is_empty(),
            "{name}: no spans"
        );
    }
    // Each layer metric is reported by the workloads that exercise it.
    for m in names(&spec, "per_layer") {
        assert!(
            workloads
                .iter()
                .any(|w| w.get("per_layer").and_then(|l| l.get(&m)).is_some()),
            "no workload reported {m}"
        );
    }
}

#[test]
fn the_result_line_carries_exactly_the_declared_metrics() {
    let spec = benchmark_json();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let o = benchmark(&[
            "--workload",
            "trace-chase",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
        let stdout = String::from_utf8(o.stdout).unwrap();
        let line = json::parse(stdout.lines().last().unwrap()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("correct").and_then(Value::as_bool),
            Some(true),
            "{stdout}"
        );
        assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
        assert!(line.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
        let metrics = line.get("metrics").and_then(Value::as_obj).unwrap();
        let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, names(&spec, section), "--trace {trace}");
        for (k, v) in metrics {
            assert!(
                v.get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite),
                "{k}"
            );
        }
    }
}

#[test]
fn a_forced_failure_is_counted_and_the_set_keeps_running() {
    let doc = run_set("force-fail", &["--seed", "5", "--force-fail", "BFS"]);
    // `figures all` calls run_app directly for Fig. 3, so the forced
    // panic takes the whole child down: every job counts as failed.
    let all = workload(&doc, "full-all");
    assert_eq!(failed_frac(all), 1.0);
    assert_eq!(all.get("correct").and_then(Value::as_bool), Some(false));
    // The worker pool catches it per job: BFS's two jobs fail, the rest
    // are still simulated, checked and timed.
    let sampled = workload(&doc, "scale2-sampled");
    assert!((failed_frac(sampled) - 2.0 / 6.0).abs() < 1e-12);
    assert!(sampled
        .get("end_to_end")
        .and_then(|e| e.get("wall_s"))
        .is_some());
    // The trace workloads never call the harness, so BFS is not theirs.
    for name in ["trace-mixed", "trace-chase"] {
        assert_eq!(failed_frac(workload(&doc, name)), 0.0, "{name}");
    }
}

#[test]
fn a_dev_build_refuses_to_measure() {
    if cfg!(debug_assertions) {
        let o = benchmark(&[
            "--workload",
            "trace-chase",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ]);
        assert_eq!(o.status.code(), Some(2));
        assert!(o.stdout.is_empty());
    }
}
