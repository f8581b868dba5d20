//! `dlp-benchmark` — measure the simulator end to end and per layer.
//!
//! ```text
//! dlp-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one workload: measure about S seconds of fresh child batches
//!     (trace 0) or run its traced and per-call children (trace 1);
//!     the last stdout line is the result object
//! dlp-benchmark run [--seed N] [--runs N] [--out PATH]
//!     a set of every workload: warm-up round, N measured rounds in alternating order,
//!     one traced child per workload; prints every metric, writes PATH
//! dlp-benchmark compare A.json B.json
//!     each (workload, metric) of B against A: within, OVER or unresolved
//!
//! --smoke         cut-down job lists (Tiny scale, few-hundred-op traces)
//! --force-fail A  test hook: every child fails app A's harness jobs
//! ```
//!
//! Workloads: full-all, scale2-sampled, trace-mixed, trace-chase.
//! Measurements need a release build; a dev build exits 2 unless
//! `--smoke` is given.

use dlp_benchmark::child::{self, Mode};
use dlp_benchmark::runner::{self, Opts, DEFAULT_SEED};
use dlp_benchmark::workloads::{Params, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Parsed `--flag value` / `--flag` arguments.
struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: [&str; 3] = ["--smoke", "--traced", "--help"];

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        values: BTreeMap::new(),
        flags: Vec::new(),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if SWITCHES.contains(&a.as_str()) {
            out.flags.push(a.clone());
        } else if a.starts_with("--") {
            let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            out.values.insert(a.clone(), v.clone());
        } else {
            out.positional.push(a.clone());
        }
    }
    Ok(out)
}

impl Args {
    fn num<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match self.values.get(key) {
            Some(v) => v.parse().map_err(|_| format!("{key}: invalid value {v:?}")),
            None => default.ok_or_else(|| format!("{key} is required")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self.values.keys().find(|k| !known.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown option {k}")),
            None => Ok(()),
        }
    }

    fn opts(&self) -> Result<Opts, String> {
        Ok(Opts {
            seed: self.num("--seed", Some(DEFAULT_SEED))?,
            smoke: self.has("--smoke"),
            force_fail: self.values.get("--force-fail").cloned(),
        })
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self
            .values
            .get("--workload")
            .ok_or("--workload is required")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

/// Timings from a dev build would mislead every comparison made with
/// them, so only the smoke test may run one.
fn refuse_dev_build(smoke: bool) -> bool {
    if cfg!(debug_assertions) && !smoke {
        eprintln!("dlp-benchmark: this is a dev build; measure with `cargo run --release` (or pass --smoke)");
        return true;
    }
    false
}

fn one_workload_main(a: &Args) -> Result<i32, String> {
    a.reject_unknown(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--force-fail",
    ])?;
    let opts = a.opts()?;
    if refuse_dev_build(opts.smoke) {
        return Ok(2);
    }
    let seconds: f64 = a.num("--seconds", None)?;
    let trace: u8 = a.num("--trace", Some(0))?;
    if trace > 1 {
        return Err("--trace takes 0 or 1".into());
    }
    Ok(runner::one_workload(
        a.workload()?,
        &opts,
        seconds,
        trace == 1,
    ))
}

fn run_main(a: &Args) -> Result<i32, String> {
    a.reject_unknown(&["--seed", "--runs", "--out", "--force-fail"])?;
    let opts = a.opts()?;
    if refuse_dev_build(opts.smoke) {
        return Ok(2);
    }
    let runs: usize = a.num("--runs", Some(5))?;
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    let out = a
        .values
        .get("--out")
        .map_or_else(|| runner::default_out(&opts), PathBuf::from);
    Ok(runner::run_set(&opts, runs, &out))
}

fn child_main(a: &Args) -> Result<i32, String> {
    a.reject_unknown(&["--workload", "--seed", "--input"])?;
    let mode = a
        .positional
        .first()
        .and_then(|m| Mode::parse(m))
        .ok_or("child mode: run, setup or isolate")?;
    let p = Params {
        seed: a.num("--seed", None)?,
        smoke: a.has("--smoke"),
        input: a.values.get("--input").map(PathBuf::from),
    };
    Ok(child::main(mode, a.workload()?, &p, a.has("--traced")))
}

fn usage() -> i32 {
    eprintln!(
        "usage: dlp-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]\n       \
         dlp-benchmark run [--seed N] [--runs N] [--out PATH] [--smoke]\n       \
         dlp-benchmark compare A.json B.json\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    2
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "compare" | "__child")) => (c, &argv[1..]),
        _ => ("", &argv[..]),
    };
    let code = match parse(rest) {
        Ok(a) if a.has("--help") || argv.is_empty() => usage(),
        Ok(a) => {
            let res = match cmd {
                "run" => run_main(&a),
                "__child" => child_main(&a),
                "compare" => match a.positional.as_slice() {
                    [base, new] => Ok(runner::compare(base.as_ref(), new.as_ref())),
                    _ => Err("compare takes two result files".into()),
                },
                _ => one_workload_main(&a),
            };
            res.unwrap_or_else(|e| {
                eprintln!("dlp-benchmark: {e}");
                usage()
            })
        }
        Err(e) => {
            eprintln!("dlp-benchmark: {e}");
            usage()
        }
    };
    std::process::exit(code);
}
