//! Crash/fault resilience of the persistent sweep pipeline, end to end
//! through the `figures` binary:
//!
//! * SIGKILL mid-sweep, then resume against the same store — stdout is
//!   byte-identical to an uninterrupted run and no completed job is
//!   recomputed (every pre-kill entry is served as a store hit).
//! * A warm store serves every job of a repeat sweep (zero misses,
//!   zero puts).
//! * Injected write-path corruption is quarantined and recomputed on
//!   the next sweep — never silently served — and the figures output
//!   still matches the clean reference.
//! * A leftover `DLP_SHARDS` (the retired sharded engine's switch)
//!   changes no output byte and is named once on stderr.
//!
//! Each scenario runs the real binary in a child process so the store
//! is exercised across process boundaries, exactly like an operator's
//! interrupted sweep.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const FIGURES: &str = env!("CARGO_BIN_EXE_figures");

fn test_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlp-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `figures fig10 --tiny` invocation with a controlled environment:
/// the DLP_* hooks are pinned (or removed) so nothing leaks in from
/// the surrounding test runner.
fn figures_cmd(store: Option<&Path>, telemetry: &Path, fault: Option<&str>) -> Command {
    let mut cmd = Command::new(FIGURES);
    cmd.args(["fig10", "--tiny"])
        .env_remove("DLP_STORE_DIR")
        .env_remove("DLP_STORE_FAULT")
        .env_remove("DLP_FORCE_FAIL")
        .env_remove("DLP_JOB_DEADLINE_MS")
        .env_remove("DLP_SHARDS")
        .env("DLP_WORKERS", "1")
        .env("DLP_TELEMETRY_PATH", telemetry)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let Some(s) = store {
        cmd.env("DLP_STORE_DIR", s);
    }
    if let Some(f) = fault {
        cmd.env("DLP_STORE_FAULT", f);
    }
    cmd
}

fn run_to_completion(store: Option<&Path>, telemetry: &Path, fault: Option<&str>) -> Output {
    let out = figures_cmd(store, telemetry, fault).output().unwrap();
    assert!(out.status.success(), "figures failed: {}", String::from_utf8_lossy(&out.stderr));
    out
}

/// The `"store": {...}` object of a telemetry file, as (key, value)
/// pairs — enough structure to assert on counters without a JSON
/// parser in the dev-dependency set.
fn store_counters(telemetry: &Path) -> Vec<(String, u64)> {
    let text = std::fs::read_to_string(telemetry).unwrap();
    let start = text.find("\"store\": {").expect("telemetry has a store section") + 10;
    let end = start + text[start..].find('}').unwrap();
    text[start..end]
        .split(',')
        .filter_map(|kv| {
            let (k, v) = kv.split_once(':')?;
            Some((k.trim().trim_matches('"').to_string(), v.trim().parse().ok()?))
        })
        .collect()
}

fn counter(counters: &[(String, u64)], key: &str) -> u64 {
    counters
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("telemetry store section has no {key:?}: {counters:?}"))
        .1
}

fn entry_files(store: &Path) -> Vec<(String, Vec<u8>)> {
    let entries = store.join("entries");
    let mut out = Vec::new();
    let Ok(rd) = std::fs::read_dir(&entries) else { return out };
    for e in rd.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        if name.ends_with(".bin") {
            out.push((name, std::fs::read(e.path()).unwrap()));
        }
    }
    out.sort();
    out
}

#[test]
fn sigkill_mid_sweep_then_resume_is_lossless() {
    let root = test_root("kill");
    let reference = run_to_completion(None, &root.join("t_ref.json"), None);

    // Start a sweep against a fresh store and SIGKILL it as soon as at
    // least one job has been committed. A Tiny fig10 sweep on one
    // worker takes long enough that the kill lands mid-run; if the
    // child wins the race anyway, retry with a fresh store.
    let mut store = root.join("store0");
    let mut killed = false;
    for attempt in 0..5 {
        store = root.join(format!("store{attempt}"));
        let mut child =
            figures_cmd(Some(&store), &root.join("t_victim.json"), None).spawn().unwrap();
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if !entry_files(&store).is_empty() {
                // kill() delivers SIGKILL on unix: no destructors, no
                // flush — the hard variant of a crash.
                child.kill().unwrap();
                child.wait().unwrap();
                killed = true;
                break;
            }
            if child.try_wait().unwrap().is_some() {
                break; // finished before we could kill it; retry
            }
            assert!(Instant::now() < deadline, "no store entry appeared within 120s");
            std::thread::sleep(Duration::from_millis(1));
        }
        if killed {
            break;
        }
    }
    assert!(killed, "child completed before the kill in every attempt");

    let before = entry_files(&store);
    assert!(!before.is_empty());

    // Resume: same store, same sweep.
    let resumed = run_to_completion(Some(&store), &root.join("t_resume.json"), None);
    assert_eq!(
        resumed.stdout,
        reference.stdout,
        "resumed sweep diverged from the uninterrupted reference"
    );

    // Zero recomputed completed jobs: every entry that survived the
    // kill was served as a store hit, and its bytes were not rewritten.
    let counters = store_counters(&root.join("t_resume.json"));
    assert!(
        counter(&counters, "hits") >= before.len() as u64,
        "expected >= {} store hits, got {counters:?}",
        before.len()
    );
    let after = entry_files(&store);
    for (name, bytes) in &before {
        let kept = after.iter().find(|(n, _)| n == name);
        assert_eq!(
            kept.map(|(_, b)| b),
            Some(bytes),
            "entry {name} was rewritten or lost by the resume"
        );
    }

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn warm_store_serves_every_job() {
    let root = test_root("warm");
    let store = root.join("store");

    let cold = run_to_completion(Some(&store), &root.join("t1.json"), None);
    let c1 = store_counters(&root.join("t1.json"));
    assert!(counter(&c1, "puts") > 0, "cold sweep persisted nothing: {c1:?}");

    let warm = run_to_completion(Some(&store), &root.join("t2.json"), None);
    assert_eq!(warm.stdout, cold.stdout, "warm store changed the figures output");
    let c2 = store_counters(&root.join("t2.json"));
    assert_eq!(counter(&c2, "misses"), 0, "warm sweep missed: {c2:?}");
    assert_eq!(counter(&c2, "puts"), 0, "warm sweep recomputed: {c2:?}");
    assert_eq!(counter(&c2, "hits"), counter(&c1, "puts"), "hit count mismatch: {c1:?} {c2:?}");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn injected_corruption_is_quarantined_and_recomputed() {
    let root = test_root("fault");
    let store = root.join("store");
    let reference = run_to_completion(None, &root.join("t_ref.json"), None);

    // Every write corrupted (rate 1_000_000 ppm): the sweep itself is
    // unaffected — faults poison only the persisted copies.
    let faulty =
        run_to_completion(Some(&store), &root.join("t_fault.json"), Some("checksum-flip:7:1000000"));
    assert_eq!(faulty.stdout, reference.stdout, "write faults must not affect results");
    let cf = store_counters(&root.join("t_fault.json"));
    assert!(counter(&cf, "faults_injected") > 0, "fault campaign never fired: {cf:?}");

    // Next sweep, faults off: every corrupted entry must be detected,
    // quarantined and recomputed — and the output still matches.
    let healed = run_to_completion(Some(&store), &root.join("t_heal.json"), None);
    assert_eq!(healed.stdout, reference.stdout, "corruption leaked into the figures output");
    let ch = store_counters(&root.join("t_heal.json"));
    assert!(counter(&ch, "quarantined") > 0, "nothing was quarantined: {ch:?}");
    assert!(counter(&ch, "puts") > 0, "corrupted entries were not recomputed: {ch:?}");
    let quarantine = store.join("quarantine");
    assert!(
        std::fs::read_dir(&quarantine).map(|d| d.count() > 0).unwrap_or(false),
        "quarantine directory is empty"
    );

    // The healed store now serves cleanly.
    let warm = run_to_completion(Some(&store), &root.join("t_warm.json"), None);
    assert_eq!(warm.stdout, reference.stdout);
    let cw = store_counters(&root.join("t_warm.json"));
    assert_eq!(counter(&cw, "misses"), 0, "healed store still missing: {cw:?}");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn leftover_shards_variable_is_noted_once_and_changes_nothing() {
    let root = test_root("shards");
    let plain = run_to_completion(None, &root.join("t_plain.json"), None);
    let mut cmd = figures_cmd(None, &root.join("t_shards.json"), None);
    // Two workers: the note is once per process, not once per thread.
    cmd.env("DLP_SHARDS", "2").env("DLP_WORKERS", "2");
    let noted = cmd.output().unwrap();
    let stderr = String::from_utf8_lossy(&noted.stderr);
    assert!(noted.status.success(), "figures failed: {stderr}");
    assert_eq!(noted.stdout, plain.stdout, "DLP_SHARDS must not change the figures output");
    let notes = |err: &str| err.lines().filter(|l| l.contains("DLP_SHARDS")).count();
    assert_eq!(notes(&String::from_utf8_lossy(&plain.stderr)), 0);
    assert_eq!(notes(&stderr), 1, "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&root);
}
