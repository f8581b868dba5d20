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
//! * The store is checked before the sweep: a malformed
//!   `DLP_STORE_FAULT` exits 2 before any job runs, and a store
//!   directory that cannot be opened is named before the first job,
//!   after which the sweep runs exactly as it would with no store.
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
fn malformed_store_fault_exits_2_before_any_job() {
    let root = test_root("badfault");
    let store = root.join("store");
    let telemetry = root.join("t_bad.json");
    let out = figures_cmd(Some(&store), &telemetry, Some("banana")).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("DLP_STORE_FAULT") && stderr.contains("banana"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "a job ran: {}", String::from_utf8_lossy(&out.stdout));
    assert!(!store.exists(), "the store was opened before the spec was checked");
    assert!(!telemetry.exists(), "a sweep ran and wrote telemetry");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unopenable_store_dir_is_noted_before_the_sweep_and_changes_nothing() {
    let root = test_root("unopenable");
    let reference = run_to_completion(None, &root.join("t_ref.json"), None);
    // A regular file where the store directory should be: `open`
    // cannot create `entries/` under it.
    let blocker = root.join("not-a-dir");
    std::fs::write(&blocker, b"").unwrap();
    let note = "store: disabled for this run:";

    let out = run_to_completion(Some(&blocker), &root.join("t_off.json"), None);
    assert_eq!(out.stdout, reference.stdout, "an unusable store changed the figures output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().filter(|l| l.starts_with(note)).count(), 1, "stderr: {stderr}");
    let counters = store_counters(&root.join("t_off.json"));
    assert!(counters.len() >= 6, "{counters:?}");
    assert!(counters.iter().all(|(_, v)| *v == 0), "store counters moved: {counters:?}");

    // With stderr merged into stdout (both line-buffered), the note
    // comes first: the store was checked before any figure rendered.
    let inner = figures_cmd(Some(&blocker), &root.join("t_merged.json"), None);
    let mut sh = Command::new("sh");
    sh.arg("-c").arg("exec \"$0\" fig10 --tiny 2>&1").arg(inner.get_program());
    for (k, v) in inner.get_envs() {
        match v {
            Some(v) => sh.env(k, v),
            None => sh.env_remove(k),
        };
    }
    let merged = sh.output().unwrap();
    assert!(merged.status.success());
    let text = String::from_utf8_lossy(&merged.stdout);
    assert!(text.starts_with(note), "the note did not precede the sweep:\n{text}");
    let _ = std::fs::remove_dir_all(&root);
}
