//! `figures inspect <APP>` end to end: every counter of the stats
//! structs appears by field name in every scheme's block, read off the
//! same field walk the store codec uses.

use dlp_core::PolicyStats;
use gpu_mem::dram::DramStats;
use gpu_mem::{CacheStats, IcntStats};
use std::process::Command;

const FIGURES: &str = env!("CARGO_BIN_EXE_figures");

#[test]
fn inspect_prints_every_counter_by_name() {
    let telemetry = std::env::temp_dir().join(format!("dlp-inspect-{}.json", std::process::id()));
    let out = Command::new(FIGURES)
        .args(["inspect", "KM", "--tiny"])
        .env_remove("DLP_STORE_DIR")
        .env_remove("DLP_STORE_FAULT")
        .env_remove("DLP_FORCE_FAIL")
        .env("DLP_TELEMETRY_PATH", &telemetry)
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&telemetry);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    let names: Vec<&str> = CacheStats::default()
        .fields()
        .chain(PolicyStats::default().fields())
        .chain(IcntStats::default().fields())
        .chain(DramStats::default().fields())
        .map(|(name, _)| name)
        .collect();
    let runs: Vec<&str> = text.split("--- KM ").skip(1).collect();
    assert_eq!(runs.len(), 5, "four schemes and the 32 KB baseline:\n{text}");
    for run in runs {
        for name in &names {
            assert!(run.contains(&format!(" {name} ")), "{name} missing from:\n{run}");
        }
    }
}
