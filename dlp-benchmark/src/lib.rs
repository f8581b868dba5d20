//! # dlp-benchmark — end-to-end and per-layer measurement of the simulator
//!
//! The benchmark measures the DLP reproduction from outside: it calls
//! only the public functions of the program crates and changes none of
//! them. A runner process generates seeded inputs, then spawns one fresh
//! child process per measured batch (cold caches, its own peak memory),
//! checks every child's output and reports medians. A separate traced
//! child and a per-call replay child give the per-layer numbers.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! how to compare two sets of runs.

#![warn(missing_docs)]

pub mod catalog;
pub mod child;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::path::PathBuf;

/// FNV-1a, the fingerprint the repository's determinism tests use.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Where the benchmark writes: `dlp-benchmark/` inside the cargo target
/// directory that holds this executable (found by its `CACHEDIR.TAG`),
/// so nothing lands outside the build tree.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let target = exe
        .ancestors()
        .find(|d| d.join("CACHEDIR.TAG").is_file())
        .or_else(|| exe.parent().and_then(|p| p.parent()))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("dlp-benchmark")
}

/// This process's peak resident set (`VmHWM`) in MB; 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the machine reports.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory
/// only (never a parent directory's repository); `unknown` without one.
pub fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The compiler that built this binary.
pub const RUSTC_VERSION: &str = env!("BENCH_RUSTC_VERSION");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
