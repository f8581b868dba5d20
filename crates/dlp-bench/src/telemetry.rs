//! Machine-readable performance telemetry for figure regeneration.
//!
//! Every simulation job the harness executes (or satisfies from the
//! run cache) appends one record to a process-wide collector; named
//! sweeps add aggregate records. [`write_json`] renders the collected
//! data as `BENCH_figures.json` so CI and the experiment docs can track
//! simulator throughput (wall time, simulated cycles per second, cache
//! hit counts) across revisions without scraping stdout.
//!
//! The JSON is hand-rolled: the workspace's vendored serde stack has no
//! `serde_json`, and the schema is flat enough that an escaper plus two
//! array writers keep the format honest.

use parking_lot::Mutex;
use std::time::Instant;

/// One simulation job, timed.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Benchmark abbreviation ("BFS").
    pub app: String,
    /// Scheme label ("DLP").
    pub policy: String,
    /// Cache geometry label ("16KB/4-way").
    pub geom: String,
    /// Workload scale ("Tiny" / "Full").
    pub scale: String,
    /// True when the run cache supplied the result without simulating.
    pub cached: bool,
    /// True when the result came from the persistent on-disk store
    /// (implies `cached`; a hit from the in-memory run cache has
    /// `cached` set and `store_hit` clear).
    pub store_hit: bool,
    /// Wall-clock milliseconds spent producing the result.
    pub wall_ms: f64,
    /// Simulated core cycles of the result (0 for failed jobs).
    pub sim_cycles: u64,
    /// Cycles the simulator actually stepped through one at a time;
    /// `sim_cycles - ticked_cycles` is what the cycle-leap event core
    /// skipped. Equals `sim_cycles` in reference (tick-every-cycle)
    /// mode, 0 for failed jobs.
    pub ticked_cycles: u64,
    /// Detailed measurement windows of a sampled run (schema v5);
    /// 0 for exact runs.
    pub windows: u64,
    /// Fraction of the run's cycles simulated in detail; 1.0 for exact
    /// runs (everything was detailed).
    pub sampled_fraction: f64,
    /// Widest relative 95% CI across the run's estimated metrics;
    /// 0.0 for exact runs (nothing was estimated).
    pub ci_rel_width: f64,
    /// Times a 7-bit instruction-ID hash wrapped (schema v6): distinct
    /// PCs aliasing to one PDPT/VTA slot. 0 for the built-in apps
    /// (their mem PCs fit 7 bits); nonzero under trace ingestion.
    pub insn_id_wraps: u64,
    /// PDPT replacement evictions under DLP (schema v6) — pressure on
    /// the 64-entry table, the scale axis's aliasing signal.
    pub pdpt_evict_pressure: u64,
    /// High-water mark of trace bytes resident in any single warp's
    /// stream (schema v6). O(1) per warp under streaming regardless of
    /// scale factor — the bound the scale-smoke CI job asserts.
    pub peak_warp_trace_bytes: u64,
}

impl JobRecord {
    /// Simulated cycles per wall-clock second (0 when no time elapsed,
    /// e.g. a cache hit).
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.sim_cycles as f64 / (self.wall_ms / 1000.0)
        }
    }

    /// Fraction of simulated cycles the cycle-leap event core skipped
    /// (0.0 when nothing was skipped or nothing was simulated).
    pub fn leap_efficiency(&self) -> f64 {
        if self.sim_cycles == 0 {
            0.0
        } else {
            1.0 - self.ticked_cycles as f64 / self.sim_cycles as f64
        }
    }
}

/// Aggregate record for one named sweep (a `run_policy_suite` call, a
/// whole `figures all` invocation, ...).
#[derive(Clone, Debug)]
pub struct SweepRecord {
    /// Sweep name ("policy_suite", "figures all", ...).
    pub name: String,
    /// Wall-clock milliseconds for the whole sweep.
    pub wall_ms: f64,
    /// Jobs the sweep asked for.
    pub jobs: usize,
    /// Jobs satisfied by the run cache.
    pub cached: usize,
    /// Subset of `cached` served from the persistent on-disk store.
    pub store_hits: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Total simulated cycles across the sweep's jobs.
    pub sim_cycles: u64,
    /// Total cycles actually stepped (see [`JobRecord::ticked_cycles`]).
    pub ticked_cycles: u64,
}

/// Snapshot of the persistent store's health counters, recorded once
/// per process before rendering (a plain-u64 mirror of
/// `dlp_store::StoreCounters`, kept local so telemetry stays
/// decoupled from the store crate's types).
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreRecord {
    /// Entries served after verification.
    pub hits: u64,
    /// Lookups with no usable entry.
    pub misses: u64,
    /// Entries written.
    pub puts: u64,
    /// Corrupt entries detected, moved to quarantine and recomputed.
    pub quarantined: u64,
    /// Unjournaled entries adopted at open.
    pub adopted: u64,
    /// Write-path faults injected by an active `DLP_STORE_FAULT`
    /// campaign.
    pub faults_injected: u64,
}

#[derive(Default)]
struct Collector {
    jobs: Vec<JobRecord>,
    sweeps: Vec<SweepRecord>,
    store: Option<StoreRecord>,
}

fn with_collector<R>(f: impl FnOnce(&mut Collector) -> R) -> R {
    static COLLECTOR: std::sync::OnceLock<Mutex<Collector>> = std::sync::OnceLock::new();
    let mut guard = COLLECTOR.get_or_init(|| Mutex::new(Collector::default())).lock();
    f(&mut guard)
}

/// Append one job record.
pub fn record_job(job: JobRecord) {
    with_collector(|c| c.jobs.push(job));
}

/// Append one sweep record.
pub fn record_sweep(sweep: SweepRecord) {
    with_collector(|c| c.sweeps.push(sweep));
}

/// Record (or update) the store-health snapshot rendered in the JSON.
pub fn record_store(store: StoreRecord) {
    with_collector(|c| c.store = Some(store));
}

/// Time `f` as a named sweep, aggregating the job records it produces.
pub fn sweep<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let before = with_collector(|c| c.jobs.len());
    let start = Instant::now();
    let out = f();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let (jobs, cached, store_hits, failed, sim_cycles, ticked_cycles) = with_collector(|c| {
        let new = &c.jobs[before..];
        (
            new.len(),
            new.iter().filter(|j| j.cached).count(),
            new.iter().filter(|j| j.store_hit).count(),
            new.iter().filter(|j| !j.cached && j.sim_cycles == 0).count(),
            new.iter().map(|j| j.sim_cycles).sum(),
            new.iter().map(|j| j.ticked_cycles).sum(),
        )
    });
    record_sweep(SweepRecord {
        name: name.to_string(),
        wall_ms,
        jobs,
        cached,
        store_hits,
        failed,
        sim_cycles,
        ticked_cycles,
    });
    out
}

/// Number of job records collected so far (tests, progress reports).
pub fn jobs_recorded() -> usize {
    with_collector(|c| c.jobs.len())
}

/// Copy of every job record collected so far.
pub fn jobs_snapshot() -> Vec<JobRecord> {
    with_collector(|c| c.jobs.clone())
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Fixed-point float rendering: JSON numbers must not come out as
/// `inf`/`NaN`, and 3 decimals is plenty for milliseconds.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.0".to_string()
    }
}

/// Render everything collected so far as a JSON document.
pub fn render_json() -> String {
    with_collector(|c| {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"dlp-bench/figures-telemetry/v7\",\n");
        let total_ms: f64 = c.sweeps.iter().map(|s| s.wall_ms).sum();
        let total_cycles: u64 = c.jobs.iter().map(|j| j.sim_cycles).sum();
        let total_ticked: u64 = c.jobs.iter().map(|j| j.ticked_cycles).sum();
        let efficiency = if total_cycles == 0 {
            0.0
        } else {
            1.0 - total_ticked as f64 / total_cycles as f64
        };
        out.push_str(&format!("  \"total_sweep_wall_ms\": {},\n", num(total_ms)));
        out.push_str(&format!("  \"total_sim_cycles\": {total_cycles},\n"));
        out.push_str(&format!("  \"total_ticked_cycles\": {total_ticked},\n"));
        out.push_str(&format!("  \"leap_efficiency\": {},\n", num(efficiency)));
        // Schema-stable store section: a run without a persistent
        // store renders the same shape with zeroed counters, so JSON
        // consumers never need a null branch.
        let store = c.store.unwrap_or_default();
        out.push_str(&format!(
            "  \"store\": {{\"hits\": {}, \"misses\": {}, \"puts\": {}, \"quarantined\": {}, \"adopted\": {}, \"faults_injected\": {}}},\n",
            store.hits,
            store.misses,
            store.puts,
            store.quarantined,
            store.adopted,
            store.faults_injected,
        ));
        out.push_str("  \"sweeps\": [\n");
        for (i, s) in c.sweeps.iter().enumerate() {
            let cps = if s.wall_ms > 0.0 { s.sim_cycles as f64 / (s.wall_ms / 1000.0) } else { 0.0 };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_ms\": {}, \"jobs\": {}, \"cached\": {}, \"store_hits\": {}, \"failed\": {}, \"sim_cycles\": {}, \"ticked_cycles\": {}, \"cycles_per_sec\": {}}}{}\n",
                esc(&s.name),
                num(s.wall_ms),
                s.jobs,
                s.cached,
                s.store_hits,
                s.failed,
                s.sim_cycles,
                s.ticked_cycles,
                num(cps),
                if i + 1 < c.sweeps.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n  \"jobs\": [\n");
        for (i, j) in c.jobs.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"app\": \"{}\", \"policy\": \"{}\", \"geom\": \"{}\", \"scale\": \"{}\", \"cached\": {}, \"store_hit\": {}, \"wall_ms\": {}, \"sim_cycles\": {}, \"ticked_cycles\": {}, \"cycles_per_sec\": {}, \"leap_efficiency\": {}, \"windows\": {}, \"sampled_fraction\": {}, \"ci_rel_width\": {}, \"insn_id_wraps\": {}, \"pdpt_evict_pressure\": {}, \"peak_warp_trace_bytes\": {}}}{}\n",
                esc(&j.app),
                esc(&j.policy),
                esc(&j.geom),
                esc(&j.scale),
                j.cached,
                j.store_hit,
                num(j.wall_ms),
                j.sim_cycles,
                j.ticked_cycles,
                num(j.cycles_per_sec()),
                num(j.leap_efficiency()),
                j.windows,
                num(j.sampled_fraction),
                num(j.ci_rel_width),
                j.insn_id_wraps,
                j.pdpt_evict_pressure,
                j.peak_warp_trace_bytes,
                if i + 1 < c.jobs.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    })
}

/// Write the collected telemetry to `path`.
pub fn write_json(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, render_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_record_computes_throughput() {
        let j = JobRecord {
            app: "KM".into(),
            policy: "DLP".into(),
            geom: "16KB/4-way".into(),
            scale: "Tiny".into(),
            cached: false,
            store_hit: false,
            wall_ms: 500.0,
            sim_cycles: 1_000_000,
            ticked_cycles: 250_000,
            windows: 0,
            sampled_fraction: 1.0,
            ci_rel_width: 0.0,
            insn_id_wraps: 0,
            pdpt_evict_pressure: 0,
            peak_warp_trace_bytes: 0,
        };
        assert!((j.cycles_per_sec() - 2_000_000.0).abs() < 1e-6);
        assert!((j.leap_efficiency() - 0.75).abs() < 1e-9, "3/4 of the cycles were leapt");
        let cached = JobRecord { cached: true, wall_ms: 0.0, ..j.clone() };
        assert_eq!(cached.cycles_per_sec(), 0.0);
        let failed = JobRecord { sim_cycles: 0, ticked_cycles: 0, ..cached };
        assert_eq!(failed.leap_efficiency(), 0.0, "no cycles -> no efficiency claim");
    }

    #[test]
    fn render_escapes_and_structures() {
        record_job(JobRecord {
            app: "A\"pp".into(),
            policy: "base\\line".into(),
            geom: "16KB/4-way".into(),
            scale: "Tiny".into(),
            cached: true,
            store_hit: true,
            wall_ms: 1.25,
            sim_cycles: 42,
            ticked_cycles: 7,
            windows: 5,
            sampled_fraction: 0.125,
            ci_rel_width: 0.0175,
            insn_id_wraps: 3,
            pdpt_evict_pressure: 17,
            peak_warp_trace_bytes: 4096,
        });
        let out = sweep("test_sweep", render_json);
        assert!(out.contains("\\\"pp"), "{out}");
        assert!(out.contains("base\\\\line"), "{out}");
        assert!(out.contains("\"schema\": \"dlp-bench/figures-telemetry/v7\""));
        assert!(out.contains("\"ticked_cycles\": 7"), "{out}");
        assert!(out.contains("\"store_hit\": true"), "{out}");
        assert!(out.contains("\"windows\": 5"), "{out}");
        assert!(out.contains("\"insn_id_wraps\": 3"), "{out}");
        assert!(out.contains("\"pdpt_evict_pressure\": 17"), "{out}");
        assert!(out.contains("\"peak_warp_trace_bytes\": 4096"), "{out}");
        assert!(out.contains("\"sampled_fraction\": 0.125"), "{out}");
        assert!(out.contains("\"ci_rel_width\": 0.018"), "3 decimals: {out}");
        assert!(!out.contains("\"store\": null"), "store section is always an object: {out}");
        assert!(out.contains("\"store\": {\"hits\": "), "{out}");
        assert!(out.contains("\"peak_warp_trace_bytes\": 4096}"), "last job key: {out}");
        let out2 = render_json();
        assert!(out2.contains("\"name\": \"test_sweep\""), "{out2}");
        assert!(out2.contains("\"store_hits\":"), "sweep rows carry the field: {out2}");
    }

    #[test]
    fn store_record_renders_when_present() {
        // The collector is process-wide; without a record the store
        // section is a zeroed object, after one it carries the counts.
        record_store(StoreRecord { hits: 3, puts: 2, quarantined: 1, ..Default::default() });
        let out = render_json();
        assert!(out.contains("\"store\": {\"hits\": 3"), "{out}");
        assert!(out.contains("\"quarantined\": 1"), "{out}");
    }
}
