//! End-of-run statistics, shaped after the paper's reported metrics.

use dlp_core::PolicyStats;
use gpu_mem::dram::DramStats;
use gpu_mem::stats::{CacheStats, IcntStats};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Everything a simulation reports.
#[derive(Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Core cycles elapsed.
    pub cycles: u64,
    /// Thread instructions executed (warp instruction × active lanes).
    pub thread_insns: u64,
    /// Warp instructions issued.
    pub warp_insns: u64,
    /// Memory transactions generated by the LD/ST units (the paper's
    /// `N_memory_access`).
    pub mem_transactions: u64,
    /// Whether the kernel ran to completion. Always true in the stats
    /// [`crate::Gpu::run`] returns: a run that reaches `max_cycles`
    /// fails with `SimError::CycleCapExceeded` instead.
    pub completed: bool,
    /// L1D counters summed over all SMs.
    pub l1d: CacheStats,
    /// Policy-internal counters summed over all SMs.
    pub policy: PolicyStats,
    /// Interconnect traffic.
    pub icnt: IcntStats,
    /// L2 counters summed over all partitions.
    pub l2: CacheStats,
    /// DRAM counters summed over all partitions.
    pub dram: DramStats,
    /// L1D accesses whose PC does not fit the 7-bit instruction id
    /// (§4.1: `hash_pc` XOR-folds it) — the saturation signal ROADMAP
    /// item "Production-scale workload front-end" asked about.
    /// Observability only: excluded from the pinned `Debug` fidelity
    /// digest.
    pub insn_id_wraps: u64,
    /// Distinct-PC collisions on an already-claimed PDPT slot (the
    /// direct-indexed table never evicts, so colliding PCs share one
    /// entry; this counts how often ownership flips). Excluded from the
    /// fidelity digest.
    pub pdpt_evict_pressure: u64,
    /// Largest per-warp resident trace footprint (bytes) any SM saw —
    /// the scale axis's O(1)-memory witness. Excluded from the fidelity
    /// digest.
    pub peak_warp_trace_bytes: u64,
}

/// `Debug` is pinned by the golden fidelity digest
/// (`tests/determinism.rs`): it must render exactly the fields the seed
/// build rendered, in the same order, and `dram` under the seed's type
/// name `DramStats2`. The post-seed observability fields
/// (`insn_id_wraps`, `pdpt_evict_pressure`, `peak_warp_trace_bytes`)
/// are deliberately left out — they describe *how* the simulation ran,
/// not what it computed, and must not retire every stored result or
/// golden digest when they move.
impl fmt::Debug for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct SeedDram<'a>(&'a DramStats);
        impl fmt::Debug for SeedDram<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut d = f.debug_struct("DramStats2");
                for (name, v) in self.0.fields() {
                    d.field(name, &v);
                }
                d.finish()
            }
        }
        f.debug_struct("RunStats")
            .field("cycles", &self.cycles)
            .field("thread_insns", &self.thread_insns)
            .field("warp_insns", &self.warp_insns)
            .field("mem_transactions", &self.mem_transactions)
            .field("completed", &self.completed)
            .field("l1d", &self.l1d)
            .field("policy", &self.policy)
            .field("icnt", &self.icnt)
            .field("l2", &self.l2)
            .field("dram", &SeedDram(&self.dram))
            .finish()
    }
}

/// One field of a [`RunStats`] walk.
pub enum Field<'a> {
    /// A counter.
    Count(&'a mut u64),
    /// A flag (`completed`).
    Flag(&'a mut bool),
}

impl Field<'_> {
    /// The field as a `u64`; a flag reads 0 or 1.
    pub fn get(&self) -> u64 {
        match self {
            Field::Count(v) => **v,
            Field::Flag(b) => u64::from(**b),
        }
    }
}

impl RunStats {
    /// Every field as `(block, name, field)`, in the result store's
    /// codec order: the run-level scalars (block `""`), then `l1d`,
    /// `l2`, `policy`, `icnt` and `dram` in their declaration order, then
    /// the observability counters. A field added to `RunStats` does not
    /// compile until it is placed here.
    pub fn fields_mut(&mut self) -> impl Iterator<Item = (&'static str, &'static str, Field<'_>)> {
        let RunStats {
            cycles,
            thread_insns,
            warp_insns,
            mem_transactions,
            completed,
            l1d,
            policy,
            icnt,
            l2,
            dram,
            insn_id_wraps,
            pdpt_evict_pressure,
            peak_warp_trace_bytes,
        } = self;
        [
            ("", "cycles", Field::Count(cycles)),
            ("", "thread_insns", Field::Count(thread_insns)),
            ("", "warp_insns", Field::Count(warp_insns)),
            ("", "mem_transactions", Field::Count(mem_transactions)),
            ("", "completed", Field::Flag(completed)),
        ]
        .into_iter()
        .chain(l1d.fields_mut().map(|(n, v)| ("l1d", n, Field::Count(v))))
        .chain(l2.fields_mut().map(|(n, v)| ("l2", n, Field::Count(v))))
        .chain(policy.fields_mut().map(|(n, v)| ("policy", n, Field::Count(v))))
        .chain(icnt.fields_mut().map(|(n, v)| ("icnt", n, Field::Count(v))))
        .chain(dram.fields_mut().map(|(n, v)| ("dram", n, Field::Count(v))))
        .chain([
            ("", "insn_id_wraps", Field::Count(insn_id_wraps)),
            ("", "pdpt_evict_pressure", Field::Count(pdpt_evict_pressure)),
            ("", "peak_warp_trace_bytes", Field::Count(peak_warp_trace_bytes)),
        ])
    }

    /// Thread instructions per core cycle — the paper's IPC metric.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.thread_insns as f64 / self.cycles as f64
        }
    }

    /// The §3.2 memory-access ratio: transactions / thread instructions.
    pub fn memory_access_ratio(&self) -> f64 {
        if self.thread_insns == 0 {
            0.0
        } else {
            self.mem_transactions as f64 / self.thread_insns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_division() {
        let s = RunStats { cycles: 100, thread_insns: 250, ..Default::default() };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert_eq!(RunStats::default().ipc(), 0.0);
    }

    #[test]
    fn ratio_definition() {
        let s = RunStats { thread_insns: 1000, mem_transactions: 15, ..Default::default() };
        assert!((s.memory_access_ratio() - 0.015).abs() < 1e-12);
    }

    #[test]
    fn debug_excludes_observability_fields() {
        // The golden fidelity digest hashes `{:?}` of RunStats; the
        // observability counters must never leak into it.
        let s = RunStats {
            insn_id_wraps: 7,
            pdpt_evict_pressure: 9,
            peak_warp_trace_bytes: 4096,
            ..Default::default()
        };
        let d = format!("{s:?}");
        assert!(!d.contains("insn_id_wraps"));
        assert!(!d.contains("pdpt_evict_pressure"));
        assert!(!d.contains("peak_warp_trace_bytes"));
        assert_eq!(d, format!("{:?}", RunStats::default()));
    }
}
