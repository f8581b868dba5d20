//! Simulation configuration — Table 1 of the paper, transcribed.

use crate::sampling::SamplingConfig;
use dlp_core::{CacheGeometry, PolicyKind, ProtectionConfig};
use gpu_mem::fault::FaultConfig;
use gpu_mem::icnt::IcntConfig;
use gpu_mem::l1d::L1dConfig;
use gpu_mem::partition::PartitionConfig;

/// Full platform configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Streaming multiprocessors (Table 1: 16).
    pub num_sms: usize,
    /// Threads per warp (Table 1: 32).
    pub warp_size: usize,
    /// Resident-warp limit per SM (Table 1: 48).
    pub max_warps_per_sm: usize,
    /// Optional thread-level-parallelism throttle: cap resident warps
    /// below the hardware limit, as CCWS-style schedulers do (§7.2 /
    /// §8 future work: combining throttling with line protection).
    pub warp_limit: Option<usize>,
    /// Warp schedulers per SM (Table 1: 2, GTO).
    pub schedulers_per_sm: usize,
    /// Which L1D management scheme to run.
    pub policy: PolicyKind,
    /// Non-default protection parameters for the DLP/Global-Protection
    /// schemes (ablation studies). `None` uses the paper's values.
    pub protection_override: Option<ProtectionConfig>,
    /// L1D shape and miss-handling resources.
    pub l1d: L1dConfig,
    /// Crossbar parameters.
    pub icnt: IcntConfig,
    /// Memory-partition parameters (Table 1: 12 partitions).
    pub partition: PartitionConfig,
    /// LD/ST unit transaction queue depth per SM.
    pub ldst_queue: usize,
    /// Force the policy's sampling period to close every this many
    /// issued warp instructions (§4.1.4's cap for kernels with few
    /// loads). 0 disables.
    pub sample_insn_cap: u64,
    /// Safety valve: abort the run after this many core cycles.
    pub max_cycles: u64,
    /// Forward-progress watchdog: abort with a hang report when no
    /// instruction retires and no memory reply arrives for this many
    /// consecutive cycles. 0 disables the watchdog.
    pub watchdog_cycles: u64,
    /// Run the invariant auditor every this many cycles (0 = off).
    /// Building `gpu-sim` with the `audit` cargo feature turns it on by
    /// default; any build can enable it per run by setting this field.
    pub audit_interval: u64,
    /// Cycle-leap event core: jump `now` straight to the next scheduled
    /// event instead of ticking through memory-stall dead time. Results
    /// are byte-identical either way (the reference-mode equivalence
    /// suite pins this); `false` selects the tick-every-cycle reference
    /// path, mainly for differential testing and debugging.
    pub leap: bool,
    /// Deterministic fault injection into the memory system — used by
    /// the integrity tests to prove the watchdog and auditor catch
    /// corruption. `None` (the default) simulates faithfully.
    pub fault: Option<FaultConfig>,
    /// SMARTS-style interval sampling: `Some` alternates detailed
    /// measurement windows with functional fast-forward and reports
    /// per-window counter samples for confidence intervals. `None`
    /// (the default) runs exact simulation, byte-identical to builds
    /// without the sampling code.
    pub sampling: Option<SamplingConfig>,
}

impl SimConfig {
    /// The paper's platform: a Tesla M2090 (Fermi) as configured in
    /// Table 1, with the chosen L1D policy.
    pub fn tesla_m2090(policy: PolicyKind) -> Self {
        SimConfig {
            num_sms: 16,
            warp_size: 32,
            max_warps_per_sm: 48,
            warp_limit: None,
            schedulers_per_sm: 2,
            policy,
            protection_override: None,
            l1d: L1dConfig::fermi_baseline(),
            icnt: IcntConfig::fermi(),
            partition: PartitionConfig::fermi(),
            ldst_queue: 64,
            sample_insn_cap: 4096,
            max_cycles: 30_000_000,
            // Generous: the deepest legitimate stall (a full DRAM bank
            // queue behind a row-miss storm) resolves within hundreds
            // of cycles, so 50k quiet cycles means a real deadlock.
            watchdog_cycles: 50_000,
            audit_interval: if cfg!(feature = "audit") { 4096 } else { 0 },
            leap: true,
            fault: None,
            sampling: None,
        }
    }

    /// Select the tick-every-cycle reference path instead of the
    /// cycle-leap event core (differential testing / debugging).
    pub fn with_reference_ticking(mut self) -> Self {
        self.leap = false;
        self
    }

    /// Same platform with a different L1D geometry (the 32 KB / 64 KB
    /// comparison configurations of §5.3 and Figures 4–5).
    pub fn with_l1_geometry(mut self, geom: CacheGeometry) -> Self {
        self.l1d.geom = geom;
        self
    }

    /// Scale the machine down (fewer SMs) for fast tests; memory-side
    /// shape is preserved.
    pub fn scaled_down(mut self, num_sms: usize) -> Self {
        assert!(num_sms >= 1 && num_sms <= self.icnt.num_sms);
        self.num_sms = num_sms;
        self
    }

    /// Cap resident warps per SM below the hardware limit (thread
    /// throttling).
    pub fn with_warp_limit(mut self, warps: usize) -> Self {
        assert!(warps >= 1 && warps <= self.max_warps_per_sm);
        self.warp_limit = Some(warps);
        self
    }

    /// Enable SMARTS-style interval sampling: detailed windows of
    /// `sc.detail` cycles (each preceded by `sc.warmup` discarded
    /// warm-up cycles) separated by functionally fast-forwarded gaps
    /// of `sc.skip` cycles.
    pub fn with_sampling(mut self, sc: SamplingConfig) -> Self {
        self.sampling = Some(sc);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let c = SimConfig::tesla_m2090(PolicyKind::Baseline);
        assert_eq!(c.num_sms, 16);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.max_warps_per_sm, 48);
        assert_eq!(c.schedulers_per_sm, 2);
        assert_eq!(c.l1d.geom.capacity_bytes(), 16 * 1024);
        assert_eq!(c.l1d.geom.num_sets, 32);
        assert_eq!(c.l1d.geom.assoc, 4);
        assert_eq!(c.icnt.num_partitions, 12);
        assert_eq!(c.partition.l2_geom.capacity_bytes() * 12, 768 * 1024);
        assert_eq!(c.partition.dram.num_banks, 6);
    }

    #[test]
    fn geometry_override() {
        let c = SimConfig::tesla_m2090(PolicyKind::Dlp)
            .with_l1_geometry(CacheGeometry::fermi_l1d_32k());
        assert_eq!(c.l1d.geom.capacity_bytes(), 32 * 1024);
        assert_eq!(c.l1d.geom.num_sets, 32, "sets unchanged, associativity doubled");
    }
}
