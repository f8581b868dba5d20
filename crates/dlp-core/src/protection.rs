//! The protecting schemes: [`Dlp`] (per-instruction PDs, §4) and
//! [`GlobalProtection`] (single PD, §5.3) built on shared machinery.
//!
//! Both schemes maintain, per TDA entry, a Protected Life (PL) counter
//! and the instruction ID that brought in / last hit the line; both feed
//! a victim tag array and recompute protection distances once per
//! sampling period following Figure 9. They differ only in the *PD
//! model*: DLP keeps one PD per memory instruction in the PDPT, while
//! Global-Protection keeps a single PD, so the model is a small trait
//! the shared policy is generic over.

use crate::geometry::CacheGeometry;
use crate::insn::InsnId;
use crate::pd::{pd_adjustment, PdComputation};
use crate::pdpt::{Pdpt, PD_MAX};
use crate::policy::{AccessCtx, MissDecision, PolicyKind, ReplacementPolicy, WayView};
use crate::recency::RecencyArray;
use crate::stats::PolicyStats;
use crate::vta::VictimTagArray;

/// Tunable parameters of the protection machinery. The paper's values
/// are produced by [`ProtectionConfig::paper_default`]; the ablation
/// benches sweep the rest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProtectionConfig {
    /// Geometry of the protected cache (TDA).
    pub geom: CacheGeometry,
    /// VTA associativity — also the `Nasc` constant of the PD update
    /// (footnote 2: set to the cache's associativity, i.e. 4).
    pub vta_assoc: usize,
    /// L1D accesses per sampling period (§4.1.4: 200).
    pub sample_period: u32,
    /// Upper bound on any PD (§4.3: the PL field is 4 bits wide → 15).
    pub max_pd: u8,
    /// Use the paper's shift-based step comparison for the PD increment.
    /// When false, the exact `Nasc × ⌊HitVTA/HitTDA⌋` division (capped at
    /// `4×Nasc`) is used instead — an ablation knob, not a paper mode.
    pub step_comparison: bool,
    /// How much every PD shrinks when a sample takes Figure 9's decrease
    /// path. The paper uses `Nasc`; the ablation benches sweep this.
    pub decrease_step: u8,
}

impl ProtectionConfig {
    /// The configuration evaluated in the paper for a given TDA geometry.
    pub fn paper_default(geom: CacheGeometry) -> Self {
        ProtectionConfig {
            geom,
            vta_assoc: geom.assoc,
            sample_period: 200,
            max_pd: PD_MAX,
            step_comparison: true,
            decrease_step: geom.assoc as u8,
        }
    }

    fn pd_increment(&self, hit_vta: u16, hit_tda: u16) -> u8 {
        let nasc = self.vta_assoc as u8;
        if self.step_comparison {
            pd_adjustment(nasc, hit_vta, hit_tda)
        } else if hit_vta == 0 {
            0
        } else {
            match hit_vta.checked_div(hit_tda) {
                None => 4 * nasc,
                Some(q) => ((q as u32 * nasc as u32).min(4 * nasc as u32)) as u8,
            }
        }
    }
}

/// How protection distances are stored and updated — the only part that
/// differs between DLP and Global-Protection.
trait PdModel: Send {
    const KIND: PolicyKind;

    fn pd_for(&self, insn: InsnId) -> u8;
    fn credit_tda(&mut self, insn: InsnId);
    fn credit_vta(&mut self, insn: InsnId);
    fn global_tda(&self) -> u64;
    fn global_vta(&self) -> u64;
    fn apply_increase(&mut self, cfg: &ProtectionConfig);
    fn apply_decrease(&mut self, cfg: &ProtectionConfig);
    fn reset_hits(&mut self);
    fn mean_pd(&self) -> f64;
    /// Largest PD currently stored anywhere in the model (auditing).
    fn max_stored_pd(&self) -> u8;
}

/// DLP's per-instruction model: the 128-entry PDPT.
struct PerInsnModel {
    pdpt: Pdpt,
}

impl PdModel for PerInsnModel {
    const KIND: PolicyKind = PolicyKind::Dlp;

    fn pd_for(&self, insn: InsnId) -> u8 {
        self.pdpt.pd(insn)
    }

    fn credit_tda(&mut self, insn: InsnId) {
        self.pdpt.credit_tda_hit(insn);
    }

    fn credit_vta(&mut self, insn: InsnId) {
        self.pdpt.credit_vta_hit(insn);
    }

    fn global_tda(&self) -> u64 {
        self.pdpt.global_tda_hits()
    }

    fn global_vta(&self) -> u64 {
        self.pdpt.global_vta_hits()
    }

    fn apply_increase(&mut self, cfg: &ProtectionConfig) {
        let max_pd = cfg.max_pd;
        self.pdpt.update_pds(|e| {
            let inc = cfg.pd_increment(e.vta_hits, e.tda_hits);
            e.pd.saturating_add(inc).min(max_pd)
        });
    }

    fn apply_decrease(&mut self, cfg: &ProtectionConfig) {
        let step = cfg.decrease_step;
        self.pdpt.update_pds(|e| e.pd.saturating_sub(step));
    }

    fn reset_hits(&mut self) {
        self.pdpt.reset_hits();
    }

    fn mean_pd(&self) -> f64 {
        self.pdpt.mean_active_pd()
    }

    fn max_stored_pd(&self) -> u8 {
        (0..self.pdpt.len()).map(|i| self.pdpt.pd(i as InsnId)).max().unwrap_or(0)
    }
}

/// Global-Protection's model: one PD and one pair of hit counters.
struct GlobalModel {
    pd: u8,
    tda_hits: u64,
    vta_hits: u64,
}

impl PdModel for GlobalModel {
    const KIND: PolicyKind = PolicyKind::GlobalProtection;

    fn pd_for(&self, _insn: InsnId) -> u8 {
        self.pd
    }

    fn credit_tda(&mut self, _insn: InsnId) {
        self.tda_hits += 1;
    }

    fn credit_vta(&mut self, _insn: InsnId) {
        self.vta_hits += 1;
    }

    fn global_tda(&self) -> u64 {
        self.tda_hits
    }

    fn global_vta(&self) -> u64 {
        self.vta_hits
    }

    fn apply_increase(&mut self, cfg: &ProtectionConfig) {
        let hv = self.vta_hits.min(u16::MAX as u64) as u16;
        let ht = self.tda_hits.min(u16::MAX as u64) as u16;
        let inc = cfg.pd_increment(hv, ht);
        self.pd = self.pd.saturating_add(inc).min(cfg.max_pd);
    }

    fn apply_decrease(&mut self, cfg: &ProtectionConfig) {
        self.pd = self.pd.saturating_sub(cfg.decrease_step);
    }

    fn reset_hits(&mut self) {
        self.tda_hits = 0;
        self.vta_hits = 0;
    }

    fn mean_pd(&self) -> f64 {
        self.pd as f64
    }

    fn max_stored_pd(&self) -> u8 {
        self.pd
    }
}

/// Shared protection policy, generic over the PD model.
struct ProtectionPolicy<M: PdModel> {
    cfg: ProtectionConfig,
    model: M,
    recency: RecencyArray,
    /// Protected Life per TDA entry (4-bit counter in hardware).
    pl: Vec<u8>,
    /// Instruction ID per TDA entry (7-bit field in hardware).
    line_insn: Vec<InsnId>,
    vta: VictimTagArray,
    /// The VTA entry consumed by the most recent [`ReplacementPolicy::on_miss`]
    /// probe, kept as `(set, tag, owner)` until the miss resolves. If the
    /// miss is bypassed the line never enters the TDA, so the entry is
    /// restored in [`ReplacementPolicy::on_bypass`]; any allocation or a
    /// newer miss clears it. The controller serializes misses through its
    /// pipeline register, so one slot suffices.
    pending_vta: Option<(usize, u64, InsnId)>,
    accesses_this_sample: u32,
    stats: PolicyStats,
}

impl<M: PdModel> ProtectionPolicy<M> {
    fn with_model(cfg: ProtectionConfig, model: M) -> Self {
        let lines = cfg.geom.num_lines();
        ProtectionPolicy {
            recency: RecencyArray::new(cfg.geom.num_sets, cfg.geom.assoc),
            pl: vec![0; lines],
            line_insn: vec![0; lines],
            vta: VictimTagArray::new(cfg.geom.num_sets, cfg.vta_assoc),
            pending_vta: None,
            accesses_this_sample: 0,
            stats: PolicyStats::default(),
            cfg,
            model,
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.cfg.geom.assoc + way
    }

    fn run_sample(&mut self) {
        match PdComputation::classify(self.model.global_vta(), self.model.global_tda()) {
            PdComputation::Increase => {
                self.model.apply_increase(&self.cfg);
                self.stats.pd_increases += 1;
            }
            PdComputation::Decrease => {
                self.model.apply_decrease(&self.cfg);
                self.stats.pd_decreases += 1;
            }
            PdComputation::Hold => {}
        }
        self.stats.samples += 1;
        self.stats.mean_pd_milli_sum += (self.model.mean_pd() * 1000.0) as u64;
        self.model.reset_hits();
        self.accesses_this_sample = 0;
    }

    fn refresh_line(&mut self, set: usize, way: usize, insn: InsnId) {
        let i = self.idx(set, way);
        self.line_insn[i] = insn;
        self.pl[i] = self.model.pd_for(insn).min(self.cfg.max_pd);
        self.recency.touch(set, way);
    }
}

impl<M: PdModel> ReplacementPolicy for ProtectionPolicy<M> {
    fn on_query(&mut self, set: usize) {
        self.stats.queries += 1;
        // §4.1.1: every query of a set ages all its protected lives, so
        // protected lines are eventually released even under pure misses.
        let base = set * self.cfg.geom.assoc;
        for way in 0..self.cfg.geom.assoc {
            let pl = &mut self.pl[base + way];
            *pl = pl.saturating_sub(1);
        }
        self.accesses_this_sample += 1;
        if self.accesses_this_sample >= self.cfg.sample_period {
            self.run_sample();
        }
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        // Credit the hit to the instruction recorded in the entry — the
        // one that brought the line in or last hit it (§4.1.1) — then
        // take ownership and rearm the protected life with our PD.
        let owner = self.line_insn[self.idx(set, way)];
        self.model.credit_tda(owner);
        self.refresh_line(set, way, ctx.insn_id);
    }

    fn on_miss(&mut self, set: usize, tag: u64, _ctx: &AccessCtx) {
        self.pending_vta = match self.vta.probe_remove(set, tag) {
            Some(owner) => {
                self.model.credit_vta(owner);
                self.stats.vta_hits += 1;
                Some((set, tag, owner))
            }
            None => None,
        };
    }

    fn decide_replacement(&mut self, set: usize, ways: &[WayView], _ctx: &AccessCtx) -> MissDecision {
        if let Some(way) = ways.iter().position(|w| !w.valid && !w.reserved) {
            return MissDecision::Allocate { way };
        }
        let eligible = |way: usize| {
            ways[way].valid && !ways[way].reserved && self.pl[set * self.cfg.geom.assoc + way] == 0
        };
        if let Some(way) = self.recency.lru_among(set, eligible) {
            return MissDecision::Allocate { way };
        }
        // No way is replaceable: every line is either protected (PL > 0)
        // or reserved by an in-flight fill. §4.1.1 bypasses the miss in
        // this situation rather than contending for the set.
        self.repeat_decision(MissDecision::Bypass, 1);
        MissDecision::Bypass
    }

    fn repeat_decision(&mut self, decision: MissDecision, times: u64) {
        if decision == MissDecision::Bypass {
            self.stats.protected_bypasses += times;
        }
    }

    fn on_evict(&mut self, set: usize, way: usize, tag: u64) {
        let owner = self.line_insn[self.idx(set, way)];
        self.vta.insert(set, tag, owner);
        self.stats.vta_insertions += 1;
    }

    fn on_bypass(&mut self, set: usize, tag: u64, _ctx: &AccessCtx) {
        // The on_miss probe consumed this line's victim tag, but the line
        // is being bypassed and will never enter the TDA. Restore the
        // entry (with its original owner) so a later re-reference still
        // scores a VTA hit instead of the reuse evidence vanishing.
        match self.pending_vta {
            Some((s, t, owner)) if s == set && t == tag => {
                self.pending_vta = None;
                self.vta.insert(set, tag, owner);
                self.stats.vta_reinserted += 1;
            }
            _ => {}
        }
    }

    fn on_fill(&mut self, set: usize, way: usize, _tag: u64, ctx: &AccessCtx) {
        self.refresh_line(set, way, ctx.insn_id);
    }

    fn force_sample(&mut self) {
        if self.accesses_this_sample > 0 {
            self.run_sample();
        }
    }

    fn kind(&self) -> PolicyKind {
        M::KIND
    }

    fn stats(&self) -> PolicyStats {
        self.stats.clone()
    }

    fn audit(&self) -> Result<(), String> {
        // §4.3 bounds: PLs are 4-bit counters seeded from a PD that is
        // itself capped, so nothing may ever exceed max_pd.
        if let Some((i, &pl)) = self.pl.iter().enumerate().find(|&(_, &pl)| pl > self.cfg.max_pd)
        {
            return Err(format!(
                "protected life {pl} at TDA entry {i} exceeds the PD cap {}",
                self.cfg.max_pd
            ));
        }
        if self.model.max_stored_pd() > self.cfg.max_pd {
            return Err(format!(
                "stored PD {} exceeds the cap {}",
                self.model.max_stored_pd(),
                self.cfg.max_pd
            ));
        }
        let vta_cap = self.cfg.geom.num_sets * self.cfg.vta_assoc;
        if self.vta.occupancy() > vta_cap {
            return Err(format!(
                "VTA holds {} tags but capacity is {vta_cap}",
                self.vta.occupancy()
            ));
        }
        Ok(())
    }
}

/// The paper's Dynamic Line Protection scheme (§4).
pub struct Dlp {
    inner: ProtectionPolicy<PerInsnModel>,
}

impl Dlp {
    /// Build DLP for the given protection configuration.
    pub fn new(cfg: ProtectionConfig) -> Self {
        Dlp { inner: ProtectionPolicy::with_model(cfg, PerInsnModel { pdpt: Pdpt::new() }) }
    }

    /// Current PD of one instruction (tests / diagnostics).
    pub fn pd_of(&self, insn: InsnId) -> u8 {
        self.inner.model.pdpt.pd(insn)
    }

    /// Current protected life of a TDA entry (tests / diagnostics).
    pub fn protected_life(&self, set: usize, way: usize) -> u8 {
        self.inner.pl[self.inner.idx(set, way)]
    }

    /// Read-only access to the PDPT (reports).
    pub fn pdpt(&self) -> &Pdpt {
        &self.inner.model.pdpt
    }
}

impl ReplacementPolicy for Dlp {
    fn on_query(&mut self, set: usize) {
        self.inner.on_query(set);
    }
    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        self.inner.on_hit(set, way, ctx);
    }
    fn on_miss(&mut self, set: usize, tag: u64, ctx: &AccessCtx) {
        self.inner.on_miss(set, tag, ctx);
    }
    fn decide_replacement(&mut self, set: usize, ways: &[WayView], ctx: &AccessCtx) -> MissDecision {
        self.inner.decide_replacement(set, ways, ctx)
    }
    fn repeat_decision(&mut self, decision: MissDecision, times: u64) {
        self.inner.repeat_decision(decision, times);
    }
    fn on_evict(&mut self, set: usize, way: usize, tag: u64) {
        self.inner.on_evict(set, way, tag);
    }
    fn on_bypass(&mut self, set: usize, tag: u64, ctx: &AccessCtx) {
        self.inner.on_bypass(set, tag, ctx);
    }
    fn on_fill(&mut self, set: usize, way: usize, tag: u64, ctx: &AccessCtx) {
        self.inner.on_fill(set, way, tag, ctx);
    }
    fn force_sample(&mut self) {
        self.inner.force_sample();
    }
    fn pd_snapshot(&self) -> Option<Vec<(InsnId, u8)>> {
        let pdpt = &self.inner.model.pdpt;
        let rows: Vec<(InsnId, u8)> = (0..pdpt.len() as u16)
            .map(|i| i as InsnId)
            .filter(|&i| {
                let e = pdpt.entry(i);
                e.pd > 0 || e.tda_hits > 0 || e.vta_hits > 0
            })
            .map(|i| (i, pdpt.pd(i)))
            .collect();
        Some(rows)
    }
    fn kind(&self) -> PolicyKind {
        self.inner.kind()
    }
    fn stats(&self) -> PolicyStats {
        self.inner.stats()
    }
    fn audit(&self) -> Result<(), String> {
        self.inner.audit()
    }
}

/// The single-PD Global-Protection comparison scheme (§5.3), emulating
/// PDP on the GPU L1D.
pub struct GlobalProtection {
    inner: ProtectionPolicy<GlobalModel>,
}

impl GlobalProtection {
    /// Build Global-Protection for the given configuration.
    pub fn new(cfg: ProtectionConfig) -> Self {
        GlobalProtection {
            inner: ProtectionPolicy::with_model(cfg, GlobalModel { pd: 0, tda_hits: 0, vta_hits: 0 }),
        }
    }

    /// The single global PD (tests / diagnostics).
    pub fn global_pd(&self) -> u8 {
        self.inner.model.pd
    }
}

impl ReplacementPolicy for GlobalProtection {
    fn on_query(&mut self, set: usize) {
        self.inner.on_query(set);
    }
    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
        self.inner.on_hit(set, way, ctx);
    }
    fn on_miss(&mut self, set: usize, tag: u64, ctx: &AccessCtx) {
        self.inner.on_miss(set, tag, ctx);
    }
    fn decide_replacement(&mut self, set: usize, ways: &[WayView], ctx: &AccessCtx) -> MissDecision {
        self.inner.decide_replacement(set, ways, ctx)
    }
    fn repeat_decision(&mut self, decision: MissDecision, times: u64) {
        self.inner.repeat_decision(decision, times);
    }
    fn on_evict(&mut self, set: usize, way: usize, tag: u64) {
        self.inner.on_evict(set, way, tag);
    }
    fn on_bypass(&mut self, set: usize, tag: u64, ctx: &AccessCtx) {
        self.inner.on_bypass(set, tag, ctx);
    }
    fn on_fill(&mut self, set: usize, way: usize, tag: u64, ctx: &AccessCtx) {
        self.inner.on_fill(set, way, tag, ctx);
    }
    fn force_sample(&mut self) {
        self.inner.force_sample();
    }
    fn pd_snapshot(&self) -> Option<Vec<(InsnId, u8)>> {
        // One global PD — report it as a single row under a synthetic
        // instruction id so figures/reports render the same shape as
        // DLP's per-instruction table.
        Some(vec![(0, self.inner.model.pd)])
    }
    fn kind(&self) -> PolicyKind {
        self.inner.kind()
    }
    fn stats(&self) -> PolicyStats {
        self.inner.stats()
    }
    fn audit(&self) -> Result<(), String> {
        self.inner.audit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ProtectionConfig {
        ProtectionConfig::paper_default(CacheGeometry::fermi_l1d_16k())
    }

    fn ctx(insn: InsnId) -> AccessCtx {
        AccessCtx { insn_id: insn, is_write: false }
    }

    /// Fill all 4 ways of `set` through the normal miss path.
    fn fill_set(p: &mut Dlp, set: usize, insn: InsnId) {
        for t in 0..4u64 {
            p.on_query(set);
            p.on_miss(set, 100 + t, &ctx(insn));
            let ways: Vec<WayView> =
                (0..t).map(WayView::valid).chain(std::iter::repeat_n(WayView::invalid(), 4 - t as usize)).collect();
            match p.decide_replacement(set, &ways, &ctx(insn)) {
                MissDecision::Allocate { way } => p.on_fill(set, way, 100 + t, &ctx(insn)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn pd_starts_at_zero_and_lines_start_unprotected() {
        let mut p = Dlp::new(cfg());
        fill_set(&mut p, 0, 1);
        // PD is 0 so protected life is 0: a further miss must evict LRU
        // (way 0), not bypass.
        p.on_query(0);
        let ways: Vec<WayView> = (100..104).map(WayView::valid).collect();
        assert_eq!(p.decide_replacement(0, &ways, &ctx(1)), MissDecision::Allocate { way: 0 });
    }

    #[test]
    fn protected_set_bypasses() {
        let mut p = Dlp::new(cfg());
        // Manually arm protection by driving a PD increase: lots of VTA
        // hits, no TDA hits.
        fill_set(&mut p, 0, 1);
        // Evict all four lines so their tags land in the VTA.
        for (way, tag) in (0..4).zip(100..104u64) {
            p.on_evict(0, way, tag);
        }
        // Re-reference the evicted tags -> VTA hits for insn 1.
        for t in 100..104u64 {
            p.on_query(0);
            p.on_miss(0, t, &ctx(1));
        }
        // Close the sample: VTA hits (4) > TDA hits (0) -> PD increase.
        p.force_sample();
        assert!(p.pd_of(1) > 0, "PD must have grown");

        // Refill under the now-positive PD, then ask for a victim: every
        // line is protected, so the miss bypasses.
        fill_set(&mut p, 1, 1);
        p.on_query(1);
        let ways: Vec<WayView> = (100..104).map(WayView::valid).collect();
        assert_eq!(p.decide_replacement(1, &ways, &ctx(1)), MissDecision::Bypass);
        assert!(p.stats().protected_bypasses >= 1);
    }

    #[test]
    fn protection_drains_with_queries() {
        let mut p = Dlp::new(cfg());
        // Arm PD for insn 1 as above.
        fill_set(&mut p, 0, 1);
        for (way, tag) in (0..4).zip(100..104u64) {
            p.on_evict(0, way, tag);
        }
        for t in 100..104u64 {
            p.on_query(0);
            p.on_miss(0, t, &ctx(1));
        }
        p.force_sample();
        let pd = p.pd_of(1);
        assert!(pd > 0);

        fill_set(&mut p, 2, 1);
        // Query the set `pd` times without touching the lines: the
        // protected lives drain to zero and eviction becomes possible.
        for _ in 0..pd {
            p.on_query(2);
        }
        let ways: Vec<WayView> = (100..104).map(WayView::valid).collect();
        assert!(matches!(p.decide_replacement(2, &ways, &ctx(1)), MissDecision::Allocate { .. }));
    }

    #[test]
    fn hit_credits_previous_owner_not_current() {
        let mut p = Dlp::new(cfg());
        fill_set(&mut p, 0, 5); // lines owned by insn 5
        p.on_query(0);
        p.on_hit(0, 2, &ctx(9)); // insn 9 hits a line owned by insn 5
        assert_eq!(p.pdpt().entry(5).tda_hits, 1, "credit goes to the stored owner");
        assert_eq!(p.pdpt().entry(9).tda_hits, 0);
        // Ownership transferred: a second hit credits insn 9.
        p.on_query(0);
        p.on_hit(0, 2, &ctx(3));
        assert_eq!(p.pdpt().entry(9).tda_hits, 1);
    }

    #[test]
    fn decrease_path_shrinks_pds() {
        let mut p = Dlp::new(cfg());
        fill_set(&mut p, 0, 1);
        // Arm a PD first.
        for (way, tag) in (0..4).zip(100..104u64) {
            p.on_evict(0, way, tag);
        }
        for t in 100..104u64 {
            p.on_query(0);
            p.on_miss(0, t, &ctx(1));
        }
        p.force_sample();
        let armed = p.pd_of(1);
        assert!(armed >= 4);

        // Now a sample with only TDA hits -> decrease by Nasc (4).
        fill_set(&mut p, 1, 1);
        for _ in 0..8 {
            p.on_query(1);
            p.on_hit(1, 0, &ctx(1));
        }
        p.force_sample();
        assert_eq!(p.pd_of(1), armed - 4);
    }

    #[test]
    fn global_protection_uses_one_pd_for_all_insns() {
        let mut p = GlobalProtection::new(cfg());
        // VTA hits from insn 7 only.
        p.on_query(0);
        p.on_miss(0, 50, &ctx(7));
        let ways = vec![WayView::invalid(); 4];
        if let MissDecision::Allocate { way } = p.decide_replacement(0, &ways, &ctx(7)) {
            p.on_fill(0, way, 50, &ctx(7));
        }
        p.on_evict(0, 0, 50);
        p.on_query(0);
        p.on_miss(0, 50, &ctx(7));
        p.force_sample();
        let pd = p.global_pd();
        assert!(pd > 0);
        // The PD applies to a totally different instruction too: its
        // fills are protected.
        p.on_query(1);
        let ways = vec![WayView::invalid(); 4];
        if let MissDecision::Allocate { way } = p.decide_replacement(1, &ways, &ctx(99)) {
            p.on_fill(1, way, 60, &ctx(99));
        }
        assert_eq!(p.inner.pl[p.inner.idx(1, 0)], pd);
    }

    #[test]
    fn sampling_fires_automatically_at_period() {
        let small = ProtectionConfig { sample_period: 10, ..cfg() };
        let mut p = Dlp::new(small);
        for _ in 0..10 {
            p.on_query(0);
        }
        assert_eq!(p.stats().samples, 1);
        for _ in 0..9 {
            p.on_query(0);
        }
        assert_eq!(p.stats().samples, 1);
        p.on_query(0);
        assert_eq!(p.stats().samples, 2);
    }

    #[test]
    fn all_reserved_bypasses_like_all_protected() {
        // A reserved way is as unreplaceable as a protected one: the
        // §4.1.1 bypass covers both, so DLP never parks a miss on a
        // saturated set.
        let mut p = Dlp::new(cfg());
        let ways = vec![WayView::reserved(); 4];
        assert_eq!(p.decide_replacement(0, &ways, &ctx(0)), MissDecision::Bypass);
        assert!(!p.bypass_on_stall(), "structural MSHR stalls still park");
    }

    #[test]
    fn bypassed_miss_restores_vta_entry_for_re_reference() {
        // Regression for the bypass/VTA interaction: the on_miss probe
        // consumes the victim tag, but if the miss is then bypassed the
        // line never re-enters the TDA — the entry must be restored so a
        // re-reference of the same line still scores a VTA hit.
        let mut p = Dlp::new(cfg());
        fill_set(&mut p, 0, 1);
        // Evict one line so its tag (100) lands in the VTA.
        p.on_evict(0, 0, 100);
        assert_eq!(p.stats().vta_insertions, 1);

        // Re-reference tag 100: VTA hit, entry consumed...
        p.on_query(0);
        p.on_miss(0, 100, &ctx(1));
        assert_eq!(p.stats().vta_hits, 1);
        // ...and the controller bypasses the miss (e.g. protected set).
        p.on_bypass(0, 100, &ctx(1));
        assert_eq!(p.stats().vta_reinserted, 1);

        // A second re-reference must still find the tag in the VTA.
        p.on_query(0);
        p.on_miss(0, 100, &ctx(1));
        assert_eq!(p.stats().vta_hits, 2, "bypass must not erase the victim tag");

        // Without a bypass (the miss allocated), a later miss to the
        // same tag finds nothing: the entry really was consumed.
        p.on_query(0);
        p.on_miss(0, 100, &ctx(1));
        assert_eq!(p.stats().vta_hits, 2);
    }

    #[test]
    fn on_bypass_ignores_unrelated_tags() {
        let mut p = Dlp::new(cfg());
        fill_set(&mut p, 0, 1);
        p.on_evict(0, 0, 100);
        p.on_query(0);
        p.on_miss(0, 100, &ctx(1));
        // A bypass of a *different* line must not resurrect tag 100.
        p.on_bypass(0, 999, &ctx(1));
        assert_eq!(p.stats().vta_reinserted, 0);
        p.on_query(0);
        p.on_miss(0, 100, &ctx(1));
        assert_eq!(p.stats().vta_hits, 1, "consumed entry stays consumed");
    }

    #[test]
    fn global_protection_snapshot_is_single_row() {
        let p = GlobalProtection::new(cfg());
        assert_eq!(p.pd_snapshot(), Some(vec![(0, 0)]));
    }

    #[test]
    fn pd_capped_at_four_bits() {
        let mut p = Dlp::new(cfg());
        // Repeatedly drive maximal increases: fill a line for insn 1,
        // evict it, then re-reference it so the VTA hit is credited to
        // insn 1 with zero TDA hits in the sample.
        for round in 0..10u64 {
            let tag = 1000 + round;
            p.on_query(0);
            p.on_miss(0, tag, &ctx(1));
            p.on_fill(0, 0, tag, &ctx(1));
            p.on_evict(0, 0, tag);
            p.on_query(0);
            p.on_miss(0, tag, &ctx(1)); // VTA hit credited to insn 1
            p.force_sample();
        }
        assert!(p.pd_of(1) <= PD_MAX);
        assert_eq!(p.pd_of(1), PD_MAX, "repeated max increments must saturate");
    }
}
