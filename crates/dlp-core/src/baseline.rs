//! The two non-protecting schemes: plain LRU and Stall-Bypass.

use crate::geometry::CacheGeometry;
use crate::policy::{AccessCtx, MissDecision, PolicyKind, ReplacementPolicy, WayView};
use crate::recency::RecencyArray;
use crate::stats::PolicyStats;

/// Plain LRU replacement — the paper's baseline 16 KB configuration.
///
/// A miss allocates into an invalid way if one exists, otherwise the
/// least-recently-used non-reserved way. If every way is reserved by an
/// in-flight fill the access stalls in the pipeline register (§2).
pub struct LruBaseline {
    recency: RecencyArray,
    stats: PolicyStats,
}

impl LruBaseline {
    /// Create for a cache of the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        LruBaseline { recency: RecencyArray::new(geom.num_sets, geom.assoc), stats: PolicyStats::default() }
    }

    /// The replacement decision [`ReplacementPolicy::decide_replacement`]
    /// will make for this set, computed without touching any state.
    ///
    /// Public because LRU victim selection is side-effect-free: the L2
    /// partition's cycle-leap event mirror peeks the decision (including
    /// the victim way, to replay the DRAM-admission check) to predict
    /// whether the queued head access would progress.
    pub fn peek_victim(&self, set: usize, ways: &[WayView]) -> MissDecision {
        // Prefer an invalid (and unreserved) way, then LRU among valid
        // unreserved ways.
        if let Some(way) = ways.iter().position(|w| !w.valid && !w.reserved) {
            return MissDecision::Allocate { way };
        }
        match self.recency.lru_among(set, |w| ways[w].valid && !ways[w].reserved) {
            Some(way) => MissDecision::Allocate { way },
            None => MissDecision::Stall,
        }
    }
}

impl ReplacementPolicy for LruBaseline {
    fn on_query(&mut self, _set: usize) {
        self.stats.queries += 1;
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        self.recency.touch(set, way);
    }

    fn on_miss(&mut self, _set: usize, _tag: u64, _ctx: &AccessCtx) {}

    fn decide_replacement(&mut self, set: usize, ways: &[WayView], _ctx: &AccessCtx) -> MissDecision {
        self.peek_victim(set, ways)
    }

    fn on_evict(&mut self, _set: usize, _way: usize, _tag: u64) {}

    fn on_fill(&mut self, set: usize, way: usize, _tag: u64, _ctx: &AccessCtx) {
        self.recency.touch(set, way);
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Baseline
    }

    fn stats(&self) -> PolicyStats {
        self.stats.clone()
    }
}

/// LRU replacement plus the Stall-Bypass path (§5.3): whenever the L1D
/// would stall for *any* structural reason — no MSHR entry, no reservable
/// way in the set, or a full miss queue — the access is bypassed to the
/// interconnect instead.
///
/// Replacement decisions are identical to [`LruBaseline`]; the only
/// difference is `bypass_on_stall` returning `true` (the controller
/// converts structural stalls into bypasses) and all-ways-reserved
/// misses turning into `Bypass` instead of `Stall`.
pub struct StallBypass {
    inner: LruBaseline,
}

impl StallBypass {
    /// Create for a cache of the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        StallBypass { inner: LruBaseline::new(geom) }
    }
}

impl ReplacementPolicy for StallBypass {
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
        match self.inner.decide_replacement(set, ways, ctx) {
            MissDecision::Stall => MissDecision::Bypass,
            other => other,
        }
    }

    fn on_evict(&mut self, set: usize, way: usize, tag: u64) {
        self.inner.on_evict(set, way, tag);
    }

    fn on_fill(&mut self, set: usize, way: usize, tag: u64, ctx: &AccessCtx) {
        self.inner.on_fill(set, way, tag, ctx);
    }

    fn bypass_on_stall(&self) -> bool {
        true
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::StallBypass
    }

    fn stats(&self) -> PolicyStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> AccessCtx {
        AccessCtx { insn_id: 0, is_write: false }
    }

    fn small_geom() -> CacheGeometry {
        CacheGeometry::fermi_l1d_16k()
    }

    #[test]
    fn lru_prefers_invalid_way() {
        let mut p = LruBaseline::new(small_geom());
        let ways = vec![WayView::valid(1), WayView::invalid(), WayView::valid(2), WayView::valid(3)];
        assert_eq!(p.decide_replacement(0, &ways, &ctx()), MissDecision::Allocate { way: 1 });
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = LruBaseline::new(small_geom());
        let ways: Vec<_> = (0..4).map(WayView::valid).collect();
        for w in [0, 1, 2, 3] {
            p.on_hit(0, w, &ctx());
        }
        p.on_hit(0, 0, &ctx());
        assert_eq!(p.decide_replacement(0, &ways, &ctx()), MissDecision::Allocate { way: 1 });
    }

    #[test]
    fn lru_skips_reserved_ways() {
        let mut p = LruBaseline::new(small_geom());
        let mut ways: Vec<_> = (0..4).map(WayView::valid).collect();
        for w in [0, 1, 2, 3] {
            p.on_hit(0, w, &ctx());
        }
        ways[0] = WayView::reserved();
        ways[1] = WayView::reserved();
        assert_eq!(p.decide_replacement(0, &ways, &ctx()), MissDecision::Allocate { way: 2 });
    }

    #[test]
    fn lru_stalls_when_everything_reserved() {
        let mut p = LruBaseline::new(small_geom());
        let ways = vec![WayView::reserved(); 4];
        assert_eq!(p.decide_replacement(0, &ways, &ctx()), MissDecision::Stall);
        assert!(!p.bypass_on_stall());
    }

    #[test]
    fn stall_bypass_bypasses_when_everything_reserved() {
        let mut p = StallBypass::new(small_geom());
        let ways = vec![WayView::reserved(); 4];
        assert_eq!(p.decide_replacement(0, &ways, &ctx()), MissDecision::Bypass);
        assert!(p.bypass_on_stall());
    }

    #[test]
    fn stall_bypass_otherwise_behaves_like_lru() {
        let mut p = StallBypass::new(small_geom());
        let ways = vec![WayView::invalid(); 4];
        assert_eq!(p.decide_replacement(0, &ways, &ctx()), MissDecision::Allocate { way: 0 });
        assert_eq!(p.kind(), PolicyKind::StallBypass);
    }

    #[test]
    fn fill_counts_as_recency_touch() {
        let mut p = LruBaseline::new(small_geom());
        let ways: Vec<_> = (0..4).map(WayView::valid).collect();
        // Fill ways 0..3 in order, then re-fill way 0: LRU is way 1.
        for w in [0, 1, 2, 3, 0] {
            p.on_fill(0, w, w as u64, &ctx());
        }
        assert_eq!(p.decide_replacement(0, &ways, &ctx()), MissDecision::Allocate { way: 1 });
    }
}
