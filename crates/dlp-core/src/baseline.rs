//! The two non-protecting schemes: plain LRU and Stall-Bypass, one type.

use crate::geometry::CacheGeometry;
use crate::policy::{AccessCtx, MissDecision, PolicyKind, ReplacementPolicy, WayView};
use crate::recency::RecencyArray;
use crate::stats::PolicyStats;

/// LRU replacement: the paper's baseline 16 KB configuration and, built
/// with [`LruBaseline::stall_bypass`], the Stall-Bypass scheme (§5.3).
///
/// A miss allocates into an invalid way if one exists, otherwise the
/// least-recently-used non-reserved way. If every way is reserved by an
/// in-flight fill the baseline stalls the access in the pipeline
/// register (§2); Stall-Bypass bypasses it instead, and also asks the
/// controller to bypass every other structural stall (no MSHR entry, a
/// full miss queue).
pub struct LruBaseline {
    recency: RecencyArray,
    stats: PolicyStats,
    stall_bypass: bool,
}

impl LruBaseline {
    /// Plain LRU for a cache of the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        LruBaseline {
            recency: RecencyArray::new(geom.num_sets, geom.assoc),
            stats: PolicyStats::default(),
            stall_bypass: false,
        }
    }

    /// LRU plus the Stall-Bypass path, for a cache of the given geometry.
    pub fn stall_bypass(geom: CacheGeometry) -> Self {
        LruBaseline { stall_bypass: true, ..Self::new(geom) }
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
        // Prefer an invalid (and unreserved) way, then LRU among valid
        // unreserved ways.
        if let Some(way) = ways.iter().position(|w| !w.valid && !w.reserved) {
            return MissDecision::Allocate { way };
        }
        match self.recency.lru_among(set, |w| ways[w].valid && !ways[w].reserved) {
            Some(way) => MissDecision::Allocate { way },
            None if self.stall_bypass => MissDecision::Bypass,
            None => MissDecision::Stall,
        }
    }

    fn on_evict(&mut self, _set: usize, _way: usize, _tag: u64) {}

    fn on_fill(&mut self, set: usize, way: usize, _tag: u64, _ctx: &AccessCtx) {
        self.recency.touch(set, way);
    }

    fn bypass_on_stall(&self) -> bool {
        self.stall_bypass
    }

    fn kind(&self) -> PolicyKind {
        if self.stall_bypass {
            PolicyKind::StallBypass
        } else {
            PolicyKind::Baseline
        }
    }

    fn stats(&self) -> PolicyStats {
        self.stats.clone()
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
        let mut p = LruBaseline::stall_bypass(small_geom());
        let ways = vec![WayView::reserved(); 4];
        assert_eq!(p.decide_replacement(0, &ways, &ctx()), MissDecision::Bypass);
        assert!(p.bypass_on_stall());
    }

    #[test]
    fn stall_bypass_otherwise_behaves_like_lru() {
        let mut p = LruBaseline::stall_bypass(small_geom());
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
