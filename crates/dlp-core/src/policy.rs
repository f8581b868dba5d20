//! The replacement-policy interface between a cache controller and a
//! management scheme.
//!
//! The cache controller (e.g. `gpu-mem`'s L1D) owns the tag array and the
//! miss-handling machinery; the policy owns everything a scheme adds on
//! top — recency state, protected-life counters, the victim tag array and
//! the PDPT. The controller drives the policy through the hooks below in
//! a fixed order per access:
//!
//! 1. [`ReplacementPolicy::on_query`] — once per *new* access to a set
//!    (a stalled access retrying in the pipeline register does **not**
//!    re-query; the paper decrements protected life per memory request,
//!    not per retry cycle).
//! 2. On a tag hit: [`ReplacementPolicy::on_hit`].
//! 3. On a tag miss: [`ReplacementPolicy::on_miss`] (VTA probe), then —
//!    if the request wants to allocate — [`ReplacementPolicy::decide_replacement`].
//! 4. If the decision was `Allocate` onto a valid line, the controller
//!    evicts it and reports the eviction via [`ReplacementPolicy::on_evict`]
//!    before reserving the way; when the fill returns it calls
//!    [`ReplacementPolicy::on_fill`].

use crate::insn::InsnId;
use crate::stats::PolicyStats;

/// Which of the four schemes of the paper to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PolicyKind {
    /// Plain LRU (the 16 KB baseline configuration).
    Baseline,
    /// LRU + bypass-on-structural-stall (§5.3 "Stall-Bypass").
    StallBypass,
    /// Single global protection distance (§5.3 "Global-Protection").
    GlobalProtection,
    /// Per-instruction dynamic line protection (§4, the contribution).
    Dlp,
}

impl PolicyKind {
    /// All four schemes in the order the paper's figures list them.
    pub const ALL: [PolicyKind; 4] =
        [PolicyKind::Baseline, PolicyKind::StallBypass, PolicyKind::GlobalProtection, PolicyKind::Dlp];

    /// Short label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Baseline => "16KB(Baseline)",
            PolicyKind::StallBypass => "Stall-Bypass",
            PolicyKind::GlobalProtection => "Global-Protection",
            PolicyKind::Dlp => "DLP",
        }
    }
}

/// Per-access context handed to every policy hook.
#[derive(Clone, Copy, Debug)]
pub struct AccessCtx {
    /// Hashed PC of the memory instruction issuing the access.
    pub insn_id: InsnId,
    /// Whether this is a store. With the write-back, write-allocate L1D
    /// modeled in `gpu-mem`, stores participate in protection exactly
    /// like loads (they allocate lines and therefore need a PD); the
    /// flag is exposed for schemes that want to differentiate.
    pub is_write: bool,
}

/// What the controller exposes about one way when asking for a victim.
#[derive(Clone, Copy, Debug)]
pub struct WayView {
    /// The way holds a valid line.
    pub valid: bool,
    /// The way is reserved by an in-flight fill and must not be touched.
    pub reserved: bool,
    /// Tag of the resident line (meaningful only if `valid`).
    pub tag: u64,
}

impl WayView {
    /// An empty, allocatable way.
    pub fn invalid() -> Self {
        WayView { valid: false, reserved: false, tag: 0 }
    }

    /// A resident, evictable line with the given tag.
    pub fn valid(tag: u64) -> Self {
        WayView { valid: true, reserved: false, tag }
    }

    /// A way reserved by an outstanding fill.
    pub fn reserved() -> Self {
        WayView { valid: false, reserved: true, tag: 0 }
    }

    /// Can the controller place a new line here right now?
    #[inline]
    pub fn evictable(&self) -> bool {
        !self.reserved
    }
}

/// Outcome of [`ReplacementPolicy::decide_replacement`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MissDecision {
    /// Reserve `way` for the incoming line (evicting its current
    /// occupant first if valid).
    Allocate {
        /// Victim way index.
        way: usize,
    },
    /// Forward the request to the next level without allocating
    /// (the paper's bypass path).
    Bypass,
    /// Nothing can be allocated and the scheme does not bypass: the
    /// request parks in the pipeline register and retries.
    Stall,
}

/// A cache-management scheme pluggable into the L1D controller.
pub trait ReplacementPolicy: Send {
    /// A new access (load or store, hit or miss) queries `set`.
    fn on_query(&mut self, set: usize);

    /// The access hit `way` in `set`.
    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessCtx);

    /// The access missed in the tag array; `tag` identifies the wanted
    /// line. Protection schemes probe their victim tag array here.
    fn on_miss(&mut self, set: usize, tag: u64, ctx: &AccessCtx);

    /// Pick a victim way / bypass / stall for a miss that wants to
    /// allocate. `ways[i].reserved` ways must not be chosen. The answer
    /// must depend only on `set`, `ways`, `ctx` and state the other
    /// hooks change, and the only state it may change is counters
    /// (see [`ReplacementPolicy::repeat_decision`]).
    fn decide_replacement(&mut self, set: usize, ways: &[WayView], ctx: &AccessCtx) -> MissDecision;

    /// A valid line with `tag` was evicted from `way` (capacity or
    /// write-evict). Protection schemes push it into the VTA.
    fn on_evict(&mut self, set: usize, way: usize, tag: u64);

    /// The miss for `tag` was ultimately **bypassed** — the line will
    /// never enter the tag array. Protection schemes restore the victim
    /// tag their [`ReplacementPolicy::on_miss`] probe consumed, so a
    /// later re-reference of the bypassed line still registers as a VTA
    /// hit (otherwise bypasses would silently erase reuse evidence and
    /// deflate the measured PDs).
    fn on_bypass(&mut self, set: usize, tag: u64, ctx: &AccessCtx) {
        let _ = (set, tag, ctx);
    }

    /// The fill for an earlier `Allocate` decision landed in `way`.
    fn on_fill(&mut self, set: usize, way: usize, tag: u64, ctx: &AccessCtx);

    /// Should a *structurally* stalled access (MSHR full, miss queue
    /// full, or all ways reserved) bypass instead of stalling?
    fn bypass_on_stall(&self) -> bool {
        false
    }

    /// The controller repeated, `times` more times, a `decision` this
    /// policy already returned: a parked access retried while nothing
    /// [`ReplacementPolicy::decide_replacement`] reads had changed, so
    /// the controller replays the retry instead of asking again. Bump
    /// every counter `decide_replacement` bumps for `decision`, `times`
    /// times; change nothing else. Schemes whose decisions count
    /// nothing keep the default.
    fn repeat_decision(&mut self, decision: MissDecision, times: u64) {
        let _ = (decision, times);
    }

    /// Force the current sampling period to end (used to bound sampling
    /// time for cache-sufficient kernels with few loads, §4.1.4).
    /// No-op for schemes without sampling.
    fn force_sample(&mut self) {}

    /// Snapshot of the per-instruction protection distances, for
    /// schemes that keep them (`None` otherwise). Rows are
    /// `(instruction id, current PD)` for instructions with any
    /// activity this run.
    fn pd_snapshot(&self) -> Option<Vec<(InsnId, u8)>> {
        None
    }

    /// Structural self-check for the runtime invariant auditor:
    /// scheme-internal state must be within its configured bounds
    /// (protected-life counters ≤ the PD cap, victim tags within the
    /// VTA's reach). Schemes without internal state have nothing to
    /// check.
    fn audit(&self) -> Result<(), String> {
        Ok(())
    }

    /// Scheme name for reports.
    fn kind(&self) -> PolicyKind;

    /// Scheme-internal statistics (bypasses, samples, PD trajectory...).
    fn stats(&self) -> PolicyStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wayview_constructors() {
        assert!(WayView::invalid().evictable());
        assert!(WayView::valid(7).evictable());
        assert!(!WayView::reserved().evictable());
        assert!(WayView::valid(7).valid);
        assert_eq!(WayView::valid(7).tag, 7);
    }

    #[test]
    fn policy_kind_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            PolicyKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
