//! # dlp-core — Dynamic Line Protection for GPU L1D caches
//!
//! This crate implements the cache-management schemes studied in
//! *"Improving First Level Cache Efficiency for GPUs Using Dynamic Line
//! Protection"* (Zhu, Wernsman, Zambreno — ICPP 2018):
//!
//! * [`LruBaseline`] — the plain LRU replacement used by the baseline
//!   16 KB / 32-set / 4-way Fermi-style L1D cache, and, built with
//!   [`LruBaseline::stall_bypass`], Stall-Bypass: LRU plus a bypass path
//!   taken whenever the L1D stalls structurally (full MSHR, full miss
//!   queue, or a set with no reservable way),
//! * [`GlobalProtection`] — a single-protection-distance adaptation of
//!   PDP (Duong et al., MICRO 2012) driven by global victim-tag-array
//!   feedback,
//! * [`Dlp`] — the paper's contribution: per-memory-instruction
//!   protection distances predicted at runtime from TDA/VTA hit
//!   feedback collected in a 128-entry Protection Distance Prediction
//!   Table ([`Pdpt`]).
//!
//! The last two are one [`ProtectionPolicy`] over two PD models.
//!
//! The crate is deliberately independent of any particular simulator:
//! a policy is driven through the [`ReplacementPolicy`] trait by
//! whatever owns the tag array (in this workspace, `gpu-mem`'s L1D
//! controller). All state a scheme needs beyond the tags themselves —
//! recency stamps, protected-life counters, the victim tag array, the
//! PDPT — lives inside the policy object, mirroring the hardware
//! organization of Figure 8 in the paper.
//!
//! ## Quick example
//!
//! ```
//! use dlp_core::{CacheGeometry, Dlp, ProtectionConfig, ReplacementPolicy, AccessCtx, MissDecision, WayView};
//!
//! let geom = CacheGeometry::fermi_l1d_16k();
//! let mut dlp = Dlp::new(ProtectionConfig::paper_default(geom));
//! let ctx = AccessCtx { insn_id: dlp_core::hash_pc(0x1a0), is_write: false };
//!
//! // A miss in an empty set allocates into an invalid way.
//! dlp.on_query(3);
//! dlp.on_miss(3, 0xdead, &ctx);
//! let ways = vec![WayView::invalid(); geom.assoc];
//! match dlp.decide_replacement(3, &ways, &ctx) {
//!     MissDecision::Allocate { way } => dlp.on_fill(3, way, 0xdead, &ctx),
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Unit tests exercise failure paths where unwrap/expect is the point;
// the unwrap_used/expect_used denies apply to shipping simulator code.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod baseline;
pub mod geometry;
pub mod insn;
pub mod overhead;
pub mod pd;
pub mod pdpt;
pub mod policy;
pub mod protection;
pub mod recency;
pub mod stats;
pub mod vta;

pub use baseline::LruBaseline;
pub use geometry::CacheGeometry;
pub use insn::{hash_pc, pc_wraps, InsnId, INSN_ID_BITS, PDPT_ENTRIES};
pub use overhead::{dlp_overhead, OverheadReport};
pub use pd::{pd_adjustment, PdComputation};
pub use pdpt::{Pdpt, PdptEntry};
pub use policy::{AccessCtx, MissDecision, PolicyKind, ReplacementPolicy, WayView};
pub use protection::{Dlp, GlobalProtection, ProtectionConfig, ProtectionPolicy};
pub use stats::PolicyStats;
pub use vta::VictimTagArray;

/// Build a boxed policy of the given [`PolicyKind`] for a cache with the
/// given geometry, using the paper's default protection parameters.
///
/// [`build_policy_with`] takes non-default protection parameters; the
/// simulator's SMs build through it.
pub fn build_policy(kind: PolicyKind, geom: CacheGeometry) -> Box<dyn ReplacementPolicy> {
    build_policy_with(kind, ProtectionConfig::paper_default(geom))
}

/// Build a boxed policy of the given [`PolicyKind`] for the cache
/// geometry `protection.geom`. The protecting schemes run with
/// `protection`; the LRU schemes have no use for the rest of it.
pub fn build_policy_with(kind: PolicyKind, protection: ProtectionConfig) -> Box<dyn ReplacementPolicy> {
    match kind {
        PolicyKind::Baseline => Box::new(LruBaseline::new(protection.geom)),
        PolicyKind::StallBypass => Box::new(LruBaseline::stall_bypass(protection.geom)),
        PolicyKind::GlobalProtection => Box::new(GlobalProtection::new(protection)),
        PolicyKind::Dlp => Box::new(Dlp::new(protection)),
    }
}
