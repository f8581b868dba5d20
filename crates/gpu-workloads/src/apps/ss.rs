//! SS — Similarity Score (Mars, Cache Insufficient).
//!
//! Pairwise document similarity (512 docs × 128 features): the kernel
//! repeatedly re-reads one side's feature vectors while streaming the
//! other side. The re-read working set (a 24 KB slab of feature lines)
//! is 1.5× the baseline L1D — the textbook protection case: LRU
//! thrashes it, while a protected subset yields hits on every pass.

use crate::gen::{GenStream, SegmentSource, WarpCtx};
use crate::pattern::{coalesced, desync, strided, AddrSpace};
use crate::registry::Scale;
use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream};

/// Similarity Score model. See the module docs.
#[derive(Clone)]
pub struct Ss {
    ctas: usize,
    warps: usize,
    pairs: usize,
    features_a: u64,
    a_bytes: u64,
    features_b: u64,
    scores: u64,
}

impl Ss {
    /// Build at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (ctas, warps, pairs) = match scale {
            Scale::Tiny => (8, 4, 24),
            Scale::Full | Scale::Scaled(_) => (96, 6, 40),
        };
        let pairs = pairs * scale.factor() as usize;
        let mut mem = AddrSpace::new();
        // 384 A-vector lines = 48 KB re-read slab.
        let a_bytes = 48 << 10;
        Ss {
            ctas,
            warps,
            pairs,
            features_a: mem.alloc(a_bytes),
            a_bytes,
            // The streamed B side grows with the scale factor so the
            // longer stream stays inside its own region.
            features_b: mem.alloc((64 << 20) * scale.factor()),
            scores: mem.alloc(1 << 20),
        }
    }
}

impl Kernel for Ss {
    fn name(&self) -> &str {
        "SS"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        // 6 slices x 16 docs x 512 B must fit the allocated slab.
        debug_assert!(6 * 16 * 512 <= self.a_bytes);
        Box::new(GenStream::new(SsGen { app: self.clone(), ctx: WarpCtx::new(0, cta, warp) }))
    }
}

/// Segment 0 = desync prologue; segment 1 + n = the unroll-and-jam
/// group starting at pair `2n` (groups advance by 2 pairs, 1 at the
/// tail).
struct SsGen {
    app: Ss,
    ctx: WarpCtx,
}

impl SegmentSource for SsGen {
    fn emit(&mut self, seg: u64, out: &mut Vec<TraceOp>) -> bool {
        let gwarp = (self.ctx.cta * self.app.warps + self.ctx.warp) as u64;
        if seg == 0 {
            desync(out, &mut self.ctx.apc, gwarp);
            return true;
        }
        let p = (seg - 1) * 2;
        if p >= self.app.pairs as u64 {
            return false;
        }
        // Each CTA works one 16-document slice of the A slab (8 KB) and
        // its warps cycle through it, one 512 B feature vector (4 lines)
        // per pair: resident CTAs with the same slice re-touch each
        // vector at set-level distances around the edge of the
        // protected-lifetime reach.
        let slice = (self.ctx.cta as u64 % 6) * 16;
        // Unroll-and-jam by 2 pairs: four loads in flight per warp.
        let group = (self.app.pairs as u64 - p).min(2);
        for g in 0..group {
            let rb = 1 + (g as u8) * 6;
            let a_doc = slice + (gwarp + p + g) % 16;
            out.push(TraceOp::load(0, rb, strided(self.app.features_a + a_doc * 512, 16)));
            // Stream the B side (two half-lines -> 2 transactions).
            let b = self.app.features_b + (gwarp * self.app.pairs as u64 + p + g) * 256;
            out.push(TraceOp::load(1, rb + 2, strided(b, 8)));
        }
        for g in 0..group {
            let rb = 1 + (g as u8) * 6;
            out.push(TraceOp::alu(64, 4).with_srcs([rb, rb + 2]).with_dst(rb + 1));
            out.push(TraceOp::alu(64, 4).with_srcs([rb + 1]).with_dst(rb + 3));
        }
        if p % 8 == 6 {
            out.push(TraceOp::store(2, coalesced(self.app.scores + gwarp * 128)).with_srcs([2]));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::static_mem_ratio;
    use gpu_sim::isa::OpKind;

    #[test]
    fn is_cache_insufficient() {
        let r = static_mem_ratio(&Ss::new(Scale::Tiny));
        assert!(r >= 0.01, "SS ratio {r:.4}");
    }

    #[test]
    fn a_slab_is_reread_across_pairs() {
        let k = Ss::new(Scale::Full);
        let mut lines = std::collections::HashSet::new();
        let mut touches = 0u64;
        for op in k.warp_ops(0, 0) {
            if let OpKind::Mem { addrs, is_write: false } = &op.kind {
                if op.pc == 0 {
                    lines.insert(addrs[0] / 128);
                    touches += 1;
                }
            }
        }
        assert!(touches as usize > lines.len(), "A lines must recur");
        assert!(lines.len() as u64 * 128 <= k.a_bytes);
    }
}
