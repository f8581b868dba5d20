//! STR — String Match (Mars, Cache Insufficient).
//!
//! Grep-style keyword matching over a 354984-record corpus: text is
//! streamed (two lines per chunk), and every chunk probes the keyword
//! hash table. The table (16 KB of buckets + 16 KB of keyword data) is
//! right at the baseline capacity, and STR has the highest
//! memory-access ratio of the suite (rightmost bar of Figure 6), so the
//! L1D is on the critical path for nearly every instruction.

use crate::gen::{GenStream, SegmentSource, WarpCtx};
use crate::pattern::{alu_block, coalesced, desync, scatter, AddrSpace};
use crate::registry::Scale;
use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream};

/// String-match model. See the module docs.
#[derive(Clone)]
pub struct StrMatch {
    ctas: usize,
    warps: usize,
    iters: usize,
    text: u64,
    buckets: u64,
    bucket_bytes: u64,
    keywords: u64,
    keyword_bytes: u64,
    matches: u64,
    seed: u64,
}

impl StrMatch {
    /// Build at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (ctas, warps, iters) = match scale {
            Scale::Tiny => (8, 4, 12),
            Scale::Full | Scale::Scaled(_) => (96, 6, 32),
        };
        let iters = iters * scale.factor() as usize;
        let mut mem = AddrSpace::new();
        StrMatch {
            ctas,
            warps,
            iters,
            // The streamed text grows with the scale factor so the
            // longer chunk walk stays inside its own region.
            text: mem.alloc((64 << 20) * scale.factor()),
            buckets: mem.alloc(16 << 10),
            bucket_bytes: 16 << 10,
            keywords: mem.alloc(16 << 10),
            keyword_bytes: 16 << 10,
            matches: mem.alloc(1 << 20),
            seed: 0x5354,
        }
    }
}

impl Kernel for StrMatch {
    fn name(&self) -> &str {
        "STR"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(GenStream::new(StrGen { app: self.clone(), ctx: WarpCtx::new(self.seed, cta, warp) }))
    }
}

/// Segment 0 = desync prologue; segment 1 + i = text chunk `i`.
struct StrGen {
    app: StrMatch,
    ctx: WarpCtx,
}

impl SegmentSource for StrGen {
    fn emit(&mut self, seg: u64, out: &mut Vec<TraceOp>) -> bool {
        let gwarp = (self.ctx.cta * self.app.warps + self.ctx.warp) as u64;
        if seg == 0 {
            desync(out, &mut self.ctx.apc, gwarp);
            return true;
        }
        let i = seg - 1;
        if i >= self.app.iters as u64 {
            return false;
        }
        // Stream a text chunk.
        let rb = 1 + ((i % 2) as u8) * 8;
        let chunk = self.app.text + (gwarp * self.app.iters as u64 + i) * 256;
        out.push(TraceOp::load(0, rb, coalesced(chunk)));
        out.push(TraceOp::load(1, rb + 1, coalesced(chunk + 128)));
        alu_block(out, &mut self.ctx.apc, 2, rb);
        // Hash-bucket probe for each lane's shingle.
        let probes = scatter(&mut self.ctx.rng, self.app.buckets, self.app.bucket_bytes, 16);
        out.push(TraceOp::load(2, rb + 2, probes));
        // Compare against candidate keywords.
        let kws = scatter(&mut self.ctx.rng, self.app.keywords, self.app.keyword_bytes, 8);
        out.push(TraceOp::load(3, rb + 3, kws));
        alu_block(out, &mut self.ctx.apc, 2, rb + 2);
        if i % 4 == 3 {
            out.push(TraceOp::store(4, coalesced(self.app.matches + gwarp * 128)).with_srcs([rb + 3]));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::static_mem_ratio;

    #[test]
    fn is_cache_insufficient_with_high_ratio() {
        let r = static_mem_ratio(&StrMatch::new(Scale::Tiny));
        assert!(r >= 0.05, "STR should have the suite's highest ratio, got {r:.4}");
    }

    #[test]
    fn table_regions_fit_the_modeled_sizes() {
        let k = StrMatch::new(Scale::Tiny);
        assert_eq!(k.bucket_bytes + k.keyword_bytes, 32 << 10);
    }
}
