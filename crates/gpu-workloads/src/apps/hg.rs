//! HG — Histogram (CUDA Samples, Cache Sufficient).
//!
//! The real 64M-element histogram streams pixel data once (compulsory
//! misses), accumulates into per-block shared-memory histograms, and
//! only occasionally merges into the global bin array. What the L1D
//! sees is therefore: a coalesced read stream with no reuse, plus
//! infrequent scattered read-modify-writes over a bin array much larger
//! than the cache — the "mostly long reuse distances, dominated by
//! compulsory misses" profile Figure 3 shows for HG.

use crate::gen::{GenStream, SegmentSource, WarpCtx};
use crate::pattern::{alu_block, coalesced, desync, scatter_into, AddrSpace};
use crate::registry::Scale;
use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream};

/// Histogram model. See the module docs.
#[derive(Clone)]
pub struct Hg {
    ctas: usize,
    warps: usize,
    iters: usize,
    pixels: u64,
    bins: u64,
    bin_bytes: u64,
    seed: u64,
}

impl Hg {
    /// Build at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (ctas, warps, iters) = match scale {
            Scale::Tiny => (4, 2, 8),
            Scale::Full | Scale::Scaled(_) => (96, 4, 96),
        };
        let iters = iters * scale.factor() as usize;
        let mut mem = AddrSpace::new();
        // 64 Mi of pixel input (grown with the scale factor so the
        // longer stream never walks into the bin region); 16 Ki bins of
        // 4 B (64 KB — four L1Ds).
        let pixels = mem.alloc((64 << 20) * scale.factor());
        let bin_bytes = 64 << 10;
        let bins = mem.alloc(bin_bytes);
        Hg { ctas, warps, iters, pixels, bins, bin_bytes, seed: 0x4847 }
    }
}

impl Kernel for Hg {
    fn name(&self) -> &str {
        "HG"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(GenStream::new(HgGen { app: self.clone(), ctx: WarpCtx::new(self.seed, cta, warp) }))
    }
}

/// Segment 0 = desync prologue; segment 1 + i = pixel batch `i`.
struct HgGen {
    app: Hg,
    ctx: WarpCtx,
}

impl SegmentSource for HgGen {
    fn emit(&mut self, seg: u64, out: &mut Vec<TraceOp>) -> bool {
        let gwarp = (self.ctx.cta * self.app.warps + self.ctx.warp) as u64;
        if seg == 0 {
            desync(out, &mut self.ctx.apc, gwarp);
            return true;
        }
        let i = (seg - 1) as usize;
        if i >= self.app.iters {
            return false;
        }
        // Rotate registers so consecutive batches overlap in flight.
        let r = 1 + ((i % 2) as u8) * 8;
        // Stream one 128 B batch of pixels (never revisited).
        let batch = self.app.pixels + (gwarp * self.app.iters as u64 + i as u64) * 128;
        out.push(TraceOp::load(0, r, coalesced(batch)));
        // Shared-memory binning stands in as ALU work.
        alu_block(out, &mut self.ctx.apc, 26, r);
        // Every 4th batch merges a few bins into the global array.
        if i % 4 == 3 {
            self.ctx.scratch.clear();
            scatter_into(&mut self.ctx.rng, &mut self.ctx.scratch, self.app.bins, self.app.bin_bytes, 8);
            out.push(TraceOp::load(1, r + 2, self.ctx.scratch.clone()));
            alu_block(out, &mut self.ctx.apc, 4, r + 2);
            out.push(TraceOp::store(2, self.ctx.scratch.clone()).with_srcs([r + 2]));
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
    fn is_cache_sufficient() {
        let k = Hg::new(Scale::Tiny);
        assert!(static_mem_ratio(&k) < 0.01);
    }

    #[test]
    fn pixel_stream_never_repeats_a_line() {
        let k = Hg::new(Scale::Tiny);
        let mut lines = std::collections::HashSet::new();
        for cta in 0..2 {
            for w in 0..2 {
                for op in k.warp_ops(cta, w) {
                    if let OpKind::Mem { addrs, is_write: false } = &op.kind {
                        if op.pc == 0 {
                            assert!(lines.insert(addrs[0] / 128), "pixel line revisited");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bin_updates_stay_in_bin_region() {
        let k = Hg::new(Scale::Tiny);
        for op in k.warp_ops(0, 0) {
            if let OpKind::Mem { addrs, .. } = &op.kind {
                if op.pc == 1 || op.pc == 2 {
                    for &a in addrs {
                        assert!((k.bins..k.bins + k.bin_bytes).contains(&a));
                    }
                }
            }
        }
    }

    #[test]
    fn scaled_one_is_trace_identical_to_full() {
        let full = Hg::new(Scale::Full);
        let scaled = Hg::new(Scale::Scaled(1));
        assert_eq!(full.warp_ops(3, 1), scaled.warp_ops(3, 1));
    }

    #[test]
    fn scale_multiplies_trace_length() {
        let f1 = Hg::new(Scale::Scaled(1)).warp_ops(0, 0).len();
        let f10 = Hg::new(Scale::Scaled(10)).warp_ops(0, 0).len();
        assert!(f10 > 9 * f1, "{f10} vs {f1}");
    }
}
