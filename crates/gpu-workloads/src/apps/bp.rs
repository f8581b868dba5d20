//! BP — Back Propagation (Rodinia, Cache Sufficient).
//!
//! The forward layer of Rodinia's 65536-unit network: each warp streams
//! weight-matrix rows while repeatedly re-reading the (small) input
//! activation vector. The activation vector fits comfortably in the
//! L1D, giving BP the short-reuse-distance profile of Figure 3 and a
//! memory-access ratio well under 1 %.

use crate::gen::{GenStream, SegmentSource, WarpCtx};
use crate::pattern::{alu_block, coalesced, desync, AddrSpace};
use crate::registry::Scale;
use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream};

/// Back-propagation model. See the module docs.
#[derive(Clone)]
pub struct Bp {
    ctas: usize,
    warps: usize,
    iters: usize,
    weights: u64,
    input: u64,
    input_bytes: u64,
    out: u64,
}

impl Bp {
    /// Build at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (ctas, warps, iters) = match scale {
            Scale::Tiny => (4, 2, 8),
            Scale::Full | Scale::Scaled(_) => (64, 6, 48),
        };
        let iters = iters * scale.factor() as usize;
        let mut mem = AddrSpace::new();
        Bp {
            ctas,
            warps,
            iters,
            // The streamed weight matrix grows with the scale factor so
            // the longer stream stays inside its own region.
            weights: mem.alloc((64 << 20) * scale.factor()),
            // 8 KB activation vector: half the L1D, so it stays resident.
            input: mem.alloc(8 << 10),
            input_bytes: 8 << 10,
            out: mem.alloc(1 << 20),
        }
    }
}

impl Kernel for Bp {
    fn name(&self) -> &str {
        "BP"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(GenStream::new(BpGen { app: self.clone(), ctx: WarpCtx::new(0, cta, warp) }))
    }
}

/// Segment 0 = desync prologue; segment 1 + i = weight row `i`.
struct BpGen {
    app: Bp,
    ctx: WarpCtx,
}

impl SegmentSource for BpGen {
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
        // Stream a fresh weight row segment...
        let rb = 1 + ((i % 2) as u8) * 8;
        let wrow = self.app.weights + (gwarp * self.app.iters as u64 + i) * 128;
        out.push(TraceOp::load(0, rb, coalesced(wrow)));
        // ...and re-read a rotating segment of the activation vector.
        let act = self.app.input + (i * 128) % self.app.input_bytes;
        out.push(TraceOp::load(1, rb + 2, coalesced(act)));
        alu_block(out, &mut self.ctx.apc, 14, rb);
        if i % 8 == 7 {
            out.push(TraceOp::store(2, coalesced(self.app.out + gwarp * 128)).with_srcs([rb + 2]));
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
        assert!(static_mem_ratio(&Bp::new(Scale::Tiny)) < 0.01);
    }

    #[test]
    fn activation_reads_stay_in_the_small_vector() {
        let k = Bp::new(Scale::Tiny);
        for op in k.warp_ops(1, 1) {
            if let OpKind::Mem { addrs, is_write: false } = &op.kind {
                if op.pc == 1 {
                    for &a in addrs {
                        assert!((k.input..k.input + k.input_bytes + 128).contains(&a));
                    }
                }
            }
        }
    }
}
