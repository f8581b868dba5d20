//! SC — Separable Convolution (Cache Sufficient).
//!
//! A row-filter pass over a 2048×512 image with radius 8: the input
//! window of one 32-pixel output segment overlaps the next segment's
//! window, so the "right" line of iteration *i* is re-read as the
//! "left" line of iteration *i+1* — the short-reuse-distance profile
//! Figure 3 shows for SC, fully captured even by a 4-way L1D.

use crate::gen::{GenStream, SegmentSource, WarpCtx};
use crate::pattern::{alu_block, coalesced, desync, AddrSpace};
use crate::registry::Scale;
use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream};

/// Separable-convolution model. See the module docs.
#[derive(Clone)]
pub struct Sc {
    ctas: usize,
    warps: usize,
    iters: usize,
    input: u64,
    output: u64,
    row_bytes: u64,
}

impl Sc {
    /// Build at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (ctas, warps, iters) = match scale {
            Scale::Tiny => (4, 2, 8),
            Scale::Full | Scale::Scaled(_) => (64, 6, 48),
        };
        let iters = iters * scale.factor() as usize;
        let mut mem = AddrSpace::new();
        let row_bytes = 2048 * 4;
        Sc { ctas, warps, iters, input: mem.alloc(512 * row_bytes), output: mem.alloc(512 * row_bytes), row_bytes }
    }
}

impl Kernel for Sc {
    fn name(&self) -> &str {
        "SC"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(GenStream::new(ScGen { app: self.clone(), ctx: WarpCtx::new(0, cta, warp) }))
    }
}

/// Segment 0 = desync prologue; segment 1 + i = row segment `i`.
struct ScGen {
    app: Sc,
    ctx: WarpCtx,
}

impl SegmentSource for ScGen {
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
        let row = gwarp % 512;
        let seg0 = gwarp / 512;
        // Walk along the row; each segment reads its own line plus
        // the next line (the filter halo), which the next iteration
        // re-reads as its center.
        let x = ((seg0 * self.app.iters as u64 + i) * 128) % (self.app.row_bytes - 256);
        let rb = 1 + ((i % 2) as u8) * 8;
        let center = self.app.input + row * self.app.row_bytes + x;
        out.push(TraceOp::load(0, rb, coalesced(center)));
        out.push(TraceOp::load(1, rb + 2, coalesced(center + 128)));
        alu_block(out, &mut self.ctx.apc, 22, rb);
        out.push(TraceOp::store(2, coalesced(self.app.output + row * self.app.row_bytes + x)).with_srcs([rb + 2]));
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
        assert!(static_mem_ratio(&Sc::new(Scale::Tiny)) < 0.01);
    }

    #[test]
    fn halo_line_is_next_iterations_center() {
        let k = Sc::new(Scale::Tiny);
        let ops = k.warp_ops(0, 0);
        let mems: Vec<_> = ops
            .iter()
            .filter_map(|o| match &o.kind {
                OpKind::Mem { addrs, is_write: false } => Some((o.pc, addrs[0] / 128)),
                _ => None,
            })
            .collect();
        // pc1 of iteration 0 == pc0 of iteration 1.
        assert_eq!(mems[1].0, 1);
        assert_eq!(mems[2].0, 0);
        assert_eq!(mems[1].1, mems[2].1);
    }
}
