//! NW — Needleman-Wunsch (Rodinia, Cache Sufficient).
//!
//! Wavefront dynamic programming over a 1024×1024 score matrix: each
//! anti-diagonal step reads the row the previous step produced (short
//! reuse) plus one streamed row of the reference matrix. Memory is a
//! tiny share of the work — the paper singles NW out as an application
//! whose IPC barely moves however the L1D is managed (Figure 5).

use crate::gen::{GenStream, SegmentSource, WarpCtx};
use crate::pattern::{alu_block, coalesced, desync, AddrSpace};
use crate::registry::Scale;
use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream};

/// Needleman-Wunsch model. See the module docs.
#[derive(Clone)]
pub struct Nw {
    ctas: usize,
    warps: usize,
    steps: usize,
    score: u64,
    reference: u64,
    row_bytes: u64,
}

impl Nw {
    /// Build at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (ctas, warps, steps) = match scale {
            Scale::Tiny => (4, 2, 8),
            Scale::Full | Scale::Scaled(_) => (48, 6, 44),
        };
        let steps = steps * scale.factor() as usize;
        let mut mem = AddrSpace::new();
        let row_bytes = 1024 * 4;
        // Matrices grow with the scale factor so the deeper wavefront
        // stays inside its own region.
        let mat_bytes = 1024 * row_bytes * scale.factor();
        Nw {
            ctas,
            warps,
            steps,
            score: mem.alloc(mat_bytes),
            reference: mem.alloc(mat_bytes),
            row_bytes,
        }
    }
}

impl Kernel for Nw {
    fn name(&self) -> &str {
        "NW"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(GenStream::new(NwGen { app: self.clone(), ctx: WarpCtx::new(0, cta, warp) }))
    }
}

/// Segment 0 = desync prologue; segment 1 + s = wavefront step `s`.
struct NwGen {
    app: Nw,
    ctx: WarpCtx,
}

impl SegmentSource for NwGen {
    fn emit(&mut self, seg: u64, out: &mut Vec<TraceOp>) -> bool {
        let strips = 1024 / 32;
        let gwarp = self.ctx.cta * self.app.warps + self.ctx.warp;
        if seg == 0 {
            desync(out, &mut self.ctx.apc, gwarp as u64);
            return true;
        }
        let s = seg - 1;
        if s >= self.app.steps as u64 {
            return false;
        }
        let col = ((gwarp % strips) * 32) as u64 * 4;
        let row0 = (gwarp / strips * self.app.steps) as u64 % 1000;
        let row = row0 + s + 1;
        // The previous diagonal's row (just written): up + up-left
        // share one line thanks to coalescing.
        let rb = 1 + ((s % 2) as u8) * 8;
        out.push(TraceOp::load(0, rb, coalesced(self.app.score + (row - 1) * self.app.row_bytes + col)));
        // The streamed reference matrix.
        out.push(TraceOp::load(1, rb + 2, coalesced(self.app.reference + row * self.app.row_bytes + col)));
        alu_block(out, &mut self.ctx.apc, 22, rb);
        out.push(TraceOp::store(2, coalesced(self.app.score + row * self.app.row_bytes + col)).with_srcs([rb + 2]));
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
        assert!(static_mem_ratio(&Nw::new(Scale::Tiny)) < 0.01);
    }

    #[test]
    fn reads_previous_steps_output_row() {
        let k = Nw::new(Scale::Tiny);
        let ops = k.warp_ops(0, 0);
        let stores: Vec<u64> = ops
            .iter()
            .filter_map(|o| match &o.kind {
                OpKind::Mem { addrs, is_write: true } => Some(addrs[0] / 128),
                _ => None,
            })
            .collect();
        let loads0: Vec<u64> = ops
            .iter()
            .filter_map(|o| match &o.kind {
                OpKind::Mem { addrs, is_write: false } if o.pc == 0 => Some(addrs[0] / 128),
                _ => None,
            })
            .collect();
        // Step s+1 loads (pc0) the line step s stored.
        assert_eq!(stores[0], loads0[1]);
    }
}
