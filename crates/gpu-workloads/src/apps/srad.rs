//! SRAD — Speckle Reducing Anisotropic Diffusion (Rodinia, Cache
//! Sufficient).
//!
//! A 512×512 image-diffusion kernel: each cell reads its four
//! neighbours and a diffusion-coefficient grid, with a long chain of
//! floating-point work per cell. Row-to-row reuse gives SRAD the short
//! reuse distances and the relatively high L1D hit rate the paper notes
//! in §6.3.1 — which is exactly why Stall-Bypass (which discards those
//! reuses) loses 11 % IPC on it while the protecting schemes do not.

use crate::gen::{GenStream, SegmentSource, WarpCtx};
use crate::pattern::{alu_block, coalesced, desync, AddrSpace};
use crate::registry::Scale;
use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream};

/// SRAD model. See the module docs.
#[derive(Clone)]
pub struct Srad {
    ctas: usize,
    warps: usize,
    rows: usize,
    image: u64,
    coeff: u64,
    out: u64,
    row_bytes: u64,
}

impl Srad {
    /// Build at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (ctas, warps, rows) = match scale {
            Scale::Tiny => (4, 2, 8),
            Scale::Full | Scale::Scaled(_) => (64, 6, 44),
        };
        let rows = rows * scale.factor() as usize;
        let mut mem = AddrSpace::new();
        let row_bytes = 512 * 4;
        // Grids grow with the scale factor so the deeper row walk stays
        // inside its own region.
        let grid_bytes = 512 * row_bytes * scale.factor();
        Srad {
            ctas,
            warps,
            rows,
            image: mem.alloc(grid_bytes),
            coeff: mem.alloc(grid_bytes),
            out: mem.alloc(grid_bytes),
            row_bytes,
        }
    }
}

impl Kernel for Srad {
    fn name(&self) -> &str {
        "SRAD"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(GenStream::new(SradGen { app: self.clone(), ctx: WarpCtx::new(0, cta, warp) }))
    }
}

/// Segment 0 = desync prologue; segment 1 + r = row `r` of the strip.
struct SradGen {
    app: Srad,
    ctx: WarpCtx,
}

impl SegmentSource for SradGen {
    fn emit(&mut self, seg: u64, out: &mut Vec<TraceOp>) -> bool {
        let strips = 512 / 32;
        let gwarp = self.ctx.cta * self.app.warps + self.ctx.warp;
        if seg == 0 {
            desync(out, &mut self.ctx.apc, gwarp as u64);
            return true;
        }
        let r = seg - 1;
        if r >= self.app.rows as u64 {
            return false;
        }
        let col = ((gwarp % strips) * 32) as u64 * 4;
        let row0 = (gwarp / strips * self.app.rows) as u64 % 500;
        let rb = 1 + ((r % 2) as u8) * 8;
        let center = self.app.image + (row0 + r + 1) * self.app.row_bytes + col;
        out.push(TraceOp::load(0, rb, coalesced(center)));
        out.push(TraceOp::load(1, rb + 2, coalesced(center - self.app.row_bytes)));
        out.push(TraceOp::load(2, rb + 4, coalesced(center + self.app.row_bytes)));
        out.push(TraceOp::load(3, rb + 6, coalesced(self.app.coeff + (row0 + r + 1) * self.app.row_bytes + col)));
        alu_block(out, &mut self.ctx.apc, 26, rb);
        out.push(
            TraceOp::store(4, coalesced(self.app.out + (row0 + r + 1) * self.app.row_bytes + col))
                .with_srcs([rb + 2]),
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::static_mem_ratio;

    #[test]
    fn is_cache_sufficient() {
        assert!(static_mem_ratio(&Srad::new(Scale::Tiny)) < 0.01);
    }

    #[test]
    fn neighbour_rows_overlap_between_iterations() {
        use gpu_sim::isa::OpKind;
        let k = Srad::new(Scale::Tiny);
        let ops = k.warp_ops(0, 0);
        let lines: Vec<_> = ops
            .iter()
            .filter_map(|o| match &o.kind {
                OpKind::Mem { addrs, is_write: false } => Some((o.pc, addrs[0] / 128)),
                _ => None,
            })
            .collect();
        // "down" of iteration 0 (pc2) == "center" of iteration 1 (pc0).
        let down0 = lines.iter().find(|(pc, _)| *pc == 2).unwrap().1;
        let center1 = lines.iter().filter(|(pc, _)| *pc == 0).nth(1).unwrap().1;
        assert_eq!(down0, center1);
    }
}
