//! GEMM — Matrix Multiply-add (Polybench 512³, Cache Sufficient).
//!
//! The shared-memory-tiled GEMM every CUDA tutorial ships: per k-tile a
//! warp loads one line of the A tile and one line of the B tile, then
//! does a full tile's worth of fused multiply-adds out of shared
//! memory. Tile lines are re-read almost immediately by the sibling
//! warps of the CTA (short reuse distances), and two transactions per
//! ~34 warp instructions keeps GEMM deep in Cache Sufficient territory.

use crate::gen::{GenStream, SegmentSource, WarpCtx};
use crate::pattern::{alu_block, coalesced, desync, AddrSpace};
use crate::registry::Scale;
use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream};

/// Tiled-GEMM model. See the module docs.
#[derive(Clone)]
pub struct Gemm {
    ctas: usize,
    warps: usize,
    ktiles: usize,
    a: u64,
    b: u64,
    c: u64,
    row_bytes: u64,
}

impl Gemm {
    /// Build at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (ctas, warps, ktiles) = match scale {
            Scale::Tiny => (4, 2, 6),
            Scale::Full | Scale::Scaled(_) => (64, 8, 16),
        };
        let ktiles = ktiles * scale.factor() as usize;
        let mut mem = AddrSpace::new();
        let row_bytes = 512 * 4;
        Gemm {
            ctas,
            warps,
            ktiles,
            a: mem.alloc(512 * row_bytes),
            b: mem.alloc(512 * row_bytes),
            c: mem.alloc(512 * row_bytes),
            row_bytes,
        }
    }
}

impl Kernel for Gemm {
    fn name(&self) -> &str {
        "GEMM"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(GenStream::new(GemmGen { app: self.clone(), ctx: WarpCtx::new(0, cta, warp) }))
    }
}

/// Segment 0 = desync prologue; segments 1..=ktiles = k-tiles; one
/// final segment = the C-tile store epilogue.
struct GemmGen {
    app: Gemm,
    ctx: WarpCtx,
}

impl SegmentSource for GemmGen {
    fn emit(&mut self, seg: u64, out: &mut Vec<TraceOp>) -> bool {
        let (cta, warp) = (self.ctx.cta, self.ctx.warp);
        if seg == 0 {
            desync(out, &mut self.ctx.apc, (cta * 64 + warp) as u64);
            return true;
        }
        // CTA computes a 32×(warps) row block; warp's row within the
        // C tile decides its A row, all warps share the B tile rows.
        let tile_row = (cta as u64 * 32) % 512;
        let a_row = (tile_row + warp as u64) % 512;
        let kt = seg - 1;
        if kt < self.app.ktiles as u64 {
            let rb = 1 + ((kt % 2) as u8) * 8;
            let k_off = kt * 128; // 32 floats per k-tile
            out.push(TraceOp::load(0, rb, coalesced(self.app.a + a_row * self.app.row_bytes + k_off)));
            // Each warp stages one B-tile row; sibling warps re-read it.
            let b_row = (kt * 32 + warp as u64) % 512;
            out.push(TraceOp::load(
                1,
                rb + 2,
                coalesced(self.app.b + b_row * self.app.row_bytes + (tile_row * 4) % self.app.row_bytes),
            ));
            alu_block(out, &mut self.ctx.apc, 32, rb);
            return true;
        }
        if kt == self.app.ktiles as u64 {
            out.push(
                TraceOp::store(2, coalesced(self.app.c + a_row * self.app.row_bytes + (tile_row * 4) % self.app.row_bytes))
                    .with_srcs([3]),
            );
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::static_mem_ratio;

    #[test]
    fn is_cache_sufficient() {
        assert!(static_mem_ratio(&Gemm::new(Scale::Tiny)) < 0.005, "GEMM is the most compute-bound app");
    }

    #[test]
    fn two_transactions_per_ktile() {
        let k = Gemm::new(Scale::Tiny);
        let (txns, _) = crate::registry::static_mem_profile(&k);
        let grid = k.grid();
        let expected = grid.total_warps() as u64 * (2 * k.ktiles as u64 + 1);
        assert_eq!(txns, expected);
    }
}
