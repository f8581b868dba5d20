//! HS — Hotspot (Rodinia, Cache Sufficient).
//!
//! Hotspot's 512×512 thermal simulation reads each cell's temperature,
//! its vertical neighbours and the power grid, with heavy floating-point
//! work per cell. A warp walking down a column strip re-reads the row it
//! just produced as the "up" neighbour of the next iteration — short
//! reuse distances — and the low memory-access ratio makes the kernel
//! compute-bound (Figure 5: insensitive to L1D size).

use crate::gen::{GenStream, SegmentSource, WarpCtx};
use crate::pattern::{alu_block, coalesced, desync, AddrSpace};
use crate::registry::Scale;
use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream};

/// Hotspot model. See the module docs.
#[derive(Clone)]
pub struct Hs {
    ctas: usize,
    warps: usize,
    rows: usize,
    temp: u64,
    power: u64,
    out: u64,
    row_bytes: u64,
}

impl Hs {
    /// Build at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (ctas, warps, rows) = match scale {
            Scale::Tiny => (4, 2, 8),
            Scale::Full | Scale::Scaled(_) => (64, 6, 48),
        };
        let rows = rows * scale.factor() as usize;
        let mut mem = AddrSpace::new();
        let row_bytes = 512 * 4;
        // Grids grow with the scale factor so the deeper row walk stays
        // inside its own region.
        let grid_bytes = 512 * row_bytes * scale.factor();
        Hs {
            ctas,
            warps,
            rows,
            temp: mem.alloc(grid_bytes),
            power: mem.alloc(grid_bytes),
            out: mem.alloc(grid_bytes),
            row_bytes,
        }
    }
}

impl Kernel for Hs {
    fn name(&self) -> &str {
        "HS"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(GenStream::new(HsGen { app: self.clone(), ctx: WarpCtx::new(0, cta, warp) }))
    }
}

/// Segment 0 = desync prologue; segment 1 + r = row `r` of the strip.
struct HsGen {
    app: Hs,
    ctx: WarpCtx,
}

impl SegmentSource for HsGen {
    fn emit(&mut self, seg: u64, out: &mut Vec<TraceOp>) -> bool {
        // Each warp owns a 32-column strip and walks `rows` rows down.
        let strips_per_row = 512 / 32;
        let gwarp = self.ctx.cta * self.app.warps + self.ctx.warp;
        if seg == 0 {
            desync(out, &mut self.ctx.apc, gwarp as u64);
            return true;
        }
        let r = seg - 1;
        if r >= self.app.rows as u64 {
            return false;
        }
        let col = ((gwarp % strips_per_row) * 32) as u64 * 4;
        let row0 = (gwarp / strips_per_row * self.app.rows) as u64 % 500;
        // Rotate registers so consecutive rows overlap in flight.
        let rb = 1 + ((r % 2) as u8) * 8;
        let center = self.app.temp + (row0 + r + 1) * self.app.row_bytes + col;
        let up = center - self.app.row_bytes;
        let down = center + self.app.row_bytes;
        out.push(TraceOp::load(0, rb, coalesced(center)));
        out.push(TraceOp::load(1, rb + 2, coalesced(up)));
        out.push(TraceOp::load(2, rb + 4, coalesced(down)));
        out.push(TraceOp::load(3, rb + 6, coalesced(self.app.power + (row0 + r + 1) * self.app.row_bytes + col)));
        alu_block(out, &mut self.ctx.apc, 30, rb);
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
    use gpu_sim::isa::OpKind;

    #[test]
    fn is_cache_sufficient() {
        assert!(static_mem_ratio(&Hs::new(Scale::Tiny)) < 0.01);
    }

    #[test]
    fn down_row_is_reused_as_next_center() {
        let k = Hs::new(Scale::Tiny);
        let ops = k.warp_ops(0, 0);
        let line_of = |pc: u32, nth: usize| {
            ops.iter()
                .filter(|o| o.pc == pc && o.is_mem())
                .nth(nth)
                .and_then(|o| match &o.kind {
                    OpKind::Mem { addrs, .. } => Some(addrs[0] / 128),
                    _ => None,
                })
                .unwrap()
        };
        // The "down" line of iteration r equals the "center" line of
        // iteration r+1 -> short reuse distance.
        assert_eq!(line_of(2, 0), line_of(0, 1));
    }
}
