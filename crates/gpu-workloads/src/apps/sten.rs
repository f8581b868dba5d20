//! STEN — 3-D Stencil (Parboil, Cache Sufficient).
//!
//! A 7-point stencil over a 512×512×64 volume. The y±1 neighbours of a
//! row return within a few thousand accesses (mid reuse distances), but
//! the z±1 neighbours live a whole 1 MB plane away — far beyond any L1D
//! — so, as Figure 3 shows for STEN, the distribution is dominated by
//! long reuse distances and compulsory misses, and no realistic L1
//! capacity captures it (Figure 4's flat miss rate).

use crate::gen::{GenStream, SegmentSource, WarpCtx};
use crate::pattern::{alu_block, coalesced, desync, AddrSpace};
use crate::registry::Scale;
use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream};

/// 3-D stencil model. See the module docs.
#[derive(Clone)]
pub struct Sten {
    ctas: usize,
    warps: usize,
    rows: usize,
    grid_base: u64,
    out: u64,
    row_bytes: u64,
    plane_bytes: u64,
}

impl Sten {
    /// Build at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (ctas, warps, rows) = match scale {
            Scale::Tiny => (4, 2, 6),
            Scale::Full | Scale::Scaled(_) => (64, 6, 40),
        };
        let rows = rows * scale.factor() as usize;
        let mut mem = AddrSpace::new();
        let row_bytes = 512 * 4;
        let plane_bytes = 512 * row_bytes;
        // The volume grows with the scale factor so the deeper row walk
        // stays inside its own region.
        let vol_bytes = 64 * plane_bytes * scale.factor();
        Sten {
            ctas,
            warps,
            rows,
            grid_base: mem.alloc(vol_bytes),
            out: mem.alloc(vol_bytes),
            row_bytes,
            plane_bytes,
        }
    }
}

impl Kernel for Sten {
    fn name(&self) -> &str {
        "STEN"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(GenStream::new(StenGen { app: self.clone(), ctx: WarpCtx::new(0, cta, warp) }))
    }
}

/// Segment 0 = desync prologue; segment 1 + r = row `r` of the strip.
struct StenGen {
    app: Sten,
    ctx: WarpCtx,
}

impl SegmentSource for StenGen {
    fn emit(&mut self, seg: u64, out: &mut Vec<TraceOp>) -> bool {
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
        let work = gwarp / strips_per_row;
        let z = (work % 62 + 1) as u64;
        let row0 = (work / 62 * self.app.rows) as u64 % 500;
        // Rotate registers so consecutive rows overlap in flight.
        let rb = 1 + ((r % 2) as u8) * 12;
        let center = self.app.grid_base + z * self.app.plane_bytes + (row0 + r) * self.app.row_bytes + col;
        out.push(TraceOp::load(0, rb, coalesced(center)));
        out.push(TraceOp::load(1, rb + 2, coalesced(center - self.app.row_bytes)));
        out.push(TraceOp::load(2, rb + 4, coalesced(center + self.app.row_bytes)));
        out.push(TraceOp::load(3, rb + 6, coalesced(center - self.app.plane_bytes)));
        out.push(TraceOp::load(4, rb + 8, coalesced(center + self.app.plane_bytes)));
        alu_block(out, &mut self.ctx.apc, 30, rb);
        out.push(
            TraceOp::store(
                5,
                coalesced(self.app.out + z * self.app.plane_bytes + (row0 + r) * self.app.row_bytes + col),
            )
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
        assert!(static_mem_ratio(&Sten::new(Scale::Tiny)) < 0.01);
    }

    #[test]
    fn z_neighbours_are_a_plane_apart() {
        let k = Sten::new(Scale::Tiny);
        let ops = k.warp_ops(0, 0);
        let addr_of = |pc: u32| {
            ops.iter()
                .find(|o| o.pc == pc && o.is_mem())
                .and_then(|o| match &o.kind {
                    OpKind::Mem { addrs, .. } => Some(addrs[0]),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(addr_of(0) - addr_of(3), k.plane_bytes);
        assert_eq!(addr_of(4) - addr_of(0), k.plane_bytes);
    }
}
