//! CFD — Computational Fluid Dynamics (Rodinia, Cache Insufficient).
//!
//! The 97K-element unstructured-mesh Euler solver: per element the
//! kernel streams its own state vectors and gathers four neighbours
//! through an indirection array. Neighbours of nearby elements cluster
//! (the mesh is locality-renumbered), so gathered lines return at mid
//! reuse distances — but the footprint is far beyond 16 KB, so the
//! baseline thrashes. CFD is one of the apps where DLP trades some raw
//! hits for bypass-relieved stalls (§6.3.2) and still wins on IPC.

use crate::gen::{GenStream, SegmentSource, WarpCtx};
use crate::pattern::{alu_block, coalesced, desync, AddrSpace, F4};
use crate::registry::Scale;
use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream};
use rand::Rng;

/// CFD flux-kernel model. See the module docs.
#[derive(Clone)]
pub struct Cfd {
    ctas: usize,
    warps: usize,
    iters: usize,
    density: u64,
    momentum: u64,
    energy: u64,
    mesh_bytes: u64,
    flux: u64,
    seed: u64,
}

impl Cfd {
    /// Build at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (ctas, warps, iters) = match scale {
            Scale::Tiny => (8, 4, 10),
            Scale::Full | Scale::Scaled(_) => (96, 6, 24),
        };
        let iters = iters * scale.factor() as usize;
        let mut mem = AddrSpace::new();
        let mesh_bytes = 97_046u64.next_multiple_of(32) * F4;
        Cfd {
            ctas,
            warps,
            iters,
            density: mem.alloc(mesh_bytes),
            momentum: mem.alloc(mesh_bytes * 3),
            energy: mem.alloc(mesh_bytes),
            mesh_bytes,
            flux: mem.alloc(mesh_bytes * 5),
            seed: 0x4346,
        }
    }
}

impl Kernel for Cfd {
    fn name(&self) -> &str {
        "CFD"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(GenStream::new(CfdGen { app: self.clone(), ctx: WarpCtx::new(self.seed, cta, warp) }))
    }
}

/// Segment 0 = desync prologue; segment 1 + i = element batch `i`.
struct CfdGen {
    app: Cfd,
    ctx: WarpCtx,
}

impl SegmentSource for CfdGen {
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
        // This warp's 32 elements (struct-of-arrays, coalesced).
        let elem = ((gwarp * self.app.iters as u64 + i) * 128) % (self.app.mesh_bytes - 128);
        let rb = 1 + ((i % 2) as u8) * 16;
        out.push(TraceOp::load(0, rb, coalesced(self.app.density + elem)));
        out.push(TraceOp::load(1, rb + 1, coalesced(self.app.momentum + elem)));
        out.push(TraceOp::load(2, rb + 2, coalesced(self.app.energy + elem)));
        // Gather 4 neighbours per element; the renumbered mesh keeps
        // them within a ±16 KB window of the element, so other
        // warps' gathers revisit these lines at mid distances.
        for (pc, reg) in [(3u32, rb + 3), (4, rb + 4), (5, rb + 5), (6, rb + 6)] {
            let addrs: Vec<u64> = (0..16)
                .map(|_| {
                    let center = (self.app.density + elem) as i64;
                    let off = self.ctx.rng.gen_range(-(16 << 10)..(16 << 10)) / 4 * 4;
                    let a = center + off;
                    a.clamp(self.app.density as i64, (self.app.density + self.app.mesh_bytes - 4) as i64)
                        as u64
                })
                .collect();
            out.push(TraceOp::load(pc, reg, addrs));
        }
        alu_block(out, &mut self.ctx.apc, 10, rb + 7);
        out.push(TraceOp::store(7, coalesced(self.app.flux + elem)).with_srcs([rb + 1]));
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
        let r = static_mem_ratio(&Cfd::new(Scale::Tiny));
        assert!(r >= 0.01, "CFD ratio {r:.4}");
    }

    #[test]
    fn gathers_stay_near_their_element() {
        let k = Cfd::new(Scale::Tiny);
        let ops = k.warp_ops(0, 0);
        let mut elem_base = 0;
        for op in &ops {
            if let OpKind::Mem { addrs, .. } = &op.kind {
                match op.pc {
                    0 => elem_base = addrs[0],
                    3..=6 => {
                        for &a in addrs {
                            let d = a.abs_diff(elem_base);
                            assert!(d <= (16 << 10) + 128, "gather {d} bytes away");
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}
