//! SR2K — Symmetric Rank-2k update (Polybench, 256×256, Cache
//! Insufficient).
//!
//! `C[i][j] += A[i][k]·B[j][k] + B[i][k]·A[j][k]`: SRK with the gather
//! working set doubled (columns of both A and B). The combined strided
//! set is well past what doubling the cache to 8 ways captures, while
//! protected lines still serve every pass — this is one of the two
//! applications (§6.1.2) where DLP on a 16 KB cache *beats* the 32 KB
//! configuration.

use crate::gen::{GenStream, SegmentSource, WarpCtx};
use crate::pattern::{AddrSpace, F4, coalesced, desync, strided};
use crate::registry::Scale;
use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream};

/// Symmetric rank-2k model. See the module docs.
#[derive(Clone)]
pub struct Sr2k {
    ctas: usize,
    warps: usize,
    n: u64,
    ksteps: usize,
    a: u64,
    b: u64,
    c: u64,
}

impl Sr2k {
    /// Build at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (ctas, warps, ksteps) = match scale {
            Scale::Tiny => (8, 4, 20),
            Scale::Full | Scale::Scaled(_) => (64, 6, 48),
        };
        let ksteps = ksteps * scale.factor() as usize;
        let n = 256u64;
        let mut mem = AddrSpace::new();
        Sr2k {
            ctas,
            warps,
            n,
            ksteps,
            a: mem.alloc(n * n * F4),
            b: mem.alloc(n * n * F4),
            c: mem.alloc(n * n * F4),
        }
    }
}

impl Kernel for Sr2k {
    fn name(&self) -> &str {
        "SR2K"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(GenStream::new(Sr2kGen { app: self.clone(), ctx: WarpCtx::new(0, cta, warp) }))
    }
}

/// Segment 0 = desync prologue; segment 1 + n = the unroll-and-jam
/// group starting at k-step `2n`; one final segment = the C store.
struct Sr2kGen {
    app: Sr2k,
    ctx: WarpCtx,
}

impl SegmentSource for Sr2kGen {
    fn emit(&mut self, seg: u64, out: &mut Vec<TraceOp>) -> bool {
        let gwarp = (self.ctx.cta * self.app.warps + self.ctx.warp) as u64;
        if seg == 0 {
            desync(out, &mut self.ctx.apc, gwarp);
            return true;
        }
        let row_bytes = self.app.n * F4;
        let i = gwarp % self.app.n;
        let j0 = (self.ctx.cta as u64 * 32) % self.app.n;
        let ksteps = self.app.ksteps as u64;
        let ngroups = ksteps.div_ceil(2);
        let step = (seg - 1) * 2;
        if seg - 1 < ngroups {
            // The A[i][*]/B[i][*] row segments are staged once per 32-k
            // tile; the L1D sees the two column gathers, a working set
            // twice SRK's — past what 8 ways capture, within
            // protection's reach.
            if step % 32 == 0 {
                let k = (gwarp % 8 + step * 8) % self.app.n;
                out.push(TraceOp::load(0, 20, coalesced(self.app.a + i * row_bytes + (k / 32) * 128)));
                out.push(TraceOp::load(1, 22, coalesced(self.app.b + i * row_bytes + (k / 32) * 128)));
            }
            let group = (ksteps - step).min(2);
            for g in 0..group {
                let rb = 1 + (g as u8) * 8;
                let k = (gwarp % 8 + (step + g) * 8) % self.app.n;
                out.push(TraceOp::load(2, rb, strided(self.app.a + j0 * row_bytes + k * F4, row_bytes)));
                out.push(TraceOp::load(3, rb + 1, strided(self.app.b + j0 * row_bytes + k * F4, row_bytes)));
            }
            for g in 0..group {
                let rb = 1 + (g as u8) * 8;
                out.push(TraceOp::alu(64, 4).with_srcs([rb, 20]).with_dst(rb + 2));
                out.push(TraceOp::alu(64, 4).with_srcs([rb + 1, 22]).with_dst(rb + 3));
                out.push(TraceOp::alu(64, 4).with_srcs([rb + 2, rb + 3]).with_dst(rb + 4));
            }
            return true;
        }
        if seg - 1 == ngroups {
            out.push(TraceOp::store(4, strided(self.app.c + i * row_bytes + j0 * F4, F4)).with_srcs([2]));
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::static_mem_ratio;
    use gpu_sim::isa::OpKind;

    #[test]
    fn is_cache_insufficient() {
        let r = static_mem_ratio(&Sr2k::new(Scale::Tiny));
        assert!(r >= 0.01, "SR2K ratio {r:.4}");
    }

    #[test]
    fn gather_working_set_doubles_srk() {
        let mine = Sr2k::new(Scale::Tiny);
        let mut lines = std::collections::HashSet::new();
        for op in mine.warp_ops(0, 0) {
            if let OpKind::Mem { addrs, is_write: false } = &op.kind {
                if op.pc == 2 || op.pc == 3 {
                    lines.extend(addrs.iter().map(|a| a / 128));
                }
            }
        }
        // 32 A-lines + 32 B-lines per k-window.
        assert!(lines.len() >= 64);
    }
}
