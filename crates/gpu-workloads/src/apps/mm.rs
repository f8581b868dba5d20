//! MM — Matrix Multiplication (Mars, 256×256, Cache Insufficient).
//!
//! Mars' MapReduce matrix multiply is the *untiled* classroom kernel:
//! thread (i,j) walks k, loading `A[i][k]` (a per-warp broadcast whose
//! line is reused for 32 consecutive k's — very short RD) and `B[k][j]`
//! (one coalesced line per k, revisited only when another warp with the
//! same j-block reaches the same k — mid/long RD). The result is the
//! spread-across-all-buckets RDD the paper reports for MM in §3.1
//! (19.5 / 35.8 / 33.2 / 11.5 % across the four ranges).

use crate::gen::{GenStream, SegmentSource, WarpCtx};
use crate::pattern::{coalesced, desync, AddrSpace, F4};
use crate::registry::Scale;
use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream};

/// Untiled matrix-multiply model. See the module docs.
#[derive(Clone)]
pub struct Mm {
    ctas: usize,
    warps: usize,
    n: u64,
    ksteps: usize,
    a: u64,
    b: u64,
    c: u64,
}

impl Mm {
    /// Build at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (ctas, warps, ksteps) = match scale {
            Scale::Tiny => (8, 4, 160),
            Scale::Full | Scale::Scaled(_) => (96, 6, 96),
        };
        let ksteps = ksteps * scale.factor() as usize;
        let n = 256u64;
        let mut mem = AddrSpace::new();
        Mm {
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

impl Kernel for Mm {
    fn name(&self) -> &str {
        "MM"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(GenStream::new(MmGen { app: self.clone(), ctx: WarpCtx::new(0, cta, warp) }))
    }
}

/// Segment 0 = desync prologue; segment 1 + n = the unroll-and-jam
/// group starting at k-step `4n`; one final segment = the C store.
struct MmGen {
    app: Mm,
    ctx: WarpCtx,
}

impl SegmentSource for MmGen {
    fn emit(&mut self, seg: u64, out: &mut Vec<TraceOp>) -> bool {
        let gwarp = (self.ctx.cta * self.app.warps + self.ctx.warp) as u64;
        if seg == 0 {
            desync(out, &mut self.ctx.apc, gwarp);
            return true;
        }
        // Warp computes C[i][j0..j0+32); i and j-block derived from id.
        let jblocks = self.app.n / 32;
        let i = gwarp % self.app.n;
        let j0 = (self.ctx.cta as u64 % jblocks) * 32;
        let row_bytes = self.app.n * F4;
        let k0 = (gwarp * 7) % self.app.n; // stagger start to spread B reuse
        let ksteps = self.app.ksteps as u64;
        let ngroups = ksteps.div_ceil(4);
        let step = (seg - 1) * 4;
        if seg - 1 < ngroups {
            // The A row is staged once per 32-k tile (the kernel keeps
            // it in registers/shared memory), so the L1D only sees the
            // B stream — whose lines recur when other warps with the
            // same j-block reach the same k, at set distances beyond
            // plain LRU.
            if step % 32 == 0 {
                let k = (k0 + step) % self.app.n;
                out.push(TraceOp::load(0, 20, coalesced(self.app.a + i * row_bytes + (k / 32) * 128)));
            }
            let group = (ksteps - step).min(4);
            for g in 0..group {
                let rb = 1 + (g as u8) * 4;
                let k = (k0 + step + g) % self.app.n;
                out.push(TraceOp::load(1, rb, coalesced(self.app.b + k * row_bytes + j0 * F4)));
            }
            for g in 0..group {
                let rb = 1 + (g as u8) * 4;
                out.push(TraceOp::alu(64, 4).with_srcs([rb, 20]).with_dst(rb + 1));
                out.push(TraceOp::alu(64, 4).with_srcs([rb + 1]).with_dst(rb + 2));
            }
            return true;
        }
        if seg - 1 == ngroups {
            out.push(TraceOp::store(2, coalesced(self.app.c + i * row_bytes + j0 * F4)).with_srcs([3]));
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
        let r = static_mem_ratio(&Mm::new(Scale::Tiny));
        assert!(r >= 0.01, "MM ratio {r:.4}");
    }

    #[test]
    fn a_tile_is_staged_once_per_32_ksteps() {
        let k = Mm::new(Scale::Tiny);
        let a_loads = k
            .warp_ops(0, 0)
            .iter()
            .filter(|o| o.pc == 0 && o.is_mem())
            .count();
        assert_eq!(a_loads, k.ksteps.div_ceil(32));
    }

    #[test]
    fn b_lines_change_every_k() {
        let k = Mm::new(Scale::Tiny);
        let lines: Vec<u64> = k
            .warp_ops(0, 0)
            .iter()
            .filter_map(|o| match &o.kind {
                OpKind::Mem { addrs, is_write: false } if o.pc == 1 => Some(addrs[0] / 128),
                _ => None,
            })
            .collect();
        let distinct: std::collections::HashSet<_> = lines.iter().collect();
        assert_eq!(distinct.len(), lines.len(), "each k reads a fresh B line");
    }
}
