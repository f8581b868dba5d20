//! SRK — Symmetric Rank-k update (Polybench, 256×256, Cache
//! Insufficient).
//!
//! `C[i][j] += A[i][k] * A[j][k]`: thread (i,j) broadcasts `A[i][k]`
//! (short RD) and gathers `A[j][k]` down a column of A — 32 row-strided
//! transactions per k whose lines each serve 32 consecutive k's. One
//! warp's strided working set is 32 lines; with tens of warps resident
//! the interleaved set-level distances land beyond 4-way LRU but within
//! protection reach — the classic inter-warp thrashing DLP recovers.

use crate::gen::{GenStream, SegmentSource, WarpCtx};
use crate::pattern::{AddrSpace, F4, coalesced, desync, strided};
use crate::registry::Scale;
use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream};

/// Symmetric rank-k model. See the module docs.
#[derive(Clone)]
pub struct Srk {
    ctas: usize,
    warps: usize,
    n: u64,
    ksteps: usize,
    a: u64,
    c: u64,
}

impl Srk {
    /// Build at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (ctas, warps, ksteps) = match scale {
            Scale::Tiny => (8, 4, 24),
            Scale::Full | Scale::Scaled(_) => (64, 6, 64),
        };
        let ksteps = ksteps * scale.factor() as usize;
        let n = 256u64;
        let mut mem = AddrSpace::new();
        Srk { ctas, warps, n, ksteps, a: mem.alloc(n * n * F4), c: mem.alloc(n * n * F4) }
    }
}

impl Kernel for Srk {
    fn name(&self) -> &str {
        "SRK"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(GenStream::new(SrkGen { app: self.clone(), ctx: WarpCtx::new(0, cta, warp) }))
    }
}

/// Segment 0 = desync prologue; segment 1 + n = the unroll-and-jam
/// group starting at k-step `3n`; one final segment = the C store.
struct SrkGen {
    app: Srk,
    ctx: WarpCtx,
}

impl SegmentSource for SrkGen {
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
        let ngroups = ksteps.div_ceil(3);
        let step = (seg - 1) * 3;
        if seg - 1 < ngroups {
            // The A[i][*] row segment is staged once per 32-k tile; the
            // L1D sees the A[j][*] column gather, whose lines are
            // re-read both across this warp's k-steps (one line spans 32
            // k's) and by the other warps sharing the j-block.
            if step % 32 == 0 {
                let k = (gwarp % 8 + step * 8) % self.app.n;
                out.push(TraceOp::load(0, 20, coalesced(self.app.a + i * row_bytes + (k / 32) * 128)));
            }
            let group = (ksteps - step).min(3);
            for g in 0..group {
                let rb = 1 + (g as u8) * 6;
                let k = (gwarp % 8 + (step + g) * 8) % self.app.n;
                // A[j][k] for j = j0..j0+32: column gather, one line per row.
                out.push(TraceOp::load(1, rb, strided(self.app.a + j0 * row_bytes + k * F4, row_bytes)));
            }
            for g in 0..group {
                let rb = 1 + (g as u8) * 6;
                out.push(TraceOp::alu(64, 4).with_srcs([rb, 20]).with_dst(rb + 1));
                out.push(TraceOp::alu(64, 4).with_srcs([rb + 1]).with_dst(rb + 2));
                out.push(TraceOp::alu(64, 4).with_srcs([rb + 2]).with_dst(rb + 3));
                out.push(TraceOp::alu(64, 4).with_srcs([rb + 3]).with_dst(rb + 4));
                out.push(TraceOp::alu(64, 4).with_srcs([rb + 4]).with_dst(rb + 5));
            }
            return true;
        }
        if seg - 1 == ngroups {
            out.push(TraceOp::store(2, strided(self.app.c + i * row_bytes + j0 * F4, F4)).with_srcs([3]));
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
        let r = static_mem_ratio(&Srk::new(Scale::Tiny));
        assert!(r >= 0.01, "SRK ratio {r:.4}");
    }

    #[test]
    fn column_gather_touches_32_distinct_lines() {
        let k = Srk::new(Scale::Tiny);
        let op = k
            .warp_ops(0, 0)
            .into_iter()
            .find(|o| o.pc == 1 && o.is_mem())
            .unwrap();
        match &op.kind {
            OpKind::Mem { addrs, .. } => {
                let lines: std::collections::HashSet<_> = addrs.iter().map(|a| a / 128).collect();
                assert_eq!(lines.len(), 32);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn gather_lines_recur_across_k_steps() {
        let k = Srk::new(Scale::Tiny);
        let mut all = Vec::new();
        for op in k.warp_ops(0, 0) {
            if let OpKind::Mem { addrs, is_write: false } = &op.kind {
                if op.pc == 1 {
                    all.extend(addrs.iter().map(|a| a / 128));
                }
            }
        }
        let distinct: std::collections::HashSet<_> = all.iter().collect();
        assert!(distinct.len() < all.len(), "strided lines must be re-read");
    }
}
