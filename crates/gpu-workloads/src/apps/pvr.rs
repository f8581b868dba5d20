//! PVR — Page View Rank (Mars, Cache Insufficient).
//!
//! The MapReduce page-view-rank job streams 250K log records and
//! accumulates per-page counters in a rank table. Records are
//! compulsory traffic; the rank table is several caches large and keyed
//! by page popularity, so its lines come back at long reuse distances —
//! the profile that makes PVR thrash the baseline and respond to
//! bypassing more than to extra hits (§6.3.2 notes DLP wins on PVR with
//! *fewer* hits than baseline).

use crate::gen::{GenStream, SegmentSource, WarpCtx};
use crate::pattern::{alu_block, coalesced, desync, scatter_into, AddrSpace};
use crate::registry::Scale;
use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream};
use rand::Rng;

/// Page View Rank model. See the module docs.
#[derive(Clone)]
pub struct Pvr {
    ctas: usize,
    warps: usize,
    iters: usize,
    records: u64,
    ranks: u64,
    rank_bytes: u64,
    hot_bytes: u64,
    seed: u64,
}

impl Pvr {
    /// Build at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (ctas, warps, iters) = match scale {
            Scale::Tiny => (8, 4, 12),
            Scale::Full | Scale::Scaled(_) => (96, 6, 28),
        };
        let iters = iters * scale.factor() as usize;
        let mut mem = AddrSpace::new();
        let rank_bytes = 256 << 10;
        Pvr {
            ctas,
            warps,
            iters,
            // The streamed record log grows with the scale factor so
            // the longer stream stays inside its own region.
            records: mem.alloc((64 << 20) * scale.factor()),
            ranks: mem.alloc(rank_bytes),
            rank_bytes,
            // 20% of pages take 80% of the hits.
            hot_bytes: 32 << 10,
            seed: 0x5652,
        }
    }
}

impl Kernel for Pvr {
    fn name(&self) -> &str {
        "PVR"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(GenStream::new(PvrGen { app: self.clone(), ctx: WarpCtx::new(self.seed, cta, warp) }))
    }
}

/// Segment 0 = desync prologue; segment 1 + i = record `i`.
struct PvrGen {
    app: Pvr,
    ctx: WarpCtx,
}

impl SegmentSource for PvrGen {
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
        // One record = two lines of log data, streamed.
        let rb = 1 + ((i % 2) as u8) * 8;
        let rec = self.app.records + (gwarp * self.app.iters as u64 + i) * 256;
        out.push(TraceOp::load(0, rb, coalesced(rec)));
        out.push(TraceOp::load(1, rb + 1, coalesced(rec + 128)));
        alu_block(out, &mut self.ctx.apc, 6, rb);
        // Rank-table update: popularity-skewed scatter.
        let region = if self.ctx.rng.gen_bool(0.7) { self.app.hot_bytes } else { self.app.rank_bytes };
        self.ctx.scratch.clear();
        scatter_into(&mut self.ctx.rng, &mut self.ctx.scratch, self.app.ranks, region, 16);
        out.push(TraceOp::load(2, rb + 2, self.ctx.scratch.clone()));
        alu_block(out, &mut self.ctx.apc, 4, rb + 2);
        out.push(TraceOp::store(3, self.ctx.scratch.clone()).with_srcs([rb + 2]));
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
        let r = static_mem_ratio(&Pvr::new(Scale::Tiny));
        assert!(r >= 0.01, "PVR ratio {r:.4}");
    }

    #[test]
    fn rank_accesses_are_skewed_toward_hot_pages() {
        let k = Pvr::new(Scale::Full);
        let mut hot = 0u64;
        let mut total = 0u64;
        for w in 0..4 {
            for op in k.warp_ops(0, w) {
                if let OpKind::Mem { addrs, is_write: false } = &op.kind {
                    if op.pc == 2 {
                        for &a in addrs {
                            total += 1;
                            if a < k.ranks + k.hot_bytes {
                                hot += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(total > 0);
        let frac = hot as f64 / total as f64;
        assert!(frac > 0.6, "hot fraction {frac:.2} too low");
    }
}
