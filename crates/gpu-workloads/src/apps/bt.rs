//! BT — B+tree (Rodinia, Cache Sufficient).
//!
//! Batched key lookups walking a four-level B+tree. Sorted query
//! batches keep the upper levels well coalesced and hot — the root and
//! second level hit almost always (BT has one of the highest baseline
//! hit rates in Figure 12a) — while leaf probes scatter over a large
//! region. Stall-Bypass throwing those upper-level reuses away is what
//! costs it 12 % on BT in §6.1.1.

use crate::gen::{GenStream, SegmentSource, WarpCtx};
use crate::pattern::{alu_block, broadcast, desync, scatter, AddrSpace};
use crate::registry::Scale;
use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream};

/// B+tree lookup model. See the module docs.
#[derive(Clone)]
pub struct Bt {
    ctas: usize,
    warps: usize,
    queries: usize,
    root: u64,
    level1: u64,
    level2: u64,
    leaves: u64,
    seed: u64,
}

impl Bt {
    /// Build at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (ctas, warps, queries) = match scale {
            Scale::Tiny => (4, 2, 4),
            Scale::Full | Scale::Scaled(_) => (64, 6, 20),
        };
        let queries = queries * scale.factor() as usize;
        let mut mem = AddrSpace::new();
        Bt {
            ctas,
            warps,
            queries,
            root: mem.alloc(128),          // one line
            level1: mem.alloc(4 << 10),    // 32 lines, resident
            level2: mem.alloc(128 << 10),  // 1 Ki lines, partly resident
            leaves: mem.alloc(8 << 20),    // far beyond any L1
            seed: 0x4254,
        }
    }
}

impl Kernel for Bt {
    fn name(&self) -> &str {
        "BT"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(GenStream::new(BtGen { app: self.clone(), ctx: WarpCtx::new(self.seed, cta, warp) }))
    }
}

/// Segment 0 = desync prologue; segment 1 + q = query `q`'s tree walk.
struct BtGen {
    app: Bt,
    ctx: WarpCtx,
}

impl SegmentSource for BtGen {
    fn emit(&mut self, seg: u64, out: &mut Vec<TraceOp>) -> bool {
        if seg == 0 {
            desync(out, &mut self.ctx.apc, (self.ctx.cta * 64 + self.ctx.warp) as u64);
            return true;
        }
        let q = (seg - 1) as usize;
        if q >= self.app.queries {
            return false;
        }
        let rb = 1 + ((q % 2) as u8) * 8;
        // Root: one broadcast line, hot across every warp.
        out.push(TraceOp::load(0, rb, broadcast(self.app.root)));
        alu_block(out, &mut self.ctx.apc, 30, rb);
        // Level 1: sorted keys land in a couple of nodes.
        let l1 = scatter(&mut self.ctx.rng, self.app.level1, 4 << 10, 2);
        out.push(TraceOp::load(1, rb + 2, l1));
        alu_block(out, &mut self.ctx.apc, 30, rb + 2);
        // Level 2: more nodes, still some sharing — sorted query
        // batches keep a warp inside a few nodes.
        let l2 = scatter(&mut self.ctx.rng, self.app.level2, 128 << 10, 4);
        out.push(TraceOp::load(2, rb + 4, l2));
        alu_block(out, &mut self.ctx.apc, 30, rb + 4);
        // Leaves: essentially random, compulsory territory.
        let lf = scatter(&mut self.ctx.rng, self.app.leaves, 8 << 20, 8);
        out.push(TraceOp::load(3, rb + 6, lf));
        alu_block(out, &mut self.ctx.apc, 30, rb + 6);
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
        let r = static_mem_ratio(&Bt::new(Scale::Tiny));
        assert!(r < 0.01, "BT ratio {r:.4}");
    }

    #[test]
    fn root_is_shared_by_all_warps() {
        let k = Bt::new(Scale::Tiny);
        let root_line = k.root / 128;
        for w in 0..2 {
            let ops = k.warp_ops(0, w);
            let first_mem = ops.iter().find(|o| o.is_mem()).unwrap();
            match &first_mem.kind {
                OpKind::Mem { addrs, .. } => {
                    assert!(addrs.iter().all(|&a| a / 128 == root_line))
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn levels_have_increasing_footprints() {
        let k = Bt::new(Scale::Tiny);
        let mut per_pc: std::collections::HashMap<u32, std::collections::HashSet<u64>> =
            Default::default();
        for cta in 0..k.ctas {
            for w in 0..k.warps {
                for op in k.warp_ops(cta, w) {
                    if let OpKind::Mem { addrs, .. } = &op.kind {
                        per_pc.entry(op.pc).or_default().extend(addrs.iter().map(|a| a / 128));
                    }
                }
            }
        }
        assert!(per_pc[&0].len() <= per_pc[&1].len());
        assert!(per_pc[&1].len() < per_pc[&2].len());
        assert!(per_pc[&2].len() < per_pc[&3].len());
    }
}
