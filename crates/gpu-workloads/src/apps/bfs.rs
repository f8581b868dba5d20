//! BFS — Breadth-First Search (Rodinia, 65536 nodes, Cache
//! Insufficient).
//!
//! Frontier expansion over a sparse graph. The model reproduces the
//! per-instruction diversity Figure 7 builds the whole DLP argument on:
//!
//! * node-offset reads (pc 0) — coalesced, shared between adjacent
//!   warps → short reuse distances;
//! * edge-list reads (pc 1) — streamed, compulsory;
//! * visited-flag probes (pc 2) — community-clustered scatter over a
//!   64 KB flag array → the 9–64 bucket dominates;
//! * distance-array updates (pc 3/4) — similar mid-range distances.
//!
//! A single protection distance over-serves pc 0 and under-serves pc 2,
//! which is precisely where per-instruction PDs pull ahead.

use crate::gen::{GenStream, SegmentSource, WarpCtx};
use crate::pattern::{alu_block, coalesced, desync, AddrSpace, F4};
use crate::registry::Scale;
use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream};
use rand::Rng;

/// BFS model. See the module docs.
#[derive(Clone)]
pub struct Bfs {
    ctas: usize,
    warps: usize,
    iters: usize,
    offsets: u64,
    edges: u64,
    visited: u64,
    dist: u64,
    nodes: u64,
    seed: u64,
}

impl Bfs {
    /// Build at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (ctas, warps, iters) = match scale {
            Scale::Tiny => (8, 4, 12),
            Scale::Full | Scale::Scaled(_) => (96, 6, 28),
        };
        let iters = iters * scale.factor() as usize;
        let mut mem = AddrSpace::new();
        let nodes = 65_536u64;
        Bfs {
            ctas,
            warps,
            iters,
            offsets: mem.alloc(nodes * F4),
            // The streamed edge list grows with the scale factor so the
            // longer frontier walk stays inside its own region.
            edges: mem.alloc((16 << 20) * scale.factor()),
            visited: mem.alloc(nodes * F4),
            dist: mem.alloc(nodes * F4),
            nodes,
            seed: 0x4253,
        }
    }

    /// Pick a neighbour id: mostly within the node's community (a 2K-id
    /// window), sometimes anywhere.
    fn neighbor(&self, rng: &mut impl Rng, node: u64) -> u64 {
        if rng.gen_bool(0.8) {
            let lo = node.saturating_sub(1024).min(self.nodes - 2048);
            lo + rng.gen_range(0..2048)
        } else {
            rng.gen_range(0..self.nodes)
        }
    }
}

impl Kernel for Bfs {
    fn name(&self) -> &str {
        "BFS"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(GenStream::new(BfsGen { app: self.clone(), ctx: WarpCtx::new(self.seed, cta, warp) }))
    }
}

/// Segment 0 = desync prologue; segment 1 + i = frontier chunk `i`.
struct BfsGen {
    app: Bfs,
    ctx: WarpCtx,
}

impl SegmentSource for BfsGen {
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
        // 32 frontier nodes, contiguous ids: adjacent warps touch
        // neighbouring offset lines (short RD).
        let rb = 1 + ((i % 2) as u8) * 8;
        let node0 = (gwarp * self.app.iters as u64 + i) * 32 % (self.app.nodes - 64);
        out.push(TraceOp::load(0, rb, coalesced(self.app.offsets + node0 * F4)));
        // Stream this frontier chunk's edge list.
        let e = self.app.edges + (gwarp * self.app.iters as u64 + i) * 256;
        out.push(TraceOp::load(1, rb + 1, coalesced(e)));
        alu_block(out, &mut self.ctx.apc, 4, rb);
        // Probe visited flags + distances of 16 neighbours (the probe
        // offsets build in the reusable scratch buffer).
        self.ctx.scratch.clear();
        for _ in 0..16 {
            let o = self.app.neighbor(&mut self.ctx.rng, node0) * F4;
            self.ctx.scratch.push(o);
        }
        out.push(TraceOp::load(2, rb + 2, self.ctx.scratch.iter().map(|&o| self.app.visited + o).collect()));
        out.push(TraceOp::load(3, rb + 3, self.ctx.scratch.iter().map(|&o| self.app.dist + o).collect()));
        alu_block(out, &mut self.ctx.apc, 4, rb + 2);
        // Relax a subset.
        let updates: Vec<u64> = self.ctx.scratch.iter().take(8).map(|&o| self.app.dist + o).collect();
        out.push(TraceOp::store(4, updates).with_srcs([rb + 3]));
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
        let r = static_mem_ratio(&Bfs::new(Scale::Tiny));
        assert!(r >= 0.01, "BFS ratio {r:.4}");
    }

    #[test]
    fn probes_are_mostly_community_local() {
        let k = Bfs::new(Scale::Full);
        let mut local = 0u64;
        let mut total = 0u64;
        for op in k.warp_ops(0, 0) {
            if let OpKind::Mem { addrs, is_write: false } = &op.kind {
                if op.pc == 2 {
                    // Window is 2048 ids = 8 KB.
                    let base = addrs.iter().min().unwrap();
                    for &a in addrs {
                        total += 1;
                        if a - base <= 3 * 8192 {
                            local += 1;
                        }
                    }
                }
            }
        }
        assert!(total >= 16);
        assert!(local as f64 / total as f64 > 0.5);
    }

    #[test]
    fn distinct_static_instructions_touch_distinct_arrays() {
        let k = Bfs::new(Scale::Tiny);
        for op in k.warp_ops(1, 0) {
            if let OpKind::Mem { addrs, .. } = &op.kind {
                let region = match op.pc {
                    0 => (k.offsets, k.offsets + k.nodes * F4),
                    1 => (k.edges, k.edges + (16 << 20)),
                    2 => (k.visited, k.visited + k.nodes * F4),
                    3 | 4 => (k.dist, k.dist + k.nodes * F4),
                    _ => continue,
                };
                for &a in addrs {
                    assert!((region.0..region.1).contains(&a), "pc {} outside region", op.pc);
                }
            }
        }
    }
}
