//! KM — K-means (Rodinia, 204800 points, Cache Insufficient).
//!
//! The assignment step: each point is streamed once, then compared
//! against all K centroids. With K = 256 and 32 features per centroid
//! the centroid table is 32 KB — exactly 2× the baseline L1D — and its
//! lines recur every K centroid reads, i.e. ~8 accesses per cache set:
//! just past 4-way LRU's reach (so the baseline thrashes, Figure 3 puts
//! most of KM's RDs above the associativity), but squarely inside the
//! VTA's visibility and the protected lifetime DLP assigns. K-means is
//! the canonical protection winner.

use crate::gen::{GenStream, SegmentSource, WarpCtx};
use crate::pattern::{alu_block, coalesced, desync, AddrSpace, F4};
use crate::registry::Scale;
use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream};

/// K-means assignment-step model. See the module docs.
#[derive(Clone)]
pub struct Km {
    ctas: usize,
    warps: usize,
    points: usize,
    k: u64,
    feat_bytes: u64,
    data: u64,
    centroids: u64,
    assign: u64,
}

impl Km {
    /// Build at the given scale.
    pub fn new(scale: Scale) -> Self {
        let (ctas, warps, points, k) = match scale {
            Scale::Tiny => (8, 4, 2, 64),
            Scale::Full | Scale::Scaled(_) => (96, 6, 3, 256),
        };
        let points = points * scale.factor() as usize;
        let feat_bytes = 32 * F4; // 32 features = one 128 B line
        let mut mem = AddrSpace::new();
        Km {
            ctas,
            warps,
            points,
            k,
            feat_bytes,
            // The streamed point data grows with the scale factor so the
            // longer point walk stays inside its own region.
            data: mem.alloc((64 << 20) * scale.factor()),
            centroids: mem.alloc(k * feat_bytes),
            assign: mem.alloc(1 << 20),
        }
    }
}

impl Kernel for Km {
    fn name(&self) -> &str {
        "KM"
    }

    fn grid(&self) -> GridDesc {
        GridDesc { num_ctas: self.ctas, warps_per_cta: self.warps }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(GenStream::new(KmGen { app: self.clone(), ctx: WarpCtx::new(0, cta, warp) }))
    }
}

/// Segment 0 = desync prologue; segment 1 + p = point `p` (the whole
/// centroid distance loop — bounded by K, which does not scale).
struct KmGen {
    app: Km,
    ctx: WarpCtx,
}

impl SegmentSource for KmGen {
    fn emit(&mut self, seg: u64, out: &mut Vec<TraceOp>) -> bool {
        let gwarp = (self.ctx.cta * self.app.warps + self.ctx.warp) as u64;
        if seg == 0 {
            desync(out, &mut self.ctx.apc, gwarp);
            return true;
        }
        let p = seg - 1;
        if p >= self.app.points as u64 {
            return false;
        }
        // Stream the point's feature line.
        let pt = self.app.data + (gwarp * self.app.points as u64 + p) * self.app.feat_bytes;
        out.push(TraceOp::load(0, 1, coalesced(pt)));
        // Distance to every centroid; stagger the starting centroid
        // per warp so resident warps cover different table slices.
        let c0 = (gwarp * 17) % self.app.k;
        // Distance loop, unroll-and-jammed by 4 the way nvcc
        // schedules it: a group of independent centroid loads, then
        // the arithmetic that consumes them.
        let mut cs = 0;
        while cs < self.app.k {
            let group = (self.app.k - cs).min(4);
            for g in 0..group {
                let rb = 2 + (g as u8) * 4;
                let c = (c0 + cs + g) % self.app.k;
                out.push(TraceOp::load(1, rb, coalesced(self.app.centroids + c * self.app.feat_bytes)));
            }
            for g in 0..group {
                let rb = 2 + (g as u8) * 4;
                out.push(TraceOp::alu(64, 4).with_srcs([rb]).with_dst(rb + 1));
            }
            cs += group;
        }
        alu_block(out, &mut self.ctx.apc, 2, 3);
        out.push(TraceOp::store(2, coalesced(self.app.assign + gwarp * 128)).with_srcs([3]));
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
        let r = static_mem_ratio(&Km::new(Scale::Tiny));
        assert!(r >= 0.01, "KM ratio {r:.4}");
    }

    #[test]
    fn centroid_table_overflows_the_l1d_at_full_scale() {
        let k = Km::new(Scale::Full);
        assert_eq!(k.k * k.feat_bytes, 32 << 10);
    }

    #[test]
    fn every_centroid_line_is_read_once_per_point() {
        let k = Km::new(Scale::Tiny);
        let mut counts: std::collections::HashMap<u64, usize> = Default::default();
        for op in k.warp_ops(0, 0) {
            if let OpKind::Mem { addrs, is_write: false } = &op.kind {
                if op.pc == 1 {
                    *counts.entry(addrs[0] / 128).or_default() += 1;
                }
            }
        }
        assert_eq!(counts.len() as u64, k.k, "all centroids touched");
        assert!(counts.values().all(|&c| c == k.points), "each centroid once per point");
    }
}
