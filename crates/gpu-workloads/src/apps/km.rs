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
//!
//! The generator emits one unroll-and-jam group of the distance loop
//! (four centroid loads and their arithmetic) per segment, so a warp
//! buffers about 1.7 KiB of trace at a time, not a whole 257-load point.

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
        Box::new(GenStream::new(KmGen { app: self.clone(), ctx: WarpCtx::new(0, cta, warp), p: 0, cs: 0 }))
    }
}

/// Segment 0 = desync prologue; every later segment is one
/// unroll-and-jam group of the centroid distance loop, walked by a
/// cursor over point `p` and centroid offset `cs`. A point's feature
/// load leads its first group, and the assignment arithmetic and store
/// trail its last, so the op sequence is the whole-point loop's while
/// a warp buffers at most four centroid loads at a time.
struct KmGen {
    app: Km,
    ctx: WarpCtx,
    /// Point the next group belongs to.
    p: u64,
    /// Centroid offset (from the warp's staggered start) of the next
    /// group's first load.
    cs: u64,
}

impl SegmentSource for KmGen {
    fn emit(&mut self, seg: u64, out: &mut Vec<TraceOp>) -> bool {
        let gwarp = (self.ctx.cta * self.app.warps + self.ctx.warp) as u64;
        if seg == 0 {
            desync(out, &mut self.ctx.apc, gwarp);
            return true;
        }
        if self.p >= self.app.points as u64 {
            return false;
        }
        if self.cs == 0 {
            // Stream the point's feature line.
            let pt = self.app.data + (gwarp * self.app.points as u64 + self.p) * self.app.feat_bytes;
            out.push(TraceOp::load(0, 1, coalesced(pt)));
        }
        // Distance to the next centroids; stagger the starting centroid
        // per warp so resident warps cover different table slices.
        let c0 = (gwarp * 17) % self.app.k;
        // Distance loop, unroll-and-jammed by 4 the way nvcc
        // schedules it: a group of independent centroid loads, then
        // the arithmetic that consumes them.
        let group = (self.app.k - self.cs).min(4);
        for g in 0..group {
            let rb = 2 + (g as u8) * 4;
            let c = (c0 + self.cs + g) % self.app.k;
            out.push(TraceOp::load(1, rb, coalesced(self.app.centroids + c * self.app.feat_bytes)));
        }
        for g in 0..group {
            let rb = 2 + (g as u8) * 4;
            out.push(TraceOp::alu(64, 4).with_srcs([rb]).with_dst(rb + 1));
        }
        self.cs += group;
        if self.cs >= self.app.k {
            alu_block(out, &mut self.ctx.apc, 2, 3);
            out.push(TraceOp::store(2, coalesced(self.app.assign + gwarp * 128)).with_srcs([3]));
            self.p += 1;
            self.cs = 0;
        }
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
