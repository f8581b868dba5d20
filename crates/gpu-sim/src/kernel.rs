//! The interface a workload implements to run on the simulated GPU.

use crate::isa::TraceOp;
use crate::stream::{self, OpStream};

/// Launch shape of a kernel grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridDesc {
    /// Cooperative thread arrays (thread blocks) in the grid.
    pub num_ctas: usize,
    /// Warps per CTA (CTA size / 32).
    pub warps_per_cta: usize,
}

impl GridDesc {
    /// Total warps in the grid.
    pub fn total_warps(&self) -> usize {
        self.num_ctas * self.warps_per_cta
    }
}

/// A GPU kernel expressed as deterministic per-warp instruction streams.
///
/// `warp_stream(cta, warp)` must be a pure function of its arguments
/// (and the kernel's construction parameters): the simulator may call
/// it at any time relative to execution, and the analysis tools
/// re-derive the same traces when profiling reuse distances. Two
/// streams for the same `(cta, warp)` must yield identical op
/// sequences.
pub trait Kernel: Send {
    /// Short benchmark name (e.g. `"BFS"`).
    fn name(&self) -> &str;

    /// Grid shape.
    fn grid(&self) -> GridDesc;

    /// The instruction stream of warp `warp` of CTA `cta`. The stream
    /// owns all its state (no borrow of the kernel), so the warps of a
    /// CTA can execute long after the launch call returns.
    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream>;

    /// The fully materialized trace of one warp. Analysis-only: the
    /// simulator never calls this (warps consume streams op by op), so
    /// eager materialization cost is confined to profilers and tests.
    // dlp-lint: allow(P302) -- the one sanctioned materialization point: delegates to warp_stream, used only off the simulation path
    fn warp_ops(&self, cta: usize, warp: usize) -> Vec<TraceOp> {
        stream::materialize(self.warp_stream(cta, warp))
    }
}

impl GridDesc {
    /// Convenience: a single-CTA grid.
    pub fn single(warps: usize) -> Self {
        GridDesc { num_ctas: 1, warps_per_cta: warps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_warps_multiplies() {
        assert_eq!(GridDesc { num_ctas: 5, warps_per_cta: 4 }.total_warps(), 20);
        assert_eq!(GridDesc::single(3).total_warps(), 3);
    }
}
