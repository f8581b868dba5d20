//! Generator-style warp streams: each benchmark model emits its trace
//! one *segment* at a time instead of materializing the whole warp.
//!
//! A segment is one natural unit of the app's loop structure — the
//! desync prologue, one loop iteration (or one unroll-and-jam group),
//! or a trailing epilogue store — and never a whole inner loop.
//! [`GenStream`] adapts a [`SegmentSource`] to the simulator's
//! [`OpStream`] cursor interface with a single-segment buffer, so a
//! warp's resident trace state is bounded by its largest segment: a
//! few KiB at every scale, which keeps every resident warp's op supply
//! in the host's caches. `tests/stream_equivalence.rs` asserts an
//! 8 KiB bound for every app.
//!
//! Byte-identity with the old materialized traces is guaranteed by
//! construction: each app's per-iteration body moved verbatim from its
//! former `warp_ops` into [`SegmentSource::emit`], and the carried
//! state (RNG, ALU pc counter) threads through segments exactly as it
//! threaded through the original loop. `tests/stream_equivalence.rs`
//! pins this per app.

use crate::pattern::warp_rng;
use gpu_sim::isa::TraceOp;
use gpu_sim::stream::{ops_bytes, OpStream};
use rand::rngs::StdRng;

/// Per-warp state every generator carries: position, the ALU-pc
/// counter that `alu_block`/`desync` advance, the deterministic
/// per-warp RNG, and a reusable lane-address scratch buffer so the hot
/// path allocates nothing beyond the op-owned address vectors.
pub struct WarpCtx {
    /// CTA index of this warp.
    pub cta: usize,
    /// Warp index within the CTA.
    pub warp: usize,
    /// Next ALU pc — starts at 64, above the memory-pc space.
    pub apc: u32,
    /// Deterministic per-warp RNG (state advances across segments
    /// exactly as it advanced across the original loop iterations).
    pub rng: StdRng,
    /// Reusable lane-address build buffer for `*_into` pattern helpers.
    pub scratch: Vec<u64>,
}

impl WarpCtx {
    /// Fresh state for `(seed, cta, warp)`. Apps without an RNG pass
    /// any fixed seed; the RNG is simply never consumed.
    pub fn new(seed: u64, cta: usize, warp: usize) -> Self {
        WarpCtx { cta, warp, apc: 64, rng: warp_rng(seed, cta, warp), scratch: Vec::new() }
    }
}

/// One benchmark warp as a sequence of segments.
///
/// `emit` is called with `seg` = 0, 1, 2, ... in order; it appends
/// segment `seg`'s ops to `out` and returns `true`, or returns `false`
/// (appending nothing) once `seg` is past the end. State carried
/// across segments (RNG, apc) must advance only in calls that return
/// `true`, so two sources built for the same warp emit the same
/// segment sequence.
///
/// A segment is at most one loop iteration or one unroll group: a
/// source whose loop body is itself a long loop carries a cursor into
/// it instead of emitting the whole inner loop at once (see KM), so a
/// warp's buffered trace stays a few KiB at every scale.
pub trait SegmentSource: Send {
    /// Append segment `seg`'s ops; `false` = no such segment.
    fn emit(&mut self, seg: u64, out: &mut Vec<TraceOp>) -> bool;
}

/// [`OpStream`] over a [`SegmentSource`]: buffers exactly one segment
/// at a time, reusing the buffer's capacity across refills.
pub struct GenStream<G: SegmentSource> {
    gen: G,
    seg: u64,
    buf: Vec<TraceOp>,
    at: usize,
    done: bool,
    peak: usize,
}

impl<G: SegmentSource> GenStream<G> {
    /// Wrap a segment source positioned at its first segment.
    pub fn new(gen: G) -> Self {
        GenStream { gen, seg: 0, buf: Vec::new(), at: 0, done: false, peak: 0 }
    }

    fn fill(&mut self) {
        while self.at >= self.buf.len() && !self.done {
            self.buf.clear();
            self.at = 0;
            if self.gen.emit(self.seg, &mut self.buf) {
                self.seg += 1;
                self.peak = self.peak.max(ops_bytes(&self.buf));
            } else {
                self.done = true;
            }
        }
    }
}

impl<G: SegmentSource> OpStream for GenStream<G> {
    fn next_op(&mut self) -> Option<TraceOp> {
        self.fill();
        if self.at >= self.buf.len() {
            return None;
        }
        // Move the op out, leaving a heap-free placeholder so consumed
        // slots cost nothing and the buffer keeps its capacity.
        let op = std::mem::replace(&mut self.buf[self.at], TraceOp::alu(0, 0));
        self.at += 1;
        Some(op)
    }

    fn peek(&mut self) -> Option<&TraceOp> {
        self.fill();
        self.buf.get(self.at)
    }

    fn resident_bytes(&self) -> usize {
        ops_bytes(&self.buf)
    }

    fn peak_resident_bytes(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::stream::materialize;

    /// Three segments of one ALU op each, pc = segment index.
    struct Three;
    impl SegmentSource for Three {
        fn emit(&mut self, seg: u64, out: &mut Vec<TraceOp>) -> bool {
            if seg >= 3 {
                return false;
            }
            out.push(TraceOp::alu(seg as u32 + 100, 1));
            true
        }
    }

    /// Four segments whose ALU latencies come from the warp's RNG.
    struct Noisy(WarpCtx);
    impl SegmentSource for Noisy {
        fn emit(&mut self, seg: u64, out: &mut Vec<TraceOp>) -> bool {
            if seg >= 4 {
                return false;
            }
            let lat = rand::Rng::gen_range(&mut self.0.rng, 1..100);
            out.push(TraceOp::alu(self.0.apc, lat));
            self.0.apc += 1;
            true
        }
    }

    #[test]
    fn segments_concatenate_in_order() {
        let ops = materialize(Box::new(GenStream::new(Three)));
        let pcs: Vec<u32> = ops.iter().map(|o| o.pc).collect();
        assert_eq!(pcs, vec![100, 101, 102]);
    }

    #[test]
    fn peek_then_next_agree_across_refills() {
        let mut s = GenStream::new(Three);
        for _ in 0..3 {
            let peeked = s.peek().expect("op").pc;
            assert_eq!(s.next_op().expect("op").pc, peeked);
        }
        assert!(s.peek().is_none());
        assert!(s.next_op().is_none());
    }

    #[test]
    fn a_second_stream_for_the_same_warp_replays_identically() {
        let stream = |cta, warp| Box::new(GenStream::new(Noisy(WarpCtx::new(7, cta, warp))));
        let first = materialize(stream(1, 2));
        assert_eq!(first.len(), 4);
        assert_eq!(first, materialize(stream(1, 2)));
        assert_ne!(first, materialize(stream(1, 3)), "another warp, other latencies");
    }

    #[test]
    fn resident_state_is_one_segment() {
        let mut s = GenStream::new(Three);
        s.peek();
        // One buffered ALU op, never the whole three-segment trace.
        assert_eq!(s.resident_bytes(), std::mem::size_of::<TraceOp>());
        while s.next_op().is_some() {}
        assert_eq!(s.peak_resident_bytes(), std::mem::size_of::<TraceOp>());
    }
}
