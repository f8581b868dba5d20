//! Cursor-based instruction streams: the O(1)-memory interface between
//! a kernel and the warps executing it.
//!
//! A [`crate::Kernel`] hands each warp a [`OpStream`] instead of a
//! materialized `Vec<TraceOp>`: the warp pulls one op at a time with
//! [`OpStream::next_op`], so the resident state per warp is bounded by
//! the stream's internal buffer (one generator segment, one trace-file
//! chunk...), not by the trace length. That bound is what unlocks the
//! 100–1000× scale axis — a million-op warp costs the same memory as a
//! hundred-op one.
//!
//! [`VecStream`] is the compatibility adapter for code that still
//! produces whole traces (hand-written test kernels, the default
//! [`crate::Kernel::warp_ops`]); [`materialize`] is the inverse, for
//! analysis tools that genuinely need the full sequence.

use crate::isa::{OpKind, TraceOp};

/// A warp's instruction stream.
///
/// Contract:
/// * the op sequence is **deterministic**: two streams created from the
///   same `(kernel, cta, warp)` yield identical sequences (the analysis
///   tools re-derive traces and must observe the same ops);
/// * [`OpStream::peek`] does not advance the cursor: `peek()` followed
///   by `next_op()` returns the same op;
/// * resident state is O(1) in the *trace length* — implementations
///   buffer at most a bounded window of upcoming ops and report it via
///   [`OpStream::resident_bytes`].
pub trait OpStream: Send {
    /// Pull the next op, or `None` when the stream is exhausted.
    fn next_op(&mut self) -> Option<TraceOp>;

    /// The op [`OpStream::next_op`] would return, without consuming it.
    fn peek(&mut self) -> Option<&TraceOp>;

    /// Bytes of trace data currently buffered by this stream.
    fn resident_bytes(&self) -> usize;

    /// High-water mark of [`OpStream::resident_bytes`] over the
    /// stream's lifetime. For a generator this is the largest segment
    /// buffered so far; for the [`VecStream`] adapter it is the whole
    /// trace — which is exactly the regression the scale-smoke CI job
    /// watches for.
    fn peak_resident_bytes(&self) -> usize;
}

/// Heap bytes owned by one op (the lane-address payload of memory ops).
pub fn op_bytes(op: &TraceOp) -> usize {
    let payload = match &op.kind {
        OpKind::Mem { addrs, .. } => addrs.capacity() * std::mem::size_of::<u64>(),
        OpKind::Alu { .. } => 0,
    };
    std::mem::size_of::<TraceOp>() + payload
}

/// Total resident bytes of a buffered op slice.
pub fn ops_bytes(ops: &[TraceOp]) -> usize {
    ops.iter().map(op_bytes).sum()
}

/// Compatibility adapter: a stream over an already-materialized trace.
///
/// Its resident state is the full trace by construction, so anything
/// built on it keeps the old memory behaviour — useful for tests, tiny
/// hand-written kernels and the stream⇄materialized equivalence suite,
/// but not for the scale axis.
pub struct VecStream {
    ops: Vec<TraceOp>,
    at: usize,
    bytes: usize,
}

impl VecStream {
    /// Wrap a materialized trace.
    pub fn new(ops: Vec<TraceOp>) -> Self {
        let bytes = ops_bytes(&ops);
        VecStream { ops, at: 0, bytes }
    }
}

impl OpStream for VecStream {
    fn next_op(&mut self) -> Option<TraceOp> {
        let op = self.ops.get(self.at)?.clone();
        self.at += 1;
        Some(op)
    }

    fn peek(&mut self) -> Option<&TraceOp> {
        self.ops.get(self.at)
    }

    fn resident_bytes(&self) -> usize {
        self.bytes
    }

    fn peak_resident_bytes(&self) -> usize {
        self.bytes
    }
}

/// Drain a stream into a full trace (profilers and equivalence tests;
/// the simulator itself never does this).
pub fn materialize(mut stream: Box<dyn OpStream>) -> Vec<TraceOp> {
    let mut ops = Vec::new();
    while let Some(op) = stream.next_op() {
        ops.push(op);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Vec<TraceOp> {
        vec![
            TraceOp::load(0, 1, vec![0, 128]),
            TraceOp::alu(64, 4).with_srcs([1]).with_dst(2),
            TraceOp::store(1, vec![4096]).with_srcs([2]),
        ]
    }

    #[test]
    fn vec_stream_replays_the_trace() {
        let mut s = VecStream::new(trace());
        let mut got = Vec::new();
        while let Some(op) = s.next_op() {
            got.push(op);
        }
        assert_eq!(got, trace());
        assert!(s.next_op().is_none(), "exhausted stream stays exhausted");
    }

    #[test]
    fn peek_does_not_advance() {
        let mut s = VecStream::new(trace());
        assert_eq!(s.peek().cloned(), Some(trace()[0].clone()));
        assert_eq!(s.peek().cloned(), Some(trace()[0].clone()));
        assert_eq!(s.next_op(), Some(trace()[0].clone()));
        assert_eq!(s.peek().cloned(), Some(trace()[1].clone()));
    }

    #[test]
    fn vec_stream_residency_is_the_whole_trace() {
        let t = trace();
        let expect = ops_bytes(&t);
        let s = VecStream::new(t);
        assert_eq!(s.resident_bytes(), expect);
        assert_eq!(s.peak_resident_bytes(), expect);
        assert!(expect >= 3 * std::mem::size_of::<TraceOp>());
    }

    #[test]
    fn materialize_round_trips() {
        assert_eq!(materialize(Box::new(VecStream::new(trace()))), trace());
    }
}
