//! # rd-tools — reuse-distance analysis for GPU cache streams
//!
//! Implements the paper's §3.1 measurement machinery:
//!
//! * **Reuse Distance (RD)** — for an access to line *L* in cache set
//!   *S*, the number of accesses to *S* since the previous access to
//!   *L* (Figure 2: the sequence `A0 A1 A2 A0` gives `A0` an RD of 3).
//!   RDs depend only on the address stream and the set mapping, never
//!   on associativity — which is what lets a victim tag array observe
//!   reuse beyond the cache's ways.
//! * **Reuse Distance Distribution (RDD)** — RDs bucketed into the
//!   paper's four ranges (1–4, 5–8, 9–64, >64), per application
//!   (Figure 3) or per static memory instruction (Figure 7).
//! * The **memory-access ratio** classifier (§3.2) separating Cache
//!   Sufficient from Cache Insufficient applications at 1 %.
//!
//! [`profiler::RdProfiler`] plugs into a `gpu-mem` L1D as an
//! [`gpu_mem::AccessObserver`], so distributions are computed from
//! exactly the stream the replacement policy sees.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod profiler;
pub mod ratio;
pub mod rd;
pub mod rdd;

pub use profiler::{RdProfiler, SharedRdd};
pub use ratio::{classify, AppClass, CS_CI_THRESHOLD};
pub use rd::SetRdTracker;
pub use rdd::{RdBucket, RddHistogram};
