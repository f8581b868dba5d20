//! # gpu-sim — a cycle-level SIMT GPU model
//!
//! The execution substrate for the DLP reproduction: a from-scratch
//! model of a Fermi-class GPU (Tesla M2090, Table 1 of the paper) at the
//! granularity GPGPU-Sim simulates it:
//!
//! * 16 streaming multiprocessors, each running up to 48 warps of 32
//!   threads with two greedy-then-oldest (GTO) warp schedulers;
//! * a per-warp scoreboard enforcing register dependences, so loads
//!   overlap with independent instructions exactly as on hardware;
//! * an LD/ST unit that coalesces each memory instruction's 32 lane
//!   addresses into 128-byte-sector transactions and feeds them to the
//!   L1D one per cycle;
//! * the `gpu-mem` hierarchy behind it (L1D + MSHR per SM, crossbar,
//!   12 L2+DRAM partitions) with the DRAM clock domain at 924 MHz.
//!
//! Kernels are supplied through the [`Kernel`] trait as per-warp
//! instruction streams ([`stream::OpStream`] over [`isa::TraceOp`]);
//! the `gpu-workloads` crate provides models of the paper's 18
//! benchmarks. Run one with:
//!
//! ```
//! use gpu_sim::{Gpu, SimConfig, Kernel, GridDesc, isa::TraceOp};
//! use gpu_sim::stream::{OpStream, VecStream};
//! use dlp_core::PolicyKind;
//!
//! struct Tiny;
//! impl Kernel for Tiny {
//!     fn name(&self) -> &str { "tiny" }
//!     fn grid(&self) -> GridDesc { GridDesc { num_ctas: 2, warps_per_cta: 2 } }
//!     fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
//!         let base = (cta * 64 + warp * 32) as u64 * 4;
//!         Box::new(VecStream::new(vec![
//!             TraceOp::load(0, 1, (0..32).map(|l| base + l * 4).collect()),
//!             TraceOp::alu(1, 4).with_srcs([1]).with_dst(2),
//!         ]))
//!     }
//! }
//!
//! let mut gpu = Gpu::new(SimConfig::tesla_m2090(PolicyKind::Dlp), Box::new(Tiny));
//! let stats = gpu.run().expect("simulation is fault-free");
//! assert!(stats.completed);
//! assert!(stats.ipc() > 0.0);
//! ```
//!
//! [`Gpu::run`] returns `Result<RunStats, SimError>`: a forward-progress
//! watchdog and (optionally) a periodic invariant auditor convert
//! simulator hangs and conservation-law violations into typed errors
//! carrying a [`HangReport`] snapshot of the stuck machine.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Unit tests exercise failure paths where unwrap/expect is the point;
// the unwrap_used/expect_used denies apply to shipping simulator code.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod audit;
pub mod coalescer;
pub mod config;
pub mod error;
pub mod gpu;
pub mod isa;
pub mod kernel;
pub mod sampling;
pub mod scheduler;
pub mod sm;
pub mod stats;
pub mod stream;
pub mod warp;

pub use config::SimConfig;
pub use error::{HangReport, SimError};
pub use gpu::{ComponentCycles, Gpu};
pub use kernel::{GridDesc, Kernel};
pub use sampling::{SamplingConfig, SamplingParseError, SamplingReport, WindowSample};
pub use stats::RunStats;
pub use stream::{OpStream, VecStream};
