//! # gpu-mem — the GPU memory-hierarchy substrate
//!
//! Cycle-level model of everything between an SM's load/store unit and
//! DRAM, mirroring the organization GPGPU-Sim gives a Fermi-class GPU
//! (the platform the DLP paper evaluates on):
//!
//! ```text
//!  LD/ST unit ──► L1D (+ MSHR, miss queue, pipeline register)   [per SM]
//!                   │ ▲
//!                   ▼ │           crossbar, 32-byte flits
//!                 interconnect ◄──────────────────────────┐
//!                   │ ▲                                    │
//!                   ▼ │                                    │
//!        memory partition (L2 slice + GDDR5 DRAM banks)  × 12
//! ```
//!
//! The L1D controller ([`l1d::L1dCache`]) implements the access path of
//! the paper's Figures 1 and 8: hit check, MSHR merge, line reservation
//! through a pluggable [`dlp_core::ReplacementPolicy`], the bypass path,
//! and the retry-in-pipeline-register stall semantics that make L1D
//! stalls so expensive on a GPU (§2).
//!
//! Everything is driven by explicit `cycle()` calls from the top-level
//! clock loop in `gpu-sim`; components exchange [`packet::Packet`]s
//! through bounded queues so backpressure propagates exactly as in
//! hardware.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Unit tests exercise failure paths where unwrap/expect is the point;
// the unwrap_used/expect_used denies apply to shipping simulator code.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod dram;
pub mod error;
pub mod fault;
pub mod icnt;
pub mod l1d;
pub mod mask;
pub mod mshr;
pub mod observer;
pub mod packet;
pub mod partition;
pub mod stats;
pub mod tag_array;

pub use dlp_core::{CacheGeometry, PolicyKind};
pub use error::MemError;
pub use fault::{FaultConfig, FaultInjector, FaultKind, FaultSite, SplitMix64};
pub use icnt::Interconnect;
pub use l1d::{L1dCache, L1dConfig};
pub use observer::AccessObserver;
pub use packet::{MemReq, MemResp, Packet, PacketKind};
pub use partition::{MemoryPartition, PartitionConfig};
pub use stats::{CacheStats, IcntStats};
