//! # dlp-store — crash-safe on-disk result store
//!
//! A content-addressed store for completed sweep results, keyed by
//! `(config digest, code digest)`. It is the persistence layer behind
//! the `dlp-bench` run cache: a sweep that dies — panic, OOM kill, `kill -9` — resumes serving every job it
//! had completed from disk, and a corrupted entry is *detected,
//! quarantined and recomputed*, never silently served.
//!
//! Durability model, in order of defense:
//!
//! 1. **Atomic entry writes.** Every entry lands via write-to-temp +
//!    fsync + rename ([`atomic`]), so the entries directory only ever
//!    contains complete files or stale temp files (cleaned at open).
//! 2. **Self-verifying entries.** Each entry file carries a magic,
//!    format version, its own key, the payload length, and an FNV-1a
//!    checksum of the payload. [`Store::get`] re-verifies all of it on
//!    every read.
//! 3. **Crash-recovery journal.** An append-only text journal records
//!    completed entries; replay at [`Store::open`] rebuilds the index,
//!    ignoring torn trailing lines. Entries present on disk but missing
//!    from the journal (the process died between rename and append) are
//!    adopted after full verification.
//! 4. **Quarantine, not trust.** Any verification failure moves the
//!    entry file into `quarantine/` and reports a miss, forcing the
//!    caller to recompute. Corruption is counted, never propagated.
//!
//! Fault injection ([`fault`]) corrupts the write path on purpose —
//! torn writes, truncated entries, checksum flips — from the same
//! seeded [`gpu_mem::SplitMix64`] decision stream the packet-level
//! injector uses, so every recovery path above is testable
//! deterministically (`DLP_STORE_FAULT`, wired in `dlp-bench`,
//! mirrors `DLP_FORCE_FAIL`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod atomic;
pub mod fault;
pub mod store;

pub use fault::{StoreFaultConfig, StoreFaultInjector, StoreFaultKind};
pub use store::{Store, StoreCounters, StoreError, StoreKey};

/// FNV-1a 64-bit — the workspace's standard fingerprint (the golden
/// digest tests use the same constants), vendored here so the store
/// has no dependency beyond `gpu-mem`'s decision stream.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Offset basis for the empty string; avalanche on one byte.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"dlp"), fnv1a(b"dlp"));
    }
}
