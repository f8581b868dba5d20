//! Miss Status Holding Registers.
//!
//! One entry per in-flight missed line; requests to a line that is
//! already being fetched merge into the existing entry (up to a merge
//! limit). A full MSHR is one of the structural stall conditions of §2.

use crate::error::MemError;
use crate::packet::MemReq;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for the simulator's line-address tables: the MSHRs and the
/// L1D's compulsory-miss set. Keys are line addresses the simulator
/// computes itself, never outside input, so std's randomly seeded
/// SipHash buys nothing here and costs a hash per access.
#[derive(Default)]
pub(crate) struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u64(&mut self, x: u64) {
        // Fibonacci hashing: odd multiplier, so the low bits the table
        // indexes by stay a bijection of the key's low bits and the high
        // bits mix all of it.
        // dlp-lint: allow(F103) -- multiplicative hashing is modular multiplication by definition
        self.0 = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// [`HashMap`]/[`std::collections::HashSet`] state for line-address keys.
pub(crate) type LineHash = BuildHasherDefault<LineHasher>;

/// Outcome of presenting a missed request to the MSHR.
#[derive(Debug, PartialEq, Eq)]
pub enum MshrLookup {
    /// Merged into an existing entry for the same line.
    Merged,
    /// The line has an entry but its merge list is full — stall.
    MergeFull,
    /// No entry for this line; one can be allocated.
    Absent,
    /// No entry for this line and the MSHR is full — stall (or bypass).
    Full,
}

/// A filled entry popped on fill completion.
#[derive(Debug)]
pub struct MshrEntry {
    /// The `(set, way)` reserved for the incoming line, or `None` for a
    /// bypassed fetch: the data is forwarded to the requesters without
    /// filling the cache (the paper's bypass path still tracks the
    /// outstanding request so redundant misses merge instead of
    /// flooding the miss queue).
    pub target: Option<(usize, usize)>,
    /// All requests (original + merged) waiting on the line.
    pub reqs: Vec<MemReq>,
}

/// The MSHR file.
pub struct Mshr {
    entries: HashMap<u64, MshrEntry, LineHash>,
    /// Drained merge lists handed back by [`Mshr::recycle`], reused by
    /// the next [`Mshr::allocate`] so a miss allocates nothing once the
    /// file has warmed up.
    spare: Vec<Vec<MemReq>>,
    max_entries: usize,
    max_merge: usize,
    peak_occupancy: usize,
}

impl Mshr {
    /// Create with capacity for `max_entries` distinct lines and
    /// `max_merge` requests per line.
    pub fn new(max_entries: usize, max_merge: usize) -> Self {
        assert!(max_entries > 0 && max_merge > 0);
        Mshr {
            entries: HashMap::default(),
            spare: Vec::new(),
            max_entries,
            max_merge,
            peak_occupancy: 0,
        }
    }

    /// Current number of in-flight lines.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Highest occupancy seen (diagnostics).
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Is the line already being fetched?
    pub fn contains(&self, line_addr: u64) -> bool {
        self.entries.contains_key(&line_addr)
    }

    /// Try to merge `req` into an existing entry; report what's possible.
    pub fn probe(&self, line_addr: u64) -> MshrLookup {
        match self.entries.get(&line_addr) {
            Some(e) if e.reqs.len() >= self.max_merge => MshrLookup::MergeFull,
            Some(_) => MshrLookup::Merged,
            None if self.entries.len() >= self.max_entries => MshrLookup::Full,
            None => MshrLookup::Absent,
        }
    }

    /// Merge `req` into the existing entry for `line_addr`.
    /// Caller must have seen `MshrLookup::Merged` from [`Mshr::probe`];
    /// merging without a matching entry (or past the merge limit) is a
    /// structural violation reported as a typed error.
    pub fn merge(&mut self, line_addr: u64, req: MemReq) -> Result<(), MemError> {
        let Some(e) = self.entries.get_mut(&line_addr) else {
            return Err(MemError::MshrBadMerge { line: line_addr });
        };
        if e.reqs.len() >= self.max_merge {
            return Err(MemError::MshrBadMerge { line: line_addr });
        }
        e.reqs.push(req);
        Ok(())
    }

    /// Allocate a new entry for `line_addr`, fetching into `target`
    /// (`None` = bypassed fetch, data forwarded without a fill).
    /// Caller must have seen `MshrLookup::Absent`.
    pub fn allocate(&mut self, line_addr: u64, target: Option<(usize, usize)>, req: MemReq) {
        assert!(self.entries.len() < self.max_entries, "MSHR overflow");
        let mut reqs = self.spare.pop().unwrap_or_default();
        reqs.push(req);
        let prev = self.entries.insert(line_addr, MshrEntry { target, reqs });
        assert!(prev.is_none(), "duplicate MSHR entry for line {line_addr:#x}");
        self.peak_occupancy = self.peak_occupancy.max(self.entries.len());
    }

    /// Is the entry for `line_addr` a bypassed (no-fill) fetch?
    /// Meaningful only when the entry exists.
    pub fn is_bypass(&self, line_addr: u64) -> bool {
        self.entries.get(&line_addr).is_some_and(|e| e.target.is_none())
    }

    /// The fill for `line_addr` arrived: pop and return its entry.
    pub fn complete(&mut self, line_addr: u64) -> Option<MshrEntry> {
        self.entries.remove(&line_addr)
    }

    /// Hand back a completed entry's merge list once its requests have
    /// been drained, for reuse by a later [`Mshr::allocate`].
    pub fn recycle(&mut self, mut reqs: Vec<MemReq>) {
        reqs.clear();
        self.spare.push(reqs);
    }

    /// Total requests (original + merged) waiting across all entries.
    pub fn outstanding_requests(&self) -> usize {
        // dlp-lint: allow(D004) -- integer sum over values is order-independent
        self.entries.values().map(|e| e.reqs.len()).sum()
    }

    /// Structural self-check for the runtime invariant auditor:
    /// occupancy within capacity, every entry non-empty and within its
    /// merge limit. Entries are visited in sorted line order so the
    /// *first* violation reported is deterministic across runs.
    pub fn audit(&self) -> Result<(), String> {
        if self.entries.len() > self.max_entries {
            return Err(format!(
                "MSHR holds {} entries but capacity is {}",
                self.entries.len(),
                self.max_entries
            ));
        }
        // dlp-lint: allow(D004) -- keys are collected and sorted before use
        let mut lines: Vec<u64> = self.entries.keys().copied().collect();
        lines.sort_unstable();
        for line in lines {
            let e = &self.entries[&line];
            if e.reqs.is_empty() {
                return Err(format!("MSHR entry for line {line:#x} has no waiting requests"));
            }
            if e.reqs.len() > self.max_merge {
                return Err(format!(
                    "MSHR entry for line {line:#x} holds {} requests, merge limit is {}",
                    e.reqs.len(),
                    self.max_merge
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64) -> MemReq {
        MemReq { id, addr: id * 128, is_write: false, pc: 0, sm: 0, warp: 0, dst_reg: 0, born: 0 }
    }

    #[test]
    fn allocate_then_merge_then_complete() {
        let mut m = Mshr::new(4, 4);
        assert_eq!(m.probe(10), MshrLookup::Absent);
        m.allocate(10, Some((2, 1)), req(0));
        assert_eq!(m.probe(10), MshrLookup::Merged);
        m.merge(10, req(1)).unwrap();
        m.merge(10, req(2)).unwrap();
        let e = m.complete(10).unwrap();
        assert_eq!(e.target, Some((2, 1)));
        assert_eq!(e.reqs.len(), 3);
        assert_eq!(m.occupancy(), 0);
        assert_eq!(m.complete(10).map(|e| e.reqs.len()), None);
    }

    #[test]
    fn merge_limit_reported() {
        let mut m = Mshr::new(4, 2);
        m.allocate(10, Some((0, 0)), req(0));
        m.merge(10, req(1)).unwrap();
        assert_eq!(m.probe(10), MshrLookup::MergeFull);
    }

    #[test]
    fn merge_without_entry_or_past_limit_is_typed_error() {
        let mut m = Mshr::new(4, 1);
        assert_eq!(m.merge(9, req(0)), Err(MemError::MshrBadMerge { line: 9 }));
        m.allocate(9, Some((0, 0)), req(0));
        assert_eq!(m.merge(9, req(1)), Err(MemError::MshrBadMerge { line: 9 }));
        // The failed merges did not disturb the entry.
        assert_eq!(m.complete(9).map(|e| e.reqs.len()), Some(1));
    }

    #[test]
    fn full_mshr_reported() {
        let mut m = Mshr::new(2, 4);
        m.allocate(1, Some((0, 0)), req(0));
        m.allocate(2, Some((0, 1)), req(1));
        assert_eq!(m.probe(3), MshrLookup::Full);
        // ...but merging into existing entries is still possible.
        assert_eq!(m.probe(1), MshrLookup::Merged);
        m.complete(1);
        assert_eq!(m.probe(3), MshrLookup::Absent);
    }

    #[test]
    fn peak_occupancy_tracks_high_water_mark() {
        let mut m = Mshr::new(8, 1);
        for line in 0..5u64 {
            m.allocate(line, Some((0, 0)), req(line));
        }
        for line in 0..5u64 {
            m.complete(line);
        }
        assert_eq!(m.peak_occupancy(), 5);
        assert_eq!(m.occupancy(), 0);
    }

    #[test]
    fn audit_accepts_well_formed_state() {
        let mut m = Mshr::new(4, 2);
        m.allocate(1, Some((0, 0)), req(0));
        m.merge(1, req(1)).unwrap();
        m.allocate(2, None, req(2));
        assert_eq!(m.audit(), Ok(()));
        assert_eq!(m.outstanding_requests(), 3);
    }

    #[test]
    #[should_panic(expected = "MSHR overflow")]
    fn allocate_beyond_capacity_panics() {
        let mut m = Mshr::new(1, 1);
        m.allocate(1, Some((0, 0)), req(0));
        m.allocate(2, Some((0, 1)), req(1));
    }
}
