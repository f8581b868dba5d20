//! Address-pattern helpers shared by the benchmark models.

use gpu_sim::isa::TraceOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bytes per float element (all modeled arrays hold f32).
pub const F4: u64 = 4;

/// A bump allocator for the virtual address space of one kernel, so
/// each array lands in its own naturally aligned region.
pub struct AddrSpace {
    next: u64,
}

impl Default for AddrSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddrSpace {
    /// Regions start at 16 MB to keep address arithmetic visibly away
    /// from null.
    pub fn new() -> Self {
        AddrSpace { next: 16 << 20 }
    }

    /// Reserve `bytes`, returning the region base (1 MB aligned so
    /// different arrays never share a cache line or DRAM row).
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next;
        let aligned = bytes.div_ceil(1 << 20) * (1 << 20);
        self.next += aligned;
        base
    }
}

/// Deterministic per-warp RNG: every (kernel seed, cta, warp) triple
/// yields the same stream on every run.
pub fn warp_rng(kernel_seed: u64, cta: usize, warp: usize) -> StdRng {
    let mix = kernel_seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((cta as u64) << 32)
        .wrapping_add(warp as u64 + 1);
    StdRng::seed_from_u64(mix)
}

/// Append 32 unit-stride lane addresses starting at `base` to `out`
/// (fully coalesced: one 128-byte transaction when `base` is line
/// aligned). The `*_into` forms write into caller-owned storage so the
/// streaming hot path reuses one scratch buffer instead of allocating
/// a temporary per call; the only allocation left on that path is the
/// lane vector each `TraceOp::Mem` must own.
pub fn coalesced_into(out: &mut Vec<u64>, base: u64) {
    out.extend((0..32).map(|l| base + l * F4));
}

/// Allocating wrapper over [`coalesced_into`] for single-use sites
/// (the vector moves straight into the op).
pub fn coalesced(base: u64) -> Vec<u64> {
    let mut v = Vec::with_capacity(32);
    coalesced_into(&mut v, base);
    v
}

/// Append 32 lane addresses with a fixed byte stride between lanes.
pub fn strided_into(out: &mut Vec<u64>, base: u64, stride: u64) {
    out.extend((0..32).map(|l| base + l * stride));
}

/// Allocating wrapper over [`strided_into`].
pub fn strided(base: u64, stride: u64) -> Vec<u64> {
    let mut v = Vec::with_capacity(32);
    strided_into(&mut v, base, stride);
    v
}

/// Append 32 copies of one address (a broadcast — one transaction).
pub fn broadcast_into(out: &mut Vec<u64>, addr: u64) {
    out.extend(std::iter::repeat_n(addr, 32));
}

/// Allocating wrapper over [`broadcast_into`].
pub fn broadcast(addr: u64) -> Vec<u64> {
    let mut v = Vec::with_capacity(32);
    broadcast_into(&mut v, addr);
    v
}

/// Append `n` random lane addresses inside `[base, base + bytes)`,
/// 4-byte aligned — a scatter/gather touching up to `n` distinct
/// sectors.
pub fn scatter_into(rng: &mut StdRng, out: &mut Vec<u64>, base: u64, bytes: u64, n: usize) {
    out.extend((0..n).map(|_| base + (rng.gen_range(0..bytes / F4)) * F4));
}

/// Allocating wrapper over [`scatter_into`].
pub fn scatter(rng: &mut StdRng, base: u64, bytes: u64, n: usize) -> Vec<u64> {
    let mut v = Vec::with_capacity(n);
    scatter_into(rng, &mut v, base, bytes, n);
    v
}

/// Push `n` dependent ALU ops (a latency chain consuming `src`), the
/// stand-in for the arithmetic between memory instructions.
pub fn alu_block(ops: &mut Vec<TraceOp>, pc: &mut u32, n: usize, src: u8) {
    for i in 0..n {
        let (s, d) = if i % 2 == 0 { (src, src + 1) } else { (src + 1, src) };
        ops.push(TraceOp::alu(*pc, 4).with_srcs([s]).with_dst(d));
        *pc += 1;
    }
}

/// Spread warps apart in execution phase, the way data-dependent work,
/// divergent control flow and staggered CTA launches do on real
/// hardware: a short chain of long-latency ALU ops whose total latency
/// varies per warp (0 to ~4000 cycles). Without this, the lock-step
/// progress of identical synthetic warps funnels all inter-warp reuse
/// into the MSHR merge window, which no real workload does.
pub fn desync(ops: &mut Vec<TraceOp>, pc: &mut u32, gwarp: u64) {
    let unit = ((gwarp.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % 64) as u32;
    for i in 0..4u8 {
        let (s, d) = if i % 2 == 0 { (60, 61) } else { (61, 60) };
        ops.push(TraceOp::alu(*pc, unit * 16 + 1).with_srcs([s]).with_dst(d));
        *pc += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_disjoint_and_aligned() {
        let mut a = AddrSpace::new();
        let x = a.alloc(100);
        let y = a.alloc(5 << 20);
        let z = a.alloc(1);
        assert_eq!(x % (1 << 20), 0);
        assert!(y >= x + 100);
        assert!(z >= y + (5 << 20));
    }

    #[test]
    fn warp_rng_is_deterministic_and_distinct() {
        let a: u64 = warp_rng(1, 2, 3).gen();
        let b: u64 = warp_rng(1, 2, 3).gen();
        let c: u64 = warp_rng(1, 2, 4).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn coalesced_spans_one_line() {
        let addrs = coalesced(0x1000);
        assert_eq!(addrs.len(), 32);
        assert!(addrs.iter().all(|&a| a / 128 == 0x1000 / 128));
    }

    #[test]
    fn broadcast_is_single_address() {
        let addrs = broadcast(0x42c0);
        assert!(addrs.iter().all(|&a| a == 0x42c0));
    }

    #[test]
    fn scatter_stays_in_region() {
        let mut rng = warp_rng(7, 0, 0);
        let addrs = scatter(&mut rng, 0x10000, 4096, 16);
        assert_eq!(addrs.len(), 16);
        assert!(addrs.iter().all(|&a| (0x10000..0x11000).contains(&a)));
    }

    #[test]
    fn into_forms_append_and_match_wrappers() {
        let mut v = vec![7u64];
        coalesced_into(&mut v, 0x1000);
        assert_eq!(v[0], 7, "appends, never clears");
        assert_eq!(&v[1..], coalesced(0x1000).as_slice());
        v.clear();
        strided_into(&mut v, 0x2000, 16);
        assert_eq!(v, strided(0x2000, 16));
        v.clear();
        broadcast_into(&mut v, 0x42c0);
        assert_eq!(v, broadcast(0x42c0));
        // Both scatter forms consume the RNG identically.
        let mut r1 = warp_rng(9, 0, 0);
        let mut r2 = warp_rng(9, 0, 0);
        v.clear();
        scatter_into(&mut r1, &mut v, 0x10000, 4096, 16);
        assert_eq!(v, scatter(&mut r2, 0x10000, 4096, 16));
    }

    #[test]
    fn alu_block_chains_registers() {
        let mut ops = Vec::new();
        let mut pc = 10;
        alu_block(&mut ops, &mut pc, 3, 5);
        assert_eq!(ops.len(), 3);
        assert_eq!(pc, 13);
        assert_eq!(ops[0].srcs[0], 5);
        assert_eq!(ops[0].dst, 6);
        assert_eq!(ops[1].srcs[0], 6);
    }
}
