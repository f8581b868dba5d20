//! Memory-instruction identifiers.
//!
//! DLP attributes cache hits to the *static memory instruction* (program
//! counter) that brought a line into the cache or last hit it (§4.1.1).
//! Hardware stores a 7-bit hashed PC in every TDA/VTA entry and indexes
//! the 128-entry PDPT with it; we reproduce that width exactly so
//! aliasing behaves as it would in the proposed hardware.

/// Number of bits in the hashed instruction ID (§4.3: 7 bits).
pub const INSN_ID_BITS: u32 = 7;

/// Number of PDPT entries (§4.1.3: 128 = 2^7).
pub const PDPT_ENTRIES: usize = 1 << INSN_ID_BITS;

/// A hashed memory-instruction identifier in `0..PDPT_ENTRIES`.
pub type InsnId = u8;

/// Hash a program counter down to the 7-bit instruction ID stored in TDA,
/// VTA and PDPT entries.
///
/// GPU kernels issue memory instructions from word-aligned PCs, so we
/// fold the PC's upper bits onto its lower bits before truncating; two
/// memory instructions only alias if they collide in all folded windows,
/// which for the ≤128 distinct memory PCs of the paper's benchmarks
/// (§4.1.3) essentially never happens.
#[inline]
pub fn hash_pc(pc: u32) -> InsnId {
    let folded = pc ^ (pc >> INSN_ID_BITS) ^ (pc >> (2 * INSN_ID_BITS)) ^ (pc >> (3 * INSN_ID_BITS));
    (folded & (PDPT_ENTRIES as u32 - 1)) as InsnId
}

/// Does `pc` overflow the 7-bit instruction-id space — i.e. did
/// [`hash_pc`] have to fold upper bits away, making aliasing *possible*?
/// The paper assumes ≤128 distinct memory PCs and never measures beyond
/// it (ROADMAP item "Production-scale workload front-end"); the
/// simulator counts these so saturation at the scale axis's 100–1000×
/// workloads is observable instead of silent.
#[inline]
pub fn pc_wraps(pc: u32) -> bool {
    pc >= PDPT_ENTRIES as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_fits_in_seven_bits() {
        for pc in (0..1_000_000u32).step_by(97) {
            assert!((hash_pc(pc) as usize) < PDPT_ENTRIES);
        }
    }

    #[test]
    fn small_distinct_pcs_do_not_alias() {
        // The per-kernel static memory instructions in this workspace use
        // small consecutive PC numbers; they must map to distinct IDs.
        let ids: std::collections::HashSet<_> = (0u32..PDPT_ENTRIES as u32).map(hash_pc).collect();
        assert_eq!(ids.len(), PDPT_ENTRIES);
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_pc(0xdead_beef), hash_pc(0xdead_beef));
    }

    #[test]
    fn wrap_threshold_is_the_id_space() {
        assert!(!pc_wraps(0));
        assert!(!pc_wraps(PDPT_ENTRIES as u32 - 1));
        assert!(pc_wraps(PDPT_ENTRIES as u32));
        assert!(pc_wraps(u32::MAX));
    }
}
