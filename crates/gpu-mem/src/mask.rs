//! Component sets as `u64` words: bit `i` stands for SM, memory
//! partition or crossbar port `i`.
//!
//! The clock loop keeps "which components have work" in these words and
//! visits only their set bits, so a cycle on a mostly idle chip costs a
//! few instructions per busy component instead of a walk over all of
//! them. Iteration is in ascending index order — the order a plain
//! `for i in 0..n` loop visits — so swapping a full scan for a mask scan
//! cannot reorder any side effect.

/// Most components one mask can name.
pub const MAX: usize = 64;

/// The bit for component `i`.
#[inline]
pub fn bit(i: usize) -> u64 {
    debug_assert!(i < MAX, "component {i} does not fit a {MAX}-bit mask");
    1 << i
}

/// The set bits of `mask`, lowest first.
#[inline]
pub fn ones(mask: u64) -> Ones {
    Ones(mask)
}

/// Iterator over the set bits of a mask (see [`ones`]).
#[derive(Clone, Copy, Debug)]
pub struct Ones(u64);

impl Iterator for Ones {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_visits_set_bits_in_ascending_order() {
        let m = bit(0) | bit(5) | bit(17) | bit(63);
        assert_eq!(ones(m).collect::<Vec<_>>(), vec![0, 5, 17, 63]);
        assert_eq!(ones(0).count(), 0);
        assert_eq!(ones(u64::MAX).count(), 64);
    }
}
