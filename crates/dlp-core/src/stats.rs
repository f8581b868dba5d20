//! Scheme-internal statistics exposed for the experiment harness, and
//! the [`counters!`](crate::counters) macro every plain-`u64` stats
//! struct of the workspace is declared with.

/// Declare a struct of plain `u64` counters once; everything that walks
/// its fields is generated from that one field list:
///
/// * the struct itself, deriving `Clone`, `Debug`, `Default`,
///   `PartialEq` and `Eq` (further derives may be added in the
///   declaration);
/// * `merge`, the field-wise sum used to aggregate per-SM or
///   per-partition instances;
/// * `fields` and `fields_mut`, an ordered walk over `(name, value)`
///   pairs in declaration order — what the result store's codec and
///   `figures inspect` read.
///
/// ```
/// dlp_core::counters! {
///     /// Two counters.
///     pub struct Pair {
///         /// First.
///         pub a: u64,
///         /// Second.
///         pub b: u64,
///     }
/// }
/// let mut x = Pair { a: 1, b: 2 };
/// x.merge(&Pair { a: 10, b: 20 });
/// assert_eq!(x.fields().collect::<Vec<_>>(), [("a", 11), ("b", 22)]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$field_attr:meta])* pub $field:ident: u64, )*
        }
    ) => {
        $(#[$attr])*
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        $vis struct $name {
            $( $(#[$field_attr])* pub $field: u64, )*
        }

        impl $name {
            /// Add every counter of `other` into `self`.
            pub fn merge(&mut self, other: &Self) {
                $( self.$field += other.$field; )*
            }

            /// `(field name, value)` of every counter, in declaration
            /// order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$( (stringify!($field), self.$field) ),*].into_iter()
            }

            /// Every counter by name, mutably, in declaration order.
            pub fn fields_mut(&mut self) -> impl Iterator<Item = (&'static str, &mut u64)> {
                [$( (stringify!($field), &mut self.$field) ),*].into_iter()
            }
        }
    };
}

counters! {
    /// Counters a [`crate::ReplacementPolicy`] accumulates about its own
    /// decisions. Cache-level counters (hits, misses, traffic, evictions)
    /// live with the cache controller in `gpu-mem`; these are the knobs that
    /// are only visible inside the scheme.
    pub struct PolicyStats {
        /// Set queries observed (each new access to the cache).
        pub queries: u64,
        /// Misses the scheme chose to bypass because every non-reserved way
        /// in the set was protected (PL > 0).
        pub protected_bypasses: u64,
        /// Hits recorded in the victim tag array.
        pub vta_hits: u64,
        /// Lines inserted into the victim tag array (TDA evictions seen).
        pub vta_insertions: u64,
        /// Victim tags restored after a bypassed miss (the on-miss VTA probe
        /// consumed the entry but the line never entered the TDA).
        pub vta_reinserted: u64,
        /// Completed sampling periods (PD recomputations considered).
        pub samples: u64,
        /// Samples that took the PD-increase path of Figure 9.
        pub pd_increases: u64,
        /// Samples that took the PD-decrease path of Figure 9.
        pub pd_decreases: u64,
        /// Sum over samples of the mean PD after recomputation, scaled by
        /// 1000 (fixed-point so the struct stays integer-only and exactly
        /// serializable). `mean_pd_milli / samples` is the average PD level.
        pub mean_pd_milli_sum: u64,
    }
}

impl PolicyStats {
    /// Average protection distance over all completed samples, or 0.0 if
    /// the scheme never sampled.
    pub fn avg_pd(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.mean_pd_milli_sum as f64 / 1000.0 / self.samples as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_pd_zero_when_never_sampled() {
        assert_eq!(PolicyStats::default().avg_pd(), 0.0);
    }

    #[test]
    fn avg_pd_fixed_point() {
        let s = PolicyStats { samples: 2, mean_pd_milli_sum: 9000, ..Default::default() };
        assert!((s.avg_pd() - 4.5).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = PolicyStats { queries: 1, vta_hits: 2, ..Default::default() };
        let b = PolicyStats { queries: 10, vta_hits: 20, samples: 1, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.queries, 11);
        assert_eq!(a.vta_hits, 22);
        assert_eq!(a.samples, 1);
    }
}
