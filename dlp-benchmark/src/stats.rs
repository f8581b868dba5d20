//! Order statistics and the comparison rule.
//!
//! Quartiles use the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, so a spread computed here matches
//! one computed from the same values in Python.

/// Median and quartiles of a sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of values.
    pub n: usize,
}

impl Summary {
    /// Interquartile distance as a share of the median (0 when the
    /// median is 0 and the quartiles agree).
    pub fn spread(&self) -> f64 {
        let iqr = self.q3 - self.q1;
        if self.median != 0.0 {
            iqr / self.median.abs()
        } else if iqr == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, quartiles and n; `None` for an empty sample.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let (q1, q3) = if n == 1 {
        (v[0], v[0])
    } else {
        // statistics.quantiles(..., n=4, method="exclusive").
        let m = n + 1;
        let q = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        (q(1), q(3))
    };
    Some(Summary { median, q1, q3, n })
}

/// Percentiles considered for a tail, highest first, in tenths of a
/// percent (integer ranks avoid float rounding at the boundaries).
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The tail of a sample: the highest percentile with at least ten
/// values beyond it, or the maximum when the sample is too small for
/// any. Returns `(percentile, value)`, the percentile `None` for the
/// maximum. Nearest-rank percentiles.
pub fn tail(values: &[f64]) -> Option<(Option<f64>, f64)> {
    let v = sorted(values);
    let n = v.len();
    let max = *v.last()?;
    for p in TAIL_LADDER {
        let rank = (p * n).div_ceil(1000);
        if rank >= 1 && n - rank >= 10 {
            return Some((Some(p as f64 / 10.0), v[rank - 1]));
        }
    }
    Some((None, max))
}

/// Workload order for each round of a set: round 0 is the discarded
/// warm-up, and the order reverses from one round to the next so no
/// workload always runs first.
pub fn round_orders(workloads: usize, rounds: usize) -> Vec<Vec<usize>> {
    (0..rounds)
        .map(|r| {
            let fwd: Vec<usize> = (0..workloads).collect();
            if r % 2 == 0 {
                fwd
            } else {
                fwd.into_iter().rev().collect()
            }
        })
        .collect()
}

/// Outcome of comparing one (workload, metric) pair of two sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is no worse than the base by more than the bound.
    Within,
    /// The new median is worse than the base by more than the bound.
    Over,
    /// The run-to-run spread is wider than the bound, so a shift of the
    /// bound's size could not be seen.
    Unresolved,
}

impl Verdict {
    /// Rendering used by `compare`.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Over => "OVER",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when better). An absolute difference when the base is 0.
fn worsening(base: f64, new: f64, lower_is_better: bool) -> f64 {
    let diff = if lower_is_better {
        new - base
    } else {
        base - new
    };
    if base != 0.0 {
        diff / base.abs()
    } else {
        diff
    }
}

/// The comparison rule: a pair is unresolved when either side's spread
/// exceeds the bound, unless every new run beats every base run;
/// otherwise it is over when the median worsened by more than the bound.
pub fn verdict(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (Some(b), Some(n)) = (summarize(base), summarize(new)) else {
        return Verdict::Unresolved;
    };
    if b.spread() > bound || n.spread() > bound {
        let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
        let all_better = new.iter().all(|&x| base.iter().all(|&y| better(x, y)));
        return if all_better {
            Verdict::Within
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(b.median, n.median, lower_is_better) > bound {
        Verdict::Over
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = summarize(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (4.0, 4.0, 4.0, 0.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn tail_keeps_ten_values_beyond_it() {
        // 5 values: no percentile has ten beyond it -> the maximum.
        assert_eq!(tail(&[5.0, 1.0, 3.0, 2.0, 4.0]), Some((None, 5.0)));
        // 100 values: p90 leaves exactly 10 beyond it, p95 only 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((Some(90.0), 90.0)));
        // 20 values: only the median qualifies.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((Some(50.0), 10.0)));
        // 1000 values: p99 leaves 10 beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((Some(99.0), 990.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn rounds_alternate_order_after_the_warm_up() {
        let r = round_orders(3, 4);
        assert_eq!(
            r,
            vec![vec![0, 1, 2], vec![2, 1, 0], vec![0, 1, 2], vec![2, 1, 0]]
        );
        // Every workload leads some measured round (rounds 1..).
        let firsts: std::collections::BTreeSet<usize> = r[1..].iter().map(|o| o[0]).collect();
        assert_eq!(firsts.len(), 2);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let same = [10.02, 9.98, 10.0, 10.1, 9.95];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let faster = [8.0, 8.1, 7.9, 8.0, 8.05];
        assert_eq!(verdict(&base, &same, true, 0.10), Verdict::Within);
        assert_eq!(verdict(&base, &slower, true, 0.10), Verdict::Over);
        assert_eq!(verdict(&base, &faster, true, 0.10), Verdict::Within);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&base, &faster, false, 0.10), Verdict::Over);
        // A spread wider than the bound cannot resolve a small bound...
        let noisy = [5.0, 10.0, 15.0, 10.0, 20.0];
        assert_eq!(verdict(&base, &noisy, true, 0.10), Verdict::Unresolved);
        // ...unless every new run beats every base run.
        let noisy_fast = [1.0, 2.0, 4.0, 6.0, 9.0];
        assert_eq!(verdict(&base, &noisy_fast, true, 0.10), Verdict::Within);
        // Exact metrics: a zero bound allows no movement at all.
        assert_eq!(verdict(&[0.098], &[0.098], true, 0.0), Verdict::Within);
        assert_eq!(verdict(&[0.098], &[0.099], true, 0.0), Verdict::Over);
    }

    /// `full-all`'s peak memory has two modes. Two sets of the same code
    /// that land mostly in opposite modes stay within its bound.
    #[test]
    fn bimodal_peak_memory_is_within_its_bound() {
        use crate::catalog::PEAK_RSS_BOUND;
        let low = [104.1, 103.9, 104.3, 144.2, 104.0];
        let high = [144.0, 144.3, 103.8, 143.9, 144.1];
        for (base, new) in [(&low, &high), (&high, &low)] {
            assert_eq!(verdict(base, new, true, PEAK_RSS_BOUND), Verdict::Within);
        }
        // The bound still catches a real growth beyond the upper mode.
        let grown = [230.0, 231.0, 229.5, 230.4, 230.2];
        assert_eq!(verdict(&low, &grown, true, PEAK_RSS_BOUND), Verdict::Over);
    }
}
