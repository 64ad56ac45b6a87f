//! Order statistics for the benchmark's reported numbers.
//!
//! Tail percentiles follow one rule everywhere: a percentile is only
//! reported when at least [`TAIL_MIN_BEYOND`] samples lie beyond it.
//! When the sample is too small for the requested percentile, the
//! highest percentile that still has that many samples beyond it is
//! reported instead (never below the median), together with the
//! sample count, so a thin tail is visible rather than silently noisy.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First quartile, median and third quartile by the "exclusive"
/// method of Python's `statistics.quantiles(xs, n=4)` — the rule the
/// benchmark's spread is judged by.
///
/// # Panics
/// With fewer than two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let len = v.len() as i64;
    let m = len + 1;
    // Python clamps the cut index first and then interpolates (or
    // extrapolates, for tiny samples) with the signed remainder
    let q = |i: i64| {
        let j = ((i * m) / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        (v[(j - 1) as usize] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// A tail percentile as actually reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile's value (nearest rank).
    pub value: f64,
    /// The percentile reported, in (0, 1]; lower than the requested one
    /// when the sample was too small for it.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The `want` percentile (0 < want ≤ 1) of `xs` by nearest rank, under
/// the tail rule: the rank is lowered until [`TAIL_MIN_BEYOND`] samples
/// lie beyond it, but never below the median's rank.
///
/// # Panics
/// On an empty slice or `want` outside (0, 1].
pub fn tail(xs: &[f64], want: f64) -> Tail {
    assert!(!xs.is_empty(), "percentile of no samples");
    assert!(want > 0.0 && want <= 1.0, "percentile {want} outside (0, 1]");
    let v = sorted(xs);
    let n = v.len();
    let wanted_rank = ((want * n as f64).ceil() as usize).clamp(1, n);
    let median_rank = n.div_ceil(2);
    let supported_rank = n.saturating_sub(TAIL_MIN_BEYOND).max(median_rank);
    let rank = wanted_rank.min(supported_rank);
    Tail { value: v[rank - 1], percentile: rank as f64 / n as f64, samples: n }
}

/// Attempted/failed tally of the benchmark's unit of work (a step of a
/// simulation workload, a job of the service fleet).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Units attempted.
    pub attempted: u64,
    /// Units that failed.
    pub failed: u64,
}

impl Outcomes {
    /// Record one unit's outcome.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed units over attempted ones (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Completed units over attempted ones: `1 − failed_frac`.
    pub fn completed_frac(&self) -> f64 {
        1.0 - self.failed_frac()
    }

    /// Combine two tallies.
    pub fn merged(self, o: Outcomes) -> Outcomes {
        Outcomes { attempted: self.attempted + o.attempted, failed: self.failed + o.failed }
    }
}
