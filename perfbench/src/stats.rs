//! Latency samples and the percentile rule.
//!
//! A timing is reported as its median and the highest whole percentile
//! (at most p99) that has at least ten samples beyond it. An operation
//! that failed counts as an infinitely late sample, so it misses every
//! latency limit instead of vanishing from the tail.

/// Latencies of one operation class, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    ms: Vec<f64>,
    failed: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

impl Latencies {
    pub fn push(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    /// Records a failed operation: it missed every limit.
    pub fn fail(&mut self) {
        self.failed += 1;
    }

    /// Operations recorded, failed ones included.
    pub fn count(&self) -> usize {
        self.ms.len() + self.failed
    }

    fn sorted(&self) -> Vec<f64> {
        let mut all = self.ms.clone();
        all.extend(std::iter::repeat_n(f64::INFINITY, self.failed));
        all.sort_by(f64::total_cmp);
        all
    }

    /// Nearest-rank percentile `q` (in `1..=100`); `NaN` when empty.
    pub fn percentile(&self, q: u32) -> f64 {
        let sorted = self.sorted();
        if sorted.is_empty() {
            return f64::NAN;
        }
        sorted[rank(sorted.len(), q) - 1]
    }

    pub fn p50(&self) -> f64 {
        self.percentile(50)
    }

    /// The tail: `(level, value)` at [`tail_level`] for this count.
    pub fn tail(&self) -> (u32, f64) {
        let level = tail_level(self.count());
        (level, self.percentile(level))
    }
}

/// 1-based nearest rank of percentile `q` among `n` sorted samples.
fn rank(n: usize, q: u32) -> usize {
    ((q as usize * n).div_ceil(100)).clamp(1, n)
}

/// The highest whole percentile in `50..=99` with at least
/// [`TAIL_BEYOND`] of `n` samples strictly above its rank; 50 when even
/// the median has fewer beyond it.
pub fn tail_level(n: usize) -> u32 {
    (50..=99)
        .rev()
        .find(|&q| n.saturating_sub(rank(n.max(1), q)) >= TAIL_BEYOND)
        .unwrap_or(50)
}

/// Median of a non-empty list (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// How a tail percentile is named in the report: `p99`, or the lower
/// level with a note when the sample count does not support p99.
pub fn tail_label(level: u32, n: usize) -> String {
    if level == 99 {
        "p99".to_string()
    } else {
        format!("p{level} (only {n} samples: p99 would have fewer than {TAIL_BEYOND} beyond it)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = f64>) -> Latencies {
        let mut l = Latencies::default();
        for v in values {
            l.push(v);
        }
        l
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(tail_level(1000), 99);
        assert_eq!(tail_level(1100), 99);
        // 999 samples: p99 is rank 990, only 9 beyond.
        assert_eq!(tail_level(999), 98);
        assert_eq!(tail_level(100), 90);
        assert_eq!(tail_level(60), 83);
        assert_eq!(tail_level(19), 50);
        for n in 20..3000 {
            let q = tail_level(n);
            assert!(n - rank(n, q) >= TAIL_BEYOND, "n={n} q={q}");
            if q < 99 {
                assert!(
                    n - rank(n, q + 1) < TAIL_BEYOND,
                    "n={n}: p{} also qualifies",
                    q + 1
                );
            }
        }
    }

    #[test]
    fn tail_reports_the_value_at_its_level() {
        let l = samples((1..=100).map(f64::from));
        assert_eq!(l.tail(), (90, 90.0));
        assert_eq!(l.p50(), 50.0);
        let l = samples((1..=2000).map(f64::from));
        assert_eq!(l.tail(), (99, 1980.0));
    }

    #[test]
    fn failures_count_as_missing_every_limit() {
        let mut l = samples((1..=95).map(f64::from));
        for _ in 0..5 {
            l.fail();
        }
        assert_eq!(l.count(), 100);
        // Five failures sit above every success: p90 is still a success,
        // but p96 and up are failures, i.e. over any limit.
        assert_eq!(l.percentile(90), 90.0);
        assert!(l.percentile(96).is_infinite());
        // Fifteen failures push the reported tail itself over the limit.
        let mut l = samples((1..=85).map(f64::from));
        for _ in 0..15 {
            l.fail();
        }
        let (level, value) = l.tail();
        assert_eq!(level, 90);
        assert!(value.is_infinite());
    }

    #[test]
    fn median_of_even_and_odd_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
