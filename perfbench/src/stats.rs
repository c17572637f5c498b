//! Summary statistics for timings and latencies.

/// The percentiles a tail is reported at, highest last.
pub const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted, non-empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank `ceil(p/100 · n)`, immune to the decimal
/// percentiles' binary rounding (p99 of 1000 is rank 990, not 991).
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// Median (nearest-rank p50 for odd counts, mean of the middle pair for
/// even ones) of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).clamp(1, n.max(1)).min(n)
}

/// The highest percentile among `candidates` with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, if any.
pub fn tail_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= MIN_BEYOND)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// `"median X, pNN Y (n=N)"` for a timing sample, or the median alone
/// with the reason no tail percentile qualifies.
pub fn describe(values: &[f64], unit: &str) -> String {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match tail_percentile(n, &LADDER) {
        Some(p) => format!(
            "median {:.4} {unit}, p{p} {:.4} {unit} (n={n})",
            median(&sorted),
            percentile(&sorted, p)
        ),
        None => format!(
            "median {:.4} {unit} (n={n}; no percentile has {MIN_BEYOND} samples beyond it)",
            median(&sorted)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn beyond_counts_samples_above_the_nearest_rank() {
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(100, 50.0), 50);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1, 50.0), 0);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 4 samples: even the median has only 2 beyond it.
        assert_eq!(tail_percentile(4, &LADDER), None);
        // 20 samples: p50 has 10 beyond, p90 only 2.
        assert_eq!(tail_percentile(20, &LADDER), Some(50.0));
        // 100 samples: p90 has 10 beyond, p95 only 5.
        assert_eq!(tail_percentile(100, &LADDER), Some(90.0));
        // 1000: p99 has exactly 10 beyond; p99.9 has 1.
        assert_eq!(tail_percentile(1000, &LADDER), Some(99.0));
        assert_eq!(tail_percentile(999, &LADDER), Some(95.0));
        assert_eq!(tail_percentile(20_000, &LADDER), Some(99.9));
        // Candidates restrict the choice (a report with p50/p95/p99 only).
        assert_eq!(tail_percentile(20_000, &[50.0, 95.0, 99.0]), Some(99.0));
    }

    #[test]
    fn describe_prints_the_count_and_the_qualifying_tail() {
        let few = describe(&[1.0, 2.0, 3.0], "s");
        assert!(
            few.contains("n=3") && few.contains("no percentile"),
            "{few}"
        );
        let many: Vec<f64> = (1..=20).map(f64::from).collect();
        let d = describe(&many, "s");
        assert!(d.contains("p50 10.0000 s (n=20)"), "{d}");
    }
}
