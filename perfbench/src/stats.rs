//! Order statistics over timing samples.

/// The median of `samples` (mean of the two middle values for an even
/// count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest whole percentile whose nearest-rank value leaves at least
/// 10 of `n` samples beyond it; 100 (the maximum) when `n ≤ 10`.
pub fn tail_percentile(n: usize) -> f64 {
    if n <= 10 {
        return 100.0;
    }
    (100.0 * (n - 10) as f64 / n as f64).floor()
}

/// The mean over windows of `stat` on each window's samples, where each
/// window starts at an index of `starts` (ascending) and runs to the next
/// start or the end; empty windows are skipped; 0 when all are empty.
///
/// The benchmark's box shifts between fast and slow stretches that each
/// last seconds. When the samples are taken in time order and a window
/// spans a second or two, a window's samples share one stretch. A median
/// of all of a run's samples jumps from one stretch's value to the other
/// as their shares move from run to run; this mean moves in proportion.
pub fn window_mean<T>(
    samples: &[T],
    starts: impl IntoIterator<Item = usize>,
    stat: impl Fn(&[T]) -> f64,
) -> f64 {
    let mut bounds: Vec<usize> = starts.into_iter().collect();
    bounds.push(samples.len());
    let per_window: Vec<f64> = bounds
        .windows(2)
        .filter(|w| w[1] > w[0])
        .map(|w| stat(&samples[w[0]..w[1]]))
        .collect();
    per_window.iter().sum::<f64>() / per_window.len().max(1) as f64
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        // 32 samples: p68 is rank 22, leaving exactly 10 beyond it.
        assert_eq!(tail_percentile(32), 68.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(5), 100.0);
    }

    #[test]
    fn window_means() {
        let samples = [1.0, 3.0, 2.0, 10.0, 30.0];
        // Windows [1, 3, 2] and [10, 30]: medians 2 and 20.
        assert_eq!(window_mean(&samples, [0, 3], median), 11.0);
        // An empty window is skipped.
        assert_eq!(window_mean(&samples, [0, 3, 3], median), 11.0);
        assert_eq!(window_mean(&[] as &[f64], [0], median), 0.0);
    }
}
