//! Order statistics over a run's samples.

/// The median of `values` (the mean of the middle two for an even count);
/// zero for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile of `values` that still has at least `beyond`
/// samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// Samples beyond it in rank order: `beyond`, or 0 when the run was too
    /// short to have that many.
    pub beyond: usize,
    /// Samples in the run.
    pub count: usize,
}

/// The tail of `values` with at least `beyond` samples past it.  A run with
/// `beyond` samples or fewer has no such percentile and reports its maximum.
pub fn tail(values: &[f64], beyond: usize) -> Tail {
    let sorted = sorted(values);
    let count = sorted.len();
    if count == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            beyond: 0,
            count,
        };
    }
    let index = if count > beyond {
        count - beyond - 1
    } else {
        count - 1
    };
    Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / count as f64,
        beyond: count - index - 1,
        count,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&values, 10);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 75.0);
    }

    #[test]
    fn short_runs_report_their_maximum() {
        let t = tail(&[2.0, 1.0, 3.0], 10);
        assert_eq!(t.value, 3.0);
        assert_eq!(t.beyond, 0);
        assert_eq!(t.percentile, 100.0);
    }
}
