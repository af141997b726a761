//! Order statistics, and the rule that compares two sets of runs against
//! a metric's bound.

/// The median of `values` (mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The arithmetic mean of `values`; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Linear-interpolated percentile `p` (0–100) of `values`; `0.0` for an
/// empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Which direction of a metric is an improvement.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latencies, set-up time, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// By what share of the parent's median the change's median is worse
/// (negative when it is better).
#[cfg(test)]
pub fn worse_by(parent: &[f64], change: &[f64], better: Better) -> f64 {
    let p = median(parent);
    let c = median(change);
    match better {
        Better::Lower => (c - p) / p,
        Better::Higher => (p - c) / p,
    }
}

/// The benchmark's regression rule: the change's median is worse than
/// the parent's by more than `bound` (a share of the parent's median).
#[cfg(test)]
pub fn regressed(parent: &[f64], change: &[f64], better: Better, bound: f64) -> bool {
    worse_by(parent, change, better) > bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn regression_rule_respects_direction_and_bound() {
        let parent = [100.0, 101.0, 99.0];
        assert!(regressed(&parent, &[80.0, 81.0, 79.0], Better::Higher, 0.1));
        assert!(!regressed(
            &parent,
            &[95.0, 96.0, 94.0],
            Better::Higher,
            0.1
        ));
        assert!(regressed(
            &parent,
            &[120.0, 121.0, 119.0],
            Better::Lower,
            0.1
        ));
        assert!(!regressed(&parent, &[80.0, 81.0, 79.0], Better::Lower, 0.1));
    }
}
