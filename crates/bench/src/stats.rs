//! Small statistics helpers (mean / standard deviation over repetitions).

/// Mean and (population) standard deviation of samples.
pub fn mean_std(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    // The floating-point mean of equal samples need not be the sample, and
    // the spread around it would then read as noise where there is none.
    if samples.iter().all(|&s| s == samples[0]) {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Run `f` for `reps` seeds and fold into (mean, stddev).
pub fn over_reps(reps: usize, mut f: impl FnMut(u64) -> f64) -> (f64, f64) {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|r| f(0xFA1B + r as u64 * 7919))
        .collect();
    mean_std(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-9);
        assert!((s - 2.0).abs() < 1e-9);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn identical_samples_have_no_spread() {
        let sum: f64 = 0.1 + 0.1 + 0.1;
        assert_ne!(
            sum / 3.0,
            0.1,
            "the mean of these samples is not the sample"
        );
        let (m, s) = mean_std(&[0.1, 0.1, 0.1]);
        assert_eq!(m.to_bits(), (sum / 3.0).to_bits(), "mean unchanged");
        assert_eq!(s, 0.0);
    }

    #[test]
    fn over_reps_feeds_distinct_seeds() {
        let mut seen = Vec::new();
        over_reps(3, |seed| {
            seen.push(seed);
            1.0
        });
        seen.dedup();
        assert_eq!(seen.len(), 3);
    }
}
