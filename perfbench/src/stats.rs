//! Order statistics over timing samples and the seeded input generator.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between order statistics. Panics on an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of p99/p90 that has at least ten samples beyond it, as
/// `(percentile, value)`; `None` below 100 samples.
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    [99u32, 90]
        .into_iter()
        .find(|&p| samples.len() * (100 - p as usize) >= 1000)
        .map(|p| (p, quantile(samples, p as f64 / 100.0)))
}

/// SplitMix64: the benchmark's only source of input randomness, so one
/// `--seed` always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 99]), None);
        assert_eq!(tail(&[1.0; 100]).map(|t| t.0), Some(90));
        assert_eq!(tail(&[1.0; 1000]).map(|t| t.0), Some(99));
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            [rng.next_u64(), rng.next_u64()]
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
