//! The workspace's seeded generators.
//!
//! Every random draw in the workspace comes from one of the two
//! generators below. Both stay, because committed results are functions
//! of their exact streams:
//!
//! * [`Xoshiro256`] (xoshiro256\*\* seeded through SplitMix64) draws the
//!   simulator's unfair lock grants and wire jitter, so every figure CSV
//!   depends on it; the property tests' seeds were calibrated to it too.
//! * [`XorShift64`] draws fault schedules: the
//!   [`ChaosEngine`](crate::ChaosEngine) of the native fabric and of the
//!   simulated lossy wire, whose drops and duplicates the degradation
//!   figure and the chaos tests replay.
//!
//! Neither is cryptographic; both are deterministic for a seed.

/// xoshiro256\*\*, the simulator's and the property tests' generator.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Expand a 64-bit seed into the full state with SplitMix64, so every
    /// seed, zero included, gives a well-mixed stream.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform draw from `0..n`: Lemire's multiply-shift, with the
    /// rejection loop that removes its bias. Panics when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0): empty range");
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        if (m as u64) < n {
            let t = n.wrapping_neg() % n;
            while (m as u64) < t {
                m = u128::from(self.next_u64()) * u128::from(n);
            }
        }
        (m >> 64) as u64
    }

    /// A uniform draw from `0..=max`. Returns 0 without drawing when
    /// `max == 0`, so a jitter-free cost model leaves the stream untouched.
    pub fn jitter(&mut self, max: u64) -> u64 {
        match max {
            0 => 0,
            u64::MAX => self.next_u64(),
            _ => self.below(max + 1),
        }
    }
}

/// xorshift64 (Marsaglia's 13/7/17 triple), the fault schedules'
/// generator: one word of state, so the native engine can advance it
/// with a single atomic update.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    pub(crate) state: u64,
}

impl XorShift64 {
    /// Seed the generator; a zero seed is remapped (xorshift has a zero
    /// fixed point).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = step(self.state);
        self.state
    }
}

/// One xorshift64 step.
pub(crate) fn step(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// A raw draw reduced to `0..PM_SCALE`.
pub(crate) fn per_mille(raw: u64) -> u16 {
    (raw % u64::from(crate::PM_SCALE)) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PM_SCALE;

    const XOSHIRO_42: [u64; 8] = [
        0x1578_0b2e_0c2e_c716,
        0x6104_d986_6d11_3a7e,
        0xae17_5332_39e4_99a1,
        0xecb8_ad47_03b3_60a1,
        0xfde6_dc7f_e2ec_5e64,
        0xc50d_a531_0179_5238,
        0xb821_5485_5a65_ddb2,
        0xd99a_2743_ebe6_0087,
    ];

    /// The streams every figure CSV and calibrated test seed depend on.
    /// Any change to a generator, its seeding or its range draw fails here
    /// before it silently shifts a result.
    #[test]
    fn streams_are_pinned() {
        let mut x = Xoshiro256::seed_from_u64(42);
        assert_eq!(XOSHIRO_42.map(|_| x.next_u64()), XOSHIRO_42);
        let ninth = x.next_u64();

        let mut x = XorShift64::new(42);
        assert_eq!(
            [0; 8].map(|_| x.next_u64()),
            [
                0x0000_000a_9551_4aaa,
                0xa00a_aafd_f802_02bf,
                0x8b13_399c_d1d1_497a,
                0x283b_88fe_5fdf_f568,
                0x4e91_5fe3_8b34_1082,
                0x8c17_f2b4_3370_1823,
                0x9ec2_fe1a_a5b2_90d3,
                0x9370_f576_ec23_a132,
            ]
        );
        let mut x = XorShift64::new(0);
        assert_eq!(
            [0; 8].map(|_| x.next_u64()),
            [
                0xdc1b_77ae_0bf3_4dad,
                0x64f0_eeb9_026e_6076,
                0x7b07_ce91_e590_6136,
                0x305f_050c_368d_cc74,
                0x2ceb_16e0_a1c5_4aec,
                0x9710_1dce_4e7b_fb79,
                0x9ad2_e144_d6e8_f2cf,
                0xd9aa_792e_1af4_70ea,
            ]
        );

        // One raw draw per `below` unless the rejection loop runs; for
        // n = 2^63 + 1 it does, so that stream ends past the ninth draw.
        let cases: [(u64, [u64; 8], bool); 4] = [
            (2, [0, 0, 1, 1, 1, 1, 1, 1], false),
            (24, [2, 9, 16, 22, 23, 18, 17, 20], false),
            (1000, [83, 378, 680, 924, 991, 769, 719, 850], false),
            (
                (1 << 63) + 1,
                [
                    9_147_776_489_032_658_738,
                    7_099_593_415_032_875_292,
                    6_633_989_454_467_100_377,
                    7_022_439_175_346_172_479,
                    2_681_029_139_591_840_946,
                    7_388_145_106_668_446_555,
                    8_095_973_720_557_042_685,
                    7_852_687_488_934_748_778,
                ],
                true,
            ),
        ];
        for (n, expected, rejects) in cases {
            let mut x = Xoshiro256::seed_from_u64(42);
            assert_eq!(expected.map(|_| x.below(n)), expected, "below({n})");
            assert_eq!(x.next_u64() != ninth, rejects, "below({n}) rejection");
        }

        let mut x = Xoshiro256::seed_from_u64(42);
        assert_eq!(x.jitter(0), 0);
        assert_eq!(x.jitter(u64::MAX), XOSHIRO_42[0], "raw draw");
        assert_eq!(x.next_u64(), XOSHIRO_42[1], "jitter(0) must not draw");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn below_and_jitter_respect_bounds() {
        let mut r = Xoshiro256::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(r.below(14) < 14);
            assert!(r.jitter(4) <= 4);
            assert_eq!(r.below(1), 0);
        }
    }

    #[test]
    fn below_hits_every_value() {
        let mut r = Xoshiro256::seed_from_u64(1);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..1000 {
            let v = a.next_u64();
            assert_eq!(v, b.next_u64());
            assert_ne!(v, 0, "xorshift must never reach the zero fixed point");
        }
        assert_ne!(
            XorShift64::new(0).next_u64(),
            0,
            "zero seed must be remapped"
        );
    }

    #[test]
    fn draws_cover_the_pm_range() {
        let mut rng = XorShift64::new(7);
        let mut lo = u16::MAX;
        let mut hi = 0;
        for _ in 0..10_000 {
            let d = per_mille(rng.next_u64());
            assert!(d < PM_SCALE);
            lo = lo.min(d);
            hi = hi.max(d);
        }
        assert!(
            lo < 50 && hi >= 950,
            "draws should span 0..1000: {lo}..{hi}"
        );
    }
}
