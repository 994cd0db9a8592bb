//! A small, dependency-free, deterministic pseudo-random number generator.
//!
//! The build environment for this reproduction is offline, so external RNG
//! crates are unavailable; every consumer of randomness (benchmark input
//! generators, training-sample draws, randomized tests) uses this crate
//! instead. The generator is xoshiro256\*\* (Blackman & Vigna), seeded by
//! SplitMix64 — the standard recommendation for expanding a 64-bit seed
//! into a full 256-bit state without correlated streams.
//!
//! The API deliberately mirrors the subset of `rand` the repository used
//! (`seed_from_u64`, `random_range` over half-open and inclusive ranges) so
//! call sites read the same.
//!
//! Determinism is part of the contract: the same seed produces the same
//! stream on every platform and in every future version of this crate.
//! Experiment records (`results/`, EXPERIMENTS.md) depend on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Advance a SplitMix64 state and return the next output.
///
/// Used both as the seed expander for [`Rng`] and directly wherever a
/// one-shot hash-like mix of a `u64` is enough.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256\*\* generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create a generator from a 64-bit seed (SplitMix64 expansion).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output.
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

    /// A uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f32` in `[0, 1)` with 24 random mantissa bits.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// A uniform `u64` in `[0, bound)` (bounded rejection, no modulo bias).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below(0)");
        // Rejection sampling over the largest multiple of `bound`.
        let zone = u64::MAX - (u64::MAX % bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// A uniform sample from a range; mirrors `rand::Rng::random_range`.
    ///
    /// Supported ranges: `Range`/`RangeInclusive` over `f32`, `f64`, `i32`,
    /// `u32`, `u64`, and `usize`. Half-open float ranges sample `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

/// A range that can be sampled uniformly by [`Rng::random_range`].
pub trait SampleRange<T> {
    /// Draw one uniform sample.
    fn sample(self, rng: &mut Rng) -> T;
}

impl SampleRange<f32> for Range<f32> {
    fn sample(self, rng: &mut Rng) -> f32 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * rng.next_f32()
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * rng.next_f64()
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.next_below(span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.next_below(span + 1) as i128) as $t
            }
        }
    )*};
}

int_sample_range!(i32, u32, i64, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut r = Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let f = r.next_f32();
            assert!((0.0..1.0).contains(&f));
            let d = r.next_f64();
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: f32 = r.random_range(-2.5f32..3.5);
            assert!((-2.5..3.5).contains(&v));
            let i: i32 = r.random_range(-10i32..10);
            assert!((-10..10).contains(&i));
            let u: usize = r.random_range(0usize..=4);
            assert!(u <= 4);
        }
    }

    #[test]
    fn bounded_draws_cover_all_values() {
        let mut r = Rng::seed_from_u64(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.next_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mean_is_roughly_centered() {
        let mut r = Rng::seed_from_u64(9);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut s = 0u64;
        let a = splitmix64(&mut s);
        let mut s2 = 0u64;
        assert_eq!(a, splitmix64(&mut s2));
        assert_ne!(splitmix64(&mut s), a);
    }
}
