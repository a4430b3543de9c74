//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the (small) subset of the rand 0.8 API the workspace uses — `StdRng`,
//! `SeedableRng::seed_from_u64`, `Rng::{gen, gen_range, gen_bool}` — backed
//! by SplitMix64. All consumers seed explicitly, so the only contract that
//! matters is *determinism per seed*, which holds here just as it does for
//! the real crate (though the streams differ, so seeds tuned against real
//! `rand` may need re-tuning).
//!
//! Not cryptographically secure; not a general-purpose RNG. Replace with
//! the real crate if the environment ever gains registry access.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

pub mod rngs {
    pub use crate::StdRng;
}

/// Seedable RNG constructor (the one construction path the workspace uses).
pub trait SeedableRng: Sized {
    /// Builds the RNG from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A value sampleable from the RNG's full-range output (the `Standard`
/// distribution of real rand).
pub trait Sample {
    /// Draws one value.
    fn sample<R: Rng>(rng: &mut R) -> Self;
}

impl Sample for f64 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for u64 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for bool {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// A range that can produce a uniform sample (the `SampleRange` of real
/// rand, minus the unused corners).
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, matching real rand.
    fn sample_in<R: Rng>(self, rng: &mut R) -> T;
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_in<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_in<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return lo + rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}

int_ranges!(u64, usize, u32, u16, u8, i64, i32);

impl SampleRange<f64> for Range<f64> {
    fn sample_in<R: Rng>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_in<R: Rng>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        lo + f64::sample(rng) * (hi - lo)
    }
}

/// The user-facing sampling interface.
pub trait Rng: Sized {
    /// The raw 64-bit output stream.
    fn next_u64(&mut self) -> u64;

    /// Samples a value of `T` from its natural full-range distribution
    /// (`f64` in [0,1), integers over their full range).
    fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_in(self)
    }

    /// Bernoulli trial with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

/// The workspace's standard RNG: SplitMix64. Small state, passes BigCrush
/// on its 64-bit output, and — the property everything here relies on —
/// replays bit-identically from a seed.
#[derive(Clone, Debug)]
pub struct StdRng {
    state: u64,
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // One warm-up step decorrelates small/sequential seeds.
        let mut rng = StdRng {
            state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15),
        };
        let _ = rng.next_u64();
        rng
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let a = r.gen_range(3u64..10);
            assert!((3..10).contains(&a));
            let b = r.gen_range(0usize..=4);
            assert!(b <= 4);
            let c = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&c));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((20_000..30_000).contains(&hits), "got {hits}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = StdRng::seed_from_u64(4);
        let _ = r.gen_range(5u64..5);
    }

    #[test]
    fn uniformity_rough_check() {
        let mut r = StdRng::seed_from_u64(5);
        let mut buckets = [0usize; 10];
        for _ in 0..100_000 {
            buckets[r.gen_range(0usize..10)] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!((9_000..11_000).contains(&b), "bucket {i}: {b}");
        }
    }
}
