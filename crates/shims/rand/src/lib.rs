//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so this crate implements
//! exactly the API surface the workspace uses: [`Rng`] with `gen`,
//! `gen_range` and `gen_bool`, [`SeedableRng::seed_from_u64`],
//! [`rngs::StdRng`] (a xoshiro256++ generator seeded via SplitMix64) and
//! [`seq::SliceRandom::shuffle`]. The statistical quality is more than
//! adequate for simulation workloads; streams are deterministic per seed
//! but do **not** reproduce the bit streams of the real crates-io `rand`.

/// Low-level generator interface: a source of uniform 64-bit words.
pub trait RngCore {
    /// The next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// The next uniform 32-bit word.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from the full value domain
/// (`rng.gen::<T>()`).
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}

/// Uniform double in `[0, 1)` with 53 bits of precision.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Ranges that can be sampled uniformly (`rng.gen_range(lo..hi)`).
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let v = self.start + unit_f64(rng) * (self.end - self.start);
        // Guard against landing exactly on `end` through rounding.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

/// High-level convenience methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform value from a range.
    fn gen_range<T, Rg>(&mut self, range: Rg) -> T
    where
        Rg: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        unit_f64(self) < p
    }

    /// Uniform value over the full domain of `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ seeded via
    /// SplitMix64. Deterministic per seed, cloneable, and fast.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence-related helpers.
pub mod seq {
    use super::Rng;

    /// Shuffling of slices (Fisher–Yates).
    pub trait SliceRandom {
        /// Shuffle the slice in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        let mut c = StdRng::seed_from_u64(2);
        let xs: Vec<u64> = (0..16).map(|_| a.gen::<u64>()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen::<u64>()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.gen::<u64>()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let v = rng.gen_range(10usize..15);
            assert!((10..15).contains(&v));
            seen[v - 10] = true;
            let w = rng.gen_range(-3i64..=3);
            assert!((-3..=3).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn gen_bool_extremes_and_bias() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(!(0..200).any(|_| rng.gen_bool(0.0)));
        assert!((0..200).all(|_| rng.gen_bool(1.0)));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_600..3_400).contains(&hits), "got {hits}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "a 50-element shuffle is virtually never identity"
        );
    }

    #[test]
    fn shuffle_works_through_unsized_refs() {
        // Mirrors ConflictTable::random's use: `R: Rng + ?Sized`.
        fn go<R: Rng + ?Sized>(rng: &mut R) -> Vec<u8> {
            let mut v = vec![1u8, 2, 3, 4];
            v.shuffle(rng);
            v
        }
        let mut rng = StdRng::seed_from_u64(6);
        let _ = go(&mut rng);
    }
}
