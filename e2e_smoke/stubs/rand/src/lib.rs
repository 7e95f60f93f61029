//! Stand-in for the part of `rand` 0.8 the engine's data generators use:
//! `SmallRng::seed_from_u64` and `Rng::gen_range` over integer and float
//! ranges. The stream differs from the published crate's; it is a pure
//! function of the seed, which is all the generators rely on.

use std::ops::{Range, RangeInclusive};

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub trait Rng {
    fn next_u64(&mut self) -> u64;

    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }
}

/// A range a value can be drawn from uniformly.
pub trait SampleRange<T> {
    fn sample<G: Rng>(self, rng: &mut G) -> T;
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<G: Rng>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<G: Rng>(self, rng: &mut G) -> $t {
                assert!(self.start() <= self.end(), "gen_range: empty range");
                let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                (*self.start() as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}
int_ranges!(i32, i64, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample<G: Rng>(self, rng: &mut G) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        // 53 random bits make a uniform value in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

pub mod rngs {
    /// xoshiro256++, seeded through splitmix64.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl super::SeedableRng for SmallRng {
        fn seed_from_u64(mut seed: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *word = z ^ (z >> 31);
            }
            SmallRng { s }
        }
    }

    impl super::Rng for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_values_stay_in_range() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = a.gen_range(-3..=3i64);
            assert_eq!(x, b.gen_range(-3..=3i64));
            assert!((-3..=3).contains(&x));
            let f = a.gen_range(0.5..1.5f64);
            assert_eq!(f, b.gen_range(0.5..1.5f64));
            assert!((0.5..1.5).contains(&f));
        }
        assert_ne!(
            SmallRng::seed_from_u64(8).next_u64(),
            SmallRng::seed_from_u64(7).next_u64()
        );
    }
}
