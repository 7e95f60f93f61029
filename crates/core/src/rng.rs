//! The workspace's seeded generator: xoshiro256++ seeded through
//! splitmix64.
//!
//! Every data and workload generator (`scidb_ssdb::gen`, the grid's fault
//! plans, the conformance case generator, the bench data sets) draws from
//! this one type, so what a seed cooks is a pure function of the code in
//! this file — the tests below pin the stream.

use std::ops::{Range, RangeInclusive};

/// A small, fast, seedable generator. Not cryptographic.
#[derive(Debug, Clone)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// The generator whose whole stream is determined by `seed`.
    pub fn seed_from_u64(mut seed: u64) -> Self {
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

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
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

    /// A uniform value in `[0, 1)` from 53 bits of the stream.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform value from `range` (`a..b` or `a..=b` over the integer
    /// types below, `a..b` over `f64`). Panics on an empty range.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// `lo` plus one draw reduced modulo `span`.
    fn offset(&mut self, lo: i128, span: u128) -> i128 {
        lo + (self.next_u64() as u128 % span) as i128
    }
}

/// A range [`SmallRng::gen_range`] can draw a `T` from.
pub trait SampleRange<T> {
    /// One value of the range, drawn from `rng`.
    fn sample(self, rng: &mut SmallRng) -> T;
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let (lo, hi) = (self.start as i128, self.end as i128);
                rng.offset(lo, (hi - lo) as u128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start() <= self.end(), "gen_range: empty range");
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                rng.offset(lo, (hi - lo) as u128 + 1) as $t
            }
        }
    )*};
}
int_ranges!(i32, i64, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut SmallRng) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + rng.unit() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::SmallRng;

    /// Known answers: what `e2e_smoke`'s data set was cooked from before
    /// this module existed. A change here changes what the benchmark
    /// measures.
    #[test]
    fn the_stream_is_pinned() {
        let first4 = |seed| {
            let mut r = SmallRng::seed_from_u64(seed);
            [r.next_u64(), r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(
            first4(0),
            [
                0x5317_5d61_490b_23df,
                0x61da_6f3d_c380_d507,
                0x5c0f_df91_ec9a_7bfc,
                0x02ee_bf8c_3bbe_5e1a
            ]
        );
        assert_eq!(
            first4(7),
            [
                0x0e2c_1a00_2aae_913d,
                0x2c0f_c8dd_fa4e_9e14,
                0xb7b3_11b3_b0d4_5872,
                0x6d5d_9f6a_6318_013c
            ]
        );
        let mut r = SmallRng::seed_from_u64(7);
        assert_eq!(r.gen_range(-3..=3i64), -3);
        assert_eq!(r.gen_range(0.5..1.5f64), 0.672_115_854_448_117_7);
        assert!(!r.gen_bool(0.5)); // the third draw is 0.7175…
        assert_eq!(r.gen_range(0..10usize), 6);
    }

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
            assert!((10..12).contains(&a.gen_range(10..12u32)));
            assert!(!a.gen_bool(0.0) && a.gen_bool(1.0));
            b = a.clone();
        }
        assert_ne!(
            SmallRng::seed_from_u64(8).next_u64(),
            SmallRng::seed_from_u64(7).next_u64()
        );
    }
}
