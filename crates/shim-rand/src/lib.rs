//! Offline stand-in for the `rand` crate.
//!
//! This workspace builds in an environment without registry access, so the
//! subset of `rand` 0.8 the training stack actually uses is implemented
//! here: [`rngs::StdRng`] (a splitmix64 generator rather than ChaCha — the
//! repo only needs determinism and reasonable statistical quality, not
//! cryptographic strength), [`SeedableRng::seed_from_u64`], and the
//! [`Rng`] extension surface (`gen`, `gen_range` over integer/float
//! ranges, `gen_bool`).
//!
//! Streams seeded from different `u64`s are decorrelated by the splitmix64
//! output mix; the same seed always reproduces the same stream, which is
//! the property every determinism test in this repo leans on.

/// Low-level generator interface: a source of uniform `u64`s.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable construction (the repo only uses `seed_from_u64`).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from an RNG via [`Rng::gen`].
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// `x mod span` for one 64-bit draw. Every span that fits 64 bits takes a
/// hardware `u64` remainder (the same value as the 128-bit formula, since
/// `x < 2^64`); only the full inclusive 64-bit range has `span = 2^64` and
/// takes the 128-bit remainder.
#[inline]
fn reduce(x: u64, span: u128) -> u64 {
    match u64::try_from(span) {
        Ok(span) => x % span,
        Err(_) => ((x as u128) % span) as u64,
    }
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let r = reduce(rng.next_u64(), span);
                (self.start as i128 + r as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let r = reduce(rng.next_u64(), span);
                (lo as i128 + r as i128) as $t
            }
        }
    )*};
}
impl_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let u = <$t as Standard>::sample(rng);
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let u = <$t as Standard>::sample(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}
impl_range_float!(f32, f64);

/// High-level sampling methods, blanket-implemented for every generator.
pub trait Rng: RngCore {
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} out of [0,1]");
        <f64 as Standard>::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic generator: splitmix64 over a 64-bit counter state.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        #[inline]
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl StdRng {
        /// The generator's raw 64-bit counter state, for checkpointing.
        /// [`StdRng::from_state`] rebuilds a generator that continues the
        /// stream exactly where this one left off.
        #[inline]
        pub fn state(&self) -> u64 {
            self.state
        }

        /// Rebuild a generator from a captured [`StdRng::state`] value.
        #[inline]
        pub fn from_state(state: u64) -> Self {
            StdRng { state }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.gen_range(3usize..10);
            assert!((3..10).contains(&x));
            let y = rng.gen_range(0..=4u32);
            assert!(y <= 4);
            let f = rng.gen_range(-2.0f32..2.0);
            assert!((-2.0..2.0).contains(&f));
            let g = rng.gen_range(-0.5f32..=0.5);
            assert!((-0.5..=0.5).contains(&g));
        }
    }

    /// `gen_range` must equal the 128-bit formula it replaced, draw for
    /// draw: the value is `lo + (x mod span)` with the arithmetic done in
    /// 128 bits, whichever remainder instruction computed it.
    #[test]
    fn gen_range_matches_wide_reference_draw_for_draw() {
        fn reference(x: u64, lo: i128, span: u128) -> i128 {
            lo + ((x as u128) % span) as i128
        }
        const DRAWS: usize = 100_000;
        let spans = [1u64, 2, 3, 1_200, 2_242, (1 << 32) - 1, (1 << 63) + 1, u64::MAX];
        for (i, &span) in spans.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(i as u64);
            let mut raw = rng.clone();
            for _ in 0..DRAWS {
                let want = reference(raw.gen::<u64>(), 0, span as u128);
                assert_eq!(rng.gen_range(0..span) as i128, want, "span {span}");
            }
        }
        // Span 2^64 — the one case left on the wide path.
        let mut rng = StdRng::seed_from_u64(99);
        let mut raw = rng.clone();
        for _ in 0..DRAWS {
            let x = raw.gen::<u64>();
            assert_eq!(rng.gen_range(0..=u64::MAX), x);
            let want = reference(raw.gen(), i64::MIN as i128, 1 << 64);
            assert_eq!(rng.gen_range(i64::MIN..=i64::MAX) as i128, want);
        }
        // Signed ranges crossing zero.
        let mut rng = StdRng::seed_from_u64(7);
        let mut raw = rng.clone();
        for _ in 0..DRAWS {
            assert_eq!(rng.gen_range(-5i32..7) as i128, reference(raw.gen(), -5, 12));
            assert_eq!(rng.gen_range(-3i8..=3) as i128, reference(raw.gen(), -3, 7));
            let (lo, hi) = (i64::MIN + 1, i64::MAX);
            let want = reference(raw.gen(), lo as i128, u64::MAX as u128 - 1);
            assert_eq!(rng.gen_range(lo..hi) as i128, want);
            let want = reference(raw.gen(), -1200, 2_242);
            assert_eq!(rng.gen_range(-1200isize..=1041) as i128, want);
        }
    }

    #[test]
    fn unit_floats_in_range_and_spread() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut sum = 0.0f64;
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(0);
        let mut b = StdRng::seed_from_u64(1);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }
}
