//! Offline stand-in for `proptest`: the `proptest!` macro, a
//! [`Strategy`] trait over ranges/tuples/collections, `any::<T>()`, and
//! the `prop_assert*`/`prop_assume!` macros.
//!
//! Cases are generated from a deterministic per-case seed; there is no
//! shrinking — a failing case panics with the assertion message and the
//! case number, and re-running reproduces it exactly (generation is a
//! pure function of the case index).

extern crate self as proptest;

use rand::rngs::StdRng;
use rand::{Rng, SampleRange};

/// Runner configuration (subset: case count).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Smaller than upstream's 256: cases don't shrink on failure, so
        // CI time is better spent across many properties.
        ProptestConfig { cases: 64 }
    }
}

/// A generator of values for one proptest argument.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { base: self, f }
    }

    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { base: self, f }
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                self.clone().sample_from(rng)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                self.clone().sample_from(rng)
            }
        }
    )*};
}
impl_range_strategy!(u8, u32, u64, usize, i8, f32, f64);

pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.base.generate(rng))
    }
}

pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.base.generate(rng)).generate(rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);

/// Types with a default whole-domain strategy, for [`any`].
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.gen::<u64>() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u32, u64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen::<bool>()
    }
}

pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

/// Inclusive size bounds for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    pub lo: usize,
    pub hi: usize,
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

pub mod collection {
    use super::{SizeRange, Strategy};
    use rand::rngs::StdRng;
    use rand::Rng;

    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec(elem, size)`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.lo..=self.size.hi);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy,
    };
}

#[doc(hidden)]
pub mod __rt {
    pub use rand::rngs::StdRng;
    pub use rand::SeedableRng;

    /// Per-case RNG: a pure function of the case index so failures
    /// reproduce without any persisted state.
    pub fn case_rng(case: u32) -> StdRng {
        StdRng::seed_from_u64(0x5eed_cafe_u64 ^ (case as u64).wrapping_mul(0x9E3779B97F4A7C15))
    }
}

/// Define property tests. Matches the upstream surface used in this repo:
/// an optional `#![proptest_config(...)]` header followed by `#[test]`
/// functions whose arguments are drawn from strategies with `pat in expr`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@items ($cfg); $($rest)*);
    };
    (@items ($cfg:expr); ) => {};
    (@items ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut __rng = $crate::__rt::case_rng(case);
                let run = || {
                    $(let $p = $crate::Strategy::generate(&($s), &mut __rng);)+
                    $body
                };
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
                if let Err(panic) = outcome {
                    eprintln!(
                        "proptest case {case}/{} failed in {}",
                        config.cases,
                        stringify!($name),
                    );
                    std::panic::resume_unwind(panic);
                }
            }
        }
        $crate::proptest!(@items ($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@items ($crate::ProptestConfig::default()); $($rest)*);
    };
}

/// Assert within a proptest body.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Assert equality within a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Skip the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn double_strategy(n: u32) -> impl Strategy<Value = u32> {
        (0u32..n).prop_map(|x| x * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in 0u32..=4, f in -2.0f32..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 4);
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn tuples_and_vecs_compose(
            (p, n) in (1usize..=5, 0usize..8),
            v in proptest::collection::vec(-1.0f64..1.0, 2..=6),
        ) {
            prop_assert!(p >= 1 && p <= 5 && n < 8);
            prop_assert!(v.len() >= 2 && v.len() <= 6);
            prop_assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
        }

        #[test]
        fn map_flat_map_and_assume(evened in double_strategy(50), raw in any::<u64>()) {
            prop_assume!(raw % 3 != 0);
            prop_assert_eq!(evened % 2, 0);
        }

        #[test]
        fn flat_map_reaches_dependent_strategy(
            v in (1usize..4).prop_flat_map(|n| proptest::collection::vec(0u32..10, n..=n)),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 4);
        }
    }

    #[test]
    fn cases_are_reproducible() {
        let mut a = crate::__rt::case_rng(7);
        let mut b = crate::__rt::case_rng(7);
        let s = (0u32..100, proptest::collection::vec(-1.0f32..1.0, 3..=3));
        assert_eq!(
            format!("{:?}", Strategy::generate(&s, &mut a)),
            format!("{:?}", Strategy::generate(&s, &mut b)),
        );
    }
}
