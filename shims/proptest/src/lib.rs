//! Offline shim for `proptest` 1.x.
//!
//! The build environment has no crates.io access, so this workspace vendors
//! the subset of proptest it uses: the [`strategy::Strategy`]
//! combinators (`prop_map`, `prop_flat_map`, tuples, ranges,
//! [`strategy::Just`], `any::<bool>()`),
//! `proptest::collection::{vec, btree_set}`, the `prop_oneof!`,
//! `prop_assert!`, `prop_assert_eq!` and `proptest!` macros, and
//! [`test_runner::ProptestConfig`].
//!
//! Differences from real proptest: cases are drawn from a deterministic
//! per-test RNG (seeded from the test name) and there is **no shrinking** —
//! a failing case reports its case number and message only. That trades
//! minimal counterexamples for zero dependencies, which is the right trade
//! inside this offline workspace.

// The `Vec<Box<dyn Fn…>>` strategy arms mirror real proptest's erased
// internals; aliasing them here would only obscure the shim.
#![allow(clippy::type_complexity)]

/// Test-case driving machinery: RNG, config, failure type.
pub mod test_runner {
    /// Deterministic SplitMix64 generator driving all strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from a test name (FNV-1a), so every test
        /// gets a distinct but reproducible stream.
        pub fn deterministic(name: &str) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// Next pseudo-random word.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform integer in `[0, bound)`; `bound` must be positive.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            self.next_u64() % bound
        }
    }

    /// Runner configuration (`cases` = how many random cases per test).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each `proptest!` test executes.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// A failed assertion inside a property body.
    #[derive(Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Wraps a failure message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }
}

/// Value-generation strategies and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Generates values of `Self::Value` from a [`TestRng`].
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values with `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Feeds generated values into a second, dependent strategy.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                gen_fn: Box::new(move |rng| self.generate(rng)),
            }
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;

        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, F, S2> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<V> {
        gen_fn: Box<dyn Fn(&mut TestRng) -> V>,
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            (self.gen_fn)(rng)
        }
    }

    // Like upstream proptest: a Vec of strategies generates a Vec of one
    // value per element, in order.
    impl<S: Strategy> Strategy for Vec<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            self.iter().map(|s| s.generate(rng)).collect()
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice among same-valued strategies (see `prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<Box<dyn Fn(&mut TestRng) -> V>>,
    }

    impl<V> Union<V> {
        /// Builds a union from boxed generator arms.
        pub fn new(arms: Vec<Box<dyn Fn(&mut TestRng) -> V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.arms.len() as u64) as usize;
            (self.arms[i])(rng)
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty f64 range strategy");
            self.start + (self.end - self.start) * rng.next_f64()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty integer range strategy");
                    self.start + rng.below((self.end - self.start) as u64) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty inclusive range strategy");
                    lo + rng.below((hi - lo) as u64 + 1) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $i:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    }
}

/// Strategies producing collections.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeSet;
    use std::ops::{Range, RangeInclusive};

    /// An inclusive size window for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl SizeRange {
        fn pick(self, rng: &mut TestRng) -> usize {
            self.lo + rng.below((self.hi - self.lo) as u64 + 1) as usize
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// `Vec` of values from `element`, sized within `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `BTreeSet` of values from `element`, sized within `size` where the
    /// element domain allows (duplicates are retried a bounded number of
    /// times, then the smaller set is returned).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.pick(rng);
            let mut out = BTreeSet::new();
            let mut misses = 0usize;
            while out.len() < target && misses < 64 {
                if !out.insert(self.element.generate(rng)) {
                    misses += 1;
                }
            }
            out
        }
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

    /// The canonical strategy of an [`Arbitrary`] type.
    #[derive(Debug, Clone, Copy)]
    pub struct Any<A>(PhantomData<A>);

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;

        fn generate(&self, rng: &mut TestRng) -> A {
            A::arbitrary(rng)
        }
    }

    /// The full-domain strategy of `A`.
    pub fn any<A: Arbitrary>() -> Any<A> {
        Any(PhantomData)
    }
}

/// Everything a `use proptest::prelude::*;` consumer expects in scope.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Fails the current property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fails the current property case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $({
                let s = $arm;
                ::std::boxed::Box::new(move |rng: &mut $crate::test_runner::TestRng| {
                    $crate::strategy::Strategy::generate(&s, rng)
                }) as ::std::boxed::Box<dyn Fn(&mut $crate::test_runner::TestRng) -> _>
            }),+
        ])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $pat:pat_param in $strat:expr ),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
            // A tuple of strategies is itself a strategy; build it once.
            let strategy = ( $( $strat, )+ );
            for case in 0..config.cases {
                let ( $( $pat, )+ ) =
                    $crate::strategy::Strategy::generate(&strategy, &mut rng);
                let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::core::result::Result::Ok(()) })();
                if let ::core::result::Result::Err(e) = outcome {
                    panic!(
                        "property '{}' failed at case {}/{}: {}",
                        stringify!($name), case + 1, config.cases, e,
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Tag {
        A,
        B(bool),
        C(u32),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples((a, b) in (1usize..6, 10u32..=12), f in 0.5f64..2.0) {
            prop_assert!((1..6).contains(&a));
            prop_assert!((10..=12).contains(&b));
            prop_assert!((0.5..2.0).contains(&f));
        }

        #[test]
        fn collections_respect_sizes(
            v in crate::collection::vec(0u32..100, 3usize),
            s in crate::collection::btree_set(0u32..50, 1..=4usize),
        ) {
            prop_assert_eq!(v.len(), 3);
            prop_assert!(!s.is_empty() && s.len() <= 4);
        }

        #[test]
        fn oneof_and_flat_map(
            t in prop_oneof![
                Just(Tag::A),
                any::<bool>().prop_map(Tag::B),
                (0u32..7).prop_map(Tag::C),
            ],
            v in (1usize..4).prop_flat_map(|n| crate::collection::vec(0u32..10, n)),
        ) {
            match t {
                Tag::A | Tag::B(_) => {}
                Tag::C(x) => prop_assert!(x < 7),
            }
            prop_assert!(!v.is_empty() && v.len() < 4);
        }
    }

    #[test]
    fn failures_carry_case_info() {
        let err = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(5))]
                fn always_fails(x in 0u32..10) {
                    prop_assert!(x > 100, "x was {}", x);
                }
            }
            always_fails();
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("always_fails"), "{msg}");
        assert!(msg.contains("x was"), "{msg}");
    }
}
