//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of proptest this workspace uses: the [`proptest!`]
//! macro (with optional `#![proptest_config(..)]`), `prop_assert!` /
//! `prop_assert_eq!` / `prop_assume!`, `prop_oneof!`, [`Just`], [`any`],
//! integer-range and tuple strategies, `prop_map` / `prop_flat_map` /
//! `boxed`, and the `collection::{vec, btree_set, btree_map}` builders.
//!
//! Semantics: each test runs `ProptestConfig::cases` random cases with a
//! deterministic per-test seed. Failing inputs are reported (via `Debug`
//! formatting inside the assertion message) but **not shrunk** — this shim
//! trades minimal counterexamples for zero dependencies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// Runner configuration (only the `cases` knob is honoured).
///
/// Like real proptest, the `PROPTEST_CASES` environment variable
/// overrides the case count — both the default and explicit
/// [`ProptestConfig::with_cases`] values — so CI can re-run a suite at a
/// larger case count without touching the tests.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required per test.
    pub cases: u32,
}

/// Parse a `PROPTEST_CASES` value; `None` when absent or unparsable.
fn parse_cases(raw: Option<&str>) -> Option<u32> {
    raw?.trim().parse().ok()
}

/// The `PROPTEST_CASES` override, if set and parsable.
fn env_cases() -> Option<u32> {
    parse_cases(std::env::var("PROPTEST_CASES").ok().as_deref())
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: env_cases().unwrap_or(64),
        }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases (unless `PROPTEST_CASES` overrides).
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases: env_cases().unwrap_or(cases),
        }
    }
}

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    reject: bool,
    message: String,
}

impl TestCaseError {
    /// A genuine assertion failure.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            reject: false,
            message: message.into(),
        }
    }

    /// The case's inputs did not satisfy a `prop_assume!`; it is skipped.
    pub fn reject(message: impl Into<String>) -> Self {
        TestCaseError {
            reject: true,
            message: message.into(),
        }
    }

    /// `true` for rejections (skipped cases).
    pub fn is_reject(&self) -> bool {
        self.reject
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Result type of one generated case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A value generator. `generate` draws one value; combinators compose.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Build a dependent strategy from each generated value.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// `prop_map` combinator.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// `prop_flat_map` combinator.
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Strategy yielding a constant (cloned) value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen::<u64>() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.gen::<u64>() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// An arbitrary value of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

/// Boolean strategies.
pub mod bool {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// The strategy type behind [`ANY`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Either boolean, uniformly.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.gen::<u64>() & 1 == 1
        }
    }
}

/// Uniform choice between erased alternatives (backs `prop_oneof!`).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Build from the alternatives; must be non-empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.gen_range(0..self.options.len());
        self.options[idx].generate(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::collections::{BTreeMap, BTreeSet};

    /// Inclusive-lower, exclusive-upper bound on generated collection sizes.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.lo..=self.hi_inclusive)
        }
    }

    /// Strategy for `Vec<S::Value>`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy for `BTreeSet<S::Value>`.
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            // Duplicates may shrink the set below the drawn size; that is an
            // acceptable deviation from real proptest for these tests.
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A set of up to `size` elements drawn from `element`.
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy for `BTreeMap<K::Value, V::Value>`.
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng);
            (0..n)
                .map(|_| (self.key.generate(rng), self.value.generate(rng)))
                .collect()
        }
    }

    /// A map of up to `size` entries.
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: impl Into<SizeRange>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy {
            key,
            value,
            size: size.into(),
        }
    }
}

/// FNV-1a hash of a test name, used to derive per-test seeds.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Drive one proptest-style test: run `config.cases` successful cases with
/// deterministic seeds, skipping rejected cases, panicking on failure.
pub fn run_cases<F>(config: ProptestConfig, name: &str, mut f: F)
where
    F: FnMut(&mut TestRng) -> TestCaseResult,
{
    let base = fnv1a(name);
    let mut executed = 0u32;
    let mut rejected = 0u32;
    let mut case = 0u64;
    while executed < config.cases {
        let seed = base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(seed);
        match f(&mut rng) {
            Ok(()) => executed += 1,
            Err(e) if e.is_reject() => {
                rejected += 1;
                assert!(
                    rejected < config.cases.saturating_mul(20) + 1024,
                    "proptest '{name}': too many rejected cases ({rejected})"
                );
            }
            Err(e) => panic!("proptest '{name}' failed (case #{case}, seed {seed:#x}): {e}"),
        }
        case += 1;
    }
}

/// Define property tests. Supports the standard shape used in this
/// workspace: an optional `#![proptest_config(..)]` followed by `#[test]`
/// functions whose arguments are `pattern in strategy` pairs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)]
     $($(#[$meta:meta])*
       fn $fname:ident($($argpat:pat in $argstrat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $fname() {
                $crate::run_cases($cfg, stringify!($fname), |__proptest_rng| {
                    $(let $argpat = $crate::Strategy::generate(&($argstrat), __proptest_rng);)+
                    $body
                    ::core::result::Result::Ok(())
                });
            }
        )*
    };
    ($($t:tt)*) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $($t)*
        }
    };
}

/// Assert inside a proptest body; failure fails only the current case's
/// test with a formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Equality assertion inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)*), l, r
        );
    }};
}

/// Skip the current case unless the precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::reject(format!(
                "assumption failed: {}",
                stringify!($cond)
            )));
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// The usual glob import target.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_tuples_and_collections_generate_in_bounds() {
        let mut rng = rand::SeedableRng::seed_from_u64(1);
        for _ in 0..200 {
            let v = (0u32..7).generate(&mut rng);
            assert!(v < 7);
            let (a, b) = ((0i64..3), (10usize..=12)).generate(&mut rng);
            assert!((0..3).contains(&a) && (10..=12).contains(&b));
            let xs = crate::collection::vec(0u8..4, 2..5).generate(&mut rng);
            assert!((2..5).contains(&xs.len()));
            assert!(xs.iter().all(|x| *x < 4));
            let set = crate::collection::btree_set(0u8..4, 0..6).generate(&mut rng);
            assert!(set.len() < 6);
            let map = crate::collection::btree_map(0u8..4, 0i64..9, 1..4).generate(&mut rng);
            assert!(map.len() < 4 && !map.is_empty() || map.len() <= 3);
        }
    }

    #[test]
    fn map_flat_map_oneof_and_just() {
        let mut rng = rand::SeedableRng::seed_from_u64(2);
        let s = prop_oneof![Just(100u32), (0u32..10).prop_map(|v| v + 50),];
        let flat = (1usize..4).prop_flat_map(|n| crate::collection::vec(0u32..2, n..n + 1));
        let mut saw_just = false;
        let mut saw_mapped = false;
        for _ in 0..100 {
            match s.generate(&mut rng) {
                100 => saw_just = true,
                v if (50..60).contains(&v) => saw_mapped = true,
                other => panic!("unexpected {other}"),
            }
            let xs = flat.generate(&mut rng);
            assert!((1..4).contains(&xs.len()));
        }
        assert!(saw_just && saw_mapped);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_round_trip(v in 0u32..50, flag in any::<bool>()) {
            prop_assume!(v != 13);
            prop_assert!(v < 50);
            prop_assert_eq!(flag, flag, "flag equals itself ({})", v);
        }
    }

    proptest! {
        #[test]
        fn default_config_form_works(pair in (0i64..4, 0i64..4)) {
            prop_assert!(pair.0 < 4 && pair.1 < 4);
        }
    }

    #[test]
    fn case_count_override_parsing() {
        // The override logic is tested through the pure parser — mutating
        // the process-global env var would race sibling tests on the
        // parallel harness.
        assert_eq!(crate::parse_cases(Some("7")), Some(7));
        assert_eq!(crate::parse_cases(Some(" 1024 ")), Some(1024));
        assert_eq!(crate::parse_cases(Some("not a number")), None);
        assert_eq!(crate::parse_cases(Some("")), None);
        assert_eq!(crate::parse_cases(None), None);
        // Without the env var set (the harness never sets it), explicit
        // and default case counts pass through untouched.
        if std::env::var("PROPTEST_CASES").is_err() {
            assert_eq!(ProptestConfig::default().cases, 64);
            assert_eq!(ProptestConfig::with_cases(99).cases, 99);
        }
    }

    #[test]
    #[should_panic(expected = "failed")]
    fn failing_property_panics() {
        crate::run_cases(ProptestConfig::with_cases(8), "always_fails", |_rng| {
            Err(TestCaseError::fail("nope"))
        });
    }
}
