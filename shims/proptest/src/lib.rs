//! Offline shim for the `proptest` crate.
//!
//! Samples strategies with a deterministic RNG (seeded from the test
//! name) and runs each case through the test body. A failing case is
//! *shrunk* by greedy halving descent: each strategy proposes smaller
//! candidates ([`strategy::Strategy::shrink`]) — the floor of its domain,
//! the midpoint toward it, and a single step — and the runner walks to
//! the smallest candidate that still fails (capped at 1000 attempts),
//! then panics with both the minimized and the original inputs.

#[doc(hidden)]
pub use ::rand as __rand;

pub mod test_runner {
    /// Per-test configuration; only `cases` is honored by the shim.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of sampled cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }
}

pub mod strategy {
    use rand::rngs::StdRng;
    use rand::{Rng, SampleRange, Standard};

    /// A source of sampled values. Unlike real proptest there is no value
    /// tree: `sample` draws directly, and `shrink` proposes strictly
    /// "smaller" candidates for a failing value (the runner re-checks each
    /// candidate and greedily descends). The default proposes nothing,
    /// which disables shrinking for that strategy.
    pub trait Strategy {
        type Value;
        fn sample(&self, rng: &mut StdRng) -> Self::Value;
        fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
            Vec::new()
        }
    }

    /// A value with a natural "smallest" point and a halving walk toward
    /// a floor — the engine behind the shim's shrinking. Candidates are
    /// ordered most-aggressive first: the floor itself, the midpoint, a
    /// single step.
    pub trait ShrinkValue: Sized {
        /// The globally simplest value (`0`, `0.0`, `false`).
        fn origin() -> Self;
        /// Candidates strictly between `floor` and `self` (plus `floor`),
        /// empty when `self` is already at the floor.
        fn shrink_toward(&self, floor: &Self) -> Vec<Self>;
    }

    macro_rules! impl_shrink_int {
        ($($t:ty),* $(,)?) => {$(
            impl ShrinkValue for $t {
                fn origin() -> Self {
                    0
                }
                fn shrink_toward(&self, floor: &Self) -> Vec<Self> {
                    let (v, f) = (*self, *floor);
                    if v == f {
                        return Vec::new();
                    }
                    // `abs_diff / 2` always fits the signed type, so the
                    // midpoint is exact even across the full domain.
                    let half = (v.abs_diff(f) / 2) as $t;
                    let mid = if v > f { f + half } else { f - half };
                    let step = if v > f { v - 1 } else { v + 1 };
                    let mut out = vec![f];
                    for c in [mid, step] {
                        if c != v && !out.contains(&c) {
                            out.push(c);
                        }
                    }
                    out
                }
            }
        )*};
    }

    impl_shrink_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

    macro_rules! impl_shrink_float {
        ($($t:ty),* $(,)?) => {$(
            impl ShrinkValue for $t {
                fn origin() -> Self {
                    0.0
                }
                fn shrink_toward(&self, floor: &Self) -> Vec<Self> {
                    let (v, f) = (*self, *floor);
                    if v == f || !v.is_finite() || !f.is_finite() {
                        return Vec::new();
                    }
                    let mid = f + (v - f) / 2.0;
                    let mut out = vec![f];
                    if mid != f && mid != v {
                        out.push(mid);
                    }
                    out
                }
            }
        )*};
    }

    impl_shrink_float!(f32, f64);

    impl ShrinkValue for bool {
        fn origin() -> Self {
            false
        }
        fn shrink_toward(&self, floor: &Self) -> Vec<Self> {
            if *self && !*floor {
                vec![false]
            } else {
                Vec::new()
            }
        }
    }

    impl<T: ShrinkValue + Clone> Strategy for std::ops::Range<T>
    where
        std::ops::Range<T>: SampleRange<T> + Clone,
    {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            rng.gen_range(self.clone())
        }
        fn shrink(&self, value: &T) -> Vec<T> {
            value.shrink_toward(&self.start)
        }
    }

    impl<T: ShrinkValue + Clone> Strategy for std::ops::RangeInclusive<T>
    where
        std::ops::RangeInclusive<T>: SampleRange<T> + Clone,
    {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            rng.gen_range(self.clone())
        }
        fn shrink(&self, value: &T) -> Vec<T> {
            value.shrink_toward(self.start())
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy for `any::<T>()`: uniform over T's natural domain.
    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    /// Uniform sampling over the whole domain of `T`.
    pub fn any<T: Standard>() -> Any<T> {
        Any { _marker: std::marker::PhantomData }
    }

    impl<T: Standard + ShrinkValue> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            rng.gen()
        }
        fn shrink(&self, value: &T) -> Vec<T> {
            value.shrink_toward(&T::origin())
        }
    }

    /// The empty composite (a `proptest!` body with no `in` bindings).
    impl Strategy for () {
        type Value = ();
        fn sample(&self, _rng: &mut StdRng) -> Self::Value {}
    }

    macro_rules! impl_strategy_tuple {
        ($(($($name:ident : $idx:tt),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+)
            where
                $($name::Value: Clone),+
            {
                type Value = ($($name::Value,)+);
                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
                fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                    // Component-wise: shrink one coordinate at a time,
                    // holding the others fixed.
                    let mut out = Vec::new();
                    $(
                        for c in self.$idx.shrink(&value.$idx) {
                            let mut next = value.clone();
                            next.$idx = c;
                            out.push(next);
                        }
                    )+
                    out
                }
            }
        )*};
    }

    impl_strategy_tuple! {
        (A: 0)
        (A: 0, B: 1)
        (A: 0, B: 1, C: 2)
        (A: 0, B: 1, C: 2, D: 3)
        (A: 0, B: 1, C: 2, D: 3, E: 4)
        (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
        (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6)
        (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7)
    }

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            (**self).sample(rng)
        }
        fn shrink(&self, value: &T) -> Vec<T> {
            (**self).shrink(value)
        }
    }

    /// Helper used by `prop_oneof!` to unify branch types.
    pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(s)
    }

    /// Uniform choice between boxed strategies (`prop_oneof!`).
    pub struct OneOf<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> OneOf<T> {
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> OneOf<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            OneOf { options }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            let idx = rng.gen_range(0..self.options.len());
            self.options[idx].sample(rng)
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Length specification for [`vec()`]: a fixed size or a half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        /// Exclusive upper bound.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange { min: r.start, max: r.end }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange { min: *r.start(), max: *r.end() + 1 }
        }
    }

    /// Samples a `Vec` whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.min..self.size.max);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let mut out = Vec::new();
            // Length first — halve toward the minimum, then drop one.
            let len = value.len();
            if len > self.size.min {
                let half = self.size.min + (len - self.size.min) / 2;
                if half < len - 1 {
                    out.push(value[..half].to_vec());
                }
                out.push(value[..len - 1].to_vec());
            }
            // Then each element in place.
            for (i, v) in value.iter().enumerate() {
                for c in self.element.shrink(v) {
                    let mut next = value.clone();
                    next[i] = c;
                    out.push(next);
                }
            }
            out
        }
    }
}

/// The shared property runner behind `proptest!`: samples `cases` values,
/// and on the first failure performs the greedy halving descent — walk to
/// the first still-failing shrink candidate until none fail (or the step
/// budget runs out) — then panics with the minimized and original inputs.
#[doc(hidden)]
pub fn __run_property<S>(
    name: &str,
    cases: u32,
    rng: &mut rand::rngs::StdRng,
    strategy: &S,
    check: impl Fn(&S::Value) -> Result<(), String>,
    describe: impl Fn(&S::Value) -> String,
) where
    S: strategy::Strategy,
    S::Value: Clone,
{
    for case_idx in 0..cases {
        let values = strategy.sample(rng);
        if let Err(msg) = check(&values) {
            let original = values.clone();
            let mut current = values;
            let mut last_msg = msg;
            let mut steps = 0usize;
            'shrinking: while steps < 1000 {
                for cand in strategy.shrink(&current) {
                    steps += 1;
                    if let Err(m) = check(&cand) {
                        current = cand;
                        last_msg = m;
                        continue 'shrinking;
                    }
                    if steps >= 1000 {
                        break 'shrinking;
                    }
                }
                break;
            }
            panic!(
                "proptest `{}` case {} failed: {}\n  minimized inputs: {}\n  original inputs: {}",
                name,
                case_idx,
                last_msg,
                describe(&current),
                describe(&original)
            );
        }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { (<$crate::test_runner::ProptestConfig as ::std::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
          $(#[$meta:meta])*
          fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg = $cfg;
                let mut __rng = {
                    use ::std::hash::{Hash, Hasher};
                    let mut __h = ::std::collections::hash_map::DefaultHasher::new();
                    ::std::stringify!($name).hash(&mut __h);
                    <$crate::__rand::rngs::StdRng as $crate::__rand::SeedableRng>::seed_from_u64(
                        __h.finish(),
                    )
                };
                // One composite strategy over all bindings; the tuple
                // samples components left-to-right, so the RNG stream is
                // identical to sampling each strategy in turn.
                let __strategy = ($( ($strat), )*);
                $crate::__run_property(
                    ::std::stringify!($name),
                    __cfg.cases,
                    &mut __rng,
                    &__strategy,
                    |__values| {
                        let ( $($arg,)* ) = ::std::clone::Clone::clone(__values);
                        $body
                        ::std::result::Result::Ok(())
                    },
                    |__values| {
                        let ( $($arg,)* ) = ::std::clone::Clone::clone(__values);
                        let mut __s = ::std::string::String::new();
                        $(
                            __s.push_str(&::std::format!(
                                "{} = {:?}, ",
                                ::std::stringify!($arg),
                                &$arg
                            ));
                        )*
                        __s
                    },
                );
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($option:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(::std::vec![
            $($crate::strategy::boxed($option)),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}",
                ::std::stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if !(__l == __r) {
                    return ::std::result::Result::Err(::std::format!(
                        "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                        ::std::stringify!($left),
                        ::std::stringify!($right),
                        __l,
                        __r
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if !(__l == __r) {
                    return ::std::result::Result::Err(::std::format!(
                        "{}\n  left: {:?}\n right: {:?}",
                        ::std::format!($($fmt)+),
                        __l,
                        __r
                    ));
                }
            }
        }
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if __l == __r {
                    return ::std::result::Result::Err(::std::format!(
                        "assertion failed: `{} != {}`\n  both: {:?}",
                        ::std::stringify!($left),
                        ::std::stringify!($right),
                        __l
                    ));
                }
            }
        }
    };
}

/// Discards the current case when `cond` is false. Unlike real proptest
/// the case is not resampled, so heavy use of `prop_assume!` reduces the
/// effective case count.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod shrink_tests {
    use crate::prelude::*;
    use crate::strategy::ShrinkValue;

    // Deliberately failing properties, invoked through `catch_unwind`
    // below (no `#[test]` attribute, so the harness never runs them
    // directly).
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        fn fails_at_ten(x in 0usize..1000) {
            prop_assert!(x < 10);
        }

        fn fails_on_long_vecs(v in collection::vec(0u8..100, 0..20)) {
            prop_assert!(v.len() < 3);
        }
    }

    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = std::panic::catch_unwind(f).expect_err("property must fail");
        err.downcast_ref::<String>().cloned().expect("panic carries a String")
    }

    #[test]
    fn seeded_failure_shrinks_to_the_boundary() {
        // 0..1000 with `x < 10` required: sampling all but guarantees a
        // failure far from 10, and the halving walk must land exactly on
        // the smallest failing input.
        let msg = panic_message(fails_at_ten);
        assert!(msg.contains("minimized inputs: x = 10,"), "{msg}");
        assert!(msg.contains("original inputs: x = "), "{msg}");
        // The original really was shrunk, not just relabeled.
        let original: usize = msg
            .split("original inputs: x = ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("original input parses");
        assert!(original > 10, "seeded original {original} should be far from the boundary");
    }

    #[test]
    fn vec_failures_shrink_to_minimal_length() {
        let msg = panic_message(fails_on_long_vecs);
        // Minimal counterexample: the shortest failing vector (len 3)
        // with every element at the range floor.
        assert!(msg.contains("minimized inputs: v = [0, 0, 0],"), "{msg}");
    }

    #[test]
    fn int_shrink_candidates_halve_toward_the_floor() {
        assert_eq!(100u32.shrink_toward(&0), vec![0, 50, 99]);
        assert_eq!(11usize.shrink_toward(&10), vec![10]);
        assert_eq!(10i32.shrink_toward(&10), Vec::<i32>::new());
        assert_eq!((-100i64).shrink_toward(&0), vec![0, -50, -99]);
        assert_eq!(i8::origin(), 0);
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3usize..10, y in -2.0f64..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_size(v in collection::vec(0u8..5, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6, "len was {}", v.len());
            prop_assert!(v.iter().all(|&b| b < 5));
        }

        #[test]
        fn oneof_picks_from_options(v in prop_oneof![Just(1u8), Just(2), Just(3)]) {
            prop_assert!((1..=3).contains(&v));
        }

        #[test]
        fn assume_discards(b in any::<bool>()) {
            prop_assume!(b);
            prop_assert!(b);
        }
    }
}
