//! Counter declarations: every field of a stats struct named once, with
//! its layer, its merge rule and its class.
//!
//! A stats struct (`PpStats`, `ParseStats`, `BddStats`, `CondStats`)
//! keeps its plain public fields and declares them once with
//! [`counters!`](crate::counters!). Everything that reads counters
//! generically goes through that declaration instead of its own field
//! list:
//!
//! * [`merge`] folds one run's counters into a total (sum or max);
//! * [`delta`] captures the mutations between two snapshots, which the
//!   preprocessor's `#if` memo replays with [`merge`];
//! * [`project`] keeps a chosen set of [`Class`]es and zeroes the rest —
//!   what two runs of the same input must agree on;
//! * [`Counted::COUNTERS`] is the row list of the `--stats` table.
//!
//! # Examples
//!
//! ```
//! use superc_util::counters::{self, Class};
//!
//! #[derive(Clone, Debug, Default, PartialEq)]
//! pub struct Stats {
//!     pub steps: u64,
//!     pub depth: usize,
//!     pub cache_hits: u64,
//! }
//! superc_util::counters!(Stats in "demo" {
//!     steps: Behavior Sum,
//!     depth: Behavior Max,
//!     cache_hits: Schedule Sum,
//! });
//!
//! let mut total = Stats { steps: 2, depth: 3, cache_hits: 1 };
//! counters::merge(&mut total, &Stats { steps: 5, depth: 1, cache_hits: 4 });
//! assert_eq!(total, Stats { steps: 7, depth: 3, cache_hits: 5 });
//! let kept = counters::project(&total, &[Class::Behavior]);
//! assert_eq!(kept, Stats { steps: 7, depth: 3, cache_hits: 0 });
//! ```

/// Which runs of the same input may disagree on a counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// A pure function of the input and the options: identical for any
    /// job count, cache setting, warm replay or fast-path setting.
    Behavior,
    /// Deterministic for one fast-path setting, different under
    /// `--no-fastpath`: the counters that define the fast path.
    Mode,
    /// Depends on which worker got somewhere first: the cache, memo,
    /// BDD and condition-context gauges.
    Schedule,
    /// Elapsed or saved wall-clock time.
    Timing,
}

impl Class {
    /// The lower-case name the `--stats` table prints.
    pub fn name(self) -> &'static str {
        match self {
            Class::Behavior => "behavior",
            Class::Mode => "mode",
            Class::Schedule => "schedule",
            Class::Timing => "timing",
        }
    }
}

/// How two runs' values of one counter combine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// Totals add up.
    Sum,
    /// A running maximum keeps the larger value.
    Max,
}

impl Merge {
    /// Combines two values by this rule.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            Merge::Sum => a + b,
            Merge::Max => a.max(b),
        }
    }
}

/// One declared counter of the stats struct `S`.
pub struct Counter<S> {
    /// The field name.
    pub name: &'static str,
    /// Which runs may disagree on it.
    pub class: Class,
    /// How two values combine.
    pub merge: Merge,
    /// Reads the field.
    pub get: fn(&S) -> u64,
    /// Writes the field.
    pub set: fn(&mut S, u64),
}

/// A stats struct with a counter declaration; implement it with
/// [`counters!`](crate::counters!).
pub trait Counted: Clone + 'static {
    /// The pipeline layer the counters belong to (`cpp`, `fmlr`, ...).
    const LAYER: &'static str;
    /// Every scalar counter, once, in field order.
    const COUNTERS: &'static [Counter<Self>];
    /// Fields that are histograms rather than scalars. The generic
    /// helpers leave them alone; the struct's own `merge` adds them
    /// bucket-wise.
    const HISTOGRAMS: &'static [&'static str];

    /// [`merge`] with each field's rule compiled in, not read from
    /// [`Counted::COUNTERS`]: a report merges one of these per unit.
    fn merge_fields(&mut self, from: &Self);
}

/// Declares the counters of a stats struct: `field: Class Merge` for
/// each scalar field, then optionally `histograms [field, ...]` for the
/// fields that are distributions. Fields may be `u64` or `usize`.
#[macro_export]
macro_rules! counters {
    ($ty:ident in $layer:literal {
        $($field:ident: $class:ident $merge:ident),+ $(,)?
    } $(histograms [$($hist:ident),+ $(,)?])?) => {
        impl $crate::counters::Counted for $ty {
            const LAYER: &'static str = $layer;
            const COUNTERS: &'static [$crate::counters::Counter<Self>] = &[$(
                $crate::counters::Counter {
                    name: stringify!($field),
                    class: $crate::counters::Class::$class,
                    merge: $crate::counters::Merge::$merge,
                    get: |s| s.$field as u64,
                    set: |s, v| s.$field = v as _,
                }
            ),+];
            const HISTOGRAMS: &'static [&'static str] = &[$($(stringify!($hist)),+)?];

            fn merge_fields(&mut self, from: &Self) {
                $(
                    self.$field = $crate::counters::Merge::$merge
                        .apply(self.$field as u64, from.$field as u64) as _;
                )+
            }
        }
    };
}

/// Folds `from` into `into`: sums add, maxima keep the larger value.
/// Histograms are left to the caller.
pub fn merge<S: Counted>(into: &mut S, from: &S) {
    into.merge_fields(from);
}

/// The counter mutations from `earlier` to `later`, two snapshots of
/// one struct: each sum as its (saturating) increase, each maximum as
/// `later`'s value. [`merge`]-ing the result into a struct replays the
/// mutations. Histograms are copied from `later` unchanged.
pub fn delta<S: Counted>(later: &S, earlier: &S) -> S {
    let mut d = later.clone();
    for c in S::COUNTERS {
        if c.merge == Merge::Sum {
            (c.set)(&mut d, (c.get)(later).saturating_sub((c.get)(earlier)));
        }
    }
    d
}

/// `stats` with every counter outside the classes in `keep` zeroed:
/// the part two runs must agree on when they may differ in the other
/// classes. Histograms are kept.
pub fn project<S: Counted>(stats: &S, keep: &[Class]) -> S {
    let mut p = stats.clone();
    for c in S::COUNTERS {
        if !keep.contains(&c.class) {
            (c.set)(&mut p, 0);
        }
    }
    p
}

/// The declared counter called `name`, if any.
pub fn find<S: Counted>(name: &str) -> Option<&'static Counter<S>> {
    S::COUNTERS.iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, Default, PartialEq)]
    struct Demo {
        steps: u64,
        depth: usize,
        nanos: u64,
        hist: Vec<u64>,
    }
    crate::counters!(Demo in "demo" {
        steps: Behavior Sum,
        depth: Behavior Max,
        nanos: Timing Sum,
    } histograms [hist]);

    #[test]
    fn declaration_lists_every_field_once() {
        let names: Vec<_> = Demo::COUNTERS.iter().map(|c| c.name).collect();
        assert_eq!(names, ["steps", "depth", "nanos"]);
        assert_eq!(Demo::HISTOGRAMS, ["hist"]);
        assert_eq!(Demo::LAYER, "demo");
        assert_eq!(find::<Demo>("depth").map(|c| c.merge), Some(Merge::Max));
        assert!(find::<Demo>("hist").is_none());
    }

    #[test]
    fn delta_replays_through_merge() {
        let before = Demo {
            steps: 3,
            depth: 2,
            nanos: 10,
            hist: vec![1],
        };
        let after = Demo {
            steps: 7,
            depth: 5,
            nanos: 15,
            hist: vec![1, 2],
        };
        let d = delta(&after, &before);
        assert_eq!((d.steps, d.depth, d.nanos), (4, 5, 5));
        let mut replay = before.clone();
        merge(&mut replay, &d);
        assert_eq!((replay.steps, replay.depth, replay.nanos), (7, 5, 15));
        assert_eq!(replay.hist, vec![1], "histograms are the caller's");
    }

    #[test]
    fn projection_zeroes_other_classes() {
        let s = Demo {
            steps: 1,
            depth: 2,
            nanos: 3,
            hist: vec![4],
        };
        let p = project(&s, &[Class::Behavior]);
        assert_eq!((p.steps, p.depth, p.nanos, p.hist), (1, 2, 0, vec![4]));
        assert_eq!(project(&s, &[Class::Behavior, Class::Timing]), s);
    }
}
