//! Dependency-free utilities shared across the SuperC reproduction.
//!
//! The build environment is offline, so everything external the workspace
//! used to lean on lives here instead, tuned for the hot paths the paper's
//! feasibility argument depends on (PLDI 2012 §4):
//!
//! * [`hash`] — an FxHash-style multiply-rotate hasher and the
//!   [`FastMap`]/[`FastSet`] aliases used by the BDD unique table, the
//!   apply caches, and the FMLR merge index. SipHash (std's default) costs
//!   a long dependency chain per small key; presence-condition keys are
//!   3-field structs and `u32` pairs, exactly the shape Fx excels at.
//! * [`intern`] — a [`Symbol`](intern::Symbol)-based string interner so
//!   macro and configuration-variable names hash once, ever.
//! * [`rng`] — a deterministic xoshiro256** generator replacing the
//!   external `rand` crate for corpus generation.
//! * [`prop`] — a miniature property-test harness replacing `proptest`
//!   for the workspace's randomized tests.
//! * [`json`] — a strict little JSON reader for the parse daemon's
//!   NDJSON request protocol (responses are hand-rendered).
//! * [`counters`] — the one declaration per stats struct (layer, merge
//!   rule and class of every counter) that merging, the `#if`-memo
//!   delta, determinism projections and `--stats` all iterate.

pub mod counters;
pub mod hash;
pub mod intern;
pub mod json;
pub mod prop;
pub mod rng;

pub use hash::{FastMap, FastSet, FxBuildHasher, FxHasher};
pub use intern::{Interner, Symbol};
pub use rng::SmallRng;
