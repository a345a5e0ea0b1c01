//! The configuration-preserving C preprocessor (SuperC §3).
//!
//! An ordinary preprocessor resolves `#include` and macros *and* static
//! conditionals, producing a single configuration. This preprocessor
//! resolves includes and macros but **leaves static conditionals intact**,
//! preserving the program's entire configuration space. Its output is a
//! [`CompilationUnit`]: a tree of ordinary tokens and [`Conditional`]s whose
//! branches carry *presence conditions* ([`superc_cond::Cond`]).
//!
//! The implementation covers every interaction in the paper's Table 1:
//!
//! * **Conditional macro table** — `#define`/`#undef` under a presence
//!   condition; multiply-defined macros propagate implicit conditionals at
//!   each use; infeasible entries are trimmed on redefinition.
//! * **Hoisting (Algorithm 1)** — conditionals inside function-like macro
//!   invocations, token pasting, stringification, computed includes, and
//!   `#if` expressions are hoisted around the operation so each innermost
//!   branch holds only ordinary tokens. Function-like invocations use the
//!   interleaved recognize-then-hoist scheme of §3.1.
//! * **Conditional expressions (§3.2)** — expanded, constant-folded, and
//!   converted to presence conditions; free macros, `defined(M)`, and
//!   opaque non-boolean subexpressions become condition variables; guard
//!   macros translate to `false` (gcc-compatible guard detection).
//! * **Includes** — processed under the inclusion's presence condition,
//!   guard-aware reinclusion, computed includes with hoisting.
//! * **`#error`** — erroneous branches become infeasible; errors outside
//!   conditionals abort. `#warning`, `#pragma`, `#line` are preserved as
//!   annotations.
//!
//! # Examples
//!
//! ```
//! use superc_cond::{CondBackend, CondCtx};
//! use superc_cpp::{MemFs, Preprocessor, PpOptions};
//!
//! let fs = MemFs::new()
//!     .file("m.c", "#ifdef CONFIG_64BIT\n#define BITS 64\n#else\n#define BITS 32\n#endif\nint b = BITS;\n");
//! let ctx = CondCtx::new(CondBackend::Bdd);
//! let mut pp = Preprocessor::new(ctx, PpOptions::default(), fs);
//! let unit = pp.preprocess("m.c").unwrap();
//! // `BITS` is multiply-defined: its use expands to a static conditional.
//! assert_eq!(unit.stats.conditionals, 1);
//! let text = unit.display_text();
//! assert!(text.contains("64") && text.contains("32"));
//! ```

mod condexpr;
mod directives;
mod elements;
mod expand;
mod files;
mod macrotable;
mod preprocessor;
mod profile;
mod sharedcache;
mod stats;

pub use condexpr::normalize_expr_text;
pub use elements::{Branch, Conditional, Element, HideSet, PTok};
pub use files::{resolve_include, DiskFs, DriverFs, FileSystem, MemFs, ResolverFn};
pub use macrotable::{MacroConflict, MacroDef, MacroEntry, MacroTable};
pub use preprocessor::{
    CompilationUnit, CondSite, DeadBranch, Diagnostic, PpError, PpOptions, Preprocessor, Severity,
    TestedMacro,
};
pub use profile::{Builtins, Profile, UndefIdentPolicy};
pub use sharedcache::{FileView, Lookup, SharedArtifact, SharedCache};
pub use stats::PpStats;

#[cfg(test)]
mod tests;
