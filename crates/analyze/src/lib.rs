//! Variability-aware lints over SuperC's configuration-preserving
//! pipeline.
//!
//! An ordinary linter sees one preprocessed configuration and is blind to
//! the rest; this engine walks the *whole* configuration space the
//! preprocessor and FMLR parser preserve. Every [`Diagnostic`] therefore
//! carries a **presence condition** — the exact BDD (or SAT formula)
//! describing the configurations in which the problem occurs — alongside
//! a stable lint code, a severity, and a source span.
//!
//! Eight lints ship today:
//!
//! | code | meaning |
//! |---|---|
//! | `dead-branch` | a conditional branch is infeasible under its context |
//! | `config-redecl` | one name declared with different types in overlapping configurations |
//! | `macro-conflict` | a macro redefined with a different body while an older definition is live |
//! | `undef-macro-test` | `#if`/`#ifdef` tests a macro never defined in the unit (typo detector) |
//! | `partial-parse` | a subparser died: the unit does not parse in some configurations |
//! | `portability-definedness` | a tested macro's definedness differs across compiler/OS profiles |
//! | `portability-divergent-condition` | a conditional's presence condition differs across profiles |
//! | `portability-divergent-decl` | a declaration or diagnostic exists under some profiles only |
//!
//! The three `portability-*` lints come from the cross-profile corpus
//! mode (`superc lint --profiles a,b,c`), which runs every unit under N
//! compiler/OS [`superc_cpp::Profile`]s and diffs the per-profile
//! results; see [`portability`].
//!
//! # Determinism
//!
//! `Cond`'s `Display` depends on BDD variable order, which is
//! schedule-dependent under the parallel corpus driver. Diagnostics
//! instead render conditions through [`render::canonical`], which depends
//! only on the boolean function and the sorted support names — so lint
//! output is byte-identical regardless of `--jobs`.

mod lints;
pub mod portability;
pub mod render;
#[cfg(test)]
mod tests;

use std::fmt;

use superc_cond::{Cond, CondCtx};
use superc_cpp::{CompilationUnit, MacroTable};
use superc_fmlr::ParseResult;
use superc_lexer::{FileId, SourcePos};

/// Stable lint identifiers (the `[code]` in rendered diagnostics).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// A conditional branch that can never be included.
    DeadBranch,
    /// A name declared with different types in overlapping configurations.
    ConfigRedecl,
    /// A macro redefined with a different body under intersecting
    /// conditions.
    MacroConflict,
    /// A macro tested by a conditional but never defined or undefined.
    UndefMacroTest,
    /// Configurations in which the unit fails to parse.
    PartialParse,
    /// A tested macro defined under some profiles but not others.
    PortabilityDefinedness,
    /// A conditional whose presence condition differs across profiles.
    PortabilityDivergentCondition,
    /// A declaration or diagnostic present under some profiles only.
    PortabilityDivergentDecl,
}

impl LintCode {
    /// Every lint, in code order.
    pub const ALL: [LintCode; 8] = [
        LintCode::DeadBranch,
        LintCode::ConfigRedecl,
        LintCode::MacroConflict,
        LintCode::UndefMacroTest,
        LintCode::PartialParse,
        LintCode::PortabilityDefinedness,
        LintCode::PortabilityDivergentCondition,
        LintCode::PortabilityDivergentDecl,
    ];

    /// The stable kebab-case code.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::DeadBranch => "dead-branch",
            LintCode::ConfigRedecl => "config-redecl",
            LintCode::MacroConflict => "macro-conflict",
            LintCode::UndefMacroTest => "undef-macro-test",
            LintCode::PartialParse => "partial-parse",
            LintCode::PortabilityDefinedness => "portability-definedness",
            LintCode::PortabilityDivergentCondition => "portability-divergent-condition",
            LintCode::PortabilityDivergentDecl => "portability-divergent-decl",
        }
    }

    /// Parses a kebab-case code back to a lint.
    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL.into_iter().find(|c| c.as_str() == s)
    }

    fn index(self) -> usize {
        LintCode::ALL
            .iter()
            .position(|c| *c == self)
            .expect("every code is in ALL")
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What to do with a lint's findings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LintLevel {
    /// Suppress entirely (the lint does not even run).
    Allow,
    /// Report, exit successfully.
    Warn,
    /// Report, and make `superc lint` exit nonzero.
    Deny,
}

impl LintLevel {
    /// Lowercase name, used in JSON output and flags.
    pub fn as_str(self) -> &'static str {
        match self {
            LintLevel::Allow => "allow",
            LintLevel::Warn => "warn",
            LintLevel::Deny => "deny",
        }
    }
}

/// Which lints run, and how loudly.
#[derive(Clone, Debug, Hash)]
pub struct LintOptions {
    levels: [LintLevel; LintCode::ALL.len()],
    /// Name prefixes exempt from `undef-macro-test`: configuration
    /// variables (`CONFIG_*`) and compiler/platform macros (`__*`) are
    /// routinely tested without an in-unit definition.
    pub config_prefixes: Vec<String>,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            levels: [LintLevel::Warn; LintCode::ALL.len()],
            config_prefixes: vec!["CONFIG_".to_string(), "__".to_string()],
        }
    }
}

impl LintOptions {
    /// The level `code` runs at.
    pub fn level_of(&self, code: LintCode) -> LintLevel {
        self.levels[code.index()]
    }

    /// Sets one lint's level.
    pub fn set_level(&mut self, code: LintCode, level: LintLevel) -> &mut Self {
        self.levels[code.index()] = level;
        self
    }

    /// Sets every lint's level.
    pub fn set_all(&mut self, level: LintLevel) -> &mut Self {
        self.levels = [level; LintCode::ALL.len()];
        self
    }
}

/// One lint finding, with its exact presence condition.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// Resolved level ([`LintLevel::Warn`] or [`LintLevel::Deny`]).
    pub level: LintLevel,
    /// Resolved file name of `pos` (its `FileId` is worker-local and
    /// meaningless across a corpus, so the name is stamped here).
    pub file: String,
    /// Source span anchor.
    pub pos: SourcePos,
    /// Exact presence condition of the problem.
    pub cond: Cond,
    /// Canonical, schedule-independent rendering of `cond`.
    pub cond_text: String,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Flattens to a thread-portable [`Record`] (drops the `Cond`, which
    /// holds non-`Send` context handles).
    pub fn record(&self) -> Record {
        Record {
            code: self.code.as_str(),
            level: self.level.as_str(),
            file: self.file.clone(),
            line: self.pos.line,
            col: self.pos.col,
            cond: self.cond_text.clone(),
            message: self.message.clone(),
            profiles: String::new(),
        }
    }
}

/// A plain-data diagnostic: what the parallel corpus driver carries
/// across worker threads and what the renderers consume.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Stable lint code.
    pub code: &'static str,
    /// `"warn"` or `"deny"`.
    pub level: &'static str,
    /// Resolved file name.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Canonical presence-condition text.
    pub cond: String,
    /// Human-readable description.
    pub message: String,
    /// Comma-joined profile names the diagnostic applies to, in profile
    /// run order — empty outside cross-profile mode, and the renderers
    /// omit it then, keeping single-profile output byte-compatible.
    pub profiles: String,
}

/// Everything one unit's analysis needs, borrowed from the pipeline
/// right after `preprocess` + `parse` (the macro table is per-unit state
/// on the preprocessor and must be read before the next unit resets it).
pub struct AnalysisInput<'a> {
    /// The preprocessed unit (elements, dead branches, tested macros).
    pub unit: &'a CompilationUnit,
    /// The parse result, if parsing ran.
    pub result: Option<&'a ParseResult>,
    /// The unit's final conditional macro table.
    pub table: &'a MacroTable,
    /// The condition context conditions live in.
    pub ctx: &'a CondCtx,
}

/// Runs every enabled lint over one unit.
///
/// `resolve` maps the preprocessor's worker-local [`FileId`]s to file
/// names (see `Preprocessor::file_name`). Diagnostics come back sorted by
/// `(file, line, col, code, message)` — a deterministic order that does
/// not depend on lint execution order or worker scheduling.
pub fn analyze(
    input: &AnalysisInput<'_>,
    opts: &LintOptions,
    resolve: &dyn Fn(FileId) -> Option<String>,
) -> Vec<Diagnostic> {
    let mut raw: Vec<(LintCode, SourcePos, Cond, String)> = Vec::new();
    let on = |code: LintCode| opts.level_of(code) != LintLevel::Allow;
    if on(LintCode::DeadBranch) {
        lints::dead_branches(input, &mut raw);
    }
    if on(LintCode::MacroConflict) {
        lints::macro_conflicts(input, resolve, &mut raw);
    }
    if on(LintCode::UndefMacroTest) {
        lints::undef_macro_tests(input, opts, &mut raw);
    }
    if on(LintCode::ConfigRedecl) {
        lints::config_redecls(input, &mut raw);
    }
    if on(LintCode::PartialParse) {
        lints::partial_parses(input, &mut raw);
    }
    let mut out: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|(_, _, cond, _)| !cond.is_false())
        .map(|(code, pos, cond, message)| Diagnostic {
            code,
            level: opts.level_of(code),
            file: resolve(pos.file).unwrap_or_else(|| format!("<file {}>", pos.file.0)),
            pos,
            cond_text: render::canonical(&cond),
            cond,
            message,
        })
        .collect();
    out.sort_by(|a, b| {
        (&a.file, a.pos.line, a.pos.col, a.code.as_str(), &a.message).cmp(&(
            &b.file,
            b.pos.line,
            b.pos.col,
            b.code.as_str(),
            &b.message,
        ))
    });
    out
}
