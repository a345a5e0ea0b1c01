//! SuperC: configuration-preserving preprocessing and Fork-Merge LR
//! parsing for all of C.
//!
//! This is the top-level crate of a from-scratch reproduction of
//! *SuperC: Parsing All of C by Taming the Preprocessor* (Gazzillo &
//! Grimm, PLDI 2012). Where an ordinary C front end picks one
//! configuration, SuperC preserves them all: the preprocessor resolves
//! includes and macros but leaves static conditionals intact, and the
//! parser forks and merges LR subparsers around them, producing one
//! well-formed AST with *static choice nodes*.
//!
//! The heavy lifting lives in the component crates, all re-exported here:
//!
//! | crate | role |
//! |-------|------|
//! | [`bdd`] / [`cond`] | presence conditions (BDD and SAT backends) |
//! | [`lexer`] | C tokens |
//! | [`cpp`] | configuration-preserving preprocessor (§3) |
//! | [`grammar`] | LALR table generation |
//! | [`fmlr`] | Fork-Merge LR engine with all optimizations (§4) |
//! | [`csyntax`] | C grammar + typedef context plug-in (§5) |
//!
//! # Examples
//!
//! ```
//! use superc::{MemFs, Options, SuperC};
//!
//! let fs = MemFs::new().file(
//!     "hello.c",
//!     "#ifdef CONFIG_VERBOSE\nint log_level = 2;\n#else\nint log_level = 0;\n#endif\n",
//! );
//! let mut superc = SuperC::new(Options::default(), fs);
//! let processed = superc.process("hello.c")?;
//! let ast = processed.result.ast.as_ref().expect("parsed");
//! assert_eq!(ast.choice_count(), 1); // both configurations, one AST
//! # Ok::<(), superc::PpError>(())
//! ```

pub mod cli;
pub mod corpus;
pub mod report;
pub mod service;

pub use superc_analyze as analyze;
pub use superc_bdd as bdd;
pub use superc_cond as cond;
pub use superc_cpp as cpp;
pub use superc_csyntax as csyntax;
pub use superc_fmlr as fmlr;
pub use superc_grammar as grammar;
pub use superc_lexer as lexer;
pub use superc_util::counters;

pub use superc_cond::{Cond, CondBackend, CondCtx};
pub use superc_cpp::{
    Builtins, CompilationUnit, CondSite, DiskFs, FileSystem, MemFs, PpError, PpOptions, PpStats,
    Preprocessor, Profile, SharedCache, UndefIdentPolicy,
};
pub use superc_csyntax::{
    c_artifacts, c_grammar, classify, declared_names, function_definitions, parse_unit,
    unparse_config, CArtifacts, CContext, CParser,
};
pub use superc_fmlr::{
    BudgetKind, BudgetTrip, Forest, ParseBudgets, ParseOutcome, ParseResult, ParseStats, Parser,
    ParserConfig, SemVal,
};

pub use corpus::{
    process_corpus, process_corpus_profiles, CorpusOptions, CorpusReport, CorpusRunner,
    ProfilesReport, UnitFailure, UnitReport,
};

use std::time::{Duration, Instant};

/// Wall-clock cost of each pipeline phase for one compilation unit —
/// the measurement behind the paper's Figure 10.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Lexing (inside preprocessing; first lex of each file).
    pub lexing: Duration,
    /// Preprocessing excluding lexing.
    pub preprocessing: Duration,
    /// Forest construction + FMLR parsing.
    pub parsing: Duration,
}

impl PhaseTimings {
    /// Total latency.
    pub fn total(&self) -> Duration {
        self.lexing + self.preprocessing + self.parsing
    }
}

/// One fully processed compilation unit.
pub struct ProcessedUnit {
    /// Preprocessor output (all configurations).
    pub unit: CompilationUnit,
    /// Parse result: AST with choice nodes, errors, parser stats.
    pub result: ParseResult,
    /// Phase timings.
    pub timings: PhaseTimings,
    /// Source bytes of the main file plus headers (with repeats).
    pub bytes: u64,
}

/// Per-unit resource budgets, threaded from the CLI through [`SuperC`]
/// into the preprocessor (include depth, hoist cap) and the FMLR engine
/// ([`ParseBudgets`]). A zero field leaves that resource ungoverned
/// (include depth and hoist cap fall back to [`PpOptions`] defaults).
///
/// Exhaustion degrades instead of aborting: the engine sheds the
/// affected subparsers, records condition-scoped [`BudgetTrip`]s, and
/// the unit still yields an AST for the surviving configurations with a
/// [`ParseOutcome::Partial`] result. See `crates/fmlr` for the
/// per-budget determinism notes (`max_cond_nodes`/`max_millis` are
/// schedule-dependent safety nets).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Budgets {
    /// Live-subparser ceiling (`--max-subparsers`).
    pub max_subparsers: usize,
    /// Total fork budget per parse (`--max-forks`).
    pub max_forks: u64,
    /// Main-loop step budget per parse (`--parse-budget`).
    pub max_steps: u64,
    /// BDD-node growth ceiling per parse (`--max-cond-nodes`).
    pub max_cond_nodes: usize,
    /// Wall-clock budget per parse in milliseconds (`--parse-time-ms`).
    pub max_millis: u64,
    /// Include-nesting ceiling (`--include-depth`); overflow emits an
    /// error diagnostic and skips the include rather than recursing.
    pub max_include_depth: usize,
    /// Ceiling on hoisted branches per preprocessor operation
    /// (`--hoist-cap`); overflow degrades the operation with a warning.
    pub hoist_cap: usize,
}

impl Budgets {
    /// No limits (the default): every resource ungoverned.
    pub fn unlimited() -> Self {
        Budgets::default()
    }
}

/// End-to-end configuration.
#[derive(Clone, Debug, Hash)]
pub struct Options {
    /// Presence-condition representation: BDDs (SuperC) or formula+SAT
    /// (the TypeChef-style baseline of Figure 9).
    pub backend: CondBackend,
    /// Parser optimization level / MAPR baseline.
    pub parser: ParserConfig,
    /// Preprocessor options (include paths, defines, built-ins,
    /// single-configuration mode).
    pub pp: PpOptions,
    /// Per-unit resource budgets; non-zero fields override the matching
    /// [`PpOptions`]/[`ParserConfig`] knobs in [`SuperC::new`].
    pub budgets: Budgets,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            backend: CondBackend::Bdd,
            parser: ParserConfig::full(),
            pp: PpOptions::default(),
            budgets: Budgets::unlimited(),
        }
    }
}

impl Options {
    /// The single-configuration ("gcc") baseline: conditionals resolved
    /// against `defines`, plain LR parsing.
    pub fn gcc_baseline(defines: Vec<(String, String)>) -> Self {
        Options {
            pp: PpOptions {
                defines,
                single_config: true,
                ..PpOptions::default()
            },
            ..Options::default()
        }
    }

    /// The TypeChef-style baseline: identical pipeline, SAT-backed
    /// presence conditions.
    pub fn typechef_baseline() -> Self {
        Options {
            backend: CondBackend::Sat,
            ..Options::default()
        }
    }
}

/// The SuperC tool: preprocess + parse compilation units over a file
/// system, with shared header caches across units.
///
/// The parser is a persistent [`CParser`] seeded from the process-wide
/// shared artifacts ([`c_artifacts`]): grammar tables, classification
/// tables, and context tables are resolved once at construction, so
/// [`SuperC::process`] pays no per-unit parser setup.
///
/// See the crate docs for an example.
pub struct SuperC<F: FileSystem> {
    ctx: CondCtx,
    pp: Preprocessor<F>,
    parser: CParser,
}

impl<F: FileSystem> SuperC<F> {
    /// Creates the tool over `fs`, threading any non-zero [`Budgets`]
    /// fields into the preprocessor and parser configuration.
    pub fn new(mut options: Options, fs: F) -> Self {
        let b = options.budgets;
        let pb = &mut options.parser.budgets;
        if b.max_subparsers > 0 {
            pb.max_live = b.max_subparsers;
        }
        if b.max_forks > 0 {
            pb.max_forks = b.max_forks;
        }
        if b.max_steps > 0 {
            pb.max_steps = b.max_steps;
        }
        if b.max_cond_nodes > 0 {
            pb.max_cond_nodes = b.max_cond_nodes;
        }
        if b.max_millis > 0 {
            pb.max_millis = b.max_millis;
        }
        if b.max_include_depth > 0 {
            options.pp.max_include_depth = b.max_include_depth;
        }
        if b.hoist_cap > 0 {
            options.pp.hoist_cap = b.hoist_cap;
        }
        let ctx = CondCtx::new(options.backend);
        let pp = Preprocessor::new(ctx.clone(), options.pp, fs);
        SuperC {
            ctx,
            pp,
            parser: CParser::new(options.parser),
        }
    }

    /// The condition context (for building configurations to query).
    pub fn ctx(&self) -> &CondCtx {
        &self.ctx
    }

    /// The underlying preprocessor (for include counts etc.).
    pub fn preprocessor(&self) -> &Preprocessor<F> {
        &self.pp
    }

    /// Attaches a process-wide shared preprocessing cache (the L2 behind
    /// the per-tool header cache). Its path rows then become the tool's
    /// only view of the tree: one read per path per cache generation,
    /// shared by every tool attached to it. Intended for corpus drivers
    /// that run many `SuperC` instances over one file tree; see
    /// [`corpus::process_corpus`].
    pub fn set_shared_cache(&mut self, cache: std::sync::Arc<SharedCache>) {
        self.pp.set_shared_cache(cache);
    }

    /// Processes one compilation unit end to end.
    ///
    /// # Errors
    ///
    /// Fails on preprocessor-fatal conditions (missing file, lexical
    /// error, unbalanced conditionals, top-level `#error`). Parse errors
    /// are *not* fatal: they are per-configuration and reported in
    /// [`ParseResult::errors`].
    pub fn process(&mut self, path: &str) -> Result<ProcessedUnit, PpError> {
        let pp_start = Instant::now();
        let unit = self.pp.preprocess(path)?;
        let pp_total = pp_start.elapsed();
        let lexing = Duration::from_nanos(unit.stats.lex_nanos);

        let parse_start = Instant::now();
        let result = self.parser.parse(&unit, &self.ctx);
        let parsing = parse_start.elapsed();

        Ok(ProcessedUnit {
            bytes: unit.stats.bytes_processed,
            timings: PhaseTimings {
                lexing,
                preprocessing: pp_total.saturating_sub(lexing),
                parsing,
            },
            unit,
            result,
        })
    }

    /// Runs the variability lints over a just-processed unit.
    ///
    /// Must be called before the next [`SuperC::process`] call: the
    /// conflict-recording macro table is per-unit state on the
    /// preprocessor and resets when the next unit starts.
    pub fn lint(
        &self,
        processed: &ProcessedUnit,
        opts: &analyze::LintOptions,
    ) -> Vec<analyze::Diagnostic> {
        let input = analyze::AnalysisInput {
            unit: &processed.unit,
            result: Some(&processed.result),
            table: self.pp.table(),
            ctx: &self.ctx,
        };
        analyze::analyze(&input, opts, &|id| {
            self.pp.file_name(id).map(str::to_string)
        })
    }

    /// Builds a just-processed unit's cross-profile **portability
    /// slice** (see [`analyze::portability`]): the plain-data rows the
    /// cross-profile corpus mode diffs across [`Profile`]s. Same
    /// call-before-next-unit constraint as [`SuperC::lint`].
    pub fn portability_slice(
        &self,
        processed: &ProcessedUnit,
    ) -> Vec<analyze::portability::PortEntry> {
        let input = analyze::AnalysisInput {
            unit: &processed.unit,
            result: Some(&processed.result),
            table: self.pp.table(),
            ctx: &self.ctx,
        };
        analyze::portability::portability_slice(&input, &|id| {
            self.pp.file_name(id).map(str::to_string)
        })
    }
}

#[cfg(test)]
mod tests;
