//! Per-compilation-unit usage counters.
//!
//! These counters instrument the preprocessor exactly where the paper's
//! "tool's view" (Table 3) measures: definitions, invocations and their
//! interactions with conditionals, hoists, pasting/stringification,
//! includes, and conditional statistics. The benchmark harness aggregates
//! them into 50·90·100 percentiles across compilation units.

/// Counters gathered while preprocessing one compilation unit. Each
/// field's class and merge rule are declared once, after the struct.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PpStats {
    /// `#define` directives processed (including those in headers).
    pub macro_definitions: u64,
    /// `#define`s for a name that already had a feasible entry.
    pub redefinitions: u64,
    /// `#undef` directives processed.
    pub undefs: u64,
    /// Macro invocations expanded (object- and function-like).
    pub macro_invocations: u64,
    /// Invocations where at least one table entry was infeasible and
    /// ignored ("Trimmed definitions").
    pub invocations_trimmed: u64,
    /// Invocations requiring conditionals hoisted around them (implicit
    /// multiply-defined conditionals or explicit conditionals in args).
    pub invocations_hoisted: u64,
    /// Invocations of macros from within macro bodies ("Nested invocations").
    pub nested_invocations: u64,
    /// Invocations of compiler built-in macros.
    pub builtin_invocations: u64,
    /// Token-pasting (`##`) operations applied.
    pub token_pastes: u64,
    /// Pastes whose operands contained conditionals (hoisted).
    pub token_pastes_hoisted: u64,
    /// Stringification (`#`) operations applied.
    pub stringifications: u64,
    /// Stringifications whose operand contained conditionals (hoisted).
    pub stringifications_hoisted: u64,
    /// `#include` directives processed (after resolution).
    pub includes: u64,
    /// Includes whose operand contained hoisted conditionals.
    pub includes_hoisted: u64,
    /// Computed includes (operand required macro expansion).
    pub computed_includes: u64,
    /// Headers processed more than once (guard not definitely defined).
    pub reincluded_headers: u64,
    /// Static conditional *directives* evaluated (`#if`/`#ifdef`/`#ifndef`).
    pub conditionals: u64,
    /// Conditional expressions whose evaluation required hoisting a
    /// multiply-defined macro around the expression.
    pub conditionals_hoisted: u64,
    /// Maximum conditional nesting depth observed.
    pub max_depth: u64,
    /// Conditional expressions containing opaque non-boolean subterms.
    pub non_boolean_exprs: u64,
    /// `#error` directives under some feasible condition.
    pub error_directives: u64,
    /// `#warning` directives.
    pub warning_directives: u64,
    /// Macro-table entries trimmed as infeasible on (re)definition.
    pub trimmed_entries: u64,
    /// Ordinary tokens in the final compilation unit.
    pub output_tokens: u64,
    /// Static conditionals remaining in the final compilation unit.
    pub output_conditionals: u64,
    /// Files lexed (compilation unit plus headers, counting repeats).
    pub files_processed: u64,
    /// Total bytes of source lexed (counting repeats).
    pub bytes_processed: u64,
    /// Nanoseconds spent in the lexer (Figure 10's "lexing" share;
    /// cached headers contribute their first lex only).
    pub lex_nanos: u64,
    /// Headers served from the process-wide shared artifact cache
    /// (another worker — or an earlier unit — already lexed them).
    pub shared_cache_hits: u64,
    /// Headers this worker lexed and published to the shared cache.
    pub shared_cache_misses: u64,
    /// Nanoseconds of lexing+structuring avoided by shared-cache hits
    /// (the original producer's cost, credited on each hit).
    pub lex_nanos_saved: u64,
    /// Conditional-expression evaluations served from the per-worker
    /// memo.
    pub condexpr_memo_hits: u64,
    /// Conditional-expression evaluations that ran in full and seeded
    /// the memo.
    pub condexpr_memo_misses: u64,
    /// Object-like macro expansions served from the per-unit closed-body
    /// memo. The memo itself resets every compilation unit, but a
    /// condexpr-memo hit replays the *original* evaluation's expansion
    /// hits (whatever the memo's warmth was then), so this counter is
    /// schedule-dependent too.
    pub expansion_memo_hits: u64,
    /// Tokens streamed straight from the lexer to the output by the fused
    /// fast path (inert tokens at the front of a conditional-free text
    /// run, bypassing the expansion queue). Deterministic for a given
    /// `fuse_lexing` setting but zero with fusion off.
    pub fused_tokens: u64,
}

superc_util::counters!(PpStats in "cpp" {
    macro_definitions: Behavior Sum,
    redefinitions: Behavior Sum,
    undefs: Behavior Sum,
    macro_invocations: Behavior Sum,
    invocations_trimmed: Behavior Sum,
    invocations_hoisted: Behavior Sum,
    nested_invocations: Behavior Sum,
    builtin_invocations: Behavior Sum,
    token_pastes: Behavior Sum,
    token_pastes_hoisted: Behavior Sum,
    stringifications: Behavior Sum,
    stringifications_hoisted: Behavior Sum,
    includes: Behavior Sum,
    includes_hoisted: Behavior Sum,
    computed_includes: Behavior Sum,
    reincluded_headers: Behavior Sum,
    conditionals: Behavior Sum,
    conditionals_hoisted: Behavior Sum,
    max_depth: Behavior Max,
    non_boolean_exprs: Behavior Sum,
    error_directives: Behavior Sum,
    warning_directives: Behavior Sum,
    trimmed_entries: Behavior Sum,
    output_tokens: Behavior Sum,
    output_conditionals: Behavior Sum,
    files_processed: Behavior Sum,
    bytes_processed: Behavior Sum,
    lex_nanos: Timing Sum,
    shared_cache_hits: Schedule Sum,
    shared_cache_misses: Schedule Sum,
    lex_nanos_saved: Timing Sum,
    condexpr_memo_hits: Schedule Sum,
    condexpr_memo_misses: Schedule Sum,
    expansion_memo_hits: Schedule Sum,
    fused_tokens: Mode Sum,
});

impl PpStats {
    /// Adds another unit's counters into this one (for corpus totals).
    pub fn merge(&mut self, other: &PpStats) {
        superc_util::counters::merge(self, other);
    }
}
