//! Byte-exact renderers behind the `superc` CLI, the embeddable
//! [`service::Driver`](crate::service::Driver), and the NDJSON daemon.
//!
//! The determinism contract ("output is byte-identical across jobs,
//! caches, fast paths, and warm replays") is only end-to-end testable if
//! every front end prints through the same code. These functions turn
//! corpus reports into the exact bytes the CLI writes — the binary
//! `eprint!`s [`Rendered::stderr`] then `print!`s [`Rendered::stdout`],
//! the daemon ships both in its response, and verify scripts diff the
//! two byte-for-byte against each other.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::analyze::render::{self, Fragment};
use crate::analyze::{LintOptions, Record};
use crate::corpus::{CorpusReport, ProfilesReport, UnitReport};

/// Output of one rendered request: the exact bytes the CLI writes to
/// stdout and stderr, plus whether the run counts as failed (a nonzero
/// exit for the CLI, `"failed": true` in a daemon response).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Rendered {
    /// Bytes for stdout (reports, ASTs, stats tables).
    pub stdout: String,
    /// Bytes for stderr (fatal errors, diagnostics, degradations).
    pub stderr: String,
    /// True when the run should exit nonzero: a fatal unit, a parse
    /// error, or a denied lint.
    pub failed: bool,
}

/// The lint output formats live beside their renderers in
/// `superc_analyze::render`; they are re-exported here, where the CLI and
/// the service name them.
pub use crate::analyze::render::LintFormat;

/// Renders lint records in the selected format. Every format is
/// byte-identical for any jobs/cache/fastpath setting: records sort
/// deterministically and render conditions canonically.
pub fn render_records(format: LintFormat, records: &[Record]) -> String {
    render::document(format, [&Fragment::new(format, records)])
}

/// Renders a plain parse run over the corpus driver, whatever its unit
/// count: per-unit fatal errors, preprocessor warnings and errors, parse
/// errors, degradations and the accepted condition of a unit that
/// parses under some configurations only on stderr; captured
/// preprocessed text, ASTs, and stats tables on stdout — in input
/// order, with every condition canonical, so the bytes are stable for
/// any job count.
pub fn render_corpus_report(report: &CorpusReport, show_ast: bool, show_stats: bool) -> Rendered {
    let mut out = Rendered::default();
    for u in &report.units {
        if let Some(fatal) = &u.fatal {
            let _ = writeln!(out.stderr, "{}: fatal: {fatal}", u.path);
            out.failed = true;
            continue;
        }
        for d in &u.diagnostics {
            let _ = writeln!(out.stderr, "{}: {d}", u.path);
        }
        for e in &u.errors {
            let _ = writeln!(out.stderr, "{}: {e}", u.path);
            out.failed = true;
        }
        for d in &u.degradations {
            let _ = writeln!(out.stderr, "{}: warning: {d}", u.path);
        }
        if let Some(text) = &u.preprocessed {
            let _ = writeln!(out.stdout, "{text}");
        }
        if show_ast {
            match &u.ast_text {
                Some(ast) => {
                    let _ = writeln!(out.stdout, "{ast}");
                }
                None => {
                    let _ = writeln!(out.stderr, "{}: no configuration parsed", u.path);
                }
            }
        }
        if let Some(cond) = u.accepted.as_deref().filter(|c| *c != "true") {
            let _ = writeln!(out.stderr, "{}: parses only under {cond}", u.path);
        }
        if show_stats {
            let _ = writeln!(
                out.stdout,
                "{}: {} tokens, {} conditionals, {} macro invocations \
                 ({} hoisted), {}",
                u.path,
                u.pp.output_tokens,
                u.pp.output_conditionals,
                u.pp.macro_invocations,
                u.pp.invocations_hoisted,
                u.parse,
            );
        }
    }
    if show_stats {
        out.stdout
            .push_str(&crate::report::corpus_table(report).render());
    }
    out
}

/// Renders a single-profile lint run: fatal units on stderr, records in
/// the selected format (plus the stats table when asked) on stdout. The
/// CLI and every one-shot caller render this way, through a renderer
/// that keeps nothing; a service driver keeps its renderer's per-unit
/// fragments across requests instead.
pub fn render_lint_report(report: &CorpusReport, format: LintFormat, show_stats: bool) -> Rendered {
    LintFragments::default().render(report, format, show_stats)
}

/// The single-profile lint renderer, keeping each unit's rendered
/// records from its last render. The document joins one
/// [`Fragment`] per unit in unit order, and a unit whose report is the
/// same shared [`UnitReport`] as last time at its position (a memo
/// replay hands out the stored report itself) keeps its fragment
/// instead of being rendered again. A changed format starts afresh.
#[derive(Default)]
pub(crate) struct LintFragments {
    /// The format of the kept fragments.
    format: Option<LintFormat>,
    /// The last render's units in report order, each with its fragment.
    units: Vec<(Arc<UnitReport>, Fragment)>,
}

impl LintFragments {
    /// [`render_lint_report`]'s bytes for `report`, rendering only the
    /// units this renderer has not rendered in `format` last time, and
    /// keeping every unit's fragment for the next call.
    pub(crate) fn render(
        &mut self,
        report: &CorpusReport,
        format: LintFormat,
        show_stats: bool,
    ) -> Rendered {
        let mut last = std::mem::take(&mut self.units);
        if self.format != Some(format) {
            last.clear();
        }
        let mut out = Rendered::default();
        let mut units = Vec::with_capacity(report.units.len());
        for (i, u) in report.units.iter().enumerate() {
            if let Some(f) = &u.fatal {
                let _ = writeln!(out.stderr, "{}: fatal: {f}", u.path);
                out.failed = true;
            }
            let fragment = match last.get_mut(i) {
                Some((shown, fragment)) if Arc::ptr_eq(shown, u) => std::mem::take(fragment),
                _ => Fragment::new(format, &u.lints),
            };
            units.push((Arc::clone(u), fragment));
        }
        let fragments = units.iter().map(|(_, f)| f);
        out.failed |= fragments.clone().any(|f| f.deny() > 0);
        out.stdout = render::document(format, fragments);
        if show_stats {
            out.stdout
                .push_str(&crate::report::corpus_table(report).render());
        }
        self.format = Some(format);
        self.units = units;
        out
    }
}

/// Renders a cross-profile lint run: per-profile fatal units on stderr,
/// the merged record set (including `portability-*` diffs) on stdout.
pub fn render_lint_profiles(
    report: &ProfilesReport,
    format: LintFormat,
    opts: &LintOptions,
    show_stats: bool,
) -> Rendered {
    let mut out = Rendered::default();
    for (name, run) in report.profiles.iter().zip(&report.runs) {
        for u in &run.units {
            if let Some(f) = &u.fatal {
                let _ = writeln!(out.stderr, "{} [{name}]: fatal: {f}", u.path);
                out.failed = true;
            }
        }
    }
    let records = report.lint_records(opts);
    if records.iter().any(|r| r.level == "deny") {
        out.failed = true;
    }
    out.stdout.push_str(&render_records(format, &records));
    if show_stats {
        for (name, run) in report.profiles.iter().zip(&report.runs) {
            let _ = writeln!(out.stdout, "profile {name}:");
            out.stdout
                .push_str(&crate::report::corpus_table(run).render());
        }
    }
    out
}
