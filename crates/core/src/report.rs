//! Corpus-level reporting: the percentile and table machinery behind the
//! paper's Table 2, Table 3, Figures 8–10.

use std::fmt::Write as _;

use superc_util::counters::{self, Class, Counted};

use crate::corpus::CorpusReport;

/// A percentile summary in the paper's `50th · 90th · 100th` format.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum.
    pub p100: f64,
}

impl Percentiles {
    /// Computes percentiles of `values` (need not be sorted). NaNs are
    /// skipped rather than panicking: a single bad timing sample must not
    /// take down a whole corpus report.
    pub fn of(values: &[f64]) -> Percentiles {
        let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
        if v.is_empty() {
            return Percentiles::default();
        }
        v.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let idx = ((v.len() as f64 - 1.0) * q).round() as usize;
            v[idx.min(v.len() - 1)]
        };
        Percentiles {
            p50: at(0.5),
            p90: at(0.9),
            p100: v[v.len() - 1],
        }
    }

    /// Integer-valued convenience constructor.
    pub fn of_u64(values: &[u64]) -> Percentiles {
        let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
        Percentiles::of(&v)
    }

    /// Formats like the paper: `50 · 90 · 100`.
    pub fn paper_format(&self) -> String {
        format!(
            "{} · {} · {}",
            group_thousands(self.p50),
            group_thousands(self.p90),
            group_thousands(self.p100)
        )
    }
}

/// Formats a count with thousands separators (paper style: `5,600,227`).
pub fn group_thousands(x: f64) -> String {
    let n = x.round() as i64;
    let mut s = n.abs().to_string();
    let mut grouped = String::new();
    let bytes = s.len();
    for (i, c) in s.drain(..).enumerate() {
        if i > 0 && (bytes - i).is_multiple_of(3) {
            grouped.push(',');
        }
        grouped.push(c);
    }
    if n < 0 {
        format!("-{grouped}")
    } else {
        grouped
    }
}

/// A cumulative distribution over per-unit values; `cdf_points` yields
/// `(value, fraction ≤ value)` pairs for plotting Figures 8b and 9.
#[derive(Clone, Debug, Default)]
pub struct Distribution {
    values: Vec<f64>,
}

impl Distribution {
    /// An empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no observations were added.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Percentile summary.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles::of(&self.values)
    }

    /// Sum of all observations.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Sorted `(value, cumulative fraction)` points.
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        let mut v = self.values.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        let n = v.len() as f64;
        v.into_iter()
            .enumerate()
            .map(|(i, x)| (x, (i + 1) as f64 / n))
            .collect()
    }

    /// Renders an ASCII CDF plot, `width` columns by `height` rows.
    pub fn ascii_cdf(&self, width: usize, height: usize, label: &str) -> String {
        let pts = self.cdf_points();
        let mut out = String::new();
        if pts.is_empty() {
            return out;
        }
        let max_x = pts.last().expect("nonempty").0.max(1e-9);
        let mut grid = vec![vec![b' '; width]; height];
        for (x, f) in &pts {
            let col = ((x / max_x) * (width as f64 - 1.0)) as usize;
            let row = ((1.0 - f) * (height as f64 - 1.0)) as usize;
            grid[row.min(height - 1)][col.min(width - 1)] = b'*';
        }
        let _ = writeln!(out, "{label} (x up to {max_x:.3}):");
        for row in grid {
            let _ = writeln!(out, "|{}", String::from_utf8_lossy(&row));
        }
        let _ = writeln!(out, "+{}", "-".repeat(width));
        out
    }
}

/// Simple fixed-width table printer for the experiment binaries.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (panics in debug builds on arity mismatch).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
        );
        for r in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(r, &widths));
        }
        out
    }
}

/// Renders a corpus run as the `--stats` table: one row per counter,
/// named `layer.name`, with its class and value. The report-level rows
/// (`corpus.*`) come first, then every declared counter of the merged
/// preprocessor, parser, condition-context and BDD stats. Behavior and
/// mode rows always print, so two runs' tables compare row for row;
/// schedule and timing rows print when nonzero, and each
/// `_hits`/`_misses` pair adds its hit rate.
pub fn corpus_table(report: &CorpusReport) -> TextTable {
    use Class::{Behavior, Schedule, Timing};
    let mut t = TextTable::new(&["counter", "class", "value"]);
    // Fatal preprocessor errors are failure rows too; only panics are
    // firewalled.
    let firewalled = report
        .units
        .iter()
        .filter(|u| u.failure.as_ref().is_some_and(|f| f.stage == "panic"))
        .count();
    let ast_choice_nodes: usize = report.units.iter().map(|u| u.choice_nodes).sum();
    let mut rows = vec![
        ("units", Behavior, report.units.len().to_string()),
        ("parsed", Behavior, report.parsed_units().to_string()),
        ("fatal", Behavior, report.fatal_units().to_string()),
        ("partial", Behavior, report.partial_units().to_string()),
        ("firewalled", Behavior, firewalled.to_string()),
        ("lints", Behavior, report.lint_count().to_string()),
        // Choice nodes of the unfolded ASTs, once per path (see
        // `UnitReport::choice_nodes`); `fmlr.choice_nodes` counts the
        // ones the engine built.
        ("ast_choice_nodes", Behavior, ast_choice_nodes.to_string()),
        ("workers", Schedule, report.workers.to_string()),
        ("wall", Timing, format!("{:?}", report.wall)),
        (
            "tokens_per_sec",
            Timing,
            group_thousands(report.tokens_per_sec()),
        ),
    ];
    let (hits, misses) = (report.unit_memo_hits, report.unit_memo_misses);
    if hits + misses > 0 {
        rows.push(("unit_memo_hits", Schedule, hits.to_string()));
        rows.push(("unit_memo_misses", Schedule, misses.to_string()));
        rows.push(("unit_memo_hit_rate", Schedule, hit_rate(hits, misses)));
    }
    if report.files_rehashed > 0 {
        let rehashed = report.files_rehashed.to_string();
        rows.push(("files_rehashed", Schedule, rehashed));
    }
    for (name, class, value) in rows {
        row(&mut t, "corpus", name, class, value);
    }
    counter_rows(&mut t, &report.pp);
    counter_rows(&mut t, &report.parse);
    counter_rows(&mut t, &report.cond);
    if let Some(b) = &report.bdd {
        counter_rows(&mut t, b);
    }
    t
}

/// The rows of every declared counter of `stats` (see [`corpus_table`]).
fn counter_rows<S: Counted>(t: &mut TextTable, stats: &S) {
    for c in S::COUNTERS {
        let v = (c.get)(stats);
        if matches!(c.class, Class::Behavior | Class::Mode) || v > 0 {
            row(t, S::LAYER, c.name, c.class, v.to_string());
        }
        let Some(stem) = c.name.strip_suffix("_misses") else {
            continue;
        };
        if let Some(h) = counters::find::<S>(&format!("{stem}_hits")) {
            let hits = (h.get)(stats);
            if hits + v > 0 {
                let name = format!("{stem}_hit_rate");
                row(t, S::LAYER, &name, c.class, hit_rate(hits, v));
            }
        }
    }
}

fn row(t: &mut TextTable, layer: &str, name: &str, class: Class, value: String) {
    t.row(&[format!("{layer}.{name}"), class.name().to_string(), value]);
}

fn hit_rate(hits: u64, misses: u64) -> String {
    format!("{:.3}", hits as f64 / (hits + misses) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_match_definition() {
        let p = Percentiles::of_u64(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(p.p50, 6.0);
        assert_eq!(p.p90, 9.0);
        assert_eq!(p.p100, 10.0);
        assert_eq!(Percentiles::of(&[]), Percentiles::default());
        let single = Percentiles::of(&[42.0]);
        assert_eq!((single.p50, single.p90, single.p100), (42.0, 42.0, 42.0));
    }

    #[test]
    fn percentiles_skip_nans() {
        // NaNs must neither panic the sort nor poison the summary.
        let p = Percentiles::of(&[3.0, f64::NAN, 1.0, 2.0, f64::NAN]);
        assert_eq!((p.p50, p.p100), (2.0, 3.0));
        assert_eq!(Percentiles::of(&[f64::NAN]), Percentiles::default());
    }

    #[test]
    fn thousands_grouping() {
        assert_eq!(group_thousands(5600227.0), "5,600,227");
        assert_eq!(group_thousands(532.0), "532");
        assert_eq!(group_thousands(0.0), "0");
        assert_eq!(group_thousands(-1234.0), "-1,234");
    }

    #[test]
    fn paper_format_joins_with_dots() {
        let p = Percentiles::of_u64(&[34000, 45000, 122000]);
        assert!(p.paper_format().contains(" · "));
    }

    #[test]
    fn cdf_is_monotone() {
        let mut d = Distribution::new();
        for v in [3.0, 1.0, 2.0, 2.0] {
            d.push(v);
        }
        let pts = d.cdf_points();
        assert_eq!(pts.len(), 4);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(pts.last().expect("nonempty").1, 1.0);
        assert_eq!(d.total(), 8.0);
        assert!(!d.ascii_cdf(20, 5, "test").is_empty());
    }

    #[test]
    fn text_table_aligns() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into(), "22222".into()]);
        let s = t.render();
        assert!(s.contains("alpha"));
        assert!(s.lines().count() >= 4);
    }
}
