//! The SuperC reproduction's benchmark: one workload per run, seeded
//! inputs, output checks, and every metric printed by name and unit.
//!
//! The benchmark drives the program only through its public entry
//! points (`process_corpus`, `process_corpus_profiles`, the `cli`
//! renderers, `service::Driver` and `service::daemon::handle_line`) and
//! gives it only generated inputs: kernelgen `CorpusSpec::kernel()`
//! trees at the run's seed. `perfbench/README.md` says why each workload
//! exists and which layer metric should move which end-to-end metric.

pub mod batch;
pub mod gcc;
pub mod gen;
pub mod measure;
pub mod serve;
pub mod trace;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux process clocks and /proc (64-bit Linux only)");

use measure::Metrics;

/// Worker threads for every workload (the benchmark machine's `nproc`).
pub const JOBS: usize = 2;

/// The workloads, by the name `--workload` takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One-shot `superc lint --format json -j2` over 512 units.
    ColdLint,
    /// An NDJSON daemon session: edit one file, lint every unit.
    EditServe,
    /// One-shot cross-profile lint over 256 units with profile islands.
    ProfileMatrix,
}

impl Workload {
    /// Parses a `--workload` operand.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_lint" => Some(Workload::ColdLint),
            "edit_serve" => Some(Workload::EditServe),
            "profile_matrix" => Some(Workload::ProfileMatrix),
            _ => None,
        }
    }
}

/// End-to-end metrics and their units; every untraced run prints each.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tokens_per_cpu_s", "tok/s"),
    ("op_cpu_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units; every traced run prints each (0
/// where the workload does not reach the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("grammar.build_s", "s"),
    ("lexer.busy_s", "s"),
    ("lexer.bytes", "bytes"),
    ("cpp.busy_s", "s"),
    ("cpp.output_tokens", "count"),
    ("cpp.condexpr_memo_hit_rate", "ratio"),
    ("cpp.fused_share", "ratio"),
    ("cpp.l2_hit_rate", "ratio"),
    ("cpp.files_rehashed", "count"),
    ("bdd.apply_calls", "count"),
    ("bdd.cache_hit_rate", "ratio"),
    ("bdd.nodes", "count"),
    ("fmlr.busy_s", "s"),
    ("fmlr.fastpath_share", "ratio"),
    ("fmlr.forks", "count"),
    ("fmlr.merges", "count"),
    ("fmlr.merge_hit_rate", "ratio"),
    ("fmlr.peak_subparsers", "count"),
    ("analyze.lint_busy_s", "s"),
    ("analyze.lints", "count"),
    ("analyze.portability_busy_s", "s"),
    ("analyze.portability_records", "count"),
    ("corpus.run_s", "s"),
    ("corpus.overhead_s", "s"),
    ("corpus.worker_busy_share", "ratio"),
    ("corpus.memo_hit_rate", "ratio"),
    ("corpus.units_recomputed", "count"),
    ("cli.render_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("json.parse_s", "s"),
    ("service.edit_s", "s"),
    ("service.encode_s", "s"),
    ("service.fill_s", "s"),
];

/// What one workload run measured and checked.
pub struct Outcome {
    /// End-to-end metrics measured by the workload itself.
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Wall-clock figures, printed by name and unit but not part of the
    /// result line: on a shared host they move with other tenants' load
    /// (steal time), which CPU time leaves out.
    pub wall: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted: (unit, profile) analyses, requests, and
    /// gcc triples.
    pub attempted: u64,
    /// Operations that failed or failed their output check.
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
    /// Human-readable findings, printed before the result line.
    pub notes: Vec<String>,
    /// Named counts behind the metrics (passes, requests, samples).
    pub counts: Vec<(&'static str, u64)>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            e2e: Metrics::default(),
            layers: Metrics::default(),
            wall: Vec::new(),
            attempted: 0,
            failed: 0,
            correct: true,
            notes: Vec::new(),
            counts: Vec::new(),
        }
    }
}

impl Outcome {
    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.correct = false;
        self.note(why);
    }

    /// Records a finding (the first few are kept).
    pub fn note(&mut self, what: String) {
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }

    /// Records a wall-clock figure.
    pub fn wall(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.wall.push((name, value, unit));
    }

    /// Records a named count.
    pub fn count(&mut self, name: &'static str, n: u64) {
        self.counts.push((name, n));
    }
}
