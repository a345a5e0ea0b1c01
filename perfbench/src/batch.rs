//! The one-shot batch workloads: `cold_lint` (`superc lint --format
//! json -j2`) and `profile_matrix` (the same with `--profiles
//! gcc-linux,clang-macos,msvc-windows`). Every pass calls the corpus
//! driver fresh, so it builds its own L2 cache, memo and worker tools as
//! a CLI run does, then renders through the CLI's renderer.

use std::path::Path;
use std::time::Instant;

use superc::analyze::portability::diff_profiles;
use superc::analyze::LintOptions;
use superc::bdd::BddStats;
use superc::cli::{self, LintFormat, Rendered};
use superc::corpus::{
    process_corpus, process_corpus_profiles, CorpusOptions, CorpusReport, ProfilesReport,
};
use superc::{CondBackend, CondCtx, Options, ParseStats, PpOptions, PpStats, Profile, SuperC};
use superc_kernelgen::Corpus;
use superc_util::json::Json;

use crate::gen::{add_profile_islands, kernel_tree};
use crate::measure::{median, peak_rss_mb, process_cpu_s, quantile, ratio, Totals};
use crate::trace::Tracer;
use crate::{gcc, Outcome, JOBS};

/// Span id of the one-thread replay that times lint and portability.
const REPLAY_ID: u64 = u64::MAX;

/// A batch workload's shape.
pub struct Batch {
    /// Compilation units in the tree.
    pub units: usize,
    /// Profiles for cross-profile mode; empty runs the default profile
    /// through `process_corpus`.
    pub profiles: Vec<Profile>,
    /// (unit, profile, configuration) triples checked against gcc.
    pub gcc_cases: usize,
}

impl Batch {
    /// `superc lint --format json -j2` over 512 units.
    pub fn cold_lint() -> Batch {
        Batch {
            units: 512,
            profiles: Vec::new(),
            gcc_cases: 32,
        }
    }

    /// `superc lint --profiles gcc-linux,clang-macos,msvc-windows
    /// --format json -j2` over 256 units with profile islands.
    pub fn profile_matrix() -> Batch {
        Batch {
            units: 256,
            profiles: ["gcc-linux", "clang-macos", "msvc-windows"]
                .iter()
                .map(|n| Profile::named(n).expect("shipped profile"))
                .collect(),
            gcc_cases: 48,
        }
    }

    /// The workload's input tree at `seed`.
    pub fn corpus(&self, seed: u64) -> Corpus {
        let mut corpus = kernel_tree(self.units, seed);
        if !self.profiles.is_empty() {
            add_profile_islands(&mut corpus, seed);
        }
        corpus
    }

    /// Runs a warm-up pass and then passes until `seconds` have passed
    /// (at least one), then the output checks.
    pub fn run(
        &self,
        corpus: &Corpus,
        seed: u64,
        seconds: f64,
        tracer: &mut Tracer,
        workdir: &Path,
    ) -> Outcome {
        let mut out = Outcome::default();
        let options = Options::default();
        let lopts = LintOptions::default();
        let copts = CorpusOptions {
            jobs: JOBS,
            lint: Some(lopts.clone()),
            ..CorpusOptions::default()
        };
        let mut t = Totals::default();
        let (mut tok_per_cpu, mut pass_cpu_ms) = (Vec::new(), Vec::new());
        let (mut tok_rates, mut p50s, mut p95s) = (Vec::new(), Vec::new(), Vec::new());
        let mut ops = 0u64;
        let mut first: Option<(Rendered, usize)> = None;
        let mut port_records = 0;
        let mut passes = 0u64;
        let start = Instant::now();
        while passes < 2 || start.elapsed().as_secs_f64() < seconds {
            let id = passes;
            tracer.enter("pass", id);
            let cpu0 = process_cpu_s();
            let t0 = Instant::now();
            let report = tracer.time("corpus.process_corpus", id, || {
                if self.profiles.is_empty() {
                    Pass::One(Box::new(process_corpus(
                        &corpus.fs,
                        &corpus.units,
                        &options,
                        &copts,
                    )))
                } else {
                    Pass::Grid(process_corpus_profiles(
                        &corpus.fs,
                        &corpus.units,
                        &options,
                        &self.profiles,
                        &copts,
                    ))
                }
            });
            let corpus_s = t0.elapsed().as_secs_f64();
            let rendered = tracer.time("cli.render", id, || match &report {
                Pass::One(r) => cli::render_lint_report(r, LintFormat::Json, false),
                Pass::Grid(g) => cli::render_lint_profiles(g, LintFormat::Json, &lopts, false),
            });
            let wall = t0.elapsed().as_secs_f64();
            let cpu = process_cpu_s() - cpu0;
            tracer.exit();
            passes += 1;

            let runs = report.runs();
            let tokens: u64 = runs.iter().map(|r| r.pp.output_tokens).sum();
            let mut pass_ms = Vec::new();
            for run in runs {
                for u in &run.units {
                    out.attempted += 1;
                    pass_ms.push(u.phase_nanos.iter().sum::<u64>() as f64 / 1e6);
                    if u.failure.is_some() || u.partial {
                        out.fail(format!(
                            "{}: {}",
                            u.path,
                            u.fatal.as_deref().unwrap_or("budget trip (partial)")
                        ));
                    }
                }
                add_run_totals(&mut t, run);
            }
            // The first pass pays the process's one-time warm-up (heap
            // growth, first page faults); the end-to-end figures are
            // medians over the passes after it, each like one CLI run in
            // a warm process.
            if id > 0 {
                tok_per_cpu.push(tokens as f64 / cpu);
                pass_cpu_ms.push(cpu * 1e3);
                tok_rates.push(tokens as f64 / wall);
                p50s.push(median(&pass_ms));
                p95s.push(quantile(&pass_ms, 0.95));
            }
            ops += pass_ms.len() as u64;
            if id == 1 {
                // Peak memory over the work every run does, however fast
                // the host: the warm-up pass and the first timed pass.
                out.e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");
            }
            t.add("pass.wall", wall);
            t.add("corpus.run", corpus_s);
            t.add("cli.render", wall - corpus_s);
            t.add(
                "cli.output_bytes",
                (rendered.stdout.len() + rendered.stderr.len()) as f64,
            );
            if tracer.on() {
                if let Pass::Grid(g) = &report {
                    // render_lint_profiles bundles the portability diff
                    // with rendering: time the diff on the same inputs.
                    let diff_s = time_diffs(g, &lopts, tracer, id);
                    t.add("portability.diff", diff_s);
                }
            }
            match &first {
                None => {
                    let expected = match &report {
                        Pass::One(r) => r.lint_count(),
                        Pass::Grid(g) => {
                            let records = g.lint_records(&lopts);
                            port_records = records
                                .iter()
                                .filter(|r| r.code.starts_with("portability-"))
                                .count();
                            records.len()
                        }
                    };
                    first = Some((rendered, expected));
                }
                Some((r0, _)) if *r0 != rendered => {
                    out.fail(format!("pass {id}: output differs from pass 0"));
                }
                Some(_) => {}
            }
        }
        let (rendered, expected) = first.expect("at least one pass ran");
        check_json(&rendered, expected, &mut out);
        if !self.profiles.is_empty() && port_records == 0 {
            out.fail("profile matrix yielded no portability-* records".to_string());
        }

        let p = passes as f64;
        out.count("passes", passes);
        out.count("timed_passes", tok_rates.len() as u64);
        out.count("operations", ops);
        out.e2e
            .set("tokens_per_cpu_s", median(&tok_per_cpu), "tok/s");
        out.e2e.set("op_cpu_p50_ms", median(&pass_cpu_ms), "ms");
        out.wall("tokens_per_s", median(&tok_rates), "tok/s");
        out.wall("unit_p50_ms", median(&p50s), "ms");
        out.wall("unit_p95_ms", median(&p95s), "ms");

        if tracer.on() {
            let (lint_s, slice_s) = replay(corpus, &self.profiles, &lopts, tracer);
            let busy = (t.get("lexer.busy") + t.get("cpp.busy") + t.get("fmlr.busy")) / p
                + lint_s
                + slice_s;
            let l = &mut out.layers;
            set_run_layers(l, &t, p);
            l.set("analyze.lint_busy_s", lint_s, "s");
            l.set(
                "analyze.portability_busy_s",
                slice_s + t.get("portability.diff") / p,
                "s",
            );
            l.set("analyze.portability_records", port_records as f64, "count");
            l.set("corpus.run_s", t.get("corpus.run") / p, "s");
            l.set(
                "corpus.overhead_s",
                (t.get("pass.wall") - t.get("cli.render")) / p - busy / JOBS as f64,
                "s",
            );
            l.set(
                "corpus.worker_busy_share",
                ratio(busy, JOBS as f64 * t.get("corpus.run") / p),
                "ratio",
            );
            l.set(
                "cli.render_s",
                (t.get("cli.render") - t.get("portability.diff")) / p,
                "s",
            );
            l.set("cli.output_bytes", t.get("cli.output_bytes") / p, "bytes");
        }

        let profiles = if self.profiles.is_empty() {
            vec![Profile::default()]
        } else {
            self.profiles.clone()
        };
        let g = tracer.time("check.gcc", 0, || {
            gcc::check(corpus, &profiles, self.gcc_cases, seed, workdir)
        });
        out.attempted += g.attempted;
        out.count("gcc_triples", g.attempted);
        out.count("gcc_poisoned", g.poisoned);
        for m in g.mismatches {
            out.fail(format!("gcc check: {m}"));
        }
        out
    }
}

/// One pass's report: a single-profile run or a profile grid.
enum Pass {
    One(Box<CorpusReport>),
    Grid(ProfilesReport),
}

impl Pass {
    fn runs(&self) -> &[CorpusReport] {
        match self {
            Pass::One(r) => std::slice::from_ref(&**r),
            Pass::Grid(g) => &g.runs,
        }
    }
}

/// Sums the counters one corpus run reports.
pub(crate) fn add_run_totals(t: &mut Totals, run: &CorpusReport) {
    for u in &run.units {
        t.add("lexer.busy", u.phase_nanos[0] as f64 / 1e9);
        t.add("cpp.busy", u.phase_nanos[1] as f64 / 1e9);
        t.add("fmlr.busy", u.phase_nanos[2] as f64 / 1e9);
        if !u.memo_hit {
            t.add("corpus.units_recomputed", 1.0);
        }
    }
    add_stats(t, &run.pp, &run.parse);
    t.add("cpp.files_rehashed", run.files_rehashed as f64);
    if let Some(b) = &run.bdd {
        add_bdd(t, b);
        t.add("bdd.nodes", b.nodes as f64);
    }
    t.add("analyze.lints", run.lint_count() as f64);
    t.add("corpus.memo_hits", run.unit_memo_hits as f64);
    t.add("corpus.memo_misses", run.unit_memo_misses as f64);
}

/// Sums one set of preprocessor and parser counters: a run's merged
/// counters or one unit's.
pub(crate) fn add_stats(t: &mut Totals, pp: &PpStats, ps: &ParseStats) {
    t.add("lexer.bytes", pp.bytes_processed as f64);
    t.add("cpp.output_tokens", pp.output_tokens as f64);
    t.add("cpp.condexpr_hits", pp.condexpr_memo_hits as f64);
    t.add("cpp.condexpr_misses", pp.condexpr_memo_misses as f64);
    t.add("cpp.fused_tokens", pp.fused_tokens as f64);
    t.add("cpp.l2_hits", pp.shared_cache_hits as f64);
    t.add("cpp.l2_misses", pp.shared_cache_misses as f64);
    t.add("fmlr.forks", ps.forks as f64);
    t.add("fmlr.merges", ps.merges as f64);
    t.add("fmlr.merge_probes", ps.merge_probes as f64);
    t.add("fmlr.fastpath_tokens", ps.fastpath_tokens as f64);
    t.add("fmlr.shifts", ps.shifts as f64);
    t.max("fmlr.peak_subparsers", ps.max_subparsers as f64);
}

/// Sums a BDD manager's work counters.
pub(crate) fn add_bdd(t: &mut Totals, b: &BddStats) {
    t.add("bdd.apply_calls", b.apply_calls as f64);
    t.add("bdd.cache_hits", b.cache_hits as f64);
    t.add("bdd.cache_misses", b.cache_misses as f64);
}

/// The per-layer metrics that come straight from corpus counters,
/// averaged over `n` passes or requests.
pub(crate) fn set_run_layers(l: &mut crate::measure::Metrics, t: &Totals, n: f64) {
    l.set("lexer.busy_s", t.get("lexer.busy") / n, "s");
    l.set("lexer.bytes", t.get("lexer.bytes") / n, "bytes");
    l.set("cpp.busy_s", t.get("cpp.busy") / n, "s");
    l.set("cpp.output_tokens", t.get("cpp.output_tokens") / n, "count");
    let (h, m) = (t.get("cpp.condexpr_hits"), t.get("cpp.condexpr_misses"));
    l.set("cpp.condexpr_memo_hit_rate", ratio(h, h + m), "ratio");
    l.set(
        "cpp.fused_share",
        ratio(t.get("cpp.fused_tokens"), t.get("cpp.output_tokens")),
        "ratio",
    );
    let (h, m) = (t.get("cpp.l2_hits"), t.get("cpp.l2_misses"));
    l.set("cpp.l2_hit_rate", ratio(h, h + m), "ratio");
    l.set(
        "cpp.files_rehashed",
        t.get("cpp.files_rehashed") / n,
        "count",
    );
    l.set("bdd.apply_calls", t.get("bdd.apply_calls") / n, "count");
    let (h, m) = (t.get("bdd.cache_hits"), t.get("bdd.cache_misses"));
    l.set("bdd.cache_hit_rate", ratio(h, h + m), "ratio");
    l.set("bdd.nodes", t.get("bdd.nodes") / n, "count");
    l.set("fmlr.busy_s", t.get("fmlr.busy") / n, "s");
    l.set(
        "fmlr.fastpath_share",
        ratio(t.get("fmlr.fastpath_tokens"), t.get("fmlr.shifts")),
        "ratio",
    );
    l.set("fmlr.forks", t.get("fmlr.forks") / n, "count");
    l.set("fmlr.merges", t.get("fmlr.merges") / n, "count");
    l.set(
        "fmlr.merge_hit_rate",
        ratio(t.get("fmlr.merges"), t.get("fmlr.merge_probes")),
        "ratio",
    );
    l.set(
        "fmlr.peak_subparsers",
        t.get("fmlr.peak_subparsers"),
        "count",
    );
    l.set("analyze.lints", t.get("analyze.lints") / n, "count");
    let (h, m) = (t.get("corpus.memo_hits"), t.get("corpus.memo_misses"));
    l.set("corpus.memo_hit_rate", ratio(h, h + m), "ratio");
    l.set(
        "corpus.units_recomputed",
        t.get("corpus.units_recomputed") / n,
        "count",
    );
}

/// Times `diff_profiles` over every unit's per-profile slices, the part
/// of `render_lint_profiles` that belongs to `analyze::portability`.
fn time_diffs(g: &ProfilesReport, lopts: &LintOptions, tracer: &mut Tracer, id: u64) -> f64 {
    let t0 = Instant::now();
    tracer.time("analyze.diff_profiles", id, || {
        let ctx = CondCtx::new(CondBackend::Bdd);
        for u in 0..g.runs[0].units.len() {
            let slices: Vec<_> = g
                .runs
                .iter()
                .map(|r| r.units[u].portability.clone())
                .collect();
            std::hint::black_box(diff_profiles(&g.profiles, &slices, lopts, &ctx));
        }
    });
    t0.elapsed().as_secs_f64()
}

/// Replays one pass's units on one thread per profile, timing the lint
/// and portability-slice calls the corpus workers make inside each unit
/// (their time is not in `phase_nanos`). Returns `(lint_s, slice_s)`.
fn replay(
    corpus: &Corpus,
    profiles: &[Profile],
    lopts: &LintOptions,
    tracer: &mut Tracer,
) -> (f64, f64) {
    let single = [Profile::default()];
    let grid = !profiles.is_empty();
    let profiles = if grid { profiles } else { &single };
    let (mut lint_s, mut slice_s) = (0.0, 0.0);
    for p in profiles {
        let options = Options {
            pp: PpOptions {
                profile: p.clone(),
                ..PpOptions::default()
            },
            ..Options::default()
        };
        let mut tool = SuperC::new(options, &corpus.fs);
        for unit in &corpus.units {
            let Ok(processed) = tracer.time("superc.process", REPLAY_ID, || tool.process(unit))
            else {
                continue;
            };
            let t0 = Instant::now();
            tracer.time("analyze.lint", REPLAY_ID, || {
                std::hint::black_box(tool.lint(&processed, lopts))
            });
            lint_s += t0.elapsed().as_secs_f64();
            if grid {
                let t0 = Instant::now();
                tracer.time("analyze.portability_slice", REPLAY_ID, || {
                    std::hint::black_box(tool.portability_slice(&processed))
                });
                slice_s += t0.elapsed().as_secs_f64();
            }
        }
    }
    (lint_s, slice_s)
}

/// The rendered JSON parses and carries exactly the expected records.
fn check_json(rendered: &Rendered, expected: usize, out: &mut Outcome) {
    let parsed = match Json::parse(&rendered.stdout) {
        Ok(j) => j,
        Err(e) => return out.fail(format!("lint output is not JSON: {e}")),
    };
    let listed = parsed
        .get("diagnostics")
        .and_then(Json::as_array)
        .map(<[Json]>::len);
    let count = parsed.get("count").and_then(Json::as_f64);
    if listed != Some(expected) || count != Some(expected as f64) {
        out.fail(format!(
            "lint output lists {listed:?} records (count {count:?}), expected {expected}"
        ));
    }
}
