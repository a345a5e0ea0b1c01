//! Reproducible performance snapshot for regression tracking.
//!
//! Runs the standard corpora through the full pipeline and reports
//! tokens/sec, peak live subparsers, and BDD node/cache counters.
//! With `--json`, writes the snapshot to `BENCH_fmlr.json` at the repo
//! root so successive PRs can diff the perf trajectory
//! (`scripts/bench.sh` wraps this).
//!
//! ```text
//! cargo run --release -p superc-bench --bin bench_snapshot -- --json
//! ```
//!
//! Flags: `--json` (write the snapshot file), `--out <path>` (override
//! the output path), `--reps <n>` (timing repetitions, default 3; the
//! fastest rep is reported to damp scheduler noise), `--warmup <n>`
//! (untimed passes per measured configuration before its timed reps,
//! default 1 — warms the shared caches and worker pools the way a
//! long-running corpus process would be warm).
//!
//! Paired workloads (`full`/`full_par`, `fig9`/`fig9_governed`/
//! `fig9_par`, the `kernel` jobs ladder) **interleave** their reps:
//! machine-load drift over the run hits every side of a comparison
//! equally, so the ratios `scripts/bench.sh` gates on measure the code,
//! not the weather.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use superc::analyze::LintOptions;
use superc::bdd::BddStats;
use superc::counters::{project, Class};
use superc::report::TextTable;
use superc::{
    Budgets, CondBackend, CorpusOptions, CorpusReport, CorpusRunner, MemFs, Options, ParseStats,
    ParserConfig, PpStats, Profile, ProfilesReport, SuperC,
};
use superc_bench::{
    condfree_corpus, fig9_corpus, full_corpus, full_headers_corpus, kernel_corpus, pp_options,
    process_corpus_parallel_opts, process_corpus_with_tool, profiles_corpus, warm_up,
};
use superc_kernelgen::Corpus;

/// One measured workload.
struct Snapshot {
    name: &'static str,
    /// Worker threads used (1 = the sequential driver).
    jobs: usize,
    units: usize,
    bytes: u64,
    tokens: u64,
    seconds: f64,
    peak_live: usize,
    parse: ParseStats,
    bdd: BddStats,
    /// Merged preprocessor counters (shared-cache and memo hits live
    /// here; see `PpStats` for which of these are schedule-dependent).
    pp: PpStats,
    /// Units replayed from the pooled runner's result memo (nonzero only
    /// for the warm `fig_incremental` leg).
    unit_memo_hits: u64,
    /// Units that consulted the memo and recomputed.
    unit_memo_misses: u64,
    /// Files content-hashed during the run (hash-memo misses).
    files_rehashed: u64,
}

impl Snapshot {
    fn tokens_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.tokens as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// The work two runs of the same corpus must agree on: the unit
    /// count and the counters of the `keep` classes — output tokens,
    /// bytes and peak live subparsers among them.
    fn work(&self, keep: &[Class]) -> (usize, PpStats, ParseStats) {
        (
            self.units,
            project(&self.pp, keep),
            project(&self.parse, keep),
        )
    }

    /// Shared-cache hit rate over L2 probes (0 when the cache was off or
    /// never probed).
    fn shared_cache_hit_rate(&self) -> f64 {
        let probes = self.pp.shared_cache_hits + self.pp.shared_cache_misses;
        if probes > 0 {
            self.pp.shared_cache_hits as f64 / probes as f64
        } else {
            0.0
        }
    }
}

fn options() -> Options {
    Options {
        backend: CondBackend::Bdd,
        parser: ParserConfig::full(),
        pp: pp_options(),
        budgets: Budgets::unlimited(),
    }
}

/// [`options`] with the deterministic fast path and fused lexing off —
/// the `--no-fastpath` configuration. The `fig9_condfree` /
/// `fig9_condfree_nofp` pair measures the fast path's speedup on a
/// conditional-free workload (`scripts/bench.sh` gates it at
/// FASTPATH_MIN).
fn nofastpath_options() -> Options {
    let mut o = options();
    o.parser.fastpath = false;
    o.pp.fuse_lexing = false;
    o
}

/// [`options`] with every resource budget armed but set far above
/// anything the corpus reaches, so no budget trips and the measured
/// delta against the ungoverned workload is the pure bookkeeping cost
/// of the governed path (`scripts/bench.sh` gates it at a few percent).
fn governed_options() -> Options {
    Options {
        budgets: Budgets {
            max_subparsers: 1 << 20,
            max_forks: 1 << 40,
            max_steps: 1 << 40,
            max_cond_nodes: 1 << 40,
            max_millis: 600_000,
            max_include_depth: 200,
            hoist_cap: 4096,
        },
        ..options()
    }
}

/// Times `reps` fresh runs over `corpus`, keeping the fastest.
fn measure(name: &'static str, corpus: &Corpus, reps: usize, opts: &Options) -> Snapshot {
    let mut best: Option<Snapshot> = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let (units, sc) = process_corpus_with_tool(corpus, opts.clone());
        let seconds = start.elapsed().as_secs_f64();

        let mut parse = ParseStats::default();
        let mut pp = PpStats::default();
        let mut tokens = 0u64;
        let mut bytes = 0u64;
        let mut peak_live = 0usize;
        for u in &units {
            parse.merge(&u.result.stats);
            pp.merge(&u.unit.stats);
            tokens += u.unit.stats.output_tokens;
            bytes += u.bytes;
            peak_live = peak_live.max(u.result.stats.max_subparsers);
        }
        let bdd = sc.ctx().bdd_stats().unwrap_or_default();
        let snap = Snapshot {
            name,
            jobs: 1,
            units: units.len(),
            bytes,
            tokens,
            seconds,
            peak_live,
            parse,
            bdd,
            pp,
            unit_memo_hits: 0,
            unit_memo_misses: 0,
            files_rehashed: 0,
        };
        match &best {
            Some(b) if b.seconds <= snap.seconds => {}
            _ => best = Some(snap),
        }
    }
    best.expect("at least one rep")
}

/// Times the lint pass alone: each unit is preprocessed and parsed
/// *untimed*, then `SuperC::lint` is timed, so `tokens_per_sec` is
/// preprocessed tokens linted per second. This keeps the analysis
/// layer's cost on the perf trajectory separately from the parser's.
fn measure_lint(name: &'static str, corpus: &Corpus, reps: usize) -> Snapshot {
    let lopts = LintOptions::default();
    let mut best: Option<Snapshot> = None;
    for _ in 0..reps.max(1) {
        let mut sc = SuperC::new(options(), corpus.fs.clone());
        let mut seconds = 0.0;
        let mut parse = ParseStats::default();
        let mut pp = PpStats::default();
        let mut tokens = 0u64;
        let mut bytes = 0u64;
        let mut peak_live = 0usize;
        for u in &corpus.units {
            let p = match sc.process(u) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{u}: skipped (fatal: {e})");
                    continue;
                }
            };
            let start = Instant::now();
            let diags = sc.lint(&p, &lopts);
            seconds += start.elapsed().as_secs_f64();
            std::hint::black_box(diags);
            parse.merge(&p.result.stats);
            pp.merge(&p.unit.stats);
            tokens += p.unit.stats.output_tokens;
            bytes += p.bytes;
            peak_live = peak_live.max(p.result.stats.max_subparsers);
        }
        let bdd = sc.ctx().bdd_stats().unwrap_or_default();
        let snap = Snapshot {
            name,
            jobs: 1,
            units: corpus.units.len(),
            bytes,
            tokens,
            seconds,
            peak_live,
            parse,
            bdd,
            pp,
            unit_memo_hits: 0,
            unit_memo_misses: 0,
            files_rehashed: 0,
        };
        match &best {
            Some(b) if b.seconds <= snap.seconds => {}
            _ => best = Some(snap),
        }
    }
    best.expect("at least one rep")
}

/// Reduces a corpus-driver report to a [`Snapshot`] row.
fn report_snapshot(name: &'static str, report: CorpusReport) -> Snapshot {
    let peak_live = report
        .units
        .iter()
        .map(|u| u.parse.max_subparsers)
        .max()
        .unwrap_or(0);
    let bytes = report.units.iter().map(|u| u.bytes).sum();
    Snapshot {
        name,
        jobs: report.workers,
        units: report.units.len(),
        bytes,
        tokens: report.pp.output_tokens,
        seconds: report.wall.as_secs_f64(),
        peak_live,
        parse: report.parse.clone(),
        bdd: report.bdd.unwrap_or_default(),
        unit_memo_hits: report.unit_memo_hits,
        unit_memo_misses: report.unit_memo_misses,
        files_rehashed: report.files_rehashed,
        pp: report.pp,
    }
}

/// Times `reps` runs of the parallel corpus driver, keeping the fastest.
fn measure_parallel(
    name: &'static str,
    corpus: &Corpus,
    reps: usize,
    jobs: usize,
    no_shared_cache: bool,
) -> Snapshot {
    let mut best: Option<Snapshot> = None;
    for _ in 0..reps.max(1) {
        let report = process_corpus_parallel_opts(corpus, options(), jobs, no_shared_cache);
        let snap = report_snapshot(name, report);
        match &best {
            Some(b) if b.seconds <= snap.seconds => {}
            _ => best = Some(snap),
        }
    }
    best.expect("at least one rep")
}

/// Runs the cross-profile corpus driver once: every unit analyzed under
/// every profile, portability slices extracted and diffed, lints on.
fn run_profiles(corpus: &Corpus, profiles: &[Profile], jobs: usize) -> ProfilesReport {
    let copts = CorpusOptions {
        jobs,
        lint: Some(LintOptions::default()),
        ..CorpusOptions::default()
    };
    superc::process_corpus_profiles(&corpus.fs, &corpus.units, &options(), profiles, &copts)
}

/// Reduces a cross-profile report to one [`Snapshot`] row: counters are
/// summed over the per-profile runs (a P-profile row does P× the units
/// and tokens of its single-profile partner), `seconds` is the matrix
/// wall clock — the quantity `scripts/bench.sh` gates at PROFILES_MAX.
fn profiles_snapshot(name: &'static str, report: ProfilesReport) -> Snapshot {
    let mut parse = ParseStats::default();
    let mut pp = PpStats::default();
    let mut tokens = 0u64;
    let mut bytes = 0u64;
    let mut units = 0usize;
    let mut peak_live = 0usize;
    for run in &report.runs {
        parse.merge(&run.parse);
        pp.merge(&run.pp);
        tokens += run.pp.output_tokens;
        units += run.units.len();
        for u in &run.units {
            bytes += u.bytes;
            peak_live = peak_live.max(u.parse.max_subparsers);
        }
    }
    // Cross-profile runs report the condition-system gauges on the first
    // profile's run (see `superc::corpus`).
    let bdd = report.runs[0].bdd.unwrap_or_default();
    Snapshot {
        name,
        jobs: report.workers,
        units,
        bytes,
        tokens,
        seconds: report.wall.as_secs_f64(),
        peak_live,
        parse,
        bdd,
        pp,
        unit_memo_hits: report.runs[0].unit_memo_hits,
        unit_memo_misses: report.runs[0].unit_memo_misses,
        files_rehashed: report.runs[0].files_rehashed,
    }
}

/// The `kernel` workload's jobs ladder: one row per rung.
const KERNEL_LADDER: &[(usize, &str)] = &[
    (1, "kernel_j1"),
    (2, "kernel_j2"),
    (4, "kernel_j4"),
    (8, "kernel_j8"),
];

/// The kernel-scale scaling benchmark: one **pooled** [`CorpusRunner`]
/// per ladder rung, spawned (and optionally warmed) before timing, then
/// `reps` interleaved passes — rung 1, 2, 4, 8, rung 1, 2, 4, 8, … — so
/// load drift cancels out of the speedup ratios `scripts/bench.sh`
/// computes from these rows. The jobs=1 rung goes through the same
/// pooled driver, so the ladder baseline carries the same scheduling
/// cost as the parallel rungs.
fn measure_kernel_ladder(corpus: &Corpus, reps: usize, warmup: usize) -> Vec<Snapshot> {
    let fs = Arc::new(corpus.fs.clone());
    let copts = CorpusOptions::default();
    let mut pools: Vec<(CorpusRunner<MemFs>, &'static str)> = KERNEL_LADDER
        .iter()
        .map(|&(jobs, name)| (CorpusRunner::new(&options(), fs.clone(), jobs), name))
        .collect();
    for (pool, _) in &mut pools {
        for _ in 0..warmup {
            std::hint::black_box(pool.run(&corpus.units, &copts));
        }
    }
    let mut best: Vec<Option<Snapshot>> = (0..pools.len()).map(|_| None).collect();
    for _ in 0..reps.max(1) {
        for (i, (pool, name)) in pools.iter_mut().enumerate() {
            let snap = report_snapshot(name, pool.run(&corpus.units, &copts));
            if best[i].as_ref().is_none_or(|b| snap.seconds < b.seconds) {
                best[i] = Some(snap);
            }
        }
    }
    best.into_iter()
        .map(|b| b.expect("at least one rep"))
        .collect()
}

/// The incremental warm re-run pair (`fig_incremental_cold` /
/// `fig_incremental`): one pooled runner over a **mutable** copy of the
/// kernel-scale tree. Each rep edits ~1% of the units (spread across
/// the corpus, contents varying per rep), then runs a cold batch (full
/// recompute; the unit result memo off) and a warm batch (memo on) over
/// the *identical* tree, interleaved like every other gated pair.
///
/// Two invariants are asserted per rep: warm output is byte-identical
/// to cold over the same tree (the memo may only change who computes a
/// report, never the report), and every untouched unit replays from the
/// memo (the include-closure fingerprints actually discriminate).
/// `scripts/bench.sh` gates the pair's throughput ratio at WARM_MIN.
fn measure_incremental(corpus: &Corpus, reps: usize, jobs: usize) -> (Snapshot, Snapshot) {
    use superc::service::DriverFs;
    use superc::FileSystem;
    let fs = Arc::new(DriverFs::new());
    for (path, contents) in corpus.fs.iter() {
        fs.set(path, contents);
    }
    let mut pool: CorpusRunner<DriverFs> = CorpusRunner::new(&options(), fs.clone(), jobs);
    let cold_opts = CorpusOptions::default();
    let warm_opts = CorpusOptions {
        warm: true,
        ..CorpusOptions::default()
    };
    let n = corpus.units.len();
    let edited = n.div_ceil(100);
    // Fill the memo before timing, like the other pools' warmup passes.
    std::hint::black_box(pool.run(&corpus.units, &warm_opts));
    let mut best_cold: Option<Snapshot> = None;
    let mut best_warm: Option<Snapshot> = None;
    for r in 0..reps.max(1) {
        for i in 0..edited {
            let path = &corpus.units[i * n / edited];
            let orig = corpus.fs.read(path).expect("unit exists");
            fs.set(path, &format!("{orig}\nint warm_probe_{r}_{i};\n"));
        }
        let cold = pool.run(&corpus.units, &cold_opts);
        let warm = pool.run(&corpus.units, &warm_opts);
        assert_eq!(
            cold.behavior_counters(),
            warm.behavior_counters(),
            "fig_incremental: warm output drifted from cold over the same tree"
        );
        assert_eq!(
            warm.unit_memo_hits,
            (n - edited) as u64,
            "fig_incremental: every untouched unit must replay from the memo"
        );
        assert_eq!(
            warm.unit_memo_misses, edited as u64,
            "fig_incremental: exactly the edited units recompute"
        );
        let c = report_snapshot("fig_incremental_cold", cold);
        if best_cold.as_ref().is_none_or(|b| c.seconds < b.seconds) {
            best_cold = Some(c);
        }
        let w = report_snapshot("fig_incremental", warm);
        if best_warm.as_ref().is_none_or(|b| w.seconds < b.seconds) {
            best_warm = Some(w);
        }
    }
    (
        best_cold.expect("at least one rep"),
        best_warm.expect("at least one rep"),
    )
}

/// The daemon pair (`fig_daemon_cold` / `fig_daemon`): a long-running
/// [`superc::service::Driver`] — the engine behind `superc daemon` and
/// the C API — populated once with the kernel-scale tree, then serving
/// parse requests across edit generations. Each rep stages ~1% of the
/// units through the driver's edit protocol (begin/set_file/end), then
/// interleaves a fresh one-shot run over the driver's own tree (what a
/// cold CLI invocation would do) with a driver-served request, like
/// every other gated pair.
///
/// The same two invariants as `fig_incremental` are asserted per rep —
/// the served report is behavior-identical to the fresh run, and
/// exactly the edited units recompute — plus the service layer's own
/// overhead (overlay reads, generation bookkeeping) is what separates
/// this pair from that one. `scripts/bench.sh` gates the throughput
/// ratio at DAEMON_MIN.
fn measure_daemon(corpus: &Corpus, reps: usize, jobs: usize) -> (Snapshot, Snapshot) {
    use superc::corpus::process_corpus;
    use superc::service::Driver;
    use superc::FileSystem;
    let mut driver = Driver::new(options(), jobs);
    for (path, contents) in corpus.fs.iter() {
        driver
            .set_file(path, contents)
            .expect("generation 1 is open for population");
    }
    driver.end_generation().expect("commit the populated tree");
    let cold_opts = CorpusOptions {
        jobs,
        ..CorpusOptions::default()
    };
    let n = corpus.units.len();
    let edited = n.div_ceil(100);
    // Fill the driver's memo before timing, like the other pools'
    // warmup passes.
    std::hint::black_box(driver.parse(&corpus.units).expect("fill request"));
    let mut best_cold: Option<Snapshot> = None;
    let mut best_warm: Option<Snapshot> = None;
    for r in 0..reps.max(1) {
        driver.begin_generation().expect("no request in flight");
        for i in 0..edited {
            let path = &corpus.units[i * n / edited];
            let orig = corpus.fs.read(path).expect("unit exists");
            driver
                .set_file(path, &format!("{orig}\nint daemon_probe_{r}_{i};\n"))
                .expect("generation is open");
        }
        driver.end_generation().expect("commit the edit batch");
        let fresh_fs = Arc::clone(driver.fs());
        let cold = process_corpus(fresh_fs.as_ref(), &corpus.units, &options(), &cold_opts);
        let warm = driver.parse(&corpus.units).expect("parse request");
        assert_eq!(
            cold.behavior_counters(),
            warm.behavior_counters(),
            "fig_daemon: the served report drifted from a fresh run over the same tree"
        );
        assert_eq!(
            warm.unit_memo_hits,
            (n - edited) as u64,
            "fig_daemon: every untouched unit must replay from the memo"
        );
        assert_eq!(
            warm.unit_memo_misses, edited as u64,
            "fig_daemon: exactly the edited units recompute"
        );
        let c = report_snapshot("fig_daemon_cold", cold);
        if best_cold.as_ref().is_none_or(|b| c.seconds < b.seconds) {
            best_cold = Some(c);
        }
        let w = report_snapshot("fig_daemon", warm);
        if best_warm.as_ref().is_none_or(|b| w.seconds < b.seconds) {
            best_warm = Some(w);
        }
    }
    (
        best_cold.expect("at least one rep"),
        best_warm.expect("at least one rep"),
    )
}

/// Minimal JSON encoding — flat structure, numeric leaves only, so no
/// escaping machinery is needed.
fn to_json(snaps: &[Snapshot], setup_millis: u64) -> String {
    let mut s = String::from("{\n  \"workloads\": [\n");
    for (i, w) in snaps.iter().enumerate() {
        let _ = write!(
            s,
            concat!(
                "    {{\"name\": \"{}\", \"jobs\": {}, \"units\": {}, \"bytes\": {}, ",
                "\"tokens\": {}, \"seconds\": {:.6}, \"tokens_per_sec\": {:.1}, ",
                "\"peak_live_subparsers\": {}, \"forks\": {}, \"merges\": {}, ",
                "\"merge_probes\": {}, \"choice_nodes\": {}, ",
                "\"bdd_nodes\": {}, \"bdd_variables\": {}, \"bdd_apply_calls\": {}, ",
                "\"bdd_cache_hits\": {}, \"bdd_cache_misses\": {}, ",
                "\"bdd_cache_hit_rate\": {:.4}, ",
                "\"shared_cache_hits\": {}, \"shared_cache_misses\": {}, ",
                "\"shared_cache_hit_rate\": {:.4}, \"lex_nanos_saved\": {}, ",
                "\"condexpr_memo_hits\": {}, \"expansion_memo_hits\": {}, ",
                "\"fastpath_tokens\": {}, \"fused_tokens\": {}, ",
                "\"unit_memo_hits\": {}, \"unit_memo_misses\": {}, ",
                "\"files_rehashed\": {}}}"
            ),
            w.name,
            w.jobs,
            w.units,
            w.bytes,
            w.tokens,
            w.seconds,
            w.tokens_per_sec(),
            w.peak_live,
            w.parse.forks,
            w.parse.merges,
            w.parse.merge_probes,
            w.parse.choice_nodes,
            w.bdd.nodes,
            w.bdd.variables,
            w.bdd.apply_calls,
            w.bdd.cache_hits,
            w.bdd.cache_misses,
            w.bdd.cache_hit_rate(),
            w.pp.shared_cache_hits,
            w.pp.shared_cache_misses,
            w.shared_cache_hit_rate(),
            w.pp.lex_nanos_saved,
            w.pp.condexpr_memo_hits,
            w.pp.expansion_memo_hits,
            w.parse.fastpath_tokens,
            w.pp.fused_tokens,
            w.unit_memo_hits,
            w.unit_memo_misses,
            w.files_rehashed,
        );
        s.push_str(if i + 1 < snaps.len() { ",\n" } else { "\n" });
    }
    // Per-class aggregates: blending the sequential and parallel
    // workloads into one number (the old `total_tokens_per_sec`) let a
    // sequential regression hide behind a parallel win and vice versa.
    let class_rate = |par: bool| -> f64 {
        let rows = snaps.iter().filter(|w| (w.jobs > 1) == par);
        let tokens: u64 = rows.clone().map(|w| w.tokens).sum();
        let seconds: f64 = rows.map(|w| w.seconds).sum();
        if seconds > 0.0 {
            tokens as f64 / seconds
        } else {
            0.0
        }
    };
    // The machine's core count goes into the snapshot so a reader (and
    // `scripts/bench.sh`'s scaling gates) can judge the parallel rows:
    // a jobs ladder measured on one core *should* show no speedup.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let _ = write!(
        s,
        "  ],\n  \"machine_cores\": {cores},\n  \
         \"seq_tokens_per_sec\": {:.1},\n  \"par_tokens_per_sec\": {:.1},\n  \
         \"setup_millis\": {setup_millis}\n}}\n",
        class_rate(false),
        class_rate(true),
    );
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut write_json = false;
    let mut out_path: Option<String> = None;
    let mut reps = 3usize;
    let mut warmup = 1usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => write_json = true,
            "--out" => out_path = it.next().cloned(),
            "--reps" => {
                reps = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => n,
                    _ => {
                        eprintln!("--reps takes a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--warmup" => {
                warmup = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("--warmup takes a non-negative integer");
                        std::process::exit(2);
                    }
                };
            }
            other => {
                eprintln!(
                    "unknown flag {other}; known: --json --out <path> --reps <n> --warmup <n>"
                );
                std::process::exit(2);
            }
        }
    }

    // Everything up to the first timed rep is setup: shared-artifact
    // construction (grammar tables, classification seed, context
    // tables), corpus generation, and the untimed warmup passes. It is
    // reported as `setup_millis` so the snapshot separates one-time cost
    // from steady-state throughput.
    let setup_start = Instant::now();
    warm_up();
    let full = full_corpus();
    let fig9 = fig9_corpus();
    let headers = full_headers_corpus();
    let kernel = kernel_corpus();
    let condfree = condfree_corpus();
    let prof_corpus = profiles_corpus();
    let profile_matrix = [
        Profile::gcc_linux(),
        Profile::clang_macos(),
        Profile::msvc_windows(),
    ];
    let profile_single = [Profile::gcc_linux()];
    // Parallel entries must actually exercise multi-worker scheduling:
    // clamp to at least 2 workers (oversubscribed on a 1-core machine is
    // fine — the determinism gate is about schedules, not speedup) and at
    // most 8 (`jobs` is recorded in the snapshot so the bench gate can
    // judge scaling per machine).
    let par_jobs = superc::corpus::default_jobs().clamp(2, 8);
    let headers_jobs = 8;
    for _ in 0..warmup {
        std::hint::black_box(measure("full", &full, 1, &options()));
        std::hint::black_box(measure("fig9", &fig9, 1, &options()));
        std::hint::black_box(measure_parallel(
            "full_headers",
            &headers,
            1,
            headers_jobs,
            false,
        ));
        std::hint::black_box(run_profiles(&prof_corpus, &profile_matrix, par_jobs));
    }
    let setup_millis = setup_start.elapsed().as_millis() as u64;

    // Every gated pair interleaves its reps (see the module docs): the
    // full/full_par pair here, fig9/fig9_governed/fig9_par below, the
    // kernel ladder inside `measure_kernel_ladder`, and the shared-cache
    // on/off pair after that.
    let mut full_seq: Option<Snapshot> = None;
    let mut full_par: Option<Snapshot> = None;
    for _ in 0..reps.max(1) {
        let s = measure("full", &full, 1, &options());
        if full_seq.as_ref().is_none_or(|b| s.seconds < b.seconds) {
            full_seq = Some(s);
        }
        let p = measure_parallel("full_par", &full, 1, par_jobs, false);
        if full_par.as_ref().is_none_or(|b| p.seconds < b.seconds) {
            full_par = Some(p);
        }
    }
    let full_seq = full_seq.expect("at least one rep");
    let full_par = full_par.expect("at least one rep");
    // fig9 vs fig9_governed (same corpus, budgets armed-but-untripped)
    // isolates the cost of the governance checks; `scripts/bench.sh`
    // gates the pair at a few percent. A fig9 rep is tens of
    // milliseconds, so min-of-`reps` is noisy at the few-percent level
    // the gate cares about; the trio gets extra reps (still cheap in
    // absolute time).
    let pair_reps = (2 * reps).max(12);
    let mut fig9_seq: Option<Snapshot> = None;
    let mut fig9_governed: Option<Snapshot> = None;
    let mut fig9_par: Option<Snapshot> = None;
    for _ in 0..pair_reps {
        let s = measure("fig9", &fig9, 1, &options());
        if fig9_seq.as_ref().is_none_or(|b| s.seconds < b.seconds) {
            fig9_seq = Some(s);
        }
        let g = measure("fig9_governed", &fig9, 1, &governed_options());
        if fig9_governed.as_ref().is_none_or(|b| g.seconds < b.seconds) {
            fig9_governed = Some(g);
        }
        let p = measure_parallel("fig9_par", &fig9, 1, par_jobs, false);
        if fig9_par.as_ref().is_none_or(|b| p.seconds < b.seconds) {
            fig9_par = Some(p);
        }
    }
    let fig9_seq = fig9_seq.expect("at least one rep");
    let fig9_governed = fig9_governed.expect("at least one rep");
    let fig9_par = fig9_par.expect("at least one rep");
    let fig9_lint = measure_lint("fig9_lint", &fig9, reps);
    // Conditional-free pair: fastpath on vs off over the same corpus,
    // interleaved like the other gated pairs. The ratio is the fast
    // path's whole value proposition, so `scripts/bench.sh` gates it
    // (FASTPATH_MIN).
    let mut condfree_on: Option<Snapshot> = None;
    let mut condfree_off: Option<Snapshot> = None;
    for _ in 0..pair_reps {
        let on = measure("fig9_condfree", &condfree, 1, &options());
        if condfree_on.as_ref().is_none_or(|b| on.seconds < b.seconds) {
            condfree_on = Some(on);
        }
        let off = measure("fig9_condfree_nofp", &condfree, 1, &nofastpath_options());
        if condfree_off
            .as_ref()
            .is_none_or(|b| off.seconds < b.seconds)
        {
            condfree_off = Some(off);
        }
    }
    let condfree_on = condfree_on.expect("at least one rep");
    let condfree_off = condfree_off.expect("at least one rep");
    // Cross-profile matrix pair: the same corpus analyzed under three
    // profiles vs one, interleaved like every other gated pair. The
    // shared pre-expansion cache amortizes lexing across the matrix, so
    // `scripts/bench.sh` gates the wall-clock ratio at PROFILES_MAX —
    // well under the naive 3x. The gcc-linux run inside the matrix must
    // be behavior-identical to the single-profile run: cross-profile
    // scheduling may change who does the work, never what any profile
    // sees.
    let mut prof_matrix: Option<Snapshot> = None;
    let mut prof_single: Option<Snapshot> = None;
    for _ in 0..reps.max(1) {
        let r3 = run_profiles(&prof_corpus, &profile_matrix, par_jobs);
        let r1 = run_profiles(&prof_corpus, &profile_single, par_jobs);
        assert_eq!(
            r3.runs[0].behavior_counters(),
            r1.runs[0].behavior_counters(),
            "fig9_profiles: gcc-linux run drifted between the 3-profile \
             matrix and the single-profile run"
        );
        let s3 = profiles_snapshot("fig9_profiles", r3);
        if prof_matrix.as_ref().is_none_or(|b| s3.seconds < b.seconds) {
            prof_matrix = Some(s3);
        }
        let s1 = profiles_snapshot("fig9_profiles1", r1);
        if prof_single.as_ref().is_none_or(|b| s1.seconds < b.seconds) {
            prof_single = Some(s1);
        }
    }
    let prof_matrix = prof_matrix.expect("at least one rep");
    let prof_single = prof_single.expect("at least one rep");
    // The kernel-scale jobs ladder over pooled workers.
    let kernel_snaps = measure_kernel_ladder(&kernel, reps, warmup);
    // The incremental warm re-run pair over the same kernel-scale tree.
    let (incr_cold, incr_warm) = measure_incremental(&kernel, reps, par_jobs);
    // The daemon/service pair: the same tree served by a long-running
    // Driver across edit generations vs fresh one-shot runs.
    let (daemon_cold, daemon_warm) = measure_daemon(&kernel, reps, par_jobs);
    // The shared-cache workload pair: identical header-dominated corpus,
    // cache on vs off, so the snapshot records the cache's speedup and
    // hit rate (`scripts/bench.sh` gates on both). Always 8 workers, even
    // oversubscribed: without the shared cache every worker re-lexes
    // every header, so the worker count *is* the redundancy being
    // measured, independent of core count.
    let mut headers_on: Option<Snapshot> = None;
    let mut headers_off: Option<Snapshot> = None;
    for _ in 0..reps.max(1) {
        let on = measure_parallel("full_headers", &headers, 1, headers_jobs, false);
        if headers_on.as_ref().is_none_or(|b| on.seconds < b.seconds) {
            headers_on = Some(on);
        }
        let off = measure_parallel("full_headers_nocache", &headers, 1, headers_jobs, true);
        if headers_off.as_ref().is_none_or(|b| off.seconds < b.seconds) {
            headers_off = Some(off);
        }
    }
    let headers_on = headers_on.expect("at least one rep");
    let headers_off = headers_off.expect("at least one rep");
    // The determinism gate: a parallel, governed or cached run must do
    // exactly the work of its partner — speedup may never come from
    // doing less. Only schedule gauges and timings may differ, plus, for
    // the fastpath on/off pair, the mode counters that define the fast
    // path (merge probes, fastpath gauges, fused tokens).
    let same_mode: &[Class] = &[Class::Behavior, Class::Mode];
    let pairs = [
        (&full_seq, &full_par, same_mode),
        (&fig9_seq, &fig9_par, same_mode),
        (&fig9_seq, &fig9_governed, same_mode),
        (&headers_off, &headers_on, same_mode),
        (&condfree_on, &condfree_off, &[Class::Behavior]),
    ];
    let rungs = kernel_snaps[1..]
        .iter()
        .map(|rung| (&kernel_snaps[0], rung, same_mode));
    for (a, b, keep) in pairs.into_iter().chain(rungs) {
        assert_eq!(
            a.work(keep),
            b.work(keep),
            "{} drifted from {}",
            b.name,
            a.name
        );
    }
    let mut snaps = vec![
        full_seq,
        fig9_seq,
        full_par,
        fig9_par,
        fig9_lint,
        fig9_governed,
        headers_on,
        headers_off,
        condfree_on,
        condfree_off,
        prof_matrix,
        prof_single,
        incr_cold,
        incr_warm,
        daemon_cold,
        daemon_warm,
    ];
    snaps.extend(kernel_snaps);

    let mut t = TextTable::new(&[
        "workload",
        "jobs",
        "units",
        "tokens",
        "tok/s",
        "peak live",
        "merges",
        "probes",
        "bdd nodes",
        "apply",
        "hit rate",
        "l2 hits",
        "l2 rate",
        "memo hits",
    ]);
    for w in &snaps {
        t.row(&[
            w.name.to_string(),
            w.jobs.to_string(),
            w.units.to_string(),
            w.tokens.to_string(),
            format!("{:.0}", w.tokens_per_sec()),
            w.peak_live.to_string(),
            w.parse.merges.to_string(),
            w.parse.merge_probes.to_string(),
            w.bdd.nodes.to_string(),
            w.bdd.apply_calls.to_string(),
            format!("{:.3}", w.bdd.cache_hit_rate()),
            w.pp.shared_cache_hits.to_string(),
            format!("{:.3}", w.shared_cache_hit_rate()),
            (w.pp.condexpr_memo_hits + w.pp.expansion_memo_hits).to_string(),
        ]);
    }
    print!("{}", t.render());

    if write_json || out_path.is_some() {
        let path = out_path
            .unwrap_or_else(|| format!("{}/../../BENCH_fmlr.json", env!("CARGO_MANIFEST_DIR")));
        let json = to_json(&snaps, setup_millis);
        std::fs::write(&path, json).expect("write snapshot");
        // Canonicalize purely for display; the write used the raw path.
        let shown = std::fs::canonicalize(&path)
            .map(|p| p.display().to_string())
            .unwrap_or(path);
        println!("wrote {shown}");
    }
}
