//! The parallel corpus driver must be a pure speedup: for any worker
//! count and any scheduling interleaving, per-unit results and merged
//! behavior counters are identical to the sequential run.
//!
//! The determinism surface deliberately excludes rendered conditions and
//! BDD/interner gauges — those depend on the order a worker's manager
//! first met each variable (see `superc::corpus` docs). What *is*
//! asserted byte-identical is every unit's comparison view
//! (`UnitReport::view`): configuration-restricted unparses of its
//! choice-node AST, errors, diagnostics, lint records, and its behavior
//! and mode counters.
//!
//! The matrix runs every jobs count **with and without the shared
//! preprocessing cache**: the cache only moves lexing work between
//! workers, so cache-on and cache-off runs must also be byte-identical
//! (including lint output). Its hit/miss counters are declared
//! `schedule` and its saved nanos `timing`, so
//! [`CorpusReport::check_same`] leaves them out.
//!
//! `SUPERC_PAR_JOBS` overrides the default `1,2,8` jobs ladder
//! (`scripts/verify.sh` runs a wider, oversubscribed one).

use superc::analyze::LintOptions;
use superc::corpus::{process_corpus, Capture, CorpusOptions, CorpusReport};
use superc::counters::{project, Class};
use superc::{Options, PpOptions, Profile};
use superc_kernelgen::{generate, Corpus, CorpusSpec};

fn options() -> Options {
    Options {
        pp: PpOptions {
            profile: Profile::default(),
            ..PpOptions::default()
        },
        ..Options::default()
    }
}

fn jobs_ladder() -> Vec<usize> {
    match std::env::var("SUPERC_PAR_JOBS") {
        Ok(s) => s
            .split(',')
            .filter(|p| !p.is_empty())
            .map(|p| p.trim().parse().expect("SUPERC_PAR_JOBS: counts"))
            .collect(),
        Err(_) => vec![1, 2, 8],
    }
}

/// Configurations the captured unparses are restricted to: the empty
/// configuration plus a few covering sets over the corpus's CONFIG vars.
fn capture_configs() -> Vec<Vec<String>> {
    vec![
        vec![],
        vec!["CONFIG_SMP".into(), "CONFIG_64BIT".into()],
        vec![
            "CONFIG_SMP".into(),
            "CONFIG_PREEMPT".into(),
            "CONFIG_NUMA".into(),
        ],
        vec!["CONFIG_64BIT".into(), "CONFIG_DEBUG".into()],
    ]
}

fn run_with_cache(corpus: &Corpus, jobs: usize, no_shared_cache: bool) -> CorpusReport {
    let copts = CorpusOptions {
        jobs,
        capture: Capture {
            preprocessed: false,
            ast: false,
            unparse_configs: capture_configs(),
        },
        lint: Some(LintOptions::default()),
        no_shared_cache,
        inject_panic: Vec::new(),
        portability: false,
        warm: false,
    };
    process_corpus(&corpus.fs, &corpus.units, &options(), &copts)
}

fn run(corpus: &Corpus, jobs: usize) -> CorpusReport {
    run_with_cache(corpus, jobs, false)
}

/// Job count and cache setting change only the schedule: every
/// behavior and mode counter, and every output surface, must match.
const SAME_MODE: &[Class] = &[Class::Behavior, Class::Mode];

#[test]
fn parallel_runs_are_deterministic_across_job_counts_and_cache_settings() {
    let corpus = generate(&CorpusSpec::small());
    let ladder = jobs_ladder();
    let base = run(&corpus, ladder[0]);
    assert!(base.parsed_units() > 0, "corpus produced no ASTs");
    assert!(
        base.units.iter().any(|u| !u.unparses.is_empty()),
        "no unparses captured"
    );
    assert!(base.lint_count() > 0, "corpus produced no lint findings");
    // Full matrix: every jobs count × shared cache {on, off} must match
    // the base run (which used the cache). The cache moves lexing work
    // between workers but must never change any output.
    for &jobs in &ladder {
        for no_cache in [false, true] {
            if jobs == ladder[0] && !no_cache {
                continue; // that run *is* the base
            }
            let other = run_with_cache(&corpus, jobs, no_cache);
            let label = format!("jobs={jobs} cache={}", if no_cache { "off" } else { "on" });
            if let Err(d) = base.check_same(&other, SAME_MODE) {
                panic!("{label}: {d}");
            }
        }
    }
}

#[test]
fn worker_count_is_capped_and_defaulted() {
    let corpus = generate(&CorpusSpec {
        units: 2,
        ..CorpusSpec::small()
    });
    // More workers than units: capped at the unit count.
    let over = run(&corpus, 64);
    assert_eq!(over.workers, corpus.units.len());
    // jobs = 0 resolves to available parallelism (at least one worker).
    let auto = run(&corpus, 0);
    assert!(auto.workers >= 1);
    if let Err(d) = run(&corpus, 1).check_same(&over, SAME_MODE) {
        panic!("jobs=64: {d}");
    }
}

#[test]
fn sequential_driver_and_parallel_driver_agree() {
    // The jobs=1 corpus path must match the plain `SuperC` loop the other
    // integration tests (and the paper's sequential numbers) use.
    let corpus = generate(&CorpusSpec::small());
    let report = run(&corpus, 1);
    let mut sc = superc::SuperC::new(options(), corpus.fs.clone());
    for (unit, r) in corpus.units.iter().zip(&report.units) {
        let p = sc.process(unit).unwrap_or_else(|e| panic!("{unit}: {e}"));
        assert_eq!(
            project(&p.unit.stats, SAME_MODE),
            project(&r.pp, SAME_MODE),
            "{unit}: preprocessor counters"
        );
        assert_eq!(p.result.stats, r.parse, "{unit}: parser counters");
        assert_eq!(p.result.ast.is_some(), r.parsed, "{unit}: parsed");
    }
}

#[test]
fn fatal_units_are_reported_not_panicked() {
    // A corpus with a deliberately broken unit: the driver must carry the
    // fatal error in that unit's slot and keep parsing the rest, at every
    // worker count.
    let fs = superc::MemFs::new()
        .file("ok.c", "int a;\n")
        .file("bad.c", "#error always broken\n")
        .file("also_ok.c", "int b;\n");
    let units = vec![
        "ok.c".to_string(),
        "bad.c".to_string(),
        "also_ok.c".to_string(),
    ];
    for jobs in [1, 3] {
        let copts = CorpusOptions {
            jobs,
            ..CorpusOptions::default()
        };
        let report = process_corpus(&fs, &units, &Options::default(), &copts);
        assert_eq!(report.fatal_units(), 1, "jobs={jobs}");
        assert!(report.units[1].fatal.is_some(), "jobs={jobs}");
        assert_eq!(report.parsed_units(), 2, "jobs={jobs}");
    }
}
