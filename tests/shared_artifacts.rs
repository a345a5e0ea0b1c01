//! The Arc-shared artifact layer: grammar tables, seeded token
//! classification, and context-plugin lookup tables are built **once
//! per process** and shared by every worker, while each worker keeps
//! its own mutable layer (BDD manager, interner, macro table, parser
//! engine). These tests pin down the split:
//!
//! * the LALR tables are constructed exactly once no matter how many
//!   pools, workers, or batches run (`tables_built` counter hook);
//! * the pooled [`CorpusRunner`], which always carries the shared
//!   cache, matches the one-shot driver's cache-off reference at every
//!   job count, including warm reruns on the same pool;
//! * a poisoned worker rebuilds only its mutable layer — the shared
//!   tables are not rebuilt, and the pool's subsequent output is
//!   unchanged.

use std::sync::Arc;

use superc::analyze::LintOptions;
use superc::corpus::{process_corpus, Capture, CorpusOptions, CorpusRunner};
use superc::counters::Class;
use superc::{MemFs, Options, PpOptions, Profile};
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

fn copts() -> CorpusOptions {
    CorpusOptions {
        capture: Capture {
            preprocessed: false,
            ast: false,
            unparse_configs: vec![vec![], vec!["CONFIG_SMP".into(), "CONFIG_64BIT".into()]],
        },
        lint: Some(LintOptions::default()),
        ..CorpusOptions::default()
    }
}

/// A pooled run may differ from the one-shot base only in schedule.
const SAME_MODE: &[Class] = &[Class::Behavior, Class::Mode];

fn corpus() -> Corpus {
    generate(&CorpusSpec::small())
}

#[test]
fn parse_tables_are_built_exactly_once_per_process() {
    let corpus = corpus();
    let fs = Arc::new(corpus.fs.clone());
    // Several pools at several sizes, several batches per pool: every
    // worker's parser must share the process-wide tables rather than
    // building its own copy.
    for jobs in [1, 2, 8] {
        let mut pool = CorpusRunner::new(&options(), Arc::clone(&fs), jobs);
        for _ in 0..2 {
            let report = pool.run(&corpus.units, &copts());
            assert!(report.parsed_units() > 0, "jobs={jobs}: nothing parsed");
        }
    }
    assert_eq!(
        superc::grammar::tables_built(),
        1,
        "LALR tables must be constructed once per process, not per worker"
    );
}

#[test]
fn pooled_runs_match_across_jobs_and_cache_settings() {
    let corpus = corpus();
    let fs = Arc::new(corpus.fs.clone());
    let cache_off = CorpusOptions {
        no_shared_cache: true,
        ..copts()
    };
    let base = process_corpus(&*fs, &corpus.units, &options(), &cache_off);
    assert!(base.parsed_units() > 0, "corpus produced no ASTs");
    assert!(base.lint_count() > 0, "corpus produced no lint findings");
    for jobs in [1, 2, 8] {
        let mut pool = CorpusRunner::new(&options(), Arc::clone(&fs), jobs);
        // Two batches per pool: the second run reuses warm workers
        // (hot L1 caches, grown interners) and must still be
        // byte-identical to the cold one-shot base.
        for pass in 0..2 {
            let report = pool.run(&corpus.units, &copts());
            let label = format!("jobs={jobs} pass={pass}");
            base.check_same(&report, SAME_MODE)
                .unwrap_or_else(|d| panic!("{label}: {d}"));
        }
    }
}

#[test]
fn poisoned_worker_rebuilds_only_the_mutable_layer() {
    let fs = Arc::new(
        MemFs::new()
            .file("a.c", "int a;\n")
            .file("poison.c", "int p;\n")
            .file("b.c", "int b;\n"),
    );
    let units = vec!["a.c".to_string(), "poison.c".to_string(), "b.c".to_string()];
    let mut pool = CorpusRunner::new(&Options::default(), Arc::clone(&fs), 2);

    let clean = pool.run(&units, &CorpusOptions::default());
    assert_eq!(clean.fatal_units(), 0);
    let built_before = superc::grammar::tables_built();

    // Poison one unit: the firewall converts the worker's panic into a
    // per-unit failure and rebuilds that worker's mutable layer.
    let poisoned = pool.run(
        &units,
        &CorpusOptions {
            inject_panic: vec!["poison.c".to_string()],
            ..CorpusOptions::default()
        },
    );
    assert_eq!(poisoned.fatal_units(), 1);
    assert!(poisoned.units[1].fatal.is_some(), "poisoned unit slot");
    assert_eq!(poisoned.parsed_units(), 2, "healthy units still parse");

    // The rebuild touched only the mutable layer: no new table build...
    assert_eq!(
        superc::grammar::tables_built(),
        built_before,
        "worker recovery must not rebuild the shared tables"
    );
    // ...and the recovered pool's next batch is byte-identical to the
    // pre-poisoning run.
    let after = pool.run(&units, &CorpusOptions::default());
    clean
        .check_same(&after, SAME_MODE)
        .unwrap_or_else(|d| panic!("post-recovery batch: {d}"));
}
