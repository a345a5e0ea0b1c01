//! Driver lifecycle: the service layer's embedding contract.
//!
//! * Resolver failures surface on the last-error channel — never a
//!   panic across the service boundary — and a resolver whose `Drop`
//!   panics as it is replaced leaves the driver serving.
//! * Edit generations batch edits; committing one invalidates exactly
//!   the units whose include closure saw the edit.
//! * Misuse (requests mid-generation, edits outside one) is rejected
//!   with an error, also mirrored on the last-error channel.
//! * Drivers drop cleanly at every lifecycle stage (pooled workers
//!   join; nothing hangs or unwinds).
//! * Rendered requests are byte-identical to the one-shot CLI renderers
//!   over the same tree.

use std::panic::{catch_unwind, AssertUnwindSafe};

use superc::analyze::LintOptions;
use superc::cli::{self, LintFormat};
use superc::corpus::{process_corpus, Capture, CorpusOptions};
use superc::service::Driver;
use superc::{MemFs, Options};

fn options() -> Options {
    let mut options = Options::default();
    options.pp.include_paths = vec!["include".to_string()];
    options
}

/// The warm-rerun fixture, staged through the driver's generation 1.
fn populated_driver(jobs: usize) -> Driver {
    let mut driver = Driver::new(options(), jobs);
    for (path, contents) in fixture_files() {
        driver
            .set_file(path, contents)
            .expect("generation 1 is open");
    }
    driver.end_generation().expect("commit generation 1");
    driver
}

fn fixture_files() -> Vec<(&'static str, &'static str)> {
    vec![
        ("include/leaf.h", "int leaf_decl(int);\n#define LEAF 1\n"),
        (
            "include/deep.h",
            "#include \"deeper.h\"\nint deep_decl(void);\n",
        ),
        (
            "include/deeper.h",
            "#ifdef CONFIG_SMP\n#define WIDTH 8\n#else\n#define WIDTH 1\n#endif\n",
        ),
        (
            "a.c",
            "#include <leaf.h>\n#include <deep.h>\nint a_fn(void) { return LEAF + WIDTH; }\n",
        ),
        (
            "b.c",
            "#include <deep.h>\nint b_fn(void) { return WIDTH; }\n",
        ),
        (
            "c.c",
            "#include <deep.h>\nint c_fn(void) { return WIDTH * 2; }\n",
        ),
    ]
}

fn units() -> Vec<String> {
    vec!["a.c".to_string(), "b.c".to_string(), "c.c".to_string()]
}

#[test]
fn resolver_errors_land_on_the_last_error_channel_not_a_panic() {
    let mut driver = Driver::new(options(), 2);
    driver.set_resolver(Box::new(|path| {
        if path.contains("flaky") {
            Err("backing store unreachable".to_string())
        } else {
            Ok(None)
        }
    }));
    driver
        .set_file("a.c", "#include <flaky.h>\nint a;\n")
        .expect("generation 1 is open");
    driver.end_generation().expect("commit");
    // The include probe hits the failing resolver: the unit degrades to
    // a missing-include diagnostic, the request still completes, and
    // the failure is recorded for the embedder.
    let report = driver.parse(&units()[..1]).expect("parse completes");
    assert_eq!(report.parsed_units(), 1, "unit still parses");
    let err = driver.last_error().expect("resolver failure recorded");
    assert!(
        err.contains("resolver failed for") && err.contains("backing store unreachable"),
        "got: {err}"
    );
}

#[test]
fn resolver_serves_includes_the_overlay_does_not_have() {
    let mut driver = Driver::new(options(), 1);
    driver.set_resolver(Box::new(|path| {
        Ok((path == "include/virt.h").then(|| "#define VIRT 3\n".to_string()))
    }));
    driver
        .set_file("a.c", "#include <virt.h>\nint a = VIRT;\n")
        .expect("generation 1 is open");
    driver.end_generation().expect("commit");
    let report = driver.parse(&["a.c".to_string()]).expect("parse");
    assert_eq!(report.parsed_units(), 1);
    assert!(report.units[0].fatal.is_none());
    assert!(driver.last_error().is_none(), "no failure to report");
}

#[test]
fn a_resolver_whose_drop_panics_leaves_the_driver_serving() {
    /// Panics when the resolver holding it is dropped.
    struct PanicsOnDrop;
    impl Drop for PanicsOnDrop {
        fn drop(&mut self) {
            panic!("the old resolver's drop panics");
        }
    }
    let mut driver = Driver::new(options(), 2);
    driver.end_generation().expect("commit");
    let doomed = PanicsOnDrop;
    driver.set_resolver(Box::new(move |_| {
        let _held = &doomed;
        Ok(Some("int old;\n".to_string()))
    }));
    let swap = catch_unwind(AssertUnwindSafe(|| {
        driver.set_resolver(Box::new(|path| {
            Ok((path == "a.c").then(|| "#warning new resolver\nint fresh;\n".to_string()))
        }))
    }));
    assert!(swap.is_err(), "dropping the old resolver panics");
    // The swap poisoned the resolver's lock: every later request must
    // still be answered, from the new resolver.
    for round in 0..2 {
        let report = driver.parse(&units()[..1]).expect("the driver serves");
        assert_eq!(
            report.units[0].diagnostics,
            ["[Warning] a.c:1:1: #warning new resolver (config true)"],
            "round {round}"
        );
    }
}

#[test]
fn generation_commit_invalidates_exactly_the_affected_units() {
    let units = units();
    for jobs in [1usize, 2, 8] {
        let mut driver = populated_driver(jobs);
        let first = driver.parse(&units).expect("cold batch");
        assert_eq!(first.unit_memo_misses, 3, "jobs={jobs}: cold batch misses");

        // Edit the leaf header only a.c includes.
        driver.begin_generation().expect("open generation 2");
        driver
            .set_file("include/leaf.h", "int leaf_decl(int);\n#define LEAF 2\n")
            .expect("staged");
        let generation = driver.end_generation().expect("commit");
        assert_eq!(generation, 2);

        let second = driver.parse(&units).expect("warm batch");
        assert_eq!(second.unit_memo_hits, 2, "jobs={jobs}: b.c and c.c replay");
        assert_eq!(second.unit_memo_misses, 1, "jobs={jobs}: a.c recomputes");
        let hits: Vec<bool> = second.units.iter().map(|u| u.memo_hit).collect();
        assert_eq!(hits, [false, true, true], "jobs={jobs}");

        // remove_file is an edit too: deleting the deep chain's inner
        // header invalidates every unit (missing include ≠ stale replay).
        driver.begin_generation().expect("open generation 3");
        driver.remove_file("include/deeper.h").expect("staged");
        driver.end_generation().expect("commit");
        let third = driver.parse(&units).expect("warm batch");
        assert_eq!(third.unit_memo_hits, 0, "jobs={jobs}: all recompute");

        let stats = driver.stats();
        assert_eq!(stats.generation, 3);
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.unit_memo_misses, 3);
    }
}

#[test]
fn requests_and_edits_respect_the_generation_protocol() {
    let mut driver = populated_driver(2);
    let units = units();

    // Edits outside a generation are rejected.
    let err = driver
        .set_file("x.h", "int x;\n")
        .expect_err("no open generation");
    assert!(err.contains("requires an open generation"), "got: {err}");
    assert_eq!(driver.last_error().as_deref(), Some(err.as_str()));

    // Requests inside a generation are rejected (the tree is mid-edit).
    driver.begin_generation().expect("open");
    let err = driver.parse(&units).expect_err("mid-generation parse");
    assert!(err.contains("generation 2 is open"), "got: {err}");
    assert_eq!(driver.last_error().as_deref(), Some(err.as_str()));

    // Double-open and double-close are protocol errors, not panics.
    assert!(driver.begin_generation().is_err());
    driver.end_generation().expect("close");
    assert!(driver.end_generation().is_err());

    // After recovery the driver still serves requests.
    let report = driver.parse(&units).expect("healthy again");
    assert_eq!(report.parsed_units(), 3);
}

#[test]
fn drivers_drop_cleanly_at_every_lifecycle_stage() {
    // Fresh (generation 1 still open, workers idle).
    drop(Driver::new(options(), 4));
    // Populated but never parsed.
    drop(populated_driver(4));
    // After serving batches.
    let mut driver = populated_driver(4);
    driver.parse(&units()).expect("batch");
    driver.parse(&units()).expect("batch");
    drop(driver);
    // Mid-generation, with staged edits that never commit.
    let mut driver = populated_driver(4);
    driver.parse(&units()).expect("batch");
    driver.begin_generation().expect("open");
    driver
        .set_file("include/leaf.h", "int other;\n")
        .expect("staged");
    drop(driver);
}

#[test]
fn rendered_requests_match_the_one_shot_cli_renderers() {
    let mut driver = populated_driver(2);
    let units = units();
    let lopts = LintOptions::default();

    // The fresh one-shot reference: the same tree as a MemFs, run
    // through the cold corpus driver and the CLI's render functions.
    let mut reference_fs = MemFs::new();
    for (path, contents) in fixture_files() {
        reference_fs.add(path, contents);
    }
    let copts = CorpusOptions {
        lint: Some(lopts.clone()),
        ..CorpusOptions::default()
    };
    let reference = process_corpus(&reference_fs, &units, &options(), &copts);

    for format in [LintFormat::Text, LintFormat::Json, LintFormat::Sarif] {
        let want = cli::render_lint_report(&reference, format, false);
        let got = driver
            .lint_rendered(&units, format, &[], &lopts, false)
            .expect("lint request");
        assert_eq!(got, want, "{format:?} output must be CLI-byte-identical");
    }

    let copts = CorpusOptions {
        capture: Capture::default(),
        ..CorpusOptions::default()
    };
    let reference = process_corpus(&reference_fs, &units, &options(), &copts);
    let want = cli::render_corpus_report(&reference, false, false);
    let got = driver
        .parse_rendered(&units, false, false)
        .expect("parse request");
    assert_eq!(got, want, "parse output must be CLI-byte-identical");
}
