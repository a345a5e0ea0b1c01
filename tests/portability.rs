//! Acceptance tests for the cross-profile portability lints over the
//! seeded corpus in `tests/fixtures/portability/`.
//!
//! Each fixture plants one kind of profile divergence against the
//! shipped compiler/OS profiles (`_WIN32`, `__APPLE__`, `__GNUC__`,
//! `__STDC_VERSION__`); the differ must report it with the exact
//! profile partition and a presence condition checked by BDD
//! equivalence (never by string comparison against the formula). The
//! clean fixture must stay silent. The rendered report must be
//! byte-identical across the whole
//! `{profiles 1/3} x {jobs 1/2/8} x {cache on/off} x {fastpath on/off}`
//! matrix, and cross-profile per-profile slices must agree with plain
//! single-profile runs.

use std::slice;
use std::sync::Arc;

use superc::analyze::{render, LintOptions, Record};
use superc::corpus::{
    process_corpus, process_corpus_profiles, Capture, CorpusOptions, CorpusRunner, UnitFailure,
};
use superc::{CondBackend, CondCtx, DiskFs, MemFs, Options, Profile};

fn fixture_fs() -> DiskFs {
    DiskFs::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/portability"
    ))
}

/// All fixtures, divergent and clean, in a fixed input order.
fn corpus_files() -> Vec<String> {
    [
        "win_ifdef.c",
        "gnuc_version.c",
        "apple_decl.c",
        "stdc_version.c",
        "nested_guard.c",
        "clean_portable.c",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn profiles3() -> Vec<Profile> {
    vec![
        Profile::gcc_linux(),
        Profile::clang_macos(),
        Profile::msvc_windows(),
    ]
}

fn copts(jobs: usize, no_shared_cache: bool) -> CorpusOptions {
    CorpusOptions {
        jobs,
        capture: Capture::default(),
        lint: Some(LintOptions::default()),
        no_shared_cache,
        inject_panic: Vec::new(),
        portability: false,
        warm: false,
    }
}

fn options(fastpath: bool) -> Options {
    let mut o = Options::default();
    if !fastpath {
        o.parser.fastpath = false;
        o.pp.fuse_lexing = false;
    }
    o
}

/// One cross-profile run, merged and rendered in every format.
fn run_matrix_point(profiles: &[Profile], jobs: usize, no_cache: bool, fastpath: bool) -> String {
    let report = process_corpus_profiles(
        &fixture_fs(),
        &corpus_files(),
        &options(fastpath),
        profiles,
        &copts(jobs, no_cache),
    );
    let records = report.lint_records(&LintOptions::default());
    format!(
        "{}{}{}",
        render::render_text(&records),
        render::render_json(&records),
        render::render_sarif(&records)
    )
}

fn merged_records() -> Vec<Record> {
    let report = process_corpus_profiles(
        &fixture_fs(),
        &corpus_files(),
        &Options::default(),
        &profiles3(),
        &copts(1, false),
    );
    report.lint_records(&LintOptions::default())
}

/// The exact profile partition and profile-set stamp, checked verbatim.
#[test]
fn seeded_fixtures_report_all_three_portability_kinds() {
    let records = merged_records();
    let find = |code: &str, file: &str, line: u32| -> &Record {
        records
            .iter()
            .find(|r| r.code == code && r.file == file && r.line == line)
            .unwrap_or_else(|| panic!("no {code} at {file}:{line} in {records:#?}"))
    };

    let d = find("portability-definedness", "win_ifdef.c", 5);
    assert_eq!(d.profiles, "gcc-linux,clang-macos,msvc-windows");
    assert!(
        d.message.contains(
            "macro _WIN32 differs across profiles: never defined under \
             {gcc-linux, clang-macos}; always defined under {msvc-windows}"
        ),
        "{}",
        d.message
    );

    let c = find("portability-divergent-condition", "win_ifdef.c", 5);
    assert!(
        c.message
            .contains("defined(_WIN32) under {gcc-linux, clang-macos}; true under {msvc-windows}"),
        "{}",
        c.message
    );

    let decl = find("portability-divergent-decl", "win_ifdef.c", 8);
    assert!(
        decl.message.contains("declaration of posix_fd")
            && decl.message.contains("<absent> under {msvc-windows}"),
        "{}",
        decl.message
    );

    // Three-way partition: each profile in its own state group.
    let three = find("portability-divergent-condition", "stdc_version.c", 4);
    assert!(
        three.message.contains("false under {gcc-linux}")
            && three.message.contains("true under {clang-macos}")
            && three.message.contains("under {msvc-windows}"),
        "{}",
        three.message
    );

    // Ordinary lints merge across profiles with the subset they fired in.
    let undef = find("undef-macro-test", "win_ifdef.c", 5);
    assert_eq!(undef.profiles, "gcc-linux,clang-macos");

    // The portable fixture is silent.
    assert!(
        records.iter().all(|r| r.file != "clean_portable.c"),
        "{records:#?}"
    );
}

/// Presence conditions on portability records are checked by BDD
/// equivalence: the canonical string is lifted back into a context and
/// compared semantically, not textually.
#[test]
fn portability_records_carry_exact_presence_conditions() {
    let records = merged_records();
    let ctx = CondCtx::new(CondBackend::Bdd);
    let cond_of = |code: &str, file: &str, line: u32| {
        let r = records
            .iter()
            .find(|r| r.code == code && r.file == file && r.line == line)
            .unwrap_or_else(|| panic!("no {code} at {file}:{line}"));
        render::parse_canonical(&r.cond, &ctx)
            .unwrap_or_else(|| panic!("non-canonical cond {}", r.cond))
    };

    // nested_guard: the inner conditional exists when CONFIG_FEATURE is
    // on — the union of `CF && WIN32` (unix profiles) and `CF` (msvc).
    let cf = ctx.var("defined(CONFIG_FEATURE)");
    let c = cond_of("portability-divergent-condition", "nested_guard.c", 5);
    assert!(c.semantically_equal(&cf), "got {c}");

    // win_ifdef: the #else arm diverges exactly where _WIN32 is off.
    let not_win = ctx.tru().and_not(&ctx.var("defined(_WIN32)"));
    let e = cond_of("portability-divergent-condition", "win_ifdef.c", 7);
    assert!(e.semantically_equal(&not_win), "got {e}");
    let d = cond_of("portability-divergent-decl", "win_ifdef.c", 8);
    assert!(d.semantically_equal(&not_win), "got {d}");

    // Definedness of _WIN32 diverges in every configuration.
    let w = cond_of("portability-definedness", "win_ifdef.c", 5);
    assert!(w.semantically_equal(&ctx.tru()), "got {w}");
}

/// The acceptance matrix: the full rendered report (text + JSON +
/// SARIF) is byte-identical across
/// `{profiles 1/3} x {jobs 1/2/8} x {cache on/off} x {fastpath on/off}`.
#[test]
fn cross_profile_report_is_byte_identical_across_matrix() {
    for profiles in [&profiles3()[..1], &profiles3()[..]] {
        let base = run_matrix_point(profiles, 1, false, true);
        if profiles.len() == 3 {
            for kind in [
                "portability-definedness",
                "portability-divergent-condition",
                "portability-divergent-decl",
            ] {
                assert!(base.contains(kind), "missing {kind}");
            }
        } else {
            // One profile has nothing to diff; ordinary lints remain,
            // stamped with the single profile.
            assert!(!base.contains("portability-"), "{base}");
            assert!(base.contains("[profiles {gcc-linux}]"), "{base}");
        }
        for jobs in [1, 2, 8] {
            for no_cache in [false, true] {
                for fastpath in [true, false] {
                    assert_eq!(
                        run_matrix_point(profiles, jobs, no_cache, fastpath),
                        base,
                        "profiles={} jobs={jobs} cache={} fastpath={fastpath} diverged",
                        profiles.len(),
                        !no_cache
                    );
                }
            }
        }
    }
}

/// The pooled runner's cross-profile batches produce the same bytes as
/// the one-shot driver, warm or cold.
#[test]
fn pooled_runner_matches_one_shot_cross_profile() {
    let files = corpus_files();
    let profiles = profiles3();
    let one_shot = process_corpus_profiles(
        &fixture_fs(),
        &files,
        &Options::default(),
        &profiles,
        &copts(2, false),
    );
    let base = render::render_text(&one_shot.lint_records(&LintOptions::default()));
    assert_eq!(
        one_shot.behavior_counters(),
        {
            let mut pool = CorpusRunner::new(&Options::default(), Arc::new(fixture_fs()), 2);
            let first = pool.run_profiles(&files, &profiles, &copts(2, false));
            let again = pool.run_profiles(&files, &profiles, &copts(2, false));
            assert_eq!(
                render::render_text(&first.lint_records(&LintOptions::default())),
                base
            );
            assert_eq!(
                render::render_text(&again.lint_records(&LintOptions::default())),
                base
            );
            again.behavior_counters()
        },
        "pooled counters diverged from one-shot"
    );
}

/// Cross-profile mode is N honest single-profile runs interleaved: each
/// per-profile slice (and lint list) must equal what a plain
/// single-profile corpus run over the same units produces.
#[test]
fn cross_profile_slices_agree_with_single_profile_runs() {
    let files = corpus_files();
    let profiles = profiles3();
    let cross = process_corpus_profiles(
        &fixture_fs(),
        &files,
        &Options::default(),
        &profiles,
        &copts(3, false),
    );
    for (i, profile) in profiles.iter().enumerate() {
        let mut options = Options::default();
        options.pp.profile = profile.clone();
        let mut single_copts = copts(1, false);
        single_copts.portability = true;
        let single = process_corpus(&fixture_fs(), &files, &options, &single_copts);
        assert_eq!(
            cross.runs[i].behavior_counters(),
            single.behavior_counters(),
            "profile {}",
            profile.name
        );
        for (cu, su) in cross.runs[i].units.iter().zip(&single.units) {
            assert_eq!(
                cu.portability, su.portability,
                "{}: {}",
                profile.name, cu.path
            );
            assert_eq!(cu.lints, su.lints, "{}: {}", profile.name, cu.path);
        }
    }
}

/// A unit fatal under only some profiles surfaces as a
/// `portability-divergent-decl` through the synthetic fatal row.
#[test]
fn fatal_divergence_surfaces_as_divergent_decl() {
    let files = vec!["win_ifdef.c".to_string()];
    let mut report = process_corpus_profiles(
        &fixture_fs(),
        &files,
        &Options::default(),
        &profiles3(),
        &copts(1, false),
    );
    // Simulate a unit the pipeline could not process under one profile
    // (the firewall path produces exactly this report shape).
    let unit = std::sync::Arc::make_mut(&mut report.runs[2].units[0]);
    unit.portability.clear();
    unit.lints.clear();
    unit.failure = Some(UnitFailure {
        stage: "panic".to_string(),
        message: "panic: poisoned unit".to_string(),
    });
    unit.fatal = Some("panic: poisoned unit".to_string());
    let records = report.lint_records(&LintOptions::default());
    let fatal = records
        .iter()
        .find(|r| r.code == "portability-divergent-decl" && r.message.contains("fatal panic"))
        .unwrap_or_else(|| panic!("no fatal divergence in {records:#?}"));
    assert!(
        fatal
            .message
            .contains("<absent> under {gcc-linux, clang-macos}")
            && fatal.message.contains("under {msvc-windows}"),
        "{}",
        fatal.message
    );
}

/// A unit whose only branch decision is a compiler built-in.
const GNUC_UNIT: &str = "#if __GNUC__ >= 4\nint modern;\n#else\nint legacy;\n#endif\n";

/// A custom profile that keeps the shipped `gcc-linux` name but carries
/// gcc 3's `__GNUC__`: same name, different built-ins.
fn gcc3_named_gcc_linux() -> Profile {
    let mut profile = Profile::named("gcc-linux").expect("shipped profile");
    for (name, value) in &mut profile.builtins.defs {
        if name == "__GNUC__" {
            *value = "3".to_string();
        }
    }
    profile
}

/// Lint plus the unit's unparse under the empty configuration (the
/// built-in decides the branch, so no variable matters).
fn unparse_copts(jobs: usize) -> CorpusOptions {
    CorpusOptions {
        capture: Capture {
            unparse_configs: vec![Vec::new()],
            ..Capture::default()
        },
        ..copts(jobs, false)
    }
}

/// A pooled worker must not hand a profile another profile's tool just
/// because the two share a name: after a batch under the gcc-3
/// `gcc-linux`, a batch under the shipped `gcc-linux` must match a
/// fresh run.
#[test]
fn pooled_same_name_profiles_run_on_their_own_builtins() {
    let fs = MemFs::new().file("a.c", GNUC_UNIT);
    let units = vec!["a.c".to_string()];
    let (custom, shipped) = (gcc3_named_gcc_linux(), Profile::gcc_linux());
    for jobs in [1, 2, 8] {
        let mut pool = CorpusRunner::new(&Options::default(), Arc::new(fs.clone()), jobs);
        let first = pool.run_profiles(&units, slice::from_ref(&custom), &unparse_copts(jobs));
        assert_eq!(
            first.runs[0].units[0].unparses,
            ["int legacy ;"],
            "jobs={jobs}"
        );
        let second = pool.run_profiles(&units, slice::from_ref(&shipped), &unparse_copts(jobs));
        let fresh = process_corpus_profiles(
            &fs,
            &units,
            &Options::default(),
            slice::from_ref(&shipped),
            &unparse_copts(jobs),
        );
        assert_eq!(fresh.runs[0].units[0].unparses, ["int modern ;"]);
        let (got, want) = (&second.runs[0].units[0], &fresh.runs[0].units[0]);
        assert_eq!(got.unparses, want.unparses, "jobs={jobs}: stale built-ins");
        assert_eq!(got.portability, want.portability, "jobs={jobs}");
        assert_eq!(got.lints, want.lints, "jobs={jobs}");
    }
}

/// In one grid, rows under two same-name profiles must each equal a
/// single-profile run under that profile. At `jobs` 1 one worker runs
/// both rows, so a tool shared by name shows up deterministically.
#[test]
fn one_shot_grid_rows_under_same_name_profiles_match_single_runs() {
    let fs = MemFs::new().file("a.c", GNUC_UNIT);
    let units = vec!["a.c".to_string()];
    let profiles = [Profile::gcc_linux(), gcc3_named_gcc_linux()];
    let singles: Vec<_> = profiles
        .iter()
        .map(|profile| {
            let mut options = Options::default();
            options.pp.profile = profile.clone();
            let copts = CorpusOptions {
                portability: true,
                ..unparse_copts(1)
            };
            process_corpus(&fs, &units, &options, &copts)
        })
        .collect();
    assert_eq!(singles[0].units[0].unparses, ["int modern ;"]);
    assert_eq!(singles[1].units[0].unparses, ["int legacy ;"]);
    for jobs in [1, 2, 8] {
        let grid = process_corpus_profiles(
            &fs,
            &units,
            &Options::default(),
            &profiles,
            &unparse_copts(jobs),
        );
        for (p, single) in singles.iter().enumerate() {
            let (got, want) = (&grid.runs[p].units[0], &single.units[0]);
            assert_eq!(got.unparses, want.unparses, "jobs={jobs} row {p}");
            assert_eq!(got.portability, want.portability, "jobs={jobs} row {p}");
            assert_eq!(got.lints, want.lints, "jobs={jobs} row {p}");
        }
    }
}
