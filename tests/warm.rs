//! Incremental warm re-runs: the pooled [`CorpusRunner`]'s unit result
//! memo must make warm output **byte-identical to a cold run over the
//! same (edited) tree**, while skipping recomputation for exactly the
//! units whose include closure was untouched.
//!
//! The matrix here crosses edit site × jobs × fastpath × profile count:
//!
//! * edit sites: none / a leaf header included by one unit / a shared
//!   header deep in every unit's closure / a unit's own source / a
//!   *shadowing* header created at a path that include resolution
//!   probed and missed in the first batch (a negative dependency);
//! * `jobs` 1, 2, 8 over the same pool size ladder as
//!   `tests/parallel.rs`;
//! * fast path (fused lexing + deterministic LR fast path) on and off;
//! * one profile ([`CorpusRunner::run`]) and a three-profile grid
//!   ([`CorpusRunner::run_profiles`]), each alone and both alternating
//!   on one pool;
//! * both revalidation paths: a resolver-less [`DriverFs`], which
//!   reports its changes so a batch revalidates only the edited paths,
//!   and an opaque tree that cannot, so every batch revalidates every
//!   path.
//!
//! Every cell asserts three things: the warm report matches a fresh
//! cold reference over the edited tree (every unit's
//! [`UnitReport::view`](superc::UnitReport::view) with behavior and
//! mode counters), the per-unit `memo_hit` flags match the edit
//! — edited-closure units recompute, untouched units replay — and the
//! batch hashed exactly the files its revalidation path must read.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use superc::analyze::{LintCode, LintLevel, LintOptions};
use superc::cli::{self, LintFormat};
use superc::corpus::{
    process_corpus, process_corpus_profiles, Capture, CorpusOptions, CorpusRunner,
};
use superc::counters::Class;
use superc::service::DriverFs;
use superc::{FileSystem, Options, Profile, SharedCache};

/// Three units over a small header tree:
///
/// * `include/leaf.h` — included only by `a.c`;
/// * `include/deep.h` → `include/deeper.h` — a two-level chain included
///   by every unit;
/// * each unit also has private content so their reports differ.
fn fixture() -> DriverFs {
    let fs = DriverFs::new();
    fs.set("include/leaf.h", "int leaf_decl(int);\n#define LEAF 1\n");
    fs.set(
        "include/deep.h",
        "#include \"deeper.h\"\nint deep_decl(void);\n",
    );
    fs.set(
        "include/deeper.h",
        "#ifdef CONFIG_SMP\n#define WIDTH 8\n#else\n#define WIDTH 1\n#endif\nint deeper_decl(void);\n",
    );
    fs.set(
        "a.c",
        "#include <leaf.h>\n#include <deep.h>\nint a_fn(void) { return LEAF + WIDTH; }\n",
    );
    fs.set(
        "b.c",
        "#include <deep.h>\n#ifdef CONFIG_B\nint b_extra;\n#endif\nint b_fn(void) { return WIDTH; }\n",
    );
    fs.set(
        "c.c",
        "#include <deep.h>\nint c_fn(void) { return WIDTH * 2; }\n",
    );
    fs
}

/// Files in [`fixture`]: what a cold batch hashes.
const FIXTURE_FILES: u64 = 6;

fn units() -> Vec<String> {
    vec!["a.c".to_string(), "b.c".to_string(), "c.c".to_string()]
}

/// A tree that cannot enumerate its changes: it implements only
/// `read`, so `take_changes` keeps its default `None` and every batch
/// revalidates every path, as over a disk tree or a resolver.
struct OpaqueFs(DriverFs);

impl FileSystem for OpaqueFs {
    fn read(&self, path: &str) -> Option<Arc<str>> {
        self.0.read(path)
    }
}

/// A fixture tree that can be edited between batches.
trait Tree: FileSystem + Send + Sync + Sized + 'static {
    /// Label for assertion messages.
    const NAME: &'static str;
    /// Does the tree report its changes (targeted revalidation)?
    const REPORTS_CHANGES: bool;
    /// A fresh copy of [`fixture`].
    fn fixture() -> Arc<Self>;
    fn edit(&self, path: &str, contents: &str);
    fn remove(&self, path: &str);
}

impl Tree for DriverFs {
    const NAME: &'static str = "reporting";
    const REPORTS_CHANGES: bool = true;
    fn fixture() -> Arc<Self> {
        Arc::new(fixture())
    }
    fn edit(&self, path: &str, contents: &str) {
        self.set(path, contents);
    }
    fn remove(&self, path: &str) {
        self.tombstone(path);
    }
}

impl Tree for OpaqueFs {
    const NAME: &'static str = "opaque";
    const REPORTS_CHANGES: bool = false;
    fn fixture() -> Arc<Self> {
        Arc::new(OpaqueFs(fixture()))
    }
    fn edit(&self, path: &str, contents: &str) {
        self.0.set(path, contents);
    }
    fn remove(&self, path: &str) {
        self.0.tombstone(path);
    }
}

fn options(fastpath: bool) -> Options {
    let mut options = Options::default();
    options.pp.include_paths = vec!["include".to_string()];
    if !fastpath {
        options.parser.fastpath = false;
        options.pp.fuse_lexing = false;
    }
    options
}

fn copts(warm: bool) -> CorpusOptions {
    CorpusOptions {
        lint: Some(LintOptions::default()),
        warm,
        ..CorpusOptions::default()
    }
}

/// One edit scenario: a label, the file to touch (`None` = no edit),
/// and which units' closures that invalidates.
struct Edit {
    label: &'static str,
    touch: Option<(&'static str, &'static str)>,
    /// Expected `memo_hit` per unit (a.c, b.c, c.c) on the re-run.
    hits: [bool; 3],
    /// Files in the tree after the edit: what a full revalidation
    /// hashes, since every file lies in some unit's closure or failed
    /// probes.
    files: u64,
}

impl Edit {
    /// Files the re-run must hash, each exactly once however many
    /// workers and profiles probe it: the edited one when the tree
    /// reports its changes, every file otherwise.
    fn rehashes(&self, reports_changes: bool) -> u64 {
        if reports_changes {
            u64::from(self.touch.is_some())
        } else {
            self.files
        }
    }
}

fn edits() -> Vec<Edit> {
    vec![
        Edit {
            label: "none",
            touch: None,
            hits: [true, true, true],
            files: 6,
        },
        Edit {
            label: "leaf-header",
            touch: Some(("include/leaf.h", "int leaf_decl(int);\n#define LEAF 2\n")),
            hits: [false, true, true],
            files: 6,
        },
        Edit {
            label: "deep-shared-header",
            touch: Some((
                "include/deeper.h",
                "#ifdef CONFIG_SMP\n#define WIDTH 16\n#else\n#define WIDTH 2\n#endif\nint deeper_decl(void);\n",
            )),
            hits: [false, false, false],
            files: 6,
        },
        Edit {
            label: "unit-source",
            touch: Some((
                "b.c",
                "#include <deep.h>\nint b_fn(void) { return WIDTH + 1; }\n",
            )),
            hits: [true, false, true],
            files: 6,
        },
        // Shadowing edits: the touched path did not exist in the first
        // batch — it is a *failed probe* on some unit's include
        // resolution path. `a.c`'s `#include <leaf.h>` probes bare
        // `leaf.h` before `include/leaf.h`, so creating `leaf.h`
        // changes what a.c resolves without touching any file a.c
        // read. Only negative-dependency fingerprints catch this.
        Edit {
            label: "shadow-leaf-header",
            touch: Some((
                "leaf.h",
                "int leaf_decl(int);\nint leaf_shadow;\n#define LEAF 7\n",
            )),
            hits: [false, true, true],
            files: 7,
        },
        // Every unit includes `<deep.h>` and probes bare `deep.h`
        // first, so this shadow invalidates the whole corpus.
        Edit {
            label: "shadow-deep-header",
            touch: Some((
                "deep.h",
                "#include \"deeper.h\"\nint deep_decl(void);\nint deep_shadow;\n",
            )),
            hits: [false, false, false],
            files: 7,
        },
    ]
}

/// A warm replay may differ from a cold run only in the schedule gauges
/// and `memo_hit`, which the comparison view clears.
const SAME_MODE: &[Class] = &[Class::Behavior, Class::Mode];

#[test]
fn warm_rerun_matches_cold_run_across_edit_jobs_fastpath_matrix() {
    warm_matrix::<DriverFs>();
    warm_matrix::<OpaqueFs>();
}

fn warm_matrix<T: Tree>() {
    let units = units();
    for edit in edits() {
        for jobs in [1usize, 2, 8] {
            for fastpath in [true, false] {
                let label = format!(
                    "tree={} edit={} jobs={jobs} fastpath={fastpath}",
                    T::NAME,
                    edit.label
                );
                let opts = options(fastpath);
                let fs = T::fixture();
                let mut pool = CorpusRunner::new(&opts, Arc::clone(&fs), jobs);

                // Batch 1 fills the memo: nothing can hit yet.
                let first = pool.run(&units, &copts(true));
                assert_eq!(first.unit_memo_hits, 0, "{label}: batch 1 hits");
                assert_eq!(
                    first.unit_memo_misses,
                    units.len() as u64,
                    "{label}: batch 1 misses"
                );
                assert!(first.parsed_units() == 3, "{label}: fixture must parse");
                assert_eq!(
                    first.files_rehashed, FIXTURE_FILES,
                    "{label}: batch 1 hashes each file once"
                );

                if let Some((path, contents)) = edit.touch {
                    fs.edit(path, contents);
                }

                // Batch 2 (warm, over the edited tree) vs a fresh cold
                // run over the same tree — the fresh-process reference.
                let second = pool.run(&units, &copts(true));
                let reference = process_corpus(&*fs, &units, &opts, &copts(false));
                reference
                    .check_same(&second, SAME_MODE)
                    .unwrap_or_else(|d| panic!("{label}: {d}"));

                let expected_hits = edit.hits.iter().filter(|&&h| h).count() as u64;
                assert_eq!(
                    second.unit_memo_hits, expected_hits,
                    "{label}: memo hit count"
                );
                assert_eq!(
                    second.unit_memo_misses,
                    units.len() as u64 - expected_hits,
                    "{label}: memo miss count"
                );
                for (u, expect_hit) in second.units.iter().zip(edit.hits) {
                    assert_eq!(u.memo_hit, expect_hit, "{label}: {}: memo_hit flag", u.path);
                }
                assert_eq!(
                    second.files_rehashed,
                    edit.rehashes(T::REPORTS_CHANGES),
                    "{label}: files rehashed"
                );
            }
        }
    }
}

#[test]
fn warm_profiles_rerun_matches_cold_grid() {
    warm_profiles_matrix::<DriverFs>();
    warm_profiles_matrix::<OpaqueFs>();
}

fn warm_profiles_matrix<T: Tree>() {
    let units = units();
    let profiles: Vec<Profile> = ["gcc-linux", "clang-linux", "msvc-windows"]
        .iter()
        .map(|n| Profile::named(n).expect("shipped profile"))
        .collect();
    for edit in edits() {
        for jobs in [1usize, 2, 8] {
            for fastpath in [true, false] {
                let label = format!(
                    "tree={} profiles=3 edit={} jobs={jobs} fastpath={fastpath}",
                    T::NAME,
                    edit.label
                );
                let opts = options(fastpath);
                let fs = T::fixture();
                let mut pool = CorpusRunner::new(&opts, Arc::clone(&fs), jobs);

                let first = pool.run_profiles(&units, &profiles, &copts(true));
                assert_eq!(first.runs[0].unit_memo_hits, 0, "{label}: batch 1 hits");
                assert_eq!(
                    first.runs[0].unit_memo_misses,
                    (units.len() * profiles.len()) as u64,
                    "{label}: batch 1 misses"
                );

                if let Some((path, contents)) = edit.touch {
                    fs.edit(path, contents);
                }

                let second = pool.run_profiles(&units, &profiles, &copts(true));
                let reference =
                    process_corpus_profiles(&*fs, &units, &opts, &profiles, &copts(false));
                assert_eq!(
                    reference.behavior_counters(),
                    second.behavior_counters(),
                    "{label}: per-profile behavior fingerprints"
                );
                for (p, (rref, rwarm)) in reference.runs.iter().zip(&second.runs).enumerate() {
                    rref.check_same(rwarm, SAME_MODE)
                        .unwrap_or_else(|d| panic!("{label} profile {p}: {d}"));
                    // The memo is per (unit, profile-signature): the
                    // same hit pattern must hold under every profile.
                    for (u, expect_hit) in rwarm.units.iter().zip(edit.hits) {
                        assert_eq!(
                            u.memo_hit, expect_hit,
                            "{label}: profile {p}: {}: memo_hit flag",
                            u.path
                        );
                    }
                }
                // Merged lint output (including portability diffs) is
                // part of the byte-identity contract too.
                let lopts = LintOptions::default();
                assert_eq!(
                    reference.lint_records(&lopts),
                    second.lint_records(&lopts),
                    "{label}: merged lint records"
                );

                let expected_hits =
                    (edit.hits.iter().filter(|&&h| h).count() * profiles.len()) as u64;
                assert_eq!(
                    second.runs[0].unit_memo_hits, expected_hits,
                    "{label}: grid memo hit count"
                );
                // Fingerprints are profile-independent *per file*: the
                // three profile runs share one hash per touched file.
                assert_eq!(
                    second.runs[0].files_rehashed,
                    edit.rehashes(T::REPORTS_CHANGES),
                    "{label}: files rehashed"
                );
            }
        }
    }
}

#[test]
fn one_pool_serves_single_profile_and_grid_batches_across_an_edit() {
    mixed_shapes_matrix::<DriverFs>();
    mixed_shapes_matrix::<OpaqueFs>();
}

/// One pool alternates both batch shapes — `run`, a three-profile
/// `run_profiles`, an edit, then `run` and `run_profiles` again — so
/// the single-profile batches and the grid's `gcc-linux` row share one
/// warm tool per worker. Every batch must match a fresh one-shot run,
/// with exact memo counts: the grid forces `portability` on, so its
/// memo signatures differ from the single-profile batches' and the two
/// shapes never replay each other's entries.
fn mixed_shapes_matrix<T: Tree>() {
    let units = units();
    let n = units.len() as u64;
    let profiles: Vec<Profile> = ["gcc-linux", "clang-linux", "msvc-windows"]
        .iter()
        .map(|n| Profile::named(n).expect("shipped profile"))
        .collect();
    let rows = profiles.len() as u64;
    let lopts = LintOptions::default();
    for edit in edits() {
        for jobs in [1usize, 2, 8] {
            let label = format!("tree={} edit={} jobs={jobs}", T::NAME, edit.label);
            let opts = options(true);
            let fs = T::fixture();
            let mut pool = CorpusRunner::new(&opts, Arc::clone(&fs), jobs);
            let single = |pool: &mut CorpusRunner<T>, batch: &str, hits: u64| {
                let warm = pool.run(&units, &copts(true));
                let cold = process_corpus(&*fs, &units, &opts, &copts(false));
                let label = format!("{label} {batch}");
                cold.check_same(&warm, SAME_MODE)
                    .unwrap_or_else(|d| panic!("{label}: {d}"));
                assert_eq!(warm.unit_memo_hits, hits, "{label}: memo hits");
                assert_eq!(warm.unit_memo_misses, n - hits, "{label}: memo misses");
            };
            let grid = |pool: &mut CorpusRunner<T>, batch: &str, hits: u64| {
                let warm = pool.run_profiles(&units, &profiles, &copts(true));
                let cold = process_corpus_profiles(&*fs, &units, &opts, &profiles, &copts(false));
                let label = format!("{label} {batch}");
                for (p, (c, w)) in cold.runs.iter().zip(&warm.runs).enumerate() {
                    c.check_same(w, SAME_MODE)
                        .unwrap_or_else(|d| panic!("{label} profile {p}: {d}"));
                }
                assert_eq!(
                    cold.lint_records(&lopts),
                    warm.lint_records(&lopts),
                    "{label}: merged lint records"
                );
                assert_eq!(warm.runs[0].unit_memo_hits, hits, "{label}: memo hits");
                assert_eq!(
                    warm.runs[0].unit_memo_misses,
                    n * rows - hits,
                    "{label}: memo misses"
                );
            };

            single(&mut pool, "run 1", 0);
            grid(&mut pool, "grid 1", 0);
            if let Some((path, contents)) = edit.touch {
                fs.edit(path, contents);
            }
            let untouched = edit.hits.iter().filter(|&&h| h).count() as u64;
            single(&mut pool, "run 2", untouched);
            grid(&mut pool, "grid 2", untouched * rows);
        }
    }
}

#[test]
fn near_identical_header_edit_is_not_a_stale_replay() {
    // Two versions of a header that differ in two digits. FxHash64 maps
    // both to 0x826d0cef9ebefc2b: keyed by a hash that weak, this edit
    // replays the stale artifact and the stale memoized unit.
    const A: &str = "#ifndef SUB62_H\n#define SUB62_H\nxxxextern int sub62_x;\n#ifdef CONFIG_SMP\nextern int sub62_rev1719;\n#endif\n#endif\n";
    let b = A.replace("rev1719", "rev1792");
    assert_ne!(
        SharedCache::content_hash(A.as_bytes()),
        SharedCache::content_hash(b.as_bytes())
    );
    collision_edit::<DriverFs>(A, &b);
    collision_edit::<OpaqueFs>(A, &b);
}

fn collision_edit<T: Tree>(before: &str, after: &str) {
    let units = vec!["u.c".to_string()];
    let opts = options(true);
    let copts = CorpusOptions {
        capture: Capture {
            preprocessed: true,
            ..Capture::default()
        },
        warm: true,
        ..CorpusOptions::default()
    };
    let fs = T::fixture();
    fs.edit("include/sub62.h", before);
    fs.edit("u.c", "#include <sub62.h>\nint u_fn(void) { return 0; }\n");
    let mut pool = CorpusRunner::new(&opts, Arc::clone(&fs), 1);
    pool.run(&units, &copts);
    fs.edit("include/sub62.h", after);
    let warm = pool.run(&units, &copts);
    let cold = process_corpus(&*fs, &units, &opts, &copts);
    assert!(
        !warm.units[0].memo_hit,
        "tree={}: u.c must recompute",
        T::NAME
    );
    assert_eq!(
        warm.units[0].preprocessed,
        cold.units[0].preprocessed,
        "tree={}: preprocessed text",
        T::NAME
    );
    assert!(
        cold.units[0]
            .preprocessed
            .as_deref()
            .is_some_and(|text| text.contains("sub62_rev1792")),
        "tree={}: the cold run sees the edit",
        T::NAME
    );
}

#[test]
fn budget_tripped_units_are_never_memoized() {
    let units = units();
    let mut opts = options(true);
    // A one-step parse budget degrades every unit to a partial parse;
    // partial/tripped units must recompute on every warm batch.
    opts.budgets.max_steps = 1;
    let fs = Arc::new(fixture());
    let mut pool = CorpusRunner::new(&opts, Arc::clone(&fs), 2);
    let first = pool.run(&units, &copts(true));
    assert_eq!(first.partial_units(), 3, "budget must trip every unit");
    let second = pool.run(&units, &copts(true));
    assert_eq!(
        second.unit_memo_hits, 0,
        "budget-degraded units must not replay from the memo"
    );
    assert_eq!(second.partial_units(), 3);
}

#[test]
fn failed_units_are_never_memoized() {
    let fs = Arc::new(fixture());
    fs.set("broken.c", "#error this unit is intentionally fatal\n");
    let units = vec!["a.c".to_string(), "broken.c".to_string()];
    let mut pool = CorpusRunner::new(&options(true), Arc::clone(&fs), 2);
    let first = pool.run(&units, &copts(true));
    assert_eq!(first.failed_units(), 1);
    let second = pool.run(&units, &copts(true));
    assert_eq!(
        second.unit_memo_hits, 1,
        "only the healthy unit replays; the failed one recomputes"
    );
    assert!(second.units[1].failure.is_some());
    assert!(!second.units[1].memo_hit);
}

#[test]
fn warm_sweep_evicts_dead_artifacts() {
    let units = units();
    let opts = options(true);
    let fs = Arc::new(fixture());
    let mut pool = CorpusRunner::new(&opts, Arc::clone(&fs), 2);
    pool.run(&units, &copts(true));
    let cache = Arc::clone(pool.shared_cache());
    let cold_len = cache.len();
    assert!(cold_len > 0, "cold batch must populate the cache");
    // Edit one header: its old artifact is dead after the next batch's
    // sweep, and the cache must not grow monotonically across edits.
    for width in [5, 6, 7] {
        fs.set(
            "include/deeper.h",
            &format!("#define WIDTH {width}\nint deeper_decl(void);\n"),
        );
        pool.run(&units, &copts(true));
        assert_eq!(
            cache.len(),
            cold_len,
            "sweep must evict each edit's dead artifact"
        );
    }
}

#[test]
fn replays_share_the_stored_report() {
    shared_replays::<DriverFs>();
    shared_replays::<OpaqueFs>();
}

/// Untouched units come back as the memo's stored report itself, not a
/// copy, across a request with no edit and across a one-unit edit.
fn shared_replays<T: Tree>() {
    let units = units();
    for jobs in [1usize, 2, 8] {
        let label = format!("tree={} jobs={jobs}", T::NAME);
        let fs = T::fixture();
        let mut pool = CorpusRunner::new(&options(true), Arc::clone(&fs), jobs);
        pool.run(&units, &copts(true));
        let before = pool.run(&units, &copts(true));
        let again = pool.run(&units, &copts(true));
        for (b, a) in before.units.iter().zip(&again.units) {
            assert!(a.memo_hit, "{label}: {}: no edit replays", a.path);
            assert!(Arc::ptr_eq(b, a), "{label}: {}: no edit shares", a.path);
        }
        fs.edit(
            "b.c",
            "#include <deep.h>\nint b_fn(void) { return WIDTH + 1; }\n",
        );
        let after = pool.run(&units, &copts(true));
        for (i, (b, a)) in again.units.iter().zip(&after.units).enumerate() {
            if i == 1 {
                assert!(!a.memo_hit && !Arc::ptr_eq(b, a), "{label}: b.c recomputes");
            } else {
                assert!(Arc::ptr_eq(b, a), "{label}: {}: untouched shares", a.path);
            }
        }
    }
}

#[test]
fn targeted_sweep_keeps_what_the_full_sweep_keeps() {
    // The reporting tree's batches sweep only the hashes whose last row a
    // change set dropped; the opaque tree's batches sweep everything.
    // After the same batches over the same edits both caches must hold
    // the same artifacts. `d.c` includes a twin of `deeper.h` (same
    // bytes, one hash, two rows), one edit rewrites a file's own bytes
    // (its hash is dropped and held again in one generation), and one
    // batch is cold, so two change sets' orphans meet in one sweep. No
    // edit brings back bytes whose artifact was evicted: a worker whose
    // own L1 entry still has those bytes serves them without publishing
    // the artifact again, so with two workers the count would depend on
    // which worker took the unit.
    const TWIN: &str = "#ifdef CONFIG_SMP\n#define WIDTH 8\n#else\n#define WIDTH 1\n#endif\nint deeper_decl(void);\n";
    let mut units = units();
    units.push("d.c".to_string());
    type Step = (
        &'static str,
        Option<(&'static str, Option<&'static str>)>,
        bool,
    );
    let steps: [Step; 10] = [
        ("fill", None, true),
        ("no edit", None, true),
        (
            "same bytes",
            Some((
                "include/leaf.h",
                Some("int leaf_decl(int);\n#define LEAF 1\n"),
            )),
            true,
        ),
        (
            "leaf edit",
            Some((
                "include/leaf.h",
                Some("int leaf_decl(int);\n#define LEAF 2\n"),
            )),
            true,
        ),
        (
            "twin edit",
            Some(("include/twin.h", Some("#define WIDTH 3\n"))),
            true,
        ),
        ("twin revert", Some(("include/twin.h", Some(TWIN))), true),
        (
            "cold leaf edit",
            Some((
                "include/leaf.h",
                Some("int leaf_decl(int);\n#define LEAF 3\n"),
            )),
            false,
        ),
        (
            "shadow",
            Some(("leaf.h", Some("int leaf_shadow;\n#define LEAF 7\n"))),
            true,
        ),
        ("unshadow", Some(("leaf.h", None)), true),
        (
            "unit edit",
            Some((
                "b.c",
                Some("#include <deep.h>\nint b_fn(void) { return 2; }\n"),
            )),
            true,
        ),
    ];
    for jobs in [1usize, 2] {
        let trees = (DriverFs::fixture(), OpaqueFs::fixture());
        trees.0.edit("include/twin.h", TWIN);
        trees.1.edit("include/twin.h", TWIN);
        trees.0.edit(
            "d.c",
            "#include <twin.h>\nint d_fn(void) { return WIDTH; }\n",
        );
        trees.1.edit(
            "d.c",
            "#include <twin.h>\nint d_fn(void) { return WIDTH; }\n",
        );
        let opts = options(true);
        let mut reporting = CorpusRunner::new(&opts, Arc::clone(&trees.0), jobs);
        let mut opaque = CorpusRunner::new(&opts, Arc::clone(&trees.1), jobs);
        for (label, edit, warm) in steps {
            match edit {
                Some((path, Some(contents))) => {
                    trees.0.edit(path, contents);
                    trees.1.edit(path, contents);
                }
                Some((path, None)) => {
                    trees.0.remove(path);
                    trees.1.remove(path);
                }
                None => {}
            }
            let a = reporting.run(&units, &copts(warm));
            let b = opaque.run(&units, &copts(warm));
            a.check_same(&b, SAME_MODE)
                .unwrap_or_else(|d| panic!("jobs={jobs} {label}: {d}"));
            assert_eq!(
                reporting.shared_cache().len(),
                opaque.shared_cache().len(),
                "jobs={jobs} {label}: artifacts kept"
            );
        }
    }
}

#[test]
fn a_batch_that_changes_one_input_recomputes_every_unit() {
    // One pool over an unedited tree. Each variant differs from the base
    // batch in one input the options signature covers: a lint level, a
    // capture flag, or a profile that keeps its name and adds one
    // built-in. Every variant recomputes every unit, and the base batch
    // after it replays every unit.
    let units = units();
    let n = units.len() as u64;
    let opts = options(true);
    let fs = Arc::new(fixture());
    let mut pool = CorpusRunner::new(&opts, Arc::clone(&fs), 2);
    let gcc = Profile::named("gcc-linux").expect("shipped profile");
    let mut denied = LintOptions::default();
    denied.set_level(LintCode::DeadBranch, LintLevel::Deny);
    let ast = Capture {
        ast: true,
        ..Capture::default()
    };
    let mut extra = gcc.clone();
    extra
        .builtins
        .defs
        .push(("__SUPERC_EXTRA__".to_string(), "1".to_string()));
    let variants = [
        (
            "lint level",
            CorpusOptions {
                lint: Some(denied),
                ..copts(true)
            },
            gcc.clone(),
        ),
        (
            "capture flag",
            CorpusOptions {
                capture: ast,
                ..copts(true)
            },
            gcc.clone(),
        ),
        ("built-in", copts(true), extra),
    ];
    let mut batch = |label: &str, copts: &CorpusOptions, profile: &Profile, hits: u64| {
        let row = std::slice::from_ref(profile);
        let warm = pool.run_profiles(&units, row, copts);
        let cold_opts = CorpusOptions {
            warm: false,
            ..copts.clone()
        };
        let cold = process_corpus_profiles(&*fs, &units, &opts, row, &cold_opts);
        cold.runs[0]
            .check_same(&warm.runs[0], SAME_MODE)
            .unwrap_or_else(|d| panic!("{label}: {d}"));
        assert_eq!(warm.runs[0].unit_memo_hits, hits, "{label}: memo hits");
        assert_eq!(
            warm.runs[0].unit_memo_misses,
            n - hits,
            "{label}: memo misses"
        );
    };
    let base = copts(true);
    batch("base", &base, &gcc, 0);
    batch("base again", &base, &gcc, n);
    for (label, copts, profile) in &variants {
        batch(label, copts, profile, 0);
        batch(&format!("base after {label}"), &base, &gcc, n);
    }
}

#[test]
fn an_entry_that_sat_out_an_edit_recomputes() {
    sat_out_edit::<DriverFs>();
    sat_out_edit::<OpaqueFs>();
}

/// Lint {a.c, b.c}; edit a header only b.c includes; lint {a.c}, whose
/// batch consumes the change set; lint {a.c, b.c}. b.c's entry was last
/// proven before the edit, and the change set that named the edit went
/// to a batch b.c sat out, so b.c must take the full probe and
/// recompute instead of replaying its stale report.
fn sat_out_edit<T: Tree>() {
    let a = vec!["a.c".to_string()];
    let both = vec!["a.c".to_string(), "b.c".to_string()];
    let opts = options(true);
    for jobs in [1usize, 2, 8] {
        let label = format!("tree={} jobs={jobs}", T::NAME);
        let fs = T::fixture();
        fs.edit("include/b.h", "#define B_WIDTH 1\n");
        fs.edit(
            "b.c",
            "#include <b.h>\nint b_fn(void) { return B_WIDTH; }\n",
        );
        let mut pool = CorpusRunner::new(&opts, Arc::clone(&fs), jobs);
        pool.run(&both, &copts(true));
        fs.edit(
            "include/b.h",
            "#define B_WIDTH 2\n#ifdef B_FEATURE\nint b_feature;\n#endif\n",
        );
        let only_a = pool.run(&a, &copts(true));
        assert_eq!(
            (only_a.unit_memo_hits, only_a.unit_memo_misses),
            (1, 0),
            "{label}: a.c replays"
        );
        let warm = pool.run(&both, &copts(true));
        assert_eq!(
            (warm.unit_memo_hits, warm.unit_memo_misses),
            (1, 1),
            "{label}: memo hits and misses"
        );
        assert!(!warm.units[1].memo_hit, "{label}: b.c recomputes");
        let fresh = process_corpus(&*fs, &both, &opts, &copts(false));
        let render = |r| cli::render_lint_report(r, LintFormat::Json, false);
        assert!(
            render(&fresh).stdout.contains("B_FEATURE"),
            "{label}: the edit shows in the response"
        );
        assert_eq!(render(&warm), render(&fresh), "{label}: response");
    }
}

/// A tree whose read of `a.c` panics while armed.
struct PanickyFs {
    tree: DriverFs,
    armed: AtomicBool,
}

impl FileSystem for PanickyFs {
    fn read(&self, path: &str) -> Option<Arc<str>> {
        if path == "a.c" && self.armed.load(Ordering::SeqCst) {
            panic!("read of a.c failed");
        }
        self.tree.read(path)
    }
}

#[test]
fn a_memo_probe_that_panics_leaves_a_panic_row_and_keeps_the_worker() {
    // A memo probe reads the tree inside the per-unit panic firewall,
    // so a panicking read of a.c becomes a "panic" row for that unit:
    // the worker rebuilds that profile's tool and stays in the pool, the
    // rest replay, and the next batch matches a cold run.
    let units = units();
    let opts = options(true);
    let fs = Arc::new(PanickyFs {
        tree: fixture(),
        armed: AtomicBool::new(false),
    });
    let mut pool = CorpusRunner::new(&opts, Arc::clone(&fs), 2);
    pool.run(&units, &copts(true));
    fs.armed.store(true, Ordering::SeqCst);
    let caught = pool.run(&units, &copts(true));
    let stage = caught.units[0].failure.as_ref().map(|f| f.stage.as_str());
    assert_eq!(stage, Some("panic"), "a.c: the firewall caught the read");
    assert!(
        caught.units[1..].iter().all(|u| u.memo_hit),
        "the rest replay"
    );
    fs.armed.store(false, Ordering::SeqCst);
    let healed = pool.run(&units, &copts(true));
    assert_eq!(pool.jobs(), 2, "no worker was lost");
    let cold = process_corpus(&fs.tree, &units, &opts, &copts(false));
    cold.check_same(&healed, SAME_MODE)
        .unwrap_or_else(|d| panic!("after the panic: {d}"));
}
