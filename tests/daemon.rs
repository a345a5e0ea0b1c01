//! The `superc daemon` NDJSON protocol, driven in-process: every parse
//! and lint response must be **byte-identical to a fresh one-shot CLI
//! run over the same tree** (the same render functions the binary
//! prints with), across jobs {1, 2, 8}, warm replays, disk edits, and
//! the cross-profile grid. `scripts/verify.sh` repeats the same checks
//! end-to-end against the real binary over stdin/stdout.
//!
//! Disk-rooted drivers revalidate every path per request (their
//! resolver cannot say what changed); a resolver-less driver stages
//! every file itself and revalidates only the staged paths. Both are
//! covered here.

use std::fs;
use std::path::PathBuf;

use superc::analyze::render::json_str;
use superc::analyze::{LintCode, LintLevel, LintOptions};
use superc::cli::{self, LintFormat};
use superc::corpus::{process_corpus, process_corpus_profiles, CorpusOptions, MEMO_MAX_AGE};
use superc::service::{daemon, Driver, DriverFs};
use superc::{DiskFs, Options, Profile};
use superc_util::json::Json;

/// The fixture tree: a leaf header only `a.c` includes and a two-level
/// chain every unit includes.
const FIXTURE: [(&str, &str); 6] = [
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
];

/// A scratch tree on disk (the daemon serves the working directory, so
/// the fixture must be real files).
struct Tree {
    root: PathBuf,
}

impl Tree {
    fn new(tag: &str) -> Tree {
        let root = std::env::temp_dir().join(format!("superc-daemon-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("include")).expect("mkdir fixture");
        let tree = Tree { root };
        for (path, contents) in FIXTURE {
            tree.write(path, contents);
        }
        tree
    }

    fn write(&self, path: &str, contents: &str) {
        fs::write(self.root.join(path), contents).expect("write fixture file");
    }

    fn root_str(&self) -> &str {
        self.root.to_str().expect("utf-8 temp path")
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn units() -> Vec<String> {
    vec!["a.c".to_string(), "b.c".to_string(), "c.c".to_string()]
}

/// Sends one request line, expecting `"ok":true`; returns the response.
fn request(driver: &mut Driver, line: &str) -> Json {
    let (response, quit) = daemon::handle_line(driver, line);
    assert!(!quit, "unexpected shutdown for {line}");
    let json = Json::parse(&response).expect("well-formed response line");
    assert_eq!(
        json.get("ok").and_then(Json::as_bool),
        Some(true),
        "request {line} failed: {response}"
    );
    json
}

/// Asserts a parse/lint response carries exactly the fresh one-shot
/// bytes.
fn assert_rendered(label: &str, response: &Json, want: &cli::Rendered) {
    assert_eq!(
        response.get("stdout").and_then(Json::as_str),
        Some(want.stdout.as_str()),
        "{label}: stdout bytes"
    );
    assert_eq!(
        response.get("stderr").and_then(Json::as_str),
        Some(want.stderr.as_str()),
        "{label}: stderr bytes"
    );
    assert_eq!(
        response.get("failed").and_then(Json::as_bool),
        Some(want.failed),
        "{label}: failed flag"
    );
}

#[test]
fn daemon_responses_match_fresh_one_shot_runs_across_jobs() {
    let units = units();
    let unit_list = "\"a.c\",\"b.c\",\"c.c\"";
    for jobs in [1usize, 2, 8] {
        let label = format!("jobs={jobs}");
        let tree = Tree::new(&format!("j{jobs}"));
        let fresh_fs = DiskFs::new(tree.root.clone());
        let mut driver = Driver::with_disk_root(Options::default(), jobs, tree.root_str());
        driver.end_generation().expect("commit the empty overlay");

        // parse: byte-identical to `superc a.c b.c c.c` over the tree.
        let response = request(
            &mut driver,
            &format!("{{\"cmd\":\"parse\",\"units\":[{unit_list}]}}"),
        );
        let reference = process_corpus(
            &fresh_fs,
            &units,
            &Options::default(),
            &CorpusOptions::default(),
        );
        assert_rendered(
            &label,
            &response,
            &cli::render_corpus_report(&reference, false, false),
        );

        // lint (all three formats): byte-identical to
        // `superc lint --format <f> ...` over the tree.
        let lint_reference = || {
            let copts = CorpusOptions {
                lint: Some(LintOptions::default()),
                ..CorpusOptions::default()
            };
            process_corpus(&fresh_fs, &units, &Options::default(), &copts)
        };
        for (name, format) in [
            ("text", LintFormat::Text),
            ("json", LintFormat::Json),
            ("sarif", LintFormat::Sarif),
        ] {
            let response = request(
                &mut driver,
                &format!("{{\"cmd\":\"lint\",\"units\":[{unit_list}],\"format\":\"{name}\"}}"),
            );
            let want = cli::render_lint_report(&lint_reference(), format, false);
            assert_rendered(&format!("{label} format={name}"), &response, &want);
        }

        // Disk edit + notify-only edit request: the next batch must
        // recompute the edited closure and still match a fresh run.
        tree.write("include/leaf.h", "int leaf_decl(int);\n#define LEAF 2\n");
        let response = request(
            &mut driver,
            "{\"cmd\":\"edit\",\"path\":\"include/leaf.h\"}",
        );
        assert_eq!(
            response.get("stdout").and_then(Json::as_str),
            Some("generation 2\n"),
            "{label}: edit response"
        );
        let response = request(
            &mut driver,
            &format!("{{\"cmd\":\"lint\",\"units\":[{unit_list}],\"format\":\"json\"}}"),
        );
        let want = cli::render_lint_report(&lint_reference(), LintFormat::Json, false);
        assert_rendered(&format!("{label} after edit"), &response, &want);
        let stats = request(&mut driver, "{\"cmd\":\"stats\"}");
        assert_eq!(
            stats.get("unit_memo_hits").and_then(Json::as_f64),
            Some(2.0),
            "{label}: b.c and c.c replay after the leaf edit"
        );

        // Shadowing header: create a file at a formerly-failed include
        // probe path (bare `leaf.h` precedes `include/leaf.h` for
        // `#include <leaf.h>`). Negative-dependency fingerprints must
        // force a.c to recompute — and the bytes must match fresh.
        tree.write(
            "leaf.h",
            "int leaf_decl(int);\nint leaf_shadow;\n#define LEAF 7\n",
        );
        request(&mut driver, "{\"cmd\":\"edit\",\"path\":\"leaf.h\"}");
        let response = request(
            &mut driver,
            &format!("{{\"cmd\":\"lint\",\"units\":[{unit_list}],\"format\":\"json\"}}"),
        );
        let want = cli::render_lint_report(&lint_reference(), LintFormat::Json, false);
        assert_rendered(&format!("{label} after shadowing edit"), &response, &want);
        let stats = request(&mut driver, "{\"cmd\":\"stats\"}");
        assert_eq!(
            stats.get("unit_memo_misses").and_then(Json::as_f64),
            Some(1.0),
            "{label}: only a.c walks past the shadow path"
        );

        // Cross-profile grid.
        let profiles: Vec<Profile> = ["gcc-linux", "clang-linux", "msvc-windows"]
            .iter()
            .map(|n| Profile::named(n).expect("shipped profile"))
            .collect();
        let response = request(
            &mut driver,
            &format!(
                "{{\"cmd\":\"lint\",\"units\":[{unit_list}],\"format\":\"json\",\
                 \"profiles\":[\"gcc-linux\",\"clang-linux\",\"msvc-windows\"]}}"
            ),
        );
        let copts = CorpusOptions {
            lint: Some(LintOptions::default()),
            ..CorpusOptions::default()
        };
        let reference =
            process_corpus_profiles(&fresh_fs, &units, &Options::default(), &profiles, &copts);
        let want =
            cli::render_lint_profiles(&reference, LintFormat::Json, &LintOptions::default(), false);
        assert_rendered(&format!("{label} profiles"), &response, &want);

        // Shutdown ends the session.
        let (response, quit) = daemon::handle_line(&mut driver, "{\"cmd\":\"shutdown\"}");
        assert!(quit, "{label}: shutdown must stop the loop");
        assert!(
            response.contains("\"shutdown\":true"),
            "{label}: {response}"
        );
    }
}

/// A unit with one finding of each kind a report keeps with its
/// condition: a missing include (a warning), a conditional `#error`, and
/// a conditional syntax error, which leaves the unit parsing under some
/// configurations only.
const FINDINGS: &str = "#include \"missing.h\"\n#ifdef CONFIG_BROKEN\n#error broken\n#endif\n\
                        #ifdef CONFIG_A\nint a = ;\n#endif\nint f;\n";

#[test]
fn one_unit_parse_keeps_warnings_conditions_and_the_accepted_condition() {
    let tree = Tree::new("findings");
    tree.write("f.c", FINDINGS);
    let mut driver = Driver::with_disk_root(Options::default(), 2, tree.root_str());
    driver.end_generation().expect("commit the empty overlay");
    let one = request(&mut driver, "{\"cmd\":\"parse\",\"units\":[\"f.c\"]}");
    let fresh = process_corpus(
        &DiskFs::new(tree.root.clone()),
        &["f.c".to_string()],
        &Options::default(),
        &CorpusOptions::default(),
    );
    let want = cli::render_corpus_report(&fresh, false, false);
    assert_rendered("one unit", &one, &want);
    for line in [
        "f.c: [Warning] f.c:1:1: include not found: missing.h (config true)\n",
        "f.c: [Error] f.c:3:1: #error broken (config defined(CONFIG_BROKEN))\n",
        "f.c: parses only under !defined(CONFIG_A)\n",
    ] {
        assert!(want.stderr.contains(line), "{line:?} in {:?}", want.stderr);
    }
    // Beside another unit, the unit prints the same lines.
    let two = request(
        &mut driver,
        "{\"cmd\":\"parse\",\"units\":[\"f.c\",\"a.c\"]}",
    );
    let stderr = two.get("stderr").and_then(Json::as_str).expect("stderr");
    let mine: String = stderr
        .lines()
        .filter(|l| l.starts_with("f.c: "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(mine, want.stderr);
}

/// The number a `stats` response reports under `key`.
fn stat(stats: &Json, key: &str) -> Option<f64> {
    stats.get(key).and_then(Json::as_f64)
}

#[test]
fn resolverless_driver_revalidates_only_the_staged_paths() {
    let units = units();
    let lint = "{\"cmd\":\"lint\",\"units\":[\"a.c\",\"b.c\",\"c.c\"],\"format\":\"json\"}";
    let lint_copts = CorpusOptions {
        lint: Some(LintOptions::default()),
        ..CorpusOptions::default()
    };
    for jobs in [1usize, 2, 8] {
        let mut driver = Driver::new(Options::default(), jobs);
        // The same tree for fresh one-shot references, edited in step.
        let mirror = DriverFs::new();
        for (path, contents) in FIXTURE {
            driver
                .set_file(path, contents)
                .expect("generation 1 is open");
            mirror.set(path, contents);
        }
        driver.end_generation().expect("commit the staged tree");

        // Lints all units; the response must be the fresh run's bytes,
        // and the batch must have recomputed `misses` units and hashed
        // `rehashed` files.
        let check = |driver: &mut Driver, step: &str, misses: f64, rehashed: f64| {
            let label = format!("jobs={jobs} {step}");
            let response = request(driver, lint);
            let fresh = process_corpus(&mirror, &units, &Options::default(), &lint_copts);
            let want = cli::render_lint_report(&fresh, LintFormat::Json, false);
            assert_rendered(&label, &response, &want);
            let stats = request(driver, "{\"cmd\":\"stats\"}");
            assert_eq!(
                stat(&stats, "unit_memo_misses"),
                Some(misses),
                "{label}: misses"
            );
            assert_eq!(
                stat(&stats, "unit_memo_hits"),
                Some(3.0 - misses),
                "{label}: hits"
            );
            assert_eq!(
                stat(&stats, "files_rehashed"),
                Some(rehashed),
                "{label}: files rehashed"
            );
        };
        let edit = |driver: &mut Driver, path: &str, contents: &str| {
            mirror.set(path, contents);
            request(
                driver,
                &format!(
                    "{{\"cmd\":\"edit\",\"path\":{},\"contents\":{}}}",
                    json_str(path),
                    json_str(contents)
                ),
            );
        };

        check(&mut driver, "fill", 3.0, 6.0);
        // A staged header edit: only a.c includes the leaf header, and
        // only that header is read again.
        edit(
            &mut driver,
            "include/leaf.h",
            "int leaf_decl(int);\n#define LEAF 2\n",
        );
        check(&mut driver, "leaf edit", 1.0, 1.0);
        // A new file at a.c's failed probe path shadows the leaf header.
        edit(
            &mut driver,
            "leaf.h",
            "int leaf_decl(int);\nint leaf_shadow;\n#define LEAF 7\n",
        );
        check(&mut driver, "shadowing file", 1.0, 1.0);
        // Removing it sends a.c back to include/leaf.h, whose hash is
        // still trusted: a missing path is not a rehash.
        mirror.tombstone("leaf.h");
        request(
            &mut driver,
            "{\"cmd\":\"edit\",\"path\":\"leaf.h\",\"remove\":true}",
        );
        check(&mut driver, "remove", 1.0, 0.0);
        // A resolver can change what it serves unannounced: the next
        // batch rehashes the full closure, with nothing recomputed.
        driver.set_resolver(Box::new(|_| Ok(None)));
        check(&mut driver, "resolver installed", 0.0, 6.0);
        check(&mut driver, "resolver still installed", 0.0, 6.0);
        // Clearing it revalidates in full once more, then staged edits
        // are targeted again.
        driver.fs().set_resolver(None);
        check(&mut driver, "resolver cleared", 0.0, 6.0);
        edit(
            &mut driver,
            "b.c",
            "#include <deep.h>\nint b_fn(void) { return WIDTH + 1; }\n",
        );
        check(&mut driver, "unit edit", 1.0, 1.0);
    }
}

/// Units whose lints fire: `d.c` tests a macro nothing defines, `e.c`
/// has a branch no configuration takes, and both include the shared
/// chain, so header edits reach them too.
const LINTED: [(&str, &str); 2] = [
    (
        "d.c",
        "#include <deep.h>\n#ifdef NOT_DEFINED\nint d_extra;\n#endif\nint d_fn(void) { return WIDTH; }\n",
    ),
    (
        "e.c",
        "#include <deep.h>\n#ifdef CONFIG_E\n#ifndef CONFIG_E\nint e_dead;\n#endif\n#endif\nint e_fn(void) { return 0; }\n",
    ),
];

#[test]
fn resolverless_driver_renders_every_format_and_option_set_like_one_shot() {
    // One session alternates formats and lint options (one set denies a
    // lint that fires) with edits in between. The driver keeps each
    // unit's rendered records while the memo replays the unit, so a
    // response joins kept and fresh fragments; every response must
    // still be the bytes of a fresh one-shot render.
    let units: Vec<String> = ["a.c", "b.c", "c.c", "d.c", "e.c"]
        .iter()
        .map(|u| u.to_string())
        .collect();
    let mut deny = LintOptions::default();
    deny.set_level(LintCode::UndefMacroTest, LintLevel::Deny);
    let option_sets = [LintOptions::default(), deny];
    // A format twice in a row reuses the last response's fragments; a
    // round ends in the format it starts with, and the option sets swap
    // order every round, so the same format and options meet across an
    // option switch and across every edit.
    let formats = [
        LintFormat::Json,
        LintFormat::Json,
        LintFormat::Text,
        LintFormat::Text,
        LintFormat::Sarif,
        LintFormat::Json,
    ];
    let edits: [(&str, Option<&str>); 4] = [
        ("include/leaf.h", Some("int leaf_decl(int);\n#define LEAF 2\n")),
        (
            "d.c",
            Some("#include <deep.h>\n#ifdef NOT_DEFINED_EITHER\nint d_x;\n#endif\nint d_fn(void) { return 1; }\n"),
        ),
        ("include/deeper.h", Some("#define WIDTH 4\n")),
        ("e.c", None),
    ];
    for jobs in [1usize, 2, 8] {
        let mut driver = Driver::new(Options::default(), jobs);
        let mirror = DriverFs::new();
        for (path, contents) in FIXTURE.iter().chain(&LINTED) {
            driver
                .set_file(path, contents)
                .expect("generation 1 is open");
            mirror.set(path, contents);
        }
        driver.end_generation().expect("commit the staged tree");
        let (mut denied, mut warned) = (false, false);
        for round in 0..=edits.len() {
            let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
            for o in order {
                let opts = &option_sets[o];
                for format in formats {
                    let label = format!("jobs={jobs} round={round} options={o} {format:?}");
                    let got = driver
                        .lint_rendered(&units, format, &[], opts, false)
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    let copts = CorpusOptions {
                        lint: Some(opts.clone()),
                        ..CorpusOptions::default()
                    };
                    let fresh = process_corpus(&mirror, &units, &Options::default(), &copts);
                    assert_eq!(
                        got,
                        cli::render_lint_report(&fresh, format, false),
                        "{label}"
                    );
                    denied |= got.failed;
                    warned |= format == LintFormat::Text && got.stdout.contains("warning[");
                }
            }
            if let Some(&(path, contents)) = edits.get(round) {
                driver.begin_generation().expect("no generation open");
                match contents {
                    Some(contents) => {
                        driver.set_file(path, contents).expect("open");
                        mirror.set(path, contents);
                    }
                    None => {
                        driver.remove_file(path).expect("open");
                        mirror.tombstone(path);
                    }
                }
                driver.end_generation().expect("open");
            }
        }
        assert!(
            denied && warned,
            "jobs={jobs}: the deny set failed a run and lints fired"
        );
    }
}

#[test]
fn unit_memo_drops_entries_unproven_for_max_age_generations() {
    // Lint {a, b}, then only {a} for `gap` batches, then {b}: b's entry
    // was last proven before the gap, so it replays while the gap stays
    // under MEMO_MAX_AGE and recomputes once the gap is past it.
    let (a, b) = (vec!["a.c".to_string()], vec!["b.c".to_string()]);
    let both = vec!["a.c".to_string(), "b.c".to_string()];
    let opts = LintOptions::default();
    let copts = CorpusOptions {
        lint: Some(opts.clone()),
        ..CorpusOptions::default()
    };
    for (gap, replays) in [(MEMO_MAX_AGE - 1, true), (MEMO_MAX_AGE + 1, false)] {
        let mut driver = Driver::new(Options::default(), 2);
        let mirror = DriverFs::new();
        for (path, contents) in FIXTURE {
            driver
                .set_file(path, contents)
                .expect("generation 1 is open");
            mirror.set(path, contents);
        }
        driver.end_generation().expect("commit the staged tree");
        let lint = |driver: &mut Driver, units: &[String]| {
            driver
                .lint_rendered(units, LintFormat::Json, &[], &opts, false)
                .expect("lint")
        };
        lint(&mut driver, &both);
        for _ in 0..gap {
            lint(&mut driver, &a);
        }
        let got = lint(&mut driver, &b);
        let stats = driver.stats();
        let label = format!("gap={gap}");
        assert_eq!(
            stats.unit_memo_misses,
            u64::from(!replays),
            "{label}: misses"
        );
        assert_eq!(stats.unit_memo_hits, u64::from(replays), "{label}: hits");
        let fresh = process_corpus(&mirror, &b, &Options::default(), &copts);
        assert_eq!(
            got,
            cli::render_lint_report(&fresh, LintFormat::Json, false),
            "{label}"
        );
    }
}

#[test]
fn daemon_rejects_malformed_requests_without_dying() {
    use std::io::{BufReader, Cursor, Read};
    let tree = Tree::new("errors");
    let mut driver = Driver::with_disk_root(Options::default(), 2, tree.root_str());
    driver.end_generation().expect("commit");
    let deep = "[".repeat(200_000);
    let rejected = [
        ("not json at all", "bad request"),
        (deep.as_str(), "nesting deeper than"),
        ("{\"units\":[\"a.c\"]}", "needs a \"cmd\""),
        ("{\"cmd\":\"levitate\"}", "unknown cmd"),
        ("{\"cmd\":\"parse\"}", "units"),
        (
            "{\"cmd\":\"lint\",\"units\":[\"a.c\"],\"format\":\"yaml\"}",
            "unknown format",
        ),
        (
            "{\"cmd\":\"lint\",\"units\":[\"a.c\"],\"profiles\":[\"dos\"]}",
            "unknown profile",
        ),
        ("{\"cmd\":\"edit\"}", "needs a \"path\""),
    ];
    // Every rejected line, a line that is not UTF-8, and a line past
    // the length bound (streamed, never built), then two requests that
    // must still be served.
    let mut head = Vec::new();
    for (line, _) in rejected {
        head.extend_from_slice(line.as_bytes());
        head.push(b'\n');
    }
    head.extend_from_slice(b"\xff\xfe\n");
    let overlong = std::io::repeat(b' ').take(daemon::MAX_LINE_BYTES as u64 + 1);
    let tail = "\n{\"cmd\":\"parse\",\"units\":[\"a.c\"]}\n{\"cmd\":\"stats\"}\n";
    let input = Cursor::new(head).chain(overlong).chain(tail.as_bytes());
    let mut output = Vec::new();
    daemon::serve(&mut driver, BufReader::new(input), &mut output).expect("in-memory I/O");
    let output = String::from_utf8(output).expect("UTF-8 responses");
    let responses: Vec<Json> = output
        .lines()
        .map(|r| Json::parse(r).expect("well-formed response line"))
        .collect();
    let needles = rejected
        .iter()
        .map(|r| r.1)
        .chain(["not UTF-8", "longer than"]);
    assert_eq!(responses.len(), rejected.len() + 4, "one response per line");
    for (json, needle) in responses.iter().zip(needles) {
        assert_eq!(
            json.get("ok").and_then(Json::as_bool),
            Some(false),
            "{needle}"
        );
        let err = json.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(err.contains(needle), "{needle}: got error {err:?}");
    }
    // The session still works after every rejected request.
    let [.., parse, stats] = &responses[..] else {
        unreachable!("counted above")
    };
    assert_eq!(parse.get("failed").and_then(Json::as_bool), Some(false));
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(stat(stats, "batches"), Some(1.0), "only the parse ran");
    // The nesting bound, not the thread's stack size, stops the parser.
    let rejected = std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(move || Json::parse(&deep).is_err())
        .expect("spawn a small-stack thread")
        .join()
        .expect("the parse returns");
    assert!(rejected);
}
