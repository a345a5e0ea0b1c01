//! The counter declarations and the surfaces derived from them.
//!
//! * Every field of `PpStats`, `ParseStats`, `BddStats` and `CondStats`
//!   is declared exactly once (compared against the struct's `Debug`
//!   field names), so no counter escapes merging, projection or
//!   `--stats`.
//! * `CorpusReport::behavior_counters()` keeps its exact bytes: golden
//!   strings recorded before the declarations existed, over the small
//!   kernelgen corpus and over the robustness fixtures under tight
//!   budgets with one firewalled panic.
//! * The `--stats` table prints every behavior and mode counter, derives
//!   hit rates and counts only panics as firewalled; a single file is a
//!   one-unit corpus run, whose render adds its accepted condition.

use std::collections::BTreeMap;
use std::fmt::Debug;

use superc::analyze::LintOptions;
use superc::bdd::BddStats;
use superc::cli;
use superc::cond::CondStats;
use superc::corpus::{process_corpus, CorpusOptions, CorpusReport};
use superc::counters::{Class, Counted};
use superc::report::corpus_table;
use superc::{Budgets, DiskFs, MemFs, Options, ParseStats, PpStats};
use superc_kernelgen::{generate, CorpusSpec};

/// The field names a struct's derived `Debug` prints for its default
/// value (all scalars zero, histograms empty).
fn debug_fields<S: Default + Debug>() -> Vec<String> {
    let text = format!("{:?}", S::default());
    let body = &text[text.find('{').expect("braced struct") + 1..text.rfind('}').expect("}")];
    body.split(", ")
        .map(|f| f.split(':').next().expect("name").trim().to_string())
        .collect()
}

fn assert_declared_once<S: Counted + Default + Debug>() {
    let mut declared: Vec<String> = S::COUNTERS
        .iter()
        .map(|c| c.name)
        .chain(S::HISTOGRAMS.iter().copied())
        .map(str::to_string)
        .collect();
    declared.sort();
    let mut unique = declared.clone();
    unique.dedup();
    assert_eq!(declared, unique, "{}: a field is declared twice", S::LAYER);
    let mut fields = debug_fields::<S>();
    fields.sort();
    assert_eq!(
        declared,
        fields,
        "{}: declaration vs struct fields",
        S::LAYER
    );
}

#[test]
fn every_stats_field_is_declared_exactly_once() {
    assert_declared_once::<PpStats>();
    assert_declared_once::<ParseStats>();
    assert_declared_once::<BddStats>();
    assert_declared_once::<CondStats>();
}

fn fixture_fs() -> DiskFs {
    DiskFs::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/robustness"
    ))
}

fn fixture_files() -> Vec<String> {
    [
        "bomb.c",
        "deep_nest.c",
        "self_include.c",
        "typedef_maze.c",
        "paste_mess.c",
        "ok.c",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

#[test]
fn behavior_counters_match_the_golden_strings() {
    let corpus = generate(&CorpusSpec::small());
    let copts = CorpusOptions {
        lint: Some(LintOptions::default()),
        ..CorpusOptions::default()
    };
    let small = process_corpus(&corpus.fs, &corpus.units, &Options::default(), &copts);
    assert_eq!(
        small.behavior_counters(),
        "units=6 parsed=6 fatal=0 partial=0 failed=0 output_tokens=3443 \
         output_conditionals=114 conditionals_hoisted=4 shifts=3475 \
         reduces=13264 forks=0 merges=122 choice_nodes=124 reclassify_forks=0 \
         budget_trips=0 budget_killed=0 lints=2"
    );

    // `tests/robustness.rs`'s tight budgets, plus one firewalled panic.
    let options = Options {
        budgets: Budgets {
            max_steps: 400,
            max_include_depth: 8,
            ..Budgets::unlimited()
        },
        ..Options::default()
    };
    let copts = CorpusOptions {
        inject_panic: vec!["paste_mess.c".to_string()],
        ..CorpusOptions::default()
    };
    let robust = process_corpus(&fixture_fs(), &fixture_files(), &options, &copts);
    assert_eq!(
        robust.behavior_counters(),
        "units=6 parsed=4 fatal=1 partial=1 failed=1 output_tokens=163 \
         output_conditionals=105 conditionals_hoisted=0 shifts=129 \
         reduces=651 forks=0 merges=20 choice_nodes=20 reclassify_forks=1 \
         budget_trips=1 budget_killed=2 lints=0"
    );
}

/// A rendered `--stats` table as `name → (class, value)`.
fn rows(report: &CorpusReport) -> BTreeMap<String, (String, String)> {
    corpus_table(report)
        .render()
        .lines()
        .skip(2)
        .map(|line| {
            let cells: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cells.len(), 3, "row {line:?}");
            (
                cells[0].to_string(),
                (cells[1].to_string(), cells[2].to_string()),
            )
        })
        .collect()
}

fn value<'a>(rows: &'a BTreeMap<String, (String, String)>, name: &str) -> &'a str {
    &rows.get(name).unwrap_or_else(|| panic!("no {name} row")).1
}

#[test]
fn stats_table_counts_only_panics_as_firewalled() {
    let fs = MemFs::new()
        .file("ok.c", "int a;\n")
        .file("bad.c", "#error always broken\n")
        .file("boom.c", "int b;\n");
    let units = ["ok.c", "bad.c", "boom.c"].map(String::from);
    let copts = CorpusOptions {
        inject_panic: vec!["boom.c".to_string()],
        ..CorpusOptions::default()
    };
    let report = process_corpus(&fs, &units, &Options::default(), &copts);
    let rows = rows(&report);
    assert_eq!(value(&rows, "corpus.units"), "3");
    assert_eq!(value(&rows, "corpus.parsed"), "1");
    assert_eq!(value(&rows, "corpus.fatal"), "2");
    assert_eq!(value(&rows, "corpus.firewalled"), "1");
    // The fingerprint's `failed=` still counts every failure row.
    assert!(report.behavior_counters().contains(" failed=2 "));
}

#[test]
fn stats_table_prints_every_behavior_and_mode_counter_and_hit_rates() {
    let corpus = generate(&CorpusSpec::small());
    let copts = CorpusOptions {
        jobs: 2,
        ..CorpusOptions::default()
    };
    let report = process_corpus(&corpus.fs, &corpus.units, &Options::default(), &copts);
    let rows = rows(&report);
    fn check<S: Counted>(rows: &BTreeMap<String, (String, String)>, stats: &S) {
        for c in S::COUNTERS {
            let name = format!("{}.{}", S::LAYER, c.name);
            let v = (c.get)(stats);
            match rows.get(&name) {
                Some((class, shown)) => {
                    assert_eq!(class, c.class.name(), "{name}");
                    assert_eq!(shown, &v.to_string(), "{name}");
                }
                None => assert!(
                    v == 0 && matches!(c.class, Class::Schedule | Class::Timing),
                    "{name} ({v}) missing"
                ),
            }
        }
    }
    check(&rows, &report.pp);
    check(&rows, &report.parse);
    check(&rows, &report.cond);
    check(&rows, &report.bdd.expect("bdd backend"));
    let pp = &report.pp;
    let probes = pp.condexpr_memo_hits + pp.condexpr_memo_misses;
    assert!(probes > 0, "the corpus never evaluated an #if");
    let rate = format!("{:.3}", pp.condexpr_memo_hits as f64 / probes as f64);
    assert_eq!(value(&rows, "cpp.condexpr_memo_hit_rate"), rate);
    assert!(rows.contains_key("bdd.cache_hit_rate"));
    assert!(
        !rows.contains_key("cpp.expansion_memo_hit_rate"),
        "no misses counter"
    );
}

#[test]
fn single_file_table_matches_a_one_unit_corpus_run() {
    // `superc t.c` is a one-unit corpus batch: its render carries the
    // accepted condition, and its table the unit's own counters.
    let src = "#ifdef CONFIG_WIDE\ntypedef long T;\n#else\nint T;\n#endif\nT * p;\n";
    let fs = MemFs::new().file("t.c", src);
    let units = ["t.c".to_string()];
    let report = process_corpus(&fs, &units, &Options::default(), &CorpusOptions::default());
    let rendered = cli::render_corpus_report(&report, false, true);
    assert!(
        rendered
            .stderr
            .ends_with("t.c: parses only under defined(CONFIG_WIDE)\n"),
        "{}",
        rendered.stderr
    );
    assert!(rendered.stdout.ends_with(&corpus_table(&report).render()));
    assert_eq!(value(&rows(&report), "fmlr.forks"), "1");
}
