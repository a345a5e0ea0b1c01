//! Differential oracle for the deterministic fast path.
//!
//! The fast path (`ParserConfig::fastpath` + `PpOptions::fuse_lexing`,
//! `--no-fastpath` on the CLI) is a pure scheduling change: while the
//! subparser the engine pulled leads the queue — its head strictly
//! before every queued head — the engine steps it on a scratch stack
//! with no priority queue and no merge probes, and conditional-free text
//! runs stream past the expansion queue. This suite is the proof
//! obligation:
//! every fixture corpus — the lint fixtures, the pathological
//! robustness fixtures under tight budgets, and the 128-unit kernelgen
//! corpus — runs through the full {fastpath on/off} × {jobs 1/2/8} ×
//! {shared cache on/off} matrix, and every schedule-invariant surface
//! must be byte-identical: per-unit preprocessor and parser counters,
//! lint records, diagnostics, errors, degradations, and ASTs unparsed
//! under sampled configurations.
//!
//! The only counters allowed to differ between fastpath on and off are
//! the gauges that *define* the difference: `merge_probes` (the general
//! loop probes the merge index on every step; the fast path never
//! does), the `fastpath_*` gauges, and the preprocessor's
//! `fused_tokens`. Their declarations class them `mode`, so an on/off
//! pair is compared on the `behavior` class alone and cells in one mode
//! on both.
//!
//! Presence conditions are compared two ways: the canonically rendered
//! text inside lint records and degradations is byte-compared, and the
//! accepted-configuration conditions are additionally compared by BDD
//! *evaluation* over every assignment of the configuration variables the
//! fixtures test — semantic equivalence that does not lean on the
//! renderer.
//!
//! Unit tests at the bottom pin the `fastpath_entries`/`fastpath_exits`
//! transitions at the four stretch-ending events: static conditionals,
//! reaching the head of a queued subparser, ambiguous typedef
//! reclassification, and budget trips — including a trip inside a
//! stretch that runs while another subparser is queued.

use superc::analyze::LintOptions;
use superc::corpus::{process_corpus, Capture, CorpusOptions};
use superc::counters::{project, Class};
use superc::{BudgetKind, Budgets, DiskFs, MemFs, Options, PpOptions, Profile, SuperC};
use superc_kernelgen::{generate, CorpusSpec};

/// Baseline options with the fast path (parser + fused lexing) switched
/// together, the way `--no-fastpath` switches them.
fn options(fastpath: bool, budgets: Budgets) -> Options {
    let mut o = Options {
        pp: PpOptions {
            profile: Profile::default(),
            ..PpOptions::default()
        },
        budgets,
        ..Options::default()
    };
    o.parser.fastpath = fastpath;
    o.pp.fuse_lexing = fastpath;
    o
}

/// The fast path changes only how work is scheduled: a fastpath on/off
/// pair agrees on every behavior counter, and runs in one mode agree on
/// the mode counters too.
const ACROSS_MODES: &[Class] = &[Class::Behavior];
const SAME_MODE: &[Class] = &[Class::Behavior, Class::Mode];

/// Runs one corpus through the full matrix and compares every cell
/// against the fastpath-on, jobs=1, cache-on base run.
fn matrix(
    fs: &(impl superc::FileSystem + Sync),
    units: &[String],
    budgets: Budgets,
    copts: &CorpusOptions,
) {
    let run = |fastpath: bool, jobs: usize, no_cache: bool| {
        let copts = CorpusOptions {
            jobs,
            no_shared_cache: no_cache,
            capture: copts.capture.clone(),
            lint: copts.lint.clone(),
            inject_panic: Vec::new(),
            portability: false,
            warm: false,
        };
        process_corpus(fs, units, &options(fastpath, budgets), &copts)
    };
    let base = run(true, 1, false);
    // The base run must actually exercise the fast path, or the whole
    // matrix proves nothing.
    assert!(
        base.parse.fastpath_entries > 0 && base.parse.fastpath_tokens > 0,
        "fast path never entered on this corpus"
    );
    assert!(base.pp.fused_tokens > 0, "fused lexing never fired");
    for fastpath in [true, false] {
        for jobs in [1usize, 2, 8] {
            for no_cache in [false, true] {
                if fastpath && jobs == 1 && !no_cache {
                    continue; // that run *is* the base
                }
                let other = run(fastpath, jobs, no_cache);
                if !fastpath {
                    assert_eq!(
                        other.parse.fastpath_entries + other.parse.fastpath_tokens,
                        0,
                        "fastpath counters nonzero with the fast path off"
                    );
                    assert_eq!(other.pp.fused_tokens, 0, "fused tokens with fusion off");
                }
                let label = format!(
                    "fastpath={fastpath} jobs={jobs} cache={}",
                    if no_cache { "off" } else { "on" }
                );
                let keep = if fastpath { SAME_MODE } else { ACROSS_MODES };
                base.check_same(&other, keep)
                    .unwrap_or_else(|d| panic!("{label}: {d}"));
            }
        }
    }
}

#[test]
fn lint_fixture_corpus_is_fastpath_invariant() {
    let fs = DiskFs::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/lint"));
    let units: Vec<String> = [
        "clean_header.c",
        "clean_variants.c",
        "config_redecl.c",
        "dead_branch.c",
        "macro_conflict.c",
        "partial_parse.c",
        "undef_macro.c",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let copts = CorpusOptions {
        lint: Some(LintOptions::default()),
        capture: Capture {
            preprocessed: true,
            ast: true,
            unparse_configs: vec![
                vec![],
                vec!["CONFIG_A".into()],
                vec!["CONFIG_B".into()],
                vec!["CONFIG_A".into(), "CONFIG_B".into(), "CONFIG_C".into()],
            ],
        },
        ..CorpusOptions::default()
    };
    matrix(&fs, &units, Budgets::unlimited(), &copts);
}

#[test]
fn robustness_fixture_corpus_is_fastpath_invariant_under_tight_budgets() {
    let fs = DiskFs::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/robustness"
    ));
    let units: Vec<String> = [
        "bomb.c",
        "deep_nest.c",
        "self_include.c",
        "typedef_maze.c",
        "paste_mess.c",
        "ok.c",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    // The same deterministic budgets tests/robustness.rs uses: the
    // hostile fixtures must degrade *identically* with the fast path on
    // and off — a budget trip inside a fast stretch must be counted and
    // condition-scoped exactly like one in the general loop.
    let budgets = Budgets {
        max_steps: 400,
        max_include_depth: 8,
        ..Budgets::unlimited()
    };
    matrix(&fs, &units, budgets, &CorpusOptions::default());
}

#[test]
fn kernelgen_corpus_is_fastpath_invariant() {
    let corpus = generate(&CorpusSpec::kernel().units(128));
    let copts = CorpusOptions {
        lint: Some(LintOptions::default()),
        capture: Capture {
            preprocessed: false,
            ast: false,
            unparse_configs: vec![
                vec![],
                vec!["CONFIG_SMP".into(), "CONFIG_64BIT".into()],
                vec!["CONFIG_64BIT".into(), "CONFIG_DEBUG".into()],
            ],
        },
        ..CorpusOptions::default()
    };
    matrix(&corpus.fs, &corpus.units, Budgets::unlimited(), &copts);
}

/// Semantic (not textual) equivalence of accepted-configuration
/// conditions: evaluate both engines' conditions over every assignment
/// of the tested configuration variables. This does not lean on the
/// canonical renderer, so a renderer bug cannot mask a condition drift.
#[test]
fn accepted_conditions_are_bdd_equivalent_across_engines() {
    let src = "\
#if defined(CONFIG_A)\n\
typedef int T;\n\
#endif\n\
#if defined(CONFIG_B)\n\
int b_only;\n\
#else\n\
long not_b;\n\
#endif\n\
int tail;\n";
    let fs = MemFs::new().file("u.c", src);
    let vars = ["defined(CONFIG_A)", "defined(CONFIG_B)"];
    let conds = |fastpath: bool| {
        let mut sc = SuperC::new(options(fastpath, Budgets::unlimited()), fs.clone());
        let p = sc.process("u.c").expect("processes");
        let accepted = p.result.accepted.expect("accepted condition");
        // Truth table over the tested vars, in assignment order.
        (0..1u32 << vars.len())
            .map(|bits| {
                accepted.eval(|name| {
                    vars.iter()
                        .position(|v| *v == name)
                        .map(|i| bits & (1 << i) != 0)
                })
            })
            .collect::<Vec<bool>>()
    };
    assert_eq!(
        conds(true),
        conds(false),
        "accepted conditions diverge between engines"
    );
}

// ---------------------------------------------------------------------
// Transition pins: exact fastpath_entries/fastpath_exits at each kind of
// stretch boundary. These values are deterministic per unit (never
// schedule-dependent), so they pin exactly.
// ---------------------------------------------------------------------

fn process_one(src: &str, fastpath: bool, budgets: Budgets) -> superc::ProcessedUnit {
    let fs = MemFs::new().file("u.c", src);
    let mut sc = SuperC::new(options(fastpath, budgets), fs);
    sc.process("u.c").expect("processes")
}

#[test]
fn conditional_free_unit_runs_entirely_in_the_fast_path() {
    let src = "int a = 1;\nlong f(long x) { return x * 3 + a; }\n";
    let p = process_one(src, true, Budgets::unlimited());
    let s = &p.result.stats;
    assert!(p.result.errors.is_empty(), "{:?}", p.result.errors);
    // One stretch, entered once, never exited: the accept happens inside
    // the fast path (termination is not an exit).
    assert_eq!(s.fastpath_entries, 1, "{s:?}");
    assert_eq!(s.fastpath_exits, 0, "{s:?}");
    // Every shift of the parse happened on the scratch stack.
    assert_eq!(s.fastpath_tokens, s.shifts, "{s:?}");
    assert!(s.fastpath_tokens > 0);
    // No conditionals and no macros: every output token was fused past
    // the expansion queue.
    assert_eq!(p.unit.stats.fused_tokens, p.unit.stats.output_tokens);
}

#[test]
fn static_conditional_ends_and_restarts_the_stretch() {
    let src = "\
int before;\n\
#if defined(CONFIG_X)\n\
int inside;\n\
#endif\n\
int after;\n";
    let p = process_one(src, true, Budgets::unlimited());
    let s = &p.result.stats;
    assert!(p.result.errors.is_empty(), "{:?}", p.result.errors);
    assert!(
        s.max_subparsers > 1 && s.merges > 0,
        "conditional must split and re-merge subparsers: {s:?}"
    );
    // Six stretches, five exits:
    // 1. `int before;` ends at the conditional (scratch stack persisted).
    // 2. After the fork, `inside ;` runs while the !CONFIG_X subparser
    //    is queued at `int after`, and stops on reaching that head.
    // 3–5. Both subparsers now share that head, so each reduce that
    //    brings them to a common state is a one-step stretch.
    // 6. After the merge, one stretch carries the parse to the accept.
    assert_eq!(s.fastpath_entries, 6, "{s:?}");
    assert_eq!(s.fastpath_exits, 5, "{s:?}");
    // Both engines produce the same AST and acceptance.
    let q = process_one(src, false, Budgets::unlimited());
    assert_eq!(q.result.stats.fastpath_entries, 0);
    assert_eq!(
        p.result.ast.as_ref().map(|a| a.to_string()),
        q.result.ast.as_ref().map(|a| a.to_string())
    );
}

#[test]
fn ambiguous_typedef_ends_the_stretch() {
    // `T` is a typedef name only under CONFIG_T: classification splits,
    // which the fast path must decline (it would fork), handing the
    // token back to the general engine.
    let src = "\
#if defined(CONFIG_T)\n\
typedef int T;\n\
#else\n\
int T;\n\
#endif\n\
int a;\n\
int b;\n\
T x;\n\
int tail;\n";
    let p = process_one(src, true, Budgets::unlimited());
    let s = &p.result.stats;
    assert!(
        s.reclassify_forks > 0,
        "fixture must force a typedef split: {s:?}"
    );
    // The stretch over `int a; int b;` is live when it peeks `T`: the
    // ambiguous classification declines mid-stretch, so the scratch
    // stack persists and an exit is counted there.
    assert!(s.fastpath_exits >= 1, "{s:?}");
    let q = process_one(src, false, Budgets::unlimited());
    assert_eq!(
        project(s, ACROSS_MODES),
        project(&q.result.stats, ACROSS_MODES),
        "typedef-split behavior drifted"
    );
}

#[test]
fn budget_trip_inside_a_stretch_degrades_identically() {
    // A conditional-free unit long enough to blow a tiny step budget
    // while inside the fast path: the trip must be recorded exactly as
    // the general engine records it — same trip kind, same condition,
    // same partial outcome — and the killed stretch is not an "exit".
    let src = {
        let mut s = String::from("int acc;\nvoid f(void) {\n");
        for i in 0..200 {
            s.push_str(&format!("    acc = acc * {} + {i};\n", (i % 7) + 2));
        }
        s.push_str("}\n");
        s
    };
    let budgets = Budgets {
        max_steps: 50,
        ..Budgets::unlimited()
    };
    let p = process_one(&src, true, budgets);
    let q = process_one(&src, false, budgets);
    let (s, t) = (&p.result.stats, &q.result.stats);
    assert!(s.budget_trips > 0, "budget never tripped: {s:?}");
    assert_eq!(s.fastpath_entries, 1, "{s:?}");
    assert_eq!(s.fastpath_exits, 0, "a budget kill is not an exit: {s:?}");
    assert_eq!(
        project(s, ACROSS_MODES),
        project(t, ACROSS_MODES),
        "trip drifted"
    );
    assert_eq!(
        p.result.trips.len(),
        q.result.trips.len(),
        "trip records drifted"
    );
    for (a, b) in p.result.trips.iter().zip(&q.result.trips) {
        assert_eq!(
            superc::corpus::render_trip(a),
            superc::corpus::render_trip(b),
            "trip rendering drifted"
        );
    }
}

#[test]
fn budget_trip_in_a_stretch_with_a_queued_subparser_kills_it_too() {
    // The CONFIG_X subparser runs the long branch in the fast path while
    // the !CONFIG_X subparser waits at `int tail`. The step budget trips
    // inside that stretch: the fast path must kill the queued subparser
    // too, exactly as the main loop does.
    let src = {
        let mut s = String::from("int head;\n#ifdef CONFIG_X\n");
        for i in 0..100 {
            s.push_str(&format!("int x{i} = {i};\n"));
        }
        s.push_str("#endif\nint tail;\n");
        s
    };
    let budgets = Budgets {
        max_steps: 200,
        ..Budgets::unlimited()
    };
    let p = process_one(&src, true, budgets);
    let q = process_one(&src, false, budgets);
    let (s, t) = (&p.result.stats, &q.result.stats);
    // Stretch 1 (`int head;`) exits at the conditional; stretch 2, the
    // branch, is entered and never exits: the trip ends it.
    assert_eq!(s.fastpath_entries, 2, "{s:?}");
    assert_eq!(s.fastpath_exits, 1, "{s:?}");
    assert!(s.fastpath_tokens > 3, "the branch never ran fast: {s:?}");
    assert_eq!(
        project(s, ACROSS_MODES),
        project(t, ACROSS_MODES),
        "trip drifted"
    );
    for r in [&p.result, &q.result] {
        assert_eq!(r.trips.len(), 1, "{:?}", r.trips);
        assert_eq!(r.trips[0].kind, BudgetKind::Steps);
        assert_eq!(r.trips[0].killed, 2, "the queued subparser survived");
    }
    assert_eq!(
        superc::corpus::render_trip(&p.result.trips[0]),
        superc::corpus::render_trip(&q.result.trips[0]),
        "trip rendering drifted"
    );
}

#[test]
fn no_fastpath_runs_report_zero_fastpath_counters() {
    let src = "int a;\n#if defined(X)\nint b;\n#endif\nint c;\n";
    let p = process_one(src, false, Budgets::unlimited());
    let s = &p.result.stats;
    assert_eq!(s.fastpath_entries, 0);
    assert_eq!(s.fastpath_exits, 0);
    assert_eq!(s.fastpath_tokens, 0);
    assert_eq!(p.unit.stats.fused_tokens, 0);
}
