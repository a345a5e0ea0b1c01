use super::*;

fn tool(files: &[(&str, &str)]) -> SuperC<MemFs> {
    let mut fs = MemFs::new();
    for (p, c) in files {
        fs.add(p, c);
    }
    let opts = Options {
        pp: PpOptions {
            profile: Profile::bare(),
            ..PpOptions::default()
        },
        ..Options::default()
    };
    SuperC::new(opts, fs)
}

const VARIABLE: &str = "\
#ifdef CONFIG_SMP
int cpus = 8;
#else
int cpus = 1;
#endif
int probe(void) { return cpus; }
";

#[test]
fn end_to_end_pipeline() {
    let mut sc = tool(&[("m.c", VARIABLE)]);
    let p = sc.process("m.c").expect("processes");
    assert!(p.result.errors.is_empty());
    assert!(p.result.accepted.as_ref().expect("accepted").is_true());
    assert_eq!(p.result.ast.as_ref().expect("ast").choice_count(), 1);
    assert!(p.bytes > 0);
    assert!(p.timings.total() > std::time::Duration::ZERO);
}

#[test]
fn missing_file_is_an_error() {
    let mut sc = tool(&[]);
    let Err(err) = sc.process("nope.c") else {
        panic!("expected a missing-file error");
    };
    assert!(err.message.contains("not found"));
}

#[test]
fn gcc_baseline_resolves_conditionals() {
    let mut fs = MemFs::new();
    fs.add("m.c", VARIABLE);
    let mut opts = Options::gcc_baseline(vec![("CONFIG_SMP".into(), "1".into())]);
    opts.pp.profile = Profile::bare();
    let mut sc = SuperC::new(opts, fs.clone());
    let p = sc.process("m.c").expect("processes");
    assert_eq!(p.unit.stats.output_conditionals, 0, "single config is flat");
    assert!(p.result.errors.is_empty());
    assert_eq!(p.result.stats.max_subparsers, 1, "plain LR");
    let text = p.unit.display_text();
    assert!(text.contains("cpus = 8"));
    assert!(!text.contains("cpus = 1"));

    // And without the define, the other branch.
    let mut opts = Options::gcc_baseline(vec![]);
    opts.pp.profile = Profile::bare();
    let mut sc = SuperC::new(opts, fs);
    let p = sc.process("m.c").expect("processes");
    assert!(p.unit.display_text().contains("cpus = 1"));
}

#[test]
fn typechef_baseline_agrees_on_results() {
    let mut fs = MemFs::new();
    fs.add("m.c", VARIABLE);
    let mut opts = Options::typechef_baseline();
    opts.pp.profile = Profile::bare();
    let mut sc = SuperC::new(opts, fs);
    let p = sc.process("m.c").expect("processes");
    assert!(p.result.errors.is_empty());
    assert!(p.result.accepted.as_ref().expect("accepted").is_true());
    assert_eq!(p.result.ast.as_ref().expect("ast").choice_count(), 1);
}

#[test]
fn header_cache_shared_across_units() {
    let mut fs = MemFs::new();
    fs.add(
        "include/shared.h",
        "#ifndef S_H\n#define S_H\ntypedef int s32;\n#endif\n",
    );
    fs.add("a.c", "#include <shared.h>\ns32 a;\n");
    fs.add("b.c", "#include <shared.h>\ns32 b;\n");
    let opts = Options {
        pp: PpOptions {
            profile: Profile::bare(),
            ..PpOptions::default()
        },
        ..Options::default()
    };
    let mut sc = SuperC::new(opts, fs);
    for f in ["a.c", "b.c"] {
        let p = sc.process(f).expect("processes");
        assert!(p.result.errors.is_empty(), "{f}");
    }
    assert_eq!(
        sc.preprocessor().include_counts().get("include/shared.h"),
        Some(&2)
    );
}

mod corpus {
    use super::*;
    use crate::corpus::{default_jobs, process_corpus, Capture, CorpusOptions};

    fn fs() -> MemFs {
        MemFs::new()
            .file(
                "include/h.h",
                "#ifndef H\n#define H\ntypedef int u8_t;\n#endif\n",
            )
            .file("a.c", "#include <h.h>\nu8_t a;\n")
            .file("b.c", VARIABLE)
            .file("c.c", "int c(void) { return 3; }\n")
    }

    fn opts() -> Options {
        Options {
            pp: PpOptions {
                profile: Profile::bare(),
                ..PpOptions::default()
            },
            ..Options::default()
        }
    }

    fn units() -> Vec<String> {
        ["a.c", "b.c", "c.c"].map(str::to_string).to_vec()
    }

    #[test]
    fn report_is_in_input_order_with_merged_counters() {
        let report = process_corpus(&fs(), &units(), &opts(), &CorpusOptions::default());
        assert_eq!(report.units.len(), 3);
        assert_eq!(report.units[0].path, "a.c");
        assert_eq!(report.units[1].path, "b.c");
        assert_eq!(report.units[2].path, "c.c");
        assert_eq!(report.parsed_units(), 3);
        assert_eq!(report.fatal_units(), 0);
        // Merged counters are the per-unit sums.
        let tokens: u64 = report.units.iter().map(|u| u.pp.output_tokens).sum();
        assert_eq!(report.pp.output_tokens, tokens);
        let shifts: u64 = report.units.iter().map(|u| u.parse.shifts).sum();
        assert_eq!(report.parse.shifts, shifts);
        assert!(report.cond.feasibility_checks > 0);
        assert!(report.bdd.is_some(), "BDD backend reports BDD stats");
        assert!(report.wall > std::time::Duration::ZERO);
        assert!(report.tokens_per_sec() > 0.0);
        assert!(report.behavior_counters().contains("units=3 parsed=3"));
    }

    #[test]
    fn captures_are_per_unit() {
        let copts = CorpusOptions {
            jobs: 2,
            capture: Capture {
                preprocessed: true,
                ast: true,
                unparse_configs: vec![vec![], vec!["CONFIG_SMP".to_string()]],
            },
            lint: None,
            no_shared_cache: false,
            inject_panic: Vec::new(),
            portability: false,
            warm: false,
        };
        let report = process_corpus(&fs(), &units(), &opts(), &copts);
        let b = &report.units[1];
        assert!(b
            .preprocessed
            .as_deref()
            .is_some_and(|t| t.contains("cpus")));
        assert!(b.ast_text.is_some());
        assert_eq!(b.unparses.len(), 2);
        assert!(b.unparses[0].contains("cpus = 1"), "{}", b.unparses[0]);
        assert!(b.unparses[1].contains("cpus = 8"), "{}", b.unparses[1]);
    }

    #[test]
    fn sat_backend_reports_no_bdd_stats() {
        let mut o = Options::typechef_baseline();
        o.pp.profile = Profile::bare();
        let report = process_corpus(&fs(), &units(), &o, &CorpusOptions::default());
        assert!(report.bdd.is_none());
        assert!(report.cond.feasibility_checks > 0);
        assert_eq!(report.parsed_units(), 3);
    }

    #[test]
    fn empty_corpus_yields_an_empty_report() {
        let report = process_corpus(&fs(), &[], &opts(), &CorpusOptions::default());
        assert!(report.units.is_empty());
        assert_eq!(report.workers, 1);
        assert_eq!(report.pp.output_tokens, 0);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn corpus_table_renders() {
        let report = process_corpus(&fs(), &units(), &opts(), &CorpusOptions::default());
        let table = crate::report::corpus_table(&report).render();
        assert!(table.contains("corpus.units"));
        assert!(table.contains("corpus.tokens_per_sec"));
    }
}

#[test]
fn timings_split_into_phases() {
    let mut sc = tool(&[("m.c", VARIABLE)]);
    let p = sc.process("m.c").expect("processes");
    let t = p.timings;
    // All phases measured; total is their sum.
    assert_eq!(t.total(), t.lexing + t.preprocessing + t.parsing);
    assert!(t.parsing > std::time::Duration::ZERO);
}

#[test]
fn touches_agrees_with_a_scan_of_the_fingerprint() {
    use superc_util::prop::{check, Gen};
    // A small path universe, so changed paths often land in the
    // fingerprint and often miss it.
    let universe: Vec<String> = (0..24).map(|i| format!("include/h{i:02}.h")).collect();
    let sorted_subset = |g: &mut Gen, max: usize| -> Vec<String> {
        let mut paths = g.vec(0..=max, |g| g.choose(&universe).clone());
        paths.sort_unstable();
        paths.dedup();
        paths
    };
    check("touches_agrees_with_a_scan_of_the_fingerprint", 512, |g| {
        let deps: Vec<(String, u64)> = sorted_subset(g, 12)
            .into_iter()
            .map(|p| (p, g.usize(0..1000) as u64))
            .collect();
        let neg_deps = sorted_subset(g, 12);
        let changed = sorted_subset(g, 4);
        // The reference: scan every fingerprint path, binary-searching
        // the change set.
        let hit = |p: &str| changed.binary_search_by(|c| c.as_str().cmp(p)).is_ok();
        let scan = deps.iter().any(|(p, _)| hit(p)) || neg_deps.iter().any(|p| hit(p));
        assert_eq!(
            crate::corpus::touches(&deps, &neg_deps, &changed),
            scan,
            "deps {deps:?} neg {neg_deps:?} changed {changed:?}"
        );
    });
}
