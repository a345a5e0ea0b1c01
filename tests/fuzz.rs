//! Property-based fuzzing of the full pipeline: randomly generated
//! directive/declaration soups must never panic the preprocessor or
//! parser, must keep the branch-partition invariant, and must stay
//! differentially consistent with single-configuration mode.

use superc::analyze::LintOptions;
use superc::corpus::{process_corpus, process_corpus_profiles, CorpusOptions};
use superc::counters::{project, Class};
use superc::cpp::Element;
use superc::{Options, PpOptions, Profile, SuperC};
use superc_util::prop::{check, Gen};

/// Macros the shipped compiler/OS profiles predefine: conditionals over
/// these resolve differently per profile (defined under some, free
/// under the rest), which is exactly what the cross-profile property
/// needs to exercise.
const PROFILE_BUILTINS: [&str; 5] = ["_WIN32", "__APPLE__", "__GNUC__", "__clang__", "_MSC_VER"];

/// A tiny AST of preprocessor-and-C soup that always generates
/// *lexable* text (the pipeline should handle arbitrary bytes too, but
/// the interesting surface is structured variability).
#[derive(Clone, Debug)]
enum Soup {
    Decl(u8),
    Expand(u8),
    Define(u8, u8),
    Undef(u8),
    FnDefine(u8, u8),
    /// Token pasting (`##`) with a possibly-multiply-defined macro as an
    /// operand — when `M{m}`'s definitions vary by configuration, the
    /// paste must be hoisted (Algorithm 1's `token_pastes_hoisted` path).
    Paste(u8),
    /// Stringification (`#`) of a possibly-multiply-defined macro.
    Stringify(u8),
    Cond(u8, Vec<Soup>, Vec<Soup>),
    IfExpr(u8, u8, Vec<Soup>),
    /// An `#if/#elif/#elif/#else` chain mixing `defined(...)` and value
    /// tests, so branch conditions are built by chained negation.
    ElifChain(u8, u8, u8, u8, Vec<Soup>, Vec<Soup>, Vec<Soup>),
    /// A long conditional-free, macro-free function body: `stmts`
    /// arithmetic statements seeded by `salt`. Exactly the shape the
    /// deterministic fast path and fused lexing are built for — one
    /// subparser live throughout, every token inert.
    Stretch(u8, u8),
    /// `#ifdef` over a profile-sensitive built-in ([`PROFILE_BUILTINS`]):
    /// statically decided under profiles that predefine it, symbolic
    /// under the rest. Only [`gen_profile_soup`] generates these, so the
    /// other properties' random streams are untouched.
    BuiltinCond(usize, Vec<Soup>, Vec<Soup>),
    /// A guarded value test (`#if defined(X) && X >= k`) over a
    /// profile-sensitive built-in, exercising per-profile arithmetic
    /// folding (`__GNUC__ >= 4` is true under gcc, symbolic under msvc).
    BuiltinIf(usize, u8, Vec<Soup>),
}

fn gen_leaf(g: &mut Gen) -> Soup {
    match g.usize(0..8) {
        0 => Soup::Decl(g.u8(0..6)),
        1 => Soup::Expand(g.u8(0..4)),
        2 => Soup::Define(g.u8(0..4), g.u8(0..10)),
        3 => Soup::Undef(g.u8(0..4)),
        4 => Soup::Paste(g.u8(0..4)),
        5 => Soup::Stringify(g.u8(0..4)),
        6 => Soup::Stretch(g.u8(12..40), g.u8(0..10)),
        _ => Soup::FnDefine(g.u8(0..4), g.u8(0..10)),
    }
}

fn gen_item(g: &mut Gen, depth: usize) -> Soup {
    if depth == 0 || g.percent(50) {
        return gen_leaf(g);
    }
    match g.usize(0..3) {
        0 => Soup::Cond(
            g.u8(0..5),
            g.vec(0..4, |g| gen_item(g, depth - 1)),
            g.vec(0..4, |g| gen_item(g, depth - 1)),
        ),
        1 => {
            let (m, k) = (g.u8(0..4), g.u8(0..8));
            Soup::IfExpr(m, k, g.vec(0..4, |g| gen_item(g, depth - 1)))
        }
        _ => Soup::ElifChain(
            g.u8(0..5),
            g.u8(0..5),
            g.u8(0..4),
            g.u8(0..8),
            g.vec(0..3, |g| gen_item(g, depth - 1)),
            g.vec(0..3, |g| gen_item(g, depth - 1)),
            g.vec(0..3, |g| gen_item(g, depth - 1)),
        ),
    }
}

fn gen_soup(g: &mut Gen) -> Vec<Soup> {
    g.vec(0..10, |g| gen_item(g, 3))
}

/// A soup shaped like real token-dense code: long conditional-free
/// stretches interleaved with `#if` islands (and whatever other soup the
/// islands drag in), so the fast path must repeatedly enter, persist its
/// scratch stack at the island, and re-enter on the far side.
fn gen_stretchy_soup(g: &mut Gen) -> Vec<Soup> {
    let mut items = Vec::new();
    for _ in 0..g.usize(2..5) {
        items.push(Soup::Stretch(g.u8(12..40), g.u8(0..10)));
        items.push(gen_item(g, 2));
    }
    items.push(Soup::Stretch(g.u8(12..40), g.u8(0..10)));
    items
}

/// Soup with profile-sensitive built-ins: ordinary soup interleaved
/// with conditionals over [`PROFILE_BUILTINS`], so the same source
/// resolves differently under each shipped profile.
fn gen_profile_soup(g: &mut Gen) -> Vec<Soup> {
    let mut items = Vec::new();
    for _ in 0..g.usize(1..4) {
        items.push(Soup::BuiltinCond(
            g.usize(0..PROFILE_BUILTINS.len()),
            g.vec(0..3, |g| gen_item(g, 2)),
            g.vec(0..3, |g| gen_item(g, 2)),
        ));
        if g.percent(60) {
            items.push(Soup::BuiltinIf(
                g.usize(0..PROFILE_BUILTINS.len()),
                g.u8(0..8),
                g.vec(0..3, |g| gen_item(g, 2)),
            ));
        }
        items.push(gen_item(g, 2));
    }
    items
}

fn render(items: &[Soup], out: &mut String, counter: &mut u32) {
    for item in items {
        match item {
            Soup::Decl(d) => {
                *counter += 1;
                out.push_str(&format!("int decl_{}_{d} = {d};\n", *counter));
            }
            Soup::Expand(m) => {
                *counter += 1;
                out.push_str(&format!("int use_{} = (int)M{m};\n", *counter));
            }
            Soup::Define(m, v) => out.push_str(&format!("#define M{m} {v}\n")),
            Soup::Undef(m) => out.push_str(&format!("#undef M{m}\n")),
            Soup::FnDefine(m, v) => {
                out.push_str(&format!("#define F{m}(x) ((x) + {v} + (int)M{m})\n"));
                *counter += 1;
                out.push_str(&format!("int fuse_{} = F{m}(2);\n", *counter));
            }
            Soup::Paste(m) => {
                // Two-level glue so the argument expands before `##`:
                // M{m} defined to 7 pastes `g<id>_7`; M{m} undefined
                // pastes the identifier `g<id>_M{m}`. Both are valid
                // declarators, so every configuration stays parseable.
                *counter += 1;
                let id = *counter;
                out.push_str(&format!("#define GLUE_IN_{id}(a, b) a##b\n"));
                out.push_str(&format!("#define GLUE_{id}(a, b) GLUE_IN_{id}(a, b)\n"));
                out.push_str(&format!("int GLUE_{id}(g{id}_, M{m}) = 0;\n"));
            }
            Soup::Stringify(m) => {
                // Two-level so the argument expands before `#`: either
                // "7" or "M{m}", a string literal in every configuration.
                *counter += 1;
                let id = *counter;
                out.push_str(&format!("#define STR_IN_{id}(x) #x\n"));
                out.push_str(&format!("#define STR_{id}(x) STR_IN_{id}(x)\n"));
                out.push_str(&format!("const char *s{id} = STR_{id}(M{m});\n"));
            }
            Soup::Cond(c, t, e) => {
                out.push_str(&format!("#ifdef CFG{c}\n"));
                render(t, out, counter);
                out.push_str("#else\n");
                render(e, out, counter);
                out.push_str("#endif\n");
            }
            Soup::IfExpr(m, k, body) => {
                out.push_str(&format!("#if defined(CFG{m}) || M{m} > {k}\n"));
                render(body, out, counter);
                out.push_str("#endif\n");
            }
            Soup::Stretch(stmts, salt) => {
                *counter += 1;
                let id = *counter;
                out.push_str(&format!(
                    "long stretch_{id}(long a0, long a1) {{\n\
                     \x20   long acc = a0 + {salt};\n"
                ));
                for s in 0..*stmts {
                    out.push_str(&format!("    acc = acc * {} + a1 - {s};\n", (s % 5) + 2));
                }
                out.push_str("    return acc;\n}\n");
            }
            Soup::BuiltinCond(b, t, e) => {
                out.push_str(&format!("#ifdef {}\n", PROFILE_BUILTINS[*b]));
                render(t, out, counter);
                out.push_str("#else\n");
                render(e, out, counter);
                out.push_str("#endif\n");
            }
            Soup::BuiltinIf(b, k, body) => {
                let name = PROFILE_BUILTINS[*b];
                out.push_str(&format!("#if defined({name}) && {name} >= {k}\n"));
                render(body, out, counter);
                out.push_str("#endif\n");
            }
            Soup::ElifChain(c1, c2, m, k, b1, b2, b3) => {
                out.push_str(&format!("#if defined(CFG{c1})\n"));
                render(b1, out, counter);
                out.push_str(&format!("#elif M{m} > {k}\n"));
                render(b2, out, counter);
                out.push_str(&format!("#elif defined(CFG{c2})\n"));
                render(b3, out, counter);
                out.push_str("#else\n");
                *counter += 1;
                out.push_str(&format!("int elif_tail_{};\n", *counter));
                out.push_str("#endif\n");
            }
        }
    }
}

fn check_partition(elements: &[Element], parent: &superc::Cond) {
    for e in elements {
        if let Element::Conditional(k) = e {
            let mut union = parent.ctx().fls();
            for b in &k.branches {
                assert!(!b.cond.is_false());
                assert!(union.and(&b.cond).is_false(), "overlapping branches");
                union = union.or(&b.cond);
                check_partition(&b.elements, &b.cond);
            }
            assert!(union.semantically_equal(parent), "branches must cover");
        }
    }
}

#[test]
fn pipeline_never_panics_and_keeps_invariants() {
    // Aggregated across cases: the generator must actually reach the
    // hoisting-adjacent paths it was extended for (pasting,
    // stringification, hoisted operands, #elif chains).
    let mut saw_pastes = false;
    let mut saw_stringifies = false;
    let mut saw_hoisted_ops = false;
    check("pipeline_never_panics_and_keeps_invariants", 48, |g| {
        let items = gen_soup(g);
        let mut src = String::new();
        let mut counter = 0;
        render(&items, &mut src, &mut counter);
        src.push_str("int trailer;\n");

        let fs = superc::MemFs::new().file("f.c", &src);
        let mut sc = SuperC::new(
            Options {
                pp: PpOptions {
                    profile: Profile::bare(),
                    ..PpOptions::default()
                },
                ..Options::default()
            },
            fs,
        );
        let p = sc.process("f.c").expect("structured soup always lexes");
        let tru = sc.ctx().tru();
        check_partition(&p.unit.elements, &tru);
        saw_pastes |= p.unit.stats.token_pastes > 0;
        saw_stringifies |= p.unit.stats.stringifications > 0;
        saw_hoisted_ops |=
            p.unit.stats.token_pastes_hoisted > 0 || p.unit.stats.stringifications_hoisted > 0;

        // Macro values are integers, so every configuration is valid C:
        // the parse must cover the whole space.
        assert!(
            p.result.errors.is_empty(),
            "errors: {:?}\nsource:\n{src}",
            p.result
                .errors
                .iter()
                .map(|e| format!("{e}"))
                .collect::<Vec<_>>()
        );
        assert!(p.result.accepted.as_ref().expect("accepted").is_true());
    });
    assert!(saw_pastes, "no token pastes generated");
    assert!(saw_stringifies, "no stringification generated");
    assert!(
        saw_hoisted_ops,
        "no paste/stringify with conditional operands generated"
    );
}

#[test]
fn soup_matches_single_config() {
    check("soup_matches_single_config", 48, |g| {
        let items = gen_soup(g);
        let mask = g.u8(0..32);
        let mut src = String::new();
        let mut counter = 0;
        render(&items, &mut src, &mut counter);
        src.push_str("int trailer;\n");

        let fs = superc::MemFs::new().file("f.c", &src);
        // Full variability run.
        let mut full = SuperC::new(
            Options {
                pp: PpOptions {
                    profile: Profile::bare(),
                    ..PpOptions::default()
                },
                ..Options::default()
            },
            fs.clone(),
        );
        let p = full.process("f.c").expect("full");

        // Single-config run under the mask.
        let on = |i: u8| mask >> i & 1 == 1;
        let defines: Vec<(String, String)> = (0u8..5)
            .filter(|&i| on(i))
            .map(|i| (format!("CFG{i}"), "1".to_string()))
            .collect();
        let mut single = SuperC::new(
            Options {
                pp: PpOptions {
                    profile: Profile::bare(),
                    defines,
                    single_config: true,
                    ..PpOptions::default()
                },
                ..Options::default()
            },
            fs,
        );
        let single_out = single.process("f.c").expect("single");

        // Select the full run's tokens under the mask. Free macros (Mx
        // never defined) appear as `defined(Mx)`-style variables: in gcc
        // mode those identifiers are 0, so `Mx > k` is false and
        // `defined(...)` vars are false. Opaque arithmetic over *defined*
        // macros folded already; opaque vars mentioning free macros
        // evaluate false in gcc mode (0 > k, k ≥ 0).
        let env = |name: &str| -> Option<bool> {
            if let Some(inner) = name
                .strip_prefix("defined(")
                .and_then(|n| n.strip_suffix(')'))
            {
                if let Some(i) = inner.strip_prefix("CFG").and_then(|d| d.parse::<u8>().ok()) {
                    return Some(on(i));
                }
                return Some(false); // free M macros are never defined
            }
            Some(false) // opaque arithmetic over free macros: 0 > k is false
        };
        let mut got = Vec::new();
        fn walk(elements: &[Element], env: &dyn Fn(&str) -> Option<bool>, out: &mut Vec<String>) {
            for e in elements {
                match e {
                    Element::Token(t) => out.push(t.text().to_string()),
                    Element::Conditional(k) => {
                        for b in &k.branches {
                            if b.cond.eval(|n| env(n)) {
                                walk(&b.elements, env, out);
                            }
                        }
                    }
                }
            }
        }
        walk(&p.unit.elements, &env, &mut got);
        let expected: Vec<String> = single_out
            .unit
            .elements
            .iter()
            .filter_map(|e| match e {
                Element::Token(t) => Some(t.text().to_string()),
                Element::Conditional(_) => None,
            })
            .collect();
        assert_eq!(got, expected, "source:\n{}", src);
    });
}

/// Differential fuzzing of the deterministic fast path: every seed runs
/// through both engines — fast path + fused lexing on, and the general
/// FMLR loop with fusion off — and every output surface must agree.
/// Failures name the diverging engine in the panic message, and the
/// harness prints the `SUPERC_PROP_SEED=<seed>` repro line.
#[test]
fn fastpath_and_general_engine_agree_on_soups() {
    // Aggregated across cases: the stretchy generator must actually
    // drive the fast path and fused lexing, or the property is vacuous.
    let mut saw_fastpath = false;
    let mut saw_fused = false;
    let mut saw_exits = false;
    check("fastpath_and_general_engine_agree_on_soups", 32, |g| {
        let items = gen_stretchy_soup(g);
        let mut src = String::new();
        let mut counter = 0;
        render(&items, &mut src, &mut counter);
        src.push_str("int trailer;\n");
        let fs = superc::MemFs::new().file("f.c", &src);

        let run = |fastpath: bool| {
            let mut opts = Options {
                pp: PpOptions {
                    profile: Profile::bare(),
                    ..PpOptions::default()
                },
                ..Options::default()
            };
            opts.parser.fastpath = fastpath;
            opts.pp.fuse_lexing = fastpath;
            let mut sc = SuperC::new(opts, fs.clone());
            sc.process("f.c").expect("structured soup always lexes")
        };
        let fast = run(true);
        let gen = run(false);

        saw_fastpath |= fast.result.stats.fastpath_entries > 0;
        saw_fused |= fast.unit.stats.fused_tokens > 0;
        saw_exits |= fast.result.stats.fastpath_exits > 0;
        assert_eq!(
            gen.result.stats.fastpath_entries, 0,
            "general engine must never enter the fast path"
        );
        assert_eq!(
            gen.unit.stats.fused_tokens, 0,
            "general engine must never fuse lexing"
        );

        // Preprocessor output: fused lexing may only change *how* inert
        // tokens reach the output, never which tokens do.
        assert_eq!(
            fast.unit.display_text(),
            gen.unit.display_text(),
            "diverging engine: preprocessed text differs \
             (left: fast path, right: general loop)\nsource:\n{src}"
        );
        // Parser output: AST, errors, and budget degradations.
        assert_eq!(
            fast.result.ast.as_ref().map(|a| a.to_string()),
            gen.result.ast.as_ref().map(|a| a.to_string()),
            "diverging engine: AST differs \
             (left: fast path, right: general loop)\nsource:\n{src}"
        );
        assert_eq!(
            fast.result
                .errors
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>(),
            gen.result
                .errors
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>(),
            "diverging engine: parse errors differ \
             (left: fast path, right: general loop)\nsource:\n{src}"
        );
        assert_eq!(
            fast.result
                .trips
                .iter()
                .map(|t| t.describe())
                .collect::<Vec<_>>(),
            gen.result
                .trips
                .iter()
                .map(|t| t.describe())
                .collect::<Vec<_>>(),
            "diverging engine: budget trips differ \
             (left: fast path, right: general loop)\nsource:\n{src}"
        );
        // Accepted conditions: semantic comparison by evaluation (each
        // run owns its BDD manager, so node identity means nothing
        // across them). Free M macros are undefined and opaque
        // arithmetic over them is false, as in soup_matches_single_config.
        assert_eq!(
            fast.result.accepted.is_some(),
            gen.result.accepted.is_some(),
            "diverging engine: acceptance differs \
             (left: fast path, right: general loop)\nsource:\n{src}"
        );
        if let (Some(fa), Some(ga)) = (&fast.result.accepted, &gen.result.accepted) {
            for mask in 0u8..32 {
                let env = |name: &str| -> Option<bool> {
                    if let Some(inner) = name
                        .strip_prefix("defined(")
                        .and_then(|n| n.strip_suffix(')'))
                    {
                        if let Some(i) =
                            inner.strip_prefix("CFG").and_then(|d| d.parse::<u8>().ok())
                        {
                            return Some(mask >> i & 1 == 1);
                        }
                        return Some(false);
                    }
                    Some(false)
                };
                assert_eq!(
                    fa.eval(|n| env(n)),
                    ga.eval(|n| env(n)),
                    "diverging engine: accepted condition differs under \
                     CFG mask {mask:#07b} (left: fast path, right: general \
                     loop)\nsource:\n{src}"
                );
            }
        }
        // Counters: every behavior counter (the `mode` class holds the
        // gauges that define the fast path).
        let behavior = [Class::Behavior];
        assert_eq!(
            project(&fast.result.stats, &behavior),
            project(&gen.result.stats, &behavior),
            "diverging engine: parser counters differ \
             (left: fast path, right: general loop)\nsource:\n{src}"
        );
    });
    assert!(saw_fastpath, "no case ever entered the fast path");
    assert!(saw_fused, "no case ever fused a token run");
    assert!(
        saw_exits,
        "no case ever exited a stretch mid-unit (islands too weak)"
    );
}

/// Cross-profile mode is N honest single-profile runs interleaved over
/// one worker pool: for every seed, each per-profile slice of a
/// `process_corpus_profiles` run must equal what a plain single-profile
/// corpus run over the same source produces — portability rows, lint
/// records, and behavior counters alike.
#[test]
fn cross_profile_mode_agrees_with_single_profile_runs() {
    // Aggregated: the generator must actually produce profile-divergent
    // sources, or the property is vacuous.
    let mut saw_divergence = false;
    check(
        "cross_profile_mode_agrees_with_single_profile_runs",
        24,
        |g| {
            let items = gen_profile_soup(g);
            let mut src = String::new();
            let mut counter = 0;
            render(&items, &mut src, &mut counter);
            src.push_str("int trailer;\n");
            let fs = superc::MemFs::new().file("f.c", &src);
            let units = vec!["f.c".to_string()];
            let profiles = vec![
                Profile::gcc_linux(),
                Profile::clang_macos(),
                Profile::msvc_windows(),
            ];

            let cross_copts = CorpusOptions {
                jobs: 2,
                lint: Some(LintOptions::default()),
                ..CorpusOptions::default()
            };
            let cross =
                process_corpus_profiles(&fs, &units, &Options::default(), &profiles, &cross_copts);

            for (i, profile) in profiles.iter().enumerate() {
                let mut options = Options::default();
                options.pp.profile = profile.clone();
                let single_copts = CorpusOptions {
                    jobs: 1,
                    lint: Some(LintOptions::default()),
                    portability: true,
                    ..CorpusOptions::default()
                };
                let single = process_corpus(&fs, &units, &options, &single_copts);
                assert_eq!(
                    cross.runs[i].behavior_counters(),
                    single.behavior_counters(),
                    "profile {} counters diverged\nsource:\n{src}",
                    profile.name
                );
                assert_eq!(
                    cross.runs[i].units[0].portability, single.units[0].portability,
                    "profile {} portability slice diverged\nsource:\n{src}",
                    profile.name
                );
                assert_eq!(
                    cross.runs[i].units[0].lints, single.units[0].lints,
                    "profile {} lints diverged\nsource:\n{src}",
                    profile.name
                );
            }
            let records = cross.lint_records(&LintOptions::default());
            saw_divergence |= records.iter().any(|r| r.code.starts_with("portability-"));
        },
    );
    assert!(saw_divergence, "no case ever diverged across profiles");
}
