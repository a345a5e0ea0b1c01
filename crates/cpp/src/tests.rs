use super::*;
use superc_cond::{Cond, CondBackend, CondCtx};
use superc_util::counters::{project, Class};

/// Preprocesses `main.c` (plus extra files) and returns the unit.
fn pp_with(files: &[(&str, &str)]) -> CompilationUnit {
    pp_with_backend(files, CondBackend::Bdd).expect("preprocess")
}

fn pp_with_backend(
    files: &[(&str, &str)],
    backend: CondBackend,
) -> Result<CompilationUnit, PpError> {
    let mut fs = MemFs::new();
    for (p, c) in files {
        fs.add(p, c);
    }
    let ctx = CondCtx::new(backend);
    let opts = PpOptions {
        profile: Profile::bare(),
        ..PpOptions::default()
    };
    let mut pp = Preprocessor::new(ctx, opts, fs);
    pp.preprocess("main.c")
}

fn pp(src: &str) -> CompilationUnit {
    pp_with(&[("main.c", src)])
}

/// Flattens a unit to one whitespace-normalized string per *feasible*
/// configuration: `(condition-display, token-texts)`.
fn configs(unit: &CompilationUnit) -> Vec<(String, String)> {
    fn find_ctx(elements: &[Element]) -> Option<CondCtx> {
        for e in elements {
            if let Element::Conditional(k) = e {
                if let Some(b) = k.branches.first() {
                    return Some(b.cond.ctx().clone());
                }
            }
        }
        None
    }
    fn rec(elements: &[Element], mut fronts: Vec<(Cond, String)>) -> Vec<(Cond, String)> {
        for e in elements {
            match e {
                Element::Token(t) => {
                    for f in &mut fronts {
                        if !f.1.is_empty() {
                            f.1.push(' ');
                        }
                        f.1.push_str(t.text());
                    }
                }
                Element::Conditional(k) => {
                    let mut next = Vec::new();
                    for f in &fronts {
                        for b in &k.branches {
                            let cc = f.0.and(&b.cond);
                            if cc.is_false() {
                                continue;
                            }
                            next.extend(rec(&b.elements, vec![(cc, f.1.clone())]));
                        }
                    }
                    fronts = next;
                }
            }
        }
        fronts
    }
    let Some(ctx) = find_ctx(&unit.elements) else {
        let mut s = String::new();
        for e in &unit.elements {
            if let Element::Token(t) = e {
                if !s.is_empty() {
                    s.push(' ');
                }
                s.push_str(t.text());
            }
        }
        return vec![(String::new(), s)];
    };
    rec(&unit.elements, vec![(ctx.tru(), String::new())])
        .into_iter()
        .map(|(c, t)| (format!("{c}"), t))
        .collect()
}

/// The token text of the single-configuration rendering, if no
/// conditionals remain.
fn flat_text(unit: &CompilationUnit) -> String {
    let cs = configs(unit);
    assert_eq!(cs.len(), 1, "unit is not flat: {:#?}", unit.elements);
    cs[0].1.clone()
}

// ---------------------------------------------------------------------
// Plain (single-configuration) preprocessing
// ---------------------------------------------------------------------

#[test]
fn object_macro_expands() {
    let u = pp("#define N 42\nint x = N;\n");
    assert_eq!(flat_text(&u), "int x = 42 ;");
    assert_eq!(u.stats.macro_definitions, 1);
    assert_eq!(u.stats.macro_invocations, 1);
}

#[test]
fn function_macro_expands_args() {
    let u = pp("#define MAX(a, b) ((a) > (b) ? (a) : (b))\nint m = MAX(x, y+1);\n");
    assert_eq!(
        flat_text(&u),
        "int m = ( ( x ) > ( y + 1 ) ? ( x ) : ( y + 1 ) ) ;"
    );
}

#[test]
fn function_macro_without_parens_is_not_invoked() {
    let u = pp("#define f(x) x\nint (*p)(int) = f;\n");
    assert_eq!(flat_text(&u), "int ( * p ) ( int ) = f ;");
}

#[test]
fn nested_macros_rescan() {
    let u = pp("#define A B\n#define B C\n#define C 7\nint x = A;\n");
    assert_eq!(flat_text(&u), "int x = 7 ;");
    assert!(u.stats.nested_invocations >= 2);
}

#[test]
fn recursive_macros_are_painted() {
    let u = pp("#define x x + 1\nint y = x;\n");
    assert_eq!(flat_text(&u), "int y = x + 1 ;");
    let u = pp("#define a b\n#define b a\nint y = a;\n");
    assert_eq!(flat_text(&u), "int y = a ;");
}

#[test]
fn invocation_spans_lines() {
    let u = pp("#define add(a,b) a+b\nint x = add(\n1,\n2);\n");
    assert_eq!(flat_text(&u), "int x = 1 + 2 ;");
}

#[test]
fn stringification() {
    let u = pp("#define S(x) #x\nconst char *s = S(a + b);\n");
    assert_eq!(flat_text(&u), "const char * s = \"a + b\" ;");
    let u = pp(r##"#define S(x) #x"##.to_string().as_str());
    let _ = u;
    // Embedded quotes/backslashes are escaped.
    let u = pp("#define S(x) #x\nconst char *s = S(\"q\");\n");
    assert_eq!(flat_text(&u), "const char * s = \"\\\"q\\\"\" ;");
}

#[test]
fn token_pasting() {
    let u = pp("#define GLUE(a,b) a ## b\nint GLUE(va, lue) = 1;\n");
    assert_eq!(flat_text(&u), "int value = 1 ;");
    assert_eq!(u.stats.token_pastes, 1);
    // Chains paste left to right.
    let u = pp("#define G3(a,b,c) a ## b ## c\nint G3(x, y, z);\n");
    assert_eq!(flat_text(&u), "int xyz ;");
}

#[test]
fn paste_builds_new_macro_name() {
    // The pasted token is eligible for further expansion (rescan).
    let u = pp("#define AB 99\n#define GLUE(a,b) a ## b\nint x = GLUE(A, B);\n");
    assert_eq!(flat_text(&u), "int x = 99 ;");
}

#[test]
fn variadic_macros() {
    let u = pp("#define P(fmt, ...) printf(fmt, __VA_ARGS__)\nP(\"%d\", 1, 2);\n");
    assert_eq!(flat_text(&u), "printf ( \"%d\" , 1 , 2 ) ;");
    // GNU named variadic.
    let u = pp("#define P(fmt, args...) printf(fmt, args)\nP(\"%d\", 7);\n");
    assert_eq!(flat_text(&u), "printf ( \"%d\" , 7 ) ;");
    // GNU comma deletion (empty varargs)...
    let u = pp("#define P(fmt, ...) printf(fmt , ## __VA_ARGS__)\nP(\"x\");\n");
    assert_eq!(flat_text(&u), "printf ( \"x\" ) ;");
    // ...and comma retention without pasting (non-empty varargs).
    let u = pp("#define P(fmt, ...) printf(fmt , ## __VA_ARGS__)\nP(\"x\", 1, 2);\n");
    assert_eq!(flat_text(&u), "printf ( \"x\" , 1 , 2 ) ;");
}

#[test]
fn undef_stops_expansion() {
    let u = pp("#define N 1\n#undef N\nint x = N;\n");
    assert_eq!(flat_text(&u), "int x = N ;");
    assert_eq!(u.stats.undefs, 1);
}

#[test]
fn dynamic_builtins() {
    let u = pp("int l = __LINE__;\nconst char *f = __FILE__;\n");
    assert_eq!(flat_text(&u), "int l = 1 ; const char * f = \"main.c\" ;");
    assert_eq!(u.stats.builtin_invocations, 2);
}

// ---------------------------------------------------------------------
// Includes
// ---------------------------------------------------------------------

#[test]
fn simple_include() {
    let u = pp_with(&[
        ("main.c", "#include \"defs.h\"\nint x = N;\n"),
        ("defs.h", "#define N 5\n"),
    ]);
    assert_eq!(flat_text(&u), "int x = 5 ;");
    assert_eq!(u.stats.includes, 1);
}

#[test]
fn system_include_via_search_path() {
    let u = pp_with(&[
        ("main.c", "#include <sys/defs.h>\nint x = N;\n"),
        ("include/sys/defs.h", "#define N 6\n"),
    ]);
    assert_eq!(flat_text(&u), "int x = 6 ;");
}

#[test]
fn quoted_include_prefers_including_dir() {
    let u = pp_with(&[
        ("main.c", "#include \"sub/a.h\"\nint x = N;\n"),
        ("sub/a.h", "#include \"b.h\"\n"),
        ("sub/b.h", "#define N 7\n"),
        ("include/b.h", "#define N 8\n"),
    ]);
    assert_eq!(flat_text(&u), "int x = 7 ;");
}

#[test]
fn include_guards_prevent_reprocessing() {
    let u = pp_with(&[
        ("main.c", "#include \"g.h\"\n#include \"g.h\"\nint x = N;\n"),
        ("g.h", "#ifndef G_H\n#define G_H\n#define N 9\n#endif\n"),
    ]);
    assert_eq!(flat_text(&u), "int x = 9 ;");
    // Processed once; second include is skipped by the guard fast path.
    assert_eq!(u.stats.reincluded_headers, 0);
}

#[test]
fn unguarded_headers_reprocess() {
    let u = pp_with(&[
        ("main.c", "#include \"u.h\"\n#include \"u.h\"\n"),
        ("u.h", "int bump;\n"),
    ]);
    assert_eq!(flat_text(&u), "int bump ; int bump ;");
    assert_eq!(u.stats.reincluded_headers, 1);
}

#[test]
fn guard_macro_translates_to_false_not_variable() {
    // §3.2 case 4a: the guard's #ifndef must not pollute presence
    // conditions — the unit stays conditional-free.
    let u = pp_with(&[
        ("main.c", "#include \"g.h\"\nint x = N;\n"),
        ("g.h", "#ifndef G_H\n#define G_H\n#define N 1\n#endif\n"),
    ]);
    assert_eq!(u.stats.output_conditionals, 0);
    assert_eq!(flat_text(&u), "int x = 1 ;");
}

#[test]
fn reinclusion_after_undef_of_guard() {
    // Paper: "Reinclude when guard macro is not false".
    let u = pp_with(&[
        ("main.c", "#include \"g.h\"\n#undef G_H\n#include \"g.h\"\n"),
        ("g.h", "#ifndef G_H\n#define G_H\nint decl;\n#endif\n"),
    ]);
    assert_eq!(flat_text(&u), "int decl ; int decl ;");
    assert_eq!(u.stats.reincluded_headers, 1);
}

#[test]
fn computed_include() {
    let u = pp_with(&[
        ("main.c", "#define HDR \"a.h\"\n#include HDR\nint x = N;\n"),
        ("a.h", "#define N 3\n"),
    ]);
    assert_eq!(flat_text(&u), "int x = 3 ;");
    assert_eq!(u.stats.computed_includes, 1);
}

#[test]
fn missing_include_is_a_diagnostic_not_a_crash() {
    let u = pp("#include \"nope.h\"\nint x;\n");
    assert_eq!(flat_text(&u), "int x ;");
    assert!(u
        .diagnostics
        .iter()
        .any(|d| d.message.contains("include not found")));
}

// ---------------------------------------------------------------------
// Static conditionals and presence conditions
// ---------------------------------------------------------------------

#[test]
fn ifdef_preserves_both_branches() {
    let u = pp("#ifdef CONFIG_A\nint a;\n#else\nint b;\n#endif\n");
    let cs = configs(&u);
    assert_eq!(cs.len(), 2);
    let texts: Vec<&str> = cs.iter().map(|(_, t)| t.as_str()).collect();
    assert!(texts.contains(&"int a ;"));
    assert!(texts.contains(&"int b ;"));
    assert_eq!(u.stats.conditionals, 1);
}

#[test]
fn implicit_else_branch_is_materialized() {
    let u = pp("before\n#ifdef A\nmid\n#endif\nafter\n");
    let cs = configs(&u);
    assert_eq!(cs.len(), 2);
    assert!(cs.iter().any(|(_, t)| t == "before mid after"));
    assert!(cs.iter().any(|(_, t)| t == "before after"));
}

#[test]
fn elif_chains_partition() {
    let u = pp("#if defined(A)\nint a;\n#elif defined(B)\nint b;\n#else\nint c;\n#endif\n");
    let cs = configs(&u);
    assert_eq!(cs.len(), 3);
    // The three conditions partition `true`: check pairwise via eval.
    let k = u.elements[0].as_conditional().expect("conditional");
    let eval = |cond: &Cond, a: bool, b: bool| {
        cond.eval(|n| match n {
            "defined(A)" => Some(a),
            "defined(B)" => Some(b),
            _ => None,
        })
    };
    for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
        let hits = k.branches.iter().filter(|br| eval(&br.cond, a, b)).count();
        assert_eq!(hits, 1, "configuration ({a},{b}) not covered exactly once");
    }
}

#[test]
fn if_expression_constant_folds() {
    let u = pp("#if 1 + 1 == 2\nyes\n#else\nno\n#endif\n");
    assert_eq!(flat_text(&u), "yes");
    let u = pp("#if 0\nyes\n#else\nno\n#endif\n");
    assert_eq!(flat_text(&u), "no");
    // Infeasible branch is trimmed entirely.
    assert_eq!(u.stats.output_conditionals, 0);
}

#[test]
fn if_with_macro_expansion() {
    let u = pp("#define FOUR 4\n#if FOUR > 3\nbig\n#endif\n");
    assert_eq!(flat_text(&u), "big");
}

#[test]
fn nested_conditionals_conjoin() {
    let u = pp("#ifdef A\n#ifdef B\nboth\n#endif\n#endif\n");
    let cs = configs(&u);
    // A∧B, A∧¬B, ¬A — three configurations.
    assert_eq!(cs.len(), 3);
    assert!(cs.iter().any(|(_, t)| t == "both"));
    assert_eq!(u.stats.max_depth, 2);
}

#[test]
fn defined_without_parens() {
    let u = pp("#if defined A\nyes\n#endif\n");
    let cs = configs(&u);
    assert_eq!(cs.len(), 2);
}

#[test]
fn undefined_macro_in_if_is_a_variable_not_zero() {
    // Configuration-preserving semantics: free macros keep both outcomes.
    let u = pp("#if FREE_MACRO\nyes\n#else\nno\n#endif\n");
    assert_eq!(configs(&u).len(), 2);
}

#[test]
fn defined_of_defined_macro_folds() {
    let u = pp("#define X 1\n#if defined(X)\nyes\n#else\nno\n#endif\n");
    assert_eq!(flat_text(&u), "yes");
    let u = pp("#define X 1\n#undef X\n#if defined(X)\nyes\n#else\nno\n#endif\n");
    assert_eq!(flat_text(&u), "no");
}

#[test]
fn non_boolean_expressions_are_opaque_but_consistent() {
    let src = "#if NR_CPUS < 256\nsmall\n#endif\n#if NR_CPUS < 256\nsmall2\n#endif\n";
    let u = pp(src);
    assert!(u.stats.non_boolean_exprs >= 1);
    let cs = configs(&u);
    // Identical opaque expressions share one variable, so the combinations
    // are (small,small2) and (neither) — not four.
    assert_eq!(cs.len(), 2);
}

#[test]
fn error_directive_outside_conditionals_fails() {
    let err = pp_with_backend(&[("main.c", "#error bad config\n")], CondBackend::Bdd)
        .expect_err("should fail");
    assert!(err.message.contains("bad config"));
}

#[test]
fn error_directive_in_branch_disables_it() {
    let u = pp("#ifdef BROKEN\n#error no good\nint junk;\n#else\nint ok;\n#endif\n");
    assert_eq!(u.stats.error_directives, 1);
    let cs = configs(&u);
    // The BROKEN branch is present but empty.
    assert!(cs.iter().any(|(_, t)| t == "int ok ;"));
    assert!(cs.iter().any(|(_, t)| t.is_empty()));
    assert!(!cs.iter().any(|(_, t)| t.contains("junk")));
}

#[test]
fn warnings_and_pragmas_are_annotations() {
    let u = pp("#warning heads up\n#pragma pack(1)\n#line 100\nint x;\n");
    assert_eq!(flat_text(&u), "int x ;");
    assert_eq!(u.stats.warning_directives, 1);
    assert!(u.diagnostics.iter().any(|d| d.severity == Severity::Note));
}

// ---------------------------------------------------------------------
// Multiply-defined macros and hoisting (the paper's Figures 2-5)
// ---------------------------------------------------------------------

/// Figure 2: BITS_PER_LONG depends on CONFIG_64BIT.
const FIG2: &str =
    "#ifdef CONFIG_64BIT\n#define BITS_PER_LONG 64\n#else\n#define BITS_PER_LONG 32\n#endif\n";

#[test]
fn fig2_multiply_defined_macro_propagates_conditional() {
    let u = pp(&format!("{FIG2}int n = BITS_PER_LONG;\n"));
    let cs = configs(&u);
    assert_eq!(cs.len(), 2);
    assert!(cs
        .iter()
        .any(|(c, t)| t == "int n = 64 ;" && c.contains("CONFIG_64BIT")));
    assert!(cs
        .iter()
        .any(|(c, t)| t == "int n = 32 ;" && c.contains("!defined(CONFIG_64BIT)")));
    assert!(u.stats.invocations_hoisted >= 1);
}

#[test]
fn fig2_conditional_expression_hoists_macro() {
    // §3.2: `#if BITS_PER_LONG == 32` simplifies to !defined(CONFIG_64BIT).
    let u = pp(&format!(
        "{FIG2}#if BITS_PER_LONG == 32\nthirtytwo\n#endif\n"
    ));
    let cs = configs(&u);
    assert_eq!(cs.len(), 2);
    assert!(cs
        .iter()
        .any(|(c, t)| t == "thirtytwo" && c.contains("!defined(CONFIG_64BIT)")));
    assert!(u.stats.conditionals_hoisted >= 1);
    // No opaque variables needed: constant folding resolved everything.
    assert_eq!(u.stats.non_boolean_exprs, 0);
}

/// Figures 3/4: a macro conditionally expanding to another (function-like)
/// macro; the invocation's arguments sit outside the conditional.
#[test]
fn fig4_cross_conditional_invocation_hoists() {
    let src = "\
#define __cpu_to_le32(x) ((__le32)(__u32)(x))
#ifdef __KERNEL__
#define cpu_to_le32 __cpu_to_le32
#endif
put_user(cpu_to_le32(val), buf);
";
    let u = pp(src);
    let cs = configs(&u);
    assert_eq!(cs.len(), 2);
    assert!(cs.iter().any(|(c, t)| {
        c.contains("defined(__KERNEL__)")
            && !c.contains('!')
            && t == "put_user ( ( ( __le32 ) ( __u32 ) ( val ) ) , buf ) ;"
    }));
    assert!(cs.iter().any(|(c, t)| c.contains("!defined(__KERNEL__)")
        && t == "put_user ( cpu_to_le32 ( val ) , buf ) ;"));
    assert!(u.stats.invocations_hoisted >= 1);
}

#[test]
fn explicit_conditional_inside_arguments_hoists() {
    let src = "\
#define twice(x) ((x) + (x))
int r = twice(
#ifdef BIG
100
#else
1
#endif
);
";
    let u = pp(src);
    let cs = configs(&u);
    assert_eq!(cs.len(), 2);
    assert!(cs
        .iter()
        .any(|(_, t)| t == "int r = ( ( 100 ) + ( 100 ) ) ;"));
    assert!(cs.iter().any(|(_, t)| t == "int r = ( ( 1 ) + ( 1 ) ) ;"));
}

#[test]
fn differing_argument_counts_across_branches() {
    // Table 1: "Support differing argument numbers and variadics".
    let src = "\
#ifdef TRACE
#define log(fmt, ...) trace(fmt, __VA_ARGS__)
#else
#define log(fmt, ...) nop(fmt)
#endif
log(\"x\", 1, 2);
";
    let u = pp(src);
    let cs = configs(&u);
    assert_eq!(cs.len(), 2);
    assert!(cs.iter().any(|(_, t)| t == "trace ( \"x\" , 1 , 2 ) ;"));
    assert!(cs.iter().any(|(_, t)| t == "nop ( \"x\" ) ;"));
}

/// Figure 5: token pasting with a multiply-defined operand.
#[test]
fn fig5_token_pasting_hoists_conditional() {
    let src = &format!(
        "{FIG2}#define uintBPL_t uint(BITS_PER_LONG)\n#define uint(x) xuint(x)\n#define xuint(x) __le ## x\nuintBPL_t *p;\n"
    );
    let u = pp(src);
    let cs = configs(&u);
    assert_eq!(cs.len(), 2);
    assert!(cs
        .iter()
        .any(|(c, t)| t == "__le64 * p ;" && c.contains("CONFIG_64BIT")));
    assert!(cs.iter().any(|(_, t)| t == "__le32 * p ;"));
    assert!(u.stats.token_pastes_hoisted >= 1);
}

#[test]
fn stringify_takes_argument_as_written() {
    // C semantics: `#x` stringifies the *unexpanded* argument.
    let src = &format!("{FIG2}#define S(x) #x\nconst char *s = S(BITS_PER_LONG);\n");
    let u = pp(src);
    assert_eq!(flat_text(&u), "const char * s = \"BITS_PER_LONG\" ;");
}

#[test]
fn stringify_hoists_explicit_conditional_argument() {
    let src = "\
#define S(x) #x
const char *s = S(
#ifdef CONFIG_64BIT
64
#else
32
#endif
);
";
    let u = pp(src);
    let cs = configs(&u);
    assert_eq!(cs.len(), 2);
    assert!(cs.iter().any(|(_, t)| t.contains("\"64\"")));
    assert!(cs.iter().any(|(_, t)| t.contains("\"32\"")));
    assert!(u.stats.stringifications_hoisted >= 1);
}

#[test]
fn paste_hoists_explicit_conditional_argument() {
    let src = "\
#define GLUE(a, b) a ## b
int GLUE(__le,
#ifdef CONFIG_64BIT
64
#else
32
#endif
);
";
    let u = pp(src);
    let cs = configs(&u);
    assert_eq!(cs.len(), 2);
    assert!(cs.iter().any(|(_, t)| t == "int __le64 ;"));
    assert!(cs.iter().any(|(_, t)| t == "int __le32 ;"));
    assert!(u.stats.token_pastes_hoisted >= 1);
}

#[test]
fn computed_include_with_multiply_defined_macro() {
    let u = pp_with(&[
        (
            "main.c",
            "#ifdef B\n#define HDR \"b.h\"\n#else\n#define HDR \"a.h\"\n#endif\n#include HDR\nint x = N;\n",
        ),
        ("a.h", "#define N 1\n"),
        ("b.h", "#define N 2\n"),
    ]);
    let cs = configs(&u);
    assert_eq!(cs.len(), 2);
    assert!(cs.iter().any(|(_, t)| t == "int x = 2 ;"));
    assert!(cs.iter().any(|(_, t)| t == "int x = 1 ;"));
    assert!(u.stats.includes_hoisted >= 1);
}

#[test]
fn include_under_conditional_processes_under_presence_condition() {
    let u = pp_with(&[
        (
            "main.c",
            "#ifdef A\n#include \"x.h\"\n#endif\nint t = X_DEF;\n",
        ),
        ("x.h", "#define X_DEF 5\n"),
    ]);
    let cs = configs(&u);
    assert_eq!(cs.len(), 2);
    assert!(cs
        .iter()
        .any(|(c, t)| c.contains("defined(A)") && t.ends_with("int t = 5 ;")));
    assert!(cs.iter().any(|(_, t)| t == "int t = X_DEF ;"));
}

#[test]
fn macro_defined_only_in_infeasible_config_is_ignored() {
    // Table 1: "Ignore infeasible definitions".
    let src = "\
#ifdef A
#define V 1
#endif
#ifndef A
int x = V;
#endif
";
    let u = pp(src);
    let cs = configs(&u);
    // Under !A, V has no feasible definition: stays an identifier.
    assert!(cs.iter().any(|(_, t)| t == "int x = V ;"));
    assert!(!cs.iter().any(|(_, t)| t.contains("= 1")));
}

#[test]
fn redefinition_trims_old_entry() {
    let u = pp("#define N 1\n#define N 2\nint x = N;\n");
    assert_eq!(flat_text(&u), "int x = 2 ;");
    assert!(u.stats.trimmed_entries >= 1);
    assert!(u.stats.redefinitions >= 1);
}

#[test]
fn conditional_undef_partitions_definitions() {
    let src = "#define N 1\n#ifdef A\n#undef N\n#endif\nint x = N;\n";
    let u = pp(src);
    let cs = configs(&u);
    assert_eq!(cs.len(), 2);
    assert!(cs.iter().any(|(_, t)| t == "int x = N ;"));
    assert!(cs.iter().any(|(_, t)| t == "int x = 1 ;"));
}

#[test]
fn three_way_multiply_defined_macro() {
    let src = "\
#if defined(A)
#define V 1
#elif defined(B)
#define V 2
#else
#define V 3
#endif
int x = V;
";
    let u = pp(src);
    let cs = configs(&u);
    assert_eq!(cs.len(), 3);
    for want in ["int x = 1 ;", "int x = 2 ;", "int x = 3 ;"] {
        assert!(cs.iter().any(|(_, t)| t == want), "missing {want}");
    }
}

// ---------------------------------------------------------------------
// Backends agree
// ---------------------------------------------------------------------

#[test]
fn sat_backend_produces_same_configurations() {
    let src = &format!("{FIG2}#if BITS_PER_LONG == 32\nthirtytwo\n#else\nsixtyfour\n#endif\n");
    let u_bdd = pp_with_backend(&[("main.c", src)], CondBackend::Bdd).unwrap();
    let u_sat = pp_with_backend(&[("main.c", src)], CondBackend::Sat).unwrap();
    let mut t1: Vec<String> = configs(&u_bdd).into_iter().map(|(_, t)| t).collect();
    let mut t2: Vec<String> = configs(&u_sat).into_iter().map(|(_, t)| t).collect();
    t1.sort();
    t2.sort();
    assert_eq!(t1, t2);
}

// ---------------------------------------------------------------------
// Display / misc
// ---------------------------------------------------------------------

#[test]
fn display_text_reproduces_fig1_shape() {
    // Figure 1(a) → 1(b): includes and macros resolved, conditional kept.
    let src = "\
#include \"major.h\"
#define MOUSEDEV_MIX 31
static int mousedev_open(void)
{
  int i;
#ifdef CONFIG_INPUT_MOUSEDEV_PSAUX
  if (imajor() == MISC_MAJOR_X)
    i = MOUSEDEV_MIX;
  else
#endif
  i = 7;
  return 0;
}
";
    let u = pp_with(&[("main.c", src), ("major.h", "#define MISC_MAJOR_X 10\n")]);
    let text = u.display_text();
    assert!(text.contains("i = 31"), "macro expanded: {text}");
    assert!(text.contains("== 10"), "include's macro expanded: {text}");
    assert!(text.contains("#if"), "conditional preserved: {text}");
    assert_eq!(u.stats.output_conditionals, 1);
}

#[test]
fn stats_merge_accumulates() {
    let a = pp("#define X 1\nint x = X;\n").stats;
    let b = pp("#ifdef Y\nint y;\n#endif\n").stats;
    let mut total = a;
    total.merge(&b);
    assert_eq!(
        total.macro_definitions,
        a.macro_definitions + b.macro_definitions
    );
    assert_eq!(total.conditionals, a.conditionals + b.conditionals);
    assert!(total.max_depth >= b.max_depth);
}

#[test]
fn pperror_and_diagnostic_display() {
    let err = pp_with_backend(&[("main.c", "#if 1\nunclosed\n")], CondBackend::Bdd)
        .expect_err("unbalanced");
    assert!(format!("{err}").contains("unterminated"));
    let missing = pp_with_backend(&[], CondBackend::Bdd).expect_err("missing");
    assert!(missing.message.contains("not found"));
}

#[test]
fn token_and_conditional_counts() {
    let u = pp("#ifdef A\nint a;\n#endif\nint b;\n");
    assert_eq!(u.token_count(), 6);
    assert_eq!(u.stats.output_conditionals, 1);
}

// ---------------------------------------------------------------------
// Shared (cross-worker) preprocessing cache

/// Builds a preprocessor over `files`, optionally attached to a shared
/// artifact cache — the per-worker setup the corpus driver performs.
fn pp_tool(
    files: &[(&str, &str)],
    shared: Option<&std::sync::Arc<SharedCache>>,
) -> Preprocessor<MemFs> {
    let mut fs = MemFs::new();
    for (p, c) in files {
        fs.add(p, c);
    }
    let ctx = CondCtx::new(CondBackend::Bdd);
    let opts = PpOptions {
        profile: Profile::bare(),
        ..PpOptions::default()
    };
    let mut pp = Preprocessor::new(ctx, opts, fs);
    if let Some(cache) = shared {
        pp.set_shared_cache(std::sync::Arc::clone(cache));
    }
    pp
}

#[test]
fn shared_cache_serves_other_workers_without_changing_output() {
    let files = [
        (
            "main.c",
            "#include \"g.h\"\n#ifdef CONFIG_A\nint a = N;\n#endif\nint x = N;\n",
        ),
        ("g.h", "#ifndef G_H\n#define G_H\n#define N 9\n#endif\n"),
    ];
    let cache = std::sync::Arc::new(SharedCache::new());

    // Worker 1: cold cache — every file is a miss and gets published.
    let mut w1 = pp_tool(&files, Some(&cache));
    let u1 = w1.preprocess("main.c").expect("preprocess");
    assert_eq!(u1.stats.shared_cache_hits, 0);
    assert_eq!(u1.stats.shared_cache_misses, 2, "main.c and g.h published");
    assert_eq!(cache.len(), 2);

    // Worker 2: same tree, fresh preprocessor — every file is served
    // from the shared cache; nothing is lexed or re-published.
    let mut w2 = pp_tool(&files, Some(&cache));
    let u2 = w2.preprocess("main.c").expect("preprocess");
    assert_eq!(u2.stats.shared_cache_hits, 2);
    assert_eq!(u2.stats.shared_cache_misses, 0);
    assert_eq!(u2.stats.lex_nanos, 0, "no lexing on a fully warm cache");
    assert!(u2.stats.lex_nanos_saved > 0, "credited the producer's cost");
    assert_eq!(cache.len(), 2, "insert-once: no re-publication");

    // A cache-less run is the reference: byte-identical rendered output
    // and identical deterministic counters on both workers.
    let mut plain = pp_tool(&files, None);
    let up = plain.preprocess("main.c").expect("preprocess");
    assert_eq!(up.stats.shared_cache_hits + up.stats.shared_cache_misses, 0);
    assert_eq!(u1.display_text(), up.display_text());
    assert_eq!(u2.display_text(), up.display_text());
    let keep = [Class::Behavior, Class::Mode];
    assert_eq!(project(&u1.stats, &keep), project(&up.stats, &keep));
    assert_eq!(project(&u2.stats, &keep), project(&up.stats, &keep));
}

#[test]
fn guarded_header_included_many_times_is_lexed_exactly_once() {
    // One guard-protected header, included three times by each of three
    // units, across two workers. The shared-cache counters prove the
    // header was lexed exactly once in the whole process: one miss
    // (the publish) and pure hits afterwards.
    // Units differ by one identifier: distinct content, so each is its
    // own artifact under content-hash keying (identical contents would
    // share one — see `identical_contents_share_one_artifact`).
    let hdr = "#ifndef G_H\n#define G_H\n#define N 4\n#endif\n";
    let unit_a = "#include \"g.h\"\n#include \"g.h\"\n#include \"g.h\"\nint x = N;\n";
    let unit_b = "#include \"g.h\"\n#include \"g.h\"\n#include \"g.h\"\nint y = N;\n";
    let unit_c = "#include \"g.h\"\n#include \"g.h\"\n#include \"g.h\"\nint z = N;\n";
    let files = [
        ("a.c", unit_a),
        ("b.c", unit_b),
        ("c.c", unit_c),
        ("g.h", hdr),
    ];
    let cache = std::sync::Arc::new(SharedCache::new());

    let mut w1 = pp_tool(&files, Some(&cache));
    let ua = w1.preprocess("a.c").expect("a.c");
    // §3.2 case 4a: with the guard definitely defined, repeat includes
    // are skipped before reprocessing — and never pollute conditions.
    assert_eq!(ua.stats.includes, 3);
    assert_eq!(ua.stats.reincluded_headers, 0);
    assert_eq!(ua.stats.output_conditionals, 0);
    assert_eq!(ua.stats.shared_cache_misses, 2, "a.c + g.h lexed");

    // Second unit, same worker: the L1 cache serves g.h (no L2 traffic),
    // and `load_cached` re-registers the guard into the fresh per-unit
    // macro table, so the case-4a skip still fires.
    let ub = w1.preprocess("b.c").expect("b.c");
    assert_eq!(ub.stats.reincluded_headers, 0);
    assert_eq!(ub.stats.shared_cache_misses, 1, "only b.c itself");
    assert_eq!(ub.stats.shared_cache_hits, 0, "g.h came from L1");
    assert_eq!(flat_text(&ub), "int y = 4 ;");

    // Third unit, different worker: g.h arrives via L2 thaw, which must
    // also re-register the guard for the skip to fire.
    let mut w2 = pp_tool(&files, Some(&cache));
    let uc = w2.preprocess("c.c").expect("c.c");
    assert_eq!(uc.stats.shared_cache_hits, 1, "g.h served from L2");
    assert_eq!(uc.stats.shared_cache_misses, 1, "only c.c itself lexed");
    assert_eq!(uc.stats.reincluded_headers, 0, "guard skip after thaw");
    assert_eq!(uc.stats.output_conditionals, 0);
    assert_eq!(flat_text(&uc), "int z = 4 ;");

    // Every file in the tree was lexed exactly once for the whole
    // process: one miss per distinct path, no re-publication.
    let total_misses =
        ua.stats.shared_cache_misses + ub.stats.shared_cache_misses + uc.stats.shared_cache_misses;
    assert_eq!(total_misses, 4, "a.c, b.c, c.c, g.h — each lexed once");
    assert_eq!(cache.len(), 4);
}

#[test]
fn failed_lexes_are_never_published() {
    let files = [
        ("main.c", "#include \"bad.h\"\nint x;\n"),
        ("bad.h", "#ifdef OPEN\n"),
    ];
    let cache = std::sync::Arc::new(SharedCache::new());
    let mut pp = pp_tool(&files, Some(&cache));
    let u = pp.preprocess("main.c");
    assert!(u.is_err(), "unterminated conditional in header is fatal");
    assert_eq!(cache.len(), 1, "only main.c itself was published");
    // The next worker lexes the broken header again and reports the
    // error itself.
    let mut pp2 = pp_tool(&files, Some(&cache));
    let again = pp2.preprocess("main.c").expect_err("still fatal");
    assert_eq!(again.message, u.expect_err("fatal").message);
    assert_eq!(cache.len(), 1, "broken artifacts are never published");
}

#[test]
fn identical_contents_share_one_artifact() {
    // Content-hash keying makes the cache content-addressed: two paths
    // with identical bytes publish one artifact, and the second path
    // *hits* even though it was never lexed under that name.
    let body = "#define N 7\nint n = N;\n";
    let files = [("a.c", body), ("copy_of_a.c", body)];
    let cache = std::sync::Arc::new(SharedCache::new());
    let mut pp = pp_tool(&files, Some(&cache));
    let ua = pp.preprocess("a.c").expect("a.c");
    assert_eq!(ua.stats.shared_cache_misses, 1);
    let mut pp2 = pp_tool(&files, Some(&cache));
    let ub = pp2.preprocess("copy_of_a.c").expect("copy");
    assert_eq!(ub.stats.shared_cache_hits, 1, "same bytes, shared artifact");
    assert_eq!(ub.stats.shared_cache_misses, 0);
    assert_eq!(cache.len(), 1);
    assert_eq!(flat_text(&ua), flat_text(&ub));
}

#[test]
fn hash_memo_rereads_only_across_generations() {
    let cache = SharedCache::new();
    let reads = std::cell::Cell::new(0u32);
    let read = || {
        reads.set(reads.get() + 1);
        Some(std::sync::Arc::<str>::from("int a;\n"))
    };
    let v1 = cache.view("a.h", read).expect("exists");
    assert_eq!(reads.get(), 1);
    assert_eq!(v1.hash, SharedCache::content_hash(b"int a;\n"));
    // Same generation: the row answers, with the first read's bytes.
    let v2 = cache.view("a.h", read).expect("exists");
    assert_eq!((v2.hash, reads.get()), (v1.hash, 1));
    assert!(
        std::sync::Arc::ptr_eq(&v1.text, &v2.text),
        "one read's bytes"
    );
    assert_eq!(cache.rehashes(), 1);
    // New generation: the row is stale, the file is re-read; changed
    // bytes hash to a new key.
    cache.next_generation();
    let edited = || Some(std::sync::Arc::<str>::from("int a2;\n"));
    let v3 = cache.view("a.h", edited).expect("exists");
    assert_ne!(v3.hash, v1.hash, "edited contents must change the key");
    assert_eq!(&*v3.text, "int a2;\n");
    assert_eq!(cache.rehashes(), 2);
    // Missing files are kept as absent: one read per generation, and
    // no rehash is counted for them.
    let absent_reads = std::cell::Cell::new(0u32);
    let absent = || {
        absent_reads.set(absent_reads.get() + 1);
        None
    };
    assert!(cache.view("gone.h", absent).is_none());
    assert!(cache.view("gone.h", absent).is_none());
    assert_eq!((absent_reads.get(), cache.rehashes()), (1, 2));
}

#[test]
fn targeted_generation_rereads_only_the_changed_paths() {
    let cache = SharedCache::new();
    let reads = std::cell::Cell::new(0u32);
    let read = |text: &'static str| {
        let reads = &reads;
        move || {
            reads.set(reads.get() + 1);
            Some(std::sync::Arc::<str>::from(text))
        }
    };
    let a1 = cache.view("a.h", read("int a;\n")).expect("a.h");
    cache.view("b.h", read("int b;\n")).expect("b.h");
    assert!(cache.view("new.h", || None).is_none());
    assert_eq!(reads.get(), 2);

    // b.h was edited and new.h created: only their rows are dropped.
    cache.next_generation_with(Some(&["b.h".to_string(), "new.h".to_string()]));
    let a2 = cache.view("a.h", read("unused")).expect("a.h");
    assert_eq!(
        (a2.hash, &*a2.text, reads.get()),
        (a1.hash, "int a;\n", 2),
        "a.h restamped with its bytes"
    );
    cache.view("b.h", read("int b2;\n")).expect("b.h");
    cache
        .view("new.h", read("int n;\n"))
        .expect("new.h now exists");
    assert_eq!((reads.get(), cache.rehashes()), (4, 4));

    // No change set: every row expires.
    cache.next_generation_with(None);
    cache.view("a.h", read("int a;\n")).expect("a.h");
    assert_eq!(reads.get(), 5, "full invalidation rereads a.h");
}

#[test]
fn concurrent_misses_on_one_path_read_it_once() {
    // The first reader holds its read open until the second worker has
    // joined the in-flight row (the row, the reader and the waiter each
    // hold its cell); single flight makes the waiter take the reader's
    // answer instead of reading (and counting) again.
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    let cache = Arc::new(SharedCache::new());
    let reads = Arc::new(AtomicU32::new(0));
    let first = {
        let (cache, reads) = (cache.clone(), reads.clone());
        std::thread::spawn(move || {
            cache.view("hot.h", || {
                reads.fetch_add(1, Ordering::SeqCst);
                while cache.row_holders("hot.h") < 3 {
                    std::thread::yield_now();
                }
                Some(Arc::<str>::from("int hot;\n"))
            })
        })
    };
    while reads.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    let second = cache.view("hot.h", || {
        reads.fetch_add(1, Ordering::SeqCst);
        Some(Arc::<str>::from("int hot;\n"))
    });
    let v1 = first.join().expect("first reader").expect("exists");
    let v2 = second.expect("exists");
    assert_eq!(reads.load(Ordering::SeqCst), 1, "one read for two misses");
    assert_eq!(cache.rehashes(), 1);
    assert_eq!(v1.hash, v2.hash);
    assert!(
        Arc::ptr_eq(&v1.text, &v2.text),
        "the waiter gets the reader's bytes"
    );
    assert_eq!(cache.row_holders("hot.h"), 1, "waiters let go");
}

#[test]
fn concurrent_misses_on_one_content_lex_it_once() {
    // The first worker holds its lex open until the second has joined
    // the in-flight slot (the map, the lexer and the waiter each hold
    // it); single flight makes the waiter take the first worker's
    // artifact instead of lexing (and counting a miss) again.
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Arc;
    let cache = Arc::new(SharedCache::new());
    let lexes = Arc::new(AtomicU32::new(0));
    let lexing = Arc::new(AtomicBool::new(false));
    let make = |lexes: &AtomicU32| {
        lexes.fetch_add(1, Ordering::SeqCst);
        let art = SharedArtifact::freeze(&[], None, 9, 11);
        Ok::<_, ()>(((), art))
    };
    let first = {
        let (cache, lexes, lexing) = (cache.clone(), lexes.clone(), lexing.clone());
        std::thread::spawn(move || {
            let made = cache.get_or_make(7, || {
                lexing.store(true, Ordering::SeqCst);
                while cache.slot_holders(7) < 3 {
                    std::thread::yield_now();
                }
                make(&lexes)
            });
            matches!(made, Ok(crate::Lookup::Made(())))
        })
    };
    while !lexing.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    let second = cache.get_or_make(7, || make(&lexes));
    assert!(
        first.join().expect("first worker"),
        "the first worker lexes"
    );
    match second {
        Ok(crate::Lookup::Hit(art)) => assert_eq!((art.bytes, art.lex_nanos), (9, 11)),
        _ => panic!("the waiter must take the first worker's artifact"),
    }
    assert_eq!(lexes.load(Ordering::SeqCst), 1, "one lex for two misses");
    assert_eq!(cache.slot_holders(7), 1, "waiters let go");
    assert_eq!(cache.len(), 1);
}

#[test]
fn sweep_evicts_dead_hashes_and_keeps_live_ones() {
    let files = [
        ("main.c", "#include \"g.h\"\nint x = N;\n"),
        ("g.h", "#define N 9\n"),
    ];
    let cache = std::sync::Arc::new(SharedCache::new());
    let mut pp = pp_tool(&files, Some(&cache));
    pp.preprocess("main.c").expect("preprocess");
    assert_eq!(cache.len(), 2);

    // Next batch: g.h is edited; main.c revalidates, g.h re-publishes
    // under its new hash. The old g.h artifact is now a dead hash.
    let files2 = [
        ("main.c", "#include \"g.h\"\nint x = N;\n"),
        ("g.h", "#define N 10\n"),
    ];
    cache.next_generation();
    let mut pp2 = pp_tool(&files2, Some(&cache));
    let u2 = pp2.preprocess("main.c").expect("preprocess");
    assert_eq!(u2.stats.shared_cache_hits, 1, "main.c unchanged: hit");
    assert_eq!(u2.stats.shared_cache_misses, 1, "g.h edited: relexed");
    assert_eq!(cache.len(), 3, "old g.h artifact still resident");
    assert_eq!(cache.sweep(), 1, "exactly the dead hash evicted");
    assert_eq!(cache.len(), 2);
    assert_eq!(flat_text(&u2), "int x = 10 ;");
}

#[test]
fn generations_without_a_sweep_keep_one_orphan_per_content() {
    // A cold pool starts a generation per batch with no change set and
    // never sweeps: every generation drops every row and releases its
    // hash. Over the same files, the hashes awaiting a sweep stay one
    // per distinct content instead of growing per generation, and the
    // sweep that finally runs evicts nothing the rows still hold.
    let cache = SharedCache::new();
    let files = [
        ("a.h", "int a;\n"),
        ("twin.h", "int a;\n"),
        ("b.h", "int b;\n"),
    ];
    for _ in 0..50 {
        cache.next_generation();
        for (path, text) in files {
            cache.view(path, || Some(std::sync::Arc::<str>::from(text)));
        }
    }
    assert_eq!(cache.rehashes(), 150, "every generation reads every path");
    assert!(
        cache.orphans_pending() <= 2,
        "{} orphans for 2 contents",
        cache.orphans_pending()
    );
    assert_eq!(cache.sweep(), 0, "every content is still held");
    assert_eq!(cache.orphans_pending(), 0);
}

#[test]
fn warm_worker_revalidates_its_l1_across_generations() {
    // One worker, two batches: the worker's L1 entry for an edited file
    // must be evicted at the generation boundary (hash mismatch) while
    // the unchanged header's entry revalidates in place.
    let fs = std::sync::Arc::new(crate::DriverFs::new());
    fs.set("main.c", "#include \"g.h\"\nint x = N;\n");
    fs.set("g.h", "#define N 1\n");
    let cache = std::sync::Arc::new(SharedCache::new());
    let ctx = CondCtx::new(CondBackend::Bdd);
    let opts = PpOptions {
        profile: Profile::bare(),
        ..PpOptions::default()
    };
    let mut pp = Preprocessor::new(ctx, opts, std::sync::Arc::clone(&fs));
    pp.set_shared_cache(std::sync::Arc::clone(&cache));

    let u1 = pp.preprocess("main.c").expect("batch 1");
    assert_eq!(flat_text(&u1), "int x = 1 ;");
    let deps1 = pp.unit_deps();
    assert_eq!(
        deps1.iter().map(|(p, _)| p.as_str()).collect::<Vec<_>>(),
        vec!["g.h", "main.c"],
        "sorted include-closure fingerprint"
    );

    // Edit between batches, as the pooled runner would see it.
    fs.set("main.c", "#include \"g.h\"\nint x = N + N;\n");
    cache.next_generation();
    let u2 = pp.preprocess("main.c").expect("batch 2");
    assert_eq!(flat_text(&u2), "int x = 1 + 1 ;", "edit visible through L1");
    let deps2 = pp.unit_deps();
    assert_eq!(deps1[0], deps2[0], "unchanged header: same hash");
    assert_ne!(deps1[1].1, deps2[1].1, "edited unit: new hash");
}
