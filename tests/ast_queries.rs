//! The whole-tree AST queries against their unfolded definitions.
//!
//! Choice alternatives share `Rc` subtrees, so the AST is a DAG. The
//! library walks it once per distinct node; the references below are
//! the plain recursive walks of the unfolded tree they replaced. Every
//! tree here must give the same counts and the same declared names, in
//! the same order and multiplicity, both ways. Goldens pin the counts
//! and names on a 128-unit kernel tree, and a doubling DAG checks that
//! the library no longer pays for the unfolding.

use std::rc::Rc;
use std::sync::mpsc;
use std::time::Duration;

use superc::analyze::render::canonical;
use superc::corpus::{process_corpus, CorpusOptions};
use superc::cpp::PTok;
use superc::fmlr::AstNode;
use superc::lexer::{SourcePos, Token, TokenKind};
use superc::{
    Budgets, Cond, CondBackend, CondCtx, DiskFs, FileSystem, Options, Profile, SemVal, SuperC,
};
use superc_csyntax::{declared_names, first_declarator_tok, DeclaredName};
use superc_kernelgen::{generate, Corpus, CorpusSpec};

// ---------------------------------------------------------------------
// The references: today's recursive walks of the unfolded tree
// ---------------------------------------------------------------------

fn ref_node_count(v: &SemVal) -> usize {
    match v {
        SemVal::Node(n) => 1 + n.children.iter().map(ref_node_count).sum::<usize>(),
        SemVal::Choice(alts) => alts.iter().map(|(_, v)| ref_node_count(v)).sum(),
        _ => 0,
    }
}

fn ref_choice_count(v: &SemVal) -> usize {
    match v {
        SemVal::Node(n) => n.children.iter().map(ref_choice_count).sum(),
        SemVal::Choice(alts) => 1 + alts.iter().map(|(_, v)| ref_choice_count(v)).sum::<usize>(),
        _ => 0,
    }
}

fn ref_visit(v: &SemVal, cond: Option<&Cond>, f: &mut dyn FnMut(&AstNode, Option<&Cond>)) {
    match v {
        SemVal::Node(n) => {
            f(n, cond);
            for ch in &n.children {
                ref_visit(ch, cond, f);
            }
        }
        SemVal::Choice(alts) => {
            for (c, v) in alts.iter() {
                ref_visit(v, Some(c), f);
            }
        }
        _ => {}
    }
}

fn ref_flatten_tokens(v: &SemVal, out: &mut String) {
    match v {
        SemVal::Tok(t) => {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(t.text());
        }
        SemVal::Node(n) => {
            for c in &n.children {
                ref_flatten_tokens(c, out);
            }
        }
        SemVal::Choice(alts) => {
            for (_, alt) in alts.iter() {
                ref_flatten_tokens(alt, out);
            }
        }
        SemVal::Empty => {}
    }
}

fn ref_declarator_shape(v: &SemVal, name_pos: Option<SourcePos>, out: &mut String) {
    match v {
        SemVal::Tok(t) => {
            if !out.is_empty() {
                out.push(' ');
            }
            if Some(t.tok.pos) == name_pos {
                out.push('$');
            } else {
                out.push_str(t.text());
            }
        }
        SemVal::Node(n) => {
            let kids: &[SemVal] = if &*n.kind == "InitDeclarator" {
                &n.children[..1.min(n.children.len())]
            } else {
                &n.children
            };
            for c in kids {
                ref_declarator_shape(c, name_pos, out);
            }
        }
        SemVal::Choice(alts) => {
            for (_, alt) in alts.iter() {
                ref_declarator_shape(alt, name_pos, out);
            }
        }
        SemVal::Empty => {}
    }
}

fn ref_declared_names(ast: &SemVal) -> Vec<DeclaredName> {
    let mut out = Vec::new();
    ref_visit(ast, None, &mut |n, cond| {
        let grab = |decl: Option<&SemVal>, specs: Option<&SemVal>, out: &mut Vec<DeclaredName>| {
            let mut specifiers = String::new();
            if let Some(s) = specs {
                ref_flatten_tokens(s, &mut specifiers);
            }
            let mut stack: Vec<(&SemVal, Option<&Cond>)> =
                decl.into_iter().map(|v| (v, cond)).collect();
            while let Some((v, vc)) = stack.pop() {
                match v {
                    SemVal::Node(m) if &*m.kind == "InitDeclaratorList" => {
                        stack.extend(m.children.iter().map(|ch| (ch, vc)));
                    }
                    SemVal::Choice(alts) => {
                        stack.extend(alts.iter().map(|(c, v)| (v, Some(c))));
                    }
                    other => {
                        if let Some(t) = first_declarator_tok(other) {
                            let pos = Some(t.tok.pos);
                            let mut shape = String::new();
                            ref_declarator_shape(other, pos, &mut shape);
                            out.push(DeclaredName {
                                name: t.tok.text.clone(),
                                kind: n.kind.clone(),
                                cond: vc.cloned(),
                                pos,
                                specifiers: specifiers.clone(),
                                shape,
                            });
                        }
                    }
                }
            }
        };
        match &*n.kind {
            "Declaration" | "FunctionDefinition" => {
                grab(n.children.get(1), n.children.first(), &mut out)
            }
            "Enumerator" => {
                if let Some(t) = n.children.first().and_then(SemVal::as_token) {
                    out.push(DeclaredName {
                        name: t.tok.text.clone(),
                        kind: n.kind.clone(),
                        cond: cond.cloned(),
                        pos: Some(t.tok.pos),
                        specifiers: String::new(),
                        shape: "$".to_string(),
                    });
                }
            }
            _ => {}
        }
    });
    out
}

// ---------------------------------------------------------------------
// The differential oracle
// ---------------------------------------------------------------------

/// Checks every query on `ast` against its reference; returns the
/// number of declared names.
fn check(label: &str, ast: &SemVal) -> usize {
    assert_eq!(ast.node_count(), ref_node_count(ast), "{label}: node_count");
    assert_eq!(
        ast.choice_count(),
        ref_choice_count(ast),
        "{label}: choice_count"
    );
    let got = declared_names(ast);
    let want = ref_declared_names(ast);
    assert_eq!(got.len(), want.len(), "{label}: declared names");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(format!("{g:?}"), format!("{w:?}"), "{label}: name {i}");
    }
    got.len()
}

/// Processes every unit with one tool and checks each AST; returns the
/// number of ASTs checked.
fn check_units<F: FileSystem>(label: &str, options: Options, fs: F, units: &[String]) -> usize {
    let mut tool = SuperC::new(options, fs);
    let mut asts = 0;
    for unit in units {
        let processed = tool.process(unit).unwrap_or_else(|e| panic!("{unit}: {e}"));
        if let Some(ast) = &processed.result.ast {
            check(&format!("{label} {unit}"), ast);
            asts += 1;
        }
    }
    asts
}

fn check_corpus(label: &str, corpus: &Corpus) {
    let n = check_units(label, Options::default(), corpus.fs.clone(), &corpus.units);
    assert_eq!(n, corpus.units.len(), "{label}: every unit parses");
}

fn kernel(units: usize, seed: u64) -> Corpus {
    generate(&CorpusSpec {
        seed,
        ..CorpusSpec::kernel().units(units)
    })
}

fn fixture(dir: &str) -> (DiskFs, Vec<String>) {
    let root = format!("{}/tests/fixtures/{dir}", env!("CARGO_MANIFEST_DIR"));
    let mut units: Vec<String> = std::fs::read_dir(&root)
        .expect("fixture dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".c"))
        .collect();
    units.sort();
    (DiskFs::new(root), units)
}

#[test]
fn queries_match_the_unfolded_walks_on_kernel_trees() {
    check_corpus("small", &generate(&CorpusSpec::small()));
    for seed in 1..=3 {
        check_corpus(&format!("kernel seed {seed}"), &kernel(64, seed));
    }
}

#[test]
fn queries_match_the_unfolded_walks_on_the_fixtures() {
    let (fs, units) = fixture("lint");
    assert!(check_units("lint", Options::default(), fs, &units) > 0);
    for profile in [
        Profile::gcc_linux(),
        Profile::clang_macos(),
        Profile::msvc_windows(),
    ] {
        let mut options = Options::default();
        options.pp.profile = profile;
        let (fs, units) = fixture("portability");
        assert!(check_units("portability", options, fs, &units) > 0);
    }
    // The robustness fixtures under the budgets their own tests use: the
    // hostile ones trip them and leave partial trees.
    let options = Options {
        budgets: Budgets {
            max_steps: 400,
            max_include_depth: 8,
            ..Budgets::unlimited()
        },
        ..Options::default()
    };
    let (fs, units) = fixture("robustness");
    assert!(check_units("robustness", options, fs, &units) > 0);
}

// ---------------------------------------------------------------------
// Goldens
// ---------------------------------------------------------------------

/// FNV-1a, 64-bit: a digest that no library change can move.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Nothing else pins the unfolded choice count (`tests/counters.rs`
/// pins the engine's `fmlr.choice_nodes`, the choice nodes it built) or
/// the declared names of a whole tree. Positions render with file names
/// and conditions canonically, so the digest does not depend on file
/// ids or BDD variable order.
#[test]
fn kernel_tree_choice_nodes_and_declared_names_match_the_goldens() {
    let corpus = kernel(128, 1);
    let copts = CorpusOptions {
        jobs: 2,
        ..CorpusOptions::default()
    };
    let report = process_corpus(&corpus.fs, &corpus.units, &Options::default(), &copts);
    let choice_nodes: usize = report.units.iter().map(|u| u.choice_nodes).sum();

    let mut tool = SuperC::new(Options::default(), corpus.fs.clone());
    let tru = tool.ctx().tru();
    let (mut count, mut digest) = (0usize, 0xcbf2_9ce4_8422_2325u64);
    for unit in &corpus.units {
        let processed = tool.process(unit).expect("processes");
        let ast = processed.result.ast.as_ref().expect("ast");
        for d in declared_names(ast) {
            let pos = d.pos.unwrap_or_default();
            let file = tool.preprocessor().file_name(pos.file).unwrap_or("?");
            let line = format!(
                "{unit}\t{}\t{}\t{}\t{file}:{}:{}\t{}\t{}\n",
                d.name,
                d.kind,
                canonical(d.cond.as_ref().unwrap_or(&tru)),
                pos.line,
                pos.col,
                d.specifiers,
                d.shape
            );
            fnv1a(&mut digest, line.as_bytes());
            count += 1;
        }
    }
    assert_eq!(
        (choice_nodes, count, format!("{digest:016x}")),
        (GOLDEN_CHOICE_NODES, GOLDEN_NAMES, GOLDEN_DIGEST.to_string())
    );
}

// ---------------------------------------------------------------------
// Hostile DAGs
// ---------------------------------------------------------------------

fn tok(text: &str, line: u32) -> SemVal {
    let pos = SourcePos {
        line,
        ..SourcePos::default()
    };
    SemVal::Tok(PTok::new(Token::new(TokenKind::Ident, text, pos, false)))
}

fn node(kind: &str, children: Vec<SemVal>) -> SemVal {
    SemVal::Node(Rc::new(AstNode {
        prod: 0,
        sym: superc::grammar::SymbolId(0),
        kind: kind.into(),
        children,
        list: false,
    }))
}

/// `int x = <dag>;` (`long` under `S`): one `Declaration` above a DAG
/// of `depth` levels, each a choice whose two alternatives share the
/// level below, so the unfolded tree holds `2^depth` copies of the
/// bottom (a choice too).
fn doubling_dag(ctx: &CondCtx, depth: usize) -> SemVal {
    let z = ctx.var("Z");
    let bottom = vec![(z.not(), tok("zero", 3)), (z, tok("one", 3))];
    let mut level = node("Leaf", vec![SemVal::Choice(Rc::new(bottom))]);
    for i in 0..depth {
        let a = ctx.var(&format!("A{i}"));
        let alts = vec![(a.not(), level.clone()), (a, level)];
        level = node("Level", vec![SemVal::Choice(Rc::new(alts))]);
    }
    let s = ctx.var("S");
    let specs = vec![(s.not(), tok("int", 1)), (s, tok("long", 1))];
    let declarator = node(
        "Declarator",
        vec![node("DirectDeclarator", vec![tok("x", 2)])],
    );
    node(
        "Declaration",
        vec![
            node(
                "DeclarationSpecifiers",
                vec![SemVal::Choice(Rc::new(specs))],
            ),
            node("InitDeclarator", vec![declarator, tok("=", 2), level]),
        ],
    )
}

#[test]
fn shared_subtrees_count_once_per_path() {
    let ctx = CondCtx::new(CondBackend::Bdd);
    let ast = doubling_dag(&ctx, 10);
    assert_eq!(check("doubling dag", &ast), 1);
    // The specifier choice and 2^11 - 1 below it; 5 declaration nodes
    // and 2^11 - 1 level and leaf nodes.
    assert_eq!((ast.choice_count(), ast.node_count()), (2048, 2052));

    // A shared declaration yields its name once per path, each under
    // the condition of its own alternative.
    let b = ctx.var("B");
    let decl = doubling_dag(&ctx, 2);
    let twice = SemVal::Choice(Rc::new(vec![(b.clone(), decl.clone()), (b.not(), decl)]));
    assert_eq!(check("shared declaration", &twice), 2);
    let conds: Vec<String> = declared_names(&twice)
        .iter()
        .map(|d| d.cond.as_ref().map_or("none".into(), canonical))
        .collect();
    assert_eq!(conds, [canonical(&b), canonical(&b.not())]);
}

#[test]
fn a_doubling_dag_does_not_stall_the_queries() {
    // The unfolded walk of 64 levels never finishes; run it where the
    // test can give up on it instead of hanging the suite.
    let (tx, rx) = mpsc::channel();
    let queries = std::thread::spawn(move || {
        let ctx = CondCtx::new(CondBackend::Bdd);
        let ast = doubling_dag(&ctx, 64);
        let names: Vec<String> = declared_names(&ast)
            .iter()
            .map(|d| d.name.to_string())
            .collect();
        tx.send((ast.choice_count(), ast.node_count(), names)).ok();
    });
    let got = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the queries finish on a 64-level doubling DAG");
    queries.join().expect("the query thread ends cleanly");
    // 2^65 choices and 2^65 + 4 nodes: both counts saturate.
    assert_eq!(got, (usize::MAX, usize::MAX, vec!["x".to_string()]));
}

/// Recorded with the recursive unfolded walks, before the library
/// memoized shared subtrees.
const GOLDEN_CHOICE_NODES: usize = 992_315;
const GOLDEN_NAMES: usize = 9_962;
const GOLDEN_DIGEST: &str = "6d5f87f16f7ff966";
