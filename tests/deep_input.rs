//! Deeply nested or chained input ends in a result, never a stack
//! overflow, and its outcome does not depend on which thread ran it.
//!
//! - A long `1+1+…+1` chain parses the same on a corpus worker as on a
//!   main thread: every worker gets a main thread's 8 MiB stack.
//! - An `#if` expression nested past 64 levels (parentheses, prefix
//!   operators, `?:` arms) is malformed: a warning and an opaque
//!   condition that keeps the guarded tokens. These run on a 512 KiB
//!   thread, so a recursion that escapes the bound fails every time.

use superc::corpus::{process_corpus, CorpusOptions};
use superc::counters::Class;
use superc::{MemFs, Options, ProcessedUnit, SuperC};

/// Runs `f` on a fresh thread with `bytes` of stack.
fn on_stack<T: Send>(bytes: usize, f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(bytes)
            .spawn_scoped(s, f)
            .expect("spawn")
            .join()
            .expect("no panic")
    })
}

#[test]
fn pool_workers_parse_a_long_chain_like_the_main_thread() {
    let mut chain = String::from("int x = 1");
    chain.push_str(&"+1".repeat(9_999));
    chain.push_str(";\n");
    let fs = MemFs::new()
        .file("chain.c", &chain)
        .file("one.c", "int one;\n");
    let units = vec!["chain.c".to_string(), "one.c".to_string()];
    let run = |jobs: usize| {
        let copts = CorpusOptions {
            jobs,
            ..CorpusOptions::default()
        };
        process_corpus(&fs, &units, &Options::default(), &copts)
    };
    // The pooled run goes first: glibc hands a new thread a cached stack
    // up to four times the size it asked for, so an 8 MiB thread that
    // exited earlier would hide a worker stack that is too small.
    let pooled = run(2);
    // One job runs on the calling thread: give it a main thread's stack.
    let alone = on_stack(8 << 20, || run(1));
    assert_eq!(pooled.workers, 2, "both units must run on pool workers");
    assert!(alone.units[0].parsed, "{:?}", alone.units[0].errors);
    alone
        .check_same(&pooled, &[Class::Behavior, Class::Mode])
        .unwrap_or_else(|d| panic!("pool workers vs one thread: {d}"));
}

fn process(src: &str) -> ProcessedUnit {
    let fs = MemFs::new().file("u.c", src);
    SuperC::new(Options::default(), fs)
        .process("u.c")
        .expect("processes")
}

const DEPTH_WARNING: &str = "conditional expression nested deeper than 64";

#[test]
fn deep_if_expressions_warn_and_keep_the_guarded_tokens() {
    on_stack(512 << 10, || {
        let parens = format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000));
        let bangs = format!("{}X", "!".repeat(100_000));
        let arms = format!("{}1{}", "1 ? ".repeat(100_000), " : 0".repeat(100_000));
        for expr in [parens, bangs, arms] {
            let p = process(&format!("#if {expr}\nint guarded;\n#endif\nint tail;\n"));
            assert!(
                p.unit
                    .diagnostics
                    .iter()
                    .any(|d| d.message.contains(DEPTH_WARNING)),
                "{:?}",
                p.unit.diagnostics
            );
            assert!(p.unit.display_text().contains("guarded"));
            assert!(p.result.errors.is_empty(), "{:?}", p.result.errors);
        }
    });
}

#[test]
fn if_expressions_at_the_depth_bound_still_evaluate() {
    on_stack(512 << 10, || {
        let at_bound =
            |open: &str, close: &str| format!("{}1{}", open.repeat(64), close.repeat(64));
        for expr in [
            at_bound("(", ")"),
            at_bound("!", ""),
            at_bound("1 ? ", " : 0"),
        ] {
            let p = process(&format!("#if {expr}\nint guarded;\n#endif\n"));
            assert!(p.unit.diagnostics.is_empty(), "{:?}", p.unit.diagnostics);
            // The expression folds to true: the declaration is kept
            // unconditionally.
            assert_eq!(p.unit.stats.conditionals, 1);
            assert!(p.unit.display_text().contains("guarded"));
            assert_eq!(p.result.ast.expect("parses").choice_count(), 0);
        }
        // One level deeper is past the bound.
        let p = process(&format!(
            "#if {}1{}\nint guarded;\n#endif\n",
            "(".repeat(65),
            ")".repeat(65)
        ));
        assert!(p
            .unit
            .diagnostics
            .iter()
            .any(|d| d.message.contains(DEPTH_WARNING)));
    });
}
