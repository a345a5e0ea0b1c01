//! Exact pins on merge behaviour.
//!
//! The merge index (the map from merge key to the queued subparsers a
//! new one may merge with) and the deterministic fast path both decide
//! which merge candidates get probed. Neither may change *what* merges:
//! these tests pin the merge-surface counters — merges, probes, choice
//! nodes, main-loop iterations and peak live subparsers — to exact
//! values on a Figure-6-style initializer, under the optimized engine
//! and both MAPR baselines, and on the 128-unit kernelgen corpus under
//! the optimized engine.
//!
//! `merge_probes` is pinned only with the fast path off: the fast path
//! skips the probe for steps that cannot merge (that is its point), so
//! with it on the probe count is a gauge of coverage, not behaviour.

use superc::corpus::{process_corpus, CorpusOptions};
use superc::{MemFs, Options, ParseStats, ParserConfig, SuperC};
use superc_kernelgen::{generate, CorpusSpec};

/// The pinned merge surface of one run.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    merges: u64,
    /// `None` where the fast path is on (see the module docs).
    merge_probes: Option<u64>,
    choice_nodes: u64,
    iterations: u64,
    max_subparsers: usize,
}

fn pin(s: &ParseStats, fastpath: bool) -> Pin {
    Pin {
        merges: s.merges,
        merge_probes: (!fastpath).then_some(s.merge_probes),
        choice_nodes: s.choice_nodes,
        iterations: s.iterations,
        max_subparsers: s.max_subparsers,
    }
}

fn options(parser: ParserConfig, fastpath: bool) -> Options {
    let mut o = Options {
        parser,
        ..Options::default()
    };
    o.parser.fastpath = fastpath;
    o.pp.fuse_lexing = fastpath;
    o
}

fn engines() -> [(&'static str, ParserConfig); 3] {
    [
        ("full", ParserConfig::full()),
        ("mapr", ParserConfig::mapr()),
        ("mapr_largest_first", ParserConfig::mapr_largest_first()),
    ]
}

/// Figure 6's shape in C: an initializer whose members each sit in
/// their own conditional, so every member is a fork and a merge.
fn fig6_initializer(members: usize) -> String {
    let mut s = String::from("static const char *names[] = {\n");
    for i in 0..members {
        s.push_str(&format!("#ifdef CONFIG_P{i}\n    \"m{i}\",\n#endif\n"));
    }
    s.push_str("    0\n};\nint tail;\n");
    s
}

#[test]
fn fig6_initializer_merges_are_pinned() {
    let fs = MemFs::new().file("fig6.c", &fig6_initializer(8));
    // The optimized engine merges after every member; MAPR merges only
    // value-identical stacks, so it never merges here and runs all 2^8
    // configurations side by side.
    let expected = |name: &str, fastpath: bool| match name {
        "full" => Pin {
            merges: 8,
            merge_probes: (!fastpath).then_some(8),
            choice_nodes: 8,
            iterations: 246,
            max_subparsers: 2,
        },
        _ => Pin {
            merges: 0,
            merge_probes: (!fastpath).then_some(242_769),
            choice_nodes: 0,
            iterations: 16_637,
            max_subparsers: 256,
        },
    };
    for (name, config) in engines() {
        for fastpath in [false, true] {
            let mut sc = SuperC::new(options(config, fastpath), fs.clone());
            let p = sc.process("fig6.c").expect("processes");
            assert!(p.result.errors.is_empty(), "{name}: {:?}", p.result.errors);
            assert_eq!(
                pin(&p.result.stats, fastpath),
                expected(name, fastpath),
                "{name} fastpath={fastpath}"
            );
        }
    }
}

#[test]
fn kernelgen_corpus_merges_are_pinned() {
    let corpus = generate(&CorpusSpec::kernel().units(128));
    let copts = CorpusOptions {
        jobs: 2,
        ..CorpusOptions::default()
    };
    // MAPR is left out: on this corpus it runs into its kill switch
    // after hundreds of millions of steps.
    for fastpath in [false, true] {
        let r = process_corpus(
            &corpus.fs,
            &corpus.units,
            &options(ParserConfig::full(), fastpath),
            &copts,
        );
        assert_eq!(
            pin(&r.parse, fastpath),
            Pin {
                merges: 5_587,
                merge_probes: (!fastpath).then_some(44_751),
                choice_nodes: 5_879,
                iterations: 682_747,
                max_subparsers: 7,
            },
            "fastpath={fastpath}"
        );
    }
}
