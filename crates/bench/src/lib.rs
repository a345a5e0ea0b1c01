//! Shared harness for the experiment binaries that regenerate the
//! paper's tables and figures (§6), and the corpora of `bench_snapshot`,
//! the performance gate.
//!
//! Each binary prints one artifact:
//!
//! | binary | artifact |
//! |--------|----------|
//! | `table2` | Table 2: developer's view of preprocessor usage |
//! | `table3` | Table 3: tool's view (50·90·100 percentiles) |
//! | `fig8` | Figure 8: subparser counts per optimization level |
//! | `fig9` | Figure 9: latency, SuperC vs the TypeChef-style baseline |
//! | `fig10` | Figure 10: latency breakdown by phase vs unit size |
//! | `gcc_baseline` | §6.3's gcc comparison (single-configuration mode) |
//!
//! Run them with `cargo run --release -p superc-bench --bin <name>`.
//! Absolute numbers differ from the paper (synthetic corpus, different
//! machine); the *shapes* are the reproduction target.

use superc::{Options, PpOptions, ProcessedUnit, Profile, SuperC};
use superc_kernelgen::{generate, Corpus, CorpusSpec};

/// Standard preprocessor options for corpus runs.
pub fn pp_options() -> PpOptions {
    PpOptions {
        profile: Profile::default(),
        ..PpOptions::default()
    }
}

/// The full ("unconstrained") corpus used by Tables 2–3, Figure 8, and
/// Figure 10.
pub fn full_corpus() -> Corpus {
    generate(&CorpusSpec::default())
}

/// The constrained corpus: the only one the SAT baseline completes in
/// reasonable time, mirroring the paper's constrained kernel (§6.3).
pub fn constrained_corpus() -> Corpus {
    generate(&CorpusSpec::constrained())
}

/// The kernel-shaped corpus behind `bench_snapshot`'s `kernel` jobs
/// ladder: kernelgen's kernel preset (deep shared header tree, wide
/// subsystem-header pool) at a unit count large enough to amortize
/// per-batch scheduling yet small enough for interleaved ladder reps.
pub fn kernel_corpus() -> Corpus {
    generate(&CorpusSpec::kernel().units(128))
}

/// The corpus for Figure 9: variability between the constrained and
/// full corpora, calibrated so the SAT baseline finishes while its
/// latency knee is clearly visible.
pub fn fig9_corpus() -> Corpus {
    generate(&CorpusSpec {
        init_members: (4, 12),
        units: 32,
        ..CorpusSpec::default()
    })
}

/// Builds the C grammar tables before timing starts, so the one-time
/// LALR construction does not pollute the first unit's latency.
pub fn warm_up() {
    let _ = superc::c_grammar();
}

/// A corpus with a wide unit-size spread, for Figure 10's size axis.
pub fn size_spread_corpus() -> Corpus {
    generate(&CorpusSpec {
        units: 32,
        functions_per_unit: (2, 60),
        ..CorpusSpec::default()
    })
}

/// A header-dominated corpus for the shared preprocessing cache: many
/// tiny units all including the same set of large, comment-heavy,
/// guard-protected headers. Lexing cost is proportional to *bytes*
/// scanned while everything downstream is proportional to *tokens*, so
/// headers that are mostly comments make the redundant per-worker
/// re-lexing the dominant cost — exactly what the shared L2 cache
/// eliminates. Hand-built (not `kernelgen`) so the header/unit byte
/// ratio is controlled.
pub fn full_headers_corpus() -> Corpus {
    const HEADERS: usize = 8;
    const UNITS: usize = 64;
    // ~256 KiB of comment per header: byte-heavy, token-light.
    let filler_line = "/* shared header filler: the point of this text is to cost the \
                       lexer bytes without producing any tokens at all. */\n";
    let filler = filler_line.repeat(256 * 1024 / filler_line.len());

    let mut fs = superc::MemFs::new();
    for h in 0..HEADERS {
        let mut text = String::with_capacity(filler.len() + 512);
        text.push_str(&format!(
            "#ifndef FH_HEADER_{h}_H\n#define FH_HEADER_{h}_H\n"
        ));
        text.push_str(&filler);
        text.push_str(&format!(
            "#define FH_VALUE_{h} {h}\n\
             int fh_decl_{h}(int x);\n\
             extern int fh_global_{h};\n\
             #endif\n"
        ));
        fs = fs.file(&format!("include/fh{h}.h"), &text);
    }
    let mut units = Vec::with_capacity(UNITS);
    for u in 0..UNITS {
        let mut text = String::new();
        // Rotate the include order per unit so workers that start at the
        // same instant lex *different* headers first and then hit each
        // other's freshly published artifacts, instead of all waiting
        // for one worker's lex of the same header.
        for i in 0..HEADERS {
            let h = (u + i) % HEADERS;
            text.push_str(&format!("#include \"fh{h}.h\"\n"));
        }
        let h = u % HEADERS;
        text.push_str(&format!(
            "int fh_unit_{u}(void) {{ return FH_VALUE_{h}; }}\n"
        ));
        let path = format!("src/fh_unit{u}.c");
        fs = fs.file(&path, &text);
        units.push(path);
    }
    Corpus {
        fs,
        units,
        spec: CorpusSpec {
            units: UNITS,
            ..CorpusSpec::default()
        },
    }
}

/// A header-dominated corpus with profile-sensitive conditionals, for
/// the cross-profile matrix workload (`bench_snapshot`'s `fig9_profiles`
/// / `fig9_profiles1` pair and its 2.4× cost cap). Most bytes
/// live in comment-heavy shared headers whose pre-expansion artifacts
/// are profile-independent, so the shared L2 cache amortizes lexing
/// across the profile matrix: analyzing N profiles should cost far less
/// than N single-profile runs. The `#ifdef _WIN32` / `__APPLE__` /
/// `__GNUC__` guards make the portability lints fire for real, so the
/// timed work includes slice extraction and cross-profile diffing.
pub fn profiles_corpus() -> Corpus {
    const HEADERS: usize = 6;
    const UNITS: usize = 32;
    // ~512 KiB of comment per header: byte-heavy, token-light, so lexing
    // (shared across profiles) dominates expansion + parsing (per
    // profile).
    let filler_line = "/* profile header filler: bytes for the lexer, no tokens out. */\n";
    let filler = filler_line.repeat(512 * 1024 / filler_line.len());

    let mut fs = superc::MemFs::new();
    for h in 0..HEADERS {
        let mut text = String::with_capacity(filler.len() + 1024);
        text.push_str(&format!(
            "#ifndef PF_HEADER_{h}_H\n#define PF_HEADER_{h}_H\n"
        ));
        text.push_str(&filler);
        text.push_str(&format!(
            "#ifdef _WIN32\n\
             typedef unsigned long pf_handle_{h}_t;\n\
             #else\n\
             typedef int pf_handle_{h}_t;\n\
             #endif\n\
             #if defined(__GNUC__) && __GNUC__ >= 4\n\
             int pf_gnu_{h}(int x);\n\
             #endif\n\
             #define PF_VALUE_{h} {h}\n\
             extern pf_handle_{h}_t pf_global_{h};\n\
             #endif\n"
        ));
        fs = fs.file(&format!("include/pf{h}.h"), &text);
    }
    let mut units = Vec::with_capacity(UNITS);
    for u in 0..UNITS {
        let mut text = String::new();
        for i in 0..HEADERS {
            let h = (u + i) % HEADERS;
            text.push_str(&format!("#include \"pf{h}.h\"\n"));
        }
        let h = u % HEADERS;
        text.push_str(&format!(
            "#ifdef __APPLE__\n\
             int pf_darwin_{u};\n\
             #endif\n\
             int pf_unit_{u}(void) {{ return PF_VALUE_{h}; }}\n"
        ));
        let path = format!("src/pf_unit{u}.c");
        fs = fs.file(&path, &text);
        units.push(path);
    }
    Corpus {
        fs,
        units,
        spec: CorpusSpec {
            units: UNITS,
            ..CorpusSpec::default()
        },
    }
}

/// A token-dense, conditional-free corpus for the deterministic fast
/// path: long macro-free function bodies where exactly one subparser is
/// live the whole time, separated by occasional `#if` islands so the
/// fast path must persist its scratch stack, re-enter the general FMLR
/// queue, and drop back in. Hand-built (not `kernelgen`) so the
/// conditional density is controlled: this is the workload behind
/// `bench_snapshot`'s `fig9_condfree` / `fig9_condfree_nofp` pair and
/// its 1.25× speedup gate.
pub fn condfree_corpus() -> Corpus {
    const UNITS: usize = 16;
    const FUNCS: usize = 10;
    const STMTS: usize = 48;
    let mut fs = superc::MemFs::new();
    let mut units = Vec::with_capacity(UNITS);
    for u in 0..UNITS {
        let mut text = String::new();
        for f in 0..FUNCS {
            // One island every few functions: the stretch ends, the
            // general engine forks over the conditional, and the fast
            // path restarts on the far side.
            if f % 4 == 3 {
                text.push_str(&format!(
                    "#if defined(CF_ISLAND_{u})\nextern int cf_island_{u}_{f};\n#endif\n"
                ));
            }
            text.push_str(&format!(
                "long cf_{u}_{f}(long a0, long a1, long a2, long a3) {{\n\
                 \x20   long acc = a0 * 3 + a1;\n\
                 \x20   long idx = a2 - a3;\n"
            ));
            for s in 0..STMTS {
                text.push_str(&format!(
                    "    acc = acc * {m} + (a0 + idx) * (a1 - a2) + {s};\n\
                     \x20   idx = idx + acc / {d} - a3 * (acc % {r});\n",
                    m = (s % 7) + 2,
                    d = (s % 5) + 3,
                    r = (s % 9) + 2,
                ));
            }
            text.push_str("    return acc + idx;\n}\n");
        }
        let path = format!("src/cf_unit{u}.c");
        fs = fs.file(&path, &text);
        units.push(path);
    }
    Corpus {
        fs,
        units,
        spec: CorpusSpec {
            units: UNITS,
            ..CorpusSpec::default()
        },
    }
}

/// Runs every unit of a corpus through the pipeline, returning the
/// processed units in corpus order. A unit that fails fatally is
/// reported on stderr and skipped, so one bad unit skews a measurement
/// instead of killing the whole experiment run.
pub fn process_corpus(corpus: &Corpus, options: Options) -> Vec<ProcessedUnit> {
    process_corpus_with_tool(corpus, options).0
}

/// Like [`process_corpus`], but also returns the tool for post-run
/// queries (include counts).
pub fn process_corpus_with_tool(
    corpus: &Corpus,
    options: Options,
) -> (Vec<ProcessedUnit>, SuperC<superc::MemFs>) {
    let mut sc = SuperC::new(options, corpus.fs.clone());
    let units = corpus
        .units
        .iter()
        .filter_map(|u| match sc.process(u) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("{u}: skipped (fatal: {e})");
                None
            }
        })
        .collect();
    (units, sc)
}
