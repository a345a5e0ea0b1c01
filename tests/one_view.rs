//! One view of each file per generation: a pooled runner reads every
//! path it touches — unit sources, included headers and failed include
//! probes alike — exactly once per batch, and builds every report from
//! the bytes of that one read.
//!
//! The tree here counts `read` calls per path and hands out a new
//! version of a file on every call (the file's text plus one more
//! marker declaration per earlier read), so a second read of a path
//! changes what a unit would see. A pool that resolved an include from
//! one read and lexed the header from another, or lexed bytes other
//! than the ones it hashed, would both miscount and produce a report no
//! single version of the tree explains.
//!
//! The matrix: jobs 1, 2 and 8; cold and warm batches; a tree that
//! reports its changes and one that cannot. Each pool runs two batches
//! with a header edit between them.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use superc::corpus::{process_corpus, Capture, CorpusOptions, CorpusRunner};
use superc::counters::Class;
use superc::service::DriverFs;
use superc::{FileSystem, MemFs, Options};

/// Units `u0.c`..`u7.c` over a small header tree: every unit includes
/// `<deep.h>` (which includes `"deeper.h"`), the odd ones `<leaf.h>`;
/// and [`UP`], which spells its include of the leaf header from its own
/// directory, `"../include/leaf.h"`.
fn fixture() -> DriverFs {
    let fs = DriverFs::new();
    fs.set("include/leaf.h", "int leaf_decl(int);\n#define LEAF 1\n");
    fs.set(
        "include/deep.h",
        "#include \"deeper.h\"\nint deep_decl(void);\n",
    );
    fs.set(
        "include/deeper.h",
        "#ifdef CONFIG_SMP\n#define WIDTH 8\n#else\n#define WIDTH 1\n#endif\n",
    );
    for u in 0..UNITS {
        let leaf = if u % 2 == 1 {
            "#include <leaf.h>\n"
        } else {
            ""
        };
        let value = if u % 2 == 1 { "LEAF + WIDTH" } else { "WIDTH" };
        fs.set(
            &format!("u{u}.c"),
            &format!("{leaf}#include <deep.h>\nint u{u}_fn(void) {{ return {value}; }}\n"),
        );
    }
    fs.set(
        UP,
        "#include \"../include/leaf.h\"\nint u8_fn(void) { return LEAF; }\n",
    );
    fs
}

const UNITS: usize = 8;

/// The unit that reaches `include/leaf.h` through `src/..`.
const UP: &str = "src/u8.c";

fn units() -> Vec<String> {
    let mut units: Vec<String> = (0..UNITS).map(|u| format!("u{u}.c")).collect();
    units.push(UP.to_string());
    units
}

/// What the counting tree saw: per-path reads in the current batch,
/// per-path reads overall (numbering the versions), and the latest
/// bytes handed out for each path.
#[derive(Default)]
struct Log {
    batch: BTreeMap<String, u32>,
    total: BTreeMap<String, u32>,
    handed: BTreeMap<String, Arc<str>>,
}

/// A tree over a [`DriverFs`] whose every `read` returns a new version
/// of the file, and which reports its changes only if `reports`.
struct CountingFs {
    inner: DriverFs,
    reports: bool,
    log: Mutex<Log>,
}

impl CountingFs {
    /// The batch's per-path read counts, resetting them for the next.
    fn take_batch_reads(&self) -> BTreeMap<String, u32> {
        std::mem::take(&mut self.log.lock().expect("log").batch)
    }

    /// A frozen tree holding the latest bytes handed out for each path.
    fn handed_out(&self) -> MemFs {
        let log = self.log.lock().expect("log");
        let mut fs = MemFs::new();
        for (path, text) in &log.handed {
            fs.add(path, text);
        }
        fs
    }
}

impl FileSystem for CountingFs {
    fn read(&self, path: &str) -> Option<Arc<str>> {
        let mut log = self.log.lock().expect("log");
        *log.batch.entry(path.to_string()).or_default() += 1;
        let n = log.total.entry(path.to_string()).or_default();
        *n += 1;
        let n = *n;
        let base = self.inner.read(path)?;
        let tag: String = path
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let markers: String = (1..=n).map(|i| format!("int read_{tag}_{i};\n")).collect();
        let text: Arc<str> = Arc::from(format!("{base}{markers}"));
        log.handed.insert(path.to_string(), Arc::clone(&text));
        Some(text)
    }

    fn take_changes(&self) -> Option<Vec<String>> {
        let changes = self.inner.take_changes();
        if self.reports {
            changes
        } else {
            None
        }
    }
}

/// The paths read more than once, with their read counts.
fn reread(reads: &BTreeMap<String, u32>) -> Vec<(&str, u32)> {
    reads
        .iter()
        .filter(|(_, &n)| n != 1)
        .map(|(p, &n)| (p.as_str(), n))
        .collect()
}

/// A pooled report may differ from the one-shot reference only in the
/// schedule gauges and `memo_hit`, which the comparison view clears.
const SAME_MODE: &[Class] = &[Class::Behavior, Class::Mode];

const EDITED: &str = "include/deeper.h";

#[test]
fn each_touched_path_is_read_once_per_batch() {
    let units = units();
    let options = {
        let mut o = Options::default();
        o.pp.include_paths = vec!["include".to_string()];
        o
    };
    for reports in [true, false] {
        for warm in [false, true] {
            for jobs in [1usize, 2, 8] {
                let label = format!("reports={reports} warm={warm} jobs={jobs}");
                let fs = Arc::new(CountingFs {
                    inner: fixture(),
                    reports,
                    log: Mutex::default(),
                });
                // Every unit's AST unparsed under the empty configuration,
                // to see what the unit read.
                let capture = Capture {
                    unparse_configs: vec![Vec::new()],
                    ..Capture::default()
                };
                let copts = CorpusOptions {
                    warm,
                    capture,
                    ..CorpusOptions::default()
                };
                let mut pool = CorpusRunner::new(&options, Arc::clone(&fs), jobs);

                let first = pool.run(&units, &copts);
                assert_eq!(
                    first.parsed_units(),
                    units.len(),
                    "{label}: fixture must parse"
                );
                let up = &first.units[UNITS].unparses[0];
                assert!(
                    up.contains("leaf_decl"),
                    "{label}: {UP} must read the leaf: {up}"
                );
                let reads = fs.take_batch_reads();
                assert_eq!(reread(&reads), [], "{label}: batch 1 rereads");
                // One spelling, one read: `src/../include/leaf.h` is
                // `include/leaf.h`.
                assert_eq!(reads.get("include/leaf.h"), Some(&1), "{label}");
                assert!(
                    reads.keys().all(|p| !p.contains("..")),
                    "{label}: {reads:?}"
                );
                let touched: BTreeSet<String> = reads.into_keys().collect();
                // Units, headers, and the failed probes of `<leaf.h>`.
                for path in ["u0.c", "include/deep.h", EDITED, "leaf.h", "deep.h"] {
                    assert!(touched.contains(path), "{label}: {path} untouched");
                }
                process_corpus(&fs.handed_out(), &units, &options, &copts)
                    .check_same(&first, SAME_MODE)
                    .unwrap_or_else(|d| panic!("{label}: batch 1: {d}"));

                fs.inner.set(
                    EDITED,
                    "#ifdef CONFIG_SMP\n#define WIDTH 16\n#else\n#define WIDTH 2\n#endif\n",
                );
                let second = pool.run(&units, &copts);
                let reads = fs.take_batch_reads();
                if reports {
                    let want = BTreeMap::from([(EDITED.to_string(), 1)]);
                    assert_eq!(reads, want, "{label}: batch 2 reads only the edit");
                } else {
                    assert_eq!(reread(&reads), [], "{label}: batch 2 rereads");
                    let again: BTreeSet<String> = reads.into_keys().collect();
                    assert_eq!(again, touched, "{label}: batch 2 reads every path");
                }
                process_corpus(&fs.handed_out(), &units, &options, &copts)
                    .check_same(&second, SAME_MODE)
                    .unwrap_or_else(|d| panic!("{label}: batch 2: {d}"));
            }
        }
    }
}
