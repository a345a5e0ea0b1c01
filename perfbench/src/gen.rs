//! Seeded inputs: kernel-shaped trees, the profile islands the matrix
//! workload needs, and the editor's request stream.
//!
//! Everything here is a pure function of the seed, so a run can be
//! repeated exactly and the generator tests can pin that down.

use std::collections::BTreeMap;

use superc::FileSystem as _;
use superc_kernelgen::{generate, Corpus, CorpusSpec};
use superc_util::SmallRng;

/// A kernelgen `CorpusSpec::kernel()` tree with `units` compilation units.
pub fn kernel_tree(units: usize, seed: u64) -> Corpus {
    generate(&CorpusSpec {
        seed,
        ..CorpusSpec::kernel().units(units)
    })
}

/// The tree as sorted `(path, contents)` pairs (`MemFs` iterates in
/// hash order).
pub fn sorted_files(corpus: &Corpus) -> BTreeMap<String, String> {
    corpus
        .fs
        .iter()
        .map(|(p, c)| (p.to_string(), c.to_string()))
        .collect()
}

/// Share of subsystem headers, and of units, that get a profile island.
const HEADER_ISLAND_PCT: usize = 40;
const UNIT_ISLAND_PCT: usize = 25;

/// Adds compiler/OS islands to a seeded share of subsystem headers and
/// units. kernelgen emits no profile macros, so without this pass every
/// profile would see the same tree and `diff_profiles` would never find
/// a difference. Each island is a guarded declaration that parses under
/// every branch, keyed on macros the shipped profiles define
/// differently (`_WIN32`, `__APPLE__`, `__GNUC__`, `_MSC_VER`).
pub fn add_profile_islands(corpus: &mut Corpus, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x1514_4D5A);
    let files = sorted_files(corpus);
    for (path, text) in &files {
        let edited = if let Some(n) = sub_header_index(path) {
            if rng.gen_range(0..100) >= HEADER_ISLAND_PCT {
                continue;
            }
            let island = header_island(rng.gen_range(0..3), n);
            insert_before_guard_end(text, &island)
        } else if let Some(u) = unit_index(path) {
            if rng.gen_range(0..100) >= UNIT_ISLAND_PCT {
                continue;
            }
            format!("{text}{}", unit_island(rng.gen_range(0..3), u))
        } else {
            continue;
        };
        corpus.fs.add(path, &edited);
    }
}

fn header_island(kind: usize, n: usize) -> String {
    match kind {
        0 => format!(
            "#ifdef _WIN32\ntypedef unsigned long long sub{n}_word_t;\n\
             #elif defined(__APPLE__)\ntypedef unsigned long sub{n}_word_t;\n\
             #else\ntypedef unsigned int sub{n}_word_t;\n#endif\n"
        ),
        1 => format!(
            "#if defined(__GNUC__)\nextern int sub{n}_gnu_hook(int flags);\n\
             #else\nextern int sub{n}_generic_hook(int flags);\n#endif\n"
        ),
        _ => format!("#ifndef _MSC_VER\nextern long sub{n}_posix_handle;\n#endif\n"),
    }
}

fn unit_island(kind: usize, u: usize) -> String {
    match kind {
        0 => format!(
            "#ifdef __APPLE__\nstatic int unit{u}_platform = 2;\n\
             #elif defined(_WIN32)\nstatic int unit{u}_platform = 3;\n\
             #else\nstatic int unit{u}_platform = 1;\n#endif\n"
        ),
        1 => format!("#if defined(__GNUC__)\nstatic long unit{u}_gnu_state;\n#endif\n"),
        _ => format!(
            "#ifndef _WIN32\nstatic int unit{u}_fd = -1;\n#else\nstatic void *unit{u}_handle;\n#endif\n"
        ),
    }
}

/// Inserts `snippet` before the include guard's closing `#endif` (the
/// last line of every generated subsystem header).
fn insert_before_guard_end(text: &str, snippet: &str) -> String {
    let cut = text
        .trim_end()
        .rfind("#endif")
        .expect("subsystem headers end with their guard's #endif");
    format!("{}{snippet}{}", &text[..cut], &text[cut..])
}

/// `n` for `include/sub/sub<n>.h`.
pub fn sub_header_index(path: &str) -> Option<usize> {
    path.strip_prefix("include/sub/sub")?
        .strip_suffix(".h")?
        .parse()
        .ok()
}

/// `u` for `src/unit<u>.c`.
pub fn unit_index(path: &str) -> Option<usize> {
    path.strip_prefix("src/unit")?
        .strip_suffix(".c")?
        .parse()
        .ok()
}

/// One editor edit: new contents for one file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edit {
    /// The edited file.
    pub path: String,
    /// Its complete new contents.
    pub contents: String,
}

/// Every `HEADER_EVERY`-th edit targets a subsystem header.
pub const HEADER_EVERY: usize = 10;

/// The editor's seeded request stream over a generated tree.
///
/// Edit `i` rewrites one file as its *original* contents plus a small
/// conditional snippet numbered `i`, so every edit changes the file's
/// bytes and no edit's cost depends on the ones before it. Edits
/// `HEADER_EVERY - 1`, `2 * HEADER_EVERY - 1`, … target an
/// `include/sub/*.h` header (which fans out to every unit that includes
/// it); all others target a `src/*.c` unit. The shared `include/deep/`
/// and `include/linux/` headers are never edited: they would recompute
/// most of the tree, which the cold batch workload already measures.
pub struct EditStream {
    rng: SmallRng,
    units: Vec<(String, String)>,
    headers: Vec<(String, String)>,
    next: usize,
}

impl EditStream {
    /// A stream over `corpus` drawn from `seed`.
    pub fn new(corpus: &Corpus, seed: u64) -> EditStream {
        let files = sorted_files(corpus);
        let pick = |f: fn(&str) -> Option<usize>| -> Vec<(String, String)> {
            let mut v: Vec<_> = files
                .iter()
                .filter_map(|(p, c)| f(p).map(|i| (i, p.clone(), c.clone())))
                .collect();
            v.sort();
            v.into_iter().map(|(_, p, c)| (p, c)).collect()
        };
        EditStream {
            rng: SmallRng::seed_from_u64(seed ^ 0xED17_5EED),
            units: pick(unit_index),
            headers: pick(sub_header_index),
            next: 0,
        }
    }
}

impl Iterator for EditStream {
    type Item = Edit;

    fn next(&mut self) -> Option<Edit> {
        let i = self.next;
        self.next += 1;
        let header = i % HEADER_EVERY == HEADER_EVERY - 1;
        let pool = if header { &self.headers } else { &self.units };
        let (path, text) = &pool[self.rng.gen_range(0..pool.len())];
        let configs: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("#ifdef CONFIG_"))
            .collect();
        let cfg = configs
            .get(self.rng.gen_range(0..configs.len().max(1)))
            .copied()
            .unwrap_or("SMP");
        let contents = if header {
            let n = sub_header_index(path).expect("header pool holds sub headers");
            let snippet = format!("#ifdef CONFIG_{cfg}\nextern int sub{n}_rev{i};\n#endif\n");
            insert_before_guard_end(text, &snippet)
        } else {
            let u = unit_index(path).expect("unit pool holds units");
            format!("{text}#ifdef CONFIG_{cfg}\nstatic int unit{u}_rev = {i};\n#endif\n")
        };
        Some(Edit {
            path: path.clone(),
            contents,
        })
    }
}

/// Units whose include closure contains `path`: the unit itself for a
/// `src/*.c` file, every unit that includes it for a subsystem header
/// (units include subsystem headers directly, and nothing else does).
pub fn dependents(corpus: &Corpus, path: &str) -> Vec<String> {
    match sub_header_index(path) {
        None => vec![path.to_string()],
        Some(n) => {
            let needle = format!("<sub/sub{n}.h>");
            corpus
                .units
                .iter()
                .filter(|u| corpus.fs.read(u).is_some_and(|text| text.contains(&needle)))
                .cloned()
                .collect()
        }
    }
}

/// A seeded sample of `k` distinct indices below `n`, sorted.
pub fn sample_indices(rng: &mut SmallRng, n: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    for i in 0..k.min(n) {
        let j = i + rng.gen_range(0..n - i);
        all.swap(i, j);
    }
    all.truncate(k.min(n));
    all.sort_unstable();
    all
}
