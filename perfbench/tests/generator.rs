//! The benchmark's inputs are a pure function of the seed: the same seed
//! gives a byte-identical tree and request stream, another seed gives
//! different ones, and the request mix is exactly as documented.

use superc::FileSystem as _;
use superc_kernelgen::Corpus;
use superc_perfbench::batch::Batch;
use superc_perfbench::gen::{dependents, sorted_files, Edit, EditStream, HEADER_EVERY};
use superc_perfbench::serve;

fn trees(seed: u64) -> Vec<Corpus> {
    vec![
        Batch::cold_lint().corpus(seed),
        Batch::profile_matrix().corpus(seed),
        serve::corpus(seed),
    ]
}

fn edits(seed: u64, n: usize) -> Vec<Edit> {
    EditStream::new(&serve::corpus(seed), seed)
        .take(n)
        .collect()
}

#[test]
fn same_seed_same_trees_and_requests() {
    for (a, b) in trees(7).iter().zip(trees(7).iter()) {
        assert_eq!(a.units, b.units);
        assert_eq!(sorted_files(a), sorted_files(b));
    }
    assert_eq!(edits(7, 120), edits(7, 120));
}

#[test]
fn different_seed_different_trees_and_requests() {
    for (a, b) in trees(7).iter().zip(trees(8).iter()) {
        assert_ne!(sorted_files(a), sorted_files(b));
    }
    assert_ne!(edits(7, 120), edits(8, 120));
}

#[test]
fn one_edit_in_ten_targets_a_subsystem_header_and_none_a_shared_one() {
    let corpus = serve::corpus(11);
    let stream = edits(11, 30 * HEADER_EVERY);
    for (i, edit) in stream.iter().enumerate() {
        assert!(
            !edit.path.starts_with("include/deep/") && !edit.path.starts_with("include/linux/"),
            "edit {i} targets {}",
            edit.path
        );
        let header = edit.path.starts_with("include/sub/");
        assert_eq!(header, i % HEADER_EVERY == HEADER_EVERY - 1, "edit {i}");
        assert!(header || edit.path.starts_with("src/"), "edit {i}");
        let before = corpus
            .fs
            .read(&edit.path)
            .expect("edits target existing files");
        assert_ne!(&*before, edit.contents, "edit {i} must change the file");
        let deps = dependents(&corpus, &edit.path);
        if header {
            assert!(!deps.is_empty(), "{} is included somewhere", edit.path);
        } else {
            assert_eq!(deps, vec![edit.path.clone()]);
        }
    }
    for window in stream.chunks(HEADER_EVERY) {
        let headers = window
            .iter()
            .filter(|e| e.path.starts_with("include/sub/"))
            .count();
        assert_eq!(headers, 1);
    }
}

#[test]
fn profile_matrix_tree_carries_profile_islands() {
    let corpus = Batch::profile_matrix().corpus(3);
    let files = sorted_files(&corpus);
    let islands = |prefix: &str| {
        files
            .iter()
            .filter(|(p, c)| {
                p.starts_with(prefix)
                    && ["_WIN32", "__APPLE__", "__GNUC__", "_MSC_VER"]
                        .iter()
                        .any(|m| c.contains(m))
            })
            .count()
    };
    assert!(islands("include/sub/") > 0);
    assert!(islands("src/") > 0);
    for (path, text) in files.iter().filter(|(p, _)| p.starts_with("include/sub/")) {
        assert!(
            text.trim_end().ends_with("#endif"),
            "{path} keeps its guard last"
        );
    }
    let plain = sorted_files(&Batch::cold_lint().corpus(3));
    assert!(plain.values().all(|c| !c.contains("_WIN32")));
}
