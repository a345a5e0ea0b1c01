//! A file that is not valid UTF-8 still reads: the disk tree decodes
//! lossily (U+FFFD for each bad sequence), so an odd byte in a comment
//! neither hides a header (`include not found`) nor a main file
//! (`file not found`), and an odd byte in code ends in the lexer's
//! structured `unrecognized character` error. Both disk readers are
//! covered: the CLI's `DiskFs` and the daemon's disk-rooted driver.

use std::fs;
use std::path::PathBuf;

use superc::analyze::LintOptions;
use superc::cli::LintFormat;
use superc::corpus::{process_corpus, CorpusOptions};
use superc::service::Driver;
use superc::{DiskFs, Options};

/// A scratch tree under the system temp dir, removed on drop.
struct Tree(PathBuf);

impl Tree {
    fn new(name: &str) -> Tree {
        let root =
            std::env::temp_dir().join(format!("superc-non-utf8-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("include")).expect("create temp tree");
        // `\xe9` is Latin-1 `é`: a lone continuation-less byte in UTF-8.
        let files: [(&str, &[u8]); 4] = [
            ("include/l.h", b"/* caf\xe9 */\ntypedef int l_t;\n"),
            ("a.c", b"#include <l.h>\nl_t a;\n"),
            ("b.c", b"/* \xe9 */\nint b;\n"),
            ("c.c", b"int c\xe9;\n"),
        ];
        for (path, bytes) in files {
            fs::write(root.join(path), bytes).expect("write fixture");
        }
        Tree(root)
    }

    fn root(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn options() -> Options {
    let mut options = Options::default();
    options.pp.include_paths = vec!["include".to_string()];
    options
}

#[test]
fn disk_tree_reads_files_with_non_utf8_bytes() {
    let tree = Tree::new("corpus");
    let units: Vec<String> = ["a.c", "b.c", "c.c"].map(String::from).to_vec();
    for no_shared_cache in [false, true] {
        let copts = CorpusOptions {
            no_shared_cache,
            ..CorpusOptions::default()
        };
        let report = process_corpus(&DiskFs::new(tree.root()), &units, &options(), &copts);
        let label = format!("no_shared_cache={no_shared_cache}");
        // `l_t a;` parses only if the header's typedef was read.
        for u in &report.units[..2] {
            assert!(u.failure.is_none(), "{label}: {}: {:?}", u.path, u.failure);
            assert!(u.parsed, "{label}: {} must parse", u.path);
            assert!(u.errors.is_empty(), "{label}: {}: {:?}", u.path, u.errors);
        }
        let fatal = report.units[2].fatal.as_deref().unwrap_or_default();
        assert!(
            fatal.contains("unrecognized character"),
            "{label}: c.c: {fatal}"
        );
    }
}

#[test]
fn disk_rooted_driver_lints_files_with_non_utf8_bytes() {
    let tree = Tree::new("driver");
    let units: Vec<String> = ["a.c", "b.c"].map(String::from).to_vec();
    let mut driver = Driver::with_disk_root(options(), 2, tree.root());
    driver.end_generation().expect("commit");
    let lint = driver
        .lint_rendered(
            &units,
            LintFormat::Text,
            &[],
            &LintOptions::default(),
            false,
        )
        .expect("lint");
    let output = format!("{}{}", lint.stdout, lint.stderr);
    assert!(!output.contains("not found"), "{output}");
    assert!(!lint.failed, "{output}");
    let report = driver.parse(&units).expect("parse");
    assert_eq!(report.parsed_units(), 2, "both units parse");
    assert_eq!(report.failed_units(), 0);
}
