//! File access for `#include` resolution.
//!
//! Real runs read from disk; tests and the synthetic corpus use an
//! in-memory tree. The preprocessor only needs path-keyed reads. Include
//! *resolution* (search-path logic) is one free function over an
//! `exists` probe ([`resolve_include`]), so a preprocessor attached to a
//! shared cache answers its probes from the same per-generation path
//! rows its header loads read (see `crate::sharedcache`).
//!
//! File contents are handed out as `Arc<str>` so one file tree can be
//! **shared read-only across worker threads**: the parallel corpus driver
//! (`superc::corpus`) borrows a single [`MemFs`]/[`DiskFs`] from every
//! worker (via the blanket `impl FileSystem for &F`), and each worker's
//! preprocessor caches the lexed form privately.
//!
//! Mutable trees can also say **what changed** between batches
//! ([`FileSystem::take_changes`]), which lets a long-lived runner
//! revalidate only the edited paths instead of rehashing every file.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

use crate::locks::{lock, read, write};

/// Source of included files.
pub trait FileSystem {
    /// Reads a file by exact path. `None` when absent.
    fn read(&self, path: &str) -> Option<Arc<str>>;

    /// The paths whose contents may have changed (edited, created or
    /// removed) since the previous call, draining the tree's change log;
    /// `None` when the tree cannot enumerate its changes, which tells
    /// the caller to revalidate every path.
    ///
    /// The log has one reader: the pooled corpus runner calls this at
    /// every batch boundary, and a drained change is gone for any other
    /// caller. A tree that feeds two runners must therefore keep the
    /// default, so that both revalidate in full.
    fn take_changes(&self) -> Option<Vec<String>> {
        None
    }
}

/// Resolves an include operand against the search paths, asking
/// `exists` about each candidate path in probe order.
///
/// `system` is true for `<...>` includes; `including_dir` is the
/// directory of the including file (searched first for `"..."`), then
/// the bare name, then each search path. Each candidate is spelled
/// lexically normalized (`.` and empty segments dropped, `seg/..`
/// folded), so every spelling of a file probes and reads one path; an
/// absolute name is the one candidate, joined to no directory. Returns
/// the first candidate that exists. Every candidate tried *before* it
/// is pushed onto `failed` (all of them when resolution fails
/// outright): those failed probes are negative dependencies of the
/// including unit, since creating a file at any of them later changes
/// the answer, which is exactly what the warm unit memo's fingerprints
/// must detect (see `superc::corpus`).
///
/// # Examples
///
/// ```
/// use superc_cpp::{resolve_include, FileSystem, MemFs};
/// let fs = MemFs::new().file("include/a.h", "#define A 1\n");
/// let mut failed = Vec::new();
/// let found = resolve_include(
///     "a.h",
///     true,
///     "",
///     &["include".to_string()],
///     |p| fs.read(p).is_some(),
///     &mut failed,
/// );
/// assert_eq!(found.as_deref(), Some("include/a.h"));
/// assert_eq!(failed, ["a.h"]);
/// ```
pub fn resolve_include(
    name: &str,
    system: bool,
    including_dir: &str,
    search_paths: &[String],
    mut exists: impl FnMut(&str) -> bool,
    failed: &mut Vec<String>,
) -> Option<String> {
    let relative = !name.starts_with('/');
    let local =
        (relative && !system && !including_dir.is_empty()).then(|| join(including_dir, name));
    let searched = search_paths.iter().filter(|_| relative);
    let candidates = local
        .into_iter()
        .chain(std::iter::once_with(|| normalize(name)))
        .chain(searched.map(|dir| join(dir, name)));
    for candidate in candidates {
        if exists(&candidate) {
            return Some(candidate);
        }
        failed.push(candidate);
    }
    None
}

/// Shared references are file systems too: `std::thread::scope` workers
/// each build a `Preprocessor<&MemFs>` over one borrowed tree.
impl<F: FileSystem + ?Sized> FileSystem for &F {
    fn read(&self, path: &str) -> Option<Arc<str>> {
        (**self).read(path)
    }

    fn take_changes(&self) -> Option<Vec<String>> {
        (**self).take_changes()
    }
}

/// `Arc`-owned trees are file systems too: pooled corpus workers outlive
/// any one batch's borrow, so each holds a `Preprocessor<Arc<F>>` over
/// the same shared tree.
impl<F: FileSystem + ?Sized> FileSystem for Arc<F> {
    fn read(&self, path: &str) -> Option<Arc<str>> {
        (**self).read(path)
    }

    fn take_changes(&self) -> Option<Vec<String>> {
        (**self).take_changes()
    }
}

fn join(dir: &str, name: &str) -> String {
    normalize(&format!("{dir}/{name}"))
}

/// `path` spelled lexically normalized: `.` and empty segments dropped
/// and each `seg/..` folded, so `src/../include/./x.h` is
/// `include/x.h`. A leading `..` stays, as does a leading `/`. Symbolic
/// links are not consulted: `dir/..` always folds.
fn normalize(path: &str) -> String {
    let mut segs: Vec<&str> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." if segs.last().is_some_and(|s| *s != "..") => {
                segs.pop();
            }
            _ => segs.push(seg),
        }
    }
    let root = if path.starts_with('/') { "/" } else { "" };
    format!("{root}{}", segs.join("/"))
}

/// An in-memory file tree.
///
/// Cloning is cheap (contents are shared), and a `MemFs` is `Send + Sync`,
/// so a generated corpus can be parsed by many workers at once.
///
/// # Examples
///
/// ```
/// use superc_cpp::{FileSystem, MemFs};
/// let fs = MemFs::new().file("include/a.h", "#define A 1\n");
/// assert!(fs.read("include/a.h").is_some());
/// assert!(fs.read("a.h").is_none());
/// ```
#[derive(Clone, Debug, Default)]
pub struct MemFs {
    files: HashMap<String, Arc<str>>,
}

impl MemFs {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a file, builder-style.
    pub fn file(mut self, path: &str, contents: &str) -> Self {
        self.files.insert(path.to_string(), Arc::from(contents));
        self
    }

    /// Adds a file in place.
    pub fn add(&mut self, path: &str, contents: &str) {
        self.files.insert(path.to_string(), Arc::from(contents));
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when no files were added.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Iterates over `(path, contents)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.files.iter().map(|(k, v)| (k.as_str(), &**v))
    }
}

impl FileSystem for MemFs {
    fn read(&self, path: &str) -> Option<Arc<str>> {
        self.files.get(path).cloned()
    }
}

/// A pluggable include resolver: given an exact path, produce the file
/// contents (`Ok(None)` = absent; `Err` = resolver failure, recorded on
/// the tree's last-error channel and treated as absent).
pub type ResolverFn = Box<dyn Fn(&str) -> Result<Option<String>, String> + Send + Sync>;

/// A mutable file tree with a change log: an in-memory overlay over an
/// optional resolver callback. It backs the service driver, the
/// warm-rerun tests and the incremental benchmark.
///
/// * Overlay entries win: [`DriverFs::set`] stages contents,
///   [`DriverFs::tombstone`] makes a path absent even if the resolver
///   would produce it (deleting a file the backing store still has).
/// * Paths not in the overlay fall through to the resolver.
///
/// Without a resolver it is an editable in-memory tree; with one that
/// reads disk, a disk tree. Pooled workers share one `Arc<DriverFs>`,
/// and the coherence contract is the runner's: edits land only between
/// batches.
///
/// Overlay edits are logged for [`FileSystem::take_changes`], so a
/// resolver-less tree revalidates only the staged paths. The first call
/// answers `None` (the tree's history before it is unknown), as does
/// every call while a resolver is installed and the first call after
/// one is installed or cleared: a resolver can change what it serves
/// without telling anyone, so every path is revalidated.
///
/// # Examples
///
/// ```
/// use superc_cpp::{DriverFs, FileSystem};
/// let fs = DriverFs::new();
/// fs.set("a.h", "int a;\n");
/// assert_eq!(fs.take_changes(), None, "the first batch revalidates all");
/// fs.set("a.h", "int a2;\n"); // &self: edits through a shared handle
/// fs.tombstone("b.h");
/// assert_eq!(fs.read("a.h").as_deref(), Some("int a2;\n"));
/// assert_eq!(fs.take_changes(), Some(vec!["a.h".to_string(), "b.h".to_string()]));
/// assert_eq!(fs.take_changes(), Some(vec![]), "the log drains");
/// ```
#[derive(Default)]
pub struct DriverFs {
    /// `Some(contents)` = staged file; `None` = tombstone.
    overlay: RwLock<HashMap<String, Option<Arc<str>>>>,
    resolver: RwLock<Option<ResolverFn>>,
    /// Overlay paths staged since the last `take_changes`; `None` while
    /// the changes are unknown (a new tree, or a resolver swap since).
    changed: Mutex<Option<BTreeSet<String>>>,
    /// Most recent service-layer error (resolver failures, misuse).
    last_error: Mutex<Option<String>>,
}

impl DriverFs {
    /// An empty tree with no resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages (adds or replaces) a file in the overlay.
    pub fn set(&self, path: &str, contents: &str) {
        self.stage(path, Some(Arc::from(contents)));
    }

    /// Tombstones a path: absent from now on, even if the resolver
    /// would produce it.
    pub fn tombstone(&self, path: &str) {
        self.stage(path, None);
    }

    fn stage(&self, path: &str, entry: Option<Arc<str>>) {
        write(&self.overlay).insert(path.to_string(), entry);
        if let Some(log) = lock(&self.changed).as_mut() {
            log.insert(path.to_string());
        }
    }

    /// Installs (or clears) the fallback resolver. The change log is
    /// reset first, so it is reset even when dropping the old resolver
    /// panics.
    pub fn set_resolver(&self, resolver: Option<ResolverFn>) {
        *lock(&self.changed) = None;
        *write(&self.resolver) = resolver;
    }

    /// Records an error on the last-error channel (newest wins).
    pub fn record_error(&self, msg: String) {
        *lock(&self.last_error) = Some(msg);
    }

    /// The most recent error, if any (does not clear it).
    pub fn last_error(&self) -> Option<String> {
        lock(&self.last_error).clone()
    }
}

impl FileSystem for DriverFs {
    fn read(&self, path: &str) -> Option<Arc<str>> {
        if let Some(entry) = read(&self.overlay).get(path) {
            return entry.clone();
        }
        let resolver = read(&self.resolver);
        match resolver.as_ref()?(path) {
            Ok(contents) => contents.map(Arc::from),
            Err(e) => {
                // A resolver failure must not take down the worker (or
                // the embedding process): record it and treat the path
                // as absent — the unit degrades to a missing-include
                // diagnostic instead of a panic.
                self.record_error(format!("resolver failed for {path}: {e}"));
                None
            }
        }
    }

    /// The overlay paths staged since the previous call, sorted; `None`
    /// on the first call, while a resolver is installed, and on the
    /// first call after a resolver swap (see the type docs).
    fn take_changes(&self) -> Option<Vec<String>> {
        let log = lock(&self.changed).replace(BTreeSet::new());
        if read(&self.resolver).is_some() {
            return None;
        }
        log.map(|paths| paths.into_iter().collect())
    }
}

/// Reads files from disk, rooted at a base directory.
#[derive(Clone, Debug)]
pub struct DiskFs {
    root: PathBuf,
}

impl DiskFs {
    /// Creates a disk-backed file system rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DiskFs { root: root.into() }
    }

    /// Reads `path` (under the root unless absolute) as text, decoded
    /// lossily: each invalid UTF-8 sequence becomes U+FFFD, so a stray
    /// byte in a comment cannot hide a file, and one in code ends in
    /// the lexer's `unrecognized character` error. `None` when the file
    /// cannot be read.
    pub fn read_text(&self, path: &str) -> Option<String> {
        let full = if Path::new(path).is_absolute() {
            PathBuf::from(path)
        } else {
            self.root.join(path)
        };
        let bytes = std::fs::read(full).ok()?;
        Some(
            String::from_utf8(bytes)
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
        )
    }
}

impl FileSystem for DiskFs {
    fn read(&self, path: &str) -> Option<Arc<str>> {
        self.read_text(path).map(Arc::from)
    }
}

#[cfg(test)]
mod shared_fs_tests {
    use super::*;

    #[test]
    fn mem_fs_is_send_and_sync() {
        fn assert_shareable<T: Send + Sync>() {}
        assert_shareable::<MemFs>();
        assert_shareable::<DiskFs>();
        assert_shareable::<DriverFs>();
    }

    #[test]
    fn references_are_file_systems() {
        let fs = MemFs::new().file("x.h", "int x;\n");
        let by_ref: &MemFs = &fs;
        assert_eq!(by_ref.read("x.h").as_deref(), Some("int x;\n"));
        assert_eq!(MemFs::new().take_changes(), None, "the default cannot tell");
    }

    #[test]
    fn resolution_probes_local_then_bare_then_search_paths() {
        let fs = MemFs::new().file("src/q.h", "").file("inc/q.h", "");
        let exists = |p: &str| fs.read(p).is_some();
        let paths = ["none".to_string(), "inc/".to_string()];
        let mut failed = Vec::new();
        let quoted = resolve_include("q.h", false, "src", &paths, exists, &mut failed);
        assert_eq!((quoted.as_deref(), failed.len()), (Some("src/q.h"), 0));
        let system = resolve_include("q.h", true, "src", &paths, exists, &mut failed);
        assert_eq!(system.as_deref(), Some("inc/q.h"));
        assert_eq!(failed, ["q.h", "none/q.h"]);
        failed.clear();
        assert_eq!(
            resolve_include("r.h", false, "src", &paths, exists, &mut failed),
            None
        );
        assert_eq!(failed, ["src/r.h", "r.h", "none/r.h", "inc/r.h"]);
        // Candidates are spelled normalized; an absolute name is probed
        // as the one candidate.
        let fs = fs.file("include/x.h", "").file("/abs/y.h", "");
        let exists = |p: &str| fs.read(p).is_some();
        failed.clear();
        let up = resolve_include(
            "../include/./x.h",
            false,
            "src//a",
            &paths,
            exists,
            &mut failed,
        );
        assert_eq!(up.as_deref(), Some("include/x.h"));
        assert_eq!(failed, ["src/include/x.h", "../include/x.h"]);
        failed.clear();
        let abs = resolve_include("/abs//y.h", false, "src", &paths, exists, &mut failed);
        assert_eq!((abs.as_deref(), failed.len()), (Some("/abs/y.h"), 0));
    }
}
