//! File access for `#include` resolution.
//!
//! Real runs read from disk; tests and the synthetic corpus use an
//! in-memory tree. The preprocessor only needs path-keyed reads — include
//! *resolution* (search-path logic) lives here too so both backends share
//! it.
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
use std::sync::{Arc, RwLock};

/// Source of included files.
pub trait FileSystem {
    /// Reads a file by exact path. `None` when absent.
    fn read(&self, path: &str) -> Option<Arc<str>>;

    /// Resolves an include operand against the search paths.
    ///
    /// `system` is true for `<...>` includes; `including_dir` is the
    /// directory of the including file (searched first for `"..."`).
    /// Returns the resolved path.
    fn resolve(
        &self,
        name: &str,
        system: bool,
        including_dir: &str,
        search_paths: &[String],
    ) -> Option<String> {
        let mut failed = Vec::new();
        self.resolve_probed(name, system, including_dir, search_paths, &mut failed)
    }

    /// [`FileSystem::resolve`] with probe recording: every candidate
    /// path tried *before* the winning one is pushed onto `failed`, in
    /// probe order (all of them when resolution fails outright). Those
    /// failed probes are negative dependencies of the including unit —
    /// creating a file at any of them later changes what this call
    /// returns, which is exactly what the warm unit memo's fingerprints
    /// must detect (see `superc::corpus`).
    fn resolve_probed(
        &self,
        name: &str,
        system: bool,
        including_dir: &str,
        search_paths: &[String],
        failed: &mut Vec<String>,
    ) -> Option<String> {
        if !system && !including_dir.is_empty() {
            let local = join(including_dir, name);
            if self.read(&local).is_some() {
                return Some(local);
            }
            failed.push(local);
        }
        if self.read(name).is_some() {
            return Some(name.to_string());
        }
        failed.push(name.to_string());
        for dir in search_paths {
            let p = join(dir, name);
            if self.read(&p).is_some() {
                return Some(p);
            }
            failed.push(p);
        }
        None
    }

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
    if dir.is_empty() {
        name.to_string()
    } else {
        format!("{}/{}", dir.trim_end_matches('/'), name)
    }
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
/// assert_eq!(
///     fs.resolve("a.h", true, "", &["include".to_string()]),
///     Some("include/a.h".to_string())
/// );
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

/// An in-memory file tree with interior mutability: files can be
/// edited **between batches** while pooled corpus workers keep `Arc`
/// handles to the tree — the fixture behind warm-rerun tests and the
/// incremental benchmark.
///
/// Reads take a shared lock and bump a reference count; edits take the
/// exclusive lock and log the path for [`FileSystem::take_changes`]. The
/// coherence contract is the pooled runner's: edits only happen at batch
/// boundaries (no batch in flight), so workers never observe a file
/// changing mid-run.
///
/// # Examples
///
/// ```
/// use superc_cpp::{FileSystem, MemFs, SharedMemFs};
/// let fs = SharedMemFs::from_mem(&MemFs::new().file("a.h", "int a;\n"));
/// fs.set("a.h", "int a2;\n"); // &self: edits through a shared handle
/// assert_eq!(fs.read("a.h").as_deref(), Some("int a2;\n"));
/// ```
#[derive(Debug, Default)]
pub struct SharedMemFs {
    tree: RwLock<MemTree>,
}

/// The files of a [`SharedMemFs`] and the paths edited since the last
/// [`FileSystem::take_changes`], under one lock.
#[derive(Debug, Default)]
struct MemTree {
    files: HashMap<String, Arc<str>>,
    changed: BTreeSet<String>,
}

impl SharedMemFs {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies a [`MemFs`] snapshot (contents are shared, not cloned).
    pub fn from_mem(fs: &MemFs) -> Self {
        let files = fs
            .files
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        SharedMemFs {
            tree: RwLock::new(MemTree {
                files,
                changed: BTreeSet::new(),
            }),
        }
    }

    /// Adds or replaces a file through a shared handle.
    pub fn set(&self, path: &str, contents: &str) {
        let mut tree = self.tree.write().expect("file tree lock poisoned");
        tree.files.insert(path.to_string(), Arc::from(contents));
        tree.changed.insert(path.to_string());
    }

    /// Removes a file; later reads of `path` see it as absent.
    pub fn remove(&self, path: &str) {
        let mut tree = self.tree.write().expect("file tree lock poisoned");
        tree.files.remove(path);
        tree.changed.insert(path.to_string());
    }
}

impl FileSystem for SharedMemFs {
    fn read(&self, path: &str) -> Option<Arc<str>> {
        self.tree
            .read()
            .expect("file tree lock poisoned")
            .files
            .get(path)
            .cloned()
    }

    /// Every path [`SharedMemFs::set`] or [`SharedMemFs::remove`]
    /// touched since the previous call, sorted.
    fn take_changes(&self) -> Option<Vec<String>> {
        let mut tree = self.tree.write().expect("file tree lock poisoned");
        Some(std::mem::take(&mut tree.changed).into_iter().collect())
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
}

impl FileSystem for DiskFs {
    fn read(&self, path: &str) -> Option<Arc<str>> {
        let full = if Path::new(path).is_absolute() {
            PathBuf::from(path)
        } else {
            self.root.join(path)
        };
        std::fs::read_to_string(full).ok().map(Arc::from)
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
    }

    #[test]
    fn shared_mem_fs_reports_each_edited_path_once() {
        let fs = SharedMemFs::from_mem(&MemFs::new().file("a.h", "int a;\n"));
        assert_eq!(fs.take_changes(), Some(vec![]));
        fs.set("b.h", "int b;\n");
        fs.set("a.h", "int a2;\n");
        fs.remove("b.h");
        let shared = Arc::new(fs);
        assert_eq!(
            shared.take_changes(),
            Some(vec!["a.h".to_string(), "b.h".to_string()]),
            "sorted, deduplicated, forwarded through Arc"
        );
        assert_eq!(shared.take_changes(), Some(vec![]), "the log drains");
        assert_eq!(MemFs::new().take_changes(), None, "the default cannot tell");
    }

    #[test]
    fn references_are_file_systems() {
        let fs = MemFs::new().file("x.h", "int x;\n");
        let by_ref: &MemFs = &fs;
        assert_eq!(by_ref.read("x.h").as_deref(), Some("int x;\n"));
        assert_eq!(
            by_ref.resolve("x.h", true, "", &[]),
            Some("x.h".to_string())
        );
    }
}
