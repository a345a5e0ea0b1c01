//! Process-wide shared preprocessing artifact cache (the "L2").
//!
//! Corpus workers repeat the most expensive *configuration-independent*
//! preprocessing work per worker: lexing a header and structuring its
//! token stream into the raw directive tree ([`crate::directives`]).
//! Those artifacts depend only on the file's bytes — never on the macro
//! table, presence conditions, or worker identity — so one worker's lex
//! can serve every other worker.
//!
//! The obstacle is that the per-worker caches hold `Rc`-based trees
//! ([`Token`] text is `Rc<str>`, definitions are `Rc<MacroDef>`), which
//! are not `Send`. This module mirrors the raw tree into `Arc`-based
//! [`SharedItem`]s ("freeze"), stores them in a sharded map, and
//! converts back into a fresh `Rc` tree per worker ("thaw"). Freezing
//! content-dedups token spellings into shared `Arc<str>`s, so thawing
//! can dedup by pointer alone — one `Rc<str>` per distinct spelling per
//! worker, preserving the memory-sharing the per-worker cache already
//! had.
//!
//! # Invalidation protocol
//!
//! Artifacts are keyed by the **content hash** of the file's bytes
//! ([`SharedCache::content_hash`]), not by path. An edited file
//! therefore misses naturally — its new bytes hash to a new key — while
//! every unchanged file keeps hitting, and two paths with identical
//! bytes share one artifact.
//!
//! In front of the artifacts sits a sharded **path row** per path
//! ([`SharedCache::view`]): what one read of the path produced in the
//! current **generation** — absence, or the content hash and the bytes
//! ([`FileView`]). The row is the generation's only view of the path:
//! include resolution asks it whether a candidate exists, header loads
//! check their worker-local entries against its hash and lex its bytes
//! on a miss, and the unit memo revalidates fingerprints against it. So
//! a path is read at most once per generation, whether it is present or
//! absent, and an artifact is always built from the bytes its key
//! hashes.
//!
//! Generations model batch boundaries in a long-lived process: within a
//! generation, files are treated as immutable (the rows are
//! authoritative). The pooled corpus runner starts a generation before
//! every batch with [`SharedCache::next_generation_with`], passing the
//! paths its tree reports as changed since the previous batch. There is
//! one rule: **a new generation drops the rows of every path that may
//! have changed**, and every other row stays trusted without a read. A
//! change set names those paths; with no change set (a tree that cannot
//! enumerate its edits, such as a disk tree or a resolver callback)
//! every path may have changed, so every row is dropped and each path is
//! read again on first touch. [`SharedCache::next_generation`] is that
//! form.
//!
//! Artifact entries whose hash is no longer any row's content ("dead
//! hashes") are reclaimed by [`SharedCache::sweep`]. Every artifact is
//! published under the hash of a row that holds it, so an artifact can
//! only die when a row goes. The cache therefore counts the rows holding
//! each hash and remembers the hashes whose last row a generation
//! dropped, and the sweep looks at those hashes alone.
//!
//! Remaining coherence notes:
//!
//! * **Each path is read once per generation, by one worker.** A row is
//!   inserted before its file is read, and the read fills the row's
//!   once-cell; a worker that misses on a path another worker is
//!   already reading waits for that read instead of reading again. No
//!   shard lock is held across the read, which may call into an
//!   embedder's resolver. So a generation sees one snapshot of each
//!   path, and `files_rehashed` counts distinct files.
//! * **Rows keep the bytes.** A row holds the `Arc<str>` the tree handed
//!   out, so over an in-memory tree it shares the tree's own copy, while
//!   a disk or resolver tree keeps one copy per touched file until the
//!   row is dropped.
//! * **Positions are restamped on thaw.** Token positions embed the
//!   lexing worker's [`FileId`], which is a per-worker notion; the
//!   frozen form stores only line/column and the thaw stamps the local
//!   worker's id so downstream behavior (diagnostics, `__FILE__`) is
//!   byte-identical with a cache-off run.
//! * **Each content is lexed once per process.** A content hash's slot
//!   is inserted before its bytes are lexed, and the worker that lexes
//!   holds the slot's lock until it has published the artifact
//!   ([`SharedCache::get_or_make`]); a worker that misses on content
//!   another worker is lexing waits for that artifact instead of lexing
//!   it again. So `shared_cache_misses` counts distinct contents.
//! * **The content hash must mix every input bit.** An edit whose bytes
//!   hash to the old key replays the old artifact and every memoized
//!   unit over it. FxHash, which the in-memory maps use, mixes weakly:
//!   one-digit edits of a header-shaped file collide far more often
//!   than 64 random bits would. The key is therefore SipHash-1-3 with
//!   fixed keys (std's `DefaultHasher`), for which distinct contents
//!   collide like random 64-bit values: about n²/2⁶⁵ expected
//!   collisions among n distinct versions. It costs about 20% more
//!   than FxHash per byte, and a served edit hashes about one file.
//!
//! Failed lexes are *not* cached: a failed lex leaves its slot empty,
//! and the next worker lexes the bytes again and reports the error
//! itself, which keeps the error path identical to the cache-off
//! pipeline.

use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use superc_lexer::{FileId, SourcePos, Token, TokenKind};
use superc_util::{FastMap, FastSet, FxBuildHasher};

use crate::directives::{detect_pragma_once, RawGroup, RawItem, RawTest};
use crate::locks::{lock, read, write};
use crate::macrotable::MacroDef;

/// Shard count; a small power of two is plenty — contention is already
/// low because workers mostly *read* after the first few units warm the
/// cache.
const SHARDS: usize = 16;

/// A frozen source position: line/column only. The owning artifact was
/// lexed from a single file, so the [`FileId`] is carried once at thaw
/// time rather than per token.
#[derive(Clone, Copy, Debug)]
struct FrozenPos {
    line: u32,
    col: u32,
}

impl FrozenPos {
    fn freeze(pos: SourcePos) -> FrozenPos {
        FrozenPos {
            line: pos.line,
            col: pos.col,
        }
    }

    fn thaw(self, file: FileId) -> SourcePos {
        SourcePos {
            file,
            line: self.line,
            col: self.col,
        }
    }
}

/// A [`Token`] with its spelling promoted to `Arc<str>`.
#[derive(Clone, Debug)]
struct FrozenTok {
    kind: TokenKind,
    text: Arc<str>,
    pos: FrozenPos,
    ws_before: bool,
}

/// Mirror of [`MacroDef`] with shared spellings.
#[derive(Debug)]
enum FrozenDef {
    Object {
        body: Vec<FrozenTok>,
    },
    Function {
        params: Vec<Arc<str>>,
        variadic: bool,
        body: Vec<FrozenTok>,
    },
}

/// Mirror of [`RawTest`].
#[derive(Debug)]
enum FrozenTest {
    Expr(Vec<FrozenTok>),
    Ifdef(Arc<str>),
    Ifndef(Arc<str>),
    Else,
}

/// Mirror of [`RawGroup`].
#[derive(Debug)]
struct FrozenGroup {
    test: FrozenTest,
    items: Vec<SharedItem>,
    pos: FrozenPos,
}

/// Mirror of [`RawItem`] over `Arc`-based leaves; `Send + Sync` so whole
/// directive trees can cross worker threads.
#[derive(Debug)]
enum SharedItem {
    Text(Vec<FrozenTok>),
    Define {
        name: Arc<str>,
        def: Arc<FrozenDef>,
        pos: FrozenPos,
    },
    Undef {
        name: Arc<str>,
        pos: FrozenPos,
    },
    Include {
        tokens: Vec<FrozenTok>,
        pos: FrozenPos,
    },
    Conditional {
        groups: Vec<FrozenGroup>,
        pos: FrozenPos,
    },
    Error {
        tokens: Vec<FrozenTok>,
        pos: FrozenPos,
    },
    Warning {
        tokens: Vec<FrozenTok>,
        pos: FrozenPos,
    },
    Pragma {
        tokens: Vec<FrozenTok>,
        pos: FrozenPos,
    },
    Line {
        tokens: Vec<FrozenTok>,
        pos: FrozenPos,
    },
}

/// One file's frozen preprocessing artifact: the structured directive
/// tree, the detected include guard, and the cost metadata the consumer
/// credits on a hit.
#[derive(Debug)]
pub struct SharedArtifact {
    items: Vec<SharedItem>,
    guard: Option<Arc<str>>,
    /// Source size in bytes (drives `bytes_processed` accounting).
    pub bytes: usize,
    /// What the producing worker spent lexing + structuring this file;
    /// credited to `lex_nanos_saved` on every shared-cache hit.
    pub lex_nanos: u64,
    /// The file opens with a top-level `#pragma once` (profile-independent
    /// syntax fact, so sharing across profiles stays sound).
    pub pragma_once: bool,
}

/// Freeze-side interning state: one `Arc<str>` per distinct spelling.
#[derive(Default)]
struct Freezer {
    strs: FastMap<String, Arc<str>>,
}

impl Freezer {
    fn text(&mut self, s: &str) -> Arc<str> {
        if let Some(a) = self.strs.get(s) {
            return Arc::clone(a);
        }
        let a: Arc<str> = Arc::from(s);
        self.strs.insert(s.to_string(), Arc::clone(&a));
        a
    }

    fn tok(&mut self, t: &Token) -> FrozenTok {
        FrozenTok {
            kind: t.kind,
            text: self.text(&t.text),
            pos: FrozenPos::freeze(t.pos),
            ws_before: t.ws_before,
        }
    }

    fn toks(&mut self, ts: &[Token]) -> Vec<FrozenTok> {
        ts.iter().map(|t| self.tok(t)).collect()
    }

    fn def(&mut self, d: &MacroDef) -> FrozenDef {
        match d {
            MacroDef::Object { body } => FrozenDef::Object {
                body: self.toks(body),
            },
            MacroDef::Function {
                params,
                variadic,
                body,
            } => FrozenDef::Function {
                params: params.iter().map(|p| self.text(p)).collect(),
                variadic: *variadic,
                body: self.toks(body),
            },
        }
    }

    fn item(&mut self, item: &RawItem) -> SharedItem {
        match item {
            RawItem::Text(ts) => SharedItem::Text(self.toks(ts)),
            RawItem::Define { name, def, pos } => SharedItem::Define {
                name: self.text(name),
                def: Arc::new(self.def(def)),
                pos: FrozenPos::freeze(*pos),
            },
            RawItem::Undef { name, pos } => SharedItem::Undef {
                name: self.text(name),
                pos: FrozenPos::freeze(*pos),
            },
            RawItem::Include { tokens, pos } => SharedItem::Include {
                tokens: self.toks(tokens),
                pos: FrozenPos::freeze(*pos),
            },
            RawItem::Conditional { groups, pos } => SharedItem::Conditional {
                groups: groups.iter().map(|g| self.group(g)).collect(),
                pos: FrozenPos::freeze(*pos),
            },
            RawItem::Error { tokens, pos } => SharedItem::Error {
                tokens: self.toks(tokens),
                pos: FrozenPos::freeze(*pos),
            },
            RawItem::Warning { tokens, pos } => SharedItem::Warning {
                tokens: self.toks(tokens),
                pos: FrozenPos::freeze(*pos),
            },
            RawItem::Pragma { tokens, pos } => SharedItem::Pragma {
                tokens: self.toks(tokens),
                pos: FrozenPos::freeze(*pos),
            },
            RawItem::Line { tokens, pos } => SharedItem::Line {
                tokens: self.toks(tokens),
                pos: FrozenPos::freeze(*pos),
            },
        }
    }

    fn group(&mut self, g: &RawGroup) -> FrozenGroup {
        let test = match &g.test {
            RawTest::Expr(ts) => FrozenTest::Expr(self.toks(ts)),
            RawTest::Ifdef(n) => FrozenTest::Ifdef(self.text(n)),
            RawTest::Ifndef(n) => FrozenTest::Ifndef(self.text(n)),
            RawTest::Else => FrozenTest::Else,
        };
        FrozenGroup {
            test,
            items: g.items.iter().map(|i| self.item(i)).collect(),
            pos: FrozenPos::freeze(g.pos),
        }
    }
}

/// Thaw-side state: pointer-keyed because the freeze already
/// content-deduped every spelling, so `Arc` identity *is* content
/// identity — an O(1) lookup with no string hashing.
struct Thawer {
    file: FileId,
    strs: FastMap<usize, Rc<str>>,
}

impl Thawer {
    fn text(&mut self, s: &Arc<str>) -> Rc<str> {
        let key = Arc::as_ptr(s) as *const u8 as usize;
        if let Some(r) = self.strs.get(&key) {
            return Rc::clone(r);
        }
        let r: Rc<str> = Rc::from(&**s);
        self.strs.insert(key, Rc::clone(&r));
        r
    }

    fn tok(&mut self, t: &FrozenTok) -> Token {
        Token {
            kind: t.kind,
            text: self.text(&t.text),
            pos: t.pos.thaw(self.file),
            ws_before: t.ws_before,
        }
    }

    fn toks(&mut self, ts: &[FrozenTok]) -> Vec<Token> {
        ts.iter().map(|t| self.tok(t)).collect()
    }

    fn def(&mut self, d: &FrozenDef) -> MacroDef {
        match d {
            FrozenDef::Object { body } => MacroDef::Object {
                body: self.toks(body),
            },
            FrozenDef::Function {
                params,
                variadic,
                body,
            } => MacroDef::Function {
                params: params.iter().map(|p| self.text(p)).collect(),
                variadic: *variadic,
                body: self.toks(body),
            },
        }
    }

    fn item(&mut self, item: &SharedItem) -> RawItem {
        match item {
            SharedItem::Text(ts) => RawItem::Text(self.toks(ts)),
            SharedItem::Define { name, def, pos } => RawItem::Define {
                name: self.text(name),
                def: Rc::new(self.def(def)),
                pos: pos.thaw(self.file),
            },
            SharedItem::Undef { name, pos } => RawItem::Undef {
                name: self.text(name),
                pos: pos.thaw(self.file),
            },
            SharedItem::Include { tokens, pos } => RawItem::Include {
                tokens: self.toks(tokens),
                pos: pos.thaw(self.file),
            },
            SharedItem::Conditional { groups, pos } => RawItem::Conditional {
                groups: groups.iter().map(|g| self.group(g)).collect(),
                pos: pos.thaw(self.file),
            },
            SharedItem::Error { tokens, pos } => RawItem::Error {
                tokens: self.toks(tokens),
                pos: pos.thaw(self.file),
            },
            SharedItem::Warning { tokens, pos } => RawItem::Warning {
                tokens: self.toks(tokens),
                pos: pos.thaw(self.file),
            },
            SharedItem::Pragma { tokens, pos } => RawItem::Pragma {
                tokens: self.toks(tokens),
                pos: pos.thaw(self.file),
            },
            SharedItem::Line { tokens, pos } => RawItem::Line {
                tokens: self.toks(tokens),
                pos: pos.thaw(self.file),
            },
        }
    }

    fn group(&mut self, g: &FrozenGroup) -> RawGroup {
        let test = match &g.test {
            FrozenTest::Expr(ts) => RawTest::Expr(self.toks(ts)),
            FrozenTest::Ifdef(n) => RawTest::Ifdef(self.text(n)),
            FrozenTest::Ifndef(n) => RawTest::Ifndef(self.text(n)),
            FrozenTest::Else => RawTest::Else,
        };
        RawGroup {
            test,
            items: g.items.iter().map(|i| self.item(i)).collect(),
            pos: g.pos.thaw(self.file),
        }
    }
}

impl SharedArtifact {
    /// Freezes one file's raw directive tree into the shareable form,
    /// content-deduplicating spellings.
    pub fn freeze(
        items: &[RawItem],
        guard: Option<&Rc<str>>,
        bytes: usize,
        lex_nanos: u64,
    ) -> SharedArtifact {
        let pragma_once = detect_pragma_once(items);
        let mut fz = Freezer::default();
        let items = items.iter().map(|i| fz.item(i)).collect();
        let guard = guard.map(|g| fz.text(g));
        SharedArtifact {
            items,
            guard,
            bytes,
            lex_nanos,
            pragma_once,
        }
    }

    /// Rebuilds a worker-local `Rc` tree, stamping `file` — the *local*
    /// worker's id for this path — onto every position so downstream
    /// output matches a cache-off run byte for byte.
    pub fn thaw(&self, file: FileId) -> (Vec<RawItem>, Option<Rc<str>>) {
        let mut th = Thawer {
            file,
            strs: FastMap::default(),
        };
        let items = self.items.iter().map(|i| th.item(i)).collect();
        let guard = self.guard.as_ref().map(|g| th.text(g));
        (items, guard)
    }
}

/// One content hash's artifact: empty until a lex of those bytes
/// succeeds. The lexing worker holds the lock until it publishes, so a
/// worker can wait for another's lex without holding the shard lock.
type Slot = Arc<Mutex<Option<Arc<SharedArtifact>>>>;

/// One lock-guarded slice of the content-hash → artifact map.
type Shard = RwLock<FastMap<u64, Slot>>;

/// What [`SharedCache::get_or_make`] found.
pub enum Lookup<T> {
    /// Another worker's artifact for the content.
    Hit(Arc<SharedArtifact>),
    /// This caller made the artifact; here is its own result.
    Made(T),
}

/// What one read of a path produced: the content hash of its bytes and
/// the bytes themselves. An absent path has no view.
#[derive(Clone, Debug)]
pub struct FileView {
    /// [`SharedCache::content_hash`] of `text`.
    pub hash: u64,
    /// The bytes the tree handed out.
    pub text: Arc<str>,
}

/// One path's row behind [`SharedCache::view`]: a once-cell holding the
/// read's outcome (`None` inside = absent). The cell is shared so a
/// worker can wait for another worker's read without holding the shard
/// lock.
type PathRow = Arc<OnceLock<Option<FileView>>>;

/// One lock-guarded slice of the path → [`PathRow`] map.
type RowShard = RwLock<FastMap<String, PathRow>>;

/// What the next [`SharedCache::sweep`] must look at.
struct Orphans {
    /// How many path rows hold each content hash: counted when a row is
    /// filled, uncounted when a generation drops it.
    held: FastMap<u64, u32>,
    /// Hashes whose last row a generation dropped since the last sweep.
    /// A set: a pool that never sweeps (a cold one) drops the same rows
    /// generation after generation.
    dropped: FastSet<u64>,
}

/// The sharded content-hash-keyed artifact map plus the path rows. One
/// instance per corpus run or pooled runner, shared by `Arc` across
/// workers; see the module docs for the invalidation protocol.
pub struct SharedCache {
    shards: Box<[Shard]>,
    rows: Box<[RowShard]>,
    /// Current generation; bumped by [`SharedCache::next_generation_with`]
    /// at batch boundaries.
    generation: AtomicU64,
    /// Files whose bytes were read and hashed (row fills for present
    /// files; absent paths are not counted).
    rehashes: AtomicU64,
    orphans: Mutex<Orphans>,
}

impl Orphans {
    /// Uncounts a dropped row, remembering its hash if that was the
    /// hash's last row. An absent path's row, or one whose read never
    /// finished, holds no hash.
    fn release(&mut self, row: Option<PathRow>) {
        let Some(hash) = row.and_then(|row| Some(row.get()?.as_ref()?.hash)) else {
            return;
        };
        match self.held.get_mut(&hash) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                self.held.remove(&hash);
                self.dropped.insert(hash);
            }
        }
    }
}

impl Default for SharedCache {
    fn default() -> Self {
        SharedCache::new()
    }
}

impl SharedCache {
    /// An empty cache with a fixed shard count, at generation 1.
    pub fn new() -> SharedCache {
        let shards = (0..SHARDS)
            .map(|_| RwLock::new(FastMap::default()))
            .collect();
        let rows = (0..SHARDS)
            .map(|_| RwLock::new(FastMap::default()))
            .collect();
        SharedCache {
            shards,
            rows,
            generation: AtomicU64::new(1),
            rehashes: AtomicU64::new(0),
            orphans: Mutex::new(Orphans {
                held: FastMap::default(),
                dropped: FastSet::default(),
            }),
        }
    }

    /// SipHash-1-3 (std's `DefaultHasher`, fixed keys) of a file's
    /// bytes: the cache key. Deterministic across processes of one
    /// build, so fingerprints built from it are stable; see the module
    /// docs for why it is not FxHash.
    pub fn content_hash(bytes: &[u8]) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        h.write(bytes);
        h.finish()
    }

    fn shard(&self, hash: u64) -> &Shard {
        &self.shards[(hash as usize) % SHARDS]
    }

    fn row_shard(&self, path: &str) -> &RowShard {
        use std::hash::BuildHasher;
        let h = FxBuildHasher::default().hash_one(path);
        &self.rows[(h as usize) % SHARDS]
    }

    /// The current generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Starts a new generation in which every path must be read again
    /// before its row is trusted (the form of
    /// [`SharedCache::next_generation_with`] without a change set).
    pub fn next_generation(&self) -> u64 {
        self.next_generation_with(None)
    }

    /// Starts a new generation. Called by the pooled corpus runner at
    /// each batch boundary (the only point where the file tree may have
    /// been edited) with the paths the tree reports as changed since the
    /// previous boundary: their path rows are dropped and every other
    /// row stays trusted. `None` — the tree cannot tell — drops every
    /// row. Either way the next sweep looks at the hashes whose last row
    /// went.
    pub fn next_generation_with(&self, changed: Option<&[String]>) -> u64 {
        let mut orphans = lock(&self.orphans);
        match changed {
            Some(paths) => {
                for p in paths {
                    orphans.release(write(self.row_shard(p)).remove(p.as_str()));
                }
            }
            None => {
                for rows in self.rows.iter() {
                    for (_, row) in write(rows).drain() {
                        orphans.release(Some(row));
                    }
                }
            }
        }
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// `path`'s view in the current generation: its row, filled by one
    /// call of `read` (which returns `None` for a missing file) the
    /// first time any worker asks this generation. `None` when the file
    /// does not exist; that answer is kept too.
    ///
    /// Single flight: when another worker is already reading `path` in
    /// this generation, this call waits for its answer instead of
    /// reading the file again.
    pub fn view(
        &self,
        path: &str,
        read_file: impl FnOnce() -> Option<Arc<str>>,
    ) -> Option<FileView> {
        let shard = self.row_shard(path);
        let rows = read(shard);
        let cell = match rows.get(path) {
            Some(row) => match row.get() {
                Some(known) => return known.clone(),
                None => Arc::clone(row),
            },
            None => {
                drop(rows);
                Arc::clone(write(shard).entry(path.to_string()).or_default())
            }
        };
        cell.get_or_init(|| {
            let text = read_file()?;
            self.rehashes.fetch_add(1, Ordering::Relaxed);
            let hash = SharedCache::content_hash(text.as_bytes());
            *lock(&self.orphans).held.entry(hash).or_default() += 1;
            Some(FileView { hash, text })
        })
        .clone()
    }

    /// How many handles share `path`'s row cell: the row plus each
    /// worker inside [`SharedCache::view`] for it. Lets a test see a
    /// waiter join an in-flight read.
    #[cfg(test)]
    pub(crate) fn row_holders(&self, path: &str) -> usize {
        read(self.row_shard(path))
            .get(path)
            .map_or(0, Arc::strong_count)
    }

    /// Hashes the next sweep will look at. Lets a test see that
    /// generations without a sweep do not pile them up.
    #[cfg(test)]
    pub(crate) fn orphans_pending(&self) -> usize {
        lock(&self.orphans).dropped.len()
    }

    /// The artifact for `hash`, made at most once per process. The
    /// first caller runs `make` with the hash's slot locked and publishes
    /// the artifact it returns, keeping the rest of `make`'s result; a
    /// caller that arrives meanwhile waits for that artifact instead of
    /// making its own. A failed `make` publishes nothing, so the next
    /// caller runs its own.
    pub fn get_or_make<T, E>(
        &self,
        hash: u64,
        make: impl FnOnce() -> Result<(T, SharedArtifact), E>,
    ) -> Result<Lookup<T>, E> {
        let slot = self.slot(hash);
        let mut artifact = lock(&slot);
        if let Some(art) = &*artifact {
            return Ok(Lookup::Hit(Arc::clone(art)));
        }
        let (mine, made) = make()?;
        *artifact = Some(Arc::new(made));
        Ok(Lookup::Made(mine))
    }

    /// `hash`'s slot, inserted empty if no caller has asked before.
    fn slot(&self, hash: u64) -> Slot {
        let shard = self.shard(hash);
        let found = read(shard).get(&hash).map(Arc::clone);
        found.unwrap_or_else(|| Arc::clone(write(shard).entry(hash).or_default()))
    }

    /// How many handles share `hash`'s slot: the map plus each caller
    /// inside [`SharedCache::get_or_make`] for it. Lets a test see a
    /// waiter join an in-flight lex.
    #[cfg(test)]
    pub(crate) fn slot_holders(&self, hash: u64) -> usize {
        read(self.shard(hash))
            .get(&hash)
            .map_or(0, Arc::strong_count)
    }

    /// Evicts artifacts for **dead hashes**: entries whose hash is not
    /// the hash of any path row. Intended to run right after a batch,
    /// when the rows are the batch's files plus every earlier file no
    /// change has touched since it was read; artifacts for other files
    /// are evicted (they re-enter on next use). Only a hash whose last
    /// row a generation dropped can be dead, so only those are looked
    /// at: a served request's sweep costs its edit, not the tree.
    /// Returns the number of artifacts evicted.
    pub fn sweep(&self) -> usize {
        let mut orphans = lock(&self.orphans);
        let Orphans { held, dropped } = &mut *orphans;
        dropped
            .drain()
            .filter(|hash| !held.contains_key(hash))
            .filter(|hash| write(self.shard(*hash)).remove(hash).is_some())
            .count()
    }

    /// Files read and hashed so far (row fills for present files,
    /// cumulative).
    pub fn rehashes(&self) -> u64 {
        self.rehashes.load(Ordering::Relaxed)
    }

    /// Number of published artifacts across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| read(s).values().filter(|slot| lock(slot).is_some()).count())
            .sum()
    }

    /// True when no artifact has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// The whole point of the mirror types: artifacts must cross threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedCache>();
    assert_send_sync::<SharedArtifact>();
};
