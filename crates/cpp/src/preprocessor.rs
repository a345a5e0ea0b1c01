//! The preprocessor driver: walks structured files, maintains the
//! conditional macro table, resolves includes, and assembles configuration-
//! preserving compilation units.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use superc_cond::{Cond, CondCtx};
use superc_lexer::{lex, FileId, LexError, Punct, SourcePos, Token, TokenKind};
use superc_util::{FastMap, FastSet};

use crate::condexpr::{CondExprEntry, CondExprKey};
use crate::directives::{detect_guard, detect_pragma_once, structure, RawItem, RawTest};
use crate::elements::{self, Branch, Conditional, Element, PTok};
use crate::files::{resolve_include, FileSystem};
use crate::macrotable::{MacroDef, MacroTable};
use crate::profile::{Profile, UndefIdentPolicy};
use crate::sharedcache::{FileView, Lookup, SharedArtifact, SharedCache};
use crate::stats::PpStats;

/// A fatal preprocessing error (lexical error, unbalanced conditionals,
/// `#error` outside conditionals, missing main file).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PpError {
    /// Where the error was detected.
    pub pos: SourcePos,
    /// Lowercase description.
    pub message: String,
}

impl fmt::Display for PpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.pos, self.message)
    }
}

impl std::error::Error for PpError {}

impl From<LexError> for PpError {
    fn from(e: LexError) -> Self {
        PpError {
            pos: e.pos,
            message: e.message,
        }
    }
}

/// Diagnostic severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// A hard problem confined to some configurations.
    Error,
    /// Suspicious but recoverable.
    Warning,
    /// Preserved annotations (`#pragma`, `#line`, `#warning` text).
    Note,
}

/// A non-fatal diagnostic, tagged with the presence condition under which
/// it applies.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Source position.
    pub pos: SourcePos,
    /// Configurations the diagnostic applies to.
    pub cond: Cond,
    /// Message text.
    pub message: String,
}

/// A conditional group that could never be entered: its branch condition
/// was infeasible under the enclosing presence condition (or earlier
/// branches of the chain had already covered every configuration).
///
/// The preprocessor trims such branches from the output stream entirely,
/// so the analysis layer needs this side record to report them.
#[derive(Clone, Debug)]
pub struct DeadBranch {
    /// Position of the dead group's directive (`#if`/`#elif`/`#else`).
    pub pos: SourcePos,
    /// The enclosing presence condition of the whole conditional.
    pub context: Cond,
    /// True when the chain up to and including this group contains an
    /// identifier-free `#if` test (`#if 0`, `#if 1 … #else`): a
    /// deliberate toggle idiom, not a configuration surprise.
    pub chain_constant: bool,
}

/// A macro name tested by a conditional directive (`#ifdef NAME`,
/// `#ifndef NAME`, or an identifier inside an `#if`/`#elif` expression).
///
/// The analysis layer cross-checks these against the macro table to flag
/// names that are tested but never defined or undefined anywhere in the
/// unit — a likely typo.
#[derive(Clone, Debug)]
pub struct TestedMacro {
    /// The tested name.
    pub name: Rc<str>,
    /// Position of the test (the identifier token for expression tests,
    /// the directive for `#ifdef`/`#ifndef`).
    pub pos: SourcePos,
    /// Presence condition under which the directive is evaluated.
    pub cond: Cond,
}

/// One static conditional group that survived trimming, with its final
/// branch presence condition.
///
/// The cross-profile analysis diffs these site-by-site: a conditional
/// whose condition is `defined(CONFIG_X)` under one profile but `false`
/// under another (because a built-in decided the test) is a portability
/// hazard. Recorded in source order, which is schedule-independent.
#[derive(Clone, Debug)]
pub struct CondSite {
    /// Position of the group's directive (`#if`/`#elif`/`#else`).
    pub pos: SourcePos,
    /// The group's branch condition after trimming (`false` for dead
    /// groups, so profiles that kill a branch still produce a row).
    pub cond: Cond,
}

/// Preprocessor configuration.
#[derive(Clone, Debug)]
pub struct PpOptions {
    /// Search paths for includes (after the including file's directory).
    pub include_paths: Vec<String>,
    /// Command-line definitions, like `-Dname=body` (`body` may be empty).
    pub defines: Vec<(String, String)>,
    /// The compiler/OS target: built-in macros plus dialect policies
    /// (undefined-identifier handling, `#pragma once`).
    pub profile: Profile,
    /// Include nesting limit.
    pub max_include_depth: usize,
    /// Ceiling on hoisted branches per pasting/stringification/expansion
    /// operation; beyond it the operation degrades with a warning
    /// diagnostic instead of enumerating configurations.
    pub hoist_cap: usize,
    /// Single-configuration ("gcc") mode: free macros count as undefined,
    /// conditionals fully resolve, and the output contains no
    /// conditionals. The configuration is given by `defines`. This is the
    /// baseline the paper measures SuperC against in §6.3.
    pub single_config: bool,
    /// Fused lexing: tokens at the front of a conditional-free text run
    /// that can never expand (non-identifiers, and identifiers the macro
    /// table has never seen) stream straight from the lexer's structured
    /// items to the output without passing through the expansion queue.
    /// Output is byte-identical either way; disabled by `--no-fastpath`
    /// together with the parser's fast path.
    pub fuse_lexing: bool,
}

impl Default for PpOptions {
    fn default() -> Self {
        PpOptions {
            include_paths: vec!["include".to_string()],
            defines: Vec::new(),
            profile: Profile::default(),
            max_include_depth: 200,
            hoist_cap: 4096,
            single_config: false,
            fuse_lexing: true,
        }
    }
}

/// A preprocessed compilation unit: all configurations preserved.
#[derive(Clone, Debug)]
pub struct CompilationUnit {
    /// The main file's path.
    pub file: String,
    /// Ordinary tokens and static conditionals.
    pub elements: Vec<Element>,
    /// Usage counters (Table 2/3 instrumentation).
    pub stats: PpStats,
    /// Diagnostics with presence conditions.
    pub diagnostics: Vec<Diagnostic>,
    /// Conditional branches trimmed as infeasible (empty in
    /// single-configuration mode, where untaken branches are the norm).
    pub dead_branches: Vec<DeadBranch>,
    /// Macro names tested by conditional directives (empty in
    /// single-configuration mode).
    pub tested_macros: Vec<TestedMacro>,
    /// Surviving conditional groups with their final branch conditions,
    /// in source order (empty in single-configuration mode). The
    /// cross-profile analysis diffs these per site.
    pub cond_sites: Vec<CondSite>,
}

impl CompilationUnit {
    /// Renders the unit back to `#if`-annotated text (for inspection and
    /// golden tests, like the paper's Figure 1b).
    pub fn display_text(&self) -> String {
        let mut s = String::new();
        elements::display_elements(&self.elements, &mut s);
        s
    }

    /// Total ordinary tokens across all branches.
    pub fn token_count(&self) -> usize {
        elements::count_tokens(&self.elements)
    }
}

struct CachedFile {
    items: Vec<RawItem>,
    guard: Option<Rc<str>>,
    /// The file opens with `#pragma once` (profile-independent syntax
    /// fact; whether it is *honored* is the profile's call).
    pragma_once: bool,
    bytes: usize,
    /// Content hash of the bytes this entry was built from (0 when no
    /// shared cache is attached — hashing only pays for itself as a
    /// cache key). An entry serves a load only while it matches the
    /// hash of the path's row in the current generation.
    hash: u64,
}

/// A freshly lexed file plus the time it took to produce — the cost a
/// shared-cache hit credits back via `lex_nanos_saved`.
struct LexedFile {
    file: CachedFile,
    produce_nanos: u64,
}

/// The configuration-preserving preprocessor.
///
/// Create one per corpus; call [`Preprocessor::preprocess`] per compilation
/// unit (macro state resets between units, lexed headers stay cached).
///
/// See the crate docs for an end-to-end example.
pub struct Preprocessor<F: FileSystem> {
    pub(crate) ctx: CondCtx,
    pub(crate) opts: PpOptions,
    fs: F,
    pub(crate) table: MacroTable,
    pub(crate) stats: PpStats,
    pub(crate) diags: Vec<Diagnostic>,
    dead_branches: Vec<DeadBranch>,
    tested_macros: Vec<TestedMacro>,
    cond_sites: Vec<CondSite>,
    pub(crate) builtin_names: HashSet<String>,
    /// Per-worker (L1) cache of lexed+structured files, keyed by path.
    file_cache: HashMap<String, Rc<CachedFile>>,
    /// Optional process-wide (L2) artifact cache shared across workers:
    /// its path rows are this tool's only view of the tree, its
    /// artifacts are probed on L1 misses and fed on lexes. `None` runs
    /// the tool fully isolated, reading through [`FileSystem::read`]
    /// (the one-shot cache-off reference).
    shared: Option<Arc<SharedCache>>,
    /// The current unit's include-closure dependency fingerprint: every
    /// file loaded so far (main file and headers, first occurrence
    /// only) mapped to its content hash. Reset per unit; only populated
    /// when a shared cache is attached (that is where hashes come from).
    unit_deps: FastMap<String, u64>,
    /// The current unit's **negative** include-resolution dependencies:
    /// every probe path that failed while resolving this unit's
    /// includes. A file appearing at any of them would change what
    /// `resolve` returns — a header shadowing the one actually used —
    /// so the warm unit memo must treat "formerly absent path now
    /// exists" as an invalidation, exactly like a content change on a
    /// positive dependency. Reset per unit; populated only alongside
    /// `unit_deps` (when a shared cache is attached).
    unit_neg_deps: FastSet<String>,
    /// Per-worker conditional-expression memo: presence conditions and
    /// replayable counter deltas for previously evaluated `#if`/`#elif`
    /// expressions. Persists across units — `Cond` handles stay valid
    /// because the worker's condition context does — but never crosses
    /// workers, whose BDD variable orders differ.
    pub(crate) condexpr_memo: FastMap<CondExprKey, CondExprEntry>,
    /// Per-unit memo of "closed" object-like macro bodies (no identifiers,
    /// no `##`): expansion is a verbatim body splice, so repeat
    /// invocations skip substitution and rescanning. Keyed by definition
    /// address; the kept `Rc<MacroDef>` pins the address for the unit.
    pub(crate) expansion_memo: FastMap<usize, (Rc<MacroDef>, Rc<Vec<Token>>)>,
    file_ids: HashMap<String, FileId>,
    file_names: Vec<String>,
    file_stack: Vec<String>,
    processed_files: HashSet<String>,
    /// Configurations that have already included each `#pragma once`
    /// file this unit (only consulted when the profile honors the
    /// pragma). A reinclusion proceeds only for the configurations not
    /// yet covered — the configuration-aware analogue of the guard fast
    /// path above it.
    pragma_once_files: HashMap<String, Cond>,
    include_counts: HashMap<String, u64>,
    max_depth_seen: u64,
    poisoned: bool,
}

impl<F: FileSystem> Preprocessor<F> {
    /// Creates a preprocessor over `fs` with the given condition context.
    pub fn new(ctx: CondCtx, opts: PpOptions, fs: F) -> Self {
        let builtin_names = opts
            .profile
            .builtins
            .defs
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        let table = MacroTable::with_interner(ctx.interner());
        Preprocessor {
            ctx,
            opts,
            fs,
            table,
            stats: PpStats::default(),
            diags: Vec::new(),
            dead_branches: Vec::new(),
            tested_macros: Vec::new(),
            cond_sites: Vec::new(),
            builtin_names,
            file_cache: HashMap::new(),
            shared: None,
            unit_deps: FastMap::default(),
            unit_neg_deps: FastSet::default(),
            condexpr_memo: FastMap::default(),
            expansion_memo: FastMap::default(),
            file_ids: HashMap::new(),
            file_names: Vec::new(),
            file_stack: Vec::new(),
            processed_files: HashSet::new(),
            pragma_once_files: HashMap::new(),
            include_counts: HashMap::new(),
            max_depth_seen: 0,
            poisoned: false,
        }
    }

    /// The condition context conditions are built in.
    pub fn ctx(&self) -> &CondCtx {
        &self.ctx
    }

    /// Attaches a process-wide shared artifact cache (L2); see
    /// [`crate::sharedcache`] — typically called once per worker by the
    /// corpus driver, with every worker handed a clone of the same `Arc`.
    pub fn set_shared_cache(&mut self, cache: Arc<SharedCache>) {
        self.shared = Some(cache);
    }

    /// The include-closure dependency fingerprint of the last
    /// preprocessed unit: every file it loaded (main file plus headers)
    /// with its content hash, sorted by path. Empty when no shared
    /// cache is attached — content hashes are only computed for cache
    /// keying.
    pub fn unit_deps(&self) -> Vec<(String, u64)> {
        let mut deps: Vec<(String, u64)> = self
            .unit_deps
            .iter()
            .map(|(p, &h)| (p.clone(), h))
            .collect();
        deps.sort_unstable();
        deps
    }

    /// The negative half of the last unit's fingerprint: every include
    /// resolution probe path that *failed*, sorted. A memo entry built
    /// from this unit is stale as soon as any of these paths exists —
    /// the new file would have won (or changed) resolution. Empty when
    /// no shared cache is attached, like [`Preprocessor::unit_deps`].
    pub fn unit_neg_deps(&self) -> Vec<String> {
        let mut neg: Vec<String> = self.unit_neg_deps.iter().cloned().collect();
        neg.sort_unstable();
        neg
    }

    /// The current content hash of `path`, from its row in the shared
    /// cache (read only if no worker has filled the row this
    /// generation). `None` when no shared cache is attached or the file
    /// is missing — either way a recorded fingerprint can't be
    /// revalidated.
    pub fn dep_hash(&self, path: &str) -> Option<u64> {
        self.shared.as_ref()?;
        self.view(path).map(|v| v.hash)
    }

    /// The generation's one view of `path`: its shared-cache row, which
    /// reads the tree at most once per generation across all workers.
    /// Without a shared cache, a direct read (hash 0: hashing only pays
    /// for itself as a cache key).
    fn view(&self, path: &str) -> Option<FileView> {
        match &self.shared {
            Some(shared) => shared.view(path, || self.fs.read(path)),
            None => self.fs.read(path).map(|text| FileView { hash: 0, text }),
        }
    }

    /// The macro table as of the last `preprocess` call (tests/inspection).
    pub fn table(&self) -> &MacroTable {
        &self.table
    }

    /// Per-header inclusion counts accumulated across units (Table 2b).
    pub fn include_counts(&self) -> &HashMap<String, u64> {
        &self.include_counts
    }

    /// The single seat of the "undefined identifiers evaluate to 0"
    /// policy that used to be duplicated across `condexpr`'s two folding
    /// sites: free identifiers in conditional expressions fold to a
    /// concrete value only in single-configuration mode (otherwise they
    /// become condition variables and no folding happens). How a fold is
    /// *reported* is the profile's [`UndefIdentPolicy`]; see
    /// [`Preprocessor::warn_folded`].
    pub(crate) fn fold_free_idents(&self) -> bool {
        self.opts.single_config
    }

    /// Applies the profile's [`UndefIdentPolicy`] to an identifier a
    /// conditional expression folded to `0`: gcc's `Zero` stays silent,
    /// MSVC's `WarnThenZero` diagnoses it (/Wall warning C4668).
    pub(crate) fn warn_folded(&mut self, name: &str, pos: SourcePos, c: &Cond) {
        if self.opts.profile.undef_ident == UndefIdentPolicy::WarnThenZero {
            self.diag(
                Severity::Warning,
                pos,
                c,
                format!("'{name}' is not defined as a macro; replacing with 0"),
            );
        }
    }

    /// The path of the file currently being processed (`__FILE__`).
    pub(crate) fn current_file(&self) -> String {
        self.file_stack.last().cloned().unwrap_or_default()
    }

    /// Records every macro name a conditional test mentions: the tested
    /// name for `#ifdef`/`#ifndef`, every identifier (including `defined`
    /// operands, excluding `defined` itself) for expression tests.
    fn record_tested(&mut self, test: &RawTest, pos: SourcePos, c: &Cond) {
        match test {
            RawTest::Ifdef(n) | RawTest::Ifndef(n) => self.tested_macros.push(TestedMacro {
                name: n.clone(),
                pos,
                cond: c.clone(),
            }),
            RawTest::Expr(toks) => {
                for t in toks {
                    if matches!(t.kind, TokenKind::Ident) && &*t.text != "defined" {
                        self.tested_macros.push(TestedMacro {
                            name: t.text.clone(),
                            pos: t.pos,
                            cond: c.clone(),
                        });
                    }
                }
            }
            RawTest::Else => {}
        }
    }

    pub(crate) fn diag(
        &mut self,
        severity: Severity,
        pos: SourcePos,
        cond: &Cond,
        message: String,
    ) {
        self.diags.push(Diagnostic {
            severity,
            pos,
            cond: cond.clone(),
            message,
        });
    }

    fn file_id(&mut self, path: &str) -> FileId {
        if let Some(&id) = self.file_ids.get(path) {
            return id;
        }
        let id = FileId(self.file_names.len() as u32);
        self.file_names.push(path.to_string());
        self.file_ids.insert(path.to_string(), id);
        id
    }

    /// The path registered for a [`FileId`].
    pub fn file_name(&self, id: FileId) -> Option<&str> {
        self.file_names.get(id.0 as usize).map(|s| s.as_str())
    }

    /// Records one file of the current unit's include closure (first
    /// occurrence per path wins; a closure member's hash cannot change
    /// mid-unit by the generation contract).
    fn record_dep(&mut self, path: &str, hash: u64) {
        if self.shared.is_some() && !self.unit_deps.contains_key(path) {
            self.unit_deps.insert(path.to_string(), hash);
        }
    }

    /// Loads `path`'s structured form for this unit. With a shared
    /// cache, the path's row comes first: the L1 entry serves if it was
    /// built from the row's bytes, else the L2 artifact for the row's
    /// hash is thawed, else the row's bytes are lexed and published.
    /// Without one there are no generations: an L1 entry never expires,
    /// and the tree is read only on an L1 miss.
    fn load_cached(&mut self, path: &str) -> Result<Rc<CachedFile>, PpError> {
        let not_found = || PpError {
            pos: SourcePos::default(),
            message: format!("file not found: {path}"),
        };
        let view = match self.shared {
            Some(_) => Some(self.view(path).ok_or_else(not_found)?),
            None => None,
        };
        let hit = self
            .file_cache
            .get(path)
            .filter(|f| view.as_ref().is_none_or(|v| v.hash == f.hash))
            .cloned();
        let cached = match hit {
            Some(f) => f,
            None => {
                let view = view.or_else(|| self.view(path)).ok_or_else(not_found)?;
                let cached = Rc::new(self.produce(path, view)?);
                self.file_cache.insert(path.to_string(), Rc::clone(&cached));
                cached
            }
        };
        // The macro table (and its guard registry) resets per unit;
        // every load re-registers the file's guard.
        if let Some(g) = &cached.guard {
            self.table.register_guard(g.clone());
        }
        self.stats.files_processed += 1;
        self.stats.bytes_processed += cached.bytes as u64;
        self.record_dep(path, cached.hash);
        Ok(cached)
    }

    /// Builds the L1 entry for `view`. The L2 is probed by content hash:
    /// another worker (or an earlier unit here) may already have lexed
    /// these bytes, under this path or any other with identical
    /// content, or be lexing them now, in which case this waits for its
    /// artifact. A hit thaws into a worker-local `Rc` tree under this
    /// worker's file id, so everything downstream is byte-identical
    /// with a cache-off run and only the lex is skipped. A failed lex
    /// publishes nothing, so the error path stays identical to the
    /// cache-off pipeline.
    fn produce(&mut self, path: &str, view: FileView) -> Result<CachedFile, PpError> {
        let Some(shared) = self.shared.clone() else {
            return Ok(self.lex_file(path, &view.text, 0)?.file);
        };
        let lookup = shared.get_or_make(view.hash, || -> Result<_, PpError> {
            let lexed = self.lex_file(path, &view.text, view.hash)?;
            let file = lexed.file;
            let art = SharedArtifact::freeze(
                &file.items,
                file.guard.as_ref(),
                file.bytes,
                lexed.produce_nanos,
            );
            Ok((file, art))
        })?;
        let art = match lookup {
            Lookup::Made(file) => {
                self.stats.shared_cache_misses += 1;
                return Ok(file);
            }
            Lookup::Hit(art) => art,
        };
        let (items, guard) = art.thaw(self.file_id(path));
        self.stats.shared_cache_hits += 1;
        self.stats.lex_nanos_saved += art.lex_nanos;
        Ok(CachedFile {
            items,
            guard,
            pragma_once: art.pragma_once,
            bytes: art.bytes,
            hash: view.hash,
        })
    }

    /// Lexes and structures one file into a [`CachedFile`], crediting
    /// lex time.
    fn lex_file(&mut self, path: &str, src: &str, hash: u64) -> Result<LexedFile, PpError> {
        let id = self.file_id(path);
        let lex_start = std::time::Instant::now();
        let tokens = lex(src, id)?;
        self.stats.lex_nanos += lex_start.elapsed().as_nanos() as u64;
        let items = structure(&tokens)?;
        let produce_nanos = lex_start.elapsed().as_nanos() as u64;
        let guard = detect_guard(&items);
        let pragma_once = detect_pragma_once(&items);
        Ok(LexedFile {
            file: CachedFile {
                items,
                guard,
                pragma_once,
                bytes: src.len(),
                hash,
            },
            produce_nanos,
        })
    }

    /// Preprocesses one compilation unit, preserving all configurations.
    ///
    /// Macro state and statistics reset per unit; the lexed-file cache and
    /// cumulative include counts persist.
    ///
    /// # Errors
    ///
    /// Fails on a missing main file, lexical errors, unbalanced
    /// conditionals, and `#error` outside static conditionals.
    pub fn preprocess(&mut self, path: &str) -> Result<CompilationUnit, PpError> {
        self.table = MacroTable::with_interner(self.ctx.interner());
        self.stats = PpStats::default();
        self.diags.clear();
        self.dead_branches.clear();
        self.tested_macros.clear();
        self.cond_sites.clear();
        self.processed_files.clear();
        self.pragma_once_files.clear();
        self.file_stack.clear();
        self.max_depth_seen = 0;
        self.poisoned = false;
        self.unit_deps.clear();
        self.unit_neg_deps.clear();
        // The expansion memo is deliberately per-unit: pinned `Rc`s must
        // not outlive the macro table they came from, and a fresh memo per
        // unit keeps *direct* hits a pure function of the unit. (The
        // condexpr memo persists — its Cond handles outlive units — and
        // replays counter deltas instead; since a replayed delta carries
        // the original evaluation's memo-hit gauges, all memo hit/miss
        // counters are schedule-dependent and excluded from determinism
        // comparisons.)
        self.expansion_memo.clear();

        // Install the profile's built-ins and command-line definitions
        // under `true`.
        let defs: Vec<(String, String)> = self
            .opts
            .profile
            .builtins
            .defs
            .iter()
            .chain(self.opts.defines.iter())
            .cloned()
            .collect();
        for (name, body) in defs {
            let pseudo = format!("{body}\n");
            let toks = lex(&pseudo, FileId(u32::MAX)).map_err(PpError::from)?;
            let body: Vec<Token> = toks
                .into_iter()
                .filter(|t| !matches!(t.kind, TokenKind::Newline | TokenKind::Eof))
                .collect();
            let tru = self.ctx.tru();
            self.table.define(
                Rc::from(name.as_str()),
                Rc::new(MacroDef::Object { body }),
                &tru,
            );
        }

        let cached = self.load_cached(path)?;
        // The guard cache may hold guards from other units; re-register this
        // unit's headers lazily as they load.
        self.file_stack.push(path.to_string());
        let tru = self.ctx.tru();
        let mut out = Vec::new();
        self.process_items(&cached.items, &tru, 0, &mut out)?;
        self.file_stack.pop();

        self.stats.max_depth = self.max_depth_seen.max(elements::max_depth(&out) as u64);
        self.stats.output_tokens = elements::count_tokens(&out) as u64;
        self.stats.output_conditionals = count_conditionals(&out);
        Ok(CompilationUnit {
            file: path.to_string(),
            elements: out,
            stats: self.stats,
            diagnostics: std::mem::take(&mut self.diags),
            dead_branches: std::mem::take(&mut self.dead_branches),
            tested_macros: std::mem::take(&mut self.tested_macros),
            cond_sites: std::mem::take(&mut self.cond_sites),
        })
    }

    fn flush_pending(&mut self, pending: &mut Vec<Element>, c: &Cond, out: &mut Vec<Element>) {
        if pending.is_empty() {
            return;
        }
        let mut rest = std::mem::take(pending);
        if self.opts.fuse_lexing {
            // Fused lexing: the maximal inert prefix of the segment streams
            // straight from the lexer's structured items to the output,
            // bypassing the expansion queue. Inertness is judged here — at
            // flush time, not when the tokens were accumulated — because a
            // conditional earlier in this segment may have installed
            // definitions that make a preceding token expandable; at flush
            // time the table state is exactly what `expand_segment` sees.
            let split = rest
                .iter()
                .position(|e| !self.element_is_inert(e))
                .unwrap_or(rest.len());
            if split > 0 {
                self.stats.fused_tokens += split as u64;
                if split == rest.len() {
                    out.extend(rest);
                    return;
                }
                out.extend(rest.drain(..split));
            }
        }
        let expanded = self.expand_segment(rest, c);
        out.extend(expanded);
    }

    /// True when `expand_segment` would pass `e` through verbatim with no
    /// side effects on the table, stats, or hide sets: non-identifier
    /// tokens, painted identifiers, and identifiers the macro table has
    /// never mentioned (no `#define` or `#undef` under any condition),
    /// excluding the dynamic built-ins. Conditionals always re-examine
    /// their branches, so they are never inert — the fused prefix cannot
    /// cross a conditional, which is what keeps cross-conditional
    /// invocation recognition (Fig. 4) intact.
    fn element_is_inert(&self, e: &Element) -> bool {
        match e {
            Element::Token(t) => {
                if !t.tok.is_ident() || t.hide.contains(t.text()) {
                    return true;
                }
                let name = t.text();
                if name == "__FILE__" || name == "__LINE__" {
                    return false;
                }
                !self.table.mentioned(name)
            }
            Element::Conditional(_) => false,
        }
    }

    fn process_items(
        &mut self,
        items: &[RawItem],
        c: &Cond,
        depth: u64,
        out: &mut Vec<Element>,
    ) -> Result<(), PpError> {
        self.max_depth_seen = self.max_depth_seen.max(depth);
        let mut pending: Vec<Element> = Vec::new();
        for item in items {
            match item {
                RawItem::Text(tokens) => {
                    pending.extend(tokens.iter().map(|t| Element::Token(PTok::new(t.clone()))));
                }
                RawItem::Conditional { groups, pos } => {
                    self.stats.conditionals += 1;
                    if depth >= 64 {
                        self.diag(
                            Severity::Warning,
                            *pos,
                            c,
                            "conditional nesting deeper than 64".to_string(),
                        );
                    }
                    let mut remaining = c.clone();
                    let mut branches: Vec<Branch> = Vec::new();
                    // Tracks whether the chain so far contains an
                    // identifier-free `#if` test (`#if 0`-style toggles);
                    // dead branches downstream of one are deliberate.
                    let mut chain_constant = false;
                    let record = !self.opts.single_config;
                    for g in groups {
                        chain_constant |= test_is_constant(&g.test);
                        if record {
                            self.record_tested(&g.test, g.pos, c);
                        }
                        if remaining.is_false() {
                            // Earlier branches cover every configuration:
                            // this group can never be entered. Record it
                            // (its test is not evaluated) and move on.
                            if record {
                                self.dead_branches.push(DeadBranch {
                                    pos: g.pos,
                                    context: c.clone(),
                                    chain_constant,
                                });
                                self.cond_sites.push(CondSite {
                                    pos: g.pos,
                                    cond: self.ctx.fls(),
                                });
                            }
                            continue;
                        }
                        let bc = match &g.test {
                            RawTest::Ifdef(n) => self.defined_as_cond(n, &remaining),
                            RawTest::Ifndef(n) => {
                                remaining.and_not(&self.defined_as_cond(n, &remaining))
                            }
                            RawTest::Expr(toks) => {
                                let (cond, hoisted, nonbool) =
                                    self.eval_cond_expr(toks, &remaining, g.pos);
                                if hoisted {
                                    self.stats.conditionals_hoisted += 1;
                                }
                                if nonbool {
                                    self.stats.non_boolean_exprs += 1;
                                }
                                cond
                            }
                            RawTest::Else => remaining.clone(),
                        };
                        let bc = bc.and(&remaining);
                        if bc.is_false() {
                            if record {
                                self.dead_branches.push(DeadBranch {
                                    pos: g.pos,
                                    context: c.clone(),
                                    chain_constant,
                                });
                                self.cond_sites.push(CondSite {
                                    pos: g.pos,
                                    cond: bc,
                                });
                            }
                            continue;
                        }
                        if record {
                            self.cond_sites.push(CondSite {
                                pos: g.pos,
                                cond: bc.clone(),
                            });
                        }
                        remaining = remaining.and_not(&bc);
                        let mut belems = Vec::new();
                        self.process_items(&g.items, &bc, depth + 1, &mut belems)?;
                        if self.poisoned {
                            // #error in this branch: its configurations are
                            // invalid; disable their parsing (paper §2).
                            self.poisoned = false;
                            belems.clear();
                        }
                        branches.push(Branch {
                            cond: bc,
                            elements: belems,
                        });
                    }
                    if !remaining.is_false() {
                        // Materialize the implicit else branch so branch
                        // conditions always partition the parent condition.
                        branches.push(Branch {
                            cond: remaining,
                            elements: Vec::new(),
                        });
                    }
                    if branches.iter().all(|b| b.elements.is_empty()) {
                        // Nothing but directives inside: no token-level
                        // variability to preserve.
                        continue;
                    }
                    match branches.len() {
                        0 => {}
                        1 if c.and_not(&branches[0].cond).is_false() => {
                            // Only one feasible branch covering everything:
                            // inline it (trimming, §2).
                            pending.extend(branches.pop().expect("one branch").elements);
                        }
                        _ => pending.push(Element::Conditional(Conditional { branches })),
                    }
                }
                RawItem::Define { name, def, pos } => {
                    self.flush_pending(&mut pending, c, out);
                    self.stats.macro_definitions += 1;
                    if self.table.any_defined(name, c) {
                        self.stats.redefinitions += 1;
                        self.diag(Severity::Note, *pos, c, format!("macro {name} redefined"));
                    }
                    let before = self.table.trims;
                    self.table.define_at(name.clone(), def.clone(), c, *pos);
                    self.stats.trimmed_entries += self.table.trims - before;
                }
                RawItem::Undef { name, pos } => {
                    self.flush_pending(&mut pending, c, out);
                    self.stats.undefs += 1;
                    if !self.table.any_defined(name, c) && !self.table.mentioned(name) {
                        self.diag(
                            Severity::Note,
                            *pos,
                            c,
                            format!("#undef of never-defined macro {name}"),
                        );
                    }
                    let before = self.table.trims;
                    self.table.undef(name.clone(), c);
                    self.stats.trimmed_entries += self.table.trims - before;
                }
                RawItem::Include { tokens, pos } => {
                    self.flush_pending(&mut pending, c, out);
                    self.process_include(tokens, c, *pos, depth, out)?;
                }
                RawItem::Error { tokens, pos } => {
                    self.flush_pending(&mut pending, c, out);
                    let msg = spell(tokens);
                    self.stats.error_directives += 1;
                    if depth == 0 {
                        return Err(PpError {
                            pos: *pos,
                            message: format!("#error {msg}"),
                        });
                    }
                    self.diag(Severity::Error, *pos, c, format!("#error {msg}"));
                    self.poisoned = true;
                }
                RawItem::Warning { tokens, pos } => {
                    self.stats.warning_directives += 1;
                    let msg = spell(tokens);
                    self.diag(Severity::Warning, *pos, c, format!("#warning {msg}"));
                }
                RawItem::Pragma { tokens, pos } => {
                    let msg = spell(tokens);
                    self.diag(Severity::Note, *pos, c, format!("#pragma {msg}"));
                }
                RawItem::Line { tokens, pos } => {
                    let msg = spell(tokens);
                    self.diag(Severity::Note, *pos, c, format!("#line {msg}"));
                }
            }
        }
        self.flush_pending(&mut pending, c, out);
        Ok(())
    }

    fn process_include(
        &mut self,
        tokens: &[Token],
        c: &Cond,
        pos: SourcePos,
        depth: u64,
        out: &mut Vec<Element>,
    ) -> Result<(), PpError> {
        match parse_include_operand(tokens) {
            Some((name, system)) => self.include_one(&name, system, c, pos, depth, out),
            None => {
                // Computed include: expand, hoist, include per configuration.
                self.stats.computed_includes += 1;
                let elems: Vec<Element> = tokens
                    .iter()
                    .map(|t| Element::Token(PTok::new(t.clone())))
                    .collect();
                let expanded = self.expand_segment(elems, c);
                let had_cond = expanded
                    .iter()
                    .any(|e| matches!(e, Element::Conditional(_)));
                let flats = match self.hoist_elements(&expanded, c) {
                    Some(f) => f,
                    None => {
                        self.diag(
                            Severity::Warning,
                            pos,
                            c,
                            "computed include too variable; skipped".to_string(),
                        );
                        return Ok(());
                    }
                };
                if had_cond || flats.len() > 1 {
                    self.stats.includes_hoisted += 1;
                }
                let single = flats.len() == 1;
                let mut branches: Vec<Branch> = Vec::new();
                for (fc, toks) in flats {
                    let raw: Vec<Token> = toks.iter().map(|t| t.tok.clone()).collect();
                    let mut belems = Vec::new();
                    match parse_include_operand(&raw) {
                        Some((name, system)) => {
                            self.include_one(&name, system, &fc, pos, depth, &mut belems)?;
                        }
                        None => {
                            self.diag(
                                Severity::Warning,
                                pos,
                                &fc,
                                format!("malformed computed include: {}", spell(&raw)),
                            );
                        }
                    }
                    branches.push(Branch {
                        cond: fc,
                        elements: belems,
                    });
                }
                if single {
                    out.extend(branches.pop().map(|b| b.elements).unwrap_or_default());
                } else if !branches.is_empty() {
                    out.push(Element::Conditional(Conditional { branches }));
                }
                Ok(())
            }
        }
    }

    fn include_one(
        &mut self,
        name: &str,
        system: bool,
        c: &Cond,
        pos: SourcePos,
        depth: u64,
        out: &mut Vec<Element>,
    ) -> Result<(), PpError> {
        if self.file_stack.len() > self.opts.max_include_depth {
            self.diag(
                Severity::Error,
                pos,
                c,
                format!("include nesting too deep at {name}"),
            );
            return Ok(());
        }
        let including_dir = self
            .file_stack
            .last()
            .and_then(|f| f.rsplit_once('/').map(|(d, _)| d.to_string()))
            .unwrap_or_default();
        // Each probe asks the candidate's row, so resolution and the
        // load below see one read of the winning path. Failed probes
        // are negative dependencies: a file appearing at any of them
        // would shadow (or supply) this include, so warm memo
        // fingerprints must record them. Only tracked when the shared
        // cache is on — without it there is no memo to guard.
        let mut failed_probes = Vec::new();
        let resolved = resolve_include(
            name,
            system,
            &including_dir,
            &self.opts.include_paths,
            |p| self.view(p).is_some(),
            &mut failed_probes,
        );
        if self.shared.is_some() {
            self.unit_neg_deps.extend(failed_probes);
        }
        let Some(path) = resolved else {
            self.diag(
                Severity::Warning,
                pos,
                c,
                format!("include not found: {name}"),
            );
            return Ok(());
        };
        let cached = self.load_cached(&path)?;
        self.stats.includes += 1;
        *self.include_counts.entry(path.clone()).or_insert(0) += 1;
        // Guard fast path: skip files whose guard is definitely defined.
        if let Some(g) = &cached.guard {
            if self.table.definitely_defined(g, c) {
                return Ok(());
            }
        }
        // `#pragma once` (profile dialect quirk): configurations that
        // already included the file skip it; a reinclusion proceeds for
        // the not-yet-covered configurations, keeping the semantics
        // configuration-aware like the guard fast path above.
        if cached.pragma_once && self.opts.profile.pragma_once {
            let seen = self.pragma_once_files.get(&path).cloned();
            if let Some(prev) = &seen {
                if c.and_not(prev).is_false() {
                    return Ok(());
                }
            }
            let covered = match seen {
                Some(prev) => prev.or(c),
                None => c.clone(),
            };
            self.pragma_once_files.insert(path.clone(), covered);
        }
        if !self.processed_files.insert(path.clone()) {
            self.stats.reincluded_headers += 1;
        }
        self.file_stack.push(path.clone());
        let r = self.process_items(&cached.items, c, depth, out);
        self.file_stack.pop();
        r
    }
}

/// Parses a non-computed include operand: `"name"` or `<name>`.
/// True for identifier-free `#if`/`#elif` expression tests (`#if 0`,
/// `#if 1`): syntactically constant, so any branch they kill is a
/// deliberate toggle rather than a configuration-space accident.
fn test_is_constant(test: &RawTest) -> bool {
    match test {
        RawTest::Expr(toks) => !toks.iter().any(|t| matches!(t.kind, TokenKind::Ident)),
        _ => false,
    }
}

fn parse_include_operand(tokens: &[Token]) -> Option<(String, bool)> {
    match tokens.first() {
        Some(t) if t.kind == TokenKind::StringLit && tokens.len() == 1 => {
            let s = t.text();
            Some((s[1..s.len() - 1].to_string(), false))
        }
        Some(t) if t.is_punct(Punct::Lt) => {
            let mut name = String::new();
            for t in &tokens[1..] {
                if t.is_punct(Punct::Gt) {
                    return Some((name, true));
                }
                if t.ws_before && !name.is_empty() {
                    name.push(' ');
                }
                name.push_str(t.text());
            }
            None
        }
        _ => None,
    }
}

fn spell(tokens: &[Token]) -> String {
    tokens
        .iter()
        .map(|t| t.text().to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

fn count_conditionals(elements: &[Element]) -> u64 {
    elements
        .iter()
        .map(|e| match e {
            Element::Token(_) => 0,
            Element::Conditional(k) => {
                1 + k
                    .branches
                    .iter()
                    .map(|b| count_conditionals(&b.elements))
                    .sum::<u64>()
            }
        })
        .sum()
}
