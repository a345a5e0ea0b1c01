//! Parallel corpus driver: parse many compilation units across worker
//! threads, deterministically.
//!
//! # Threading model
//!
//! Every run is a **units × profiles grid**: task `t = p * n_units + u`
//! parses unit `u` under profile `p`, and a single-profile run is the
//! one-row grid under the options' own profile (`PpOptions::profile`).
//! The grid is scheduled as a **chunked queue**: one shared
//! [`AtomicUsize`] cursor over the task list, each worker claiming the
//! next run of unclaimed indices (see `chunk_size`) until the list is
//! exhausted. Chunking amortizes the cursor traffic over several tasks;
//! the chunks are small relative to the grid, so slow units still never
//! stall the queue behind a fixed pre-partition, no task is processed
//! twice, and profile rows interleave instead of running one after
//! another.
//!
//! There is **one scheduler with two hosts**. Every entry point builds
//! one batch and runs the same worker claim loop (memo probe, panic
//! firewall) and the same reassembly into per-profile reports; the
//! hosts differ only in where the worker threads come from.
//! [`process_corpus`] and [`process_corpus_profiles`] run transient
//! scoped threads over a borrowed tree; a [`CorpusRunner`] feeds the
//! same batches to a persistent pool.
//!
//! What is *shared* read-only across workers — the immutable artifact
//! layer, built once per process:
//!
//! - the file tree (`F: FileSystem + Sync`, borrowed as `&F` by
//!   [`process_corpus`]'s scoped workers, or held as `Arc<F>` by a
//!   [`CorpusRunner`]'s pooled workers — file contents are `Arc<str>`
//!   handed out by reference-count bump);
//! - the parse artifacts (`superc_csyntax::c_artifacts` is a `OnceLock`
//!   static): the grammar's LALR action/goto tables behind
//!   `Arc<ParseTables>`, the keyword/punctuator classification seed,
//!   and the context plug-in's production tables;
//! - the [`Options`] (plain data, cloned once per worker);
//! - the **shared preprocessing cache** (`superc_cpp::SharedCache`;
//!   every pool carries one, and only a one-shot run may turn it off
//!   with [`CorpusOptions::no_shared_cache`]): a map from a file's
//!   **content hash** to its frozen token stream, directive tree, and
//!   detected include guard, so each distinct file content is lexed
//!   once per *process* instead of once per *worker*. In front of it
//!   sit the per-generation **path rows**, the workers' only view of
//!   the tree: include resolution, header loads and memo probes all
//!   read a path through its row, so each path is read once per
//!   generation, by one worker. Content keying is also the
//!   invalidation story: an edited file hashes to a new key and misses
//!   naturally, which is what lets a pooled runner serve **warm
//!   re-runs** over an edited tree (see [`CorpusOptions::warm`] and the
//!   unit result memo below).
//!
//! What is *per-worker*, created inside each thread and never shared —
//! the mutable layer: the [`CondCtx`] (BDD manager or SAT state), the
//! symbol interner, the preprocessor's macro table and L1 header cache,
//! the conditional-expression memo, the reusable `CParser` engine state,
//! and all statistics. Workers communicate only through the cursor, the
//! shared cache's sharded `RwLock`s (one row lookup per include probe
//! and header load, one artifact probe per L1 miss), and their return
//! values.
//!
//! A worker holds that mutable layer as one **tool per distinct
//! [`Profile`]** it has run, built on first use and keyed by the whole
//! profile (name, built-ins, policies): two profiles that share a name
//! but differ in built-ins get separate tools. A scoped worker drops
//! its tools when the call returns. A pooled worker keeps them across
//! batches: its L1 header cache, BDD manager, interner and parser engine
//! stay warm, so repeated runs over the same tree — benchmark reps, a
//! watch loop, a test matrix — skip the spin-up, and a single-profile
//! batch and a grid row under the same profile share one tool.
//!
//! # Incremental warm re-runs
//!
//! A pooled runner may legitimately see the file tree **edited between
//! batches** (never during one). Coherence is generation-based: every
//! batch starts a new shared-cache generation, which drops the path row
//! of every path that may have changed, so those are read afresh; each
//! worker's L1 entries are checked against their row's hash, and
//! unchanged files keep their artifacts while edited ones miss into a
//! lex of the row's bytes. The batch asks its tree what changed
//! ([`FileSystem::take_changes`]): a tree that keeps a log of its
//! writes (a resolver-less `DriverFs`) names the edited paths, and only
//! those rows go; a tree that cannot tell (`DiskFs`, a resolver) loses
//! every row, and every path is read again on first touch.
//!
//! On top of that, [`CorpusOptions::warm`] enables the pool's **unit
//! result memo**: each completed unit is stored under its path, an
//! options/profile signature, and its include-closure dependency
//! fingerprint (the sorted `(path, content hash)` set the preprocessor
//! observed, plus the failed include probes). A later warm batch
//! revalidates the fingerprint — pure path-row lookups, no lexing — and
//! on a match replays the stored [`UnitReport`], shared rather than
//! copied, without scheduling any preprocessing, parsing, or linting.
//! The runner owns the memo, and only its calling thread reads or
//! writes it. Before dispatch it replays every entry valid in the
//! previous batch whose fingerprint names no path of the batch's change
//! set, so a served request's workers see only what its edit touched,
//! and a request with no edit wakes none. Every other task goes to a
//! worker with its entry's fingerprint, which the worker probes through
//! the path rows; after the join the calling thread stamps the proofs,
//! stores the fingerprints of recomputed units, and drops entries no
//! batch has proven for [`MEMO_MAX_AGE`] generations. Replayed reports
//! are byte-identical to what a cold run over the same tree would
//! produce (that is gated in `tests/warm.rs`, `bench_snapshot`, and
//! verify.sh); only the `schedule` gauges and `memo_hit` differ, and
//! [`UnitReport::view`] leaves both out. Units are **not** memoized when
//! they tripped a resource budget, failed, or panicked.
//!
//! # Determinism
//!
//! Each unit's result depends only on that unit's input: the FMLR engine
//! orders work by `(position, rank, seq)` — never by allocation order or
//! condition-handle identity — and semantic condition queries are
//! pure. Per-unit reports are keyed by input index and reassembled in
//! input order after the join, and every merged counter is a sum or max
//! (commutative + associative), so [`CorpusReport::units`] and the merged
//! preprocessor/parser counters are **byte-identical for any worker
//! count or schedule**.
//!
//! Which counters may differ between two runs of the same input is
//! declared once, with each counter's class, beside each stats struct
//! (see [`superc_util::counters`]): `behavior` counters never differ;
//! `mode` counters (`fused_tokens`, `merge_probes`, `fastpath_*`) differ
//! only under `--no-fastpath`; `schedule` gauges (the cache, memo, BDD
//! and condition-context counters) depend on which worker got somewhere
//! first; `timing` counters are elapsed time. Condition *display
//! strings* depend on the order a worker's manager first met each
//! variable, so reports carry canonical renderings and
//! configuration-restricted unparses instead. [`UnitReport::view`] is
//! the one comparison view — counters projected onto the kept classes,
//! timings and raw captures cleared — and [`CorpusReport::check_same`]
//! compares two runs through it: every determinism matrix
//! (`tests/parallel.rs` for `--jobs 1/2/8`, and the cache, warm and
//! fast-path matrices) uses it.

use std::collections::BTreeMap;
use std::hash::BuildHasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Once};
use std::time::{Duration, Instant};

use superc_analyze::portability::{diff_profiles, sort_records, PortEntry, PortKind};
use superc_analyze::render::canonical;
use superc_bdd::BddStats;
use superc_cond::{CondBackend, CondCtx, CondStats};
use superc_cpp::{FileSystem, PpStats, Profile, Severity, SharedCache};
use superc_csyntax::unparse_config;
use superc_fmlr::{BudgetTrip, ParseOutcome, ParseStats};
use superc_util::counters::{project, Class};
use superc_util::{FastMap, FxBuildHasher};

use crate::{Options, ProcessedUnit, SuperC};

/// How many worker threads to use and what to capture per unit.
#[derive(Clone, Debug, Default)]
pub struct CorpusOptions {
    /// Worker threads; `0` means [`default_jobs`] (available parallelism).
    pub jobs: usize,
    /// Optional per-unit text captures (off by default — they cost
    /// allocation proportional to the corpus).
    pub capture: Capture,
    /// Run the variability lints over every unit (`None` = off). Lint
    /// records render conditions canonically, so they *are* part of the
    /// determinism contract, unlike raw condition display strings.
    pub lint: Option<superc_analyze::LintOptions>,
    /// Run a one-shot call ([`process_corpus`],
    /// [`process_corpus_profiles`]) without the process-wide shared
    /// preprocessing cache (the L2 of the two-level header cache; see
    /// `superc_cpp::SharedCache`): every tool reads the tree through
    /// `FileSystem::read` and lexes every header itself. The cache only
    /// changes *which worker pays* the lexing cost for a shared header,
    /// never the output, so this is the reference every cache on/off
    /// matrix compares against, not a correctness knob. A
    /// [`CorpusRunner`] always carries the cache and ignores it.
    pub no_shared_cache: bool,
    /// Test hook for the per-unit panic firewall: units whose path is
    /// listed here panic inside the worker instead of being processed,
    /// exercising the `catch_unwind` + tool-rebuild recovery path that
    /// real poisoned units would take.
    pub inject_panic: Vec<String>,
    /// Capture each unit's **portability slice** — the plain-data
    /// [`PortEntry`] rows the cross-profile differ aligns (see
    /// `superc_analyze::portability`). [`process_corpus_profiles`]
    /// forces this on; it is available standalone for tests.
    pub portability: bool,
    /// Warm re-run mode (pooled runners only): consult the unit result
    /// memo before scheduling a worker, so units whose include-closure
    /// fingerprint and options signature match a previous batch replay
    /// their cached [`UnitReport`] without any preprocessing, parsing,
    /// or linting. Output is byte-identical to a cold run over the same
    /// tree. Ignored by [`process_corpus`] (its memo would never carry
    /// across calls).
    pub warm: bool,
}

/// Per-unit text captures for testing and inspection.
#[derive(Clone, Debug, Default, Hash)]
pub struct Capture {
    /// Capture the preprocessed unit rendered as `#if`-annotated text.
    ///
    /// Note: conditional rendering depends on per-worker variable order,
    /// so this text is *not* part of the determinism contract.
    pub preprocessed: bool,
    /// Capture the AST (with static choice nodes) rendered as text.
    /// Schedule-dependent for the same reason as `preprocessed`.
    pub ast: bool,
    /// For each listed configuration (a set of enabled `defined(...)`
    /// variables), capture the choice-node AST restricted to it via
    /// [`unparse_config`]. These strings *are* deterministic.
    pub unparse_configs: Vec<Vec<String>>,
}

/// Stack size of every spawned corpus worker: the 8 MiB a Linux main
/// thread gets, so a unit that parses alone on the main thread parses
/// the same on a worker. Stacks are committed lazily, so memory use
/// does not grow.
const WORKER_STACK_BYTES: usize = 8 << 20;

/// A corpus worker thread with [`WORKER_STACK_BYTES`] of stack.
fn worker_thread() -> std::thread::Builder {
    std::thread::Builder::new().stack_size(WORKER_STACK_BYTES)
}

/// The worker count used when [`CorpusOptions::jobs`] is `0`.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A structured record of a unit the pipeline could not process: a
/// fatal preprocessor error, a panic caught by the per-unit firewall, or
/// a unit no worker answered. One poisoned unit becomes one of these
/// rows instead of taking down a worker (and with it the whole corpus
/// run).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitFailure {
    /// Pipeline stage that failed: `"preprocess"` for fatal preprocessor
    /// errors, `"panic"` for the firewall, `"worker"` when no worker
    /// answered the unit: none could start, or the one that claimed it
    /// died outside the firewall.
    pub stage: String,
    /// The error or panic message (deterministic for a given input).
    pub message: String,
}

/// Renders a budget trip for a [`UnitReport`], with the presence
/// condition in *canonical* form so the string is byte-identical across
/// worker counts and schedules (raw condition display is not).
pub fn render_trip(trip: &BudgetTrip) -> String {
    format!("{} under {}", trip.describe(), canonical(&trip.cond))
}

/// The outcome of one compilation unit, reduced to thread-portable data
/// (the `Rc`-based AST and conditions stay inside the worker).
#[derive(Clone, Debug, PartialEq)]
pub struct UnitReport {
    /// The unit's path, as given.
    pub path: String,
    /// Source bytes lexed (main file plus headers, with repeats).
    pub bytes: u64,
    /// Preprocessor counters.
    pub pp: PpStats,
    /// Parser counters.
    pub parse: ParseStats,
    /// Per-phase wall-clock nanoseconds: lexing, preprocessing, parsing.
    pub phase_nanos: [u64; 3],
    /// Did some configuration accept?
    pub parsed: bool,
    /// Did a resource budget trip ([`ParseOutcome::Partial`])? The
    /// degraded configurations are in `degradations`.
    pub partial: bool,
    /// Rendered budget trips (canonical presence conditions; see
    /// [`render_trip`]), deterministic across schedules for the
    /// deterministic budgets.
    pub degradations: Vec<String>,
    /// Static choice nodes in the AST, counted once per path through its
    /// shared subtrees (`SemVal::choice_count`). The engine's
    /// `ParseStats::choice_nodes` counts the ones it built instead.
    pub choice_nodes: usize,
    /// Rendered per-configuration parse errors.
    pub errors: Vec<String>,
    /// Rendered preprocessor warnings and errors, each
    /// `[Severity] file:line:col: message (config <canonical>)`; notes
    /// are left out.
    pub diagnostics: Vec<String>,
    /// The configurations that parse, in canonical form; `None` when
    /// none does.
    pub accepted: Option<String>,
    /// Lint findings, when [`CorpusOptions::lint`] is set (sorted and
    /// deterministic; see `superc_analyze`).
    pub lints: Vec<superc_analyze::Record>,
    /// The unit's portability slice, when [`CorpusOptions::portability`]
    /// is set (plain data, canonical condition strings — deterministic).
    pub portability: Vec<PortEntry>,
    /// Fatal preprocessor failure, if the unit never reached the parser.
    pub fatal: Option<String>,
    /// Structured failure row (fatal preprocessor error or caught
    /// panic); `Some` exactly when the unit produced no parse at all.
    pub failure: Option<UnitFailure>,
    /// `#if`-annotated preprocessed text, when captured.
    pub preprocessed: Option<String>,
    /// Rendered AST, when captured (and the unit parsed).
    pub ast_text: Option<String>,
    /// AST restricted to each requested configuration, when captured
    /// (aligned with [`Capture::unparse_configs`]; empty string when the
    /// unit has no AST).
    pub unparses: Vec<String>,
    /// This report was replayed from the unit result memo (warm re-run)
    /// rather than recomputed. Outside the determinism contract — a
    /// warm run and a cold run differ only here and in the cache
    /// gauges.
    pub memo_hit: bool,
}

/// Corpus-level rollup: per-unit reports in **input order** plus merged
/// counters.
#[derive(Clone, Debug)]
pub struct CorpusReport {
    /// One report per input unit, in input order. Shared: a warm batch
    /// hands out the unit memo's stored report for every unit it
    /// replays, so an unchanged unit's report is the same allocation
    /// from one batch to the next (`Arc::ptr_eq`).
    pub units: Vec<Arc<UnitReport>>,
    /// Preprocessor counters summed over units.
    pub pp: PpStats,
    /// Parser counters summed over units.
    pub parse: ParseStats,
    /// Condition-context counters summed over workers.
    pub cond: CondStats,
    /// BDD counters summed over workers (`None` under the SAT backend).
    pub bdd: Option<BddStats>,
    /// Worker threads actually used.
    pub workers: usize,
    /// End-to-end wall clock for the whole corpus.
    pub wall: Duration,
    /// Units replayed from the unit result memo (warm re-runs only).
    /// Like the shared-cache gauges, this measures work *saved*: a
    /// `schedule` row of the `--stats` table.
    pub unit_memo_hits: u64,
    /// Units that consulted the memo and had to be recomputed (edited
    /// closure, options change, or first sight).
    pub unit_memo_misses: u64,
    /// Files whose bytes were read and content-hashed during this run
    /// (hash-memo misses; at most once per file per batch).
    pub files_rehashed: u64,
}

impl CorpusReport {
    /// Units that produced an AST.
    pub fn parsed_units(&self) -> usize {
        self.units.iter().filter(|u| u.parsed).count()
    }

    /// Units that failed fatally in the preprocessor.
    pub fn fatal_units(&self) -> usize {
        self.units.iter().filter(|u| u.fatal.is_some()).count()
    }

    /// Units degraded by a resource budget ([`ParseOutcome::Partial`]).
    pub fn partial_units(&self) -> usize {
        self.units.iter().filter(|u| u.partial).count()
    }

    /// Units with a structured [`UnitFailure`] row (fatal error or
    /// firewalled panic).
    pub fn failed_units(&self) -> usize {
        self.units.iter().filter(|u| u.failure.is_some()).count()
    }

    /// Total lint findings across units (0 when linting was off).
    pub fn lint_count(&self) -> usize {
        self.units.iter().map(|u| u.lints.len()).sum()
    }

    /// Corpus throughput in output tokens per wall-clock second.
    pub fn tokens_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.pp.output_tokens as f64 / secs
        }
    }

    /// Compares this run with `other`, a run of the same input, unit by
    /// unit through [`UnitReport::view`] with counters of the `keep`
    /// classes. `Err` shows the first unit that differs. Runs that may
    /// differ only in schedule (jobs, cache, warm replay) keep
    /// `[Class::Behavior, Class::Mode]`; a fast-path on/off pair keeps
    /// `[Class::Behavior]`. The merged counters and
    /// [`behavior_counters`](Self::behavior_counters) are functions of
    /// the units, so they agree whenever every unit does.
    pub fn check_same(&self, other: &CorpusReport, keep: &[Class]) -> Result<(), String> {
        if self.units.len() != other.units.len() {
            return Err(format!(
                "{} units vs {}",
                self.units.len(),
                other.units.len()
            ));
        }
        for (a, b) in self.units.iter().zip(&other.units) {
            let (a, b) = (a.view(keep), b.view(keep));
            if a != b {
                return Err(format!("{}:\n left: {a:#?}\nright: {b:#?}", a.path));
            }
        }
        Ok(())
    }

    /// A report over `units` with their counters merged and every gauge
    /// outside them zero.
    fn new(units: Vec<Arc<UnitReport>>, workers: usize, wall: Duration) -> CorpusReport {
        let mut pp = PpStats::default();
        let mut parse = ParseStats::default();
        for u in &units {
            pp.merge(&u.pp);
            parse.merge(&u.parse);
        }
        CorpusReport {
            units,
            pp,
            parse,
            cond: CondStats::default(),
            bdd: None,
            workers,
            wall,
            unit_memo_hits: 0,
            unit_memo_misses: 0,
            files_rehashed: 0,
        }
    }

    /// Canonical rendering of a fixed subset of the `behavior` counters.
    ///
    /// Two runs of the same corpus — any `jobs`, any interleaving, fast
    /// path on or off — produce byte-identical strings, and
    /// `tests/counters.rs` pins the exact bytes. Schedule gauges and
    /// timings are deliberately absent.
    pub fn behavior_counters(&self) -> String {
        format!(
            "units={} parsed={} fatal={} partial={} failed={} \
             output_tokens={} \
             output_conditionals={} conditionals_hoisted={} shifts={} \
             reduces={} forks={} merges={} choice_nodes={} \
             reclassify_forks={} budget_trips={} budget_killed={} \
             lints={}",
            self.units.len(),
            self.parsed_units(),
            self.fatal_units(),
            self.partial_units(),
            self.failed_units(),
            self.pp.output_tokens,
            self.pp.output_conditionals,
            self.pp.conditionals_hoisted,
            self.parse.shifts,
            self.parse.reduces,
            self.parse.forks,
            self.parse.merges,
            self.parse.choice_nodes,
            self.parse.reclassify_forks,
            self.parse.budget_trips,
            self.parse.budget_killed,
            self.lint_count(),
        )
    }
}

/// Parses every unit of a corpus, fanning out over worker threads.
///
/// `units` are paths into `fs`. The report's `units` come back in input
/// order regardless of scheduling; see the module docs for the
/// determinism contract. `jobs = 0` uses [`default_jobs`], and the
/// worker count is additionally capped at the unit count.
///
/// # Examples
///
/// ```
/// use superc::corpus::{process_corpus, CorpusOptions};
/// use superc::{MemFs, Options};
///
/// let fs = MemFs::new()
///     .file("a.c", "int a;\n")
///     .file("b.c", "#ifdef CONFIG_B\nint b;\n#endif\n");
/// let units = ["a.c".to_string(), "b.c".to_string()];
/// let report = process_corpus(&fs, &units, &Options::default(), &CorpusOptions::default());
/// assert_eq!(report.parsed_units(), 2);
/// assert_eq!(report.units[1].path, "b.c"); // input order, not finish order
/// ```
pub fn process_corpus<F: FileSystem + Sync>(
    fs: &F,
    units: &[String],
    options: &Options,
    copts: &CorpusOptions,
) -> CorpusReport {
    let row = vec![options.pp.profile.clone()];
    run_scoped(fs, units, options, row, copts.clone())
        .runs
        .swap_remove(0)
}

/// Cursor claim granularity: a worker claims this many consecutive
/// units per atomic increment. One claim per unit is wasted traffic on
/// big corpora; claims that are too coarse re-create the pre-partition
/// stall this queue exists to avoid. A target of ~8 claims per worker
/// keeps the tail balanced, and a single worker just takes the whole
/// list in one claim.
fn chunk_size(n_units: usize, workers: usize) -> usize {
    if workers <= 1 {
        n_units.max(1)
    } else {
        (n_units / (workers * 8)).clamp(1, 32)
    }
}

/// A pooled runner's unit result memo behind warm re-runs: completed
/// [`UnitReport`]s keyed by `(options signature, unit path)`, each
/// guarded by the include-closure dependency fingerprint recorded when
/// it was produced. A probe revalidates every dependency's current
/// content hash (cheap: per-generation path-row lookups) and replays
/// the stored report only on a full match, so any edit inside the
/// unit's closure — or a change to anything the signature covers —
/// falls through to a real run. Entries overwrite on re-store, so an
/// edited unit's fresh result replaces its stale one. A replay shares
/// the stored report (an `Arc` clone); only the store copies it.
///
/// Fingerprints carry both halves of include resolution: the files
/// that **were** read (path, content hash) and the probe paths that
/// **failed** (`Preprocessor::unit_neg_deps`). A probe misses when any
/// positive dependency's hash changed *or* any formerly-absent probe
/// path now exists — creating a file that shadows a header earlier on
/// the include path invalidates exactly the units whose resolution
/// walked past that path.
///
/// **One owner.** The [`CorpusRunner`] owns the memo, and only its
/// calling thread reads or writes it. Before dispatch it replays what
/// the batch's change set leaves valid ([`UnitMemo::sort_out`]) and
/// hands every other task its entry's immutable [`Stored`] half; a
/// worker probes that through the path rows and answers with the
/// stored report or a recomputed one plus the entry to store. After
/// the join the calling thread stamps proofs, stores, and evicts.
///
/// **Sorted out before dispatch.** Each entry records the generation in
/// which it was last proven valid. When the tree reported its changes
/// since the previous generation and the entry was valid in that
/// generation, the entry is still valid unless one of its dependency
/// paths (positive or negative) is among the changed ones: a lookup of
/// each changed path in the sorted fingerprint, O(|changed| · log
/// |deps|) per task, and a served edit changes about one path. A small
/// Bloom filter of the fingerprint's paths answers first, so nearly
/// every entry the change does not name is ruled out without reading
/// its path strings. An entry that sat out a batch missed that batch's
/// change set, so it takes the full probe.
///
/// **Bounded by age.** After every warm batch, entries not proven in
/// the last [`MEMO_MAX_AGE`] generations are dropped.
#[derive(Default)]
struct UnitMemo {
    /// Entries by options signature, then unit path.
    entries: FastMap<u64, FastMap<String, MemoEntry>>,
}

/// How many generations a unit memo entry may go unproven before the
/// end of a warm batch drops it. Every batch proves the entries of the
/// units it names under its options, so only entries no batch has named
/// for this long go: a unit dropped from the requests, or an option set
/// (lint options, captures, a profile grid) no longer asked for. A
/// served session that names the same units every request, as an
/// editor's lint-all does, never evicts, and no benchmark or
/// verification workload runs a pool for 64 batches with a set of
/// entries left out.
pub const MEMO_MAX_AGE: u64 = 64;

struct MemoEntry {
    /// What the entry stores; a worker that probes it gets a share.
    stored: Arc<Stored>,
    /// The latest generation in which the entry was proven valid: by
    /// its store, a worker's probe, or the sort-out.
    proven: u64,
}

/// The immutable half of a memo entry: the fingerprint a probe checks
/// and the report a replay shares.
struct Stored {
    /// Sorted `(path, content hash)` include closure at store time.
    deps: Vec<(String, u64)>,
    /// Sorted failed include-resolution probe paths at store time: the
    /// entry is only valid while every one of them stays absent.
    neg_deps: Vec<String>,
    /// Every path of `deps` and `neg_deps`.
    sketch: PathSketch,
    /// The stored report, with `memo_hit` set; every replay shares it.
    report: Arc<UnitReport>,
}

/// Does any path of the sorted `changed` set appear in a fingerprint:
/// its sorted `deps` (by path) or its sorted `neg_deps`? Each changed
/// path is looked up by binary search, so the cost follows the change
/// set, not the fingerprint.
pub(crate) fn touches(deps: &[(String, u64)], neg_deps: &[String], changed: &[String]) -> bool {
    changed.iter().any(|c| {
        deps.binary_search_by(|(p, _)| p.as_str().cmp(c)).is_ok()
            || neg_deps.binary_search(c).is_ok()
    })
}

/// A 512-bit Bloom filter over a fingerprint's paths, two bits per
/// path. A path whose bits are not both set is not in the fingerprint;
/// one whose bits are may be. With a kernel unit's hundred-odd paths,
/// about one other path in seven gets a "may".
#[derive(Default)]
struct PathSketch([u64; 8]);

impl PathSketch {
    /// The two bits `path` sets: two 9-bit slices of the top of its
    /// FxHash, whose multiply mixes the high bits best.
    fn bits(path: &str) -> [usize; 2] {
        let h = FxBuildHasher::default().hash_one(path);
        [(h >> 55) as usize, (h >> 46) as usize & 511]
    }

    fn insert(&mut self, path: &str) {
        for b in PathSketch::bits(path) {
            self.0[b / 64] |= 1 << (b % 64);
        }
    }

    /// Can a path with these [`PathSketch::bits`] be in the set?
    fn may_hold(&self, bits: [usize; 2]) -> bool {
        bits.iter().all(|&b| self.0[b / 64] >> (b % 64) & 1 == 1)
    }
}

impl Stored {
    /// The entry to store for a unit a worker just recomputed, from the
    /// fingerprint its preprocessor observed. `None` for units with no
    /// recorded fingerprint, budget-degraded units (wall-clock budgets
    /// make their outcome schedule-dependent), and failed or panicked
    /// units — those recompute every time.
    fn new(deps: Vec<(String, u64)>, neg_deps: Vec<String>, report: &UnitReport) -> Option<Stored> {
        if deps.is_empty()
            || report.partial
            || report.parse.budget_trips > 0
            || report.failure.is_some()
        {
            return None;
        }
        let mut sketch = PathSketch::default();
        for path in deps.iter().map(|(p, _)| p).chain(&neg_deps) {
            sketch.insert(path);
        }
        Some(Stored {
            deps,
            neg_deps,
            sketch,
            report: Arc::new(UnitReport {
                memo_hit: true,
                ..report.clone()
            }),
        })
    }

    /// [`touches`] for this fingerprint, given the changed paths'
    /// [`PathSketch::bits`]: the sketch rules a change out, and a "may"
    /// is settled by path.
    fn touched_by(&self, changed: &[String], bits: &[[usize; 2]]) -> bool {
        bits.iter().any(|&b| self.sketch.may_hold(b))
            && touches(&self.deps, &self.neg_deps, changed)
    }

    /// The full probe: every recorded dependency still has its recorded
    /// content hash and every recorded failed probe path is still
    /// absent.
    fn revalidates(&self, dep_hash: &dyn Fn(&str) -> Option<u64>) -> bool {
        // A formerly-failed probe that now resolves means include
        // resolution would take a different path (a shadowing header
        // appeared): the stored report is stale.
        self.deps.iter().all(|(p, h)| dep_hash(p) == Some(*h))
            && self.neg_deps.iter().all(|p| dep_hash(p).is_none())
    }
}

impl UnitMemo {
    /// The memo's share of a warm batch in generation `gen`, before
    /// dispatch: `sigs` holds one options signature per profile row. With
    /// a change set (`changed`, sorted), each task whose entry was proven
    /// in the previous generation and whose fingerprint names no changed
    /// path is still valid, so its stored report goes straight into
    /// `slots[t]`, stamped with `gen`, without a probe. Returns the tasks
    /// left for the workers, in grid order, each with its entry for the
    /// worker to probe.
    fn sort_out(
        &mut self,
        units: &[String],
        sigs: &[u64],
        changed: Option<&[String]>,
        gen: u64,
        slots: &mut [Option<Arc<UnitReport>>],
    ) -> Vec<Task> {
        let bits: Vec<[usize; 2]> = changed
            .unwrap_or_default()
            .iter()
            .map(|c| PathSketch::bits(c))
            .collect();
        let mut rest = Vec::new();
        for (p, sig) in sigs.iter().enumerate() {
            let mut row = self.entries.get_mut(sig);
            for (u, path) in units.iter().enumerate() {
                let t = p * units.len() + u;
                match row.as_mut().and_then(|row| row.get_mut(path)) {
                    Some(e)
                        if e.proven + 1 == gen
                            && changed.is_some_and(|c| !e.stored.touched_by(c, &bits)) =>
                    {
                        e.proven = gen;
                        slots[t] = Some(Arc::clone(&e.stored.report));
                    }
                    e => rest.push((t, path.clone(), e.map(|e| Arc::clone(&e.stored)))),
                }
            }
        }
        rest
    }

    /// Stamps the entry a worker's probe proved valid in generation `gen`.
    fn prove(&mut self, sig: u64, path: &str, gen: u64) {
        if let Some(e) = self.entries.get_mut(&sig).and_then(|row| row.get_mut(path)) {
            e.proven = gen;
        }
    }

    /// Stores a unit recomputed in generation `gen`.
    fn store(&mut self, sig: u64, path: &str, stored: Stored, gen: u64) {
        let entry = MemoEntry {
            stored: Arc::new(stored),
            proven: gen,
        };
        self.entries
            .entry(sig)
            .or_default()
            .insert(path.to_string(), entry);
    }

    /// Drops the entries not proven in the last [`MEMO_MAX_AGE`]
    /// generations, as of generation `gen`. Returns the oldest proof
    /// left (`gen` if none): stamps only grow and new entries start at
    /// their batch's generation, so nothing can fall due before that
    /// proof does.
    fn evict_unproven(&mut self, gen: u64) -> u64 {
        let mut oldest = gen;
        for row in self.entries.values_mut() {
            row.retain(|_, e| {
                let keep = gen - e.proven < MEMO_MAX_AGE;
                if keep {
                    oldest = oldest.min(e.proven);
                }
                keep
            });
        }
        self.entries.retain(|_, row| !row.is_empty());
        oldest
    }
}

/// The options/profile signature a memo entry is stored under: an
/// FxHash of everything that can change a unit's output — the pool's
/// options (backend, parser config with its fast path and budgets,
/// preprocessor options with defines, include paths, fused lexing and
/// single-config mode, resource budgets) under the row's `profile`, and
/// the batch's capture, lint, portability and panic-injection options.
/// Two batches whose signatures match would produce byte-identical
/// reports for an unchanged unit. The pool's own profile is hashed too;
/// it is the same for every batch of a pool.
fn options_sig(options: &Options, profile: &Profile, copts: &CorpusOptions) -> u64 {
    FxBuildHasher::default().hash_one((
        options,
        profile,
        &copts.capture,
        &copts.lint,
        copts.portability,
        &copts.inject_panic,
    ))
}

/// One task a worker runs: its grid id, its unit's path, and on a warm
/// batch the unit's memo entry (if any), which the worker probes first.
type Task = (usize, String, Option<Arc<Stored>>);

/// Every task of the `units × rows` grid, in grid order, with no memo
/// entry to probe.
fn every_task(units: &[String], rows: usize) -> Vec<Task> {
    (0..units.len() * rows)
        .map(|t| (t, units[t % units.len()].clone(), None))
        .collect()
}

/// One run over the `units × profiles` task grid, shared by every worker
/// of the run: task `t = p * n_units + u` parses unit `u` under
/// `profiles[p]`. The workers claim `chunk` consecutive entries of
/// `tasks` per `cursor` increment: every task of the grid, or the ones
/// the calling thread could not replay itself.
struct Batch {
    /// Units per profile row.
    n_units: usize,
    /// The tasks left for the workers, in grid order.
    tasks: Vec<Task>,
    profiles: Vec<Profile>,
    copts: CorpusOptions,
    /// Workers running this batch: the requested count, capped at the
    /// task count — and none when the calling thread answered every task.
    workers: usize,
    cursor: AtomicUsize,
    chunk: usize,
}

impl Batch {
    /// A batch over the grid of `n_units` units × `profiles` whose
    /// workers run `tasks`.
    fn new(
        n_units: usize,
        profiles: Vec<Profile>,
        copts: CorpusOptions,
        jobs: usize,
        tasks: Vec<Task>,
    ) -> Batch {
        let n_tasks = n_units * profiles.len();
        let workers = if tasks.is_empty() && n_tasks > 0 {
            0
        } else {
            jobs.min(tasks.len()).max(1)
        };
        Batch {
            n_units,
            chunk: chunk_size(tasks.len(), workers),
            tasks,
            profiles,
            copts,
            workers,
            cursor: AtomicUsize::new(0),
        }
    }

    /// Reassembles the grid's reports into one [`CorpusReport`] per
    /// profile, each in unit input order: `slots` holds the tasks the
    /// calling thread replayed, the workers' outputs fill the rest, and
    /// a task no worker answered — none could start, or the one that
    /// claimed it died outside the panic firewall — gets a `"worker"`
    /// failure row. Every task was answered exactly once and every
    /// merged counter is a sum or max, so the result is
    /// schedule-independent. The per-profile preprocessor/parser
    /// counters are exact sums over that profile's units; the grid-wide
    /// gauges — context stats (a worker's tools serve every row), `memo`
    /// hits and misses and `files_rehashed` — land on profile 0's run
    /// (they are outside the determinism contract either way). A batch
    /// that dispatched no worker reports `workers` 0 and empty context
    /// gauges (`cond` all zero, `bdd` `None`): no worker reported any.
    fn assemble(
        &self,
        mut slots: Vec<Option<Arc<UnitReport>>>,
        outputs: Vec<WorkerOutput>,
        wall: Duration,
        memo: (u64, u64),
        files_rehashed: u64,
    ) -> ProfilesReport {
        let mut cond = CondStats::default();
        let mut bdd: Option<BddStats> = None;
        for out in outputs {
            for (t, report) in out.units {
                // Each task is in one chunk, claimed once, and absent from
                // the calling thread's replays.
                debug_assert!(slots[t].is_none(), "task {t} answered twice");
                slots[t] = Some(report);
            }
            cond.merge(&out.cond);
            if let Some(b) = out.bdd {
                bdd.get_or_insert_with(BddStats::default).merge(&b);
            }
        }
        for (t, path, _) in &self.tasks {
            slots[*t].get_or_insert_with(|| {
                let lost = "no corpus worker answered this unit";
                Arc::new(UnitReport::failed(path, "worker", lost))
            });
        }
        let mut slots = slots.into_iter();
        let runs = (0..self.profiles.len())
            .map(|p| {
                let units: Vec<Arc<UnitReport>> = (&mut slots)
                    .take(self.n_units)
                    // Cannot fire: a task the calling thread did not
                    // replay is in `tasks`, filled just above.
                    .map(|s| s.expect("every task answered"))
                    .collect();
                let run = CorpusReport::new(units, self.workers, wall);
                if p > 0 {
                    return run;
                }
                CorpusReport {
                    cond,
                    bdd,
                    unit_memo_hits: memo.0,
                    unit_memo_misses: memo.1,
                    files_rehashed,
                    ..run
                }
            })
            .collect();
        ProfilesReport {
            profiles: self.profiles.iter().map(|p| p.name.clone()).collect(),
            runs,
            workers: self.workers,
            wall,
        }
    }
}

/// What one worker hands back from one batch: its task-indexed reports
/// (a memo replay is the entry's own report, with `memo_hit` set), the
/// memo entries to store for the units it recomputed in a warm batch,
/// and the condition-context gauges of all its tools.
#[derive(Default)]
struct WorkerOutput {
    units: Vec<(usize, Arc<UnitReport>)>,
    stored: Vec<(usize, Stored)>,
    cond: CondStats,
    bdd: Option<BddStats>,
}

/// One worker's mutable layer: a tool per distinct [`Profile`] it has
/// run, each over the shared tree and attached to the shared L2 cache.
/// `G` is `&F` for a scoped worker and `Arc<F>` for a pooled one.
struct Worker<G: FileSystem> {
    options: Options,
    fs: G,
    shared: Option<Arc<SharedCache>>,
    tools: Vec<(Profile, SuperC<G>)>,
}

impl<G: FileSystem + Clone> Worker<G> {
    fn new(options: Options, fs: G, shared: Option<Arc<SharedCache>>) -> Self {
        Worker {
            options,
            fs,
            shared,
            tools: Vec::new(),
        }
    }

    /// Builds a fresh tool for `profile`: the worker's options under
    /// that profile, attached to the shared L2 cache if there is one.
    fn build(&self, profile: &Profile) -> SuperC<G> {
        let mut options = self.options.clone();
        options.pp.profile = profile.clone();
        let mut tool = SuperC::new(options, self.fs.clone());
        if let Some(cache) = &self.shared {
            tool.set_shared_cache(Arc::clone(cache));
        }
        tool
    }

    /// The index of the tool for `profile`, built on first use. Tools
    /// are keyed by the whole profile, not its name: two profiles that
    /// share a name may still differ in built-ins.
    fn tool_for(&mut self, profile: &Profile) -> usize {
        if let Some(i) = self.tools.iter().position(|(p, _)| p == profile) {
            return i;
        }
        let tool = self.build(profile);
        self.tools.push((profile.clone(), tool));
        self.tools.len() - 1
    }

    /// The claim loop: pull chunks of tasks off the batch's cursor until
    /// its task list is exhausted, firewalling each one.
    ///
    /// A task handed a memo entry (a pooled warm re-run) probes it
    /// first through the path rows: a valid entry replays its stored
    /// report and skips the pipeline entirely. The probe reads the
    /// tree, so it runs inside the firewall with the pipeline. On a warm
    /// batch each recomputed unit hands back the entry to store, with
    /// the include-closure fingerprint the preprocessor just observed.
    /// The worker never touches the memo itself.
    ///
    /// On a caught panic the tool may hold arbitrary mid-unit state, so
    /// that profile's tool is rebuilt — only the **mutable layer** (BDD
    /// manager, interner, macro table, L1 cache, engine state); the
    /// shared artifacts and the L2 cache survive untouched.
    fn run(&mut self, batch: &Batch) -> WorkerOutput {
        let n_tasks = batch.tasks.len();
        // Each row resolves to its tool once per batch, on first claim.
        let mut rows: Vec<Option<usize>> = vec![None; batch.profiles.len()];
        let mut out = WorkerOutput::default();
        loop {
            let base = batch.cursor.fetch_add(batch.chunk, Ordering::Relaxed);
            if base >= n_tasks {
                break;
            }
            for (t, path, probe) in &batch.tasks[base..(base + batch.chunk).min(n_tasks)] {
                let p = t / batch.n_units;
                let profile = &batch.profiles[p];
                let i = *rows[p].get_or_insert_with(|| self.tool_for(profile));
                let tool = &mut self.tools[i].1;
                // Panic firewall: a poisoned unit becomes a structured
                // failure row instead of unwinding through the thread join.
                // The memo probe reads the tree, so it runs inside too.
                let run = firewalled(|| {
                    let pp = tool.preprocessor();
                    match probe
                        .as_ref()
                        .filter(|e| e.revalidates(&|q| pp.dep_hash(q)))
                    {
                        Some(valid) => Arc::clone(&valid.report),
                        None => Arc::new(process_one(tool, path, &batch.copts)),
                    }
                });
                let report = match run {
                    Ok(report) => report,
                    Err(message) => {
                        self.tools[i].1 = self.build(profile);
                        let message = format!("panic: {message}");
                        Arc::new(UnitReport::failed(path, "panic", &message))
                    }
                };
                // A replay (the stored report, `memo_hit` set) keeps its entry.
                if batch.copts.warm && !report.memo_hit {
                    let pp = self.tools[i].1.preprocessor();
                    if let Some(e) = Stored::new(pp.unit_deps(), pp.unit_neg_deps(), &report) {
                        out.stored.push((*t, e));
                    }
                }
                out.units.push((*t, report));
            }
        }
        // The gauges cover every tool the worker holds. A pooled worker
        // keeps its tools across batches, so there they are cumulative
        // over the worker's lifetime; they are outside the determinism
        // contract either way.
        for (_, tool) in &self.tools {
            out.cond.merge(&tool.ctx().stats());
            if let Some(b) = tool.ctx().bdd_stats() {
                out.bdd.get_or_insert_with(BddStats::default).merge(&b);
            }
        }
        out
    }
}

/// The one-shot host: scoped workers over a borrowed tree, sharing one
/// fresh artifact cache. The cache is content-hash keyed (see
/// `superc_cpp::sharedcache` for the invalidation protocol), but a
/// one-shot run never leaves its first generation: files only change at
/// batch boundaries, and this host runs exactly one batch. A lone worker
/// runs on the calling thread. There is no memo to fill, so
/// [`CorpusOptions::warm`] is ignored.
fn run_scoped<F: FileSystem + Sync>(
    fs: &F,
    units: &[String],
    options: &Options,
    profiles: Vec<Profile>,
    mut copts: CorpusOptions,
) -> ProfilesReport {
    copts.warm = false;
    let jobs = if copts.jobs == 0 {
        default_jobs()
    } else {
        copts.jobs
    };
    let shared: Option<Arc<SharedCache>> =
        (!copts.no_shared_cache).then(|| Arc::new(SharedCache::new()));
    let start = Instant::now();
    let tasks = every_task(units, profiles.len());
    let batch = Batch::new(units.len(), profiles, copts, jobs, tasks);
    let work = || Worker::new(options.clone(), fs, shared.clone()).run(&batch);
    let outputs: Vec<WorkerOutput> = if batch.workers == 1 {
        vec![work()]
    } else {
        std::thread::scope(|s| {
            // A thread the OS refuses, or one that dies outside the
            // panic firewall, leaves its tasks to the other workers or
            // to a failure row (see `Batch::assemble`).
            let handles: Vec<_> = (0..batch.workers)
                .filter_map(|_| worker_thread().spawn_scoped(s, work).ok())
                .collect();
            handles.into_iter().filter_map(|h| h.join().ok()).collect()
        })
    };
    let wall = start.elapsed();
    let slots = vec![None; batch.tasks.len()];
    let rehashed = shared.map_or(0, |s| s.rehashes());
    batch.assemble(slots, outputs, wall, (0, 0), rehashed)
}

/// The cross-profile corpus rollup: one [`CorpusReport`] per profile,
/// parallel to `profiles` and each in unit input order, sharing one
/// wall clock (the runs are interleaved over one worker pool, not
/// sequential).
#[derive(Clone, Debug)]
pub struct ProfilesReport {
    /// Profile names, in run order (the order given to
    /// [`process_corpus_profiles`]).
    pub profiles: Vec<String>,
    /// One full corpus report per profile, parallel to `profiles`.
    pub runs: Vec<CorpusReport>,
    /// Worker threads actually used (shared across all profiles).
    pub workers: usize,
    /// End-to-end wall clock for the whole cross-profile run.
    pub wall: Duration,
}

impl ProfilesReport {
    /// Units with a fatal failure under *any* profile.
    pub fn fatal_units(&self) -> usize {
        let n_units = self.runs.first().map_or(0, |r| r.units.len());
        (0..n_units)
            .filter(|&u| self.runs.iter().any(|r| r.units[u].fatal.is_some()))
            .count()
    }

    /// Per-profile behavior counters, one line each (`name: counters`).
    /// Byte-identical for any worker count or schedule, like
    /// [`CorpusReport::behavior_counters`].
    pub fn behavior_counters(&self) -> String {
        self.profiles
            .iter()
            .zip(&self.runs)
            .map(|(name, run)| format!("{name}: {}", run.behavior_counters()))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Merges the per-profile runs into one deterministic lint report:
    ///
    /// * ordinary lint records that are byte-identical across profiles
    ///   collapse into one row stamped with the profile set they fired
    ///   under (in run order);
    /// * each unit's per-profile portability slices are diffed by
    ///   [`diff_profiles`] into the `portability-*` records, with a
    ///   synthetic row per fatal unit so a unit that dies under only
    ///   some profiles surfaces as a divergence;
    /// * everything is sorted by [`sort_records`]'s total order.
    ///
    /// Conditions cross profiles as canonical strings and are re-ORed in
    /// a scratch BDD context, so the result is byte-identical for any
    /// `jobs`, cache, or fast-path setting.
    pub fn lint_records(&self, opts: &superc_analyze::LintOptions) -> Vec<superc_analyze::Record> {
        type Key = (&'static str, &'static str, String, u32, u32, String, String);
        let mut merged: BTreeMap<Key, Vec<usize>> = BTreeMap::new();
        for (p, run) in self.runs.iter().enumerate() {
            for unit in &run.units {
                for r in &unit.lints {
                    let key = (
                        r.code,
                        r.level,
                        r.file.clone(),
                        r.line,
                        r.col,
                        r.cond.clone(),
                        r.message.clone(),
                    );
                    let ps = merged.entry(key).or_default();
                    if ps.last() != Some(&p) {
                        ps.push(p);
                    }
                }
            }
        }
        let mut out: Vec<superc_analyze::Record> = merged
            .into_iter()
            .map(|((code, level, file, line, col, cond, message), ps)| {
                let profiles = ps
                    .iter()
                    .map(|&p| self.profiles[p].as_str())
                    .collect::<Vec<_>>()
                    .join(",");
                superc_analyze::Record {
                    code,
                    level,
                    file,
                    line,
                    col,
                    cond,
                    message,
                    profiles,
                }
            })
            .collect();

        // Portability diffs, one unit at a time. Conditions are lifted
        // from canonical strings into a scratch context to OR them.
        let ctx = CondCtx::new(CondBackend::Bdd);
        let n_units = self.runs.first().map_or(0, |r| r.units.len());
        for u in 0..n_units {
            let slices: Vec<Vec<PortEntry>> = self
                .runs
                .iter()
                .map(|run| {
                    let unit = &run.units[u];
                    let mut slice = unit.portability.clone();
                    if let Some(f) = &unit.failure {
                        // A unit fatal under this profile only is the
                        // bluntest divergence; give it a row to diff.
                        slice.push(PortEntry {
                            kind: PortKind::Diag,
                            key: format!("unit {}: fatal {}", unit.path, f.stage),
                            file: unit.path.clone(),
                            line: 0,
                            col: 0,
                            state: f.message.clone(),
                            cond: "true".to_string(),
                        });
                    }
                    slice
                })
                .collect();
            out.extend(diff_profiles(&self.profiles, &slices, opts, &ctx));
        }
        sort_records(&mut out);
        out
    }
}

/// Parses every unit of a corpus under every [`Profile`], fanning the
/// `units × profiles` task grid out over one worker pool.
///
/// Profile runs are scheduled like extra units: one shared cursor walks
/// task indices `t = p * units.len() + u`, so workers interleave
/// profiles instead of running them sequentially, and a slow unit under
/// one profile never stalls the others. Each worker keeps one warm tool
/// *per distinct profile it has touched* (lazily built — a worker that
/// never claims an `msvc-windows` task never pays for its tool) and all
/// tools share one L2 preprocessing cache: frozen token streams,
/// directive trees, and guards are pre-expansion artifacts, identical
/// under every profile.
///
/// [`CorpusOptions::portability`] is forced on — the per-unit slices
/// are what [`ProfilesReport::lint_records`] diffs. The determinism
/// contract of [`process_corpus`] carries over per profile run. An
/// empty `profiles` list is an empty grid: a report with no runs.
pub fn process_corpus_profiles<F: FileSystem + Sync>(
    fs: &F,
    units: &[String],
    options: &Options,
    profiles: &[Profile],
    copts: &CorpusOptions,
) -> ProfilesReport {
    let mut copts = copts.clone();
    copts.portability = true;
    run_scoped(fs, units, options, profiles.to_vec(), copts)
}

/// A persistent pool of corpus workers, reused across batches.
///
/// [`process_corpus`] builds its mutable layer (per-worker BDD manager,
/// interner, caches, parser engine) from scratch on every call and
/// tears it down at the end. For callers that run the same tree many
/// times — benchmark repetitions, jobs ladders, watch loops — a
/// `CorpusRunner` keeps the workers (and their warm caches) alive:
/// spawn once, [`CorpusRunner::run`] per batch.
///
/// The worker count is a **pool-level** choice fixed at construction,
/// and every pool carries one shared cache whose generations keep its
/// workers coherent across edits between batches;
/// [`CorpusOptions::jobs`] and [`CorpusOptions::no_shared_cache`] on a
/// batch's options are ignored by [`CorpusRunner::run`]. Per-batch
/// capture/lint/panic-injection options apply normally. The
/// determinism contract is identical to [`process_corpus`]: per-unit
/// reports and merged behavior counters are byte-identical for any pool
/// size, batch split, or schedule.
///
/// # Examples
///
/// ```
/// use superc::corpus::{CorpusOptions, CorpusRunner};
/// use superc::{MemFs, Options};
/// use std::sync::Arc;
///
/// let fs = Arc::new(MemFs::new().file("a.c", "int a;\n"));
/// let units = vec!["a.c".to_string()];
/// let mut pool = CorpusRunner::new(&Options::default(), fs, 2);
/// let first = pool.run(&units, &CorpusOptions::default());
/// let again = pool.run(&units, &CorpusOptions::default()); // warm workers
/// assert_eq!(first.behavior_counters(), again.behavior_counters());
/// ```
pub struct CorpusRunner<F: FileSystem + Send + Sync + 'static> {
    /// One channel per live worker.
    txs: Vec<mpsc::Sender<(Arc<Batch>, mpsc::Sender<WorkerOutput>)>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// The pool-wide L2 cache and path rows; the runner starts a
    /// generation at every batch boundary so workers read the tree's
    /// changed paths again.
    shared: Arc<SharedCache>,
    /// The pool's unit result memo, filled and consulted by warm
    /// batches ([`CorpusOptions::warm`]) on the calling thread only.
    memo: UnitMemo,
    /// The first generation at which a memo entry can be past
    /// [`MEMO_MAX_AGE`]: the age check skips the memo before it.
    evict_due: u64,
    /// The pool's base options, kept to compute per-batch options
    /// signatures for the memo.
    options: Options,
    /// The workers' tree, asked at every batch boundary what changed.
    fs: Arc<F>,
}

impl<F: FileSystem + Send + Sync + 'static> CorpusRunner<F> {
    /// Spawns a pool of `jobs` workers (`0` means [`default_jobs`]) over
    /// `fs`, all attached to one pool-wide shared L2 cache. Each worker
    /// builds a tool (over `Arc<F>`) for each profile the first time a
    /// batch hands it one, and keeps it for later batches.
    pub fn new(options: &Options, fs: Arc<F>, jobs: usize) -> Self {
        let jobs = if jobs == 0 { default_jobs() } else { jobs };
        let shared = Arc::new(SharedCache::new());
        let mut txs = Vec::with_capacity(jobs);
        let mut handles = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            let (tx, rx) = mpsc::channel::<(Arc<Batch>, mpsc::Sender<WorkerOutput>)>();
            let (options, fs) = (options.clone(), Arc::clone(&fs));
            let shared = Some(Arc::clone(&shared));
            let spawned = worker_thread().spawn(move || {
                let mut worker = Worker::new(options, fs, shared);
                while let Ok((batch, done)) = rx.recv() {
                    let _ = done.send(worker.run(&batch));
                }
            });
            // A thread the OS refuses leaves the pool smaller; a pool
            // with no worker answers every task with a failure row.
            if let Ok(handle) = spawned {
                handles.push(handle);
                txs.push(tx);
            }
        }
        CorpusRunner {
            txs,
            handles,
            shared,
            memo: UnitMemo::default(),
            evict_due: 0,
            options: options.clone(),
            fs,
        }
    }

    /// The pool's worker count.
    pub fn jobs(&self) -> usize {
        self.txs.len()
    }

    /// The pool-wide shared L2 cache. Exposed so tests and benchmarks
    /// can read its gauges (`rehashes`, artifact count).
    pub fn shared_cache(&self) -> &Arc<SharedCache> {
        &self.shared
    }

    /// Runs one batch over the pool and reassembles the report in input
    /// order. Batches beyond the first reuse warm workers; a batch
    /// smaller than the pool leaves the excess workers idle.
    pub fn run(&mut self, units: &[String], copts: &CorpusOptions) -> CorpusReport {
        let row = vec![self.options.pp.profile.clone()];
        self.run_grid(units, row, copts.clone()).runs.swap_remove(0)
    }

    /// Runs one cross-profile batch over the pool: the task grid and
    /// determinism contract of [`process_corpus_profiles`], the warm
    /// workers of a pool. Each worker keeps one tool per profile it has
    /// touched alive across batches, so a profiles ladder (benchmark
    /// reps, a test matrix) pays the per-profile spin-up once. An empty
    /// `profiles` list gives a report with no runs.
    pub fn run_profiles(
        &mut self,
        units: &[String],
        profiles: &[Profile],
        copts: &CorpusOptions,
    ) -> ProfilesReport {
        let mut copts = copts.clone();
        copts.portability = true;
        self.run_grid(units, profiles.to_vec(), copts)
    }

    /// The pooled host around the shared scheduler, one batch per call.
    ///
    /// A batch starts by asking the tree what changed since the previous
    /// batch and starting a shared-cache generation that reads exactly
    /// those paths again (every path when the tree cannot tell). A warm
    /// batch then sorts its tasks out on the calling thread
    /// ([`UnitMemo::sort_out`]): what the change set leaves valid is
    /// replayed, and every other task goes out with its memo entry as
    /// one [`Batch`] to the pool; a batch with none left wakes no
    /// worker. After the join, a warm batch stamps the entries its
    /// workers proved, stores the entries they return for recomputed
    /// units, counts memo hits and misses, sweeps the artifacts its
    /// generation orphaned out of the L2, and drops memo entries past
    /// [`MEMO_MAX_AGE`] (cold pools fill no memo and have no orphan
    /// worth a sweep). `files_rehashed` counts this batch's rehashes.
    fn run_grid(
        &mut self,
        units: &[String],
        profiles: Vec<Profile>,
        copts: CorpusOptions,
    ) -> ProfilesReport {
        let start = Instant::now();
        let changed = self.fs.take_changes().map(|mut paths| {
            paths.sort_unstable();
            paths.dedup();
            paths
        });
        let gen = self.shared.next_generation_with(changed.as_deref());
        // One signature per row: the profile changes output, and
        // everything else is identical across the grid.
        let sigs: Vec<u64> = profiles
            .iter()
            .map(|p| options_sig(&self.options, p, &copts))
            .collect();
        let mut slots = vec![None; units.len() * profiles.len()];
        let tasks = if copts.warm {
            let changed = changed.as_deref();
            self.memo.sort_out(units, &sigs, changed, gen, &mut slots)
        } else {
            every_task(units, profiles.len())
        };
        let replayed = (slots.len() - tasks.len()) as u64;
        let rehash_base = self.shared.rehashes();
        let batch = Arc::new(Batch::new(units.len(), profiles, copts, self.jobs(), tasks));
        let (done_tx, done_rx) = mpsc::channel();
        let mut sent = 0;
        self.txs.retain(|tx| {
            if sent == batch.workers {
                return true;
            }
            // A worker that died outside the panic firewall has closed
            // its channel: it leaves the pool, and the others take its
            // share.
            let alive = tx.send((Arc::clone(&batch), done_tx.clone())).is_ok();
            sent += usize::from(alive);
            alive
        });
        drop(done_tx);
        let mut outputs: Vec<WorkerOutput> = done_rx.iter().collect();
        let wall = start.elapsed();
        let rehashed = self.shared.rehashes() - rehash_base;
        let (mut hits, mut misses) = (replayed, 0);
        if batch.copts.warm {
            let at = |t: usize| (sigs[t / units.len()], units[t % units.len()].as_str());
            for out in &mut outputs {
                for (t, report) in &out.units {
                    if report.memo_hit {
                        hits += 1;
                        let (sig, path) = at(*t);
                        self.memo.prove(sig, path, gen);
                    } else {
                        misses += 1;
                    }
                }
                for (t, stored) in out.stored.drain(..) {
                    let (sig, path) = at(t);
                    self.memo.store(sig, path, stored, gen);
                }
            }
            self.shared.sweep();
            if gen >= self.evict_due {
                self.evict_due = self.memo.evict_unproven(gen) + MEMO_MAX_AGE;
            }
        }
        batch.assemble(slots, outputs, wall, (hits, misses), rehashed)
    }
}

impl<F: FileSystem + Send + Sync + 'static> Drop for CorpusRunner<F> {
    fn drop(&mut self) {
        // Closing the channels ends each worker's `recv` loop.
        self.txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

thread_local! {
    /// True while this thread is inside the firewall — the panic hook
    /// stays quiet so an expected, recovered panic does not spray a
    /// backtrace over the corpus output.
    static FIREWALLED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` under `catch_unwind`, suppressing the default panic hook for
/// the duration and reducing any panic payload to its message.
fn firewalled<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !FIREWALLED.with(|b| b.get()) {
                previous(info);
            }
        }));
    });
    FIREWALLED.with(|b| b.set(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    FIREWALLED.with(|b| b.set(false));
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

impl UnitReport {
    /// A report for a unit that produced nothing: fatal preprocessor
    /// error or firewalled panic. Counters stay zero; the failure is
    /// carried both in `fatal` (legacy surface) and as a structured
    /// [`UnitFailure`] row.
    fn failed(path: &str, stage: &str, message: &str) -> UnitReport {
        UnitReport {
            path: path.to_string(),
            bytes: 0,
            pp: PpStats::default(),
            parse: ParseStats::default(),
            phase_nanos: [0; 3],
            parsed: false,
            partial: false,
            degradations: Vec::new(),
            choice_nodes: 0,
            errors: Vec::new(),
            diagnostics: Vec::new(),
            accepted: None,
            lints: Vec::new(),
            portability: Vec::new(),
            fatal: Some(message.to_string()),
            failure: Some(UnitFailure {
                stage: stage.to_string(),
                message: message.to_string(),
            }),
            preprocessed: None,
            ast_text: None,
            unparses: Vec::new(),
            memo_hit: false,
        }
    }

    /// The part of this report two runs of the same unit must agree on:
    /// counters outside the `keep` classes zeroed, and what no second
    /// run reproduces cleared — phase timings, captured preprocessed and
    /// AST text (raw condition display depends on the worker's variable
    /// order) and `memo_hit`. Everything else is compared whole: errors,
    /// diagnostics, degradations, lints, portability rows, the fatal
    /// and failure rows, unparses and bytes.
    pub fn view(&self, keep: &[Class]) -> UnitReport {
        UnitReport {
            pp: project(&self.pp, keep),
            parse: project(&self.parse, keep),
            phase_nanos: [0; 3],
            preprocessed: None,
            ast_text: None,
            memo_hit: false,
            ..self.clone()
        }
    }
}

fn process_one<F: FileSystem>(
    tool: &mut SuperC<F>,
    path: &str,
    copts: &CorpusOptions,
) -> UnitReport {
    if copts.inject_panic.iter().any(|p| p == path) {
        panic!("injected panic for firewall testing: {path}");
    }
    match tool.process(path) {
        Ok(processed) => unit_report(tool, path, &processed, copts),
        Err(e) => UnitReport::failed(path, "preprocess", &e.to_string()),
    }
}

/// The report of a unit `tool` just processed, with the captures,
/// lints and portability slice `copts` asks for. Must run before the
/// tool's next unit (see [`SuperC::lint`]).
fn unit_report<F: FileSystem>(
    tool: &SuperC<F>,
    path: &str,
    processed: &ProcessedUnit,
    copts: &CorpusOptions,
) -> UnitReport {
    // Lint immediately: the macro table is per-unit preprocessor state
    // and would be reset by this worker's next unit.
    let lints = match &copts.lint {
        Some(lopts) => tool
            .lint(processed, lopts)
            .iter()
            .map(|d| d.record())
            .collect(),
        None => Vec::new(),
    };
    // Same per-unit constraint applies to the portability slice (it
    // reads the macro table's definedness conditions).
    let portability = if copts.portability {
        tool.portability_slice(processed)
    } else {
        Vec::new()
    };

    let preprocessed = copts
        .capture
        .preprocessed
        .then(|| processed.unit.display_text());
    let ast_text = if copts.capture.ast {
        processed.result.ast.as_ref().map(|a| a.to_string())
    } else {
        None
    };
    let unparses = copts
        .capture
        .unparse_configs
        .iter()
        .map(|enabled| match &processed.result.ast {
            Some(ast) => {
                let env = |name: &str| {
                    let bare = name
                        .strip_prefix("defined(")
                        .and_then(|s| s.strip_suffix(')'))
                        .unwrap_or(name);
                    Some(enabled.iter().any(|e| e == bare))
                };
                unparse_config(ast, tool.ctx(), &env)
            }
            None => String::new(),
        })
        .collect();

    UnitReport {
        path: path.to_string(),
        bytes: processed.bytes,
        parsed: processed.result.ast.is_some(),
        partial: processed.result.outcome == ParseOutcome::Partial,
        degradations: processed.result.trips.iter().map(render_trip).collect(),
        choice_nodes: processed
            .result
            .ast
            .as_ref()
            .map_or(0, |a| a.choice_count()),
        // Render positions with the file *name*, not the raw `FileId`:
        // id numbering depends on which files this worker lexed before
        // (ids persist across units within a pooled worker), so it is
        // not schedule-invariant; names are. Conditions are rendered
        // canonically for the same reason (see [`render_trip`]).
        errors: processed
            .result
            .errors
            .iter()
            .map(|e| {
                let cond = canonical(&e.cond);
                match e.pos {
                    Some(p) => {
                        let file = tool.preprocessor().file_name(p.file).unwrap_or("<unknown>");
                        format!(
                            "{file}:{}:{}: {} (at '{}', config {cond})",
                            p.line, p.col, e.message, e.got
                        )
                    }
                    None => {
                        format!("{} (at end of input, config {cond})", e.message)
                    }
                }
            })
            .collect(),
        diagnostics: processed
            .unit
            .diagnostics
            .iter()
            .filter(|d| d.severity != Severity::Note)
            .map(|d| {
                let file = tool
                    .preprocessor()
                    .file_name(d.pos.file)
                    .unwrap_or("<unknown>");
                format!(
                    "[{:?}] {file}:{}:{}: {} (config {})",
                    d.severity,
                    d.pos.line,
                    d.pos.col,
                    d.message,
                    canonical(&d.cond)
                )
            })
            .collect(),
        accepted: processed.result.accepted.as_ref().map(canonical),
        lints,
        portability,
        phase_nanos: [
            processed.timings.lexing.as_nanos() as u64,
            processed.timings.preprocessing.as_nanos() as u64,
            processed.timings.parsing.as_nanos() as u64,
        ],
        pp: processed.unit.stats,
        parse: processed.result.stats.clone(),
        fatal: None,
        failure: None,
        preprocessed,
        ast_text,
        unparses,
        memo_hit: false,
    }
}
