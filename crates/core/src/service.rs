//! The embeddable service layer: a long-running [`Driver`] that owns a
//! pooled [`CorpusRunner`], its shared preprocessing cache, and its unit
//! result memo **across requests** — the surface an embedding host (an
//! IDE, a build server) uses directly, and the engine behind the C FFI
//! (`superc-capi`) and the `superc daemon` NDJSON server.
//!
//! A driver is a session, not a command: callers populate a virtual
//! file tree (or plug in a resolver callback that reaches disk, an
//! editor buffer, a build system…), then alternate **edit generations**
//! with parse/lint requests. Edits are batched: [`Driver::begin_generation`]
//! opens a batch, [`Driver::set_file`]/[`Driver::remove_file`] stage
//! changes, [`Driver::end_generation`] commits them. The next request
//! replays every unit whose include closure (positive *and* negative
//! dependencies — see `corpus::UnitMemo`) is untouched.
//!
//! ```
//! use superc::analyze::LintOptions;
//! use superc::cli::LintFormat;
//! use superc::service::Driver;
//! use superc::Options;
//!
//! let mut options = Options::default();
//! options.pp.include_paths = vec!["include".to_string()];
//! let mut driver = Driver::new(options, 2);
//!
//! // A fresh driver has generation 1 open: populate the tree.
//! driver.set_file("include/w.h", "#define W 1\n")?;
//! driver.set_file("a.c", "#include <w.h>\nint a = W;\n")?;
//! driver.end_generation()?;
//!
//! // Requests replay memoized units whose include closure (positive
//! // and negative dependencies) is untouched.
//! let units = vec!["a.c".to_string()];
//! let first = driver.parse(&units)?;
//! assert_eq!(first.parsed_units(), 1);
//!
//! // Edits are batched into explicit generations.
//! driver.begin_generation()?;
//! driver.set_file("include/w.h", "#define W 2\n")?;
//! driver.end_generation()?;
//! let second = driver.parse(&units)?;
//! assert!(!second.units[0].memo_hit); // the edit invalidated a.c
//!
//! // Rendered requests are byte-identical to the one-shot CLI.
//! let lint = driver.lint_rendered(
//!     &units, LintFormat::Json, &[], &LintOptions::default(), false)?;
//! assert!(lint.stdout.starts_with("{\"diagnostics\":"));
//! # Ok::<(), String>(())
//! ```
//!
//! What the next request must re-prove depends on where files come
//! from. A driver without a resolver holds every file in its overlay,
//! so it knows exactly which paths a generation staged
//! ([`DriverFs`] logs them): the request reads and hashes only those,
//! and a memoized unit none of whose dependency paths was staged
//! replays with no probes at all. A driver with a resolver (the
//! daemon's disk root, an embedder's callback) cannot know what changed
//! behind the callback — a notify-only edit does not even name a staged
//! file — so its next request rehashes every file it touches and
//! probes every memoized fingerprint.
//!
//! Output byte-identity is part of the contract: rendered requests go
//! through [`crate::cli`], the same code the `superc` binary prints
//! with, so a daemon response can be diffed byte-for-byte against a
//! fresh one-shot CLI run over the same tree (verify.sh does exactly
//! that).
//!
//! Errors never panic across the service boundary: resolver failures
//! and misuse (parsing mid-generation, closing a generation that is not
//! open) land on the per-driver **last-error channel**, mirrored
//! through `superc_last_error` in the C API.

use std::sync::Arc;

use superc_cpp::DiskFs;

use crate::analyze::LintOptions;
use crate::cli::{self, LintFormat, LintFragments, Rendered};
use crate::corpus::{Capture, CorpusOptions, CorpusReport, CorpusRunner};
use crate::{Options, Profile};

/// The driver's file tree and its resolver type live beside the other
/// trees in `superc_cpp`; they are re-exported here, where embedders
/// meet them.
pub use superc_cpp::{DriverFs, ResolverFn};

/// Rolling driver statistics (the daemon's `stats` response).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Completed edit generations.
    pub generation: u64,
    /// Parse/lint batches served.
    pub batches: u64,
    /// Unit memo hits in the most recent batch.
    pub unit_memo_hits: u64,
    /// Unit memo misses in the most recent batch.
    pub unit_memo_misses: u64,
    /// Files content-hashed in the most recent batch.
    pub files_rehashed: u64,
}

/// A long-running parse service: one pooled worker runner, one shared
/// cache, one unit memo, many requests.
///
/// # Examples
///
/// ```
/// use superc::service::Driver;
/// use superc::Options;
///
/// let mut options = Options::default();
/// options.pp.include_paths = vec!["include".to_string()];
/// let mut driver = Driver::new(options, 2);
/// // A new driver opens generation 1 so the tree can be populated.
/// driver.set_file("a.c", "int a;\n").unwrap();
/// driver.end_generation().unwrap();
/// let report = driver.parse(&["a.c".to_string()]).unwrap();
/// assert_eq!(report.parsed_units(), 1);
/// ```
pub struct Driver {
    fs: Arc<DriverFs>,
    pool: CorpusRunner<DriverFs>,
    jobs: usize,
    /// Edit generation currently open (`None` = requests allowed).
    open: Option<u64>,
    stats: DriverStats,
    /// The last single-profile lint response's per-unit fragments: a
    /// unit the memo replays is not rendered again.
    fragments: LintFragments,
}

impl Driver {
    /// Creates a driver with `jobs` pooled workers (`0` = available
    /// parallelism). The first edit generation is already open so the
    /// tree can be populated; call [`Driver::end_generation`] before
    /// the first request.
    pub fn new(options: Options, jobs: usize) -> Driver {
        let fs = Arc::new(DriverFs::new());
        let pool = CorpusRunner::new(&options, Arc::clone(&fs), jobs);
        Driver {
            fs,
            pool,
            jobs,
            open: Some(1),
            stats: DriverStats::default(),
            fragments: LintFragments::default(),
        }
    }

    /// A driver whose resolver reads from disk under `root` through the
    /// CLI's own [`DiskFs`] (absolute paths pass through) — the daemon's
    /// configuration.
    pub fn with_disk_root(options: Options, jobs: usize, root: &str) -> Driver {
        let driver = Driver::new(options, jobs);
        let disk = DiskFs::new(root);
        driver
            .fs
            .set_resolver(Some(Box::new(move |path: &str| Ok(disk.read_text(path)))));
        driver
    }

    /// Installs a custom include resolver (editor buffers, archives, a
    /// build system's virtual layout…). The callback must be callable
    /// from any worker thread; failures are recorded on the last-error
    /// channel and the path reads as absent.
    pub fn set_resolver(&self, resolver: ResolverFn) {
        self.fs.set_resolver(Some(resolver));
    }

    /// Opens an edit generation. Requests are rejected until
    /// [`Driver::end_generation`] commits the batch.
    pub fn begin_generation(&mut self) -> Result<u64, String> {
        if let Some(g) = self.open {
            return Err(self.fail(format!("generation {g} is already open")));
        }
        let g = self.stats.generation + 1;
        self.open = Some(g);
        Ok(g)
    }

    /// Commits the open edit generation; the next request revalidates
    /// against the edited tree.
    pub fn end_generation(&mut self) -> Result<u64, String> {
        match self.open.take() {
            Some(g) => {
                self.stats.generation = g;
                Ok(g)
            }
            None => Err(self.fail("no generation is open".to_string())),
        }
    }

    /// Stages a file into the open generation.
    pub fn set_file(&mut self, path: &str, contents: &str) -> Result<(), String> {
        self.require_open("set_file")?;
        self.fs.set(path, contents);
        Ok(())
    }

    /// Removes a file in the open generation (a tombstone: the path is
    /// absent even if the resolver would produce it).
    pub fn remove_file(&mut self, path: &str) -> Result<(), String> {
        self.require_open("remove_file")?;
        self.fs.tombstone(path);
        Ok(())
    }

    /// Parses `units`, replaying memoized results where valid. The
    /// report is byte-equivalent (deterministic fields and behavior
    /// counters) to a cold run over the current tree.
    pub fn parse(&mut self, units: &[String]) -> Result<CorpusReport, String> {
        self.request("parse")?;
        let copts = self.copts(Capture::default(), None);
        let report = self.pool.run(units, &copts);
        self.note(&report);
        Ok(report)
    }

    /// [`Driver::parse`], rendered to the exact bytes the `superc` CLI
    /// would print for the same run.
    pub fn parse_rendered(
        &mut self,
        units: &[String],
        show_ast: bool,
        show_stats: bool,
    ) -> Result<Rendered, String> {
        self.request("parse")?;
        let capture = Capture {
            ast: show_ast,
            ..Capture::default()
        };
        let copts = self.copts(capture, None);
        let report = self.pool.run(units, &copts);
        self.note(&report);
        Ok(cli::render_corpus_report(&report, show_ast, show_stats))
    }

    /// Lints `units`, rendered to the exact bytes of
    /// `superc lint --format <format>` over the same tree. With
    /// `profiles`, the cross-profile grid runs and the merged records
    /// (including `portability-*` diffs) are rendered.
    pub fn lint_rendered(
        &mut self,
        units: &[String],
        format: LintFormat,
        profiles: &[Profile],
        opts: &LintOptions,
        show_stats: bool,
    ) -> Result<Rendered, String> {
        self.request("lint")?;
        let copts = self.copts(Capture::default(), Some(opts.clone()));
        if profiles.is_empty() {
            let report = self.pool.run(units, &copts);
            self.note(&report);
            Ok(self.fragments.render(&report, format, show_stats))
        } else {
            let report = self.pool.run_profiles(units, profiles, &copts);
            self.note(&report.runs[0]);
            Ok(cli::render_lint_profiles(&report, format, opts, show_stats))
        }
    }

    /// The most recent error (resolver failure or misuse), if any.
    pub fn last_error(&self) -> Option<String> {
        self.fs.last_error()
    }

    /// Rolling statistics (generations, batches, last batch's memo
    /// hit/miss split).
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// The driver's file tree (for tests and embedders that want direct
    /// overlay access; the generation protocol is not enforced here).
    pub fn fs(&self) -> &Arc<DriverFs> {
        &self.fs
    }

    fn copts(&self, capture: Capture, lint: Option<LintOptions>) -> CorpusOptions {
        CorpusOptions {
            jobs: self.jobs,
            capture,
            lint,
            warm: true,
            ..CorpusOptions::default()
        }
    }

    /// Records a served batch. A grid batch passes its row 0, which
    /// carries the grid-wide memo and rehash counters.
    fn note(&mut self, report: &CorpusReport) {
        self.stats.batches += 1;
        self.stats.unit_memo_hits = report.unit_memo_hits;
        self.stats.unit_memo_misses = report.unit_memo_misses;
        self.stats.files_rehashed = report.files_rehashed;
    }

    fn require_open(&self, what: &str) -> Result<(), String> {
        if self.open.is_none() {
            return Err(self.fail(format!(
                "{what} requires an open generation (call begin_generation first)"
            )));
        }
        Ok(())
    }

    fn request(&self, what: &str) -> Result<(), String> {
        if let Some(g) = self.open {
            return Err(self.fail(format!(
                "{what} rejected: generation {g} is open (call end_generation first)"
            )));
        }
        Ok(())
    }

    fn fail(&self, msg: String) -> String {
        self.fs.record_error(msg.clone());
        msg
    }
}

/// The `superc daemon` NDJSON protocol: the read-and-answer loop and
/// one request line at a time, kept here (not in the binary) so the
/// protocol is testable in-process. See the binary's docs for the
/// request shapes.
pub mod daemon {
    use std::io::{BufRead, Read, Write};

    use superc_util::json::Json;

    use super::{Driver, Rendered};
    use crate::analyze::render::{json_str, push_json_str};
    use crate::analyze::LintOptions;
    use crate::cli::LintFormat;
    use crate::Profile;

    /// The longest request line [`serve`] reads, newline included: far
    /// above real requests, which stay small (an `edit` carries one
    /// file's contents; the kernelgen files the benchmarks edit are
    /// under 4 KiB, as is a 256-unit `lint` request).
    pub const MAX_LINE_BYTES: usize = 16 << 20;

    /// Answers each request line of `input` with one response line on
    /// `output`, until end of input or a `shutdown` request. A line that
    /// is not UTF-8 or is longer than [`MAX_LINE_BYTES`] gets an
    /// `ok:false` response, and the session goes on with the next line;
    /// an overlong line is never held in memory whole.
    ///
    /// # Errors
    ///
    /// A failed read of `input` or write of `output`.
    pub fn serve(
        driver: &mut Driver,
        mut input: impl BufRead,
        mut output: impl Write,
    ) -> std::io::Result<()> {
        let mut line = Vec::new();
        loop {
            line.clear();
            let limit = MAX_LINE_BYTES as u64;
            if (&mut input).take(limit).read_until(b'\n', &mut line)? == 0 {
                return Ok(());
            }
            let (answer, quit) = if line.len() == MAX_LINE_BYTES && line.last() != Some(&b'\n') {
                input.skip_until(b'\n')?;
                let e = format!("bad request: line longer than {MAX_LINE_BYTES} bytes");
                (response(Err(e)), false)
            } else {
                match std::str::from_utf8(&line) {
                    Ok(text) if text.trim().is_empty() => continue,
                    Ok(text) => handle_line(driver, text),
                    Err(e) => {
                        let at = e.valid_up_to();
                        (
                            response(Err(format!("bad request: not UTF-8 at byte {at}"))),
                            false,
                        )
                    }
                }
            };
            writeln!(output, "{answer}")?;
            output.flush()?;
            if quit {
                return Ok(());
            }
        }
    }

    /// Renders one response line (no trailing newline).
    fn response(result: Result<Rendered, String>) -> String {
        match result {
            Ok(r) => {
                // Room for the escapes a lint document's quotes take.
                let room = (r.stdout.len() + r.stderr.len()) * 9 / 8 + 64;
                let mut line = String::with_capacity(room);
                line.push_str("{\"ok\":true,\"stdout\":");
                push_json_str(&mut line, &r.stdout);
                line.push_str(",\"stderr\":");
                push_json_str(&mut line, &r.stderr);
                line.push_str(if r.failed {
                    ",\"failed\":true}"
                } else {
                    ",\"failed\":false}"
                });
                line
            }
            Err(e) => format!("{{\"ok\":false,\"error\":{}}}", json_str(&e)),
        }
    }

    /// Extracts the `"units"` array from a request.
    fn units_of(req: &Json) -> Result<Vec<String>, String> {
        let units = req
            .get("units")
            .and_then(Json::as_array)
            .ok_or("request needs a \"units\" array")?;
        units
            .iter()
            .map(|u| {
                u.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "units must be strings".to_string())
            })
            .collect()
    }

    /// Handles one request line; returns the response line and whether
    /// the daemon should shut down afterwards.
    pub fn handle_line(driver: &mut Driver, line: &str) -> (String, bool) {
        let req = match Json::parse(line) {
            Ok(r) => r,
            Err(e) => return (response(Err(format!("bad request: {e}"))), false),
        };
        match req.get("cmd").and_then(Json::as_str) {
            Some("parse") => {
                let result =
                    units_of(&req).and_then(|units| driver.parse_rendered(&units, false, false));
                (response(result), false)
            }
            Some("lint") => {
                let result = (|| {
                    let units = units_of(&req)?;
                    let format = match req.get("format").and_then(Json::as_str) {
                        None => LintFormat::Text,
                        Some(f) => {
                            LintFormat::parse(f).ok_or_else(|| format!("unknown format {f}"))?
                        }
                    };
                    let mut profiles = Vec::new();
                    if let Some(names) = req.get("profiles").and_then(Json::as_array) {
                        for n in names {
                            let n = n.as_str().ok_or("profiles must be strings")?;
                            profiles.push(
                                Profile::named(n).ok_or_else(|| format!("unknown profile {n}"))?,
                            );
                        }
                    }
                    driver.lint_rendered(&units, format, &profiles, &LintOptions::default(), false)
                })();
                (response(result), false)
            }
            Some("edit") => {
                let result = (|| {
                    let path = req
                        .get("path")
                        .and_then(Json::as_str)
                        .ok_or("edit needs a \"path\"")?;
                    driver.begin_generation()?;
                    if req.get("remove").and_then(Json::as_bool) == Some(true) {
                        driver.remove_file(path)?;
                    } else if let Some(contents) = req.get("contents").and_then(Json::as_str) {
                        driver.set_file(path, contents)?;
                    }
                    // No contents and no remove: a notify-only edit —
                    // the file changed behind the resolver, whose
                    // drivers revalidate every path each batch.
                    let generation = driver.end_generation()?;
                    Ok(Rendered {
                        stdout: format!("generation {generation}\n"),
                        ..Rendered::default()
                    })
                })();
                (response(result), false)
            }
            Some("stats") => {
                let s = driver.stats();
                let last_error = match driver.last_error() {
                    Some(e) => json_str(&e),
                    None => "null".to_string(),
                };
                (
                    format!(
                        "{{\"ok\":true,\"generation\":{},\"batches\":{},\
                         \"unit_memo_hits\":{},\"unit_memo_misses\":{},\
                         \"files_rehashed\":{},\"last_error\":{last_error}}}",
                        s.generation,
                        s.batches,
                        s.unit_memo_hits,
                        s.unit_memo_misses,
                        s.files_rehashed
                    ),
                    false,
                )
            }
            Some("shutdown") => ("{\"ok\":true,\"shutdown\":true}".to_string(), true),
            Some(other) => (response(Err(format!("unknown cmd {other}"))), false),
            None => (response(Err("request needs a \"cmd\"".to_string())), false),
        }
    }
}
