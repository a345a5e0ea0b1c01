//! The `superc` command-line tool: configuration-preserving preprocessing
//! and parsing of C compilation units.
//!
//! ```text
//! superc [OPTIONS] <file.c>...
//!   -I <dir>          add an include search directory (repeatable)
//!   -D <name[=val]>   define a macro
//!   --sat             use the SAT condition backend (TypeChef-style)
//!   --mapr            use MAPR's naive forking (with kill switch)
//!   --level <name>    optimization level: full | shared-lazy | shared |
//!                     lazy | follow | mapr | mapr-largest
//!   --single <names>  single-configuration (gcc) mode; comma-separated
//!                     macros to define as 1
//!   --preprocess      print the configuration-preserving preprocessed text
//!   --ast             print the AST with static choice nodes
//!   --stats           print preprocessor/parser statistics
//!   --jobs <N>        parse N compilation units in parallel
//!                     (default: available parallelism; 1 = sequential)
//!   --no-fastpath     disable the deterministic parser fast path and
//!                     fused lexing (output is byte-identical either way;
//!                     this is an escape hatch and differential-testing
//!                     lever, not a semantic switch)
//!   --profile <name>  compiler/OS profile supplying the built-in macro
//!                     table and dialect quirks: gcc-linux (default),
//!                     clang-linux, clang-macos, msvc-windows, bare
//!   --warm <N>        run the corpus N times over one pooled worker
//!                     runner with the unit result memo enabled, printing
//!                     only the final run — the incremental "edit a file,
//!                     re-run" loop in one process. Unchanged units replay
//!                     their memoized result; units whose include closure
//!                     was edited recompute. Output is byte-identical to a
//!                     cold run over the final tree. The memo is bypassed
//!                     for units that tripped a budget or failed.
//!   --edit <R:dst=src> before (1-based) run R of --warm, copy file src
//!                     over dst — scripted edits for warm re-run testing
//!                     (repeatable)
//!
//! Resource budgets (0 = unlimited; exhaustion *degrades* the unit to a
//! partial parse with condition-scoped diagnostics instead of aborting):
//!   --max-subparsers <N>  live-subparser ceiling per unit
//!   --parse-budget <N>    parser main-loop step budget per unit
//!   --max-forks <N>       subparser fork budget per unit
//!   --max-cond-nodes <N>  BDD-node growth ceiling per unit
//!                         (schedule-dependent safety net)
//!   --parse-time-ms <N>   wall-clock parse budget per unit
//!                         (schedule-dependent safety net)
//!   --include-depth <N>   include-nesting ceiling (overflowing includes
//!                         are skipped with an error diagnostic)
//!   --hoist-cap <N>       hoisted-branch ceiling per preprocessor
//!                         operation
//!
//! superc lint [OPTIONS] <file.c>...
//!   Variability lints with presence-condition diagnostics. Accepts every
//!   option above, plus:
//!   --format <text|json|sarif> output format (default: text)
//!   --profiles <a,b,c>        cross-profile mode: parse every unit under
//!                             each named profile and diff the results
//!                             into the portability-* lints
//!   --allow <code|all>        suppress a lint
//!   --warn <code|all>         report a lint, exit 0 (the default)
//!   --deny <code|all>        report a lint and exit nonzero
//!   --config-prefix <prefix>  replace the name prefixes exempt from
//!                             undef-macro-test (default: CONFIG_, __)
//!
//! superc daemon [OPTIONS]
//!   Long-running parse service over stdin/stdout: one NDJSON request
//!   per line, one NDJSON response per line, over a pooled runner whose
//!   shared cache and unit memo persist across requests. Accepts the
//!   shared options above (no files). Requests:
//!     {"cmd":"parse","units":[...]}
//!     {"cmd":"lint","units":[...],"format":"text|json|sarif",
//!      "profiles":["gcc-linux",...]}
//!     {"cmd":"edit","path":"f.h","contents":"..."}   stage an overlay
//!       edit ("remove":true deletes; omit contents to just notify that
//!       the file changed on disk)
//!     {"cmd":"stats"}
//!     {"cmd":"shutdown"}
//!   Parse/lint responses carry {"ok":true,"stdout":...,"stderr":...,
//!   "failed":...} where stdout/stderr are byte-identical to a fresh
//!   one-shot `superc` run over the same tree.
//! ```

use std::process::ExitCode;

use superc::analyze::{LintCode, LintLevel, LintOptions};
use superc::cli::{self, LintFormat, Rendered};
use superc::corpus::{Capture, CorpusOptions, CorpusRunner};
use superc::service::Driver;
use superc::{CondBackend, DiskFs, Options, ParserConfig, PpOptions, Profile, SuperC};

struct LintArgs {
    format: LintFormat,
    /// Cross-profile mode: parse every unit under each profile and diff.
    profiles: Vec<Profile>,
    opts: LintOptions,
}

struct Args {
    files: Vec<String>,
    options: Options,
    show_preprocessed: bool,
    show_ast: bool,
    show_stats: bool,
    /// Worker threads; 0 = available parallelism.
    jobs: usize,
    /// Warm re-run count: run the corpus this many times over one pooled
    /// runner with the unit result memo on; `0` = normal one-shot run.
    warm: usize,
    /// Scripted edits for warm re-runs: before (1-based) run `.0`, copy
    /// file `.2` over `.1`.
    edits: Vec<(usize, String, String)>,
    /// `superc lint` mode.
    lint: Option<LintArgs>,
    /// `superc daemon` mode: serve NDJSON requests over stdin/stdout.
    daemon: bool,
}

fn parse_args(mut raw: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        files: Vec::new(),
        options: Options::default(),
        show_preprocessed: false,
        show_ast: false,
        show_stats: false,
        jobs: 0,
        warm: 0,
        edits: Vec::new(),
        lint: None,
        daemon: false,
    };
    let mut pp = PpOptions::default();
    pp.include_paths.clear();
    match raw.first().map(String::as_str) {
        Some("lint") => {
            raw.remove(0);
            args.lint = Some(LintArgs {
                format: LintFormat::Text,
                profiles: Vec::new(),
                opts: LintOptions::default(),
            });
        }
        Some("daemon") => {
            raw.remove(0);
            args.daemon = true;
        }
        _ => {}
    }
    let mut prefixes_replaced = false;
    // Applied after the loop so it survives a later `--level`/`--mapr`
    // (which replace the whole ParserConfig).
    let mut no_fastpath = false;
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if let Some(lint) = args.lint.as_mut() {
            match a.as_str() {
                "--format" => {
                    let f = it.next().ok_or("--format needs text, json, or sarif")?;
                    lint.format =
                        LintFormat::parse(&f).ok_or_else(|| format!("unknown format {f}"))?;
                    continue;
                }
                "--profiles" => {
                    let names = it.next().ok_or("--profiles needs a comma-separated list")?;
                    for n in names.split(',').filter(|n| !n.is_empty()) {
                        lint.profiles.push(named_profile(n)?);
                    }
                    continue;
                }
                "--allow" | "--warn" | "--deny" => {
                    let level = match a.as_str() {
                        "--allow" => LintLevel::Allow,
                        "--warn" => LintLevel::Warn,
                        _ => LintLevel::Deny,
                    };
                    let which = it.next().ok_or_else(|| format!("{a} needs a lint code"))?;
                    if which == "all" {
                        lint.opts.set_all(level);
                    } else {
                        let code = LintCode::parse(&which)
                            .ok_or_else(|| format!("unknown lint code {which}"))?;
                        lint.opts.set_level(code, level);
                    }
                    continue;
                }
                "--config-prefix" => {
                    let p = it.next().ok_or("--config-prefix needs a prefix")?;
                    if !prefixes_replaced {
                        lint.opts.config_prefixes.clear();
                        prefixes_replaced = true;
                    }
                    lint.opts.config_prefixes.push(p);
                    continue;
                }
                _ => {}
            }
        }
        match a.as_str() {
            "-I" => pp
                .include_paths
                .push(it.next().ok_or("-I needs a directory")?),
            "-D" => {
                let d = it.next().ok_or("-D needs a name")?;
                let (name, val) = d.split_once('=').unwrap_or((d.as_str(), "1"));
                pp.defines.push((name.to_string(), val.to_string()));
            }
            "--sat" => args.options.backend = CondBackend::Sat,
            "--mapr" => args.options.parser = ParserConfig::mapr(),
            "--level" => {
                let l = it.next().ok_or("--level needs a name")?;
                args.options.parser = match l.as_str() {
                    "full" => ParserConfig::full(),
                    "shared-lazy" => ParserConfig::shared_lazy(),
                    "shared" => ParserConfig::shared(),
                    "lazy" => ParserConfig::lazy(),
                    "follow" => ParserConfig::follow_only(),
                    "mapr" => ParserConfig::mapr(),
                    "mapr-largest" => ParserConfig::mapr_largest_first(),
                    other => return Err(format!("unknown level {other}")),
                };
            }
            "--single" => {
                pp.single_config = true;
                if let Some(names) = it.next() {
                    for n in names.split(',').filter(|n| !n.is_empty()) {
                        pp.defines.push((n.to_string(), "1".to_string()));
                    }
                }
            }
            "--preprocess" => args.show_preprocessed = true,
            "--ast" => args.show_ast = true,
            "--stats" => args.show_stats = true,
            "--jobs" | "-j" => {
                let n = it.next().ok_or("--jobs needs a count")?;
                args.jobs = n
                    .parse::<usize>()
                    .map_err(|_| format!("--jobs: not a count: {n}"))?;
            }
            "--max-subparsers" | "--parse-budget" | "--max-forks" | "--max-cond-nodes"
            | "--parse-time-ms" | "--include-depth" | "--hoist-cap" => {
                let n = it.next().ok_or_else(|| format!("{a} needs a count"))?;
                let n: u64 = n.parse().map_err(|_| format!("{a}: not a count: {n}"))?;
                let b = &mut args.options.budgets;
                match a.as_str() {
                    "--max-subparsers" => b.max_subparsers = n as usize,
                    "--parse-budget" => b.max_steps = n,
                    "--max-forks" => b.max_forks = n,
                    "--max-cond-nodes" => b.max_cond_nodes = n as usize,
                    "--parse-time-ms" => b.max_millis = n,
                    "--include-depth" => b.max_include_depth = n as usize,
                    _ => b.hoist_cap = n as usize,
                }
            }
            "--no-fastpath" => no_fastpath = true,
            "--warm" => {
                let n = it.next().ok_or("--warm needs a run count")?;
                args.warm = n
                    .parse::<usize>()
                    .map_err(|_| format!("--warm: not a count: {n}"))?;
                if args.warm == 0 {
                    return Err("--warm needs at least 1 run".to_string());
                }
            }
            "--edit" => {
                let spec = it.next().ok_or("--edit needs run:dest=src")?;
                let parsed = spec.split_once(':').and_then(|(run, rest)| {
                    let run = run.parse::<usize>().ok().filter(|&r| r > 0)?;
                    let (dest, src) = rest.split_once('=')?;
                    Some((run, dest.to_string(), src.to_string()))
                });
                match parsed {
                    Some(e) => args.edits.push(e),
                    None => return Err(format!("--edit: expected run:dest=src, got {spec}")),
                }
            }
            "--profile" => {
                let n = it.next().ok_or("--profile needs a name")?;
                pp.profile = named_profile(&n)?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: superc [lint|daemon] [-I dir] [-D name[=v]] [--sat] [--mapr] \
                            [--level L] [--single names] [--preprocess] [--ast] [--stats] \
                            [--jobs N] [--no-fastpath] [--profile name] \
                            [--warm N] [--edit R:dst=src] \
                            [--max-subparsers N] [--parse-budget N] [--max-forks N] \
                            [--max-cond-nodes N] [--parse-time-ms N] [--include-depth N] \
                            [--hoist-cap N] files...\n\
                            lint mode adds: [--format text|json|sarif] [--profiles a,b,c] \
                            [--allow|--warn|--deny code|all] [--config-prefix P]\n\
                            daemon mode takes no files; it serves NDJSON requests on stdin"
                        .to_string(),
                )
            }
            f if !f.starts_with('-') => args.files.push(f.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if args.daemon {
        if !args.files.is_empty() {
            return Err("daemon mode takes no input files".to_string());
        }
        if args.warm > 0 || !args.edits.is_empty() {
            return Err("daemon mode does not take --warm/--edit".to_string());
        }
    } else if args.files.is_empty() {
        return Err("no input files (try --help)".to_string());
    }
    if args.warm == 0 && !args.edits.is_empty() {
        return Err("--edit requires --warm".to_string());
    }
    if let Some((r, _, _)) = args.edits.iter().find(|(r, _, _)| *r > args.warm) {
        return Err(format!("--edit run {r} is beyond --warm {}", args.warm));
    }
    if pp.include_paths.is_empty() {
        pp.include_paths.push("include".to_string());
    }
    if no_fastpath {
        args.options.parser.fastpath = false;
        pp.fuse_lexing = false;
    }
    args.options.pp = pp;
    Ok(args)
}

/// Resolves a profile name, listing the shipped names on failure.
fn named_profile(name: &str) -> Result<Profile, String> {
    Profile::named(name).ok_or_else(|| {
        format!(
            "unknown profile {name} (expected one of: {})",
            Profile::all_names().join(", ")
        )
    })
}

/// Writes rendered output the way every corpus-driver path exits: all
/// stderr bytes, then all stdout bytes, then the exit code. A run that
/// failed before rendering (a `--edit` copy) prints only its error.
fn emit(r: Result<Rendered, String>) -> ExitCode {
    let r = match r {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    eprint!("{}", r.stderr);
    print!("{}", r.stdout);
    if r.failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.daemon {
        return run_daemon(&args);
    }
    if let Some(lint) = &args.lint {
        return run_lint(&args, lint);
    }
    // Multi-file runs always go through the corpus driver, even with
    // `--jobs 1`: the driver renders conditions canonically and prints in
    // input order, so output is byte-identical for any job count. Warm
    // re-runs need the pooled driver regardless of file count.
    if args.files.len() > 1 || args.warm > 0 {
        return run_parallel(&args);
    }
    let mut sc = SuperC::new(args.options, DiskFs::new("."));
    let mut failed = false;
    for file in &args.files {
        match sc.process(file) {
            Err(e) => {
                eprintln!("{file}: fatal: {e}");
                failed = true;
            }
            Ok(p) => {
                for d in &p.unit.diagnostics {
                    if !matches!(d.severity, superc::cpp::Severity::Note) {
                        eprintln!("{file}: [{:?}] under {}: {}", d.severity, d.cond, d.message);
                    }
                }
                for e in &p.result.errors {
                    // Positions render with the file *name* (matching the
                    // corpus driver), not the raw numeric `FileId`.
                    match e.pos {
                        Some(pos) => {
                            let name = sc.preprocessor().file_name(pos.file).unwrap_or("<unknown>");
                            eprintln!(
                                "{file}: {name}:{}:{}: {} (at '{}', config {})",
                                pos.line, pos.col, e.message, e.got, e.cond
                            );
                        }
                        None => eprintln!("{file}: {e}"),
                    }
                    failed = true;
                }
                for t in &p.result.trips {
                    eprintln!("{file}: warning: {}", superc::corpus::render_trip(t));
                }
                if args.show_preprocessed {
                    println!("{}", p.unit.display_text());
                }
                if args.show_ast {
                    match &p.result.ast {
                        Some(ast) => println!("{ast}"),
                        None => eprintln!("{file}: no configuration parsed"),
                    }
                }
                if args.show_stats {
                    let s = &p.unit.stats;
                    let ps = &p.result.stats;
                    println!(
                        "{file}: {} tokens, {} conditionals, {} macro invocations \
                         ({} hoisted), {ps}, {:?} total",
                        s.output_tokens,
                        s.output_conditionals,
                        s.macro_invocations,
                        s.invocations_hoisted,
                        p.timings.total()
                    );
                    let report = superc::CorpusReport::of_unit(&sc, file, &p);
                    print!("{}", superc::report::corpus_table(&report).render());
                }
                if let Some(acc) = &p.result.accepted {
                    if !acc.is_true() {
                        eprintln!("{file}: parses only under {acc}");
                    }
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Applies the `--edit` patches scheduled before 1-based warm run `run`
/// (copy `src` over `dest`, in flag order).
fn apply_edits(args: &Args, run: usize) -> Result<(), String> {
    for (r, dest, src) in &args.edits {
        if *r == run {
            std::fs::copy(src, dest)
                .map_err(|e| format!("--edit: cannot copy {src} over {dest}: {e}"))?;
        }
    }
    Ok(())
}

/// Runs the corpus over one pooled [`CorpusRunner`] rooted at the
/// working directory, `batch` running one batch: once, or with
/// `--warm N` N times with the unit result memo on and the scheduled
/// `--edit`s applied at each batch boundary. Returns only the final
/// batch's report — the one the caller prints, and the one bench/verify
/// scripts compare byte-for-byte against a cold run over the final
/// tree.
fn run_corpus<R>(
    args: &Args,
    mut copts: CorpusOptions,
    batch: impl Fn(&mut CorpusRunner<DiskFs>, &CorpusOptions) -> R,
) -> Result<R, String> {
    copts.warm = args.warm > 0;
    let fs = std::sync::Arc::new(DiskFs::new("."));
    let mut pool = CorpusRunner::new(&args.options, fs, args.jobs);
    apply_edits(args, 1)?;
    let mut report = batch(&mut pool, &copts);
    for run in 2..=args.warm {
        apply_edits(args, run)?;
        report = batch(&mut pool, &copts);
    }
    Ok(report)
}

/// `superc lint`: run the corpus driver with linting enabled and print
/// diagnostics in input order. With `--profiles`, every unit runs under
/// each named profile and the per-profile results are diffed into the
/// `portability-*` lints.
fn run_lint(args: &Args, lint: &LintArgs) -> ExitCode {
    let copts = CorpusOptions {
        jobs: args.jobs,
        lint: Some(lint.opts.clone()),
        ..CorpusOptions::default()
    };
    emit(if lint.profiles.is_empty() {
        run_corpus(args, copts, |pool, copts| pool.run(&args.files, copts))
            .map(|report| cli::render_lint_report(&report, lint.format, args.show_stats))
    } else {
        run_corpus(args, copts, |pool, copts| {
            pool.run_profiles(&args.files, &lint.profiles, copts)
        })
        .map(|report| cli::render_lint_profiles(&report, lint.format, &lint.opts, args.show_stats))
    })
}

/// Multi-file parallel path: fan out over the corpus driver, then print
/// per-unit results in input order (so output is stable for any job
/// count).
fn run_parallel(args: &Args) -> ExitCode {
    let copts = CorpusOptions {
        jobs: args.jobs,
        capture: Capture {
            preprocessed: args.show_preprocessed,
            ast: args.show_ast,
            unparse_configs: Vec::new(),
        },
        ..CorpusOptions::default()
    };
    emit(
        run_corpus(args, copts, |pool, copts| pool.run(&args.files, copts))
            .map(|report| cli::render_corpus_report(&report, args.show_ast, args.show_stats)),
    )
}

/// `superc daemon`: NDJSON requests on stdin, one response line each on
/// stdout ([`superc::service::daemon::serve`]), over a [`Driver`]
/// rooted at the current directory. Parse and lint responses are
/// byte-identical to fresh one-shot CLI runs over the same tree —
/// verify.sh diffs exactly that. The session ends quietly when stdin
/// closes or stdout goes away.
fn run_daemon(args: &Args) -> ExitCode {
    let mut driver = Driver::with_disk_root(args.options.clone(), args.jobs, ".");
    if driver.end_generation().is_err() {
        eprintln!("daemon: driver initialization failed");
        return ExitCode::FAILURE;
    }
    let (input, output) = (std::io::stdin().lock(), std::io::stdout().lock());
    let _ = superc::service::daemon::serve(&mut driver, input, output);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod cli_args_tests {
    use super::*;

    fn pa(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn warm_zero_is_a_usage_error_not_a_panic() {
        let err = pa(&["--warm", "0", "a.c"]).err().expect("must be rejected");
        assert!(err.contains("--warm needs at least 1"), "got: {err}");
        let err = pa(&["lint", "--warm", "0", "a.c"]).err().expect("rejected");
        assert!(err.contains("--warm needs at least 1"), "got: {err}");
    }

    #[test]
    fn warm_accepts_positive_counts() {
        let args = pa(&["--warm", "3", "a.c"]).expect("valid");
        assert_eq!(args.warm, 3);
    }

    #[test]
    fn edit_out_of_range_is_a_usage_error() {
        let err = pa(&["--warm", "2", "--edit", "3:a.h=b.h", "a.c"])
            .err()
            .expect("edit beyond warm must be rejected");
        assert!(err.contains("beyond --warm"), "got: {err}");
        let err = pa(&["--edit", "1:a.h=b.h", "a.c"])
            .err()
            .expect("edit without warm must be rejected");
        assert!(err.contains("requires --warm"), "got: {err}");
        let err = pa(&["--warm", "2", "--edit", "0:a.h=b.h", "a.c"])
            .err()
            .expect("run 0 must be rejected");
        assert!(err.contains("expected run:dest=src"), "got: {err}");
    }

    #[test]
    fn daemon_mode_takes_no_files_or_warm() {
        let args = pa(&["daemon", "-I", "include", "--jobs", "2"]).expect("valid daemon args");
        assert!(args.daemon);
        assert!(pa(&["daemon", "a.c"]).is_err());
        assert!(pa(&["daemon", "--warm", "2"]).is_err());
    }
}
