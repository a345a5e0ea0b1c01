//! The editor workload, `edit_serve`: one closed-loop client drives an
//! NDJSON daemon session through `service::daemon::handle_line` on a
//! `Driver` that holds the whole tree. Each request is an `edit` line
//! with new contents for one file followed by a `lint` line (json, all
//! units); its latency runs from sending the edit to receiving the lint
//! response.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use superc::analyze::render::json_str;
use superc::analyze::LintOptions;
use superc::cli::{self, LintFormat, Rendered};
use superc::corpus::{process_corpus, CorpusOptions};
use superc::service::{daemon, Driver, DriverFs};
use superc::{Options, SharedCache, SuperC};
use superc_kernelgen::Corpus;
use superc_util::json::Json;
use superc_util::SmallRng;

use crate::gen::{dependents, kernel_tree, sample_indices, sorted_files, EditStream, HEADER_EVERY};
use crate::measure::{median, peak_rss_mb, process_cpu_s, quantile, ratio, Totals};
use crate::trace::Tracer;
use crate::{batch, Outcome, JOBS};

/// Compilation units in the served tree.
pub const UNITS: usize = 256;

/// Requests every run sends at least: 1000 leave 50 samples beyond p95,
/// and peak memory is read at this count so that it does not depend on
/// how fast the host ran.
pub const MIN_REQUESTS: usize = 1000;

/// Requests whose lint response is compared against a fresh one-shot run.
const SERVED_CHECKS: usize = 5;

/// The served tree at `seed`.
pub fn corpus(seed: u64) -> Corpus {
    kernel_tree(UNITS, seed)
}

/// The lint request every edit is followed by.
pub fn lint_line(units: &[String]) -> String {
    let units: Vec<String> = units.iter().map(|u| json_str(u)).collect();
    format!(
        "{{\"cmd\":\"lint\",\"units\":[{}],\"format\":\"json\"}}",
        units.join(",")
    )
}

/// The NDJSON line for one edit.
pub fn edit_line(path: &str, contents: &str) -> String {
    format!(
        "{{\"cmd\":\"edit\",\"path\":{},\"contents\":{}}}",
        json_str(path),
        json_str(contents)
    )
}

/// A response line encoded the way the daemon encodes one.
fn encode(result: &Result<Rendered, String>) -> String {
    match result {
        Ok(r) => format!(
            "{{\"ok\":true,\"stdout\":{},\"stderr\":{},\"failed\":{}}}",
            json_str(&r.stdout),
            json_str(&r.stderr),
            r.failed
        ),
        Err(e) => format!("{{\"ok\":false,\"error\":{}}}", json_str(e)),
    }
}

/// Builds the daemon's state: `Driver::new`, the whole tree staged in
/// its first generation, and the first full lint.
pub fn fill(corpus: &Corpus) -> Result<Driver, String> {
    let mut driver = Driver::new(Options::default(), JOBS);
    for (path, contents) in sorted_files(corpus) {
        driver.set_file(&path, &contents)?;
    }
    driver.end_generation()?;
    let (resp, _) = daemon::handle_line(&mut driver, &lint_line(&corpus.units));
    check_lint_response(&resp).map(|_| driver)
}

/// A lint response is `ok`, not failed, and its stdout is lint JSON
/// whose `count` matches its diagnostics. Returns the stdout length.
fn check_lint_response(resp: &str) -> Result<usize, String> {
    let r = Json::parse(resp).map_err(|e| format!("response is not JSON: {e}"))?;
    if r.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("lint failed: {resp:.200}"));
    }
    if r.get("failed").and_then(Json::as_bool) != Some(false) {
        return Err("lint response reports a failed run".to_string());
    }
    let stdout = r.get("stdout").and_then(Json::as_str).unwrap_or_default();
    let body = Json::parse(stdout).map_err(|e| format!("lint stdout is not JSON: {e}"))?;
    let listed = body
        .get("diagnostics")
        .and_then(Json::as_array)
        .map(|a| a.len() as f64);
    if listed.is_none() || listed != body.get("count").and_then(Json::as_f64) {
        return Err("lint stdout count does not match its diagnostics".to_string());
    }
    Ok(stdout.len())
}

/// The serve loop and its checks.
pub fn run(
    corpus: &Corpus,
    driver: &mut Driver,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let lint = lint_line(&corpus.units);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E4E_D000);
    let mut checked = sample_indices(&mut rng, MIN_REQUESTS, SERVED_CHECKS - 1);
    checked.push(HEADER_EVERY * (1 + rng.gen_range(0..MIN_REQUESTS / HEADER_EVERY)) - 1);
    checked.sort_unstable();

    let mut replay = tracer.on().then(|| Replay::new(driver.fs()));
    let mut t = Totals::default();
    let (mut lat_ms, mut cpu_ms) = (Vec::new(), Vec::new());
    let mut served_s = 0.0;
    let mut recomputed = Vec::new();
    let mut served = Vec::new();
    let mut stream = EditStream::new(corpus, seed);
    let start = Instant::now();
    let mut i = 0usize;
    while i < MIN_REQUESTS || start.elapsed().as_secs_f64() < seconds {
        let edit = stream.next().expect("the edit stream is endless");
        let line = edit_line(&edit.path, &edit.contents);
        let deps = dependents(corpus, &edit.path);
        let id = i as u64;

        let cpu0 = process_cpu_s();
        let t0 = Instant::now();
        let (edit_resp, lint_resp) = if tracer.on() {
            traced_request(driver, tracer, id, &line, &lint)
        } else {
            let (e, _) = daemon::handle_line(driver, &line);
            let (l, _) = daemon::handle_line(driver, &lint);
            (e, l)
        };
        let wall = t0.elapsed().as_secs_f64();
        let cpu = process_cpu_s() - cpu0;
        lat_ms.push(wall * 1e3);
        cpu_ms.push(cpu * 1e3);
        served_s += wall;
        out.attempted += 1;

        let stats = driver.stats();
        let mut problem = None;
        if !edit_resp.starts_with("{\"ok\":true") {
            problem = Some(format!("edit failed: {edit_resp:.200}"));
        }
        match check_lint_response(&lint_resp) {
            Ok(bytes) => t.add("cli.output_bytes", bytes as f64),
            Err(e) => problem = Some(e),
        }
        if stats.unit_memo_misses != deps.len() as u64 {
            problem = Some(format!(
                "editing {} recomputed {} units, expected {}",
                edit.path,
                stats.unit_memo_misses,
                deps.len()
            ));
        }
        if let Some(p) = problem {
            out.fail(p);
        }

        t.add("request.wall", wall);
        t.add("cpp.files_rehashed", stats.files_rehashed as f64);
        t.add("corpus.memo_hits", stats.unit_memo_hits as f64);
        t.add("corpus.memo_misses", stats.unit_memo_misses as f64);
        t.add("corpus.units_recomputed", stats.unit_memo_misses as f64);
        if let Some(r) = replay.as_mut() {
            let busy = r.request(&deps, &mut t, tracer, id);
            t.add("busy", busy);
            t.add("busy.wall", busy / deps.len().clamp(1, JOBS) as f64);
        }
        if checked.contains(&i) {
            served.push((i, lint_resp));
        }
        recomputed.push(deps);
        i += 1;
        if i == MIN_REQUESTS {
            // Peak memory over the work every run does, however fast the
            // host: the fill plus the first MIN_REQUESTS requests (the
            // served tree's memory grows with the number of edits).
            out.e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");
        }
    }

    // Everything below runs after the timed loop, so neither the checks
    // nor the token count show up in the figures above.
    let options = Options::default();
    let lint_copts = CorpusOptions {
        jobs: JOBS,
        lint: Some(LintOptions::default()),
        ..CorpusOptions::default()
    };
    for (i, resp) in &served {
        // The tree as the daemon saw it at request `i`, rebuilt from the
        // seeded stream: each edit replaced its file, so the latest edit
        // of a path wins.
        let mut fs = corpus.fs.clone();
        for e in EditStream::new(corpus, seed).take(i + 1) {
            fs.add(&e.path, &e.contents);
        }
        let id = *i as u64;
        let fresh = tracer.time("check.served", id, || {
            process_corpus(&fs, &corpus.units, &options, &lint_copts)
        });
        let rendered = tracer.time("cli.render", id, || {
            cli::render_lint_report(&fresh, LintFormat::Json, false)
        });
        if encode(&Ok(rendered)) != *resp {
            out.fail(format!(
                "request {i}: served lint response differs from a fresh run"
            ));
        }
    }
    // Each request is credited with the output tokens of the units it
    // recomputed, counted on the unedited tree. The median over requests
    // keeps the rare, heavy header edits from swinging the figure.
    let base = process_corpus(
        &corpus.fs,
        &corpus.units,
        &options,
        &CorpusOptions {
            jobs: JOBS,
            ..CorpusOptions::default()
        },
    );
    let unit_tokens: HashMap<&str, u64> = base
        .units
        .iter()
        .map(|u| (u.path.as_str(), u.pp.output_tokens))
        .collect();
    let request_tokens: Vec<f64> = recomputed
        .iter()
        .map(|deps| deps.iter().map(|d| unit_tokens[d.as_str()]).sum::<u64>() as f64)
        .collect();
    let tok_per_cpu: Vec<f64> = request_tokens
        .iter()
        .zip(&cpu_ms)
        .map(|(tokens, ms)| tokens / (ms / 1e3))
        .collect();

    out.count("requests", i as u64);
    out.count("served_checks", served.len() as u64);
    out.e2e
        .set("tokens_per_cpu_s", median(&tok_per_cpu), "tok/s");
    out.e2e.set("op_cpu_p50_ms", median(&cpu_ms), "ms");
    out.wall(
        "tokens_per_s",
        request_tokens.iter().sum::<f64>() / served_s,
        "tok/s",
    );
    out.wall("request_p50_ms", median(&lat_ms), "ms");
    out.wall("request_p95_ms", quantile(&lat_ms, 0.95), "ms");
    out.wall("request_cpu_p95_ms", quantile(&cpu_ms, 0.95), "ms");

    if let Some(r) = replay {
        let n = i as f64;
        let nodes = r.finish(&mut t);
        let l = &mut out.layers;
        batch::set_run_layers(l, &t, n);
        l.set("bdd.nodes", nodes, "count");
        let render_s = tracer.total("cli.render") / served.len() as f64;
        let corpus_s = tracer.total("service.lint_rendered") / n - render_s;
        let (parse, edit, encode) = (
            tracer.total("json.parse"),
            tracer.total("service.edit"),
            tracer.total("service.encode"),
        );
        l.set("json.parse_s", parse / n, "s");
        l.set("service.edit_s", edit / n, "s");
        l.set("service.encode_s", encode / n, "s");
        l.set("analyze.lint_busy_s", t.get("analyze.lint") / n, "s");
        l.set("cli.render_s", render_s, "s");
        l.set("cli.output_bytes", t.get("cli.output_bytes") / n, "bytes");
        l.set("corpus.run_s", corpus_s, "s");
        l.set(
            "corpus.overhead_s",
            (t.get("request.wall") - parse - edit - encode - t.get("busy.wall")) / n - render_s,
            "s",
        );
        l.set(
            "corpus.worker_busy_share",
            ratio(t.get("busy") / n, JOBS as f64 * corpus_s),
            "ratio",
        );
    }
    out
}

/// One request driven through the public parts of `handle_line`, each
/// in its own span: `Json::parse`, the `Driver` edit calls,
/// `Driver::lint_rendered`, and the response encoding.
fn traced_request(
    driver: &mut Driver,
    tracer: &mut Tracer,
    id: u64,
    edit_line: &str,
    lint_line: &str,
) -> (String, String) {
    tracer.enter("request", id);
    let edit = tracer
        .time("json.parse", id, || Json::parse(edit_line))
        .map_err(|e| format!("bad request: {e}"))
        .and_then(|req| {
            let field = |k: &str| req.get(k).and_then(Json::as_str).map(str::to_string);
            match (field("path"), field("contents")) {
                (Some(p), Some(c)) => Ok((p, c)),
                _ => Err("edit needs a path and contents".to_string()),
            }
        });
    let edited = edit.and_then(|(path, contents)| {
        tracer.time("service.edit", id, || {
            driver.begin_generation()?;
            driver.set_file(&path, &contents)?;
            driver.end_generation()
        })
    });
    let edit_resp = tracer.time("service.encode", id, || {
        encode(&edited.map(|g| Rendered {
            stdout: format!("generation {g}\n"),
            ..Rendered::default()
        }))
    });
    let units = tracer.time("json.parse", id, || {
        let req = Json::parse(lint_line).map_err(|e| format!("bad request: {e}"))?;
        req.get("units")
            .and_then(Json::as_array)
            .ok_or("request needs a \"units\" array")?
            .iter()
            .map(|u| {
                u.as_str()
                    .map(str::to_string)
                    .ok_or("units must be strings")
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(str::to_string)
    });
    let rendered = units.and_then(|units| {
        tracer.time("service.lint_rendered", id, || {
            driver.lint_rendered(
                &units,
                LintFormat::Json,
                &[],
                &LintOptions::default(),
                false,
            )
        })
    });
    let lint_resp = tracer.time("service.encode", id, || encode(&rendered));
    tracer.exit();
    (edit_resp, lint_resp)
}

/// Replays each request's recomputed units on one thread over the
/// driver's tree, for the lexer, cpp, fmlr, bdd and lint numbers the
/// daemon does not return. The tool keeps its caches across requests
/// like a pooled worker, and starts a cache generation per request.
struct Replay {
    tool: SuperC<Arc<DriverFs>>,
    cache: Arc<SharedCache>,
    lopts: LintOptions,
}

impl Replay {
    fn new(fs: &Arc<DriverFs>) -> Replay {
        let cache = Arc::new(SharedCache::new());
        let mut tool = SuperC::new(Options::default(), Arc::clone(fs));
        tool.set_shared_cache(Arc::clone(&cache));
        Replay {
            tool,
            cache,
            lopts: LintOptions::default(),
        }
    }

    /// Replays `units`; returns their lex+cpp+fmlr+lint seconds.
    fn request(&mut self, units: &[String], t: &mut Totals, tracer: &mut Tracer, id: u64) -> f64 {
        self.cache.next_generation();
        let mut busy = 0.0;
        for unit in units {
            let tool = &mut self.tool;
            let Ok(p) = tracer.time("superc.process", id, || tool.process(unit)) else {
                continue;
            };
            let t0 = Instant::now();
            let lints = tracer.time("analyze.lint", id, || tool.lint(&p, &self.lopts));
            let lint_s = t0.elapsed().as_secs_f64();
            let (lex, pp, parse) = (
                p.timings.lexing.as_secs_f64(),
                p.timings.preprocessing.as_secs_f64(),
                p.timings.parsing.as_secs_f64(),
            );
            busy += lex + pp + parse + lint_s;
            t.add("lexer.busy", lex);
            t.add("cpp.busy", pp);
            t.add("fmlr.busy", parse);
            t.add("analyze.lint", lint_s);
            t.add("analyze.lints", lints.len() as f64);
            batch::add_stats(t, &p.unit.stats, &p.result.stats);
        }
        busy
    }

    /// Adds the replay manager's BDD counters (cumulative over the run)
    /// and returns its node count at the end.
    fn finish(&self, t: &mut Totals) -> f64 {
        let b = self.tool.ctx().bdd_stats().unwrap_or_default();
        batch::add_bdd(t, &b);
        b.nodes as f64
    }
}
