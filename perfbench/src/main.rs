//! `cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_lint|edit_serve|profile_matrix> --seed <n> \
//!     --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as the last line of
//! stdout, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics untraced, the per-layer metrics traced. Set-up
//! time is the median of this process's own set-up and
//! `SETUP_SAMPLES - 1` fresh child processes that only set up
//! (`--setup-probe`), since the grammar tables are built once per
//! process.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use superc::service::Driver;
use superc_kernelgen::Corpus;
use superc_perfbench::batch::Batch;
use superc_perfbench::measure::{json_num, median, process_cpu_s, ratio};
use superc_perfbench::trace::Tracer;
use superc_perfbench::{serve, Outcome, Workload, END_TO_END, PER_LAYER};

/// Set-up samples per run (this process plus fresh children).
const SETUP_SAMPLES: usize = 5;

/// Scratch space under the working directory: gcc's copy of the tree and
/// the trace files.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut setup_probe = false;
    while let Some(flag) = raw.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or(format!("unknown workload {name}"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        setup_probe,
    })
}

/// One set-up measurement in CPU seconds: the grammar tables, plus
/// (edit_serve) the daemon's driver filled with the tree and linted once.
struct Setup {
    grammar_s: f64,
    fill_s: f64,
}

impl Setup {
    fn total(&self) -> f64 {
        self.grammar_s + self.fill_s
    }
}

/// Sets up a workload: the grammar tables, then, given the served tree,
/// the daemon's driver.
fn set_up(serve_tree: Option<&Corpus>) -> Result<(Setup, Option<Driver>), String> {
    let t0 = process_cpu_s();
    std::hint::black_box(superc::c_artifacts());
    let grammar_s = process_cpu_s() - t0;
    let Some(tree) = serve_tree else {
        let fill_s = 0.0;
        return Ok((Setup { grammar_s, fill_s }, None));
    };
    let t1 = process_cpu_s();
    let driver = serve::fill(tree)?;
    let fill_s = process_cpu_s() - t1;
    Ok((Setup { grammar_s, fill_s }, Some(driver)))
}

/// Runs `SETUP_SAMPLES - 1` fresh set-up-only processes, one at a time.
fn probe_setups(args: &Args) -> Result<Vec<Setup>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (1..SETUP_SAMPLES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", "--workload", &args.name])
                .args(["--seed", &args.seed.to_string()])
                .output()
                .map_err(|e| format!("set-up probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let nums: Vec<f64> = text
                .split_whitespace()
                .filter_map(|w| w.parse().ok())
                .collect();
            match (out.status.success(), nums.as_slice()) {
                (true, [grammar_s, fill_s]) => Ok(Setup {
                    grammar_s: *grammar_s,
                    fill_s: *fill_s,
                }),
                _ => Err(format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                )),
            }
        })
        .collect()
}

fn run(args: &Args) -> Result<(Outcome, Vec<Setup>), String> {
    let batch = match args.workload {
        Workload::ColdLint => Some(Batch::cold_lint()),
        Workload::ProfileMatrix => Some(Batch::profile_matrix()),
        Workload::EditServe => None,
    };
    let serve_tree = batch.is_none().then(|| serve::corpus(args.seed));
    let (own, driver) = set_up(serve_tree.as_ref())?;
    if args.setup_probe {
        println!("{} {}", json_num(own.grammar_s), json_num(own.fill_s));
        return Ok((Outcome::default(), Vec::new()));
    }

    let mut tracer = Tracer::new(args.trace);
    let work = Path::new(WORK_DIR);
    let mut outcome = match (&batch, serve_tree, driver) {
        (Some(b), _, _) => {
            let gcc_dir = work.join(format!("gcc-{}-{}", args.name, std::process::id()));
            let corpus = b.corpus(args.seed);
            b.run(&corpus, args.seed, args.seconds, &mut tracer, &gcc_dir)
        }
        (None, Some(tree), Some(mut d)) => {
            serve::run(&tree, &mut d, args.seed, args.seconds, &mut tracer)
        }
        _ => unreachable!("edit_serve set-up returns its tree and driver"),
    };
    let mut setups = vec![own];
    setups.extend(probe_setups(args)?);
    if tracer.on() {
        let path: PathBuf = work.join(format!("trace-{}-seed{}.json", args.name, args.seed));
        std::fs::create_dir_all(work)
            .and_then(|()| tracer.write(&path))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        outcome.note(format!("trace written to {}", path.display()));
        let grammar: Vec<f64> = setups.iter().map(|s| s.grammar_s).collect();
        let fill: Vec<f64> = setups.iter().map(|s| s.fill_s).collect();
        outcome.layers.set("grammar.build_s", median(&grammar), "s");
        if args.workload == Workload::EditServe {
            outcome.layers.set("service.fill_s", median(&fill), "s");
        }
    }
    Ok((outcome, setups))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut outcome, setups) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.setup_probe {
        return ExitCode::SUCCESS;
    }
    let totals: Vec<f64> = setups.iter().map(Setup::total).collect();
    outcome.e2e.set("setup_s", median(&totals), "s");

    println!(
        "workload {} seed {} jobs {} trace {}",
        args.name,
        args.seed,
        superc_perfbench::JOBS,
        args.trace as u8
    );
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for (name, n) in &outcome.counts {
        println!("{name} {n}");
    }
    for (name, v, unit) in &outcome.wall {
        println!("wall {name} {} {unit}", json_num(*v));
    }
    println!("setup_samples {}", setups.len());
    println!(
        "fail_share {} ratio ({} of {} operations failed)",
        json_num(ratio(outcome.failed as f64, outcome.attempted as f64)),
        outcome.failed,
        outcome.attempted
    );
    let e2e = outcome.e2e.to_json(END_TO_END);
    let metrics = if args.trace {
        // The traced run's own end-to-end values: the gap to an untraced
        // run of the same seed is what tracing costs.
        println!("traced end_to_end {e2e}");
        outcome.layers.to_json(PER_LAYER)
    } else {
        e2e
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    ExitCode::SUCCESS
}
