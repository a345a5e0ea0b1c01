//! The performance snapshot and its gates: the paper's §6 workloads and
//! the speedup each added mechanism must keep, measured and judged in
//! one process. `scripts/bench.sh` builds this binary and runs it with
//! its own arguments:
//!
//! ```text
//! scripts/bench.sh              # gate, and compare with BENCH_fmlr.json
//! scripts/bench.sh --update     # gate, then rewrite BENCH_fmlr.json
//! scripts/bench.sh --reps 3     # every group 3 reps (a quick look)
//! ```
//!
//! [`GROUPS`] declares every row and gate once. Each leg of a group is
//! one row: one call of the corpus driver (`process_corpus`,
//! `process_corpus_profiles`, a pooled `CorpusRunner` or the service
//! `Driver`) that returns its report, and every leg must agree with the
//! group's first through `CorpusReport::check_same` on the group's
//! counter classes. After one untimed rep, each rep runs a group's legs
//! back to back, in reverse order every other rep, and one rep loop
//! spreads every group's reps over the whole run. A gate reads one value
//! from each rep's legs and is judged on the median over reps, so drift
//! that spans a rep cancels out of it, and a spell of host noise moves
//! only the few reps it overlaps; each row shows its median rep. Legs
//! are timed in process CPU time, which leaves out the time the host ran
//! something else. The jobs ladder keeps wall time, since wall time is
//! what parallelism buys.
//!
//! Without `--update`, each compared row must also keep 60% of its
//! committed tokens per second ([`CROSS_RUN_FLOOR`]). With it, the
//! snapshot is written only when every gate passes.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use superc::analyze::render::json_str;
use superc::analyze::LintOptions;
use superc::bdd::BddStats;
use superc::cond::CondStats;
use superc::counters::{Class, Counted};
use superc::report::TextTable;
use superc::service::{Driver, DriverFs};
use superc::{
    Budgets, CondBackend, CorpusOptions, CorpusReport, CorpusRunner, FileSystem, MemFs, Options,
    ParseStats, ParserConfig, PpStats, Profile,
};
use superc_bench::{
    condfree_corpus, fig9_corpus, full_headers_corpus, kernel_corpus, pp_options, profiles_corpus,
};
use superc_kernelgen::Corpus;
use superc_util::json::Json;

use Bound::{AtLeast, AtMost, Floors};
use Reading::{Change, HitRate, Ratio};

#[cfg(test)]
mod tests;

/// What a gate reads from one rep's legs.
#[derive(Clone, Copy, Debug)]
enum Reading {
    /// `seconds[a] / seconds[b]`: how many times faster leg `b` ran, or
    /// (under a cap) what leg `a` costs in units of leg `b`.
    Ratio(usize, usize),
    /// `seconds[a] / seconds[b] - 1`: leg `b`'s throughput change
    /// against leg `a`, shown in percent.
    Change(usize, usize),
    /// Leg `a`'s shared-cache hit rate.
    HitRate(usize),
}

impl Reading {
    /// The rows the reading compares, as the gate's lines show them.
    fn rows(self, rows: &[&str]) -> String {
        match self {
            Ratio(a, b) | Change(a, b) => format!("{}/{}", rows[a], rows[b]),
            HitRate(a) => rows[a].to_string(),
        }
    }

    fn of(self, legs: &[&Run]) -> f64 {
        match self {
            Ratio(a, b) => legs[a].secs / legs[b].secs,
            Change(a, b) => legs[a].secs / legs[b].secs - 1.0,
            HitRate(a) => {
                let pp = &legs[a].pp;
                let probes = pp.shared_cache_hits + pp.shared_cache_misses;
                pp.shared_cache_hits as f64 / probes.max(1) as f64
            }
        }
    }
}

/// The values a gate admits.
#[derive(Clone, Copy, Debug)]
enum Bound {
    AtLeast(f64),
    AtMost(f64),
    /// A floor that depends on the machine: the first `(cores, floor)`
    /// entry whose core count the machine has.
    Floors(&'static [(usize, f64)]),
}

impl Bound {
    fn limit(self, cores: usize) -> f64 {
        match self {
            AtLeast(v) | AtMost(v) => v,
            Floors(floors) => floors
                .iter()
                .find(|&&(c, _)| cores >= c)
                .map_or(0.0, |&(_, v)| v),
        }
    }

    fn admits(self, value: f64, cores: usize) -> bool {
        match self {
            AtMost(cap) => value <= cap,
            _ => value >= self.limit(cores),
        }
    }
}

struct Gate {
    what: &'static str,
    reading: Reading,
    bound: Bound,
}

const fn gate(what: &'static str, reading: Reading, bound: Bound) -> Gate {
    Gate {
        what,
        reading,
        bound,
    }
}

/// One question the snapshot answers: legs measured together and the
/// gates that read them.
struct Group {
    /// One row per leg, in leg order.
    rows: &'static [&'static str],
    /// The rows the cross-run compare reads.
    compared: &'static [&'static str],
    /// The counter classes every leg must agree on with the first.
    keep: &'static [Class],
    /// Time the legs in wall time instead of process CPU time.
    wall: bool,
    /// Timed reps.
    reps: usize,
    gates: &'static [Gate],
    /// Builds the state the legs share.
    legs: fn() -> Box<dyn Legs>,
}

/// Runs that may differ only in schedule or cache agree on these.
const SAME_MODE: &[Class] = &[Class::Behavior, Class::Mode];

/// The share of its committed tokens per second a compared row may
/// lose. Unlike a gate's legs, two snapshots do not share their reps,
/// so a shift in the host between them stays in the comparison.
const CROSS_RUN_FLOOR: f64 = -0.40;

/// The jobs ladder's floors by core count (see [`Bound::Floors`]).
const J2_FLOORS: &[(usize, f64)] = &[(2, 1.7), (1, 0.4)];
const J8_FLOORS: &[(usize, f64)] = &[(8, 3.0), (4, 2.0), (2, 1.3), (1, 0.3)];

const GROUPS: &[Group] = &[
    // Arming every budget, with none tripping, must stay nearly free.
    Group {
        rows: &["fig9", "fig9_governed"],
        compared: &["fig9", "fig9_governed"],
        keep: SAME_MODE,
        wall: false,
        reps: 64,
        gates: &[gate("governed cost", Change(0, 1), AtLeast(-0.02))],
        legs: || one_shot(fig9_corpus(), 1, [(options(), true), (governed(), true)]),
    },
    // The shared cache must fire and pay for itself where eight workers
    // would each lex every header.
    Group {
        rows: &["full_headers", "full_headers_nocache"],
        compared: &["full_headers"],
        keep: SAME_MODE,
        wall: false,
        reps: 24,
        gates: &[
            gate("shared-cache hit rate", HitRate(0), AtLeast(0.15)),
            gate("cache speedup", Ratio(1, 0), AtLeast(1.3)),
        ],
        legs: || {
            one_shot(
                full_headers_corpus(),
                8,
                [(options(), false), (options(), true)],
            )
        },
    },
    // The fast path must pay on a conditional-free corpus.
    Group {
        rows: &["fig9_condfree", "fig9_condfree_nofp"],
        compared: &["fig9_condfree"],
        keep: &[Class::Behavior],
        wall: false,
        reps: 6,
        gates: &[gate("fast-path speedup", Ratio(1, 0), AtLeast(1.25))],
        legs: || {
            one_shot(
                condfree_corpus(),
                1,
                [(options(), true), (no_fastpath(), true)],
            )
        },
    },
    // Three profiles over one L2 must cost well under three runs.
    Group {
        rows: &["fig9_profiles", "fig9_profiles1"],
        compared: &["fig9_profiles"],
        keep: SAME_MODE,
        wall: false,
        reps: 24,
        gates: &[gate("profiles cost", Ratio(0, 1), AtMost(2.4))],
        legs: || matrix(profiles_corpus()),
    },
    // With ~1% of units edited, a warm batch must replay the rest from
    // the unit memo.
    Group {
        rows: &["fig_incremental_cold", "fig_incremental"],
        compared: &[],
        keep: SAME_MODE,
        wall: false,
        reps: 10,
        gates: &[gate("warm speedup", Ratio(0, 1), AtLeast(3.0))],
        legs: || incremental(kernel_corpus()),
    },
    // The same edits served by a long-running Driver must beat a fresh
    // one-shot run over its tree.
    Group {
        rows: &["fig_daemon_cold", "fig_daemon"],
        compared: &[],
        keep: SAME_MODE,
        wall: false,
        reps: 10,
        gates: &[gate("daemon speedup", Ratio(0, 1), AtLeast(3.0))],
        legs: || served(kernel_corpus()),
    },
    // Pooled runners at 1, 2, 4 and 8 workers. Where the machine lacks
    // the cores, a floor only rejects a catastrophic loss.
    Group {
        rows: &["kernel_j1", "kernel_j2", "kernel_j4", "kernel_j8"],
        compared: &["kernel_j1", "kernel_j2", "kernel_j4", "kernel_j8"],
        keep: SAME_MODE,
        wall: true,
        reps: 10,
        gates: &[
            gate("kernel_j2 speedup", Ratio(0, 1), Floors(J2_FLOORS)),
            gate("kernel_j8 speedup", Ratio(0, 3), Floors(J8_FLOORS)),
        ],
        legs: || ladder(kernel_corpus(), &[1, 2, 4, 8]),
    },
];

fn options() -> Options {
    Options {
        backend: CondBackend::Bdd,
        parser: ParserConfig::full(),
        pp: pp_options(),
        budgets: Budgets::unlimited(),
    }
}

/// [`options`] with every budget armed far above anything the corpus
/// reaches: what is left is the governed path's bookkeeping.
fn governed() -> Options {
    Options {
        budgets: Budgets {
            max_subparsers: 1 << 20,
            max_forks: 1 << 40,
            max_steps: 1 << 40,
            max_cond_nodes: 1 << 40,
            max_millis: 600_000,
            max_include_depth: 200,
            hoist_cap: 4096,
        },
        ..options()
    }
}

/// [`options`] under `--no-fastpath`.
fn no_fastpath() -> Options {
    let mut o = options();
    o.parser.fastpath = false;
    o.pp.fuse_lexing = false;
    o
}

/// Workers for the pooled and cross-profile legs: at least two, so they
/// schedule, and at most eight.
fn par_jobs() -> usize {
    superc::corpus::default_jobs().clamp(2, 8)
}

/// The state a group's legs share across reps.
trait Legs {
    /// Runs before each rep's legs.
    fn prepare(&mut self, _rep: usize) {}
    /// Runs leg `i` once: one report per profile.
    fn run(&mut self, i: usize) -> Vec<CorpusReport>;
}

/// Legs that each make one `process_corpus` call with their own options.
struct OneShot {
    corpus: Corpus,
    legs: Vec<(Options, CorpusOptions)>,
}

/// [`OneShot`] legs on `jobs` workers; each leg's flag turns the shared
/// cache off.
fn one_shot(corpus: Corpus, jobs: usize, legs: [(Options, bool); 2]) -> Box<dyn Legs> {
    let legs = legs
        .into_iter()
        .map(|(options, no_shared_cache)| {
            let copts = CorpusOptions {
                jobs,
                no_shared_cache,
                ..CorpusOptions::default()
            };
            (options, copts)
        })
        .collect();
    Box::new(OneShot { corpus, legs })
}

impl Legs for OneShot {
    fn run(&mut self, i: usize) -> Vec<CorpusReport> {
        let (options, copts) = &self.legs[i];
        let c = &self.corpus;
        vec![superc::process_corpus(&c.fs, &c.units, options, copts)]
    }
}

/// Legs that each make one lint-on `process_corpus_profiles` call over
/// their own profiles.
struct Matrix {
    corpus: Corpus,
    legs: [Vec<Profile>; 2],
}

/// [`Matrix`] legs: the three builtin profiles, then gcc-linux alone.
fn matrix(corpus: Corpus) -> Box<dyn Legs> {
    let gcc = Profile::gcc_linux();
    let three = vec![gcc.clone(), Profile::clang_macos(), Profile::msvc_windows()];
    Box::new(Matrix {
        corpus,
        legs: [three, vec![gcc]],
    })
}

impl Legs for Matrix {
    fn run(&mut self, i: usize) -> Vec<CorpusReport> {
        let copts = CorpusOptions {
            jobs: par_jobs(),
            lint: Some(LintOptions::default()),
            ..CorpusOptions::default()
        };
        let c = &self.corpus;
        superc::process_corpus_profiles(&c.fs, &c.units, &options(), &self.legs[i], &copts).runs
    }
}

/// One pooled runner per leg.
struct Ladder {
    corpus: Corpus,
    pools: Vec<CorpusRunner<MemFs>>,
}

fn ladder(corpus: Corpus, jobs: &[usize]) -> Box<dyn Legs> {
    let fs = Arc::new(corpus.fs.clone());
    let pools = jobs
        .iter()
        .map(|&j| CorpusRunner::new(&options(), Arc::clone(&fs), j))
        .collect();
    Box::new(Ladder { corpus, pools })
}

impl Legs for Ladder {
    fn run(&mut self, i: usize) -> Vec<CorpusReport> {
        vec![self.pools[i].run(&self.corpus.units, &CorpusOptions::default())]
    }
}

/// A pooled runner over an editable tree: leg 0 a cold batch, leg 1 a
/// batch that consults the unit memo, after each rep's [`edits`].
struct Incremental {
    corpus: Corpus,
    fs: Arc<DriverFs>,
    pool: CorpusRunner<DriverFs>,
}

fn incremental(corpus: Corpus) -> Box<dyn Legs> {
    let fs = Arc::new(DriverFs::new());
    for (path, contents) in corpus.fs.iter() {
        fs.set(path, contents);
    }
    let mut pool = CorpusRunner::new(&options(), Arc::clone(&fs), par_jobs());
    let warm = CorpusOptions {
        warm: true,
        ..CorpusOptions::default()
    };
    pool.run(&corpus.units, &warm);
    Box::new(Incremental { corpus, fs, pool })
}

impl Legs for Incremental {
    fn prepare(&mut self, rep: usize) {
        for (path, text) in edits(&self.corpus, rep) {
            self.fs.set(&path, &text);
        }
    }

    fn run(&mut self, i: usize) -> Vec<CorpusReport> {
        let copts = CorpusOptions {
            warm: i == 1,
            ..CorpusOptions::default()
        };
        let report = self.pool.run(&self.corpus.units, &copts);
        if i == 1 {
            assert_replayed(&self.corpus, &report);
        }
        vec![report]
    }
}

/// A service driver that takes each rep's [`edits`] as one generation:
/// leg 0 a fresh one-shot run over the driver's tree, leg 1 a served
/// request.
struct Served {
    corpus: Corpus,
    driver: Driver,
}

fn served(corpus: Corpus) -> Box<dyn Legs> {
    let mut driver = Driver::new(options(), par_jobs());
    for (path, contents) in corpus.fs.iter() {
        driver
            .set_file(path, contents)
            .expect("generation 1 is open");
    }
    driver.end_generation().expect("commit the tree");
    driver.parse(&corpus.units).expect("fill the memo");
    Box::new(Served { corpus, driver })
}

impl Legs for Served {
    fn prepare(&mut self, rep: usize) {
        self.driver
            .begin_generation()
            .expect("no request in flight");
        for (path, text) in edits(&self.corpus, rep) {
            self.driver.set_file(&path, &text).expect("generation open");
        }
        self.driver.end_generation().expect("commit the edits");
    }

    fn run(&mut self, i: usize) -> Vec<CorpusReport> {
        let units = &self.corpus.units;
        if i == 0 {
            let copts = CorpusOptions {
                jobs: par_jobs(),
                ..CorpusOptions::default()
            };
            let fs = self.driver.fs().as_ref();
            return vec![superc::process_corpus(fs, units, &options(), &copts)];
        }
        let report = self.driver.parse(units).expect("parse request");
        assert_replayed(&self.corpus, &report);
        vec![report]
    }
}

/// Rep `rep`'s edits: ~1% of the units, spread over the corpus, each
/// with a line no other rep adds.
fn edits(corpus: &Corpus, rep: usize) -> Vec<(String, String)> {
    let n = corpus.units.len();
    let edited = n.div_ceil(100);
    (0..edited)
        .map(|i| {
            let path = corpus.units[i * n / edited].clone();
            let text = corpus.fs.read(&path).expect("unit exists");
            (path, format!("{text}\nint bench_probe_{rep}_{i};\n"))
        })
        .collect()
}

/// Panics unless exactly the edited units recomputed.
fn assert_replayed(corpus: &Corpus, report: &CorpusReport) {
    let n = corpus.units.len() as u64;
    let edited = n.div_ceil(100);
    assert_eq!(
        (report.unit_memo_hits, report.unit_memo_misses),
        (n - edited, edited),
        "a warm leg must replay every unit but the edited ones"
    );
}

/// One leg's measurement in one rep, its counters merged over the
/// profile runs.
#[derive(Clone, Debug, Default)]
struct Run {
    secs: f64,
    jobs: usize,
    units: usize,
    pp: PpStats,
    parse: ParseStats,
    cond: CondStats,
    bdd: BddStats,
}

impl Run {
    fn of(secs: f64, reports: &[CorpusReport]) -> Run {
        let mut run = Run {
            secs,
            jobs: reports[0].workers,
            ..Run::default()
        };
        for r in reports {
            run.units += r.units.len();
            run.pp.merge(&r.pp);
            run.parse.merge(&r.parse);
            run.cond.merge(&r.cond);
            if let Some(b) = &r.bdd {
                run.bdd.merge(b);
            }
        }
        run
    }

    fn tokens_per_sec(&self) -> f64 {
        self.pp.output_tokens as f64 / self.secs
    }

    /// Every declared counter, named `layer.name` as `--stats` prints it.
    fn counters_json(&self) -> String {
        fn fields<S: Counted>(s: &S) -> impl Iterator<Item = String> + '_ {
            let name = |c: &str| format!("{}.{c}", S::LAYER);
            S::COUNTERS
                .iter()
                .map(move |c| format!("\"{}\": {}", name(c.name), (c.get)(s)))
        }
        let all: Vec<String> = fields(&self.pp)
            .chain(fields(&self.parse))
            .chain(fields(&self.cond))
            .chain(fields(&self.bdd))
            .collect();
        format!("{{{}}}", all.join(", "))
    }
}

/// CPU seconds used so far by every thread of this process, exited
/// threads included (`CLOCK_PROCESS_CPUTIME_ID`).
fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and clock_gettime writes nothing beyond it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs `f`; returns its process CPU seconds (wall seconds with `wall`)
/// and its result.
fn time<T>(wall: bool, f: impl FnOnce() -> T) -> (f64, T) {
    let (start, cpu) = (Instant::now(), cpu_seconds());
    let out = f();
    let secs = if wall {
        start.elapsed().as_secs_f64()
    } else {
        cpu_seconds() - cpu
    };
    (secs, out)
}

/// Runs rep `rep` of `group`'s legs back to back, in reverse order on
/// odd reps, and checks every leg against the first.
fn run_rep(group: &Group, legs: &mut dyn Legs, rep: usize) -> Vec<Run> {
    legs.prepare(rep);
    let n = group.rows.len();
    let mut runs: Vec<Option<(f64, Vec<CorpusReport>)>> = (0..n).map(|_| None).collect();
    for k in 0..n {
        let i = if rep % 2 == 1 { n - 1 - k } else { k };
        runs[i] = Some(time(group.wall, || legs.run(i)));
    }
    let runs: Vec<_> = runs
        .into_iter()
        .map(|r| r.expect("every leg ran"))
        .collect();
    for (row, (_, reports)) in group.rows.iter().zip(&runs).skip(1) {
        if let Err(e) = runs[0].1[0].check_same(&reports[0], group.keep) {
            panic!("{row} drifted from {}: {e}", group.rows[0]);
        }
    }
    runs.iter().map(|(secs, r)| Run::of(*secs, r)).collect()
}

/// Runs every group's untimed rep, then one rep loop that spreads each
/// group's timed reps (`reps`, or the group's own count) evenly over
/// the whole run, so a spell of host noise touches a few reps of every
/// group rather than every rep of one. Returns each group's timed reps.
fn measure(reps: Option<usize>) -> Vec<Vec<Vec<Run>>> {
    let count = |g: &Group| reps.unwrap_or(g.reps);
    let total = GROUPS.iter().map(count).max().unwrap_or(0);
    let mut legs: Vec<Box<dyn Legs>> = GROUPS.iter().map(|g| (g.legs)()).collect();
    for (group, legs) in GROUPS.iter().zip(&mut legs) {
        run_rep(group, legs.as_mut(), 0);
    }
    let mut timed: Vec<Vec<Vec<Run>>> = GROUPS.iter().map(|_| Vec::new()).collect();
    for r in 1..=total {
        for ((group, legs), runs) in GROUPS.iter().zip(&mut legs).zip(&mut timed) {
            if r * count(group) / total > runs.len() {
                runs.push(run_rep(group, legs.as_mut(), runs.len() + 1));
            }
        }
    }
    timed
}

/// The upper median: the middle value, or the upper of the middle two.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// A gate's judgment of one snapshot.
struct Verdict {
    what: String,
    /// The judged reading: the median over reps of the rep's value.
    value: f64,
    /// The reading of each leg's fastest rep, for comparison.
    fastest: Option<f64>,
    percent: bool,
    bound: Bound,
    cores: usize,
}

impl Verdict {
    fn pass(&self) -> bool {
        self.bound.admits(self.value, self.cores)
    }

    fn show(&self, v: f64) -> String {
        if self.percent {
            format!("{:+.1}%", v * 100.0)
        } else {
            format!("{v:.3}")
        }
    }

    fn bound_text(&self) -> String {
        let op = if matches!(self.bound, AtMost(_)) {
            "<="
        } else {
            ">="
        };
        format!("{op} {}", self.show(self.bound.limit(self.cores)))
    }

    fn line(&self) -> String {
        let fastest = self
            .fastest
            .map_or(String::new(), |f| format!(", min-of-reps {}", self.show(f)));
        let verdict = if self.pass() { "OK" } else { "FAIL" };
        format!(
            "{} {} ({}{fastest}) {verdict}",
            self.what,
            self.show(self.value),
            self.bound_text()
        )
    }
}

/// Judges `group`'s gates on its timed reps.
fn judge(group: &Group, reps: &[Vec<Run>], cores: usize) -> Vec<Verdict> {
    let fastest: Vec<&Run> = (0..group.rows.len())
        .map(|i| {
            let legs = reps.iter().map(|rep| &rep[i]);
            legs.min_by(|a, b| a.secs.total_cmp(&b.secs))
                .expect("at least one rep")
        })
        .collect();
    group
        .gates
        .iter()
        .map(|g| {
            let per_rep = reps
                .iter()
                .map(|rep| g.reading.of(&rep.iter().collect::<Vec<_>>()));
            Verdict {
                what: format!("{} {}", g.what, g.reading.rows(group.rows)),
                value: median(per_rep.collect()),
                fastest: Some(g.reading.of(&fastest)),
                percent: matches!(g.reading, Change(..)),
                bound: g.bound,
                cores,
            }
        })
        .collect()
}

/// A snapshot row: a leg's median rep.
struct Row {
    name: &'static str,
    wall: bool,
    reps: usize,
    run: Run,
}

impl Row {
    fn clock(&self) -> &'static str {
        if self.wall {
            "wall"
        } else {
            "cpu"
        }
    }

    fn json(&self) -> String {
        let r = &self.run;
        format!(
            "{{\"name\": \"{}\", \"clock\": \"{}\", \"reps\": {}, \"jobs\": {}, \"units\": {}, \
             \"seconds\": {:.6}, \"tokens_per_sec\": {:.1}, \"counters\": {}}}",
            self.name,
            self.clock(),
            self.reps,
            r.jobs,
            r.units,
            r.secs,
            r.tokens_per_sec(),
            r.counters_json()
        )
    }
}

/// `group`'s rows: each leg's median rep.
fn rows_of(group: &Group, reps: &[Vec<Run>]) -> Vec<Row> {
    let rows = group.rows.iter().enumerate();
    rows.map(|(i, &name)| {
        let mut legs: Vec<&Run> = reps.iter().map(|rep| &rep[i]).collect();
        legs.sort_by(|a, b| a.secs.total_cmp(&b.secs));
        Row {
            name,
            wall: group.wall,
            reps: reps.len(),
            run: legs[legs.len() / 2].clone(),
        }
    })
    .collect()
}

/// Each row's tokens per second in a snapshot's JSON.
fn committed_rates(text: &str) -> Result<Vec<(String, f64)>, String> {
    let json = Json::parse(text)?;
    let rows = json.get("rows").and_then(Json::as_array);
    rows.ok_or("no \"rows\" array")?
        .iter()
        .map(|row| {
            let name = row.get("name").and_then(Json::as_str);
            let rate = row.get("tokens_per_sec").and_then(Json::as_f64);
            match (name, rate) {
                (Some(name), Some(rate)) => Ok((name.to_string(), rate)),
                _ => Err("a row needs a name and tokens_per_sec".to_string()),
            }
        })
        .collect()
}

/// Compares every compared row with its committed tokens per second; a
/// row missing from either side fails.
fn cross_run(rows: &[Row], committed: &[(String, f64)]) -> Vec<Verdict> {
    let compared = GROUPS.iter().flat_map(|g| g.compared);
    compared
        .map(|&name| {
            let new = rows.iter().find(|r| r.name == name);
            let old = committed.iter().find(|(n, _)| n == name);
            let value = match (new, old) {
                (Some(new), Some((_, old))) => new.run.tokens_per_sec() / old - 1.0,
                _ => f64::NAN,
            };
            let missing = if value.is_nan() { " (row missing)" } else { "" };
            Verdict {
                what: format!("{name} tokens/s vs committed{missing}"),
                value,
                fastest: None,
                percent: true,
                bound: AtLeast(CROSS_RUN_FLOOR),
                cores: 1,
            }
        })
        .collect()
}

/// The machine the snapshot was measured on.
fn machine(cores: usize) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo.lines().find_map(|l| {
        let (key, value) = l.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim())
    });
    format!(
        "{{\"cores\": {cores}, \"cpu\": {}, \"os\": \"{}\", \"arch\": \"{}\"}}",
        json_str(cpu.unwrap_or("unknown")),
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

fn snapshot_json(machine: &str, rows: &[Row]) -> String {
    let rows: Vec<String> = rows.iter().map(|r| format!("    {}", r.json())).collect();
    format!(
        "{{\n  \"machine\": {machine},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// Writes `snapshot` to `path` unless a verdict fails; a failing
/// snapshot writes nothing.
fn update(path: &Path, snapshot: &str, verdicts: &[Verdict]) -> Result<(), String> {
    if let Some(v) = verdicts.iter().find(|v| !v.pass()) {
        let path = path.display();
        return Err(format!("refusing to update {path}: {} fails", v.what));
    }
    std::fs::write(path, snapshot).map_err(|e| format!("write {}: {e}", path.display()))
}

/// `--update` and `--reps <n>`.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(bool, Option<usize>), String> {
    let (mut update, mut reps) = (false, None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--update" => update = true,
            "--reps" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => reps = Some(n),
                _ => return Err("--reps takes a positive integer".to_string()),
            },
            other => {
                return Err(format!(
                    "unknown argument {other}; known: --update --reps <n>"
                ))
            }
        }
    }
    Ok((update, reps))
}

fn main() -> ExitCode {
    let (update_snapshot, reps) = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fmlr.json");
    let committed = if update_snapshot {
        None
    } else {
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string());
        match text.and_then(|t| committed_rates(&t)) {
            Ok(rates) => Some(rates),
            Err(e) => {
                eprintln!(
                    "bench: {}: {e}; run scripts/bench.sh --update",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        }
    };
    let cores = superc::corpus::default_jobs();
    let (mut rows, mut verdicts) = (Vec::new(), Vec::new());
    for (group, runs) in GROUPS.iter().zip(measure(reps)) {
        verdicts.extend(judge(group, &runs, cores));
        rows.extend(rows_of(group, &runs));
    }
    if let Some(committed) = &committed {
        verdicts.extend(cross_run(&rows, committed));
    }

    let mut t = TextTable::new(&["row", "clock", "reps", "jobs", "units", "seconds", "tok/s"]);
    for r in &rows {
        t.row(&[
            r.name.to_string(),
            r.clock().to_string(),
            r.reps.to_string(),
            r.run.jobs.to_string(),
            r.run.units.to_string(),
            format!("{:.4}", r.run.secs),
            format!("{:.0}", r.run.tokens_per_sec()),
        ]);
    }
    print!("{}", t.render());
    println!("bench: {cores} cores; gates read the median over reps");
    for v in &verdicts {
        println!("bench: {}", v.line());
    }
    if update_snapshot {
        let snapshot = snapshot_json(&machine(cores), &rows);
        match update(&path, &snapshot, &verdicts) {
            Ok(()) => println!("bench: wrote {}", path.display()),
            Err(e) => {
                eprintln!("bench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if verdicts.iter().all(Verdict::pass) {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench: a gate failed");
        ExitCode::FAILURE
    }
}
