//! Never-crash guarantees over the pathological corpus in
//! `tests/fixtures/robustness/`.
//!
//! Each fixture is hostile in one specific way (conditional-dense
//! initializer, 80-deep conditional nesting, unguarded self-include,
//! conditional typedef ambiguity, conditionals inside `##`/`#`
//! operands). The contract under test:
//!
//! 1. No input panics — resource exhaustion *degrades* the unit to a
//!    [`ParseOutcome::Partial`] with condition-scoped trip records, and
//!    an actual panic (injected here via a test hook) is firewalled
//!    into a structured [`UnitFailure`] row instead of killing the run.
//! 2. Degradation is deterministic: the per-unit report — including the
//!    new partial/degradation/failure surfaces — is identical for
//!    `jobs` 1/2/8, shared cache on or off, for the deterministic
//!    budgets (subparsers, forks, steps; the wall-clock and BDD-node
//!    budgets are schedule-dependent safety nets and excluded here).
//! 3. Budget trips carry *exact* presence conditions: for every unit,
//!    accepted ∨ error conditions ∨ tripped conditions ≡ true, checked
//!    by BDD equivalence — every configuration is accounted for.

use superc::corpus::{process_corpus, Capture, CorpusOptions, CorpusReport};
use superc::counters::Class;
use superc::{Budgets, Cond, DiskFs, Options, ParserConfig, SuperC};

fn fixture_fs() -> DiskFs {
    DiskFs::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/robustness"
    ))
}

fn fixture_files() -> Vec<String> {
    [
        "bomb.c",
        "deep_nest.c",
        "self_include.c",
        "typedef_maze.c",
        "paste_mess.c",
        "ok.c",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Budgets tight enough that the hostile fixtures trip them while the
/// control fixture stays comfortably inside. Only deterministic budgets:
/// step count is a pure function of the unit, never of the schedule.
fn tight_budgets() -> Budgets {
    Budgets {
        max_steps: 400,
        max_include_depth: 8,
        ..Budgets::unlimited()
    }
}

fn copts(jobs: usize, no_shared_cache: bool) -> CorpusOptions {
    CorpusOptions {
        jobs,
        capture: Capture::default(),
        lint: None,
        no_shared_cache,
        inject_panic: Vec::new(),
        portability: false,
        warm: false,
    }
}

/// The deterministic budgets degrade identically on every schedule: runs
/// that differ in jobs or cache agree on every behavior and mode counter
/// and every output surface.
const SAME_MODE: &[Class] = &[Class::Behavior, Class::Mode];

fn run(options: &Options, copts: &CorpusOptions) -> CorpusReport {
    process_corpus(&fixture_fs(), &fixture_files(), options, copts)
}

#[test]
fn tight_budgets_never_panic_and_are_schedule_invariant() {
    let options = Options {
        budgets: tight_budgets(),
        ..Options::default()
    };
    let base = run(&options, &copts(1, false));
    // The step budget must actually bite somewhere…
    assert!(
        base.partial_units() > 0,
        "no unit degraded under tight budgets: {:#?}",
        base.units
    );
    // …while the control fixture stays untouched.
    assert!(
        base.units
            .iter()
            .any(|u| u.path == "ok.c" && !u.partial && u.parsed),
        "control fixture degraded: {:#?}",
        base.units
    );
    for jobs in [1, 2, 8] {
        for no_cache in [false, true] {
            base.check_same(&run(&options, &copts(jobs, no_cache)), SAME_MODE)
                .unwrap_or_else(|d| panic!("jobs={jobs} no_cache={no_cache}: {d}"));
        }
    }
}

#[test]
fn subparser_shedding_is_schedule_invariant_under_mapr() {
    // MAPR's naive forking is what actually piles up live subparsers
    // (the optimized levels merge eagerly and peak at 2 on this corpus),
    // so the live-cap budget is exercised against it.
    let options = Options {
        parser: ParserConfig::mapr(),
        budgets: Budgets {
            max_subparsers: 4,
            ..Budgets::unlimited()
        },
        ..Options::default()
    };
    let base = run(&options, &copts(1, false));
    assert!(
        base.units
            .iter()
            .flat_map(|u| &u.degradations)
            .any(|d| d.contains("live subparsers")),
        "live-cap budget never tripped: {:#?}",
        base.units
    );
    for jobs in [2, 8] {
        base.check_same(&run(&options, &copts(jobs, false)), SAME_MODE)
            .unwrap_or_else(|d| panic!("shedding drifted at jobs={jobs}: {d}"));
    }
}

#[test]
fn budget_trip_conditions_cover_every_configuration() {
    let options = Options {
        budgets: tight_budgets(),
        ..Options::default()
    };
    let mut partials = 0usize;
    for file in fixture_files() {
        let mut tool = SuperC::new(options.clone(), fixture_fs());
        let p = tool
            .process(&file)
            .unwrap_or_else(|e| panic!("{file}: pathological inputs must not be fatal: {e}"));
        let ctx = tool.ctx().clone();
        let mut covered: Cond = p
            .result
            .accepted
            .clone()
            .unwrap_or_else(|| ctx.constant(false));
        for e in &p.result.errors {
            covered = covered.or(&e.cond);
        }
        for t in &p.result.trips {
            covered = covered.or(&t.cond);
        }
        partials += usize::from(!p.result.trips.is_empty());
        assert!(
            covered.is_true(),
            "{file}: some configuration neither accepted, errored, nor \
             tripped a budget (covered only {covered})"
        );
    }
    assert!(partials > 0, "no fixture tripped a budget");
}

#[test]
fn include_depth_budget_degrades_with_a_diagnostic() {
    let options = Options {
        budgets: Budgets {
            max_include_depth: 4,
            ..Budgets::unlimited()
        },
        ..Options::default()
    };
    let mut tool = SuperC::new(options, fixture_fs());
    let p = tool
        .process("self_include.c")
        .expect("depth overflow must degrade, not fail");
    assert!(
        p.unit
            .diagnostics
            .iter()
            .any(|d| d.message.contains("include nesting too deep")),
        "missing depth diagnostic: {:?}",
        p.unit.diagnostics
    );
    assert!(p.result.ast.is_some(), "unit must still parse");
}

#[test]
fn injected_panics_are_firewalled_and_deterministic() {
    let options = Options::default();
    let inject = vec!["bomb.c".to_string()];
    let mut base: Option<CorpusReport> = None;
    for jobs in [1, 2, 8] {
        let copts = CorpusOptions {
            inject_panic: inject.clone(),
            ..copts(jobs, false)
        };
        let report = run(&options, &copts);
        let bomb = &report.units[0];
        assert_eq!(bomb.path, "bomb.c");
        let failure = bomb
            .failure
            .as_ref()
            .expect("panic must become a failure row");
        assert_eq!(failure.stage, "panic");
        assert!(
            failure.message.contains("injected panic"),
            "payload lost: {failure:?}"
        );
        assert!(!bomb.parsed, "a panicked unit has no parse");
        // The worker that caught the panic rebuilds its state and keeps
        // going: every other unit is unaffected.
        assert_eq!(report.failed_units(), 1, "jobs={jobs}");
        assert_eq!(
            report.parsed_units(),
            fixture_files().len() - 1,
            "jobs={jobs}"
        );
        match &base {
            None => base = Some(report),
            Some(b) => b
                .check_same(&report, SAME_MODE)
                .unwrap_or_else(|d| panic!("firewall output drifted at jobs={jobs}: {d}")),
        }
    }
}

#[test]
fn generous_budgets_are_behavior_identical_to_ungoverned() {
    let governed = Options {
        budgets: Budgets {
            max_subparsers: 1 << 20,
            max_forks: 1 << 40,
            max_steps: 1 << 40,
            // Matches `PpOptions::default`, so the self-include fixture
            // bottoms out at the same depth either way.
            max_include_depth: 200,
            ..Budgets::unlimited()
        },
        ..Options::default()
    };
    let ungoverned = Options::default();
    let gov = run(&governed, &copts(1, false));
    let raw = run(&ungoverned, &copts(1, false));
    gov.check_same(&raw, SAME_MODE)
        .unwrap_or_else(|d| panic!("armed-but-untripped budgets changed behavior: {d}"));
    assert_eq!(gov.partial_units(), 0);
}

#[test]
fn shedding_keeps_the_live_count_exact() {
    // After a shed, `live` must count exactly the queued survivors: one
    // too many over-reports every later iteration and sheds early.
    let options = Options {
        parser: ParserConfig::mapr(),
        budgets: Budgets {
            max_subparsers: 4,
            ..Budgets::unlimited()
        },
        ..Options::default()
    };
    let mut tool = SuperC::new(options, fixture_fs());
    let p = tool.process("bomb.c").expect("bomb.c degrades, not fails");
    let s = &p.result.stats;
    let mode = (0..s.subparser_hist.len())
        .max_by_key(|&n| s.subparser_hist[n])
        .expect("iterations ran");
    // The ceiling is 4: an iteration sees at most one more before the
    // shed, and most iterations run at the ceiling.
    assert_eq!(s.max_subparsers, 5, "{s:?}");
    assert_eq!(mode, 4, "{s:?}");
    assert_eq!((s.budget_trips, s.budget_killed), (88, 88), "{s:?}");
}
