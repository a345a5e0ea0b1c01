//! The §6.3 validation against the system's gcc: for a seeded sample of
//! (unit, profile, configuration) triples, SuperC's preserved token
//! stream restricted to the configuration, and `unparse_config` of its
//! AST, must both equal `gcc -E -P` under the profile's built-ins and
//! the configuration's `-D` flags, compared without whitespace. A
//! configuration gcc stops on with `#error` must be one SuperC poisons,
//! and the other way round.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use superc::cpp::Element;
use superc::{unparse_config, Options, PpOptions, Profile, SuperC};
use superc_kernelgen::Corpus;
use superc_util::SmallRng;

/// Macros gcc predefines even under `-undef`; each one the profile does
/// not define is removed with `-U` so gcc sees exactly the profile's set.
const GCC_UNDEF_SURVIVORS: &[&str] = &[
    "__STDC__",
    "__STDC_VERSION__",
    "__STDC_HOSTED__",
    "__STDC_UTF_16__",
    "__STDC_UTF_32__",
];

/// The one opaque `#if` term kernelgen emits. `NR_CPUS` is never
/// defined, so gcc reads `0 < 256`: true in every configuration.
const OPAQUE_TRUE: &str = "NR_CPUS < 256";

/// Outcome of a sample.
#[derive(Default)]
pub struct GccReport {
    /// Triples checked.
    pub attempted: u64,
    /// Triples whose outputs disagreed (or could not be compared).
    pub mismatches: Vec<String>,
    /// Triples both sides poisoned with `#error`.
    pub poisoned: u64,
}

/// Checks `cases` seeded triples over `corpus`, drawing profiles from
/// `profiles`. The tree is written under `workdir` for gcc and removed
/// afterwards.
pub fn check(
    corpus: &Corpus,
    profiles: &[Profile],
    cases: usize,
    seed: u64,
    workdir: &Path,
) -> GccReport {
    let mut report = GccReport::default();
    if let Err(e) = corpus.write_to(workdir) {
        report.attempted = cases as u64;
        report.mismatches = vec![format!("writing the tree for gcc: {e}"); cases];
        return report;
    }
    let mut tools: Vec<SuperC<&superc::MemFs>> = profiles
        .iter()
        .map(|p| {
            let options = Options {
                pp: PpOptions {
                    profile: p.clone(),
                    ..PpOptions::default()
                },
                ..Options::default()
            };
            SuperC::new(options, &corpus.fs)
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6CC0_0603);
    for _ in 0..cases {
        let unit = &corpus.units[rng.gen_range(0..corpus.units.len())];
        let p = rng.gen_range(0..profiles.len());
        report.attempted += 1;
        match check_one(&mut tools[p], &profiles[p], unit, &mut rng, workdir) {
            Ok(true) => report.poisoned += 1,
            Ok(false) => {}
            Err(e) => report
                .mismatches
                .push(format!("{unit} [{}]: {e}", profiles[p].name)),
        }
    }
    let _ = std::fs::remove_dir_all(workdir);
    report
}

/// One triple; `Ok(true)` when both sides poison the configuration.
fn check_one(
    tool: &mut SuperC<&superc::MemFs>,
    profile: &Profile,
    unit: &str,
    rng: &mut SmallRng,
    workdir: &Path,
) -> Result<bool, String> {
    let processed = tool.process(unit).map_err(|e| format!("superc: {e}"))?;
    let mut names = BTreeSet::new();
    free_names(&processed.unit.elements, &mut names);
    for d in &processed.unit.diagnostics {
        names.extend(d.cond.support_names());
    }
    let mut config = Vec::new();
    for name in &names {
        match bare(name) {
            Some(var) => {
                if rng.gen_bool(0.5) {
                    config.push(var.to_string());
                }
            }
            None if name == OPAQUE_TRUE => {}
            None => return Err(format!("opaque #if term {name:?} has no gcc value")),
        }
    }
    let env = |name: &str| -> Option<bool> {
        if name == OPAQUE_TRUE {
            return Some(true);
        }
        Some(bare(name).is_some_and(|v| config.iter().any(|c| c == v)))
    };

    let superc_poisoned = processed
        .unit
        .diagnostics
        .iter()
        .any(|d| d.message.starts_with("#error") && d.cond.eval(env));
    let gcc = run_gcc(profile, &config, unit, workdir)?;
    let gcc_poisoned = !gcc.status.success();
    let stderr = String::from_utf8_lossy(&gcc.stderr);
    if gcc_poisoned && !stderr.contains("#error") {
        return Err(format!("gcc failed: {}", stderr.trim()));
    }
    if gcc_poisoned != superc_poisoned {
        return Err(format!(
            "#error disagreement under {config:?}: gcc {gcc_poisoned}, superc {superc_poisoned}"
        ));
    }
    if gcc_poisoned {
        return Ok(true);
    }

    let expected = squeeze(&String::from_utf8_lossy(&gcc.stdout));
    let mut tokens = String::new();
    select_tokens(&processed.unit.elements, &env, &mut tokens)?;
    if squeeze(&tokens) != expected {
        return Err(format!("preprocessed tokens differ under {config:?}"));
    }
    let ast = processed
        .result
        .ast
        .as_ref()
        .ok_or("no configuration parsed")?;
    if squeeze(&unparse_config(ast, tool.ctx(), &env)) != expected {
        return Err(format!("AST restriction differs under {config:?}"));
    }
    Ok(false)
}

fn run_gcc(
    profile: &Profile,
    config: &[String],
    unit: &str,
    workdir: &Path,
) -> Result<std::process::Output, String> {
    let mut cmd = Command::new("gcc");
    cmd.current_dir(workdir)
        .args(["-E", "-P", "-undef", "-nostdinc", "-w", "-Iinclude"]);
    for m in GCC_UNDEF_SURVIVORS {
        if !profile.builtins.defs.iter().any(|(n, _)| n == m) {
            cmd.arg(format!("-U{m}"));
        }
    }
    for (name, body) in &profile.builtins.defs {
        cmd.arg(format!("-D{name}={body}"));
    }
    for var in config {
        cmd.arg(format!("-D{var}"));
    }
    cmd.arg(unit);
    cmd.output().map_err(|e| format!("running gcc: {e}"))
}

/// The configuration variable behind a presence-condition name:
/// `defined(X)` or a bare identifier `X`; `None` for opaque terms.
fn bare(name: &str) -> Option<&str> {
    let inner = name
        .strip_prefix("defined(")
        .and_then(|n| n.strip_suffix(')'))
        .unwrap_or(name);
    let ident = !inner.is_empty()
        && inner.chars().all(|c| c == '_' || c.is_ascii_alphanumeric())
        && !inner.starts_with(|c: char| c.is_ascii_digit());
    ident.then_some(inner)
}

fn free_names(elements: &[Element], out: &mut BTreeSet<String>) {
    for e in elements {
        if let Element::Conditional(k) = e {
            for b in &k.branches {
                out.extend(b.cond.support_names());
                free_names(&b.elements, out);
            }
        }
    }
}

/// Flattens a preserved-variability element tree under a configuration;
/// exactly one branch of every conditional must be taken.
fn select_tokens(
    elements: &[Element],
    env: &(impl Fn(&str) -> Option<bool> + Copy),
    out: &mut String,
) -> Result<(), String> {
    for e in elements {
        match e {
            Element::Token(t) => {
                out.push_str(t.text());
                out.push(' ');
            }
            Element::Conditional(k) => {
                let taken: Vec<_> = k.branches.iter().filter(|b| b.cond.eval(*env)).collect();
                if taken.len() != 1 {
                    return Err(format!("{} branches taken in one conditional", taken.len()));
                }
                select_tokens(&taken[0].elements, env, out)?;
            }
        }
    }
    Ok(())
}

/// The text with all whitespace removed.
fn squeeze(text: &str) -> String {
    text.chars().filter(|c| !c.is_whitespace()).collect()
}
