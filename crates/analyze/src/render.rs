//! Deterministic rendering: canonical presence-condition text, and the
//! text/JSON/SARIF diagnostic formats used by `superc lint`.
//!
//! `Cond`'s own `Display` walks the backing BDD, whose variable order
//! depends on condition-creation order — schedule-dependent under the
//! parallel corpus driver. [`canonical`] instead rebuilds a disjoint
//! sum-of-products cover from the boolean function itself, branching on
//! the *sorted* support names, so equal functions always render to equal
//! strings no matter which worker built them.

use std::fmt::{self, Write as _};

use superc_cond::{Cond, CondCtx};

use crate::Record;

/// Support-size cap: beyond this, enumeration could blow up and the
/// rendering falls back to listing the support.
const MAX_VARS: usize = 12;
/// Term cap for the fallback, keeping pathological conditions readable.
const MAX_TERMS: usize = 24;

/// Renders `cond` as a canonical formula over `defined(...)` variables:
/// disjoint conjunctions joined by ` || `, literals ordered by sorted
/// variable name (`defined(A) && !defined(B) || !defined(A)`). `true` and
/// `false` render as themselves. Conditions with more than [`MAX_VARS`]
/// support variables (or more than [`MAX_TERMS`] terms) render as a
/// deterministic `<condition over ...>` fallback.
pub fn canonical(cond: &Cond) -> String {
    if cond.is_false() {
        return "false".to_string();
    }
    if cond.is_true() {
        return "true".to_string();
    }
    let names = cond.support_names(); // sorted + deduped
    if names.len() > MAX_VARS {
        return format!("<condition over {}>", names.join(", "));
    }
    let mut terms = Vec::new();
    let mut lits = Vec::new();
    let prefix = cond.ctx().tru();
    if enumerate(cond, &names, 0, &prefix, &mut lits, &mut terms) {
        terms.join(" || ")
    } else {
        format!("<condition over {}>", names.join(", "))
    }
}

/// Depth-first cover enumeration: extend the literal prefix variable by
/// variable; emit a term as soon as the prefix implies the function,
/// prune as soon as it contradicts it. Returns `false` on term overflow.
fn enumerate(
    f: &Cond,
    names: &[String],
    i: usize,
    prefix: &Cond,
    lits: &mut Vec<String>,
    terms: &mut Vec<String>,
) -> bool {
    if terms.len() > MAX_TERMS {
        return false;
    }
    if prefix.and(f).is_false() {
        return true;
    }
    if prefix.implies(f) {
        terms.push(if lits.is_empty() {
            "true".to_string()
        } else {
            lits.join(" && ")
        });
        return true;
    }
    if i >= names.len() {
        // Unreachable: a full assignment of the support makes `f`
        // constant, so one of the branches above must have taken it.
        return true;
    }
    let v = f.ctx().var(&names[i]);
    for positive in [true, false] {
        let next = if positive {
            prefix.and(&v)
        } else {
            prefix.and_not(&v)
        };
        lits.push(if positive {
            names[i].clone()
        } else {
            format!("!{}", names[i])
        });
        let ok = enumerate(f, names, i + 1, &next, lits, terms);
        lits.pop();
        if !ok {
            return false;
        }
    }
    true
}

/// Parses a [`canonical`] rendering back into a condition in `ctx`.
///
/// Accepts exactly the grammar `canonical` emits: `true`, `false`, or
/// disjoint terms joined by ` || ` whose literals are joined by ` && `
/// (each a variable name, optionally `!`-negated). Returns `None` for the
/// `<condition over ...>` overflow fallback, which is not invertible.
///
/// This is how the cross-profile differ lifts canonical strings — the
/// only condition form that crosses worker threads — back into one
/// context to OR per-profile conditions together.
pub fn parse_canonical(s: &str, ctx: &CondCtx) -> Option<Cond> {
    match s {
        "true" => return Some(ctx.tru()),
        "false" => return Some(ctx.fls()),
        _ if s.starts_with('<') => return None,
        _ => {}
    }
    let mut result = ctx.fls();
    for term in s.split(" || ") {
        let mut t = ctx.tru();
        for lit in term.split(" && ") {
            let (name, neg) = match lit.strip_prefix('!') {
                Some(rest) => (rest, true),
                None => (lit, false),
            };
            if name.is_empty() {
                return None;
            }
            let v = ctx.var(name);
            t = if neg { t.and_not(&v) } else { t.and(&v) };
        }
        result = result.or(&t);
    }
    Some(result)
}

/// Lint output format (the CLI's `--format`, the daemon's `"format"`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LintFormat {
    /// Human-readable lines plus a trailing summary line.
    Text,
    /// One JSON object (the format the byte-identity gates diff).
    Json,
    /// SARIF 2.1.0.
    Sarif,
}

impl LintFormat {
    /// Parses a `--format` operand; `None` for unknown names.
    pub fn parse(name: &str) -> Option<LintFormat> {
        match name {
            "text" => Some(LintFormat::Text),
            "json" => Some(LintFormat::Json),
            "sarif" => Some(LintFormat::Sarif),
            _ => None,
        }
    }
}

/// Records rendered in one format without the document around them,
/// plus what the document needs from them. A document over many units
/// is joined from one fragment per unit by [`document`], so a unit's
/// records are rendered once and its fragment can be kept while they
/// stay the same.
#[derive(Clone, Debug, Default)]
pub struct Fragment {
    /// The records: one line each (text), or comma-separated objects
    /// (JSON) or results (SARIF).
    body: String,
    /// Records rendered.
    count: usize,
    /// Records at `deny` level.
    deny: usize,
    /// The records' distinct codes, sorted: SARIF's rule list (empty in
    /// the other formats).
    codes: Vec<&'static str>,
}

impl Fragment {
    /// Renders `records` in `format`.
    pub fn new(format: LintFormat, records: &[Record]) -> Fragment {
        let mut body = String::new();
        for (i, r) in records.iter().enumerate() {
            if i > 0 && format != LintFormat::Text {
                body.push(',');
            }
            // Writing into a `String` cannot fail.
            let _ = match format {
                LintFormat::Text => text_record(&mut body, r),
                LintFormat::Json => json_record(&mut body, r),
                LintFormat::Sarif => sarif_result(&mut body, r),
            };
        }
        let mut codes = Vec::new();
        if format == LintFormat::Sarif {
            codes.extend(records.iter().map(|r| r.code));
            codes.sort_unstable();
            codes.dedup();
        }
        Fragment {
            body,
            count: records.len(),
            deny: records.iter().filter(|r| r.level == "deny").count(),
            codes,
        }
    }

    /// Records at `deny` level.
    pub fn deny(&self) -> usize {
        self.deny
    }
}

/// Joins `fragments`, each rendered in `format` and in record order, into
/// one document of that format: text lines and their summary line, the
/// JSON object with its `count` and `deny`, or the SARIF log with its
/// rule list. The result is the document [`Fragment::new`] over all
/// their records would give, byte for byte.
pub fn document<'a, I>(format: LintFormat, fragments: I) -> String
where
    I: IntoIterator<Item = &'a Fragment>,
    I::IntoIter: Clone,
{
    let fragments = fragments.into_iter();
    let (mut count, mut deny, mut len) = (0, 0, 0);
    for f in fragments.clone() {
        count += f.count;
        deny += f.deny;
        len += f.body.len() + 1;
    }
    let mut out = String::with_capacity(len + 256);
    let join = |out: &mut String| {
        for (i, f) in fragments.clone().filter(|f| !f.body.is_empty()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&f.body);
        }
    };
    // Writing into a `String` cannot fail.
    let _ = match format {
        LintFormat::Text => {
            for f in fragments.clone() {
                out.push_str(&f.body);
            }
            writeln!(out, "{count} diagnostic(s), {deny} denied")
        }
        LintFormat::Json => {
            out.push_str("{\"diagnostics\":[");
            join(&mut out);
            writeln!(out, "],\"count\":{count},\"deny\":{deny}}}")
        }
        LintFormat::Sarif => {
            let mut codes: Vec<&str> = fragments
                .clone()
                .flat_map(|f| f.codes.iter().copied())
                .collect();
            codes.sort_unstable();
            codes.dedup();
            out.push_str(
                "{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\
                 \"version\":\"2.1.0\",\
                 \"runs\":[{\"tool\":{\"driver\":{\"name\":\"superc\",\"rules\":[",
            );
            for (i, code) in codes.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(out, "{sep}{{\"id\":{}}}", JsonStr(code));
            }
            out.push_str("]}},\"results\":[");
            join(&mut out);
            out.write_str("]}]}\n")
        }
    };
    out
}

/// Renders records in compiler style, one line each:
/// `file:line:col: warning[code]: message [when COND]`, with a trailing
/// ` [profiles {...}]` in cross-profile mode.
pub fn render_text(records: &[Record]) -> String {
    Fragment::new(LintFormat::Text, records).body
}

/// Renders records as deterministic JSON (stable key order, sorted
/// input): byte-identical across `--jobs` settings.
pub fn render_json(records: &[Record]) -> String {
    document(
        LintFormat::Json,
        [&Fragment::new(LintFormat::Json, records)],
    )
}

/// Renders records as a SARIF 2.1.0 log (`superc lint --format sarif`)
/// for CI and code-review UIs. One run, driver `superc`; `rules` lists
/// the distinct ruleIds present (sorted); each result maps `deny` to
/// SARIF `error` and `warn` to `warning`, and carries the canonical
/// presence condition — plus the profile set in cross-profile mode — in
/// its `properties` bag. Deterministic: stable key order over sorted
/// input, so the output inherits the byte-identity contract.
pub fn render_sarif(records: &[Record]) -> String {
    document(
        LintFormat::Sarif,
        [&Fragment::new(LintFormat::Sarif, records)],
    )
}

/// One [`render_text`] line.
fn text_record(out: &mut String, r: &Record) -> fmt::Result {
    let sev = if r.level == "deny" {
        "error"
    } else {
        "warning"
    };
    write!(
        out,
        "{}:{}:{}: {sev}[{}]: {} [when {}]",
        r.file, r.line, r.col, r.code, r.message, r.cond
    )?;
    if !r.profiles.is_empty() {
        write!(out, " [profiles {{{}}}]", r.profiles)?;
    }
    out.write_char('\n')
}

/// One [`render_json`] object.
fn json_record(out: &mut String, r: &Record) -> fmt::Result {
    write!(
        out,
        "{{\"code\":{},\"level\":{},\"file\":{},\"line\":{},\"col\":{},\"cond\":{},\"message\":{}",
        JsonStr(r.code),
        JsonStr(r.level),
        JsonStr(&r.file),
        r.line,
        r.col,
        JsonStr(&r.cond),
        JsonStr(&r.message)
    )?;
    if !r.profiles.is_empty() {
        write!(out, ",\"profiles\":{}", JsonStr(&r.profiles))?;
    }
    out.write_char('}')
}

/// One [`render_sarif`] result.
fn sarif_result(out: &mut String, r: &Record) -> fmt::Result {
    let level = if r.level == "deny" {
        "error"
    } else {
        "warning"
    };
    write!(
        out,
        "{{\"ruleId\":{},\"level\":{},\"message\":{{\"text\":{}}},\
         \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":{}}},\
         \"region\":{{\"startLine\":{},\"startColumn\":{}}}}}}}],\
         \"properties\":{{\"cond\":{}",
        JsonStr(r.code),
        JsonStr(level),
        JsonStr(&r.message),
        JsonStr(&r.file),
        r.line.max(1),
        r.col.max(1),
        JsonStr(&r.cond)
    )?;
    if !r.profiles.is_empty() {
        write!(out, ",\"profiles\":{}", JsonStr(&r.profiles))?;
    }
    out.write_str("}}")
}

/// A string displayed as a JSON string literal: `write!` escapes it
/// straight into its destination, with no intermediate `String`.
struct JsonStr<'a>(&'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_json_str(f, self.0)
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// Appends `s` to `out` as a JSON string literal ([`json_str`] without
/// the allocation).
pub fn push_json_str(out: &mut String, s: &str) {
    // Writing into a `String` cannot fail.
    let _ = write_json_str(out, s);
}

/// Writes `s` as a JSON string literal. Bytes that need no escape are
/// written a run at a time: every byte that does is ASCII, so each run
/// ends on a character boundary.
fn write_json_str(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.write_char('"')?;
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if short.is_empty() {
            out.write_str("\\u00")?;
            out.write_char(HEX[usize::from(b >> 4)] as char)?;
            out.write_char(HEX[usize::from(b & 0xf)] as char)?;
        } else {
            out.write_str(short)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}
