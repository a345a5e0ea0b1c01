//! Conditional-expression evaluation (SuperC §3.2).
//!
//! `#if` expressions are converted to presence conditions in four steps:
//!
//! 1. `defined(M)` operands are resolved *against the conditional macro
//!    table* — the disjunction of conditions under which `M` is defined,
//!    a BDD variable when `M` is free, or `false` when `M` is a detected
//!    include guard — and replaced by opaque placeholder tokens.
//! 2. The remaining tokens are macro-expanded under the current presence
//!    condition; multiply-defined macros introduce implicit conditionals.
//! 3. Those conditionals are hoisted around the whole expression,
//!    yielding flat per-configuration token runs (the paper's
//!    `BITS_PER_LONG == 32` example).
//! 4. Each run is parsed with a full C preprocessor-expression grammar and
//!    evaluated with constant folding. Non-constant leaves become
//!    condition variables: a free macro by its name, an arithmetic
//!    subexpression by its normalized text (`NR_CPUS < 256` stays opaque
//!    but identical occurrences share one variable).

use std::hash::{Hash, Hasher};
use std::rc::Rc;

use superc_cond::Cond;
use superc_lexer::{Punct, SourcePos, Token, TokenKind};
use superc_util::{FastSet, FxHasher};

use crate::elements::{Element, HideSet, PTok};
use crate::files::FileSystem;
use crate::macrotable::MacroDef;
use crate::preprocessor::{Preprocessor, Severity};
use crate::stats::PpStats;

/// Memo key for one conditional-expression evaluation: the expression's
/// token signature, a signature of the macro environment its identifiers
/// (transitively) resolve to, and the identity of the enclosing presence
/// condition. All three determine the result, so equal keys may share it.
pub(crate) type CondExprKey = (u64, u64, (u8, u64));

/// Memoized result of one conditional-expression evaluation, plus the
/// [`PpStats`] delta its (expansion-heavy) evaluation produced so a memo
/// hit replays the counters and reports stay byte-identical with an
/// unmemoized run.
#[derive(Clone)]
pub(crate) struct CondExprEntry {
    cond: Cond,
    hoisted: bool,
    nonbool: bool,
    delta: PpStats,
}

/// Normalizes an expression's token spelling: single spaces between
/// tokens, comments and layout dropped. This is the variable-interning key
/// for opaque non-boolean subexpressions.
pub fn normalize_expr_text(tokens: &[Token]) -> String {
    tokens
        .iter()
        .map(|t| t.text().to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

fn normalize_ptoks(tokens: &[PTok]) -> String {
    tokens
        .iter()
        .map(|t| t.text().to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

/// A partially evaluated subexpression.
#[derive(Clone, Debug)]
enum V {
    /// A compile-time integer constant.
    Int(i64),
    /// A boolean condition (from `defined`, `!`, `&&`, `||`, or folded
    /// comparisons of conditions).
    Bool(Cond),
    /// An opaque non-constant term, keyed by normalized text.
    Opaque(String),
}

/// How deeply an `#if` expression may nest — parentheses, prefix
/// operators and `?:` arms together; the same bound as conditional
/// nesting. Deeper input is malformed: a warning and an opaque
/// condition, never a stack overflow.
const MAX_EXPR_DEPTH: u32 = 64;

struct ExprParser<'t> {
    toks: &'t [PTok],
    i: usize,
    /// Current nesting, bounded by [`MAX_EXPR_DEPTH`].
    depth: u32,
    /// defined-placeholder index -> resolved condition.
    defined: &'t [Cond],
    ctx: superc_cond::CondCtx,
    nonbool: bool,
    /// Fold free identifiers to `0` instead of making them condition
    /// variables. Set from [`Preprocessor::fold_free_idents`] — the same
    /// policy seat `defined_as_cond` consults — never decided locally.
    fold_free: bool,
    /// Identifiers folded to `0` under `fold_free`, for the profile's
    /// [`crate::UndefIdentPolicy`] to report (MSVC C4668).
    folded: Vec<(Rc<str>, SourcePos)>,
    error: Option<String>,
}

const DEFINED_PREFIX: &str = "\u{1}defined";

impl<'t> ExprParser<'t> {
    fn peek(&self) -> Option<&PTok> {
        self.toks.get(self.i)
    }

    fn bump(&mut self) -> Option<PTok> {
        let t = self.toks.get(self.i).cloned();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek().map(|t| t.tok.is_punct(p)) == Some(true) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn fail(&mut self, msg: &str) -> V {
        if self.error.is_none() {
            self.error = Some(msg.to_string());
        }
        V::Int(0)
    }

    /// Parses one nested operand with `parse`, failing past
    /// [`MAX_EXPR_DEPTH`]. Every recursive path goes through here.
    fn nested(&mut self, parse: fn(&mut Self) -> V) -> V {
        if self.depth == MAX_EXPR_DEPTH {
            return self.fail(&format!(
                "conditional expression nested deeper than {MAX_EXPR_DEPTH}"
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn cond_of(&mut self, v: &V) -> Cond {
        match v {
            V::Int(0) => self.ctx.fls(),
            V::Int(_) => self.ctx.tru(),
            V::Bool(c) => c.clone(),
            V::Opaque(s) => {
                self.nonbool = true;
                self.ctx.var(s)
            }
        }
    }

    /// Renders a value back to opaque text for embedding in larger opaque
    /// expressions.
    fn to_text(&self, v: &V) -> String {
        match v {
            V::Int(n) => n.to_string(),
            V::Bool(c) => format!("({c})"),
            V::Opaque(s) => s.clone(),
        }
    }

    // Expression grammar, lowest precedence first.

    fn ternary(&mut self) -> V {
        let c = self.or();
        if !self.eat_punct(Punct::Question) {
            return c;
        }
        let a = self.nested(Self::ternary);
        if !self.eat_punct(Punct::Colon) {
            return self.fail("expected ':' in conditional expression");
        }
        let b = self.nested(Self::ternary);
        match c {
            V::Int(n) => {
                if n != 0 {
                    a
                } else {
                    b
                }
            }
            _ => {
                self.nonbool = true;
                V::Opaque(format!(
                    "{} ? {} : {}",
                    self.to_text(&c),
                    self.to_text(&a),
                    self.to_text(&b)
                ))
            }
        }
    }

    fn or(&mut self) -> V {
        let mut v = self.and();
        while self.eat_punct(Punct::PipePipe) {
            let r = self.and();
            let (lc, rc) = (self.cond_of(&v), self.cond_of(&r));
            v = V::Bool(lc.or(&rc));
        }
        v
    }

    fn and(&mut self) -> V {
        let mut v = self.bit_or();
        while self.eat_punct(Punct::AmpAmp) {
            let r = self.bit_or();
            let (lc, rc) = (self.cond_of(&v), self.cond_of(&r));
            v = V::Bool(lc.and(&rc));
        }
        v
    }

    fn bit_or(&mut self) -> V {
        let mut v = self.bit_xor();
        while self.peek().map(|t| t.tok.is_punct(Punct::Pipe)) == Some(true) {
            self.i += 1;
            let r = self.bit_xor();
            v = self.arith2(v, r, "|", |a, b| Some(a | b));
        }
        v
    }

    fn bit_xor(&mut self) -> V {
        let mut v = self.bit_and();
        while self.eat_punct(Punct::Caret) {
            let r = self.bit_and();
            v = self.arith2(v, r, "^", |a, b| Some(a ^ b));
        }
        v
    }

    fn bit_and(&mut self) -> V {
        let mut v = self.equality();
        while self.peek().map(|t| t.tok.is_punct(Punct::Amp)) == Some(true) {
            self.i += 1;
            let r = self.equality();
            v = self.arith2(v, r, "&", |a, b| Some(a & b));
        }
        v
    }

    fn equality(&mut self) -> V {
        let mut v = self.relational();
        loop {
            if self.eat_punct(Punct::EqEq) {
                let r = self.relational();
                v = self.cmp2(v, r, "==", |a, b| a == b);
            } else if self.eat_punct(Punct::Ne) {
                let r = self.relational();
                v = self.cmp2(v, r, "!=", |a, b| a != b);
            } else {
                break;
            }
        }
        v
    }

    fn relational(&mut self) -> V {
        let mut v = self.shift();
        loop {
            if self.eat_punct(Punct::Le) {
                let r = self.shift();
                v = self.cmp2(v, r, "<=", |a, b| a <= b);
            } else if self.eat_punct(Punct::Ge) {
                let r = self.shift();
                v = self.cmp2(v, r, ">=", |a, b| a >= b);
            } else if self.eat_punct(Punct::Lt) {
                let r = self.shift();
                v = self.cmp2(v, r, "<", |a, b| a < b);
            } else if self.eat_punct(Punct::Gt) {
                let r = self.shift();
                v = self.cmp2(v, r, ">", |a, b| a > b);
            } else {
                break;
            }
        }
        v
    }

    fn shift(&mut self) -> V {
        let mut v = self.additive();
        loop {
            if self.eat_punct(Punct::Shl) {
                let r = self.additive();
                v = self.arith2(v, r, "<<", |a, b| a.checked_shl(b.try_into().ok()?));
            } else if self.eat_punct(Punct::Shr) {
                let r = self.additive();
                v = self.arith2(v, r, ">>", |a, b| a.checked_shr(b.try_into().ok()?));
            } else {
                break;
            }
        }
        v
    }

    fn additive(&mut self) -> V {
        let mut v = self.multiplicative();
        loop {
            if self.eat_punct(Punct::Plus) {
                let r = self.multiplicative();
                v = self.arith2(v, r, "+", |a, b| a.checked_add(b));
            } else if self.eat_punct(Punct::Minus) {
                let r = self.multiplicative();
                v = self.arith2(v, r, "-", |a, b| a.checked_sub(b));
            } else {
                break;
            }
        }
        v
    }

    fn multiplicative(&mut self) -> V {
        let mut v = self.unary();
        loop {
            if self.eat_punct(Punct::Star) {
                let r = self.unary();
                v = self.arith2(v, r, "*", |a, b| a.checked_mul(b));
            } else if self.eat_punct(Punct::Slash) {
                let r = self.unary();
                v = self.arith2(v, r, "/", |a, b| a.checked_div(b));
            } else if self.eat_punct(Punct::Percent) {
                let r = self.unary();
                v = self.arith2(v, r, "%", |a, b| a.checked_rem(b));
            } else {
                break;
            }
        }
        v
    }

    fn unary(&mut self) -> V {
        if self.eat_punct(Punct::Bang) {
            let v = self.nested(Self::unary);
            let c = self.cond_of(&v);
            return V::Bool(c.not());
        }
        if self.eat_punct(Punct::Minus) {
            let v = self.nested(Self::unary);
            return match v {
                V::Int(n) => V::Int(n.wrapping_neg()),
                other => {
                    self.nonbool = true;
                    V::Opaque(format!("- {}", self.to_text(&other)))
                }
            };
        }
        if self.eat_punct(Punct::Plus) {
            return self.nested(Self::unary);
        }
        if self.eat_punct(Punct::Tilde) {
            let v = self.nested(Self::unary);
            return match v {
                V::Int(n) => V::Int(!n),
                other => {
                    self.nonbool = true;
                    V::Opaque(format!("~ {}", self.to_text(&other)))
                }
            };
        }
        self.primary()
    }

    fn primary(&mut self) -> V {
        if self.eat_punct(Punct::LParen) {
            let v = self.nested(Self::ternary);
            if !self.eat_punct(Punct::RParen) {
                return self.fail("expected ')'");
            }
            return v;
        }
        let Some(t) = self.bump() else {
            return self.fail("unexpected end of conditional expression");
        };
        match t.tok.kind {
            TokenKind::Number => match parse_int(t.text()) {
                Some(n) => V::Int(n),
                None => {
                    self.nonbool = true;
                    V::Opaque(t.text().to_string())
                }
            },
            TokenKind::CharLit => match char_value(t.text()) {
                Some(n) => V::Int(n),
                None => {
                    self.nonbool = true;
                    V::Opaque(t.text().to_string())
                }
            },
            TokenKind::Ident => {
                let text = t.text();
                if let Some(idx) = text.strip_prefix(DEFINED_PREFIX) {
                    let i: usize = idx.parse().expect("placeholder index");
                    return V::Bool(self.defined[i].clone());
                }
                if self.fold_free {
                    // Undefined identifiers evaluate to 0. Whether that
                    // fold is silent (gcc) or diagnosed (MSVC /Wall) is
                    // the profile's call; record it and let the caller
                    // apply `UndefIdentPolicy`.
                    self.folded.push((t.tok.text.clone(), t.tok.pos));
                    return V::Int(0);
                }
                // A free (or unexpandable) macro used as a value.
                V::Opaque(text.to_string())
            }
            _ => {
                let text = t.text().to_string();
                self.fail(&format!(
                    "unexpected token '{text}' in conditional expression"
                ))
            }
        }
    }

    fn arith2(&mut self, l: V, r: V, op: &str, f: impl Fn(i64, i64) -> Option<i64>) -> V {
        match (&l, &r) {
            (V::Int(a), V::Int(b)) => match f(*a, *b) {
                Some(n) => V::Int(n),
                None => self.fail(&format!("arithmetic error evaluating '{op}'")),
            },
            _ => {
                self.nonbool = true;
                V::Opaque(format!("{} {op} {}", self.to_text(&l), self.to_text(&r)))
            }
        }
    }

    fn cmp2(&mut self, l: V, r: V, op: &str, f: impl Fn(i64, i64) -> bool) -> V {
        match (&l, &r) {
            (V::Int(a), V::Int(b)) => V::Int(f(*a, *b) as i64),
            // Comparing two conditions for equality folds to a condition.
            (V::Bool(a), V::Bool(b)) if op == "==" => V::Bool(a.and(b).or(&a.not().and(&b.not()))),
            (V::Bool(a), V::Bool(b)) if op == "!=" => V::Bool(a.and(&b.not()).or(&a.not().and(b))),
            _ => {
                self.nonbool = true;
                V::Opaque(format!("{} {op} {}", self.to_text(&l), self.to_text(&r)))
            }
        }
    }
}

/// Parses a C integer literal (decimal/octal/hex, with suffixes).
fn parse_int(text: &str) -> Option<i64> {
    let t = text
        .trim_end_matches(['u', 'U', 'l', 'L'])
        .to_ascii_lowercase();
    if let Some(hex) = t.strip_prefix("0x") {
        return i64::from_str_radix(hex, 16).ok();
    }
    if t.len() > 1 && t.starts_with('0') && t.bytes().all(|b| b.is_ascii_digit()) {
        return i64::from_str_radix(&t[1..], 8).ok();
    }
    t.parse().ok()
}

/// Value of a character constant (first character, simple escapes).
fn char_value(text: &str) -> Option<i64> {
    let inner = text
        .trim_start_matches('L')
        .strip_prefix('\'')?
        .strip_suffix('\'')?;
    let mut chars = inner.chars();
    match chars.next()? {
        '\\' => match chars.next()? {
            'n' => Some(10),
            't' => Some(9),
            'r' => Some(13),
            '0' => Some(0),
            '\\' => Some(92),
            '\'' => Some(39),
            '"' => Some(34),
            'x' => i64::from_str_radix(chars.as_str(), 16).ok(),
            c => Some(c as i64),
        },
        c => Some(c as i64),
    }
}

impl<F: FileSystem> Preprocessor<F> {
    /// Converts a `#if`/`#elif` expression to a presence condition,
    /// restricted to `c`. Returns the condition plus flags: whether a
    /// multiply-defined macro was hoisted around the expression, and
    /// whether opaque non-boolean subterms appeared.
    ///
    /// Results are memoized per worker: repeated guard expressions (the
    /// same header's `#ifndef` re-evaluated in every unit, the same
    /// `#if defined(...)` ladder across files) skip expansion, hoisting,
    /// and the BDD applies entirely. The memo key covers everything the
    /// evaluation can observe — see [`Preprocessor::condexpr_memo_key`] —
    /// and memo hits replay the exact counter mutations of the original
    /// evaluation, so all deterministic statistics are unchanged.
    pub(crate) fn eval_cond_expr(
        &mut self,
        tokens: &[Token],
        c: &Cond,
        pos: SourcePos,
    ) -> (Cond, bool, bool) {
        let key = self.condexpr_memo_key(tokens, c);
        if let Some(key) = key {
            if let Some(e) = self.condexpr_memo.get(&key) {
                let e = e.clone();
                self.stats.merge(&e.delta);
                self.stats.condexpr_memo_hits += 1;
                return (e.cond, e.hoisted, e.nonbool);
            }
        }
        let diags_before = self.diags.len();
        let stats_before = self.stats;
        let (cond, hoisted, nonbool) = self.eval_cond_expr_uncached(tokens, c, pos);
        let delta = superc_util::counters::delta(&self.stats, &stats_before);
        self.stats.condexpr_memo_misses += 1;
        // Evaluations that emitted diagnostics are not memoized: a hit
        // would have to replay position-tagged diagnostics too, and such
        // expressions (hoist blow-ups, parse errors) are rare by design.
        if self.diags.len() == diags_before {
            if let Some(key) = key {
                self.condexpr_memo.insert(
                    key,
                    CondExprEntry {
                        cond: cond.clone(),
                        hoisted,
                        nonbool,
                        delta,
                    },
                );
            }
        }
        (cond, hoisted, nonbool)
    }

    /// The memo key for evaluating `tokens` under `c`, or `None` when the
    /// expression is not safely memoizable.
    ///
    /// The signature must cover every input the evaluation reads:
    ///
    /// * the expression's tokens (kind, spelling, spacing);
    /// * the enclosing presence condition (by stable handle identity);
    /// * for every identifier the expression mentions — *transitively
    ///   through macro bodies*, since expansion rescans — the macro
    ///   table's entry list for that name (entry conditions by handle,
    ///   definitions by content, so per-unit rebuilt builtins still
    ///   match) and its include-guard bit (§3.2 case 4a).
    ///
    /// Definition bodies are hashed by content rather than pointer
    /// because built-ins and command-line defines are re-lexed into
    /// fresh `Rc`s every unit; content hashing is what lets the memo hit
    /// *across* units. `__FILE__`/`__LINE__` (when not shadowed) expand
    /// position-dependently, so expressions reaching them bail out.
    fn condexpr_memo_key(&self, tokens: &[Token], c: &Cond) -> Option<CondExprKey> {
        fn hash_tok(h: &mut FxHasher, t: &Token) {
            t.kind.hash(h);
            (*t.text).hash(h);
            t.ws_before.hash(h);
        }
        let mut eh = FxHasher::default();
        for t in tokens {
            hash_tok(&mut eh, t);
        }
        let expr_sig = eh.finish();

        let mut env = FxHasher::default();
        let mut seen: FastSet<Rc<str>> = FastSet::default();
        let mut work: Vec<Rc<str>> = tokens
            .iter()
            .filter(|t| t.is_ident() && t.text() != "defined")
            .map(|t| t.text.clone())
            .collect();
        while let Some(name) = work.pop() {
            if !seen.insert(name.clone()) {
                continue;
            }
            if (&*name == "__FILE__" || &*name == "__LINE__") && !self.table.mentioned(&name) {
                return None;
            }
            (*name).hash(&mut env);
            env.write_u8(self.table.is_guard(&name) as u8);
            match self.table.entries(&name) {
                None => env.write_u8(0),
                Some(entries) => {
                    env.write_u8(1);
                    env.write_usize(entries.len());
                    for e in entries {
                        e.cond.memo_key().hash(&mut env);
                        match &e.def {
                            None => env.write_u8(0),
                            Some(def) => {
                                let body = match &**def {
                                    MacroDef::Object { body } => {
                                        env.write_u8(1);
                                        body
                                    }
                                    MacroDef::Function {
                                        params,
                                        variadic,
                                        body,
                                    } => {
                                        env.write_u8(2);
                                        env.write_usize(params.len());
                                        for p in params {
                                            (**p).hash(&mut env);
                                        }
                                        variadic.hash(&mut env);
                                        body
                                    }
                                };
                                env.write_usize(body.len());
                                for t in body {
                                    hash_tok(&mut env, t);
                                    if t.is_ident() && t.text() != "defined" {
                                        work.push(t.text.clone());
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Some((expr_sig, env.finish(), c.memo_key()))
    }

    /// The unmemoized four-step evaluation (see the module docs).
    fn eval_cond_expr_uncached(
        &mut self,
        tokens: &[Token],
        c: &Cond,
        pos: SourcePos,
    ) -> (Cond, bool, bool) {
        // Step 1: resolve `defined` operators before expansion.
        let mut defined: Vec<Cond> = Vec::new();
        let mut protected: Vec<Element> = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if t.is_ident() && t.text() == "defined" {
                let (name, skip) =
                    if tokens.get(i + 1).map(|t| t.is_punct(Punct::LParen)) == Some(true) {
                        match (tokens.get(i + 2), tokens.get(i + 3)) {
                            (Some(n), Some(r)) if n.is_ident() && r.is_punct(Punct::RParen) => {
                                (Some(n.text.clone()), 4)
                            }
                            _ => (None, 1),
                        }
                    } else {
                        match tokens.get(i + 1) {
                            Some(n) if n.is_ident() => (Some(n.text.clone()), 2),
                            _ => (None, 1),
                        }
                    };
                match name {
                    Some(name) => {
                        let cond = self.defined_as_cond(&name, c);
                        let idx = defined.len();
                        defined.push(cond);
                        let ph = Token::new(
                            TokenKind::Ident,
                            format!("{DEFINED_PREFIX}{idx}"),
                            t.pos,
                            t.ws_before,
                        );
                        // Paint the placeholder so expansion skips it.
                        let text: Rc<str> = ph.text.clone();
                        protected.push(Element::Token(PTok {
                            tok: ph,
                            hide: HideSet::new().insert(text),
                        }));
                        i += skip;
                        continue;
                    }
                    None => {
                        self.diag(
                            Severity::Warning,
                            t.pos,
                            c,
                            "malformed defined() operator".to_string(),
                        );
                    }
                }
            }
            protected.push(Element::Token(PTok::new(t.clone())));
            i += 1;
        }

        // Step 2: expand macros in the expression.
        let expanded = self.expand_segment(protected, c);

        // Step 3: hoist implicit/explicit conditionals around the whole
        // expression.
        let hoisted = expanded
            .iter()
            .any(|e| matches!(e, Element::Conditional(_)));
        let flats = match self.hoist_elements(&expanded, c) {
            Some(f) => f,
            None => {
                self.diag(
                    Severity::Warning,
                    pos,
                    c,
                    "conditional expression too variable; treating as opaque".to_string(),
                );
                let key = normalize_expr_text(tokens);
                return (self.ctx.var(&key).and(c), false, true);
            }
        };

        // Step 4: parse and evaluate each flat configuration.
        let mut result = self.ctx.fls();
        let mut nonbool = false;
        // Free identifiers folded to 0, merged across flat configurations
        // (first position, ORed conditions, first-encounter order) for the
        // profile's `UndefIdentPolicy` to report.
        let mut folded: Vec<(Rc<str>, SourcePos, Cond)> = Vec::new();
        for (fc, toks) in flats {
            let mut p = ExprParser {
                toks: &toks,
                i: 0,
                depth: 0,
                defined: &defined,
                ctx: self.ctx.clone(),
                nonbool: false,
                fold_free: self.fold_free_idents(),
                folded: Vec::new(),
                error: None,
            };
            let v = p.ternary();
            if p.i < p.toks.len() && p.error.is_none() {
                let txt = normalize_ptoks(&toks);
                p.error = Some(format!("trailing tokens in conditional expression: {txt}"));
            }
            if let Some(msg) = p.error.take() {
                self.diag(Severity::Warning, pos, &fc, msg);
                // Treat the whole branch expression as opaque.
                let key = normalize_ptoks(&toks);
                nonbool = true;
                result = result.or(&fc.and(&self.ctx.var(&key)));
                continue;
            }
            let vc = p.cond_of(&v);
            nonbool |= p.nonbool;
            for (name, npos) in p.folded {
                match folded.iter_mut().find(|(n, _, _)| *n == name) {
                    Some((_, _, cond)) => *cond = cond.or(&fc),
                    None => folded.push((name, npos, fc.clone())),
                }
            }
            result = result.or(&fc.and(&vc));
        }
        for (name, npos, cond) in folded {
            self.warn_folded(&name, npos, &cond);
        }
        (result, hoisted, nonbool)
    }

    /// The condition under which `name` is `defined` (§3.2 case 4),
    /// restricted to `c`: defined entries' disjunction; free residue maps
    /// to a fresh condition variable, or `false` for guard macros.
    pub(crate) fn defined_as_cond(&mut self, name: &str, c: &Cond) -> Cond {
        let (defined, free) = self.table.defined_cond(name, c);
        if free.is_false() {
            return defined;
        }
        if self.fold_free_idents() {
            // Free macros resolve to plain-undefined (the other seat of
            // the policy `ExprParser::primary` applies to value uses).
            // `defined` is well-defined on undefined names, so no profile
            // diagnoses this fold.
            return defined;
        }
        if self.table.is_guard(name) {
            // Case 4a: guard macros translate to false when free.
            return defined;
        }
        let var = self.ctx.var(&format!("defined({name})"));
        defined.or(&free.and(&var))
    }
}
