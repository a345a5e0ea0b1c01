//! The public [`Grammar`]: dense action/goto tables with precedence-based
//! conflict resolution and the symbol/production metadata the parser
//! engine needs.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::builder::{Assoc, AstBuild, GrammarBuilder, GrammarError, Production};
use crate::lalr::{self, LalrInput};

/// Process-wide count of LALR table constructions ([`build_grammar`]
/// runs). The tables are the one-time artifact every parse shares;
/// corpus drivers are expected to build them **once per process** and
/// `Arc`-share them across workers, and
/// `tests/shared_artifacts.rs` asserts exactly that via this counter.
static TABLES_BUILT: AtomicUsize = AtomicUsize::new(0);

/// How many times LALR tables have been constructed in this process
/// (across all grammars). A corpus run over the C grammar should leave
/// this at 1 no matter how many workers it used.
pub fn tables_built() -> usize {
    TABLES_BUILT.load(Ordering::SeqCst)
}

/// A symbol (terminal or nonterminal) in a [`Grammar`]'s numbering:
/// terminals first, then nonterminals.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymbolId(pub u32);

/// A parse action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Push the token, go to the state.
    Shift(u32),
    /// Reduce by the production index.
    Reduce(u32),
    /// Input accepted.
    Accept,
    /// Syntax error.
    Error,
}

/// A resolved conflict, reported for grammar debugging (like Bison's
/// `-Wconflicts` output).
#[derive(Clone, Debug)]
pub struct Conflict {
    /// State where the conflict arose.
    pub state: u32,
    /// Lookahead terminal name.
    pub terminal: String,
    /// Human-readable description of the resolution.
    pub resolution: String,
}

/// The immutable artifact of grammar construction: dense LALR(1)
/// action/goto tables plus symbol and production metadata.
///
/// This is the **shareable** layer: building the C grammar's tables
/// (518 states) takes about 3 ms of CPU in a release build on a 2-vCPU
/// VM, far more than parsing a short unit, so the tables are built once
/// per process and handed out behind an `Arc` ([`Grammar`] is a cheap
/// clonable handle).
/// Everything here is plain data — no interior mutability — so
/// `&ParseTables` is freely `Sync` across parser workers.
pub struct ParseTables {
    terminals: Vec<String>,
    nonterminals: Vec<String>,
    prods: Vec<Production>,
    prod_rhs_len: Vec<u32>,
    action: Vec<Action>,
    goto_: Vec<u32>, // u32::MAX = none
    num_states: u32,
    eof: SymbolId,
    complete: Vec<bool>,
    conflicts: Vec<Conflict>,
    by_name: HashMap<String, SymbolId>,
}

/// LALR(1) parse tables plus grammar metadata.
///
/// Built with [`GrammarBuilder`]; consumed by the FMLR parser engine.
/// A `Grammar` is a handle to an [`Arc`]-shared [`ParseTables`]:
/// cloning it is a reference-count bump, so corpus drivers hand every
/// worker the same tables instead of rebuilding them per worker. All
/// table accessors live on [`ParseTables`] and are reachable through
/// `Deref`.
#[derive(Clone)]
pub struct Grammar {
    tables: Arc<ParseTables>,
}

impl std::ops::Deref for Grammar {
    type Target = ParseTables;

    fn deref(&self) -> &ParseTables {
        &self.tables
    }
}

impl fmt::Debug for Grammar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Grammar {{ terminals: {}, nonterminals: {}, productions: {}, states: {} }}",
            self.terminals.len(),
            self.nonterminals.len(),
            self.prods.len(),
            self.num_states
        )
    }
}

impl Grammar {
    /// The shared tables behind this handle. Use this to hold the
    /// immutable layer directly (e.g. across threads without a
    /// `'static` grammar).
    pub fn tables(&self) -> &Arc<ParseTables> {
        &self.tables
    }

    /// A second handle to the same tables (reference-count bump; never
    /// rebuilds). Equivalent to `clone`, spelled to make call sites
    /// explicit that no construction happens.
    pub fn share(&self) -> Grammar {
        self.clone()
    }
}

impl ParseTables {
    /// Number of terminals (including the implicit eof).
    pub fn num_terminals(&self) -> u32 {
        self.terminals.len() as u32
    }

    /// Number of LALR states.
    pub fn num_states(&self) -> u32 {
        self.num_states
    }

    /// Number of productions (production 0 is the augmented start).
    pub fn num_productions(&self) -> u32 {
        self.prods.len() as u32
    }

    /// The end-of-input terminal.
    pub fn eof(&self) -> SymbolId {
        self.eof
    }

    /// Looks up a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<SymbolId> {
        self.by_name.get(name).copied()
    }

    /// Looks up a *terminal* by name.
    pub fn terminal(&self, name: &str) -> Option<SymbolId> {
        self.symbol(name).filter(|s| self.is_terminal(*s))
    }

    /// True for terminal symbols.
    pub fn is_terminal(&self, s: SymbolId) -> bool {
        (s.0 as usize) < self.terminals.len()
    }

    /// The symbol's name.
    pub fn symbol_name(&self, s: SymbolId) -> &str {
        let t = s.0 as usize;
        if t < self.terminals.len() {
            &self.terminals[t]
        } else {
            &self.nonterminals[t - self.terminals.len()]
        }
    }

    /// The production at `idx`.
    pub fn production(&self, idx: u32) -> &Production {
        &self.prods[idx as usize]
    }

    /// Name of a production's left-hand side (AST node kind).
    pub fn lhs_name(&self, idx: u32) -> &str {
        self.symbol_name(self.prods[idx as usize].lhs)
    }

    /// The action for `(state, terminal)`.
    pub fn action(&self, state: u32, term: SymbolId) -> Action {
        debug_assert!(self.is_terminal(term));
        self.action[state as usize * self.terminals.len() + term.0 as usize]
    }

    /// The goto state for `(state, nonterminal)`, if any.
    pub fn goto(&self, state: u32, nt: SymbolId) -> Option<u32> {
        let idx = state as usize * self.nonterminals.len() + (nt.0 as usize - self.terminals.len());
        let g = self.goto_[idx];
        (g != u32::MAX).then_some(g)
    }

    /// Is the nonterminal a *complete syntactic unit* (merge point)?
    pub fn is_complete(&self, s: SymbolId) -> bool {
        if self.is_terminal(s) {
            return false;
        }
        self.complete[s.0 as usize - self.terminals.len()]
    }

    /// Conflicts resolved during construction (empty for a clean grammar).
    pub fn conflicts(&self) -> &[Conflict] {
        &self.conflicts
    }

    /// The start state.
    pub fn start_state(&self) -> u32 {
        0
    }
}

pub(crate) fn build_grammar(b: &GrammarBuilder) -> Result<Grammar, GrammarError> {
    let (start, terminals, term_set, raw_prods, prec, complete_names) = b.parts();
    let err = |m: String| GrammarError { message: m };

    if term_set.contains_key("$eof") {
        return Err(err("$eof is reserved".to_string()));
    }
    let mut terminals: Vec<String> = terminals.to_vec();
    terminals.push("$eof".to_string());
    let num_terms = terminals.len() as u32;
    let eof = num_terms - 1;

    // Collect nonterminals: lhs names plus the augmented start.
    let mut nonterminals: Vec<String> = Vec::new();
    let mut nt_ids: HashMap<&str, u32> = HashMap::new();
    for p in raw_prods {
        if term_set.contains_key(p.lhs.as_str()) {
            return Err(err(format!("terminal {} used as production lhs", p.lhs)));
        }
        if !nt_ids.contains_key(p.lhs.as_str()) {
            nt_ids.insert(p.lhs.as_str(), nonterminals.len() as u32);
            nonterminals.push(p.lhs.clone());
        }
    }
    if !nt_ids.contains_key(start) {
        return Err(err(format!("start symbol {start} has no productions")));
    }
    let aug = nonterminals.len() as u32;
    nonterminals.push("$start".to_string());

    // Encode productions; production 0 is `$start -> start`.
    let mut prods: Vec<(u32, Vec<u32>)> = vec![(aug, vec![num_terms + nt_ids[start]])];
    for p in raw_prods {
        let mut rhs = Vec::with_capacity(p.rhs.len());
        for s in &p.rhs {
            if let Some(&t) = term_set.get(s.as_str()) {
                rhs.push(t as u32);
            } else if let Some(&n) = nt_ids.get(s.as_str()) {
                rhs.push(num_terms + n);
            } else {
                return Err(err(format!(
                    "symbol {s} in production for {} is neither a declared terminal nor defined as a nonterminal",
                    p.lhs
                )));
            }
        }
        prods.push((nt_ids[p.lhs.as_str()], rhs));
    }

    let input = LalrInput {
        num_terms,
        num_nonterms: nonterminals.len() as u32,
        prods: prods.clone(),
        eof,
    };
    let auto = lalr::build(&input);
    let num_states = auto.kernels.len() as u32;

    // Precedence helpers.
    let term_prec =
        |t: u32| -> Option<(u32, Assoc)> { prec.get(terminals[t as usize].as_str()).copied() };
    let prod_prec = |pi: u32| -> Option<(u32, Assoc)> {
        if pi == 0 {
            return None;
        }
        let raw = &raw_prods[pi as usize - 1];
        if let Some(pt) = &raw.prec {
            return prec.get(pt.as_str()).copied();
        }
        // Default: the last terminal in the rhs.
        prods[pi as usize]
            .1
            .iter()
            .rev()
            .find(|&&s| s < num_terms)
            .and_then(|&t| term_prec(t))
    };

    // Fill tables.
    let mut action = vec![Action::Error; num_states as usize * terminals.len()];
    let mut goto_ = vec![u32::MAX; num_states as usize * nonterminals.len()];
    let mut conflicts: Vec<Conflict> = Vec::new();

    for st in 0..num_states as usize {
        for &(sym, target) in &auto.trans[st] {
            if sym < num_terms {
                action[st * terminals.len() + sym as usize] = Action::Shift(target);
            } else {
                goto_[st * nonterminals.len() + (sym - num_terms) as usize] = target;
            }
        }
        for (pi, las) in &auto.reduces[st] {
            for la in las.iter() {
                let cell = &mut action[st * terminals.len() + la as usize];
                let reduce_action = if *pi == 0 {
                    Action::Accept
                } else {
                    Action::Reduce(*pi)
                };
                match *cell {
                    Action::Error => *cell = reduce_action,
                    Action::Shift(_) => {
                        // Shift/reduce: try precedence.
                        match (prod_prec(*pi), term_prec(la)) {
                            (Some((pp, _)), Some((tp, _))) if pp > tp => {
                                *cell = reduce_action;
                            }
                            (Some((pp, _)), Some((tp, _))) if pp < tp => { /* keep shift */ }
                            (Some((_, Assoc::Left)), Some(_)) => {
                                *cell = reduce_action;
                            }
                            (Some((_, Assoc::Right)), Some(_)) => { /* keep shift */ }
                            (Some((_, Assoc::NonAssoc)), Some(_)) => {
                                *cell = Action::Error;
                            }
                            _ => {
                                conflicts.push(Conflict {
                                    state: st as u32,
                                    terminal: terminals[la as usize].clone(),
                                    resolution: format!(
                                        "shift/reduce with production {pi}: resolved as shift"
                                    ),
                                });
                            }
                        }
                    }
                    Action::Reduce(prev) => {
                        let keep = prev.min(*pi);
                        conflicts.push(Conflict {
                            state: st as u32,
                            terminal: terminals[la as usize].clone(),
                            resolution: format!(
                                "reduce/reduce between productions {prev} and {pi}: kept {keep}"
                            ),
                        });
                        *cell = Action::Reduce(keep);
                    }
                    Action::Accept => {}
                }
            }
        }
    }

    // Public production metadata.
    let mk_sym = |s: u32| SymbolId(s);
    let mut out_prods: Vec<Production> = Vec::with_capacity(prods.len());
    out_prods.push(Production {
        lhs: mk_sym(num_terms + aug),
        rhs: prods[0].1.iter().map(|&s| mk_sym(s)).collect(),
        ast: AstBuild::Passthrough,
        prec: None,
    });
    for (i, raw) in raw_prods.iter().enumerate() {
        let (lhs, rhs) = &prods[i + 1];
        out_prods.push(Production {
            lhs: mk_sym(num_terms + lhs),
            rhs: rhs.iter().map(|&s| mk_sym(s)).collect(),
            ast: raw.ast,
            prec: raw
                .prec
                .as_ref()
                .and_then(|p| term_set.get(p.as_str()))
                .map(|&t| mk_sym(t as u32)),
        });
        if let Some(p) = &raw.prec {
            if out_prods.last().expect("pushed").prec.is_none() {
                return Err(err(format!("%prec symbol {p} is not a declared terminal")));
            }
        }
    }

    let mut complete = vec![false; nonterminals.len()];
    for name in complete_names {
        match nt_ids.get(name.as_str()) {
            Some(&n) => complete[n as usize] = true,
            None => {
                return Err(err(format!(
                    "complete symbol {name} is not a defined nonterminal"
                )))
            }
        }
    }

    let mut by_name: HashMap<String, SymbolId> = HashMap::new();
    for (i, t) in terminals.iter().enumerate() {
        by_name.insert(t.clone(), SymbolId(i as u32));
    }
    for (i, n) in nonterminals.iter().enumerate() {
        by_name.insert(n.clone(), SymbolId(num_terms + i as u32));
    }

    let prod_rhs_len = out_prods.iter().map(|p| p.rhs.len() as u32).collect();
    TABLES_BUILT.fetch_add(1, Ordering::SeqCst);
    Ok(Grammar {
        tables: Arc::new(ParseTables {
            terminals,
            nonterminals,
            prods: out_prods,
            prod_rhs_len,
            action,
            goto_,
            num_states,
            eof: SymbolId(eof),
            complete,
            conflicts,
            by_name,
        }),
    })
}

impl ParseTables {
    /// Right-hand-side length of a production (pop count on reduce).
    pub fn rhs_len(&self, prod: u32) -> u32 {
        self.prod_rhs_len[prod as usize]
    }
}
