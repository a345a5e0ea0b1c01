//! Presence conditions with pluggable representations.
//!
//! A *presence condition* is the boolean function over configuration
//! variables under which a piece of source code is present (SuperC §2/§3.2).
//! SuperC represents presence conditions as BDDs; TypeChef instead builds
//! formula trees and discharges feasibility queries with a SAT solver over a
//! CNF conversion — which the paper identifies as the likely cause of
//! TypeChef's latency knee in Figure 9.
//!
//! This crate exposes one concrete type, [`Cond`], behind which either
//! backend runs, so the rest of the pipeline (preprocessor, FMLR parser) is
//! oblivious to the representation and the Figure 9 comparison can hold
//! everything else constant:
//!
//! * [`CondBackend::Bdd`] — canonical BDDs (`superc_bdd`); `is_false` is an
//!   O(1) handle test.
//! * [`CondBackend::Sat`] — structural formula trees; `is_false` runs a DPLL
//!   solver over a Tseitin CNF encoding, like TypeChef's approach.
//!
//! # Examples
//!
//! ```
//! use superc_cond::{CondBackend, CondCtx};
//!
//! for backend in [CondBackend::Bdd, CondBackend::Sat] {
//!     let ctx = CondCtx::new(backend);
//!     let a = ctx.var("defined(CONFIG_64BIT)");
//!     let cond = a.not().and(&a);
//!     assert!(cond.is_false()); // infeasible under both backends
//! }
//! ```

mod dpll;
mod formula;

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use formula::Formula;
use superc_bdd::{Bdd, BddManager};
use superc_util::{FastMap, FastSet, Interner, Symbol};

/// Which representation a [`CondCtx`] uses for its conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CondBackend {
    /// Canonical BDDs, as in SuperC.
    Bdd,
    /// Formula trees + DPLL SAT feasibility, as in TypeChef.
    Sat,
}

impl fmt::Display for CondBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CondBackend::Bdd => write!(f, "bdd"),
            CondBackend::Sat => write!(f, "sat"),
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum FKey {
    Not(usize),
    And(Vec<usize>),
    Or(Vec<usize>),
}

#[derive(Debug, Default)]
struct SatState {
    var_names: Vec<String>,
    var_ids: FastMap<String, u32>,
    sat_calls: u64,
    dpll_steps: u64,
    /// Memoized unsatisfiability results, keyed by formula identity.
    unsat_memo: FastMap<usize, bool>,
    /// Hash-consing table: structurally identical formulas share one node,
    /// so the unsat memo hits and `x ∧ ¬x` is detectable locally.
    intern: FastMap<FKey, Arc<Formula>>,
    /// One shared node per variable (aligned with `var_names`).
    var_nodes: Vec<Arc<Formula>>,
    tru: Option<Arc<Formula>>,
    fls: Option<Arc<Formula>>,
}

impl SatState {
    fn consts(&mut self) -> (Arc<Formula>, Arc<Formula>) {
        let t = self.tru.get_or_insert_with(Formula::tru).clone();
        let f = self.fls.get_or_insert_with(Formula::fls).clone();
        (t, f)
    }

    fn mk_not(&mut self, a: Arc<Formula>) -> Arc<Formula> {
        let (t, f) = self.consts();
        match &*a {
            Formula::True => return f,
            Formula::False => return t,
            Formula::Not(inner) => return inner.clone(),
            _ => {}
        }
        let key = FKey::Not(Arc::as_ptr(&a) as usize);
        self.intern
            .entry(key)
            .or_insert_with(|| Arc::new(Formula::Not(a)))
            .clone()
    }

    /// Builds an interned n-ary And/Or with flattening, ptr-sorted
    /// deduplicated children, constant folding, and local
    /// contradiction/tautology detection (`x` and `¬x` among children).
    fn mk_nary(&mut self, is_and: bool, a: Arc<Formula>, b: Arc<Formula>) -> Arc<Formula> {
        let (t, f) = self.consts();
        let (absorb, ident) = if is_and { (f, t) } else { (t, f) };
        let mut kids: Vec<Arc<Formula>> = Vec::new();
        for x in [a, b] {
            match (&*x, is_and) {
                (Formula::And(ks), true) | (Formula::Or(ks), false) => {
                    kids.extend(ks.iter().cloned())
                }
                _ => kids.push(x),
            }
        }
        kids.retain(|k| !Arc::ptr_eq(k, &ident) && k.as_const() != Some(is_and));
        if kids
            .iter()
            .any(|k| Arc::ptr_eq(k, &absorb) || k.as_const() == Some(!is_and))
        {
            return absorb;
        }
        kids.sort_by_key(|k| Arc::as_ptr(k) as usize);
        kids.dedup_by(|x, y| Arc::ptr_eq(x, y));
        // x together with ¬x: contradiction (And) / tautology (Or).
        let ptrs: FastSet<usize> = kids.iter().map(|k| Arc::as_ptr(k) as usize).collect();
        for k in &kids {
            if let Formula::Not(inner) = &**k {
                if ptrs.contains(&(Arc::as_ptr(inner) as usize)) {
                    return absorb;
                }
            }
        }
        match kids.len() {
            0 => ident,
            1 => kids.pop().expect("one"),
            _ => {
                let ptr_list: Vec<usize> = kids.iter().map(|k| Arc::as_ptr(k) as usize).collect();
                let key = if is_and {
                    FKey::And(ptr_list)
                } else {
                    FKey::Or(ptr_list)
                };
                self.intern
                    .entry(key)
                    .or_insert_with(|| {
                        Arc::new(if is_and {
                            Formula::And(kids)
                        } else {
                            Formula::Or(kids)
                        })
                    })
                    .clone()
            }
        }
    }
}

/// Fixed probe assignments: satisfying any of them proves satisfiability
/// in O(formula) without a solver call. Probe 0 is all-false (the common
/// "every CONFIG undefined" case); the rest are cheap hashes.
fn probe_assignment(seed: u32, var: u32) -> bool {
    match seed {
        0 => false,
        1 => true,
        _ => (var.wrapping_mul(2654435761).wrapping_add(seed * 40503)) & 4 == 0,
    }
}

enum Backend {
    Bdd(BddManager),
    Sat(RefCell<SatState>),
}

/// Work counters for a [`CondCtx`], from [`CondCtx::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CondStats {
    /// Feasibility (`is_false`) queries answered.
    pub feasibility_checks: u64,
    /// DPLL decision/propagation steps (SAT backend only).
    pub dpll_steps: u64,
    /// Interned condition variables.
    pub variables: usize,
}

// A `#if`-memo hit skips the feasibility checks its evaluation made, and
// per-worker memo state depends on the schedule: every counter here is a
// schedule gauge.
superc_util::counters!(CondStats in "cond" {
    feasibility_checks: Schedule Sum,
    dpll_steps: Schedule Sum,
    variables: Schedule Sum,
});

impl CondStats {
    /// Accumulates another context's counters (corpus-level reporting over
    /// per-worker contexts). `variables` sums across workers, so the
    /// aggregate counts interning work done, not distinct names.
    pub fn merge(&mut self, other: &CondStats) {
        superc_util::counters::merge(self, other);
    }
}

struct CtxInner {
    backend: Backend,
    checks: RefCell<u64>,
    interner: Interner,
}

/// A factory and evaluation context for [`Cond`] values.
///
/// All conditions combined together must come from the same context.
/// Cloning is cheap and shares state.
///
/// # Examples
///
/// ```
/// use superc_cond::{CondBackend, CondCtx};
/// let ctx = CondCtx::new(CondBackend::Bdd);
/// let smp = ctx.var("defined(CONFIG_SMP)");
/// assert!(smp.or(&smp.not()).is_true());
/// ```
#[derive(Clone)]
pub struct CondCtx {
    inner: Rc<CtxInner>,
}

impl fmt::Debug for CondCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CondCtx({})", self.backend())
    }
}

impl CondCtx {
    /// Creates a context using the given backend.
    pub fn new(backend: CondBackend) -> Self {
        let interner = Interner::new();
        let backend = match backend {
            CondBackend::Bdd => Backend::Bdd(BddManager::with_interner(interner.clone())),
            CondBackend::Sat => Backend::Sat(RefCell::new(SatState::default())),
        };
        CondCtx {
            inner: Rc::new(CtxInner {
                backend,
                checks: RefCell::new(0),
                interner,
            }),
        }
    }

    /// The pipeline's shared name interner.
    ///
    /// The preprocessor interns macro and configuration-variable names
    /// here, so [`Symbol`]s agree between the macro table, this context,
    /// and (under the BDD backend) the BDD manager's variable table.
    pub fn interner(&self) -> Interner {
        self.inner.interner.clone()
    }

    /// The condition variable for an already-interned `sym` — the
    /// string-free fast path of [`CondCtx::var`].
    pub fn var_sym(&self, sym: Symbol) -> Cond {
        match &self.inner.backend {
            Backend::Bdd(m) => self.wrap_bdd(m.var_sym(sym)),
            Backend::Sat(_) => {
                let name = self.inner.interner.resolve(sym);
                self.var(&name)
            }
        }
    }

    /// The backend this context was created with.
    pub fn backend(&self) -> CondBackend {
        match &self.inner.backend {
            Backend::Bdd(_) => CondBackend::Bdd,
            Backend::Sat(_) => CondBackend::Sat,
        }
    }

    /// The constant `true` condition (code present in every configuration).
    pub fn tru(&self) -> Cond {
        match &self.inner.backend {
            Backend::Bdd(m) => self.wrap_bdd(m.tru()),
            Backend::Sat(s) => {
                let t = s.borrow_mut().consts().0;
                self.wrap_formula(t)
            }
        }
    }

    /// The constant `false` condition (code present in no configuration).
    pub fn fls(&self) -> Cond {
        match &self.inner.backend {
            Backend::Bdd(m) => self.wrap_bdd(m.fls()),
            Backend::Sat(s) => {
                let f = s.borrow_mut().consts().1;
                self.wrap_formula(f)
            }
        }
    }

    /// A constant condition chosen by `value`.
    pub fn constant(&self, value: bool) -> Cond {
        if value {
            self.tru()
        } else {
            self.fls()
        }
    }

    /// The condition variable named `name`, interned on first use.
    ///
    /// Names are the keys SuperC §3.2 describes: `defined(M)` for free
    /// macros, the macro name itself for a free macro used as a value, or
    /// the normalized text of an opaque non-boolean expression.
    pub fn var(&self, name: &str) -> Cond {
        match &self.inner.backend {
            Backend::Bdd(m) => self.wrap_bdd(m.var(name)),
            Backend::Sat(s) => {
                let mut s = s.borrow_mut();
                let id = if let Some(&id) = s.var_ids.get(name) {
                    id
                } else {
                    let id = s.var_names.len() as u32;
                    s.var_names.push(name.to_string());
                    s.var_ids.insert(name.to_string(), id);
                    s.var_nodes.push(Formula::var(id));
                    id
                };
                let node = s.var_nodes[id as usize].clone();
                drop(s);
                self.wrap_formula(node)
            }
        }
    }

    /// BDD manager counters (node/cache statistics), when this context
    /// uses the BDD backend. `None` under the SAT backend.
    pub fn bdd_stats(&self) -> Option<superc_bdd::BddStats> {
        match &self.inner.backend {
            Backend::Bdd(m) => Some(m.stats()),
            Backend::Sat(_) => None,
        }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> CondStats {
        let checks = *self.inner.checks.borrow();
        match &self.inner.backend {
            Backend::Bdd(m) => CondStats {
                feasibility_checks: checks,
                dpll_steps: 0,
                variables: m.num_vars() as usize,
            },
            Backend::Sat(s) => {
                let s = s.borrow();
                CondStats {
                    feasibility_checks: checks,
                    dpll_steps: s.dpll_steps,
                    variables: s.var_names.len(),
                }
            }
        }
    }

    fn wrap_bdd(&self, b: Bdd) -> Cond {
        Cond {
            ctx: self.clone(),
            repr: Repr::Bdd(b),
        }
    }

    fn wrap_formula(&self, f: Arc<Formula>) -> Cond {
        Cond {
            ctx: self.clone(),
            repr: Repr::Formula(f),
        }
    }

    fn same_ctx(&self, other: &CondCtx) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }
}

#[derive(Clone)]
enum Repr {
    Bdd(Bdd),
    Formula(Arc<Formula>),
}

/// A presence condition: a boolean function over configuration variables.
///
/// Conditions support the operations SuperC needs — conjunction when
/// entering nested conditionals, disjunction when merging subparsers,
/// negation when accumulating "remaining configurations" in the token
/// follow-set, and the `is_false` feasibility test used everywhere.
///
/// Equality (`==`) is *representation* equality: exact for the BDD backend
/// (canonicity), syntactic for the SAT backend. Use
/// [`Cond::semantically_equal`] for a backend-independent semantic check.
///
/// # Examples
///
/// ```
/// use superc_cond::{CondBackend, CondCtx};
/// let ctx = CondCtx::new(CondBackend::Bdd);
/// let b64 = ctx.var("defined(CONFIG_64BIT)");
/// // Presence condition of the implicit #else branch:
/// let other = b64.not();
/// assert!(b64.or(&other).is_true());
/// ```
#[derive(Clone)]
pub struct Cond {
    ctx: CondCtx,
    repr: Repr,
}

impl Cond {
    /// The context this condition belongs to.
    pub fn ctx(&self) -> &CondCtx {
        &self.ctx
    }

    /// Conjunction: present when both conditions hold.
    pub fn and(&self, other: &Cond) -> Cond {
        debug_assert!(self.ctx.same_ctx(&other.ctx), "conds from different ctxs");
        match (&self.repr, &other.repr) {
            (Repr::Bdd(a), Repr::Bdd(b)) => self.ctx.wrap_bdd(a.and(b)),
            (Repr::Formula(a), Repr::Formula(b)) => {
                let f = match &self.ctx.inner.backend {
                    Backend::Sat(s) => s.borrow_mut().mk_nary(true, a.clone(), b.clone()),
                    Backend::Bdd(_) => unreachable!(),
                };
                self.ctx.wrap_formula(f)
            }
            _ => unreachable!("mixed representations within one context"),
        }
    }

    /// Disjunction: present when either condition holds.
    pub fn or(&self, other: &Cond) -> Cond {
        debug_assert!(self.ctx.same_ctx(&other.ctx), "conds from different ctxs");
        match (&self.repr, &other.repr) {
            (Repr::Bdd(a), Repr::Bdd(b)) => self.ctx.wrap_bdd(a.or(b)),
            (Repr::Formula(a), Repr::Formula(b)) => {
                let f = match &self.ctx.inner.backend {
                    Backend::Sat(s) => s.borrow_mut().mk_nary(false, a.clone(), b.clone()),
                    Backend::Bdd(_) => unreachable!(),
                };
                self.ctx.wrap_formula(f)
            }
            _ => unreachable!("mixed representations within one context"),
        }
    }

    /// Negation.
    pub fn not(&self) -> Cond {
        match &self.repr {
            Repr::Bdd(a) => self.ctx.wrap_bdd(a.not()),
            Repr::Formula(a) => {
                let f = match &self.ctx.inner.backend {
                    Backend::Sat(s) => s.borrow_mut().mk_not(a.clone()),
                    Backend::Bdd(_) => unreachable!(),
                };
                self.ctx.wrap_formula(f)
            }
        }
    }

    /// Difference `self ∧ ¬other`, the "remaining configuration" operation.
    pub fn and_not(&self, other: &Cond) -> Cond {
        self.and(&other.not())
    }

    /// True when no configuration satisfies this condition.
    ///
    /// This is *the* hot query of configuration-preserving processing: the
    /// macro table trims entries with `c1 ∧ c2 = false`, the follow-set drops
    /// infeasible branches, and the parser kills dead subparsers with it.
    /// O(1) under the BDD backend; a DPLL run under the SAT backend.
    pub fn is_false(&self) -> bool {
        *self.ctx.inner.checks.borrow_mut() += 1;
        match &self.repr {
            Repr::Bdd(a) => a.is_false(),
            Repr::Formula(f) => match &self.ctx.inner.backend {
                Backend::Sat(s) => {
                    if let Some(b) = f.as_const() {
                        return !b;
                    }
                    // Probe a few fixed assignments: a satisfying one
                    // proves feasibility without a solver run.
                    for seed in 0..8 {
                        if f.eval(&|v| probe_assignment(seed, v)) {
                            return false;
                        }
                    }
                    let key = Arc::as_ptr(f) as usize;
                    if let Some(&r) = s.borrow().unsat_memo.get(&key) {
                        return r;
                    }
                    let (clauses, nvars) = formula::tseitin(f);
                    let mut steps = 0u64;
                    let sat = dpll::solve(&clauses, nvars, &mut steps).possibly_sat();
                    {
                        let mut s = s.borrow_mut();
                        s.sat_calls += 1;
                        s.dpll_steps += steps;
                        s.unsat_memo.insert(key, !sat);
                    }
                    !sat
                }
                Backend::Bdd(_) => unreachable!(),
            },
        }
    }

    /// True when every configuration satisfies this condition.
    pub fn is_true(&self) -> bool {
        match &self.repr {
            Repr::Bdd(a) => {
                *self.ctx.inner.checks.borrow_mut() += 1;
                a.is_true()
            }
            Repr::Formula(_) => self.not().is_false(),
        }
    }

    /// True when `self ∧ other` is satisfiable.
    pub fn feasible_with(&self, other: &Cond) -> bool {
        !self.and(other).is_false()
    }

    /// True when every configuration satisfying `self` also satisfies
    /// `other` (`self ⇒ other`). The analysis layer leans on this for
    /// dead-branch detection and canonical condition rendering.
    pub fn implies(&self, other: &Cond) -> bool {
        self.and_not(other).is_false()
    }

    /// True when the two conditions denote the same boolean function.
    pub fn semantically_equal(&self, other: &Cond) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Bdd(a), Repr::Bdd(b)) => a == b,
            _ => {
                // Equivalent iff (a ∧ ¬b) ∨ (¬a ∧ b) is unsatisfiable.
                self.and(&other.not()).or(&self.not().and(other)).is_false()
            }
        }
    }

    /// Evaluates the condition under a configuration.
    ///
    /// Variables for which `env` returns `None` default to `false`, matching
    /// the preprocessor's view that unset configuration macros are undefined.
    pub fn eval(&self, env: impl Fn(&str) -> Option<bool> + Copy) -> bool {
        match &self.repr {
            Repr::Bdd(a) => a.eval(env),
            Repr::Formula(f) => match &self.ctx.inner.backend {
                Backend::Sat(s) => {
                    let s = s.borrow();
                    f.eval(&|v| env(&s.var_names[v as usize]).unwrap_or(false))
                }
                Backend::Bdd(_) => unreachable!(),
            },
        }
    }

    /// One configuration satisfying this condition, as `(variable name,
    /// value)` pairs, or `None` if infeasible. Unlisted variables may take
    /// either value.
    pub fn example_config(&self) -> Option<Vec<(String, bool)>> {
        match &self.repr {
            Repr::Bdd(a) => {
                let m = a.manager();
                a.one_sat().map(|model| {
                    model
                        .into_iter()
                        .map(|(v, val)| (m.var_name(v), val))
                        .collect()
                })
            }
            Repr::Formula(f) => {
                if let Some(b) = f.as_const() {
                    return b.then(Vec::new);
                }
                match &self.ctx.inner.backend {
                    Backend::Sat(s) => {
                        let (clauses, nvars) = formula::tseitin(f);
                        let mut steps = 0u64;
                        let model = dpll::solve(&clauses, nvars, &mut steps).model()?;
                        s.borrow_mut().dpll_steps += steps;
                        let s = s.borrow();
                        // Only report source variables, not Tseitin auxiliaries.
                        Some(
                            model
                                .iter()
                                .enumerate()
                                .take(s.var_names.len())
                                .filter_map(|(i, &val)| val.map(|b| (s.var_names[i].clone(), b)))
                                .collect(),
                        )
                    }
                    Backend::Bdd(_) => unreachable!(),
                }
            }
        }
    }

    /// The variables this condition depends on, as sorted, deduplicated
    /// names — the *support* of the boolean function.
    ///
    /// Drives the exhaustive-configuration oracle: enumerating all `2^n`
    /// assignments of the support proves the configuration-preserving
    /// pipeline equal to the single-configuration pipeline on every
    /// configuration, not just sampled ones.
    pub fn support_names(&self) -> Vec<String> {
        let mut names: Vec<String> = match &self.repr {
            Repr::Bdd(a) => {
                let m = a.manager();
                a.support().into_iter().map(|v| m.var_name(v)).collect()
            }
            Repr::Formula(f) => {
                let mut vars = std::collections::HashSet::new();
                f.collect_vars(&mut vars);
                match &self.ctx.inner.backend {
                    Backend::Sat(s) => {
                        let s = s.borrow();
                        vars.into_iter()
                            .map(|v| s.var_names[v as usize].clone())
                            .collect()
                    }
                    Backend::Bdd(_) => unreachable!(),
                }
            }
        };
        names.sort();
        names.dedup();
        names
    }

    /// A cheap identity key for per-worker memo tables, stable for the
    /// lifetime of the owning context. Equal keys imply the same boolean
    /// function: BDD handles are canonical per manager (the tag
    /// disambiguates the backends), and formula keys are interned-node
    /// addresses which stay alive as long as the context's hash-consing
    /// table does. Unequal keys say nothing — the SAT backend may intern
    /// structurally distinct but equivalent formulas separately.
    pub fn memo_key(&self) -> (u8, u64) {
        match &self.repr {
            Repr::Bdd(a) => (0, a.handle_id()),
            Repr::Formula(f) => (1, Arc::as_ptr(f) as u64),
        }
    }

    /// A structural size measure (BDD node count or formula size) used in
    /// instrumentation; larger conditions are costlier for the SAT backend.
    pub fn size(&self) -> usize {
        match &self.repr {
            Repr::Bdd(a) => a.node_count(),
            Repr::Formula(f) => f.size(),
        }
    }
}

impl PartialEq for Cond {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Bdd(a), Repr::Bdd(b)) => a == b,
            (Repr::Formula(a), Repr::Formula(b)) => Arc::ptr_eq(a, b) || a.syntactic_eq(b),
            _ => false,
        }
    }
}

impl fmt::Debug for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cond({self})")
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Bdd(a) => write!(f, "{a}"),
            Repr::Formula(fr) => match &self.ctx.inner.backend {
                Backend::Sat(s) => {
                    let s = s.borrow();
                    fr.display_with(f, &|v| s.var_names[v as usize].clone())
                }
                Backend::Bdd(_) => unreachable!(),
            },
        }
    }
}

#[cfg(test)]
mod tests;
