//! The BDD node table, unique table, and apply cache.
//!
//! All interior tables are [`FastMap`]s (FxHash): the unique table and
//! operation caches are keyed on small integers, where SipHash's
//! per-lookup cost dominated profiles. Variable names live in a shared
//! [`Interner`] so that presence-condition variables can be compared and
//! hashed as `u32` [`Symbol`]s across the preprocessor and parser.

use std::cell::RefCell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use superc_util::{FastMap, FastSet, Interner, Symbol};

/// Index of a variable in a [`BddManager`]'s ordering.
///
/// Variables are ordered by creation; SuperC's presence-condition variables
/// arrive in source order, which works well in practice because related
/// conditionals tend to test related variables.
pub type VarId = u32;

type NodeId = u32;

const FALSE: NodeId = 0;
const TRUE: NodeId = 1;
/// Terminal nodes use a variable index past any real variable so that the
/// ordering test `var(f) < var(g)` treats terminals as "last".
const TERMINAL_VAR: VarId = u32::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: VarId,
    low: NodeId,
    high: NodeId,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
    Xor,
}

struct Inner {
    nodes: Vec<Node>,
    unique: FastMap<Node, NodeId>,
    apply_cache: FastMap<(Op, NodeId, NodeId), NodeId>,
    not_cache: FastMap<NodeId, NodeId>,
    interner: Interner,
    var_syms: Vec<Symbol>,
    var_ids: FastMap<Symbol, VarId>,
    applies: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// Work-stack buffers reused across `apply` calls so the common
    /// cache-hit/terminal case never allocates.
    apply_tasks: Vec<ApplyTask>,
    apply_results: Vec<NodeId>,
}

/// A frame of the explicit apply work stack: either a pair still to
/// expand, or a pending `mk` once both cofactor results are available.
enum ApplyTask {
    Expand(NodeId, NodeId),
    Combine {
        var: VarId,
        key: (Op, NodeId, NodeId),
    },
}

impl Inner {
    fn new(interner: Interner) -> Self {
        let terminal = |_: NodeId| Node {
            var: TERMINAL_VAR,
            low: 0,
            high: 0,
        };
        // Terminals are given distinct (low, high) so they never alias in the
        // unique table; they are only ever referenced by their fixed ids.
        let mut nodes = vec![terminal(FALSE), terminal(TRUE)];
        nodes[TRUE as usize].high = 1;
        Inner {
            nodes,
            unique: FastMap::default(),
            apply_cache: FastMap::default(),
            not_cache: FastMap::default(),
            interner,
            var_syms: Vec::new(),
            var_ids: FastMap::default(),
            applies: 0,
            cache_hits: 0,
            cache_misses: 0,
            apply_tasks: Vec::new(),
            apply_results: Vec::new(),
        }
    }

    fn var_of(&self, id: NodeId) -> VarId {
        self.nodes[id as usize].var
    }

    fn mk(&mut self, var: VarId, low: NodeId, high: NodeId) -> NodeId {
        if low == high {
            return low;
        }
        let node = Node { var, low, high };
        if let Some(&id) = self.unique.get(&node) {
            return id;
        }
        let id = self.nodes.len() as NodeId;
        self.nodes.push(node);
        self.unique.insert(node, id);
        id
    }

    fn mk_var(&mut self, name: &str) -> VarId {
        let sym = self.interner.intern(name);
        self.mk_var_sym(sym)
    }

    fn mk_var_sym(&mut self, sym: Symbol) -> VarId {
        if let Some(&v) = self.var_ids.get(&sym) {
            return v;
        }
        let v = self.var_syms.len() as VarId;
        self.var_syms.push(sym);
        self.var_ids.insert(sym, v);
        v
    }

    fn not(&mut self, f: NodeId) -> NodeId {
        match f {
            FALSE => TRUE,
            TRUE => FALSE,
            _ => {
                if let Some(&r) = self.not_cache.get(&f) {
                    return r;
                }
                let n = self.nodes[f as usize];
                let low = self.not(n.low);
                let high = self.not(n.high);
                let r = self.mk(n.var, low, high);
                self.not_cache.insert(f, r);
                r
            }
        }
    }

    /// Resolves the constant/absorption cases of `op` without touching the
    /// node table. `None` means both operands are internal nodes and the
    /// Shannon expansion is needed.
    fn apply_terminal(&mut self, op: Op, f: NodeId, g: NodeId) -> Option<NodeId> {
        match op {
            Op::And => {
                if f == FALSE || g == FALSE {
                    return Some(FALSE);
                }
                if f == TRUE {
                    return Some(g);
                }
                if g == TRUE || f == g {
                    return Some(f);
                }
            }
            Op::Or => {
                if f == TRUE || g == TRUE {
                    return Some(TRUE);
                }
                if f == FALSE {
                    return Some(g);
                }
                if g == FALSE || f == g {
                    return Some(f);
                }
            }
            Op::Xor => {
                if f == g {
                    return Some(FALSE);
                }
                if f == FALSE {
                    return Some(g);
                }
                if g == FALSE {
                    return Some(f);
                }
                if f == TRUE {
                    return Some(self.not(g));
                }
                if g == TRUE {
                    return Some(self.not(f));
                }
            }
        }
        None
    }

    /// Pushes the Shannon expansion of a known cache miss `(op, f, g)`:
    /// a pending `mk` followed by the two cofactor pairs. The low pair
    /// completes first (it is popped first), so the matching `Combine`
    /// sees `results = [.., low, high]`.
    fn expand_into(
        &self,
        f: NodeId,
        g: NodeId,
        key: (Op, NodeId, NodeId),
        tasks: &mut Vec<ApplyTask>,
    ) {
        let (vf, vg) = (self.var_of(f), self.var_of(g));
        let var = vf.min(vg);
        let (f_lo, f_hi) = if vf == var {
            let n = self.nodes[f as usize];
            (n.low, n.high)
        } else {
            (f, f)
        };
        let (g_lo, g_hi) = if vg == var {
            let n = self.nodes[g as usize];
            (n.low, n.high)
        } else {
            (g, g)
        };
        tasks.push(ApplyTask::Combine { var, key });
        tasks.push(ApplyTask::Expand(f_hi, g_hi));
        tasks.push(ApplyTask::Expand(f_lo, g_lo));
    }

    fn apply(&mut self, op: Op, f: NodeId, g: NodeId) -> NodeId {
        // Fast path: most calls hit a terminal rule or the apply cache and
        // return without touching the work stacks.
        self.applies += 1;
        if let Some(r) = self.apply_terminal(op, f, g) {
            return r;
        }
        // Commutative ops: normalize the cache key.
        let key = if f <= g { (op, f, g) } else { (op, g, f) };
        if let Some(&r) = self.apply_cache.get(&key) {
            self.cache_hits += 1;
            return r;
        }
        self.cache_misses += 1;
        self.apply_expand(op, f, g, key)
    }

    /// Shannon-expands a cache-missing `(op, f, g)` with an explicit work
    /// stack instead of recursion, so deeply nested presence conditions
    /// cannot overflow the call stack. `tasks` holds pairs still to expand
    /// interleaved with pending `mk`s; `results` is the value stack the
    /// two consume. Both buffers live in `Inner` and are reused.
    fn apply_expand(&mut self, op: Op, f: NodeId, g: NodeId, key: (Op, NodeId, NodeId)) -> NodeId {
        let mut tasks = std::mem::take(&mut self.apply_tasks);
        let mut results = std::mem::take(&mut self.apply_results);
        self.expand_into(f, g, key, &mut tasks);
        while let Some(task) = tasks.pop() {
            match task {
                ApplyTask::Expand(f, g) => {
                    self.applies += 1;
                    if let Some(r) = self.apply_terminal(op, f, g) {
                        results.push(r);
                        continue;
                    }
                    let key = if f <= g { (op, f, g) } else { (op, g, f) };
                    if let Some(&r) = self.apply_cache.get(&key) {
                        self.cache_hits += 1;
                        results.push(r);
                        continue;
                    }
                    self.cache_misses += 1;
                    self.expand_into(f, g, key, &mut tasks);
                }
                ApplyTask::Combine { var, key } => {
                    let high = results.pop().expect("high cofactor computed");
                    let low = results.pop().expect("low cofactor computed");
                    let r = self.mk(var, low, high);
                    self.apply_cache.insert(key, r);
                    results.push(r);
                }
            }
        }
        let r = results.pop().expect("apply leaves one result");
        debug_assert!(tasks.is_empty() && results.is_empty());
        self.apply_tasks = tasks;
        self.apply_results = results;
        r
    }

    fn restrict(&mut self, f: NodeId, var: VarId, value: bool) -> NodeId {
        if f == FALSE || f == TRUE {
            return f;
        }
        let n = self.nodes[f as usize];
        if n.var > var {
            return f;
        }
        if n.var == var {
            let branch = if value { n.high } else { n.low };
            return self.restrict(branch, var, value);
        }
        let low = self.restrict(n.low, var, value);
        let high = self.restrict(n.high, var, value);
        self.mk(n.var, low, high)
    }

    fn support(&self, f: NodeId, out: &mut Vec<VarId>, seen: &mut FastSet<NodeId>) {
        if f == FALSE || f == TRUE || !seen.insert(f) {
            return;
        }
        let n = self.nodes[f as usize];
        if !out.contains(&n.var) {
            out.push(n.var);
        }
        self.support(n.low, out, seen);
        self.support(n.high, out, seen);
    }

    fn level(&self, id: NodeId, nvars: u32) -> u32 {
        let v = self.var_of(id);
        if v == TERMINAL_VAR {
            nvars
        } else {
            v
        }
    }

    /// Satisfying assignments of `f` over the variables from `f`'s own level
    /// to `nvars`. The caller scales by `2^level(f)` for the full count.
    fn sat_count(&self, f: NodeId, nvars: u32, memo: &mut FastMap<NodeId, f64>) -> f64 {
        match f {
            FALSE => 0.0,
            TRUE => 1.0,
            _ => {
                if let Some(&c) = memo.get(&f) {
                    return c;
                }
                let n = self.nodes[f as usize];
                // Each variable level skipped between this node and a child
                // is a free choice, doubling that child's contribution.
                let lo = self.sat_count(n.low, nvars, memo)
                    * 2f64.powi((self.level(n.low, nvars) - n.var - 1) as i32);
                let hi = self.sat_count(n.high, nvars, memo)
                    * 2f64.powi((self.level(n.high, nvars) - n.var - 1) as i32);
                let c = lo + hi;
                memo.insert(f, c);
                c
            }
        }
    }

    fn one_sat(&self, f: NodeId, out: &mut Vec<(VarId, bool)>) -> bool {
        match f {
            FALSE => false,
            TRUE => true,
            _ => {
                let n = self.nodes[f as usize];
                if n.low != FALSE {
                    out.push((n.var, false));
                    if self.one_sat(n.low, out) {
                        return true;
                    }
                    out.pop();
                }
                if n.high != FALSE {
                    out.push((n.var, true));
                    if self.one_sat(n.high, out) {
                        return true;
                    }
                    out.pop();
                }
                false
            }
        }
    }
}

/// A shared BDD manager: node storage, variable interner, operation caches.
///
/// Cloning a manager is cheap (reference-counted); all clones share nodes, so
/// [`Bdd`]s created through any clone are comparable.
///
/// # Examples
///
/// ```
/// use superc_bdd::BddManager;
/// let mgr = BddManager::new();
/// let x = mgr.var("X");
/// assert!(x.or(&x.not()).is_true());
/// ```
#[derive(Clone)]
pub struct BddManager {
    inner: Rc<RefCell<Inner>>,
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "BddManager {{ nodes: {}, vars: {} }}",
            s.nodes, s.variables
        )
    }
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates an empty manager containing only the `true`/`false` terminals,
    /// with its own private name interner.
    pub fn new() -> Self {
        Self::with_interner(Interner::new())
    }

    /// Creates an empty manager whose variable names live in `interner`.
    ///
    /// Sharing one interner across the preprocessor, condition context,
    /// and BDD manager makes a [`Symbol`] mean the same spelling
    /// everywhere in a pipeline, so callers holding a symbol can use
    /// [`BddManager::var_sym`] and skip string hashing entirely.
    pub fn with_interner(interner: Interner) -> Self {
        BddManager {
            inner: Rc::new(RefCell::new(Inner::new(interner))),
        }
    }

    /// A handle to the manager's name interner (cheap to clone, shared).
    pub fn interner(&self) -> Interner {
        self.inner.borrow().interner.clone()
    }

    fn wrap(&self, id: NodeId) -> Bdd {
        Bdd {
            mgr: Rc::clone(&self.inner),
            id,
        }
    }

    /// The constant `true` function.
    pub fn tru(&self) -> Bdd {
        self.wrap(TRUE)
    }

    /// The constant `false` function.
    pub fn fls(&self) -> Bdd {
        self.wrap(FALSE)
    }

    /// A constant function chosen by `value`.
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            self.tru()
        } else {
            self.fls()
        }
    }

    /// The variable named `name`, interning it on first use.
    ///
    /// Repeated calls with the same name return the same function, which is
    /// how SuperC guarantees that repeated occurrences of the same free
    /// macro or opaque arithmetic expression map to one variable (§3.2).
    pub fn var(&self, name: &str) -> Bdd {
        let mut inner = self.inner.borrow_mut();
        let v = inner.mk_var(name);
        let id = inner.mk(v, FALSE, TRUE);
        drop(inner);
        self.wrap(id)
    }

    /// The variable for an already-interned `sym` from this manager's
    /// interner — the string-free fast path of [`BddManager::var`].
    pub fn var_sym(&self, sym: Symbol) -> Bdd {
        let mut inner = self.inner.borrow_mut();
        let v = inner.mk_var_sym(sym);
        let id = inner.mk(v, FALSE, TRUE);
        drop(inner);
        self.wrap(id)
    }

    /// The negation of the variable named `name`.
    pub fn nvar(&self, name: &str) -> Bdd {
        self.var(name).not()
    }

    /// Returns the id of variable `name` if it has been interned.
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        let inner = self.inner.borrow();
        let sym = inner.interner.get(name)?;
        inner.var_ids.get(&sym).copied()
    }

    /// The name of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not created by this manager.
    pub fn var_name(&self, v: VarId) -> String {
        let inner = self.inner.borrow();
        inner
            .interner
            .resolve(inner.var_syms[v as usize])
            .to_string()
    }

    /// Number of distinct variables interned so far.
    pub fn num_vars(&self) -> u32 {
        self.inner.borrow().var_syms.len() as u32
    }

    /// Counters describing the manager's current size and work done.
    pub fn stats(&self) -> BddStats {
        let inner = self.inner.borrow();
        BddStats {
            nodes: inner.nodes.len(),
            variables: inner.var_syms.len(),
            apply_calls: inner.applies,
            cache_hits: inner.cache_hits,
            cache_misses: inner.cache_misses,
        }
    }
}

/// Size and work counters for a [`BddManager`], from [`BddManager::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BddStats {
    /// Total allocated nodes including terminals.
    pub nodes: usize,
    /// Interned variables.
    pub variables: usize,
    /// Recursive apply steps performed (a proxy for work).
    pub apply_calls: u64,
    /// Apply-cache lookups that found a memoized result.
    pub cache_hits: u64,
    /// Apply-cache lookups that missed and recursed.
    pub cache_misses: u64,
}

// Every BDD counter depends on the order a worker's manager met each
// variable and condition, so all of them are schedule gauges.
superc_util::counters!(BddStats in "bdd" {
    nodes: Schedule Sum,
    variables: Schedule Sum,
    apply_calls: Schedule Sum,
    cache_hits: Schedule Sum,
    cache_misses: Schedule Sum,
});

impl BddStats {
    /// Accumulates another manager's counters (corpus-level reporting over
    /// per-worker managers). Gauges (`nodes`, `variables`) are summed too:
    /// the aggregate reads as total allocation across workers.
    pub fn merge(&mut self, other: &BddStats) {
        superc_util::counters::merge(self, other);
    }

    /// Apply-cache hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// A handle to a boolean function in some [`BddManager`].
///
/// Handles are canonical: `a == b` holds exactly when the functions are
/// logically equivalent (and from the same manager). Cloning is cheap.
///
/// # Examples
///
/// ```
/// use superc_bdd::BddManager;
/// let mgr = BddManager::new();
/// let (a, b) = (mgr.var("A"), mgr.var("B"));
/// let f = a.and(&b).or(&a.and(&b.not()));
/// assert_eq!(f, a); // (A∧B) ∨ (A∧¬B) simplifies to A
/// ```
#[derive(Clone)]
pub struct Bdd {
    mgr: Rc<RefCell<Inner>>,
    id: NodeId,
}

impl PartialEq for Bdd {
    fn eq(&self, other: &Self) -> bool {
        Rc::ptr_eq(&self.mgr, &other.mgr) && self.id == other.id
    }
}
impl Eq for Bdd {}

impl Hash for Bdd {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl Bdd {
    /// True if this is the constant `false` function — the infeasibility test
    /// SuperC runs when trimming macro-table entries and dead branches.
    pub fn is_false(&self) -> bool {
        self.id == FALSE
    }

    /// True if this is the constant `true` function.
    pub fn is_true(&self) -> bool {
        self.id == TRUE
    }

    /// The manager this function lives in.
    pub fn manager(&self) -> BddManager {
        BddManager {
            inner: Rc::clone(&self.mgr),
        }
    }

    /// The node id of this function's root. BDDs are canonical within a
    /// manager, so within one manager equal ids mean equal functions —
    /// a stable, cheap memo key. Ids from different managers (different
    /// workers) are incomparable.
    pub fn handle_id(&self) -> u64 {
        self.id as u64
    }

    fn wrap(&self, id: NodeId) -> Bdd {
        Bdd {
            mgr: Rc::clone(&self.mgr),
            id,
        }
    }

    fn binop(&self, other: &Bdd, op: Op) -> Bdd {
        debug_assert!(
            Rc::ptr_eq(&self.mgr, &other.mgr),
            "BDD operands from different managers"
        );
        let id = self.mgr.borrow_mut().apply(op, self.id, other.id);
        self.wrap(id)
    }

    /// Logical conjunction.
    pub fn and(&self, other: &Bdd) -> Bdd {
        self.binop(other, Op::And)
    }

    /// Logical disjunction.
    pub fn or(&self, other: &Bdd) -> Bdd {
        self.binop(other, Op::Or)
    }

    /// Exclusive or.
    pub fn xor(&self, other: &Bdd) -> Bdd {
        self.binop(other, Op::Xor)
    }

    /// Logical negation.
    pub fn not(&self) -> Bdd {
        let id = self.mgr.borrow_mut().not(self.id);
        self.wrap(id)
    }

    /// Material implication `self → other`.
    pub fn implies(&self, other: &Bdd) -> Bdd {
        self.not().or(other)
    }

    /// Biconditional `self ↔ other`.
    pub fn iff(&self, other: &Bdd) -> Bdd {
        self.xor(other).not()
    }

    /// True when `self → other` is a tautology.
    pub fn implies_true(&self, other: &Bdd) -> bool {
        self.implies(other).is_true()
    }

    /// True when `self ∧ other` is satisfiable — the feasibility check used
    /// throughout configuration-preserving preprocessing.
    pub fn feasible_with(&self, other: &Bdd) -> bool {
        !self.and(other).is_false()
    }

    /// The cofactor of this function with `var` fixed to `value`.
    pub fn restrict(&self, var: VarId, value: bool) -> Bdd {
        let id = self.mgr.borrow_mut().restrict(self.id, var, value);
        self.wrap(id)
    }

    /// Variables this function actually depends on, in ordering order.
    pub fn support(&self) -> Vec<VarId> {
        let inner = self.mgr.borrow();
        let mut out = Vec::new();
        let mut seen = FastSet::default();
        inner.support(self.id, &mut out, &mut seen);
        out.sort_unstable();
        out
    }

    /// Number of satisfying assignments over the manager's full variable set.
    ///
    /// Returned as `f64` because configuration counts grow exponentially
    /// (the paper's Figure 6 initializer alone has 2^18 configurations).
    pub fn sat_count(&self) -> f64 {
        let inner = self.mgr.borrow();
        let nvars = inner.var_syms.len() as u32;
        let mut memo = FastMap::default();
        let below = inner.sat_count(self.id, nvars, &mut memo);
        below * 2f64.powi(inner.level(self.id, nvars) as i32)
    }

    /// One satisfying partial assignment, or `None` if unsatisfiable.
    ///
    /// Variables absent from the result may take either value.
    pub fn one_sat(&self) -> Option<Vec<(VarId, bool)>> {
        let inner = self.mgr.borrow();
        let mut out = Vec::new();
        if inner.one_sat(self.id, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    /// Evaluates this function under a complete assignment given by `env`.
    ///
    /// Variables for which `env` returns `None` default to `false`.
    pub fn eval(&self, env: impl Fn(&str) -> Option<bool>) -> bool {
        let inner = self.mgr.borrow();
        let mut id = self.id;
        loop {
            match id {
                FALSE => return false,
                TRUE => return true,
                _ => {
                    let n = inner.nodes[id as usize];
                    let name = inner.interner.resolve(inner.var_syms[n.var as usize]);
                    id = if env(&name).unwrap_or(false) {
                        n.high
                    } else {
                        n.low
                    };
                }
            }
        }
    }

    /// Visits each internal node once with `(id, variable name, low ref,
    /// high ref)` where refs are `t0`, `t1`, or `n<id>` (for DOT export).
    pub(crate) fn walk_nodes(&self, f: &mut dyn FnMut(usize, String, String, String)) {
        let inner = self.mgr.borrow();
        let name = |x: NodeId| match x {
            FALSE => "t0".to_string(),
            TRUE => "t1".to_string(),
            n => format!("n{n}"),
        };
        let mut seen: FastSet<NodeId> = FastSet::default();
        let mut stack = vec![self.id];
        while let Some(id) = stack.pop() {
            if id == FALSE || id == TRUE || !seen.insert(id) {
                continue;
            }
            let n = inner.nodes[id as usize];
            f(
                id as usize,
                inner
                    .interner
                    .resolve(inner.var_syms[n.var as usize])
                    .to_string(),
                name(n.low),
                name(n.high),
            );
            stack.push(n.low);
            stack.push(n.high);
        }
    }

    /// Internal node count of this function (shared nodes counted once).
    pub fn node_count(&self) -> usize {
        let inner = self.mgr.borrow();
        let mut seen = FastSet::default();
        fn walk(inner: &Inner, id: NodeId, seen: &mut FastSet<NodeId>) -> usize {
            if id == FALSE || id == TRUE || !seen.insert(id) {
                return 0;
            }
            let n = inner.nodes[id as usize];
            1 + walk(inner, n.low, seen) + walk(inner, n.high, seen)
        }
        walk(&inner, self.id, &mut seen)
    }
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bdd({})", self)
    }
}

impl fmt::Display for Bdd {
    /// Renders the function as a disjunction of up to four cubes, eliding the
    /// rest — presence conditions in reports stay readable this way.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_true() {
            return write!(f, "1");
        }
        if self.is_false() {
            return write!(f, "0");
        }
        let inner = self.mgr.borrow();
        let mut cubes: Vec<String> = Vec::new();
        let mut stack: Vec<(NodeId, Vec<(VarId, bool)>)> = vec![(self.id, Vec::new())];
        while let Some((id, path)) = stack.pop() {
            if cubes.len() > 4 {
                break;
            }
            match id {
                FALSE => {}
                TRUE => {
                    let cube: Vec<String> = path
                        .iter()
                        .map(|&(v, pos)| {
                            let name = inner.interner.resolve(inner.var_syms[v as usize]);
                            if pos {
                                name.to_string()
                            } else {
                                format!("!{name}")
                            }
                        })
                        .collect();
                    cubes.push(if cube.is_empty() {
                        "1".to_string()
                    } else {
                        cube.join(" && ")
                    });
                }
                _ => {
                    let n = inner.nodes[id as usize];
                    let mut hi = path.clone();
                    hi.push((n.var, true));
                    let mut lo = path;
                    lo.push((n.var, false));
                    stack.push((n.high, hi));
                    stack.push((n.low, lo));
                }
            }
        }
        if cubes.len() > 4 {
            cubes.truncate(4);
            cubes.push("...".to_string());
        }
        write!(f, "{}", cubes.join(" || "))
    }
}
