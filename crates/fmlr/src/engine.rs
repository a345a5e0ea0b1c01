//! The FMLR parser engine: Algorithm 2, fork/merge, and the optimizations
//! of §4.3–§4.5.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use superc_util::FastMap;

use superc_cond::{Cond, CondCtx};
use superc_cpp::PTok;
use superc_grammar::{Action, AstBuild, Grammar, SymbolId};

use crate::error::{BudgetKind, BudgetTrip, ParseError};
use crate::forest::{FollowEntry, Forest, NodeRef};
use crate::semval::{AstNode, SemVal};
use crate::stats::ParseStats;

/// Per-parse resource budgets (0 = unlimited everywhere).
///
/// Unlike the MAPR-faithful [`ParserConfig::kill_switch`], which *aborts*
/// the parse with an error, budget exhaustion *degrades* it: the engine
/// kills the lowest-priority subparsers (or, for global budgets, all
/// remaining ones), records a [`BudgetTrip`] carrying the exact presence
/// condition that was cut short, and keeps going so the unit still yields
/// an AST for the surviving configurations and a
/// [`ParseOutcome::Partial`] result.
///
/// Determinism: the subparser queue is deterministic, so `max_live`,
/// `max_forks`, and `max_steps` trip identically on every run and across
/// worker counts. `max_cond_nodes` and `max_millis` are safety nets whose
/// trip points depend on shared-manager warmth and wall-clock speed —
/// enabling them forfeits the byte-identical-reports guarantee.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ParseBudgets {
    /// Ceiling on simultaneously live subparsers; excess lowest-priority
    /// queued subparsers are killed (condition-scoped), the rest resume.
    pub max_live: usize,
    /// Total forks allowed in one parse; past it, every fork keeps only
    /// its highest-priority group.
    pub max_forks: u64,
    /// Main-loop iteration budget; past it, all remaining subparsers are
    /// killed and the parse ends with whatever has accepted so far.
    pub max_steps: u64,
    /// Ceiling on BDD nodes allocated *during* this parse (checked
    /// periodically against the manager's node count at parse start).
    /// Schedule-dependent; see the type docs.
    pub max_cond_nodes: usize,
    /// Wall-clock budget in milliseconds, checked periodically.
    /// Schedule-dependent; see the type docs.
    pub max_millis: u64,
}

impl ParseBudgets {
    /// No limits (the default).
    pub fn unlimited() -> Self {
        ParseBudgets::default()
    }

    /// True when every limit is 0 (disabled).
    pub fn is_unlimited(&self) -> bool {
        *self == ParseBudgets::default()
    }
}

/// Whether a parse ran to completion or was cut short by a budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ParseOutcome {
    /// Every subparser ran to acceptance or a parse error.
    #[default]
    Complete,
    /// At least one budget tripped; some configurations were degraded.
    /// The trips in [`ParseResult::trips`] say which and why.
    Partial,
}

/// How often the (cheap) BDD-node ceiling is consulted, in main-loop
/// iterations; the wall-clock budget is checked 8× less often.
const COND_NODE_CHECK_MASK: u64 = 63;
const TIME_CHECK_MASK: u64 = 511;

/// The first iteration after `i` at which a global budget of `b` can
/// trip: the step budget's trip iteration, the next condition-node
/// probe, the next clock probe. `u64::MAX` when no global budget is set.
fn next_budget_check(b: &ParseBudgets, i: u64) -> u64 {
    let mut next = u64::MAX;
    if b.max_steps > 0 {
        next = next.min(b.max_steps.saturating_add(1));
    }
    if b.max_cond_nodes > 0 {
        next = next.min((i | COND_NODE_CHECK_MASK) + 1);
    }
    if b.max_millis > 0 {
        next = next.min((i | TIME_CHECK_MASK) + 1);
    }
    next
}

/// Result of reclassifying a follow-set token (§5.2).
pub enum Reclass {
    /// Leave the terminal as classified.
    Keep,
    /// Replace the terminal (e.g. identifier → typedef name).
    Replace(SymbolId),
    /// Split the entry by condition — each part gets its own terminal.
    /// This is how an ambiguously-defined name forks an extra subparser
    /// even without an explicit conditional. Conditions must partition
    /// the entry's condition.
    Split(Vec<(Cond, SymbolId)>),
}

/// The context-management plug-in (§5.2): reclassify / forkContext /
/// mayMerge / mergeContexts, plus the reduce hook that drives semantic
/// actions (scope changes, symbol definitions).
pub trait ContextPlugin {
    /// Per-subparser context (e.g. a configuration-aware symbol table).
    type Ctx: Clone;

    /// The context of the initial subparser.
    fn initial(&mut self) -> Self::Ctx;

    /// Adjusts a follow-set token's terminal under the given context.
    fn reclassify(
        &mut self,
        _ctx: &Self::Ctx,
        _tok: &PTok,
        _term: SymbolId,
        _cond: &Cond,
    ) -> Reclass {
        Reclass::Keep
    }

    /// Observes a reduce: `value` is the just-built semantic value for
    /// `prod`, under presence condition `cond`. Mutates the context
    /// (symbol definitions, scope changes via helper productions).
    fn on_reduce(&mut self, _ctx: &mut Self::Ctx, _prod: u32, _value: &SemVal, _cond: &Cond) {}

    /// Duplicates a context for a forked subparser.
    fn fork(&mut self, ctx: &Self::Ctx) -> Self::Ctx {
        ctx.clone()
    }

    /// May two subparsers with these contexts merge?
    fn may_merge(&self, _a: &Self::Ctx, _b: &Self::Ctx) -> bool {
        true
    }

    /// Combines two mergeable contexts.
    fn merge(&mut self, a: &Self::Ctx, _b: &Self::Ctx) -> Self::Ctx {
        a.clone()
    }
}

/// A plug-in for context-free grammars: unit context, no reclassification.
pub struct NullContext;

impl ContextPlugin for NullContext {
    type Ctx = ();

    fn initial(&mut self) {}
}

/// Engine configuration: optimization toggles matching the paper's
/// Figure 8 ablation, plus the MAPR baseline.
#[derive(Clone, Copy, Debug, Hash)]
pub struct ParserConfig {
    /// Use the token follow-set (Alg. 3). `false` = MAPR's naive
    /// per-branch forking.
    pub follow_set: bool,
    /// Delay forking of subparsers that will shift (multi-headed).
    pub lazy_shifts: bool,
    /// Reduce one shared stack for several heads at once.
    pub shared_reduces: bool,
    /// Queue tie-break favoring reduces over shifts.
    pub early_reduces: bool,
    /// MAPR's tie-break: favor the subparser with the largest stack.
    pub largest_stack_first: bool,
    /// Merge subparsers whose stacks differ in *complete* semantic values
    /// by wrapping them in static choice nodes (§5.1). Disabled for the
    /// MAPR baseline, which merges only value-identical stacks — the gap
    /// that makes naive forking exponential.
    pub choice_merge: bool,
    /// Abort when live subparsers exceed this (0 = unlimited). The paper
    /// uses 16,000 for the MAPR comparison.
    pub kill_switch: usize,
    /// Deterministic fast path: step a pulled single-headed subparser in
    /// a tight LALR loop on a scratch stack — no priority queue, no merge
    /// probes — while its head stays strictly before every queued head,
    /// so it remains the queue minimum and nothing can merge with it.
    /// The stretch persists back to the shared persistent stack when it
    /// reaches a conditional, typedef split, or a queued head; each step
    /// replays the main loop's counters and budget checks. Output (ASTs,
    /// conditions, diagnostics, every determinism-surface counter) is
    /// byte-identical either way; only `merge_probes` and the
    /// `fastpath_*` gauges differ.
    pub fastpath: bool,
    /// Degrading resource budgets (all 0 = ungoverned). Orthogonal to the
    /// kill switch: budgets shed work and keep parsing, the kill switch
    /// aborts (the MAPR-faithful behavior the ablation tests rely on).
    pub budgets: ParseBudgets,
}

impl Default for ParserConfig {
    fn default() -> Self {
        ParserConfig::full()
    }
}

impl ParserConfig {
    /// All optimizations on (the paper's "Shared, Lazy, & Early").
    pub fn full() -> Self {
        ParserConfig {
            follow_set: true,
            lazy_shifts: true,
            shared_reduces: true,
            early_reduces: true,
            largest_stack_first: false,
            choice_merge: true,
            kill_switch: 0,
            fastpath: true,
            budgets: ParseBudgets::unlimited(),
        }
    }

    /// Follow-set only.
    pub fn follow_only() -> Self {
        ParserConfig {
            lazy_shifts: false,
            shared_reduces: false,
            early_reduces: false,
            ..Self::full()
        }
    }

    /// Follow-set + lazy shifts.
    pub fn lazy() -> Self {
        ParserConfig {
            shared_reduces: false,
            early_reduces: false,
            ..Self::full()
        }
    }

    /// Follow-set + shared reduces.
    pub fn shared() -> Self {
        ParserConfig {
            lazy_shifts: false,
            early_reduces: false,
            ..Self::full()
        }
    }

    /// Follow-set + shared + lazy (no early reduces).
    pub fn shared_lazy() -> Self {
        ParserConfig {
            early_reduces: false,
            ..Self::full()
        }
    }

    /// The MAPR baseline: naive forking, kill switch at 16,000.
    pub fn mapr() -> Self {
        ParserConfig {
            follow_set: false,
            lazy_shifts: false,
            shared_reduces: false,
            early_reduces: false,
            largest_stack_first: false,
            choice_merge: false,
            kill_switch: 16_000,
            fastpath: true,
            budgets: ParseBudgets::unlimited(),
        }
    }

    /// MAPR with its largest-stack-first queue tie-break.
    pub fn mapr_largest_first() -> Self {
        ParserConfig {
            largest_stack_first: true,
            ..Self::mapr()
        }
    }

    /// The named optimization levels of Figure 8, in the paper's order.
    pub fn levels() -> Vec<(&'static str, ParserConfig)> {
        vec![
            ("Shared, Lazy, & Early", Self::full()),
            ("Shared & Lazy", Self::shared_lazy()),
            ("Shared", Self::shared()),
            ("Lazy", Self::lazy()),
            ("Follow-Set Only", Self::follow_only()),
            ("MAPR & Largest First", Self::mapr_largest_first()),
            ("MAPR", Self::mapr()),
        ]
    }
}

/// The outcome of a configuration-preserving parse.
pub struct ParseResult {
    /// The AST (a static choice at the root if configurations accepted
    /// with different trees); `None` when nothing accepted.
    pub ast: Option<SemVal>,
    /// Disjunction of configurations that parsed successfully.
    pub accepted: Option<Cond>,
    /// Per-configuration parse errors.
    pub errors: Vec<ParseError>,
    /// [`Complete`](ParseOutcome::Complete) unless a budget tripped.
    pub outcome: ParseOutcome,
    /// Budget-exhaustion events, coalesced per [`BudgetKind`], each with
    /// the presence condition of the configurations it degraded. When
    /// anything accepted, each trip also contributes an error node to the
    /// root choice of `ast` under its condition.
    pub trips: Vec<BudgetTrip>,
    /// Instrumentation.
    pub stats: ParseStats,
}

struct StackNode {
    state: u32,
    sym: SymbolId,
    value: SemVal,
    prev: Option<Rc<StackNode>>,
    depth: u32,
}

type Stack = Option<Rc<StackNode>>;

#[derive(Clone)]
struct Head {
    cond: Cond,
    node: NodeRef,
    term: SymbolId,
}

struct Sub<C> {
    heads: Vec<Head>,
    stack: Stack,
    ctx: C,
}

/// A scratch-stack frame of the deterministic fast path: [`StackNode`]
/// without the `Rc` indirection, so shifts push and reduces pop by plain
/// vector moves. Frames are persisted into the `Rc` chain only when the
/// stretch ends.
struct FastFrame {
    state: u32,
    sym: SymbolId,
    value: SemVal,
    depth: u32,
}

/// One peeked fast-path step: the resolved lookahead terminal and the LR
/// action it selects in the current state.
struct FastStep {
    term: SymbolId,
    action: Action,
}

impl<C> Sub<C> {
    fn cond(&self) -> Cond {
        let mut c = self.heads[0].cond.clone();
        for h in &self.heads[1..] {
            c = c.or(&h.cond);
        }
        c
    }
}

/// Head fingerprints for a [`MergeKey`]. Single-headed subparsers — the
/// overwhelmingly common case — stay inline so building a key per
/// [`Run::insert`] does not allocate.
#[derive(PartialEq, Eq, Hash)]
enum HeadsKey {
    One(u32, u32),
    Many(Vec<(u32, u32)>),
}

#[derive(PartialEq, Eq, Hash)]
struct MergeKey {
    heads: HeadsKey,
    state: u32,
    depth: u32,
}

/// Ends a merge-index chain.
const NO_SLOT: usize = usize::MAX;

/// Merge candidates probed per insert: recent candidates are the likely
/// partners, and unbounded scans are quadratic in MAPR's blow-up regime.
const MERGE_PROBE_WINDOW: usize = 16;

/// A Fork-Merge LR parser over a grammar, with a context plug-in.
///
/// # Examples
///
/// See the crate tests and `superc-csyntax` for end-to-end use; a minimal
/// context-free setup:
///
/// ```no_run
/// use superc_fmlr::{NullContext, Parser, ParserConfig};
/// # fn grammar() -> superc_grammar::Grammar { unimplemented!() }
/// let grammar = grammar();
/// let mut parser = Parser::new(&grammar, ParserConfig::full(), NullContext);
/// ```
pub struct Parser<'g, P: ContextPlugin> {
    grammar: &'g Grammar,
    config: ParserConfig,
    plugin: P,
    kind_names: Vec<Rc<str>>,
}

impl<'g, P: ContextPlugin> Parser<'g, P> {
    /// Creates a parser for `grammar` with the given configuration.
    pub fn new(grammar: &'g Grammar, config: ParserConfig, plugin: P) -> Self {
        let kind_names = (0..grammar.num_productions())
            .map(|p| Rc::from(grammar.lhs_name(p)))
            .collect();
        Parser {
            grammar,
            config,
            plugin,
            kind_names,
        }
    }

    /// Access to the plug-in (e.g. to inspect a symbol table afterwards).
    pub fn plugin(&self) -> &P {
        &self.plugin
    }

    /// Parses a forest under the `true` condition of `cctx`.
    pub fn parse(&mut self, forest: &Forest, cctx: &CondCtx) -> ParseResult {
        let budgets = self.config.budgets;
        let bdd_base = if budgets.max_cond_nodes > 0 {
            cctx.bdd_stats().map_or(0, |s| s.nodes)
        } else {
            0
        };
        let started = (budgets.max_millis > 0).then(std::time::Instant::now);
        Run {
            parser: self,
            forest,
            cctx: cctx.clone(),
            slab: Vec::new(),
            same_key: Vec::new(),
            heap: BinaryHeap::new(),
            index: FastMap::default(),
            live: 0,
            seq: 0,
            accepted: Vec::new(),
            errors: Vec::new(),
            trips: Vec::new(),
            budgets,
            armed: !budgets.is_unlimited(),
            next_check: next_budget_check(&budgets, 0),
            bdd_base,
            started,
            stats: ParseStats::default(),
            follow_buf: Vec::new(),
            entries_buf: Vec::new(),
            fast_buf: Vec::new(),
            rhs_buf: Vec::new(),
        }
        .run()
    }
}

struct Run<'a, 'g, P: ContextPlugin> {
    parser: &'a mut Parser<'g, P>,
    forest: &'a Forest,
    cctx: CondCtx,
    slab: Vec<Option<Sub<P::Ctx>>>,
    /// The merge index's per-key chains, parallel to `slab`: the id
    /// inserted before `id` under the same merge key, or [`NO_SLOT`].
    same_key: Vec<usize>,
    heap: BinaryHeap<Reverse<(u32, u32, u64, usize)>>,
    /// The newest slab id inserted under each merge key; older ones are
    /// reached through `same_key`.
    index: FastMap<MergeKey, usize>,
    live: usize,
    seq: u64,
    accepted: Vec<(Cond, SemVal)>,
    errors: Vec<ParseError>,
    /// Budget trips so far, coalesced per kind.
    trips: Vec<BudgetTrip>,
    /// The configured budgets, hoisted out of the config for the
    /// per-iteration checks.
    budgets: ParseBudgets,
    /// `!budgets.is_unlimited()`, precomputed: the ungoverned hot loop
    /// pays exactly one predictable branch for the governance layer.
    armed: bool,
    /// The iteration at which [`Run::tripped_budget`] next looks at the
    /// global budgets (see [`next_budget_check`]): until then an armed
    /// step costs one compare.
    next_check: u64,
    /// BDD manager node count when the parse started (for the ceiling).
    bdd_base: usize,
    /// Set only when a wall-clock budget is active.
    started: Option<std::time::Instant>,
    stats: ParseStats,
    /// Scratch buffers reused across token steps so the hot
    /// follow → reclassify → act loop does not allocate.
    follow_buf: Vec<FollowEntry>,
    entries_buf: Vec<FollowEntry>,
    /// The fast path's scratch stack, reused across stretches.
    fast_buf: Vec<FastFrame>,
    /// A reduce's popped right-hand side, reused by every reduce.
    rhs_buf: Vec<SemVal>,
}

fn state_of(stack: &Stack, grammar: &Grammar) -> u32 {
    match stack {
        Some(n) => n.state,
        None => grammar.start_state(),
    }
}

fn depth_of(stack: &Stack) -> u32 {
    match stack {
        Some(n) => n.depth,
        None => 0,
    }
}

/// Whether a popped value belongs in the AST: layout leaves `Empty`.
fn is_value(v: &SemVal) -> bool {
    !matches!(v, SemVal::Empty)
}

/// Pops the top value of a persistent stack. A node this stack owns
/// alone is unwrapped; one shared with another subparser's stack is
/// copied.
fn pop(stack: Stack) -> (SemVal, Stack) {
    match Rc::try_unwrap(stack.expect("stack underflow on reduce")) {
        Ok(node) => (node.value, node.prev),
        Err(node) => (node.value.clone(), node.prev.clone()),
    }
}

impl<'a, 'g, P: ContextPlugin> Run<'a, 'g, P> {
    fn run(mut self) -> ParseResult {
        let initial = Sub {
            heads: vec![Head {
                cond: self.cctx.tru(),
                node: self.forest.root(),
                term: self.parser.grammar.eof(),
            }],
            stack: None,
            ctx: self.parser.plugin.initial(),
        };
        self.insert(initial);
        while let Some(p) = self.pull() {
            self.stats.observe_live(self.live + 1);
            if self.parser.config.kill_switch > 0 && self.live + 1 > self.parser.config.kill_switch
            {
                self.errors.push(ParseError {
                    pos: None,
                    got: String::new(),
                    cond: p.cond(),
                    state: state_of(&p.stack, self.parser.grammar),
                    message: format!(
                        "kill switch: more than {} live subparsers",
                        self.parser.config.kill_switch
                    ),
                });
                break;
            }
            if self.armed {
                if let Some((kind, limit)) = self.tripped_budget() {
                    self.kill_all(kind, limit, p.cond());
                    break; // a global budget tripped; queue is empty
                }
                if self.budgets.max_live > 0 && self.live + 1 > self.budgets.max_live {
                    self.shed_queued(self.budgets.max_live - 1, self.budgets.max_live as u64);
                }
            }
            if p.heads.len() > 1 {
                self.step_multi(p);
            } else if self.parser.config.fastpath {
                // `p` leads the queue: run the deterministic fast path
                // until it would reach the next queued head. It hands
                // `p` back untouched when the very first step is not
                // fast (conditional head, typedef split) — this
                // iteration is already counted, so the general engine
                // performs it directly.
                if let Some(p) = self.step_fast(p) {
                    self.step_single(p);
                }
            } else {
                self.step_single(p);
            }
        }
        let accepted_cond = match self.accepted.as_slice() {
            [] => None,
            [(c, _)] => Some(c.clone()),
            many => {
                let mut c = many[0].0.clone();
                for (ci, _) in &many[1..] {
                    c = c.or(ci);
                }
                Some(c)
            }
        };
        let ast = if self.accepted.is_empty() {
            None
        } else {
            // Degraded configurations appear in the AST as explicit error
            // nodes *after* the real alternatives, so configuration-
            // restricted queries of surviving configurations are
            // unaffected while degraded ones resolve to a marker node
            // carrying the budget that tripped.
            for t in &self.trips {
                self.accepted.push((
                    t.cond.clone(),
                    SemVal::Node(Rc::new(AstNode {
                        prod: u32::MAX,
                        sym: self.parser.grammar.eof(),
                        kind: Rc::from(format!("budget_error:{}", t.kind)),
                        children: Vec::new(),
                        list: false,
                    })),
                ));
            }
            Some(SemVal::choice(std::mem::take(&mut self.accepted)))
        };
        let outcome = if self.trips.is_empty() {
            ParseOutcome::Complete
        } else {
            ParseOutcome::Partial
        };
        ParseResult {
            ast,
            accepted: accepted_cond,
            errors: self.errors,
            outcome,
            trips: self.trips,
            stats: self.stats,
        }
    }

    // ----- resource governance -----------------------------------------

    /// Which global budget, if any, tripped this iteration. Inlined into
    /// the main loop and the fast path: one compare against the
    /// countdown until a check is due.
    #[inline]
    fn tripped_budget(&mut self) -> Option<(BudgetKind, u64)> {
        if self.stats.iterations < self.next_check {
            return None;
        }
        self.check_budgets()
    }

    /// The due check: the step budget trips past `max_steps`
    /// iterations, the BDD node ceiling is probed every
    /// [`COND_NODE_CHECK_MASK`] + 1 iterations and the clock every
    /// [`TIME_CHECK_MASK`] + 1, so each trip fires at the iteration it
    /// would if every step checked. Sets the next due iteration.
    #[cold]
    fn check_budgets(&mut self) -> Option<(BudgetKind, u64)> {
        let b = self.budgets;
        if b.max_steps > 0 && self.stats.iterations > b.max_steps {
            return Some((BudgetKind::Steps, b.max_steps));
        }
        if b.max_cond_nodes > 0 && self.stats.iterations & COND_NODE_CHECK_MASK == 0 {
            let grown = self
                .cctx
                .bdd_stats()
                .map_or(0, |s| s.nodes)
                .saturating_sub(self.bdd_base);
            if grown > b.max_cond_nodes {
                return Some((BudgetKind::CondNodes, b.max_cond_nodes as u64));
            }
        }
        if let Some(t0) = self.started {
            if self.stats.iterations & TIME_CHECK_MASK == 0
                && t0.elapsed().as_millis() as u64 > b.max_millis
            {
                return Some((BudgetKind::TimeMs, b.max_millis));
            }
        }
        self.next_check = next_budget_check(&b, self.stats.iterations);
        None
    }

    /// Kills the current subparser (presence condition `cond`) and every
    /// queued one, recording one coalesced trip covering all their
    /// configurations.
    fn kill_all(&mut self, kind: BudgetKind, limit: u64, mut cond: Cond) {
        let mut killed = 1u64;
        for slot in &mut self.slab {
            if let Some(q) = slot.take() {
                cond = cond.or(&q.cond());
                killed += 1;
            }
        }
        self.heap.clear();
        self.live = 0;
        self.record_trip(kind, limit, cond, killed);
    }

    /// Sheds queued subparsers down to `keep`, killing the lowest-priority
    /// (furthest-position, latest-sequence) ones — the current subparser
    /// is untouched, so progress continues on the highest-priority work.
    fn shed_queued(&mut self, keep: usize, limit: u64) {
        // Every live slab entry has exactly one heap entry (merges mutate
        // in place); tombstones are filtered out here.
        let mut entries: Vec<(u32, u32, u64, usize)> = std::mem::take(&mut self.heap)
            .into_iter()
            .map(|Reverse(e)| e)
            .filter(|&(_, _, _, id)| self.slab[id].is_some())
            .collect();
        entries.sort_unstable();
        let victims = entries.split_off(keep.min(entries.len()));
        if victims.is_empty() {
            self.heap = entries.into_iter().map(Reverse).collect();
            return;
        }
        let mut cond: Option<Cond> = None;
        let mut killed = 0u64;
        for (_, _, _, id) in victims {
            let q = self.slab[id].take().expect("filtered live");
            let qc = q.cond();
            cond = Some(match cond {
                Some(c) => c.or(&qc),
                None => qc,
            });
            killed += 1;
        }
        // Like everywhere else, `live` counts the queued subparsers, not
        // the current one.
        self.live = entries.len();
        self.heap = entries.into_iter().map(Reverse).collect();
        self.record_trip(
            BudgetKind::Subparsers,
            limit,
            cond.expect("nonempty victims"),
            killed,
        );
    }

    /// Records a budget trip, coalescing with an earlier trip of the same
    /// kind (conditions OR, kill counts add).
    fn record_trip(&mut self, kind: BudgetKind, limit: u64, cond: Cond, killed: u64) {
        self.stats.budget_trips += 1;
        self.stats.budget_killed += killed;
        if let Some(t) = self.trips.iter_mut().find(|t| t.kind == kind) {
            t.cond = t.cond.or(&cond);
            t.killed += killed;
        } else {
            self.trips.push(BudgetTrip {
                kind,
                limit,
                cond,
                killed,
            });
        }
    }

    // ----- queue -------------------------------------------------------

    fn priority(&mut self, p: &Sub<P::Ctx>) -> (u32, u32, u64) {
        let g = self.parser.grammar;
        let pos = self.forest.position(p.heads[0].node);
        let rank = if self.parser.config.largest_stack_first {
            u32::MAX - depth_of(&p.stack)
        } else if self.parser.config.early_reduces {
            // Favor reduces; unknown (conditional head) counts as shift.
            let term = if p.heads.len() > 1 {
                Some(p.heads[0].term)
            } else {
                match p.heads[0].node {
                    None => Some(g.eof()),
                    Some(n) => self.forest.token(n).map(|(_, t)| t),
                }
            };
            match term.map(|t| g.action(state_of(&p.stack, g), t)) {
                Some(Action::Reduce(_)) | Some(Action::Accept) => 0,
                _ => 1,
            }
        } else {
            0
        };
        self.seq += 1;
        (pos, rank, self.seq)
    }

    fn merge_key(&self, p: &Sub<P::Ctx>) -> MergeKey {
        let fp = |h: &Head| (h.node.unwrap_or(u32::MAX), h.term.0);
        MergeKey {
            heads: match p.heads.as_slice() {
                [h] => HeadsKey::One(h.node.unwrap_or(u32::MAX), h.term.0),
                hs => HeadsKey::Many(hs.iter().map(fp).collect()),
            },
            state: state_of(&p.stack, self.parser.grammar),
            depth: depth_of(&p.stack),
        }
    }

    fn insert(&mut self, p: Sub<P::Ctx>) {
        let key = self.merge_key(&p);
        let newest = self.index.get(&key).copied().unwrap_or(NO_SLOT);
        // Probe the most recent candidates, newest first.
        let mut cid = newest;
        for _ in 0..MERGE_PROBE_WINDOW {
            if cid == NO_SLOT {
                break;
            }
            self.stats.merge_probes += 1;
            if self.slab[cid].is_some() && self.try_merge(cid, &p) {
                self.stats.merges += 1;
                return;
            }
            cid = self.same_key[cid];
        }
        let (pos, rank, seq) = self.priority(&p);
        let id = self.slab.len();
        self.slab.push(Some(p));
        self.same_key.push(newest);
        self.index.insert(key, id);
        self.heap.push(Reverse((pos, rank, seq, id)));
        self.live += 1;
    }

    fn pull(&mut self) -> Option<Sub<P::Ctx>> {
        while let Some(Reverse((_, _, _, id))) = self.heap.pop() {
            if let Some(p) = self.slab[id].take() {
                self.live -= 1;
                return Some(p);
            }
        }
        None
    }

    /// Attempts to merge `p` into the queued subparser `cid` (same heads,
    /// state, and depth by key). Returns true on success.
    fn try_merge(&mut self, cid: usize, p: &Sub<P::Ctx>) -> bool {
        let g = self.parser.grammar;
        let (q_stack, q_cond) = {
            let q = self.slab[cid].as_ref().expect("checked live");
            if !self.parser.plugin.may_merge(&q.ctx, &p.ctx) {
                return false;
            }
            (q.stack.clone(), q.cond())
        };
        // Walk both stacks to the shared tail, checking mergeability.
        let mut qs = q_stack;
        let mut ps = p.stack.clone();
        let mut spine: Vec<(Rc<StackNode>, Rc<StackNode>)> = Vec::new();
        loop {
            match (&qs, &ps) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    if Rc::ptr_eq(a, b) {
                        break;
                    }
                    if a.state != b.state || a.sym != b.sym {
                        return false;
                    }
                    if !a.value.quick_eq(&b.value)
                        && (!self.parser.config.choice_merge || !g.is_complete(a.sym))
                    {
                        return false;
                    }
                    spine.push((a.clone(), b.clone()));
                    qs = a.prev.clone();
                    ps = b.prev.clone();
                }
                _ => return false,
            }
        }
        // Mergeable: rebuild the differing spine with choice values.
        let p_cond = p.cond();
        let mut stack = qs; // shared tail
        for (a, b) in spine.into_iter().rev() {
            let value = self.merge_values(&a.value, &b.value, &q_cond, &p_cond);
            stack = Some(Rc::new(StackNode {
                state: a.state,
                sym: a.sym,
                value,
                prev: stack,
                depth: a.depth,
            }));
        }
        let merged_ctx = {
            let q = self.slab[cid].as_ref().expect("checked live");
            self.parser.plugin.merge(&q.ctx, &p.ctx)
        };
        let q = self.slab[cid].as_mut().expect("checked live");
        for (hq, hp) in q.heads.iter_mut().zip(&p.heads) {
            hq.cond = hq.cond.or(&hp.cond);
        }
        q.stack = stack;
        q.ctx = merged_ctx;
        true
    }

    /// Combines two semantic values at a merge point. List values whose
    /// children share a prefix merge *element-wise*, putting choice nodes
    /// around only the differing members — this is what keeps the AST for
    /// Figure 6's initializer linear in the member count instead of
    /// nesting a choice per merge.
    fn merge_values(&mut self, a: &SemVal, b: &SemVal, ca: &Cond, cb: &Cond) -> SemVal {
        if a.quick_eq(b) {
            return a.clone();
        }
        if let (SemVal::Node(na), SemVal::Node(nb)) = (a, b) {
            if na.sym == nb.sym && na.list && nb.list {
                let k = na
                    .children
                    .iter()
                    .zip(&nb.children)
                    .take_while(|(x, y)| x.quick_eq(y))
                    .count();
                let ra = &na.children[k..];
                let rb = &nb.children[k..];
                let mergeable = ra.len() == rb.len() || ra.is_empty() || rb.is_empty();
                if mergeable {
                    let mut children = na.children[..k].to_vec();
                    if ra.len() == rb.len() {
                        for (x, y) in ra.iter().zip(rb) {
                            children.push(self.merge_values(x, y, ca, cb));
                        }
                    } else {
                        // One side extends the other: the absent run gets
                        // one choice node with an explicit empty
                        // alternative (one conditional member = one choice
                        // node, matching Fig. 1c's AST shape).
                        let (longer, lc, sc) = if rb.is_empty() {
                            (ra, ca, cb)
                        } else {
                            (rb, cb, ca)
                        };
                        let present = if longer.len() == 1 {
                            longer[0].clone()
                        } else {
                            SemVal::Node(Rc::new(AstNode {
                                prod: na.prod,
                                sym: na.sym,
                                kind: na.kind.clone(),
                                children: longer.to_vec(),
                                list: true,
                            }))
                        };
                        self.stats.choice_nodes += 1;
                        children.push(SemVal::choice(vec![
                            (lc.clone(), present),
                            (sc.clone(), SemVal::Empty),
                        ]));
                    }
                    return SemVal::Node(Rc::new(AstNode {
                        prod: na.prod,
                        sym: na.sym,
                        kind: na.kind.clone(),
                        children,
                        list: true,
                    }));
                }
            }
        }
        self.stats.choice_nodes += 1;
        SemVal::choice(vec![(ca.clone(), a.clone()), (cb.clone(), b.clone())])
    }

    // ----- stepping ----------------------------------------------------

    fn step_single(&mut self, p: Sub<P::Ctx>) {
        let g = self.parser.grammar;

        if !self.parser.config.follow_set {
            let head = p.heads[0].clone();
            // MAPR: naive per-branch forking on conditional heads.
            if let Some(n) = head.node {
                if self.forest.token(n).is_none() {
                    let mut branches = self.forest.naive_fork(&head.cond, n);
                    let b = self.parser.config.budgets;
                    if b.max_forks > 0
                        && branches.len() > 1
                        && self.stats.forks + (branches.len() - 1) as u64 > b.max_forks
                    {
                        let dropped = branches.split_off(1);
                        let mut cond = dropped[0].0.clone();
                        for (c, _) in &dropped[1..] {
                            cond = cond.or(c);
                        }
                        self.record_trip(
                            BudgetKind::Forks,
                            b.max_forks,
                            cond,
                            dropped.len() as u64,
                        );
                    }
                    self.stats.forks += branches.len().saturating_sub(1) as u64;
                    let Sub { stack, ctx, .. } = p;
                    let m = branches.len();
                    let mut ctx_slot = Some(ctx);
                    for (i, (cond, node)) in branches.into_iter().enumerate() {
                        let ctx = if i + 1 == m {
                            ctx_slot.take().expect("last branch reuses the context")
                        } else {
                            self.parser
                                .plugin
                                .fork(ctx_slot.as_ref().expect("context present"))
                        };
                        self.insert(Sub {
                            heads: vec![Head {
                                cond,
                                node,
                                term: g.eof(),
                            }],
                            stack: stack.clone(),
                            ctx,
                        });
                    }
                    return;
                }
            }
            // Token or EOF head: resolve directly.
            let entry = self.resolve_head(&p, &head);
            match entry {
                One(e) => self.do_action(p, e),
                Many(es) => self.fork(es, p),
            }
            return;
        }

        // FMLR: token follow-set, through the reusable scratch buffers.
        let mut raw = std::mem::take(&mut self.follow_buf);
        self.forest
            .follow_into(&p.heads[0].cond, p.heads[0].node, &mut raw);
        let mut entries = std::mem::take(&mut self.entries_buf);
        entries.reserve(raw.len());
        for e in raw.drain(..) {
            self.reclassify_into(&p, e, &mut entries);
        }
        self.follow_buf = raw;
        match entries.len() {
            0 => self.entries_buf = entries,
            1 => {
                let e = entries.pop().expect("one");
                self.entries_buf = entries;
                self.do_action(p, e);
            }
            // Forks are rare; the buffer is rebuilt on the next step.
            _ => self.fork(entries, p),
        }
    }

    /// Resolves a token/EOF head into follow entries with
    /// reclassification (used on the MAPR path).
    fn resolve_head(&mut self, p: &Sub<P::Ctx>, head: &Head) -> Resolved {
        let mut out = Vec::new();
        let e = FollowEntry {
            cond: head.cond.clone(),
            node: head.node,
            term: SymbolId(u32::MAX),
        };
        self.reclassify_into(p, e, &mut out);
        if out.len() == 1 {
            One(out.pop().expect("one"))
        } else {
            Many(out)
        }
    }

    /// Applies terminal resolution + plug-in reclassification to a raw
    /// follow entry, appending the result(s).
    fn reclassify_into(&mut self, p: &Sub<P::Ctx>, e: FollowEntry, out: &mut Vec<FollowEntry>) {
        let g = self.parser.grammar;
        let Some(node) = e.node else {
            out.push(FollowEntry {
                cond: e.cond,
                node: None,
                term: g.eof(),
            });
            return;
        };
        let (tok, term) = self.forest.token(node).expect("follow entries are tokens");
        let term = if e.term.0 != u32::MAX { e.term } else { term };
        match self.parser.plugin.reclassify(&p.ctx, tok, term, &e.cond) {
            Reclass::Keep => out.push(FollowEntry {
                cond: e.cond,
                node: Some(node),
                term,
            }),
            Reclass::Replace(t) => out.push(FollowEntry {
                cond: e.cond,
                node: Some(node),
                term: t,
            }),
            Reclass::Split(parts) => {
                self.stats.reclassify_forks += parts.len().saturating_sub(1) as u64;
                for (cond, t) in parts {
                    if !cond.is_false() {
                        out.push(FollowEntry {
                            cond,
                            node: Some(node),
                            term: t,
                        });
                    }
                }
            }
        }
    }

    /// Fig. 7: forks subparsers for a multi-element follow-set, with lazy
    /// shifts and shared reduces producing multi-headed subparsers.
    fn fork(&mut self, entries: Vec<FollowEntry>, p: Sub<P::Ctx>) {
        let g = self.parser.grammar;
        let state = state_of(&p.stack, g);
        let mut shifts: Vec<Head> = Vec::new();
        let mut reduces: FastMap<u32, Vec<Head>> = FastMap::default();
        let mut singles: Vec<Head> = Vec::new();
        for e in entries {
            let head = Head {
                cond: e.cond,
                node: e.node,
                term: e.term,
            };
            match g.action(state, e.term) {
                Action::Shift(_) if self.parser.config.lazy_shifts => shifts.push(head),
                Action::Reduce(pr) if self.parser.config.shared_reduces => {
                    reduces.entry(pr).or_default().push(head)
                }
                _ => singles.push(head),
            }
        }
        let Sub { stack, ctx, .. } = p;
        let mut groups: Vec<Vec<Head>> = Vec::new();
        if !shifts.is_empty() {
            groups.push(shifts);
        }
        let mut reduce_groups: Vec<(u32, Vec<Head>)> = reduces.into_iter().collect();
        reduce_groups.sort_by_key(|&(pr, _)| pr);
        for (_, hs) in reduce_groups {
            groups.push(hs);
        }
        for h in singles {
            groups.push(vec![h]);
        }
        let b = self.parser.config.budgets;
        if b.max_forks > 0
            && groups.len() > 1
            && self.stats.forks + (groups.len() - 1) as u64 > b.max_forks
        {
            // Fork budget exhausted: keep only the highest-priority group
            // (shifts, else the lowest-numbered reduce) and degrade the
            // configurations the dropped groups would have explored.
            let dropped = groups.split_off(1);
            let mut cond: Option<Cond> = None;
            for heads in &dropped {
                for h in heads {
                    cond = Some(match cond {
                        Some(c) => c.or(&h.cond),
                        None => h.cond.clone(),
                    });
                }
            }
            self.record_trip(
                BudgetKind::Forks,
                b.max_forks,
                cond.expect("dropped groups have heads"),
                dropped.len() as u64,
            );
        }
        self.stats.forks += groups.len().saturating_sub(1) as u64;
        let n = groups.len();
        let mut ctx_slot = Some(ctx);
        for (i, mut heads) in groups.into_iter().enumerate() {
            heads.sort_by_key(|h| self.forest.position(h.node));
            let ctx = if i + 1 == n {
                ctx_slot.take().expect("last group reuses the context")
            } else {
                self.parser
                    .plugin
                    .fork(ctx_slot.as_ref().expect("context present"))
            };
            self.insert(Sub {
                heads,
                stack: stack.clone(),
                ctx,
            });
        }
    }

    fn step_multi(&mut self, mut p: Sub<P::Ctx>) {
        let g = self.parser.grammar;
        let state = state_of(&p.stack, g);
        let head0 = p.heads[0].clone();
        match g.action(state, head0.term) {
            Action::Shift(_) => {
                // Lazy shifts: detach and shift only the earliest head.
                self.stats.lazy_shifts += (p.heads.len() - 1) as u64;
                let rest_heads: Vec<Head> = p.heads.drain(1..).collect();
                let single = Sub {
                    heads: vec![head0.clone()],
                    stack: p.stack.clone(),
                    ctx: self.parser.plugin.fork(&p.ctx),
                };
                self.do_action(
                    single,
                    FollowEntry {
                        cond: head0.cond,
                        node: head0.node,
                        term: head0.term,
                    },
                );
                if !rest_heads.is_empty() {
                    self.insert(Sub {
                        heads: rest_heads,
                        stack: p.stack,
                        ctx: p.ctx,
                    });
                }
            }
            Action::Reduce(pr) => {
                // Shared reduce: one reduction serves every head.
                self.stats.shared_reduces += (p.heads.len() - 1) as u64;
                self.stats.reduces += 1;
                let cond = p.cond();
                let (stack, ok) = self.do_reduce(p.stack, pr, &cond, &mut p.ctx);
                if !ok {
                    for h in &p.heads {
                        self.error(h, state, "no goto after reduce");
                    }
                    return;
                }
                // Re-fork: the next action may differ per head now, and
                // the reduce may have changed the context (e.g. the
                // `type_seen` flag of the C plug-in), so reclassify each
                // head afresh rather than keeping stale terminals.
                let sub = Sub {
                    heads: Vec::new(),
                    stack,
                    ctx: p.ctx,
                };
                let mut entries: Vec<FollowEntry> = Vec::with_capacity(p.heads.len());
                for h in &p.heads {
                    self.reclassify_into(
                        &sub,
                        FollowEntry {
                            cond: h.cond.clone(),
                            node: h.node,
                            term: SymbolId(u32::MAX),
                        },
                        &mut entries,
                    );
                }
                self.fork(entries, sub);
            }
            _ => {
                // Accept/error for the earliest head: detach it and let
                // the single-headed path handle it; requeue the rest.
                let rest: Vec<Head> = p.heads.drain(1..).collect();
                let single = Sub {
                    heads: vec![head0.clone()],
                    stack: p.stack.clone(),
                    ctx: self.parser.plugin.fork(&p.ctx),
                };
                self.do_action(
                    single,
                    FollowEntry {
                        cond: head0.cond,
                        node: head0.node,
                        term: head0.term,
                    },
                );
                if !rest.is_empty() {
                    self.insert(Sub {
                        heads: rest,
                        stack: p.stack,
                        ctx: p.ctx,
                    });
                }
            }
        }
    }

    // ----- deterministic fast path --------------------------------------

    /// Peeks whether the next step of a lone single-headed subparser is
    /// deterministic: the head is a token (or EOF) — not a static
    /// conditional — and reclassification does not split it. Returns the
    /// resolved terminal and LR action, or `None` when the stretch is
    /// over and the general engine must take this step instead.
    ///
    /// Resolution here must match the general path exactly: the forest's
    /// classified terminal (the head's stored terminal is *not* reused —
    /// `follow_into` re-resolves after every reduce, because a reduce can
    /// change the context), then the plug-in's reclassification.
    /// `reclassify` is called again by the general engine when this peek
    /// declines, so plug-ins must keep it free of observable effects
    /// (the trait's contract; the C context only reads its tables).
    fn fast_resolve(
        &mut self,
        ctx: &P::Ctx,
        node: NodeRef,
        cond: &Cond,
        state: u32,
    ) -> Option<FastStep> {
        let g = self.parser.grammar;
        let term = match node {
            None => g.eof(),
            Some(n) => {
                let (tok, term) = self.forest.token(n)?; // conditional head
                match self.parser.plugin.reclassify(ctx, tok, term, cond) {
                    Reclass::Keep => term,
                    Reclass::Replace(t) => t,
                    // A split forks; the general engine redoes the
                    // reclassification and counts the fork once.
                    Reclass::Split(_) => return None,
                }
            }
        };
        Some(FastStep {
            term,
            action: g.action(state, term),
        })
    }

    /// The deterministic fast path: steps the single-headed `p`, which
    /// the main loop just pulled as the queue minimum, in a tight LALR
    /// loop — no priority queue, no merge probes — on a scratch stack
    /// that is persisted back into the shared `Rc` chain only when the
    /// stretch ends: at a conditional, a typedef split, or the first step
    /// whose head position reaches the *bound*, the position of the
    /// queue's minimum (no bound when nothing is queued).
    ///
    /// Why skipping the queue is sound: heads only move forward in
    /// document order, and every queued head sits at or after the bound.
    /// While the stretch stays strictly before it, `p` is the unique
    /// queue minimum — the general engine would pull it again — and no
    /// queued subparser can share its merge key, which includes the head
    /// node. The skipped inserts would only have added index entries at
    /// nodes no live subparser reaches again, so the probe window of
    /// every later insert is unchanged.
    ///
    /// Returns `Some(p)` when even the first step is not fast: the caller
    /// dispatches it to the general engine (that iteration was already
    /// counted by the main loop, so nothing is recorded here). Returns
    /// `None` when the fast path consumed the subparser — persisted and
    /// re-queued at a stretch end, accepted, errored, or budget-killed.
    ///
    /// Counter parity with the general engine: the main loop counted the
    /// first step before calling in, so each *subsequent* committed step
    /// replays `observe_live(live + 1)` plus the global budget check, in
    /// the same order; a trip kills the queue through [`Run::kill_all`]
    /// just as the main loop would. `live` is constant over a stretch, so
    /// the kill-switch and live-ceiling checks the main loop made for the
    /// first step hold for every later one. A step whose peek declines is
    /// re-pulled (and then counted) by the main loop. Skipping `insert`
    /// changes `merge_probes` only — every determinism-surface counter
    /// matches.
    fn step_fast(&mut self, p: Sub<P::Ctx>) -> Option<Sub<P::Ctx>> {
        let g = self.parser.grammar;
        let forest = self.forest;
        debug_assert!(p.heads.len() == 1);
        // Read after any shed; nothing is queued during the stretch.
        let bound = self.heap.peek().map(|&Reverse((pos, ..))| pos);
        let mut state = state_of(&p.stack, g);
        let Some(first_step) = self.fast_resolve(&p.ctx, p.heads[0].node, &p.heads[0].cond, state)
        else {
            return Some(p);
        };
        self.stats.fastpath_entries += 1;
        let Sub {
            mut heads,
            stack: mut base,
            mut ctx,
        } = p;
        // The presence condition is invariant over a stretch: token
        // follow-sets pass it through and nothing forks.
        let cond = heads[0].cond.clone();
        let mut node = heads[0].node;
        let mut step = first_step;
        let mut scratch = std::mem::take(&mut self.fast_buf);
        debug_assert!(scratch.is_empty());
        let mut first = true;
        // Runs until the head reaches the bound or a peek declines;
        // breaks with the head terminal the general engine would carry (EOF after a shift, the resolved
        // lookahead after a reduce) — it participates in the merge key.
        let exit_term = loop {
            if !first {
                // The main loop counted the first step; replay its
                // accounting for each further committed step.
                self.stats.observe_live(self.live + 1);
                if let Some((kind, limit)) = self.tripped_budget() {
                    self.kill_all(kind, limit, cond.clone());
                    scratch.clear();
                    self.fast_buf = scratch;
                    return None;
                }
            }
            first = false;
            let cur_term = match step.action {
                Action::Shift(s) => {
                    self.stats.shifts += 1;
                    self.stats.fastpath_tokens += 1;
                    let n = node.expect("eof cannot shift");
                    let (tok, _) = forest.token(n).expect("shift target is a token");
                    let depth = scratch.last().map_or_else(|| depth_of(&base), |f| f.depth) + 1;
                    scratch.push(FastFrame {
                        state: s,
                        sym: step.term,
                        value: SemVal::Tok(tok.clone()),
                        depth,
                    });
                    state = s;
                    node = forest.successor(n);
                    g.eof()
                }
                Action::Reduce(pr) => {
                    self.stats.reduces += 1;
                    let n = g.rhs_len(pr) as usize;
                    let mut rhs = std::mem::take(&mut self.rhs_buf);
                    let from_scratch = n.min(scratch.len());
                    for _ in 0..from_scratch {
                        rhs.push(scratch.pop().expect("counted").value);
                    }
                    for _ in from_scratch..n {
                        let (value, prev) = pop(base);
                        rhs.push(value);
                        base = prev;
                    }
                    let value = self.reduce_value(pr, &mut rhs, &cond, &mut ctx);
                    self.rhs_buf = rhs;
                    let below = scratch
                        .last()
                        .map_or_else(|| state_of(&base, g), |f| f.state);
                    let lhs = g.production(pr).lhs;
                    let Some(next) = g.goto(below, lhs) else {
                        // Same report as the general engine: pre-reduce
                        // state, resolved lookahead.
                        let h = Head {
                            cond: cond.clone(),
                            node,
                            term: step.term,
                        };
                        self.error(&h, state, "no goto after reduce");
                        scratch.clear();
                        self.fast_buf = scratch;
                        return None;
                    };
                    let depth = scratch.last().map_or_else(|| depth_of(&base), |f| f.depth) + 1;
                    scratch.push(FastFrame {
                        state: next,
                        sym: lhs,
                        value,
                        depth,
                    });
                    state = next;
                    step.term
                }
                Action::Accept => {
                    let value = match scratch.last() {
                        Some(f) => f.value.clone(),
                        None => match &base {
                            Some(sn) => sn.value.clone(),
                            None => SemVal::Empty,
                        },
                    };
                    self.accepted.push((cond.clone(), value));
                    scratch.clear();
                    self.fast_buf = scratch;
                    return None;
                }
                Action::Error => {
                    let h = Head {
                        cond: cond.clone(),
                        node,
                        term: step.term,
                    };
                    self.error(&h, state, "syntax error");
                    scratch.clear();
                    self.fast_buf = scratch;
                    return None;
                }
            };
            // Peek the next step *before* committing to it: a stretch-
            // ending step belongs to the general loop, which re-pulls
            // and re-counts it.
            if bound.is_some_and(|b| forest.position(node) >= b) {
                break cur_term;
            }
            match self.fast_resolve(&ctx, node, &cond, state) {
                Some(next) => step = next,
                None => break cur_term,
            }
        };
        // Persist the scratch frames into the persistent stack and hand
        // the subparser back to the queue.
        self.stats.fastpath_exits += 1;
        let mut stack = base;
        for f in scratch.drain(..) {
            stack = Some(Rc::new(StackNode {
                state: f.state,
                sym: f.sym,
                value: f.value,
                prev: stack,
                depth: f.depth,
            }));
        }
        self.fast_buf = scratch;
        heads[0] = Head {
            cond,
            node,
            term: exit_term,
        };
        self.insert(Sub { heads, stack, ctx });
        None
    }

    /// Performs one LR action for a resolved follow entry. Reuses `p`'s
    /// head vector (and, on shift, its stack handle) so the dominant
    /// shift/reduce steps allocate only the new stack node.
    fn do_action(&mut self, p: Sub<P::Ctx>, e: FollowEntry) {
        let g = self.parser.grammar;
        let state = state_of(&p.stack, g);
        match g.action(state, e.term) {
            Action::Shift(s) => {
                self.stats.shifts += 1;
                let node = e.node.expect("eof cannot shift");
                let (tok, _) = self.forest.token(node).expect("shift target is a token");
                let Sub {
                    mut heads,
                    stack: prev,
                    ctx,
                } = p;
                let depth = depth_of(&prev) + 1;
                let stack = Some(Rc::new(StackNode {
                    state: s,
                    sym: e.term,
                    value: SemVal::Tok(tok.clone()),
                    prev,
                    depth,
                }));
                heads.clear();
                heads.push(Head {
                    cond: e.cond,
                    node: self.forest.successor(node),
                    term: g.eof(),
                });
                self.insert(Sub { heads, stack, ctx });
            }
            Action::Reduce(pr) => {
                self.stats.reduces += 1;
                let Sub {
                    mut heads,
                    stack,
                    mut ctx,
                } = p;
                let (stack, ok) = self.do_reduce(stack, pr, &e.cond, &mut ctx);
                if !ok {
                    let h = Head {
                        cond: e.cond,
                        node: e.node,
                        term: e.term,
                    };
                    self.error(&h, state, "no goto after reduce");
                    return;
                }
                heads.clear();
                heads.push(Head {
                    cond: e.cond,
                    node: e.node,
                    term: e.term,
                });
                self.insert(Sub { heads, stack, ctx });
            }
            Action::Accept => {
                let value = match &p.stack {
                    Some(n) => n.value.clone(),
                    None => SemVal::Empty,
                };
                self.accepted.push((e.cond, value));
            }
            Action::Error => {
                let h = Head {
                    cond: e.cond,
                    node: e.node,
                    term: e.term,
                };
                self.error(&h, state, "syntax error");
            }
        }
    }

    fn error(&mut self, h: &Head, state: u32, message: &str) {
        let (pos, got) = match h.node {
            Some(n) => {
                let (tok, _) = self.forest.token(n).expect("token head");
                (Some(tok.tok.pos), tok.text().to_string())
            }
            None => (None, "<eof>".to_string()),
        };
        self.errors.push(ParseError {
            pos,
            got,
            cond: h.cond.clone(),
            state,
            message: message.to_string(),
        });
    }

    /// Pops the production's right-hand side, builds the semantic value
    /// per the grammar annotation, notifies the plug-in, and pushes the
    /// goto state. Returns the new stack and success.
    fn do_reduce(
        &mut self,
        stack: Stack,
        prod: u32,
        cond: &Cond,
        ctx: &mut P::Ctx,
    ) -> (Stack, bool) {
        let g = self.parser.grammar;
        let mut rhs = std::mem::take(&mut self.rhs_buf);
        let mut stack = stack;
        for _ in 0..g.rhs_len(prod) {
            let (value, prev) = pop(stack);
            rhs.push(value);
            stack = prev;
        }
        let value = self.reduce_value(prod, &mut rhs, cond, ctx);
        self.rhs_buf = rhs;
        let state = state_of(&stack, g);
        let lhs = g.production(prod).lhs;
        let Some(next) = g.goto(state, lhs) else {
            return (stack, false);
        };
        let stack = Some(Rc::new(StackNode {
            state: next,
            sym: lhs,
            value,
            prev: stack.clone(),
            depth: depth_of(&stack) + 1,
        }));
        (stack, true)
    }

    /// Builds a reduce's semantic value from its right-hand side, popped
    /// top first into `rhs` (left empty for reuse), and notifies the
    /// plug-in. Shared by the general reduce ([`Run::do_reduce`]) and the
    /// fast path, which must produce bit-identical values.
    fn reduce_value(
        &mut self,
        prod: u32,
        rhs: &mut Vec<SemVal>,
        cond: &Cond,
        ctx: &mut P::Ctx,
    ) -> SemVal {
        rhs.reverse();
        let value = self.build_reduce_value(prod, rhs);
        self.parser.plugin.on_reduce(ctx, prod, &value, cond);
        value
    }

    /// The value of a reduce per the production's AST annotation, built
    /// from its right-hand side in `values` (drained).
    fn build_reduce_value(&self, prod: u32, values: &mut Vec<SemVal>) -> SemVal {
        let p = self.parser.grammar.production(prod);
        match p.ast {
            AstBuild::Layout => {
                values.clear();
                SemVal::Empty
            }
            AstBuild::Passthrough => {
                let mut present = values.iter().enumerate().filter(|(_, v)| is_value(v));
                match (present.next(), present.next()) {
                    (Some((i, _)), None) => {
                        // The one value moves through.
                        let value = values.swap_remove(i);
                        values.clear();
                        value
                    }
                    _ => self.mk_node(prod, values, false),
                }
            }
            AstBuild::List => {
                let first_is_same_list = values
                    .first()
                    .and_then(SemVal::as_node)
                    .map(|n| n.sym == p.lhs && n.list)
                    == Some(true);
                if first_is_same_list {
                    let mut it = values.drain(..);
                    let Some(SemVal::Node(mut list)) = it.next() else {
                        unreachable!("checked node")
                    };
                    // Appends in place when this reduce holds the only
                    // reference; a list still shared (with a forked
                    // subparser's stack, a choice node) is copied first.
                    Rc::make_mut(&mut list).children.extend(it.filter(is_value));
                    SemVal::Node(list)
                } else {
                    self.mk_node(prod, values, true)
                }
            }
            AstBuild::Node | AstBuild::Action => self.mk_node(prod, values, false),
        }
    }

    fn mk_node(&self, prod: u32, values: &mut Vec<SemVal>, list: bool) -> SemVal {
        let g = self.parser.grammar;
        // Sized exactly: most nodes keep one to three children for life.
        let mut children = Vec::with_capacity(values.iter().filter(|v| is_value(v)).count());
        children.extend(values.drain(..).filter(is_value));
        SemVal::Node(Rc::new(AstNode {
            prod,
            sym: g.production(prod).lhs,
            kind: self.parser.kind_names[prod as usize].clone(),
            children,
            list,
        }))
    }
}

enum Resolved {
    One(FollowEntry),
    Many(Vec<FollowEntry>),
}
use Resolved::{Many, One};

#[cfg(test)]
mod stack_metadata_tests {
    use super::*;
    use superc_grammar::GrammarBuilder;
    use superc_util::prop::{check, Gen};

    /// Recomputes what `depth_of` answers in O(1) by walking the chain —
    /// the regression oracle for the inline `depth` field.
    fn walked_depth(stack: &Stack) -> u32 {
        let mut d = 0u32;
        let mut cur = stack.as_deref();
        while let Some(n) = cur {
            d += 1;
            cur = n.prev.as_deref();
        }
        d
    }

    /// The inline `state`/`depth` metadata must agree with a full walk of
    /// the stack after any sequence of shift-like pushes and reduce-like
    /// pops, including across shared tails (`Rc`-aliased prefixes).
    #[test]
    fn stack_metadata_matches_walking_recomputation() {
        let g = {
            let mut b = GrammarBuilder::new("S");
            b.terminals(&["a"]);
            b.prod("S", &["a"]);
            b.build().expect("grammar")
        };
        check("stack_metadata_walk", 128, |gen: &mut Gen| {
            let mut stack: Stack = None;
            // Keep earlier snapshots alive so pops can revisit shared tails.
            let mut snapshots: Vec<Stack> = Vec::new();
            for _ in 0..gen.usize(1..64) {
                if stack.is_none() || gen.percent(60) {
                    // "Shift/goto": push a node exactly as the engine does.
                    stack = Some(Rc::new(StackNode {
                        state: gen.u32(0..1000),
                        sym: SymbolId(gen.u32(0..16)),
                        value: SemVal::Empty,
                        prev: stack.clone(),
                        depth: depth_of(&stack) + 1,
                    }));
                    if gen.percent(20) {
                        snapshots.push(stack.clone());
                    }
                } else if gen.percent(15) && !snapshots.is_empty() {
                    // Fork-like jump back to a live shared prefix.
                    stack = snapshots[gen.usize(0..snapshots.len())].clone();
                } else {
                    // "Reduce": pop an rhs of 1..=3 nodes.
                    for _ in 0..gen.usize(1..=3) {
                        stack = stack.and_then(|n| n.prev.clone());
                    }
                }
                assert_eq!(depth_of(&stack), walked_depth(&stack));
                let expected_state = match stack.as_deref() {
                    Some(n) => n.state,
                    None => g.start_state(),
                };
                assert_eq!(state_of(&stack, &g), expected_state);
            }
        });
    }
}
