//! Semantic values: tokens, AST nodes, and static choice nodes.
//!
//! SuperC's AST is well-formed — every node is a complete C construct —
//! with *static choice nodes* at merge points carrying one child per
//! configuration (§2, Figure 1c). Values are reference-counted so forked
//! subparsers share everything up to their divergence.
//!
//! The finished AST is therefore a DAG: the alternatives of a choice
//! hold the same `Rc` subtrees, and its unfolding (one copy per path)
//! can be many times its distinct nodes, exponentially so in the worst
//! case. Every whole-tree query goes through one iterative walk that
//! memoizes each shared subtree once: [`SemVal::node_count`] and
//! [`SemVal::choice_count`] cost the distinct nodes, and
//! [`SemVal::visit_pruned`] skips the revisits that would produce
//! nothing. Only [`SemVal::visit`] still calls back once per path.

use std::fmt;
use std::rc::Rc;

use superc_cond::Cond;
use superc_cpp::PTok;
use superc_grammar::SymbolId;
use superc_util::FastMap;

/// An AST node: a reduced production with its children.
#[derive(Clone, Debug)]
pub struct AstNode {
    /// The production reduced to build this node.
    pub prod: u32,
    /// The left-hand-side nonterminal.
    pub sym: SymbolId,
    /// Node kind name (the production's nonterminal name).
    pub kind: Rc<str>,
    /// Child values (layout children omitted).
    pub children: Vec<SemVal>,
    /// True when this node linearizes a left-recursive repetition.
    pub list: bool,
}

/// A semantic value on the parser stack or in the finished AST.
#[derive(Clone, Debug)]
pub enum SemVal {
    /// A shifted token.
    Tok(PTok),
    /// A reduced node.
    Node(Rc<AstNode>),
    /// A static choice: one alternative per configuration class.
    Choice(Rc<Vec<(Cond, SemVal)>>),
    /// No value (layout productions).
    Empty,
}

/// Node and choice totals of an unfolded tree, saturating at
/// `usize::MAX` instead of wrapping.
#[derive(Clone, Copy, Default)]
struct Tally {
    nodes: usize,
    choices: usize,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.nodes = self.nodes.saturating_add(other.nodes);
        self.choices = self.choices.saturating_add(other.choices);
    }

    /// What was added since `start`. Totals only grow within one walk,
    /// so once one saturates every later total is `usize::MAX` anyway.
    fn since(self, start: Tally) -> Tally {
        Tally {
            nodes: self.nodes - start.nodes,
            choices: self.choices - start.choices,
        }
    }
}

impl SemVal {
    /// Cheap equality for merge checks: pointer equality for nodes and
    /// choices, positional identity for tokens.
    pub fn quick_eq(&self, other: &SemVal) -> bool {
        match (self, other) {
            (SemVal::Empty, SemVal::Empty) => true,
            (SemVal::Tok(a), SemVal::Tok(b)) => {
                Rc::ptr_eq(&a.tok.text, &b.tok.text) && a.tok.pos == b.tok.pos
            }
            (SemVal::Node(a), SemVal::Node(b)) => Rc::ptr_eq(a, b),
            (SemVal::Choice(a), SemVal::Choice(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Builds a static choice over alternatives, flattening nested
    /// choices and dropping infeasible ones.
    pub fn choice(alts: Vec<(Cond, SemVal)>) -> SemVal {
        let mut flat: Vec<(Cond, SemVal)> = Vec::with_capacity(alts.len());
        for (c, v) in alts {
            if c.is_false() {
                continue;
            }
            match v {
                SemVal::Choice(inner) => {
                    for (ic, iv) in inner.iter() {
                        let cc = c.and(ic);
                        if !cc.is_false() {
                            flat.push((cc, iv.clone()));
                        }
                    }
                }
                other => flat.push((c, other)),
            }
        }
        match flat.len() {
            0 => SemVal::Empty,
            1 => flat.pop().expect("one").1,
            _ => SemVal::Choice(Rc::new(flat)),
        }
    }

    /// The node if this is one.
    pub fn as_node(&self) -> Option<&Rc<AstNode>> {
        match self {
            SemVal::Node(n) => Some(n),
            _ => None,
        }
    }

    /// The token if this is one.
    pub fn as_token(&self) -> Option<&PTok> {
        match self {
            SemVal::Tok(t) => Some(t),
            _ => None,
        }
    }

    /// Counts the AST nodes of the unfolded tree: a node reached by
    /// several paths counts once per path, and every choice alternative
    /// counts. Saturates at `usize::MAX`. Costs the distinct nodes, not
    /// the unfolded tree (see [`SemVal::visit_pruned`]).
    pub fn node_count(&self) -> usize {
        self.walk(&mut |_, _| false).nodes
    }

    /// Counts the static choice nodes of the unfolded tree, once per path
    /// like [`SemVal::node_count`]. Saturates at `usize::MAX`; costs the
    /// distinct nodes.
    pub fn choice_count(&self) -> usize {
        self.walk(&mut |_, _| false).choices
    }

    /// Visits every node in the tree, including inside choices, calling
    /// `f` with the node and the presence condition in effect (None at
    /// the unconditioned root).
    ///
    /// `f` runs once per *path* to a node, in pre-order, so on a shared
    /// tree this costs the unfolded tree, not the distinct nodes: a chain
    /// of `k` choices whose alternatives share the rest of the chain is
    /// visited `2^k` times. A query that produces something at few nodes
    /// should use [`SemVal::visit_pruned`].
    pub fn visit(&self, f: &mut dyn FnMut(&AstNode, Option<&Cond>)) {
        self.walk(&mut |n, cond| {
            f(n, cond);
            true
        });
    }

    /// Like [`SemVal::visit`], but `f` answers whether it produced
    /// anything at the node, and a shared subtree whose first visit
    /// produced nothing is not walked again. If what `f` produces
    /// depends on the node and not on the condition, it produces exactly
    /// what it would under `visit`, in the same order.
    ///
    /// Costs the distinct nodes, plus one walk of a producing shared
    /// subtree for each further path into it (its silent shared parts
    /// are skipped there too): what `f` produces in a shared subtree it
    /// still produces once per path, by contract.
    pub fn visit_pruned(&self, f: &mut dyn FnMut(&AstNode, Option<&Cond>) -> bool) {
        self.walk(f);
    }

    /// The one walk behind every whole-tree query: an explicit stack in
    /// the unfolded tree's pre-order, which memoizes each shared subtree
    /// once. Only an `Rc` held more than once can be reached by a second
    /// path, so only those are keyed (by address). A revisit of one whose
    /// first visit `f` answered `false` throughout adds its totals
    /// without walking it; any other revisit walks it again.
    fn walk(&self, f: &mut dyn FnMut(&AstNode, Option<&Cond>) -> bool) -> Tally {
        enum Step<'a> {
            Enter(&'a SemVal, Option<&'a Cond>),
            /// Ends the first visit of a shared subtree: its key, and the
            /// totals and `f`'s `true` answers when it began.
            Leave(*const (), Tally, usize),
        }
        // Per shared subtree: its totals if its first visit was silent.
        let mut memo: FastMap<*const (), Option<Tally>> = FastMap::default();
        let mut tally = Tally::default();
        let mut produced = 0usize;
        let mut stack = vec![Step::Enter(self, None)];
        while let Some(step) = stack.pop() {
            let (v, cond) = match step {
                Step::Enter(v, cond) => (v, cond),
                Step::Leave(key, start, before) => {
                    memo.insert(key, (produced == before).then(|| tally.since(start)));
                    continue;
                }
            };
            let shared = match v {
                SemVal::Node(n) if Rc::strong_count(n) > 1 => Some(Rc::as_ptr(n).cast()),
                SemVal::Choice(c) if Rc::strong_count(c) > 1 => Some(Rc::as_ptr(c).cast()),
                _ => None,
            };
            if let Some(key) = shared {
                match memo.get(&key) {
                    Some(Some(sub)) => {
                        tally.add(*sub);
                        continue;
                    }
                    Some(None) => {}
                    None => stack.push(Step::Leave(key, tally, produced)),
                }
            }
            match v {
                SemVal::Node(n) => {
                    tally.nodes = tally.nodes.saturating_add(1);
                    if f(n, cond) {
                        produced += 1;
                    }
                    stack.extend(n.children.iter().rev().map(|ch| Step::Enter(ch, cond)));
                }
                SemVal::Choice(alts) => {
                    tally.choices = tally.choices.saturating_add(1);
                    stack.extend(alts.iter().rev().map(|(c, alt)| Step::Enter(alt, Some(c))));
                }
                _ => {}
            }
        }
        tally
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            SemVal::Tok(t) => writeln!(f, "{pad}{}", t.text()),
            SemVal::Empty => writeln!(f, "{pad}ε"),
            SemVal::Node(n) => {
                writeln!(f, "{pad}{}", n.kind)?;
                for ch in &n.children {
                    ch.fmt_indent(f, indent + 1)?;
                }
                Ok(())
            }
            SemVal::Choice(alts) => {
                writeln!(f, "{pad}Choice")?;
                for (c, v) in alts.iter() {
                    writeln!(f, "{pad}  [{c}]")?;
                    v.fmt_indent(f, indent + 2)?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for SemVal {
    /// An indented tree dump, with choice alternatives labeled by their
    /// presence conditions (like the paper's Figure 1c sketch).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}
