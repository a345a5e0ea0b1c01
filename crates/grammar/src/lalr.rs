//! LR(0) automaton construction and LALR(1) lookahead computation.
//!
//! The LR(0) automaton is built breadth-first, numbering each state's
//! successors in ascending symbol order, so a grammar always gets the
//! same state numbers. The lookahead passes look transitions up in a
//! dense `state × symbol` table that lives only while [`build`] runs.
//!
//! Lookaheads follow DeRemer and Pennello ("Efficient Computation of
//! LALR(1) Look-Ahead Sets", TOPLAS 1982), over the nonterminal
//! transitions `(p, A)` of the automaton:
//!
//! * `DR(p, A)` holds the terminals shifted in `goto(p, A)`;
//! * `(p, A) reads (r, C)` when `r = goto(p, A)` and `C` is nullable, and
//!   `Read` is `DR` closed under `reads`;
//! * `(p, B) includes (p', A)` when `A → β B γ`, `γ` is nullable and `p'`
//!   reaches `p` on `β`, and `Follow` is `Read` closed under `includes`;
//! * `(q, A → ω) lookback (p, A)` when `p` reaches `q` on `ω`: the
//!   lookahead set of that reduction is the union of those `Follow` sets.
//!
//! Both closures run the digraph algorithm, a depth-first walk that
//! unions each node's set into its predecessors' and gives every member
//! of a strongly connected component the same set.
//!
//! Like DeRemer and Pennello, this assumes every nonterminal derives some
//! terminal string. When one does not, a reduction may get lookaheads
//! on which no input is accepted.

use std::collections::HashMap;

/// Encoded symbol: `< num_terminals` is a terminal, otherwise a
/// nonterminal offset by the terminal count.
pub type Sym = u32;

/// A fixed-capacity bitset over terminal indices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub fn new(bits: usize) -> Self {
        BitSet {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    pub fn insert(&mut self, i: u32) -> bool {
        let (w, b) = ((i / 64) as usize, i % 64);
        let old = self.words[w];
        self.words[w] |= 1 << b;
        self.words[w] != old
    }

    /// Membership test (used by tests and debugging).
    #[allow(dead_code)]
    pub fn contains(&self, i: u32) -> bool {
        let (w, b) = ((i / 64) as usize, i % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Unions `other` into `self`; true if anything changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a |= b;
            changed |= *a != old;
        }
        changed
    }

    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64u32)
                .filter(move |b| w & (1 << b) != 0)
                .map(move |b| wi as u32 * 64 + b)
        })
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// An LR(0) item: production index and dot position.
pub type Item = (u32, u32);

pub struct LalrInput {
    /// Number of terminals (including eof).
    pub num_terms: u32,
    /// Number of nonterminals (including the augmented start, which must
    /// be the lhs of production 0 and appear in no right-hand side).
    pub num_nonterms: u32,
    /// Productions: `(lhs nonterminal index, encoded rhs)`.
    pub prods: Vec<(u32, Vec<Sym>)>,
    /// Terminal index of eof.
    pub eof: u32,
}

pub struct Automaton {
    /// Kernel items per state, sorted.
    pub kernels: Vec<Vec<Item>>,
    /// Transitions: per state, `(symbol, target state)` in ascending
    /// symbol order.
    pub trans: Vec<Vec<(Sym, u32)>>,
    /// Reduce actions: per state, `(production, lookahead set)` in
    /// ascending production order.
    pub reduces: Vec<Vec<(u32, BitSet)>>,
}

/// Marks a missing entry in the dense tables.
const NONE: u32 = u32::MAX;

/// Builds the LR(0) automaton and LALR(1) reduce sets.
pub fn build(g: &LalrInput) -> Automaton {
    let nt = |s: Sym| (s - g.num_terms) as usize;
    let num_syms = (g.num_terms + g.num_nonterms) as usize;
    let mut by_lhs = vec![Vec::new(); g.num_nonterms as usize];
    for (i, (lhs, _)) in g.prods.iter().enumerate() {
        by_lhs[*lhs as usize].push(i as u32);
    }

    // LR(0) states by kernel.
    let mut kernels: Vec<Vec<Item>> = vec![vec![(0, 0)]];
    let mut index: HashMap<Vec<Item>, u32> = HashMap::from([(kernels[0].clone(), 0)]);
    let mut trans: Vec<Vec<(Sym, u32)>> = Vec::new();
    // The last state whose closure took in each nonterminal's items.
    let mut closed_in = vec![NONE; g.num_nonterms as usize];
    let mut items: Vec<Item> = Vec::new();
    let mut succ: Vec<Vec<Item>> = vec![Vec::new(); num_syms];
    let mut syms: Vec<Sym> = Vec::new();
    let mut st = 0;
    while st < kernels.len() {
        items.clear();
        items.extend_from_slice(&kernels[st]);
        let mut i = 0;
        while let Some(&(p, dot)) = items.get(i) {
            i += 1;
            let Some(&s) = g.prods[p as usize].1.get(dot as usize) else {
                continue;
            };
            if s >= g.num_terms && closed_in[nt(s)] != st as u32 {
                closed_in[nt(s)] = st as u32;
                items.extend(by_lhs[nt(s)].iter().map(|&q| (q, 0)));
            }
            if succ[s as usize].is_empty() {
                syms.push(s);
            }
            succ[s as usize].push((p, dot + 1));
        }
        syms.sort_unstable();
        let mut t = Vec::with_capacity(syms.len());
        for s in syms.drain(..) {
            let mut kernel = std::mem::take(&mut succ[s as usize]);
            kernel.sort_unstable();
            let target = *index.entry(kernel).or_insert_with_key(|k| {
                kernels.push(k.clone());
                kernels.len() as u32 - 1
            });
            t.push((s, target));
        }
        trans.push(t);
        st += 1;
    }

    let mut nullable = vec![false; g.num_nonterms as usize];
    let mut changed = true;
    while changed {
        changed = false;
        for (lhs, rhs) in &g.prods {
            if !nullable[*lhs as usize] && rhs.iter().all(|&s| s >= g.num_terms && nullable[nt(s)])
            {
                nullable[*lhs as usize] = true;
                changed = true;
            }
        }
    }

    // The dense transition table, `next[state * num_syms + symbol]`, and
    // the nonterminal transitions `x = (state, symbol)`, found through
    // `x_of[state * nn + nonterminal]`. Transition 0 is the augmented
    // start's out of state 0: no state shifts it, but eof follows it.
    let nn = g.num_nonterms as usize;
    let mut next = vec![NONE; kernels.len() * num_syms];
    let mut xs: Vec<(usize, Sym)> = vec![(0, g.num_terms + g.prods[0].0)];
    let mut x_of = vec![NONE; kernels.len() * nn];
    for (p, t) in trans.iter().enumerate() {
        for &(s, q) in t {
            next[p * num_syms + s as usize] = q;
            if s >= g.num_terms {
                x_of[p * nn + nt(s)] = xs.len() as u32;
                xs.push((p, s));
            }
        }
    }
    let goto = |state: usize, s: Sym| next[state * num_syms + s as usize] as usize;
    let mut sets = vec![BitSet::new(g.num_terms as usize); xs.len()];
    sets[0].insert(g.eof);

    // DR and reads, closed into Read.
    let mut rel: Vec<Vec<u32>> = vec![Vec::new(); xs.len()];
    for (x, &(p, a)) in xs.iter().enumerate().skip(1) {
        let r = goto(p, a);
        for &(s, _) in &trans[r] {
            if s < g.num_terms {
                sets[x].insert(s);
            } else if nullable[nt(s)] {
                rel[x].push(x_of[r * nn + nt(s)]);
            }
        }
    }
    digraph(&rel, &mut sets);

    // includes and lookback, found by walking each right-hand side from
    // the transition's source state; Read closed under includes is Follow.
    rel.iter_mut().for_each(Vec::clear);
    let mut lookback: Vec<(u32, u32, u32)> = Vec::new();
    for (x, &(p, a)) in xs.iter().enumerate() {
        for &prod in &by_lhs[nt(a)] {
            let rhs = &g.prods[prod as usize].1;
            // Where the right-hand side's nullable suffix starts.
            let tail = rhs
                .iter()
                .rposition(|&s| s < g.num_terms || !nullable[nt(s)])
                .map_or(0, |i| i + 1);
            let mut q = p;
            for (i, &s) in rhs.iter().enumerate() {
                if s >= g.num_terms && i + 1 >= tail {
                    rel[x_of[q * nn + nt(s)] as usize].push(x as u32);
                }
                q = goto(q, s);
            }
            lookback.push((q as u32, prod, x as u32));
        }
    }
    digraph(&rel, &mut sets);

    let mut reduces: Vec<Vec<(u32, BitSet)>> = vec![Vec::new(); kernels.len()];
    for (q, prod, x) in lookback {
        let rs = &mut reduces[q as usize];
        match rs.iter_mut().find(|(p, _)| *p == prod) {
            Some((_, la)) => {
                la.union_with(&sets[x as usize]);
            }
            None => rs.push((prod, sets[x as usize].clone())),
        }
    }
    for rs in &mut reduces {
        rs.retain(|(_, la)| !la.is_empty());
        rs.sort_unstable_by_key(|&(p, _)| p);
    }

    let auto = Automaton {
        kernels,
        trans,
        reduces,
    };
    #[cfg(test)]
    reference::assert_matches(g, &auto);
    auto
}

/// DeRemer and Pennello's digraph algorithm: afterwards each `sets[x]` is
/// the union of the sets of every node reachable from `x` along `rel`,
/// `x` included.
fn digraph(rel: &[Vec<u32>], sets: &mut [BitSet]) {
    struct Walk<'a> {
        rel: &'a [Vec<u32>],
        sets: &'a mut [BitSet],
        /// 0 = unvisited, NONE = done, else the node's stack depth.
        depth: Vec<u32>,
        stack: Vec<usize>,
    }

    impl Walk<'_> {
        fn traverse(&mut self, x: usize) {
            self.stack.push(x);
            let d = self.stack.len() as u32;
            self.depth[x] = d;
            let rel = self.rel;
            for &y in &rel[x] {
                let y = y as usize;
                if self.depth[y] == 0 {
                    self.traverse(y);
                }
                self.depth[x] = self.depth[x].min(self.depth[y]);
                if y != x {
                    let from = std::mem::take(&mut self.sets[y]);
                    self.sets[x].union_with(&from);
                    self.sets[y] = from;
                }
            }
            if self.depth[x] == d {
                while let Some(top) = self.stack.pop() {
                    self.depth[top] = NONE;
                    if top == x {
                        break;
                    }
                    self.sets[top] = self.sets[x].clone();
                }
            }
        }
    }

    let mut walk = Walk {
        rel,
        sets,
        depth: vec![0; rel.len()],
        stack: Vec::new(),
    };
    for x in 0..rel.len() {
        if walk.depth[x] == 0 {
            walk.traverse(x);
        }
    }
}

/// The previous lookahead pass, spontaneous generation and propagation
/// (Dragon book §4.7.5), kept as the oracle: under `cfg(test)` every
/// [`build`] checks its reduce sets against this one on the same
/// automaton.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use super::{Automaton, BitSet, Item, LalrInput, Sym};

    struct Ctx<'g> {
        g: &'g LalrInput,
        nullable: Vec<bool>,
        first: Vec<BitSet>,
        /// Productions grouped by lhs.
        by_lhs: Vec<Vec<u32>>,
    }

    impl<'g> Ctx<'g> {
        fn is_term(&self, s: Sym) -> bool {
            s < self.g.num_terms
        }

        fn nt(&self, s: Sym) -> usize {
            (s - self.g.num_terms) as usize
        }

        /// FIRST of a symbol sequence followed by the lookahead set `la`.
        fn first_seq(&self, seq: &[Sym], la: &BitSet, out: &mut BitSet) {
            for &s in seq {
                if self.is_term(s) {
                    out.insert(s);
                    return;
                }
                out.union_with(&self.first[self.nt(s)]);
                if !self.nullable[self.nt(s)] {
                    return;
                }
            }
            out.union_with(la);
        }
    }

    fn compute_first(g: &LalrInput) -> (Vec<bool>, Vec<BitSet>) {
        let n = g.num_nonterms as usize;
        let mut nullable = vec![false; n];
        let mut first = vec![BitSet::new(g.num_terms as usize + 1); n];
        loop {
            let mut changed = false;
            for (lhs, rhs) in &g.prods {
                let lhs = *lhs as usize;
                let mut all_nullable = true;
                for &s in rhs {
                    if s < g.num_terms {
                        changed |= first[lhs].insert(s);
                        all_nullable = false;
                        break;
                    }
                    let nt = (s - g.num_terms) as usize;
                    let other = first[nt].clone();
                    changed |= first[lhs].union_with(&other);
                    if !nullable[nt] {
                        all_nullable = false;
                        break;
                    }
                }
                if all_nullable && !nullable[lhs] {
                    nullable[lhs] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        (nullable, first)
    }

    /// LR(1)-style closure over `(item -> lookahead set)` seeds, to a fixpoint.
    fn closure1(ctx: &Ctx, seeds: &[(Item, BitSet)]) -> HashMap<Item, BitSet> {
        let mut map: HashMap<Item, BitSet> = HashMap::new();
        let mut work: Vec<Item> = Vec::new();
        for (item, las) in seeds {
            map.entry(*item)
                .or_insert_with(|| BitSet::new(ctx.g.num_terms as usize + 1))
                .union_with(las);
            work.push(*item);
        }
        while let Some(item) = work.pop() {
            let (p, dot) = item;
            let rhs = ctx.g.prods[p as usize].1.clone();
            let Some(&s) = rhs.get(dot as usize) else {
                continue;
            };
            if ctx.is_term(s) {
                continue;
            }
            let la = map.get(&item).expect("seeded").clone();
            let mut firsts = BitSet::new(ctx.g.num_terms as usize + 1);
            ctx.first_seq(&rhs[dot as usize + 1..], &la, &mut firsts);
            for &q in &ctx.by_lhs[ctx.nt(s)] {
                let target = (q, 0);
                let entry = map
                    .entry(target)
                    .or_insert_with(|| BitSet::new(ctx.g.num_terms as usize + 1));
                if entry.union_with(&firsts) {
                    work.push(target);
                }
            }
        }
        map
    }

    /// LALR(1) reduce sets for the LR(0) automaton `kernels`/`trans`.
    fn reduces(
        g: &LalrInput,
        kernels: &[Vec<Item>],
        trans: &[HashMap<Sym, u32>],
    ) -> Vec<Vec<(u32, BitSet)>> {
        let (nullable, first) = compute_first(g);
        let mut by_lhs = vec![Vec::new(); g.num_nonterms as usize];
        for (i, (lhs, _)) in g.prods.iter().enumerate() {
            by_lhs[*lhs as usize].push(i as u32);
        }
        let ctx = Ctx {
            g,
            nullable,
            first,
            by_lhs,
        };

        // LALR lookaheads for kernel items: spontaneous + propagation.
        let dummy: u32 = g.num_terms; // bit index just past real terminals
        let item_pos: Vec<HashMap<Item, usize>> = kernels
            .iter()
            .map(|k| k.iter().enumerate().map(|(i, &it)| (it, i)).collect())
            .collect();
        let mut la: Vec<Vec<BitSet>> = kernels
            .iter()
            .map(|k| vec![BitSet::new(g.num_terms as usize + 1); k.len()])
            .collect();
        la[0][0].insert(g.eof);
        // edges: (state, kernel idx) -> list of (state, kernel idx)
        let mut edges: HashMap<(u32, usize), Vec<(u32, usize)>> = HashMap::new();
        for (st, kernel) in kernels.iter().enumerate() {
            for (ki, &item) in kernel.iter().enumerate() {
                let mut seed = BitSet::new(g.num_terms as usize + 1);
                seed.insert(dummy);
                let closed = closure1(&ctx, &[(item, seed)]);
                for ((p, dot), las) in closed {
                    let rhs = &ctx.g.prods[p as usize].1;
                    let Some(&s) = rhs.get(dot as usize) else {
                        continue;
                    };
                    let target_state = trans[st][&s];
                    let target_item = (p, dot + 1);
                    let ti = item_pos[target_state as usize][&target_item];
                    for l in las.iter() {
                        if l == dummy {
                            edges
                                .entry((st as u32, ki))
                                .or_default()
                                .push((target_state, ti));
                        } else {
                            la[target_state as usize][ti].insert(l);
                        }
                    }
                }
            }
        }
        // Propagate to fixpoint.
        let mut changed = true;
        while changed {
            changed = false;
            for ((src_st, src_ki), targets) in &edges {
                let src = la[*src_st as usize][*src_ki].clone();
                for (tst, tki) in targets {
                    changed |= la[*tst as usize][*tki].union_with(&src);
                }
            }
        }

        // Reduce actions via in-state closure with real lookahead sets.
        let mut reduces: Vec<Vec<(u32, BitSet)>> = Vec::with_capacity(kernels.len());
        for (st, kernel) in kernels.iter().enumerate() {
            let seeds: Vec<(Item, BitSet)> = kernel
                .iter()
                .enumerate()
                .map(|(ki, &item)| (item, la[st][ki].clone()))
                .collect();
            let closed = closure1(&ctx, &seeds);
            let mut rs: Vec<(u32, BitSet)> = Vec::new();
            for ((p, dot), las) in closed {
                if dot as usize == ctx.g.prods[p as usize].1.len() && !las.is_empty() {
                    rs.push((p, las));
                }
            }
            rs.sort_by_key(|&(p, _)| p);
            reduces.push(rs);
        }
        reduces
    }

    /// True when every nonterminal derives some terminal string, as
    /// DeRemer and Pennello assume. Otherwise `DR` also counts the shifts
    /// of items that this pass leaves unexpanded because their lookahead
    /// set is empty, so [`build`](super::build) may give a reduction
    /// extra lookaheads on which no input is accepted.
    pub fn productive(g: &LalrInput) -> bool {
        let mut ok = vec![false; g.num_nonterms as usize];
        let mut changed = true;
        while changed {
            changed = false;
            for (lhs, rhs) in &g.prods {
                if !ok[*lhs as usize]
                    && rhs
                        .iter()
                        .all(|&s| s < g.num_terms || ok[(s - g.num_terms) as usize])
                {
                    ok[*lhs as usize] = true;
                    changed = true;
                }
            }
        }
        ok.into_iter().all(|b| b)
    }

    /// Asserts that `auto`'s reduce sets equal this pass's on the same
    /// LR(0) automaton or, for a grammar that is not [`productive`], that
    /// they contain them.
    pub fn assert_matches(g: &LalrInput, auto: &Automaton) {
        let trans: Vec<HashMap<Sym, u32>> = auto
            .trans
            .iter()
            .map(|t| t.iter().copied().collect())
            .collect();
        let want = reduces(g, &auto.kernels, &trans);
        let listed = |rs: &[(u32, BitSet)]| -> Vec<(u32, Vec<u32>)> {
            rs.iter().map(|(p, la)| (*p, la.iter().collect())).collect()
        };
        let exact = productive(g);
        for (st, (got, want)) in auto.reduces.iter().zip(&want).enumerate() {
            if exact {
                assert_eq!(listed(got), listed(want), "reduce sets of state {st}");
                continue;
            }
            for (p, la) in want {
                let have = got.iter().find(|(q, _)| q == p).map(|(_, la)| la);
                assert!(
                    have.is_some_and(|have| la.iter().all(|t| have.contains(t))),
                    "state {st} misses lookaheads of production {p}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use superc_util::prop::{check, Gen};

    use super::{build, reference, BitSet, LalrInput};

    #[test]
    fn insert_contains_union() {
        let mut a = BitSet::new(130);
        assert!(a.is_empty());
        assert!(a.insert(0));
        assert!(a.insert(129));
        assert!(!a.insert(129), "re-insert reports no change");
        assert!(a.contains(0) && a.contains(129) && !a.contains(64));
        let mut b = BitSet::new(130);
        b.insert(64);
        assert!(b.union_with(&a));
        assert!(!b.union_with(&a), "second union is a no-op");
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    /// A random grammar over a few terminals and nonterminals. Besides
    /// random right-hand sides (the empty one included), nonterminals get
    /// ε-productions, unit chains, and left- and right-recursive
    /// productions, the shapes that feed `reads`, `includes` and their
    /// strongly connected components.
    fn random_grammar(gen: &mut Gen) -> LalrInput {
        let num_terms = gen.u32(2..6);
        let n = gen.u32(1..7);
        let term = |gen: &mut Gen| gen.u32(0..num_terms as usize - 1);
        let nonterm = |gen: &mut Gen| num_terms + gen.u32(0..n as usize);
        // Production 0 is `$start -> A0`; `$start` is nonterminal `n`.
        let mut prods = vec![(n, vec![num_terms])];
        for a in 0..n {
            let own = num_terms + a;
            for _ in 0..gen.usize(1..4) {
                let rhs = gen.vec(0..5, |gen| {
                    if gen.percent(45) {
                        term(gen)
                    } else {
                        nonterm(gen)
                    }
                });
                prods.push((a, rhs));
            }
            if gen.percent(40) {
                prods.push((a, vec![]));
            }
            if gen.percent(30) {
                prods.push((a, vec![nonterm(gen)]));
            }
            if gen.percent(30) {
                prods.push((a, vec![own, term(gen)]));
            }
            if gen.percent(30) {
                prods.push((a, vec![term(gen), own]));
            }
            if gen.percent(20) {
                prods.push((a, vec![nonterm(gen), own, nonterm(gen)]));
            }
        }
        LalrInput {
            num_terms,
            num_nonterms: n + 1,
            prods,
            eof: num_terms - 1,
        }
    }

    #[test]
    fn random_grammars_match_the_reference_lookaheads() {
        // `build` checks itself against the reference pass.
        let (mut cases, mut exact, mut states) = (0, 0, 0);
        check(
            "random_grammars_match_the_reference_lookaheads",
            400,
            |gen| {
                let g = random_grammar(gen);
                states += build(&g).kernels.len();
                cases += 1;
                exact += usize::from(reference::productive(&g));
            },
        );
        assert!(states > cases, "the grammars are not all trivial");
        assert!(
            4 * exact > cases,
            "{exact} of {cases} grammars compared exactly"
        );
    }
}
