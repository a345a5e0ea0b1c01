//! The generated parse tables as data. Building one grammar twice must
//! give the same tables entry for entry, state numbers included. The C
//! grammar's tables are pinned by a fingerprint taken under a canonical
//! state numbering, so a generator change that alters any action, goto
//! or reported conflict fails here, while one that only renumbers
//! states does not.

use std::collections::VecDeque;
use std::hash::Hasher;

use superc_csyntax::c_grammar;
use superc_grammar::{Action, Grammar, GrammarBuilder, SymbolId};
use superc_util::hash::FxHasher;

/// Every nonterminal, in id order (each one is some production's lhs).
fn nonterminals(g: &Grammar) -> Vec<SymbolId> {
    let mut nts: Vec<SymbolId> = (0..g.num_productions())
        .map(|p| g.production(p).lhs)
        .collect();
    nts.sort_unstable();
    nts.dedup();
    nts
}

/// The shift or goto target of `state` on `sym`, if any.
fn successor(g: &Grammar, state: u32, sym: SymbolId) -> Option<u32> {
    if g.is_terminal(sym) {
        match g.action(state, sym) {
            Action::Shift(t) => Some(t),
            _ => None,
        }
    } else {
        g.goto(state, sym)
    }
}

/// Maps each state to its breadth-first number from the start state,
/// following shifts and gotos in ascending symbol order. The numbering
/// depends only on the tables' graph, not on construction order.
fn canonical_numbering(g: &Grammar) -> Vec<u32> {
    let syms: Vec<SymbolId> = (0..g.num_terminals())
        .map(SymbolId)
        .chain(nonterminals(g))
        .collect();
    let mut canon = vec![u32::MAX; g.num_states() as usize];
    let mut next = 0;
    let mut queue = VecDeque::from([g.start_state()]);
    canon[g.start_state() as usize] = next;
    while let Some(state) = queue.pop_front() {
        for &sym in &syms {
            if let Some(t) = successor(g, state, sym) {
                if canon[t as usize] == u32::MAX {
                    next += 1;
                    canon[t as usize] = next;
                    queue.push_back(t);
                }
            }
        }
    }
    assert!(
        canon.iter().all(|&c| c != u32::MAX),
        "every state is reachable through a shift or goto"
    );
    canon
}

/// A hash of every action and goto entry and of the conflict list, with
/// states renumbered by [`canonical_numbering`].
fn fingerprint(g: &Grammar) -> u64 {
    let canon = canonical_numbering(g);
    let mut by_canon = vec![0; canon.len()];
    for (state, &c) in canon.iter().enumerate() {
        by_canon[c as usize] = state as u32;
    }
    let nts = nonterminals(g);
    let mut h = FxHasher::default();
    h.write_u32(g.num_states());
    h.write_u32(g.num_terminals());
    h.write_usize(nts.len());
    for &state in &by_canon {
        for t in (0..g.num_terminals()).map(SymbolId) {
            let (tag, arg) = match g.action(state, t) {
                Action::Error => (0, 0),
                Action::Shift(s) => (1, canon[s as usize]),
                Action::Reduce(p) => (2, p),
                Action::Accept => (3, 0),
            };
            h.write_u32(tag);
            h.write_u32(arg);
        }
        for &nt in &nts {
            h.write_u32(g.goto(state, nt).map_or(u32::MAX, |s| canon[s as usize]));
        }
    }
    let mut conflicts: Vec<(u32, &str, &str)> = g
        .conflicts()
        .iter()
        .map(|c| {
            (
                canon[c.state as usize],
                c.terminal.as_str(),
                c.resolution.as_str(),
            )
        })
        .collect();
    conflicts.sort_unstable();
    for (state, terminal, resolution) in conflicts {
        h.write_u32(state);
        h.write(terminal.as_bytes());
        h.write(resolution.as_bytes());
    }
    h.finish()
}

/// A statement language big enough (tens of states) that any dependence
/// of state numbers on hash-map iteration order shows.
fn statement_grammar() -> Grammar {
    let mut b = GrammarBuilder::new("Prog");
    b.terminals(&[
        "id", "num", "=", ";", "if", "else", "while", "return", "(", ")", "{", "}", "+", "-", "*",
        "/",
    ]);
    b.prod("Prog", &["Stmts"]);
    b.prod("Stmts", &["Stmts", "Stmt"]).list();
    b.prod("Stmts", &["Stmt"]);
    b.prod("Stmt", &["id", "=", "E", ";"]);
    b.prod("Stmt", &["if", "(", "E", ")", "Stmt"]);
    b.prod("Stmt", &["if", "(", "E", ")", "Stmt", "else", "Stmt"]);
    b.prod("Stmt", &["while", "(", "E", ")", "Stmt"]);
    b.prod("Stmt", &["{", "Stmts", "}"]);
    b.prod("Stmt", &["return", "E", ";"]);
    b.prod("E", &["E", "+", "T"]);
    b.prod("E", &["E", "-", "T"]);
    b.prod("E", &["T"]).passthrough();
    b.prod("T", &["T", "*", "F"]);
    b.prod("T", &["T", "/", "F"]);
    b.prod("T", &["F"]).passthrough();
    b.prod("F", &["(", "E", ")"]);
    b.prod("F", &["-", "F"]);
    b.prod("F", &["id"]).passthrough();
    b.prod("F", &["num"]).passthrough();
    b.build().expect("the statement grammar builds")
}

#[test]
fn one_grammar_built_twice_gives_identical_tables() {
    let (a, b) = (statement_grammar(), statement_grammar());
    assert!(a.num_states() > 30, "{a:?}");
    assert_eq!(a.num_states(), b.num_states());
    let nts = nonterminals(&a);
    for state in 0..a.num_states() {
        for t in (0..a.num_terminals()).map(SymbolId) {
            assert_eq!(a.action(state, t), b.action(state, t), "state {state}");
        }
        for &nt in &nts {
            assert_eq!(a.goto(state, nt), b.goto(state, nt), "state {state}");
        }
    }
    let conflicts = |g: &Grammar| -> Vec<(u32, String, String)> {
        g.conflicts()
            .iter()
            .map(|c| (c.state, c.terminal.clone(), c.resolution.clone()))
            .collect()
    };
    assert_eq!(conflicts(&a), conflicts(&b));
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

/// The pinned value was taken from the tables of the spontaneous/
/// propagation lookahead generator that the DeRemer–Pennello one
/// replaced, so the two agree entry for entry. A deliberate change to
/// the C grammar re-pins it.
#[test]
fn c_grammar_tables_match_the_pinned_fingerprint() {
    let g = c_grammar();
    assert_eq!(g.num_states(), 518, "{g:?}");
    let conflicts: Vec<(&str, &str)> = g
        .conflicts()
        .iter()
        .map(|c| (c.terminal.as_str(), c.resolution.as_str()))
        .collect();
    assert_eq!(
        conflicts,
        [(
            "else",
            "shift/reduce with production 258: resolved as shift"
        )],
        "the C grammar's only conflict is the dangling else"
    );
    assert_eq!(
        fingerprint(g),
        0x8d90_337d_359a_4d0b,
        "fingerprint {:#018x}",
        fingerprint(g)
    );
}
