//! An LALR(1) parser-table generator with AST-building annotations.
//!
//! SuperC drives its Fork-Merge LR parser with ordinary LALR parser tables
//! produced by Bison (§5): reusing existing LR technology is one of the
//! paper's selling points over parser-combinator approaches. This crate is
//! the Bison substitute: a grammar builder, LR(0) automaton construction,
//! LALR(1) lookahead computation by DeRemer and Pennello's method (the
//! `reads` and `includes` relations over nonterminal transitions, each
//! closed by a digraph/SCC pass, as in Bison), and dense action/goto
//! tables with precedence-based conflict resolution. State numbers are
//! deterministic: the same grammar always yields the same tables.
//!
//! It also carries SuperC's grammar *annotations* (§5.1) that drive AST
//! construction in the parser engine without hand-written semantic
//! actions: `layout`, `passthrough`, `list`, plus the `complete` marking
//! that controls where subparsers may merge.
//!
//! # Examples
//!
//! ```
//! use superc_grammar::{Assoc, GrammarBuilder};
//!
//! let mut g = GrammarBuilder::new("Expr");
//! g.terminals(&["NUM", "+", "*", "(", ")"]);
//! g.prec(Assoc::Left, 1, &["+"]);
//! g.prec(Assoc::Left, 2, &["*"]);
//! g.prod("Expr", &["Expr", "+", "Expr"]);
//! g.prod("Expr", &["Expr", "*", "Expr"]);
//! g.prod("Expr", &["(", "Expr", ")"]).passthrough();
//! g.prod("Expr", &["NUM"]).passthrough();
//! let grammar = g.build().unwrap();
//! assert!(grammar.conflicts().is_empty());
//! ```

mod builder;
mod lalr;
mod table;

pub use builder::{Assoc, AstBuild, GrammarBuilder, GrammarError, ProdBuilder, Production};
pub use table::{tables_built, Action, Conflict, Grammar, ParseTables, SymbolId};

#[cfg(test)]
mod tests;
