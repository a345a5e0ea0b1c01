//! AST queries used by downstream tools and the examples: declared
//! names with their presence conditions, function definitions, and
//! per-configuration unparsing.
//!
//! The AST is a DAG whose choice alternatives share subtrees (see
//! `superc_fmlr`'s `semval` module). [`declared_names`] walks it with
//! [`SemVal::visit_pruned`], so it costs the distinct nodes plus its
//! output, not the unfolded tree. The per-declaration helpers
//! (specifier text, declarator shape) and [`unparse_config`] produce
//! text of the unfolded subtree they render, so their cost is their
//! output's.

use std::rc::Rc;

use superc_cond::{Cond, CondCtx};
use superc_cpp::PTok;
use superc_fmlr::SemVal;
use superc_lexer::SourcePos;

/// A name declared somewhere in a compilation unit, with the presence
/// condition under which the declaration exists.
#[derive(Clone, Debug)]
pub struct DeclaredName {
    /// The declared identifier.
    pub name: Rc<str>,
    /// The production kind that declared it (`Declaration`,
    /// `FunctionDefinition`, `Enumerator`, ...).
    pub kind: Rc<str>,
    /// Presence condition (`None` = present in every configuration).
    pub cond: Option<Cond>,
    /// Source position of the identifier token (`None` only for exotic
    /// declarator shapes where no single token names the declaration).
    pub pos: Option<SourcePos>,
    /// Flattened declaration-specifier text (`static const int`), empty
    /// for enumerators. Choice alternatives flatten in order, so two
    /// declarations only compare equal when their specifiers agree in
    /// every configuration.
    pub specifiers: String,
    /// The declarator's shape with the declared identifier replaced by
    /// `$`: `$` for a plain variable, `* $` for a pointer,
    /// `$ [ 4 ]` for an array, `( * $ ) ( void )` for a function pointer.
    pub shape: String,
}

/// The identifier token naming a (possibly nested or parenthesized)
/// declarator, searching `Declarator`/`DirectDeclarator`/`InitDeclarator`/
/// `StructDeclarator` shapes and descending into static choices (first
/// alternative with a name wins). `None` for abstract declarators and
/// unnamed bit-fields, which declare nothing.
pub fn first_declarator_tok(v: &SemVal) -> Option<&PTok> {
    match v {
        SemVal::Node(n) => match &*n.kind {
            "DirectDeclarator" => match n.children.first() {
                Some(SemVal::Tok(t)) if t.tok.is_ident() => Some(t),
                Some(first) => {
                    if first.as_token().map(|t| t.text()) == Some("(") {
                        n.children.get(1).and_then(first_declarator_tok)
                    } else {
                        first_declarator_tok(first)
                    }
                }
                None => None,
            },
            "Declarator" => n.children.last().and_then(first_declarator_tok),
            "InitDeclarator" | "StructDeclarator" => {
                // The declarator is the first *named* child: unnamed
                // bit-fields (`int : 4;`) start with the `:` token.
                n.children.iter().find_map(first_declarator_tok)
            }
            // Parenthesized declarators reduce through grouping helpers in
            // some grammar layerings; scan children rather than dropping.
            "ParameterDeclaration" | "TypeName" => None,
            _ => None,
        },
        // A conditional declarator (`x` under A, `y` otherwise): report
        // the first alternative's name; callers needing all alternatives
        // walk the choice themselves.
        SemVal::Choice(alts) => alts.iter().find_map(|(_, alt)| first_declarator_tok(alt)),
        _ => None,
    }
}

/// Like [`first_declarator_tok`], but returns just the name.
pub fn first_declarator_ident(v: &SemVal) -> Option<Rc<str>> {
    first_declarator_tok(v).map(|t| t.tok.text.clone())
}

/// Flattens every token in `v` into `out`, space-separated, descending
/// into all choice alternatives in order.
fn flatten_tokens(v: &SemVal, out: &mut String) {
    match v {
        SemVal::Tok(t) => {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(t.text());
        }
        SemVal::Node(n) => {
            for c in &n.children {
                flatten_tokens(c, out);
            }
        }
        SemVal::Choice(alts) => {
            for (_, alt) in alts.iter() {
                flatten_tokens(alt, out);
            }
        }
        SemVal::Empty => {}
    }
}

/// Renders a declarator's shape: its token text with the token at
/// `name_pos` replaced by `$`. For an `InitDeclarator`, the initializer
/// is omitted — the shape describes only the declared object.
fn declarator_shape(v: &SemVal, name_pos: Option<SourcePos>) -> String {
    fn go(v: &SemVal, name_pos: Option<SourcePos>, out: &mut String) {
        match v {
            SemVal::Tok(t) => {
                if !out.is_empty() {
                    out.push(' ');
                }
                if Some(t.tok.pos) == name_pos {
                    out.push('$');
                } else {
                    out.push_str(t.text());
                }
            }
            SemVal::Node(n) => {
                let kids: &[SemVal] = if &*n.kind == "InitDeclarator" {
                    &n.children[..1.min(n.children.len())]
                } else {
                    &n.children
                };
                for c in kids {
                    go(c, name_pos, out);
                }
            }
            SemVal::Choice(alts) => {
                for (_, alt) in alts.iter() {
                    go(alt, name_pos, out);
                }
            }
            SemVal::Empty => {}
        }
    }
    let mut out = String::new();
    go(v, name_pos, &mut out);
    out
}

/// Collects every top-level declared name (declarations, function
/// definitions, enumerators) with its presence condition.
///
/// A declaration reached by several paths through the shared AST yields
/// one name per path, each under its own condition. Whether a node
/// declares anything does not depend on the condition, so the walk
/// skips every revisit of a shared subtree that declared nothing (see
/// [`SemVal::visit_pruned`]).
pub fn declared_names(ast: &SemVal) -> Vec<DeclaredName> {
    let mut out = Vec::new();
    ast.visit_pruned(&mut |n, cond| {
        let before = out.len();
        let grab = |decl: Option<&SemVal>, specs: Option<&SemVal>, out: &mut Vec<DeclaredName>| {
            let mut specifiers = String::new();
            if let Some(s) = specs {
                flatten_tokens(s, &mut specifiers);
            }
            let mut stack: Vec<(&SemVal, Option<&Cond>)> =
                decl.into_iter().map(|v| (v, cond)).collect();
            while let Some((v, vc)) = stack.pop() {
                match v {
                    SemVal::Node(m) if &*m.kind == "InitDeclaratorList" => {
                        stack.extend(m.children.iter().map(|ch| (ch, vc)));
                    }
                    // Like `SemVal::visit`, an alternative's condition is
                    // absolute and replaces the enclosing one.
                    SemVal::Choice(alts) => {
                        stack.extend(alts.iter().map(|(c, v)| (v, Some(c))));
                    }
                    other => {
                        if let Some(t) = first_declarator_tok(other) {
                            let pos = Some(t.tok.pos);
                            out.push(DeclaredName {
                                name: t.tok.text.clone(),
                                kind: n.kind.clone(),
                                cond: vc.cloned(),
                                pos,
                                specifiers: specifiers.clone(),
                                shape: declarator_shape(other, pos),
                            });
                        }
                    }
                }
            }
        };
        match &*n.kind {
            "Declaration" | "FunctionDefinition" => {
                grab(n.children.get(1), n.children.first(), &mut out)
            }
            "Enumerator" => {
                if let Some(t) = n.children.first().and_then(SemVal::as_token) {
                    out.push(DeclaredName {
                        name: t.tok.text.clone(),
                        kind: n.kind.clone(),
                        cond: cond.cloned(),
                        pos: Some(t.tok.pos),
                        specifiers: String::new(),
                        shape: "$".to_string(),
                    });
                }
            }
            _ => {}
        }
        out.len() > before
    });
    out
}

/// Returns `(function name, presence condition)` for every function
/// definition in the unit.
pub fn function_definitions(ast: &SemVal) -> Vec<(Rc<str>, Option<Cond>)> {
    declared_names(ast)
        .into_iter()
        .filter(|d| &*d.kind == "FunctionDefinition")
        .map(|d| (d.name, d.cond))
        .collect()
}

/// Renders the single-configuration token text selected by `config`
/// (a variable assignment; unset variables are `false`), like running an
/// ordinary preprocessor would have.
pub fn unparse_config(
    ast: &SemVal,
    _ctx: &CondCtx,
    config: &dyn Fn(&str) -> Option<bool>,
) -> String {
    let mut out = String::new();
    fn go(v: &SemVal, out: &mut String, config: &dyn Fn(&str) -> Option<bool>) {
        match v {
            SemVal::Tok(t) => {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(t.text());
            }
            SemVal::Node(n) => {
                for c in &n.children {
                    go(c, out, config);
                }
            }
            SemVal::Choice(alts) => {
                for (c, alt) in alts.iter() {
                    if c.eval(|name| config(name)) {
                        go(alt, out, config);
                        return;
                    }
                }
            }
            SemVal::Empty => {}
        }
    }
    go(ast, &mut out, config);
    out
}
