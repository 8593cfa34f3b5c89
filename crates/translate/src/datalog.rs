//! Datalog translation: the [`gmark_core::datalog::Program`] the in-repo
//! `D` engine evaluates, rendered as text, with the `ans` bodies in
//! declaration order (`D` joins them in its plan's order). Names: the EDB
//! is `node(X)` and `edge_<label>(X, Y)` (`edge_<label>(Y, X)` for an
//! inverse symbol), IDB predicate `i` is `p<i>`, an auxiliary rule ranges
//! over `X`, `Y`, `Z` and the path intermediates `Z1`, `Z2`, …, and an
//! `ans` rule over the query's variables `X<n>`.

use crate::TranslateError;
use gmark_core::datalog::{Atom, Head, Pred, Program};
use gmark_core::query::{Query, Var};
use gmark_core::schema::Schema;
use std::fmt::Write;

/// Translates a UCRPQ into a Datalog program with answer predicate `ans`.
///
/// Fails with [`TranslateError::UnboundHeadVar`] on a head variable that no
/// conjunct binds: the rule would not be range-restricted.
pub fn translate(query: &Query, schema: &Schema) -> Result<String, TranslateError> {
    let declared = query.rules.iter().map(|r| 0..r.body.len());
    let program = Program::from_query(query, declared)
        .map_err(|v| TranslateError::UnboundHeadVar { var: v.0 })?;
    let mut out = String::new();
    for rule in &program.rules {
        let var = |v: Var| match (rule.head, v.0) {
            (Head::Ans, n) => format!("X{n}"),
            (_, 0) => "X".to_owned(),
            (_, 1) => "Y".to_owned(),
            (_, 2) => "Z".to_owned(),
            (_, n) => format!("Z{}", n - 2),
        };
        let atom = |a: &Atom| match a.pred {
            Pred::Node => format!("node({})", var(a.src)),
            Pred::Edge(s) => {
                let (from, to) = if s.inverse {
                    (a.trg, a.src)
                } else {
                    (a.src, a.trg)
                };
                let name = schema.predicate_name(s.predicate);
                format!("edge_{name}({}, {})", var(from), var(to))
            }
            Pred::Idb(p) => format!("p{p}({}, {})", var(a.src), var(a.trg)),
        };
        let head = match rule.head {
            Head::Idb(p) => format!("p{p}"),
            Head::Ans => "ans".to_owned(),
        };
        let args: Vec<String> = rule.args.iter().map(|&v| var(v)).collect();
        let body: Vec<String> = rule.body.iter().map(atom).collect();
        let _ = writeln!(out, "{head}({}) :- {}.", args.join(", "), body.join(", "));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmark_core::query::{Conjunct, PathExpr, RegularExpr, Rule, Symbol};
    use gmark_core::schema::{Occurrence, PredicateId, SchemaBuilder};

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new();
        b.node_type("t", Occurrence::Proportion(1.0));
        b.predicate("a", None);
        b.predicate("b", None);
        b.build().unwrap()
    }

    fn sym(i: usize) -> Symbol {
        Symbol::forward(PredicateId(i))
    }

    /// The text of `head <- (?x0, expr, ?x1)`.
    fn text(head: Vec<Var>, expr: RegularExpr) -> String {
        let q = Query::single(Rule {
            head,
            body: vec![Conjunct {
                src: Var(0),
                expr,
                trg: Var(1),
            }],
        })
        .unwrap();
        translate(&q, &schema()).unwrap()
    }

    fn binary(expr: RegularExpr) -> String {
        text(vec![Var(0), Var(1)], expr)
    }

    #[test]
    fn single_edge_gets_its_own_predicate() {
        let s = binary(RegularExpr::symbol(sym(0)));
        assert_eq!(s, "p0(X, Y) :- edge_a(X, Y).\nans(X0, X1) :- p0(X0, X1).\n");
    }

    #[test]
    fn inverse_swaps_arguments() {
        let s = binary(RegularExpr::symbol(sym(1).flipped()));
        assert_eq!(s, "p0(X, Y) :- edge_b(Y, X).\nans(X0, X1) :- p0(X0, X1).\n");
    }

    #[test]
    fn concatenation_chains_variables() {
        let s = binary(RegularExpr::path(PathExpr(vec![sym(0), sym(1)])));
        assert!(
            s.contains("p0(X, Y) :- edge_a(X, Z1), edge_b(Z1, Y)."),
            "{s}"
        );
        assert!(s.contains("ans(X0, X1) :- p0(X0, X1)."), "{s}");
    }

    #[test]
    fn disjunction_multiplies_rules() {
        let s = binary(RegularExpr::union(vec![
            PathExpr(vec![sym(0)]),
            PathExpr(vec![sym(1)]),
        ]));
        assert!(s.contains("p0(X, Y) :- edge_a(X, Y)."), "{s}");
        assert!(s.contains("p0(X, Y) :- edge_b(X, Y)."), "{s}");
    }

    #[test]
    fn star_emits_linear_recursion() {
        let s = binary(RegularExpr::star(vec![PathExpr(vec![sym(0), sym(1)])]));
        let expected = "p1(X, Y) :- edge_a(X, Z1), edge_b(Z1, Y).\n\
                        p0(X, X) :- node(X).\n\
                        p0(X, Y) :- p0(X, Z), p1(Z, Y).\n\
                        ans(X0, X1) :- p0(X0, X1).\n";
        assert_eq!(s, expected);
    }

    #[test]
    fn epsilon_path() {
        let s = binary(RegularExpr::path(PathExpr::epsilon()));
        assert!(s.contains("p0(X, X) :- node(X)."), "{s}");
    }

    #[test]
    fn boolean_head() {
        let s = text(vec![], RegularExpr::symbol(sym(0)));
        assert!(s.contains("ans() :- p0(X0, X1)."), "{s}");
    }

    #[test]
    fn multi_rule_union_shares_ans() {
        let mk = |p: usize| Rule {
            head: vec![Var(0), Var(1)],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::symbol(sym(p)),
                trg: Var(1),
            }],
        };
        let q = Query::new(vec![mk(0), mk(1)]).unwrap();
        let s = translate(&q, &schema()).unwrap();
        assert!(s.contains("ans(X0, X1) :- p0(X0, X1)."), "{s}");
        assert!(s.contains("ans(X0, X1) :- p1(X0, X1)."), "{s}");
        assert!(s.contains("p1(X, Y) :- edge_b(X, Y)."), "{s}");
    }

    #[test]
    fn an_unbound_head_variable_is_an_error_not_an_unsafe_rule() {
        // Hand-built, bypassing `Query::new`'s safety check.
        let q = Query {
            rules: vec![Rule {
                head: vec![Var(0), Var(7)],
                body: vec![Conjunct {
                    src: Var(0),
                    expr: RegularExpr::symbol(sym(0)),
                    trg: Var(1),
                }],
            }],
        };
        let err = translate(&q, &schema()).unwrap_err();
        assert_eq!(err, TranslateError::UnboundHeadVar { var: 7 });
    }
}
