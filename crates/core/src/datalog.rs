//! Datalog's view of a query: the program, as data.
//!
//! UCRPQs are "expressible in modern Datalog-like query languages"
//! (Section 2), by the classical translation. [`Program::from_query`] makes
//! it once: `gmark_translate::datalog` renders the program as text and the
//! `D` engine evaluates it, so `workload.datalog` is the program `D` runs.
//! Over the EDB `node(X)` and `edge_<label>(X, Y)`, every conjunct gets its
//! own IDB predicate, a single symbol included: one rule per disjunct path
//! chaining fresh variables (`ε` is `p(X, X) :- node(X)`), and under a star
//! those rules define a step predicate for the linear recursion
//! `p(X, X) :- node(X). p(X, Y) :- p(X, Z), step(Z, Y).` Each query rule
//! becomes one `ans` rule over its conjuncts' predicates. IDB rules range
//! over `X` = `Var(0)`, `Y` = `Var(1)`, `Z` = `Var(2)` and path
//! intermediates `Var(2 + i)`; `ans` rules over the query's variables.

use crate::query::{PathExpr, Query, RegularExpr, Symbol, Var};

/// What a body atom ranges over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pred {
    /// `node(X)`: the identity relation.
    Node,
    /// `edge_<p>(X, Y)`, or `edge_<p>(Y, X)` for an inverse symbol.
    Edge(Symbol),
    /// The `i`-th derived binary predicate.
    Idb(usize),
}

/// A body atom `pred(src, trg)`; `node(X)` is `(Node, X, X)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Atom {
    /// The predicate.
    pub pred: Pred,
    /// The first argument.
    pub src: Var,
    /// The second argument.
    pub trg: Var,
}

/// The atom `pred(src, trg)`.
pub fn atom(pred: Pred, src: Var, trg: Var) -> Atom {
    Atom { pred, src, trg }
}

/// What a rule derives: a binary IDB predicate, or `ans` — the only
/// predicate wider (or narrower) than two, which never occurs in a body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    /// The `i`-th derived binary predicate.
    Idb(usize),
    /// The answer predicate.
    Ans,
}

/// A Datalog rule `head(args) :- body`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DlRule {
    /// The derived predicate.
    pub head: Head,
    /// The head's arguments.
    pub args: Vec<Var>,
    /// The body, joined left to right by `D`.
    pub body: Vec<Atom>,
}

/// A positive Datalog program over `idb` binary IDB predicates and `ans`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// The number of IDB predicates.
    pub idb: usize,
    /// The rules, in the order `D` applies them.
    pub rules: Vec<DlRule>,
}

const X: Var = Var(0);
const Y: Var = Var(1);
const Z: Var = Var(2);

impl Program {
    /// A fresh binary IDB predicate.
    pub fn predicate(&mut self) -> usize {
        self.idb += 1;
        self.idb - 1
    }

    /// Adds `head(x, y) :- body`.
    pub fn rule(&mut self, head: usize, (x, y): (Var, Var), body: Vec<Atom>) {
        self.rules.push(DlRule {
            head: Head::Idb(head),
            args: vec![x, y],
            body,
        });
    }

    /// The translation of the module docs. `orders` gives, per query rule,
    /// the conjunct indices in the order its `ans` body joins them — the
    /// declaration order for the text, the plan's order for `D`; the
    /// conjuncts' own rules always follow declaration order. Fails with the
    /// first head variable no body conjunct binds: such a rule is not
    /// range-restricted.
    pub fn from_query<O>(query: &Query, orders: O) -> Result<Program, Var>
    where
        O: IntoIterator,
        O::Item: IntoIterator<Item = usize>,
    {
        let mut prog = Program::default();
        for (rule, order) in query.rules.iter().zip(orders) {
            let bound = rule.body_vars();
            if let Some(&unbound) = rule.head.iter().find(|v| !bound.contains(v)) {
                return Err(unbound);
            }
            let preds: Vec<usize> = rule.body.iter().map(|c| prog.expr_pred(&c.expr)).collect();
            let conjunct = |i: usize| {
                let c = &rule.body[i];
                atom(Pred::Idb(preds[i]), c.src, c.trg)
            };
            prog.rules.push(DlRule {
                head: Head::Ans,
                args: rule.head.clone(),
                body: order.into_iter().map(conjunct).collect(),
            });
        }
        Ok(prog)
    }

    /// `head(X, Y)` as one path expression.
    fn path_rule(&mut self, head: usize, path: &PathExpr) {
        if path.is_empty() {
            return self.rule(head, (X, X), vec![atom(Pred::Node, X, X)]);
        }
        let hop = |i: usize| match i {
            0 => X,
            i if i == path.len() => Y,
            i => Var(i as u32 + 2),
        };
        let edge = |(i, sym): (usize, &Symbol)| atom(Pred::Edge(*sym), hop(i), hop(i + 1));
        let body = path.0.iter().enumerate().map(edge).collect();
        self.rule(head, (X, Y), body);
    }

    /// The predicate of one conjunct's expression.
    fn expr_pred(&mut self, expr: &RegularExpr) -> usize {
        let pred = self.predicate();
        if !expr.starred {
            for d in &expr.disjuncts {
                self.path_rule(pred, d);
            }
            return pred;
        }
        let step = self.predicate();
        for d in &expr.disjuncts {
            self.path_rule(step, d);
        }
        self.rule(pred, (X, X), vec![atom(Pred::Node, X, X)]);
        let closure = vec![atom(Pred::Idb(pred), X, Z), atom(Pred::Idb(step), Z, Y)];
        self.rule(pred, (X, Y), closure);
        pred
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Conjunct, Rule};
    use crate::schema::PredicateId;

    fn sym(i: usize) -> Symbol {
        Symbol::forward(PredicateId(i))
    }

    fn edge(i: usize, src: Var, trg: Var) -> Atom {
        atom(Pred::Edge(sym(i)), src, trg)
    }

    fn idb(head: usize, args: Vec<Var>, body: Vec<Atom>) -> DlRule {
        DlRule {
            head: Head::Idb(head),
            args,
            body,
        }
    }

    fn ans(args: Vec<Var>, body: Vec<Atom>) -> DlRule {
        DlRule {
            head: Head::Ans,
            args,
            body,
        }
    }

    /// `head <- (?x0, e0, ?x1), (?x1, e1, ?x2), …`.
    fn chain(head: Vec<Var>, exprs: Vec<RegularExpr>) -> Query {
        let body = exprs.into_iter().enumerate().map(|(i, expr)| Conjunct {
            src: Var(i as u32),
            expr,
            trg: Var(i as u32 + 1),
        });
        Query {
            rules: vec![Rule {
                head,
                body: body.collect(),
            }],
        }
    }

    fn declared(q: &Query) -> Program {
        Program::from_query(q, q.rules.iter().map(|r| 0..r.body.len())).unwrap()
    }

    #[test]
    fn star_emits_linear_recursion() {
        let q = chain(
            vec![X, Y],
            vec![RegularExpr::star(vec![PathExpr(vec![sym(0), sym(1)])])],
        );
        let prog = declared(&q);
        assert_eq!(prog.idb, 2);
        let (z1, x0, x1) = (Var(3), Var(0), Var(1));
        let rules = [
            idb(1, vec![X, Y], vec![edge(0, X, z1), edge(1, z1, Y)]),
            idb(0, vec![X, X], vec![atom(Pred::Node, X, X)]),
            idb(
                0,
                vec![X, Y],
                vec![atom(Pred::Idb(0), X, Z), atom(Pred::Idb(1), Z, Y)],
            ),
            ans(vec![x0, x1], vec![atom(Pred::Idb(0), x0, x1)]),
        ];
        assert_eq!(prog.rules, rules);
    }

    #[test]
    fn epsilon_path() {
        let q = chain(vec![X], vec![RegularExpr::path(PathExpr::epsilon())]);
        let prog = declared(&q);
        let rules = [
            idb(0, vec![X, X], vec![atom(Pred::Node, X, X)]),
            ans(vec![X], vec![atom(Pred::Idb(0), X, Y)]),
        ];
        assert_eq!(prog.rules, rules);
    }

    #[test]
    fn boolean_head() {
        let prog = declared(&chain(vec![], vec![RegularExpr::symbol(sym(0))]));
        let rules = [
            idb(0, vec![X, Y], vec![edge(0, X, Y)]),
            ans(vec![], vec![atom(Pred::Idb(0), X, Y)]),
        ];
        assert_eq!(prog.rules, rules);
    }

    #[test]
    fn the_order_argument_orders_only_the_ans_body() {
        let exprs = vec![RegularExpr::symbol(sym(0)), RegularExpr::symbol(sym(1))];
        let q = chain(vec![Var(0), Var(2)], exprs);
        let prog = Program::from_query(&q, [[1, 0]]).unwrap();
        assert_eq!(prog.rules[..2], declared(&q).rules[..2]);
        let body = [atom(Pred::Idb(1), Var(1), Var(2)), atom(Pred::Idb(0), X, Y)];
        assert_eq!(prog.rules[2], ans(vec![Var(0), Var(2)], body.to_vec()));
    }

    #[test]
    fn an_unbound_head_variable_is_refused() {
        // Hand-built: `Query::new` would refuse this rule itself.
        let q = chain(vec![Var(0), Var(7)], vec![RegularExpr::symbol(sym(0))]);
        assert_eq!(Program::from_query(&q, [[0]]), Err(Var(7)));
    }
}
