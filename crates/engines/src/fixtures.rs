//! The graphs and query builders the crate's unit tests share.

use gmark_core::query::{Conjunct, Query, RegularExpr, Rule, Symbol, Var};
use gmark_core::schema::PredicateId;
use gmark_store::{Csr, EdgeSink, Graph, GraphBuilder, NodeId, TypePartition};

/// The pairs of a relation, in source order.
pub(crate) fn pairs(r: &Csr) -> Vec<(NodeId, NodeId)> {
    r.iter_edges().collect()
}

/// The forward symbol of predicate `i` (`0` = `a`, `1` = `b`).
pub(crate) fn sym(i: usize) -> Symbol {
    Symbol::forward(PredicateId(i))
}

fn build(nodes: u64, a: &[(NodeId, NodeId)], b: &[(NodeId, NodeId)]) -> Graph {
    let mut builder = GraphBuilder::new(TypePartition::from_counts(&[nodes]), 2);
    for (pred, edges) in [a, b].into_iter().enumerate() {
        for &(s, t) in edges {
            builder.edge(s, pred, t);
        }
    }
    builder.build()
}

/// Four nodes — a: 0→1, 1→2, 2→0 (a 3-cycle), 3→1; b: 1→3, 2→3.
pub(crate) fn graph4() -> Graph {
    build(4, &[(0, 1), (1, 2), (2, 0), (3, 1)], &[(1, 3), (2, 3)])
}

/// [`graph4`] plus a fifth node — a: 4→2; b: 0→4.
pub(crate) fn graph5() -> Graph {
    build(
        5,
        &[(0, 1), (1, 2), (2, 0), (3, 1), (4, 2)],
        &[(1, 3), (2, 3), (0, 4)],
    )
}

/// The chain query `(?x0, e0, ?x1), …, (?x{n-1}, e{n-1}, ?xn)` projected on
/// its two ends.
pub(crate) fn chain(exprs: Vec<RegularExpr>) -> Query {
    let n = exprs.len() as u32;
    Query::single(Rule {
        head: vec![Var(0), Var(n)],
        body: exprs
            .into_iter()
            .enumerate()
            .map(|(i, expr)| Conjunct {
                src: Var(i as u32),
                expr,
                trg: Var(i as u32 + 1),
            })
            .collect(),
    })
    .unwrap()
}
