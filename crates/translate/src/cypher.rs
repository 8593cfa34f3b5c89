//! openCypher translation.
//!
//! openCypher's pattern language is strictly weaker than UCRPQ
//! (Section 7.1): variable-length relationship patterns (`[:a*0..]`)
//! support neither inverse traversal nor concatenations. The paper degrades
//! such queries — "the corresponding openCypher query has only the
//! non-inverse symbol and/or the first symbol in a concatenation of
//! symbols, respectively". This writer prints the query
//! [`gmark_core::cypher::degrade`] leaves — the one the in-repo `G` engine
//! evaluates — and one `// LOSSY:` comment per loss it reports, so
//! benchmark harnesses can detect approximated queries (the reason system
//! `G` "often has answer sets that differ from … the other languages").
//!
//! Non-starred conjuncts translate faithfully: concatenations become paths
//! through anonymous nodes, single-symbol disjunctions become relationship
//! alternations `[:a|b]`, and multi-path disjunctions expand into a
//! `UNION` over the (capped) cross product of disjunct choices.

use gmark_core::cypher::degrade;
use gmark_core::query::{PathExpr, Query, RegularExpr, Rule, Symbol};
use gmark_core::schema::Schema;
use std::fmt::Write;

/// Upper bound on the disjunct cross-product expansion; beyond it, the
/// translator keeps the first disjunct and flags the loss.
const MAX_EXPANSION: usize = 64;

/// Translates a UCRPQ into openCypher.
pub fn translate(query: &Query, schema: &Schema) -> String {
    let (degraded, lost) = degrade(query);
    let mut notes = Vec::new();
    let mut blocks = Vec::new();
    for (r, rule) in degraded.rules.iter().enumerate() {
        let star_losses = lost.losses.iter().filter(|(at, _)| *at == r);
        notes.extend(star_losses.map(|(_, loss)| loss.to_string()));
        blocks.extend(rule_blocks(rule, schema, &mut notes));
    }
    let mut out = String::new();
    for n in &notes {
        let _ = writeln!(out, "// LOSSY: {n}");
    }
    out.push_str(&blocks.join("UNION\n"));
    out
}

/// One rule may expand into several `MATCH … RETURN` blocks (disjunction
/// expansion); each block is a complete query, joined by `UNION`.
fn rule_blocks(rule: &Rule, schema: &Schema, notes: &mut Vec<String>) -> Vec<String> {
    // Per conjunct: list of pattern alternatives.
    let mut per_conjunct: Vec<Vec<String>> = Vec::with_capacity(rule.body.len());
    for c in &rule.body {
        per_conjunct.push(conjunct_patterns(c.src.0, &c.expr, c.trg.0, schema));
    }
    // Cross product of alternatives, capped.
    let mut combos: Vec<Vec<usize>> = vec![Vec::new()];
    for alts in &per_conjunct {
        let mut next = Vec::new();
        for combo in &combos {
            for i in 0..alts.len() {
                if next.len() >= MAX_EXPANSION {
                    break;
                }
                let mut c2 = combo.clone();
                c2.push(i);
                next.push(c2);
            }
        }
        if combos.len() * alts.len() > MAX_EXPANSION {
            notes.push(format!(
                "disjunction expansion capped at {MAX_EXPANSION} combinations"
            ));
        }
        combos = next;
    }
    let ret = if rule.head.is_empty() {
        "RETURN DISTINCT true AS result".to_owned()
    } else {
        let vars: Vec<String> = rule.head.iter().map(|v| format!("x{}", v.0)).collect();
        format!("RETURN DISTINCT {}", vars.join(", "))
    };
    combos
        .into_iter()
        .map(|combo| {
            let mut block = String::new();
            for (ci, alt) in combo.iter().enumerate() {
                let _ = writeln!(block, "MATCH {}", per_conjunct[ci][*alt]);
            }
            let _ = writeln!(block, "{ret}");
            block
        })
        .collect()
}

/// Pattern alternatives for one conjunct of a degraded query. A degraded
/// star holds distinct forward symbols — or the lone ε, `*0..0` — and, like
/// a disjunction of several forward symbols, becomes one alternation.
fn conjunct_patterns(src: u32, expr: &RegularExpr, trg: u32, schema: &Schema) -> Vec<String> {
    let single_forward = expr
        .disjuncts
        .iter()
        .all(|p| p.len() == 1 && !p.0[0].inverse);
    if single_forward && (expr.starred || expr.disjuncts.len() > 1) {
        let labels: Vec<&str> = expr
            .symbols()
            .map(|s| schema.predicate_name(s.predicate))
            .collect();
        let star = if expr.starred { "*0.." } else { "" };
        return vec![format!("(x{src})-[:{}{star}]->(x{trg})", labels.join("|"))];
    }
    expr.disjuncts
        .iter()
        .map(|p| path_pattern(src, p, trg, schema))
        .collect()
}

/// A concatenation as a path through anonymous nodes.
fn path_pattern(src: u32, p: &PathExpr, trg: u32, schema: &Schema) -> String {
    if p.is_empty() {
        return format!("(x{src})-[*0..0]->(x{trg})");
    }
    let mut out = format!("(x{src})");
    for (i, s) in p.0.iter().enumerate() {
        let node = if i + 1 == p.len() {
            format!("(x{trg})")
        } else {
            "()".to_owned()
        };
        out.push_str(&segment(*s, schema));
        out.push_str(&node);
    }
    out
}

fn segment(s: Symbol, schema: &Schema) -> String {
    let name = schema.predicate_name(s.predicate);
    if s.inverse {
        format!("<-[:{name}]-")
    } else {
        format!("-[:{name}]->")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmark_core::query::{Conjunct, Var};
    use gmark_core::schema::{Occurrence, PredicateId, SchemaBuilder};

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new();
        b.node_type("t", Occurrence::Proportion(1.0));
        b.predicate("a", None);
        b.predicate("b", None);
        b.predicate("c", None);
        b.build().unwrap()
    }

    fn sym(i: usize) -> Symbol {
        Symbol::forward(PredicateId(i))
    }

    fn single(expr: RegularExpr) -> Query {
        Query::single(Rule {
            head: vec![Var(0), Var(1)],
            body: vec![Conjunct {
                src: Var(0),
                expr,
                trg: Var(1),
            }],
        })
        .unwrap()
    }

    #[test]
    fn simple_edge() {
        let s = translate(&single(RegularExpr::symbol(sym(0))), &schema());
        assert!(s.contains("MATCH (x0)-[:a]->(x1)"), "{s}");
        assert!(s.contains("RETURN DISTINCT x0, x1"), "{s}");
    }

    #[test]
    fn inverse_edge() {
        let s = translate(&single(RegularExpr::symbol(sym(1).flipped())), &schema());
        assert!(s.contains("MATCH (x0)<-[:b]-(x1)"), "{s}");
    }

    #[test]
    fn concatenation_through_anonymous_nodes() {
        let s = translate(
            &single(RegularExpr::path(PathExpr(vec![
                sym(0),
                sym(1).flipped(),
                sym(2),
            ]))),
            &schema(),
        );
        assert!(s.contains("MATCH (x0)-[:a]->()<-[:b]-()-[:c]->(x1)"), "{s}");
    }

    #[test]
    fn single_symbol_alternation() {
        let s = translate(
            &single(RegularExpr::union(vec![
                PathExpr(vec![sym(0)]),
                PathExpr(vec![sym(1)]),
            ])),
            &schema(),
        );
        assert!(s.contains("MATCH (x0)-[:a|b]->(x1)"), "{s}");
        assert!(!s.contains("UNION"), "{s}");
    }

    #[test]
    fn multi_path_disjunction_expands_to_union() {
        let s = translate(
            &single(RegularExpr::union(vec![
                PathExpr(vec![sym(0), sym(1)]),
                PathExpr(vec![sym(2)]),
            ])),
            &schema(),
        );
        assert!(s.contains("UNION"), "{s}");
        assert!(s.contains("(x0)-[:a]->()-[:b]->(x1)"), "{s}");
        assert!(s.contains("(x0)-[:c]->(x1)"), "{s}");
    }

    #[test]
    fn star_of_single_symbol() {
        let s = translate(
            &single(RegularExpr::star(vec![PathExpr(vec![sym(0)])])),
            &schema(),
        );
        assert!(s.contains("MATCH (x0)-[:a*0..]->(x1)"), "{s}");
        assert!(!s.contains("LOSSY"), "{s}");
    }

    #[test]
    fn star_with_concatenation_is_lossy() {
        // (a·b)* degrades to a*, per Section 7.1.
        let s = translate(
            &single(RegularExpr::star(vec![PathExpr(vec![sym(0), sym(1)])])),
            &schema(),
        );
        assert!(s.contains("// LOSSY: concatenation"), "{s}");
        assert!(s.contains("(x0)-[:a*0..]->(x1)"), "{s}");
    }

    #[test]
    fn star_with_inverse_is_lossy() {
        // (a·a⁻)* keeps the non-inverse a.
        let s = translate(
            &single(RegularExpr::star(vec![PathExpr(vec![
                sym(0),
                sym(0).flipped(),
            ])])),
            &schema(),
        );
        assert!(s.contains("LOSSY"), "{s}");
        assert!(s.contains("(x0)-[:a*0..]->(x1)"), "{s}");
    }

    #[test]
    fn epsilon_star_is_exact() {
        // ε* is the identity, `*0..0` in openCypher: no note.
        let s = translate(
            &single(RegularExpr::star(vec![PathExpr::epsilon()])),
            &schema(),
        );
        assert_eq!(s, "MATCH (x0)-[*0..0]->(x1)\nRETURN DISTINCT x0, x1\n");
    }

    #[test]
    fn boolean_query_returns_flag() {
        let q = Query::single(Rule {
            head: vec![],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::symbol(sym(0)),
                trg: Var(1),
            }],
        })
        .unwrap();
        let s = translate(&q, &schema());
        assert!(s.contains("RETURN DISTINCT true AS result"), "{s}");
    }
}
