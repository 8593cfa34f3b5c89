//! openCypher's view of a query: Section 7.1's degradation, decided once.
//!
//! openCypher's variable-length relationship patterns (`[:a|b*0..]`)
//! support neither inverse traversal nor concatenation, so a starred
//! conjunct runs in a weakened form — "the corresponding openCypher query
//! has only the non-inverse symbol and/or the first symbol in a
//! concatenation of symbols" (Section 7.1). [`degrade`] is that rule, and
//! every consumer reads its one result: `gmark_translate::cypher` writes
//! the degraded query and one `// LOSSY:` note per [`StarLoss`], the `G`
//! engine evaluates the degraded query, and [`CypherCounts`] sums the
//! losses into the workload report. They agree by construction.

use crate::query::{PathExpr, Query};
use std::fmt;

/// What the degradation drops from one starred disjunct path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StarLoss {
    /// A concatenation of this many symbols kept one of them.
    Concat(usize),
    /// An inverse symbol was dropped beside the forward one kept.
    Inverse,
    /// Every symbol was inverse: the first is traversed forward.
    InverseOnly,
}

impl fmt::Display for StarLoss {
    /// The loss in the words of its `// LOSSY:` note.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StarLoss::Concat(n) => write!(
                f,
                "concatenation of {n} symbols under * reduced to its first usable symbol"
            ),
            StarLoss::Inverse => write!(f, "inverse symbol under * dropped"),
            StarLoss::InverseOnly => {
                write!(f, "inverse-only path under * degraded to forward traversal")
            }
        }
    }
}

/// Everything [`degrade`] lost on one query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CypherDegradations {
    /// `(rule index, loss)` in rule, conjunct and disjunct order; a path
    /// that is both concatenated and inverse lists its concatenation first.
    pub losses: Vec<(usize, StarLoss)>,
}

/// The workload report's openCypher counters: [`CypherDegradations`]
/// summed over queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CypherCounts {
    /// Starred concatenations reduced to one symbol.
    pub star_concat: u64,
    /// Starred paths that lost an inversion.
    pub star_inverse: u64,
}

impl CypherCounts {
    /// Adds one query's losses.
    pub fn add(&mut self, lost: &CypherDegradations) {
        for (_, loss) in &lost.losses {
            match loss {
                StarLoss::Concat(_) => self.star_concat += 1,
                StarLoss::Inverse | StarLoss::InverseOnly => self.star_inverse += 1,
            }
        }
    }
}

/// Section 7.1's degradation: under a star, each disjunct path keeps its
/// first forward symbol or, when every symbol is inverse, its first symbol
/// traversed forward; `ε` disjuncts go and duplicates merge. A star left
/// with nothing is `ε*`, the identity openCypher writes as `*0..0` — exact,
/// so no loss. Only starred expressions change: heads, positions and
/// unstarred conjuncts stay, so a plan made for `query` fits the result.
pub fn degrade(query: &Query) -> (Query, CypherDegradations) {
    let mut lost = Vec::new();
    let mut degraded = query.clone();
    for (r, rule) in degraded.rules.iter_mut().enumerate() {
        for c in rule.body.iter_mut().filter(|c| c.expr.starred) {
            let mut kept = Vec::new();
            for p in c.expr.disjuncts.iter().filter(|p| !p.is_empty()) {
                if p.len() > 1 {
                    lost.push((r, StarLoss::Concat(p.len())));
                }
                let symbol = match p.0.iter().find(|s| !s.inverse) {
                    Some(&forward) => {
                        if p.0.iter().any(|s| s.inverse) {
                            lost.push((r, StarLoss::Inverse));
                        }
                        forward
                    }
                    None => {
                        lost.push((r, StarLoss::InverseOnly));
                        p.0[0].flipped()
                    }
                };
                let path = PathExpr::single(symbol);
                if !kept.contains(&path) {
                    kept.push(path);
                }
            }
            if kept.is_empty() {
                kept.push(PathExpr::epsilon());
            }
            c.expr.disjuncts = kept;
        }
    }
    (degraded, CypherDegradations { losses: lost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Conjunct, RegularExpr, Rule, Symbol, Var};
    use crate::schema::PredicateId;

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
    fn losses_come_in_path_order_concatenation_first() {
        let clean = single(RegularExpr::star(vec![PathExpr(vec![sym(0)])]));
        assert_eq!(degrade(&clean), (clean, CypherDegradations::default()));
        let q = single(RegularExpr::star(vec![
            PathExpr(vec![sym(1).flipped(), sym(0)]),
            PathExpr(vec![sym(2).flipped()]),
            PathExpr(vec![sym(0)]),
        ]));
        let (dq, lost) = degrade(&q);
        let expected = [
            StarLoss::Concat(2),
            StarLoss::Inverse,
            StarLoss::InverseOnly,
        ];
        assert_eq!(lost.losses, expected.map(|loss| (0, loss)));
        // b⁻·a keeps a, c⁻ becomes c, and the second a merges into the first.
        let kept = RegularExpr::star(vec![PathExpr(vec![sym(0)]), PathExpr(vec![sym(2)])]);
        assert_eq!(dq.rules[0].body[0].expr, kept);
    }

    #[test]
    fn epsilon_star_is_exact() {
        // ε* is the identity, `*0..0` in openCypher: nothing is lost.
        for disjuncts in [vec![PathExpr::epsilon()], vec![PathExpr::epsilon(); 2]] {
            let (dq, lost) = degrade(&single(RegularExpr::star(disjuncts)));
            assert_eq!(lost, CypherDegradations::default());
            let identity = RegularExpr::star(vec![PathExpr::epsilon()]);
            assert_eq!(dq.rules[0].body[0].expr, identity);
        }
    }

    #[test]
    fn report_counters_sum_the_degradations() {
        use crate::usecases;
        use crate::workload::{generate_workload, WorkloadConfig};
        let schema = usecases::bib();
        let mut cfg = WorkloadConfig::new(40).with_seed(0xC1FE);
        cfg.recursion_probability = 0.6;
        cfg.query_size.length = (1, 3);
        cfg.query_size.disjuncts = (1, 2);
        let (workload, report) = generate_workload(&schema, &cfg).unwrap();
        let mut summed = CypherCounts::default();
        for gq in &workload.queries {
            summed.add(&degrade(&gq.query).1);
        }
        assert_eq!(report.cypher, summed);
        assert!(
            summed.star_concat > 0 && summed.star_inverse > 0,
            "{summed:?}"
        );
    }
}
