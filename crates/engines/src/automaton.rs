//! Regular-expression compilation and product-graph RPQ evaluation.
//!
//! gMark's regular expressions are in outermost-star normal form
//! (`(P1 + … + Pk)` or `(P1 + … + Pk)*`, Section 3.3), so Thompson
//! construction degenerates to a simple ε-free shape:
//!
//! * non-starred: a start state, an accept state, and one chain of fresh
//!   states per disjunct path (an ε disjunct marks the start accepting);
//! * starred: a single state that is both start and accept, with every
//!   disjunct chain looping back into it — which is exactly
//!   `(P1 + … + Pk)*` including the empty word.
//!
//! [`eval_rpq`] evaluates a compiled NFA over the graph by BFS on the
//! product `G × NFA` from every source node — the textbook RPQ algorithm
//! (`O(|V| · |E| · |Q|)`) that SPARQL property-path engines implement — or
//! from a set of seeds only, and hands the result over as a [`Relation`],
//! the representation every join downstream consumes. Each move reads its
//! adjacency from the context's symbol relations ([`EvalContext::relation`]),
//! the same relations the other engines join: a node's successors are
//! its source run, read out of the relation's CSR in O(1)
//! ([`gmark_store::Csr::neighbors`]), so the BFS never touches the graph
//! view itself.

use crate::context::EvalContext;
use crate::relations::Relation;
use crate::{Budget, EvalError};
use gmark_core::query::{RegularExpr, Symbol};
use gmark_store::NodeId;

/// An ε-free NFA over `Σ±`.
#[derive(Debug, Clone)]
pub struct Nfa {
    /// `transitions[q]` = outgoing `(symbol, target state)` moves.
    pub transitions: Vec<Vec<(Symbol, u32)>>,
    /// The unique start state.
    pub start: u32,
    /// Accepting-state flags.
    pub accepting: Vec<bool>,
}

impl Nfa {
    /// Number of states.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Whether the automaton has no states (never constructed that way).
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Whether the empty word is accepted (start state accepting).
    pub fn accepts_epsilon(&self) -> bool {
        self.accepting[self.start as usize]
    }
}

/// Compiles an outermost-star regular expression into an ε-free NFA.
pub fn compile_nfa(expr: &RegularExpr) -> Nfa {
    if expr.starred {
        // One looping state.
        let mut transitions: Vec<Vec<(Symbol, u32)>> = vec![Vec::new()];
        let mut accepting = vec![true];
        for path in &expr.disjuncts {
            if path.is_empty() {
                continue; // ε already accepted
            }
            let mut at = 0u32;
            for (i, &sym) in path.0.iter().enumerate() {
                let next = if i + 1 == path.len() {
                    0
                } else {
                    transitions.push(Vec::new());
                    accepting.push(false);
                    (transitions.len() - 1) as u32
                };
                transitions[at as usize].push((sym, next));
                at = next;
            }
        }
        Nfa {
            transitions,
            start: 0,
            accepting,
        }
    } else {
        // States 0 = start, 1 = accept.
        let mut transitions: Vec<Vec<(Symbol, u32)>> = vec![Vec::new(), Vec::new()];
        let mut accepting = vec![false, true];
        for path in &expr.disjuncts {
            if path.is_empty() {
                accepting[0] = true;
                continue;
            }
            let mut at = 0u32;
            for (i, &sym) in path.0.iter().enumerate() {
                let next = if i + 1 == path.len() {
                    1
                } else {
                    transitions.push(Vec::new());
                    accepting.push(false);
                    (transitions.len() - 1) as u32
                };
                transitions[at as usize].push((sym, next));
                at = next;
            }
        }
        Nfa {
            transitions,
            start: 0,
            accepting,
        }
    }
}

/// Evaluates the binary RPQ `{(u, v) | u ∈ seeds, u ⟶_L v}` for the NFA's
/// language `L` by one BFS over the product graph per seed — `seeds: None`
/// is every node, the whole relation (`S`'s per-conjunct evaluation); a
/// slice is the navigational engine's seed-driven primitive. With `flip`
/// the pairs come out as `(v, u)`: a conjunct traversed from its target
/// side lands in the conjunct's own orientation. A transition on symbol
/// `a` moves along `ctx.relation(a)`, built on first use if the harness
/// has not warmed it.
///
/// The tuple cap is charged after every seed on the pairs emitted so far
/// (before deduplication; the ε pair of a seed included).
pub fn eval_rpq(
    ctx: &EvalContext<'_>,
    nfa: &Nfa,
    seeds: Option<&[NodeId]>,
    flip: bool,
    budget: &Budget,
) -> Result<Relation, EvalError> {
    let n = ctx.view().node_count();
    let states = nfa.len();
    let seed_count = seeds.map_or(n as usize, <[NodeId]>::len);
    let mut out: Vec<(NodeId, NodeId)> = Vec::new();
    let pair = |src: NodeId, w: NodeId| if flip { (w, src) } else { (src, w) };
    // Each transition's relation, looked up once per call.
    let moves: Vec<Vec<(&Relation, u32)>> = nfa
        .transitions
        .iter()
        .map(|ts| {
            ts.iter()
                .map(|&(sym, q2)| (ctx.relation(sym), q2))
                .collect()
        })
        .collect();

    // `seen` is reused across seeds, stamped with the seed's position, to
    // avoid clearing or reallocating it.
    let mut seen = vec![u32::MAX; n as usize * states];
    let mut queue: Vec<(NodeId, u32)> = Vec::new();
    for si in 0..seed_count {
        if si % 256 == 0 {
            budget.check_time()?;
        }
        let src = seeds.map_or(si as NodeId, |s| s[si]);
        let stamp = si as u32;
        if nfa.accepts_epsilon() {
            out.push(pair(src, src));
        }
        queue.clear();
        queue.push((src, nfa.start));
        seen[src as usize * states + nfa.start as usize] = stamp;
        let mut qi = 0;
        while qi < queue.len() {
            let (v, q) = queue[qi];
            qi += 1;
            for &(rel, q2) in &moves[q as usize] {
                for &w in rel.neighbors(v) {
                    let slot = w as usize * states + q2 as usize;
                    if seen[slot] != stamp {
                        seen[slot] = stamp;
                        if nfa.accepting[q2 as usize] && !(nfa.accepts_epsilon() && w == src) {
                            out.push(pair(src, w));
                        }
                        queue.push((w, q2));
                    }
                }
            }
        }
        budget.check_size(out.len())?;
    }
    Ok(Relation::from_pairs(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{graph4 as graph, sym};
    use gmark_core::query::PathExpr;

    fn pairs(expr: &RegularExpr) -> Vec<(NodeId, NodeId)> {
        let nfa = compile_nfa(expr);
        let g = graph();
        let rel = eval_rpq(&EvalContext::new(&g), &nfa, None, false, &Budget::default()).unwrap();
        crate::fixtures::pairs(&rel)
    }

    #[test]
    fn single_symbol() {
        let got = pairs(&RegularExpr::symbol(sym(0)));
        assert_eq!(got, vec![(0, 1), (1, 2), (2, 0), (3, 1)]);
    }

    #[test]
    fn inverse_symbol() {
        let got = pairs(&RegularExpr::symbol(sym(0).flipped()));
        assert_eq!(got, vec![(0, 2), (1, 0), (1, 3), (2, 1)]);
    }

    #[test]
    fn concatenation() {
        // a·b: 0→1→3, 1→2→3, 3→1... 1-b->3; so (0,3), (1,3), (3,3)? 3-a->1-b->3.
        let got = pairs(&RegularExpr::path(PathExpr(vec![sym(0), sym(1)])));
        assert_eq!(got, vec![(0, 3), (1, 3), (3, 3)]);
    }

    #[test]
    fn disjunction() {
        let got = pairs(&RegularExpr::union(vec![
            PathExpr(vec![sym(0)]),
            PathExpr(vec![sym(1)]),
        ]));
        assert_eq!(got, vec![(0, 1), (1, 2), (1, 3), (2, 0), (2, 3), (3, 1)]);
    }

    #[test]
    fn epsilon_disjunct_adds_diagonal() {
        let got = pairs(&RegularExpr::union(vec![
            PathExpr::epsilon(),
            PathExpr(vec![sym(1)]),
        ]));
        let mut expected = vec![(0, 0), (1, 1), (2, 2), (3, 3), (1, 3), (2, 3)];
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn star_of_cycle_reaches_everything_in_component() {
        // (a)*: within the cycle {0,1,2} everything reaches everything;
        // 3 reaches {3,1,2,0}; plus the ε diagonal.
        let got = pairs(&RegularExpr::star(vec![PathExpr(vec![sym(0)])]));
        let mut expected = Vec::new();
        for u in 0..3u32 {
            for v in 0..3u32 {
                expected.push((u, v));
            }
        }
        expected.extend([(3, 3), (3, 1), (3, 2), (3, 0)]);
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(got, expected);
    }

    #[test]
    fn star_of_multi_symbol_path() {
        // (a·b)*: ε ∪ {0→3, 1→3, 3→3} ∪ longer iterations: from 3, a·b
        // loops 3→1→3, so (3,3) again; from 0: 0→3 then 3→3.
        let got = pairs(&RegularExpr::star(vec![PathExpr(vec![sym(0), sym(1)])]));
        let mut expected = vec![(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (1, 3), (3, 3)];
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(got, expected);
    }

    #[test]
    fn mixed_direction_star() {
        // (b·b⁻)*: 1 and 2 both reach node 3 and back, so {1,2} are mutually
        // reachable (plus the diagonal).
        let got = pairs(&RegularExpr::star(vec![PathExpr(vec![
            sym(1),
            sym(1).flipped(),
        ])]));
        let mut expected = vec![(0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1)];
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn seed_driven_matches_full_eval() {
        let expr = RegularExpr::star(vec![PathExpr(vec![sym(0)])]);
        let nfa = compile_nfa(&expr);
        let g = graph();
        let ctx = EvalContext::new(&g);
        let run = |seeds, flip| eval_rpq(&ctx, &nfa, seeds, flip, &Budget::default()).unwrap();
        let full = run(None, false);
        assert_eq!(run(Some(&[0, 1, 2, 3]), false), full);
        // Seeds need not ascend; 3 cannot be reached, so it is the only
        // source of its four pairs — the ε pair among them.
        assert_eq!(run(Some(&[3, 0]), false).edge_count(), 4 + 3);
        let only3 = run(Some(&[3]), false);
        assert_eq!(
            crate::fixtures::pairs(&only3),
            [(3, 0), (3, 1), (3, 2), (3, 3)]
        );
        assert_eq!(
            crate::fixtures::pairs(&run(Some(&[3]), true)),
            [(0, 3), (1, 3), (2, 3), (3, 3)]
        );
        let swapped = full.iter_edges().map(|(s, t)| (t, s)).collect();
        assert_eq!(run(None, true), Relation::from_pairs(swapped));
    }

    #[test]
    fn every_seed_is_charged_its_epsilon_pair() {
        // b*: nodes 0 and 3 have no outgoing b-edge, so they are skipped
        // by the first-move test — after their ε pair was emitted and
        // charged: 4 ε pairs + (1,3), (2,3) = 6.
        let nfa = compile_nfa(&RegularExpr::star(vec![PathExpr(vec![sym(1)])]));
        let g = graph();
        let ctx = EvalContext::new(&g);
        let run = |cap| eval_rpq(&ctx, &nfa, None, false, &Budget::with_limits(None, cap));
        assert_eq!(run(6).unwrap().edge_count(), 6);
        assert_eq!(run(5), Err(EvalError::TooLarge(6)));
    }

    #[test]
    fn budget_too_large_aborts() {
        let expr = RegularExpr::star(vec![PathExpr(vec![sym(0)])]);
        let budget = Budget {
            max_tuples: 3,
            ..Budget::default()
        };
        let g = graph();
        let nfa = compile_nfa(&expr);
        let err = eval_rpq(&EvalContext::new(&g), &nfa, None, false, &budget).unwrap_err();
        assert!(matches!(err, EvalError::TooLarge(_)));
    }

    #[test]
    fn nfa_shapes() {
        let starless = compile_nfa(&RegularExpr::union(vec![PathExpr(vec![sym(0), sym(1)])]));
        assert_eq!(starless.len(), 3); // start, accept, one intermediate
        assert!(!starless.accepts_epsilon());
        let starred = compile_nfa(&RegularExpr::star(vec![PathExpr(vec![sym(0), sym(1)])]));
        assert_eq!(starred.len(), 2); // loop state + one intermediate
        assert!(starred.accepts_epsilon());
        let eps = compile_nfa(&RegularExpr::union(vec![PathExpr::epsilon()]));
        assert!(eps.accepts_epsilon());
    }
}
