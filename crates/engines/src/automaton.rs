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
//! [`eval_rpq`], the one RPQ kernel, compiles an expression that way and
//! evaluates it by BFS on the product `G × NFA` from every source node —
//! the textbook RPQ algorithm (`O(|V| · |E| · |Q|)`) that SPARQL
//! property-path engines implement — or from ascending seeds only. It
//! writes each seed's run straight into a seed-keyed [`Relation`], the
//! representation every join downstream consumes. Each move reads its
//! adjacency from the context's symbol relations ([`EvalContext::relation`]),
//! the same relations the other engines join: a node's successors are
//! its source run, read out of the relation's CSR in O(1)
//! ([`gmark_store::Csr::neighbors`]), so the BFS never touches the graph
//! view itself.

use crate::context::EvalContext;
use crate::relations::{offset, Relation};
use crate::{Budget, EvalError};
use gmark_core::query::{RegularExpr, Symbol};
use gmark_store::NodeId;

/// An ε-free NFA over `Σ±` whose start state is 0.
#[derive(Debug, Clone)]
struct Nfa {
    /// `transitions[q]` = outgoing `(symbol, target state)` moves.
    transitions: Vec<Vec<(Symbol, u32)>>,
    /// Accepting-state flags.
    accepting: Vec<bool>,
}

/// Compiles an outermost-star regular expression into an ε-free NFA: a
/// star loops every disjunct chain back into the start state, which
/// accepts; otherwise every chain ends in accept state 1.
fn compile_nfa(expr: &RegularExpr) -> Nfa {
    let accept = u32::from(!expr.starred);
    let mut transitions: Vec<Vec<(Symbol, u32)>> = vec![Vec::new(); accept as usize + 1];
    let mut accepting = vec![true; accept as usize + 1];
    accepting[0] = expr.starred;
    for path in &expr.disjuncts {
        if path.is_empty() {
            accepting[0] = true; // ε
            continue;
        }
        let mut at = 0u32;
        for (i, &sym) in path.0.iter().enumerate() {
            let next = if i + 1 == path.len() {
                accept
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
        accepting,
    }
}

/// Evaluates the binary RPQ `{(u, v) | u ∈ seeds, u ⟶_L v}` for the
/// language `L` of `expr` by one BFS over the product graph per seed;
/// `seeds: None` is every node. A transition on symbol `a` moves along
/// `ctx.relation(a)`, built on first use if the harness has not warmed it.
///
/// A seed's run needs only an in-place sort: the BFS marks each
/// `(node, state)` once and every accepting move enters the same state,
/// so no target repeats, and the ε pair is emitted before the search and
/// skipped in it. The tuple cap is charged after every seed on the pairs
/// emitted so far, and the runs are sorted only once all of them fit:
/// the charges `charge_seeded` makes from a relation that already holds
/// the runs.
///
/// # Panics
///
/// Panics if `seeds` is not strictly ascending.
pub fn eval_rpq(
    ctx: &EvalContext<'_>,
    expr: &RegularExpr,
    seeds: Option<&[NodeId]>,
    budget: &Budget,
) -> Result<Relation, EvalError> {
    assert!(
        seeds.is_none_or(|s| s.is_sorted_by(|a, b| a < b)),
        "eval_rpq: seeds must be strictly ascending"
    );
    let nfa = compile_nfa(expr);
    let epsilon = nfa.accepting[0];
    let n = ctx.view().node_count();
    let states = nfa.transitions.len();
    let seed_count = seeds.map_or(n as usize, <[NodeId]>::len);
    let base = seeds.and_then(<[NodeId]>::first).copied().unwrap_or(0);
    let (mut offsets, mut targets) = (vec![0], Vec::new());
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

    // One bit per `(node, state)`, reused across seeds: the queue holds
    // exactly the pairs a seed's search set, so clearing their words
    // leaves every bit clear for the next seed.
    let slot = |v: NodeId, q: u32| v as usize * states + q as usize;
    let mut seen = vec![0u64; (n as usize * states).div_ceil(64)];
    let mut queue: Vec<(NodeId, u32)> = Vec::new();
    for si in 0..seed_count {
        if si % 256 == 0 {
            budget.check_time()?;
        }
        let src = seeds.map_or(si as NodeId, |s| s[si]);
        // The sources since the previous seed have empty runs.
        offsets.resize((src - base) as usize + 1, offset(targets.len()));
        if epsilon {
            targets.push(src);
        }
        queue.clear();
        queue.push((src, 0));
        seen[slot(src, 0) / 64] |= 1 << (slot(src, 0) % 64);
        let mut qi = 0;
        while qi < queue.len() {
            let (v, q) = queue[qi];
            qi += 1;
            for &(rel, q2) in &moves[q as usize] {
                for &w in rel.neighbors(v) {
                    let i = slot(w, q2);
                    let (word, bit) = (i / 64, 1 << (i % 64));
                    if seen[word] & bit == 0 {
                        seen[word] |= bit;
                        if nfa.accepting[q2 as usize] && !(epsilon && w == src) {
                            targets.push(w);
                        }
                        queue.push((w, q2));
                    }
                }
            }
        }
        // Every set bit is one of the queue's, so each of their words is
        // cleared whole.
        for &(v, q) in &queue {
            seen[slot(v, q) / 64] = 0;
        }
        budget.check_size(targets.len())?;
        offsets.push(offset(targets.len()));
    }
    for run in offsets.windows(2) {
        targets[run[0] as usize..run[1] as usize].sort_unstable();
    }
    // The relation lives through the join: keep no doubling slack in it.
    targets.shrink_to_fit();
    Ok(Relation::from_parts(base, offsets, targets))
}

/// The budget checks [`eval_rpq`] makes for the ascending `seeds` (`None`
/// is every node), made from `keyed`, a relation that holds each seed's
/// run as [`eval_rpq`] would write it: the clock before every 256th seed,
/// and the running total of the runs after every seed. Only the run
/// lengths are read — for every node, straight off the offsets — so a
/// cached relation is charged what navigating from the seeds would pay,
/// never its whole cardinality at once.
pub(crate) fn charge_seeded(
    keyed: &Relation,
    seeds: Option<&[NodeId]>,
    budget: &Budget,
) -> Result<(), EvalError> {
    let totals: Box<dyn Iterator<Item = usize>> = match seeds {
        Some(seeds) => Box::new(seeds.iter().scan(0, |total, &seed| {
            *total += keyed.degree(seed);
            Some(*total)
        })),
        // Nodes below the hull have empty runs: their totals are 0.
        None => Box::new(keyed.offsets()[1..].iter().map(|&end| end as usize)),
    };
    for (si, total) in totals.enumerate() {
        if si % 256 == 0 {
            budget.check_time()?;
        }
        budget.check_size(total)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{graph4 as graph, sym};
    use gmark_core::query::PathExpr;
    use gmark_store::Csr;

    fn pairs(expr: &RegularExpr) -> Vec<(NodeId, NodeId)> {
        let g = graph();
        let rel = eval_rpq(&EvalContext::new(&g), expr, None, &Budget::default()).unwrap();
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

    /// The pairs of `r` whose source is one of `seeds`.
    fn restricted(r: &Csr, seeds: &[NodeId]) -> Relation {
        Relation::from_pairs(r.iter_edges().filter(|(s, _)| seeds.contains(s)))
    }

    #[test]
    fn seed_driven_matches_full_eval() {
        let g = graph();
        let ctx = EvalContext::new(&g);
        let run =
            |expr: &RegularExpr, seeds| eval_rpq(&ctx, expr, seeds, &Budget::default()).unwrap();
        let exprs = [
            RegularExpr::star(vec![PathExpr(vec![sym(0)])]),
            RegularExpr::path(PathExpr(vec![sym(0), sym(1)])),
            RegularExpr::union(vec![PathExpr::epsilon(), PathExpr(vec![sym(1).flipped()])]),
            RegularExpr::star(vec![PathExpr(vec![sym(1), sym(0).flipped()])]),
        ];
        let capped = |expr: &RegularExpr, seeds, cap| {
            eval_rpq(&ctx, expr, Some(seeds), &Budget::with_limits(None, cap)).map(|_| ())
        };
        for expr in &exprs {
            let full = run(expr, None);
            let reversed = expr.reversed();
            let converse = Relation::from_csr(full.transpose());
            // Unseeded, the charges are the running totals over every node.
            for cap in 0..=full.edge_count() + 1 {
                let budget = Budget::with_limits(None, cap);
                let whole = eval_rpq(&ctx, expr, None, &budget).map(|_| ());
                assert_eq!(charge_seeded(&full, None, &budget), whole, "{expr:?}");
                let back = eval_rpq(&ctx, &reversed, None, &budget).map(|_| ());
                assert_eq!(charge_seeded(&converse, None, &budget), back, "{expr:?}");
            }
            assert_eq!(run(expr, Some(&[0, 1, 2, 3])), full, "{expr:?}");
            for seeds in [&[][..], &[3], &[0, 2], &[1, 2, 3]] {
                // A seeded run is the full relation's runs of its seeds ...
                assert_eq!(run(expr, Some(seeds)), restricted(&full, seeds), "{expr:?}");
                // ... and the reversed expression's, the converse's.
                let back = run(&reversed, Some(seeds));
                assert_eq!(back, restricted(&converse, seeds), "{expr:?}");
                // So the runs charge what the searches charge, at every cap.
                for cap in 0..=full.edge_count() + 1 {
                    let budget = Budget::with_limits(None, cap);
                    let charged = |rel| charge_seeded(rel, Some(seeds), &budget);
                    assert_eq!(charged(&full), capped(expr, seeds, cap), "{expr:?}");
                    assert_eq!(
                        charged(&converse),
                        capped(&reversed, seeds, cap),
                        "{expr:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn seeds_out_of_order_panic() {
        let g = graph();
        let expr = RegularExpr::symbol(sym(0));
        let _ = eval_rpq(
            &EvalContext::new(&g),
            &expr,
            Some(&[3, 0]),
            &Budget::default(),
        );
    }

    #[test]
    fn every_seed_is_charged_its_epsilon_pair() {
        // b*: nodes 0 and 3 have no outgoing b-edge, so they are skipped
        // by the first-move test — after their ε pair was emitted and
        // charged: 4 ε pairs + (1,3), (2,3) = 6.
        let expr = RegularExpr::star(vec![PathExpr(vec![sym(1)])]);
        let g = graph();
        let ctx = EvalContext::new(&g);
        let run = |cap| eval_rpq(&ctx, &expr, None, &Budget::with_limits(None, cap));
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
        let err = eval_rpq(&EvalContext::new(&g), &expr, None, &budget).unwrap_err();
        assert!(matches!(err, EvalError::TooLarge(_)));
    }

    #[test]
    fn nfa_shapes() {
        let starless = compile_nfa(&RegularExpr::union(vec![PathExpr(vec![sym(0), sym(1)])]));
        // Start, accept, one intermediate.
        assert_eq!(starless.accepting, [false, true, false]);
        let starred = compile_nfa(&RegularExpr::star(vec![PathExpr(vec![sym(0), sym(1)])]));
        // Loop state, one intermediate.
        assert_eq!(starred.accepting, [true, false]);
        assert_eq!(starred.transitions, [vec![(sym(0), 1)], vec![(sym(1), 0)]]);
        let eps = compile_nfa(&RegularExpr::union(vec![PathExpr::epsilon()]));
        assert_eq!(eps.accepting, [true, true]);
    }
}
