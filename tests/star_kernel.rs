//! The Kleene-star kernel, `Relation::star`, against an independent
//! reference: the reflexive-transitive closure of a boolean adjacency
//! matrix by Warshall's algorithm.
//!
//! Inputs are seeded random relations over at most 40 nodes, drawn so the
//! set covers self-loops, cycles, isolated nodes, the empty relation and a
//! node count above the largest endpoint, plus hand-built shapes of
//! strongly connected components: joined cycles, tails, a diamond of
//! singletons. The budget half pins the exact-cap edge: a closure of `k`
//! pairs succeeds under a cap of `k` and is too large under `k - 1`. A
//! 300 000-node path pins the `TooLarge(n)` a long chain of singleton
//! components trips, and that condensing it needs no recursion.

use gmark::engines::relations::Relation;
use gmark::engines::{Budget, EvalError};
use gmark::prelude::NodeId;
use gmark::stats::Prng;

/// The pairs of `r`, in source order.
fn pairs(r: &Relation) -> Vec<(NodeId, NodeId)> {
    r.iter_edges().collect()
}

/// `(r)*` over `0..n` by Warshall's algorithm, as sorted pairs.
fn warshall(n: NodeId, r: &Relation) -> Vec<(NodeId, NodeId)> {
    let n = n as usize;
    let mut reach = vec![vec![false; n]; n];
    for (v, row) in reach.iter_mut().enumerate() {
        row[v] = true;
    }
    for (s, t) in r.iter_edges() {
        reach[s as usize][t as usize] = true;
    }
    for k in 0..n {
        // Row `k` does not change while `k` is the intermediate node.
        let via = reach[k].clone();
        for row in reach.iter_mut().filter(|row| row[k]) {
            for (hit, &hop) in row.iter_mut().zip(&via) {
                *hit |= hop;
            }
        }
    }
    let mut pairs = Vec::new();
    for (i, row) in reach.iter().enumerate() {
        for (j, &hit) in row.iter().enumerate() {
            if hit {
                pairs.push((i as NodeId, j as NodeId));
            }
        }
    }
    pairs
}

/// One seeded case: `n` nodes and a relation whose endpoints all lie below
/// a bound `hi <= n` — so the nodes in `hi..n` are isolated and `n` may
/// exceed the largest endpoint — with random edges, a few self-loops and,
/// on every other seed, a cycle through a random subset of `0..hi`.
fn random_case(seed: u64) -> (NodeId, Relation) {
    let mut rng = Prng::seed_from_u64(seed);
    let n = 1 + rng.below(40) as NodeId;
    let hi = n - rng.below(u64::from(n).min(6)) as NodeId;
    let node = |rng: &mut Prng| rng.below(u64::from(hi)) as NodeId;
    let mut pairs = Vec::new();
    for _ in 0..rng.below(2 * u64::from(hi) + 1) {
        pairs.push((node(&mut rng), node(&mut rng)));
    }
    for _ in 0..rng.below(3) {
        let v = node(&mut rng);
        pairs.push((v, v));
    }
    if seed.is_multiple_of(2) {
        let ring: Vec<NodeId> = (0..1 + rng.below(5)).map(|_| node(&mut rng)).collect();
        for (i, &v) in ring.iter().enumerate() {
            pairs.push((v, ring[(i + 1) % ring.len()]));
        }
    }
    (n, Relation::from_pairs(pairs))
}

/// The hand-picked corners, then 300 seeded random cases.
fn cases() -> Vec<(NodeId, Relation)> {
    let mut cases = vec![
        (0, Relation::default()),
        (5, Relation::default()),
        (3, Relation::from_pairs(vec![(1, 1)])),
        (4, Relation::from_pairs(vec![(0, 1), (1, 2), (2, 0)])),
        (40, Relation::from_pairs(vec![(0, 1), (1, 2), (2, 3)])),
        // Two cycles joined by a bridge.
        (
            9,
            Relation::from_pairs(vec![(4, 1), (1, 7), (7, 4), (7, 0), (0, 8), (8, 2), (2, 0)]),
        ),
        // A cycle with an in-tail and an out-tail.
        (
            9,
            Relation::from_pairs(vec![(8, 6), (6, 3), (3, 5), (5, 1), (1, 3), (5, 0), (0, 7)]),
        ),
        // A diamond DAG of singleton components.
        (
            5,
            Relation::from_pairs(vec![(3, 1), (3, 4), (1, 0), (4, 0), (0, 2)]),
        ),
        // Self-loops only.
        (6, Relation::from_pairs(vec![(0, 0), (2, 2), (5, 5)])),
        // `n` far above the largest endpoint.
        (
            300,
            Relation::from_pairs(vec![(0, 1), (1, 0), (1, 2), (3, 2)]),
        ),
    ];
    cases.extend((0..300).map(random_case));
    cases
}

#[test]
fn star_equals_the_warshall_closure() {
    let roomy = Budget::with_limits(None, usize::MAX);
    for (n, r) in cases() {
        let star = r.star(n, &roomy).unwrap();
        assert_eq!(pairs(&star), warshall(n, &r), "n={n} r={:?}", pairs(&r));
    }
}

#[test]
fn star_is_ok_exactly_when_the_closure_fits_the_cap() {
    for (n, r) in cases() {
        let len = warshall(n, &r).len();
        if len == 0 {
            continue;
        }
        let at_cap = r.star(n, &Budget::with_limits(None, len));
        assert_eq!(
            at_cap.map(|s| s.edge_count()),
            Ok(len),
            "n={n} r={:?}",
            pairs(&r)
        );
        // One below the cap: every charge counts part of the closure,
        // so the first one over the cap counts all of it.
        let below = r.star(n, &Budget::with_limits(None, len - 1));
        assert_eq!(
            below,
            Err(EvalError::TooLarge(len)),
            "n={n} r={:?}",
            pairs(&r)
        );
    }
}

/// A 300 000-node path condenses without recursion, on the default test
/// stack, and trips the cap where a traversal per source does: source `s`
/// reaches `300 000 - s` nodes, so the seventh source takes the running
/// total from 1 799 985 to 2 099 979.
#[test]
fn a_long_path_trips_the_cap_after_seven_sources() {
    const N: NodeId = 300_000;
    let path = Relation::from_pairs((1..N).map(|v| (v - 1, v)));
    let capped = Budget::with_limits(None, 2_000_000);
    assert_eq!(path.star(N, &capped), Err(EvalError::TooLarge(2_099_979)));
}
