//! The selectivity data structures of Section 5.2.3 and the `nb_path`
//! sampling algorithm of Section 5.2.4.
//!
//! * **Schema graph `G_S`** — nodes are pairs `(T, (t1, o, Type(T)))` of a
//!   node type and a selectivity triple; an edge labeled `a ∈ Σ±` connects
//!   `(T, tr)` to `(T', tr · sel_{T,T'}(a))` whenever the schema allows an
//!   `a`-edge between `T` and `T'`. A walk through `G_S` simultaneously
//!   tracks *where* a path can navigate and *how its selectivity class
//!   evolves*.
//! * **Distance matrix `D`** — all-pairs shortest path lengths in `G_S`.
//! * **Selectivity graph `G_sel`** — same nodes; an edge `u → v` exists iff
//!   `G_S` has a path from `u` to `v` of length within `[l_min, l_max]`
//!   (the query-size path-length interval). One `G_sel` edge therefore
//!   stands for one instantiable conjunct placeholder.
//! * **`nb_path` sampling** — one count table and one weighted walk for
//!   all three graphs (`PathCounts`): `nb_path(x, l)` counts the paths of
//!   exactly `l` steps from `x` into a target node or set, and a path is
//!   then drawn step by step, each step weighted by the number of paths it
//!   leaves, which makes every path equally likely (Section 5.2.4). `G_S`
//!   draws the label paths of a spine conjunct, the type graph those of
//!   branches and star loops, `G_sel` the typing of a whole chain
//!   ([`ChainSampler`]).

use crate::query::Symbol;
use crate::schema::{PredicateId, Schema, TypeId};
use crate::selectivity::algebra::{Card, Estimator, SelOp, SelTriple};
use crate::selectivity::SelectivityClass;
use gmark_stats::Prng;

/// Identifier of a schema-graph node: `type_index * 8 + triple_index` over
/// the eight permitted triples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GsNodeId(pub usize);

const TRIPLES_PER_TYPE: usize = 8;

/// The canonical ordering of the eight permitted triples.
fn canonical_triples() -> [SelTriple; TRIPLES_PER_TYPE] {
    use Card::*;
    use SelOp::*;
    [
        SelTriple {
            left: One,
            op: Eq,
            right: One,
        },
        SelTriple {
            left: One,
            op: Less,
            right: Many,
        },
        SelTriple {
            left: Many,
            op: Greater,
            right: One,
        },
        SelTriple {
            left: Many,
            op: Eq,
            right: Many,
        },
        SelTriple {
            left: Many,
            op: Less,
            right: Many,
        },
        SelTriple {
            left: Many,
            op: Greater,
            right: Many,
        },
        SelTriple {
            left: Many,
            op: Diamond,
            right: Many,
        },
        SelTriple {
            left: Many,
            op: Cross,
            right: Many,
        },
    ]
}

fn triple_index(t: SelTriple) -> usize {
    canonical_triples()
        .iter()
        .position(|&c| c == t)
        .expect("normalized triples are always canonical")
}

/// One step out of a node: the node it leads to. `G_S` and the type graph
/// step along labelled moves, `G_sel` along bare edges.
pub(crate) trait Step: Copy {
    fn next(self) -> usize;
}

impl Step for usize {
    fn next(self) -> usize {
        self
    }
}

impl Step for (Symbol, usize) {
    fn next(self) -> usize {
        self.1
    }
}

impl Step for (Symbol, TypeId) {
    fn next(self) -> usize {
        self.1 .0
    }
}

/// The `nb_path` table of Section 5.2.4 over one graph's adjacency lists
/// `adj[x]`: `get(l, x)` is the number of paths of exactly `l` steps from
/// `x` into a target set (an `f64`: counts can be huge).
#[derive(Debug)]
pub(crate) struct PathCounts(Vec<Vec<f64>>);

impl PathCounts {
    /// Counts the paths of every length up to `max_len` into `targets`.
    pub(crate) fn new<S: Step>(
        adj: &[Vec<S>],
        targets: impl IntoIterator<Item = usize>,
        max_len: usize,
    ) -> PathCounts {
        let mut counts = vec![vec![0.0; adj.len()]; max_len + 1];
        for t in targets {
            counts[0][t] = 1.0;
        }
        for l in 1..=max_len {
            let (shorter, this) = counts.split_at_mut(l);
            for (count, steps) in this[0].iter_mut().zip(adj) {
                for step in steps {
                    *count += shorter[l - 1][step.next()];
                }
            }
        }
        PathCounts(counts)
    }

    /// The number of paths of exactly `len` steps from `x`.
    pub(crate) fn get(&self, len: usize, x: usize) -> f64 {
        self.0[len][x]
    }

    /// Draws one path of exactly `len` steps from `from` into the targets,
    /// uniformly: each step is weighted by the number of paths it leaves,
    /// in `adj[at]` order. Returns the steps taken, or `None` — before any
    /// draw — when there is no such path. `adj` must be the adjacency the
    /// table was counted on.
    pub(crate) fn walk<S: Step>(
        &self,
        adj: &[Vec<S>],
        rng: &mut Prng,
        from: usize,
        len: usize,
    ) -> Option<Vec<S>> {
        if self.0[len][from] <= 0.0 {
            return None;
        }
        let mut path = Vec::with_capacity(len);
        let mut at = from;
        for remaining in (0..len).rev() {
            let steps = &adj[at];
            let weights: Vec<f64> = steps.iter().map(|s| self.0[remaining][s.next()]).collect();
            let step = steps[rng.choose_weighted(&weights)?];
            path.push(step);
            at = step.next();
        }
        Some(path)
    }
}

/// The schema graph `G_S` (Section 5.2.3 (a), illustrated in Fig. 8).
#[derive(Debug, Clone)]
pub struct SchemaGraph {
    valid: Vec<bool>,
    pub(crate) adj: Vec<Vec<(Symbol, usize)>>,
}

impl SchemaGraph {
    /// Derives the schema graph from a schema.
    pub fn build(schema: &Schema) -> SchemaGraph {
        let est = Estimator::new(schema);
        let triples = canonical_triples();
        let n = schema.type_count() * TRIPLES_PER_TYPE;
        let mut valid = vec![false; n];
        for t in schema.types() {
            let card = Card::of(schema, t);
            for (k, tr) in triples.iter().enumerate() {
                if tr.right == card {
                    valid[t.0 * TRIPLES_PER_TYPE + k] = true;
                }
            }
        }
        let mut adj: Vec<Vec<(Symbol, usize)>> = vec![Vec::new(); n];
        // All symbols of Σ±.
        let symbols: Vec<Symbol> = (0..schema.predicate_count())
            .flat_map(|p| {
                [
                    Symbol::forward(PredicateId(p)),
                    Symbol::inverse(PredicateId(p)),
                ]
            })
            .collect();
        for t in schema.types() {
            for (k, tr) in triples.iter().enumerate() {
                let u = t.0 * TRIPLES_PER_TYPE + k;
                if !valid[u] {
                    continue;
                }
                for t2 in schema.types() {
                    for &sym in &symbols {
                        if let Some(base) = est.symbol_class(t, t2, sym) {
                            let tr2 = tr.concat(base);
                            let v = t2.0 * TRIPLES_PER_TYPE + triple_index(tr2);
                            debug_assert!(valid[v], "concat lands on a valid node");
                            adj[u].push((sym, v));
                        }
                    }
                }
            }
        }
        SchemaGraph { valid, adj }
    }

    /// Number of node slots (`|Θ| × 8`; not all are valid).
    pub fn len(&self) -> usize {
        self.valid.len()
    }

    /// Whether there are no valid nodes.
    pub fn is_empty(&self) -> bool {
        !self.valid.iter().any(|&v| v)
    }

    /// Whether a node slot is a valid `G_S` node.
    pub fn is_valid(&self, n: GsNodeId) -> bool {
        self.valid[n.0]
    }

    /// The node for `(type, triple)`.
    pub fn node(&self, t: TypeId, triple: SelTriple) -> GsNodeId {
        GsNodeId(t.0 * TRIPLES_PER_TYPE + triple_index(triple.normalized()))
    }

    /// The type component of a node.
    pub fn type_of(&self, n: GsNodeId) -> TypeId {
        TypeId(n.0 / TRIPLES_PER_TYPE)
    }

    /// The triple component of a node.
    pub fn triple_of(&self, n: GsNodeId) -> SelTriple {
        canonical_triples()[n.0 % TRIPLES_PER_TYPE]
    }

    /// Labeled successors of a node.
    pub fn successors(&self, n: GsNodeId) -> &[(Symbol, usize)] {
        &self.adj[n.0]
    }

    /// All valid node ids.
    pub fn valid_nodes(&self) -> impl Iterator<Item = GsNodeId> + '_ {
        (0..self.len()).filter(|&i| self.valid[i]).map(GsNodeId)
    }

    /// The distance matrix `D` (Section 5.2.3 (b)): `D[u][v]` is the length
    /// of the shortest path from `u` to `v` in `G_S`, or `None` if
    /// unreachable. Computed by BFS from every node.
    pub fn distance_matrix(&self) -> Vec<Vec<Option<u32>>> {
        let n = self.len();
        let mut dist = vec![vec![None; n]; n];
        let mut queue = std::collections::VecDeque::new();
        #[allow(clippy::needless_range_loop)]
        for s in 0..n {
            if !self.valid[s] {
                continue;
            }
            queue.clear();
            dist[s][s] = Some(0);
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                let du = dist[s][u].expect("queued nodes have distances");
                for &(_, v) in &self.adj[u] {
                    if dist[s][v].is_none() {
                        dist[s][v] = Some(du + 1);
                        queue.push_back(v);
                    }
                }
            }
        }
        dist
    }
}

/// The selectivity graph `G_sel` (Section 5.2.3 (c), illustrated in Fig. 9):
/// an unlabeled graph on the `G_S` nodes with an edge `u → v` iff `G_S`
/// contains a path from `u` to `v` of length within `[l_min, l_max]`.
#[derive(Debug, Clone)]
pub struct SelectivityGraph {
    pub(crate) adj: Vec<Vec<usize>>,
}

impl SelectivityGraph {
    /// Builds `G_sel` from the schema graph and the path-length interval of
    /// the workload's query-size tuple.
    pub fn build(gs: &SchemaGraph, lmin: usize, lmax: usize) -> SelectivityGraph {
        assert!(lmin >= 1, "conjunct paths have at least one symbol");
        assert!(lmin <= lmax, "invalid path-length interval [{lmin},{lmax}]");
        let n = gs.len();
        let mut adj = vec![Vec::new(); n];
        // Layered BFS-with-multiplicity from each node: reach[l] = set of
        // nodes at exactly l steps (as boolean DP — counts irrelevant here).
        for s in 0..n {
            if !gs.is_valid(GsNodeId(s)) {
                continue;
            }
            let mut cur = vec![false; n];
            let mut reachable = vec![false; n];
            cur[s] = true;
            for l in 1..=lmax {
                let mut next = vec![false; n];
                for (u, &inu) in cur.iter().enumerate() {
                    if inu {
                        for &(_, v) in gs.successors(GsNodeId(u)) {
                            next[v] = true;
                        }
                    }
                }
                if l >= lmin {
                    for (v, &inv) in next.iter().enumerate() {
                        if inv {
                            reachable[v] = true;
                        }
                    }
                }
                cur = next;
            }
            adj[s] = reachable
                .iter()
                .enumerate()
                .filter_map(|(v, &r)| r.then_some(v))
                .collect();
        }
        SelectivityGraph { adj }
    }

    /// `G_sel` successors of a node.
    pub fn successors(&self, n: GsNodeId) -> &[usize] {
        &self.adj[n.0]
    }

    /// Whether the edge `u → v` exists.
    pub fn has_edge(&self, u: GsNodeId, v: GsNodeId) -> bool {
        self.adj[u.0].binary_search(&v.0).is_ok()
    }
}

/// Uniform sampling of selectivity-typed chains (Section 5.2.4).
///
/// `nb_path(n, i)` counts the `G_sel` paths of length `i` from `n` ending in
/// a node whose triple belongs to the `target` class. A chain typing of `c`
/// conjuncts is a `G_sel` path of length `c` starting from an identity node
/// (`(?, =, ?)`): the start is drawn weighted by its path count, the rest
/// is the counted walk — the "two-step algorithm" of the paper.
#[derive(Debug)]
pub struct ChainSampler {
    nb_path: PathCounts,
    starts: Vec<usize>,
}

impl ChainSampler {
    /// Precomputes `nb_path` up to `max_conjuncts` for a target class.
    pub fn new(
        gs: &SchemaGraph,
        gsel: &SelectivityGraph,
        target: SelectivityClass,
        max_conjuncts: usize,
    ) -> ChainSampler {
        let of_class = gs
            .valid_nodes()
            .filter(|&u| SelectivityClass::of_triple(gs.triple_of(u)) == target)
            .map(|u| u.0);
        // Start nodes: identity triples (op =), per the paper "a node with
        // selectivity triple (?, =, ?)".
        let starts = gs
            .valid_nodes()
            .filter(|&u| {
                let t = gs.triple_of(u);
                t.op == SelOp::Eq && t.left == t.right
            })
            .map(|u| u.0)
            .collect();
        ChainSampler {
            nb_path: PathCounts::new(&gsel.adj, of_class, max_conjuncts),
            starts,
        }
    }

    /// Number of admissible typings of length `len` (0 means infeasible).
    pub fn feasible(&self, len: usize) -> f64 {
        self.starts.iter().map(|&s| self.nb_path.get(len, s)).sum()
    }

    /// Draws a uniformly random admissible typing: `len + 1` `G_S` nodes,
    /// the `i`-th conjunct connecting node `i` to node `i + 1`.
    pub fn sample(
        &self,
        gsel: &SelectivityGraph,
        rng: &mut Prng,
        len: usize,
    ) -> Option<Vec<GsNodeId>> {
        let weights: Vec<f64> = self
            .starts
            .iter()
            .map(|&s| self.nb_path.get(len, s))
            .collect();
        let start = self.starts[rng.choose_weighted(&weights)?];
        let steps = self.nb_path.walk(&gsel.adj, rng, start, len)?;
        Some(std::iter::once(start).chain(steps).map(GsNodeId).collect())
    }
}

/// The plain type-adjacency graph over `Σ±`, used for instantiating
/// placeholders when no selectivity constraint applies (non-binary arities,
/// branch conjuncts of star-shaped skeletons). Walking it guarantees the
/// generated paths are realizable in the schema — the "tight coupling" of
/// queries to instances that Section 5 emphasizes.
#[derive(Debug, Clone)]
pub struct TypeGraph {
    pub(crate) adj: Vec<Vec<(Symbol, TypeId)>>,
}

impl TypeGraph {
    /// Builds the type graph from a schema.
    pub fn build(schema: &Schema) -> TypeGraph {
        let mut adj: Vec<Vec<(Symbol, TypeId)>> = vec![Vec::new(); schema.type_count()];
        for c in schema.constraints() {
            // Skip constraints that forbid edges (uniform [0,0], macro "0").
            if let crate::schema::Distribution::Uniform { min: 0, max: 0 } = c.dout {
                continue;
            }
            let fwd = Symbol::forward(c.predicate);
            adj[c.source.0].push((fwd, c.target));
            adj[c.target.0].push((fwd.flipped(), c.source));
        }
        for neighbors in &mut adj {
            neighbors.sort_by_key(|(s, t)| (s.predicate, s.inverse, t.0));
            neighbors.dedup();
        }
        TypeGraph { adj }
    }

    /// Labeled successors of a type.
    pub fn successors(&self, t: TypeId) -> &[(Symbol, TypeId)] {
        &self.adj[t.0]
    }

    /// Random walk of `len` symbols starting at `t`; returns the labels and
    /// the end type, or `None` if the walk dead-ends.
    pub fn random_walk(
        &self,
        rng: &mut Prng,
        t: TypeId,
        len: usize,
    ) -> Option<(Vec<Symbol>, TypeId)> {
        let mut at = t;
        let mut path = Vec::with_capacity(len);
        for _ in 0..len {
            let succs = self.successors(at);
            if succs.is_empty() {
                return None;
            }
            let &(sym, next) = rng.choose(succs);
            path.push(sym);
            at = next;
        }
        Some((path, at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Distribution, Occurrence, SchemaBuilder};

    /// The running-example schema (Examples 3.3 / 5.1 / Fig. 8).
    fn example_schema() -> Schema {
        let mut b = SchemaBuilder::new();
        let t1 = b.node_type("T1", Occurrence::Proportion(0.6));
        let t2 = b.node_type("T2", Occurrence::Proportion(0.2));
        let t3 = b.node_type("T3", Occurrence::Fixed(1));
        let a = b.predicate("a", None);
        let bb = b.predicate("b", None);
        b.edge(
            t1,
            a,
            t1,
            Distribution::gaussian(2.0, 1.0),
            Distribution::zipfian(2.5),
        );
        b.edge(
            t1,
            bb,
            t2,
            Distribution::uniform(1, 2),
            Distribution::gaussian(1.0, 0.5),
        );
        b.edge(
            t2,
            bb,
            t2,
            Distribution::gaussian(1.0, 0.5),
            Distribution::NonSpecified,
        );
        b.edge(
            t2,
            bb,
            t3,
            Distribution::NonSpecified,
            Distribution::uniform(1, 1),
        );
        b.build().unwrap()
    }

    fn ids() -> (TypeId, TypeId, TypeId) {
        (TypeId(0), TypeId(1), TypeId(2))
    }

    #[test]
    fn schema_graph_validity() {
        let schema = example_schema();
        let gs = SchemaGraph::build(&schema);
        let (t1, _, t3) = ids();
        // T1 grows: (N,·,N) and (1,<,N) triples valid; (1,=,1) not.
        assert!(gs.is_valid(gs.node(t1, SelTriple::new(Card::Many, SelOp::Eq, Card::Many))));
        assert!(gs.is_valid(gs.node(t1, SelTriple::new(Card::One, SelOp::Less, Card::Many))));
        assert!(!gs.is_valid(gs.node(t1, SelTriple::new(Card::One, SelOp::Eq, Card::One))));
        // T3 fixed: only (1,=,1) and (N,>,1).
        assert!(gs.is_valid(gs.node(t3, SelTriple::new(Card::One, SelOp::Eq, Card::One))));
        assert!(gs.is_valid(gs.node(t3, SelTriple::new(Card::Many, SelOp::Greater, Card::One))));
        assert!(!gs.is_valid(gs.node(t3, SelTriple::new(Card::Many, SelOp::Eq, Card::Many))));
    }

    #[test]
    fn fig_8_a_edge_from_identity_to_less() {
        // Fig. 8 / Example 5.2: (T1,(N,=,N)) --a--> (T1,(N,<,N)) because
        // (N,=,N)·(N,<,N) = (N,<,N).
        let schema = example_schema();
        let gs = SchemaGraph::build(&schema);
        let (t1, ..) = ids();
        let from = gs.node(t1, SelTriple::new(Card::Many, SelOp::Eq, Card::Many));
        let to = gs.node(t1, SelTriple::new(Card::Many, SelOp::Less, Card::Many));
        let a = Symbol::forward(crate::schema::PredicateId(0));
        assert!(gs
            .successors(from)
            .iter()
            .any(|&(sym, v)| sym == a && v == to.0));
    }

    #[test]
    fn fig_8_diamond_via_a_inverse() {
        // (T1,(N,<,N)) --a⁻--> (T1,(N,◇,N)): < · > = ◇.
        let schema = example_schema();
        let gs = SchemaGraph::build(&schema);
        let (t1, ..) = ids();
        let from = gs.node(t1, SelTriple::new(Card::Many, SelOp::Less, Card::Many));
        let to = gs.node(t1, SelTriple::new(Card::Many, SelOp::Diamond, Card::Many));
        let a_inv = Symbol::inverse(crate::schema::PredicateId(0));
        assert!(gs
            .successors(from)
            .iter()
            .any(|&(sym, v)| sym == a_inv && v == to.0));
    }

    #[test]
    fn fig_8_cross_from_t3_back_into_t2() {
        // (T3,(N,>,1)) --b⁻--> (T2,(N,×,N)): (N,>,1)·(1,<,N) = (N,×,N).
        let schema = example_schema();
        let gs = SchemaGraph::build(&schema);
        let (_, t2, t3) = ids();
        let from = gs.node(t3, SelTriple::new(Card::Many, SelOp::Greater, Card::One));
        let to = gs.node(t2, SelTriple::new(Card::Many, SelOp::Cross, Card::Many));
        let b_inv = Symbol::inverse(crate::schema::PredicateId(1));
        assert!(gs
            .successors(from)
            .iter()
            .any(|&(sym, v)| sym == b_inv && v == to.0));
    }

    #[test]
    fn distance_matrix_shortest_paths() {
        let schema = example_schema();
        let gs = SchemaGraph::build(&schema);
        let (t1, t2, _) = ids();
        let d = gs.distance_matrix();
        let id1 = gs.node(t1, SelTriple::new(Card::Many, SelOp::Eq, Card::Many));
        let cross2 = gs.node(t2, SelTriple::new(Card::Many, SelOp::Cross, Card::Many));
        // b·b·b⁻ realizes it in 3 steps (Example 5.3) and nothing shorter can.
        assert_eq!(d[id1.0][cross2.0], Some(3));
        assert_eq!(d[id1.0][id1.0], Some(0));
        // From a × node one can never return to the identity class.
        assert_eq!(d[cross2.0][id1.0], None);
    }

    #[test]
    fn fig_9_selectivity_graph_edges() {
        // Example 5.3 with l_max = 4: edge (T1,(N,=,N)) → (T2,(N,×,N))
        // exists; the reverse edge does not.
        let schema = example_schema();
        let gs = SchemaGraph::build(&schema);
        let gsel = SelectivityGraph::build(&gs, 1, 4);
        let (t1, t2, _) = ids();
        let id1 = gs.node(t1, SelTriple::new(Card::Many, SelOp::Eq, Card::Many));
        let cross2 = gs.node(t2, SelTriple::new(Card::Many, SelOp::Cross, Card::Many));
        assert!(gsel.has_edge(id1, cross2));
        assert!(!gsel.has_edge(cross2, id1));
    }

    #[test]
    fn gsel_respects_lmin() {
        // With l_min = l_max = 1, only single-symbol transitions survive, so
        // the (=) → (×) edge (which needs 2+ symbols) must vanish.
        let schema = example_schema();
        let gs = SchemaGraph::build(&schema);
        let gsel = SelectivityGraph::build(&gs, 1, 1);
        let (t1, t2, _) = ids();
        let id1 = gs.node(t1, SelTriple::new(Card::Many, SelOp::Eq, Card::Many));
        let cross2 = gs.node(t2, SelTriple::new(Card::Many, SelOp::Cross, Card::Many));
        assert!(!gsel.has_edge(id1, cross2));
        // But the single-symbol (=) → (<) edge via `a` survives.
        let less1 = gs.node(t1, SelTriple::new(Card::Many, SelOp::Less, Card::Many));
        assert!(gsel.has_edge(id1, less1));
    }

    #[test]
    fn chain_sampler_reaches_quadratic() {
        let schema = example_schema();
        let gs = SchemaGraph::build(&schema);
        let gsel = SelectivityGraph::build(&gs, 1, 4);
        let sampler = ChainSampler::new(&gs, &gsel, SelectivityClass::Quadratic, 3);
        assert!(
            sampler.feasible(1) > 0.0,
            "one conjunct suffices with l_max=4"
        );
        let mut rng = Prng::seed_from_u64(5);
        for _ in 0..50 {
            let nodes = sampler.sample(&gsel, &mut rng, 2).expect("feasible");
            assert_eq!(nodes.len(), 3);
            let last = *nodes.last().unwrap();
            assert_eq!(
                SelectivityClass::of_triple(gs.triple_of(last)),
                SelectivityClass::Quadratic
            );
            let first = gs.triple_of(nodes[0]);
            assert_eq!(first.op, SelOp::Eq, "chains start at identity nodes");
            // Consecutive nodes are G_sel edges.
            for w in nodes.windows(2) {
                assert!(gsel.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn chain_sampler_constant_needs_fixed_types() {
        let schema = example_schema();
        let gs = SchemaGraph::build(&schema);
        let gsel = SelectivityGraph::build(&gs, 1, 4);
        let sampler = ChainSampler::new(&gs, &gsel, SelectivityClass::Constant, 3);
        // Constant chains must start AND end at the fixed type T3's
        // (1,=,1)-node. T3 has no outgoing single-symbol moves that return
        // to a (1,·,1) class here, except via b⁻…b round trips of length 2.
        let mut rng = Prng::seed_from_u64(6);
        if sampler.feasible(1) > 0.0 {
            let nodes = sampler.sample(&gsel, &mut rng, 1).unwrap();
            let first = gs.triple_of(nodes[0]);
            assert_eq!(first, SelTriple::new(Card::One, SelOp::Eq, Card::One));
        }
    }

    #[test]
    fn path_counts_and_sampling_connect() {
        let schema = example_schema();
        let gs = SchemaGraph::build(&schema);
        let (t1, t2, _) = ids();
        let from = gs.node(t1, SelTriple::new(Card::Many, SelOp::Eq, Card::Many));
        let to = gs.node(t2, SelTriple::new(Card::Many, SelOp::Cross, Card::Many));
        let counts = PathCounts::new(&gs.adj, [to.0], 4);
        assert!(counts.get(3, from.0) > 0.0, "b·b·b⁻ is a length-3 witness");
        assert_eq!(counts.get(1, from.0), 0.0, "nothing shorter reaches it");
        let mut rng = Prng::seed_from_u64(7);
        for _ in 0..20 {
            let steps = counts.walk(&gs.adj, &mut rng, from.0, 3).expect("exists");
            assert_eq!(steps.len(), 3);
            // Every step is a G_S move out of the node before it, and the
            // walk ends at the target.
            let mut at = from.0;
            for step in steps {
                assert!(gs.successors(GsNodeId(at)).contains(&step));
                at = step.1;
            }
            assert_eq!(at, to.0, "the walk ends in the target set");
        }
        // The same walk on the type graph: T2 loops back to itself via b·b⁻.
        let tg = TypeGraph::build(&schema);
        let loops = PathCounts::new(&tg.adj, [t2.0], 2);
        assert!(loops.get(2, t2.0) > 0.0);
        let steps = loops.walk(&tg.adj, &mut rng, t2.0, 2).expect("a loop");
        assert_eq!(steps.last().map(|&(_, t)| t), Some(t2));
    }

    #[test]
    fn sample_path_infeasible_is_none() {
        let schema = example_schema();
        let gs = SchemaGraph::build(&schema);
        let (t1, t2, _) = ids();
        let from = gs.node(t1, SelTriple::new(Card::Many, SelOp::Eq, Card::Many));
        let to = gs.node(t2, SelTriple::new(Card::Many, SelOp::Cross, Card::Many));
        let counts = PathCounts::new(&gs.adj, [to.0], 2);
        let mut rng = Prng::seed_from_u64(8);
        let before = rng.clone();
        assert!(counts.walk(&gs.adj, &mut rng, from.0, 1).is_none());
        assert_eq!(rng, before, "an infeasible walk draws nothing");
    }

    #[test]
    fn type_graph_walks_are_schema_consistent() {
        let schema = example_schema();
        let tg = TypeGraph::build(&schema);
        let (t1, ..) = ids();
        let mut rng = Prng::seed_from_u64(9);
        for _ in 0..50 {
            if let Some((path, end)) = tg.random_walk(&mut rng, t1, 3) {
                assert_eq!(path.len(), 3);
                // A symbol may admit several type transitions; track the
                // set of reachable types and check the reported end type.
                let mut frontier = vec![t1];
                for sym in path {
                    let mut next: Vec<TypeId> = frontier
                        .iter()
                        .flat_map(|&t| {
                            tg.successors(t)
                                .iter()
                                .filter(|&&(s, _)| s == sym)
                                .map(|&(_, t2)| t2)
                        })
                        .collect();
                    next.sort_unstable();
                    next.dedup();
                    assert!(!next.is_empty(), "walk steps must be type-graph edges");
                    frontier = next;
                }
                assert!(frontier.contains(&end));
            }
        }
    }

    #[test]
    fn type_graph_skips_forbidden_edges() {
        let mut b = SchemaBuilder::new();
        let s = b.node_type("s", Occurrence::Fixed(5));
        let t = b.node_type("t", Occurrence::Fixed(5));
        let p = b.predicate("p", None);
        b.constraint(crate::schema::EdgeConstraint::none(s, p, t));
        let schema = b.build().unwrap();
        let tg = TypeGraph::build(&schema);
        assert!(tg.successors(s).is_empty());
        assert!(tg.successors(t).is_empty());
    }
}
