//! Query workload generation (Section 5, Fig. 6).
//!
//! The algorithm, per query:
//!
//! 1. `get_query_skeleton(f, t)` — build a shape skeleton (chain, star,
//!    cycle, or star-chain) of placeholder conjuncts `(?x, P, ?y)` (line 2);
//! 2. `add_projection_variables(skeleton, ar)` — pick head variables
//!    matching the arity constraint (line 3);
//! 3. `instantiate_placeholders(skeleton, S, p_r, t)` — fill each
//!    placeholder with a regular expression satisfying the recursion
//!    probability and size constraints (line 4).
//!
//! For binary queries with a selectivity target, step 3 is driven by the
//! machinery of Section 5.2.4: a uniformly random path through the
//! selectivity graph `G_sel` types the chain's *spine* (one `G_sel` edge per
//! non-starred conjunct, starting from an identity-class node and ending in
//! the target class); each conjunct is then instantiated by sampling label
//! paths in the schema graph `G_S` between its two endpoint nodes. Starred
//! conjuncts inherit the neighboring types with the `=` operator, exactly as
//! the paper prescribes. When a required length is infeasible the generator
//! *relaxes the path length* rather than backtracking (Section 5.2.4, final
//! paragraph).
//!
//! # Parallel pipeline
//!
//! The shared selectivity context — schema graph `G_S`, type graph, and per
//! relaxation level one `G_sel` with a `ChainSampler` per class — is built
//! **once** as an immutable [`WorkloadContext`]. Query `i` then draws from
//! an RNG stream split off the master seed by `i`
//! ([`gmark_stats::Prng::split2`], domain-separated from the graph
//! generator's constraint streams), so it is a pure function of
//! `(schema, config, i)`. [`WorkloadContext::generate_all`] hands the
//! indices to [`gmark_store::ordered_map`], the streaming pipeline in
//! `gmark-translate` to an `OrderedEmitter`; both put the queries back in
//! index order, which makes the workload bit-identical at every thread
//! count (the argument is made once, in [`gmark_store::emit`]) —
//! `tests/workload_determinism.rs` pins it.

use crate::cypher::{degrade, CypherCounts};
use crate::query::{Conjunct, PathExpr, Query, QueryError, RegularExpr, Rule, Symbol, Var};
use crate::schema::{Schema, TypeId};
use crate::selectivity::graph::{
    ChainSampler, GsNodeId, PathCounts, SchemaGraph, SelectivityGraph, Step, TypeGraph,
};
use crate::selectivity::{Estimator, SelectivityClass};
use gmark_stats::Prng;
use gmark_store::ordered_map;

/// Query shapes supported by gMark (Section 3.3): chain, star, cycle, and
/// star-chain. The non-chain shapes are built from chains, exactly as
/// Section 5.1 describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    /// A simple path of conjuncts.
    Chain,
    /// Conjuncts sharing one central source variable.
    Star,
    /// Two chains sharing both endpoint variables.
    Cycle,
    /// A chain with star branches attached.
    StarChain,
}

impl Shape {
    /// All shapes.
    pub const ALL: [Shape; 4] = [Shape::Chain, Shape::Star, Shape::Cycle, Shape::StarChain];

    /// Parses configuration-file names.
    pub fn parse(s: &str) -> Option<Shape> {
        match s {
            "chain" => Some(Shape::Chain),
            "star" => Some(Shape::Star),
            "cycle" => Some(Shape::Cycle),
            "starchain" | "star-chain" => Some(Shape::StarChain),
            _ => None,
        }
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Shape::Chain => "chain",
            Shape::Star => "star",
            Shape::Cycle => "cycle",
            Shape::StarChain => "starchain",
        };
        write!(f, "{s}")
    }
}

/// The query-size tuple `t` of Section 3.3 (without the rule count, held in
/// [`WorkloadConfig::rules`]): inclusive `[min, max]` intervals for the
/// number of conjuncts, number of disjuncts, and path length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuerySize {
    /// `[c_min, c_max]` conjuncts per rule.
    pub conjuncts: (usize, usize),
    /// `[d_min, d_max]` disjuncts per conjunct.
    pub disjuncts: (usize, usize),
    /// `[l_min, l_max]` symbols per disjunct path.
    pub length: (usize, usize),
}

impl Default for QuerySize {
    fn default() -> Self {
        QuerySize {
            conjuncts: (1, 3),
            disjuncts: (1, 1),
            length: (1, 3),
        }
    }
}

/// A query workload configuration `Q = (G, #q, ar, f, e, p_r, t)`
/// (Definition 3.5). The graph configuration `G` is supplied separately as
/// the schema when calling [`generate_workload`].
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Workload size `#q`.
    pub size: usize,
    /// Allowed arities `ar` (0 = Boolean).
    pub arity: Vec<usize>,
    /// Shape constraint `f`.
    pub shapes: Vec<Shape>,
    /// Selectivity constraint `e`; empty disables selectivity control.
    pub selectivities: Vec<SelectivityClass>,
    /// Probability of recursion `p_r`: the chance each conjunct carries a
    /// Kleene star.
    pub recursion_probability: f64,
    /// `[r_min, r_max]` rules per query.
    pub rules: (usize, usize),
    /// The size tuple `t`.
    pub query_size: QuerySize,
    /// Master seed (workloads are deterministic).
    pub seed: u64,
}

impl WorkloadConfig {
    /// A configuration with the paper's common defaults: binary chain
    /// queries over all three selectivity classes, no recursion.
    pub fn new(size: usize) -> Self {
        WorkloadConfig {
            size,
            arity: vec![2],
            shapes: vec![Shape::Chain],
            selectivities: SelectivityClass::ALL.to_vec(),
            recursion_probability: 0.0,
            rules: (1, 1),
            query_size: QuerySize::default(),
            seed: 0x514D_61726B,
        }
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One generated query with its generation metadata.
#[derive(Debug, Clone)]
pub struct GeneratedQuery {
    /// The UCRPQ.
    pub query: Query,
    /// The skeleton shape used.
    pub shape: Shape,
    /// The selectivity class requested for this query slot (round-robin
    /// over [`WorkloadConfig::selectivities`]), if any.
    pub requested: Option<SelectivityClass>,
    /// The selectivity class the query actually satisfies, if any. `None`
    /// with `requested = Some(..)` means the target had to be abandoned.
    pub target: Option<SelectivityClass>,
    /// The estimator's α̂ for the generated query (binary chains only).
    pub estimated_alpha: Option<u8>,
    /// Number of relaxation steps applied during instantiation.
    pub relaxations: u32,
}

impl GeneratedQuery {
    /// A compact, deterministic metadata label for evaluation reports:
    /// target selectivity class, skeleton shape, arity, and recursion —
    /// the per-query context Section 7's tables annotate their rows with.
    /// Pure function of the generated query, so reports embedding it stay
    /// byte-identical across thread counts.
    pub fn eval_label(&self) -> String {
        format!(
            "class={} shape={} arity={} recursive={}",
            self.target
                .map_or_else(|| "-".to_owned(), |t| t.to_string()),
            self.shape,
            self.query.arity(),
            if self.query.is_recursive() {
                "yes"
            } else {
                "no"
            },
        )
    }
}

/// An error raised while constructing one workload query, tagged with the
/// failing query index so callers (the CLI in particular) can point at the
/// exact slot. In a parallel run the **lowest** failing index is reported,
/// independent of scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadError {
    /// Index of the query that failed (0-based generation order).
    pub index: usize,
    /// The underlying query-construction failure.
    pub source: QueryError,
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query {}: {}", self.index, self.source)
    }
}

impl std::error::Error for WorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The queries, in generation order.
    pub queries: Vec<GeneratedQuery>,
}

impl Workload {
    /// Queries targeted at a particular selectivity class.
    pub fn of_class(&self, class: SelectivityClass) -> impl Iterator<Item = &GeneratedQuery> {
        self.queries.iter().filter(move |q| q.target == Some(class))
    }
}

/// Summary of a workload generation run: its counters, and its diversity
/// — the paper's Section 1 design goal ("controlled instance and workload
/// diversity"), made inspectable: how the generated queries distribute
/// over shapes, selectivity classes, arities, and recursion, plus size
/// extremes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadReport {
    /// Queries produced.
    pub produced: usize,
    /// Queries whose selectivity target had to be abandoned (the class was
    /// unreachable in this schema even after relaxation).
    pub unsatisfied_selectivity: usize,
    /// Total relaxation steps applied across the workload.
    pub relaxations: u32,
    /// openCypher degradations (Section 7.1) summed over the workload.
    pub cypher: CypherCounts,
    /// Count per skeleton shape.
    pub by_shape: std::collections::BTreeMap<Shape, usize>,
    /// Count per honored selectivity class.
    pub by_class: std::collections::BTreeMap<SelectivityClass, usize>,
    /// Count per arity.
    pub by_arity: std::collections::BTreeMap<usize, usize>,
    /// Queries containing a Kleene star.
    pub recursive: usize,
    /// Largest rule count.
    pub max_rules: usize,
    /// Largest conjunct count.
    pub max_conjuncts: usize,
    /// Largest disjunct count.
    pub max_disjuncts: usize,
    /// Longest disjunct path.
    pub max_path_length: usize,
}

impl WorkloadReport {
    /// Folds one generated query into the report. Every counter is derived
    /// from the query itself (the requested-vs-satisfied target, the
    /// structural cypher degradations, the shape and sizes), so folding in
    /// any order — or merging per-worker partial reports — produces
    /// identical totals.
    pub fn absorb(&mut self, gq: &GeneratedQuery) {
        self.produced += 1;
        if gq.requested.is_some() && gq.target.is_none() {
            self.unsatisfied_selectivity += 1;
        }
        self.relaxations += gq.relaxations;
        self.cypher.add(&degrade(&gq.query).1);
        *self.by_shape.entry(gq.shape).or_insert(0) += 1;
        if let Some(t) = gq.target {
            *self.by_class.entry(t).or_insert(0) += 1;
        }
        *self.by_arity.entry(gq.query.arity()).or_insert(0) += 1;
        if gq.query.is_recursive() {
            self.recursive += 1;
        }
        let (rules, conjuncts, disjuncts, length) = gq.query.size();
        self.max_rules = self.max_rules.max(rules);
        self.max_conjuncts = self.max_conjuncts.max(conjuncts);
        self.max_disjuncts = self.max_disjuncts.max(disjuncts);
        self.max_path_length = self.max_path_length.max(length);
    }

    /// Merges another report in (see [`WorkloadReport::absorb`]): counts
    /// add and maxima combine, so any grouping gives the same result.
    pub fn merge(&mut self, other: &WorkloadReport) {
        self.produced += other.produced;
        self.unsatisfied_selectivity += other.unsatisfied_selectivity;
        self.relaxations += other.relaxations;
        self.cypher.star_concat += other.cypher.star_concat;
        self.cypher.star_inverse += other.cypher.star_inverse;
        for (&k, &v) in &other.by_shape {
            *self.by_shape.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.by_class {
            *self.by_class.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.by_arity {
            *self.by_arity.entry(k).or_insert(0) += v;
        }
        self.recursive += other.recursive;
        self.max_rules = self.max_rules.max(other.max_rules);
        self.max_conjuncts = self.max_conjuncts.max(other.max_conjuncts);
        self.max_disjuncts = self.max_disjuncts.max(other.max_disjuncts);
        self.max_path_length = self.max_path_length.max(other.max_path_length);
    }
}

impl std::fmt::Display for WorkloadReport {
    /// The diversity block of `report.txt`: totals, then the distribution
    /// over shapes, classes and arities, then the size maxima.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} queries ({} recursive)",
            self.produced, self.recursive
        )?;
        write!(f, "shapes:")?;
        for (shape, n) in &self.by_shape {
            write!(f, " {shape}={n}")?;
        }
        writeln!(f)?;
        write!(f, "classes:")?;
        for (class, n) in &self.by_class {
            write!(f, " {class}={n}")?;
        }
        writeln!(f)?;
        write!(f, "arities:")?;
        for (arity, n) in &self.by_arity {
            write!(f, " {arity}={n}")?;
        }
        writeln!(f)?;
        write!(
            f,
            "size maxima: rules={} conjuncts={} disjuncts={} path-length={}",
            self.max_rules, self.max_conjuncts, self.max_disjuncts, self.max_path_length
        )
    }
}

/// Maximum extra widening of `[l_min, l_max]` when relaxing (Section 5.2.4:
/// "we choose to relax the path length").
const MAX_RELAX: usize = 4;

/// RNG domain tag separating workload query streams from the graph
/// generator's constraint streams (see [`gmark_stats::Prng::split2`]):
/// with a shared `--seed`, query `i` and constraint `i` must not read the
/// same child stream.
const RNG_DOMAIN_WORKLOAD: u64 = 0x574B_4C44; // "WKLD"

/// Generates a query workload from a schema (Fig. 6), single-threaded:
/// [`generate_workload_with_threads`] with one thread.
pub fn generate_workload(
    schema: &Schema,
    config: &WorkloadConfig,
) -> Result<(Workload, WorkloadReport), WorkloadError> {
    WorkloadContext::new(schema, config).generate_all(1)
}

/// Generates a query workload on `threads` worker threads (Fig. 6, the
/// parallel pipeline of the module docs; `0` = every core). Output is
/// **bit-identical for every thread count**.
pub fn generate_workload_with_threads(
    schema: &Schema,
    config: &WorkloadConfig,
    threads: usize,
) -> Result<(Workload, WorkloadReport), WorkloadError> {
    WorkloadContext::new(schema, config).generate_all(threads)
}

/// The immutable shared snapshot of the workload pipeline: schema graph
/// `G_S`, type graph, and per relaxation level `G_sel` with its
/// `ChainSampler`s — built once, then read concurrently by worker threads
/// ([`WorkloadContext::generate`] takes `&self`).
pub struct WorkloadContext<'a> {
    schema: &'a Schema,
    config: &'a WorkloadConfig,
    master: Prng,
    gs: SchemaGraph,
    type_graph: TypeGraph,
    /// Per relaxation level: `G_sel` and one `ChainSampler` per class, in
    /// [`SelectivityClass::ALL`] order.
    levels: Vec<(SelectivityGraph, Vec<ChainSampler>)>,
}

impl<'a> WorkloadContext<'a> {
    /// Builds the shared selectivity context for `(schema, config)`.
    pub fn new(schema: &'a Schema, config: &'a WorkloadConfig) -> Self {
        let gs = SchemaGraph::build(schema);
        let max_conj = config.query_size.conjuncts.1.max(1);
        let levels = if config.selectivities.is_empty() {
            Vec::new()
        } else {
            (0..=MAX_RELAX)
                .map(|relax| {
                    let (lmin, lmax) = effective_lengths(config.query_size.length, relax);
                    let gsel = SelectivityGraph::build(&gs, lmin, lmax);
                    let samplers = SelectivityClass::ALL
                        .iter()
                        .map(|&class| ChainSampler::new(&gs, &gsel, class, max_conj))
                        .collect();
                    (gsel, samplers)
                })
                .collect()
        };
        WorkloadContext {
            schema,
            config,
            master: Prng::seed_from_u64(config.seed),
            type_graph: TypeGraph::build(schema),
            gs,
            levels,
        }
    }

    /// The selectivity class requested for query slot `i` (round-robin over
    /// the configuration's classes, which yields the balanced workloads the
    /// experiments need — e.g. 10/10/10 in Section 6.2).
    pub fn requested_target(&self, i: usize) -> Option<SelectivityClass> {
        if self.config.selectivities.is_empty() {
            None
        } else {
            Some(self.config.selectivities[i % self.config.selectivities.len()])
        }
    }

    /// Generates query `i` — a pure function of `(schema, config, i)`:
    /// the RNG stream is split off the master seed by query index, so the
    /// result is independent of which thread runs the call and in what
    /// order.
    pub fn generate(&self, i: usize) -> Result<GeneratedQuery, WorkloadError> {
        let mut rng = self.master.split2(RNG_DOMAIN_WORKLOAD, i as u64);
        let target = self.requested_target(i);
        let shape = self.config.shapes[i % self.config.shapes.len()];
        let arity = self.config.arity[i % self.config.arity.len()];
        self.generate_query(&mut rng, shape, arity, target)
            .map_err(|source| WorkloadError { index: i, source })
    }

    /// Generates the whole workload on `threads` workers (see
    /// [`generate_workload_with_threads`]). Collected in index order, so
    /// the error reported is the lowest failing index's.
    pub fn generate_all(
        &self,
        threads: usize,
    ) -> Result<(Workload, WorkloadReport), WorkloadError> {
        let queries = ordered_map(threads, self.config.size, |i| self.generate(i))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        let mut report = WorkloadReport::default();
        for gq in &queries {
            report.absorb(gq);
        }
        Ok((Workload { queries }, report))
    }

    fn generate_query(
        &self,
        rng: &mut Prng,
        shape: Shape,
        arity: usize,
        target: Option<SelectivityClass>,
    ) -> Result<GeneratedQuery, QueryError> {
        let n_rules = rng.range_inclusive(
            self.config.rules.0.max(1) as u64,
            self.config.rules.1.max(1) as u64,
        ) as usize;
        let mut relaxations = 0;
        let mut rules = Vec::with_capacity(n_rules);
        let mut satisfied_target = target;
        for _ in 0..n_rules {
            let (rule, relax, ok) = self.generate_rule(rng, shape, arity, target);
            relaxations += relax;
            if !ok {
                satisfied_target = None;
            }
            rules.push(rule);
        }
        let query = Query::new(rules)?;
        let estimated_alpha = Estimator::new(self.schema).alpha(&query);
        Ok(GeneratedQuery {
            query,
            shape,
            requested: target,
            target: satisfied_target,
            estimated_alpha,
            relaxations,
        })
    }

    /// Generates one rule; returns `(rule, relaxation steps, selectivity
    /// target honored?)`.
    fn generate_rule(
        &self,
        rng: &mut Prng,
        shape: Shape,
        arity: usize,
        target: Option<SelectivityClass>,
    ) -> (Rule, u32, bool) {
        let (cmin, cmax) = self.config.query_size.conjuncts;
        let c = rng.range_inclusive(cmin.max(1) as u64, cmax.max(1) as u64) as usize;
        let skeleton = build_skeleton(shape, c);

        // Decide which conjuncts carry a Kleene star (probability p_r).
        let starred: Vec<bool> = (0..c)
            .map(|_| rng.chance(self.config.recursion_probability))
            .collect();

        // Selectivity-guided typing applies to binary queries (the paper's
        // guarantee) whose spine exists.
        if let (2, Some(target)) = (arity, target) {
            if let Some((rule, relax)) =
                self.instantiate_with_selectivity(rng, &skeleton, &starred, target)
            {
                return (rule, relax, true);
            }
            // Target unreachable: fall through to unconstrained
            // instantiation (reported by the caller).
            let rule = self.instantiate_unconstrained(rng, &skeleton, &starred, arity);
            return (rule, MAX_RELAX as u32, false);
        }
        let rule = self.instantiate_unconstrained(rng, &skeleton, &starred, arity);
        (rule, 0, true)
    }

    /// Section 5.2.4: type the spine with a `G_sel` walk, instantiate each
    /// spine conjunct with `G_S` paths, branches with type-graph walks.
    fn instantiate_with_selectivity(
        &self,
        rng: &mut Prng,
        skeleton: &Skeleton,
        starred: &[bool],
        target: SelectivityClass,
    ) -> Option<(Rule, u32)> {
        // Starred spine conjuncts become identity transitions; the G_sel
        // walk only needs one edge per non-starred spine conjunct. A fully
        // starred spine is pure identity, which can never realize the
        // Quadratic class (and Constant only when the schema has a fixed
        // type) — in that case un-star conjuncts until a walk exists,
        // another instance of the paper's relax-don't-backtrack policy.
        let mut starred = starred.to_vec();
        while skeleton.spine.iter().all(|&(ci, _)| starred[ci])
            && self.identity_node_of_class(target).is_none()
        {
            let &(ci, _) = skeleton
                .spine
                .iter()
                .find(|&&(ci, _)| starred[ci])
                .expect("loop condition guarantees a starred conjunct");
            starred[ci] = false;
        }
        let starred = &starred[..];
        let spine_starred: Vec<bool> = skeleton.spine.iter().map(|&(ci, _)| starred[ci]).collect();
        let walk_len = spine_starred.iter().filter(|&&s| !s).count();

        let class = SelectivityClass::ALL
            .iter()
            .position(|&cl| cl == target)
            .expect("ALL lists every class");
        for (relax, (gsel, samplers)) in self.levels.iter().enumerate() {
            let sampler = &samplers[class];
            if walk_len == 0 {
                // All spine conjuncts starred: the chain class is the
                // identity — only achievable for the Linear/Constant
                // classes via a single identity node of matching card.
                // Type everything at one identity node of the right class.
                let node = self.identity_node_of_class(target)?;
                let nodes = vec![node; skeleton.spine.len() + 1];
                if let Some(rule) =
                    self.build_rule_from_typing(rng, skeleton, starred, &nodes, relax)
                {
                    return Some((rule, relax as u32));
                }
                continue;
            }
            if sampler.feasible(walk_len) <= 0.0 {
                continue;
            }
            // The G_sel typing guarantees the class along the *sampled*
            // typing; the same label paths may also be realizable through
            // other type combinations, whose class contributes to the true
            // α̂ = max over all endpoint types (Section 5.2.2). Verify the
            // finished rule with the static estimator and resample on
            // leakage — only checkable for non-recursive chains (the
            // estimator squares starred loops where generation used the
            // paper's `=`-inheritance, so recursive rules keep the
            // typing-level guarantee, exactly like the paper).
            for _attempt in 0..4 {
                let walk = sampler.sample(gsel, rng, walk_len)?;
                // Splice starred conjuncts back in as repeated nodes.
                let mut nodes = Vec::with_capacity(skeleton.spine.len() + 1);
                let mut w = 0;
                nodes.push(walk[0]);
                for &s in &spine_starred {
                    if s {
                        nodes.push(*nodes.last().unwrap());
                    } else {
                        w += 1;
                        nodes.push(walk[w]);
                    }
                }
                let Some(rule) = self.build_rule_from_typing(rng, skeleton, starred, &nodes, relax)
                else {
                    continue;
                };
                let verifiable = !rule.body.iter().any(|c| c.expr.is_recursive());
                if verifiable {
                    let est = Estimator::new(self.schema);
                    // `None` = non-chain shape: keep the typing guarantee.
                    if let Some(classes) = est.rule_classes(&rule) {
                        let alpha = classes.values().map(|t| t.alpha()).max().unwrap_or(0);
                        if alpha != target.alpha() {
                            continue; // leakage: resample the typing
                        }
                    }
                }
                return Some((rule, relax as u32));
            }
        }
        None
    }

    /// An identity-class `G_S` node whose triple matches `target` (only
    /// Constant → (1,=,1) and Linear → (N,=,N) are identities).
    fn identity_node_of_class(&self, target: SelectivityClass) -> Option<GsNodeId> {
        self.gs.valid_nodes().find(|&n| {
            let t = self.gs.triple_of(n);
            t.op == crate::selectivity::SelOp::Eq
                && t.left == t.right
                && SelectivityClass::of_triple(t) == target
                && !self.type_graph.successors(self.gs.type_of(n)).is_empty()
        })
    }

    /// Builds the full rule once the spine typing (a `G_S` node per spine
    /// position) is fixed.
    fn build_rule_from_typing(
        &self,
        rng: &mut Prng,
        skeleton: &Skeleton,
        starred: &[bool],
        nodes: &[GsNodeId],
        relax: usize,
    ) -> Option<Rule> {
        let lens = effective_lengths(self.config.query_size.length, relax);
        let mut exprs: Vec<Option<RegularExpr>> = vec![None; skeleton.conjuncts.len()];
        let mut var_types: Vec<Option<TypeId>> = vec![None; skeleton.var_count];

        // Spine conjuncts.
        for (pos, &(ci, reversed)) in skeleton.spine.iter().enumerate() {
            let (u, v) = (nodes[pos], nodes[pos + 1]);
            let (from_var, to_var) = skeleton.traversed(ci, reversed);
            var_types[from_var as usize] = Some(self.gs.type_of(u));
            var_types[to_var as usize] = Some(self.gs.type_of(v));
            let d = self.disjunct_count(rng);
            let expr = if starred[ci] {
                // Identity transition: loops on the node's type.
                self.star_loop_expr(rng, self.gs.type_of(u), d, lens)?
            } else {
                let paths = draw_disjuncts(rng, &self.gs.adj, (u.0, v.0), lens, d, vec![]);
                (!paths.is_empty()).then(|| RegularExpr::union(paths))?
            };
            // Orient the expression with the conjunct's declared direction.
            exprs[ci] = Some(if reversed { expr.reversed() } else { expr });
        }

        // Branch conjuncts (star/star-chain arms): type-graph walks anchored
        // at a variable whose type is already known.
        for &(ci, reversed) in &skeleton.branches {
            let (anchor, other) = skeleton.traversed(ci, reversed);
            let anchor_type = var_types[anchor as usize]?;
            let d = self.disjunct_count(rng);
            let expr = if starred[ci] {
                self.star_loop_expr(rng, anchor_type, d, lens).or_else(|| {
                    // No loop at this type: degrade to a non-recursive walk.
                    self.walk_expr(rng, anchor_type, d, lens).map(|(e, _)| e)
                })?
            } else {
                let (e, end) = self.walk_expr(rng, anchor_type, d, lens)?;
                var_types[other as usize] = Some(end);
                e
            };
            exprs[ci] = Some(if reversed { expr.reversed() } else { expr });
        }

        Some(Rule {
            head: vec![Var(skeleton.endpoints.0), Var(skeleton.endpoints.1)],
            body: skeleton.body(exprs)?,
        })
    }

    /// The disjunct count of one conjunct, drawn from `[d_min, d_max]`.
    fn disjunct_count(&self, rng: &mut Prng) -> usize {
        let (dmin, dmax) = self.config.query_size.disjuncts;
        rng.range_inclusive(dmin.max(1) as u64, dmax.max(1) as u64) as usize
    }

    /// A starred expression of type-level loops `T → T`.
    fn star_loop_expr(
        &self,
        rng: &mut Prng,
        t: TypeId,
        disjuncts: usize,
        lens: (usize, usize),
    ) -> Option<RegularExpr> {
        let adj = &self.type_graph.adj;
        let paths = draw_disjuncts(rng, adj, (t.0, t.0), lens, disjuncts, vec![]);
        (!paths.is_empty()).then(|| RegularExpr::star(paths))
    }

    /// A walk-based expression from `from`: one uniform random walk, then
    /// further disjuncts drawn to share its end type. Returns the
    /// expression and the end type.
    fn walk_expr(
        &self,
        rng: &mut Prng,
        from: TypeId,
        disjuncts: usize,
        lens: (usize, usize),
    ) -> Option<(RegularExpr, TypeId)> {
        let l0 = rng.range_inclusive(lens.0.max(1) as u64, lens.1.max(1) as u64) as usize;
        let (first, end) = self.type_graph.random_walk(rng, from, l0)?;
        let adj = &self.type_graph.adj;
        let first = vec![PathExpr(first)];
        let paths = draw_disjuncts(rng, adj, (from.0, end.0), lens, disjuncts, first);
        Some((RegularExpr::union(paths), end))
    }

    /// Instantiation without selectivity control: type-graph walks along the
    /// skeleton (still schema-coupled), random projection variables.
    fn instantiate_unconstrained(
        &self,
        rng: &mut Prng,
        skeleton: &Skeleton,
        starred: &[bool],
        arity: usize,
    ) -> Rule {
        let lens = effective_lengths(self.config.query_size.length, 0);
        let mut var_types: Vec<Option<TypeId>> = vec![None; skeleton.var_count];
        // Start type: one that has outgoing moves.
        let start_types: Vec<TypeId> = (0..self.schema.type_count())
            .map(TypeId)
            .filter(|&t| !self.type_graph.successors(t).is_empty())
            .collect();

        let mut exprs: Vec<Option<RegularExpr>> = vec![None; skeleton.conjuncts.len()];
        for &(ci, reversed) in skeleton.spine.iter().chain(&skeleton.branches) {
            let (anchor, other) = skeleton.traversed(ci, reversed);
            let anchor_type = var_types[anchor as usize].unwrap_or_else(|| {
                if start_types.is_empty() {
                    TypeId(0)
                } else {
                    *rng.choose(&start_types)
                }
            });
            var_types[anchor as usize] = Some(anchor_type);
            let d = self.disjunct_count(rng);
            let expr = if starred[ci] {
                self.star_loop_expr(rng, anchor_type, d, lens)
                    .unwrap_or_else(|| {
                        // No loops at this type: fall back to a single symbol
                        // star if any move exists, else an ε-star.
                        let succs = self.type_graph.successors(anchor_type);
                        if succs.is_empty() {
                            RegularExpr::star(vec![PathExpr::epsilon()])
                        } else {
                            let &(sym, _) = rng.choose(succs);
                            RegularExpr::star(vec![PathExpr::single(sym)])
                        }
                    })
            } else {
                match self.walk_expr(rng, anchor_type, d, lens) {
                    Some((e, end)) => {
                        var_types[other as usize] = Some(end);
                        e
                    }
                    None => {
                        // Dead-end type: emit an ε conjunct to stay
                        // well-formed (degenerate schemas only).
                        RegularExpr::path(PathExpr::epsilon())
                    }
                }
            };
            exprs[ci] = Some(if reversed { expr.reversed() } else { expr });
        }
        let body = skeleton
            .body(exprs)
            .expect("every conjunct is on the spine or a branch");

        // Projection: endpoints first (binary default), then random extras.
        let mut head = Vec::with_capacity(arity);
        let mut candidates: Vec<u32> = (0..skeleton.var_count as u32).collect();
        if arity >= 1 {
            head.push(Var(skeleton.endpoints.0));
            candidates.retain(|&v| v != skeleton.endpoints.0);
        }
        if arity >= 2 && skeleton.endpoints.1 != skeleton.endpoints.0 {
            head.push(Var(skeleton.endpoints.1));
            candidates.retain(|&v| v != skeleton.endpoints.1);
        }
        while head.len() < arity && !candidates.is_empty() {
            let i = rng.below(candidates.len() as u64) as usize;
            head.push(Var(candidates.swap_remove(i)));
        }
        Rule { head, body }
    }
}

/// Tops `paths` up to `wanted` distinct label paths `from → to` in `G_S`
/// or the type graph: a length in `[lmin, lmax]` weighted by how many
/// paths it has, then the counted walk of that length — every admissible
/// path equally likely (Section 5.2.4). At most `6 × wanted` draws, since
/// the schema may admit fewer distinct paths.
fn draw_disjuncts<N>(
    rng: &mut Prng,
    adj: &[Vec<(Symbol, N)>],
    (from, to): (usize, usize),
    (lmin, lmax): (usize, usize),
    wanted: usize,
    mut paths: Vec<PathExpr>,
) -> Vec<PathExpr>
where
    (Symbol, N): Step,
{
    if paths.len() >= wanted {
        return paths;
    }
    let counts = PathCounts::new(adj, [to], lmax);
    let weights: Vec<f64> = (0..=lmax)
        .map(|l| if l >= lmin { counts.get(l, from) } else { 0.0 })
        .collect();
    let mut attempts = 0;
    while paths.len() < wanted && attempts < wanted * 6 {
        attempts += 1;
        // No admissible length now means none ever: the weights are fixed.
        let Some(len) = rng.choose_weighted(&weights) else {
            break;
        };
        // A length drawn with positive weight always has a walk: every
        // step moves to a node with a positive count left, so the walk
        // never dead-ends — skipping here and giving up cannot differ.
        let Some(steps) = counts.walk(adj, rng, from, len) else {
            continue;
        };
        let path = PathExpr(steps.into_iter().map(|(sym, _)| sym).collect());
        if !paths.contains(&path) {
            paths.push(path);
        }
    }
    paths
}

fn effective_lengths(base: (usize, usize), relax: usize) -> (usize, usize) {
    let lmin = if relax == 0 { base.0.max(1) } else { 1 };
    let lmax = base.1.max(base.0.max(1)) + relax;
    (lmin, lmax)
}

/// A query skeleton (Fig. 6, line 2): conjuncts over numbered variables,
/// partitioned into the *spine* (the path between the two endpoint
/// variables, traversal direction included) and *branches* (the remaining
/// conjuncts, anchored at spine variables).
#[derive(Debug, Clone)]
struct Skeleton {
    conjuncts: Vec<(u32, u32)>,
    var_count: usize,
    /// `(conjunct index, reversed?)` along the endpoint-to-endpoint path.
    spine: Vec<(usize, bool)>,
    /// `(conjunct index, reversed?)`, anchored at an already-typed variable.
    branches: Vec<(usize, bool)>,
    endpoints: (u32, u32),
}

impl Skeleton {
    /// Conjunct `ci`'s variables in traversal order: `(src, trg)`, swapped
    /// when `reversed`.
    fn traversed(&self, ci: usize, reversed: bool) -> (u32, u32) {
        let (src, trg) = self.conjuncts[ci];
        if reversed {
            (trg, src)
        } else {
            (src, trg)
        }
    }

    /// The rule body once every conjunct has its expression; `None` if one
    /// is missing.
    fn body(&self, exprs: Vec<Option<RegularExpr>>) -> Option<Vec<Conjunct>> {
        self.conjuncts
            .iter()
            .zip(exprs)
            .map(|(&(s, t), expr)| {
                Some(Conjunct {
                    src: Var(s),
                    expr: expr?,
                    trg: Var(t),
                })
            })
            .collect()
    }
}

/// Builds the shape skeletons of Section 5.1: cycles are two chains sharing
/// their endpoints, stars are chains sharing the starting variable, and
/// star-chains combine chains and stars.
fn build_skeleton(shape: Shape, c: usize) -> Skeleton {
    let c = c.max(1);
    match shape {
        Shape::Chain => Skeleton {
            conjuncts: (0..c).map(|i| (i as u32, i as u32 + 1)).collect(),
            var_count: c + 1,
            spine: (0..c).map(|i| (i, false)).collect(),
            branches: Vec::new(),
            endpoints: (0, c as u32),
        },
        Shape::Star => {
            // Conjuncts (x0, Pi, xi). Spine: leaf 1 ← center → leaf 2
            // (first conjunct reversed) when c ≥ 2.
            let conjuncts: Vec<(u32, u32)> = (0..c).map(|i| (0, i as u32 + 1)).collect();
            if c == 1 {
                Skeleton {
                    conjuncts,
                    var_count: 2,
                    spine: vec![(0, false)],
                    branches: Vec::new(),
                    endpoints: (0, 1),
                }
            } else {
                Skeleton {
                    conjuncts,
                    var_count: c + 1,
                    spine: vec![(0, true), (1, false)],
                    branches: (2..c).map(|i| (i, false)).collect(),
                    endpoints: (1, 2),
                }
            }
        }
        Shape::Cycle => {
            // Two chains from x0 to x_mid sharing both endpoints.
            let c1 = c.div_ceil(2);
            let c2 = c - c1;
            let mut conjuncts = Vec::with_capacity(c);
            // Chain A: 0 -> 1 -> … -> c1.
            for i in 0..c1 {
                conjuncts.push((i as u32, i as u32 + 1));
            }
            // Chain B: 0 -> c1+1 -> … -> c1.
            let mut prev = 0u32;
            for j in 0..c2 {
                let next = if j + 1 == c2 {
                    c1 as u32
                } else {
                    (c1 + 1 + j) as u32
                };
                conjuncts.push((prev, next));
                prev = next;
            }
            let var_count = if c2 > 1 { c1 + c2 } else { c1 + 1 };
            Skeleton {
                conjuncts,
                var_count,
                spine: (0..c1).map(|i| (i, false)).collect(),
                branches: (c1..c).map(|i| (i, false)).collect(),
                endpoints: (0, c1 as u32),
            }
        }
        Shape::StarChain => {
            // A chain spine of ⌈c/2⌉ conjuncts with the remaining conjuncts
            // attached as branches to spine variables (round-robin).
            let spine_len = c.div_ceil(2);
            let mut conjuncts: Vec<(u32, u32)> =
                (0..spine_len).map(|i| (i as u32, i as u32 + 1)).collect();
            let mut var_count = spine_len + 1;
            let mut branches = Vec::new();
            for (b, _) in (spine_len..c).enumerate() {
                let anchor = (b % (spine_len + 1)) as u32;
                conjuncts.push((anchor, var_count as u32));
                branches.push((spine_len + b, false));
                var_count += 1;
            }
            Skeleton {
                conjuncts,
                var_count,
                spine: (0..spine_len).map(|i| (i, false)).collect(),
                branches,
                endpoints: (0, spine_len as u32),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Distribution, Occurrence, SchemaBuilder};

    /// Bib-flavoured schema rich enough to reach all three classes.
    fn test_schema() -> Schema {
        let mut b = SchemaBuilder::new();
        let researcher = b.node_type("researcher", Occurrence::Proportion(0.5));
        let paper = b.node_type("paper", Occurrence::Proportion(0.3));
        let conference = b.node_type("conference", Occurrence::Proportion(0.1));
        let city = b.node_type("city", Occurrence::Fixed(100));
        let authors = b.predicate("authors", Some(Occurrence::Proportion(0.5)));
        let published = b.predicate("publishedIn", Some(Occurrence::Proportion(0.3)));
        let held = b.predicate("heldIn", Some(Occurrence::Proportion(0.1)));
        b.edge(
            researcher,
            authors,
            paper,
            Distribution::gaussian(3.0, 1.0),
            Distribution::zipfian(2.5),
        );
        b.edge(
            paper,
            published,
            conference,
            Distribution::gaussian(30.0, 10.0),
            Distribution::uniform(1, 1),
        );
        b.edge(
            conference,
            held,
            city,
            Distribution::zipfian(2.5),
            Distribution::uniform(1, 1),
        );
        b.build().unwrap()
    }

    #[test]
    fn skeleton_chain() {
        let s = build_skeleton(Shape::Chain, 3);
        assert_eq!(s.conjuncts, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(s.var_count, 4);
        assert_eq!(s.endpoints, (0, 3));
        assert_eq!(s.spine.len(), 3);
        assert!(s.branches.is_empty());
    }

    #[test]
    fn skeleton_star() {
        let s = build_skeleton(Shape::Star, 3);
        assert_eq!(s.conjuncts, vec![(0, 1), (0, 2), (0, 3)]);
        // Spine goes leaf1 ← center → leaf2; third conjunct is a branch.
        assert_eq!(s.spine, vec![(0, true), (1, false)]);
        assert_eq!(s.branches, vec![(2, false)]);
        assert_eq!(s.endpoints, (1, 2));
    }

    #[test]
    fn skeleton_cycle() {
        let s = build_skeleton(Shape::Cycle, 4);
        // Two chains 0→1→2 and 0→3→2.
        assert_eq!(s.conjuncts, vec![(0, 1), (1, 2), (0, 3), (3, 2)]);
        assert_eq!(s.var_count, 4);
        assert_eq!(s.endpoints, (0, 2));
    }

    #[test]
    fn skeleton_cycle_small() {
        // c = 2: both chains are single conjuncts 0→1.
        let s = build_skeleton(Shape::Cycle, 2);
        assert_eq!(s.conjuncts, vec![(0, 1), (0, 1)]);
        assert_eq!(s.var_count, 2);
    }

    #[test]
    fn skeleton_star_chain() {
        let s = build_skeleton(Shape::StarChain, 4);
        assert_eq!(s.spine.len(), 2);
        assert_eq!(s.branches.len(), 2);
        // All variables distinct, branch anchors lie on the spine (0..=2).
        for &(ci, _) in &s.branches {
            let (src, _) = s.conjuncts[ci];
            assert!(src <= 2);
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let schema = test_schema();
        let cfg = WorkloadConfig::new(12).with_seed(99);
        let (w1, _) = generate_workload(&schema, &cfg).unwrap();
        let (w2, _) = generate_workload(&schema, &cfg).unwrap();
        assert_eq!(w1.queries.len(), 12);
        for (a, b) in w1.queries.iter().zip(&w2.queries) {
            assert_eq!(a.query, b.query);
        }
    }

    #[test]
    fn workload_balances_selectivity_classes() {
        let schema = test_schema();
        let cfg = WorkloadConfig::new(30).with_seed(1);
        let (w, report) = generate_workload(&schema, &cfg).unwrap();
        assert_eq!(report.produced, 30);
        let constant = w.of_class(SelectivityClass::Constant).count();
        let linear = w.of_class(SelectivityClass::Linear).count();
        let quadratic = w.of_class(SelectivityClass::Quadratic).count();
        // Round-robin: 10 of each, minus any unsatisfied.
        assert_eq!(
            constant + linear + quadratic + report.unsatisfied_selectivity,
            30
        );
        assert!(linear == 10, "linear {linear}");
        assert!(quadratic == 10, "quadratic {quadratic}");
    }

    #[test]
    fn generated_alpha_matches_target() {
        let schema = test_schema();
        let cfg = WorkloadConfig::new(30).with_seed(3);
        let (w, _) = generate_workload(&schema, &cfg).unwrap();
        for gq in &w.queries {
            if let (Some(target), Some(alpha)) = (gq.target, gq.estimated_alpha) {
                assert_eq!(
                    alpha,
                    target.alpha(),
                    "query {} should be {target}",
                    gq.query.display(&schema)
                );
            }
        }
    }

    #[test]
    fn size_constraints_respected() {
        let schema = test_schema();
        let mut cfg = WorkloadConfig::new(20).with_seed(4);
        cfg.query_size = QuerySize {
            conjuncts: (2, 3),
            disjuncts: (1, 2),
            length: (1, 2),
        };
        let (w, _) = generate_workload(&schema, &cfg).unwrap();
        for gq in &w.queries {
            let (_, conjuncts, disjuncts, length) = gq.query.size();
            assert!((2..=3).contains(&conjuncts), "conjuncts {conjuncts}");
            assert!(disjuncts <= 2, "disjuncts {disjuncts}");
            // Relaxation may extend lengths, but never below 1.
            assert!((1..=2 + MAX_RELAX).contains(&length), "length {length}");
        }
    }

    #[test]
    fn recursion_probability_one_stars_every_conjunct() {
        let schema = test_schema();
        let mut cfg = WorkloadConfig::new(10).with_seed(5);
        cfg.recursion_probability = 1.0;
        cfg.selectivities = vec![SelectivityClass::Linear];
        let (w, _) = generate_workload(&schema, &cfg).unwrap();
        for gq in &w.queries {
            assert!(gq.query.is_recursive(), "{}", gq.query.display(&schema));
        }
    }

    #[test]
    fn recursion_probability_zero_stars_nothing() {
        let schema = test_schema();
        let cfg = WorkloadConfig::new(10).with_seed(6);
        let (w, _) = generate_workload(&schema, &cfg).unwrap();
        assert!(w.queries.iter().all(|gq| !gq.query.is_recursive()));
    }

    #[test]
    fn boolean_and_nary_arities() {
        let schema = test_schema();
        let mut cfg = WorkloadConfig::new(9).with_seed(7);
        cfg.arity = vec![0, 1, 3];
        cfg.selectivities = Vec::new(); // arity != 2: no selectivity control
        cfg.query_size.conjuncts = (3, 3);
        let (w, _) = generate_workload(&schema, &cfg).unwrap();
        let arities: Vec<usize> = w.queries.iter().map(|g| g.query.arity()).collect();
        assert!(arities.contains(&0));
        assert!(arities.contains(&1));
        assert!(arities.contains(&3));
    }

    #[test]
    fn all_shapes_generate_well_formed_queries() {
        let schema = test_schema();
        let mut cfg = WorkloadConfig::new(16).with_seed(8);
        cfg.shapes = Shape::ALL.to_vec();
        cfg.query_size.conjuncts = (3, 4);
        let (w, _) = generate_workload(&schema, &cfg).unwrap();
        assert_eq!(w.queries.len(), 16);
        let mut seen = std::collections::HashSet::new();
        for gq in &w.queries {
            seen.insert(gq.shape);
            // Query::new already validated well-formedness at build time.
            assert!(gq.query.rules[0].well_formed().is_ok());
        }
        assert_eq!(seen.len(), 4, "all four shapes exercised");
    }

    #[test]
    fn diversity_summary_counts() {
        let schema = test_schema();
        let mut cfg = WorkloadConfig::new(12).with_seed(20);
        cfg.shapes = vec![Shape::Chain, Shape::Star];
        cfg.recursion_probability = 0.4;
        let (_, d) = generate_workload(&schema, &cfg).unwrap();
        assert_eq!(d.produced, 12);
        assert_eq!(d.by_shape.values().sum::<usize>(), 12);
        assert_eq!(d.by_shape.get(&Shape::Chain), Some(&6));
        assert_eq!(d.by_shape.get(&Shape::Star), Some(&6));
        assert_eq!(d.by_arity.get(&2), Some(&12));
        assert!(d.max_conjuncts >= 1 && d.max_conjuncts <= 3);
        let text = d.to_string();
        assert!(text.contains("12 queries"), "{text}");
        assert!(text.contains("chain=6"), "{text}");
    }

    #[test]
    fn multi_rule_queries() {
        let schema = test_schema();
        let mut cfg = WorkloadConfig::new(6).with_seed(9);
        cfg.rules = (2, 3);
        let (w, _) = generate_workload(&schema, &cfg).unwrap();
        for gq in &w.queries {
            assert!(gq.query.rules.len() >= 2);
            assert!(gq.query.rules.len() <= 3);
        }
    }

    #[test]
    fn symbols_reference_real_predicates() {
        let schema = test_schema();
        let cfg = WorkloadConfig::new(20).with_seed(10);
        let (w, _) = generate_workload(&schema, &cfg).unwrap();
        for gq in &w.queries {
            for rule in &gq.query.rules {
                for c in &rule.body {
                    for s in c.expr.symbols() {
                        assert!(s.predicate.0 < schema.predicate_count());
                    }
                }
            }
        }
    }
}
