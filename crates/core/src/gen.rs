//! The linear-time graph generation algorithm (Fig. 5 of the paper).
//!
//! For each constraint `η(T1, T2, a) = (D_in, D_out)` the algorithm
//!
//! 1. builds a vector `v_src` containing each node of type `T1` repeated
//!    `draw(D_out)` times, and a vector `v_trg` containing each node of type
//!    `T2` repeated `draw(D_in)` times (lines 2–6),
//! 2. shuffles both vectors (line 7),
//! 3. zips them, emitting `min(|v_src|, |v_trg|)` `a`-labeled edges
//!    (lines 8–9).
//!
//! The generator never backtracks and always returns a graph: when the two
//! vectors disagree in length the longer side is truncated, which is exactly
//! the heuristic relaxation the paper argues for (Section 4). Non-specified
//! distributions are handled by letting the specified side dictate the edge
//! count and connecting the unspecified side uniformly at random.
//!
//! The paper notes an optimization "exploiting the average information of
//! the Gaussian distributions to avoid entirely constructing the vectors":
//! because the zip of two shuffled vectors is an exchangeable random
//! matching, a Gaussian side with mean `μ` can be replaced by uniform node
//! sampling with an edge budget of `n_T · μ` — Gaussian degrees concentrate
//! around `μ`, so the matching distribution is nearly identical while the
//! memory for that side's vector (and its shuffle) disappears. The fast path
//! is on by default; [`GeneratorOptions::gaussian_fast_path`] turns it off.
//!
//! Each constraint is generated in two steps: a *setup* — steps 1 and 2,
//! the slot totals and vectors and their shuffles, leaving the RNG at the
//! zip's first draw — and a *draw* that zips the next `k` pairs (step 3).
//! Every entry point runs the one draw loop; they differ only in how many
//! pairs one call draws.
//!
//! Two ways out of the generator, each one [`gmark_store::emit`] fan-out.
//! [`generate_graph`] materializes: an [`ordered_map`] gives every
//! constraint its own builder and draws it whole, the builders are
//! absorbed in constraint order, and the CSR is finalized — memory grows
//! with the edge count. [`generate_streamed`] never holds the graph: its
//! emitter's units are fixed-size blocks of one constraint's pairs, drawn
//! in order under a lock and formatted as N-Triples in parallel, while
//! idle workers set up the constraints ahead. An [`OrderedEmitter`] writes
//! the blocks in ascending order in a single pass — no temporary file,
//! memory bounded by one set-up constraint's slot vectors per worker plus
//! a block of pairs per worker and a fixed parked budget. Either way
//! constraint `i` draws from an RNG stream split off the master seed by
//! `i` and lands in constraint order, so output never depends on the
//! thread count (the argument is made once, in [`gmark_store::emit`]).
//!
//! Because each constraint's edges are a pure function of (config, seed,
//! `i`), they can be drawn twice: [`generate_store`], the streamed
//! pipeline's paged store, regenerates one predicate at a time rather than
//! keeping the edges [`generate_streamed`] already wrote.
//!
//! These entry points are the graph half of the pipeline; the `gmark`
//! facade crate's `run` module orchestrates them (plan → options → sink)
//! behind one API and one error type — prefer that surface unless you
//! need this layer in isolation.

use crate::schema::{Distribution, GraphConfig};
use gmark_stats::{DegreeSampler, Prng, Zipf};
use gmark_store::{
    check_edge_total, ordered_map, resolve_threads, Csr, EdgeSink, EmitStats, Graph, GraphBuilder,
    Group, Grouped, NTriplesFormat, NTriplesWriter, NodeId, OrderedEmitter, PredIdx, StoreError,
    StoreInfo, StoreMeta, StoreWriter, TypePartition,
};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Options controlling graph generation.
#[derive(Debug, Clone)]
pub struct GeneratorOptions {
    /// Master seed; everything generated is a deterministic function of the
    /// configuration and this value.
    pub seed: u64,
    /// Enables the Gaussian fast path described in the module docs.
    pub gaussian_fast_path: bool,
    /// Number of worker threads for [`generate_graph`] /
    /// [`generate_streamed`]; constraints (or blocks of their edges) are
    /// spread across threads with per-constraint RNG splitting, so the
    /// result is identical for any thread count. `0` means every available core
    /// ([`gmark_store::resolve_threads`]).
    pub threads: usize,
}

impl Default for GeneratorOptions {
    fn default() -> Self {
        GeneratorOptions {
            seed: 0x674D_61726B,
            gaussian_fast_path: true,
            threads: 1,
        }
    }
}

impl GeneratorOptions {
    /// Options with a specific seed.
    pub fn with_seed(seed: u64) -> Self {
        GeneratorOptions {
            seed,
            ..Default::default()
        }
    }
}

/// Per-constraint generation outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintReport {
    /// Length of the (possibly virtual) source vector.
    pub src_slots: u64,
    /// Length of the (possibly virtual) target vector.
    pub trg_slots: u64,
    /// Edges actually emitted: `min(src_slots, trg_slots)`.
    pub edges: u64,
}

/// Summary of one generation run.
#[derive(Debug, Clone, Default)]
pub struct GenReport {
    /// Outcome per schema constraint, in declaration order.
    pub constraints: Vec<ConstraintReport>,
    /// Total edges emitted.
    pub total_edges: u64,
    /// Where the output time of a [`generate_streamed`] run went; `None`
    /// from the entry points that write nothing themselves.
    pub emit: Option<EmitStats>,
}

/// Generates all edges for `config`, streaming them into `sink`.
///
/// Node ids are assigned contiguously per type (see
/// [`TypePartition`]); the sink receives global node ids.
pub fn generate_into<S: EdgeSink>(
    config: &GraphConfig,
    opts: &GeneratorOptions,
    sink: &mut S,
) -> GenReport {
    let counts = config.node_counts();
    let partition = TypePartition::from_counts(&counts);
    let master = Prng::seed_from_u64(opts.seed);
    let mut report = GenReport::default();
    for idx in 0..config.schema.constraints().len() {
        let cr = generate_constraint(config, opts, idx, &partition, &master, sink);
        report.total_edges += cr.edges;
        report.constraints.push(cr);
    }
    report
}

/// Generates a full in-memory [`Graph`] on `opts.threads` workers.
///
/// Two [`ordered_map`] stages: every constraint fills its own builder,
/// the builders are absorbed in constraint order — the per-predicate edge
/// lists one builder fed constraint by constraint would hold — and the
/// CSR is finalized one predicate at a time, forward then transposed
/// ([`GraphBuilder::build_with_threads`]). The graph and report are
/// bit-identical for every thread count.
///
/// Panics where [`try_generate_graph`] returns an error.
pub fn generate_graph(config: &GraphConfig, opts: &GeneratorOptions) -> (Graph, GenReport) {
    try_generate_graph(config, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// [`generate_graph`], refusing a predicate whose edges one CSR cannot
/// hold ([`check_edge_total`]) with [`StoreError::TooManyEdges`] before the
/// CSR is built. Each constraint is set up before it draws and adds its
/// edge count to its predicate's running total; once that total is over
/// the limit, no constraint of the predicate draws a pair, so the refusal
/// costs set-ups, not edges.
pub fn try_generate_graph(
    config: &GraphConfig,
    opts: &GeneratorOptions,
) -> Result<(Graph, GenReport), StoreError> {
    let partition = TypePartition::from_counts(&config.node_counts());
    let pred_count = config.schema.predicate_count();
    let master = Prng::seed_from_u64(opts.seed);
    let totals: Vec<AtomicU64> = (0..pred_count).map(|_| AtomicU64::new(0)).collect();
    let shards = ordered_map(opts.threads, config.schema.constraints().len(), |idx| {
        let mut builder = GraphBuilder::new(partition.clone(), pred_count);
        let mut pairs = ConstraintPairs::setup(config, opts, idx, &partition, &master);
        let edges = pairs.report.edges;
        // The totals publish nothing else, and are read once every unit
        // has joined.
        let so_far = totals[pairs.pred].fetch_add(edges, Ordering::Relaxed) + edges;
        if check_edge_total(pairs.pred, so_far).is_ok() {
            pairs.draw(u64::MAX, &mut builder);
        }
        (builder, pairs.report)
    });
    for (pred, total) in totals.into_iter().enumerate() {
        check_edge_total(pred, total.into_inner())?;
    }
    let mut root = GraphBuilder::new(partition, pred_count);
    let mut report = GenReport::default();
    for (shard, cr) in shards {
        root.absorb(shard);
        report.total_edges += cr.edges;
        report.constraints.push(cr);
    }
    Ok((root.build_with_threads(opts.threads), report))
}

/// Options for [`generate_streamed`].
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Base IRI of the N-Triples output (no trailing slash needed).
    pub base: String,
    /// Unused: the streamed path keeps no temporary files, N-Triples or
    /// store. The field stays until these per-crate option structs are
    /// collapsed into the facade's `RunOptions`.
    pub scratch_dir: std::path::PathBuf,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            base: "http://gmark.example.org".to_owned(),
            scratch_dir: std::env::temp_dir(),
        }
    }
}

/// Pairs per unit of [`generate_streamed`]'s emitter: about 1 MB of
/// N-Triples, so a block behind the head parks whole.
const BLOCK_PAIRS: u64 = 8192;

/// Generates the graph as N-Triples straight into `out` without ever
/// materializing it: the memory-bounded counterpart of [`generate_graph`].
///
/// The units of the [`OrderedEmitter`] are fixed-size blocks of one
/// constraint's pairs, numbered in (constraint, block) order as they are
/// handed out ([`Grouped`]). On `opts.threads` workers (0 = every core),
/// a worker sets up the next constraint — its slot vectors, drawn and
/// shuffled — while fewer than one per worker are set up; otherwise it
/// draws the next block's pairs from the lowest unfinished constraint,
/// under the claim lock since the constraint's RNG is sequential, and
/// formats them outside it. The emitter writes block `i` after every
/// block below `i`: the worker on the head writes straight through to
/// `out`, the others park a bounded number of bytes and then wait their
/// turn. One pass, no temporary file. Peak memory is bounded by the slot
/// vectors of at most one set-up constraint per worker
/// (`O(max type size · mean degree)` each), plus one block of pairs and
/// one 256 KiB write buffer per worker and the emitter's fixed parked
/// budget — not by the total edge count. This is what makes the paper's
/// Table 3 scale (10⁹ edges) reachable.
///
/// The output is **byte-identical for every thread count, including 1**,
/// and equals [`generate_into`] feeding one [`NTriplesWriter`] (see the
/// module docs). Unlike [`generate_graph`]'s serialization, the stream
/// preserves generation order and keeps duplicate triples (RDF set
/// semantics make the data equivalent).
///
/// The first write error stops the run: no further block is claimed,
/// parked workers wake, and the error is returned. Since `out` is written
/// from worker threads it must be `Send`.
///
/// Returns the generation report and the number of triples written.
pub fn generate_streamed<W: std::io::Write + Send>(
    config: &GraphConfig,
    opts: &GeneratorOptions,
    stream: &StreamOptions,
    out: &mut W,
) -> std::io::Result<(GenReport, u64)> {
    let n_constraints = config.schema.constraints().len();
    // Encode the predicate alphabet once; every block's writer shares it.
    let format = std::sync::Arc::new(NTriplesFormat::new(
        &config.schema.predicate_names(),
        &stream.base,
    ));
    let partition = TypePartition::from_counts(&config.node_counts());
    let master = Prng::seed_from_u64(opts.seed);
    // The block count is known only once every constraint is set up.
    let threads = resolve_threads(opts.threads, usize::MAX);

    let reports = std::sync::Mutex::new(vec![None; n_constraints]);
    let blocks = Grouped::new(n_constraints, threads, |idx| {
        let pairs = ConstraintPairs::setup(config, opts, idx, &partition, &master);
        reports.lock().expect("held only to record a report")[idx] = Some(pairs.report.clone());
        pairs
    });
    let (written, emit) = OrderedEmitter::with_claims(out, blocks).run(
        threads,
        |written: &mut u64, block: Block, lane| -> std::io::Result<()> {
            let mut sink = NTriplesWriter::with_format(lane, format.clone());
            for (src, trg) in block.pairs {
                sink.edge(src, block.pred, trg);
            }
            *written += sink.finish()?;
            Ok(())
        },
    )?;

    let mut report = GenReport {
        emit: Some(emit),
        ..GenReport::default()
    };
    for cr in reports.into_inner().expect("held only to record a report") {
        let cr = cr.expect("every constraint is set up by a run that succeeds");
        report.total_edges += cr.edges;
        report.constraints.push(cr);
    }
    Ok((report, written.iter().sum()))
}

/// One unit of [`generate_streamed`]: up to [`BLOCK_PAIRS`] pairs of one
/// constraint, in generation order.
struct Block {
    pred: PredIdx,
    pairs: Vec<(NodeId, NodeId)>,
}

impl Group for ConstraintPairs {
    type Unit = Block;

    fn cut(&mut self) -> Option<Block> {
        if self.remaining() == 0 {
            return None;
        }
        let mut block = PairSink(Vec::with_capacity(BLOCK_PAIRS as usize));
        self.draw(BLOCK_PAIRS, &mut block);
        Some(Block {
            pred: self.pred,
            pairs: block.0,
        })
    }
}

/// Writes the paged store of the graph [`generate_streamed`] streams,
/// holding one predicate at a time instead of the whole graph.
///
/// Constraint `i` draws from `master.split(i)` wherever it runs, so its
/// edges can be generated again: for each predicate, the edges of its
/// constraints are regenerated in ascending constraint order, the
/// deduplicated forward CSR is built and its transpose taken — the
/// canonical sorted form, so the bytes equal those
/// [`StoreWriter::write_graph`] writes for [`generate_graph`]'s graph — and
/// both are written and dropped; the raw pairs are dropped as soon as the
/// forward CSR is built. One thread; the bytes never depend on
/// `opts.threads`. Peak memory
/// is bounded by the largest predicate, not the total edge count. A
/// predicate whose edges one CSR cannot hold is refused
/// ([`check_edge_total`]) before its constraint past the limit draws.
/// `meta.partition` must be `config`'s partition and
/// `meta.predicate_names` its alphabet.
pub fn generate_store(
    config: &GraphConfig,
    opts: &GeneratorOptions,
    path: &Path,
    meta: &StoreMeta,
) -> Result<StoreInfo, StoreError> {
    let partition = TypePartition::from_counts(&config.node_counts());
    let master = Prng::seed_from_u64(opts.seed);
    let constraints = config.schema.constraints();
    let mut writer = StoreWriter::create(path, meta)?;
    let mut edges = PairSink(Vec::new());
    for pred in 0..config.schema.predicate_count() {
        let mut total = 0;
        for idx in (0..constraints.len()).filter(|&i| constraints[i].predicate.0 == pred) {
            let mut pairs = ConstraintPairs::setup(config, opts, idx, &partition, &master);
            total += pairs.report.edges;
            check_edge_total(pred, total)?;
            // A constraint draws exactly its reported edges: no doubling
            // slack on the largest buffer of the pass.
            edges.0.reserve_exact(pairs.report.edges as usize);
            pairs.draw(u64::MAX, &mut edges);
        }
        // The raw pairs go as soon as the forward CSR holds them, so they
        // are never resident beside both CSRs.
        let raw = std::mem::take(&mut edges.0);
        let fwd = Csr::from_edges(raw.iter().copied());
        drop(raw);
        writer.write_segment(&fwd)?;
        writer.write_segment(&fwd.transpose())?;
    }
    writer.finish()
}

/// Collects the `(src, trg)` pairs of one predicate's edges.
struct PairSink(Vec<(NodeId, NodeId)>);

impl EdgeSink for PairSink {
    #[inline]
    fn edge(&mut self, src: NodeId, _pred: PredIdx, trg: NodeId) {
        self.0.push((src, trg));
    }
}

/// How one side of a constraint contributes edge endpoints.
enum SidePlan {
    /// Materialized, shuffled slot vector (Fig. 5's `v_src` / `v_trg`).
    Slots(Vec<NodeId>),
    /// `budget` endpoints drawn uniformly at random (non-specified sides
    /// and the Gaussian fast path).
    UniformDraws(u64),
}

impl SidePlan {
    fn total(&self) -> u64 {
        match self {
            SidePlan::Slots(v) => v.len() as u64,
            SidePlan::UniformDraws(b) => *b,
        }
    }
}

/// Generates constraint `idx` whole into `sink`: its setup, then every
/// pair.
fn generate_constraint<S: EdgeSink>(
    config: &GraphConfig,
    opts: &GeneratorOptions,
    idx: usize,
    partition: &TypePartition,
    master: &Prng,
    sink: &mut S,
) -> ConstraintReport {
    let mut pairs = ConstraintPairs::setup(config, opts, idx, partition, master);
    pairs.draw(u64::MAX, sink);
    pairs.report
}

/// One constraint between its two steps: set up — phases 1–3 done, both
/// slot vectors shuffled, the RNG positioned at the zip's first draw — and
/// drawn, `k` pairs at a time, in the order a single pass would emit them.
struct ConstraintPairs {
    rng: Prng,
    src_plan: SidePlan,
    trg_plan: SidePlan,
    n_src: u64,
    n_trg: u64,
    src_base: NodeId,
    trg_base: NodeId,
    pred: PredIdx,
    /// Pairs drawn so far.
    drawn: u64,
    report: ConstraintReport,
}

impl ConstraintPairs {
    /// Runs phases 1–3 and the shuffles of constraint `idx` on the RNG
    /// stream `master.split(idx)`.
    fn setup(
        config: &GraphConfig,
        opts: &GeneratorOptions,
        idx: usize,
        partition: &TypePartition,
        master: &Prng,
    ) -> ConstraintPairs {
        let mut rng = master.split(idx as u64);
        let c = &config.schema.constraints()[idx];
        let n_src = partition.count(c.source.0) as u64;
        let n_trg = partition.count(c.target.0) as u64;
        let (src_plan, trg_plan) = if n_src == 0 || n_trg == 0 {
            (SidePlan::UniformDraws(0), SidePlan::UniformDraws(0))
        } else {
            side_plans(config, opts, idx, n_src, n_trg, &mut rng)
        };
        let report = ConstraintReport {
            src_slots: src_plan.total(),
            trg_slots: trg_plan.total(),
            edges: src_plan.total().min(trg_plan.total()),
        };
        ConstraintPairs {
            rng,
            src_plan,
            trg_plan,
            n_src,
            n_trg,
            src_base: partition.range(c.source.0).start,
            trg_base: partition.range(c.target.0).start,
            pred: c.predicate.0,
            drawn: 0,
            report,
        }
    }

    /// Pairs not drawn yet.
    fn remaining(&self) -> u64 {
        self.report.edges - self.drawn
    }

    /// Emits the next `k` pairs (fewer at the end) into `sink`.
    fn draw<S: EdgeSink>(&mut self, k: u64, sink: &mut S) {
        let (start, end) = (self.drawn, self.drawn + k.min(self.remaining()));
        let (n_src, n_trg, pred) = (self.n_src, self.n_trg, self.pred);
        let rng = &mut self.rng;
        for i in start as usize..end as usize {
            let s = match &self.src_plan {
                SidePlan::Slots(v) => v[i],
                SidePlan::UniformDraws(_) => rng.below(n_src) as NodeId,
            };
            let t = match &self.trg_plan {
                SidePlan::Slots(v) => v[i],
                SidePlan::UniformDraws(_) => rng.below(n_trg) as NodeId,
            };
            sink.edge(self.src_base + s, pred, self.trg_base + t);
        }
        self.drawn = end;
    }
}

/// Phases 1–3 and the shuffles of constraint `idx`, whose endpoint types
/// hold `n_src` and `n_trg` nodes (both non-zero): the two sides' plans.
fn side_plans(
    config: &GraphConfig,
    opts: &GeneratorOptions,
    idx: usize,
    n_src: u64,
    n_trg: u64,
    rng: &mut Prng,
) -> (SidePlan, SidePlan) {
    let c = &config.schema.constraints()[idx];
    // Phase 1 — the non-Zipf sides fix their slot totals independently:
    // uniform/Gaussian sides draw per-node degrees (Fig. 5 lines 3–6); a
    // Gaussian side under the fast path contributes its expected total with
    // uniform endpoint draws; non-specified sides adapt to the other side.
    let fast_out = opts.gaussian_fast_path && c.dout.is_gaussian();
    let fast_in = opts.gaussian_fast_path && c.din.is_gaussian();
    let expected = |d: &Distribution, n_own: u64, n_other: u64| -> u64 {
        d.mean(n_other)
            .map(|m| (m * n_own as f64).round() as u64)
            .unwrap_or(0)
    };
    // `None` = side total still open (Zipf awaiting scaling, or
    // non-specified awaiting the opposite side).
    let mut src_total: Option<u64> = None;
    let mut trg_total: Option<u64> = None;
    let mut src_slots: Option<Vec<NodeId>> = None;
    let mut trg_slots: Option<Vec<NodeId>> = None;
    match &c.dout {
        Distribution::Zipfian { .. } | Distribution::NonSpecified => {}
        d if fast_out => src_total = Some(expected(d, n_src, n_trg)),
        d => {
            let v = fill_slots(n_src, &d.sampler(n_trg).expect("specified"), rng);
            src_total = Some(v.len() as u64);
            src_slots = Some(v);
        }
    }
    match &c.din {
        Distribution::Zipfian { .. } | Distribution::NonSpecified => {}
        d if fast_in => trg_total = Some(expected(d, n_trg, n_src)),
        d => {
            let v = fill_slots(n_trg, &d.sampler(n_src).expect("specified"), rng);
            trg_total = Some(v.len() as u64);
            trg_slots = Some(v);
        }
    }

    // Phase 2 — Zipfian sides. gMark's Zipfian constrains the *shape* of
    // the degree distribution, not its absolute mean (Section 4: "our
    // method relies on the types of distributions and not on the actual
    // parameters"). A Zipf side therefore scales its edge supply to match
    // the opposite side's total (or the predicate's occurrence budget),
    // apportioning that many slots across its nodes proportionally to iid
    // Zipf weights — keeping hubs heavy while never starving the opposite
    // side. Without this scaling, a fixed-size type (e.g. the 100 cities of
    // Fig. 2) could absorb only O(1) of a growing type's edges.
    let zipf_budget = |other: Option<u64>, own_natural: u64| -> u64 {
        other
            .or_else(|| {
                config
                    .schema
                    .predicate_constraint(c.predicate)
                    .map(|o| o.resolve(config.n))
            })
            .unwrap_or(own_natural)
    };
    if let Distribution::Zipfian { s } = c.dout {
        let sampler = Zipf::new(n_trg.max(1), s);
        let weights = zipf_weights(&sampler, n_src, rng);
        let natural: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        let m = zipf_budget(trg_total, natural);
        let v = apportion_slots(&weights, m);
        src_total = Some(v.len() as u64);
        src_slots = Some(v);
    }
    if let Distribution::Zipfian { s } = c.din {
        let sampler = Zipf::new(n_src.max(1), s);
        let weights = zipf_weights(&sampler, n_trg, rng);
        let natural: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        let m = zipf_budget(src_total, natural);
        let v = apportion_slots(&weights, m);
        trg_total = Some(v.len() as u64);
        trg_slots = Some(v);
    }

    // Phase 3 — non-specified sides adopt the opposite side's total; with
    // both sides non-specified, the predicate's occurrence constraint
    // provides the budget (shared among that predicate's fully-unspecified
    // constraints), falling back to min(n_src, n_trg).
    if src_total.is_none() && trg_total.is_none() {
        let peers = config
            .schema
            .constraints()
            .iter()
            .filter(|o| {
                o.predicate == c.predicate && !o.din.is_specified() && !o.dout.is_specified()
            })
            .count()
            .max(1) as u64;
        let budget = config
            .schema
            .predicate_constraint(c.predicate)
            .map(|occ| occ.resolve(config.n) / peers)
            .unwrap_or_else(|| n_src.min(n_trg));
        src_total = Some(budget);
        trg_total = Some(budget);
    } else {
        if src_total.is_none() {
            src_total = trg_total;
        }
        if trg_total.is_none() {
            trg_total = src_total;
        }
    }
    let src_total = src_total.expect("resolved above");
    let trg_total = trg_total.expect("resolved above");

    // Phase 4 — Fig. 5 lines 7–9: shuffle, zip, truncate to the minimum.
    // The shuffles happen here, the zip in [`ConstraintPairs::draw`].
    let src_plan = match src_slots {
        Some(mut v) => {
            rng.shuffle(&mut v);
            SidePlan::Slots(v)
        }
        None => SidePlan::UniformDraws(src_total),
    };
    let trg_plan = match trg_slots {
        Some(mut v) => {
            rng.shuffle(&mut v);
            SidePlan::Slots(v)
        }
        None => SidePlan::UniformDraws(trg_total),
    };
    (src_plan, trg_plan)
}

/// One Zipf draw per node of a side of `n` nodes: the weights
/// [`apportion_slots`] shares the side's slots by. A draw is at most the
/// opposite type's node count, so it fits a `u32`.
fn zipf_weights(sampler: &Zipf, n: u64, rng: &mut Prng) -> Vec<u32> {
    (0..n)
        .map(|_| u32::try_from(sampler.sample(rng)).expect("a Zipf draw is at most a node count"))
        .collect()
}

/// Lines 3–6 of Fig. 5: node `j` (within its type) appears `draw(D)` times.
fn fill_slots<D: DegreeSampler>(n: u64, dist: &D, rng: &mut Prng) -> Vec<NodeId> {
    let mut v = Vec::with_capacity((n as f64 * dist.mean()).ceil() as usize);
    for j in 0..n {
        let d = dist.sample(rng);
        for _ in 0..d {
            v.push(j as NodeId);
        }
    }
    v
}

/// Distributes exactly `total` slots across nodes proportionally to
/// `weights` (largest-remainder apportionment, [`apportion`]), returning
/// the slot vector in node order (callers shuffle).
fn apportion_slots(weights: &[u32], total: u64) -> Vec<NodeId> {
    let Some(degrees) = apportion(weights, total) else {
        return Vec::new();
    };
    let mut slots = Vec::with_capacity(total as usize);
    for (i, d) in degrees.enumerate() {
        slots.extend(std::iter::repeat_n(i as NodeId, d as usize));
    }
    slots
}

/// Largest-remainder apportionment of `total` slots in proportion to
/// `weights`: node `i`'s degree is the floor of its exact share `w_i ·
/// total / Σw`, plus one if its fractional remainder is among the
/// `deficit` largest, `deficit` being what the floors leave of `total`.
/// `None` when there is nothing to share (`Σw = 0` or `total = 0`).
///
/// No share is stored per node: a share depends only on its weight, so it
/// is worked out from the weight, by that one expression, wherever it is
/// needed — once per weight below `MEMO` (most Zipf draws are small), on
/// each use above it. The largest remainders are picked by
/// `select_nth_unstable_by` over the node indices, comparing remainders
/// only. Its partition path depends on the comparisons alone, not on the
/// element type, so among tied remainders it picks the nodes a selection
/// over `(remainder, index)` pairs picks — the generated graphs depend on
/// that, and the reference test below pins it. The winners are marked in
/// a bitset. The scratch is 4 B (the indices) and one bit a node, the
/// indices only while there is a deficit; the degrees come out lazily, in
/// node order.
fn apportion(weights: &[u32], total: u64) -> Option<impl Iterator<Item = u64> + '_> {
    let w_sum: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    if w_sum == 0 || total == 0 {
        return None;
    }
    const MEMO: u32 = 1024;
    let split = move |w: u32| {
        let share = w as f64 * total as f64 / w_sum as f64;
        let floor = share.floor() as u64;
        (floor, share - floor as f64)
    };
    let memo: Vec<(u64, f64)> = (0..MEMO).map(split).collect();
    let parts = move |memo: &[(u64, f64)], i: usize| match memo.get(weights[i] as usize) {
        Some(&parts) => parts,
        None => split(weights[i]),
    };
    let n = weights.len();
    let assigned: u64 = (0..n).map(|i| parts(&memo, i).0).sum();
    let mut up = vec![0u64; n.div_ceil(64)];
    let deficit = (total.saturating_sub(assigned) as usize).min(n);
    if deficit > 0 {
        // Give the remaining slots to the largest fractional remainders.
        let remainder = |i: u32| parts(&memo, i as usize).1;
        let mut order: Vec<u32> = (0..n as u32).collect();
        let nth = n - deficit;
        order.select_nth_unstable_by(nth, |&a, &b| {
            remainder(a)
                .partial_cmp(&remainder(b))
                .expect("remainders are finite")
        });
        for &i in &order[nth..] {
            up[i as usize / 64] |= 1 << (i % 64);
        }
    }
    Some((0..n).map(move |i| parts(&memo, i).0 + (up[i / 64] >> (i % 64) & 1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Distribution, EdgeConstraint, Occurrence, Schema, SchemaBuilder};
    use gmark_store::{CountingSink, VecSink};

    fn two_type_schema(din: Distribution, dout: Distribution) -> Schema {
        let mut b = SchemaBuilder::new();
        let s = b.node_type("src", Occurrence::Proportion(0.5));
        let t = b.node_type("trg", Occurrence::Proportion(0.5));
        let p = b.predicate("p", None);
        b.edge(s, p, t, din, dout);
        b.build().unwrap()
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = GraphConfig::new(
            500,
            two_type_schema(Distribution::uniform(1, 3), Distribution::uniform(1, 3)),
        );
        let opts = GeneratorOptions::with_seed(7);
        let mut a = VecSink::default();
        let mut b = VecSink::default();
        generate_into(&cfg, &opts, &mut a);
        generate_into(&cfg, &opts, &mut b);
        assert_eq!(a.triples, b.triples);
        let mut c = VecSink::default();
        generate_into(&cfg, &GeneratorOptions::with_seed(8), &mut c);
        assert_ne!(a.triples, c.triples, "different seeds should differ");
    }

    #[test]
    fn exactly_one_macro_gives_out_degree_one() {
        let mut b = SchemaBuilder::new();
        let s = b.node_type("s", Occurrence::Fixed(50));
        let t = b.node_type("t", Occurrence::Fixed(10));
        let p = b.predicate("p", None);
        b.constraint(EdgeConstraint::exactly_one(s, p, t));
        let cfg = GraphConfig::new(60, b.build().unwrap());
        let mut sink = VecSink::default();
        generate_into(&cfg, &GeneratorOptions::with_seed(1), &mut sink);
        assert_eq!(sink.triples.len(), 50);
        let mut out_deg = vec![0u32; 60];
        for (src, _, trg) in &sink.triples {
            out_deg[*src as usize] += 1;
            assert!((50..60).contains(trg), "targets must be of type t");
        }
        assert!(out_deg[..50].iter().all(|&d| d == 1));
    }

    #[test]
    fn at_most_one_macro_bounds_out_degree() {
        let mut b = SchemaBuilder::new();
        let s = b.node_type("s", Occurrence::Fixed(200));
        let t = b.node_type("t", Occurrence::Fixed(10));
        let p = b.predicate("p", None);
        b.constraint(EdgeConstraint::at_most_one(s, p, t));
        let cfg = GraphConfig::new(210, b.build().unwrap());
        let mut sink = VecSink::default();
        generate_into(&cfg, &GeneratorOptions::with_seed(2), &mut sink);
        let mut out_deg = vec![0u32; 210];
        for (src, _, _) in &sink.triples {
            out_deg[*src as usize] += 1;
        }
        assert!(out_deg.iter().all(|&d| d <= 1));
        // Expect roughly half the sources to emit an edge.
        assert!(
            (60..140).contains(&sink.triples.len()),
            "{}",
            sink.triples.len()
        );
    }

    #[test]
    fn none_macro_emits_nothing() {
        let mut b = SchemaBuilder::new();
        let s = b.node_type("s", Occurrence::Fixed(20));
        let t = b.node_type("t", Occurrence::Fixed(20));
        let p = b.predicate("p", None);
        b.constraint(EdgeConstraint::none(s, p, t));
        let cfg = GraphConfig::new(40, b.build().unwrap());
        let mut sink = CountingSink::new(1);
        generate_into(&cfg, &GeneratorOptions::with_seed(3), &mut sink);
        assert_eq!(sink.total(), 0);
    }

    #[test]
    fn both_specified_truncates_to_min_side() {
        // Sources supply 2 slots each (100 total), targets demand 1 each
        // (50 total): exactly 50 edges must be emitted (Fig. 5 line 8).
        let mut b = SchemaBuilder::new();
        let s = b.node_type("s", Occurrence::Fixed(50));
        let t = b.node_type("t", Occurrence::Fixed(50));
        let p = b.predicate("p", None);
        b.edge(
            s,
            p,
            t,
            Distribution::uniform(1, 1),
            Distribution::uniform(2, 2),
        );
        let cfg = GraphConfig::new(100, b.build().unwrap());
        let mut sink = VecSink::default();
        let report = generate_into(&cfg, &GeneratorOptions::with_seed(4), &mut sink);
        assert_eq!(report.constraints[0].src_slots, 100);
        assert_eq!(report.constraints[0].trg_slots, 50);
        assert_eq!(report.constraints[0].edges, 50);
        // Every target node has in-degree exactly 1.
        let mut in_deg = vec![0u32; 100];
        for (_, _, trg) in &sink.triples {
            in_deg[*trg as usize] += 1;
        }
        assert!(in_deg[50..].iter().all(|&d| d == 1));
    }

    #[test]
    fn zipfian_out_degrees_are_skewed() {
        let mut b = SchemaBuilder::new();
        let s = b.node_type("s", Occurrence::Proportion(0.5));
        let t = b.node_type("t", Occurrence::Proportion(0.5));
        let p = b.predicate("p", None);
        b.edge(
            s,
            p,
            t,
            Distribution::NonSpecified,
            Distribution::zipfian(2.5),
        );
        let cfg = GraphConfig::new(10_000, b.build().unwrap());
        let (g, _) = generate_graph(&cfg, &GeneratorOptions::with_seed(5));
        let degs = g.out_degrees(0, 0);
        let max = *degs.iter().max().unwrap();
        let mean = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
        assert!(
            max as f64 > 10.0 * mean,
            "power law should create hubs: max {max}, mean {mean}"
        );
    }

    #[test]
    fn csr_offsets_span_only_the_endpoint_types() {
        // A memory pin on structure rather than on a bench number: each
        // CSR holds at most one offset per node of the id hull of its
        // side's endpoint types, plus one — never one per graph node.
        let cfg = GraphConfig::new(20_000, crate::usecases::bib());
        let (g, _) = generate_graph(&cfg, &GeneratorOptions::with_seed(31));
        let partition = g.partition();
        let hull = |pred: usize, types: &dyn Fn(&EdgeConstraint) -> usize| -> usize {
            let ranges = cfg
                .schema
                .constraints()
                .iter()
                .filter(|c| c.predicate.0 == pred);
            let (lo, hi) = ranges
                .map(|c| partition.range(types(c)))
                .fold((NodeId::MAX, 0), |(lo, hi), r| {
                    (lo.min(r.start), hi.max(r.end))
                });
            hi.saturating_sub(lo) as usize
        };
        let (mut held, mut bound) = (0, 0);
        for pred in 0..g.predicate_count() {
            held += g.forward(pred).offsets().len() + g.backward(pred).offsets().len();
            bound += hull(pred, &|c| c.source.0) + 1 + hull(pred, &|c| c.target.0) + 1;
        }
        assert_eq!(g.predicate_count(), 4, "Bib has 8 CSRs");
        assert!(
            held <= bound,
            "{held} offset entries, endpoint-type hulls allow {bound}"
        );
        assert!(bound < 4 * g.node_count() as usize, "the pin must bite");
    }

    #[test]
    fn gaussian_degrees_concentrate() {
        let mut b = SchemaBuilder::new();
        let s = b.node_type("s", Occurrence::Proportion(0.5));
        let t = b.node_type("t", Occurrence::Proportion(0.5));
        let p = b.predicate("p", None);
        b.edge(
            s,
            p,
            t,
            Distribution::NonSpecified,
            Distribution::gaussian(5.0, 1.0),
        );
        let cfg = GraphConfig::new(4_000, b.build().unwrap());
        let opts = GeneratorOptions {
            gaussian_fast_path: false,
            ..GeneratorOptions::with_seed(6)
        };
        let (g, _) = generate_graph(&cfg, &opts);
        // NonSpecified in-dist: out-degrees are exact Gaussian draws.
        let degs = g.out_degrees(0, 0);
        let mean = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
        assert!((mean - 5.0).abs() < 0.3, "mean out-degree {mean}");
    }

    #[test]
    fn fast_path_preserves_edge_budget() {
        let mut b = SchemaBuilder::new();
        let s = b.node_type("s", Occurrence::Proportion(0.5));
        let t = b.node_type("t", Occurrence::Proportion(0.5));
        let p = b.predicate("p", None);
        b.edge(
            s,
            p,
            t,
            Distribution::gaussian(3.0, 0.5),
            Distribution::gaussian(3.0, 0.5),
        );
        let cfg = GraphConfig::new(2_000, b.build().unwrap());

        let mut fast = CountingSink::new(1);
        let fast_opts = GeneratorOptions {
            gaussian_fast_path: true,
            ..GeneratorOptions::with_seed(7)
        };
        generate_into(&cfg, &fast_opts, &mut fast);

        let mut slow = CountingSink::new(1);
        let slow_opts = GeneratorOptions {
            gaussian_fast_path: false,
            ..GeneratorOptions::with_seed(7)
        };
        generate_into(&cfg, &slow_opts, &mut slow);

        let (f, s) = (fast.total() as f64, slow.total() as f64);
        assert!((f - s).abs() / s < 0.05, "fast {f} vs slow {s}");
    }

    #[test]
    fn fixed_predicate_budget_for_unspecified_pair() {
        let mut b = SchemaBuilder::new();
        let s = b.node_type("s", Occurrence::Fixed(100));
        let t = b.node_type("t", Occurrence::Fixed(100));
        let p = b.predicate("p", Some(Occurrence::Fixed(777)));
        b.edge(
            s,
            p,
            t,
            Distribution::NonSpecified,
            Distribution::NonSpecified,
        );
        let cfg = GraphConfig::new(200, b.build().unwrap());
        let mut sink = CountingSink::new(1);
        generate_into(&cfg, &GeneratorOptions::with_seed(8), &mut sink);
        assert_eq!(sink.total(), 777);
    }

    #[test]
    fn parallel_generation_matches_sequential() {
        let schema = crate::schema::tests::example_3_3();
        let cfg = GraphConfig::new(2_000, schema);
        let seq_opts = GeneratorOptions {
            threads: 1,
            ..GeneratorOptions::with_seed(9)
        };
        let par_opts = GeneratorOptions {
            threads: 4,
            ..GeneratorOptions::with_seed(9)
        };
        let (g_seq, r_seq) = generate_graph(&cfg, &seq_opts);
        let (g_par, r_par) = generate_graph(&cfg, &par_opts);
        assert_eq!(r_seq.total_edges, r_par.total_edges);
        assert_eq!(r_seq.constraints, r_par.constraints);
        for pred in 0..g_seq.predicate_count() {
            let a: Vec<_> = g_seq.edges(pred).collect();
            let b: Vec<_> = g_par.edges(pred).collect();
            assert_eq!(a, b, "predicate {pred} edge sets must match");
        }
    }

    #[test]
    fn streamed_is_byte_identical_across_thread_counts() {
        let schema = crate::schema::tests::example_3_3();
        let cfg = GraphConfig::new(2_000, schema);
        let stream = StreamOptions::default();
        let mut baseline = Vec::new();
        let opts1 = GeneratorOptions {
            threads: 1,
            ..GeneratorOptions::with_seed(12)
        };
        let (r1, w1) = generate_streamed(&cfg, &opts1, &stream, &mut baseline).unwrap();
        assert!(w1 > 0);
        assert_eq!(r1.total_edges, w1);
        for threads in [2usize, 8] {
            let opts = GeneratorOptions {
                threads,
                ..GeneratorOptions::with_seed(12)
            };
            let mut buf = Vec::new();
            let (r, w) = generate_streamed(&cfg, &opts, &stream, &mut buf).unwrap();
            assert_eq!(buf, baseline, "{threads} threads: bytes differ");
            assert_eq!(w, w1);
            assert_eq!(r.constraints, r1.constraints);
        }
    }

    #[test]
    fn streamed_matches_sequential_sink_stream() {
        // The streamed file is exactly what generate_into + one N-Triples
        // writer produces: same edges, same order, duplicates kept.
        let schema = crate::schema::tests::example_3_3();
        let cfg = GraphConfig::new(1_000, schema.clone());
        let opts = GeneratorOptions {
            threads: 4,
            ..GeneratorOptions::with_seed(13)
        };
        let mut streamed = Vec::new();
        generate_streamed(&cfg, &opts, &StreamOptions::default(), &mut streamed).unwrap();

        let mut direct = Vec::new();
        let mut writer =
            gmark_store::NTriplesWriter::new(&mut direct, cfg.schema.predicate_names());
        generate_into(&cfg, &opts, &mut writer);
        writer.finish().unwrap();
        assert_eq!(streamed, direct);
    }

    /// Constraints of exactly one block, two blocks, no pair at all (a
    /// `none` macro, and an empty source type), one block and one pair.
    fn block_boundary_schema() -> Schema {
        let mut b = SchemaBuilder::new();
        let s = b.node_type("s", Occurrence::Fixed(1000));
        let t = b.node_type("t", Occurrence::Fixed(700));
        let empty = b.node_type("empty", Occurrence::Fixed(0));
        let budgets = [
            Some(BLOCK_PAIRS),
            Some(2 * BLOCK_PAIRS),
            None,
            Some(BLOCK_PAIRS + 1),
        ];
        for (i, budget) in budgets.into_iter().enumerate() {
            let p = b.predicate(&format!("p{i}"), budget.map(Occurrence::Fixed));
            match budget {
                Some(_) => b.edge(
                    s,
                    p,
                    t,
                    Distribution::NonSpecified,
                    Distribution::NonSpecified,
                ),
                None => b.constraint(EdgeConstraint::none(s, p, t)),
            };
        }
        let q = b.predicate("q", None);
        b.edge(
            empty,
            q,
            t,
            Distribution::uniform(1, 1),
            Distribution::uniform(1, 1),
        );
        b.build().unwrap()
    }

    #[test]
    fn streamed_equals_one_writer_at_every_block_boundary_and_thread_count() {
        let mut configs = vec![GraphConfig::new(1_700, block_boundary_schema())];
        for (_, schema) in crate::usecases::all() {
            configs.push(GraphConfig::new(30_000, schema));
        }
        let mut sizes = Vec::new();
        for cfg in &configs {
            let opts = GeneratorOptions::with_seed(17);
            let mut reference = Vec::new();
            let mut writer = NTriplesWriter::new(&mut reference, cfg.schema.predicate_names());
            generate_into(cfg, &opts, &mut writer);
            writer.finish().unwrap();
            let (_, materialised) = generate_graph(cfg, &opts);
            sizes.extend(materialised.constraints.iter().map(|c| c.edges));
            for threads in [1usize, 2, 3, 8] {
                let opts = GeneratorOptions {
                    threads,
                    ..opts.clone()
                };
                let mut streamed = Vec::new();
                let (report, written) =
                    generate_streamed(cfg, &opts, &StreamOptions::default(), &mut streamed)
                        .unwrap();
                assert!(streamed == reference, "{threads} threads: bytes differ");
                assert_eq!(report.constraints, materialised.constraints);
                assert_eq!(report.total_edges, materialised.total_edges);
                assert_eq!(written, materialised.total_edges);
            }
        }
        // The sizes the test must cover: a block boundary inside a
        // constraint, exactly at its end, one pair past it, and no pair.
        let b = BLOCK_PAIRS;
        assert!(sizes.iter().any(|&e| e > b && e % b > 1), "{sizes:?}");
        assert!(sizes.iter().any(|&e| e > 0 && e % b == 0), "{sizes:?}");
        assert!(sizes.iter().any(|&e| e > b && e % b == 1), "{sizes:?}");
        assert!(sizes.contains(&0), "{sizes:?}");
    }

    #[test]
    fn streamed_run_reports_where_its_output_time_went() {
        let cfg = GraphConfig::new(2_000, crate::schema::tests::example_3_3());
        let mut buf = Vec::new();
        let (report, _) = generate_streamed(
            &cfg,
            &GeneratorOptions::with_seed(12),
            &StreamOptions::default(),
            &mut buf,
        )
        .unwrap();
        let emit = report.emit.expect("streamed runs carry output stats");
        assert_eq!(emit.bytes, buf.len() as u64);
        assert!(emit.blocks >= 1);
        let (_, in_memory) = generate_graph(&cfg, &GeneratorOptions::with_seed(12));
        assert_eq!(in_memory.emit, None, "nothing was written");
    }

    /// Runs `f` on its own thread; a run that has not returned within a
    /// minute hangs the emitter and fails the test instead of stalling it.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(value) => value,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("generate_streamed hung"),
            Err(_) => std::panic::resume_unwind(thread.join().expect_err("sender dropped unsent")),
        }
    }

    /// Accepts `room` bytes; then every write fails, or panics.
    struct FailsAfter {
        room: usize,
        panics: bool,
    }

    impl std::io::Write for FailsAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.len() <= self.room {
                self.room -= buf.len();
                return Ok(buf.len());
            }
            assert!(!self.panics, "the output blew up");
            Err(std::io::Error::new(
                std::io::ErrorKind::StorageFull,
                "disk full",
            ))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streamed_write_error_fails_fast_at_every_thread_count() {
        // ≈ 9 MB of N-Triples over four constraints; the output dies in
        // the first, third and last of them.
        for threads in [1usize, 2, 8] {
            for room in [1usize << 20, 5 << 20, 8 << 20] {
                let err = within_a_minute(move || {
                    let cfg = GraphConfig::new(50_000, crate::schema::tests::example_3_3());
                    let opts = GeneratorOptions {
                        threads,
                        ..GeneratorOptions::with_seed(12)
                    };
                    let mut out = FailsAfter {
                        room,
                        panics: false,
                    };
                    generate_streamed(&cfg, &opts, &StreamOptions::default(), &mut out).unwrap_err()
                });
                assert_eq!(
                    err.kind(),
                    std::io::ErrorKind::StorageFull,
                    "{threads} threads, {room} bytes of room: {err}"
                );
            }
        }
    }

    #[test]
    fn streamed_panic_under_the_writer_unwinds_instead_of_hanging() {
        for threads in [1usize, 2, 8] {
            let panic = within_a_minute(move || {
                std::panic::catch_unwind(|| {
                    let cfg = GraphConfig::new(50_000, crate::schema::tests::example_3_3());
                    let opts = GeneratorOptions {
                        threads,
                        ..GeneratorOptions::with_seed(12)
                    };
                    let mut out = FailsAfter {
                        room: 5 << 20,
                        panics: true,
                    };
                    let _ = generate_streamed(&cfg, &opts, &StreamOptions::default(), &mut out);
                })
                .expect_err("the panic must reach the caller")
            });
            let message = panic.downcast_ref::<&str>();
            assert_eq!(message, Some(&"the output blew up"), "{threads} threads");
        }
    }

    #[test]
    fn zero_threads_means_auto_detect() {
        let opts = GeneratorOptions {
            threads: 0,
            ..Default::default()
        };
        let cfg = GraphConfig::new(
            300,
            two_type_schema(Distribution::uniform(1, 2), Distribution::uniform(1, 2)),
        );
        let mut auto = Vec::new();
        generate_streamed(&cfg, &opts, &StreamOptions::default(), &mut auto).unwrap();
        let mut one = Vec::new();
        let opts1 = GeneratorOptions {
            threads: 1,
            ..Default::default()
        };
        generate_streamed(&cfg, &opts1, &StreamOptions::default(), &mut one).unwrap();
        assert_eq!(auto, one);
    }

    #[test]
    fn empty_types_produce_no_edges() {
        let mut b = SchemaBuilder::new();
        let s = b.node_type("s", Occurrence::Fixed(0));
        let t = b.node_type("t", Occurrence::Fixed(10));
        let p = b.predicate("p", None);
        b.edge(
            s,
            p,
            t,
            Distribution::uniform(1, 1),
            Distribution::uniform(1, 1),
        );
        let cfg = GraphConfig::new(10, b.build().unwrap());
        let mut sink = CountingSink::new(1);
        let report = generate_into(&cfg, &GeneratorOptions::with_seed(10), &mut sink);
        assert_eq!(sink.total(), 0);
        assert_eq!(report.total_edges, 0);
    }

    #[test]
    fn targets_and_sources_respect_type_ranges() {
        let schema = crate::schema::tests::example_3_3();
        let cfg = GraphConfig::new(100, schema.clone());
        let mut sink = VecSink::default();
        generate_into(&cfg, &GeneratorOptions::with_seed(11), &mut sink);
        let counts = cfg.node_counts();
        let partition = TypePartition::from_counts(&counts);
        for (src, pred, trg) in &sink.triples {
            let st = partition.type_of(*src);
            let tt = partition.type_of(*trg);
            // Every emitted edge must correspond to some schema constraint.
            assert!(
                schema
                    .constraints()
                    .iter()
                    .any(|c| c.source.0 == st && c.target.0 == tt && c.predicate.0 == *pred),
                "edge ({src},{pred},{trg}) with types ({st},{tt}) matches no constraint"
            );
        }
    }

    #[test]
    fn a_predicate_past_u32_max_edges_is_refused_before_it_draws() {
        // Both sides non-specified: the predicate's occurrence is the
        // edge budget, and uniform draws need no slot vector, so the
        // refusal comes after the set-up, with no edge drawn.
        let mut b = SchemaBuilder::new();
        let s = b.node_type("s", Occurrence::Proportion(0.5));
        let t = b.node_type("t", Occurrence::Proportion(0.5));
        let small = b.predicate("small", None);
        let huge = b.predicate("huge", Some(Occurrence::Fixed(1 << 32)));
        b.edge(
            s,
            small,
            t,
            Distribution::uniform(1, 2),
            Distribution::uniform(1, 2),
        );
        b.edge(
            s,
            huge,
            t,
            Distribution::NonSpecified,
            Distribution::NonSpecified,
        );
        let cfg = GraphConfig::new(100, b.build().unwrap());
        let refused = |err: StoreError| match err {
            StoreError::TooManyEdges { predicate, edges } => (predicate, edges) == (1, 1 << 32),
            _ => false,
        };
        for threads in [1, 2] {
            let opts = GeneratorOptions {
                threads,
                ..GeneratorOptions::with_seed(3)
            };
            let err = try_generate_graph(&cfg, &opts).map(drop).unwrap_err();
            assert!(refused(err), "{threads} threads");
        }
        let dir = std::env::temp_dir().join(format!("gmark-gen-too-many-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let meta = StoreMeta {
            seed: 3,
            schema_hash: cfg.schema.schema_hash(),
            page_size: gmark_store::DEFAULT_PAGE_SIZE,
            predicate_names: cfg.schema.predicate_names(),
            partition: TypePartition::from_counts(&cfg.node_counts()),
        };
        let opts = GeneratorOptions::with_seed(3);
        let err = generate_store(&cfg, &opts, &dir.join("g.gstore"), &meta).unwrap_err();
        assert!(refused(err));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The apportionment as it was first written, kept as the reference:
    /// every node's degree, in a vector, with a `(remainder, index)` pair
    /// per node ranked by `select_nth_unstable_by`. `None` where it
    /// returned no slots at once.
    fn reference_degrees(weights: &[u64], total: u64) -> Option<Vec<u64>> {
        let w_sum: u64 = weights.iter().sum();
        if w_sum == 0 || total == 0 {
            return None;
        }
        let mut degrees: Vec<u64> = Vec::with_capacity(weights.len());
        let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(weights.len());
        let mut assigned: u64 = 0;
        for (i, &w) in weights.iter().enumerate() {
            let exact = w as f64 * total as f64 / w_sum as f64;
            let d = exact.floor() as u64;
            degrees.push(d);
            remainders.push((exact - d as f64, i));
            assigned += d;
        }
        let mut deficit = total.saturating_sub(assigned) as usize;
        if deficit > 0 {
            deficit = deficit.min(remainders.len());
            let nth = remainders.len() - deficit;
            remainders.select_nth_unstable_by(nth, |a, b| {
                a.0.partial_cmp(&b.0).expect("remainders are finite")
            });
            for &(_, i) in &remainders[nth..] {
                degrees[i] += 1;
            }
        }
        Some(degrees)
    }

    /// The reference's slot vector: node `i` repeated by its degree.
    fn reference_slots(weights: &[u64], total: u64) -> Vec<NodeId> {
        let Some(degrees) = reference_degrees(weights, total) else {
            return Vec::new();
        };
        let mut slots = Vec::with_capacity(total as usize);
        for (i, &d) in degrees.iter().enumerate() {
            for _ in 0..d {
                slots.push(i as NodeId);
            }
        }
        slots
    }

    /// What the floors leave of `total`, as both versions compute it.
    fn deficit(weights: &[u32], total: u64) -> u64 {
        let w_sum: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        let floors: u64 = weights
            .iter()
            .map(|&w| (w as f64 * total as f64 / w_sum as f64).floor() as u64)
            .sum();
        total.saturating_sub(floors)
    }

    /// Checks `apportion_slots` against the reference, slot for slot.
    fn same_slots(weights: &[u32], total: u64) {
        let wide: Vec<u64> = weights.iter().map(|&w| u64::from(w)).collect();
        assert_eq!(
            apportion_slots(weights, total),
            reference_slots(&wide, total),
            "{} weights, total {total}",
            weights.len()
        );
    }

    #[test]
    fn apportionment_gives_the_reference_slots() {
        let mut rng = Prng::seed_from_u64(51);
        let mut largest_deficit = (0, 1);
        // Zipf draws as the generator makes them: small exponents spread
        // the weights, large ones make nearly every draw 1, so most
        // remainders tie.
        for (n, support, s) in [
            (1usize, 1u64, 1.0),
            (7, 3, 2.5),
            (100, 10, 0.8),
            (1000, 50, 1.5),
            (1000, 2, 4.0),
            (5000, 1000, 3.0),
            (20_000, 200, 1.1),
        ] {
            let sampler = Zipf::new(support, s);
            let weights = zipf_weights(&sampler, n as u64, &mut rng);
            let natural: u64 = weights.iter().map(|&w| u64::from(w)).sum();
            for total in [1, 2, n as u64 / 3, n as u64, natural, 3 * n as u64 + 7] {
                same_slots(&weights, total);
                let d = deficit(&weights, total);
                if d * largest_deficit.1 > largest_deficit.0 * n as u64 {
                    largest_deficit = (d, n as u64);
                }
            }
        }
        assert!(
            largest_deficit.0 * 2 > largest_deficit.1,
            "some case leaves most nodes rounding up: {largest_deficit:?}"
        );
        // Heavy ties: every weight equal, every remainder 1/2 or 1/3.
        same_slots(&[1; 1000], 500);
        same_slots(&[3; 999], 1000);
        same_slots(&[7; 64], 96);
        // Nothing to share.
        same_slots(&[0; 10], 5);
        same_slots(&[], 5);
        same_slots(&[4, 1, 9], 0);
        assert!(apportion(&[0, 0], 3).is_none() && apportion(&[1, 2], 0).is_none());
        // Deficit 0: every share an integer.
        assert_eq!(deficit(&[2, 4, 6], 6), 0);
        same_slots(&[2, 4, 6], 6);
        same_slots(&[5; 40], 400);
    }

    #[test]
    fn apportionment_gives_the_reference_degrees_when_every_node_rounds_up() {
        // Shares beyond 2^53 lose their low bits: `total` = 2^54 + 2 is
        // 2^54 as an f64, so each of two equal weights floors to 2^53
        // and both nodes round up. The degrees are compared without
        // drawing the slots.
        for (weights, total) in [
            (vec![1u32, 1], (1u64 << 54) + 2),
            (vec![1, 1, 1, 1], (1 << 55) + 4),
            (vec![3, 1, 2, 2], (1 << 56) + 7),
        ] {
            let n = weights.len() as u64;
            let wide: Vec<u64> = weights.iter().map(|&w| u64::from(w)).collect();
            let got: Vec<u64> = apportion(&weights, total).expect("shares").collect();
            assert_eq!(Some(got), reference_degrees(&wide, total), "{weights:?}");
            if weights.iter().all(|&w| w == weights[0]) {
                assert_eq!(deficit(&weights, total), n, "{weights:?}");
            }
        }
    }
}
