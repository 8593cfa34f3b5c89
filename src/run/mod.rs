//! The unified pipeline API: one typed plan, one entry point, one error
//! type, one summary.
//!
//! The paper's Fig. 1 workflow is a single pipeline — schema → graph
//! instance → query workload → concrete syntaxes — and this module exposes
//! it as one:
//!
//! ```text
//! RunPlan (what)  +  RunOptions (how)  +  Sink (where)
//!          └────────────── run() ──────────────┘
//!                          │
//!                      RunSummary
//! ```
//!
//! * [`RunPlan`] — scenario schema, node count, workload specification,
//!   output selection, and optionally an [`EvalSpec`] that closes the
//!   Section 7 loop: the generated workload is *evaluated* against the
//!   generated graph across the in-repo engines (the CLI's `--eval`);
//! * [`RunOptions`] — seed, threads, streaming (collapsing the three
//!   per-crate option structs); `threads` drives graph constraints,
//!   workload queries, **and** the (engine × query) evaluation matrix;
//! * [`Sink`] — where artifact bytes go: [`DirSink`] (the CLI's file
//!   layout), [`MemorySink`] (tests/embedding), [`NullSink`]
//!   (benchmarks), or your own implementation;
//! * [`GmarkError`] — every failure of the pipeline behind one type;
//! * [`RunSummary`] — what happened, serializable to JSON;
//! * [`RunRequest`] — the one table of run parameters behind both front
//!   doors (the CLI's flags, `POST /v1/run`'s query string): one value
//!   parser, one statement of each coupling rule, one function from a
//!   request and a parsed plan to `(RunPlan, RunOptions)`.
//!
//! A run has one body of three stages — graph (+ store), workload,
//! evaluation — and each half of the summary is what its stage returned:
//! the generator's [`GenReport`](gmark_core::gen::GenReport), the store's
//! [`StoreInfo`](gmark_store::StoreInfo), the workload's
//! [`WorkloadReport`](gmark_core::workload::WorkloadReport), the
//! [`EvalSpec`] and the [`EvalReport`] of the matrix, beside the few
//! values only the run knows (node counts, triples written, seed,
//! document bytes, stage seconds).
//! [`run`] gives them a sink and streams artifacts through it without
//! materializing them; [`run_in_memory`] is the same stages without a
//! sink, returning the built [`Graph`] and [`Workload`] values for direct
//! use (evaluation engines, experiments).
//!
//! # Determinism
//!
//! Every byte produced through this API is a pure function of the plan
//! and the seed: thread count, streaming mode, and sink choice never
//! change workload bytes, and within one graph serialization mode the
//! graph bytes are identical at every thread count — **including one**:
//! every artifact written by several workers goes through one
//! [`gmark_store::OrderedEmitter`], which writes numbered units (blocks
//! of constraints' edges, predicates, queries) in ascending order
//! whoever produces them, and a single worker runs the same code with a
//! head that never waits. Streamed
//! and non-streamed graph output remain distinct serializations of the
//! same data: generation order with duplicates vs. sorted and
//! deduplicated.
//!
//! The evaluation stage keeps the same contract: cells are reassembled in
//! ascending `(query, engine)` order and neither the `eval.txt` artifact
//! nor the `eval` object of `summary.json` carries wall-clock content, so
//! both are byte-identical at every thread count whenever cell outcomes
//! don't race the per-cell time budget (no limit, a generous one, or an
//! expired one). Stage timing lives in `report.txt` and the CLI banner
//! instead.
//!
//! # Example
//!
//! ```
//! use gmark::run::{run, MemorySink, Artifact, RunOptions, RunPlan};
//! use gmark::prelude::WorkloadConfig;
//!
//! let plan = RunPlan::builder(gmark::core::usecases::bib())
//!     .nodes(500)
//!     .workload(WorkloadConfig::new(3))
//!     .build()?;
//! let mut sink = MemorySink::new();
//! let summary = run(&plan, &RunOptions::with_seed(7), &mut sink)?;
//! assert!(summary.graph.as_ref().unwrap().edges_written > 0);
//! assert!(!sink.bytes(Artifact::Sparql).unwrap().is_empty());
//! # Ok::<(), gmark::run::GmarkError>(())
//! ```

mod error;
mod options;
mod plan;
mod request;
mod sink;
mod summary;

pub use error::GmarkError;
pub use options::RunOptions;
pub use plan::{EvalSpec, OutputSelection, RunPlan, RunPlanBuilder};
pub use request::{Door, Param, RunRequest, PARAMS};
pub use sink::{Artifact, DirSink, MemorySink, NullSink, Sink};
pub use summary::{
    EvalRunSummary, GraphRunSummary, RunSummary, StoreRunSummary, WorkloadRunSummary,
};

use gmark_core::gen::{generate_store, generate_streamed, try_generate_graph};
use gmark_core::workload::{generate_workload_with_threads, Workload};
use gmark_engines::{evaluate_matrix_with_schema, EvalContext, EvalReport, MatrixOptions};
use gmark_store::{
    ordered_map, EdgeSink as _, EmitStats, Graph, GraphView, NTriplesFormat, NTriplesWriter,
    OrderedEmitter, StoreError, StoreMeta, StoreReader, StoreWriter, TypePartition,
    DEFAULT_PAGE_SIZE,
};
use gmark_translate::{stream_workload, write_workload, WorkloadOutputs};
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Executes a plan, streaming every artifact through the sink.
///
/// The graph is written as N-Triples (memory-bounded when
/// [`RunOptions::stream`] is set, materialized-then-serialized otherwise);
/// the workload streams through the parallel per-query pipeline. Both go
/// to their artifacts in one ordered pass — the only temporary file a run
/// ever creates is the staged store of a sink without real files
/// ([`RunOptions::scratch_dir`]).
/// Returns the [`RunSummary`] after [`Sink::finish`] has run.
pub fn run<S: Sink + ?Sized>(
    plan: &RunPlan,
    opts: &RunOptions,
    sink: &mut S,
) -> Result<RunSummary, GmarkError> {
    validate(plan, opts)?;
    Ok(run_stages(plan, opts, Some(sink))?.summary)
}

/// Everything [`run`] checks before any output is opened: the plan's own
/// consistency, plus the one rule that needs the options too. The request
/// doors call it as well ([`RunRequest::apply`]), so a library caller, the
/// CLI and the daemon get the same answer from the same line.
pub(crate) fn validate(plan: &RunPlan, opts: &RunOptions) -> Result<(), GmarkError> {
    plan.validate()?;
    if plan.eval.is_some() && opts.stream && !plan.outputs.store && plan.from_store.is_none() {
        return Err(GmarkError::Plan(
            "evaluation of a streamed run needs the on-disk store: add the store output \
             (--store) to evaluate through the paged store, or drop streaming (--stream) \
             for the in-memory engines"
                .to_owned(),
        ));
    }
    Ok(())
}

/// The materialized artifacts of [`run_in_memory`].
#[derive(Debug)]
pub struct RunArtifacts {
    /// The built graph instance, when the plan produced one.
    pub graph: Option<Graph>,
    /// The generated workload, when the plan produced one.
    pub workload: Option<Workload>,
    /// The run summary (per-constraint reports, workload counters and
    /// diversity, the full evaluation matrix with its measured wall times
    /// when the plan had an [`EvalSpec`]; document byte counts are zero —
    /// nothing was rendered).
    pub summary: RunSummary,
}

/// Executes a plan in memory, returning the built [`Graph`] and
/// [`Workload`] values instead of serialized artifacts.
///
/// This is the embedding entry point: evaluation engines, experiments,
/// and tests want the graph itself, not its N-Triples. It is [`run`]'s
/// three stages without a sink and with the built values kept —
/// generation is bit-identical (same seeds, same RNG streams, any thread
/// count), only the serialization step is skipped; [`RunOptions::stream`]
/// has nothing to stream into and is ignored.
pub fn run_in_memory(plan: &RunPlan, opts: &RunOptions) -> Result<RunArtifacts, GmarkError> {
    plan.validate()?;
    if plan.outputs.store || plan.from_store.is_some() {
        return Err(GmarkError::Plan(
            "the in-memory API does not handle on-disk stores (store output / \
             from_store): use run() with a sink"
                .to_owned(),
        ));
    }
    run_stages(plan, opts, None::<&mut NullSink>)
}

/// The one body of a run: graph (+ store), workload, evaluation, each
/// stage returning its half of the summary. With a sink every artifact is
/// serialized into it and only what a later stage needs stays in memory;
/// without one nothing is rendered and every built value is kept.
fn run_stages<S: Sink + ?Sized>(
    plan: &RunPlan,
    opts: &RunOptions,
    mut sink: Option<&mut S>,
) -> Result<RunArtifacts, GmarkError> {
    let consistency = consistency_findings(plan);
    let threads = opts.effective_threads();

    let mut graph = graph_stage(plan, opts, sink.as_deref_mut())?;
    let (workload_summary, workload) = workload_stage(plan, opts, sink.as_deref_mut())?;
    let eval = match &plan.eval {
        Some(spec) => {
            let workload = workload
                .as_ref()
                .expect("validated: eval runs imply a workload");
            Some(eval_stage(
                plan,
                spec,
                opts,
                &graph,
                workload,
                sink.as_deref_mut(),
            )?)
        }
        None => None,
    };

    let summary = RunSummary {
        config: plan.source.clone(),
        seed: opts.graph_seed(),
        threads,
        streamed: sink.is_some() && opts.stream && graph.summary.is_some(),
        consistency,
        graph: graph.summary,
        from_store: plan.from_store.clone(),
        store: graph.store,
        workload: workload_summary,
        eval,
    };
    if let Some(sink) = sink {
        // Sinks without real files receive the finished store bytes now
        // that the evaluation stage is done paging through the scratch
        // copy, which is deleted when `file` drops.
        if let Some(file) = graph.store_file.take().filter(|f| f.temporary) {
            let mut out = sink
                .open(Artifact::Store)
                .map_err(|e| GmarkError::io("opening graph.gstore", e))?;
            let mut scratch = File::open(&file.path)
                .map_err(|e| GmarkError::io("reading the scratch store", e))?;
            std::io::copy(&mut scratch, &mut out)
                .map_err(|e| GmarkError::io("writing graph.gstore", e))?;
            out.flush()
                .map_err(|e| GmarkError::io("flushing graph.gstore", e))?;
        }
        sink.finish(&summary)
            .map_err(|e| GmarkError::io("finishing outputs", e))?;
    }
    Ok(RunArtifacts {
        graph: graph.graph,
        workload,
        summary,
    })
}

/// What the graph stage hands the rest of the run.
#[derive(Default)]
struct GraphStage {
    summary: Option<GraphRunSummary>,
    store: Option<StoreRunSummary>,
    /// The materialized graph, kept when someone will read it: the
    /// evaluation stage, or the caller of [`run_in_memory`].
    graph: Option<Graph>,
    /// Where this run's store file lives.
    store_file: Option<StoreFile>,
}

/// This run's store file. A scratch temporary — the sink has no real file
/// for the store, and gets the bytes copied in after the evaluation stage
/// is done paging through them — is deleted when this drops, so a run
/// that fails at any point leaves none behind.
struct StoreFile {
    path: PathBuf,
    temporary: bool,
}

impl Drop for StoreFile {
    fn drop(&mut self) {
        if self.temporary {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Where a run with a sink puts the graph stage's bytes.
struct GraphOutputs {
    /// `graph.nt` — or a null writer for a store-only run, which executes
    /// the same generator (the store is just another serialization of the
    /// same edge stream) but renders no N-Triples artifact.
    ntriples: Box<dyn std::io::Write + Send>,
    /// The store file, when the plan has a store output.
    store_file: Option<StoreFile>,
}

/// Stage one: generate the graph and serialize it — as N-Triples, as the
/// paged store, as both, or (without a sink) not at all.
fn graph_stage<S: Sink + ?Sized>(
    plan: &RunPlan,
    opts: &RunOptions,
    sink: Option<&mut S>,
) -> Result<GraphStage, GmarkError> {
    let mut stage = GraphStage::default();
    if !(plan.outputs.graph || plan.outputs.store) {
        return Ok(stage);
    }
    let gen_opts = opts.generator_options();
    let mut outputs = match sink {
        Some(sink) => Some(GraphOutputs {
            store_file: plan.outputs.store.then(|| store_target(sink, opts)),
            ntriples: if plan.outputs.graph {
                sink.open(Artifact::Graph)
                    .map_err(|e| GmarkError::io("opening graph.nt", e))?
            } else {
                Box::new(std::io::sink())
            },
        }),
        None => None,
    };
    let start = Instant::now();
    let mut store = None;
    let (mut report, written) = match &mut outputs {
        Some(outputs) if opts.stream => {
            let generated = generate_streamed(
                &plan.graph,
                &gen_opts,
                &opts.stream_options(),
                &mut outputs.ntriples,
            )
            .map_err(|e| GmarkError::io("streaming graph.nt", e))?;
            // No CSR in RAM: once graph.nt is written, generate the
            // edges again one predicate at a time into the paged store.
            // The CSR canonicalization (sort + dedup per predicate) makes
            // the store bytes identical to a materialized build at every
            // thread count.
            if let Some(StoreFile { path, .. }) = &outputs.store_file {
                let store_start = Instant::now();
                let info = generate_store(&plan.graph, &gen_opts, path, &store_meta(plan, opts))?;
                store = Some(StoreRunSummary {
                    info,
                    seconds: store_start.elapsed().as_secs_f64(),
                });
            }
            generated
        }
        _ => {
            // The ordered-merge path at *every* thread count: materialize
            // (deterministic constraint-order merge), then serialize the
            // built graph — sorted, deduplicated, byte-identical for
            // T = 1, 2, 8, ….
            let (graph, mut report) = try_generate_graph(&plan.graph, &gen_opts)?;
            let written = match &mut outputs {
                Some(outputs) => {
                    let serialized = serialize_graph(&graph, plan, opts, outputs)?;
                    report.emit = serialized.emit;
                    store = serialized.store;
                    serialized.written
                }
                None => graph.edge_count() as u64,
            };
            if outputs.is_none() || plan.eval.is_some() {
                stage.graph = Some(graph);
            }
            (report, written)
        }
    };
    if let Some(outputs) = &mut outputs {
        outputs
            .ntriples
            .flush()
            .map_err(|e| GmarkError::io("flushing graph.nt", e))?;
    }
    // A store-only run formats into a null writer: nothing to report.
    report.emit = report.emit.filter(|_| plan.outputs.graph);
    stage.summary = Some(GraphRunSummary {
        nodes_requested: plan.graph.n,
        nodes_realized: plan.graph.realized_nodes(),
        edges_written: written,
        report,
        seconds: start.elapsed().as_secs_f64(),
    });
    stage.store = store;
    stage.store_file = outputs.and_then(|o| o.store_file);
    Ok(stage)
}

/// Stage two: generate the workload and render its five documents. The
/// queries are materialized only when someone will read them — the
/// evaluation stage, or the caller of [`run_in_memory`]; otherwise they
/// stream straight through the per-query pipeline into the sink.
fn workload_stage<S: Sink + ?Sized>(
    plan: &RunPlan,
    opts: &RunOptions,
    sink: Option<&mut S>,
) -> Result<(Option<WorkloadRunSummary>, Option<Workload>), GmarkError> {
    if !plan.outputs.workload {
        return Ok((None, None));
    }
    let mut wcfg = plan.workload.clone().expect("validated: workload present");
    if let Some(seed) = opts.seed {
        wcfg.seed = seed;
    }
    let mut outs = match sink {
        Some(sink) => {
            let mut open = |artifact| {
                sink.open(artifact)
                    .map_err(|e| GmarkError::io(format!("opening {artifact}"), e))
            };
            Some(WorkloadOutputs {
                rules: open(Artifact::Rules)?,
                sparql: open(Artifact::Sparql)?,
                cypher: open(Artifact::Cypher)?,
                sql: open(Artifact::Sql)?,
                datalog: open(Artifact::Datalog)?,
            })
        }
        None => None,
    };
    let start = Instant::now();
    let mut kept = None;
    let (report, bytes, emit) = match &mut outs {
        Some(outs) if plan.eval.is_none() => {
            let stream_opts = opts.workload_stream_options();
            let s = stream_workload(&plan.graph.schema, &wcfg, &stream_opts, outs)?;
            (s.report, s.bytes, Some(s.emit))
        }
        outs => {
            // Generate once (parallel); with a sink, render the documents
            // from the materialized workload — byte-identical to the
            // streamed path, which funnels through the same per-query
            // renderer.
            let (w, report) =
                generate_workload_with_threads(&plan.graph.schema, &wcfg, opts.threads)?;
            let bytes = match outs {
                Some(outs) => write_workload(&plan.graph.schema, &w.queries, outs)?,
                None => [0; 5],
            };
            kept = Some(w);
            (report, bytes, None)
        }
    };
    let summary = WorkloadRunSummary {
        seed: wcfg.seed,
        report,
        bytes,
        seconds: start.elapsed().as_secs_f64(),
        emit,
    };
    Ok((Some(summary), kept))
}

/// Stage three: run the workload through the engines — one shared
/// [`EvalContext`] over the graph view (in-memory CSR or paged store, the
/// engines cannot tell), every (query × engine) cell through the parallel
/// harness — and, with a sink, render `eval.txt`; without one nothing
/// pays for text it would discard.
fn eval_stage<S: Sink + ?Sized>(
    plan: &RunPlan,
    spec: &EvalSpec,
    opts: &RunOptions,
    graph: &GraphStage,
    workload: &Workload,
    sink: Option<&mut S>,
) -> Result<EvalRunSummary, GmarkError> {
    // The engines read a store whenever no materialized graph
    // exists: either the one this run just built (streamed --store) or
    // the one the plan points at (--from-store).
    let reader = match (&graph.graph, &plan.from_store, &graph.store_file) {
        (Some(_), _, _) => None,
        (None, Some(path), _) => Some(open_checked_store(path, plan)?),
        (None, None, Some(file)) => Some(StoreReader::open(&file.path)?),
        (None, None, None) => unreachable!("validated: eval implies a graph source"),
    };
    let view = match (&graph.graph, &reader) {
        (Some(g), _) => GraphView::from(g),
        (None, Some(r)) => GraphView::from(r),
        (None, None) => unreachable!(),
    };
    let start = Instant::now();
    let ctx = EvalContext::new(view);
    let queries: Vec<&gmark_core::query::Query> =
        workload.queries.iter().map(|gq| &gq.query).collect();
    let report = evaluate_matrix_with_schema(
        &ctx,
        Some(&plan.graph.schema),
        &queries,
        &spec.engines,
        &spec.cell_budget(),
        &MatrixOptions {
            threads: opts.threads,
            ..MatrixOptions::default()
        },
    );
    if let Some(sink) = sink {
        let rendered = render_eval_report(plan, spec, view, workload, &report);
        let mut out = sink
            .open(Artifact::EvalReport)
            .map_err(|e| GmarkError::io("opening eval.txt", e))?;
        out.write_all(rendered.as_bytes())
            .map_err(|e| GmarkError::io("writing eval.txt", e))?;
        out.flush()
            .map_err(|e| GmarkError::io("flushing eval.txt", e))?;
    }
    Ok(EvalRunSummary {
        spec: spec.clone(),
        report,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// What [`serialize_graph`] wrote.
#[derive(Default)]
struct Serialized {
    /// Triples written to `graph.nt`.
    written: u64,
    emit: Option<EmitStats>,
    /// The store written and the seconds it took.
    store: Option<StoreRunSummary>,
}

/// One serialization of a built graph.
#[derive(Clone, Copy)]
enum Serialization<'a> {
    NTriples,
    Store(&'a Path),
}

/// Writes a built graph to the plan's outputs — `graph.nt`, the store, or
/// both. The two are independent functions of the same `&Graph`, so they
/// are the units of one [`ordered_map`]: at one thread both run on the
/// caller, N-Triples first; from two up they run side by side, the store
/// writer on one of the `T` workers and the N-Triples emitter on the
/// other `T − 1`, so the run still uses exactly `T` threads. If both
/// fail, `graph.nt`'s error is the one reported.
fn serialize_graph(
    graph: &Graph,
    plan: &RunPlan,
    opts: &RunOptions,
    outputs: &mut GraphOutputs,
) -> Result<Serialized, GmarkError> {
    let mut units = Vec::with_capacity(2);
    if plan.outputs.graph {
        units.push(Serialization::NTriples);
    }
    if let Some(file) = &outputs.store_file {
        units.push(Serialization::Store(&file.path));
    }
    let ntriples_threads = match units.len() {
        2 => (opts.effective_threads() - 1).max(1),
        _ => opts.threads,
    };
    let ntriples = Mutex::new(&mut outputs.ntriples);
    let done = ordered_map(opts.threads, units.len(), |unit| -> Result<_, GmarkError> {
        Ok(match units[unit] {
            Serialization::NTriples => {
                let mut out = ntriples.lock().expect("one unit takes the lock, once");
                let (written, emit) =
                    write_ntriples(graph, plan, opts, ntriples_threads, &mut **out)
                        .map_err(|e| GmarkError::io("writing graph.nt", e))?;
                Serialized {
                    written,
                    emit: Some(emit),
                    store: None,
                }
            }
            Serialization::Store(target) => {
                let start = Instant::now();
                let info = StoreWriter::write_graph(target, &store_meta(plan, opts), graph)?;
                Serialized {
                    store: Some(StoreRunSummary {
                        info,
                        seconds: start.elapsed().as_secs_f64(),
                    }),
                    ..Serialized::default()
                }
            }
        })
    });
    let mut all = Serialized::default();
    for one in done {
        let one = one?;
        all.written += one.written;
        all.emit = all.emit.or(one.emit);
        all.store = all.store.or(one.store);
    }
    Ok(all)
}

/// Serializes a built graph as N-Triples on `threads` workers, one unit
/// per predicate: workers format predicates in parallel and the
/// [`OrderedEmitter`] writes them in predicate order — the bytes one
/// writer looping over the predicates produces. Returns the number of
/// triples written.
fn write_ntriples<W: std::io::Write + Send>(
    graph: &Graph,
    plan: &RunPlan,
    opts: &RunOptions,
    threads: usize,
    out: &mut W,
) -> std::io::Result<(u64, EmitStats)> {
    let format = std::sync::Arc::new(NTriplesFormat::new(
        &plan.graph.schema.predicate_names(),
        &opts.base_iri,
    ));
    let predicates = graph.predicate_count();
    let (written, emit) = OrderedEmitter::new(vec![out], predicates).run(
        threads,
        |written: &mut u64, pred, lanes| -> std::io::Result<()> {
            let mut writer = NTriplesWriter::with_format(&mut lanes[0], format.clone());
            for (src, trg) in graph.edges(pred) {
                writer.edge(src, pred, trg);
            }
            *written += writer.finish()?;
            Ok(())
        },
    )?;
    Ok((written.iter().sum(), emit))
}

/// The store header metadata for one plan + option set: everything a
/// [`StoreReader`] needs to validate and serve the file without the
/// generating configuration. A pure function of `(config, seed)` — the
/// reason store bytes are reproducible across pipelines and thread
/// counts.
fn store_meta(plan: &RunPlan, opts: &RunOptions) -> StoreMeta {
    StoreMeta {
        seed: opts.graph_seed(),
        schema_hash: plan.graph.schema.schema_hash(),
        page_size: DEFAULT_PAGE_SIZE,
        predicate_names: plan.graph.schema.predicate_names(),
        partition: TypePartition::from_counts(&plan.graph.node_counts()),
    }
}

/// Resolves where this run's store file is written: the sink's real path
/// when it offers one ([`Sink::local_path`]), else a uniquely named
/// temporary in [`RunOptions::scratch_dir`] (default
/// [`std::env::temp_dir`]) whose bytes are copied into the sink once the
/// run no longer needs the file.
fn store_target<S: Sink + ?Sized>(sink: &S, opts: &RunOptions) -> StoreFile {
    match sink.local_path(Artifact::Store) {
        Some(path) => StoreFile {
            path,
            temporary: false,
        },
        None => {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            StoreFile {
                path: opts
                    .scratch_dir
                    .clone()
                    .unwrap_or_else(std::env::temp_dir)
                    .join(format!(".gmark-store-{}-{n}.tmp", std::process::id())),
                temporary: true,
            }
        }
    }
}

/// Opens an existing store for `from_store`, refusing one generated from
/// a different schema, or one that fails [`StoreReader::verify`], before
/// any engine touches it.
fn open_checked_store(path: &Path, plan: &RunPlan) -> Result<StoreReader, GmarkError> {
    let reader = StoreReader::open(path)?;
    let expected = plan.graph.schema.schema_hash();
    if reader.schema_hash() != expected {
        return Err(StoreError::SchemaMismatch {
            path: path.to_path_buf(),
            expected,
            found: reader.schema_hash(),
        }
        .into());
    }
    reader.verify()?;
    Ok(reader)
}

/// Renders the deterministic `eval.txt` artifact: a header (config,
/// graph shape, engines, budget), the (query × engine) outcome matrix
/// with per-query workload metadata, and the outcome totals. Every byte
/// is a pure function of the plan and seed — thread count never changes
/// it.
fn render_eval_report(
    plan: &RunPlan,
    spec: &EvalSpec,
    view: GraphView<'_>,
    workload: &Workload,
    report: &EvalReport,
) -> String {
    let mut rendered = String::new();
    let _ = writeln!(rendered, "gMark evaluation report");
    match &plan.source {
        Some(path) => {
            let _ = writeln!(rendered, "config: {}", path.display());
        }
        None => {
            let _ = writeln!(rendered, "config: (programmatic plan)");
        }
    }
    let _ = writeln!(
        rendered,
        "graph: {} nodes, {} edges",
        view.node_count(),
        view.edge_count()
    );
    let engine_names: Vec<&str> = spec.engines.iter().map(|k| k.name()).collect();
    let _ = writeln!(rendered, "engines: {}", engine_names.join(" "));
    let _ = writeln!(
        rendered,
        "budget: {} per cell, max {} tuples",
        if spec.budget_ms == 0 {
            "unlimited time".to_owned()
        } else {
            format!("{} ms", spec.budget_ms)
        },
        spec.max_tuples
    );
    let _ = writeln!(
        rendered,
        "planner: {}",
        if report.planned { "on" } else { "off" }
    );
    match &report.cache {
        Some(stats) => {
            let _ = writeln!(
                rendered,
                "cache: on ({} entries, {} tuples, {} fills, {} hits / {} misses)",
                stats.entries, stats.tuples, stats.fills, stats.hits, stats.misses
            );
        }
        None => {
            let _ = writeln!(rendered, "cache: off");
        }
    }
    let labels: Vec<String> = workload.queries.iter().map(|gq| gq.eval_label()).collect();
    rendered.push_str(&report.render_with_labels(&labels));
    rendered
}

/// The Section 4 consistency check, rendered for the report (never fatal).
fn consistency_findings(plan: &RunPlan) -> Vec<String> {
    plan.graph
        .validate()
        .iter()
        .map(|issue| format!("{issue:?}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmark_core::usecases;
    use gmark_core::workload::WorkloadConfig;

    fn plan() -> RunPlan {
        RunPlan::builder(usecases::bib())
            .nodes(600)
            .workload(WorkloadConfig::new(5))
            .build()
            .unwrap()
    }

    /// The plan the evaluation tests share — Bib, 300 nodes, 3 queries, the
    /// deterministic regime (no clock, a 200 000-tuple cap) — with each
    /// test's own additions.
    fn eval_plan(shape: impl FnOnce(RunPlanBuilder) -> RunPlanBuilder) -> RunPlan {
        let spec = EvalSpec {
            budget_ms: 0,
            max_tuples: 200_000,
            ..EvalSpec::default()
        };
        let builder = RunPlan::builder(usecases::bib())
            .nodes(300)
            .workload(WorkloadConfig::new(3));
        shape(builder.eval(spec)).build().unwrap()
    }

    /// One artifact of one run through a [`MemorySink`].
    fn artifact_of(plan: &RunPlan, opts: RunOptions, artifact: Artifact) -> Vec<u8> {
        let mut sink = MemorySink::new();
        run(plan, &opts, &mut sink).unwrap();
        sink.bytes(artifact).unwrap()
    }

    #[test]
    fn default_mode_graph_bytes_are_identical_at_every_thread_count_including_one() {
        let graph = |threads| {
            let opts = RunOptions::with_seed(11).threads(threads);
            artifact_of(&plan(), opts, Artifact::Graph)
        };
        let baseline = graph(1);
        assert!(!baseline.is_empty());
        for threads in [2usize, 8] {
            assert_eq!(graph(threads), baseline, "1 vs {threads} threads");
        }
    }

    #[test]
    fn run_reports_match_what_the_sink_received() {
        let mut sink = MemorySink::new();
        let summary = run(&plan(), &RunOptions::with_seed(3), &mut sink).unwrap();
        let g = summary.graph.as_ref().unwrap();
        let graph_lines = sink.bytes(Artifact::Graph).unwrap();
        assert_eq!(
            g.edges_written,
            graph_lines.iter().filter(|&&b| b == b'\n').count() as u64
        );
        let w = summary.workload.as_ref().unwrap();
        assert_eq!(w.report.produced, 5);
        for (artifact, &bytes) in Artifact::WORKLOAD.iter().zip(&w.bytes) {
            assert_eq!(
                sink.bytes(*artifact).unwrap().len() as u64,
                bytes,
                "{artifact} byte count"
            );
        }
        assert!(sink.summary().is_some(), "finish must store the summary");
        assert!(!sink.bytes(Artifact::Report).unwrap().is_empty());
    }

    #[test]
    fn in_memory_run_matches_streamed_edge_counts() {
        // One body, with and without a sink: everything but the clock,
        // the rendered documents' byte counts and the output timing must
        // come out equal — edge counts, workload counters, eval rows.
        let plan = eval_plan(|plan| plan);
        fn comparable(mut summary: RunSummary) -> String {
            let graph = summary.graph.as_mut().unwrap();
            (graph.seconds, graph.report.emit) = (0.0, None);
            let workload = summary.workload.as_mut().unwrap();
            (workload.seconds, workload.emit, workload.bytes) = (0.0, None, [0; 5]);
            let eval = summary.eval.as_mut().unwrap();
            let report = &mut eval.report;
            (eval.seconds, report.fill_seconds, report.cells_seconds) = (0.0, 0.0, 0.0);
            for cell in &mut report.cells {
                cell.seconds = 0.0;
            }
            format!("{summary:?}")
        }
        for threads in [1usize, 2] {
            let opts = RunOptions::with_seed(7).threads(threads);
            let through_sink = run(&plan, &opts, &mut MemorySink::new()).unwrap();
            assert!(through_sink.workload.as_ref().unwrap().bytes[0] > 0);
            let mem = run_in_memory(&plan, &opts).unwrap();
            assert_eq!(mem.summary.workload.as_ref().unwrap().bytes, [0; 5]);
            assert!(mem.summary.graph.as_ref().unwrap().report.emit.is_none());
            assert!(mem.graph.unwrap().edge_count() > 0);
            assert_eq!(mem.workload.unwrap().queries.len(), 3);
            assert_eq!(mem.summary.eval.as_ref().unwrap().report.cells.len(), 12);
            assert_eq!(
                comparable(mem.summary),
                comparable(through_sink),
                "threads={threads}"
            );
        }
        // `stream` has nothing to stream into without a sink.
        let graph_only = RunPlan::builder(usecases::bib())
            .nodes(200)
            .build()
            .unwrap();
        let arts = run_in_memory(&graph_only, &RunOptions::with_seed(1).stream(true)).unwrap();
        assert!(!arts.summary.streamed && arts.graph.is_some());
    }

    #[test]
    fn eval_stage_writes_report_and_summary_rows() {
        let mut sink = MemorySink::new();
        let summary = run(
            &eval_plan(|plan| plan),
            &RunOptions::with_seed(7),
            &mut sink,
        )
        .unwrap();
        let eval = &summary.eval.as_ref().expect("eval stage ran").report;
        assert_eq!(eval.queries, 3);
        assert_eq!(eval.cells.len(), 12);
        assert_eq!(eval.totals().counts().iter().sum::<usize>(), 12);
        let text = String::from_utf8(sink.bytes(Artifact::EvalReport).unwrap()).unwrap();
        assert!(text.starts_with("gMark evaluation report"), "{text}");
        assert!(text.contains("engines: P/relational"), "{text}");
        assert!(text.contains("class="), "per-query metadata: {text}");
    }

    #[test]
    fn eval_rejects_the_streamed_pipeline_without_a_store() {
        let plan = RunPlan::builder(usecases::bib())
            .nodes(200)
            .workload(WorkloadConfig::new(2))
            .eval(EvalSpec::default())
            .build()
            .unwrap();
        let err = run(
            &plan,
            &RunOptions::with_seed(1).stream(true),
            &mut MemorySink::new(),
        )
        .unwrap_err();
        match err {
            GmarkError::Plan(msg) => {
                assert!(
                    msg.contains("--store"),
                    "should point at the store path: {msg}"
                )
            }
            other => panic!("wrong variant: {other}"),
        }
    }

    #[test]
    fn store_bytes_are_identical_across_thread_counts_and_pipelines() {
        // Every use case: LSN has predicates with more than one constraint.
        for (name, schema) in usecases::all() {
            let plan = RunPlan::builder(schema).nodes(400).store().build().unwrap();
            // Materialized T=1 is the baseline…
            let baseline = {
                let mut sink = MemorySink::new();
                let summary = run(&plan, &RunOptions::with_seed(11).threads(1), &mut sink).unwrap();
                let s = summary.store.as_ref().expect("store summary present");
                let bytes = sink.bytes(Artifact::Store).unwrap();
                assert_eq!(bytes.len() as u64, s.info.bytes, "{name}");
                assert!(s.info.edges > 0, "{name}");
                bytes
            };
            // …and the streamed (regenerating) pipeline must reproduce it
            // byte for byte at every thread count, as must a parallel
            // materialized run.
            for threads in [1usize, 2, 8] {
                let opts = RunOptions::with_seed(11).threads(threads).stream(true);
                let streamed = artifact_of(&plan, opts, Artifact::Store);
                assert!(
                    streamed == baseline,
                    "{name}: streamed store at {threads} threads"
                );
            }
            let opts = RunOptions::with_seed(11).threads(4);
            assert!(
                artifact_of(&plan, opts, Artifact::Store) == baseline,
                "{name}"
            );
        }
    }

    #[test]
    fn graph_and_store_bytes_are_identical_at_every_thread_count_and_sink() {
        // From two threads up the two serializations of one built graph
        // run side by side; neither may show in the other's bytes.
        let plan = RunPlan::builder(usecases::bib())
            .nodes(400)
            .store()
            .build()
            .unwrap();
        let opts = |threads| RunOptions::with_seed(11).threads(threads);
        // A MemorySink gets the store through a scratch file and a copy…
        let through_memory = |threads| {
            let mut sink = MemorySink::new();
            run(&plan, &opts(threads), &mut sink).unwrap();
            let graph = sink.bytes(Artifact::Graph).unwrap();
            (graph, sink.bytes(Artifact::Store).unwrap())
        };
        // …a DirSink has it written in place.
        let dir = std::env::temp_dir().join(format!("gmark-side-by-side-{}", std::process::id()));
        let through_dir = |threads| {
            let out = dir.join(format!("t{threads}"));
            run(&plan, &opts(threads), &mut DirSink::new(&out).unwrap()).unwrap();
            let graph = std::fs::read(out.join("graph.nt")).unwrap();
            (graph, std::fs::read(out.join("graph.gstore")).unwrap())
        };
        let baseline = through_memory(1);
        assert!(!baseline.0.is_empty() && !baseline.1.is_empty());
        for threads in [1usize, 2, 3, 8] {
            let (graph, store) = through_memory(threads);
            assert!(
                graph == baseline.0,
                "MemorySink graph.nt at {threads} threads"
            );
            assert!(
                store == baseline.1,
                "MemorySink graph.gstore at {threads} threads"
            );
            let (graph, store) = through_dir(threads);
            assert!(graph == baseline.0, "DirSink graph.nt at {threads} threads");
            assert!(
                store == baseline.1,
                "DirSink graph.gstore at {threads} threads"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sink whose `graph.nt` refuses every write past its first `limit`
    /// bytes. The other artifacts go nowhere; a store is staged as a
    /// temporary in [`RunOptions::scratch_dir`].
    struct FailingGraphSink {
        limit: usize,
    }

    struct FailAfter(usize);

    impl std::io::Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0 = self
                .0
                .checked_sub(buf.len())
                .ok_or_else(|| std::io::Error::other("graph.nt device full"))?;
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Sink for FailingGraphSink {
        fn open(&mut self, artifact: Artifact) -> std::io::Result<Box<dyn std::io::Write + Send>> {
            Ok(match artifact {
                Artifact::Graph => Box::new(FailAfter(self.limit)),
                _ => Box::new(std::io::sink()),
            })
        }
    }

    #[test]
    fn a_failing_graph_nt_fails_the_run_and_leaves_no_scratch_store() {
        let scratch = std::env::temp_dir().join(format!("gmark-failing-nt-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let plan = RunPlan::builder(usecases::bib())
            .nodes(2_000)
            .store()
            .build()
            .unwrap();
        for threads in [1usize, 2, 8] {
            let (plan, scratch_dir) = (plan.clone(), scratch.clone());
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let mut sink = FailingGraphSink { limit: 4096 };
                let mut opts = RunOptions::with_seed(11).threads(threads);
                opts.scratch_dir = Some(scratch_dir);
                let _ = tx.send(run(&plan, &opts, &mut sink).map(|_| ()));
            });
            let result = rx
                .recv_timeout(std::time::Duration::from_secs(120))
                .unwrap_or_else(|_| panic!("the run hangs at {threads} threads"));
            match result {
                Err(GmarkError::Io { context, source }) => {
                    assert_eq!(context, "writing graph.nt", "{threads} threads");
                    assert!(source.to_string().contains("device full"), "{source}");
                }
                other => panic!("{threads} threads: expected graph.nt's error, got {other:?}"),
            }
            let left: Vec<_> = std::fs::read_dir(&scratch)
                .unwrap()
                .map(|entry| entry.unwrap().file_name())
                .filter(|name| name.to_string_lossy().starts_with(".gmark-store-"))
                .collect();
            assert!(left.is_empty(), "{threads} threads left {left:?}");
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }

    /// The `"eval":…` suffix of `summary.json` — the byte-compared object
    /// (it is the last key, so the suffix is well-defined).
    fn eval_json(sink: &MemorySink) -> String {
        let json = String::from_utf8(sink.bytes(Artifact::Summary).unwrap()).unwrap();
        let start = json.find("\"eval\":").unwrap();
        json[start..].to_owned()
    }

    #[test]
    fn paged_evaluation_is_byte_identical_to_in_memory() {
        let (baseline_eval, baseline_json) = {
            let mut sink = MemorySink::new();
            run(
                &eval_plan(|plan| plan),
                &RunOptions::with_seed(7),
                &mut sink,
            )
            .unwrap();
            (sink.bytes(Artifact::EvalReport).unwrap(), eval_json(&sink))
        };
        // Streamed + store: the engines read the store file and
        // must produce the same eval.txt and `eval` summary object.
        let paged_plan = eval_plan(RunPlanBuilder::store);
        for threads in [1usize, 2, 8] {
            let mut sink = MemorySink::new();
            let summary = run(
                &paged_plan,
                &RunOptions::with_seed(7).threads(threads).stream(true),
                &mut sink,
            )
            .unwrap();
            assert!(summary.store.is_some());
            assert_eq!(
                sink.bytes(Artifact::EvalReport).unwrap(),
                baseline_eval,
                "paged eval.txt differs at {threads} threads"
            );
            assert_eq!(
                eval_json(&sink),
                baseline_json,
                "paged eval summary differs at {threads} threads"
            );
        }
    }

    /// The byte position of the first target of predicate 0's forward
    /// segment, laid out as `gmark_store::paged` documents, and the page
    /// size.
    fn first_target_pos(store: &Path) -> (u64, u64) {
        let reader = StoreReader::open(store).unwrap();
        let page = u64::from(reader.info().page_size);
        let names: u64 = reader
            .predicate_names()
            .iter()
            .map(|n| 4 + n.len() as u64)
            .sum();
        let header = 48 + names + (reader.partition().type_count() as u64 + 1) * 4;
        let forward = reader.csr(0, false).unwrap();
        assert!(forward.edge_count() > 0);
        let offsets = forward.offsets().len() as u64 * 4;
        (
            header.next_multiple_of(page) + offsets.next_multiple_of(page),
            page,
        )
    }

    #[test]
    fn from_store_reproduces_the_in_memory_eval_report() {
        // Build a store on disk with a DirSink (the in-place write path).
        let dir =
            std::env::temp_dir().join(format!("gmark-from-store-test-{}", std::process::id()));
        let store_plan = RunPlan::builder(usecases::bib())
            .nodes(300)
            .store()
            .build()
            .unwrap();
        let mut dir_sink = DirSink::new(&dir).unwrap();
        run(&store_plan, &RunOptions::with_seed(7), &mut dir_sink).unwrap();
        let store_path = dir.join("graph.gstore");
        assert!(store_path.exists(), "DirSink writes the store in place");

        let opts = RunOptions::with_seed(7);
        let baseline = artifact_of(&eval_plan(|plan| plan), opts, Artifact::EvalReport);
        let plan = eval_plan(|plan| plan.from_store(&store_path));
        let mut sink = MemorySink::new();
        let summary = run(&plan, &RunOptions::with_seed(7), &mut sink).unwrap();
        assert!(summary.graph.is_none(), "no graph was generated");
        assert!(summary.store.is_none(), "no store was written");
        assert_eq!(sink.bytes(Artifact::EvalReport).unwrap(), baseline);

        // A store from a different schema is refused before any engine
        // runs.
        let mut mismatched = plan.clone();
        mismatched.graph.schema = usecases::lsn();
        let err = run(
            &mismatched,
            &RunOptions::with_seed(7),
            &mut MemorySink::new(),
        )
        .unwrap_err();
        assert!(matches!(err, GmarkError::Store(_)), "{err}");

        // So is a store whose framing is intact but whose first target
        // has its top byte flipped out of the node range: the error names
        // the target's page, and no engine panics on it.
        let (target, page_size) = first_target_pos(&store_path);
        let mut bytes = std::fs::read(&store_path).unwrap();
        bytes[target as usize + 3] ^= 0xFF;
        std::fs::write(&store_path, &bytes).unwrap();
        let err = run(&plan, &RunOptions::with_seed(7), &mut MemorySink::new()).unwrap_err();
        assert!(
            matches!(
                &err,
                GmarkError::Store(StoreError::Corrupt { page: Some(p), .. })
                    if *p == target / page_size
            ),
            "{err}"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_and_default_modes_write_the_same_edge_multiset_size() {
        let plan = RunPlan::builder(usecases::bib())
            .nodes(400)
            .build()
            .unwrap();
        let mut a = MemorySink::new();
        let sa = run(&plan, &RunOptions::with_seed(9), &mut a).unwrap();
        let mut b = MemorySink::new();
        let sb = run(&plan, &RunOptions::with_seed(9).stream(true), &mut b).unwrap();
        assert_eq!(
            sa.graph.as_ref().unwrap().report.total_edges,
            sb.graph.as_ref().unwrap().report.total_edges
        );
        assert!(sb.streamed && !sa.streamed);
        // Streamed keeps duplicates, default dedups: written counts may
        // differ, but never exceed generated.
        assert!(
            sa.graph.as_ref().unwrap().edges_written <= sb.graph.as_ref().unwrap().edges_written
        );
    }
}
