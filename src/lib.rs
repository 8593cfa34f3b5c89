//! # gMark — schema-driven generation of graphs and queries
//!
//! A Rust implementation of *gMark: Schema-Driven Generation of Graphs and
//! Queries* (Bagan, Bonifati, Ciucanu, Fletcher, Lemay, Advokaat — ICDE
//! 2017 / IEEE TKDE): a domain- and query-language-independent generator of
//! synthetic graph instances and UCRPQ query workloads with
//! **schema-driven selectivity control**.
//!
//! ## The pipeline API
//!
//! The paper's Fig. 1 workflow — schema → graph instance → query workload
//! → concrete syntaxes — is exposed as one typed pipeline in [`run`]:
//! a [`RunPlan`](run::RunPlan) (*what* to generate, from XML or a fluent
//! builder), [`RunOptions`](run::RunOptions) (*how*: seed, threads,
//! streaming), and a [`Sink`](run::Sink) (*where* the bytes go). Every
//! failure surfaces as one [`GmarkError`](run::GmarkError); every run
//! returns a JSON-serializable [`RunSummary`](run::RunSummary). The
//! `gmark` CLI and the [`serve`] daemon are thin clients of exactly this
//! surface, and ask for a run through one shared parameter table
//! ([`RunRequest`](run::RunRequest)).
//!
//! ```
//! use gmark::run::{run, Artifact, MemorySink, RunOptions, RunPlan};
//! use gmark::prelude::*;
//!
//! // The paper's bibliographical scenario (Fig. 2), 1 000 nodes, with a
//! // 9-query workload: 3 constant, 3 linear, 3 quadratic chains.
//! let plan = RunPlan::builder(gmark::core::usecases::bib())
//!     .nodes(1_000)
//!     .workload(WorkloadConfig::new(9))
//!     .build()?;
//!
//! let mut sink = MemorySink::new();
//! let summary = run(&plan, &RunOptions::with_seed(42), &mut sink)?;
//! assert!(summary.graph.as_ref().unwrap().edges_written > 0);
//! assert_eq!(summary.workload.as_ref().unwrap().report.produced, 9);
//! assert!(!sink.bytes(Artifact::Sparql).unwrap().is_empty());
//!
//! // Embedding? The same stages without a sink keep the built values.
//! let arts = gmark::run::run_in_memory(&plan, &RunOptions::with_seed(42))?;
//! let (graph, workload) = (arts.graph.unwrap(), arts.workload.unwrap());
//! let ctx = EvalContext::new(&graph); // build once, share across queries
//! let answers = EngineKind::Relational
//!     .evaluate(&ctx, &workload.queries[0].query, None, &Budget::default())
//!     .unwrap();
//! let _count = answers.count();
//! # Ok::<(), gmark::run::GmarkError>(())
//! ```
//!
//! Everything generated is a pure function of the plan and the seed:
//! thread count, streaming mode, and sink choice never change a byte (see
//! the [`run`] module docs for the exact guarantee).
//!
//! ## Migrating from the pre-`run` free functions
//!
//! The per-crate entry points remain available as documented
//! pass-throughs, but new code should compose plans:
//!
//! | old free-function surface | new pipeline surface |
//! |---|---|
//! | `parse_config(&xml)` + hand-rolled orchestration | [`run::RunPlan::from_xml`] / [`run::RunPlan::from_config_file`] + [`run::run`] |
//! | `generate_graph(&config, &GeneratorOptions { .. })` | [`run::run_in_memory`] — [`run::run`]'s stages without a sink — (graph in [`run::RunArtifacts::graph`]) |
//! | `generate_into(&config, &opts, &mut writer)` | [`run::run`] with a custom [`run::Sink`] |
//! | `generate_streamed(&config, &opts, &stream_opts, &mut out)` | [`run::run`] with [`run::RunOptions::stream`] |
//! | `generate_workload[_with_threads](&schema, &cfg, ..)` | [`run::run_in_memory`] (workload in [`run::RunArtifacts::workload`], its [`core::workload::WorkloadReport`] — counters and diversity — in [`run::WorkloadRunSummary::report`]) |
//! | `evaluate_matrix_with_schema(&ctx, ..)` over a hand-built graph and workload | [`run::RunPlan`] with an [`run::EvalSpec`] (the matrix in [`run::EvalRunSummary::report`]) |
//! | `stream_workload(&schema, &cfg, &opts, &mut outs)` | [`run::run`] (the five workload artifacts) |
//! | `gmark_store::{ShardSet, ShardWriter, TextShardWriter}` (removed: no pipeline keeps temp files) | [`store::OrderedEmitter`] — or just [`run::run`] |
//! | `ConfigError` / `WorkloadError` / `TranslateError` / `StoreError` / `io::Error` juggling | [`run::GmarkError`] (a cell an engine fails is an outcome in the report, not an error) |
//! | scraping `report.txt` | [`run::RunSummary::to_json`] (`--format json`) |
//! | `EvalContext::new(&graph)` over a `&Graph` only | `EvalContext::new(view)` over a [`store::GraphView`] — `&Graph` still converts via `Into`, and [`store::StoreReader`] plugs in the on-disk paged store |
//! | `RelationalEngine.evaluate(&graph, &q, &budget)` and the other unit-struct engines behind the `Engine` trait (removed: one entry point) | `EngineKind::Relational.evaluate(&ctx, &q, None, &budget)` with `ctx = EvalContext::new(&graph)`; pass `Some(&plan)` from [`engines::plan_query`] to order the joins; iterate [`engines::EngineKind::ALL`] |
//!
//! Evaluation no longer requires a materialized [`store::Graph`]: the
//! evaluation context reads through [`store::GraphView`], so a paged
//! [`store::StoreReader`] (`--store` / `--from-store` on the CLI,
//! [`run::RunPlan`]'s `store` output + `from_store` input in the API)
//! evaluates through the identical code path, holding in RAM only the
//! symbol relations the queries mention.
//!
//! ## Workspace layout
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — schemas, the linear-time graph generator, UCRPQ queries,
//!   selectivity estimation, workload generation, the four paper use cases;
//! * [`store`] — CSR graph storage, the on-disk paged store
//!   ([`store::StoreWriter`] / [`store::StoreReader`]), the
//!   [`store::GraphView`] read abstraction, and N-Triples I/O;
//! * [`stats`] — deterministic RNG, degree-distribution samplers,
//!   regression;
//! * [`config`] — XML configuration files;
//! * [`translate`] — SPARQL / openCypher / SQL / Datalog output;
//! * [`engines`] — four UCRPQ evaluation engines (relational, triple-store,
//!   navigational, Datalog) used by the paper-reproduction experiments;
//! * [`run`] — the unified pipeline API tying them together;
//! * [`serve`] — the benchmark-as-a-service HTTP daemon behind
//!   `gmark serve`.

#![deny(missing_docs)]

pub use gmark_config as config;
pub use gmark_core as core;
pub use gmark_engines as engines;
pub use gmark_stats as stats;
pub use gmark_store as store;
pub use gmark_translate as translate;

pub mod run;
pub mod serve;

/// The most common imports in one place.
///
/// The first block is the unified pipeline surface ([`run`]); the rest are
/// the underlying building blocks — still fully supported, and the right
/// tools when you need a single layer (a schema, one engine, one
/// translator) rather than the whole pipeline.
pub mod prelude {
    pub use crate::run::{
        run, run_in_memory, Artifact, DirSink, EvalRunSummary, EvalSpec, GmarkError, MemorySink,
        NullSink, OutputSelection, RunArtifacts, RunOptions, RunPlan, RunPlanBuilder, RunSummary,
        Sink,
    };

    pub use gmark_core::gen::{generate_graph, generate_into, GeneratorOptions};
    pub use gmark_core::query::{Conjunct, PathExpr, Query, RegularExpr, Rule, Symbol, Var};
    pub use gmark_core::schema::{
        Distribution, GraphConfig, Occurrence, PredicateId, Schema, SchemaBuilder, TypeId,
    };
    pub use gmark_core::selectivity::SelectivityClass;
    pub use gmark_core::workload::{
        generate_workload, generate_workload_with_threads, QuerySize, Shape, Workload,
        WorkloadConfig, WorkloadError,
    };
    pub use gmark_engines::{
        evaluate_matrix_with_schema, plan_query, Answers, Budget, CellBudget, CellOutcome,
        EngineKind, EvalContext, EvalError, EvalReport, MatrixOptions, PlanQuality, QueryPlan,
    };
    pub use gmark_store::{EdgeSink, Graph, GraphBuilder, NodeId, TypePartition};
}
