//! gMark core: schema-driven generation of graphs and query workloads.
//!
//! This crate implements the primary contribution of *gMark: Schema-Driven
//! Generation of Graphs and Queries* (Bagan, Bonifati, Ciucanu, Fletcher,
//! Lemay, Advokaat — ICDE 2017):
//!
//! * [`schema`] — graph schemas `S = (Σ, Θ, T, η)` and graph configurations
//!   `G = (n, S)` (Definitions 3.1–3.2), including the in/out-degree
//!   consistency check of Section 4;
//! * [`gen`] — the linear-time heuristic graph generator of Fig. 5;
//! * [`query`] — the UCRPQ query model of Section 3.3 (rules, conjuncts,
//!   disjuncts, outermost-star regular expressions);
//! * [`datalog`] and [`cypher`] — one structured translation per target
//!   language that needs one: the Datalog program, as data, and Section
//!   7.1's openCypher degradation. A language's text writer and the engine
//!   that stands in for its system both read that one value, so the text
//!   says what the engine evaluates;
//! * [`selectivity`] — the schema-driven selectivity estimation machinery of
//!   Section 5.2: the class algebra (Table 1, Fig. 7), the schema graph
//!   `G_S`, distance matrix, selectivity graph `G_sel`, and the `nb_path`
//!   weighted path sampler;
//! * [`workload`] — the query workload generator of Fig. 6 with arity,
//!   shape, recursion, size, and selectivity control;
//! * [`usecases`] — the four scenarios of Section 6.1 (`Bib`, `LSN`, `SP`,
//!   `WD`) as ready-made configurations;
//! * [`sat1in3`] — the constructive SAT-1-in-3 reduction of Theorem 3.6;
//! * [`extract`] — schema extraction from an existing graph (the
//!   "schema extraction tool" envisioned in the paper's concluding remarks).

#![warn(missing_docs)]

pub mod cypher;
pub mod datalog;
pub mod extract;
pub mod gen;
pub mod query;
pub mod sat1in3;
pub mod schema;
pub mod selectivity;
pub mod usecases;
pub mod workload;

pub use cypher::{CypherCounts, CypherDegradations};
pub use gen::{
    generate_graph, generate_into, generate_store, generate_streamed, try_generate_graph,
    GenReport, GeneratorOptions, StreamOptions,
};
pub use query::{Conjunct, PathExpr, Query, RegularExpr, Rule, Symbol, Var};
pub use schema::{
    Distribution, EdgeConstraint, GraphConfig, Occurrence, PredicateId, Schema, SchemaBuilder,
    TypeId,
};
pub use selectivity::{Card, SelOp, SelTriple, SelectivityClass};
pub use workload::{
    generate_workload, generate_workload_with_threads, QuerySize, Shape, Workload, WorkloadConfig,
    WorkloadContext, WorkloadError, WorkloadReport,
};
