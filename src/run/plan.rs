//! The typed plan: *what* one gMark run generates.
//!
//! A [`RunPlan`] is the Fig. 1 workflow as a value — scenario schema and
//! node count ([`GraphConfig`]), optional query-workload specification
//! ([`WorkloadConfig`]), and which outputs to produce. It is buildable two
//! equivalent ways:
//!
//! * **from XML** — [`RunPlan::from_xml`] / [`RunPlan::from_config_file`]
//!   parse the gMark configuration format;
//! * **programmatically** — [`RunPlan::builder`] with a fluent
//!   [`RunPlanBuilder`].
//!
//! Both roads produce bit-identical output through
//! [`run`](crate::run::run) when they describe the same scenario — pinned
//! by `tests/plan_equivalence.rs`.

use super::error::GmarkError;
use gmark_config::{parse_config, ParsedConfig};
use gmark_core::schema::{GraphConfig, Schema};
use gmark_core::workload::WorkloadConfig;
use gmark_engines::{CellBudget, EngineKind};
use gmark_store::{Csr, NodeId};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Which artifacts a run produces. The report and summary are governed by
/// the [`Sink`](crate::run::Sink), not here — they always describe
/// whatever was generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputSelection {
    /// Generate the graph instance ([`Artifact::Graph`](crate::run::Artifact)).
    pub graph: bool,
    /// Generate the query workload (the five
    /// [`Artifact::WORKLOAD`](crate::run::Artifact::WORKLOAD) documents).
    /// Requires the plan to carry a workload configuration.
    pub workload: bool,
    /// Also write the graph as an on-disk paged store
    /// ([`Artifact::Store`](crate::run::Artifact), the CLI's `--store`).
    /// Store bytes are a pure function of the configuration and seed —
    /// identical at every thread count and in both the materialized and
    /// streamed pipelines. Combined with streaming, the graph's CSR is
    /// never materialized: the evaluation stage scans the store instead
    /// of an in-memory graph.
    pub store: bool,
}

impl Default for OutputSelection {
    /// Everything a plan produces by default — the store is opt-in.
    fn default() -> Self {
        OutputSelection {
            graph: true,
            workload: true,
            store: false,
        }
    }
}

/// The Section 7 evaluation stage of a plan: which engines run the
/// generated workload against the generated graph, under what per-cell
/// resource budget. Present on a plan (via [`RunPlanBuilder::eval`] or the
/// CLI's `--eval`), it turns one run into the full
/// generate → translate → **evaluate** loop, producing
/// [`Artifact::EvalReport`](crate::run::Artifact) and the `eval` rows of
/// the [`RunSummary`](crate::run::RunSummary). The planner and the
/// sub-expression cache are always on
/// ([`MatrixOptions::default`](gmark_engines::MatrixOptions)); their
/// on/off differentials are library-level tests, not run parameters.
#[derive(Debug, Clone)]
pub struct EvalSpec {
    /// Engine columns, in report order (the CLI's `--engines P,G,S,D`).
    pub engines: Vec<EngineKind>,
    /// Wall-clock budget per (engine × query) cell in milliseconds; `0`
    /// disables the time limit entirely — the fully deterministic regime
    /// (cell outcomes then cannot depend on machine speed).
    pub budget_ms: u64,
    /// Maximum tuples any intermediate or final result may hold per cell:
    /// positive, and at most [`Csr::MAX_EDGES`], the most pairs a relation
    /// holds ([`RunPlan::validate`] refuses anything else).
    pub max_tuples: usize,
}

/// Why a tuple cap above [`Csr::MAX_EDGES`] is refused: one message for
/// both doors and the plan.
pub(crate) fn too_wide_a_cap(cap: usize) -> String {
    format!(
        "the cap must be at most {}, the most pairs one relation holds \
         (its CSR offsets are u32), not {cap}",
        Csr::MAX_EDGES
    )
}

impl Default for EvalSpec {
    /// All four engines, a 10-second per-cell budget and the default
    /// laptop-scale tuple cap.
    fn default() -> Self {
        EvalSpec {
            engines: EngineKind::ALL.to_vec(),
            budget_ms: 10_000,
            max_tuples: 20_000_000,
        }
    }
}

impl EvalSpec {
    /// The engine letters in column order, e.g. `"PGSD"`.
    pub fn letters(&self) -> String {
        self.engines.iter().map(|k| k.letter()).collect()
    }

    /// The per-cell budget recipe the matrix harness starts each cell
    /// from.
    pub(crate) fn cell_budget(&self) -> CellBudget {
        CellBudget {
            timeout: (self.budget_ms > 0).then(|| Duration::from_millis(self.budget_ms)),
            max_tuples: self.max_tuples,
        }
    }
}

/// What to generate: scenario schema, node count, workload specification,
/// and output selection. Execution knobs (seed, threads, streaming) live
/// in [`RunOptions`](crate::run::RunOptions); destinations live in the
/// [`Sink`](crate::run::Sink).
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// The graph configuration `G = (n, S)`.
    pub graph: GraphConfig,
    /// The workload configuration `Q`, when queries are wanted.
    pub workload: Option<WorkloadConfig>,
    /// Which artifacts to produce.
    pub outputs: OutputSelection,
    /// The evaluation stage, when the workload should also be *run*
    /// against the graph (requires the workload output plus a graph
    /// source: the materialized graph, a store output, or
    /// [`RunPlan::from_store`]).
    pub eval: Option<EvalSpec>,
    /// Evaluate against an existing on-disk store (the CLI's
    /// `--from-store`) instead of generating a graph: the evaluation
    /// stage loads this file's segments via
    /// [`StoreReader`](gmark_store::StoreReader). Requires an [`EvalSpec`]
    /// and replaces graph generation (graph and store outputs must be
    /// off). The store's recorded schema hash must match the plan's
    /// schema, and the store must pass
    /// [`StoreReader::verify`](gmark_store::StoreReader::verify) before
    /// any engine reads it.
    pub from_store: Option<PathBuf>,
    /// The configuration file this plan came from, when it came from one
    /// (recorded in the report).
    pub source: Option<PathBuf>,
}

impl RunPlan {
    /// A plan from an XML configuration document (see [`gmark_config`]).
    ///
    /// A document without a `<workload>` section yields a graph-only plan
    /// (no workload output requested), mirroring [`RunPlanBuilder::build`].
    pub fn from_xml(xml: &str) -> Result<RunPlan, GmarkError> {
        Ok(RunPlan::from_parsed(parse_config(xml)?, None))
    }

    /// A plan from an XML configuration file.
    pub fn from_config_file(path: impl AsRef<Path>) -> Result<RunPlan, GmarkError> {
        let path = path.as_ref();
        let xml = std::fs::read_to_string(path)
            .map_err(|e| GmarkError::io(format!("reading {}", path.display()), e))?;
        let parsed = parse_config(&xml).map_err(|e| GmarkError::config_in(path, e))?;
        Ok(RunPlan::from_parsed(parsed, Some(path.to_path_buf())))
    }

    fn from_parsed(parsed: ParsedConfig, source: Option<PathBuf>) -> RunPlan {
        RunPlan {
            outputs: OutputSelection {
                graph: true,
                workload: parsed.workload.is_some(),
                store: false,
            },
            graph: parsed.graph,
            workload: parsed.workload,
            eval: None,
            from_store: None,
            source,
        }
    }

    /// Starts a fluent builder over a scenario schema.
    pub fn builder(schema: Schema) -> RunPlanBuilder {
        RunPlanBuilder {
            nodes: 10_000,
            schema,
            workload: None,
            outputs: OutputSelection::default(),
            eval: None,
            from_store: None,
        }
    }

    /// Overrides the requested node count (the CLI's `--nodes`).
    pub fn with_nodes(mut self, n: u64) -> RunPlan {
        self.graph.n = n;
        self
    }

    /// Checks the plan for internal consistency; called by
    /// [`run`](crate::run::run) before any output is opened. A plan that
    /// generates a graph must realize at most [`NodeId::MAX`] nodes.
    pub fn validate(&self) -> Result<(), GmarkError> {
        if self.outputs.workload && self.workload.is_none() {
            return Err(GmarkError::Plan(
                "workload output requested but the plan has no workload \
                 configuration (no <workload> section)"
                    .to_owned(),
            ));
        }
        if self.from_store.is_some() {
            if self.outputs.graph || self.outputs.store {
                return Err(GmarkError::Plan(
                    "from_store replaces graph generation: disable the graph and \
                     store outputs when evaluating an existing store"
                        .to_owned(),
                ));
            }
            if self.eval.is_none() {
                return Err(GmarkError::Plan(
                    "from_store is only consumed by the evaluation stage (add --eval)".to_owned(),
                ));
            }
        }
        if self.outputs.graph || self.outputs.store {
            // Summed wide: a u64 sum of the counts of a huge `n` wraps.
            let realized: u128 = self.graph.node_counts().into_iter().map(u128::from).sum();
            if realized > u128::from(NodeId::MAX) {
                return Err(GmarkError::Plan(format!(
                    "nodes: n = {} realizes {realized} nodes, more than the {} a graph \
                     holds (node ids are u32)",
                    self.graph.n,
                    NodeId::MAX
                )));
            }
        }
        if !self.outputs.graph
            && !self.outputs.workload
            && !self.outputs.store
            && self.from_store.is_none()
        {
            return Err(GmarkError::Plan(
                "nothing to generate: graph, store, and workload outputs are all disabled"
                    .to_owned(),
            ));
        }
        if let Some(spec) = &self.eval {
            let has_graph_source =
                self.outputs.graph || self.outputs.store || self.from_store.is_some();
            if !has_graph_source || !self.outputs.workload {
                return Err(GmarkError::Plan(
                    "evaluation requires the workload plus a graph source: the \
                     materialized graph, an on-disk store output (--store), or an \
                     existing store (--from-store)"
                        .to_owned(),
                ));
            }
            if spec.engines.is_empty() {
                return Err(GmarkError::Plan(
                    "evaluation requested with an empty engine selection".to_owned(),
                ));
            }
            if spec.max_tuples == 0 {
                return Err(GmarkError::Plan(
                    "evaluation max_tuples must be positive (a zero cap fails every \
                     non-empty cell)"
                        .to_owned(),
                ));
            }
            if spec.max_tuples > Csr::MAX_EDGES {
                return Err(GmarkError::Plan(format!(
                    "evaluation max_tuples: {}",
                    too_wide_a_cap(spec.max_tuples)
                )));
            }
        }
        Ok(())
    }
}

/// Fluent construction of a [`RunPlan`] — the programmatic counterpart of
/// the XML configuration.
///
/// ```
/// use gmark::run::{RunPlan, RunOptions, MemorySink, run};
/// use gmark::prelude::WorkloadConfig;
///
/// let plan = RunPlan::builder(gmark::core::usecases::bib())
///     .nodes(1_000)
///     .workload(WorkloadConfig::new(4))
///     .build()
///     .unwrap();
/// let mut sink = MemorySink::new();
/// let summary = run(&plan, &RunOptions::with_seed(42), &mut sink).unwrap();
/// assert_eq!(summary.workload.as_ref().unwrap().report.produced, 4);
/// ```
#[derive(Debug, Clone)]
pub struct RunPlanBuilder {
    nodes: u64,
    schema: Schema,
    workload: Option<WorkloadConfig>,
    outputs: OutputSelection,
    eval: Option<EvalSpec>,
    from_store: Option<PathBuf>,
}

impl RunPlanBuilder {
    /// Sets the requested node count `n` (default 10 000).
    pub fn nodes(mut self, n: u64) -> RunPlanBuilder {
        self.nodes = n;
        self
    }

    /// Adds a query-workload specification.
    pub fn workload(mut self, config: WorkloadConfig) -> RunPlanBuilder {
        self.workload = Some(config);
        self
    }

    /// Adds the evaluation stage (the CLI's `--eval`): after generation,
    /// run every workload query through the selected engines against the
    /// generated graph. Requires a workload specification and graph
    /// output.
    pub fn eval(mut self, spec: EvalSpec) -> RunPlanBuilder {
        self.eval = Some(spec);
        self
    }

    /// Also write the graph as an on-disk paged store (the CLI's
    /// `--store`). See [`OutputSelection::store`].
    pub fn store(mut self) -> RunPlanBuilder {
        self.outputs.store = true;
        self
    }

    /// Evaluate against an existing on-disk store instead of generating a
    /// graph (the CLI's `--from-store`): disables the graph output and
    /// records the store path. Requires [`RunPlanBuilder::eval`].
    pub fn from_store(mut self, path: impl Into<PathBuf>) -> RunPlanBuilder {
        self.outputs.graph = false;
        self.from_store = Some(path.into());
        self
    }

    /// Generate only the query workload — no graph instance (the CLI's
    /// `--queries-only`).
    pub fn queries_only(mut self) -> RunPlanBuilder {
        self.outputs.graph = false;
        self.outputs.workload = true;
        self
    }

    /// Generate only the graph instance, even if a workload specification
    /// is present.
    pub fn graph_only(mut self) -> RunPlanBuilder {
        self.outputs.graph = true;
        self.outputs.workload = false;
        self
    }

    /// Finishes the plan, validating it.
    pub fn build(self) -> Result<RunPlan, GmarkError> {
        let has_workload = self.workload.is_some();
        let plan = RunPlan {
            graph: GraphConfig::new(self.nodes, self.schema),
            workload: self.workload,
            outputs: OutputSelection {
                graph: self.outputs.graph,
                // A plan without a workload section simply produces no
                // workload documents — mirroring the CLI, where a config
                // without <workload> still runs.
                workload: self.outputs.workload && has_workload,
                store: self.outputs.store,
            },
            eval: self.eval,
            from_store: self.from_store,
            source: None,
        };
        // queries_only without a workload is the one combination that
        // cannot be softened into "produce less".
        if !plan.outputs.graph && !plan.outputs.store && plan.from_store.is_none() && !has_workload
        {
            return Err(GmarkError::Plan(
                "queries_only requires a workload configuration".to_owned(),
            ));
        }
        plan.validate()?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmark_core::usecases;

    /// A Bib builder with a two-query workload and the default eval stage.
    fn evaluating() -> RunPlanBuilder {
        RunPlan::builder(usecases::bib())
            .workload(WorkloadConfig::new(2))
            .eval(EvalSpec::default())
    }

    #[test]
    fn builder_defaults_produce_a_graph_only_plan() {
        let plan = RunPlan::builder(usecases::bib())
            .nodes(500)
            .build()
            .unwrap();
        assert_eq!(plan.graph.n, 500);
        assert!(plan.outputs.graph);
        assert!(
            !plan.outputs.workload,
            "no workload config, no workload output"
        );
    }

    #[test]
    fn queries_only_without_workload_is_rejected() {
        let err = RunPlan::builder(usecases::bib())
            .queries_only()
            .build()
            .unwrap_err();
        assert!(matches!(err, GmarkError::Plan(_)), "{err}");
    }

    #[test]
    fn xml_and_builder_agree_on_the_shape_of_the_plan() {
        let xml = r#"
            <generator>
              <graph>
                <nodes>800</nodes>
                <types>
                  <type name="a" proportion="0.5"/>
                  <type name="b" proportion="0.5"/>
                </types>
                <predicates><predicate name="p"/></predicates>
                <constraints>
                  <constraint source="a" predicate="p" target="b">
                    <outdistribution type="uniform" min="1" max="2"/>
                  </constraint>
                </constraints>
              </graph>
              <workload size="3" seed="9"/>
            </generator>"#;
        let plan = RunPlan::from_xml(xml).unwrap();
        assert_eq!(plan.graph.n, 800);
        assert_eq!(plan.workload.as_ref().unwrap().size, 3);
        assert_eq!(plan.workload.as_ref().unwrap().seed, 9);
        assert!(plan.outputs.graph && plan.outputs.workload);
        plan.validate().unwrap();
    }

    #[test]
    fn graph_only_xml_yields_a_runnable_graph_only_plan() {
        let xml = r#"
            <generator>
              <graph>
                <nodes>100</nodes>
                <types><type name="a" proportion="1.0"/></types>
                <predicates><predicate name="p" proportion="0.5"/></predicates>
                <constraints>
                  <constraint source="a" predicate="p" target="a">
                    <outdistribution type="uniform" min="1" max="1"/>
                  </constraint>
                </constraints>
              </graph>
            </generator>"#;
        let plan = RunPlan::from_xml(xml).unwrap();
        assert!(plan.outputs.graph);
        assert!(
            !plan.outputs.workload,
            "no <workload> section must not request workload output"
        );
        plan.validate().unwrap();
    }

    #[test]
    fn eval_requires_graph_and_workload() {
        let rejected = [
            // Eval without a workload.
            RunPlan::builder(usecases::bib()).eval(EvalSpec::default()),
            // Eval on a queries-only plan: no graph to evaluate on.
            evaluating().queries_only(),
            // An empty engine selection.
            evaluating().eval(EvalSpec {
                engines: Vec::new(),
                ..EvalSpec::default()
            }),
            // A zero tuple cap would fail every non-empty cell.
            evaluating().eval(EvalSpec {
                max_tuples: 0,
                ..EvalSpec::default()
            }),
            // Nor can a cap bind above the most pairs a relation holds.
            evaluating().eval(EvalSpec {
                max_tuples: Csr::MAX_EDGES + 1,
                ..EvalSpec::default()
            }),
        ];
        for (i, builder) in rejected.into_iter().enumerate() {
            let err = builder.build().unwrap_err();
            assert!(matches!(err, GmarkError::Plan(_)), "case {i}: {err}");
        }

        // The well-formed combination builds.
        let plan = evaluating().build().unwrap();
        assert_eq!(plan.eval.as_ref().unwrap().letters(), "PGSD");
    }

    #[test]
    fn store_output_and_from_store_validate() {
        // --store rides along with any generating plan.
        let plan = RunPlan::builder(usecases::bib()).store().build().unwrap();
        assert!(plan.outputs.store && plan.outputs.graph);

        // A store can even be the only output.
        let mut plan = RunPlan::builder(usecases::bib()).store().build().unwrap();
        plan.outputs.graph = false;
        plan.validate().unwrap();

        // from_store without an eval stage: rejected (nothing would read it).
        let mut plan = evaluating().from_store("g.gstore").build().unwrap();
        plan.eval = None;
        let err = plan.validate().unwrap_err();
        assert!(matches!(err, GmarkError::Plan(_)), "{err}");

        // from_store combined with generation outputs: rejected.
        let mut plan = evaluating().build().unwrap();
        plan.from_store = Some("g.gstore".into());
        let err = plan.validate().unwrap_err();
        assert!(matches!(err, GmarkError::Plan(_)), "{err}");

        // The well-formed from_store evaluation plan builds.
        let plan = evaluating().from_store("g.gstore").build().unwrap();
        assert!(!plan.outputs.graph);
        assert_eq!(
            plan.from_store.as_deref(),
            Some(std::path::Path::new("g.gstore"))
        );

        // Store output + eval (the streamed-store combination) builds too.
        let plan = evaluating().store().build().unwrap();
        assert!(plan.outputs.store);
    }

    #[test]
    fn missing_config_file_is_an_io_error_with_the_path() {
        let err = RunPlan::from_config_file("/nonexistent/gmark.xml").unwrap_err();
        assert!(err.to_string().contains("/nonexistent/gmark.xml"), "{err}");
    }
}
