//! The machine-readable run summary.
//!
//! One [`RunSummary`] captures everything `report.txt` and the CLI banner
//! used to print — what was generated, with which seed, how long it took,
//! what the consistency check found — and serializes it to JSON
//! ([`RunSummary::to_json`], through the workspace's one
//! [`JsonWriter`]: no serde offline) so harnesses stop scraping the
//! human-readable report.
//!
//! Each half holds the report its stage returned — [`GenReport`],
//! [`StoreInfo`], [`WorkloadReport`], the [`EvalSpec`] that ran and its
//! [`EvalReport`] — and beside it only what the run alone knows: node
//! counts, triples written, the seed, document bytes and stage seconds.
//! The report, the banner and the JSON are all rendered from those.

use crate::run::EvalSpec;
use gmark_core::gen::GenReport;
use gmark_core::workload::WorkloadReport;
use gmark_engines::{EvalCell, EvalReport, OUTCOMES};
use gmark_stats::JsonWriter;
use gmark_store::{EmitStats, StoreInfo};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// What one pipeline run produced. Returned by [`run`](crate::run::run)
/// and [`run_in_memory`](crate::run::run_in_memory), rendered to
/// `report.txt` by [`DirSink`](crate::run::DirSink), serializable with
/// [`RunSummary::to_json`].
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// The configuration file the plan came from, when it came from one.
    pub config: Option<PathBuf>,
    /// The graph pipeline's resolved master seed.
    pub seed: u64,
    /// Worker threads actually used (after resolving `0 = auto-detect`).
    pub threads: usize,
    /// Whether the memory-bounded streaming graph pipeline ran.
    pub streamed: bool,
    /// Findings of the Section 4 consistency check (empty = consistent).
    pub consistency: Vec<String>,
    /// Graph-instance outcome; `None` when the plan skipped the graph.
    pub graph: Option<GraphRunSummary>,
    /// The store the evaluation stage read its graph from, when the plan
    /// evaluated an existing store instead of generating a graph (report
    /// only — not serialized to JSON).
    pub from_store: Option<PathBuf>,
    /// On-disk paged store outcome; `None` when the plan had no store
    /// output. (Evaluating an existing store via `from_store` does not
    /// set this — nothing was written.)
    pub store: Option<StoreRunSummary>,
    /// Workload outcome; `None` when the plan had no workload output.
    pub workload: Option<WorkloadRunSummary>,
    /// Evaluation outcome; `None` when the plan had no `--eval` stage.
    pub eval: Option<EvalRunSummary>,
}

/// The graph half of a [`RunSummary`].
#[derive(Debug, Clone)]
pub struct GraphRunSummary {
    /// Node count requested by the configuration.
    pub nodes_requested: u64,
    /// Node count realized after per-type rounding and fixed counts.
    pub nodes_realized: u64,
    /// Triples written to the [`Artifact::Graph`](crate::run::Artifact)
    /// output.
    pub edges_written: u64,
    /// What the generator returned: per-constraint outcomes, the edges
    /// generated before deduplication, and where the `graph.nt` output
    /// time went (`None` when no N-Triples were written; report and
    /// banner only — never serialized to JSON).
    pub report: GenReport,
    /// Wall-clock generation + serialization time. A materialized run
    /// with a store writes `graph.nt` and the store side by side, so this
    /// covers both, and [`StoreRunSummary::seconds`] overlaps it rather
    /// than adding to it.
    pub seconds: f64,
}

/// The on-disk paged store's slice of a [`RunSummary`] (the `--store`
/// output). Everything but `seconds` is a pure function of the
/// configuration and seed.
#[derive(Debug, Clone)]
pub struct StoreRunSummary {
    /// What the store writer returned: bytes, page size, edges.
    pub info: StoreInfo,
    /// Wall-clock store build time (report/banner only). Part of
    /// [`GraphRunSummary::seconds`], not in addition to it: a materialized
    /// run writes the store while it writes `graph.nt`, a streamed one
    /// generates the edges again after streaming ends and builds the store
    /// one predicate at a time.
    pub seconds: f64,
}

/// The workload half of a [`RunSummary`].
#[derive(Debug, Clone)]
pub struct WorkloadRunSummary {
    /// The workload pipeline's resolved seed.
    pub seed: u64,
    /// What the workload generator returned: counters, cypher
    /// degradations, diversity.
    pub report: WorkloadReport,
    /// Bytes written per workload document, in
    /// [`Artifact::WORKLOAD`](crate::run::Artifact::WORKLOAD) order.
    /// All zeros when the run materialized queries without rendering them
    /// ([`run_in_memory`](crate::run::run_in_memory)).
    pub bytes: [u64; 5],
    /// Wall-clock generation + translation time.
    pub seconds: f64,
    /// Where the five documents' output time went (see
    /// [`GenReport::emit`]). `None` when the run rendered them from a
    /// materialized workload or not at all.
    pub emit: Option<EmitStats>,
}

/// The evaluation half of a [`RunSummary`]: the (engine × query) matrix
/// the `--eval` stage ran.
///
/// Everything serialized by [`RunSummary::to_json`] from this struct is a
/// pure function of the plan and the seed (outcomes, cardinalities,
/// counts): the `eval` section of `summary.json` is byte-identical at
/// every thread count. The wall times — the stage's, the report's fill
/// and cell seconds, each cell's — go to the report and the CLI banner
/// but deliberately stay **out** of the JSON, preserving that guarantee.
#[derive(Debug, Clone)]
pub struct EvalRunSummary {
    /// The engines, budget and tuple cap the matrix ran with.
    pub spec: EvalSpec,
    /// The matrix: every cell in ascending `(query, engine position)`
    /// order, the cache's contents and hit accounting, the fill and cell
    /// seconds.
    pub report: EvalReport,
    /// Stage wall time.
    pub seconds: f64,
}

impl RunSummary {
    /// Renders the human-readable `report.txt` (same layout the CLI has
    /// written since PR 1, so downstream scrapers keep working during the
    /// migration to [`RunSummary::to_json`]).
    pub fn render_report(&self) -> String {
        let mut rep = String::new();
        let _ = writeln!(rep, "gMark generation report");
        match &self.config {
            Some(path) => {
                let _ = writeln!(rep, "config: {}", path.display());
            }
            None => {
                let _ = writeln!(rep, "config: (programmatic plan)");
            }
        }
        let _ = writeln!(rep, "seed: {}", self.seed);
        match &self.graph {
            Some(g) => {
                let _ = writeln!(rep, "nodes requested: {}", g.nodes_requested);
                let _ = writeln!(rep, "nodes realized: {}", g.nodes_realized);
                let _ = writeln!(
                    rep,
                    "edges: {} written ({} generated before dedup) in {:.3}s",
                    g.edges_written, g.report.total_edges, g.seconds
                );
                if let Some(emit) = &g.report.emit {
                    let _ = writeln!(rep, "graph output: {emit}");
                }
                for (i, cr) in g.report.constraints.iter().enumerate() {
                    let _ = writeln!(
                        rep,
                        "constraint {i}: src_slots={} trg_slots={} edges={}",
                        cr.src_slots, cr.trg_slots, cr.edges
                    );
                }
            }
            None => match &self.from_store {
                Some(path) => {
                    let _ = writeln!(rep, "graph: read from store {}", path.display());
                }
                None => {
                    let _ = writeln!(rep, "graph: skipped (--queries-only)");
                }
            },
        }
        if let Some(s) = &self.store {
            let _ = writeln!(
                rep,
                "store: {} edges, {} bytes (page size {}) in {:.3}s",
                s.info.edges, s.info.bytes, s.info.page_size, s.seconds
            );
        }
        if self.consistency.is_empty() {
            let _ = writeln!(rep, "consistency check: ok");
        }
        for issue in &self.consistency {
            let _ = writeln!(rep, "consistency check: {issue}");
        }
        if let Some(w) = &self.workload {
            let r = &w.report;
            let _ = writeln!(
                rep,
                "workload: {} queries, {} relaxation steps, {} unmet selectivity targets",
                r.produced, r.relaxations, r.unsatisfied_selectivity
            );
            let _ = writeln!(
                rep,
                "cypher degradations: {} concatenation-under-star, {} inverse-under-star",
                r.cypher.star_concat, r.cypher.star_inverse
            );
            if let Some(emit) = &w.emit {
                let _ = writeln!(rep, "workload output: {emit}");
            }
            let _ = writeln!(rep, "diversity:\n{r}");
        }
        if let Some(e) = &self.eval {
            let report = &e.report;
            let letters = e.spec.letters();
            // The cells' own seconds of the first and third outcomes, ok
            // and too-large.
            let of_outcome = |i| cell_seconds(report, |cell| cell.outcome.index() == i);
            let _ = writeln!(
                rep,
                "evaluation: {} queries x {} engines ({letters}) = {} cells in {:.3}s \
                 ({:.3}s cache fill, {:.3}s cells: {:.3}s {}, {:.3}s {} cell-seconds)",
                report.queries,
                letters.len(),
                report.cells.len(),
                e.seconds,
                report.fill_seconds,
                report.cells_seconds,
                of_outcome(0),
                OUTCOMES[0],
                of_outcome(2),
                OUTCOMES[2],
            );
            let _ = write!(rep, "cell-seconds by engine:");
            for &kind in &e.spec.engines {
                let seconds = cell_seconds(report, |cell| cell.engine == kind);
                let _ = write!(rep, " {} {seconds:.3}", kind.letter());
            }
            let _ = writeln!(rep);
            let _ = writeln!(rep, "evaluation outcomes: {}", report.totals());
        }
        rep
    }

    /// Serializes the summary as one JSON object (stable key order, no
    /// trailing newline). `--format json` writes this to `summary.json`
    /// and stdout.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("gmark_version").string(env!("CARGO_PKG_VERSION"));
        w.key("config");
        match &self.config {
            Some(p) => w.string(&p.display().to_string()),
            None => w.null(),
        };
        w.key("seed").uint(self.seed);
        w.key("threads").uint(self.threads as u64);
        w.key("streamed").bool(self.streamed);
        w.key("consistency").begin_array();
        for issue in &self.consistency {
            w.string(issue);
        }
        w.end_array();
        write_half(&mut w, "graph", &self.graph, write_graph_json);
        write_half(&mut w, "store", &self.store, write_store_json);
        write_half(&mut w, "workload", &self.workload, write_workload_json);
        write_half(&mut w, "eval", &self.eval, write_eval_json);
        w.end_object();
        w.finish()
    }
}

impl std::fmt::Display for RunSummary {
    /// The CLI's human-readable banner (one line per pipeline that ran).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let plural = if self.threads > 1 { "s" } else { "" };
        if let Some(g) = &self.graph {
            writeln!(
                f,
                "graph: {} nodes requested, {} edges -> graph.nt ({:.3}s, {} thread{plural}{})",
                g.nodes_requested,
                g.edges_written,
                g.seconds,
                self.threads,
                if self.streamed { ", streamed" } else { "" }
            )?;
            if let Some(emit) = &g.report.emit {
                writeln!(f, "graph output: {emit}")?;
            }
        }
        if let Some(s) = &self.store {
            writeln!(
                f,
                "store: {} edges -> graph.gstore ({} bytes, page size {}, {:.3}s)",
                s.info.edges, s.info.bytes, s.info.page_size, s.seconds
            )?;
        }
        if let Some(w) = &self.workload {
            writeln!(
                f,
                "workload: {} queries -> workload.{{txt,sparql,cypher,sql,datalog}} \
                 ({:.3}s, {} thread{plural}; cypher degradations: {} concatenation, {} inverse)",
                w.report.produced,
                w.seconds,
                self.threads,
                w.report.cypher.star_concat,
                w.report.cypher.star_inverse,
            )?;
            if let Some(emit) = &w.emit {
                writeln!(f, "workload output: {emit}")?;
            }
        }
        if let Some(e) = &self.eval {
            // The first three outcomes: ok, timeout, too-large.
            let counts = OUTCOMES.iter().zip(e.report.totals().counts());
            let outcomes: Vec<String> = counts.take(3).map(|(w, n)| format!("{n} {w}")).collect();
            writeln!(
                f,
                "eval: {} cells ({} queries x {} engines) -> eval.txt \
                 ({:.3}s, {} thread{plural}; {})",
                e.report.cells.len(),
                e.report.queries,
                e.spec.letters(),
                e.seconds,
                self.threads,
                outcomes.join(", "),
            )?;
        }
        Ok(())
    }
}

/// One optional half of the summary: its object, or `null` when the plan
/// skipped it.
fn write_half<T>(w: &mut JsonWriter, key: &str, half: &Option<T>, write: fn(&T, &mut JsonWriter)) {
    w.key(key);
    match half {
        Some(half) => write(half, w),
        None => {
            w.null();
        }
    }
}

/// A `{name: count, …}` object of per-category counters.
fn write_counts<K: ToString>(w: &mut JsonWriter, key: &str, counts: &BTreeMap<K, usize>) {
    w.key(key).begin_object();
    for (name, n) in counts {
        w.key(&name.to_string()).uint(*n as u64);
    }
    w.end_object();
}

/// The summed wall time of the cells `of` selects. The sum starts at
/// `0.0`: an empty selection summed by [`Iterator::sum`] is `-0.0`, which
/// prints as `-0.000s`.
fn cell_seconds(report: &EvalReport, of: impl Fn(&EvalCell) -> bool) -> f64 {
    let cells = report.cells.iter().filter(|&cell| of(cell));
    cells.fold(0.0, |sum, cell| sum + cell.seconds)
}

fn write_graph_json(g: &GraphRunSummary, w: &mut JsonWriter) {
    w.begin_object();
    w.key("nodes_requested").uint(g.nodes_requested);
    w.key("nodes_realized").uint(g.nodes_realized);
    w.key("edges_written").uint(g.edges_written);
    w.key("edges_generated").uint(g.report.total_edges);
    w.key("seconds").fixed(g.seconds, 6);
    w.key("constraints").begin_array();
    for cr in &g.report.constraints {
        w.begin_object();
        w.key("src_slots").uint(cr.src_slots);
        w.key("trg_slots").uint(cr.trg_slots);
        w.key("edges").uint(cr.edges);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

fn write_store_json(s: &StoreRunSummary, w: &mut JsonWriter) {
    w.begin_object();
    w.key("bytes").uint(s.info.bytes);
    w.key("page_size").uint(u64::from(s.info.page_size));
    w.key("edges").uint(s.info.edges);
    w.key("seconds").fixed(s.seconds, 6);
    w.end_object();
}

fn write_workload_json(wl: &WorkloadRunSummary, w: &mut JsonWriter) {
    let r = &wl.report;
    w.begin_object();
    w.key("seed").uint(wl.seed);
    w.key("produced").uint(r.produced as u64);
    w.key("unsatisfied_selectivity")
        .uint(r.unsatisfied_selectivity as u64);
    w.key("relaxations").uint(u64::from(r.relaxations));
    w.key("cypher_degradations").begin_object();
    w.key("star_concat").uint(r.cypher.star_concat);
    w.key("star_inverse").uint(r.cypher.star_inverse);
    w.end_object();
    w.key("bytes").begin_object();
    for (name, bytes) in ["rules", "sparql", "cypher", "sql", "datalog"]
        .iter()
        .zip(wl.bytes)
    {
        w.key(name).uint(bytes);
    }
    w.end_object();
    w.key("seconds").fixed(wl.seconds, 6);
    w.key("diversity").begin_object();
    w.key("total").uint(r.produced as u64);
    w.key("recursive").uint(r.recursive as u64);
    write_counts(w, "by_shape", &r.by_shape);
    write_counts(w, "by_class", &r.by_class);
    write_counts(w, "by_arity", &r.by_arity);
    w.key("max_rules").uint(r.max_rules as u64);
    w.key("max_conjuncts").uint(r.max_conjuncts as u64);
    w.key("max_disjuncts").uint(r.max_disjuncts as u64);
    w.key("max_path_length").uint(r.max_path_length as u64);
    w.end_object();
    w.end_object();
}

/// The deterministic evaluation fields. Wall times are intentionally
/// absent: the `eval` JSON object is a pure function of the plan and seed
/// (see [`EvalRunSummary`]).
fn write_eval_json(e: &EvalRunSummary, w: &mut JsonWriter) {
    let report = &e.report;
    w.begin_object();
    w.key("engines").string(&e.spec.letters());
    w.key("budget_ms").uint(e.spec.budget_ms);
    w.key("max_tuples").uint(e.spec.max_tuples as u64);
    w.key("plan").bool(report.planned);
    w.key("cache").begin_object();
    w.key("enabled").bool(report.cache.is_some());
    if let Some(c) = &report.cache {
        w.key("entries").uint(c.entries as u64);
        w.key("tuples").uint(c.tuples);
        w.key("fills").uint(c.fills);
        w.key("hits").uint(c.hits);
        w.key("misses").uint(c.misses);
    }
    w.end_object();
    w.key("queries").uint(report.queries as u64);
    w.key("cells").uint(report.cells.len() as u64);
    w.key("outcomes").begin_object();
    for (word, n) in OUTCOMES.iter().zip(report.totals().counts()) {
        w.key(&word.replace('-', "_")).uint(n as u64);
    }
    w.end_object();
    w.key("rows").begin_array();
    for cell in &report.cells {
        w.begin_object();
        w.key("query").uint(cell.query as u64);
        w.key("engine")
            .string(cell.engine.letter().encode_utf8(&mut [0; 4]));
        w.key("outcome").string(cell.outcome.word());
        w.key("count").opt_uint(cell.outcome.count());
        w.key("estimate").opt_uint(cell.estimate);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmark_core::cypher::CypherCounts;
    use gmark_core::gen::ConstraintReport;
    use gmark_engines::{CellOutcome, EngineKind, EvalError};

    fn sample() -> RunSummary {
        // Two queries on four engines: six cells ok, one timeout, one too
        // large, each with its own seconds.
        let cell = |query, engine, outcome, seconds| EvalCell {
            query,
            engine,
            outcome,
            estimate: Some([10, 4][query]),
            seconds,
        };
        let ok = |count| CellOutcome::Answers { arity: 2, count };
        let cells = vec![
            cell(0, EngineKind::Relational, ok(12), 0.05),
            cell(
                0,
                EngineKind::Navigational,
                CellOutcome::Failed(EvalError::Timeout),
                0.2,
            ),
            cell(0, EngineKind::TripleStore, ok(12), 0.1),
            cell(0, EngineKind::Datalog, ok(12), 0.015),
            cell(1, EngineKind::Relational, ok(3), 0.044),
            cell(1, EngineKind::Navigational, ok(3), 0.017),
            cell(
                1,
                EngineKind::TripleStore,
                CellOutcome::Failed(EvalError::TooLarge(7)),
                0.015,
            ),
            cell(1, EngineKind::Datalog, ok(3), 0.004),
        ];
        RunSummary {
            config: Some(PathBuf::from("bib.xml")),
            seed: 42,
            threads: 2,
            streamed: false,
            consistency: vec!["something \"quoted\"".to_owned()],
            graph: Some(GraphRunSummary {
                nodes_requested: 100,
                nodes_realized: 120,
                edges_written: 300,
                report: GenReport {
                    constraints: vec![ConstraintReport {
                        src_slots: 10,
                        trg_slots: 20,
                        edges: 10,
                    }],
                    total_edges: 310,
                    emit: Some(EmitStats {
                        blocks: 3,
                        bytes: 34_567,
                        write_seconds: 0.01,
                        parked_seconds: 0.02,
                    }),
                },
                seconds: 0.25,
            }),
            from_store: None,
            store: Some(StoreRunSummary {
                info: StoreInfo {
                    bytes: 65_536,
                    page_size: 8192,
                    edges: 300,
                },
                seconds: 0.05,
            }),
            workload: Some(WorkloadRunSummary {
                seed: 42,
                report: WorkloadReport {
                    produced: 12,
                    relaxations: 3,
                    cypher: CypherCounts {
                        star_concat: 1,
                        star_inverse: 2,
                    },
                    ..WorkloadReport::default()
                },
                bytes: [10, 20, 30, 40, 50],
                seconds: 0.1,
                emit: None,
            }),
            eval: Some(EvalRunSummary {
                spec: EvalSpec {
                    engines: EngineKind::ALL.to_vec(),
                    budget_ms: 10_000,
                    max_tuples: 1_000_000,
                },
                report: EvalReport {
                    engines: EngineKind::ALL.to_vec(),
                    queries: 2,
                    cells,
                    planned: true,
                    cache: Some(gmark_engines::EvalCacheStats {
                        entries: 5,
                        tuples: 1000,
                        hits: 9,
                        misses: 3,
                        fills: 4,
                    }),
                    fill_seconds: 0.125,
                    cells_seconds: 0.25,
                },
                seconds: 0.5,
            }),
        }
    }

    #[test]
    fn report_keeps_the_historical_anchor_lines() {
        let rep = sample().render_report();
        assert!(rep.contains("gMark generation report"), "{rep}");
        assert!(rep.contains("seed: 42"), "{rep}");
        assert!(
            rep.contains("edges: 300 written (310 generated before dedup)"),
            "{rep}"
        );
        assert!(
            rep.contains("cypher degradations: 1 concatenation-under-star"),
            "{rep}"
        );

        let mut skipped = sample();
        skipped.graph = None;
        assert!(
            skipped
                .render_report()
                .contains("graph: skipped (--queries-only)"),
            "queries-only anchor line lost"
        );

        let mut read = skipped.clone();
        read.from_store = Some(PathBuf::from("stores/graph.gstore"));
        let rep = read.render_report();
        assert!(
            rep.contains("graph: read from store stores/graph.gstore"),
            "{rep}"
        );
        assert!(!rep.contains("--queries-only"), "{rep}");
        assert_eq!(
            read.to_json(),
            skipped.to_json(),
            "the store path is report only"
        );
    }

    #[test]
    fn output_timing_is_in_the_report_and_the_banner_but_never_in_json() {
        let line = "graph output: 3 blocks, 34567 bytes, 0.010s in write, 0.020s parked";
        assert!(sample().render_report().contains(line));
        assert!(sample().to_string().contains(line));
        assert!(!sample().render_report().contains("workload output:"));
        let json = sample().to_json();
        assert!(
            !json.contains("parked") && !json.contains("blocks"),
            "{json}"
        );
    }

    #[test]
    fn json_is_escaped_and_balanced() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"seed\":42"), "{json}");
        assert!(json.contains("\"produced\":12"), "{json}");
        assert!(json.contains("\"plan\":true"), "{json}");
        assert!(json.contains("\"estimate\":10"), "{json}");
        assert!(json.contains("something \\\"quoted\\\""), "{json}");
        // And it is JSON: the workspace's reader takes it whole.
        crate::serve::json::parse(&json).expect("summary.json parses");
    }

    #[test]
    fn skipped_halves_serialize_as_null() {
        let mut s = sample();
        s.graph = None;
        s.store = None;
        s.workload = None;
        s.eval = None;
        let json = s.to_json();
        assert!(json.contains("\"graph\":null"), "{json}");
        assert!(json.contains("\"store\":null"), "{json}");
        assert!(json.contains("\"workload\":null"), "{json}");
        assert!(json.contains("\"eval\":null"), "{json}");
    }

    #[test]
    fn store_slice_serializes_and_reports() {
        let json = sample().to_json();
        assert!(
            json.contains("\"store\":{\"bytes\":65536,\"page_size\":8192,\"edges\":300"),
            "{json}"
        );
        let rep = sample().render_report();
        assert!(
            rep.contains("store: 300 edges, 65536 bytes (page size 8192)"),
            "{rep}"
        );
        let banner = sample().to_string();
        assert!(banner.contains("graph.gstore"), "{banner}");
    }

    #[test]
    fn cache_stats_serialize_after_plan() {
        let json = sample().to_json();
        assert!(
            json.contains(
                "\"plan\":true,\"cache\":{\"enabled\":true,\"entries\":5,\
                 \"tuples\":1000,\"fills\":4,\"hits\":9,\"misses\":3}"
            ),
            "{json}"
        );
        let mut off = sample();
        off.eval.as_mut().unwrap().report.cache = None;
        assert!(
            off.to_json().contains("\"cache\":{\"enabled\":false}"),
            "{}",
            off.to_json()
        );
    }

    #[test]
    fn an_outcome_class_without_cells_prints_zero_seconds() {
        let mut summary = sample();
        let report = &mut summary.eval.as_mut().unwrap().report;
        report.cells.retain(|cell| cell.outcome.index() == 0);
        assert!(cell_seconds(report, |_| false).is_sign_positive());
        let rep = summary.render_report();
        assert!(
            rep.contains("0.230s ok, 0.000s too-large cell-seconds"),
            "{rep}"
        );
        assert!(!rep.contains("-0.000"), "{rep}");
    }

    #[test]
    fn eval_json_is_deterministic_no_seconds() {
        let json = sample().to_json();
        let eval = &json[json.find("\"eval\"").unwrap()..];
        assert!(eval.contains("\"engines\":\"PGSD\""), "{eval}");
        assert!(
            eval.contains("\"outcome\":\"timeout\",\"count\":null"),
            "{eval}"
        );
        assert!(eval.contains("\"count\":12"), "{eval}");
        assert!(
            eval.contains(
                "\"outcomes\":{\"ok\":6,\"timeout\":1,\"too_large\":1,\
                 \"unsupported\":0,\"error\":0}"
            ),
            "{eval}"
        );
        assert!(
            !eval.contains("seconds"),
            "eval JSON must not carry wall-clock content: {eval}"
        );
        // The report keeps the timing (it is not byte-compared).
        let rep = sample().render_report();
        assert!(rep.contains("evaluation: 2 queries x 4 engines"), "{rep}");
        assert!(
            rep.contains(
                "8 cells in 0.500s (0.125s cache fill, 0.250s cells: \
                 0.230s ok, 0.015s too-large cell-seconds)"
            ),
            "{rep}"
        );
        assert!(
            rep.contains("cell-seconds by engine: P 0.094 G 0.217 S 0.115 D 0.019\n"),
            "{rep}"
        );
        assert!(rep.contains("1 timeout"), "{rep}");
        assert!(
            rep.contains(
                "evaluation outcomes: 6 ok, 1 timeout, 1 too-large, 0 unsupported, 0 error\n"
            ),
            "{rep}"
        );
        let banner = sample().to_string();
        assert!(
            banner.contains("(0.500s, 2 threads; 6 ok, 1 timeout, 1 too-large)\n"),
            "{banner}"
        );
    }
}
