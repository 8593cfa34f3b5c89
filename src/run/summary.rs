//! The machine-readable run summary.
//!
//! One [`RunSummary`] captures everything `report.txt` and the CLI banner
//! used to print — what was generated, with which seed, how long it took,
//! what the consistency check found — and serializes it to JSON
//! ([`RunSummary::to_json`], through the workspace's one
//! [`JsonWriter`]: no serde offline) so harnesses stop scraping the
//! human-readable report.

use gmark_core::gen::ConstraintReport;
use gmark_core::workload::DiversitySummary;
use gmark_stats::JsonWriter;
use gmark_store::EmitStats;
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
    /// Edges generated before deduplication.
    pub edges_generated: u64,
    /// Per-constraint generation outcomes, in declaration order.
    pub constraints: Vec<ConstraintReport>,
    /// Wall-clock generation + serialization time. A materialized run
    /// with a store writes `graph.nt` and the store side by side, so this
    /// covers both, and [`StoreRunSummary::seconds`] overlaps it rather
    /// than adding to it.
    pub seconds: f64,
    /// Where the `graph.nt` output time went: blocks and bytes written,
    /// seconds inside `write`, seconds workers waited their turn. `None`
    /// when no N-Triples were written. Report and banner only — never
    /// serialized to JSON.
    pub emit: Option<EmitStats>,
}

/// The on-disk paged store's slice of a [`RunSummary`] (the `--store`
/// output). Everything but `seconds` is a pure function of the
/// configuration and seed.
#[derive(Debug, Clone)]
pub struct StoreRunSummary {
    /// Total store file size in bytes.
    pub bytes: u64,
    /// Page size of the store file.
    pub page_size: u32,
    /// Deduplicated edges recorded in the store.
    pub edges: u64,
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
    /// Queries produced.
    pub produced: usize,
    /// Queries whose selectivity target had to be abandoned.
    pub unsatisfied_selectivity: usize,
    /// Total relaxation steps applied across the workload.
    pub relaxations: u32,
    /// Starred concatenations the openCypher translator degrades
    /// (Section 7.1).
    pub cypher_star_concat: u64,
    /// Starred inverses the openCypher translator degrades (Section 7.1).
    pub cypher_star_inverse: u64,
    /// Bytes written per workload document, in
    /// [`Artifact::WORKLOAD`](crate::run::Artifact::WORKLOAD) order.
    /// All zeros when the run materialized queries without rendering them
    /// ([`run_in_memory`](crate::run::run_in_memory)).
    pub bytes: [u64; 5],
    /// Workload diversity (shapes, classes, arities, size maxima).
    pub diversity: DiversitySummary,
    /// Wall-clock generation + translation time.
    pub seconds: f64,
    /// Where the five documents' output time went (see
    /// [`GraphRunSummary::emit`]). `None` when the run rendered them from
    /// a materialized workload or not at all.
    pub emit: Option<EmitStats>,
}

/// The evaluation half of a [`RunSummary`] — the outcome of the
/// (engine × query) matrix the `--eval` stage ran.
///
/// Everything serialized by [`RunSummary::to_json`] from this struct is a
/// pure function of the plan and the seed (outcomes, cardinalities,
/// counts): the `eval` section of `summary.json` is byte-identical at
/// every thread count. The stage's wall time is recorded in
/// [`EvalRunSummary::seconds`] for the report and the CLI banner but
/// deliberately kept **out** of the JSON, preserving that guarantee.
#[derive(Debug, Clone)]
pub struct EvalRunSummary {
    /// Engine letters in column order, e.g. `"PGSD"`.
    pub engines: String,
    /// Per-cell wall-clock budget in milliseconds (`0` = unlimited).
    pub budget_ms: u64,
    /// Per-cell tuple cap.
    pub max_tuples: usize,
    /// Whether the schema-statistics planner ordered the engines' joins.
    pub plan: bool,
    /// Sub-expression cache contents and hit accounting; `None` when the
    /// cache was disabled. Deterministic: fill contents are a pure
    /// function of graph and query set, and hit/miss totals are sums of
    /// per-cell counts independent of thread schedule.
    pub cache: Option<gmark_engines::EvalCacheStats>,
    /// Number of evaluated queries (matrix rows).
    pub queries: usize,
    /// Number of evaluated cells (`queries × engines`).
    pub cells: usize,
    /// Cells that completed.
    pub ok: usize,
    /// Cells that exhausted the wall-clock budget.
    pub timeout: usize,
    /// Cells that exceeded the tuple budget.
    pub too_large: usize,
    /// Cells the engine could not express.
    pub unsupported: usize,
    /// Cells that hit an engine invariant violation.
    pub internal: usize,
    /// Per-cell rows in ascending `(query, engine position)` order.
    pub rows: Vec<EvalCellRow>,
    /// Stage wall time (report/banner only — not serialized to JSON).
    pub seconds: f64,
    /// Of [`EvalRunSummary::seconds`], the sub-expression cache fill
    /// (report only).
    pub fill_seconds: f64,
    /// Of [`EvalRunSummary::seconds`], the cell matrix (report only).
    pub cells_seconds: f64,
}

/// One deterministic cell row of an [`EvalRunSummary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalCellRow {
    /// Query index (generation order).
    pub query: usize,
    /// Engine letter (`P`/`G`/`S`/`D`).
    pub engine: char,
    /// Outcome word: `ok`, `timeout`, `too-large`, `unsupported`, or
    /// `error`.
    pub outcome: String,
    /// Distinct answer tuples for completed cells, `None` otherwise.
    pub count: Option<u64>,
    /// The planner's estimated answer cardinality for the cell's query;
    /// `None` when the run had the planner off.
    pub estimate: Option<u64>,
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
                    g.edges_written, g.edges_generated, g.seconds
                );
                if let Some(emit) = &g.emit {
                    let _ = writeln!(rep, "graph output: {emit}");
                }
                for (i, cr) in g.constraints.iter().enumerate() {
                    let _ = writeln!(
                        rep,
                        "constraint {i}: src_slots={} trg_slots={} edges={}",
                        cr.src_slots, cr.trg_slots, cr.edges
                    );
                }
            }
            None => {
                let _ = writeln!(rep, "graph: skipped (--queries-only)");
            }
        }
        if let Some(s) = &self.store {
            let _ = writeln!(
                rep,
                "store: {} edges, {} bytes (page size {}) in {:.3}s",
                s.edges, s.bytes, s.page_size, s.seconds
            );
        }
        if self.consistency.is_empty() {
            let _ = writeln!(rep, "consistency check: ok");
        }
        for issue in &self.consistency {
            let _ = writeln!(rep, "consistency check: {issue}");
        }
        if let Some(w) = &self.workload {
            let _ = writeln!(
                rep,
                "workload: {} queries, {} relaxation steps, {} unmet selectivity targets",
                w.produced, w.relaxations, w.unsatisfied_selectivity
            );
            let _ = writeln!(
                rep,
                "cypher degradations: {} concatenation-under-star, {} inverse-under-star",
                w.cypher_star_concat, w.cypher_star_inverse
            );
            if let Some(emit) = &w.emit {
                let _ = writeln!(rep, "workload output: {emit}");
            }
            let _ = writeln!(rep, "diversity:\n{}", w.diversity);
        }
        if let Some(e) = &self.eval {
            let _ = writeln!(
                rep,
                "evaluation: {} queries x {} engines ({}) = {} cells in {:.3}s \
                 ({:.3}s cache fill, {:.3}s cells)",
                e.queries,
                e.engines.len(),
                e.engines,
                e.cells,
                e.seconds,
                e.fill_seconds,
                e.cells_seconds
            );
            let _ = writeln!(
                rep,
                "evaluation outcomes: {} ok, {} timeout, {} too-large, {} unsupported, {} error",
                e.ok, e.timeout, e.too_large, e.unsupported, e.internal
            );
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
        if let Some(g) = &self.graph {
            writeln!(
                f,
                "graph: {} nodes requested, {} edges -> graph.nt ({:.3}s, {} thread{}{})",
                g.nodes_requested,
                g.edges_written,
                g.seconds,
                self.threads,
                if self.threads > 1 { "s" } else { "" },
                if self.streamed { ", streamed" } else { "" }
            )?;
            if let Some(emit) = &g.emit {
                writeln!(f, "graph output: {emit}")?;
            }
        }
        if let Some(s) = &self.store {
            writeln!(
                f,
                "store: {} edges -> graph.gstore ({} bytes, page size {}, {:.3}s)",
                s.edges, s.bytes, s.page_size, s.seconds
            )?;
        }
        if let Some(w) = &self.workload {
            writeln!(
                f,
                "workload: {} queries -> workload.{{txt,sparql,cypher,sql,datalog}} \
                 ({:.3}s, {} thread{}; cypher degradations: {} concatenation, {} inverse)",
                w.produced,
                w.seconds,
                self.threads,
                if self.threads > 1 { "s" } else { "" },
                w.cypher_star_concat,
                w.cypher_star_inverse,
            )?;
            if let Some(emit) = &w.emit {
                writeln!(f, "workload output: {emit}")?;
            }
        }
        if let Some(e) = &self.eval {
            writeln!(
                f,
                "eval: {} cells ({} queries x {} engines) -> eval.txt \
                 ({:.3}s, {} thread{}; {} ok, {} timeout, {} too-large)",
                e.cells,
                e.queries,
                e.engines,
                e.seconds,
                self.threads,
                if self.threads > 1 { "s" } else { "" },
                e.ok,
                e.timeout,
                e.too_large,
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

fn write_graph_json(g: &GraphRunSummary, w: &mut JsonWriter) {
    w.begin_object();
    w.key("nodes_requested").uint(g.nodes_requested);
    w.key("nodes_realized").uint(g.nodes_realized);
    w.key("edges_written").uint(g.edges_written);
    w.key("edges_generated").uint(g.edges_generated);
    w.key("seconds").fixed(g.seconds, 6);
    w.key("constraints").begin_array();
    for cr in &g.constraints {
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
    w.key("bytes").uint(s.bytes);
    w.key("page_size").uint(u64::from(s.page_size));
    w.key("edges").uint(s.edges);
    w.key("seconds").fixed(s.seconds, 6);
    w.end_object();
}

fn write_workload_json(wl: &WorkloadRunSummary, w: &mut JsonWriter) {
    w.begin_object();
    w.key("seed").uint(wl.seed);
    w.key("produced").uint(wl.produced as u64);
    w.key("unsatisfied_selectivity")
        .uint(wl.unsatisfied_selectivity as u64);
    w.key("relaxations").uint(u64::from(wl.relaxations));
    w.key("cypher_degradations").begin_object();
    w.key("star_concat").uint(wl.cypher_star_concat);
    w.key("star_inverse").uint(wl.cypher_star_inverse);
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
    let d = &wl.diversity;
    w.key("diversity").begin_object();
    w.key("total").uint(d.total as u64);
    w.key("recursive").uint(d.recursive as u64);
    write_counts(w, "by_shape", &d.by_shape);
    write_counts(w, "by_class", &d.by_class);
    write_counts(w, "by_arity", &d.by_arity);
    w.key("max_rules").uint(d.max_rules as u64);
    w.key("max_conjuncts").uint(d.max_conjuncts as u64);
    w.key("max_disjuncts").uint(d.max_disjuncts as u64);
    w.key("max_path_length").uint(d.max_path_length as u64);
    w.end_object();
    w.end_object();
}

/// The deterministic evaluation fields. The stage's wall time is
/// intentionally absent: the `eval` JSON object is a pure function of the
/// plan and seed (see [`EvalRunSummary`]).
fn write_eval_json(e: &EvalRunSummary, w: &mut JsonWriter) {
    w.begin_object();
    w.key("engines").string(&e.engines);
    w.key("budget_ms").uint(e.budget_ms);
    w.key("max_tuples").uint(e.max_tuples as u64);
    w.key("plan").bool(e.plan);
    w.key("cache").begin_object();
    w.key("enabled").bool(e.cache.is_some());
    if let Some(c) = &e.cache {
        w.key("budget_mb").uint(c.budget_mb as u64);
        w.key("entries").uint(c.entries as u64);
        w.key("tuples").uint(c.tuples);
        w.key("fills").uint(c.fills);
        w.key("hits").uint(c.hits);
        w.key("misses").uint(c.misses);
        w.key("rejected").uint(c.rejected);
    }
    w.end_object();
    w.key("queries").uint(e.queries as u64);
    w.key("cells").uint(e.cells as u64);
    w.key("outcomes").begin_object();
    w.key("ok").uint(e.ok as u64);
    w.key("timeout").uint(e.timeout as u64);
    w.key("too_large").uint(e.too_large as u64);
    w.key("unsupported").uint(e.unsupported as u64);
    w.key("error").uint(e.internal as u64);
    w.end_object();
    w.key("rows").begin_array();
    for row in &e.rows {
        w.begin_object();
        w.key("query").uint(row.query as u64);
        w.key("engine").string(row.engine.encode_utf8(&mut [0; 4]));
        w.key("outcome").string(&row.outcome);
        w.key("count").opt_uint(row.count);
        w.key("estimate").opt_uint(row.estimate);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunSummary {
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
                edges_generated: 310,
                constraints: vec![ConstraintReport {
                    src_slots: 10,
                    trg_slots: 20,
                    edges: 10,
                }],
                seconds: 0.25,
                emit: Some(EmitStats {
                    blocks: 3,
                    bytes: 34_567,
                    write_seconds: 0.01,
                    parked_seconds: 0.02,
                }),
            }),
            store: Some(StoreRunSummary {
                bytes: 65_536,
                page_size: 8192,
                edges: 300,
                seconds: 0.05,
            }),
            workload: Some(WorkloadRunSummary {
                seed: 42,
                produced: 12,
                unsatisfied_selectivity: 0,
                relaxations: 3,
                cypher_star_concat: 1,
                cypher_star_inverse: 2,
                bytes: [10, 20, 30, 40, 50],
                diversity: DiversitySummary::default(),
                seconds: 0.1,
                emit: None,
            }),
            eval: Some(EvalRunSummary {
                engines: "PGSD".to_owned(),
                budget_ms: 10_000,
                max_tuples: 1_000_000,
                plan: true,
                cache: Some(gmark_engines::EvalCacheStats {
                    budget_mb: 64,
                    entries: 5,
                    tuples: 1000,
                    bytes: 8000,
                    hits: 9,
                    misses: 3,
                    rejected: 1,
                    fills: 4,
                }),
                queries: 2,
                cells: 8,
                ok: 7,
                timeout: 1,
                too_large: 0,
                unsupported: 0,
                internal: 0,
                rows: vec![
                    EvalCellRow {
                        query: 0,
                        engine: 'P',
                        outcome: "ok".to_owned(),
                        count: Some(12),
                        estimate: Some(10),
                    },
                    EvalCellRow {
                        query: 0,
                        engine: 'G',
                        outcome: "timeout".to_owned(),
                        count: None,
                        estimate: Some(10),
                    },
                ],
                seconds: 0.5,
                fill_seconds: 0.125,
                cells_seconds: 0.25,
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
                "\"plan\":true,\"cache\":{\"enabled\":true,\"budget_mb\":64,\
                 \"entries\":5,\"tuples\":1000,\"fills\":4,\"hits\":9,\"misses\":3,\
                 \"rejected\":1}"
            ),
            "{json}"
        );
        let mut off = sample();
        off.eval.as_mut().unwrap().cache = None;
        assert!(
            off.to_json().contains("\"cache\":{\"enabled\":false}"),
            "{}",
            off.to_json()
        );
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
            !eval.contains("seconds"),
            "eval JSON must not carry wall-clock content: {eval}"
        );
        // The report keeps the timing (it is not byte-compared).
        let rep = sample().render_report();
        assert!(rep.contains("evaluation: 2 queries x 4 engines"), "{rep}");
        assert!(
            rep.contains("8 cells in 0.500s (0.125s cache fill, 0.250s cells)"),
            "{rep}"
        );
        assert!(rep.contains("1 timeout"), "{rep}");
    }
}
