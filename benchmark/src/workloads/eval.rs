//! `eval-inram` and `eval-paged`: Section 7 of the paper in miniature,
//! through `gmark --eval`.
//!
//! Both run in the deterministic regime — `--budget-ms 0` with a tuple cap
//! — so outcomes repeat exactly and time measures work, not timeouts.
//! `eval-inram` (Bib at 2000 nodes, 30 mixed queries, engines P,G,S,D)
//! makes generation negligible and the engines everything. `eval-paged`
//! (Bib at 150 000 nodes from a `graph.gstore` larger than the reader's
//! 8 MiB page cache, 30 chain queries, engines P,G,S) sends the same
//! engines through `GraphView::Paged`: the paged reader and the relation
//! kernels dominate and Datalog does nothing.
//!
//! The two instances are pinned: they do not vary with `--seed`. A
//! 30-query workload's evaluation cost is heavy-tailed in its seed —
//! 3.6 s to 11.9 s over workload seeds 1–7, 4.0 s to 8.0 s over six graph
//! seeds under one workload — so instances drawn per seed would not be
//! comparable with one another, and no bound could hold across seeds.

use super::{dir_bytes, run_args, Ctx, Iterations, Outcome, Tally, THREADS};
use crate::load::{derive_seed, eval_inram_xml, eval_paged_xml, purpose};
use crate::metrics::Measured;
use crate::trace::Tracer;
use gmark::core::query::{Query, RegularExpr};
use gmark::core::{generate_graph, generate_workload_with_threads, GeneratorOptions};
use gmark::engines::navigational::degrade_for_cypher;
use gmark::engines::{
    evaluate_matrix_with_schema, plan_query, CellBudget, CellOutcome, EngineKind, EvalContext,
    EvalError, EvalReport, MatrixOptions,
};
use gmark::run::{run, DirSink, EvalSpec, RunOptions, RunPlan};
use gmark::stats::Prng;
use gmark::store::{GraphView, StoreReader};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Which of the two evaluation workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `eval-inram`.
    InRam,
    /// `eval-paged`.
    Paged,
}

/// The tuple cap of both workloads.
const MAX_TUPLES: usize = 2_000_000;

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::InRam => "eval-inram",
            Mode::Paged => "eval-paged",
        }
    }

    fn xml(self) -> String {
        match self {
            Mode::InRam => eval_inram_xml(),
            Mode::Paged => eval_paged_xml(),
        }
    }

    /// The pinned graph-and-workload seed (see the module docs).
    fn instance_seed(self) -> u64 {
        match self {
            Mode::InRam => 2,
            Mode::Paged => 1,
        }
    }

    fn engine_letters(self) -> &'static str {
        match self {
            Mode::InRam => "P,G,S,D",
            Mode::Paged => "P,G,S",
        }
    }

    fn engines(self) -> Vec<EngineKind> {
        EngineKind::parse_list(self.engine_letters()).expect("a valid engine list")
    }
}

/// The files of one prepared workload.
struct Prepared {
    xml: String,
    config: PathBuf,
    /// `eval-paged`: the store the timed runs read.
    store: Option<PathBuf>,
}

fn eval_args(mode: Mode, prepared: &Prepared, out: &Path, threads: usize) -> Vec<String> {
    let cap = MAX_TUPLES.to_string();
    let flags = [
        "--eval",
        "--engines",
        mode.engine_letters(),
        "--budget-ms",
        "0",
        "--max-tuples",
        &cap,
    ];
    run_args(&prepared.config, out, mode.instance_seed(), threads, &flags)
}

/// Writes the configuration and, for `eval-paged`, builds and verifies the
/// store through the CLI.
fn prepare(ctx: &Ctx<'_>, tally: &mut Tally, mode: Mode) -> Result<Prepared, String> {
    let dir = ctx.scratch.fresh("cfg")?;
    let xml = mode.xml();
    let config = dir.join(format!("{}.xml", mode.name()));
    std::fs::write(&config, &xml).map_err(|e| format!("writing {}: {e}", config.display()))?;
    let mut prepared = Prepared {
        xml,
        config,
        store: None,
    };
    if mode == Mode::Paged {
        let store_dir = ctx.scratch.fresh("store")?;
        let build = run_args(
            &prepared.config,
            &store_dir,
            mode.instance_seed(),
            THREADS,
            &["--store"],
        );
        ctx.cli(tally, "eval-paged store build", &build)?;
        let store = store_dir.join("graph.gstore");
        ctx.verify_store(tally, &store)?;
        prepared.store = Some(store);
    }
    Ok(prepared)
}

/// The timed command line: `--from-store` for the paged workload.
fn timed_args(mode: Mode, prepared: &Prepared, out: &Path) -> Vec<String> {
    let mut a = eval_args(mode, prepared, out, THREADS);
    if let Some(store) = &prepared.store {
        a.push("--from-store".to_owned());
        a.push(store.to_string_lossy().into_owned());
    }
    a
}

/// `(ok, timeout, too-large, total)` from the report's `cells:` line.
fn cell_counts(report: &[u8]) -> Option<(u64, u64, u64, u64)> {
    let text = std::str::from_utf8(report).ok()?;
    let line = text.lines().find(|l| l.starts_with("cells: "))?;
    let numbers: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|tok| tok.parse().ok())
        .collect();
    // "cells: A ok, B timeout, C too-large, D unsupported, E error (N total)"
    match numbers[..] {
        [ok, timeout, too_large, _, _, total] => Some((ok, timeout, too_large, total)),
        _ => None,
    }
}

/// Runs the workload end to end, or traced.
pub fn measure(ctx: &Ctx<'_>, mode: Mode, trace: bool) -> Result<Outcome, String> {
    if trace {
        traced(ctx, mode)
    } else {
        end_to_end(ctx, mode)
    }
}

/// The end-to-end run. Set-up writes the configuration, builds the store
/// (`eval-paged`) and produces the reference report every iteration must
/// reproduce byte for byte: a `--threads 1` run for `eval-inram`, an
/// in-RAM run of the same plan for `eval-paged`.
fn end_to_end(ctx: &Ctx<'_>, mode: Mode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let iterations = ctx.scaled(3);

    let setup_started = Instant::now();
    let prepared = prepare(ctx, &mut out.tally, mode)?;
    let reference_dir = ctx.scratch.fresh("reference")?;
    let reference_threads = match mode {
        Mode::InRam => 1,
        Mode::Paged => THREADS,
    };
    ctx.cli(
        &mut out.tally,
        &format!("{} reference", mode.name()),
        &eval_args(mode, &prepared, &reference_dir, reference_threads),
    )?;
    let reference = std::fs::read(reference_dir.join("eval.txt")).unwrap_or_default();
    out.measured
        .set("setup_s", setup_started.elapsed().as_secs_f64());
    let counts = cell_counts(&reference);
    out.tally.op(
        counts.is_some_and(|(_, timeout, _, _)| timeout == 0),
        || {
            format!(
            "{}: the reference report has no parsable cells line or reports timeouts: {counts:?}",
            mode.name()
        )
        },
    );

    let mut timed = Iterations::of_repeated_operations();
    let mut peak_rss_mb = 0.0f64;
    for _ in 0..iterations {
        let dir = ctx.scratch.fresh("iteration")?;
        let child = ctx.cli(
            &mut out.tally,
            mode.name(),
            &timed_args(mode, &prepared, &dir),
        )?;
        timed.push(child.wall_s, vec![child.wall_s * 1e3]);
        peak_rss_mb = peak_rss_mb.max(child.peak_rss_mb);
        let report = std::fs::read(dir.join("eval.txt")).unwrap_or_default();
        out.tally.op(!report.is_empty() && report == reference, || {
            format!(
                "{}: eval.txt ({} bytes) differs from the reference ({} bytes)",
                mode.name(),
                report.len(),
                reference.len()
            )
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    timed.report(&mut out.measured);
    out.measured.set("peak_rss_mb", peak_rss_mb);
    out.iterations = iterations;
    if let Some((ok, timeout, too_large, total)) = counts {
        out.notes.push(format!(
            "answered_share {ok}/{total} = {:.4} on every iteration ({too_large} too-large, \
             {timeout} timeout): eval.txt is byte-identical to the reference",
            ok as f64 / total as f64
        ));
    }
    out.notes.push(format!(
        "{iterations} iterations of one CLI run at --threads {THREADS}, --budget-ms 0, \
         --max-tuples {MAX_TUPLES}; the instance is pinned (seed {}), not derived from --seed",
        mode.instance_seed()
    ));
    Ok(out)
}

/// Bytes this process has read through `read`-family system calls.
fn bytes_read() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|l| l.strip_prefix("rchar: ")?.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Every sub-expression the matrix harness would cache: each conjunct's
/// expression, then the openCypher-degraded forms when G is selected.
fn cache_candidates(queries: &[&Query], engines: &[EngineKind]) -> Vec<RegularExpr> {
    let mut exprs = Vec::new();
    let mut collect = |query: &Query| {
        for rule in &query.rules {
            exprs.extend(rule.body.iter().map(|c| c.expr.clone()));
        }
    };
    queries.iter().for_each(|q| collect(q));
    if engines.contains(&EngineKind::Navigational) {
        queries
            .iter()
            .for_each(|q| collect(&degrade_for_cypher(q).0));
    }
    exprs
}

/// What the matrix harness warms before the first cell: the Datalog EDB,
/// the symbol relations P joins over, the planner's statistics.
fn build_context(ctx: &EvalContext<'_>, queries: &[&Query], engines: &[EngineKind]) {
    if engines.contains(&EngineKind::Datalog) {
        let _ = ctx.edb();
    }
    for query in queries {
        for rule in &query.rules {
            for sym in rule.body.iter().flat_map(|c| c.expr.symbols()) {
                if engines.contains(&EngineKind::Relational) {
                    let _ = ctx.relation(sym);
                }
                let _ = ctx.symbol_stats(sym);
            }
        }
    }
}

fn matrix_metrics(report: &EvalReport, m: &mut Measured) {
    let totals = report.totals();
    m.set("engines.ok_cells", totals.ok as f64);
    m.set("engines.too_large_cells", totals.too_large as f64);
    m.set("engines.timeout_cells", totals.timeout as f64);
    m.set_with_samples(
        "engines.answered_share",
        totals.ok as f64 / totals.cells as f64,
        totals.cells,
    );
    let mut tuples = 0u64;
    let mut slowest = 0.0f64;
    for kind in EngineKind::ALL {
        let name = match kind {
            EngineKind::Relational => "engines.P.cell_s",
            EngineKind::Navigational => "engines.G.cell_s",
            EngineKind::TripleStore => "engines.S.cell_s",
            EngineKind::Datalog => "engines.D.cell_s",
        };
        let cells: Vec<f64> = report
            .cells
            .iter()
            .filter(|c| c.engine == kind)
            .map(|c| c.seconds)
            .collect();
        m.set_with_samples(name, cells.iter().sum(), cells.len());
    }
    for cell in &report.cells {
        slowest = slowest.max(cell.seconds);
        if let CellOutcome::Answers { count, .. } = &cell.outcome {
            tuples += count;
        }
    }
    m.set_with_samples("engines.slowest_cell_s", slowest, report.cells.len());
    m.set("engines.answer_tuples", tuples as f64);
    if let Some(quality) = report.plan_quality() {
        m.set_with_samples(
            "engines.plan_within_10x_share",
            quality.within_10x as f64 / quality.estimated_ok.max(1) as f64,
            quality.estimated_ok,
        );
    }
    if let Some(cache) = report.cache {
        let lookups = cache.hits + cache.misses + cache.fills;
        m.set("engines.cache_fills", cache.fills as f64);
        m.set("engines.cache_hits", cache.hits as f64);
        m.set("engines.cache_misses", cache.misses as f64);
        m.set_with_samples(
            "engines.cache_hit_rate",
            cache.hits as f64 / lookups.max(1) as f64,
            lookups as usize,
        );
    }
}

/// The traced run: one untraced CLI iteration, then the plan through
/// `run()` and every engine-side layer in process, span by span.
fn traced(ctx: &Ctx<'_>, mode: Mode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let prepared = prepare(ctx, &mut out.tally, mode)?;
    let dir = ctx.scratch.fresh("iteration")?;
    let child = ctx.cli(
        &mut out.tally,
        mode.name(),
        &timed_args(mode, &prepared, &dir),
    )?;
    let _ = std::fs::remove_dir_all(&dir);

    let mut t = Tracer::new();
    let m = &mut out.measured;
    m.set("run.cpu_user_s", child.user_s);
    m.set("run.cpu_sys_s", child.sys_s);
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{} {what}: {e}", mode.name());

    let engines = mode.engines();
    let budget = CellBudget {
        timeout: None,
        max_tuples: MAX_TUPLES,
    };
    let mut plan = t
        .span("config.parse", |_| RunPlan::from_xml(&prepared.xml))
        .map_err(|e| fail("config", &e))?;
    let base_plan = plan.clone();
    plan.eval = Some(EvalSpec {
        engines: engines.clone(),
        budget_ms: 0,
        max_tuples: MAX_TUPLES,
        ..EvalSpec::default()
    });
    if let Some(store) = &prepared.store {
        plan.outputs.graph = false;
        plan.from_store = Some(store.clone());
    }
    let opts = RunOptions {
        seed: Some(mode.instance_seed()),
        threads: THREADS,
        scratch_dir: Some(ctx.scratch.path().to_path_buf()),
        ..RunOptions::default()
    };
    let traced_dir = ctx.scratch.fresh("traced")?;
    let mut sink = DirSink::new(&traced_dir).map_err(|e| fail("DirSink", &e))?;
    let summary = t
        .span("run.dirsink", |_| run(&plan, &opts, &mut sink))
        .map_err(|e| fail("run(DirSink)", &e))?;
    m.set(
        "run.stage_graph_s",
        summary.graph.map_or(0.0, |g| g.seconds),
    );
    m.set(
        "run.stage_workload_s",
        summary.workload.map_or(0.0, |w| w.seconds),
    );
    m.set("run.stage_eval_s", summary.eval.map_or(0.0, |e| e.seconds));
    m.set("run.output_bytes", dir_bytes(&traced_dir) as f64);

    // The instance, materialized: the in-RAM view, and the baseline the
    // paged scans are compared with.
    let gen_opts = GeneratorOptions {
        seed: mode.instance_seed(),
        threads: THREADS,
        ..GeneratorOptions::default()
    };
    let schema = &base_plan.graph.schema;
    let (graph, gen_report) = t.span("core.gen.materialize", |_| {
        generate_graph(&base_plan.graph, &gen_opts)
    });
    m.set("core.gen.edges", gen_report.total_edges as f64);
    let mut wcfg = base_plan
        .workload
        .clone()
        .expect("eval configs carry a workload");
    wcfg.seed = mode.instance_seed();
    let (workload, _) = t
        .span("core.workload.generate", |_| {
            generate_workload_with_threads(schema, &wcfg, THREADS)
        })
        .map_err(|e| fail("generate_workload", &e))?;
    let queries: Vec<&Query> = workload.queries.iter().map(|q| &q.query).collect();

    let read_before = bytes_read();
    let reader = match &prepared.store {
        Some(store) => Some(
            t.span("store.open_verify", |_| {
                let reader = StoreReader::open(store)?;
                reader.verify()?;
                Ok::<_, gmark::store::StoreError>(reader)
            })
            .map_err(|e| fail("StoreReader", &e))?,
        ),
        None => None,
    };
    if let Some(reader) = &reader {
        let symbols = (0..reader.predicate_count()).flat_map(|p| [(p, false), (p, true)]);
        let paged_pairs: usize = t.span("store.scan_paged", |_| {
            symbols
                .clone()
                .map(|(p, inverse)| reader.pairs(p, inverse).count())
                .sum()
        });
        let inram_pairs: usize = t.span("store.scan_inram", |_| {
            symbols
                .clone()
                .map(|(p, inverse)| graph.pairs(p, inverse).count())
                .sum()
        });
        out.tally.op(paged_pairs == inram_pairs, || {
            format!("the paged scan saw {paged_pairs} pairs, the in-RAM scan {inram_pairs}")
        });
        const PROBES: usize = 200_000;
        let mut rng = Prng::seed_from_u64(derive_seed(ctx.seed, purpose::PROBES, 0));
        let probes: Vec<(usize, u32, bool)> = (0..PROBES)
            .map(|_| {
                (
                    rng.below(reader.predicate_count() as u64) as usize,
                    rng.below(u64::from(reader.node_count())) as u32,
                    rng.chance(0.5),
                )
            })
            .collect();
        let found = t
            .span("store.lookups_paged", |_| {
                probes.iter().try_fold(0usize, |sum, &(p, v, inverse)| {
                    reader.neighbors(p, v, inverse).map(|n| sum + n.len())
                })
            })
            .map_err(|e| fail("paged neighbors", &e))?;
        std::hint::black_box(found);
        m.set("store.open_verify_s", t.total_s("store.open_verify"));
        m.set("store.scan_paged_s", t.total_s("store.scan_paged"));
        m.set("store.scan_inram_s", t.total_s("store.scan_inram"));
        m.set_with_samples(
            "store.lookup_paged_ns",
            t.total_s("store.lookups_paged") * 1e9 / PROBES as f64,
            PROBES,
        );
    }
    let view = match &reader {
        Some(reader) => GraphView::from(reader),
        None => GraphView::from(&graph),
    };

    let ectx = EvalContext::new(view);
    t.span("engines.context_build", |_| {
        build_context(&ectx, &queries, &engines)
    });
    let candidates = cache_candidates(&queries, &engines);
    t.span("engines.cache_fill", |_| {
        ectx.fill_expr_cache(&candidates, MatrixOptions::DEFAULT_CACHE_MB, || {
            budget.start()
        })
    });
    let plans = t.span("engines.plan", |_| {
        queries
            .iter()
            .map(|q| plan_query(&ectx, Some(schema), q))
            .collect::<Vec<_>>()
    });
    std::hint::black_box(plans);
    let options = MatrixOptions {
        threads: THREADS,
        warm_runs: 0,
        plan: true,
        cache_mb: MatrixOptions::DEFAULT_CACHE_MB,
    };
    let report = t.span("engines.matrix", |_| {
        evaluate_matrix_with_schema(&ectx, Some(schema), &queries, &engines, &budget, &options)
    });
    matrix_metrics(&report, m);
    if let Some(store) = &prepared.store {
        // Everything read since the store was opened: verification, the
        // scans and probes, context build, cache fill and one matrix.
        let read = (bytes_read() - read_before) as f64;
        let store_bytes = std::fs::metadata(store).map_or(1, |md| md.len().max(1)) as f64;
        m.set("store.paged_read_mb", read / 1e6);
        m.set("store.read_amplification", read / store_bytes);
    }
    let errors = report
        .cells
        .iter()
        .filter(|c| {
            matches!(
                &c.outcome,
                CellOutcome::Failed(EvalError::Internal(_) | EvalError::Unsupported(_))
            )
        })
        .count();
    out.tally
        .op(errors == 0 && report.totals().timeout == 0, || {
            format!(
                "{errors} cells ended in an engine error, {} timed out",
                report.totals().timeout
            )
        });

    // The same matrix without the cross-cell cache, on a fresh context
    // warmed the same way, so the two matrix times differ only by the cache.
    let cold = EvalContext::new(view);
    t.span("engines.context_rebuild", |_| {
        build_context(&cold, &queries, &engines)
    });
    let uncached = t.span("engines.matrix_nocache", |_| {
        evaluate_matrix_with_schema(
            &cold,
            Some(schema),
            &queries,
            &engines,
            &budget,
            &MatrixOptions {
                cache_mb: 0,
                ..options
            },
        )
    });
    // The cache may change where a too-large cell gives up, never whether
    // it does, nor any answer count.
    let same_outcome = |x: &CellOutcome, y: &CellOutcome| match (x, y) {
        (CellOutcome::Failed(a), CellOutcome::Failed(b)) => {
            std::mem::discriminant(a) == std::mem::discriminant(b)
        }
        _ => x == y,
    };
    let same = |a: &EvalReport, b: &EvalReport| {
        a.cells.len() == b.cells.len()
            && a.cells
                .iter()
                .zip(&b.cells)
                .all(|(x, y)| same_outcome(&x.outcome, &y.outcome))
    };
    out.tally.op(same(&report, &uncached), || {
        "cell outcomes differ between the cached and the uncached matrix".to_owned()
    });

    m.set("config.parse_ms", t.total_s("config.parse") * 1e3);
    m.set("run.dirsink_s", t.total_s("run.dirsink"));
    m.set("core.gen.materialize_s", t.total_s("core.gen.materialize"));
    m.set(
        "core.gen.edges_per_s",
        gen_report.total_edges as f64 / t.total_s("core.gen.materialize"),
    );
    m.set(
        "core.workload.generate_s",
        t.total_s("core.workload.generate"),
    );
    m.set(
        "core.workload.queries_per_s",
        queries.len() as f64 / t.total_s("core.workload.generate"),
    );
    m.set(
        "engines.context_build_s",
        t.total_s("engines.context_build"),
    );
    m.set("engines.cache_fill_s", t.total_s("engines.cache_fill"));
    m.set("engines.plan_s", t.total_s("engines.plan"));
    m.set("engines.matrix_s", t.total_s("engines.matrix"));
    m.set(
        "engines.matrix_nocache_s",
        t.total_s("engines.matrix_nocache"),
    );
    super::finish_trace(
        ctx,
        mode.name(),
        &t,
        m,
        child.wall_s,
        t.total_s("run.dirsink"),
    )?;
    out.iterations = 1;
    out.notes.push(format!(
        "one untraced CLI run ({:.3} s), then run() and the engine layers in process at \
         {THREADS} threads on the same pinned instance",
        child.wall_s
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cells_line_parses() {
        let report = b"gMark evaluation report\nq1 ok\n\
            cells: 95 ok, 0 timeout, 25 too-large, 0 unsupported, 0 error (120 total)\n\
            plan: 66/95 estimates within 10x of actual\n";
        assert_eq!(cell_counts(report), Some((95, 0, 25, 120)));
        assert_eq!(cell_counts(b"no such line\n"), None);
    }
}
