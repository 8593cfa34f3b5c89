//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Sections 6–7). Each artifact has a dedicated binary:
//!
//! | artifact | binary | what it prints |
//! |---|---|---|
//! | Table 2  | `table2` | measured `α` mean±sd per selectivity class, workloads Len/Dis/Con/Rec × use cases |
//! | Table 3  | `table3` | graph generation wall time per size × schema |
//! | Table 4  | `table4` | recursive-query times per engine × size, `-` on failure |
//! | Fig. 10  | `fig10`  | per-class runtimes: fixed "org"-style vs generated gMark queries on SP |
//! | Fig. 11  | `fig11`  | measured result counts vs fitted `β·n^α` per class, Bib workloads |
//! | Fig. 12  | `fig12`  | engine timing grid on non-recursive workloads Len/Dis/Con |
//!
//! Every binary accepts `--full` for the paper-scale parameterization
//! (larger graphs, more sizes); the default is scaled to finish on a
//! laptop. The README's "Experiments and benchmarks" section lists the
//! commands.
//!
//! This library holds what the binaries share: the Section 6.2 workload
//! definitions (Len / Dis / Con / Rec), the budgets and warm-run count of
//! the Section 7.1 measurement protocol (which
//! [`MatrixOptions::warm_runs`] runs: cold run discarded, warm runs
//! averaged after dropping the fastest and slowest), the [`Sweep`] every
//! evaluating binary runs its matrices through, and small table-printing
//! helpers.

use gmark::run::{run_in_memory, RunOptions, RunPlan};
use gmark_core::query::Query;
use gmark_core::schema::Schema;
use gmark_core::selectivity::SelectivityClass;
use gmark_core::workload::{QuerySize, Workload, WorkloadConfig};
use gmark_engines::{
    evaluate_matrix_with_schema, CellBudget, CellOutcome, EngineKind, EvalCell, EvalContext,
    EvalError, EvalReport, MatrixOptions,
};
use gmark_store::Graph;
use std::time::Duration;

/// The four stress-test workload families of Section 6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Varying path lengths; no disjuncts, single conjunct, no recursion.
    Len,
    /// Disjuncts; single conjunct, no recursion.
    Dis,
    /// Conjuncts and disjuncts; no recursion.
    Con,
    /// Recursion (Kleene stars).
    Rec,
}

impl WorkloadKind {
    /// All four, in the paper's order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Len,
        WorkloadKind::Dis,
        WorkloadKind::Con,
        WorkloadKind::Rec,
    ];

    /// The non-recursive families used by Fig. 12.
    pub const NON_RECURSIVE: [WorkloadKind; 3] =
        [WorkloadKind::Len, WorkloadKind::Dis, WorkloadKind::Con];

    /// Paper name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Len => "Len",
            WorkloadKind::Dis => "Dis",
            WorkloadKind::Con => "Con",
            WorkloadKind::Rec => "Rec",
        }
    }

    /// The workload configuration of this family: 30 queries — 10
    /// constant, 10 linear, 10 quadratic (Section 6.2).
    pub fn config(self, seed: u64) -> WorkloadConfig {
        let mut cfg = WorkloadConfig::new(30).with_seed(seed);
        cfg.selectivities = SelectivityClass::ALL.to_vec();
        match self {
            WorkloadKind::Len => {
                cfg.query_size = QuerySize {
                    conjuncts: (1, 1),
                    disjuncts: (1, 1),
                    length: (1, 4),
                };
            }
            WorkloadKind::Dis => {
                cfg.query_size = QuerySize {
                    conjuncts: (1, 1),
                    disjuncts: (2, 4),
                    length: (1, 3),
                };
            }
            WorkloadKind::Con => {
                cfg.query_size = QuerySize {
                    conjuncts: (2, 3),
                    disjuncts: (1, 3),
                    length: (1, 3),
                };
            }
            WorkloadKind::Rec => {
                cfg.query_size = QuerySize {
                    conjuncts: (1, 2),
                    disjuncts: (1, 2),
                    length: (1, 3),
                };
                cfg.recursion_probability = 0.5;
            }
        }
        cfg
    }

    /// Generates the family's workload for a schema (through the unified
    /// pipeline API; output is identical to the historical
    /// `generate_workload_with_threads` call).
    pub fn workload(self, schema: &Schema, seed: u64) -> Workload {
        let plan = RunPlan::builder(schema.clone())
            .workload(self.config(seed))
            .queries_only()
            .build()
            .expect("experiment plans are valid");
        run_in_memory(&plan, &RunOptions::default())
            .expect("experiment workloads generate")
            .workload
            .expect("queries-only plans materialize a workload")
    }
}

/// Common harness options parsed from argv.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Paper-scale parameters instead of the laptop-scale defaults.
    pub full: bool,
    /// Seed shared by all generation in an experiment.
    pub seed: u64,
    /// Worker threads for graph generation (`--threads N`; generation is
    /// bit-identical at every thread count).
    pub threads: usize,
}

impl HarnessOptions {
    /// Parses `--full`, `--seed N`, and `--threads N` from the process
    /// arguments; on a malformed command line, prints the error and exits
    /// with status 2.
    pub fn from_args() -> HarnessOptions {
        HarnessOptions::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!("usage: [--full] [--seed N] [--threads N]");
            std::process::exit(2)
        })
    }

    /// Parses `--full`, `--seed N`, and `--threads N` (arguments after the
    /// program name). A missing or malformed value and an unknown argument
    /// are errors, not silently ignored.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<HarnessOptions, String> {
        let mut opts = HarnessOptions {
            full: false,
            seed: 0x9A9E_2017,
            threads: 1,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => opts.full = true,
                "--seed" => opts.seed = flag_value(&mut args, "--seed")?,
                "--threads" => opts.threads = flag_value(&mut args, "--threads")?,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(opts)
    }

    /// The graph sizes of the selectivity experiments (Sections 6.2/7:
    /// 2K–32K in the paper; a smaller sweep by default).
    pub fn selectivity_sizes(&self) -> Vec<u64> {
        if self.full {
            vec![2_000, 4_000, 8_000, 16_000, 32_000]
        } else {
            vec![1_000, 2_000, 4_000]
        }
    }

    /// The engine-comparison sizes (2K–16K in the paper).
    pub fn engine_sizes(&self) -> Vec<u64> {
        if self.full {
            vec![2_000, 4_000, 8_000, 16_000]
        } else {
            vec![1_000, 2_000, 4_000]
        }
    }

    /// Graph-generation scalability sizes (Table 3: 100K–100M).
    pub fn scalability_sizes(&self) -> Vec<u64> {
        if self.full {
            vec![100_000, 1_000_000, 10_000_000, 100_000_000]
        } else {
            vec![100_000, 1_000_000, 10_000_000]
        }
    }

    /// The per-cell budget recipe for the evaluation matrix harness: each
    /// (engine × query) cell starts a fresh clock, so late cells are not
    /// charged for earlier ones.
    pub fn cell_budget(&self) -> CellBudget {
        if self.full {
            CellBudget {
                timeout: Some(Duration::from_secs(120)),
                max_tuples: 50_000_000,
            }
        } else {
            CellBudget {
                timeout: Some(Duration::from_secs(10)),
                max_tuples: 20_000_000,
            }
        }
    }

    /// Warm runs for the timing protocol (5 in the paper).
    pub fn warm_runs(&self) -> usize {
        if self.full {
            5
        } else {
            3
        }
    }

    /// Matrix options for [`gmark_engines::evaluate_matrix_with_schema`], carrying the
    /// harness thread count and the Section 7.1 warm-run protocol.
    pub fn matrix_options(&self) -> MatrixOptions {
        MatrixOptions {
            threads: self.threads,
            warm_runs: self.warm_runs(),
            ..MatrixOptions::default()
        }
    }
}

/// Takes and parses the value after `flag`, naming the flag in the error.
fn flag_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let value = args
        .next()
        .ok_or_else(|| format!("missing value after {flag}"))?;
    value
        .parse()
        .map_err(|_| format!("invalid value `{value}` for {flag}"))
}

/// Generates a graph for an experiment (shared seed discipline), through
/// the unified pipeline API — bit-identical to the historical
/// `generate_graph` call at every thread count.
fn build_graph(schema: &Schema, n: u64, seed: u64, threads: usize) -> Graph {
    let plan = RunPlan::builder(schema.clone())
        .nodes(n)
        .build()
        .expect("experiment plans are valid");
    run_in_memory(&plan, &RunOptions::with_seed(seed).threads(threads))
        .expect("experiment graphs generate")
        .graph
        .expect("graph plans materialize a graph")
}

/// The instances of one experiment: one graph per size, each built once
/// by `build_graph`.
pub struct Sweep {
    graphs: Vec<(u64, Graph)>,
}

impl Sweep {
    /// Builds `schema`'s graph at every size, in order.
    pub fn new(schema: &Schema, sizes: &[u64], seed: u64, threads: usize) -> Sweep {
        let graphs = sizes
            .iter()
            .map(|&n| (n, build_graph(schema, n, seed, threads)))
            .collect();
        Sweep { graphs }
    }

    /// Runs one (query × engine) matrix per size, each on a fresh
    /// [`EvalContext`] (a context fills its sub-expression cache once, for
    /// its first matrix), and returns each size with its report.
    pub fn matrices(
        &self,
        queries: &[&Query],
        engines: &[EngineKind],
        budget: &CellBudget,
        options: &MatrixOptions,
    ) -> Vec<(u64, EvalReport)> {
        self.graphs
            .iter()
            .map(|(n, graph)| {
                let ctx = EvalContext::new(graph);
                let report =
                    evaluate_matrix_with_schema(&ctx, None, queries, engines, budget, options);
                (*n, report)
            })
            .collect()
    }
}

/// One matrix row's answer count in `engine`'s column at every size of
/// [`Sweep::matrices`], or the first size whose cell failed and how.
pub fn row_counts(
    matrices: &[(u64, EvalReport)],
    row: usize,
    engine: EngineKind,
) -> Result<Vec<(u64, u64)>, (u64, EvalError)> {
    matrices
        .iter()
        .map(|(n, report)| {
            let cell = report.cell(row, engine).expect("matrix covers every cell");
            match &cell.outcome {
                CellOutcome::Answers { count, .. } => Ok((*n, *count)),
                CellOutcome::Failed(e) => Err((*n, e.clone())),
            }
        })
        .collect()
}

/// Formats a duration like the paper's Table 3 (`1m28.725s` / `0m0.057s`).
pub fn fmt_minutes(d: Duration) -> String {
    let total = d.as_secs_f64();
    let minutes = (total / 60.0).floor() as u64;
    let seconds = total - minutes as f64 * 60.0;
    format!("{minutes}m{seconds:.3}s")
}

/// Formats one evaluation-matrix cell like the paper's grids: warm-run
/// mean seconds for completed cells, `-` for budget failures.
pub fn fmt_matrix_cell(cell: &EvalCell) -> String {
    match &cell.outcome {
        CellOutcome::Answers { .. } => format!("{:.3}s", cell.seconds),
        CellOutcome::Failed(_) => "-".to_owned(),
    }
}

/// Formats one matrix cell as `time/result-count` (Fig. 10 style).
pub fn fmt_matrix_cell_with_count(cell: &EvalCell) -> String {
    match &cell.outcome {
        CellOutcome::Answers { count, .. } => format!("{:.3}s/{count}", cell.seconds),
        CellOutcome::Failed(_) => "-".to_owned(),
    }
}

/// Prints a row of fixed-width cells.
pub fn print_row(label: &str, cells: &[String], width: usize) {
    let mut line = format!("{label:<16}");
    for c in cells {
        line.push_str(&format!(" {c:>w$}", w = width));
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_kinds_have_expected_shapes() {
        let bib = gmark_core::usecases::bib();
        for kind in WorkloadKind::ALL {
            let w = kind.workload(&bib, 1);
            assert_eq!(w.queries.len(), 30, "{}", kind.name());
            for gq in &w.queries {
                let (_, conjuncts, disjuncts, _) = gq.query.size();
                match kind {
                    WorkloadKind::Len | WorkloadKind::Dis => assert_eq!(conjuncts, 1),
                    WorkloadKind::Con => assert!(conjuncts >= 2),
                    WorkloadKind::Rec => {}
                }
                if kind == WorkloadKind::Dis {
                    // Disjunct sampling may merge duplicate paths, but the
                    // request was for ≥ 2.
                    assert!(disjuncts >= 1);
                }
            }
            if kind == WorkloadKind::Rec {
                assert!(
                    w.queries.iter().any(|gq| gq.query.is_recursive()),
                    "Rec workload should contain stars"
                );
            } else {
                assert!(w.queries.iter().all(|gq| !gq.query.is_recursive()));
            }
        }
    }

    #[test]
    fn workload_kinds_balance_classes() {
        let bib = gmark_core::usecases::bib();
        let w = WorkloadKind::Len.workload(&bib, 2);
        for class in SelectivityClass::ALL {
            let n = w.of_class(class).count();
            assert!(n >= 9, "{class}: {n}");
        }
    }

    /// The Section 7.1 protocol runs through the matrix: warm runs change
    /// the timing, never the count a cell reports.
    #[test]
    fn measure_protocol_runs() {
        let bib = gmark_core::usecases::bib();
        let sweep = Sweep::new(&bib, &[500], 3, 2);
        let w = WorkloadKind::Len.workload(&bib, 4);
        let engine = EngineKind::TripleStore;
        let opts = HarnessOptions {
            full: false,
            seed: 1,
            threads: 2,
        };
        let options = opts.matrix_options();
        assert_eq!(options.warm_runs, 3);
        let query = &w.queries[0].query;
        let matrices = sweep.matrices(&[query], &[engine], &CellBudget::default(), &options);
        assert!(matrices[0].1.cells[0].seconds >= 0.0);
        let ctx = EvalContext::new(&sweep.graphs[0].1);
        let direct = engine.evaluate(&ctx, query, None, &gmark_engines::Budget::default());
        assert_eq!(
            row_counts(&matrices, 0, engine),
            Ok(vec![(500, direct.unwrap().count())])
        );
    }

    /// What a matrix decides, timings aside: every cell label (planner
    /// estimates included), the cache's contents and counters, and the
    /// plan-quality totals.
    fn decided(
        report: &EvalReport,
    ) -> (
        Vec<String>,
        Option<gmark_engines::EvalCacheStats>,
        Option<gmark_engines::PlanQuality>,
    ) {
        let labels = report.cells.iter().map(EvalCell::label).collect();
        (labels, report.cache, report.plan_quality())
    }

    /// Bib at 1 000 nodes and its Len and Dis workloads, in that order.
    fn len_then_dis() -> (Sweep, Vec<Workload>) {
        let bib = gmark_core::usecases::bib();
        let sweep = Sweep::new(&bib, &[1_000], 5, 2);
        let workloads = [WorkloadKind::Len, WorkloadKind::Dis]
            .map(|kind| kind.workload(&bib, 6))
            .to_vec();
        (sweep, workloads)
    }

    const CAPPED: CellBudget = CellBudget {
        timeout: None,
        max_tuples: 1_000_000,
    };

    fn options() -> MatrixOptions {
        MatrixOptions {
            threads: 2,
            ..MatrixOptions::default()
        }
    }

    fn queries(workload: &Workload) -> Vec<&Query> {
        workload.queries.iter().map(|gq| &gq.query).collect()
    }

    /// Each matrix a sweep returns, the second workload's included, decides
    /// what the same matrix decides run alone on a fresh context.
    #[test]
    fn a_sweep_matrix_decides_what_it_decides_alone() {
        let (sweep, workloads) = len_then_dis();
        for workload in &workloads {
            let queries = queries(workload);
            let swept = sweep.matrices(&queries, &EngineKind::ALL, &CAPPED, &options());
            let ctx = EvalContext::new(&sweep.graphs[0].1);
            let alone = evaluate_matrix_with_schema(
                &ctx,
                None,
                &queries,
                &EngineKind::ALL,
                &CAPPED,
                &options(),
            );
            assert_eq!(decided(&swept[0].1), decided(&alone));
        }
    }

    /// The same comparison over one context shared by both matrices fails:
    /// the second matrix gets no fill of its own, so its estimates, its
    /// cache stats and its plan quality are not the ones it gets alone.
    #[test]
    fn a_shared_context_changes_the_second_matrix() {
        let (sweep, workloads) = len_then_dis();
        let [len, dis] = [&workloads[0], &workloads[1]].map(queries);
        let shared = EvalContext::new(&sweep.graphs[0].1);
        let run = |ctx: &EvalContext<'_>, queries: &[&Query]| {
            evaluate_matrix_with_schema(ctx, None, queries, &EngineKind::ALL, &CAPPED, &options())
        };
        run(&shared, &len);
        let after_len = run(&shared, &dis);
        let alone = sweep.matrices(&dis, &EngineKind::ALL, &CAPPED, &options());
        let (shared, alone) = (decided(&after_len), decided(&alone[0].1));
        assert_ne!(shared.0, alone.0, "the estimates in the labels");
        assert_ne!(shared.1, alone.1, "the cache's entries and counters");
        assert_ne!(shared.2, alone.2, "the plan-quality totals");
    }

    /// The row reader returns a row's count at every size, or the first
    /// size whose cell failed under a cap that the row exceeds there.
    #[test]
    fn the_row_reader_reports_the_first_failed_size() {
        let bib = gmark_core::usecases::bib();
        let sweep = Sweep::new(&bib, &[500, 1_000], 5, 2);
        let workload = WorkloadKind::Len.workload(&bib, 6);
        let queries = queries(&workload);
        let engines = [EngineKind::TripleStore];
        let bare = MatrixOptions {
            plan: false,
            cache_mb: 0,
            ..options()
        };
        let counts = |budget: &CellBudget| {
            let matrices = sweep.matrices(&queries, &engines, budget, &bare);
            (0..queries.len())
                .map(|row| row_counts(&matrices, row, EngineKind::TripleStore))
                .collect::<Vec<_>>()
        };
        let uncapped = counts(&CellBudget::default());
        let largest = |row: usize| uncapped[row].as_ref().expect("every row fits")[1].1;
        let row = (0..queries.len()).max_by_key(|&r| largest(r)).unwrap();
        let cap = largest(row) - 1;
        let at_500 = uncapped[row].as_ref().unwrap()[0].1;
        assert!(
            at_500 <= cap as u64,
            "the row must fit the cap at 500 nodes"
        );

        let capped = counts(&CellBudget {
            timeout: None,
            max_tuples: cap as usize,
        });
        assert!(
            matches!(capped[row], Err((1_000, EvalError::TooLarge(_)))),
            "{:?}",
            capped[row]
        );
        for (r, result) in capped.iter().enumerate() {
            if largest(r) <= cap {
                assert_eq!(result, &uncapped[r], "row {r} fits the cap");
            }
        }
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_minutes(Duration::from_millis(57)), "0m0.057s");
        assert_eq!(fmt_minutes(Duration::from_secs_f64(88.725)), "1m28.725s");
    }

    fn parse(line: &[&str]) -> Result<HarnessOptions, String> {
        HarnessOptions::parse(line.iter().map(|a| a.to_string()))
    }

    #[test]
    fn harness_options_parse_a_good_line() {
        let o = parse(&["--threads", "4", "--full", "--seed", "7"]).unwrap();
        assert!(o.full);
        assert_eq!((o.seed, o.threads), (7, 4));
        let d = parse(&[]).unwrap();
        assert!(!d.full);
        assert_eq!((d.seed, d.threads), (0x9A9E_2017, 1));
    }

    /// A bad value, a missing value and an unknown flag are errors, never
    /// a silent fall-back to the default.
    #[test]
    fn harness_options_reject_a_malformed_line() {
        for (line, error) in [
            (&["--threads", "x"][..], "invalid value `x` for --threads"),
            (&["--seed", "-1"], "invalid value `-1` for --seed"),
            (&["--full", "--seed"], "missing value after --seed"),
            (&["--thread", "2"], "unknown argument `--thread`"),
        ] {
            assert_eq!(parse(line).unwrap_err(), error, "{line:?}");
        }
    }

    #[test]
    fn harness_options_defaults() {
        let o = HarnessOptions {
            full: false,
            seed: 1,
            threads: 1,
        };
        assert_eq!(o.selectivity_sizes().len(), 3);
        assert_eq!(o.scalability_sizes().len(), 3);
        let f = HarnessOptions {
            full: true,
            seed: 1,
            threads: 1,
        };
        assert!(f.selectivity_sizes().contains(&32_000));
        assert!(f.scalability_sizes().contains(&100_000_000));
    }
}
