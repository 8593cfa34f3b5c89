//! The six named workloads and what they share: the run context, the
//! operation tally behind `attempted` / `failed`, and the per-run scaling
//! of fixed work counts.
//!
//! Work per run is always a count — iterations or requests — never a
//! duration, so both sides of a later comparison do identical work.
//! `--seconds` scales that count (the default, `RUN_SECONDS`, gives the
//! counts in each workload's table row) and never drops it below three
//! iterations.

pub mod eval;
pub mod gen;
pub mod serve;

use crate::child::{self, CpuSplit, Scratch, Usage};
use crate::metrics::Measured;
use crate::trace::Tracer;
use std::path::Path;

/// Worker threads everywhere: `--threads 2`, `--workers 2`, two client
/// connections, two load threads in this process.
pub const THREADS: usize = 2;

/// The workload names, in `BENCHMARK.json` order. Later issues cite them.
pub const NAMES: [&str; 6] = [
    "gen-stream",
    "gen-full",
    "eval-inram",
    "eval-paged",
    "serve-hot",
    "serve-churn",
];

/// Everything a workload run needs from the harness.
pub struct Ctx<'a> {
    /// The release `gmark` binary under test.
    pub gmark: &'a Path,
    /// This process's scratch directory (inside `benchmark/out/`).
    pub scratch: &'a Scratch,
    /// Where trace files go (`benchmark/out/`).
    pub out_dir: &'a Path,
    /// The CPUs of the serve workloads' daemon and of their clients.
    pub cpus: CpuSplit,
    /// The benchmark seed every input derives from.
    pub seed: u64,
    /// `--seconds`: scales the fixed work counts.
    pub seconds: u64,
}

impl Ctx<'_> {
    /// `base` units of work at the default run length, scaled by
    /// `--seconds`, never fewer than three.
    pub fn scaled(&self, base: usize) -> usize {
        ((base as u64 * self.seconds / crate::RUN_SECONDS) as usize).max(3)
    }

    /// Runs one `gmark` command line and tallies it as an operation; a
    /// non-zero exit is a failed operation, not a harness error.
    pub fn cli(&self, tally: &mut Tally, label: &str, args: &[String]) -> Result<Usage, String> {
        let log = self.scratch.path().join("cli.log");
        let usage = child::run_cli(self.gmark, args, &log)?;
        tally.op(usage.success, || {
            format!("{label}: gmark exited non-zero: {}", child::log_tail(&log))
        });
        Ok(usage)
    }

    /// `gmark --verify-store <store>`, tallied like any other run.
    pub fn verify_store(&self, tally: &mut Tally, store: &Path) -> Result<Usage, String> {
        let args = [
            "--verify-store".to_owned(),
            store.to_string_lossy().into_owned(),
        ];
        self.cli(tally, "gmark --verify-store", &args)
    }
}

/// Operations attempted and failed. A failed operation is a non-zero CLI
/// exit, a non-200 response, or an output check that does not hold.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one operation; `why` is only rendered on failure.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(why());
            }
        }
    }
}

/// The timed iterations of an end-to-end run, and how they become
/// `wall_s`, `latency_p50_ms` and `latency_p95_ms`.
///
/// `wall_s` is the median iteration wall time. The latency percentiles are
/// medians too, taken so that one disturbed iteration moves nothing: where
/// every iteration repeats the same operations (the CLI workloads: one run
/// per use case), each operation's latency is first reduced to its median
/// over iterations and the percentiles are taken over operations; where
/// operations are anonymous (requests), the percentiles are taken inside
/// each iteration and the median over iterations is reported.
#[derive(Debug, Default)]
pub struct Iterations {
    repeated: bool,
    walls_s: Vec<f64>,
    /// Per iteration, the latency of each operation in issue order.
    op_ms: Vec<Vec<f64>>,
}

impl Iterations {
    /// Iterations that each run the same operations in the same order.
    pub fn of_repeated_operations() -> Iterations {
        Iterations {
            repeated: true,
            ..Iterations::default()
        }
    }

    /// Adds one iteration: its wall time and the latency of each of its
    /// operations (CLI runs or requests).
    pub fn push(&mut self, wall_s: f64, op_ms: Vec<f64>) {
        self.walls_s.push(wall_s);
        self.op_ms.push(op_ms);
    }

    /// Number of iterations so far.
    pub fn len(&self) -> usize {
        self.walls_s.len()
    }

    /// Latency samples over all iterations.
    pub fn operations(&self) -> usize {
        self.op_ms.iter().map(Vec::len).sum()
    }

    /// Records `wall_s`, `latency_p50_ms` and `latency_p95_ms`.
    pub fn report(&self, m: &mut Measured) {
        use crate::stats::{percentile, sorted, summarize};
        m.set_median("wall_s", &self.walls_s);
        let percentiles = |samples: &[f64]| {
            let samples = sorted(samples.to_vec());
            (percentile(&samples, 50.0), percentile(&samples, 95.0))
        };
        if self.repeated {
            let operations = self.op_ms.first().map_or(0, Vec::len);
            let typical: Vec<f64> = (0..operations)
                .map(|op| {
                    let over_iterations: Vec<f64> = self.op_ms.iter().map(|it| it[op]).collect();
                    summarize(&over_iterations).median
                })
                .collect();
            let (p50, p95) = percentiles(&typical);
            m.set_with_samples("latency_p50_ms", p50, self.operations());
            m.set_with_samples("latency_p95_ms", p95, self.operations());
        } else {
            let (p50s, p95s): (Vec<f64>, Vec<f64>) =
                self.op_ms.iter().map(|it| percentiles(it)).unzip();
            m.set_median("latency_p50_ms", &p50s);
            m.set_median("latency_p95_ms", &p95s);
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics measured.
    pub measured: Measured,
    /// Operations and output checks.
    pub tally: Tally,
    /// Timed iterations (CLI workloads) or request batches (serve).
    pub iterations: usize,
    /// Human-readable remarks: sample counts, cache hit rates, the
    /// closed-loop model.
    pub notes: Vec<String>,
}

/// Runs workload `name` end to end (`trace == false`) or traced.
pub fn run(name: &str, ctx: &Ctx<'_>, trace: bool) -> Result<Outcome, String> {
    match name {
        "gen-stream" => gen::measure(ctx, gen::Mode::Stream, trace),
        "gen-full" => gen::measure(ctx, gen::Mode::Full, trace),
        "eval-inram" => eval::measure(ctx, eval::Mode::InRam, trace),
        "eval-paged" => eval::measure(ctx, eval::Mode::Paged, trace),
        "serve-hot" => serve::measure(ctx, serve::Mode::Hot, trace),
        "serve-churn" => serve::measure(ctx, serve::Mode::Churn, trace),
        _ => Err(format!(
            "unknown workload {name:?} (one of: {})",
            NAMES.join(", ")
        )),
    }
}

/// Closes a traced run: the tracing overhead (traced wall over untraced
/// wall of the same work, minus one), the span count, and the trace file
/// `out/trace-<workload>.json`.
pub fn finish_trace(
    ctx: &Ctx<'_>,
    workload: &str,
    tracer: &Tracer,
    m: &mut Measured,
    untraced_wall_s: f64,
    traced_wall_s: f64,
) -> Result<(), String> {
    m.set(
        "trace.overhead_share",
        traced_wall_s / untraced_wall_s - 1.0,
    );
    m.set("trace.spans", tracer.len() as f64);
    tracer.write(
        &ctx.out_dir.join(format!("trace-{workload}.json")),
        workload,
    )
}

/// `--config C --output O --seed S --threads T` followed by `flags`: the
/// common head of every generating `gmark` command line.
pub fn run_args(
    config: &Path,
    output: &Path,
    seed: u64,
    threads: usize,
    flags: &[&str],
) -> Vec<String> {
    let mut args = vec![
        "--config".to_owned(),
        config.to_string_lossy().into_owned(),
        "--output".to_owned(),
        output.to_string_lossy().into_owned(),
        "--seed".to_owned(),
        seed.to_string(),
        "--threads".to_owned(),
        threads.to_string(),
    ];
    args.extend(flags.iter().map(|flag| (*flag).to_owned()));
    args
}

/// Total size of the artifacts directly inside `dir`. `report.txt` is left
/// out: it prints stage wall times, so its length is not a function of the
/// plan.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name() != "report.txt")
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_operations_are_reduced_per_operation_first() {
        let mut it = Iterations::of_repeated_operations();
        // Four use cases, three iterations; one disturbed run (900) and one
        // disturbed iteration wall (9.0).
        it.push(4.0, vec![100.0, 200.0, 300.0, 400.0]);
        it.push(9.0, vec![110.0, 900.0, 310.0, 410.0]);
        it.push(4.2, vec![120.0, 220.0, 320.0, 420.0]);
        let mut m = Measured::default();
        it.report(&mut m);
        assert_eq!(m.get("wall_s").unwrap().value, 4.2);
        // Per-operation medians are 110, 220, 310, 410.
        assert_eq!(m.get("latency_p50_ms").unwrap().value, 220.0);
        assert_eq!(m.get("latency_p95_ms").unwrap().value, 410.0);
        assert_eq!((it.len(), it.operations()), (3, 12));
    }

    #[test]
    fn anonymous_operations_are_reduced_per_iteration_first() {
        let mut it = Iterations::default();
        let batch = |scale: f64| (1..=100).map(|i| f64::from(i) * scale).collect::<Vec<_>>();
        it.push(1.0, batch(1.0));
        it.push(5.0, batch(10.0)); // a disturbed batch
        it.push(1.1, batch(1.1));
        let mut m = Measured::default();
        it.report(&mut m);
        assert_eq!(m.get("wall_s").unwrap().value, 1.1);
        assert!((m.get("latency_p50_ms").unwrap().value - 55.0).abs() < 1e-9);
        assert!((m.get("latency_p95_ms").unwrap().value - 104.5).abs() < 1e-9);
        assert_eq!(m.get("latency_p95_ms").unwrap().samples, 3);
    }

    #[test]
    fn work_counts_scale_with_seconds_and_never_drop_below_three() {
        let parent = std::env::temp_dir().join("gmark-benchmark-scaling-test");
        let scratch = Scratch::create(&parent).unwrap();
        let ctx = |seconds| Ctx {
            gmark: Path::new("gmark"),
            scratch: &scratch,
            out_dir: Path::new("."),
            cpus: CpuSplit::detect().unwrap(),
            seed: 1,
            seconds,
        };
        assert_eq!(ctx(15).scaled(3), 3);
        assert_eq!(ctx(15).scaled(40), 40);
        assert_eq!(ctx(30).scaled(40), 80);
        assert_eq!(ctx(1).scaled(40), 3);
        assert_eq!(ctx(60).scaled(3), 12);
        drop(scratch);
        let _ = std::fs::remove_dir(&parent);
    }
}
