//! `gen-stream` and `gen-full`: Table 3 of the paper over all four use
//! cases, through the CLI.
//!
//! One iteration is four `gmark` runs, one per use case at the fixed sizes
//! of [`USECASES`]. `gen-stream` uses `--stream` with a 30-query workload:
//! the samplers, `core.gen` and the shard / N-Triples writers do all the
//! work. `gen-full` runs the same instances in the default materialised
//! mode with `--store` and a 1000-query workload in all five syntaxes:
//! sorted and deduplicated output, CSR build, `graph.gstore`, and the
//! parallel workload + translate shard pipeline — so a gain for streaming
//! that costs the materialised path shows here.

use super::{dir_bytes, run_args, Ctx, Iterations, Outcome, Tally, THREADS};
use crate::check::{fingerprint_file, Fingerprint};
use crate::child::Usage;
use crate::load::{derive_seed, purpose, usecase_xml, USECASES};
use crate::metrics::Measured;
use crate::trace::Tracer;
use gmark::core::{
    generate_graph, generate_into, generate_streamed, generate_workload_with_threads,
    GeneratorOptions, StreamOptions,
};
use gmark::run::{run, DirSink, NullSink, RunOptions, RunPlan};
use gmark::stats::{DegreeSampler, Gaussian, Prng, Zipf};
use gmark::store::{
    GraphBuilder, NTriplesWriter, StoreMeta, StoreWriter, TypePartition, DEFAULT_PAGE_SIZE,
};
use gmark::translate::{stream_workload, write_workload, WorkloadOutputs, WorkloadStreamOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Which of the two generation workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `gen-stream`.
    Stream,
    /// `gen-full`.
    Full,
}

const WORKLOAD_FILES: [&str; 5] = [
    "workload.txt",
    "workload.sparql",
    "workload.cypher",
    "workload.sql",
    "workload.datalog",
];

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Stream => "gen-stream",
            Mode::Full => "gen-full",
        }
    }

    fn queries(self) -> usize {
        match self {
            Mode::Stream => 30,
            Mode::Full => 1000,
        }
    }

    /// The files whose bytes must equal the single-thread reference
    /// (`report.txt` carries wall times and is not compared).
    fn compared_files(self) -> Vec<&'static str> {
        let mut files = vec!["graph.nt"];
        if self == Mode::Full {
            files.push("graph.gstore");
        }
        files.extend(WORKLOAD_FILES);
        files
    }
}

/// One use case of an iteration: its configuration file and seed.
struct Case {
    name: &'static str,
    config: PathBuf,
    xml: String,
    seed: u64,
}

fn write_cases(ctx: &Ctx<'_>, mode: Mode) -> Result<Vec<Case>, String> {
    let dir = ctx.scratch.fresh("cfg")?;
    USECASES
        .iter()
        .enumerate()
        .map(|(i, &(name, nodes))| {
            let xml = usecase_xml(name, nodes, mode.queries());
            let config = dir.join(format!("{name}.xml"));
            std::fs::write(&config, &xml)
                .map_err(|e| format!("writing {}: {e}", config.display()))?;
            Ok(Case {
                name,
                config,
                xml,
                seed: derive_seed(ctx.seed, purpose::GEN, i as u64),
            })
        })
        .collect()
}

fn cli_args(mode: Mode, case: &Case, out: &Path, threads: usize) -> Vec<String> {
    let flag = match mode {
        Mode::Stream => "--stream",
        Mode::Full => "--store",
    };
    run_args(&case.config, out, case.seed, threads, &[flag])
}

/// Runs the four use cases back to back into `root/<use case>/`; the
/// returned wall time spans first spawn to last reap.
fn iteration(
    ctx: &Ctx<'_>,
    tally: &mut Tally,
    mode: Mode,
    cases: &[Case],
    root: &Path,
    threads: usize,
) -> Result<(f64, Vec<Usage>), String> {
    let started = Instant::now();
    let mut children = Vec::with_capacity(cases.len());
    for case in cases {
        let out = root.join(case.name);
        let label = format!("{} {} --threads {threads}", mode.name(), case.name);
        children.push(ctx.cli(tally, &label, &cli_args(mode, case, &out, threads))?);
    }
    Ok((started.elapsed().as_secs_f64(), children))
}

fn fingerprints(mode: Mode, dir: &Path) -> Vec<Result<Fingerprint, String>> {
    mode.compared_files()
        .iter()
        .map(|f| fingerprint_file(&dir.join(f)))
        .collect()
}

/// Runs the workload end to end, or traced.
pub fn measure(ctx: &Ctx<'_>, mode: Mode, trace: bool) -> Result<Outcome, String> {
    if trace {
        traced(ctx, mode)
    } else {
        end_to_end(ctx, mode)
    }
}

/// The end-to-end run: a `--threads 1` reference for the byte checks
/// (set-up), then the timed `--threads 2` iterations, each followed by its
/// untimed output checks.
fn end_to_end(ctx: &Ctx<'_>, mode: Mode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let iterations = ctx.scaled(3);

    let setup_started = Instant::now();
    let cases = write_cases(ctx, mode)?;
    let reference_root = ctx.scratch.fresh("reference")?;
    iteration(ctx, &mut out.tally, mode, &cases, &reference_root, 1)?;
    let reference: Vec<Vec<Result<Fingerprint, String>>> = cases
        .iter()
        .map(|case| fingerprints(mode, &reference_root.join(case.name)))
        .collect();
    let _ = std::fs::remove_dir_all(&reference_root);
    out.measured
        .set("setup_s", setup_started.elapsed().as_secs_f64());

    let mut timed = Iterations::of_repeated_operations();
    let mut peak_rss_mb = 0.0f64;
    for _ in 0..iterations {
        let root = ctx.scratch.fresh("iteration")?;
        let (wall, children) = iteration(ctx, &mut out.tally, mode, &cases, &root, THREADS)?;
        timed.push(wall, children.iter().map(|c| c.wall_s * 1e3).collect());
        peak_rss_mb = children
            .iter()
            .fold(peak_rss_mb, |peak, c| peak.max(c.peak_rss_mb));
        // Output checks, outside the timed span: the byte-identity
        // contract (every thread count writes the reference's bytes) and
        // store integrity.
        for (case, expected) in cases.iter().zip(&reference) {
            let dir = root.join(case.name);
            let files = mode.compared_files();
            for ((got, want), file) in fingerprints(mode, &dir).iter().zip(expected).zip(files) {
                out.tally.op(got.is_ok() && got == want, || {
                    format!(
                        "{} {}/{file}: {got:?} at {THREADS} threads, reference {want:?}",
                        mode.name(),
                        case.name
                    )
                });
            }
            if mode == Mode::Full {
                ctx.verify_store(&mut out.tally, &dir.join("graph.gstore"))?;
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    timed.report(&mut out.measured);
    out.measured.set("peak_rss_mb", peak_rss_mb);
    out.iterations = iterations;
    out.notes.push(format!(
        "{iterations} iterations of {} CLI runs at --threads {THREADS}; an operation is one CLI run \
         ({} latency samples); outputs go to a scratch directory inside benchmark/out, deleted \
         between iterations and never fsynced",
        cases.len(),
        timed.operations()
    ));
    Ok(out)
}

fn sinks() -> WorkloadOutputs<std::io::Sink> {
    WorkloadOutputs {
        rules: std::io::sink(),
        sparql: std::io::sink(),
        cypher: std::io::sink(),
        sql: std::io::sink(),
        datalog: std::io::sink(),
    }
}

/// Draw cost of the two non-trivial degree samplers, with Bib's
/// parameters (Zipf s = 2.5 over a million values, Gaussian μ = 3, σ = 1).
fn sampler_draws(t: &mut Tracer, m: &mut Measured) {
    const DRAWS: u64 = 2_000_000;
    let mut rng = Prng::seed_from_u64(1);
    let zipf = Zipf::new(1_000_000, 2.5);
    let gaussian = Gaussian::new(3.0, 1.0);
    let mut sum = 0u64;
    t.span("stats.zipf_draws", |_| {
        for _ in 0..DRAWS {
            sum = sum.wrapping_add(zipf.sample(&mut rng));
        }
    });
    t.span("stats.gaussian_draws", |_| {
        for _ in 0..DRAWS {
            sum = sum.wrapping_add(gaussian.sample(&mut rng));
        }
    });
    std::hint::black_box(sum);
    let per_draw_ns = |name: &str| t.total_s(name) * 1e9 / DRAWS as f64;
    m.set_with_samples(
        "stats.zipf_draw_ns",
        per_draw_ns("stats.zipf_draws"),
        DRAWS as usize,
    );
    m.set_with_samples(
        "stats.gaussian_draw_ns",
        per_draw_ns("stats.gaussian_draws"),
        DRAWS as usize,
    );
}

/// The layers of one use case, called one by one with a span around each.
fn trace_case(
    ctx: &Ctx<'_>,
    mode: Mode,
    case: &Case,
    t: &mut Tracer,
    m: &mut Measured,
    tally: &mut Tally,
) -> Result<(), String> {
    let scratch = ctx.scratch.path().to_path_buf();
    let mut plan = t
        .span("config.parse", |_| RunPlan::from_xml(&case.xml))
        .map_err(|e| format!("{}: {e}", case.name))?;
    plan.outputs.store = mode == Mode::Full;
    let opts = RunOptions {
        seed: Some(case.seed),
        threads: THREADS,
        stream: mode == Mode::Stream,
        scratch_dir: Some(scratch.clone()),
        ..RunOptions::default()
    };
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{} {what}: {e}", case.name);

    // The CLI's plan through the whole pipeline, twice: the difference
    // between the two sinks is the output device.
    t.span("run.nullsink", |_| run(&plan, &opts, &mut NullSink))
        .map_err(|e| fail("run(NullSink)", &e))?;
    let dir = ctx.scratch.fresh("traced")?;
    let mut sink = DirSink::new(&dir).map_err(|e| fail("DirSink", &e))?;
    let summary = t
        .span("run.dirsink", |_| run(&plan, &opts, &mut sink))
        .map_err(|e| fail("run(DirSink)", &e))?;
    m.add(
        "run.stage_graph_s",
        summary.graph.map_or(0.0, |g| g.seconds),
    );
    m.add(
        "run.stage_store_s",
        summary.store.map_or(0.0, |s| s.seconds),
    );
    m.add(
        "run.stage_workload_s",
        summary.workload.map_or(0.0, |w| w.seconds),
    );
    m.add("run.output_bytes", dir_bytes(&dir) as f64);

    let gen_opts = GeneratorOptions {
        seed: case.seed,
        threads: THREADS,
        ..GeneratorOptions::default()
    };
    let single = GeneratorOptions {
        threads: 1,
        ..gen_opts.clone()
    };
    let schema = &plan.graph.schema;
    if mode == Mode::Stream {
        let stream_opts = StreamOptions {
            scratch_dir: scratch,
            ..StreamOptions::default()
        };
        let (report, _) = t
            .span("core.gen.stream", |_| {
                generate_streamed(&plan.graph, &gen_opts, &stream_opts, &mut std::io::sink())
            })
            .map_err(|e| fail("generate_streamed", &e))?;
        t.span("core.gen.stream_t1", |_| {
            generate_streamed(&plan.graph, &single, &stream_opts, &mut std::io::sink())
        })
        .map_err(|e| fail("generate_streamed at one thread", &e))?;
        m.add("core.gen.edges", report.total_edges as f64);
        return Ok(());
    }

    let (graph, report) = t.span("core.gen.materialize", |_| {
        generate_graph(&plan.graph, &gen_opts)
    });
    m.add("core.gen.edges", report.total_edges as f64);

    // CSR construction alone: the same edge stream into a builder, then
    // only the finalization under the span.
    let partition = TypePartition::from_counts(&plan.graph.node_counts());
    let mut builder = GraphBuilder::new(partition.clone(), schema.predicate_count());
    t.span("core.gen.into_builder", |_| {
        generate_into(&plan.graph, &single, &mut builder)
    });
    let rebuilt = t.span("store.csr_build", |_| builder.build_with_threads(THREADS));
    tally.op(rebuilt.edge_count() == graph.edge_count(), || {
        format!(
            "{}: the rebuilt CSR holds {} edges, generate_graph {}",
            case.name,
            rebuilt.edge_count(),
            graph.edge_count()
        )
    });
    drop(rebuilt);

    let nt_path = dir.join("layer-graph.nt");
    t.span("store.ntriples_write", |_| -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&nt_path)?);
        let mut writer =
            NTriplesWriter::with_base(&mut file, schema.predicate_names(), &opts.base_iri);
        for pred in 0..graph.predicate_count() {
            for (src, trg) in graph.edges(pred) {
                gmark::store::EdgeSink::edge(&mut writer, src, pred, trg);
            }
        }
        writer.finish()?;
        file.flush()
    })
    .map_err(|e| fail("NTriplesWriter", &e))?;
    let nt_bytes = std::fs::metadata(&nt_path).map_or(0, |md| md.len());
    m.add("store.ntriples_bytes", nt_bytes as f64);

    let meta = StoreMeta {
        seed: case.seed,
        schema_hash: schema.schema_hash(),
        page_size: DEFAULT_PAGE_SIZE,
        predicate_names: schema.predicate_names(),
        partition,
    };
    let info = t
        .span("store.gstore_write", |_| {
            StoreWriter::write_graph(&dir.join("layer-graph.gstore"), &meta, &graph)
        })
        .map_err(|e| fail("StoreWriter::write_graph", &e))?;
    m.add("store.gstore_bytes", info.bytes as f64);
    drop(graph);

    let mut wcfg = plan
        .workload
        .clone()
        .expect("generated configs carry a workload");
    wcfg.seed = case.seed;
    let (workload, _) = t
        .span("core.workload.generate", |_| {
            generate_workload_with_threads(schema, &wcfg, THREADS)
        })
        .map_err(|e| fail("generate_workload", &e))?;
    let met = workload
        .queries
        .iter()
        .filter(|q| q.requested.is_some() && q.requested == q.target)
        .count();
    m.add("core.workload.target_met_share", met as f64);
    let bytes = t
        .span("translate.write", |_| {
            write_workload(schema, &workload.queries, &mut sinks())
        })
        .map_err(|e| fail("write_workload", &e))?;
    m.add("translate.bytes", bytes.iter().sum::<u64>() as f64);
    let stream_opts = WorkloadStreamOptions {
        threads: THREADS,
        scratch_dir: ctx.scratch.path().to_path_buf(),
    };
    t.span("translate.stream", |_| {
        stream_workload(schema, &wcfg, &stream_opts, &mut sinks())
    })
    .map_err(|e| fail("stream_workload", &e))?;
    Ok(())
}

/// The traced run: one untraced CLI iteration (for the child's CPU times
/// and the overhead base), then every layer in process, span by span.
fn traced(ctx: &Ctx<'_>, mode: Mode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cases = write_cases(ctx, mode)?;
    let root = ctx.scratch.fresh("iteration")?;
    let (untraced_wall, children) = iteration(ctx, &mut out.tally, mode, &cases, &root, THREADS)?;
    let _ = std::fs::remove_dir_all(&root);

    let mut t = Tracer::new();
    let m = &mut out.measured;
    m.set("run.cpu_user_s", children.iter().map(|c| c.user_s).sum());
    m.set("run.cpu_sys_s", children.iter().map(|c| c.sys_s).sum());
    for case in &cases {
        t.span("usecase", |t| {
            trace_case(ctx, mode, case, t, m, &mut out.tally)
        })?;
    }
    if mode == Mode::Stream {
        sampler_draws(&mut t, m);
    }

    m.set("config.parse_ms", t.total_s("config.parse") * 1e3);
    m.set("run.nullsink_s", t.total_s("run.nullsink"));
    m.set("run.dirsink_s", t.total_s("run.dirsink"));
    let edges = m.get("core.gen.edges").map_or(0.0, |v| v.value);
    let gen_s = match mode {
        Mode::Stream => {
            m.set("core.gen.stream_s", t.total_s("core.gen.stream"));
            m.set("core.gen.stream_t1_s", t.total_s("core.gen.stream_t1"));
            t.total_s("core.gen.stream")
        }
        Mode::Full => {
            m.set("core.gen.materialize_s", t.total_s("core.gen.materialize"));
            t.total_s("core.gen.materialize")
        }
    };
    m.set("core.gen.edges_per_s", edges / gen_s);
    if mode == Mode::Full {
        let queries = (cases.len() * mode.queries()) as f64;
        let gstore_s = t.total_s("store.gstore_write");
        let gstore_bytes = m.get("store.gstore_bytes").map_or(0.0, |v| v.value);
        let met = m
            .get("core.workload.target_met_share")
            .map_or(0.0, |v| v.value);
        m.set("store.ntriples_write_s", t.total_s("store.ntriples_write"));
        m.set("store.csr_build_s", t.total_s("store.csr_build"));
        m.set("store.gstore_write_s", gstore_s);
        m.set("store.gstore_mb_per_s", gstore_bytes / 1e6 / gstore_s);
        m.set(
            "core.workload.generate_s",
            t.total_s("core.workload.generate"),
        );
        m.set(
            "core.workload.queries_per_s",
            queries / t.total_s("core.workload.generate"),
        );
        m.set_with_samples(
            "core.workload.target_met_share",
            met / queries,
            queries as usize,
        );
        m.set("translate.write_s", t.total_s("translate.write"));
        m.set("translate.stream_s", t.total_s("translate.stream"));
    }
    super::finish_trace(
        ctx,
        mode.name(),
        &t,
        m,
        untraced_wall,
        t.total_s("run.dirsink"),
    )?;
    out.iterations = 1;
    out.notes.push(format!(
        "one untraced CLI iteration ({untraced_wall:.3} s), then every layer in process at \
         {THREADS} threads over the same four plans"
    ));
    Ok(out)
}
