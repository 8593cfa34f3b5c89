//! The streaming workload pipeline: generation → translation → output
//! without materializing the workload's text in memory.
//!
//! The gMark CLI historically accumulated every query's rule notation and
//! all four translated syntaxes as `String`s before writing them, which
//! caps workload size at available RAM. This module instead drives the
//! whole path incrementally, mirroring the graph pipeline's architecture
//! (`gmark_core::gen::generate_streamed`):
//!
//! * the shared selectivity context is built once as an immutable
//!   [`WorkloadContext`] snapshot;
//! * workers claim query indices in ascending order, generate query `i`,
//!   render its five documents — rule notation plus SPARQL, openCypher,
//!   SQL, Datalog — and hand the five texts to one
//!   [`gmark_store::OrderedEmitter`] with a lane per document, which
//!   writes query `i`'s texts after those of every query below `i`, in
//!   one pass, without a temporary file.
//!
//! Query `i`'s text in document `d` is a pure function of
//! `(schema, config, i)`, so all five documents are byte-identical at
//! every thread count — the argument is made once, at the fan-out
//! ([`gmark_store::emit`]), and pinned by `tests/workload_determinism.rs`
//! and the CI `cmp` smoke step. Per-worker partial [`WorkloadReport`]s
//! are merged commutatively, so the summary is scheduling-independent
//! too.
//!
//! This module is the workload half of the pipeline; the `gmark` facade
//! crate's `run` module orchestrates it (plan → options → sink) behind
//! one API, and maps [`WorkloadStreamError`] into the unified
//! `GmarkError` variant for variant.

use crate::{translate, Syntax, TranslateError};
use gmark_core::schema::Schema;
use gmark_core::workload::{
    GeneratedQuery, WorkloadConfig, WorkloadContext, WorkloadError, WorkloadReport,
};
use gmark_store::{resolve_threads, EmitStats, OrderedEmitter};
use std::io::{self, Write};
use std::path::PathBuf;

/// Number of output documents: the rule notation plus the four syntaxes.
pub const DOC_COUNT: usize = 5;

/// The five destinations of a streamed workload, in document order: rule
/// notation (`workload.txt`), then SPARQL, openCypher, SQL, Datalog.
#[derive(Debug)]
pub struct WorkloadOutputs<W> {
    /// The paper's rule notation (`workload.txt`).
    pub rules: W,
    /// SPARQL 1.1 (`workload.sparql`).
    pub sparql: W,
    /// openCypher (`workload.cypher`).
    pub cypher: W,
    /// SQL:1999 (`workload.sql`).
    pub sql: W,
    /// Datalog (`workload.datalog`).
    pub datalog: W,
}

impl<W: Write> WorkloadOutputs<W> {
    /// The outputs as an array indexed in document order.
    fn as_array_mut(&mut self) -> [&mut W; DOC_COUNT] {
        [
            &mut self.rules,
            &mut self.sparql,
            &mut self.cypher,
            &mut self.sql,
            &mut self.datalog,
        ]
    }
}

/// Options for [`stream_workload`].
#[derive(Debug, Clone)]
pub struct WorkloadStreamOptions {
    /// Worker threads; `0` means every core ([`resolve_threads`]).
    /// Output never depends on this value.
    pub threads: usize,
    /// Unused: the workload pipeline keeps no temporary files. The field
    /// stays until these per-crate option structs are collapsed into the
    /// facade's `RunOptions`.
    pub scratch_dir: PathBuf,
}

impl Default for WorkloadStreamOptions {
    fn default() -> Self {
        WorkloadStreamOptions {
            threads: 1,
            scratch_dir: std::env::temp_dir(),
        }
    }
}

/// An error from the streaming workload pipeline. Generation and
/// translation failures carry the failing query index; in a parallel run
/// the **lowest** failing index is reported, independent of scheduling.
#[derive(Debug)]
pub enum WorkloadStreamError {
    /// Query construction failed (carries its own index).
    Generate(WorkloadError),
    /// Translating query `index` failed.
    Translate {
        /// The failing query's index.
        index: usize,
        /// The underlying translation error.
        source: TranslateError,
    },
    /// Writing an output failed.
    Io(io::Error),
}

impl std::fmt::Display for WorkloadStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadStreamError::Generate(e) => write!(f, "generating {e}"),
            WorkloadStreamError::Translate { index, source } => {
                write!(f, "translating query {index}: {source}")
            }
            WorkloadStreamError::Io(e) => write!(f, "writing workload: {e}"),
        }
    }
}

impl std::error::Error for WorkloadStreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkloadStreamError::Generate(e) => Some(e),
            WorkloadStreamError::Translate { source, .. } => Some(source),
            WorkloadStreamError::Io(e) => Some(e),
        }
    }
}

impl From<io::Error> for WorkloadStreamError {
    fn from(e: io::Error) -> Self {
        WorkloadStreamError::Io(e)
    }
}

impl From<WorkloadError> for WorkloadStreamError {
    fn from(e: WorkloadError) -> Self {
        WorkloadStreamError::Generate(e)
    }
}

/// Summary of a streamed workload run (the streaming counterpart of the
/// `(Workload, WorkloadReport)` pair — the queries themselves were written
/// out, not kept).
#[derive(Debug, Clone, Default)]
pub struct StreamSummary {
    /// The generation report (produced / unsatisfied / relaxations /
    /// cypher degradations / diversity).
    pub report: WorkloadReport,
    /// Bytes written per document, in document order.
    pub bytes: [u64; DOC_COUNT],
    /// Where the output time went (report and banner only).
    pub emit: EmitStats,
}

/// Renders query `i`'s five documents. Each document gets a per-query
/// header in that syntax's own comment leader; the rule-notation header
/// additionally records the target class, shape, and estimated α̂.
fn render_query(
    index: usize,
    gq: &GeneratedQuery,
    schema: &Schema,
) -> Result<[String; DOC_COUNT], WorkloadStreamError> {
    let rules = format!(
        "# query {index} target={} shape={} estimated_alpha={:?}\n{}\n\n",
        gq.target.map_or("-".into(), |t| t.to_string()),
        gq.shape,
        gq.estimated_alpha,
        gq.query.display(schema)
    );
    let mut docs = [
        rules,
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ];
    for (d, syntax) in Syntax::ALL.into_iter().enumerate() {
        let text = translate(&gq.query, schema, syntax)
            .map_err(|source| WorkloadStreamError::Translate { index, source })?;
        docs[d + 1] = format!("{} query {index}\n{text}\n", syntax.comment_prefix());
    }
    Ok(docs)
}

/// Renders an **already-materialized** workload's five documents in
/// index order — byte-for-byte what [`stream_workload`] produces for the
/// same queries (both funnel through the same per-query renderer; pinned
/// by this module's materialize-then-translate test). Returns the bytes
/// written per document, in document order.
///
/// This is the path for callers that must hold the [`GeneratedQuery`]s
/// in memory anyway (the evaluation pipeline, notably): generate once,
/// render from the materialized workload, instead of paying query
/// generation a second time inside [`stream_workload`]. Rendering is
/// sequential — translation is cheap next to generation and evaluation.
pub fn write_workload<W: Write>(
    schema: &Schema,
    queries: &[GeneratedQuery],
    outs: &mut WorkloadOutputs<W>,
) -> Result<[u64; DOC_COUNT], WorkloadStreamError> {
    let mut bytes = [0u64; DOC_COUNT];
    let destinations = outs.as_array_mut();
    for (i, gq) in queries.iter().enumerate() {
        let docs = render_query(i, gq, schema)?;
        for (d, text) in docs.iter().enumerate() {
            destinations[d].write_all(text.as_bytes())?;
            bytes[d] += text.len() as u64;
        }
    }
    for out in destinations {
        out.flush()?;
    }
    Ok(bytes)
}

/// What one worker folds over the queries it produced; merged
/// commutatively, so the totals are scheduling-independent.
#[derive(Default)]
struct Partial {
    report: WorkloadReport,
    bytes: [u64; DOC_COUNT],
}

/// Generates, translates, and writes a whole workload without holding more
/// than one query's text in memory per worker, plus the emitter's fixed
/// parking budget (see the module docs). All five documents are
/// byte-identical for every thread count. The first failure stops the run
/// — no further query is claimed, parked workers wake — and the error of
/// the lowest failing query index is returned. Since the outputs are
/// written from worker threads they must be `Send`.
pub fn stream_workload<W: Write + Send>(
    schema: &Schema,
    config: &WorkloadConfig,
    opts: &WorkloadStreamOptions,
    outs: &mut WorkloadOutputs<W>,
) -> Result<StreamSummary, WorkloadStreamError> {
    let ctx = WorkloadContext::new(schema, config);
    let emitter = OrderedEmitter::new(outs.as_array_mut().into(), config.size);
    let (partials, emit) = emitter.run(
        resolve_threads(opts.threads, config.size),
        |partial: &mut Partial, i, lanes| -> Result<(), WorkloadStreamError> {
            let gq = ctx.generate(i)?;
            let docs = render_query(i, &gq, schema)?;
            for (d, text) in docs.iter().enumerate() {
                lanes[d].write_all(text.as_bytes())?;
                partial.bytes[d] += text.len() as u64;
            }
            partial.report.absorb(&gq);
            Ok(())
        },
    )?;

    let mut summary = StreamSummary {
        emit,
        ..StreamSummary::default()
    };
    for partial in partials {
        summary.report.merge(&partial.report);
        for (total, bytes) in summary.bytes.iter_mut().zip(partial.bytes) {
            *total += bytes;
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmark_core::usecases;
    use gmark_core::workload::Shape;

    fn outputs() -> WorkloadOutputs<Vec<u8>> {
        WorkloadOutputs {
            rules: Vec::new(),
            sparql: Vec::new(),
            cypher: Vec::new(),
            sql: Vec::new(),
            datalog: Vec::new(),
        }
    }

    fn config() -> WorkloadConfig {
        let mut cfg = WorkloadConfig::new(16).with_seed(0xCAFE);
        cfg.shapes = Shape::ALL.to_vec();
        cfg.recursion_probability = 0.3;
        cfg
    }

    fn run(threads: usize) -> (StreamSummary, WorkloadOutputs<Vec<u8>>) {
        let schema = usecases::bib();
        let mut outs = outputs();
        let opts = WorkloadStreamOptions {
            threads,
            ..Default::default()
        };
        let summary = stream_workload(&schema, &config(), &opts, &mut outs).expect("streams");
        (summary, outs)
    }

    #[test]
    fn streamed_documents_are_byte_identical_across_thread_counts() {
        let (base_summary, base) = run(1);
        assert_eq!(base_summary.report.produced, 16);
        assert!(!base.rules.is_empty());
        for threads in [2, 8] {
            let (summary, outs) = run(threads);
            assert_eq!(outs.rules, base.rules, "{threads} threads: rules differ");
            assert_eq!(
                outs.sparql, base.sparql,
                "{threads} threads: sparql differs"
            );
            assert_eq!(
                outs.cypher, base.cypher,
                "{threads} threads: cypher differs"
            );
            assert_eq!(outs.sql, base.sql, "{threads} threads: sql differs");
            assert_eq!(
                outs.datalog, base.datalog,
                "{threads} threads: datalog differs"
            );
            assert_eq!(summary.report, base_summary.report);
            assert_eq!(summary.bytes, base_summary.bytes);
        }
    }

    #[test]
    fn streamed_matches_materialize_then_translate() {
        // The streamed documents must equal what generating the workload
        // and rendering each query sequentially would produce.
        let schema = usecases::bib();
        let cfg = config();
        let (workload, report) =
            gmark_core::workload::generate_workload(&schema, &cfg).expect("generates");
        let mut expected = outputs();
        let destinations = expected.as_array_mut();
        for (i, gq) in workload.queries.iter().enumerate() {
            let docs = render_query(i, gq, &schema).expect("renders");
            for (d, text) in docs.iter().enumerate() {
                destinations[d].extend_from_slice(text.as_bytes());
            }
        }
        let (summary, outs) = run(4);
        assert_eq!(outs.rules, expected.rules);
        assert_eq!(outs.sparql, expected.sparql);
        assert_eq!(outs.cypher, expected.cypher);
        assert_eq!(outs.sql, expected.sql);
        assert_eq!(outs.datalog, expected.datalog);
        assert_eq!(summary.report, report);
    }

    #[test]
    fn write_workload_matches_stream_workload_bytes() {
        let schema = usecases::bib();
        let cfg = config();
        let (workload, _) =
            gmark_core::workload::generate_workload(&schema, &cfg).expect("generates");
        let mut rendered = outputs();
        let bytes = write_workload(&schema, &workload.queries, &mut rendered).expect("renders");
        let (summary, streamed) = run(4);
        assert_eq!(rendered.rules, streamed.rules);
        assert_eq!(rendered.sparql, streamed.sparql);
        assert_eq!(rendered.cypher, streamed.cypher);
        assert_eq!(rendered.sql, streamed.sql);
        assert_eq!(rendered.datalog, streamed.datalog);
        assert_eq!(bytes, summary.bytes);
    }

    #[test]
    fn headers_use_per_syntax_comment_leaders() {
        let (_, outs) = run(1);
        let sparql = String::from_utf8(outs.sparql).unwrap();
        let cypher = String::from_utf8(outs.cypher).unwrap();
        let sql = String::from_utf8(outs.sql).unwrap();
        let datalog = String::from_utf8(outs.datalog).unwrap();
        assert!(sparql.starts_with("# query 0\n"), "{sparql}");
        assert!(cypher.starts_with("// query 0\n"), "{cypher}");
        assert!(sql.starts_with("-- query 0\n"), "{sql}");
        assert!(datalog.starts_with("% query 0\n"), "{datalog}");
        // Every query appears in every document.
        for doc in [&sparql, &cypher, &sql, &datalog] {
            assert!(doc.contains("query 15"), "last query missing");
        }
    }

    #[test]
    fn empty_workload_streams_nothing() {
        let schema = usecases::bib();
        let cfg = WorkloadConfig::new(0);
        let mut outs = outputs();
        let summary = stream_workload(&schema, &cfg, &WorkloadStreamOptions::default(), &mut outs)
            .expect("empty workload streams");
        assert_eq!(summary.report.produced, 0);
        assert!(outs.rules.is_empty());
        assert_eq!(summary.bytes, [0; DOC_COUNT]);
    }

    #[test]
    fn scratch_dir_is_never_touched() {
        let scratch = std::env::temp_dir().join(format!("gmark-wl-scratch-{}", std::process::id()));
        let schema = usecases::bib();
        let mut outs = outputs();
        let opts = WorkloadStreamOptions {
            threads: 4,
            scratch_dir: scratch.clone(),
        };
        stream_workload(&schema, &config(), &opts, &mut outs).expect("streams");
        assert!(!scratch.exists(), "the pipeline created {scratch:?}");
    }

    /// Accepts `room` bytes, then fails every write.
    struct FailsAfter {
        room: usize,
    }

    impl Write for FailsAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.len() > self.room {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
            }
            self.room -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failing_output_fails_the_run_with_its_error_at_every_thread_count() {
        let schema = usecases::bib();
        for threads in [1usize, 2, 8] {
            let mut outs = WorkloadOutputs {
                rules: FailsAfter { room: usize::MAX },
                sparql: FailsAfter { room: usize::MAX },
                cypher: FailsAfter { room: 600 },
                sql: FailsAfter { room: usize::MAX },
                datalog: FailsAfter { room: usize::MAX },
            };
            let opts = WorkloadStreamOptions {
                threads,
                ..Default::default()
            };
            match stream_workload(&schema, &config(), &opts, &mut outs) {
                Err(WorkloadStreamError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::StorageFull, "{threads} threads")
                }
                other => panic!("{threads} threads: expected the I/O error, got {other:?}"),
            }
        }
    }
}
