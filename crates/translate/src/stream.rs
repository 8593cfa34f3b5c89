//! The workload's way out: a generated workload rendered into its five
//! documents — the paper's rule notation plus SPARQL, openCypher, SQL and
//! Datalog.
//!
//! [`write_workload`] renders the queries in index order, one at a time,
//! into five per-query texts and writes each to its document, so no more
//! than one query's text is held at once. Query `i`'s text in document `d`
//! is a pure function of `(schema, query i)`, and the queries themselves
//! are bit-identical at every thread count (`gmark_core::workload`), so
//! all five documents are too — pinned by `tests/workload_determinism.rs`
//! and the CI `cmp` smoke step.
//!
//! The `gmark` facade crate's `run` module generates the workload with
//! [`generate_workload_with_threads`], writes it here when the run has a
//! sink, and maps [`WorkloadStreamError`] into the unified `GmarkError`
//! variant for variant. [`stream_workload`] is the same two calls in one.

use crate::{translate, Syntax, TranslateError};
use gmark_core::schema::Schema;
use gmark_core::workload::{
    generate_workload_with_threads, GeneratedQuery, WorkloadConfig, WorkloadError, WorkloadReport,
};
use std::io::{self, Write};
use std::path::PathBuf;

/// Number of output documents: the rule notation plus the four syntaxes.
pub const DOC_COUNT: usize = 5;

/// The five destinations of a workload, in document order: rule
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
    /// Worker threads for generating the queries; `0` means every core.
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

/// An error from generating or writing a workload. Generation and
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

/// What [`stream_workload`] returns: the `(Workload, WorkloadReport)` pair
/// without the queries, which were written out, not kept.
#[derive(Debug, Clone, Default)]
pub struct StreamSummary {
    /// The generation report (produced / unsatisfied / relaxations /
    /// cypher degradations / diversity).
    pub report: WorkloadReport,
    /// Bytes written per document, in document order.
    pub bytes: [u64; DOC_COUNT],
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

/// Renders a generated workload's five documents in index order, one
/// query at a time, and flushes them. Returns the bytes written per
/// document, in document order. Rendering is sequential: translation is
/// cheap next to generation and evaluation.
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

/// Generates a whole workload on `opts.threads` workers, then writes its
/// five documents: [`generate_workload_with_threads`] followed by
/// [`write_workload`], the way in and the way out every run takes. The
/// benchmark harness imports it by this name, so it stays; new code calls
/// the two in turn. All five documents are byte-identical for every
/// thread count, and the error of the lowest failing query index is
/// returned.
pub fn stream_workload<W: Write + Send>(
    schema: &Schema,
    config: &WorkloadConfig,
    opts: &WorkloadStreamOptions,
    outs: &mut WorkloadOutputs<W>,
) -> Result<StreamSummary, WorkloadStreamError> {
    let (workload, report) = generate_workload_with_threads(schema, config, opts.threads)?;
    let bytes = write_workload(schema, &workload.queries, outs)?;
    Ok(StreamSummary { report, bytes })
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
            gmark_core::workload::generate_workload_with_threads(&schema, &cfg, 1)
                .expect("generates");
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
        let (workload, _) = gmark_core::workload::generate_workload_with_threads(&schema, &cfg, 1)
            .expect("generates");
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
