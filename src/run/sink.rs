//! Output destinations for a pipeline run.
//!
//! Everything a run produces — the graph's N-Triples, the five workload
//! documents, the human-readable report, the machine-readable summary — is
//! an [`Artifact`]. A [`Sink`] decides where artifact bytes go:
//!
//! * [`DirSink`] — the gMark CLI's on-disk layout (`graph.nt`,
//!   `workload.txt`, `workload.sparql` …, `report.txt`, and optionally
//!   `summary.json`);
//! * [`MemorySink`] — in-memory buffers, for tests and embedding;
//! * [`NullSink`] — discards everything (benchmarks that measure
//!   generation, not the output device);
//! * anything else — implement [`Sink`] over your own writers (a socket, a
//!   compressor, an object store).

use super::summary::RunSummary;
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One output of a pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Artifact {
    /// The graph instance as N-Triples (`graph.nt`).
    Graph,
    /// The graph instance as an on-disk paged store (`graph.gstore`):
    /// the binary CSR format the evaluation engines can page through
    /// without materializing the graph (see [`gmark_store::StoreReader`]).
    Store,
    /// The workload in the paper's rule notation (`workload.txt`).
    Rules,
    /// The workload as SPARQL 1.1 (`workload.sparql`).
    Sparql,
    /// The workload as openCypher (`workload.cypher`).
    Cypher,
    /// The workload as SQL:1999 (`workload.sql`).
    Sql,
    /// The workload as Datalog (`workload.datalog`).
    Datalog,
    /// The deterministic evaluation report of the `--eval` stage
    /// (`eval.txt`): the (query × engine) outcome matrix with answer-set
    /// cardinalities — byte-identical at every thread count.
    EvalReport,
    /// The human-readable generation report (`report.txt`).
    Report,
    /// The machine-readable run summary (`summary.json`).
    Summary,
}

impl Artifact {
    /// The five workload documents, in document order (rule notation first,
    /// then the four concrete syntaxes in the paper's Fig. 1 order).
    pub const WORKLOAD: [Artifact; 5] = [
        Artifact::Rules,
        Artifact::Sparql,
        Artifact::Cypher,
        Artifact::Sql,
        Artifact::Datalog,
    ];

    /// Every artifact, in [`DirSink`] layout order.
    pub const ALL: [Artifact; 10] = [
        Artifact::Graph,
        Artifact::Store,
        Artifact::Rules,
        Artifact::Sparql,
        Artifact::Cypher,
        Artifact::Sql,
        Artifact::Datalog,
        Artifact::EvalReport,
        Artifact::Report,
        Artifact::Summary,
    ];

    /// The conventional file name of this artifact (what [`DirSink`] and
    /// the CLI write).
    pub fn file_name(self) -> &'static str {
        match self {
            Artifact::Graph => "graph.nt",
            Artifact::Store => "graph.gstore",
            Artifact::Rules => "workload.txt",
            Artifact::Sparql => "workload.sparql",
            Artifact::Cypher => "workload.cypher",
            Artifact::Sql => "workload.sql",
            Artifact::Datalog => "workload.datalog",
            Artifact::EvalReport => "eval.txt",
            Artifact::Report => "report.txt",
            Artifact::Summary => "summary.json",
        }
    }

    /// The inverse of [`Artifact::file_name`]: resolves a conventional
    /// file name (`"graph.nt"`, `"eval.txt"`, …) back to its artifact.
    /// This is how `gmark serve` maps a client's `?artifact=` selector
    /// onto the CLI's on-disk vocabulary.
    pub fn from_file_name(name: &str) -> Option<Artifact> {
        Artifact::ALL.into_iter().find(|a| a.file_name() == name)
    }
}

impl std::fmt::Display for Artifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.file_name())
    }
}

/// Where a pipeline run's artifacts go.
///
/// [`run`](crate::run::run) opens each artifact it produces exactly once,
/// writes it to completion, and finally calls [`Sink::finish`] with the
/// [`RunSummary`] — which is where [`DirSink`] renders `report.txt` and
/// `summary.json`. Writers are owned (`Box<dyn Write + Send>`), so a sink
/// backed by shared buffers hands out handles into them (see
/// [`MemorySink`]).
pub trait Sink {
    /// Opens the writer for one artifact. Called at most once per artifact
    /// per run; [`Artifact::Report`] and [`Artifact::Summary`] are never
    /// opened by the pipeline itself — they are rendered in
    /// [`Sink::finish`] by sinks that want them.
    fn open(&mut self, artifact: Artifact) -> io::Result<Box<dyn Write + Send>>;

    /// A stable on-disk path for one artifact, when the sink can offer
    /// one. The paged store ([`Artifact::Store`]) is written with
    /// positioned file I/O and read back by the evaluation stage, so the
    /// pipeline writes it directly to this path when available; sinks
    /// without real files (memory, null) return `None` (the default) and
    /// receive the finished bytes through [`Sink::open`] instead.
    fn local_path(&self, artifact: Artifact) -> Option<PathBuf> {
        let _ = artifact;
        None
    }

    /// Called once, after every artifact is written, with the run summary.
    /// The default does nothing.
    fn finish(&mut self, summary: &RunSummary) -> io::Result<()> {
        let _ = summary;
        Ok(())
    }
}

/// The gMark CLI's on-disk layout: one file per artifact inside a
/// directory (created if missing). [`Sink::finish`] writes `report.txt`
/// always and `summary.json` when [`DirSink::with_summary_json`] enabled
/// it.
#[derive(Debug)]
pub struct DirSink {
    dir: PathBuf,
    summary_json: bool,
}

impl DirSink {
    /// Creates the sink, creating `dir` (and parents) if missing.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<DirSink> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| annotate(e, "creating output directory", &dir))?;
        Ok(DirSink {
            dir,
            summary_json: false,
        })
    }

    /// Also write the machine-readable `summary.json` on
    /// [`Sink::finish`] (what the CLI's `--format json` enables).
    pub fn with_summary_json(mut self, yes: bool) -> DirSink {
        self.summary_json = yes;
        self
    }

    /// The output directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn create(&self, artifact: Artifact) -> io::Result<BufWriter<File>> {
        let path = self.dir.join(artifact.file_name());
        let file = File::create(&path).map_err(|e| annotate(e, "creating", &path))?;
        Ok(BufWriter::new(file))
    }
}

impl Sink for DirSink {
    fn open(&mut self, artifact: Artifact) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(self.create(artifact)?))
    }

    /// Every artifact has a real file here — the store is written in
    /// place, never staged through scratch.
    fn local_path(&self, artifact: Artifact) -> Option<PathBuf> {
        Some(self.dir.join(artifact.file_name()))
    }

    fn finish(&mut self, summary: &RunSummary) -> io::Result<()> {
        let mut report = self.create(Artifact::Report)?;
        report.write_all(summary.render_report().as_bytes())?;
        report.flush()?;
        if self.summary_json {
            let mut json = self.create(Artifact::Summary)?;
            json.write_all(summary.to_json().as_bytes())?;
            json.write_all(b"\n")?;
            json.flush()?;
        }
        Ok(())
    }
}

fn annotate(e: io::Error, what: &str, path: &Path) -> io::Error {
    io::Error::new(e.kind(), format!("{what} {}: {e}", path.display()))
}

/// An in-memory sink: every artifact accumulates in its own buffer,
/// retrievable afterwards with [`MemorySink::bytes`]. The workhorse of the
/// plan-equivalence and determinism tests, and the natural sink when
/// embedding gMark in another program.
///
/// [`Sink::finish`] renders `report.txt` and `summary.json` into their
/// buffers too, and keeps the [`RunSummary`] itself
/// ([`MemorySink::summary`]).
#[derive(Debug, Default)]
pub struct MemorySink {
    bufs: BTreeMap<Artifact, Arc<Mutex<Vec<u8>>>>,
    summary: Option<RunSummary>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// The bytes written for one artifact, or `None` if the run never
    /// opened it.
    pub fn bytes(&self, artifact: Artifact) -> Option<Vec<u8>> {
        self.bufs.get(&artifact).map(|b| {
            b.lock()
                .expect("no panics while holding buffer lock")
                .clone()
        })
    }

    /// The summary of the finished run, if [`Sink::finish`] has been
    /// called.
    pub fn summary(&self) -> Option<&RunSummary> {
        self.summary.as_ref()
    }

    /// Every artifact the run wrote, with its bytes, in [`Artifact`]
    /// order. This is how `gmark serve` lifts one finished run into an
    /// immutable cacheable snapshot.
    pub fn into_artifacts(self) -> Vec<(Artifact, Vec<u8>)> {
        self.bufs
            .into_iter()
            .map(|(artifact, buf)| {
                let bytes = match Arc::try_unwrap(buf) {
                    Ok(m) => m.into_inner().expect("no panics while holding buffer lock"),
                    Err(shared) => shared
                        .lock()
                        .expect("no panics while holding buffer lock")
                        .clone(),
                };
                (artifact, bytes)
            })
            .collect()
    }

    fn buffer(&mut self, artifact: Artifact) -> Arc<Mutex<Vec<u8>>> {
        Arc::clone(self.bufs.entry(artifact).or_default())
    }
}

impl Sink for MemorySink {
    fn open(&mut self, artifact: Artifact) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(SharedBuf(self.buffer(artifact))))
    }

    fn finish(&mut self, summary: &RunSummary) -> io::Result<()> {
        self.buffer(Artifact::Report)
            .lock()
            .expect("no panics while holding buffer lock")
            .extend_from_slice(summary.render_report().as_bytes());
        let mut json = summary.to_json();
        json.push('\n');
        self.buffer(Artifact::Summary)
            .lock()
            .expect("no panics while holding buffer lock")
            .extend_from_slice(json.as_bytes());
        self.summary = Some(summary.clone());
        Ok(())
    }
}

/// A write handle appending into one of [`MemorySink`]'s shared buffers.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("no panics while holding buffer lock")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards every artifact. For benchmarks that measure the pipeline, not
/// the output device.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn open(&mut self, _artifact: Artifact) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(io::sink()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_file_names_cover_the_cli_layout() {
        assert_eq!(Artifact::Graph.file_name(), "graph.nt");
        assert_eq!(Artifact::Store.file_name(), "graph.gstore");
        assert_eq!(Artifact::WORKLOAD.len(), 5);
        assert_eq!(Artifact::WORKLOAD[0].file_name(), "workload.txt");
        assert_eq!(Artifact::WORKLOAD[4].file_name(), "workload.datalog");
        assert_eq!(Artifact::EvalReport.file_name(), "eval.txt");
    }

    #[test]
    fn file_name_round_trips_through_from_file_name() {
        for artifact in Artifact::ALL {
            assert_eq!(
                Artifact::from_file_name(artifact.file_name()),
                Some(artifact)
            );
        }
        assert_eq!(Artifact::from_file_name("graph.ttl"), None);
        assert_eq!(Artifact::from_file_name(""), None);
    }

    #[test]
    fn memory_sink_accumulates_per_artifact() {
        let mut sink = MemorySink::new();
        {
            let mut w = sink.open(Artifact::Graph).unwrap();
            w.write_all(b"abc").unwrap();
        }
        {
            let mut w = sink.open(Artifact::Rules).unwrap();
            w.write_all(b"xyz").unwrap();
        }
        assert_eq!(sink.bytes(Artifact::Graph).unwrap(), b"abc");
        assert_eq!(sink.bytes(Artifact::Rules).unwrap(), b"xyz");
        assert_eq!(sink.bytes(Artifact::Sparql), None);
    }

    #[test]
    fn null_sink_swallows_everything() {
        let mut sink = NullSink;
        let mut w = sink.open(Artifact::Graph).unwrap();
        w.write_all(b"whatever").unwrap();
        w.flush().unwrap();
    }
}
