//! Sequential store writing: [`StoreWriter`] (header → segments →
//! directory → footer, with a running checksum) plus the binary
//! [`EdgeSpool`] the streaming generator tees edges into so a store can be
//! built without ever materializing the whole graph.

use super::{
    page_align, Fnv64, SegmentMeta, StoreError, StoreInfo, StoreMeta, END_MAGIC, MAGIC, VERSION,
};
use crate::graph::Csr;
use crate::sink::EdgeSink;
use crate::{Graph, NodeId, PredIdx};
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Buffered writer that tracks the byte position and maintains the
/// running FNV-1a checksum over everything written through [`Self::put`].
struct HashingWriter {
    inner: BufWriter<File>,
    hash: Fnv64,
    pos: u64,
}

impl HashingWriter {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_all(bytes)?;
        self.hash.update(bytes);
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Writes bytes that are *excluded* from the checksum (the checksum
    /// field itself and the end magic).
    fn put_unhashed(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_all(bytes)?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Zero-pads up to the next multiple of `page_size`.
    fn pad_to_page(&mut self, page_size: u64) -> io::Result<()> {
        static ZEROS: [u8; 4096] = [0; 4096];
        let mut gap = (page_align(self.pos, page_size) - self.pos) as usize;
        while gap > 0 {
            let n = gap.min(ZEROS.len());
            self.put(&ZEROS[..n])?;
            gap -= n;
        }
        Ok(())
    }
}

/// Writes one store file strictly sequentially.
///
/// Call [`StoreWriter::create`], then [`StoreWriter::write_segment`]
/// exactly twice per predicate — forward CSR then backward CSR, in
/// predicate order — then [`StoreWriter::finish`]. The convenience
/// [`StoreWriter::write_graph`] does all three for an in-memory graph; the
/// streamed path drives the same calls one predicate at a time via
/// [`build_store_from_spool`].
#[derive(Debug)]
pub struct StoreWriter {
    out: Option<HashingWriter>,
    path: PathBuf,
    page_size: u64,
    node_count: NodeId,
    predicate_count: usize,
    segments: Vec<SegmentMeta>,
}

impl std::fmt::Debug for HashingWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashingWriter")
            .field("pos", &self.pos)
            .finish_non_exhaustive()
    }
}

impl StoreWriter {
    /// Creates the file and writes the header region (fixed header,
    /// predicate name table, type partition, padding).
    pub fn create(path: &Path, meta: &StoreMeta) -> Result<StoreWriter, StoreError> {
        let page_size = meta.page_size as u64;
        if meta.page_size < 64 || meta.page_size > (1 << 24) || !meta.page_size.is_multiple_of(8) {
            return Err(StoreError::corrupt(
                path,
                format!("unusable page size {}", meta.page_size),
                None,
            ));
        }
        let file =
            File::create(path).map_err(|e| StoreError::io("creating store file", path, e))?;
        let mut out = HashingWriter {
            inner: BufWriter::new(file),
            hash: Fnv64::new(),
            pos: 0,
        };
        let io_err = |e| StoreError::io("writing store header", path, e);

        let mut header = Vec::with_capacity(super::FIXED_HEADER_LEN as usize);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&meta.page_size.to_le_bytes());
        header.extend_from_slice(&meta.seed.to_le_bytes());
        header.extend_from_slice(&meta.schema_hash.to_le_bytes());
        header.extend_from_slice(&meta.partition.node_count().to_le_bytes());
        header.extend_from_slice(&(meta.predicate_names.len() as u32).to_le_bytes());
        header.extend_from_slice(&(meta.partition.type_count() as u32).to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        debug_assert_eq!(header.len() as u64, super::FIXED_HEADER_LEN);
        out.put(&header).map_err(io_err)?;
        for name in &meta.predicate_names {
            out.put(&(name.len() as u32).to_le_bytes())
                .map_err(io_err)?;
            out.put(name.as_bytes()).map_err(io_err)?;
        }
        for &off in meta.partition.offsets() {
            out.put(&off.to_le_bytes()).map_err(io_err)?;
        }
        out.pad_to_page(page_size).map_err(io_err)?;

        Ok(StoreWriter {
            out: Some(out),
            path: path.to_path_buf(),
            page_size,
            node_count: meta.partition.node_count(),
            predicate_count: meta.predicate_names.len(),
            segments: Vec::with_capacity(meta.predicate_names.len() * 2),
        })
    }

    /// Writes the next `(predicate, direction)` CSR segment: its offsets
    /// followed by its targets, both page-aligned. Segments must arrive in
    /// predicate order, forward before backward.
    ///
    /// The file keeps the v1 layout of `node_count + 1` offsets, so the
    /// CSR's hull offsets ([`Csr::offsets`]) are expanded as they stream
    /// out: 0 for every node below the hull, the edge count for every node
    /// past it.
    pub fn write_segment(&mut self, csr: &Csr) -> Result<(), StoreError> {
        assert!(
            self.segments.len() < self.predicate_count * 2,
            "more segments than 2 x predicate count"
        );
        let (hull, targets) = (csr.offsets(), csr.targets());
        let below = csr.base() as usize;
        let Some(above) = (self.node_count as usize + 1).checked_sub(below + hull.len()) else {
            panic!("CSR hull runs past node_count {}", self.node_count);
        };
        let edges = targets.len() as u64;
        assert_eq!(
            hull.last().copied(),
            Some(edges),
            "last offset must equal the targets length"
        );
        let page_size = self.page_size;
        let Self { out, path, .. } = self;
        let out = out.as_mut().expect("writer not finished");
        let io_err = |e| StoreError::io("writing store segment", path, e);

        let offsets_pos = out.pos;
        debug_assert_eq!(offsets_pos % page_size, 0);
        let offsets = std::iter::repeat_n(0, below)
            .chain(hull.iter().copied())
            .chain(std::iter::repeat_n(edges, above));
        const BLOCK: usize = 8 * 4096;
        let mut buf = Vec::with_capacity(BLOCK);
        for o in offsets {
            buf.extend_from_slice(&o.to_le_bytes());
            if buf.len() == BLOCK {
                out.put(&buf).map_err(io_err)?;
                buf.clear();
            }
        }
        out.put(&buf).map_err(io_err)?;
        out.pad_to_page(page_size).map_err(io_err)?;

        let targets_pos = out.pos;
        for chunk in targets.chunks(8192) {
            buf.clear();
            for &t in chunk {
                buf.extend_from_slice(&t.to_le_bytes());
            }
            out.put(&buf).map_err(io_err)?;
        }
        out.pad_to_page(page_size).map_err(io_err)?;

        self.segments.push(SegmentMeta {
            offsets_pos,
            targets_pos,
            edge_count: edges,
        });
        Ok(())
    }

    /// Writes the directory and footer, flushes, and reports the file's
    /// vitals. Panics if a segment is missing (caller bug, not file
    /// corruption).
    pub fn finish(mut self) -> Result<StoreInfo, StoreError> {
        assert_eq!(
            self.segments.len(),
            self.predicate_count * 2,
            "every predicate needs a forward and a backward segment"
        );
        let mut out = self.out.take().expect("writer not finished");
        let io_err = |e| StoreError::io("writing store directory", &self.path, e);

        let dir_pos = out.pos;
        debug_assert_eq!(dir_pos % self.page_size, 0);
        // Total edges = sum over forward segments (backward mirrors them).
        let total_edges: u64 = self.segments.iter().step_by(2).map(|s| s.edge_count).sum();
        out.put(&total_edges.to_le_bytes()).map_err(io_err)?;
        for seg in &self.segments {
            out.put(&seg.offsets_pos.to_le_bytes()).map_err(io_err)?;
            out.put(&seg.targets_pos.to_le_bytes()).map_err(io_err)?;
            out.put(&seg.edge_count.to_le_bytes()).map_err(io_err)?;
        }
        out.put(&dir_pos.to_le_bytes()).map_err(io_err)?;
        let checksum = out.hash.finish();
        out.put_unhashed(&checksum.to_le_bytes()).map_err(io_err)?;
        out.put_unhashed(&END_MAGIC).map_err(io_err)?;
        let bytes = out.pos;
        out.inner.flush().map_err(io_err)?;

        Ok(StoreInfo {
            bytes,
            page_size: self.page_size as u32,
            edges: total_edges,
        })
    }

    /// Serializes a fully materialized graph. `meta.partition` must be the
    /// graph's partition and `meta.predicate_names` its alphabet.
    pub fn write_graph(
        path: &Path,
        meta: &StoreMeta,
        graph: &Graph,
    ) -> Result<StoreInfo, StoreError> {
        assert_eq!(graph.predicate_count(), meta.predicate_names.len());
        assert_eq!(graph.node_count(), meta.partition.node_count());
        let mut writer = StoreWriter::create(path, meta)?;
        for pred in 0..graph.predicate_count() {
            writer.write_segment(graph.forward(pred))?;
            writer.write_segment(graph.backward(pred))?;
        }
        writer.finish()
    }
}

/// A scratch directory of per-constraint binary edge files — the one place
/// the streaming pipeline touches disk besides its artifacts: building
/// the store sorts each predicate's edges, and an external sort needs
/// them somewhere. Each record is 8 bytes: source and target `u32`,
/// little-endian (the predicate is implied — every schema constraint
/// carries exactly one). The directory is uniquely named (process id +
/// counter), so concurrent runs can share a scratch parent; it is removed
/// with the spool, and stale directories of dead processes are reaped
/// when the next spool is created.
#[derive(Debug)]
pub struct EdgeSpool {
    dir: PathBuf,
    count: usize,
}

impl EdgeSpool {
    /// Creates a fresh spool directory under `parent` for `count`
    /// constraints.
    pub fn create(parent: &Path, count: usize) -> io::Result<EdgeSpool> {
        let dir = create_unique_scratch(parent)?;
        Ok(EdgeSpool { dir, count })
    }

    /// Path of constraint `idx`'s edge file.
    pub fn path(&self, idx: usize) -> PathBuf {
        debug_assert!(idx < self.count, "spool {idx} out of range {}", self.count);
        self.dir.join(format!("edges-{idx:06}.bin"))
    }

    /// Opens the writer for one constraint's edges.
    pub fn writer(&self, idx: usize) -> io::Result<SpoolWriter> {
        let path = self.path(idx);
        let file = File::create(&path)?;
        Ok(SpoolWriter {
            inner: BufWriter::new(file),
            written: 0,
            error: None,
        })
    }

    /// Appends constraint `idx`'s edges to `out` in file order. A missing
    /// file is an error — it means the constraint was never generated.
    pub fn read_into(&self, idx: usize, out: &mut Vec<(NodeId, NodeId)>) -> io::Result<()> {
        let path = self.path(idx);
        let mut file = File::open(&path).map_err(|e| {
            io::Error::new(e.kind(), format!("opening spool {}: {e}", path.display()))
        })?;
        let mut buf = [0u8; 8192];
        let mut have = 0usize;
        loop {
            let n = file.read(&mut buf[have..])?;
            if n == 0 {
                break;
            }
            have += n;
            let whole = have - have % 8;
            for rec in buf[..whole].chunks_exact(8) {
                let src = u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes"));
                let trg = u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes"));
                out.push((src, trg));
            }
            buf.copy_within(whole..have, 0);
            have -= whole;
        }
        if have != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("spool {} is truncated mid-record", path.display()),
            ));
        }
        Ok(())
    }
}

impl Drop for EdgeSpool {
    fn drop(&mut self) {
        // Best effort: scratch cleanup must never mask the real error path.
        let _ = fs::remove_dir_all(&self.dir);
    }
}

fn annotate(e: io::Error, what: &str, path: &Path) -> io::Error {
    io::Error::new(e.kind(), format!("{what} {}: {e}", path.display()))
}

/// What every spool directory's name starts with, before `<pid>-<counter>`.
const SPOOL_PREFIX: &str = ".gmark-spool-";

/// Creates a uniquely named (process id + counter) spool directory under
/// `parent`, first reaping stale siblings.
fn create_unique_scratch(parent: &Path) -> io::Result<PathBuf> {
    static UNIQUIFIER: AtomicU64 = AtomicU64::new(0);
    fs::create_dir_all(parent).map_err(|e| annotate(e, "creating scratch parent", parent))?;
    reap_stale_scratch(parent, std::time::Duration::from_secs(3600));
    loop {
        let tag = UNIQUIFIER.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("{SPOOL_PREFIX}{}-{tag}", std::process::id()));
        match fs::create_dir(&dir) {
            Ok(()) => return Ok(dir),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(annotate(e, "creating scratch dir", &dir)),
        }
    }
}

/// Removes `.gmark-spool-<pid>-*` directories left by processes that no
/// longer exist (Drop never runs on SIGKILL / un-unwound Ctrl-C, and an
/// interrupted Table 3-scale run can leave many GB behind). A directory
/// is reaped only when *both* hold:
///
/// * its pid is dead per procfs (so reaping only happens where `/proc`
///   exists, and directories of live local pids are never touched), and
/// * it has not been modified for `min_idle` (an hour in production;
///   creating a spool file bumps the dir mtime, so an active run keeps
///   itself fresh).
///
/// The pid check is namespace-local: a run in a *different* pid namespace
/// (container) sharing this scratch parent looks dead from here. The age
/// guard is what protects such runs — only one idle for over an hour can
/// be misreaped, and sharing one scratch/output directory between
/// concurrent runs is already unsupported (they would overwrite each
/// other's `graph.nt`). Best effort by design.
fn reap_stale_scratch(parent: &Path, min_idle: std::time::Duration) {
    if !Path::new("/proc/self").exists() {
        return;
    }
    let Ok(entries) = fs::read_dir(parent) else {
        return;
    };
    let own_pid = std::process::id();
    for entry in entries.filter_map(|e| e.ok()) {
        let name = entry.file_name();
        let Some(rest) = name.to_str().and_then(|n| n.strip_prefix(SPOOL_PREFIX)) else {
            continue;
        };
        let Some(pid) = rest.split('-').next().and_then(|p| p.parse::<u32>().ok()) else {
            continue;
        };
        let pid_dead = pid != own_pid && !Path::new(&format!("/proc/{pid}")).exists();
        let idle_long = min_idle.is_zero()
            || entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age >= min_idle);
        if pid_dead && idle_long {
            let _ = fs::remove_dir_all(entry.path());
        }
    }
}

/// The per-constraint [`EdgeSink`] writing an [`EdgeSpool`] file.
#[derive(Debug)]
pub struct SpoolWriter {
    inner: BufWriter<File>,
    written: u64,
    error: Option<io::Error>,
}

impl SpoolWriter {
    /// Flushes the file and surfaces any deferred I/O error, returning the
    /// number of edges written (the [`EdgeSink`] interface is infallible,
    /// so errors are captured and reported here).
    pub fn finish(mut self) -> io::Result<u64> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.inner.flush()?;
        Ok(self.written)
    }
}

impl EdgeSink for SpoolWriter {
    #[inline]
    fn edge(&mut self, src: NodeId, _pred: PredIdx, trg: NodeId) {
        if self.error.is_some() {
            return;
        }
        let mut rec = [0u8; 8];
        rec[0..4].copy_from_slice(&src.to_le_bytes());
        rec[4..8].copy_from_slice(&trg.to_le_bytes());
        match self.inner.write_all(&rec) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// Builds a store from a finished spool without materializing more than
/// one predicate at a time.
///
/// For each predicate, the edges of its constraints are gathered in
/// **ascending constraint order** (the same order the in-memory builder
/// absorbs shards in), the deduplicated forward CSR is built and its
/// transpose taken — canonical sorted form, so the bytes equal the
/// materialized path's regardless of generation order — and both are
/// written and dropped. Peak memory is bounded by the largest single
/// predicate, not the total edge count.
///
/// `pred_of_constraint` maps each spool index to its schema predicate.
pub fn build_store_from_spool(
    path: &Path,
    meta: &StoreMeta,
    spool: &EdgeSpool,
    pred_of_constraint: &[PredIdx],
) -> Result<StoreInfo, StoreError> {
    let pred_count = meta.predicate_names.len();
    let n = meta.partition.node_count();
    let mut by_pred: Vec<Vec<usize>> = vec![Vec::new(); pred_count];
    for (idx, &p) in pred_of_constraint.iter().enumerate() {
        by_pred[p].push(idx);
    }
    let mut writer = StoreWriter::create(path, meta)?;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for constraints in &by_pred {
        edges.clear();
        for &idx in constraints {
            spool
                .read_into(idx, &mut edges)
                .map_err(|e| StoreError::io("reading edge spool", path, e))?;
        }
        let fwd = Csr::from_edges(n, &edges);
        writer.write_segment(&fwd)?;
        writer.write_segment(&fwd.transpose())?;
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_removes_the_spool_dir_and_distinct_spools_do_not_collide() {
        let (a_path, b_path);
        {
            let a = EdgeSpool::create(&std::env::temp_dir(), 1).unwrap();
            let b = EdgeSpool::create(&std::env::temp_dir(), 1).unwrap();
            a.writer(0).unwrap().finish().unwrap();
            (a_path, b_path) = (a.path(0), b.path(0));
            assert_ne!(a_path, b_path);
            assert!(a_path.exists());
        }
        assert!(!a_path.parent().unwrap().exists(), "dir survives its spool");
        assert!(!b_path.parent().unwrap().exists(), "dir survives its spool");
    }

    #[test]
    fn stale_scratch_of_dead_process_is_reaped() {
        if !Path::new("/proc/self").exists() {
            return; // liveness check needs procfs
        }
        let parent = std::env::temp_dir().join(format!("gmark-reap-test-{}", std::process::id()));
        fs::create_dir_all(&parent).unwrap();
        // No pid this high exists (kernel pid_max tops out well below).
        let stale = parent.join(".gmark-spool-4294967294-0");
        fs::create_dir_all(&stale).unwrap();
        fs::write(stale.join("edges-000000.bin"), b"leftover").unwrap();
        // Freshly modified: the production age guard must spare it even
        // though its pid is dead (cross-namespace protection)...
        let recent_spared = EdgeSpool::create(&parent, 1).unwrap();
        assert!(stale.exists(), "hour-fresh dir must survive the age guard");
        // ...but once past the idle threshold it is reaped.
        reap_stale_scratch(&parent, std::time::Duration::ZERO);
        assert!(!stale.exists(), "stale dir of a dead pid must be reaped");
        drop(recent_spared);
        let _ = fs::remove_dir_all(&parent);
    }

    #[test]
    fn live_scratch_is_not_reaped() {
        let parent = std::env::temp_dir().join(format!("gmark-reap-live-{}", std::process::id()));
        let a = EdgeSpool::create(&parent, 1).unwrap();
        a.writer(0).unwrap().finish().unwrap();
        // A second create in the same parent must leave our (live) dir alone.
        let _b = EdgeSpool::create(&parent, 1).unwrap();
        assert!(a.path(0).exists(), "live scratch dir was reaped");
        drop(a);
        let _ = fs::remove_dir_all(&parent);
    }
}
