//! Sequential store writing: [`StoreWriter`] (header → segments →
//! directory → footer, with a running checksum).

use super::{
    page_align, Fnv64, SegmentMeta, StoreError, StoreInfo, StoreMeta, END_MAGIC, MAGIC, VERSION,
};
use crate::graph::Csr;
use crate::{Graph, NodeId};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

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

    /// Writes a run of little-endian words through a block buffer.
    fn put_words<const N: usize>(
        &mut self,
        words: impl Iterator<Item = [u8; N]>,
    ) -> io::Result<()> {
        const BLOCK: usize = 32 * 1024;
        let mut buf = Vec::with_capacity(BLOCK);
        for word in words {
            buf.extend_from_slice(&word);
            if buf.len() >= BLOCK {
                self.put(&buf)?;
                buf.clear();
            }
        }
        self.put(&buf)
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
/// streamed path drives the same calls one predicate at a time
/// (`gmark_core::gen::generate_store`).
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

    /// Writes the next `(predicate, direction)` CSR segment as it is: its
    /// hull offsets ([`Csr::offsets`]), then its targets, each starting on
    /// a page. Segments must arrive in predicate order, forward before
    /// backward.
    pub fn write_segment(&mut self, csr: &Csr) -> Result<(), StoreError> {
        assert!(
            self.segments.len() < self.predicate_count * 2,
            "more segments than 2 x predicate count"
        );
        let (offsets, targets) = (csr.offsets(), csr.targets());
        let span = offsets.len() as u64 - 1;
        assert!(
            u64::from(csr.base()) + span <= u64::from(self.node_count),
            "CSR hull runs past node_count {}",
            self.node_count
        );
        let page_size = self.page_size;
        let Self { out, path, .. } = self;
        let out = out.as_mut().expect("writer not finished");
        let io_err = |e| StoreError::io("writing store segment", path, e);

        let offsets_pos = out.pos;
        debug_assert_eq!(offsets_pos % page_size, 0);
        out.put_words(offsets.iter().map(|o| o.to_le_bytes()))
            .map_err(io_err)?;
        out.pad_to_page(page_size).map_err(io_err)?;
        let targets_pos = out.pos;
        out.put_words(targets.iter().map(|t| t.to_le_bytes()))
            .map_err(io_err)?;
        out.pad_to_page(page_size).map_err(io_err)?;

        self.segments.push(SegmentMeta {
            edge_count: targets.len() as u64,
            base: csr.base(),
            span: span as u32,
            offsets_pos,
            targets_pos,
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
            out.put(&seg.edge_count.to_le_bytes()).map_err(io_err)?;
            out.put(&seg.base.to_le_bytes()).map_err(io_err)?;
            out.put(&seg.span.to_le_bytes()).map_err(io_err)?;
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
