//! Paged store reading: cheap structural validation at open time,
//! sequential scans with private buffers, uncached point lookups, and a
//! full-file integrity check ([`StoreReader::verify`]).

use super::{
    Fnv64, SegmentMeta, StoreError, StoreInfo, END_MAGIC, FIXED_HEADER_LEN, FOOTER_LEN, MAGIC,
    VERSION,
};
use crate::{NodeId, PredIdx, TypePartition};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Entries per chunk for sequential offset/target scans (private buffers).
/// 32Ki entries = 256 KiB of offsets per read: segment-granular readahead
/// that amortizes the syscall over far more pairs than a store page would,
/// which is what makes full-relation `pairs` scans cheap.
const SCAN_CHUNK: usize = 32 * 1024;

/// Serves CSR queries straight from a store file via positioned reads.
///
/// [`StoreReader::open`] validates framing and bounds (magic, version,
/// footer, directory, segment positions) without reading the data pages;
/// [`StoreReader::verify`] additionally checks the checksum and the
/// offset arrays. Evaluation reads the store only through the bulk scan
/// [`StoreReader::pairs`], which streams with private buffers; the
/// engines then hold each symbol relation they mention in RAM. [`StoreReader::neighbors`] is an
/// uncached point lookup for callers outside evaluation.
///
/// The reader holds no mutable state, so one reader serves every worker
/// thread of the evaluation matrix.
#[derive(Debug)]
pub struct StoreReader {
    file: File,
    path: PathBuf,
    file_len: u64,
    page_size: u64,
    seed: u64,
    schema_hash: u64,
    stored_checksum: u64,
    node_count: NodeId,
    predicate_names: Vec<String>,
    partition: TypePartition,
    total_edges: u64,
    segments: Vec<SegmentMeta>,
}

impl StoreReader {
    /// Opens a store, checking its framing and bounds.
    pub fn open(path: &Path) -> Result<StoreReader, StoreError> {
        let file = File::open(path).map_err(|e| StoreError::io("opening store", path, e))?;
        let file_len = file
            .metadata()
            .map_err(|e| StoreError::io("reading store metadata", path, e))?
            .len();
        if file_len < FIXED_HEADER_LEN + FOOTER_LEN {
            return Err(StoreError::not_a_store(
                path,
                format!("only {file_len} bytes, too short for header and footer"),
            ));
        }

        let mut footer = [0u8; FOOTER_LEN as usize];
        pread(
            &file,
            path,
            file_len - FOOTER_LEN,
            &mut footer,
            "reading footer",
        )?;
        if footer[16..24] != END_MAGIC {
            return Err(StoreError::not_a_store(
                path,
                "end magic missing (truncated, or not a store)",
            ));
        }
        let dir_pos = u64::from_le_bytes(footer[0..8].try_into().expect("8 bytes"));
        let stored_checksum = u64::from_le_bytes(footer[8..16].try_into().expect("8 bytes"));

        let mut fixed = [0u8; FIXED_HEADER_LEN as usize];
        pread(&file, path, 0, &mut fixed, "reading header")?;
        if fixed[0..8] != MAGIC {
            return Err(StoreError::not_a_store(path, "bad magic"));
        }
        let version = read_u32(&fixed, 8);
        if version != VERSION {
            return Err(StoreError::not_a_store(
                path,
                format!("unsupported version {version} (this build reads {VERSION})"),
            ));
        }
        let page_size = read_u32(&fixed, 12) as u64;
        if !(64..=1 << 24).contains(&page_size) || !page_size.is_multiple_of(8) {
            return Err(StoreError::corrupt(
                path,
                format!("unusable page size {page_size}"),
                Some(0),
            ));
        }
        let seed = read_u64(&fixed, 16);
        let schema_hash = read_u64(&fixed, 24);
        let node_count = read_u32(&fixed, 32);
        let predicate_count = read_u32(&fixed, 36) as usize;
        let type_count = read_u32(&fixed, 40) as usize;
        // Loose caps so a corrupt count can't trigger absurd allocations
        // before the bounds checks below.
        if predicate_count as u64 * 4 > file_len || (type_count as u64 + 1) * 4 > file_len {
            return Err(StoreError::corrupt(
                path,
                format!("header counts exceed the file ({predicate_count} predicates, {type_count} types in {file_len} bytes)"),
                Some(0),
            ));
        }

        let data_end = file_len - FOOTER_LEN;
        let mut cursor = FIXED_HEADER_LEN;
        let mut predicate_names = Vec::with_capacity(predicate_count);
        for i in 0..predicate_count {
            let mut len_buf = [0u8; 4];
            if cursor + 4 > data_end {
                return Err(StoreError::corrupt(
                    path,
                    format!("predicate table truncated at entry {i}"),
                    Some(cursor / page_size),
                ));
            }
            pread(&file, path, cursor, &mut len_buf, "reading predicate table")?;
            cursor += 4;
            let len = u32::from_le_bytes(len_buf) as u64;
            if len > (1 << 20) || cursor + len > data_end {
                return Err(StoreError::corrupt(
                    path,
                    format!("predicate {i} name length {len} out of bounds"),
                    Some(cursor / page_size),
                ));
            }
            let mut name = vec![0u8; len as usize];
            pread(&file, path, cursor, &mut name, "reading predicate table")?;
            cursor += len;
            let name = String::from_utf8(name).map_err(|_| {
                StoreError::corrupt(
                    path,
                    format!("predicate {i} name is not UTF-8"),
                    Some(cursor / page_size),
                )
            })?;
            predicate_names.push(name);
        }

        let part_len = (type_count + 1) * 4;
        if cursor + part_len as u64 > data_end {
            return Err(StoreError::corrupt(
                path,
                "type partition out of bounds",
                Some(cursor / page_size),
            ));
        }
        let mut part_bytes = vec![0u8; part_len];
        pread(
            &file,
            path,
            cursor,
            &mut part_bytes,
            "reading type partition",
        )?;
        let offsets: Vec<NodeId> = part_bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        let partition = TypePartition::from_offsets(offsets).ok_or_else(|| {
            StoreError::corrupt(
                path,
                "type partition is not monotone from 0",
                Some(cursor / page_size),
            )
        })?;
        if partition.node_count() != node_count {
            return Err(StoreError::corrupt(
                path,
                format!(
                    "type partition covers {} nodes but the header says {node_count}",
                    partition.node_count()
                ),
                Some(cursor / page_size),
            ));
        }

        // Directory: must sit page-aligned and run exactly up to the footer.
        let dir_len = 8 + predicate_count as u64 * 2 * 24;
        if dir_pos % page_size != 0 || dir_pos.checked_add(dir_len) != Some(data_end) {
            return Err(StoreError::corrupt(
                path,
                format!("directory position {dir_pos} inconsistent with file length {file_len}"),
                None,
            ));
        }
        let mut dir = vec![0u8; dir_len as usize];
        pread(&file, path, dir_pos, &mut dir, "reading directory")?;
        let total_edges = read_u64(&dir, 0);
        let mut segments = Vec::with_capacity(predicate_count * 2);
        let n_plus_1 = node_count as u64 + 1;
        for i in 0..predicate_count * 2 {
            let base = 8 + i * 24;
            let seg = SegmentMeta {
                offsets_pos: read_u64(&dir, base),
                targets_pos: read_u64(&dir, base + 8),
                edge_count: read_u64(&dir, base + 16),
            };
            let offsets_ok = seg.offsets_pos.is_multiple_of(page_size)
                && seg
                    .offsets_pos
                    .checked_add(n_plus_1 * 8)
                    .is_some_and(|end| end <= seg.targets_pos);
            let targets_ok = seg.targets_pos.is_multiple_of(page_size)
                && seg
                    .edge_count
                    .checked_mul(4)
                    .and_then(|len| seg.targets_pos.checked_add(len))
                    .is_some_and(|end| end <= dir_pos);
            if !offsets_ok || !targets_ok {
                return Err(StoreError::corrupt(
                    path,
                    format!(
                        "directory entry for segment {i} (predicate {}, {}) is out of bounds",
                        i / 2,
                        if i % 2 == 0 { "forward" } else { "backward" }
                    ),
                    Some(dir_pos / page_size),
                ));
            }
            segments.push(seg);
        }
        let forward_sum: u64 = segments.iter().step_by(2).map(|s| s.edge_count).sum();
        if forward_sum != total_edges {
            return Err(StoreError::corrupt(
                path,
                format!("directory total {total_edges} != sum of forward segments {forward_sum}"),
                Some(dir_pos / page_size),
            ));
        }

        Ok(StoreReader {
            file,
            path: path.to_path_buf(),
            file_len,
            page_size,
            seed,
            schema_hash,
            stored_checksum,
            node_count,
            predicate_names,
            partition,
            total_edges,
            segments,
        })
    }

    /// Full integrity check: every offsets array must be monotone within
    /// its segment bounds, every target id in range, and the whole file
    /// must match its FNV-1a checksum. Structural violations name the bad
    /// page; a checksum mismatch with intact structure (e.g. a flipped
    /// padding byte) cannot be localized and reports without one.
    pub fn verify(&self) -> Result<(), StoreError> {
        let mut off_buf = vec![0u64; SCAN_CHUNK];
        let mut tgt_buf = vec![0 as NodeId; SCAN_CHUNK];
        for (i, seg) in self.segments.iter().enumerate() {
            let label = |what: &str| {
                format!(
                    "segment {i} (predicate {}, {}): {what}",
                    i / 2,
                    if i % 2 == 0 { "forward" } else { "backward" }
                )
            };
            let n_plus_1 = self.node_count as u64 + 1;
            let mut prev = 0u64;
            let mut idx = 0u64;
            while idx < n_plus_1 {
                let take = ((n_plus_1 - idx) as usize).min(SCAN_CHUNK);
                self.read_u64s(seg.offsets_pos + idx * 8, &mut off_buf[..take])?;
                for (j, &o) in off_buf[..take].iter().enumerate() {
                    let page = (seg.offsets_pos + (idx + j as u64) * 8) / self.page_size;
                    if (idx + j as u64 == 0 && o != 0) || o < prev || o > seg.edge_count {
                        return Err(StoreError::corrupt(
                            &self.path,
                            label(&format!(
                                "offset {} = {o} breaks monotonicity",
                                idx + j as u64
                            )),
                            Some(page),
                        ));
                    }
                    prev = o;
                }
                idx += take as u64;
            }
            if prev != seg.edge_count {
                return Err(StoreError::corrupt(
                    &self.path,
                    label(&format!(
                        "final offset {prev} != edge count {}",
                        seg.edge_count
                    )),
                    Some((seg.offsets_pos + (n_plus_1 - 1) * 8) / self.page_size),
                ));
            }
            let mut e = 0u64;
            while e < seg.edge_count {
                let take = ((seg.edge_count - e) as usize).min(SCAN_CHUNK);
                self.read_u32s(seg.targets_pos + e * 4, &mut tgt_buf[..take])?;
                for (j, &t) in tgt_buf[..take].iter().enumerate() {
                    if t >= self.node_count {
                        let page = (seg.targets_pos + (e + j as u64) * 4) / self.page_size;
                        return Err(StoreError::corrupt(
                            &self.path,
                            label(&format!("target {} = {t} >= node count", e + j as u64)),
                            Some(page),
                        ));
                    }
                }
                e += take as u64;
            }
        }

        let mut hash = Fnv64::new();
        let hashed_len = self.file_len - 16; // checksum field + end magic excluded
        let mut buf = vec![0u8; 64 * 1024];
        let mut pos = 0u64;
        while pos < hashed_len {
            let take = ((hashed_len - pos) as usize).min(buf.len());
            pread(&self.file, &self.path, pos, &mut buf[..take], "verifying")?;
            hash.update(&buf[..take]);
            pos += take as u64;
        }
        if hash.finish() != self.stored_checksum {
            return Err(StoreError::corrupt(
                &self.path,
                format!(
                    "checksum mismatch (stored {:#018x}, computed {:#018x})",
                    self.stored_checksum,
                    hash.finish()
                ),
                None,
            ));
        }
        Ok(())
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> NodeId {
        self.node_count
    }

    /// Number of predicates.
    #[inline]
    pub fn predicate_count(&self) -> usize {
        self.predicate_names.len()
    }

    /// Total (deduplicated) edges, straight from the directory.
    #[inline]
    pub fn edge_count(&self) -> u64 {
        self.total_edges
    }

    /// Number of edges of one predicate.
    #[inline]
    pub fn edge_count_for(&self, pred: PredIdx) -> usize {
        self.segments[pred * 2].edge_count as usize
    }

    /// The node-type partition recorded in the header.
    #[inline]
    pub fn partition(&self) -> &TypePartition {
        &self.partition
    }

    /// The predicate alphabet recorded in the header.
    #[inline]
    pub fn predicate_names(&self) -> &[String] {
        &self.predicate_names
    }

    /// The master seed the graph was generated from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The generating schema's hash (see `Schema::schema_hash`).
    #[inline]
    pub fn schema_hash(&self) -> u64 {
        self.schema_hash
    }

    /// File size and edge totals, for reports.
    pub fn info(&self) -> StoreInfo {
        StoreInfo {
            bytes: self.file_len,
            page_size: self.page_size as u32,
            edges: self.total_edges,
        }
    }

    /// The file this reader serves.
    pub fn path(&self) -> &Path {
        &self.path
    }

    #[inline]
    fn segment(&self, pred: PredIdx, inverse: bool) -> &SegmentMeta {
        &self.segments[pred * 2 + inverse as usize]
    }

    /// The sorted neighbor list of `v` along `pred`, forward or backward —
    /// the paged counterpart of [`Graph::neighbors`](crate::Graph::neighbors).
    /// Two positioned reads and no cache: `offsets[v]` and `offsets[v + 1]`,
    /// checked to be monotone and inside the segment, then the targets
    /// they bound. Offsets that fail the check are
    /// [`StoreError::Corrupt`], naming the page that holds them.
    pub fn neighbors(
        &self,
        pred: PredIdx,
        v: NodeId,
        inverse: bool,
    ) -> Result<Vec<NodeId>, StoreError> {
        debug_assert!(v < self.node_count, "node {v} out of range");
        let seg = self.segment(pred, inverse);
        let pos = seg.offsets_pos + v as u64 * 8;
        let mut bounds = [0u64; 2];
        self.read_u64s(pos, &mut bounds)?;
        let [lo, hi] = bounds;
        if lo > hi || hi > seg.edge_count {
            return Err(StoreError::corrupt(
                &self.path,
                format!("offsets of node {v} are not monotone ({lo} > {hi} or beyond the segment)"),
                Some(pos / self.page_size),
            ));
        }
        let mut out = vec![0; (hi - lo) as usize];
        self.read_u32s(seg.targets_pos + lo * 4, &mut out)?;
        Ok(out)
    }

    /// Iterates the `(source, target)` pairs of one `Σ±` symbol in
    /// lexicographic order — the paged counterpart of
    /// [`Graph::pairs`](crate::Graph::pairs). The scan streams both arrays
    /// sequentially with private buffers.
    ///
    /// # Panics
    ///
    /// On I/O failure mid-scan (the iterator interface is infallible; the
    /// file's bounds were validated at open time).
    pub fn pairs(&self, pred: PredIdx, inverse: bool) -> StorePairs<'_> {
        let seg = *self.segment(pred, inverse);
        StorePairs {
            reader: self,
            seg,
            m: seg.edge_count,
            e: 0,
            node: 0,
            node_end: 0,
            off_chunk: Vec::new(),
            off_start: u64::MAX,
            tgt_chunk: Vec::new(),
            tgt_start: u64::MAX,
            primed: false,
        }
    }

    /// Positioned read of little-endian u64s.
    fn read_u64s(&self, pos: u64, out: &mut [u64]) -> Result<(), StoreError> {
        let mut bytes = vec![0u8; out.len() * 8];
        pread(&self.file, &self.path, pos, &mut bytes, "reading offsets")?;
        for (o, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *o = u64::from_le_bytes(c.try_into().expect("8 bytes"));
        }
        Ok(())
    }

    /// Positioned read of little-endian u32s.
    fn read_u32s(&self, pos: u64, out: &mut [NodeId]) -> Result<(), StoreError> {
        let mut bytes = vec![0u8; out.len() * 4];
        pread(&self.file, &self.path, pos, &mut bytes, "reading targets")?;
        for (o, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *o = u32::from_le_bytes(c.try_into().expect("4 bytes"));
        }
        Ok(())
    }
}

/// Sequential `(source, target)` iterator over one stored segment (see
/// [`StoreReader::pairs`]).
#[derive(Debug)]
pub struct StorePairs<'r> {
    reader: &'r StoreReader,
    seg: SegmentMeta,
    m: u64,
    e: u64,
    node: u64,
    node_end: u64,
    off_chunk: Vec<u64>,
    off_start: u64,
    tgt_chunk: Vec<NodeId>,
    tgt_start: u64,
    primed: bool,
}

impl StorePairs<'_> {
    /// `offsets[i]`, loading a fresh chunk when `i` runs past the current
    /// one (the scan only ever moves forward).
    fn offset_at(&mut self, i: u64) -> u64 {
        let in_chunk = self.off_start != u64::MAX
            && i >= self.off_start
            && i < self.off_start + self.off_chunk.len() as u64;
        if !in_chunk {
            let n_plus_1 = self.reader.node_count as u64 + 1;
            let take = ((n_plus_1 - i) as usize).min(SCAN_CHUNK);
            self.off_chunk.resize(take, 0);
            self.reader
                .read_u64s(self.seg.offsets_pos + i * 8, &mut self.off_chunk)
                .expect("store offsets vanished mid-scan");
            self.off_start = i;
        }
        self.off_chunk[(i - self.off_start) as usize]
    }

    fn target_at(&mut self, e: u64) -> NodeId {
        let in_chunk = self.tgt_start != u64::MAX
            && e >= self.tgt_start
            && e < self.tgt_start + self.tgt_chunk.len() as u64;
        if !in_chunk {
            let take = ((self.m - e) as usize).min(SCAN_CHUNK * 2);
            self.tgt_chunk.resize(take, 0);
            self.reader
                .read_u32s(self.seg.targets_pos + e * 4, &mut self.tgt_chunk)
                .expect("store targets vanished mid-scan");
            self.tgt_start = e;
        }
        self.tgt_chunk[(e - self.tgt_start) as usize]
    }
}

impl Iterator for StorePairs<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        if self.e >= self.m {
            return None;
        }
        if !self.primed {
            self.node_end = self.offset_at(1);
            self.primed = true;
        }
        while self.e >= self.node_end {
            self.node += 1;
            self.node_end = self.offset_at(self.node + 1);
        }
        let t = self.target_at(self.e);
        self.e += 1;
        Some((self.node as NodeId, t))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.m - self.e) as usize;
        (left, Some(left))
    }
}

fn pread(
    file: &File,
    path: &Path,
    pos: u64,
    buf: &mut [u8],
    context: &str,
) -> Result<(), StoreError> {
    file.read_exact_at(buf, pos)
        .map_err(|e| StoreError::io(context, path, e))
}

#[inline]
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

#[inline]
fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::{StoreMeta, StoreWriter, DEFAULT_PAGE_SIZE};
    use crate::{Csr, Graph, GraphBuilder};

    fn tiny_graph() -> Graph {
        // 2 types (3 + 2 nodes), 2 predicates.
        use crate::sink::EdgeSink;
        let mut b = GraphBuilder::new(crate::TypePartition::from_counts(&[3, 2]), 2);
        for (s, p, t) in [
            (0u32, 0usize, 3u32),
            (0, 0, 4),
            (1, 0, 3),
            (2, 0, 3),
            (3, 1, 0),
            (4, 1, 2),
            (4, 1, 0),
        ] {
            b.edge(s, p, t);
        }
        b.build()
    }

    fn meta_for(g: &Graph) -> StoreMeta {
        StoreMeta {
            seed: 42,
            schema_hash: 0xdead_beef,
            page_size: 64, // smallest legal page: exercises multi-page layout
            predicate_names: vec!["authors".into(), "cite%2Fs".into()],
            partition: g.partition().clone(),
        }
    }

    #[test]
    fn round_trip_matches_in_memory() {
        let dir = std::env::temp_dir().join(format!("gstore-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.gstore");
        let g = tiny_graph();
        let info = StoreWriter::write_graph(&path, &meta_for(&g), &g).unwrap();
        assert_eq!(info.edges, g.edge_count() as u64);

        let r = StoreReader::open(&path).unwrap();
        r.verify().unwrap();
        assert_eq!(r.node_count(), g.node_count());
        assert_eq!(r.predicate_count(), 2);
        assert_eq!(r.edge_count(), g.edge_count() as u64);
        assert_eq!(r.seed(), 42);
        assert_eq!(r.schema_hash(), 0xdead_beef);
        assert_eq!(r.predicate_names(), ["authors", "cite%2Fs"]);
        assert_eq!(r.partition().offsets(), g.partition().offsets());
        for pred in 0..2 {
            assert_eq!(r.edge_count_for(pred), g.edge_count_for(pred));
            for inverse in [false, true] {
                for v in 0..g.node_count() {
                    assert_eq!(
                        r.neighbors(pred, v, inverse).unwrap(),
                        g.neighbors(pred, v, inverse),
                        "pred {pred} inverse {inverse} node {v}"
                    );
                }
                let paged: Vec<_> = r.pairs(pred, inverse).collect();
                let in_ram: Vec<_> = g.pairs(pred, inverse).collect();
                assert_eq!(paged, in_ram, "pred {pred} inverse {inverse}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_page_size_round_trip() {
        let dir = std::env::temp_dir().join(format!("gstore-dp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.gstore");
        let g = tiny_graph();
        let mut meta = meta_for(&g);
        meta.page_size = DEFAULT_PAGE_SIZE;
        StoreWriter::write_graph(&path, &meta, &g).unwrap();
        let r = StoreReader::open(&path).unwrap();
        for v in 0..g.node_count() {
            assert_eq!(r.neighbors(0, v, false).unwrap(), g.neighbors(0, v, false));
            assert_eq!(r.neighbors(1, v, true).unwrap(), g.neighbors(1, v, true));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn neighbors_matches_the_csr_across_pages() {
        use crate::sink::EdgeSink;
        // 24 nodes on 64-byte pages: offsets pairs of nodes 7, 15 and 23
        // (v * 8 % 64 == 56) straddle two pages, and the longer target
        // lists span several.
        let mut b = GraphBuilder::new(crate::TypePartition::from_counts(&[24]), 1);
        for s in 0..24u32 {
            for k in 0..1 + (s % 4) * 9 {
                b.edge(s, 0, (s * 11 + k * 5) % 24);
            }
        }
        let g = b.build();
        let dir = std::env::temp_dir().join(format!("gstore-nb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.gstore");
        let mut meta = meta_for(&g);
        meta.predicate_names.truncate(1);
        StoreWriter::write_graph(&path, &meta, &g).unwrap();
        let straddling: Vec<NodeId> = (0..24).filter(|v| v * 8 % 64 == 56).collect();
        assert_eq!(straddling, [7, 15, 23]);
        assert!(straddling
            .iter()
            .all(|&v| !g.neighbors(0, v, false).is_empty()));
        let r = StoreReader::open(&path).unwrap();
        for inverse in [false, true] {
            for v in 0..g.node_count() {
                let got = r.neighbors(0, v, inverse).unwrap();
                assert_eq!(got, g.neighbors(0, v, inverse), "node {v} {inverse}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_monotone_offsets_open_but_fail_the_lookup_with_their_page() {
        let dir = std::env::temp_dir().join(format!("gstore-nm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.gstore");
        let g = tiny_graph();
        StoreWriter::write_graph(&path, &meta_for(&g), &g).unwrap();
        // Node 1 has one forward `authors` edge: offsets[1] = 2 and
        // offsets[2] = 3. Swapping the two words leaves node 1 with
        // lo = 3 > hi = 2, which `open` does not read.
        let pos = StoreReader::open(&path)
            .unwrap()
            .segment(0, false)
            .offsets_pos
            + 8;
        let mut bytes = std::fs::read(&path).unwrap();
        let at = pos as usize;
        assert_eq!(read_u64(&bytes, at), 2);
        assert_eq!(read_u64(&bytes, at + 8), 3);
        let (lo, hi) = bytes[at..at + 16].split_at_mut(8);
        lo.swap_with_slice(hi);
        std::fs::write(&path, &bytes).unwrap();

        let r = StoreReader::open(&path).expect("open reads no offsets");
        match r.neighbors(0, 1, false) {
            Err(StoreError::Corrupt { page, what, .. }) => {
                assert_eq!(page, Some(pos / 64), "{what}");
                assert!(what.contains("node 1"), "{what}");
            }
            other => panic!("expected a corrupt-store error, got {other:?}"),
        }
        let shown = r.neighbors(0, 1, false).unwrap_err().to_string();
        assert!(shown.contains(&format!("page {}", pos / 64)), "{shown}");
        // The untouched inverse direction still reads, and the full check
        // finds the same page.
        assert_eq!(r.neighbors(0, 3, true).unwrap(), g.neighbors(0, 3, true));
        assert!(matches!(
            r.verify(),
            Err(StoreError::Corrupt { page: Some(p), .. }) if p == (pos + 8) / 64
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csr_edges_iterator_matches_flat_map() {
        let edges = [(0u32, 5u32), (0, 7), (2, 1), (4, 0), (4, 9)];
        let csr = Csr::from_edges(edges);
        let got: Vec<_> = csr.iter_edges().collect();
        assert_eq!(got, edges);
        let empty = Csr::from_edges([]);
        assert_eq!(empty.iter_edges().count(), 0);
    }
}
