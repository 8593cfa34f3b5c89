//! Store reading: structural validation at open time, whole-segment
//! loads ([`StoreReader::csr`]), and a full-file integrity check
//! ([`StoreReader::verify`]).

use super::{
    page_align, Fnv64, SegmentMeta, StoreError, StoreInfo, DIR_ENTRY_LEN, END_MAGIC,
    FIXED_HEADER_LEN, FOOTER_LEN, MAGIC, VERSION,
};
use crate::{Csr, NodeId, PredIdx, TypePartition};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Serves a store file's CSRs through positioned reads.
///
/// [`StoreReader::open`] validates framing and layout (magic, version,
/// footer, directory, each hull inside the node range) without reading the
/// segments; [`StoreReader::csr`] loads one segment whole and checks its
/// arrays; [`StoreReader::verify`] loads every segment and checks the
/// whole-file checksum. Evaluation reads the store only through
/// [`StoreReader::csr`] (via [`GraphView::csr`](crate::GraphView::csr)), so
/// the engines hold each symbol relation they mention in RAM, in the
/// layout they compute with.
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
            return Err(StoreError::Version {
                path: path.to_path_buf(),
                found: version,
            });
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
        let dir_len = 8 + predicate_count as u64 * 2 * DIR_ENTRY_LEN;
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
        // The segments follow the header region, each array on a fresh
        // page; `pos` is where the next one starts.
        let mut pos = page_align(cursor + part_len as u64, page_size);
        let mut segments = Vec::with_capacity(predicate_count * 2);
        for i in 0..predicate_count * 2 {
            let at = 8 + i * DIR_ENTRY_LEN as usize;
            let (edge_count, base, span) = (
                read_u64(&dir, at),
                read_u32(&dir, at + 8),
                read_u32(&dir, at + 12),
            );
            let offsets_pos = pos;
            let offsets_end = offsets_pos + (u64::from(span) + 1) * 8;
            let targets_pos = page_align(offsets_end, page_size);
            let in_range = u64::from(base) + u64::from(span) <= u64::from(node_count);
            let targets_end = edge_count
                .checked_mul(4)
                .and_then(|len| targets_pos.checked_add(len))
                .filter(|&end| in_range && end <= dir_pos);
            let Some(targets_end) = targets_end else {
                return Err(StoreError::corrupt(
                    path,
                    format!(
                        "{}: hull {base} + {span} in {node_count} nodes, {edge_count} edges \
                         do not fit the file",
                        segment_label(i)
                    ),
                    Some((dir_pos + at as u64) / page_size),
                ));
            };
            pos = page_align(targets_end, page_size);
            segments.push(SegmentMeta {
                edge_count,
                base,
                span,
                offsets_pos,
                targets_pos,
            });
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

    /// Full integrity check: every segment loads ([`StoreReader::csr`]),
    /// and the whole file matches its FNV-1a checksum. Structural
    /// violations name the bad page; a checksum mismatch with intact
    /// structure (e.g. a flipped padding byte) cannot be localized and
    /// reports without one.
    pub fn verify(&self) -> Result<(), StoreError> {
        for pred in 0..self.predicate_count() {
            self.csr(pred, false)?;
            self.csr(pred, true)?;
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

    /// The CSR of one `Σ±` symbol, loaded whole: the one reader of a
    /// segment's arrays. Two positioned reads fill the offsets and the
    /// targets; then the offsets must start at 0, never fall and end at
    /// the edge count, and every run must be strictly ascending with every
    /// target below the node count. Anything else is
    /// [`StoreError::Corrupt`], naming the page of the first bad word.
    pub fn csr(&self, pred: PredIdx, inverse: bool) -> Result<Csr, StoreError> {
        let seg = self.segment(pred, inverse);
        let offsets: Vec<u64> = self.read_words(seg.offsets_pos, seg.span as usize + 1)?;
        let targets: Vec<NodeId> = self.read_words(seg.targets_pos, seg.edge_count as usize)?;
        let corrupt = |what: String, pos: u64| {
            StoreError::corrupt(
                &self.path,
                format!("{}: {what}", segment_label(pred * 2 + inverse as usize)),
                Some(pos / self.page_size),
            )
        };
        let mut prev = 0;
        for (i, &o) in offsets.iter().enumerate() {
            // Each offset lies between the one before it and the edge
            // count; the first is 0 and the last the edge count.
            let lowest = if i + 1 == offsets.len() {
                seg.edge_count
            } else {
                prev
            };
            let highest = if i == 0 { 0 } else { seg.edge_count };
            if !(lowest..=highest).contains(&o) {
                return Err(corrupt(
                    format!(
                        "offset {i} = {o} breaks monotonicity from 0 to {}",
                        seg.edge_count
                    ),
                    seg.offsets_pos + i as u64 * 8,
                ));
            }
            prev = o;
        }
        for run in offsets.windows(2) {
            let (start, end) = (run[0] as usize, run[1] as usize);
            for e in start..end {
                let t = targets[e];
                if t >= self.node_count || (e > start && targets[e - 1] >= t) {
                    return Err(corrupt(
                        format!("target {e} = {t} is out of range or out of order"),
                        seg.targets_pos + e as u64 * 4,
                    ));
                }
            }
        }
        Ok(Csr::from_parts(seg.base, offsets, targets))
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

    /// The sorted neighbor list of `v` along `pred`, forward or backward.
    /// Two positioned reads: `v`'s two offsets in the hull, checked to
    /// rise inside the segment (or [`StoreError::Corrupt`], naming their
    /// page), then the targets they bound; a node outside the hull has no
    /// neighbors.
    ///
    /// A point lookup for callers that time one, such as the benchmark
    /// harness; evaluation loads whole segments through
    /// [`StoreReader::csr`].
    pub fn neighbors(
        &self,
        pred: PredIdx,
        v: NodeId,
        inverse: bool,
    ) -> Result<Vec<NodeId>, StoreError> {
        let seg = self.segment(pred, inverse);
        let i = v.wrapping_sub(seg.base);
        if i >= seg.span {
            return Ok(Vec::new());
        }
        let pos = seg.offsets_pos + u64::from(i) * 8;
        let bounds: Vec<u64> = self.read_words(pos, 2)?;
        let (lo, hi) = (bounds[0], bounds[1]);
        if lo > hi || hi > seg.edge_count {
            return Err(StoreError::corrupt(
                &self.path,
                format!("offsets of node {v} are not monotone ({lo} > {hi} or beyond the segment)"),
                Some(pos / self.page_size),
            ));
        }
        self.read_words(seg.targets_pos + lo * 4, (hi - lo) as usize)
    }

    /// The `(source, target)` pairs of one `Σ±` symbol in lexicographic
    /// order: the pairs of [`StoreReader::csr`]. Kept for callers that
    /// count pairs, such as the benchmark harness.
    ///
    /// # Panics
    ///
    /// When the segment does not load (the iterator interface is
    /// infallible; [`StoreReader::verify`] checks every segment first).
    pub fn pairs(&self, pred: PredIdx, inverse: bool) -> impl Iterator<Item = (NodeId, NodeId)> {
        let csr = self.csr(pred, inverse).unwrap_or_else(|e| panic!("{e}"));
        csr.iter_edges().collect::<Vec<_>>().into_iter()
    }

    /// Reads `len` little-endian words at `pos` straight into a vector.
    fn read_words<W: Word>(&self, pos: u64, len: usize) -> Result<Vec<W>, StoreError> {
        let mut words = vec![W::default(); len];
        // SAFETY: `W` is `u32` or `u64` (the trait is private), so the
        // vector's memory is `len * size_of::<W>()` initialized bytes, any
        // of which may be overwritten with any value.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(
                words.as_mut_ptr().cast::<u8>(),
                std::mem::size_of_val(words.as_slice()),
            )
        };
        pread(&self.file, &self.path, pos, bytes, "reading a segment")?;
        for w in &mut words {
            *w = W::from_le(*w);
        }
        Ok(words)
    }
}

/// The word types a segment holds: offsets (`u64`) and targets (`u32`).
trait Word: Copy + Default {
    /// The word read from little-endian bytes.
    fn from_le(word: Self) -> Self;
}

impl Word for u32 {
    fn from_le(word: u32) -> u32 {
        u32::from_le(word)
    }
}

impl Word for u64 {
    fn from_le(word: u64) -> u64 {
        u64::from_le(word)
    }
}

/// How errors name segment `i`: its predicate and direction.
fn segment_label(i: usize) -> String {
    let direction = ["forward", "backward"][i % 2];
    format!("segment {i} (predicate {}, {direction})", i / 2)
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
                let in_ram = if inverse {
                    g.backward(pred)
                } else {
                    g.forward(pred)
                };
                assert_eq!(
                    &r.csr(pred, inverse).unwrap(),
                    in_ram,
                    "pred {pred} {inverse}"
                );
                let pairs: Vec<_> = r.pairs(pred, inverse).collect();
                assert_eq!(pairs, in_ram.iter_edges().collect::<Vec<_>>());
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
