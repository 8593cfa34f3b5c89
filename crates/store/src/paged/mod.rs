//! The on-disk paged graph store (`gmark-store` format, version 3).
//!
//! The streaming generator produces Table 3-scale graphs in a few MiB of
//! RSS, but evaluation used to require the fully materialized CSR
//! [`Graph`](crate::Graph) — generatable graphs were not queryable. This
//! format persists each per-(predicate, direction) [`Csr`](crate::Csr) as
//! it is in RAM — its hull's `base`, its offsets over the hull, its
//! targets — in a paged binary file, written once by [`StoreWriter`] and
//! loaded a whole segment at a time by [`StoreReader::csr`]: two
//! positioned reads ([`std::os::unix::fs::FileExt::read_exact_at`]), no
//! mmap, no cache, no dependencies.
//!
//! # Layout (all integers little-endian)
//!
//! | region | contents |
//! |---|---|
//! | fixed header (48 B) | magic `GMRKSTR1`, version u32 (= 3), page_size u32, seed u64, schema_hash u64, node_count u32, predicate_count u32, type_count u32, reserved u32 |
//! | predicate names | per predicate: u32 length + raw UTF-8 bytes (binary-safe, so hostile alphabets round-trip) |
//! | type partition | (type_count + 1) × u32 cumulative offsets |
//! | *zero padding to a page boundary* | |
//! | segments | per predicate, forward then backward: the CSR's offsets ((span + 1) × u32, [`Csr::offsets`](crate::Csr::offsets) as it is), then its targets (edge_count × u32), each zero-padded to a page |
//! | directory (page-aligned) | total_edges u64, then per segment: edge_count u64, base u32, span u32 |
//! | footer (24 B) | dir_pos u64, checksum u64, end magic `GMRKEND1` |
//!
//! A segment's hull is the `span` nodes from `base` on, so `base + span ≤
//! node_count`; a segment without edges has base 0, span 0 and the single
//! offset 0. The directory fixes every segment's position: each array
//! starts at the page boundary after the one before it, and the last one
//! ends on the page before the directory.
//!
//! A file of any other version is refused with [`StoreError::Version`]:
//! version 1 padded its `u64` offsets out to every node and recorded each
//! array's position, version 2 wrote the hull's offsets as `u64`. Version
//! 3's `u32` offsets bound a segment at `u32::MAX` edges, which `open`
//! checks.
//!
//! The checksum is FNV-1a (64-bit) over every byte from offset 0 up to the
//! checksum field itself (the directory position included), maintained as a
//! running hash by the writer — the file is written strictly sequentially,
//! which is also why the directory trails the segments: deduplicated edge
//! counts are only known after each segment is finalized.
//!
//! # Determinism
//!
//! Store bytes are a pure function of `(config, seed)`: the segments
//! serialize the canonical (sorted, deduplicated, hull-tight) CSR arrays,
//! which are independent of generation order, so the materialized build
//! and the streamed one — which generates each predicate's edges a second
//! time, one predicate at a time (`gmark_core::gen::generate_store`) —
//! produce byte-identical files at any thread count. CI `cmp`s them, and
//! the facade's `run` tests pin the guarantee at 1/2/8 threads on every
//! use case.

mod reader;
mod writer;

pub use reader::StoreReader;
pub use writer::StoreWriter;

use crate::TypePartition;
use std::io;
use std::path::{Path, PathBuf};

/// Leading file magic: "gMaRK STore Rust". It has not changed since the
/// first version; the header's version field tells the layouts apart.
pub const MAGIC: [u8; 8] = *b"GMRKSTR1";
/// Trailing file magic (truncation canary).
pub const END_MAGIC: [u8; 8] = *b"GMRKEND1";
/// Format version this build reads and writes.
pub const VERSION: u32 = 3;
/// Default page size: 8 KiB. Pages only align the arrays and locate
/// corruption, so the choice costs at most a page of padding per array.
pub const DEFAULT_PAGE_SIZE: u32 = 8192;
/// Size of the fixed leading header region.
pub(crate) const FIXED_HEADER_LEN: u64 = 48;
/// Size of one directory entry (edge_count u64, base u32, span u32).
pub(crate) const DIR_ENTRY_LEN: u64 = 16;
/// Size of the trailing footer (dir_pos + checksum + end magic).
pub(crate) const FOOTER_LEN: u64 = 24;

/// FNV-1a 64-bit running hash — the store's checksum primitive (and the
/// hash behind `Schema::schema_hash` in `gmark-core`). Hand-rolled because
/// the workspace is offline; FNV is tiny, stable, and fast enough to keep
/// up with sequential writes.
///
/// [`Fnv64::update`] reads whole little-endian words: a byte of 0 leaves
/// the xor step unchanged, so the `k` zero bytes at the top of a word are
/// one multiply by `PRIME^k`. The value is FNV-1a's, byte for byte; only
/// the zero bytes get cheaper, and many of a store's bytes are zeros (the
/// high bytes of its offsets and targets, its padding).
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

/// The FNV-1a 64-bit prime.
const PRIME: u64 = 0x100_0000_01b3;

/// `PRIME^k` for `k = 0..=8`: what `k` zero bytes multiply the hash by.
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(PRIME);
        k += 1;
    }
    powers
};

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Starts a fresh hash at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs bytes: whole words as in the type docs, the tail after the
    /// last one a byte at a time.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut w = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            let zeros = w.leading_zeros() as usize / 8;
            for _ in zeros..8 {
                h = (h ^ (w & 0xff)).wrapping_mul(PRIME);
                w >>= 8;
            }
            if zeros > 0 {
                h = h.wrapping_mul(PRIME_POWERS[zeros]);
            }
        }
        for &b in words.remainder() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
        self.0 = h;
    }

    /// The current hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes a sequence of length-prefixed strings (domain-separated, so
/// `["ab","c"]` and `["a","bc"]` differ) into an existing hash.
pub fn fnv_strings(hash: &mut Fnv64, strings: &[String]) {
    for s in strings {
        hash.update(&(s.len() as u64).to_le_bytes());
        hash.update(s.as_bytes());
    }
}

/// Everything the store records about the graph besides the CSR arrays.
///
/// The writer serializes this into the header; the reader hands it back so
/// callers can validate provenance (`schema_hash`, `seed`) before
/// evaluating against the wrong configuration.
#[derive(Debug, Clone)]
pub struct StoreMeta {
    /// Master seed the graph was generated from.
    pub seed: u64,
    /// Hash of the generating schema (see `Schema::schema_hash`).
    pub schema_hash: u64,
    /// Page size of the file; [`DEFAULT_PAGE_SIZE`] unless overridden.
    pub page_size: u32,
    /// Predicate alphabet Σ, in index order.
    pub predicate_names: Vec<String>,
    /// The contiguous node-type partition.
    pub partition: TypePartition,
}

/// One `(predicate, direction)` CSR segment: its directory entry and where
/// its arrays lie in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Deduplicated edge count (= length of the targets array).
    pub edge_count: u64,
    /// The first node of the hull ([`Csr::base`](crate::Csr::base)).
    pub base: u32,
    /// The number of nodes in the hull: the offsets array has `span + 1`
    /// entries.
    pub span: u32,
    /// Byte position of the page-aligned offsets array.
    pub offsets_pos: u64,
    /// Byte position of the page-aligned targets array.
    pub targets_pos: u64,
}

/// What a finished store write produced, for reports and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreInfo {
    /// Total file size in bytes.
    pub bytes: u64,
    /// Page size of the file.
    pub page_size: u32,
    /// Total (deduplicated) edges across all predicates.
    pub edges: u64,
}

/// Why a store file could not be written, opened, or trusted, or a graph
/// could not be built.
///
/// Corruption is reported as a typed error naming the bad page (byte
/// offset / page size) whenever the failure is page-locatable, never as a
/// panic.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io {
        /// What was being read or written.
        context: String,
        /// The failing path.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The file is not a gmark-store file at all (bad magic, or too short
    /// to hold the fixed header and footer).
    NotAStore {
        /// The offending path.
        path: PathBuf,
        /// What disqualified it.
        what: String,
    },
    /// The file is a gmark-store file of a format version this build does
    /// not read.
    Version {
        /// The offending path.
        path: PathBuf,
        /// The version its header records.
        found: u32,
    },
    /// The file has the right framing but its contents are inconsistent.
    Corrupt {
        /// The offending path.
        path: PathBuf,
        /// What is inconsistent.
        what: String,
        /// The page containing the bad bytes, when locatable.
        page: Option<u64>,
    },
    /// A predicate has more edges than one [`Csr`](crate::Csr) holds
    /// ([`check_edge_total`](crate::graph::check_edge_total)).
    TooManyEdges {
        /// The predicate's index.
        predicate: usize,
        /// Its edges, counted before deduplication.
        edges: u64,
    },
    /// The store was generated from a different schema than the caller's.
    SchemaMismatch {
        /// The offending path.
        path: PathBuf,
        /// The schema hash the caller expected.
        expected: u64,
        /// The hash recorded in the store header.
        found: u64,
    },
}

impl StoreError {
    pub(crate) fn io(context: impl Into<String>, path: &Path, source: io::Error) -> StoreError {
        StoreError::Io {
            context: context.into(),
            path: path.to_path_buf(),
            source,
        }
    }

    pub(crate) fn corrupt(path: &Path, what: impl Into<String>, page: Option<u64>) -> StoreError {
        StoreError::Corrupt {
            path: path.to_path_buf(),
            what: what.into(),
            page,
        }
    }

    pub(crate) fn not_a_store(path: &Path, what: impl Into<String>) -> StoreError {
        StoreError::NotAStore {
            path: path.to_path_buf(),
            what: what.into(),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io {
                context,
                path,
                source,
            } => write!(f, "{context} {}: {source}", path.display()),
            StoreError::NotAStore { path, what } => {
                write!(f, "{} is not a gmark-store file: {what}", path.display())
            }
            StoreError::Version { path, found } => write!(
                f,
                "{} is gmark-store version {found}, but this build reads only version \
                 {VERSION}: write it again with --store",
                path.display()
            ),
            StoreError::Corrupt {
                path,
                what,
                page: Some(page),
            } => write!(f, "{} is corrupt at page {page}: {what}", path.display()),
            StoreError::Corrupt {
                path,
                what,
                page: None,
            } => write!(f, "{} is corrupt: {what}", path.display()),
            StoreError::TooManyEdges { predicate, edges } => write!(
                f,
                "predicate {predicate} would have {edges} edges, but a graph holds at most \
                 {} per predicate (its CSR offsets are u32)",
                crate::Csr::MAX_EDGES
            ),
            StoreError::SchemaMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{} was generated from a different schema \
                 (expected hash {expected:#018x}, store records {found:#018x})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Rounds `pos` up to the next multiple of `page_size`.
#[inline]
pub(crate) fn page_align(pos: u64, page_size: u64) -> u64 {
    pos.div_ceil(page_size) * page_size
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.update(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    /// FNV-1a one byte at a time: the definition the word loop must match.
    fn fnv_bytewise(h: u64, bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(PRIME))
    }

    #[test]
    fn word_wise_fnv_equals_the_byte_at_a_time_reference() {
        // A splitmix64 stream for the random input.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let random: Vec<u8> = (0..64).map(|_| next() as u8).collect();
        // Small little-endian integers: every word has zero high bytes,
        // from none (u64::MAX) to all eight (0).
        let small: Vec<u8> = [0u64, 1, 0xff, 0x100, 0xffff, 70_000, 1 << 40, u64::MAX, 3]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let text = b"gMark: Schema-Driven Generation of Graphs and Queries (ICDE 2017).".to_vec();
        let inputs = [vec![0u8; 64], small, random, text];
        let start = Fnv64::new().finish();
        for input in &inputs {
            for len in 0..=input.len().min(64) {
                let bytes = &input[..len];
                let expected = fnv_bytewise(start, bytes);
                let mut h = Fnv64::new();
                h.update(bytes);
                assert_eq!(h.finish(), expected, "{bytes:?}");
                for split in 0..=len {
                    let mut h = Fnv64::new();
                    h.update(&bytes[..split]);
                    h.update(&bytes[split..]);
                    assert_eq!(h.finish(), expected, "{bytes:?} split at {split}");
                }
            }
        }
    }

    #[test]
    fn fnv_strings_is_domain_separated() {
        let hash = |parts: &[&str]| {
            let mut h = Fnv64::new();
            let owned: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
            fnv_strings(&mut h, &owned);
            h.finish()
        };
        assert_ne!(hash(&["ab", "c"]), hash(&["a", "bc"]));
        assert_ne!(hash(&["ab"]), hash(&["ab", ""]));
    }

    #[test]
    fn page_align_rounds_up() {
        assert_eq!(page_align(0, 4096), 0);
        assert_eq!(page_align(1, 4096), 4096);
        assert_eq!(page_align(4096, 4096), 4096);
        assert_eq!(page_align(4097, 4096), 8192);
    }
}
