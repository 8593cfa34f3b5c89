//! Graph storage substrate for gMark.
//!
//! The paper generates *directed edge-labeled graphs* whose nodes carry
//! exactly one type (Definition 3.1). This crate provides:
//!
//! * [`Graph`] — an immutable, per-predicate CSR (compressed sparse row)
//!   representation with both forward and backward adjacency, plus the
//!   contiguous node-type partition the generator lays out,
//! * [`GraphBuilder`] — the mutable accumulator the generator streams edges
//!   into (Fig. 5 outputs a set of `(source, label, target)` triples),
//! * [`EdgeSink`] — the streaming abstraction that lets the generator write
//!   edges to a builder, a counter, or an N-Triples file without
//!   materializing the graph (needed for the Table 3 scalability runs),
//! * [`ntriples`] — the N-Triples writer/reader mentioned in Section 1.1
//!   ("including N-triples for data"); predicate names are percent-encoded
//!   on write and decoded on read, so hostile schema alphabets still
//!   produce valid RDF,
//! * [`emit`] — the one fan-out every parallel stage goes through:
//!   [`ordered_map`] (ordered values) and [`OrderedEmitter`] (ordered
//!   bytes: many workers write one document, units drain in ascending
//!   order, without a temp file) on one spawn/join core, with one
//!   thread-count policy, [`resolve_threads`]. The determinism argument,
//!   the emitter's progress argument and its memory bound are documented
//!   on the module,
//! * [`paged`] — the on-disk `gmark-store` binary format ([`StoreWriter`] /
//!   [`StoreReader`]): the same CSR arrays persisted page-aligned, served by
//!   positioned reads through a bounded page cache so evaluation runs at
//!   beyond-RAM scale; a point lookup takes the cache lock once and
//!   decodes into a caller's buffer ([`StoreReader::neighbors_into`]),
//! * [`view`] — [`GraphView`], the common read interface the evaluation
//!   engines use so one code path serves both [`Graph`] and
//!   [`StoreReader`]: `GraphView::neighbors` borrows the CSR slice in RAM
//!   and fills the caller's buffer when paged.

#![warn(missing_docs)]

pub mod emit;
pub mod graph;
pub mod ntriples;
pub mod paged;
pub mod sink;
pub mod view;

pub use emit::{ordered_map, resolve_threads, EmitStats, Lane, OrderedEmitter};
pub use graph::{Csr, Graph, GraphBuilder, TypePartition};
pub use ntriples::{read_ntriples, NTriplesFormat, NTriplesWriter};
pub use paged::{StoreError, StoreInfo, StoreMeta, StoreReader, StoreWriter, DEFAULT_PAGE_SIZE};
pub use sink::{CountingSink, EdgeSink, VecSink};
pub use view::GraphView;

/// Node identifier. `u32` bounds graphs at ~4.29 B nodes, comfortably above
/// the paper's largest instance (100 M nodes, Table 3).
pub type NodeId = u32;

/// Predicate (edge label) index into the schema's alphabet Σ.
pub type PredIdx = usize;
