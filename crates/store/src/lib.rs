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
//!   [`StoreReader`]): each [`Csr`] persisted as it is, page-aligned, and
//!   loaded back whole by two positioned reads ([`StoreReader::csr`]).
//!   Evaluation from a store holds every symbol relation a query mentions
//!   in RAM, so its memory grows with those relations, not with the file,
//! * [`view`] — [`GraphView`], the common read interface over [`Graph`]
//!   and [`StoreReader`]: counts and each symbol's CSR,
//!   from which the evaluation context builds its symbol relations.

#![warn(missing_docs)]

pub mod emit;
pub mod graph;
pub mod ntriples;
pub mod paged;
pub mod sink;
pub mod view;

pub use emit::{
    ordered_map, resolve_threads, ClaimSource, Counter, EmitStats, Group, Grouped, Lane,
    OrderedEmitter,
};
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
