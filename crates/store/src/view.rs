//! [`GraphView`]: one read interface over the in-memory CSR
//! [`Graph`] and the on-disk paged [`StoreReader`].
//!
//! Every consumer of graph topology — the evaluation context's symbol
//! relations, the planner's statistics, the run pipeline — goes through
//! this enum, so the same query code serves both a fully materialized
//! graph and a store file. The view offers counts and each symbol's
//! [`Csr`]; it has no point lookup, because the engines read adjacency
//! from those CSRs. The facade is infallible like `&Graph` always was:
//! the paged variant validates structure when the store is opened, and a
//! post-validation I/O failure (disk yanked mid-scan) panics with the
//! store's error message rather than threading `Result` through every
//! consumer.

use crate::paged::StoreReader;
use crate::{Csr, Graph, NodeId, PredIdx};

/// A borrowed, `Copy` view over graph topology — either the in-memory
/// CSR or a paged on-disk store.
///
/// `EvalContext::new` accepts `impl Into<GraphView<'g>>`, so `&Graph` and
/// `&StoreReader` both slot in.
#[derive(Debug, Clone, Copy)]
pub enum GraphView<'g> {
    /// The fully materialized CSR graph.
    InMemory(&'g Graph),
    /// A paged on-disk store, read through [`StoreReader`].
    Paged(&'g StoreReader),
}

impl<'g> From<&'g Graph> for GraphView<'g> {
    fn from(g: &'g Graph) -> Self {
        GraphView::InMemory(g)
    }
}

impl<'g> From<&'g StoreReader> for GraphView<'g> {
    fn from(r: &'g StoreReader) -> Self {
        GraphView::Paged(r)
    }
}

impl<'g> GraphView<'g> {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> NodeId {
        match self {
            GraphView::InMemory(g) => g.node_count(),
            GraphView::Paged(r) => r.node_count(),
        }
    }

    /// Number of predicates (edge labels) in Σ.
    #[inline]
    pub fn predicate_count(&self) -> usize {
        match self {
            GraphView::InMemory(g) => g.predicate_count(),
            GraphView::Paged(r) => r.predicate_count(),
        }
    }

    /// Total number of edges across all predicates.
    #[inline]
    pub fn edge_count(&self) -> usize {
        match self {
            GraphView::InMemory(g) => g.edge_count(),
            GraphView::Paged(r) => r.edge_count() as usize,
        }
    }

    /// Number of edges of one predicate.
    #[inline]
    pub fn edge_count_for(&self, pred: PredIdx) -> usize {
        match self {
            GraphView::InMemory(g) => g.edge_count_for(pred),
            GraphView::Paged(r) => r.edge_count_for(pred),
        }
    }

    /// The CSR of one `Σ±` symbol: the in-memory graph's forward or
    /// backward CSR, cloned, or one sequential scan of the store's segment,
    /// whose pairs come in ascending order ([`Csr::from_sorted_pairs`]).
    pub fn csr(&self, pred: PredIdx, inverse: bool) -> Csr {
        match self {
            GraphView::InMemory(g) if inverse => g.backward(pred).clone(),
            GraphView::InMemory(g) => g.forward(pred).clone(),
            GraphView::Paged(r) => Csr::from_sorted_pairs(r.pairs(pred, inverse)),
        }
    }
}
