//! Streaming edge sinks.
//!
//! The generation algorithm of Fig. 5 "outputs" edges one at a time; routing
//! that stream through a trait keeps generation independent from storage, so
//! the same generator can build an in-memory [`crate::Graph`], count edges for
//! the scalability study (Table 3 measures generation without retaining the
//! graph), or serialize N-Triples directly to disk.

use crate::{NodeId, PredIdx};

/// Receives the `(source, label, target)` stream produced by the generator.
pub trait EdgeSink {
    /// Accepts one generated edge.
    fn edge(&mut self, src: NodeId, pred: PredIdx, trg: NodeId);
}

/// Counts edges (total and per predicate) without storing them.
#[derive(Debug, Default, Clone)]
pub struct CountingSink {
    per_pred: Vec<u64>,
    total: u64,
}

impl CountingSink {
    /// Creates a counter for `predicate_count` labels.
    pub fn new(predicate_count: usize) -> Self {
        CountingSink {
            per_pred: vec![0; predicate_count],
            total: 0,
        }
    }

    /// Total edges seen.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Edges seen for one predicate.
    pub fn count_for(&self, pred: PredIdx) -> u64 {
        self.per_pred[pred]
    }
}

impl EdgeSink for CountingSink {
    #[inline]
    fn edge(&mut self, _src: NodeId, pred: PredIdx, _trg: NodeId) {
        self.per_pred[pred] += 1;
        self.total += 1;
    }
}

/// Collects the raw triples into a vector (mainly for tests).
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    /// The collected `(source, predicate, target)` triples.
    pub triples: Vec<(NodeId, PredIdx, NodeId)>,
}

impl EdgeSink for VecSink {
    #[inline]
    fn edge(&mut self, src: NodeId, pred: PredIdx, trg: NodeId) {
        self.triples.push((src, pred, trg));
    }
}

impl<S: EdgeSink + ?Sized> EdgeSink for &mut S {
    #[inline]
    fn edge(&mut self, src: NodeId, pred: PredIdx, trg: NodeId) {
        (**self).edge(src, pred, trg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_counts() {
        let mut c = CountingSink::new(2);
        c.edge(0, 0, 1);
        c.edge(1, 0, 2);
        c.edge(2, 1, 0);
        assert_eq!(c.total(), 3);
        assert_eq!(c.count_for(0), 2);
        assert_eq!(c.count_for(1), 1);
    }

    #[test]
    fn vec_sink_preserves_order() {
        let mut v = VecSink::default();
        v.edge(5, 1, 6);
        v.edge(7, 0, 8);
        assert_eq!(v.triples, vec![(5, 1, 6), (7, 0, 8)]);
    }

    #[test]
    fn mut_ref_is_a_sink() {
        fn feed<S: EdgeSink>(mut s: S) {
            s.edge(0, 0, 1);
        }
        let mut c = CountingSink::new(1);
        feed(&mut c);
        assert_eq!(c.total(), 1);
    }
}
