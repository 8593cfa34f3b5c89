//! Property-based tests for the graph store: CSR construction agrees with
//! a naive adjacency model, on the hull of its sources as everywhere else,
//! the type partition is self-consistent, and the paged [`StoreReader`] is
//! observationally equivalent to the in-RAM CSR.

use gmark_store::{
    Csr, EdgeSink, GraphBuilder, NodeId, StoreMeta, StoreReader, StoreWriter, TypePartition,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

proptest! {
    #[test]
    fn csr_matches_naive_adjacency(
        n in 1u32..40,
        edges in prop::collection::vec((0u32..40, 0u32..40), 0..200),
    ) {
        let edges: Vec<(NodeId, NodeId)> =
            edges.into_iter().map(|(s, t)| (s % n, t % n)).collect();
        let csr = Csr::from_edges(edges.iter().copied());
        let mut naive: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
        for &(s, t) in &edges {
            naive.entry(s).or_default().insert(t);
        }
        for v in 0..n {
            let expected: Vec<NodeId> =
                naive.get(&v).map(|s| s.iter().copied().collect()).unwrap_or_default();
            prop_assert_eq!(csr.neighbors(v), expected.as_slice());
            prop_assert_eq!(csr.degree(v), expected.len());
            for w in 0..n {
                prop_assert_eq!(csr.contains(v, w), expected.contains(&w));
            }
        }
        let total: usize = (0..n).map(|v| csr.degree(v)).sum();
        prop_assert_eq!(csr.edge_count(), total);
    }

    #[test]
    fn hull_csr_matches_a_btreeset_reference(
        n in 0u32..40,
        src_range in (0u32..40, 0u32..40),
        trg_range in (0u32..40, 0u32..40),
        raw in prop::collection::vec((any::<u32>(), any::<u32>(), 1usize..4), 0..120),
        lone in (any::<bool>(), any::<bool>()),
    ) {
        // Sources and targets confined to sub-ranges, every pair repeated
        // up to three times, and optionally lone edges at both ends.
        let mut edges = Vec::new();
        if n > 0 {
            let (src, trg) = (confined(n, src_range), confined(n, trg_range));
            for &(x, y, reps) in &raw {
                edges.extend(std::iter::repeat_n((src(x), trg(y)), reps));
            }
            if lone.0 {
                edges.push((0, n - 1));
            }
            if lone.1 {
                edges.push((n - 1, 0));
            }
        }
        if let Err(what) = check_hull_csr(n, &edges) {
            return Err(TestCaseError::fail(what));
        }
    }

    #[test]
    fn partition_type_of_is_inverse_of_ranges(counts in prop::collection::vec(0u64..50, 1..10)) {
        let p = TypePartition::from_counts(&counts);
        prop_assert_eq!(p.node_count() as u64, counts.iter().sum::<u64>());
        for (t, &expected) in counts.iter().enumerate().take(p.type_count()) {
            for v in p.range(t) {
                prop_assert_eq!(p.type_of(v), t);
            }
            prop_assert_eq!(p.count(t) as u64, expected);
        }
    }

    #[test]
    fn forward_and_backward_are_transposes(
        n in 1u32..30,
        edges in prop::collection::vec((0u32..30, 0u32..30), 0..150),
    ) {
        let edges: Vec<(NodeId, NodeId)> =
            edges.into_iter().map(|(s, t)| (s % n, t % n)).collect();
        let mut b = GraphBuilder::new(TypePartition::from_counts(&[n as u64]), 1);
        for &(s, t) in &edges {
            b.edge(s, 0, t);
        }
        let g = b.build();
        for v in 0..n {
            for &w in g.out_neighbors(0, v) {
                prop_assert!(g.in_neighbors(0, w).contains(&v));
            }
            for &u in g.in_neighbors(0, v) {
                prop_assert!(g.out_neighbors(0, u).contains(&v));
            }
        }
        prop_assert_eq!(g.forward(0).edge_count(), g.backward(0).edge_count());
    }

    #[test]
    fn ntriples_round_trip_hostile_predicate_names(
        raw_names in prop::collection::vec("\\PC{1,8}", 1..5),
        edges in prop::collection::vec((0u32..50, 0usize..5, 0u32..50), 0..60),
    ) {
        // Arbitrary printable unicode — spaces, '>', '%', emoji — suffixed
        // with the index so names stay distinct (the reader resolves
        // predicates by name).
        let names: Vec<String> = raw_names
            .iter()
            .enumerate()
            .map(|(i, n)| format!("{n}{i}"))
            .collect();
        let mut buf = Vec::new();
        let written: Vec<(NodeId, usize, NodeId)> = {
            let mut w = gmark_store::NTriplesWriter::new(&mut buf, names.clone());
            let mut out = Vec::new();
            for &(s, p, t) in &edges {
                let p = p % names.len();
                w.edge(s, p, t);
                out.push((s, p, t));
            }
            w.finish().unwrap();
            out
        };
        // Hostile names must never leak illegal bytes into the IRIs.
        let text = std::str::from_utf8(&buf).unwrap();
        for line in text.lines() {
            prop_assert!(line.is_ascii(), "non-ASCII line: {}", line);
            prop_assert_eq!(line.split_whitespace().count(), 4, "line: {}", line);
        }
        let back = gmark_store::read_ntriples(buf.as_slice(), &names).unwrap();
        prop_assert_eq!(back, written);
    }

    #[test]
    fn push_line_equals_the_format_reference(
        raw_names in prop::collection::vec("[ -~éµ]{1,8}", 1..4),
        raw_base in "[ -~é]{0,12}",
        edges in prop::collection::vec((any::<u32>(), 0usize..4, any::<u32>()), 1..40),
    ) {
        // The kernel against what `writeln!` used to render, for hostile
        // predicate names, a custom (hostile) base and the full id range.
        let base = format!("http://ex.org/{raw_base}");
        let format = gmark_store::NTriplesFormat::new(&raw_names, &base);
        let escaped = gmark_store::ntriples::encode_iri_base(base.trim_end_matches('/'));
        let mut got = Vec::new();
        let mut expected = String::new();
        for &(s, p, t) in &edges {
            let p = p % raw_names.len();
            format.push_line(&mut got, s, p, t);
            let name = gmark_store::ntriples::encode_segment(&raw_names[p]);
            expected.push_str(&format!(
                "<{escaped}/node/{s}> <{escaped}/pred/{name}> <{escaped}/node/{t}> .\n"
            ));
        }
        prop_assert_eq!(String::from_utf8(got).unwrap(), expected);
    }

    #[test]
    fn ntriples_round_trip_arbitrary_edges(
        n in 1u32..30,
        edges in prop::collection::vec((0u32..30, 0usize..2, 0u32..30), 0..80),
    ) {
        let names = vec!["alpha".to_owned(), "beta".to_owned()];
        let mut buf = Vec::new();
        let written: Vec<(NodeId, usize, NodeId)> = {
            let mut w = gmark_store::NTriplesWriter::new(&mut buf, names.clone());
            let mut out = Vec::new();
            for &(s, p, t) in &edges {
                let (s, t) = (s % n, t % n);
                w.edge(s, p, t);
                out.push((s, p, t));
            }
            w.finish().unwrap();
            out
        };
        let back = gmark_store::read_ntriples(buf.as_slice(), &names).unwrap();
        prop_assert_eq!(back, written);
    }
}

proptest! {
    /// `from_edges` keeps each distinct pair once, whichever way a run is
    /// deduplicated. Sources and targets lie in a hull of at most 300 ids,
    /// at 0, in the low thousands, or ending at `u32::MAX`, and each pair
    /// is repeated up to five times. The targets' bitset then has one to
    /// five words (given at least as many pairs): a run with fewer distinct
    /// targets than words sorts them, a run with more reads them back out
    /// of the bitset. With `wide`, two
    /// more pairs put targets at 0 and at `u32::MAX`; a bitset over that
    /// hull would have 2^26 words, more than there are pairs, so every run
    /// is sorted and compacted instead.
    #[test]
    fn from_edges_equals_a_btreeset_reference(
        low in prop_oneof![Just(0u32), 0u32..5000, Just(u32::MAX - 299)],
        width in prop_oneof![1u32..=64, 1u32..=300],
        raw in prop::collection::vec((0u32..300, 0u32..300, 1usize..6), 0..150),
        wide in any::<bool>(),
    ) {
        let mut edges = Vec::new();
        for &(s, t, reps) in &raw {
            edges.extend(std::iter::repeat_n((low + s % width, low + t % width), reps));
        }
        if wide {
            edges.extend([(low, 0), (low + (width - 1), u32::MAX)]);
        }
        let reference: BTreeSet<(NodeId, NodeId)> = edges.iter().copied().collect();
        let csr = Csr::from_edges(edges.iter().copied());
        prop_assert!(csr.iter_edges().eq(reference.iter().copied()));
        prop_assert_eq!(
            (csr.base(), csr.offsets().len()),
            hull_of(reference.iter().map(|&(s, _)| s))
        );
    }

    // `target_hull` reads the targets' hull off the run ends of
    // `from_edges`' CSR: the smallest id range holding every target.
    #[test]
    fn target_hull_is_read_off_the_run_ends(
        low in prop_oneof![Just(0u32), 0u32..5000, Just(u32::MAX - 299)],
        width in prop_oneof![1u32..=64, 1u32..=300],
        raw in prop::collection::vec((0u32..300, 0u32..300), 0..150),
    ) {
        let edges: Vec<(NodeId, NodeId)> =
            raw.iter().map(|&(s, t)| (low + s % width, low + t % width)).collect();
        let csr = Csr::from_edges(edges.iter().copied());
        let (lo, span) = hull_of(edges.iter().map(|&(_, t)| t));
        let hull = if edges.is_empty() { (0, 0) } else { (lo, span - 1) };
        prop_assert_eq!(csr.target_hull(), hull);
    }
}

proptest! {
    // Each case writes and reads back a real file; fewer cases keep the
    // suite fast while still sweeping graph shapes and page layouts.
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The paged StoreReader is observationally equivalent to the in-RAM
    // CSR Graph it was written from: neighbors and each loaded CSR agree
    // in both directions for every predicate — including
    // predicates with no edges at all — and hostile percent-encoded
    // predicate names survive the header name table byte-for-byte.
    #[test]
    fn store_reader_matches_the_in_memory_graph(
        counts in prop::collection::vec(1u64..12, 1..4),
        raw_names in prop::collection::vec("[a-z%/ 0-9]{1,6}", 1..4),
        edges in prop::collection::vec((0u32..30, 0usize..8, 0u32..30), 0..120),
        ranges in prop::collection::vec(((0u32..30, 0u32..30), (0u32..30, 0u32..30)), 8),
        seed in any::<u64>(),
    ) {
        // The body lives in a plain fn: the proptest! macro's expansion
        // depth scales with statement count and blows the recursion limit.
        if let Err(what) = check_store_matches_graph(&counts, &raw_names, &edges, &ranges, seed) {
            return Err(TestCaseError::fail(what));
        }
    }
}

type Ends = (NodeId, NodeId);

/// Maps any value into the sub-range of `0..n` (`n > 0`) that `range`'s
/// two ends, taken modulo `n`, delimit.
fn confined(n: NodeId, range: Ends) -> impl Fn(NodeId) -> NodeId {
    let (a, b) = (range.0 % n, range.1 % n);
    let (lo, hi) = (a.min(b), a.max(b));
    move |x| lo + x % (hi - lo + 1)
}

fn ensure(ok: bool, what: impl Fn() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// `(base, span + 1)`: where the hull of `keys` starts and how many
/// offsets it takes.
fn hull_of(keys: impl Iterator<Item = NodeId> + Clone) -> (NodeId, usize) {
    match (keys.clone().min(), keys.max()) {
        (Some(lo), Some(hi)) => (lo, (hi - lo) as usize + 2),
        _ => (0, 1),
    }
}

/// Compares the CSR of `edges` over `n` nodes, and its transpose, with a
/// `BTreeSet` of the distinct pairs. Returns the first divergence.
fn check_hull_csr(n: NodeId, edges: &[(NodeId, NodeId)]) -> Result<(), String> {
    let csr = Csr::from_edges(edges.iter().copied());
    let reference: BTreeSet<(NodeId, NodeId)> = edges.iter().copied().collect();
    let succ = |v: NodeId| -> Vec<NodeId> {
        reference
            .range((v, 0)..=(v, NodeId::MAX))
            .map(|&(_, t)| t)
            .collect()
    };
    for v in 0..n + 2 {
        let expected = succ(v);
        ensure(csr.neighbors(v) == expected.as_slice(), || {
            format!("neighbors({v})")
        })?;
        ensure(csr.degree(v) == expected.len(), || format!("degree({v})"))?;
        for w in 0..n {
            ensure(csr.contains(v, w) == expected.contains(&w), || {
                format!("contains({v}, {w})")
            })?;
        }
    }
    ensure(csr.edge_count() == reference.len(), || "edge_count".into())?;
    ensure(csr.iter_edges().eq(reference.iter().copied()), || {
        "iter_edges".into()
    })?;
    let (base, entries) = hull_of(reference.iter().map(|&(s, _)| s));
    ensure((csr.base(), csr.offsets().len()) == (base, entries), || {
        format!(
            "hull {:?} != {:?}",
            (csr.base(), csr.offsets().len()),
            (base, entries)
        )
    })?;
    // The same arrays over all of `0..n`, empty runs at both ends kept.
    let offsets = (0..=n)
        .map(|v| reference.range(..(v, 0)).count() as u32)
        .collect();
    let targets = reference.iter().map(|&(_, t)| t).collect();
    ensure(Csr::from_parts(0, offsets, targets) == csr, || {
        "from_parts".into()
    })?;
    let flipped: Vec<_> = edges.iter().map(|&(s, t)| (t, s)).collect();
    let transposed = csr.transpose();
    ensure(transposed == Csr::from_edges(flipped), || {
        "transpose".into()
    })?;
    let (base, entries) = hull_of(reference.iter().map(|&(_, t)| t));
    ensure(
        (transposed.base(), transposed.offsets().len()) == (base, entries),
        || "transpose hull".into(),
    )
}

/// Builds the same graph in RAM and on disk, then compares every
/// observable: neighbors, and the whole CSR (base, offsets, targets) in
/// both directions for every predicate. Returns a description of the first divergence.
///
/// Predicate `p`'s sources and targets are confined to the sub-ranges
/// `ranges[p]`, so most segments cover an interior run of nodes.
fn check_store_matches_graph(
    counts: &[u64],
    raw_names: &[String],
    edges: &[(NodeId, usize, NodeId)],
    ranges: &[(Ends, Ends)],
    seed: u64,
) -> Result<(), String> {
    // One predicate beyond the edge range guarantees an always-empty
    // segment; the rest may or may not receive edges.
    let mut names: Vec<String> = raw_names
        .iter()
        .enumerate()
        .map(|(i, n)| format!("{n}%2F{i}"))
        .collect();
    names.push("never%20used".to_owned());
    let partition = TypePartition::from_counts(counts);
    let n = partition.node_count();
    let mut b = GraphBuilder::new(partition.clone(), names.len());
    for &(s, p, t) in edges {
        let p = p % (names.len() - 1);
        let (src, trg) = (confined(n, ranges[p].0), confined(n, ranges[p].1));
        b.edge(src(s), p, trg(t));
    }
    let g = b.build();

    let dir = std::env::temp_dir().join(format!("gstore-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.gstore");
    let meta = StoreMeta {
        seed,
        schema_hash: seed.rotate_left(17),
        page_size: 64, // smallest legal page: segments span many pages
        predicate_names: names.clone(),
        partition,
    };
    let info = StoreWriter::write_graph(&path, &meta, &g).map_err(|e| e.to_string())?;
    ensure(info.edges == g.edge_count() as u64, || {
        format!("info.edges {} != graph {}", info.edges, g.edge_count())
    })?;

    let r = StoreReader::open(&path).map_err(|e| e.to_string())?;
    r.verify().map_err(|e| e.to_string())?;
    ensure(r.node_count() == g.node_count(), || "node_count".into())?;
    ensure(r.edge_count() == g.edge_count() as u64, || {
        "edge_count".into()
    })?;
    ensure(r.seed() == seed, || "seed".into())?;
    ensure(r.predicate_names() == names.as_slice(), || {
        format!("names {:?} != {:?}", r.predicate_names(), names)
    })?;
    for pred in 0..names.len() {
        ensure(r.edge_count_for(pred) == g.edge_count_for(pred), || {
            format!("edge_count_for({pred})")
        })?;
        for inverse in [false, true] {
            for v in 0..n {
                let paged = r.neighbors(pred, v, inverse).map_err(|e| e.to_string())?;
                ensure(paged == g.neighbors(pred, v, inverse), || {
                    format!("neighbors pred {pred} inverse {inverse} node {v}")
                })?;
            }
            // Base, offsets and targets: the segment is the CSR as it is.
            let paged = r.csr(pred, inverse).map_err(|e| e.to_string())?;
            let in_ram = if inverse {
                g.backward(pred)
            } else {
                g.forward(pred)
            };
            ensure(&paged == in_ram, || {
                format!("csr pred {pred} inverse {inverse}")
            })?;
        }
    }
    // The last predicate never received an edge.
    ensure(r.edge_count_for(names.len() - 1) == 0, || {
        "empty predicate gained edges".into()
    })?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// The default CSR is the empty one: offsets `[0]`, so every lookup reads
/// an empty run.
#[test]
fn the_default_csr_is_empty() {
    let empty = Csr::default();
    assert_eq!(empty, Csr::from_edges([]));
    assert_eq!(empty, Csr::from_parts(5, vec![0, 0, 0], Vec::new()));
    assert_eq!((empty.base(), empty.offsets()), (0, &[0][..]));
    for v in [0, 1, NodeId::MAX] {
        assert!(empty.neighbors(v).is_empty());
    }
    assert_eq!(empty.iter_edges().count(), 0);
}
