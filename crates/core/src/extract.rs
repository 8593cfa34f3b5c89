//! Schema extraction from an existing graph instance.
//!
//! The paper's concluding remarks envision "the query workload generation in
//! gMark applied to real graph data sets on top of which a schema extraction
//! tool has been run beforehand". This module is that tool for gMark's own
//! graph model: given a typed graph, it recovers a [`GraphConfig`] —
//! occurrence constraints per type and fitted degree distributions per
//! `(source type, predicate, target type)` — which can then drive
//! [`crate::workload::generate_workload_with_threads`] or regenerate similar synthetic
//! graphs.
//!
//! Distribution fitting is a heuristic classifier (uniform / Gaussian /
//! Zipfian) based on moments: a point mass or a flat, narrow histogram is
//! uniform; a heavy right tail (high coefficient of variation with a
//! max ≫ mean) is Zipfian with a Hill-style exponent estimate; anything
//! else is Gaussian.

use crate::schema::{Distribution, GraphConfig, Occurrence, SchemaBuilder};
use gmark_store::Graph;

/// Options for [`extract_config`].
#[derive(Debug, Clone)]
pub struct ExtractOptions {
    /// Types whose node count is at most this many nodes — or at most
    /// `fixed_fraction` of the graph — are given `Fixed` occurrence
    /// constraints (they "do not grow with the graph").
    pub fixed_threshold: u64,
    /// See `fixed_threshold`.
    pub fixed_fraction: f64,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions {
            fixed_threshold: 128,
            fixed_fraction: 0.01,
        }
    }
}

/// Extracts a graph configuration from a typed graph instance.
///
/// `type_names` and `predicate_names` give the vocabulary (lengths must
/// match the graph's partition and predicate count).
pub fn extract_config(
    graph: &Graph,
    type_names: &[String],
    predicate_names: &[String],
    opts: &ExtractOptions,
) -> GraphConfig {
    let partition = graph.partition();
    assert_eq!(
        type_names.len(),
        partition.type_count(),
        "type name count mismatch"
    );
    assert_eq!(
        predicate_names.len(),
        graph.predicate_count(),
        "predicate name count mismatch"
    );
    let n = graph.node_count() as u64;
    let mut b = SchemaBuilder::new();
    let mut type_ids = Vec::with_capacity(type_names.len());
    for (t, name) in type_names.iter().enumerate() {
        let count = partition.count(t) as u64;
        let occ = if count <= opts.fixed_threshold
            || (n > 0 && (count as f64 / n as f64) <= opts.fixed_fraction)
        {
            Occurrence::Fixed(count)
        } else {
            Occurrence::Proportion((count as f64 / n.max(1) as f64).clamp(1e-9, 1.0))
        };
        type_ids.push(b.node_type(name, occ));
    }
    let mut pred_ids = Vec::with_capacity(predicate_names.len());
    for name in predicate_names {
        pred_ids.push(b.predicate(name, None));
    }

    // Split each predicate's edges by (source type, target type) and fit
    // degree distributions on each block.
    #[allow(clippy::needless_range_loop)]
    for pred in 0..graph.predicate_count() {
        use std::collections::BTreeMap;
        let mut blocks: BTreeMap<(usize, usize), Vec<(u32, u32)>> = BTreeMap::new();
        for (s, t) in graph.edges(pred) {
            let st = partition.type_of(s);
            let tt = partition.type_of(t);
            blocks.entry((st, tt)).or_default().push((s, t));
        }
        for ((st, tt), edges) in blocks {
            let n_src = partition.count(st) as usize;
            let n_trg = partition.count(tt) as usize;
            let mut out_deg = vec![0usize; n_src];
            let mut in_deg = vec![0usize; n_trg];
            let src_base = partition.range(st).start;
            let trg_base = partition.range(tt).start;
            for (s, t) in edges {
                out_deg[(s - src_base) as usize] += 1;
                in_deg[(t - trg_base) as usize] += 1;
            }
            let dout = classify_degrees(&out_deg);
            let din = classify_degrees(&in_deg);
            b.edge(type_ids[st], pred_ids[pred], type_ids[tt], din, dout);
        }
    }
    GraphConfig::new(n, b.build().expect("extracted schema is well-formed"))
}

/// Classifies a degree sequence as uniform, Gaussian, or Zipfian.
pub fn classify_degrees(degrees: &[usize]) -> Distribution {
    if degrees.is_empty() {
        return Distribution::NonSpecified;
    }
    let min = *degrees.iter().min().expect("non-empty") as u64;
    let max = *degrees.iter().max().expect("non-empty") as u64;
    if min == max {
        return Distribution::uniform(min, max);
    }
    let n = degrees.len() as f64;
    let mean = degrees.iter().sum::<usize>() as f64 / n;
    let var = degrees
        .iter()
        .map(|&d| (d as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    let sd = var.sqrt();
    let cv = if mean > 0.0 { sd / mean } else { f64::INFINITY };

    // Heavy right tail ⇒ Zipfian. A Zipf degree sequence has its maximum
    // far above its mean and a large coefficient of variation.
    if cv > 1.5 && (max as f64) > 8.0 * mean.max(1.0) {
        return Distribution::zipfian(estimate_zipf_exponent(degrees));
    }

    // Flat narrow histogram ⇒ uniform: variance matches the discrete
    // uniform variance ((w² - 1) / 12 for width w) within 30%.
    let w = (max - min + 1) as f64;
    let uniform_var = (w * w - 1.0) / 12.0;
    if uniform_var > 0.0 && (var - uniform_var).abs() / uniform_var < 0.3 {
        return Distribution::uniform(min, max);
    }

    Distribution::gaussian(mean, sd)
}

/// Hill-style estimate of the Zipf exponent from the upper tail of the
/// degree sequence, clamped to a practical range.
fn estimate_zipf_exponent(degrees: &[usize]) -> f64 {
    let mut tail: Vec<f64> = degrees
        .iter()
        .filter(|&&d| d >= 1)
        .map(|&d| d as f64)
        .collect();
    if tail.len() < 4 {
        return 2.5;
    }
    tail.sort_by(|a, b| b.partial_cmp(a).expect("degrees are finite"));
    let k = (tail.len() / 10).clamp(2, 200);
    let x_k = tail[k - 1];
    let hill: f64 = tail[..k].iter().map(|&x| (x / x_k).ln()).sum::<f64>() / k as f64;
    if hill <= 0.0 {
        return 2.5;
    }
    // Hill estimates the tail index γ of P(X > x) ~ x^-γ; for a Zipf pmf
    // with exponent s over ranks, degree tails give s ≈ 1 + 1/γ…1/γ + 1
    // depending on the sampling regime. Use s = 1 + 1/hill, clamped.
    (1.0 + 1.0 / hill).clamp(1.2, 4.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_graph, GeneratorOptions};
    use crate::schema::{Distribution, Occurrence, SchemaBuilder};
    use gmark_stats::{DegreeSampler, Prng, Zipf};

    #[test]
    fn classify_point_mass() {
        assert_eq!(classify_degrees(&[3, 3, 3, 3]), Distribution::uniform(3, 3));
    }

    #[test]
    fn classify_flat_uniform() {
        let mut rng = Prng::seed_from_u64(1);
        let degrees: Vec<usize> = (0..5000)
            .map(|_| rng.range_inclusive(2, 9) as usize)
            .collect();
        match classify_degrees(&degrees) {
            Distribution::Uniform { min, max } => {
                assert_eq!((min, max), (2, 9));
            }
            other => panic!("expected uniform, got {other:?}"),
        }
    }

    #[test]
    fn classify_gaussian() {
        let g = gmark_stats::Gaussian::new(20.0, 3.0);
        let mut rng = Prng::seed_from_u64(2);
        let degrees: Vec<usize> = (0..5000).map(|_| g.sample(&mut rng) as usize).collect();
        match classify_degrees(&degrees) {
            Distribution::Gaussian { mu, sigma } => {
                assert!((mu - 20.0).abs() < 1.0, "mu {mu}");
                assert!((sigma - 3.0).abs() < 1.0, "sigma {sigma}");
            }
            other => panic!("expected gaussian, got {other:?}"),
        }
    }

    #[test]
    fn classify_zipf() {
        let z = Zipf::new(100_000, 2.0);
        let mut rng = Prng::seed_from_u64(3);
        let degrees: Vec<usize> = (0..20_000).map(|_| z.sample(&mut rng) as usize).collect();
        match classify_degrees(&degrees) {
            Distribution::Zipfian { s } => {
                assert!((1.2..=4.0).contains(&s), "s {s}");
            }
            other => panic!("expected zipfian, got {other:?}"),
        }
    }

    #[test]
    fn classify_empty_is_nonspecified() {
        assert_eq!(classify_degrees(&[]), Distribution::NonSpecified);
    }

    fn source_schema() -> crate::schema::Schema {
        let mut b = SchemaBuilder::new();
        let big = b.node_type("big", Occurrence::Proportion(0.6));
        let other = b.node_type("other", Occurrence::Proportion(0.4));
        let small = b.node_type("small", Occurrence::Fixed(40));
        let p = b.predicate("p", None);
        let q = b.predicate("q", None);
        b.edge(
            big,
            p,
            other,
            Distribution::NonSpecified,
            Distribution::zipfian(2.0),
        );
        b.edge(
            other,
            q,
            small,
            Distribution::NonSpecified,
            Distribution::uniform(1, 1),
        );
        b.build().unwrap()
    }

    #[test]
    fn extraction_round_trip() {
        let schema = source_schema();
        let cfg = crate::schema::GraphConfig::new(20_000, schema.clone());
        let (graph, _) = generate_graph(&cfg, &GeneratorOptions::with_seed(7));
        let extracted = extract_config(
            &graph,
            &["big".into(), "other".into(), "small".into()],
            &["p".into(), "q".into()],
            &ExtractOptions::default(),
        );
        let s = &extracted.schema;
        assert_eq!(s.type_count(), 3);
        // small is fixed; big/other are proportional with ~right shares.
        let small = s.type_by_name("small").unwrap();
        assert_eq!(s.type_constraint(small), Occurrence::Fixed(40));
        let big = s.type_by_name("big").unwrap();
        match s.type_constraint(big) {
            Occurrence::Proportion(prop) => assert!((prop - 0.6).abs() < 0.02, "prop {prop}"),
            other => panic!("expected proportion, got {other:?}"),
        }
        // p out-degrees were Zipfian and must be re-detected as such.
        let p_constraint = s
            .constraints()
            .iter()
            .find(|c| s.predicate_name(c.predicate) == "p")
            .expect("p constraint extracted");
        assert!(
            p_constraint.dout.is_zipfian(),
            "p out-distribution should be Zipf, got {:?}",
            p_constraint.dout
        );
        // q out-degrees were exactly-one.
        let q_constraint = s
            .constraints()
            .iter()
            .find(|c| s.predicate_name(c.predicate) == "q")
            .expect("q constraint extracted");
        assert_eq!(q_constraint.dout, Distribution::uniform(1, 1));
    }

    #[test]
    fn extracted_config_can_regenerate() {
        let schema = source_schema();
        let cfg = crate::schema::GraphConfig::new(5_000, schema);
        let (graph, _) = generate_graph(&cfg, &GeneratorOptions::with_seed(8));
        let extracted = extract_config(
            &graph,
            &["big".into(), "other".into(), "small".into()],
            &["p".into(), "q".into()],
            &ExtractOptions::default(),
        );
        let (g2, report) = generate_graph(&extracted, &GeneratorOptions::with_seed(9));
        assert!(report.total_edges > 0);
        // Edge volume should be in the same ballpark (within 2x).
        let ratio = g2.edge_count() as f64 / graph.edge_count() as f64;
        assert!((0.5..2.0).contains(&ratio), "edge ratio {ratio}");
    }
}
