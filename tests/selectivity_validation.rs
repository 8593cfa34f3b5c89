//! The paper's central scientific claim, as a test (Section 6.2, Table 2):
//! queries generated for a selectivity class really exhibit that class's
//! growth exponent when evaluated on generated instances of growing size.
//!
//! The full sweep is reproduced by `cargo run -p gmark-bench --bin table2`;
//! this test runs a scaled-down version (three sizes, one use case per
//! class check) so the invariant is guarded by `cargo test`.

use gmark::prelude::*;
use gmark::stats::log_log_alpha;

/// Measures the α exponent of one query across graphs of growing size,
/// or returns the failure that stopped it.
fn measure_alpha(graphs: &[(u64, Graph)], query: &Query) -> Result<f64, EvalError> {
    let mut observations = Vec::with_capacity(graphs.len());
    for (n, graph) in graphs {
        let answers = EngineKind::TripleStore.evaluate(
            &EvalContext::new(graph),
            query,
            None,
            &Budget::default(),
        )?;
        observations.push((*n, answers.count()));
    }
    Ok(log_log_alpha(&observations).expect("two sizes or more").0)
}

#[test]
fn bib_selectivity_classes_hold_empirically() {
    let schema = gmark::core::usecases::bib();
    let graphs: Vec<(u64, Graph)> = [1_000, 2_000, 4_000, 8_000]
        .into_iter()
        .map(|n| {
            let config = GraphConfig::new(n, schema.clone());
            (
                n,
                generate_graph(&config, &GeneratorOptions::with_seed(101)).0,
            )
        })
        .collect();
    let mut wcfg = WorkloadConfig::new(9).with_seed(23);
    wcfg.query_size.conjuncts = (1, 2);
    let (workload, report) =
        generate_workload_with_threads(&schema, &wcfg, 1).expect("workload generates");
    assert_eq!(report.unsatisfied_selectivity, 0);

    // Table 2 reports class *means* (individual queries scatter — the
    // paper's own constant rows reach 0.2±0.42); check the means separate
    // cleanly, plus loose per-query sanity bounds. A query whose
    // evaluation fails is dropped, and every message names how many were.
    let mut sums = std::collections::HashMap::new();
    let mut checked = 0;
    let mut dropped = Vec::new();
    for gq in &workload.queries {
        let Some(target) = gq.target else { continue };
        let alpha = match measure_alpha(&graphs, &gq.query) {
            Ok(alpha) => alpha,
            Err(e) => {
                dropped.push(format!("{target}: {e}"));
                continue;
            }
        };
        assert!(
            (-0.3..2.5).contains(&alpha),
            "alpha {alpha:.2} out of physical range for {}",
            gq.query.display(&schema)
        );
        let entry = sums.entry(target).or_insert((0.0f64, 0u32));
        entry.0 += alpha;
        entry.1 += 1;
        checked += 1;
    }
    let dropped = format!("{} dropped {dropped:?}", dropped.len());
    assert!(
        checked >= 6,
        "too few queries measured: {checked}, {dropped}"
    );
    let mean = |class: SelectivityClass| -> f64 {
        let (s, n) = sums.get(&class).copied().unwrap_or((0.0, 0));
        if n == 0 {
            f64::NAN
        } else {
            s / n as f64
        }
    };
    let (c, l, q) = (
        mean(SelectivityClass::Constant),
        mean(SelectivityClass::Linear),
        mean(SelectivityClass::Quadratic),
    );
    assert!(c < 0.7, "constant class mean drifted: {c:.2}, {dropped}");
    assert!(
        (0.4..1.6).contains(&l),
        "linear class mean drifted: {l:.2}, {dropped}"
    );
    assert!(q > 1.2, "quadratic class mean drifted: {q:.2}, {dropped}");
    // The classes must be ordered as the paper's Table 2 shows.
    assert!(
        c < l && l < q,
        "class means must order: {c:.2} < {l:.2} < {q:.2}, {dropped}"
    );
}

#[test]
fn estimator_alpha_matches_generated_targets_across_usecases() {
    // The static estimate α̂ (no graphs involved) must equal the target
    // class for every selectivity-controlled query on every use case.
    for (name, schema) in gmark::core::usecases::all() {
        let (workload, _) =
            generate_workload_with_threads(&schema, &WorkloadConfig::new(12).with_seed(31), 1)
                .expect("workload generates");
        for gq in &workload.queries {
            if let (Some(target), Some(alpha)) = (gq.target, gq.estimated_alpha) {
                assert_eq!(
                    alpha,
                    target.alpha(),
                    "{name}: estimator disagrees on {}",
                    gq.query.display(&schema)
                );
            }
        }
    }
}

#[test]
fn quadratic_queries_return_more_results_than_constant() {
    // Fig. 11's qualitative shape: at a fixed size, result counts order as
    // constant ≤ linear ≤ quadratic (checked on class means).
    let schema = gmark::core::usecases::bib();
    let config = GraphConfig::new(4_000, schema.clone());
    let (graph, _) = generate_graph(&config, &GeneratorOptions::with_seed(7));
    let (workload, _) =
        generate_workload_with_threads(&schema, &WorkloadConfig::new(9).with_seed(37), 1)
            .expect("workload generates");
    let ctx = EvalContext::new(&graph);
    // A query whose evaluation fails is dropped from its class's mean, and
    // the message names how many were, per class, and why.
    let mut dropped = Vec::new();
    let mut mean_count = |class: SelectivityClass| -> f64 {
        let mut counts = Vec::new();
        let mut failed = Vec::new();
        for gq in workload.of_class(class) {
            match EngineKind::TripleStore.evaluate(&ctx, &gq.query, None, &Budget::default()) {
                Ok(answers) => counts.push(answers.count()),
                Err(e) => failed.push(e.to_string()),
            }
        }
        dropped.push(format!("{class}: {} dropped {failed:?}", failed.len()));
        counts.iter().sum::<u64>() as f64 / counts.len().max(1) as f64
    };
    let c = mean_count(SelectivityClass::Constant);
    let q = mean_count(SelectivityClass::Quadratic);
    assert!(
        q > 10.0 * (c + 1.0),
        "quadratic mean {q:.0} should dwarf constant mean {c:.0}; {}",
        dropped.join(", ")
    );
}
