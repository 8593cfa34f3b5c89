//! Criterion microbenchmarks for query evaluation (Fig. 12 / Table 4
//! companions): per-engine latency on one query of each selectivity class,
//! plus the selectivity-estimation machinery itself (which the paper
//! requires to be cheap enough to run at workload-generation time).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gmark_core::gen::{generate_graph, GeneratorOptions};
use gmark_core::schema::GraphConfig;
use gmark_core::selectivity::graph::{SchemaGraph, SelectivityGraph};
use gmark_core::selectivity::{Estimator, SelectivityClass};
use gmark_core::usecases;
use gmark_core::workload::{generate_workload, WorkloadConfig};
use gmark_engines::{Budget, EngineKind, EvalContext};
use std::hint::black_box;
use std::time::Duration;

fn engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engines");
    group.measurement_time(Duration::from_secs(8));
    let schema = usecases::bib();
    let config = GraphConfig::new(2_000, schema.clone());
    let (graph, _) = generate_graph(&config, &GeneratorOptions::with_seed(5));
    let (workload, _) = generate_workload(&schema, &WorkloadConfig::new(3).with_seed(6)).unwrap();
    // One shared context — the benchmark measures the per-query hot path,
    // not per-query index rebuilds.
    let ctx = EvalContext::new(&graph);
    for class in SelectivityClass::ALL {
        let Some(gq) = workload.of_class(class).next() else {
            continue;
        };
        for kind in EngineKind::ALL {
            group.bench_function(
                BenchmarkId::new(kind.name().replace('/', "_"), class.to_string()),
                |b| {
                    b.iter(|| {
                        let budget = Budget::default();
                        black_box(
                            kind.evaluate(&ctx, &gq.query, None, &budget)
                                .map(|a| a.count()),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

fn selectivity_machinery(c: &mut Criterion) {
    let mut group = c.benchmark_group("selectivity");
    for (name, schema) in usecases::all() {
        group.bench_function(BenchmarkId::new("schema_graph_build", name), |b| {
            b.iter(|| black_box(SchemaGraph::build(&schema).len()))
        });
        let gs = SchemaGraph::build(&schema);
        group.bench_function(BenchmarkId::new("gsel_build_1_4", name), |b| {
            b.iter(|| {
                let gsel = SelectivityGraph::build(&gs, 1, 4);
                black_box(gsel.length_interval())
            })
        });
        group.bench_function(BenchmarkId::new("distance_matrix", name), |b| {
            b.iter(|| black_box(gs.distance_matrix().len()))
        });
        // Whole-query estimation cost.
        let (workload, _) =
            generate_workload(&schema, &WorkloadConfig::new(3).with_seed(9)).unwrap();
        let est = Estimator::new(&schema);
        group.bench_function(BenchmarkId::new("estimate_alpha", name), |b| {
            b.iter(|| {
                for gq in &workload.queries {
                    black_box(est.alpha(&gq.query));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, engines, selectivity_machinery);
criterion_main!(benches);
