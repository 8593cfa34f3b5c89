//! Plan equivalence: the two roads to a [`RunPlan`] — parsing
//! `examples/configs/bib.xml` and building the same scenario with the
//! fluent builder — must produce **bit-identical** graph and workload
//! bytes through a `MemorySink`, at every thread count.
//!
//! This is the load-bearing guarantee of the typed-plan API: the XML
//! front-end is pure surface; all semantics (constraint declaration
//! order, seeds, RNG splitting) live in the plan.

use gmark::prelude::*;
use gmark::run::{run, Artifact, MemorySink, RunOptions, RunPlan};
use std::path::{Path, PathBuf};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// `examples/configs/bib.xml`, transcribed with the fluent builder in the
/// exact declaration order of the XML (constraint order is the RNG-stream
/// key, so it is part of the scenario's identity).
fn bib_xml_plan_via_builder() -> RunPlan {
    let mut b = SchemaBuilder::new();
    let researcher = b.node_type("researcher", Occurrence::Proportion(0.5));
    let paper = b.node_type("paper", Occurrence::Proportion(0.3));
    let journal = b.node_type("journal", Occurrence::Proportion(0.1));
    let conference = b.node_type("conference", Occurrence::Proportion(0.1));
    let city = b.node_type("city", Occurrence::Fixed(100));

    let authors = b.predicate("authors", Some(Occurrence::Proportion(0.5)));
    let published_in = b.predicate("publishedIn", Some(Occurrence::Proportion(0.3)));
    let held_in = b.predicate("heldIn", Some(Occurrence::Proportion(0.1)));
    let extended_to = b.predicate("extendedTo", Some(Occurrence::Proportion(0.1)));

    b.edge(
        researcher,
        authors,
        paper,
        Distribution::gaussian(3.0, 1.0),
        Distribution::zipfian(2.5),
    );
    b.edge(
        paper,
        published_in,
        conference,
        Distribution::NonSpecified,
        Distribution::uniform(1, 1),
    );
    b.edge(
        conference,
        held_in,
        city,
        Distribution::zipfian(2.5),
        Distribution::uniform(1, 1),
    );
    b.edge(
        paper,
        extended_to,
        journal,
        Distribution::NonSpecified,
        Distribution::uniform(0, 1),
    );
    let schema = b.build().expect("bib.xml schema is well-formed");

    let mut wcfg = WorkloadConfig::new(12).with_seed(42);
    wcfg.recursion_probability = 0.2;
    wcfg.query_size = QuerySize {
        conjuncts: (1, 3),
        disjuncts: (1, 2),
        length: (1, 3),
    };

    RunPlan::builder(schema)
        .nodes(10_000)
        .workload(wcfg)
        .build()
        .expect("builder plan is valid")
}

fn run_to_memory(plan: &RunPlan, opts: &RunOptions) -> MemorySink {
    let mut sink = MemorySink::new();
    run(plan, opts, &mut sink).expect("pipeline runs");
    sink
}

const COMPARED: [Artifact; 6] = [
    Artifact::Graph,
    Artifact::Rules,
    Artifact::Sparql,
    Artifact::Cypher,
    Artifact::Sql,
    Artifact::Datalog,
];

#[test]
fn xml_plan_and_builder_plan_produce_bit_identical_artifacts() {
    let from_xml =
        RunPlan::from_config_file(repo_path("examples/configs/bib.xml")).expect("bib.xml parses");
    let from_builder = bib_xml_plan_via_builder();
    // No seed override: the graph uses the generator default, the
    // workload its configured seed (42 in both plans).
    let opts = RunOptions::default().threads(2);

    let a = run_to_memory(&from_xml, &opts);
    let b = run_to_memory(&from_builder, &opts);
    for artifact in COMPARED {
        let xml_bytes = a.bytes(artifact).unwrap_or_default();
        let builder_bytes = b.bytes(artifact).unwrap_or_default();
        assert!(
            !xml_bytes.is_empty(),
            "{artifact}: XML plan produced nothing"
        );
        assert_eq!(
            xml_bytes, builder_bytes,
            "{artifact}: XML-parsed and builder-built plans diverge"
        );
    }
    let sa = a.summary().expect("summary stored");
    let sb = b.summary().expect("summary stored");
    assert_eq!(
        sa.graph.as_ref().unwrap().report.constraints,
        sb.graph.as_ref().unwrap().report.constraints
    );
    assert_eq!(
        sa.workload.as_ref().unwrap().report.produced,
        sb.workload.as_ref().unwrap().report.produced
    );
}

#[test]
fn equivalence_holds_at_every_thread_count_and_in_streamed_mode() {
    let from_xml =
        RunPlan::from_config_file(repo_path("examples/configs/bib.xml")).expect("bib.xml parses");
    let from_builder = bib_xml_plan_via_builder();
    for (threads, stream) in [(1usize, false), (8, false), (4, true)] {
        let opts = RunOptions::default().threads(threads).stream(stream);
        let a = run_to_memory(&from_xml, &opts);
        let b = run_to_memory(&from_builder, &opts);
        for artifact in COMPARED {
            assert_eq!(
                a.bytes(artifact),
                b.bytes(artifact),
                "{artifact} diverges at threads={threads} stream={stream}"
            );
        }
    }
}

#[test]
fn seed_override_pins_both_plans_to_the_same_bytes() {
    // An explicit seed overrides the workload's configured seed in both
    // plan flavors identically.
    let from_xml =
        RunPlan::from_config_file(repo_path("examples/configs/bib.xml")).expect("bib.xml parses");
    let from_builder = bib_xml_plan_via_builder();
    let opts = RunOptions::with_seed(0xFEED).threads(2);
    let a = run_to_memory(&from_xml, &opts);
    let b = run_to_memory(&from_builder, &opts);
    for artifact in COMPARED {
        assert_eq!(a.bytes(artifact), b.bytes(artifact), "{artifact}");
    }
    // And the override actually changed the workload relative to seed 42.
    let base = run_to_memory(&from_xml, &RunOptions::default().threads(2));
    assert_ne!(
        base.bytes(Artifact::Rules),
        a.bytes(Artifact::Rules),
        "seed override had no effect"
    );
}
