//! The motivating example of Section 3.1, built from scratch with the
//! schema-builder API (rather than the canned `usecases::bib()`), written
//! to and re-read from the XML configuration format, run through the
//! unified pipeline (graph in memory for inspection, N-Triples through a
//! [`MemorySink`](gmark::run::MemorySink)), and checked against the
//! degree-distribution intent of Fig. 2(c).
//!
//! ```sh
//! cargo run --release --example bibliographical [-- --threads N]
//! ```

use gmark::config::{parse_config, write_config};
use gmark::prelude::*;

/// `--threads N` from argv (generation is bit-identical at any count).
fn threads_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn main() -> Result<(), GmarkError> {
    // Fig. 2(a)/(b): occurrence constraints; Fig. 2(c): distributions.
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

    // "the number of authors on papers follows a Gaussian distribution …
    // whereas the number of papers authored by a researcher follows a
    // Zipfian"
    b.edge(
        researcher,
        authors,
        paper,
        Distribution::gaussian(3.0, 1.0),
        Distribution::zipfian(2.5),
    );
    // "a paper is published in exactly one conference"
    b.edge(
        paper,
        published_in,
        conference,
        Distribution::gaussian(3.0, 1.0),
        Distribution::uniform(1, 1),
    );
    // "a paper can be extended or not to a journal"
    b.edge(
        paper,
        extended_to,
        journal,
        Distribution::gaussian(2.0, 1.0),
        Distribution::uniform(0, 1),
    );
    // "a conference is held in exactly one city, the number of conferences
    // per city follows a Zipfian distribution"
    b.edge(
        conference,
        held_in,
        city,
        Distribution::zipfian(2.5),
        Distribution::uniform(1, 1),
    );
    let schema = b.build().expect("well-formed schema");

    let config = GraphConfig::new(20_000, schema.clone());

    // Round-trip through the XML configuration format (Fig. 1's input) —
    // a plan parsed back from the written XML describes the same scenario.
    let xml = write_config(&config, None);
    println!("=== XML configuration ===\n{xml}");
    let reparsed = parse_config(&xml).expect("round trip");
    assert_eq!(reparsed.graph, config);
    let plan_from_xml = RunPlan::from_xml(&xml)?;
    assert_eq!(plan_from_xml.graph, config);

    // Generate and inspect through the pipeline API.
    let plan = RunPlan::builder(schema.clone()).nodes(20_000).build()?;
    let opts = RunOptions::with_seed(2024).threads(threads_from_args());
    let arts = run_in_memory(&plan, &opts)?;
    let graph = arts.graph.expect("plan generates a graph");
    println!(
        "generated {} nodes / {} edges",
        graph.node_count(),
        arts.summary.graph.as_ref().unwrap().report.total_edges
    );

    // Check the Fig. 2(c) intent on the instance.
    let city_t = schema.type_by_name("city").unwrap();
    let held_in_p = schema.predicate_by_name("heldIn").unwrap();
    let conf_per_city = graph.in_degrees(held_in_p.0, city_t.0);
    let max = conf_per_city.iter().max().copied().unwrap_or(0);
    let mean = conf_per_city.iter().sum::<usize>() as f64 / conf_per_city.len() as f64;
    println!(
        "conferences per city: mean {mean:.1}, max {max} (Zipfian skew: hub city \
         hosts {:.0}x the average)",
        max as f64 / mean.max(1e-9)
    );

    let paper_t = schema.type_by_name("paper").unwrap();
    let pub_p = schema.predicate_by_name("publishedIn").unwrap();
    let out = graph.out_degrees(pub_p.0, paper_t.0);
    let exactly_one = out.iter().filter(|&&d| d == 1).count();
    println!(
        "papers with exactly one conference: {exactly_one}/{} ({:.1}%)",
        out.len(),
        100.0 * exactly_one as f64 / out.len() as f64
    );

    // Export a small instance as N-Triples (the data format of Fig. 1)
    // through a MemorySink — the same bytes a DirSink would put in
    // graph.nt.
    let small = RunPlan::builder(schema.clone()).nodes(50).build()?;
    let mut sink = MemorySink::new();
    run(&small, &RunOptions::with_seed(2024), &mut sink)?;
    let text = String::from_utf8(sink.bytes(Artifact::Graph).expect("graph written")).unwrap();
    println!("\n=== first N-Triples of a 50-node instance ===");
    for line in text.lines().take(8) {
        println!("{line}");
    }

    // Schema extraction (the concluding-remarks extension): recover a
    // configuration from the generated instance.
    let type_names: Vec<String> = schema
        .types()
        .map(|t| schema.type_name(t).to_owned())
        .collect();
    let extracted = gmark::core::extract::extract_config(
        &graph,
        &type_names,
        &schema.predicate_names(),
        &gmark::core::extract::ExtractOptions::default(),
    );
    println!("\n=== extracted schema (from the instance) ===");
    for c in extracted.schema.constraints() {
        println!(
            "  {} --{}--> {}: in {} / out {}",
            extracted.schema.type_name(c.source),
            extracted.schema.predicate_name(c.predicate),
            extracted.schema.type_name(c.target),
            c.din,
            c.dout,
        );
    }
    Ok(())
}
