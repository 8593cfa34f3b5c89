//! End-to-end pipeline tests: XML configuration → graph generation →
//! workload generation → translation → evaluation (the full Fig. 1
//! workflow of the paper).

use gmark::config::{parse_config, write_config};
use gmark::prelude::*;
use gmark::translate::{translate_all, Syntax};

const CONFIG: &str = r#"
<generator>
  <graph>
    <nodes>800</nodes>
    <types>
      <type name="researcher" proportion="0.5"/>
      <type name="paper" proportion="0.3"/>
      <type name="conference" proportion="0.2"/>
      <type name="city" fixed="20"/>
    </types>
    <predicates>
      <predicate name="authors"/>
      <predicate name="publishedIn"/>
      <predicate name="heldIn"/>
    </predicates>
    <constraints>
      <constraint source="researcher" predicate="authors" target="paper">
        <indistribution type="gaussian" mu="3" sigma="1"/>
        <outdistribution type="zipfian" s="2.5"/>
      </constraint>
      <constraint source="paper" predicate="publishedIn" target="conference">
        <outdistribution type="uniform" min="1" max="1"/>
      </constraint>
      <constraint source="conference" predicate="heldIn" target="city">
        <indistribution type="zipfian" s="2.5"/>
        <outdistribution type="uniform" min="1" max="1"/>
      </constraint>
    </constraints>
  </graph>
  <workload size="12" seed="11">
    <arity>2</arity>
    <shape>chain</shape>
    <selectivity>constant</selectivity>
    <selectivity>linear</selectivity>
    <selectivity>quadratic</selectivity>
    <conjuncts min="1" max="2"/>
    <length min="1" max="3"/>
  </workload>
</generator>"#;

#[test]
fn xml_to_graph_to_workload_to_answers() {
    // The full Fig. 1 workflow through the unified pipeline API: one plan
    // from XML, one in-memory run, everything evaluated downstream.
    let plan = RunPlan::from_xml(CONFIG).expect("config parses");
    let arts = run_in_memory(&plan, &RunOptions::with_seed(5)).expect("pipeline runs");
    let gsum = arts.summary.graph.as_ref().expect("graph generated");
    assert!(
        gsum.report.total_edges > 100,
        "edges: {}",
        gsum.report.total_edges
    );
    let graph = arts.graph.expect("graph materialized");
    assert_eq!(graph.node_count(), 820); // 0.5+0.3+0.2 of 800 + 20 fixed
    assert_eq!(gsum.nodes_realized, 820);

    let workload = arts.workload.expect("workload materialized");
    let wsum = arts.summary.workload.as_ref().expect("workload generated");
    assert_eq!(workload.queries.len(), 12);
    // --seed 5 overrides the XML's seed=11 in the plan's options…
    assert_eq!(wsum.seed, 5);
    assert_eq!(wsum.report.unsatisfied_selectivity, 0);
    let schema = &plan.graph.schema;

    // Every query translates to all four syntaxes and evaluates on at
    // least two engines with identical counts.
    let ctx = EvalContext::new(&graph);
    for gq in &workload.queries {
        let translations = translate_all(&gq.query, schema).expect("translates");
        assert_eq!(translations.len(), 4);
        for (syntax, text) in &translations {
            assert!(!text.trim().is_empty(), "{syntax} produced empty text");
        }
        let a = EngineKind::Relational
            .evaluate(&ctx, &gq.query, None, &Budget::default())
            .expect("relational evaluation");
        let b = EngineKind::TripleStore
            .evaluate(&ctx, &gq.query, None, &Budget::default())
            .expect("triplestore evaluation");
        assert_eq!(a.count(), b.count(), "count mismatch on {:?}", gq.query);
    }
}

#[test]
fn config_round_trip_preserves_generation() {
    let parsed = parse_config(CONFIG).expect("config parses");
    let rewritten = write_config(&parsed.graph, parsed.workload.as_ref());
    let reparsed = parse_config(&rewritten).expect("rewritten config parses");
    assert_eq!(parsed.graph, reparsed.graph);
    // Graphs generated from both configurations are identical.
    let (g1, r1) = generate_graph(&parsed.graph, &GeneratorOptions::with_seed(9));
    let (g2, r2) = generate_graph(&reparsed.graph, &GeneratorOptions::with_seed(9));
    assert_eq!(r1.total_edges, r2.total_edges);
    for p in 0..g1.predicate_count() {
        assert_eq!(
            g1.edges(p).collect::<Vec<_>>(),
            g2.edges(p).collect::<Vec<_>>()
        );
    }
}

#[test]
fn ntriples_round_trip_through_store() {
    let parsed = parse_config(CONFIG).expect("config parses");
    let schema = &parsed.graph.schema;
    let mut buffer = Vec::new();
    {
        let mut writer = gmark::store::NTriplesWriter::new(&mut buffer, schema.predicate_names());
        gmark::core::generate_into(&parsed.graph, &GeneratorOptions::with_seed(5), &mut writer);
        writer.finish().expect("flush");
    }
    let triples = gmark::store::read_ntriples(buffer.as_slice(), &schema.predicate_names())
        .expect("read back");
    // Same number of triples as a counting run.
    let mut counter = gmark::store::CountingSink::new(schema.predicate_count());
    gmark::core::generate_into(&parsed.graph, &GeneratorOptions::with_seed(5), &mut counter);
    assert_eq!(triples.len() as u64, counter.total());
}

#[test]
fn translations_are_deterministic() {
    let parsed = parse_config(CONFIG).expect("config parses");
    let (workload, _) = generate_workload_with_threads(
        &parsed.graph.schema,
        &parsed.workload.expect("workload"),
        1,
    )
    .expect("workload generates");
    for gq in &workload.queries {
        for syntax in Syntax::ALL {
            let a = gmark::translate::translate(&gq.query, &parsed.graph.schema, syntax);
            let b = gmark::translate::translate(&gq.query, &parsed.graph.schema, syntax);
            assert_eq!(a, b);
        }
    }
}
