//! The four evaluation scenarios of Section 6.1.
//!
//! * [`bib`] — the default bibliographical scenario of the motivating
//!   example (Section 3.1, Fig. 2): researchers author papers published in
//!   conferences held in cities, papers optionally extended to journals.
//! * [`lsn`] — the gMark encoding of the LDBC Social Network Benchmark
//!   schema: user activity in a social network.
//! * [`sp`] — the gMark encoding of the DBLP-based SP²Bench schema.
//! * [`wd`] — the gMark encoding of the WatDiv default schema (users and
//!   products). WD is deliberately much denser than the other scenarios —
//!   the paper observes WD instances carry about two orders of magnitude
//!   more edges than Bib instances of the same node count, which dominates
//!   its generation time in Table 3.
//!
//! These encodings capture each benchmark's key characteristics (node
//! types, edge labels, associations, degree distributions); features gMark
//! deliberately does not support (subtyping, hard-coded correlations) are
//! not encoded, exactly as in the paper.

use crate::schema::{Distribution, Occurrence, Schema, SchemaBuilder};

/// The default bibliographical use case (Fig. 2).
///
/// Node types: `researcher` 50%, `paper` 30%, `journal` 10%, `conference`
/// 10%, `city` fixed at 100. Degree distributions follow Fig. 2(c):
/// the number of authors per paper is Gaussian while papers per researcher
/// is Zipfian; each paper appears in exactly one conference; a paper may be
/// extended to a journal; each conference is held in exactly one city with
/// a Zipfian number of conferences per city.
pub fn bib() -> Schema {
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

    // researcher --authors--> paper: in Gaussian, out Zipfian.
    b.edge(
        researcher,
        authors,
        paper,
        Distribution::gaussian(3.0, 1.0),
        Distribution::zipfian(2.5),
    );
    // paper --publishedIn--> conference: in Gaussian, out uniform [1,1].
    b.edge(
        paper,
        published_in,
        conference,
        Distribution::gaussian(3.0, 1.0),
        Distribution::uniform(1, 1),
    );
    // paper --extendedTo--> journal: in Gaussian, out uniform [0,1].
    b.edge(
        paper,
        extended_to,
        journal,
        Distribution::gaussian(2.0, 1.0),
        Distribution::uniform(0, 1),
    );
    // conference --heldIn--> city: in Zipfian, out uniform [1,1].
    b.edge(
        conference,
        held_in,
        city,
        Distribution::zipfian(2.5),
        Distribution::uniform(1, 1),
    );

    b.build().expect("bib schema is well-formed")
}

/// The LDBC Social Network encoding (`LSN`).
///
/// Persons know each other along power-law in- and out-distributions — the
/// paper's canonical quadratic-selectivity example (the transitive closure
/// of `knows` is quadratic, Section 5.2.1). Content (posts, comments) hangs
/// off persons and forums; tags, cities, companies, and universities are
/// fixed-size dimension types enabling constant-selectivity queries.
pub fn lsn() -> Schema {
    let mut b = SchemaBuilder::new();
    let person = b.node_type("person", Occurrence::Proportion(0.3));
    let forum = b.node_type("forum", Occurrence::Proportion(0.1));
    let post = b.node_type("post", Occurrence::Proportion(0.35));
    let comment = b.node_type("comment", Occurrence::Proportion(0.25));
    let tag = b.node_type("tag", Occurrence::Fixed(100));
    let city = b.node_type("city", Occurrence::Fixed(50));
    let company = b.node_type("company", Occurrence::Fixed(30));
    let university = b.node_type("university", Occurrence::Fixed(20));

    let knows = b.predicate("knows", None);
    let has_interest = b.predicate("hasInterest", None);
    let has_moderator = b.predicate("hasModerator", None);
    let container_of = b.predicate("containerOf", None);
    let has_creator = b.predicate("hasCreator", None);
    let likes = b.predicate("likes", None);
    let reply_of = b.predicate("replyOf", None);
    let is_located_in = b.predicate("isLocatedIn", None);
    let study_at = b.predicate("studyAt", None);
    let work_at = b.predicate("workAt", None);
    let has_tag = b.predicate("hasTag", None);

    // The social graph: power law both ways.
    b.edge(
        person,
        knows,
        person,
        Distribution::zipfian(2.5),
        Distribution::zipfian(2.5),
    );
    b.edge(
        person,
        has_interest,
        tag,
        Distribution::zipfian(2.0),
        Distribution::gaussian(5.0, 2.0),
    );
    b.edge(
        forum,
        has_moderator,
        person,
        Distribution::NonSpecified,
        Distribution::uniform(1, 1),
    );
    // Each post lives in exactly one forum; forum sizes are power-law.
    b.edge(
        forum,
        container_of,
        post,
        Distribution::uniform(1, 1),
        Distribution::zipfian(2.0),
    );
    b.edge(
        post,
        has_creator,
        person,
        Distribution::zipfian(2.0),
        Distribution::uniform(1, 1),
    );
    b.edge(
        comment,
        has_creator,
        person,
        Distribution::zipfian(2.0),
        Distribution::uniform(1, 1),
    );
    b.edge(
        person,
        likes,
        post,
        Distribution::zipfian(2.0),
        Distribution::gaussian(10.0, 5.0),
    );
    b.edge(
        comment,
        reply_of,
        post,
        Distribution::zipfian(2.0),
        Distribution::uniform(1, 1),
    );
    b.edge(
        person,
        is_located_in,
        city,
        Distribution::NonSpecified,
        Distribution::uniform(1, 1),
    );
    b.edge(
        person,
        study_at,
        university,
        Distribution::NonSpecified,
        Distribution::uniform(0, 1),
    );
    b.edge(
        person,
        work_at,
        company,
        Distribution::NonSpecified,
        Distribution::uniform(0, 1),
    );
    b.edge(
        post,
        has_tag,
        tag,
        Distribution::zipfian(2.0),
        Distribution::gaussian(2.0, 1.0),
    );

    b.build().expect("lsn schema is well-formed")
}

/// The SP²Bench/DBLP encoding (`SP`).
///
/// Articles and inproceedings with Zipfian authorship (prolific authors),
/// exactly-one venue membership, editorship, and a power-law citation
/// graph. `journal` is modeled as a fixed-size type (100 journals) so the
/// scenario exposes constant-selectivity queries, mirroring the fixed
/// document-class structure of DBLP.
pub fn sp() -> Schema {
    let mut b = SchemaBuilder::new();
    let person = b.node_type("person", Occurrence::Proportion(0.3));
    let article = b.node_type("article", Occurrence::Proportion(0.3));
    let inproceedings = b.node_type("inproceedings", Occurrence::Proportion(0.25));
    let proceedings = b.node_type("proceedings", Occurrence::Proportion(0.15));
    let journal = b.node_type("journal", Occurrence::Fixed(100));

    let creator = b.predicate("creator", None);
    let cites = b.predicate("cites", None);
    let part_of = b.predicate("partOf", None);
    let booktitle = b.predicate("booktitle", None);
    let editor = b.predicate("editor", None);

    // article --creator--> person: ~3 authors per paper, Zipfian output
    // per person (prolific authors).
    b.edge(
        article,
        creator,
        person,
        Distribution::zipfian(2.0),
        Distribution::gaussian(3.0, 1.0),
    );
    b.edge(
        inproceedings,
        creator,
        person,
        Distribution::zipfian(2.0),
        Distribution::gaussian(3.0, 1.0),
    );
    // Citation graph: power law in both directions.
    b.edge(
        article,
        cites,
        article,
        Distribution::zipfian(2.0),
        Distribution::zipfian(2.5),
    );
    // Venue membership: exactly one venue per paper.
    b.edge(
        article,
        part_of,
        journal,
        Distribution::gaussian(25.0, 10.0),
        Distribution::uniform(1, 1),
    );
    b.edge(
        inproceedings,
        booktitle,
        proceedings,
        Distribution::gaussian(30.0, 10.0),
        Distribution::uniform(1, 1),
    );
    // proceedings --editor--> person.
    b.edge(
        proceedings,
        editor,
        person,
        Distribution::zipfian(2.5),
        Distribution::gaussian(2.0, 1.0),
    );

    b.build().expect("sp schema is well-formed")
}

/// The WatDiv default-schema encoding (`WD`): users and products.
///
/// Substantially denser than the other scenarios (high-mean Gaussian
/// out-degrees on `likes`, `friendOf`, and `purchases`), reproducing the
/// paper's observation that WD generation is dominated by edge volume
/// (Table 3) and that WD instances carry orders of magnitude more edges
/// than Bib at equal node counts.
pub fn wd() -> Schema {
    let mut b = SchemaBuilder::new();
    let user = b.node_type("user", Occurrence::Proportion(0.4));
    let product = b.node_type("product", Occurrence::Proportion(0.3));
    let review = b.node_type("review", Occurrence::Proportion(0.3));
    let retailer = b.node_type("retailer", Occurrence::Fixed(50));
    let genre = b.node_type("genre", Occurrence::Fixed(25));
    let city = b.node_type("city", Occurrence::Fixed(100));

    let follows = b.predicate("follows", None);
    let friend_of = b.predicate("friendOf", None);
    let likes = b.predicate("likes", None);
    let purchases = b.predicate("purchases", None);
    let makes_review = b.predicate("makesReview", None);
    let reviews_product = b.predicate("reviewsProduct", None);
    let has_genre = b.predicate("hasGenre", None);
    let sells = b.predicate("sells", None);
    let located_in = b.predicate("locatedIn", None);

    // Dense social layer.
    b.edge(
        user,
        follows,
        user,
        Distribution::zipfian(1.8),
        Distribution::zipfian(1.8),
    );
    b.edge(
        user,
        friend_of,
        user,
        Distribution::gaussian(40.0, 10.0),
        Distribution::gaussian(40.0, 10.0),
    );
    // Dense engagement layer. The in-side is left non-specified so the
    // high-mean out-degrees are fully realized (the source of WD's
    // order-of-magnitude edge-density gap vs. Bib).
    b.edge(
        user,
        likes,
        product,
        Distribution::NonSpecified,
        Distribution::gaussian(60.0, 20.0),
    );
    b.edge(
        user,
        purchases,
        product,
        Distribution::NonSpecified,
        Distribution::gaussian(30.0, 10.0),
    );
    // Reviews: one author per review, one product per review.
    b.edge(
        user,
        makes_review,
        review,
        Distribution::uniform(1, 1),
        Distribution::zipfian(2.0),
    );
    b.edge(
        review,
        reviews_product,
        product,
        Distribution::zipfian(2.0),
        Distribution::uniform(1, 1),
    );
    // Dimensions.
    b.edge(
        product,
        has_genre,
        genre,
        Distribution::NonSpecified,
        Distribution::gaussian(2.0, 1.0),
    );
    b.edge(
        retailer,
        sells,
        product,
        Distribution::gaussian(2.0, 1.0),
        Distribution::NonSpecified,
    );
    b.edge(
        user,
        located_in,
        city,
        Distribution::NonSpecified,
        Distribution::uniform(1, 1),
    );

    b.build().expect("wd schema is well-formed")
}

/// Looks up a use case by its paper name (`bib`, `lsn`, `sp`, `wd`).
pub fn by_name(name: &str) -> Option<Schema> {
    match name.to_ascii_lowercase().as_str() {
        "bib" => Some(bib()),
        "lsn" => Some(lsn()),
        "sp" => Some(sp()),
        "wd" => Some(wd()),
        _ => None,
    }
}

/// All use cases with their paper names, in the paper's order.
pub fn all() -> Vec<(&'static str, Schema)> {
    vec![("Bib", bib()), ("LSN", lsn()), ("SP", sp()), ("WD", wd())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_graph, GeneratorOptions};
    use crate::schema::GraphConfig;
    use crate::selectivity::graph::{ChainSampler, SchemaGraph, SelectivityGraph};
    use crate::selectivity::SelectivityClass;
    use crate::workload::{generate_workload_with_threads, WorkloadConfig};

    #[test]
    fn bib_matches_fig_2() {
        let s = bib();
        // 5 node types and 4 edge predicates (Section 3.1).
        assert_eq!(s.type_count(), 5);
        assert_eq!(s.predicate_count(), 4);
        // city is the fixed type (100 nodes).
        let city = s.type_by_name("city").unwrap();
        assert_eq!(s.type_constraint(city), Occurrence::Fixed(100));
        assert!(!s.type_grows(city));
        // researcher is 50% of nodes.
        let researcher = s.type_by_name("researcher").unwrap();
        assert_eq!(s.type_constraint(researcher), Occurrence::Proportion(0.5));
    }

    #[test]
    fn all_usecases_build_and_have_fixed_types() {
        for (name, schema) in all() {
            assert!(schema.type_count() >= 5, "{name} too small");
            assert!(
                schema.types().any(|t| !schema.type_grows(t)),
                "{name} needs a fixed type for constant-selectivity queries"
            );
            assert!(
                schema.types().any(|t| schema.type_grows(t)),
                "{name} needs growing types"
            );
        }
    }

    #[test]
    fn all_usecases_generate_graphs() {
        for (name, schema) in all() {
            let cfg = GraphConfig::new(2_000, schema);
            let (g, report) = generate_graph(&cfg, &GeneratorOptions::with_seed(42));
            assert!(
                g.node_count() >= 1_900,
                "{name}: node count {}",
                g.node_count()
            );
            assert!(report.total_edges > 0, "{name}: no edges");
        }
    }

    #[test]
    fn wd_is_much_denser_than_bib() {
        let n = 2_000;
        let (g_bib, _) =
            generate_graph(&GraphConfig::new(n, bib()), &GeneratorOptions::with_seed(1));
        let (g_wd, _) = generate_graph(&GraphConfig::new(n, wd()), &GeneratorOptions::with_seed(1));
        let bib_density = g_bib.edge_count() as f64 / n as f64;
        let wd_density = g_wd.edge_count() as f64 / n as f64;
        assert!(
            wd_density > 20.0 * bib_density,
            "WD should dwarf Bib in density: {wd_density:.1} vs {bib_density:.1}"
        );
    }

    #[test]
    fn every_usecase_reaches_all_selectivity_classes() {
        // Table 2 requires constant, linear AND quadratic queries on each
        // scenario; verify the selectivity machinery finds typings.
        for (name, schema) in all() {
            let gs = SchemaGraph::build(&schema);
            let gsel = SelectivityGraph::build(&gs, 1, 4);
            for class in SelectivityClass::ALL {
                let sampler = ChainSampler::new(&gs, &gsel, class, 3);
                let feasible = (1..=3).any(|l| sampler.feasible(l) > 0.0);
                assert!(feasible, "{name} cannot produce {class} chains");
            }
        }
    }

    #[test]
    fn workloads_generate_for_each_usecase() {
        for (name, schema) in all() {
            let cfg = WorkloadConfig::new(12).with_seed(7);
            let (w, report) =
                generate_workload_with_threads(&schema, &cfg, 1).expect("workload generates");
            assert_eq!(w.queries.len(), 12, "{name}");
            assert_eq!(
                report.unsatisfied_selectivity, 0,
                "{name}: all selectivity targets should be reachable"
            );
        }
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("bib").is_some());
        assert!(by_name("LSN").is_some());
        assert!(by_name("nope").is_none());
    }
}
