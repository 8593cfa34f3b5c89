//! Mapping between XML documents and gMark configurations.
//!
//! The document layout mirrors the original gMark tool's configuration
//! files (Fig. 1: a graph configuration plus a query workload
//! configuration):
//!
//! ```xml
//! <generator>
//!   <graph>
//!     <nodes>10000</nodes>
//!     <types>
//!       <type name="researcher" proportion="0.5"/>
//!       <type name="city" fixed="100"/>
//!     </types>
//!     <predicates>
//!       <predicate name="authors" proportion="0.5"/>
//!     </predicates>
//!     <constraints>
//!       <constraint source="researcher" predicate="authors" target="paper">
//!         <indistribution type="gaussian" mu="3" sigma="1"/>
//!         <outdistribution type="zipfian" s="2.5"/>
//!       </constraint>
//!     </constraints>
//!   </graph>
//!   <workload size="30" seed="42">
//!     <arity>2</arity>
//!     <shape>chain</shape>
//!     <selectivity>constant</selectivity>
//!     <selectivity>linear</selectivity>
//!     <recursion probability="0.1"/>
//!     <rules min="1" max="1"/>
//!     <conjuncts min="1" max="3"/>
//!     <disjuncts min="1" max="2"/>
//!     <length min="1" max="3"/>
//!   </workload>
//! </generator>
//! ```
//!
//! Unspecified distributions are written as
//! `<indistribution type="nonspecified"/>` or simply omitted.

use crate::xml::{parse, Element, XmlError};
use gmark_core::schema::{Distribution, GraphConfig, Occurrence, SchemaBuilder, SchemaError};
use gmark_core::selectivity::SelectivityClass;
use gmark_core::workload::{QuerySize, Shape, WorkloadConfig};

/// A parsed configuration file: graph configuration plus optional workload
/// configuration.
#[derive(Debug, Clone)]
pub struct ParsedConfig {
    /// The graph configuration `G = (n, S)`.
    pub graph: GraphConfig,
    /// The workload configuration `Q`, when a `<workload>` element exists.
    pub workload: Option<WorkloadConfig>,
}

/// Errors raised while interpreting a configuration document.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The XML itself is malformed.
    Xml(XmlError),
    /// A required element or attribute is missing.
    Missing(String),
    /// A value failed to parse or validate.
    Invalid(String),
    /// The document describes a schema [`SchemaBuilder::build`] refuses.
    Schema(SchemaError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Xml(e) => write!(f, "{e}"),
            ConfigError::Missing(what) => write!(f, "missing {what}"),
            ConfigError::Invalid(what) => write!(f, "invalid {what}"),
            ConfigError::Schema(e) => write!(f, "invalid schema: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<XmlError> for ConfigError {
    fn from(e: XmlError) -> Self {
        ConfigError::Xml(e)
    }
}

fn missing(what: &str) -> ConfigError {
    ConfigError::Missing(what.to_owned())
}

fn invalid(what: &str) -> ConfigError {
    ConfigError::Invalid(what.to_owned())
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, ConfigError> {
    s.trim()
        .parse()
        .map_err(|_| invalid(&format!("{what}: {s:?}")))
}

fn attr_num<T: std::str::FromStr>(e: &Element, key: &str) -> Result<T, ConfigError> {
    let raw = e
        .get_attr(key)
        .ok_or_else(|| missing(&format!("attribute {key} on <{}>", e.name)))?;
    parse_num(raw, &format!("attribute {key}"))
}

fn occurrence_of(e: &Element) -> Result<Option<Occurrence>, ConfigError> {
    match (e.get_attr("proportion"), e.get_attr("fixed")) {
        (Some(p), None) => Ok(Some(Occurrence::Proportion(parse_num(p, "proportion")?))),
        (None, Some(c)) => Ok(Some(Occurrence::Fixed(parse_num(c, "fixed")?))),
        (None, None) => Ok(None),
        (Some(_), Some(_)) => Err(invalid(&format!(
            "<{}> has both proportion and fixed",
            e.name
        ))),
    }
}

fn distribution_of(e: &Element) -> Result<Distribution, ConfigError> {
    let kind = e
        .get_attr("type")
        .ok_or_else(|| missing("distribution type attribute"))?;
    match kind {
        "uniform" => Ok(Distribution::uniform(
            attr_num(e, "min")?,
            attr_num(e, "max")?,
        )),
        "gaussian" => Ok(Distribution::gaussian(
            attr_num(e, "mu")?,
            attr_num(e, "sigma")?,
        )),
        "zipfian" => Ok(Distribution::zipfian(attr_num(e, "s")?)),
        "nonspecified" => Ok(Distribution::NonSpecified),
        other => Err(invalid(&format!("distribution type {other:?}"))),
    }
}

/// Parses a configuration document.
pub fn parse_config(input: &str) -> Result<ParsedConfig, ConfigError> {
    let root = parse(input)?;
    if root.name != "generator" {
        return Err(invalid(&format!(
            "root element <{}>, expected <generator>",
            root.name
        )));
    }
    let graph_el = root.first("graph").ok_or_else(|| missing("<graph>"))?;
    let n: u64 = graph_el
        .first("nodes")
        .map(|e| parse_num(&e.text_content(), "<nodes>"))
        .transpose()?
        .ok_or_else(|| missing("<nodes>"))?;

    let mut b = SchemaBuilder::new();
    let types_el = graph_el.first("types").ok_or_else(|| missing("<types>"))?;
    for t in types_el.elements_named("type") {
        let name = t.get_attr("name").ok_or_else(|| missing("type name"))?;
        let occ =
            occurrence_of(t)?.ok_or_else(|| missing(&format!("occurrence on type {name:?}")))?;
        b.node_type(name, occ);
    }
    if let Some(preds_el) = graph_el.first("predicates") {
        for p in preds_el.elements_named("predicate") {
            let name = p
                .get_attr("name")
                .ok_or_else(|| missing("predicate name"))?;
            b.predicate(name, occurrence_of(p)?);
        }
    }
    // The builder needs ids; re-resolve names through a temporary schema
    // is wasteful, so collect constraints first and translate by name.
    let mut pending = Vec::new();
    if let Some(cons_el) = graph_el.first("constraints") {
        for c in cons_el.elements_named("constraint") {
            let source = c
                .get_attr("source")
                .ok_or_else(|| missing("constraint source"))?;
            let predicate = c
                .get_attr("predicate")
                .ok_or_else(|| missing("constraint predicate"))?;
            let target = c
                .get_attr("target")
                .ok_or_else(|| missing("constraint target"))?;
            let din = c
                .first("indistribution")
                .map(distribution_of)
                .transpose()?
                .unwrap_or(Distribution::NonSpecified);
            let dout = c
                .first("outdistribution")
                .map(distribution_of)
                .transpose()?
                .unwrap_or(Distribution::NonSpecified);
            pending.push((
                source.to_owned(),
                predicate.to_owned(),
                target.to_owned(),
                din,
                dout,
            ));
        }
    }
    let schema_probe = b.build().map_err(ConfigError::Schema)?;
    // Rebuild with constraints resolved against the probe's name tables.
    let mut b = SchemaBuilder::new();
    for t in schema_probe.types() {
        b.node_type(schema_probe.type_name(t), schema_probe.type_constraint(t));
    }
    for p in schema_probe.predicates() {
        b.predicate(
            schema_probe.predicate_name(p),
            schema_probe.predicate_constraint(p),
        );
    }
    for (source, predicate, target, din, dout) in pending {
        let s = schema_probe
            .type_by_name(&source)
            .ok_or_else(|| invalid(&format!("unknown source type {source:?}")))?;
        let p = schema_probe
            .predicate_by_name(&predicate)
            .ok_or_else(|| invalid(&format!("unknown predicate {predicate:?}")))?;
        let t = schema_probe
            .type_by_name(&target)
            .ok_or_else(|| invalid(&format!("unknown target type {target:?}")))?;
        b.edge(s, p, t, din, dout);
    }
    let schema = b.build().map_err(ConfigError::Schema)?;
    let graph = GraphConfig::new(n, schema);

    let workload = root.first("workload").map(parse_workload).transpose()?;
    Ok(ParsedConfig { graph, workload })
}

/// A `min`/`max` pair; an inverted one is refused here, so no sampler
/// downstream is ever handed an empty range.
fn parse_range(e: &Element) -> Result<(usize, usize), ConfigError> {
    let (min, max) = (attr_num(e, "min")?, attr_num(e, "max")?);
    if min > max {
        return Err(invalid(&format!(
            "<{}> range: min {min} > max {max}",
            e.name
        )));
    }
    Ok((min, max))
}

fn parse_workload(w: &Element) -> Result<WorkloadConfig, ConfigError> {
    let size: usize = attr_num(w, "size")?;
    let mut cfg = WorkloadConfig::new(size);
    if let Some(seed) = w.get_attr("seed") {
        cfg.seed = parse_num(seed, "seed")?;
    }
    let arities: Vec<usize> = w
        .elements_named("arity")
        .map(|e| parse_num(&e.text_content(), "<arity>"))
        .collect::<Result<_, _>>()?;
    if !arities.is_empty() {
        cfg.arity = arities;
    }
    let shapes: Vec<Shape> = w
        .elements_named("shape")
        .map(|e| {
            let t = e.text_content();
            Shape::parse(&t).ok_or_else(|| invalid(&format!("shape {t:?}")))
        })
        .collect::<Result<_, _>>()?;
    if !shapes.is_empty() {
        cfg.shapes = shapes;
    }
    let sels: Vec<SelectivityClass> = w
        .elements_named("selectivity")
        .map(|e| {
            let t = e.text_content();
            SelectivityClass::parse(&t).ok_or_else(|| invalid(&format!("selectivity {t:?}")))
        })
        .collect::<Result<_, _>>()?;
    if !sels.is_empty() {
        cfg.selectivities = sels;
    }
    if let Some(r) = w.first("recursion") {
        cfg.recursion_probability = attr_num(r, "probability")?;
    }
    if let Some(r) = w.first("rules") {
        cfg.rules = parse_range(r)?;
    }
    let mut size_t = QuerySize::default();
    if let Some(c) = w.first("conjuncts") {
        size_t.conjuncts = parse_range(c)?;
    }
    if let Some(d) = w.first("disjuncts") {
        size_t.disjuncts = parse_range(d)?;
    }
    if let Some(l) = w.first("length") {
        size_t.length = parse_range(l)?;
    }
    cfg.query_size = size_t;
    Ok(cfg)
}

/// Serializes a configuration back to XML.
pub fn write_config(graph: &GraphConfig, workload: Option<&WorkloadConfig>) -> String {
    let schema = &graph.schema;
    let mut types_el = Element::new("types");
    for t in schema.types() {
        let mut e = Element::new("type").attr("name", schema.type_name(t));
        e = match schema.type_constraint(t) {
            Occurrence::Fixed(c) => e.attr("fixed", c),
            Occurrence::Proportion(p) => e.attr("proportion", p),
        };
        types_el = types_el.child(e);
    }
    let mut preds_el = Element::new("predicates");
    for p in schema.predicates() {
        let mut e = Element::new("predicate").attr("name", schema.predicate_name(p));
        match schema.predicate_constraint(p) {
            Some(Occurrence::Fixed(c)) => e = e.attr("fixed", c),
            Some(Occurrence::Proportion(pr)) => e = e.attr("proportion", pr),
            None => {}
        }
        preds_el = preds_el.child(e);
    }
    let mut cons_el = Element::new("constraints");
    for c in schema.constraints() {
        let mut e = Element::new("constraint")
            .attr("source", schema.type_name(c.source))
            .attr("predicate", schema.predicate_name(c.predicate))
            .attr("target", schema.type_name(c.target));
        e = e.child(distribution_el("indistribution", &c.din));
        e = e.child(distribution_el("outdistribution", &c.dout));
        cons_el = cons_el.child(e);
    }
    let graph_el = Element::new("graph")
        .child(Element::new("nodes").text(graph.n))
        .child(types_el)
        .child(preds_el)
        .child(cons_el);

    let mut root = Element::new("generator").child(graph_el);
    if let Some(w) = workload {
        let mut w_el = Element::new("workload")
            .attr("size", w.size)
            .attr("seed", w.seed);
        for a in &w.arity {
            w_el = w_el.child(Element::new("arity").text(a));
        }
        for s in &w.shapes {
            w_el = w_el.child(Element::new("shape").text(s));
        }
        for s in &w.selectivities {
            w_el = w_el.child(Element::new("selectivity").text(s));
        }
        w_el = w_el.child(Element::new("recursion").attr("probability", w.recursion_probability));
        let range_el = |name: &str, (min, max): (usize, usize)| {
            Element::new(name).attr("min", min).attr("max", max)
        };
        w_el = w_el
            .child(range_el("rules", w.rules))
            .child(range_el("conjuncts", w.query_size.conjuncts))
            .child(range_el("disjuncts", w.query_size.disjuncts))
            .child(range_el("length", w.query_size.length));
        root = root.child(w_el);
    }
    root.to_pretty_string()
}

fn distribution_el(name: &str, d: &Distribution) -> Element {
    let e = Element::new(name);
    match *d {
        Distribution::Uniform { min, max } => {
            e.attr("type", "uniform").attr("min", min).attr("max", max)
        }
        Distribution::Gaussian { mu, sigma } => e
            .attr("type", "gaussian")
            .attr("mu", mu)
            .attr("sigma", sigma),
        Distribution::Zipfian { s } => e.attr("type", "zipfian").attr("s", s),
        Distribution::NonSpecified => e.attr("type", "nonspecified"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmark_core::usecases;

    const BIB_LIKE: &str = r#"
        <generator>
          <graph>
            <nodes>5000</nodes>
            <types>
              <type name="researcher" proportion="0.5"/>
              <type name="paper" proportion="0.3"/>
              <type name="conference" proportion="0.1"/>
              <type name="city" fixed="100"/>
            </types>
            <predicates>
              <predicate name="authors" proportion="0.5"/>
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
          <workload size="30" seed="7">
            <arity>2</arity>
            <shape>chain</shape>
            <selectivity>constant</selectivity>
            <selectivity>linear</selectivity>
            <selectivity>quadratic</selectivity>
            <recursion probability="0.25"/>
            <conjuncts min="1" max="3"/>
            <disjuncts min="1" max="2"/>
            <length min="1" max="3"/>
          </workload>
        </generator>"#;

    #[test]
    fn parse_full_document() {
        let cfg = parse_config(BIB_LIKE).unwrap();
        assert_eq!(cfg.graph.n, 5000);
        let s = &cfg.graph.schema;
        assert_eq!(s.type_count(), 4);
        assert_eq!(s.predicate_count(), 3);
        assert_eq!(s.constraints().len(), 3);
        let city = s.type_by_name("city").unwrap();
        assert_eq!(s.type_constraint(city), Occurrence::Fixed(100));
        // publishedIn's unspecified in-distribution defaults correctly.
        let c = &s.constraints()[1];
        assert_eq!(c.din, Distribution::NonSpecified);
        assert_eq!(c.dout, Distribution::uniform(1, 1));

        let w = cfg.workload.unwrap();
        assert_eq!(w.size, 30);
        assert_eq!(w.seed, 7);
        assert_eq!(w.arity, vec![2]);
        assert_eq!(w.shapes, vec![Shape::Chain]);
        assert_eq!(w.selectivities.len(), 3);
        assert!((w.recursion_probability - 0.25).abs() < 1e-12);
        assert_eq!(w.query_size.conjuncts, (1, 3));
        assert_eq!(w.query_size.disjuncts, (1, 2));
    }

    #[test]
    fn parsed_config_generates() {
        let cfg = parse_config(BIB_LIKE).unwrap();
        let (graph, report) =
            gmark_core::generate_graph(&cfg.graph, &gmark_core::GeneratorOptions::with_seed(3));
        // Proportions sum to 0.9 plus 100 fixed city nodes: 4600 realized.
        assert_eq!(graph.node_count(), 4_600);
        assert!(report.total_edges > 0);
        let (w, _) = gmark_core::generate_workload_with_threads(
            &cfg.graph.schema,
            &cfg.workload.unwrap(),
            1,
        )
        .unwrap();
        assert_eq!(w.queries.len(), 30);
    }

    #[test]
    fn round_trip_all_usecases() {
        for (name, schema) in usecases::all() {
            let graph = GraphConfig::new(12_345, schema);
            let workload = WorkloadConfig::new(42).with_seed(9);
            let xml = write_config(&graph, Some(&workload));
            let parsed = parse_config(&xml).unwrap_or_else(|e| panic!("{name}: {e}\n{xml}"));
            assert_eq!(parsed.graph, graph, "{name} graph round-trip");
            let w = parsed.workload.unwrap();
            assert_eq!(w.size, workload.size);
            assert_eq!(w.seed, workload.seed);
            assert_eq!(w.arity, workload.arity);
            assert_eq!(w.selectivities, workload.selectivities);
            assert_eq!(w.query_size, workload.query_size);
        }
    }

    #[test]
    fn missing_pieces_are_reported() {
        assert!(matches!(
            parse_config("<generator/>"),
            Err(ConfigError::Missing(_))
        ));
        let no_nodes = "<generator><graph><types/></graph></generator>";
        assert!(matches!(
            parse_config(no_nodes),
            Err(ConfigError::Missing(_))
        ));
        let bad_root = "<gen/>";
        assert!(matches!(
            parse_config(bad_root),
            Err(ConfigError::Invalid(_))
        ));
    }

    #[test]
    fn a_predicate_name_outside_the_rule_is_a_schema_error() {
        let doc = r#"
          <generator><graph>
            <nodes>10</nodes>
            <types><type name="a" proportion="1.0"/></types>
            <predicates><predicate name="auth ors&apos;x"/></predicates>
          </graph></generator>"#;
        match parse_config(doc) {
            Err(ConfigError::Schema(SchemaError::InvalidPredicateName(name))) => {
                assert_eq!(name, "auth ors'x")
            }
            other => panic!("expected a schema error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_references_are_reported() {
        let doc = r#"
          <generator><graph>
            <nodes>10</nodes>
            <types><type name="a" proportion="1.0"/></types>
            <predicates><predicate name="p"/></predicates>
            <constraints>
              <constraint source="a" predicate="p" target="ghost"/>
            </constraints>
          </graph></generator>"#;
        match parse_config(doc) {
            Err(ConfigError::Invalid(msg)) => assert!(msg.contains("ghost"), "{msg}"),
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn invalid_values_are_reported() {
        let doc = r#"
          <generator><graph>
            <nodes>ten</nodes>
            <types><type name="a" proportion="1.0"/></types>
          </graph></generator>"#;
        assert!(matches!(parse_config(doc), Err(ConfigError::Invalid(_))));
        let bad_sel = r#"
          <generator><graph>
            <nodes>10</nodes>
            <types><type name="a" proportion="1.0"/></types>
          </graph>
          <workload size="5"><selectivity>cubic</selectivity></workload>
          </generator>"#;
        assert!(matches!(
            parse_config(bad_sel),
            Err(ConfigError::Invalid(_))
        ));
        // An inverted range would reach a sampler as an empty interval.
        for element in ["rules", "conjuncts", "disjuncts", "length"] {
            let inverted = bad_sel.replace(
                "<selectivity>cubic</selectivity>",
                &format!(r#"<{element} min="4" max="2"/>"#),
            );
            match parse_config(&inverted) {
                Err(ConfigError::Invalid(msg)) => {
                    assert_eq!(msg, format!("<{element}> range: min 4 > max 2"));
                }
                other => panic!("<{element}>: expected invalid, got {other:?}"),
            }
            let equal = inverted.replace(r#"min="4""#, r#"min="2""#);
            assert!(parse_config(&equal).is_ok(), "<{element}> min = max");
        }
    }
}
