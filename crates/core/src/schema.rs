//! Graph schemas and configurations (Definitions 3.1 and 3.2).
//!
//! A *graph schema* is a tuple `S = (Σ, Θ, T, η)` where `Σ` is a finite
//! alphabet of predicates, `Θ` a finite set of node types, `T` associates to
//! each predicate and type either a proportion of its occurrences or a fixed
//! constant value, and `η` partially maps `(T1, T2, a)` to a pair
//! `(D_in, D_out)` of degree distributions. A *graph configuration*
//! `G = (n, S)` adds the requested number of nodes.
//!
//! This module also implements the consistency check discussed in Section 4:
//! the in- and out-distribution parameters of each constraint must be
//! compatible for the number of generated ingoing and outgoing edges to
//! match; incompatibilities are reported (not fatal — the generator always
//! returns a graph, by design).

use gmark_stats::sampler::{AnySampler, Gaussian, Uniform, Zipf};
use std::fmt;

/// Index of a node type in `Θ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub usize);

/// Index of an edge predicate in `Σ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredicateId(pub usize);

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for PredicateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// An occurrence constraint from `T`: either a fixed number of occurrences
/// or a proportion of the graph size (Fig. 2(a)/(b) of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Occurrence {
    /// Exactly this many occurrences, independent of graph size — e.g. the
    /// motivating example fixes 100 `city` nodes. Fixed types have
    /// `Type(T) = 1` in the selectivity algebra of Section 5.2.2.
    Fixed(u64),
    /// This fraction of the graph size `n` — e.g. 50% of nodes are
    /// `researcher`s. Proportional types have `Type(T) = N`.
    Proportion(f64),
}

impl Occurrence {
    /// Resolves the constraint against a graph size `n`.
    pub fn resolve(&self, n: u64) -> u64 {
        match *self {
            Occurrence::Fixed(c) => c,
            Occurrence::Proportion(p) => (p * n as f64).round() as u64,
        }
    }

    /// Whether this occurrence grows with the graph (`Type(T) = N`).
    pub fn grows(&self) -> bool {
        matches!(self, Occurrence::Proportion(_))
    }
}

/// A degree distribution of `η` (Definition 3.1). gMark supports uniform,
/// Gaussian, and Zipfian distributions, and a side may be left non-specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Uniform over an integer interval `[min, max]`.
    Uniform {
        /// Smallest degree (inclusive).
        min: u64,
        /// Largest degree (inclusive).
        max: u64,
    },
    /// Gaussian (normal) with mean `mu` and standard deviation `sigma`.
    Gaussian {
        /// Mean.
        mu: f64,
        /// Standard deviation.
        sigma: f64,
    },
    /// Zipfian (power-law) with exponent `s`; the support is bounded by the
    /// number of nodes on the opposite side of the constraint.
    Zipfian {
        /// Exponent `s > 0`. The original gMark implementation defaults to 2.5.
        s: f64,
    },
    /// Left unspecified: the generator lets the opposite side dictate the
    /// edge count and connects this side uniformly at random.
    NonSpecified,
}

impl Distribution {
    /// Shorthand for a uniform distribution.
    pub fn uniform(min: u64, max: u64) -> Self {
        Distribution::Uniform { min, max }
    }

    /// Shorthand for a Gaussian distribution.
    pub fn gaussian(mu: f64, sigma: f64) -> Self {
        Distribution::Gaussian { mu, sigma }
    }

    /// Shorthand for a Zipfian distribution.
    pub fn zipfian(s: f64) -> Self {
        Distribution::Zipfian { s }
    }

    /// Whether the distribution is specified.
    pub fn is_specified(&self) -> bool {
        !matches!(self, Distribution::NonSpecified)
    }

    /// Whether the distribution is Zipfian — the trigger for the `<` / `>`
    /// selectivity operations of Section 5.2.2.
    pub fn is_zipfian(&self) -> bool {
        matches!(self, Distribution::Zipfian { .. })
    }

    /// Whether the distribution is Gaussian — eligible for the generator's
    /// fast path (Section 4: "exploiting the average information of the
    /// Gaussian distributions").
    pub fn is_gaussian(&self) -> bool {
        matches!(self, Distribution::Gaussian { .. })
    }

    /// Builds a sampler, bounding Zipf's support by `support` (the number of
    /// nodes on the opposite side). `None` for non-specified distributions.
    pub fn sampler(&self, support: u64) -> Option<AnySampler> {
        match *self {
            Distribution::Uniform { min, max } => Some(AnySampler::Uniform(Uniform::new(min, max))),
            Distribution::Gaussian { mu, sigma } => {
                Some(AnySampler::Gaussian(Gaussian::new(mu, sigma)))
            }
            Distribution::Zipfian { s } => Some(AnySampler::Zipf(Zipf::new(support.max(1), s))),
            Distribution::NonSpecified => None,
        }
    }

    /// Expected degree under this distribution (`None` if non-specified).
    pub fn mean(&self, support: u64) -> Option<f64> {
        use gmark_stats::DegreeSampler;
        self.sampler(support).map(|s| s.mean())
    }
}

impl fmt::Display for Distribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Distribution::Uniform { min, max } => write!(f, "uniform[{min},{max}]"),
            Distribution::Gaussian { mu, sigma } => {
                write!(f, "gaussian(\u{03BC}={mu},\u{03C3}={sigma})")
            }
            Distribution::Zipfian { s } => write!(f, "zipfian(s={s})"),
            Distribution::NonSpecified => write!(f, "nonspecified"),
        }
    }
}

/// One `η(T1, T2, a) = (D_in, D_out)` schema constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeConstraint {
    /// Source node type `T1`.
    pub source: TypeId,
    /// Edge predicate `a`.
    pub predicate: PredicateId,
    /// Target node type `T2`.
    pub target: TypeId,
    /// In-degree distribution `D_in` (degrees of `T2` nodes w.r.t. incoming
    /// `a`-edges from `T1` nodes).
    pub din: Distribution,
    /// Out-degree distribution `D_out` (degrees of `T1` nodes w.r.t.
    /// outgoing `a`-edges to `T2` nodes).
    pub dout: Distribution,
}

/// The paper's standard macros for common `(D_in, D_out)` pairs
/// (Section 3.4): `"1"`, `"?"`, and `"0"`.
impl EdgeConstraint {
    /// Macro `"1"`: non-specified in-distribution, uniform `[1, 1]`
    /// out-distribution — exactly one outgoing `a`-edge per source node.
    pub fn exactly_one(source: TypeId, predicate: PredicateId, target: TypeId) -> Self {
        EdgeConstraint {
            source,
            predicate,
            target,
            din: Distribution::NonSpecified,
            dout: Distribution::uniform(1, 1),
        }
    }

    /// Macro `"?"`: non-specified in-distribution, uniform `[0, 1]`
    /// out-distribution — at most one outgoing `a`-edge per source node.
    pub fn at_most_one(source: TypeId, predicate: PredicateId, target: TypeId) -> Self {
        EdgeConstraint {
            source,
            predicate,
            target,
            din: Distribution::NonSpecified,
            dout: Distribution::uniform(0, 1),
        }
    }

    /// Macro `"0"`: no `a`-edges from `T1` to `T2` (uniform `[0, 0]`).
    pub fn none(source: TypeId, predicate: PredicateId, target: TypeId) -> Self {
        EdgeConstraint {
            source,
            predicate,
            target,
            din: Distribution::NonSpecified,
            dout: Distribution::uniform(0, 0),
        }
    }
}

/// A graph schema `S = (Σ, Θ, T, η)` (Definition 3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    type_names: Vec<String>,
    type_constraints: Vec<Occurrence>,
    predicate_names: Vec<String>,
    predicate_constraints: Vec<Option<Occurrence>>,
    constraints: Vec<EdgeConstraint>,
}

impl Schema {
    /// Number of node types `|Θ|`.
    pub fn type_count(&self) -> usize {
        self.type_names.len()
    }

    /// Number of predicates `|Σ|`.
    pub fn predicate_count(&self) -> usize {
        self.predicate_names.len()
    }

    /// Name of a node type.
    pub fn type_name(&self, t: TypeId) -> &str {
        &self.type_names[t.0]
    }

    /// Name of a predicate.
    pub fn predicate_name(&self, p: PredicateId) -> &str {
        &self.predicate_names[p.0]
    }

    /// All predicate names (indexed by `PredicateId`).
    pub fn predicate_names(&self) -> Vec<String> {
        self.predicate_names.clone()
    }

    /// Looks up a node type by name.
    pub fn type_by_name(&self, name: &str) -> Option<TypeId> {
        self.type_names.iter().position(|n| n == name).map(TypeId)
    }

    /// Looks up a predicate by name.
    pub fn predicate_by_name(&self, name: &str) -> Option<PredicateId> {
        self.predicate_names
            .iter()
            .position(|n| n == name)
            .map(PredicateId)
    }

    /// The occurrence constraint `T(T)` of a node type.
    pub fn type_constraint(&self, t: TypeId) -> Occurrence {
        self.type_constraints[t.0]
    }

    /// The occurrence constraint `T(a)` of a predicate, if specified.
    pub fn predicate_constraint(&self, p: PredicateId) -> Option<Occurrence> {
        self.predicate_constraints[p.0]
    }

    /// The `η` constraints.
    pub fn constraints(&self) -> &[EdgeConstraint] {
        &self.constraints
    }

    /// Iterates types.
    pub fn types(&self) -> impl Iterator<Item = TypeId> {
        (0..self.type_count()).map(TypeId)
    }

    /// Iterates predicates.
    pub fn predicates(&self) -> impl Iterator<Item = PredicateId> {
        (0..self.predicate_count()).map(PredicateId)
    }

    /// Whether `Type(T) = N` (the type grows with the graph) in the algebra
    /// of Section 5.2.2.
    pub fn type_grows(&self, t: TypeId) -> bool {
        self.type_constraints[t.0].grows()
    }

    /// Per-type node counts for a graph of size `n` (the `n_T` of Fig. 5).
    pub fn node_counts(&self, n: u64) -> Vec<u64> {
        self.type_constraints.iter().map(|c| c.resolve(n)).collect()
    }

    /// A stable 64-bit fingerprint of the schema's alphabet: the type
    /// names followed by the predicate names, each length-prefixed
    /// (domain-separated, with a count separator between the two lists).
    ///
    /// The on-disk graph store records this next to the seed so a store
    /// file can be checked against the configuration a caller is about to
    /// evaluate with — it deliberately covers only the name lists (not
    /// distributions), because predicate *indices* are what stored
    /// segments are keyed by.
    pub fn schema_hash(&self) -> u64 {
        let mut h = gmark_store::paged::Fnv64::new();
        gmark_store::paged::fnv_strings(&mut h, &self.type_names);
        h.update(&(self.predicate_names.len() as u64).to_le_bytes());
        gmark_store::paged::fnv_strings(&mut h, &self.predicate_names);
        h.finish()
    }
}

/// A graph configuration `G = (n, S)` (Definition 3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphConfig {
    /// Requested number of nodes `n`.
    pub n: u64,
    /// The schema `S`.
    pub schema: Schema,
}

impl GraphConfig {
    /// Creates a configuration.
    pub fn new(n: u64, schema: Schema) -> Self {
        GraphConfig { n, schema }
    }

    /// Per-type node counts (see [`Schema::node_counts`]).
    pub fn node_counts(&self) -> Vec<u64> {
        self.schema.node_counts(self.n)
    }

    /// The realized total node count (sum of per-type counts; may deviate
    /// slightly from `n` through rounding and fixed-count types, as in the
    /// paper's motivating example where 100 `city` nodes are fixed).
    pub fn realized_nodes(&self) -> u64 {
        self.node_counts().iter().sum()
    }

    /// Runs the Section 4 consistency check; see [`Schema`] docs.
    pub fn validate(&self) -> Vec<ValidationIssue> {
        let mut issues = Vec::new();
        let counts = self.node_counts();
        // Node proportions summing far from 1 distort the requested size.
        let prop_sum: f64 = self
            .schema
            .type_constraints
            .iter()
            .filter_map(|c| match c {
                Occurrence::Proportion(p) => Some(*p),
                Occurrence::Fixed(_) => None,
            })
            .sum();
        if prop_sum > 1.0 + 1e-9 {
            issues.push(ValidationIssue::TypeProportionsExceedOne { sum: prop_sum });
        }
        for (idx, c) in self.schema.constraints.iter().enumerate() {
            let n_src = counts[c.source.0];
            let n_trg = counts[c.target.0];
            let out_mean = c.dout.mean(n_trg.max(1));
            let in_mean = c.din.mean(n_src.max(1));
            if let (Some(om), Some(im)) = (out_mean, in_mean) {
                let supply = n_src as f64 * om;
                let demand = n_trg as f64 * im;
                let hi = supply.max(demand);
                let lo = supply.min(demand);
                // > 25% relative divergence means one side's distribution
                // parameters will necessarily be violated (Section 4).
                if hi > 0.0 && (hi - lo) / hi > 0.25 {
                    issues.push(ValidationIssue::InconsistentDegrees {
                        constraint: idx,
                        expected_out_edges: supply,
                        expected_in_edges: demand,
                    });
                }
            }
            if !c.din.is_specified() && !c.dout.is_specified() {
                let pc = self.schema.predicate_constraints[c.predicate.0];
                if pc.is_none() {
                    issues.push(ValidationIssue::NoEdgeBudget { constraint: idx });
                }
            }
        }
        issues
    }
}

/// A problem reported by [`GraphConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationIssue {
    /// Proportional type constraints sum to more than 1.
    TypeProportionsExceedOne {
        /// Sum of the proportions.
        sum: f64,
    },
    /// A constraint's expected outgoing and incoming edge totals diverge; the
    /// generator will truncate to the smaller side (Fig. 5, line 8).
    InconsistentDegrees {
        /// Index into [`Schema::constraints`].
        constraint: usize,
        /// `n_{T1} · E[D_out]`.
        expected_out_edges: f64,
        /// `n_{T2} · E[D_in]`.
        expected_in_edges: f64,
    },
    /// Both distributions are non-specified and the predicate carries no
    /// occurrence constraint, so the edge budget is undefined (the generator
    /// falls back to `min(n_{T1}, n_{T2})` edges).
    NoEdgeBudget {
        /// Index into [`Schema::constraints`].
        constraint: usize,
    },
}

/// Errors raised while assembling a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// Two types or two predicates share a name.
    DuplicateName(String),
    /// A constraint references an unknown type or predicate.
    UnknownReference(String),
    /// A proportion is outside `(0, 1]` or not finite.
    InvalidProportion(String),
    /// A distribution has invalid parameters.
    InvalidDistribution(String),
    /// A predicate name does not match `[A-Za-z_][A-Za-z0-9_]*`.
    InvalidPredicateName(String),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::DuplicateName(n) => write!(f, "duplicate name: {n}"),
            SchemaError::UnknownReference(n) => write!(f, "unknown reference: {n}"),
            SchemaError::InvalidProportion(m) => write!(f, "invalid proportion: {m}"),
            SchemaError::InvalidDistribution(m) => write!(f, "invalid distribution: {m}"),
            SchemaError::InvalidPredicateName(n) => write!(
                f,
                "invalid predicate name {n:?}: a name must match [A-Za-z_][A-Za-z0-9_]*"
            ),
        }
    }
}

impl std::error::Error for SchemaError {}

/// The one rule for predicate names, `[A-Za-z_][A-Za-z0-9_]*`: every
/// translator writes a name verbatim — a SPARQL prefixed name, an SQL
/// string literal, a Cypher relationship type, a Datalog relation — and
/// this rule is what makes that safe in all four.
fn is_predicate_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    bytes
        .next()
        .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_')
        && bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// Fluent builder for [`Schema`].
///
/// ```
/// use gmark_core::schema::{Distribution, Occurrence, SchemaBuilder};
///
/// let mut b = SchemaBuilder::new();
/// let researcher = b.node_type("researcher", Occurrence::Proportion(0.5));
/// let paper = b.node_type("paper", Occurrence::Proportion(0.3));
/// let authors = b.predicate("authors", Some(Occurrence::Proportion(0.5)));
/// b.edge(
///     researcher,
///     authors,
///     paper,
///     Distribution::gaussian(3.0, 1.0),
///     Distribution::zipfian(2.5),
/// );
/// let schema = b.build().unwrap();
/// assert_eq!(schema.type_count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    type_names: Vec<String>,
    type_constraints: Vec<Occurrence>,
    predicate_names: Vec<String>,
    predicate_constraints: Vec<Option<Occurrence>>,
    constraints: Vec<EdgeConstraint>,
}

impl SchemaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        SchemaBuilder::default()
    }

    /// Declares a node type with its occurrence constraint, returning its id.
    pub fn node_type(&mut self, name: &str, occurrence: Occurrence) -> TypeId {
        self.type_names.push(name.to_owned());
        self.type_constraints.push(occurrence);
        TypeId(self.type_names.len() - 1)
    }

    /// Declares a predicate with an optional occurrence constraint.
    pub fn predicate(&mut self, name: &str, occurrence: Option<Occurrence>) -> PredicateId {
        self.predicate_names.push(name.to_owned());
        self.predicate_constraints.push(occurrence);
        PredicateId(self.predicate_names.len() - 1)
    }

    /// Adds a full `η(T1, T2, a) = (D_in, D_out)` constraint.
    pub fn edge(
        &mut self,
        source: TypeId,
        predicate: PredicateId,
        target: TypeId,
        din: Distribution,
        dout: Distribution,
    ) -> &mut Self {
        self.constraints.push(EdgeConstraint {
            source,
            predicate,
            target,
            din,
            dout,
        });
        self
    }

    /// Adds a pre-assembled constraint (used by the macro constructors).
    pub fn constraint(&mut self, c: EdgeConstraint) -> &mut Self {
        self.constraints.push(c);
        self
    }

    /// Validates and assembles the schema.
    pub fn build(self) -> Result<Schema, SchemaError> {
        // Name uniqueness.
        for names in [&self.type_names, &self.predicate_names] {
            let mut seen = std::collections::HashSet::new();
            for n in names {
                if !seen.insert(n.as_str()) {
                    return Err(SchemaError::DuplicateName(n.clone()));
                }
            }
        }
        if let Some(n) = self.predicate_names.iter().find(|n| !is_predicate_name(n)) {
            return Err(SchemaError::InvalidPredicateName(n.clone()));
        }
        // Occurrence sanity.
        let check_occ = |o: &Occurrence, what: &str| -> Result<(), SchemaError> {
            if let Occurrence::Proportion(p) = o {
                if !p.is_finite() || *p <= 0.0 || *p > 1.0 {
                    return Err(SchemaError::InvalidProportion(format!("{what}: {p}")));
                }
            }
            Ok(())
        };
        for (name, occ) in self.type_names.iter().zip(&self.type_constraints) {
            check_occ(occ, name)?;
        }
        for (name, occ) in self.predicate_names.iter().zip(&self.predicate_constraints) {
            if let Some(o) = occ {
                check_occ(o, name)?;
            }
        }
        // Constraint references and distribution parameters.
        for c in &self.constraints {
            if c.source.0 >= self.type_names.len() || c.target.0 >= self.type_names.len() {
                return Err(SchemaError::UnknownReference(format!(
                    "constraint type {:?} / {:?}",
                    c.source, c.target
                )));
            }
            if c.predicate.0 >= self.predicate_names.len() {
                return Err(SchemaError::UnknownReference(format!(
                    "constraint predicate {:?}",
                    c.predicate
                )));
            }
            for d in [&c.din, &c.dout] {
                match *d {
                    Distribution::Uniform { min, max } if min > max => {
                        return Err(SchemaError::InvalidDistribution(format!(
                            "uniform[{min},{max}]"
                        )))
                    }
                    Distribution::Gaussian { mu, sigma }
                        if !mu.is_finite() || !sigma.is_finite() || sigma < 0.0 =>
                    {
                        return Err(SchemaError::InvalidDistribution(format!(
                            "gaussian({mu},{sigma})"
                        )))
                    }
                    Distribution::Zipfian { s } if !s.is_finite() || s <= 0.0 => {
                        return Err(SchemaError::InvalidDistribution(format!("zipfian({s})")))
                    }
                    _ => {}
                }
            }
        }
        Ok(Schema {
            type_names: self.type_names,
            type_constraints: self.type_constraints,
            predicate_names: self.predicate_names,
            predicate_constraints: self.predicate_constraints,
            constraints: self.constraints,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The schema of Example 3.3: Σ = {a, b}, Θ = {T1, T2, T3},
    /// T(T1) = 60%, T(T2) = 20%, T(T3) = 1.
    pub(crate) fn example_3_3() -> Schema {
        let mut b = SchemaBuilder::new();
        let t1 = b.node_type("T1", Occurrence::Proportion(0.6));
        let t2 = b.node_type("T2", Occurrence::Proportion(0.2));
        let t3 = b.node_type("T3", Occurrence::Fixed(1));
        let a = b.predicate("a", None);
        let bb = b.predicate("b", None);
        b.edge(
            t1,
            a,
            t1,
            Distribution::gaussian(2.0, 1.0),
            Distribution::zipfian(2.5),
        );
        b.edge(
            t1,
            bb,
            t2,
            Distribution::uniform(1, 3),
            Distribution::gaussian(1.0, 0.5),
        );
        b.edge(
            t2,
            bb,
            t2,
            Distribution::gaussian(1.0, 0.5),
            Distribution::NonSpecified,
        );
        b.edge(
            t2,
            bb,
            t3,
            Distribution::NonSpecified,
            Distribution::uniform(1, 1),
        );
        b.build().unwrap()
    }

    #[test]
    fn example_schema_shape() {
        let s = example_3_3();
        assert_eq!(s.type_count(), 3);
        assert_eq!(s.predicate_count(), 2);
        assert_eq!(s.constraints().len(), 4);
        assert_eq!(s.type_by_name("T2"), Some(TypeId(1)));
        assert_eq!(s.predicate_by_name("b"), Some(PredicateId(1)));
        assert!(s.type_by_name("nope").is_none());
        assert!(s.type_grows(TypeId(0)));
        assert!(!s.type_grows(TypeId(2)));
    }

    #[test]
    fn node_counts_follow_example_3_3() {
        // n = 5: 60% -> 3 nodes of T1, 20% -> 1 node of T2, fixed 1 of T3.
        let cfg = GraphConfig::new(5, example_3_3());
        assert_eq!(cfg.node_counts(), vec![3, 1, 1]);
        assert_eq!(cfg.realized_nodes(), 5);
    }

    #[test]
    fn occurrence_resolution() {
        assert_eq!(Occurrence::Fixed(100).resolve(5), 100);
        assert_eq!(Occurrence::Proportion(0.5).resolve(1001), 501);
        assert!(Occurrence::Proportion(0.1).grows());
        assert!(!Occurrence::Fixed(3).grows());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = SchemaBuilder::new();
        b.node_type("x", Occurrence::Fixed(1));
        b.node_type("x", Occurrence::Fixed(1));
        assert!(matches!(b.build(), Err(SchemaError::DuplicateName(_))));
    }

    #[test]
    fn predicate_names_follow_one_rule() {
        for good in ["authors", "_p", "P9", "has_part"] {
            assert!(is_predicate_name(good), "{good}");
        }
        for bad in ["", "auth ors'x", "9p", "has-part", "p:q", "naïve", "a\"b"] {
            assert!(!is_predicate_name(bad), "{bad}");
            let mut b = SchemaBuilder::new();
            b.node_type("t", Occurrence::Proportion(1.0));
            b.predicate("fine", None);
            b.predicate(bad, None);
            assert_eq!(
                b.build().unwrap_err(),
                SchemaError::InvalidPredicateName(bad.to_owned())
            );
        }
        for (_, schema) in crate::usecases::all() {
            assert!(schema
                .predicate_names()
                .iter()
                .all(|n| is_predicate_name(n)));
        }
    }

    #[test]
    fn invalid_proportion_rejected() {
        let mut b = SchemaBuilder::new();
        b.node_type("x", Occurrence::Proportion(1.5));
        assert!(matches!(b.build(), Err(SchemaError::InvalidProportion(_))));
    }

    #[test]
    fn invalid_distributions_rejected() {
        let mut b = SchemaBuilder::new();
        let t = b.node_type("t", Occurrence::Fixed(1));
        let p = b.predicate("p", None);
        b.edge(
            t,
            p,
            t,
            Distribution::uniform(5, 2),
            Distribution::NonSpecified,
        );
        assert!(matches!(
            b.build(),
            Err(SchemaError::InvalidDistribution(_))
        ));

        let mut b = SchemaBuilder::new();
        let t = b.node_type("t", Occurrence::Fixed(1));
        let p = b.predicate("p", None);
        b.edge(
            t,
            p,
            t,
            Distribution::zipfian(-1.0),
            Distribution::NonSpecified,
        );
        assert!(matches!(
            b.build(),
            Err(SchemaError::InvalidDistribution(_))
        ));
    }

    #[test]
    fn unknown_reference_rejected() {
        let mut b = SchemaBuilder::new();
        let t = b.node_type("t", Occurrence::Fixed(1));
        b.edge(
            t,
            PredicateId(9),
            t,
            Distribution::NonSpecified,
            Distribution::uniform(1, 1),
        );
        assert!(matches!(b.build(), Err(SchemaError::UnknownReference(_))));
    }

    #[test]
    fn macros_match_paper_section_3_4() {
        let one = EdgeConstraint::exactly_one(TypeId(0), PredicateId(0), TypeId(1));
        assert_eq!(one.dout, Distribution::uniform(1, 1));
        assert_eq!(one.din, Distribution::NonSpecified);
        let opt = EdgeConstraint::at_most_one(TypeId(0), PredicateId(0), TypeId(1));
        assert_eq!(opt.dout, Distribution::uniform(0, 1));
        let zero = EdgeConstraint::none(TypeId(0), PredicateId(0), TypeId(1));
        assert_eq!(zero.dout, Distribution::uniform(0, 0));
    }

    #[test]
    fn validation_flags_inconsistent_degrees() {
        let mut b = SchemaBuilder::new();
        let t1 = b.node_type("t1", Occurrence::Proportion(0.5));
        let t2 = b.node_type("t2", Occurrence::Proportion(0.5));
        let p = b.predicate("p", None);
        // Sources supply ~10 edges/node, targets demand ~1 edge/node.
        b.edge(
            t1,
            p,
            t2,
            Distribution::uniform(1, 1),
            Distribution::uniform(10, 10),
        );
        let cfg = GraphConfig::new(1000, b.build().unwrap());
        let issues = cfg.validate();
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::InconsistentDegrees { .. })));
    }

    #[test]
    fn validation_flags_missing_edge_budget() {
        let mut b = SchemaBuilder::new();
        let t = b.node_type("t", Occurrence::Proportion(1.0));
        let p = b.predicate("p", None);
        b.edge(
            t,
            p,
            t,
            Distribution::NonSpecified,
            Distribution::NonSpecified,
        );
        let cfg = GraphConfig::new(100, b.build().unwrap());
        assert!(cfg
            .validate()
            .iter()
            .any(|i| matches!(i, ValidationIssue::NoEdgeBudget { .. })));
    }

    #[test]
    fn validation_accepts_consistent_config() {
        let cfg = GraphConfig::new(10_000, example_3_3());
        // The example schema is built to be roughly consistent; only the
        // Zipf/Gaussian pairing on `a` may drift, so just assert the check
        // runs and produces no proportion issues.
        let issues = cfg.validate();
        assert!(!issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::TypeProportionsExceedOne { .. })));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Distribution::uniform(1, 2).to_string(), "uniform[1,2]");
        assert_eq!(Distribution::NonSpecified.to_string(), "nonspecified");
        assert_eq!(TypeId(3).to_string(), "T3");
    }
}
