//! Unions of conjunctions of regular path queries (UCRPQ, Section 3.3).
//!
//! A *query rule* has the form
//!
//! ```text
//! (?v) <- (?x1, r1, ?y1), …, (?xn, rn, ?yn)
//! ```
//!
//! where each `ri` is a regular expression over `Σ± = {a, a⁻ | a ∈ Σ}`
//! using concatenation, disjunction, and Kleene star. Without loss of
//! generality (and exactly as the paper restricts), recursion appears only
//! at the outermost level: every expression has the shape
//! `(P1 + … + Pk)` or `(P1 + … + Pk)*` where each `Pi` is a concatenation
//! of symbols — modeled by [`RegularExpr`] holding [`PathExpr`] disjuncts
//! and a `starred` flag.
//!
//! A [`Query`] is a non-empty set of rules of equal arity; its semantics is
//! that of unions of conjunctive Datalog queries under set semantics.

use crate::schema::{PredicateId, Schema};
use std::fmt;

/// A query variable `?x_i`. Variables are numbered within a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?x{}", self.0)
    }
}

/// One symbol of `Σ±`: a predicate, optionally inverted (`a` or `a⁻`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol {
    /// The underlying predicate `a ∈ Σ`.
    pub predicate: PredicateId,
    /// Whether this occurrence is the inverse `a⁻`.
    pub inverse: bool,
}

impl Symbol {
    /// A forward symbol `a`.
    pub fn forward(predicate: PredicateId) -> Self {
        Symbol {
            predicate,
            inverse: false,
        }
    }

    /// An inverse symbol `a⁻`.
    pub fn inverse(predicate: PredicateId) -> Self {
        Symbol {
            predicate,
            inverse: true,
        }
    }

    /// The symbol with traversal direction flipped.
    pub fn flipped(self) -> Self {
        Symbol {
            predicate: self.predicate,
            inverse: !self.inverse,
        }
    }
}

/// A path expression: a concatenation of zero or more symbols of `Σ±`.
/// The empty path is the regular expression `ε`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PathExpr(pub Vec<Symbol>);

impl PathExpr {
    /// The empty path `ε`.
    pub fn epsilon() -> Self {
        PathExpr(Vec::new())
    }

    /// A single-symbol path.
    pub fn single(symbol: Symbol) -> Self {
        PathExpr(vec![symbol])
    }

    /// Path length (number of symbols).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether this is `ε`.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The reverse path: symbols reversed and each flipped, so that
    /// `p.reversed()` navigates `y → x` whenever `p` navigates `x → y`.
    pub fn reversed(&self) -> PathExpr {
        PathExpr(self.0.iter().rev().map(|s| s.flipped()).collect())
    }
}

/// A regular expression in the paper's outermost-star normal form:
/// `(P1 + … + Pk)` or `(P1 + … + Pk)*` with `k ≥ 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RegularExpr {
    /// The disjuncts `P1 … Pk`.
    pub disjuncts: Vec<PathExpr>,
    /// Whether the whole disjunction is under a Kleene star.
    pub starred: bool,
}

impl RegularExpr {
    /// The reverse expression: every disjunct [`PathExpr::reversed`], so
    /// that `e.reversed()` matches `y → x` whenever `e` matches `x → y`.
    pub fn reversed(&self) -> RegularExpr {
        RegularExpr {
            disjuncts: self.disjuncts.iter().map(PathExpr::reversed).collect(),
            starred: self.starred,
        }
    }

    /// A plain (non-starred) disjunction of paths.
    pub fn union(disjuncts: Vec<PathExpr>) -> Self {
        RegularExpr {
            disjuncts,
            starred: false,
        }
    }

    /// A starred disjunction `(P1 + … + Pk)*`.
    pub fn star(disjuncts: Vec<PathExpr>) -> Self {
        RegularExpr {
            disjuncts,
            starred: true,
        }
    }

    /// A single-path expression.
    pub fn path(p: PathExpr) -> Self {
        RegularExpr {
            disjuncts: vec![p],
            starred: false,
        }
    }

    /// A single-symbol expression.
    pub fn symbol(s: Symbol) -> Self {
        RegularExpr::path(PathExpr::single(s))
    }

    /// Number of disjuncts.
    pub fn disjunct_count(&self) -> usize {
        self.disjuncts.len()
    }

    /// Length of the longest disjunct path.
    pub fn max_path_len(&self) -> usize {
        self.disjuncts.iter().map(PathExpr::len).max().unwrap_or(0)
    }

    /// Whether the expression is recursive (contains a Kleene star).
    pub fn is_recursive(&self) -> bool {
        self.starred
    }

    /// All symbols occurring in the expression.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.disjuncts.iter().flat_map(|p| p.0.iter().copied())
    }
}

/// A conjunct (subgoal) `(?x, r, ?y)` of a rule body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conjunct {
    /// The source variable `?x`.
    pub src: Var,
    /// The regular expression `r`.
    pub expr: RegularExpr,
    /// The target variable `?y`.
    pub trg: Var,
}

/// A query rule `(?v) <- body`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The projection (head) variables `?v`; the rule's arity is their count.
    pub head: Vec<Var>,
    /// The body conjuncts.
    pub body: Vec<Conjunct>,
}

impl Rule {
    /// The rule's arity.
    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// All distinct variables of the body, in order of first occurrence.
    pub fn body_vars(&self) -> Vec<Var> {
        let mut vars = Vec::new();
        for c in &self.body {
            for v in [c.src, c.trg] {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        vars
    }

    /// Checks well-formedness: non-empty body, head variables appear in the
    /// body (safety), and every expression has at least one disjunct.
    pub fn well_formed(&self) -> Result<(), QueryError> {
        if self.body.is_empty() {
            return Err(QueryError::EmptyBody);
        }
        let vars = self.body_vars();
        for v in &self.head {
            if !vars.contains(v) {
                return Err(QueryError::UnsafeHeadVar(*v));
            }
        }
        for c in &self.body {
            if c.expr.disjuncts.is_empty() {
                return Err(QueryError::EmptyExpression);
            }
        }
        Ok(())
    }
}

/// A UCRPQ query: a non-empty set of rules of identical arity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The rules; their union defines the query.
    pub rules: Vec<Rule>,
}

impl Query {
    /// Builds a query from rules, checking non-emptiness, arity agreement,
    /// and per-rule well-formedness.
    pub fn new(rules: Vec<Rule>) -> Result<Self, QueryError> {
        if rules.is_empty() {
            return Err(QueryError::NoRules);
        }
        let arity = rules[0].arity();
        for r in &rules {
            if r.arity() != arity {
                return Err(QueryError::MixedArity);
            }
            r.well_formed()?;
        }
        Ok(Query { rules })
    }

    /// Builds a single-rule query.
    pub fn single(rule: Rule) -> Result<Self, QueryError> {
        Query::new(vec![rule])
    }

    /// The query's arity (0 for Boolean queries).
    pub fn arity(&self) -> usize {
        self.rules[0].arity()
    }

    /// Whether any conjunct of any rule is recursive.
    pub fn is_recursive(&self) -> bool {
        self.rules
            .iter()
            .any(|r| r.body.iter().any(|c| c.expr.is_recursive()))
    }

    /// The query-size tuple `(#rules, max #conjuncts, max #disjuncts,
    /// max path length)` as defined in Section 3.3.
    pub fn size(&self) -> (usize, usize, usize, usize) {
        let rules = self.rules.len();
        let conjuncts = self.rules.iter().map(|r| r.body.len()).max().unwrap_or(0);
        let disjuncts = self
            .rules
            .iter()
            .flat_map(|r| r.body.iter().map(|c| c.expr.disjunct_count()))
            .max()
            .unwrap_or(0);
        let length = self
            .rules
            .iter()
            .flat_map(|r| r.body.iter().map(|c| c.expr.max_path_len()))
            .max()
            .unwrap_or(0);
        (rules, conjuncts, disjuncts, length)
    }

    /// Renders the query in the paper's rule notation using schema names.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> QueryDisplay<'a> {
        QueryDisplay {
            query: self,
            schema,
        }
    }
}

/// Errors raised by [`Query::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// No rules supplied.
    NoRules,
    /// Rules disagree on arity.
    MixedArity,
    /// A rule has an empty body.
    EmptyBody,
    /// A head variable does not occur in the body.
    UnsafeHeadVar(Var),
    /// A conjunct has no disjuncts.
    EmptyExpression,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NoRules => write!(f, "query has no rules"),
            QueryError::MixedArity => write!(f, "rules have different arities"),
            QueryError::EmptyBody => write!(f, "rule has an empty body"),
            QueryError::UnsafeHeadVar(v) => write!(f, "head variable {v} not in body"),
            QueryError::EmptyExpression => write!(f, "conjunct has no disjuncts"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Pretty-printer for [`Query`] in the paper's notation, e.g.
/// `(?x0, ?x1) <- (?x0, (a·b + c)*, ?x1)`.
pub struct QueryDisplay<'a> {
    query: &'a Query,
    schema: &'a Schema,
}

impl QueryDisplay<'_> {
    fn fmt_symbol(&self, s: Symbol, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.schema.predicate_name(s.predicate))?;
        if s.inverse {
            write!(f, "\u{207B}")?; // superscript minus
        }
        Ok(())
    }

    fn fmt_path(&self, p: &PathExpr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if p.is_empty() {
            return write!(f, "\u{03B5}"); // ε
        }
        for (i, s) in p.0.iter().enumerate() {
            if i > 0 {
                write!(f, "\u{00B7}")?; // ·
            }
            self.fmt_symbol(*s, f)?;
        }
        Ok(())
    }

    fn fmt_expr(&self, e: &RegularExpr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let needs_parens = e.starred || e.disjuncts.len() > 1;
        if needs_parens {
            write!(f, "(")?;
        }
        for (i, p) in e.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            self.fmt_path(p, f)?;
        }
        if needs_parens {
            write!(f, ")")?;
        }
        if e.starred {
            write!(f, "*")?;
        }
        Ok(())
    }
}

impl fmt::Display for QueryDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, rule) in self.query.rules.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "(")?;
            for (j, v) in rule.head.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, ") <- ")?;
            for (j, c) in rule.body.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "({}, ", c.src)?;
                self.fmt_expr(&c.expr, f)?;
                write!(f, ", {})", c.trg)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Occurrence, SchemaBuilder};

    fn abc_schema() -> Schema {
        let mut b = SchemaBuilder::new();
        b.node_type("t", Occurrence::Proportion(1.0));
        b.predicate("a", None);
        b.predicate("b", None);
        b.predicate("c", None);
        b.build().unwrap()
    }

    /// The first rule of Example 3.4:
    /// `(?x,?y,?z) <- (?x, (a·b + c)*, ?y), (?y, a, ?w), (?w, b⁻, ?z)`.
    fn example_3_4_rule1() -> Rule {
        let a = PredicateId(0);
        let b = PredicateId(1);
        let c = PredicateId(2);
        let x = Var(0);
        let y = Var(1);
        let w = Var(2);
        let z = Var(3);
        Rule {
            head: vec![x, y, z],
            body: vec![
                Conjunct {
                    src: x,
                    expr: RegularExpr::star(vec![
                        PathExpr(vec![Symbol::forward(a), Symbol::forward(b)]),
                        PathExpr::single(Symbol::forward(c)),
                    ]),
                    trg: y,
                },
                Conjunct {
                    src: y,
                    expr: RegularExpr::symbol(Symbol::forward(a)),
                    trg: w,
                },
                Conjunct {
                    src: w,
                    expr: RegularExpr::symbol(Symbol::inverse(b)),
                    trg: z,
                },
            ],
        }
    }

    fn example_3_4_rule2() -> Rule {
        let a = PredicateId(0);
        let b = PredicateId(1);
        let c = PredicateId(2);
        let (x, y, z) = (Var(0), Var(1), Var(3));
        Rule {
            head: vec![x, y, z],
            body: vec![
                Conjunct {
                    src: x,
                    expr: RegularExpr::star(vec![
                        PathExpr(vec![Symbol::forward(a), Symbol::forward(b)]),
                        PathExpr::single(Symbol::forward(c)),
                    ]),
                    trg: y,
                },
                Conjunct {
                    src: y,
                    expr: RegularExpr::symbol(Symbol::forward(a)),
                    trg: z,
                },
            ],
        }
    }

    #[test]
    fn example_3_4_size_tuple() {
        // The paper states this query has size ([2,2],[2,3],[1,2],[1,2]).
        let q = Query::new(vec![example_3_4_rule1(), example_3_4_rule2()]).unwrap();
        assert_eq!(q.size(), (2, 3, 2, 2));
        assert_eq!(q.arity(), 3);
        assert!(q.is_recursive());
    }

    #[test]
    fn display_matches_paper_notation() {
        let q = Query::single(example_3_4_rule1()).unwrap();
        let s = q.display(&abc_schema()).to_string();
        assert_eq!(
            s,
            "(?x0, ?x1, ?x3) <- (?x0, (a\u{00B7}b + c)*, ?x1), \
             (?x1, a, ?x2), (?x2, b\u{207B}, ?x3)"
        );
    }

    #[test]
    fn epsilon_displays() {
        let q = Query::single(Rule {
            head: vec![Var(0)],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::path(PathExpr::epsilon()),
                trg: Var(1),
            }],
        })
        .unwrap();
        assert!(q.display(&abc_schema()).to_string().contains('\u{03B5}'));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let r1 = Rule {
            head: vec![Var(0)],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::symbol(Symbol::forward(PredicateId(0))),
                trg: Var(1),
            }],
        };
        let r2 = Rule {
            head: vec![],
            body: r1.body.clone(),
        };
        assert_eq!(
            Query::new(vec![r1, r2]).unwrap_err(),
            QueryError::MixedArity
        );
    }

    #[test]
    fn unsafe_head_rejected() {
        let r = Rule {
            head: vec![Var(9)],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::symbol(Symbol::forward(PredicateId(0))),
                trg: Var(1),
            }],
        };
        assert_eq!(
            Query::single(r).unwrap_err(),
            QueryError::UnsafeHeadVar(Var(9))
        );
    }

    #[test]
    fn empty_body_and_rules_rejected() {
        assert_eq!(Query::new(vec![]).unwrap_err(), QueryError::NoRules);
        let r = Rule {
            head: vec![],
            body: vec![],
        };
        assert_eq!(Query::single(r).unwrap_err(), QueryError::EmptyBody);
    }

    #[test]
    fn boolean_query_is_arity_zero() {
        let r = Rule {
            head: vec![],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::symbol(Symbol::forward(PredicateId(0))),
                trg: Var(1),
            }],
        };
        let q = Query::single(r).unwrap();
        assert_eq!(q.arity(), 0);
        assert!(!q.is_recursive());
    }

    #[test]
    fn path_reversal() {
        let a = Symbol::forward(PredicateId(0));
        let b_inv = Symbol::inverse(PredicateId(1));
        let p = PathExpr(vec![a, b_inv]);
        let r = p.reversed();
        assert_eq!(
            r.0,
            vec![
                Symbol::forward(PredicateId(1)),
                Symbol::inverse(PredicateId(0))
            ]
        );
        assert_eq!(r.reversed(), p);
    }

    #[test]
    fn body_vars_in_first_occurrence_order() {
        let r = example_3_4_rule1();
        assert_eq!(r.body_vars(), vec![Var(0), Var(1), Var(2), Var(3)]);
    }

    #[test]
    fn symbol_flip_is_involution() {
        let s = Symbol::forward(PredicateId(2));
        assert_eq!(s.flipped().flipped(), s);
        assert!(s.flipped().inverse);
    }
}
