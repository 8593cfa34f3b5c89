//! The selectivity-class algebra (Sections 5.2.1–5.2.2; Table 1 and Fig. 7).
//!
//! For a binary query `Q` and node types `A`, `B`, the *selectivity class*
//! `sel_{A,B}(Q)` is a triple `(t_A, o, t_B)` with `t = Type(·) ∈ {1, N}`
//! (does the type's population grow with the graph?) and an operation
//! `o ∈ {=, <, >, ◇, ×}` describing how result pairs fan out:
//!
//! | `o` | per-`n1` fan | per-`n2` fan | α |
//! |-----|--------------|--------------|---|
//! | `=` | bounded      | bounded      | 0 or 1 |
//! | `<` | bounded      | not bounded  | 1 |
//! | `>` | not bounded  | bounded      | 1 |
//! | `◇` | not bounded  | not bounded  | 1 |
//! | `×` | not bounded  | not bounded  | 2 |
//!
//! Classes compose under disjunction `+` and concatenation `·` according to
//! the two tables of Fig. 7, which this module encodes verbatim (the
//! concatenation table is read in *(column, row)* order, validated against
//! the paper's worked examples: `< · > = ◇`, `> · < = ×`, Example 5.4).

use crate::query::{PathExpr, Query, RegularExpr, Rule, Symbol, Var};
use crate::schema::{Schema, TypeId};
use rustc_hash::FxHashMap;

/// Cardinality side of a selectivity triple: `Type(T) = 1` (fixed) or `N`
/// (grows with the graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Card {
    /// `Type(T) = 1`: a fixed-size type (occurrence constraint is a constant).
    One,
    /// `Type(T) = N`: a type growing with the graph (proportional constraint).
    Many,
}

impl Card {
    /// The cardinality of a schema type.
    pub fn of(schema: &Schema, t: TypeId) -> Card {
        if schema.type_grows(t) {
            Card::Many
        } else {
            Card::One
        }
    }
}

impl std::fmt::Display for Card {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Card::One => write!(f, "1"),
            Card::Many => write!(f, "N"),
        }
    }
}

/// The five algebraic operations of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SelOp {
    /// `=` — both fans bounded.
    Eq,
    /// `<` — e.g. a Zipfian out-distribution (`(language, user)` pairs).
    Less,
    /// `>` — symmetric to `<`.
    Greater,
    /// `◇` — `<` followed by `>` ("pairs of users known by someone in
    /// common"): both fans unbounded but the result stays linear.
    Diamond,
    /// `×` — `>` followed by `<`: a Cartesian-product-like blow-up; α = 2.
    Cross,
}

impl SelOp {
    /// All operations in table order.
    pub const ALL: [SelOp; 5] = [
        SelOp::Eq,
        SelOp::Less,
        SelOp::Greater,
        SelOp::Diamond,
        SelOp::Cross,
    ];

    fn idx(self) -> usize {
        match self {
            SelOp::Eq => 0,
            SelOp::Less => 1,
            SelOp::Greater => 2,
            SelOp::Diamond => 3,
            SelOp::Cross => 4,
        }
    }

    /// Disjunction table, Fig. 7(a). Symmetric.
    pub fn disjoin(self, other: SelOp) -> SelOp {
        use SelOp::*;
        // Rows/columns ordered =, <, >, ◇, ×.
        const TABLE: [[SelOp; 5]; 5] = [
            [Eq, Less, Greater, Diamond, Cross],
            [Less, Less, Diamond, Diamond, Cross],
            [Greater, Diamond, Greater, Diamond, Cross],
            [Diamond, Diamond, Diamond, Diamond, Cross],
            [Cross, Cross, Cross, Cross, Cross],
        ];
        TABLE[self.idx()][other.idx()]
    }

    /// Concatenation table, Fig. 7(b), read in (column, row) order:
    /// `self` (the first operand) selects the column, `other` (the second)
    /// selects the row.
    pub fn concat(self, other: SelOp) -> SelOp {
        use SelOp::*;
        // TABLE[row = o2][col = o1], rows/cols ordered =, <, >, ◇, ×.
        const TABLE: [[SelOp; 5]; 5] = [
            [Eq, Less, Greater, Diamond, Cross],
            [Less, Less, Cross, Cross, Cross],
            [Greater, Diamond, Greater, Diamond, Cross],
            [Diamond, Diamond, Cross, Cross, Cross],
            [Cross, Cross, Cross, Cross, Cross],
        ];
        TABLE[other.idx()][self.idx()]
    }

    /// The operation of the inverse query: `<` and `>` swap; `=`, `◇`, `×`
    /// are direction-symmetric.
    pub fn inverse(self) -> SelOp {
        match self {
            SelOp::Less => SelOp::Greater,
            SelOp::Greater => SelOp::Less,
            o => o,
        }
    }
}

impl std::fmt::Display for SelOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SelOp::Eq => "=",
            SelOp::Less => "<",
            SelOp::Greater => ">",
            SelOp::Diamond => "\u{25C7}",
            SelOp::Cross => "\u{00D7}",
        };
        write!(f, "{s}")
    }
}

/// A selectivity triple `(t1, o, t2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SelTriple {
    /// Left cardinality `t1`.
    pub left: Card,
    /// Operation `o`.
    pub op: SelOp,
    /// Right cardinality `t2`.
    pub right: Card,
}

impl SelTriple {
    /// Creates and normalizes a triple.
    pub fn new(left: Card, op: SelOp, right: Card) -> SelTriple {
        SelTriple { left, op, right }.normalized()
    }

    /// Normalization (Section 5.2.2, final remark): when an endpoint has
    /// cardinality 1, "the operator solely relies on the other one", making
    /// `(1,=,1)`, `(1,<,N)`, `(N,>,1)` the only permitted triples containing
    /// a 1; any other such triple produced by the algebra is coerced.
    pub fn normalized(self) -> SelTriple {
        match (self.left, self.right) {
            (Card::One, Card::One) => SelTriple {
                left: Card::One,
                op: SelOp::Eq,
                right: Card::One,
            },
            (Card::One, Card::Many) => SelTriple {
                left: Card::One,
                op: SelOp::Less,
                right: Card::Many,
            },
            (Card::Many, Card::One) => SelTriple {
                left: Card::Many,
                op: SelOp::Greater,
                right: Card::One,
            },
            (Card::Many, Card::Many) => self,
        }
    }

    /// The identity (ε) triple of a type: `sel_{A,A}(ε) = (Type(A), =, Type(A))`.
    pub fn identity(card: Card) -> SelTriple {
        SelTriple {
            left: card,
            op: SelOp::Eq,
            right: card,
        }
    }

    /// Whether this triple is already in normal form.
    pub fn is_permitted(self) -> bool {
        self == self.normalized()
    }

    /// All eight permitted triples.
    pub fn permitted() -> Vec<SelTriple> {
        let mut v = vec![
            SelTriple {
                left: Card::One,
                op: SelOp::Eq,
                right: Card::One,
            },
            SelTriple {
                left: Card::One,
                op: SelOp::Less,
                right: Card::Many,
            },
            SelTriple {
                left: Card::Many,
                op: SelOp::Greater,
                right: Card::One,
            },
        ];
        for op in SelOp::ALL {
            v.push(SelTriple {
                left: Card::Many,
                op,
                right: Card::Many,
            });
        }
        v
    }

    /// Concatenation of triples (middle cardinalities must agree).
    pub fn concat(self, other: SelTriple) -> SelTriple {
        debug_assert_eq!(
            self.right, other.left,
            "concat requires matching middle type card"
        );
        SelTriple::new(self.left, self.op.concat(other.op), other.right)
    }

    /// Disjunction of triples (endpoint cardinalities must agree).
    pub fn disjoin(self, other: SelTriple) -> SelTriple {
        debug_assert_eq!(self.left, other.left);
        debug_assert_eq!(self.right, other.right);
        SelTriple::new(self.left, self.op.disjoin(other.op), self.right)
    }

    /// The triple of the inverse query.
    pub fn inverse(self) -> SelTriple {
        SelTriple::new(self.right, self.op.inverse(), self.left)
    }

    /// The estimated exponent: `(1,=,1) → 0`, `(N,×,N) → 2`, else `1`.
    pub fn alpha(self) -> u8 {
        match (self.left, self.op, self.right) {
            (Card::One, SelOp::Eq, Card::One) => 0,
            (Card::Many, SelOp::Cross, Card::Many) => 2,
            _ => 1,
        }
    }
}

impl std::fmt::Display for SelTriple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{},{})", self.left, self.op, self.right)
    }
}

/// Map from `(A, B)` node-type pairs to the selectivity class of a query
/// restricted to those endpoint types.
pub type ClassMap = FxHashMap<(TypeId, TypeId), SelTriple>;

/// Schema-driven selectivity estimator for UCRPQ queries.
///
/// Implements `sel_{A,B}(·)` for symbols, paths, disjunctions, stars
/// (Section 5.2.2) and whole binary chain rules, and the overall
/// `α̂(Q) = max_{A,B} α̂_{A,B}(Q)`.
pub struct Estimator<'a> {
    schema: &'a Schema,
}

impl<'a> Estimator<'a> {
    /// Creates an estimator over a schema.
    pub fn new(schema: &'a Schema) -> Self {
        Estimator { schema }
    }

    /// Base class of a symbol between two types, when the schema allows the
    /// corresponding edge (Example 5.1):
    ///
    /// * Zipfian out-distribution ⇒ `<`; Zipfian in-distribution ⇒ `>`;
    ///   both ⇒ `◇`; neither ⇒ `=` — then normalized against the endpoint
    ///   cardinalities.
    /// * `sel_{A,B}(a⁻)` is the inverse of `sel_{B,A}(a)`.
    pub fn symbol_class(&self, a: TypeId, b: TypeId, s: Symbol) -> Option<SelTriple> {
        if s.inverse {
            return self.symbol_class(b, a, s.flipped()).map(SelTriple::inverse);
        }
        // Several constraints may connect A --a--> B (rare but legal);
        // disjoin their classes.
        let mut acc: Option<SelTriple> = None;
        for c in self.schema.constraints() {
            if c.source == a && c.target == b && c.predicate == s.predicate {
                let op = match (c.dout.is_zipfian(), c.din.is_zipfian()) {
                    (true, false) => SelOp::Less,
                    (false, true) => SelOp::Greater,
                    (true, true) => SelOp::Diamond,
                    (false, false) => SelOp::Eq,
                };
                let t = SelTriple::new(Card::of(self.schema, a), op, Card::of(self.schema, b));
                acc = Some(match acc {
                    None => t,
                    Some(prev) => prev.disjoin(t),
                });
            }
        }
        acc
    }

    /// Classes of a path expression for all endpoint type pairs:
    /// `sel_{A,B}(p1·p2) = Σ_C sel_{A,C}(p1) · sel_{C,B}(p2)` where the sum
    /// is the disjunction aggregation.
    pub fn path_classes(&self, path: &PathExpr) -> ClassMap {
        let mut acc: ClassMap = FxHashMap::default();
        // ε: identity on every type.
        for t in self.schema.types() {
            acc.insert((t, t), SelTriple::identity(Card::of(self.schema, t)));
        }
        for &sym in &path.0 {
            let mut next: ClassMap = FxHashMap::default();
            for (&(a, c), &t1) in &acc {
                for b in self.schema.types() {
                    if let Some(t2) = self.symbol_class(c, b, sym) {
                        let composed = t1.concat(t2);
                        next.entry((a, b))
                            .and_modify(|t| *t = t.disjoin(composed))
                            .or_insert(composed);
                    }
                }
            }
            acc = next;
            if acc.is_empty() {
                break; // path not realizable in the schema
            }
        }
        acc
    }

    /// Classes of a regular expression (Section 5.2.2):
    /// disjuncts are merged with `+`; a star keeps only the `(A, A)` entries
    /// and squares them (`sel_{A,A}(p*) = sel_{A,A}(p) · sel_{A,A}(p)`).
    pub fn expr_classes(&self, expr: &RegularExpr) -> ClassMap {
        let mut acc: ClassMap = FxHashMap::default();
        for d in &expr.disjuncts {
            for ((a, b), t) in self.path_classes(d) {
                acc.entry((a, b))
                    .and_modify(|prev| *prev = prev.disjoin(t))
                    .or_insert(t);
            }
        }
        if expr.starred {
            let mut starred: ClassMap = FxHashMap::default();
            for (&(a, b), &t) in &acc {
                if a == b {
                    starred.insert((a, b), t.concat(t));
                }
            }
            starred
        } else {
            acc
        }
    }

    /// Classes of a binary chain rule: the body must form a simple path from
    /// `head[0]` to `head[1]` (traversing conjuncts forward or reversed);
    /// conjunct classes are concatenation-composed along the chain.
    ///
    /// Returns `None` for rules that are not binary chains — the paper
    /// guarantees selectivity estimation only for binary queries, and its
    /// experiments use chains (Section 7.1, remark iii).
    pub fn rule_classes(&self, rule: &Rule) -> Option<ClassMap> {
        if rule.head.len() != 2 {
            return None;
        }
        let chain = order_as_chain(rule, rule.head[0], rule.head[1])?;
        let mut acc: Option<ClassMap> = None;
        for (conjunct_idx, reversed) in chain {
            let expr = &rule.body[conjunct_idx].expr;
            let classes = if reversed {
                self.expr_classes(&expr.reversed())
            } else {
                self.expr_classes(expr)
            };
            acc = Some(match acc {
                None => classes,
                Some(prev) => {
                    let mut next: ClassMap = FxHashMap::default();
                    for (&(a, c), &t1) in &prev {
                        for (&(c2, b), &t2) in &classes {
                            if c == c2 {
                                let composed = t1.concat(t2);
                                next.entry((a, b))
                                    .and_modify(|t| *t = t.disjoin(composed))
                                    .or_insert(composed);
                            }
                        }
                    }
                    next
                }
            });
        }
        acc
    }

    /// Overall estimated exponent of a binary query:
    /// `α̂(Q) = max_{A,B} α̂_{A,B}(Q)` over all rules; `None` when no rule is
    /// a binary chain realizable in the schema.
    pub fn alpha(&self, query: &Query) -> Option<u8> {
        let mut best: Option<u8> = None;
        for rule in &query.rules {
            if let Some(classes) = self.rule_classes(rule) {
                for t in classes.values() {
                    let a = t.alpha();
                    best = Some(best.map_or(a, |b| b.max(a)));
                }
            }
        }
        best
    }
}

/// Orders a binary rule's body as a chain from `from` to `to`; each element
/// is `(conjunct index, reversed?)`. Returns `None` if the body is not a
/// simple path between the two variables using every conjunct exactly once.
fn order_as_chain(rule: &Rule, from: Var, to: Var) -> Option<Vec<(usize, bool)>> {
    let n = rule.body.len();
    let mut used = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut at = from;
    for _ in 0..n {
        let mut found = None;
        for (i, c) in rule.body.iter().enumerate() {
            if used[i] {
                continue;
            }
            if c.src == at {
                found = Some((i, false, c.trg));
                break;
            }
            if c.trg == at {
                found = Some((i, true, c.src));
                break;
            }
        }
        let (i, rev, next) = found?;
        used[i] = true;
        order.push((i, rev));
        at = next;
    }
    if at == to {
        Some(order)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Conjunct;
    use crate::schema::{Distribution, Occurrence, PredicateId, SchemaBuilder};

    use Card::*;
    use SelOp::*;

    #[test]
    fn disjunction_table_matches_fig_7a() {
        // Spot checks straight from the printed table.
        assert_eq!(Eq.disjoin(Eq), Eq);
        assert_eq!(Eq.disjoin(Less), Less);
        assert_eq!(Less.disjoin(Greater), Diamond);
        assert_eq!(Less.disjoin(Diamond), Diamond);
        assert_eq!(Greater.disjoin(Greater), Greater);
        assert_eq!(Diamond.disjoin(Diamond), Diamond);
        assert_eq!(Cross.disjoin(Eq), Cross);
        assert_eq!(Diamond.disjoin(Cross), Cross);
    }

    #[test]
    fn disjunction_is_commutative_and_idempotent() {
        for a in SelOp::ALL {
            assert_eq!(a.disjoin(a), a, "idempotence of {a}");
            for b in SelOp::ALL {
                assert_eq!(a.disjoin(b), b.disjoin(a), "commutativity {a},{b}");
            }
        }
    }

    #[test]
    fn concatenation_table_matches_fig_7b() {
        // The paper's own reading hints:
        // "× is the result of a > followed by a <"
        assert_eq!(Greater.concat(Less), Cross);
        // "◇ is the result of a < followed by a >"
        assert_eq!(Less.concat(Greater), Diamond);
        // Identity row/column.
        for o in SelOp::ALL {
            assert_eq!(Eq.concat(o), o);
            assert_eq!(o.concat(Eq), o);
        }
        // Remaining entries of the printed table.
        assert_eq!(Less.concat(Less), Less);
        assert_eq!(Less.concat(Diamond), Diamond);
        assert_eq!(Less.concat(Cross), Cross);
        assert_eq!(Greater.concat(Greater), Greater);
        assert_eq!(Greater.concat(Diamond), Cross);
        assert_eq!(Diamond.concat(Less), Cross);
        assert_eq!(Diamond.concat(Greater), Diamond);
        assert_eq!(Diamond.concat(Diamond), Cross);
        for o in SelOp::ALL {
            assert_eq!(Cross.concat(o), Cross);
            assert_eq!(o.concat(Cross), Cross);
        }
    }

    #[test]
    fn example_5_4_composition() {
        // (N,=,N) · (N,>,N) · (N,=,N) = (N,>,N): a linear query.
        let e = SelTriple::new(Many, Eq, Many);
        let g = SelTriple::new(Many, Greater, Many);
        let result = e.concat(g).concat(e);
        assert_eq!(result, SelTriple::new(Many, Greater, Many));
        assert_eq!(result.alpha(), 1);
    }

    #[test]
    fn normalization_rules() {
        // (1,×,1) and (1,◇,1) must normalize to (1,=,1).
        assert_eq!(
            SelTriple {
                left: One,
                op: Cross,
                right: One
            }
            .normalized(),
            SelTriple {
                left: One,
                op: Eq,
                right: One
            }
        );
        assert_eq!(
            SelTriple {
                left: One,
                op: Diamond,
                right: One
            }
            .normalized(),
            SelTriple {
                left: One,
                op: Eq,
                right: One
            }
        );
        // Any (1,·,N) coerces to (1,<,N); any (N,·,1) to (N,>,1).
        assert_eq!(
            SelTriple {
                left: One,
                op: Cross,
                right: Many
            }
            .normalized(),
            SelTriple {
                left: One,
                op: Less,
                right: Many
            }
        );
        assert_eq!(
            SelTriple {
                left: Many,
                op: Diamond,
                right: One
            }
            .normalized(),
            SelTriple {
                left: Many,
                op: Greater,
                right: One
            }
        );
        // (N,·,N) is untouched.
        let t = SelTriple {
            left: Many,
            op: Diamond,
            right: Many,
        };
        assert_eq!(t.normalized(), t);
    }

    #[test]
    fn permitted_triples_are_exactly_eight() {
        let p = SelTriple::permitted();
        assert_eq!(p.len(), 8);
        assert!(p.iter().all(|t| t.is_permitted()));
    }

    #[test]
    fn alpha_of_triples() {
        assert_eq!(SelTriple::new(One, Eq, One).alpha(), 0);
        assert_eq!(SelTriple::new(Many, Cross, Many).alpha(), 2);
        assert_eq!(SelTriple::new(Many, Eq, Many).alpha(), 1);
        assert_eq!(SelTriple::new(One, Less, Many).alpha(), 1);
        assert_eq!(SelTriple::new(Many, Diamond, Many).alpha(), 1);
    }

    #[test]
    fn inverse_of_triples() {
        assert_eq!(
            SelTriple::new(Many, Less, Many).inverse(),
            SelTriple::new(Many, Greater, Many)
        );
        assert_eq!(
            SelTriple::new(One, Less, Many).inverse(),
            SelTriple::new(Many, Greater, One)
        );
        let d = SelTriple::new(Many, Diamond, Many);
        assert_eq!(d.inverse(), d);
    }

    /// The schema of Example 3.3 with the distributions of Example 5.1:
    /// η(T1,T1,a) = (gaussian, zipfian), η(T1,T2,b) = (uniform, gaussian),
    /// η(T2,T2,b) = (gaussian, ns), η(T2,T3,b) = (ns, uniform).
    fn example_5_1_schema() -> Schema {
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
            Distribution::uniform(1, 2),
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
    fn example_5_1_base_classes() {
        let schema = example_5_1_schema();
        let est = Estimator::new(&schema);
        let t1 = TypeId(0);
        let t2 = TypeId(1);
        let t3 = TypeId(2);
        let a = Symbol::forward(PredicateId(0));
        let b = Symbol::forward(PredicateId(1));
        // sel_{T1,T1}(a) = (N,<,N), sel_{T1,T1}(a⁻) = (N,>,N)
        assert_eq!(
            est.symbol_class(t1, t1, a),
            Some(SelTriple::new(Many, Less, Many))
        );
        assert_eq!(
            est.symbol_class(t1, t1, a.flipped()),
            Some(SelTriple::new(Many, Greater, Many))
        );
        // sel_{T1,T2}(b) = (N,=,N) and its inverse
        assert_eq!(
            est.symbol_class(t1, t2, b),
            Some(SelTriple::new(Many, Eq, Many))
        );
        assert_eq!(
            est.symbol_class(t2, t1, b.flipped()),
            Some(SelTriple::new(Many, Eq, Many))
        );
        // sel_{T2,T2}(b) = (N,=,N)
        assert_eq!(
            est.symbol_class(t2, t2, b),
            Some(SelTriple::new(Many, Eq, Many))
        );
        // sel_{T2,T3}(b) = (N,>,1); sel_{T3,T2}(b⁻) = (1,<,N)
        assert_eq!(
            est.symbol_class(t2, t3, b),
            Some(SelTriple::new(Many, Greater, One))
        );
        assert_eq!(
            est.symbol_class(t3, t2, b.flipped()),
            Some(SelTriple::new(One, Less, Many))
        );
        // No a-edges from T2.
        assert_eq!(est.symbol_class(t2, t2, a), None);
    }

    #[test]
    fn path_classes_compose() {
        let schema = example_5_1_schema();
        let est = Estimator::new(&schema);
        let a = Symbol::forward(PredicateId(0));
        // a⁻ · a from T1 to T1: (N,>,N)·(N,<,N) = (N,×,N) — quadratic.
        let p = PathExpr(vec![a.flipped(), a]);
        let classes = est.path_classes(&p);
        assert_eq!(
            classes.get(&(TypeId(0), TypeId(0))),
            Some(&SelTriple::new(Many, Cross, Many))
        );
        // a · a⁻: (N,<,N)·(N,>,N) = (N,◇,N) — the "co-author" diamond.
        let p2 = PathExpr(vec![a, a.flipped()]);
        let classes2 = est.path_classes(&p2);
        assert_eq!(
            classes2.get(&(TypeId(0), TypeId(0))),
            Some(&SelTriple::new(Many, Diamond, Many))
        );
    }

    #[test]
    fn unrealizable_path_has_no_classes() {
        let schema = example_5_1_schema();
        let est = Estimator::new(&schema);
        let a = Symbol::forward(PredicateId(0));
        let b = Symbol::forward(PredicateId(1));
        // b then a: b leads to T2/T3, but a only leaves T1 — impossible.
        let p = PathExpr(vec![b, a]);
        assert!(est.path_classes(&p).is_empty());
    }

    #[test]
    fn star_squares_the_loop_class() {
        let schema = example_5_1_schema();
        let est = Estimator::new(&schema);
        let a = Symbol::forward(PredicateId(0));
        // (a)* on T1: sel(a) = (N,<,N); squared: < · < = < (still linear).
        let e = RegularExpr::star(vec![PathExpr::single(a)]);
        let classes = est.expr_classes(&e);
        assert_eq!(
            classes.get(&(TypeId(0), TypeId(0))),
            Some(&SelTriple::new(Many, Less, Many))
        );
        // (a·a⁻)* : diamond squared = cross — the paper's quadratic
        // transitive-closure example (knows hubs).
        let e2 = RegularExpr::star(vec![PathExpr(vec![a, a.flipped()])]);
        let classes2 = est.expr_classes(&e2);
        assert_eq!(
            classes2.get(&(TypeId(0), TypeId(0))),
            Some(&SelTriple::new(Many, Cross, Many))
        );
    }

    #[test]
    fn star_drops_non_loop_entries() {
        let schema = example_5_1_schema();
        let est = Estimator::new(&schema);
        let b = Symbol::forward(PredicateId(1));
        // b navigates T1→T2, T2→T2, T2→T3; under a star only the T2→T2
        // entry survives (input and output types must be equal).
        let e = RegularExpr::star(vec![PathExpr::single(b)]);
        let classes = est.expr_classes(&e);
        assert!(classes.contains_key(&(TypeId(1), TypeId(1))));
        assert!(!classes.contains_key(&(TypeId(0), TypeId(1))));
        assert!(!classes.contains_key(&(TypeId(1), TypeId(2))));
    }

    fn chain_rule(exprs: Vec<RegularExpr>) -> Rule {
        let n = exprs.len() as u32;
        Rule {
            head: vec![Var(0), Var(n)],
            body: exprs
                .into_iter()
                .enumerate()
                .map(|(i, expr)| Conjunct {
                    src: Var(i as u32),
                    expr,
                    trg: Var(i as u32 + 1),
                })
                .collect(),
        }
    }

    #[test]
    fn rule_alpha_quadratic_chain() {
        let schema = example_5_1_schema();
        let est = Estimator::new(&schema);
        let a = Symbol::forward(PredicateId(0));
        // (?x0, a⁻, ?x1), (?x1, a, ?x2): > then < = × ⇒ α = 2.
        let rule = chain_rule(vec![
            RegularExpr::symbol(a.flipped()),
            RegularExpr::symbol(a),
        ]);
        let q = Query::single(rule).unwrap();
        assert_eq!(est.alpha(&q), Some(2));
    }

    #[test]
    fn rule_alpha_constant_chain() {
        // Schema: two fixed types linked by a predicate — the
        // (country, language) example of Section 5.2.1.
        let mut b = SchemaBuilder::new();
        let country = b.node_type("country", Occurrence::Fixed(50));
        let language = b.node_type("language", Occurrence::Fixed(20));
        let spoken = b.predicate("spokenIn", None);
        b.edge(
            language,
            spoken,
            country,
            Distribution::uniform(0, 3),
            Distribution::uniform(1, 2),
        );
        let schema = b.build().unwrap();
        let est = Estimator::new(&schema);
        let rule = chain_rule(vec![RegularExpr::symbol(Symbol::forward(PredicateId(0)))]);
        let q = Query::single(rule).unwrap();
        assert_eq!(est.alpha(&q), Some(0));
    }

    #[test]
    fn rule_with_reversed_conjunct() {
        let schema = example_5_1_schema();
        let est = Estimator::new(&schema);
        let a = Symbol::forward(PredicateId(0));
        // Body lists (?x1, a, ?x0): traversed reversed from ?x0.
        let rule = Rule {
            head: vec![Var(0), Var(1)],
            body: vec![Conjunct {
                src: Var(1),
                expr: RegularExpr::symbol(a),
                trg: Var(0),
            }],
        };
        let q = Query::single(rule).unwrap();
        // Reversed a is a⁻: (N,>,N) ⇒ α = 1.
        assert_eq!(est.alpha(&q), Some(1));
    }

    #[test]
    fn two_branch_star_is_still_a_chain() {
        // A 2-branch star *is* a path between its two leaves, so it can be
        // typed by traversing the first conjunct in reverse.
        let schema = example_5_1_schema();
        let est = Estimator::new(&schema);
        let a = Symbol::forward(PredicateId(0));
        let rule = Rule {
            head: vec![Var(1), Var(2)],
            body: vec![
                Conjunct {
                    src: Var(0),
                    expr: RegularExpr::symbol(a),
                    trg: Var(1),
                },
                Conjunct {
                    src: Var(0),
                    expr: RegularExpr::symbol(a),
                    trg: Var(2),
                },
            ],
        };
        // a⁻ then a: (N,>,N)·(N,<,N) = (N,×,N) — quadratic.
        let classes = est.rule_classes(&rule).expect("path between leaves");
        assert_eq!(
            classes.get(&(TypeId(0), TypeId(0))),
            Some(&SelTriple::new(Many, Cross, Many))
        );
    }

    #[test]
    fn non_chain_rule_is_unestimated() {
        let schema = example_5_1_schema();
        let est = Estimator::new(&schema);
        let a = Symbol::forward(PredicateId(0));
        // Three branches from a shared center: the body is not a simple
        // path between the two head variables (one conjunct stays unused).
        let rule = Rule {
            head: vec![Var(1), Var(2)],
            body: vec![
                Conjunct {
                    src: Var(0),
                    expr: RegularExpr::symbol(a),
                    trg: Var(1),
                },
                Conjunct {
                    src: Var(0),
                    expr: RegularExpr::symbol(a),
                    trg: Var(2),
                },
                Conjunct {
                    src: Var(0),
                    expr: RegularExpr::symbol(a),
                    trg: Var(3),
                },
            ],
        };
        assert!(est.rule_classes(&rule).is_none());
    }

    #[test]
    fn concat_associativity_on_triples() {
        // The operation algebra should be associative on (N,·,N) triples —
        // a property the path composition relies on.
        for a in SelOp::ALL {
            for b in SelOp::ALL {
                for c in SelOp::ALL {
                    let left = a.concat(b).concat(c);
                    let right = a.concat(b.concat(c));
                    assert_eq!(left, right, "({a}·{b})·{c} != {a}·({b}·{c})");
                }
            }
        }
    }
}
