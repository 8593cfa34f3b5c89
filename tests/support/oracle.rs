//! A UCRPQ evaluator written from the definition, sharing no code with the
//! engines: it reads the generator's raw triples, not the store's CSR.
//!
//! Every regular expression becomes an `n × n` boolean matrix (one `u64`
//! bitset per row, so `n ≤ 64`): a symbol is its adjacency, an inverse
//! symbol the transpose, a concatenation the boolean product (`ε` is the
//! identity), a union the element-wise `or`, and a star Warshall's
//! transitive closure plus the identity. A rule's answers are the head
//! tuples of the assignments of its variables to nodes that satisfy every
//! conjunct; a query's answers are the union over its rules.

use gmark::prelude::*;
use std::collections::BTreeSet;

/// A square boolean matrix; bit `j` of `rows[i]` is entry `(i, j)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: Vec<u64>,
}

impl Matrix {
    fn empty(n: usize) -> Matrix {
        Matrix { rows: vec![0; n] }
    }

    fn identity(n: usize) -> Matrix {
        Matrix {
            rows: (0..n).map(|i| 1 << i).collect(),
        }
    }

    fn n(&self) -> usize {
        self.rows.len()
    }

    fn get(&self, i: usize, j: usize) -> bool {
        self.rows[i] >> j & 1 == 1
    }

    fn set(&mut self, i: usize, j: usize) {
        self.rows[i] |= 1 << j;
    }

    fn transpose(&self) -> Matrix {
        let mut t = Matrix::empty(self.n());
        for i in 0..self.n() {
            for j in 0..self.n() {
                if self.get(i, j) {
                    t.set(j, i);
                }
            }
        }
        t
    }

    /// The boolean product: `(i, j)` holds when some `k` has `(i, k)` here
    /// and `(k, j)` in `other`.
    fn product(&self, other: &Matrix) -> Matrix {
        let mut p = Matrix::empty(self.n());
        for i in 0..self.n() {
            for k in 0..self.n() {
                if self.get(i, k) {
                    p.rows[i] |= other.rows[k];
                }
            }
        }
        p
    }

    fn or(&self, other: &Matrix) -> Matrix {
        Matrix {
            rows: self
                .rows
                .iter()
                .zip(&other.rows)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    /// Warshall's transitive closure, plus the identity.
    fn star(&self) -> Matrix {
        let mut r = self.clone();
        for k in 0..self.n() {
            for i in 0..self.n() {
                if r.get(i, k) {
                    r.rows[i] |= r.rows[k];
                }
            }
        }
        r.or(&Matrix::identity(self.n()))
    }

    /// The diagonal, as a bitset: the nodes `v` with `(v, v)`.
    fn diagonal(&self) -> u64 {
        (0..self.n())
            .filter(|&v| self.get(v, v))
            .fold(0, |set, v| set | 1 << v)
    }
}

/// The graph as one adjacency matrix per predicate.
pub struct Oracle {
    n: usize,
    adjacency: Vec<Matrix>,
}

impl Oracle {
    /// The oracle over `n` nodes of the `(source, predicate, target)`
    /// triples; repeated triples are one edge.
    pub fn new(n: NodeId, predicates: usize, triples: &[(NodeId, usize, NodeId)]) -> Oracle {
        let n = n as usize;
        assert!(n <= 64, "the oracle's bitset rows hold at most 64 nodes");
        let mut adjacency = vec![Matrix::empty(n); predicates];
        for &(s, p, t) in triples {
            adjacency[p].set(s as usize, t as usize);
        }
        Oracle { n, adjacency }
    }

    fn symbol(&self, s: Symbol) -> Matrix {
        let a = &self.adjacency[s.predicate.0];
        if s.inverse {
            a.transpose()
        } else {
            a.clone()
        }
    }

    /// The relation of a regular expression.
    pub fn expr(&self, e: &RegularExpr) -> Matrix {
        let path = |p: &PathExpr| {
            p.0.iter()
                .fold(Matrix::identity(self.n), |m, &s| m.product(&self.symbol(s)))
        };
        let union = e
            .disjuncts
            .iter()
            .fold(Matrix::empty(self.n), |m, p| m.or(&path(p)));
        if e.starred {
            union.star()
        } else {
            union
        }
    }

    /// The distinct answer tuples of a query.
    pub fn answers(&self, q: &Query) -> BTreeSet<Vec<NodeId>> {
        let mut out = BTreeSet::new();
        for rule in &q.rules {
            Search::new(self, rule).assign(&mut Vec::new(), &mut out);
        }
        out
    }
}

/// One conjunct as a check on the variable assigned later: the set of
/// values the later variable may take, given the earlier one's value.
struct Check {
    /// Position of the earlier variable in the assignment order; `None`
    /// for a self-loop `(?x, e, ?x)`.
    earlier: Option<usize>,
    /// Row `u` of `rows`: the values allowed when the earlier variable is
    /// `u`.
    rows: Matrix,
}

/// The assignments of one rule's variables, in an order that puts the
/// head first and then each variable sharing a conjunct with one assigned
/// before it, where there is one.
struct Search<'r> {
    rule: &'r Rule,
    n: usize,
    order: Vec<Var>,
    heads: usize,
    checks: Vec<Vec<Check>>,
}

impl<'r> Search<'r> {
    fn new(oracle: &Oracle, rule: &'r Rule) -> Search<'r> {
        let mut order: Vec<Var> = Vec::new();
        for &v in &rule.head {
            if !order.contains(&v) {
                order.push(v);
            }
        }
        let heads = order.len();
        let mut rest: Vec<Var> = Vec::new();
        for c in &rule.body {
            for v in [c.src, c.trg] {
                if !order.contains(&v) && !rest.contains(&v) {
                    rest.push(v);
                }
            }
        }
        while !rest.is_empty() {
            let linked = |v: &Var| {
                rule.body.iter().any(|c| {
                    (c.src == *v && order.contains(&c.trg))
                        || (c.trg == *v && order.contains(&c.src))
                })
            };
            let next = rest.iter().position(linked).unwrap_or(0);
            order.push(rest.remove(next));
        }
        let pos = |v: Var| {
            order
                .iter()
                .position(|&w| w == v)
                .expect("every variable is ordered")
        };
        let mut checks: Vec<Vec<Check>> = (0..order.len()).map(|_| Vec::new()).collect();
        for c in &rule.body {
            let m = oracle.expr(&c.expr);
            let (s, t) = (pos(c.src), pos(c.trg));
            let check = if s == t {
                Check {
                    earlier: None,
                    rows: m,
                }
            } else if s < t {
                Check {
                    earlier: Some(s),
                    rows: m,
                }
            } else {
                Check {
                    earlier: Some(t),
                    rows: m.transpose(),
                }
            };
            checks[s.max(t)].push(check);
        }
        Search {
            rule,
            n: oracle.n,
            order,
            heads,
            checks,
        }
    }

    /// The values position `d` may take, given the values before it.
    fn candidates(&self, d: usize, vals: &[NodeId]) -> impl Iterator<Item = NodeId> {
        let all = if self.n == 64 {
            u64::MAX
        } else {
            (1 << self.n) - 1
        };
        let set = self.checks[d].iter().fold(all, |set, c| {
            set & match c.earlier {
                Some(e) => c.rows.rows[vals[e] as usize],
                None => c.rows.diagonal(),
            }
        });
        (0..self.n as NodeId).filter(move |&v| set >> v & 1 == 1)
    }

    /// Every assignment of the head variables that some assignment of the
    /// others extends to one satisfying the body.
    fn assign(&self, vals: &mut Vec<NodeId>, out: &mut BTreeSet<Vec<NodeId>>) {
        let d = vals.len();
        if d == self.heads {
            if self.extends(vals) {
                let at = |v: &Var| vals[self.order.iter().position(|w| w == v).unwrap()];
                out.insert(self.rule.head.iter().map(at).collect());
            }
            return;
        }
        for v in self.candidates(d, vals) {
            vals.push(v);
            self.assign(vals, out);
            vals.pop();
        }
    }

    /// Whether the assignment so far extends to all the variables.
    fn extends(&self, vals: &mut Vec<NodeId>) -> bool {
        let d = vals.len();
        if d == self.order.len() {
            return true;
        }
        for v in self.candidates(d, vals) {
            vals.push(v);
            let found = self.extends(vals);
            vals.pop();
            if found {
                return true;
            }
        }
        false
    }
}
