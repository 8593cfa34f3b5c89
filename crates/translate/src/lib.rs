//! UCRPQ translators into four concrete query syntaxes.
//!
//! Fig. 1 of the paper: the gMark query translator emits workloads as
//! SPARQL 1.1, openCypher, PostgreSQL SQL:1999, and Datalog. This crate
//! implements all four:
//!
//! * [`sparql`] — SPARQL 1.1 property paths (`/`, `|`, `*`, `^`), `SELECT
//!   DISTINCT` / `ASK`, `UNION` across rules;
//! * [`cypher`] — openCypher `MATCH` patterns. As Section 7.1 documents,
//!   openCypher cannot express inverses or concatenations under a Kleene
//!   star; the translator writes the query `gmark_core::cypher::degrade`
//!   leaves (the one the in-repo `G` engine evaluates) and flags each loss
//!   in a comment;
//! * [`sql`] — SQL:1999 over an `edge(src, label, trg)` table, with one
//!   `WITH RECURSIVE` CTE per starred conjunct using the standard linear
//!   recursion, per the paper's footnote 4;
//! * [`datalog`] — positive Datalog rules over `edge_<label>/2` and
//!   `node/1` EDB predicates, rendered from the program `D` evaluates
//!   (`gmark_core::datalog::Program`).
//!
//! All translators are deterministic; generated text depends only on the
//! query and schema.

#![warn(missing_docs)]

pub mod cypher;
pub mod datalog;
pub mod sparql;
pub mod sql;
pub mod stream;

pub use stream::{
    stream_workload, write_workload, StreamSummary, WorkloadOutputs, WorkloadStreamError,
    WorkloadStreamOptions,
};

use gmark_core::query::Query;
use gmark_core::schema::Schema;

/// An error raised while translating one query. Translation of queries
/// validated by `Query::new` cannot fail; the variants exist so hand-built
/// rules propagate a clean error (tagged with the query index by the
/// workload pipeline) instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateError {
    /// A head variable that no body conjunct binds (the SQL projection,
    /// the Datalog `ans` head).
    UnboundHeadVar {
        /// The unbound variable's number.
        var: u32,
    },
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::UnboundHeadVar { var } => {
                write!(f, "head variable ?x{var} is bound by no conjunct")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

/// Which syntaxes to emit; `translate_all` produces each of the paper's
/// four output languages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Syntax {
    /// SPARQL 1.1.
    Sparql,
    /// openCypher.
    Cypher,
    /// PostgreSQL SQL:1999.
    Sql,
    /// Datalog.
    Datalog,
}

impl Syntax {
    /// All four syntaxes, in the paper's Fig. 1 order.
    pub const ALL: [Syntax; 4] = [Syntax::Sparql, Syntax::Cypher, Syntax::Sql, Syntax::Datalog];

    /// The line-comment leader of this syntax, used for the per-query
    /// headers in the streamed workload documents.
    pub fn comment_prefix(self) -> &'static str {
        match self {
            Syntax::Sparql => "#",
            Syntax::Cypher => "//",
            Syntax::Sql => "--",
            Syntax::Datalog => "%",
        }
    }
}

impl std::fmt::Display for Syntax {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Syntax::Sparql => "sparql",
            Syntax::Cypher => "cypher",
            Syntax::Sql => "sql",
            Syntax::Datalog => "datalog",
        };
        write!(f, "{s}")
    }
}

/// Translates a query into one syntax.
pub fn translate(query: &Query, schema: &Schema, syntax: Syntax) -> Result<String, TranslateError> {
    match syntax {
        Syntax::Sparql => Ok(sparql::translate(query, schema)),
        Syntax::Cypher => Ok(cypher::translate(query, schema)),
        Syntax::Sql => sql::translate(query, schema),
        Syntax::Datalog => datalog::translate(query, schema),
    }
}

/// Translates a query into all four syntaxes.
pub fn translate_all(
    query: &Query,
    schema: &Schema,
) -> Result<Vec<(Syntax, String)>, TranslateError> {
    Syntax::ALL
        .iter()
        .map(|&s| Ok((s, translate(query, schema, s)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmark_core::query::{Conjunct, PathExpr, Query, RegularExpr, Rule, Symbol, Var};
    use gmark_core::schema::{Occurrence, PredicateId, SchemaBuilder};

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new();
        b.node_type("t", Occurrence::Proportion(1.0));
        b.predicate("a", None);
        b.predicate("b", None);
        b.predicate("c", None);
        b.build().unwrap()
    }

    fn example_query() -> Query {
        // (?x, ?y) <- (?x, (a·b + c)*, ?y)
        let a = Symbol::forward(PredicateId(0));
        let b = Symbol::forward(PredicateId(1));
        let c = Symbol::forward(PredicateId(2));
        Query::single(Rule {
            head: vec![Var(0), Var(1)],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::star(vec![PathExpr(vec![a, b]), PathExpr(vec![c])]),
                trg: Var(1),
            }],
        })
        .unwrap()
    }

    #[test]
    fn translate_all_produces_four_outputs() {
        let q = example_query();
        let s = schema();
        let all = translate_all(&q, &s).unwrap();
        assert_eq!(all.len(), 4);
        for (syntax, text) in all {
            assert!(!text.is_empty(), "{syntax} output empty");
        }
    }

    #[test]
    fn syntax_display_names() {
        assert_eq!(Syntax::Sparql.to_string(), "sparql");
        assert_eq!(Syntax::Datalog.to_string(), "datalog");
    }

    #[test]
    fn unbound_head_var_is_an_error_not_a_panic() {
        // Bypass Query::new's safety check to exercise the error paths.
        let q = Query {
            rules: vec![Rule {
                head: vec![Var(7)],
                body: vec![Conjunct {
                    src: Var(0),
                    expr: RegularExpr::symbol(Symbol::forward(PredicateId(0))),
                    trg: Var(1),
                }],
            }],
        };
        for syntax in [Syntax::Sql, Syntax::Datalog] {
            let err = translate(&q, &schema(), syntax).unwrap_err();
            assert_eq!(err, TranslateError::UnboundHeadVar { var: 7 });
            assert!(err.to_string().contains("?x7"), "{err}");
        }
    }
}
