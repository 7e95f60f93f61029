//! The Rust language binding (§2.4).
//!
//! "There will be multiple language bindings. These will map from the
//! language-specific representation to this parse tree format. In the style
//! of Ruby-on-Rails, LINQ and Hibernate, these language bindings will
//! attempt to fit large array manipulation cleanly into the target language
//! using the control structures of the language in question. In our
//! opinion, the data-sublanguage approach epitomized by ODBC and JDBC has
//! been a huge mistake."
//!
//! [`Q`] is that binding for Rust: a fluent builder whose methods mirror
//! the operator algebra and produce the same parse trees as the AQL text
//! front end — no string splicing, no interface code. `Q::to_aql()` renders
//! the canonical text for logging/provenance.

use crate::ast::{AExpr, AggArg, Stmt};
use scidb_core::expr::Expr;

/// A fluent array-expression builder.
#[derive(Debug, Clone, PartialEq)]
pub struct Q(AExpr);

/// Starts a pipeline from a stored array.
pub fn scan(name: impl Into<String>) -> Q {
    Q(AExpr::Scan(name.into()))
}

impl Q {
    /// `Subsample(self, pred)` — pred is a dimension predicate expression
    /// (checked for the §2.2.1 legality rule at plan time).
    pub fn subsample(self, pred: Expr) -> Q {
        Q(AExpr::Subsample {
            input: self.0.boxed(),
            pred,
        })
    }

    /// `Filter(self, pred)`.
    pub fn filter(self, pred: Expr) -> Q {
        Q(AExpr::Filter {
            input: self.0.boxed(),
            pred,
        })
    }

    /// `Aggregate(self, {dims}, agg(*))`.
    pub fn aggregate_star(self, dims: &[&str], agg: &str) -> Q {
        Q(AExpr::Aggregate {
            input: self.0.boxed(),
            group: dims.iter().map(|s| s.to_string()).collect(),
            agg: agg.to_string(),
            arg: AggArg::Star,
        })
    }

    /// `Aggregate(self, {dims}, agg(attr))`.
    pub fn aggregate(self, dims: &[&str], agg: &str, attr: &str) -> Q {
        Q(AExpr::Aggregate {
            input: self.0.boxed(),
            group: dims.iter().map(|s| s.to_string()).collect(),
            agg: agg.to_string(),
            arg: AggArg::Attr(attr.to_string()),
        })
    }

    /// `Sjoin(self, other, pairs)`.
    pub fn sjoin(self, other: Q, on: &[(&str, &str)]) -> Q {
        Q(AExpr::Sjoin {
            left: self.0.boxed(),
            right: other.0.boxed(),
            on: on
                .iter()
                .map(|(l, r)| (l.to_string(), r.to_string()))
                .collect(),
        })
    }

    /// `Cjoin(self, other, pred)`.
    pub fn cjoin(self, other: Q, pred: Expr) -> Q {
        Q(AExpr::Cjoin {
            left: self.0.boxed(),
            right: other.0.boxed(),
            pred,
        })
    }

    /// `Apply(self, name, expr)`.
    pub fn apply(self, name: &str, expr: Expr) -> Q {
        Q(AExpr::Apply {
            input: self.0.boxed(),
            name: name.to_string(),
            expr,
        })
    }

    /// `Project(self, attrs…)`.
    pub fn project(self, attrs: &[&str]) -> Q {
        Q(AExpr::Project {
            input: self.0.boxed(),
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
        })
    }

    /// `Reshape(self, [order…], [new = 1:n…])`.
    pub fn reshape(self, order: &[&str], new_dims: &[(&str, i64)]) -> Q {
        Q(AExpr::Reshape {
            input: self.0.boxed(),
            order: order.iter().map(|s| s.to_string()).collect(),
            new_dims: new_dims.iter().map(|(n, e)| (n.to_string(), *e)).collect(),
        })
    }

    /// `Regrid(self, factors, agg)`.
    pub fn regrid(self, factors: &[i64], agg: &str) -> Q {
        Q(AExpr::Regrid {
            input: self.0.boxed(),
            factors: factors.to_vec(),
            agg: agg.to_string(),
        })
    }

    /// `Concat(self, other, dim)`.
    pub fn concat(self, other: Q, dim: &str) -> Q {
        Q(AExpr::Concat {
            left: self.0.boxed(),
            right: other.0.boxed(),
            dim: dim.to_string(),
        })
    }

    /// `Cross(self, other)`.
    pub fn cross(self, other: Q) -> Q {
        Q(AExpr::Cross {
            left: self.0.boxed(),
            right: other.0.boxed(),
        })
    }

    /// `AddDim(self, name)`.
    pub fn add_dim(self, name: &str) -> Q {
        Q(AExpr::AddDim {
            input: self.0.boxed(),
            name: name.to_string(),
        })
    }

    /// `Slice(self, dim, at)`.
    pub fn slice(self, dim: &str, at: i64) -> Q {
        Q(AExpr::Slice {
            input: self.0.boxed(),
            dim: dim.to_string(),
            at,
        })
    }

    /// The underlying parse tree.
    pub fn build(self) -> AExpr {
        self.0
    }

    /// As a query statement.
    pub fn into_stmt(self) -> Stmt {
        Stmt::Query(self.0)
    }

    /// Canonical AQL text for this pipeline.
    pub fn to_aql(&self) -> String {
        self.0.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Database;
    use crate::parser::parse_one;
    use scidb_core::value::Value;

    #[test]
    fn binding_builds_same_tree_as_parser() {
        // The same pipeline written in both front ends lowers to one tree.
        let from_rust = scan("H")
            .filter(Expr::attr("v").gt(Expr::lit(4i64)))
            .aggregate_star(&["Y"], "sum")
            .build();
        let from_text = parse_one("aggregate(filter(scan(H), v > 4), {Y}, sum(*))").unwrap();
        assert_eq!(crate::ast::Stmt::Query(from_rust), from_text);
    }

    #[test]
    fn to_aql_roundtrips_through_parser() {
        let q = scan("A")
            .subsample(Expr::attr("X").le(Expr::lit(8i64)))
            .apply("dbl", Expr::attr("v").mul(Expr::lit(2i64)))
            .project(&["dbl"]);
        let text = q.to_aql();
        let reparsed = parse_one(&text).unwrap();
        assert_eq!(reparsed, q.clone().into_stmt());
    }

    #[test]
    fn binding_executes_against_database() {
        let mut db = Database::new();
        db.run(
            "define T (v = int) (X = 1:4);
             create A as T [4];
             insert into A[1] values (10); insert into A[2] values (20);
             insert into A[3] values (30); insert into A[4] values (40);",
        )
        .unwrap();
        let stmt = scan("A")
            .subsample(Expr::attr("X").ge(Expr::lit(3i64)))
            .aggregate(&[], "sum", "v")
            .into_stmt();
        let out = db.session().execute(stmt).unwrap().into_array().unwrap();
        assert_eq!(out.get_cell(&[1]), Some(vec![Value::from(70i64)]));
    }

    #[test]
    fn join_and_structure_builders() {
        let q = scan("A")
            .sjoin(scan("B"), &[("i", "i")])
            .add_dim("layer")
            .slice("layer", 1);
        assert_eq!(
            q.to_aql(),
            "slice(adddim(sjoin(scan(A), scan(B), left.i = right.i), layer), layer, 1)"
        );
    }

    #[test]
    fn reshape_and_regrid_builders() {
        let q = scan("G")
            .reshape(&["X", "Z", "Y"], &[("U", 8), ("V", 3)])
            .regrid(&[2, 1], "avg");
        let reparsed = parse_one(&q.to_aql()).unwrap();
        assert_eq!(reparsed, q.into_stmt());
    }
}
