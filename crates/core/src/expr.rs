//! A small expression language over cell attributes and dimension values.
//!
//! Used by the content-dependent operators (§2.2.2): `Filter` takes "a
//! predicate P over the data values that are stored in the cells", `Apply`
//! computes new attribute values, and user-defined functions (§2.3) are
//! callable from expressions through the [`crate::registry::Registry`].
//!
//! Semantics:
//! * NULL propagates through arithmetic and comparisons (three-valued
//!   logic with Kleene AND/OR), matching the NULL cells produced by Filter.
//! * Arithmetic on `uncertain float` operands performs the §2.13
//!   error-propagating arithmetic automatically — the executor-level
//!   "interval arithmetic when combining uncertain elements".

use crate::error::{Error, Result};
use crate::registry::Registry;
use crate::schema::ArraySchema;
use crate::value::{Record, Scalar, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Modulo (integers only).
    Mod,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical AND (Kleene).
    And,
    /// Logical OR (Kleene).
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Logical NOT (Kleene).
    Not,
}

/// An expression over one cell: its attributes, its dimension coordinates,
/// constants, operators, and registered functions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// An attribute of the cell record, by name.
    Attr(String),
    /// A dimension coordinate of the cell, by name.
    Dim(String),
    /// A literal.
    Const(Scalar),
    /// The NULL literal.
    Null,
    /// Unary operator application.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operator application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Call of a registered scalar function (§2.3 extendibility).
    Func(String, Vec<Expr>),
    /// `x IS NULL`.
    IsNull(Box<Expr>),
}

impl Expr {
    /// Attribute reference.
    pub fn attr(name: impl Into<String>) -> Expr {
        Expr::Attr(name.into())
    }
    /// Dimension reference.
    pub fn dim(name: impl Into<String>) -> Expr {
        Expr::Dim(name.into())
    }
    /// Literal.
    pub fn lit(v: impl Into<Scalar>) -> Expr {
        Expr::Const(v.into())
    }
    /// Function call.
    pub fn func(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Func(name.into(), args)
    }
    /// Builder: `self + rhs`.
    #[allow(clippy::should_implement_trait)] // by-value builder DSL, not arithmetic
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Add, Box::new(self), Box::new(rhs))
    }
    /// Builder: `self - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Sub, Box::new(self), Box::new(rhs))
    }
    /// Builder: `self * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Mul, Box::new(self), Box::new(rhs))
    }
    /// Builder: `self / rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Div, Box::new(self), Box::new(rhs))
    }
    /// Builder: `self = rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Eq, Box::new(self), Box::new(rhs))
    }
    /// Builder: `self != rhs`.
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Ne, Box::new(self), Box::new(rhs))
    }
    /// Builder: `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Lt, Box::new(self), Box::new(rhs))
    }
    /// Builder: `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Le, Box::new(self), Box::new(rhs))
    }
    /// Builder: `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Gt, Box::new(self), Box::new(rhs))
    }
    /// Builder: `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Ge, Box::new(self), Box::new(rhs))
    }
    /// Builder: `self AND rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::And, Box::new(self), Box::new(rhs))
    }
    /// Builder: `self OR rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Or, Box::new(self), Box::new(rhs))
    }
    /// Builder: `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Unary(UnaryOp::Not, Box::new(self))
    }
    /// Builder: `self IS NULL`.
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }

    /// Names of attributes referenced by the expression.
    pub fn referenced_attrs(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Attr(n) = e {
                out.push(n.as_str());
            }
        });
        out
    }

    fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Unary(_, e) | Expr::IsNull(e) => e.walk(f),
            Expr::Binary(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Func(_, args) => args.iter().for_each(|a| a.walk(f)),
            _ => {}
        }
    }
}

/// Evaluation context: one cell of one array.
pub struct EvalContext<'a> {
    /// Schema of the array being scanned (for name resolution).
    pub schema: &'a ArraySchema,
    /// The cell's dimension coordinates.
    pub coords: &'a [i64],
    /// The cell's record.
    pub record: &'a Record,
    /// Function registry for `Expr::Func`; `None` disables UDF calls.
    pub registry: Option<&'a Registry>,
}

impl Expr {
    /// Evaluates against one cell.
    pub fn eval(&self, ctx: &EvalContext<'_>) -> Result<Value> {
        match self {
            Expr::Const(s) => Ok(Value::Scalar(s.clone())),
            Expr::Null => Ok(Value::Null),
            Expr::Attr(name) => {
                let idx = ctx.schema.require_attr(name)?;
                Ok(ctx.record.get(idx).cloned().unwrap_or(Value::Null))
            }
            Expr::Dim(name) => {
                let idx = ctx.schema.require_dim(name)?;
                Ok(Value::from(ctx.coords[idx]))
            }
            Expr::IsNull(e) => Ok(Value::from(e.eval(ctx)?.is_null())),
            Expr::Unary(op, e) => {
                let v = e.eval(ctx)?;
                eval_unary(*op, v)
            }
            Expr::Binary(op, a, b) => {
                let va = a.eval(ctx)?;
                // Short-circuit AND/OR need Kleene handling, done inside.
                let vb = b.eval(ctx)?;
                eval_binary(*op, va, vb)
            }
            Expr::Func(name, args) => {
                let registry = ctx
                    .registry
                    .ok_or_else(|| Error::eval(format!("no registry for function '{name}'")))?;
                let f = registry.scalar_fn(name)?;
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(ctx)?);
                }
                f.call(&vals)
            }
        }
    }

    /// Evaluates as a predicate: `Some(true/false)` for a boolean result,
    /// `None` for NULL (unknown).
    pub fn eval_bool(&self, ctx: &EvalContext<'_>) -> Result<Option<bool>> {
        match self.eval(ctx)? {
            Value::Null => Ok(None),
            Value::Scalar(Scalar::Bool(b)) => Ok(Some(b)),
            other => Err(Error::eval(format!(
                "predicate evaluated to non-boolean {other}"
            ))),
        }
    }
}

fn eval_unary(op: UnaryOp, v: Value) -> Result<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    match (op, v.as_scalar()) {
        (UnaryOp::Neg, Some(Scalar::Int64(x))) => Ok(Value::from(x.wrapping_neg())),
        (UnaryOp::Neg, Some(Scalar::Float64(x))) => Ok(Value::from(-x)),
        (UnaryOp::Neg, Some(Scalar::Uncertain(u))) => Ok(Value::from(-*u)),
        (UnaryOp::Not, Some(Scalar::Bool(b))) => Ok(Value::from(!b)),
        (op, _) => Err(Error::eval(format!("cannot apply {op:?} to {v}"))),
    }
}

fn eval_binary(op: BinOp, a: Value, b: Value) -> Result<Value> {
    use BinOp::*;
    match op {
        And | Or => eval_logic(op, a, b),
        Eq | Ne | Lt | Le | Gt | Ge => eval_cmp(op, a, b),
        Add | Sub | Mul | Div | Mod => eval_arith(op, a, b),
    }
}

/// Kleene three-valued AND/OR.
fn eval_logic(op: BinOp, a: Value, b: Value) -> Result<Value> {
    let ab = (to_tri(&a)?, to_tri(&b)?);
    let out = match (op, ab) {
        (BinOp::And, (Some(false), _)) | (BinOp::And, (_, Some(false))) => Some(false),
        (BinOp::And, (Some(true), Some(true))) => Some(true),
        (BinOp::And, _) => None,
        (BinOp::Or, (Some(true), _)) | (BinOp::Or, (_, Some(true))) => Some(true),
        (BinOp::Or, (Some(false), Some(false))) => Some(false),
        (BinOp::Or, _) => None,
        _ => unreachable!(),
    };
    Ok(out.map_or(Value::Null, Value::from))
}

fn to_tri(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Scalar(Scalar::Bool(b)) => Ok(Some(*b)),
        other => Err(Error::eval(format!("expected boolean, got {other}"))),
    }
}

fn eval_cmp(op: BinOp, a: Value, b: Value) -> Result<Value> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    let (sa, sb) = (a.as_scalar().unwrap(), b.as_scalar().unwrap());
    let ord = sa
        .compare(sb)
        .ok_or_else(|| Error::eval(format!("cannot compare {sa} with {sb}")))?;
    use std::cmp::Ordering::*;
    let out = match op {
        BinOp::Eq => ord == Equal,
        BinOp::Ne => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        _ => unreachable!(),
    };
    Ok(Value::from(out))
}

fn eval_arith(op: BinOp, a: Value, b: Value) -> Result<Value> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    let (sa, sb) = (a.as_scalar().unwrap(), b.as_scalar().unwrap());
    // Uncertain operands trigger §2.13 error propagation.
    if matches!(sa, Scalar::Uncertain(_)) || matches!(sb, Scalar::Uncertain(_)) {
        let (ua, ub) = (
            sa.as_uncertain()
                .ok_or_else(|| Error::eval("non-numeric in uncertain arithmetic"))?,
            sb.as_uncertain()
                .ok_or_else(|| Error::eval("non-numeric in uncertain arithmetic"))?,
        );
        let r = match op {
            BinOp::Add => ua + ub,
            BinOp::Sub => ua - ub,
            BinOp::Mul => ua * ub,
            BinOp::Div => {
                if ub.mean == 0.0 {
                    return Ok(Value::Null);
                }
                ua / ub
            }
            BinOp::Mod => return Err(Error::eval("modulo undefined for uncertain values")),
            _ => unreachable!(),
        };
        return Ok(Value::from(r));
    }
    // Integer arithmetic stays integral and wraps, as in `ops::batch`.
    if let (Scalar::Int64(x), Scalar::Int64(y)) = (sa, sb) {
        let r = match op {
            BinOp::Add => x.wrapping_add(*y),
            BinOp::Sub => x.wrapping_sub(*y),
            BinOp::Mul => x.wrapping_mul(*y),
            BinOp::Div => {
                if *y == 0 {
                    return Ok(Value::Null);
                }
                x.wrapping_div(*y)
            }
            BinOp::Mod => {
                if *y == 0 {
                    return Ok(Value::Null);
                }
                x.wrapping_rem(*y)
            }
            _ => unreachable!(),
        };
        return Ok(Value::from(r));
    }
    // String concatenation via Add.
    if let (Scalar::String(x), Scalar::String(y)) = (sa, sb) {
        if op == BinOp::Add {
            return Ok(Value::from(format!("{x}{y}")));
        }
        return Err(Error::eval("only + is defined for strings"));
    }
    let (x, y) = (
        sa.as_f64()
            .ok_or_else(|| Error::eval(format!("non-numeric operand {sa}")))?,
        sb.as_f64()
            .ok_or_else(|| Error::eval(format!("non-numeric operand {sb}")))?,
    );
    let r = match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => {
            if y == 0.0 {
                return Ok(Value::Null);
            }
            x / y
        }
        BinOp::Mod => return Err(Error::eval("modulo requires integers")),
        _ => unreachable!(),
    };
    Ok(Value::from(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::uncertain::Uncertain;
    use crate::value::ScalarType;

    fn schema() -> ArraySchema {
        SchemaBuilder::new("T")
            .attr("x", ScalarType::Float64)
            .attr("n", ScalarType::Int64)
            .attr("u", ScalarType::UncertainFloat64)
            .dim("I", 10)
            .dim("J", 10)
            .build()
            .unwrap()
    }

    fn eval(e: &Expr, record: &Record) -> Value {
        let s = schema();
        let ctx = EvalContext {
            schema: &s,
            coords: &[3, 4],
            record,
            registry: None,
        };
        e.eval(&ctx).unwrap()
    }

    fn rec() -> Record {
        vec![
            Value::from(2.5),
            Value::from(7i64),
            Value::from(Uncertain::new(10.0, 1.0)),
        ]
    }

    #[test]
    fn attr_and_dim_references() {
        assert_eq!(eval(&Expr::attr("x"), &rec()), Value::from(2.5));
        assert_eq!(eval(&Expr::dim("J"), &rec()), Value::from(4i64));
    }

    #[test]
    fn unknown_attr_errors() {
        let s = schema();
        let r = rec();
        let ctx = EvalContext {
            schema: &s,
            coords: &[1, 1],
            record: &r,
            registry: None,
        };
        assert!(Expr::attr("zzz").eval(&ctx).is_err());
    }

    #[test]
    fn arithmetic_promotion() {
        // int + int stays int
        let e = Expr::attr("n").add(Expr::lit(1i64));
        assert_eq!(eval(&e, &rec()), Value::from(8i64));
        // int + float widens
        let e = Expr::attr("n").add(Expr::attr("x"));
        assert_eq!(eval(&e, &rec()), Value::from(9.5));
    }

    #[test]
    fn uncertain_arithmetic_propagates_error() {
        let e = Expr::attr("u").add(Expr::lit(Uncertain::new(0.0, 1.0)));
        match eval(&e, &rec()) {
            Value::Scalar(Scalar::Uncertain(u)) => {
                assert_eq!(u.mean, 10.0);
                assert!((u.sigma - 2f64.sqrt()).abs() < 1e-12);
            }
            other => panic!("expected uncertain, got {other}"),
        }
        // Mixing uncertain with plain numbers lifts the plain side.
        let e = Expr::attr("u").mul(Expr::lit(2.0));
        match eval(&e, &rec()) {
            Value::Scalar(Scalar::Uncertain(u)) => {
                assert_eq!(u.mean, 20.0);
                assert_eq!(u.sigma, 2.0);
            }
            other => panic!("expected uncertain, got {other}"),
        }
    }

    #[test]
    fn division_by_zero_is_null() {
        assert_eq!(
            eval(&Expr::lit(1i64).div(Expr::lit(0i64)), &rec()),
            Value::Null
        );
        assert_eq!(
            eval(&Expr::lit(1.0).div(Expr::lit(0.0)), &rec()),
            Value::Null
        );
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            eval(&Expr::attr("x").lt(Expr::lit(3.0)), &rec()),
            Value::from(true)
        );
        assert_eq!(
            eval(&Expr::attr("n").ge(Expr::lit(8i64)), &rec()),
            Value::from(false)
        );
        // Uncertain compares by mean.
        assert_eq!(
            eval(&Expr::attr("u").gt(Expr::lit(9.5)), &rec()),
            Value::from(true)
        );
    }

    #[test]
    fn null_propagates_three_valued() {
        let e = Expr::Null.add(Expr::lit(1i64));
        assert_eq!(eval(&e, &rec()), Value::Null);
        let e = Expr::Null.eq(Expr::lit(1i64));
        assert_eq!(eval(&e, &rec()), Value::Null);
        // Kleene: NULL AND false = false; NULL OR true = true.
        let e = Expr::Null.eq(Expr::lit(1i64)).and(Expr::lit(false));
        assert_eq!(eval(&e, &rec()), Value::from(false));
        let e = Expr::Null.eq(Expr::lit(1i64)).or(Expr::lit(true));
        assert_eq!(eval(&e, &rec()), Value::from(true));
        let e = Expr::Null.eq(Expr::lit(1i64)).and(Expr::lit(true));
        assert_eq!(eval(&e, &rec()), Value::Null);
    }

    #[test]
    fn is_null_and_not() {
        assert_eq!(eval(&Expr::Null.is_null(), &rec()), Value::from(true));
        assert_eq!(eval(&Expr::attr("x").is_null(), &rec()), Value::from(false));
        assert_eq!(eval(&Expr::lit(true).not(), &rec()), Value::from(false));
    }

    #[test]
    fn string_concat() {
        let e = Expr::lit("a").add(Expr::lit("b"));
        assert_eq!(eval(&e, &rec()), Value::from("ab"));
    }

    #[test]
    fn eval_bool_classifies() {
        let s = schema();
        let r = rec();
        let ctx = EvalContext {
            schema: &s,
            coords: &[1, 1],
            record: &r,
            registry: None,
        };
        assert_eq!(Expr::lit(true).eval_bool(&ctx).unwrap(), Some(true));
        assert_eq!(Expr::Null.eval_bool(&ctx).unwrap(), None);
        assert!(Expr::lit(1i64).eval_bool(&ctx).is_err());
    }

    #[test]
    fn referenced_attrs_walks_tree() {
        let e = Expr::attr("x")
            .add(Expr::attr("n"))
            .gt(Expr::func("f", vec![Expr::attr("u")]));
        let mut attrs = e.referenced_attrs();
        attrs.sort();
        assert_eq!(attrs, vec!["n", "u", "x"]);
    }

    #[test]
    fn func_without_registry_errors() {
        let s = schema();
        let r = rec();
        let ctx = EvalContext {
            schema: &s,
            coords: &[1, 1],
            record: &r,
            registry: None,
        };
        assert!(Expr::func("abs", vec![Expr::lit(1.0)]).eval(&ctx).is_err());
    }
}
