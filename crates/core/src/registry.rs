//! The function/type registry — the Postgres-style catalog of §2.3.
//!
//! Everything user-extendable lives here: scalar UDFs, user-defined
//! aggregates, whole-array operations, enhancement functions, shape
//! functions ("SciDB will come with a collection of built-in shape
//! functions", §2.1), and user-defined types. [`Registry::with_builtins`]
//! pre-loads the standard library.

use crate::enhance::EnhancementRef;
use crate::error::{Error, Result};
use crate::shape::ShapeRef;
use crate::udf::{AggState, AggregateFn, ArrayOp, ClosureFn, ScalarFn, TypeDef};
use crate::uncertain::Uncertain;
use crate::value::{Record, Scalar, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// The catalog of user-extendable objects.
#[derive(Debug, Default)]
pub struct Registry {
    scalars: HashMap<String, Arc<dyn ScalarFn>>,
    aggregates: HashMap<String, Arc<dyn AggregateFn>>,
    array_ops: HashMap<String, Arc<dyn ArrayOp>>,
    enhancements: HashMap<String, EnhancementRef>,
    shapes: HashMap<String, ShapeRef>,
    types: HashMap<String, Arc<TypeDef>>,
}

macro_rules! register {
    ($map:expr, $kind:literal, $name:expr, $obj:expr) => {{
        let name = $name.to_ascii_lowercase();
        if $map.contains_key(&name) {
            return Err(Error::AlreadyExists(format!(concat!($kind, " '{}'"), name)));
        }
        $map.insert(name, $obj);
        Ok(())
    }};
}

macro_rules! lookup {
    ($map:expr, $kind:literal, $name:expr) => {
        $map.get(&$name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| Error::not_found(format!(concat!($kind, " '{}'"), $name)))
    };
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// A registry pre-loaded with the built-in function library.
    pub fn with_builtins() -> Self {
        let mut r = Registry::new();
        r.install_builtins();
        r
    }

    /// Registers a scalar function.
    pub fn register_scalar_fn(&mut self, f: Arc<dyn ScalarFn>) -> Result<()> {
        register!(self.scalars, "function", f.name(), f)
    }

    /// Looks up a scalar function.
    pub fn scalar_fn(&self, name: &str) -> Result<Arc<dyn ScalarFn>> {
        lookup!(self.scalars, "function", name)
    }

    /// Registers an aggregate.
    pub fn register_aggregate(&mut self, f: Arc<dyn AggregateFn>) -> Result<()> {
        register!(self.aggregates, "aggregate", f.name(), f)
    }

    /// Looks up an aggregate.
    pub fn aggregate(&self, name: &str) -> Result<Arc<dyn AggregateFn>> {
        lookup!(self.aggregates, "aggregate", name)
    }

    /// Registers a whole-array operation.
    pub fn register_array_op(&mut self, f: Arc<dyn ArrayOp>) -> Result<()> {
        register!(self.array_ops, "array operation", f.name(), f)
    }

    /// Looks up a whole-array operation.
    pub fn array_op(&self, name: &str) -> Result<Arc<dyn ArrayOp>> {
        lookup!(self.array_ops, "array operation", name)
    }

    /// Registers an enhancement function.
    pub fn register_enhancement(&mut self, f: EnhancementRef) -> Result<()> {
        register!(self.enhancements, "enhancement", f.name(), f)
    }

    /// Looks up an enhancement function.
    pub fn enhancement(&self, name: &str) -> Result<EnhancementRef> {
        lookup!(self.enhancements, "enhancement", name)
    }

    /// Registers a shape function.
    pub fn register_shape(&mut self, f: ShapeRef) -> Result<()> {
        register!(self.shapes, "shape function", f.name(), f)
    }

    /// Looks up a shape function.
    pub fn shape(&self, name: &str) -> Result<ShapeRef> {
        lookup!(self.shapes, "shape function", name)
    }

    /// Registers a user-defined type.
    pub fn register_type(&mut self, t: TypeDef) -> Result<()> {
        register!(self.types, "type", t.name(), Arc::new(t))
    }

    /// Looks up a user-defined type.
    pub fn type_def(&self, name: &str) -> Result<Arc<TypeDef>> {
        lookup!(self.types, "type", name)
    }

    /// Names of all registered scalar functions (sorted; for \dF-style
    /// introspection).
    pub fn scalar_fn_names(&self) -> Vec<String> {
        let mut v: Vec<_> = self.scalars.keys().cloned().collect();
        v.sort();
        v
    }

    fn install_builtins(&mut self) {
        let unary = |name: &str, f: fn(f64) -> f64| {
            Arc::new(ClosureFn::unary_f64(name, f)) as Arc<dyn ScalarFn>
        };
        for (name, f) in [
            ("abs", f64::abs as fn(f64) -> f64),
            ("sqrt", f64::sqrt),
            ("exp", f64::exp),
            ("ln", f64::ln),
            ("floor", f64::floor),
            ("ceil", f64::ceil),
            ("sin", f64::sin),
            ("cos", f64::cos),
        ] {
            self.register_scalar_fn(unary(name, f)).unwrap();
        }
        // even/odd over integers — used by the paper's Subsample example
        // `Subsample(F, even(X))`.
        self.register_scalar_fn(Arc::new(ClosureFn::new(
            "even",
            Some(1),
            |args| match args[0].as_i64() {
                Some(v) => Ok(Value::from(v % 2 == 0)),
                None if args[0].is_null() => Ok(Value::Null),
                None => Err(Error::eval("even: integer argument required")),
            },
        )))
        .unwrap();
        self.register_scalar_fn(Arc::new(ClosureFn::new(
            "odd",
            Some(1),
            |args| match args[0].as_i64() {
                Some(v) => Ok(Value::from(v % 2 != 0)),
                None if args[0].is_null() => Ok(Value::Null),
                None => Err(Error::eval("odd: integer argument required")),
            },
        )))
        .unwrap();
        // Uncertainty accessors (§2.13).
        self.register_scalar_fn(Arc::new(ClosureFn::new(
            "err",
            Some(1),
            |args| match &args[0] {
                Value::Null => Ok(Value::Null),
                v => match v.as_scalar().and_then(Scalar::as_uncertain) {
                    Some(u) => Ok(Value::from(u.sigma)),
                    None => Err(Error::eval("err: numeric argument required")),
                },
            },
        )))
        .unwrap();
        self.register_scalar_fn(Arc::new(ClosureFn::new(
            "mean",
            Some(1),
            |args| match &args[0] {
                Value::Null => Ok(Value::Null),
                v => match v.as_f64() {
                    Some(m) => Ok(Value::from(m)),
                    None => Err(Error::eval("mean: numeric argument required")),
                },
            },
        )))
        .unwrap();
        self.register_scalar_fn(Arc::new(ClosureFn::new("uncertain", Some(2), |args| {
            if args[0].is_null() || args[1].is_null() {
                return Ok(Value::Null);
            }
            let (m, s) = (
                args[0]
                    .as_f64()
                    .ok_or_else(|| Error::eval("uncertain: numeric mean required"))?,
                args[1]
                    .as_f64()
                    .ok_or_else(|| Error::eval("uncertain: numeric sigma required"))?,
            );
            Ok(Value::from(Uncertain::new(m, s)))
        })))
        .unwrap();
        // P(value < threshold) for uncertain filters.
        self.register_scalar_fn(Arc::new(ClosureFn::new("prob_below", Some(2), |args| {
            if args[0].is_null() || args[1].is_null() {
                return Ok(Value::Null);
            }
            let u = args[0]
                .as_scalar()
                .and_then(Scalar::as_uncertain)
                .ok_or_else(|| Error::eval("prob_below: numeric value required"))?;
            let t = args[1]
                .as_f64()
                .ok_or_else(|| Error::eval("prob_below: numeric threshold required"))?;
            Ok(Value::from(u.cdf(t)))
        })))
        .unwrap();

        for agg in [
            Builtin::Count,
            Builtin::Sum,
            Builtin::Avg,
            Builtin::Min,
            Builtin::Max,
            Builtin::Stddev,
            Builtin::Var,
        ] {
            self.register_aggregate(Arc::new(agg)).unwrap();
        }
    }
}

/// The built-in aggregate suite.
#[derive(Debug, Clone, Copy)]
enum Builtin {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    Stddev,
    Var,
}

impl AggregateFn for Builtin {
    fn name(&self) -> &str {
        match self {
            Builtin::Count => "count",
            Builtin::Sum => "sum",
            Builtin::Avg => "avg",
            Builtin::Min => "min",
            Builtin::Max => "max",
            Builtin::Stddev => "stddev",
            Builtin::Var => "var",
        }
    }

    fn create(&self) -> Box<dyn AggState> {
        match self {
            Builtin::Count => Box::new(CountState(0)),
            Builtin::Sum => Box::new(SumState::default()),
            Builtin::Avg => Box::new(MomentState::new(Moment::Avg)),
            Builtin::Min => Box::new(ExtremeState::new(true)),
            Builtin::Max => Box::new(ExtremeState::new(false)),
            Builtin::Stddev => Box::new(MomentState::new(Moment::Stddev)),
            Builtin::Var => Box::new(MomentState::new(Moment::Var)),
        }
    }
}

struct CountState(i64);

impl AggState for CountState {
    fn update(&mut self, v: &Value) -> Result<()> {
        if !v.is_null() {
            self.0 += 1;
        }
        Ok(())
    }
    fn partial(&self) -> Record {
        vec![Value::from(self.0)]
    }
    fn merge(&mut self, partial: &Record) -> Result<()> {
        self.0 += partial[0]
            .as_i64()
            .ok_or_else(|| Error::eval("count: bad partial"))?;
        Ok(())
    }
    fn finalize(&self) -> Value {
        Value::from(self.0)
    }
}

/// Sum with automatic uncertainty propagation: summing `uncertain float`
/// values accumulates sigma in quadrature (§2.13).
#[derive(Default)]
struct SumState {
    sum: f64,
    var: f64, // accumulated variance for uncertain inputs
    any: bool,
    uncertain: bool,
    int_only: bool,
    int_sum: i64,
    started: bool,
}

impl AggState for SumState {
    fn update(&mut self, v: &Value) -> Result<()> {
        let Some(s) = v.as_scalar() else {
            return Ok(());
        };
        if !self.started {
            self.int_only = matches!(s, Scalar::Int64(_));
            self.started = true;
        }
        match s {
            Scalar::Int64(x) => {
                self.int_sum = self.int_sum.wrapping_add(*x);
                self.sum += *x as f64;
            }
            Scalar::Float64(x) => {
                self.int_only = false;
                self.sum += x;
            }
            Scalar::Uncertain(u) => {
                self.int_only = false;
                self.uncertain = true;
                self.sum += u.mean;
                self.var += u.sigma * u.sigma;
            }
            other => return Err(Error::eval(format!("sum: non-numeric {other}"))),
        }
        self.any = true;
        Ok(())
    }

    fn partial(&self) -> Record {
        vec![
            Value::from(self.sum),
            Value::from(self.var),
            Value::from(self.any),
            Value::from(self.uncertain),
            Value::from(self.int_only && self.started),
            Value::from(self.int_sum),
        ]
    }

    fn merge(&mut self, p: &Record) -> Result<()> {
        let bad = || Error::eval("sum: bad partial");
        self.sum += p[0].as_f64().ok_or_else(bad)?;
        self.var += p[1].as_f64().ok_or_else(bad)?;
        let any = p[2].as_bool().ok_or_else(bad)?;
        self.any |= any;
        self.uncertain |= p[3].as_bool().ok_or_else(bad)?;
        let other_int = p[4].as_bool().ok_or_else(bad)?;
        if any {
            self.int_only = (self.int_only || !self.started) && other_int;
            self.started = true;
        }
        self.int_sum = self.int_sum.wrapping_add(p[5].as_i64().ok_or_else(bad)?);
        Ok(())
    }

    fn finalize(&self) -> Value {
        if !self.any {
            return Value::Null;
        }
        if self.uncertain {
            Value::from(Uncertain::new(self.sum, self.var.sqrt()))
        } else if self.int_only {
            Value::from(self.int_sum)
        } else {
            Value::from(self.sum)
        }
    }
}

enum Moment {
    Avg,
    Var,
    Stddev,
}

/// Mean / variance / stddev via mergeable (count, sum, sum-of-squares).
struct MomentState {
    which: Moment,
    n: i64,
    sum: f64,
    sumsq: f64,
}

impl MomentState {
    fn new(which: Moment) -> Self {
        MomentState {
            which,
            n: 0,
            sum: 0.0,
            sumsq: 0.0,
        }
    }
}

impl AggState for MomentState {
    fn update(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        let x = v
            .as_f64()
            .ok_or_else(|| Error::eval("numeric aggregate over non-numeric value"))?;
        self.n += 1;
        self.sum += x;
        self.sumsq += x * x;
        Ok(())
    }
    fn partial(&self) -> Record {
        vec![
            Value::from(self.n),
            Value::from(self.sum),
            Value::from(self.sumsq),
        ]
    }
    fn merge(&mut self, p: &Record) -> Result<()> {
        let bad = || Error::eval("moment: bad partial");
        self.n += p[0].as_i64().ok_or_else(bad)?;
        self.sum += p[1].as_f64().ok_or_else(bad)?;
        self.sumsq += p[2].as_f64().ok_or_else(bad)?;
        Ok(())
    }
    fn finalize(&self) -> Value {
        if self.n == 0 {
            return Value::Null;
        }
        let n = self.n as f64;
        let mean = self.sum / n;
        match self.which {
            Moment::Avg => Value::from(mean),
            Moment::Var => Value::from((self.sumsq / n - mean * mean).max(0.0)),
            Moment::Stddev => Value::from((self.sumsq / n - mean * mean).max(0.0).sqrt()),
        }
    }
}

struct ExtremeState {
    is_min: bool,
    best: Option<Scalar>,
}

impl ExtremeState {
    fn new(is_min: bool) -> Self {
        ExtremeState { is_min, best: None }
    }
    fn consider(&mut self, s: &Scalar) -> Result<()> {
        match &self.best {
            None => self.best = Some(s.clone()),
            Some(b) => {
                let ord = s
                    .compare(b)
                    .ok_or_else(|| Error::eval("min/max over incomparable values"))?;
                let better = if self.is_min {
                    ord == std::cmp::Ordering::Less
                } else {
                    ord == std::cmp::Ordering::Greater
                };
                if better {
                    self.best = Some(s.clone());
                }
            }
        }
        Ok(())
    }
}

impl AggState for ExtremeState {
    fn update(&mut self, v: &Value) -> Result<()> {
        if let Some(s) = v.as_scalar() {
            self.consider(s)?;
        }
        Ok(())
    }
    fn partial(&self) -> Record {
        vec![self.best.clone().map_or(Value::Null, Value::Scalar)]
    }
    fn merge(&mut self, p: &Record) -> Result<()> {
        if let Some(s) = p[0].as_scalar() {
            self.consider(s)?;
        }
        Ok(())
    }
    fn finalize(&self) -> Value {
        self.best.clone().map_or(Value::Null, Value::Scalar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_agg(name: &str, vals: &[Value]) -> Value {
        let r = Registry::with_builtins();
        let agg = r.aggregate(name).unwrap();
        let mut st = agg.create();
        for v in vals {
            st.update(v).unwrap();
        }
        st.finalize()
    }

    #[test]
    fn builtin_scalar_fns_present() {
        let r = Registry::with_builtins();
        for name in [
            "abs",
            "sqrt",
            "even",
            "odd",
            "err",
            "uncertain",
            "prob_below",
        ] {
            assert!(r.scalar_fn(name).is_ok(), "missing builtin {name}");
        }
        assert!(r.scalar_fn("nope").is_err());
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let r = Registry::with_builtins();
        assert!(r.scalar_fn("ABS").is_ok());
        assert!(r.aggregate("SUM").is_ok());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut r = Registry::with_builtins();
        let err = r
            .register_scalar_fn(Arc::new(ClosureFn::unary_f64("abs", |x| x)))
            .unwrap_err();
        assert!(matches!(err, Error::AlreadyExists(_)));
    }

    #[test]
    fn count_skips_nulls() {
        let v = run_agg(
            "count",
            &[Value::from(1i64), Value::Null, Value::from(2i64)],
        );
        assert_eq!(v, Value::from(2i64));
    }

    #[test]
    fn sum_int_stays_int() {
        let v = run_agg("sum", &[Value::from(1i64), Value::from(2i64)]);
        assert_eq!(v, Value::from(3i64));
    }

    #[test]
    fn sum_mixed_is_float() {
        let v = run_agg("sum", &[Value::from(1i64), Value::from(2.5)]);
        assert_eq!(v, Value::from(3.5));
    }

    #[test]
    fn sum_uncertain_propagates_sigma() {
        let v = run_agg(
            "sum",
            &[
                Value::from(Uncertain::new(1.0, 3.0)),
                Value::from(Uncertain::new(2.0, 4.0)),
            ],
        );
        match v {
            Value::Scalar(Scalar::Uncertain(u)) => {
                assert_eq!(u.mean, 3.0);
                assert!((u.sigma - 5.0).abs() < 1e-12);
            }
            other => panic!("expected uncertain, got {other}"),
        }
    }

    #[test]
    fn empty_aggregates_are_null_except_count() {
        assert_eq!(run_agg("sum", &[]), Value::Null);
        assert_eq!(run_agg("avg", &[]), Value::Null);
        assert_eq!(run_agg("min", &[]), Value::Null);
        assert_eq!(run_agg("count", &[]), Value::from(0i64));
    }

    #[test]
    fn avg_stddev_var() {
        let vals: Vec<Value> = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .iter()
            .map(|&x| Value::from(x))
            .collect();
        assert_eq!(run_agg("avg", &vals), Value::from(5.0));
        assert_eq!(run_agg("var", &vals), Value::from(4.0));
        assert_eq!(run_agg("stddev", &vals), Value::from(2.0));
    }

    #[test]
    fn min_max_strings() {
        let vals = [
            Value::from("pear"),
            Value::from("apple"),
            Value::from("zuc"),
        ];
        assert_eq!(run_agg("min", &vals), Value::from("apple"));
        assert_eq!(run_agg("max", &vals), Value::from("zuc"));
    }

    #[test]
    fn partial_merge_equals_direct() {
        // Distributed path: two partial states merged == one direct state.
        let r = Registry::with_builtins();
        for name in ["count", "sum", "avg", "min", "max", "stddev", "var"] {
            let agg = r.aggregate(name).unwrap();
            let all: Vec<Value> = (1..=10i64).map(Value::from).collect();
            let mut direct = agg.create();
            for v in &all {
                direct.update(v).unwrap();
            }
            let mut left = agg.create();
            let mut right = agg.create();
            for v in &all[..4] {
                left.update(v).unwrap();
            }
            for v in &all[4..] {
                right.update(v).unwrap();
            }
            left.merge(&right.partial()).unwrap();
            assert_eq!(left.finalize(), direct.finalize(), "aggregate {name}");
        }
    }

    #[test]
    fn prob_below_builtin() {
        let r = Registry::with_builtins();
        let f = r.scalar_fn("prob_below").unwrap();
        let p = f
            .call(&[Value::from(Uncertain::new(0.0, 1.0)), Value::from(0.0)])
            .unwrap();
        assert!((p.as_f64().unwrap() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn type_registration() {
        let mut r = Registry::new();
        r.register_type(TypeDef::new("ra", crate::value::ScalarType::Float64))
            .unwrap();
        assert!(r.type_def("ra").is_ok());
        assert!(r.type_def("dec").is_err());
    }
}
