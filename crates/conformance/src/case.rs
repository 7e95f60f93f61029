//! The replayable conformance case: schema + data + operator pipeline.
//!
//! A [`Case`] is fully self-describing — replaying the JSON form rebuilds
//! the exact input array (floats are stored as bit patterns) and the exact
//! pipeline, so a corpus file pins a divergence forever.

use crate::json::{f64_from_json, f64_to_json, Json};
use scidb_core::array::Array;
use scidb_core::error::{Error, Result};
use scidb_core::schema::{ArraySchema, AttributeDef, DimensionDef, SchemaBuilder};
use scidb_core::uncertain::Uncertain;
use scidb_core::value::{Record, ScalarType, Value};
use std::sync::Arc;

/// One dimension of the generated schema.
#[derive(Debug, Clone, PartialEq)]
pub struct DimSpec {
    /// Dimension name.
    pub name: String,
    /// Upper bound; `None` is the paper's `*` (unbounded).
    pub upper: Option<i64>,
    /// Chunk stride.
    pub chunk: i64,
}

/// Attribute types the generator draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrKind {
    /// 64-bit integer.
    Int64,
    /// 64-bit float (values are dyadic rationals; see crate docs).
    Float64,
    /// `uncertain float` (§2.13): mean + sigma.
    Uncertain,
    /// A nested 1-D integer array cell (§2.1 nested array model).
    Nested,
}

impl AttrKind {
    fn tag(self) -> &'static str {
        match self {
            AttrKind::Int64 => "i64",
            AttrKind::Float64 => "f64",
            AttrKind::Uncertain => "uf64",
            AttrKind::Nested => "nested",
        }
    }

    fn from_tag(s: &str) -> Result<Self> {
        match s {
            "i64" => Ok(AttrKind::Int64),
            "f64" => Ok(AttrKind::Float64),
            "uf64" => Ok(AttrKind::Uncertain),
            "nested" => Ok(AttrKind::Nested),
            other => Err(Error::eval(format!("case JSON: bad attr kind '{other}'"))),
        }
    }

    /// The scalar type for non-nested kinds.
    pub fn scalar_type(self) -> Option<ScalarType> {
        match self {
            AttrKind::Int64 => Some(ScalarType::Int64),
            AttrKind::Float64 => Some(ScalarType::Float64),
            AttrKind::Uncertain => Some(ScalarType::UncertainFloat64),
            AttrKind::Nested => None,
        }
    }
}

/// One attribute of the generated schema.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrSpec {
    /// Attribute name.
    pub name: String,
    /// Attribute kind.
    pub kind: AttrKind,
}

/// One cell value, in a replayable form (floats by bits).
#[derive(Debug, Clone, PartialEq)]
pub enum CellValue {
    /// SQL-style NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Float (exact bits).
    Float(f64),
    /// Uncertain float (exact bits).
    Uncertain(f64, f64),
    /// Nested 1-D integer array: values at positions `1..=len`.
    Nested(Vec<Option<i64>>),
}

impl CellValue {
    /// Converts to a core [`Value`]; nested cells need the inner schema.
    pub fn to_value(&self, inner: &Arc<ArraySchema>) -> Result<Value> {
        Ok(match self {
            CellValue::Null => Value::Null,
            CellValue::Int(v) => Value::from(*v),
            CellValue::Float(v) => Value::from(*v),
            CellValue::Uncertain(m, s) => Value::from(Uncertain::new(*m, *s)),
            CellValue::Nested(vals) => {
                let mut a = Array::from_arc(Arc::clone(inner));
                for (i, v) in vals.iter().enumerate() {
                    if let Some(x) = v {
                        a.set_cell(&[i as i64 + 1], vec![Value::from(*x)])?;
                    }
                }
                Value::Array(Box::new(a))
            }
        })
    }

    fn to_json(&self) -> Json {
        match self {
            CellValue::Null => Json::Null,
            CellValue::Int(v) => Json::obj(vec![("i", Json::Int(*v))]),
            CellValue::Float(v) => Json::obj(vec![("f", f64_to_json(*v))]),
            CellValue::Uncertain(m, s) => {
                Json::obj(vec![("um", f64_to_json(*m)), ("us", f64_to_json(*s))])
            }
            CellValue::Nested(vals) => Json::obj(vec![(
                "n",
                Json::Arr(
                    vals.iter()
                        .map(|v| v.map_or(Json::Null, Json::Int))
                        .collect(),
                ),
            )]),
        }
    }

    fn from_json(j: &Json) -> Result<CellValue> {
        if *j == Json::Null {
            return Ok(CellValue::Null);
        }
        if let Some(v) = j.get("i") {
            return Ok(CellValue::Int(v.as_int()?));
        }
        if let Some(v) = j.get("f") {
            return Ok(CellValue::Float(f64_from_json(v)?));
        }
        if let Some(m) = j.get("um") {
            return Ok(CellValue::Uncertain(
                f64_from_json(m)?,
                f64_from_json(j.req("us")?)?,
            ));
        }
        if let Some(v) = j.get("n") {
            let vals = v
                .as_arr()?
                .iter()
                .map(|x| {
                    if *x == Json::Null {
                        Ok(None)
                    } else {
                        x.as_int().map(Some)
                    }
                })
                .collect::<Result<Vec<_>>>()?;
            return Ok(CellValue::Nested(vals));
        }
        Err(Error::eval("case JSON: unrecognized cell value"))
    }
}

/// Comparison operators for generated predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `<=`
    Le,
}

impl Cmp {
    fn tag(self) -> &'static str {
        match self {
            Cmp::Gt => "gt",
            Cmp::Lt => "lt",
            Cmp::Ge => "ge",
            Cmp::Le => "le",
        }
    }

    fn from_tag(s: &str) -> Result<Self> {
        match s {
            "gt" => Ok(Cmp::Gt),
            "lt" => Ok(Cmp::Lt),
            "ge" => Ok(Cmp::Ge),
            "le" => Ok(Cmp::Le),
            other => Err(Error::eval(format!("case JSON: bad cmp '{other}'"))),
        }
    }

    /// Applies the comparison to two floats.
    pub fn eval(self, a: f64, b: f64) -> bool {
        match self {
            Cmp::Gt => a > b,
            Cmp::Lt => a < b,
            Cmp::Ge => a >= b,
            Cmp::Le => a <= b,
        }
    }
}

/// One pipeline step. Binary ops (`Sjoin`, `Cjoin`, `Concat`) combine the
/// current array with itself, which keeps a case single-input while still
/// exercising the two-array kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum OpSpec {
    /// `Subsample`: keep cells with `lo <= dim <= hi`.
    Subsample {
        /// Dimension name.
        dim: String,
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// `Filter`: predicate `attr cmp lit`; failing cells become all-NULL.
    Filter {
        /// Attribute name.
        attr: String,
        /// Comparison.
        cmp: Cmp,
        /// Literal threshold.
        lit: f64,
    },
    /// `Apply`: new attribute `src * mul + add`.
    Apply {
        /// New attribute name.
        new: String,
        /// Source attribute.
        src: String,
        /// Multiplier (dyadic).
        mul: f64,
        /// Addend (dyadic).
        add: f64,
    },
    /// `Project` onto the named attributes.
    Project {
        /// Attributes to keep.
        keep: Vec<String>,
    },
    /// `Aggregate` grouped by dimensions.
    Aggregate {
        /// Group dimensions (empty = grand aggregate over dim `all`).
        dims: Vec<String>,
        /// Aggregate name (`count`/`sum`/`min`/`max`/`avg`).
        agg: String,
        /// Input attribute.
        attr: String,
    },
    /// `Regrid` by per-dimension factors (aggregates every attribute).
    Regrid {
        /// Per-dimension block factors.
        factors: Vec<i64>,
        /// Aggregate name.
        agg: String,
    },
    /// Structural self-join on all dimensions.
    Sjoin,
    /// Content self-join with predicate `left.attr cmp lit`.
    Cjoin {
        /// Left-side attribute the predicate reads.
        attr: String,
        /// Comparison.
        cmp: Cmp,
        /// Literal threshold.
        lit: f64,
    },
    /// Self-concatenation along a dimension.
    Concat {
        /// Concatenation dimension.
        dim: String,
    },
    /// Reshape: reverse dimension order, then linearize into one dimension.
    Reshape,
    /// Slice (`remove dimension`): keep the cells at `dim = at` and drop
    /// the dimension.
    Slice {
        /// Dimension removed.
        dim: String,
        /// The coordinate kept (possibly outside the domain).
        at: i64,
    },
    /// `add dimension`: a new trailing dimension of extent 1.
    AddDim {
        /// New dimension name.
        name: String,
    },
}

impl OpSpec {
    /// Operator name as listed in the op table.
    pub fn name(&self) -> &'static str {
        match self {
            OpSpec::Subsample { .. } => "subsample",
            OpSpec::Filter { .. } => "filter",
            OpSpec::Apply { .. } => "apply",
            OpSpec::Project { .. } => "project",
            OpSpec::Aggregate { .. } => "aggregate",
            OpSpec::Regrid { .. } => "regrid",
            OpSpec::Sjoin => "sjoin",
            OpSpec::Cjoin { .. } => "cjoin",
            OpSpec::Concat { .. } => "concat",
            OpSpec::Reshape => "reshape",
            OpSpec::Slice { .. } => "slice",
            OpSpec::AddDim { .. } => "adddim",
        }
    }

    fn to_json(&self) -> Json {
        match self {
            OpSpec::Subsample { dim, lo, hi } => Json::obj(vec![
                ("op", Json::str("subsample")),
                ("dim", Json::str(dim.clone())),
                ("lo", Json::Int(*lo)),
                ("hi", Json::Int(*hi)),
            ]),
            OpSpec::Filter { attr, cmp, lit } => Json::obj(vec![
                ("op", Json::str("filter")),
                ("attr", Json::str(attr.clone())),
                ("cmp", Json::str(cmp.tag())),
                ("lit", f64_to_json(*lit)),
            ]),
            OpSpec::Apply { new, src, mul, add } => Json::obj(vec![
                ("op", Json::str("apply")),
                ("new", Json::str(new.clone())),
                ("src", Json::str(src.clone())),
                ("mul", f64_to_json(*mul)),
                ("add", f64_to_json(*add)),
            ]),
            OpSpec::Project { keep } => Json::obj(vec![
                ("op", Json::str("project")),
                (
                    "keep",
                    Json::Arr(keep.iter().map(|k| Json::str(k.clone())).collect()),
                ),
            ]),
            OpSpec::Aggregate { dims, agg, attr } => Json::obj(vec![
                ("op", Json::str("aggregate")),
                (
                    "dims",
                    Json::Arr(dims.iter().map(|d| Json::str(d.clone())).collect()),
                ),
                ("agg", Json::str(agg.clone())),
                ("attr", Json::str(attr.clone())),
            ]),
            OpSpec::Regrid { factors, agg } => Json::obj(vec![
                ("op", Json::str("regrid")),
                (
                    "factors",
                    Json::Arr(factors.iter().map(|&f| Json::Int(f)).collect()),
                ),
                ("agg", Json::str(agg.clone())),
            ]),
            OpSpec::Sjoin => Json::obj(vec![("op", Json::str("sjoin"))]),
            OpSpec::Cjoin { attr, cmp, lit } => Json::obj(vec![
                ("op", Json::str("cjoin")),
                ("attr", Json::str(attr.clone())),
                ("cmp", Json::str(cmp.tag())),
                ("lit", f64_to_json(*lit)),
            ]),
            OpSpec::Concat { dim } => Json::obj(vec![
                ("op", Json::str("concat")),
                ("dim", Json::str(dim.clone())),
            ]),
            OpSpec::Reshape => Json::obj(vec![("op", Json::str("reshape"))]),
            OpSpec::Slice { dim, at } => Json::obj(vec![
                ("op", Json::str("slice")),
                ("dim", Json::str(dim.clone())),
                ("at", Json::Int(*at)),
            ]),
            OpSpec::AddDim { name } => Json::obj(vec![
                ("op", Json::str("adddim")),
                ("name", Json::str(name.clone())),
            ]),
        }
    }

    fn from_json(j: &Json) -> Result<OpSpec> {
        let op = j.req("op")?.as_str()?;
        Ok(match op {
            "subsample" => OpSpec::Subsample {
                dim: j.req("dim")?.as_str()?.to_string(),
                lo: j.req("lo")?.as_int()?,
                hi: j.req("hi")?.as_int()?,
            },
            "filter" => OpSpec::Filter {
                attr: j.req("attr")?.as_str()?.to_string(),
                cmp: Cmp::from_tag(j.req("cmp")?.as_str()?)?,
                lit: f64_from_json(j.req("lit")?)?,
            },
            "apply" => OpSpec::Apply {
                new: j.req("new")?.as_str()?.to_string(),
                src: j.req("src")?.as_str()?.to_string(),
                mul: f64_from_json(j.req("mul")?)?,
                add: f64_from_json(j.req("add")?)?,
            },
            "project" => OpSpec::Project {
                keep: j
                    .req("keep")?
                    .as_arr()?
                    .iter()
                    .map(|k| k.as_str().map(String::from))
                    .collect::<Result<_>>()?,
            },
            "aggregate" => OpSpec::Aggregate {
                dims: j
                    .req("dims")?
                    .as_arr()?
                    .iter()
                    .map(|d| d.as_str().map(String::from))
                    .collect::<Result<_>>()?,
                agg: j.req("agg")?.as_str()?.to_string(),
                attr: j.req("attr")?.as_str()?.to_string(),
            },
            "regrid" => OpSpec::Regrid {
                factors: j
                    .req("factors")?
                    .as_arr()?
                    .iter()
                    .map(Json::as_int)
                    .collect::<Result<_>>()?,
                agg: j.req("agg")?.as_str()?.to_string(),
            },
            "sjoin" => OpSpec::Sjoin,
            "cjoin" => OpSpec::Cjoin {
                attr: j.req("attr")?.as_str()?.to_string(),
                cmp: Cmp::from_tag(j.req("cmp")?.as_str()?)?,
                lit: f64_from_json(j.req("lit")?)?,
            },
            "concat" => OpSpec::Concat {
                dim: j.req("dim")?.as_str()?.to_string(),
            },
            "reshape" => OpSpec::Reshape,
            "slice" => OpSpec::Slice {
                dim: j.req("dim")?.as_str()?.to_string(),
                at: j.req("at")?.as_int()?,
            },
            "adddim" => OpSpec::AddDim {
                name: j.req("name")?.as_str()?.to_string(),
            },
            other => return Err(Error::eval(format!("case JSON: unknown op '{other}'"))),
        })
    }
}

/// The inner schema used by every nested-attribute cell: a 1-D integer
/// array `results (v = int) (rank = 1:NESTED_LEN)`.
pub const NESTED_LEN: i64 = 4;

/// Builds the shared nested-cell schema.
pub fn nested_schema() -> Arc<ArraySchema> {
    Arc::new(
        // lint-note: this cannot fail for a fixed well-formed schema.
        SchemaBuilder::new("results")
            .attr("v", ScalarType::Int64)
            .dim("rank", NESTED_LEN)
            .build()
            .unwrap_or_else(|_| unreachable!("fixed nested schema is well-formed")),
    )
}

/// One complete conformance case.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Generator seed (0 for hand-written corpus cases).
    pub seed: u64,
    /// Free-text comment (names the seed / divergence for corpus cases).
    pub comment: String,
    /// Schema dimensions.
    pub dims: Vec<DimSpec>,
    /// Schema attributes.
    pub attrs: Vec<AttrSpec>,
    /// Present cells: coordinates plus one value per attribute.
    pub cells: Vec<(Vec<i64>, Vec<CellValue>)>,
    /// The operator pipeline.
    pub ops: Vec<OpSpec>,
    /// Whether the grid backend should inject a benign replica crash.
    pub grid_fault: bool,
}

impl Case {
    /// True if any attribute is a nested array (the relational simulation
    /// cannot represent those — `ArrayTable::from_array` rejects them).
    pub fn has_nested(&self) -> bool {
        self.attrs.iter().any(|a| a.kind == AttrKind::Nested)
    }

    /// Builds the core schema for this case.
    pub fn schema(&self) -> Result<ArraySchema> {
        let inner = nested_schema();
        let attrs = self
            .attrs
            .iter()
            .map(|a| match a.kind.scalar_type() {
                Some(ty) => AttributeDef::scalar(a.name.clone(), ty),
                None => AttributeDef::nested(a.name.clone(), Arc::clone(&inner)),
            })
            .collect();
        let dims = self
            .dims
            .iter()
            .map(|d| DimensionDef {
                name: d.name.clone(),
                upper: d.upper,
                chunk_len: d.chunk,
            })
            .collect();
        ArraySchema::new("conformance_input", attrs, dims)
    }

    /// Materializes the input array.
    pub fn build_input(&self) -> Result<Array> {
        let schema = self.schema()?;
        let inner = nested_schema();
        let mut a = Array::new(schema);
        for (coords, vals) in &self.cells {
            let rec: Record = vals
                .iter()
                .map(|v| v.to_value(&inner))
                .collect::<Result<_>>()?;
            a.set_cell(coords, rec)?;
        }
        Ok(a)
    }

    /// Serializes to the corpus JSON form.
    pub fn to_json(&self) -> String {
        let dims = self
            .dims
            .iter()
            .map(|d| {
                Json::obj(vec![
                    ("name", Json::str(d.name.clone())),
                    ("upper", d.upper.map_or(Json::Null, Json::Int)),
                    ("chunk", Json::Int(d.chunk)),
                ])
            })
            .collect();
        let attrs = self
            .attrs
            .iter()
            .map(|a| {
                Json::obj(vec![
                    ("name", Json::str(a.name.clone())),
                    ("kind", Json::str(a.kind.tag())),
                ])
            })
            .collect();
        let cells = self
            .cells
            .iter()
            .map(|(coords, vals)| {
                Json::obj(vec![
                    (
                        "at",
                        Json::Arr(coords.iter().map(|&c| Json::Int(c)).collect()),
                    ),
                    (
                        "rec",
                        Json::Arr(vals.iter().map(CellValue::to_json).collect()),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("seed", Json::Int(self.seed as i64)),
            ("comment", Json::str(self.comment.clone())),
            ("dims", Json::Arr(dims)),
            ("attrs", Json::Arr(attrs)),
            ("cells", Json::Arr(cells)),
            (
                "ops",
                Json::Arr(self.ops.iter().map(OpSpec::to_json).collect()),
            ),
            ("grid_fault", Json::Bool(self.grid_fault)),
        ])
        .render()
    }

    /// Parses the corpus JSON form.
    pub fn from_json(text: &str) -> Result<Case> {
        let j = Json::parse(text)?;
        let dims = j
            .req("dims")?
            .as_arr()?
            .iter()
            .map(|d| {
                Ok(DimSpec {
                    name: d.req("name")?.as_str()?.to_string(),
                    upper: match d.req("upper")? {
                        Json::Null => None,
                        v => Some(v.as_int()?),
                    },
                    chunk: d.req("chunk")?.as_int()?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let attrs = j
            .req("attrs")?
            .as_arr()?
            .iter()
            .map(|a| {
                Ok(AttrSpec {
                    name: a.req("name")?.as_str()?.to_string(),
                    kind: AttrKind::from_tag(a.req("kind")?.as_str()?)?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let cells = j
            .req("cells")?
            .as_arr()?
            .iter()
            .map(|c| {
                let coords = c
                    .req("at")?
                    .as_arr()?
                    .iter()
                    .map(Json::as_int)
                    .collect::<Result<Vec<_>>>()?;
                let vals = c
                    .req("rec")?
                    .as_arr()?
                    .iter()
                    .map(CellValue::from_json)
                    .collect::<Result<Vec<_>>>()?;
                Ok((coords, vals))
            })
            .collect::<Result<Vec<_>>>()?;
        let ops = j
            .req("ops")?
            .as_arr()?
            .iter()
            .map(OpSpec::from_json)
            .collect::<Result<Vec<_>>>()?;
        Ok(Case {
            seed: j.req("seed")?.as_int()? as u64,
            comment: j.req("comment")?.as_str()?.to_string(),
            dims,
            attrs,
            cells,
            ops,
            grid_fault: j.req("grid_fault")?.as_bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_case() -> Case {
        Case {
            seed: 7,
            comment: "unit-test case".into(),
            dims: vec![
                DimSpec {
                    name: "i".into(),
                    upper: Some(4),
                    chunk: 2,
                },
                DimSpec {
                    name: "t".into(),
                    upper: None,
                    chunk: 2,
                },
            ],
            attrs: vec![
                AttrSpec {
                    name: "x".into(),
                    kind: AttrKind::Float64,
                },
                AttrSpec {
                    name: "m".into(),
                    kind: AttrKind::Uncertain,
                },
                AttrSpec {
                    name: "nest".into(),
                    kind: AttrKind::Nested,
                },
            ],
            cells: vec![
                (
                    vec![1, 1],
                    vec![
                        CellValue::Float(1.25),
                        CellValue::Uncertain(2.0, 0.5),
                        CellValue::Nested(vec![Some(3), None, Some(-1), None]),
                    ],
                ),
                (
                    vec![4, 9],
                    vec![CellValue::Null, CellValue::Null, CellValue::Null],
                ),
            ],
            ops: vec![
                OpSpec::Filter {
                    attr: "x".into(),
                    cmp: Cmp::Ge,
                    lit: 1.0,
                },
                OpSpec::Project {
                    keep: vec!["x".into()],
                },
            ],
            grid_fault: true,
        }
    }

    #[test]
    fn json_roundtrip_preserves_case() {
        let c = sample_case();
        let text = c.to_json();
        let back = Case::from_json(&text).unwrap();
        assert_eq!(c, back);
        // Every op form, the structural ones included.
        for seed in 1..200 {
            let c = crate::gen::generate(seed);
            assert_eq!(Case::from_json(&c.to_json()).unwrap(), c, "seed {seed}");
        }
    }

    #[test]
    fn build_input_materializes_cells() {
        let c = sample_case();
        let a = c.build_input().unwrap();
        assert_eq!(a.cell_count(), 2);
        assert_eq!(a.get_f64(0, &[1, 1]), Some(1.25));
        assert!(a.schema().dims()[1].is_unbounded());
    }
}
