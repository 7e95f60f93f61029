//! Array schemas: the paper's `define ArrayType ({name = Type-1}) ({dname})`
//! statement (§2.1).
//!
//! An array type has a list of named, typed attributes (the cell record) and
//! a list of named integer dimensions. Dimensions run from 1 to a
//! high-water mark `N`, or are unbounded (`*`) and "grow without
//! restriction". Updatable arrays (§2.5) carry an implicit trailing
//! `history` dimension.

use crate::error::{Error, Result};
use crate::value::ScalarType;
use std::fmt;
use std::sync::Arc;

/// Name reserved for the implicit history dimension of updatable arrays.
pub const HISTORY_DIM: &str = "history";

/// The type of one attribute: a scalar or a nested array type.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrType {
    /// A scalar attribute.
    Scalar(ScalarType),
    /// A nested array attribute (§2.1 nested array model; used e.g. by the
    /// eBay clickstream schema of §2.14 where each time-series cell embeds
    /// the array of surfaced search results).
    Nested(Arc<ArraySchema>),
}

impl AttrType {
    /// Scalar view.
    pub fn as_scalar(&self) -> Option<ScalarType> {
        match self {
            AttrType::Scalar(t) => Some(*t),
            AttrType::Nested(_) => None,
        }
    }
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrType::Scalar(t) => write!(f, "{t}"),
            AttrType::Nested(s) => write!(f, "array<{}>", s.name()),
        }
    }
}

/// One attribute definition.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeDef {
    /// Attribute name, unique within the schema.
    pub name: String,
    /// Attribute type.
    pub ty: AttrType,
    /// Whether NULLs are allowed (Filter output always is; see §2.2.2).
    pub nullable: bool,
}

impl AttributeDef {
    /// A nullable scalar attribute.
    pub fn scalar(name: impl Into<String>, ty: ScalarType) -> Self {
        AttributeDef {
            name: name.into(),
            ty: AttrType::Scalar(ty),
            nullable: true,
        }
    }

    /// A nullable nested-array attribute.
    pub fn nested(name: impl Into<String>, schema: Arc<ArraySchema>) -> Self {
        AttributeDef {
            name: name.into(),
            ty: AttrType::Nested(schema),
            nullable: true,
        }
    }
}

/// One dimension definition.
///
/// Dimensions are integer-valued, named, and run from 1 to `upper`
/// inclusive; `upper = None` is the paper's `*` (unbounded). `chunk_len` is
/// the stride used to break the dimension into storage chunks (§2.8's
/// "rectangular buckets, defined by a stride in each dimension").
#[derive(Debug, Clone, PartialEq)]
pub struct DimensionDef {
    /// Dimension name, unique within the schema.
    pub name: String,
    /// High-water mark `N`; `None` means unbounded (`*`).
    pub upper: Option<i64>,
    /// Chunk stride along this dimension.
    pub chunk_len: i64,
}

/// Default chunk stride when a schema does not specify one.
pub const DEFAULT_CHUNK_LEN: i64 = 64;

impl DimensionDef {
    /// A bounded dimension `1..=upper` with the default chunk stride
    /// (clamped so tiny arrays use a single chunk).
    pub fn bounded(name: impl Into<String>, upper: i64) -> Self {
        DimensionDef {
            name: name.into(),
            upper: Some(upper),
            chunk_len: DEFAULT_CHUNK_LEN.min(upper.max(1)),
        }
    }

    /// An unbounded dimension (`*`).
    pub fn unbounded(name: impl Into<String>) -> Self {
        DimensionDef {
            name: name.into(),
            upper: None,
            chunk_len: DEFAULT_CHUNK_LEN,
        }
    }

    /// Overrides the chunk stride.
    pub fn with_chunk(mut self, chunk_len: i64) -> Self {
        assert!(chunk_len > 0, "chunk stride must be positive");
        self.chunk_len = chunk_len;
        self
    }

    /// True if this dimension is unbounded.
    pub fn is_unbounded(&self) -> bool {
        self.upper.is_none()
    }
}

/// An array schema: named attributes + named dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct ArraySchema {
    name: String,
    attrs: Vec<AttributeDef>,
    dims: Vec<DimensionDef>,
    updatable: bool,
}

impl ArraySchema {
    /// Creates a schema, validating name uniqueness and non-emptiness.
    pub fn new(
        name: impl Into<String>,
        attrs: Vec<AttributeDef>,
        dims: Vec<DimensionDef>,
    ) -> Result<Self> {
        let name = name.into();
        if name.is_empty() {
            return Err(Error::schema("array name must not be empty"));
        }
        if attrs.is_empty() {
            return Err(Error::schema(format!("array '{name}' has no attributes")));
        }
        if dims.is_empty() {
            return Err(Error::schema(format!("array '{name}' has no dimensions")));
        }
        let mut seen = std::collections::HashSet::new();
        for a in &attrs {
            if !seen.insert(a.name.clone()) {
                return Err(Error::schema(format!("duplicate attribute '{}'", a.name)));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for d in &dims {
            if !seen.insert(d.name.clone()) {
                return Err(Error::schema(format!("duplicate dimension '{}'", d.name)));
            }
            if let Some(u) = d.upper {
                if u < 1 {
                    return Err(Error::dimension(format!(
                        "dimension '{}' upper bound {u} must be >= 1",
                        d.name
                    )));
                }
            }
        }
        // A chunk addresses its cells by `u32` row-major offsets.
        let mut chunk_cells = 1u64;
        for d in &dims {
            let side = d.upper.map_or(d.chunk_len, |u| d.chunk_len.min(u));
            chunk_cells = match chunk_cells.checked_mul(side.max(0) as u64) {
                Some(cells) if side >= 1 && cells <= u64::from(u32::MAX) => cells,
                _ => {
                    return Err(Error::schema(format!(
                        "array '{name}': chunk stride {side} of dimension '{}' makes a chunk \
                         of more than u32::MAX cells",
                        d.name
                    )))
                }
            };
        }
        Ok(ArraySchema {
            name,
            attrs,
            dims,
            updatable: false,
        })
    }

    /// Declares the array updatable (§2.5): appends the implicit unbounded
    /// `history` dimension if not already present. The history dimension
    /// has chunk length 1, so that each chunk holds one history version: a
    /// declared one gets it too, unless it names another stride, which is an
    /// error (the default stride counts as none named).
    pub fn updatable(mut self) -> Result<Self> {
        if self.updatable {
            return Ok(self);
        }
        if let Some(d) = self.dims.iter_mut().find(|d| d.name == HISTORY_DIM) {
            // The user already declared history explicitly, like the paper's
            // `Remote_2 (…) (I, J, history)` example.
            let default = d
                .upper
                .map_or(DEFAULT_CHUNK_LEN, |u| DEFAULT_CHUNK_LEN.min(u.max(1)));
            if d.chunk_len != 1 && d.chunk_len != default {
                return Err(Error::schema(format!(
                    "array '{}': the history dimension has chunk length 1, not {}",
                    self.name, d.chunk_len
                )));
            }
            d.chunk_len = 1;
            self.updatable = true;
            return Ok(self);
        }
        self.dims
            .push(DimensionDef::unbounded(HISTORY_DIM).with_chunk(1));
        self.updatable = true;
        Ok(self)
    }

    /// Schema name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the schema (used by `create ... as Type`).
    pub fn renamed(&self, name: impl Into<String>) -> ArraySchema {
        let mut s = self.clone();
        s.name = name.into();
        s
    }

    /// Attribute definitions.
    pub fn attrs(&self) -> &[AttributeDef] {
        &self.attrs
    }

    /// Dimension definitions.
    pub fn dims(&self) -> &[DimensionDef] {
        &self.dims
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Whether the array was declared updatable.
    pub fn is_updatable(&self) -> bool {
        self.updatable
    }

    /// Index of an attribute by name.
    pub fn attr_index(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name == name)
    }

    /// Index of a dimension by name.
    pub fn dim_index(&self, name: &str) -> Option<usize> {
        self.dims.iter().position(|d| d.name == name)
    }

    /// Attribute lookup returning an error for unknown names.
    pub fn require_attr(&self, name: &str) -> Result<usize> {
        self.attr_index(name)
            .ok_or_else(|| Error::not_found(format!("attribute '{name}' in array '{}'", self.name)))
    }

    /// Dimension lookup returning an error for unknown names.
    pub fn require_dim(&self, name: &str) -> Result<usize> {
        self.dim_index(name)
            .ok_or_else(|| Error::not_found(format!("dimension '{name}' in array '{}'", self.name)))
    }

    /// Instantiates this type with concrete bounds, like the paper's
    /// `create My_remote as Remote [1024, 1024]`; `None` entries keep `*`.
    pub fn instantiate(
        &self,
        name: impl Into<String>,
        bounds: &[Option<i64>],
    ) -> Result<ArraySchema> {
        if bounds.len() != self.dims.len() {
            return Err(Error::dimension(format!(
                "create: got {} bounds for {} dimensions",
                bounds.len(),
                self.dims.len()
            )));
        }
        let mut s = self.renamed(name);
        for (d, b) in s.dims.iter_mut().zip(bounds) {
            if let Some(u) = b {
                if *u < 1 {
                    return Err(Error::dimension(format!(
                        "bound {u} for dimension '{}' must be >= 1",
                        d.name
                    )));
                }
                d.upper = Some(*u);
                d.chunk_len = d.chunk_len.min(*u);
            } else {
                d.upper = None;
            }
        }
        Ok(s)
    }

    /// Total number of cells for a fully bounded schema.
    pub fn cell_count(&self) -> Option<u64> {
        self.dims
            .iter()
            .map(|d| d.upper.map(|u| u as u64))
            .product()
    }

    /// True if two schemas have identical attribute lists (names + types),
    /// the compatibility requirement for `Concat`.
    pub fn attrs_compatible(&self, other: &ArraySchema) -> bool {
        self.attrs.len() == other.attrs.len()
            && self
                .attrs
                .iter()
                .zip(other.attrs.iter())
                .all(|(a, b)| a.name == b.name && a.ty == b.ty)
    }
}

impl fmt::Display for ArraySchema {
    /// Renders in the paper's `define` syntax:
    /// `define Remote (s1 = float, s2 = float, s3 = float) (I, J)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "define ")?;
        if self.updatable {
            write!(f, "updatable ")?;
        }
        write!(f, "{} (", self.name)?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} = {}", a.name, a.ty)?;
        }
        write!(f, ") (")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match d.upper {
                Some(u) => write!(f, "{}=1:{}", d.name, u)?,
                None => write!(f, "{}=1:*", d.name)?,
            }
        }
        write!(f, ")")
    }
}

/// Fluent builder for schemas, the Rust-binding counterpart of `define`.
///
/// ```
/// use scidb_core::schema::SchemaBuilder;
/// use scidb_core::value::ScalarType;
/// let remote = SchemaBuilder::new("Remote")
///     .attr("s1", ScalarType::Float64)
///     .attr("s2", ScalarType::Float64)
///     .attr("s3", ScalarType::Float64)
///     .dim("I", 1024)
///     .dim("J", 1024)
///     .build()
///     .unwrap();
/// assert_eq!(remote.rank(), 2);
/// ```
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    name: String,
    attrs: Vec<AttributeDef>,
    dims: Vec<DimensionDef>,
    updatable: bool,
}

impl SchemaBuilder {
    /// Starts a builder for an array type called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        SchemaBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a scalar attribute.
    pub fn attr(mut self, name: impl Into<String>, ty: ScalarType) -> Self {
        self.attrs.push(AttributeDef::scalar(name, ty));
        self
    }

    /// Adds a nested-array attribute.
    pub fn nested_attr(mut self, name: impl Into<String>, schema: Arc<ArraySchema>) -> Self {
        self.attrs.push(AttributeDef::nested(name, schema));
        self
    }

    /// Adds a bounded dimension `1..=upper`.
    pub fn dim(mut self, name: impl Into<String>, upper: i64) -> Self {
        self.dims.push(DimensionDef::bounded(name, upper));
        self
    }

    /// Adds a bounded dimension with an explicit chunk stride.
    pub fn dim_chunked(mut self, name: impl Into<String>, upper: i64, chunk: i64) -> Self {
        self.dims
            .push(DimensionDef::bounded(name, upper).with_chunk(chunk));
        self
    }

    /// Adds an unbounded (`*`) dimension.
    pub fn dim_unbounded(mut self, name: impl Into<String>) -> Self {
        self.dims.push(DimensionDef::unbounded(name));
        self
    }

    /// Marks the array updatable (§2.5); the implicit `history` dimension is
    /// appended at `build` time.
    pub fn updatable(mut self) -> Self {
        self.updatable = true;
        self
    }

    /// Validates and builds the schema.
    pub fn build(self) -> Result<ArraySchema> {
        let s = ArraySchema::new(self.name, self.attrs, self.dims)?;
        if self.updatable {
            s.updatable()
        } else {
            Ok(s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn remote() -> ArraySchema {
        SchemaBuilder::new("Remote")
            .attr("s1", ScalarType::Float64)
            .attr("s2", ScalarType::Float64)
            .attr("s3", ScalarType::Float64)
            .dim("I", 1024)
            .dim("J", 1024)
            .build()
            .unwrap()
    }

    #[test]
    fn builds_papers_remote_example() {
        let s = remote();
        assert_eq!(s.name(), "Remote");
        assert_eq!(s.attrs().len(), 3);
        assert_eq!(s.rank(), 2);
        assert_eq!(s.cell_count(), Some(1024 * 1024));
        assert_eq!(
            s.to_string(),
            "define Remote (s1 = float, s2 = float, s3 = float) (I=1:1024, J=1:1024)"
        );
    }

    #[test]
    fn unbounded_create_like_paper() {
        // create My_remote_2 as Remote [*, *]
        let s = remote().instantiate("My_remote_2", &[None, None]).unwrap();
        assert!(s.dims()[0].is_unbounded() && s.dims()[1].is_unbounded());
        assert_eq!(s.cell_count(), None);
        assert_eq!(s.name(), "My_remote_2");
    }

    #[test]
    fn instantiate_checks_rank() {
        let err = remote().instantiate("x", &[Some(10)]).unwrap_err();
        assert!(matches!(err, Error::Dimension(_)));
    }

    #[test]
    fn updatable_appends_history_dimension() {
        let s = SchemaBuilder::new("Remote_2")
            .attr("s1", ScalarType::Float64)
            .dim("I", 4)
            .dim("J", 4)
            .updatable()
            .build()
            .unwrap();
        assert!(s.is_updatable());
        assert_eq!(s.rank(), 3);
        let h = &s.dims()[2];
        assert_eq!(h.name, HISTORY_DIM);
        assert!(h.is_unbounded());
    }

    #[test]
    fn explicit_history_dimension_is_respected() {
        // define updatable Remote_2 (…) (I, J, history) — paper §2.5.
        let s = ArraySchema::new(
            "Remote_2",
            vec![AttributeDef::scalar("s1", ScalarType::Float64)],
            vec![
                DimensionDef::bounded("I", 4),
                DimensionDef::bounded("J", 4),
                DimensionDef::unbounded(HISTORY_DIM),
            ],
        )
        .unwrap()
        .updatable()
        .unwrap();
        assert_eq!(s.rank(), 3, "no duplicate history dim");
        assert_eq!(s.dims()[2].chunk_len, 1, "one history version per chunk");
        // Another declared stride cannot be honoured.
        let strided = ArraySchema::new(
            "Remote_2",
            vec![AttributeDef::scalar("s1", ScalarType::Float64)],
            vec![
                DimensionDef::bounded("I", 4),
                DimensionDef::unbounded(HISTORY_DIM).with_chunk(8),
            ],
        )
        .unwrap();
        assert!(matches!(strided.updatable(), Err(Error::Schema(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        assert!(SchemaBuilder::new("A")
            .attr("x", ScalarType::Int64)
            .attr("x", ScalarType::Int64)
            .dim("I", 2)
            .build()
            .is_err());
        assert!(SchemaBuilder::new("A")
            .attr("x", ScalarType::Int64)
            .dim("I", 2)
            .dim("I", 2)
            .build()
            .is_err());
    }

    #[test]
    fn empty_schema_rejected() {
        assert!(ArraySchema::new("A", vec![], vec![DimensionDef::bounded("I", 1)]).is_err());
        assert!(ArraySchema::new(
            "A",
            vec![AttributeDef::scalar("x", ScalarType::Int64)],
            vec![]
        )
        .is_err());
    }

    #[test]
    fn bad_bounds_rejected() {
        assert!(SchemaBuilder::new("A")
            .attr("x", ScalarType::Int64)
            .dim("I", 0)
            .build()
            .is_err());
        assert!(remote().instantiate("x", &[Some(0), Some(1)]).is_err());
    }

    #[test]
    fn attr_and_dim_lookup() {
        let s = remote();
        assert_eq!(s.attr_index("s2"), Some(1));
        assert_eq!(s.dim_index("J"), Some(1));
        assert!(s.require_attr("nope").is_err());
        assert!(s.require_dim("nope").is_err());
    }

    #[test]
    fn attrs_compatible_checks_names_and_types() {
        let a = remote();
        let b = remote().renamed("Other");
        assert!(a.attrs_compatible(&b));
        let c = SchemaBuilder::new("C")
            .attr("s1", ScalarType::Int64)
            .attr("s2", ScalarType::Float64)
            .attr("s3", ScalarType::Float64)
            .dim("I", 2)
            .build()
            .unwrap();
        assert!(!a.attrs_compatible(&c));
    }

    #[test]
    fn nested_attribute_displays() {
        let inner = Arc::new(
            SchemaBuilder::new("results")
                .attr("item", ScalarType::Int64)
                .dim("rank", 10)
                .build()
                .unwrap(),
        );
        let s = SchemaBuilder::new("Session")
            .attr("ts", ScalarType::Int64)
            .nested_attr("results", inner)
            .dim_unbounded("t")
            .build()
            .unwrap();
        assert!(s.to_string().contains("results = array<results>"));
    }

    #[test]
    fn chunks_past_the_u32_cell_limit_are_rejected() {
        let dims = |len: i64, n: usize| {
            (0..n)
                .map(|d| DimensionDef::unbounded(format!("d{d}")).with_chunk(len))
                .collect::<Vec<_>>()
        };
        let attrs = || vec![AttributeDef::scalar("v", ScalarType::Int64)];
        // 64^5 = 2^30 cells fit; 64^6 = 2^36 and 2^16 × 2^16 = 2^32 do not.
        assert!(ArraySchema::new("A", attrs(), dims(64, 5)).is_ok());
        for (len, n) in [(64, 6), (1 << 16, 2)] {
            assert!(matches!(
                ArraySchema::new("A", attrs(), dims(len, n)),
                Err(Error::Schema(_))
            ));
        }
        // A bounded dimension's chunk is clamped to its bound first.
        let mut clamped = dims(1 << 20, 2);
        clamped[0].upper = Some(8);
        assert!(ArraySchema::new("A", attrs(), clamped).is_ok());
    }

    #[test]
    fn chunk_len_clamped_to_small_arrays() {
        let s = SchemaBuilder::new("A")
            .attr("x", ScalarType::Int64)
            .dim("I", 4)
            .build()
            .unwrap();
        assert_eq!(s.dims()[0].chunk_len, 4);
    }
}
