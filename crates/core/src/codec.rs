//! The array image: the one byte layout of a schema, a value and an array.
//!
//! The paper asks for a single self-describing format (§2.9). Everything
//! this system itself writes an array into — a wire-protocol payload, a WAL
//! `PutArray` image, the SDDF file header — goes through this module, so a
//! schema, a value and an array are each encoded and decoded by exactly one
//! function (layout table: DESIGN.md "Array image"). All integers are
//! big-endian; floats travel as IEEE-754 bit patterns, so a decoded array
//! is bit-identical to the encoded one. Runtime-only state (enhancements,
//! shape functions) is not part of the image.
//!
//! Decoding trusts nothing: reads are bounds-checked, a count is compared
//! with the bytes that remain before anything is reserved for it, nesting
//! is limited to [`MAX_NESTING`], and [`decode_all`] rejects trailing
//! bytes. Every failure is an [`Error::Protocol`]; callers whose input is
//! not a wire frame (the WAL, SDDF) re-label it at their call sites.

use crate::array::Array;
use crate::error::{Error, Result};
use crate::schema::{ArraySchema, AttrType, AttributeDef, DimensionDef};
use crate::uncertain::Uncertain;
use crate::value::{Scalar, ScalarType, Value};
use std::sync::Arc;

/// Maximum nesting depth the decoder accepts (nested attribute schemas and
/// nested-array cell values).
pub const MAX_NESTING: usize = 8;

// ---- primitives ----------------------------------------------------------

/// Appends a `u8`.
#[inline]
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a big-endian `u16`.
#[inline]
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u32`.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u64`.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `i64`.
#[inline]
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern (bit-exact, NaN included).
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a `u32`-length-prefixed byte string.
#[inline]
pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

/// Appends a length-prefixed UTF-8 string.
#[inline]
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// A bounds-checked reader over one payload; truncation is an error.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// True once the whole payload is consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Reads `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        match self.buf.get(self.pos..).and_then(|rest| rest.get(..n)) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(Error::protocol(format!(
                "payload truncated: wanted {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads a `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a big-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_be_bytes(self.array()?))
    }

    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32`-length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        std::str::from_utf8(self.bytes()?)
            .map(str::to_owned)
            .map_err(|_| Error::protocol("string payload is not valid UTF-8"))
    }

    /// Accepts an element count read from the payload only if the bytes
    /// that remain could hold it (every element takes at least one byte),
    /// so a hostile count never sizes a reservation or a loop.
    fn count(&self, n: u64, what: &str) -> Result<usize> {
        let left = self.buf.len() - self.pos;
        if n > left as u64 {
            return Err(Error::protocol(format!(
                "{what} count {n} exceeds the {left} bytes that remain"
            )));
        }
        Ok(n as usize)
    }
}

/// Runs `decode` over a payload that must hold exactly what it reads:
/// bytes left over are an error.
pub fn decode_all<T>(buf: &[u8], decode: impl FnOnce(&mut Reader<'_>) -> Result<T>) -> Result<T> {
    let mut r = Reader::new(buf);
    let out = decode(&mut r)?;
    if !r.is_empty() {
        let extra = buf.len() - r.pos;
        return Err(Error::protocol(format!("{extra} trailing bytes")));
    }
    Ok(out)
}

// ---- schema ----------------------------------------------------------------

fn scalar_tag(ty: ScalarType) -> u8 {
    match ty {
        ScalarType::Int64 => 1,
        ScalarType::Float64 => 2,
        ScalarType::Bool => 3,
        ScalarType::String => 4,
        ScalarType::UncertainFloat64 => 5,
    }
}

fn decode_scalar_type(r: &mut Reader<'_>) -> Result<ScalarType> {
    match r.u8()? {
        1 => Ok(ScalarType::Int64),
        2 => Ok(ScalarType::Float64),
        3 => Ok(ScalarType::Bool),
        4 => Ok(ScalarType::String),
        5 => Ok(ScalarType::UncertainFloat64),
        other => Err(Error::protocol(format!("unknown scalar type tag {other}"))),
    }
}

/// Appends a schema: name, updatability, attributes (nested schemas
/// inline), dimensions with their chunk strides.
pub fn encode_schema(buf: &mut Vec<u8>, schema: &ArraySchema) {
    put_str(buf, schema.name());
    put_u8(buf, u8::from(schema.is_updatable()));
    put_u32(buf, schema.attrs().len() as u32);
    for a in schema.attrs() {
        put_str(buf, &a.name);
        put_u8(buf, u8::from(a.nullable));
        match &a.ty {
            AttrType::Scalar(ty) => {
                put_u8(buf, 0);
                put_u8(buf, scalar_tag(*ty));
            }
            AttrType::Nested(inner) => {
                put_u8(buf, 1);
                encode_schema(buf, inner);
            }
        }
    }
    put_u32(buf, schema.dims().len() as u32);
    for d in schema.dims() {
        put_str(buf, &d.name);
        // 0 encodes unbounded (`*`); real bounds are always >= 1.
        put_i64(buf, d.upper.unwrap_or(0));
        put_i64(buf, d.chunk_len);
    }
}

/// Reads a schema written by [`encode_schema`].
pub fn decode_schema(r: &mut Reader<'_>) -> Result<ArraySchema> {
    schema_at(r, 0)
}

/// A well-formed image that the array model itself rejects (duplicate
/// names, a cell outside its dimensions, …) is reported as the one codec
/// error kind, like every other bad image.
fn invalid(e: Error) -> Error {
    Error::protocol(format!("invalid array image: {e}"))
}

fn schema_at(r: &mut Reader<'_>, depth: usize) -> Result<ArraySchema> {
    if depth > MAX_NESTING {
        return Err(Error::protocol(format!(
            "schema nesting exceeds the {MAX_NESTING}-level limit"
        )));
    }
    let name = r.str()?;
    let updatable = r.u8()? != 0;
    let n_attrs = r.u32()?;
    let n_attrs = r.count(n_attrs.into(), "attribute")?;
    let mut attrs = Vec::with_capacity(n_attrs);
    for _ in 0..n_attrs {
        let name = r.str()?;
        let nullable = r.u8()? != 0;
        let ty = match r.u8()? {
            0 => AttrType::Scalar(decode_scalar_type(r)?),
            1 => AttrType::Nested(Arc::new(schema_at(r, depth + 1)?)),
            other => return Err(Error::protocol(format!("unknown attribute tag {other}"))),
        };
        attrs.push(AttributeDef { name, ty, nullable });
    }
    let n_dims = r.u32()?;
    let n_dims = r.count(n_dims.into(), "dimension")?;
    let mut dims = Vec::with_capacity(n_dims);
    let mut chunk_cells = 1i64;
    for _ in 0..n_dims {
        let name = r.str()?;
        let upper = r.i64()?;
        let chunk_len = r.i64()?;
        // Chunk addressing multiplies the strides; a stride that is not
        // positive, or strides whose product overflows, would trip it.
        chunk_cells = match chunk_cells.checked_mul(chunk_len) {
            Some(cells) if chunk_len >= 1 => cells,
            _ => {
                return Err(Error::protocol(format!(
                    "dimension '{name}' has unusable chunk length {chunk_len}"
                )))
            }
        };
        dims.push(DimensionDef {
            name,
            upper: (upper != 0).then_some(upper),
            chunk_len,
        });
    }
    let schema = ArraySchema::new(name, attrs, dims).map_err(invalid)?;
    if updatable {
        // The history dimension is already present in the encoded dims,
        // so this only restores the flag.
        schema.updatable().map_err(invalid)
    } else {
        Ok(schema)
    }
}

// ---- values and arrays -------------------------------------------------------

/// One cell value: a tag byte (0 NULL, 1–5 scalars, 6 nested array) and
/// its payload.
fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(buf, 0),
        Value::Scalar(Scalar::Int64(i)) => {
            put_u8(buf, 1);
            put_i64(buf, *i);
        }
        Value::Scalar(Scalar::Float64(f)) => {
            put_u8(buf, 2);
            put_f64(buf, *f);
        }
        Value::Scalar(Scalar::Bool(b)) => {
            put_u8(buf, 3);
            put_u8(buf, u8::from(*b));
        }
        Value::Scalar(Scalar::String(s)) => {
            put_u8(buf, 4);
            put_str(buf, s);
        }
        Value::Scalar(Scalar::Uncertain(u)) => {
            put_u8(buf, 5);
            put_f64(buf, u.mean);
            put_f64(buf, u.sigma);
        }
        Value::Array(a) => {
            put_u8(buf, 6);
            encode_array(buf, a);
        }
    }
}

fn decode_value(r: &mut Reader<'_>, depth: usize) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::from(r.i64()?),
        2 => Value::from(r.f64()?),
        3 => Value::from(r.u8()? != 0),
        4 => Value::from(r.str()?),
        5 => Value::from(Uncertain::new(r.f64()?, r.f64()?)),
        6 => {
            if depth > MAX_NESTING {
                return Err(Error::protocol(format!(
                    "value nesting exceeds the {MAX_NESTING}-level limit"
                )));
            }
            Value::Array(Box::new(array_at(r, depth + 1)?))
        }
        other => return Err(Error::protocol(format!("unknown value tag {other}"))),
    })
}

/// Appends an array: its schema, the count of present cells, then each
/// cell's coordinates and record in chunk-major order.
pub fn encode_array(buf: &mut Vec<u8>, array: &Array) {
    encode_schema(buf, array.schema());
    put_u64(buf, array.cell_count() as u64);
    for (coords, record) in array.cells() {
        for c in &coords {
            put_i64(buf, *c);
        }
        put_u32(buf, record.len() as u32);
        for v in &record {
            encode_value(buf, v);
        }
    }
}

/// Reads an array written by [`encode_array`], leaving the reader after
/// the image (a caller whose payload is one image uses [`decode_all`]).
pub fn decode_array(r: &mut Reader<'_>) -> Result<Array> {
    array_at(r, 0)
}

fn array_at(r: &mut Reader<'_>, depth: usize) -> Result<Array> {
    let mut array = Array::new(schema_at(r, depth)?);
    let n_cells = r.u64()?;
    let n_cells = r.count(n_cells, "cell")?;
    let mut coords = vec![0i64; array.rank()];
    for _ in 0..n_cells {
        for c in coords.iter_mut() {
            *c = r.i64()?;
        }
        // A cell's chunk rectangle ends up to one stride past the cell;
        // chunk addressing must not overflow computing it.
        let dims = array.schema().dims().iter();
        if coords
            .iter()
            .zip(dims)
            .any(|(c, d)| c.checked_add(d.chunk_len).is_none())
        {
            return Err(Error::protocol(format!("cell {coords:?} is out of range")));
        }
        let n_vals = r.u32()?;
        let n_vals = r.count(n_vals.into(), "value")?;
        let mut record = Vec::with_capacity(n_vals);
        for _ in 0..n_vals {
            record.push(decode_value(r, depth)?);
        }
        array.set_cell(&coords, record).map_err(invalid)?;
    }
    Ok(array)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 9);
        put_u16(&mut buf, 999);
        put_u32(&mut buf, 70_000);
        put_u64(&mut buf, u64::MAX - 1);
        put_i64(&mut buf, -42);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NAN);
        put_str(&mut buf, "héllo");
        put_bytes(&mut buf, &[0xff, 0x00]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 9);
        assert_eq!(r.u16().unwrap(), 999);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "héllo");
        assert!(!r.is_empty(), "two more bytes follow");
        assert_eq!(r.bytes().unwrap(), &[0xff, 0x00]);
        assert!(r.is_empty());
        assert!(r.u8().is_err());
        assert!(r.take(usize::MAX).is_err(), "no overflow past the end");
    }

    fn one_cell_image(chunk_len: i64, coord: i64) -> Vec<u8> {
        let mut buf = Vec::new();
        put_str(&mut buf, "A");
        put_u8(&mut buf, 0);
        put_u32(&mut buf, 1);
        put_str(&mut buf, "v");
        put_u8(&mut buf, 1);
        put_u8(&mut buf, 0);
        put_u8(&mut buf, scalar_tag(ScalarType::Int64));
        put_u32(&mut buf, 1);
        put_str(&mut buf, "X");
        put_i64(&mut buf, 0);
        put_i64(&mut buf, chunk_len);
        put_u64(&mut buf, 1);
        put_i64(&mut buf, coord);
        put_u32(&mut buf, 1);
        encode_value(&mut buf, &Value::from(7i64));
        buf
    }

    fn decode(buf: &[u8]) -> Result<Array> {
        decode_all(buf, decode_array)
    }

    #[test]
    fn hand_built_image_decodes_and_re_encodes_to_the_same_bytes() {
        let image = one_cell_image(64, 5);
        let a = decode(&image).unwrap();
        assert_eq!(a.get_cell(&[5]), Some(vec![Value::from(7i64)]));
        assert!(a.schema().dims()[0].is_unbounded());
        let mut again = Vec::new();
        encode_array(&mut again, &a);
        assert_eq!(again, image);
    }

    #[test]
    fn geometry_that_would_overflow_chunk_addressing_is_an_error() {
        for (chunk_len, coord) in [
            (0, 1),
            (-4, 1),
            (64, i64::MAX),
            (64, i64::MAX - 63),
            (i64::MAX, 2),
            (64, 0),
            (64, i64::MIN),
        ] {
            let err = decode(&one_cell_image(chunk_len, coord)).unwrap_err();
            assert!(
                matches!(err, Error::Protocol(_)),
                "chunk {chunk_len}, coord {coord}: {err}"
            );
        }
        decode(&one_cell_image(64, i64::MAX - 64)).unwrap();
        // Two strides that are each fine but whose product is not.
        let schema = SchemaBuilder::new("B")
            .attr("v", ScalarType::Int64)
            .dim_chunked("X", 8, 1 << 40)
            .dim_chunked("Y", 8, 1 << 40)
            .build()
            .unwrap();
        let mut buf = Vec::new();
        encode_schema(&mut buf, &schema);
        assert!(matches!(
            decode_schema(&mut Reader::new(&buf)),
            Err(Error::Protocol(_))
        ));
    }

    #[test]
    fn model_violations_surface_as_the_codec_error_kind() {
        // Duplicate attribute names: structurally fine, rejected by
        // `ArraySchema::new`.
        let mut buf = Vec::new();
        put_str(&mut buf, "A");
        put_u8(&mut buf, 0);
        put_u32(&mut buf, 2);
        for _ in 0..2 {
            put_str(&mut buf, "v");
            put_u8(&mut buf, 1);
            put_u8(&mut buf, 0);
            put_u8(&mut buf, scalar_tag(ScalarType::Bool));
        }
        put_u32(&mut buf, 1);
        put_str(&mut buf, "X");
        put_i64(&mut buf, 4);
        put_i64(&mut buf, 4);
        assert!(matches!(
            decode_schema(&mut Reader::new(&buf)),
            Err(Error::Protocol(_))
        ));
    }
}
