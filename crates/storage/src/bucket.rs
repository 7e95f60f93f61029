//! Bucket serialization: one chunk ⇄ one self-describing compressed block.
//!
//! §2.8: "the storage manager will form the data into a collection of
//! rectangular buckets, defined by a stride in each dimension, compress the
//! bucket and write it to disk." A bucket payload is versioned and
//! self-describing — rank, rectangle, attribute types, and per-column codec
//! tags all live in the header, so buckets can be read back without
//! consulting the catalog (this also serves the in-situ SDDF format, §2.9).

use crate::compress::{
    decode_bytes, decode_f64s, decode_i64s, encode_bytes, encode_f64s, encode_i64s, get_varint,
    put_varint, unzigzag, zigzag, Codec,
};
use scidb_core::bitvec::BitVec;
use scidb_core::chunk::{Chunk, Column, SigmaStore};
use scidb_core::error::{Error, Result};
use scidb_core::geometry::HyperRect;
use scidb_core::schema::AttrType;
use scidb_core::uncertain::Uncertain;
use scidb_core::value::{Scalar, ScalarType, Value};

const MAGIC: &[u8; 4] = b"SBKT";
const VERSION: u8 = 1;

/// Per-type codec choices for bucket encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecPolicy {
    /// Codec for integer columns (and the presence offset list).
    pub ints: Codec,
    /// Codec for float payloads (floats, uncertain means/sigmas).
    pub floats: Codec,
    /// Codec for byte payloads (bitmaps, strings, bools).
    pub bytes: Codec,
    /// When set, every section independently picks the smallest encoding
    /// among the candidates for its payload type (first-wins on ties, so
    /// the choice is deterministic); the per-type fields above become
    /// fallbacks. The format already tags each section with its codec, so
    /// adaptive buckets deserialize with the same reader.
    pub adaptive: bool,
}

impl CodecPolicy {
    /// The tuned default: delta-varint ints, XOR floats, RLE bitmaps.
    pub fn default_policy() -> Self {
        CodecPolicy {
            ints: Codec::DeltaVarint,
            floats: Codec::XorFloat,
            bytes: Codec::Rle,
            adaptive: false,
        }
    }

    /// No compression anywhere (baseline for experiment E3).
    pub fn raw() -> Self {
        CodecPolicy {
            ints: Codec::Raw,
            floats: Codec::Raw,
            bytes: Codec::Raw,
            adaptive: false,
        }
    }

    /// Per-bucket adaptive selection (§2.8 "compress the bucket"): each
    /// section is encoded with every candidate codec for its payload type
    /// and the strictly smallest encoding wins.
    pub fn adaptive() -> Self {
        CodecPolicy {
            adaptive: true,
            ..CodecPolicy::default_policy()
        }
    }
}

/// Candidate codecs per payload type, tried in order under
/// [`CodecPolicy::adaptive`]; the first strictly-smallest encoding wins.
const INT_CANDIDATES: [Codec; 3] = [Codec::DeltaVarint, Codec::Rle, Codec::Raw];
const FLOAT_CANDIDATES: [Codec; 3] = [Codec::XorFloat, Codec::Rle, Codec::Raw];
const BYTE_CANDIDATES: [Codec; 2] = [Codec::Rle, Codec::Raw];

/// Writes one codec-tagged section: either the policy's fixed codec, or
/// (adaptive) the candidate producing the smallest encoding.
fn put_tagged_section<F>(
    out: &mut Vec<u8>,
    fixed: Codec,
    adaptive: bool,
    candidates: &[Codec],
    encode: F,
) -> Result<()>
where
    F: Fn(Codec) -> Result<Vec<u8>>,
{
    if !adaptive {
        out.push(fixed.tag());
        put_section(out, &encode(fixed)?);
        return Ok(());
    }
    let mut best: Option<(Codec, Vec<u8>)> = None;
    for &codec in candidates {
        let enc = encode(codec)?;
        let better = match &best {
            None => true,
            Some((_, b)) => enc.len() < b.len(),
        };
        if better {
            best = Some((codec, enc));
        }
    }
    let (codec, enc) = best.ok_or_else(|| Error::storage("no codec candidates"))?;
    out.push(codec.tag());
    put_section(out, &enc);
    Ok(())
}

fn type_tag(ty: &AttrType) -> Result<u8> {
    Ok(match ty {
        AttrType::Scalar(ScalarType::Int64) => 0,
        AttrType::Scalar(ScalarType::Float64) => 1,
        AttrType::Scalar(ScalarType::Bool) => 2,
        AttrType::Scalar(ScalarType::String) => 3,
        AttrType::Scalar(ScalarType::UncertainFloat64) => 4,
        AttrType::Nested(_) => {
            return Err(Error::Unsupported(
                "nested-array attributes are not bucket-serializable".into(),
            ))
        }
    })
}

fn type_from_tag(tag: u8) -> Result<AttrType> {
    Ok(AttrType::Scalar(match tag {
        0 => ScalarType::Int64,
        1 => ScalarType::Float64,
        2 => ScalarType::Bool,
        3 => ScalarType::String,
        4 => ScalarType::UncertainFloat64,
        t => return Err(Error::storage(format!("unknown attribute tag {t}"))),
    }))
}

fn put_section(out: &mut Vec<u8>, payload: &[u8]) {
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

fn get_section<'a>(data: &'a [u8], pos: &mut usize) -> Result<&'a [u8]> {
    let len = get_varint(data, pos)? as usize;
    let s = data
        .get(*pos..*pos + len)
        .ok_or_else(|| Error::storage("section truncated"))?;
    *pos += len;
    Ok(s)
}

/// Serializes a chunk into a self-describing compressed bucket payload.
pub fn serialize_chunk(chunk: &Chunk, policy: CodecPolicy) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);

    let rect = chunk.rect();
    put_varint(&mut out, rect.rank() as u64);
    for d in 0..rect.rank() {
        put_varint(&mut out, zigzag(rect.low[d]));
        put_varint(&mut out, zigzag(rect.high[d]));
    }

    // Presence: sorted row-major offsets, delta-varint friendly.
    let offsets: Vec<i64> = chunk.iter_present().map(|(_, idx)| idx as i64).collect();
    put_tagged_section(
        &mut out,
        policy.ints,
        policy.adaptive,
        &INT_CANDIDATES,
        |c| encode_i64s(&offsets, c),
    )?;

    let attr_types = chunk.attr_types().to_vec();
    put_varint(&mut out, attr_types.len() as u64);

    for (ai, ty) in attr_types.iter().enumerate() {
        out.push(type_tag(ty)?);
        // NULL bitmap over present cells, in offset order.
        let mut nulls = BitVec::new();
        for &idx in &offsets {
            nulls.push(chunk.value_at(ai, idx as usize).is_null());
        }
        let null_bytes: Vec<u8> = nulls.words().iter().flat_map(|w| w.to_le_bytes()).collect();
        put_tagged_section(
            &mut out,
            policy.bytes,
            policy.adaptive,
            &BYTE_CANDIDATES,
            |c| encode_bytes(&null_bytes, c),
        )?;

        // Values for present cells (placeholders at NULLs).
        match ty {
            AttrType::Scalar(ScalarType::Int64) => {
                let vals: Vec<i64> = offsets
                    .iter()
                    .map(|&idx| chunk.value_at(ai, idx as usize).as_i64().unwrap_or(0))
                    .collect();
                put_tagged_section(
                    &mut out,
                    policy.ints,
                    policy.adaptive,
                    &INT_CANDIDATES,
                    |c| encode_i64s(&vals, c),
                )?;
            }
            AttrType::Scalar(ScalarType::Float64) => {
                let vals: Vec<f64> = offsets
                    .iter()
                    .map(|&idx| chunk.value_at(ai, idx as usize).as_f64().unwrap_or(0.0))
                    .collect();
                put_tagged_section(
                    &mut out,
                    policy.floats,
                    policy.adaptive,
                    &FLOAT_CANDIDATES,
                    |c| encode_f64s(&vals, c),
                )?;
            }
            AttrType::Scalar(ScalarType::Bool) => {
                let mut bits = BitVec::new();
                for &idx in &offsets {
                    bits.push(chunk.value_at(ai, idx as usize).as_bool().unwrap_or(false));
                }
                let bytes: Vec<u8> = bits.words().iter().flat_map(|w| w.to_le_bytes()).collect();
                put_tagged_section(
                    &mut out,
                    policy.bytes,
                    policy.adaptive,
                    &BYTE_CANDIDATES,
                    |c| encode_bytes(&bytes, c),
                )?;
            }
            AttrType::Scalar(ScalarType::String) => {
                let mut payload = Vec::new();
                for &idx in &offsets {
                    match chunk.value_at(ai, idx as usize) {
                        Value::Scalar(Scalar::String(s)) => {
                            put_varint(&mut payload, s.len() as u64);
                            payload.extend_from_slice(s.as_bytes());
                        }
                        _ => put_varint(&mut payload, 0),
                    }
                }
                put_tagged_section(
                    &mut out,
                    policy.bytes,
                    policy.adaptive,
                    &BYTE_CANDIDATES,
                    |c| encode_bytes(&payload, c),
                )?;
            }
            AttrType::Scalar(ScalarType::UncertainFloat64) => {
                let mut means = Vec::with_capacity(offsets.len());
                let mut sigmas = Vec::with_capacity(offsets.len());
                for &idx in &offsets {
                    match chunk.value_at(ai, idx as usize) {
                        Value::Scalar(Scalar::Uncertain(u)) => {
                            means.push(u.mean);
                            sigmas.push(u.sigma);
                        }
                        _ => {
                            means.push(0.0);
                            sigmas.push(0.0);
                        }
                    }
                }
                put_tagged_section(
                    &mut out,
                    policy.floats,
                    policy.adaptive,
                    &FLOAT_CANDIDATES,
                    |c| encode_f64s(&means, c),
                )?;
                // Constant-sigma fast path (§2.13 "negligible extra space").
                let constant = sigmas.windows(2).all(|w| w[0] == w[1]);
                if constant {
                    out.push(1);
                    let s0 = sigmas.first().copied().unwrap_or(0.0);
                    out.extend_from_slice(&s0.to_le_bytes());
                } else {
                    out.push(0);
                    put_tagged_section(
                        &mut out,
                        policy.floats,
                        policy.adaptive,
                        &FLOAT_CANDIDATES,
                        |c| encode_f64s(&sigmas, c),
                    )?;
                }
            }
            AttrType::Nested(_) => unreachable!("rejected by type_tag"),
        }
    }
    Ok(out)
}

fn read_codec(data: &[u8], pos: &mut usize) -> Result<Codec> {
    let tag = *data
        .get(*pos)
        .ok_or_else(|| Error::storage("codec tag truncated"))?;
    *pos += 1;
    Codec::from_tag(tag)
}

/// Deserializes a bucket payload back into a chunk.
pub fn deserialize_chunk(data: &[u8]) -> Result<Chunk> {
    if data.len() < 5 || &data[..4] != MAGIC {
        return Err(Error::storage("bad bucket magic"));
    }
    if data[4] != VERSION {
        return Err(Error::storage(format!(
            "unsupported bucket version {}",
            data[4]
        )));
    }
    let mut pos = 5usize;

    let rank = get_varint(data, &mut pos)? as usize;
    if rank == 0 || rank > 64 {
        return Err(Error::storage(format!("implausible bucket rank {rank}")));
    }
    let mut low = Vec::with_capacity(rank);
    let mut high = Vec::with_capacity(rank);
    for _ in 0..rank {
        low.push(unzigzag(get_varint(data, &mut pos)?));
        high.push(unzigzag(get_varint(data, &mut pos)?));
    }
    let rect = HyperRect::new(low, high)?;

    let off_codec = read_codec(data, &mut pos)?;
    let offsets = decode_i64s(get_section(data, &mut pos)?, off_codec)?;
    let n_present = offsets.len();
    let capacity = rect.volume() as usize;
    for &o in &offsets {
        if o < 0 || o as usize >= capacity {
            return Err(Error::storage("present offset out of range"));
        }
    }

    let n_attrs = get_varint(data, &mut pos)? as usize;
    if n_attrs > data.len() {
        return Err(Error::storage("implausible bucket attribute count"));
    }
    let mut attr_types = Vec::with_capacity(n_attrs);
    let mut decoded: Vec<(BitVec, DecodedCol)> = Vec::with_capacity(n_attrs);

    for _ in 0..n_attrs {
        let ttag = *data
            .get(pos)
            .ok_or_else(|| Error::storage("type tag truncated"))?;
        pos += 1;
        let ty = type_from_tag(ttag)?;

        let null_codec = read_codec(data, &mut pos)?;
        let null_bytes = decode_bytes(get_section(data, &mut pos)?, null_codec)?;
        let nulls = bits_from_le(&null_bytes, n_present, "null bitmap")?;

        // Column-at-a-time decode: each typed payload is decoded into one
        // contiguous vector; cell values are never materialized one by one.
        let col = match &ty {
            AttrType::Scalar(ScalarType::Int64) => {
                let codec = read_codec(data, &mut pos)?;
                let vals = decode_i64s(get_section(data, &mut pos)?, codec)?;
                check_len(vals.len(), n_present)?;
                DecodedCol::I64(vals)
            }
            AttrType::Scalar(ScalarType::Float64) => {
                let codec = read_codec(data, &mut pos)?;
                let vals = decode_f64s(get_section(data, &mut pos)?, codec)?;
                check_len(vals.len(), n_present)?;
                DecodedCol::F64(vals)
            }
            AttrType::Scalar(ScalarType::Bool) => {
                let codec = read_codec(data, &mut pos)?;
                let bytes = decode_bytes(get_section(data, &mut pos)?, codec)?;
                DecodedCol::Bool(bits_from_le(&bytes, n_present, "bool bitmap")?)
            }
            AttrType::Scalar(ScalarType::String) => {
                let codec = read_codec(data, &mut pos)?;
                let payload = decode_bytes(get_section(data, &mut pos)?, codec)?;
                let mut p = 0usize;
                let mut strs = Vec::with_capacity(n_present);
                for i in 0..n_present {
                    let len = get_varint(&payload, &mut p)? as usize;
                    let s = payload
                        .get(p..p + len)
                        .ok_or_else(|| Error::storage("string truncated"))?;
                    p += len;
                    if nulls.get(i) {
                        strs.push(String::new());
                    } else {
                        strs.push(
                            String::from_utf8(s.to_vec())
                                .map_err(|_| Error::storage("string not utf-8"))?,
                        );
                    }
                }
                DecodedCol::Str(strs)
            }
            AttrType::Scalar(ScalarType::UncertainFloat64) => {
                let codec = read_codec(data, &mut pos)?;
                let means = decode_f64s(get_section(data, &mut pos)?, codec)?;
                check_len(means.len(), n_present)?;
                let const_flag = *data
                    .get(pos)
                    .ok_or_else(|| Error::storage("sigma flag truncated"))?;
                pos += 1;
                let sigmas: SigmaRead = if const_flag == 1 {
                    let bytes: [u8; 8] = data
                        .get(pos..pos + 8)
                        .ok_or_else(|| Error::storage("sigma truncated"))?
                        .try_into()
                        .map_err(|_| Error::storage("sigma truncated"))?;
                    pos += 8;
                    SigmaRead::Constant(f64::from_le_bytes(bytes))
                } else {
                    let codec = read_codec(data, &mut pos)?;
                    let v = decode_f64s(get_section(data, &mut pos)?, codec)?;
                    check_len(v.len(), n_present)?;
                    SigmaRead::PerCell(v)
                };
                DecodedCol::Uncertain { means, sigmas }
            }
            AttrType::Nested(_) => unreachable!(),
        };
        decoded.push((nulls, col));
        attr_types.push(ty);
    }

    // Mostly-full buckets assemble straight into the dense columnar
    // representation: one presence-bitmap scatter per column, no per-cell
    // record construction. Sparse buckets keep the per-cell map build.
    if n_present * 2 >= capacity {
        let mut present = BitVec::filled(capacity, false);
        for &off in &offsets {
            present.set(off as usize, true);
        }
        let columns: Vec<Column> = decoded
            .into_iter()
            .map(|(nulls, col)| scatter_column(col, &nulls, &offsets, capacity))
            .collect();
        return Chunk::from_parts(rect, attr_types, present, columns);
    }
    let mut chunk = Chunk::new(rect.clone(), &attr_types);
    for (i, &off) in offsets.iter().enumerate() {
        let rec: Vec<Value> = decoded
            .iter()
            .map(|(nulls, col)| cell_value(col, nulls, i))
            .collect();
        let coords = rect.delinearize(off as usize);
        chunk.set_record(&coords, &rec)?;
    }
    Ok(chunk)
}

/// One decoded attribute payload: contiguous typed values over the present
/// cells, in offset order.
enum DecodedCol {
    I64(Vec<i64>),
    F64(Vec<f64>),
    Bool(BitVec),
    Str(Vec<String>),
    Uncertain { means: Vec<f64>, sigmas: SigmaRead },
}

enum SigmaRead {
    Constant(f64),
    PerCell(Vec<f64>),
}

/// Reads present-cell `i` of a decoded column as a [`Value`] (sparse path).
fn cell_value(col: &DecodedCol, nulls: &BitVec, i: usize) -> Value {
    if nulls.get(i) {
        return Value::Null;
    }
    match col {
        DecodedCol::I64(v) => Value::from(v[i]),
        DecodedCol::F64(v) => Value::from(v[i]),
        DecodedCol::Bool(b) => Value::from(b.get(i)),
        DecodedCol::Str(s) => Value::from(s[i].clone()),
        DecodedCol::Uncertain { means, sigmas } => {
            let sigma = match sigmas {
                SigmaRead::Constant(s) => *s,
                SigmaRead::PerCell(v) => v[i],
            };
            Value::from(Uncertain::new(means[i], sigma))
        }
    }
}

/// Scatters a decoded column into a full-capacity dense [`Column`]: values
/// land at their row-major offsets, everything else stays NULL.
fn scatter_column(col: DecodedCol, nulls: &BitVec, offsets: &[i64], capacity: usize) -> Column {
    match col {
        DecodedCol::I64(vals) => {
            let mut data = vec![0i64; capacity];
            let mut cn = BitVec::filled(capacity, true);
            for (i, &off) in offsets.iter().enumerate() {
                if !nulls.get(i) {
                    data[off as usize] = vals[i];
                    cn.set(off as usize, false);
                }
            }
            Column::Int64 { data, nulls: cn }
        }
        DecodedCol::F64(vals) => {
            let mut data = vec![0.0f64; capacity];
            let mut cn = BitVec::filled(capacity, true);
            for (i, &off) in offsets.iter().enumerate() {
                if !nulls.get(i) {
                    data[off as usize] = vals[i];
                    cn.set(off as usize, false);
                }
            }
            Column::Float64 { data, nulls: cn }
        }
        DecodedCol::Bool(bits) => {
            let mut data = vec![false; capacity];
            let mut cn = BitVec::filled(capacity, true);
            for (i, &off) in offsets.iter().enumerate() {
                if !nulls.get(i) {
                    data[off as usize] = bits.get(i);
                    cn.set(off as usize, false);
                }
            }
            Column::Bool { data, nulls: cn }
        }
        DecodedCol::Str(strs) => {
            let mut data = vec![String::new(); capacity];
            let mut cn = BitVec::filled(capacity, true);
            for (i, &off) in offsets.iter().enumerate() {
                if !nulls.get(i) {
                    data[off as usize] = strs[i].clone();
                    cn.set(off as usize, false);
                }
            }
            Column::Str { data, nulls: cn }
        }
        DecodedCol::Uncertain { means, sigmas } => {
            let mut m = vec![0.0f64; capacity];
            let mut cn = BitVec::filled(capacity, true);
            let sg = match sigmas {
                SigmaRead::Constant(s) => SigmaStore::Constant(s),
                SigmaRead::PerCell(v) => {
                    let mut full = vec![0.0f64; capacity];
                    for (i, &off) in offsets.iter().enumerate() {
                        full[off as usize] = v[i];
                    }
                    SigmaStore::PerCell(full)
                }
            };
            for (i, &off) in offsets.iter().enumerate() {
                if !nulls.get(i) {
                    m[off as usize] = means[i];
                    cn.set(off as usize, false);
                }
            }
            Column::Uncertain {
                means: m,
                sigmas: sg,
                nulls: cn,
            }
        }
    }
}

/// The first `n` bits of a bitmap stored as little-endian `u64` words.
fn bits_from_le(bytes: &[u8], n: usize, what: &str) -> Result<BitVec> {
    let words = bytes
        .as_chunks::<8>()
        .0
        .get(..n.div_ceil(64))
        .ok_or_else(|| Error::storage(format!("{what} too short")))?;
    let words = words.iter().map(|&w| u64::from_le_bytes(w)).collect();
    Ok(BitVec::from_words(words, n))
}

fn check_len(got: usize, want: usize) -> Result<()> {
    if got != want {
        return Err(Error::storage(format!(
            "column length {got} does not match presence {want}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scidb_core::value::record;

    fn rect(n: i64) -> HyperRect {
        HyperRect::new(vec![1, 1], vec![n, n]).unwrap()
    }

    fn all_types() -> Vec<AttrType> {
        vec![
            AttrType::Scalar(ScalarType::Int64),
            AttrType::Scalar(ScalarType::Float64),
            AttrType::Scalar(ScalarType::Bool),
            AttrType::Scalar(ScalarType::String),
            AttrType::Scalar(ScalarType::UncertainFloat64),
        ]
    }

    fn sample_chunk(n: i64, sparse: bool) -> Chunk {
        let mut c = Chunk::new(rect(n), &all_types());
        for (k, coords) in rect(n).iter_cells().enumerate() {
            if sparse && k % 3 != 0 {
                continue;
            }
            let rec = record([
                Value::from(k as i64 * 3 - 5),
                Value::from(k as f64 * 0.25),
                Value::from(k % 2 == 0),
                Value::from(format!("s{k}")),
                Value::from(Uncertain::new(k as f64, 0.5)),
            ]);
            c.set_record(&coords, &rec).unwrap();
        }
        c
    }

    #[test]
    fn roundtrip_dense_default_policy() {
        let c = sample_chunk(8, false);
        let bytes = serialize_chunk(&c, CodecPolicy::default_policy()).unwrap();
        let back = deserialize_chunk(&bytes).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn roundtrip_sparse_raw_policy() {
        let c = sample_chunk(8, true);
        let bytes = serialize_chunk(&c, CodecPolicy::raw()).unwrap();
        let back = deserialize_chunk(&bytes).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn roundtrip_with_nulls() {
        let mut c = Chunk::new(rect(4), &all_types());
        c.set_record(
            &[1, 1],
            &record([
                Value::Null,
                Value::from(1.0),
                Value::Null,
                Value::from("x"),
                Value::Null,
            ]),
        )
        .unwrap();
        c.set_record(
            &[4, 4],
            &record([
                Value::from(7i64),
                Value::Null,
                Value::from(true),
                Value::Null,
                Value::from(Uncertain::new(2.0, 0.1)),
            ]),
        )
        .unwrap();
        let bytes = serialize_chunk(&c, CodecPolicy::default_policy()).unwrap();
        let back = deserialize_chunk(&bytes).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn empty_chunk_roundtrips() {
        let c = Chunk::new(rect(4), &all_types());
        let bytes = serialize_chunk(&c, CodecPolicy::default_policy()).unwrap();
        let back = deserialize_chunk(&bytes).unwrap();
        assert_eq!(back.present_count(), 0);
        assert_eq!(c, back);
    }

    #[test]
    fn constant_sigma_serializes_compactly() {
        let mk = |constant: bool| {
            let mut c = Chunk::new(rect(16), &[AttrType::Scalar(ScalarType::UncertainFloat64)]);
            for (k, coords) in rect(16).iter_cells().enumerate() {
                let sigma = if constant { 0.5 } else { 0.1 + k as f64 };
                c.set_record(
                    &coords,
                    &record([Value::from(Uncertain::new(k as f64, sigma))]),
                )
                .unwrap();
            }
            serialize_chunk(&c, CodecPolicy::raw()).unwrap().len()
        };
        let (constant, varying) = (mk(true), mk(false));
        assert!(
            constant + 1500 < varying,
            "constant {constant} vs varying {varying}"
        );
    }

    #[test]
    fn compression_shrinks_smooth_data() {
        let mut c = Chunk::new(rect(32), &[AttrType::Scalar(ScalarType::Float64)]);
        for coords in rect(32).iter_cells() {
            c.set_record(&coords, &record([Value::from(42.0)])).unwrap();
        }
        let raw = serialize_chunk(&c, CodecPolicy::raw()).unwrap();
        let packed = serialize_chunk(&c, CodecPolicy::default_policy()).unwrap();
        assert!(
            packed.len() * 3 < raw.len(),
            "packed {} vs raw {}",
            packed.len(),
            raw.len()
        );
        assert_eq!(deserialize_chunk(&packed).unwrap(), c);
    }

    #[test]
    fn adaptive_policy_roundtrips_and_never_loses_to_raw() {
        for sparse in [false, true] {
            let c = sample_chunk(8, sparse);
            let adaptive = serialize_chunk(&c, CodecPolicy::adaptive()).unwrap();
            assert_eq!(deserialize_chunk(&adaptive).unwrap(), c);
            // Raw is always among the candidates, so the per-section
            // strict-smallest rule can never produce a larger bucket.
            let raw = serialize_chunk(&c, CodecPolicy::raw()).unwrap();
            assert!(
                adaptive.len() <= raw.len(),
                "adaptive {} vs raw {} (sparse={sparse})",
                adaptive.len(),
                raw.len()
            );
        }
    }

    #[test]
    fn dense_buckets_decode_into_columnar_representation() {
        // Mostly-full buckets must land in the dense columnar repr (the
        // batch kernels' input); sparse buckets stay in the cell map.
        let dense = deserialize_chunk(
            &serialize_chunk(&sample_chunk(8, false), CodecPolicy::default_policy()).unwrap(),
        )
        .unwrap();
        assert!(dense.is_dense());
        let mut few = Chunk::new(rect(8), &[AttrType::Scalar(ScalarType::Int64)]);
        few.set_record(&[1, 1], &record([Value::from(1i64)]))
            .unwrap();
        few.set_record(&[8, 8], &record([Value::from(2i64)]))
            .unwrap();
        let sparse =
            deserialize_chunk(&serialize_chunk(&few, CodecPolicy::default_policy()).unwrap())
                .unwrap();
        assert!(!sparse.is_dense());
        assert_eq!(sparse, few);
    }

    #[test]
    fn corrupt_payloads_error_cleanly() {
        let c = sample_chunk(4, false);
        let bytes = serialize_chunk(&c, CodecPolicy::default_policy()).unwrap();
        assert!(deserialize_chunk(&bytes[..4]).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(deserialize_chunk(&bad_magic).is_err());
        let mut bad_ver = bytes.clone();
        bad_ver[4] = 99;
        assert!(deserialize_chunk(&bad_ver).is_err());
        assert!(deserialize_chunk(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn nested_attribute_rejected() {
        use scidb_core::schema::SchemaBuilder;
        let inner = SchemaBuilder::new("inner")
            .attr("x", ScalarType::Int64)
            .dim("i", 2)
            .build()
            .unwrap();
        let c = Chunk::new(rect(2), &[AttrType::Nested(std::sync::Arc::new(inner))]);
        assert!(matches!(
            serialize_chunk(&c, CodecPolicy::raw()),
            Err(Error::Unsupported(_))
        ));
    }
}
