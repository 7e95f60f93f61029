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
use scidb_core::chunk::{Chunk, Column, Layer, SigmaStore};
use scidb_core::error::{Error, Result};
use scidb_core::geometry::HyperRect;
use scidb_core::schema::AttrType;
use scidb_core::value::ScalarType;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"SBKT";
const VERSION: u8 = 1;
/// Tags the optional deletion section that follows the last column.
const DELETIONS_TAG: u8 = b'D';

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

/// Serializes a chunk into a self-describing compressed bucket payload:
/// the chunk's offsets, then one NULL bitmap and one value section per
/// column, written straight from its lanes. NULL lanes carry placeholders
/// (0, 0.0, false, "", σ 0), never whatever value the lane still holds.
pub fn serialize_chunk(chunk: &Chunk, policy: CodecPolicy) -> Result<Vec<u8>> {
    serialize_layer(chunk, None, policy)
}

/// Serializes a history layer — a chunk and its deletion lanes (see
/// [`Layer`]): [`serialize_chunk`]'s payload followed, when the layer
/// deletes a cell, by its deletion lanes as one self-tagged bitmap section.
/// A layer that deletes nothing has exactly its chunk's bytes.
pub fn serialize_layer(
    chunk: &Chunk,
    deleted: Option<&BitVec>,
    policy: CodecPolicy,
) -> Result<Vec<u8>> {
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
    let offsets: Vec<i64> = chunk.offsets().iter().map(|&o| i64::from(o)).collect();
    put_tagged_section(
        &mut out,
        policy.ints,
        policy.adaptive,
        &INT_CANDIDATES,
        |c| encode_i64s(&offsets, c),
    )?;

    put_varint(&mut out, chunk.attr_types().len() as u64);
    for (ty, col) in chunk.attr_types().iter().zip(chunk.columns()) {
        out.push(type_tag(ty)?);
        put_column(&mut out, col, policy)?;
    }
    if let Some(deleted) = deleted.filter(|d| d.count_ones() > 0) {
        if deleted.len() != chunk.present_count() {
            return Err(Error::storage(
                "deletion lanes do not match the chunk's lanes",
            ));
        }
        out.push(DELETIONS_TAG);
        put_tagged_section(
            &mut out,
            policy.bytes,
            policy.adaptive,
            &BYTE_CANDIDATES,
            |c| encode_bytes(&le_bytes(deleted), c),
        )?;
    }
    Ok(out)
}

/// Writes one column's NULL bitmap section and its value section(s).
fn put_column(out: &mut Vec<u8>, col: &Column, policy: CodecPolicy) -> Result<()> {
    let bytes_section = |out: &mut Vec<u8>, bytes: &[u8]| {
        put_tagged_section(out, policy.bytes, policy.adaptive, &BYTE_CANDIDATES, |c| {
            encode_bytes(bytes, c)
        })
    };
    let floats_section = |out: &mut Vec<u8>, vals: &[f64]| {
        put_tagged_section(
            out,
            policy.floats,
            policy.adaptive,
            &FLOAT_CANDIDATES,
            |c| encode_f64s(vals, c),
        )
    };
    let nulls = col.nulls().ok_or_else(|| {
        Error::Unsupported("nested-array attributes are not bucket-serializable".into())
    })?;
    bytes_section(out, &le_bytes(nulls))?;
    // A value or its placeholder at each lane.
    let lanes = 0..nulls.len();
    match col {
        Column::Int64 { data, .. } => {
            let vals: Vec<i64> = lanes
                .map(|i| if nulls.get(i) { 0 } else { data[i] })
                .collect();
            put_tagged_section(out, policy.ints, policy.adaptive, &INT_CANDIDATES, |c| {
                encode_i64s(&vals, c)
            })
        }
        Column::Float64 { data, .. } => {
            let vals: Vec<f64> = lanes
                .map(|i| if nulls.get(i) { 0.0 } else { data[i] })
                .collect();
            floats_section(out, &vals)
        }
        Column::Bool { data, .. } => {
            let mut bits = BitVec::new();
            for i in lanes {
                bits.push(!nulls.get(i) && data[i]);
            }
            bytes_section(out, &le_bytes(&bits))
        }
        Column::Str { data, .. } => {
            let mut payload = Vec::new();
            for i in lanes {
                let s = if nulls.get(i) { "" } else { data[i].as_str() };
                put_varint(&mut payload, s.len() as u64);
                payload.extend_from_slice(s.as_bytes());
            }
            bytes_section(out, &payload)
        }
        Column::Uncertain { means, sigmas, .. } => {
            let (m, sg): (Vec<f64>, Vec<f64>) = lanes
                .map(|i| {
                    if nulls.get(i) {
                        (0.0, 0.0)
                    } else {
                        (means[i], sigmas.get(i))
                    }
                })
                .unzip();
            floats_section(out, &m)?;
            // Constant-sigma fast path (§2.13 "negligible extra space").
            if sg.windows(2).all(|w| w[0] == w[1]) {
                out.push(1);
                out.extend_from_slice(&sg.first().copied().unwrap_or(0.0).to_le_bytes());
                Ok(())
            } else {
                out.push(0);
                floats_section(out, &sg)
            }
        }
        Column::Nested { .. } => Ok(()),
    }
}

/// A bitmap as little-endian `u64` words.
fn le_bytes(bits: &BitVec) -> Vec<u8> {
    bits.words().iter().flat_map(|w| w.to_le_bytes()).collect()
}

fn read_codec(data: &[u8], pos: &mut usize) -> Result<Codec> {
    let tag = *data
        .get(*pos)
        .ok_or_else(|| Error::storage("codec tag truncated"))?;
    *pos += 1;
    Codec::from_tag(tag)
}

/// Deserializes a bucket payload back into a chunk: the offsets and each
/// column section decode straight into the chunk's own layout.
///
/// The rectangle and the offsets come from untrusted bytes, so a rectangle
/// of more than `u32::MAX` cells (or one whose sides overflow) and offsets
/// that are out of range or not strictly increasing are storage errors. So
/// is a bucket with deletion lanes, which only [`deserialize_layer`] reads:
/// a deleted cell must never read back as a present one.
pub fn deserialize_chunk(data: &[u8]) -> Result<Chunk> {
    let layer = deserialize_layer(data)?;
    if layer.deleted.is_some() {
        return Err(Error::storage(
            "bucket holds deletion lanes; it is a history layer",
        ));
    }
    Ok(layer.chunk)
}

/// Deserializes a bucket payload written by [`serialize_layer`]: the chunk
/// and its deletion lanes, if it has any. Bytes after the last column
/// other than one deletion section are a storage error.
pub fn deserialize_layer(data: &[u8]) -> Result<Layer> {
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
    let capacity = rect
        .checked_volume()
        .filter(|&cells| cells <= u64::from(u32::MAX))
        .ok_or_else(|| Error::storage("bucket rectangle holds more than u32::MAX cells"))?;

    let off_codec = read_codec(data, &mut pos)?;
    let raw_offsets = decode_i64s(get_section(data, &mut pos)?, off_codec)?;
    let mut offsets: Vec<u32> = Vec::with_capacity(raw_offsets.len());
    for &o in &raw_offsets {
        let o = u32::try_from(o)
            .ok()
            .filter(|&o| u64::from(o) < capacity)
            .ok_or_else(|| Error::storage("present offset out of range"))?;
        if offsets.last().is_some_and(|&prev| prev >= o) {
            return Err(Error::storage("present offsets not strictly increasing"));
        }
        offsets.push(o);
    }
    let n_present = offsets.len();

    let n_attrs = get_varint(data, &mut pos)? as usize;
    if n_attrs > data.len() {
        return Err(Error::storage("implausible bucket attribute count"));
    }
    let mut attr_types = Vec::with_capacity(n_attrs);
    let mut columns = Vec::with_capacity(n_attrs);
    for _ in 0..n_attrs {
        let ttag = *data
            .get(pos)
            .ok_or_else(|| Error::storage("type tag truncated"))?;
        pos += 1;
        let ty = type_from_tag(ttag)?;

        let null_codec = read_codec(data, &mut pos)?;
        let null_bytes = decode_bytes(get_section(data, &mut pos)?, null_codec)?;
        let nulls = bits_from_le(&null_bytes, n_present, "null bitmap")?;

        let codec = read_codec(data, &mut pos)?;
        let section = get_section(data, &mut pos)?;
        let col = match &ty {
            AttrType::Scalar(ScalarType::Int64) => {
                let vals = decode_i64s(section, codec)?;
                check_len(vals.len(), n_present)?;
                Column::Int64 { data: vals, nulls }
            }
            AttrType::Scalar(ScalarType::Float64) => {
                let vals = decode_f64s(section, codec)?;
                check_len(vals.len(), n_present)?;
                Column::Float64 { data: vals, nulls }
            }
            AttrType::Scalar(ScalarType::Bool) => {
                let bits = bits_from_le(&decode_bytes(section, codec)?, n_present, "bool bitmap")?;
                Column::Bool {
                    data: (0..n_present).map(|i| bits.get(i)).collect(),
                    nulls,
                }
            }
            AttrType::Scalar(ScalarType::String) => {
                let payload = decode_bytes(section, codec)?;
                let mut p = 0usize;
                let mut strs = Vec::with_capacity(n_present);
                for i in 0..n_present {
                    let len = get_varint(&payload, &mut p)? as usize;
                    let s = payload
                        .get(p..p + len)
                        .ok_or_else(|| Error::storage("string truncated"))?;
                    p += len;
                    strs.push(if nulls.get(i) {
                        String::new()
                    } else {
                        String::from_utf8(s.to_vec())
                            .map_err(|_| Error::storage("string not utf-8"))?
                    });
                }
                Column::Str { data: strs, nulls }
            }
            AttrType::Scalar(ScalarType::UncertainFloat64) => {
                let means = decode_f64s(section, codec)?;
                check_len(means.len(), n_present)?;
                let const_flag = *data
                    .get(pos)
                    .ok_or_else(|| Error::storage("sigma flag truncated"))?;
                pos += 1;
                let sigmas = if const_flag == 1 {
                    let bytes: [u8; 8] = data
                        .get(pos..pos + 8)
                        .ok_or_else(|| Error::storage("sigma truncated"))?
                        .try_into()
                        .map_err(|_| Error::storage("sigma truncated"))?;
                    pos += 8;
                    SigmaStore::Constant(f64::from_le_bytes(bytes))
                } else {
                    let codec = read_codec(data, &mut pos)?;
                    let v = decode_f64s(get_section(data, &mut pos)?, codec)?;
                    check_len(v.len(), n_present)?;
                    SigmaStore::PerCell(v)
                };
                Column::Uncertain {
                    means,
                    sigmas,
                    nulls,
                }
            }
            AttrType::Nested(_) => {
                return Err(Error::storage("nested attribute in a bucket"));
            }
        };
        columns.push(col);
        attr_types.push(ty);
    }
    let deleted = match data.get(pos) {
        None => None,
        Some(&DELETIONS_TAG) => {
            pos += 1;
            let codec = read_codec(data, &mut pos)?;
            let bytes = decode_bytes(get_section(data, &mut pos)?, codec)?;
            let deleted = bits_from_le(&bytes, n_present, "deletion bitmap")?;
            if pos != data.len() || deleted.count_ones() == 0 {
                return Err(Error::storage("malformed deletion section"));
            }
            Some(deleted)
        }
        Some(_) => return Err(Error::storage("trailing bytes after the last column")),
    };
    Ok(Layer {
        chunk: Chunk::from_parts(rect, attr_types, Arc::new(offsets), columns)?,
        deleted,
    })
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
    use scidb_core::uncertain::Uncertain;
    use scidb_core::value::{record, Value};

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
    fn buckets_decode_into_the_chunk_layout() {
        // Full and two-cell buckets alike decode into the offsets plus one
        // compact column per attribute — the batch kernels' input.
        let mut few = Chunk::new(rect(8), &[AttrType::Scalar(ScalarType::Int64)]);
        few.set_record(&[1, 1], &record([Value::from(1i64)]))
            .unwrap();
        few.set_record(&[8, 8], &record([Value::from(2i64)]))
            .unwrap();
        for c in [sample_chunk(8, false), few] {
            let back =
                deserialize_chunk(&serialize_chunk(&c, CodecPolicy::default_policy()).unwrap())
                    .unwrap();
            assert_eq!(back.offsets(), c.offsets());
            assert!(back
                .columns()
                .iter()
                .all(|col| col.len() == c.present_count()));
            assert_eq!(back, c);
        }
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

    /// The bucket bytes of a fixed list of chunks, pinned as (length,
    /// CRC-32) under the default and the adaptive policy. WAL replay
    /// byte-verifies bucket writes, so an encoder change that moved these
    /// bytes would otherwise surface only when a directory is reopened.
    #[test]
    fn bucket_bytes_are_pinned() {
        use crate::page::crc32;
        use scidb_core::array::Array;
        use scidb_core::expr::Expr;
        use scidb_core::schema::SchemaBuilder;

        let rect8 = HyperRect::new(vec![1, 1], vec![8, 8]).unwrap();
        let types = [
            AttrType::Scalar(ScalarType::Int64),
            AttrType::Scalar(ScalarType::Float64),
            AttrType::Scalar(ScalarType::Bool),
            AttrType::Scalar(ScalarType::String),
            AttrType::Scalar(ScalarType::UncertainFloat64),
        ];
        let rec = |k: usize, sigma: f64| {
            vec![
                Value::from(k as i64 * 7 - 30),
                Value::from(k as f64 * 0.375 - 2.0),
                Value::from(k.is_multiple_of(3)),
                Value::from(format!("c{}", k * k)),
                Value::from(Uncertain::new(k as f64 * 1.5, sigma)),
            ]
        };
        let build = |keep: &dyn Fn(usize) -> bool, sigma: &dyn Fn(usize) -> f64| {
            let mut c = Chunk::new(rect8.clone(), &types);
            for (k, coords) in rect8.iter_cells().enumerate() {
                if keep(k) {
                    c.set_record(&coords, &rec(k, sigma(k))).unwrap();
                }
            }
            c
        };
        let full = build(&|_| true, &|_| 0.5);
        let quarter = build(&|k| k % 4 == 1, &|_| 0.5);
        let one = build(&|k| k == 27, &|_| 0.5);
        let per_cell_sigma = build(&|k| k.is_multiple_of(2), &|k| 0.1 + k as f64 * 0.01);

        // A filter output: failing cells stay present as all-NULL records,
        // their value slots still holding the values the filter saw.
        let schema = SchemaBuilder::new("P")
            .attr("a", ScalarType::Int64)
            .attr("b", ScalarType::Float64)
            .attr("c", ScalarType::Bool)
            .attr("d", ScalarType::String)
            .attr("e", ScalarType::UncertainFloat64)
            .dim("X", 8)
            .dim("Y", 8)
            .build()
            .unwrap();
        let mut a = Array::new(schema);
        for (k, coords) in rect8.iter_cells().enumerate() {
            a.set_cell(&coords, rec(k, 0.25)).unwrap();
        }
        let filtered =
            scidb_core::ops::filter(&a, &Expr::attr("a").gt(Expr::lit(100i64)), None).unwrap();
        let filtered = filtered.chunks().values().next().unwrap().clone();

        // Bool and String columns beside two all-NULL columns.
        let rect6 = HyperRect::new(vec![1, 1], vec![6, 6]).unwrap();
        let mut mixed = Chunk::new(
            rect6.clone(),
            &[
                AttrType::Scalar(ScalarType::Bool),
                AttrType::Scalar(ScalarType::String),
                AttrType::Scalar(ScalarType::Int64),
                AttrType::Scalar(ScalarType::Float64),
            ],
        );
        for (k, coords) in rect6.iter_cells().enumerate().filter(|(k, _)| k % 5 != 2) {
            let b = if k.is_multiple_of(7) {
                Value::Null
            } else {
                Value::from(k % 2 == 1)
            };
            let s = match k % 4 {
                0 => Value::Null,
                1 => Value::from(""),
                _ => Value::from("x".repeat(k)),
            };
            mixed
                .set_record(&coords, &vec![b, s, Value::Null, Value::Null])
                .unwrap();
        }

        // (length, CRC-32) under the default and the adaptive policy.
        type Pins = [(usize, u32); 2];
        let pinned: [(&str, &Chunk, Pins); 6] = [
            ("full", &full, [(1338, 0x4ba9bd10), (1026, 0x6e8a7d98)]),
            ("quarter", &quarter, [(382, 0x26cdef84), (299, 0x2a3266bb)]),
            ("one cell", &one, [(93, 0x53f5e519), (88, 0xf75893a1)]),
            (
                "filter output",
                &filtered,
                [(1181, 0x375ae4eb), (915, 0x437febfd)],
            ),
            (
                "per-cell sigma",
                &per_cell_sigma,
                [(966, 0x64317438), (789, 0xa8fc7937)],
            ),
            (
                "bool, string, all-NULL",
                &mixed,
                [(242, 0x61f99dc3), (200, 0x701ad330)],
            ),
        ];
        for (what, chunk, want) in pinned {
            for (policy, (len, crc)) in [CodecPolicy::default_policy(), CodecPolicy::adaptive()]
                .into_iter()
                .zip(want)
            {
                let bytes = serialize_chunk(chunk, policy).unwrap();
                assert_eq!(
                    (bytes.len(), crc32(&bytes)),
                    (len, crc),
                    "{what} under {policy:?}"
                );
                assert_eq!(&deserialize_chunk(&bytes).unwrap(), chunk, "{what}");
            }
        }
    }

    #[test]
    fn deletion_lanes_ride_in_their_own_section() {
        let chunk = sample_chunk(4, false);
        let n = chunk.present_count();
        let mut deleted = BitVec::filled(n, false);
        deleted.set(1, true);
        deleted.set(n - 1, true);
        for policy in [CodecPolicy::default_policy(), CodecPolicy::adaptive()] {
            let plain = serialize_chunk(&chunk, policy).unwrap();
            let none = BitVec::filled(n, false);
            assert_eq!(
                serialize_layer(&chunk, Some(&none), policy).unwrap(),
                plain,
                "a layer that deletes nothing keeps its chunk's bytes"
            );
            let bytes = serialize_layer(&chunk, Some(&deleted), policy).unwrap();
            assert_eq!(&bytes[..plain.len()], &plain[..]);
            let back = deserialize_layer(&bytes).unwrap();
            assert_eq!(back.chunk, chunk);
            assert_eq!(back.deleted.as_ref(), Some(&deleted));
            assert!(
                deserialize_chunk(&bytes).is_err(),
                "a deleted cell never reads back as present"
            );
            let mut trailing = plain.clone();
            trailing.push(0);
            assert!(deserialize_layer(&trailing).is_err());
            assert!(deserialize_layer(&bytes[..bytes.len() - 1]).is_err());
            let long = BitVec::filled(n + 1, true);
            assert!(serialize_layer(&chunk, Some(&long), policy).is_err());
        }
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
