//! SDDF — the SciDB-rs self-describing data format (§2.9).
//!
//! "Our approach … is to define a self-describing data format"; users who
//! put data in this format "can use SciDB without a load stage". An SDDF
//! file is:
//!
//! ```text
//! magic "SDDF" | version u32 | header-len u32 | header
//! chunk block 0 | chunk block 1 | …
//! chunk index (rect → offset,len per chunk) | index-offset u64 | magic
//! ```
//!
//! The header is the array schema in the shared array-image encoding
//! ([`scidb_core::codec`]); everything around it is little-endian, like the
//! other file formats in this crate. Each chunk block is the same
//! self-describing compressed bucket payload the storage manager writes
//! (see [`scidb_storage::bucket`]), so SDDF reads are chunk-granular: a
//! region query touches only the blocks whose rectangles intersect it.

use crate::adaptor::{wire::*, InSituSource, MeteredFile};
use scidb_core::array::Array;
use scidb_core::codec;
use scidb_core::error::{Error, Result};
use scidb_core::geometry::HyperRect;
use scidb_core::schema::ArraySchema;
use scidb_storage::bucket::{deserialize_chunk, serialize_chunk, CodecPolicy};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"SDDF";
const VERSION: u32 = 2;

/// Writes an array to an SDDF file.
pub fn write_sddf(path: &Path, array: &Array, policy: CodecPolicy) -> Result<u64> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    let mut header = Vec::new();
    codec::encode_schema(&mut header, array.schema());
    put_u32(&mut out, header.len() as u32);
    out.extend_from_slice(&header);

    // Chunk blocks + index entries.
    let mut index = Vec::new();
    let mut entries = 0u32;
    for chunk in array.chunks().values() {
        if chunk.is_empty() {
            continue;
        }
        let payload = serialize_chunk(chunk, policy)?;
        let offset = out.len() as u64;
        out.extend_from_slice(&payload);
        // Index entry: rank, low, high, offset, len.
        let rect = chunk.rect();
        put_u32(&mut index, rect.rank() as u32);
        for d in 0..rect.rank() {
            put_i64(&mut index, rect.low[d]);
            put_i64(&mut index, rect.high[d]);
        }
        put_u64(&mut index, offset);
        put_u64(&mut index, payload.len() as u64);
        entries += 1;
    }
    let index_offset = out.len() as u64;
    put_u32(&mut out, entries);
    out.extend_from_slice(&index);
    put_u64(&mut out, index_offset);
    out.extend_from_slice(MAGIC);
    std::fs::write(path, &out)?;
    Ok(out.len() as u64)
}

/// Chunk-granular SDDF reader.
pub struct SddfReader {
    file: MeteredFile,
    schema: Arc<ArraySchema>,
    /// `(rect, offset, len)` per chunk block.
    index: Vec<(HyperRect, u64, u64)>,
}

impl SddfReader {
    /// Opens an SDDF file, reading only the header and the chunk index.
    pub fn open(path: &Path) -> Result<Self> {
        let mut file = MeteredFile::open(path)?;
        let flen = file.len()?;
        if flen < 24 {
            return Err(Error::storage("SDDF file too short"));
        }
        let head = file.read_at(0, 12)?;
        if &head[..4] != MAGIC {
            return Err(Error::storage("bad SDDF magic"));
        }
        let mut pos = 4usize;
        let version = u32_at(&head, &mut pos)?;
        if version != VERSION {
            return Err(Error::storage(format!(
                "unsupported SDDF version {version}"
            )));
        }
        let header_len = u32_at(&head, &mut pos)? as usize;
        let header = file.read_at(12, header_len)?;
        // The header is one schema image and nothing after it.
        let schema = codec::decode_all(&header, codec::decode_schema)
            .map(Arc::new)
            .map_err(|e| Error::storage(format!("corrupt SDDF header: {}", e.wire_message())))?;

        // Footer: … index-offset u64 | magic.
        let footer = file.read_at(flen - 12, 12)?;
        if &footer[8..] != MAGIC {
            return Err(Error::storage("bad SDDF footer"));
        }
        let mut fpos = 0usize;
        let index_offset = u64_at(&footer, &mut fpos)?;
        let index_len = (flen - 12)
            .checked_sub(index_offset)
            .ok_or_else(|| Error::storage("corrupt SDDF index offset"))?;
        let index_bytes = file.read_at(index_offset, index_len as usize)?;
        let mut ipos = 0usize;
        let entries = u32_at(&index_bytes, &mut ipos)? as usize;
        // Each index entry needs at least 20 bytes; larger counts are
        // corruption and must not drive allocation.
        if entries > index_bytes.len() / 20 {
            return Err(Error::storage("corrupt SDDF index entry count"));
        }
        let mut index = Vec::with_capacity(entries);
        for _ in 0..entries {
            let rank = u32_at(&index_bytes, &mut ipos)? as usize;
            if rank > 64 {
                return Err(Error::storage("corrupt SDDF chunk rank"));
            }
            let mut low = Vec::with_capacity(rank);
            let mut high = Vec::with_capacity(rank);
            for _ in 0..rank {
                low.push(i64_at(&index_bytes, &mut ipos)?);
                high.push(i64_at(&index_bytes, &mut ipos)?);
            }
            let offset = u64_at(&index_bytes, &mut ipos)?;
            let len = u64_at(&index_bytes, &mut ipos)?;
            index.push((HyperRect::new(low, high)?, offset, len));
        }
        Ok(SddfReader {
            file,
            schema,
            index,
        })
    }

    /// Number of chunk blocks in the file.
    pub fn chunk_count(&self) -> usize {
        self.index.len()
    }
}

impl InSituSource for SddfReader {
    fn schema(&self) -> &ArraySchema {
        &self.schema
    }

    fn read_region(&mut self, region: &HyperRect) -> Result<Array> {
        let mut out = Array::from_arc(Arc::clone(&self.schema));
        let hits: Vec<(u64, u64)> = self
            .index
            .iter()
            .filter(|(rect, _, _)| rect.intersects(region))
            .map(|(_, off, len)| (*off, *len))
            .collect();
        for (off, len) in hits {
            let payload = self.file.read_at(off, len as usize)?;
            let chunk = deserialize_chunk(&payload)?;
            for (coords, idx) in chunk.iter_present() {
                if region.contains(&coords) {
                    out.set_cell(&coords, chunk.record_at(idx))?;
                }
            }
        }
        Ok(out)
    }

    fn bytes_read(&self) -> u64 {
        self.file.bytes_read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scidb_core::schema::SchemaBuilder;
    use scidb_core::value::{record, ScalarType, Value};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("scidb_sddf_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_array(n: i64, chunk: i64) -> Array {
        let schema = SchemaBuilder::new("Sample")
            .attr("v", ScalarType::Float64)
            .attr("flag", ScalarType::Bool)
            .dim_chunked("I", n, chunk)
            .dim_chunked("J", n, chunk)
            .build()
            .unwrap();
        let mut a = Array::new(schema);
        a.fill_with(|c| {
            record([
                Value::from((c[0] * 1000 + c[1]) as f64),
                Value::from((c[0] + c[1]) % 2 == 0),
            ])
        })
        .unwrap();
        a
    }

    #[test]
    fn roundtrip_whole_file() {
        let a = sample_array(16, 8);
        let path = tmp("roundtrip.sddf");
        write_sddf(&path, &a, CodecPolicy::default_policy()).unwrap();
        let mut r = SddfReader::open(&path).unwrap();
        assert_eq!(r.chunk_count(), 4);
        assert_eq!(r.schema().attrs().len(), 2);
        let back = r.read_all().unwrap();
        assert!(back.same_cells(&a));
    }

    #[test]
    fn region_read_is_chunk_granular() {
        let a = sample_array(32, 8);
        let path = tmp("granular.sddf");
        let total = write_sddf(&path, &a, CodecPolicy::default_policy()).unwrap();
        let mut r = SddfReader::open(&path).unwrap();
        let after_open = r.bytes_read();
        let region = HyperRect::new(vec![1, 1], vec![8, 8]).unwrap();
        let out = r.read_region(&region).unwrap();
        assert_eq!(out.cell_count(), 64);
        let for_query = r.bytes_read() - after_open;
        assert!(
            for_query * 4 < total,
            "one of 16 chunks read: {for_query} of {total} bytes"
        );
    }

    #[test]
    fn open_via_adaptor_dispatch() {
        let a = sample_array(8, 8);
        let path = tmp("dispatch.sddf");
        write_sddf(&path, &a, CodecPolicy::raw()).unwrap();
        let mut src = crate::adaptor::open(&path).unwrap();
        let back = src.read_all().unwrap();
        assert_eq!(back.cell_count(), 64);
    }

    #[test]
    fn corrupt_files_error() {
        let path = tmp("corrupt.sddf");
        std::fs::write(&path, b"SDDFxxxx").unwrap();
        assert!(SddfReader::open(&path).is_err());
        let a = sample_array(8, 8);
        let good = tmp("good.sddf");
        write_sddf(&good, &a, CodecPolicy::raw()).unwrap();
        let mut bytes = std::fs::read(&good).unwrap();
        let n = bytes.len();
        bytes[n - 1] = b'X'; // break footer magic
        std::fs::write(&good, &bytes).unwrap();
        assert!(SddfReader::open(&good).is_err());
    }

    #[test]
    fn header_carries_the_whole_schema_and_nested_cells_are_a_typed_error() {
        let inner = Arc::new(
            SchemaBuilder::new("inner")
                .attr("v", ScalarType::Int64)
                .dim("k", 2)
                .build()
                .unwrap(),
        );
        let schema = SchemaBuilder::new("Outer")
            .attr("v", ScalarType::Float64)
            .nested_attr("n", Arc::clone(&inner))
            .dim_chunked("I", 4, 2)
            .dim_unbounded("T")
            .build()
            .unwrap();
        // The header itself holds any schema the array model has.
        let path = tmp("nested_empty.sddf");
        write_sddf(&path, &Array::new(schema.clone()), CodecPolicy::raw()).unwrap();
        assert_eq!(SddfReader::open(&path).unwrap().schema(), &schema);
        // Bucket payloads do not hold nested cells: an error, not a panic.
        let mut a = Array::new(schema);
        let nested = Value::Array(Box::new(Array::from_arc(inner)));
        a.set_cell(&[1, 1], vec![Value::from(1.0), nested]).unwrap();
        let err = write_sddf(&tmp("nested.sddf"), &a, CodecPolicy::raw()).unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{err}");
    }

    #[test]
    fn corrupt_header_is_a_storage_error() {
        let good = tmp("header.sddf");
        write_sddf(&good, &sample_array(8, 8), CodecPolicy::raw()).unwrap();
        let bytes = std::fs::read(&good).unwrap();
        let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        // A hostile attribute count, an unknown type tag, and a header
        // length that cuts the schema short or runs past it.
        let attr_count_at = 12 + 4 + "Sample".len() + 1;
        let mut cases = Vec::new();
        let mut huge = bytes.clone();
        huge[attr_count_at..attr_count_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        cases.push(huge);
        let mut tag = bytes.clone();
        tag[attr_count_at + 4 + 4 + 1 + 1 + 1] = 99; // first attribute's scalar tag
        cases.push(tag);
        for len in [header_len - 1, header_len + 1] {
            let mut cut = bytes.clone();
            cut[8..12].copy_from_slice(&(len as u32).to_le_bytes());
            cases.push(cut);
        }
        for (i, case) in cases.iter().enumerate() {
            let path = tmp(&format!("header_{i}.sddf"));
            std::fs::write(&path, case).unwrap();
            let err = SddfReader::open(&path).err().expect("corrupt header");
            assert!(matches!(err, Error::Storage(_)), "case {i}: {err}");
        }
    }

    #[test]
    fn sparse_arrays_roundtrip() {
        let schema = SchemaBuilder::new("Sparse")
            .attr("v", ScalarType::Int64)
            .dim_chunked("I", 100, 10)
            .build()
            .unwrap();
        let mut a = Array::new(schema);
        for i in [1i64, 17, 55, 99] {
            a.set_cell(&[i], record([Value::from(i)])).unwrap();
        }
        let path = tmp("sparse.sddf");
        write_sddf(&path, &a, CodecPolicy::default_policy()).unwrap();
        let mut r = SddfReader::open(&path).unwrap();
        let back = r.read_all().unwrap();
        assert!(back.same_cells(&a));
    }
}
