//! An HDF5-like hierarchical external format ("H5LT") and its adaptor.
//!
//! Structurally mirrors the HDF5 features the §2.9 adaptor needs: a
//! *superblock*, a *root group* mapping dataset paths to object headers,
//! and per-dataset *chunked storage* with a chunk index — so reads are
//! chunk-granular per dataset. Built from scratch per DESIGN.md §4.
//!
//! ```text
//! magic "H5LT" | version u32 | root-offset u64
//! dataset chunks … | dataset headers … | root group | end
//! ```

use crate::adaptor::{wire::*, InSituSource, MeteredFile};
use scidb_core::array::Array;
use scidb_core::error::{Error, Result};
use scidb_core::geometry::{chunk_origin_of, HyperRect};
use scidb_core::schema::{ArraySchema, AttributeDef, DimensionDef};
use scidb_core::value::{record, ScalarType, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"H5LT";
const VERSION: u32 = 1;

/// An in-memory dataset staged for writing.
pub struct DatasetSpec<'a> {
    /// Group path, e.g. `/exposures/img_001`.
    pub path: String,
    /// The data; the **first attribute** (must be float) becomes the
    /// dataset.
    pub array: &'a Array,
}

/// Writes a multi-dataset H5LT file.
pub fn write_h5(path: &Path, datasets: &[DatasetSpec<'_>]) -> Result<u64> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    let root_offset_slot = out.len();
    put_u64(&mut out, 0); // patched

    let mut headers: Vec<(String, u64)> = Vec::new();
    for ds in datasets {
        let schema = ds.array.schema();
        let rect = ds
            .array
            .rect()
            .ok_or_else(|| Error::Unsupported("H5LT requires bounded arrays".into()))?;
        if schema.attrs()[0].ty.as_scalar() != Some(ScalarType::Float64) {
            return Err(Error::Unsupported(
                "H5LT datasets are float-valued (first attribute)".into(),
            ));
        }
        let strides = ds.array.strides();

        // Write chunks: dense row-major f64 per chunk rectangle, NaN fill.
        let mut chunk_entries: Vec<(Vec<i64>, u64, u64)> = Vec::new();
        // Group present cells by chunk origin so only occupied chunks land
        // in the file (like HDF5's allocated-chunk behaviour).
        let mut by_chunk: BTreeMap<Vec<i64>, Vec<(Vec<i64>, f64)>> = BTreeMap::new();
        for (coords, _) in ds.array.cells() {
            let v = ds.array.get_f64(0, &coords).unwrap_or(f64::NAN);
            let origin = chunk_origin_of(&coords, &strides);
            by_chunk.entry(origin).or_default().push((coords, v));
        }
        for (origin, cells) in by_chunk {
            let crect = scidb_core::geometry::chunk_rect(&origin, &strides, &ds.array.uppers());
            let mut data = vec![f64::NAN; crect.volume() as usize];
            for (coords, v) in cells {
                data[crect.linearize(&coords)] = v;
            }
            let offset = out.len() as u64;
            for v in &data {
                put_f64(&mut out, *v);
            }
            chunk_entries.push((origin, offset, (data.len() * 8) as u64));
        }

        // Dataset header.
        let header_offset = out.len() as u64;
        put_u32(&mut out, rect.rank() as u32);
        for (d, dim) in schema.dims().iter().enumerate().take(rect.rank()) {
            put_str(&mut out, &dim.name);
            put_i64(&mut out, rect.high[d]);
            put_i64(&mut out, strides[d]);
        }
        put_str(&mut out, &schema.attrs()[0].name);
        put_u32(&mut out, chunk_entries.len() as u32);
        for (origin, offset, len) in &chunk_entries {
            for &o in origin {
                put_i64(&mut out, o);
            }
            put_u64(&mut out, *offset);
            put_u64(&mut out, *len);
        }
        headers.push((ds.path.clone(), header_offset));
    }

    // Root group.
    let root_offset = out.len() as u64;
    out[root_offset_slot..root_offset_slot + 8].copy_from_slice(&root_offset.to_le_bytes());
    put_u32(&mut out, headers.len() as u32);
    for (p, off) in &headers {
        put_str(&mut out, p);
        put_u64(&mut out, *off);
    }
    std::fs::write(path, &out)?;
    Ok(out.len() as u64)
}

struct ChunkEntry {
    rect: HyperRect,
    offset: u64,
    len: u64,
}

/// Chunk-granular reader for one dataset of an H5LT file.
pub struct H5LiteReader {
    file: MeteredFile,
    schema: Arc<ArraySchema>,
    chunks: Vec<ChunkEntry>,
    paths: Vec<String>,
}

impl H5LiteReader {
    /// Opens the file positioned on its **first** dataset.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_dataset_inner(path, None)
    }

    /// Opens a specific dataset by group path.
    pub fn open_dataset(path: &Path, dataset: &str) -> Result<Self> {
        Self::open_dataset_inner(path, Some(dataset))
    }

    fn open_dataset_inner(path: &Path, dataset: Option<&str>) -> Result<Self> {
        let mut file = MeteredFile::open(path)?;
        let head = file.read_at(0, 16)?;
        if &head[..4] != MAGIC {
            return Err(Error::storage("bad H5LT magic"));
        }
        let mut pos = 4usize;
        let version = u32_at(&head, &mut pos)?;
        if version != VERSION {
            return Err(Error::storage(format!(
                "unsupported H5LT version {version}"
            )));
        }
        let root_offset = u64_at(&head, &mut pos)?;
        let flen = file.len()?;
        if root_offset >= flen {
            return Err(Error::storage("corrupt H5LT root offset"));
        }
        let root = file.read_at(root_offset, (flen - root_offset) as usize)?;
        let mut rpos = 0usize;
        let n = u32_at(&root, &mut rpos)? as usize;
        if n > root.len() / 12 {
            return Err(Error::storage("corrupt H5LT root entry count"));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let p = str_at(&root, &mut rpos)?;
            let off = u64_at(&root, &mut rpos)?;
            entries.push((p, off));
        }
        if entries.is_empty() {
            return Err(Error::storage("H5LT file has no datasets"));
        }
        let paths: Vec<String> = entries.iter().map(|(p, _)| p.clone()).collect();
        let (_, header_offset) = match dataset {
            None => entries[0].clone(),
            Some(want) => entries
                .iter()
                .find(|(p, _)| p == want)
                .cloned()
                .ok_or_else(|| Error::not_found(format!("dataset '{want}'")))?,
        };

        // Dataset header (read a generous window).
        if header_offset >= flen {
            return Err(Error::storage("corrupt H5LT dataset header offset"));
        }
        let win = ((flen - header_offset) as usize).min(256 * 1024);
        let hd = file.read_at(header_offset, win)?;
        let mut hpos = 0usize;
        let rank = u32_at(&hd, &mut hpos)? as usize;
        if rank == 0 || rank > 64 {
            return Err(Error::storage("corrupt H5LT rank"));
        }
        let mut dims = Vec::with_capacity(rank);
        let mut strides = Vec::with_capacity(rank);
        for _ in 0..rank {
            let name = str_at(&hd, &mut hpos)?;
            let upper = i64_at(&hd, &mut hpos)?;
            let stride = i64_at(&hd, &mut hpos)?;
            if upper < 1 || stride < 1 || stride > upper {
                return Err(Error::storage(format!(
                    "corrupt H5LT dimension: upper {upper}, stride {stride}"
                )));
            }
            dims.push(DimensionDef::bounded(name, upper).with_chunk(stride));
            strides.push(stride);
        }
        let attr_name = str_at(&hd, &mut hpos)?;
        let n_chunks = u32_at(&hd, &mut hpos)? as usize;
        if n_chunks > flen as usize / 16 {
            return Err(Error::storage("corrupt H5LT chunk count"));
        }
        let mut chunks = Vec::with_capacity(n_chunks);
        let uppers: Vec<Option<i64>> = dims.iter().map(|d| d.upper).collect();
        for _ in 0..n_chunks {
            let mut origin = Vec::with_capacity(rank);
            for _ in 0..rank {
                origin.push(i64_at(&hd, &mut hpos)?);
            }
            let offset = u64_at(&hd, &mut hpos)?;
            let len = u64_at(&hd, &mut hpos)?;
            let rect = scidb_core::geometry::chunk_rect(&origin, &strides, &uppers);
            chunks.push(ChunkEntry { rect, offset, len });
        }
        let schema = Arc::new(ArraySchema::new(
            "h5lt",
            vec![AttributeDef::scalar(attr_name, ScalarType::Float64)],
            dims,
        )?);
        Ok(H5LiteReader {
            file,
            schema,
            chunks,
            paths,
        })
    }

    /// The dataset paths in the file's root group.
    pub fn dataset_paths(&self) -> &[String] {
        &self.paths
    }

    /// Allocated chunks of the open dataset.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

impl InSituSource for H5LiteReader {
    fn schema(&self) -> &ArraySchema {
        &self.schema
    }

    fn read_region(&mut self, region: &HyperRect) -> Result<Array> {
        let mut out = Array::from_arc(Arc::clone(&self.schema));
        let hits: Vec<(HyperRect, HyperRect, u64, u64)> = self
            .chunks
            .iter()
            .filter_map(|c| {
                Some((
                    c.rect.clone(),
                    c.rect.intersection(region)?,
                    c.offset,
                    c.len,
                ))
            })
            .collect();
        for (rect, clip, offset, len) in hits {
            let bytes = self.file.read_at(offset, len as usize)?;
            if bytes.len() != rect.volume() as usize * 8 {
                return Err(Error::storage("H5LT chunk length mismatch"));
            }
            for coords in clip.iter_cells() {
                let v = f64::from_bits(u64_at(&bytes, &mut (rect.linearize(&coords) * 8))?);
                if !v.is_nan() {
                    out.set_cell(&coords, record([Value::from(v)]))?;
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

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("scidb_h5_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn image(n: i64, chunk: i64, base: f64) -> Array {
        let schema = SchemaBuilder::new("img")
            .attr("flux", ScalarType::Float64)
            .dim_chunked("x", n, chunk)
            .dim_chunked("y", n, chunk)
            .build()
            .unwrap();
        let mut a = Array::new(schema);
        a.fill_with(|c| record([Value::from(base + (c[0] * 100 + c[1]) as f64)]))
            .unwrap();
        a
    }

    #[test]
    fn roundtrip_single_dataset() {
        let img = image(16, 8, 0.0);
        let path = tmp("single.h5lt");
        write_h5(
            &path,
            &[DatasetSpec {
                path: "/exposures/img_001".into(),
                array: &img,
            }],
        )
        .unwrap();
        let mut r = H5LiteReader::open(&path).unwrap();
        assert_eq!(r.chunk_count(), 4);
        assert_eq!(r.dataset_paths(), &["/exposures/img_001".to_string()]);
        let back = r.read_all().unwrap();
        assert!(back.same_cells(&img));
    }

    #[test]
    fn multiple_datasets_by_path() {
        let a = image(8, 8, 0.0);
        let b = image(8, 8, 10_000.0);
        let path = tmp("multi.h5lt");
        write_h5(
            &path,
            &[
                DatasetSpec {
                    path: "/a".into(),
                    array: &a,
                },
                DatasetSpec {
                    path: "/b".into(),
                    array: &b,
                },
            ],
        )
        .unwrap();
        let mut rb = H5LiteReader::open_dataset(&path, "/b").unwrap();
        assert_eq!(rb.read_all().unwrap().get_f64(0, &[1, 1]), Some(10_101.0));
        let mut ra = H5LiteReader::open_dataset(&path, "/a").unwrap();
        assert_eq!(ra.read_all().unwrap().get_f64(0, &[1, 1]), Some(101.0));
        assert!(H5LiteReader::open_dataset(&path, "/c").is_err());
    }

    #[test]
    fn chunk_granular_reads() {
        let img = image(32, 8, 0.0);
        let path = tmp("granular.h5lt");
        let total = write_h5(
            &path,
            &[DatasetSpec {
                path: "/img".into(),
                array: &img,
            }],
        )
        .unwrap();
        let mut r = H5LiteReader::open(&path).unwrap();
        let base = r.bytes_read();
        let region = HyperRect::new(vec![1, 1], vec![8, 8]).unwrap();
        let out = r.read_region(&region).unwrap();
        assert_eq!(out.cell_count(), 64);
        let read = r.bytes_read() - base;
        assert!(read * 8 < total, "one of 16 chunks: {read} of {total}");
    }

    #[test]
    fn sparse_dataset_only_allocates_occupied_chunks() {
        let schema = SchemaBuilder::new("sparse")
            .attr("flux", ScalarType::Float64)
            .dim_chunked("x", 64, 8)
            .dim_chunked("y", 64, 8)
            .build()
            .unwrap();
        let mut a = Array::new(schema);
        a.set_cell(&[1, 1], record([Value::from(1.0)])).unwrap();
        a.set_cell(&[60, 60], record([Value::from(2.0)])).unwrap();
        let path = tmp("sparse.h5lt");
        write_h5(
            &path,
            &[DatasetSpec {
                path: "/s".into(),
                array: &a,
            }],
        )
        .unwrap();
        let mut r = H5LiteReader::open(&path).unwrap();
        assert_eq!(r.chunk_count(), 2, "only occupied chunks allocated");
        let back = r.read_all().unwrap();
        assert!(back.same_cells(&a));
    }

    #[test]
    fn adaptor_dispatch() {
        let img = image(4, 4, 0.0);
        let path = tmp("dispatch.h5lt");
        write_h5(
            &path,
            &[DatasetSpec {
                path: "/i".into(),
                array: &img,
            }],
        )
        .unwrap();
        let mut src = crate::adaptor::open(&path).unwrap();
        assert_eq!(src.read_all().unwrap().cell_count(), 16);
    }

    #[test]
    fn non_float_first_attribute_rejected() {
        let schema = SchemaBuilder::new("bad")
            .attr("n", ScalarType::Int64)
            .dim("i", 4)
            .build()
            .unwrap();
        let a = Array::new(schema);
        assert!(write_h5(
            &tmp("bad.h5lt"),
            &[DatasetSpec {
                path: "/bad".into(),
                array: &a
            }]
        )
        .is_err());
    }
}
