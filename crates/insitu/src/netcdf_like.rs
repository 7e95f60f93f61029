//! A NetCDF-classic-like external format ("NCDF") and its adaptor.
//!
//! Structurally mirrors NetCDF classic (the §2.9 example format): a header
//! with a *dimension list*, *global attributes*, and a *variable list*
//! (each variable typed, bound to dimensions, with a data offset), followed
//! by dense row-major per-variable data. Built from scratch per DESIGN.md
//! §4 — the adaptor code path (foreign header → array schema →
//! slab-granular reads) is what the paper's requirement exercises.
//!
//! Reads are row-granular: a region query reads only the contiguous
//! last-dimension runs it needs, per variable.

use crate::adaptor::{wire::*, InSituSource, MeteredFile};
use scidb_core::array::Array;
use scidb_core::error::{Error, Result};
use scidb_core::geometry::HyperRect;
use scidb_core::schema::{ArraySchema, AttributeDef, DimensionDef};
use scidb_core::value::{Record, ScalarType, Value};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"NCDF";
const VERSION: u32 = 1;

const TYPE_F64: u32 = 0;
const TYPE_I64: u32 = 1;

/// Writes an array as an NCDF file: every attribute becomes a variable
/// over the array's dimensions; empty cells are written as NaN / 0.
pub fn write_netcdf(path: &Path, array: &Array, global_attrs: &[(&str, &str)]) -> Result<u64> {
    let schema = array.schema();
    let rect = array
        .rect()
        .ok_or_else(|| Error::Unsupported("NCDF requires bounded arrays".into()))?;
    let mut header = Vec::new();
    header.extend_from_slice(MAGIC);
    put_u32(&mut header, VERSION);
    // Dimension list.
    put_u32(&mut header, schema.dims().len() as u32);
    for (d, &len) in schema.dims().iter().zip(&rect.high) {
        put_str(&mut header, &d.name);
        put_i64(&mut header, len);
    }
    // Global attributes.
    put_u32(&mut header, global_attrs.len() as u32);
    for (k, v) in global_attrs {
        put_str(&mut header, k);
        put_str(&mut header, v);
    }
    // Variable list: name, type, data offset (patched below).
    put_u32(&mut header, schema.attrs().len() as u32);
    let mut offset_slots = Vec::new();
    for a in schema.attrs() {
        put_str(&mut header, &a.name);
        let ty = match a.ty.as_scalar() {
            Some(ScalarType::Float64) => TYPE_F64,
            Some(ScalarType::Int64) => TYPE_I64,
            other => {
                return Err(Error::Unsupported(format!(
                    "NCDF supports float/int variables, got {other:?}"
                )))
            }
        };
        put_u32(&mut header, ty);
        offset_slots.push(header.len());
        put_u64(&mut header, 0); // patched
    }

    let mut out = header;
    let volume = rect.volume() as usize;
    for (ai, a) in schema.attrs().iter().enumerate() {
        let offset = out.len() as u64;
        out[offset_slots[ai]..offset_slots[ai] + 8].copy_from_slice(&offset.to_le_bytes());
        let is_float = a.ty.as_scalar() == Some(ScalarType::Float64);
        let mut data = vec![0u8; volume * 8];
        if is_float {
            for w in data.chunks_exact_mut(8) {
                w.copy_from_slice(&f64::NAN.to_le_bytes());
            }
        }
        for (coords, idx) in array.cells().map(|(coords, _)| coords).map(|c| {
            let idx = rect.linearize(&c);
            (c, idx)
        }) {
            let bytes = if is_float {
                array.get_f64(ai, &coords).unwrap_or(f64::NAN).to_le_bytes()
            } else {
                (array
                    .get_value(ai, &coords)
                    .and_then(|v| v.as_i64())
                    .unwrap_or(0))
                .to_le_bytes()
            };
            data[idx * 8..idx * 8 + 8].copy_from_slice(&bytes);
        }
        out.extend_from_slice(&data);
    }
    std::fs::write(path, &out)?;
    Ok(out.len() as u64)
}

struct VarMeta {
    ty: u32,
    offset: u64,
}

/// Slab-granular NCDF reader.
pub struct NetcdfReader {
    file: MeteredFile,
    schema: Arc<ArraySchema>,
    rect: HyperRect,
    vars: Vec<VarMeta>,
    globals: Vec<(String, String)>,
}

impl NetcdfReader {
    /// Opens an NCDF file, reading only the header.
    pub fn open(path: &Path) -> Result<Self> {
        let mut file = MeteredFile::open(path)?;
        // Headers are small; read a generous prefix.
        let head_len = (file.len()? as usize).min(64 * 1024);
        let head = file.read_at(0, head_len)?;
        if head.get(..4) != Some(&MAGIC[..]) {
            return Err(Error::storage("bad NCDF magic"));
        }
        let mut pos = 4usize;
        let version = u32_at(&head, &mut pos)?;
        if version != VERSION {
            return Err(Error::storage(format!(
                "unsupported NCDF version {version}"
            )));
        }
        // Corrupt counts must error before they drive allocation: every
        // list entry consumes at least 12 bytes of header.
        let n_dims = u32_at(&head, &mut pos)? as usize;
        if n_dims > head.len() / 12 {
            return Err(Error::storage("corrupt NCDF dimension count"));
        }
        let mut dims = Vec::with_capacity(n_dims);
        let mut high = Vec::with_capacity(n_dims);
        for _ in 0..n_dims {
            let name = str_at(&head, &mut pos)?;
            let len = i64_at(&head, &mut pos)?;
            if len < 1 {
                return Err(Error::storage(format!(
                    "corrupt NCDF dimension '{name}': length {len}"
                )));
            }
            dims.push(DimensionDef::bounded(name, len));
            high.push(len);
        }
        let n_globals = u32_at(&head, &mut pos)? as usize;
        if n_globals > head.len() / 8 {
            return Err(Error::storage("corrupt NCDF global attribute count"));
        }
        let mut globals = Vec::with_capacity(n_globals);
        for _ in 0..n_globals {
            let k = str_at(&head, &mut pos)?;
            let v = str_at(&head, &mut pos)?;
            globals.push((k, v));
        }
        let n_vars = u32_at(&head, &mut pos)? as usize;
        if n_vars > head.len() / 16 {
            return Err(Error::storage("corrupt NCDF variable count"));
        }
        let mut attrs = Vec::with_capacity(n_vars);
        let mut vars = Vec::with_capacity(n_vars);
        for _ in 0..n_vars {
            let name = str_at(&head, &mut pos)?;
            let ty = u32_at(&head, &mut pos)?;
            let offset = u64_at(&head, &mut pos)?;
            let sty = match ty {
                TYPE_F64 => ScalarType::Float64,
                TYPE_I64 => ScalarType::Int64,
                t => return Err(Error::storage(format!("unknown NCDF type {t}"))),
            };
            attrs.push(AttributeDef::scalar(name, sty));
            vars.push(VarMeta { ty, offset });
        }
        let schema = Arc::new(ArraySchema::new("ncdf", attrs, dims)?);
        let rect = HyperRect {
            low: vec![1; high.len()],
            high,
        };
        // Every variable's dense data must fit inside the file; this also
        // bounds the offset arithmetic in `read_region`.
        let flen = file.len()?;
        let volume = rect
            .high
            .iter()
            .try_fold(1u64, |v, &h| v.checked_mul(h as u64))
            .ok_or_else(|| Error::storage("corrupt NCDF dimensions: volume overflow"))?;
        for var in &vars {
            let end = volume
                .checked_mul(8)
                .and_then(|bytes| var.offset.checked_add(bytes));
            if end.is_none_or(|e| e > flen) {
                return Err(Error::storage(format!(
                    "corrupt NCDF variable: offset {} + {volume} cells exceeds file size {flen}",
                    var.offset
                )));
            }
        }
        Ok(NetcdfReader {
            file,
            schema,
            rect,
            vars,
            globals,
        })
    }

    /// Global attributes (provenance metadata travels with the file).
    pub fn globals(&self) -> &[(String, String)] {
        &self.globals
    }
}

impl InSituSource for NetcdfReader {
    fn schema(&self) -> &ArraySchema {
        &self.schema
    }

    fn read_region(&mut self, region: &HyperRect) -> Result<Array> {
        let Some(clipped) = region.intersection(&self.rect) else {
            return Ok(Array::from_arc(Arc::clone(&self.schema)));
        };
        let mut out = Array::from_arc(Arc::clone(&self.schema));
        let rank = self.rect.rank();
        // Iterate rows: all dims but the last fixed; the last dim is a
        // contiguous run in file order.
        let run_len = clipped.len(rank - 1) as usize;
        let mut row_prefix_rect = clipped.clone();
        row_prefix_rect.low[rank - 1] = clipped.low[rank - 1];
        row_prefix_rect.high[rank - 1] = clipped.low[rank - 1];
        for row_start in row_prefix_rect.iter_cells() {
            let lin = self.rect.linearize(&row_start);
            // One read per variable per row.
            let mut var_runs: Vec<Vec<u8>> = Vec::with_capacity(self.vars.len());
            for var in &self.vars {
                let bytes = self
                    .file
                    .read_at(var.offset + lin as u64 * 8, run_len * 8)?;
                var_runs.push(bytes);
            }
            for k in 0..run_len {
                let mut coords = row_start.clone();
                coords[rank - 1] += k as i64;
                let mut rec: Record = Vec::with_capacity(self.vars.len());
                let mut any = false;
                for (vi, var) in self.vars.iter().enumerate() {
                    let w = u64_at(&var_runs[vi], &mut (k * 8))?;
                    match var.ty {
                        TYPE_F64 => {
                            let v = f64::from_bits(w);
                            if v.is_nan() {
                                rec.push(Value::Null);
                            } else {
                                any = true;
                                rec.push(Value::from(v));
                            }
                        }
                        _ => {
                            any = true;
                            rec.push(Value::from(w as i64));
                        }
                    }
                }
                if any {
                    out.set_cell(&coords, rec)?;
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
    use scidb_core::value::record;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("scidb_ncdf_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample(n: i64) -> Array {
        let schema = SchemaBuilder::new("sst")
            .attr("temp", ScalarType::Float64)
            .attr("count", ScalarType::Int64)
            .dim("lat", n)
            .dim("lon", n)
            .build()
            .unwrap();
        let mut a = Array::new(schema);
        a.fill_with(|c| {
            record([
                Value::from(c[0] as f64 + c[1] as f64 / 100.0),
                Value::from(c[0] * c[1]),
            ])
        })
        .unwrap();
        a
    }

    #[test]
    fn roundtrip_with_globals() {
        let a = sample(16);
        let path = tmp("sst.ncdf");
        write_netcdf(&path, &a, &[("instrument", "MODIS"), ("units", "degC")]).unwrap();
        let mut r = NetcdfReader::open(&path).unwrap();
        assert_eq!(r.globals().len(), 2);
        assert_eq!(r.globals()[0].1, "MODIS");
        let back = r.read_all().unwrap();
        assert!(back.same_cells(&a));
    }

    #[test]
    fn region_read_is_partial_io() {
        let a = sample(64);
        let path = tmp("partial.ncdf");
        let total = write_netcdf(&path, &a, &[]).unwrap();
        let mut r = NetcdfReader::open(&path).unwrap();
        let base = r.bytes_read();
        let region = HyperRect::new(vec![10, 10], vec![13, 13]).unwrap();
        let out = r.read_region(&region).unwrap();
        assert_eq!(out.cell_count(), 16);
        assert_eq!(out.get_f64(0, &[10, 13]), Some(10.13));
        let read = r.bytes_read() - base;
        assert!(
            read * 10 < total,
            "4 rows × 4 cells × 2 vars read: {read} of {total}"
        );
    }

    #[test]
    fn missing_cells_become_nan_and_back() {
        let schema = SchemaBuilder::new("gappy")
            .attr("v", ScalarType::Float64)
            .dim("i", 8)
            .build()
            .unwrap();
        let mut a = Array::new(schema);
        a.set_cell(&[3], record([Value::from(3.0)])).unwrap();
        a.set_cell(&[7], record([Value::from(7.0)])).unwrap();
        let path = tmp("gappy.ncdf");
        write_netcdf(&path, &a, &[]).unwrap();
        let mut r = NetcdfReader::open(&path).unwrap();
        let back = r.read_all().unwrap();
        assert_eq!(back.cell_count(), 2);
        assert_eq!(back.get_f64(0, &[3]), Some(3.0));
        assert!(!back.exists(&[4]));
    }

    #[test]
    fn out_of_range_region_is_empty() {
        let a = sample(8);
        let path = tmp("oob.ncdf");
        write_netcdf(&path, &a, &[]).unwrap();
        let mut r = NetcdfReader::open(&path).unwrap();
        let region = HyperRect::new(vec![100, 100], vec![110, 110]).unwrap();
        assert_eq!(r.read_region(&region).unwrap().cell_count(), 0);
    }

    #[test]
    fn adaptor_dispatch_and_bad_magic() {
        let a = sample(4);
        let path = tmp("dispatch.ncdf");
        write_netcdf(&path, &a, &[]).unwrap();
        let mut src = crate::adaptor::open(&path).unwrap();
        assert_eq!(src.read_all().unwrap().cell_count(), 16);
        assert!(NetcdfReader::open(&tmp("nope.ncdf")).is_err());
    }

    #[test]
    fn unsupported_attr_types_rejected_on_write() {
        let schema = SchemaBuilder::new("s")
            .attr("name", ScalarType::String)
            .dim("i", 2)
            .build()
            .unwrap();
        let a = Array::new(schema);
        assert!(write_netcdf(&tmp("bad.ncdf"), &a, &[]).is_err());
    }
}
