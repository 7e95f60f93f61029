//! The in-situ adaptor interface (§2.9).
//!
//! "SciDB must be able to operate on 'in situ' data, without requiring a
//! load process. Our approach to this issue is to define a self-describing
//! data format and then write adaptors to various popular external
//! formats." [`InSituSource`] is the adaptor trait; [`open`] sniffs a
//! file's magic number and dispatches to the right adaptor (SDDF,
//! NetCDF-like, HDF5-like). In-situ files get chunk- or slab-granular
//! reads but, as the paper notes, "will not have many DBMS services, such
//! as recovery, since it is under user control and not DBMS control".

use crate::format::SddfReader;
use crate::hdf5like::H5LiteReader;
use crate::netcdf_like::NetcdfReader;
use scidb_core::array::Array;
use scidb_core::error::{Error, Result};
use scidb_core::geometry::HyperRect;
use scidb_core::schema::ArraySchema;
use std::cell::Cell;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// A readable external data source mapped to the array model.
pub trait InSituSource {
    /// The array schema the source maps to.
    fn schema(&self) -> &ArraySchema;
    /// Reads all cells intersecting `region` (no load step).
    fn read_region(&mut self, region: &HyperRect) -> Result<Array>;
    /// Reads the entire source.
    fn read_all(&mut self) -> Result<Array> {
        let rect = self
            .schema()
            .dims()
            .iter()
            .map(|d| d.upper)
            .collect::<Option<Vec<_>>>()
            .map(|high| HyperRect {
                low: vec![1; high.len()],
                high,
            })
            .ok_or_else(|| Error::Unsupported("read_all of unbounded source".into()))?;
        self.read_region(&rect)
    }
    /// Bytes read from the underlying file so far (for the E4
    /// in-situ-vs-load accounting).
    fn bytes_read(&self) -> u64;
}

/// Opens an external file, sniffing its format from the magic number.
pub fn open(path: &Path) -> Result<Box<dyn InSituSource>> {
    let mut f = File::open(path)?;
    let mut magic = [0u8; 4];
    f.read_exact(&mut magic)?;
    drop(f);
    match &magic {
        b"SDDF" => Ok(Box::new(SddfReader::open(path)?)),
        b"NCDF" => Ok(Box::new(NetcdfReader::open(path)?)),
        b"H5LT" => Ok(Box::new(H5LiteReader::open(path)?)),
        other => Err(Error::Unsupported(format!(
            "unknown in-situ format magic {other:?}"
        ))),
    }
}

/// A positioned file reader with byte accounting, shared by the adaptors.
pub(crate) struct MeteredFile {
    file: File,
    bytes: Cell<u64>,
}

impl MeteredFile {
    pub(crate) fn open(path: &Path) -> Result<Self> {
        Ok(MeteredFile {
            file: File::open(path)?,
            bytes: Cell::new(0),
        })
    }

    pub(crate) fn read_at(&mut self, offset: u64, len: usize) -> Result<Vec<u8>> {
        // Validate against the file size *before* allocating: corrupted
        // headers must error, not drive an unbounded allocation.
        let flen = self.len()?;
        if offset.checked_add(len as u64).is_none_or(|end| end > flen) {
            return Err(Error::storage(format!(
                "read of {len} bytes at offset {offset} exceeds file size {flen}"
            )));
        }
        self.file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        self.file.read_exact(&mut buf)?;
        self.bytes.set(self.bytes.get() + len as u64);
        Ok(buf)
    }

    pub(crate) fn len(&self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    pub(crate) fn bytes_read(&self) -> u64 {
        self.bytes.get()
    }
}

/// Little-endian primitive readers shared by the file formats.
pub(crate) mod wire {
    use scidb_core::error::{Error, Result};

    pub(crate) fn u32_at(data: &[u8], pos: &mut usize) -> Result<u32> {
        let b: [u8; 4] = data
            .get(*pos..*pos + 4)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(|| Error::storage("u32 truncated"))?;
        *pos += 4;
        Ok(u32::from_le_bytes(b))
    }

    pub(crate) fn u64_at(data: &[u8], pos: &mut usize) -> Result<u64> {
        let b: [u8; 8] = data
            .get(*pos..*pos + 8)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(|| Error::storage("u64 truncated"))?;
        *pos += 8;
        Ok(u64::from_le_bytes(b))
    }

    pub(crate) fn i64_at(data: &[u8], pos: &mut usize) -> Result<i64> {
        Ok(u64_at(data, pos)? as i64)
    }

    #[allow(dead_code)] // part of the symmetric wire API; used by tests
    pub(crate) fn f64_at(data: &[u8], pos: &mut usize) -> Result<f64> {
        Ok(f64::from_bits(u64_at(data, pos)?))
    }

    pub(crate) fn str_at(data: &[u8], pos: &mut usize) -> Result<String> {
        let len = u32_at(data, pos)? as usize;
        let s = data
            .get(*pos..*pos + len)
            .ok_or_else(|| Error::storage("string truncated"))?;
        *pos += len;
        String::from_utf8(s.to_vec()).map_err(|_| Error::storage("string not utf-8"))
    }

    pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
        put_u64(out, v as u64);
    }

    pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
        put_u64(out, v.to_bits());
    }

    pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
        put_u32(out, s.len() as u32);
        out.extend_from_slice(s.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_rejects_unknown_magic() {
        let dir = std::env::temp_dir().join(format!("scidb_adaptor_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mystery.bin");
        std::fs::write(&path, b"WAT?xxxxxxxx").unwrap();
        let err = match open(&path) {
            Err(e) => e,
            Ok(_) => panic!("expected dispatch failure"),
        };
        assert!(matches!(err, Error::Unsupported(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wire_roundtrip() {
        use wire::*;
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 3);
        put_i64(&mut buf, -42);
        put_f64(&mut buf, 2.5);
        put_str(&mut buf, "hello");
        let mut pos = 0;
        assert_eq!(u32_at(&buf, &mut pos).unwrap(), 7);
        assert_eq!(u64_at(&buf, &mut pos).unwrap(), u64::MAX - 3);
        assert_eq!(i64_at(&buf, &mut pos).unwrap(), -42);
        assert_eq!(f64_at(&buf, &mut pos).unwrap(), 2.5);
        assert_eq!(str_at(&buf, &mut pos).unwrap(), "hello");
        assert_eq!(pos, buf.len());
        assert!(u32_at(&buf, &mut pos).is_err());
    }
}
