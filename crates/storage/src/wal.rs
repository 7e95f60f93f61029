//! Write-ahead log: typed records, group commit, torn-tail recovery.
//!
//! The durable layer logs every committed operation as one atomic *group*
//! of framed [`Record`]s — physical bucket images first, then the logical
//! record that owns them, bracketed by [`Record::Begin`] /
//! [`Record::Commit`]. A group is buffered in memory while the operation
//! runs and appended (plus one `fdatasync`) only at commit, so aborted
//! operations write nothing and the log never contains partial intent.
//!
//! On [`Wal::open`] the tail is scanned: a torn final frame (bad length,
//! short read, checksum mismatch) or a group missing its `Commit` is
//! discarded and the file is physically truncated back to the last
//! committed group — ARIES-lite with full-image physical redo, no undo.
//!
//! Frame format: `[len: u32 LE][crc32: u32 LE][payload]`, with the CRC
//! over the payload (shared with the page headers, [`crate::page::crc32`]).

use crate::page::crc32;
use scidb_core::array::Array;
use scidb_core::codec::{self, put_bytes, put_i64, put_str, put_u64};
use scidb_core::error::{Error, Result};
use scidb_obs::Stopwatch;
use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// One typed log record. Physical records ([`Record::BucketWrite`],
/// [`Record::BucketFree`]) always precede the logical record that caused
/// them within a group; replay queues them and the logical record's
/// re-execution pops and byte-verifies each one.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Start of a committed operation group.
    Begin {
        /// Monotonic operation number.
        op: u64,
    },
    /// End of a committed operation group; everything between the
    /// matching [`Record::Begin`] and this record is atomic.
    Commit {
        /// Operation number, matching the group's `Begin`.
        op: u64,
    },
    /// A catalog-write AQL statement, stored in canonical form and
    /// re-executed on replay.
    Stmt {
        /// Canonical rendering of the statement (`stmt.to_string()`).
        aql: String,
    },
    /// A whole in-memory array registered under `name`.
    PutArray {
        /// Catalog name of the array.
        name: String,
        /// Encoded array image ([`encode_array`]).
        bytes: Vec<u8>,
    },
    /// A whole array loaded into the disk-backed store under `name`; the
    /// group's preceding bucket images are its physical redo.
    PutArrayOnDisk {
        /// Catalog name of the array.
        name: String,
        /// Encoded array image ([`encode_array`]).
        bytes: Vec<u8>,
    },
    /// Physical redo image of one bucket written to the paged disk.
    BucketWrite {
        /// Block id the bucket landed at.
        block: u64,
        /// The exact bucket bytes.
        bytes: Vec<u8>,
    },
    /// Physical record of one bucket freed (background merge reclaim).
    BucketFree {
        /// Block id freed.
        block: u64,
    },
    /// History layers of an updatable array persisted through version
    /// `through`; the preceding bucket images are the physical redo.
    DeltaAppend {
        /// Catalog name of the updatable array.
        array: String,
        /// Highest history version now persisted.
        through: i64,
    },
    /// A super-tile merge pass over a disk-backed array; replay re-runs
    /// the (deterministic) pass and verifies its bucket traffic.
    Merge {
        /// Catalog name of the disk-backed array.
        array: String,
        /// Super-tile factor of the pass.
        factor: i64,
    },
}

/// The shared codec reports every bad image as a protocol error; in a log
/// record the same defect is storage corruption.
fn corrupt(e: Error) -> Error {
    Error::storage(format!("wal record: {}", e.wire_message()))
}

impl Record {
    /// Serializes the record payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            Record::Begin { op } => {
                b.push(0);
                put_u64(&mut b, *op);
            }
            Record::Commit { op } => {
                b.push(1);
                put_u64(&mut b, *op);
            }
            Record::Stmt { aql } => {
                b.push(2);
                put_str(&mut b, aql);
            }
            Record::PutArray { name, bytes } => {
                b.push(3);
                put_str(&mut b, name);
                put_bytes(&mut b, bytes);
            }
            Record::PutArrayOnDisk { name, bytes } => {
                b.push(4);
                put_str(&mut b, name);
                put_bytes(&mut b, bytes);
            }
            Record::BucketWrite { block, bytes } => {
                b.push(5);
                put_u64(&mut b, *block);
                put_bytes(&mut b, bytes);
            }
            Record::BucketFree { block } => {
                b.push(6);
                put_u64(&mut b, *block);
            }
            Record::DeltaAppend { array, through } => {
                b.push(7);
                put_str(&mut b, array);
                put_i64(&mut b, *through);
            }
            Record::Merge { array, factor } => {
                b.push(8);
                put_str(&mut b, array);
                put_i64(&mut b, *factor);
            }
        }
        b
    }

    /// Deserializes one record payload.
    pub fn decode(buf: &[u8]) -> Result<Record> {
        codec::decode_all(buf, Record::decode_from).map_err(corrupt)
    }

    fn decode_from(r: &mut codec::Reader<'_>) -> Result<Record> {
        Ok(match r.u8()? {
            0 => Record::Begin { op: r.u64()? },
            1 => Record::Commit { op: r.u64()? },
            2 => Record::Stmt { aql: r.str()? },
            3 => Record::PutArray {
                name: r.str()?,
                bytes: r.bytes()?.to_vec(),
            },
            4 => Record::PutArrayOnDisk {
                name: r.str()?,
                bytes: r.bytes()?.to_vec(),
            },
            5 => Record::BucketWrite {
                block: r.u64()?,
                bytes: r.bytes()?.to_vec(),
            },
            6 => Record::BucketFree { block: r.u64()? },
            7 => Record::DeltaAppend {
                array: r.str()?,
                through: r.i64()?,
            },
            8 => Record::Merge {
                array: r.str()?,
                factor: r.i64()?,
            },
            t => return Err(Error::protocol(format!("unknown tag {t}"))),
        })
    }

    /// Short variant name, for diagnostics and coverage accounting.
    pub fn kind(&self) -> &'static str {
        match self {
            Record::Begin { .. } => "Begin",
            Record::Commit { .. } => "Commit",
            Record::Stmt { .. } => "Stmt",
            Record::PutArray { .. } => "PutArray",
            Record::PutArrayOnDisk { .. } => "PutArrayOnDisk",
            Record::BucketWrite { .. } => "BucketWrite",
            Record::BucketFree { .. } => "BucketFree",
            Record::DeltaAppend { .. } => "DeltaAppend",
            Record::Merge { .. } => "Merge",
        }
    }
}

/// Serializes a whole array — the shared array image
/// ([`scidb_core::codec`]) — for [`Record::PutArray`] /
/// [`Record::PutArrayOnDisk`].
pub fn encode_array(a: &Array) -> Vec<u8> {
    let mut b = Vec::new();
    codec::encode_array(&mut b, a);
    b
}

/// Deserializes an array image written by [`encode_array`].
pub fn decode_array(buf: &[u8]) -> Result<Array> {
    codec::decode_all(buf, codec::decode_array).map_err(corrupt)
}

// ------------------------------------------------------------- appender --

const FRAME_HEADER: usize = 8;

/// Everything salvaged from the log at open time.
#[derive(Debug)]
pub struct Recovered {
    /// Committed groups in append order, each `Begin ..= Commit`.
    pub groups: Vec<Vec<Record>>,
    /// Bytes of torn tail (bad frame or uncommitted group) truncated away.
    pub torn_bytes: u64,
}

/// The group-commit write-ahead-log appender.
#[derive(Debug)]
pub struct Wal {
    file: std::fs::File,
    len: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, scans it into
    /// committed groups, and truncates any torn tail so appends resume at
    /// the last committed byte.
    pub fn open(path: &Path) -> Result<(Wal, Recovered)> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let file_len = file.metadata()?.len();
        let mut raw = vec![0u8; file_len as usize];
        file.read_exact_at(&mut raw, 0)?;

        let mut groups = Vec::new();
        let mut current: Vec<Record> = Vec::new();
        let mut committed_end = 0u64;
        for (end, rec) in frames(&raw) {
            let is_commit = matches!(rec, Record::Commit { .. });
            current.push(rec);
            if is_commit {
                groups.push(std::mem::take(&mut current));
                committed_end = end;
            }
        }
        // Truncate everything past the last committed group: a torn frame
        // and a committed-but-unfinished group are both discarded.
        let torn_bytes = file_len - committed_end;
        if torn_bytes > 0 {
            file.set_len(committed_end)?;
            file.sync_data()?;
        }
        Ok((
            Wal {
                file,
                len: committed_end,
            },
            Recovered { groups, torn_bytes },
        ))
    }

    /// Appends one committed group atomically: all frames in a single
    /// write followed by one `fdatasync`. The fsync latency lands in the
    /// `scidb.storage.wal.fsync_us` histogram.
    pub fn append_group(&mut self, records: &[Record]) -> Result<()> {
        let mut buf = Vec::new();
        for rec in records {
            let payload = rec.encode();
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(&crc32(&payload).to_le_bytes());
            buf.extend_from_slice(&payload);
        }
        self.file.write_all_at(&buf, self.len)?;
        let sw = Stopwatch::start();
        self.file.sync_data()?;
        let reg = scidb_obs::global();
        reg.histogram("scidb.storage.wal.fsync_us")
            .record(sw.elapsed().as_micros() as u64);
        reg.counter("scidb.storage.wal.records")
            .inc(records.len() as u64);
        reg.counter("scidb.storage.wal.commits").inc(1);
        reg.counter("scidb.storage.wal.bytes").inc(buf.len() as u64);
        self.len += buf.len() as u64;
        Ok(())
    }

    /// Current byte length of the committed log.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if no group has ever committed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Walks a raw log image into `(frame_end_offset, record)` pairs, stopping
/// at the first torn frame: one that runs past the end, fails its
/// checksum, or does not decode.
fn frames(raw: &[u8]) -> Vec<(u64, Record)> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + FRAME_HEADER <= raw.len() {
        let len = crate::page::read_le32(&raw[pos..pos + 4]) as usize;
        let crc = crate::page::read_le32(&raw[pos + 4..pos + 8]);
        let start = pos + FRAME_HEADER;
        if start + len > raw.len() {
            break;
        }
        let payload = &raw[start..start + len];
        if crc32(payload) != crc {
            break;
        }
        let Ok(rec) = Record::decode(payload) else {
            break;
        };
        pos = start + len;
        out.push((pos as u64, rec));
    }
    out
}

/// Scans the log at `path` into `(frame_end_offset, record)` pairs,
/// stopping at the first torn frame. The recovery kill-matrix harness
/// uses the offsets as its truncation points.
pub fn scan(path: &Path) -> Result<Vec<(u64, Record)>> {
    Ok(frames(&std::fs::read(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scidb_core::schema::SchemaBuilder;
    use scidb_core::uncertain::Uncertain;
    use scidb_core::value::{ScalarType, Value};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("scidb_wal_{}_{name}", std::process::id()))
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Begin { op: 7 },
            Record::Stmt {
                aql: "create A as T [4]".into(),
            },
            Record::PutArray {
                name: "A".into(),
                bytes: vec![1, 2, 3],
            },
            Record::PutArrayOnDisk {
                name: "B".into(),
                bytes: vec![],
            },
            Record::BucketWrite {
                block: 9,
                bytes: vec![0xAB; 17],
            },
            Record::BucketFree { block: 9 },
            Record::DeltaAppend {
                array: "R".into(),
                through: -3,
            },
            Record::Merge {
                array: "D".into(),
                factor: 4,
            },
            Record::Commit { op: 7 },
        ]
    }

    #[test]
    fn record_codec_roundtrips_every_variant() {
        for rec in sample_records() {
            let enc = rec.encode();
            assert_eq!(Record::decode(&enc).unwrap(), rec, "variant {}", rec.kind());
        }
        assert!(Record::decode(&[99]).is_err());
        assert!(Record::decode(&[0, 1]).is_err(), "truncated Begin");
    }

    /// The sample `crates/server/src/proto.rs` pins the image with: every
    /// scalar type, -0.0, NULLs, a nested array and an unbounded dimension.
    fn sample_array() -> Array {
        let nested_schema = std::sync::Arc::new(
            SchemaBuilder::new("inner")
                .attr("v", ScalarType::Int64)
                .dim("rank", 4)
                .build()
                .unwrap(),
        );
        let schema = SchemaBuilder::new("sample")
            .attr("i", ScalarType::Int64)
            .attr("f", ScalarType::Float64)
            .attr("s", ScalarType::String)
            .attr("u", ScalarType::UncertainFloat64)
            .nested_attr("n", std::sync::Arc::clone(&nested_schema))
            .dim("X", 4)
            .dim_unbounded("Y")
            .build()
            .unwrap();
        let mut a = Array::new(schema);
        let mut inner = Array::from_arc(nested_schema);
        inner.set_cell(&[1], vec![Value::from(10i64)]).unwrap();
        inner.set_cell(&[3], vec![Value::Null]).unwrap();
        a.set_cell(
            &[1, 1],
            vec![
                Value::from(7i64),
                Value::from(-0.0f64),
                Value::from("x".to_string()),
                Value::from(Uncertain::new(1.5, 0.25)),
                Value::Array(Box::new(inner)),
            ],
        )
        .unwrap();
        let mut nulls = vec![Value::Null; 5];
        nulls[1] = Value::from(f64::MIN_POSITIVE);
        a.set_cell(&[4, 9], nulls).unwrap();
        a
    }

    #[test]
    fn array_image_roundtrips_exactly_and_rejects_trailing_bytes() {
        let a = sample_array();
        let mut image = encode_array(&a);
        assert_eq!(decode_array(&image).unwrap(), a);
        image.push(0);
        assert!(matches!(decode_array(&image), Err(Error::Storage(_))));
    }

    #[test]
    fn updatable_schema_flag_survives_the_codec() {
        let schema = SchemaBuilder::new("upd")
            .attr("v", ScalarType::Float64)
            .dim("X", 4)
            .build()
            .unwrap()
            .updatable()
            .unwrap();
        let a = Array::new(schema);
        let back = decode_array(&encode_array(&a)).unwrap();
        assert!(back.schema().is_updatable());
    }

    #[test]
    #[cfg_attr(miri, ignore = "positioned file I/O is exercised natively")]
    fn append_then_open_recovers_groups() {
        let path = tmp("groups");
        let _ = std::fs::remove_file(&path);
        let (mut wal, rec) = Wal::open(&path).unwrap();
        assert!(rec.groups.is_empty());
        assert!(wal.is_empty());
        wal.append_group(&sample_records()).unwrap();
        wal.append_group(&[Record::Begin { op: 8 }, Record::Commit { op: 8 }])
            .unwrap();
        drop(wal);
        let (wal, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.groups.len(), 2);
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(rec.groups[0], sample_records());
        assert!(!wal.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore = "positioned file I/O is exercised natively")]
    fn torn_tail_is_truncated_at_every_cut() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append_group(&sample_records()).unwrap();
        let committed = wal.len();
        wal.append_group(&[Record::Begin { op: 8 }, Record::Commit { op: 8 }])
            .unwrap();
        let full = wal.len();
        drop(wal);
        let image = std::fs::read(&path).unwrap();
        // Cut the file at every byte inside the second group: recovery
        // must salvage exactly the first group and truncate the rest.
        for cut in committed..full {
            std::fs::write(&path, &image[..cut as usize]).unwrap();
            let (wal2, rec) = Wal::open(&path).unwrap();
            assert_eq!(rec.groups.len(), 1, "cut at {cut}");
            assert_eq!(rec.torn_bytes, cut - committed, "cut at {cut}");
            assert_eq!(wal2.len(), committed);
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                committed,
                "file physically truncated at cut {cut}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore = "positioned file I/O is exercised natively")]
    fn bitflip_in_tail_frame_is_discarded() {
        let path = tmp("bitflip");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append_group(&sample_records()).unwrap();
        let committed = wal.len();
        wal.append_group(&[Record::Begin { op: 8 }, Record::Commit { op: 8 }])
            .unwrap();
        drop(wal);
        let mut image = std::fs::read(&path).unwrap();
        let idx = committed as usize + FRAME_HEADER; // first payload byte of group 2
        image[idx] ^= 0x40;
        std::fs::write(&path, &image).unwrap();
        let (_, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.groups.len(), 1);
        assert!(rec.torn_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore = "positioned file I/O is exercised natively")]
    fn scan_reports_offsets_and_records() {
        let path = tmp("scan");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append_group(&sample_records()).unwrap();
        let len = wal.len();
        drop(wal);
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.len(), sample_records().len());
        assert_eq!(scanned.last().unwrap().0, len);
        assert_eq!(
            scanned.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
            sample_records()
        );
        std::fs::remove_file(&path).unwrap();
    }
}
