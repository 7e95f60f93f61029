//! Failure injection: corrupt files, truncated payloads, and byte flips
//! must surface as `Err` — never as panics or silently wrong data.
//!
//! The byte-flip sweeps are exhaustive where the payload is small (every
//! bucket byte) and seeded where it is not (`SmallRng` over a fixed seed
//! range, so a failure names its seed and replays exactly).

use scidb::core::rng::SmallRng;
use scidb::insitu::{
    write_h5, write_netcdf, write_sddf, DatasetSpec, H5LiteReader, NetcdfReader, SddfReader,
};
use scidb::storage::compress::{encode_i64s, put_varint, zigzag};
use scidb::storage::wal::{self, Record};
use scidb::storage::{deserialize_chunk, serialize_chunk, Codec, CodecPolicy};
use scidb::{Array, Error, ScalarType, SchemaBuilder, Value};

include!("support/hostile_images.rs");

fn sample(n: i64) -> Array {
    let schema = SchemaBuilder::new("s")
        .attr("v", ScalarType::Float64)
        .attr("n", ScalarType::Int64)
        .dim_chunked("x", n, 8)
        .dim_chunked("y", n, 8)
        .build()
        .unwrap();
    let mut a = Array::new(schema);
    a.fill_with(|c| {
        vec![
            Value::from((c[0] * 100 + c[1]) as f64),
            Value::from(c[0] - c[1]),
        ]
    })
    .unwrap();
    a
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("scidb_fi_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The bucket policies: the default, and the adaptive one every durable
/// bucket is written with (it emits RLE sections).
fn policies() -> [CodecPolicy; 2] {
    [CodecPolicy::default_policy(), CodecPolicy::adaptive()]
}

#[test]
fn truncated_buckets_error_at_every_length() {
    let a = sample(16);
    let chunk = a.chunks().values().next().unwrap();
    for policy in policies() {
        let bytes = serialize_chunk(chunk, policy).unwrap();
        // Every strict prefix must fail to deserialize (no partial results).
        for len in 0..bytes.len() {
            assert!(
                deserialize_chunk(&bytes[..len]).is_err(),
                "{policy:?}: prefix of {len} bytes must not deserialize"
            );
        }
    }
}

/// A hand-built bucket with no attributes: the rectangle `[low, high]`
/// and a raw offset list, written byte by byte in the bucket layout.
fn hand_built_bucket(low: &[i64], high: &[i64], offsets: &[i64]) -> Vec<u8> {
    let mut b = b"SBKT".to_vec();
    b.push(1); // version
    put_varint(&mut b, low.len() as u64);
    for (&l, &h) in low.iter().zip(high) {
        put_varint(&mut b, zigzag(l));
        put_varint(&mut b, zigzag(h));
    }
    let section = encode_i64s(offsets, Codec::Raw).unwrap();
    b.push(Codec::Raw.tag());
    put_varint(&mut b, section.len() as u64);
    b.extend_from_slice(&section);
    put_varint(&mut b, 0); // attribute count
    b
}

fn assert_storage_error(what: &str, bucket: &[u8]) {
    match deserialize_chunk(bucket) {
        Err(Error::Storage(_)) => {}
        other => panic!("{what}: expected a storage error, got {other:?}"),
    }
}

/// A rectangle whose side overflows `i64` is a storage error, not an
/// arithmetic panic.
#[test]
fn bucket_with_an_overflowing_side_is_a_storage_error() {
    assert_storage_error(
        "[i64::MIN, i64::MAX]",
        &hand_built_bucket(&[i64::MIN], &[i64::MAX], &[]),
    );
}

/// A rectangle of 2^120 cells is a storage error, not a wrapped or
/// panicking volume; so is any chunk past the `u32` cell limit.
#[test]
fn bucket_past_the_cell_limit_is_a_storage_error() {
    let side = 1i64 << 40;
    assert_storage_error(
        "2^40 x 2^40 x 2^40",
        &hand_built_bucket(&[1, 1, 1], &[side, side, side], &[]),
    );
    assert_storage_error(
        "2^32 cells",
        &hand_built_bucket(&[1, 1], &[1 << 16, 1 << 16], &[]),
    );
}

#[test]
fn bucket_with_descending_offsets_is_a_storage_error() {
    let ascending = deserialize_chunk(&hand_built_bucket(&[1, 1], &[4, 4], &[0, 2])).unwrap();
    assert_eq!(ascending.offsets(), &[0, 2]);
    assert_storage_error(
        "offsets [2, 0]",
        &hand_built_bucket(&[1, 1], &[4, 4], &[2, 0]),
    );
}

#[test]
fn bucket_with_a_repeated_offset_is_a_storage_error() {
    assert_storage_error(
        "offsets [1, 1]",
        &hand_built_bucket(&[1, 1], &[4, 4], &[1, 1]),
    );
}

/// A byte change anywhere in a bucket either errors or decodes to *some*
/// chunk — it never panics. (A flip in a value payload can be silent; the
/// header and structure must stay robust.) Every position × three deltas.
#[test]
fn bucket_byte_flips_never_panic() {
    let a = sample(8);
    let chunk = a.chunks().values().next().unwrap();
    for policy in policies() {
        let bytes = serialize_chunk(chunk, policy).unwrap();
        for pos in 0..bytes.len() {
            for delta in [0x01u8, 0x80, 0xff] {
                let mut flipped = bytes.clone();
                flipped[pos] = flipped[pos].wrapping_add(delta);
                let decoded = std::panic::catch_unwind(|| deserialize_chunk(&flipped).is_ok());
                assert!(
                    decoded.is_ok(),
                    "{policy:?}: byte {pos} + {delta:#04x} panicked"
                );
            }
        }
    }
}

/// Writes an 8×8 array in in-situ format `which` (0 netcdf, 1 h5, 2 sddf),
/// adds `delta` to the byte at `pos_frac` of the file's length, then opens
/// and reads it whole: any `Err` is fine, a panic is not.
fn flip_insitu_file(tag: &str, which: usize, pos_frac: f64, delta: u8) {
    let dir = tmp_dir(tag);
    let schema = SchemaBuilder::new("f")
        .attr("v", ScalarType::Float64)
        .dim_chunked("x", 8, 8)
        .dim_chunked("y", 8, 8)
        .build()
        .unwrap();
    let mut a = Array::new(schema);
    a.fill_with(|c| vec![Value::from((c[0] + c[1]) as f64)])
        .unwrap();
    let path = dir.join(format!("flip_{which}.bin"));
    match which {
        0 => write_netcdf(&path, &a, &[]).unwrap(),
        1 => write_h5(
            &path,
            &[DatasetSpec {
                path: "/d".into(),
                array: &a,
            }],
        )
        .unwrap(),
        _ => write_sddf(&path, &a, CodecPolicy::default_policy()).unwrap(),
    };
    let mut bytes = std::fs::read(&path).unwrap();
    let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
    bytes[pos] = bytes[pos].wrapping_add(delta);
    std::fs::write(&path, &bytes).unwrap();
    if let Ok(mut src) = scidb::insitu::open(&path) {
        let _ = src.read_all();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The in-situ byte-flip property for every format reader.
#[test]
fn insitu_byte_flips_never_panic() {
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let which = rng.gen_range(0..3usize);
        let pos_frac = rng.gen_range(0.0..1.0);
        let delta = rng.gen_range(1..=255u32) as u8;
        let read = std::panic::catch_unwind(|| flip_insitu_file("flip", which, pos_frac, delta));
        assert!(
            read.is_ok(),
            "seed {seed}: format {which}, byte at {pos_frac} + {delta} panicked"
        );
    }
}

/// Shrunk byte-flip cases that once panicked in the h5 and sddf readers.
#[test]
fn pinned_insitu_byte_flip_regressions() {
    flip_insitu_file("flip_pin", 2, 0.14042798303070844, 128);
    flip_insitu_file("flip_pin", 1, 0.9943464580828132, 1);
}

#[test]
fn truncated_insitu_files_error() {
    let dir = tmp_dir("trunc");
    let a = sample(16);
    let ncdf = dir.join("t.ncdf");
    let sddf = dir.join("t.sddf");
    write_netcdf(&ncdf, &a, &[]).unwrap();
    write_sddf(&sddf, &a, CodecPolicy::default_policy()).unwrap();
    for path in [&ncdf, &sddf] {
        let bytes = std::fs::read(path).unwrap();
        let cut = dir.join("cut.bin");
        std::fs::write(&cut, &bytes[..bytes.len() / 3]).unwrap();
        // Failing at open is equally acceptable.
        if let Ok(mut src) = scidb::insitu::open(&cut) {
            assert!(
                src.read_all().is_err(),
                "truncated {path:?} must not read fully"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A file shorter than any magic number is an `Err` from each reader's own
/// `open`, not only from `insitu::open`, which reads the magic first.
#[test]
fn two_byte_files_error_in_every_reader() {
    let dir = tmp_dir("short");
    let path = dir.join("short.bin");
    std::fs::write(&path, b"NC").unwrap();
    assert!(NetcdfReader::open(&path).is_err());
    assert!(H5LiteReader::open(&path).is_err());
    assert!(SddfReader::open(&path).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One materialized cell: coordinates plus the record's values.
type Cell = (Vec<i64>, Vec<Value>);

/// Builds a small durable database and returns its directory plus the
/// canonical committed state of array `A`.
fn durable_fixture(tag: &str) -> (std::path::PathBuf, Vec<Cell>) {
    let dir = std::env::temp_dir().join(format!("scidb_fi_dur_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = scidb::Database::open(&dir).unwrap();
    db.run("define T (v = int) (X = 1:4, Y = 1:4); create A as T [4, 4]")
        .unwrap();
    for k in 0..8i64 {
        db.run(&format!(
            "insert into A[{}, {}] values ({k})",
            k % 4 + 1,
            k / 4 + 1
        ))
        .unwrap();
    }
    let canon = match db.run("scan(A)").unwrap().pop() {
        Some(scidb::query::StmtResult::Array(a)) => a.cells().collect(),
        other => panic!("scan(A) did not return an array: {other:?}"),
    };
    (dir, canon)
}

/// Truncating the WAL at *any* byte offset must leave the store openable,
/// recovered to some committed prefix — never a panic, never a torn
/// half-applied statement.
#[test]
fn truncated_wal_recovers_a_committed_prefix_at_every_length() {
    let (dir, full) = durable_fixture("trunc");
    let wal_path = dir.join("wal.log");
    let bytes = std::fs::read(&wal_path).unwrap();
    // Sample every 7th offset plus both endpoints: dense enough to hit
    // frame headers, payload middles, and CRC bytes, cheap enough for CI.
    let cuts: Vec<usize> = (0..=bytes.len())
        .filter(|i| i % 7 == 0 || *i == bytes.len())
        .collect();
    let kill = std::env::temp_dir().join(format!("scidb_fi_dur_kill_{}", std::process::id()));
    for cut in cuts {
        let _ = std::fs::remove_dir_all(&kill);
        std::fs::create_dir_all(&kill).unwrap();
        std::fs::write(kill.join("wal.log"), &bytes[..cut]).unwrap();
        let mut db = scidb::Database::open(&kill).unwrap();
        // The recovered state is a prefix: either A is absent (cut before
        // its create committed) or every surviving cell matches the full
        // run's value at those coordinates.
        if let Ok(mut results) = db.run("scan(A)") {
            if let Some(scidb::query::StmtResult::Array(a)) = results.pop() {
                for (coords, rec) in a.cells() {
                    assert!(
                        full.contains(&(coords.clone(), rec.clone())),
                        "cut {cut}: recovered cell {coords:?}={rec:?} not in the full run"
                    );
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&kill);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bit flip anywhere in the WAL must never panic on reopen: the CRC
/// rejects the frame and recovery stops at the last intact commit, or the
/// flip lands in already-valid data and replay simply proceeds.
#[test]
fn wal_bit_flips_never_panic_on_reopen() {
    let (dir, _) = durable_fixture("flip");
    let wal_path = dir.join("wal.log");
    let bytes = std::fs::read(&wal_path).unwrap();
    let kill = std::env::temp_dir().join(format!("scidb_fi_dur_flip_kill_{}", std::process::id()));
    // Deterministic sweep: flip one bit at a spread of positions.
    for step in 0..24 {
        let pos = step * bytes.len() / 24;
        let pos = pos.min(bytes.len() - 1);
        let mut mutated = bytes.clone();
        mutated[pos] ^= 1 << (step % 8);
        let _ = std::fs::remove_dir_all(&kill);
        std::fs::create_dir_all(&kill).unwrap();
        std::fs::write(kill.join("wal.log"), &mutated).unwrap();
        // Open + scan: Err is acceptable, a panic is not.
        if let Ok(mut db) = scidb::Database::open(&kill) {
            let _ = db.run("scan(A)");
        }
    }
    let _ = std::fs::remove_dir_all(&kill);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay's path from a log frame to an array: the record envelope, then
/// the image it carries.
fn replay_image(payload: &[u8]) -> Result<Array, Error> {
    match Record::decode(payload)? {
        Record::PutArrayOnDisk { bytes, .. } => wal::decode_array(&bytes),
        other => panic!("not a PutArrayOnDisk record: {}", other.kind()),
    }
}

/// The WAL half of the adversarial table (the wire half is
/// `crates/server/tests/hostile_images.rs`): the same hostile images, and
/// the same defects in the record envelope around them, are
/// `Error::Storage` from the log's entry points — never a panic.
#[test]
fn hostile_array_images_and_records_are_storage_errors_in_the_wal() {
    let record = |bytes: Vec<u8>| {
        let name = "A".to_string();
        Record::PutArrayOnDisk { name, bytes }.encode()
    };
    for image in valid_images() {
        let array = replay_image(&record(image.clone())).expect("valid image");
        assert_eq!(wal::encode_array(&array), image);
    }
    let storage_error = |what: &str, got: Result<Array, Error>| match got {
        Err(Error::Storage(_)) => {}
        other => panic!("{what}: expected a storage error, got {other:?}"),
    };
    for (what, image) in hostile_images() {
        storage_error(&what, replay_image(&record(image)));
    }

    // The envelope: tag | str name | u32 length | image.
    let good = record(valid_images().remove(0));
    for cut in 0..good.len() {
        storage_error(&format!("record cut at {cut}"), replay_image(&good[..cut]));
    }
    let mut long_count = good.clone();
    long_count[6..10].copy_from_slice(&u32::MAX.to_be_bytes());
    storage_error("image length u32::MAX", replay_image(&long_count));
    let mut bad_name = good.clone();
    bad_name[5] = 0xff;
    storage_error("non-UTF-8 array name", replay_image(&bad_name));
    let mut bad_tag = good.clone();
    bad_tag[0] = 99;
    storage_error("unknown record tag", replay_image(&bad_tag));
    let mut trailing = good;
    trailing.push(0);
    storage_error("trailing byte after the record", replay_image(&trailing));
}

#[test]
fn engine_errors_do_not_corrupt_state() {
    // A failed statement leaves the catalog exactly as before.
    let mut db = scidb::Database::new();
    db.run("define T (v = int) (X = 1:4); create A as T [4]; insert into A[1] values (7)")
        .unwrap();
    let before = db.query("scan(A)").unwrap();
    // Bad inserts, bad queries, bad DDL.
    assert!(db.run("insert into A[99] values (1)").is_err());
    assert!(db.run("insert into A[1] values ('wrong type')").is_err());
    assert!(db.run("store scan(A) into A").is_err());
    assert!(db.query("subsample(A, X = Y)").is_err());
    assert!(db.run("create A as T [4]").is_err());
    let after = db.query("scan(A)").unwrap();
    assert!(
        before.same_cells(&after),
        "failed statements must not mutate"
    );
}
