//! Recovery suite: a deterministic kill-at-every-op matrix for the durable
//! storage layer (WAL + buffer pool + ARIES-lite replay).
//!
//! The invariant under test: **crash anywhere, lose only the uncommitted
//! tail**. A seeded workload touching every WAL record variant runs to
//! completion; the resulting log is then truncated at every frame boundary
//! *and* at torn offsets inside frames. For each cut, reopening the
//! database must reproduce — byte-identically, over canonical sorted
//! scans — the state an uncrashed oracle reaches by running exactly the
//! committed prefix of the workload. A second reopen must be a no-op
//! (idempotent replay), and the recovered database must accept new writes.
//!
//! `recovery_kill_matrix_seeded` is the CI entry point (`RECOVERY_SEED`,
//! default 1). On violation it writes `target/recovery-failure.json` and a
//! hexdump of the offending log to `target/recovery-wal.hex` so the
//! workflow can upload both as artifacts and anyone can replay offline.

use scidb::core::value::{record, Value};
use scidb::query::Database;
use scidb::storage::wal;
use scidb::storage::WalRecord;
use scidb::{Array, ScalarType, SchemaBuilder};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------
// Seeded workload: every `wal::Record` variant gets exercised
// ---------------------------------------------------------------------

/// Tiny deterministic generator (splitmix-style) so the workload depends
/// only on `RECOVERY_SEED`.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn in_range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// One workload step; `adds`/`removes` track which catalog names exist so
/// the checker knows what to scan after any committed prefix.
enum Op {
    /// `Record::Stmt` (and `Record::DeltaAppend` for updatable inserts).
    Stmt {
        aql: String,
        adds: Option<&'static str>,
        removes: Option<&'static str>,
    },
    /// `Record::PutArray`.
    PutArray { name: &'static str, seed: u64 },
    /// `Record::PutArrayOnDisk` + `Record::BucketWrite`.
    PutArrayOnDisk { name: &'static str, seed: u64 },
    /// `Record::Merge` + `Record::BucketWrite` + `Record::BucketFree`.
    Merge { name: &'static str, factor: i64 },
}

/// A small in-memory array built from a seed.
fn gen_array(name: &str, seed: u64) -> Array {
    let mut g = Gen(seed);
    let schema = SchemaBuilder::new(name)
        .attr("v", ScalarType::Int64)
        .dim("I", 4)
        .dim("J", 4)
        .build()
        .unwrap();
    let mut a = Array::new(schema);
    for _ in 0..8 {
        let (i, j) = (g.in_range(1, 4), g.in_range(1, 4));
        a.set_cell(&[i, j], record([Value::from(g.in_range(-50, 50))]))
            .unwrap();
    }
    a
}

/// A chunked dense array: many chunks means many buckets on disk, so the
/// merge steps have real work (bucket writes *and* frees) to log.
fn gen_chunked_array(name: &str, seed: u64) -> Array {
    let mut g = Gen(seed);
    let schema = SchemaBuilder::new(name)
        .attr("v", ScalarType::Int64)
        .dim_chunked("I", 8, 2)
        .dim_chunked("J", 8, 2)
        .build()
        .unwrap();
    let mut a = Array::new(schema);
    for i in 1..=8 {
        for j in 1..=8 {
            a.set_cell(&[i, j], record([Value::from(g.in_range(-99, 99))]))
                .unwrap();
        }
    }
    a
}

/// The fixed op sequence (coords and values vary with the seed). Each op
/// commits exactly one WAL group, so "committed prefix of N groups" maps
/// 1:1 onto "first N ops".
fn workload(seed: u64) -> Vec<Op> {
    let mut g = Gen(seed);
    let stmt = |aql: String| Op::Stmt {
        aql,
        adds: None,
        removes: None,
    };
    let create = |aql: String, name: &'static str| Op::Stmt {
        aql,
        adds: Some(name),
        removes: None,
    };
    let mut ins_a = |a: &str| {
        format!(
            "insert into {a}[{}, {}] values ({})",
            g.in_range(1, 8),
            g.in_range(1, 8),
            g.in_range(-100, 100)
        )
    };
    let i1 = ins_a("A");
    let i2 = ins_a("A");
    let i3 = ins_a("A");
    let i4 = ins_a("A2");
    let u1 = format!(
        "insert into U[{}, {}] values ({})",
        g.in_range(1, 4),
        g.in_range(1, 4),
        g.in_range(0, 9)
    );
    let threshold = g.in_range(-50, 50);
    vec![
        stmt("define H (v = int) (X = 1:8, Y = 1:8)".into()),
        create("create A as H [8, 8]".into(), "A"),
        stmt(i1),
        stmt(i2),
        stmt("define updatable R (v = int) (I = 1:4, J = 1:4)".into()),
        create("create U as R [4, 4]".into(), "U"),
        stmt("insert into U[1, 2] values (7)".into()),
        stmt(u1),
        create(
            format!("store filter(scan(A), (v > {threshold})) into B"),
            "B",
        ),
        Op::PutArray {
            name: "P",
            seed: seed ^ 0xA5A5,
        },
        Op::PutArrayOnDisk {
            name: "D",
            seed: seed ^ 0x5A5A,
        },
        Op::Merge {
            name: "D",
            factor: 2,
        },
        Op::Stmt {
            aql: "drop array B".into(),
            adds: None,
            removes: Some("B"),
        },
        stmt(i3),
        create("create A2 as H [8, 8]".into(), "A2"),
        stmt(i4),
        Op::Merge {
            name: "D",
            factor: 4,
        },
        stmt("insert into U[3, 3] values (5)".into()),
    ]
}

/// Applies `ops` to a database, returning the set of live array names.
fn apply(db: &mut Database, ops: &[Op]) -> BTreeSet<&'static str> {
    let mut names: BTreeSet<&'static str> = BTreeSet::new();
    for op in ops {
        match op {
            Op::Stmt { aql, adds, removes } => {
                db.run(aql).unwrap();
                if let Some(n) = adds {
                    names.insert(n);
                }
                if let Some(n) = removes {
                    names.remove(n);
                }
            }
            Op::PutArray { name, seed } => {
                db.put_array(name, gen_array(name, *seed)).unwrap();
                names.insert(name);
            }
            Op::PutArrayOnDisk { name, seed } => {
                db.put_array_on_disk(name, &gen_chunked_array(name, *seed))
                    .unwrap();
                names.insert(name);
            }
            Op::Merge { name, factor } => {
                db.merge_on_disk(name, *factor).unwrap();
            }
        }
    }
    names
}

// ---------------------------------------------------------------------
// Canonical state + the oracle
// ---------------------------------------------------------------------

/// Canonical whole-database state: every live array scanned and rendered
/// as sorted `(name, coords, record)` lines.
fn canon_state(db: &mut Database, names: &BTreeSet<&'static str>) -> Vec<String> {
    let mut out = Vec::new();
    for name in names {
        let a = db.query(&format!("scan({name})")).unwrap();
        let mut cells: Vec<_> = a.cells().collect();
        cells.sort_by(|x, y| x.0.cmp(&y.0));
        for (coords, rec) in cells {
            out.push(format!("{name} {coords:?} {rec:?}"));
        }
        // An empty array still contributes its name, so a lost catalog
        // entry cannot masquerade as an empty one.
        out.push(format!("{name} <exists>"));
    }
    out
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scidb_recovery_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the first `n` ops on a fresh durable database and returns the
/// canonical state (the uncrashed oracle for a prefix of `n` commits).
fn oracle_state(ops: &[Op], n: usize, tag: &str) -> Vec<String> {
    let dir = temp_dir(tag);
    let mut db = Database::open(&dir).unwrap();
    let names = apply(&mut db, &ops[..n]);
    let state = canon_state(&mut db, &names);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    state
}

/// Names live after the first `n` ops, without running anything.
fn names_after(ops: &[Op], n: usize) -> BTreeSet<&'static str> {
    let mut names = BTreeSet::new();
    for op in &ops[..n] {
        match op {
            Op::Stmt { adds, removes, .. } => {
                if let Some(a) = adds {
                    names.insert(*a);
                }
                if let Some(r) = removes {
                    names.remove(r);
                }
            }
            Op::PutArray { name, .. } | Op::PutArrayOnDisk { name, .. } => {
                names.insert(*name);
            }
            Op::Merge { .. } => {}
        }
    }
    names
}

// ---------------------------------------------------------------------
// Failure artifacts
// ---------------------------------------------------------------------

/// Dumps the failing cut + a hexdump of the truncated log where CI picks
/// them up as artifacts, then panics with the message.
fn fail(seed: u64, cut: u64, wal_path: &Path, msg: &str) -> ! {
    let _ = std::fs::create_dir_all("target");
    let _ = std::fs::write(
        "target/recovery-failure.json",
        format!("{{\n  \"seed\": {seed},\n  \"cut\": {cut},\n  \"message\": {msg:?}\n}}\n"),
    );
    if let Ok(bytes) = std::fs::read(wal_path) {
        let mut hex = String::new();
        for (i, chunk) in bytes.chunks(16).enumerate() {
            hex.push_str(&format!("{:08x} ", i * 16));
            for b in chunk {
                hex.push_str(&format!(" {b:02x}"));
            }
            hex.push('\n');
        }
        let _ = std::fs::write("target/recovery-wal.hex", hex);
    }
    panic!("recovery invariant violated (RECOVERY_SEED={seed}, cut={cut}): {msg}");
}

// ---------------------------------------------------------------------
// The kill matrix (the CI entry point)
// ---------------------------------------------------------------------

#[test]
fn recovery_kill_matrix_seeded() {
    let seed: u64 = std::env::var("RECOVERY_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let ops = workload(seed);

    // Full run: apply every op, keep the log.
    let full_dir = temp_dir("full");
    {
        let mut db = Database::open(&full_dir).unwrap();
        apply(&mut db, &ops);
    }
    let wal_path = full_dir.join("wal.log");
    let full_wal = std::fs::read(&wal_path).unwrap();
    let frames = wal::scan(&wal_path).unwrap();
    assert!(
        frames.len() > ops.len() * 2,
        "the workload must produce a non-trivial log"
    );

    // Oracle states for every committed prefix, built once.
    let oracles: Vec<Vec<String>> = (0..=ops.len())
        .map(|n| oracle_state(&ops, n, "oracle"))
        .collect();

    // Cut points: after every frame, plus torn cuts inside every frame
    // (mid-frame and one byte short of complete).
    let mut cuts: BTreeSet<u64> = BTreeSet::new();
    let mut prev = 0u64;
    for &(end, _) in &frames {
        cuts.insert(end);
        cuts.insert(end - 1);
        cuts.insert(prev + (end - prev) / 2);
        prev = end;
    }
    cuts.insert(0);

    let kill_dir = temp_dir("kill");
    for (i, &cut) in cuts.iter().enumerate() {
        // Rebuild the crashed directory: the page file is derived state
        // (reconstructed from the log on open), so the log alone defines
        // the crash image.
        let _ = std::fs::remove_dir_all(&kill_dir);
        std::fs::create_dir_all(&kill_dir).unwrap();
        std::fs::write(kill_dir.join("wal.log"), &full_wal[..cut as usize]).unwrap();

        // The oracle prefix: ops whose Commit frame survived the cut.
        let committed = frames
            .iter()
            .filter(|(end, rec)| *end <= cut && matches!(rec, WalRecord::Commit { .. }))
            .count();

        let mut db = match Database::open(&kill_dir) {
            Ok(db) => db,
            Err(e) => fail(
                seed,
                cut,
                &kill_dir.join("wal.log"),
                &format!("reopen failed after cut: {e}"),
            ),
        };
        let names = names_after(&ops, committed);
        let got = canon_state(&mut db, &names);
        if got != oracles[committed] {
            fail(
                seed,
                cut,
                &kill_dir.join("wal.log"),
                &format!(
                    "state after cut diverges from the {committed}-op oracle:\n got: {got:#?}\nwant: {:#?}",
                    oracles[committed]
                ),
            );
        }
        drop(db);

        // Idempotence: replay of the (now truncated-to-committed) log must
        // land on the same state again. Spot-check to bound wall time.
        if i % 5 == 0 {
            let mut db2 = Database::open(&kill_dir).unwrap();
            let again = canon_state(&mut db2, &names);
            if again != oracles[committed] {
                fail(
                    seed,
                    cut,
                    &kill_dir.join("wal.log"),
                    "second reopen diverged: replay is not idempotent",
                );
            }
        }
    }

    let _ = std::fs::remove_dir_all(&full_dir);
    let _ = std::fs::remove_dir_all(&kill_dir);
}

// ---------------------------------------------------------------------
// Pinned deterministic scenarios
// ---------------------------------------------------------------------

/// The workload's log covers every `wal::Record` variant, so the kill
/// matrix above replays each of them: a new variant does not compile here
/// until it is listed, and one the workload never emits fails the check.
#[test]
fn replay_covers_every_record_variant() {
    let dir = temp_dir("variants");
    {
        let mut db = Database::open(&dir).unwrap();
        apply(&mut db, &workload(1));
    }
    // One list yields both the exhaustive match (a new `Record` variant
    // does not compile until it is listed) and the set it must cover.
    macro_rules! labels {
        ($($v:ident),*) => {
            (
                [$(stringify!($v)),*],
                |rec: &WalRecord| match rec { $(WalRecord::$v { .. } => stringify!($v)),* },
            )
        };
    }
    let (all, label) = labels!(
        Begin,
        Commit,
        Stmt,
        PutArray,
        PutArrayOnDisk,
        BucketWrite,
        BucketFree,
        DeltaAppend,
        Merge
    );
    let frames = wal::scan(&dir.join("wal.log")).unwrap();
    let seen: BTreeSet<&str> = frames.iter().map(|(_, rec)| label(rec)).collect();
    assert_eq!(
        seen,
        BTreeSet::from(all),
        "workload must exercise every WAL record variant"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn final record (partial frame at the tail) is physically truncated
/// and the database recovers to the last commit.
#[test]
fn torn_final_record_recovers_to_last_commit() {
    let dir = temp_dir("torn");
    {
        let mut db = Database::open(&dir).unwrap();
        db.run("define H (v = int) (X = 1:2, Y = 1:2)").unwrap();
        db.run("create A as H [2, 2]").unwrap();
        db.run("insert into A[1, 1] values (1)").unwrap();
    }
    let wal_path = dir.join("wal.log");
    let full = std::fs::read(&wal_path).unwrap();
    // Tear the last frame: drop its final 3 bytes.
    std::fs::write(&wal_path, &full[..full.len() - 3]).unwrap();
    let mut db = Database::open(&dir).unwrap();
    // The torn group (the insert) is gone; the DDL prefix survives.
    let a = db.query("scan(A)").unwrap();
    assert_eq!(a.cell_count(), 0, "torn insert must not replay");
    // The truncated log is now clean: the tear was physically removed.
    assert!(std::fs::metadata(&wal_path).unwrap().len() < full.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A recovered database keeps working: new writes after a crash-reopen
/// commit and survive another reopen.
#[test]
fn recovered_database_accepts_new_writes() {
    let dir = temp_dir("rewrites");
    {
        let mut db = Database::open(&dir).unwrap();
        db.run("define H (v = int) (X = 1:2, Y = 1:2)").unwrap();
        db.run("create A as H [2, 2]").unwrap();
        db.run("insert into A[1, 1] values (1)").unwrap();
    }
    // Crash: tear the insert off the tail.
    let wal_path = dir.join("wal.log");
    let full = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &full[..full.len() - 1]).unwrap();
    {
        let mut db = Database::open(&dir).unwrap();
        db.run("insert into A[2, 2] values (9)").unwrap();
    }
    let mut db = Database::open(&dir).unwrap();
    let a = db.query("scan(A)").unwrap();
    assert_eq!(a.cell_count(), 1);
    assert_eq!(a.get_cell(&[2, 2]), Some(vec![Value::from(9i64)]));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The paper's own §2.5 DDL declares the history dimension explicitly. It
/// gets chunk length 1 like the implicit one, so each insert's history
/// version is its own layer on the pages; three inserts survive a reopen
/// whose replay byte-verifies every layer.
#[test]
fn declared_history_dimension_survives_reopen() {
    let dir = temp_dir("declared_history");
    let inserts = [([1, 1], 1.5), ([2, 3], 2.5), ([1, 1], 3.5)];
    {
        let mut db = Database::open(&dir).unwrap();
        db.run("define updatable R (v = float) (I = 1:4, J = 1:4, history)")
            .unwrap();
        db.run("create r as R [4, 4]").unwrap();
        for ([i, j], v) in inserts {
            db.run(&format!("insert into r[{i}, {j}] values ({v})"))
                .unwrap();
        }
    }
    let mut db = Database::open(&dir).unwrap();
    let r = db.query("scan(r)").unwrap();
    assert_eq!(r.schema().dims()[2].chunk_len, 1, "one version per chunk");
    assert_eq!(r.cell_count(), 3);
    for (h, ([i, j], v)) in inserts.into_iter().enumerate() {
        assert_eq!(r.get_f64(0, &[i, j, h as i64 + 1]), Some(v), "history {h}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
