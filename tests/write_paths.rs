//! One table for the one write path: the 18-op seeded script of
//! `tests/recovery.rs` run against an in-memory database, a durable one and
//! the durable one reopened must leave byte-identical canonical arrays, and
//! every op an engine rejects must be rejected by all three with the same
//! typed error and leave nothing behind in the log.
//!
//! Every catalog mutation goes through `DbCore::commit` whichever handle
//! and whichever kind of database it came in by (DESIGN.md §15, "One write
//! path"); this file is the table that would notice a second path.

use scidb::core::value::{record, Value};
use scidb::query::Database;
use scidb::storage::wal;
use scidb::storage::WalRecord;
use scidb::{Array, Error, ErrorCode, ScalarType, SchemaBuilder};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Barrier;

// ---------------------------------------------------------------------
// The script: `tests/recovery.rs`'s, verbatim. That file is a crate root
// whose items are private, so the block is copied rather than imported;
// `script_is_recovery_rs_script` fails when the two drift apart.
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

/// Applies `ops` to a database, adding to the set of live array names.
fn apply(db: &mut Database, ops: &[Op], names: &mut BTreeSet<&'static str>) {
    for op in ops {
        match op {
            Op::Stmt { aql, adds, removes } => {
                db.run(aql).unwrap();
                names.extend(adds);
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
}

#[test]
fn script_is_recovery_rs_script() {
    let block = |text: &'static str| {
        let from = text.find("/// Tiny deterministic generator").unwrap();
        let to = text.find("/// Applies `ops` to a database").unwrap();
        &text[from..to]
    };
    assert!(
        block(include_str!("recovery.rs")) == block(include_str!("write_paths.rs")),
        "the script copied into tests/write_paths.rs no longer matches tests/recovery.rs"
    );
}

// ---------------------------------------------------------------------
// Canonical state and the rejected ops
// ---------------------------------------------------------------------

/// Every live array scanned and rendered as sorted `name coords record`
/// lines; an empty array still contributes its name.
fn canon_state(db: &mut Database, names: &BTreeSet<&'static str>) -> Vec<String> {
    let mut out = Vec::new();
    for name in names {
        let a = db.query(&format!("scan({name})")).unwrap();
        let mut cells: Vec<_> = a.cells().collect();
        cells.sort_by(|x, y| x.0.cmp(&y.0));
        for (coords, rec) in cells {
            out.push(format!("{name} {coords:?} {rec:?}"));
        }
        out.push(format!("{name} <exists>"));
    }
    out
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scidb_write_paths_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An array no disk-backed store accepts: its second dimension has no bound.
fn unbounded_array() -> Array {
    let schema = SchemaBuilder::new("T")
        .attr("v", ScalarType::Int64)
        .dim("I", 4)
        .dim_unbounded("J")
        .build()
        .unwrap();
    let mut a = Array::new(schema);
    a.set_cell(&[1, 1], record([Value::from(1i64)])).unwrap();
    a
}

/// One way into the write path, as a call every engine can be given.
type Attempt = fn(&mut Database) -> Result<(), Error>;

/// Ops every engine must reject whenever `A` (plain), `P` (plain), `D`
/// (on disk) and type `H` exist, each with the error class it must raise.
/// They come in by all three doors: a statement, `put_array*`, `merge`.
fn rejected() -> Vec<(&'static str, ErrorCode, Attempt)> {
    use ErrorCode::{AlreadyExists, NotFound, Schema, Unsupported};
    fn stmt(db: &mut Database, aql: &str) -> Result<(), Error> {
        db.run(aql).map(drop)
    }
    fn p() -> Array {
        gen_array("p", 1)
    }
    fn d() -> Array {
        gen_chunked_array("d", 1)
    }
    vec![
        // The reserved `system.*` namespace.
        ("reserved create", Schema, |db| {
            stmt(db, "create system.x as H [8, 8]")
        }),
        ("reserved store", Schema, |db| {
            stmt(db, "store scan(A) into system.y")
        }),
        ("reserved put_array", Schema, |db| {
            db.put_array("system.p", p())
        }),
        ("reserved put_array_on_disk", Schema, |db| {
            db.put_array_on_disk("system.d", &d())
        }),
        // A name already in the catalog, plain or on disk.
        ("duplicate create", AlreadyExists, |db| {
            stmt(db, "create A as H [8, 8]")
        }),
        ("duplicate store", AlreadyExists, |db| {
            stmt(db, "store scan(A) into P")
        }),
        ("duplicate put_array", AlreadyExists, |db| {
            db.put_array("A", p())
        }),
        ("put_array over a disk array", AlreadyExists, |db| {
            db.put_array("D", p())
        }),
        ("duplicate put_array_on_disk", AlreadyExists, |db| {
            db.put_array_on_disk("D", &d())
        }),
        (
            "put_array_on_disk over a plain array",
            AlreadyExists,
            |db| db.put_array_on_disk("A", &d()),
        ),
        // What disk-backed arrays do not do.
        ("unbounded dimension on disk", Unsupported, |db| {
            db.put_array_on_disk("T", &unbounded_array())
        }),
        ("merge of a plain array", Unsupported, |db| {
            db.merge_on_disk("A", 2).map(drop)
        }),
        ("insert into a disk array", Unsupported, |db| {
            stmt(db, "insert into D[1, 1] values (1)")
        }),
        // Missing operands.
        ("merge of a missing array", NotFound, |db| {
            db.merge_on_disk("Missing", 2).map(drop)
        }),
        ("store of a failing query", NotFound, |db| {
            stmt(db, "store filter(scan(Missing), (v > 0)) into Z")
        }),
        ("create from a missing type", NotFound, |db| {
            stmt(db, "create Q as NoSuchType [2]")
        }),
        ("drop of a missing array", NotFound, |db| {
            stmt(db, "drop array Missing")
        }),
    ]
}

/// Runs every rejected op, following each with one op that commits (so a
/// journal a rejected op left behind would ride into that op's WAL group
/// and break the next replay). Returns the errors, in table order.
fn run_rejected(db: &mut Database, round: i64) -> Vec<Error> {
    rejected()
        .into_iter()
        .zip(0i64..)
        .map(|((what, class, attempt), i)| {
            let err = attempt(db).expect_err(what);
            assert_eq!(err.code(), class, "{what}: {err:?}");
            let (x, y, v) = (i % 8 + 1, i / 8 + 1, round * 100 + i);
            db.run(&format!("insert into A[{x}, {y}] values ({v})"))
                .unwrap();
            err
        })
        .collect()
}

/// Committed groups in the log under `dir`.
fn committed_groups(dir: &std::path::Path) -> usize {
    wal::scan(&dir.join("wal.log"))
        .unwrap()
        .iter()
        .filter(|(_, rec)| matches!(rec, WalRecord::Commit { .. }))
        .count()
}

/// One integer column of a singleton `system.*` array.
fn system_int(db: &mut Database, array: &str, column: &str) -> i64 {
    let row = db
        .query(&format!("project(scan(system.{array}), {column})"))
        .unwrap();
    match row.get_cell(&[1]).as_deref() {
        Some([Value::Scalar(scidb::Scalar::Int64(n))]) => *n,
        other => panic!("system.{array} row: {other:?}"),
    }
}

// ---------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------

/// Runs the script with the rejected ops in the middle (after the first
/// merge, when `A`, `P` and `D` all exist) and once more at the end.
fn run_script(db: &mut Database, ops: &[Op]) -> (Vec<String>, Vec<Error>, BTreeSet<&'static str>) {
    let mut names = BTreeSet::new();
    apply(db, &ops[..12], &mut names);
    let mut errors = run_rejected(db, 1);
    apply(db, &ops[12..], &mut names);
    errors.extend(run_rejected(db, 2));
    (canon_state(db, &names), errors, names)
}

fn engines_agree(seed: u64) {
    let ops = workload(seed);
    assert_eq!(ops.len(), 18);
    let n_rejected = rejected().len();

    let mut mem = Database::new();
    let (mem_state, mem_errors, names) = run_script(&mut mem, &ops);

    let dir = temp_dir(&format!("seed{seed}"));
    let mut durable = Database::open(&dir).unwrap();
    let (durable_state, durable_errors, _) = run_script(&mut durable, &ops);
    drop(durable);

    assert_eq!(mem_errors, durable_errors, "seed {seed}: rejected ops");
    assert_eq!(mem_state, durable_state, "seed {seed}: live state");
    // One group per committed op, none for a rejected one.
    let committed = ops.len() + 2 * n_rejected;
    assert_eq!(committed_groups(&dir), committed, "seed {seed}");

    let mut reopened = Database::open(&dir).unwrap();
    assert_eq!(
        system_int(&mut reopened, "storage", "replayed_ops"),
        committed as i64,
        "seed {seed}"
    );
    assert_eq!(
        canon_state(&mut reopened, &names),
        mem_state,
        "seed {seed}: reopened state"
    );
    // The replayed engine rejects the same ops the same way, and still
    // agrees with the in-memory one afterwards.
    assert_eq!(
        run_rejected(&mut reopened, 3),
        run_rejected(&mut mem, 3),
        "seed {seed}: rejected ops after reopen"
    );
    assert_eq!(
        canon_state(&mut reopened, &names),
        canon_state(&mut mem, &names),
        "seed {seed}: state after reopen"
    );
    drop(reopened);
    assert_eq!(committed_groups(&dir), committed + n_rejected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_durable_and_reopened_engines_agree_on_the_script() {
    for seed in 1..=3 {
        engines_agree(seed);
    }
}

// ---------------------------------------------------------------------
// Two writers, one name
// ---------------------------------------------------------------------

#[test]
fn two_threads_loading_one_name_in_memory_publish_it_once() {
    let mut db = Database::new();
    let array = gen_chunked_array("D", 7);
    let before = system_int(&mut db, "result_cache", "generation");
    let start = Barrier::new(2);
    let outcomes: Vec<Result<(), Error>> = std::thread::scope(|scope| {
        let loaders: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    db.clone().put_array_on_disk("D", &array)
                })
            })
            .collect();
        loaders.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        outcomes.iter().filter(|r| r.is_ok()).count(),
        1,
        "{outcomes:?}"
    );
    assert_eq!(
        outcomes
            .iter()
            .filter(|r| matches!(r, Err(Error::AlreadyExists(_))))
            .count(),
        1,
        "{outcomes:?}"
    );
    assert_eq!(
        system_int(&mut db, "result_cache", "generation"),
        before + 1,
        "published once"
    );
    assert_eq!(db.query("scan(D)").unwrap().cell_count(), 64);
}
