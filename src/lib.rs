//! # SciDB-rs
//!
//! A from-scratch Rust reproduction of the system specified in
//! *"Requirements for Science Data Bases and SciDB"* (Stonebraker et al.,
//! CIDR 2009): a multidimensional array DBMS with enhanced/ragged arrays,
//! a structural + content operator algebra, Postgres-style extendibility,
//! no-overwrite storage with a history dimension, named versions,
//! provenance, uncertainty, in-situ data access, a shared-nothing grid
//! layer, an AQL front end with a parse-tree command representation, and
//! the relational baseline + science benchmark needed to reproduce the
//! paper's quantitative claims.
//!
//! This crate is the facade: it re-exports every subsystem crate under one
//! namespace. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ```
//! use scidb::query::Database;
//!
//! let mut db = Database::new();
//! db.run(
//!     "define Remote (s1 = float, s2 = float, s3 = float) (I = 1:16, J = 1:16);
//!      create My_remote as Remote [16, 16];
//!      insert into My_remote[7, 8] values (1.5, 2.5, 3.5);",
//! )
//! .unwrap();
//! let a = db.query("scan(My_remote)").unwrap();
//! assert_eq!(a.get_f64(0, &[7, 8]), Some(1.5));
//! ```

pub use scidb_core as core;
pub use scidb_grid as grid;
pub use scidb_insitu as insitu;
pub use scidb_obs as obs;
pub use scidb_provenance as provenance;
pub use scidb_query as query;
pub use scidb_relational as relational;
pub use scidb_server as server;
pub use scidb_ssdb as ssdb;
pub use scidb_storage as storage;

pub use scidb_core::{
    Array, ArraySchema, Error, ErrorCode, ExecContext, OpMetrics, QueryMetrics, Result, Scalar,
    ScalarType, SchemaBuilder, Uncertain, Value,
};
pub use scidb_query::{Database, Prepared, Session};
