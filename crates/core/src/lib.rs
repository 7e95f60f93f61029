//! # scidb-core
//!
//! The array data model and operator suite of SciDB-rs — a from-scratch Rust
//! reproduction of the system specified in *"Requirements for Science Data
//! Bases and SciDB"* (CIDR 2009).
//!
//! The crate provides:
//!
//! * the multi-dimensional, nested **array model** (§2.1): [`schema`],
//!   [`array`], [`chunk`], with columnar chunked storage;
//! * the **array image** ([`codec`]): the one byte layout of a schema, a
//!   value and an array, behind the wire protocol, the WAL and SDDF (§2.9);
//! * **enhanced arrays** — pseudo-coordinate systems via UDFs ([`enhance`]),
//!   and ragged boundaries via **shape functions** ([`shape`]);
//! * the **operator suite** (§2.2): structural operators (Subsample,
//!   Reshape, Sjoin, …) and content-dependent operators (Filter, Aggregate,
//!   Cjoin, Apply, Project) in [`ops`];
//! * Postgres-style **extendibility** (§2.3): user-defined functions,
//!   aggregates, and array operations in [`udf`] and [`registry`];
//! * **no-overwrite** updatable arrays with a history dimension (§2.5) in
//!   [`history`], and **named versions** (§2.11) in [`versions`];
//! * the **chunk-parallel execution context** ([`exec`]): a thread budget
//!   plus per-query metrics threaded through the executor into the
//!   chunk-separable operator kernels;
//! * **uncertainty** (§2.13) in [`uncertain`];
//! * a small **expression language** over cell attributes in [`expr`], used
//!   by Filter/Apply and by the query crate;
//! * the **seeded generator** ([`rng`]) every data and workload generator
//!   in the workspace draws from, so a seed names one stream everywhere.

#![warn(missing_docs)]

pub mod array;
pub mod bitvec;
pub mod chunk;
pub mod codec;
pub mod enhance;
pub mod error;
pub mod exec;
pub mod expr;
pub mod geometry;
pub mod history;
pub mod ops;
pub mod registry;
pub mod rng;
pub mod schema;
pub mod shape;
pub mod udf;
pub mod uncertain;
pub mod value;
pub mod versions;

pub use array::Array;
pub use error::{Error, ErrorCode, Result};
pub use exec::{ExecContext, OpMetrics, QueryMetrics};
pub use geometry::{Coords, HyperRect};
pub use schema::{ArraySchema, AttributeDef, DimensionDef, SchemaBuilder};
pub use uncertain::Uncertain;
pub use value::{Record, Scalar, ScalarType, Value};
