//! # scidb-query
//!
//! The query layer of SciDB-rs (paper §2.4):
//!
//! * [`token`] / [`parser`] — the AQL text front end.
//! * [`ast`] — the parse-tree command representation all bindings lower
//!   to; `Display` renders canonical AQL.
//! * [`plan`] — name resolution, the §2.2.1 dimension-predicate legality
//!   rule, and structural-first rewrites (Subsample pushdown/merging).
//! * [`exec`] — the [`exec::Database`] catalog and executor.
//! * [`binding`] — the fluent Rust binding ([`binding::Q`]), demonstrating
//!   the paper's language-embedding approach (vs. ODBC/JDBC
//!   data-sublanguages).

#![warn(missing_docs)]

pub mod ast;
pub mod binding;
pub mod exec;
pub mod parser;
pub mod plan;
pub mod token;

pub use ast::{AExpr, AggArg, DimSpec, Literal, Stmt};
pub use binding::{scan, Q};
pub use exec::{
    is_system_array, ArrayRef, Database, Prepared, RegistryRef, RegistryRefMut, Session,
    SessionStats, SharedDatabase, SlowLogRef, SlowLogRefMut, StatementProfile, StmtResult,
    StoredArray, SYSTEM_PREFIX,
};
pub use parser::{parse, parse_one};
