//! # scidb-server
//!
//! The multi-client serving layer over a cloneable, concurrency-safe
//! [`Database`](scidb_query::Database) handle:
//!
//! * [`wire`] — the length-prefixed frame format and primitive codec.
//! * [`proto`] — request/response messages and the bit-exact array codec.
//! * [`auth`] — the [`auth::AuthHook`] handshake extension point.
//! * [`admission`] — bounded admission control for query execution.
//! * [`server`] — the thread-per-connection front end: one
//!   [`Session`](scidb_query::Session) per connection, feeding the
//!   engine's parallel `ExecContext`.
//! * [`client`] — a blocking client speaking the same protocol.
//!
//! Every error crossing the wire carries its stable
//! [`ErrorCode`](scidb_core::ErrorCode) (`code.as_u16()`), so clients
//! dispatch on the failure class without parsing message strings, and the
//! server publishes `scidb.server.*` counters plus the
//! `scidb.server.request_us` histogram through `scidb-obs`.

#![warn(missing_docs)]

pub mod admission;
pub mod auth;
pub mod client;
pub mod proto;
pub mod server;
pub mod wire;

pub use admission::{Admission, AdmissionConfig, Permit};
pub use auth::{AllowAll, AuthHook, TokenAuth};
pub use client::{Client, Health, RemoteResult};
pub use proto::{
    QueryStats, Request, Response, StatsFormat, PROTOCOL_VERSION, QUERY_STATS_VERSION,
};
pub use server::{Server, ServerConfig};
