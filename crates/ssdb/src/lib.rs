//! # scidb-ssdb
//!
//! The science benchmark the paper promises in §2.15 (realized in the
//! SS-DB style) plus the §2.14 eBay clickstream workload:
//!
//! * [`gen`] — deterministic synthetic telescope imagery (PSF-rendered
//!   star fields, noise, clouds, multi-epoch motion).
//! * [`cooking`] — the §2.10 cooking process: calibration, denoising,
//!   multi-pass compositing under alternative rules (the §2.11 named-
//!   version motivation).
//! * [`detect`](mod@detect) — thresholding + connected components → observations with
//!   uncertain positions and fluxes (§2.13).
//! * [`group`] — cross-epoch observation grouping (trajectories).
//! * [`queries`] — the Q1–Q9 benchmark suite over raw / observation /
//!   group data, with relational arms for the E10 comparison.
//! * [`clickstream`] — the eBay time-series-with-nested-arrays model and
//!   its flattened relational counterpart (E9).

#![warn(missing_docs)]

pub mod clickstream;
pub mod cooking;
pub mod detect;
pub mod gen;
pub mod group;
pub mod queries;

pub use detect::{detect, DetectParams, Observation};
pub use gen::{generate_stack, ImageSpec, Stack};
pub use group::{group_observations, GroupParams, ObsGroup};
pub use queries::{Benchmark, QueryResult};
