//! # scidb-insitu
//!
//! In-situ data access (paper §2.9): "SciDB must be able to operate on
//! 'in situ' data, without requiring a load process."
//!
//! * [`format`](mod@format) — SDDF, the self-describing SciDB-rs data format
//!   (chunk-granular reads via an embedded chunk index).
//! * [`netcdf_like`] — a NetCDF-classic-like external format and adaptor
//!   (dimension/variable/attribute header + dense row-major data;
//!   slab-granular reads).
//! * [`hdf5like`] — an HDF5-like hierarchical format and adaptor
//!   (superblock, root group of dataset paths, per-dataset chunked storage).
//! * [`adaptor`] — the [`adaptor::InSituSource`] trait and magic-number
//!   dispatch.
//!
//! See DESIGN.md §4 for why the external formats are built from scratch
//! rather than binding libhdf5/libnetcdf.

#![warn(missing_docs)]

pub mod adaptor;
pub mod format;
pub mod hdf5like;
pub mod netcdf_like;

pub use adaptor::{open, InSituSource};
pub use format::{write_sddf, SddfReader};
pub use hdf5like::{write_h5, DatasetSpec, H5LiteReader};
pub use netcdf_like::{write_netcdf, NetcdfReader};
