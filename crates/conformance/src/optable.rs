//! The operator table the generator draws from.
//!
//! Every operator the harness can emit is declared here, together with the
//! chunk-parallel kernel entry point it exercises (if any). `cargo xtask
//! analyze` rule R6 cross-checks this table against the kernels under
//! `crates/core/src/ops` (every function that calls a chunk driver): a
//! kernel that is parallelised but never generated by the conformance
//! harness is a build failure, so new kernels cannot dodge differential
//! coverage.

/// One generator-visible operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpEntry {
    /// Operator name (matches [`crate::case::OpSpec::name`]).
    pub name: &'static str,
    /// The `*_with` parallel-kernel entry point this op drives, if the op
    /// is chunk-parallel; `None` for serial-only ops (joins, concat,
    /// reshape).
    pub kernel: Option<&'static str>,
    /// Relative weight when the generator picks the next pipeline step.
    pub weight: u32,
}

/// Every operator the conformance generator can emit.
///
/// Checked by `cargo xtask analyze` rule R6: each kernel (a caller of
/// `map_chunks` or `fold_chunks`) must appear as a `kernel` here.
pub const OP_TABLE: &[OpEntry] = &[
    OpEntry {
        name: "subsample",
        kernel: Some("subsample_with"),
        weight: 4,
    },
    OpEntry {
        name: "filter",
        kernel: Some("filter_with"),
        weight: 4,
    },
    OpEntry {
        name: "apply",
        kernel: Some("apply_with"),
        weight: 3,
    },
    OpEntry {
        name: "project",
        kernel: Some("project_with"),
        weight: 3,
    },
    OpEntry {
        name: "aggregate",
        kernel: Some("aggregate_with"),
        weight: 3,
    },
    OpEntry {
        name: "regrid",
        kernel: Some("regrid_with"),
        weight: 2,
    },
    OpEntry {
        name: "sjoin",
        kernel: None,
        weight: 2,
    },
    OpEntry {
        name: "cjoin",
        kernel: None,
        weight: 1,
    },
    OpEntry {
        name: "concat",
        kernel: None,
        weight: 2,
    },
    OpEntry {
        name: "reshape",
        kernel: None,
        weight: 2,
    },
];

/// Total weight of the table (denominator for weighted choice).
pub fn total_weight() -> u32 {
    OP_TABLE.iter().map(|e| e.weight).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_table_names_unique_and_weighted() {
        let mut names: Vec<&str> = OP_TABLE.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OP_TABLE.len());
        assert!(OP_TABLE.iter().all(|e| e.weight > 0));
        assert!(total_weight() > 0);
    }
}
