//! `cargo xtask conformance` — drives the differential conformance
//! harness (`scidb-conformance`'s `confrun` binary) over a seed range,
//! always replaying the pinned corpus in `tests/conformance-corpus/`
//! first.
//!
//! xtask itself is dependency-free, so this shells out to `cargo run`
//! rather than linking the harness; the child process's exit code is the
//! verdict (0 = every case byte-identical across all six engines).

use crate::{Options, Outcome};
use std::path::Path;
use std::process::Command;

/// Workspace-relative location of the pinned divergence corpus.
pub const CORPUS_DIR: &str = "tests/conformance-corpus";

/// Runs `confrun` over `opts.seeds` (default `1..50`) plus the corpus.
pub fn conformance(
    root: &Path,
    opts: &Options,
    out: &mut dyn std::io::Write,
) -> std::io::Result<Outcome> {
    let seeds = opts.seeds.as_deref().unwrap_or("1..50");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = Command::new(cargo);
    cmd.current_dir(root)
        .args(["run", "--release", "--locked", "-p", "scidb-conformance"])
        .args(["--bin", "confrun", "--", "--seeds", seeds])
        .args(["--corpus", CORPUS_DIR]);
    if let Some(budget) = opts.budget_secs {
        cmd.args(["--budget-secs", &budget.to_string()]);
    }
    writeln!(out, "conformance: seeds {seeds}, corpus {CORPUS_DIR}")?;
    let status = cmd.status()?;
    Ok(if status.success() {
        Outcome::Clean
    } else {
        Outcome::Failed
    })
}
