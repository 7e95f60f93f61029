//! `cargo xtask` — workspace automation for SciDB-rs.
//!
//! * `analyze` — a dependency-free static analyzer (no `syn`, no `serde`:
//!   the build environment is hermetic) enforcing the eight workspace rules
//!   described in DESIGN.md §"Static analysis" and §13:
//!   * R1 — panic-free library code,
//!   * R2 — the parallel-kernel contract,
//!   * R3 — concurrency containment (threads and raw `Mutex`/`RwLock`/
//!     `Condvar` only in the one lock module, per-site annotations
//!     elsewhere),
//!   * R4 — Result-typed public API,
//!   * R5 — observable timing (no raw clock reads in query/storage/grid),
//!   * R6 — conformance coverage (every parallel kernel in the
//!     differential harness's op table),
//!   * R7 — lock-order soundness (every acquisition edge strictly ascends
//!     in `lock_ranks!` rank),
//!   * R8 — no blocking while a `CATALOG`-or-higher write guard is live.
//!
//!   Any violation fails the run; the only exceptions are justified
//!   per-site `// analyze: allow(Rn, why)` annotations.
//!
//! * `bench-gate` — the benchmark regression gate (see [`bench_gate`]):
//!   compares the smoke-benchmark metrics against the committed
//!   `BENCH_baseline.json`, failing on >20 % wall-clock regressions and on
//!   *any* drift in the deterministic failover counters.
//!
//! * `conformance` — drives the differential conformance harness (see
//!   [`conformance`]): random pipelines through four independent engines,
//!   byte-identical canonical answers required, plus replay of the pinned
//!   corpus in `tests/conformance-corpus/`.

pub mod bench_gate;
pub mod conformance;
pub mod locks;
pub mod report;
pub mod rules;
pub mod scan;

use report::{render_json, render_text};
use rules::Workspace;
use scan::SourceFile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Default location of the JSON report (under `target/`, not committed).
pub const REPORT_PATH: &str = "target/xtask-analyze.json";

/// CLI options for [`analyze`].
#[derive(Debug, Default)]
pub struct Options {
    /// `bench-gate` only: rewrite `BENCH_baseline.json` from the current run.
    pub update_baseline: bool,
    /// Where to write the JSON report (workspace-relative); `None` uses
    /// [`REPORT_PATH`].
    pub json_out: Option<PathBuf>,
    /// Suppress per-diagnostic text output (summary only).
    pub quiet: bool,
    /// `conformance` only: inclusive seed range, e.g. `1..50`.
    pub seeds: Option<String>,
    /// `conformance` only: stop starting new seeds after this many seconds.
    pub budget_secs: Option<u64>,
}

/// Exit status of an analyze run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// No violations.
    Clean,
    /// At least one violation.
    Failed,
}

fn is_rs(p: &Path) -> bool {
    p.extension().is_some_and(|e| e == "rs")
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            walk(&path, out)?;
        } else if is_rs(&path) {
            out.push(path);
        }
    }
    Ok(())
}

/// Parses every `crates/<name>/src/**/*.rs` file of one crate, with paths
/// made workspace-relative (empty if the crate has no `src/`).
fn crate_sources(root: &Path, name: &std::ffi::OsStr) -> std::io::Result<Vec<SourceFile>> {
    let src = root.join("crates").join(name).join("src");
    let mut paths = Vec::new();
    if src.is_dir() {
        walk(&src, &mut paths)?;
    }
    paths
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(root).unwrap_or(&p).to_path_buf();
            Ok(SourceFile::new(rel, std::fs::read_to_string(&p)?))
        })
        .collect()
}

/// Non-blank, non-comment, non-test lines under `crates/<name>/src`, per
/// crate: the workspace's files plus the analyzer's own, which the rules
/// skip. The difference of two of these tables is what a simplicity change
/// reports as lines removed.
pub fn loc_table(root: &Path, ws: &Workspace) -> std::io::Result<BTreeMap<String, usize>> {
    let own = crate_sources(root, "xtask".as_ref())?;
    let mut table = BTreeMap::new();
    for file in ws.files.iter().chain(&own) {
        // Paths are `crates/<name>/src/…`.
        if let Some(name) = file.path.iter().nth(1) {
            *table
                .entry(name.to_string_lossy().into_owned())
                .or_default() += file.code_lines();
        }
    }
    Ok(table)
}

/// Loads every `crates/*/src/**/*.rs` file (the analyzer's own crate
/// excluded — it is tooling, not library code) plus the serial≡parallel
/// test file, with paths made workspace-relative.
pub fn load_workspace(root: &Path) -> std::io::Result<Workspace> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let name = entry?.file_name();
        if name != "xtask" {
            files.extend(crate_sources(root, &name)?);
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    let parallel_test = std::fs::read_to_string(root.join(rules::PARALLEL_TEST_FILE)).ok();
    Ok(Workspace {
        files,
        parallel_test,
    })
}

/// Finds the workspace root by walking up from `start` until a directory
/// containing both `Cargo.toml` and `crates/` is found.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir.to_path_buf());
        }
        cur = dir.parent();
    }
    None
}

/// Runs the full analysis, printing diagnostics to `out` and writing the
/// JSON report. Returns [`Outcome::Failed`] iff there is any violation.
pub fn analyze(
    root: &Path,
    opts: &Options,
    out: &mut dyn std::io::Write,
) -> std::io::Result<Outcome> {
    let ws = load_workspace(root)?;
    let diags = rules::check_all(&ws);

    if !opts.quiet {
        for d in &diags {
            write!(out, "{}", render_text(d))?;
        }
    }
    if diags.is_empty() {
        writeln!(out, "ok: no violations")?;
    } else {
        writeln!(out, "error: {} violation(s)", diags.len())?;
    }

    let json_path = root.join(opts.json_out.as_deref().unwrap_or(Path::new(REPORT_PATH)));
    if let Some(parent) = json_path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&json_path, render_json(&diags, &loc_table(root, &ws)?))?;

    Ok(if diags.is_empty() {
        Outcome::Clean
    } else {
        Outcome::Failed
    })
}
