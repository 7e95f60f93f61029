//! The SciDB-specific workspace invariants (R1–R10).
//!
//! * **R1** — no `unwrap()`/`expect()`/`panic!`/`todo!`/`unimplemented!` in
//!   non-test code of the library crates (`core`, `storage`, `query`,
//!   `grid`, `provenance`). The paper's no-overwrite and provenance layers
//!   (§2.5–§2.9) hinge on library code that must not panic mid-commit.
//!   Escape hatch: `// analyze: allow(R1, justification)`.
//! * **R2** — every chunk-parallel kernel must be declared in
//!   `core::ops::PARALLEL_KERNELS` with a named merge function and appear
//!   in the serial≡parallel equivalence tests; no parallel fan-out outside
//!   `core::ops` (escape hatch: `// analyze: allow(R2, justification)`).
//! * **R3** — no `thread::spawn` or raw `Mutex` outside the one lock module
//!   (`crates/obs/src/sync.rs`); concurrency goes through `ExecContext` and
//!   the ranked locks. Every exception is a per-site annotation:
//!   `// analyze: allow(R3, justification)`.
//! * **R4** — public API of `core`/`query` returns `Result` with the crate
//!   error type; `Option`-swallowed errors (`.ok()` inside a
//!   `-> Option<…>` function) are violations. Escape hatch:
//!   `// analyze: allow(R4, justification)`.
//! * **R5** — no raw `Instant::now()` or `SystemTime::now()` in non-test
//!   code of `query`,
//!   `storage`, or `grid`; timing flows through the `scidb-obs` substrate
//!   (`Stopwatch`, spans) or `ExecContext::timed` so every measurement is
//!   attributable in traces. `crates/obs` and `core::exec` define the
//!   sanctioned clocks. Escape hatch:
//!   `// analyze: allow(R5, justification)`.
//! * **R6** — every kernel in `core::ops::PARALLEL_KERNELS` must appear in
//!   the conformance generator's op table
//!   (`crates/conformance/src/optable.rs`), so the differential harness
//!   exercises each chunk-parallel kernel against all four backends.
//!   Escape hatch: `// analyze: allow(R6, justification)`.
//! * **R7** — lock-order soundness (see [`crate::locks`]): every wrapper
//!   acquisition edge — direct or through the call graph — must strictly
//!   ascend in `lock_ranks!` rank, and raw `RwLock`/`Condvar` stay inside
//!   the wrapper modules. Escape hatch: `// analyze: allow(R7, why)`.
//! * **R8** — no blocking while locked (see [`crate::locks`]): no file
//!   I/O, channel receive, timed wait, sleep, accept, or statement
//!   execution inside the live range of a write-exclusive guard ranked
//!   `CATALOG` or higher. Escape hatch: `// analyze: allow(R8, why)`.
//! * **R9** — observable request dispatch: every variant of
//!   `proto::Request` (the wire protocol) must be handled by the server
//!   dispatch inside a span carrying a `request_type` attribute, so each
//!   request kind is attributable in server traces and in the
//!   `system.slow_queries` / Stats surfaces built on them. Escape hatch:
//!   `// analyze: allow(R9, justification)` on the variant.
//! * **R10** — WAL replay coverage: every variant of the durable layer's
//!   `wal::Record` enum must be exercised by the kill-matrix harness
//!   (`tests/recovery.rs`), so a new log record type cannot ship without a
//!   crash-replay test proving it recovers. Escape hatch:
//!   `// analyze: allow(R10, justification)` on the variant.
//!
//! One annotation spelling serves every rule: `// analyze: allow(Rn, why)`
//! on the flagged line or the line above it; the justification is required.

use crate::scan::SourceFile;
use std::fmt;
use std::path::Path;

/// The rule a diagnostic belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Panic-free library code.
    R1,
    /// Parallel-kernel contract.
    R2,
    /// Concurrency containment.
    R3,
    /// Result-typed public API.
    R4,
    /// Observable timing: no raw `Instant::now()`/`SystemTime::now()`
    /// outside the substrate.
    R5,
    /// Conformance coverage: every parallel kernel is in the differential
    /// harness's op table.
    R6,
    /// Lock-order soundness: acquisition edges strictly ascend in rank.
    R7,
    /// No blocking while a `CATALOG`-or-higher write guard is live.
    R8,
    /// Observable request dispatch: every wire `Request` variant handled
    /// inside a server span carrying a `request_type` attribute.
    R9,
    /// WAL replay coverage: every `wal::Record` variant exercised by the
    /// kill-matrix recovery harness.
    R10,
}

impl Rule {
    /// Every rule, in code order.
    pub const ALL: [Rule; 10] = [
        Rule::R1,
        Rule::R2,
        Rule::R3,
        Rule::R4,
        Rule::R5,
        Rule::R6,
        Rule::R7,
        Rule::R8,
        Rule::R9,
        Rule::R10,
    ];

    /// The short code used in diagnostics and the baseline file.
    pub fn code(self) -> &'static str {
        match self {
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::R6 => "R6",
            Rule::R7 => "R7",
            Rule::R8 => "R8",
            Rule::R9 => "R9",
            Rule::R10 => "R10",
        }
    }

    /// One-line description.
    pub fn title(self) -> &'static str {
        match self {
            Rule::R1 => "panic-free library code",
            Rule::R2 => "parallel-kernel contract",
            Rule::R3 => "concurrency containment",
            Rule::R4 => "Result-typed public API",
            Rule::R5 => "observable timing",
            Rule::R6 => "conformance op-table coverage",
            Rule::R7 => "lock-order soundness",
            Rule::R8 => "no blocking while locked",
            Rule::R9 => "observable request dispatch",
            Rule::R10 => "WAL replay coverage",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One rule violation, anchored to a source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What went wrong.
    pub message: String,
    /// The offending source line.
    pub snippet: String,
    /// How to fix it.
    pub help: String,
}

/// A parsed workspace: the library sources plus the serial≡parallel
/// equivalence test file R2 cross-checks against.
#[derive(Debug)]
pub struct Workspace {
    /// All `crates/*/src/**/*.rs` files (the analyzer's own crate excluded).
    pub files: Vec<SourceFile>,
    /// Content of [`PARALLEL_TEST_FILE`], if present.
    pub parallel_test: Option<String>,
    /// Content of `tests/recovery.rs` (the kill-matrix harness R10
    /// cross-checks against), if present.
    pub recovery_test: Option<String>,
}

/// Crates whose non-test code must be panic-free (R1).
pub const R1_CRATES: &[&str] = &["core", "storage", "query", "grid", "provenance"];

/// Crates whose public API must be Result-typed (R4).
pub const R4_CRATES: &[&str] = &["core", "query"];

/// Crates whose non-test code must time through the obs substrate (R5).
pub const R5_CRATES: &[&str] = &["query", "storage", "grid"];

/// The file defining the parallel map primitives (R2 skips its own
/// definitions and tests).
pub const EXEC_FILE: &str = "crates/core/src/exec.rs";

/// The file declaring the parallel-kernel manifest.
pub const MANIFEST_FILE: &str = "crates/core/src/ops/mod.rs";

/// The differential harness's operator table (R6 coverage target).
pub const OPTABLE_FILE: &str = "crates/conformance/src/optable.rs";

/// The wire-protocol definition (R9 parses its `Request` enum).
pub const PROTO_FILE: &str = "crates/server/src/proto.rs";

/// The server dispatch file (R9's coverage target).
pub const SERVER_FILE: &str = "crates/server/src/server.rs";

/// The write-ahead-log definition (R10 parses its `Record` enum).
pub const WAL_FILE: &str = "crates/storage/src/wal.rs";

/// The serial≡parallel equivalence properties (R2's coverage target).
pub const PARALLEL_TEST_FILE: &str = "proptests/tests/proptest_parallel.rs";

/// The kill-matrix recovery harness (R10's coverage target).
pub const RECOVERY_TEST_FILE: &str = "tests/recovery.rs";

const PANIC_MARKERS: &[(&str, bool, &str)] = &[
    (".unwrap()", false, "`.unwrap()`"),
    // `.expect("` rather than `.expect(`: Option/Result::expect takes a
    // message literal, while e.g. a parser's own `self.expect(&Token…)`
    // does not. Quotes survive masking (bodies are blanked).
    (".expect(\"", false, "`.expect()`"),
    ("panic!", true, "`panic!`"),
    ("todo!", true, "`todo!`"),
    ("unimplemented!", true, "`unimplemented!`"),
];

/// Error types accepted as "the crate error type" in public signatures.
const CRATE_ERRORS: &[&str] = &[
    "Error",
    "crate::Error",
    "crate::error::Error",
    "scidb_core::Error",
    "scidb_core::error::Error",
];

/// The crate a workspace-relative path belongs to (`crates/<name>/…`).
pub fn crate_of(path: &Path) -> Option<&str> {
    let mut parts = path.iter();
    if parts.next()?.to_str()? != "crates" {
        return None;
    }
    parts.next()?.to_str()
}

/// Runs every rule over the workspace.
pub fn check_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    diags.extend(check_r1(ws));
    diags.extend(check_r2(ws));
    diags.extend(check_r3(ws));
    diags.extend(check_r4(ws));
    diags.extend(check_r5(ws));
    diags.extend(check_r6(ws));
    diags.extend(crate::locks::check_r7(ws));
    diags.extend(crate::locks::check_r8(ws));
    diags.extend(check_r9(ws));
    diags.extend(check_r10(ws));
    diags.sort_by(|a, b| (a.rule, &a.path, a.line, a.col).cmp(&(b.rule, &b.path, b.line, b.col)));
    diags
}

/// Emits a diagnostic for a marker hit unless a justified allow comment
/// covers it; an allow *without* justification is itself a violation.
pub(crate) fn marker_diag(
    file: &SourceFile,
    rule: Rule,
    off: usize,
    message: String,
    help: &str,
) -> Option<Diagnostic> {
    let (line, col) = file.line_col(off);
    match file.allow_for(line, rule.code()) {
        Some(a) if !a.justification.is_empty() => None,
        Some(_) => Some(Diagnostic {
            rule,
            path: file.path.display().to_string(),
            line,
            col,
            message: format!("`analyze: allow({rule})` without a justification"),
            snippet: file.line_text(line).to_string(),
            help: format!("write `// analyze: allow({rule}, <why this is safe>)`"),
        }),
        None => Some(Diagnostic {
            rule,
            path: file.path.display().to_string(),
            line,
            col,
            message,
            snippet: file.line_text(line).to_string(),
            help: help.to_string(),
        }),
    }
}

/// R1: panic markers in non-test library code.
pub fn check_r1(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        if !crate_of(&file.path).is_some_and(|c| R1_CRATES.contains(&c)) {
            continue;
        }
        for &(pat, word_start, label) in PANIC_MARKERS {
            for off in file.find_marker(pat, word_start) {
                if file.in_test(off) {
                    continue;
                }
                diags.extend(marker_diag(
                    file,
                    Rule::R1,
                    off,
                    format!("forbidden panic marker {label} in non-test library code"),
                    "return a typed `Error` with context instead; if the panic is \
                     provably unreachable, annotate `// analyze: allow(R1, why)`",
                ));
            }
        }
    }
    diags
}

/// One entry parsed out of `PARALLEL_KERNELS`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Operator name.
    pub name: String,
    /// Entry-point function.
    pub entry: String,
    /// Merge function.
    pub merge: String,
    /// Columnar batch fast path.
    pub batch: String,
    /// 1-based line of the entry in the manifest file.
    pub line: usize,
}

/// Parses the `PARALLEL_KERNELS` manifest from the raw text of
/// `core/src/ops/mod.rs`.
pub fn parse_manifest(file: &SourceFile) -> Vec<ManifestEntry> {
    let Some(start) = file.raw.find("PARALLEL_KERNELS") else {
        return Vec::new();
    };
    let Some(open) = file.raw[start..].find('[').map(|i| start + i) else {
        return Vec::new();
    };
    let end = file.raw[open..]
        .find("];")
        .map_or(file.raw.len(), |i| open + i);
    let body = &file.raw[open..end];
    let mut entries = Vec::new();
    let mut from = 0;
    while let Some(rel) = body[from..].find("KernelSpec") {
        let at = from + rel;
        let Some(close) = body[at..].find('}') else {
            break;
        };
        let block = &body[at..at + close];
        from = at + close;
        let field = |name: &str| -> Option<String> {
            let idx = block.find(&format!("{name}:"))?;
            let rest = &block[idx..];
            let q1 = rest.find('"')?;
            let q2 = rest[q1 + 1..].find('"')?;
            Some(rest[q1 + 1..q1 + 1 + q2].to_string())
        };
        if let (Some(name), Some(entry), Some(merge), Some(batch)) = (
            field("name"),
            field("entry"),
            field("merge"),
            field("batch"),
        ) {
            let (line, _) = file.line_col(open + at);
            entries.push(ManifestEntry {
                name,
                entry,
                merge,
                batch,
                line,
            });
        }
    }
    entries
}

/// R2: the parallel-kernel contract.
pub fn check_r2(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let manifest_file = ws
        .files
        .iter()
        .find(|f| f.path.as_path() == Path::new(MANIFEST_FILE));
    let entries = manifest_file.map(parse_manifest).unwrap_or_default();
    if entries.is_empty() {
        diags.push(Diagnostic {
            rule: Rule::R2,
            path: MANIFEST_FILE.to_string(),
            line: 1,
            col: 1,
            message: "missing or empty `PARALLEL_KERNELS` manifest".to_string(),
            snippet: String::new(),
            help: "declare every chunk-parallel kernel as a `KernelSpec { name, entry, merge, batch }`"
                .to_string(),
        });
        return diags;
    }

    // (a) Every `par_map`/`try_par_map` call site must belong to a declared
    // kernel entry (inside core::ops) or be explicitly annotated (elsewhere).
    for file in &ws.files {
        if file.path.as_path() == Path::new(EXEC_FILE) {
            continue; // the primitives' own definitions and tests
        }
        let in_ops = file.path.starts_with("crates/core/src/ops");
        let mut sites = file.find_marker("par_map(", false);
        // The raw scoped-thread primitive counts as fan-out too.
        sites.extend(file.find_marker("par_map_threads(", true));
        sites.sort_unstable();
        for off in sites {
            if file.in_test(off) {
                continue;
            }
            let enclosing = file.enclosing_fn(off);
            let registered =
                in_ops && enclosing.is_some_and(|f| entries.iter().any(|e| e.entry == f.name));
            if registered {
                continue;
            }
            let message = match (in_ops, enclosing) {
                (true, Some(f)) => format!(
                    "parallel fan-out in `{}` which is not a registered kernel entry",
                    f.name
                ),
                (true, None) => "parallel fan-out outside any function".to_string(),
                (false, _) => "parallel fan-out outside core::ops".to_string(),
            };
            diags.extend(marker_diag(
                file,
                Rule::R2,
                off,
                message,
                "register the kernel in `core::ops::PARALLEL_KERNELS` with a merge \
                 function and a serial≡parallel test, or annotate \
                 `// analyze: allow(R2, why)` for non-operator uses",
            ));
        }
    }

    // (b) Every manifest entry must resolve: entry function exists, its file
    // references the merge function, and the equivalence tests exercise it.
    for e in &entries {
        let entry_file = ws.files.iter().find(|f| {
            f.path.starts_with("crates/core/src/ops") && f.fns().iter().any(|x| x.name == e.entry)
        });
        match entry_file {
            None => diags.push(manifest_diag(
                e,
                format!(
                    "kernel `{}` declares missing entry function `{}`",
                    e.name, e.entry
                ),
            )),
            Some(f) => {
                if f.find_marker(&e.merge, true).is_empty() {
                    diags.push(manifest_diag(
                        e,
                        format!(
                            "kernel `{}` entry file `{}` never references merge function `{}`",
                            e.name,
                            f.path.display(),
                            e.merge
                        ),
                    ));
                }
            }
        }
        match &ws.parallel_test {
            None => diags.push(manifest_diag(
                e,
                format!(
                    "{PARALLEL_TEST_FILE} not found — serial≡parallel equivalence tests are \
                     required"
                ),
            )),
            Some(test) if !test.contains(&e.entry) => diags.push(manifest_diag(
                e,
                format!(
                    "kernel `{}` ({}) is not exercised by {PARALLEL_TEST_FILE}",
                    e.name, e.entry
                ),
            )),
            Some(_) => {}
        }
    }
    diags
}

fn manifest_diag(e: &ManifestEntry, message: String) -> Diagnostic {
    Diagnostic {
        rule: Rule::R2,
        path: MANIFEST_FILE.to_string(),
        line: e.line,
        col: 1,
        message,
        snippet: format!("KernelSpec {{ name: \"{}\", … }}", e.name),
        help: "keep `PARALLEL_KERNELS` in sync with the kernels and their tests".to_string(),
    }
}

/// R3: threads and raw mutexes live in the one lock module only;
/// everything else is a per-site annotation.
pub fn check_r3(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        if crate::locks::is_wrapper_file(&file.path) {
            continue;
        }
        let mut hits: Vec<(usize, &str)> = Vec::new();
        for off in file.find_marker("thread::spawn", false) {
            hits.push((off, "`thread::spawn`"));
        }
        for off in file.find_marker("Mutex", true) {
            // Word-boundary on both sides, so `MutexGuard` is not re-counted.
            let end = off + "Mutex".len();
            let next = file.mask.as_bytes().get(end);
            if next.is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_') {
                continue;
            }
            hits.push((off, "raw `Mutex`"));
        }
        for (off, label) in hits {
            if file.in_test(off) {
                continue;
            }
            diags.extend(marker_diag(
                file,
                Rule::R3,
                off,
                format!("{label} outside the lock module"),
                "route concurrency through `ExecContext` (`par_map`/`try_par_map`) and \
                 the ranked locks in `scidb_obs::sync`; if this component must own a \
                 thread or raw lock, annotate `// analyze: allow(R3, why)`",
            ));
        }
    }
    diags
}

/// R4: Result-typed public API in `core` and `query`.
pub fn check_r4(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        if !crate_of(&file.path).is_some_and(|c| R4_CRATES.contains(&c)) {
            continue;
        }
        for f in file.fns() {
            if !f.is_pub || file.in_test(f.offset) {
                continue;
            }
            let ret = f.ret.trim();
            if let Some(err_ty) = foreign_error_type(ret) {
                diags.extend(marker_diag(
                    file,
                    Rule::R4,
                    f.offset,
                    format!(
                        "public `{}` returns `Result` with non-crate error type `{err_ty}`",
                        f.name
                    ),
                    "public APIs of core/query must use the crate `Error` type so callers \
                     get uniform, typed failures",
                ));
            }
            if ret.starts_with("Option<") {
                if let Some((lo, hi)) = f.body {
                    if let Some(rel) = file.mask[lo..hi].find(".ok()") {
                        diags.extend(marker_diag(
                            file,
                            Rule::R4,
                            lo + rel,
                            format!(
                                "public `{}` swallows a `Result` into `Option` via `.ok()`",
                                f.name
                            ),
                            "propagate the error (`-> Result<…>`), or annotate \
                             `// analyze: allow(R4, why None is not an error here)`",
                        ));
                    }
                }
            }
        }
    }
    diags
}

/// R5: timing in `query`/`storage`/`grid` goes through the obs substrate.
pub fn check_r5(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        if !crate_of(&file.path).is_some_and(|c| R5_CRATES.contains(&c)) {
            continue;
        }
        for (marker, what) in [
            ("Instant::now(", "Instant::now()"),
            ("SystemTime::now(", "SystemTime::now()"),
        ] {
            for off in file.find_marker(marker, true) {
                if file.in_test(off) {
                    continue;
                }
                diags.extend(marker_diag(
                    file,
                    Rule::R5,
                    off,
                    format!("raw `{what}` outside the telemetry substrate"),
                    "time through `scidb_obs::Stopwatch`, a span, or `ExecContext::timed` \
                     so the measurement is attributable; if a raw clock is genuinely \
                     needed, annotate `// analyze: allow(R5, why)`",
                ));
            }
        }
    }
    diags
}

/// Parses the kernel entry points referenced by the conformance op table
/// (`kernel: Some("…")` fields inside `OP_TABLE`).
pub fn parse_optable_kernels(file: &SourceFile) -> Vec<String> {
    let Some(start) = file.raw.find("OP_TABLE") else {
        return Vec::new();
    };
    let end = file.raw[start..]
        .find("];")
        .map_or(file.raw.len(), |i| start + i);
    let body = &file.raw[start..end];
    let mut kernels = Vec::new();
    let mut from = 0;
    while let Some(rel) = body[from..].find("Some(\"") {
        let at = from + rel + "Some(\"".len();
        let Some(q) = body[at..].find('"') else {
            break;
        };
        kernels.push(body[at..at + q].to_string());
        from = at + q;
    }
    kernels
}

/// R6: every `PARALLEL_KERNELS` entry appears in the conformance op table,
/// so the differential harness exercises each chunk-parallel kernel — and
/// every declared columnar `batch` fast path resolves to a real function
/// under `core::ops` that the kernel's entry file actually dispatches to,
/// so the same differential net covers the vectorized paths too.
pub fn check_r6(ws: &Workspace) -> Vec<Diagnostic> {
    let manifest_file = ws
        .files
        .iter()
        .find(|f| f.path.as_path() == Path::new(MANIFEST_FILE));
    let entries = manifest_file.map(parse_manifest).unwrap_or_default();
    if entries.is_empty() {
        // R2 already reports a missing/empty manifest.
        return Vec::new();
    }

    let optable = ws
        .files
        .iter()
        .find(|f| f.path.as_path() == Path::new(OPTABLE_FILE));
    let Some(optable) = optable else {
        return vec![Diagnostic {
            rule: Rule::R6,
            path: OPTABLE_FILE.to_string(),
            line: 1,
            col: 1,
            message: "conformance op table not found".to_string(),
            snippet: String::new(),
            help: "declare the generator's operators (and the parallel kernels they \
                   drive) in `crates/conformance/src/optable.rs`"
                .to_string(),
        }];
    };

    let kernels = parse_optable_kernels(optable);
    let (table_line, _) = optable.line_col(optable.raw.find("OP_TABLE").unwrap_or(0));
    let mut diags = Vec::new();
    for e in &entries {
        if kernels.iter().any(|k| k == &e.entry) {
            continue;
        }
        if optable
            .allow_for(table_line, Rule::R6.code())
            .is_some_and(|a| !a.justification.is_empty())
        {
            continue;
        }
        diags.push(Diagnostic {
            rule: Rule::R6,
            path: OPTABLE_FILE.to_string(),
            line: table_line,
            col: 1,
            message: format!(
                "parallel kernel `{}` ({}) is not covered by the conformance op table",
                e.name, e.entry
            ),
            snippet: format!("KernelSpec {{ name: \"{}\", … }}", e.name),
            help: "add an `OpEntry` whose `kernel` names this entry point so the \
                   differential harness generates it, or annotate the table with \
                   `// analyze: allow(R6, why)`"
                .to_string(),
        });
    }

    // Batch-path coverage: a `batch` field that names a nonexistent
    // function, or one the entry never dispatches to, means the
    // conformance harness is exercising the per-cell loop while the
    // manifest claims the columnar path is under test.
    for e in &entries {
        let batch = e.batch.as_str();
        let defined = ws.files.iter().any(|f| {
            f.path.starts_with("crates/core/src/ops") && f.fns().iter().any(|x| x.name == batch)
        });
        if !defined {
            diags.push(Diagnostic {
                rule: Rule::R6,
                path: MANIFEST_FILE.to_string(),
                line: e.line,
                col: 1,
                message: format!(
                    "kernel `{}` declares missing batch function `{}`",
                    e.name, batch
                ),
                snippet: format!("KernelSpec {{ name: \"{}\", … }}", e.name),
                help: "the `batch` field must name the columnar fast path defined \
                       under `crates/core/src/ops`"
                    .to_string(),
            });
            continue;
        }
        let entry_file = ws.files.iter().find(|f| {
            f.path.starts_with("crates/core/src/ops") && f.fns().iter().any(|x| x.name == e.entry)
        });
        if let Some(f) = entry_file {
            if f.find_marker(batch, true).is_empty() {
                diags.push(Diagnostic {
                    rule: Rule::R6,
                    path: MANIFEST_FILE.to_string(),
                    line: e.line,
                    col: 1,
                    message: format!(
                        "kernel `{}` entry file `{}` never dispatches to batch function `{}`",
                        e.name,
                        f.path.display(),
                        batch
                    ),
                    snippet: format!("KernelSpec {{ name: \"{}\", … }}", e.name),
                    help: "the kernel entry must try the columnar batch path before \
                           falling back to its per-cell loop"
                        .to_string(),
                });
            }
        }
    }
    diags
}

/// One variant parsed out of the wire `Request` enum: name plus its byte
/// offset in the proto file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestVariant {
    /// Variant name, e.g. `Execute`.
    pub name: String,
    /// Byte offset of the variant identifier.
    pub offset: usize,
}

/// Parses the variant names of `pub enum Request` from the masked text of
/// the proto file (comments and literal bodies are already blanked, so
/// only real code survives).
pub fn parse_request_variants(file: &SourceFile) -> Vec<RequestVariant> {
    parse_enum_variants(file, "pub enum Request")
}

/// Parses the variant names of the enum declared by `needle` (e.g.
/// `pub enum Record`) from the masked text of `file`.
pub fn parse_enum_variants(file: &SourceFile, needle: &str) -> Vec<RequestVariant> {
    let Some(start) = file.mask.find(needle) else {
        return Vec::new();
    };
    let Some(open) = file.mask[start..].find('{').map(|i| start + i) else {
        return Vec::new();
    };
    let bytes = file.mask.as_bytes();
    let mut variants = Vec::new();
    let mut depth = 0i32;
    // A variant identifier is the first identifier at enum-body depth after
    // `{` or `,`; payload braces/parens/brackets and `#[...]` attributes
    // all push depth so their contents are skipped.
    let mut expecting = true;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'(' => {
                depth += 1;
                expecting = depth == 1;
            }
            // `[` at enum-body depth is a `#[…]` attribute: skip its
            // contents without consuming the variant-start state.
            b'[' => depth += 1,
            b'}' | b')' | b']' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            b',' if depth == 1 => expecting = true,
            c if depth == 1 && expecting && (c.is_ascii_alphabetic() || c == b'_') => {
                let from = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                variants.push(RequestVariant {
                    name: file.mask[from..i].to_string(),
                    offset: from,
                });
                expecting = false;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    variants
}

/// R9: observable request dispatch. Every `proto::Request` variant must be
/// handled by the server dispatch, and the dispatch must run inside a span
/// that records the request kind as a `request_type` attribute — that
/// attribute is what makes server traces, the slow-query log, and the
/// Stats surface attributable per request kind.
pub fn check_r9(ws: &Workspace) -> Vec<Diagnostic> {
    let proto = ws
        .files
        .iter()
        .find(|f| f.path.as_path() == Path::new(PROTO_FILE));
    let Some(proto) = proto else {
        return Vec::new(); // no wire protocol in this workspace
    };
    let variants = parse_request_variants(proto);
    if variants.is_empty() {
        return vec![Diagnostic {
            rule: Rule::R9,
            path: PROTO_FILE.to_string(),
            line: 1,
            col: 1,
            message: "wire protocol file has no parseable `pub enum Request`".to_string(),
            snippet: String::new(),
            help: "declare the request messages as `pub enum Request { … }` so the \
                   analyzer can check dispatch coverage"
                .to_string(),
        }];
    }

    let server = ws
        .files
        .iter()
        .find(|f| f.path.as_path() == Path::new(SERVER_FILE));
    let Some(server) = server else {
        return vec![Diagnostic {
            rule: Rule::R9,
            path: SERVER_FILE.to_string(),
            line: 1,
            col: 1,
            message: "server dispatch file not found".to_string(),
            snippet: String::new(),
            help: "handle every `proto::Request` variant in the server, inside a span \
                   with a `request_type` attribute"
                .to_string(),
        }];
    };

    let mut diags = Vec::new();
    // The span attribute lives in a string literal, so search the raw text
    // (literal bodies are blanked in the mask).
    if !server.raw.contains("\"request_type\"") {
        diags.push(Diagnostic {
            rule: Rule::R9,
            path: SERVER_FILE.to_string(),
            line: 1,
            col: 1,
            message: "no server-side span carries a `request_type` attribute".to_string(),
            snippet: String::new(),
            help: "set `span.set_attr(\"request_type\", …)` on the per-request span so \
                   every request kind is attributable in traces"
                .to_string(),
        });
    }
    for v in &variants {
        // Word-boundary on the right so `Request::Execute` is not counted
        // as handling `Request::ExecutePrepared`'s prefix (or vice versa).
        let pat = format!("Request::{}", v.name);
        let handled = server.find_marker(&pat, false).iter().any(|&off| {
            let next = server.mask.as_bytes().get(off + pat.len());
            let boundary = !next.is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_');
            boundary && !server.in_test(off)
        });
        if !handled {
            diags.extend(marker_diag(
                proto,
                Rule::R9,
                v.offset,
                format!(
                    "wire request variant `{}` is never handled by the server dispatch",
                    v.name
                ),
                "match `Request::…` for this variant inside the instrumented dispatch \
                 (the span with the `request_type` attribute), or annotate \
                 `// analyze: allow(R9, why)` on the variant",
            ));
        }
    }
    diags
}

/// R10: WAL replay coverage. Every variant of the durable layer's
/// `wal::Record` enum must be named (`Record::<Variant>`) by the
/// kill-matrix recovery harness, so a new log record type cannot ship
/// without a crash-replay test proving it is recovered. The harness's
/// `replay_covers_every_record_variant` test asserts at runtime that the
/// seeded workload actually *emits* each variant; this static check closes
/// the loop at analysis time.
pub fn check_r10(ws: &Workspace) -> Vec<Diagnostic> {
    let wal = ws
        .files
        .iter()
        .find(|f| f.path.as_path() == Path::new(WAL_FILE));
    let Some(wal) = wal else {
        return Vec::new(); // no durable layer in this workspace
    };
    let variants = parse_enum_variants(wal, "pub enum Record");
    if variants.is_empty() {
        return vec![Diagnostic {
            rule: Rule::R10,
            path: WAL_FILE.to_string(),
            line: 1,
            col: 1,
            message: "WAL file has no parseable `pub enum Record`".to_string(),
            snippet: String::new(),
            help: "declare the log records as `pub enum Record { … }` so the analyzer \
                   can check kill-matrix coverage"
                .to_string(),
        }];
    }

    let Some(recovery) = &ws.recovery_test else {
        return vec![Diagnostic {
            rule: Rule::R10,
            path: RECOVERY_TEST_FILE.to_string(),
            line: 1,
            col: 1,
            message: "kill-matrix recovery harness not found".to_string(),
            snippet: String::new(),
            help: "add `tests/recovery.rs` exercising every `wal::Record` variant \
                   through crash-and-reopen"
                .to_string(),
        }];
    };

    let mut diags = Vec::new();
    for v in &variants {
        // Word-boundary on the right so `Record::Put` would not count as
        // covering `Record::PutArray` (or vice versa).
        let pat = format!("Record::{}", v.name);
        let covered = recovery.match_indices(&pat).any(|(off, _)| {
            let next = recovery.as_bytes().get(off + pat.len());
            !next.is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_')
        });
        if !covered {
            diags.extend(marker_diag(
                wal,
                Rule::R10,
                v.offset,
                format!(
                    "WAL record variant `{}` is not covered by the kill-matrix \
                     recovery harness ({RECOVERY_TEST_FILE})",
                    v.name
                ),
                "extend the seeded workload (and `replay_covers_every_record_variant`) \
                 so a crash before and after this record is replayed, or annotate \
                 `// analyze: allow(R10, why)` on the variant",
            ));
        }
    }
    diags
}

/// If `ret` is a `Result` with an explicit error type that is not the crate
/// error, returns that type.
fn foreign_error_type(ret: &str) -> Option<String> {
    let idx = ret.find("Result<")?;
    // `io::Result<T>` and friends alias a foreign error outright.
    let prefix = ret[..idx].trim_end_matches("Result<").trim_end();
    if prefix.ends_with("io::") {
        return Some(format!("{}Error", prefix));
    }
    let args_start = idx + "Result<".len();
    let mut depth = 1i32;
    let mut split = None;
    let bytes = ret.as_bytes();
    let mut end = args_start;
    for (i, &c) in bytes.iter().enumerate().skip(args_start) {
        match c {
            b'<' | b'(' | b'[' => depth += 1,
            b'>' | b')' | b']' => {
                depth -= 1;
                if depth == 0 {
                    end = i;
                    break;
                }
            }
            b',' if depth == 1 && split.is_none() => split = Some(i),
            _ => {}
        }
    }
    let second = ret[split? + 1..end].trim();
    if CRATE_ERRORS.contains(&second) {
        None
    } else {
        Some(second.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;
    use std::path::PathBuf;

    fn ws(files: Vec<(&str, &str)>, parallel_test: Option<&str>) -> Workspace {
        Workspace {
            files: files
                .into_iter()
                .map(|(p, s)| SourceFile::new(PathBuf::from(p), s.to_string()))
                .collect(),
            parallel_test: parallel_test.map(String::from),
            recovery_test: None,
        }
    }

    #[test]
    fn r1_flags_markers_outside_tests_only() {
        let src = "fn a() { x.unwrap(); y.expect(\"m\"); }\n\
                   #[cfg(test)]\nmod tests { fn t() { z.unwrap(); panic!(); } }\n";
        let d = check_r1(&ws(vec![("crates/core/src/a.rs", src)], None));
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn r1_ignores_non_library_crates() {
        let src = "fn a() { x.unwrap(); }\n";
        let d = check_r1(&ws(vec![("crates/ssdb/src/a.rs", src)], None));
        assert!(d.is_empty());
    }

    #[test]
    fn r1_allow_requires_justification() {
        let src = "fn a() {\n\
                   x.unwrap(); // analyze: allow(R1, bound checked above)\n\
                   y.unwrap(); // analyze: allow(R1)\n}\n";
        let d = check_r1(&ws(vec![("crates/query/src/a.rs", src)], None));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("without a justification"), "{d:?}");
    }

    #[test]
    fn r4_flags_foreign_errors_and_ok_swallow() {
        let src = "pub fn bad1() -> Result<u8, String> { Ok(1) }\n\
                   pub fn good(x: u8) -> Result<u8> { Ok(x) }\n\
                   pub fn bad2() -> Option<u8> { \"4\".parse::<u8>().ok() }\n\
                   pub fn fine() -> Option<u8> { None }\n";
        let d = check_r4(&ws(vec![("crates/core/src/a.rs", src)], None));
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("String"));
        assert!(d[1].message.contains("swallows"));
    }

    #[test]
    fn r3_flags_spawn_and_mutex_everywhere_but_the_lock_module() {
        let src = "use std::sync::Mutex;\nfn go() { std::thread::spawn(|| {}); }\n";
        let d = check_r3(&ws(
            vec![
                ("crates/storage/src/a.rs", src),
                ("crates/core/src/sync.rs", src),
                ("crates/obs/src/sync.rs", src),
                ("crates/obs/src/span.rs", src),
            ],
            None,
        ));
        assert_eq!(d.len(), 6, "{d:?}");
        // A stray second `sync.rs` is flagged like any other file.
        assert_eq!(
            d.iter()
                .filter(|x| x.path.ends_with("core/src/sync.rs"))
                .count(),
            2
        );
        assert!(
            d.iter().all(|x| !x.path.ends_with("obs/src/sync.rs")),
            "{d:?}"
        );
    }

    #[test]
    fn r3_accepts_the_analyze_allow_form() {
        let src = "// analyze: allow(R3, dedicated worker joined on Drop)\n\
                   fn go() { std::thread::spawn(|| {}); }\n\
                   // analyze: allow(R3)\n\
                   fn go2() { std::thread::spawn(|| {}); }\n";
        let d = check_r3(&ws(vec![("crates/storage/src/a.rs", src)], None));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("without a justification"), "{d:?}");
    }

    #[test]
    fn r5_flags_raw_instant_in_scoped_crates_only() {
        let src = "fn t() { let s = std::time::Instant::now(); }\n\
                   #[cfg(test)]\nmod tests { fn u() { let s = Instant::now(); } }\n";
        let d = check_r5(&ws(
            vec![
                ("crates/storage/src/a.rs", src),
                ("crates/query/src/b.rs", src),
                ("crates/obs/src/span.rs", src),
                ("crates/core/src/exec.rs", src),
                ("crates/bench/src/report.rs", src),
            ],
            None,
        ));
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|x| x.rule == Rule::R5));
        assert!(d.iter().any(|x| x.path.contains("storage")));
        assert!(d.iter().any(|x| x.path.contains("query")));
    }

    #[test]
    fn r5_flags_system_time_too() {
        let src = "fn t() { let s = std::time::SystemTime::now(); }\n\
                   #[cfg(test)]\nmod tests { fn u() { let s = SystemTime::now(); } }\n";
        let d = check_r5(&ws(
            vec![
                ("crates/grid/src/a.rs", src),
                ("crates/obs/src/span.rs", src),
            ],
            None,
        ));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].path.contains("grid"));
        assert!(d[0].message.contains("SystemTime"), "{d:?}");
    }

    #[test]
    fn r5_allow_requires_justification() {
        let src = "fn a() {\n\
                   let t = Instant::now(); // analyze: allow(R5, startup clock, pre-trace)\n\
                   let u = Instant::now(); // analyze: allow(R5)\n}\n";
        let d = check_r5(&ws(vec![("crates/grid/src/a.rs", src)], None));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("without a justification"), "{d:?}");
    }

    #[test]
    fn foreign_error_detection() {
        assert_eq!(foreign_error_type("Result<u8>"), None);
        assert_eq!(foreign_error_type("Result<Vec<(u8, u8)>>"), None);
        assert_eq!(foreign_error_type("Result<u8, Error>"), None);
        assert_eq!(
            foreign_error_type("Result<u8, String>"),
            Some("String".to_string())
        );
        assert_eq!(
            foreign_error_type("std::io::Result<u8>"),
            Some("std::io::Error".to_string())
        );
        assert_eq!(foreign_error_type("Option<u8>"), None);
    }

    const MANIFEST: &str = r#"
pub struct KernelSpec { pub name: &'static str, pub entry: &'static str, pub merge: &'static str, pub batch: &'static str }
pub const PARALLEL_KERNELS: &[KernelSpec] = &[
    KernelSpec { name: "filter", entry: "filter_with", merge: "merge_chunk_outputs", batch: "filter_columns" },
];
"#;

    /// The columnar fast path `MANIFEST` declares.
    const BATCH_MOD: &str = "pub(crate) fn filter_columns(c: &Chunk) -> Option<Chunk> { None }\n";

    #[test]
    fn r2_accepts_registered_kernel() {
        let content = "pub fn filter_with(ctx: &ExecContext) {\n\
                       let r = ctx.try_par_map(&chunks, |c| c);\n\
                       merge_chunk_outputs(&mut out, r);\n}\n";
        let d = check_r2(&ws(
            vec![
                ("crates/core/src/ops/mod.rs", MANIFEST),
                ("crates/core/src/ops/content.rs", content),
            ],
            Some("run filter_with here"),
        ));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn r2_flags_unregistered_call_site_and_missing_merge() {
        let content = "pub fn filter_with(ctx: &ExecContext) {\n\
                       let r = ctx.try_par_map(&chunks, |c| c);\n}\n\
                       fn rogue(ctx: &ExecContext) { ctx.par_map(&v, |x| x); }\n";
        let d = check_r2(&ws(
            vec![
                ("crates/core/src/ops/mod.rs", MANIFEST),
                ("crates/core/src/ops/content.rs", content),
            ],
            Some("filter_with"),
        ));
        let msgs: Vec<&str> = d.iter().map(|x| x.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("rogue")), "{msgs:?}");
        assert!(
            msgs.iter().any(|m| m.contains("merge_chunk_outputs")),
            "{msgs:?}"
        );
    }

    #[test]
    fn r2_flags_kernel_missing_from_tests_and_fanout_outside_ops() {
        let content = "pub fn filter_with(ctx: &ExecContext) {\n\
                       let r = ctx.try_par_map(&chunks, |c| c);\n\
                       merge_chunk_outputs(&mut out, r);\n}\n";
        let outside = "pub fn read(ctx: &ExecContext) { ctx.par_map(&v, |x| x); }\n";
        let d = check_r2(&ws(
            vec![
                ("crates/core/src/ops/mod.rs", MANIFEST),
                ("crates/core/src/ops/content.rs", content),
                ("crates/storage/src/manager.rs", outside),
            ],
            Some("unrelated"),
        ));
        let msgs: Vec<&str> = d.iter().map(|x| x.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("not exercised")), "{msgs:?}");
        assert!(
            msgs.iter().any(|m| m.contains("outside core::ops")),
            "{msgs:?}"
        );
    }

    #[test]
    fn r6_accepts_covered_kernel_and_flags_missing_one() {
        let optable = "pub const OP_TABLE: &[OpEntry] = &[\n\
                       OpEntry { name: \"filter\", kernel: Some(\"filter_with\"), weight: 4 },\n\
                       ];\n";
        let d = check_r6(&ws(
            vec![
                ("crates/core/src/ops/mod.rs", MANIFEST),
                ("crates/core/src/ops/batch.rs", BATCH_MOD),
                ("crates/conformance/src/optable.rs", optable),
            ],
            None,
        ));
        assert!(d.is_empty(), "{d:?}");

        let empty_table = "pub const OP_TABLE: &[OpEntry] = &[\n];\n";
        let d = check_r6(&ws(
            vec![
                ("crates/core/src/ops/mod.rs", MANIFEST),
                ("crates/core/src/ops/batch.rs", BATCH_MOD),
                ("crates/conformance/src/optable.rs", empty_table),
            ],
            None,
        ));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::R6);
        assert!(d[0].message.contains("filter_with"), "{d:?}");
    }

    #[test]
    fn r6_flags_missing_optable_file() {
        let d = check_r6(&ws(vec![("crates/core/src/ops/mod.rs", MANIFEST)], None));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("not found"), "{d:?}");
    }

    #[test]
    fn optable_parse_extracts_kernels() {
        let optable = "pub const OP_TABLE: &[OpEntry] = &[\n\
                       OpEntry { name: \"filter\", kernel: Some(\"filter_with\"), weight: 4 },\n\
                       OpEntry { name: \"sjoin\", kernel: None, weight: 2 },\n\
                       OpEntry { name: \"regrid\", kernel: Some(\"regrid_with\"), weight: 2 },\n\
                       ];\n";
        let f = SourceFile::new(PathBuf::from(OPTABLE_FILE), optable.to_string());
        assert_eq!(
            parse_optable_kernels(&f),
            vec!["filter_with", "regrid_with"]
        );
    }

    const PROTO: &str = "\
pub enum Request {
    /// Opens a session.
    Hello { token: String, version: u16 },
    Execute { text: String, statement_id: u64 },
    ExecutePrepared { key: String, statement_id: u64 },
    Ping,
    Close,
}
";

    #[test]
    fn request_variant_parse_skips_payloads_and_comments() {
        let f = SourceFile::new(PathBuf::from(PROTO_FILE), PROTO.to_string());
        let names: Vec<String> = parse_request_variants(&f)
            .into_iter()
            .map(|v| v.name)
            .collect();
        assert_eq!(
            names,
            vec!["Hello", "Execute", "ExecutePrepared", "Ping", "Close"]
        );
    }

    #[test]
    fn r9_accepts_full_dispatch_and_flags_missing_variant() {
        let full = "fn dispatch(req: &Request) {\n\
                    span.set_attr(\"request_type\", name(req));\n\
                    match req {\n\
                    Request::Hello { .. } => {}\n\
                    Request::Execute { .. } => {}\n\
                    Request::ExecutePrepared { .. } => {}\n\
                    Request::Ping => {}\n\
                    Request::Close => {}\n\
                    }\n}\n";
        let d = check_r9(&ws(vec![(PROTO_FILE, PROTO), (SERVER_FILE, full)], None));
        assert!(d.is_empty(), "{d:?}");

        // Dropping the Close arm leaves the variant unhandled. The
        // ExecutePrepared arm alone must not satisfy Execute's prefix.
        let partial = "fn dispatch(req: &Request) {\n\
                       span.set_attr(\"request_type\", name(req));\n\
                       match req {\n\
                       Request::Hello { .. } => {}\n\
                       Request::ExecutePrepared { .. } => {}\n\
                       Request::Ping => {}\n\
                       }\n}\n";
        let d = check_r9(&ws(vec![(PROTO_FILE, PROTO), (SERVER_FILE, partial)], None));
        let msgs: Vec<&str> = d.iter().map(|x| x.message.as_str()).collect();
        assert_eq!(d.len(), 2, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`Execute`")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`Close`")), "{msgs:?}");
    }

    #[test]
    fn r9_requires_the_request_type_span_attr() {
        let bare = "fn dispatch(req: &Request) { match req {\n\
                    Request::Hello { .. } => {}\n\
                    Request::Execute { .. } => {}\n\
                    Request::ExecutePrepared { .. } => {}\n\
                    Request::Ping => {}\n\
                    Request::Close => {}\n\
                    } }\n";
        let d = check_r9(&ws(vec![(PROTO_FILE, PROTO), (SERVER_FILE, bare)], None));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("request_type"), "{d:?}");
    }

    #[test]
    fn r9_is_vacuous_without_a_server_crate_and_allows_with_justification() {
        assert!(check_r9(&ws(vec![("crates/core/src/a.rs", "")], None)).is_empty());

        let proto = "pub enum Request {\n\
                     Hello,\n\
                     Debug, // analyze: allow(R9, compiled out of release servers)\n\
                     }\n";
        let server = "fn dispatch(req: &Request) {\n\
                      span.set_attr(\"request_type\", name(req));\n\
                      match req { Request::Hello => {} }\n}\n";
        let d = check_r9(&ws(vec![(PROTO_FILE, proto), (SERVER_FILE, server)], None));
        assert!(d.is_empty(), "{d:?}");
    }

    const WAL: &str = "\
pub enum Record {
    /// Start of a group.
    Begin { op: u64 },
    Commit { op: u64 },
    BucketWrite { block: u64, bytes: Vec<u8> },
    BucketFree { block: u64 },
}
";

    fn ws_with_recovery(files: Vec<(&str, &str)>, recovery_test: Option<&str>) -> Workspace {
        let mut w = ws(files, None);
        w.recovery_test = recovery_test.map(String::from);
        w
    }

    #[test]
    fn r10_accepts_full_coverage_and_flags_missing_variant() {
        let full = "match rec {\n\
                    WalRecord::Begin { .. } => (), // Record::Begin\n\
                    x if is(x, \"Record::Commit\") => (),\n\
                    _ => { touch(\"Record::BucketWrite\", \"Record::BucketFree\"); }\n\
                    }\n";
        let d = check_r10(&ws_with_recovery(vec![(WAL_FILE, WAL)], Some(full)));
        assert!(d.is_empty(), "{d:?}");

        // `Record::BucketWrite` alone must not satisfy `Record::BucketFree`
        // (nor vice versa: right word-boundary matching).
        let partial = "Record::Begin Record::Commit Record::BucketWrites\n";
        let d = check_r10(&ws_with_recovery(vec![(WAL_FILE, WAL)], Some(partial)));
        let msgs: Vec<&str> = d.iter().map(|x| x.message.as_str()).collect();
        assert_eq!(d.len(), 2, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`BucketWrite`")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`BucketFree`")), "{msgs:?}");
    }

    #[test]
    fn r10_flags_a_missing_harness() {
        let d = check_r10(&ws_with_recovery(vec![(WAL_FILE, WAL)], None));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("harness not found"), "{d:?}");
    }

    #[test]
    fn r10_is_vacuous_without_a_wal_and_allows_with_justification() {
        assert!(check_r10(&ws_with_recovery(vec![("crates/core/src/a.rs", "")], None)).is_empty());

        let wal = "pub enum Record {\n\
                   Begin { op: u64 },\n\
                   Debug, // analyze: allow(R10, never written to disk)\n\
                   }\n";
        let d = check_r10(&ws_with_recovery(
            vec![(WAL_FILE, wal)],
            Some("Record::Begin"),
        ));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn manifest_parse_extracts_entries() {
        let f = SourceFile::new(PathBuf::from(MANIFEST_FILE), MANIFEST.to_string());
        let m = parse_manifest(&f);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].name, "filter");
        assert_eq!(m[0].entry, "filter_with");
        assert_eq!(m[0].merge, "merge_chunk_outputs");
        assert_eq!(m[0].batch, "filter_columns");
    }

    #[test]
    fn manifest_entry_without_a_batch_field_is_not_an_entry() {
        let legacy = MANIFEST.replace(", batch: \"filter_columns\" }", " }");
        let f = SourceFile::new(PathBuf::from(MANIFEST_FILE), legacy);
        assert!(parse_manifest(&f).is_empty());
    }

    #[test]
    fn r6_verifies_batch_fn_exists_and_is_dispatched() {
        let optable = "pub const OP_TABLE: &[OpEntry] = &[\n\
                       OpEntry { name: \"filter\", kernel: Some(\"filter_with\"), weight: 4 },\n\
                       ];\n";
        let entry_ok = "pub fn filter_with(ctx: &ExecContext) {\n\
                        let fast = filter_columns(&c);\n}\n";
        let d = check_r6(&ws(
            vec![
                ("crates/core/src/ops/mod.rs", MANIFEST),
                ("crates/core/src/ops/batch.rs", BATCH_MOD),
                ("crates/core/src/ops/content.rs", entry_ok),
                ("crates/conformance/src/optable.rs", optable),
            ],
            None,
        ));
        assert!(d.is_empty(), "{d:?}");

        // Declared batch fn does not exist anywhere under core::ops.
        let d = check_r6(&ws(
            vec![
                ("crates/core/src/ops/mod.rs", MANIFEST),
                ("crates/core/src/ops/content.rs", entry_ok),
                ("crates/conformance/src/optable.rs", optable),
            ],
            None,
        ));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("missing batch function"), "{d:?}");

        // Batch fn exists but the kernel entry never calls it.
        let entry_stale = "pub fn filter_with(ctx: &ExecContext) {\n\
                           let r = per_cell(&c);\n}\n";
        let d = check_r6(&ws(
            vec![
                ("crates/core/src/ops/mod.rs", MANIFEST),
                ("crates/core/src/ops/batch.rs", BATCH_MOD),
                ("crates/core/src/ops/content.rs", entry_stale),
                ("crates/conformance/src/optable.rs", optable),
            ],
            None,
        ));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("never dispatches to batch function"),
            "{d:?}"
        );
    }
}
