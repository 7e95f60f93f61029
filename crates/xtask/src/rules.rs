//! The SciDB-specific workspace invariants (R1–R8). Any hit fails the run;
//! there is no baseline of tolerated ones.
//!
//! * **R1** — no `unwrap()`/`expect()`/`panic!`/`todo!`/`unimplemented!` in
//!   non-test code of the library crates (`core`, `storage`, `query`,
//!   `grid`, `provenance`, `insitu`, `server`). The paper's no-overwrite and
//!   provenance layers (§2.5–§2.9) hinge on library code that must not panic
//!   mid-commit, and the in-situ readers (§2.9) parse files SciDB did not
//!   write. Escape hatch: `// analyze: allow(R1, justification)`.
//! * **R2** — parallel fan-out happens only inside the chunk drivers
//!   (`map_chunks`/`fold_chunks` in `core::ops`), and every kernel — a
//!   function under `crates/core/src/ops` that calls a driver — appears in
//!   the serial≡parallel equivalence tests. Escape hatch, for a fan-out
//!   site only: `// analyze: allow(R2, justification)`; nothing excuses a
//!   kernel without equivalence tests.
//! * **R3** — no `thread::spawn` or raw `Mutex`/`RwLock`/`Condvar` outside
//!   the one lock module (`crates/obs/src/sync.rs`); concurrency goes through
//!   `ExecContext` and the ranked locks. Every exception is a per-site
//!   annotation: `// analyze: allow(R3, justification)`.
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
//! * **R6** — every kernel (as R2 derives it) must appear in the
//!   conformance generator's op table
//!   (`crates/conformance/src/optable.rs`), so the differential harness
//!   exercises each chunk-parallel kernel against all four backends.
//!   Escape hatch: `// analyze: allow(R6, justification)`.
//! * **R7** — lock-order soundness (see [`crate::locks`]): every wrapper
//!   acquisition edge — direct or through the call graph — must strictly
//!   ascend in `lock_ranks!` rank. Escape hatch: `// analyze: allow(R7, why)`.
//! * **R8** — no blocking while locked (see [`crate::locks`]): no file
//!   I/O, channel receive, timed wait, sleep, accept, or statement
//!   execution inside the live range of a write-exclusive guard ranked
//!   `CATALOG` or higher. Escape hatch: `// analyze: allow(R8, why)`.
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
}

impl Rule {
    /// Every rule, in code order.
    pub const ALL: [Rule; 8] = [
        Rule::R1,
        Rule::R2,
        Rule::R3,
        Rule::R4,
        Rule::R5,
        Rule::R6,
        Rule::R7,
        Rule::R8,
    ];

    /// The short code used in diagnostics and the JSON report.
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
}

/// Crates whose non-test code must be panic-free (R1).
pub const R1_CRATES: &[&str] = &[
    "core",
    "storage",
    "query",
    "grid",
    "provenance",
    "insitu",
    "server",
];

/// Crates whose public API must be Result-typed (R4).
pub const R4_CRATES: &[&str] = &["core", "query"];

/// Crates whose non-test code must time through the obs substrate (R5).
pub const R5_CRATES: &[&str] = &["query", "storage", "grid"];

/// The file defining the parallel map primitives (R2 skips its own
/// definitions and tests).
pub const EXEC_FILE: &str = "crates/core/src/exec.rs";

/// The file defining the chunk drivers, the only sanctioned fan-out.
pub const DRIVER_FILE: &str = "crates/core/src/ops/mod.rs";

/// The chunk drivers: a function under [`OPS_DIR`] that calls one is a
/// kernel.
pub const DRIVERS: &[&str] = &["map_chunks", "fold_chunks"];

/// The operator suite, where kernels live.
pub const OPS_DIR: &str = "crates/core/src/ops";

/// The differential harness's operator table (R6 coverage target).
pub const OPTABLE_FILE: &str = "crates/conformance/src/optable.rs";

/// The serial≡parallel equivalence properties (R2's coverage target).
pub const PARALLEL_TEST_FILE: &str = "tests/parallel_equivalence.rs";

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

/// One kernel: a function under [`OPS_DIR`] that calls a chunk driver.
#[derive(Debug, Clone, Copy)]
pub struct Kernel<'a> {
    /// The kernel function's name (its `*_with` entry point).
    pub name: &'a str,
    /// The file defining it.
    pub file: &'a SourceFile,
    /// Byte offset of its (first) driver call.
    pub call: usize,
}

/// Every kernel in the workspace, derived from the driver call sites in
/// non-test code under [`OPS_DIR`], in file order.
pub fn kernels(ws: &Workspace) -> Vec<Kernel<'_>> {
    let mut out: Vec<Kernel<'_>> = Vec::new();
    for file in ws.files.iter().filter(|f| f.path.starts_with(OPS_DIR)) {
        for driver in DRIVERS {
            for call in file.find_marker(&format!("{driver}("), true) {
                if file.in_test(call) || file.mask[..call].trim_end().ends_with("fn") {
                    continue;
                }
                let Some(f) = file.enclosing_fn(call) else {
                    continue;
                };
                if !out.iter().any(|k| k.name == f.name) {
                    out.push(Kernel {
                        name: &f.name,
                        file,
                        call,
                    });
                }
            }
        }
    }
    out
}

/// R2: fan-out only inside the chunk drivers, and every kernel covered by
/// the serial≡parallel equivalence tests.
pub fn check_r2(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        if file.path.as_path() == Path::new(EXEC_FILE) {
            continue; // the primitives' own definitions and tests
        }
        let in_drivers = file.path.as_path() == Path::new(DRIVER_FILE);
        let mut sites = file.find_marker("par_map(", false);
        // The raw scoped-thread primitive counts as fan-out too.
        sites.extend(file.find_marker("par_map_threads(", true));
        sites.sort_unstable();
        for off in sites {
            if file.in_test(off) {
                continue;
            }
            let enclosing = file.enclosing_fn(off);
            if in_drivers && enclosing.is_some_and(|f| DRIVERS.contains(&f.name.as_str())) {
                continue;
            }
            let message = match enclosing {
                Some(f) => format!(
                    "parallel fan-out in `{}`, which is not a chunk driver",
                    f.name
                ),
                None => "parallel fan-out outside any function".to_string(),
            };
            diags.extend(marker_diag(
                file,
                Rule::R2,
                off,
                message,
                "pass the per-chunk work to `map_chunks` or `fold_chunks` in \
                 `core::ops`, or annotate `// analyze: allow(R2, why)` for \
                 non-operator uses",
            ));
        }
    }

    for k in kernels(ws) {
        let covered = ws.parallel_test.as_deref().map(|t| t.contains(k.name));
        let message = match covered {
            Some(true) => continue,
            Some(false) => format!(
                "kernel `{}` is not exercised by {PARALLEL_TEST_FILE}",
                k.name
            ),
            None => format!(
                "{PARALLEL_TEST_FILE} not found — kernel `{}` needs serial≡parallel \
                 equivalence tests",
                k.name
            ),
        };
        // Built directly, not via `marker_diag`: an `allow(R2, …)` excuses
        // a fan-out site, never a kernel without equivalence tests.
        let (line, col) = k.file.line_col(k.call);
        diags.push(Diagnostic {
            rule: Rule::R2,
            path: k.file.path.display().to_string(),
            line,
            col,
            message,
            snippet: k.file.line_text(line).to_string(),
            help: "run the kernel at 1 and N threads in the equivalence tests and \
                   assert identical arrays"
                .to_string(),
        });
    }
    diags
}

/// R3: threads and raw sync primitives live in the one lock module only;
/// everything else is a per-site annotation.
pub fn check_r3(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        if crate::locks::is_wrapper_file(&file.path) {
            continue;
        }
        let mut hits: Vec<(usize, String)> = Vec::new();
        for off in file.find_marker("thread::spawn", false) {
            hits.push((off, "`thread::spawn`".to_string()));
        }
        for prim in ["Mutex", "RwLock", "Condvar"] {
            for off in file.find_marker(prim, true) {
                // Word-boundary on both sides, so `MutexGuard` or
                // `OrderedRwLock` is not counted.
                let next = file.mask.as_bytes().get(off + prim.len());
                if next.is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_') {
                    continue;
                }
                hits.push((off, format!("raw `{prim}`")));
            }
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

/// R6: every kernel appears in the conformance op table, so the
/// differential harness exercises each chunk-parallel kernel.
pub fn check_r6(ws: &Workspace) -> Vec<Diagnostic> {
    let kernels = kernels(ws);
    if kernels.is_empty() {
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

    let table = parse_optable_kernels(optable);
    let table_at = optable.mask.find("OP_TABLE").unwrap_or(0);
    let mut diags = Vec::new();
    for k in kernels {
        if table.iter().any(|t| t == k.name) {
            continue;
        }
        diags.extend(marker_diag(
            optable,
            Rule::R6,
            table_at,
            format!(
                "parallel kernel `{}` is not covered by the conformance op table",
                k.name
            ),
            "add an `OpEntry` whose `kernel` names this entry point so the \
             differential harness generates it, or annotate the table with \
             `// analyze: allow(R6, why)`",
        ));
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
    fn r3_flags_raw_rwlock_outside_the_one_lock_module() {
        let src = "use std::sync::RwLock;\nstruct S { c: Condvar }\n";
        let d = check_r3(&ws(
            vec![
                ("crates/core/src/x.rs", src),
                ("crates/core/src/sync.rs", src),
                ("crates/obs/src/sync.rs", src),
            ],
            None,
        ));
        assert_eq!(d.len(), 4, "{d:?}");
        // A stray second `sync.rs` is flagged like any other file.
        assert_eq!(
            d.iter()
                .filter(|x| x.path.ends_with("core/src/sync.rs"))
                .count(),
            2
        );
        assert!(d.iter().all(|x| !x.path.contains("obs")), "{d:?}");
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

    /// The two chunk drivers, each fanning out once.
    const DRIVERS_SRC: &str = "\
pub(crate) fn map_chunks<B, C>(ctx: &ExecContext) { ctx.try_par_map(&chunks, |c| c); }
pub(crate) fn fold_chunks<G>(ctx: &ExecContext) { ctx.try_par_map(&chunks, |c| c); }
";

    /// One kernel: a function that calls a driver.
    const KERNEL_SRC: &str = "\
pub fn filter_with(a: &Array, ctx: &ExecContext) -> Result<Array> {
    super::map_chunks(\"filter\", &chunks, out, ctx, |c| None, |c, x, i| Ok(None))
}
";

    fn ops_ws(extra: Vec<(&str, &str)>, parallel_test: Option<&str>) -> Workspace {
        let mut files = vec![
            (DRIVER_FILE, DRIVERS_SRC),
            ("crates/core/src/ops/content.rs", KERNEL_SRC),
        ];
        files.extend(extra);
        ws(files, parallel_test)
    }

    #[test]
    fn kernels_are_the_callers_of_a_driver() {
        let regrid = "pub fn regrid_with(ctx: &ExecContext) -> Result<Array> {\n\
                      fold_chunks(\"regrid\", a, &idxs, agg, Some(k), schema, ctx)\n}\n\
                      #[cfg(test)]\nmod tests { fn t() { map_chunks(\"x\", &c, o, ctx, b, f); } }\n";
        let w = ops_ws(vec![("crates/core/src/ops/regrid.rs", regrid)], None);
        let names: Vec<&str> = kernels(&w).iter().map(|k| k.name).collect();
        // Definitions and test-module calls are not kernels.
        assert_eq!(names, vec!["filter_with", "regrid_with"]);
    }

    #[test]
    fn r2_accepts_fanout_in_the_drivers_and_a_tested_kernel() {
        let d = check_r2(&ops_ws(vec![], Some("run filter_with here")));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn r2_flags_fanout_outside_the_drivers_unless_allowed() {
        let rogue = "fn rogue(ctx: &ExecContext) { ctx.par_map(&v, |x| x); }\n\
                     fn map_chunks(ctx: &ExecContext) { ctx.par_map(&v, |x| x); }\n\
                     fn sanctioned(ctx: &ExecContext) {\n\
                     // analyze: allow(R2, a bounded side pass over the chunk list)\n\
                     ctx.par_map(&v, |x| x);\n}\n";
        let outside = "pub fn read(ctx: &ExecContext) { ctx.par_map(&v, |x| x); }\n";
        let d = check_r2(&ops_ws(
            vec![
                ("crates/core/src/ops/rogue.rs", rogue),
                ("crates/storage/src/manager.rs", outside),
            ],
            Some("filter_with"),
        ));
        let msgs: Vec<&str> = d.iter().map(|x| x.message.as_str()).collect();
        assert_eq!(d.len(), 3, "{msgs:?}");
        for name in ["`rogue`", "`map_chunks`", "`read`"] {
            assert!(msgs.iter().any(|m| m.contains(name)), "{name}: {msgs:?}");
        }
        assert!(
            msgs.iter().all(|m| m.contains("not a chunk driver")),
            "{msgs:?}"
        );
    }

    #[test]
    fn r2_flags_kernel_missing_from_the_equivalence_tests() {
        let d = check_r2(&ops_ws(vec![], Some("unrelated")));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("`filter_with` is not exercised"),
            "{d:?}"
        );
        assert_eq!(d[0].path, "crates/core/src/ops/content.rs");

        let d = check_r2(&ops_ws(vec![], None));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("not found"), "{d:?}");
    }

    #[test]
    fn r2_allow_does_not_excuse_a_kernel_without_equivalence_tests() {
        let allowed = "pub fn apply_with(ctx: &ExecContext) -> Result<Array> {\n\
                       // analyze: allow(R2, a justified fan-out note)\n\
                       super::map_chunks(\"apply\", &chunks, out, ctx, |c| None, |c, x, i| Ok(None))\n}\n";
        let d = check_r2(&ops_ws(
            vec![("crates/core/src/ops/apply.rs", allowed)],
            Some("filter_with"),
        ));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("`apply_with` is not exercised"),
            "{d:?}"
        );
    }

    #[test]
    fn r6_accepts_covered_kernel_and_flags_missing_one() {
        let optable = "pub const OP_TABLE: &[OpEntry] = &[\n\
                       OpEntry { name: \"filter\", kernel: Some(\"filter_with\"), weight: 4 },\n\
                       ];\n";
        let d = check_r6(&ops_ws(vec![(OPTABLE_FILE, optable)], None));
        assert!(d.is_empty(), "{d:?}");

        let empty_table = "pub const OP_TABLE: &[OpEntry] = &[\n];\n";
        let d = check_r6(&ops_ws(vec![(OPTABLE_FILE, empty_table)], None));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::R6);
        assert!(d[0].message.contains("filter_with"), "{d:?}");

        let allowed =
            format!("// analyze: allow(R6, generated by a separate fuzzer)\n{empty_table}");
        assert!(check_r6(&ops_ws(vec![(OPTABLE_FILE, &allowed)], None)).is_empty());
    }

    #[test]
    fn r6_flags_missing_optable_file() {
        let d = check_r6(&ops_ws(vec![], None));
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
}
