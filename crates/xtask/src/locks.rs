//! R7/R8 — the lock-order and blocking-while-locked analyses.
//!
//! Both rules work from the same extracted model:
//!
//! 1. The **rank table** is parsed out of the `lock_ranks! { NAME = level }`
//!    registry (`crates/obs/src/sync.rs`), so the analyzer and the runtime
//!    witness share one source of truth.
//! 2. **Lock bindings** come from wrapper constructor sites
//!    (`OrderedMutex::new(ranks::X, …)` / `OrderedRwLock::new(ranks::X, …)`):
//!    the field or `let` binding a constructor initializes carries that rank.
//! 3. **Acquisition sites** are no-argument `NAME.lock()` / `NAME.read()` /
//!    `NAME.write()` calls on a known binding. Each site gets a lexical
//!    **live range**: a `let`-bound guard lives until a textual `drop(g)` or
//!    the end of its innermost enclosing block; a temporary lives to the end
//!    of its statement.
//! 4. A **may-acquire** set per function (direct acquisitions, closed over
//!    the call graph by bare callee name) extends the check across calls:
//!    holding a guard while calling a function that may acquire a
//!    non-ascending rank is an R7 edge too.
//!
//! **R7** (lock-order soundness) fails on any acquisition edge that does not
//! strictly ascend in rank. Raw primitives outside the one lock module are
//! R3's.
//! **R8** (no blocking while locked) fails on blocking operations — file
//! I/O, channel receives, timed waits, sleeps, accepts, statement execution
//! — lexically inside the live range of a write-exclusive guard ranked
//! `CATALOG` or higher.
//!
//! Known limits (documented in DESIGN.md §13): liveness is lexical, so a
//! guard returned from a helper (`array_guard`) is charged at the helper's
//! own acquisition via the call graph, not across the caller's body; call
//! edges resolve only free calls and `self.helper(…)` calls to names defined
//! exactly once in the workspace (no type information — resolving `vec.push`
//! or `Arc::new` by bare name drowns the analysis in collisions), so helpers
//! invoked through other receivers are not traced. The debug runtime witness
//! covers the gap; `// analyze: allow(R7, …)` / `// analyze: allow(R8, …)`
//! annotate deliberate exceptions.

use crate::rules::{marker_diag, Diagnostic, Rule, Workspace};
use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// True for the workspace's one lock module, `crates/obs/src/sync.rs`: it
/// owns the raw primitives and is excluded from R3/R7/R8 scanning. Any
/// other file — a second `sync.rs` included — is engine code.
pub fn is_wrapper_file(path: &Path) -> bool {
    path.ends_with("crates/obs/src/sync.rs")
}

/// The parsed `lock_ranks!` registry: `NAME -> level`.
#[derive(Debug, Default, Clone)]
pub struct RankTable {
    /// Rank name to numeric level, ascending = acquired later.
    pub levels: BTreeMap<String, u16>,
}

impl RankTable {
    /// The level of a registered rank.
    pub fn level(&self, name: &str) -> Option<u16> {
        self.levels.get(name).copied()
    }
}

/// Parses every `lock_ranks! { NAME = level, … }` invocation in the
/// workspace (doc comments are already masked away).
pub fn parse_rank_table(ws: &Workspace) -> RankTable {
    let mut levels = BTreeMap::new();
    for file in &ws.files {
        let mask = &file.mask;
        let mut from = 0;
        while let Some(rel) = mask[from..].find("lock_ranks!") {
            let at = from + rel + "lock_ranks!".len();
            from = at;
            let Some(open) = mask[at..].find('{').map(|i| at + i) else {
                continue;
            };
            let Some(close) = match_brace(mask.as_bytes(), open) else {
                continue;
            };
            parse_rank_entries(&mask[open + 1..close], &mut levels);
            from = close;
        }
    }
    RankTable { levels }
}

/// Parses `NAME = 10,` entries out of a registry block body.
fn parse_rank_entries(body: &str, levels: &mut BTreeMap<String, u16>) {
    let b = body.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if !(b[i].is_ascii_alphabetic() || b[i] == b'_') {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && is_ident(b[i]) {
            i += 1;
        }
        let name = &body[start..i];
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if b.get(i) != Some(&b'=') {
            continue;
        }
        i += 1;
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        let num_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if let Ok(level) = body[num_start..i].parse::<u16>() {
            levels.insert(name.to_string(), level);
        }
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Matches `{` at `open` to its closing `}` on masked text.
fn match_brace(b: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// The identifier ending at byte `end` of the masked text, if any.
fn ident_ending_at(mask: &str, end: usize) -> Option<(usize, String)> {
    let b = mask.as_bytes();
    let mut start = end;
    while start > 0 && is_ident(b[start - 1]) {
        start -= 1;
    }
    if start == end || b[start].is_ascii_digit() {
        None
    } else {
        Some((start, mask[start..end].to_string()))
    }
}

/// The field or `let` binding a wrapper constructor at `at` initializes:
/// `name: OrderedMutex::new(…)` or `let name = Arc::new(OrderedMutex::new(…))`.
/// Skips up to three levels of wrapping calls (`Arc::new(…)` etc.).
fn binding_before(mask: &str, mut at: usize) -> Option<String> {
    let b = mask.as_bytes();
    for _ in 0..4 {
        while at > 0 && b[at - 1].is_ascii_whitespace() {
            at -= 1;
        }
        if at == 0 {
            return None;
        }
        match b[at - 1] {
            // Struct-literal field init `name: …` (but not a path `::`).
            b':' => {
                if at >= 2 && b[at - 2] == b':' {
                    return None;
                }
                return ident_ending_at(mask, at - 1).map(|(_, n)| n);
            }
            // `let name = …`, `name = …`, `name := …`-style assignment.
            b'=' => {
                let mut j = at - 1;
                while j > 0 && b[j - 1].is_ascii_whitespace() {
                    j -= 1;
                }
                let (start, name) = ident_ending_at(mask, j)?;
                if name == "mut" {
                    return None;
                }
                // Skip a `mut` qualifier: `let mut name = …`.
                let _ = start;
                return Some(name);
            }
            // A wrapping call such as `Arc::new(` — skip its path and retry.
            b'(' => {
                at -= 1;
                while at > 0
                    && (is_ident(b[at - 1])
                        || b[at - 1] == b':'
                        || b[at - 1] == b'<'
                        || b[at - 1] == b'>')
                {
                    at -= 1;
                }
            }
            _ => return None,
        }
    }
    None
}

/// Lock bindings of one file: binding/field name → `(rank name, level)`.
fn lock_bindings(file: &SourceFile, table: &RankTable) -> BTreeMap<String, (String, u16)> {
    let mut out = BTreeMap::new();
    for ctor in ["OrderedMutex::new(", "OrderedRwLock::new("] {
        for off in file.find_marker(ctor, true) {
            let arg_start = off + ctor.len();
            let arg_end = file.mask[arg_start..]
                .find([',', ')'])
                .map_or(file.mask.len(), |i| arg_start + i);
            let arg = &file.mask[arg_start..arg_end];
            // The first path segment of the argument that names a rank.
            let Some(rank) = arg
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .find(|seg| table.levels.contains_key(*seg))
            else {
                continue;
            };
            let level = table.levels[rank];
            if let Some(name) = binding_before(&file.mask, off) {
                out.entry(name).or_insert((rank.to_string(), level));
            }
        }
    }
    out
}

/// One wrapper-lock acquisition site with its lexical live range.
#[derive(Debug, Clone)]
struct Acquisition {
    /// Offset of the `.` of the `.lock()`/`.read()`/`.write()` call.
    off: usize,
    /// Offset of the method identifier (used to exempt it from the call scan).
    method_off: usize,
    /// Rank name.
    rank: String,
    /// Rank level.
    level: u16,
    /// `.lock()` / `.write()` (true) vs `.read()` (false).
    exclusive: bool,
    /// End of the guard's lexical live range.
    live_end: usize,
}

/// End of the innermost block enclosing `off` (offset of its `}`).
fn enclosing_block_end(mask: &str, off: usize) -> usize {
    let b = mask.as_bytes();
    let mut depth = 0i32;
    let mut i = off;
    while i < b.len() {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    b.len()
}

/// If the acquisition at `recv_start` is `let`-bound, the guard name.
fn guard_binding(mask: &str, recv_start: usize) -> Option<String> {
    let b = mask.as_bytes();
    let mut at = recv_start;
    while at > 0 && b[at - 1].is_ascii_whitespace() {
        at -= 1;
    }
    if at == 0 || b[at - 1] != b'=' {
        return None;
    }
    // Exclude `==`, `+=`, `>=`, … compound operators.
    if at >= 2
        && matches!(
            b[at - 2],
            b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^'
        )
    {
        return None;
    }
    let mut j = at - 1;
    while j > 0 && b[j - 1].is_ascii_whitespace() {
        j -= 1;
    }
    let (start, name) = ident_ending_at(mask, j)?;
    let mut k = start;
    while k > 0 && b[k - 1].is_ascii_whitespace() {
        k -= 1;
    }
    // Skip a `mut` qualifier.
    if let Some((s2, q)) = ident_ending_at(mask, k) {
        if q == "mut" {
            k = s2;
            while k > 0 && b[k - 1].is_ascii_whitespace() {
                k -= 1;
            }
        }
    }
    match ident_ending_at(mask, k) {
        Some((_, kw)) if kw == "let" => Some(name),
        _ => None,
    }
}

/// Offset of a textual `drop(name)` after `from` and before `until`.
fn find_drop(file: &SourceFile, name: &str, from: usize, until: usize) -> Option<usize> {
    for off in file.find_marker("drop(", true) {
        if off <= from || off >= until {
            continue;
        }
        let arg_start = off + "drop(".len();
        let rest = &file.mask[arg_start..];
        let arg: String = rest.chars().take_while(|c| is_ident(*c as u8)).collect();
        if arg == name && rest[arg.len()..].starts_with(')') {
            return Some(off);
        }
    }
    None
}

/// All wrapper-lock acquisitions of one file (tests excluded).
fn acquisitions(file: &SourceFile, bindings: &BTreeMap<String, (String, u16)>) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for (pat, exclusive) in [(".lock()", true), (".write()", true), (".read()", false)] {
        for off in file.find_marker(pat, false) {
            if file.in_test(off) {
                continue;
            }
            let Some((recv_ident_start, recv)) = ident_ending_at(&file.mask, off) else {
                continue;
            };
            let Some((rank, level)) = bindings.get(&recv) else {
                continue;
            };
            // Start of the full receiver chain (`self.metrics` → `self`).
            let b = file.mask.as_bytes();
            let mut recv_start = recv_ident_start;
            while recv_start > 0 && (is_ident(b[recv_start - 1]) || b[recv_start - 1] == b'.') {
                recv_start -= 1;
            }
            // A chained call (`lock.lock().remove(…)`) or `?` means any
            // `let` binding captures the *result*, not the guard: the guard
            // itself is a temporary dropped at the end of the statement.
            let after = file.mask[off + pat.len()..]
                .chars()
                .find(|c| !c.is_whitespace());
            let chained = matches!(after, Some('.') | Some('?'));
            let live_end = match (chained, guard_binding(&file.mask, recv_start)) {
                (false, Some(guard)) => {
                    let block_end = enclosing_block_end(&file.mask, off);
                    find_drop(file, &guard, off, block_end).unwrap_or(block_end)
                }
                _ => {
                    // A temporary: lives to the end of its statement.
                    let stmt_end = file.mask[off..]
                        .find(';')
                        .map_or(file.mask.len(), |i| off + i);
                    stmt_end.min(enclosing_block_end(&file.mask, off))
                }
            };
            out.push(Acquisition {
                off,
                method_off: off + 1,
                rank: rank.clone(),
                level: *level,
                exclusive,
                live_end,
            });
        }
    }
    out.sort_by_key(|a| a.off);
    out
}

/// A call site: offset of the callee identifier plus its bare name.
#[derive(Debug, Clone)]
struct CallSite {
    off: usize,
    callee: String,
}

/// Call sites inside `lo..hi` of the masked text, restricted to names in
/// `fn_names`. Only two shapes resolve — free calls (`helper(…)`) and
/// `self.helper(…)` — because without type information, resolving arbitrary
/// method calls (`vec.push(…)`) or path calls (`AtomicU64::new(…)`) by bare
/// name drowns the analysis in std-library collisions. Skips definitions
/// (`fn name(`).
fn call_sites(
    file: &SourceFile,
    lo: usize,
    hi: usize,
    fn_names: &BTreeSet<String>,
) -> Vec<CallSite> {
    let b = file.mask.as_bytes();
    let mut out = Vec::new();
    let mut i = lo;
    while i < hi.min(b.len()) {
        if !(b[i].is_ascii_alphabetic() || b[i] == b'_') || (i > 0 && is_ident(b[i - 1])) {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && is_ident(b[i]) {
            i += 1;
        }
        let name = &file.mask[start..i];
        if b.get(i) != Some(&b'(') || !fn_names.contains(name) {
            continue;
        }
        // Path-qualified calls (`Type::name(`) never resolve: the type is
        // usually foreign (`Arc::new`), so a bare-name match is noise.
        if start >= 2 && &b[start - 2..start] == b"::" {
            continue;
        }
        // Method calls resolve only on a literal `self` receiver.
        if start >= 1 && b[start - 1] == b'.' {
            match ident_ending_at(&file.mask, start - 1) {
                Some((_, recv)) if recv == "self" => {}
                _ => continue,
            }
        }
        // Not a definition: the previous token must not be `fn`.
        if let Some((_, prev)) = prev_token(&file.mask, start) {
            if prev == "fn" {
                continue;
            }
        }
        out.push(CallSite {
            off: start,
            callee: name.to_string(),
        });
    }
    out
}

/// The identifier token immediately before byte `at`, if any.
fn prev_token(mask: &str, at: usize) -> Option<(usize, String)> {
    let b = mask.as_bytes();
    let mut j = at;
    while j > 0 && b[j - 1].is_ascii_whitespace() {
        j -= 1;
    }
    ident_ending_at(mask, j)
}

/// The extracted lock model of the workspace, shared by R7 and R8.
struct LockModel {
    table: RankTable,
    /// Per file (indexed as in `ws.files`): acquisition sites.
    acqs: Vec<Vec<Acquisition>>,
    /// Per file: call sites within each function body.
    fn_names: BTreeSet<String>,
    /// `(file index, fn offset)` → may-acquire set of `(rank, level)`.
    may_acquire: BTreeMap<(usize, usize), BTreeSet<(String, u16)>>,
    /// Bare fn name → identities.
    by_name: BTreeMap<String, Vec<(usize, usize)>>,
}

fn build_model(ws: &Workspace) -> LockModel {
    let table = parse_rank_table(ws);

    // Bindings: per-file maps override a workspace-global map (field names
    // like `stats` are file-local, but a binding such as the merge worker's
    // `mgr` is constructed in one file and locked in another).
    let per_file: Vec<BTreeMap<String, (String, u16)>> = ws
        .files
        .iter()
        .map(|f| {
            if is_wrapper_file(&f.path) {
                BTreeMap::new()
            } else {
                lock_bindings(f, &table)
            }
        })
        .collect();
    let mut global: BTreeMap<String, (String, u16)> = BTreeMap::new();
    for m in &per_file {
        for (k, v) in m {
            global.entry(k.clone()).or_insert_with(|| v.clone());
        }
    }

    let acqs: Vec<Vec<Acquisition>> = ws
        .files
        .iter()
        .enumerate()
        .map(|(i, f)| {
            if is_wrapper_file(&f.path) {
                return Vec::new();
            }
            let mut merged = global.clone();
            for (k, v) in &per_file[i] {
                merged.insert(k.clone(), v.clone());
            }
            acquisitions(f, &merged)
        })
        .collect();

    // Function universe (wrapper files excluded — `lock`/`read`/`write`
    // there are the wrappers themselves, not engine code). Only names with
    // exactly one definition resolve: a shared name (`new`, `get`, `push`)
    // is ambiguous without type information and would over-approximate.
    let mut by_name: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, f) in ws.files.iter().enumerate() {
        if is_wrapper_file(&f.path) {
            continue;
        }
        for fun in f.fns() {
            by_name
                .entry(fun.name.clone())
                .or_default()
                .push((fi, fun.offset));
        }
    }
    by_name.retain(|_, ids| ids.len() == 1);
    let fn_names: BTreeSet<String> = by_name.keys().cloned().collect();

    // Direct may-acquire sets.
    let mut may_acquire: BTreeMap<(usize, usize), BTreeSet<(String, u16)>> = BTreeMap::new();
    for (fi, f) in ws.files.iter().enumerate() {
        for a in &acqs[fi] {
            if let Some(fun) = f.enclosing_fn(a.off) {
                may_acquire
                    .entry((fi, fun.offset))
                    .or_default()
                    .insert((a.rank.clone(), a.level));
            }
        }
    }

    // Close over the call graph (bare-name resolution) to a fixpoint.
    loop {
        let mut changed = false;
        for (fi, f) in ws.files.iter().enumerate() {
            if is_wrapper_file(&f.path) {
                continue;
            }
            for fun in f.fns() {
                let Some((lo, hi)) = fun.body else { continue };
                let mut add: BTreeSet<(String, u16)> = BTreeSet::new();
                for call in call_sites(f, lo, hi, &fn_names) {
                    for id in by_name.get(&call.callee).into_iter().flatten() {
                        if let Some(set) = may_acquire.get(id) {
                            add.extend(set.iter().cloned());
                        }
                    }
                }
                if !add.is_empty() {
                    let entry = may_acquire.entry((fi, fun.offset)).or_default();
                    let before = entry.len();
                    entry.extend(add);
                    changed |= entry.len() > before;
                }
            }
        }
        if !changed {
            break;
        }
    }

    LockModel {
        table,
        acqs,
        fn_names,
        may_acquire,
        by_name,
    }
}

/// R7: lock-order soundness — every acquisition edge strictly ascends.
pub fn check_r7(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let model = build_model(ws);
    if model.table.levels.is_empty() {
        return diags;
    }

    let mut seen: BTreeSet<(usize, usize, String)> = BTreeSet::new();
    for (fi, file) in ws.files.iter().enumerate() {
        let acqs = &model.acqs[fi];
        for a in acqs {
            let Some(holder_fn) = file.enclosing_fn(a.off) else {
                continue;
            };
            // Direct edges: a later acquisition inside this guard's range.
            for b in acqs {
                if b.off <= a.off || b.off >= a.live_end {
                    continue;
                }
                if file.enclosing_fn(b.off).map(|f| f.offset) != Some(holder_fn.offset) {
                    continue;
                }
                if b.level > a.level {
                    continue;
                }
                if !seen.insert((fi, b.off, a.rank.clone())) {
                    continue;
                }
                diags.extend(marker_diag(
                    file,
                    Rule::R7,
                    b.off,
                    format!(
                        "acquiring `{}` (rank {}) while holding `{}` (rank {}) — \
                         lock ranks must strictly ascend",
                        b.rank, b.level, a.rank, a.level
                    ),
                    "reorder the acquisitions (or drop the outer guard first) so ranks \
                     ascend per the `lock_ranks!` registry; see DESIGN.md §13",
                ));
            }
            // Call edges: a callee that may acquire a non-ascending rank.
            let lo = a.off;
            let hi = a.live_end;
            for call in call_sites(file, lo, hi, &model.fn_names) {
                if call.off == a.method_off {
                    continue; // the acquisition itself
                }
                if file.enclosing_fn(call.off).map(|f| f.offset) != Some(holder_fn.offset) {
                    continue;
                }
                let mut offenders: BTreeSet<(String, u16)> = BTreeSet::new();
                for id in model.by_name.get(&call.callee).into_iter().flatten() {
                    for (rank, level) in model.may_acquire.get(id).into_iter().flatten() {
                        if *level <= a.level {
                            offenders.insert((rank.clone(), *level));
                        }
                    }
                }
                for (rank, level) in offenders {
                    if !seen.insert((fi, call.off, rank.clone())) {
                        continue;
                    }
                    diags.extend(marker_diag(
                        file,
                        Rule::R7,
                        call.off,
                        format!(
                            "calling `{}` (which may acquire `{}`, rank {}) while \
                             holding `{}` (rank {}) — lock ranks must strictly ascend",
                            call.callee, rank, level, a.rank, a.level
                        ),
                        "release the guard before the call, or restructure so the \
                         callee's locks rank above the held one; see DESIGN.md §13",
                    ));
                }
            }
        }
    }
    diags
}

/// Operations R8 considers blocking when reachable under a high write guard.
const BLOCKING_MARKERS: &[(&str, bool, &str)] = &[
    ("std::fs::", false, "file I/O"),
    (".recv()", false, "channel receive"),
    (".recv_timeout(", false, "channel receive"),
    (".wait_timeout(", false, "timed wait"),
    ("thread::sleep", false, "sleep"),
    (".accept(", false, "socket accept"),
    ("execute_stmt(", true, "statement execution"),
    ("execute_prepared(", true, "statement execution"),
];

/// R8: no blocking while locked — no file I/O, channel receive, timed wait,
/// sleep, accept, or statement execution inside the live range of a
/// write-exclusive guard ranked `CATALOG` or higher.
pub fn check_r8(ws: &Workspace) -> Vec<Diagnostic> {
    let model = build_model(ws);
    let Some(floor) = model.table.level("CATALOG") else {
        return Vec::new();
    };
    let mut diags = Vec::new();
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for a in &model.acqs[fi] {
            if !a.exclusive || a.level < floor {
                continue;
            }
            let (held_line, _) = file.line_col(a.off);
            for &(pat, word_start, label) in BLOCKING_MARKERS {
                for off in file.find_marker(pat, word_start) {
                    if off <= a.off || off >= a.live_end || file.in_test(off) {
                        continue;
                    }
                    if !seen.insert((fi, off)) {
                        continue;
                    }
                    diags.extend(marker_diag(
                        file,
                        Rule::R8,
                        off,
                        format!(
                            "{label} while holding the `{}` write guard (rank {}, \
                             acquired at line {held_line})",
                            a.rank, a.level
                        ),
                        "release the guard before blocking (copy what you need out of \
                         the critical section), or annotate \
                         `// analyze: allow(R8, why)`",
                    ));
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;
    use std::path::PathBuf;

    const REGISTRY: &str = "
pub mod ranks {
    lock_ranks! {
        /// Outer.
        ALPHA = 10,
        BETA = 20,
        CATALOG = 30,
    }
}
";

    fn ws(files: Vec<(&str, &str)>) -> Workspace {
        Workspace {
            files: files
                .into_iter()
                .map(|(p, s)| SourceFile::new(PathBuf::from(p), s.to_string()))
                .collect(),
            parallel_test: None,
        }
    }

    #[test]
    fn rank_table_parses_registry_entries() {
        let w = ws(vec![("crates/obs/src/sync.rs", REGISTRY)]);
        let t = parse_rank_table(&w);
        assert_eq!(t.level("ALPHA"), Some(10));
        assert_eq!(t.level("BETA"), Some(20));
        assert_eq!(t.level("CATALOG"), Some(30));
        assert_eq!(t.levels.len(), 3);
    }

    #[test]
    fn bindings_come_from_fields_lets_and_arc_wrappers() {
        let src = "
struct S { a: OrderedMutex<u8> }
fn build() {
    let s = S { a: OrderedMutex::new(ranks::ALPHA, 0) };
    let shared = Arc::new(OrderedRwLock::new(ranks::BETA, 1u8));
}
";
        let w = ws(vec![
            ("crates/obs/src/sync.rs", REGISTRY),
            ("crates/core/src/x.rs", src),
        ]);
        let t = parse_rank_table(&w);
        let b = lock_bindings(&w.files[1], &t);
        assert_eq!(b.get("a"), Some(&("ALPHA".to_string(), 10)));
        assert_eq!(b.get("shared"), Some(&("BETA".to_string(), 20)));
    }

    #[test]
    fn r7_flags_a_direct_inversion_naming_both_ranks() {
        let src = "
struct S { lo: OrderedMutex<u8>, hi: OrderedMutex<u8> }
impl S {
    fn new() -> S { S { lo: OrderedMutex::new(ranks::ALPHA, 0), hi: OrderedMutex::new(ranks::BETA, 0) } }
    fn inverted(&self) {
        let g = self.hi.lock();
        let h = self.lo.lock();
    }
}
";
        let w = ws(vec![
            ("crates/obs/src/sync.rs", REGISTRY),
            ("crates/core/src/x.rs", src),
        ]);
        let d = check_r7(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`ALPHA` (rank 10)"), "{d:?}");
        assert!(d[0].message.contains("`BETA` (rank 20)"), "{d:?}");
    }

    #[test]
    fn r7_accepts_ascending_order_and_drop_released_guards() {
        let src = "
struct S { lo: OrderedMutex<u8>, hi: OrderedMutex<u8> }
impl S {
    fn new() -> S { S { lo: OrderedMutex::new(ranks::ALPHA, 0), hi: OrderedMutex::new(ranks::BETA, 0) } }
    fn ascending(&self) {
        let g = self.lo.lock();
        let h = self.hi.lock();
    }
    fn sequenced(&self) {
        let g = self.hi.lock();
        drop(g);
        let h = self.lo.lock();
    }
}
";
        let w = ws(vec![
            ("crates/obs/src/sync.rs", REGISTRY),
            ("crates/core/src/x.rs", src),
        ]);
        let d = check_r7(&w);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn r7_follows_the_call_graph() {
        let src = "
struct S { lo: OrderedMutex<u8>, hi: OrderedMutex<u8> }
impl S {
    fn new() -> S { S { lo: OrderedMutex::new(ranks::ALPHA, 0), hi: OrderedMutex::new(ranks::BETA, 0) } }
    fn take_low(&self) { let g = self.lo.lock(); }
    fn bad(&self) {
        let g = self.hi.lock();
        self.take_low();
    }
}
";
        let w = ws(vec![
            ("crates/obs/src/sync.rs", REGISTRY),
            ("crates/core/src/x.rs", src),
        ]);
        let d = check_r7(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("take_low"), "{d:?}");
        assert!(d[0].message.contains("may acquire `ALPHA`"), "{d:?}");
    }

    #[test]
    fn r7_allows_annotated_sites() {
        let src = "
struct S { lo: OrderedMutex<u8>, hi: OrderedMutex<u8> }
impl S {
    fn new() -> S { S { lo: OrderedMutex::new(ranks::ALPHA, 0), hi: OrderedMutex::new(ranks::BETA, 0) } }
    fn inverted(&self) {
        let g = self.hi.lock();
        // analyze: allow(R7, proven single-threaded during startup)
        let h = self.lo.lock();
    }
}
";
        let w = ws(vec![
            ("crates/obs/src/sync.rs", REGISTRY),
            ("crates/core/src/x.rs", src),
        ]);
        let d = check_r7(&w);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn r8_flags_file_io_under_a_catalog_write_guard() {
        let src = "
struct S { state: OrderedRwLock<u8> }
impl S {
    fn new() -> S { S { state: OrderedRwLock::new(ranks::CATALOG, 0) } }
    fn bad(&self) {
        let mut g = self.state.write();
        let bytes = std::fs::read(\"x\");
    }
    fn fine(&self) {
        let bytes = std::fs::read(\"x\");
        let mut g = self.state.write();
    }
    fn read_only(&self) {
        let g = self.state.read();
        let bytes = std::fs::read(\"x\");
    }
}
";
        let w = ws(vec![
            ("crates/obs/src/sync.rs", REGISTRY),
            ("crates/query/src/x.rs", src),
        ]);
        let d = check_r8(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("file I/O"), "{d:?}");
        assert!(d[0].message.contains("`CATALOG` write guard"), "{d:?}");
    }

    #[test]
    fn r8_ignores_guards_below_the_catalog_floor() {
        let src = "
struct S { m: OrderedMutex<u8> }
impl S {
    fn new() -> S { S { m: OrderedMutex::new(ranks::ALPHA, 0) } }
    fn ok(&self) {
        let g = self.m.lock();
        let bytes = std::fs::read(\"x\");
    }
}
";
        let w = ws(vec![
            ("crates/obs/src/sync.rs", REGISTRY),
            ("crates/query/src/x.rs", src),
        ]);
        assert!(check_r8(&w).is_empty());
    }
}
