//! Minimal Rust source model for the analyzer.
//!
//! The workspace deliberately carries no external dependencies, so instead
//! of `syn` this module implements the small slice of Rust lexing the rules
//! need: masking comments and literals out of the text, locating
//! `#[cfg(test)]`/`#[test]` regions, function spans with signatures, and
//! `// analyze: allow(...)` annotations.
//!
//! Masking preserves byte offsets exactly — every byte of a comment or
//! literal body is replaced with a space (newlines are kept) — so offsets
//! into the masked text index the original source directly.

use std::path::PathBuf;

/// A `// analyze: allow(Rn, justification)` annotation.
#[derive(Debug, Clone)]
pub struct AllowComment {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// The rule code inside `allow(...)`, e.g. `R3`.
    pub rule: String,
    /// Free-text justification after the closing paren (may be empty,
    /// which rule R1 treats as a violation of its own).
    pub justification: String,
}

/// One `fn` item: name, signature info, and body span.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function name.
    pub name: String,
    /// Byte offset of the `fn` keyword.
    pub offset: usize,
    /// Whether the function is `pub` (including `pub(crate)` etc.).
    pub is_pub: bool,
    /// The return type text (empty for `()` functions and declarations).
    pub ret: String,
    /// Body span `(open_brace, close_brace)`; `None` for trait/extern
    /// declarations ending in `;`.
    pub body: Option<(usize, usize)>,
}

/// A parsed source file: raw text, masked text, and derived structure.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (used in diagnostics).
    pub path: PathBuf,
    /// The original source text.
    pub raw: String,
    /// The source with comments and literal bodies blanked to spaces.
    pub mask: String,
    line_starts: Vec<usize>,
    test_regions: Vec<(usize, usize)>,
    allows: Vec<AllowComment>,
    fns: Vec<FnSpan>,
}

impl SourceFile {
    /// Parses `raw` into a source model.
    pub fn new(path: PathBuf, raw: String) -> SourceFile {
        let (mask, comments) = mask_source(&raw);
        let line_starts = line_starts(&raw);
        let test_regions = find_test_regions(&mask);
        let fns = find_fns(&mask);
        let allows = comments
            .iter()
            .filter_map(|&(off, ref text)| parse_allow(text).map(|(rule, j)| (off, rule, j)))
            .map(|(off, rule, justification)| AllowComment {
                line: offset_line(&line_starts, off),
                rule,
                justification,
            })
            .collect();
        SourceFile {
            path,
            raw,
            mask,
            line_starts,
            test_regions,
            allows,
            fns,
        }
    }

    /// 1-based `(line, column)` of a byte offset.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let line = offset_line(&self.line_starts, offset);
        let col = offset - self.line_starts[line - 1] + 1;
        (line, col)
    }

    /// The raw text of a 1-based line, without the trailing newline.
    pub fn line_text(&self, line: usize) -> &str {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map_or(self.raw.len(), |&next| next);
        self.raw[start..end].trim_end_matches(['\n', '\r'])
    }

    /// True if `offset` falls inside a `#[cfg(test)]`/`#[test]` item.
    pub fn in_test(&self, offset: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| offset >= lo && offset < hi)
    }

    /// Lines of non-test code: the masked line (comments and literal bodies
    /// blanked) still has a non-blank byte, and that byte lies outside
    /// every `#[cfg(test)]`/`#[test]` item body.
    pub fn code_lines(&self) -> usize {
        let mask = self.mask.as_bytes();
        let ends = self.line_starts.iter().skip(1).copied();
        self.line_starts
            .iter()
            .zip(ends.chain([mask.len()]))
            .filter(|&(&start, end)| {
                mask[start..end]
                    .iter()
                    .position(|b| !b.is_ascii_whitespace())
                    .is_some_and(|i| !self.in_test(start + i))
            })
            .count()
    }

    /// The `analyze: allow(rule, …)` annotation covering a 1-based line, if any
    /// (same line or the immediately preceding line).
    pub fn allow_for(&self, line: usize, rule: &str) -> Option<&AllowComment> {
        self.allows
            .iter()
            .find(|a| a.rule == rule && a.line == line)
            .or_else(|| {
                self.allows
                    .iter()
                    .find(|a| a.rule == rule && a.line + 1 == line)
            })
    }

    /// All function spans.
    pub fn fns(&self) -> &[FnSpan] {
        &self.fns
    }

    /// The innermost function whose body contains `offset`.
    pub fn enclosing_fn(&self, offset: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(lo, hi)| offset > lo && offset < hi))
            .max_by_key(|f| f.body.map(|(lo, _)| lo))
    }

    /// Offsets of every occurrence of `pat` in the masked text. With
    /// `word_start`, the match must not be preceded by an identifier
    /// character (so `panic!` does not match `core_panic!`).
    pub fn find_marker(&self, pat: &str, word_start: bool) -> Vec<usize> {
        let mut out = Vec::new();
        let bytes = self.mask.as_bytes();
        let mut from = 0;
        while let Some(rel) = self.mask[from..].find(pat) {
            let off = from + rel;
            let ok = !word_start
                || off == 0
                || !(bytes[off - 1].is_ascii_alphanumeric() || bytes[off - 1] == b'_');
            if ok {
                out.push(off);
            }
            from = off + pat.len();
        }
        out
    }
}

/// Blanks comments and literal bodies out of `raw`, byte for byte, and
/// returns the masked text plus every comment as `(offset, text)`.
pub fn mask_source(raw: &str) -> (String, Vec<(usize, String)>) {
    let b = raw.as_bytes();
    let mut out = b.to_vec();
    let mut comments = Vec::new();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                comments.push((start, raw[start..i].to_string()));
                blank(&mut out, start, i);
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                comments.push((start, raw[start..i].to_string()));
                blank(&mut out, start, i);
            }
            b'"' => i = scan_string(b, &mut out, i),
            b'r' | b'b' if is_raw_string_start(b, i) => i = scan_raw_string(b, &mut out, i),
            b'b' if b.get(i + 1) == Some(&b'"') && !prev_is_ident(b, i) => {
                i = scan_string(b, &mut out, i + 1);
            }
            b'\'' => i = scan_char_or_lifetime(b, &mut out, i),
            _ => i += 1,
        }
    }
    // Blanking only wrote ASCII spaces over existing bytes, so the result
    // is valid UTF-8 whenever the input was.
    let masked = String::from_utf8(out)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    (masked, comments)
}

/// Overwrites `out[lo..hi]` with spaces, preserving newlines.
fn blank(out: &mut [u8], lo: usize, hi: usize) {
    let hi = hi.min(out.len());
    for byte in &mut out[lo..hi] {
        if *byte != b'\n' && *byte != b'\r' {
            *byte = b' ';
        }
    }
}

fn prev_is_ident(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

/// `r"`, `r#"`, `br"`, `br##"` … at position `i`?
fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    if prev_is_ident(b, i) {
        return false;
    }
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if b.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while b.get(j) == Some(&b'#') {
        j += 1;
    }
    b.get(j) == Some(&b'"')
}

/// Scans a `"…"` literal starting at the opening quote; blanks the body.
fn scan_string(b: &[u8], out: &mut [u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => {
                blank(out, j, (j + 2).min(b.len()));
                j += 2;
            }
            b'"' => {
                return j + 1;
            }
            _ => {
                blank(out, j, j + 1);
                j += 1;
            }
        }
    }
    j
}

/// Scans a raw string literal starting at `r`/`b`; blanks the body.
fn scan_raw_string(b: &[u8], out: &mut [u8], i: usize) -> usize {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    j += 1; // the `r`
    let mut hashes = 0usize;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // the opening quote
    let body_start = j;
    while j < b.len() {
        if b[j] == b'"'
            && b[j + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == b'#')
                .count()
                == hashes
        {
            blank(out, body_start, j);
            return j + 1 + hashes;
        }
        j += 1;
    }
    blank(out, body_start, j);
    j
}

/// Distinguishes a char literal (blank it) from a lifetime (leave it).
fn scan_char_or_lifetime(b: &[u8], out: &mut [u8], i: usize) -> usize {
    match b.get(i + 1) {
        Some(b'\\') => {
            // Escaped char literal: blank to the closing quote.
            let mut j = i + 2;
            while j < b.len() && b[j] != b'\'' {
                j += 1;
            }
            blank(out, i + 1, j);
            j + 1
        }
        Some(&c) if c != b'\'' => {
            // `'x'` (possibly multibyte) is a char literal; `'ident` with no
            // closing quote within the char width is a lifetime.
            let width = utf8_width(c);
            if b.get(i + 1 + width) == Some(&b'\'') {
                blank(out, i + 1, i + 1 + width);
                i + 2 + width
            } else {
                i + 1
            }
        }
        _ => i + 1,
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn line_starts(raw: &str) -> Vec<usize> {
    let mut v = vec![0usize];
    for (i, c) in raw.bytes().enumerate() {
        if c == b'\n' {
            v.push(i + 1);
        }
    }
    v
}

fn offset_line(line_starts: &[usize], offset: usize) -> usize {
    match line_starts.binary_search(&offset) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

/// Test-marking attributes: everything under them is exempt from the rules.
const TEST_ATTRS: &[&str] = &[
    "#[cfg(test)]",
    "#[cfg(all(test",
    "#[cfg(any(test",
    "#[test]",
    "#[bench]",
];

/// Finds the byte spans of items annotated with a test attribute.
fn find_test_regions(mask: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    for attr in TEST_ATTRS {
        let mut from = 0;
        while let Some(rel) = mask[from..].find(attr) {
            let at = from + rel;
            from = at + attr.len();
            if let Some(span) = item_span_after(mask, at + attr.len()) {
                regions.push(span);
            }
        }
    }
    regions
}

/// From just past an attribute, skips further attributes and finds the
/// annotated item's body span. Returns `None` for `;`-terminated items.
fn item_span_after(mask: &str, mut at: usize) -> Option<(usize, usize)> {
    let b = mask.as_bytes();
    // Skip whitespace and any further `#[...]` attributes.
    loop {
        while at < b.len() && b[at].is_ascii_whitespace() {
            at += 1;
        }
        if at + 1 < b.len() && b[at] == b'#' && b[at + 1] == b'[' {
            let mut depth = 0usize;
            while at < b.len() {
                match b[at] {
                    b'[' => depth += 1,
                    b']' => {
                        depth -= 1;
                        if depth == 0 {
                            at += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                at += 1;
            }
        } else {
            break;
        }
    }
    // The first top-level `{` opens the item body; a `;` first means a
    // bodiless item (e.g. `#[cfg(test)] use …`).
    let mut paren = 0i32;
    while at < b.len() {
        match b[at] {
            b'(' => paren += 1,
            b')' => paren -= 1,
            b';' if paren == 0 => return None,
            b'{' if paren == 0 => {
                let end = match_brace(b, at)?;
                return Some((at, end));
            }
            _ => {}
        }
        at += 1;
    }
    None
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

/// Locates every `fn` item in the masked text.
fn find_fns(mask: &str) -> Vec<FnSpan> {
    let b = mask.as_bytes();
    let mut fns = Vec::new();
    let mut from = 0;
    while let Some(rel) = mask[from..].find("fn ") {
        let at = from + rel;
        from = at + 3;
        if prev_is_ident(b, at) {
            continue;
        }
        // Name.
        let mut j = at + 3;
        while j < b.len() && b[j].is_ascii_whitespace() {
            j += 1;
        }
        let name_start = j;
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        if j == name_start {
            continue; // `fn` in `Fn(…)` trait position etc.
        }
        let name = mask[name_start..j].to_string();
        // Signature: find the params `(…)`, then scan for `->`, `{`, or `;`.
        let (ret, body) = parse_sig(b, mask, j);
        fns.push(FnSpan {
            name,
            offset: at,
            is_pub: is_pub_before(mask, at),
            ret,
            body,
        });
    }
    fns
}

/// Parses from just past the fn name: returns (return type text, body span).
fn parse_sig(b: &[u8], mask: &str, mut j: usize) -> (String, Option<(usize, usize)>) {
    // Skip generics to the parameter list.
    let mut angle = 0i32;
    while j < b.len() {
        match b[j] {
            b'<' => angle += 1,
            b'>' => angle -= 1,
            b'(' if angle <= 0 => break,
            _ => {}
        }
        j += 1;
    }
    // Match the parameter parens.
    let mut paren = 0i32;
    let mut close = j;
    while close < b.len() {
        match b[close] {
            b'(' => paren += 1,
            b')' => {
                paren -= 1;
                if paren == 0 {
                    break;
                }
            }
            _ => {}
        }
        close += 1;
    }
    // Between `)` and the body: the optional `-> Ret` and `where` clause.
    let mut k = close + 1;
    let mut ret_start = None;
    let mut paren2 = 0i32;
    while k < b.len() {
        match b[k] {
            b'(' | b'[' => paren2 += 1,
            b')' | b']' => paren2 -= 1,
            b'-' if b.get(k + 1) == Some(&b'>') && ret_start.is_none() && paren2 == 0 => {
                ret_start = Some(k + 2);
            }
            b';' if paren2 == 0 => {
                let ret = ret_text(mask, ret_start, k);
                return (ret, None);
            }
            b'{' if paren2 == 0 => {
                let ret = ret_text(mask, ret_start, k);
                let body = match_brace(b, k).map(|end| (k, end));
                return (ret, body);
            }
            _ => {}
        }
        k += 1;
    }
    (String::new(), None)
}

fn ret_text(mask: &str, ret_start: Option<usize>, end: usize) -> String {
    let Some(start) = ret_start else {
        return String::new();
    };
    let text = &mask[start..end];
    let text = text.split(" where ").next().unwrap_or(text);
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Looks backwards from the `fn` keyword for a `pub` qualifier, skipping
/// `const`/`unsafe`/`async`/`extern "…"` in between.
fn is_pub_before(mask: &str, at: usize) -> bool {
    let start = at.saturating_sub(80);
    let before = &mask[start..at];
    let mut toks: Vec<&str> = before.split_whitespace().collect();
    while let Some(&last) = toks.last() {
        if last == "const"
            || last == "unsafe"
            || last == "async"
            || last == "extern"
            || last.starts_with('"')
        {
            toks.pop();
        } else {
            break;
        }
    }
    toks.last()
        .is_some_and(|t| *t == "pub" || t.starts_with("pub("))
}

/// Parses an `analyze: allow(Rn, justification)` comment.
fn parse_allow(comment: &str) -> Option<(String, String)> {
    let idx = comment.find("analyze: allow(")?;
    let rest = &comment[idx + "analyze: allow(".len()..];
    let body = &rest[..rest.rfind(')')?];
    let (rule, justification) = body.split_once(',').unwrap_or((body, ""));
    Some((rule.trim().to_string(), justification.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sf(src: &str) -> SourceFile {
        SourceFile::new(PathBuf::from("test.rs"), src.to_string())
    }

    #[test]
    fn masks_line_and_block_comments() {
        let f = sf("let x = 1; // unwrap() here\n/* panic! \n inside */ let y = 2;\n");
        assert!(!f.mask.contains("unwrap"));
        assert!(!f.mask.contains("panic"));
        assert!(f.mask.contains("let y = 2;"));
        assert_eq!(f.mask.len(), f.raw.len());
    }

    #[test]
    fn masks_string_and_char_literals_but_not_lifetimes() {
        let f = sf(r#"let s = "call .unwrap() now"; let c = '"'; fn g<'a>(x: &'a str) {}"#);
        assert!(!f.mask.contains(".unwrap()"));
        assert!(f.mask.contains("<'a>"), "lifetime preserved: {}", f.mask);
        assert!(f.mask.contains("&'a str"));
    }

    #[test]
    fn masks_raw_strings_and_escapes() {
        let f = sf("let a = r#\"panic! \"# ; let b = \"esc \\\" panic!\";\n");
        assert!(!f.mask.contains("panic"));
        assert_eq!(f.mask.len(), f.raw.len());
    }

    #[test]
    fn code_lines_skip_blanks_comments_and_test_bodies() {
        let f = sf("//! Docs.\n\nuse std::fmt; // trailing\n\n/// Doc.\nfn f() {\n    /* block\n       comment */\n    g();\n}\n\n\
                    #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        f();\n    }\n}\n");
        // `use`, `fn f() {`, `g();`, `}` and the test module's own three
        // lines (`#[cfg(test)]`, `mod tests {`, `}`); nothing inside it.
        assert_eq!(f.code_lines(), 7);
    }

    #[test]
    fn cfg_test_region_covers_mod_body() {
        let src =
            "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let f = sf(src);
        let live = f.find_marker(".unwrap()", false);
        assert_eq!(live.len(), 2);
        assert!(!f.in_test(live[0]));
        assert!(f.in_test(live[1]));
    }

    #[test]
    fn test_attr_on_fn_is_exempt() {
        let src = "#[test]\nfn check() { z.unwrap(); }\nfn live() { w.unwrap(); }\n";
        let f = sf(src);
        let hits = f.find_marker(".unwrap()", false);
        assert!(f.in_test(hits[0]));
        assert!(!f.in_test(hits[1]));
    }

    #[test]
    fn fn_spans_capture_name_pub_and_ret() {
        let src = "pub fn a(x: u8) -> Result<u8> { x }\nfn b() {}\npub(crate) const fn c() -> Option<i64> { None }\n";
        let f = sf(src);
        let fns = f.fns();
        assert_eq!(fns.len(), 3);
        assert!(fns[0].is_pub && fns[0].name == "a" && fns[0].ret == "Result<u8>");
        assert!(!fns[1].is_pub);
        assert!(fns[2].is_pub && fns[2].ret == "Option<i64>");
    }

    #[test]
    fn enclosing_fn_picks_innermost() {
        let src = "fn outer() {\n    fn inner() { q.unwrap(); }\n}\n";
        let f = sf(src);
        let hit = f.find_marker(".unwrap()", false)[0];
        assert_eq!(f.enclosing_fn(hit).map(|x| x.name.as_str()), Some("inner"));
    }

    #[test]
    fn analyze_allow_comments_parse_code_and_reason() {
        let src = "x.lock(); // analyze: allow(R7, proven single-threaded (startup))\n\
                   y.lock(); // analyze: allow(R8)\n";
        let f = sf(src);
        let a = f.allow_for(1, "R7").expect("allow on line 1");
        assert_eq!(a.justification, "proven single-threaded (startup)");
        let b = f.allow_for(2, "R8").expect("allow on line 2");
        assert!(b.justification.is_empty());
        assert!(f.allow_for(1, "R8").is_none());
    }

    #[test]
    fn word_start_marker_respects_boundaries() {
        let f = sf("my_panic!(); panic!(\"x\");\n");
        assert_eq!(f.find_marker("panic!", true).len(), 1);
    }

    #[test]
    fn line_col_and_text() {
        let f = sf("abc\ndef ghi\n");
        let off = f.raw.find("ghi").expect("ghi");
        assert_eq!(f.line_col(off), (2, 5));
        assert_eq!(f.line_text(2), "def ghi");
    }
}
