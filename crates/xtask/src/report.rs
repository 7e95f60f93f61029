//! Diagnostic rendering: rustc-style text and a machine-readable JSON
//! report (hand-rolled emitter — the analyzer is dependency-free).

use crate::rules::{Diagnostic, Rule};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders one diagnostic in rustc style:
///
/// ```text
/// error[R1]: forbidden panic marker `.unwrap()` in non-test library code
///   --> crates/core/src/array.rs:442:34
///    |  self.chunks.get_mut(&origin).unwrap()
///    = help: return a typed `Error` with context instead
/// ```
pub fn render_text(d: &Diagnostic) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "error[{}]: {}", d.rule.code(), d.message);
    let _ = writeln!(s, "  --> {}:{}:{}", d.path, d.line, d.col);
    let snippet = d.snippet.trim_end();
    if !snippet.is_empty() {
        let _ = writeln!(s, "   |  {}", snippet.trim());
    }
    let _ = writeln!(s, "   = help: {}", d.help);
    s
}

/// JSON string escaping per RFC 8259.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable report:
///
/// ```json
/// {"tool":"xtask-analyze","errors":N,
///  "by_rule":{"R1":0, …, "R8":0},
///  "loc":{"core":12345, …},
///  "diagnostics":[{"rule":"R1","path":"…","line":1,"col":1,
///                  "message":"…","help":"…"}, …]}
/// ```
///
/// `by_rule` always lists every rule (zeros included) so CI dashboards get
/// a stable schema. `loc` is [`crate::loc_table`]: non-blank, non-comment,
/// non-test source lines per crate.
pub fn render_json(diags: &[Diagnostic], loc: &BTreeMap<String, usize>) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"tool\":\"xtask-analyze\",\"errors\":{},\"by_rule\":{{",
        diags.len()
    );
    for (i, rule) in Rule::ALL.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let n = diags.iter().filter(|d| d.rule == *rule).count();
        let _ = write!(s, "\"{}\":{n}", rule.code());
    }
    s.push_str("},\"loc\":{");
    for (i, (name, lines)) in loc.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":{lines}", esc(name));
    }
    s.push_str("},\"diagnostics\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\
             \"message\":\"{}\",\"help\":\"{}\"}}",
            d.rule.code(),
            esc(&d.path),
            d.line,
            d.col,
            esc(&d.message),
            esc(&d.help),
        );
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: Rule, path: &str, line: usize) -> Diagnostic {
        Diagnostic {
            rule,
            path: path.to_string(),
            line,
            col: 5,
            message: "msg \"quoted\"".to_string(),
            snippet: "let x = y.unwrap();".to_string(),
            help: "help".to_string(),
        }
    }

    #[test]
    fn text_render_is_rustc_style() {
        let t = render_text(&diag(Rule::R1, "a.rs", 3));
        assert!(t.starts_with("error[R1]: msg"));
        assert!(t.contains("--> a.rs:3:5"));
        assert!(t.contains("= help: help"));
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let d = vec![diag(Rule::R1, "a.rs", 1), diag(Rule::R3, "b\\c.rs", 2)];
        let loc = BTreeMap::from([("core".to_string(), 120), ("query".to_string(), 45)]);
        let j = render_json(&d, &loc);
        assert!(j.contains("\"loc\":{\"core\":120,\"query\":45},"), "{j}");
        assert!(j.contains("\"errors\":2"));
        assert!(
            j.contains("\"by_rule\":{\"R1\":1,\"R2\":0,\"R3\":1,"),
            "{j}"
        );
        assert!(j.contains("\"R8\":0}"), "{j}");
        assert!(j.contains("msg \\\"quoted\\\""));
        assert!(j.contains("b\\\\c.rs"));
        assert!(j.starts_with('{') && j.ends_with('}'));
    }
}
