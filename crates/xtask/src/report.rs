//! Diagnostic rendering: rustc-style text and a machine-readable JSON
//! report (hand-rolled emitter — the analyzer is dependency-free).

use crate::baseline::{BucketStatus, Comparison};
use crate::rules::Diagnostic;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Severity assigned after baseline comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Above baseline: fails the run.
    Error,
    /// Grandfathered by the baseline.
    Warning,
}

impl Severity {
    fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// Splits diagnostics into (errors, warnings) per the comparison: within a
/// `(rule, file)` bucket the first `allowed` hits (in line order) are
/// grandfathered warnings and the rest are errors.
pub fn classify(diags: &[Diagnostic], cmp: &Comparison) -> Vec<(Severity, Diagnostic)> {
    let mut budget: std::collections::BTreeMap<(crate::rules::Rule, &str), usize> = cmp
        .buckets
        .iter()
        .map(|((rule, path), status)| {
            let allowed = match *status {
                BucketStatus::New { allowed, .. } => allowed,
                BucketStatus::Grandfathered { found } => found,
                BucketStatus::Stale { allowed, .. } => allowed,
            };
            ((*rule, path.as_str()), allowed)
        })
        .collect();
    diags
        .iter()
        .map(|d| {
            let slot = budget.get_mut(&(d.rule, d.path.as_str()));
            match slot {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    (Severity::Warning, d.clone())
                }
                _ => (Severity::Error, d.clone()),
            }
        })
        .collect()
}

/// Renders one diagnostic in rustc style:
///
/// ```text
/// error[R1]: forbidden panic marker `.unwrap()` in non-test library code
///   --> crates/core/src/array.rs:442:34
///    |  self.chunks.get_mut(&origin).unwrap()
///    = help: return a typed `Error` with context instead
/// ```
pub fn render_text(sev: Severity, d: &Diagnostic) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{}[{}]: {}", sev.as_str(), d.rule.code(), d.message);
    let _ = writeln!(s, "  --> {}:{}:{}", d.path, d.line, d.col);
    let snippet = d.snippet.trim_end();
    if !snippet.is_empty() {
        let _ = writeln!(s, "   |  {}", snippet.trim());
    }
    let _ = writeln!(s, "   = help: {}", d.help);
    s
}

/// Renders the run summary (new / grandfathered / stale buckets).
pub fn render_summary(cmp: &Comparison, n_errors: usize, n_warnings: usize) -> String {
    let mut s = String::new();
    if n_errors > 0 {
        let _ = writeln!(
            s,
            "error: {n_errors} new violation(s) above baseline ({n_warnings} grandfathered)"
        );
    } else if n_warnings > 0 {
        let _ = writeln!(
            s,
            "ok: no new violations ({n_warnings} grandfathered warnings)"
        );
    } else {
        let _ = writeln!(s, "ok: no violations");
    }
    let stale: Vec<String> = cmp
        .buckets
        .iter()
        .filter_map(|((rule, path), status)| match *status {
            BucketStatus::Stale { found, allowed } => Some(format!(
                "  {} {}: baseline allows {allowed}, found {found}",
                rule.code(),
                path
            )),
            _ => None,
        })
        .collect();
    if !stale.is_empty() {
        let _ = writeln!(
            s,
            "note: baseline is stale (counts are monotonically non-increasing);\n\
             run `cargo xtask analyze --update-baseline` to ratchet down:"
        );
        for line in stale {
            let _ = writeln!(s, "{line}");
        }
    }
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
/// {"tool":"xtask-analyze","errors":N,"warnings":N,
///  "by_rule":{"R1":{"errors":0,"warnings":10}, …},
///  "loc":{"core":12345, …},
///  "diagnostics":[{"rule":"R1","severity":"error","path":"…","line":1,
///                  "col":1,"message":"…","help":"…"}, …]}
/// ```
///
/// `by_rule` always lists every rule (zeros included) so CI dashboards get
/// a stable schema. `loc` is [`crate::loc_table`]: non-blank, non-comment,
/// non-test source lines per crate.
pub fn render_json(classified: &[(Severity, Diagnostic)], loc: &BTreeMap<String, usize>) -> String {
    let n_err = classified
        .iter()
        .filter(|(s, _)| *s == Severity::Error)
        .count();
    let n_warn = classified.len() - n_err;
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"tool\":\"xtask-analyze\",\"errors\":{n_err},\"warnings\":{n_warn},\"by_rule\":{{"
    );
    for (i, rule) in crate::rules::Rule::ALL.iter().enumerate() {
        let errs = classified
            .iter()
            .filter(|(sev, d)| d.rule == *rule && *sev == Severity::Error)
            .count();
        let warns = classified
            .iter()
            .filter(|(sev, d)| d.rule == *rule && *sev == Severity::Warning)
            .count();
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"{}\":{{\"errors\":{errs},\"warnings\":{warns}}}",
            rule.code()
        );
    }
    s.push_str("},\"loc\":{");
    for (i, (name, lines)) in loc.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":{lines}", esc(name));
    }
    s.push_str("},\"diagnostics\":[");
    for (i, (sev, d)) in classified.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"rule\":\"{}\",\"severity\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\
             \"message\":\"{}\",\"help\":\"{}\"}}",
            d.rule.code(),
            sev.as_str(),
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
    use crate::baseline::Baseline;
    use crate::rules::{Diagnostic, Rule};

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
    fn classify_grandfathers_first_n_in_line_order() {
        let diags = vec![
            diag(Rule::R1, "a.rs", 1),
            diag(Rule::R1, "a.rs", 9),
            diag(Rule::R1, "a.rs", 20),
        ];
        let base = Baseline::parse("R1\ta.rs\t2\n").unwrap();
        let cmp = base.compare(&diags);
        let c = classify(&diags, &cmp);
        assert_eq!(c[0].0, Severity::Warning);
        assert_eq!(c[1].0, Severity::Warning);
        assert_eq!(c[2].0, Severity::Error);
    }

    #[test]
    fn text_render_is_rustc_style() {
        let t = render_text(Severity::Error, &diag(Rule::R1, "a.rs", 3));
        assert!(t.starts_with("error[R1]: msg"));
        assert!(t.contains("--> a.rs:3:5"));
        assert!(t.contains("= help: help"));
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let c = vec![
            (Severity::Error, diag(Rule::R1, "a.rs", 1)),
            (Severity::Warning, diag(Rule::R3, "b\\c.rs", 2)),
        ];
        let loc = BTreeMap::from([("core".to_string(), 120), ("query".to_string(), 45)]);
        let j = render_json(&c, &loc);
        assert!(j.contains("\"loc\":{\"core\":120,\"query\":45},"), "{j}");
        assert!(j.contains("\"errors\":1"));
        assert!(j.contains("\"warnings\":1"));
        assert!(
            j.contains("\"by_rule\":{\"R1\":{\"errors\":1,\"warnings\":0}"),
            "{j}"
        );
        assert!(j.contains("\"R3\":{\"errors\":0,\"warnings\":1}"), "{j}");
        assert!(j.contains("\"R8\":{\"errors\":0,\"warnings\":0}"), "{j}");
        assert!(j.contains("msg \\\"quoted\\\""));
        assert!(j.contains("b\\\\c.rs"));
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn summary_mentions_stale_entries() {
        let base = Baseline::parse("R1\ta.rs\t3\n").unwrap();
        let cmp = base.compare(&[diag(Rule::R1, "a.rs", 1)]);
        let s = render_summary(&cmp, 0, 1);
        assert!(s.contains("baseline is stale"));
        assert!(s.contains("allows 3, found 1"));
    }
}
