//! Diagnostics: the finding type and its text/JSON rendering.
//!
//! JSON is rendered *and parsed* by hand, mirroring the
//! `dlp-bench/src/telemetry.rs` approach — the workspace's vendored
//! serde stub has no JSON backend, and the diagnostics schema
//! (`dlp-lint/diagnostics/v3`) is small and flat enough that a
//! ~100-line recursive-descent parser is the simplest dependency-free
//! option. A finding is accepted only by an inline
//! `// dlp-lint: allow(<rule>) -- <reason>` directive at its site.

use crate::rules::rule_by_id;

/// Schema tag embedded in diagnostics JSON output: `files_scanned`
/// and the `findings` array, each finding carrying its rule's `family`
/// and `reachable_from` (root-to-finding call chain, or null). Every
/// reported finding fails the gate; EXPERIMENTS.md lists what changed
/// between versions.
pub const DIAG_SCHEMA: &str = "dlp-lint/diagnostics/v3";

/// One confirmed finding (post-suppression), ready for reporting.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule ID (`E201`, …).
    pub rule: &'static str,
    /// Workspace-relative file path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Offending token.
    pub token: String,
    /// Human-readable message.
    pub message: String,
    /// For call-graph findings: the chain from a hot/probe/parallel
    /// root to the function containing the finding.
    pub reachable_from: Option<String>,
}

impl Finding {
    /// Rule name, hint, and family tag from the rule table.
    fn rule_meta(&self) -> (&'static str, &'static str, &'static str) {
        match rule_by_id(self.rule) {
            Some(r) => (r.name, r.hint, r.group.family()),
            None => ("unknown", "", "unknown"),
        }
    }
}

/// Escape a string for JSON output (same contract as telemetry.rs).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as line-oriented human text.
pub fn render_text(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    for f in findings {
        let (name, hint, _) = f.rule_meta();
        out.push_str(&format!(
            "{}:{}:{}: {} {}: {}\n",
            f.file, f.line, f.col, f.rule, name, f.message
        ));
        if let Some(chain) = &f.reachable_from {
            out.push_str(&format!("  reachable from: {chain}\n"));
        }
        if !hint.is_empty() {
            out.push_str(&format!("  hint: {hint}\n"));
        }
    }
    out.push_str(&format!(
        "dlp-lint: {files_scanned} files scanned, {} finding(s)\n",
        findings.len()
    ));
    out
}

/// Render findings as machine-readable JSON (`dlp-lint/diagnostics/v3`).
pub fn render_json(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{DIAG_SCHEMA}\",\n"));
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        let (name, hint, family) = f.rule_meta();
        if i > 0 {
            out.push(',');
        }
        let reachable = match &f.reachable_from {
            Some(chain) => format!("\"{}\"", esc(chain)),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"name\": \"{}\", \"family\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"col\": {}, \"token\": \"{}\", \"message\": \"{}\", \"hint\": \"{}\", \
             \"reachable_from\": {}}}",
            f.rule,
            name,
            family,
            esc(&f.file),
            f.line,
            f.col,
            esc(&f.token),
            esc(&f.message),
            esc(hint),
            reachable
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Minimal recursive-descent JSON parser — just enough for the flat
/// diagnostics schema (objects, arrays, strings,
/// non-negative integers, booleans, null). Public so the self-check
/// integration tests can consume `dlp-lint`'s own JSON output without
/// an external JSON dependency.
pub mod json {
    /// A parsed JSON value.
    #[derive(Debug)]
    pub enum Value {
        /// Object as ordered key/value pairs.
        Obj(Vec<(String, Value)>),
        /// Array.
        Arr(Vec<Value>),
        /// String.
        Str(String),
        /// Number (stored as f64; diagnostics carry only small integers).
        Num(f64),
        /// Boolean.
        Bool(bool),
        /// Null.
        Null,
    }

    impl Value {
        /// Object key/value pairs, if this is an object.
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(o) => Some(o),
                _ => None,
            }
        }
        /// Array elements, if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(a) => Some(a),
                _ => None,
            }
        }
        /// String content, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        /// Non-negative integral number, if this is one.
        pub fn as_usize(&self) -> Option<usize> {
            match self {
                Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
                _ => None,
            }
        }
    }

    /// Parse a complete JSON document.
    pub fn parse(src: &str) -> Result<Value, String> {
        let chars: Vec<char> = src.chars().collect();
        let mut pos = 0usize;
        let v = parse_value(&chars, &mut pos)?;
        skip_ws(&chars, &mut pos);
        if pos != chars.len() {
            return Err(format!("trailing content at offset {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(chars: &[char], pos: &mut usize) {
        while chars.get(*pos).is_some_and(|c| c.is_whitespace()) {
            *pos += 1;
        }
    }

    fn expect(chars: &[char], pos: &mut usize, c: char) -> Result<(), String> {
        skip_ws(chars, pos);
        if chars.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{c}` at offset {pos}", pos = *pos))
        }
    }

    fn parse_value(chars: &[char], pos: &mut usize) -> Result<Value, String> {
        skip_ws(chars, pos);
        match chars.get(*pos) {
            Some('{') => parse_object(chars, pos),
            Some('[') => parse_array(chars, pos),
            Some('"') => Ok(Value::Str(parse_string(chars, pos)?)),
            Some(c) if c.is_ascii_digit() || *c == '-' => parse_number(chars, pos),
            Some('t') => parse_lit(chars, pos, "true", Value::Bool(true)),
            Some('f') => parse_lit(chars, pos, "false", Value::Bool(false)),
            Some('n') => parse_lit(chars, pos, "null", Value::Null),
            _ => Err(format!("unexpected character at offset {pos}", pos = *pos)),
        }
    }

    fn parse_lit(
        chars: &[char],
        pos: &mut usize,
        lit: &str,
        value: Value,
    ) -> Result<Value, String> {
        for c in lit.chars() {
            if chars.get(*pos) != Some(&c) {
                return Err(format!("bad literal at offset {pos}", pos = *pos));
            }
            *pos += 1;
        }
        Ok(value)
    }

    fn parse_object(chars: &[char], pos: &mut usize) -> Result<Value, String> {
        expect(chars, pos, '{')?;
        let mut out = Vec::new();
        skip_ws(chars, pos);
        if chars.get(*pos) == Some(&'}') {
            *pos += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            skip_ws(chars, pos);
            let key = parse_string(chars, pos)?;
            expect(chars, pos, ':')?;
            let value = parse_value(chars, pos)?;
            out.push((key, value));
            skip_ws(chars, pos);
            match chars.get(*pos) {
                Some(',') => *pos += 1,
                Some('}') => {
                    *pos += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {pos}", pos = *pos)),
            }
        }
    }

    fn parse_array(chars: &[char], pos: &mut usize) -> Result<Value, String> {
        expect(chars, pos, '[')?;
        let mut out = Vec::new();
        skip_ws(chars, pos);
        if chars.get(*pos) == Some(&']') {
            *pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            out.push(parse_value(chars, pos)?);
            skip_ws(chars, pos);
            match chars.get(*pos) {
                Some(',') => *pos += 1,
                Some(']') => {
                    *pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("expected `,` or `]` at offset {pos}", pos = *pos)),
            }
        }
    }

    fn parse_string(chars: &[char], pos: &mut usize) -> Result<String, String> {
        if chars.get(*pos) != Some(&'"') {
            return Err(format!("expected string at offset {pos}", pos = *pos));
        }
        *pos += 1;
        let mut out = String::new();
        while let Some(&c) = chars.get(*pos) {
            *pos += 1;
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = chars.get(*pos).copied().ok_or("unterminated escape")?;
                    *pos += 1;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let d = chars
                                    .get(*pos)
                                    .and_then(|c| c.to_digit(16))
                                    .ok_or("bad \\u escape")?;
                                *pos += 1;
                                code = code * 16 + d;
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("unsupported escape `\\{other}`")),
                    }
                }
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    fn parse_number(chars: &[char], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        if chars.get(*pos) == Some(&'-') {
            *pos += 1;
        }
        while chars
            .get(*pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        {
            *pos += 1;
        }
        let text: String = chars[start..*pos].iter().collect();
        text.parse::<f64>().map(Value::Num).map_err(|_| format!("bad number `{text}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, token: &str) -> Finding {
        Finding {
            rule,
            file: file.into(),
            line: 1,
            col: 1,
            token: token.into(),
            message: "m".into(),
            reachable_from: None,
        }
    }

    fn keys(v: &json::Value) -> Vec<&str> {
        v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn v3_json_carries_family_and_reachable_from() {
        let mut f = finding("P301", "crates/gpu-sim/src/gpu.rs", "Box");
        f.reachable_from = Some("Gpu::step -> hang_report".into());
        let out = render_json(&[f, finding("D004", "a.rs", "m")], 2);
        let v = super::json::parse(&out).unwrap();
        assert_eq!(keys(&v), ["schema", "files_scanned", "findings"]);
        let obj = v.as_object().unwrap();
        assert!(obj
            .iter()
            .any(|(k, v)| k == "schema" && v.as_str() == Some("dlp-lint/diagnostics/v3")));
        let findings = obj.iter().find(|(k, _)| k == "findings").unwrap().1.as_array().unwrap();
        for f in findings {
            assert_eq!(
                keys(f),
                [
                    "rule",
                    "name",
                    "family",
                    "file",
                    "line",
                    "col",
                    "token",
                    "message",
                    "hint",
                    "reachable_from"
                ]
            );
        }
        let first = findings[0].as_object().unwrap();
        assert!(first.iter().any(|(k, v)| k == "family" && v.as_str() == Some("perf")));
        assert!(first.iter().any(
            |(k, v)| k == "reachable_from" && v.as_str() == Some("Gpu::step -> hang_report")
        ));
        let second = findings[1].as_object().unwrap();
        assert!(second
            .iter()
            .any(|(k, v)| k == "reachable_from" && matches!(v, super::json::Value::Null)));
    }

    #[test]
    fn json_output_is_parseable_by_own_parser_and_escapes() {
        let mut f = finding("E201", "weird\"path\\x.rs", "unwrap");
        f.message = "line1\nline2".into();
        let out = render_json(&[f], 3);
        // Self-consistency: the diagnostics JSON must parse with the
        // crate's own minimal parser.
        let v = super::json::parse(&out).unwrap();
        let obj = v.as_object().unwrap();
        assert!(obj.iter().any(|(k, v)| k == "schema"
            && v.as_str() == Some(super::DIAG_SCHEMA)));
    }
}
