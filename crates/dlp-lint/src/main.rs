//! `dlp-lint` CLI: lint the workspace against the D/F/E invariant
//! rules.
//!
//! ```text
//! dlp-lint [--root <dir>] [--format text|json] [--list-rules]
//!          [--validate-diagnostics <file>]
//! ```
//!
//! Exit codes: `0` clean, `1` at least one finding, `2` usage or I/O
//! error — including X003 parse failures of the semantic pass, which
//! are hard errors, not findings. A finding is accepted only by an
//! inline `// dlp-lint: allow(<rule>) -- <reason>` at its site.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dlp_lint::{json, lint_workspace, render_json, render_text, rule_by_id, DIAG_SCHEMA, RULES};

struct Options {
    root: Option<PathBuf>,
    format: Format,
    list_rules: bool,
    validate_diagnostics: Option<PathBuf>,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

fn usage() -> String {
    "usage: dlp-lint [--root <dir>] [--format text|json] [--list-rules] \
     [--validate-diagnostics <file>]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        format: Format::Text,
        list_rules: false,
        validate_diagnostics: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| format!("{name} requires a value\n{}", usage()))
        };
        match arg.as_str() {
            "--root" => opts.root = Some(PathBuf::from(value("--root")?)),
            "--format" => {
                opts.format = match value("--format")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`\n{}", usage())),
                }
            }
            "--list-rules" => opts.list_rules = true,
            "--validate-diagnostics" => {
                opts.validate_diagnostics =
                    Some(PathBuf::from(value("--validate-diagnostics")?))
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(opts)
}

/// Ascend from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]`.
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args)?;

    if opts.list_rules {
        for r in RULES {
            println!("{} {:<24} {}", r.id, r.name, r.summary);
        }
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(path) = &opts.validate_diagnostics {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        validate_diagnostics(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("dlp-lint: {} is valid {DIAG_SCHEMA}", path.display());
        return Ok(ExitCode::SUCCESS);
    }

    let root = match &opts.root {
        Some(r) => r.clone(),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("no workspace root found (run inside the repo or pass --root)")?
        }
    };

    let report = lint_workspace(&root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let findings = report.findings;

    // X003 means the semantic pass is blind to part of the tree; that
    // is a hard error (exit 2), not a finding.
    let parse_failures: Vec<String> = findings
        .iter()
        .filter(|f| f.rule == "X003")
        .map(|f| format!("{}:{}: {}", f.file, f.line, f.message))
        .collect();
    if !parse_failures.is_empty() {
        return Err(format!("semantic pass failed to parse:\n{}", parse_failures.join("\n")));
    }

    match opts.format {
        Format::Text => print!("{}", render_text(&findings, report.files_scanned)),
        Format::Json => print!("{}", render_json(&findings, report.files_scanned)),
    }
    Ok(if findings.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Validate a diagnostics document against the `dlp-lint/diagnostics/v3`
/// schema: tag, top-level counter, and the per-finding field set with
/// the right types (including `family` and the string-or-null
/// `reachable_from`).
fn validate_diagnostics(text: &str) -> Result<(), String> {
    let v = json::parse(text)?;
    let obj = v.as_object().ok_or("root must be an object")?;
    let get = |key: &str| obj.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let schema = get("schema").and_then(|v| v.as_str()).ok_or("missing \"schema\"")?;
    if schema != DIAG_SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{DIAG_SCHEMA}`"));
    }
    get("files_scanned")
        .and_then(|v| v.as_usize())
        .ok_or("missing numeric \"files_scanned\"")?;
    let findings = get("findings").and_then(|v| v.as_array()).ok_or("missing \"findings\" array")?;
    for (i, f) in findings.iter().enumerate() {
        let fo = f.as_object().ok_or(format!("finding {i} is not an object"))?;
        let field = |key: &str| {
            fo.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or(format!("finding {i} missing \"{key}\""))
        };
        let rule = field("rule")?.as_str().ok_or(format!("finding {i}: \"rule\" not a string"))?;
        let rule_meta =
            rule_by_id(rule).ok_or(format!("finding {i}: unknown rule `{rule}`"))?;
        let family =
            field("family")?.as_str().ok_or(format!("finding {i}: \"family\" not a string"))?;
        if family != rule_meta.group.family() {
            return Err(format!(
                "finding {i}: family `{family}` does not match rule {rule}'s `{}`",
                rule_meta.group.family()
            ));
        }
        for key in ["name", "file", "token", "message", "hint"] {
            field(key)?.as_str().ok_or(format!("finding {i}: \"{key}\" not a string"))?;
        }
        for key in ["line", "col"] {
            field(key)?.as_usize().ok_or(format!("finding {i}: \"{key}\" not a number"))?;
        }
        let reachable = field("reachable_from")?;
        if reachable.as_str().is_none() && !matches!(reachable, json::Value::Null) {
            return Err(format!("finding {i}: \"reachable_from\" must be a string or null"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("dlp-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_error(args: &[&str]) -> Option<String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args).err()
    }

    #[test]
    fn retired_baseline_flags_are_unknown_arguments() {
        // Every `parse_args` error leaves `main` with exit code 2, so a
        // stale invocation fails loudly instead of linting unfiltered.
        for (args, flag) in [
            (&["--baseline", "x"][..], "--baseline"),
            (&["--write-baseline", "x", "--reason", "y"][..], "--write-baseline"),
        ] {
            let err = parse_error(args).expect("retired flag must be rejected");
            assert!(err.starts_with(&format!("unknown argument `{flag}`")), "{err}");
            assert!(err.ends_with(&usage()), "{err}");
        }
        assert!(parse_error(&["--format", "json"]).is_none());
    }
}
