//! Self-check: lint the real workspace the test runs inside. This is
//! the same gate CI applies (`cargo run -p dlp-lint -- --format json`),
//! expressed as a library call so a regression fails `cargo test` too,
//! not just the CI job.

use std::path::{Path, PathBuf};

use dlp_lint::{json, lint_workspace, render_json};

fn workspace_root() -> PathBuf {
    // crates/dlp-lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

#[test]
fn workspace_has_no_findings() {
    let report = lint_workspace(&workspace_root()).unwrap();
    assert!(
        report.findings.is_empty(),
        "dlp-lint findings — fix them or allow them inline with a reason:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {}:{}:{}: {} {}", f.file, f.line, f.col, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned >= 30,
        "suspiciously few files scanned ({}) — walker or tier filter broke",
        report.files_scanned
    );
}

#[test]
fn workspace_report_round_trips_through_the_json_schema() {
    let root = workspace_root();
    let report = lint_workspace(&root).unwrap();
    let out = render_json(&report.findings, report.files_scanned);
    let v = json::parse(&out).unwrap();
    let obj = v.as_object().unwrap();
    let get = |key: &str| obj.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    assert_eq!(get("schema").and_then(|v| v.as_str()), Some(dlp_lint::DIAG_SCHEMA));
    assert_eq!(
        get("files_scanned").and_then(|v| v.as_usize()),
        Some(report.files_scanned)
    );
    let findings = get("findings").and_then(|v| v.as_array()).unwrap();
    assert_eq!(findings.len(), report.findings.len());
    for f in findings {
        let fo = f.as_object().unwrap();
        for key in ["rule", "name", "family", "file", "token", "message", "hint"] {
            assert!(
                fo.iter().any(|(k, v)| k == key && v.as_str().is_some()),
                "finding missing string field `{key}`"
            );
        }
        // reachable_from is present on every finding, string or null.
        assert!(
            fo.iter().any(|(k, v)| k == "reachable_from"
                && (v.as_str().is_some() || matches!(v, dlp_lint::json::Value::Null))),
            "finding missing `reachable_from`"
        );
    }
}

#[test]
fn a_seeded_violation_is_caught_and_suppressible() {
    // End-to-end through lint_source with a realistic seeded defect:
    // the exact shape the CI job exists to reject.
    let seeded = "\
        pub fn drain(&mut self, now: u64) {\n\
            let pending: HashMap<u64, Packet> = HashMap::new();\n\
            for (line, pkt) in pending.iter() {\n\
                self.out.push(pkt.clone());\n\
                self.done.insert(*line as u32, now);\n\
            }\n\
        }\n";
    let findings = dlp_lint::lint_source("crates/gpu-mem/src/seeded.rs", seeded);
    let rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"D004"), "seeded hash iteration not caught: {rules:?}");
    assert!(rules.contains(&"F101"), "seeded truncating cast not caught: {rules:?}");
}
