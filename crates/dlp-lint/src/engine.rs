//! The analysis engine: ties lexer + parser + symbol table + call
//! graph + rules together and scopes them to the workspace tiers.
//!
//! Two passes (DESIGN.md §13):
//!
//! 1. **Build.** Every tier file is lexed and parsed into a
//!    [`FileAst`]; the sim-tier ASTs feed one workspace [`Symbols`]
//!    table and [`CallGraph`], from which two reachability sweeps
//!    are computed: the *hot* set (transitive callees of the per-cycle
//!    roots — `cycle`/`step`/`tick`/`next_event`) and the *probe* set
//!    (callees of `next_event`).
//! 2. **Scan.** Token rules run per file with AST-derived test and
//!    hot masks; the semantic rules (L601, L602) run off the
//!    sweeps; suppression directives are applied with per-rule usage
//!    tracking so stale allows surface as X002.

use std::path::Path;

use crate::callgraph::{CallGraph, Reach};
use crate::diag::Finding;
use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};
use crate::parser::{parse, FileAst};
use crate::rules::{rule_by_id, scan, scan_p302, scan_store, RawFinding};
use crate::symbols::Symbols;

/// Crates whose `src/` trees carry the full D/F/E/P/S/L rule set.
/// Harness, figure-rendering, and tooling crates (dlp-bench, rd-tools,
/// …) are exempt: wall-clock telemetry, float rendering, and env shims
/// are *supposed* to live there.
const SIM_CRATES: &[&str] = &["dlp-core", "gpu-mem", "gpu-sim"];

/// Crates whose `src/` trees carry the store-tier rule set (R401):
/// everything that persists or serves sweep results. The sim rules do
/// NOT apply here — the store legitimately does I/O, reads env-shimmed
/// config, and reports typed `StoreError`s of its own.
const STORE_CRATES: &[&str] = &["dlp-store", "dlp-sweepd"];

/// The one store-tier file allowed to touch the filesystem raw: it
/// *implements* the atomic write/fsync/rename discipline R401 steers
/// everyone else to.
const STORE_ATOMIC_IMPL: &str = "crates/dlp-store/src/atomic.rs";

/// Crates whose `src/` trees carry only the trace-streaming rule
/// (P302) on top of whatever other tier they belong to. The workload
/// generators are harness-adjacent (seeded RNG, Vec-built segments are
/// all fine there) but must never regress to eager whole-trace
/// materialization.
const TRACE_CRATES: &[&str] = &["gpu-workloads"];

/// The one file allowed to return `Vec<TraceOp>`: the streaming
/// compatibility adapter (`VecStream` + `materialize`) P302 steers
/// everyone else to.
const STREAM_IMPL: &str = "crates/gpu-sim/src/stream.rs";

/// Method names that satisfy the leap-contract catch-up requirement
/// (L601) for a type implementing `next_event`.
const CATCHUP_METHODS: &[&str] = &["advance_quiet", "leap_catchup", "catch_up"];

/// Parameter names that mark a function as explicitly cycle-delta
/// aware, exempting its stats writes from L602.
const DELTA_PARAMS: &[&str] =
    &["skipped", "delta", "ticks", "cycles", "dt", "elapsed", "quiet", "behind"];

/// Root names of the transitive hot set (P301/F103 v2).
const HOT_ROOTS: &[&str] = &["cycle", "step", "tick", "next_event"];

/// Does the full simulator rule set apply to this workspace-relative path?
pub fn is_sim_tier(rel: &str) -> bool {
    SIM_CRATES
        .iter()
        .any(|c| rel.strip_prefix(&format!("crates/{c}/src/")).is_some_and(|rest| !rest.is_empty()))
}

/// Does the trace-streaming rule (P302) apply to this path? True for
/// the workload-generator crates and the whole sim tier, except the
/// compatibility adapter that *implements* materialization.
pub fn is_trace_tier(rel: &str) -> bool {
    rel != STREAM_IMPL
        && (is_sim_tier(rel)
            || TRACE_CRATES.iter().any(|c| {
                rel.strip_prefix(&format!("crates/{c}/src/")).is_some_and(|rest| !rest.is_empty())
            }))
}

/// Does the store-tier rule set (R401) apply to this path?
pub fn is_store_tier(rel: &str) -> bool {
    rel != STORE_ATOMIC_IMPL
        && STORE_CRATES.iter().any(|c| {
            rel.strip_prefix(&format!("crates/{c}/src/")).is_some_and(|rest| !rest.is_empty())
        })
}

/// Lint one source file given its workspace-relative path. Returns an
/// empty list for files outside the simulator and store tiers. The
/// call graph is built over just this file, so cross-file rules (L601
/// catch-up lookups, transitive hot propagation) see only what the
/// file itself defines — which is exactly right for fixtures.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    lint_sources(&[(rel, src)])
}

/// Lint a set of `(workspace-relative path, source)` files as one
/// workspace: the symbol table, call graph, and reachability sweeps
/// span all sim-tier files in the set.
pub fn lint_sources(files: &[(&str, &str)]) -> Vec<Finding> {
    struct Unit<'a> {
        rel: &'a str,
        sim: bool,
        trace: bool,
        lexed: Lexed,
        ast: FileAst,
        /// Index into the symbol table's file list (sim units only).
        sim_index: usize,
    }
    let mut units: Vec<Unit> = Vec::new();
    let mut sim_count = 0usize;
    for (rel, src) in files {
        let sim = is_sim_tier(rel);
        let trace = is_trace_tier(rel);
        if !sim && !trace && !is_store_tier(rel) {
            continue;
        }
        let lexed = lex(src);
        let ast = parse(&lexed.tokens);
        let sim_index = if sim {
            sim_count += 1;
            sim_count - 1
        } else {
            usize::MAX
        };
        units.push(Unit { rel, sim, trace, lexed, ast, sim_index });
    }

    let sim_pairs: Vec<(&str, &FileAst)> =
        units.iter().filter(|u| u.sim).map(|u| (u.rel, &u.ast)).collect();
    let syms = Symbols::build(&sim_pairs);
    let graph = CallGraph::build(&syms);
    let hot = graph.reach(&syms, &syms.roots_named(HOT_ROOTS));
    let probe = graph.reach(&syms, &syms.roots_named(&["next_event"]));

    let mut out: Vec<Finding> = Vec::new();
    for u in &units {
        let tokens = &u.lexed.tokens;
        let is_test = u.ast.test_mask(tokens.len());
        let mut raw: Vec<RawFinding> = Vec::new();

        // X003: a structural parse failure blinds every mask and graph
        // edge below, so it is reported (and treated as a hard error by
        // the CLI) rather than silently degrading the analysis.
        for e in &u.ast.errors {
            raw.push(RawFinding {
                rule: "X003",
                line: e.line,
                col: 1,
                token: "parse".to_string(),
                message: format!("semantic pass cannot parse this file: {}", e.msg),
                reachable: None,
            });
        }

        if u.sim {
            let fi = u.sim_index;
            let owner = owner_map(&u.ast, tokens.len());
            let in_hot: Vec<bool> =
                owner.iter().map(|o| o.is_some_and(|ni| hot.contains((fi, ni)))).collect();
            raw.extend(scan(tokens, &is_test, &in_hot));
            // Attach the root-to-here call chain to hot-set findings.
            for f in raw.iter_mut() {
                if f.rule != "P301" && f.rule != "F103" {
                    continue;
                }
                if let Some(ni) = owner_at(tokens, &owner, f.line, f.col) {
                    f.reachable = hot.chain(&syms, (fi, ni));
                }
            }
            semantic_scan(fi, &u.ast, &syms, &probe, &mut raw);
        } else if is_store_tier(u.rel) {
            raw.extend(scan_store(tokens, &is_test));
        }
        if u.trace {
            raw.extend(scan_p302(tokens, &is_test));
        }

        // Suppressions, with per-rule usage tracking for X002.
        let (sups, mut directive_findings) = parse_directives(&u.lexed.comments);
        let mut used = vec![false; sups.len()];
        raw.retain(|f| {
            if f.rule == "X003" {
                return true; // parse failures are not suppressible
            }
            let mut hit = false;
            for (si, s) in sups.iter().enumerate() {
                if s.rule == f.rule && (s.line == f.line || s.line + 1 == f.line) {
                    used[si] = true;
                    hit = true;
                }
            }
            !hit
        });
        let test_spans: Vec<(u32, u32)> = u
            .ast
            .test_ranges
            .iter()
            .filter_map(|&(s, e)| {
                let a = tokens.get(s)?.line;
                let b = tokens.get(e.min(tokens.len().saturating_sub(1)))?.line;
                Some((a, b))
            })
            .collect();
        for (si, s) in sups.iter().enumerate() {
            // A directive inside a test item can never match (test code
            // produces no findings), so it is noise-exempt rather than
            // X002.
            if used[si] || test_spans.iter().any(|&(a, b)| s.line >= a && s.line <= b) {
                continue;
            }
            raw.push(RawFinding {
                rule: "X002",
                line: s.line,
                col: 1,
                token: s.rule.to_string(),
                message: format!(
                    "suppression `allow({})` matches no finding on this or the next line",
                    s.rule
                ),
                reachable: None,
            });
        }
        raw.append(&mut directive_findings);
        raw.sort_by_key(|f| (f.line, f.col, f.rule));
        raw.dedup_by(|a, b| {
            a.rule == b.rule && a.line == b.line && a.col == b.col && a.token == b.token
        });
        out.extend(raw.into_iter().map(|f| Finding {
            rule: f.rule,
            file: u.rel.to_string(),
            line: f.line,
            col: f.col,
            token: f.token,
            message: f.message,
            reachable_from: f.reachable,
            baselined: false,
        }));
    }
    out
}

/// The semantic (AST + call-graph) rules for one sim-tier file.
fn semantic_scan(
    fi: usize,
    ast: &FileAst,
    syms: &Symbols<'_>,
    probe: &Reach,
    raw: &mut Vec<RawFinding>,
) {
    for (ni, f) in ast.fns.iter().enumerate() {
        let id = (fi, ni);

        // L601: a `next_event` implementor must define how to catch up.
        if f.name == "next_event" && f.body.is_some() && !f.is_test {
            if let Some(ty) = &f.self_ty {
                let has_catchup =
                    CATCHUP_METHODS.iter().any(|m| !syms.by_ty_name(ty, m).is_empty());
                if !has_catchup {
                    raw.push(RawFinding {
                        rule: "L601",
                        line: f.line,
                        col: f.col,
                        token: ty.clone(),
                        message: format!(
                            "`{ty}` implements `next_event` but defines no catch-up method \
                             ({})",
                            CATCHUP_METHODS.join("/")
                        ),
                        reachable: None,
                    });
                }
            }
        }

        // L602: probe-reachable functions must not mutate stats
        // counters unless they take an explicit cycle-delta parameter.
        if probe.contains(id)
            && !f.params.iter().any(|p| DELTA_PARAMS.contains(&p.name.as_str()))
        {
            if let Some(body) = &f.body {
                for w in &body.writes {
                    let path = w.path.join(".");
                    let statsy = w
                        .path
                        .iter()
                        .skip(1)
                        .any(|seg| seg.contains("stat") || seg.contains("counter"));
                    if statsy {
                        raw.push(RawFinding {
                            rule: "L602",
                            line: w.line,
                            col: w.col,
                            token: path.clone(),
                            message: format!(
                                "`{}` mutates `{path}` while reachable from a `next_event` \
                                 probe (probes re-run per leap iteration)",
                                f.qual_name()
                            ),
                            reachable: probe.chain(syms, id),
                        });
                    }
                }
            }
        }
    }
}

/// Innermost function body covering each token, as an index into
/// `ast.fns` — "innermost" so a nested non-hot `fn` inside a hot body
/// is not swept into the hot mask.
fn owner_map(ast: &FileAst, len: usize) -> Vec<Option<usize>> {
    let mut owner: Vec<Option<usize>> = vec![None; len];
    let mut size: Vec<usize> = vec![usize::MAX; len];
    for (ni, f) in ast.fns.iter().enumerate() {
        let Some(body) = &f.body else { continue };
        let (s, e) = body.range;
        let span = e.saturating_sub(s);
        for t in s..=e.min(len.saturating_sub(1)) {
            if span < size[t] {
                size[t] = span;
                owner[t] = Some(ni);
            }
        }
    }
    owner
}

/// Owner of the token at a (line, col) position.
fn owner_at(tokens: &[Token], owner: &[Option<usize>], line: u32, col: u32) -> Option<usize> {
    let idx = tokens.binary_search_by(|t| (t.line, t.col).cmp(&(line, col))).ok()?;
    owner.get(idx).copied().flatten()
}

/// Result of linting a workspace tree.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, col) within each tier file,
    /// with workspace-level telemetry findings appended last.
    pub findings: Vec<Finding>,
    /// Number of tier files lexed and scanned.
    pub files_scanned: usize,
}

/// Walk `root` and lint every simulator- and store-tier source file as
/// one workspace, then run the telemetry-schema check (T7xx) against
/// `crates/dlp-bench/src/telemetry.rs` and the manifest in
/// `EXPERIMENTS.md`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files: Vec<(String, String)> = Vec::new();
    for file in rd_tools::walk::walk_rust_sources(root)? {
        if !is_sim_tier(&file.rel) && !is_trace_tier(&file.rel) && !is_store_tier(&file.rel) {
            continue;
        }
        files.push((file.rel, std::fs::read_to_string(&file.abs)?));
    }
    let files_scanned = files.len();
    let pairs: Vec<(&str, &str)> = files.iter().map(|(r, s)| (r.as_str(), s.as_str())).collect();
    let mut findings = lint_sources(&pairs);

    let telemetry = root.join("crates").join("dlp-bench").join("src").join("telemetry.rs");
    let experiments = root.join("EXPERIMENTS.md");
    if telemetry.is_file() && experiments.is_file() {
        findings.extend(check_telemetry(
            &std::fs::read_to_string(&telemetry)?,
            &std::fs::read_to_string(&experiments)?,
        ));
    }
    // Walk order is sorted by rel path and per-file findings are
    // position-sorted, so the report is already deterministic.
    Ok(Report { findings, files_scanned })
}

/// Workspace-relative path of the telemetry emitter (T7xx findings on
/// the code side anchor here).
pub const TELEMETRY_REL: &str = "crates/dlp-bench/src/telemetry.rs";
/// Path the manifest side of T7xx findings anchors to.
pub const EXPERIMENTS_REL: &str = "EXPERIMENTS.md";

/// T7xx: diff the JSON keys and schema version emitted by
/// `telemetry.rs` against the `dlp-lint:telemetry-schema` manifest in
/// EXPERIMENTS.md. Key drift with versions in agreement is T701;
/// version skew (or a missing version/manifest) is T702/T701 at the
/// offending side.
pub fn check_telemetry(telemetry_src: &str, experiments_src: &str) -> Vec<Finding> {
    use std::collections::BTreeMap;

    let lexed = lex(telemetry_src);
    let ast = parse(&lexed.tokens);
    let is_test = ast.test_mask(lexed.tokens.len());

    const VERSION_PREFIX: &str = "dlp-bench/figures-telemetry/v";
    let mut keys: BTreeMap<String, u32> = BTreeMap::new();
    let mut code_version: Option<(u64, u32)> = None;
    for (i, t) in lexed.tokens.iter().enumerate() {
        if t.kind != TokenKind::Str || is_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        // Strip escape backslashes: the emitter writes format strings
        // like `\"key\": {}` whose lexed text keeps the backslashes.
        let text: String = t.text.chars().filter(|&c| c != '\\').collect();
        if let Some(pos) = text.find(VERSION_PREFIX) {
            let digits: String = text[pos + VERSION_PREFIX.len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            if let Ok(v) = digits.parse::<u64>() {
                code_version.get_or_insert((v, t.line));
            }
        }
        for key in extract_json_keys(&text) {
            keys.entry(key).or_insert(t.line);
        }
    }

    let mut manifest_version: Option<(u64, u32)> = None;
    let mut manifest_keys: BTreeMap<String, u32> = BTreeMap::new();
    let mut manifest_line: Option<u32> = None;
    let mut in_manifest = false;
    for (ln0, line) in experiments_src.lines().enumerate() {
        let ln = ln0 as u32 + 1;
        let t = line.trim();
        if t.starts_with("<!-- dlp-lint:telemetry-schema") {
            in_manifest = true;
            manifest_line = Some(ln);
            continue;
        }
        if !in_manifest {
            continue;
        }
        if t.starts_with("-->") {
            in_manifest = false;
        } else if let Some(v) = t.strip_prefix("version:") {
            if let Ok(n) = v.trim().parse::<u64>() {
                manifest_version = Some((n, ln));
            }
        } else if let Some(k) = t.strip_prefix("keys:") {
            for key in k.split_whitespace() {
                manifest_keys.entry(key.to_string()).or_insert(ln);
            }
        }
    }

    let finding = |rule: &'static str, file: &str, line: u32, token: &str, message: String| Finding {
        rule,
        file: file.to_string(),
        line,
        col: 1,
        token: token.to_string(),
        message,
        reachable_from: None,
        baselined: false,
    };

    let mut out = Vec::new();
    let Some(manifest_line) = manifest_line else {
        out.push(finding(
            "T701",
            EXPERIMENTS_REL,
            1,
            "telemetry-schema",
            "EXPERIMENTS.md has no `<!-- dlp-lint:telemetry-schema` manifest documenting the \
             telemetry JSON keys"
                .to_string(),
        ));
        return out;
    };
    let Some((code_v, code_v_line)) = code_version else {
        out.push(finding(
            "T702",
            TELEMETRY_REL,
            1,
            "version",
            format!("telemetry.rs emits no `{VERSION_PREFIX}N` schema tag"),
        ));
        return out;
    };
    let Some((manifest_v, manifest_v_line)) = manifest_version else {
        out.push(finding(
            "T702",
            EXPERIMENTS_REL,
            manifest_line,
            "version",
            "telemetry-schema manifest has no `version:` line".to_string(),
        ));
        return out;
    };
    if code_v != manifest_v {
        out.push(finding(
            "T702",
            EXPERIMENTS_REL,
            manifest_v_line,
            "version",
            format!(
                "telemetry-schema manifest documents v{manifest_v} but telemetry.rs (line \
                 {code_v_line}) emits v{code_v} — update the manifest alongside the bump"
            ),
        ));
        return out;
    }
    for (key, line) in &keys {
        if !manifest_keys.contains_key(key) {
            out.push(finding(
                "T701",
                TELEMETRY_REL,
                *line,
                key,
                format!(
                    "telemetry key \"{key}\" is not in the EXPERIMENTS.md schema manifest — \
                     bump the figures-telemetry version and document it"
                ),
            ));
        }
    }
    for (key, line) in &manifest_keys {
        if !keys.contains_key(key) {
            out.push(finding(
                "T701",
                EXPERIMENTS_REL,
                *line,
                key,
                format!(
                    "documented telemetry key \"{key}\" is no longer emitted by telemetry.rs — \
                     bump the figures-telemetry version and prune it"
                ),
            ));
        }
    }
    out
}

/// `"ident":` occurrences in (escape-stripped) string-literal text.
fn extract_json_keys(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i] == '"' {
            let mut j = i + 1;
            while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            if j > i + 1 && j < chars.len() && chars[j] == '"' {
                let mut k = j + 1;
                while k < chars.len() && chars[k] == ' ' {
                    k += 1;
                }
                if k < chars.len() && chars[k] == ':' {
                    out.push(chars[i + 1..j].iter().collect());
                    i = k + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// A parsed `// dlp-lint: allow(<rule>) -- <reason>` directive.
struct Suppression {
    rule: &'static str,
    /// Line the directive sits on; it suppresses findings on this
    /// line (trailing style) and the next (preceding style).
    line: u32,
}

/// Parse suppression directives out of the comment stream. Malformed
/// directives become X001 findings so typos fail loudly instead of
/// silently not suppressing.
fn parse_directives(comments: &[Comment]) -> (Vec<Suppression>, Vec<RawFinding>) {
    let mut sups = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("dlp-lint:") else {
            continue;
        };
        let mut fail = |why: &str| {
            bad.push(RawFinding {
                rule: "X001",
                line: c.line,
                col: 1,
                token: "dlp-lint".to_string(),
                message: format!("malformed dlp-lint directive: {why}"),
                reachable: None,
            });
        };
        let rest = rest.trim();
        let Some(rest) = rest.strip_prefix("allow(") else {
            fail("expected `allow(<rule>)` after `dlp-lint:`");
            continue;
        };
        let Some(close) = rest.find(')') else {
            fail("unclosed `allow(` rule list");
            continue;
        };
        let (rule_list, tail) = rest.split_at(close);
        let tail = &tail[1..]; // drop `)`
        let Some(reason) = tail.trim_start().strip_prefix("--") else {
            fail("missing ` -- <reason>` after the rule list");
            continue;
        };
        if reason.trim().is_empty() {
            fail("empty reason after `--`");
            continue;
        }
        for raw_rule in rule_list.split(',') {
            let rid = raw_rule.trim();
            match rule_by_id(rid) {
                Some(rule) => sups.push(Suppression { rule: rule.id, line: c.line }),
                None => fail(&format!("unknown rule `{rid}`")),
            }
        }
    }
    (sups, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(src: &str) -> Vec<Finding> {
        lint_source("crates/gpu-mem/src/fixture.rs", src)
    }

    #[test]
    fn cfg_all_and_any_forms_mask_like_plain_cfg_test() {
        for attr in
            ["#[cfg(test)]", "#[cfg(all(test, feature = \"slow\"))]", "#[cfg(any(test, doc))]"]
        {
            let src = format!("{attr}\nmod tests {{ fn f(x: Option<u32>) -> u32 {{ x.unwrap() }} }}");
            assert!(sim(&src).is_empty(), "{attr} must mask the unwrap");
        }
        let src = "#[cfg(not(test))]\nmod live { fn f(x: Option<u32>) -> u32 { x.unwrap() } }";
        assert_eq!(sim(src).len(), 1, "cfg(not(test)) is live code");
        assert_eq!(sim(src)[0].rule, "E201");
    }

    #[test]
    fn nested_test_modules_are_masked_through_every_level() {
        let src = "\
            mod outer {\n\
                fn live(x: Option<u32>) -> u32 { x.unwrap() }\n\
                #[cfg(test)]\n\
                mod tests {\n\
                    mod deeper {\n\
                        fn helper(x: Option<u32>) -> u32 { x.unwrap() }\n\
                    }\n\
                    fn also(x: Option<u32>) -> u32 { x.unwrap() }\n\
                }\n\
            }\n";
        let f = sim(src);
        assert_eq!(f.len(), 1, "only the live unwrap counts: {f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn parse_errors_become_x003() {
        let f = sim("fn broken() { if x { }");
        assert!(f.iter().any(|f| f.rule == "X003"), "{f:?}");
    }

    #[test]
    fn telemetry_check_accepts_matching_keys_and_version() {
        let telem = r#"fn emit() { let s = format!("\"hits\": {}, \"misses\": {}", 1, 2);
            let tag = "dlp-bench/figures-telemetry/v4"; }"#;
        let manifest = "intro\n<!-- dlp-lint:telemetry-schema\nversion: 4\nkeys: hits misses\n-->\n";
        assert!(check_telemetry(telem, manifest).is_empty());
    }

    #[test]
    fn telemetry_key_added_without_bump_is_t701() {
        let telem = r#"fn emit() { let s = format!("\"hits\": {}, \"stalls\": {}", 1, 2);
            let tag = "dlp-bench/figures-telemetry/v4"; }"#;
        let manifest = "<!-- dlp-lint:telemetry-schema\nversion: 4\nkeys: hits\n-->\n";
        let f = check_telemetry(telem, manifest);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "T701");
        assert_eq!(f[0].token, "stalls");
        assert_eq!(f[0].file, TELEMETRY_REL);
    }

    #[test]
    fn telemetry_version_skew_is_t702_and_masks_key_diff() {
        let telem = r#"fn emit() { let s = format!("\"hits\": {}, \"stalls\": {}", 1, 2);
            let tag = "dlp-bench/figures-telemetry/v5"; }"#;
        let manifest = "<!-- dlp-lint:telemetry-schema\nversion: 4\nkeys: hits\n-->\n";
        let f = check_telemetry(telem, manifest);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "T702");
    }

    #[test]
    fn telemetry_keys_in_test_modules_are_ignored() {
        let telem = "fn emit() { let tag = \"dlp-bench/figures-telemetry/v4\"; }\n\
                     #[cfg(test)]\nmod tests { fn f() { let s = \"\\\"phantom\\\": 1\"; } }";
        let manifest = "<!-- dlp-lint:telemetry-schema\nversion: 4\nkeys:\n-->\n";
        assert!(check_telemetry(telem, manifest).is_empty());
    }
}
