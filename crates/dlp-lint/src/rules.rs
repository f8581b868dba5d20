//! The rule set: what each rule protects and how it is detected.
//!
//! Rules are grouped by the invariant class they guard (see
//! DESIGN.md "Determinism & fidelity invariants"):
//!
//! * **D — determinism.** The fig10/fig11 sweeps are validated by an
//!   FNV-1a golden digest and a byte-identical-across-worker-counts
//!   test; any wall-clock read, ambient randomness, unsanctioned env
//!   read, or std hash-container iteration in simulator state can
//!   silently break both.
//! * **F — fidelity.** Addresses, tags, and cycle counts are `u64` by
//!   contract; a truncating `as` cast or float accumulation in stats
//!   state distorts the paper mechanisms (7-bit insn-ID hash, 4-bit PL
//!   saturation, sampling-period deltas) without failing any test.
//! * **E — error handling.** PR 1 hardened the L1D/L2/icnt/DRAM reply
//!   paths to typed `MemError`/`SimError`; a new `unwrap()` on those
//!   paths re-introduces abort-on-corruption instead of a diagnosable
//!   failure.
//! * **P — performance.** The access path is zero-alloc by design
//!   (PR 2) and the cycle-leap event core probes `next_event` millions
//!   of times per run; a heap allocation inside a per-cycle function
//!   body (`fn cycle`/`fn step`/`fn tick`) silently costs throughput
//!   on every simulated cycle.
//!
//! Detection is token-based (see [`crate::lexer`]): deliberately
//! simple, tuned to this workspace's idioms, with explicit
//! `// dlp-lint: allow(<rule>) -- <reason>` escape hatches where a
//! heuristic is too blunt.

use crate::lexer::{Token, TokenKind};

/// Invariant class a rule belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// Reproducibility of simulation results.
    Determinism,
    /// Numeric faithfulness of the modelled mechanisms.
    Fidelity,
    /// Typed-error discipline on memory-system paths.
    ErrorHandling,
    /// Per-cycle hot-path performance discipline.
    Perf,
    /// Crash-safety discipline in the persistence tier.
    Robustness,
    /// No host-side concurrency inside the simulator.
    Concurrency,
    /// The cycle-leap catch-up contract between `next_event` probes
    /// and the skipped-cycle accounting.
    LeapContract,
    /// Telemetry JSON schema stability.
    Telemetry,
    /// Lint-infrastructure hygiene (directive syntax).
    Meta,
}

impl Group {
    /// Stable kebab-case family tag, emitted per finding in the
    /// `dlp-lint/diagnostics/v2` JSON schema.
    pub fn family(self) -> &'static str {
        match self {
            Group::Determinism => "determinism",
            Group::Fidelity => "fidelity",
            Group::ErrorHandling => "error-handling",
            Group::Perf => "perf",
            Group::Robustness => "robustness",
            Group::Concurrency => "concurrency",
            Group::LeapContract => "leap-contract",
            Group::Telemetry => "telemetry",
            Group::Meta => "meta",
        }
    }
}

/// Static description of one rule.
#[derive(Debug)]
pub struct Rule {
    /// Stable identifier (`D001` …), used in directives and baselines.
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// Invariant class.
    pub group: Group,
    /// One-line description of what the rule protects.
    pub summary: &'static str,
    /// Fix hint attached to every finding.
    pub hint: &'static str,
}

/// All rules, in ID order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "D001",
        name: "wall-clock",
        group: Group::Determinism,
        summary: "wall-clock time source (Instant/SystemTime) in simulator code",
        hint: "derive timing from the simulated cycle counter; wall-clock reads belong in \
               dlp-bench telemetry only",
    },
    Rule {
        id: "D002",
        name: "ambient-randomness",
        group: Group::Determinism,
        summary: "ambient randomness (thread_rng/from_entropy/RandomState) in simulator code",
        hint: "thread all randomness from an explicitly seeded generator owned by the config",
    },
    Rule {
        id: "D003",
        name: "env-read",
        group: Group::Determinism,
        summary: "process-environment read inside a simulator crate",
        hint: "route configuration through SimConfig/ExperimentConfig; env access lives behind \
               the OnceLock shims in dlp-bench",
    },
    Rule {
        id: "D004",
        name: "hash-iteration",
        group: Group::Determinism,
        summary: "iteration over a std HashMap/HashSet (nondeterministic order)",
        hint: "iterate sorted keys (collect + sort) or switch to BTreeMap; for provably \
               order-independent reductions add an allow directive stating why",
    },
    Rule {
        id: "F101",
        name: "truncating-cast",
        group: Group::Fidelity,
        summary: "truncating `as` cast of an address/cycle-typed value",
        hint: "keep addresses and cycles u64 end-to-end; mask explicitly before narrowing \
               (e.g. `(x & mask) as usize`) so the truncation is intentional and visible",
    },
    Rule {
        id: "F102",
        name: "float-state",
        group: Group::Fidelity,
        summary: "float-typed field or parameter in simulator state",
        hint: "accumulate statistics in integers (counts, sums); compute ratios as f64 only \
               at report/figure-rendering time",
    },
    Rule {
        id: "F103",
        name: "wrapping-arithmetic",
        group: Group::Fidelity,
        summary: "wrapping integer arithmetic (.wrapping_add/_sub/_mul) in simulator code",
        hint: "use checked_* and propagate a typed error — a silent wraparound corrupts \
               addresses, cycle counts, and cursors without failing any test; for deliberate \
               modular arithmetic (FNV hashes, PRNG mixers) add an allow directive stating why",
    },
    Rule {
        id: "E201",
        name: "unwrap-in-sim",
        group: Group::ErrorHandling,
        summary: "`.unwrap()` in simulator code",
        hint: "propagate a typed MemError/SimError (or restructure with let-else) so memory \
               corruption is diagnosable instead of aborting",
    },
    Rule {
        id: "E202",
        name: "expect-in-sim",
        group: Group::ErrorHandling,
        summary: "`.expect()` in simulator code",
        hint: "propagate a typed MemError/SimError carrying the same context the expect \
               message had",
    },
    Rule {
        id: "E203",
        name: "panic-in-sim",
        group: Group::ErrorHandling,
        summary: "panicking macro (panic!/unreachable!/todo!/unimplemented!) in simulator code",
        hint: "return a typed error for reachable states; use debug_assert! for genuine \
               internal invariants",
    },
    Rule {
        id: "P301",
        name: "hot-path-alloc",
        group: Group::Perf,
        summary: "heap allocation inside a per-cycle hot function (fn cycle / fn step / \
                  fn tick / fn next_event)",
        hint: "preallocate in the constructor and reuse the buffer (clear + extend), or move \
               the allocation off the per-cycle path; for cold error/report arms add an allow \
               directive stating why the allocation cannot run per cycle",
    },
    Rule {
        id: "P302",
        name: "eager-trace-materialization",
        group: Group::Perf,
        summary: "function returns a fully materialized `Vec<TraceOp>` warp trace",
        hint: "warp traces are streamed (OpStream/GenStream) so resident memory stays O(1) \
               per warp; return a `Box<dyn OpStream>` (or take `&mut Vec<TraceOp>` to fill a \
               reused segment buffer) — full materialization belongs only to the \
               compatibility adapter in gpu-sim/src/stream.rs and to test code",
    },
    Rule {
        id: "R401",
        name: "non-atomic-store-write",
        group: Group::Robustness,
        summary: "raw filesystem mutation in the store tier (bypasses the atomic \
                  write/fsync/rename discipline)",
        hint: "mutate store state only through dlp_store::atomic (atomic_write, append_line, \
               move_into, truncate, remove_file) so a crash at any instruction leaves either \
               the old bytes or the new bytes, never a torn file",
    },
    Rule {
        id: "S501",
        name: "concurrency-in-sim-tier",
        group: Group::Concurrency,
        summary: "no concurrency in the sim tier: concurrency primitive \
                  (Mutex/RwLock/atomics/thread/channel) in simulator code",
        hint: "the simulator is single-threaded and deterministic; parallelism lives in the \
               harness, one simulation per job — model the coordination as simulated state \
               or move it out of the sim tier",
    },
    Rule {
        id: "L601",
        name: "missing-catchup",
        group: Group::LeapContract,
        summary: "type implements `next_event` but defines no catch-up method \
                  (advance_quiet/leap_catchup/catch_up)",
        hint: "a next_event probe licenses the driver to leap over quiet cycles, so the type \
               must also define how it catches up on the skipped span; add an \
               advance_quiet/leap_catchup method (even if trivial) so the contract is explicit",
    },
    Rule {
        id: "L602",
        name: "stats-write-in-probe",
        group: Group::LeapContract,
        summary: "function reachable from a `next_event` probe mutates a stats counter \
                  without a cycle-delta parameter",
        hint: "next_event probes run a variable number of times per simulated cycle (the \
               leap loop re-probes), so any counter they touch drifts with scheduling; \
               either make the probe read-only or pass the skipped-cycle delta explicitly \
               (a parameter named skipped/delta/ticks/cycles/…)",
    },
    Rule {
        id: "T701",
        name: "telemetry-key-drift",
        group: Group::Telemetry,
        summary: "telemetry JSON keys differ from the schema manifest in EXPERIMENTS.md",
        hint: "consumers parse BENCH_figures.json by key; bump the figures-telemetry \
               version in telemetry.rs AND update the dlp-lint:telemetry-schema manifest \
               in EXPERIMENTS.md in the same change",
    },
    Rule {
        id: "T702",
        name: "telemetry-version-skew",
        group: Group::Telemetry,
        summary: "figures-telemetry schema version in telemetry.rs does not match the \
                  manifest in EXPERIMENTS.md",
        hint: "keep the `dlp-bench/figures-telemetry/vN` tag and the EXPERIMENTS.md \
               manifest's `version:` line in lock-step",
    },
    Rule {
        id: "X001",
        name: "bad-directive",
        group: Group::Meta,
        summary: "malformed dlp-lint suppression directive",
        hint: "directives must read `// dlp-lint: allow(<RULE>[, <RULE>…]) -- <reason>` with a \
               known rule ID and a non-empty reason",
    },
    Rule {
        id: "X002",
        name: "unused-suppression",
        group: Group::Meta,
        summary: "`dlp-lint: allow(...)` directive that matches no finding",
        hint: "the code this directive excused has changed; delete the directive (or fix \
               its placement — it covers its own line and the next) so allows cannot rot",
    },
    Rule {
        id: "X003",
        name: "parse-error",
        group: Group::Meta,
        summary: "the semantic pass could not parse this file",
        hint: "dlp-lint's item parser failed structurally (unbalanced braces or an \
               unterminated signature), so call-graph rules are blind here; this is a hard \
               CI error — simplify the construct or fix the parser",
    },
];

/// Look up a rule by ID.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// A rule hit before suppression/baseline filtering.
#[derive(Clone, Debug)]
pub struct RawFinding {
    /// Rule ID (`D004`, …).
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The offending token (identifier/macro name), used for baseline matching.
    pub token: String,
    /// Human-readable message.
    pub message: String,
    /// Call chain from a hot/probe/parallel root to the enclosing
    /// function, for call-graph findings (`"Gpu::step -> hang_report"`).
    pub reachable: Option<String>,
}

const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
    "extract_if",
];

/// Identifiers that carry address or cycle semantics in this
/// workspace; narrowing one with a bare `as` cast is almost always a
/// fidelity bug.
const ADDR_CYCLE_IDENTS: &[&str] = &[
    "addr",
    "wb_addr",
    "line",
    "line_addr",
    "tag",
    "cycle",
    "now",
    "ready",
    "done",
    "born",
    "pc",
    "deadline",
];

/// Narrow integer types that lose bits from a u64.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "usize"];

fn is_punct(t: Option<&Token>, p: char) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.starts_with(p))
}

fn is_ident(t: Option<&Token>, s: &str) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Ident && t.text == s)
}

fn ident_in(t: Option<&Token>, set: &[&str]) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Ident && set.contains(&t.text.as_str()))
}

/// Identifiers that mean "this code is doing host-side concurrency".
/// Any of them in sim-tier code is an S501 finding (imports included —
/// an unused import still invites use).
const CONCURRENCY_IDENTS: &[&str] =
    &["Mutex", "RwLock", "Condvar", "Barrier", "mpsc", "JoinHandle", "MutexGuard", "RwLockGuard"];

/// Run every token-level rule over a file. `is_test[i]` marks tokens
/// inside `#[cfg(test)]`-style items, which are exempt from all
/// groups; `in_hot[i]` marks tokens inside bodies of functions in the
/// *transitive* hot set (reachable from `fn cycle`/`step`/`tick`/
/// `next_event`), where P301 applies.
pub fn scan(tokens: &[Token], is_test: &[bool], in_hot: &[bool]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let hash_names = collect_hash_container_names(tokens);

    for (i, tok) in tokens.iter().enumerate() {
        if is_test[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        let at = |rule, token: &str, message: String| RawFinding {
            rule,
            line: tok.line,
            col: tok.col,
            token: token.to_string(),
            message,
            reachable: None,
        };
        let name = tok.text.as_str();

        // D001: wall-clock types.
        if name == "Instant" || name == "SystemTime" {
            out.push(at("D001", name, format!("wall-clock type `{name}` in simulator code")));
        }

        // D002: ambient randomness.
        if matches!(name, "thread_rng" | "from_entropy" | "RandomState") {
            out.push(at("D002", name, format!("ambient randomness via `{name}`")));
        }

        // D003: environment reads (`env::var` and friends).
        if name == "env"
            && is_punct(tokens.get(i + 1), ':')
            && is_punct(tokens.get(i + 2), ':')
            && ident_in(
                tokens.get(i + 3),
                &["var", "var_os", "vars", "vars_os", "set_var", "remove_var"],
            )
        {
            let call = &tokens[i + 3].text;
            out.push(at("D003", call, format!("environment access `env::{call}`")));
        }

        // D004: iteration over a known hash container.
        if hash_names.contains(&tok.text) {
            let method_iter = is_punct(tokens.get(i + 1), '.')
                && ident_in(tokens.get(i + 2), HASH_ITER_METHODS)
                && is_punct(tokens.get(i + 3), '(');
            if method_iter || is_for_loop_subject(tokens, i) {
                out.push(at(
                    "D004",
                    name,
                    format!("iteration over std hash container `{name}` has nondeterministic order"),
                ));
            }
        }

        // F101: truncating casts of address/cycle values.
        if name == "as" && ident_in(tokens.get(i + 1), NARROW_TYPES) {
            if let Some(w) = truncated_watched_ident(tokens, i) {
                let ty = &tokens[i + 1].text;
                out.push(at(
                    "F101",
                    &w,
                    format!("truncating cast of address/cycle value `{w}` to `{ty}`"),
                ));
            }
        }

        // F102: float-typed fields/params in simulator state.
        if (name == "f32" || name == "f64")
            && is_punct(tokens.get(i.wrapping_sub(1)), ':')
            && !is_punct(tokens.get(i.wrapping_sub(2)), ':')
            && tokens.get(i + 1).is_some_and(|t| {
                t.kind == TokenKind::Punct && matches!(t.text.as_str(), "," | ")" | "}" | "=" | ";")
            })
        {
            out.push(at("F102", name, format!("float-typed state (`{name}`) in simulator code")));
        }

        // F103: wrapping arithmetic. Method-call form only — the
        // free-standing `u64::wrapping_add(a, b)` path form is not
        // used in this workspace.
        if matches!(name, "wrapping_add" | "wrapping_sub" | "wrapping_mul")
            && is_punct(tokens.get(i.wrapping_sub(1)), '.')
            && is_punct(tokens.get(i + 1), '(')
        {
            out.push(at(
                "F103",
                name,
                format!("wrapping arithmetic `.{name}()` silently discards overflow"),
            ));
        }

        // E201/E202: .unwrap() / .expect(...).
        if (name == "unwrap" || name == "expect")
            && is_punct(tokens.get(i.wrapping_sub(1)), '.')
            && is_punct(tokens.get(i + 1), '(')
        {
            let (rule, msg) = if name == "unwrap" {
                ("E201", "`.unwrap()` aborts on corrupted simulator state")
            } else {
                ("E202", "`.expect()` aborts on corrupted simulator state")
            };
            out.push(at(rule, name, msg.to_string()));
        }

        // E203: panicking macros.
        if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
            && is_punct(tokens.get(i + 1), '!')
        {
            out.push(at("E203", name, format!("panicking macro `{name}!` in simulator code")));
        }

        // S501: no concurrency primitives in the sim tier.
        if CONCURRENCY_IDENTS.contains(&name)
            || (name.starts_with("Atomic") && name.len() > "Atomic".len())
        {
            let msg = format!("concurrency primitive `{name}` in the sim tier");
            out.push(at("S501", name, msg));
        }
        if name == "thread" && is_punct(tokens.get(i + 1), ':') && is_punct(tokens.get(i + 2), ':')
        {
            out.push(at(
                "S501",
                name,
                "host-thread access (`thread::…`) in the sim tier".to_string(),
            ));
        }

        // P301: heap allocation inside a per-cycle hot function body.
        if in_hot.get(i).copied().unwrap_or(false) {
            let alloc = match name {
                "Vec" | "Box"
                    if is_punct(tokens.get(i + 1), ':')
                        && is_punct(tokens.get(i + 2), ':')
                        && is_ident(tokens.get(i + 3), "new") =>
                {
                    Some(format!("{name}::new"))
                }
                "vec" if is_punct(tokens.get(i + 1), '!') => Some("vec!".to_string()),
                // `.to_vec()` / `.collect()` / `.collect::<..>()`.
                "to_vec" | "collect"
                    if is_punct(tokens.get(i.wrapping_sub(1)), '.')
                        && (is_punct(tokens.get(i + 1), '(')
                            || is_punct(tokens.get(i + 1), ':')) =>
                {
                    Some(format!(".{name}()"))
                }
                _ => None,
            };
            if let Some(what) = alloc {
                out.push(at(
                    "P301",
                    name,
                    format!("heap allocation `{what}` inside a per-cycle hot function"),
                ));
            }
        }
    }

    out.sort_by_key(|f| (f.line, f.col, f.rule));
    out.dedup_by(|a, b| a.rule == b.rule && a.line == b.line && a.col == b.col);
    out
}

/// Run the trace-tier rule (P302) over a file: a `-> Vec<TraceOp>`
/// return type means the function builds a whole warp's trace in
/// memory, which is exactly the O(warp-length) residency the streaming
/// engine (PR 10) eliminated. Applies to the sim tier and to
/// gpu-workloads; the compatibility adapter (`gpu-sim/src/stream.rs`)
/// is tier-exempt in the engine, and test code is masked here.
pub fn scan_p302(tokens: &[Token], is_test: &[bool]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if is_test[i] || tok.kind != TokenKind::Ident || tok.text != "Vec" {
            continue;
        }
        // `- > Vec < TraceOp >` — the return-type position only; a
        // `&mut Vec<TraceOp>` out-parameter (the segment-buffer idiom)
        // has no `->` before it.
        if is_punct(tokens.get(i.wrapping_sub(1)), '>')
            && is_punct(tokens.get(i.wrapping_sub(2)), '-')
            && is_punct(tokens.get(i + 1), '<')
            && is_ident(tokens.get(i + 2), "TraceOp")
            && is_punct(tokens.get(i + 3), '>')
        {
            out.push(RawFinding {
                rule: "P302",
                line: tok.line,
                col: tok.col,
                token: "Vec<TraceOp>".to_string(),
                message: "returning `Vec<TraceOp>` materializes a whole warp trace eagerly"
                    .to_string(),
                reachable: None,
            });
        }
    }
    out
}

/// Filesystem functions that mutate files in place; calling one in the
/// store tier bypasses the temp+fsync+rename discipline. Reads
/// (`read`, `read_dir`, `read_to_string`, `File::open`) and idempotent
/// directory creation (`create_dir_all`) are fine.
const FS_MUTATORS: &[&str] =
    &["write", "rename", "remove_file", "remove_dir", "remove_dir_all", "copy", "hard_link"];

/// Run the store-tier rule set (R401) over a file: any raw filesystem
/// mutation — `fs::write`-style free functions, `File::create`, or an
/// `OpenOptions` builder — must instead go through the audited helpers
/// in `dlp_store::atomic`, which is the one module exempt from this
/// rule.
pub fn scan_store(tokens: &[Token], is_test: &[bool]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if is_test[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        let at = |token: &str, message: String| RawFinding {
            rule: "R401",
            line: tok.line,
            col: tok.col,
            token: token.to_string(),
            message,
            reachable: None,
        };
        let path_call = |set: &[&str]| {
            (is_punct(tokens.get(i + 1), ':')
                && is_punct(tokens.get(i + 2), ':')
                && ident_in(tokens.get(i + 3), set))
            .then(|| tokens[i + 3].text.clone())
        };
        match tok.text.as_str() {
            "fs" => {
                if let Some(call) = path_call(FS_MUTATORS) {
                    out.push(at(&call, format!("raw file mutation `fs::{call}` in store tier")));
                }
            }
            "File" => {
                if let Some(call) = path_call(&["create", "create_new", "options"]) {
                    out.push(at(&call, format!("raw file mutation `File::{call}` in store tier")));
                }
            }
            "OpenOptions" if path_call(&["new"]).is_some() => {
                out.push(at("OpenOptions", "raw `OpenOptions` builder in store tier".to_string()));
            }
            _ => {}
        }
    }
    out.sort_by_key(|f| (f.line, f.col, f.rule));
    out.dedup_by(|a, b| a.rule == b.rule && a.line == b.line && a.col == b.col);
    out
}

/// Names declared (anywhere in the file) with a `HashMap`/`HashSet`
/// type annotation or initialised from one of its constructors. A
/// per-file name set is deliberately coarse — shadowing across
/// functions can over-match, which the allow directive handles.
fn collect_hash_container_names(tokens: &[Token]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || (tok.text != "HashMap" && tok.text != "HashSet") {
            continue;
        }
        // Walk backward over a `::`-separated path (`std::collections::HashMap`).
        let mut j = i;
        while j >= 3
            && is_punct(tokens.get(j - 1), ':')
            && is_punct(tokens.get(j - 2), ':')
            && tokens.get(j - 3).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            j -= 3;
        }
        // `name: HashMap<..>` (field/param/let-annotation/struct-literal)
        // or `name = HashMap::new()`.
        let binder = if j >= 2
            && (is_punct(tokens.get(j - 1), ':') || is_punct(tokens.get(j - 1), '='))
            && !is_punct(tokens.get(j - 2), ':')
        {
            tokens.get(j - 2)
        } else {
            None
        };
        if let Some(b) = binder {
            if b.kind == TokenKind::Ident && !names.contains(&b.text) {
                names.push(b.text.clone());
            }
        }
    }
    names
}

/// Is token `i` the subject of a `for … in [&][mut] [self.]name` loop?
fn is_for_loop_subject(tokens: &[Token], i: usize) -> bool {
    // Skip backward over borrow/deref/path noise directly before the name.
    let mut j = i;
    while j > 0 {
        let t = &tokens[j - 1];
        let skip = (t.kind == TokenKind::Punct && matches!(t.text.as_str(), "&" | "." | "*"))
            || (t.kind == TokenKind::Ident && matches!(t.text.as_str(), "mut" | "self"));
        if skip {
            j -= 1;
        } else {
            break;
        }
    }
    if j == 0 || !is_ident(tokens.get(j - 1), "in") {
        return false;
    }
    // `for <pattern> in` — the pattern is short; look a few tokens back.
    let lo = j.saturating_sub(10);
    tokens[lo..j - 1].iter().any(|t| t.kind == TokenKind::Ident && t.text == "for")
}

/// For an `as` token at `i` (followed by a narrow type), return the
/// watched identifier being truncated, if the cast is unmasked.
fn truncated_watched_ident(tokens: &[Token], i: usize) -> Option<String> {
    if i == 0 {
        return None;
    }
    let prev = &tokens[i - 1];
    if prev.kind == TokenKind::Ident && ADDR_CYCLE_IDENTS.contains(&prev.text.as_str()) {
        return Some(prev.text.clone());
    }
    if !is_punct(Some(prev), ')') {
        return None;
    }
    // `( … ) as uN` — scan the parenthesised expression. A masking or
    // bounding operation inside makes the narrowing intentional.
    let mut depth = 1usize;
    let mut j = i - 1;
    let mut watched: Option<String> = None;
    let mut bounded = false;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "&" | "%" | ">" => bounded = true,
                _ => {}
            }
        } else if t.kind == TokenKind::Ident {
            if matches!(t.text.as_str(), "min" | "rem_euclid" | "clamp") {
                bounded = true;
            }
            if watched.is_none() && ADDR_CYCLE_IDENTS.contains(&t.text.as_str()) {
                watched = Some(t.text.clone());
            }
        }
    }
    if bounded {
        None
    } else {
        watched
    }
}
