//! # dlp-lint — static invariants for the DLP simulator workspace
//!
//! A self-contained static analysis pass (hand-rolled lexer, no
//! `syn`, no network dependencies) that enforces the determinism,
//! fidelity, and error-handling invariants the reproduction's
//! headline results rest on — at CI time, before a violation can
//! corrupt a run:
//!
//! * **D rules** — no wall clock, ambient randomness, env reads, or
//!   std hash-container iteration in `dlp-core`/`gpu-mem`/`gpu-sim`
//!   (protects the FNV-1a golden digest and byte-identical parallel
//!   sweeps).
//! * **F rules** — no truncating casts of address/cycle values, no
//!   float-typed simulator state (protects the 7-bit insn-ID hash,
//!   4-bit PL saturation, and sampling-period statistics).
//! * **E rules** — no `unwrap()`/`expect()`/`panic!` in simulator
//!   code (steers to the typed `MemError`/`SimError` paths from the
//!   PR 1 integrity layer).
//! * **R rules** — no raw filesystem mutation in the store tier
//!   (`dlp-store`); every write goes through the atomic
//!   temp+fsync+rename helpers so a crash never tears an entry.
//! * **S rules** — no concurrency in the sim tier: no locks, atomics,
//!   channels or host threads in `dlp-core`/`gpu-mem`/`gpu-sim`.
//! * **L rules** — leap-contract: every `next_event` implementor
//!   defines a catch-up method, and probe-reachable code never
//!   mutates stats counters without an explicit cycle delta.
//! * **T rules** — the telemetry JSON keys emitted by
//!   `dlp-bench/src/telemetry.rs` stay in lock-step with the schema
//!   manifest (and version) documented in EXPERIMENTS.md.
//!
//! Since PR 8 the engine is a two-pass semantic analyzer: a
//! hand-rolled item-level parser ([`parser`]) feeds a workspace symbol
//! table ([`symbols`]) and call graph ([`callgraph`]), so the hot-path
//! rules (P301/F103) propagate *transitively* through callees of the
//! per-cycle roots instead of matching only the textual body.
//!
//! A finding is accepted only by an inline directive at its site
//! (`// dlp-lint: allow(<rule>) -- <reason>`); CI fails on any other
//! finding, and a directive that matches nothing is itself a finding
//! (X002). See the `dlp-lint` binary (`cargo dlp-lint`) and the
//! "Determinism & fidelity invariants" section of DESIGN.md.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod callgraph;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod symbols;
pub mod walk;

pub use callgraph::{CallGraph, Reach};
pub use diag::{json, render_json, render_text, Finding, DIAG_SCHEMA};
pub use engine::{
    check_telemetry, is_sim_tier, is_store_tier, is_trace_tier, lint_source, lint_sources,
    lint_workspace, Report, EXPERIMENTS_REL, TELEMETRY_REL,
};
pub use parser::{parse, FileAst, FnDef};
pub use rules::{rule_by_id, Group, Rule, RULES};
pub use symbols::Symbols;
