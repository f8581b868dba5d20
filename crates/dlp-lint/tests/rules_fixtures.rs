//! Fixture-based tests: one positive and one negative case per rule,
//! plus suppression-directive behaviour over real `lint_source` runs.
//! Fixtures are linted under a simulator-tier path
//! (`crates/gpu-mem/src/…`) so the full rule set applies.

use dlp_lint::{is_sim_tier, lint_source, Finding};

/// Lint a fixture as if it lived in the simulator tier.
fn lint(src: &str) -> Vec<Finding> {
    lint_source("crates/gpu-mem/src/fixture.rs", src)
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------------------
// Tier scoping
// ---------------------------------------------------------------------------

#[test]
fn sim_tier_covers_exactly_the_three_simulator_crates() {
    assert!(is_sim_tier("crates/dlp-core/src/vta.rs"));
    assert!(is_sim_tier("crates/gpu-mem/src/deep/nested.rs"));
    assert!(is_sim_tier("crates/gpu-sim/src/sm.rs"));
    // Harness, tooling, tests and examples are exempt.
    assert!(!is_sim_tier("crates/dlp-bench/src/telemetry.rs"));
    assert!(!is_sim_tier("crates/rd-tools/src/walk.rs"));
    assert!(!is_sim_tier("crates/gpu-mem/tests/l1d_properties.rs"));
    assert!(!is_sim_tier("examples/quickstart.rs"));
    assert!(!is_sim_tier("crates/gpu-mem/src/"));
}

#[test]
fn non_sim_tier_files_produce_no_findings() {
    let src = "fn f() { let t = Instant::now(); t.elapsed().unwrap(); }";
    assert!(lint_source("crates/dlp-bench/src/perf.rs", src).is_empty());
    assert!(!lint_source("crates/gpu-mem/src/perf.rs", src).is_empty());
}

// ---------------------------------------------------------------------------
// D — determinism
// ---------------------------------------------------------------------------

#[test]
fn d001_flags_wall_clock_types() {
    let f = lint("fn f() { let t0 = std::time::Instant::now(); }");
    assert_eq!(rules_of(&f), ["D001"]);
    assert_eq!(f[0].token, "Instant");
    let f = lint("fn f() -> SystemTime { SystemTime::now() }");
    assert!(f.iter().all(|f| f.rule == "D001"));
    // Simulated time is the cycle counter — not a wall clock.
    assert!(lint("fn f(now: u64) -> u64 { now + 4 }").is_empty());
}

#[test]
fn d002_flags_ambient_randomness() {
    let f = lint("fn f() { let mut rng = rand::thread_rng(); }");
    assert_eq!(rules_of(&f), ["D002"]);
    let f = lint("fn f() { let s = RandomState::new(); }");
    assert_eq!(rules_of(&f), ["D002"]);
    // Explicitly seeded generators are the sanctioned pattern.
    assert!(lint("fn f(seed: u64) { let rng = Lcg::seed_from(seed); }").is_empty());
}

#[test]
fn d003_flags_environment_reads() {
    let f = lint("fn f() { let v = std::env::var(\"DLP_FORCE_FAIL\"); }");
    assert_eq!(rules_of(&f), ["D003"]);
    assert_eq!(f[0].token, "var");
    let f = lint("fn f() { for (k, v) in std::env::vars() {} }");
    assert_eq!(rules_of(&f), ["D003"]);
    // Non-read env API (and unrelated `env` idents) pass.
    assert!(lint("fn f() { let d = std::env::current_dir(); }").is_empty());
    assert!(lint("fn f(env: &Config) { env.lookup(3); }").is_empty());
}

#[test]
fn d004_flags_hash_container_iteration() {
    // Method-call iteration on a declared HashMap.
    let f = lint(
        "struct S { entries: HashMap<u64, u32> }\n\
         impl S { fn f(&self) -> usize { self.entries.values().count() } }",
    );
    assert_eq!(rules_of(&f), ["D004"]);
    // For-loop iteration on a HashSet local.
    let f = lint(
        "fn f() { let seen: HashSet<u64> = HashSet::new();\n\
         for x in &seen { drop(x); } }",
    );
    assert_eq!(rules_of(&f), ["D004"]);
    // Point lookups are order-free; BTreeMap iteration is sorted.
    assert!(lint(
        "struct S { entries: HashMap<u64, u32> }\n\
         impl S { fn f(&self, k: u64) -> Option<&u32> { self.entries.get(&k) } }",
    )
    .is_empty());
    assert!(lint(
        "fn f(m: &BTreeMap<u64, u32>) -> usize { m.values().count() }",
    )
    .is_empty());
}

// ---------------------------------------------------------------------------
// F — fidelity
// ---------------------------------------------------------------------------

#[test]
fn f101_flags_unmasked_narrowing_of_addresses_and_cycles() {
    let f = lint("fn f(addr: u64) -> u32 { addr as u32 }");
    assert_eq!(rules_of(&f), ["F101"]);
    assert_eq!(f[0].token, "addr");
    let f = lint("fn f(cycle: u64) -> usize { (cycle + 1) as usize }");
    assert_eq!(rules_of(&f), ["F101"]);
    // An explicit mask or bound makes the narrowing intentional.
    assert!(lint("fn f(addr: u64) -> usize { (addr & 0x7f) as usize }").is_empty());
    assert!(lint("fn f(now: u64) -> u32 { (now % 1024) as u32 }").is_empty());
    // Widening and non-watched identifiers pass.
    assert!(lint("fn f(addr: u32) -> u64 { addr as u64 }").is_empty());
    assert!(lint("fn f(idx: u64) -> usize { idx as usize }").is_empty());
}

#[test]
fn f102_flags_float_typed_state() {
    let f = lint("struct Stats { hit_rate: f64, misses: u64 }");
    assert_eq!(rules_of(&f), ["F102"]);
    let f = lint("fn f(alpha: f32) {}");
    assert_eq!(rules_of(&f), ["F102"]);
    // Ratios computed at report time (return position / casts) pass.
    assert!(lint("fn ipc(&self) -> f64 { self.insns as f64 / self.cycles as f64 }").is_empty());
    assert!(lint("use std::f64::consts::PI;").is_empty());
}

#[test]
fn f103_flags_wrapping_arithmetic() {
    // The launch-cursor replay bug class: a wrapping add on a cursor or
    // cycle quantity silently corrupts state instead of erroring.
    let f = lint("fn f(cursor: usize, slots: usize) -> usize { cursor.wrapping_add(slots) }");
    assert_eq!(rules_of(&f), ["F103"]);
    assert_eq!(f[0].token, "wrapping_add");
    let f = lint("fn f(a: u64, b: u64) -> u64 { a.wrapping_sub(b).wrapping_mul(3) }");
    assert_eq!(rules_of(&f), ["F103", "F103"]);
    // checked/saturating arithmetic is the sanctioned replacement.
    assert!(lint("fn f(a: u64, b: u64) -> Option<u64> { a.checked_add(b) }").is_empty());
    assert!(lint("fn f(a: u64, b: u64) -> u64 { a.saturating_sub(b) }").is_empty());
    // A bare identifier named like the method is not a call.
    assert!(lint("fn f(wrapping_add: u64) -> u64 { wrapping_add }").is_empty());
}

#[test]
fn f103_is_suppressible_for_deliberate_modular_arithmetic() {
    let src = "\
        fn fnv(h: u64, b: u8) -> u64 {\n\
            // dlp-lint: allow(F103) -- FNV-1a is modular multiplication by definition\n\
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)\n\
        }\n";
    assert!(lint(src).is_empty());
}

// ---------------------------------------------------------------------------
// E — error handling
// ---------------------------------------------------------------------------

#[test]
fn e201_flags_unwrap_calls() {
    let f = lint("fn f(x: Option<u32>) -> u32 { x.unwrap() }");
    assert_eq!(rules_of(&f), ["E201"]);
    // unwrap_or and friends are total — no abort path.
    assert!(lint("fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }").is_empty());
    assert!(lint("fn f(x: Option<u32>) -> u32 { x.unwrap_or_default() }").is_empty());
}

#[test]
fn e202_flags_expect_calls() {
    let f = lint("fn f(x: Option<u32>) -> u32 { x.expect(\"live warp\") }");
    assert_eq!(rules_of(&f), ["E202"]);
    assert!(lint("fn f(x: Option<u32>) -> u32 { x.map_or(0, |v| v) }").is_empty());
}

#[test]
fn e203_flags_panicking_macros() {
    assert_eq!(rules_of(&lint("fn f() { panic!(\"boom\"); }")), ["E203"]);
    assert_eq!(rules_of(&lint("fn f() { unreachable!(); }")), ["E203"]);
    assert_eq!(rules_of(&lint("fn f() { todo!(); }")), ["E203"]);
    // assert!/debug_assert! document invariants without being flagged.
    assert!(lint("fn f(n: usize) { debug_assert!(n > 0); assert!(n < 64); }").is_empty());
}

// ---------------------------------------------------------------------------
// P — hot-path performance
// ---------------------------------------------------------------------------

#[test]
fn p301_flags_heap_allocation_in_hot_functions() {
    let f = lint("fn cycle(&mut self, now: u64) { let buf: Vec<u64> = Vec::new(); drop(buf); }");
    assert_eq!(rules_of(&f), ["P301"]);
    assert_eq!(f[0].token, "Vec");
    let f = lint("fn tick(&mut self) { let v = vec![0u64; 4]; drop(v); }");
    assert_eq!(rules_of(&f), ["P301"]);
    let f = lint("fn step(&mut self) { let b = Box::new(Report::default()); drop(b); }");
    assert_eq!(rules_of(&f), ["P301"]);
    let f = lint("fn cycle(&mut self, lines: &[u64]) { let c = lines.to_vec(); drop(c); }");
    assert_eq!(rules_of(&f), ["P301"]);
    let f = lint(
        "fn step(&mut self) { let ids: Vec<u64> = self.warps.ids().collect(); drop(ids); }",
    );
    assert_eq!(rules_of(&f), ["P301"]);
}

#[test]
fn p301_only_applies_inside_hot_function_bodies() {
    // The same allocations are fine in constructors and cold helpers.
    assert!(lint("fn new() -> Self { Self { buf: Vec::new(), q: vec![0; 8] } }").is_empty());
    assert!(lint("fn report(&self) -> Vec<u64> { self.lines.to_vec() }").is_empty());
    // A bodyless trait declaration marks nothing …
    assert!(lint("trait Clocked { fn cycle(&mut self, now: u64); }").is_empty());
    // … and the mask ends at the hot body's closing brace.
    let f = lint(
        "fn cycle(&mut self) { self.n += 1; }\n\
         fn drain(&mut self) -> Vec<u64> { self.q.drain(..).collect() }",
    );
    assert!(f.is_empty(), "allocation after the hot body must not be flagged: {f:?}");
    // Reused preallocated buffers — the sanctioned pattern — pass.
    assert!(lint("fn cycle(&mut self) { self.scratch.clear(); self.scratch.push(1); }").is_empty());
}

#[test]
fn p301_respects_suppression_directives_and_cfg_test() {
    let src = "\
        fn step(&mut self) {\n\
            // dlp-lint: allow(P301) -- cold hang-report arm, runs once per abort\n\
            let r = Box::new(Report::default());\n\
            drop(r);\n\
        }\n";
    assert!(lint(src).is_empty());
    let src = "\
        #[cfg(test)]\n\
        mod tests {\n\
            fn cycle_harness() { fn cycle() { let v: Vec<u64> = Vec::new(); drop(v); } }\n\
        }\n";
    assert!(lint(src).is_empty());
}

#[test]
fn p302_flags_vec_traceop_return_types() {
    let src = "fn warp_ops(&self, cta: usize, warp: usize) -> Vec<TraceOp> { Vec::new() }";
    // Fires in the sim tier…
    let f = lint(src);
    assert_eq!(rules_of(&f), ["P302"]);
    assert_eq!(f[0].token, "Vec<TraceOp>");
    // …and in the workload-generator crate, where no other rule applies.
    let f = lint_source("crates/gpu-workloads/src/apps/fixture.rs", src);
    assert_eq!(rules_of(&f), ["P302"]);
}

#[test]
fn p302_trace_tier_carries_no_other_rules() {
    // Seeded-RNG setup, Vec-built segments, even an unwrap: the
    // generator crate is harness-adjacent, only P302 patrols it.
    let noise = "fn f(x: Option<u32>) -> u32 { let t = Instant::now(); drop(t); x.unwrap() }";
    assert!(lint_source("crates/gpu-workloads/src/gen.rs", noise).is_empty());
}

#[test]
fn p302_permits_out_params_and_other_element_types() {
    // The segment-buffer idiom — filling a caller-owned buffer — is
    // the sanctioned replacement, not a finding.
    assert!(lint("fn emit(&mut self, seg: u64, out: &mut Vec<TraceOp>) -> bool { true }").is_empty());
    // Other Vec returns (addresses, lines) are not trace materialization.
    assert!(lint("fn addrs(&self) -> Vec<u64> { Vec::new() }").is_empty());
}

#[test]
fn p302_exempts_the_stream_adapter_and_test_code() {
    let src = "fn materialize(stream: Box<dyn OpStream>) -> Vec<TraceOp> { Vec::new() }";
    // The compatibility adapter implements materialization; it is the
    // one file carved out of the trace tier.
    assert!(lint_source("crates/gpu-sim/src/stream.rs", src).is_empty());
    // Test helpers materialize freely.
    let test_src = "#[cfg(test)]\nmod tests { fn trace() -> Vec<TraceOp> { Vec::new() } }";
    assert!(lint(test_src).is_empty());
    assert!(lint_source("crates/gpu-workloads/src/apps/fixture.rs", test_src).is_empty());
}

#[test]
fn p302_is_suppressible_at_the_sanctioned_delegation_point() {
    let src = "\
        // dlp-lint: allow(P302) -- delegates to warp_stream, used only off the simulation path\n\
        fn warp_ops(&self, cta: usize, warp: usize) -> Vec<TraceOp> { Vec::new() }\n";
    assert!(lint(src).is_empty());
}

#[test]
fn trace_tier_covers_workloads_and_sim_but_not_the_adapter() {
    use dlp_lint::is_trace_tier;
    assert!(is_trace_tier("crates/gpu-workloads/src/gen.rs"));
    assert!(is_trace_tier("crates/gpu-workloads/src/apps/mm.rs"));
    assert!(is_trace_tier("crates/gpu-sim/src/kernel.rs"));
    assert!(!is_trace_tier("crates/gpu-sim/src/stream.rs"));
    assert!(!is_trace_tier("crates/gpu-workloads/tests/stream_equivalence.rs"));
    assert!(!is_trace_tier("crates/dlp-bench/src/harness.rs"));
}

#[test]
fn cfg_test_items_are_exempt_from_every_rule() {
    let src = "\
        fn live() -> u64 { 1 }\n\
        #[cfg(test)]\n\
        mod tests {\n\
            fn helper(x: Option<u32>) -> u32 { x.unwrap() }\n\
            fn clock() { let t = Instant::now(); panic!(\"{t:?}\"); }\n\
        }\n";
    assert!(lint(src).is_empty());
    // …but code after the test module is scanned again.
    let trailing = format!("{src}fn late(x: Option<u32>) -> u32 {{ x.unwrap() }}\n");
    assert_eq!(rules_of(&lint(&trailing)), ["E201"]);
}

// ---------------------------------------------------------------------------
// R — store-tier crash safety
// ---------------------------------------------------------------------------

/// Lint a fixture as if it lived in the store tier.
fn lint_store(src: &str) -> Vec<Finding> {
    lint_source("crates/dlp-store/src/fixture.rs", src)
}

#[test]
fn store_tier_covers_store_and_daemon_but_not_the_atomic_impl() {
    use dlp_lint::is_store_tier;
    assert!(is_store_tier("crates/dlp-store/src/store.rs"));
    assert!(is_store_tier("crates/dlp-store/src/fault.rs"));
    // The atomic helpers implement the discipline; they are exempt.
    assert!(!is_store_tier("crates/dlp-store/src/atomic.rs"));
    // Tests, the harness, and the simulator crates are out of scope.
    assert!(!is_store_tier("crates/dlp-store/tests/corruption_roundtrip.rs"));
    assert!(!is_store_tier("crates/dlp-bench/src/persist.rs"));
    assert!(!is_store_tier("crates/gpu-mem/src/l1d.rs"));
}

#[test]
fn r401_flags_raw_file_mutation_in_store_tier() {
    let f = lint_store("fn f(p: &Path) { std::fs::write(p, b\"x\").unwrap(); }");
    assert_eq!(rules_of(&f), ["R401"]);
    assert_eq!(f[0].token, "write");
    let f = lint_store("fn f(a: &Path, b: &Path) { fs::rename(a, b).unwrap(); }");
    assert_eq!(rules_of(&f), ["R401"]);
    let f = lint_store("fn f(p: &Path) { let _ = File::create(p); }");
    assert_eq!(rules_of(&f), ["R401"]);
    let f = lint_store("fn f(p: &Path) { OpenOptions::new().append(true).open(p).unwrap(); }");
    assert_eq!(rules_of(&f), ["R401"]);
}

#[test]
fn r401_permits_reads_dir_creation_and_the_atomic_helpers() {
    let ok = "\
        fn f(p: &Path) {\n\
            std::fs::create_dir_all(p).unwrap();\n\
            let _ = std::fs::read(p);\n\
            let _ = std::fs::read_dir(p);\n\
            let _ = std::fs::read_to_string(p);\n\
            let _ = File::open(p);\n\
            atomic::atomic_write(p, b\"x\").unwrap();\n\
            atomic::append_line(p, \"l\").unwrap();\n\
        }\n";
    assert!(lint_store(ok).is_empty(), "{:?}", lint_store(ok));
}

#[test]
fn r401_is_scoped_exempt_in_tests_and_suppressible() {
    // The same mutation outside the store tier is not a finding.
    let src = "fn f(p: &Path) { std::fs::write(p, b\"x\").unwrap(); }";
    assert!(lint_source("crates/rd-tools/src/fixture.rs", src).is_empty());
    // The sim rules do not leak into the store tier: unwrap/env/floats
    // are the harness's business there, not dlp-lint's.
    let sim_noise = "fn f() { let t = Instant::now(); t.elapsed().unwrap(); }";
    assert!(lint_store(sim_noise).is_empty());
    // cfg(test) items are exempt, as everywhere.
    let test_src = "\
        #[cfg(test)]\n\
        mod tests {\n\
            fn f(p: &Path) { std::fs::write(p, b\"x\").unwrap(); }\n\
        }\n";
    assert!(lint_store(test_src).is_empty());
    // And the allow directive works with a reason.
    let suppressed = "\
        // dlp-lint: allow(R401) -- socket file, not a store entry\n\
        fn f(p: &Path) { std::fs::remove_file(p).unwrap(); }\n";
    assert!(lint_store(suppressed).is_empty());
}

// ---------------------------------------------------------------------------
// Suppression directives and X001
// ---------------------------------------------------------------------------

#[test]
fn directive_on_preceding_line_suppresses_next_line() {
    let src = "\
        fn f(m: &HashMap<u64, u32>) -> usize {\n\
            let m: HashMap<u64, u32> = HashMap::new();\n\
            // dlp-lint: allow(D004) -- sum over values is order-independent\n\
            m.values().count()\n\
        }\n";
    assert!(lint(src).is_empty(), "directive should suppress the D004 below it");
}

#[test]
fn trailing_directive_suppresses_its_own_line() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // dlp-lint: allow(E201) -- fixture\n";
    assert!(lint(src).is_empty());
}

#[test]
fn directive_for_a_different_rule_does_not_suppress() {
    // The wrong-rule directive both fails to suppress the E201 and is
    // itself flagged unused (X002).
    let src = "\
        // dlp-lint: allow(D004) -- wrong rule\n\
        fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert_eq!(rules_of(&lint(src)), ["X002", "E201"]);
}

#[test]
fn directive_covers_a_comma_separated_rule_list() {
    let src = "\
        // dlp-lint: allow(E201, E203) -- fixture exercising both\n\
        fn f(x: Option<u32>) -> u32 { if x.is_none() { panic!(\"gone\") } x.unwrap() }\n";
    assert!(lint(src).is_empty());
}

#[test]
fn x001_reports_malformed_directives() {
    // Missing reason.
    let f = lint("// dlp-lint: allow(D004)\nfn f() {}\n");
    assert_eq!(rules_of(&f), ["X001"]);
    // Unknown rule ID.
    let f = lint("// dlp-lint: allow(Z999) -- because\nfn f() {}\n");
    assert_eq!(rules_of(&f), ["X001"]);
    // Not an allow() form at all.
    let f = lint("// dlp-lint: disable D004 -- nope\nfn f() {}\n");
    assert_eq!(rules_of(&f), ["X001"]);
    // Empty reason after the separator.
    let f = lint("// dlp-lint: allow(D004) --   \nfn f() {}\n");
    assert_eq!(rules_of(&f), ["X001"]);
}

// ---------------------------------------------------------------------------
// S — no concurrency in the sim tier
// ---------------------------------------------------------------------------

#[test]
fn s501_flags_concurrency_primitives_in_the_sim_tier() {
    let f = lint("fn f() { let m = Mutex::new(0u64); }");
    assert_eq!(rules_of(&f), ["S501"]);
    let f = lint("fn f() { let c = AtomicU64::new(0); }");
    assert_eq!(rules_of(&f), ["S501"]);
    let f = lint("fn f() { std::thread::spawn(|| {}); }");
    assert_eq!(rules_of(&f), ["S501"]);
    // No sim-tier file is exempt, and an atomic access is one finding:
    // the atomic type itself.
    let f = lint_source(
        "crates/gpu-sim/src/gpu.rs",
        "fn f(x: &AtomicU64) { x.store(1, Ordering::Relaxed); }",
    );
    assert_eq!(rules_of(&f), ["S501"]);
    assert_eq!(f[0].token, "AtomicU64");
    // The workload crate is outside the sim tier: trace ingestion may
    // validate a file on scoped threads before any simulation starts.
    let scoped = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
    assert!(lint_source("crates/gpu-workloads/src/trace.rs", scoped).is_empty());
}

// ---------------------------------------------------------------------------
// L — leap contract (semantic pass)
// ---------------------------------------------------------------------------

#[test]
fn l601_requires_a_catchup_method_beside_next_event() {
    // Deleting the catch-up method from a next_event implementor is the
    // exact regression this fixture pins.
    let missing = "impl Part { pub fn next_event(&mut self, now: u64) -> Option<u64> { Some(now + 1) } }";
    let f = lint(missing);
    assert_eq!(rules_of(&f), ["L601"]);
    assert_eq!(f[0].token, "Part");
    // Any of the three catch-up spellings satisfies the contract…
    for catchup in ["advance_quiet", "leap_catchup", "catch_up"] {
        let ok = format!(
            "impl Part {{ pub fn next_event(&mut self, now: u64) -> Option<u64> {{ Some(now + 1) }} \
             pub fn {catchup}(&mut self, skipped: u64) {{ let _ = skipped; }} }}"
        );
        assert!(lint(&ok).is_empty(), "{catchup} should satisfy L601");
    }
    // …even when it lives in another impl block or file of the type.
    let split = [
        ("crates/gpu-mem/src/a.rs", "impl Part { pub fn next_event(&mut self, now: u64) -> Option<u64> { Some(now + 1) } }"),
        ("crates/gpu-mem/src/b.rs", "impl Part { pub fn advance_quiet(&mut self, now: u64) { let _ = now; } }"),
    ];
    assert!(dlp_lint::lint_sources(&split).is_empty());
}

#[test]
fn l602_flags_stats_writes_in_probe_reachable_code_without_a_delta() {
    // `bound` is reachable from next_event and mutates a stats counter
    // with no cycle-delta parameter: the leap would undercount. (The
    // impl carries an advance_quiet so L601 stays out of the picture.)
    let bad = "impl Part { fn next_event(&mut self, now: u64) -> Option<u64> { self.bound(now) } \
               fn advance_quiet(&mut self, skipped: u64) { let _ = skipped; } \
               fn bound(&mut self, now: u64) -> Option<u64> { self.stats.probes += 1; Some(now + 1) } }";
    let f = lint(bad);
    assert_eq!(rules_of(&f), ["L602"]);
    assert_eq!(f[0].token, "self.stats.probes");
    // A delta-shaped parameter (skipped/delta/ticks/…) licenses the write.
    let ok = "impl Part { fn next_event(&mut self, now: u64) -> Option<u64> { self.bound(now, 0) } \
              fn advance_quiet(&mut self, skipped: u64) { let _ = skipped; } \
              fn bound(&mut self, now: u64, skipped: u64) -> Option<u64> { self.stats.probes += skipped; Some(now + 1) } }";
    assert!(lint(ok).is_empty());
    // The same write outside the probe's reach is not L602's business.
    let quiet = "impl Part { fn cycle(&mut self) { self.stats.probes += 1; } }";
    assert!(lint(quiet).is_empty());
}

// ---------------------------------------------------------------------------
// Transitive hot-path propagation (P301/F103 v2)
// ---------------------------------------------------------------------------

#[test]
fn p301_propagates_through_callees_of_a_hot_root() {
    // The allocation sits two calls below `cycle`, in a different file.
    let files = [
        ("crates/gpu-mem/src/a.rs", "impl Sm { pub fn cycle(&mut self, now: u64) { self.l1d.process(now); } }"),
        ("crates/gpu-mem/src/b.rs", "impl L1dCache { pub fn process(&mut self, now: u64) { helper(now); } } \
          fn helper(now: u64) { let v = vec![now]; let _ = v; }"),
    ];
    let f = dlp_lint::lint_sources(&files);
    assert_eq!(rules_of(&f), ["P301"]);
    assert_eq!(f[0].file, "crates/gpu-mem/src/b.rs");
    assert_eq!(
        f[0].reachable_from.as_deref(),
        Some("Sm::cycle -> L1dCache::process -> helper")
    );
    // The identical helper with no hot caller is clean.
    let cold = [("crates/gpu-mem/src/b.rs", "fn helper(now: u64) { let v = vec![now]; let _ = v; }")];
    assert!(dlp_lint::lint_sources(&cold).is_empty());
}

#[test]
fn cold_attribute_stops_hot_propagation() {
    let src = "impl Sm { pub fn cycle(&mut self, now: u64) { if now == 0 { self.abort(now); } } \
               #[cold] fn abort(&self, now: u64) { let b = Box::new(now); let _ = b; } }";
    assert!(lint(src).is_empty(), "#[cold] is the declared escape hatch");
}

#[test]
fn f103_in_a_hot_callee_carries_the_reachability_chain() {
    // F103 fires everywhere in the tier; when the site is transitively
    // hot the finding additionally explains *how* it got hot.
    let files = [
        ("crates/gpu-mem/src/a.rs", "impl Sm { pub fn tick(&mut self, now: u64) { bump(now); } }"),
        ("crates/gpu-mem/src/b.rs", "fn bump(now: u64) -> u64 { now.wrapping_add(1) }"),
    ];
    let f = dlp_lint::lint_sources(&files);
    assert_eq!(rules_of(&f), ["F103"]);
    assert_eq!(f[0].reachable_from.as_deref(), Some("Sm::tick -> bump"));
    // The same wrapping call with no hot caller is still F103, but
    // carries no chain.
    let cold = [("crates/gpu-mem/src/b.rs", "fn bump(now: u64) -> u64 { now.wrapping_add(1) }")];
    let f = dlp_lint::lint_sources(&cold);
    assert_eq!(rules_of(&f), ["F103"]);
    assert!(f[0].reachable_from.is_none());
}

// ---------------------------------------------------------------------------
// X002 — unused suppressions
// ---------------------------------------------------------------------------

#[test]
fn x002_flags_a_directive_that_suppresses_nothing() {
    let f = lint("// dlp-lint: allow(E201) -- nothing here uses unwrap\nfn f() {}\n");
    assert_eq!(rules_of(&f), ["X002"]);
    assert_eq!(f[0].line, 1);
    // A used directive is not flagged.
    let ok = "// dlp-lint: allow(E201) -- fixture\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(lint(ok).is_empty());
}

#[test]
fn x002_exempts_directives_inside_test_modules() {
    // Test code is lint-exempt, so its directives necessarily match
    // nothing; flagging them would force deleting documentation.
    let src = "\
        fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
        #[cfg(test)]\n\
        mod tests {\n\
            // dlp-lint: allow(E201) -- exercised only under cfg(test)\n\
            fn probe(x: Option<u32>) -> u32 { x.unwrap() }\n\
        }\n";
    assert!(lint(src).is_empty());
}
