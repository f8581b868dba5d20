//! Per-layer metrics.
//!
//! Counts come from the traced child's own results (`RunStats`, the
//! sampling summaries, ticked cycles, the harness's job telemetry) and
//! its spans. Per-call costs come from isolated replays of each
//! distinct job's inputs through the public entry points, timed in
//! batches of many calls (a per-call clock read would cost about as
//! much as the call).

use crate::spans::Spans;
use crate::stats;
use crate::workloads::{sim_config, Batch, JobData, Params, Workload};
use dlp_bench::telemetry::JobRecord;
use dlp_core::{build_policy, CacheGeometry, PolicyKind, PolicyStats};
use gpu_mem::icnt::IcntConfig;
use gpu_mem::{
    CacheStats, Interconnect, L1dCache, L1dConfig, MemReq, MemoryPartition, PartitionConfig,
};
use gpu_sim::coalescer::coalesce_into;
use gpu_sim::isa::{OpKind, NO_REG};
use gpu_sim::{Gpu, Kernel, SimConfig};
use gpu_workloads::{build, TraceKernel};
use std::hint::black_box;
use std::time::Instant;

/// Named per-layer values, in catalog-independent order.
pub type Layers = Vec<(&'static str, f64)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metrics of the traced child: counts over the distinct simulations it
/// ran, host time per simulated event, harness behaviour and spans.
pub fn traced(
    w: Workload,
    batch: &Batch,
    spans: &Spans,
    jobs: &[JobRecord],
    child_s: f64,
    workers: usize,
) -> Layers {
    let runs: Vec<_> = batch
        .jobs
        .iter()
        .filter(|j| j.unique)
        .filter_map(|j| Some((j, j.result.as_ref().ok()?)))
        .collect();
    let sum = |f: &dyn Fn(&JobData) -> u64| runs.iter().map(|(_, d)| f(d)).sum::<u64>() as f64;
    let (mut l1d, mut l2, mut policy) = (
        CacheStats::default(),
        CacheStats::default(),
        PolicyStats::default(),
    );
    for (_, d) in &runs {
        l1d.merge(&d.stats.l1d);
        l2.merge(&d.stats.l2);
        policy.merge(&d.stats.policy);
    }
    let cycles = sum(&|d| d.stats.cycles);
    let warp_insns = sum(&|d| d.stats.warp_insns);
    // Host time per simulated event describes the core loop, so the
    // RD-profiled jobs (whose time is `rd.profiled_s`) stay out of both
    // sides. They are the first harness calls `full-all` makes, one at a
    // time, and each call leaves one telemetry record, so their records
    // lead the list.
    let core_sum = |f: &dyn Fn(&JobData) -> u64| {
        runs.iter()
            .filter(|(j, _)| !j.profiled)
            .map(|(_, d)| f(d))
            .sum::<u64>() as f64
    };
    let host_s = if w.uses_harness() {
        jobs.iter()
            .skip(batch.jobs.iter().filter(|j| j.profiled).count())
            .filter(|j| !j.cached && j.sim_cycles > 0)
            .map(|j| j.wall_ms / 1e3)
            .sum()
    } else {
        spans.total_s("Gpu::run").unwrap_or(0.0)
    };
    let sms = SimConfig::tesla_m2090(PolicyKind::Baseline).num_sms as f64;
    let mut out: Layers = vec![
        (
            "stream.peak_warp_bytes",
            runs.iter()
                .map(|(_, d)| d.stats.peak_warp_trace_bytes)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "sim.ns_per_warp_insn",
            ratio(host_s * 1e9, core_sum(&|d| d.stats.warp_insns)),
        ),
        (
            "sim.ns_per_cycle",
            ratio(host_s * 1e9, core_sum(&|d| d.stats.cycles)),
        ),
        ("sim.ticked_frac", ratio(sum(&|d| d.ticked), cycles)),
        ("sim.cycles", cycles),
        ("sim.warp_insns", warp_insns),
        ("l1d.accesses", l1d.accesses as f64),
        ("l1d.hit_rate", l1d.hit_rate()),
        (
            "l1d.bypass_frac",
            ratio(
                (l1d.bypassed_loads + l1d.bypassed_stores) as f64,
                l1d.accesses as f64,
            ),
        ),
        (
            "l1d.stall_per_kcycle",
            ratio(l1d.stall_cycles as f64 * 1e3, cycles * sms),
        ),
        ("l1d.dirty_evictions", l1d.dirty_evictions as f64),
        ("policy.vta_hits", policy.vta_hits as f64),
        (
            "policy.protected_bypasses",
            policy.protected_bypasses as f64,
        ),
        ("policy.avg_pd", policy.avg_pd()),
        (
            "policy.pdpt_evict_pressure",
            sum(&|d| d.stats.pdpt_evict_pressure),
        ),
        ("icnt.flits", sum(&|d| d.stats.icnt.total_flits())),
        ("icnt.rejects", sum(&|d| d.stats.icnt.rejects)),
        ("l2.accesses", l2.accesses as f64),
        ("l2.hit_rate", ratio(l2.hits as f64, l2.accesses as f64)),
        ("dram.reads", sum(&|d| d.stats.dram.reads)),
        ("dram.writes", sum(&|d| d.stats.dram.writes)),
        (
            "dram.row_hit_rate",
            ratio(
                sum(&|d| d.stats.dram.row_hits),
                sum(&|d| d.stats.dram.row_hits + d.stats.dram.row_misses),
            ),
        ),
    ];
    // DLP's IPC over Baseline's, geomean across the kernels that ran
    // both at 16 KB.
    let ipc = |kernel: &str, kind: PolicyKind| {
        runs.iter()
            .find(|(j, _)| j.kernel == kernel && j.policy == kind && j.l1_kb == 16)
            .map(|(_, d)| d.stats.ipc())
    };
    let gains: Vec<f64> = distinct(runs.iter().map(|(j, _)| j.kernel.as_str()))
        .iter()
        .filter_map(|k| {
            Some(ratio(
                ipc(k, PolicyKind::Dlp)?,
                ipc(k, PolicyKind::Baseline)?,
            ))
        })
        .collect();
    if let Some(g) = dlp_bench::geomean(&gains) {
        out.push(("policy.dlp_ipc_gain", g));
    }
    let sampled: Vec<_> = runs.iter().filter_map(|(_, d)| d.sampling).collect();
    if sampled.is_empty() {
        out.push(("sampling.detailed_frac", 1.0));
    } else {
        let detailed: u64 = sampled.iter().map(|s| s.detailed_cycles).sum();
        let ff: u64 = sampled.iter().map(|s| s.ff_cycles).sum();
        out.push((
            "sampling.windows",
            sampled.iter().map(|s| s.windows).sum::<u64>() as f64,
        ));
        out.push((
            "sampling.detailed_frac",
            ratio(detailed as f64, (detailed + ff) as f64),
        ));
    }
    if !jobs.is_empty() {
        let simulated: Vec<f64> = jobs
            .iter()
            .filter(|j| !j.cached && j.sim_cycles > 0)
            .map(|j| j.wall_ms / 1e3)
            .collect();
        out.push(("harness.jobs", jobs.len() as f64));
        out.push((
            "harness.cache_hit_frac",
            ratio(
                jobs.iter().filter(|j| j.cached).count() as f64,
                jobs.len() as f64,
            ),
        ));
        if let Some(s) = stats::summarize(&simulated) {
            out.push(("harness.job_s_p50", s.median));
        }
        if let Some((_, t)) = stats::tail(&simulated) {
            out.push(("harness.job_s_tail", t));
        }
        out.push((
            "harness.worker_busy_frac",
            ratio(simulated.iter().sum(), workers as f64 * child_s),
        ));
        out.push((
            "harness.retries",
            jobs.iter()
                .filter(|j| !j.cached && j.sim_cycles == 0)
                .count() as f64,
        ));
    }
    for (name, prefix) in [
        ("rd.profiled_s", "run_app profiled"),
        ("trace.open_s", "TraceKernel::open"),
    ] {
        if let Some(s) = spans.total_s(prefix) {
            out.push((name, s));
        }
    }
    out.extend(batch.accuracy.iter().copied());
    out
}

/// Totals of the isolated per-call replays.
#[derive(Default)]
struct Calls {
    op_s: f64,
    ops: u64,
    coalesce_s: f64,
    mem_insns: u64,
    sectors: u64,
    l1_s: f64,
    l1_calls: u64,
    l2_s: f64,
    l2_calls: u64,
}

/// Ops replayed per kernel: enough for stable batch timings, bounded so
/// a scaled kernel's replay stays small.
const REPLAY_OPS: usize = 100_000;

/// Replay SM 0's share of `kernel` (the CTAs the round-robin launch
/// places there, warps interleaved round-robin) through op supply,
/// coalescing, the functional L1D of each `(policy, geometry)` and the
/// functional L2, timing each stage as one batch.
fn replay(kernel: &dyn Kernel, l1_configs: &[(PolicyKind, CacheGeometry)], calls: &mut Calls) {
    let grid = kernel.grid();
    let sms = SimConfig::tesla_m2090(PolicyKind::Baseline).num_sms;
    let mut streams: Vec<_> = (0..grid.num_ctas)
        .step_by(sms)
        .flat_map(|cta| (0..grid.warps_per_cta).map(move |w| (cta, w)))
        .map(|(cta, w)| kernel.warp_stream(cta, w))
        .collect();
    let mut ops = Vec::with_capacity(REPLAY_OPS);
    let t = Instant::now();
    'pull: loop {
        let mut any = false;
        for s in &mut streams {
            if ops.len() == REPLAY_OPS {
                break 'pull;
            }
            if let Some(op) = s.next_op() {
                ops.push(op);
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    calls.op_s += t.elapsed().as_secs_f64();
    calls.ops += ops.len() as u64;

    let mem: Vec<_> = ops
        .iter()
        .filter_map(|op| match &op.kind {
            OpKind::Mem { is_write, addrs } => Some((op.pc, op.dst, *is_write, addrs.as_slice())),
            OpKind::Alu { .. } => None,
        })
        .collect();
    let mut sectors = Vec::with_capacity(32);
    let t = Instant::now();
    for (_, _, _, addrs) in &mem {
        coalesce_into(addrs, 128, &mut sectors);
        black_box(&sectors);
    }
    calls.coalesce_s += t.elapsed().as_secs_f64();
    calls.mem_insns += mem.len() as u64;
    let mut reqs = Vec::new();
    for (i, (pc, dst, is_write, addrs)) in mem.iter().enumerate() {
        coalesce_into(addrs, 128, &mut sectors);
        for &addr in &sectors {
            let dst_reg = if *is_write { NO_REG } else { *dst };
            let id = reqs.len() as u64;
            reqs.push(MemReq {
                id,
                addr,
                is_write: *is_write,
                pc: *pc,
                sm: 0,
                warp: i as u32,
                dst_reg,
                born: 0,
            });
        }
    }
    calls.sectors += reqs.len() as u64;

    let icnt = Interconnect::new(IcntConfig::fermi());
    for &(kind, geom) in l1_configs {
        let mut l1 = L1dCache::new(
            L1dConfig {
                geom,
                ..L1dConfig::fermi_baseline()
            },
            build_policy(kind, geom),
        );
        let mut effects = Vec::with_capacity(2 * reqs.len());
        let t = Instant::now();
        for r in &reqs {
            l1.access_functional(*r, true, false, &mut effects);
        }
        calls.l1_s += t.elapsed().as_secs_f64();
        calls.l1_calls += reqs.len() as u64;
        let routed: Vec<_> = effects
            .iter()
            .map(|&(a, w)| (icnt.partition_of(a), a, w))
            .collect();
        let mut parts: Vec<_> = (0..IcntConfig::fermi().num_partitions)
            .map(|_| MemoryPartition::new(PartitionConfig::fermi()))
            .collect();
        let t = Instant::now();
        for &(p, a, w) in &routed {
            parts[p].l2_touch_functional(a, w);
        }
        calls.l2_s += t.elapsed().as_secs_f64();
        calls.l2_calls += routed.len() as u64;
    }
}

/// Summaries timed per batch, so one clock read covers many calls.
const SUMMARIZE_BATCH: usize = 1000;

/// Per-call costs of the workload's layers, from isolated replays.
pub fn isolated(w: Workload, p: &Params) -> Result<Layers, String> {
    let mut calls = Calls::default();
    if w.uses_harness() {
        let jobs = w.harness_jobs(p);
        for app in distinct(jobs.iter().map(|(a, _)| a.as_str())) {
            let mine: Vec<_> = jobs
                .iter()
                .filter(|(a, _)| a == app)
                .map(|(_, c)| c)
                .collect();
            let l1 = distinct(mine.iter().map(|c| (c.policy, c.geom)));
            replay(build(app, mine[0].scale).as_ref(), &l1, &mut calls);
        }
    } else {
        let path = p.input.as_deref().ok_or("trace workload without --input")?;
        let kernel = TraceKernel::open(path).map_err(|e| e.to_string())?;
        let l1: Vec<_> = w
            .schemes()
            .iter()
            .map(|&k| (k, CacheGeometry::fermi_l1d_16k()))
            .collect();
        replay(&kernel, &l1, &mut calls);
    }
    let op_metric = if w.uses_harness() {
        "gen.ns_per_op"
    } else {
        "trace.ns_per_op"
    };
    let ns = |s: f64, n: u64| ratio(s * 1e9, n as f64);
    let mut out: Layers = vec![
        (op_metric, ns(calls.op_s, calls.ops)),
        (
            "coalescer.ns_per_mem_insn",
            ns(calls.coalesce_s, calls.mem_insns),
        ),
        (
            "coalescer.sectors_per_mem_insn",
            ratio(calls.sectors as f64, calls.mem_insns as f64),
        ),
        ("l1d.ff_ns_per_access", ns(calls.l1_s, calls.l1_calls)),
        ("l2.ff_ns_per_touch", ns(calls.l2_s, calls.l2_calls)),
    ];
    // The estimator's cost on a real window population: run the first
    // sampled job directly and summarize its report repeatedly.
    if let Some((app, cfg)) = w
        .harness_jobs(p)
        .into_iter()
        .find(|(_, c)| c.sampling.is_some())
    {
        let mut gpu = Gpu::new(sim_config(&cfg), build(&app, cfg.scale));
        gpu.run().map_err(|e| format!("{app}: {e}"))?;
        let report = gpu
            .sampling_report()
            .ok_or("sampled run without a report")?;
        let t = Instant::now();
        for _ in 0..SUMMARIZE_BATCH {
            black_box(dlp_bench::summarize(black_box(report)));
        }
        out.push((
            "estimate.summarize_us",
            t.elapsed().as_secs_f64() * 1e6 / SUMMARIZE_BATCH as f64,
        ));
    }
    Ok(out)
}

/// `items` without repeats, first occurrence kept.
fn distinct<T: PartialEq>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut out = Vec::new();
    for x in items {
        if !out.contains(&x) {
            out.push(x);
        }
    }
    out
}
