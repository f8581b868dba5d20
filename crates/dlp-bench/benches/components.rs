//! Criterion micro-benchmarks of the simulator substrates: address
//! hashing, coalescing, tag lookup, MSHR bookkeeping, crossbar injection
//! and DRAM ticking. These are the per-cycle inner loops that bound how
//! many simulated cycles per second the full model achieves.
//!
//! The `next_event` / leap-catch-up group covers the cycle-leap event
//! core's own overhead: the conservative event-horizon probes run on
//! every step, so a regression there eats the cycles the leap saves.
//!
//! The fast-forward / estimator group covers interval sampling: the
//! functional-advance inner loops set the ceiling on how cheap a
//! skipped cycle can be, and `summarize` runs once per job so its cost
//! must stay negligible next to the simulation it summarizes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dlp_bench::summarize;
use dlp_core::{build_policy, CacheGeometry, PolicyKind};
use gpu_mem::dram::{Dram, DramCmd, DramConfig};
use gpu_mem::icnt::{IcntConfig, Interconnect};
use gpu_mem::l1d::{L1dCache, L1dConfig};
use gpu_mem::mshr::{Mshr, MshrLookup};
use gpu_mem::packet::{MemReq, Packet, PacketKind};
use gpu_mem::partition::{MemoryPartition, PartitionConfig};
use gpu_mem::tag_array::TagArray;
use gpu_sim::coalescer::coalesce;
use gpu_sim::config::SimConfig;
use gpu_sim::sm::Sm;
use gpu_sim::{SamplingReport, WindowSample};

fn req(i: u64) -> MemReq {
    MemReq {
        id: i,
        addr: i * 128,
        is_write: false,
        pc: (i % 16) as u32,
        sm: 0,
        warp: (i % 48) as u32,
        dst_reg: 1,
        born: 0,
    }
}

fn bench_geometry_hash(c: &mut Criterion) {
    let g = CacheGeometry::fermi_l1d_16k();
    c.bench_function("geometry_hash_index", |b| {
        let mut line = 0u64;
        b.iter(|| {
            line = line.wrapping_add(0x9e37);
            black_box(g.set_of_line(black_box(line)));
        });
    });
}

fn bench_coalescer(c: &mut Criterion) {
    let unit: Vec<u64> = (0..32).map(|l| 0x1000 + l * 4).collect();
    let scatter: Vec<u64> = (0..32).map(|l| l * 4096).collect();
    c.bench_function("coalesce_unit_stride", |b| {
        b.iter(|| black_box(coalesce(black_box(&unit), 128)));
    });
    c.bench_function("coalesce_full_scatter", |b| {
        b.iter(|| black_box(coalesce(black_box(&scatter), 128)));
    });
}

fn bench_tag_array(c: &mut Criterion) {
    let geom = CacheGeometry::fermi_l1d_16k();
    let mut tags = TagArray::new(geom);
    for set in 0..geom.num_sets {
        for way in 0..geom.assoc {
            tags.evict_and_reserve(set, way, (set * geom.assoc + way) as u64);
            tags.fill(set, way, false);
        }
    }
    c.bench_function("tag_array_lookup", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(tags.lookup((i % 32) as usize, i % 200));
        });
    });
}

fn bench_mshr(c: &mut Criterion) {
    c.bench_function("mshr_probe_allocate_complete", |b| {
        let mut m = Mshr::new(128, 16);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let line = i % 64;
            match m.probe(line) {
                MshrLookup::Absent => m.allocate(line, Some((0, 0)), req(i)),
                MshrLookup::Merged => m.merge(line, req(i)).unwrap(),
                _ => {
                    m.complete(line);
                }
            }
            if i % 8 == 0 {
                m.complete(line);
            }
        });
    });
}

fn bench_icnt(c: &mut Criterion) {
    c.bench_function("icnt_send_pop", |b| {
        let mut icnt = Interconnect::new(IcntConfig::fermi());
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            let pkt = Packet { kind: PacketKind::ReadReq, addr: now * 128, req: req(now) };
            let dst = icnt.partition_of(pkt.addr);
            if icnt.try_send_fwd(dst, pkt, now) {
                black_box(icnt.pop_fwd(dst, now + 100));
            }
        });
    });
}

fn bench_dram(c: &mut Criterion) {
    c.bench_function("dram_tick_under_load", |b| {
        let mut d = Dram::new(DramConfig::gddr5());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            if d.can_accept(i * 128) {
                d.enqueue(DramCmd { addr: i * 128, is_write: false, pkt: None });
            }
            d.tick();
            black_box(d.pop_completed());
        });
    });
}

fn bench_next_event(c: &mut Criterion) {
    // DRAM activity horizon under load — the innermost term of the
    // partition's event computation.
    c.bench_function("dram_next_activity", |b| {
        let mut d = Dram::new(DramConfig::gddr5());
        for i in 0..8u64 {
            if d.can_accept(i * 128) {
                d.enqueue(DramCmd { addr: i * 128, is_write: false, pkt: None });
            }
        }
        d.tick();
        b.iter(|| black_box(d.next_activity()));
    });

    // Partition event horizon: the idle fast path the leap scan hits on
    // most partitions most steps, and a loaded partition with queued
    // input, pending replies and busy DRAM.
    c.bench_function("partition_next_event_idle", |b| {
        let p = MemoryPartition::new(PartitionConfig::fermi());
        b.iter(|| black_box(p.next_event(black_box(1_000))));
    });
    c.bench_function("partition_next_event_loaded", |b| {
        let mut p = MemoryPartition::new(PartitionConfig::fermi());
        for i in 0..8u64 {
            if p.can_accept() {
                p.enqueue(Packet { kind: PacketKind::ReadReq, addr: i * 4096, req: req(i) });
            }
        }
        let mut now = 0u64;
        for _ in 0..4 {
            now += 1;
            p.cycle(now).unwrap();
        }
        b.iter(|| black_box(p.next_event(black_box(now))));
    });

    // Idle SM: no resident warps, nothing outgoing — the cheapest probe
    // and the one the per-SM sleep gate replaces with an array read.
    c.bench_function("sm_next_event_idle", |b| {
        let cfg = SimConfig::tesla_m2090(PolicyKind::Baseline);
        let sm = Sm::new(0, &cfg);
        b.iter(|| black_box(sm.next_event(black_box(1_000))));
    });
}

/// An L1D whose pipeline register holds a stalled access (MSHR entries
/// exhausted by distinct-line misses) — the state whose stall memo the
/// leap core replays instead of ticking retry cycles.
fn stalled_l1d() -> L1dCache {
    let cfg = L1dConfig::fermi_baseline();
    let mut l1d = L1dCache::new(cfg, build_policy(PolicyKind::Baseline, cfg.geom));
    let mut i = 0u64;
    while !l1d.input_blocked() {
        i += 1;
        l1d.submit(req(i), i).unwrap();
    }
    l1d
}

fn bench_leap_catchup(c: &mut Criterion) {
    // Arithmetic catch-up from the stall memo: what the cycle-leap core
    // executes instead of ticking a stalled L1D through dead cycles.
    c.bench_function("l1d_leap_catchup_64", |b| {
        let mut l1d = stalled_l1d();
        b.iter(|| l1d.leap_catchup(black_box(64), false));
    });
}

fn bench_fast_forward(c: &mut Criterion) {
    // Functional L1D access: the per-request inner loop of a sampling
    // fast-forward gap. Tags, policy (VTA/PDPT) and hit/miss counters
    // advance; no MSHR, miss queue, or pipeline stall ever forms. A
    // 512-line footprint over the 128-line Fermi L1D exercises the
    // hit, evict-and-fill, and bypass arms together.
    c.bench_function("l1d_access_functional", |b| {
        let cfg = L1dConfig::fermi_baseline();
        let mut l1d = L1dCache::new(cfg, build_policy(PolicyKind::Baseline, cfg.geom));
        let mut effects = Vec::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            l1d.access_functional(req(i % 512), true, false, &mut effects);
            effects.clear();
        });
    });
    // Functional L2 touch: where each L1D fast-forward effect lands so
    // partition state stays warm across the gap.
    c.bench_function("partition_l2_touch_functional", |b| {
        let mut p = MemoryPartition::new(PartitionConfig::fermi());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            p.l2_touch_functional((i % 4096) * 128, false);
        });
    });
}

fn bench_streaming(c: &mut Criterion) {
    // Native generator stream vs the eager `VecStream` compatibility
    // adapter, drained end to end. The generator pays a per-op
    // synthesis cost but never allocates the whole trace; the adapter
    // front-loads one big materialization and then serves pointer
    // bumps. This pair quantifies the trade the streaming engine makes
    // to get O(1) resident memory — and guards against the generator
    // path regressing to where the adapter would be faster overall.
    use gpu_sim::stream::materialize;
    use gpu_sim::VecStream;
    use gpu_workloads::{build, Scale};

    let kernel = build("KM", Scale::Tiny);
    c.bench_function("warp_stream_native_drain", |b| {
        b.iter(|| {
            let mut s = kernel.warp_stream(0, 0);
            let mut n = 0u64;
            while s.next_op().is_some() {
                n += 1;
            }
            black_box(n)
        });
    });
    c.bench_function("warp_stream_adapter_drain", |b| {
        b.iter(|| {
            let mut s: Box<dyn gpu_sim::OpStream> =
                Box::new(VecStream::new(materialize(kernel.warp_stream(0, 0))));
            let mut n = 0u64;
            while s.next_op().is_some() {
                n += 1;
            }
            black_box(n)
        });
    });
}

fn bench_estimator(c: &mut Criterion) {
    // Confidence-interval synthesis over a typical sampled run. Runs
    // once per job, so it only has to stay negligible — but the t-table
    // lookup and per-metric variance passes should still be measured.
    let report = SamplingReport {
        windows: (0..32u64)
            .map(|w| WindowSample {
                cycles: 2_000,
                warp_insns: 9_000 + 37 * w,
                thread_insns: (9_000 + 37 * w) * 32,
                accesses: 3_000 + 11 * w,
                hits: 2_400 + 7 * w,
                flits: 5_000 + 13 * w,
            })
            .collect(),
        detailed_cycles: 32 * 3_000,
        ff_cycles: 32 * 18_000,
        ff_insns: 32 * 80_000,
    };
    c.bench_function("estimator_summarize_32_windows", |b| {
        b.iter(|| black_box(summarize(black_box(&report))));
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_geometry_hash, bench_coalescer, bench_tag_array, bench_mshr, bench_icnt,
        bench_dram, bench_next_event, bench_leap_catchup, bench_fast_forward, bench_streaming,
        bench_estimator
);
criterion_main!(benches);
