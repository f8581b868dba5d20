//! Trace-file ingestion from the outside.
//!
//! 1. **Round trip** — seeded random ops (1–32 lanes, extreme pcs,
//!    latencies and addresses, `-` registers) written as text with every
//!    spelling the grammar allows (`+` signs, tabs, CR/FF, repeated
//!    spaces, CRLF endings, blank and `#` lines) and as binary come back
//!    from `TraceKernel::open` unchanged.
//! 2. **Golden peaks** — replay's per-warp resident-byte high-water
//!    marks (`peak_resident_bytes`, the source of
//!    `RunStats.peak_warp_trace_bytes`) are pinned for one fixed text
//!    and one fixed binary trace.
//! 3. **Corruption sweep** — every truncation of a small text and a
//!    small binary trace, plus seeded byte flips, either opens or fails
//!    with a typed error; a file that opens also replays without panic.

use gpu_sim::isa::{OpKind, TraceOp, MAX_REGS, NO_REG};
use gpu_sim::stream::{materialize, OpStream, VecStream};
use gpu_sim::{GridDesc, Kernel};
use gpu_workloads::trace::{write_binary_trace, write_text_trace, TEXT_MAGIC};
use gpu_workloads::TraceKernel;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// SplitMix64: a seeded generator with no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// Unique temp path per call (process id + counter).
fn tmp(name: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dlp-ingest-{}-{n}-{name}", std::process::id()))
}

/// A kernel whose warp traces are held in memory, row-major by CTA.
struct Recorded {
    grid: GridDesc,
    warps: Vec<Vec<TraceOp>>,
}

impl Kernel for Recorded {
    fn name(&self) -> &str {
        "RECORDED"
    }

    fn grid(&self) -> GridDesc {
        self.grid
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(VecStream::new(self.warps[cta * self.grid.warps_per_cta + warp].clone()))
    }
}

/// A value that is often at the type's extremes.
fn extreme(rng: &mut Rng, max: u64) -> u64 {
    match rng.below(4) {
        0 => max,
        1 => rng.below(8),
        _ => rng.next() % max.saturating_add(1).max(1),
    }
}

fn random_reg(rng: &mut Rng) -> u8 {
    if rng.below(4) == 0 {
        NO_REG
    } else {
        rng.below(MAX_REGS as u64) as u8
    }
}

fn random_op(rng: &mut Rng) -> TraceOp {
    let pc = extreme(rng, u32::MAX.into()) as u32;
    let srcs = [random_reg(rng), random_reg(rng)];
    let lanes = 1 + rng.below(32) as usize;
    let mut addrs = Vec::new();
    for _ in 0..lanes {
        addrs.push(extreme(rng, u64::MAX));
    }
    match rng.below(3) {
        0 => TraceOp {
            pc,
            dst: random_reg(rng),
            srcs,
            kind: OpKind::Alu {
                latency: extreme(rng, u32::MAX.into()) as u32,
                active: 1 + rng.below(32) as u8,
            },
        },
        1 => TraceOp {
            pc,
            dst: rng.below(MAX_REGS as u64) as u8,
            srcs,
            kind: OpKind::Mem { is_write: false, addrs },
        },
        _ => TraceOp { pc, dst: NO_REG, srcs, kind: OpKind::Mem { is_write: true, addrs } },
    }
}

fn random_kernel(rng: &mut Rng, grid: GridDesc, max_ops: u64) -> Recorded {
    let warps = (0..grid.num_ctas * grid.warps_per_cta)
        .map(|_| (0..rng.below(max_ops + 1)).map(|_| random_op(rng)).collect())
        .collect();
    Recorded { grid, warps }
}

/// Text renderer exercising every spelling the grammar accepts.
struct Render<'r> {
    rng: &'r mut Rng,
    out: String,
}

impl Render<'_> {
    fn sep(&mut self) -> &'static str {
        self.rng.pick(&[" ", " ", "\t", "  ", " \t ", "\x0c", "\r", " \r\t"])
    }

    fn edge(&mut self) -> &'static str {
        self.rng.pick(&["", "", " ", "\t", "\r", "\x0c "])
    }

    fn end_line(&mut self) {
        let end = self.rng.pick(&["\n", "\n", "\r\n"]);
        self.out.push_str(end);
        // Blank, whitespace-only and comment lines between records.
        for _ in 0..self.rng.below(3) {
            if self.rng.below(3) == 0 {
                let line = self.rng.pick(&["", " \t", "# comment", "\t# café ≠ 42", "#"]);
                self.out.push_str(line);
                let end = self.rng.pick(&["\n", "\r\n"]);
                self.out.push_str(end);
            }
        }
    }

    fn num(&mut self, v: u64) -> String {
        if self.rng.below(3) == 0 {
            format!("+{v}")
        } else {
            v.to_string()
        }
    }

    fn reg(&mut self, r: u8) -> String {
        if r == NO_REG {
            "-".to_string()
        } else {
            self.num(r.into())
        }
    }

    fn fields(&mut self, fields: &[String]) {
        let edge = self.edge();
        self.out.push_str(edge);
        for (i, f) in fields.iter().enumerate() {
            if i > 0 {
                let sep = self.sep();
                self.out.push_str(sep);
            }
            self.out.push_str(f);
        }
        let edge = self.edge();
        self.out.push_str(edge);
        self.end_line();
    }

    fn op(&mut self, op: &TraceOp) {
        let mut f = Vec::new();
        match &op.kind {
            OpKind::Alu { latency, active } => {
                f.push("alu".to_string());
                f.push(self.num(op.pc.into()));
                f.push(self.num((*latency).into()));
                f.push(self.num((*active).into()));
                f.push(self.reg(op.dst));
            }
            OpKind::Mem { is_write, .. } => {
                f.push(if *is_write { "st" } else { "ld" }.to_string());
                f.push(self.num(op.pc.into()));
                if !is_write {
                    f.push(self.reg(op.dst));
                }
            }
        }
        f.push(self.reg(op.srcs[0]));
        f.push(self.reg(op.srcs[1]));
        if let OpKind::Mem { addrs, .. } = &op.kind {
            let lanes: Vec<String> = addrs.iter().map(|&a| self.num(a)).collect();
            f.push(lanes.join(","));
        }
        self.fields(&f);
    }
}

/// Render `k` as a text trace, sections in a shuffled order.
fn render_text(rng: &mut Rng, k: &Recorded) -> String {
    let mut r = Render { rng, out: String::new() };
    let _ = write!(r.out, "{TEXT_MAGIC}");
    r.end_line();
    let dims = [k.grid.num_ctas.to_string(), k.grid.warps_per_cta.to_string()];
    r.fields(&["grid".to_string(), dims[0].clone(), dims[1].clone()]);
    let mut order: Vec<usize> = (0..k.warps.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, r.rng.below(i as u64 + 1) as usize);
    }
    for w in order {
        let (cta, warp) = (w / k.grid.warps_per_cta, w % k.grid.warps_per_cta);
        r.fields(&["warp".to_string(), cta.to_string(), warp.to_string()]);
        for op in &k.warps[w] {
            r.op(op);
        }
    }
    r.out
}

fn assert_replays(k: &Recorded, tk: &TraceKernel, what: &str) {
    assert_eq!(tk.grid(), k.grid, "{what}: grid");
    for cta in 0..k.grid.num_ctas {
        for warp in 0..k.grid.warps_per_cta {
            let want = &k.warps[cta * k.grid.warps_per_cta + warp];
            assert_eq!(&materialize(tk.warp_stream(cta, warp)), want, "{what}: warp {cta}/{warp}");
        }
    }
}

#[test]
fn random_ops_round_trip_through_both_formats() {
    let mut rng = Rng(0x7ace_0001);
    for case in 0..12 {
        let grid = GridDesc {
            num_ctas: 1 + rng.below(3) as usize,
            warps_per_cta: 1 + rng.below(3) as usize,
        };
        let k = random_kernel(&mut rng, grid, 40);
        let text = tmp("rt.trace");
        std::fs::write(&text, render_text(&mut rng, &k)).unwrap();
        let tk = TraceKernel::open(&text).unwrap_or_else(|e| panic!("case {case}: text: {e}"));
        assert_replays(&k, &tk, &format!("case {case} text"));
        std::fs::remove_file(&text).ok();

        let bin = tmp("rt.dlpt");
        write_binary_trace(&bin, &k).unwrap();
        let tk = TraceKernel::open(&bin).unwrap_or_else(|e| panic!("case {case}: binary: {e}"));
        assert_replays(&k, &tk, &format!("case {case} binary"));
        std::fs::remove_file(&bin).ok();
    }
}

/// Drain every warp of `tk` and report each stream's resident high-water mark.
fn peaks(tk: &TraceKernel) -> Vec<usize> {
    let g = tk.grid();
    let mut out = Vec::new();
    for cta in 0..g.num_ctas {
        for warp in 0..g.warps_per_cta {
            let mut s = tk.warp_stream(cta, warp);
            while s.next_op().is_some() {}
            out.push(s.peak_resident_bytes());
        }
    }
    out
}

#[test]
fn replay_peaks_match_the_recorded_values() {
    // Two warps of ≈3000 ops each: the text sections span several 64 KiB
    // chunks, so the peaks depend on chunk refills, the carried partial
    // line and each lane vector's capacity.
    let mut rng = Rng(0x9ea6);
    let grid = GridDesc { num_ctas: 1, warps_per_cta: 2 };
    let warps = (0..2).map(|_| (0..3000).map(|_| random_op(&mut rng)).collect()).collect();
    let k = Recorded { grid, warps };

    let text = tmp("peaks.trace");
    write_text_trace(&text, &k).unwrap();
    let tk = TraceKernel::open(&text).unwrap();
    assert_eq!(peaks(&tk), [52150, 52057], "text peaks");
    std::fs::remove_file(&text).ok();

    let bin = tmp("peaks.dlpt");
    write_binary_trace(&bin, &k).unwrap();
    let tk = TraceKernel::open(&bin).unwrap();
    assert_eq!(peaks(&tk), [85025, 85995], "binary peaks");
    std::fs::remove_file(&bin).ok();
}

/// `open` must return `Ok` or a typed error; after `Ok`, replaying every
/// warp must not panic either.
fn open_and_replay(bytes: &[u8], name: &str) {
    let path = tmp(name);
    std::fs::write(&path, bytes).unwrap();
    if let Ok(tk) = TraceKernel::open(&path) {
        // A flipped grid dimension can open a grid of millions of empty
        // warps; the recorded ones all sit in the first few.
        let g = tk.grid();
        for cta in 0..g.num_ctas.min(8) {
            for warp in 0..g.warps_per_cta.min(8) {
                materialize(tk.warp_stream(cta, warp));
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_and_corrupted_files_never_panic() {
    let mut rng = Rng(0xc0_44u64);
    let grid = GridDesc { num_ctas: 2, warps_per_cta: 1 };
    let k = Recorded {
        grid,
        warps: vec![(0..3).map(|_| random_op(&mut rng)).collect(), vec![random_op(&mut rng)]],
    };
    let text_path = tmp("small.trace");
    write_text_trace(&text_path, &k).unwrap();
    let bin_path = tmp("small.dlpt");
    write_binary_trace(&bin_path, &k).unwrap();
    // Bytes a flip writes: mostly ones the text grammar gives meaning to,
    // so mutants get past the first token often enough to matter.
    let alphabet = b"0123456789 ,-+#\n\r\t\x0calustdwrigp\x00\xff\x80";
    for path in [&text_path, &bin_path] {
        let good = std::fs::read(path).unwrap();
        for cut in 0..good.len() {
            open_and_replay(&good[..cut], "cut");
        }
        for _ in 0..400 {
            let mut bad = good.clone();
            for _ in 0..1 + rng.below(3) {
                let i = rng.below(bad.len() as u64) as usize;
                bad[i] = if rng.below(2) == 0 {
                    alphabet[rng.below(alphabet.len() as u64) as usize]
                } else {
                    rng.next() as u8
                };
            }
            open_and_replay(&bad, "flip");
        }
        std::fs::remove_file(path).ok();
    }
}
