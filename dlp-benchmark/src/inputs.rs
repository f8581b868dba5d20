//! The benchmark's own inputs: two seeded synthetic kernels and the two
//! trace encoders that write them.
//!
//! Neither the generators nor the encoders use the program's code
//! (`gpu_workloads::trace::write_*`, its RNGs), so a change to the
//! program's writer cannot change what the benchmark measures. The file
//! formats are the ones `gpu_workloads::TraceKernel::open` reads:
//!
//! * binary `DLPT` v1: magic, version byte, `u32` grid dimensions, then
//!   per warp `u32 cta, u32 warp, u64 payload_len` and the op records
//!   (tag, `u32` pc, dst, src0, src1, then `u32` latency and active
//!   lanes for ALU ops or a lane count and `u64` addresses for memory
//!   ops), little-endian;
//! * text `dlp-trace-v1`: a header line, `grid <ctas> <warps>`, then
//!   `warp <cta> <warp>` sections of `alu`/`ld`/`st` lines.

use gpu_sim::isa::{OpKind, Reg, TraceOp, NO_REG};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// SplitMix64: a small, fixed, seedable generator owned by the
/// benchmark so its inputs never depend on the program's RNGs.
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Mix a run seed with a stream index into an independent seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// Which synthetic kernel to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Full occupancy, 32 static memory PCs, 32-lane ops; streaming,
    /// short reuse, reuse at distance 9–64 and 4-line gathers; three of
    /// every sixteen memory ops are stores.
    Mixed,
    /// Four single-warp CTAs; one active lane per memory op and every
    /// load waits on the previous ALU result, so the run is bound by
    /// memory latency.
    Chase,
}

/// Grid and length of a generated kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Size {
    /// CTAs in the grid.
    pub ctas: usize,
    /// Warps per CTA.
    pub warps_per_cta: usize,
    /// Memory ops per warp (each paired with one ALU op).
    pub mem_ops_per_warp: usize,
}

impl Shape {
    /// The benchmark size, or the few-hundred-op smoke size.
    pub fn size(self, smoke: bool) -> Size {
        match (self, smoke) {
            (Shape::Mixed, false) => Size {
                ctas: 96,
                warps_per_cta: 8,
                mem_ops_per_warp: 256,
            },
            (Shape::Mixed, true) => Size {
                ctas: 2,
                warps_per_cta: 4,
                mem_ops_per_warp: 32,
            },
            (Shape::Chase, false) => Size {
                ctas: 4,
                warps_per_cta: 1,
                mem_ops_per_warp: 125_000,
            },
            (Shape::Chase, true) => Size {
                ctas: 4,
                warps_per_cta: 1,
                mem_ops_per_warp: 48,
            },
        }
    }

    /// One warp's ops, a pure function of `(seed, cta, warp, size)`.
    pub fn warp_ops(self, seed: u64, size: Size, cta: usize, warp: usize, out: &mut Vec<TraceOp>) {
        let g = (cta * size.warps_per_cta + warp) as u64;
        let mut rng = Rng::new(mix(seed, g));
        match self {
            Shape::Mixed => mixed_warp(&mut rng, g, size.mem_ops_per_warp, out),
            Shape::Chase => chase_warp(&mut rng, g, size.mem_ops_per_warp, out),
        }
    }
}

const LINE: u64 = 128;

/// Memory PCs whose ops are stores: three of every sixteen PCs. Each
/// PC appears once per 32 memory ops, so exactly 3/16 of them store.
fn is_store_pc(pc: u32) -> bool {
    matches!(pc % 16, 5 | 10 | 15)
}

/// Register a load writes, rotating so several loads are in flight.
fn load_reg(i: usize) -> Reg {
    1 + (i % 8) as Reg
}

fn full_line(line: u64) -> Vec<u64> {
    (0..32).map(|l| line * LINE + l * 4).collect()
}

fn mixed_warp(rng: &mut Rng, g: u64, n: usize, out: &mut Vec<TraceOp>) {
    // Private streaming region per warp; a gather pool shared by all.
    let mut next_fresh = (1 << 22) + g * (2 * n as u64 + 64);
    const POOL_BASE: u64 = 1 << 21;
    const POOL_LINES: u64 = 2048;
    let mut history: VecDeque<u64> = VecDeque::with_capacity(64);
    let mut perm: Vec<u32> = (0..32).collect();
    for i in 0..n {
        if i % 32 == 0 {
            for k in (1..perm.len()).rev() {
                perm.swap(k, rng.below(k as u64 + 1) as usize);
            }
        }
        let pc = perm[i % 32];
        let reuse = |lo: u64, hi: u64, rng: &mut Rng, history: &VecDeque<u64>| {
            let d = lo + rng.below(hi - lo + 1);
            (d as usize <= history.len()).then(|| history[history.len() - d as usize])
        };
        let (line, addrs) = match pc % 4 {
            1 => reuse(1, 4, rng, &history).map(|l| (l, full_line(l))),
            2 => reuse(9, 64, rng, &history).map(|l| (l, full_line(l))),
            3 => {
                let lines: Vec<u64> = (0..4).map(|_| POOL_BASE + rng.below(POOL_LINES)).collect();
                let addrs = (0..32u64)
                    .map(|l| lines[(l / 8) as usize] * LINE + (l % 8) * 4)
                    .collect();
                Some((lines[0], addrs))
            }
            _ => None,
        }
        .unwrap_or_else(|| {
            next_fresh += 1;
            (next_fresh, full_line(next_fresh))
        });
        if history.len() == 64 {
            history.pop_front();
        }
        history.push_back(line);
        let alu_dst: Reg = 20 + (i % 4) as Reg;
        out.push(if is_store_pc(pc) {
            TraceOp::store(pc, addrs).with_srcs([20 + ((i + 3) % 4) as Reg])
        } else {
            TraceOp::load(pc, load_reg(i), addrs)
        });
        // Consume the load issued two memory ops ago.
        let src = load_reg(i + 6);
        out.push(
            TraceOp::alu(64 + (i % 8) as u32, 4 + rng.below(8) as u32)
                .with_srcs([src])
                .with_dst(alu_dst),
        );
    }
}

fn chase_warp(rng: &mut Rng, g: u64, n: usize, out: &mut Vec<TraceOp>) {
    // Each warp chases pointers through its own region: mostly recent
    // lines (L1 hits), some within an L2-sized window, some far away.
    let base = (1 << 30) + g * (1 << 26);
    const NEAR_LINES: u64 = 1024;
    const FAR_LINES: u64 = 1 << 18;
    let mut history: VecDeque<u64> = VecDeque::with_capacity(8);
    for i in 0..n {
        out.push(
            TraceOp::alu(64 + (i % 4) as u32, 2 + rng.below(4) as u32)
                .with_srcs([1])
                .with_dst(2),
        );
        let roll = rng.below(100);
        let line = if roll < 55 && !history.is_empty() {
            history[rng.below(history.len() as u64) as usize]
        } else if roll < 85 {
            base / LINE + rng.below(NEAR_LINES)
        } else {
            base / LINE + NEAR_LINES + rng.below(FAR_LINES)
        };
        if history.len() == 8 {
            history.pop_front();
        }
        history.push_back(line);
        let addr = vec![line * LINE + rng.below(32) * 4];
        let pc = (i % 16) as u32;
        out.push(if is_store_pc(pc) {
            TraceOp::store(pc, addr).with_srcs([2])
        } else {
            TraceOp::load(pc, 1, addr).with_srcs([2])
        });
    }
}

/// What a generated trace contains, counted by the generator itself —
/// the reference the replayed runs are checked against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Warps with a section in the file.
    pub warps: u64,
    /// Warp instructions.
    pub ops: u64,
    /// Memory instructions.
    pub mem_ops: u64,
    /// Store instructions.
    pub stores: u64,
    /// Thread instructions (active lanes summed over ops).
    pub thread_insns: u64,
}

impl Counts {
    fn add(&mut self, ops: &[TraceOp]) {
        self.warps += 1;
        for op in ops {
            self.ops += 1;
            self.thread_insns += u64::from(op.active_lanes());
            if let OpKind::Mem { is_write, .. } = op.kind {
                self.mem_ops += 1;
                self.stores += u64::from(is_write);
            }
        }
    }
}

/// On-disk encoding of a generated trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Encoding {
    /// `DLPT` v1 binary.
    Binary,
    /// `dlp-trace-v1` text.
    Text,
}

/// Generate `shape` at `size` from `seed` and write it to `path`.
pub fn write_trace(
    path: &Path,
    shape: Shape,
    seed: u64,
    size: Size,
    enc: Encoding,
) -> io::Result<Counts> {
    let mut w = BufWriter::new(File::create(path)?);
    let mut counts = Counts::default();
    let (ctas, wpc) = (size.ctas as u32, size.warps_per_cta as u32);
    match enc {
        Encoding::Binary => {
            w.write_all(b"DLPT")?;
            w.write_all(&[1])?;
            w.write_all(&ctas.to_le_bytes())?;
            w.write_all(&wpc.to_le_bytes())?;
        }
        Encoding::Text => write!(w, "dlp-trace-v1\ngrid {ctas} {wpc}\n")?,
    }
    let mut ops = Vec::new();
    let mut payload = Vec::new();
    for cta in 0..size.ctas {
        for warp in 0..size.warps_per_cta {
            ops.clear();
            payload.clear();
            shape.warp_ops(seed, size, cta, warp, &mut ops);
            counts.add(&ops);
            match enc {
                Encoding::Binary => {
                    ops.iter().for_each(|op| encode_binary(op, &mut payload));
                    w.write_all(&(cta as u32).to_le_bytes())?;
                    w.write_all(&(warp as u32).to_le_bytes())?;
                    w.write_all(&(payload.len() as u64).to_le_bytes())?;
                }
                Encoding::Text => {
                    writeln!(w, "warp {cta} {warp}")?;
                    ops.iter().for_each(|op| encode_text(op, &mut payload));
                }
            }
            w.write_all(&payload)?;
        }
    }
    w.flush()?;
    Ok(counts)
}

fn encode_binary(op: &TraceOp, out: &mut Vec<u8>) {
    let tag = match op.kind {
        OpKind::Alu { .. } => 0,
        OpKind::Mem {
            is_write: false, ..
        } => 1,
        OpKind::Mem { is_write: true, .. } => 2,
    };
    out.push(tag);
    out.extend_from_slice(&op.pc.to_le_bytes());
    out.extend_from_slice(&[op.dst, op.srcs[0], op.srcs[1]]);
    match &op.kind {
        OpKind::Alu { latency, active } => {
            out.extend_from_slice(&latency.to_le_bytes());
            out.push(*active);
        }
        OpKind::Mem { addrs, .. } => {
            out.push(addrs.len() as u8);
            addrs
                .iter()
                .for_each(|a| out.extend_from_slice(&a.to_le_bytes()));
        }
    }
}

fn encode_text(op: &TraceOp, out: &mut Vec<u8>) {
    let reg = |r: Reg| {
        if r == NO_REG {
            "-".to_string()
        } else {
            r.to_string()
        }
    };
    let addrs = |a: &[u64]| a.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    let line = match &op.kind {
        OpKind::Alu { latency, active } => format!(
            "alu {} {latency} {active} {} {} {}\n",
            op.pc,
            reg(op.dst),
            reg(op.srcs[0]),
            reg(op.srcs[1])
        ),
        OpKind::Mem {
            is_write: false,
            addrs: a,
        } => {
            format!(
                "ld {} {} {} {} {}\n",
                op.pc,
                reg(op.dst),
                reg(op.srcs[0]),
                reg(op.srcs[1]),
                addrs(a)
            )
        }
        OpKind::Mem {
            is_write: true,
            addrs: a,
        } => {
            format!(
                "st {} {} {} {}\n",
                op.pc,
                reg(op.srcs[0]),
                reg(op.srcs[1]),
                addrs(a)
            )
        }
    };
    out.extend_from_slice(line.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::stream::materialize;
    use gpu_sim::Kernel;
    use gpu_workloads::TraceKernel;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = crate::out_dir().join("test-tmp");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("inputs-{}-{name}", std::process::id()))
    }

    /// Replay every warp of an opened trace and count it the same way
    /// the generator counts.
    fn replayed(k: &TraceKernel) -> Counts {
        let g = k.grid();
        let mut c = Counts::default();
        for cta in 0..g.num_ctas {
            for warp in 0..g.warps_per_cta {
                c.add(&materialize(k.warp_stream(cta, warp)));
            }
        }
        c
    }

    #[test]
    fn open_accepts_both_files_and_replays_the_generated_counts() {
        for (shape, enc) in [
            (Shape::Mixed, Encoding::Binary),
            (Shape::Chase, Encoding::Text),
        ] {
            let path = tmp(&format!("{shape:?}"));
            let size = shape.size(true);
            let written = write_trace(&path, shape, 7, size, enc).unwrap();
            let k = TraceKernel::open(&path).unwrap();
            assert_eq!(k.recorded_warps() as u64, written.warps);
            let got = replayed(&k);
            assert_eq!(
                (got.ops, got.mem_ops, got.stores, got.thread_insns),
                (
                    written.ops,
                    written.mem_ops,
                    written.stores,
                    written.thread_insns
                ),
                "{shape:?}"
            );
            assert_eq!(
                written.stores * 16,
                written.mem_ops * 3,
                "{shape:?}: 3 of 16 memory ops store"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn the_same_seed_gives_identical_bytes_and_another_seed_differs() {
        for (shape, enc) in [
            (Shape::Mixed, Encoding::Binary),
            (Shape::Chase, Encoding::Text),
        ] {
            let size = shape.size(true);
            let [a, b, c] = ["a", "b", "c"].map(|n| tmp(&format!("{shape:?}-{n}")));
            write_trace(&a, shape, 1, size, enc).unwrap();
            write_trace(&b, shape, 1, size, enc).unwrap();
            write_trace(&c, shape, 2, size, enc).unwrap();
            let [ba, bb, bc] = [&a, &b, &c].map(|p| std::fs::read(p).unwrap());
            assert_eq!(ba, bb, "{shape:?}: same seed, same bytes");
            assert_ne!(ba, bc, "{shape:?}: another seed, other bytes");
            [a, b, c].iter().for_each(|p| drop(std::fs::remove_file(p)));
        }
    }

    #[test]
    fn mixed_uses_32_pcs_full_warps_and_all_four_patterns() {
        let size = Size {
            ctas: 1,
            warps_per_cta: 1,
            mem_ops_per_warp: 256,
        };
        let mut ops = Vec::new();
        Shape::Mixed.warp_ops(3, size, 0, 0, &mut ops);
        let mem: Vec<&TraceOp> = ops.iter().filter(|o| o.is_mem()).collect();
        let pcs: std::collections::BTreeSet<u32> = mem.iter().map(|o| o.pc).collect();
        assert_eq!(pcs.len(), 32);
        assert!(mem.iter().all(|o| o.active_lanes() == 32));
        let sectors = |o: &TraceOp| match &o.kind {
            OpKind::Mem { addrs, .. } => gpu_sim::coalescer::coalesce(addrs, 128).len(),
            OpKind::Alu { .. } => 0,
        };
        assert!(
            mem.iter().any(|o| sectors(o) == 4),
            "gathers touch four lines"
        );
        assert!(mem.iter().any(|o| sectors(o) == 1));
    }

    #[test]
    fn chase_loads_wait_on_the_previous_alu_result() {
        let size = Size {
            ctas: 1,
            warps_per_cta: 1,
            mem_ops_per_warp: 64,
        };
        let mut ops = Vec::new();
        Shape::Chase.warp_ops(5, size, 0, 0, &mut ops);
        for pair in ops.chunks(2) {
            let (alu, mem) = (&pair[0], &pair[1]);
            assert!(!alu.is_mem() && mem.is_mem());
            assert_eq!(mem.active_lanes(), 1);
            assert_eq!(mem.srcs[0], alu.dst, "memory op depends on the ALU result");
        }
    }
}
