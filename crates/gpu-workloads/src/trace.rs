//! Bounded-memory ingestion of external trace files.
//!
//! Besides the synthetic models in [`crate::apps`], the simulator can
//! replay traces captured elsewhere (e.g. converted from Accel-Sim
//! dumps). [`TraceKernel::open`] indexes a trace file — one byte-range
//! per `(cta, warp)` section — and validates every record once; each
//! warp then replays its section through a [`FileStream`], which reads
//! one chunk at a time (open → seek → read → close per refill, an
//! incomplete trailing record carried into the next chunk). Resident
//! state per warp is one chunk, not the warp's trace, so a gigabyte
//! trace file costs the same memory as a kilobyte one — the ingestion
//! half of the scale axis.
//!
//! Two formats are supported, sniffed from the first bytes:
//!
//! **Text** (`dlp-trace-v1`): a header line, a `grid <ctas> <warps>`
//! line, then `warp <cta> <warp>` sections of op lines. Op-line fields
//! are separated by ASCII whitespace. Registers are numbers or `-` for
//! none; lane addresses are comma-separated:
//!
//! ```text
//! dlp-trace-v1
//! grid 2 2
//! warp 0 0
//! ld 0 1 - - 0,128,256
//! alu 64 4 32 2 1 -
//! st 5 2 - 4096
//! ```
//!
//! **Binary** (`DLPT` magic + version byte): `u32` grid dims, then
//! length-prefixed warp blocks — `u32 cta, u32 warp, u64 payload_len`
//! followed by `payload_len` bytes of op records (all integers
//! little-endian). The length prefix lets the indexer skip payloads
//! without parsing them.
//!
//! Malformed input is a typed [`TraceError`], never a panic: the
//! `figures trace` front-end maps it to exit code 2.

use gpu_sim::isa::{OpKind, Reg, TraceOp, MAX_REGS, NO_REG};
use gpu_sim::stream::{ops_bytes, OpStream};
use gpu_sim::{GridDesc, Kernel};
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Header line of the text trace format.
pub const TEXT_MAGIC: &str = "dlp-trace-v1";

/// Magic bytes of the binary trace format (followed by a version byte).
pub const BIN_MAGIC: [u8; 4] = *b"DLPT";

/// Current binary format version.
pub const BIN_VERSION: u8 = 1;

/// Bytes read per [`FileStream`] refill.
const CHUNK: usize = 64 << 10;

/// Sanity cap on `ctas * warps` (a million-warp grid is already far
/// beyond anything the 16-SM machine schedules).
const MAX_WARPS: u64 = 1 << 22;

/// Which on-disk format a trace file uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Format {
    Text,
    Binary,
}

/// Why a trace file was rejected.
#[derive(Debug)]
pub enum TraceError {
    /// The underlying file could not be read.
    Io(io::Error),
    /// The file's contents violate the trace format.
    Malformed {
        /// Where the problem is (a line, byte offset or warp section).
        at: String,
        /// What was wrong.
        msg: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Malformed { at, msg } => write!(f, "malformed trace ({at}): {msg}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Malformed { .. } => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

fn malformed(at: impl Into<String>, msg: impl Into<String>) -> TraceError {
    TraceError::Malformed { at: at.into(), msg: msg.into() }
}

/// A kernel replayed from a trace file through chunked, O(1)-per-warp
/// [`FileStream`]s. See the module docs for the formats.
#[derive(Clone, Debug)]
pub struct TraceKernel {
    path: PathBuf,
    name: String,
    grid: GridDesc,
    format: Format,
    /// `(cta, warp)` → byte range of that warp's op section. Warps with
    /// no section replay as empty streams.
    spans: HashMap<(usize, usize), (u64, u64)>,
}

impl TraceKernel {
    /// Index and fully validate a trace file. Every op record is parsed
    /// once through the same chunked parser the replay uses, so a
    /// successful `open` guarantees the simulation never hits a parse
    /// error mid-run.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let mut head = [0u8; 4];
        let mut f = File::open(path)?;
        let n = read_full(&mut f, &mut head)?;
        drop(f);
        let format = if n == 4 && head == BIN_MAGIC { Format::Binary } else { Format::Text };
        let (grid, spans) = match format {
            Format::Text => scan_text(path)?,
            Format::Binary => scan_binary(path)?,
        };
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "TRACE".to_string());
        let kernel = TraceKernel { path: path.to_path_buf(), name, grid, format, spans };
        for &(cta, warp) in kernel.spans.keys() {
            let mut s = kernel.stream(cta, warp);
            while s.next_checked()?.is_some() {}
        }
        Ok(kernel)
    }

    /// Warps that actually have a trace section in the file.
    pub fn recorded_warps(&self) -> usize {
        self.spans.len()
    }

    fn stream(&self, cta: usize, warp: usize) -> FileStream {
        let (offset, len) = self.spans.get(&(cta, warp)).copied().unwrap_or((0, 0));
        FileStream {
            path: self.path.clone(),
            format: self.format,
            section: format!("warp {cta}/{warp}"),
            offset,
            len,
            pos: 0,
            carry: Vec::new(),
            buf: Vec::new(),
            at: 0,
            peak: 0,
            chunk: CHUNK,
        }
    }
}

impl Kernel for TraceKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn grid(&self) -> GridDesc {
        self.grid
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(self.stream(cta, warp))
    }
}

/// Chunked [`OpStream`] over one warp's section of a trace file.
///
/// Each refill opens the file, seeks to the unread tail of the section,
/// reads one chunk and closes the file again (no descriptor is held
/// between refills — thousands of concurrent warps cannot exhaust the
/// fd table). Complete records in the chunk are parsed into the op
/// buffer; an incomplete trailing line/record is carried into the next
/// refill.
pub struct FileStream {
    path: PathBuf,
    format: Format,
    section: String,
    offset: u64,
    len: u64,
    pos: u64,
    carry: Vec<u8>,
    buf: Vec<TraceOp>,
    at: usize,
    peak: usize,
    chunk: usize,
}

impl FileStream {
    /// Pull the next op, surfacing parse/read failures as errors
    /// instead of panicking — this is what [`TraceKernel::open`] drives
    /// during validation.
    pub fn next_checked(&mut self) -> Result<Option<TraceOp>, TraceError> {
        if self.at >= self.buf.len() {
            self.refill()?;
            if self.at >= self.buf.len() {
                return Ok(None);
            }
        }
        // Move the op out, leaving a heap-free placeholder so consumed
        // slots cost nothing and the buffer keeps its capacity.
        let op = std::mem::replace(&mut self.buf[self.at], TraceOp::alu(0, 0));
        self.at += 1;
        Ok(Some(op))
    }

    fn refill(&mut self) -> Result<(), TraceError> {
        self.buf.clear();
        self.at = 0;
        while self.buf.is_empty() && self.pos < self.len {
            let want = self.chunk.min((self.len - self.pos) as usize);
            let mut f = File::open(&self.path)?;
            f.seek(SeekFrom::Start(self.offset + self.pos))?;
            let start = self.carry.len();
            self.carry.resize(start + want, 0);
            let n = read_full(&mut f, &mut self.carry[start..])?;
            self.carry.truncate(start + n);
            if n < want {
                return Err(malformed(&self.section, "trace file shrank during replay"));
            }
            self.pos += n as u64;
            let consumed = match self.format {
                Format::Text => parse_text_ops(&self.carry, self.pos >= self.len, &mut self.buf)?,
                Format::Binary => parse_bin_ops(&self.carry, &mut self.buf)?,
            };
            self.carry.drain(..consumed);
        }
        if self.pos >= self.len && !self.carry.is_empty() && self.buf.is_empty() {
            return Err(malformed(&self.section, "truncated record at end of section"));
        }
        self.peak = self.peak.max(ops_bytes(&self.buf) + self.carry.len());
        Ok(())
    }
}

impl OpStream for FileStream {
    fn next_op(&mut self) -> Option<TraceOp> {
        self.next_checked()
            .expect("trace file validated at open() failed during replay — changed on disk?")
    }

    fn peek(&mut self) -> Option<&TraceOp> {
        if self.at >= self.buf.len() {
            self.refill()
                .expect("trace file validated at open() failed during replay — changed on disk?");
        }
        self.buf.get(self.at)
    }

    fn reset(&mut self) {
        self.pos = 0;
        self.carry.clear();
        self.buf.clear();
        self.at = 0;
    }

    fn resident_bytes(&self) -> usize {
        ops_bytes(&self.buf) + self.carry.len()
    }

    fn peak_resident_bytes(&self) -> usize {
        self.peak
    }
}

/// Read until `buf` is full or EOF; returns bytes read.
fn read_full(f: &mut impl Read, buf: &mut [u8]) -> Result<usize, TraceError> {
    let mut n = 0;
    while n < buf.len() {
        let k = f.read(&mut buf[n..])?;
        if k == 0 {
            break;
        }
        n += k;
    }
    Ok(n)
}

// ---------------------------------------------------------------- text

type Spans = HashMap<(usize, usize), (u64, u64)>;

/// Structural scan of a text trace: header, grid line, warp-section
/// byte ranges. Op-line *syntax* is validated by the replay pass in
/// [`TraceKernel::open`], through the same parser the simulator uses.
fn scan_text(path: &Path) -> Result<(GridDesc, Spans), TraceError> {
    let mut rd = io::BufReader::new(File::open(path)?);
    let mut line = String::new();
    let mut off: u64 = 0;
    let mut lineno: u64 = 0;
    let mut grid: Option<GridDesc> = None;
    let mut spans: Spans = HashMap::new();
    let mut open_span: Option<((usize, usize), u64)> = None;
    loop {
        line.clear();
        let n = rd.read_line(&mut line)?;
        if n == 0 {
            break;
        }
        lineno += 1;
        let start = off;
        off += n as u64;
        let t = line.trim();
        if lineno == 1 {
            if t != TEXT_MAGIC {
                return Err(malformed("line 1", format!("expected `{TEXT_MAGIC}` header")));
            }
            continue;
        }
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let at = || format!("line {lineno}");
        let mut it = t.split_whitespace();
        match it.next().unwrap_or("") {
            "grid" => {
                if grid.is_some() {
                    return Err(malformed(at(), "duplicate `grid` line"));
                }
                if open_span.is_some() {
                    return Err(malformed(at(), "`grid` must precede all `warp` sections"));
                }
                let ctas = parse_dim(it.next(), &at(), "cta count")?;
                let warps = parse_dim(it.next(), &at(), "warp count")?;
                if it.next().is_some() {
                    return Err(malformed(at(), "trailing tokens after `grid`"));
                }
                check_grid(ctas, warps, &at())?;
                grid = Some(GridDesc { num_ctas: ctas, warps_per_cta: warps });
            }
            "warp" => {
                let g = grid.ok_or_else(|| malformed(at(), "`warp` before `grid`"))?;
                let cta = parse_dim(it.next(), &at(), "cta index")?;
                let warp = parse_dim(it.next(), &at(), "warp index")?;
                if it.next().is_some() {
                    return Err(malformed(at(), "trailing tokens after `warp`"));
                }
                if cta >= g.num_ctas || warp >= g.warps_per_cta {
                    return Err(malformed(at(), format!("warp {cta}/{warp} outside the grid")));
                }
                if let Some((key, span_off)) = open_span.take() {
                    spans.insert(key, (span_off, start - span_off));
                }
                if spans.contains_key(&(cta, warp)) {
                    return Err(malformed(at(), format!("duplicate section for warp {cta}/{warp}")));
                }
                open_span = Some(((cta, warp), off));
            }
            _ => {
                if open_span.is_none() {
                    return Err(malformed(at(), "op line before the first `warp` section"));
                }
            }
        }
    }
    if let Some((key, span_off)) = open_span.take() {
        spans.insert(key, (span_off, off - span_off));
    }
    let grid = grid.ok_or_else(|| malformed("end of file", "missing `grid` line"))?;
    Ok((grid, spans))
}

fn parse_dim(tok: Option<&str>, at: &str, what: &str) -> Result<usize, TraceError> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| malformed(at, format!("missing or invalid {what}")))
}

fn check_grid(ctas: usize, warps: usize, at: &str) -> Result<(), TraceError> {
    if ctas == 0 || warps == 0 {
        return Err(malformed(at, "grid dimensions must be nonzero"));
    }
    if (ctas as u64).saturating_mul(warps as u64) > MAX_WARPS {
        return Err(malformed(at, format!("grid exceeds {MAX_WARPS} warps")));
    }
    Ok(())
}

/// Parse the complete op lines in `bytes`; returns bytes consumed. With
/// `at_end`, a trailing line without a newline is parsed too.
fn parse_text_ops(bytes: &[u8], at_end: bool, out: &mut Vec<TraceOp>) -> Result<usize, TraceError> {
    let mut i = 0;
    while i < bytes.len() {
        let (end, next) = match bytes[i..].iter().position(|&b| b == b'\n') {
            Some(r) => (i + r, i + r + 1),
            None if at_end => (bytes.len(), bytes.len()),
            None => break,
        };
        let line = std::str::from_utf8(&bytes[i..end])
            .map_err(|_| malformed("trace section", "non-UTF-8 bytes in op line"))?;
        if let Some(op) = parse_text_op(line)? {
            out.push(op);
        }
        i = next;
    }
    Ok(i)
}

fn bad_line(line: &str, msg: impl Into<String>) -> TraceError {
    malformed(format!("op line `{}`", line.trim()), msg)
}

fn parse_text_op(line: &str) -> Result<Option<TraceOp>, TraceError> {
    let t = line.trim();
    if t.is_empty() || t.starts_with('#') {
        return Ok(None);
    }
    // Tokens go into a fixed array — this runs once per op line, on
    // both the validation pass and every replay — while `n` keeps
    // counting past the array so the arity checks see the true count.
    let mut toks = [""; 8];
    let mut n = 0;
    for tok in t.split_ascii_whitespace() {
        if let Some(slot) = toks.get_mut(n) {
            *slot = tok;
        }
        n += 1;
    }
    let op = match toks[0] {
        "alu" => {
            if n != 7 {
                return Err(bad_line(t, "expected `alu pc latency active dst s0 s1`"));
            }
            let active: u8 =
                toks[3].parse().map_err(|_| bad_line(t, "invalid active-lane count"))?;
            if !(1..=32).contains(&active) {
                return Err(bad_line(t, "active lanes must be 1..=32"));
            }
            TraceOp {
                pc: parse_u32(toks[1], t)?,
                dst: parse_reg(toks[4], t)?,
                srcs: [parse_reg(toks[5], t)?, parse_reg(toks[6], t)?],
                kind: OpKind::Alu { latency: parse_u32(toks[2], t)?, active },
            }
        }
        "ld" => {
            if n != 6 {
                return Err(bad_line(t, "expected `ld pc dst s0 s1 addr,addr,...`"));
            }
            let dst = parse_reg(toks[2], t)?;
            if dst == NO_REG {
                return Err(bad_line(t, "loads must write a register"));
            }
            TraceOp {
                pc: parse_u32(toks[1], t)?,
                dst,
                srcs: [parse_reg(toks[3], t)?, parse_reg(toks[4], t)?],
                kind: OpKind::Mem { is_write: false, addrs: parse_addrs(toks[5], t)? },
            }
        }
        "st" => {
            if n != 5 {
                return Err(bad_line(t, "expected `st pc s0 s1 addr,addr,...`"));
            }
            TraceOp {
                pc: parse_u32(toks[1], t)?,
                dst: NO_REG,
                srcs: [parse_reg(toks[2], t)?, parse_reg(toks[3], t)?],
                kind: OpKind::Mem { is_write: true, addrs: parse_addrs(toks[4], t)? },
            }
        }
        kw => return Err(bad_line(t, format!("unknown keyword `{kw}`"))),
    };
    Ok(Some(op))
}

fn parse_u32(tok: &str, line: &str) -> Result<u32, TraceError> {
    tok.parse().map_err(|_| bad_line(line, format!("invalid number `{tok}`")))
}

fn parse_reg(tok: &str, line: &str) -> Result<Reg, TraceError> {
    if tok == "-" {
        return Ok(NO_REG);
    }
    let r: u8 = tok.parse().map_err(|_| bad_line(line, format!("invalid register `{tok}`")))?;
    if (r as usize) >= MAX_REGS {
        return Err(bad_line(line, format!("register {r} out of range (< {MAX_REGS})")));
    }
    Ok(r)
}

fn parse_addrs(tok: &str, line: &str) -> Result<Vec<u64>, TraceError> {
    let addrs: Vec<u64> = tok
        .split(',')
        .map(|a| a.parse().map_err(|_| bad_line(line, format!("invalid address `{a}`"))))
        .collect::<Result<_, _>>()?;
    if addrs.is_empty() || addrs.len() > 32 {
        return Err(bad_line(line, "1..=32 lane addresses required"));
    }
    Ok(addrs)
}

// -------------------------------------------------------------- binary

/// Structural scan of a binary trace: header, grid dims, and the
/// length-prefixed warp blocks (payloads skipped via their prefix; the
/// replay pass in [`TraceKernel::open`] validates record contents).
fn scan_binary(path: &Path) -> Result<(GridDesc, Spans), TraceError> {
    let mut f = File::open(path)?;
    let file_len = f.metadata()?.len();
    let mut hdr = [0u8; 13];
    if read_full(&mut f, &mut hdr)? < 13 {
        return Err(malformed("header", "truncated binary header"));
    }
    if hdr[4] != BIN_VERSION {
        return Err(malformed("header", format!("unsupported version {}", hdr[4])));
    }
    let ctas = u32::from_le_bytes([hdr[5], hdr[6], hdr[7], hdr[8]]) as usize;
    let warps = u32::from_le_bytes([hdr[9], hdr[10], hdr[11], hdr[12]]) as usize;
    check_grid(ctas, warps, "header")?;
    let mut spans: Spans = HashMap::new();
    let mut pos: u64 = 13;
    loop {
        let mut wh = [0u8; 16];
        let n = read_full(&mut f, &mut wh)?;
        if n == 0 {
            break;
        }
        let at = || format!("byte {pos}");
        if n < 16 {
            return Err(malformed(at(), "truncated warp-block header"));
        }
        let cta = u32::from_le_bytes([wh[0], wh[1], wh[2], wh[3]]) as usize;
        let warp = u32::from_le_bytes([wh[4], wh[5], wh[6], wh[7]]) as usize;
        let len = u64::from_le_bytes([wh[8], wh[9], wh[10], wh[11], wh[12], wh[13], wh[14], wh[15]]);
        if cta >= ctas || warp >= warps {
            return Err(malformed(at(), format!("warp {cta}/{warp} outside the grid")));
        }
        if spans.contains_key(&(cta, warp)) {
            return Err(malformed(at(), format!("duplicate block for warp {cta}/{warp}")));
        }
        if pos + 16 + len > file_len {
            return Err(malformed(at(), "warp-block payload runs past end of file"));
        }
        spans.insert((cta, warp), (pos + 16, len));
        pos += 16 + len;
        f.seek(SeekFrom::Start(pos))?;
    }
    Ok((GridDesc { num_ctas: ctas, warps_per_cta: warps }, spans))
}

/// Parse the complete binary op records in `bytes`; returns bytes
/// consumed (an incomplete trailing record is left for the next chunk).
fn parse_bin_ops(bytes: &[u8], out: &mut Vec<TraceOp>) -> Result<usize, TraceError> {
    let mut i = 0;
    while let Some((op, sz)) = parse_bin_op(&bytes[i..])? {
        out.push(op);
        i += sz;
    }
    Ok(i)
}

fn bin_reg(r: u8) -> Result<Reg, TraceError> {
    if r != NO_REG && (r as usize) >= MAX_REGS {
        return Err(malformed("binary record", format!("register {r} out of range")));
    }
    Ok(r)
}

fn parse_bin_op(b: &[u8]) -> Result<Option<(TraceOp, usize)>, TraceError> {
    // Common prefix: tag, pc, dst, s0, s1.
    if b.len() < 8 {
        return Ok(None);
    }
    let pc = u32::from_le_bytes([b[1], b[2], b[3], b[4]]);
    let dst = bin_reg(b[5])?;
    let srcs = [bin_reg(b[6])?, bin_reg(b[7])?];
    match b[0] {
        0 => {
            if b.len() < 13 {
                return Ok(None);
            }
            let latency = u32::from_le_bytes([b[8], b[9], b[10], b[11]]);
            let active = b[12];
            if !(1..=32).contains(&active) {
                return Err(malformed("binary record", "active lanes must be 1..=32"));
            }
            Ok(Some((TraceOp { pc, dst, srcs, kind: OpKind::Alu { latency, active } }, 13)))
        }
        tag @ (1 | 2) => {
            if b.len() < 9 {
                return Ok(None);
            }
            let nlanes = b[8] as usize;
            if nlanes == 0 || nlanes > 32 {
                return Err(malformed("binary record", "1..=32 lane addresses required"));
            }
            let need = 9 + 8 * nlanes;
            if b.len() < need {
                return Ok(None);
            }
            if tag == 1 && dst == NO_REG {
                return Err(malformed("binary record", "loads must write a register"));
            }
            let addrs = b[9..need]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
                .collect();
            let kind = OpKind::Mem { is_write: tag == 2, addrs };
            Ok(Some((TraceOp { pc, dst, srcs, kind }, need)))
        }
        tag => Err(malformed("binary record", format!("unknown op tag {tag}"))),
    }
}

// ------------------------------------------------------------- writers

/// Serialize a kernel's streams to the text trace format. Streams warp
/// by warp, so memory stays bounded by one op.
pub fn write_text_trace(path: &Path, kernel: &dyn Kernel) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "{TEXT_MAGIC}")?;
    let g = kernel.grid();
    writeln!(w, "grid {} {}", g.num_ctas, g.warps_per_cta)?;
    for cta in 0..g.num_ctas {
        for warp in 0..g.warps_per_cta {
            writeln!(w, "warp {cta} {warp}")?;
            let mut s = kernel.warp_stream(cta, warp);
            while let Some(op) = s.next_op() {
                writeln!(w, "{}", text_op(&op))?;
            }
        }
    }
    w.flush()
}

fn reg_str(r: Reg) -> String {
    if r == NO_REG {
        "-".to_string()
    } else {
        r.to_string()
    }
}

fn addrs_str(addrs: &[u64]) -> String {
    addrs.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
}

fn text_op(op: &TraceOp) -> String {
    match &op.kind {
        OpKind::Alu { latency, active } => format!(
            "alu {} {} {} {} {} {}",
            op.pc,
            latency,
            active,
            reg_str(op.dst),
            reg_str(op.srcs[0]),
            reg_str(op.srcs[1])
        ),
        OpKind::Mem { is_write: false, addrs } => format!(
            "ld {} {} {} {} {}",
            op.pc,
            reg_str(op.dst),
            reg_str(op.srcs[0]),
            reg_str(op.srcs[1]),
            addrs_str(addrs)
        ),
        OpKind::Mem { is_write: true, addrs } => format!(
            "st {} {} {} {}",
            op.pc,
            reg_str(op.srcs[0]),
            reg_str(op.srcs[1]),
            addrs_str(addrs)
        ),
    }
}

/// Serialize a kernel's streams to the binary trace format. The warp
/// block's length prefix is written as a placeholder and patched after
/// the payload streams out, so memory stays bounded by one op.
pub fn write_binary_trace(path: &Path, kernel: &dyn Kernel) -> io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(&BIN_MAGIC)?;
    f.write_all(&[BIN_VERSION])?;
    let g = kernel.grid();
    f.write_all(&(g.num_ctas as u32).to_le_bytes())?;
    f.write_all(&(g.warps_per_cta as u32).to_le_bytes())?;
    let mut rec = Vec::new();
    for cta in 0..g.num_ctas {
        for warp in 0..g.warps_per_cta {
            f.write_all(&(cta as u32).to_le_bytes())?;
            f.write_all(&(warp as u32).to_le_bytes())?;
            let len_pos = f.stream_position()?;
            f.write_all(&0u64.to_le_bytes())?;
            let mut payload: u64 = 0;
            let mut s = kernel.warp_stream(cta, warp);
            while let Some(op) = s.next_op() {
                rec.clear();
                encode_bin_op(&op, &mut rec);
                f.write_all(&rec)?;
                payload += rec.len() as u64;
            }
            let end = f.stream_position()?;
            f.seek(SeekFrom::Start(len_pos))?;
            f.write_all(&payload.to_le_bytes())?;
            f.seek(SeekFrom::Start(end))?;
        }
    }
    Ok(())
}

fn encode_bin_op(op: &TraceOp, out: &mut Vec<u8>) {
    let (tag, payload): (u8, Option<&Vec<u64>>) = match &op.kind {
        OpKind::Alu { .. } => (0, None),
        OpKind::Mem { is_write: false, addrs } => (1, Some(addrs)),
        OpKind::Mem { is_write: true, addrs } => (2, Some(addrs)),
    };
    out.push(tag);
    out.extend_from_slice(&op.pc.to_le_bytes());
    out.push(op.dst);
    out.push(op.srcs[0]);
    out.push(op.srcs[1]);
    match &op.kind {
        OpKind::Alu { latency, active } => {
            out.extend_from_slice(&latency.to_le_bytes());
            out.push(*active);
        }
        OpKind::Mem { .. } => {
            let addrs = payload.expect("mem op carries addresses");
            out.push(addrs.len() as u8);
            for a in addrs {
                out.extend_from_slice(&a.to_le_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::stream::{materialize, VecStream};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique temp path per test (process id + counter).
    fn tmp(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("dlp-trace-{}-{n}-{name}", std::process::id()))
    }

    /// 2×2 grid with per-warp distinct ops covering every record shape.
    struct Toy {
        reps: usize,
    }

    impl Kernel for Toy {
        fn name(&self) -> &str {
            "TOY"
        }
        fn grid(&self) -> GridDesc {
            GridDesc { num_ctas: 2, warps_per_cta: 2 }
        }
        fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
            let base = (cta * 64 + warp * 32) as u64 * 128;
            let mut ops = Vec::new();
            for r in 0..self.reps as u64 {
                ops.push(TraceOp::load(0, 1, (0..32).map(|l| base + r * 4096 + l * 4).collect()));
                ops.push(TraceOp::alu(64, 4).with_srcs([1]).with_dst(2).with_active(17));
                ops.push(TraceOp::store(1, vec![base + r * 4096]).with_srcs([2]));
                ops.push(TraceOp::alu(65, 1));
            }
            Box::new(VecStream::new(ops))
        }
    }

    fn assert_same_traces(a: &dyn Kernel, b: &dyn Kernel) {
        assert_eq!(a.grid(), b.grid());
        for cta in 0..a.grid().num_ctas {
            for warp in 0..a.grid().warps_per_cta {
                assert_eq!(
                    materialize(a.warp_stream(cta, warp)),
                    materialize(b.warp_stream(cta, warp)),
                    "warp {cta}/{warp} mismatch"
                );
            }
        }
    }

    #[test]
    fn text_round_trips() {
        let path = tmp("text.trace");
        let toy = Toy { reps: 3 };
        write_text_trace(&path, &toy).unwrap();
        let tk = TraceKernel::open(&path).unwrap();
        assert_eq!(tk.recorded_warps(), 4);
        assert_same_traces(&toy, &tk);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_round_trips() {
        let path = tmp("bin.trace");
        let toy = Toy { reps: 3 };
        write_binary_trace(&path, &toy).unwrap();
        let tk = TraceKernel::open(&path).unwrap();
        assert_same_traces(&toy, &tk);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_header_is_malformed() {
        let path = tmp("nohdr.trace");
        std::fs::write(&path, "grid 1 1\nwarp 0 0\nalu 0 1 32 - - -\n").unwrap();
        assert!(matches!(TraceKernel::open(&path), Err(TraceError::Malformed { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_op_line_is_malformed() {
        let path = tmp("badop.trace");
        std::fs::write(&path, format!("{TEXT_MAGIC}\ngrid 1 1\nwarp 0 0\nbogus 1 2\n")).unwrap();
        let err = TraceKernel::open(&path).unwrap_err();
        assert!(err.to_string().contains("unknown keyword"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn op_line_arity_counts_every_token() {
        let op = parse_text_op("  alu\t64 4 32  2 1 -  ").unwrap().unwrap();
        assert_eq!(op.pc, 64);
        let arity = |line: &str| parse_text_op(line).unwrap_err().to_string();
        // Lines longer than the token array still report the arity error.
        let long = arity("alu 0 4 32 1 - - 7 8 9 10");
        assert!(long.contains("expected `alu pc latency active dst s0 s1`"), "{long}");
        assert!(arity("ld 0 1 - -").contains("expected `ld pc dst s0 s1"));
        assert!(arity("st 0 - - 0 0 0 0 0 0").contains("expected `st pc s0 s1"));
        assert!(parse_text_op("   ").unwrap().is_none());
    }

    #[test]
    fn out_of_range_register_is_malformed() {
        let path = tmp("badreg.trace");
        std::fs::write(&path, format!("{TEXT_MAGIC}\ngrid 1 1\nwarp 0 0\nld 0 99 - - 0\n"))
            .unwrap();
        let err = TraceKernel::open(&path).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_warp_section_is_malformed() {
        let path = tmp("dup.trace");
        std::fs::write(
            &path,
            format!("{TEXT_MAGIC}\ngrid 1 1\nwarp 0 0\nalu 0 1 32 - - -\nwarp 0 0\n"),
        )
        .unwrap();
        let err = TraceKernel::open(&path).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_grid_warp_is_malformed() {
        let path = tmp("oob.trace");
        std::fs::write(&path, format!("{TEXT_MAGIC}\ngrid 1 1\nwarp 3 0\n")).unwrap();
        let err = TraceKernel::open(&path).unwrap_err();
        assert!(err.to_string().contains("outside the grid"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_binary_is_malformed() {
        let path = tmp("trunc.trace");
        write_binary_trace(&path, &Toy { reps: 3 }).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(matches!(TraceKernel::open(&path), Err(TraceError::Malformed { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_warp_sections_replay_empty() {
        let path = tmp("sparse.trace");
        std::fs::write(&path, format!("{TEXT_MAGIC}\ngrid 2 2\nwarp 1 1\nalu 7 1 32 - - -\n"))
            .unwrap();
        let tk = TraceKernel::open(&path).unwrap();
        assert!(materialize(tk.warp_stream(0, 0)).is_empty());
        assert_eq!(materialize(tk.warp_stream(1, 1)).len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_replay_is_bounded_and_resettable() {
        let path = tmp("chunked.trace");
        let toy = Toy { reps: 200 };
        write_text_trace(&path, &toy).unwrap();
        let tk = TraceKernel::open(&path).unwrap();
        let full = materialize(toy.warp_stream(1, 0));
        let total = ops_bytes(&full);
        let mut s = tk.stream(1, 0);
        s.chunk = 512; // force many refills
        let first: Vec<_> = std::iter::from_fn(|| s.next_op()).collect();
        assert_eq!(first, full);
        assert!(
            s.peak_resident_bytes() < total / 4,
            "peak {} vs total {total}: replay must not materialize the section",
            s.peak_resident_bytes()
        );
        s.reset();
        let second: Vec<_> = std::iter::from_fn(|| s.next_op()).collect();
        assert_eq!(first, second);
        std::fs::remove_file(&path).ok();
    }
}
