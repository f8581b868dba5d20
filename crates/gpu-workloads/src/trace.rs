//! Bounded-memory ingestion of external trace files.
//!
//! Besides the synthetic models in [`crate::apps`], the simulator can
//! replay traces captured elsewhere (e.g. converted from Accel-Sim
//! dumps). [`TraceKernel::open`] reads the file once, front to back:
//! it indexes one byte-range per `(cta, warp)` section and validates
//! every record in place, through the replay's own decoder but without
//! building ops. Each warp then replays its section through a
//! [`FileStream`], which reads one chunk at a time (open → seek → read
//! → close per refill, an incomplete trailing record carried into the
//! next chunk). Resident state per warp is one chunk, not the warp's
//! trace, so a gigabyte trace file costs the same memory as a kilobyte
//! one — the ingestion half of the scale axis.
//!
//! Two formats are supported, sniffed from the first bytes:
//!
//! **Text** (`dlp-trace-v1`): a header line, a `grid <ctas> <warps>`
//! line, then `warp <cta> <warp>` sections of op lines; blank and `#`
//! comment lines may appear anywhere after the header. Op lines are
//! ASCII, decoded in one left-to-right scan of their bytes:
//!
//! ```text
//! alu <pc> <latency> <active> <dst> <s0> <s1>   alu 64 4 32 2 1 -
//! ld  <pc> <dst> <s0> <s1> <addr>[,<addr>...]   ld 0 1 - - 0,128,256
//! st  <pc> <s0> <s1> <addr>[,<addr>...]         st 5 2 - 4096
//! ```
//!
//! Numbers are decimal with an optional `+`, checked against their
//! field's width; a register is a number below 64 or `-` for none; a
//! memory op has 1..=32 lane addresses. Fields are separated, and the
//! line trimmed, by ASCII whitespace only (`u8::is_ascii_whitespace`,
//! which leaves out `\x0b`): any other byte at the ends of an op line,
//! Unicode whitespace included, makes it malformed. Comment lines must
//! be UTF-8. No line may be longer than one 64 KiB chunk, so a file
//! without newlines cannot grow the carried partial line past it.
//!
//! **Binary** (`DLPT` magic + version byte): `u32` grid dims, then
//! length-prefixed warp blocks — `u32 cta, u32 warp, u64 payload_len`
//! followed by `payload_len` bytes of op records (all integers
//! little-endian). Each length is checked against the file's length.
//!
//! Malformed input is a typed [`TraceError`], never a panic: the
//! `figures trace` front-end maps it to exit code 2.

use gpu_sim::isa::{OpKind, Reg, TraceOp, MAX_REGS, NO_REG};
use gpu_sim::stream::{ops_bytes, OpStream};
use gpu_sim::{GridDesc, Kernel};
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Header line of the text trace format.
pub const TEXT_MAGIC: &str = "dlp-trace-v1";

/// Magic bytes of the binary trace format (followed by a version byte).
pub const BIN_MAGIC: [u8; 4] = *b"DLPT";

/// Current binary format version.
pub const BIN_VERSION: u8 = 1;

/// Bytes read per [`FileStream`] refill and per read of `open`'s pass;
/// also the longest text line accepted.
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
    /// Index and fully validate a trace file in one front-to-back read.
    /// Every record goes through the decoder the replay uses, so a
    /// successful `open` guarantees the simulation never hits a parse
    /// error mid-run.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let mut rd =
            Reader { f: File::open(path)?, buf: Vec::with_capacity(2 * CHUNK), at: 0, off: 0 };
        rd.more()?;
        let format =
            if rd.pending().starts_with(&BIN_MAGIC) { Format::Binary } else { Format::Text };
        let (grid, spans) = match format {
            Format::Text => scan_text(rd)?,
            Format::Binary => scan_binary(rd)?,
        };
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "TRACE".to_string());
        Ok(TraceKernel { path: path.to_path_buf(), name, grid, format, spans })
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
    fn refill(&mut self) -> Result<(), TraceError> {
        self.buf.clear();
        self.at = 0;
        while self.buf.is_empty() && self.pos < self.len {
            let want = self.chunk.min((self.len - self.pos) as usize);
            let mut f = File::open(&self.path)?;
            f.seek(SeekFrom::Start(self.offset + self.pos))?;
            let n = f.take(want as u64).read_to_end(&mut self.carry)?;
            if n < want {
                return Err(malformed(&self.section, "trace file shrank during replay"));
            }
            self.pos += n as u64;
            let buf = &mut self.buf;
            let consumed = match self.format {
                Format::Text => for_each_line(&self.carry, self.pos >= self.len, |line, _, _| {
                    buf.extend(decode_op_line(line, true)?);
                    Ok(())
                })?,
                Format::Binary => bin_records(&self.carry, true, |op| buf.push(op))?,
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
        self.peek()?;
        // Move the op out, leaving a heap-free placeholder so consumed
        // slots cost nothing and the buffer keeps its capacity.
        let op = std::mem::replace(&mut self.buf[self.at], TraceOp::alu(0, 0));
        self.at += 1;
        Some(op)
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

/// `open`'s single front-to-back pass over the file: a window of
/// unconsumed bytes, refilled one chunk at a time.
struct Reader {
    f: File,
    buf: Vec<u8>,
    /// Start of the unconsumed bytes in `buf`.
    at: usize,
    /// File offset of `buf[at]`.
    off: u64,
}

impl Reader {
    fn pending(&self) -> &[u8] {
        &self.buf[self.at..]
    }

    fn consume(&mut self, n: usize) {
        self.at += n;
        self.off += n as u64;
    }

    /// Read until one more chunk is pending or the file ends; false if
    /// nothing was left to read.
    fn more(&mut self) -> Result<bool, TraceError> {
        self.buf.drain(..self.at);
        self.at = 0;
        Ok((&mut self.f).take(CHUNK as u64).read_to_end(&mut self.buf)? > 0)
    }
}

type Spans = HashMap<(usize, usize), (u64, u64)>;

fn check_grid(ctas: usize, warps: usize, at: &str) -> Result<(), TraceError> {
    if ctas == 0 || warps == 0 {
        return Err(malformed(at, "grid dimensions must be nonzero"));
    }
    if (ctas as u64).saturating_mul(warps as u64) > MAX_WARPS {
        return Err(malformed(at, format!("grid exceeds {MAX_WARPS} warps")));
    }
    Ok(())
}

// ---------------------------------------------------------------- text

/// Hand each complete line of `bytes` to `f` as `(line, start, next)`:
/// its bytes without the `\n`, its offset and the next line's offset.
/// With `at_end`, a final line without a newline is handed over too.
/// Returns the bytes consumed. A line longer than [`CHUNK`] is
/// malformed, so no caller ever carries more than one chunk of it.
fn for_each_line(
    bytes: &[u8],
    at_end: bool,
    mut f: impl FnMut(&[u8], usize, usize) -> Result<(), TraceError>,
) -> Result<usize, TraceError> {
    let mut i = 0;
    while i < bytes.len() {
        let (end, next) = match bytes[i..].iter().position(|&b| b == b'\n') {
            Some(r) => (i + r, i + r + 1),
            None if at_end || bytes.len() - i > CHUNK => (bytes.len(), bytes.len()),
            None => break,
        };
        if end - i > CHUNK {
            return Err(malformed("text trace", format!("line longer than {CHUNK} bytes")));
        }
        f(&bytes[i..end], i, next)?;
        i = next;
    }
    Ok(i)
}

/// Index a text trace and validate every line, in one pass.
fn scan_text(mut rd: Reader) -> Result<(GridDesc, Spans), TraceError> {
    let mut lineno: u64 = 0;
    let mut grid: Option<GridDesc> = None;
    let mut spans: Spans = HashMap::new();
    let mut open_span: Option<((usize, usize), u64)> = None;
    let mut at_end = false;
    while !at_end {
        at_end = !rd.more()?;
        let base = rd.off;
        let n = for_each_line(rd.pending(), at_end, |line, start, next| {
            lineno += 1;
            let at = || format!("line {lineno}");
            if lineno == 1 {
                return match std::str::from_utf8(line) {
                    Ok(s) if s.trim() == TEXT_MAGIC => Ok(()),
                    _ => Err(malformed(at(), format!("expected `{TEXT_MAGIC}` header"))),
                };
            }
            // `grid` and `warp` lines are rare: they, and any line that
            // opens with a non-ASCII byte, keep `&str` handling.
            let mut it = match line.trim_ascii_start().first() {
                Some(b'g' | b'w' | 0x80..) => std::str::from_utf8(line)
                    .map_err(|_| malformed(at(), "non-UTF-8 bytes"))?
                    .split_whitespace(),
                _ => "".split_whitespace(),
            };
            match it.next() {
                Some("grid") => {
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
                Some("warp") => {
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
                        spans.insert(key, (span_off, base + start as u64 - span_off));
                    }
                    if spans.contains_key(&(cta, warp)) {
                        let msg = format!("duplicate section for warp {cta}/{warp}");
                        return Err(malformed(at(), msg));
                    }
                    open_span = Some(((cta, warp), base + next as u64));
                }
                _ => match decode_op_line(line, false) {
                    Ok(None) => {}
                    _ if open_span.is_none() => {
                        return Err(malformed(at(), "op line before the first `warp` section"));
                    }
                    r => drop(r?),
                },
            }
            Ok(())
        })?;
        rd.consume(n);
    }
    if let Some((key, span_off)) = open_span.take() {
        spans.insert(key, (span_off, rd.off - span_off));
    }
    let grid = grid.ok_or_else(|| malformed("end of file", "missing `grid` line"))?;
    Ok((grid, spans))
}

fn parse_dim(tok: Option<&str>, at: &str, what: &str) -> Result<usize, TraceError> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| malformed(at, format!("missing or invalid {what}")))
}

#[cold]
fn bad_line(line: &[u8], msg: impl Into<String>) -> TraceError {
    malformed(format!("op line `{}`", String::from_utf8_lossy(line)), msg)
}

/// Decode one op line (its `\n` stripped) in a single left-to-right
/// scan over its bytes; blank and `#` lines give `None`. Without
/// `build` the line is only validated: lane addresses are checked and
/// counted but not stored, so nothing is allocated.
fn decode_op_line(line: &[u8], build: bool) -> Result<Option<TraceOp>, TraceError> {
    let t = line.trim_ascii();
    let kw = &t[..t.iter().position(u8::is_ascii_whitespace).unwrap_or(t.len())];
    let usage = match kw {
        b"alu" => "expected `alu pc latency active dst s0 s1`",
        b"ld" => "expected `ld pc dst s0 s1 addr,addr,...`",
        b"st" => "expected `st pc s0 s1 addr,addr,...`",
        _ => {
            // Blank, a comment, or blank but for Unicode whitespace.
            let s = std::str::from_utf8(line).map_err(|_| bad_line(t, "non-UTF-8 bytes"))?.trim();
            if s.is_empty() || s.starts_with('#') {
                return Ok(None);
            }
            let kw = String::from_utf8_lossy(kw);
            return Err(bad_line(t, format!("unknown keyword `{kw}`")));
        }
    };
    let mut c = Cursor { line: t, i: kw.len(), usage };
    let pc = c.num("number")?;
    let alu = match kw {
        b"alu" => Some((c.num("number")?, c.num("active-lane count")?)),
        _ => None,
    };
    if alu.is_some_and(|(_, active)| !(1..=32).contains(&active)) {
        return Err(bad_line(t, "active lanes must be 1..=32"));
    }
    let dst = if kw == b"st" { NO_REG } else { c.reg()? };
    if kw == b"ld" && dst == NO_REG {
        return Err(bad_line(t, "loads must write a register"));
    }
    let srcs = [c.reg()?, c.reg()?];
    let kind = match alu {
        Some((latency, active)) => OpKind::Alu { latency, active },
        None => OpKind::Mem { is_write: kw == b"st", addrs: c.lanes(build)? },
    };
    if c.i < t.len() {
        return Err(bad_line(t, usage));
    }
    Ok(Some(TraceOp { pc, dst, srcs, kind }))
}

/// Cursor over one trimmed op line.
struct Cursor<'a> {
    line: &'a [u8],
    i: usize,
    /// The arity error of the line's keyword.
    usage: &'static str,
}

impl<'a> Cursor<'a> {
    /// Step to the next whitespace-separated field, which must exist.
    fn field(&mut self) -> Result<&'a [u8], TraceError> {
        while self.line.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
        match &self.line[self.i..] {
            [] => Err(bad_line(self.line, self.usage)),
            rest => Ok(rest),
        }
    }

    /// Digits at the cursor, read as `str::parse` reads an unsigned `T`:
    /// an optional `+`, then one or more digits, rejecting overflow. The
    /// number must end at a `stop` byte, whitespace or the end of line.
    fn dec<T: TryFrom<u64>>(&mut self, what: &str, stop: u8) -> Result<T, TraceError> {
        let (b, start) = (self.line, self.i);
        let first = start + usize::from(b.get(start) == Some(&b'+'));
        let (mut i, mut v) = (first, Some(0u64));
        while i < b.len() && b[i].is_ascii_digit() {
            v = v.and_then(|v| v.checked_mul(10)?.checked_add((b[i] - b'0').into()));
            i += 1;
        }
        self.i = i;
        let ends = |c: &u8| *c == stop || c.is_ascii_whitespace();
        match v.map(T::try_from) {
            Some(Ok(v)) if i > first && b.get(i).is_none_or(ends) => Ok(v),
            _ => {
                let tok = b[start..].split(ends).next().unwrap_or_default();
                Err(bad_line(b, format!("invalid {what} `{}`", tok.escape_ascii())))
            }
        }
    }

    fn num<T: TryFrom<u64>>(&mut self, what: &str) -> Result<T, TraceError> {
        self.field()?;
        self.dec(what, b' ')
    }

    fn reg(&mut self) -> Result<Reg, TraceError> {
        if let [b'-', rest @ ..] = self.field()? {
            if rest.first().is_none_or(u8::is_ascii_whitespace) {
                self.i += 1;
                return Ok(NO_REG);
            }
        }
        let r: u8 = self.dec("register", b' ')?;
        if (r as usize) >= MAX_REGS {
            return Err(bad_line(self.line, format!("register {r} out of range (< {MAX_REGS})")));
        }
        Ok(r)
    }

    /// Comma-separated lane addresses, kept only when `build`. Pushing one
    /// at a time into `Vec::new()` gives the lane vector the capacity that
    /// replay's resident-byte accounting has always seen.
    fn lanes(&mut self, build: bool) -> Result<Vec<u64>, TraceError> {
        self.field()?;
        let (mut addrs, mut n) = (Vec::new(), 0);
        loop {
            let v = self.dec("address", b',')?;
            n += 1;
            if build && n <= 32 {
                addrs.push(v);
            }
            if self.line.get(self.i) != Some(&b',') {
                break;
            }
            self.i += 1;
        }
        if n > 32 {
            return Err(bad_line(self.line, "1..=32 lane addresses required"));
        }
        Ok(addrs)
    }
}

// -------------------------------------------------------------- binary

/// Index a binary trace and validate every record, in one pass: each
/// warp block's payload is decoded where the read finds it.
fn scan_binary(mut rd: Reader) -> Result<(GridDesc, Spans), TraceError> {
    let file_len = rd.f.metadata()?.len();
    if rd.pending().len() < 13 {
        return Err(malformed("header", "truncated binary header"));
    }
    let hdr = &rd.pending()[..13];
    if hdr[4] != BIN_VERSION {
        return Err(malformed("header", format!("unsupported version {}", hdr[4])));
    }
    let ctas = u32::from_le_bytes([hdr[5], hdr[6], hdr[7], hdr[8]]) as usize;
    let warps = u32::from_le_bytes([hdr[9], hdr[10], hdr[11], hdr[12]]) as usize;
    check_grid(ctas, warps, "header")?;
    rd.consume(13);
    let mut spans: Spans = HashMap::new();
    loop {
        let pos = rd.off;
        let at = || format!("byte {pos}");
        if rd.pending().len() < 16 {
            rd.more()?;
        }
        match rd.pending().len() {
            0 => break,
            1..16 => return Err(malformed(at(), "truncated warp-block header")),
            _ => {}
        }
        let wh = &rd.pending()[..16];
        let cta = u32::from_le_bytes([wh[0], wh[1], wh[2], wh[3]]) as usize;
        let warp = u32::from_le_bytes([wh[4], wh[5], wh[6], wh[7]]) as usize;
        let len =
            u64::from_le_bytes([wh[8], wh[9], wh[10], wh[11], wh[12], wh[13], wh[14], wh[15]]);
        rd.consume(16);
        if cta >= ctas || warp >= warps {
            return Err(malformed(at(), format!("warp {cta}/{warp} outside the grid")));
        }
        if spans.contains_key(&(cta, warp)) {
            return Err(malformed(at(), format!("duplicate block for warp {cta}/{warp}")));
        }
        let Some(end) = rd.off.checked_add(len).filter(|&end| end <= file_len) else {
            return Err(malformed(at(), "warp-block payload runs past end of file"));
        };
        spans.insert((cta, warp), (rd.off, len));
        while rd.off < end {
            let avail = rd.pending();
            let take = usize::try_from(end - rd.off).map_or(avail.len(), |l| l.min(avail.len()));
            let whole = rd.off + take as u64 == end;
            let n = bin_records(&avail[..take], false, drop)?;
            rd.consume(n);
            if rd.off < end && (whole || !rd.more()?) {
                let section = format!("warp {cta}/{warp}");
                return Err(malformed(section, "truncated record at end of section"));
            }
        }
    }
    Ok((GridDesc { num_ctas: ctas, warps_per_cta: warps }, spans))
}

/// Decode the complete binary op records in `bytes`, handing each to
/// `f`; returns bytes consumed (an incomplete trailing record is left
/// for the next chunk). Without `build`, lane addresses are not stored.
fn bin_records(bytes: &[u8], build: bool, mut f: impl FnMut(TraceOp)) -> Result<usize, TraceError> {
    let mut i = 0;
    while let Some((op, sz)) = bin_op(&bytes[i..], build)? {
        f(op);
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

fn bin_op(b: &[u8], build: bool) -> Result<Option<(TraceOp, usize)>, TraceError> {
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
            // Exact capacity: `chunks_exact` reports its length up front.
            let addrs = if build {
                b[9..need]
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
                    .collect()
            } else {
                Vec::new()
            };
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
        let op = decode_op_line(b"  alu\t64 4 32  2 1 -  ", true).unwrap().unwrap();
        assert_eq!(op.pc, 64);
        let arity = |line: &[u8]| decode_op_line(line, true).unwrap_err().to_string();
        let long = arity(b"alu 0 4 32 1 - - 7 8 9 10");
        assert!(long.contains("expected `alu pc latency active dst s0 s1`"), "{long}");
        assert!(arity(b"ld 0 1 - -").contains("expected `ld pc dst s0 s1"));
        assert!(arity(b"st 0 - - 0 0 0 0 0 0").contains("expected `st pc s0 s1"));
        assert!(decode_op_line(b"   ", true).unwrap().is_none());
    }

    #[test]
    fn decimal_fields_match_str_parse() {
        let toks: [&[u8]; 14] = [
            b"0",
            b"+7",
            b"007",
            b"+",
            b"",
            b"-1",
            b"++1",
            b"1+",
            b"4294967295",
            b"4294967296",
            b"18446744073709551615",
            b"18446744073709551616",
            b"99999999999999999999",
            b"000000000000000000000000042",
        ];
        fn dec<T: TryFrom<u64>>(tok: &[u8]) -> Option<T> {
            Cursor { line: tok, i: 0, usage: "" }.dec("number", b' ').ok()
        }
        for tok in toks {
            let s = std::str::from_utf8(tok).unwrap();
            assert_eq!(dec::<u8>(tok), s.parse::<u8>().ok(), "u8 {s:?}");
            assert_eq!(dec::<u32>(tok), s.parse::<u32>().ok(), "u32 {s:?}");
            assert_eq!(dec::<u64>(tok), s.parse::<u64>().ok(), "u64 {s:?}");
        }
    }

    #[test]
    fn validation_builds_no_lane_vectors() {
        let op = decode_op_line(b"ld 0 1 - - 0,128,256", false).unwrap().unwrap();
        assert_eq!(op.kind, OpKind::Mem { is_write: false, addrs: Vec::new() });
        let built = decode_op_line(b"ld 0 1 - - 0,128,256", true).unwrap().unwrap();
        // Pushed one at a time from empty, as `collect` on a split does.
        assert!(matches!(built.kind, OpKind::Mem { ref addrs, .. } if addrs.capacity() == 4));
    }

    #[test]
    fn unicode_whitespace_blanks_lines_but_not_op_lines() {
        assert!(decode_op_line("\u{3000}".as_bytes(), true).unwrap().is_none());
        assert!(decode_op_line("\u{a0}# note".as_bytes(), true).unwrap().is_none());
        assert!(decode_op_line(b"# bad \xff", true).is_err());
        let err = decode_op_line("alu 1 1 1 - - -\u{3000}".as_bytes(), true).unwrap_err();
        assert!(err.to_string().contains("invalid register"), "{err}");
    }

    #[test]
    fn lying_binary_length_is_malformed() {
        let path = tmp("lying.trace");
        let mut bytes = BIN_MAGIC.to_vec();
        bytes.push(BIN_VERSION);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0; 8]); // warp 0/0
        bytes.extend_from_slice(&(u64::MAX - 8).to_le_bytes());
        bytes.extend_from_slice(&[0; 13]);
        std::fs::write(&path, bytes).unwrap();
        let err = TraceKernel::open(&path).unwrap_err();
        assert!(err.to_string().contains("runs past end of file"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overlong_line_is_malformed_in_open_and_replay() {
        let path = tmp("long.trace");
        let line = format!("st 0 - - {}", "1,".repeat(512 << 10));
        std::fs::write(&path, format!("{TEXT_MAGIC}\ngrid 1 1\nwarp 0 0\n{line}")).unwrap();
        let err = TraceKernel::open(&path).unwrap_err();
        assert!(err.to_string().contains("line longer than"), "{err}");
        // Replay of the same bytes stops within one chunk of carry.
        let len = std::fs::metadata(&path).unwrap().len();
        let offset = (TEXT_MAGIC.len() + "\ngrid 1 1\nwarp 0 0\n".len()) as u64;
        let mut s = TraceKernel {
            path: path.clone(),
            name: "LONG".into(),
            grid: GridDesc { num_ctas: 1, warps_per_cta: 1 },
            format: Format::Text,
            spans: HashMap::from([((0, 0), (offset, len - offset))]),
        }
        .stream(0, 0);
        let err = s.refill().unwrap_err();
        assert!(err.to_string().contains("line longer than"), "{err}");
        assert!(s.carry.len() <= 2 * CHUNK, "carry grew to {}", s.carry.len());
        std::fs::remove_file(&path).ok();
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
