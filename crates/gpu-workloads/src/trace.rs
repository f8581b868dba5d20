//! Bounded-memory ingestion of external trace files.
//!
//! Besides the synthetic models in [`crate::apps`], the simulator can
//! replay traces captured elsewhere (e.g. converted from Accel-Sim
//! dumps). [`TraceKernel::open`] reads the file once: it indexes one
//! byte-range per `(cta, warp)` section and validates every record in
//! place, through the replay's own decoder but without building ops.
//! Each warp then replays its section through a [`FileStream`], which
//! reads one chunk at a time (open → seek → read → close per refill, an
//! incomplete trailing record carried into the next chunk) and decodes
//! one op at a time from those raw bytes, as the warp asks for it.
//! Resident state per warp is at most two chunks of raw bytes and one
//! decoded op, not the warp's trace, so a gigabyte trace file costs the
//! same memory as a kilobyte one — the ingestion half of the scale axis.
//!
//! A trace is validated as K byte ranges on K threads, where K is the
//! machine's available parallelism, capped so every range is at least
//! the format's minimum part (`Format::min_part`: 256 KiB of text, 4 MiB
//! of binary, where two ranges start to beat one): a smaller file is
//! scanned on the calling thread by the same code with K = 1. Once a
//! range has failed, every later range stops at its next chunk, since
//! the error reported lies at or before that failure.
//!
//! In a text trace each range scans the lines that start inside it, so
//! a line crossing a boundary belongs to the range it starts in. A range
//! records its `grid` and `warp` lines, its first op line and the first
//! problem it meets; a merge then replays those records in file order
//! through the section rules (one `grid`, before every `warp`; no
//! duplicate or out-of-grid `warp`; no op line before the first `warp`).
//! The first problem in file order is the one reported, with the same
//! text and line number as a single-range scan gives. A range stops once
//! it has recorded more `grid` and `warp` lines than any valid grid
//! allows, so a file made of section lines costs bounded memory; the
//! merge then reports the earlier duplicate or out-of-grid `warp`.
//!
//! A binary trace's warp-block headers are walked first, seeking over
//! the payloads, which checks every header and indexes the sections.
//! Each range then validates the payloads that start inside it, whole
//! sections at a time. A payload error is reported before any header
//! problem after it, as a single pass reports it.
//!
//! Two formats are supported, sniffed from the first bytes:
//!
//! **Text** (`dlp-trace-v1`): a header line, a `grid <ctas> <warps>`
//! line, then `warp <cta> <warp>` sections of op lines; blank and `#`
//! comment lines may appear anywhere after the header. Op lines are
//! ASCII, decoded in one left-to-right scan of their bytes where they
//! lie in the read buffer; the scan stops at the line's `\n`, so a line
//! is delimited first only when it is no op line, is malformed or may
//! continue in the next chunk. The keyword's first bytes pick its path,
//! and the scan's position never waits on a data-dependent test, only
//! on predicted branches:
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
use gpu_sim::stream::{op_bytes, OpStream};
use gpu_sim::{GridDesc, Kernel};
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Most lines one range of a valid text trace records for the merge:
/// one `grid`, one `warp` per warp of the largest grid, one op line. A
/// range that meets more stops, so a flood of section lines costs
/// bounded memory; the merge then reports an earlier problem.
const MAX_MARKS: usize = MAX_WARPS as usize + 2;

/// Which on-disk format a trace file uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Format {
    Text,
    Binary,
}

impl Format {
    /// Shortest byte range `open` gives a thread of its own: half the
    /// file length from which two ranges open faster than one on a
    /// 2-core host (EXPERIMENTS.md, "Trace ingestion"). Decoding text
    /// costs far more per byte than checking binary records, most of
    /// whose cost is reading them.
    fn min_part(self) -> u64 {
        match self {
            Format::Text => 256 << 10,
            Format::Binary => 4 << 20,
        }
    }
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
    /// Index and fully validate a trace file in one read of its bytes
    /// (a text trace split into ranges across cores; see the module
    /// docs). Every record goes through the decoder the replay uses, so
    /// a successful `open` guarantees the simulation never hits a parse
    /// error mid-run.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let mut rd = Reader::new(path, 0)?;
        rd.more()?;
        let format =
            if rd.pending().starts_with(&BIN_MAGIC) { Format::Binary } else { Format::Text };
        let cuts = cuts(rd.f.metadata()?.len(), format.min_part());
        let (grid, spans) = match format {
            Format::Text => scan_text(path, &cuts)?,
            Format::Binary => scan_binary(path, &cuts)?,
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
            at: 0,
            next: None,
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
/// fd table). Ops are decoded from the chunk one at a time, as the warp
/// asks for them: the stream holds raw bytes and one decoded op of
/// lookahead, so each op's lane vector lives only from just before the
/// op issues to just after. An incomplete trailing line/record is
/// carried into the next refill.
pub struct FileStream {
    path: PathBuf,
    format: Format,
    section: String,
    offset: u64,
    len: u64,
    /// Section bytes read so far.
    pos: u64,
    /// Raw bytes read and not yet discarded: at most the carried partial
    /// record plus one chunk.
    carry: Vec<u8>,
    /// Start of the undecoded bytes in `carry`.
    at: usize,
    /// The decoded op [`OpStream::peek`] returns next.
    next: Option<TraceOp>,
    peak: usize,
    chunk: usize,
}

impl FileStream {
    /// Fill the lookahead with the next op, reading chunks until one
    /// decodes or the section ends.
    fn refill(&mut self) -> Result<(), TraceError> {
        while !self.decode()? {
            if self.pos < self.len {
                self.read_chunk()?;
            } else if self.at < self.carry.len() {
                return Err(malformed(&self.section, "truncated record at end of section"));
            } else {
                break;
            }
        }
        self.peak = self.peak.max(self.resident_bytes());
        Ok(())
    }

    /// Decode the next op from the undecoded bytes into the lookahead;
    /// false if no complete record is there. Blank and comment lines are
    /// skipped.
    fn decode(&mut self) -> Result<bool, TraceError> {
        let at_end = self.pos >= self.len;
        loop {
            let rest = &self.carry[self.at..];
            match self.format {
                Format::Text => {
                    let Some((line, next)) = next_line(rest, at_end, Some(&mut self.next))? else {
                        return Ok(false);
                    };
                    match line {
                        Line::Op => {
                            self.at += next;
                            return Ok(true);
                        }
                        Line::Other(line) => not_op(line).map_err(|bad| bad.error(line))?,
                        Line::Bad(e) => return Err(e),
                    }
                    self.at += next;
                }
                Format::Binary => {
                    let Some((op, size)) = bin_op(rest, true)? else { return Ok(false) };
                    self.next = Some(op);
                    self.at += size;
                    return Ok(true);
                }
            }
        }
    }

    /// Discard the decoded bytes and append the section's next chunk.
    fn read_chunk(&mut self) -> Result<(), TraceError> {
        self.carry.drain(..self.at);
        self.at = 0;
        let want = self.chunk.min((self.len - self.pos) as usize);
        let mut f = File::open(&self.path)?;
        f.seek(SeekFrom::Start(self.offset + self.pos))?;
        let n = f.take(want as u64).read_to_end(&mut self.carry)?;
        if n < want {
            return Err(malformed(&self.section, "trace file shrank during replay"));
        }
        self.pos += n as u64;
        Ok(())
    }
}

impl OpStream for FileStream {
    fn next_op(&mut self) -> Option<TraceOp> {
        self.peek()?;
        self.next.take()
    }

    fn peek(&mut self) -> Option<&TraceOp> {
        if self.next.is_none() {
            self.refill()
                .expect("trace file validated at open() failed during replay — changed on disk?");
        }
        self.next.as_ref()
    }

    fn resident_bytes(&self) -> usize {
        self.next.as_ref().map_or(0, op_bytes) + self.carry.len() - self.at
    }

    fn peak_resident_bytes(&self) -> usize {
        self.peak
    }
}

/// A front-to-back pass over (part of) the file for `open`: a window
/// of unconsumed bytes, refilled one chunk at a time.
struct Reader {
    f: File,
    buf: Vec<u8>,
    /// Start of the unconsumed bytes in `buf`.
    at: usize,
    /// File offset of `buf[at]`.
    off: u64,
}

impl Reader {
    /// A pass over `path` that starts at byte `off`.
    fn new(path: &Path, off: u64) -> Result<Self, TraceError> {
        let mut f = File::open(path)?;
        f.seek(SeekFrom::Start(off))?;
        Ok(Reader { f, buf: Vec::with_capacity(2 * CHUNK), at: 0, off })
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.at..]
    }

    fn consume(&mut self, n: usize) {
        self.at += n;
        self.off += n as u64;
    }

    /// Move the pass forward to file offset `off`, within the pending
    /// bytes or by a seek.
    fn skip_to(&mut self, off: u64) -> io::Result<()> {
        match usize::try_from(off - self.off) {
            Ok(n) if n <= self.pending().len() => self.consume(n),
            _ => {
                self.f.seek(SeekFrom::Start(off))?;
                self.buf.clear();
                (self.at, self.off) = (0, off);
            }
        }
        Ok(())
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

/// Check grid dimensions; the error is the message alone.
fn check_grid(ctas: usize, warps: usize) -> Result<GridDesc, String> {
    if ctas == 0 || warps == 0 {
        return Err("grid dimensions must be nonzero".into());
    }
    if (ctas as u64).saturating_mul(warps as u64) > MAX_WARPS {
        return Err(format!("grid exceeds {MAX_WARPS} warps"));
    }
    Ok(GridDesc { num_ctas: ctas, warps_per_cta: warps })
}

// -------------------------------------------------------------- ranges

/// Where `open` splits a trace of `len` bytes: one range per available
/// core, each at least `min_part` long; the last range runs to the end
/// of the file.
fn cuts(len: u64, min_part: u64) -> Vec<u64> {
    // Asking for the core count reads cgroup files, so a small file
    // does not ask.
    let k = match len / min_part {
        0 | 1 => 1,
        most => most.min(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
    };
    (0..k).map(|i| i * (len / k)).chain([u64::MAX]).collect()
}

/// The start of the earliest range of one scan that has failed, shared
/// by the scan's ranges. A later range stops at its next chunk: the
/// merge reports an error at or before that failure and never reads
/// what the later range found. It only saves work, so no ordering
/// beyond `Relaxed` is needed.
struct FirstFailure(AtomicU64);

impl Default for FirstFailure {
    fn default() -> Self {
        FirstFailure(AtomicU64::new(u64::MAX))
    }
}

impl FirstFailure {
    /// Record that the range starting at `start` failed.
    fn fail(&self, start: u64) {
        self.0.fetch_min(start, Ordering::Relaxed);
    }

    /// Has a range that starts before `start` failed?
    fn before(&self, start: u64) -> bool {
        self.0.load(Ordering::Relaxed) < start
    }
}

/// Run `scan` over each range between consecutive `cuts` (`0` first,
/// `u64::MAX` last): on one thread each, or on the calling thread when
/// there is only one. The results come back in file order.
fn in_ranges<T: Send>(cuts: &[u64], scan: impl Fn(u64, u64, &FirstFailure) -> T + Sync) -> Vec<T> {
    let failed = FirstFailure::default();
    let ranges = cuts.windows(2).map(|w| (w[0], w[1]));
    if cuts.len() <= 2 {
        return ranges.map(|(start, end)| scan(start, end, &failed)).collect();
    }
    std::thread::scope(|s| {
        let (scan, failed) = (&scan, &failed);
        let threads: Vec<_> =
            ranges.map(|(start, end)| s.spawn(move || scan(start, end, failed))).collect();
        threads
            .into_iter()
            .map(|t| t.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

// ---------------------------------------------------------------- text

/// Index of the first `\n` in `bytes`, tested eight bytes at a time.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    for (w, word) in words.by_ref().enumerate() {
        let x =
            u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes")) ^ NEWLINES;
        // High bit set in each zero byte of `x` (and possibly in bytes
        // above one); the lowest flagged byte is always a true zero.
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(w * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    tail.iter().position(|&b| b == b'\n').map(|r| bytes.len() - tail.len() + r)
}

#[cold]
fn long_line() -> TraceError {
    malformed("text trace", format!("line longer than {CHUNK} bytes"))
}

/// The first line of nonempty `bytes` as `(end, next)`: where it ends
/// without its `\n`, and where the next line starts. `None` while the
/// line may still be incomplete; with `at_end`, a final line without a
/// newline is complete. A line longer than [`CHUNK`] is malformed, so no
/// caller ever carries more than one chunk of it.
fn line_at(bytes: &[u8], at_end: bool) -> Result<Option<(usize, usize)>, TraceError> {
    let (end, next) = match find_newline(bytes) {
        Some(r) => (r, r + 1),
        None if bytes.is_empty() => return Ok(None),
        None if at_end || bytes.len() > CHUNK => (bytes.len(), bytes.len()),
        None => return Ok(None),
    };
    if end > CHUNK {
        return Err(long_line());
    }
    Ok(Some((end, next)))
}

/// The line at the start of nonempty `rest`, and where the next line
/// starts; `None` while it may be incomplete (see [`line_at`]). An op
/// line is decoded where it lies, its end found by the decode itself;
/// only a line that is no op, is malformed or may be cut short is
/// delimited first. With `out` the op is stored there; without, the
/// line is only validated and nothing is built. Inlined, so each caller
/// gets the decoder of its own mode.
#[inline(always)]
fn next_line<'a>(
    rest: &'a [u8],
    at_end: bool,
    out: Option<&mut Option<TraceOp>>,
) -> Result<Option<(Line<'a>, usize)>, TraceError> {
    if let Ok(Some((op, end))) = decode(rest, out.is_some()) {
        // The decode stopped at the line's `\n` or at the end of `rest`.
        let next = match rest.get(end) {
            Some(_) => Some(end + 1),
            None => Some(end).filter(|_| at_end),
        };
        if let Some(next) = next.filter(|_| end <= CHUNK) {
            if let Some(out) = out {
                *out = Some(op);
            }
            return Ok(Some((Line::Op, next)));
        }
    }
    delimited_line(rest, at_end, out)
}

/// [`next_line`] for a line that is no op, is malformed or may be cut
/// short: found first, then decoded.
#[inline(never)]
fn delimited_line<'a>(
    rest: &'a [u8],
    at_end: bool,
    out: Option<&mut Option<TraceOp>>,
) -> Result<Option<(Line<'a>, usize)>, TraceError> {
    let Some((end, next)) = line_at(rest, at_end)? else { return Ok(None) };
    let line = &rest[..end];
    let kind = match decode(line, out.is_some()) {
        Ok(Some((op, _))) => {
            if let Some(out) = out {
                *out = Some(op);
            }
            Line::Op
        }
        Ok(None) => Line::Other(line),
        Err(bad) => Line::Bad(bad.error(line)),
    };
    Ok(Some((kind, next)))
}

/// What [`next_line`] found.
enum Line<'a> {
    /// A valid op line.
    Op,
    /// A line whose first field is no op keyword: its bytes without the
    /// `\n`.
    Other(&'a [u8]),
    /// A malformed op line.
    Bad(TraceError),
}

/// Index a text trace and validate every line. The ranges between
/// consecutive `cuts` (`0` first, `u64::MAX` last) are scanned on one
/// thread each, or on the calling thread when there is only one; their
/// findings are merged in file order.
fn scan_text(path: &Path, cuts: &[u64]) -> Result<(GridDesc, Spans), TraceError> {
    merge(in_ranges(cuts, |start, end, failed| {
        let mut part = Part::default();
        part.err = scan_part(path, start, end, MAX_MARKS, failed, &mut part).err();
        if part.err.is_some() {
            failed.fail(start);
        }
        part
    }))
}

/// What one range of a text trace holds.
#[derive(Default)]
struct Part {
    /// Offset of its first line.
    first: u64,
    /// Offset just past its last line.
    next: u64,
    /// Lines scanned, the one `err` is about included.
    lines: u64,
    /// Its `grid` and `warp` lines and its first op line, in file order.
    marks: Vec<Mark>,
    /// The problem that ended the scan; it follows every mark.
    err: Option<Fault>,
}

/// A line the merge must see. `line` counts from the range's first line.
struct Mark {
    line: u64,
    start: u64,
    next: u64,
    kind: MarkKind,
}

enum MarkKind {
    /// The dimensions, or `None` when the range's `err` says why not.
    Grid(Option<GridDesc>),
    /// `(cta, warp)`, or `None` when the range's `err` says why not.
    Warp(Option<(usize, usize)>),
    /// The range's first line that is neither blank nor a comment.
    Op,
}

/// Why a range stopped.
enum Fault {
    /// Its last line is malformed; the merge knows the line's number.
    Line(String),
    /// An error whose text names no line.
    Other(TraceError),
}

impl From<TraceError> for Fault {
    fn from(e: TraceError) -> Self {
        Fault::Other(e)
    }
}

/// Scan the lines that start in `[start, end)`: validate op lines, and
/// record into `part` what the merge must see. A range that starts past
/// byte 0 reads from the byte before `start` and skips through the
/// first `\n`, so it begins at the first line that starts at or past
/// `start`. The range stops once it has recorded more than `max_marks`
/// lines, or at its next chunk once an earlier range has failed.
fn scan_part(
    path: &Path,
    start: u64,
    end: u64,
    max_marks: usize,
    failed: &FirstFailure,
    part: &mut Part,
) -> Result<(), Fault> {
    let mut skip = start > 0;
    let mut rd = Reader::new(path, start - u64::from(skip))?;
    (part.first, part.next) = (rd.off, rd.off);
    let mut seen_op = false;
    let mut at_end = false;
    while !at_end && rd.off < end && !failed.before(start) {
        at_end = !rd.more()?;
        let (base, bytes) = (rd.off, rd.pending());
        let stop = usize::try_from(end - base).unwrap_or(usize::MAX).min(bytes.len());
        let mut i = 0;
        while i < stop {
            let (rest, off) = (&bytes[i..], base + i as u64);
            if skip || off == 0 {
                let Some((line_end, next)) = line_at(rest, at_end)? else { break };
                if skip {
                    skip = false;
                    part.first = off + next as u64;
                } else {
                    part.lines += 1;
                    match std::str::from_utf8(&rest[..line_end]) {
                        Ok(s) if s.trim() == TEXT_MAGIC => {}
                        _ => return Err(Fault::Line(format!("expected `{TEXT_MAGIC}` header"))),
                    }
                }
                i += next;
                continue;
            }
            let Some((line, next)) = next_line(rest, at_end, None)? else { break };
            i += next;
            part.lines += 1;
            let mark = |kind| Mark { line: part.lines, start: off, next: base + i as u64, kind };
            let err = match line {
                Line::Op => None,
                Line::Bad(e) => Some(e),
                // `grid` and `warp` lines are rare: they, and any line that
                // opens with a non-ASCII byte, keep `&str` handling.
                Line::Other(line) => {
                    if let Some(b'g' | b'w' | 0x80..) = line.trim_ascii_start().first() {
                        let s = std::str::from_utf8(line)
                            .map_err(|_| Fault::Line("non-UTF-8 bytes".into()))?;
                        // A valid line past `max_marks` makes more `grid` and
                        // `warp` lines than any grid allows, so the merge meets
                        // an error at or before it and this text is never shown.
                        let bounded = |marks: &[Mark]| {
                            if marks.len() > max_marks {
                                let msg = "more `grid` and `warp` lines than any grid allows";
                                return Err(Fault::Line(msg.into()));
                            }
                            Ok(())
                        };
                        let mut it = s.split_whitespace();
                        match it.next() {
                            Some("grid") => {
                                let grid = dims(it, "grid", ["cta count", "warp count"])
                                    .and_then(|(ctas, warps)| check_grid(ctas, warps));
                                part.marks.push(mark(MarkKind::Grid(grid.as_ref().ok().copied())));
                                grid.map_err(Fault::Line).and_then(|_| bounded(&part.marks))?;
                                continue;
                            }
                            Some("warp") => {
                                let key = dims(it, "warp", ["cta index", "warp index"]);
                                part.marks.push(mark(MarkKind::Warp(key.as_ref().ok().copied())));
                                key.map_err(Fault::Line).and_then(|_| bounded(&part.marks))?;
                                continue;
                            }
                            _ => {}
                        }
                    }
                    match not_op(line) {
                        Ok(()) => continue,
                        Err(bad) => Some(bad.error(line)),
                    }
                }
            };
            if !seen_op {
                seen_op = true;
                part.marks.push(mark(MarkKind::Op));
            }
            if let Some(e) = err {
                return Err(Fault::Other(e));
            }
        }
        rd.consume(i);
        part.next = rd.off;
    }
    Ok(())
}

/// The two dimensions after a `grid` or `warp` keyword, and nothing more.
fn dims(
    mut it: std::str::SplitWhitespace<'_>,
    kw: &str,
    what: [&str; 2],
) -> Result<(usize, usize), String> {
    let mut dim = |what| {
        it.next().and_then(|t| t.parse().ok()).ok_or_else(|| format!("missing or invalid {what}"))
    };
    let pair = (dim(what[0])?, dim(what[1])?);
    match it.next() {
        Some(_) => Err(format!("trailing tokens after `{kw}`")),
        None => Ok(pair),
    }
}

/// Replay the ranges' records in file order through the section rules
/// and build the span index. The first problem in file order wins.
fn merge(parts: Vec<Part>) -> Result<(GridDesc, Spans), TraceError> {
    let mut grid: Option<GridDesc> = None;
    let mut spans: Spans = HashMap::new();
    let mut open_span: Option<((usize, usize), u64)> = None;
    // Offset where the next range must begin, and lines before it.
    let (mut next, mut lines) = (0, 0);
    for part in parts {
        if part.first != next {
            return Err(malformed("text trace", "file changed while it was read"));
        }
        for m in part.marks {
            let at = || format!("line {}", lines + m.line);
            match m.kind {
                MarkKind::Grid(dims) => {
                    if grid.is_some() {
                        return Err(malformed(at(), "duplicate `grid` line"));
                    }
                    if open_span.is_some() {
                        return Err(malformed(at(), "`grid` must precede all `warp` sections"));
                    }
                    grid = dims;
                }
                MarkKind::Warp(key) => {
                    let g = grid.ok_or_else(|| malformed(at(), "`warp` before `grid`"))?;
                    let Some((cta, warp)) = key else { break };
                    if cta >= g.num_ctas || warp >= g.warps_per_cta {
                        return Err(malformed(at(), format!("warp {cta}/{warp} outside the grid")));
                    }
                    if let Some((key, span_off)) = open_span.take() {
                        spans.insert(key, (span_off, m.start - span_off));
                    }
                    if spans.contains_key(&(cta, warp)) {
                        let msg = format!("duplicate section for warp {cta}/{warp}");
                        return Err(malformed(at(), msg));
                    }
                    open_span = Some(((cta, warp), m.next));
                }
                MarkKind::Op if open_span.is_none() => {
                    return Err(malformed(at(), "op line before the first `warp` section"));
                }
                MarkKind::Op => {}
            }
        }
        match part.err {
            Some(Fault::Line(msg)) => {
                return Err(malformed(format!("line {}", lines + part.lines), msg));
            }
            Some(Fault::Other(e)) => return Err(e),
            None => (next, lines) = (part.next, lines + part.lines),
        }
    }
    if let Some((key, span_off)) = open_span.take() {
        spans.insert(key, (span_off, next - span_off));
    }
    let grid = grid.ok_or_else(|| malformed("end of file", "missing `grid` line"))?;
    Ok((grid, spans))
}

/// Why an op line is malformed. The text is built from this and the
/// line only on failure ([`Bad::error`]), so validation allocates
/// nothing.
#[derive(Clone, Copy, Debug)]
enum Bad {
    NonUtf8,
    Keyword,
    /// The keyword's arity message: too few or too many fields.
    Usage(&'static str),
    /// The field starting at byte `at` of the line is not a valid `what`;
    /// it ends at `stop` or whitespace.
    Field {
        what: &'static str,
        at: usize,
        stop: u8,
    },
    Active,
    LoadDst,
    Register(u8),
    Lanes,
}

impl Bad {
    /// The error for op line `line` (its `\n` stripped).
    #[cold]
    fn error(self, line: &[u8]) -> TraceError {
        let t = line.trim_ascii();
        let msg = match self {
            Bad::NonUtf8 => "non-UTF-8 bytes".into(),
            Bad::Keyword => {
                let kw = t.split(u8::is_ascii_whitespace).next().unwrap_or_default();
                format!("unknown keyword `{}`", String::from_utf8_lossy(kw))
            }
            Bad::Usage(usage) => usage.into(),
            Bad::Field { what, at, stop } => {
                let ends = |c: &u8| *c == stop || c.is_ascii_whitespace();
                let tok = line[at..].split(ends).next().unwrap_or_default();
                format!("invalid {what} `{}`", tok.escape_ascii())
            }
            Bad::Active => "active lanes must be 1..=32".into(),
            Bad::LoadDst => "loads must write a register".into(),
            Bad::Register(r) => format!("register {r} out of range (< {MAX_REGS})"),
            Bad::Lanes => "1..=32 lane addresses required".into(),
        };
        malformed(format!("op line `{}`", String::from_utf8_lossy(t)), msg)
    }
}

/// Decode the op line at the start of `b`, which ends at the first `\n`
/// or at the end of `b`: the op (without lane addresses unless `build`)
/// and where the line's last field ends, past any trailing whitespace.
/// `None` when the line's first field is no op keyword. Each keyword
/// has its own path, told apart by the keyword's first bytes, and the
/// decode never reads past the line's `\n`.
#[inline(always)]
fn decode(b: &[u8], build: bool) -> Result<Option<(TraceOp, usize)>, Bad> {
    let mut c = Cursor { line: b, i: 0, usage: "" };
    c.blanks();
    let op = match &b[c.i..] {
        [b'a', b'l', b'u', ..] if c.keyword(3, "expected `alu pc latency active dst s0 s1`") => {
            let pc = c.num("number")?;
            let latency = c.num("number")?;
            let active = c.num("active-lane count")?;
            if !(1..=32).contains(&active) {
                return Err(Bad::Active);
            }
            let dst = c.reg()?;
            let srcs = [c.reg()?, c.reg()?];
            TraceOp { pc, dst, srcs, kind: OpKind::Alu { latency, active } }
        }
        [b'l', b'd', ..] if c.keyword(2, "expected `ld pc dst s0 s1 addr,addr,...`") => {
            let pc = c.num("number")?;
            let dst = c.reg()?;
            if dst == NO_REG {
                return Err(Bad::LoadDst);
            }
            let srcs = [c.reg()?, c.reg()?];
            let addrs = c.lanes(build)?;
            TraceOp { pc, dst, srcs, kind: OpKind::Mem { is_write: false, addrs } }
        }
        [b's', b't', ..] if c.keyword(2, "expected `st pc s0 s1 addr,addr,...`") => {
            let pc = c.num("number")?;
            let srcs = [c.reg()?, c.reg()?];
            let addrs = c.lanes(build)?;
            TraceOp { pc, dst: NO_REG, srcs, kind: OpKind::Mem { is_write: true, addrs } }
        }
        _ => return Ok(None),
    };
    c.blanks();
    if !c.at_eol() {
        return Err(Bad::Usage(c.usage));
    }
    Ok(Some((op, c.i)))
}

/// Check a line whose first field is no op keyword: it must be blank
/// (Unicode whitespace included) or a comment.
fn not_op(line: &[u8]) -> Result<(), Bad> {
    let s = std::str::from_utf8(line).map_err(|_| Bad::NonUtf8)?.trim();
    if s.is_empty() || s.starts_with('#') {
        Ok(())
    } else {
        Err(Bad::Keyword)
    }
}

/// Whitespace inside a line: ASCII whitespace but the `\n` ending it.
fn is_blank(c: &u8) -> bool {
    c.is_ascii_whitespace() && *c != b'\n'
}

/// Cursor over the bytes of one op line and whatever follows its `\n`.
struct Cursor<'a> {
    line: &'a [u8],
    i: usize,
    /// The arity error of the line's keyword.
    usage: &'static str,
}

impl Cursor<'_> {
    /// Is the cursor at the line's `\n` or the end of the bytes?
    #[inline(always)]
    fn at_eol(&self) -> bool {
        self.line.get(self.i).is_none_or(|&c| c == b'\n')
    }

    #[inline(always)]
    fn blanks(&mut self) {
        while self.line.get(self.i).is_some_and(is_blank) {
            self.i += 1;
        }
    }

    /// Step past a keyword `len` bytes long, if whitespace or the end of
    /// the bytes follows it.
    #[inline(always)]
    fn keyword(&mut self, len: usize, usage: &'static str) -> bool {
        (self.i, self.usage) = (self.i + len, usage);
        self.line.get(self.i).is_none_or(u8::is_ascii_whitespace)
    }

    /// Step over the whitespace before the next field, which must exist.
    #[inline(always)]
    fn field(&mut self) -> Result<(), Bad> {
        // Most often one space, as the writers put it.
        let b = self.line;
        if b.get(self.i) == Some(&b' ') && b.get(self.i + 1).is_some_and(|c| !c.is_ascii_whitespace()) {
            self.i += 1;
            return Ok(());
        }
        self.blanks();
        if self.at_eol() {
            return Err(Bad::Usage(self.usage));
        }
        Ok(())
    }

    /// Digits at the cursor, read as `str::parse` reads an unsigned `T`:
    /// an optional `+`, then one or more digits, rejecting overflow. The
    /// number must end at a `stop` byte, whitespace or the end of line.
    #[inline(always)]
    fn dec<T: TryFrom<u64>>(&mut self, what: &'static str, stop: u8) -> Result<T, Bad> {
        let (b, start) = (self.line, self.i);
        if b.get(start) == Some(&b'+') {
            return self.signed_dec(what, stop);
        }
        let (mut i, mut v) = (start, 0u64);
        // Nineteen digits stay below `u64::MAX` whatever they are, so
        // only a longer run needs the checked reading.
        while let Some(d) = b.get(i).map(|c| c.wrapping_sub(b'0')).filter(|&d| d < 10) {
            v = v.wrapping_mul(10).wrapping_add(d.into());
            i += 1;
        }
        self.i = i;
        let ends = b.get(i).is_none_or(|c| *c == stop || c.is_ascii_whitespace());
        if (i - start).wrapping_sub(1) < 19 && ends {
            if let Ok(v) = T::try_from(v) {
                return Ok(v);
            }
        }
        odd_dec(&b[start..i], v, ends).ok_or(Bad::Field { what, at: start, stop })
    }

    /// [`Cursor::dec`] of a number written with a `+`. Kept off the usual
    /// path, whose position then never waits on a test of its first
    /// byte.
    #[cold]
    #[inline(never)]
    fn signed_dec<T: TryFrom<u64>>(&mut self, what: &'static str, stop: u8) -> Result<T, Bad> {
        let start = self.i;
        self.i += 1;
        match self.line.get(self.i) {
            Some(c) if c.is_ascii_digit() => {
                self.dec(what, stop).map_err(|_| Bad::Field { what, at: start, stop })
            }
            _ => Err(Bad::Field { what, at: start, stop }),
        }
    }

    #[inline(always)]
    fn num<T: TryFrom<u64>>(&mut self, what: &'static str) -> Result<T, Bad> {
        self.field()?;
        self.dec(what, b' ')
    }

    #[inline(always)]
    fn reg(&mut self) -> Result<Reg, Bad> {
        self.field()?;
        let b = self.line;
        if b[self.i] == b'-' && b.get(self.i + 1).is_none_or(u8::is_ascii_whitespace) {
            self.i += 1;
            return Ok(NO_REG);
        }
        let r: u8 = self.dec("register", b' ')?;
        if (r as usize) >= MAX_REGS {
            return Err(Bad::Register(r));
        }
        Ok(r)
    }

    /// Comma-separated lane addresses, kept only when `build`. Pushing one
    /// at a time into `Vec::new()` gives the lane vector the capacity that
    /// replay's resident-byte accounting has always seen.
    #[inline(always)]
    fn lanes(&mut self, build: bool) -> Result<Vec<u64>, Bad> {
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
            return Err(Bad::Lanes);
        }
        Ok(addrs)
    }
}

/// A number [`Cursor::dec`] did not take at once: `digits`, which
/// were read as `v` if there are at most nineteen, and whether a valid
/// byte `ends` them.
#[cold]
#[inline(never)]
fn odd_dec<T: TryFrom<u64>>(digits: &[u8], v: u64, ends: bool) -> Option<T> {
    let v = match digits.len() {
        0 => None,
        1..=19 => Some(v),
        _ => digits.iter().try_fold(0u64, |v, &c| v.checked_mul(10)?.checked_add((c - b'0').into())),
    };
    v.filter(|_| ends)?.try_into().ok()
}

// -------------------------------------------------------------- binary

/// Index a binary trace and validate every record. The warp-block
/// headers are walked first, seeking over the payloads; then the ranges
/// between consecutive `cuts` validate the payloads that start in them,
/// one thread each (see [`in_ranges`]). The first problem in file order
/// wins: a payload error beats a header problem after it.
fn scan_binary(path: &Path, cuts: &[u64]) -> Result<(GridDesc, Spans), TraceError> {
    let walk = walk_blocks(path)?;
    let blocks = &walk.blocks;
    in_ranges(cuts, |start, end, failed| {
        let first = blocks.partition_point(|b| b.off < start);
        let last = blocks.partition_point(|b| b.off < end);
        let checked = check_payloads(path, &blocks[first..last], || failed.before(start));
        if checked.is_err() {
            failed.fail(start);
        }
        checked
    })
    .into_iter()
    .collect::<Result<(), _>>()?;
    walk.bad.map_or(Ok((walk.grid, walk.spans)), Err)
}

/// What the header walk of a binary trace found.
struct Walk {
    grid: GridDesc,
    /// Every block before `bad`, in file order.
    blocks: Vec<Block>,
    spans: Spans,
    /// The first warp-block header problem, which ended the walk.
    bad: Option<TraceError>,
}

/// One warp block of a binary trace: its payload's offset and length.
struct Block {
    off: u64,
    len: u64,
    cta: usize,
    warp: usize,
}

/// Bytes each read of the header walk asks for: it holds the next
/// header when the payloads are short, and costs little when they are
/// long and the walk seeks over them.
const WALK_READ: usize = 4 << 10;

/// Walk the header and warp-block headers of a binary trace, seeking
/// over the payloads. A problem with the file header is the error
/// itself.
fn walk_blocks(path: &Path) -> Result<Walk, TraceError> {
    let mut f = BufReader::with_capacity(WALK_READ, File::open(path)?);
    let file_len = f.get_ref().metadata()?.len();
    if file_len < 13 {
        return Err(malformed("header", "truncated binary header"));
    }
    let mut hdr = [0; 13];
    f.read_exact(&mut hdr)?;
    if hdr[4] != BIN_VERSION {
        return Err(malformed("header", format!("unsupported version {}", hdr[4])));
    }
    let ctas = u32::from_le_bytes([hdr[5], hdr[6], hdr[7], hdr[8]]) as usize;
    let warps = u32::from_le_bytes([hdr[9], hdr[10], hdr[11], hdr[12]]) as usize;
    let grid = check_grid(ctas, warps).map_err(|msg| malformed("header", msg))?;
    let (mut blocks, mut spans) = (Vec::new(), Spans::new());
    let mut pos: u64 = 13;
    let bad = loop {
        let at = || format!("byte {pos}");
        match file_len - pos {
            0 => break None,
            1..16 => break Some(malformed(at(), "truncated warp-block header")),
            _ => {}
        }
        let mut wh = [0; 16];
        f.read_exact(&mut wh)?;
        let cta = u32::from_le_bytes([wh[0], wh[1], wh[2], wh[3]]) as usize;
        let warp = u32::from_le_bytes([wh[4], wh[5], wh[6], wh[7]]) as usize;
        let len =
            u64::from_le_bytes([wh[8], wh[9], wh[10], wh[11], wh[12], wh[13], wh[14], wh[15]]);
        if cta >= ctas || warp >= warps {
            break Some(malformed(at(), format!("warp {cta}/{warp} outside the grid")));
        }
        if spans.contains_key(&(cta, warp)) {
            break Some(malformed(at(), format!("duplicate block for warp {cta}/{warp}")));
        }
        let off = pos + 16;
        let Some(end) = off.checked_add(len).filter(|&end| end <= file_len) else {
            break Some(malformed(at(), "warp-block payload runs past end of file"));
        };
        spans.insert((cta, warp), (off, len));
        blocks.push(Block { off, len, cta, warp });
        // In range: `end` is within the file, whose length fits an `i64`.
        f.seek_relative(i64::try_from(len).expect("payload within the file"))?;
        pos = end;
    };
    Ok(Walk { grid, blocks, spans, bad })
}

/// Validate the payloads of consecutive `blocks` in one pass over their
/// bytes, stepping over the headers between them; stop early, reporting
/// nothing, once `stop` says an earlier range has failed.
fn check_payloads(
    path: &Path,
    blocks: &[Block],
    stop: impl Fn() -> bool,
) -> Result<(), TraceError> {
    let Some(first) = blocks.first() else { return Ok(()) };
    let mut rd = Reader::new(path, first.off)?;
    for b in blocks {
        rd.skip_to(b.off)?;
        let end = b.off + b.len;
        while rd.off < end {
            if stop() {
                return Ok(());
            }
            let avail = rd.pending();
            let take = usize::try_from(end - rd.off).map_or(avail.len(), |l| l.min(avail.len()));
            let whole = rd.off + take as u64 == end;
            let n = bin_records(&avail[..take])?;
            rd.consume(n);
            if rd.off < end && (whole || !rd.more()?) {
                let section = format!("warp {}/{}", b.cta, b.warp);
                return Err(malformed(section, "truncated record at end of section"));
            }
        }
    }
    Ok(())
}

/// Validate the complete binary op records in `bytes` without storing
/// lane addresses; returns bytes consumed (an incomplete trailing record
/// is left for the next chunk).
fn bin_records(bytes: &[u8]) -> Result<usize, TraceError> {
    let mut i = 0;
    while let Some((_, sz)) = bin_op(&bytes[i..], false)? {
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
/// the payload streams out, so memory stays bounded by one op. Seeking
/// the `BufWriter` flushes it first, so the patch lands in place.
pub fn write_binary_trace(path: &Path, kernel: &dyn Kernel) -> io::Result<()> {
    let mut f = BufWriter::new(File::create(path)?);
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
    f.flush()
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
    use gpu_sim::stream::{materialize, ops_bytes, VecStream};
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

    /// Decode one line as replay does: its op, or `None` for a blank or
    /// `#` line.
    fn decode(line: &[u8]) -> Result<Option<TraceOp>, TraceError> {
        let mut op = None;
        match next_line(line, true, Some(&mut op))? {
            Some((Line::Other(line), _)) => not_op(line).map_err(|bad| bad.error(line))?,
            Some((Line::Bad(e), _)) => return Err(e),
            _ => {}
        }
        Ok(op)
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
        let op = decode(b"  alu\t64 4 32  2 1 -  ").unwrap().unwrap();
        assert_eq!(op.pc, 64);
        let arity = |line: &[u8]| decode(line).unwrap_err().to_string();
        let long = arity(b"alu 0 4 32 1 - - 7 8 9 10");
        assert!(long.contains("expected `alu pc latency active dst s0 s1`"), "{long}");
        assert!(arity(b"ld 0 1 - -").contains("expected `ld pc dst s0 s1"));
        assert!(arity(b"st 0 - - 0 0 0 0 0 0").contains("expected `st pc s0 s1"));
        assert!(decode(b"   ").unwrap().is_none());
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
        // Validation only reports that the line holds an op, and its
        // lane scan stores nothing.
        assert!(matches!(next_line(b"ld 0 1 - - 0,128,256", true, None), Ok(Some((Line::Op, _)))));
        let lanes = Cursor { line: b"0,128,256", i: 0, usage: "" }.lanes(false).unwrap();
        assert_eq!(lanes.capacity(), 0);
        let built = decode(b"ld 0 1 - - 0,128,256").unwrap().unwrap();
        // Pushed one at a time from empty, as `collect` on a split does.
        assert!(matches!(built.kind, OpKind::Mem { ref addrs, .. } if addrs.capacity() == 4));
    }

    #[test]
    fn unicode_whitespace_blanks_lines_but_not_op_lines() {
        assert!(decode("\u{3000}".as_bytes()).unwrap().is_none());
        assert!(decode("\u{a0}# note".as_bytes()).unwrap().is_none());
        assert!(decode(b"# bad \xff").is_err());
        let err = decode("alu 1 1 1 - - -\u{3000}".as_bytes()).unwrap_err();
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
    fn chunked_replay_is_bounded_and_repeatable() {
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
        let mut again = tk.stream(1, 0);
        again.chunk = 512;
        let second: Vec<_> = std::iter::from_fn(|| again.next_op()).collect();
        assert_eq!(first, second);
        std::fs::remove_file(&path).ok();
    }

    /// Index `text` as one range, then split it into two ranges at every
    /// `every`-th byte offset and into three with the second cut 0, 1, 9
    /// and 40 bytes further on: every split must give the same grid,
    /// spans and error text as one range.
    fn assert_splits_agree(text: &[u8], every: usize) {
        assert_cuts_agree(text, (0..=text.len() as u64).step_by(every));
    }

    fn assert_cuts_agree(text: &[u8], first_cuts: impl Iterator<Item = u64>) {
        let path = tmp("split.trace");
        std::fs::write(&path, text).unwrap();
        let scan = |cuts: &[u64]| scan_text(&path, cuts).map_err(|e| e.to_string());
        let one = scan(&[0, u64::MAX]);
        let len = text.len() as u64;
        for a in first_cuts {
            assert_eq!(scan(&[0, a, u64::MAX]), one, "cut at {a}");
            for b in [a, a + 1, a + 9, a + 40].into_iter().filter(|&b| b <= len) {
                assert_eq!(scan(&[0, a, b, u64::MAX]), one, "cuts at {a} and {b}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Every spelling the round-trip test renders: CRLF, tabs, `+` signs,
    /// blank, Unicode-blank and `#` lines, sections out of order, a grid
    /// with a warp that has no section.
    const SPELLINGS: &str = "dlp-trace-v1\r\n# captured by hand\n\n grid 2 2\r\n\
        warp 1 0\nld +0 1 - - 0,128,+256\r\n\talu 64\t4 32 2 1 -\n# café ≠ 42\n\
        \u{3000}\nst 5 2 - 4096\x0c\nwarp 0 1\n\n  alu 1 1 1 - - -\r\n\r\n\
        warp\t0 0\nld 3 +7 - 2 64\nst 9 - - 1,2,3";

    #[test]
    fn range_splits_match_one_range() {
        assert_splits_agree(SPELLINGS.as_bytes(), 1);
        assert_splits_agree(format!("{SPELLINGS}\n").as_bytes(), 1);
        let path = tmp("toy.trace");
        write_text_trace(&path, &Toy { reps: 2 }).unwrap();
        assert_splits_agree(&std::fs::read(&path).unwrap(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn range_splits_match_one_range_on_planted_errors() {
        let lines: Vec<&str> = SPELLINGS.split_inclusive('\n').collect();
        let plant = |at: usize, line: &str| {
            let mut v = lines.clone();
            v.insert(at, line);
            v.concat()
        };
        let cases = [
            plant(5, "grid 2 2\n"),         // duplicate `grid`
            plant(12, "grid 9 x\n"),        // duplicate `grid`, malformed too
            plant(2, "warp 0 0\n"),         // `warp` before `grid`
            plant(12, "warp 1 0\n"),        // duplicate `warp`
            plant(9, "warp 2 0\n"),         // `warp` outside the grid
            plant(4, "alu 0 1 32 - - -\n"), // op line before the first `warp`
            plant(4, "bogus\n"),            // malformed op line before the first `warp`
            plant(10, "ld 0 1 - - 12x\n"),  // bad address
            plant(10, "warp 0 0 0\n"),      // trailing tokens
            plant(0, "not a header\n"),
            format!("{}\n", lines[0]), // no `grid` at all
        ];
        for case in &cases {
            assert_splits_agree(case.as_bytes(), 1);
        }
        // A comment with a byte that is not UTF-8.
        let mut bytes = lines[..8].concat().into_bytes();
        bytes.extend_from_slice(b"# bad \xff\n");
        bytes.extend_from_slice(lines[8..].concat().as_bytes());
        assert_splits_agree(&bytes, 1);
    }

    #[test]
    fn range_splits_match_one_range_on_a_long_line() {
        let line = format!("st 0 - - {}", "1,".repeat(512 << 10));
        let head = format!("{TEXT_MAGIC}\ngrid 1 1\nwarp 0 0\nalu 0 1 32 - - -\n");
        let text = format!("{head}{line}\nalu 0 1 32 - - -\n");
        // Cuts around both ends of the long line and every 64 KiB + 1.
        let (start, end) = (head.len() as u64, (head.len() + line.len()) as u64);
        let ends = [start - 1, start, start + 1, end - 1, end, end + 1, end + 2];
        assert_cuts_agree(text.as_bytes(), ends.into_iter().chain((0..end).step_by(65537)));
    }

    #[test]
    fn a_flood_of_section_lines_stops_its_range() {
        let text = format!("{TEXT_MAGIC}\ngrid 1 1\n{}", "warp 0 0\n".repeat(10_000));
        let path = tmp("flood.trace");
        std::fs::write(&path, text).unwrap();
        let mut part = Part::default();
        part.err = scan_part(&path, 0, u64::MAX, 8, &FirstFailure::default(), &mut part).err();
        // The ninth recorded line (the header is not recorded) stops it.
        assert_eq!((part.marks.len(), part.lines), (9, 10));
        assert!(matches!(part.err, Some(Fault::Line(_))));
        // The merge reports the first duplicate, as an uncapped scan does.
        let one = scan_text(&path, &[0, u64::MAX]).unwrap_err().to_string();
        assert_eq!(one, "malformed trace (line 4): duplicate section for warp 0/0");
        assert_eq!(merge(vec![part]).unwrap_err().to_string(), one);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn range_splits_match_one_range_on_cut_and_flipped_files() {
        let good = SPELLINGS.as_bytes();
        for cut in 0..good.len() {
            assert_splits_agree(&good[..cut], 7);
        }
        let alphabet = b"0123456789 ,-+#\n\r\tlaustdwrigp\x00\xff\x80";
        let mut x: u64 = 0x5eed;
        let mut next = |n: usize| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize % n
        };
        for _ in 0..100 {
            let mut bad = good.to_vec();
            for _ in 0..1 + next(3) {
                bad[next(good.len())] = alphabet[next(alphabet.len())];
            }
            assert_splits_agree(&bad, 4);
        }
    }

    /// A later range stops once an earlier one has failed, in both formats.
    #[test]
    fn ranges_stop_after_an_earlier_failure() {
        let path = tmp("stop.trace");
        write_text_trace(&path, &Toy { reps: 50 }).unwrap();
        let failed = FirstFailure::default();
        failed.fail(0);
        let mut part = Part::default();
        scan_part(&path, 1, u64::MAX, MAX_MARKS, &failed, &mut part).unwrap_or_else(|_| panic!());
        assert_eq!((part.lines, part.marks.len()), (0, 0));
        // A range that starts at the failed one is not stopped by it.
        scan_part(&path, 0, u64::MAX, MAX_MARKS, &failed, &mut part).unwrap_or_else(|_| panic!());
        assert!(part.lines > 0);
        let blocks = [Block { off: 13, len: 9, cta: 0, warp: 0 }];
        std::fs::write(&path, [0xff; 40]).unwrap();
        assert!(check_payloads(&path, &blocks, || true).is_ok());
        assert!(check_payloads(&path, &blocks, || false).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Index binary `bytes` as one range, then split it into two ranges
    /// at every `every`-th byte offset and into three with the second
    /// cut 0, 1, 9 and 40 bytes further on: every split must give the
    /// same grid, spans and error text as one range.
    fn assert_bin_splits_agree(bytes: &[u8], every: usize) {
        let path = tmp("bin-split.trace");
        std::fs::write(&path, bytes).unwrap();
        let scan = |cuts: &[u64]| scan_binary(&path, cuts).map_err(|e| e.to_string());
        let one = scan(&[0, u64::MAX]);
        let len = bytes.len() as u64;
        for a in (0..=len).step_by(every) {
            assert_eq!(scan(&[0, a, u64::MAX]), one, "cut at {a}");
            for b in [a, a + 1, a + 9, a + 40].into_iter().filter(|&b| b <= len) {
                assert_eq!(scan(&[0, a, b, u64::MAX]), one, "cuts at {a} and {b}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// The Toy kernel in the binary format, and its blocks' header offsets.
    fn toy_binary(reps: usize) -> (Vec<u8>, Vec<usize>) {
        let path = tmp("toy.bin");
        write_binary_trace(&path, &Toy { reps }).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut heads = vec![13];
        while let Some(&h) = heads.last().filter(|&&h| h + 16 <= bytes.len()) {
            let len = u64::from_le_bytes(bytes[h + 8..h + 16].try_into().unwrap()) as usize;
            heads.push(h + 16 + len);
        }
        heads.pop();
        (bytes, heads)
    }

    #[test]
    fn binary_range_splits_match_one_range() {
        let (good, heads) = toy_binary(2);
        assert_eq!(heads.len(), 4);
        assert_bin_splits_agree(&good, 5);
        // A payload length that lies, in the first and in the last block.
        for &h in [heads[0], heads[3]].iter() {
            for lie in [1, 9, u64::MAX - 8] {
                let mut bad = good.clone();
                let len = u64::from_le_bytes(bad[h + 8..h + 16].try_into().unwrap());
                bad[h + 8..h + 16].copy_from_slice(&len.wrapping_add(lie).to_le_bytes());
                assert_bin_splits_agree(&bad, 17);
            }
        }
        // Duplicate and out-of-grid blocks, with a bad record before them.
        for (h, cta, warp) in [(heads[2], 0, 0), (heads[3], 1, 0), (heads[1], 2, 0), (heads[3], 0, 7)] {
            let mut bad = good.clone();
            bad[h..h + 4].copy_from_slice(&(cta as u32).to_le_bytes());
            bad[h + 4..h + 8].copy_from_slice(&(warp as u32).to_le_bytes());
            assert_bin_splits_agree(&bad, 17);
            bad[heads[0] + 16] = 9; // unknown op tag in the first block
            assert_bin_splits_agree(&bad, 17);
        }
    }

    #[test]
    fn binary_range_splits_match_one_range_on_cut_and_flipped_files() {
        // A 2×2 grid of short blocks, one of them empty.
        let mut good = BIN_MAGIC.to_vec();
        good.push(BIN_VERSION);
        good.extend([2u32, 2].iter().flat_map(|d| d.to_le_bytes()));
        let blocks = [
            (0u32, 0u32, vec![TraceOp::alu(7, 3), TraceOp::store(1, vec![64]).with_srcs([2])]),
            (1, 1, vec![TraceOp::load(4, 5, vec![128, 256])]),
            (1, 0, vec![]),
            (0, 1, vec![TraceOp::alu(9, 1).with_dst(3)]),
        ];
        for (cta, warp, ops) in blocks {
            let mut payload = Vec::new();
            ops.iter().for_each(|op| encode_bin_op(op, &mut payload));
            good.extend(cta.to_le_bytes().into_iter().chain(warp.to_le_bytes()));
            good.extend((payload.len() as u64).to_le_bytes());
            good.extend(payload);
        }
        assert!(scan_binary_ok(&good));
        for cut in 0..good.len() {
            assert_bin_splits_agree(&good[..cut], 7);
        }
        let mut x: u64 = 0xb1a5;
        let mut next = |n: usize| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize % n
        };
        for _ in 0..150 {
            let mut bad = good.clone();
            for _ in 0..1 + next(3) {
                bad[next(good.len())] = [0, 1, 2, 3, 33, 64, 0xff][next(7)];
            }
            assert_bin_splits_agree(&bad, 4);
        }
    }

    fn scan_binary_ok(bytes: &[u8]) -> bool {
        let path = tmp("bin-ok.trace");
        std::fs::write(&path, bytes).unwrap();
        let ok = scan_binary(&path, &[0, u64::MAX]).is_ok();
        std::fs::remove_file(&path).ok();
        ok
    }

    /// The op-line grammar of the module docs, written the slow way:
    /// split at ASCII whitespace, fields read with `str::parse`. Returns
    /// the op, `None` for a blank or `#` line, or the error text.
    fn reference(line: &[u8]) -> Result<Option<TraceOp>, String> {
        let t = line.trim_ascii();
        let fail = |msg: String| {
            Err(format!("malformed trace (op line `{}`): {msg}", String::from_utf8_lossy(t)))
        };
        let mut toks = t.split(u8::is_ascii_whitespace).filter(|tok| !tok.is_empty());
        let kw = toks.next().unwrap_or_default();
        let usage = match kw {
            b"alu" => "expected `alu pc latency active dst s0 s1`",
            b"ld" => "expected `ld pc dst s0 s1 addr,addr,...`",
            b"st" => "expected `st pc s0 s1 addr,addr,...`",
            _ => {
                return match std::str::from_utf8(line).map(str::trim) {
                    Err(_) => fail("non-UTF-8 bytes".into()),
                    Ok(s) if s.is_empty() || s.starts_with('#') => Ok(None),
                    Ok(_) => fail(format!("unknown keyword `{}`", String::from_utf8_lossy(kw))),
                }
            }
        };
        fn parse<T: std::str::FromStr>(tok: &[u8], what: &str) -> Result<T, String> {
            let v = std::str::from_utf8(tok).ok().and_then(|s| s.parse().ok());
            v.ok_or_else(|| format!("invalid {what} `{}`", tok.escape_ascii()))
        }
        let mut field = || toks.next().ok_or_else(|| usage.to_string());
        let op = (|| {
            let pc = parse(field()?, "number")?;
            let alu = if kw == b"alu" {
                let (latency, active) = (parse(field()?, "number")?, field()?);
                let active: u8 = parse(active, "active-lane count")?;
                if !(1..=32).contains(&active) {
                    return Err("active lanes must be 1..=32".to_string());
                }
                Some((latency, active))
            } else {
                None
            };
            let mut reg = || -> Result<Reg, String> {
                match field()? {
                    b"-" => Ok(NO_REG),
                    tok => match parse::<u8>(tok, "register")? {
                        r if (r as usize) < MAX_REGS => Ok(r),
                        r => Err(format!("register {r} out of range (< {MAX_REGS})")),
                    },
                }
            };
            let dst = if kw == b"st" { NO_REG } else { reg()? };
            if kw == b"ld" && dst == NO_REG {
                return Err("loads must write a register".to_string());
            }
            let srcs = [reg()?, reg()?];
            let kind = match alu {
                Some((latency, active)) => OpKind::Alu { latency, active },
                None => {
                    let addrs: Vec<u64> = field()?
                        .split(|&c| c == b',')
                        .map(|a| parse(a, "address"))
                        .collect::<Result<_, _>>()?;
                    if addrs.len() > 32 {
                        return Err("1..=32 lane addresses required".to_string());
                    }
                    OpKind::Mem { is_write: kw == b"st", addrs }
                }
            };
            match field() {
                Ok(_) => Err(usage.to_string()),
                Err(_) => Ok(TraceOp { pc, dst, srcs, kind }),
            }
        })();
        op.map(Some).or_else(fail)
    }

    /// The decoder's view of one line, in either mode, as `reference`
    /// reports it; a validated op line reads as the reference's op.
    fn decoded(rest: &[u8], at_end: bool, build: bool, want: &Option<TraceOp>) -> Result<Option<TraceOp>, String> {
        let mut op = None;
        let out = if build { Some(&mut op) } else { None };
        match next_line(rest, at_end, out).map_err(|e| e.to_string())? {
            Some((Line::Op, _)) => Ok(if build { op } else { want.clone() }),
            Some((Line::Other(line), _)) => match not_op(line) {
                Ok(()) => Ok(None),
                Err(bad) => Err(bad.error(line).to_string()),
            },
            Some((Line::Bad(e), _)) => Err(e.to_string()),
            None => Err("incomplete".into()),
        }
    }

    #[test]
    fn decoder_matches_the_reference_grammar() {
        let mut x: u64 = 0xdec0de;
        let mut next = |n: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 24) % n
        };
        let seps: [&[u8]; 7] = [b" ", b" ", b" ", b"\t", b"  ", b" \r ", b"\x0c"];
        let nums: [&[u8]; 12] = [
            b"0", b"7", b"31", b"63", b"64", b"255", b"+5", b"0042", b"4294967295",
            b"4294967296", b"18446744073709551615", b"000000000000000000000000000099",
        ];
        let junk = b"0123456789 ,-+#\t\r\x0b\x0claustdwrigp\x00\xff\x80\xe3";
        let (mut ops, mut errs) = (0, 0);
        for case in 0..20_000 {
            let mut line: Vec<u8> = Vec::new();
            if next(8) == 0 {
                line.extend(seps[next(7) as usize]);
            }
            let kw = next(5) as usize;
            line.extend([&b"alu"[..], b"ld", b"st", b"#", b"alux"][kw]);
            // The fields the keyword takes: N number, A active count,
            // R register, L lanes; now and then one too few or too many.
            let mut shape: Vec<u8> = [&b"NNARRR"[..], b"NRRRL", b"NRRL", b"NN", b"NNARRR"][kw].to_vec();
            match next(8) {
                0 => _ = shape.pop(),
                1 => shape.push(b'N'),
                _ => {}
            }
            for kind in shape {
                line.extend(seps[next(7) as usize]);
                let reg: [&[u8]; 6] = [b"-", b"-", b"0", b"5", b"63", b"64"];
                match kind {
                    b'A' => line.extend([&b"1"[..], b"17", b"32", b"+32", b"0", b"33"][next(6) as usize]),
                    b'R' => line.extend(reg[next(6) as usize]),
                    b'L' => {
                        for lane in 0..1 + next(36) {
                            if lane > 0 {
                                line.push(b',');
                            }
                            line.extend(nums[next(12) as usize]);
                        }
                    }
                    _ => line.extend(nums[next(12) as usize]),
                }
            }
            if next(6) == 0 {
                line.extend(seps[next(7) as usize]);
            }
            if case % 2 == 1 {
                for _ in 0..1 + next(2) {
                    let at = next(line.len() as u64 + 1) as usize;
                    line.insert(at, junk[next(junk.len() as u64) as usize]);
                }
            }
            let want = reference(&line);
            match &want {
                Ok(Some(_)) => ops += 1,
                Err(_) => errs += 1,
                Ok(None) => {}
            }
            let shown = String::from_utf8_lossy(&line).into_owned();
            let fallback = want.clone().ok().flatten();
            // Alone, and followed by a `\n` and more bytes it must not read.
            let mut more = line.clone();
            more.extend(b"\n9 9,9 alu\n");
            for build in [false, true] {
                assert_eq!(decoded(&line, true, build, &fallback), want, "{shown:?} build={build}");
                assert_eq!(decoded(&more, false, build, &fallback), want, "{shown:?} build={build}");
            }
        }
        assert!(ops > 1_000 && errs > 5_000, "{ops} ops, {errs} errors");
    }
}
