//! countd's versioned, dependency-free line protocol.
//!
//! Everything the measurement daemon ([`crate::serve`]) says on a socket
//! or stores in its on-disk cache is defined here: request framing,
//! response framing, the per-record serialization, the canonical cell
//! identity behind the content-addressed cache key, and the network
//! [`Sink`] that streams a [`Report`]'s artifacts to a client. The
//! format is plain `\n`-terminated ASCII lines (raw artifact bytes are
//! length-prefixed), so a session is debuggable with `nc` and the cache
//! files with `less`.
//!
//! # Versioning and compatibility contract
//!
//! * Every request and response line starts with the version token
//!   [`MAGIC`] (`COUNTD/1`); on-disk cache entries start with
//!   [`CACHE_MAGIC`] (`COUNTDCACHE/1`). A peer (or cache reader) that
//!   sees any other token MUST reject the message — there is no silent
//!   cross-version parsing.
//! * Within version 1 the record field list, the grid key set, the
//!   canonical cell-identity string [`cell_key`] hashes and the
//!   [`counterlab_cpu::hash::StreamHasher`] sequence are **frozen**.
//!   Any change to any of them — adding a field, reordering, changing a
//!   hash constant — requires bumping the token to `COUNTD/2` /
//!   `COUNTDCACHE/2`. Cache keys embed the identity version, so a
//!   version bump naturally invalidates old cache entries instead of
//!   aliasing them.
//! * Decoders are strict: unknown keys, missing keys, wrong field
//!   counts and unknown enum codes are [`CoreError::Protocol`] errors,
//!   never defaults. A forward-compatible extension is a new version,
//!   not a lenient parser.
//! * The record serialization is *total*: every field that
//!   [`run_measurement`](crate::measure::run_measurement) needs to
//!   reproduce the record (including `seed` and `hz`, which the report
//!   CSV omits) is on the wire, so a decoded record is bit-identical to
//!   the original — the cache-correctness oracle depends on this.

// Serving path: a panic here kills a countd worker or a whole sweep, so every
// unwrap, expect, index or panic carries an `#[expect]` with its proof.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
// Wire and dispatch code: a silently truncated count or a catch-all arm over
// a protocol enum corrupts bytes without failing.
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
#![deny(clippy::wildcard_enum_match_arm)]

use std::io::{self, BufRead, Write};

use counterlab_cpu::hash::StreamHasher;
use counterlab_cpu::pmu::Event;
use counterlab_cpu::uarch::Processor;

use crate::benchmark::Benchmark;
use crate::config::{MeasurementConfig, OptLevel};
use crate::exec::Priority;
use crate::experiment::{
    validate_artifact_name, Artifact, ArtifactBody, ArtifactKind, Report, Sink, SinkError,
};
use crate::grid::Grid;
use crate::interface::{CountingMode, Interface};
use crate::measure::Record;
use crate::pattern::Pattern;
use crate::report;
use crate::{CoreError, Result};

/// Version token opening every protocol line. See the module docs for
/// the compatibility contract.
pub const MAGIC: &str = "COUNTD/1";

/// Version token opening every on-disk cache entry.
pub const CACHE_MAGIC: &str = "COUNTDCACHE/1";

/// Seed of the cell-key hash chain (an arbitrary constant, frozen as
/// part of format version 1).
const CELL_KEY_SEED: u64 = 0xC0DE_6121;

/// Seed of the on-disk payload checksum chain (distinct from
/// [`CELL_KEY_SEED`] so a key can never double as its own checksum).
const CACHE_SUM_SEED: u64 = 0x5EED_6121;

fn proto(msg: impl Into<String>) -> CoreError {
    CoreError::Protocol(msg.into())
}

/// Hard cap on any length-prefixed frame (artifact bytes, grid payload
/// chunks). Real artifacts are kilobytes; a peer announcing more than
/// this is corrupt or hostile, and rejecting up front keeps a bogus
/// length from turning into an unbounded allocation.
pub const MAX_FRAME_BYTES: u64 = 64 * 1024 * 1024;

/// A typed decode failure for wire values that are *structurally*
/// plausible but *numerically* untrustworthy.
///
/// Where a malformed token is a plain [`CoreError::Protocol`] parse
/// error, `WireError` captures the cases where a well-formed number
/// would previously have been truncated by an `as` cast or trusted as
/// an allocation size. Codecs reject these instead; the variants keep
/// the offending values so the error message names exactly what was
/// rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A count field does not fit in the platform's `usize`.
    CountOverflow {
        /// Which header field overflowed.
        field: &'static str,
        /// The value the peer sent.
        value: u64,
    },
    /// Grid metadata whose record count is not `cells × reps`.
    InconsistentMeta {
        /// Announced cell count.
        cells: u64,
        /// Announced repetitions per cell.
        reps: u64,
        /// Announced total record count.
        records: u64,
    },
    /// A length-prefixed frame announces more than [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// What kind of frame was being read.
        what: &'static str,
        /// The announced length.
        len: u64,
        /// The cap it exceeded.
        max: u64,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::CountOverflow { field, value } => {
                write!(f, "wire field {field}={value} does not fit in usize")
            }
            WireError::InconsistentMeta { cells, reps, records } => write!(
                f,
                "grid meta inconsistent: records={records} but cells={cells} * reps={reps}"
            ),
            WireError::FrameTooLarge { what, len, max } => {
                write!(f, "{what} frame of {len} bytes exceeds the {max}-byte cap")
            }
        }
    }
}

impl WireError {
    /// Whether a call failing with this decode error is safe to retry.
    ///
    /// Every `WireError` variant describes bytes that *cannot* have come
    /// from a correct peer speaking version 1, so each is evidence of
    /// corruption or truncation in flight rather than a deterministic
    /// answer — and because measurements are pure functions of their
    /// cell identity, a retry is idempotent. All variants are therefore
    /// classified retryable (the match stays exhaustive so a future
    /// variant forces a fresh classification).
    pub fn is_retryable(&self) -> bool {
        match self {
            WireError::CountOverflow { .. }
            | WireError::InconsistentMeta { .. }
            | WireError::FrameTooLarge { .. } => true,
        }
    }
}

impl From<WireError> for CoreError {
    fn from(e: WireError) -> CoreError {
        CoreError::Protocol(e.to_string())
    }
}

/// Checked `u64 → usize` for wire counts; rejects with
/// [`WireError::CountOverflow`] instead of truncating.
fn to_count(field: &'static str, value: u64) -> Result<usize> {
    usize::try_from(value).map_err(|_| WireError::CountOverflow { field, value }.into())
}

// ---------------------------------------------------------------------------
// Record serialization
// ---------------------------------------------------------------------------

/// Serializes one [`Record`] as a single `\n`-terminated line.
///
/// Version-1 field order (comma-separated):
/// `processor,interface,pattern,opt_level,counters,tsc,mode,event,seed,hz,bench,bench_iters,measured,expected`.
/// Unlike the report CSV this includes `seed` and `hz`: the line carries
/// the record's complete identity, so decoding reproduces it bit-exactly.
/// Allocates a fresh `String`; loops should append with
/// [`encode_record_into`] instead.
pub fn encode_record(record: &Record) -> String {
    let mut line = String::with_capacity(report::LINE_CAPACITY);
    encode_record_into(&mut line, record);
    line
}

/// Appends the [`encode_record`] line of `record` to `out`, without
/// `core::fmt` (the decimal writer of [`report::write_csv_line`]).
pub fn encode_record_into(out: &mut String, record: &Record) {
    let c = &record.config;
    for code in [c.processor.code(), c.interface.code(), c.pattern.code()] {
        out.push_str(code);
        out.push(',');
    }
    report::push_u64(out, c.opt_level.level());
    out.push(',');
    report::push_usize(out, c.counters);
    out.push_str(if c.tsc_on { ",1," } else { ",0," });
    out.push_str(c.mode.label());
    out.push(',');
    out.push_str(c.event.name());
    out.push(',');
    report::push_u64(out, c.seed);
    out.push(',');
    report::push_u64(out, u64::from(c.hz));
    out.push(',');
    out.push_str(record.benchmark.name());
    out.push(',');
    report::push_u64(out, record.benchmark.iterations());
    out.push(',');
    report::push_u64(out, record.measured);
    out.push(',');
    report::push_u64(out, record.expected);
    out.push('\n');
}

/// Decodes one line produced by [`encode_record`] (trailing newline
/// optional).
///
/// # Errors
///
/// [`CoreError::Protocol`] on a wrong field count or any unparsable
/// field.
pub fn decode_record(line: &str) -> Result<Record> {
    let line = line.trim_end_matches('\n');
    // The fields land in a stack array, not a `Vec`. A closure pattern,
    // because `split(',')`'s memchr-based searcher costs more than the
    // parsing on fields this short.
    let comma = |c: char| c == ',';
    let mut fields = [""; 14];
    let mut count = 0;
    for field in line.split(comma) {
        if let Some(slot) = fields.get_mut(count) {
            *slot = field;
        }
        count += 1;
    }
    if count != fields.len() {
        return Err(proto(format!(
            "record line has {count} fields, expected 14: {line:?}"
        )));
    }
    let [processor, interface, pattern, opt_level, counters, tsc, mode, event, seed, hz, bench, bench_iters, measured, expected] =
        fields;
    let config = MeasurementConfig {
        processor: parse_processor(processor)?,
        interface: parse_interface(interface)?,
        pattern: parse_pattern(pattern)?,
        opt_level: parse_opt_level(opt_level)?,
        counters: parse_num::<usize>("counters", counters)?,
        tsc_on: parse_bool01("tsc", tsc)?,
        mode: parse_mode(mode)?,
        event: parse_event(event)?,
        seed: parse_num::<u64>("seed", seed)?,
        hz: parse_num::<u32>("hz", hz)?,
    };
    Ok(Record {
        config,
        benchmark: parse_benchmark(bench, parse_num::<u64>("bench_iters", bench_iters)?)?,
        measured: parse_num::<u64>("measured", measured)?,
        expected: parse_num::<u64>("expected", expected)?,
    })
}

fn parse_processor(code: &str) -> Result<Processor> {
    Processor::ALL
        .into_iter()
        .find(|p| p.code() == code)
        .ok_or_else(|| proto(format!("unknown processor code {code:?}")))
}

fn parse_interface(code: &str) -> Result<Interface> {
    Interface::from_code(code).ok_or_else(|| proto(format!("unknown interface code {code:?}")))
}

fn parse_pattern(code: &str) -> Result<Pattern> {
    Pattern::from_code(code).ok_or_else(|| proto(format!("unknown pattern code {code:?}")))
}

fn parse_opt_level(digit: &str) -> Result<OptLevel> {
    // The encoder writes one decimal digit; compare numerically rather
    // than formatting every level.
    OptLevel::ALL
        .into_iter()
        .find(|o| digit.len() == 1 && digit.parse() == Ok(o.level()))
        .ok_or_else(|| proto(format!("unknown optimization level {digit:?}")))
}

fn parse_mode(label: &str) -> Result<CountingMode> {
    CountingMode::ALL
        .into_iter()
        .find(|m| m.label() == label)
        .ok_or_else(|| proto(format!("unknown counting mode {label:?}")))
}

fn parse_event(name: &str) -> Result<Event> {
    Event::ALL
        .into_iter()
        .find(|e| e.name() == name)
        .ok_or_else(|| proto(format!("unknown event {name:?}")))
}

fn parse_bool01(what: &str, s: &str) -> Result<bool> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(proto(format!("{what} must be 0 or 1, got {s:?}"))),
    }
}

fn parse_num<T: std::str::FromStr>(what: &str, s: &str) -> Result<T> {
    s.parse()
        .map_err(|_| proto(format!("bad {what} value {s:?}")))
}

fn parse_benchmark(name: &str, iters: u64) -> Result<Benchmark> {
    match name {
        "null" if iters == 0 => Ok(Benchmark::Null),
        "null" => Err(proto(format!("null benchmark with {iters} iterations"))),
        "loop" => Ok(Benchmark::Loop { iters }),
        "arraywalk" => Ok(Benchmark::ArrayWalk { iters }),
        "pointerchase" => Ok(Benchmark::PointerChase { iters }),
        "branchy" => Ok(Benchmark::Branchy { iters }),
        "storestream" => Ok(Benchmark::StoreStream { iters }),
        "syscallheavy" => Ok(Benchmark::SyscallHeavy { iters }),
        "nestedloop" => Ok(Benchmark::NestedLoop { iters }),
        _ => Err(proto(format!("unknown benchmark {name:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Grid serialization
// ---------------------------------------------------------------------------

/// Serializes a [`Grid`] specification as one `key=value` line (no
/// newline). List values are comma-joined in sweep order; the version-1
/// key set is exactly the one [`decode_grid`] requires.
pub fn encode_grid(grid: &Grid) -> String {
    fn join<T, F: Fn(&T) -> String>(items: &[T], f: F) -> String {
        items.iter().map(f).collect::<Vec<_>>().join(",")
    }
    format!(
        "procs={} ifaces={} patterns={} opts={} counters={} tsc={} modes={} event={} \
         bench={}:{} reps={} base_seed={} hz={} boot={}",
        join(&grid.processors, |p| p.code().to_string()),
        join(&grid.interfaces, |i| i.code().to_string()),
        join(&grid.patterns, |p| p.code().to_string()),
        join(&grid.opt_levels, |o| o.level().to_string()),
        join(&grid.counter_counts, usize::to_string),
        join(&grid.tsc_settings, |t| u8::from(*t).to_string()),
        join(&grid.modes, |m| m.label().to_string()),
        grid.event.name(),
        grid.benchmark.name(),
        grid.benchmark.iterations(),
        grid.reps,
        grid.base_seed,
        grid.hz,
        if grid.fresh_boot { "fresh" } else { "session" },
    )
}

/// Decodes a line produced by [`encode_grid`].
///
/// Strict: every version-1 key must appear exactly once and no other
/// key may appear.
///
/// # Errors
///
/// [`CoreError::Protocol`] on missing/duplicate/unknown keys or
/// unparsable values.
pub fn decode_grid(line: &str) -> Result<Grid> {
    const KEYS: [&str; 13] = [
        "procs", "ifaces", "patterns", "opts", "counters", "tsc", "modes", "event", "bench",
        "reps", "base_seed", "hz", "boot",
    ];
    let mut values: Vec<Option<&str>> = vec![None; KEYS.len()];
    for token in line.trim_end_matches('\n').split(' ') {
        if token.is_empty() {
            continue;
        }
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| proto(format!("grid token without '=': {token:?}")))?;
        let slot = KEYS
            .iter()
            .zip(values.iter_mut())
            .find_map(|(k, v)| (*k == key).then_some(v))
            .ok_or_else(|| proto(format!("unknown grid key {key:?}")))?;
        if slot.is_some() {
            return Err(proto(format!("duplicate grid key {key:?}")));
        }
        *slot = Some(value);
    }
    let get = |key: &str| -> Result<&str> {
        KEYS.iter()
            .zip(&values)
            .find_map(|(k, v)| (*k == key).then_some(*v))
            .flatten()
            .ok_or_else(|| proto(format!("missing grid key {key:?}")))
    };
    fn list<T>(value: &str, parse: impl Fn(&str) -> Result<T>) -> Result<Vec<T>> {
        if value.is_empty() {
            return Ok(Vec::new());
        }
        value.split(',').map(parse).collect()
    }
    let (bench_name, bench_iters) = {
        let raw = get("bench")?;
        let (name, iters) = raw
            .split_once(':')
            .ok_or_else(|| proto(format!("bench must be name:iters, got {raw:?}")))?;
        (name, parse_num::<u64>("bench iters", iters)?)
    };
    Ok(Grid {
        processors: list(get("procs")?, parse_processor)?,
        interfaces: list(get("ifaces")?, parse_interface)?,
        patterns: list(get("patterns")?, parse_pattern)?,
        opt_levels: list(get("opts")?, parse_opt_level)?,
        counter_counts: list(get("counters")?, |s| parse_num::<usize>("counters", s))?,
        tsc_settings: list(get("tsc")?, |s| parse_bool01("tsc", s))?,
        modes: list(get("modes")?, parse_mode)?,
        event: parse_event(get("event")?)?,
        benchmark: parse_benchmark(bench_name, bench_iters)?,
        reps: parse_num::<usize>("reps", get("reps")?)?,
        base_seed: parse_num::<u64>("base_seed", get("base_seed")?)?,
        hz: parse_num::<u32>("hz", get("hz")?)?,
        fresh_boot: match get("boot")? {
            "fresh" => true,
            "session" => false,
            other => return Err(proto(format!("boot must be fresh|session, got {other:?}"))),
        },
    })
}

// ---------------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------------

/// The content-addressed cache key: [`StreamHasher`] over the canonical
/// cell-identity text. Two requests share a key exactly when their cells
/// must produce byte-identical record blocks.
///
/// The identity is everything that determines the cell's serialized
/// record block, and nothing else: the cell's configuration (the `seed`
/// field excluded — the canonical cell carries `seed = 0` and
/// per-repetition seeds derive from `base_seed`), the benchmark, the
/// repetition count, the base seed, and the boot policy (a proven no-op
/// on the bytes, included so the two engines never share an entry
/// anyway). The leading `cell/1` token versions the identity itself.
pub fn cell_key(
    cell: &MeasurementConfig,
    benchmark: Benchmark,
    reps: usize,
    base_seed: u64,
    fresh_boot: bool,
) -> u64 {
    let mut h = StreamHasher::new(CELL_KEY_SEED);
    // The identity text streams into the hasher, never built as a string;
    // hashing cannot fail.
    let _ = write_cell_identity(&mut h, cell, benchmark, reps, base_seed, fresh_boot);
    h.finish()
}

/// The one definition of the cell-identity text [`cell_key`] hashes,
/// written to `out` piece by piece without `core::fmt` (whose
/// per-argument cost was most of a key).
fn write_cell_identity<W: std::fmt::Write>(
    out: &mut W,
    cell: &MeasurementConfig,
    benchmark: Benchmark,
    reps: usize,
    base_seed: u64,
    fresh_boot: bool,
) -> std::fmt::Result {
    let num = |out: &mut W, n: u64| {
        let mut buf = [0u8; 20];
        let digits = report::decimal_digits(n, &mut buf);
        // Decimal digits are ASCII, so this never fails.
        out.write_str(std::str::from_utf8(digits).map_err(|_| std::fmt::Error)?)
    };
    out.write_str("cell/1 proc=")?;
    out.write_str(cell.processor.code())?;
    out.write_str(" iface=")?;
    out.write_str(cell.interface.code())?;
    out.write_str(" pattern=")?;
    out.write_str(cell.pattern.code())?;
    out.write_str(" opt=")?;
    num(out, cell.opt_level.level())?;
    out.write_str(" counters=")?;
    num(out, cell.counters as u64)?;
    out.write_str(if cell.tsc_on { " tsc=1 mode=" } else { " tsc=0 mode=" })?;
    out.write_str(cell.mode.label())?;
    out.write_str(" event=")?;
    out.write_str(cell.event.name())?;
    out.write_str(" hz=")?;
    num(out, u64::from(cell.hz))?;
    out.write_str(" bench=")?;
    out.write_str(benchmark.name())?;
    out.write_str(":")?;
    num(out, benchmark.iterations())?;
    out.write_str(" reps=")?;
    num(out, reps as u64)?;
    out.write_str(" base_seed=")?;
    num(out, base_seed)?;
    out.write_str(if fresh_boot { " boot=fresh" } else { " boot=session" })
}

/// Checksum of an on-disk cache payload (stored in the entry header and
/// verified on read — the cache-poisoning defense).
pub fn cache_checksum(payload: &str) -> u64 {
    let mut h = StreamHasher::new(CACHE_SUM_SEED);
    h.write_str(payload);
    h.finish()
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Run (or serve from cache) a whole grid.
    Grid {
        /// The requested grid.
        grid: Grid,
        /// Scheduling class on the shared pool.
        priority: Priority,
    },
    /// Report serving statistics.
    Stats,
    /// Liveness check.
    Ping,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
    /// Run a registered experiment and stream its artifacts.
    Experiment {
        /// The experiment id (e.g. `"table1"`).
        id: String,
        /// Scale preset name (e.g. `"quick"`).
        scale: String,
    },
}

fn priority_token(priority: Priority) -> &'static str {
    match priority {
        Priority::Interactive => "interactive",
        Priority::Bulk => "bulk",
    }
}

/// Writes a grid request: a header line and the grid line.
///
/// # Errors
///
/// Socket I/O errors.
pub fn write_grid_request<W: Write>(w: &mut W, grid: &Grid, priority: Priority) -> io::Result<()> {
    writeln!(w, "{MAGIC} GRID pri={}", priority_token(priority))?;
    writeln!(w, "{}", encode_grid(grid))
}

/// Writes a body-less request (`STATS`, `PING` or `SHUTDOWN`).
///
/// # Errors
///
/// Socket I/O errors.
pub fn write_plain_request<W: Write>(w: &mut W, verb: &str) -> io::Result<()> {
    writeln!(w, "{MAGIC} {verb}")
}

/// Writes an experiment request. The frozen grammar still carries a
/// `mode=` key; this client always writes `mode=batch`.
///
/// # Errors
///
/// Socket I/O errors.
pub fn write_experiment_request<W: Write>(w: &mut W, id: &str, scale: &str) -> io::Result<()> {
    writeln!(w, "{MAGIC} EXPERIMENT id={id} scale={scale} mode=batch")
}

/// Reads and parses one request (the server side of the handshake).
///
/// # Errors
///
/// [`CoreError::Serve`] on socket I/O failure, [`CoreError::Protocol`]
/// on anything malformed.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request> {
    let header = read_line(r)?;
    let rest = header
        .strip_prefix(MAGIC)
        .ok_or_else(|| proto(format!("request does not start with {MAGIC}: {header:?}")))?
        .trim_start();
    let (verb, args) = rest.split_once(' ').unwrap_or((rest, ""));
    match verb {
        "GRID" => {
            let priority = match kv_get(args, "pri")?.as_str() {
                "interactive" => Priority::Interactive,
                "bulk" => Priority::Bulk,
                other => return Err(proto(format!("unknown priority {other:?}"))),
            };
            let grid = decode_grid(&read_line(r)?)?;
            Ok(Request::Grid { grid, priority })
        }
        "STATS" => Ok(Request::Stats),
        "PING" => Ok(Request::Ping),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "EXPERIMENT" => {
            let (id, scale) = (kv_get(args, "id")?, kv_get(args, "scale")?);
            // `mode=` stays in the frozen grammar: both values it ever
            // allowed are accepted, and the one statistics path answers.
            match kv_get(args, "mode")?.as_str() {
                "streaming" | "batch" => Ok(Request::Experiment { id, scale }),
                other => Err(proto(format!("unknown engine mode {other:?}"))),
            }
        }
        _ => Err(proto(format!("unknown request verb {verb:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Per-request grid metadata carried on the response header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridMeta {
    /// Valid cells in the request.
    pub cells: usize,
    /// Repetitions per cell.
    pub reps: usize,
    /// Record lines in the body (`cells × reps`).
    pub records: usize,
    /// Cells answered from the cache (memory or disk).
    pub hits: usize,
    /// Cells computed for this request.
    pub misses: usize,
}

/// Writes a grid response header; the caller then streams the record
/// lines and the `.` terminator line.
///
/// # Errors
///
/// Socket I/O errors.
pub fn write_grid_response_header<W: Write>(w: &mut W, meta: &GridMeta) -> io::Result<()> {
    writeln!(
        w,
        "{MAGIC} OK kind=grid cells={} reps={} records={} hits={} misses={}",
        meta.cells, meta.reps, meta.records, meta.hits, meta.misses
    )
}

/// Writes an error response line. `error`'s display is flattened to one
/// line.
///
/// # Errors
///
/// Socket I/O errors.
pub fn write_error_response<W: Write>(w: &mut W, error: &dyn std::fmt::Display) -> io::Result<()> {
    let msg = error.to_string().replace('\n', " ");
    writeln!(w, "{MAGIC} ERR {msg}")
}

/// Writes a `BUSY` load-shedding response line: the server is healthy
/// but declined the request (connection cap, saturated pool, request
/// deadline). The peer's response reader turns it into a typed,
/// retryable [`CoreError::Busy`]. `reason` is flattened to one line.
///
/// # Errors
///
/// Socket I/O errors.
pub fn write_busy_response<W: Write>(w: &mut W, reason: &str) -> io::Result<()> {
    let flat = reason.replace(['\n', '\r'], " ");
    writeln!(w, "{MAGIC} BUSY retryable=true reason={flat}")
}

/// A parsed `OK` response header: the `kind` plus its key-value fields.
#[derive(Debug)]
pub struct ResponseHead {
    /// The response kind (`grid`, `stats`, `pong`, `bye`, `report`).
    pub kind: String,
    fields: Vec<(String, String)>,
}

impl ResponseHead {
    /// The value of a header field.
    ///
    /// # Errors
    ///
    /// [`CoreError::Protocol`] when absent.
    pub fn field(&self, key: &str) -> Result<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| proto(format!("response header missing {key:?}")))
    }

    /// A numeric header field.
    ///
    /// # Errors
    ///
    /// [`CoreError::Protocol`] when absent or non-numeric.
    pub fn num(&self, key: &str) -> Result<u64> {
        parse_num("response field", self.field(key)?)
    }

    /// The grid metadata of a `kind=grid` header.
    ///
    /// # Errors
    ///
    /// [`CoreError::Protocol`] when fields are absent or non-numeric,
    /// when a count does not fit in `usize` ([`WireError::CountOverflow`])
    /// or when `records != cells * reps`
    /// ([`WireError::InconsistentMeta`]) — a server that miscounts its
    /// own payload cannot be trusted to frame it either.
    pub fn grid_meta(&self) -> Result<GridMeta> {
        let cells = self.num("cells")?;
        let reps = self.num("reps")?;
        let records = self.num("records")?;
        let consistent = cells
            .checked_mul(reps)
            .is_some_and(|expected| expected == records);
        if !consistent {
            return Err(WireError::InconsistentMeta { cells, reps, records }.into());
        }
        Ok(GridMeta {
            cells: to_count("cells", cells)?,
            reps: to_count("reps", reps)?,
            records: to_count("records", records)?,
            hits: to_count("hits", self.num("hits")?)?,
            misses: to_count("misses", self.num("misses")?)?,
        })
    }
}

/// Reads a response header line. A server-reported `ERR` becomes a
/// [`CoreError::Protocol`] carrying the server's message.
///
/// # Errors
///
/// [`CoreError::Serve`] on socket I/O failure, [`CoreError::Protocol`]
/// on malformed headers or server-reported errors.
pub fn read_response_head<R: BufRead>(r: &mut R) -> Result<ResponseHead> {
    let line = read_line(r)?;
    let rest = line
        .strip_prefix(MAGIC)
        .ok_or_else(|| proto(format!("response does not start with {MAGIC}: {line:?}")))?
        .trim_start();
    if let Some(msg) = rest.strip_prefix("ERR ") {
        return Err(proto(format!("server: {msg}")));
    }
    if let Some(shed) = rest.strip_prefix("BUSY ") {
        let reason = shed
            .strip_prefix("retryable=true reason=")
            .ok_or_else(|| proto(format!("malformed BUSY response: {line:?}")))?;
        return Err(CoreError::Busy(reason.to_string()));
    }
    let args = rest
        .strip_prefix("OK")
        .ok_or_else(|| proto(format!("response is neither OK nor ERR: {line:?}")))?
        .trim_start();
    let mut fields = Vec::new();
    for token in args.split(' ').filter(|t| !t.is_empty()) {
        let (k, v) = token
            .split_once('=')
            .ok_or_else(|| proto(format!("response token without '=': {token:?}")))?;
        fields.push((k.to_string(), v.to_string()));
    }
    let kind = fields
        .iter()
        .find(|(k, _)| k == "kind")
        .map(|(_, v)| v.clone())
        .ok_or_else(|| proto("response header missing kind".to_string()))?;
    Ok(ResponseHead { kind, fields })
}

/// Serving statistics, as carried on a `kind=stats` response header.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Total requests handled (all verbs).
    pub requests: u64,
    /// Grid requests handled.
    pub grids: u64,
    /// Cells answered from the in-memory cache tier.
    pub hits: u64,
    /// Cells computed (cache misses).
    pub misses: u64,
    /// Cells answered from the on-disk tier (also counted in `hits`).
    pub disk_hits: u64,
    /// Corrupted on-disk entries detected and discarded.
    pub poisoned: u64,
    /// Entries currently resident in the memory tier.
    pub mem_entries: u64,
    /// Bytes currently resident in the memory tier.
    pub mem_bytes: u64,
    /// Worker threads in the shared pool.
    pub workers: u64,
}

impl ServeStats {
    /// Field list, frozen as part of format version 1.
    const FIELDS: [&'static str; 9] = [
        "requests",
        "grids",
        "hits",
        "misses",
        "disk_hits",
        "poisoned",
        "mem_entries",
        "mem_bytes",
        "workers",
    ];

    fn values(&self) -> [u64; 9] {
        [
            self.requests,
            self.grids,
            self.hits,
            self.misses,
            self.disk_hits,
            self.poisoned,
            self.mem_entries,
            self.mem_bytes,
            self.workers,
        ]
    }

    /// Writes the `kind=stats` response header line.
    ///
    /// # Errors
    ///
    /// Socket I/O errors.
    pub fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write!(w, "{MAGIC} OK kind=stats")?;
        for (key, value) in Self::FIELDS.iter().zip(self.values()) {
            write!(w, " {key}={value}")?;
        }
        writeln!(w)
    }

    /// Extracts the statistics from a parsed `kind=stats` header.
    ///
    /// # Errors
    ///
    /// [`CoreError::Protocol`] on missing or non-numeric fields.
    pub fn from_head(head: &ResponseHead) -> Result<Self> {
        let mut values = [0u64; 9];
        for (slot, key) in values.iter_mut().zip(Self::FIELDS) {
            *slot = head.num(key)?;
        }
        let [requests, grids, hits, misses, disk_hits, poisoned, mem_entries, mem_bytes, workers] =
            values;
        Ok(ServeStats {
            requests,
            grids,
            hits,
            misses,
            disk_hits,
            poisoned,
            mem_entries,
            mem_bytes,
            workers,
        })
    }
}

/// Reads one `\n`-terminated line, without the newline. EOF is an error
/// (the protocol always knows when more is expected).
///
/// The [`MAX_FRAME_BYTES`] cap is enforced *incrementally* via a
/// [`std::io::Read::take`] adapter: a peer streaming an endless
/// newline-free line is cut off at the cap with
/// [`WireError::FrameTooLarge`] instead of ballooning the buffer first
/// and checking after. Shared with `serve`'s body reader so every line
/// read in the protocol is bounded the same way.
pub(crate) fn read_line<R: BufRead>(r: &mut R) -> Result<String> {
    use std::io::Read;
    let mut buf = Vec::new();
    let n = r
        .by_ref()
        .take(MAX_FRAME_BYTES.saturating_add(1))
        .read_until(b'\n', &mut buf)
        .map_err(|e| CoreError::Serve(format!("read: {e}")))?;
    if n == 0 {
        return Err(proto("unexpected end of stream".to_string()));
    }
    let ended = buf.last() == Some(&b'\n');
    if ended {
        buf.pop();
    }
    let len = u64::try_from(buf.len()).unwrap_or(u64::MAX);
    if !ended && len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge {
            what: "line",
            len,
            max: MAX_FRAME_BYTES,
        }
        .into());
    }
    String::from_utf8(buf).map_err(|_| proto("line is not valid UTF-8".to_string()))
}

// ---------------------------------------------------------------------------
// Artifact framing (experiment responses)
// ---------------------------------------------------------------------------

/// Row-chunk flush threshold of [`WireSink`]: rows buffer locally and
/// ship as length-prefixed frames of roughly this size.
const ROW_CHUNK_BYTES: usize = 64 * 1024;

/// A [`Sink`] that streams artifacts over a writer (a TCP stream) using
/// the version-1 artifact framing:
///
/// ```text
/// artifact kind=text name=<name> bytes=<len>
/// <len raw bytes>\n
/// artifact kind=rows name=<name>
/// chunk <len>
/// <len raw bytes>\n
/// ...
/// rows <count>
/// .
/// ```
///
/// Text bodies ship length-prefixed in one frame; row streams ship as
/// bounded chunks while the producer runs, so the peer sees data flow
/// without either side materializing the stream. Destination I/O errors
/// are stashed so the producer still runs to completion (mirroring the
/// file sinks), then reported. [`WireSink::finish`] writes the `.`
/// terminator.
pub struct WireSink<W: Write> {
    writer: W,
}

impl<W: Write> WireSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        WireSink { writer }
    }

    /// Writes the end-of-artifacts terminator, flushes, and returns the
    /// writer.
    ///
    /// # Errors
    ///
    /// Socket I/O errors.
    pub fn finish(mut self) -> io::Result<W> {
        writeln!(self.writer, ".")?;
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> Sink for WireSink<W> {
    fn consume(&mut self, artifact: Artifact) -> std::result::Result<Option<u64>, SinkError> {
        let name = artifact.name;
        if let Err(reason) = validate_artifact_name(name) {
            return Err(SinkError::BadName {
                name: name.to_string(),
                reason,
            });
        }
        let io_err = |source: io::Error| SinkError::Io { name, source };
        match artifact.body {
            ArtifactBody::Text(content) => {
                writeln!(
                    self.writer,
                    "artifact kind=text name={name} bytes={}",
                    content.len()
                )
                .map_err(io_err)?;
                self.writer.write_all(content.as_bytes()).map_err(io_err)?;
                self.writer.write_all(b"\n").map_err(io_err)?;
                Ok(None)
            }
            ArtifactBody::Rows(producer) => {
                writeln!(self.writer, "artifact kind=rows name={name}").map_err(io_err)?;
                let mut stashed: Option<io::Error> = None;
                let mut buffer = String::new();
                {
                    let writer = &mut self.writer;
                    let mut flush_chunk = |buffer: &mut String, stashed: &mut Option<io::Error>| {
                        if buffer.is_empty() || stashed.is_some() {
                            return;
                        }
                        let write = (|| -> io::Result<()> {
                            writeln!(writer, "chunk {}", buffer.len())?;
                            writer.write_all(buffer.as_bytes())?;
                            writer.write_all(b"\n")
                        })();
                        if let Err(e) = write {
                            *stashed = Some(e);
                        }
                        buffer.clear();
                    };
                    let rows = producer(&mut |line: &str| {
                        buffer.push_str(line);
                        if buffer.len() >= ROW_CHUNK_BYTES {
                            flush_chunk(&mut buffer, &mut stashed);
                        }
                    })?;
                    flush_chunk(&mut buffer, &mut stashed);
                    if let Some(source) = stashed {
                        return Err(io_err(source));
                    }
                    writeln!(writer, "rows {rows}").map_err(io_err)?;
                    Ok(Some(rows))
                }
            }
        }
    }
}

/// Streams a whole [`Report`] (header, artifacts, terminator) to `w`.
///
/// # Errors
///
/// [`SinkError`] exactly as [`Report::emit`]; the terminator write maps
/// to [`SinkError::Io`].
pub fn write_report<W: Write>(w: W, report: Report) -> std::result::Result<W, SinkError> {
    let mut sink = WireSink::new(w);
    report.emit(&mut sink)?;
    sink.finish().map_err(|source| SinkError::Io {
        name: "report terminator",
        source,
    })
}

/// One artifact decoded from the wire by [`read_artifacts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireArtifact {
    /// The artifact's (validated) name.
    pub name: String,
    /// Text or rows.
    pub kind: ArtifactKind,
    /// The full content, byte-exact.
    pub content: String,
    /// Data-record count for row streams.
    pub rows: Option<u64>,
}

/// Reads artifact frames until the `.` terminator (the client side of an
/// experiment response body).
///
/// Names are re-validated on receipt: this is the trust boundary where
/// a hostile server could smuggle `../x`, and a client that later writes
/// artifacts to disk must never see such a name succeed.
///
/// # Errors
///
/// [`CoreError::Serve`] on socket I/O failure, [`CoreError::Protocol`]
/// on malformed frames or invalid artifact names.
pub fn read_artifacts<R: BufRead>(r: &mut R) -> Result<Vec<WireArtifact>> {
    let mut artifacts = Vec::new();
    loop {
        let line = read_line(r)?;
        if line == "." {
            return Ok(artifacts);
        }
        let args = line
            .strip_prefix("artifact ")
            .ok_or_else(|| proto(format!("expected artifact frame, got {line:?}")))?;
        let name = kv_get(args, "name")?;
        if let Err(reason) = validate_artifact_name(&name) {
            return Err(proto(format!("artifact name {name:?} rejected: {reason}")));
        }
        match kv_get(args, "kind")?.as_str() {
            "text" => {
                let bytes = checked_frame_len("artifact bytes", &kv_get(args, "bytes")?)?;
                let content = read_exact_string(r, bytes)?;
                expect_newline(r)?;
                artifacts.push(WireArtifact {
                    name,
                    kind: ArtifactKind::Text,
                    content,
                    rows: None,
                });
            }
            "rows" => {
                let mut content = String::new();
                let rows = loop {
                    let frame = read_line(r)?;
                    if let Some(len) = frame.strip_prefix("chunk ") {
                        let len = checked_frame_len("chunk length", len)?;
                        content.push_str(&read_exact_string(r, len)?);
                        expect_newline(r)?;
                    } else if let Some(count) = frame.strip_prefix("rows ") {
                        break parse_num::<u64>("row count", count)?;
                    } else {
                        return Err(proto(format!("unexpected rows frame {frame:?}")));
                    }
                };
                artifacts.push(WireArtifact {
                    name,
                    kind: ArtifactKind::Rows,
                    content,
                    rows: Some(rows),
                });
            }
            other => return Err(proto(format!("unknown artifact kind {other:?}"))),
        }
    }
}

/// The value of `key=value` within a space-separated token list.
fn kv_get(args: &str, key: &str) -> Result<String> {
    args.split(' ')
        .filter_map(|t| t.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.to_string())
        .ok_or_else(|| proto(format!("missing {key:?} in {args:?}")))
}

/// Parses a length prefix and enforces [`MAX_FRAME_BYTES`] before the
/// caller allocates: a peer-supplied length is an allocation request.
fn checked_frame_len(what: &'static str, raw: &str) -> Result<usize> {
    let len = parse_num::<u64>(what, raw)?;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge { what, len, max: MAX_FRAME_BYTES }.into());
    }
    to_count(what, len)
}

fn read_exact_string<R: BufRead>(r: &mut R, len: usize) -> Result<String> {
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)
        .map_err(|e| CoreError::Serve(format!("read body: {e}")))?;
    String::from_utf8(buf).map_err(|_| proto("artifact body is not UTF-8".to_string()))
}

fn expect_newline<R: BufRead>(r: &mut R) -> Result<()> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)
        .map_err(|e| CoreError::Serve(format!("read body: {e}")))?;
    if b != [b'\n'] {
        return Err(proto("length-prefixed body not newline-terminated".to_string()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::RunOptions;
    use crate::measure::run_measurement;
    use crate::report::tests::{arb_record, record_space};
    use proptest::prelude::*;

    /// The `core::fmt` encoder [`encode_record_into`] replaced, kept as
    /// the byte-for-byte reference it must match.
    fn reference_encode_record(record: &Record) -> String {
        let c = &record.config;
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            c.processor.code(),
            c.interface.code(),
            c.pattern.code(),
            c.opt_level.level(),
            c.counters,
            u8::from(c.tsc_on),
            c.mode.label(),
            c.event.name(),
            c.seed,
            c.hz,
            record.benchmark.name(),
            record.benchmark.iterations(),
            record.measured,
            record.expected,
        )
    }

    #[test]
    fn encoder_matches_fmt_reference_over_the_record_space() {
        for record in record_space() {
            let reference = reference_encode_record(&record);
            // Appends after what the buffer already holds.
            let mut line = String::from("kept\n");
            encode_record_into(&mut line, &record);
            assert_eq!(
                line.strip_prefix("kept\n"),
                Some(reference.as_str()),
                "{record:?}"
            );
            assert_eq!(encode_record(&record), reference);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn encoder_matches_fmt_reference(record in arb_record(), reps in 1usize..4) {
            let mut block = String::new();
            for _ in 0..reps {
                encode_record_into(&mut block, &record);
            }
            prop_assert_eq!(block, reference_encode_record(&record).repeat(reps));
        }
    }

    fn sample_grid() -> Grid {
        let mut g = Grid::new(Benchmark::Null);
        g.interfaces = vec![Interface::Pm, Interface::Pc];
        g.patterns = vec![Pattern::StartRead, Pattern::ReadRead];
        g.modes = vec![CountingMode::User, CountingMode::UserKernel];
        g.reps = 2;
        g.hz = 0;
        g
    }

    /// Every zoo benchmark survives the grid codec, so `parse_benchmark`
    /// cannot drift from `Benchmark::name`.
    #[test]
    fn grid_roundtrip_covers_the_whole_zoo() {
        for benchmark in Benchmark::zoo(64) {
            let mut g = sample_grid();
            g.benchmark = benchmark;
            let line = encode_grid(&g);
            let decoded = decode_grid(&line).unwrap();
            assert_eq!(decoded.benchmark, benchmark, "{line}");
            assert_eq!(encode_grid(&decoded), line);
        }
    }

    #[test]
    fn record_roundtrip_is_bit_exact_across_the_space() {
        // Every interface × pattern × a benchmark each, plus odd seeds.
        for interface in Interface::ALL {
            for pattern in interface.supported_patterns() {
                for benchmark in [
                    Benchmark::Null,
                    Benchmark::Loop { iters: 1000 },
                    Benchmark::ArrayWalk { iters: 7 },
                    Benchmark::PointerChase { iters: 33 },
                    Benchmark::Branchy { iters: 12 },
                    Benchmark::StoreStream { iters: 64 },
                    Benchmark::SyscallHeavy { iters: 3 },
                    Benchmark::NestedLoop { iters: 9 },
                ] {
                    let cfg = MeasurementConfig::new(Processor::AthlonK8, interface)
                        .with_pattern(pattern)
                        .with_seed(0xFFFF_FFFF_FFFF_FFFF)
                        .with_hz(0);
                    let record = run_measurement(&cfg, benchmark).unwrap();
                    let line = encode_record(&record);
                    assert!(line.ends_with('\n'));
                    assert_eq!(decode_record(&line).unwrap(), record, "{line:?}");
                }
            }
        }
    }

    #[test]
    fn record_decode_rejects_malformed_lines() {
        let record = run_measurement(
            &MeasurementConfig::new(Processor::PentiumD, Interface::Pm).with_hz(0),
            Benchmark::Null,
        )
        .unwrap();
        let line = encode_record(&record);
        for bad in [
            "",
            "PD,pm",
            &line.replace("PD", "Z80"),
            &line.replace("pm,", "teleport,"),
            &format!("{},extra", line.trim_end()),
            &line.replace("null", "quine"),
        ] {
            let err = decode_record(bad).unwrap_err();
            assert!(matches!(err, CoreError::Protocol(_)), "{bad:?}: {err}");
        }
        // A null benchmark with nonzero iterations is a lie, not a value.
        let mut fields: Vec<String> =
            line.trim_end().split(',').map(str::to_string).collect();
        fields[11] = "5".to_string();
        assert!(decode_record(&fields.join(",")).is_err());
    }

    /// One field short or one too many is rejected with the total field
    /// count in the message.
    #[test]
    fn record_decode_counts_fields_on_13_and_15() {
        let record = run_measurement(
            &MeasurementConfig::new(Processor::Core2Duo, Interface::PLpc).with_hz(0),
            Benchmark::Loop { iters: 3 },
        )
        .unwrap();
        let line = encode_record(&record);
        let trimmed = line.trim_end();
        let (short, _) = trimmed.rsplit_once(',').unwrap();
        let long = format!("{trimmed},7");
        let two_long = format!("{trimmed},,");
        for (bad, n) in [(short.to_string(), 13), (long, 15), (two_long, 16)] {
            let err = decode_record(&bad).unwrap_err();
            assert_eq!(
                err.to_string(),
                proto(format!("record line has {n} fields, expected 14: {bad:?}")).to_string()
            );
        }
        // Opt levels are exactly one digit.
        for opt in ["00", "+1", "4", ""] {
            let mut fields: Vec<&str> = trimmed.split(',').collect();
            fields[3] = opt;
            assert!(decode_record(&fields.join(",")).is_err(), "{opt:?}");
        }
    }

    #[test]
    fn grid_roundtrip_preserves_cells_and_encoding() {
        let g = sample_grid();
        let line = encode_grid(&g);
        let decoded = decode_grid(&line).unwrap();
        assert_eq!(encode_grid(&decoded), line);
        assert_eq!(
            decoded.cells().collect::<Vec<_>>(),
            g.cells().collect::<Vec<_>>()
        );
        assert_eq!(decoded.reps, g.reps);
        assert_eq!(decoded.base_seed, g.base_seed);
        assert_eq!(decoded.hz, g.hz);
        assert_eq!(decoded.fresh_boot, g.fresh_boot);
        // And the records agree — the decode is semantically lossless.
        assert_eq!(
            decoded.run_with(&RunOptions::sequential()).unwrap(),
            g.run_with(&RunOptions::sequential()).unwrap()
        );
    }

    #[test]
    fn grid_decode_is_strict() {
        let line = encode_grid(&sample_grid());
        for bad in [
            line.replace("reps=", "rep="),                 // unknown + missing key
            format!("{line} reps=9"),                      // duplicate
            line.replace("boot=session", "boot=warm"),     // bad enum
            line.replace("hz=0", "hz=many"),               // bad number
            line.replace("bench=null:0", "bench=null"),    // missing iters
            "procs=PD".to_string(),                        // missing everything else
        ] {
            assert!(decode_grid(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn cell_key_is_stable_and_discriminating() {
        let g = sample_grid();
        let cell = g.cells().next().unwrap();
        let key = |c: &MeasurementConfig, reps, seed, fresh| {
            cell_key(c, g.benchmark, reps, seed, fresh)
        };
        let base = key(&cell, g.reps, g.base_seed, false);
        // Stable across calls, and the run seed is canonicalized out.
        assert_eq!(base, key(&cell, g.reps, g.base_seed, false));
        let reseeded = MeasurementConfig { seed: 99, ..cell };
        assert_eq!(base, key(&reseeded, g.reps, g.base_seed, false),
            "the run-seed field is canonicalized out: per-rep seeds derive from base_seed");
        // Every varied axis must change the key.
        assert_ne!(base, key(&cell, g.reps + 1, g.base_seed, false));
        assert_ne!(base, key(&cell, g.reps, g.base_seed + 1, false));
        assert_ne!(base, key(&cell, g.reps, g.base_seed, true));
        let other = MeasurementConfig { counters: 2, ..cell };
        assert_ne!(base, key(&other, g.reps, g.base_seed, false));
        assert_ne!(
            cell_key(&cell, Benchmark::Loop { iters: 5 }, g.reps, g.base_seed, false),
            cell_key(&cell, Benchmark::Loop { iters: 6 }, g.reps, g.base_seed, false)
        );
    }

    /// The identity text is written piece by piece, not by `format!`;
    /// over every null-grid cell, every zoo benchmark and the extreme
    /// counts it is still the `format!` text the key format froze, and
    /// the streamed key is still that text's hash.
    #[test]
    fn cell_key_hashes_the_formatted_identity() {
        let benchmarks: Vec<Benchmark> =
            Benchmark::zoo(64).into_iter().chain([Benchmark::Null]).collect();
        for cell in Grid::full_null(3).cells() {
            for &benchmark in &benchmarks {
                for (reps, base_seed, fresh) in [(3, 0x6121D, false), (usize::MAX, u64::MAX, true)] {
                    let text = format!(
                        "cell/1 proc={} iface={} pattern={} opt={} counters={} tsc={} mode={} event={} hz={} \
                         bench={}:{} reps={} base_seed={} boot={}",
                        cell.processor.code(),
                        cell.interface.code(),
                        cell.pattern.code(),
                        cell.opt_level.level(),
                        cell.counters,
                        u8::from(cell.tsc_on),
                        cell.mode.label(),
                        cell.event.name(),
                        cell.hz,
                        benchmark.name(),
                        benchmark.iterations(),
                        reps,
                        base_seed,
                        if fresh { "fresh" } else { "session" },
                    );
                    let mut written = String::new();
                    write_cell_identity(&mut written, &cell, benchmark, reps, base_seed, fresh).unwrap();
                    assert_eq!(written, text);
                    let mut h = StreamHasher::new(CELL_KEY_SEED);
                    h.write_str(&text);
                    assert_eq!(cell_key(&cell, benchmark, reps, base_seed, fresh), h.finish(), "{text}");
                }
            }
        }
    }

    #[test]
    fn cell_key_pinned_value() {
        // Frozen as part of cache format v1: if this changes, bump
        // CACHE_MAGIC (old entries must not alias new keys).
        let cell = Grid::new(Benchmark::Null).cells().next().unwrap();
        let key = cell_key(&cell, Benchmark::Null, 2, 0x6121D, false);
        assert_eq!(key, 0xC65A_1714_B5CA_F42B, "update the pinned constant: {key:#018X}");
    }

    #[test]
    fn cell_key_pinned_per_zoo_variant() {
        // One frozen fixture per benchmark name: the serving cache is
        // content-addressed by these keys, so a silent shift would alias
        // old entries onto new semantics. Same freeze contract as
        // `cell_key_pinned_value`.
        let cell = Grid::new(Benchmark::Null).cells().next().unwrap();
        let pinned: [(Benchmark, u64); 7] = [
            (Benchmark::Loop { iters: 64 }, 0xA878_1F6A_3AD1_ECEC),
            (Benchmark::ArrayWalk { iters: 64 }, 0x0A80_0333_5472_EDD2),
            (Benchmark::PointerChase { iters: 64 }, 0xBBB3_167A_A4D8_6655),
            (Benchmark::Branchy { iters: 64 }, 0xEF86_51C7_B40E_4193),
            (Benchmark::StoreStream { iters: 64 }, 0x6032_42CF_E964_875B),
            (Benchmark::SyscallHeavy { iters: 64 }, 0xAD09_3E4A_FDB7_3E67),
            (Benchmark::NestedLoop { iters: 64 }, 0xD146_EAF6_9A2C_550C),
        ];
        for (bench, expect) in pinned {
            let key = cell_key(&cell, bench, 2, 0x6121D, false);
            assert_eq!(key, expect, "{bench}: update the pinned constant: {key:#018X}");
        }
    }

    #[test]
    fn request_roundtrip() {
        let g = sample_grid();
        let mut buf = Vec::new();
        write_grid_request(&mut buf, &g, Priority::Bulk).unwrap();
        write_plain_request(&mut buf, "STATS").unwrap();
        write_plain_request(&mut buf, "PING").unwrap();
        write_plain_request(&mut buf, "SHUTDOWN").unwrap();
        write_experiment_request(&mut buf, "table1", "quick").unwrap();
        let mut r = io::BufReader::new(&buf[..]);
        let Request::Grid { grid, priority } = read_request(&mut r).unwrap() else {
            panic!("expected a GRID request")
        };
        assert_eq!(encode_grid(&grid), encode_grid(&g));
        assert_eq!(priority, Priority::Bulk);
        assert!(matches!(read_request(&mut r).unwrap(), Request::Stats));
        assert!(matches!(read_request(&mut r).unwrap(), Request::Ping));
        assert!(matches!(read_request(&mut r).unwrap(), Request::Shutdown));
        let Request::Experiment { id, scale } = read_request(&mut r).unwrap() else {
            panic!("expected an EXPERIMENT request")
        };
        assert_eq!((id.as_str(), scale.as_str()), ("table1", "quick"));
        // EOF is a protocol error, not a hang or a default.
        assert!(read_request(&mut r).is_err());
    }

    #[test]
    fn request_rejects_wrong_version_and_verbs() {
        for bad in ["COUNTD/2 PING\n", "HTTP/1.1 GET\n", "COUNTD/1 YOLO\n", "\n"] {
            let mut r = io::BufReader::new(bad.as_bytes());
            assert!(read_request(&mut r).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn response_head_roundtrip_and_errors() {
        let mut buf = Vec::new();
        let meta = GridMeta { cells: 3, reps: 2, records: 6, hits: 1, misses: 2 };
        write_grid_response_header(&mut buf, &meta).unwrap();
        let head = read_response_head(&mut io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(head.kind, "grid");
        assert_eq!(head.grid_meta().unwrap(), meta);

        let mut buf = Vec::new();
        write_error_response(&mut buf, &CoreError::ZeroCounters).unwrap();
        let err = read_response_head(&mut io::BufReader::new(&buf[..])).unwrap_err();
        assert!(err.to_string().contains("zero"), "{err}");

        let mut r = io::BufReader::new(&b"COUNTD/1 OK cells=3\n"[..]);
        assert!(read_response_head(&mut r).is_err(), "kind is mandatory");
    }

    #[test]
    fn busy_response_roundtrips_as_retryable_busy() {
        let mut buf = Vec::new();
        write_busy_response(&mut buf, "pool saturated;\nretry later").unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(
            !text.trim_end_matches('\n').contains('\n'),
            "reason is flattened to one frame line: {text:?}"
        );
        let err = read_response_head(&mut io::BufReader::new(&buf[..])).unwrap_err();
        assert!(
            matches!(&err, CoreError::Busy(r) if r.contains("pool saturated")),
            "{err}"
        );
        assert!(err.is_retryable(), "BUSY is the retryable shed signal");

        // A malformed BUSY frame is a protocol error, not a silent pass.
        let mut r = io::BufReader::new(&b"COUNTD/1 BUSY nope\n"[..]);
        let err = read_response_head(&mut r).unwrap_err();
        assert!(matches!(err, CoreError::Protocol(_)), "{err}");
    }

    #[test]
    fn read_line_rejects_endless_unterminated_frames() {
        // A peer streaming bytes with no newline must cost at most one
        // frame of memory before being rejected — the reader enforces
        // MAX_FRAME_BYTES incrementally via `take`, it never balloons.
        let mut r = io::BufReader::new(io::repeat(b'a'));
        let err = read_line(&mut r).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert!(err.is_retryable(), "an oversized line reads as wire corruption");

        // Terminated lines inside the cap still read fine (sans newline).
        let mut r = io::BufReader::new(&b"hello\nworld\n"[..]);
        assert_eq!(read_line(&mut r).unwrap(), "hello");
        assert_eq!(read_line(&mut r).unwrap(), "world");
        assert!(read_line(&mut r).is_err(), "EOF is an error, not a hang");
    }

    #[test]
    fn grid_meta_rejects_inconsistent_record_counts() {
        let head = |line: &str| {
            read_response_head(&mut io::BufReader::new(line.as_bytes())).unwrap()
        };
        // records != cells * reps: the server miscounted its own payload.
        let err = head("COUNTD/1 OK kind=grid cells=3 reps=2 records=7 hits=0 misses=3\n")
            .grid_meta()
            .unwrap_err();
        assert!(err.to_string().contains("inconsistent"), "{err}");
        // cells * reps overflows u64: no consistent record count exists.
        let line = format!(
            "COUNTD/1 OK kind=grid cells={} reps=2 records=4 hits=0 misses=0\n",
            u64::MAX
        );
        assert!(head(&line).grid_meta().is_err());
        // The consistent header still parses.
        let meta = head("COUNTD/1 OK kind=grid cells=3 reps=2 records=6 hits=1 misses=2\n")
            .grid_meta()
            .unwrap();
        assert_eq!(meta.records, 6);
    }

    #[test]
    fn artifact_frames_reject_oversized_lengths() {
        // An announced length is an allocation request; past the cap it
        // must be rejected before any buffer is sized from it.
        let huge = MAX_FRAME_BYTES + 1;
        let text = format!("artifact name=a.txt kind=text bytes={huge}\n");
        let err = read_artifacts(&mut io::BufReader::new(text.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");

        let rows = format!("artifact name=b.csv kind=rows\nchunk {huge}\n");
        let err = read_artifacts(&mut io::BufReader::new(rows.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");

        // At the boundary the length itself is accepted (the read then
        // fails only because this test supplies no body).
        let text = format!("artifact name=a.txt kind=text bytes={MAX_FRAME_BYTES}\n");
        let err = read_artifacts(&mut io::BufReader::new(text.as_bytes())).unwrap_err();
        assert!(!err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn wire_error_messages_name_the_rejected_values() {
        let e = WireError::CountOverflow { field: "cells", value: 7 };
        assert_eq!(e.to_string(), "wire field cells=7 does not fit in usize");
        let e = WireError::InconsistentMeta { cells: 3, reps: 2, records: 7 };
        assert!(e.to_string().contains("records=7"));
        let e = WireError::FrameTooLarge { what: "chunk length", len: 99, max: 10 };
        assert!(e.to_string().contains("99"));
        let core: CoreError = e.into();
        assert!(matches!(core, CoreError::Protocol(_)));
    }

    #[test]
    fn serve_stats_roundtrip() {
        let stats = ServeStats {
            requests: 10,
            grids: 4,
            hits: 30,
            misses: 12,
            disk_hits: 3,
            poisoned: 1,
            mem_entries: 12,
            mem_bytes: 4096,
            workers: 4,
        };
        let mut buf = Vec::new();
        stats.write(&mut buf).unwrap();
        let head = read_response_head(&mut io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(head.kind, "stats");
        assert_eq!(ServeStats::from_head(&head).unwrap(), stats);
    }

    #[test]
    fn artifact_frames_roundtrip_byte_exact() {
        let mut report = Report::text("note.txt", "two\nlines with trailing\n".into());
        report.push(Artifact::rows(
            "data.csv",
            Box::new(|push| {
                push("h1,h2\n");
                for i in 0..1000 {
                    push(&format!("{i},{}\n", i * 3));
                }
                Ok(1000)
            }),
        ));
        report.push(Artifact::text("empty.txt", String::new()));
        let buf = write_report(Vec::new(), report).unwrap();
        let got = read_artifacts(&mut io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].name, "note.txt");
        assert_eq!(got[0].kind, ArtifactKind::Text);
        assert_eq!(got[0].content, "two\nlines with trailing\n");
        assert_eq!(got[0].rows, None);
        let mut expected = String::from("h1,h2\n");
        for i in 0..1000 {
            expected.push_str(&format!("{i},{}\n", i * 3));
        }
        assert_eq!(got[1].content, expected);
        assert_eq!(got[1].rows, Some(1000));
        assert_eq!(got[2].content, "");
    }

    #[test]
    fn wire_sink_rejects_bad_names_and_reader_rejects_smuggled_ones() {
        let mut sink = WireSink::new(Vec::new());
        let err = sink
            .consume(Artifact::text("../escape.txt", "x".into()))
            .unwrap_err();
        assert!(matches!(err, SinkError::BadName { .. }), "{err}");
        // A hostile server bypassing WireSink: the reader must refuse.
        let hostile = "artifact kind=text name=../up.txt bytes=1\nx\n.\n";
        let err = read_artifacts(&mut io::BufReader::new(hostile.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("rejected"), "{err}");
    }

    #[test]
    fn truncated_artifact_stream_is_an_error() {
        for bad in [
            "artifact kind=text name=a.txt bytes=100\nshort\n",
            "artifact kind=rows name=a.csv\nchunk 5\nab",
            "artifact kind=rows name=a.csv\n",
            "",
        ] {
            assert!(
                read_artifacts(&mut io::BufReader::new(bad.as_bytes())).is_err(),
                "{bad:?}"
            );
        }
    }
}
