//! The traced run (`--trace 1`): a per-layer profile of the stack.
//!
//! No library code is instrumented. Spans are recorded here, around calls
//! into each layer's public functions:
//!
//! * **Replay.** Every cell of the `null_csv` grid and of the `zoo_sweep`
//!   sweep is replayed step by step through `AnyInterface` (boot, reseed,
//!   setup, start, body, read), with one span per call under one span per
//!   run and one per cell. Each replayed record must equal
//!   `MeasurementSession::run` for the same configuration and seed. The
//!   same cells also run untraced through `MeasurementSession`, and the
//!   gap between the two is the tracing overhead.
//! * **Layer timings.** `report::record_to_csv_line`,
//!   `wire::{encode_record, decode_record, cell_key}`,
//!   `CellCache::{get, put}` below and at the entry cap, a disk-tier put,
//!   and `Grid::run_cell` plus encoding, each timed over a batch.
//! * **Workload passes.** One untraced pass of each local workload per
//!   round, so the share a run pays outside `MeasurementSession::run`
//!   (cell plumbing, report formatting, the sink) is a named number.
//! * **countd.** A short window of two clients against an in-process
//!   countd (see `countd.rs`) for the cache hit ratio, duplicate computes
//!   and per-kind latency.
//!
//! The cost of an empty span is calibrated each round and subtracted
//! from every leaf span. Rounds interleave all of the above, so a slow
//! stretch on the host hits each part of a round alike; every figure is
//! the median, over the quiet quarter of the rounds, of a per-round value.
//! The spans of the last round are written to
//! `.bench_out/spans-<workload>.tsv`.
//!
//! The profile is the same for every `--workload`; `--seed` picks the
//! per-run seeds and the countd inputs.

use std::hint::black_box;
use std::io::Write as _;
use std::sync::Arc;

use counterlab::benchmark::Benchmark;
use counterlab::config::MeasurementConfig;
use counterlab::cpu::hash::{seed_combine, splitmix64};
use counterlab::cpu::uarch::Processor;
use counterlab::experiments::workload::{self, WorkloadAccuracy};
use counterlab::grid::Grid;
use counterlab::interface::{AnyInterface, CountingMode, Interface};
use counterlab::kernel::config::KernelConfig;
use counterlab::measure::{
    event_selection, expected_count, placement_for, MeasurementSession, Record,
};
use counterlab::pattern::Pattern;
use counterlab::report;
use counterlab::serve::{CacheConfig, CellCache};
use counterlab::wire;

use crate::clock::Stopwatch;
use crate::local::{exact_count, export_csv, null_grid, zoo_op};
use crate::{alloc, countd, median, Args, Outcome, REPS};

/// Mirror of the private constant in `counterlab::measure` that
/// decorrelates the interface-library seed from the kernel seed. If the
/// two drift, the replay's equality check fails.
const INTERFACE_SEED_XOR: u64 = 0x5EED;

/// Minimum rounds, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Cell,
    Boot,
    Run,
    Reseed,
    Setup,
    Start,
    Body,
    Read,
    Empty,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Cell => "measure.cell",
            Op::Boot => "interface.boot",
            Op::Run => "measure.run",
            Op::Reseed => "interface.reseed",
            Op::Setup => "interface.setup",
            Op::Start => "interface.start",
            Op::Body => "benchmark.body",
            Op::Read => "interface.read",
            Op::Empty => "trace.empty",
        }
    }

    /// Index into the per-interface call table, for interface calls.
    fn interface_slot(self) -> Option<usize> {
        match self {
            Op::Boot => Some(0),
            Op::Reseed => Some(1),
            Op::Setup => Some(2),
            Op::Start => Some(3),
            Op::Read => Some(4),
            _ => None,
        }
    }
}

const INTERFACE_CALLS: [&str; 5] = ["boot", "reseed", "setup", "start", "read"];

/// Which cell a span belongs to: indices into `Processor::ALL`,
/// `Interface::ALL` and the zoo, plus the cell number (the trace id all
/// spans of one cell share).
#[derive(Clone, Copy)]
struct Ctx {
    processor: u8,
    interface: u8,
    kernel: u8,
    trace: u32,
}

#[derive(Clone, Copy)]
struct Span {
    op: Op,
    ctx: Ctx,
    parent: u32,
    start: u64,
    end: u64,
}

const NO_PARENT: u32 = u32::MAX;

struct Tracer {
    base: Stopwatch,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(base: Stopwatch) -> Self {
        Tracer {
            base,
            spans: Vec::with_capacity(1 << 18),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.base.nanos()
    }

    #[inline]
    fn open(&mut self, op: Op, ctx: Ctx, parent: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            op,
            ctx,
            parent,
            start,
            end: start,
        });
        id
    }

    #[inline]
    fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize].end = end;
    }

    /// Median duration of an empty span: what recording one costs.
    fn calibrate(&mut self) -> f64 {
        let ctx = Ctx {
            processor: 0,
            interface: 0,
            kernel: 0,
            trace: 0,
        };
        self.spans.clear();
        for _ in 0..20_000 {
            let s = self.open(Op::Empty, ctx, NO_PARENT);
            self.close(s);
        }
        let d: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end - s.start) as f64)
            .collect();
        self.spans.clear();
        median(&d)
    }
}

/// Opens a span, evaluates the body, closes the span, yields the body's value.
macro_rules! span {
    ($t:expr, $op:expr, $ctx:expr, $parent:expr, $body:expr) => {{
        let s = $t.open($op, $ctx, $parent);
        let value = $body;
        $t.close(s);
        value
    }};
}

/// One replayed cell: its configuration (seed = boot seed), benchmark and
/// per-repetition seeds.
struct Cell {
    cfg: MeasurementConfig,
    bench: Benchmark,
    ctx: Ctx,
    seeds: [u64; REPS],
}

fn cell(trace: usize, cfg: MeasurementConfig, bench: Benchmark, seed: u64) -> Cell {
    let seeds: [u64; REPS] =
        std::array::from_fn(|rep| seed_combine(seed_combine(seed, trace as u64), rep as u64));
    let zoo = Benchmark::zoo(WorkloadAccuracy::ITERS);
    let index = |found: Option<usize>| found.expect("listed") as u8;
    Cell {
        cfg: cfg.with_seed(seeds[0]),
        bench,
        ctx: Ctx {
            processor: index(Processor::ALL.iter().position(|p| *p == cfg.processor)),
            interface: index(Interface::ALL.iter().position(|i| *i == cfg.interface)),
            kernel: index(zoo.iter().position(|b| b.name() == bench.name())),
            trace: trace as u32,
        },
        seeds,
    }
}

/// The `null_csv` cells: the full null grid.
fn null_cells(seed: u64) -> Vec<Cell> {
    let grid = Grid::full_null(REPS);
    grid.cells()
        .enumerate()
        .map(|(i, cfg)| cell(i, cfg, grid.benchmark, seed))
        .collect()
}

/// The `zoo_sweep` cells, configured as the workload-accuracy driver
/// configures them (K8, start-read, user mode).
fn zoo_cells(seed: u64) -> Vec<Cell> {
    workload::cells()
        .into_iter()
        .enumerate()
        .map(|(i, (bench, event, interface))| {
            let cfg = MeasurementConfig::new(Processor::AthlonK8, interface)
                .with_pattern(Pattern::StartRead)
                .with_event(event)
                .with_mode(CountingMode::User);
            cell(i, cfg, bench, seed)
        })
        .collect()
}

fn err(e: counterlab::CoreError) -> String {
    e.to_string()
}

/// Replays one cell through `AnyInterface`, mirroring
/// `MeasurementSession::new` and `MeasurementSession::run` call for call.
/// Returns the syscalls and timer ticks the runs performed.
fn replay_cell(t: &mut Tracer, c: &Cell, out: &mut Vec<Record>) -> Result<(u64, u64), String> {
    let (cfg, ctx) = (&c.cfg, c.ctx);
    let root = t.open(Op::Cell, ctx, NO_PARENT);
    let mut kernel = KernelConfig::default().with_hz(cfg.hz).with_seed(cfg.seed);
    let api = span!(
        t,
        Op::Boot,
        ctx,
        root,
        AnyInterface::boot(
            cfg.interface,
            cfg.processor,
            kernel.clone(),
            cfg.tsc_on,
            cfg.seed ^ INTERFACE_SEED_XOR
        )
    );
    let mut api = api.map_err(err)?;
    let events = event_selection(cfg.event, cfg.counters);
    let placement = placement_for(cfg, &c.bench);
    let (mut syscalls, mut ticks) = (0, 0);
    for (rep, &seed) in c.seeds.iter().enumerate() {
        let run = t.open(Op::Run, ctx, root);
        // The first run consumes the boot state, as in the session.
        if rep > 0 {
            kernel.seed = seed;
            span!(
                t,
                Op::Reseed,
                ctx,
                run,
                api.reseed(&kernel, cfg.tsc_on, seed ^ INTERFACE_SEED_XOR)
            )
            .map_err(err)?;
        }
        span!(t, Op::Setup, ctx, run, api.setup(&events, cfg.mode)).map_err(err)?;
        let bench = c.bench;
        let measured = match cfg.pattern {
            Pattern::StartRead | Pattern::StartStop => {
                span!(
                    t,
                    Op::Start,
                    ctx,
                    run,
                    api.reset().and_then(|()| api.start())
                )
                .map_err(err)?;
                span!(
                    t,
                    Op::Body,
                    ctx,
                    run,
                    bench.run(api.system_mut(), placement)
                );
                if cfg.pattern == Pattern::StartRead {
                    span!(t, Op::Read, ctx, run, api.read())
                } else {
                    span!(t, Op::Read, ctx, run, api.stop_read())
                }
                .map_err(err)?
            }
            Pattern::ReadRead | Pattern::ReadStop => {
                span!(t, Op::Start, ctx, run, api.start()).map_err(err)?;
                let c0 = span!(t, Op::Read, ctx, run, api.read()).map_err(err)?;
                span!(
                    t,
                    Op::Body,
                    ctx,
                    run,
                    bench.run(api.system_mut(), placement)
                );
                let c1 = if cfg.pattern == Pattern::ReadRead {
                    span!(t, Op::Read, ctx, run, api.read())
                } else {
                    span!(t, Op::Read, ctx, run, api.stop_read())
                }
                .map_err(err)?;
                c1.checked_sub(c0)
                    .ok_or(format!("counter went backwards in replay: {c0} -> {c1}"))?
            }
        };
        // Boot and reseed zero the kernel's counters, so their values
        // now are this run's.
        syscalls += api.system().syscall_count();
        ticks += api.system().ticks_delivered();
        t.close(run);
        let config = MeasurementConfig { seed, ..*cfg };
        out.push(Record {
            config,
            benchmark: bench,
            measured,
            expected: expected_count(&config, &bench),
        });
    }
    t.close(root);
    Ok((syscalls, ticks))
}

/// Runs the cells untraced through `MeasurementSession` and returns the
/// nanoseconds spent in `run` (session boots excluded, as in the replay's
/// run spans).
fn session_cells(cells: &[Cell], out: &mut Vec<Record>) -> Result<f64, String> {
    let mut total = 0.0;
    for c in cells {
        let mut session = MeasurementSession::new(&c.cfg, c.bench).map_err(err)?;
        let t0 = Stopwatch::start();
        for &seed in &c.seeds {
            out.push(session.run(seed).map_err(err)?);
        }
        total += t0.ns();
    }
    Ok(total)
}

/// Sums of one traced pass over a cell set.
#[derive(Default)]
struct Pass {
    /// Per `Interface::ALL` entry, per interface call: (ns, calls).
    interface: [[(f64, u64); 5]; 6],
    /// Boots per `Processor::ALL` entry: (ns, calls).
    boot_by_processor: [(f64, u64); 3],
    /// Bodies per zoo kernel: (ns, calls).
    body: [(f64, u64); 8],
    /// Leaf interface spans of runs (boots excluded): (ns, spans).
    interface_in_runs: (f64, u64),
    /// Body spans: (ns, spans).
    body_in_runs: (f64, u64),
    /// Run spans: total ns.
    runs_ns: f64,
    runs: u64,
    syscalls: u64,
    ticks: u64,
}

fn add(slot: &mut (f64, u64), ns: f64) {
    slot.0 += ns;
    slot.1 += 1;
}

fn traced_pass(t: &mut Tracer, cells: &[Cell], out: &mut Vec<Record>) -> Result<Pass, String> {
    t.spans.clear();
    let mut pass = Pass::default();
    for c in cells {
        let (syscalls, ticks) = replay_cell(t, c, out)?;
        pass.syscalls += syscalls;
        pass.ticks += ticks;
    }
    for s in &t.spans {
        let d = (s.end - s.start) as f64;
        let iface = usize::from(s.ctx.interface);
        if let Some(slot) = s.op.interface_slot() {
            add(&mut pass.interface[iface][slot], d);
        }
        match s.op {
            Op::Boot => add(&mut pass.boot_by_processor[usize::from(s.ctx.processor)], d),
            Op::Reseed | Op::Setup | Op::Start | Op::Read => add(&mut pass.interface_in_runs, d),
            Op::Body => {
                add(&mut pass.body[usize::from(s.ctx.kernel)], d);
                add(&mut pass.body_in_runs, d);
            }
            Op::Run => {
                pass.runs_ns += d;
                pass.runs += 1;
            }
            Op::Cell | Op::Empty => {}
        }
    }
    Ok(pass)
}

/// Per-round figures of one local workload's cell set.
#[derive(Default)]
struct SetRounds {
    untraced_ns_per_run: Vec<f64>,
    passes: Vec<Pass>,
    workload_ns_per_run: Vec<f64>,
}

/// Checks a replayed set against its untraced session records.
fn compare(out: &mut Outcome, what: &str, replay: &[Record], session: &[Record]) {
    out.attempted += replay.len() as u64;
    let mismatches = replay.iter().zip(session).filter(|(a, b)| a != b).count()
        + replay.len().abs_diff(session.len());
    if mismatches > 0 {
        out.failed += mismatches as u64;
        out.fail(format!(
            "{what}: {mismatches} replayed records differ from MeasurementSession::run"
        ));
    }
}

/// Layer timings over batches of real records and cells, one round.
#[derive(Default)]
struct Micro {
    csv_line_ns: Vec<f64>,
    csv_bytes: Vec<usize>,
    encode_ns: Vec<f64>,
    encode_bytes: Vec<usize>,
    encode_allocs: Vec<u64>,
    decode_ns: Vec<f64>,
    cell_key_ns: Vec<f64>,
    get_hit_ns: Vec<f64>,
    get_miss_ns: Vec<f64>,
    put_ns: Vec<f64>,
    put_evict_ns: Vec<f64>,
    compute_ns_per_cell: Vec<f64>,
}

/// Puts timed at the entry cap, per round: each one evicts.
const EVICT_PUTS: usize = 256;

fn micro_round(
    m: &mut Micro,
    out: &mut Outcome,
    records: &[Record],
    grid: &Grid,
    key_seed: u64,
) -> Result<(), String> {
    let n = records.len() as f64;

    let t0 = Stopwatch::start();
    let mut bytes = 0;
    for r in records {
        bytes += black_box(report::record_to_csv_line(r)).len();
    }
    m.csv_line_ns.push(t0.ns() / n);
    m.csv_bytes.push(bytes);

    let mut lines = Vec::with_capacity(records.len());
    let a0 = alloc::allocations();
    let t0 = Stopwatch::start();
    for r in records {
        lines.push(wire::encode_record(r));
    }
    let elapsed = t0.ns();
    m.encode_allocs.push(alloc::allocations() - a0);
    m.encode_ns.push(elapsed / n);
    m.encode_bytes.push(lines.iter().map(String::len).sum());

    let mut decoded = Vec::with_capacity(records.len());
    let t0 = Stopwatch::start();
    for line in &lines {
        decoded.push(wire::decode_record(line).map_err(err)?);
    }
    m.decode_ns.push(t0.ns() / n);
    if decoded != records {
        out.fail("wire::decode_record(wire::encode_record(r)) != r");
    }

    let cells: Vec<MeasurementConfig> = grid.cells().collect();
    let t0 = Stopwatch::start();
    let mut acc = 0u64;
    for c in &cells {
        acc ^= wire::cell_key(
            c,
            grid.benchmark,
            grid.reps,
            grid.base_seed,
            grid.fresh_boot,
        );
    }
    black_box(acc);
    m.cell_key_ns.push(t0.ns() / cells.len() as f64);

    // The cache, memory tier only, with the daemon's default caps. The
    // payload is one real 10-record cell block.
    let cap = CacheConfig::default().max_entries;
    let payload: Arc<String> = Arc::new(lines[..REPS].concat());
    let cache = CellCache::new(CacheConfig::default()).map_err(err)?;
    let key = |i: usize| splitmix64(seed_combine(key_seed, i as u64));
    let half = cap / 2;
    let timed_puts = |range: std::ops::Range<usize>| {
        let len = range.len() as f64;
        let t0 = Stopwatch::start();
        for i in range {
            cache.put(key(i), Arc::clone(&payload));
        }
        t0.ns() / len
    };
    m.put_ns.push(timed_puts(0..half));
    let t0 = Stopwatch::start();
    for i in 0..half {
        black_box(cache.get(key(i)));
    }
    m.get_hit_ns.push(t0.ns() / half as f64);
    let t0 = Stopwatch::start();
    for i in cap..cap + half {
        black_box(cache.get(key(i)));
    }
    m.get_miss_ns.push(t0.ns() / half as f64);
    timed_puts(half..cap);
    if cache.mem_entries() != cap {
        return Err(format!(
            "cache holds {} entries, expected {cap}",
            cache.mem_entries()
        ));
    }
    m.put_evict_ns
        .push(timed_puts(2 * cap..2 * cap + EVICT_PUTS));

    // What a cold countd cell costs to produce: run it, encode it.
    let t0 = Stopwatch::start();
    for c in cells.iter().take(256) {
        let mut block = String::new();
        for r in grid.run_cell(c).map_err(err)? {
            block.push_str(&wire::encode_record(&r));
        }
        black_box(block);
    }
    m.compute_ns_per_cell.push(t0.ns() / 256.0);
    Ok(())
}

/// Median time of one disk-tier put, in microseconds. Informational: it
/// measures the host's filesystem as much as the cache.
fn disk_put_us(payload: &str, key_seed: u64) -> Result<f64, String> {
    let dir = std::path::PathBuf::from(format!(".bench_out/disk-cache-{}", std::process::id()));
    let cache = CellCache::new(CacheConfig {
        dir: Some(dir.clone()),
        ..CacheConfig::default()
    })
    .map_err(err)?;
    let payload = Arc::new(payload.to_string());
    let mut times = Vec::new();
    for i in 0..64u64 {
        let t0 = Stopwatch::start();
        cache.put(splitmix64(seed_combine(key_seed, i)), Arc::clone(&payload));
        times.push(t0.secs() * 1e6);
    }
    drop(cache);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    Ok(median(&times))
}

fn write_spans(path: &str, sets: &[(&str, &Tracer)]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("writing {path}: {e}");
    writeln!(
        w,
        "set\ttrace\tspan\tparent\tname\tprocessor\tinterface\tkernel\tstart_ns\tend_ns"
    )
    .map_err(io)?;
    let zoo = Benchmark::zoo(WorkloadAccuracy::ITERS);
    for (set, t) in sets {
        for (id, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{set}\t{}\t{id}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.ctx.trace,
                s.op.name(),
                Processor::ALL[usize::from(s.ctx.processor)].code(),
                Interface::ALL[usize::from(s.ctx.interface)].code(),
                zoo[usize::from(s.ctx.kernel)].name(),
                s.start,
                s.end
            )
            .map_err(io)?;
        }
    }
    w.flush().map_err(io)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let base = Stopwatch::start();
    let seed = args.stream(20);
    let sets: [(&str, Vec<Cell>); 2] = [
        ("null_csv", null_cells(seed)),
        ("zoo_sweep", zoo_cells(seed)),
    ];
    let mut tracers = [Tracer::new(base), Tracer::new(base)];
    let mut rounds: [SetRounds; 2] = Default::default();
    let mut span_ns = Vec::new();
    let mut micro = Micro::default();
    let grid = null_grid(args.stream(1));
    let mut micro_grid = Grid::full_null(REPS);
    micro_grid.base_seed = args.stream(21);
    let mut session_records: [Vec<Record>; 2] = Default::default();

    let profile_s = args.seconds * 0.6;
    let t0 = Stopwatch::start();
    let mut round = 0usize;
    while t0.secs() < profile_s || round < MIN_ROUNDS {
        span_ns.push(tracers[0].calibrate());
        for (k, (name, cells)) in sets.iter().enumerate() {
            let runs = cells.len() * REPS;
            let mut session = Vec::with_capacity(runs);
            let untraced = session_cells(cells, &mut session)?;
            let mut replay = Vec::with_capacity(runs);
            let pass = traced_pass(&mut tracers[k], cells, &mut replay)?;
            compare(&mut out, name, &replay, &session);
            rounds[k].untraced_ns_per_run.push(untraced / runs as f64);
            rounds[k].passes.push(pass);
            session_records[k] = session;
        }
        for (k, run) in [
            export_csv(&grid)?.ns_per_record(),
            zoo_op()?.ns_per_record(),
        ]
        .into_iter()
        .enumerate()
        {
            rounds[k].workload_ns_per_run.push(run);
        }
        micro_round(
            &mut micro,
            &mut out,
            &session_records[0],
            &micro_grid,
            seed_combine(seed, round as u64),
        )?;
        round += 1;
    }
    // Every figure below comes from the quiet rounds: the quarter with
    // the fastest untraced null runs. All parts of a round run within a
    // fraction of a second, so they share the host's state; taking them
    // from the same rounds keeps the layers comparable with each other.
    let reference = &rounds[0].untraced_ns_per_run;
    let cutoff = crate::quantile(reference, 0.25);
    let quiet: Vec<usize> = (0..round).filter(|&r| reference[r] <= cutoff).collect();
    let q = |per_round: &[f64]| median(&quiet.iter().map(|&r| per_round[r]).collect::<Vec<_>>());
    let span_ns = q(&span_ns);
    eprintln!(
        "perfbench: {round} profile rounds, {} quiet; empty span {span_ns:.1} ns",
        quiet.len()
    );

    // countd: a short window of the mix from a full cache.
    let fx = countd::setup(args)?;
    let countd_s = (args.seconds * 0.25).max(2.0);
    let w = countd::run_window(&fx, countd_s)?;
    let layers = countd::account(&fx, &w, &mut out)?;
    drop(fx);

    std::fs::create_dir_all(".bench_out").map_err(|e| format!("creating .bench_out: {e}"))?;
    let disk_us = disk_put_us(
        &wire::encode_record(&session_records[0][0]).repeat(REPS),
        seed,
    )?;
    let spans_path = format!(".bench_out/spans-{}.tsv", args.workload);
    write_spans(
        &spans_path,
        &[("null_csv", &tracers[0]), ("zoo_sweep", &tracers[1])],
    )?;
    eprintln!("perfbench: spans of the last round written to {spans_path}");

    // Mean per call in each round, less the span cost.
    let per_call = |slot: &dyn Fn(&Pass) -> (f64, u64), passes: &[Pass]| {
        q(&passes
            .iter()
            .map(|p| slot(p).0 / slot(p).1 as f64 - span_ns)
            .collect::<Vec<_>>())
    };
    // interface: per interface from the null grid, which covers every
    // processor, interface and pattern.
    let null = &rounds[0].passes;
    for (i, interface) in Interface::ALL.iter().enumerate() {
        for (slot, call) in INTERFACE_CALLS.iter().enumerate() {
            let v = per_call(&|p| p.interface[i][slot], null);
            out.metric(format!("interface.{call}_ns.{}", interface.code()), v, "ns");
        }
    }
    for (i, processor) in Processor::ALL.iter().enumerate() {
        let v = per_call(&|p| p.boot_by_processor[i], null);
        out.metric(format!("interface.boot_ns.{}", processor.code()), v, "ns");
    }
    // benchmark: per zoo kernel, from the zoo sweep's cells.
    for (k, bench) in Benchmark::zoo(WorkloadAccuracy::ITERS).iter().enumerate() {
        let v = per_call(&|p| p.body[k], &rounds[1].passes);
        out.metric(format!("benchmark.body_ns.{}", bench.name()), v, "ns");
    }
    let mut overhead = Vec::new();
    for (k, (name, _)) in sets.iter().enumerate() {
        let r = &rounds[k];
        let counts: Vec<(u64, u64, u64)> = r
            .passes
            .iter()
            .map(|p| (p.syscalls, p.ticks, p.runs))
            .collect();
        let (syscalls, ticks, runs) =
            exact_count(&mut out, &format!("{name} kernel counts"), &counts);
        out.metric(
            format!("kernel.syscalls_per_run.{name}"),
            syscalls as f64 / runs as f64,
            "count",
        );
        out.metric(
            format!("kernel.ticks_per_run.{name}"),
            ticks as f64 / runs as f64,
            "count",
        );
        // Self time per run of a span kind: its spans' total, less the
        // span cost of each, over the runs.
        let self_per_run =
            |p: &Pass, (ns, spans): (f64, u64)| (ns - span_ns * spans as f64) / p.runs as f64;
        let iface: Vec<f64> = r
            .passes
            .iter()
            .map(|p| self_per_run(p, p.interface_in_runs))
            .collect();
        let body: Vec<f64> = r
            .passes
            .iter()
            .map(|p| self_per_run(p, p.body_in_runs))
            .collect();
        let run_ns = &r.untraced_ns_per_run;
        let explained: Vec<f64> = (0..round)
            .map(|i| (iface[i] + body[i]) / run_ns[i])
            .collect();
        let traced: Vec<f64> = (0..round)
            .map(|i| r.passes[i].runs_ns / r.passes[i].runs as f64 / run_ns[i] - 1.0)
            .collect();
        let exec: Vec<f64> = (0..round)
            .map(|i| r.workload_ns_per_run[i] - run_ns[i])
            .collect();
        out.metric(format!("measure.run_ns.{name}"), q(run_ns), "ns");
        out.metric(format!("interface.self_ns_per_run.{name}"), q(&iface), "ns");
        out.metric(format!("benchmark.self_ns_per_run.{name}"), q(&body), "ns");
        let explained = q(&explained);
        out.metric(
            format!("measure.explained_ratio.{name}"),
            explained,
            "ratio",
        );
        if !(0.9..=1.1).contains(&explained) {
            out.fail(format!(
                "{name}: interface + benchmark self times explain {explained:.3} of \
                 measure.run_ns, outside 0.9..=1.1"
            ));
        }
        out.metric(format!("exec.overhead_ns_per_run.{name}"), q(&exec), "ns");
        overhead.push(q(&traced));
    }
    out.metric("measure.trace_overhead_ratio", overhead[0], "ratio");
    eprintln!(
        "perfbench: trace overhead on zoo_sweep cells {:.3}",
        overhead[1]
    );

    let csv_bytes = exact_count(&mut out, "CSV bytes", &micro.csv_bytes);
    let wire_bytes = exact_count(&mut out, "wire bytes", &micro.encode_bytes);
    let wire_allocs = exact_count(&mut out, "wire encode allocations", &micro.encode_allocs);
    let n = session_records[0].len() as f64;
    out.metric("report.csv_line_ns", q(&micro.csv_line_ns), "ns");
    out.metric("report.csv_bytes_per_record", csv_bytes as f64 / n, "count");
    out.metric("wire.encode_ns_per_record", q(&micro.encode_ns), "ns");
    out.metric("wire.decode_ns_per_record", q(&micro.decode_ns), "ns");
    out.metric("wire.cell_key_ns", q(&micro.cell_key_ns), "ns");
    out.metric("wire.bytes_per_record", wire_bytes as f64 / n, "count");
    out.metric("wire.allocs_per_record", wire_allocs as f64 / n, "count");
    out.metric("serve.cache_get_hit_ns", q(&micro.get_hit_ns), "ns");
    out.metric("serve.cache_get_miss_ns", q(&micro.get_miss_ns), "ns");
    out.metric("serve.cache_put_ns", q(&micro.put_ns), "ns");
    out.metric("serve.cache_put_evict_ns", q(&micro.put_evict_ns), "ns");
    out.metric("serve.cache_put_disk_us", disk_us, "us");
    out.metric(
        "serve.compute_ns_per_cell",
        q(&micro.compute_ns_per_cell),
        "ns",
    );
    out.metric("serve.warm_hit_ratio", layers.warm_hit_ratio, "ratio");
    out.metric(
        "serve.computes_per_cold_cell",
        layers.computes_per_cold_cell,
        "ratio",
    );
    out.metric("serve.busy_frac", layers.busy_frac, "ratio");
    let lat = |kind| countd::latencies(&w.ops, kind);
    out.metric(
        "countd.ping_p50_us",
        median(&lat(countd::Kind::Ping)) * 1e3,
        "us",
    );
    out.metric("countd.warm_p50_ms", median(&lat(countd::Kind::Warm)), "ms");
    out.metric("countd.cold_p50_ms", median(&lat(countd::Kind::Cold)), "ms");
    out.metric(
        "countd.cold_p99_ms",
        crate::quantile(&lat(countd::Kind::Cold), 0.99),
        "ms",
    );
    Ok(out)
}
