//! The countd window of the traced run: an in-process countd driven by
//! two closed-loop clients. countd is measured only there, as per-layer
//! figures; it is not an end-to-end workload of the benchmark.
//!
//! The server runs with `ServeConfig::default()` except `workers = 2`
//! (memory tier only). Set-up fills the memory tier to its entry cap, so
//! every cold insert evicts from the first timed request. Both clients
//! send the same seeded sequence of operations, with no think time and
//! no retries (a refusal counts as a failure):
//!
//! * 2 in 5 are `PING` (connect + `PING`/`PONG`);
//! * 2 in 5 are warm `GRID` requests, round-robin over the 18
//!   (processor, interface) slices of one base seed whose 1920 cells sit
//!   in the cache;
//! * 1 in 5 are cold `GRID` requests: a client's k-th cold request asks
//!   for slice `k mod 18` under a never-seen base seed, the same one for
//!   both clients, so their misses race on the same keys.
//!
//! Grids are session-boot grids at 10 repetitions, sent at
//! `auto_priority`, which is what `repro client grid` sends.

use std::collections::{BTreeMap, BTreeSet};

use counterlab::cpu::hash::{seed_combine, splitmix64};
use counterlab::cpu::uarch::Processor;
use counterlab::grid::Grid;
use counterlab::interface::Interface;
use counterlab::serve::{self, CallOptions, ServeConfig, Server};
use counterlab::wire::{self, ServeStats};
use counterlab::CoreError;

use crate::clock::Stopwatch;
use crate::local::null_grid;
use crate::{describe, hash_str, Args, Outcome, REPS};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Ping,
    Warm,
    Cold,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    Ok,
    Busy,
    Error,
}

/// One client operation as observed by the client.
pub struct Op {
    pub kind: Kind,
    pub status: Status,
    pub ms: f64,
    /// Slice index and base seed of a `GRID` request.
    pub grid: Option<(usize, u64)>,
    pub cells: usize,
    pub hits: usize,
    /// Hash of the served record block.
    pub body: u64,
}

/// A running server whose memory tier is full, plus the request inputs.
pub struct Fixture {
    server: Server,
    addr: String,
    /// The 18 slices (base seed ignored; set per request).
    slices: Vec<Grid>,
    warm_seed: u64,
    cold_base: u64,
    sequence_seed: u64,
}

fn no_retry() -> CallOptions {
    CallOptions {
        retries: 0,
        ..CallOptions::default()
    }
}

/// The null grid's 18 (processor, interface) slices: the unit a client
/// requests.
fn null_slices(base_seed: u64) -> Vec<Grid> {
    let full = null_grid(base_seed);
    let mut slices = Vec::with_capacity(Processor::ALL.len() * Interface::ALL.len());
    for processor in Processor::ALL {
        for interface in Interface::ALL {
            slices.push(Grid {
                processors: vec![processor],
                interfaces: vec![interface],
                ..full.clone()
            });
        }
    }
    slices
}

fn slice_grid(slices: &[Grid], slice: usize, base_seed: u64) -> Grid {
    let mut grid = slices[slice].clone();
    grid.base_seed = base_seed;
    grid
}

/// Spawns the server and fills its memory tier to capacity: two filler
/// grids, then the warm grid last so that its cells are the most recently
/// used when timing starts.
pub fn setup(args: &Args) -> Result<Fixture, String> {
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let cap = config.cache.max_entries as u64;
    let server = Server::spawn(config).map_err(|e| e.to_string())?;
    let addr = server.addr().to_string();
    let fx = Fixture {
        server,
        addr,
        slices: null_slices(0),
        warm_seed: args.stream(10),
        cold_base: args.stream(11),
        sequence_seed: args.stream(12),
    };
    for base_seed in [args.stream(13), args.stream(14), fx.warm_seed] {
        let mut grid = Grid::full_null(REPS);
        grid.base_seed = base_seed;
        serve::request_grid_raw_with(&fx.addr, &grid, serve::auto_priority(&grid), &no_retry())
            .map_err(|e| format!("filling the cache: {e}"))?;
    }
    let stats = fx.server.stats();
    if stats.mem_entries != cap {
        return Err(format!(
            "cache fill left {} entries resident, expected the cap of {cap}",
            stats.mem_entries
        ));
    }
    Ok(fx)
}

/// The sequence both clients send: operation `n`'s kind. Every block of
/// five is a seeded shuffle of two pings, two warm and one cold request,
/// so every second of a run sees the same mix.
fn kind_of(sequence_seed: u64, n: u64) -> Kind {
    let mut block = [Kind::Ping, Kind::Ping, Kind::Warm, Kind::Warm, Kind::Cold];
    let mut draw = seed_combine(sequence_seed, n / 5);
    for i in (1..block.len()).rev() {
        draw = splitmix64(draw);
        block.swap(i, (draw % (i as u64 + 1)) as usize);
    }
    block[(n % 5) as usize]
}

fn client(fx: &Fixture, client: usize, window: Stopwatch, length_s: f64) -> Vec<Op> {
    let opts = no_retry();
    let mut ops = Vec::with_capacity(1 << 15);
    let (mut warm_i, mut cold_k) = (client * 9, 0usize);
    let mut n = 0u64;
    while window.secs() < length_s {
        let kind = kind_of(fx.sequence_seed, n);
        n += 1;
        let grid = match kind {
            Kind::Ping => None,
            Kind::Warm => {
                warm_i += 1;
                Some((warm_i % fx.slices.len(), fx.warm_seed))
            }
            Kind::Cold => {
                cold_k += 1;
                Some((
                    cold_k % fx.slices.len(),
                    seed_combine(fx.cold_base, cold_k as u64),
                ))
            }
        };
        let request = grid.map(|(slice, seed)| slice_grid(&fx.slices, slice, seed));
        let t0 = Stopwatch::start();
        let result = match &request {
            None => serve::request_ping_with(&fx.addr, &opts).map(|()| None),
            Some(g) => {
                serve::request_grid_raw_with(&fx.addr, g, serve::auto_priority(g), &opts).map(Some)
            }
        };
        let ms = t0.secs() * 1e3;
        let mut op = Op {
            kind,
            status: Status::Ok,
            ms,
            grid,
            cells: 0,
            hits: 0,
            body: 0,
        };
        match result {
            Ok(Some((meta, body))) => {
                op.cells = meta.cells;
                op.hits = meta.hits;
                op.body = hash_str(&body);
            }
            Ok(None) => {}
            Err(CoreError::Busy(_)) => op.status = Status::Busy,
            Err(e) => {
                eprintln!("perfbench: client {client}: {kind:?} failed: {e}");
                op.status = Status::Error;
            }
        }
        ops.push(op);
    }
    ops
}

/// What one timed window of the mix observed.
pub struct Window {
    pub ops: Vec<Op>,
    pub wall_s: f64,
    pub before: ServeStats,
    pub after: ServeStats,
}

/// Runs both clients for `length_s` seconds.
pub fn run_window(fx: &Fixture, length_s: f64) -> Result<Window, String> {
    let stats = || serve::request_stats_with(&fx.addr, &no_retry()).map_err(|e| e.to_string());
    let before = stats()?;
    let t0 = Stopwatch::start();
    let ops = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| s.spawn(move || client(fx, c, t0, length_s)))
            .collect();
        let mut ops = Vec::new();
        for h in handles {
            ops.extend(
                h.join()
                    .map_err(|_| "a client thread panicked".to_string())?,
            );
        }
        Ok::<_, String>(ops)
    })?;
    let wall_s = t0.secs();
    let after = stats()?;
    Ok(Window {
        ops,
        wall_s,
        before,
        after,
    })
}

/// Output check, outside the timed window: every served record block
/// must equal the local `wire::encode_record` of `Grid::run_cell` over
/// the same grid. Returns the number of mismatching responses and the
/// number of distinct cold cells requested.
pub fn check_bodies(fx: &Fixture, ops: &[Op]) -> Result<(u64, usize), String> {
    let ids: BTreeSet<(usize, u64)> = ops
        .iter()
        .filter(|op| op.status == Status::Ok)
        .filter_map(|op| op.grid)
        .collect();
    let ids: Vec<(usize, u64)> = ids.into_iter().collect();
    // (body hash, cells) of one grid, computed locally.
    let local = |&(slice, seed): &(usize, u64)| {
        let grid = slice_grid(&fx.slices, slice, seed);
        let mut body = String::new();
        let mut cells = 0;
        for cell in grid.cells() {
            cells += 1;
            for record in grid.run_cell(&cell).map_err(|e| e.to_string())? {
                body.push_str(&wire::encode_record(&record));
            }
        }
        Ok::<_, String>((hash_str(&body), cells))
    };
    // Two threads: the check can recompute a few hundred thousand cells.
    let half = ids.len().div_ceil(2);
    let computed = std::thread::scope(|s| {
        let handles: Vec<_> = ids
            .chunks(half.max(1))
            .map(|chunk| s.spawn(move || chunk.iter().map(local).collect::<Result<Vec<_>, _>>()))
            .collect();
        let mut all = Vec::with_capacity(ids.len());
        for h in handles {
            all.extend(
                h.join()
                    .map_err(|_| "a check thread panicked".to_string())??,
            );
        }
        Ok::<_, String>(all)
    })?;
    let expected: BTreeMap<(usize, u64), (u64, usize)> = ids.into_iter().zip(computed).collect();
    let mut mismatches = 0;
    for op in ops.iter().filter(|op| op.status == Status::Ok) {
        if let Some(id) = op.grid {
            if expected[&id].0 != op.body {
                mismatches += 1;
            }
        }
    }
    let cold_cells = expected
        .iter()
        .filter(|((_, seed), _)| *seed != fx.warm_seed)
        .map(|(_, (_, cells))| cells)
        .sum();
    Ok((mismatches, cold_cells))
}

/// Latencies (ms) of the successful operations of one kind.
pub fn latencies(ops: &[Op], kind: Kind) -> Vec<f64> {
    ops.iter()
        .filter(|op| op.status == Status::Ok && op.kind == kind)
        .map(|op| op.ms)
        .collect()
}

/// Per-layer figures of one window (see `trace.rs`).
pub struct Layers {
    pub warm_hit_ratio: f64,
    pub computes_per_cold_cell: f64,
    pub busy_frac: f64,
}

/// Checks a window's outputs into `out` and returns its layer figures.
pub fn account(fx: &Fixture, w: &Window, out: &mut Outcome) -> Result<Layers, String> {
    let (mismatches, cold_cells) = check_bodies(fx, &w.ops)?;
    let busy = w.ops.iter().filter(|op| op.status == Status::Busy).count() as u64;
    let errors = w.ops.iter().filter(|op| op.status == Status::Error).count() as u64;
    out.attempted += w.ops.len() as u64;
    out.failed += busy + errors + mismatches;
    if mismatches > 0 {
        out.fail(format!(
            "{mismatches} GRID responses differ from the local encoding"
        ));
    }
    let warm: Vec<&Op> = w
        .ops
        .iter()
        .filter(|op| op.kind == Kind::Warm && op.status == Status::Ok)
        .collect();
    let warm_hits: usize = warm.iter().map(|op| op.hits).sum();
    let warm_cells: usize = warm.iter().map(|op| op.cells).sum();
    let computes = w.after.misses - w.before.misses;
    for kind in [Kind::Ping, Kind::Warm, Kind::Cold] {
        describe(&format!("countd {kind:?}"), &latencies(&w.ops, kind));
    }
    eprintln!(
        "perfbench: countd window {:.2} s: {} ops, {busy} busy, {errors} errors, \
         {computes} computes for {cold_cells} distinct cold cells",
        w.wall_s,
        w.ops.len()
    );
    Ok(Layers {
        warm_hit_ratio: warm_hits as f64 / warm_cells as f64,
        computes_per_cold_cell: computes as f64 / cold_cells as f64,
        busy_frac: busy as f64 / w.ops.len() as f64,
    })
}
