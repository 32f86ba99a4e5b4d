//! `repro bench` — the performance harness that tracks the measurement
//! engine's throughput across PRs.
//!
//! Three representative workloads are timed:
//!
//! 1. **`null_grid`** — the full §3 factorial sweep on the null benchmark,
//!    batch engine. Run on both boot policies: `fresh` (one simulated
//!    stack boot per run — the equivalence oracle, performance-equivalent
//!    to the pre-PR engine within measurement noise) and `session` (boot
//!    once per cell, reseed per repetition). The record vectors are
//!    asserted bit-identical before the speedup is reported.
//! 2. **`fig7_duration`** — the Figure 7 slope sweep (long loops), on the
//!    session engine. Boot cost is a small fraction here; the number
//!    documents that the session path does not regress sim-heavy sweeps.
//! 3. **`csv_stream`** — the streaming CSV export of the full null grid,
//!    both boot policies, outputs checksum-compared.
//! 4. **`workload_zoo`** — the `workload-accuracy` sweep (every zoo
//!    kernel × oracle event × interface): the session engine against its
//!    fresh-boot oracle, record vectors asserted bit-identical before the
//!    speedup is reported.
//! 5. **`served_grid`** (`--served`) — the same null grid requested from
//!    an in-process countd ([`counterlab::serve`]): one cold request
//!    (all cells computed, cache filled) and the best of three warm
//!    requests (all cells served from the content-addressed cache). The
//!    served bytes are asserted identical to the local fresh-boot
//!    encoding before any number is reported; `warm_speedup_vs_fresh`
//!    documents the cache-hit throughput against local recompute.
//! 6. **`served_latency`** (`--served`) — the protocol round-trip cost:
//!    connect + `PING`/`PONG` per iteration with `TCP_NODELAY` on both
//!    halves, so the wire overhead is measured, not assumed.
//!
//! With `--chaos-seed` the served workloads run against a countd that
//! injects deterministic faults ([`counterlab::fault::FaultPlan`]); the
//! cache-population assertions are relaxed (retries legitimately split
//! a cold fill across attempts) but byte identity still holds for every
//! response that succeeds.
//!
//! Results are written as machine-readable JSON (`BENCH_8.json` by
//! default; `--json PATH` overrides) so CI can archive one artifact per
//! PR and the perf trajectory accumulates. Allocation counts per run come
//! from a counting global allocator and document the hot-loop hoisting:
//! the session path performs an order of magnitude fewer allocations per
//! repetition than the fresh-boot path.

#![expect(clippy::disallowed_methods, reason = "a benchmark's timings are wall-clock reads")]

use std::path::Path;
use std::time::Instant;

use counterlab::cpu::uarch::Processor;
use counterlab::exec::RunOptions;
use counterlab::experiment::Scale;
use counterlab::experiments::duration::{run_slopes_with, DEFAULT_SIZES};
use counterlab::grid::Grid;
use counterlab::interface::{CountingMode, Interface};

/// Counting global allocator: relaxed-atomic call counts around the
/// system allocator, so the harness can report allocations per
/// measurement run. The counter has no effect on allocation behavior.
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    // Relaxed throughout: an allocation tally read only after the timed
    // section joins; per-call ordering is irrelevant.
    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    struct Counting;

    #[expect(unsafe_code, reason = "a GlobalAlloc impl is unsafe by definition")]
    // SAFETY: every method delegates directly to the system allocator
    // with the caller's layout; the counter is side-effect-free.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    /// Allocation calls since process start.
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// One timed engine pass.
struct Pass {
    wall_ms: f64,
    runs: usize,
    runs_per_sec: f64,
    allocs_per_run: f64,
}

impl Pass {
    fn json(&self) -> String {
        format!(
            "{{\"wall_ms\": {:.1}, \"runs\": {}, \"runs_per_sec\": {:.0}, \"allocs_per_run\": {:.1}}}",
            self.wall_ms, self.runs, self.runs_per_sec, self.allocs_per_run
        )
    }
}

/// Times `f`, attributing its wall clock and allocation count to `runs`
/// measurement runs.
fn timed<R>(runs: usize, f: impl FnOnce() -> R) -> (R, Pass) {
    let allocs0 = alloc_count::allocations();
    let t0 = Instant::now();
    let result = f();
    let wall = t0.elapsed().as_secs_f64();
    let allocs = alloc_count::allocations() - allocs0;
    (
        result,
        Pass {
            wall_ms: wall * 1e3,
            runs,
            runs_per_sec: runs as f64 / wall.max(1e-9),
            allocs_per_run: allocs as f64 / runs.max(1) as f64,
        },
    )
}

/// FNV-1a over the streamed CSV bytes: identity check without holding the
/// full output.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Network shaping for the served workload, straight from the CLI's
/// `--timeout`/`--retries`/`--chaos-seed` flags. `chaos_seed` carries
/// `(seed, permille)`; `None` everywhere means production defaults.
pub struct NetOptions {
    pub timeout_ms: Option<u64>,
    pub retries: Option<u32>,
    pub chaos_seed: Option<(u64, u64)>,
}

/// Runs the harness and writes `json_path`.
///
/// # Errors
///
/// Measurement failures, an equivalence mismatch between the boot
/// policies, and JSON write failures are reported as strings (the CLI's
/// error convention).
pub fn run(
    scale_name: &str,
    scale: Scale,
    jobs: usize,
    json_path: &Path,
    served: bool,
    net: &NetOptions,
) -> Result<(), String> {
    let opts = RunOptions::with_jobs(jobs);
    let err = |e: counterlab::CoreError| e.to_string();
    let mut workloads = Vec::new();

    // 1. Full null grid, batch engine, both boot policies. The bench
    // floor of 16 repetitions per cell keeps the quick scale meaningful:
    // with one repetition per cell there is nothing for a session to
    // reuse, while the paper's own grid pools ~88 runs per cell (170 000
    // measurements over ~1 920 configurations).
    let reps = scale.grid_reps.max(16);
    let mut grid = Grid::full_null(reps);
    let cells = grid.cell_count();
    let runs = cells * reps;
    eprintln!("bench: null_grid ({cells} cells x {reps} reps, {runs} runs)");
    grid.fresh_boot = true;
    let (fresh_records, fresh) = timed(runs, || grid.run_with(&opts));
    let fresh_records = fresh_records.map_err(err)?;
    grid.fresh_boot = false;
    let (session_records, session) = timed(runs, || grid.run_with(&opts));
    let session_records = session_records.map_err(err)?;
    if fresh_records != session_records {
        return Err("bench: session records diverged from fresh-boot records".into());
    }
    // The wire encoding of the fresh run is the byte-identity oracle for
    // the served workload below.
    let local_body = served.then(|| {
        let mut body = String::with_capacity(fresh_records.len() * 48);
        for record in &fresh_records {
            counterlab::wire::encode_record_into(&mut body, record);
        }
        body
    });
    drop((fresh_records, session_records));
    let speedup = session.runs_per_sec / fresh.runs_per_sec;
    eprintln!(
        "bench: null_grid fresh {:.0} runs/s, session {:.0} runs/s ({speedup:.2}x), \
         allocs/run {:.1} -> {:.1}",
        fresh.runs_per_sec, session.runs_per_sec, fresh.allocs_per_run, session.allocs_per_run
    );
    workloads.push(format!(
        "    {{\"name\": \"null_grid\", \"cells\": {cells}, \"reps\": {reps}, \
         \"fresh\": {}, \"session\": {}, \"speedup\": {speedup:.2}}}",
        fresh.json(),
        session.json()
    ));

    // 2. Figure 7 duration sweep (session engine; long loops dominate).
    let dreps = scale.duration_reps.max(1);
    let druns = Interface::ALL.len() * Processor::ALL.len() * DEFAULT_SIZES.len() * dreps;
    eprintln!("bench: fig7_duration ({druns} runs)");
    let (fig, dpass) = timed(druns, || {
        run_slopes_with(CountingMode::UserKernel, &DEFAULT_SIZES, dreps, 250, &opts)
    });
    let fig = fig.map_err(err)?;
    eprintln!(
        "bench: fig7_duration {:.1} ms, {:.0} runs/s",
        dpass.wall_ms, dpass.runs_per_sec
    );
    workloads.push(format!(
        "    {{\"name\": \"fig7_duration\", \"slope_cells\": {}, \"session\": {}}}",
        fig.cells.len(),
        dpass.json()
    ));

    // 3. Streaming CSV of the full null grid, both boot policies.
    eprintln!("bench: csv_stream ({runs} records)");
    let stream = |grid: &Grid| {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut bytes = 0usize;
        let n = grid.run_csv(&opts, |line| {
            bytes += line.len();
            fnv1a(&mut hash, line.as_bytes());
        })?;
        Ok::<_, counterlab::CoreError>((n, bytes, hash))
    };
    grid.fresh_boot = true;
    let (cf, csv_fresh) = timed(runs, || stream(&grid));
    let cf = cf.map_err(err)?;
    grid.fresh_boot = false;
    let (cs, csv_session) = timed(runs, || stream(&grid));
    let cs = cs.map_err(err)?;
    if cf != cs {
        return Err("bench: streamed CSV diverged between boot policies".into());
    }
    let csv_speedup = csv_session.runs_per_sec / csv_fresh.runs_per_sec;
    eprintln!(
        "bench: csv_stream fresh {:.0} rec/s, session {:.0} rec/s ({csv_speedup:.2}x)",
        csv_fresh.runs_per_sec, csv_session.runs_per_sec
    );
    workloads.push(format!(
        "    {{\"name\": \"csv_stream\", \"records\": {}, \"bytes\": {}, \
         \"fresh\": {}, \"session\": {}, \"speedup\": {csv_speedup:.2}}}",
        cs.0,
        cs.1,
        csv_fresh.json(),
        csv_session.json()
    ));

    // 4. The workload-accuracy zoo sweep: session engine vs its
    // fresh-boot oracle. The zoo's heavier kernels (pointer chase, syscalls)
    // exercise simulation paths the null grid never touches.
    let zreps = scale.grid_reps.max(counterlab::experiments::workload::WorkloadAccuracy::MIN_REPS);
    let zcells = counterlab::experiments::workload::cells().len();
    let zruns = zcells * zreps;
    eprintln!("bench: workload_zoo ({zcells} cells x {zreps} reps, {zruns} runs)");
    let (zoo_fresh_fig, zoo_fresh) = timed(zruns, || {
        counterlab::experiments::workload::run_streaming_with(zreps, &opts)
    });
    let zoo_fresh_fig = zoo_fresh_fig.map_err(err)?;
    let (zoo_session_fig, zoo_session) = timed(zruns, || {
        counterlab::experiments::workload::run_with(zreps, &opts)
    });
    let zoo_session_fig = zoo_session_fig.map_err(err)?;
    if zoo_fresh_fig.records != zoo_session_fig.records {
        return Err("bench: workload_zoo session records diverged from fresh-boot records".into());
    }
    drop((zoo_fresh_fig, zoo_session_fig));
    let zoo_speedup = zoo_session.runs_per_sec / zoo_fresh.runs_per_sec;
    eprintln!(
        "bench: workload_zoo fresh {:.0} runs/s, session {:.0} runs/s ({zoo_speedup:.2}x)",
        zoo_fresh.runs_per_sec, zoo_session.runs_per_sec
    );
    workloads.push(format!(
        "    {{\"name\": \"workload_zoo\", \"cells\": {zcells}, \"reps\": {zreps}, \
         \"fresh\": {}, \"session\": {}, \"speedup\": {zoo_speedup:.2}}}",
        zoo_fresh.json(),
        zoo_session.json()
    ));

    // 5. (--served) The null grid over countd: cold fill, warm cache hits.
    if let Some(local_body) = local_body {
        use counterlab::exec::Priority;
        use counterlab::fault::FaultPlan;
        use counterlab::serve::{self, ServeConfig, Server};
        use std::sync::Arc;
        let chaos = net.chaos_seed.is_some();
        let copts = crate::call_options(net.timeout_ms, net.retries);
        // Request the session grid, as `repro client grid` does, so the
        // timed fill lands under the cache keys real clients use. Its
        // records are bit-identical to the fresh-boot oracle's (asserted
        // above), so `local_body` still applies.
        grid.fresh_boot = false;
        eprintln!(
            "bench: served_grid ({runs} runs over countd, memory cache{})",
            if chaos { ", CHAOS MODE" } else { "" }
        );
        let mut config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: jobs,
            ..ServeConfig::default()
        };
        if let Some(ms) = net.timeout_ms {
            config.read_timeout_ms = ms;
            config.write_timeout_ms = ms;
        }
        config.fault = net
            .chaos_seed
            .map(|(seed, permille)| Arc::new(FaultPlan::new(seed, permille)));
        let server = Server::spawn(config).map_err(err)?;
        let addr = server.addr().to_string();
        // Under chaos a cold attempt can fail even after retries; keep
        // asking (each attempt makes cache progress) within a bound.
        let mut cold_attempt = 0usize;
        let (cold_meta, cold_body, cold) = loop {
            cold_attempt += 1;
            let (cold_result, cold) = timed(runs, || {
                serve::request_grid_raw_with(&addr, &grid, Priority::Bulk, &copts)
            });
            match cold_result {
                Ok((meta, body)) => break (meta, body, cold),
                Err(e) if chaos && cold_attempt < 10 => {
                    eprintln!("bench: served_grid cold attempt {cold_attempt} failed: {e}");
                }
                Err(e) => return Err(err(e)),
            }
        };
        // Retries may split a cold fill across attempts, so exact
        // hit/miss accounting only holds on the fault-free path.
        if !chaos && cold_meta.misses != cells {
            return Err(format!(
                "bench: expected a cold cache, got {} hits",
                cold_meta.hits
            ));
        }
        if cold_body != local_body {
            return Err("bench: served records diverged from the local run".into());
        }
        let mut warm: Option<Pass> = None;
        for _ in 0..3 {
            let (result, pass) = timed(runs, || {
                serve::request_grid_raw_with(&addr, &grid, Priority::Interactive, &copts)
            });
            let (meta, body) = match result {
                Ok(ok) => ok,
                Err(e) if chaos => {
                    eprintln!("bench: served_grid warm pass failed: {e}");
                    continue;
                }
                Err(e) => return Err(err(e)),
            };
            if !chaos && meta.hits != cells {
                return Err("bench: warm request missed the cache".into());
            }
            if body != local_body {
                return Err("bench: cached records diverged from the local run".into());
            }
            if warm
                .as_ref()
                .is_none_or(|best| pass.runs_per_sec > best.runs_per_sec)
            {
                warm = Some(pass);
            }
        }
        let warm = warm.ok_or("bench: no warm pass succeeded")?;
        let warm_speedup = warm.runs_per_sec / fresh.runs_per_sec;
        eprintln!(
            "bench: served_grid cold {:.0} runs/s, warm {:.0} runs/s \
             ({warm_speedup:.1}x vs local fresh recompute)",
            cold.runs_per_sec, warm.runs_per_sec
        );
        workloads.push(format!(
            "    {{\"name\": \"served_grid\", \"cells\": {cells}, \"reps\": {reps}, \
             \"chaos\": {chaos}, \"cold\": {}, \"warm\": {}, \
             \"warm_speedup_vs_fresh\": {warm_speedup:.1}}}",
            cold.json(),
            warm.json()
        ));

        // 6. Protocol round-trip latency: connect + PING/PONG per
        // iteration. TCP_NODELAY on both halves makes this the honest
        // wire cost of one request — no Nagle batching hiding it.
        let pings = 200usize;
        eprintln!("bench: served_latency ({pings} ping round-trips)");
        let mut ok = 0usize;
        let t0 = Instant::now();
        for _ in 0..pings {
            match serve::request_ping_with(&addr, &copts) {
                Ok(()) => ok += 1,
                Err(e) if chaos => {
                    let _ = e.is_retryable();
                }
                Err(e) => return Err(err(e)),
            }
        }
        let mean_us = t0.elapsed().as_secs_f64() * 1e6 / pings as f64;
        eprintln!("bench: served_latency mean {mean_us:.1} us/round-trip ({ok}/{pings} ok)");
        workloads.push(format!(
            "    {{\"name\": \"served_latency\", \"pings\": {pings}, \"ok\": {ok}, \
             \"chaos\": {chaos}, \"mean_round_trip_us\": {mean_us:.1}}}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"counterlab repro bench\",\n  \"schema\": 1,\n  \
         \"scale\": \"{scale_name}\",\n  \"jobs\": {},\n  \
         \"note\": \"fresh = one stack boot per run (the equivalence oracle; performance-\
         equivalent to the pre-PR engine within noise); session = boot once per cell, \
         reseed per repetition; record streams asserted bit-identical before speedups \
         are reported; single runs on shared hardware are noisy — compare trends, not \
         single samples\",\n  \
         \"workloads\": [\n{}\n  ]\n}}\n",
        opts.effective_jobs(runs),
        workloads.join(",\n")
    );
    std::fs::write(json_path, &json)
        .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    println!("wrote {}", json_path.display());
    Ok(())
}
