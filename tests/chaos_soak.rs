//! Chaos soak: countd under a seeded fault plan degrades, never dies.
//!
//! The server runs with ~35 % of its wire writes, disk-cache writes and
//! worker-side cell computations failing on a schedule derived purely
//! from a seed ([`counterlab::fault::FaultPlan`]). The invariants held
//! here are the daemon's whole robustness contract:
//!
//! * every client call returns within its deadline budget — no hangs,
//!   no deadlocks, at 1, 2 and 4 workers;
//! * every *successful* grid response is byte-identical to a local
//!   fresh-boot run — faults may cost retries, never wrong bytes;
//! * after the soak the server has drained (zero active connections)
//!   and still answers stats — nothing leaked, nothing wedged.
//!
//! Reproduction contract: the schedule is a pure function of the seed,
//! which is printed at the start of every soak. Replay a failure with
//! `COUNTD_CHAOS_SEED=<seed> cargo test --test chaos_soak`.

#![expect(clippy::disallowed_methods, reason = "the soak asserts wall-clock deadline budgets")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use counterlab::benchmark::Benchmark;
use counterlab::exec::{Priority, RunOptions};
use counterlab::fault::FaultPlan;
use counterlab::grid::Grid;
use counterlab::interface::{CountingMode, Interface};
use counterlab::pattern::Pattern;
use counterlab::serve::{self, CacheConfig, CallOptions, ServeConfig, Server};
use counterlab::wire;
use counterlab::CoreError;

const DEFAULT_SEED: u64 = 0x5EED_C0DE_2009;
const FAULT_PERMILLE: u64 = 350;
const CYCLES: usize = 100;

fn chaos_seed() -> u64 {
    std::env::var("COUNTD_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// A small but non-trivial slice: 2 cells (both counter counts), 2 reps.
fn soak_grid() -> Grid {
    let mut grid = Grid::new(Benchmark::Loop { iters: 100 });
    grid.interfaces = vec![Interface::Pm];
    grid.patterns = vec![Pattern::StartRead];
    grid.modes = vec![CountingMode::User];
    grid.reps = 2;
    grid.fresh_boot = true;
    grid
}

/// The oracle: the wire encoding of a local, sequential, fresh-boot run.
fn local_body(grid: &Grid) -> String {
    let records = grid.run_with(&RunOptions::sequential()).expect("local run");
    let mut body = String::new();
    for record in &records {
        wire::encode_record_into(&mut body, record);
    }
    body
}

fn chaos_config(workers: usize, seed: u64, dir: std::path::PathBuf) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        cache: CacheConfig {
            dir: Some(dir),
            ..CacheConfig::default()
        },
        read_timeout_ms: 2_000,
        write_timeout_ms: 2_000,
        request_deadline_ms: 5_000,
        max_connections: 8,
        max_queue: 64,
        fault: Some(Arc::new(FaultPlan::new(seed, FAULT_PERMILLE))),
    }
}

fn soak_call_options(seed: u64) -> CallOptions {
    CallOptions {
        retries: 4,
        deadline_ms: 4_000,
        backoff_base_ms: 5,
        seed,
        socket_timeout_ms: 1_000,
    }
}

/// Worst admissible wall time for one call: the overall retry deadline,
/// plus one socket timeout per attempt that the deadline check can only
/// observe *after* the attempt returns, plus scheduling slack.
fn hard_cap(opts: &CallOptions) -> Duration {
    let attempts = u64::from(opts.retries) + 1;
    Duration::from_millis(opts.deadline_ms + attempts * opts.socket_timeout_ms + 1_000)
}

/// Polls the live-connection gauge down to zero: the drained server is
/// the proof that no faulted connection leaked a handler thread.
fn assert_drains(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.active_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "server failed to drain: {} connections still active",
            server.active_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn chaos_soak_holds_deadlines_and_byte_identity() {
    let seed = chaos_seed();
    eprintln!("chaos_soak: seed={seed} (replay with COUNTD_CHAOS_SEED={seed})");
    let grid = soak_grid();
    let expected = local_body(&grid);
    let opts = soak_call_options(seed);
    let cap = hard_cap(&opts);

    for workers in [1usize, 2, 4] {
        let dir = std::env::temp_dir().join(format!(
            "countd-chaos-{}-w{workers}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut server =
            Server::spawn(chaos_config(workers, seed, dir.clone())).expect("spawn countd");
        let addr = server.addr().to_string();

        let mut successes = 0usize;
        let mut failures = 0usize;
        for cycle in 0..CYCLES {
            let started = Instant::now();
            let outcome = serve::request_grid_raw_with(&addr, &grid, Priority::Interactive, &opts);
            let elapsed = started.elapsed();
            assert!(
                elapsed < cap,
                "workers={workers} cycle={cycle}: call took {elapsed:?}, cap {cap:?}"
            );
            match outcome {
                Ok((meta, body)) => {
                    successes += 1;
                    assert_eq!(meta.records, grid.cell_count() * grid.reps);
                    assert_eq!(
                        body, expected,
                        "workers={workers} cycle={cycle}: a faulted success must still \
                         be byte-identical to the local fresh-boot oracle"
                    );
                }
                Err(e) => {
                    failures += 1;
                    // Whatever failed, it failed *typed* — never a hang.
                    let _ = e.is_retryable();
                }
            }
            // Sprinkle control-plane calls through the same fault plan.
            if cycle % 10 == 0 {
                let started = Instant::now();
                let _ = serve::request_ping_with(&addr, &opts);
                assert!(started.elapsed() < cap, "ping exceeded the deadline budget");
            }
        }
        assert!(
            successes > CYCLES / 2,
            "workers={workers}: only {successes}/{CYCLES} calls succeeded under a \
             {FAULT_PERMILLE}-permille fault rate with retries"
        );
        eprintln!(
            "chaos_soak: workers={workers} successes={successes} failures={failures}"
        );

        // The server must have drained and must still be serving.
        assert_drains(&server);
        let stats = serve::request_stats_with(&addr, &opts).expect("stats after soak");
        // One request per attempt: more requests than client calls means
        // injected faults really did force retries through the wire.
        let client_calls = u64::try_from(CYCLES + CYCLES / 10 + 1).unwrap_or(u64::MAX);
        assert!(
            stats.requests > client_calls,
            "workers={workers}: {} requests for {client_calls} calls — the fault plan \
             never forced a retry; is it wired into the server?",
            stats.requests
        );
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn connection_cap_sheds_with_busy_and_recovers() {
    let mut server = Server::spawn(ServeConfig {
        max_connections: 2,
        // Long enough that the two parked connections outlive the probe.
        read_timeout_ms: 10_000,
        ..ServeConfig::default()
    })
    .expect("spawn countd");
    let addr = server.addr().to_string();

    // Park two idle connections: they hold the cap without sending a byte.
    #[expect(clippy::disallowed_methods, reason = "parked sockets must stay open and silent")]
    let parked: Vec<std::net::TcpStream> = (0..2)
        .map(|_| std::net::TcpStream::connect(&addr).expect("park connection"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(2);
    while server.active_connections() < 2 {
        assert!(Instant::now() < deadline, "parked connections never registered");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The third connection must be shed with the typed retryable BUSY —
    // no retries, so the shed surfaces instead of being papered over.
    let no_retry = CallOptions {
        retries: 0,
        ..CallOptions::default()
    };
    let err = serve::request_ping_with(&addr, &no_retry).expect_err("cap must shed");
    assert!(matches!(&err, CoreError::Busy(_)), "expected BUSY, got {err}");
    assert!(err.is_retryable());

    // Releasing the parked connections restores service.
    drop(parked);
    assert_drains(&server);
    serve::request_ping(&addr).expect("server recovered after shed");
    server.stop();
}
