//! countd end-to-end: the served bytes ARE the local bytes.
//!
//! The daemon's whole correctness story reduces to one oracle: whatever
//! a client receives — computed cold, served from the memory tier,
//! revived from disk, at any worker count — must be byte-identical to
//! the wire encoding of a local fresh-boot [`Grid`] run. These tests
//! hold every serving path to that oracle over a real TCP socket on an
//! ephemeral port, and verify the failure paths (poisoned disk entries,
//! invalid grids) degrade loudly instead of serving garbage.

use std::thread;

use counterlab::benchmark::Benchmark;
use counterlab::exec::{Priority, RunOptions};
use counterlab::grid::Grid;
use counterlab::interface::{CountingMode, Interface};
use counterlab::pattern::Pattern;
use counterlab::serve::{self, CacheConfig, ServeConfig, Server};
use counterlab::wire;

/// A representative slice of the factorial space: two interfaces, two
/// patterns, two modes, both counter counts — 16 cells, 3 reps.
fn test_grid() -> Grid {
    let mut grid = Grid::new(Benchmark::Loop { iters: 500 });
    grid.interfaces = vec![Interface::Pm, Interface::PLpc];
    grid.patterns = vec![Pattern::StartRead, Pattern::ReadRead];
    grid.modes = vec![CountingMode::User, CountingMode::UserKernel];
    grid.reps = 3;
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

fn spawn(workers: usize, dir: Option<std::path::PathBuf>) -> Server {
    Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        cache: CacheConfig {
            dir,
            ..CacheConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("spawn countd")
}

/// Acceptance criterion: at 1 worker and at 4 workers, a cold request
/// computes every cell and a warm request serves every cell from the
/// cache — and in all four cases the response is byte-identical to the
/// local fresh-boot run. The two warm clients run concurrently, one per
/// scheduling class.
#[test]
fn served_bytes_equal_local_fresh_boot_at_1_and_4_workers() {
    let grid = test_grid();
    let expected = local_body(&grid);
    let cells = grid.cell_count();
    for workers in [1usize, 4] {
        let server = spawn(workers, None);
        let addr = server.addr().to_string();

        // Client 1, cold: every cell is a miss, computed on the pool.
        let (meta, body) =
            serve::request_grid_raw(&addr, &grid, Priority::Bulk).expect("cold request");
        assert_eq!(meta.cells, cells);
        assert_eq!(meta.misses, cells, "cold cache at {workers} workers");
        assert_eq!(meta.hits, 0);
        assert_eq!(body, expected, "cold response diverged at {workers} workers");

        // Clients 2 and 3, concurrent and warm: pure cache hits.
        let handles: Vec<_> = [Priority::Interactive, Priority::Bulk]
            .into_iter()
            .map(|priority| {
                let addr = addr.clone();
                let grid = grid.clone();
                thread::spawn(move || serve::request_grid_raw(&addr, &grid, priority))
            })
            .collect();
        for handle in handles {
            let (meta, body) = handle.join().expect("client thread").expect("warm request");
            assert_eq!(meta.hits, cells, "warm request must be fully cached");
            assert_eq!(meta.misses, 0);
            assert_eq!(body, expected, "cached response diverged at {workers} workers");
        }

        // The hit counter on the stats endpoint confirms it server-side:
        // one cold pass of misses, two warm passes of hits.
        let stats = serve::request_stats(&addr).expect("stats");
        assert_eq!(stats.misses, cells as u64);
        assert_eq!(stats.hits, 2 * cells as u64);
        assert_eq!(stats.grids, 3);
        assert_eq!(stats.workers, workers as u64);
    }
}

/// The disk tier survives a server restart, and a corrupted entry never
/// reaches a client: the startup recovery scan checksums every entry and
/// quarantines the damaged one before the server takes traffic, so the
/// cell is simply recomputed. (The in-flight read-path defense — detect,
/// count as `poisoned`, discard — is pinned by the serve unit tests.)
#[test]
fn poisoned_disk_entry_is_recomputed_not_served() {
    let dir = std::env::temp_dir().join(format!("countd-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let grid = test_grid();
    let expected = local_body(&grid);
    let cells = grid.cell_count();

    // Fill the disk tier and stop the server.
    {
        let mut server = spawn(2, Some(dir.clone()));
        let addr = server.addr().to_string();
        let (_, body) =
            serve::request_grid_raw(&addr, &grid, Priority::Interactive).expect("fill request");
        assert_eq!(body, expected);
        server.stop();
    }
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "cell"))
        .collect();
    assert_eq!(entries.len(), cells, "one disk entry per cell");

    // Corrupt one entry, restart with a cold memory tier.
    serve::corrupt_disk_entry(&entries[0]).expect("corrupt entry");
    let mut server = spawn(2, Some(dir.clone()));
    let addr = server.addr().to_string();
    assert_eq!(
        server.quarantined(),
        1,
        "the recovery scan quarantines the damaged entry before traffic"
    );
    let (meta, body) =
        serve::request_grid_raw(&addr, &grid, Priority::Interactive).expect("request");
    assert_eq!(
        body, expected,
        "a poisoned cache may cost time, never wrong bytes"
    );
    assert_eq!(meta.hits, cells - 1, "intact entries revive from disk");
    assert_eq!(meta.misses, 1, "the quarantined cell is recomputed");
    let stats = serve::request_stats(&addr).expect("stats");
    assert_eq!(
        stats.poisoned, 0,
        "the scan caught the damage before the read path ever saw it"
    );
    assert_eq!(stats.disk_hits, cells as u64 - 1);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hardening seam: an invalid grid (a zero counter count, PR 6's typed
/// error) crosses the wire as a server-reported error carrying the typed
/// message — not an empty result, not a hang — and the connection
/// teardown leaves the server healthy.
#[test]
fn zero_counter_grid_is_a_typed_error_over_the_wire() {
    let mut grid = test_grid();
    grid.counter_counts = vec![0];
    let server = spawn(1, None);
    let addr = server.addr().to_string();
    let err = serve::request_grid(&addr, &grid, Priority::Interactive)
        .expect_err("zero counters must be rejected");
    assert!(
        err.to_string().contains("zero hardware counters"),
        "typed message must survive the wire: {err}"
    );
    serve::request_ping(&addr).expect("server healthy after the error");
    drop(server); // Drop stops the accept loop and joins the handlers.
}
