//! `countd` — the measurement daemon behind `repro serve`.
//!
//! A dependency-free TCP server (std [`TcpListener`] plus the crate's
//! own [`PriorityPool`]) that answers [`Grid`] requests from a
//! **content-addressed result cache** and computes misses on a worker
//! pool shared across all connections:
//!
//! * Cache key: [`crate::wire::cell_key`] — a [`StreamHasher`] digest of
//!   the canonical cell identity (configuration, benchmark, repetition
//!   count, base seed, boot policy). Because every measurement in this
//!   laboratory is a pure function of that identity, a hit can be
//!   served **byte-identical** to a fresh [`Grid::run_cell`] run — the
//!   integration suite holds the daemon to exactly that oracle.
//! * Two tiers: an in-memory LRU (entry- and byte-capped) in front of
//!   an optional on-disk tier (`--cache-dir`). Disk entries carry a
//!   [`crate::wire::CACHE_MAGIC`] header with a payload checksum;
//!   corruption is detected on read, counted (`poisoned`), the entry
//!   discarded and the cell recomputed — a poisoned cache can cost
//!   time, never wrong bytes.
//! * Scheduling: every missing cell becomes one pool job, so a 3-cell
//!   interactive request overtakes a 500-cell bulk sweep at cell
//!   granularity instead of queueing behind it.
//!
//! [`StreamHasher`]: counterlab_cpu::hash::StreamHasher
//!
//! The client side lives here too ([`request_grid`], [`request_stats`],
//! …) so `repro client` and the tests speak through one implementation.
//!
//! # Failure model
//!
//! The daemon **degrades, never dies**: every accepted connection runs
//! under read/write deadlines, the accept loop caps live connections
//! and sheds the excess with a typed `BUSY` response, grid requests
//! carry a compute deadline and are shed (`BUSY`) when the worker pool
//! saturates, and one poisoned connection can never take down the
//! accept loop. On the client side every `request_*` call retries
//! retryable failures ([`CoreError::is_retryable`]) with seeded
//! exponential backoff under an overall deadline ([`CallOptions`]) —
//! safe because measurements are pure functions of their cell identity,
//! so a retry is idempotent by construction. The whole plane is
//! exercised by the seeded chaos suite via [`crate::fault::FaultPlan`].

// Serving path: a panic here kills a countd worker or a whole sweep, so every
// unwrap, expect, index or panic carries an `#[expect]` with its proof.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
// Wire and dispatch code: a silently truncated count or a catch-all arm over
// a protocol enum corrupts bytes without failing.
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
#![deny(clippy::wildcard_enum_match_arm)]

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use crate::config::MeasurementConfig;
use crate::counter::StatCounter;
use crate::exec::{Priority, PriorityPool, RunOptions};
use crate::experiment::{self, EngineMode, ExperimentCtx, Scale};
use crate::fault::{DiskFault, FaultPlan, FaultWriter};
use crate::grid::Grid;
use crate::measure::Record;
use crate::wire::{self, GridMeta, Request, ServeStats, WireArtifact};
use crate::{CoreError, Result};

fn serr(what: impl std::fmt::Display) -> CoreError {
    CoreError::Serve(what.to_string())
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

/// Sizing and placement of the result cache.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Entry cap of the in-memory tier.
    pub max_entries: usize,
    /// Byte cap (payload bytes) of the in-memory tier.
    pub max_bytes: usize,
    /// Directory of the on-disk tier; `None` disables it.
    pub dir: Option<PathBuf>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_entries: 4096,
            max_bytes: 64 << 20,
            dir: None,
        }
    }
}

/// Sequence number of disk-tier temp files, unique within the process.
static TMP_SEQ: StatCounter = StatCounter::new();

struct MemEntry {
    payload: Arc<String>,
    /// LRU stamp: monotone access clock, smallest evicts first.
    stamp: u64,
}

#[derive(Default)]
struct MemTier {
    /// Keyed by cell key. A `BTreeMap` (not `HashMap`) on purpose:
    /// iteration order is the key order, so eviction victim selection is
    /// deterministic across processes — `HashMap`'s per-process
    /// `RandomState` would make stamp ties break differently run to run.
    map: BTreeMap<u64, MemEntry>,
    bytes: usize,
    clock: u64,
}

/// The two-tier content-addressed cell cache. Thread-safe; one instance
/// is shared by every connection handler.
pub struct CellCache {
    mem: Mutex<MemTier>,
    config: CacheConfig,
    /// Fault-injection plan for disk writes; `None` in production.
    fault: Option<Arc<FaultPlan>>,
    /// Files moved aside by the startup recovery scan.
    quarantined: u64,
    hits: StatCounter,
    misses: StatCounter,
    disk_hits: StatCounter,
    poisoned: StatCounter,
}

impl CellCache {
    /// Creates the cache, creating the disk-tier directory if configured
    /// and running the startup recovery scan over it: orphaned `tmp`
    /// files (a writer crashed between write and rename) and entries
    /// failing their header/checksum re-verification are moved into a
    /// `quarantine/` subdirectory — kept for post-mortems, never served.
    ///
    /// # Errors
    ///
    /// [`CoreError::Serve`] if the directory cannot be created.
    pub fn new(config: CacheConfig) -> Result<Self> {
        let mut quarantined = 0;
        if let Some(dir) = &config.dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| serr(format!("creating cache dir {}: {e}", dir.display())))?;
            quarantined = recover_cache_dir(dir);
        }
        Ok(CellCache {
            mem: Mutex::new(MemTier::default()),
            config,
            fault: None,
            quarantined,
            hits: StatCounter::new(),
            misses: StatCounter::new(),
            disk_hits: StatCounter::new(),
            poisoned: StatCounter::new(),
        })
    }

    /// Locks the memory tier, recovering from a poisoned lock: the tier
    /// is a cache of immutable payloads behind complete insert/evict
    /// operations, so the state a panicking thread left behind is at
    /// worst under-evicted — continuing can cost memory, never bytes.
    ///
    /// This is the only place the mutex is taken. Callers never take
    /// another lock while the guard lives, so no lock order exists to
    /// get wrong.
    fn lock_mem(&self) -> MutexGuard<'_, MemTier> {
        self.mem.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn entry_path(&self, key: u64) -> Option<PathBuf> {
        self.config
            .dir
            .as_ref()
            .map(|d| d.join(format!("{key:016x}.cell")))
    }

    /// Looks `key` up in memory, then on disk. Counts a hit or a miss;
    /// a disk hit is promoted into the memory tier.
    pub fn get(&self, key: u64) -> Option<Arc<String>> {
        {
            let mut mem = self.lock_mem();
            mem.clock += 1;
            let clock = mem.clock;
            if let Some(entry) = mem.map.get_mut(&key) {
                entry.stamp = clock;
                self.hits.incr();
                return Some(Arc::clone(&entry.payload));
            }
        }
        if let Some(payload) = self.disk_read(key) {
            self.disk_hits.incr();
            self.hits.incr();
            let payload = Arc::new(payload);
            self.insert_mem(key, Arc::clone(&payload));
            return Some(payload);
        }
        self.misses.incr();
        None
    }

    /// Stores a freshly computed payload in both tiers.
    pub fn put(&self, key: u64, payload: Arc<String>) {
        self.disk_write(key, &payload);
        self.insert_mem(key, payload);
    }

    fn insert_mem(&self, key: u64, payload: Arc<String>) {
        let mut mem = self.lock_mem();
        mem.clock += 1;
        let stamp = mem.clock;
        if let Some(old) = mem.map.insert(key, MemEntry { payload: Arc::clone(&payload), stamp }) {
            mem.bytes -= old.payload.len();
        }
        mem.bytes += payload.len();
        // Evict least-recently-used entries until back under both caps.
        // (But never the entry just inserted, even if it alone exceeds
        // the byte cap — a cache that refuses oversized results would
        // silently degrade to recompute-always for big cells.)
        //
        // Victim choice is fully deterministic: smallest stamp wins, and
        // `min_by_key` keeps the *first* minimum of the BTreeMap's
        // key-ascending iteration, so stamp ties break toward the
        // smallest key — identical eviction pressure always leaves an
        // identical resident set.
        while mem.map.len() > self.config.max_entries.max(1)
            || (mem.bytes > self.config.max_bytes && mem.map.len() > 1)
        {
            let victim = mem
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k);
            let Some(evicted) = victim.and_then(|k| mem.map.remove(&k)) else {
                break;
            };
            mem.bytes -= evicted.payload.len();
        }
    }

    fn disk_read(&self, key: u64) -> Option<String> {
        let path = self.entry_path(key)?;
        let raw = std::fs::read_to_string(&path).ok()?;
        match parse_disk_entry(&raw) {
            Some(payload) => Some(payload.to_string()),
            None => {
                // Corrupted (truncated write, bit rot, tampering):
                // count it, drop it, let the caller recompute.
                self.poisoned.incr();
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    fn disk_write(&self, key: u64, payload: &str) {
        let Some(path) = self.entry_path(key) else {
            return;
        };
        let fault = self.fault.as_ref().and_then(|plan| plan.disk_fault());
        if fault == Some(DiskFault::Skip) {
            // Injected transient write failure: the tier silently skips
            // the entry, exactly like a real failed write below.
            return;
        }
        // Write-to-temp + rename so a crashed or concurrent writer can
        // never leave a half-entry under the final name. Disk-tier
        // failures are deliberately non-fatal: the server degrades to
        // memory-only caching rather than failing requests. The temp name
        // carries a per-process sequence number next to the pid: every
        // writer thread shares the pid, and two threads writing one key
        // through one temp file could tear each other's entry.
        let seq = TMP_SEQ.incr();
        let tmp = path.with_extension(format!("tmp.{:x}.{seq:x}", std::process::id()));
        let mut body = format!(
            "{} {:016x}\n{payload}",
            wire::CACHE_MAGIC,
            wire::cache_checksum(payload)
        )
        .into_bytes();
        match fault {
            // Torn write: only a prefix survives the simulated crash.
            Some(DiskFault::Torn) => body.truncate(body.len() / 2),
            // Media corruption: flip one byte after checksumming, so
            // the entry verifies false on read.
            Some(DiskFault::Corrupt) => {
                if let Some(byte) = body.last_mut() {
                    *byte ^= 0x41;
                }
            }
            Some(DiskFault::Skip) | None => {}
        }
        if std::fs::write(&tmp, body).is_ok() && std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Entries currently resident in the memory tier.
    pub fn mem_entries(&self) -> usize {
        self.lock_mem().map.len()
    }

    /// Resident cell keys of the memory tier, in key order.
    pub fn mem_keys(&self) -> Vec<u64> {
        self.lock_mem().map.keys().copied().collect()
    }

    /// Payload bytes currently resident in the memory tier.
    pub fn mem_bytes(&self) -> usize {
        self.lock_mem().bytes
    }

    /// Files the startup recovery scan moved into `quarantine/`
    /// (orphaned tmp files and entries failing re-verification).
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.hits.get(),
            self.misses.get(),
            self.disk_hits.get(),
            self.poisoned.get(),
        )
    }
}

/// Validates a disk entry's header and checksum, returning the payload.
fn parse_disk_entry(raw: &str) -> Option<&str> {
    let (header, payload) = raw.split_once('\n')?;
    let sum = header.strip_prefix(wire::CACHE_MAGIC)?.trim();
    let sum = u64::from_str_radix(sum, 16).ok()?;
    (sum == wire::cache_checksum(payload)).then_some(payload)
}

/// Startup recovery scan: moves orphaned `tmp` files (left by a writer
/// that died between write and rename) and entries failing their
/// header/checksum verification into `quarantine/`, returning how many
/// files were moved. A temp file whose writer is alive — a peer countd
/// sharing the directory, mid write — is left alone
/// ([`live_writer`]). Quarantined files are kept for post-mortems but
/// never served and never rescanned. Every step is best-effort: recovery
/// may degrade to doing nothing, because the read path re-verifies every
/// entry's checksum anyway — the scan exists so a crash's debris is
/// dealt with once at boot instead of poisoning reads one by one.
fn recover_cache_dir(dir: &Path) -> u64 {
    let quarantine = dir.join("quarantine");
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut moved = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            continue;
        }
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        let orphan = name.contains(".tmp.") && !live_writer(name);
        let poisoned = name.ends_with(".cell")
            && std::fs::read_to_string(&path)
                .ok()
                .as_deref()
                .and_then(parse_disk_entry)
                .is_none();
        if !(orphan || poisoned) {
            continue;
        }
        if std::fs::create_dir_all(&quarantine).is_ok()
            && std::fs::rename(&path, quarantine.join(name)).is_ok()
        {
            moved += 1;
        }
    }
    moved
}

/// Whether `name` is a `<key>.tmp.<pid>.<seq>` temp file (pid and seq in
/// hex, as `disk_write` names them) whose writer is a live process. Only
/// Linux can tell, through `/proc/<pid>`; elsewhere, and for any other
/// name, it is not.
fn live_writer(name: &str) -> bool {
    let parts: Vec<&str> = name.split('.').collect();
    let [_, "tmp", pid, seq] = parts.as_slice() else {
        return false;
    };
    cfg!(target_os = "linux")
        && u64::from_str_radix(seq, 16).is_ok()
        && u32::from_str_radix(pid, 16).is_ok_and(|pid| Path::new(&format!("/proc/{pid}")).exists())
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Server configuration (`repro serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `"127.0.0.1:6121"` (`:0` = ephemeral port).
    pub addr: String,
    /// Worker threads in the shared measurement pool (`0` = one per CPU).
    pub workers: usize,
    /// Result-cache sizing and disk tier.
    pub cache: CacheConfig,
    /// Per-connection socket read deadline in milliseconds (`0` = none).
    pub read_timeout_ms: u64,
    /// Per-connection socket write deadline in milliseconds (`0` = none).
    pub write_timeout_ms: u64,
    /// Per-request compute deadline for grid requests in milliseconds
    /// (`0` = none). On expiry the request is shed with `BUSY` and its
    /// unstarted cells abandoned.
    pub request_deadline_ms: u64,
    /// Maximum simultaneously live connections; the accept loop sheds
    /// the excess with `BUSY` instead of queueing them.
    pub max_connections: u64,
    /// Worker-pool queue-depth cap: a grid needing compute while the
    /// queue is already past this depth is shed with `BUSY` (degraded,
    /// cache-only mode). Purely cached requests always succeed.
    pub max_queue: usize,
    /// Fault-injection plan for the chaos suite; `None` in production.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            cache: CacheConfig::default(),
            read_timeout_ms: 10_000,
            write_timeout_ms: 10_000,
            request_deadline_ms: 30_000,
            max_connections: 64,
            max_queue: 1024,
            fault: None,
        }
    }
}

struct ServerShared {
    pool: PriorityPool,
    cache: CellCache,
    addr: SocketAddr,
    stop: AtomicBool,
    requests: StatCounter,
    grids: StatCounter,
    /// Live connection gauge, bounded by `max_connections`.
    active: StatCounter,
    read_timeout_ms: u64,
    write_timeout_ms: u64,
    request_deadline_ms: u64,
    max_connections: u64,
    max_queue: usize,
    fault: Option<Arc<FaultPlan>>,
}

impl ServerShared {
    fn stats(&self) -> ServeStats {
        let (hits, misses, disk_hits, poisoned) = self.cache.counters();
        // usize → u64 widening can only fail on a >64-bit usize, which
        // no supported target has; saturating keeps the stats path
        // cast- and panic-free either way.
        let wide = |n: usize| u64::try_from(n).unwrap_or(u64::MAX);
        ServeStats {
            requests: self.requests.get(),
            grids: self.grids.get(),
            hits,
            misses,
            disk_hits,
            poisoned,
            mem_entries: wide(self.cache.mem_entries()),
            mem_bytes: wide(self.cache.mem_bytes()),
            workers: wide(self.pool.workers()),
        }
    }
}

/// A running `countd` instance. Dropping it (or calling
/// [`Server::stop`]) shuts the accept loop down and joins every
/// connection handler.
pub struct Server {
    shared: Arc<ServerShared>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop and returns immediately.
    ///
    /// # Errors
    ///
    /// [`CoreError::Serve`] if the address cannot be bound or the cache
    /// directory cannot be created.
    pub fn spawn(config: ServeConfig) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| serr(format!("binding {}: {e}", config.addr)))?;
        let addr = listener.local_addr().map_err(serr)?;
        let mut cache = CellCache::new(config.cache)?;
        cache.fault = config.fault.clone();
        let shared = Arc::new(ServerShared {
            pool: PriorityPool::new(config.workers),
            cache,
            addr,
            stop: AtomicBool::new(false),
            requests: StatCounter::new(),
            grids: StatCounter::new(),
            active: StatCounter::new(),
            read_timeout_ms: config.read_timeout_ms,
            write_timeout_ms: config.write_timeout_ms,
            request_deadline_ms: config.request_deadline_ms,
            max_connections: config.max_connections.max(1),
            max_queue: config.max_queue,
            fault: config.fault,
        });
        let accept_shared = Arc::clone(&shared);
        let acceptor = thread::Builder::new()
            .name("countd-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .map_err(serr)?;
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the actual port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Current serving statistics.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Connections currently being handled. The chaos suite polls this
    /// to prove the server drains to zero after a faulted soak (no
    /// leaked handler threads); the value is advisory between reads.
    pub fn active_connections(&self) -> u64 {
        self.shared.active.get()
    }

    /// Files the startup recovery scan quarantined from the disk tier.
    pub fn quarantined(&self) -> u64 {
        self.shared.cache.quarantined()
    }

    /// Signals the accept loop to stop and joins it (and, transitively,
    /// every connection handler it spawned).
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Poke the (possibly blocked) acceptor with a throwaway
        // connection so it observes the flag.
        #[expect(clippy::disallowed_methods, reason = "shutdown poke: connect, drop, no I/O")]
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }

    /// Blocks until the server stops (a client `SHUTDOWN`, or
    /// [`Server::stop`] from another thread).
    pub fn join(mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop();
        }
    }
}

/// RAII increment of the live-connection gauge; the decrement in `Drop`
/// runs however the handler exits (success, error, panic unwind), so the
/// gauge can never leak upward and wedge the accept loop's cap check.
struct ConnGuard {
    shared: Arc<ServerShared>,
}

impl ConnGuard {
    fn new(shared: Arc<ServerShared>) -> ConnGuard {
        shared.active.add(1);
        ConnGuard { shared }
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.shared.active.sub(1);
    }
}

/// Converts a `0 = disabled` millisecond knob into a socket timeout.
fn deadline_of(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// Arms the per-connection socket deadlines. A connection we cannot
/// bound is a connection we refuse to serve: one stuck peer must never
/// pin a handler thread forever.
fn apply_deadlines(stream: &TcpStream, read_ms: u64, write_ms: u64) -> Result<()> {
    stream
        .set_read_timeout(deadline_of(read_ms))
        .map_err(|e| serr(format!("arming read deadline: {e}")))?;
    stream
        .set_write_timeout(deadline_of(write_ms))
        .map_err(|e| serr(format!("arming write deadline: {e}")))?;
    Ok(())
}

/// Refuses a connection over the cap with a typed `BUSY` response (best
/// effort — a shed peer that also stalls just gets dropped).
fn shed_connection(stream: TcpStream, write_ms: u64) {
    let _ = stream.set_write_timeout(deadline_of(write_ms));
    let mut writer = BufWriter::new(stream);
    let _ = wire::write_busy_response(&mut writer, "connection cap reached; retry");
    let _ = writer.flush();
}

/// The sleep before the next `accept` after `errors` consecutive accept
/// failures: none before the first, then 1 ms doubling to a 100 ms cap.
/// A persistent error such as `EMFILE` then parks the acceptor instead
/// of spinning a core, and a stop request is still seen within the cap.
fn accept_backoff(errors: u32) -> Duration {
    match errors {
        0 => Duration::ZERO,
        n => Duration::from_millis((1u64 << (n - 1).min(7)).min(100)),
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut errors = 0u32;
    while !shared.stop.load(Ordering::SeqCst) {
        #[expect(clippy::disallowed_methods, reason = "accepted streams get deadlines before I/O")]
        let Ok((stream, _)) = listener.accept() else {
            errors = errors.saturating_add(1);
            thread::sleep(accept_backoff(errors));
            continue;
        };
        errors = 0;
        if shared.stop.load(Ordering::SeqCst) {
            break; // `stream` is the shutdown poke.
        }
        // Load-shed above the connection cap rather than queueing
        // unboundedly: a typed BUSY tells well-behaved clients to back
        // off and retry.
        if shared.active.get() >= shared.max_connections {
            shed_connection(stream, shared.write_timeout_ms);
            continue;
        }
        let guard = ConnGuard::new(Arc::clone(shared));
        let shared = Arc::clone(shared);
        if let Ok(handle) = thread::Builder::new()
            .name("countd-conn".to_string())
            .spawn(move || {
                let _guard = guard;
                handle_connection(stream, &shared);
            })
        {
            handlers.push(handle);
        }
        // Reap finished handlers so a long-lived server doesn't
        // accumulate one JoinHandle per past connection.
        handlers.retain(|h| !h.is_finished());
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<ServerShared>) {
    let _ = stream.set_nodelay(true);
    if apply_deadlines(&stream, shared.read_timeout_ms, shared.write_timeout_ms).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    // One wire-fault decision per connection, drawn up front so the
    // whole response frame sees a consistent failure (a truncation
    // mid-header, a garbage prefix, a stall, a reset).
    let wire_fault = shared.fault.as_ref().and_then(|plan| plan.wire_fault());
    let mut writer = BufWriter::new(FaultWriter::new(stream, wire_fault));
    let request = match wire::read_request(&mut reader) {
        Ok(request) => request,
        Err(e) => {
            let _ = wire::write_error_response(&mut writer, &e);
            let _ = writer.flush();
            return;
        }
    };
    shared.requests.incr();
    let outcome = match request {
        Request::Ping => writeln!(writer, "{} OK kind=pong", wire::MAGIC).map_err(serr),
        Request::Stats => shared.stats().write(&mut writer).map_err(serr),
        Request::Shutdown => {
            let done = writeln!(writer, "{} OK kind=bye", wire::MAGIC).map_err(serr);
            let _ = writer.flush();
            shared.stop.store(true, Ordering::SeqCst);
            // Wake the acceptor.
            #[expect(clippy::disallowed_methods, reason = "shutdown poke: connect, drop, no I/O")]
            let _ = TcpStream::connect(shared.addr);
            done
        }
        Request::Grid { grid, priority } => handle_grid(&mut writer, shared, &grid, priority),
        Request::Experiment {
            id,
            scale,
            streaming,
        } => handle_experiment(&mut writer, &id, &scale, streaming),
    };
    // Shed outcomes go out as the typed retryable BUSY; everything else
    // as a deterministic (fatal-to-retry) ERR. Either way the failure is
    // confined to this connection.
    if let Err(e) = outcome {
        if let CoreError::Busy(reason) = &e {
            let _ = wire::write_busy_response(&mut writer, reason);
        } else {
            let _ = wire::write_error_response(&mut writer, &e);
        }
    }
    let _ = writer.flush();
}

/// Serves one grid request: cache lookups, pool-scheduled misses,
/// in-order streaming of the per-cell payloads.
fn handle_grid<W: Write>(
    writer: &mut W,
    shared: &Arc<ServerShared>,
    grid: &Grid,
    priority: Priority,
) -> Result<()> {
    shared.grids.incr();
    grid.validate()?;
    let cells: Vec<MeasurementConfig> = grid.cells().collect();
    let keys: Vec<u64> = cells
        .iter()
        .map(|c| wire::cell_key(c, grid.benchmark, grid.reps, grid.base_seed, grid.fresh_boot))
        .collect();
    let mut payloads: Vec<Option<Arc<String>>> =
        keys.iter().map(|&k| shared.cache.get(k)).collect();
    // Misses as (index, key, cell) triples, resolved up front so neither
    // the worker closures nor the receive loop index back into the
    // parallel vectors.
    let missing: Vec<(usize, u64, MeasurementConfig)> = payloads
        .iter()
        .zip(keys.iter().zip(&cells))
        .enumerate()
        .filter(|(_, (payload, _))| payload.is_none())
        .map(|(i, (_, (&key, &cell)))| (i, key, cell))
        .collect();

    // Degraded, cache-only mode: when the pool is already saturated,
    // requests answerable from cache alone still succeed (the lookups
    // above), but requests needing compute are shed with a retryable
    // BUSY instead of queueing unboundedly behind the backlog. The cap
    // gates on the *existing* backlog, not the request's own size — a
    // large cold grid on an idle pool is legitimate work, while any
    // request arriving behind a saturated queue is pile-up.
    if !missing.is_empty() {
        let queued = shared.pool.queued();
        if queued > shared.max_queue {
            return Err(CoreError::Busy(format!(
                "worker pool saturated ({queued} jobs queued, cap {}); \
                 shedding compute (cache-only degraded mode)",
                shared.max_queue
            )));
        }
    }

    // Compute every miss as one job on the shared pool; an interactive
    // request's cells jump ahead of queued bulk cells. Jobs write the
    // cache themselves, so cells finished after this request abandons
    // them (deadline shed below) still warm the cache for the retry.
    let (tx, rx) = mpsc::channel::<(usize, Result<Arc<String>>)>();
    let grid = Arc::new(grid.clone());
    let cancel = Arc::new(AtomicBool::new(false));
    for &(i, key, cell) in &missing {
        let tx = tx.clone();
        let grid = Arc::clone(&grid);
        let cancel = Arc::clone(&cancel);
        let job_shared = Arc::clone(shared);
        // Worker-fault decisions are drawn here, on the handler thread,
        // where cell enumeration order is deterministic — not in the
        // racing workers.
        let injected = shared.fault.as_ref().is_some_and(|plan| plan.worker_fault());
        shared.pool.submit(priority, move || {
            // Relaxed: cancel is a monotone abandon flag; a stale read only
            // delays the shed, never corrupts it.
            if cancel.load(Ordering::Relaxed) {
                return; // request already shed; don't waste the pool
            }
            let payload = if injected {
                Err(CoreError::Busy("injected transient worker fault".to_string()))
            } else {
                grid.run_cell(&cell).map(|records| {
                    let mut block = String::new();
                    for record in &records {
                        wire::encode_record_into(&mut block, record);
                    }
                    Arc::new(block)
                })
            };
            if let Ok(block) = &payload {
                job_shared.cache.put(key, Arc::clone(block));
            }
            let _ = tx.send((i, payload));
        });
    }
    drop(tx);
    // Collect under the per-request compute deadline: on expiry the
    // remaining cells are abandoned (the cancel flag keeps unstarted
    // jobs from wasting workers) and the request is shed with BUSY.
    #[expect(clippy::disallowed_methods, reason = "deadline accounting only; no result uses it")]
    let started = Instant::now();
    let deadline = deadline_of(shared.request_deadline_ms);
    let mut first_error: Option<(usize, CoreError)> = None;
    let mut outstanding = missing.len();
    while outstanding > 0 {
        let received = match deadline {
            None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
            // A saturating_sub that has hit zero still drains already-
            // delivered results before reporting Timeout.
            Some(limit) => rx.recv_timeout(limit.saturating_sub(started.elapsed())),
        };
        match received {
            Ok((i, Ok(payload))) => {
                outstanding -= 1;
                if let Some(slot) = payloads.get_mut(i) {
                    *slot = Some(payload);
                }
            }
            // Lowest cell index wins, matching the deterministic
            // error-reporting rule of the local engine.
            Ok((i, Err(e))) => {
                outstanding -= 1;
                if first_error.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_error = Some((i, e));
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                cancel.store(true, Ordering::SeqCst);
                return Err(CoreError::Busy(format!(
                    "request deadline of {}ms exceeded with {outstanding} cells outstanding; shed",
                    shared.request_deadline_ms
                )));
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(CoreError::Busy(format!(
                    "worker pool shut down with {outstanding} cells outstanding"
                )));
            }
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }

    let meta = GridMeta {
        cells: cells.len(),
        reps: grid.reps,
        records: cells.len() * grid.reps,
        hits: cells.len() - missing.len(),
        misses: missing.len(),
    };
    wire::write_grid_response_header(writer, &meta).map_err(serr)?;
    for payload in payloads.into_iter().flatten() {
        writer.write_all(payload.as_bytes()).map_err(serr)?;
    }
    writeln!(writer, ".").map_err(serr)?;
    Ok(())
}

fn handle_experiment<W: Write>(writer: &mut W, id: &str, scale: &str, streaming: bool) -> Result<()> {
    let exp = experiment::find(id)
        .ok_or_else(|| CoreError::Protocol(format!("unknown experiment {id:?}")))?;
    let scale = Scale::from_name(scale)
        .ok_or_else(|| CoreError::Protocol(format!("unknown scale {scale:?}")))?;
    let ctx = ExperimentCtx {
        scale,
        // Sequential: grid work is what the shared pool is for; the
        // occasional served experiment must not oversubscribe it.
        opts: RunOptions::sequential(),
        mode: if streaming {
            EngineMode::Streaming
        } else {
            EngineMode::Batch
        },
        ablations: Vec::new(),
    };
    let report = exp.run(&ctx)?;
    writeln!(writer, "{} OK kind=report id={}", wire::MAGIC, exp.id()).map_err(serr)?;
    wire::write_report(&mut *writer, report).map_err(|e| serr(format!("streaming report: {e}")))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Client-side robustness knobs shared by every `request_*_with` call:
/// how often to retry, how long to keep trying overall, and the socket
/// deadlines of each attempt. The defaults ([`CallOptions::default`])
/// are what the plain `request_*` functions use.
///
/// Retrying is always safe here: every countd request is idempotent by
/// construction (measurements are pure functions of their cell
/// identity), so the retry layer asks only whether a failure is worth
/// retrying ([`CoreError::is_retryable`]), never whether it is safe.
#[derive(Debug, Clone)]
pub struct CallOptions {
    /// Retries after the first attempt (`0` = single attempt).
    pub retries: u32,
    /// Overall deadline across all attempts and backoff sleeps, in
    /// milliseconds (`0` = none).
    pub deadline_ms: u64,
    /// Base backoff in milliseconds; attempt `n` sleeps
    /// `base * 2^n` plus seeded jitter in `[0, base)`.
    pub backoff_base_ms: u64,
    /// Seed for the backoff jitter — same seed, same sleep schedule,
    /// which is what makes chaos runs reproducible end to end.
    pub seed: u64,
    /// Per-attempt socket connect/read/write deadline in milliseconds
    /// (`0` = none).
    pub socket_timeout_ms: u64,
}

impl Default for CallOptions {
    fn default() -> Self {
        CallOptions {
            retries: 2,
            deadline_ms: 30_000,
            backoff_base_ms: 25,
            seed: 0x6121,
            socket_timeout_ms: 10_000,
        }
    }
}

/// Runs `attempt` under the retry policy: retryable failures are retried
/// with seeded exponential backoff until the retry budget or the overall
/// deadline runs out; fatal failures and successes return immediately.
fn with_retry<T>(opts: &CallOptions, mut attempt: impl FnMut() -> Result<T>) -> Result<T> {
    use counterlab_cpu::hash::{seed_combine, splitmix64};
    #[expect(clippy::disallowed_methods, reason = "deadline accounting only; no result uses it")]
    let started = Instant::now();
    let deadline = deadline_of(opts.deadline_ms);
    let mut tries = 0u32;
    loop {
        let err = match attempt() {
            Ok(value) => return Ok(value),
            Err(e) => e,
        };
        let budget_left = deadline.is_none_or(|limit| started.elapsed() < limit);
        if !err.is_retryable() || tries >= opts.retries || !budget_left {
            return Err(err);
        }
        let base = opts.backoff_base_ms.max(1);
        let jitter = splitmix64(seed_combine(opts.seed, u64::from(tries))) % base;
        let mut sleep = base
            .saturating_mul(1u64 << tries.min(10))
            .saturating_add(jitter);
        if let Some(limit) = deadline {
            let left = limit.saturating_sub(started.elapsed());
            sleep = sleep.min(u64::try_from(left.as_millis()).unwrap_or(u64::MAX));
        }
        thread::sleep(Duration::from_millis(sleep));
        tries += 1;
    }
}

/// Connects with per-attempt socket deadlines armed on every half.
fn connect_with(addr: &str, opts: &CallOptions) -> Result<TcpStream> {
    let timeout = deadline_of(opts.socket_timeout_ms);
    let addrs = addr
        .to_socket_addrs()
        .map_err(|e| serr(format!("resolving {addr}: {e}")))?;
    let mut last: Option<std::io::Error> = None;
    for resolved in addrs {
        #[expect(clippy::disallowed_methods, reason = "both deadlines are armed before return")]
        let connected = match timeout {
            Some(limit) => TcpStream::connect_timeout(&resolved, limit),
            None => TcpStream::connect(resolved),
        };
        match connected {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                stream
                    .set_read_timeout(timeout)
                    .map_err(|e| serr(format!("arming read deadline: {e}")))?;
                stream
                    .set_write_timeout(timeout)
                    .map_err(|e| serr(format!("arming write deadline: {e}")))?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(match last {
        Some(e) => serr(format!("connecting {addr}: {e}")),
        None => serr(format!("connecting {addr}: no addresses resolved")),
    })
}

fn split_stream(stream: TcpStream) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>)> {
    let read_half = stream.try_clone().map_err(serr)?;
    Ok((BufReader::new(read_half), BufWriter::new(stream)))
}

/// The scheduling class a grid earns by size: small sweeps (a screenful
/// of records) ride the interactive queue, anything larger is bulk.
pub fn auto_priority(grid: &Grid) -> Priority {
    if grid.cells().count() * grid.reps <= 1024 {
        Priority::Interactive
    } else {
        Priority::Bulk
    }
}

/// Requests a grid and returns the response metadata plus the raw
/// record-block bytes, exactly as served (the byte-identity oracle
/// compares these against a local run's encoding).
///
/// # Errors
///
/// [`CoreError::Serve`] on connection failure, [`CoreError::Protocol`]
/// on malformed responses or server-reported errors, [`CoreError::Busy`]
/// when the server shed the request and the retry budget ran out.
pub fn request_grid_raw(addr: &str, grid: &Grid, priority: Priority) -> Result<(GridMeta, String)> {
    request_grid_raw_with(addr, grid, priority, &CallOptions::default())
}

/// [`request_grid_raw`] under an explicit retry policy.
///
/// # Errors
///
/// As [`request_grid_raw`].
pub fn request_grid_raw_with(
    addr: &str,
    grid: &Grid,
    priority: Priority,
    opts: &CallOptions,
) -> Result<(GridMeta, String)> {
    with_retry(opts, || {
        let (mut reader, mut writer) = split_stream(connect_with(addr, opts)?)?;
        wire::write_grid_request(&mut writer, grid, priority).map_err(serr)?;
        writer.flush().map_err(serr)?;
        let head = wire::read_response_head(&mut reader)?;
        if head.kind != "grid" {
            return Err(CoreError::Protocol(format!(
                "expected kind=grid, got {:?}",
                head.kind
            )));
        }
        let meta = head.grid_meta()?;
        let mut body = String::new();
        let mut lines = 0usize;
        loop {
            let line = wire::read_line(&mut reader)?;
            if line == "." {
                break;
            }
            lines += 1;
            body.push_str(&line);
            body.push('\n');
        }
        if lines != meta.records {
            return Err(CoreError::Protocol(format!(
                "grid body has {lines} records, header promised {}",
                meta.records
            )));
        }
        Ok((meta, body))
    })
}

/// Requests a grid and decodes the records (in the same deterministic
/// cell-major, repetition-minor order the local engine produces).
///
/// # Errors
///
/// As [`request_grid_raw`], plus decode failures.
pub fn request_grid(addr: &str, grid: &Grid, priority: Priority) -> Result<(GridMeta, Vec<Record>)> {
    request_grid_with(addr, grid, priority, &CallOptions::default())
}

/// [`request_grid`] under an explicit retry policy.
///
/// # Errors
///
/// As [`request_grid`].
pub fn request_grid_with(
    addr: &str,
    grid: &Grid,
    priority: Priority,
    opts: &CallOptions,
) -> Result<(GridMeta, Vec<Record>)> {
    let (meta, body) = request_grid_raw_with(addr, grid, priority, opts)?;
    let mut records = Vec::with_capacity(meta.records);
    for line in body.lines() {
        records.push(wire::decode_record(line)?);
    }
    Ok((meta, records))
}

/// Fetches the server's statistics.
///
/// # Errors
///
/// Connection and protocol failures.
pub fn request_stats(addr: &str) -> Result<ServeStats> {
    request_stats_with(addr, &CallOptions::default())
}

/// [`request_stats`] under an explicit retry policy.
///
/// # Errors
///
/// As [`request_stats`].
pub fn request_stats_with(addr: &str, opts: &CallOptions) -> Result<ServeStats> {
    with_retry(opts, || {
        let (mut reader, mut writer) = split_stream(connect_with(addr, opts)?)?;
        wire::write_plain_request(&mut writer, "STATS").map_err(serr)?;
        writer.flush().map_err(serr)?;
        let head = wire::read_response_head(&mut reader)?;
        ServeStats::from_head(&head)
    })
}

/// Liveness check.
///
/// # Errors
///
/// Connection and protocol failures, or a non-pong answer.
pub fn request_ping(addr: &str) -> Result<()> {
    request_ping_with(addr, &CallOptions::default())
}

/// [`request_ping`] under an explicit retry policy.
///
/// # Errors
///
/// As [`request_ping`].
pub fn request_ping_with(addr: &str, opts: &CallOptions) -> Result<()> {
    with_retry(opts, || {
        let (mut reader, mut writer) = split_stream(connect_with(addr, opts)?)?;
        wire::write_plain_request(&mut writer, "PING").map_err(serr)?;
        writer.flush().map_err(serr)?;
        let head = wire::read_response_head(&mut reader)?;
        if head.kind != "pong" {
            return Err(CoreError::Protocol(format!(
                "expected kind=pong, got {:?}",
                head.kind
            )));
        }
        Ok(())
    })
}

/// Asks the server to shut down (it finishes in-flight requests first).
///
/// # Errors
///
/// Connection and protocol failures.
pub fn request_shutdown(addr: &str) -> Result<()> {
    request_shutdown_with(addr, &CallOptions::default())
}

/// [`request_shutdown`] under an explicit retry policy. (Shutdown is
/// idempotent like everything else: re-asking a stopping server to stop
/// is harmless.)
///
/// # Errors
///
/// As [`request_shutdown`].
pub fn request_shutdown_with(addr: &str, opts: &CallOptions) -> Result<()> {
    with_retry(opts, || {
        let (mut reader, mut writer) = split_stream(connect_with(addr, opts)?)?;
        wire::write_plain_request(&mut writer, "SHUTDOWN").map_err(serr)?;
        writer.flush().map_err(serr)?;
        let head = wire::read_response_head(&mut reader)?;
        if head.kind != "bye" {
            return Err(CoreError::Protocol(format!(
                "expected kind=bye, got {:?}",
                head.kind
            )));
        }
        Ok(())
    })
}

/// Runs a registered experiment on the server and returns its artifacts.
///
/// # Errors
///
/// Connection and protocol failures, unknown ids/scales (as
/// server-reported errors), experiment run failures.
pub fn request_experiment(
    addr: &str,
    id: &str,
    scale: &str,
    streaming: bool,
) -> Result<Vec<WireArtifact>> {
    request_experiment_with(addr, id, scale, streaming, &CallOptions::default())
}

/// [`request_experiment`] under an explicit retry policy.
///
/// # Errors
///
/// As [`request_experiment`].
pub fn request_experiment_with(
    addr: &str,
    id: &str,
    scale: &str,
    streaming: bool,
    opts: &CallOptions,
) -> Result<Vec<WireArtifact>> {
    with_retry(opts, || {
        let (mut reader, mut writer) = split_stream(connect_with(addr, opts)?)?;
        wire::write_experiment_request(&mut writer, id, scale, streaming).map_err(serr)?;
        writer.flush().map_err(serr)?;
        let head = wire::read_response_head(&mut reader)?;
        if head.kind != "report" {
            return Err(CoreError::Protocol(format!(
                "expected kind=report, got {:?}",
                head.kind
            )));
        }
        wire::read_artifacts(&mut reader)
    })
}

/// Corrupts one byte of an on-disk cache entry — test-support for the
/// poisoning defense (kept here so integration tests don't reimplement
/// the entry layout).
///
/// # Errors
///
/// [`CoreError::Serve`] if the entry cannot be read or rewritten.
#[doc(hidden)]
pub fn corrupt_disk_entry(path: &Path) -> Result<()> {
    let mut raw = std::fs::read(path).map_err(serr)?;
    let last = raw
        .last_mut()
        .ok_or_else(|| serr("cache entry is empty"))?;
    *last ^= 0x41;
    std::fs::write(path, raw).map_err(serr)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::Benchmark;

    #[test]
    fn accept_backoff_is_zero_then_monotone_and_capped() {
        assert_eq!(accept_backoff(0), Duration::ZERO);
        assert_eq!(accept_backoff(1), Duration::from_millis(1));
        let cap = Duration::from_millis(100);
        for errors in 1..64 {
            assert!(accept_backoff(errors) <= accept_backoff(errors + 1));
            assert!(accept_backoff(errors) <= cap);
        }
        assert_eq!(accept_backoff(u32::MAX), cap);
    }

    fn tiny_grid() -> Grid {
        let mut g = Grid::new(Benchmark::Null);
        g.interfaces = vec![crate::interface::Interface::Pm];
        g.patterns = vec![crate::pattern::Pattern::StartRead];
        g.modes = vec![crate::interface::CountingMode::User];
        g.processors = vec![counterlab_cpu::uarch::Processor::PentiumD];
        g.counter_counts = vec![1];
        g.tsc_settings = vec![true];
        g.opt_levels = vec![crate::config::OptLevel::O0];
        g.reps = 3;
        g.hz = 0;
        g
    }

    #[test]
    fn cache_mem_tier_hit_and_lru_eviction() {
        let cache = CellCache::new(CacheConfig {
            max_entries: 2,
            max_bytes: usize::MAX,
            dir: None,
        })
        .unwrap();
        assert!(cache.get(1).is_none());
        cache.put(1, Arc::new("one".into()));
        cache.put(2, Arc::new("two".into()));
        assert_eq!(cache.get(1).unwrap().as_str(), "one"); // 1 now MRU
        cache.put(3, Arc::new("three".into())); // evicts 2
        assert_eq!(cache.mem_entries(), 2);
        assert!(cache.get(2).is_none());
        assert_eq!(cache.get(1).unwrap().as_str(), "one");
        assert_eq!(cache.get(3).unwrap().as_str(), "three");
        let (hits, misses, disk_hits, poisoned) = cache.counters();
        assert_eq!((hits, misses, disk_hits, poisoned), (3, 2, 0, 0));
    }

    #[test]
    fn cache_eviction_is_order_deterministic() {
        // Two caches fed the exact same access sequence under the same
        // pressure must end up with the exact same resident key set —
        // including stamp *ties*, which the BTreeMap backing breaks
        // toward the smallest key instead of HashMap's per-process
        // RandomState order.
        let run = || {
            let cache = CellCache::new(CacheConfig {
                max_entries: 4,
                max_bytes: usize::MAX,
                dir: None,
            })
            .unwrap();
            // Eight inserts (evicting four), then touch two survivors in
            // an order that manufactures equal-looking LRU pressure.
            for key in [50u64, 40, 30, 20, 10, 60, 70, 80] {
                cache.put(key, Arc::new(format!("payload-{key}")));
            }
            cache.get(10);
            cache.get(60);
            cache.put(90, Arc::new("payload-90".to_string()));
            cache.mem_keys()
        };
        let first = run();
        let second = run();
        assert_eq!(first, second, "identical pressure, identical survivors");
        assert_eq!(first.len(), 4);
        assert!(first.contains(&90), "newest entry always survives");
    }

    #[test]
    fn cache_byte_cap_keeps_newest_entry_even_when_oversized() {
        let cache = CellCache::new(CacheConfig {
            max_entries: 100,
            max_bytes: 8,
            dir: None,
        })
        .unwrap();
        cache.put(1, Arc::new("aaaa".into()));
        cache.put(2, Arc::new("bbbbbbbbbbbbbbbb".into())); // over the cap alone
        assert!(cache.get(1).is_none(), "older entry evicted by byte cap");
        assert_eq!(cache.get(2).unwrap().len(), 16, "oversized newest survives");
    }

    #[test]
    fn cache_disk_tier_roundtrip_and_poisoning() {
        let dir = std::env::temp_dir().join(format!("countd-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let payload = "PD,pm,sr,0,1,1,user,cycles,7,0,null,0,5,1\n";
        {
            let cache = CellCache::new(CacheConfig {
                dir: Some(dir.clone()),
                ..CacheConfig::default()
            })
            .unwrap();
            cache.put(0xABC, Arc::new(payload.to_string()));
        }
        // A fresh cache (cold memory tier) must hit disk.
        let cache = CellCache::new(CacheConfig {
            dir: Some(dir.clone()),
            ..CacheConfig::default()
        })
        .unwrap();
        assert_eq!(cache.get(0xABC).unwrap().as_str(), payload);
        assert_eq!(cache.counters().2, 1, "one disk hit");

        // Corrupt the entry *after* boot (past the startup recovery
        // scan): the read path must detect, count and drop it.
        let path = dir.join(format!("{:016x}.cell", 0xABCu64));
        let cache = CellCache::new(CacheConfig {
            dir: Some(dir.clone()),
            ..CacheConfig::default()
        })
        .unwrap();
        corrupt_disk_entry(&path).unwrap();
        assert!(cache.get(0xABC).is_none(), "corrupt entry must not be served");
        assert_eq!(cache.counters().3, 1, "poisoning detected and counted");
        assert!(!path.exists(), "corrupt entry removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_disk_writes_of_one_key_never_tear() {
        // Several threads put the same key to the disk tier at once, each
        // with its own payload, and re-read the entry from disk between
        // writes. Every temp file must be private to its writer: a shared
        // one interleaves two bodies and the entry reads back poisoned.
        let dir = std::env::temp_dir().join(format!("countd-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CacheConfig {
            dir: Some(dir.clone()),
            ..CacheConfig::default()
        };
        let cache = CellCache::new(config.clone()).unwrap();
        const KEY: u64 = 0x5EED;
        let payloads: Vec<String> = (0..4)
            .map(|t| format!("{t}").repeat(64 * 1024 + t * 4099))
            .collect();
        // The barrier releases all writers into each round's `put` at once.
        let start = std::sync::Barrier::new(payloads.len());
        let (cache, payloads, start) = (&cache, &payloads, &start);
        thread::scope(|s| {
            for payload in payloads {
                s.spawn(move || {
                    for _ in 0..25 {
                        start.wait();
                        cache.put(KEY, Arc::new(payload.clone()));
                        if let Some(read) = cache.disk_read(KEY) {
                            assert!(payloads.contains(&read), "torn entry served");
                        }
                    }
                });
            }
        });
        assert_eq!(cache.counters().3, 0, "no write tore the entry");
        let cold = CellCache::new(config).unwrap();
        let read = cold.get(KEY).expect("entry reads back from disk");
        assert!(
            payloads.contains(&read),
            "entry is one writer's whole payload"
        );
        assert_eq!(cold.counters(), (1, 0, 1, 0), "one verified disk hit");
        assert_eq!(cold.quarantined(), 0, "no temp file left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_scan_quarantines_orphaned_tmp_files() {
        let dir = std::env::temp_dir().join(format!("countd-recover-tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Debris of a writer that died between write and rename.
        let orphan = dir.join(format!("{:016x}.tmp.dead", 0xABCu64));
        std::fs::write(&orphan, "half-written").unwrap();
        let cache = CellCache::new(CacheConfig {
            dir: Some(dir.clone()),
            ..CacheConfig::default()
        })
        .unwrap();
        assert_eq!(cache.quarantined(), 1, "orphan counted");
        assert!(!orphan.exists(), "orphan moved out of the live tier");
        assert!(
            dir.join("quarantine")
                .join(format!("{:016x}.tmp.dead", 0xABCu64))
                .exists(),
            "orphan kept for post-mortems"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A peer countd sharing the directory may be between its write and
    /// its rename: a temp file named for a live pid survives the scan,
    /// one named for a dead pid does not.
    #[test]
    #[cfg(target_os = "linux")]
    fn recovery_scan_spares_a_live_writers_tmp_file() {
        let dir = std::env::temp_dir().join(format!("countd-recover-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let name = format!("{:016x}.tmp.{:x}.{:x}", 0xABCu64, std::process::id(), 7);
        std::fs::write(dir.join(&name), "mid-write").unwrap();
        // Above Linux's largest pid (2^22), so no process has it.
        let dead = format!("{:016x}.tmp.{:x}.{:x}", 0xABCu64, 1u32 << 23, 7);
        std::fs::write(dir.join(&dead), "half-written").unwrap();
        let cache = CellCache::new(CacheConfig {
            dir: Some(dir.clone()),
            ..CacheConfig::default()
        })
        .unwrap();
        assert_eq!(cache.quarantined(), 1, "only the dead writer's file is counted");
        assert!(dir.join(&name).exists(), "a live writer's file stays in place");
        assert!(dir.join("quarantine").join(&dead).exists(), "a dead writer's file is moved");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_scan_quarantines_truncated_and_corrupt_entries() {
        let dir = std::env::temp_dir().join(format!("countd-recover-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let payload = "PD,pm,sr,0,1,1,user,cycles,7,0,null,0,5,1\n";
        {
            let cache = CellCache::new(CacheConfig {
                dir: Some(dir.clone()),
                ..CacheConfig::default()
            })
            .unwrap();
            cache.put(0x111, Arc::new(payload.to_string()));
            cache.put(0x222, Arc::new(payload.to_string()));
            cache.put(0x333, Arc::new(payload.to_string()));
        }
        // Simulate a crash mid-write (truncation) and bit rot (checksum
        // mismatch); the third entry stays intact.
        let torn = dir.join(format!("{:016x}.cell", 0x111u64));
        let raw = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &raw[..raw.len() / 2]).unwrap();
        let rotten = dir.join(format!("{:016x}.cell", 0x222u64));
        corrupt_disk_entry(&rotten).unwrap();

        let cache = CellCache::new(CacheConfig {
            dir: Some(dir.clone()),
            ..CacheConfig::default()
        })
        .unwrap();
        assert_eq!(cache.quarantined(), 2, "both damaged entries quarantined");
        assert!(!torn.exists() && !rotten.exists());
        assert!(
            cache.get(0x111).is_none() && cache.get(0x222).is_none(),
            "damaged entries become misses (recomputed), never served"
        );
        assert_eq!(cache.get(0x333).unwrap().as_str(), payload, "intact entry survives");
        assert_eq!(cache.counters().3, 0, "boot-time debris never counts as read poisoning");

        // A reboot must not rescan (or double-count) the quarantine.
        let cache = CellCache::new(CacheConfig {
            dir: Some(dir.clone()),
            ..CacheConfig::default()
        })
        .unwrap();
        assert_eq!(cache.quarantined(), 0, "quarantine is not rescanned");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn server_answers_ping_stats_and_shutdown() {
        let server = Server::spawn(ServeConfig::default()).unwrap();
        let addr = server.addr().to_string();
        request_ping(&addr).unwrap();
        let stats = request_stats(&addr).unwrap();
        assert_eq!(stats.grids, 0);
        assert!(stats.workers >= 1);
        request_shutdown(&addr).unwrap();
        server.join();
        assert!(request_ping(&addr).is_err(), "server is gone");
    }

    #[test]
    fn served_grid_matches_local_run_and_caches() {
        let grid = tiny_grid();
        let mut server = Server::spawn(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr().to_string();
        let local = grid.run_with(&RunOptions::sequential()).unwrap();
        let (meta, records) = request_grid(&addr, &grid, Priority::Interactive).unwrap();
        assert_eq!(meta.misses, meta.cells);
        assert_eq!(records, local);
        let (meta2, records2) = request_grid(&addr, &grid, Priority::Bulk).unwrap();
        assert_eq!(meta2.hits, meta2.cells, "second request fully cached");
        assert_eq!(records2, local);
        server.stop();
    }

    #[test]
    fn served_errors_are_reported_not_hung() {
        let mut grid = tiny_grid();
        grid.counter_counts = vec![0];
        let mut server = Server::spawn(ServeConfig::default()).unwrap();
        let addr = server.addr().to_string();
        let err = request_grid(&addr, &grid, Priority::Interactive).unwrap_err();
        assert!(err.to_string().contains("zero"), "{err}");
        // The connection and server survive for the next request.
        request_ping(&addr).unwrap();
        server.stop();
    }

    #[test]
    fn auto_priority_splits_on_size() {
        let mut g = tiny_grid();
        assert_eq!(auto_priority(&g), Priority::Interactive);
        g.reps = 100_000;
        assert_eq!(auto_priority(&g), Priority::Bulk);
    }
}
