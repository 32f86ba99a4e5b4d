//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--scale quick|standard|paper] [--jobs N] [--out DIR] COMMAND...
//! ```
//!
//! The command set, ablation flags and artifact names all come from
//! [`counterlab::experiment::registry`] — this binary is a data-driven
//! loop over that catalog, with no per-figure dispatch of its own.
//! `repro list` prints the catalog.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use counterlab::exec::{Priority, RunOptions};
use counterlab::experiment::{ablation_owner, registry, suggest, ConsoleSink, ExperimentCtx, Scale};
use counterlab::fault::FaultPlan;
use counterlab::grid::Grid;
use counterlab::report;
use counterlab::serve::{self, CacheConfig, CallOptions, ServeConfig, Server};

mod bench;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Pseudo-commands understood besides the registry's experiment ids.
const ALL: &str = "all";
const LIST: &str = "list";
const BENCH: &str = "bench";
const SERVE: &str = "serve";
const CLIENT: &str = "client";

/// Actions `repro client` understands.
const CLIENT_ACTIONS: [&str; 5] = ["grid", "experiment", "stats", "ping", "shutdown"];

/// Default address `repro serve` binds and `repro client` dials.
const DEFAULT_ADDR: &str = "127.0.0.1:6121";

/// Default output path of `repro bench` (one JSON per PR: the perf
/// trajectory accumulates as CI artifacts).
const BENCH_JSON: &str = "BENCH_8.json";

/// Fault rate `--chaos-seed` injects: ~35 % of wire writes, disk-cache
/// writes and worker-side computations fail on the seeded schedule —
/// the same rate the chaos soak test runs at.
const DEFAULT_CHAOS_PERMILLE: u64 = 350;

fn run(args: &[String]) -> Result<(), String> {
    let mut scale = Scale::standard();
    let mut out_dir: Option<PathBuf> = None;
    let mut commands: Vec<&'static str> = Vec::new();
    let mut ablations: Vec<&'static str> = Vec::new();
    let mut list = false;
    let mut bench = false;
    let mut bench_json = PathBuf::from(BENCH_JSON);
    let mut json_given = false;
    // 0 = one worker per available CPU (the engine default).
    let mut jobs: usize = 0;
    let mut jobs_given = false;
    let mut scale_given = false;
    // countd (serve/client/bench --served) options.
    let mut serve = false;
    let mut client = false;
    let mut client_action: Option<&'static str> = None;
    let mut addr: Option<String> = None;
    let mut workers: usize = 0;
    let mut workers_given = false;
    let mut cache_dir: Option<PathBuf> = None;
    let mut priority: Option<Priority> = None;
    let mut csv_out = false;
    let mut served = false;
    // Robustness knobs (serve/client/bench --served).
    let mut timeout_ms: Option<u64> = None;
    let mut retries: Option<u32> = None;
    let mut chaos_seed: Option<u64> = None;

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--scale" => {
                i += 1;
                let name = args.get(i).ok_or("--scale needs a value")?;
                scale = Scale::from_name(name)
                    .ok_or_else(|| format!("unknown scale {name} (quick|standard|paper)"))?;
                scale_given = true;
            }
            "--out" => {
                i += 1;
                out_dir = Some(PathBuf::from(args.get(i).ok_or("--out needs a value")?));
            }
            "--jobs" => {
                i += 1;
                let value = args.get(i).ok_or("--jobs needs a value")?;
                jobs = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs needs a thread count >= 1, got {value:?}"))?;
                jobs_given = true;
            }
            "--addr" => {
                i += 1;
                addr = Some(args.get(i).ok_or("--addr needs HOST:PORT")?.clone());
            }
            "--workers" => {
                i += 1;
                let value = args.get(i).ok_or("--workers needs a value")?;
                workers = value.parse::<usize>().map_err(|_| {
                    format!("--workers needs a thread count (0 = one per CPU), got {value:?}")
                })?;
                workers_given = true;
            }
            "--cache-dir" => {
                i += 1;
                cache_dir = Some(PathBuf::from(args.get(i).ok_or("--cache-dir needs a path")?));
            }
            "--priority" => {
                i += 1;
                let value = args.get(i).ok_or("--priority needs interactive|bulk")?;
                priority = Some(match value.as_str() {
                    "interactive" => Priority::Interactive,
                    "bulk" => Priority::Bulk,
                    _ => return Err(format!("--priority needs interactive|bulk, got {value:?}")),
                });
            }
            "--csv" => csv_out = true,
            "--served" => served = true,
            "--timeout" => {
                i += 1;
                let value = args.get(i).ok_or("--timeout needs milliseconds")?;
                timeout_ms = Some(value.parse::<u64>().map_err(|_| {
                    format!("--timeout needs milliseconds (0 disables), got {value:?}")
                })?);
            }
            "--retries" => {
                i += 1;
                let value = args.get(i).ok_or("--retries needs a count")?;
                retries = Some(value.parse::<u32>().map_err(|_| {
                    format!("--retries needs a retry count (0 disables), got {value:?}")
                })?);
            }
            "--chaos-seed" => {
                i += 1;
                let value = args.get(i).ok_or("--chaos-seed needs a seed")?;
                chaos_seed = Some(value.parse::<u64>().map_err(|_| {
                    format!("--chaos-seed needs an unsigned seed, got {value:?}")
                })?);
            }
            "--json" => {
                i += 1;
                bench_json = PathBuf::from(args.get(i).ok_or("--json needs a path")?);
                json_given = true;
            }
            "--help" | "-h" => {
                println!("{}", help());
                return Ok(());
            }
            LIST => list = true,
            BENCH => bench = true,
            SERVE => serve = true,
            CLIENT => client = true,
            action
                if client
                    && client_action.is_none()
                    && CLIENT_ACTIONS.contains(&action) =>
            {
                client_action = CLIENT_ACTIONS.iter().copied().find(|a| *a == action);
            }
            ALL => commands.push(ALL),
            cmd => {
                // The registry is the single source of truth for both the
                // command ids and the ablation flags.
                if let Some(exp) = counterlab::experiment::find(cmd) {
                    commands.push(exp.id());
                } else if let Some(owner) = ablation_owner(cmd) {
                    let flag = owner
                        .capabilities()
                        .ablations
                        .iter()
                        .find(|a| a.flag == cmd)
                        .expect("owner declares the flag")
                        .flag;
                    ablations.push(flag);
                } else {
                    return Err(unknown_command(cmd));
                }
            }
        }
        i += 1;
    }

    // serve/client validation: both run alone, with their own flag sets
    // (a misplaced flag is a usage error, not a silent no-op).
    if serve || client {
        if serve && client {
            return Err(format!("{SERVE} and {CLIENT} are separate commands; see --help"));
        }
        let what = if serve { SERVE } else { CLIENT };
        // `client experiment <id>` is the one client action that takes a
        // registry command (the experiment to serve) and the `--out` flag;
        // everywhere else they are usage errors.
        let exp_client = client && client_action == Some("experiment");
        if (!commands.is_empty() && !exp_client)
            || list
            || bench
            || !ablations.is_empty()
            || (out_dir.is_some() && !exp_client)
            || json_given
        {
            return Err(format!("{what} runs alone; see --help"));
        }
        if jobs_given {
            return Err(format!(
                "--jobs does not apply to {what} (use --workers on {SERVE})"
            ));
        }
        if served {
            return Err(format!("--served only applies to {BENCH}; see --help"));
        }
    }
    if serve {
        if scale_given || priority.is_some() || csv_out {
            return Err(format!("--scale/--priority/--csv are {CLIENT} flags; see --help"));
        }
        if retries.is_some() {
            return Err(format!(
                "--retries is a {CLIENT} flag (the server never retries); see --help"
            ));
        }
        return run_serve(addr, workers, cache_dir, timeout_ms, chaos_seed);
    }
    if client {
        if workers_given || cache_dir.is_some() {
            return Err(format!("--workers/--cache-dir are {SERVE} flags; see --help"));
        }
        if chaos_seed.is_some() {
            return Err(format!(
                "--chaos-seed applies to {SERVE} and {BENCH} --served (faults are injected \
                 server-side); see --help"
            ));
        }
        let action = client_action
            .ok_or_else(|| format!("{CLIENT} needs an action: {}", CLIENT_ACTIONS.join("|")))?;
        if !matches!(action, "grid" | "experiment") && scale_given {
            return Err(format!(
                "--scale only applies to `{CLIENT} grid` and `{CLIENT} experiment`"
            ));
        }
        if action != "grid" && (priority.is_some() || csv_out) {
            return Err(format!("--priority/--csv only apply to `{CLIENT} grid`"));
        }
        let experiment_id = if action == "experiment" {
            match commands.as_slice() {
                [id] if *id != ALL => Some(*id),
                [] => {
                    return Err(format!(
                        "{CLIENT} experiment needs an experiment id (see `repro list`)"
                    ))
                }
                _ => {
                    return Err(format!(
                        "{CLIENT} experiment serves exactly one registered experiment"
                    ))
                }
            }
        } else {
            None
        };
        return run_client(
            addr.as_deref().unwrap_or(DEFAULT_ADDR),
            action,
            scale,
            priority,
            csv_out,
            experiment_id,
            out_dir.as_deref(),
            &call_options(timeout_ms, retries),
        );
    }
    if addr.is_some() || workers_given || cache_dir.is_some() || priority.is_some() || csv_out {
        return Err(format!(
            "--addr/--workers/--cache-dir/--priority/--csv apply to {SERVE}/{CLIENT} only"
        ));
    }
    if served && !bench {
        return Err(format!("--served only applies to {BENCH}; see --help"));
    }
    if (timeout_ms.is_some() || retries.is_some() || chaos_seed.is_some()) && !bench {
        return Err(format!(
            "--timeout/--retries/--chaos-seed apply to {SERVE}/{CLIENT}/{BENCH} only"
        ));
    }
    if bench && !served && (timeout_ms.is_some() || retries.is_some() || chaos_seed.is_some()) {
        return Err(format!(
            "--timeout/--retries/--chaos-seed on {BENCH} require --served (they shape \
             the countd workload)"
        ));
    }

    if json_given && !bench {
        return Err(format!("--json only applies to {BENCH}; see --help"));
    }
    if bench {
        if !commands.is_empty() || list || !ablations.is_empty() || out_dir.is_some() {
            return Err(format!("{BENCH} runs alone; see --help"));
        }
        let scale_name = Scale::NAMES
            .iter()
            .find(|n| Scale::from_name(n) == Some(scale))
            .copied()
            .unwrap_or("custom");
        return bench::run(
            scale_name,
            scale,
            jobs,
            &bench_json,
            served,
            &bench::NetOptions {
                timeout_ms,
                retries,
                chaos_seed: chaos_seed.map(|s| (s, DEFAULT_CHAOS_PERMILLE)),
            },
        );
    }

    if list {
        println!("{}", render_list());
        if commands.is_empty() {
            return Ok(());
        }
    }
    if commands.is_empty() {
        println!("{}", help());
        return Ok(());
    }

    let all = commands.contains(&ALL);
    let want = |c: &str| all || commands.contains(&c);

    // Usage validation comes before any side effect (ConsoleSink::new
    // creates the --out directory), so a rejected command line leaves no
    // trace. An ablation flag without its target command is a usage
    // error, not a silent no-op.
    for &flag in &ablations {
        let target = ablation_owner(flag).expect("parsed from registry").id();
        if !want(target) {
            return Err(format!(
                "{flag} only affects {target}; add {target} to the command list"
            ));
        }
    }

    let mut sink = ConsoleSink::new(out_dir.as_deref()).map_err(|e| e.to_string())?;

    for exp in registry() {
        if !want(exp.id()) {
            continue;
        }
        let mut ctx = ExperimentCtx::new(scale).with_opts(RunOptions::with_jobs(jobs));
        for ablation in exp.capabilities().ablations {
            if ablations.contains(&ablation.flag) {
                ctx = ctx.with_ablation(ablation.flag);
            }
        }
        let report = exp.run(&ctx).map_err(err)?;
        for emitted in report.emit(&mut sink).map_err(err)? {
            if let Some(rows) = emitted.rows {
                println!("wrote {} ({rows} records)", emitted.name);
            }
        }
    }
    Ok(())
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Builds the client-side retry policy from `--timeout`/`--retries`.
/// `--timeout MS` arms the per-attempt socket deadline and scales the
/// overall retry budget to cover every attempt; `0` disables both.
fn call_options(timeout_ms: Option<u64>, retries: Option<u32>) -> CallOptions {
    let mut opts = CallOptions::default();
    if let Some(n) = retries {
        opts.retries = n;
    }
    if let Some(ms) = timeout_ms {
        opts.socket_timeout_ms = ms;
        opts.deadline_ms = ms.saturating_mul(u64::from(opts.retries) + 1);
    }
    opts
}

/// `repro serve` — runs countd in the foreground until a client sends
/// `SHUTDOWN` (or the process is killed).
fn run_serve(
    addr: Option<String>,
    workers: usize,
    cache_dir: Option<PathBuf>,
    timeout_ms: Option<u64>,
    chaos_seed: Option<u64>,
) -> Result<(), String> {
    let cache_note = match &cache_dir {
        Some(dir) => format!("memory + disk cache at {}", dir.display()),
        None => "memory cache only".to_string(),
    };
    let mut config = ServeConfig {
        addr: addr.unwrap_or_else(|| DEFAULT_ADDR.to_string()),
        workers,
        cache: CacheConfig {
            dir: cache_dir,
            ..CacheConfig::default()
        },
        ..ServeConfig::default()
    };
    if let Some(ms) = timeout_ms {
        config.read_timeout_ms = ms;
        config.write_timeout_ms = ms;
    }
    config.fault = chaos_seed.map(|seed| Arc::new(FaultPlan::new(seed, DEFAULT_CHAOS_PERMILLE)));
    let chaos_note = match &config.fault {
        Some(plan) => format!(
            "; CHAOS MODE: seed {} at {} permille — not for production",
            plan.seed(),
            plan.rate_permille()
        ),
        None => String::new(),
    };
    let server = Server::spawn(config).map_err(err)?;
    println!(
        "countd listening on {} ({} workers, {cache_note}){chaos_note}; \
         stop with `repro client --addr {} shutdown`",
        server.addr(),
        server.stats().workers,
        server.addr()
    );
    server.join();
    println!("countd: shut down");
    Ok(())
}

/// `repro client` — one request against a running countd.
#[expect(clippy::too_many_arguments, reason = "one argument per parsed client flag")]
fn run_client(
    addr: &str,
    action: &str,
    scale: Scale,
    priority: Option<Priority>,
    csv_out: bool,
    experiment_id: Option<&str>,
    out_dir: Option<&std::path::Path>,
    opts: &CallOptions,
) -> Result<(), String> {
    match action {
        "ping" => {
            serve::request_ping_with(addr, opts).map_err(err)?;
            println!("pong from {addr}");
        }
        "shutdown" => {
            serve::request_shutdown_with(addr, opts).map_err(err)?;
            println!("server at {addr} shut down");
        }
        "stats" => {
            let s = serve::request_stats_with(addr, opts).map_err(err)?;
            println!(
                "countd at {addr}: {} requests ({} grids), cache {} hits / {} misses \
                 ({} from disk, {} poisoned), {} entries / {} bytes in memory, {} workers",
                s.requests,
                s.grids,
                s.hits,
                s.misses,
                s.disk_hits,
                s.poisoned,
                s.mem_entries,
                s.mem_bytes,
                s.workers
            );
        }
        "grid" => {
            // The same full null grid the `csv` experiment exports, so
            // `client grid --csv` is diffable against a local run.
            let grid = Grid::full_null(scale.grid_reps);
            let priority = priority.unwrap_or_else(|| serve::auto_priority(&grid));
            let (meta, records) = serve::request_grid_with(addr, &grid, priority, opts).map_err(err)?;
            if csv_out {
                print!("{}", report::records_to_csv(&records));
            } else {
                println!(
                    "{} records from {} cells x {} reps ({} cells cached, {} computed)",
                    records.len(),
                    meta.cells,
                    meta.reps,
                    meta.hits,
                    meta.misses
                );
            }
        }
        "experiment" => {
            let id = experiment_id.expect("validated before dispatch");
            let scale_name = Scale::NAMES
                .iter()
                .find(|n| Scale::from_name(n) == Some(scale))
                .copied()
                .unwrap_or("standard");
            let artifacts =
                serve::request_experiment_with(addr, id, scale_name, opts).map_err(err)?;
            for artifact in &artifacts {
                if let Some(dir) = out_dir {
                    std::fs::create_dir_all(dir).map_err(err)?;
                    let path = dir.join(&artifact.name);
                    std::fs::write(&path, &artifact.content).map_err(err)?;
                    match artifact.rows {
                        Some(rows) => println!("wrote {} ({rows} records)", path.display()),
                        None => println!("wrote {}", path.display()),
                    }
                } else {
                    // Like ConsoleSink: text artifacts print, row streams
                    // only announce themselves (they are files, not prose).
                    match artifact.rows {
                        Some(rows) => {
                            println!("{}: {rows} records (use --out DIR to save)", artifact.name);
                        }
                        None => print!("{}", artifact.content),
                    }
                }
            }
        }
        _ => unreachable!("validated against CLIENT_ACTIONS"),
    }
    Ok(())
}

/// The error for an unrecognized command, with near-miss suggestions
/// from the registry.
fn unknown_command(cmd: &str) -> String {
    let near = suggest(cmd);
    if near.is_empty() {
        format!("unknown command {cmd:?}; see --help")
    } else {
        format!(
            "unknown command {cmd:?}; did you mean {}? (see --help)",
            near.join(", ")
        )
    }
}

/// The `repro list` table: one row per registered experiment.
fn render_list() -> String {
    let rows: Vec<Vec<String>> = registry()
        .iter()
        .map(|exp| {
            let caps = exp.capabilities();
            vec![
                exp.id().to_string(),
                exp.title().to_string(),
                if caps.ablations.is_empty() {
                    "-".to_string()
                } else {
                    caps.ablations
                        .iter()
                        .map(|a| a.flag)
                        .collect::<Vec<_>>()
                        .join(" ")
                },
            ]
        })
        .collect();
    format!(
        "Registered experiments ({}):\n\n{}",
        registry().len(),
        report::table(&["id", "title", "ablations"], &rows)
    )
}

/// Usage text; the command and ablation sections are derived from the
/// registry so they cannot drift from the dispatch.
fn help() -> String {
    let mut commands = String::new();
    for exp in registry() {
        commands.push_str(&format!("  {:<13} {}\n", exp.id(), exp.title()));
    }
    commands.push_str(&format!("  {ALL:<13} every experiment above\n"));
    commands.push_str(&format!("  {LIST:<13} print the experiment registry\n"));
    commands.push_str(&format!(
        "  {BENCH:<13} time the measurement engine (null grid, fig7,\n\
         {:<15}csv streaming; session vs fresh-boot) and write\n\
         {:<15}machine-readable results to {BENCH_JSON} (--json PATH\n\
         {:<15}overrides; --served adds a countd cache workload);\n\
         {:<15}runs alone\n",
        "", "", "", ""
    ));
    commands.push_str(&format!(
        "  {SERVE:<13} run countd, the measurement daemon: answers grid\n\
         {:<15}requests from a content-addressed result cache and\n\
         {:<15}computes misses on a shared worker pool\n\
         {:<15}[--addr HOST:PORT] [--workers N] [--cache-dir DIR]\n",
        "", "", ""
    ));
    commands.push_str(&format!(
        "  {CLIENT:<13} one request against a running countd; actions:\n\
         {:<15}{} [--addr HOST:PORT]\n\
         {:<15}(grid: [--scale S] [--priority interactive|bulk]\n\
         {:<15}[--csv] — --csv prints the records as CSV, diffable\n\
         {:<15}against a local `repro csv` run)\n\
         {:<15}(experiment ID: serve a registered experiment through\n\
         {:<15}the daemon; [--scale S] [--out DIR] — the\n\
         {:<15}artifacts are byte-identical to a local run)\n",
        "",
        CLIENT_ACTIONS.join("|"),
        "",
        "",
        "",
        "",
        "",
        ""
    ));

    let mut ablations = String::new();
    for exp in registry() {
        for a in exp.capabilities().ablations {
            ablations.push_str(&format!("  {} {:<15} {}\n", exp.id(), a.flag, a.effect));
        }
    }

    format!(
        "\
repro — regenerate the tables and figures of
'Accuracy of Performance Counter Measurements' (ISPASS 2009)

USAGE:
  repro [--scale quick|standard|paper] [--jobs N] [--out DIR] COMMAND...
  repro serve [--addr HOST:PORT] [--workers N] [--cache-dir DIR]
              [--timeout MS] [--chaos-seed N]
  repro client [--addr HOST:PORT] [--timeout MS] [--retries N]
               grid|experiment ID|stats|ping|shutdown

OPTIONS:
  --scale quick|standard|paper  repetition preset (default standard)
  --addr HOST:PORT              serve: bind address / client: server
                                address (default {DEFAULT_ADDR})
  --workers N                   serve: measurement worker threads
                                (default 0 = one per CPU)
  --cache-dir DIR               serve: also keep the result cache on
                                disk in DIR (checksummed, survives
                                restarts)
  --priority interactive|bulk   client grid: scheduling class on the
                                server's pool (default: auto by size)
  --csv                         client grid: print the records as CSV
  --served                      bench: add the countd served-vs-local
                                workload (cold misses, warm cache hits,
                                protocol round-trip latency)
  --timeout MS                  serve: per-connection socket read/write
                                deadline; client / bench --served:
                                per-attempt socket deadline, with the
                                overall retry budget scaled to cover
                                every attempt (0 disables; defaults
                                10000 ms)
  --retries N                   client / bench --served: retries after
                                the first attempt on retryable errors
                                (BUSY, socket faults; default 2 — safe
                                because every request is idempotent)
  --chaos-seed N                serve / bench --served: deterministic
                                fault injection seeded with N at
                                {DEFAULT_CHAOS_PERMILLE} permille (wire,
                                disk cache, workers); same seed, same
                                fault schedule — never for production
  --jobs N                      worker threads for the execution engine
                                (default: one per available CPU; 1 runs
                                the sweep sequentially on the calling
                                thread; results are identical either way)
  --out DIR                     also write artifacts into DIR
  --json PATH                   bench: where the results JSON lands
                                (default {BENCH_JSON})

COMMANDS:
{commands}
ABLATIONS (each flag requires its target command):
{ablations}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The help text is generated from the registry, so every id, every
    /// ablation flag and the pseudo-commands are documented by
    /// construction — verified here against the live registry.
    #[test]
    fn help_documents_the_whole_registry() {
        let help = help();
        for exp in registry() {
            assert!(
                help.split_whitespace().any(|word| word == exp.id()),
                "{} missing from --help",
                exp.id()
            );
            for a in exp.capabilities().ablations {
                assert!(
                    help.split_whitespace().any(|word| word == a.flag),
                    "{} missing from --help",
                    a.flag
                );
            }
        }
        for word in [
            ALL, LIST, BENCH, SERVE, CLIENT, "--jobs", "--out", "--scale", "--json",
            "--addr", "--workers", "--cache-dir", "--priority", "--csv", "--served", "--timeout",
            "--retries", "--chaos-seed",
        ] {
            assert!(
                help.split_whitespace().any(|w| w == word),
                "{word} missing from --help"
            );
        }
    }

    #[test]
    fn list_renders_every_id() {
        let listing = render_list();
        for exp in registry() {
            assert!(listing.contains(exp.id()), "{} missing", exp.id());
        }
        assert!(listing.contains("--no-timer"));
        assert!(listing.contains("--single-build"));
        // `repro list` is accepted as a command.
        super::run(&args(&["list"])).unwrap();
    }

    /// An ablation flag without its target command is a usage error, not
    /// a silent no-op (`fig8 --no-timer` used to parse fine and change
    /// nothing).
    #[test]
    fn ablation_without_target_command_rejected() {
        let e = super::run(&args(&["fig8", "--no-timer"])).unwrap_err();
        assert!(e.contains("--no-timer") && e.contains("fig7"), "{e}");
        let e = super::run(&args(&["fig7", "--single-build"])).unwrap_err();
        assert!(e.contains("--single-build") && e.contains("fig11"), "{e}");
        let e = super::run(&args(&["table1", "--single-build"])).unwrap_err();
        assert!(e.contains("fig11"), "{e}");
    }

    /// Unknown commands suggest near-miss ids from the registry.
    #[test]
    fn unknown_command_suggests_near_ids() {
        let e = super::run(&args(&["fig2"])).unwrap_err();
        assert!(e.contains("unknown command"), "{e}");
        assert!(e.contains("did you mean"), "{e}");
        assert!(e.contains("fig1"), "{e}");
        // Nothing near: no suggestion clause.
        let e = super::run(&args(&["warp-field"])).unwrap_err();
        assert!(!e.contains("did you mean"), "{e}");
        assert!(e.contains("see --help"), "{e}");
    }

    /// The acceptance-criterion identity at the CLI level: the csv
    /// artifact is byte-for-byte the same under `--jobs 1` and `--jobs 4`.
    #[test]
    fn csv_identical_across_jobs() {
        let base = std::env::temp_dir().join(format!("repro-csv-drift-{}", std::process::id()));
        let mut outputs = Vec::new();
        for (name, flags) in [
            ("j1", &["--jobs", "1"][..]),
            ("j4", &["--jobs", "4"]),
        ] {
            let dir = base.join(name);
            let mut a = args(flags);
            a.extend(args(&["--scale", "quick", "--out", dir.to_str().unwrap(), "csv"]));
            super::run(&a).unwrap();
            let csv = std::fs::read_to_string(dir.join("full_grid.csv")).unwrap();
            assert!(csv.lines().count() > 1000, "{name}: suspiciously small csv");
            outputs.push((name, csv));
        }
        let (_, reference) = &outputs[0];
        for (name, csv) in &outputs[1..] {
            assert_eq!(csv, reference, "{name} diverged from --jobs 1");
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    /// `bench` is a standalone command: combining it with experiments,
    /// `list`, `--out` or ablation flags is a usage error (it would
    /// silently change what gets timed).
    #[test]
    fn bench_runs_alone() {
        for bad in [
            &["bench", "fig1"][..],
            &["bench", "list"],
            &["bench", "--out", "somewhere"],
            &["fig7", "--no-timer", "bench"],
        ] {
            let e = super::run(&args(bad)).unwrap_err();
            assert!(e.contains("bench runs alone"), "{bad:?}: {e}");
        }
        // And its flag is rejected without it (no silent no-op).
        let e = super::run(&args(&["table1", "--json", "x.json"])).unwrap_err();
        assert!(e.contains("--json only applies to bench"), "{e}");
    }

    /// The full harness at quick scale: writes valid-shaped JSON whose
    /// null-grid section carries both boot policies and a speedup field.
    #[test]
    fn bench_writes_json() {
        let path = std::env::temp_dir().join(format!("bench7-{}.json", std::process::id()));
        let a = args(&[
            "--scale",
            "quick",
            "--jobs",
            "2",
            "bench",
            "--served",
            "--json",
            path.to_str().unwrap(),
        ]);
        super::run(&a).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        for key in [
            "\"null_grid\"",
            "\"fig7_duration\"",
            "\"csv_stream\"",
            "\"workload_zoo\"",
            "\"served_grid\"",
            "\"warm_speedup_vs_fresh\"",
            "\"served_latency\"",
            "\"mean_round_trip_us\"",
            "\"speedup\"",
            "\"fresh\"",
            "\"session\"",
            "\"allocs_per_run\"",
            "\"scale\": \"quick\"",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// serve/client flag surfaces are validated strictly: a misplaced
    /// flag is a usage error, never a silent no-op.
    #[test]
    fn serve_and_client_flag_validation() {
        for bad in [
            &["serve", "table1"][..],
            &["serve", "bench"],
            &["serve", "--jobs", "2"],
            &["serve", "--scale", "quick"],
            &["serve", "--csv"],
            &["serve", "--served"],
            &["serve", "client"],
            &["client"],
            &["client", "ping", "--csv"],
            &["client", "stats", "--priority", "bulk"],
            &["client", "grid", "--workers", "2"],
            &["client", "grid", "--cache-dir", "somewhere"],
            &["client", "grid", "--priority", "urgent"],
            &["client", "grid", "--out", "somewhere"],
            &["client", "ping", "--out", "somewhere"],
            &["client", "experiment"],
            &["client", "experiment", "all"],
            &["client", "experiment", "table1", "fig1"],
            &["client", "experiment", "warp-field"],
            &["client", "experiment", "table1", "--csv"],
            &["client", "experiment", "table1", "--priority", "bulk"],
            &["table1", "--addr", "127.0.0.1:1"],
            &["table1", "--csv"],
            &["--served", "table1"],
            // Robustness knobs are scoped to serve/client/bench --served;
            // anywhere else (or malformed) is a usage error.
            &["serve", "--retries", "2"],
            &["serve", "--timeout", "soon"],
            &["client", "ping", "--chaos-seed", "7"],
            &["client", "ping", "--retries", "-1"],
            &["table1", "--timeout", "100"],
            &["table1", "--retries", "1"],
            &["table1", "--chaos-seed", "7"],
            &["bench", "--chaos-seed", "7"],
            &["bench", "--timeout", "100"],
        ] {
            assert!(super::run(&args(bad)).is_err(), "{bad:?} should be rejected");
        }
    }

    /// The whole CLI client surface against a live in-process countd.
    #[test]
    fn client_round_trip_against_spawned_server() {
        let server = Server::spawn(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr().to_string();
        super::run(&args(&["client", "--addr", addr.as_str(), "ping"])).unwrap();
        super::run(&args(&[
            "client", "--addr", addr.as_str(), "--scale", "quick", "--priority", "bulk", "grid",
        ]))
        .unwrap();
        super::run(&args(&["client", "--addr", addr.as_str(), "stats"])).unwrap();

        // `client experiment`: the served artifacts are byte-identical to
        // a local run of the same experiment — the acceptance identity
        // for the workload-accuracy sweep's served path.
        let base = std::env::temp_dir().join(format!("repro-exp-{}", std::process::id()));
        let served_dir = base.join("served");
        let local_dir = base.join("local");
        super::run(&args(&[
            "client",
            "--addr",
            addr.as_str(),
            "--scale",
            "quick",
            "--out",
            served_dir.to_str().unwrap(),
            "experiment",
            "workload-accuracy",
        ]))
        .unwrap();
        super::run(&args(&[
            "--scale",
            "quick",
            "--out",
            local_dir.to_str().unwrap(),
            "workload-accuracy",
        ]))
        .unwrap();
        for name in ["workload_accuracy.csv", "workload_accuracy.txt"] {
            let served = std::fs::read_to_string(served_dir.join(name)).unwrap();
            let local = std::fs::read_to_string(local_dir.join(name)).unwrap();
            assert_eq!(served, local, "{name}: served diverged from local");
        }
        let _ = std::fs::remove_dir_all(&base);

        super::run(&args(&["client", "--addr", addr.as_str(), "shutdown"])).unwrap();
        server.join();
    }

    #[test]
    fn jobs_flag_validated() {
        for bad in [&["--jobs", "0"][..], &["--jobs", "many"], &["--jobs"]] {
            let mut a = args(bad);
            a.push("table1".into());
            assert!(super::run(&a).is_err(), "{bad:?} should be rejected");
        }
    }
}
