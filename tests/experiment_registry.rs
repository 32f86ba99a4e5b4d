//! Registry conformance: every experiment in
//! [`counterlab::experiment::registry`] honors the API contract the CLI
//! is built on — stable unique ids and artifact names, truthful
//! streaming capability, ablations with unique owners — and actually
//! runs at smoke scale through a memory sink in every engine mode it
//! claims to support.

use counterlab::exec::RunOptions;
use counterlab::experiment::{
    ablation_owner, registry, ArtifactKind, EngineMode, Experiment, ExperimentCtx, MemorySink,
    Scale,
};

/// The documented command list, in `repro all` emission order. A new
/// experiment must be added here deliberately (and to the README) —
/// accidental registry edits fail this test.
const DOCUMENTED_IDS: [&str; 19] = [
    "table1",
    "table2",
    "fig3",
    "fig1",
    "fig4",
    "fig5",
    "table3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "anova",
    "ext-cache",
    "ext-multiplex",
    "workload-accuracy",
    "csv",
];

fn smoke_ctx(mode: EngineMode, jobs: usize) -> ExperimentCtx {
    ExperimentCtx::new(Scale::quick())
        .with_opts(RunOptions::with_jobs(jobs))
        .with_mode(mode)
}

/// Runs `exp` under `ctx` and collects its artifacts.
fn run_into_sink(exp: &dyn Experiment, ctx: &ExperimentCtx) -> MemorySink {
    let id = exp.id();
    let mut sink = MemorySink::new();
    exp.run(ctx)
        .unwrap_or_else(|e| panic!("{id} failed {:?} smoke run: {e}", ctx.mode))
        .emit(&mut sink)
        .unwrap_or_else(|e| panic!("{id} failed to emit {:?}: {e}", ctx.mode));
    sink
}

#[test]
fn ids_match_documented_command_list() {
    let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
    assert_eq!(ids, DOCUMENTED_IDS);
}

#[test]
fn ids_and_titles_are_well_formed() {
    for exp in registry() {
        let id = exp.id();
        assert!(!id.is_empty() && id.len() <= 20, "{id:?}");
        assert!(
            id.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
            "{id:?} is not a stable lowercase command id"
        );
        assert!(!id.starts_with("--"), "{id:?} collides with flag syntax");
        assert!(!exp.title().is_empty(), "{id}: empty title");
    }
}

#[test]
fn ablation_flags_have_unique_owners() {
    for exp in registry() {
        for a in exp.capabilities().ablations {
            assert!(a.flag.starts_with("--"), "{}: {:?}", exp.id(), a.flag);
            assert!(!a.effect.is_empty(), "{}: {} lacks a description", exp.id(), a.flag);
            let owner = ablation_owner(a.flag).expect("flag resolves");
            assert_eq!(
                owner.id(),
                exp.id(),
                "{} is declared by more than one experiment",
                a.flag
            );
        }
    }
}

/// Every experiment runs at smoke scale through a [`MemorySink`] in both
/// engine modes it claims to support; artifact names are unique across
/// the whole registry and stable across runs; streaming-incapable
/// experiments ignore a streaming request bit-for-bit; and in either mode
/// every artifact is byte-identical at one and at four workers.
#[test]
fn every_experiment_runs_at_smoke_scale_in_claimed_modes() {
    let mut seen_names: Vec<&'static str> = Vec::new();
    for &exp in registry() {
        let id = exp.id();

        let batch = run_into_sink(exp, &smoke_ctx(EngineMode::Batch, 1));
        assert!(!batch.artifacts.is_empty(), "{id}: empty report");
        for artifact in &batch.artifacts {
            assert!(
                !seen_names.contains(&artifact.name),
                "{id}: artifact {} also produced by another experiment",
                artifact.name
            );
            seen_names.push(artifact.name);
            assert!(!artifact.content.is_empty(), "{id}: empty {}", artifact.name);
            match artifact.kind {
                ArtifactKind::Text => assert!(artifact.rows.is_none()),
                ArtifactKind::Rows => {
                    assert!(artifact.rows.is_some(), "{id}: rows artifact without count");
                }
            }
        }

        // A second batch run is byte-identical (fixed seeds).
        let again = run_into_sink(exp, &smoke_ctx(EngineMode::Batch, 1));
        assert_eq!(
            again.artifacts, batch.artifacts,
            "{id}: batch run not deterministic"
        );

        // The streaming ctx: a real streaming run when claimed, a
        // byte-identical batch run when not (the mode must be ignored,
        // not half-applied).
        let stream = run_into_sink(exp, &smoke_ctx(EngineMode::Streaming, 1));
        let names = |sink: &MemorySink| -> Vec<&'static str> {
            sink.artifacts.iter().map(|a| a.name).collect()
        };
        assert_eq!(names(&stream), names(&batch), "{id}: artifact names differ by mode");
        if !exp.capabilities().streaming {
            assert_eq!(
                stream.artifacts, batch.artifacts,
                "{id}: claims batch-only but a streaming request changed its output"
            );
        }

        // Every fold is per cell, so no artifact depends on the worker
        // count, in either mode.
        for (mode, one) in [
            (EngineMode::Batch, &batch),
            (EngineMode::Streaming, &stream),
        ] {
            let four = run_into_sink(exp, &smoke_ctx(mode, 4));
            assert_eq!(
                four.artifacts, one.artifacts,
                "{id}: {mode:?} output differs between --jobs 1 and --jobs 4"
            );
        }
    }
}

/// Experiments declaring an ablation produce different output when the
/// flag is enabled — an ablation that changes nothing is a wiring bug
/// of exactly the kind the old CLI had.
#[test]
fn declared_ablations_change_output() {
    for exp in registry() {
        for a in exp.capabilities().ablations {
            let mut plain = MemorySink::new();
            exp.run(&smoke_ctx(EngineMode::Batch, 2))
                .unwrap()
                .emit(&mut plain)
                .unwrap();
            let mut ablated = MemorySink::new();
            exp.run(&smoke_ctx(EngineMode::Batch, 2).with_ablation(a.flag))
                .unwrap()
                .emit(&mut ablated)
                .unwrap();
            assert_ne!(
                plain.artifacts,
                ablated.artifacts,
                "{}: {} changed nothing",
                exp.id(),
                a.flag
            );
        }
    }
}

/// Every `experiments/` source file, by module name.
const EXPERIMENT_SOURCES: [(&str, &str); 12] = [
    ("anova", include_str!("../crates/core/src/experiments/anova.rs")),
    ("cache", include_str!("../crates/core/src/experiments/cache.rs")),
    ("csv", include_str!("../crates/core/src/experiments/csv.rs")),
    ("cycles", include_str!("../crates/core/src/experiments/cycles.rs")),
    ("duration", include_str!("../crates/core/src/experiments/duration.rs")),
    ("infrastructure", include_str!("../crates/core/src/experiments/infrastructure.rs")),
    ("multiplexing", include_str!("../crates/core/src/experiments/multiplexing.rs")),
    ("overview", include_str!("../crates/core/src/experiments/overview.rs")),
    ("registers", include_str!("../crates/core/src/experiments/registers.rs")),
    ("tables", include_str!("../crates/core/src/experiments/tables.rs")),
    ("tsc", include_str!("../crates/core/src/experiments/tsc.rs")),
    ("workload", include_str!("../crates/core/src/experiments/workload.rs")),
];

/// Every `impl Experiment for` in `experiments/` is registered: the impl
/// count equals the registry size and each impl's `id()` literal is a
/// registered id. `EXPERIMENT_SOURCES` is itself checked against the
/// `pub mod` list of `experiments/mod.rs`, so a new module cannot hide.
#[test]
fn every_experiment_impl_is_registered() {
    let mods: Vec<&str> = include_str!("../crates/core/src/experiments/mod.rs")
        .lines()
        .filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';'))
        .collect();
    let listed: Vec<&str> = EXPERIMENT_SOURCES.iter().map(|(m, _)| *m).collect();
    assert_eq!(
        listed, mods,
        "EXPERIMENT_SOURCES must list every experiments/ module"
    );

    let registered: Vec<&str> = registry().iter().map(|e| e.id()).collect();
    let mut impls = 0;
    for (module, source) in EXPERIMENT_SOURCES {
        for block in source.split("impl Experiment for ").skip(1) {
            impls += 1;
            let ty = block.split_whitespace().next().unwrap_or_default();
            let id = block
                .split_once("fn id(&self)")
                .and_then(|(_, rest)| rest.split('"').nth(1))
                .unwrap_or_else(|| panic!("{module}::{ty}: no literal id() found"));
            assert!(
                registered.contains(&id),
                "{module}::{ty} (id {id:?}) is not in registry()"
            );
        }
    }
    assert_eq!(
        impls,
        registered.len(),
        "an Experiment impl is missing from registry()"
    );
}
