//! Every artifact's bytes, pinned: one line per (scale, artifact) of every
//! registered experiment, holding the artifact's byte length and a
//! [`StreamHasher`] digest of its content.
//!
//! The scales are `quick` and `standard`; `csv` runs at both scales like
//! every other experiment. The second column names the one statistics
//! path, `batch`, as it always has. Each run uses an
//! explicit worker count, so `COUNTERLAB_JOBS` cannot matter (the registry
//! suite separately checks that the worker count changes nothing).
//!
//! A refactor that must not change results keeps this file as it is.
//! Regenerate it only after an intentional output change, and list every
//! changed artifact with its reason:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_artifacts
//! ```

use counterlab::cpu::hash::StreamHasher;
use counterlab::exec::RunOptions;
use counterlab::experiment::{registry, ExperimentCtx, MemorySink, Scale};

const GOLDEN_PATH: &str = "tests/golden/artifacts.txt";
const GOLDEN: &str = include_str!("golden/artifacts.txt");

/// Worker count of every run.
const JOBS: usize = 2;

/// `<scale> batch <artifact> <bytes> <digest>` for every artifact of
/// every registered experiment at `scale`.
fn digests(scale: &str, out: &mut String) {
    let preset = Scale::from_name(scale).expect("a named preset");
    for exp in registry() {
        let ctx = ExperimentCtx::new(preset).with_opts(RunOptions::with_jobs(JOBS));
        let mut sink = MemorySink::new();
        let report = exp.run(&ctx).unwrap_or_else(|e| panic!("{}: {e}", exp.id()));
        report
            .emit(&mut sink)
            .unwrap_or_else(|e| panic!("{}: {e}", exp.id()));
        for artifact in &sink.artifacts {
            let mut h = StreamHasher::new(0);
            h.write_str(&artifact.content);
            out.push_str(&format!(
                "{scale} batch {} {} {:016x}\n",
                artifact.name,
                artifact.content.len(),
                h.finish()
            ));
        }
    }
}

#[test]
fn every_artifact_matches_its_pinned_digest() {
    let mut got = String::new();
    for scale in ["quick", "standard"] {
        digests(scale, &mut got);
    }
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden file");
        eprintln!("regenerated {GOLDEN_PATH}; review the diff");
        return;
    }
    let changed: Vec<&str> = got
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, _)| a)
        .collect();
    assert!(
        changed.is_empty() && got.lines().count() == GOLDEN.lines().count(),
        "artifacts drifted from {GOLDEN_PATH} ({} lines now, {} pinned); changed: {changed:#?}\n\
         if the change is intentional, regenerate with GOLDEN_REGEN=1 and review the diff",
        got.lines().count(),
        GOLDEN.lines().count()
    );
}
