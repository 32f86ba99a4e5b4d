//! The one public API for running paper reproductions.
//!
//! The paper's evaluation is a catalog of figures and tables; this module
//! turns each of them into a registered [`Experiment`]:
//!
//! * [`Experiment`] — the driver trait: an `id` (the CLI command), a
//!   `title`, [`Capabilities`] (streaming support, ablation flags) and a
//!   `run` that produces a [`Report`];
//! * [`ExperimentCtx`] — everything a run needs: the repetition
//!   [`Scale`], execution-engine [`RunOptions`], the [`EngineMode`]
//!   selector and any enabled ablation flags;
//! * [`Report`] / [`Artifact`] — named outputs (rendered text, CSV row
//!   streams) that a pluggable [`Sink`] consumes: [`ConsoleSink`] for the
//!   CLI, [`DirSink`] for file-only output, [`MemorySink`] for tests;
//! * [`registry`] — the static catalog of every experiment, the single
//!   source of truth for the `repro` binary's command set.
//!
//! # Running one experiment
//!
//! ```
//! use counterlab::experiment::{find, ExperimentCtx, MemorySink, Scale};
//!
//! let exp = find("table1").expect("registered");
//! let report = exp.run(&ExperimentCtx::new(Scale::quick())).unwrap();
//! let mut sink = MemorySink::new();
//! report.emit(&mut sink).unwrap();
//! assert_eq!(sink.artifacts[0].name, "table1.txt");
//! assert!(sink.artifacts[0].content.contains("Table 1"));
//! ```
//!
//! # Adding a new figure
//!
//! Implement the trait on a unit struct in the relevant
//! [`crate::experiments`] module and add it to [`registry`]; the CLI's
//! command validation, `list` output, `all` sweep, `--stream`
//! eligibility and artifact emission pick it up with no further wiring:
//!
//! ```
//! use counterlab::experiment::{Experiment, ExperimentCtx, Report};
//!
//! struct Fig99;
//! impl Experiment for Fig99 {
//!     fn id(&self) -> &'static str { "fig99" }
//!     fn title(&self) -> &'static str { "Figure 99: an example" }
//!     fn run(&self, ctx: &ExperimentCtx) -> counterlab::Result<Report> {
//!         let reps = ctx.scale.grid_reps;
//!         Ok(Report::text("fig99.txt", format!("ran at {reps} reps")))
//!     }
//! }
//! ```

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::exec::RunOptions;
use crate::experiments;
use crate::Result;

/// Repetition presets shared by every experiment.
///
/// Each driver reads the field matching its sweep shape, so the full
/// paper-scale reproduction and a quick smoke run share one code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Repetitions per cell for null-benchmark grids.
    pub grid_reps: usize,
    /// Repetitions per loop size for duration sweeps.
    pub duration_reps: usize,
    /// Repetitions per size for Figure 9 (the paper uses thousands).
    pub fig9_reps: usize,
    /// Repetitions per (pattern, opt, size) for cycle scatters.
    pub cycle_reps: usize,
}

impl Scale {
    /// The recognized preset names, in `--scale` documentation order.
    pub const NAMES: [&'static str; 3] = ["quick", "standard", "paper"];

    /// Quick smoke-test scale (seconds).
    pub fn quick() -> Self {
        Scale {
            grid_reps: 2,
            duration_reps: 4,
            fig9_reps: 40,
            cycle_reps: 1,
        }
    }

    /// The default reproduction scale: large enough for stable medians
    /// and slopes.
    pub fn standard() -> Self {
        Scale {
            grid_reps: 10,
            duration_reps: 40,
            fig9_reps: 200,
            cycle_reps: 2,
        }
    }

    /// Paper scale: comparable measurement counts to the original study
    /// (Figure 1 pools >170000 measurements).
    pub fn paper() -> Self {
        Scale {
            grid_reps: 55,
            duration_reps: 120,
            fig9_reps: 2_000,
            cycle_reps: 4,
        }
    }

    /// Parses a preset name from [`Scale::NAMES`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "quick" => Some(Self::quick()),
            "standard" => Some(Self::standard()),
            "paper" => Some(Self::paper()),
            _ => None,
        }
    }
}

/// Which statistics engine an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Materialize every record, then summarize (exact quantiles,
    /// whiskers, outliers, bootstrap CIs).
    #[default]
    Batch,
    /// Fold each null-grid cell's records into a constant-memory
    /// accumulator ([`counterlab_stats::stream`]) instead of materializing
    /// them; summaries agree with batch within the documented tolerances.
    /// Only experiments whose [`Capabilities::streaming`] is set (fig1,
    /// table3, anova) have such a driver.
    Streaming,
}

/// An ablation an experiment understands: a CLI flag plus the effect it
/// has, straight out of the paper's narrative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ablation {
    /// The flag as typed on the command line (e.g. `"--no-timer"`).
    pub flag: &'static str,
    /// One-line description of what the ablation demonstrates.
    pub effect: &'static str,
}

/// What an experiment can do beyond a plain batch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Capabilities {
    /// Whether [`EngineMode::Streaming`] selects a second, constant-memory
    /// driver. Otherwise the experiment has one driver and ignores the
    /// mode bit for bit.
    pub streaming: bool,
    /// Ablation flags this experiment accepts.
    pub ablations: &'static [Ablation],
}

impl Capabilities {
    /// Batch-only, no ablations.
    pub const BATCH_ONLY: Capabilities = Capabilities {
        streaming: false,
        ablations: &[],
    };

    /// Streaming-capable, no ablations.
    pub const STREAMING: Capabilities = Capabilities {
        streaming: true,
        ablations: &[],
    };
}

/// Everything an [`Experiment::run`] needs: scale, engine options, the
/// engine-mode selector and enabled ablations.
#[derive(Debug, Clone, Default)]
pub struct ExperimentCtx {
    /// Repetition preset.
    pub scale: Scale,
    /// Execution-engine options (the worker count).
    pub opts: RunOptions,
    /// Requested statistics engine. Experiments whose
    /// [`Capabilities::streaming`] is `false` run batch regardless; use
    /// [`Experiment::engine`] to resolve the effective mode.
    pub mode: EngineMode,
    /// Enabled ablation flags (validated against the registry by the
    /// CLI before any experiment runs).
    pub ablations: Vec<&'static str>,
}

impl Default for Scale {
    fn default() -> Self {
        Scale::standard()
    }
}

impl ExperimentCtx {
    /// A batch-mode context at the given scale with default engine
    /// options and no ablations.
    pub fn new(scale: Scale) -> Self {
        ExperimentCtx {
            scale,
            opts: RunOptions::default(),
            mode: EngineMode::Batch,
            ablations: Vec::new(),
        }
    }

    /// Replaces the execution-engine options.
    pub fn with_opts(mut self, opts: RunOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Selects the statistics engine.
    pub fn with_mode(mut self, mode: EngineMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enables an ablation flag.
    pub fn with_ablation(mut self, flag: &'static str) -> Self {
        self.ablations.push(flag);
        self
    }

    /// Whether an ablation flag is enabled.
    pub fn ablated(&self, flag: &str) -> bool {
        self.ablations.contains(&flag)
    }
}

/// A reproduction driver for one figure or table of the paper.
///
/// Implementations are unit structs registered in [`registry`]; the
/// `repro` CLI is a data-driven loop over that catalog.
pub trait Experiment: Sync {
    /// The stable identifier — also the CLI command (`"fig1"`).
    fn id(&self) -> &'static str;

    /// One-line human title shown by `repro list`.
    fn title(&self) -> &'static str;

    /// What the experiment supports beyond a plain batch run.
    fn capabilities(&self) -> Capabilities {
        Capabilities::BATCH_ONLY
    }

    /// Resolves the engine the experiment will actually use for `ctx`:
    /// [`EngineMode::Streaming`] only when both requested and supported.
    fn engine(&self, ctx: &ExperimentCtx) -> EngineMode {
        match ctx.mode {
            EngineMode::Streaming if self.capabilities().streaming => EngineMode::Streaming,
            _ => EngineMode::Batch,
        }
    }

    /// Runs the experiment and returns its artifacts.
    ///
    /// # Errors
    ///
    /// Propagates measurement and statistics failures.
    fn run(&self, ctx: &ExperimentCtx) -> Result<Report>;
}

/// Pushes one chunk of a row-stream artifact toward its destination.
/// Infallible by design — sinks stash I/O errors and report them after
/// the producer finishes, mirroring [`crate::grid::Grid::run_csv`].
pub type RowFn<'a> = &'a mut dyn FnMut(&str);

/// Produces a row-stream artifact's content incrementally, returning the
/// number of data records written. Owns its inputs (`'static`) so the
/// sink can drive it after [`Experiment::run`] has returned.
pub type RowProducer = Box<dyn FnOnce(RowFn<'_>) -> Result<u64> + Send>;

/// The payload of an [`Artifact`].
pub enum ArtifactBody {
    /// Rendered text, printed by console sinks.
    Text(String),
    /// A lazily-produced row stream (CSV): the sink drives the producer
    /// so rows reach their destination without materializing — `O(1)`
    /// memory in the record count for streaming producers.
    Rows(RowProducer),
}

/// How a sink should treat an artifact's content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Human-readable text: console sinks print it.
    Text,
    /// Machine-readable rows: file-only, never printed.
    Rows,
}

/// One named experiment output.
pub struct Artifact {
    /// File name the artifact lands under (e.g. `"fig1.txt"`).
    pub name: &'static str,
    /// The content.
    pub body: ArtifactBody,
}

impl Artifact {
    /// A rendered-text artifact.
    pub fn text(name: &'static str, content: String) -> Self {
        Artifact {
            name,
            body: ArtifactBody::Text(content),
        }
    }

    /// A row-stream artifact.
    pub fn rows(name: &'static str, producer: RowProducer) -> Self {
        Artifact {
            name,
            body: ArtifactBody::Rows(producer),
        }
    }

    /// The artifact's kind.
    pub fn kind(&self) -> ArtifactKind {
        match self.body {
            ArtifactBody::Text(_) => ArtifactKind::Text,
            ArtifactBody::Rows(_) => ArtifactKind::Rows,
        }
    }
}

impl std::fmt::Debug for Artifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Artifact")
            .field("name", &self.name)
            .field("kind", &self.kind())
            .finish()
    }
}

/// What a sink did with one artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Emitted {
    /// The artifact's name.
    pub name: &'static str,
    /// Data-record count for row-stream artifacts, `None` for text.
    pub rows: Option<u64>,
}

/// An experiment's named outputs, in emission order.
#[derive(Debug, Default)]
pub struct Report {
    /// The artifacts, emitted in order.
    pub artifacts: Vec<Artifact>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// A report holding one text artifact.
    pub fn text(name: &'static str, content: String) -> Self {
        Report {
            artifacts: vec![Artifact::text(name, content)],
        }
    }

    /// Appends an artifact.
    pub fn push(&mut self, artifact: Artifact) {
        self.artifacts.push(artifact);
    }

    /// Feeds every artifact to `sink` in order.
    ///
    /// Artifact names are checked against [`validate_artifact_name`]
    /// **before** the sink sees them: a name that fails fails the whole
    /// emit with [`SinkError::BadName`] and never reaches the
    /// destination. Each built-in sink re-checks on its own `consume`
    /// path too (defense in depth — sinks are public and callable
    /// directly, and names can now arrive over countd's wire).
    ///
    /// # Errors
    ///
    /// [`SinkError::BadName`] for an invalid artifact name; otherwise the
    /// first sink failure (I/O or a row producer's run error).
    pub fn emit(self, sink: &mut dyn Sink) -> std::result::Result<Vec<Emitted>, SinkError> {
        self.artifacts
            .into_iter()
            .map(|artifact| {
                let name = artifact.name;
                check_artifact_name(name)?;
                let rows = sink.consume(artifact)?;
                Ok(Emitted { name, rows })
            })
            .collect()
    }
}

/// Checks that an artifact name is a safe, plain file name.
///
/// Accepted: 1–128 bytes of `[A-Za-z0-9._-]`, not consisting solely of
/// dots. Everything else — and in particular `/`, `\`, `..` and absolute
/// paths — is rejected with a static reason string.
///
/// Artifact names become file names under a sink directory chosen by the
/// *receiver*, and with countd they arrive from the network: a name like
/// `../x` or `figs/x.csv` must be a typed refusal at the trust boundary,
/// not a silently created directory tree (`fs::write(dir.join(name))`
/// happily escapes `dir` for such names — that was the hole).
///
/// # Errors
///
/// A static human-readable reason.
pub fn validate_artifact_name(name: &str) -> std::result::Result<(), &'static str> {
    if name.is_empty() {
        return Err("name is empty");
    }
    if name.len() > 128 {
        return Err("name longer than 128 bytes");
    }
    if name.bytes().all(|b| b == b'.') {
        return Err("name is only dots");
    }
    for c in name.chars() {
        match c {
            'A'..='Z' | 'a'..='z' | '0'..='9' | '.' | '_' | '-' => {}
            '/' | '\\' => return Err("name contains a path separator"),
            _ => return Err("name contains a character outside [A-Za-z0-9._-]"),
        }
    }
    Ok(())
}

/// [`validate_artifact_name`] lifted to [`SinkError`], for sinks'
/// `consume` paths.
fn check_artifact_name(name: &str) -> std::result::Result<(), SinkError> {
    validate_artifact_name(name).map_err(|reason| SinkError::BadName {
        name: name.to_string(),
        reason,
    })
}

/// A sink failure: either the destination's I/O or the row producer's
/// own run error.
#[derive(Debug)]
pub enum SinkError {
    /// Writing an artifact failed.
    Io {
        /// The artifact being written.
        name: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// A row producer's sweep failed.
    Run(crate::CoreError),
    /// The artifact's name failed [`validate_artifact_name`] — it would
    /// escape or pollute the destination directory.
    BadName {
        /// The offending name, verbatim.
        name: String,
        /// Why it was rejected.
        reason: &'static str,
    },
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SinkError::Io { name, source } => write!(f, "writing {name}: {source}"),
            SinkError::Run(e) => write!(f, "{e}"),
            SinkError::BadName { name, reason } => {
                write!(f, "invalid artifact name {name:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for SinkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SinkError::Io { source, .. } => Some(source),
            SinkError::Run(e) => Some(e),
            SinkError::BadName { .. } => None,
        }
    }
}

impl From<crate::CoreError> for SinkError {
    fn from(e: crate::CoreError) -> Self {
        SinkError::Run(e)
    }
}

/// Consumes [`Artifact`]s — where experiment output actually goes.
pub trait Sink {
    /// Consumes one artifact, returning the data-record count for
    /// row-stream artifacts.
    ///
    /// # Errors
    ///
    /// Destination I/O failures and row-producer run failures.
    fn consume(&mut self, artifact: Artifact) -> std::result::Result<Option<u64>, SinkError>;
}

/// Streams a [`RowProducer`] into an optional writer, stashing the first
/// I/O error so the producer still runs to completion (its record count
/// and side effects stay deterministic whatever the destination does).
fn drive_rows(
    name: &'static str,
    producer: RowProducer,
    mut writer: Option<&mut dyn Write>,
) -> std::result::Result<u64, SinkError> {
    let mut io_error: Option<io::Error> = None;
    let rows = producer(&mut |line: &str| {
        if io_error.is_none() {
            if let Some(w) = writer.as_mut() {
                if let Err(e) = w.write_all(line.as_bytes()) {
                    io_error = Some(e);
                }
            }
        }
    })?;
    if io_error.is_none() {
        if let Some(w) = writer.as_mut() {
            if let Err(e) = w.flush() {
                io_error = Some(e);
            }
        }
    }
    match io_error {
        Some(source) => Err(SinkError::Io { name, source }),
        None => Ok(rows),
    }
}

/// The CLI's sink: prints text artifacts to stdout and mirrors every
/// artifact into an optional directory (row streams are file-only and go
/// to the directory incrementally; without a directory they are drained
/// for their record count, matching the historical `repro` behavior).
#[derive(Debug)]
pub struct ConsoleSink {
    dir: Option<PathBuf>,
}

impl ConsoleSink {
    /// Creates the sink; `dir = None` prints only.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the directory cannot be created.
    pub fn new(dir: Option<&Path>) -> io::Result<Self> {
        if let Some(d) = dir {
            fs::create_dir_all(d)?;
        }
        Ok(ConsoleSink {
            dir: dir.map(Path::to_path_buf),
        })
    }
}

impl Sink for ConsoleSink {
    fn consume(&mut self, artifact: Artifact) -> std::result::Result<Option<u64>, SinkError> {
        let name = artifact.name;
        check_artifact_name(name)?;
        match artifact.body {
            ArtifactBody::Text(content) => {
                println!("{content}");
                if let Some(dir) = &self.dir {
                    fs::write(dir.join(name), &content)
                        .map_err(|source| SinkError::Io { name, source })?;
                }
                Ok(None)
            }
            ArtifactBody::Rows(producer) => {
                let mut file = match &self.dir {
                    Some(dir) => Some(io::BufWriter::new(
                        fs::File::create(dir.join(name))
                            .map_err(|source| SinkError::Io { name, source })?,
                    )),
                    None => None,
                };
                let writer = file.as_mut().map(|w| w as &mut dyn Write);
                drive_rows(name, producer, writer).map(Some)
            }
        }
    }
}

/// A quiet directory sink: every artifact becomes a file, nothing is
/// printed.
#[derive(Debug)]
pub struct DirSink {
    dir: PathBuf,
}

impl DirSink {
    /// Creates the sink, creating `dir` if needed.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the directory cannot be created.
    pub fn new(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(DirSink {
            dir: dir.to_path_buf(),
        })
    }
}

impl Sink for DirSink {
    fn consume(&mut self, artifact: Artifact) -> std::result::Result<Option<u64>, SinkError> {
        let name = artifact.name;
        check_artifact_name(name)?;
        match artifact.body {
            ArtifactBody::Text(content) => {
                fs::write(self.dir.join(name), &content)
                    .map_err(|source| SinkError::Io { name, source })?;
                Ok(None)
            }
            ArtifactBody::Rows(producer) => {
                let mut file = io::BufWriter::new(
                    fs::File::create(self.dir.join(name))
                        .map_err(|source| SinkError::Io { name, source })?,
                );
                drive_rows(name, producer, Some(&mut file)).map(Some)
            }
        }
    }
}

/// One artifact as captured by a [`MemorySink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredArtifact {
    /// The artifact's name.
    pub name: &'static str,
    /// The artifact's kind.
    pub kind: ArtifactKind,
    /// The full content (row streams are materialized).
    pub content: String,
    /// Data-record count for row streams.
    pub rows: Option<u64>,
}

/// An in-memory sink for tests: materializes every artifact, row streams
/// included.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Everything consumed, in order.
    pub artifacts: Vec<StoredArtifact>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The stored artifact with the given name.
    pub fn get(&self, name: &str) -> Option<&StoredArtifact> {
        self.artifacts.iter().find(|a| a.name == name)
    }
}

impl Sink for MemorySink {
    fn consume(&mut self, artifact: Artifact) -> std::result::Result<Option<u64>, SinkError> {
        let name = artifact.name;
        check_artifact_name(name)?;
        let kind = artifact.kind();
        let (content, rows) = match artifact.body {
            ArtifactBody::Text(content) => (content, None),
            ArtifactBody::Rows(producer) => {
                let mut content = String::new();
                let rows = producer(&mut |line: &str| content.push_str(line))?;
                (content, Some(rows))
            }
        };
        self.artifacts.push(StoredArtifact {
            name,
            kind,
            content,
            rows,
        });
        Ok(rows)
    }
}

/// The static experiment catalog, in `repro all` emission order — the
/// single source of truth for the CLI's command set.
pub fn registry() -> &'static [&'static dyn Experiment] {
    static REGISTRY: &[&dyn Experiment] = &[
        &experiments::tables::Table1,
        &experiments::tables::Table2,
        &experiments::tables::Fig3,
        &experiments::overview::Fig1,
        &experiments::tsc::Fig4,
        &experiments::registers::Fig5,
        &experiments::infrastructure::Table3,
        &experiments::infrastructure::Fig6,
        &experiments::duration::Fig7,
        &experiments::duration::Fig8,
        &experiments::duration::Fig9Experiment,
        &experiments::cycles::Fig10,
        &experiments::cycles::Fig11Experiment,
        &experiments::cycles::Fig12Experiment,
        &experiments::anova::AnovaFigure,
        &experiments::cache::ExtCache,
        &experiments::multiplexing::ExtMultiplex,
        &experiments::workload::WorkloadAccuracy,
        &experiments::csv::CsvDump,
    ];
    REGISTRY
}

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    registry().iter().copied().find(|e| e.id() == id)
}

/// The experiment owning an ablation flag, if any (flags are unique
/// across the registry — the conformance suite enforces it).
pub fn ablation_owner(flag: &str) -> Option<&'static dyn Experiment> {
    registry()
        .iter()
        .copied()
        .find(|e| e.capabilities().ablations.iter().any(|a| a.flag == flag))
}

/// Near-miss ids for an unknown command: registered ids within
/// edit-distance 2, closest first (registry order breaks ties), at most
/// three.
pub fn suggest(unknown: &str) -> Vec<&'static str> {
    let mut near: Vec<(usize, usize, &'static str)> = registry()
        .iter()
        .enumerate()
        .map(|(pos, e)| (levenshtein(unknown, e.id()), pos, e.id()))
        .filter(|&(d, _, _)| d > 0 && d <= 2)
        .collect();
    near.sort();
    near.into_iter().take(3).map(|(_, _, id)| id).collect()
}

/// Plain Levenshtein distance over bytes (ids are ASCII).
fn levenshtein(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_names() {
        for name in Scale::NAMES {
            assert!(Scale::from_name(name).is_some(), "{name}");
        }
        assert!(Scale::from_name("warp").is_none());
        assert!(Scale::paper().grid_reps > Scale::standard().grid_reps);
        assert_eq!(Scale::default(), Scale::standard());
    }

    #[test]
    fn registry_lookup_and_order() {
        assert!(find("fig1").is_some());
        assert!(find("nope").is_none());
        // `all` emission order starts with the static tables and ends
        // with the csv dump.
        let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        assert_eq!(ids.first(), Some(&"table1"));
        assert_eq!(ids.last(), Some(&"csv"));
    }

    #[test]
    fn ablation_owners() {
        assert_eq!(ablation_owner("--no-timer").map(|e| e.id()), Some("fig7"));
        assert_eq!(
            ablation_owner("--single-build").map(|e| e.id()),
            Some("fig11")
        );
        assert!(ablation_owner("--frobnicate").is_none());
    }

    #[test]
    fn suggestions_rank_near_ids() {
        assert_eq!(levenshtein("fig2", "fig1"), 1);
        assert_eq!(levenshtein("fig2", "fig12"), 1);
        assert_eq!(levenshtein("", "abc"), 3);
        let s = suggest("fig2");
        assert!(!s.is_empty() && s.len() <= 3, "{s:?}");
        assert!(s.contains(&"fig1"), "{s:?}");
        // An id far from everything suggests nothing.
        assert!(suggest("xylophone").is_empty());
        // An exact id is not its own suggestion.
        assert!(!suggest("fig1").contains(&"fig1"));
    }

    #[test]
    fn ctx_ablations() {
        let ctx = ExperimentCtx::new(Scale::quick()).with_ablation("--no-timer");
        assert!(ctx.ablated("--no-timer"));
        assert!(!ctx.ablated("--single-build"));
    }

    #[test]
    fn engine_resolution_respects_capabilities() {
        let streaming_ctx = ExperimentCtx::new(Scale::quick()).with_mode(EngineMode::Streaming);
        let batch_ctx = ExperimentCtx::new(Scale::quick());
        let fig1 = find("fig1").unwrap();
        let fig6 = find("fig6").unwrap();
        assert_eq!(fig1.engine(&streaming_ctx), EngineMode::Streaming);
        assert_eq!(fig1.engine(&batch_ctx), EngineMode::Batch);
        assert_eq!(fig6.engine(&streaming_ctx), EngineMode::Batch);
    }

    #[test]
    fn memory_sink_materializes_rows() {
        let mut sink = MemorySink::new();
        let mut report = Report::text("a.txt", "hello".into());
        report.push(Artifact::rows(
            "b.csv",
            Box::new(|push| {
                push("h\n");
                push("1\n");
                push("2\n");
                Ok(2)
            }),
        ));
        let emitted = report.emit(&mut sink).unwrap();
        assert_eq!(emitted.len(), 2);
        assert_eq!(emitted[1].rows, Some(2));
        assert_eq!(sink.get("a.txt").unwrap().content, "hello");
        assert_eq!(sink.get("a.txt").unwrap().kind, ArtifactKind::Text);
        assert_eq!(sink.get("b.csv").unwrap().content, "h\n1\n2\n");
        assert_eq!(sink.get("b.csv").unwrap().rows, Some(2));
    }

    #[test]
    fn dir_sink_writes_files() {
        let dir = std::env::temp_dir().join(format!("counterlab-sink-{}", std::process::id()));
        let mut sink = DirSink::new(&dir).unwrap();
        let mut report = Report::text("x.txt", "content".into());
        report.push(Artifact::rows(
            "y.csv",
            Box::new(|push| {
                push("line\n");
                Ok(1)
            }),
        ));
        report.emit(&mut sink).unwrap();
        assert_eq!(fs::read_to_string(dir.join("x.txt")).unwrap(), "content");
        assert_eq!(fs::read_to_string(dir.join("y.csv")).unwrap(), "line\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn console_sink_without_dir_drains_rows() {
        let mut sink = ConsoleSink::new(None).unwrap();
        let rows = sink
            .consume(Artifact::rows(
                "z.csv",
                Box::new(|push| {
                    push("a\n");
                    push("b\n");
                    Ok(7)
                }),
            ))
            .unwrap();
        assert_eq!(rows, Some(7));
    }

    #[test]
    fn artifact_name_validation_rules() {
        for good in ["fig1.txt", "full_grid.csv", "BENCH_6.json", "a", "x-y_z.9"] {
            assert_eq!(validate_artifact_name(good), Ok(()), "{good}");
        }
        for (bad, why) in [
            ("figs/x.csv", "separator"),
            ("..", "dots"),
            (".", "dots"),
            ("../up.csv", "separator"),
            ("..\\up.csv", "separator"),
            ("/etc/passwd", "separator"),
            ("", "empty"),
            ("a b.csv", "outside"),
            ("naïve.txt", "outside"),
        ] {
            let reason = validate_artifact_name(bad).unwrap_err();
            assert!(reason.contains(why), "{bad:?}: got {reason:?}");
        }
        assert!(validate_artifact_name(&"x".repeat(129)).is_err());
        assert!(validate_artifact_name(&"x".repeat(128)).is_ok());
    }

    /// The path-traversal hole, per sink: a driver- (or network-)
    /// supplied name with separators or `..` must be a typed `BadName`
    /// error from every sink and from `Report::emit`, and `DirSink` must
    /// not have created anything outside (or inside) its directory.
    #[test]
    fn sinks_reject_traversal_names() {
        let dir = std::env::temp_dir().join(format!("counterlab-badname-{}", std::process::id()));
        for bad in ["figs/x.csv", "../escape.txt", ".."] {
            let err = Report::text(bad_static(bad), "payload".into())
                .emit(&mut MemorySink::new())
                .unwrap_err();
            assert!(matches!(err, SinkError::BadName { .. }), "emit {bad}: {err}");

            let mut mem = MemorySink::new();
            let err = mem
                .consume(Artifact::text(bad_static(bad), "payload".into()))
                .unwrap_err();
            assert!(matches!(err, SinkError::BadName { .. }), "memory {bad}: {err}");
            assert!(mem.artifacts.is_empty());

            let mut dsink = DirSink::new(&dir).unwrap();
            let err = dsink
                .consume(Artifact::text(bad_static(bad), "payload".into()))
                .unwrap_err();
            assert!(matches!(err, SinkError::BadName { .. }), "dir {bad}: {err}");
            let err = dsink
                .consume(Artifact::rows(
                    bad_static(bad),
                    Box::new(|push| {
                        push("row\n");
                        Ok(1)
                    }),
                ))
                .unwrap_err();
            assert!(matches!(err, SinkError::BadName { .. }), "dir rows {bad}: {err}");

            let mut csink = ConsoleSink::new(Some(&dir)).unwrap();
            let err = csink
                .consume(Artifact::text(bad_static(bad), "payload".into()))
                .unwrap_err();
            assert!(matches!(err, SinkError::BadName { .. }), "console {bad}: {err}");
        }
        // Nothing was written anywhere under (or escaping via) the dir.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        assert!(!std::env::temp_dir().join("escape.txt").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Artifact names are `&'static str` by design; tests leak a few
    /// bytes to exercise attacker-shaped names through the same API.
    fn bad_static(name: &str) -> &'static str {
        Box::leak(name.to_string().into_boxed_str())
    }

    #[test]
    fn row_producer_error_propagates() {
        let mut sink = MemorySink::new();
        let err = sink
            .consume(Artifact::rows(
                "fail.csv",
                Box::new(|_push| Err(crate::CoreError::NoData("sink test"))),
            ))
            .unwrap_err();
        assert!(err.to_string().contains("sink test"), "{err}");
    }
}
