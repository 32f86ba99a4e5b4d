//! # counterlab
//!
//! A simulation laboratory reproducing *“Accuracy of Performance Counter
//! Measurements”* (Dmitrijs Zaparanuks, Milan Jovic, Matthias Hauswirth;
//! University of Lugano TR 2008/05 / ISPASS 2009).
//!
//! The paper is the first comparative study of the accuracy of the
//! user-level counter-access infrastructures **perfctr**, **perfmon2**
//! and **PAPI** on the Pentium D, Core 2 Duo and Athlon 64 X2. This crate
//! is the top of the reproduction stack:
//!
//! * [`benchmark`] — the null and loop micro-benchmarks whose true counts
//!   are known statically (§3.4);
//! * [`pattern`] — the four counter access patterns (§3.5, Table 2);
//! * [`interface`] — one API over the six measurement stacks
//!   (`pm`, `pc`, `PLpm`, `PLpc`, `PHpm`, `PHpc`; Figure 2);
//! * [`config`], [`measure`], [`grid`] — the measurement harness and the
//!   factorial experiment runner (§3.6);
//! * [`sweep`], [`exec`] — the one sweep runner every measurement sweep
//!   hands its cell plan to, and the parallel engine under it
//!   (deterministic results at any worker count);
//! * [`experiments`] — a generator for **every table and figure** in the
//!   paper's evaluation;
//! * [`experiment`] — the public API over those generators: the
//!   [`experiment::Experiment`] trait, the static
//!   [`experiment::registry`], and pluggable [`experiment::Sink`]s;
//! * [`report`] — text/CSV rendering;
//! * [`wire`], [`serve`] — the `countd` measurement daemon: a versioned
//!   line protocol and a server with a content-addressed result cache,
//!   so repeated sweeps are answered without re-measurement;
//! * [`fault`] — a seeded, reproducible fault-injection plane used by
//!   the chaos suite to prove the daemon degrades instead of dying.
//!
//! The hardware and OS substrates live in the sibling crates
//! `counterlab-cpu`, `counterlab-kernel`, `counterlab-perfctr`,
//! `counterlab-perfmon`, `counterlab-papi` and `counterlab-stats`, all
//! re-exported here for convenience.
//!
//! # Quickstart
//!
//! Measure the loop benchmark with each infrastructure and compare the
//! error:
//!
//! ```
//! use counterlab::prelude::*;
//!
//! # fn main() -> Result<(), counterlab::CoreError> {
//! let bench = Benchmark::Loop { iters: 100_000 };
//! for interface in [Interface::Pm, Interface::Pc] {
//!     let config = MeasurementConfig::new(Processor::Core2Duo, interface)
//!         .with_pattern(Pattern::ReadRead)
//!         .with_mode(CountingMode::User);
//!     let record = run_measurement(&config, bench)?;
//!     // ie = 1 + 3l = 300001; anything beyond that is measurement error.
//!     assert_eq!(record.expected, 300_001);
//!     assert!(record.error() > 0);
//! }
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmark;
pub mod compensation;
pub mod config;
pub mod counter;
pub mod exec;
pub mod experiment;
pub mod experiments;
pub mod fault;
pub mod grid;
pub mod interface;
pub mod measure;
pub mod pattern;
pub mod report;
pub mod serve;
pub mod sweep;
pub mod tools;
pub mod wire;

mod error;

pub use error::CoreError;

// Substrate re-exports.
pub use counterlab_cpu as cpu;
pub use counterlab_kernel as kernel;
pub use counterlab_papi as papi;
pub use counterlab_perfctr as perfctr;
pub use counterlab_perfmon as perfmon;
pub use counterlab_stats as stats;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Commonly used types.
pub mod prelude {
    pub use crate::benchmark::Benchmark;
    pub use crate::config::{MeasurementConfig, OptLevel};
    pub use crate::exec::RunOptions;
    pub use crate::experiment::{EngineMode, Experiment, ExperimentCtx, Scale};
    pub use crate::grid::{Grid, RecordSet};
    pub use crate::interface::{AnyInterface, CountingMode, Interface};
    pub use crate::measure::{run_measurement, Record};
    pub use crate::pattern::Pattern;
    pub use crate::CoreError;
    pub use counterlab_cpu::prelude::*;
    pub use counterlab_kernel::prelude::*;
}
