//! Extension experiment: accuracy of multiplexed (time-interpolated)
//! counter measurements — the direction of Mytkowicz et al., which the
//! paper's §9 distinguishes from its own scope.
//!
//! A Core 2 Duo has two programmable counters; measuring four events
//! requires multiplexing. We quantify the interpolation error of the
//! instruction estimate for two workload shapes:
//!
//! * **stationary** — the same loop slice between every rotation: the
//!   uniformity assumption holds and interpolation is accurate;
//! * **phased** — the workload changes character between rotations: the
//!   assumption breaks and the error explodes.

use counterlab_cpu::layout::CodePlacement;
use counterlab_cpu::mix::InstMix;
use counterlab_cpu::uarch::Processor;
use counterlab_kernel::config::{KernelConfig, SkidModel};
use counterlab_kernel::system::System;
use counterlab_papi::multiplex::Multiplexed;
use counterlab_papi::{BackendKind, PapiPreset};

use crate::experiment::{Experiment, ExperimentCtx, Report};
use crate::report;
use crate::Result;

/// Registry driver for the multiplexing extension. The rotation shape —
/// [`ExtMultiplex::SLICES`] slices of [`ExtMultiplex::PER_SLICE`] loop
/// iterations — is the experiment's own invariant, not a CLI knob.
pub struct ExtMultiplex;

impl ExtMultiplex {
    /// Rotation slices per run.
    pub const SLICES: usize = 8;
    /// Loop iterations per slice.
    pub const PER_SLICE: u64 = 250_000;
}

impl Experiment for ExtMultiplex {
    fn id(&self) -> &'static str {
        "ext-multiplex"
    }

    fn title(&self) -> &'static str {
        "extension: multiplexed counting accuracy (4 events on 2 counters)"
    }

    fn run(&self, _ctx: &ExperimentCtx) -> Result<Report> {
        let fig = run(Self::SLICES, Self::PER_SLICE)?;
        Ok(Report::text("ext-multiplex.txt", fig.render()))
    }
}

/// Events multiplexed in the experiment.
pub const EVENTS: [PapiPreset; 4] = [
    PapiPreset::PAPI_TOT_INS,
    PapiPreset::PAPI_TOT_CYC,
    PapiPreset::PAPI_BR_INS,
    PapiPreset::PAPI_L1_ICM,
];

/// One row: a workload shape's interpolation accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiplexRow {
    /// Whether the workload was stationary.
    pub stationary: bool,
    /// The backend used.
    pub backend: BackendKind,
    /// True instruction count of the workload.
    pub true_instructions: u64,
    /// The multiplexed estimate.
    pub estimated_instructions: f64,
    /// Relative error in percent.
    pub relative_error_percent: f64,
}

/// The experiment result.
#[derive(Debug, Clone)]
pub struct MultiplexFigure {
    /// Rows for (stationary, phased) × (perfmon, perfctr).
    pub rows: Vec<MultiplexRow>,
}

/// Runs the experiment with `slices` rotation slices of `per_slice` loop
/// iterations each.
///
/// # Errors
///
/// Propagates PAPI failures.
pub fn run(slices: usize, per_slice: u64) -> Result<MultiplexFigure> {
    let mut rows = Vec::new();
    for backend in [BackendKind::Perfmon, BackendKind::Perfctr] {
        for stationary in [true, false] {
            rows.push(one_case(backend, stationary, slices, per_slice)?);
        }
    }
    Ok(MultiplexFigure { rows })
}

fn one_case(
    backend: BackendKind,
    stationary: bool,
    slices: usize,
    per_slice: u64,
) -> Result<MultiplexRow> {
    let sys = System::new(
        Processor::Core2Duo,
        KernelConfig::default()
            .with_hz(0)
            .with_skid(SkidModel::disabled()),
    );
    let mut mpx = Multiplexed::new(backend, sys, &EVENTS, 0x3B9)?;
    mpx.start()?;
    let placement = CodePlacement::at(0x0804_9000);
    let mut true_instructions = 0u64;
    for slice in 0..slices.max(2) {
        if stationary || slice % 2 == 0 {
            mpx.system_mut()
                .run_user_loop(&InstMix::LOOP_BODY, per_slice, placement);
            true_instructions += 3 * per_slice;
        } else {
            // Phased: alternate slices run a *bigger* straight-line block,
            // concentrating instructions in particular groups' windows.
            mpx.system_mut()
                .run_user_mix(&InstMix::straight_line(9 * per_slice));
            true_instructions += 9 * per_slice;
        }
        if slice + 1 < slices {
            mpx.rotate()?;
        }
    }
    mpx.stop()?;
    let estimated = mpx.estimate(PapiPreset::PAPI_TOT_INS)?;
    let relative = 100.0 * (estimated - true_instructions as f64).abs() / true_instructions as f64;
    Ok(MultiplexRow {
        stationary,
        backend,
        true_instructions,
        estimated_instructions: estimated,
        relative_error_percent: relative,
    })
}

impl MultiplexFigure {
    /// The row for a (backend, stationary) pair.
    pub fn row(&self, backend: BackendKind, stationary: bool) -> Option<&MultiplexRow> {
        self.rows
            .iter()
            .find(|r| r.backend == backend && r.stationary == stationary)
    }

    /// Renders the experiment.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.backend.to_string(),
                    if r.stationary { "stationary" } else { "phased" }.to_string(),
                    r.true_instructions.to_string(),
                    format!("{:.0}", r.estimated_instructions),
                    format!("{:.1}%", r.relative_error_percent),
                ]
            })
            .collect();
        format!(
            "Extension: multiplexed counting accuracy (4 events on 2 counters, CD)\n\n{}",
            report::table(
                &[
                    "backend",
                    "workload",
                    "true instr",
                    "estimate",
                    "rel. error"
                ],
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_accurate_phased_not() {
        let fig = run(8, 200_000).unwrap();
        for backend in [BackendKind::Perfmon, BackendKind::Perfctr] {
            let stat = fig.row(backend, true).unwrap();
            let phased = fig.row(backend, false).unwrap();
            assert!(
                stat.relative_error_percent < 5.0,
                "{backend}: stationary error {}%",
                stat.relative_error_percent
            );
            assert!(
                phased.relative_error_percent > 3.0 * stat.relative_error_percent.max(0.5),
                "{backend}: phased {}% vs stationary {}%",
                phased.relative_error_percent,
                stat.relative_error_percent
            );
        }
    }

    #[test]
    fn renders() {
        let fig = run(4, 50_000).unwrap();
        let text = fig.render();
        assert!(text.contains("multiplexed"));
        assert!(text.contains("phased"));
    }
}
