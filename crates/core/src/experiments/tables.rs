//! Tables 1 and 2 and the Figure 3 loop model — the paper's static
//! artifacts, regenerated from the implementation so that drift between
//! documentation and code is impossible.

use counterlab_cpu::uarch::Processor;

use crate::benchmark::Benchmark;
use crate::experiment::{Experiment, ExperimentCtx, Report};
use crate::pattern::Pattern;
use crate::report;
use crate::Result;

/// Registry driver for Table 1.
pub struct Table1;

impl Experiment for Table1 {
    fn id(&self) -> &'static str {
        "table1"
    }

    fn title(&self) -> &'static str {
        "Table 1: processors used in the study"
    }

    fn run(&self, _ctx: &ExperimentCtx) -> Result<Report> {
        Ok(Report::text("table1.txt", table1()))
    }
}

/// Registry driver for Table 2.
pub struct Table2;

impl Experiment for Table2 {
    fn id(&self) -> &'static str {
        "table2"
    }

    fn title(&self) -> &'static str {
        "Table 2: counter access patterns"
    }

    fn run(&self, _ctx: &ExperimentCtx) -> Result<Report> {
        Ok(Report::text("table2.txt", table2()))
    }
}

/// Registry driver for the Figure 3 loop model.
pub struct Fig3;

impl Experiment for Fig3 {
    fn id(&self) -> &'static str {
        "fig3"
    }

    fn title(&self) -> &'static str {
        "Figure 3: loop micro-benchmark and its instruction model"
    }

    fn run(&self, _ctx: &ExperimentCtx) -> Result<Report> {
        Ok(Report::text("fig3.txt", fig3()))
    }
}

/// Renders Table 1: the processors used in the study.
pub fn table1() -> String {
    let rows: Vec<Vec<String>> = Processor::ALL
        .iter()
        .map(|p| {
            let u = p.uarch();
            vec![
                p.code().to_string(),
                u.model_name.to_string(),
                format!("{:.1}", u.clock_hz as f64 / 1e9),
                u.arch.name().to_string(),
                format!("{}+1", u.fixed_counters),
                u.programmable_counters.to_string(),
            ]
        })
        .collect();
    format!(
        "Table 1: Processors used in this Study\n\n{}",
        report::table(&["id", "processor", "GHz", "uArch", "fixed", "prg."], &rows)
    )
}

/// Renders Table 2: the counter access patterns.
pub fn table2() -> String {
    let definition = |p: Pattern| -> &'static str {
        match p {
            Pattern::StartRead => "c0=0, reset, start ... c1=read",
            Pattern::StartStop => "c0=0, reset, start ... stop, c1=read",
            Pattern::ReadRead => "start, c0=read ... c1=read",
            Pattern::ReadStop => "start, c0=read ... stop, c1=read",
        }
    };
    let rows: Vec<Vec<String>> = Pattern::ALL
        .iter()
        .map(|p| {
            vec![
                p.code().to_string(),
                p.name().to_string(),
                definition(*p).to_string(),
            ]
        })
        .collect();
    format!(
        "Table 2: Counter Access Patterns\n\n{}",
        report::table(&["pattern", "name", "definition"], &rows)
    )
}

/// Renders the Figure 3 loop micro-benchmark and its instruction model.
pub fn fig3() -> String {
    let mut out = String::from(
        "Figure 3: Loop Micro-Benchmark\n\n\
         asm volatile(\"movl $0, %%eax\\n\"\n\
         \"  .loop:\\n\\t\"\n\
         \"  addl $1, %%eax\\n\\t\"\n\
         \"  cmpl $\" MAX \", %%eax\\n\\t\"\n\
         \"  jne .loop\"\n\
         : : : \"eax\");\n\n\
         Instruction model: ie = 1 + 3*l\n\n",
    );
    let rows: Vec<Vec<String>> = [0u64, 1, 1_000, 1_000_000]
        .iter()
        .map(|&l| {
            vec![
                l.to_string(),
                Benchmark::Loop { iters: l }
                    .expected_instructions()
                    .to_string(),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &["l (iterations)", "ie (instructions)"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contents() {
        let t = table1();
        for s in [
            "PD", "CD", "K8", "NetBurst", "Core2", "3.0", "2.4", "2.2", "18", "3+1",
        ] {
            assert!(t.contains(s), "missing {s} in\n{t}");
        }
    }

    #[test]
    fn table2_contents() {
        let t = table2();
        for s in ["ar", "ao", "rr", "ro", "start-read", "read-stop", "c0=read"] {
            assert!(t.contains(s), "missing {s} in\n{t}");
        }
    }

    #[test]
    fn fig3_model() {
        let f = fig3();
        assert!(f.contains("1 + 3*l"));
        assert!(f.contains("3000001"));
        assert!(f.contains("jne .loop"));
    }
}
