//! Instruction mixes: the execution engine's unit of work.
//!
//! The simulator does not interpret individual x86 opcodes; it retires
//! *mixes* — counted bundles of instruction classes. This is exact for the
//! quantities the paper measures (retired instruction counts are
//! class-independent) while letting the timing model price each class
//! differently.

/// A counted bundle of instructions of various classes.
///
/// # Examples
///
/// ```
/// use counterlab_cpu::mix::InstMix;
///
/// // The paper's loop body (Figure 3): addl, cmpl, jne.
/// let body = InstMix::LOOP_BODY;
/// assert_eq!(body.total_instructions(), 3);
/// assert_eq!(body.branches, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstMix {
    /// Plain ALU / move / lea instructions.
    pub alu: u64,
    /// Branch instructions (jcc/jmp/call/ret).
    pub branches: u64,
    /// Of the branches, how many are taken in steady state.
    pub taken_branches: u64,
    /// Memory loads.
    pub loads: u64,
    /// Dependent (pointer-chasing) loads: each load's address comes from
    /// the previous load's data, so no two can overlap and every one
    /// walks to a fresh cache line — they miss L1D unconditionally.
    pub chase_loads: u64,
    /// Memory stores.
    pub stores: u64,
    /// `RDPMC` executions.
    pub rdpmc: u64,
    /// `RDTSC` executions.
    pub rdtsc: u64,
    /// `RDMSR` executions (kernel only).
    pub rdmsr: u64,
    /// `WRMSR` executions (kernel only, serializing).
    pub wrmsr: u64,
}

impl InstMix {
    /// The body of the paper's loop micro-benchmark (Figure 3):
    /// `addl $1,%eax; cmpl $MAX,%eax; jne .loop` — three instructions, one
    /// (taken) branch.
    pub const LOOP_BODY: InstMix = InstMix {
        alu: 2,
        branches: 1,
        taken_branches: 1,
        loads: 0,
        chase_loads: 0,
        stores: 0,
        rdpmc: 0,
        rdtsc: 0,
        rdmsr: 0,
        wrmsr: 0,
    };

    /// The loop micro-benchmark's prologue: `movl $0,%eax` — one
    /// instruction. Together with [`InstMix::LOOP_BODY`] this gives the
    /// paper's `1 + 3·iterations` instruction model.
    pub const LOOP_PROLOGUE: InstMix = InstMix::straight_line(1);

    /// A straight-line block of `n` ALU instructions.
    pub const fn straight_line(n: u64) -> Self {
        InstMix {
            alu: n,
            branches: 0,
            taken_branches: 0,
            loads: 0,
            chase_loads: 0,
            stores: 0,
            rdpmc: 0,
            rdtsc: 0,
            rdmsr: 0,
            wrmsr: 0,
        }
    }

    /// An empty mix (zero instructions) — the null benchmark.
    pub const fn empty() -> Self {
        InstMix::straight_line(0)
    }

    /// Total number of instructions in the mix.
    pub const fn total_instructions(&self) -> u64 {
        self.alu
            + self.branches
            + self.loads
            + self.chase_loads
            + self.stores
            + self.rdpmc
            + self.rdtsc
            + self.rdmsr
            + self.wrmsr
    }

    /// Estimated encoded size in bytes (used by the code-placement model to
    /// decide whether a block straddles fetch-line boundaries).
    ///
    /// Typical IA32 encodings: ALU reg/imm ≈ 3 bytes, conditional branch
    /// rel8 = 2, load/store ≈ 3, `RDPMC`/`RDTSC`/`RDMSR`/`WRMSR` = 2 (0F xx).
    pub const fn code_bytes(&self) -> u64 {
        self.alu * 3
            + self.branches * 2
            + (self.loads + self.chase_loads) * 3
            + self.stores * 3
            + (self.rdpmc + self.rdtsc + self.rdmsr + self.wrmsr) * 2
    }

    /// Component-wise sum of two mixes.
    pub fn merged(&self, other: &InstMix) -> InstMix {
        InstMix {
            alu: self.alu + other.alu,
            branches: self.branches + other.branches,
            taken_branches: self.taken_branches + other.taken_branches,
            loads: self.loads + other.loads,
            chase_loads: self.chase_loads + other.chase_loads,
            stores: self.stores + other.stores,
            rdpmc: self.rdpmc + other.rdpmc,
            rdtsc: self.rdtsc + other.rdtsc,
            rdmsr: self.rdmsr + other.rdmsr,
            wrmsr: self.wrmsr + other.wrmsr,
        }
    }

    /// The mix repeated `n` times.
    pub fn repeated(&self, n: u64) -> InstMix {
        InstMix {
            alu: self.alu * n,
            branches: self.branches * n,
            taken_branches: self.taken_branches * n,
            loads: self.loads * n,
            chase_loads: self.chase_loads * n,
            stores: self.stores * n,
            rdpmc: self.rdpmc * n,
            rdtsc: self.rdtsc * n,
            rdmsr: self.rdmsr * n,
            wrmsr: self.wrmsr * n,
        }
    }
}

/// Builder for richer mixes (library call paths and kernel handlers).
///
/// # Examples
///
/// ```
/// use counterlab_cpu::mix::MixBuilder;
///
/// let read_path = MixBuilder::new()
///     .alu(20)
///     .loads(6)
///     .stores(4)
///     .branches(3, 2)
///     .rdpmc(2)
///     .rdtsc(1)
///     .build();
/// assert_eq!(read_path.total_instructions(), 36);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MixBuilder {
    mix: InstMix,
}

impl MixBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        MixBuilder::default()
    }

    /// Adds ALU instructions.
    pub fn alu(mut self, n: u64) -> Self {
        self.mix.alu += n;
        self
    }

    /// Adds branches, `taken` of which are taken.
    // Not a leaf (it calls `min`), so rustc would keep it out of line
    // in other crates; the zoo's benchmark bodies and every interrupt
    // handler's mix call it once per run or interrupt.
    #[inline]
    pub fn branches(mut self, n: u64, taken: u64) -> Self {
        self.mix.branches += n;
        self.mix.taken_branches += taken.min(n);
        self
    }

    /// Adds loads.
    pub fn loads(mut self, n: u64) -> Self {
        self.mix.loads += n;
        self
    }

    /// Adds dependent (pointer-chasing) loads — see
    /// [`InstMix::chase_loads`].
    pub fn chase_loads(mut self, n: u64) -> Self {
        self.mix.chase_loads += n;
        self
    }

    /// Adds stores.
    pub fn stores(mut self, n: u64) -> Self {
        self.mix.stores += n;
        self
    }

    /// Adds `RDPMC`s.
    pub fn rdpmc(mut self, n: u64) -> Self {
        self.mix.rdpmc += n;
        self
    }

    /// Adds `RDTSC`s.
    pub fn rdtsc(mut self, n: u64) -> Self {
        self.mix.rdtsc += n;
        self
    }

    /// Adds `RDMSR`s.
    pub fn rdmsr(mut self, n: u64) -> Self {
        self.mix.rdmsr += n;
        self
    }

    /// Adds `WRMSR`s.
    pub fn wrmsr(mut self, n: u64) -> Self {
        self.mix.wrmsr += n;
        self
    }

    /// Finishes the mix.
    pub fn build(self) -> InstMix {
        self.mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_model_is_1_plus_3n() {
        let iters = 1000u64;
        let total = InstMix::LOOP_PROLOGUE.total_instructions()
            + InstMix::LOOP_BODY.repeated(iters).total_instructions();
        assert_eq!(total, 1 + 3 * iters);
    }

    #[test]
    fn empty_mix_is_null_benchmark() {
        assert_eq!(InstMix::empty().total_instructions(), 0);
        assert_eq!(InstMix::empty().code_bytes(), 0);
    }

    #[test]
    fn merged_adds_componentwise() {
        let a = MixBuilder::new().alu(1).rdpmc(2).build();
        let b = MixBuilder::new().alu(10).wrmsr(1).build();
        let m = a.merged(&b);
        assert_eq!(m.alu, 11);
        assert_eq!(m.rdpmc, 2);
        assert_eq!(m.wrmsr, 1);
        assert_eq!(m.total_instructions(), 14);
    }

    #[test]
    fn repeated_scales() {
        let r = InstMix::LOOP_BODY.repeated(5);
        assert_eq!(r.total_instructions(), 15);
        assert_eq!(r.taken_branches, 5);
    }

    #[test]
    fn builder_caps_taken_at_total() {
        let m = MixBuilder::new().branches(2, 10).build();
        assert_eq!(m.taken_branches, 2);
    }

    #[test]
    fn loop_body_encoding_size() {
        // addl(3) + cmpl imm32... modeled as 3 + jne(2) = 8 bytes total here;
        // what matters is that the body is comfortably under one 16-byte
        // fetch window but may straddle one depending on placement.
        let bytes = InstMix::LOOP_BODY.code_bytes();
        assert!(bytes > 0 && bytes < 16, "bytes = {bytes}");
    }

    #[test]
    fn code_bytes_counts_every_class() {
        let m = MixBuilder::new()
            .alu(1)
            .branches(1, 0)
            .loads(1)
            .chase_loads(1)
            .stores(1)
            .rdpmc(1)
            .rdtsc(1)
            .rdmsr(1)
            .wrmsr(1)
            .build();
        assert_eq!(m.code_bytes(), 3 + 2 + 3 + 3 + 3 + 2 + 2 + 2 + 2);
    }

    #[test]
    fn chase_loads_count_as_instructions() {
        let m = MixBuilder::new().alu(1).chase_loads(3).branches(1, 1).build();
        assert_eq!(m.total_instructions(), 5);
        assert_eq!(m.repeated(4).chase_loads, 12);
        assert_eq!(m.merged(&m).chase_loads, 6);
    }
}
