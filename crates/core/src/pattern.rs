//! The counter access patterns of §3.5 (Table 2).
//!
//! | code | name       | definition                                    |
//! |------|------------|-----------------------------------------------|
//! | ar   | start-read | `c0=0, reset, start … c1=read`                |
//! | ao   | start-stop | `c0=0, reset, start … stop, c1=read`          |
//! | rr   | read-read  | `start, c0=read … c1=read`                    |
//! | ro   | read-stop  | `start, c0=read … stop, c1=read`              |
//!
//! The PAPI high-level API cannot express `rr`/`ro` because its read
//! implicitly resets the counters.

/// A counter access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pattern {
    /// `ar`: reset + start before, read after.
    StartRead,
    /// `ao`: reset + start before, stop then read after.
    StartStop,
    /// `rr`: read before, read after (counters keep running).
    ReadRead,
    /// `ro`: read before, stop then read after.
    ReadStop,
}

impl Pattern {
    /// All four patterns in Table 2's order.
    pub const ALL: [Pattern; 4] = [
        Pattern::StartRead,
        Pattern::StartStop,
        Pattern::ReadRead,
        Pattern::ReadStop,
    ];

    /// The paper's two-letter code.
    pub fn code(self) -> &'static str {
        match self {
            Pattern::StartRead => "ar",
            Pattern::StartStop => "ao",
            Pattern::ReadRead => "rr",
            Pattern::ReadStop => "ro",
        }
    }

    /// The descriptive name used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            Pattern::StartRead => "start-read",
            Pattern::StartStop => "start-stop",
            Pattern::ReadRead => "read-read",
            Pattern::ReadStop => "read-stop",
        }
    }

    /// Whether the pattern's opening operation is a read (these are the
    /// patterns most sensitive to perfctr's TSC setting, Figure 4).
    pub fn begins_with_read(self) -> bool {
        matches!(self, Pattern::ReadRead | Pattern::ReadStop)
    }

    /// Parses a two-letter code.
    pub fn from_code(code: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.code() == code)
    }
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No wildcard arm: a new variant fails to compile here until it has
    /// an arm, and each arm asserts that the `ALL` roster lists it.
    #[test]
    fn all_lists_every_variant() {
        for v in [
            Pattern::StartRead,
            Pattern::StartStop,
            Pattern::ReadRead,
            Pattern::ReadStop,
        ] {
            match v {
                Pattern::StartRead => assert!(Pattern::ALL.contains(&Pattern::StartRead)),
                Pattern::StartStop => assert!(Pattern::ALL.contains(&Pattern::StartStop)),
                Pattern::ReadRead => assert!(Pattern::ALL.contains(&Pattern::ReadRead)),
                Pattern::ReadStop => assert!(Pattern::ALL.contains(&Pattern::ReadStop)),
            }
        }
    }

    #[test]
    fn codes_roundtrip() {
        for p in Pattern::ALL {
            assert_eq!(Pattern::from_code(p.code()), Some(p));
        }
        assert_eq!(Pattern::from_code("xx"), None);
    }

    #[test]
    fn classification() {
        assert!(Pattern::ReadRead.begins_with_read());
        assert!(Pattern::ReadStop.begins_with_read());
        assert!(!Pattern::StartRead.begins_with_read());
    }

    #[test]
    fn display_matches_figures() {
        assert_eq!(Pattern::StartRead.to_string(), "start-read");
        assert_eq!(Pattern::ReadRead.to_string(), "read-read");
    }
}
