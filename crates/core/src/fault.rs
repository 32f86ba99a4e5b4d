//! Deterministic fault injection for the serving plane.
//!
//! A [`FaultPlan`] is a seeded schedule of injected failures at countd's
//! three I/O seams — response writes on the wire, disk-cache writes, and
//! worker-side cell computation. Every decision is a pure function of
//! `(seed, site, sequence number)` through the crate's own
//! [`StreamHasher`] chain (splitmix64 underneath), so a chaos run is
//! reproducible from its seed alone: same seed, same fault schedule.
//! With one worker and a sequential client the schedule is exactly
//! deterministic; with more workers the *set* and *rate* of injected
//! faults is seed-determined while their interleaving follows the
//! thread schedule — the invariants the chaos suite asserts (deadline
//! compliance, byte-identity of successes) hold under any interleaving.
//!
//! The plan is threaded through [`crate::serve`] as an
//! `Option<Arc<FaultPlan>>`: `None` means every hook is a no-op branch
//! on a cold `Option`, so the production path pays nothing.
//!
//! Injection is server-side only. The client's retry layer
//! ([`crate::serve::CallOptions`]) sees the injected failures as what
//! they would be in production: truncated frames, garbage bytes,
//! stalls, dropped connections, transiently failing workers.
//!
//! [`StreamHasher`]: counterlab_cpu::hash::StreamHasher

use std::io::{self, Write};
use std::time::Duration;

use counterlab_cpu::hash::StreamHasher;

use crate::counter::StatCounter;

/// A fault injected into one wire response, decided once per response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Pass `after` bytes through, then silently discard the rest: the
    /// peer sees a cleanly closed but truncated stream (a mid-write
    /// crash or dropped connection).
    Truncate {
        /// Bytes written before the stream goes dark.
        after: usize,
    },
    /// Prepend one line of garbage before the real response: the peer
    /// sees a protocol violation (bit rot, a confused middlebox).
    Garbage,
    /// Sleep once before the first write, then proceed cleanly: the
    /// peer sees a slow but correct server (scheduling hiccup, GC-like
    /// stall). Bounded so a stalled response still fits a deadline.
    Stall {
        /// The one-time stall, in milliseconds.
        millis: u64,
    },
    /// Pass `after` bytes through, then fail the write with
    /// [`io::ErrorKind::BrokenPipe`]: the *server* side sees the error
    /// (peer reset mid-response), exercising connection-level isolation.
    Fail {
        /// Bytes written before the injected write error.
        after: usize,
    },
}

/// A fault injected into one disk-cache entry write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// Write only a prefix of the entry (a torn write: crash or power
    /// loss between write and sync). Detected by the checksum on read.
    Torn,
    /// Skip the write entirely (a transient filesystem failure). The
    /// disk tier silently degrades; correctness is unaffected.
    Skip,
    /// Flip one payload byte before checksumming the *original* bytes
    /// (media corruption). Detected by the checksum on read.
    Corrupt,
}

/// A seeded, reproducible fault schedule for the serving plane.
///
/// `rate_permille` is the per-decision fault probability in thousandths
/// (350 ⇒ 35 % of decisions inject a fault); it is clamped to 1000.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rate_permille: u64,
    wire_seq: StatCounter,
    disk_seq: StatCounter,
    worker_seq: StatCounter,
}

impl FaultPlan {
    /// Creates a plan. `rate_permille` above 1000 is clamped.
    pub fn new(seed: u64, rate_permille: u64) -> Self {
        FaultPlan {
            seed,
            rate_permille: rate_permille.min(1000),
            wire_seq: StatCounter::new(),
            disk_seq: StatCounter::new(),
            worker_seq: StatCounter::new(),
        }
    }

    /// The seed this plan was built from (printed by the chaos suite so
    /// any failure is reproducible).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-decision fault probability, in thousandths.
    pub fn rate_permille(&self) -> u64 {
        self.rate_permille
    }

    /// One decision draw: a hash of `(seed, site, seq)`. The low decimal
    /// digits gate whether a fault fires; higher bits pick its kind and
    /// parameters, so kind selection is independent of the gate.
    fn roll(&self, site: &str, seq: u64) -> u64 {
        let mut h = StreamHasher::new(self.seed);
        h.write_str(site);
        h.write_u64(seq);
        h.finish()
    }

    /// Decides the fault (if any) for the next wire response.
    pub fn wire_fault(&self) -> Option<WireFault> {
        let h = self.roll("wire", self.wire_seq.incr());
        if h % 1000 >= self.rate_permille {
            return None;
        }
        let after = usize::try_from((h >> 16) % 240).unwrap_or(0);
        Some(match (h >> 32) % 4 {
            0 => WireFault::Truncate { after },
            1 => WireFault::Garbage,
            2 => WireFault::Stall {
                millis: 1 + (h >> 48) % 20,
            },
            _ => WireFault::Fail { after },
        })
    }

    /// Decides the fault (if any) for the next disk-cache entry write.
    pub fn disk_fault(&self) -> Option<DiskFault> {
        let h = self.roll("disk", self.disk_seq.incr());
        if h % 1000 >= self.rate_permille {
            return None;
        }
        Some(match (h >> 32) % 3 {
            0 => DiskFault::Torn,
            1 => DiskFault::Skip,
            _ => DiskFault::Corrupt,
        })
    }

    /// Decides whether the next worker-side cell computation fails
    /// transiently (surfaced to the client as a retryable `BUSY`).
    pub fn worker_fault(&self) -> bool {
        let h = self.roll("worker", self.worker_seq.incr());
        h % 1000 < self.rate_permille
    }
}

/// A [`Write`] adapter that applies one [`WireFault`] to a response
/// stream. With `fault == None` every call forwards untouched.
#[derive(Debug)]
pub struct FaultWriter<W: Write> {
    inner: W,
    fault: Option<WireFault>,
    written: usize,
    /// The one-shot parts of a fault (stall, garbage, injected error)
    /// fire at most once; this latches after they do.
    fired: bool,
}

impl<W: Write> FaultWriter<W> {
    /// Wraps `inner`, applying `fault` (or passing through on `None`).
    pub fn new(inner: W, fault: Option<WireFault>) -> Self {
        FaultWriter {
            inner,
            fault,
            written: 0,
            fired: false,
        }
    }
}

impl<W: Write> Write for FaultWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.fault {
            None => self.inner.write(buf),
            Some(WireFault::Stall { millis }) => {
                if !self.fired {
                    self.fired = true;
                    std::thread::sleep(Duration::from_millis(millis));
                }
                self.inner.write(buf)
            }
            Some(WireFault::Garbage) => {
                if !self.fired {
                    self.fired = true;
                    self.inner.write_all(b"\x01garbage-frame\x01\n")?;
                }
                self.inner.write(buf)
            }
            Some(WireFault::Truncate { after }) => {
                if self.written >= after {
                    // Pretend success so the server completes "cleanly";
                    // the peer sees the stream end mid-frame.
                    return Ok(buf.len());
                }
                let budget = (after - self.written).min(buf.len());
                let n = self.inner.write(&buf[..budget])?;
                self.written += n;
                if n == budget {
                    // The remainder of this buffer is silently dropped.
                    Ok(buf.len())
                } else {
                    Ok(n)
                }
            }
            Some(WireFault::Fail { after }) => {
                if self.fired {
                    // Already failed once; swallow follow-up writes so
                    // BufWriter's drop-flush doesn't loop on errors.
                    return Ok(buf.len());
                }
                if self.written >= after {
                    self.fired = true;
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "injected wire fault: peer reset",
                    ));
                }
                let budget = (after - self.written).min(buf.len());
                let n = self.inner.write(&buf[..budget])?;
                self.written += n;
                Ok(n)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let draw = |seed: u64| {
            let plan = FaultPlan::new(seed, 350);
            let wire: Vec<_> = (0..64).map(|_| plan.wire_fault()).collect();
            let disk: Vec<_> = (0..64).map(|_| plan.disk_fault()).collect();
            let worker: Vec<_> = (0..64).map(|_| plan.worker_fault()).collect();
            (wire, disk, worker)
        };
        assert_eq!(draw(7), draw(7), "same seed, same schedule");
        assert_ne!(draw(7), draw(8), "different seed, different schedule");
    }

    #[test]
    fn rate_is_respected_and_clamped() {
        let never = FaultPlan::new(42, 0);
        assert!((0..200).all(|_| never.wire_fault().is_none()));
        assert!((0..200).all(|_| !never.worker_fault()));
        let always = FaultPlan::new(42, 5000);
        assert_eq!(always.rate_permille(), 1000);
        assert!((0..200).all(|_| always.disk_fault().is_some()));
        // A 35% plan injects roughly a third of the time — loose bounds,
        // but enough to catch an inverted gate.
        let some = FaultPlan::new(42, 350);
        let fired = (0..1000).filter(|_| some.worker_fault()).count();
        assert!((150..550).contains(&fired), "{fired} of 1000 at 35%");
    }

    #[test]
    fn all_wire_fault_kinds_are_reachable() {
        let plan = FaultPlan::new(3, 1000);
        let mut kinds = [false; 4];
        for _ in 0..256 {
            match plan.wire_fault() {
                Some(WireFault::Truncate { .. }) => kinds[0] = true,
                Some(WireFault::Garbage) => kinds[1] = true,
                Some(WireFault::Stall { millis }) => {
                    assert!((1..=20).contains(&millis), "stall is bounded");
                    kinds[2] = true;
                }
                Some(WireFault::Fail { .. }) => kinds[3] = true,
                None => {}
            }
        }
        assert_eq!(kinds, [true; 4], "every kind drawn within 256 rolls");
    }

    #[test]
    fn fault_writer_passthrough_when_off() {
        let mut out = Vec::new();
        let mut w = FaultWriter::new(&mut out, None);
        w.write_all(b"hello\nworld\n").unwrap();
        w.flush().unwrap();
        assert_eq!(out, b"hello\nworld\n");
    }

    #[test]
    fn fault_writer_truncates_at_budget() {
        let mut out = Vec::new();
        let mut w = FaultWriter::new(&mut out, Some(WireFault::Truncate { after: 5 }));
        w.write_all(b"hello world").unwrap();
        w.write_all(b" more").unwrap();
        assert_eq!(out, b"hello", "only the budget reaches the peer");
    }

    #[test]
    fn fault_writer_garbage_prepends_once() {
        let mut out = Vec::new();
        let mut w = FaultWriter::new(&mut out, Some(WireFault::Garbage));
        w.write_all(b"real\n").unwrap();
        w.write_all(b"data\n").unwrap();
        assert_eq!(out, b"\x01garbage-frame\x01\nreal\ndata\n");
    }

    #[test]
    fn fault_writer_fails_once_then_swallows() {
        let mut out = Vec::new();
        let mut w = FaultWriter::new(&mut out, Some(WireFault::Fail { after: 3 }));
        let err = w.write_all(b"abcdef").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // Follow-up writes (BufWriter drop-flush) must not error again.
        w.write_all(b"xyz").unwrap();
        assert_eq!(out, b"abc", "only the pre-fault prefix reached the peer");
    }
}
