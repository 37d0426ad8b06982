//! Structured simulator errors and the deadlock diagnostic dump.
//!
//! The simulator's canonical entry points ([`crate::Simulator::try_run`]
//! and friends) return `Result<_, SimError>` instead of panicking:
//! a wedged pipeline, a violated resource invariant or a bad
//! configuration surfaces as a typed error carrying enough context to
//! debug it from the message alone. The legacy `run`/`run_roi` wrappers
//! still panic (with the same rich message) for the many call sites
//! that treat simulator failure as fatal.

use std::fmt;

use crate::telemetry::Episode;

/// The slot at the head of the reorder buffer when a deadlock dump is
/// taken — usually the instruction the pipeline is wedged behind.
#[derive(Clone, Debug)]
pub struct OldestSlot {
    /// Dynamic sequence number.
    pub seq: u64,
    /// Program counter (instruction index).
    pub pc: u64,
    /// Disassembled instruction text.
    pub inst: String,
    /// Whether the slot has been dispatched into the back-end queues.
    pub dispatched: bool,
    /// Whether it has issued to a functional unit / the cache.
    pub issued: bool,
    /// Cycle its result is (or was) due, if issued.
    pub done_at: Option<u64>,
}

/// Snapshot of every occupancy counter the scheduler depends on, taken
/// when the commit watchdog fires. Printed by `Display` as a readable
/// multi-line report.
#[derive(Clone, Debug)]
pub struct DeadlockDump {
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// Last cycle that committed at least one instruction.
    pub last_commit_cycle: u64,
    /// The configured watchdog budget.
    pub watchdog: u64,
    /// Instructions committed so far.
    pub committed_insts: u64,
    /// Next fetch PC.
    pub pc: u64,
    /// ROB occupancy / capacity.
    pub rob_len: usize,
    /// ROB capacity.
    pub rob_cap: usize,
    /// Issue-queue occupancy.
    pub iq_used: usize,
    /// Issue-queue capacity.
    pub iq_cap: usize,
    /// Load-queue occupancy.
    pub lq_used: usize,
    /// Load-queue capacity.
    pub lq_cap: usize,
    /// Store-queue occupancy.
    pub sq_used: usize,
    /// Store-queue capacity.
    pub sq_cap: usize,
    /// Fetch-queue length.
    pub fetch_q_len: usize,
    /// Post-commit store-buffer length.
    pub store_buffer_len: usize,
    /// Free integer physical registers.
    pub free_int: usize,
    /// Free FP physical registers.
    pub free_fp: usize,
    /// Outstanding L1-D misses (MSHR occupancy).
    pub mshr_outstanding: usize,
    /// The ROB head, if the ROB is non-empty.
    pub oldest: Option<OldestSlot>,
    /// The in-flight runahead episode, if any.
    pub episode: Option<Episode>,
    /// Whether the workload has architecturally halted.
    pub halted: bool,
    /// Whether fetch has stopped (halt reached in fetch).
    pub fetch_done: bool,
}

impl fmt::Display for DeadlockDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "no commit progress for {} cycles (watchdog budget {}), cycle {}:",
            self.cycle - self.last_commit_cycle,
            self.watchdog,
            self.cycle
        )?;
        writeln!(
            f,
            "  committed {} insts, pc {:#x}, halted={}, fetch_done={}",
            self.committed_insts, self.pc, self.halted, self.fetch_done
        )?;
        writeln!(
            f,
            "  rob {}/{}  iq {}/{}  lq {}/{}  sq {}/{}  fetch_q {}  store_buf {}",
            self.rob_len,
            self.rob_cap,
            self.iq_used,
            self.iq_cap,
            self.lq_used,
            self.lq_cap,
            self.sq_used,
            self.sq_cap,
            self.fetch_q_len,
            self.store_buffer_len
        )?;
        writeln!(
            f,
            "  free regs int {} fp {}  mshr outstanding {}",
            self.free_int, self.free_fp, self.mshr_outstanding
        )?;
        match &self.oldest {
            Some(o) => writeln!(
                f,
                "  rob head: seq {} pc {:#x} `{}` dispatched={} issued={} done_at={:?}",
                o.seq, o.pc, o.inst, o.dispatched, o.issued, o.done_at
            )?,
            None => writeln!(f, "  rob head: <empty>")?,
        }
        match &self.episode {
            Some(e) => write!(
                f,
                "  runahead episode: {:?} decoupled={} end_at={}",
                e.kind, e.decoupled, e.end_at
            ),
            None => write!(f, "  runahead episode: <none>"),
        }
    }
}

/// Errors the timing simulator can report instead of panicking.
#[derive(Clone, Debug)]
pub enum SimError {
    /// The commit watchdog fired: no instruction committed for the
    /// configured number of cycles. Carries a full scheduler snapshot.
    Deadlock(Box<DeadlockDump>),
    /// The wall-clock deadline armed with
    /// [`crate::Simulator::set_deadline`] (e.g. the campaign engine's
    /// per-point budget) passed before the run finished. Carries the
    /// same scheduler snapshot as [`SimError::Deadlock`] so a slow or
    /// wedged point is diagnosable from the error alone.
    Deadline(Box<DeadlockDump>),
    /// A per-cycle invariant check (the `checked` cargo feature)
    /// failed: some structure exceeded its capacity or lost program
    /// order.
    Invariant {
        /// Cycle of the violation.
        cycle: u64,
        /// Human-readable description of the violated invariant.
        what: String,
    },
    /// The workload itself misbehaved (fetch ran off the program,
    /// an unmapped jump, …) — a harness bug, not a simulator bug.
    Program {
        /// Cycle of the fault.
        cycle: u64,
        /// Program counter at the fault.
        pc: u64,
        /// Description.
        what: String,
    },
    /// The configuration is internally inconsistent (zero-width core,
    /// watchdog of 0, empty ROB, …). Reported before the first cycle.
    BadConfig {
        /// Description of the inconsistency.
        what: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(d) => write!(f, "simulator deadlock: {d}"),
            SimError::Deadline(d) => {
                write!(f, "wall-clock deadline expired: {d}")
            }
            SimError::Invariant { cycle, what } => {
                write!(f, "invariant violated at cycle {cycle}: {what}")
            }
            SimError::Program { cycle, pc, what } => {
                write!(f, "program fault at cycle {cycle}, pc {pc:#x}: {what}")
            }
            SimError::BadConfig { what } => write!(f, "bad configuration: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn dump() -> DeadlockDump {
        DeadlockDump {
            cycle: 5000,
            last_commit_cycle: 1000,
            watchdog: 4000,
            committed_insts: 123,
            pc: 0x40,
            rob_len: 350,
            rob_cap: 350,
            iq_used: 12,
            iq_cap: 128,
            lq_used: 3,
            lq_cap: 128,
            sq_used: 0,
            sq_cap: 72,
            fetch_q_len: 10,
            store_buffer_len: 0,
            free_int: 100,
            free_fp: 256,
            mshr_outstanding: 4,
            oldest: Some(OldestSlot {
                seq: 123,
                pc: 0x40,
                inst: "ld x5, 0(x3)".into(),
                dispatched: true,
                issued: false,
                done_at: None,
            }),
            episode: None,
            halted: false,
            fetch_done: false,
        }
    }

    #[test]
    fn deadlock_display_mentions_key_state() {
        let msg = SimError::Deadlock(Box::new(dump())).to_string();
        assert!(msg.contains("no commit progress for 4000 cycles"));
        assert!(msg.contains("rob 350/350"));
        assert!(msg.contains("ld x5, 0(x3)"));
        assert!(msg.contains("mshr outstanding 4"));
        assert!(msg.contains("episode: <none>"));
    }

    #[test]
    fn deadline_display_carries_the_same_dump() {
        let msg = SimError::Deadline(Box::new(dump())).to_string();
        assert!(msg.starts_with("wall-clock deadline expired"));
        assert!(msg.contains("rob 350/350"), "deadline reuses the deadlock snapshot");
    }

    #[test]
    fn other_variants_display() {
        let e = SimError::Invariant { cycle: 7, what: "iq over capacity".into() };
        assert_eq!(e.to_string(), "invariant violated at cycle 7: iq over capacity");
        let e = SimError::BadConfig { what: "width must be > 0".into() };
        assert!(e.to_string().contains("width must be > 0"));
        let e = SimError::Program { cycle: 1, pc: 0x10, what: "ran off the program".into() };
        assert!(e.to_string().contains("pc 0x10"));
    }
}
