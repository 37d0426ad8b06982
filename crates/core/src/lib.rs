#![warn(missing_docs)]
//! # vr-core
//!
//! The primary contribution of this repository: a cycle-level
//! out-of-order core timing model (the paper's Table 1 baseline)
//! with pluggable runahead engines —
//!
//! * [`RunaheadKind::None`] — the baseline OoO core (always with the
//!   L1-D stride prefetcher),
//! * [`RunaheadKind::Classic`] — invalidation-based runahead
//!   (Mutlu et al., HPCA'03),
//! * [`RunaheadKind::Precise`] — Precise Runahead Execution
//!   (Naithani et al., HPCA'20),
//! * [`RunaheadKind::Vector`] — **Vector Runahead** (Naithani,
//!   Ainsworth, Jones, Eeckhout, ISCA 2021), the reproduced technique:
//!   speculative vectorization of striding-load dependence chains
//!   with SIMT lane execution, gather-level barriers, lane
//!   invalidation on divergence, and delayed termination.
//!
//! ```no_run
//! use vr_core::{CoreConfig, RunaheadConfig, Simulator};
//! use vr_isa::{Asm, Memory, Reg};
//! use vr_mem::MemConfig;
//!
//! let mut a = Asm::new();
//! a.halt();
//! let stats = Simulator::new(
//!     CoreConfig::table1(),
//!     MemConfig::table1(),
//!     RunaheadConfig::vector(),
//!     a.assemble(),
//!     Memory::new(),
//!     &[(Reg::A0, 0x1_0000)],
//! )
//! .run(1_000_000);
//! println!("IPC {:.2}", stats.ipc());
//! ```

mod config;
mod error;
mod invariant;
mod runahead;
mod sim;
mod stats;
mod telemetry;
mod trace;
mod vector;
pub mod wakeup;

pub use config::{CoreConfig, FaultPlan, FuPool, Latencies, RunaheadConfig, RunaheadKind};
pub use error::{DeadlockDump, EpisodeStatus, OldestSlot, SimError};
pub use runahead::ScalarRunahead;
pub use sim::{Advance, Simulator, StopFlag};
pub use stats::{harmonic_mean, SimStats};
pub use telemetry::{EpisodeExit, EpisodeKind, EpisodeRecord, Telemetry};
pub use trace::{PipelineTrace, TraceRecord};
pub use vector::{hardware_overhead_bits, hardware_overhead_bytes, VectorRunahead, VrStatus};
pub use wakeup::WakeupLists;
