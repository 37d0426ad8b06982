#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # vr-mem
//!
//! The memory system of the Vector Runahead reproduction: a three-level
//! write-back cache hierarchy with L1-D miss-status holding registers
//! (MSHRs), a bandwidth-contended DRAM model, a 16-stream stride
//! prefetcher, and an indirect memory prefetcher (IMP, Yu et al.
//! MICRO'15) used as an evaluation baseline.
//!
//! Timing is *timestamp-based*: every access carries the current core
//! cycle and receives back the absolute cycle at which its data is
//! ready. The MSHR file bounds memory-level parallelism (24 entries at
//! L1-D per the paper's Table 1) — this is the resource Vector
//! Runahead's gathers saturate.
//!
//! ```
//! use vr_mem::{Access, MemConfig, MemorySystem, Requestor};
//!
//! let mut ms = MemorySystem::new(MemConfig::table1());
//! // Cold access goes to DRAM…
//! let r1 = ms.access(0x4000, Access::Load, Requestor::Main, 0, 0).unwrap();
//! assert!(r1.ready_at >= 200);
//! // …and once the line returns, the same line hits in L1 (4 cycles).
//! let later = r1.ready_at + 1;
//! let r2 = ms.access(0x4000, Access::Load, Requestor::Main, 0, later).unwrap();
//! assert_eq!(r2.ready_at, later + 4);
//! ```

mod cache;
mod config;
mod dram;
mod hierarchy;
mod imp;
mod mshr;
mod shared;
mod stats;
mod stride;

pub use cache::{Cache, CacheConfig, LineState};
pub use config::MemConfig;
pub use dram::Dram;
pub use hierarchy::{Access, AccessOutcome, HitLevel, MemorySystem, MshrFull};
pub use imp::{Imp, ImpConfig, ImpPrefetch};
pub use mshr::MshrFile;
pub use shared::{SharedLlc, SharedLlcConfig, SharedLlcStats, SharedOutcome};
pub use stats::{MemStats, TimelinessLevel};
pub use stride::{PrefetchAddrs, StrideDetector, StrideEntry, StridePrefetcher};

/// Who issued a memory request; used for traffic attribution
/// (accuracy/coverage figures) and prefetch bookkeeping.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Requestor {
    /// A demand access from the main thread's pipeline.
    Main,
    /// A speculative access from a runahead engine (classic, PRE or
    /// Vector Runahead).
    Runahead,
    /// The always-on L1-D stride prefetcher.
    Stride,
    /// The indirect memory prefetcher baseline.
    Imp,
}

impl Requestor {
    /// Whether this requestor is a prefetcher of any kind (anything
    /// but a main-thread demand access).
    pub fn is_prefetch(self) -> bool {
        self != Requestor::Main
    }
}
