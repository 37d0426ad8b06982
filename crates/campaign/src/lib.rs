//! Content-addressed result store + resumable sweep-campaign engine
//! for the experiment harness.
//!
//! The experiment figures re-simulate every point on every invocation.
//! This crate removes that: a simulation point is *content-addressed*
//! by a stable fingerprint of everything that determines its
//! statistics ([`point_key`]), its [`SimStats`](vr_core::SimStats) are
//! stored on disk exactly ([`ResultStore`]), and a campaign driver
//! ([`run_campaign`]) computes only the points that are missing —
//! surviving kills, corruption and deadline trips along the way.
//!
//! Layering (DESIGN.md §11):
//!
//! * [`fingerprint`] — [`PointKey`] and the [`CODE_SALT`] staleness
//!   lever;
//! * [`store`] — the on-disk store: atomic publishes, per-record
//!   checksums, quarantine-not-crash corruption handling, `verify` /
//!   `gc` maintenance; every stats record is written and read, bit
//!   for bit, by its [`vr_obs::Counters`] impl;
//! * [`engine`] — the campaign driver, the only thing that runs a point
//!   list, one list per call in one process: scheduling through
//!   `vr_pool::map`, one execution per point under an optional
//!   deadline, poisoning, cooperative cancellation, resumability.
//!
//! The crate depends only on the simulator crates and `std` — no
//! registry dependencies, like the rest of the workspace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

#[cfg(feature = "chaos")]
pub mod chaos;
pub mod chip;
pub mod engine;
pub mod fingerprint;
mod serial;
pub mod store;

pub use chip::{chip_point_key, ChipPoint, ChipSlot};
pub use engine::{
    campaign_status, run_campaign, run_points, CampaignOutcome, CampaignPoint, CancelToken,
    EngineConfig, ExecCtx, Executor, ProgressEvent, ProgressKind, ProgressSink, SimExecutor,
    StatusReport, SweepPoint,
};
pub use fingerprint::{point_key, PointKey, CODE_SALT};
pub use store::{
    snapshot_records, GcReport, PoisonRecord, ResultStore, StoreCounters, VerifyReport,
    TMP_GC_GRACE,
};
// The scoped fan-out `vr_pool::map` is built on, re-exported for the
// repository benchmark (`benchmark/`), whose `pool.dispatch_us_p50`
// probe times `vr_campaign::WorkerPool::run`.
pub use vr_pool::WorkerPool;

/// Unique-per-call nonce for test scratch directories (process id is
/// not enough: tests in one process share it).
#[cfg(test)]
pub(crate) fn test_nonce() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    N.fetch_add(1, Ordering::Relaxed)
}
