//! Content-addressed result store + resumable sweep-campaign engine
//! for the experiment harness.
//!
//! The experiment figures re-simulate every point on every invocation.
//! This crate removes that: a simulation point is *content-addressed*
//! by a stable fingerprint of everything that determines its
//! statistics ([`point_key`]), its [`SimStats`](vr_core::SimStats) are
//! stored on disk exactly ([`ResultStore`]), and a campaign driver
//! ([`run_campaign`]) computes only the points that are missing —
//! surviving kills, corruption and transient faults along the way.
//!
//! Layering (DESIGN.md §11):
//!
//! * [`fingerprint`] — [`PointKey`] and the [`CODE_SALT`] staleness
//!   lever;
//! * [`serial`] — exact (bit-identical round trip) JSON serialization
//!   of the stats structs;
//! * [`store`] — the on-disk store: atomic publishes, per-record
//!   checksums, quarantine-not-crash corruption handling, `verify` /
//!   `gc` maintenance;
//! * [`engine`] — the campaign driver, the only thing that runs a point
//!   list: scheduling through `vr_pool::map`, in-place retry with
//!   bounded backoff, cooperative cancellation, resumability.
//!
//! The crate depends only on the simulator crates and `std` — no
//! registry dependencies, like the rest of the workspace.

#![warn(missing_docs)]

#[cfg(feature = "chaos")]
pub mod chaos;
pub mod chip;
pub mod engine;
pub mod fingerprint;
pub mod serial;
pub mod serve;
pub mod store;

pub use chip::{chip_core_key, chip_point_key, ChipPoint, ChipSlot};
pub use engine::{
    campaign_status, run_campaign, run_points, CampaignOutcome, CampaignPoint, CancelToken,
    EngineConfig, ExecCtx, Executor, ProgressEvent, ProgressKind, ProgressSink, SimExecutor,
    StatusReport, SweepPoint, POISON_DEADLINE_TRIPS,
};
pub use fingerprint::{point_key, PointKey, CODE_SALT};
// The worker pool lives in its own crate (`vr-pool`); re-exported
// here for the `vr_campaign::WorkerPool` users.
pub use serial::{chip_stats_from_json, chip_stats_to_json, stats_from_json, stats_to_json};
pub use serve::{serve_lines, shard_of, Manifest, PointSet, ServeConfig, ServeSummary, ShardSpec};
pub use store::{
    snapshot_records, GcReport, PoisonRecord, ResultStore, StoreCounters, VerifyReport,
    TMP_GC_GRACE,
};
pub use vr_pool::WorkerPool;

/// Unique-per-call nonce for test scratch directories (process id is
/// not enough: tests in one process share it).
#[cfg(test)]
pub(crate) fn test_nonce() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    N.fetch_add(1, Ordering::Relaxed)
}
