#![warn(missing_docs)]
//! # vr-obs
//!
//! Observability primitives shared by the simulator crates and the
//! experiment harness:
//!
//! * [`RingLog`] — a bounded, allocation-stable event ring buffer
//!   (oldest events are evicted; a total-pushed counter survives
//!   eviction so aggregate reconciliation never depends on capacity);
//! * [`Histogram`] — power-of-two-bucketed `u64` histogram with exact
//!   count/sum/min/max (used for prefetch lead-distance and
//!   runahead-episode-shape distributions);
//! * [`Registry`] — a small, insertion-ordered name → counter /
//!   histogram registry that renders itself to JSON;
//! * [`Json`] — a zero-dependency JSON value type with a serializer
//!   and a strict parser, used for every machine-readable artifact the
//!   `experiments` harness emits (`--json`) and for validating those
//!   artifacts in tests and CI.
//!
//! Everything here is pay-as-you-go: the simulator only constructs
//! these structures when telemetry is explicitly enabled, so a
//! disabled build path carries nothing but an `Option` check.

mod fnv;
mod hist;
mod json;
mod registry;
mod ring;

pub use fnv::Fnv64;
pub use hist::Histogram;
pub use json::Json;
pub use registry::Registry;
pub use ring::RingLog;

/// Schema-version tag stamped into every telemetry JSON document
/// produced from a [`Registry`] (see DESIGN.md §10 for the policy:
/// additive changes keep the version; renames/removals bump it).
pub const TELEMETRY_SCHEMA: &str = "vr-telemetry-v1";

/// Schema-version tag of every record in the on-disk result store
/// (`crates/campaign`, DESIGN.md §11). Bump on breaking record-layout
/// changes; readers must treat records with an unknown schema as
/// corrupt, never guess.
pub const RESULTSTORE_SCHEMA: &str = "vr-resultstore-v1";

/// Schema-version tag of the campaign-engine telemetry sub-document
/// (`experiments campaign run --json`, DESIGN.md §11).
pub const CAMPAIGN_SCHEMA: &str = "vr-campaign-v1";

/// Schema-version tag of a chip-level record in the on-disk result
/// store (`chip/` — the shared-LLC contention counters of one
/// multi-core point, DESIGN.md §16). Same bump policy as
/// [`RESULTSTORE_SCHEMA`].
pub const CHIPSTORE_SCHEMA: &str = "vr-chipstore-v1";
