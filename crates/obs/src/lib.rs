#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # vr-obs
//!
//! Observability primitives shared by the simulator crates and the
//! experiment harness:
//!
//! * [`RingLog`] — a bounded, allocation-stable event ring buffer
//!   (oldest events are evicted), holding the runahead-episode
//!   records;
//! * [`Histogram`] — power-of-two-bucketed `u64` histogram with exact
//!   count/sum/min/max (used for the runahead-episode-duration
//!   distribution);
//! * [`Counters`] — the one trait every statistics record implements
//!   from its one [`counters!`] field list: snapshot delta, exact JSON
//!   writer and strict reader;
//! * [`Json`] — a zero-dependency JSON value type with a serializer
//!   and a strict parser, used for every machine-readable artifact the
//!   `experiments` harness emits (`--json`) and for validating those
//!   artifacts in tests and CI; the parser is built on [`Reader`], a
//!   pull reader that hands a document out as [`Event`]s, which the
//!   result store reads records with, tree-free.
//!
//! Everything here is pay-as-you-go: the simulator only constructs
//! these structures when telemetry is explicitly enabled, so a
//! disabled build path carries nothing but an `Option` check.

mod counters;
mod fnv;
mod hist;
mod json;
mod ring;

pub use counters::Counters;
pub use fnv::Fnv64;
pub use hist::Histogram;
pub use json::{Event, Json, Reader};
pub use ring::RingLog;

/// Schema-version tag of a single-core point's record in the on-disk
/// result store (`crates/campaign`, DESIGN.md §11). Bump on breaking
/// record-layout changes; readers must treat records with an unknown
/// schema as corrupt, never guess.
pub const RESULTSTORE_SCHEMA: &str = "vr-resultstore-v1";

/// Schema-version tag of the campaign engine's documents: the
/// `experiments campaign run|status --json` sub-documents and the
/// result store's poison records (DESIGN.md §11).
pub const CAMPAIGN_SCHEMA: &str = "vr-campaign-v1";

/// Schema-version tag of a chip point's record in the on-disk result
/// store: the whole run of one multi-core point, per-core stats and
/// shared-LLC contention counters together (DESIGN.md §16). Same bump
/// policy as [`RESULTSTORE_SCHEMA`]; v1 was the chip-counters-only
/// record of the old `chip/` directory.
pub const CHIPSTORE_SCHEMA: &str = "vr-chipstore-v2";
