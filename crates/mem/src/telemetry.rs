//! Per-line prefetch-lifecycle telemetry
//! (issued → filled → used / evicted).
//!
//! Disabled by default: [`crate::MemorySystem`] holds an
//! `Option<Box<PfTelemetry>>` and every hook is behind an `if let`, so
//! a normal simulation pays one never-taken branch per *prefetch
//! bookkeeping event* (not per access) and the reported [`crate::MemStats`]
//! are bit-identical with telemetry on or off — telemetry only
//! *observes* the counters the hierarchy already maintains.
//!
//! The interesting derived signal is the **lead distance**: the number
//! of cycles between a prefetched line's fill and its first demand
//! touch. Large leads mean the prefetch was early enough to hide the
//! full DRAM latency (but risks eviction); a use *before* the fill
//! completes is the paper's "off-chip" timeliness bucket — the
//! prefetch was issued but too late to fully hide the miss.

use std::collections::HashMap;

use vr_obs::{Histogram, Json, RingLog};

use crate::stats::TimelinessLevel;
use crate::{HitLevel, Requestor};

/// How a tracked prefetch's lifecycle ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PfOutcome {
    /// First demand touch found the line at the given level;
    /// `lead_cycles` is fill-to-use time (0 when the demand access
    /// merged with the still-outstanding prefetch miss).
    Used {
        /// Where the demand access found the line.
        found: TimelinessLevel,
        /// Cycles between the fill completing and the first use
        /// (0 for an in-transit merge).
        lead_cycles: u64,
    },
    /// The line left the hierarchy without ever being demanded.
    Evicted,
}

/// One completed prefetch lifecycle.
#[derive(Clone, Copy, Debug)]
pub struct PfEvent {
    /// Line address (low bits cleared).
    pub line_addr: u64,
    /// Which prefetcher issued it.
    pub requestor: Requestor,
    /// Cycle the prefetch was accepted by the hierarchy.
    pub issued_at: u64,
    /// Cycle its fill completed (known at issue: timestamp timing).
    pub fill_at: u64,
    /// Level the prefetch was served from (fill *source*).
    pub fill_level: HitLevel,
    /// Cycle the lifecycle ended (first demand touch or eviction).
    pub ended_at: u64,
    /// How it ended.
    pub outcome: PfOutcome,
}

/// In-flight tracking state for one prefetched line.
#[derive(Clone, Copy, Debug)]
struct Issue {
    requestor: Requestor,
    issued_at: u64,
    fill_at: u64,
    fill_level: HitLevel,
}

/// Bound on the in-flight map: lines prefetched but never demanded or
/// evicted (e.g. still resident at end of run) would otherwise
/// accumulate without limit on pathological workloads.
const MAX_TRACKED: usize = 1 << 16;

/// The prefetch-lifecycle tracker (enable via
/// [`crate::MemorySystem::enable_telemetry`]).
#[derive(Clone, Debug)]
pub struct PfTelemetry {
    /// line address → issue info, until used or evicted.
    inflight: HashMap<u64, Issue>,
    /// Completed lifecycles, newest-last (ring-buffered).
    events: RingLog<PfEvent>,
    /// Fill-to-first-use cycles for used prefetches that were filled
    /// before the demand touch.
    lead_hist: Histogram,
    /// Lifecycles that ended in a demand touch.
    used: u64,
    /// Demand touches that merged with the still-outstanding prefetch.
    used_before_fill: u64,
    /// Lifecycles that ended in eviction without use.
    evicted_unused: u64,
    /// Prefetches that entered tracking.
    tracked: u64,
    /// Prefetches not tracked because the map was at capacity.
    untracked: u64,
}

impl PfTelemetry {
    /// Creates a tracker retaining the last `capacity` completed
    /// lifecycles.
    pub fn new(capacity: usize) -> PfTelemetry {
        PfTelemetry {
            inflight: HashMap::new(),
            events: RingLog::new(capacity),
            lead_hist: Histogram::new(),
            used: 0,
            used_before_fill: 0,
            evicted_unused: 0,
            tracked: 0,
            untracked: 0,
        }
    }

    pub(crate) fn on_issue(
        &mut self,
        line_addr: u64,
        requestor: Requestor,
        issued_at: u64,
        fill_at: u64,
        fill_level: HitLevel,
    ) {
        if self.inflight.len() >= MAX_TRACKED {
            self.untracked += 1;
            return;
        }
        // A re-issued prefetch to a line whose previous lifecycle is
        // still open supersedes it (no event, no double count), so
        // `used + evicted_unused + inflight == tracked` holds exactly.
        let superseded = self
            .inflight
            .insert(line_addr, Issue { requestor, issued_at, fill_at, fill_level })
            .is_some();
        self.tracked += u64::from(!superseded);
    }

    pub(crate) fn on_use(&mut self, line_addr: u64, found: TimelinessLevel, now: u64) {
        let Some(issue) = self.inflight.remove(&line_addr) else { return };
        self.used += 1;
        let lead_cycles = if found == TimelinessLevel::OffChip {
            self.used_before_fill += 1;
            0
        } else {
            let lead = now.saturating_sub(issue.fill_at);
            self.lead_hist.record(lead);
            lead
        };
        self.events.push(PfEvent {
            line_addr,
            requestor: issue.requestor,
            issued_at: issue.issued_at,
            fill_at: issue.fill_at,
            fill_level: issue.fill_level,
            ended_at: now,
            outcome: PfOutcome::Used { found, lead_cycles },
        });
    }

    pub(crate) fn on_evict(&mut self, line_addr: u64, now: u64) {
        let Some(issue) = self.inflight.remove(&line_addr) else { return };
        self.evicted_unused += 1;
        self.events.push(PfEvent {
            line_addr,
            requestor: issue.requestor,
            issued_at: issue.issued_at,
            fill_at: issue.fill_at,
            fill_level: issue.fill_level,
            ended_at: now,
            outcome: PfOutcome::Evicted,
        });
    }

    /// Completed lifecycle events (ring-buffered window).
    pub fn events(&self) -> impl Iterator<Item = &PfEvent> {
        self.events.iter()
    }

    /// Total completed lifecycles ever recorded (including ones the
    /// ring has evicted).
    pub fn total_events(&self) -> u64 {
        self.events.total()
    }

    /// Fill-to-first-use lead-distance histogram (used prefetches that
    /// filled before the demand touch).
    pub fn lead_hist(&self) -> &Histogram {
        &self.lead_hist
    }

    /// Lifecycles that ended in a demand touch.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Demand touches that merged with the outstanding prefetch miss
    /// (the "off-chip" timeliness bucket).
    pub fn used_before_fill(&self) -> u64 {
        self.used_before_fill
    }

    /// Lifecycles that ended in eviction without use.
    pub fn evicted_unused(&self) -> u64 {
        self.evicted_unused
    }

    /// Prefetches currently being tracked (issued, not yet resolved).
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Lifecycles ever started (issued prefetches accepted for
    /// tracking). Every one of them ends in exactly one outcome:
    /// `used() + evicted_unused() + inflight() == tracked()`.
    pub fn tracked(&self) -> u64 {
        self.tracked
    }

    /// Issued prefetches *not* tracked because the in-flight map was
    /// at capacity (0 in any realistic run).
    pub fn untracked(&self) -> u64 {
        self.untracked
    }

    /// JSON rendering of the aggregate state. Attached to reports
    /// without a schema tag for now: ROADMAP item 1's export defines
    /// one (DESIGN.md §10).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("tracked".into(), Json::U64(self.tracked)),
            ("untracked".into(), Json::U64(self.untracked)),
            ("used".into(), Json::U64(self.used)),
            ("used_before_fill".into(), Json::U64(self.used_before_fill)),
            ("evicted_unused".into(), Json::U64(self.evicted_unused)),
            ("inflight".into(), Json::U64(self.inflight.len() as u64)),
            ("lead_cycles".into(), self.lead_hist.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Access, MemConfig, MemorySystem};

    fn sys() -> MemorySystem {
        let mut ms = MemorySystem::new(MemConfig::tiny_for_tests());
        ms.enable_telemetry(64);
        ms
    }

    #[test]
    fn timely_use_records_lead_distance() {
        let mut ms = sys();
        assert!(ms.prefetch(0x2000, Requestor::Runahead, 0));
        // tiny config: fill completes at 242.
        ms.access(0x2000, Access::Load, Requestor::Main, 5, 400).unwrap();
        let t = ms.telemetry().expect("enabled");
        assert_eq!(t.used(), 1);
        assert_eq!(t.evicted_unused(), 0);
        let ev: Vec<_> = t.events().collect();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].issued_at, 0);
        assert_eq!(ev[0].fill_at, 242);
        assert_eq!(ev[0].fill_level, HitLevel::Dram);
        assert_eq!(
            ev[0].outcome,
            PfOutcome::Used { found: TimelinessLevel::L1, lead_cycles: 400 - 242 }
        );
        assert_eq!(t.lead_hist().count(), 1);
        assert_eq!(t.lead_hist().max(), Some(158));
    }

    #[test]
    fn in_transit_use_is_flagged_off_chip_with_zero_lead() {
        let mut ms = sys();
        ms.prefetch(0x2000, Requestor::Runahead, 0);
        ms.access(0x2000, Access::Load, Requestor::Main, 5, 10).unwrap();
        let t = ms.telemetry().unwrap();
        assert_eq!(t.used_before_fill(), 1);
        let ev: Vec<_> = t.events().collect();
        assert_eq!(
            ev[0].outcome,
            PfOutcome::Used { found: TimelinessLevel::OffChip, lead_cycles: 0 }
        );
        assert_eq!(t.lead_hist().count(), 0, "merges don't pollute the lead histogram");
    }

    #[test]
    fn unused_prefetch_eventually_reports_eviction() {
        let mut ms = sys();
        assert!(ms.prefetch(0x2000, Requestor::Stride, 0));
        // Stream enough demand lines through to push the unused
        // prefetched line out of every level (tiny L3 = 128 lines).
        for i in 0..1000u64 {
            ms.access(0x100_000 + i * 64, Access::Load, Requestor::Main, 1, 500 + i * 300).unwrap();
        }
        let t = ms.telemetry().unwrap();
        assert_eq!(t.evicted_unused(), 1);
        assert_eq!(t.used(), 0);
        let ev: Vec<_> = t.events().collect();
        assert_eq!(ev[0].outcome, PfOutcome::Evicted);
        assert!(ev[0].ended_at > ev[0].fill_at);
    }

    #[test]
    fn stats_are_bit_identical_with_telemetry_on_or_off() {
        let drive = |telemetry: bool| {
            let mut ms = MemorySystem::new(MemConfig::tiny_for_tests());
            if telemetry {
                ms.enable_telemetry(16);
            }
            for i in 0..128u64 {
                ms.prefetch(0x8000 + i * 192, Requestor::Runahead, i * 50);
                let _ = ms.access(0x8000 + i * 64, Access::Load, Requestor::Main, 3, i * 100);
                let _ = ms.access(0x8000 + i * 128, Access::Store, Requestor::Main, 4, i * 100 + 7);
            }
            *ms.stats()
        };
        let (off, on) = (drive(false), drive(true));
        assert_eq!(off, on, "telemetry must not perturb MemStats");
    }

    #[test]
    fn json_export_has_the_schema_fields() {
        let mut ms = sys();
        ms.prefetch(0x2000, Requestor::Runahead, 0);
        ms.access(0x2000, Access::Load, Requestor::Main, 5, 400).unwrap();
        let j = ms.telemetry().unwrap().to_json();
        for key in ["tracked", "used", "used_before_fill", "evicted_unused", "lead_cycles"] {
            assert!(j.get(key).is_some(), "missing key {key}");
        }
        assert_eq!(j.get("used").and_then(Json::as_u64), Some(1));
    }
}
