//! Runahead-episode lifecycle telemetry.
//!
//! Disabled by default: [`crate::Simulator`] holds an
//! `Option<Box<Telemetry>>` and its one hook sits behind an `if let` at
//! an episode's exit, never the per-cycle or per-instruction hot path,
//! so a normal simulation pays nothing and the reported
//! [`crate::SimStats`] are bit-identical with telemetry on or off —
//! the tracker only observes the exits the simulator already performs.
//!
//! An episode is one [`Episode`] record from trigger to exit. The
//! simulator holds the live one; at exit it becomes an
//! [`EpisodeRecord`] (the episode plus exit cycle, batch and lane
//! counts and how it ended) in a ring-buffered window, and its duration
//! goes into a histogram. Run totals live only in [`crate::SimStats`].

use vr_obs::{Histogram, Json, RingLog};

use crate::runahead::EpisodeCounters;

/// Which engine ran the episode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EpisodeKind {
    /// Scalar runahead (classic invalidation-style or PRE).
    Scalar,
    /// Vector Runahead.
    Vector,
}

impl EpisodeKind {
    /// Stable lowercase label (used in telemetry/JSON export).
    pub fn label(self) -> &'static str {
        match self {
            EpisodeKind::Scalar => "scalar",
            EpisodeKind::Vector => "vector",
        }
    }
}

/// How a runahead episode ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EpisodeExit {
    /// The episode ran to its natural end (blocking load returned, or
    /// the vector engine finished its interval / delayed termination).
    Completed,
    /// The episode was aborted mid-flight. The only abort source is
    /// the fault-injection `abort_episode` lever
    /// ([`crate::FaultPlan`]); aborts are always 0 in normal runs.
    Aborted,
}

/// One runahead episode, entry to exit. The simulator holds the live
/// one ([`crate::Simulator::episode`]); an [`EpisodeRecord`] keeps it
/// once it has ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Episode {
    /// PC of the load that triggered the episode (the blocked ROB
    /// head, or the striding load for an eager/decoupled trigger).
    pub trigger_pc: u64,
    /// Cycle the episode was entered.
    pub entered_at: u64,
    /// Cycle the blocking load returns (or the eager episode expires).
    /// A coupled episode still running from here on is in delayed
    /// termination.
    pub end_at: u64,
    /// Which engine ran it.
    pub kind: EpisodeKind,
    /// Decoupled (eager-trigger extension) episodes do not stall fetch
    /// or commit and do not flush on exit.
    pub decoupled: bool,
}

/// One completed runahead episode.
#[derive(Clone, Copy, Debug)]
pub struct EpisodeRecord {
    /// The episode as it stood when it ended.
    pub episode: Episode,
    /// Cycle the episode ended (normal exit or abort).
    pub exited_at: u64,
    /// Vector batches executed (0 for scalar engines).
    pub batches: u64,
    /// Vector batches abandoned mid-flight (0 for scalar engines).
    pub batches_aborted: u64,
    /// SIMT lanes spawned (0 for scalar engines).
    pub lanes_spawned: u64,
    /// Lanes invalidated by faults/divergence (0 for scalar engines).
    pub lanes_invalidated: u64,
    /// How the episode ended.
    pub exit: EpisodeExit,
}

/// The episode tracker (enable via
/// [`crate::Simulator::enable_telemetry`]). It sees each episode once,
/// when it ends; the live one belongs to the simulator.
#[derive(Clone, Debug)]
pub struct Telemetry {
    /// Completed episodes, newest-last (ring-buffered window).
    episodes: RingLog<EpisodeRecord>,
    /// Episode durations in cycles (entry to exit).
    duration_hist: Histogram,
}

impl Telemetry {
    /// Creates a tracker retaining the last `capacity` completed
    /// episodes.
    pub fn new(capacity: usize) -> Telemetry {
        Telemetry { episodes: RingLog::new(capacity), duration_hist: Histogram::new() }
    }

    pub(crate) fn on_exit(&mut self, ep: &Episode, c: u64, n: &EpisodeCounters, exit: EpisodeExit) {
        self.duration_hist.record(c.saturating_sub(ep.entered_at));
        self.episodes.push(EpisodeRecord {
            episode: *ep,
            exited_at: c,
            batches: n.batches,
            batches_aborted: n.batches_aborted,
            lanes_spawned: n.lanes_spawned,
            lanes_invalidated: n.lanes_invalidated,
            exit,
        });
    }

    /// Completed episode records (ring-buffered window).
    pub fn episodes(&self) -> impl Iterator<Item = &EpisodeRecord> {
        self.episodes.iter()
    }

    /// Episode-duration histogram (cycles, entry to exit).
    pub fn duration_hist(&self) -> &Histogram {
        &self.duration_hist
    }

    /// JSON rendering of the aggregate state, with `live`, the
    /// simulator's open episode ([`crate::Simulator::episode`]), as
    /// `in_episode`. Attached to reports without a schema tag for now:
    /// the CPI-stack export defines one (DESIGN.md §10).
    pub fn to_json(&self, live: Option<&Episode>) -> Json {
        Json::Obj(vec![
            ("in_episode".into(), Json::Bool(live.is_some())),
            ("duration_cycles".into(), self.duration_hist.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(batches: u64, lanes_spawned: u64) -> EpisodeCounters {
        EpisodeCounters { batches, lanes_spawned, ..EpisodeCounters::default() }
    }

    fn episode(trigger_pc: u64, kind: EpisodeKind, decoupled: bool, entered_at: u64) -> Episode {
        Episode { trigger_pc, entered_at, end_at: entered_at + 200, kind, decoupled }
    }

    #[test]
    fn enter_exit_records_an_episode() {
        let mut t = Telemetry::new(8);
        let ep = episode(0x40, EpisodeKind::Vector, false, 100);
        t.on_exit(
            &ep,
            350,
            &EpisodeCounters { batches_aborted: 1, ..counters(3, 24) },
            EpisodeExit::Completed,
        );
        let recs: Vec<_> = t.episodes().collect();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].episode, ep);
        assert_eq!(recs[0].exited_at, 350);
        assert_eq!((recs[0].batches, recs[0].batches_aborted, recs[0].lanes_spawned), (3, 1, 24));
        assert_eq!(recs[0].exit, EpisodeExit::Completed);
        assert_eq!(t.duration_hist().max(), Some(250));
    }

    #[test]
    fn totals_survive_ring_eviction() {
        let mut t = Telemetry::new(2);
        for i in 0..5u64 {
            let ep = episode(i, EpisodeKind::Scalar, false, i * 100);
            t.on_exit(&ep, i * 100 + 10, &counters(0, 0), EpisodeExit::Completed);
        }
        assert_eq!(t.episodes().count(), 2, "ring keeps the newest two");
        assert_eq!(t.duration_hist().count(), 5, "the histogram keeps every episode");
    }

    #[test]
    fn aborts_are_distinguished() {
        let mut t = Telemetry::new(4);
        let ep = episode(0x10, EpisodeKind::Vector, true, 0);
        t.on_exit(&ep, 50, &counters(1, 8), EpisodeExit::Aborted);
        let recs: Vec<_> = t.episodes().collect();
        assert_eq!(recs[0].exit, EpisodeExit::Aborted);
        assert!(recs[0].episode.decoupled);
    }

    /// Only an exit, which hands over the episode it closes, makes a
    /// record: a tracker that saw none holds no record and no duration.
    #[test]
    fn exit_without_enter_is_ignored() {
        let t = Telemetry::new(4);
        assert_eq!(t.episodes().count(), 0);
        assert_eq!(t.duration_hist().count(), 0);
    }

    #[test]
    fn json_export_has_the_schema_fields() {
        let mut t = Telemetry::new(4);
        let ep = episode(0x40, EpisodeKind::Vector, false, 0);
        t.on_exit(&ep, 90, &counters(2, 16), EpisodeExit::Completed);
        let j = t.to_json(None);
        for key in ["in_episode", "duration_cycles"] {
            assert!(j.get(key).is_some(), "missing key {key}");
        }
        assert_eq!(j.get("in_episode"), Some(&Json::Bool(false)));
        assert_eq!(t.to_json(Some(&ep)).get("in_episode"), Some(&Json::Bool(true)));
    }
}
