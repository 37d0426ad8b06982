//! Runahead-episode lifecycle telemetry.
//!
//! Disabled by default: [`crate::Simulator`] holds an
//! `Option<Box<Telemetry>>` and every hook sits behind an `if let` on
//! an episode *boundary* (trigger / exit), never the per-cycle or
//! per-instruction hot path, so a normal simulation pays nothing and
//! the reported [`crate::SimStats`] are bit-identical with telemetry
//! on or off — the tracker only observes the transitions the
//! simulator already performs.
//!
//! Each completed episode yields an [`EpisodeRecord`] (trigger PC,
//! entry/exit cycle, batch and lane counts, how it ended) in a
//! ring-buffered window; *running totals* are kept separately so they
//! reconcile exactly with the [`crate::SimStats`] runahead counters
//! even after the ring evicts old records.

use vr_obs::{Histogram, Json, RingLog};

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

/// One completed runahead episode.
#[derive(Clone, Copy, Debug)]
pub struct EpisodeRecord {
    /// PC of the load that triggered the episode (the blocked ROB
    /// head, or the striding load for an eager/decoupled trigger).
    pub trigger_pc: u64,
    /// Cycle the episode was entered.
    pub entered_at: u64,
    /// Cycle the episode ended (normal exit or abort).
    pub exited_at: u64,
    /// Which engine ran it.
    pub kind: EpisodeKind,
    /// Decoupled (eager-trigger extension) episodes do not stall the
    /// main pipeline.
    pub decoupled: bool,
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

/// An episode that has been entered but not yet exited.
#[derive(Clone, Copy, Debug)]
struct OpenEpisode {
    trigger_pc: u64,
    entered_at: u64,
    kind: EpisodeKind,
    decoupled: bool,
}

/// The episode tracker (enable via
/// [`crate::Simulator::enable_telemetry`]).
#[derive(Clone, Debug)]
pub struct Telemetry {
    /// At most one episode is in flight at a time.
    open: Option<OpenEpisode>,
    /// Completed episodes, newest-last (ring-buffered window).
    episodes: RingLog<EpisodeRecord>,
    /// Episode durations in cycles (entry to exit).
    duration_hist: Histogram,
    // Running totals — never evicted, so they reconcile exactly with
    // the SimStats runahead counters.
    entries: u64,
    completed: u64,
    aborted: u64,
    batches: u64,
    batches_aborted: u64,
    lanes_spawned: u64,
    lanes_invalidated: u64,
}

impl Telemetry {
    /// Creates a tracker retaining the last `capacity` completed
    /// episodes.
    pub fn new(capacity: usize) -> Telemetry {
        Telemetry {
            open: None,
            episodes: RingLog::new(capacity),
            duration_hist: Histogram::new(),
            entries: 0,
            completed: 0,
            aborted: 0,
            batches: 0,
            batches_aborted: 0,
            lanes_spawned: 0,
            lanes_invalidated: 0,
        }
    }

    pub(crate) fn on_enter(&mut self, trigger_pc: u64, kind: EpisodeKind, decoupled: bool, c: u64) {
        debug_assert!(self.open.is_none(), "episodes never nest");
        self.entries += 1;
        self.open = Some(OpenEpisode { trigger_pc, entered_at: c, kind, decoupled });
    }

    pub(crate) fn on_exit(
        &mut self,
        c: u64,
        batches: u64,
        batches_aborted: u64,
        lanes_spawned: u64,
        lanes_invalidated: u64,
        exit: EpisodeExit,
    ) {
        let Some(open) = self.open.take() else { return };
        match exit {
            EpisodeExit::Completed => self.completed += 1,
            EpisodeExit::Aborted => self.aborted += 1,
        }
        self.batches += batches;
        self.batches_aborted += batches_aborted;
        self.lanes_spawned += lanes_spawned;
        self.lanes_invalidated += lanes_invalidated;
        self.duration_hist.record(c.saturating_sub(open.entered_at));
        self.episodes.push(EpisodeRecord {
            trigger_pc: open.trigger_pc,
            entered_at: open.entered_at,
            exited_at: c,
            kind: open.kind,
            decoupled: open.decoupled,
            batches,
            batches_aborted,
            lanes_spawned,
            lanes_invalidated,
            exit,
        });
    }

    /// Completed episode records (ring-buffered window).
    pub fn episodes(&self) -> impl Iterator<Item = &EpisodeRecord> {
        self.episodes.iter()
    }

    /// Total completed episodes ever recorded (including ones the
    /// ring has evicted).
    pub fn total_episodes(&self) -> u64 {
        self.episodes.total()
    }

    /// Episode-duration histogram (cycles, entry to exit).
    pub fn duration_hist(&self) -> &Histogram {
        &self.duration_hist
    }

    /// Episodes entered (reconciles with `SimStats::runahead_entries`).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Episodes that ran to their natural end.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Episodes aborted mid-flight (reconciles with
    /// `SimStats::runahead_aborts`).
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    /// Total vector batches over all exited episodes (reconciles with
    /// `SimStats::vr_batches`).
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Total vector batches abandoned mid-flight.
    pub fn batches_aborted(&self) -> u64 {
        self.batches_aborted
    }

    /// Total SIMT lanes spawned (reconciles with
    /// `SimStats::vr_lanes_spawned`).
    pub fn lanes_spawned(&self) -> u64 {
        self.lanes_spawned
    }

    /// Total lanes invalidated (reconciles with
    /// `SimStats::vr_lanes_invalidated`).
    pub fn lanes_invalidated(&self) -> u64 {
        self.lanes_invalidated
    }

    /// Whether an episode is currently in flight (entered, not yet
    /// exited).
    pub fn in_episode(&self) -> bool {
        self.open.is_some()
    }

    /// JSON rendering of the aggregate state (schema: part of the
    /// `vr-telemetry-v1` document — see DESIGN.md §10).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("entries".into(), Json::U64(self.entries)),
            ("completed".into(), Json::U64(self.completed)),
            ("aborted".into(), Json::U64(self.aborted)),
            ("batches".into(), Json::U64(self.batches)),
            ("batches_aborted".into(), Json::U64(self.batches_aborted)),
            ("lanes_spawned".into(), Json::U64(self.lanes_spawned)),
            ("lanes_invalidated".into(), Json::U64(self.lanes_invalidated)),
            ("in_episode".into(), Json::Bool(self.open.is_some())),
            ("duration_cycles".into(), self.duration_hist.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_exit_records_an_episode() {
        let mut t = Telemetry::new(8);
        t.on_enter(0x40, EpisodeKind::Vector, false, 100);
        assert!(t.in_episode());
        assert_eq!(t.entries(), 1);
        t.on_exit(350, 3, 1, 24, 2, EpisodeExit::Completed);
        assert!(!t.in_episode());
        assert_eq!(t.completed(), 1);
        assert_eq!(t.aborted(), 0);
        assert_eq!(t.batches(), 3);
        assert_eq!(t.lanes_spawned(), 24);
        let ep: Vec<_> = t.episodes().collect();
        assert_eq!(ep.len(), 1);
        assert_eq!(ep[0].trigger_pc, 0x40);
        assert_eq!(ep[0].entered_at, 100);
        assert_eq!(ep[0].exited_at, 350);
        assert_eq!(ep[0].exit, EpisodeExit::Completed);
        assert_eq!(t.duration_hist().max(), Some(250));
    }

    #[test]
    fn totals_survive_ring_eviction() {
        let mut t = Telemetry::new(2);
        for i in 0..5u64 {
            t.on_enter(i, EpisodeKind::Scalar, false, i * 100);
            t.on_exit(i * 100 + 10, 0, 0, 0, 0, EpisodeExit::Completed);
        }
        assert_eq!(t.episodes().count(), 2, "ring keeps the newest two");
        assert_eq!(t.total_episodes(), 5);
        assert_eq!(t.entries(), 5);
        assert_eq!(t.completed(), 5);
        assert_eq!(t.duration_hist().count(), 5);
    }

    #[test]
    fn aborts_are_distinguished() {
        let mut t = Telemetry::new(4);
        t.on_enter(0x10, EpisodeKind::Vector, true, 0);
        t.on_exit(50, 1, 1, 8, 8, EpisodeExit::Aborted);
        assert_eq!(t.aborted(), 1);
        assert_eq!(t.completed(), 0);
        let ep: Vec<_> = t.episodes().collect();
        assert_eq!(ep[0].exit, EpisodeExit::Aborted);
        assert!(ep[0].decoupled);
    }

    #[test]
    fn exit_without_enter_is_ignored() {
        let mut t = Telemetry::new(4);
        t.on_exit(10, 1, 0, 1, 0, EpisodeExit::Completed);
        assert_eq!(t.completed(), 0);
        assert_eq!(t.episodes().count(), 0);
    }

    #[test]
    fn json_export_has_the_schema_fields() {
        let mut t = Telemetry::new(4);
        t.on_enter(0x40, EpisodeKind::Vector, false, 0);
        t.on_exit(90, 2, 0, 16, 0, EpisodeExit::Completed);
        let j = t.to_json();
        for key in
            ["entries", "completed", "aborted", "batches", "lanes_spawned", "duration_cycles"]
        {
            assert!(j.get(key).is_some(), "missing key {key}");
        }
        assert_eq!(j.get("batches").and_then(Json::as_u64), Some(2));
    }
}
