//! Simulation statistics: everything the paper's figures need.

use vr_mem::MemStats;

/// End-of-run statistics produced by [`crate::Simulator::run`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed (retired) instructions.
    pub instructions: u64,

    /// Cycles on which commit made no progress while the ROB was
    /// completely full (the trigger-opportunity metric of Fig. 2).
    pub full_rob_stall_cycles: u64,
    /// Cycles on which commit made no progress for any reason.
    pub commit_stall_cycles: u64,

    /// Conditional branches committed.
    pub branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,

    /// Times a runahead interval was entered.
    pub runahead_entries: u64,
    /// Cycles spent inside runahead intervals.
    pub runahead_cycles: u64,
    /// Instructions pre-executed by the scalar runahead engines.
    pub runahead_insts: u64,
    /// Cycles commit remained stalled *after* the blocking load had
    /// returned, because Vector Runahead's delayed termination had not
    /// finished the chain (the ~7% commit-stall cost the follow-on
    /// paper measures).
    pub delayed_termination_stall_cycles: u64,

    /// Vectorized batches executed by Vector Runahead.
    pub vr_batches: u64,
    /// Batches abandoned by bounded delayed termination (generation
    /// stalled past the interval end behind a saturated memory
    /// system).
    pub vr_batches_aborted: u64,
    /// Scalar-equivalent lanes spawned in total.
    pub vr_lanes_spawned: u64,
    /// Lanes invalidated by control-flow divergence or faults.
    pub vr_lanes_invalidated: u64,
    /// Intervals in which no striding load was found (fell back to
    /// scalar runahead behaviour).
    pub vr_no_stride_intervals: u64,

    /// Faults injected by the configured [`crate::FaultPlan`]
    /// (0 in normal runs).
    pub faults_injected: u64,
    /// Runahead episodes aborted mid-flight (by an injected fault or
    /// an engine-fault recovery) rather than exiting normally.
    pub runahead_aborts: u64,

    /// Memory-system counters at end of run.
    pub mem: MemStats,
    /// MSHR occupancy integral (Σ outstanding-miss cycles).
    pub mshr_occupancy_integral: u64,
}

impl SimStats {
    /// Counter-wise difference `self − earlier`: the statistics of the
    /// region executed *between* two snapshots of the same simulator.
    /// Used by [`crate::Simulator::run_roi`] to implement
    /// warmup-then-measure (the paper's region-of-interest
    /// methodology).
    ///
    /// Written with *exhaustive destructuring* — no `..` rest pattern —
    /// so adding a counter to `SimStats` without deciding how it
    /// subtracts is a compile error, not a silently-zero delta (the
    /// memory-side counters get the same guarantee from
    /// [`MemStats::delta`]).
    pub fn delta(&self, earlier: &SimStats) -> SimStats {
        fn sub(a: u64, b: u64) -> u64 {
            a.saturating_sub(b)
        }
        // Both sides destructured exhaustively: a new field must be
        // named here (twice) before this compiles again.
        let SimStats {
            cycles,
            instructions,
            full_rob_stall_cycles,
            commit_stall_cycles,
            branches,
            mispredicts,
            runahead_entries,
            runahead_cycles,
            runahead_insts,
            delayed_termination_stall_cycles,
            vr_batches,
            vr_batches_aborted,
            vr_lanes_spawned,
            vr_lanes_invalidated,
            vr_no_stride_intervals,
            faults_injected,
            runahead_aborts,
            mem,
            mshr_occupancy_integral,
        } = *self;
        let SimStats {
            cycles: e_cycles,
            instructions: e_instructions,
            full_rob_stall_cycles: e_full_rob_stall_cycles,
            commit_stall_cycles: e_commit_stall_cycles,
            branches: e_branches,
            mispredicts: e_mispredicts,
            runahead_entries: e_runahead_entries,
            runahead_cycles: e_runahead_cycles,
            runahead_insts: e_runahead_insts,
            delayed_termination_stall_cycles: e_delayed_termination_stall_cycles,
            vr_batches: e_vr_batches,
            vr_batches_aborted: e_vr_batches_aborted,
            vr_lanes_spawned: e_vr_lanes_spawned,
            vr_lanes_invalidated: e_vr_lanes_invalidated,
            vr_no_stride_intervals: e_vr_no_stride_intervals,
            faults_injected: e_faults_injected,
            runahead_aborts: e_runahead_aborts,
            mem: e_mem,
            mshr_occupancy_integral: e_mshr_occupancy_integral,
        } = *earlier;
        SimStats {
            cycles: sub(cycles, e_cycles),
            instructions: sub(instructions, e_instructions),
            full_rob_stall_cycles: sub(full_rob_stall_cycles, e_full_rob_stall_cycles),
            commit_stall_cycles: sub(commit_stall_cycles, e_commit_stall_cycles),
            branches: sub(branches, e_branches),
            mispredicts: sub(mispredicts, e_mispredicts),
            runahead_entries: sub(runahead_entries, e_runahead_entries),
            runahead_cycles: sub(runahead_cycles, e_runahead_cycles),
            runahead_insts: sub(runahead_insts, e_runahead_insts),
            delayed_termination_stall_cycles: sub(
                delayed_termination_stall_cycles,
                e_delayed_termination_stall_cycles,
            ),
            vr_batches: sub(vr_batches, e_vr_batches),
            vr_batches_aborted: sub(vr_batches_aborted, e_vr_batches_aborted),
            vr_lanes_spawned: sub(vr_lanes_spawned, e_vr_lanes_spawned),
            vr_lanes_invalidated: sub(vr_lanes_invalidated, e_vr_lanes_invalidated),
            vr_no_stride_intervals: sub(vr_no_stride_intervals, e_vr_no_stride_intervals),
            faults_injected: sub(faults_injected, e_faults_injected),
            runahead_aborts: sub(runahead_aborts, e_runahead_aborts),
            mem: mem.delta(&e_mem),
            mshr_occupancy_integral: sub(mshr_occupancy_integral, e_mshr_occupancy_integral),
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.instructions as f64 / self.cycles as f64
    }

    /// Average outstanding L1-D misses per cycle (the MLP metric of
    /// the memory-level-parallelism figure).
    pub fn mlp(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.mshr_occupancy_integral as f64 / self.cycles as f64
    }

    /// Fraction of cycles stalled on a full ROB.
    pub fn full_rob_stall_fraction(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.full_rob_stall_cycles as f64 / self.cycles as f64
    }

    /// Branch misprediction rate (per committed conditional branch).
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            return 0.0;
        }
        self.mispredicts as f64 / self.branches as f64
    }

    /// Speedup of `self` over a `baseline` run of the same workload.
    pub fn speedup_over(&self, baseline: &SimStats) -> f64 {
        if self.ipc() == 0.0 || baseline.ipc() == 0.0 {
            return 0.0;
        }
        self.ipc() / baseline.ipc()
    }
}

/// Harmonic mean of a slice of speedups (how the paper aggregates).
///
/// # Sentinel
///
/// Returns `0.0` — a documented sentinel meaning "undefined / no
/// data" — for an empty slice, or when any input is non-positive or
/// non-finite (the harmonic mean is undefined there). A non-positive
/// speedup reaching this function is almost always an upstream harness
/// bug (e.g. a run with zero IPC), so in debug builds this fires a
/// `debug_assert!` naming the offending value; in release builds it
/// logs a warning to stderr and returns the sentinel. Callers that
/// render figures must treat `0.0` as "missing", never as a measured
/// mean.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    if let Some(&bad) = values.iter().find(|&&v| v <= 0.0 || !v.is_finite()) {
        debug_assert!(
            false,
            "harmonic_mean: non-positive/non-finite input {bad} (upstream harness bug?)"
        );
        eprintln!(
            "warning: harmonic_mean received non-positive/non-finite input {bad}; \
             returning the 0.0 sentinel (see vr_core::harmonic_mean rustdoc)"
        );
        return 0.0;
    }
    values.len() as f64 / values.iter().map(|v| 1.0 / v).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_guards() {
        let s = SimStats { cycles: 100, instructions: 250, ..SimStats::default() };
        assert_eq!(s.ipc(), 2.5);
        assert_eq!(SimStats::default().ipc(), 0.0);
        assert_eq!(SimStats::default().mlp(), 0.0);
    }

    #[test]
    fn speedup() {
        let base = SimStats { cycles: 200, instructions: 100, ..SimStats::default() };
        let fast = SimStats { cycles: 100, instructions: 100, ..SimStats::default() };
        assert_eq!(fast.speedup_over(&base), 2.0);
    }

    #[test]
    fn harmonic_mean_behaviour() {
        assert_eq!(harmonic_mean(&[1.0, 1.0]), 1.0);
        assert!((harmonic_mean(&[1.0, 2.0]) - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(harmonic_mean(&[]), 0.0, "empty slice yields the sentinel quietly");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "harmonic_mean")]
    fn harmonic_mean_asserts_on_non_positive_input_in_debug() {
        let _ = harmonic_mean(&[1.0, 0.0]);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn harmonic_mean_returns_sentinel_on_bad_input_in_release() {
        assert_eq!(harmonic_mean(&[1.0, 0.0]), 0.0);
        assert_eq!(harmonic_mean(&[-2.0]), 0.0);
        assert_eq!(harmonic_mean(&[f64::NAN]), 0.0);
        assert_eq!(harmonic_mean(&[f64::INFINITY]), 0.0);
    }

    #[test]
    fn delta_of_default_round_trips() {
        let s = SimStats {
            cycles: 100,
            instructions: 50,
            full_rob_stall_cycles: 10,
            commit_stall_cycles: 20,
            branches: 5,
            mispredicts: 1,
            runahead_entries: 2,
            runahead_cycles: 30,
            runahead_insts: 40,
            delayed_termination_stall_cycles: 3,
            vr_batches: 4,
            vr_batches_aborted: 1,
            vr_lanes_spawned: 32,
            vr_lanes_invalidated: 2,
            vr_no_stride_intervals: 1,
            faults_injected: 0,
            runahead_aborts: 0,
            mem: vr_mem::MemStats {
                demand_loads: 9,
                timeliness: [1, 2, 3, 4],
                ..Default::default()
            },
            mshr_occupancy_integral: 77,
        };
        assert_eq!(s.delta(&SimStats::default()), s, "x - 0 == x (every field survives)");
        assert_eq!(s.delta(&s), SimStats::default(), "x - x == 0 (every field subtracts)");
    }

    #[test]
    fn rates() {
        let s = SimStats {
            cycles: 100,
            full_rob_stall_cycles: 25,
            branches: 10,
            mispredicts: 3,
            ..SimStats::default()
        };
        assert_eq!(s.full_rob_stall_fraction(), 0.25);
        assert!((s.mispredict_rate() - 0.3).abs() < 1e-12);
    }
}
