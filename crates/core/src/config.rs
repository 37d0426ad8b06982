//! Core and runahead configuration (the paper's Table 1).

use vr_isa::Reg;
use vr_obs::Fnv64;

/// Functional-unit pool: how many operations of each class may begin
/// execution per cycle (fully pipelined except the dividers).
#[derive(Clone, Copy, Debug)]
pub struct FuPool {
    /// Simple integer ALUs ("4 int add").
    pub int_alu: usize,
    /// Integer multipliers ("1 int mult").
    pub int_mul: usize,
    /// Integer dividers ("1 int div", unpipelined).
    pub int_div: usize,
    /// FP adders ("1 fp add").
    pub fp_add: usize,
    /// FP multipliers ("1 fp mult").
    pub fp_mul: usize,
    /// FP dividers ("1 fp div", unpipelined).
    pub fp_div: usize,
    /// L1-D load ports.
    pub load_ports: usize,
    /// L1-D store (address) ports.
    pub store_ports: usize,
    /// Vector ALUs available to the vector-runahead engine
    /// ("3 ALU" vector units).
    pub vec_alu: usize,
}

/// Execution latencies in cycles.
#[derive(Clone, Copy, Debug)]
pub struct Latencies {
    /// Simple integer ALU operations.
    pub int_alu: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide (unpipelined).
    pub int_div: u64,
    /// FP add/sub/convert/compare.
    pub fp_add: u64,
    /// FP multiply.
    pub fp_mul: u64,
    /// FP divide (unpipelined).
    pub fp_div: u64,
}

/// Out-of-order core configuration.
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Fetch/dispatch/rename/commit width ("5-wide").
    pub width: usize,
    /// Reorder buffer entries (350 baseline).
    pub rob: usize,
    /// Issue queue entries (128).
    pub iq: usize,
    /// Load queue entries (128).
    pub lq: usize,
    /// Store queue entries (72).
    pub sq: usize,
    /// Front-end depth in stages (15): fetch-to-dispatch latency and
    /// the penalty refilled on a pipeline flush.
    pub frontend_depth: u64,
    /// Integer physical registers (256).
    pub int_regs: usize,
    /// FP physical registers (256).
    pub fp_regs: usize,
    /// Functional units.
    pub fu: FuPool,
    /// Latencies.
    pub lat: Latencies,
    /// Post-commit store buffer entries before commit back-pressures.
    pub store_buffer: usize,
    /// Watchdog budget: cycles the simulator may go without committing
    /// a single instruction before [`crate::Simulator::try_run`] gives
    /// up and returns [`crate::SimError::Deadlock`] with a diagnostic
    /// dump. The longest legitimate stall in the modelled hierarchy is
    /// a few hundred cycles (a DRAM miss behind a full MSHR file), so
    /// the default of one million cycles only fires on genuine
    /// scheduling bugs. Set it low in tests to exercise the dump.
    pub watchdog: u64,
}

impl CoreConfig {
    /// The paper's Table 1 core: 4 GHz, 5-wide, 350-entry ROB,
    /// IQ 128 / LQ 128 / SQ 72, 15 front-end stages, Ice-Lake-inspired.
    pub fn table1() -> CoreConfig {
        CoreConfig {
            width: 5,
            rob: 350,
            iq: 128,
            lq: 128,
            sq: 72,
            frontend_depth: 15,
            int_regs: 256,
            fp_regs: 256,
            fu: FuPool {
                int_alu: 4,
                int_mul: 1,
                int_div: 1,
                fp_add: 1,
                fp_mul: 1,
                fp_div: 1,
                load_ports: 2,
                store_ports: 1,
                vec_alu: 3,
            },
            lat: Latencies { int_alu: 1, int_mul: 3, int_div: 18, fp_add: 3, fp_mul: 5, fp_div: 6 },
            store_buffer: 64,
            watchdog: 1_000_000,
        }
    }

    /// Table 1 with a different ROB size, scaling nothing else (the
    /// paper's ROB-sensitivity sweep keeps other resources fixed).
    pub fn with_rob(rob: usize) -> CoreConfig {
        CoreConfig { rob, ..CoreConfig::table1() }
    }

    /// Result-store fingerprint hook (DESIGN.md §11): folds every
    /// configuration field into `h` in declaration order.
    ///
    /// Written with *exhaustive destructuring* — no `..` rest pattern —
    /// so adding a field to `CoreConfig` (or its sub-structs) without
    /// deciding how it fingerprints is a compile error, never a stale
    /// cache hit: two configs that could simulate differently must
    /// never share a fingerprint.
    pub fn fingerprint(&self, h: &mut Fnv64) {
        let CoreConfig {
            width,
            rob,
            iq,
            lq,
            sq,
            frontend_depth,
            int_regs,
            fp_regs,
            fu,
            lat,
            store_buffer,
            watchdog,
        } = self;
        h.write_str("CoreConfig");
        h.write_u64(*width as u64);
        h.write_u64(*rob as u64);
        h.write_u64(*iq as u64);
        h.write_u64(*lq as u64);
        h.write_u64(*sq as u64);
        h.write_u64(*frontend_depth);
        h.write_u64(*int_regs as u64);
        h.write_u64(*fp_regs as u64);
        let FuPool {
            int_alu,
            int_mul,
            int_div,
            fp_add,
            fp_mul,
            fp_div,
            load_ports,
            store_ports,
            vec_alu,
        } = fu;
        for v in
            [int_alu, int_mul, int_div, fp_add, fp_mul, fp_div, load_ports, store_ports, vec_alu]
        {
            h.write_u64(*v as u64);
        }
        let Latencies { int_alu, int_mul, int_div, fp_add, fp_mul, fp_div } = lat;
        for v in [int_alu, int_mul, int_div, fp_add, fp_mul, fp_div] {
            h.write_u64(*v);
        }
        h.write_u64(*store_buffer as u64);
        h.write_u64(*watchdog);
    }

    /// Table 1 scaled: ROB plus back-end queues and physical register
    /// files scaled proportionally (the paper's "scale all the
    /// back-end structures" variant; also the configuration the ROB
    /// sweep uses, because with a fixed 256-entry PRF the effective
    /// window stops growing past ≈280 in-flight instructions).
    pub fn with_rob_scaled(rob: usize) -> CoreConfig {
        let base = CoreConfig::table1();
        let scale = rob as f64 / base.rob as f64;
        let s = |v: usize| ((v as f64 * scale).round() as usize).max(8);
        CoreConfig {
            rob,
            iq: s(base.iq),
            lq: s(base.lq),
            sq: s(base.sq),
            int_regs: s(base.int_regs).max(Reg::COUNT * 2),
            fp_regs: s(base.fp_regs).max(Reg::COUNT * 2),
            ..base
        }
    }
}

/// Which runahead technique the core runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunaheadKind {
    /// Plain out-of-order execution (plus the always-on stride
    /// prefetcher): the paper's baseline.
    None,
    /// Classic invalidation-based runahead (Mutlu et al., HPCA'03):
    /// triggered on a full-ROB stall behind an LLC miss; pipeline is
    /// flushed on exit.
    Classic,
    /// Precise Runahead Execution (Naithani et al., HPCA'20): slice
    /// filtering (modelled as doubled effective runahead throughput)
    /// and no exit flush.
    Precise,
    /// Vector Runahead (the paper's contribution): speculative
    /// vectorization of striding-load dependence chains with delayed
    /// termination.
    Vector,
}

/// A seeded fault-injection plan for the runahead machinery.
///
/// Runahead (classic or vector) is **microarchitectural speculation**:
/// whatever happens inside an episode, the committed architectural
/// state must be bit-identical to a run with runahead disabled. The
/// fault plan stress-tests that contract by randomly perturbing the
/// speculative machinery — aborting episodes mid-flight, poisoning
/// vector lanes, forcing early interval exits, and dropping/delaying
/// prefetches in the memory system — while the differential oracle
/// (`tests/tests/fault_oracle.rs`) asserts that committed registers,
/// the memory image and the retired-instruction count never change.
///
/// All probabilities are per-opportunity Bernoulli draws from one
/// seeded [`vr_isa::SplitMix64`] stream, so a plan is reproduced
/// exactly by its seed.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Seed for the fault schedule.
    pub seed: u64,
    /// Per-cycle probability of aborting an in-flight runahead
    /// episode (flushing all speculative state and resuming the
    /// normal out-of-order pipeline).
    pub abort_episode: f64,
    /// Per-cycle probability of invalidating ~half the active vector
    /// lanes of a vector-runahead batch.
    pub poison_lanes: f64,
    /// Per-prefetch probability that the memory system silently drops
    /// the prefetch.
    pub drop_prefetch: f64,
    /// Per-prefetch probability that the memory system delays the
    /// prefetch by ~200 cycles.
    pub delay_prefetch: f64,
    /// Per-cycle probability of forcing the episode's interval to end
    /// immediately (exercising delayed termination and the exit path).
    pub force_early_exit: f64,
}

impl FaultPlan {
    /// A moderately hostile default plan: every lever armed, with
    /// rates chosen so a few hundred faults land per million cycles
    /// without suppressing runahead entirely.
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            abort_episode: 0.002,
            poison_lanes: 0.01,
            drop_prefetch: 0.05,
            delay_prefetch: 0.05,
            force_early_exit: 0.002,
        }
    }
}

/// Runahead engine configuration.
#[derive(Clone, Debug)]
pub struct RunaheadConfig {
    /// Technique to run.
    pub kind: RunaheadKind,
    /// Vectorization degree K: scalar-equivalent lanes per batch
    /// (64 default; the sensitivity experiment sweeps 16–128).
    pub vr_lanes: usize,
    /// Maximum instructions followed along one dependence chain
    /// before the batch is abandoned (the literature's 200-instruction
    /// runahead timeout).
    pub chain_budget: usize,
    /// Instructions the scalar scan may process while looking for a
    /// striding load before giving up on vectorizing this interval.
    pub scan_budget: usize,
    /// EXTENSION (off by default; the follow-on paper's "Offload"
    /// step): trigger vector runahead whenever a confident striding
    /// load executes, without waiting for a full-ROB stall, and let
    /// the main thread keep fetching. Consumed by `fig-ablation`'s
    /// `+eager` column and by
    /// `runahead_features.rs::eager_trigger_extension_enters_more_often`.
    pub eager_trigger: bool,
    /// EXTENSION (off by default = the paper's unbounded delayed
    /// termination): abandon a batch whose chain *generation* is
    /// stalled more than this many cycles past the interval end —
    /// bounds the commit stall under memory-bandwidth saturation.
    /// Consumed by `fig-ablation`'s `+bounded` column and by
    /// `runahead_features.rs::bounded_termination_extension_caps_the_stall`.
    pub termination_slack: Option<u64>,
    /// ABLATION (on by default = the paper's design): overlap the 16
    /// vector copies of each chain level in the vector issue register,
    /// so consumers wait only for the first copy's data. Off =
    /// barrier the whole chain on the slowest lane of every gather.
    /// Consumed by `fig-ablation`'s `no-pipe` column and by
    /// `vector.rs::swar_path_matches_scalar_reference`.
    pub vir_pipelining: bool,
    /// Fault-injection plan (None in normal runs). See [`FaultPlan`].
    pub fault_plan: Option<FaultPlan>,
}

impl RunaheadConfig {
    /// No runahead (baseline OoO).
    pub fn none() -> RunaheadConfig {
        RunaheadConfig::of(RunaheadKind::None)
    }

    /// Defaults for a given technique.
    pub fn of(kind: RunaheadKind) -> RunaheadConfig {
        RunaheadConfig {
            kind,
            vr_lanes: 64,
            chain_budget: 200,
            scan_budget: 512,
            eager_trigger: false,
            termination_slack: None,
            vir_pipelining: true,
            fault_plan: None,
        }
    }

    /// Vector Runahead as evaluated in the paper.
    pub fn vector() -> RunaheadConfig {
        RunaheadConfig::of(RunaheadKind::Vector)
    }

    /// Result-store fingerprint hook (DESIGN.md §11); exhaustively
    /// destructured like [`CoreConfig::fingerprint`] so a new knob
    /// cannot silently alias cache entries.
    pub fn fingerprint(&self, h: &mut Fnv64) {
        let RunaheadConfig {
            kind,
            vr_lanes,
            chain_budget,
            scan_budget,
            eager_trigger,
            termination_slack,
            vir_pipelining,
            fault_plan,
        } = self;
        h.write_str("RunaheadConfig");
        h.write_u64(match kind {
            RunaheadKind::None => 0,
            RunaheadKind::Classic => 1,
            RunaheadKind::Precise => 2,
            RunaheadKind::Vector => 3,
        });
        h.write_u64(*vr_lanes as u64);
        h.write_u64(*chain_budget as u64);
        h.write_u64(*scan_budget as u64);
        h.write_bool(*eager_trigger);
        match termination_slack {
            None => h.write_bool(false),
            Some(s) => {
                h.write_bool(true);
                h.write_u64(*s);
            }
        }
        h.write_bool(*vir_pipelining);
        match fault_plan {
            None => h.write_bool(false),
            Some(p) => {
                h.write_bool(true);
                p.fingerprint(h);
            }
        }
    }
}

impl FaultPlan {
    /// Result-store fingerprint hook: a fault plan perturbs the
    /// microarchitectural stats, so two runs with different plans must
    /// never share a cache entry (rates hash by exact IEEE-754 bits).
    pub fn fingerprint(&self, h: &mut Fnv64) {
        let FaultPlan {
            seed,
            abort_episode,
            poison_lanes,
            drop_prefetch,
            delay_prefetch,
            force_early_exit,
        } = self;
        h.write_str("FaultPlan");
        h.write_u64(*seed);
        for v in [abort_episode, poison_lanes, drop_prefetch, delay_prefetch, force_early_exit] {
            h.write_f64(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let c = CoreConfig::table1();
        assert_eq!(c.width, 5);
        assert_eq!(c.rob, 350);
        assert_eq!(c.iq, 128);
        assert_eq!(c.lq, 128);
        assert_eq!(c.sq, 72);
        assert_eq!(c.frontend_depth, 15);
        assert_eq!(c.int_regs, 256);
        assert_eq!(c.fu.int_alu, 4);
        assert_eq!(c.lat.int_div, 18);
        assert_eq!(c.lat.fp_mul, 5);
    }

    #[test]
    fn rob_sweep_changes_only_rob() {
        let c = CoreConfig::with_rob(128);
        assert_eq!(c.rob, 128);
        assert_eq!(c.iq, 128);
        assert_eq!(c.sq, 72);
    }

    #[test]
    fn scaled_sweep_scales_backend() {
        let c = CoreConfig::with_rob_scaled(700);
        assert_eq!(c.rob, 700);
        assert_eq!(c.iq, 256);
        assert_eq!(c.lq, 256);
        assert_eq!(c.sq, 144);
        let small = CoreConfig::with_rob_scaled(128);
        assert!(small.iq < 128 && small.iq >= 8);
    }

    #[test]
    fn fingerprints_separate_configs_and_are_stable_in_process() {
        let fp = |c: &CoreConfig, r: &RunaheadConfig| {
            let mut h = Fnv64::new();
            c.fingerprint(&mut h);
            r.fingerprint(&mut h);
            h.finish()
        };
        let base = fp(&CoreConfig::table1(), &RunaheadConfig::none());
        assert_eq!(base, fp(&CoreConfig::table1(), &RunaheadConfig::none()), "deterministic");
        assert_ne!(base, fp(&CoreConfig::with_rob(128), &RunaheadConfig::none()));
        assert_ne!(base, fp(&CoreConfig::table1(), &RunaheadConfig::vector()));
        // Every runahead knob must separate fingerprints.
        let variants = [
            RunaheadConfig { vr_lanes: 16, ..RunaheadConfig::vector() },
            RunaheadConfig { eager_trigger: true, ..RunaheadConfig::vector() },
            RunaheadConfig { termination_slack: Some(64), ..RunaheadConfig::vector() },
            RunaheadConfig { termination_slack: Some(65), ..RunaheadConfig::vector() },
            RunaheadConfig { vir_pipelining: false, ..RunaheadConfig::vector() },
            RunaheadConfig { fault_plan: Some(FaultPlan::chaos(1)), ..RunaheadConfig::vector() },
            RunaheadConfig { fault_plan: Some(FaultPlan::chaos(2)), ..RunaheadConfig::vector() },
            RunaheadConfig::vector(),
        ];
        let mut seen: Vec<u64> = variants.iter().map(|r| fp(&CoreConfig::table1(), r)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), variants.len(), "all variants fingerprint distinctly");
    }

    #[test]
    fn runahead_defaults() {
        let r = RunaheadConfig::vector();
        assert_eq!(r.kind, RunaheadKind::Vector);
        assert_eq!(r.vr_lanes, 64);
        assert!(!r.eager_trigger);
        assert_eq!(RunaheadConfig::none().kind, RunaheadKind::None);
    }
}
