//! Multi-core chip points for the campaign engine (DESIGN.md §16).
//!
//! A [`ChipPoint`] is one multi-core simulation: a [`ChipConfig`]
//! (core count, LLC banking), one core/memory configuration shared by
//! every core, and one workload + runahead config per core slot. It
//! flows through the *same* engine machinery as a single-core
//! [`crate::CampaignPoint`] — dedup, deadlines, poison, resumability —
//! via the [`SweepPoint`] impl below.
//!
//! Storage: a chip point's whole result ([`ChipRun`]: every core's
//! stats and the chip-level contention counters) is one record under
//! [`ChipPoint::key`] in the store's `records/`, written by
//! [`ResultStore::save_chip`] in one atomic publish — a campaign killed
//! mid-save leaves the point stored whole or not at all. A record whose
//! per-core count differs from the point's slot count is corrupt
//! ([`ResultStore::load_chip`] quarantines it and misses).

use std::sync::Arc;

use vr_chip::{Chip, ChipConfig, ChipRun, CoreSlot};
use vr_core::{CoreConfig, RunaheadConfig, SimError};
use vr_mem::MemConfig;
use vr_obs::Fnv64;
use vr_workloads::Workload;

use crate::engine::{ExecCtx, Executor, SimExecutor, SweepPoint};
use crate::fingerprint::{PointKey, CODE_SALT};
use crate::store::ResultStore;

/// One core's share of a chip point: which workload it runs and with
/// which runahead configuration (heterogeneous placements — e.g. VR on
/// even cores only — are just different slot vectors).
#[derive(Clone, Debug)]
pub struct ChipSlot {
    /// The workload this core executes.
    pub workload: Arc<Workload>,
    /// The runahead configuration for this core.
    pub ra: RunaheadConfig,
}

/// One multi-core simulation point of a campaign.
#[derive(Clone, Debug)]
pub struct ChipPoint {
    /// Human-readable name for progress lines and failure reports
    /// (e.g. `"fig-chip/4x-bfs/vr"`). Not part of the fingerprint.
    pub label: String,
    /// Chip topology (core count, LLC banking, shared MSHR budget).
    pub chip: ChipConfig,
    /// Core configuration, shared by every core.
    pub core: CoreConfig,
    /// Memory-system configuration, shared by every core.
    pub mem: MemConfig,
    /// Per-core workload/runahead slots (`slots.len() == chip.cores`).
    pub slots: Vec<ChipSlot>,
    /// Per-core instruction budget.
    pub max_insts: u64,
}

impl ChipPoint {
    /// The content address of this point (see [`chip_point_key`]).
    pub fn key(&self) -> PointKey {
        chip_point_key(&self.chip, &self.core, &self.mem, &self.slots, self.max_insts)
    }
}

/// Fingerprints one chip point: the chip topology, the shared
/// core/memory configuration, every slot's workload *content* and
/// runahead config (order-sensitive — placement matters under
/// contention), the budget, and [`CODE_SALT`]. The same hashing
/// discipline as [`crate::point_key`].
pub fn chip_point_key(
    chip: &ChipConfig,
    core: &CoreConfig,
    mem: &MemConfig,
    slots: &[ChipSlot],
    max_insts: u64,
) -> PointKey {
    let mut h = Fnv64::new();
    h.write_str("vr-chip-point");
    h.write_u64(CODE_SALT);
    chip.fingerprint(&mut h);
    core.fingerprint(&mut h);
    mem.fingerprint(&mut h);
    h.write_u64(slots.len() as u64);
    for s in slots {
        let w = &s.workload;
        h.write_str(&w.name);
        h.write_str(w.program.listing());
        h.write_u64(w.memory.digest());
        h.write_u64(w.init_regs.len() as u64);
        for &(r, v) in &w.init_regs {
            h.write_u64(r.index() as u64);
            h.write_u64(v);
        }
        s.ra.fingerprint(&mut h);
    }
    h.write_u64(max_insts);
    PointKey(h.finish())
}

impl SweepPoint for ChipPoint {
    type Output = ChipRun;

    fn key(&self) -> PointKey {
        ChipPoint::key(self)
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn load(&self, store: &ResultStore, key: PointKey) -> Option<ChipRun> {
        store.load_chip(key, self.slots.len())
    }

    fn save(&self, store: &ResultStore, key: PointKey, out: &ChipRun) -> std::io::Result<()> {
        store.save_chip(key, &self.label, out)
    }
}

impl Executor<ChipPoint> for SimExecutor {
    fn execute(&self, p: &ChipPoint, ctx: &ExecCtx) -> Result<ChipRun, SimError> {
        let slots = p
            .slots
            .iter()
            .map(|s| CoreSlot {
                ra: s.ra.clone(),
                program: s.workload.program.clone(),
                memory: s.workload.memory.clone(),
                init_regs: s.workload.init_regs.clone(),
            })
            .collect();
        let mut chip = Chip::new(p.chip, p.core.clone(), p.mem.clone(), slots);
        if let Some(at) = ctx.deadline {
            chip.set_deadline(at);
        }
        chip.try_run(p.max_insts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_campaign, CancelToken, EngineConfig};
    use vr_workloads::{hpcdb, Scale};

    fn tmp_store(tag: &str) -> (std::path::PathBuf, ResultStore) {
        let dir = std::env::temp_dir().join(format!(
            "vr-chip-point-test-{tag}-{}-{}",
            std::process::id(),
            crate::test_nonce()
        ));
        (dir.clone(), ResultStore::open(&dir).expect("open store"))
    }

    fn point(cores: usize, insts: u64) -> ChipPoint {
        let w = Arc::new(hpcdb::kangaroo(Scale::Test));
        ChipPoint {
            label: format!("chip/{cores}x"),
            chip: ChipConfig::with_cores(cores),
            core: CoreConfig::table1(),
            mem: MemConfig::tiny_for_tests(),
            slots: (0..cores)
                .map(|i| ChipSlot {
                    workload: Arc::clone(&w),
                    ra: if i % 2 == 0 { RunaheadConfig::vector() } else { RunaheadConfig::none() },
                })
                .collect(),
            max_insts: insts,
        }
    }

    #[test]
    fn chip_key_separates_topology_placement_and_budget() {
        let base = point(2, 1000);
        assert_eq!(base.key(), point(2, 1000).key(), "deterministic");
        assert_ne!(base.key(), point(4, 1000).key(), "core count participates");
        assert_ne!(base.key(), point(2, 999).key(), "budget participates");
        let mut banks = point(2, 1000);
        banks.chip.llc_banks += 1;
        assert_ne!(base.key(), banks.key(), "chip topology participates");
        let mut swapped = point(2, 1000);
        swapped.slots.swap(0, 1);
        assert_ne!(base.key(), swapped.key(), "placement order participates");
    }

    /// The key of a 2-slot chip point, pinned for the same reason as
    /// `point_keys_are_pinned`: a stored chip record is found by it.
    #[test]
    fn chip_point_key_is_pinned() {
        assert_eq!(point(2, 1000).key(), PointKey(0x908f_0852_2612_bbfa));
    }

    #[test]
    fn chip_point_round_trips_through_the_store() {
        let (dir, store) = tmp_store("roundtrip");
        let p = point(2, 400);
        let key = p.key();
        assert!(!store.contains(key));
        assert!(p.load(&store, key).is_none());

        let run = SimExecutor.execute(&p, &ExecCtx { deadline: None }).expect("chip runs");
        assert_eq!(run.per_core.len(), 2);
        p.save(&store, key, &run).expect("saves");
        assert!(store.contains(key));
        assert_eq!(store.len().unwrap(), 1, "one record per chip point");
        assert_eq!(p.load(&store, key), Some(run.clone()));

        // A record holding fewer cores than the point has slots is
        // corrupt: a quarantined miss, never a partial result.
        let short = ChipRun { per_core: run.per_core[..1].to_vec(), chip: run.chip };
        p.save(&store, key, &short).expect("saves");
        assert!(p.load(&store, key).is_none());
        assert!(!store.contains(key));
        assert_eq!(store.counters().quarantined, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chip_points_drive_through_the_generic_engine_and_resume() {
        let (dir, store) = tmp_store("engine");
        let points = vec![point(1, 300), point(2, 300)];
        let cfg = EngineConfig { threads: 1, ..EngineConfig::default() };
        let out = run_campaign(&points, &store, &SimExecutor, &cfg, &CancelToken::new(), None);
        assert_eq!((out.computed, out.cache_hits), (2, 0));
        assert!(out.poisoned.is_empty() && out.failed.is_empty());

        let again = run_campaign(&points, &store, &SimExecutor, &cfg, &CancelToken::new(), None);
        assert_eq!((again.computed, again.cache_hits), (0, 2), "resume is pure cache hits");

        // The store stays maintainable with chip records present.
        let rep = store.verify().unwrap();
        assert!(rep.clean(), "{rep:?}");
        assert_eq!(rep.ok, 2, "one record per chip point");
        std::fs::remove_dir_all(&dir).ok();
    }
}
