//! Multi-core chip points for the campaign engine (DESIGN.md §16).
//!
//! A [`ChipPoint`] is one multi-core simulation: a [`ChipConfig`]
//! (core count, LLC banking), one core/memory configuration shared by
//! every core, and one workload + runahead config per core slot. It
//! flows through the *same* engine machinery as a single-core
//! [`crate::CampaignPoint`] — dedup, retries, deadlines, poison,
//! sharding — via the [`SweepPoint`] impl below.
//!
//! Storage: a chip point's result ([`ChipRun`]) is decomposed into
//! ordinary per-core `SimStats` records (under derived keys,
//! [`chip_core_key`]) plus one chip-level contention record under the
//! store's `chip/` directory ([`ResultStore::save_chip`]). A load is a
//! cache hit only when *every* piece is present and valid, so a
//! campaign killed between the per-core saves and the chip save simply
//! recomputes the point.

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
        h.write_str(&w.program.to_listing());
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

/// The derived key under which core `i`'s `SimStats` of chip point
/// `base` is stored (an ordinary `records/` record — the chip-level
/// counters live separately under `chip/`).
pub fn chip_core_key(base: PointKey, core: usize) -> PointKey {
    let mut h = Fnv64::new();
    h.write_str("vr-chip-core");
    h.write_u64(base.0);
    h.write_u64(core as u64);
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

    fn load(&self, store: &ResultStore, base: PointKey) -> Option<ChipRun> {
        let chip = store.load_chip(base)?;
        let per_core = (0..self.slots.len())
            .map(|i| store.load(chip_core_key(base, i)))
            .collect::<Option<Vec<_>>>()?;
        Some(ChipRun { per_core, chip })
    }

    fn save(&self, store: &ResultStore, base: PointKey, out: &ChipRun) -> std::io::Result<()> {
        for (i, stats) in out.per_core.iter().enumerate() {
            store.save(chip_core_key(base, i), &format!("{}#core{i}", self.label), stats)?;
        }
        // Chip record last: its presence marks the point complete
        // (`load` checks it first), so a crash mid-save reads as a
        // plain miss, never a torn result.
        store.save_chip(base, &self.label, &out.chip)
    }

    fn present(&self, store: &ResultStore, base: PointKey) -> bool {
        store.contains_chip(base)
            && (0..self.slots.len()).all(|i| store.contains(chip_core_key(base, i)))
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
        chip.set_stop_flag(ctx.stop.clone());
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
        assert_ne!(
            chip_core_key(base.key(), 0),
            chip_core_key(base.key(), 1),
            "per-core records never collide"
        );
        assert_ne!(chip_core_key(base.key(), 0), base.key());
    }

    #[test]
    fn chip_point_round_trips_through_the_store() {
        let (dir, store) = tmp_store("roundtrip");
        let p = point(2, 400);
        let key = p.key();
        assert!(!p.present(&store, key));
        assert!(p.load(&store, key).is_none());

        let run = SimExecutor
            .execute(&p, &ExecCtx { attempt: 0, stop: vr_core::StopFlag::new() })
            .expect("chip runs");
        assert_eq!(run.per_core.len(), 2);
        p.save(&store, key, &run).expect("saves");
        assert!(p.present(&store, key));
        assert_eq!(p.load(&store, key), Some(run.clone()));

        // Losing one per-core record degrades to a miss, not a torn
        // partial result.
        let core0 = store.records_dir().join(format!("{}.json", chip_core_key(key, 0).hex()));
        std::fs::remove_file(&core0).unwrap();
        assert!(p.load(&store, key).is_none());
        assert!(!p.present(&store, key));
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
        assert_eq!(rep.ok, 3 + 2, "3 per-core records + 2 chip records");
        std::fs::remove_dir_all(&dir).ok();
    }
}
