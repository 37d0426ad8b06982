//! The point list of every simulating figure.
//!
//! A figure *is* its point list: one function here enumerates, in a
//! fixed order, every simulation point the figure needs, and that one
//! list is what `experiments <figure>` sweeps and renders, what
//! `campaign run --figure <figure>` (or a `campaign serve` manifest)
//! drives through the result store. There is no second enumeration to
//! drift from, so a store warmed by
//! a campaign serves the figure with zero misses by construction.
//!
//! The order is the contract between a figure's list and its render in
//! `experiments.rs`, which reads the outputs positionally — each
//! function documents its layout, and the shared sweep axes
//! ([`ROBS`], [`LANES`], [`MSHRS`], the variant tables) live here so
//! both sides read the same constants.

use std::cell::OnceCell;
use std::sync::Arc;

use vr_campaign::{CampaignPoint, ChipPoint, ChipSlot};
use vr_chip::ChipConfig;
use vr_core::{CoreConfig, RunaheadConfig};
use vr_mem::MemConfig;
use vr_workloads::{gap_suite, graph::GraphPreset, Scale, Workload};

use crate::{quick_workload_set, sweep_workload_set, workload_set, Technique};

/// The inputs that determine a figure's simulation points (the
/// campaign-relevant subset of the CLI options).
#[derive(Clone, Debug)]
pub struct FigureOpts {
    /// Instruction budget per run (`--insts`).
    pub insts: u64,
    /// Graph presets for the GAP kernels (`--all-inputs`).
    pub presets: Vec<GraphPreset>,
    /// Workload scale (`--quick` selects [`Scale::Test`]).
    pub scale: Scale,
}

/// The workload sets the figures draw their points from, each
/// generated the first time a figure asks for it — so one `Sets`
/// shared across `all` (or a `campaign run --figure all`) builds each
/// set once, and a single figure never builds the set it does not use.
pub struct Sets {
    opts: FigureOpts,
    full: OnceCell<Vec<Arc<Workload>>>,
    sweep: OnceCell<Vec<Arc<Workload>>>,
}

impl Sets {
    /// No set is generated until it is asked for.
    pub fn new(opts: FigureOpts) -> Sets {
        Sets { opts, full: OnceCell::new(), sweep: OnceCell::new() }
    }

    /// The options the sets are generated from.
    pub fn opts(&self) -> &FigureOpts {
        &self.opts
    }

    /// The evaluation set: GAP kernels over the selected presets plus
    /// the hpc-db benchmarks (the small-input set under `--quick`).
    pub fn full(&self) -> &[Arc<Workload>] {
        self.full.get_or_init(|| {
            arcs(match self.opts.scale {
                Scale::Paper => workload_set(&self.opts.presets),
                Scale::Test => quick_workload_set(),
            })
        })
    }

    /// The smaller representative subset the parameter sweeps use
    /// ([`sweep_workload_set`]).
    pub fn sweep(&self) -> &[Arc<Workload>] {
        self.sweep.get_or_init(|| arcs(sweep_workload_set(self.opts.scale)))
    }
}

fn arcs(set: Vec<Workload>) -> Vec<Arc<Workload>> {
    set.into_iter().map(Arc::new).collect()
}

fn point(
    fig: &str,
    w: &Arc<Workload>,
    variant: &str,
    core: CoreConfig,
    mem: MemConfig,
    ra: RunaheadConfig,
    insts: u64,
) -> CampaignPoint {
    CampaignPoint {
        label: format!("{fig}/{}/{variant}", w.name),
        workload: Arc::clone(w),
        core,
        mem,
        ra,
        max_insts: insts,
    }
}

fn tech_point(fig: &str, w: &Arc<Workload>, tech: Technique, insts: u64) -> CampaignPoint {
    let (mem, ra) = tech.configure();
    point(fig, w, tech.label(), CoreConfig::table1(), mem, ra, insts)
}

/// Per workload of `set`: `techs`, in order, on the Table 1 core.
fn techniques(
    fig: &str,
    set: &[Arc<Workload>],
    techs: &[Technique],
    insts: u64,
) -> Vec<CampaignPoint> {
    set.iter()
        .flat_map(|w| techs.iter().map(move |&tech| tech_point(fig, w, tech, insts)))
        .collect()
}

/// Per workload of the sweep set: the baseline, then each named
/// runahead variant on the Table 1 core and memory system.
fn baseline_then_variants(
    fig: &str,
    s: &Sets,
    variants: &[(impl AsRef<str>, RunaheadConfig)],
) -> Vec<CampaignPoint> {
    let insts = s.opts.insts;
    let mut pts = Vec::new();
    for w in s.sweep() {
        pts.push(tech_point(fig, w, Technique::Baseline, insts));
        for (name, ra) in variants {
            let (core, mem) = (CoreConfig::table1(), MemConfig::table1());
            pts.push(point(fig, w, name.as_ref(), core, mem, ra.clone(), insts));
        }
    }
    pts
}

/// `table2`: per graph preset ([`GraphPreset::ALL`] order), its GAP
/// kernels on the baseline at half budget (the MPKI census).
pub fn table2(s: &Sets) -> Vec<CampaignPoint> {
    GraphPreset::ALL
        .into_iter()
        .flat_map(|p| {
            techniques(
                "table2",
                &arcs(gap_suite(s.opts.scale, p)),
                &[Technique::Baseline],
                s.opts.insts / 2,
            )
        })
        .collect()
}

/// `fig-perf`: per workload of the full set, [`Technique::HEADLINE`]
/// (baseline first).
pub fn fig_perf(s: &Sets) -> Vec<CampaignPoint> {
    techniques("fig-perf", s.full(), &Technique::HEADLINE, s.opts.insts)
}

/// The ROB sizes `fig-rob` sweeps; 350 is the normalisation baseline.
pub const ROBS: [usize; 5] = [128, 192, 224, 350, 512];

/// `fig-rob`: per ROB size of [`ROBS`], per workload of the sweep set,
/// OoO then VR on the core scaled to that ROB.
pub fn fig_rob(s: &Sets) -> Vec<CampaignPoint> {
    let mut pts = Vec::new();
    for rob in ROBS {
        for w in s.sweep() {
            let core = CoreConfig::with_rob_scaled(rob);
            for tech in [Technique::Baseline, Technique::Vr] {
                let (mem, ra) = tech.configure();
                let variant = format!("rob{rob}/{}", tech.label());
                pts.push(point("fig-rob", w, &variant, core.clone(), mem, ra, s.opts.insts));
            }
        }
    }
    pts
}

/// `fig-mlp`: per workload of the full set, baseline then VR.
pub fn fig_mlp(s: &Sets) -> Vec<CampaignPoint> {
    techniques("fig-mlp", s.full(), &[Technique::Baseline, Technique::Vr], s.opts.insts)
}

/// `fig-accuracy`: per workload of the full set, baseline then VR.
pub fn fig_accuracy(s: &Sets) -> Vec<CampaignPoint> {
    techniques("fig-accuracy", s.full(), &[Technique::Baseline, Technique::Vr], s.opts.insts)
}

/// `fig-timeliness`: per workload of the full set, VR.
pub fn fig_timeliness(s: &Sets) -> Vec<CampaignPoint> {
    techniques("fig-timeliness", s.full(), &[Technique::Vr], s.opts.insts)
}

/// The vectorisation degrees `fig-veclen` sweeps.
pub const LANES: [usize; 4] = [16, 32, 64, 128];

/// `fig-veclen`: per workload of the sweep set, the baseline then VR
/// at each width of [`LANES`].
pub fn fig_veclen(s: &Sets) -> Vec<CampaignPoint> {
    let variants = LANES
        .map(|k| (format!("K{k}"), RunaheadConfig { vr_lanes: k, ..RunaheadConfig::vector() }));
    baseline_then_variants("fig-veclen", s, &variants)
}

/// `fig-interval`: per workload of the full set, baseline then VR.
pub fn fig_interval(s: &Sets) -> Vec<CampaignPoint> {
    techniques("fig-interval", s.full(), &[Technique::Baseline, Technique::Vr], s.opts.insts)
}

/// The columns of `fig-ablation`: the paper's VR, VR without VIR
/// pipelining, and the two extensions (DESIGN.md §6) each on its own.
/// The labels are the figure's column headers and name its `hmean_*`
/// metrics, so this list is the only enumeration of the columns.
pub fn ablation_variants() -> [(&'static str, RunaheadConfig); 4] {
    [
        ("VR", RunaheadConfig::vector()),
        ("no-pipe", RunaheadConfig { vir_pipelining: false, ..RunaheadConfig::vector() }),
        ("+bounded", RunaheadConfig { termination_slack: Some(64), ..RunaheadConfig::vector() }),
        ("+eager", RunaheadConfig { eager_trigger: true, ..RunaheadConfig::vector() }),
    ]
}

/// `fig-ablation`: per workload of the sweep set, the baseline then
/// [`ablation_variants`].
pub fn fig_ablation(s: &Sets) -> Vec<CampaignPoint> {
    baseline_then_variants("fig-ablation", s, &ablation_variants())
}

/// The MSHR counts `fig-mshr` sweeps.
pub const MSHRS: [usize; 4] = [8, 16, 24, 48];

/// `fig-mshr`: per workload of the sweep set, per count of [`MSHRS`],
/// OoO then VR with that many MSHRs.
pub fn fig_mshr(s: &Sets) -> Vec<CampaignPoint> {
    let mut pts = Vec::new();
    for w in s.sweep() {
        for m in MSHRS {
            let mem = MemConfig { mshrs: m, ..MemConfig::table1() };
            for (tech, ra) in [("OoO", RunaheadConfig::none()), ("VR", RunaheadConfig::vector())] {
                let variant = format!("m{m}/{tech}");
                let core = CoreConfig::table1();
                pts.push(point("fig-mshr", w, &variant, core, mem.clone(), ra, s.opts.insts));
            }
        }
    }
    pts
}

/// Core counts the chip figure sweeps.
pub const CHIP_CORE_COUNTS: &[usize] = &[1, 2, 4, 8];

/// `fig-chip`: every core count in [`CHIP_CORE_COUNTS`] × placement
/// (homogeneous BFS, or a mixed BFS/camel placement for N ≥ 2) × OoO
/// then VR. Chip points are a separate type from [`CampaignPoint`]s
/// and are deliberately *not* part of `all` (a chip point costs N
/// single-core budgets).
pub fn fig_chip(s: &Sets) -> Vec<ChipPoint> {
    let o = &s.opts;
    let g = GraphPreset::Kron.generate(o.scale);
    let bfs = Arc::new(vr_workloads::gap::bfs_on(&g, GraphPreset::Kron));
    let camel = Arc::new(vr_workloads::hpcdb::camel(o.scale));
    let slot = |w: &Arc<Workload>, vr: bool| ChipSlot {
        workload: Arc::clone(w),
        ra: if vr { RunaheadConfig::vector() } else { RunaheadConfig::none() },
    };
    let mut pts = Vec::new();
    for &n in CHIP_CORE_COUNTS {
        // Placement is a slot vector: homogeneous (every core runs
        // BFS) always; mixed (BFS on even cores, camel on odd) only
        // once there is more than one core.
        let placements: Vec<(&str, Vec<&Arc<Workload>>)> = if n == 1 {
            vec![("homog", vec![&bfs; n])]
        } else {
            let mixed = (0..n).map(|i| if i % 2 == 0 { &bfs } else { &camel }).collect();
            vec![("homog", vec![&bfs; n]), ("mixed", mixed)]
        };
        for (placement, ws) in placements {
            for (tech, vr) in [("OoO", false), ("VR", true)] {
                pts.push(ChipPoint {
                    label: format!("fig-chip/{placement}/n{n}/{tech}"),
                    chip: ChipConfig::with_cores(n),
                    core: CoreConfig::table1(),
                    mem: MemConfig::table1(),
                    slots: ws.iter().map(|w| slot(w, vr)).collect(),
                    max_insts: o.insts,
                });
            }
        }
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(insts: u64) -> Sets {
        Sets::new(FigureOpts { insts, presets: vec![GraphPreset::Kron], scale: Scale::Test })
    }

    #[test]
    fn sets_are_generated_once_and_only_on_demand() {
        let s = quick(10_000);
        assert!(s.full.get().is_none() && s.sweep.get().is_none());
        let _ = fig_mshr(&s);
        assert!(s.full.get().is_none(), "a sweep-set figure must not build the full set");
        let first = s.sweep().as_ptr();
        let _ = fig_veclen(&s);
        assert_eq!(s.sweep().as_ptr(), first, "one generation serves every figure");
    }

    #[test]
    fn layouts_match_their_documentation() {
        let s = quick(10_000);
        let (nf, ns) = (s.full().len(), s.sweep().len());
        assert_eq!(fig_perf(&s).len(), nf * Technique::HEADLINE.len());
        assert_eq!(fig_timeliness(&s).len(), nf);
        assert_eq!(fig_rob(&s).len(), ROBS.len() * ns * 2);
        assert_eq!(fig_veclen(&s).len(), ns * (1 + LANES.len()));
        assert_eq!(fig_mshr(&s).len(), ns * MSHRS.len() * 2);
        let rob = fig_rob(&s);
        assert!(rob[0].label.ends_with("/rob128/OoO") && rob[1].label.ends_with("/rob128/VR"));
        assert_eq!(rob[0].workload.name, s.sweep()[0].name);
        let veclen = fig_veclen(&s);
        assert!(veclen[0].label.ends_with("/OoO") && veclen[2].label.ends_with("/K32"));
        assert_eq!(table2(&s).len() % GraphPreset::ALL.len(), 0);
    }

    #[test]
    fn chip_points_pair_up_and_address_distinct_records() {
        let pts = fig_chip(&quick(10_000));
        // N=1: homog × {OoO, VR}; N∈{2,4,8}: {homog, mixed} × {OoO, VR}.
        assert_eq!(pts.len(), 2 + 3 * 4);
        let mut labels: Vec<&str> = pts.iter().map(|p| p.label.as_str()).collect();
        assert!(labels.iter().all(|l| l.starts_with("fig-chip/")));
        labels.sort_unstable();
        let before = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), before, "duplicate chip labels");
        for p in &pts {
            assert_eq!(p.slots.len(), p.chip.cores, "slot count matches topology");
        }
        // Keys separate: every point addresses a distinct record.
        let mut keys: Vec<u64> = pts.iter().map(|p| p.key().0).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), before);
    }

    #[test]
    fn budget_participates_in_enumeration() {
        let (a, b) = (fig_mshr(&quick(10_000)), fig_mshr(&quick(20_000)));
        assert_eq!(a.len(), b.len());
        assert_ne!(a[0].key(), b[0].key(), "different budgets must address different records");
        let (a, b) = (fig_chip(&quick(10_000)), fig_chip(&quick(20_000)));
        assert_ne!(a[0].key(), b[0].key(), "different budgets must address different records");
    }
}
