//! The metric tables (`BENCHMARK.json` is checked against them by a
//! test) and the report one run produces.

use crate::stats;

/// The 13 programs every workload draws from, in suite order.
pub const PROGRAMS: [&str; 13] = [
    "bc_KR",
    "bfs_KR",
    "cc_KR",
    "pr_KR",
    "sssp_KR",
    "Camel",
    "Graph500",
    "HJ2",
    "HJ8",
    "Kangaroo",
    "NAS-CG",
    "NAS-IS",
    "RandomAccess",
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which it may worsen before the change counts as a regression.
    pub bound: Option<f64>,
}

/// The end-to-end metrics — what a user of the simulator sees —
/// reported by every workload from an untraced run. Host time unless
/// the unit says simulated. Each bound is about three times the widest
/// spread (IQR over median of ten runs on ten seeds) the metric showed
/// on any workload on the 2-core sandbox; see the README.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    [
        ("setup_s", "s", Lower, 0.25),
        ("sim_kips", "kinst/s", Higher, 0.20),
        ("sim_ipc_hmean", "inst/cycle", Higher, 0.02),
        ("cold_points_per_s", "1/s", Higher, 0.25),
        ("warm_points_per_s", "1/s", Higher, 0.20),
        ("peak_rss_mb", "MB", Lower, 0.05),
    ]
    .map(|(name, unit, better, bound)| MetricDef {
        name: name.to_owned(),
        unit,
        better,
        bound: Some(bound),
    })
    .into()
}

/// The per-layer metrics, from a traced run; no bounds. A workload
/// that does not exercise a layer reports 0 for that layer's metrics
/// (`-` in the printed table).
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut v: Vec<MetricDef> = Vec::new();
    let mut add = |name: &str, unit, better| {
        v.push(MetricDef { name: name.to_owned(), unit, better, bound: None });
    };
    add("workloads.gen_s", "s", Lower);
    add("workloads.image_mb", "MB", Lower);
    add("workloads.clone_ms_p50", "ms", Lower);
    add("isa.emulate_ns_per_inst", "ns", Lower);
    add("isa.digest_ms_p50", "ms", Lower);
    add("frontend.tage_ns_per_branch", "ns", Lower);
    add("frontend.mispredict_frac", "frac", Lower);
    add("mem.access_ns_per_ref", "ns", Lower);
    add("mem.shared_access_ns_per_line", "ns", Lower);
    add("mem.llc_mpki", "1/kinst", Lower);
    add("mem.l1d_miss_frac", "frac", Lower);
    add("mem.mshr_avg_occupancy", "count", Higher);
    add("mem.pf_dropped_mshr", "count", Lower);
    add("mem.pf_useful_frac", "frac", Higher);
    add("core.new_ms_p50", "ms", Lower);
    add("core.run_ns_per_cycle", "ns", Lower);
    add("core.run_ns_per_inst", "ns", Lower);
    for p in PROGRAMS {
        add(&format!("core.kips.{p}"), "kinst/s", Higher);
    }
    add("core.point_ms_p50", "ms", Lower);
    add("core.point_ms_ptail", "ms", Lower);
    add("core.first_pass_ratio", "ratio", Lower);
    add("core.rob_full_stall_frac", "frac", Lower);
    add("core.commit_stall_frac", "frac", Lower);
    add("core.vr_episodes", "count", Higher);
    add("core.vr_lanes_per_episode", "count", Higher);
    add("core.vr_cycles_frac", "frac", Lower);
    add("core.vr_delayed_term_frac", "frac", Lower);
    add("core.vr_ooo_kips_ratio_hmean", "ratio", Higher);
    add("model.vr_speedup_hmean", "ratio", Higher);
    add("model.vr_speedup_err", "frac", Lower);
    add("chip.new_ms_p50", "ms", Lower);
    add("chip.run_ns_per_core_cycle", "ns", Lower);
    for n in ["n2", "n4", "n8"] {
        add(&format!("chip.agg_kips.{n}"), "kinst/s", Higher);
    }
    for n in ["n2", "n4", "n8"] {
        add(&format!("chip.percore_kips.{n}"), "kinst/s", Higher);
    }
    add("chip.lockstep_cost_ratio.n4", "ratio", Lower);
    add("chip.ff_cycles_skipped_frac", "frac", Higher);
    add("chip.broker_installs_per_kcycle", "1/kcycle", Lower);
    add("chip.horizon_blocks_per_kcycle", "1/kcycle", Lower);
    add("chip.par_cycles", "count", Higher);
    add("chip.bank_conflicts_per_kinst", "1/kinst", Lower);
    add("chip.arb_stall_frac", "frac", Lower);
    add("campaign.key_ms_p50", "ms", Lower);
    add("campaign.key_ms_ptail", "ms", Lower);
    add("campaign.execute_ms_p50", "ms", Lower);
    add("campaign.engine_self_ms_per_point", "ms", Lower);
    add("campaign.save_us_p50", "us", Lower);
    add("campaign.save_us_p99", "us", Lower);
    add("campaign.load_us_p50", "us", Lower);
    add("campaign.load_us_p99", "us", Lower);
    add("campaign.open_ms", "ms", Lower);
    add("campaign.verify_ms", "ms", Lower);
    add("campaign.hits", "count", Higher);
    add("campaign.computed", "count", Lower);
    add("campaign.retries", "count", Lower);
    add("campaign.failed", "count", Lower);
    add("pool.dispatch_us_p50", "us", Lower);
    add("pool.speedup_t2", "ratio", Higher);
    add("trace_overhead_frac", "frac", Lower);
    v
}

/// One measured value with how it was sampled.
#[derive(Clone, Debug)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    /// Repetitions behind `value`.
    pub n: usize,
    /// Inter-quartile range over those repetitions.
    pub iqr: Option<f64>,
    /// Free-form qualifier printed beside the value.
    pub note: String,
}

/// Everything one run of one workload found.
#[derive(Default, Debug)]
pub struct Report {
    pub metrics: Vec<Measured>,
    /// Operations attempted (one point, one repetition; one campaign
    /// point per run).
    pub attempted: u64,
    /// Operations that errored, panicked or produced a wrong output.
    pub failed: u64,
    /// What failed, for the printed report.
    pub failures: Vec<String>,
    /// FNV-1a over every simulated statistic, in point order.
    pub stats_fnv: u64,
    /// Context lines for the printed report.
    pub notes: Vec<String>,
    /// Traced ops whose child spans ran on several threads at once:
    /// their self times sum to CPU time, not to the op's wall time.
    pub concurrent_ops: Vec<u32>,
}

impl Report {
    pub fn new() -> Report {
        Report { stats_fnv: stats::FNV_OFFSET, ..Report::default() }
    }

    /// A value derived from `n` repetitions with a known spread.
    pub fn put(&mut self, name: &str, value: f64, n: usize, iqr: Option<f64>) -> &mut Measured {
        self.metrics.push(Measured { name: name.to_owned(), value, n, iqr, note: String::new() });
        self.metrics.last_mut().expect("just pushed")
    }

    /// The median of `samples` (with its count and IQR).
    pub fn put_median(&mut self, name: &str, samples: &[f64]) {
        if !samples.is_empty() {
            self.put(name, stats::median(samples), samples.len(), stats::iqr(samples));
        }
    }

    /// The highest percentile of `samples` with ten samples beyond it.
    pub fn put_tail(&mut self, name: &str, samples: &[f64]) {
        if let Some((p, v)) = stats::tail(samples) {
            self.put(name, v, samples.len(), None).note = format!("p{p}");
        }
    }

    /// A simulated count or ratio: repeats exactly, so no spread.
    pub fn put_sim(&mut self, name: &str, value: f64) {
        self.put(name, value, 1, None).note = "sim".to_owned();
    }

    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Folds a simulated result into `stats_fnv` through its `Debug`
    /// rendering, which names every field.
    pub fn fold_stats(&mut self, stats: &impl std::fmt::Debug) {
        self.stats_fnv = stats::fnv1a(self.stats_fnv, format!("{stats:?}").as_bytes());
    }

    /// Counts one attempted operation and hands back what it produced;
    /// `Err` marks it failed.
    pub fn attempt<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome
            .map_err(|why| {
                self.failed += 1;
                self.failures.push(format!("{what}: {why}"));
            })
            .ok()
    }

    /// Counts one operation that failed before it could produce anything.
    pub fn fail(&mut self, what: &str, why: impl std::fmt::Display) {
        self.attempt::<()>(what, Err(why.to_string()));
    }

    /// Fails the run over a condition that is no single operation's.
    pub fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            self.fail(what, "check failed");
        }
    }
}
