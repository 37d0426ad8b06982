//! # vr-bench
//!
//! The experiment harness that regenerates every table and figure of
//! the Vector Runahead evaluation (see DESIGN.md §5 for the index).
//!
//! The `experiments` binary drives it:
//!
//! ```text
//! cargo run --release -p vr-bench --bin experiments -- fig-perf
//! cargo run --release -p vr-bench --bin experiments -- all --insts 300000
//! ```

pub mod alloc;
pub mod cache;
pub mod micro;
pub mod points;
pub mod report;

use vr_campaign::{
    run_points, CancelToken, EngineConfig, Executor, ProgressEvent, ProgressKind, ResultStore,
    SimExecutor, SweepPoint,
};
use vr_core::{harmonic_mean, CoreConfig, RunaheadConfig, RunaheadKind, SimStats, Simulator};
use vr_mem::MemConfig;
use vr_workloads::{gap_suite, graph::GraphPreset, hpcdb_suite, Scale, Workload};

/// Default worker-thread count for [`sweep`]: every available core
/// (the sweep points are CPU-bound and share nothing).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Runs a figure's point list — the one way the harness runs one:
/// through the campaign engine on `threads` threads, against `store`
/// when there is one (the CLI passes [`cache::active`]), one attempt
/// per point. Returns one output per point, in order; `None` is a
/// HOLE — a point an earlier campaign poisoned, or one that failed now
/// and was poisoned for it — whose label is noted in [`cache::holes`].
///
/// Every point builds its own [`Simulator`] from cloned program and
/// memory state, and a stored result round-trips bit-identically, so
/// the outputs do not depend on `threads` or on what the store already
/// held.
///
/// # Panics
///
/// Without a store there is nowhere to record a failed simulation, so
/// its error panics.
pub fn sweep<P>(points: &[P], store: Option<&ResultStore>, threads: usize) -> Vec<Option<P::Output>>
where
    P: SweepPoint,
    SimExecutor: Executor<P>,
{
    let cfg = EngineConfig { threads, max_retries: 0, ..EngineConfig::default() };
    let progress = |ev: &ProgressEvent<'_>| {
        if ev.kind == ProgressKind::Computed {
            eprintln!("  [{}/{}] {}", ev.done, ev.total, ev.label);
        }
    };
    let (outcome, outputs) =
        run_points(points, store, &SimExecutor, &cfg, &CancelToken::new(), Some(&progress));
    if store.is_none() {
        if let Some((_, error)) = outcome.failed.first() {
            panic!("{error}");
        }
    }
    for (p, out) in points.iter().zip(&outputs) {
        if out.is_none() {
            cache::note_hole(p.label());
        }
    }
    outputs
}

/// The evaluated techniques, in the paper's presentation order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Technique {
    /// Baseline OoO core with the always-on stride prefetcher.
    Baseline,
    /// Precise Runahead Execution.
    Pre,
    /// Indirect memory prefetcher.
    Imp,
    /// Classic invalidation-based runahead (extra comparison point,
    /// not in the paper's headline figure).
    Classic,
    /// Vector Runahead — the paper's contribution.
    Vr,
    /// Perfect-prefetch upper bound.
    Oracle,
}

impl Technique {
    /// The five techniques of the paper's headline figure.
    pub const HEADLINE: [Technique; 5] =
        [Technique::Baseline, Technique::Pre, Technique::Imp, Technique::Vr, Technique::Oracle];

    /// Short label used in table headers.
    pub fn label(self) -> &'static str {
        match self {
            Technique::Baseline => "OoO",
            Technique::Pre => "PRE",
            Technique::Imp => "IMP",
            Technique::Classic => "RA",
            Technique::Vr => "VR",
            Technique::Oracle => "Oracle",
        }
    }

    /// Memory-system and runahead configuration for the technique.
    pub fn configure(self) -> (MemConfig, RunaheadConfig) {
        match self {
            Technique::Baseline => (MemConfig::table1(), RunaheadConfig::none()),
            Technique::Pre => (MemConfig::table1(), RunaheadConfig::of(RunaheadKind::Precise)),
            Technique::Imp => (MemConfig::table1_with_imp(), RunaheadConfig::none()),
            Technique::Classic => (MemConfig::table1(), RunaheadConfig::of(RunaheadKind::Classic)),
            Technique::Vr => (MemConfig::table1(), RunaheadConfig::vector()),
            Technique::Oracle => (MemConfig::table1_oracle(), RunaheadConfig::none()),
        }
    }
}

/// Runs `workload` for `max_insts` committed instructions under a
/// technique on a given core.
pub fn run_technique(w: &Workload, core: CoreConfig, tech: Technique, max_insts: u64) -> SimStats {
    let (mem_cfg, ra_cfg) = tech.configure();
    run_custom(w, core, mem_cfg, ra_cfg, max_insts)
}

/// Runs `workload` with explicit configurations: simulate or panic,
/// never a store. The library helper the examples, the benches and
/// `perf-report`'s throughput loop use; figures run their points
/// through [`sweep`].
///
/// # Panics
///
/// Panics with the simulation error if the run fails.
pub fn run_custom(
    w: &Workload,
    core: CoreConfig,
    mem_cfg: MemConfig,
    ra_cfg: RunaheadConfig,
    max_insts: u64,
) -> SimStats {
    Simulator::new(core, mem_cfg, ra_cfg, w.program.clone(), w.memory.clone(), &w.init_regs)
        .try_run(max_insts)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// What a cell or aggregate derived from a poisoned point reads.
pub const HOLE: &str = "HOLE";

/// Renders a value derived from point outputs — `None` once any point
/// it derives from is a HOLE, in which case the cell reads [`HOLE`]: a
/// value derived from a poisoned point is garbage and must not
/// masquerade as data. Every such cell and aggregate goes through
/// here.
pub fn cell<T>(derived: Option<T>, render: impl FnOnce(T) -> String) -> String {
    derived.map_or_else(|| HOLE.to_string(), render)
}

/// Harmonic mean of a column of derived values; one HOLE taints the
/// whole aggregate.
pub fn hmean(column: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
    let values: Vec<f64> = column.into_iter().collect::<Option<_>>()?;
    Some(harmonic_mean(&values))
}

/// The evaluation workload set: GAP kernels over the selected graph
/// presets plus the eight hpc-db benchmarks.
pub fn workload_set(presets: &[GraphPreset]) -> Vec<Workload> {
    let mut all = Vec::new();
    for &p in presets {
        eprintln!("  [gen] GAP graphs on {} …", p.abbrev());
        all.extend(gap_suite(Scale::Paper, p));
    }
    eprintln!("  [gen] hpc-db inputs …");
    all.extend(hpcdb_suite(Scale::Paper));
    all
}

/// A quick (small-input) workload set for smoke tests and Criterion.
pub fn quick_workload_set() -> Vec<Workload> {
    let mut all = gap_suite(Scale::Test, GraphPreset::Kron);
    all.extend(hpcdb_suite(Scale::Test));
    all
}

/// A smaller, representative subset for parameter sweeps (the ROB,
/// vector-length, MSHR and ablation figures): the four hpc-db
/// irregular kernels plus BFS/SSSP on the Kronecker graph.
pub fn sweep_workload_set(scale: Scale) -> Vec<Workload> {
    let mut v = vec![
        vr_workloads::hpcdb::kangaroo(scale),
        vr_workloads::hpcdb::hashjoin(scale, 2),
        vr_workloads::hpcdb::hashjoin(scale, 8),
        vr_workloads::hpcdb::camel(scale),
    ];
    let g = GraphPreset::Kron.generate(scale);
    v.push(vr_workloads::gap::bfs_on(&g, GraphPreset::Kron));
    v.push(vr_workloads::gap::sssp_on(&g, GraphPreset::Kron));
    v
}

/// Fixed-width text table printer (the harness's "figure" output).
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// The column headers, in order.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The appended rows, in order.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    line.push_str(&format!("{:<w$}", c, w = widths[i]));
                } else {
                    line.push_str(&format!("  {:>w$}", c, w = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Horizontal ASCII bar chart — the harness's rendering of the
/// paper's bar figures.
#[derive(Clone, Debug)]
pub struct BarChart {
    title: String,
    bars: Vec<(String, f64)>,
    /// Value a full-width bar represents (auto if `None`).
    max: Option<f64>,
}

impl BarChart {
    /// Creates an empty chart.
    pub fn new(title: &str) -> BarChart {
        BarChart { title: title.to_string(), bars: Vec::new(), max: None }
    }

    /// Fixes the full-scale value instead of auto-scaling.
    pub fn with_max(mut self, max: f64) -> BarChart {
        self.max = Some(max);
        self
    }

    /// Appends one bar.
    pub fn bar(&mut self, label: &str, value: f64) {
        self.bars.push((label.to_string(), value));
    }

    /// The chart title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The appended `(label, value)` bars, in order.
    pub fn bars(&self) -> &[(String, f64)] {
        &self.bars
    }

    /// Renders the chart (40-column bars).
    pub fn render(&self) -> String {
        const WIDTH: f64 = 40.0;
        let max = self
            .max
            .unwrap_or_else(|| self.bars.iter().map(|(_, v)| *v).fold(0.0, f64::max))
            .max(f64::MIN_POSITIVE);
        let label_w = self.bars.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let mut out = format!("{}\n", self.title);
        for (label, value) in &self.bars {
            let n = ((value / max) * WIDTH).round().clamp(0.0, WIDTH) as usize;
            out.push_str(&format!("  {label:<label_w$}  {:<40}  {value:.2}\n", "#".repeat(n)));
        }
        out
    }
}

/// Formats a ratio as `1.23x`.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Harmonic mean over the usable subset of `values` — finite and
/// strictly positive — plus the count of values skipped as unusable.
///
/// [`vr_core::harmonic_mean`] treats any non-positive input as an
/// upstream harness bug and collapses the whole aggregate to its
/// `0.0` sentinel. `perf-report`'s throughput aggregates are wall-clock
/// measurements, where one degenerate sample is not a bug: the bad
/// value is skipped, the mean summarizes the rest, and the nonzero
/// skip count taints the report explicitly (`*_tainted` in the JSON)
/// rather than silently zeroing the trend a CI gate compares against.
pub fn tainted_harmonic_mean(values: &[f64]) -> (f64, usize) {
    let valid: Vec<f64> = values.iter().copied().filter(|v| v.is_finite() && *v > 0.0).collect();
    let skipped = values.len() - valid.len();
    (vr_core::harmonic_mean(&valid), skipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technique_labels_are_unique() {
        let labels: Vec<_> = Technique::HEADLINE.iter().map(|t| t.label()).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels, dedup);
        assert_eq!(labels, ["OoO", "PRE", "IMP", "VR", "Oracle"]);
    }

    #[test]
    fn configurations_differ_where_expected() {
        let (imp_mem, imp_ra) = Technique::Imp.configure();
        assert!(imp_mem.imp);
        assert_eq!(imp_ra.kind, RunaheadKind::None);
        let (oracle_mem, _) = Technique::Oracle.configure();
        assert!(oracle_mem.oracle);
        let (_, vr_ra) = Technique::Vr.configure();
        assert_eq!(vr_ra.kind, RunaheadKind::Vector);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "ipc"]);
        t.row(vec!["kangaroo".into(), "1.00".into()]);
        t.row(vec!["x".into(), "12.34".into()]);
        let s = t.render();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("kangaroo"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_is_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn quick_set_runs_under_every_headline_technique() {
        let w = &quick_workload_set()[7]; // a small hpc-db kernel
        for tech in Technique::HEADLINE {
            let stats = run_technique(w, CoreConfig::table1(), tech, 20_000);
            assert!(stats.instructions >= 20_000, "{:?} must commit", tech);
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(1.234), "1.23x");
        assert_eq!(pct(0.071), "7.1%");
    }

    #[test]
    fn tainted_harmonic_mean_skips_holes_instead_of_zeroing() {
        // A degenerate sample contributes 0.0 KIPS; the aggregate must
        // skip-and-taint, not collapse to the 0.0 sentinel.
        let (hm, skipped) = tainted_harmonic_mean(&[1.0, 2.0]);
        assert!((hm - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(skipped, 0);
        let (hm, skipped) = tainted_harmonic_mean(&[1.0, 0.0, 2.0, f64::NAN, -3.0]);
        assert!((hm - 4.0 / 3.0).abs() < 1e-12, "mean over the healthy subset");
        assert_eq!(skipped, 3);
        assert_eq!(tainted_harmonic_mean(&[]), (0.0, 0));
        assert_eq!(
            tainted_harmonic_mean(&[0.0]),
            (0.0, 1),
            "nothing usable: sentinel + full taint"
        );
        let inf = tainted_harmonic_mean(&[f64::INFINITY, 4.0]);
        assert_eq!(inf, (4.0, 1), "non-finite values taint too");
    }

    #[test]
    fn a_hole_masks_the_cells_and_aggregates_derived_from_it() {
        assert_eq!(cell(Some(1.5), ratio), "1.50x");
        assert_eq!(cell(None, ratio), HOLE);
        let (hm, _) = tainted_harmonic_mean(&[1.0, 2.0]);
        assert_eq!(hmean([Some(1.0), Some(2.0)]), Some(hm));
        assert_eq!(hmean([Some(1.0), None, Some(2.0)]), None, "one HOLE taints the column");
    }

    #[test]
    fn storeless_sweep_simulates_every_point_in_order() {
        let w = std::sync::Arc::new(quick_workload_set().swap_remove(7));
        let points: Vec<vr_campaign::CampaignPoint> = [Technique::Baseline, Technique::Vr]
            .into_iter()
            .map(|tech| {
                let (mem, ra) = tech.configure();
                vr_campaign::CampaignPoint {
                    label: tech.label().into(),
                    workload: std::sync::Arc::clone(&w),
                    core: CoreConfig::table1(),
                    mem,
                    ra,
                    max_insts: 5_000,
                }
            })
            .collect();
        let direct: Vec<Option<SimStats>> = [Technique::Baseline, Technique::Vr]
            .into_iter()
            .map(|tech| Some(run_technique(&w, CoreConfig::table1(), tech, 5_000)))
            .collect();
        assert_eq!(sweep(&points, None, 1), direct);
        assert_eq!(sweep(&points, None, 2), direct);
    }

    #[test]
    #[should_panic(expected = "bad configuration: watchdog must be > 0")]
    fn storeless_sweep_turns_a_failed_point_into_the_simulation_error_panic() {
        let w = std::sync::Arc::new(quick_workload_set().swap_remove(7));
        let point = vr_campaign::CampaignPoint {
            label: "no-watchdog".into(),
            workload: w,
            core: CoreConfig { watchdog: 0, ..CoreConfig::table1() },
            mem: MemConfig::table1(),
            ra: RunaheadConfig::none(),
            max_insts: 1_000,
        };
        let _ = sweep(&[point], None, 1);
    }

    #[test]
    fn bar_chart_scales_and_aligns() {
        let mut c = BarChart::new("speedups");
        c.bar("VR", 2.0);
        c.bar("PRE", 1.0);
        let s = c.render();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines[0], "speedups");
        let vr_hashes = lines[1].matches('#').count();
        let pre_hashes = lines[2].matches('#').count();
        assert_eq!(vr_hashes, 40, "max bar is full width");
        assert_eq!(pre_hashes, 20, "half value is half width");
        assert!(lines[1].contains("2.00"));
    }

    #[test]
    fn bar_chart_with_fixed_max() {
        let mut c = BarChart::new("x").with_max(4.0);
        c.bar("a", 1.0);
        let s = c.render();
        assert_eq!(s.lines().nth(1).unwrap().matches('#').count(), 10);
    }
}
