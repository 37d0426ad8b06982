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

/// Runs a figure's point list — the one way the harness runs one:
/// through the campaign engine on `threads` threads, against `store`
/// when there is one, one attempt per point (no deadline is set, so
/// nothing is retried). Returns one output per point, in order, and
/// the labels of the HOLEs among them, in point order: a `None` output
/// is a point an earlier campaign poisoned, or one that failed now and
/// was poisoned for it.
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
pub fn sweep<P>(
    points: &[P],
    store: Option<&ResultStore>,
    threads: usize,
) -> (Vec<Option<P::Output>>, Vec<String>)
where
    P: SweepPoint,
    SimExecutor: Executor<P>,
{
    let cfg = EngineConfig { threads, ..EngineConfig::default() };
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
    let holes = points.iter().zip(&outputs).filter(|(_, out)| out.is_none());
    let holes = holes.map(|(p, _)| p.label().to_string()).collect();
    (outputs, holes)
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
/// never a store. The library helper the examples use; figures run
/// their points through [`sweep`].
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

/// What a figure [`Table`] prints for a value derived from a poisoned
/// point: such a value is garbage and must not masquerade as data.
pub const HOLE: &str = "HOLE";

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

/// A quick (small-input) workload set for `--quick` figures and smoke
/// tests.
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

/// How a figure column prints its values.
#[derive(Clone, Copy, Debug)]
pub enum Fmt {
    /// A whole number: `1234`.
    Int,
    /// `d` decimals: `Fixed(2)` prints `1.23`.
    Fixed(usize),
    /// [`ratio`]: `1.23x`.
    Ratio,
    /// [`pct`]: `7.1%`.
    Pct,
}

impl Fmt {
    /// Prints `v`, or [`HOLE`] for `None`.
    fn print(self, v: Option<f64>) -> String {
        let Some(v) = v else { return HOLE.to_string() };
        match self {
            Fmt::Int => format!("{v:.0}"),
            Fmt::Fixed(d) => format!("{v:.d$}"),
            Fmt::Ratio => ratio(v),
            Fmt::Pct => pct(v),
        }
    }
}

/// A table cell: text, or a number (`None` is a HOLE).
#[derive(Clone, Debug)]
enum Cell {
    Text(String),
    Num(Option<f64>),
}

/// Fixed-width table (the harness's "figure" output). A text table
/// holds rows of strings; a figure table holds rows of a label plus
/// one number or HOLE per column, printed in the column's [`Fmt`].
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    /// The format of every column after the first; empty in a text
    /// table.
    fmts: Vec<Fmt>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates a text table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        let headers = headers.iter().map(|s| s.to_string()).collect();
        Table { headers, fmts: Vec::new(), rows: Vec::new() }
    }

    /// Creates a figure table: a label column, then one column per
    /// format. Panics unless every column after the first has exactly
    /// one format.
    pub fn figure(headers: &[&str], fmts: &[Fmt]) -> Table {
        assert_eq!(fmts.len() + 1, headers.len(), "one format per value column");
        Table { fmts: fmts.to_vec(), ..Table::new(headers) }
    }

    /// Appends a text row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.into_iter().map(Cell::Text).collect());
    }

    /// Appends a figure row: `label`, then one value per format (the
    /// count is asserted).
    pub fn values(&mut self, label: &str, values: impl IntoIterator<Item = Option<f64>>) {
        let mut row = vec![Cell::Text(label.to_string())];
        row.extend(values.into_iter().map(Cell::Num));
        assert_eq!(row.len(), self.fmts.len() + 1, "row arity mismatch");
        self.rows.push(row);
    }

    /// The column headers, in order.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The rows as printed: the text, JSON and CSV views all read
    /// these.
    pub fn rows(&self) -> Vec<Vec<String>> {
        let print = |(i, c): (usize, &Cell)| match c {
            Cell::Text(s) => s.clone(),
            Cell::Num(v) => self.fmts[i - 1].print(*v),
        };
        self.rows.iter().map(|row| row.iter().enumerate().map(print).collect()).collect()
    }

    /// The number in the row labelled `row` under header `col`; `None`
    /// for a HOLE, a text cell, or a row or column the table lacks.
    pub fn value(&self, row: &str, col: &str) -> Option<f64> {
        let c = self.headers.iter().position(|h| h == col)?;
        let r = self.rows.iter().find(|r| matches!(&r[0], Cell::Text(l) if l == row))?;
        let Cell::Num(v) = r[c] else { return None };
        v
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let rows = self.rows();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &rows {
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
        for row in &rows {
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
}

impl BarChart {
    /// Creates an empty chart.
    pub fn new(title: &str) -> BarChart {
        BarChart { title: title.to_string(), bars: Vec::new() }
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
        let max = self.bars.iter().map(|(_, v)| *v).fold(0.0, f64::max).max(f64::MIN_POSITIVE);
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
    fn formatting_helpers() {
        assert_eq!(ratio(1.234), "1.23x");
        assert_eq!(pct(0.071), "7.1%");
    }

    #[test]
    fn figure_rows_print_in_their_column_format_and_read_back() {
        let mut t = Table::figure(
            &["benchmark", "n", "ipc", "VR", "stall"],
            &[Fmt::Int, Fmt::Fixed(3), Fmt::Ratio, Fmt::Pct],
        );
        t.values("HJ8", [Some(42.0), Some(1.23456), Some(1.5), Some(0.071)]);
        t.values("bfs_UR", [Some(7.0), None, Some(0.62), None]);
        assert_eq!(
            t.rows(),
            [["HJ8", "42", "1.235", "1.50x", "7.1%"], ["bfs_UR", "7", HOLE, "0.62x", HOLE]]
        );
        assert_eq!(t.value("HJ8", "VR"), Some(1.5));
        assert_eq!(t.value("bfs_UR", "ipc"), None, "a HOLE reads back as no value");
        assert_eq!(t.value("HJ8", "benchmark"), None, "a label is not a value");
        assert_eq!(t.value("HJ2", "VR"), None);
        assert_eq!(t.value("HJ8", "IMP"), None);
    }

    #[test]
    #[should_panic(expected = "one format per value column")]
    fn a_figure_table_takes_exactly_one_format_per_value_column() {
        let _ = Table::figure(&["benchmark", "entries", "ra-time"], &[Fmt::Pct]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn figure_row_arity_is_checked() {
        let mut t = Table::figure(&["benchmark", "VR"], &[Fmt::Ratio]);
        t.values("HJ8", [Some(1.0), Some(2.0)]);
    }

    #[test]
    fn a_hole_masks_the_cells_and_aggregates_derived_from_it() {
        assert_eq!(Fmt::Ratio.print(Some(1.5)), "1.50x");
        assert_eq!(Fmt::Ratio.print(None), HOLE);
        assert_eq!(hmean([Some(1.0), Some(2.0)]), Some(harmonic_mean(&[1.0, 2.0])));
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
        assert_eq!(sweep(&points, None, 1), (direct.clone(), vec![]));
        assert_eq!(sweep(&points, None, 2), (direct, vec![]));
    }

    #[test]
    fn sweep_hands_back_the_poisoned_labels_in_point_order() {
        let dir = std::env::temp_dir().join(format!(
            "vr-bench-sweep-holes-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let store = ResultStore::open(&dir).expect("open a temporary store");
        let w = std::sync::Arc::new(quick_workload_set().swap_remove(7));
        let points: Vec<vr_campaign::CampaignPoint> = (1..=4)
            .map(|i| vr_campaign::CampaignPoint {
                label: format!("p{i}"),
                workload: std::sync::Arc::clone(&w),
                core: CoreConfig::table1(),
                mem: MemConfig::table1(),
                ra: RunaheadConfig::none(),
                max_insts: 1_000 * i,
            })
            .collect();
        // Poisoned in reverse, so the order that comes back is the
        // points', not the store's.
        for p in [&points[3], &points[1]] {
            let rec = vr_campaign::PoisonRecord {
                key: p.key(),
                label: p.label.clone(),
                error: "poisoned by the test".into(),
                attempts: 1,
                deadline_trips: 0,
            };
            store.poison(&rec).expect("poison a point");
        }
        let (outputs, holes) = sweep(&points, Some(&store), 2);
        assert_eq!(holes, ["p2", "p4"]);
        let present: Vec<bool> = outputs.iter().map(Option::is_some).collect();
        assert_eq!(present, [true, false, true, false]);
        std::fs::remove_dir_all(&dir).ok();
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
}
