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

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use vr_campaign::WorkerPool;
use vr_core::{CoreConfig, RunaheadConfig, RunaheadKind, SimStats, Simulator};
use vr_mem::MemConfig;
use vr_workloads::{gap_suite, graph::GraphPreset, hpcdb_suite, Scale, Workload};

/// Default worker-thread count for [`parallel_map`]: every available
/// core (the sweep points are CPU-bound and share nothing).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Wall time accumulated inside parallel regions ([`parallel_map`] /
/// [`parallel_map_chunked`]) since the last reset, in nanoseconds.
/// The perf-report harness brackets each figure with
/// [`reset_parallel_region`]/[`parallel_region_nanos`] so its
/// `pool_speedup` measures the pool, not the serialized rendering and
/// setup around it.
static PARALLEL_REGION_NANOS: AtomicU64 = AtomicU64::new(0);

/// Zeroes the parallel-region accumulator.
pub fn reset_parallel_region() {
    PARALLEL_REGION_NANOS.store(0, Ordering::Relaxed);
}

/// Nanoseconds spent inside parallel regions since the last
/// [`reset_parallel_region`] (the serial `threads == 1` path counts
/// too: the speedup ratio needs both sides of the same region).
pub fn parallel_region_nanos() -> u64 {
    PARALLEL_REGION_NANOS.load(Ordering::Relaxed)
}

/// The process-wide sweep pool: spawned on first parallel call and
/// reused for every subsequent sweep, so a multi-figure run pays the
/// thread-spawn cost once, not per `parallel_map` call. Replaced
/// (regrown) if a caller asks for more threads than it has — rare
/// outside tests, where thread counts vary per call. The guard
/// serializes sweeps, which nested calls never were (a sweep closure
/// must not itself call `parallel_map`; it would deadlock on the
/// pool's single in-flight job).
fn with_sweep_pool<R>(threads: usize, run: impl FnOnce(&WorkerPool) -> R) -> R {
    static POOL: OnceLock<Mutex<Option<WorkerPool>>> = OnceLock::new();
    // A sweep that panics (propagated worker panic) poisons the lock;
    // the pool itself survives panics, so recover rather than cascade.
    let mut slot =
        POOL.get_or_init(|| Mutex::new(None)).lock().unwrap_or_else(PoisonError::into_inner);
    if slot.as_ref().is_none_or(|p| p.size() < threads) {
        *slot = Some(WorkerPool::new(threads));
    }
    run(slot.as_ref().expect("pool installed above"))
}

/// Adaptive claim-batch size for [`parallel_map`]: aim for several
/// claims per worker (dynamic balancing still matters — a DRAM-bound
/// BFS point runs ~10x longer than an L1-resident kernel) while
/// amortizing the shared-cursor traffic across a batch. Capped so a
/// huge sweep still rebalances.
fn adaptive_chunk(len: usize, threads: usize) -> usize {
    (len / (threads.max(1) * 4)).clamp(1, 32)
}

/// Fans `f` over `items` across `threads` pool workers and returns the
/// results **in input order**.
///
/// This is the sweep runner's work pool: each (configuration ×
/// workload) simulation point is independent — every [`Simulator`] is
/// constructed fresh from cloned program/memory state inside `f` — so
/// the results are bit-identical to a serial loop no matter how the
/// points are interleaved across workers. Determinism contract:
///
/// * `f` must not mutate shared state (enforced by `F: Fn + Sync`);
/// * results are reassembled by input index before returning, so
///   callers observe serial order regardless of completion order.
///
/// Work is distributed dynamically through an atomic cursor over
/// claim batches sized by the item count (see
/// [`parallel_map_chunked`] for an explicit batch size), and the
/// workers are persistent ([`WorkerPool`]) — two fixes for the
/// flat `pool_speedup` the old per-call-spawn, one-item-per-claim
/// runner measured. Hand-rolled on `std` only: the workspace is
/// deliberately offline and has zero registry dependencies, so no
/// rayon.
///
/// # Panics
///
/// Propagates a panic from `f` as `"sweep worker panicked"` (the pool
/// finishes all workers first).
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_chunked(items, threads, adaptive_chunk(items.len(), threads), f)
}

/// [`parallel_map`] with an explicit claim-batch size: each worker
/// claims `chunk` consecutive items per atomic `fetch_add` instead of
/// one. `chunk = 1` reproduces the old fine-grained claiming; results
/// are identical (and in input order) for every chunk size.
pub fn parallel_map_chunked<T, R, F>(items: &[T], threads: usize, chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    let chunk = chunk.max(1);
    let t0 = Instant::now();
    if threads == 1 {
        let out: Vec<R> = items.iter().map(f).collect();
        note_parallel_region(t0);
        return out;
    }
    let cursor = AtomicUsize::new(0);
    let tagged: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    with_sweep_pool(threads, |pool| {
        pool.run(threads, &|_worker| {
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= items.len() {
                    break;
                }
                let end = (start + chunk).min(items.len());
                for (i, item) in items.iter().enumerate().take(end).skip(start) {
                    local.push((i, f(item)));
                }
            }
            // One append per worker, after all its work: the lock is
            // not on the claim path.
            tagged.lock().unwrap_or_else(PoisonError::into_inner).append(&mut local);
        });
    });
    let mut tagged = tagged.into_inner().unwrap_or_else(PoisonError::into_inner);
    tagged.sort_unstable_by_key(|&(i, _)| i);
    note_parallel_region(t0);
    tagged.into_iter().map(|(_, r)| r).collect()
}

fn note_parallel_region(t0: Instant) {
    let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    PARALLEL_REGION_NANOS.fetch_add(nanos, Ordering::Relaxed);
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

/// Runs `workload` with explicit configurations (for sweeps and
/// ablations).
///
/// This is the choke point every figure's simulations flow through:
/// when a result store is enabled ([`cache::enable`], the CLI's
/// `--cache DIR`), the point's fingerprint is looked up first and the
/// simulation is skipped on a hit. Stored stats round-trip
/// bit-identically, so cached and uncached figure output are
/// byte-identical.
/// Runs `workload` with explicit configurations, degrading instead of
/// aborting when a store is active: a point the campaign has poisoned
/// is skipped (its label is noted in [`cache::holes`] and the figure
/// renders a `HOLE` cell via [`holey`]), and a fresh simulation
/// failure is poisoned in the store and degraded the same way. With
/// no store there is nowhere to record the failure, so a simulation
/// error still panics — exactly the pre-store behaviour.
pub fn run_custom(
    w: &Workload,
    core: CoreConfig,
    mem_cfg: MemConfig,
    ra_cfg: RunaheadConfig,
    max_insts: u64,
) -> SimStats {
    let Some(store) = cache::active() else {
        return try_simulate(w, core, mem_cfg, ra_cfg, max_insts).unwrap_or_else(|e| panic!("{e}"));
    };
    let key = vr_campaign::point_key(w, &core, &mem_cfg, &ra_cfg, max_insts);
    if let Some(stats) = store.load(key) {
        return stats;
    }
    if store.is_poisoned(key) {
        cache::note_hole(&w.name);
        return hole_stats();
    }
    match try_simulate(w, core, mem_cfg, ra_cfg, max_insts) {
        Ok(stats) => {
            // A failed save degrades to "not cached", never to a
            // failed run.
            let _ = store.save(key, &w.name, &stats);
            stats
        }
        Err(e) => {
            let _ = store.poison(&vr_campaign::PoisonRecord {
                key,
                label: w.name.clone(),
                error: e.to_string(),
                attempts: 1,
                deadline_trips: 0,
            });
            cache::note_hole(&w.name);
            hole_stats()
        }
    }
}

/// Runs one multi-core [`ChipPoint`](vr_campaign::ChipPoint) with the
/// same store/degrade semantics as [`run_custom`]: a store hit loads
/// the decomposed per-core + chip records, a poisoned point degrades
/// to a [`hole_chip_run`] (noted in [`cache::holes`]), a fresh failure
/// is poisoned and degraded, and with no store a failure panics.
pub fn run_chip_point(p: &vr_campaign::ChipPoint) -> vr_chip::ChipRun {
    use vr_campaign::{ExecCtx, Executor, SimExecutor, SweepPoint};
    let execute =
        || SimExecutor.execute(p, &ExecCtx { attempt: 0, stop: vr_core::StopFlag::new() });
    let Some(store) = cache::active() else {
        return execute().unwrap_or_else(|e| panic!("{e}"));
    };
    let key = p.key();
    if let Some(run) = p.load(store, key) {
        return run;
    }
    if store.is_poisoned(key) {
        cache::note_hole(&p.label);
        return hole_chip_run(p.slots.len());
    }
    match execute() {
        Ok(run) => {
            let _ = p.save(store, key, &run);
            run
        }
        Err(e) => {
            let _ = store.poison(&vr_campaign::PoisonRecord {
                key,
                label: p.label.clone(),
                error: e.to_string(),
                attempts: 1,
                deadline_trips: 0,
            });
            cache::note_hole(&p.label);
            hole_chip_run(p.slots.len())
        }
    }
}

fn try_simulate(
    w: &Workload,
    core: CoreConfig,
    mem_cfg: MemConfig,
    ra_cfg: RunaheadConfig,
    max_insts: u64,
) -> Result<SimStats, vr_core::SimError> {
    let mut sim =
        Simulator::new(core, mem_cfg, ra_cfg, w.program.clone(), w.memory.clone(), &w.init_regs);
    sim.try_run(max_insts)
}

/// The sentinel stats a poisoned (HOLE) point yields: all zeros. A
/// real run can never finish with zero cycles, so [`is_hole`] is
/// unambiguous, and every derived rate (IPC, speedup, MPKI) collapses
/// to zero instead of dividing by garbage.
pub fn hole_stats() -> SimStats {
    SimStats::default()
}

/// Whether `stats` is the [`hole_stats`] sentinel.
pub fn is_hole(stats: &SimStats) -> bool {
    stats.cycles == 0
}

/// The sentinel [`ChipRun`](vr_chip::ChipRun) a poisoned chip point
/// yields: [`hole_stats`] on every core, all-zero chip counters.
pub fn hole_chip_run(cores: usize) -> vr_chip::ChipRun {
    vr_chip::ChipRun { per_core: vec![hole_stats(); cores], chip: vr_chip::ChipStats::default() }
}

/// Whether `run` is (or contains a core of) the [`hole_chip_run`]
/// sentinel — any zero-cycle core taints the whole chip's derived
/// rates, exactly as [`is_hole`] does for one core.
pub fn is_chip_hole(run: &vr_chip::ChipRun) -> bool {
    run.per_core.iter().any(is_hole)
}

/// Renders `rendered` unless any of `deps` is a HOLE, in which case
/// the cell reads `HOLE` — a value derived from a poisoned point is
/// garbage and must not masquerade as data.
pub fn holey(deps: &[&SimStats], rendered: String) -> String {
    if deps.iter().any(|s| is_hole(s)) {
        "HOLE".to_string()
    } else {
        rendered
    }
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
/// `0.0` sentinel. A perf report over a store with a poisoned point
/// legitimately measures 0.0 KIPS for the HOLE, so its aggregates use
/// this instead: the bad value is skipped, the mean summarizes the
/// healthy points, and the nonzero skip count taints the report
/// explicitly (`*_tainted` in the JSON) rather than silently zeroing
/// the trend a CI gate compares against.
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
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 8, 128] {
            assert_eq!(parallel_map(&items, threads, |x| x * x), serial, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn parallel_map_propagates_a_worker_panic() {
        // Regression: a panicking closure must surface to the caller,
        // not strand the sweep with a missing result. All workers are
        // joined first, so no thread outlives the borrowed items.
        let items: Vec<u64> = (0..64).collect();
        let _ = parallel_map(&items, 4, |&x| {
            assert!(x != 33, "injected worker failure");
            x
        });
    }

    #[test]
    fn chunked_claims_stay_bit_identical_and_in_order() {
        // The chunked claim path must be invisible in the results:
        // same values, same order, for every batch size.
        let items: Vec<u64> = (0..131).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for chunk in [1, 7, items.len(), items.len() + 50] {
            for threads in [2, 5] {
                assert_eq!(
                    parallel_map_chunked(&items, threads, chunk, |x| x * 3 + 1),
                    serial,
                    "chunk={chunk} threads={threads}"
                );
            }
        }
        // chunk 0 is clamped, not a hang or a panic.
        assert_eq!(parallel_map_chunked(&items, 3, 0, |x| x * 3 + 1), serial);
    }

    #[test]
    fn parallel_region_timer_accumulates_and_resets() {
        reset_parallel_region();
        let items: Vec<u64> = (0..256).collect();
        let _ = parallel_map(&items, 2, |x| x.wrapping_mul(0x9E37_79B9).rotate_left(7));
        // Other tests in this process may also add to the global
        // accumulator concurrently; ours alone guarantees nonzero.
        assert!(parallel_region_nanos() > 0);
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: [u64; 0] = [];
        assert_eq!(parallel_map(&empty, 8, |x| *x), Vec::<u64>::new());
        assert_eq!(parallel_map(&[7u64], 8, |x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_sweep_matches_serial_stats_bit_for_bit() {
        // The determinism contract of the sweep runner: fanning the
        // same simulation points across threads must reproduce the
        // serial stats exactly (each point builds its own Simulator).
        let set = quick_workload_set();
        let points: Vec<(usize, Technique)> =
            (0..4).flat_map(|i| [(i, Technique::Baseline), (i, Technique::Vr)]).collect();
        let run = |&(i, tech): &(usize, Technique)| {
            let s = run_technique(&set[i], CoreConfig::table1(), tech, 5_000);
            (s.instructions, s.cycles, s.mem.dram_reads_total())
        };
        let serial: Vec<_> = points.iter().map(run).collect();
        assert_eq!(parallel_map(&points, 4, run), serial);
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
        // A poisoned HOLE point contributes 0.0 KIPS; the aggregate
        // must skip-and-taint, not collapse to the 0.0 sentinel.
        let (hm, skipped) = tainted_harmonic_mean(&[1.0, 2.0]);
        assert!((hm - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(skipped, 0);
        let (hm, skipped) = tainted_harmonic_mean(&[1.0, 0.0, 2.0, f64::NAN, -3.0]);
        assert!((hm - 4.0 / 3.0).abs() < 1e-12, "mean over the healthy subset");
        assert_eq!(skipped, 3);
        assert_eq!(tainted_harmonic_mean(&[]), (0.0, 0));
        assert_eq!(tainted_harmonic_mean(&[0.0]), (0.0, 1), "all-holes: sentinel + full taint");
        let inf = tainted_harmonic_mean(&[f64::INFINITY, 4.0]);
        assert_eq!(inf, (4.0, 1), "non-finite values taint too");
    }

    #[test]
    fn hole_sentinel_is_unambiguous_and_masks_derived_cells() {
        let hole = hole_stats();
        assert!(is_hole(&hole));
        let real = run_technique(
            &quick_workload_set()[7],
            CoreConfig::table1(),
            Technique::Baseline,
            5_000,
        );
        assert!(!is_hole(&real), "a finished run always has cycles");
        assert_eq!(holey(&[&real, &real], ratio(1.5)), "1.50x");
        assert_eq!(holey(&[&real, &hole], ratio(1.5)), "HOLE");
        assert_eq!(holey(&[], "ok".into()), "ok", "no deps, nothing to mask");
        // The derived rates a figure would compute from a hole are
        // zeros, not NaN/inf garbage.
        assert_eq!(hole.speedup_over(&real), 0.0);
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
