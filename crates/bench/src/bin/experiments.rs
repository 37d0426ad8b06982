//! Regenerates every table and figure of the Vector Runahead
//! evaluation (DESIGN.md §5 maps each id to the paper artifact).
//!
//! Run `experiments` with no arguments for the full usage text — it
//! is generated from the same table `main` dispatches on, so the list
//! of ids can never drift from the commands that actually exist.
//!
//! A simulating figure is a row of [`COMMANDS`] holding two functions:
//! its point list (`vr_bench::points`) and the render of
//! `(points, outputs)` into a [`Report`]. [`run_cmd`] is the only thing
//! that connects them — enumerate, [`vr_bench::sweep`] (the campaign
//! engine, against the `--cache` store `Opts` owns when there is one),
//! render — so `all`, `--cache` and `campaign run/status` all read the
//! same table, and every figure is bit-identical at any `--threads` and
//! against any store.
//!
//! A render computes numbers, never text: each figure row is a label
//! plus one `Option<f64>` per column of a typed [`Table`], `None`
//! being a HOLE (a poisoned point, or a value derived from one). The
//! table prints every cell in its column's [`Fmt`], and the text on
//! stdout and the `--json` / `--csv` exports all read those strings,
//! so exported values always equal the printed ones (see DESIGN.md
//! §10, §13).
//!
//! Simulator speed is not measured here: `benchmark/` (the command in
//! `BENCHMARK.json`) is the one timer, and `BENCH_history.jsonl` its
//! record.

use std::path::PathBuf;

use vr_bench::points::{self, FigureOpts, Sets};
use vr_bench::report::{write_exports, Report, RunMeta};
use vr_bench::{hmean, sweep, BarChart, Fmt, Table, Technique};
use vr_campaign::{CampaignPoint, ChipPoint, Executor, ResultStore, SimExecutor, SweepPoint};
use vr_chip::ChipRun;
use vr_core::{harmonic_mean, CoreConfig, SimStats, Simulator};
use vr_mem::{HitLevel, MemConfig, Requestor};
use vr_workloads::{graph::GraphPreset, Scale};

struct Opts {
    /// `--insts`, `--all-inputs`, `--quick`: what determines a
    /// figure's points.
    fig: FigureOpts,
    threads: usize,
    /// First non-flag argument after the id (the `trace` workload, or
    /// the `campaign` action).
    workload: Option<String>,
    /// `--figure ID`: restrict `campaign` to one figure's points.
    figure: Option<String>,
    /// `--cancel-after-ms N`: graceful-cancellation testing aid for
    /// `campaign run`.
    cancel_after_ms: Option<u64>,
    /// `--fail-point SUBSTR`: fault-injection testing aid for
    /// `campaign run` — points whose label contains the substring fail
    /// deterministically (exercises the poison-point path end to end).
    fail_point: Option<String>,
    /// `--point-deadline-ms N`: per-point wall-clock deadline for
    /// `campaign run` (a simulation past it stops itself, and the point
    /// fails this run without being stored).
    point_deadline_ms: Option<u64>,
    /// `--tmp-age-ms N`: minimum tmp-file age for `campaign gc`
    /// reclamation (default: the store's 60 s grace period).
    tmp_age_ms: Option<u64>,
    /// `--cache DIR`: the result store every figure point goes through.
    store: Option<ResultStore>,
    /// Labels of the points that rendered as HOLEs so far, in sweep
    /// order; `main` prints them after rendering so a degraded figure
    /// is loud without being fatal.
    holes: Vec<String>,
}

/// One dispatchable subcommand: the id `main` matches on, the help
/// line the usage text prints, whether `all` includes it, and what
/// running it means.
struct Cmd {
    id: &'static str,
    help: &'static str,
    in_all: bool,
    run: Run,
}

/// Renders a figure from its point list and the outputs of sweeping
/// it (`None` = HOLE), position for position.
type Render<P, O> = fn(&FigureOpts, &[P], &[Option<O>]) -> Report;

#[derive(Clone, Copy)]
enum Run {
    /// Simulates nothing through the store: a configuration table or a
    /// tool with its own side artifacts.
    Tool(fn(&mut Opts) -> Vec<Report>),
    /// A figure over single-core points: its point list and render.
    Scalar(fn(&Sets) -> Vec<CampaignPoint>, Render<CampaignPoint, SimStats>),
    /// A figure over multi-core chip points.
    Chip(fn(&Sets) -> Vec<ChipPoint>, Render<ChipPoint, ChipRun>),
}

const fn tool(
    id: &'static str,
    help: &'static str,
    in_all: bool,
    run: fn(&mut Opts) -> Vec<Report>,
) -> Cmd {
    Cmd { id, help, in_all, run: Run::Tool(run) }
}

const fn figure(
    id: &'static str,
    help: &'static str,
    points: fn(&Sets) -> Vec<CampaignPoint>,
    render: Render<CampaignPoint, SimStats>,
) -> Cmd {
    Cmd { id, help, in_all: true, run: Run::Scalar(points, render) }
}

/// The one table: usage text, dispatch, `all` and the campaign point
/// sets are all read off it, in this order, so adding a row here is
/// the *only* step needed to expose a command or a figure everywhere.
const COMMANDS: &[Cmd] = &[
    tool("table1", "baseline core/memory configuration (Table 1)", true, table1),
    figure("table2", "graph inputs + measured LLC MPKI (Table 2)", points::table2, table2),
    figure("fig-perf", "speedup over the baseline OoO (Fig. 7)", points::fig_perf, fig_perf),
    figure("fig-rob", "ROB-size sensitivity sweep (Fig. 2/12)", points::fig_rob, fig_rob),
    figure("fig-mlp", "memory-level parallelism (Fig. 9)", points::fig_mlp, fig_mlp),
    figure(
        "fig-accuracy",
        "prefetch accuracy/coverage (Fig. 10)",
        points::fig_accuracy,
        fig_accuracy,
    ),
    figure(
        "fig-timeliness",
        "prefetch timeliness by level (Fig. 11)",
        points::fig_timeliness,
        fig_timeliness,
    ),
    figure("fig-veclen", "vector-length sweep", points::fig_veclen, fig_veclen),
    figure("fig-interval", "trigger/interval statistics", points::fig_interval, fig_interval),
    figure("fig-ablation", "design ablation + extensions", points::fig_ablation, fig_ablation),
    figure("fig-mshr", "MSHR-count sensitivity sweep", points::fig_mshr, fig_mshr),
    tool("table-hw", "hardware overhead of the VR structures", true, table_hw),
    Cmd {
        id: "fig-chip",
        help: "multi-core chip: VR under shared-LLC contention (not in `all`)",
        in_all: false,
        run: Run::Chip(points::fig_chip, fig_chip),
    },
    tool("trace", "pipeline-diagram trace of one workload under VR", false, trace_cmd),
    tool(
        "campaign",
        "result-store campaign over the figure sim points (run/status/verify/gc)",
        false,
        campaign_cmd,
    ),
    tool("all", "every paper table and figure above", false, all_figures),
];

/// Runs one command. A figure is enumerated from `sets`, swept through
/// the campaign engine against the `--cache` store (if any) and
/// rendered from `(points, outputs)`; its HOLEs join `opts.holes`.
fn run_cmd(cmd: &Cmd, opts: &mut Opts, sets: &Sets) -> Vec<Report> {
    fn sweep_render<P: SweepPoint>(
        opts: &mut Opts,
        points: &[P],
        render: Render<P, P::Output>,
    ) -> Report
    where
        SimExecutor: Executor<P>,
    {
        let (out, holes) = sweep(points, opts.store.as_ref(), opts.threads);
        opts.holes.extend(holes);
        render(&opts.fig, points, &out)
    }
    match cmd.run {
        Run::Tool(run) => run(opts),
        Run::Scalar(points, render) => vec![sweep_render(opts, &points(sets), render)],
        Run::Chip(points, render) => vec![sweep_render(opts, &points(sets), render)],
    }
}

fn all_figures(opts: &mut Opts) -> Vec<Report> {
    let sets = Sets::new(opts.fig.clone());
    COMMANDS.iter().filter(|c| c.in_all).flat_map(|c| run_cmd(c, opts, &sets)).collect()
}

/// The ids `campaign --figure` accepts besides `all`: every figure with
/// a point list.
fn figure_ids() -> Vec<&'static str> {
    COMMANDS.iter().filter(|c| !matches!(c.run, Run::Tool(_))).map(|c| c.id).collect()
}

/// The point list of one figure (or of `all`), in whichever point type
/// the figure sweeps.
enum PointSet {
    /// Single-core sweep points.
    Scalar(Vec<CampaignPoint>),
    /// Multi-core chip points.
    Chip(Vec<ChipPoint>),
}

/// The campaign point set of a figure id, or of `all` (the union of
/// the single-core figures `all` renders; duplicates across figures
/// are fine — the engine dedups by fingerprint). `None` for an id
/// without a point list.
fn enumerate(figure: &str, fig: &FigureOpts) -> Option<PointSet> {
    let sets = Sets::new(fig.clone());
    if figure == "all" {
        let union = COMMANDS.iter().filter(|c| c.in_all).filter_map(|c| match c.run {
            Run::Scalar(points, _) => Some(points(&sets)),
            _ => None,
        });
        return Some(PointSet::Scalar(union.flatten().collect()));
    }
    match COMMANDS.iter().find(|c| c.id == figure)?.run {
        Run::Tool(_) => None,
        Run::Scalar(points, _) => Some(PointSet::Scalar(points(&sets))),
        Run::Chip(points, _) => Some(PointSet::Chip(points(&sets))),
    }
}

/// Usage text, generated from [`COMMANDS`] so it cannot drift.
fn usage() -> String {
    let mut u = String::from(
        "usage: experiments <id> [workload] [--insts N] [--all-inputs] [--quick] \
         [--threads N] [--cache DIR] [--json PATH] [--csv PATH]\n\nids:\n",
    );
    for c in COMMANDS {
        u.push_str(&format!("  {:<14} {}\n", c.id, c.help));
    }
    u.push_str(
        "\nflags:\n\
         \x20 --insts N     instruction budget per run (default 200000, 60000 with --quick)\n\
         \x20 --all-inputs  run GAP on all five graph presets (default KR + UR)\n\
         \x20 --quick       small inputs and a smaller default budget (smoke test)\n\
         \x20 --threads N   worker threads for the sweep runner (0 or default: all cores)\n\
         \x20 --cache DIR   route every figure point through the result store at DIR\n\
         \x20               (cached figure output is byte-identical to uncached)\n\
         \x20 --json PATH   export every report as schema-versioned JSON\n\
         \x20 --csv PATH    export every table as CSV\n\
         \x20 --figure ID   restrict `campaign` to one figure's points (default: all)\n\
         \x20 --cancel-after-ms N  cancel a `campaign run` after N ms (testing aid)\n\
         \x20 --fail-point S       fail points whose label contains S (testing aid)\n\
         \x20 --point-deadline-ms N  per-point wall-clock deadline for `campaign run`\n\
         \x20               (a point past it fails this run and is not stored)\n\
         \x20 --tmp-age-ms N       min tmp-file age for `campaign gc` (default 60000)\n\
         \nthe `trace` id takes a positional workload name (see its error text \
         for the available names); `campaign` takes a positional action \
         (run, status, verify, gc) and requires --cache DIR.\n",
    );
    u
}

/// The value after `flag`, parsed; a missing or unparsable value exits
/// 2 with `error: <flag> requires <what>`.
fn flag_value<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
    what: &str,
) -> T {
    match it.next().and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("error: {flag} requires {what}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(id) = args.first().cloned() else {
        eprint!("{}", usage());
        std::process::exit(2);
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.id == id) else {
        eprintln!("error: unknown command {id:?}");
        eprint!("{}", usage());
        std::process::exit(2);
    };
    let mut insts: Option<u64> = None;
    let mut presets = vec![GraphPreset::Kron, GraphPreset::Urand];
    let mut quick = false;
    let mut threads = vr_pool::cpus();
    let mut json: Option<PathBuf> = None;
    let mut csv: Option<PathBuf> = None;
    let mut workload: Option<String> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut figure: Option<String> = None;
    let mut cancel_after_ms: Option<u64> = None;
    let mut fail_point: Option<String> = None;
    let mut point_deadline_ms: Option<u64> = None;
    let mut tmp_age_ms: Option<u64> = None;
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--insts" => insts = Some(flag_value(&mut it, a, "a positive integer")),
            // 0 is an explicit "auto": every available core.
            "--threads" => {
                threads = match flag_value(&mut it, a, "a non-negative integer") {
                    0 => vr_pool::cpus(),
                    n => n,
                }
            }
            "--cache" => cache_dir = Some(flag_value(&mut it, a, "a directory path")),
            "--figure" => figure = Some(flag_value(&mut it, a, "a figure id")),
            "--cancel-after-ms" => cancel_after_ms = Some(flag_value(&mut it, a, "an integer")),
            "--fail-point" => fail_point = Some(flag_value(&mut it, a, "a label substring")),
            "--point-deadline-ms" => {
                point_deadline_ms = Some(flag_value(&mut it, a, "an integer"));
            }
            "--tmp-age-ms" => tmp_age_ms = Some(flag_value(&mut it, a, "an integer")),
            "--all-inputs" => presets = GraphPreset::ALL.to_vec(),
            "--quick" => quick = true,
            "--json" => json = Some(flag_value(&mut it, a, "a path")),
            "--csv" => csv = Some(flag_value(&mut it, a, "a path")),
            other if !other.starts_with('-') && workload.is_none() => {
                workload = Some(other.to_string());
            }
            other => {
                // A mistyped flag after a valid subcommand used to die
                // with a bare one-line error; print the usage too so
                // the caller can see what was meant.
                eprintln!("error: unknown flag {other}");
                eprint!("{}", usage());
                std::process::exit(2);
            }
        }
    }
    // `--quick` picks the scale and only the *default* budget, so an
    // explicit `--insts` wins wherever it appears.
    let insts = insts.unwrap_or(if quick { 60_000 } else { 200_000 });
    let scale = if quick { Scale::Test } else { Scale::Paper };
    let store = cache_dir.map(|dir| {
        ResultStore::open(&dir).unwrap_or_else(|e| {
            eprintln!("error: cannot open result store at {}: {e}", dir.display());
            std::process::exit(1);
        })
    });
    let mut opts = Opts {
        fig: FigureOpts { insts, presets, scale },
        threads,
        workload,
        figure,
        cancel_after_ms,
        fail_point,
        point_deadline_ms,
        tmp_age_ms,
        store,
        holes: Vec::new(),
    };

    let sets = Sets::new(opts.fig.clone());
    let reports = run_cmd(cmd, &mut opts, &sets);
    for r in &reports {
        print!("{}", r.render_text());
    }
    let meta = RunMeta {
        command: id.clone(),
        insts: opts.fig.insts,
        threads: opts.threads,
        scale: match opts.fig.scale {
            Scale::Paper => "paper".to_string(),
            Scale::Test => "test".to_string(),
        },
    };
    if let Err(e) = write_exports(&reports, &meta, json.as_deref(), csv.as_deref()) {
        eprintln!("error: cannot write export: {e}");
        std::process::exit(1);
    }
    if let Some(p) = &json {
        eprintln!("wrote {}", p.display());
    }
    if let Some(p) = &csv {
        eprintln!("wrote {}", p.display());
    }
    if let Some(c) = opts.store.as_ref().map(ResultStore::counters) {
        eprintln!(
            "cache: {} hits, {} misses, {} writes, {} stale, {} quarantined",
            c.hits, c.misses, c.writes, c.stale, c.quarantined
        );
    }
    // Degradation summary: poisoned points rendered as HOLE cells are
    // loud on stderr but never fatal — a partial figure beats no
    // figure, and the poison record says exactly what to retry.
    let holes = &opts.holes;
    if !holes.is_empty() {
        eprintln!(
            "degraded: {} poisoned point(s) rendered as HOLE: {}",
            holes.len(),
            holes.join(", ")
        );
        eprintln!("  (`experiments campaign gc --cache DIR` clears poison so a re-run retries)");
    }
    if reports.iter().any(|r| r.failed) {
        eprintln!("error: {id} reported a failure (see the tables above)");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------- campaign

/// First line of a (possibly multi-line) error for table cells —
/// deadline errors carry a full scheduler dump that would wreck the
/// column layout; the complete text is in the `--json` export.
fn first_line(err: &str) -> String {
    err.lines().next().unwrap_or("").to_string()
}

/// `experiments campaign <run|status|verify|gc> --cache DIR`: drives
/// the figure simulation points through the result store (DESIGN.md
/// §11). `run` computes only the missing points — resumable across
/// kills because every record is published atomically; `status` is a
/// cheap census; `verify` fully validates every record (non-zero exit
/// if the store is not clean); `gc` reclaims stale/corrupt/orphaned
/// files.
fn campaign_cmd(opts: &mut Opts) -> Vec<Report> {
    use vr_campaign::{
        campaign_status, run_campaign, CancelToken, EngineConfig, ExecCtx, ProgressEvent,
        ProgressKind,
    };

    /// `--fail-point SUBSTR`: points whose label contains the
    /// substring fail deterministically; everything else (and
    /// everything, without the flag) runs the real simulation. The
    /// CLI's lever for exercising the poison path end to end (run →
    /// poison record → `status --json` → HOLE cells).
    struct FailPointExec(Option<String>);

    impl FailPointExec {
        fn injected(&self, label: &str) -> Result<(), vr_core::SimError> {
            match &self.0 {
                Some(s) if label.contains(s) => Err(vr_core::SimError::BadConfig {
                    what: format!("injected by --fail-point {s:?}"),
                }),
                _ => Ok(()),
            }
        }
    }

    // Every point type the real executor runs, single-core and chip
    // alike, so the fig-chip poison path is exercisable end to end too.
    impl<P: SweepPoint> Executor<P> for FailPointExec
    where
        SimExecutor: Executor<P>,
    {
        fn execute(&self, p: &P, ctx: &ExecCtx) -> Result<P::Output, vr_core::SimError> {
            self.injected(p.label())?;
            SimExecutor.execute(p, ctx)
        }
    }
    let Some(store) = opts.store.as_ref() else {
        eprintln!("error: campaign requires --cache DIR (the store to run against)");
        std::process::exit(2);
    };
    let action = opts.workload.as_deref().unwrap_or_else(|| {
        eprintln!("error: campaign requires an action\navailable: run status verify gc");
        std::process::exit(2);
    });
    let figure = opts.figure.as_deref().unwrap_or("all");
    // Chip points are a different point type with a different result
    // shape; `PointSet` carries whichever the figure enumerates and
    // the actions below dispatch through the generic engine.
    let points = || {
        enumerate(figure, &opts.fig).unwrap_or_else(|| {
            eprintln!(
                "error: unknown or uncacheable figure {figure:?}\navailable: {}",
                figure_ids().join(" ")
            );
            std::process::exit(2);
        })
    };
    let mut r = Report::new("campaign", &format!("Campaign {action}: figure={figure}"));
    match action {
        "run" => {
            let exec = FailPointExec(opts.fail_point.clone());
            let engine = EngineConfig {
                threads: opts.threads,
                point_deadline: opts.point_deadline_ms.map(std::time::Duration::from_millis),
            };
            let cancel = CancelToken::new();
            // The engine reads the token when a thread is about to take
            // a point, and a thread reports each point it ends just
            // before taking the next, so checking the clock at every
            // report stops the run at the first point taken after N ms.
            // Each thread's first point is always taken.
            let cancel_at = opts
                .cancel_after_ms
                .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
            let sink = |ev: &ProgressEvent<'_>| {
                if cancel_at.is_some_and(|at| std::time::Instant::now() >= at) {
                    cancel.cancel();
                }
                let what = match ev.kind {
                    ProgressKind::CacheHit => "hit".to_string(),
                    ProgressKind::Computed => "computed".to_string(),
                    ProgressKind::Failed => "FAILED".to_string(),
                    ProgressKind::Poisoned => "POISONED".to_string(),
                    ProgressKind::SkippedPoisoned => "skipped (poisoned)".to_string(),
                };
                eprintln!("  [{}/{}] {} {}", ev.done, ev.total, ev.label, what);
            };
            let out = match points() {
                PointSet::Scalar(points) => {
                    run_campaign(&points, store, &exec, &engine, &cancel, Some(&sink))
                }
                PointSet::Chip(points) => {
                    run_campaign(&points, store, &exec, &engine, &cancel, Some(&sink))
                }
            };
            let mut t = Table::new(&["metric", "value"]);
            t.row(vec!["submitted".into(), out.submitted.to_string()]);
            t.row(vec!["duplicates".into(), out.duplicates.to_string()]);
            t.row(vec!["unique points".into(), out.total.to_string()]);
            t.row(vec!["cache hits".into(), out.cache_hits.to_string()]);
            t.row(vec!["computed".into(), out.computed.to_string()]);
            t.row(vec!["failed".into(), out.failed.len().to_string()]);
            t.row(vec!["poisoned".into(), out.poisoned.len().to_string()]);
            t.row(vec!["skipped (poisoned)".into(), out.skipped_poisoned.to_string()]);
            t.row(vec!["cancelled".into(), out.cancelled.to_string()]);
            r.push_table("run", t);
            if !out.failed.is_empty() {
                let mut ft = Table::new(&["point", "error"]);
                for (label, err) in &out.failed {
                    ft.row(vec![label.clone(), first_line(err)]);
                }
                r.push_table("failures", ft);
                r.failed = true;
            }
            // Poisoned points are deliberate degradation, not failure:
            // the campaign finished everything it could, the figure
            // layer renders HOLEs, and `gc` un-poisons for a retry. So
            // they get their own table but do NOT set `r.failed`.
            if !out.poisoned.is_empty() {
                let mut pt = Table::new(&["point", "error"]);
                for (label, err) in &out.poisoned {
                    pt.row(vec![label.clone(), first_line(err)]);
                }
                r.push_table("poisoned", pt);
            }
            r.push_note(if out.cancelled {
                "cancelled: run again to finish the remaining points"
            } else if out.complete() {
                "campaign complete: every point has a stored result"
            } else if out.degraded_complete() {
                "campaign degraded-complete: every point is terminal but some are \
                 poisoned (figures render HOLE cells; `campaign gc` clears poison to retry)"
            } else {
                "campaign incomplete (see failures above)"
            });
            r.attach("campaign", out.to_json());
        }
        "status" => {
            let st = match points() {
                PointSet::Scalar(points) => campaign_status(&points, store),
                PointSet::Chip(points) => campaign_status(&points, store),
            };
            let mut t = Table::new(&["metric", "value"]);
            // Built from the same `st` fields `to_json` serializes, so
            // the printed census always equals the exported one.
            t.row(vec!["submitted".into(), st.submitted.to_string()]);
            t.row(vec!["unique points".into(), st.total.to_string()]);
            t.row(vec!["present".into(), st.present.to_string()]);
            t.row(vec!["missing".into(), st.missing.to_string()]);
            t.row(vec!["poisoned".into(), st.poisoned.to_string()]);
            t.row(vec![
                "quarantine backlog".into(),
                store.quarantine_backlog().map_or_else(|e| format!("? ({e})"), |n| n.to_string()),
            ]);
            t.row(vec![
                "store records".into(),
                store.len().map_or_else(|e| format!("? ({e})"), |n| n.to_string()),
            ]);
            r.push_table("status", t);
            if st.poisoned > 0 {
                let mut pt = Table::new(&["point", "error"]);
                for rec in store.poison_list().unwrap_or_default() {
                    pt.row(vec![rec.label, first_line(&rec.error)]);
                }
                r.push_table("poison", pt);
            }
            r.attach("status", st.to_json());
        }
        "verify" => match store.verify() {
            Ok(rep) => {
                let mut t = Table::new(&["metric", "value"]);
                t.row(vec!["ok".into(), rep.ok.to_string()]);
                t.row(vec!["stale".into(), rep.stale.to_string()]);
                t.row(vec!["quarantined".into(), rep.quarantined.to_string()]);
                t.row(vec!["poisoned".into(), rep.poisoned.to_string()]);
                t.row(vec!["tmp files".into(), rep.tmp_files.to_string()]);
                t.row(vec!["quarantine backlog".into(), rep.quarantine_backlog.to_string()]);
                r.push_table("verify", t);
                r.failed = !rep.clean();
                r.push_note(if rep.clean() {
                    "store clean: every record validates"
                } else {
                    "store NOT clean (run `campaign gc` to reclaim)"
                });
            }
            Err(e) => {
                eprintln!("error: verify: {e}");
                std::process::exit(1);
            }
        },
        "gc" => {
            let result = match opts.tmp_age_ms {
                Some(ms) => store.gc_with_tmp_age(std::time::Duration::from_millis(ms)),
                None => store.gc(),
            };
            match result {
                Ok(rep) => {
                    let mut t = Table::new(&["metric", "value"]);
                    t.row(vec!["kept".into(), rep.kept.to_string()]);
                    t.row(vec!["stale removed".into(), rep.stale_removed.to_string()]);
                    t.row(vec!["corrupt removed".into(), rep.corrupt_removed.to_string()]);
                    t.row(vec!["tmp removed".into(), rep.tmp_removed.to_string()]);
                    t.row(vec!["tmp kept (young)".into(), rep.tmp_kept.to_string()]);
                    t.row(vec!["poison removed".into(), rep.poison_removed.to_string()]);
                    t.row(vec!["quarantine removed".into(), rep.quarantine_removed.to_string()]);
                    r.push_table("gc", t);
                }
                Err(e) => {
                    eprintln!("error: gc: {e}");
                    std::process::exit(1);
                }
            }
        }
        other => {
            eprintln!("error: unknown campaign action {other:?}\navailable: run status verify gc");
            std::process::exit(2);
        }
    }
    vec![r]
}

// ---------------------------------------------------------------- table 1

fn table1(_opts: &mut Opts) -> Vec<Report> {
    let c = CoreConfig::table1();
    let m = MemConfig::table1();
    let mut r = Report::new("table1", "Table 1: baseline configuration for the OoO core");
    let mut t = Table::new(&["parameter", "value"]);
    t.row(vec!["Core".into(), "4.0 GHz, out-of-order".into()]);
    t.row(vec!["ROB size".into(), c.rob.to_string()]);
    t.row(vec![
        "Queue sizes".into(),
        format!("issue ({}), load ({}), store ({})", c.iq, c.lq, c.sq),
    ]);
    t.row(vec!["Processor width".into(), format!("{}-wide fetch/dispatch/rename/commit", c.width)]);
    t.row(vec!["Pipeline depth".into(), format!("{} front-end stages", c.frontend_depth)]);
    t.row(vec![
        "Branch predictor".into(),
        "8 KB TAGE-SC-L (TAGE + loop predictor + statistical corrector)".into(),
    ]);
    t.row(vec![
        "Functional units".into(),
        format!(
            "{} int add ({}c), {} int mult ({}c), {} int div ({}c)",
            c.fu.int_alu, c.lat.int_alu, c.fu.int_mul, c.lat.int_mul, c.fu.int_div, c.lat.int_div
        ),
    ]);
    t.row(vec![
        "".into(),
        format!(
            "{} fp add ({}c), {} fp mult ({}c), {} fp div ({}c)",
            c.fu.fp_add, c.lat.fp_add, c.fu.fp_mul, c.lat.fp_mul, c.fu.fp_div, c.lat.fp_div
        ),
    ]);
    t.row(vec!["Vector units".into(), format!("{} ALU (vector-runahead engine)", c.fu.vec_alu)]);
    t.row(vec!["Register file".into(), format!("{} int, {} fp physical", c.int_regs, c.fp_regs)]);
    t.row(vec![
        "L1 D-cache".into(),
        format!(
            "{} KB, assoc {}, {}-cycle, {} MSHRs, stride pf ({} streams)",
            m.l1d.size_bytes >> 10,
            m.l1d.assoc,
            m.l1d.latency,
            m.mshrs,
            m.stride_params.0
        ),
    ]);
    t.row(vec![
        "Private L2".into(),
        format!("{} KB, assoc {}, {}-cycle", m.l2.size_bytes >> 10, m.l2.assoc, m.l2.latency),
    ]);
    t.row(vec![
        "Shared L3".into(),
        format!("{} MB, assoc {}, {}-cycle", m.l3.size_bytes >> 20, m.l3.assoc, m.l3.latency),
    ]);
    t.row(vec![
        "Memory".into(),
        format!(
            "{}-cycle min latency, 64 B per {} cycles (51.2 GB/s @ 4 GHz)",
            m.dram_min_latency, m.dram_cycles_per_line
        ),
    ]);
    r.push_table("config", t);
    vec![r]
}

// ------------------------------------------------------- figure helpers

fn speedup(s: Option<SimStats>, base: Option<SimStats>) -> Option<f64> {
    Some(s?.speedup_over(&base?))
}

/// Per workload of a list laid out as `per` points per workload,
/// baseline first: the workload name and each other point's speedup
/// over that baseline.
fn speedups_over_first<'a>(
    points: &'a [CampaignPoint],
    out: &[Option<SimStats>],
    per: usize,
) -> Vec<(&'a str, Vec<Option<f64>>)> {
    points
        .chunks(per)
        .zip(out.chunks(per))
        .map(|(p, o)| {
            (p[0].workload.name.as_str(), o[1..].iter().map(|&s| speedup(s, o[0])).collect())
        })
        .collect()
}

/// The table most figures are: one row of speedups per workload, then
/// an h-mean row. Also returns the column h-means, for the figures
/// that export them as metrics.
fn speedup_table(headers: &[&str], rows: &[(&str, Vec<Option<f64>>)]) -> (Table, Vec<Option<f64>>) {
    let mut t = Table::figure(headers, &vec![Fmt::Ratio; headers.len() - 1]);
    for (name, sps) in rows {
        t.values(name, sps.iter().copied());
    }
    let hmeans: Vec<Option<f64>> =
        (1..headers.len()).map(|i| hmean(rows.iter().map(|(_, sps)| sps[i - 1]))).collect();
    t.values("h-mean", hmeans.iter().copied());
    (t, hmeans)
}

// ---------------------------------------------------------------- table 2

fn table2(o: &FigureOpts, points: &[CampaignPoint], out: &[Option<SimStats>]) -> Report {
    let mut r =
        Report::new("table2", "Table 2: graph inputs (synthetic stand-ins) + measured LLC MPKI");
    let mut t = Table::figure(
        &["input", "nodes(K)", "edges(K)", "footprint(MB)", "LLC MPKI"],
        &[Fmt::Fixed(1); 4],
    );
    let kernels = points.len() / GraphPreset::ALL.len();
    for (p, runs) in GraphPreset::ALL.into_iter().zip(out.chunks(kernels)) {
        // The graph's size, from its shape: a CSR of `n + 1` row offsets
        // and `n × edge_factor` edges, 8 bytes each.
        let (log_n, edge_factor) = p.shape(o.scale);
        let (nodes, edges) = (1u64 << log_n, (1u64 << log_n) * edge_factor as u64);
        // Aggregate MPKI over the GAP kernels on the baseline.
        let mpki = runs.iter().copied().collect::<Option<Vec<SimStats>>>().map(|runs| {
            let misses: u64 = runs.iter().map(|s| s.mem.loads_served_at(HitLevel::Dram)).sum();
            let insts: u64 = runs.iter().map(|s| s.instructions).sum();
            misses as f64 * 1000.0 / insts as f64
        });
        r.metric(&format!("mpki_{}", p.abbrev()), mpki);
        let mb = ((nodes + 1 + edges) * 8) as f64 / (1 << 20) as f64;
        t.values(p.abbrev(), [Some(nodes as f64 / 1e3), Some(edges as f64 / 1e3), Some(mb), mpki]);
    }
    r.push_table("inputs", t);
    r
}

// ---------------------------------------------------------------- fig 7

fn fig_perf(o: &FigureOpts, points: &[CampaignPoint], out: &[Option<SimStats>]) -> Report {
    let mut r = Report::new(
        "fig-perf",
        &format!("Fig. performance: IPC normalized to the baseline OoO (budget {} insts)", o.insts),
    );
    let rows = speedups_over_first(points, out, Technique::HEADLINE.len());
    let (t, hmeans) = speedup_table(&["benchmark", "PRE", "IMP", "VR", "Oracle"], &rows);
    let techs = &Technique::HEADLINE[1..];
    for (tech, &hm) in techs.iter().zip(&hmeans) {
        r.metric(&format!("hmean_{}", tech.label()), hm);
    }
    let vr = techs.iter().position(|&t| t == Technique::Vr).expect("VR is a headline technique");
    let mut vr_chart = BarChart::new("VR speedup over the baseline OoO");
    for (name, sps) in &rows {
        if let Some(sp) = sps[vr] {
            vr_chart.bar(name, sp);
        }
    }
    r.push_table("speedup", t);
    r.push_chart(vr_chart);
    r
}

// ---------------------------------------------------------------- fig 2 / 12

fn fig_rob(_o: &FigureOpts, points: &[CampaignPoint], out: &[Option<SimStats>]) -> Report {
    let mut r = Report::new(
        "fig-rob",
        "Fig. ROB sensitivity: OoO and VR vs ROB size (back-end queues and PRF \
         scaled in proportion), normalized to OoO@350; plus full-window stall fraction",
    );
    let mut t = Table::figure(
        &["ROB", "OoO IPC", "VR IPC", "OoO norm", "VR norm", "VR/OoO", "stall%"],
        &[Fmt::Fixed(3), Fmt::Fixed(3), Fmt::Ratio, Fmt::Ratio, Fmt::Ratio, Fmt::Pct],
    );
    let robs = points::ROBS;
    let set = points.len() / (robs.len() * 2);
    // (ROB index, workload index) -> that point's OoO and VR runs.
    let ooo = |ri: usize, wi: usize| out[(ri * set + wi) * 2];
    let vr = |ri: usize, wi: usize| out[(ri * set + wi) * 2 + 1];
    let at350 = robs.iter().position(|&rob| rob == 350).expect("350 is the baseline ROB");
    // Geometric aggregation across the sweep set.
    let column = |f: &dyn Fn(usize) -> Option<f64>| (0..set).map(f).collect::<Option<Vec<f64>>>();
    let gm = |v: Option<Vec<f64>>| {
        v.map(|v| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp())
    };
    for (ri, rob) in robs.into_iter().enumerate() {
        let ooo_ipc = gm(column(&|i| Some(ooo(ri, i)?.ipc())));
        let vr_ipc = gm(column(&|i| Some(vr(ri, i)?.ipc())));
        let ooo_norm = gm(column(&|i| Some(ooo(ri, i)?.ipc() / ooo(at350, i)?.ipc())));
        let vr_norm = gm(column(&|i| Some(vr(ri, i)?.ipc() / ooo(at350, i)?.ipc())));
        let stall = column(&|i| Some(ooo(ri, i)?.full_rob_stall_fraction()))
            .map(|v| v.iter().sum::<f64>() / v.len() as f64);
        let vr_over_ooo = vr_ipc.zip(ooo_ipc).map(|(v, o)| v / o);
        t.values(&rob.to_string(), [ooo_ipc, vr_ipc, ooo_norm, vr_norm, vr_over_ooo, stall]);
    }
    r.push_table("sweep", t);
    r
}

// ---------------------------------------------------------------- fig 9

fn fig_mlp(_o: &FigureOpts, points: &[CampaignPoint], out: &[Option<SimStats>]) -> Report {
    let mut r =
        Report::new("fig-mlp", "Fig. MLP: average outstanding L1-D misses (MSHRs used per cycle)");
    let mut t = Table::figure(&["benchmark", "OoO", "VR"], &[Fmt::Fixed(2); 2]);
    for (p, o) in points.chunks(2).zip(out.chunks(2)) {
        t.values(&p[0].workload.name, o.iter().map(|s| Some(s.as_ref()?.mlp())));
    }
    r.push_table("mlp", t);
    r
}

// ---------------------------------------------------------------- fig 10

fn fig_accuracy(_o: &FigureOpts, points: &[CampaignPoint], out: &[Option<SimStats>]) -> Report {
    let mut r = Report::new(
        "fig-accuracy",
        "Fig. accuracy/coverage: DRAM line reads normalized to the baseline, \
         split main thread vs runahead",
    );
    let mut t = Table::figure(
        &["benchmark", "OoO total", "VR main", "VR runahead", "VR total(norm)"],
        &[Fmt::Int, Fmt::Fixed(2), Fmt::Fixed(2), Fmt::Fixed(2)],
    );
    for (p, o) in points.chunks(2).zip(out.chunks(2)) {
        let bt = o[0].map(|b| b.mem.dram_reads_total() as f64);
        let norm = |reads: &dyn Fn(&SimStats) -> u64| Some(reads(&o[1]?) as f64 / bt?);
        let main = norm(&|v| v.mem.dram_reads_by(Requestor::Main));
        let runahead = norm(&|v| v.mem.dram_reads_by(Requestor::Runahead));
        t.values(&p[0].workload.name, [bt, main, runahead, norm(&|v| v.mem.dram_reads_total())]);
    }
    r.push_table("dram-reads", t);
    r
}

// ---------------------------------------------------------------- fig 11

fn fig_timeliness(_o: &FigureOpts, points: &[CampaignPoint], out: &[Option<SimStats>]) -> Report {
    let mut r = Report::new(
        "fig-timeliness",
        "Fig. timeliness: where the main thread finds runahead-prefetched lines",
    );
    let mut t = Table::figure(&["benchmark", "L1", "L2", "L3", "off-chip"], &[Fmt::Pct; 4]);
    for (p, o) in points.iter().zip(out) {
        let f = o.map(|s| s.mem.timeliness_fractions());
        t.values(&p.workload.name, (0..4).map(|level| Some(f?[level])));
    }
    r.push_table("timeliness", t);
    r
}

// ---------------------------------------------------------------- veclen

fn fig_veclen(_o: &FigureOpts, points: &[CampaignPoint], out: &[Option<SimStats>]) -> Report {
    let mut r = Report::new(
        "fig-veclen",
        "Fig. vector length: VR speedup over baseline vs vectorization degree K",
    );
    let rows = speedups_over_first(points, out, 1 + points::LANES.len());
    let (t, hmeans) = speedup_table(&["benchmark", "K=16", "K=32", "K=64", "K=128"], &rows);
    for (k, &hm) in points::LANES.iter().zip(&hmeans) {
        r.metric(&format!("hmean_K{k}"), hm);
    }
    r.push_table("speedup", t);
    r
}

// ---------------------------------------------------------------- interval

fn fig_interval(_o: &FigureOpts, points: &[CampaignPoint], out: &[Option<SimStats>]) -> Report {
    let mut r = Report::new(
        "fig-interval",
        "Fig. trigger/interval statistics (VR): entries, runahead-time, \
         full-window stall, delayed-termination commit stall",
    );
    let mut t = Table::figure(
        &[
            "benchmark",
            "entries",
            "ra-time",
            "stall(OoO)",
            "delay-stall",
            "batches",
            "lanes",
            "inv",
        ],
        &[Fmt::Int, Fmt::Pct, Fmt::Pct, Fmt::Pct, Fmt::Int, Fmt::Int, Fmt::Int],
    );
    for (p, o) in points.chunks(2).zip(out.chunks(2)) {
        let (b, v) = (o[0], o[1]);
        let of_vr = |f: &dyn Fn(SimStats) -> f64| v.map(f);
        t.values(
            &p[0].workload.name,
            [
                of_vr(&|v| v.runahead_entries as f64),
                of_vr(&|v| v.runahead_cycles as f64 / v.cycles as f64),
                b.map(|b| b.full_rob_stall_fraction()),
                of_vr(&|v| v.delayed_termination_stall_cycles as f64 / v.cycles as f64),
                of_vr(&|v| v.vr_batches as f64),
                of_vr(&|v| v.vr_lanes_spawned as f64),
                of_vr(&|v| v.vr_lanes_invalidated as f64),
            ],
        );
    }
    r.push_table("intervals", t);
    r
}

// ---------------------------------------------------------------- ablations

/// Design ablation and extensions of the VR engine, one column per
/// `points::ablation_variants` label.
fn fig_ablation(_o: &FigureOpts, points: &[CampaignPoint], out: &[Option<SimStats>]) -> Report {
    let mut r = Report::new(
        "fig-ablation",
        "Fig. design ablations: VR, no VIR pipelining, +bounded termination, +eager \
         (decoupled) trigger [extensions], speedup over the baseline OoO",
    );
    let labels = points::ablation_variants().map(|(label, _)| label);
    let rows = speedups_over_first(points, out, 1 + labels.len());
    let headers: Vec<&str> = std::iter::once("benchmark").chain(labels).collect();
    let (t, hmeans) = speedup_table(&headers, &rows);
    for (label, &hm) in labels.iter().zip(&hmeans) {
        r.metric(&format!("hmean_{}", label.trim_start_matches('+')), hm);
    }
    r.push_table("speedup", t);
    r
}

/// Sensitivity to the MSHR count — the resource VR saturates.
fn fig_mshr(_o: &FigureOpts, points: &[CampaignPoint], out: &[Option<SimStats>]) -> Report {
    let mut r =
        Report::new("fig-mshr", "Fig. MSHR sensitivity: VR speedup over same-MSHR baseline");
    // Per workload, an (OoO, VR) pair per MSHR count: each column has
    // its own baseline.
    let per = points::MSHRS.len() * 2;
    let rows: Vec<(&str, Vec<Option<f64>>)> = points
        .chunks(per)
        .zip(out.chunks(per))
        .map(|(p, o)| {
            let sps = o.chunks(2).map(|pair| speedup(pair[1], pair[0])).collect();
            (p[0].workload.name.as_str(), sps)
        })
        .collect();
    let (t, _) = speedup_table(&["benchmark", "8", "16", "24", "48"], &rows);
    r.push_table("speedup", t);
    r
}

// ---------------------------------------------------------------- fig chip

/// Multi-core chip figure (DESIGN.md §16): N cores contend for the
/// shared banked LLC + DRAM broker, homogeneous and mixed workload
/// placements, VR on vs off. Deliberately not part of `all`: a chip
/// point costs N single-core budgets, and the contention columns are
/// a capability artifact rather than a paper figure.
fn fig_chip(o: &FigureOpts, points: &[ChipPoint], runs: &[Option<ChipRun>]) -> Report {
    let mut r = Report::new(
        "fig-chip",
        &format!(
            "Fig. chip: VR under shared-LLC contention, N ∈ {:?} cores (budget {} insts/core)",
            points::CHIP_CORE_COUNTS,
            o.insts
        ),
    );

    // Chip-level fast-forward telemetry (an attachment in the JSON
    // export, with no schema tag until the CPI-stack export
    // defines one): how the chip *simulated*, never
    // what it simulated — the figure's tables and stored records are
    // byte-identical with or without it. A direct probe run of one
    // representative 4-core point, because store-hit points skip
    // simulation entirely (their telemetry would be all zeros).
    if let Some(p) = points
        .iter()
        .find(|p| p.chip.cores == 4 && p.label.ends_with("/VR"))
        .or_else(|| points.last())
    {
        let slots = p
            .slots
            .iter()
            .map(|s| vr_chip::CoreSlot {
                ra: s.ra.clone(),
                program: s.workload.program.clone(),
                memory: s.workload.memory.clone(),
                init_regs: s.workload.init_regs.clone(),
            })
            .collect();
        let mut chip = vr_chip::Chip::new(p.chip, p.core.clone(), p.mem.clone(), slots);
        if chip.try_run(p.max_insts).is_ok() {
            let mut j = chip.telemetry().to_json();
            if let vr_obs::Json::Obj(fields) = &mut j {
                fields.insert(0, ("point".into(), vr_obs::Json::Str(p.label.clone())));
            }
            r.attach("chip_ff", j);
        }
    }
    let per_core_hmean = |run: &ChipRun| {
        let ipcs: Vec<f64> = run.per_core.iter().map(|s| s.ipc()).collect();
        harmonic_mean(&ipcs)
    };

    // Per-point contention census: the shared-LLC counters only a
    // chip-level run can produce (all zero at N=1 — no shared LLC).
    let mut t = Table::figure(
        &["point", "cores", "IPC/core", "bank-conf", "arb-stall", "mshr-rej", "LLC hit%"],
        &[Fmt::Int, Fmt::Fixed(3), Fmt::Int, Fmt::Int, Fmt::Int, Fmt::Pct],
    );
    for (p, run) in points.iter().zip(runs) {
        let run = run.as_ref();
        let hm = run.map(per_core_hmean);
        let of_chip = |f: &dyn Fn(&vr_chip::ChipStats) -> f64| run.map(|run| f(&run.chip));
        r.metric(&format!("ipc_{}", p.label), hm);
        r.metric(&format!("bank_conflicts_{}", p.label), of_chip(&|c| c.bank_conflicts as f64));
        t.values(
            &p.label,
            [
                Some(p.chip.cores as f64),
                hm,
                of_chip(&|c| c.bank_conflicts as f64),
                of_chip(&|c| c.arbitration_stall_cycles as f64),
                of_chip(&|c| c.shared_mshr_rejections as f64),
                // No lookups means no hits: 0 / 1.
                of_chip(&|c| c.llc_hits as f64 / (c.llc_hits + c.llc_misses).max(1) as f64),
            ],
        );
    }
    r.push_table("contention", t);

    // VR/OoO speedup per (placement, N) — how much of single-core
    // VR's win survives contention. The point list is OoO-then-VR
    // pairs, so adjacent runs pair up.
    let mut s = Table::figure(
        &["placement", "cores", "OoO IPC", "VR IPC", "VR/OoO"],
        &[Fmt::Int, Fmt::Fixed(3), Fmt::Fixed(3), Fmt::Ratio],
    );
    let mut chart = BarChart::new("VR speedup over OoO under shared-LLC contention");
    for (pp, rr) in points.chunks(2).zip(runs.chunks(2)) {
        let ([po, pv], [ro, rv]) = (pp, rr) else { continue };
        assert!(
            po.label.ends_with("/OoO") && pv.label.ends_with("/VR"),
            "the point list must pair OoO/VR"
        );
        let (o_ipc, v_ipc) = (ro.as_ref().map(per_core_hmean), rv.as_ref().map(per_core_hmean));
        let sp = v_ipc.zip(o_ipc).map(|(v, o)| v / o);
        let name = po.label.trim_end_matches("/OoO").trim_start_matches("fig-chip/");
        r.metric(&format!("speedup_{name}"), sp);
        if let Some(sp) = sp {
            chart.bar(name, sp);
        }
        // A pair with either side poisoned has no comparison to show:
        // the healthy side's IPC is in the census above.
        s.values(name, [Some(po.chip.cores as f64), sp.and(o_ipc), sp.and(v_ipc), sp]);
    }
    r.push_table("speedup", s);
    r.push_chart(chart);
    r
}

// ---------------------------------------------------------------- hw table

fn table_hw(_opts: &mut Opts) -> Vec<Report> {
    let mut r = Report::new("table-hw", "Hardware overhead of the Vector Runahead structures");
    let mut t = Table::new(&["structure", "bits", "bytes"]);
    let items = vr_core::hardware_overhead_bits(128);
    let mut total = 0u64;
    for (name, bits) in &items {
        total += bits;
        t.row(vec![(*name).into(), bits.to_string(), format!("{:.1}", *bits as f64 / 8.0)]);
    }
    t.row(vec!["TOTAL".into(), total.to_string(), format!("{:.0}", (total as f64 / 8.0).ceil())]);
    r.metric("total_bits", Some(total as f64));
    r.push_table("overhead", t);
    vec![r]
}

// ---------------------------------------------------------------- trace

/// Pipeline-diagram trace of one workload under Vector Runahead:
/// runs the workload with both the pipeline trace and the episode
/// telemetry enabled, asserts the trace is well-ordered, and renders
/// the commit window with runahead episodes annotated (`<RA>` rows,
/// `== runahead episode ==` separators). The full telemetry is
/// attached to the JSON export, with no schema tag until the CPI-stack
/// export defines one.
fn trace_cmd(opts: &mut Opts) -> Vec<Report> {
    use vr_core::PipelineTrace;
    const TRACE_WINDOW: usize = 64;
    /// Records of context rendered before the focused episode's entry.
    const CONTEXT: usize = 8;
    /// Cap on retained records (~80 B each) for huge `--insts` budgets.
    const MAX_RETAINED: usize = 1 << 18;
    let sets = Sets::new(opts.fig.clone());
    let set = sets.full();
    let names = || set.iter().map(|w| w.name.as_str()).collect::<Vec<_>>().join(" ");
    let Some(name) = &opts.workload else {
        eprintln!("error: trace requires a workload name\navailable: {}", names());
        std::process::exit(2);
    };
    let Some(w) = set.iter().find(|w| &w.name == name) else {
        eprintln!("error: unknown workload {name:?}\navailable: {}", names());
        std::process::exit(2);
    };
    let (mem, ra) = Technique::Vr.configure();
    let mut sim = Simulator::new(
        CoreConfig::table1(),
        mem,
        ra,
        w.program.clone(),
        w.memory.clone(),
        &w.init_regs,
    );
    sim.enable_trace(usize::try_from(opts.fig.insts).unwrap_or(MAX_RETAINED).min(MAX_RETAINED));
    sim.enable_telemetry(4096);
    let stats = sim.try_run(opts.fig.insts).unwrap_or_else(|e| {
        eprintln!("error: {name}: {e}");
        std::process::exit(1);
    });
    let full = sim.trace().expect("trace was enabled");
    assert!(full.is_well_ordered(), "pipeline trace violates stage ordering");
    let tel = sim.telemetry().expect("telemetry was enabled");

    // Focus the rendered window on the last completed episode the
    // trace still covers (rendering the whole run would be thousands
    // of lines); fall back to the final commits when the run had no
    // episodes. The focused records are re-pushed into a small
    // PipelineTrace so the column widths fit the window, not the run.
    let records: Vec<&vr_core::TraceRecord> = full.records().collect();
    let covered = records.first().map_or(u64::MAX, |r| r.fetch_at);
    let focus = tel
        .episodes()
        .filter(|e| e.exited_at >= covered)
        .last()
        .map(|e| (e.episode.entered_at, e.exited_at));
    let start = match focus {
        Some((entered, _)) => records
            .iter()
            .position(|r| r.commit_at >= entered)
            .unwrap_or(records.len())
            .saturating_sub(CONTEXT),
        None => records.len().saturating_sub(TRACE_WINDOW),
    };
    let mut window = PipelineTrace::new(TRACE_WINDOW);
    for r in records.iter().skip(start).take(TRACE_WINDOW) {
        window.push(**r);
    }
    // Only annotate episodes overlapping the window — earlier ones
    // would render as a stack of separators above it.
    let window_start = window.records().next().map_or(0, |r| r.fetch_at);
    let episodes: Vec<(u64, u64)> = tel
        .episodes()
        .map(|e| (e.episode.entered_at, e.exited_at))
        .filter(|&(_, exited)| exited >= window_start)
        .collect();

    let mut r = Report::new(
        "trace",
        &format!(
            "Pipeline trace: {name} under VR (last {TRACE_WINDOW} commits, episodes annotated)"
        ),
    );
    let mut s = Table::new(&["metric", "value"]);
    s.row(vec!["cycles".into(), stats.cycles.to_string()]);
    s.row(vec!["instructions".into(), stats.instructions.to_string()]);
    s.row(vec!["IPC".into(), format!("{:.3}", stats.ipc())]);
    let completed =
        stats.runahead_entries - stats.runahead_aborts - u64::from(sim.episode().is_some());
    s.row(vec!["runahead entries".into(), stats.runahead_entries.to_string()]);
    s.row(vec!["episodes completed".into(), completed.to_string()]);
    s.row(vec!["vector batches".into(), stats.vr_batches.to_string()]);
    s.row(vec!["lanes spawned".into(), stats.vr_lanes_spawned.to_string()]);
    r.push_table("summary", s);
    let mut et = Table::new(&["trigger pc", "entered", "exited", "kind", "batches", "lanes"]);
    for e in tel.episodes() {
        et.row(vec![
            format!("{:#x}", e.episode.trigger_pc),
            e.episode.entered_at.to_string(),
            e.exited_at.to_string(),
            e.episode.kind.label().into(),
            e.batches.to_string(),
            e.lanes_spawned.to_string(),
        ]);
    }
    r.push_table("episodes", et);
    r.push_note(window.render_annotated(&episodes));
    r.metric("ipc", Some(stats.ipc()));
    r.attach("telemetry", tel.to_json(sim.episode()));
    vec![r]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> FigureOpts {
        FigureOpts { insts: 10_000, presets: vec![GraphPreset::Kron], scale: Scale::Test }
    }

    #[test]
    fn every_id_is_one_row_and_only_figures_have_points() {
        let mut ids: Vec<&str> = COMMANDS.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        let rows = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), rows, "an id appears in two rows");
        for id in ["table1", "table-hw", "trace", "bogus"] {
            assert!(enumerate(id, &quick()).is_none(), "{id}");
        }
        assert!(figure_ids().contains(&"fig-chip") && !figure_ids().contains(&"table1"));
    }

    #[test]
    fn every_figure_enumerates_labelled_points_and_all_is_their_union() {
        let o = quick();
        let mut sum = 0usize;
        for id in figure_ids() {
            let mut labels: Vec<String> = match enumerate(id, &o).expect("a figure enumerates") {
                PointSet::Scalar(points) => {
                    sum += points.len();
                    points.into_iter().map(|p| p.label).collect()
                }
                PointSet::Chip(points) => points.into_iter().map(|p| p.label).collect(),
            };
            assert!(!labels.is_empty(), "{id} enumerated no points");
            assert!(
                labels.iter().all(|l| l.starts_with(&format!("{id}/"))),
                "{id} labels must be figure-prefixed"
            );
            labels.sort_unstable();
            let before = labels.len();
            labels.dedup();
            assert_eq!(labels.len(), before, "{id} has duplicate labels");
        }
        let Some(PointSet::Scalar(all)) = enumerate("all", &o) else {
            panic!("`all` is a single-core point set")
        };
        assert_eq!(all.len(), sum, "`all` must be exactly the single-core figures' union");
    }

    /// Two of the paper's Fig. 7 claims, read back from the rendered
    /// table: Oracle bounds every technique on every row and on the
    /// h-mean, and VR's h-mean is a speedup.
    #[test]
    fn fig_perf_oracle_bounds_every_technique_and_vr_speeds_up() {
        let opts =
            FigureOpts { insts: 20_000, presets: vec![GraphPreset::Kron], scale: Scale::Test };
        let points = points::fig_perf(&Sets::new(opts.clone()));
        let (out, holes) = sweep(&points, None, 2);
        assert!(holes.is_empty(), "{holes:?}");
        let r = fig_perf(&opts, &points, &out);
        let t = r.table("speedup").expect("fig-perf has a speedup table");
        let rows: Vec<String> = t.rows().into_iter().map(|row| row[0].clone()).collect();
        assert_eq!(rows.len(), 14, "13 benchmarks and the h-mean: {rows:?}");
        assert_eq!(rows[13], "h-mean");
        let value =
            |row: &str, col: &str| t.value(row, col).unwrap_or_else(|| panic!("{row}/{col}"));
        for row in &rows {
            let oracle = value(row, "Oracle");
            for tech in ["PRE", "IMP", "VR"] {
                let sp = value(row, tech);
                assert!(oracle >= sp, "{row}: Oracle {oracle:.3}x < {tech} {sp:.3}x");
            }
        }
        let vr = value("h-mean", "VR");
        assert!(vr > 1.0, "VR h-mean {vr:.3}x is no speedup");
    }

    /// Point `i`'s synthetic stats: every counter a render reads is a
    /// distinct function of `i`, so a render that reads the wrong
    /// counter or the wrong point moves the pin.
    fn synthetic(i: u64) -> SimStats {
        let k = i + 1;
        let mut s = SimStats {
            cycles: 1_000 + 7 * k,
            instructions: 600 + 5 * k + k * k % 13,
            full_rob_stall_cycles: 100 + 3 * k,
            commit_stall_cycles: 50 + 2 * k,
            runahead_entries: k,
            runahead_cycles: 40 + 9 * k,
            delayed_termination_stall_cycles: 20 + 4 * k,
            vr_batches: 2 * k,
            vr_lanes_spawned: 61 * k,
            vr_lanes_invalidated: k / 2,
            mshr_occupancy_integral: 2_000 + 17 * k,
            ..SimStats::default()
        };
        s.mem.load_hits = [10 * k, 3 * k, 2 * k + 1, 30 + k];
        s.mem.dram_reads = [40 + 2 * k, 7 * k, 1, k % 3];
        s.mem.timeliness = [k, k + 1, 2 * k, 3];
        s
    }

    /// With `holes`, every 5th point is a HOLE.
    fn synthetic_outputs<O>(n: usize, holes: bool, output: impl Fn(u64) -> O) -> Vec<Option<O>> {
        (0..n).map(|i| (!holes || i % 5 != 4).then(|| output(i as u64))).collect()
    }

    /// Every figure's text, JSON and CSV, pinned over synthetic outputs
    /// so the pin holds however the simulator's statistics move: once
    /// with every 5th point a HOLE, and once with none (a HOLE in each
    /// 5-point group would otherwise mask whole columns and aggregates).
    #[test]
    fn every_figure_render_is_pinned() {
        let fnv = |s: &str| vr_obs::Fnv64::new().str(s).finish();
        let opts =
            FigureOpts { insts: 1_000, presets: vec![GraphPreset::Kron], scale: Scale::Test };
        let sets = Sets::new(opts.clone());
        let mut got = Vec::new();
        for (holes, c) in
            [true, false].into_iter().flat_map(|h| COMMANDS.iter().map(move |c| (h, c)))
        {
            let r = match c.run {
                Run::Tool(_) => continue,
                Run::Scalar(points, render) => {
                    let points = points(&sets);
                    render(&opts, &points, &synthetic_outputs(points.len(), holes, synthetic))
                }
                Run::Chip(points, render) => {
                    let points = points(&sets);
                    let out = synthetic_outputs(points.len(), holes, |i| {
                        let k = i + 1;
                        ChipRun {
                            per_core: (0..points[i as usize].chip.cores as u64)
                                .map(|c| synthetic(8 * i + c))
                                .collect(),
                            chip: vr_chip::ChipStats {
                                cycles: 1_000 + 7 * k,
                                bank_conflicts: 3 * k,
                                arbitration_stall_cycles: 5 * k,
                                shared_mshr_rejections: 7 * k,
                                llc_hits: 11 * k,
                                llc_misses: 13 * k,
                                dram_writebacks: k,
                            },
                        }
                    });
                    render(&opts, &points, &out)
                }
            };
            got.push((
                c.id,
                holes,
                fnv(&r.render_text()),
                fnv(&r.to_json().to_pretty()),
                fnv(&r.to_csv()),
            ));
        }
        let want: &[(&str, bool, u64, u64, u64)] = &[
            ("table2", true, 0xb2c9a65201079117, 0x43ed9f2de0c14905, 0x5e85c6407116498f),
            ("fig-perf", true, 0x21957a880a9d6c90, 0x7243f221c94663ca, 0x954d2eddf373beb7),
            ("fig-rob", true, 0x54712dda9c7cf410, 0x9552e8af17114cdc, 0x3ae3bd4e0efa8731),
            ("fig-mlp", true, 0x0d0e11ef71c2aa06, 0x5819cfdb44c49b09, 0xf140e4f336362e7f),
            ("fig-accuracy", true, 0xb74eebcdea0f1e30, 0x61e0f9d84c37d0cc, 0xf95521e00281bc4d),
            ("fig-timeliness", true, 0xf40329dd2b933117, 0x76e95c0940390f47, 0x47c33518267e08d8),
            ("fig-veclen", true, 0xc320750d7ad1403e, 0x3858426980a8da0e, 0x57fad72838b03362),
            ("fig-interval", true, 0x8443a301c878dbf2, 0xe8209fbbe2d2182f, 0xb281e98459e6f2d3),
            ("fig-ablation", true, 0x727e436e0e22fec4, 0xbf818d0505e96586, 0x7c4f31dbece64f71),
            ("fig-mshr", true, 0x967d517c43eb2e4f, 0xc2105a526f53e865, 0x7a80bbf469b867f1),
            ("fig-chip", true, 0x54ce59625382b15a, 0x24b54cbca58eacd9, 0x219cff65eff9d0ec),
            ("table2", false, 0xad34bc7bc306a155, 0x33adaf4ea8907e20, 0x514166c78791594b),
            ("fig-perf", false, 0x014078db3d0810f6, 0x04d482868be22154, 0x2375c94de351b9db),
            ("fig-rob", false, 0x18c1d1ce60504c98, 0x6ee05433856941d4, 0x116a47b504fa5490),
            ("fig-mlp", false, 0x8dd22bc62411c4ff, 0x5f45a366c2970f24, 0x38bcd90127f3705e),
            ("fig-accuracy", false, 0x7be515439e34d049, 0x2815f4e97fe3ee31, 0xbb5fa1d1c126b35c),
            ("fig-timeliness", false, 0x652891188e06f660, 0x217a2a6fd21ca497, 0xeef05a161ef09ad8),
            ("fig-veclen", false, 0x3843542a8ceb9945, 0x2ac4dbfd8362a5b2, 0xba2db4b1d5fc40d2),
            ("fig-interval", false, 0x40b34b930f0c09ff, 0xc8b6dac7f89267c6, 0xf74dee2cbf297452),
            ("fig-ablation", false, 0x95fda63df66b6db7, 0xe1444f6598697552, 0xf982a8a2f4332033),
            ("fig-mshr", false, 0xc7c2ac22c7417b39, 0x72adb2f8513abcf0, 0x277d08773a5837dc),
            ("fig-chip", false, 0x9458c57b05974aff, 0x891ef0c9551b53e8, 0xa5273307ec9368c7),
        ];
        assert_eq!(got, want);
    }
}
