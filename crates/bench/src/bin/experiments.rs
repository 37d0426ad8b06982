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
//! engine, against the `--cache` store when there is one), render — so
//! `all`, `--cache`, `campaign run/status/serve` and `perf-report` all
//! read the same table, and every figure is bit-identical at any
//! `--threads` and against any store.
//!
//! The text printed to stdout and the `--json` / `--csv` exports are
//! rendered from the *same* reports, so exported values always equal
//! the printed ones (see DESIGN.md §10).

use std::path::PathBuf;

use vr_bench::points::{self, FigureOpts, Sets};
use vr_bench::report::{write_exports, Report, RunMeta};
use vr_bench::{cell, hmean, pct, ratio, run_technique, sweep, BarChart, Table, Technique};
use vr_campaign::{CampaignPoint, ChipPoint, PointSet};
use vr_chip::ChipRun;
use vr_core::{harmonic_mean, CoreConfig, RunaheadConfig, SimStats, Simulator};
use vr_mem::{HitLevel, MemConfig, Requestor};
use vr_workloads::{graph::GraphPreset, Scale, Workload};

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
    /// `campaign run` (the supervisor stops a point that exceeds it).
    point_deadline_ms: Option<u64>,
    /// `--tmp-age-ms N`: minimum tmp-file age for `campaign gc`
    /// reclamation (default: the store's 60 s grace period).
    tmp_age_ms: Option<u64>,
    /// `--shards N`: total shard count for `campaign serve` (each
    /// point fingerprint is owned by exactly one shard).
    shards: u32,
    /// `--shard I`: this process's shard index for `campaign serve`.
    shard: u32,
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
    Tool(fn(&Opts) -> Vec<Report>),
    /// A figure over single-core points: its point list and render.
    Scalar(fn(&Sets) -> Vec<CampaignPoint>, Render<CampaignPoint, SimStats>),
    /// A figure over multi-core chip points.
    Chip(fn(&Sets) -> Vec<ChipPoint>, Render<ChipPoint, ChipRun>),
}

const fn tool(
    id: &'static str,
    help: &'static str,
    in_all: bool,
    run: fn(&Opts) -> Vec<Report>,
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

/// The one table: usage text, dispatch, `all`, the campaign point
/// sets and `perf-report`'s figure timing are all read off it, in this
/// order, so adding a row here is the *only* step needed to expose a
/// command or a figure everywhere.
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
    tool("fault-oracle", "fault-injection architectural-invisibility check", false, fault_oracle),
    tool("perf-report", "simulator-throughput report (writes BENCH_sim.json)", false, perf_report),
    tool(
        "campaign",
        "result-store campaign over the figure sim points (run/serve/status/verify/gc)",
        false,
        campaign_cmd,
    ),
    tool("all", "every paper table and figure above", false, all_figures),
];

/// Runs one command. A figure is enumerated from `sets`, swept through
/// the campaign engine against the `--cache` store (if any) and
/// rendered from `(points, outputs)`.
fn run_cmd(cmd: &Cmd, opts: &Opts, sets: &Sets) -> Vec<Report> {
    let store = vr_bench::cache::active();
    match cmd.run {
        Run::Tool(run) => run(opts),
        Run::Scalar(points, render) => {
            let points = points(sets);
            vec![render(&opts.fig, &points, &sweep(&points, store, opts.threads))]
        }
        Run::Chip(points, render) => {
            let points = points(sets);
            vec![render(&opts.fig, &points, &sweep(&points, store, opts.threads))]
        }
    }
}

fn all_figures(opts: &Opts) -> Vec<Report> {
    let sets = Sets::new(opts.fig.clone());
    COMMANDS.iter().filter(|c| c.in_all).flat_map(|c| run_cmd(c, opts, &sets)).collect()
}

/// The ids `campaign --figure` (and a serve manifest) accepts besides
/// `all`: every figure with a point list.
fn figure_ids() -> Vec<&'static str> {
    COMMANDS.iter().filter(|c| !matches!(c.run, Run::Tool(_))).map(|c| c.id).collect()
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
         \x20 --insts N     instruction budget per run (default 200000)\n\
         \x20 --all-inputs  run GAP on all five graph presets (default KR + UR)\n\
         \x20 --quick       small inputs and budgets (smoke test)\n\
         \x20 --threads N   worker threads for the sweep runner (0 or default: all cores)\n\
         \x20 --cache DIR   route every figure point through the result store at DIR\n\
         \x20               (cached figure output is byte-identical to uncached)\n\
         \x20 --json PATH   export every report as schema-versioned JSON\n\
         \x20 --csv PATH    export every table as CSV\n\
         \x20 --figure ID   restrict `campaign` to one figure's points (default: all)\n\
         \x20 --cancel-after-ms N  cancel a `campaign run` after N ms (testing aid)\n\
         \x20 --fail-point S       fail points whose label contains S (testing aid)\n\
         \x20 --point-deadline-ms N  per-point wall-clock deadline for `campaign run`\n\
         \x20 --tmp-age-ms N       min tmp-file age for `campaign gc` (default 60000)\n\
         \x20 --shards N    total shard count for `campaign serve` (default 1)\n\
         \x20 --shard I     this process's shard index for `campaign serve` (default 0)\n\
         \nthe `trace` id takes a positional workload name (see its error text \
         for the available names); `campaign` takes a positional action \
         (run, serve, status, verify, gc) and requires --cache DIR. `campaign \
         serve` reads one manifest JSON per stdin line and streams one outcome \
         JSON line per manifest to stdout.\n",
    );
    u
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
    let mut insts: u64 = 200_000;
    let mut presets = vec![GraphPreset::Kron, GraphPreset::Urand];
    let mut scale = Scale::Paper;
    let mut threads = vr_bench::default_threads();
    let mut json: Option<PathBuf> = None;
    let mut csv: Option<PathBuf> = None;
    let mut workload: Option<String> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut figure: Option<String> = None;
    let mut cancel_after_ms: Option<u64> = None;
    let mut fail_point: Option<String> = None;
    let mut point_deadline_ms: Option<u64> = None;
    let mut tmp_age_ms: Option<u64> = None;
    let mut shards: u32 = 1;
    let mut shard: u32 = 0;
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--insts" => {
                insts = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("error: --insts requires a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--threads" => {
                // 0 is an explicit "auto": every available core.
                threads = match it.next().and_then(|v| v.parse().ok()) {
                    Some(0) => vr_bench::default_threads(),
                    Some(n) => n,
                    None => {
                        eprintln!("error: --threads requires a non-negative integer");
                        std::process::exit(2);
                    }
                };
            }
            "--cache" => {
                cache_dir = match it.next() {
                    Some(p) => Some(PathBuf::from(p)),
                    None => {
                        eprintln!("error: --cache requires a directory path");
                        std::process::exit(2);
                    }
                };
            }
            "--figure" => {
                figure = match it.next() {
                    Some(f) => Some(f.clone()),
                    None => {
                        eprintln!("error: --figure requires a figure id");
                        std::process::exit(2);
                    }
                };
            }
            "--cancel-after-ms" => {
                cancel_after_ms = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) => Some(n),
                    None => {
                        eprintln!("error: --cancel-after-ms requires an integer");
                        std::process::exit(2);
                    }
                };
            }
            "--fail-point" => {
                fail_point = match it.next() {
                    Some(s) => Some(s.clone()),
                    None => {
                        eprintln!("error: --fail-point requires a label substring");
                        std::process::exit(2);
                    }
                };
            }
            "--point-deadline-ms" => {
                point_deadline_ms = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) => Some(n),
                    None => {
                        eprintln!("error: --point-deadline-ms requires an integer");
                        std::process::exit(2);
                    }
                };
            }
            "--tmp-age-ms" => {
                tmp_age_ms = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) => Some(n),
                    None => {
                        eprintln!("error: --tmp-age-ms requires an integer");
                        std::process::exit(2);
                    }
                };
            }
            "--shards" => {
                shards = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => {
                        eprintln!("error: --shards requires a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--shard" => {
                shard = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("error: --shard requires a non-negative integer");
                        std::process::exit(2);
                    }
                };
            }
            "--all-inputs" => presets = GraphPreset::ALL.to_vec(),
            "--quick" => {
                scale = Scale::Test;
                insts = 60_000;
            }
            "--json" => {
                json = match it.next() {
                    Some(p) => Some(PathBuf::from(p)),
                    None => {
                        eprintln!("error: --json requires a path");
                        std::process::exit(2);
                    }
                };
            }
            "--csv" => {
                csv = match it.next() {
                    Some(p) => Some(PathBuf::from(p)),
                    None => {
                        eprintln!("error: --csv requires a path");
                        std::process::exit(2);
                    }
                };
            }
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
    let opts = Opts {
        fig: FigureOpts { insts, presets, scale },
        threads,
        workload,
        figure,
        cancel_after_ms,
        fail_point,
        point_deadline_ms,
        tmp_age_ms,
        shards,
        shard,
    };

    if let Some(dir) = &cache_dir {
        if let Err(e) = vr_bench::cache::enable(dir) {
            eprintln!("error: cannot open result store at {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    let reports = run_cmd(cmd, &opts, &Sets::new(opts.fig.clone()));
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
    if let Some(c) = vr_bench::cache::counters() {
        eprintln!(
            "cache: {} hits, {} misses, {} writes, {} stale, {} quarantined",
            c.hits, c.misses, c.writes, c.stale, c.quarantined
        );
    }
    // Degradation summary: poisoned points rendered as HOLE cells are
    // loud on stderr but never fatal — a partial figure beats no
    // figure, and the poison record says exactly what to retry.
    let holes = vr_bench::cache::holes();
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
/// column layout; the complete text lives in the poison record.
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
fn campaign_cmd(opts: &Opts) -> Vec<Report> {
    use vr_campaign::{
        campaign_status, run_campaign, serve_lines, CancelToken, EngineConfig, ExecCtx, Executor,
        Manifest, ProgressEvent, ProgressKind, ServeConfig, ShardSpec, SimExecutor,
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

    impl Executor for FailPointExec {
        fn execute(&self, p: &CampaignPoint, ctx: &ExecCtx) -> Result<SimStats, vr_core::SimError> {
            self.injected(&p.label)?;
            SimExecutor.execute(p, ctx)
        }
    }

    // The same fault injection for multi-core chip points, so the
    // fig-chip poison path (`--fail-point` → HOLE cells) is
    // exercisable end to end too.
    impl Executor<ChipPoint> for FailPointExec {
        fn execute(&self, p: &ChipPoint, ctx: &ExecCtx) -> Result<ChipRun, vr_core::SimError> {
            self.injected(&p.label)?;
            Executor::<ChipPoint>::execute(&SimExecutor, p, ctx)
        }
    }
    let Some(store) = vr_bench::cache::active() else {
        eprintln!("error: campaign requires --cache DIR (the store to run against)");
        std::process::exit(2);
    };
    let action = opts.workload.as_deref().unwrap_or_else(|| {
        eprintln!("error: campaign requires an action\navailable: run serve status verify gc");
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
    // What `run` and `serve` share: the executor, the engine knobs and
    // the `--cancel-after-ms` timer.
    let exec = FailPointExec(opts.fail_point.clone());
    let engine = EngineConfig {
        threads: opts.threads,
        point_deadline: opts.point_deadline_ms.map(std::time::Duration::from_millis),
        ..EngineConfig::default()
    };
    let cancel = CancelToken::new();
    if let (Some(ms), "run" | "serve") = (opts.cancel_after_ms, action) {
        let timer_token = cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            timer_token.cancel();
        });
    }
    let mut r = Report::new("campaign", &format!("Campaign {action}: figure={figure}"));
    match action {
        "run" => {
            let sink = |ev: &ProgressEvent<'_>| {
                let what = match ev.kind {
                    ProgressKind::CacheHit => "hit".to_string(),
                    ProgressKind::Computed => "computed".to_string(),
                    ProgressKind::Retried { attempt } => format!("retry (attempt {attempt})"),
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
            t.row(vec!["retries".into(), out.retries.to_string()]);
            t.row(vec!["failed".into(), out.failed.len().to_string()]);
            t.row(vec!["poisoned".into(), out.poisoned.len().to_string()]);
            t.row(vec!["skipped (poisoned)".into(), out.skipped_poisoned.to_string()]);
            t.row(vec!["cancelled".into(), out.cancelled.to_string()]);
            r.push_table("run", t);
            if !out.failed.is_empty() {
                let mut ft = Table::new(&["point", "error"]);
                for (label, err) in &out.failed {
                    ft.row(vec![label.clone(), err.clone()]);
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
        "serve" => {
            let shard = ShardSpec::new(opts.shards, opts.shard).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
            let cfg = ServeConfig { engine, shard };
            // Manifests carry their own budget/scale/presets; the
            // CLI-level figure options apply only to the other
            // actions. Presets default to the CLI default pair.
            let enumerate_manifest = |m: &Manifest| -> Result<PointSet, String> {
                let scale = if m.scale == "paper" { Scale::Paper } else { Scale::Test };
                let presets = if m.presets.is_empty() {
                    vec![GraphPreset::Kron, GraphPreset::Urand]
                } else {
                    m.presets
                        .iter()
                        .map(|s| {
                            GraphPreset::ALL
                                .into_iter()
                                .find(|p| p.abbrev() == s)
                                .ok_or_else(|| format!("unknown graph preset {s:?}"))
                        })
                        .collect::<Result<Vec<_>, String>>()?
                };
                enumerate(&m.figure, &FigureOpts { insts: m.insts, presets, scale })
                    .ok_or_else(|| format!("unknown or uncacheable figure {:?}", m.figure))
            };
            let summary = serve_lines(
                &mut std::io::stdin().lock(),
                &mut std::io::stdout().lock(),
                store,
                &exec,
                &cfg,
                &cancel,
                &enumerate_manifest,
            )
            .unwrap_or_else(|e| {
                eprintln!("error: serve: {e}");
                std::process::exit(1);
            });
            let mut t = Table::new(&["metric", "value"]);
            t.row(vec!["shard".into(), format!("{}/{}", shard.index, shard.shards)]);
            t.row(vec!["manifests".into(), summary.manifests.to_string()]);
            t.row(vec!["rejected".into(), summary.rejected.to_string()]);
            t.row(vec!["enumerated points".into(), summary.enumerated.to_string()]);
            t.row(vec!["owned points".into(), summary.owned.to_string()]);
            t.row(vec!["cache hits".into(), summary.cache_hits.to_string()]);
            t.row(vec!["computed".into(), summary.computed.to_string()]);
            t.row(vec!["skipped (poisoned)".into(), summary.skipped_poisoned.to_string()]);
            t.row(vec!["poisoned".into(), summary.poisoned.to_string()]);
            t.row(vec!["failed".into(), summary.failed.to_string()]);
            t.row(vec!["cancelled".into(), summary.cancelled.to_string()]);
            r.push_table("serve", t);
            // Rejected manifests and plain failures flip the exit
            // code; poisoned points are degradation, matching `run`.
            r.failed = summary.failed > 0 || summary.rejected > 0;
            r.push_note(if summary.cancelled {
                "serve cancelled: unprocessed manifests remain"
            } else if r.failed {
                "serve finished with rejected manifests or failed points (see stream above)"
            } else {
                "serve drained: every owned point is terminal"
            });
            r.attach("serve", summary.to_json());
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
                let mut pt = Table::new(&["point", "error", "attempts", "deadline trips"]);
                for rec in store.poison_list().unwrap_or_default() {
                    pt.row(vec![
                        rec.label,
                        first_line(&rec.error),
                        rec.attempts.to_string(),
                        rec.deadline_trips.to_string(),
                    ]);
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
            eprintln!(
                "error: unknown campaign action {other:?}\navailable: run serve status verify gc"
            );
            std::process::exit(2);
        }
    }
    vec![r]
}

// ---------------------------------------------------------------- table 1

fn table1(_opts: &Opts) -> Vec<Report> {
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

/// Exports a derived metric, unless a HOLE tainted it.
fn metric(r: &mut Report, name: &str, derived: Option<f64>) {
    if let Some(v) = derived {
        r.metric(name, v);
    }
}

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
    let mut t = Table::new(headers);
    for (name, sps) in rows {
        let mut cells = vec![name.to_string()];
        cells.extend(sps.iter().map(|&sp| cell(sp, ratio)));
        t.row(cells);
    }
    let hmeans: Vec<Option<f64>> =
        (1..headers.len()).map(|i| hmean(rows.iter().map(|(_, sps)| sps[i - 1]))).collect();
    let mut hm = vec!["h-mean".to_string()];
    hm.extend(hmeans.iter().map(|&h| cell(h, ratio)));
    t.row(hm);
    (t, hmeans)
}

// ---------------------------------------------------------------- table 2

fn table2(o: &FigureOpts, points: &[CampaignPoint], out: &[Option<SimStats>]) -> Report {
    let mut r =
        Report::new("table2", "Table 2: graph inputs (synthetic stand-ins) + measured LLC MPKI");
    let mut t = Table::new(&["input", "nodes(K)", "edges(K)", "footprint(MB)", "LLC MPKI"]);
    let kernels = points.len() / GraphPreset::ALL.len();
    for (p, runs) in GraphPreset::ALL.into_iter().zip(out.chunks(kernels)) {
        let g = p.generate(o.scale);
        // Aggregate MPKI over the GAP kernels on the baseline.
        let mpki = runs.iter().copied().collect::<Option<Vec<SimStats>>>().map(|runs| {
            let misses: u64 = runs.iter().map(|s| s.mem.loads_served_at(HitLevel::Dram)).sum();
            let insts: u64 = runs.iter().map(|s| s.instructions).sum();
            misses as f64 * 1000.0 / insts as f64
        });
        metric(&mut r, &format!("mpki_{}", p.abbrev()), mpki);
        t.row(vec![
            p.abbrev().into(),
            format!("{:.1}", g.num_nodes() as f64 / 1e3),
            format!("{:.1}", g.num_edges() as f64 / 1e3),
            format!("{:.1}", g.footprint_bytes() as f64 / (1 << 20) as f64),
            cell(mpki, |m| format!("{m:.1}")),
        ]);
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
        metric(&mut r, &format!("hmean_{}", tech.label()), hm);
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
    let mut t =
        Table::new(&["ROB", "OoO IPC", "VR IPC", "OoO norm", "VR norm", "VR/OoO", "stall%"]);
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
        t.row(vec![
            rob.to_string(),
            cell(ooo_ipc, |v| format!("{v:.3}")),
            cell(vr_ipc, |v| format!("{v:.3}")),
            cell(ooo_norm, ratio),
            cell(vr_norm, ratio),
            cell(vr_ipc.zip(ooo_ipc).map(|(v, o)| v / o), ratio),
            cell(stall, pct),
        ]);
    }
    r.push_table("sweep", t);
    r
}

// ---------------------------------------------------------------- fig 9

fn fig_mlp(_o: &FigureOpts, points: &[CampaignPoint], out: &[Option<SimStats>]) -> Report {
    let mut r =
        Report::new("fig-mlp", "Fig. MLP: average outstanding L1-D misses (MSHRs used per cycle)");
    let mut t = Table::new(&["benchmark", "OoO", "VR"]);
    for (p, o) in points.chunks(2).zip(out.chunks(2)) {
        let mlp = |s: Option<SimStats>| cell(s, |s| format!("{:.2}", s.mlp()));
        t.row(vec![p[0].workload.name.clone(), mlp(o[0]), mlp(o[1])]);
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
    let mut t = Table::new(&["benchmark", "OoO total", "VR main", "VR runahead", "VR total(norm)"]);
    for (p, o) in points.chunks(2).zip(out.chunks(2)) {
        let bt = o[0].map(|b| b.mem.dram_reads_total() as f64);
        let norm = |reads: &dyn Fn(&SimStats) -> u64| {
            cell(o[1].zip(bt).map(|(v, bt)| reads(&v) as f64 / bt), |x| format!("{x:.2}"))
        };
        t.row(vec![
            p[0].workload.name.clone(),
            cell(bt, |bt| format!("{bt:.0}")),
            norm(&|v| v.mem.dram_reads_by(Requestor::Main)),
            norm(&|v| v.mem.dram_reads_by(Requestor::Runahead)),
            norm(&|v| v.mem.dram_reads_total()),
        ]);
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
    let mut t = Table::new(&["benchmark", "L1", "L2", "L3", "off-chip"]);
    for (p, o) in points.iter().zip(out) {
        let f = o.map(|s| s.mem.timeliness_fractions());
        let mut cells = vec![p.workload.name.clone()];
        cells.extend((0..4).map(|level| cell(f.map(|f| f[level]), pct)));
        t.row(cells);
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
        metric(&mut r, &format!("hmean_K{k}"), hm);
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
    let mut t = Table::new(&[
        "benchmark",
        "entries",
        "ra-time",
        "stall(OoO)",
        "delay-stall",
        "batches",
        "lanes",
        "inv",
    ]);
    for (p, o) in points.chunks(2).zip(out.chunks(2)) {
        let (b, v) = (o[0], o[1]);
        let of_vr = |f: &dyn Fn(SimStats) -> String| cell(v, f);
        t.row(vec![
            p[0].workload.name.clone(),
            of_vr(&|v| v.runahead_entries.to_string()),
            of_vr(&|v| pct(v.runahead_cycles as f64 / v.cycles as f64)),
            cell(b, |b| pct(b.full_rob_stall_fraction())),
            of_vr(&|v| pct(v.delayed_termination_stall_cycles as f64 / v.cycles as f64)),
            of_vr(&|v| v.vr_batches.to_string()),
            of_vr(&|v| v.vr_lanes_spawned.to_string()),
            of_vr(&|v| v.vr_lanes_invalidated.to_string()),
        ]);
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
        metric(&mut r, &format!("hmean_{}", label.trim_start_matches('+')), hm);
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

    // Chip-level fast-forward telemetry (a `vr-telemetry-v1`
    // attachment in the JSON export): how the chip *simulated*, never
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
    let mut t = Table::new(&[
        "point",
        "cores",
        "IPC/core",
        "bank-conf",
        "arb-stall",
        "mshr-rej",
        "LLC hit%",
    ]);
    for (p, run) in points.iter().zip(runs) {
        let run = run.as_ref();
        let hm = run.map(per_core_hmean);
        metric(&mut r, &format!("ipc_{}", p.label), hm);
        metric(
            &mut r,
            &format!("bank_conflicts_{}", p.label),
            run.map(|run| run.chip.bank_conflicts as f64),
        );
        let of_chip = |f: &dyn Fn(&vr_chip::ChipStats) -> String| cell(run, |run| f(&run.chip));
        t.row(vec![
            p.label.clone(),
            p.chip.cores.to_string(),
            cell(hm, |hm| format!("{hm:.3}")),
            of_chip(&|c| c.bank_conflicts.to_string()),
            of_chip(&|c| c.arbitration_stall_cycles.to_string()),
            of_chip(&|c| c.shared_mshr_rejections.to_string()),
            of_chip(&|c| {
                let lookups = c.llc_hits + c.llc_misses;
                pct(if lookups == 0 { 0.0 } else { c.llc_hits as f64 / lookups as f64 })
            }),
        ]);
    }
    r.push_table("contention", t);

    // VR/OoO speedup per (placement, N) — how much of single-core
    // VR's win survives contention. The point list is OoO-then-VR
    // pairs, so adjacent runs pair up.
    let mut s = Table::new(&["placement", "cores", "OoO IPC", "VR IPC", "VR/OoO"]);
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
        metric(&mut r, &format!("speedup_{name}"), sp);
        if let Some(sp) = sp {
            chart.bar(name, sp);
        }
        // A pair with either side poisoned has no comparison to show:
        // the healthy side's IPC is in the census above.
        s.row(vec![
            name.to_string(),
            po.chip.cores.to_string(),
            cell(sp.and(o_ipc), |v| format!("{v:.3}")),
            cell(sp.and(v_ipc), |v| format!("{v:.3}")),
            cell(sp, ratio),
        ]);
    }
    r.push_table("speedup", s);
    r.push_chart(chart);
    r
}

// ---------------------------------------------------------------- hw table

fn table_hw(_opts: &Opts) -> Vec<Report> {
    let mut r = Report::new("table-hw", "Hardware overhead of the Vector Runahead structures");
    let mut t = Table::new(&["structure", "bits", "bytes"]);
    let items = vr_core::hardware_overhead_bits(128);
    let mut total = 0u64;
    for (name, bits) in &items {
        total += bits;
        t.row(vec![(*name).into(), bits.to_string(), format!("{:.1}", *bits as f64 / 8.0)]);
    }
    t.row(vec!["TOTAL".into(), total.to_string(), format!("{:.0}", (total as f64 / 8.0).ceil())]);
    r.metric("total_bits", total as f64);
    r.push_table("overhead", t);
    vec![r]
}

// ---------------------------------------------------------------- trace

/// Pipeline-diagram trace of one workload under Vector Runahead:
/// runs the workload with both the pipeline trace and the episode
/// telemetry enabled, asserts the trace is well-ordered, and renders
/// the commit window with runahead episodes annotated (`<RA>` rows,
/// `== runahead episode ==` separators). The full `vr-telemetry-v1`
/// document is attached to the JSON export.
fn trace_cmd(opts: &Opts) -> Vec<Report> {
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
        .map(|e| (e.entered_at, e.exited_at));
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
        .map(|e| (e.entered_at, e.exited_at))
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
    s.row(vec!["runahead entries".into(), stats.runahead_entries.to_string()]);
    s.row(vec!["episodes completed".into(), tel.completed().to_string()]);
    s.row(vec!["vector batches".into(), tel.batches().to_string()]);
    s.row(vec!["lanes spawned".into(), tel.lanes_spawned().to_string()]);
    r.push_table("summary", s);
    let mut et = Table::new(&["trigger pc", "entered", "exited", "kind", "batches", "lanes"]);
    for e in tel.episodes() {
        et.row(vec![
            format!("{:#x}", e.trigger_pc),
            e.entered_at.to_string(),
            e.exited_at.to_string(),
            e.kind.label().into(),
            e.batches.to_string(),
            e.lanes_spawned.to_string(),
        ]);
    }
    r.push_table("episodes", et);
    r.push_note(window.render_annotated(&episodes));
    r.metric("ipc", stats.ipc());
    r.attach("telemetry", tel.to_json());
    vec![r]
}

// ------------------------------------------------------------- perf report

/// Simulator-throughput regression harness (not a paper artifact).
///
/// Measures, per workload and technique, how many committed
/// kilo-instructions the simulator retires per wall-clock second
/// (KIPS — the metric the performance-engineering work is judged on),
/// times representative figures end-to-end at one worker and at
/// `--threads` workers (sweep-runner scaling), and writes everything
/// to `BENCH_sim.json` in the current directory for CI trending.
/// Timings are machine-dependent: the JSON is an artifact to plot,
/// not an assertion that fails the build.
fn perf_report(opts: &Opts) -> Vec<Report> {
    use std::fmt::Write as _;
    use std::time::{Duration, Instant};
    use vr_bench::micro::Runner;

    let mut rep = Report::new(
        "perf-report",
        &format!(
            "Perf report: simulation throughput (KIPS) + harness wall time \
             ({} insts/run, {} threads)",
            opts.fig.insts, opts.threads
        ),
    );

    // --- per-point KIPS, measured with the micro-benchmark runner on
    // the no-store helper: this is the simulator's speed, never a
    // record load's.
    let sets = Sets::new(opts.fig.clone());
    let set = sets.full();
    let mut runner = Runner::new("sim");
    runner.samples = 5;
    runner.sample_time = Duration::from_millis(20);
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"vr-bench-perf-report-v6\",");
    let _ = writeln!(json, "  \"insts_per_run\": {},", opts.fig.insts);
    let _ = writeln!(json, "  \"threads\": {},", opts.threads);
    json.push_str("  \"kips\": [\n");
    let mut t = Table::new(&["workload", "tech", "KIPS", "VR/OoO"]);
    let mut all_kips = Vec::new();
    // Per-workload VR-mode / OoO-mode simulation-throughput ratio —
    // the data-parallel lane engine's target metric (ISSUE 7: the
    // h-mean must stay ≥ 0.90, i.e. simulating runahead episodes is
    // no longer much slower than simulating the baseline core).
    let mut ratios: Vec<(String, f64)> = Vec::new();
    let techs = [Technique::Baseline, Technique::Vr];
    for (wi, w) in set.iter().enumerate() {
        let mut baseline_kips = f64::NAN;
        for (ti, tech) in techs.into_iter().enumerate() {
            let insts = run_technique(w, CoreConfig::table1(), tech, opts.fig.insts).instructions;
            let m = runner.bench(&format!("{}/{}", w.name, tech.label()), || {
                run_technique(w, CoreConfig::table1(), tech, opts.fig.insts)
            });
            let kips = insts as f64 / m.per_iter.as_secs_f64() / 1e3;
            all_kips.push(kips);
            let ratio_cell = if ti == 0 {
                baseline_kips = kips;
                String::new()
            } else {
                // A sample too short for the clock makes the ratio
                // inf/NaN; keep it (the taint accounting below skips
                // it) but render/export it as unusable rather than as
                // a number.
                let ratio = kips / baseline_kips;
                ratios.push((w.name.clone(), ratio));
                if ratio.is_finite() {
                    format!("{ratio:.2}")
                } else {
                    "n/a".into()
                }
            };
            t.row(vec![w.name.clone(), tech.label().into(), format!("{kips:.0}"), ratio_cell]);
            let last = wi + 1 == set.len() && ti + 1 == techs.len();
            let _ = writeln!(
                json,
                "    {{\"workload\": \"{}\", \"technique\": \"{}\", \"insts\": {}, \
                 \"kips\": {:.1}}}{}",
                w.name,
                tech.label(),
                insts,
                kips,
                if last { "" } else { "," }
            );
        }
    }
    json.push_str("  ],\n");
    // Tainting aggregates (DESIGN.md §15): `harmonic_mean`'s 0.0
    // sentinel must never leak into the trend CI gates on — an
    // unusable sample is skipped and *counted* instead of zeroing the
    // whole h-mean.
    let (hmean_kips, kips_skipped) = vr_bench::tainted_harmonic_mean(&all_kips);
    let _ = writeln!(json, "  \"kips_hmean\": {hmean_kips:.1},");
    let _ = writeln!(json, "  \"kips_hmean_tainted\": {kips_skipped},");
    json.push_str("  \"vr_ooo_kips_ratio\": [\n");
    for (i, (name, ratio)) in ratios.iter().enumerate() {
        let cell = if ratio.is_finite() { format!("{ratio:.3}") } else { "null".to_string() };
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{name}\", \"ratio\": {cell}}}{}",
            if i + 1 == ratios.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let ratio_vals: Vec<f64> = ratios.iter().map(|(_, r)| *r).collect();
    let (hmean_ratio, ratio_skipped) = vr_bench::tainted_harmonic_mean(&ratio_vals);
    let _ = writeln!(json, "  \"vr_ooo_kips_ratio_hmean\": {hmean_ratio:.3},");
    let _ = writeln!(json, "  \"vr_ooo_kips_ratio_tainted\": {ratio_skipped},");
    if kips_skipped + ratio_skipped > 0 {
        eprintln!(
            "  [warn] perf aggregates tainted: {kips_skipped} KIPS value(s) and \
             {ratio_skipped} ratio value(s) skipped"
        );
    }
    // --- multi-core chip throughput (schema v6, DESIGN.md §16–17):
    // homogeneous VR chip points timed end to end, N ∈ {2, 4, 8}. The
    // cores run in lockstep inside one wall-clock window, so every
    // per-core KIPS shares the denominator and the 4-core aggregate is
    // the chip-level simulation throughput CI trends; the N=2/8 points
    // record how that throughput scales with core count, and the
    // 4-core point's execution telemetry (chip fast-forward windows,
    // cheap episode steps, broker installs) is exported alongside so a
    // KIPS regression can be localized without re-running anything.
    {
        let w = vr_workloads::hpcdb::kangaroo(opts.fig.scale);
        let mut primary: Option<(Vec<f64>, f64)> = None;
        let mut scaling = Vec::new();
        let mut ff_json = None;
        let mut ct = Table::new(&["cores", "insts/core", "KIPS/core", "chip KIPS"]);
        for cores in [2usize, 4, 8] {
            let slots = (0..cores)
                .map(|_| vr_chip::CoreSlot {
                    ra: RunaheadConfig::vector(),
                    program: w.program.clone(),
                    memory: w.memory.clone(),
                    init_regs: w.init_regs.clone(),
                })
                .collect();
            let mut chip = vr_chip::Chip::new(
                vr_chip::ChipConfig::with_cores(cores),
                CoreConfig::table1(),
                MemConfig::table1(),
                slots,
            );
            let t0 = Instant::now();
            let run = chip.try_run(opts.fig.insts).unwrap_or_else(|e| {
                eprintln!("error: chip perf point ({cores} cores): {e}");
                std::process::exit(1);
            });
            let secs = t0.elapsed().as_secs_f64();
            let per_core: Vec<f64> =
                run.per_core.iter().map(|s| s.instructions as f64 / secs / 1e3).collect();
            let aggregate: f64 = per_core.iter().sum();
            let cells: Vec<String> = per_core.iter().map(|k| format!("{k:.0}")).collect();
            ct.row(vec![
                cores.to_string(),
                opts.fig.insts.to_string(),
                cells.join(" "),
                format!("{aggregate:.0}"),
            ]);
            eprintln!("  [chip] {cores}-core VR chip: {aggregate:.0} aggregate KIPS");
            let per_core_json =
                per_core.iter().map(|k| format!("{k:.1}")).collect::<Vec<_>>().join(", ");
            if cores == 4 {
                rep.metric("chip_kips", aggregate);
                ff_json = Some(chip.telemetry().to_json().to_pretty());
                primary = Some((per_core, aggregate));
            } else {
                rep.metric(&format!("chip_kips_n{cores}"), aggregate);
                scaling.push(format!(
                    "{{\"cores\": {cores}, \"per_core\": [{per_core_json}], \
                     \"aggregate\": {aggregate:.1}}}"
                ));
            }
        }
        rep.push_table("chip", ct);
        let (per_core, chip_kips) = primary.expect("the 4-core chip point always runs");
        let per_core_json =
            per_core.iter().map(|k| format!("{k:.1}")).collect::<Vec<_>>().join(", ");
        // The telemetry sub-object is compacted onto one line (it is
        // machine-read; `to_pretty` of a small object stays short).
        let ff = ff_json.expect("telemetry captured with the 4-core point");
        let _ = writeln!(
            json,
            "  \"chip_kips\": {{\"cores\": 4, \"insts_per_core\": {}, \
             \"per_core\": [{per_core_json}], \"aggregate\": {chip_kips:.1}, \
             \"scaling\": [{}], \"chip_ff\": {}}},",
            opts.fig.insts,
            scaling.join(", "),
            ff.replace('\n', " ")
        );
    }
    // Result-store effectiveness for this process (zeros when no
    // --cache was given): CI trends hit rates alongside throughput.
    let cc = vr_bench::cache::counters().unwrap_or_default();
    let _ = writeln!(
        json,
        "  \"cache\": {{\"enabled\": {}, \"hits\": {}, \"misses\": {}, \"writes\": {}, \
         \"stale\": {}, \"quarantined\": {}}},",
        vr_bench::cache::active().is_some(),
        cc.hits,
        cc.misses,
        cc.writes,
        cc.stale,
        cc.quarantined
    );
    rep.push_table("kips", t);
    rep.metric("kips_hmean", hmean_kips);
    rep.metric("vr_ooo_kips_ratio_hmean", hmean_ratio);
    rep.push_note(format!(
        "h-mean throughput: {hmean_kips:.0} KIPS; VR/OoO ratio h-mean: {hmean_ratio:.2}"
    ));

    // --- end-to-end figure timing, serial vs the sweep pool. Each
    // stage is timed on its own — enumerate, the sweep call itself at
    // one thread and at `--threads`, render — so `pool_speedup` is the
    // ratio of the two sweep calls and nothing else (an earlier harness
    // timed whole figures with rendering inside the window, and the
    // recorded speedup sat at ~1.0 whatever the thread count). The
    // sweeps run without a store: this times the simulator. (The
    // first pooled sweep also spawns the pool's threads — microseconds
    // against a sweep of hundreds of milliseconds.)
    fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let v = f();
        (v, t0.elapsed().as_secs_f64() * 1e3)
    }
    json.push_str("  \"figures\": [\n");
    let figures = ["table2", "fig-mlp"];
    for (fi, id) in figures.into_iter().enumerate() {
        let cmd = COMMANDS.iter().find(|c| c.id == id).expect("a row of COMMANDS");
        let Run::Scalar(enumerate, render) = cmd.run else {
            unreachable!("{id} is a single-core figure")
        };
        let (points, enumerate_ms) = timed(|| enumerate(&sets));
        let (_, par_serial) = timed(|| sweep(&points, None, 1));
        let (outputs, par_pool) = timed(|| sweep(&points, None, opts.threads));
        let (report, render_ms) = timed(|| render(&opts.fig, &points, &outputs));
        print!("{}", report.render_text());
        let (wall_serial, wall_pool) =
            (enumerate_ms + par_serial + render_ms, enumerate_ms + par_pool + render_ms);
        let speedup = par_serial / par_pool;
        eprintln!(
            "  [time] {id}: sweep {par_serial:.0} ms serial, {par_pool:.0} ms \
             with {} threads ({speedup:.2}x); enumerate {enumerate_ms:.0} ms, \
             render {render_ms:.0} ms",
            opts.threads,
        );
        let _ = writeln!(
            json,
            "    {{\"id\": \"{id}\", \"wall_ms_threads_1\": {wall_serial:.1}, \
             \"wall_ms_threads_n\": {wall_pool:.1}, \
             \"parallel_ms_threads_1\": {par_serial:.1}, \
             \"parallel_ms_threads_n\": {par_pool:.1}, \"pool_speedup\": {speedup:.2}}}{}",
            if fi + 1 == figures.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write("BENCH_sim.json", &json).unwrap_or_else(|e| {
        eprintln!("error: cannot write BENCH_sim.json: {e}");
        std::process::exit(1);
    });
    rep.push_note("wrote BENCH_sim.json");
    vec![rep]
}

// ------------------------------------------------------------ fault oracle

/// Robustness artifact (not a paper figure): runs three Test-scale
/// workloads to completion under seeded fault-injection plans and
/// checks that committed registers, the final memory image and the
/// retired-instruction count are bit-identical to the no-runahead
/// baseline — the architectural-invisibility contract of runahead.
/// The returned report is marked failed on any mismatch, which makes
/// `main` exit non-zero after printing and exporting it.
fn fault_oracle(_opts: &Opts) -> Vec<Report> {
    use vr_core::{FaultPlan, RunaheadKind};
    use vr_isa::Reg;

    let mut rep = Report::new(
        "fault-oracle",
        "Fault-injection oracle: runahead is architecturally invisible",
    );

    let run = |w: &Workload, ra: RunaheadConfig| {
        let mut sim = Simulator::new(
            CoreConfig::table1(),
            MemConfig::tiny_for_tests(),
            ra,
            w.program.clone(),
            w.memory.clone(),
            &w.init_regs,
        );
        let stats = sim.try_run(u64::MAX).unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", w.name);
            std::process::exit(1);
        });
        let regs: Vec<u64> = (0..32).map(|i| sim.committed_cpu().x(Reg::new(i))).collect();
        (stats, regs, sim.memory().digest())
    };

    let g = GraphPreset::Kron.generate(Scale::Test);
    let set = vec![
        vr_workloads::hpcdb::kangaroo(Scale::Test),
        vr_workloads::hpcdb::hashjoin(Scale::Test, 2),
        vr_workloads::gap::bfs_on(&g, GraphPreset::Kron),
    ];

    let mut t = Table::new(&[
        "workload", "kind", "seed", "faults", "aborts", "pf-drop", "pf-delay", "arch",
    ]);
    let mut failed = false;
    for w in &set {
        let (_, base_regs, base_digest) = run(w, RunaheadConfig::none());
        for kind in [RunaheadKind::Classic, RunaheadKind::Vector] {
            for seed in [1u64, 2, 3] {
                let ra = RunaheadConfig {
                    fault_plan: Some(FaultPlan::chaos(seed)),
                    ..RunaheadConfig::of(kind)
                };
                let (stats, regs, digest) = run(w, ra);
                let ok = regs == base_regs && digest == base_digest;
                failed |= !ok;
                t.row(vec![
                    w.name.clone(),
                    format!("{kind:?}"),
                    seed.to_string(),
                    stats.faults_injected.to_string(),
                    stats.runahead_aborts.to_string(),
                    stats.mem.pf_dropped_fault.to_string(),
                    stats.mem.pf_delayed_fault.to_string(),
                    if ok { "OK".into() } else { "MISMATCH".into() },
                ]);
            }
        }
    }
    rep.push_table("oracle", t);
    rep.failed = failed;
    rep.push_note(if failed {
        "error: fault injection leaked into architectural state"
    } else {
        "all runs bit-identical to the no-runahead baseline"
    });
    vec![rep]
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
        for id in ["table1", "table-hw", "trace", "fault-oracle", "perf-report", "bogus"] {
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
}
