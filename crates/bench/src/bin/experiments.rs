//! Regenerates every table and figure of the Vector Runahead
//! evaluation (DESIGN.md §5 maps each id to the paper artifact).
//!
//! Run `experiments` with no arguments for the full usage text — it
//! is generated from the same dispatch table `main` dispatches on, so
//! the list of ids can never drift from the commands that actually
//! exist.
//!
//! Every figure builds [`Report`]s; the text printed to stdout and
//! the `--json` / `--csv` exports are rendered from the *same*
//! reports, so exported values always equal the printed ones (see
//! DESIGN.md §10).
//!
//! Simulation points are fanned across a work pool
//! ([`vr_bench::parallel_map`]); every table and figure is
//! bit-identical to a `--threads 1` run because each point constructs
//! its own simulator and results are reassembled in input order.

use std::collections::HashMap;
use std::path::PathBuf;

use vr_bench::report::{write_exports, Report, RunMeta};
use vr_bench::{
    holey, is_hole, parallel_map, pct, ratio, run_custom, run_technique, workload_set, BarChart,
    Table, Technique,
};
use vr_core::{harmonic_mean, CoreConfig, RunaheadConfig, Simulator};
use vr_mem::{HitLevel, MemConfig, Requestor};
use vr_workloads::{gap_suite, graph::GraphPreset, Scale, Workload};

struct Opts {
    insts: u64,
    presets: Vec<GraphPreset>,
    scale: Scale,
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
    /// `--spool DIR`: drain `campaign serve` manifests from `*.json`
    /// files in DIR instead of reading lines from stdin.
    spool: Option<PathBuf>,
}

/// One dispatchable subcommand: the id `main` matches on, the help
/// line the usage text prints, and the figure function itself.
struct Cmd {
    id: &'static str,
    help: &'static str,
    run: fn(&Opts) -> Vec<Report>,
}

/// The dispatch table. The usage text is generated from this table,
/// so adding a command here is the *only* step needed to expose it.
const COMMANDS: &[Cmd] = &[
    Cmd { id: "table1", help: "baseline core/memory configuration (Table 1)", run: table1 },
    Cmd { id: "table2", help: "graph inputs + measured LLC MPKI (Table 2)", run: table2 },
    Cmd { id: "fig-perf", help: "speedup over the baseline OoO (Fig. 7)", run: fig_perf },
    Cmd { id: "fig-rob", help: "ROB-size sensitivity sweep (Fig. 2/12)", run: fig_rob },
    Cmd { id: "fig-breakdown", help: "VR + extension breakdown (Fig. 8)", run: fig_breakdown },
    Cmd { id: "fig-mlp", help: "memory-level parallelism (Fig. 9)", run: fig_mlp },
    Cmd { id: "fig-accuracy", help: "prefetch accuracy/coverage (Fig. 10)", run: fig_accuracy },
    Cmd {
        id: "fig-timeliness",
        help: "prefetch timeliness by level (Fig. 11)",
        run: fig_timeliness,
    },
    Cmd { id: "fig-veclen", help: "vector-length sweep", run: fig_veclen },
    Cmd { id: "fig-interval", help: "trigger/interval statistics", run: fig_interval },
    Cmd { id: "table-hw", help: "hardware overhead of the VR structures", run: table_hw },
    Cmd { id: "fig-ablation", help: "design-choice ablations", run: fig_ablation },
    Cmd { id: "fig-mshr", help: "MSHR-count sensitivity sweep", run: fig_mshr },
    Cmd {
        id: "fig-chip",
        help: "multi-core chip: VR under shared-LLC contention (not in `all`)",
        run: fig_chip,
    },
    Cmd { id: "trace", help: "pipeline-diagram trace of one workload under VR", run: trace_cmd },
    Cmd {
        id: "fault-oracle",
        help: "fault-injection architectural-invisibility check",
        run: fault_oracle,
    },
    Cmd {
        id: "perf-report",
        help: "simulator-throughput report (writes BENCH_sim.json)",
        run: perf_report,
    },
    Cmd {
        id: "campaign",
        help: "result-store campaign over the figure sim points (run/serve/status/verify/gc)",
        run: campaign_cmd,
    },
    Cmd { id: "all", help: "every paper table and figure above", run: all_figures },
];

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
         \x20 --cache DIR   route every simulation through the result store at DIR\n\
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
         \x20 --spool DIR   `campaign serve` drains *.json manifests from DIR instead of stdin\n\
         \nthe `trace` id takes a positional workload name (see its error text \
         for the available names); `campaign` takes a positional action \
         (run, serve, status, verify, gc) and requires --cache DIR. `campaign \
         serve` reads one manifest JSON per stdin line (or per --spool file) \
         and streams one outcome JSON line per manifest to stdout.\n",
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
    let mut spool: Option<PathBuf> = None;
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
            "--spool" => {
                spool = match it.next() {
                    Some(p) => Some(PathBuf::from(p)),
                    None => {
                        eprintln!("error: --spool requires a directory path");
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
        insts,
        presets,
        scale,
        threads,
        workload,
        figure,
        cancel_after_ms,
        fail_point,
        point_deadline_ms,
        tmp_age_ms,
        shards,
        shard,
        spool,
    };

    if let Some(dir) = &cache_dir {
        if let Err(e) = vr_bench::cache::enable(dir) {
            eprintln!("error: cannot open result store at {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    let reports = (cmd.run)(&opts);
    for r in &reports {
        print!("{}", r.render_text());
    }
    let meta = RunMeta {
        command: id.clone(),
        insts: opts.insts,
        threads: opts.threads,
        scale: match opts.scale {
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

fn all_figures(opts: &Opts) -> Vec<Report> {
    let figures: [fn(&Opts) -> Vec<Report>; 13] = [
        table1,
        table2,
        fig_perf,
        fig_rob,
        fig_breakdown,
        fig_mlp,
        fig_accuracy,
        fig_timeliness,
        fig_veclen,
        fig_interval,
        fig_ablation,
        fig_mshr,
        table_hw,
    ];
    figures.iter().flat_map(|f| f(opts)).collect()
}

fn build_set(opts: &Opts) -> Vec<Workload> {
    match opts.scale {
        Scale::Paper => workload_set(&opts.presets),
        Scale::Test => vr_bench::quick_workload_set(),
    }
}

/// A smaller, representative subset for parameter sweeps (shared with
/// the campaign-point enumeration in `vr_bench::points`).
fn sweep_set(opts: &Opts) -> Vec<Workload> {
    vr_bench::sweep_workload_set(opts.scale)
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
        campaign_status, run_campaign, serve_lines, serve_spool, CampaignPoint, CancelToken,
        ChipPoint, EngineConfig, ExecCtx, Executor, Manifest, PointSet, ProgressEvent,
        ProgressKind, ServeConfig, ServeSummary, ShardSpec, SimExecutor,
    };

    /// `--fail-point SUBSTR`: points whose label contains the
    /// substring fail deterministically; everything else runs the real
    /// simulation. The CLI's lever for exercising the poison path end
    /// to end (run → poison record → `status --json` → HOLE cells).
    struct FailPointExec(String);

    impl FailPointExec {
        fn injected(&self, label: &str) -> Option<vr_core::SimError> {
            label.contains(&self.0).then(|| vr_core::SimError::BadConfig {
                what: format!("injected by --fail-point {:?}", self.0),
            })
        }
    }

    impl Executor for FailPointExec {
        fn execute(
            &self,
            p: &CampaignPoint,
            ctx: &ExecCtx,
        ) -> Result<vr_core::SimStats, vr_core::SimError> {
            if let Some(e) = self.injected(&p.label) {
                return Err(e);
            }
            SimExecutor.execute(p, ctx)
        }
    }

    // The same fault injection for multi-core chip points, so the
    // fig-chip poison path (`--fail-point` → HOLE cells) is
    // exercisable end to end too.
    impl Executor<ChipPoint> for FailPointExec {
        fn execute(
            &self,
            p: &ChipPoint,
            ctx: &ExecCtx,
        ) -> Result<vr_chip::ChipRun, vr_core::SimError> {
            if let Some(e) = self.injected(&p.label) {
                return Err(e);
            }
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
    let fig_opts = vr_bench::points::FigureOpts {
        insts: opts.insts,
        presets: opts.presets.clone(),
        scale: opts.scale,
    };
    // Chip points are a different point type with a different result
    // shape; `PointSet` carries whichever the figure enumerates and
    // the actions below dispatch through the generic engine.
    let enumerate = || {
        vr_bench::points::chip_points(figure, &fig_opts)
            .map(PointSet::Chip)
            .or_else(|| vr_bench::points::campaign_points(figure, &fig_opts).map(PointSet::Scalar))
            .unwrap_or_else(|| {
                eprintln!(
                    "error: unknown or uncacheable figure {figure:?}\navailable: {} fig-chip",
                    vr_bench::points::CACHED_FIGURES.join(" ")
                );
                std::process::exit(2);
            })
    };
    let mut r = Report::new("campaign", &format!("Campaign {action}: figure={figure}"));
    match action {
        "run" => {
            let points = enumerate();
            let cancel = CancelToken::new();
            if let Some(ms) = opts.cancel_after_ms {
                let timer_token = cancel.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                    timer_token.cancel();
                });
            }
            let cfg = EngineConfig {
                threads: opts.threads,
                point_deadline: opts.point_deadline_ms.map(std::time::Duration::from_millis),
                ..EngineConfig::default()
            };
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
            let out = match (points, &opts.fail_point) {
                (PointSet::Scalar(points), Some(s)) => run_campaign(
                    &points,
                    store,
                    &FailPointExec(s.clone()),
                    &cfg,
                    &cancel,
                    Some(&sink),
                ),
                (PointSet::Scalar(points), None) => {
                    run_campaign(&points, store, &SimExecutor, &cfg, &cancel, Some(&sink))
                }
                (PointSet::Chip(points), Some(s)) => run_campaign(
                    &points,
                    store,
                    &FailPointExec(s.clone()),
                    &cfg,
                    &cancel,
                    Some(&sink),
                ),
                (PointSet::Chip(points), None) => {
                    run_campaign(&points, store, &SimExecutor, &cfg, &cancel, Some(&sink))
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
            let cancel = CancelToken::new();
            if let Some(ms) = opts.cancel_after_ms {
                let timer_token = cancel.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                    timer_token.cancel();
                });
            }
            let cfg = ServeConfig {
                engine: EngineConfig {
                    threads: opts.threads,
                    point_deadline: opts.point_deadline_ms.map(std::time::Duration::from_millis),
                    ..EngineConfig::default()
                },
                shard,
            };
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
                let fo = vr_bench::points::FigureOpts { insts: m.insts, presets, scale };
                vr_bench::points::chip_points(&m.figure, &fo)
                    .map(PointSet::Chip)
                    .or_else(|| {
                        vr_bench::points::campaign_points(&m.figure, &fo).map(PointSet::Scalar)
                    })
                    .ok_or_else(|| format!("unknown or uncacheable figure {:?}", m.figure))
            };
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            let served: std::io::Result<ServeSummary> = match (&opts.spool, &opts.fail_point) {
                (Some(dir), Some(s)) => {
                    let exec = FailPointExec(s.clone());
                    serve_spool(dir, &mut out, store, &exec, &cfg, &cancel, &enumerate_manifest)
                }
                (Some(dir), None) => serve_spool(
                    dir,
                    &mut out,
                    store,
                    &SimExecutor,
                    &cfg,
                    &cancel,
                    &enumerate_manifest,
                ),
                (None, Some(s)) => {
                    let exec = FailPointExec(s.clone());
                    serve_lines(
                        &mut std::io::stdin().lock(),
                        &mut out,
                        store,
                        &exec,
                        &cfg,
                        &cancel,
                        &enumerate_manifest,
                    )
                }
                (None, None) => serve_lines(
                    &mut std::io::stdin().lock(),
                    &mut out,
                    store,
                    &SimExecutor,
                    &cfg,
                    &cancel,
                    &enumerate_manifest,
                ),
            };
            drop(out);
            let summary = served.unwrap_or_else(|e| {
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
            let st = match enumerate() {
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

// ---------------------------------------------------------------- table 2

fn table2(opts: &Opts) -> Vec<Report> {
    let mut r =
        Report::new("table2", "Table 2: graph inputs (synthetic stand-ins) + measured LLC MPKI");
    let mut t = Table::new(&["input", "nodes(K)", "edges(K)", "footprint(MB)", "LLC MPKI"]);
    for p in GraphPreset::ALL {
        let g = p.generate(opts.scale);
        // Aggregate MPKI over the five GAP kernels on the baseline.
        let suite = gap_suite(opts.scale, p);
        let per_kernel = parallel_map(&suite, opts.threads, |w| {
            let s = run_technique(w, CoreConfig::table1(), Technique::Baseline, opts.insts / 2);
            (s.mem.loads_served_at(HitLevel::Dram), s.instructions)
        });
        let misses: u64 = per_kernel.iter().map(|&(m, _)| m).sum();
        let insts: u64 = per_kernel.iter().map(|&(_, i)| i).sum();
        let mpki = misses as f64 * 1000.0 / insts as f64;
        r.metric(&format!("mpki_{}", p.abbrev()), mpki);
        t.row(vec![
            p.abbrev().into(),
            format!("{:.1}", g.num_nodes() as f64 / 1e3),
            format!("{:.1}", g.num_edges() as f64 / 1e3),
            format!("{:.1}", g.footprint_bytes() as f64 / (1 << 20) as f64),
            format!("{mpki:.1}"),
        ]);
    }
    r.push_table("inputs", t);
    vec![r]
}

// ---------------------------------------------------------------- fig 7

fn fig_perf(opts: &Opts) -> Vec<Report> {
    let mut r = Report::new(
        "fig-perf",
        &format!(
            "Fig. performance: IPC normalized to the baseline OoO (budget {} insts)",
            opts.insts
        ),
    );
    let set = build_set(opts);
    let mut t = Table::new(&["benchmark", "PRE", "IMP", "VR", "Oracle"]);
    let mut speedups: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut vr_chart = BarChart::new("VR speedup over the baseline OoO");
    const TECHS: [Technique; 4] =
        [Technique::Pre, Technique::Imp, Technique::Vr, Technique::Oracle];
    let mut tainted: Vec<&str> = Vec::new();
    let results = parallel_map(&set, opts.threads, |w| {
        eprintln!("  [run] {} …", w.name);
        let base = run_technique(w, CoreConfig::table1(), Technique::Baseline, opts.insts);
        let techs = TECHS.map(|tech| run_technique(w, CoreConfig::table1(), tech, opts.insts));
        (base, techs)
    });
    for (w, (base, techs)) in set.iter().zip(&results) {
        let mut cells = vec![w.name.clone()];
        for (tech, s) in TECHS.iter().zip(techs) {
            let sp = s.speedup_over(base);
            // A poisoned point degrades to an explicit HOLE cell and
            // taints the technique's aggregate instead of aborting.
            if is_hole(base) || is_hole(s) {
                if !tainted.contains(&tech.label()) {
                    tainted.push(tech.label());
                }
            } else {
                speedups.entry(tech.label()).or_default().push(sp);
            }
            if *tech == Technique::Vr {
                vr_chart.bar(&w.name, sp);
            }
            cells.push(holey(&[base, s], ratio(sp)));
        }
        t.row(cells);
    }
    let mut hmean = vec!["h-mean".to_string()];
    for tech in ["PRE", "IMP", "VR", "Oracle"] {
        if tainted.contains(&tech) {
            hmean.push("HOLE".to_string());
            continue;
        }
        let hm = harmonic_mean(&speedups[tech]);
        r.metric(&format!("hmean_{tech}"), hm);
        hmean.push(ratio(hm));
    }
    t.row(hmean);
    r.push_table("speedup", t);
    r.push_chart(vr_chart);
    vec![r]
}

// ---------------------------------------------------------------- fig 2 / 12

fn fig_rob(opts: &Opts) -> Vec<Report> {
    let mut r = Report::new(
        "fig-rob",
        "Fig. ROB sensitivity: OoO and VR vs ROB size (back-end queues and PRF \
         scaled in proportion), normalized to OoO@350; plus full-window stall fraction",
    );
    let set = sweep_set(opts);
    let robs = [128usize, 192, 224, 350, 512];
    let mut t =
        Table::new(&["ROB", "OoO IPC", "VR IPC", "OoO norm", "VR norm", "VR/OoO", "stall%"]);
    // Geometric aggregation across the sweep set.
    let base350 = parallel_map(&set, opts.threads, |w| {
        run_technique(w, CoreConfig::with_rob_scaled(350), Technique::Baseline, opts.insts).ipc()
    });
    // Fan the full (ROB × workload) cross product in one batch so the
    // pool never drains between sweep steps.
    let points: Vec<(usize, &Workload)> =
        robs.iter().flat_map(|&r| set.iter().map(move |w| (r, w))).collect();
    let measured = parallel_map(&points, opts.threads, |&(rob, w)| {
        eprintln!("  [run] rob={rob} {} …", w.name);
        let core = CoreConfig::with_rob_scaled(rob);
        let b = run_technique(w, core.clone(), Technique::Baseline, opts.insts);
        let v = run_technique(w, core, Technique::Vr, opts.insts);
        (b.ipc(), v.ipc(), b.full_rob_stall_fraction())
    });
    for (ri, rob) in robs.into_iter().enumerate() {
        let mut ooo_norm = Vec::new();
        let mut vr_norm = Vec::new();
        let mut ooo_ipc = Vec::new();
        let mut vr_ipc = Vec::new();
        let mut stall = Vec::new();
        for i in 0..set.len() {
            let (b_ipc, v_ipc, b_stall) = measured[ri * set.len() + i];
            ooo_ipc.push(b_ipc);
            vr_ipc.push(v_ipc);
            ooo_norm.push(b_ipc / base350[i]);
            vr_norm.push(v_ipc / base350[i]);
            stall.push(b_stall);
        }
        let gm = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        t.row(vec![
            rob.to_string(),
            format!("{:.3}", gm(&ooo_ipc)),
            format!("{:.3}", gm(&vr_ipc)),
            ratio(gm(&ooo_norm)),
            ratio(gm(&vr_norm)),
            ratio(gm(&vr_ipc) / gm(&ooo_ipc)),
            pct(avg(&stall)),
        ]);
    }
    r.push_table("sweep", t);
    vec![r]
}

// ---------------------------------------------------------------- fig 8

fn fig_breakdown(opts: &Opts) -> Vec<Report> {
    let mut r = Report::new(
        "fig-breakdown",
        "Fig. breakdown: VR, +eager (decoupled) trigger, +loop-bound discovery \
         [extensions], normalized to baseline",
    );
    let set = sweep_set(opts);
    let mut t = Table::new(&["benchmark", "VR", "+eager", "+eager+discovery"]);
    let mut agg = [Vec::new(), Vec::new(), Vec::new()];
    let results = parallel_map(&set, opts.threads, |w| {
        eprintln!("  [run] {} …", w.name);
        let base = run_technique(w, CoreConfig::table1(), Technique::Baseline, opts.insts);
        let variants = [
            RunaheadConfig::vector(),
            RunaheadConfig { eager_trigger: true, ..RunaheadConfig::vector() },
            RunaheadConfig {
                eager_trigger: true,
                loop_bound_discovery: true,
                ..RunaheadConfig::vector()
            },
        ];
        variants.map(|ra| {
            run_custom(w, CoreConfig::table1(), MemConfig::table1(), ra, opts.insts)
                .speedup_over(&base)
        })
    });
    for (w, sps) in set.iter().zip(&results) {
        let mut cells = vec![w.name.clone()];
        for (i, &sp) in sps.iter().enumerate() {
            agg[i].push(sp);
            cells.push(ratio(sp));
        }
        t.row(cells);
    }
    for (name, a) in ["hmean_VR", "hmean_eager", "hmean_eager_discovery"].iter().zip(&agg) {
        r.metric(name, harmonic_mean(a));
    }
    t.row(vec![
        "h-mean".into(),
        ratio(harmonic_mean(&agg[0])),
        ratio(harmonic_mean(&agg[1])),
        ratio(harmonic_mean(&agg[2])),
    ]);
    r.push_table("speedup", t);
    vec![r]
}

// ---------------------------------------------------------------- fig 9

fn fig_mlp(opts: &Opts) -> Vec<Report> {
    let mut r =
        Report::new("fig-mlp", "Fig. MLP: average outstanding L1-D misses (MSHRs used per cycle)");
    let set = build_set(opts);
    let mut t = Table::new(&["benchmark", "OoO", "VR"]);
    let results = parallel_map(&set, opts.threads, |w| {
        eprintln!("  [run] {} …", w.name);
        let b = run_technique(w, CoreConfig::table1(), Technique::Baseline, opts.insts);
        let v = run_technique(w, CoreConfig::table1(), Technique::Vr, opts.insts);
        (b.mlp(), v.mlp())
    });
    for (w, (b_mlp, v_mlp)) in set.iter().zip(&results) {
        t.row(vec![w.name.clone(), format!("{b_mlp:.2}"), format!("{v_mlp:.2}")]);
    }
    r.push_table("mlp", t);
    vec![r]
}

// ---------------------------------------------------------------- fig 10

fn fig_accuracy(opts: &Opts) -> Vec<Report> {
    let mut r = Report::new(
        "fig-accuracy",
        "Fig. accuracy/coverage: DRAM line reads normalized to the baseline, \
         split main thread vs runahead",
    );
    let set = build_set(opts);
    let mut t = Table::new(&["benchmark", "OoO total", "VR main", "VR runahead", "VR total(norm)"]);
    let results = parallel_map(&set, opts.threads, |w| {
        eprintln!("  [run] {} …", w.name);
        let b = run_technique(w, CoreConfig::table1(), Technique::Baseline, opts.insts);
        let v = run_technique(w, CoreConfig::table1(), Technique::Vr, opts.insts);
        (b, v)
    });
    for (w, (b, v)) in set.iter().zip(&results) {
        let bt = b.mem.dram_reads_total() as f64;
        let main = v.mem.dram_reads_by(Requestor::Main) as f64;
        let ra = v.mem.dram_reads_by(Requestor::Runahead) as f64;
        let vt = v.mem.dram_reads_total() as f64;
        t.row(vec![
            w.name.clone(),
            format!("{bt:.0}"),
            format!("{:.2}", main / bt),
            format!("{:.2}", ra / bt),
            format!("{:.2}", vt / bt),
        ]);
    }
    r.push_table("dram-reads", t);
    vec![r]
}

// ---------------------------------------------------------------- fig 11

fn fig_timeliness(opts: &Opts) -> Vec<Report> {
    let mut r = Report::new(
        "fig-timeliness",
        "Fig. timeliness: where the main thread finds runahead-prefetched lines",
    );
    let set = build_set(opts);
    let mut t = Table::new(&["benchmark", "L1", "L2", "L3", "off-chip"]);
    let results = parallel_map(&set, opts.threads, |w| {
        eprintln!("  [run] {} …", w.name);
        run_technique(w, CoreConfig::table1(), Technique::Vr, opts.insts).mem.timeliness_fractions()
    });
    for (w, f) in set.iter().zip(&results) {
        t.row(vec![w.name.clone(), pct(f[0]), pct(f[1]), pct(f[2]), pct(f[3])]);
    }
    r.push_table("timeliness", t);
    vec![r]
}

// ---------------------------------------------------------------- veclen

fn fig_veclen(opts: &Opts) -> Vec<Report> {
    let mut r = Report::new(
        "fig-veclen",
        "Fig. vector length: VR speedup over baseline vs vectorization degree K",
    );
    let set = sweep_set(opts);
    let lanes = [16usize, 32, 64, 128];
    let mut t = Table::new(&["benchmark", "K=16", "K=32", "K=64", "K=128"]);
    let mut agg = vec![Vec::new(); lanes.len()];
    let results = parallel_map(&set, opts.threads, |w| {
        eprintln!("  [run] {} …", w.name);
        let base = run_technique(w, CoreConfig::table1(), Technique::Baseline, opts.insts);
        lanes.map(|k| {
            let ra = RunaheadConfig { vr_lanes: k, ..RunaheadConfig::vector() };
            run_custom(w, CoreConfig::table1(), MemConfig::table1(), ra, opts.insts)
                .speedup_over(&base)
        })
    });
    for (w, sps) in set.iter().zip(&results) {
        let mut cells = vec![w.name.clone()];
        for (i, &sp) in sps.iter().enumerate() {
            agg[i].push(sp);
            cells.push(ratio(sp));
        }
        t.row(cells);
    }
    let mut hm = vec!["h-mean".to_string()];
    for (k, a) in lanes.iter().zip(&agg) {
        let h = harmonic_mean(a);
        r.metric(&format!("hmean_K{k}"), h);
        hm.push(ratio(h));
    }
    t.row(hm);
    r.push_table("speedup", t);
    vec![r]
}

// ---------------------------------------------------------------- interval

fn fig_interval(opts: &Opts) -> Vec<Report> {
    let mut r = Report::new(
        "fig-interval",
        "Fig. trigger/interval statistics (VR): entries, runahead-time, \
         full-window stall, delayed-termination commit stall",
    );
    let set = build_set(opts);
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
    let results = parallel_map(&set, opts.threads, |w| {
        eprintln!("  [run] {} …", w.name);
        let b = run_technique(w, CoreConfig::table1(), Technique::Baseline, opts.insts);
        let v = run_technique(w, CoreConfig::table1(), Technique::Vr, opts.insts);
        (b, v)
    });
    for (w, (b, v)) in set.iter().zip(&results) {
        t.row(vec![
            w.name.clone(),
            v.runahead_entries.to_string(),
            pct(v.runahead_cycles as f64 / v.cycles as f64),
            pct(b.full_rob_stall_fraction()),
            pct(v.delayed_termination_stall_cycles as f64 / v.cycles as f64),
            v.vr_batches.to_string(),
            v.vr_lanes_spawned.to_string(),
            v.vr_lanes_invalidated.to_string(),
        ]);
    }
    r.push_table("intervals", t);
    vec![r]
}

// ---------------------------------------------------------------- ablations

/// Design-choice ablations of the VR engine implementation (the
/// choices DESIGN.md §4 calls out): VIR pipelining, reconvergence,
/// bounded termination.
fn fig_ablation(opts: &Opts) -> Vec<Report> {
    let mut r = Report::new(
        "fig-ablation",
        "Fig. design ablations: VR variants, speedup over the baseline OoO",
    );
    let set = sweep_set(opts);
    let variants: [(&str, RunaheadConfig); 4] = [
        ("VR", RunaheadConfig::vector()),
        ("no VIR pipelining", RunaheadConfig { vir_pipelining: false, ..RunaheadConfig::vector() }),
        ("+reconvergence", RunaheadConfig { reconvergence: true, ..RunaheadConfig::vector() }),
        (
            "+bounded term (64)",
            RunaheadConfig { termination_slack: Some(64), ..RunaheadConfig::vector() },
        ),
    ];
    let mut t = Table::new(&["benchmark", "VR", "no-pipe", "+reconv", "+bounded"]);
    let mut agg = vec![Vec::new(); variants.len()];
    let results = parallel_map(&set, opts.threads, |w| {
        eprintln!("  [run] {} …", w.name);
        let base = run_technique(w, CoreConfig::table1(), Technique::Baseline, opts.insts);
        variants
            .clone()
            .map(|(_, ra)| {
                run_custom(w, CoreConfig::table1(), MemConfig::table1(), ra, opts.insts)
                    .speedup_over(&base)
            })
            .to_vec()
    });
    for (w, sps) in set.iter().zip(&results) {
        let mut cells = vec![w.name.clone()];
        for (i, &sp) in sps.iter().enumerate() {
            agg[i].push(sp);
            cells.push(ratio(sp));
        }
        t.row(cells);
    }
    let mut hm = vec!["h-mean".to_string()];
    for a in &agg {
        hm.push(ratio(harmonic_mean(a)));
    }
    t.row(hm);
    r.push_table("speedup", t);
    vec![r]
}

/// Sensitivity to the MSHR count — the resource VR saturates.
fn fig_mshr(opts: &Opts) -> Vec<Report> {
    let mut r =
        Report::new("fig-mshr", "Fig. MSHR sensitivity: VR speedup over same-MSHR baseline");
    let set = sweep_set(opts);
    let counts = [8usize, 16, 24, 48];
    let mut t = Table::new(&["benchmark", "8", "16", "24", "48"]);
    let mut agg = vec![Vec::new(); counts.len()];
    let mut holed = vec![false; counts.len()];
    let results = parallel_map(&set, opts.threads, |w| {
        eprintln!("  [run] {} …", w.name);
        counts.map(|m| {
            let mem_cfg = MemConfig { mshrs: m, ..MemConfig::table1() };
            let base = run_custom(
                w,
                CoreConfig::table1(),
                mem_cfg.clone(),
                RunaheadConfig::none(),
                opts.insts,
            );
            let vr =
                run_custom(w, CoreConfig::table1(), mem_cfg, RunaheadConfig::vector(), opts.insts);
            (base, vr)
        })
    });
    for (w, row) in set.iter().zip(&results) {
        let mut cells = vec![w.name.clone()];
        for (i, (base, vr)) in row.iter().enumerate() {
            // A poisoned point degrades to an explicit HOLE cell (and
            // taints the column aggregate) instead of aborting.
            if is_hole(base) || is_hole(vr) {
                holed[i] = true;
            } else {
                agg[i].push(vr.speedup_over(base));
            }
            cells.push(holey(&[base, vr], ratio(vr.speedup_over(base))));
        }
        t.row(cells);
    }
    let mut hm = vec!["h-mean".to_string()];
    for (a, &tainted) in agg.iter().zip(&holed) {
        hm.push(if tainted { "HOLE".to_string() } else { ratio(harmonic_mean(a)) });
    }
    t.row(hm);
    r.push_table("speedup", t);
    vec![r]
}

// ---------------------------------------------------------------- fig chip

/// Multi-core chip figure (DESIGN.md §16): N cores contend for the
/// shared banked LLC + DRAM broker, homogeneous and mixed workload
/// placements, VR on vs off. Deliberately not part of `all`: a chip
/// point costs N single-core budgets, and the contention columns are
/// a capability artifact rather than a paper figure.
fn fig_chip(opts: &Opts) -> Vec<Report> {
    use vr_bench::{is_chip_hole, run_chip_point, tainted_harmonic_mean};
    let mut r = Report::new(
        "fig-chip",
        &format!(
            "Fig. chip: VR under shared-LLC contention, N ∈ {:?} cores (budget {} insts/core)",
            vr_bench::points::CHIP_CORE_COUNTS,
            opts.insts
        ),
    );
    let fig_opts = vr_bench::points::FigureOpts {
        insts: opts.insts,
        presets: opts.presets.clone(),
        scale: opts.scale,
    };
    let points = vr_bench::points::chip_points("fig-chip", &fig_opts).expect("fig-chip enumerates");
    // One pool task per chip point: each point steps its cores in
    // lockstep internally, so the fan-out axis is the point list.
    let runs = parallel_map(&points, opts.threads, |p| {
        eprintln!("  [run] {} …", p.label);
        run_chip_point(p)
    });

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
    let per_core_hmean = |run: &vr_chip::ChipRun| {
        let ipcs: Vec<f64> = run.per_core.iter().map(|s| s.ipc()).collect();
        tainted_harmonic_mean(&ipcs).0
    };
    let cell = |hole: bool, v: String| if hole { "HOLE".to_string() } else { v };

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
    for (p, run) in points.iter().zip(&runs) {
        let hole = is_chip_hole(run);
        let hm = per_core_hmean(run);
        let lookups = run.chip.llc_hits + run.chip.llc_misses;
        let hitpct = if lookups == 0 { 0.0 } else { run.chip.llc_hits as f64 / lookups as f64 };
        if !hole {
            r.metric(&format!("ipc_{}", p.label), hm);
            r.metric(&format!("bank_conflicts_{}", p.label), run.chip.bank_conflicts as f64);
        }
        t.row(vec![
            p.label.clone(),
            p.chip.cores.to_string(),
            cell(hole, format!("{hm:.3}")),
            cell(hole, run.chip.bank_conflicts.to_string()),
            cell(hole, run.chip.arbitration_stall_cycles.to_string()),
            cell(hole, run.chip.shared_mshr_rejections.to_string()),
            cell(hole, pct(hitpct)),
        ]);
    }
    r.push_table("contention", t);

    // VR/OoO speedup per (placement, N) — how much of single-core
    // VR's win survives contention. The enumeration emits OoO-then-VR
    // pairs, so adjacent runs pair up.
    let mut s = Table::new(&["placement", "cores", "OoO IPC", "VR IPC", "VR/OoO"]);
    let mut chart = BarChart::new("VR speedup over OoO under shared-LLC contention");
    for (pp, rr) in points.chunks(2).zip(runs.chunks(2)) {
        let ([po, pv], [ro, rv]) = (pp, rr) else { continue };
        assert!(
            po.label.ends_with("/OoO") && pv.label.ends_with("/VR"),
            "enumeration must pair OoO/VR"
        );
        let hole = is_chip_hole(ro) || is_chip_hole(rv);
        let (o_ipc, v_ipc) = (per_core_hmean(ro), per_core_hmean(rv));
        let sp = v_ipc / o_ipc;
        let name = po.label.trim_end_matches("/OoO").trim_start_matches("fig-chip/");
        if !hole {
            r.metric(&format!("speedup_{name}"), sp);
            chart.bar(name, sp);
        }
        s.row(vec![
            name.to_string(),
            po.chip.cores.to_string(),
            cell(hole, format!("{o_ipc:.3}")),
            cell(hole, format!("{v_ipc:.3}")),
            cell(hole, ratio(sp)),
        ]);
    }
    r.push_table("speedup", s);
    r.push_chart(chart);
    vec![r]
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
    let set = build_set(opts);
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
    sim.enable_trace(usize::try_from(opts.insts).unwrap_or(MAX_RETAINED).min(MAX_RETAINED));
    sim.enable_telemetry(4096);
    let stats = sim.try_run(opts.insts).unwrap_or_else(|e| {
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
            opts.insts, opts.threads
        ),
    );

    // --- per-point KIPS, measured with the micro-benchmark runner.
    let set = build_set(opts);
    let mut runner = Runner::new("sim");
    runner.samples = 5;
    runner.sample_time = Duration::from_millis(20);
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"vr-bench-perf-report-v6\",");
    let _ = writeln!(json, "  \"insts_per_run\": {},", opts.insts);
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
            let insts = run_technique(w, CoreConfig::table1(), tech, opts.insts).instructions;
            let m = runner.bench(&format!("{}/{}", w.name, tech.label()), || {
                run_technique(w, CoreConfig::table1(), tech, opts.insts)
            });
            let kips = insts as f64 / m.per_iter.as_secs_f64() / 1e3;
            all_kips.push(kips);
            let ratio_cell = if ti == 0 {
                baseline_kips = kips;
                String::new()
            } else {
                // A HOLE point (poisoned under --cache) measures 0.0
                // KIPS, making the ratio inf/NaN; keep it (the taint
                // accounting below skips it) but render/export it as
                // unusable rather than as a number.
                let ratio = kips / baseline_kips;
                ratios.push((w.name.clone(), ratio));
                if ratio.is_finite() {
                    format!("{ratio:.2}")
                } else {
                    "HOLE".into()
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
    // sentinel must never leak into the trend CI gates on — a single
    // poisoned HOLE point measuring 0.0 KIPS is skipped and *counted*
    // instead of zeroing the whole h-mean.
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
             {ratio_skipped} ratio value(s) skipped (HOLE points?)"
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
        let w = vr_workloads::hpcdb::kangaroo(opts.scale);
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
            let run = chip.try_run(opts.insts).unwrap_or_else(|e| {
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
                opts.insts.to_string(),
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
            opts.insts,
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

    // --- end-to-end figure timing, serial vs the sweep pool. Two
    // windows per run: total wall time, and the time spent *inside*
    // `parallel_map` (the parallel region). `pool_speedup` is the
    // parallel-region ratio — the old harness timed `f(opts)` with the
    // single-threaded `render_text` printing inside the measured
    // window, so serialized stdout and figure setup swamped the pool
    // and the recorded speedup sat at ~1.0 regardless of thread count.
    // Rendering now happens strictly after both clocks stop.
    type Figure = (&'static str, fn(&Opts) -> Vec<Report>);
    let figures: [Figure; 2] = [("table2", table2), ("fig-mlp", fig_mlp)];
    // Warm the sweep pool outside every timed window so neither side
    // pays the one-off thread spawn.
    vr_bench::parallel_map(&[0u8; 64], opts.threads, |_| ());
    json.push_str("  \"figures\": [\n");
    for (fi, (id, f)) in figures.into_iter().enumerate() {
        let serial = Opts {
            insts: opts.insts,
            presets: opts.presets.clone(),
            scale: opts.scale,
            threads: 1,
            workload: None,
            figure: None,
            cancel_after_ms: None,
            fail_point: None,
            point_deadline_ms: None,
            tmp_age_ms: None,
            shards: 1,
            shard: 0,
            spool: None,
        };
        let timed = |o: &Opts| {
            vr_bench::reset_parallel_region();
            let t0 = Instant::now();
            let reports = f(o);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let par_ms = vr_bench::parallel_region_nanos() as f64 / 1e6;
            // Render outside the timed window: the figure output still
            // goes to stdout, it just no longer pollutes the clocks.
            for r in reports {
                print!("{}", r.render_text());
            }
            (wall_ms, par_ms)
        };
        let (wall_serial, par_serial) = timed(&serial);
        let (wall_pool, par_pool) = timed(opts);
        let speedup = par_serial / par_pool;
        eprintln!(
            "  [time] {id}: parallel region {par_serial:.0} ms serial, {par_pool:.0} ms \
             with {} threads ({speedup:.2}x); wall {wall_serial:.0} -> {wall_pool:.0} ms",
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
