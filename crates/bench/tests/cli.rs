//! Integration tests for the `experiments` binary's command-line
//! surface: generated usage, error exits, and the `--json` / `--csv`
//! export path. Only simulation-free subcommands (`table1`,
//! `table-hw`) and one `--quick` trace run are exercised, so the
//! suite stays cheap in debug builds.

use std::path::PathBuf;
use std::process::{Command, Output};

use vr_obs::Json;

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().expect("spawn experiments")
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vr-cli-{}-{name}", std::process::id()))
}

/// The value cell of a two-column metric table row, found by its
/// metric label — robust to the column widths shifting as metrics are
/// added.
fn cell(out: &str, metric: &str) -> Option<String> {
    out.lines().find_map(|l| {
        let rest = l.strip_prefix(metric)?;
        rest.starts_with(' ').then(|| rest.trim().to_string())
    })
}

#[test]
fn no_arguments_prints_generated_usage_and_exits_nonzero() {
    let o = experiments(&[]);
    assert_eq!(o.status.code(), Some(2));
    let err = stderr(&o);
    assert!(err.contains("usage: experiments"), "missing usage header: {err}");
    // The id list is generated from the dispatch table: every command
    // must appear, including the ones added by this layer.
    for id in ["table1", "fig-accuracy", "trace", "fault-oracle", "perf-report", "all"] {
        assert!(err.contains(id), "usage must list {id}: {err}");
    }
    assert!(err.contains("--json"), "usage must document --json: {err}");
}

#[test]
fn unknown_subcommand_exits_nonzero_with_usage() {
    // `fig-breakdown` is a retired id (folded into `fig-ablation`).
    for id in ["fig-bogus", "fig-breakdown"] {
        let o = experiments(&[id]);
        assert_eq!(o.status.code(), Some(2), "{id}");
        let err = stderr(&o);
        assert!(err.contains("unknown command"), "{err}");
        assert!(err.contains("usage: experiments"), "{err}");
    }
}

#[test]
fn fig_ablation_columns_and_hmean_metrics_come_from_one_list() {
    let path = tmp("ablation.json");
    let o = experiments(&[
        "fig-ablation",
        "--quick",
        "--insts",
        "2000",
        "--threads",
        "2",
        "--json",
        path.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let header: Vec<String> = stdout(&o)
        .lines()
        .find(|l| l.starts_with("benchmark"))
        .expect("header row")
        .split_whitespace()
        .map(str::to_string)
        .collect();
    assert_eq!(header, ["benchmark", "VR", "no-pipe", "+bounded", "+eager"]);
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("json written"))
        .expect("exported JSON parses");
    std::fs::remove_file(&path).ok();
    let reports = doc.get("reports").and_then(Json::as_arr).expect("reports");
    let metrics = reports[0].get("metrics").expect("metrics");
    for name in ["hmean_VR", "hmean_no-pipe", "hmean_bounded", "hmean_eager"] {
        assert!(metrics.get(name).and_then(Json::as_f64).is_some(), "{name} missing: {metrics}");
    }
}

#[test]
fn unknown_flag_after_valid_subcommand_exits_nonzero_with_usage() {
    // Regression: a mistyped flag used to die with a bare one-line
    // error and no usage text.
    // The later flags are retired ones (DESIGN.md §15, §17): they must
    // be refused like any other unknown flag, never silently accepted.
    for args in [
        &["table1", "--bogus-flag"][..],
        &["fig-chip", "--chip-threads", "2"],
        &["campaign", "--spool", "dir", "serve"],
    ] {
        let o = experiments(args);
        assert_eq!(o.status.code(), Some(2), "{args:?}");
        let err = stderr(&o);
        assert!(err.contains(&format!("unknown flag {}", args[1])), "{err}");
        assert!(err.contains("usage: experiments"), "{err}");
    }
}

#[test]
fn missing_flag_values_exit_nonzero() {
    for args in [["table1", "--insts"], ["table1", "--json"], ["table1", "--threads"]] {
        let o = experiments(&args);
        assert_eq!(o.status.code(), Some(2), "{args:?} must exit 2");
    }
}

#[test]
fn trace_without_a_workload_lists_the_available_names() {
    let o = experiments(&["trace", "--quick"]);
    assert_eq!(o.status.code(), Some(2));
    let err = stderr(&o);
    assert!(err.contains("requires a workload name"), "{err}");
    assert!(err.contains("available:"), "{err}");
    assert!(err.contains("Kangaroo"), "{err}");
}

#[test]
fn json_export_is_schema_versioned_and_matches_the_text_output() {
    let path = tmp("table1.json");
    let o = experiments(&["table1", "--json", path.to_str().unwrap()]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let text = stdout(&o);
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("json written"))
        .expect("exported JSON parses");
    std::fs::remove_file(&path).ok();
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("vr-experiments-v1"));
    assert_eq!(doc.get("command").and_then(Json::as_str), Some("table1"));
    let reports = doc.get("reports").and_then(Json::as_arr).expect("reports");
    assert_eq!(reports[0].get("id").and_then(Json::as_str), Some("table1"));
    // Every exported cell string appears verbatim in the text output.
    let tables = reports[0].get("tables").and_then(Json::as_arr).expect("tables");
    let rows = tables[0].get("rows").and_then(Json::as_arr).expect("rows");
    assert!(!rows.is_empty());
    for row in rows {
        for cell in row.as_arr().expect("row") {
            let cell = cell.as_str().expect("cell string");
            assert!(text.contains(cell), "exported cell {cell:?} missing from text output");
        }
    }
}

#[test]
fn csv_export_carries_the_schema_comment_and_table_headers() {
    let path = tmp("hw.csv");
    let o = experiments(&["table-hw", "--csv", path.to_str().unwrap()]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let csv = std::fs::read_to_string(&path).expect("csv written");
    std::fs::remove_file(&path).ok();
    assert!(csv.starts_with("# schema: vr-experiments-v1\n"), "{csv}");
    assert!(csv.contains("# report: table-hw table: overhead"), "{csv}");
    assert!(csv.contains("structure,bits,bytes"), "{csv}");
}

#[test]
fn threads_zero_means_auto() {
    // `--threads 0` selects every available core instead of erroring.
    let o = experiments(&["table1", "--threads", "0"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert!(stdout(&o).contains("Table 1"), "{}", stdout(&o));
    // A non-numeric value still errors.
    let o = experiments(&["table1", "--threads", "lots"]);
    assert_eq!(o.status.code(), Some(2));
}

#[test]
fn campaign_requires_a_cache_and_an_action() {
    let o = experiments(&["campaign", "run"]);
    assert_eq!(o.status.code(), Some(2));
    assert!(stderr(&o).contains("requires --cache"), "{}", stderr(&o));

    let store = tmp("campaign-noaction");
    let o = experiments(&["campaign", "--cache", store.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(2));
    assert!(stderr(&o).contains("requires an action"), "{}", stderr(&o));

    let o = experiments(&["campaign", "teleport", "--cache", store.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(2));
    assert!(stderr(&o).contains("unknown campaign action"), "{}", stderr(&o));

    let o = experiments(&[
        "campaign",
        "run",
        "--cache",
        store.to_str().unwrap(),
        "--figure",
        "fig-bogus",
    ]);
    assert_eq!(o.status.code(), Some(2));
    assert!(stderr(&o).contains("unknown or uncacheable figure"), "{}", stderr(&o));
    std::fs::remove_dir_all(&store).ok();
}

/// The one-sweep-path acceptance: a `campaign run` over `all` warms the
/// store, `all` under `--cache` is then pure hits, and its stdout /
/// `--json` / `--csv` output is byte-identical to an uncached run.
/// Every figure renders from the point list the campaign drove, so
/// this covers every figure's enumeration at once.
#[test]
fn warmed_cache_makes_every_figure_pure_hits_and_byte_identical() {
    let store = tmp("campaign-byteident");
    std::fs::remove_dir_all(&store).ok();
    let base = ["all", "--quick", "--insts", "2000", "--threads", "2"];

    // 1. Warm the store through the campaign engine.
    let o = experiments(&[
        "campaign",
        "run",
        "--quick",
        "--insts",
        "2000",
        "--figure",
        "all",
        "--threads",
        "2",
        "--cache",
        store.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert!(stdout(&o).contains("campaign complete"), "{}", stdout(&o));

    // 2. Uncached reference run.
    let (uj, uc) = (tmp("bi-u.json"), tmp("bi-u.csv"));
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--json", uj.to_str().unwrap(), "--csv", uc.to_str().unwrap()]);
    let uncached = experiments(&args);
    assert!(uncached.status.success(), "stderr: {}", stderr(&uncached));

    // 3. Cached run against the warmed store: zero misses.
    let (cj, cc) = (tmp("bi-c.json"), tmp("bi-c.csv"));
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--cache", store.to_str().unwrap()]);
    args.extend(["--json", cj.to_str().unwrap(), "--csv", cc.to_str().unwrap()]);
    let cached = experiments(&args);
    assert!(cached.status.success(), "stderr: {}", stderr(&cached));
    let err = stderr(&cached);
    assert!(err.contains(" 0 misses"), "a figure ran simulations despite the warm cache: {err}");

    // 4. Byte-identical text and exports.
    assert_eq!(stdout(&uncached), stdout(&cached), "cached stdout differs");
    let read = |p: &PathBuf| std::fs::read(p).expect("export written");
    assert_eq!(read(&uj), read(&cj), "cached --json differs");
    assert_eq!(read(&uc), read(&cc), "cached --csv differs");
    for p in [uj, uc, cj, cc] {
        std::fs::remove_file(&p).ok();
    }

    // 5. `status` sees a fully-present campaign; `verify` is clean.
    let o = experiments(&[
        "campaign",
        "status",
        "--quick",
        "--insts",
        "2000",
        "--cache",
        store.to_str().unwrap(),
    ]);
    assert!(o.status.success());
    assert_eq!(cell(&stdout(&o), "missing").as_deref(), Some("0"), "{}", stdout(&o));
    let o = experiments(&["campaign", "verify", "--cache", store.to_str().unwrap()]);
    assert!(o.status.success(), "verify not clean: {}", stdout(&o));
    assert!(stdout(&o).contains("store clean"), "{}", stdout(&o));
    std::fs::remove_dir_all(&store).ok();
}

/// Graceful-cancellation + resume: `--cancel-after-ms` stops the run
/// early with a consistent store; a second run finishes only the
/// remainder and a third is pure hits.
#[test]
fn cancelled_campaign_resumes_without_recomputation() {
    let store = tmp("campaign-cancel");
    std::fs::remove_dir_all(&store).ok();
    let run = |extra: &[&str]| {
        let mut args = vec![
            "campaign",
            "run",
            "--quick",
            "--insts",
            "30000",
            "--figure",
            "fig-veclen",
            "--threads",
            "2",
            "--cache",
            store.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        experiments(&args)
    };
    let o = run(&["--cancel-after-ms", "0"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert_eq!(cell(&stdout(&o), "cancelled").as_deref(), Some("true"), "{}", stdout(&o));

    let o = run(&[]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    assert_eq!(cell(&out, "cancelled").as_deref(), Some("false"), "{out}");
    assert!(out.contains("campaign complete"), "{out}");

    let o = run(&[]);
    assert_eq!(cell(&stdout(&o), "computed").as_deref(), Some("0"), "{}", stdout(&o));
    std::fs::remove_dir_all(&store).ok();
}

/// The degradation acceptance path: a campaign with one permanently
/// failing workload (`--fail-point`) completes with the points
/// poisoned instead of fatal, `status --json` reports the same census
/// it prints, the affected figure renders explicit `HOLE` cells and
/// still exits 0, and `gc` un-poisons so a clean re-run converges.
#[test]
fn fail_point_poisons_degrade_figures_to_holes_and_status_json_matches() {
    let store = tmp("campaign-poison");
    std::fs::remove_dir_all(&store).ok();
    let common = ["--quick", "--insts", "2000", "--figure", "fig-mshr"];

    // 1. Poisoned campaign: exit 0, degraded-complete, the injected
    //    error is visible in the poisoned table.
    let mut args = vec![
        "campaign",
        "run",
        "--threads",
        "2",
        "--fail-point",
        "Kangaroo",
        "--cache",
        store.to_str().unwrap(),
    ];
    args.extend_from_slice(&common);
    let o = experiments(&args);
    assert!(o.status.success(), "poisoned campaign must exit 0: {}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("campaign degraded-complete"), "{out}");
    let poisoned: u64 = cell(&out, "poisoned").unwrap().parse().unwrap();
    assert!(poisoned > 0, "{out}");
    assert!(out.contains("injected by --fail-point"), "{out}");

    // 2. `status --json`: the printed census equals the exported one
    //    field by field (both render the same StatusReport).
    let jpath = tmp("poison-status.json");
    let mut args = vec![
        "campaign",
        "status",
        "--cache",
        store.to_str().unwrap(),
        "--json",
        jpath.to_str().unwrap(),
    ];
    args.extend_from_slice(&common);
    let o = experiments(&args);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    let doc = Json::parse(&std::fs::read_to_string(&jpath).expect("json written")).unwrap();
    std::fs::remove_file(&jpath).ok();
    let st = doc.get("reports").and_then(Json::as_arr).expect("reports")[0]
        .get("status")
        .expect("status attachment");
    assert_eq!(st.get("schema").and_then(Json::as_str), Some("vr-campaign-v1"));
    for (row, field) in [
        ("submitted", "submitted"),
        ("unique points", "total"),
        ("present", "present"),
        ("missing", "missing"),
        ("poisoned", "poisoned"),
    ] {
        let printed: u64 = cell(&out, row).unwrap().parse().unwrap();
        assert_eq!(
            Some(printed),
            st.get(field).and_then(Json::as_u64),
            "printed {row} drifted from exported {field}: {out}"
        );
    }
    assert!(cell(&out, "poisoned").unwrap().parse::<u64>().unwrap() > 0, "{out}");
    assert!(out.contains("injected by --fail-point"), "poison detail table missing: {out}");

    // 3. The affected figure: explicit HOLE cells, loud stderr, exit 0.
    let o = experiments(&[
        "fig-mshr",
        "--quick",
        "--insts",
        "2000",
        "--threads",
        "2",
        "--cache",
        store.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "degraded figure must exit 0: {}", stderr(&o));
    assert!(stdout(&o).contains("HOLE"), "{}", stdout(&o));
    let err = stderr(&o);
    assert!(err.contains("degraded:"), "{err}");
    assert!(err.contains("Kangaroo"), "{err}");

    // 4. Every figure degrades the same way, not only the ones that
    //    once carried hand-written hole handling: one poisoned
    //    fig-veclen point masks its cell and taints its column's
    //    h-mean — no `0.00x`, no `hmean_K32` metric exported as 0.
    //    (Its own store: fig-mshr's poisoned 24-MSHR baseline is the
    //    very record fig-veclen's Kangaroo baseline would load.)
    let vstore = tmp("campaign-poison-veclen");
    std::fs::remove_dir_all(&vstore).ok();
    let veclen = ["--quick", "--insts", "2000", "--cache", vstore.to_str().unwrap()];
    let mut args = vec!["campaign", "run", "--figure", "fig-veclen"];
    args.extend(["--fail-point", "Kangaroo/K32"]);
    args.extend_from_slice(&veclen);
    let o = experiments(&args);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert_eq!(cell(&stdout(&o), "poisoned").as_deref(), Some("1"), "{}", stdout(&o));
    let jpath = tmp("poison-veclen.json");
    let mut args = vec!["fig-veclen", "--json", jpath.to_str().unwrap()];
    args.extend_from_slice(&veclen);
    let o = experiments(&args);
    assert!(o.status.success(), "degraded figure must exit 0: {}", stderr(&o));
    let out = stdout(&o);
    let columns = |row: &str| -> Vec<String> {
        let line = out.lines().find(|l| l.starts_with(row)).expect("row present");
        line.split_whitespace().map(str::to_string).collect()
    };
    // benchmark, K=16, K=32, K=64, K=128
    for row in ["Kangaroo", "h-mean"] {
        let cols = columns(row);
        assert_eq!(cols[2], "HOLE", "{row} K=32 must be a HOLE: {out}");
        assert!(cols[1].ends_with('x') && cols[3].ends_with('x'), "healthy columns keep data");
    }
    assert!(!columns("HJ2").contains(&"HOLE".to_string()), "{out}");
    assert!(!out.contains("0.00x"), "a hole must never render as a number: {out}");
    let doc = Json::parse(&std::fs::read_to_string(&jpath).expect("json written")).unwrap();
    std::fs::remove_file(&jpath).ok();
    let metrics = doc.get("reports").and_then(Json::as_arr).expect("reports")[0]
        .get("metrics")
        .expect("metrics");
    assert!(metrics.get("hmean_K32").is_none(), "tainted aggregate exported: {metrics:?}");
    assert!(metrics.get("hmean_K16").and_then(Json::as_f64).is_some_and(|v| v > 0.0));
    assert!(stderr(&o).contains("fig-veclen/Kangaroo/K32"), "{}", stderr(&o));
    std::fs::remove_dir_all(&vstore).ok();

    // 5. `gc` clears the poison and a clean re-run (no injection)
    //    completes the campaign for real.
    let o = experiments(&["campaign", "gc", "--cache", store.to_str().unwrap()]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert!(cell(&stdout(&o), "poison removed").unwrap().parse::<u64>().unwrap() > 0);
    let mut args = vec!["campaign", "run", "--threads", "2", "--cache", store.to_str().unwrap()];
    args.extend_from_slice(&common);
    let o = experiments(&args);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert!(stdout(&o).contains("campaign complete"), "{}", stdout(&o));
    std::fs::remove_dir_all(&store).ok();
}

/// The fig-chip degradation acceptance path: a chip campaign with an
/// injected failure (`--fail-point`) poisons the matching multi-core
/// points, the figure renders explicit `HOLE` cells in both its
/// contention and speedup tables while still exiting 0, and after
/// `gc` + a clean re-run the warmed store makes the figure pure hits
/// with a schema-versioned JSON export.
#[test]
fn fig_chip_fail_point_degrades_to_holes_and_recovers() {
    let store = tmp("chip-poison");
    std::fs::remove_dir_all(&store).ok();
    let common = ["--quick", "--insts", "600", "--figure", "fig-chip"];

    // 1. Poisoned chip campaign: exit 0, degraded-complete, both the
    //    OoO and VR points of the injected placement poisoned.
    let mut args = vec![
        "campaign",
        "run",
        "--threads",
        "2",
        "--fail-point",
        "mixed/n4",
        "--cache",
        store.to_str().unwrap(),
    ];
    args.extend_from_slice(&common);
    let o = experiments(&args);
    assert!(o.status.success(), "poisoned chip campaign must exit 0: {}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("campaign degraded-complete"), "{out}");
    assert_eq!(cell(&out, "poisoned").as_deref(), Some("2"), "{out}");
    assert!(out.contains("injected by --fail-point"), "{out}");

    // 2. The figure under the poisoned store: HOLE cells in both
    //    tables, loud stderr, exit 0.
    let o = experiments(&[
        "fig-chip",
        "--quick",
        "--insts",
        "600",
        "--threads",
        "2",
        "--cache",
        store.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "degraded fig-chip must exit 0: {}", stderr(&o));
    let out = stdout(&o);
    for line in ["fig-chip/mixed/n4/OoO", "fig-chip/mixed/n4/VR", "mixed/n4 "] {
        let row = out.lines().find(|l| l.starts_with(line)).expect("poisoned row present");
        assert!(row.contains("HOLE"), "poisoned row must render HOLE: {row}");
    }
    // Healthy placements keep real numbers.
    let healthy = out.lines().find(|l| l.starts_with("fig-chip/homog/n4/VR")).unwrap();
    assert!(!healthy.contains("HOLE"), "{healthy}");
    let err = stderr(&o);
    assert!(err.contains("degraded:"), "{err}");
    assert!(err.contains("fig-chip/mixed/n4"), "{err}");

    // 3. `gc` un-poisons; a clean chip campaign completes for real.
    let o = experiments(&["campaign", "gc", "--cache", store.to_str().unwrap()]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert!(cell(&stdout(&o), "poison removed").unwrap().parse::<u64>().unwrap() > 0);
    let mut args = vec!["campaign", "run", "--threads", "2", "--cache", store.to_str().unwrap()];
    args.extend_from_slice(&common);
    let o = experiments(&args);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert!(stdout(&o).contains("campaign complete"), "{}", stdout(&o));

    // 4. Warm store: the figure is pure hits, hole-free, and its JSON
    //    export is schema-versioned with the fig-chip report.
    let jpath = tmp("chip-fig.json");
    let o = experiments(&[
        "fig-chip",
        "--quick",
        "--insts",
        "600",
        "--threads",
        "2",
        "--cache",
        store.to_str().unwrap(),
        "--json",
        jpath.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert!(!stdout(&o).contains("HOLE"), "{}", stdout(&o));
    assert!(stderr(&o).contains(" 0 misses"), "chip figure ran despite warm cache: {}", stderr(&o));
    let doc = Json::parse(&std::fs::read_to_string(&jpath).expect("json written")).unwrap();
    std::fs::remove_file(&jpath).ok();
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("vr-experiments-v1"));
    let reports = doc.get("reports").and_then(Json::as_arr).expect("reports");
    assert_eq!(reports[0].get("id").and_then(Json::as_str), Some("fig-chip"));
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn perf_report_exports_cache_counters() {
    // Run in a scratch cwd so BENCH_sim.json does not land in the
    // repo root; perf-report is heavy, so use the tiniest budget.
    let dir = tmp("perfdir");
    std::fs::create_dir_all(&dir).unwrap();
    let o = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["perf-report", "--quick", "--insts", "1000", "--threads", "2"])
        .current_dir(&dir)
        .output()
        .expect("spawn experiments");
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let doc = Json::parse(&std::fs::read_to_string(dir.join("BENCH_sim.json")).unwrap())
        .expect("BENCH_sim.json parses");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("vr-bench-perf-report-v6"));
    // v4 additions (DESIGN.md §16): multi-core chip throughput — one
    // aggregate `chip_kips` plus a per-core breakdown whose entries
    // share the lockstep wall-clock window.
    let chip = doc.get("chip_kips").expect("chip_kips section");
    let cores = chip.get("cores").and_then(Json::as_u64).expect("chip cores");
    assert!(cores >= 2, "chip perf point must be multi-core: {chip:?}");
    let per_core = chip.get("per_core").and_then(Json::as_arr).expect("per-core KIPS");
    assert_eq!(per_core.len() as u64, cores, "one KIPS entry per core");
    for k in per_core {
        assert!(k.as_f64().is_some_and(|v| v > 0.0), "per-core KIPS invalid: {k:?}");
    }
    assert!(
        chip.get("aggregate").and_then(Json::as_f64).is_some_and(|v| v > 0.0),
        "missing/invalid aggregate chip_kips"
    );
    // v5 additions (DESIGN.md §17): core-count scaling points flanking
    // the primary 4-core measurement, plus the chip's fast-forward
    // telemetry so a KIPS regression can be localized from the report.
    let scaling = chip.get("scaling").and_then(Json::as_arr).expect("chip scaling points");
    let scaled: Vec<u64> =
        scaling.iter().filter_map(|s| s.get("cores").and_then(Json::as_u64)).collect();
    assert_eq!(scaled, [2, 8], "scaling sweeps N=2 and N=8: {scaling:?}");
    for s in scaling {
        assert!(
            s.get("aggregate").and_then(Json::as_f64).is_some_and(|v| v > 0.0),
            "scaling point missing aggregate: {s:?}"
        );
    }
    let ff = chip.get("chip_ff").expect("chip fast-forward telemetry");
    for field in ["ff_windows", "ff_cycles_skipped", "episode_steps", "broker_installs"] {
        assert!(ff.get(field).and_then(Json::as_u64).is_some(), "chip_ff missing {field}: {ff:?}");
    }
    // v6 (DESIGN.md §17): parallel chip stepping is gone, and so are
    // the keys that described it.
    for gone in ["par_cycles", "par_core_steps"] {
        assert!(ff.get(gone).is_none(), "chip_ff still exports {gone}: {ff:?}");
    }
    // v2 additions (DESIGN.md §14): per-workload VR/OoO throughput
    // ratio and its harmonic mean.
    let ratios = doc.get("vr_ooo_kips_ratio").expect("vr_ooo_kips_ratio section");
    match ratios {
        Json::Arr(entries) => {
            assert!(!entries.is_empty(), "ratio array must have one entry per workload");
            for e in entries {
                assert!(e.get("workload").is_some() && e.get("ratio").is_some(), "{e:?}");
            }
        }
        other => panic!("vr_ooo_kips_ratio is not an array: {other:?}"),
    }
    assert!(
        doc.get("vr_ooo_kips_ratio_hmean").and_then(Json::as_f64).is_some_and(|r| r > 0.0),
        "missing/invalid vr_ooo_kips_ratio_hmean"
    );
    // v3 additions: taint counters on the aggregates and the timings
    // of the sweep call itself at one thread and at `--threads`, whose
    // ratio is the pool speedup.
    assert_eq!(doc.get("kips_hmean_tainted").and_then(Json::as_u64), Some(0));
    assert_eq!(doc.get("vr_ooo_kips_ratio_tainted").and_then(Json::as_u64), Some(0));
    let figures = doc.get("figures").and_then(Json::as_arr).expect("figures section");
    assert!(!figures.is_empty());
    for fig in figures {
        for field in [
            "wall_ms_threads_1",
            "wall_ms_threads_n",
            "parallel_ms_threads_1",
            "parallel_ms_threads_n",
        ] {
            assert!(
                fig.get(field).and_then(Json::as_f64).is_some_and(|v| v >= 0.0),
                "missing/invalid {field}: {fig:?}"
            );
        }
        assert!(
            fig.get("pool_speedup").and_then(Json::as_f64).is_some_and(|v| v > 0.0),
            "missing/invalid pool_speedup: {fig:?}"
        );
    }
    let cache = doc.get("cache").expect("cache section");
    assert_eq!(cache.get("enabled"), Some(&Json::Bool(false)), "no --cache given");
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(0));
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(0));
}

/// Sorted `(name, bytes)` snapshot of a store's published records —
/// the byte-level identity witness for the serve determinism test.
fn records(store: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    vr_campaign::snapshot_records(store).expect("snapshot store records")
}

#[test]
fn campaign_serve_rejects_bad_shard_specs_and_manifests() {
    use std::io::Write;
    use std::process::Stdio;

    let store = tmp("serve-reject");
    std::fs::remove_dir_all(&store).ok();

    // Out-of-range shard index: flag validation, exit 2.
    let o = experiments(&[
        "campaign",
        "serve",
        "--cache",
        store.to_str().unwrap(),
        "--shards",
        "2",
        "--shard",
        "2",
    ]);
    assert_eq!(o.status.code(), Some(2));
    assert!(stderr(&o).contains("shard"), "{}", stderr(&o));

    // Garbage and unknown-figure manifests: streamed `serve-reject`
    // records, a summary counting them, and a nonzero exit.
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["campaign", "serve", "--cache", store.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(
            b"not json at all\n\
              {\"schema\": \"vr-campaign-manifest-v1\", \"figure\": \"fig-bogus\", \"insts\": 1000}\n",
        )
        .unwrap();
    let o = child.wait_with_output().expect("serve exits");
    assert_eq!(o.status.code(), Some(1), "rejects must flip the exit code: {}", stderr(&o));
    let out = stdout(&o);
    assert_eq!(out.matches("\"kind\":\"serve-reject\"").count(), 2, "{out}");
    assert!(out.contains("\"kind\":\"serve-summary\""), "{out}");
    assert_eq!(cell(&out, "rejected").as_deref(), Some("2"), "{out}");
    assert_eq!(cell(&out, "manifests").as_deref(), Some("0"), "{out}");
    std::fs::remove_dir_all(&store).ok();
}

/// The serve acceptance path (DESIGN.md §15): two concurrent sharded
/// `campaign serve` processes splitting one manifest stream fill a
/// store that is *byte-identical* to a single-process serve of the
/// same stream — the shard partition is exact (no point computed
/// twice, none dropped) and concurrent writers are publish-safe.
#[test]
fn sharded_serves_fill_one_store_byte_identical_to_solo() {
    use std::io::Write;
    use std::process::Stdio;

    // Five fig-mshr manifests at distinct budgets: 5 x 48 = 240
    // points, comfortably past the 200-point acceptance floor while
    // staying quick-scale cheap.
    let manifests: String = [1000u64, 1200, 1400, 1600, 1800]
        .iter()
        .map(|insts| {
            format!(
                "{{\"schema\": \"vr-campaign-manifest-v1\", \"figure\": \"fig-mshr\", \
                 \"insts\": {insts}}}\n"
            )
        })
        .collect();
    let serve = |store: &PathBuf, shard_args: &[&str]| {
        let mut args = vec!["campaign", "serve", "--threads", "2", "--cache"];
        args.push(store.to_str().unwrap());
        args.extend_from_slice(shard_args);
        let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn serve");
        child.stdin.take().unwrap().write_all(manifests.as_bytes()).unwrap();
        child
    };

    let solo_store = tmp("serve-solo");
    let shard_store = tmp("serve-sharded");
    std::fs::remove_dir_all(&solo_store).ok();
    std::fs::remove_dir_all(&shard_store).ok();

    let solo = serve(&solo_store, &[]).wait_with_output().expect("solo serve exits");
    assert!(solo.status.success(), "stderr: {}", stderr(&solo));
    let solo_owned: u64 = cell(&stdout(&solo), "owned points").unwrap().parse().unwrap();
    assert!(solo_owned >= 200, "acceptance needs >= 200 points, got {solo_owned}");

    // Both shards run concurrently against the SAME store.
    let a = serve(&shard_store, &["--shards", "2", "--shard", "0"]);
    let b = serve(&shard_store, &["--shards", "2", "--shard", "1"]);
    let (a, b) = (a.wait_with_output().unwrap(), b.wait_with_output().unwrap());
    assert!(a.status.success(), "shard 0 stderr: {}", stderr(&a));
    assert!(b.status.success(), "shard 1 stderr: {}", stderr(&b));

    // The shards partition the point set exactly.
    let owned = |o: &Output| cell(&stdout(o), "owned points").unwrap().parse::<u64>().unwrap();
    assert_eq!(owned(&a) + owned(&b), solo_owned, "shard ownership must partition the set");
    assert!(owned(&a) > 0 && owned(&b) > 0, "degenerate split: {} + {}", owned(&a), owned(&b));

    // Byte-identical stores: same record names, same record bytes.
    let (solo_recs, shard_recs) = (records(&solo_store), records(&shard_store));
    assert_eq!(solo_recs.len() as u64, solo_owned, "one record per unique point");
    assert_eq!(solo_recs, shard_recs, "sharded store differs from single-process store");

    // The store the two writers raced on verifies clean.
    let o = experiments(&["campaign", "verify", "--cache", shard_store.to_str().unwrap()]);
    assert!(o.status.success(), "verify not clean: {}", stdout(&o));
    assert!(stdout(&o).contains("store clean"), "{}", stdout(&o));

    std::fs::remove_dir_all(&solo_store).ok();
    std::fs::remove_dir_all(&shard_store).ok();
}

#[test]
fn trace_renders_an_annotated_episode_window() {
    let o = experiments(&["trace", "Kangaroo", "--quick"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("Pipeline trace: Kangaroo"), "{out}");
    // Kangaroo's dependent-load chain always triggers vector runahead
    // at Test scale, so the focused window must overlay an episode.
    assert!(out.contains("== runahead episode ["), "no episode separator: {out}");
    assert!(out.contains("<RA>"), "no record flagged in-episode: {out}");
}
