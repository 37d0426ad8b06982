//! The repo's benchmark: one workload per process, timed from outside
//! the simulator crates through their public functions only. See
//! `README.md` beside this crate for the workloads, the metrics and
//! how they interact; `BENCHMARK.json` at the repo root names them.

mod campaign_wl;
mod chip_wl;
mod core_wl;
mod inputs;
mod layers;
mod metrics;
mod passes;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use inputs::Sizing;
use metrics::{end_to_end, per_layer, Better, MetricDef, Report};
use trace::Tracer;

/// The four workloads, by the names `BENCHMARK.json` gives them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    CoreOoo,
    CoreVr,
    ChipScale,
    CampaignColdwarm,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::CoreOoo, Workload::CoreVr, Workload::ChipScale, Workload::CampaignColdwarm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CoreOoo => "core_ooo",
            Workload::CoreVr => "core_vr",
            Workload::ChipScale => "chip_scale",
            Workload::CampaignColdwarm => "campaign_coldwarm",
        }
    }
}

/// What one measurement of one workload is given.
pub struct Run<'a> {
    pub sizing: &'a Sizing,
    /// Seeds the Kronecker graph under the five GAP programs.
    pub seed: u64,
    /// How long to measure, after set-up and the warm-up pass.
    pub seconds: f64,
    /// Span sink; a disabled one in an untraced run.
    pub tracer: &'a Tracer,
    /// A directory of the benchmark's own, for campaign stores.
    pub scratch: &'a Path,
}

/// Whether another pass (or round) should start: while at least half
/// of one, at the pace of the `done` so far, still fits in `seconds`.
pub fn another_fits(started: Instant, seconds: f64, done: usize) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    elapsed + 0.5 * elapsed / done.max(1) as f64 <= seconds
}

/// Runs `workload` once and adds the metrics every workload shares.
pub fn measure(workload: Workload, run: &Run) -> Report {
    let mut report = match workload {
        Workload::CoreOoo => core_wl::run(run, false),
        Workload::CoreVr => core_wl::run(run, true),
        Workload::ChipScale => chip_wl::run(run),
        Workload::CampaignColdwarm => campaign_wl::run(run),
    };
    if let Some(mb) = peak_rss_mb() {
        report.put("peak_rss_mb", mb, 1, None);
    }
    report
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit of the enclosing git checkout, if there is one.
fn git_commit() -> String {
    let head = |dir: &Path| -> Option<String> {
        let text = std::fs::read_to_string(dir.join(".git/HEAD")).ok()?;
        match text.trim().strip_prefix("ref: ") {
            Some(r) => {
                Some(std::fs::read_to_string(dir.join(".git").join(r)).ok()?.trim().to_owned())
            }
            None => Some(text.trim().to_owned()),
        }
    };
    head(Path::new(".")).or_else(|| head(Path::new(".."))).unwrap_or_else(|| "unknown".to_owned())
}

/// `run_seconds` of `BENCHMARK.json`: what the driver passes as `--seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

const USAGE: &str =
    "usage: vr-benchmark --workload <core_ooo|core_vr|chip_scale|campaign_coldwarm> \
                     [--seed N] [--seconds N] [--trace 0|1] [--selfcheck]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::CoreOoo,
        seed: 0x5EED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload {v}"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                args.seed = parsed.map_err(|_| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| format!("bad seconds {v}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(format!("seconds {v} out of range"));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The printed table: every metric of `table` by name with its unit,
/// direction, value, repetition count and inter-quartile range.
fn render_table(report: &Report, table: &[MetricDef]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<36} {:>16} {:<10} {:<6} {:>4}  {:<14} note",
        "metric", "value", "unit", "better", "n", "iqr"
    );
    for def in table {
        let (name, unit, better) = (&def.name, def.unit, def.better.as_str());
        match report.get(name) {
            Some(m) => {
                let iqr = m.iqr.map_or_else(|| "-".to_owned(), |v| format!("{v:.6}"));
                let _ = writeln!(
                    out,
                    "{name:<36} {:>16.6} {unit:<10} {better:<6} {:>4}  {iqr:<14} {}",
                    m.value, m.n, m.note
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{name:<36} {:>16} {unit:<10} {better:<6} {:>4}  {:<14} not exercised by this workload",
                    "-", "-", "-"
                );
            }
        }
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`. A metric the workload does not exercise reads 0.
fn result_line(report: &Report, table: &[MetricDef]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|def| {
            let value = report.get(&def.name).map_or(0.0, |m| m.value);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", def.name, def.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

/// `--selfcheck`: the relative difference of each end-to-end metric
/// between two back-to-back runs, against its bound.
fn render_selfcheck(a: &Report, b: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "selfcheck", "run 1", "run 2", "diff", "bound"
    );
    for m in &end_to_end() {
        let (Some(x), Some(y)) = (a.get(&m.name), b.get(&m.name)) else { continue };
        let bound = m.bound.unwrap_or(0.0);
        // Positive = run 2 worse than run 1.
        let worse = match m.better {
            Better::Higher => (x.value - y.value) / x.value,
            Better::Lower => (y.value - x.value) / x.value,
        };
        // VmHWM never falls, so the second run's reading is not independent.
        let verdict = if m.name == "peak_rss_mb" {
            "n/a (process-wide high-water mark)"
        } else if worse.abs() <= bound {
            "PASS"
        } else {
            "UNRESOLVED"
        };
        let _ = writeln!(
            out,
            "{:<20} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {verdict}",
            m.name,
            x.value,
            y.value,
            worse * 100.0,
            bound * 100.0
        );
    }
    out
}

/// A fresh directory beside the executable, so inside the build
/// directory of whichever checkout built it.
fn scratch_dir(tag: &str) -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or_else(|| Path::new("."))
        .join(format!("vr-benchmark-scratch-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Spans a traced run can hold: the campaign's store probe alone
/// records two per record.
const SPAN_CAPACITY: usize = 1 << 16;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = match scratch_dir("run") {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot create a scratch directory beside the executable: {e}");
            return ExitCode::from(2);
        }
    };
    let sizing = Sizing::paper();
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let header = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("BENCH_RUSTC_VERSION"),
        git_commit()
    );
    println!("# run {header}");
    println!("# {}", sizing.describe());

    let tracer = Tracer::new(args.trace, SPAN_CAPACITY);
    let run = Run {
        sizing: &sizing,
        seed: args.seed,
        seconds: args.seconds,
        tracer: &tracer,
        scratch: &scratch,
    };
    let mut report = measure(args.workload, &run);
    if args.selfcheck {
        let second = measure(args.workload, &run);
        print!("{}", render_selfcheck(&report, &second));
        report.require(report.stats_fnv == second.stats_fnv, "selfcheck: simulated stats repeat");
        // The table below is the first run's; the second run's ops count too.
        report.attempted += second.attempted;
        report.failed += second.failed;
        report.failures.extend(second.failures);
        report.concurrent_ops.extend(second.concurrent_ops);
    }

    let (spans, dropped) = tracer.finish();
    if args.trace {
        let check = trace::check(&spans, &report.concurrent_ops);
        let path = scratch.with_file_name(format!("trace-{}.json", args.workload.name()));
        let written = std::fs::write(&path, trace::to_json(&header, &spans));
        if report.attempt("trace file", written.map_err(|e| e.to_string())).is_some() {
            println!("# trace: {} spans in {}", spans.len(), path.display());
        }
        println!(
            "# trace: {} ops ({} of them ran their children on two threads), {} spans dropped, \
             {} children escape their parent, self times sum to the one-thread ops' wall time \
             within {:.4}%",
            check.ops,
            report.concurrent_ops.len(),
            dropped,
            check.escaping_children,
            check.self_time_error * 100.0
        );
        report.require(
            dropped == 0 && check.escaping_children == 0 && check.self_time_error <= 0.02,
            "trace is whole, nested, and its self times sum to the wall time within 2%",
        );
        println!("# self time by span name (ms):");
        for (name, ns) in trace::self_times(&spans) {
            println!("#   {name:<24} {:>12.3}", ns as f64 / 1e6);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    for note in &report.notes {
        println!("# {note}");
    }
    print!("{}", render_table(&report, &end_to_end()));
    if args.trace {
        print!("{}", render_table(&report, &per_layer()));
    }
    println!("stats_fnv {:#018x}", report.stats_fnv);
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!("fail_frac {fail_frac} ({} failed of {} attempted)", report.failed, report.attempted);
    for f in &report.failures {
        println!("FAILED {f}");
    }
    let table = if args.trace { per_layer() } else { end_to_end() };
    println!("{}", result_line(&report, &table));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
