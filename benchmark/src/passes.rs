//! The measurement loop the simulation workloads share: one warm-up
//! pass over the points (the reference result of each, with its output
//! checks), then whole timed passes until the run's seconds are spent.

use std::time::Instant;

use vr_core::harmonic_mean;

use crate::metrics::Report;
use crate::stats::{iqr, median};
use crate::trace::Tracer;
use crate::{another_fits, Run};

/// Host seconds of one op, by the call that spent them.
#[derive(Clone, Copy, Debug)]
pub struct OpTimes {
    pub clone_s: f64,
    pub new_s: f64,
    pub run_s: f64,
}

impl OpTimes {
    /// From the four timestamps around clone, build and run.
    pub fn between(t: [Instant; 4]) -> OpTimes {
        let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
        OpTimes { clone_s: secs(t[0], t[1]), new_s: secs(t[1], t[2]), run_s: secs(t[2], t[3]) }
    }

    pub fn total_s(&self) -> f64 {
        self.clone_s + self.new_s + self.run_s
    }
}

/// Records the span tree of one op: `op` ⊃ {`workloads.clone`, `new`,
/// `run`}.
pub fn record_op(tracer: &Tracer, new: &'static str, run: &'static str, t: [Instant; 4]) {
    let op = tracer.new_op();
    let root = tracer.record("op", op, None, t[0], t[3]);
    tracer.record("workloads.clone", op, Some(root), t[0], t[1]);
    tracer.record(new, op, Some(root), t[1], t[2]);
    tracer.record(run, op, Some(root), t[2], t[3]);
}

/// What the passes over the points measured.
pub struct Passes<R> {
    /// The simulated result of each point (identical on every pass).
    pub results: Vec<R>,
    /// The warm-up op of each point.
    pub first: Vec<OpTimes>,
    /// Timed ops, `[pass][point]`.
    pub timed: Vec<Vec<OpTimes>>,
}

impl<R> Passes<R> {
    /// Median over the timed passes of `f`, per point.
    pub fn median_s(&self, f: fn(&OpTimes) -> f64) -> Vec<f64> {
        (0..self.results.len())
            .map(|p| median(&self.timed.iter().map(|pass| f(&pass[p])).collect::<Vec<_>>()))
            .collect()
    }

    /// `f` of every timed op, in milliseconds.
    pub fn all_ms(&self, f: fn(&OpTimes) -> f64) -> Vec<f64> {
        self.timed.iter().flatten().map(|t| f(t) * 1e3).collect()
    }

    /// Host seconds of each timed pass.
    pub fn pass_s(&self) -> Vec<f64> {
        self.timed.iter().map(|pass| pass.iter().map(OpTimes::total_s).sum()).collect()
    }

    /// Host seconds of the warm-up pass.
    pub fn first_s(&self) -> f64 {
        self.first.iter().map(OpTimes::total_s).sum()
    }
}

/// Runs the warm-up pass, then timed passes while another fits in
/// `run.seconds` (at least one; in a traced run at least two, every
/// second one untraced so the two kinds can be compared). `op` gets
/// the point, the tracer to record into and whether this is the
/// warm-up, in which it also checks the point's output. Every timed
/// repetition must reproduce the warm-up's result exactly. `None` once
/// any op has failed.
pub fn run_passes<P, R: PartialEq>(
    run: &Run,
    points: &[P],
    label: impl Fn(&P) -> String,
    op: impl Fn(&P, &Tracer, bool) -> Result<(R, OpTimes), String>,
    report: &mut Report,
) -> Option<Passes<R>> {
    let mut results = Vec::new();
    let mut first = Vec::new();
    for p in points {
        let (r, t) = report.attempt(&format!("{} warm-up", label(p)), op(p, run.tracer, true))?;
        results.push(r);
        first.push(t);
    }
    let off = Tracer::new(false, 0);
    let mut timed: Vec<Vec<OpTimes>> = Vec::new();
    let min_passes = if run.tracer.enabled() { 2 } else { 1 };
    let started = Instant::now();
    while timed.len() < min_passes || another_fits(started, run.seconds, timed.len()) {
        let tracer = if timed.len().is_multiple_of(2) { run.tracer } else { &off };
        let mut pass = Vec::new();
        for (p, want) in points.iter().zip(&results) {
            let outcome = op(p, tracer, false).and_then(|(r, t)| {
                if r == *want {
                    Ok(t)
                } else {
                    Err("simulated stats differ from the warm-up pass".to_owned())
                }
            });
            let what = format!("{} pass {}", label(p), timed.len() + 1);
            pass.push(report.attempt(&what, outcome)?);
        }
        timed.push(pass);
    }
    Some(Passes { results, first, timed })
}

/// The end-to-end metrics of a simulation workload: `setup_s` is the
/// generation time, `insts` Σ committed instructions over the points,
/// `ipcs` one value per program (per core on chips).
pub fn end_to_end<R>(
    report: &mut Report,
    passes: &Passes<R>,
    setup_s: f64,
    insts: f64,
    ipcs: &[f64],
) {
    let n = passes.timed.len();
    let points = passes.results.len() as f64;
    let warm_s: f64 = passes.median_s(OpTimes::total_s).iter().sum();
    let pass_kips: Vec<f64> = passes.pass_s().iter().map(|s| insts / s / 1e3).collect();
    let pass_rate: Vec<f64> = passes.pass_s().iter().map(|s| points / s).collect();
    report.put("sim_kips", insts / warm_s / 1e3, n, iqr(&pass_kips));
    report.notes.push(format!("sim_kips of each timed pass: {pass_kips:.0?}"));
    report.put_sim("sim_ipc_hmean", harmonic_mean(ipcs));
    report.put("setup_s", setup_s, 1, None);
    // Cold: a single-shot figure, from nothing to the first result of
    // every point (generate, then simulate each once). Warm: every
    // later simulation of the same inputs.
    report.put("cold_points_per_s", points / (setup_s + passes.first_s()), 1, None);
    report.put("warm_points_per_s", points / warm_s, n, iqr(&pass_rate));
}

/// `trace_overhead_frac`: how much slower the traced passes ran than
/// the untraced ones of the same run.
pub fn trace_overhead<R>(report: &mut Report, passes: &Passes<R>) {
    let pass_s = passes.pass_s();
    let of = |parity: usize| -> Vec<f64> {
        pass_s.iter().enumerate().filter(|(i, _)| i % 2 == parity).map(|(_, &s)| s).collect()
    };
    let (traced, untraced) = (of(0), of(1));
    if !untraced.is_empty() {
        report.put(
            "trace_overhead_frac",
            median(&traced) / median(&untraced) - 1.0,
            pass_s.len(),
            None,
        );
    }
}
