//! `campaign_coldwarm`: the 13 programs × {OoO, VR} as campaign points
//! on two engine threads, against an empty store and then a full one.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vr_campaign::{
    point_key, run_campaign, CampaignOutcome, CampaignPoint, CancelToken, EngineConfig, ExecCtx,
    Executor, PointKey, ResultStore, SimExecutor, WorkerPool,
};
use vr_core::{harmonic_mean, CoreConfig, RunaheadConfig, SimError, SimStats};
use vr_mem::MemConfig;

use crate::inputs::{generate, image_mb, Programs};
use crate::layers;
use crate::metrics::Report;
use crate::stats::{iqr, median};
use crate::trace::Tracer;
use crate::{another_fits, Run};

/// Engine threads of the measured runs.
const THREADS: usize = 2;

/// The benchmark's own executor around [`SimExecutor`]: keeps what each
/// point computed (to compare with what the store hands back) and, in
/// a traced run, one `campaign.execute` span per call.
struct Recording<'a> {
    labels: &'a [String],
    computed: Mutex<Vec<Option<SimStats>>>,
    execute_s: Mutex<Vec<f64>>,
    /// Seconds spent inside the tracer, summed over the workers.
    tracing_s: Mutex<f64>,
    tracer: &'a Tracer,
    /// The `campaign.run` span these executions belong to.
    parent: u32,
    op: u32,
}

impl Executor for Recording<'_> {
    fn execute(&self, p: &CampaignPoint, ctx: &ExecCtx) -> Result<SimStats, SimError> {
        let t0 = Instant::now();
        let result = SimExecutor.execute(p, ctx);
        let t1 = Instant::now();
        self.tracer.record("campaign.execute", self.op, Some(self.parent), t0, t1);
        let lock = "the recording executor never panics while holding its locks";
        *self.tracing_s.lock().expect(lock) += t1.elapsed().as_secs_f64();
        self.execute_s.lock().expect(lock).push(t1.duration_since(t0).as_secs_f64());
        if let (Ok(stats), Some(i)) = (&result, self.labels.iter().position(|l| *l == p.label)) {
            self.computed.lock().expect(lock)[i] = Some(*stats);
        }
        result
    }
}

/// A campaign against an empty store.
struct Cold {
    store: ResultStore,
    wall_s: f64,
    outcome: CampaignOutcome,
    computed: Vec<Option<SimStats>>,
    execute_s: Vec<f64>,
    tracing_s: f64,
    /// The trace's identifier of this run.
    op: u32,
}

fn engine(threads: usize) -> EngineConfig {
    EngineConfig { threads, ..EngineConfig::default() }
}

/// Opens a fresh store under `dir` and runs every point into it.
fn cold_run(
    points: &[CampaignPoint],
    labels: &[String],
    dir: &Path,
    threads: usize,
    tracer: &Tracer,
) -> io::Result<Cold> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let store = ResultStore::open(dir)?;
    let (op, parent) = (tracer.new_op(), tracer.reserve());
    let exec = Recording {
        labels,
        computed: Mutex::new(vec![None; points.len()]),
        execute_s: Mutex::new(Vec::with_capacity(points.len())),
        tracing_s: Mutex::new(0.0),
        tracer,
        parent,
        op,
    };
    let t0 = Instant::now();
    let outcome = run_campaign(points, &store, &exec, &engine(threads), &CancelToken::new(), None);
    let t1 = Instant::now();
    tracer.push(parent, "campaign.run", op, None, t0, t1);
    let lock = "the campaign has returned: no worker holds the lock";
    Ok(Cold {
        store,
        wall_s: t1.duration_since(t0).as_secs_f64(),
        outcome,
        computed: exec.computed.into_inner().expect(lock),
        execute_s: exec.execute_s.into_inner().expect(lock),
        tracing_s: exec.tracing_s.into_inner().expect(lock),
        op,
    })
}

/// Counts the cold run's points as ops: each must have been computed
/// once, none retried into failure.
fn check_cold(cold: &Cold, labels: &[String], report: &mut Report) {
    for (label, got) in labels.iter().zip(&cold.computed) {
        let ok = got.map(|_| ()).ok_or_else(|| "not computed".to_owned());
        report.attempt(&format!("{label} cold"), ok);
    }
    let o = &cold.outcome;
    report.require(
        o.computed as usize == labels.len() && o.cache_hits == 0 && o.complete(),
        "cold campaign computes every point",
    );
}

/// `verify()` must find exactly `records` good records and nothing
/// else; also returns the host seconds it took.
fn verify_clean(store: &ResultStore, records: usize, tracer: &Tracer) -> (Result<(), String>, f64) {
    let (verified, secs) = tracer.time("campaign.store.verify", || store.verify());
    let clean = match verified {
        Ok(v) if v.clean() && v.ok as usize == records => Ok(()),
        Ok(v) => Err(format!("{v:?}")),
        Err(e) => Err(e.to_string()),
    };
    (clean, secs)
}

/// One full round's timings.
struct Round {
    cold_s: f64,
    warm_s: f64,
    warm_hits: u64,
}

/// Cold run, warm run, verify; every point of the warm run is an op
/// that must hand back exactly what the cold run computed.
fn round(
    points: &[CampaignPoint],
    labels: &[String],
    keys: &[PointKey],
    dir: &Path,
    tracer: &Tracer,
    report: &mut Report,
) -> io::Result<(Round, Cold)> {
    let cold = cold_run(points, labels, dir, THREADS, tracer)?;
    check_cold(&cold, labels, report);
    report.concurrent_ops.push(cold.op);

    let op = tracer.new_op();
    let t0 = Instant::now();
    let warm = run_campaign(
        points,
        &cold.store,
        &SimExecutor,
        &engine(THREADS),
        &CancelToken::new(),
        None,
    );
    let t1 = Instant::now();
    tracer.record("campaign.run", op, None, t0, t1);
    for ((label, key), want) in labels.iter().zip(keys).zip(&cold.computed) {
        let same = match cold.store.load(*key) {
            Some(got) if Some(got) == *want => Ok(()),
            Some(_) => Err("loaded stats differ from the computed ones".to_owned()),
            None => Err("no record in the store".to_owned()),
        };
        report.attempt(&format!("{label} warm"), same);
    }
    report.require(
        warm.computed == 0 && warm.cache_hits as usize == labels.len() && warm.complete(),
        "warm campaign is all hits",
    );

    let (clean, _) = verify_clean(&cold.store, labels.len(), tracer);
    report.attempt("verify", clean);
    let warm_s = t1.duration_since(t0).as_secs_f64();
    Ok((Round { cold_s: cold.wall_s, warm_s, warm_hits: warm.cache_hits }, cold))
}

/// Runs `campaign_coldwarm`.
pub fn run(run: &Run) -> Report {
    let mut report = Report::new();
    let t = Instant::now();
    let programs = generate(run.sizing, run.seed, Programs::All);
    let gen_s = t.elapsed().as_secs_f64();
    let points: Vec<CampaignPoint> = programs
        .iter()
        .flat_map(|w| {
            [("ooo", RunaheadConfig::none()), ("vr", RunaheadConfig::vector())].map(|(tag, ra)| {
                CampaignPoint {
                    label: format!("{}/{tag}", w.name),
                    workload: Arc::clone(w),
                    core: CoreConfig::table1(),
                    mem: MemConfig::table1(),
                    ra,
                    max_insts: run.sizing.campaign_insts,
                }
            })
        })
        .collect();
    let labels: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
    // Each point's store key, once: the checks load by it, and timing
    // it here is the `campaign.key_ms_*` probe.
    let mut key_ms = Vec::new();
    let keys: Vec<PointKey> = points
        .iter()
        .map(|p| {
            let (key, secs) = run.tracer.time("campaign.key", || {
                point_key(&p.workload, &p.core, &p.mem, &p.ra, p.max_insts)
            });
            key_ms.push(secs * 1e3);
            key
        })
        .collect();
    report.put("setup_s", t.elapsed().as_secs_f64(), 1, None);

    let dir = run.scratch.join("store");
    let mut rounds: Vec<Round> = Vec::new();
    let mut last: Option<Cold> = None;
    let started = Instant::now();
    while rounds.is_empty() || another_fits(started, run.seconds, rounds.len()) {
        match round(&points, &labels, &keys, &dir, run.tracer, &mut report) {
            Ok((r, cold)) => {
                let repeats = last.as_ref().is_none_or(|l| l.computed == cold.computed);
                report.require(repeats, "every round computes the same stats");
                rounds.push(r);
                last = Some(cold);
            }
            Err(e) => {
                report.fail("store I/O", e);
                return report;
            }
        }
    }
    let Some(cold) = last else { return report };
    let stats: Vec<SimStats> = cold.computed.iter().flatten().copied().collect();
    if stats.len() != points.len() {
        return report;
    }
    for s in &stats {
        report.fold_stats(s);
    }
    let n = rounds.len();
    let npoints = points.len() as f64;
    let col = |f: fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let (cold_s, warm_s) = (col(|r| r.cold_s), col(|r| r.warm_s));
    let insts: f64 = stats.iter().map(|s| s.instructions as f64).sum();
    let rate = |secs: &[f64], work: f64| -> Vec<f64> { secs.iter().map(|s| work / s).collect() };
    report.put("sim_kips", insts / median(&cold_s) / 1e3, n, iqr(&rate(&cold_s, insts / 1e3)));
    let ipcs: Vec<f64> = stats.iter().map(SimStats::ipc).collect();
    report.put_sim("sim_ipc_hmean", harmonic_mean(&ipcs));
    report.put("cold_points_per_s", npoints / median(&cold_s), n, iqr(&rate(&cold_s, npoints)));
    report.put("warm_points_per_s", npoints / median(&warm_s), n, iqr(&rate(&warm_s, npoints)));

    if run.tracer.enabled() {
        layers::workloads(&mut report, gen_s, image_mb(&programs));
        layers::replays(&mut report, run.sizing, &programs);
        report.put_median("campaign.key_ms_p50", &key_ms);
        report.put_tail("campaign.key_ms_ptail", &key_ms);
        let execute_ms: Vec<f64> = cold.execute_s.iter().map(|s| s * 1e3).collect();
        report.put_median("campaign.execute_ms_p50", &execute_ms);
        report.put_sim("campaign.hits", rounds.last().map_or(0.0, |r| r.warm_hits as f64));
        report.put_sim("campaign.computed", cold.outcome.computed as f64);
        report.put_sim("campaign.retries", cold.outcome.retries as f64);
        let failed = cold.outcome.failed.len() + cold.outcome.poisoned.len();
        report.put_sim("campaign.failed", failed as f64);
        layers::simulated(&mut report, &stats);
        // A campaign run is one call, so traced and untraced runs cannot
        // alternate inside it: the overhead is the time the workers
        // spent inside the tracer, as a share of the run.
        report.put("trace_overhead_frac", cold.tracing_s / cold.wall_s, 1, None);
        let two_thread_s = cold.wall_s;
        drop(cold);
        if let Err(e) = engine_layers(run, &points, &labels, &dir, two_thread_s, &mut report) {
            report.fail("store I/O", e);
        }
        store_probe(run, &stats[0], &mut report);
        pool_probe(&mut report);
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// The engine around the simulator, from a one-thread cold run: its
/// wall time minus the time inside the executor is the engine's own
/// (keys, store, queue); its wall time over the two-thread run's is
/// `pool.speedup_t2`.
fn engine_layers(
    run: &Run,
    points: &[CampaignPoint],
    labels: &[String],
    dir: &Path,
    two_thread_s: f64,
    report: &mut Report,
) -> io::Result<()> {
    let single = cold_run(points, labels, dir, 1, run.tracer)?;
    check_cold(&single, labels, report);
    let self_s = single.wall_s - single.execute_s.iter().sum::<f64>();
    report.put("campaign.engine_self_ms_per_point", self_s * 1e3 / points.len() as f64, 1, None);
    report.put("pool.speedup_t2", single.wall_s / two_thread_s, 1, None);
    Ok(())
}

/// `campaign.{open,save,load,verify}_*`: direct store calls over
/// `store_records` synthetic keys, writes beside reads.
fn store_probe(run: &Run, stats: &SimStats, report: &mut Report) {
    let dir: PathBuf = run.scratch.join("probe-store");
    let _ = std::fs::remove_dir_all(&dir);
    let t = Instant::now();
    let Some(store) =
        report.attempt("probe store", ResultStore::open(&dir).map_err(|e| e.to_string()))
    else {
        return;
    };
    report.put("campaign.open_ms", t.elapsed().as_secs_f64() * 1e3, 1, None);
    let keys: Vec<PointKey> = (0..run.sizing.store_records as u64)
        .map(|i| PointKey(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    let mut save_us = Vec::with_capacity(keys.len());
    let mut load_us = Vec::with_capacity(keys.len());
    for &key in &keys {
        let (saved, secs) =
            run.tracer.time("campaign.store.save", || store.save(key, "probe", stats));
        save_us.push(secs * 1e6);
        report.attempt("probe save", saved.map_err(|e| e.to_string()));
    }
    for &key in &keys {
        let (loaded, secs) = run.tracer.time("campaign.store.load", || store.load(key));
        load_us.push(secs * 1e6);
        let same =
            if loaded == Some(*stats) { Ok(()) } else { Err("round trip differs".to_owned()) };
        report.attempt("probe load", same);
    }
    report.put_median("campaign.save_us_p50", &save_us);
    report.put_tail("campaign.save_us_p99", &save_us);
    report.put_median("campaign.load_us_p50", &load_us);
    report.put_tail("campaign.load_us_p99", &load_us);
    let (clean, secs) = verify_clean(&store, keys.len(), run.tracer);
    report.put("campaign.verify_ms", secs * 1e3, 1, None);
    report.attempt("probe verify", clean);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `pool.dispatch_us_p50`: a no-op job on two workers.
fn pool_probe(report: &mut Report) {
    let pool = WorkerPool::new(THREADS);
    let noop = |_: usize| {};
    let dispatch_us: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            pool.run(THREADS, &noop);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report.put_median("pool.dispatch_us_p50", &dispatch_us);
}
