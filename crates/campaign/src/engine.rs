//! The resumable sweep-campaign engine: the one thing in the workspace
//! that runs a list of simulation points.
//!
//! A *campaign* is a list of [`SweepPoint`]s (deduplicated by
//! fingerprint) driven to completion by [`run_points`], optionally
//! against a [`ResultStore`] ([`run_campaign`] is the store-required
//! form that drops the outputs):
//!
//! * points whose result is already stored are **cache hits** — no
//!   simulation runs, and the loaded value is the point's output. The
//!   store is probed for every point on the calling thread, in
//!   submission order, before anything is computed, so a round of hits
//!   starts no thread and reports its hits in order. A worker does not
//!   look at the store again before it computes, so a point another
//!   process stores or poisons meanwhile is computed here anyway: wasted
//!   work, never a wrong record, since publishes are atomic;
//! * missing points are computed through [`vr_pool::map`], the
//!   workspace's one fan-out: inline on the caller at one thread
//!   (fully deterministic ordering), otherwise on the caller plus
//!   scoped threads with one point claimed at a time, so load balances
//!   regardless of how wildly per-point runtimes differ;
//! * each point is executed **once** per run: the simulator is
//!   deterministic, so a second attempt would reproduce the first;
//! * each computed result is published atomically, so killing the
//!   process at any instant (SIGTERM, SIGKILL) leaves the store
//!   consistent and a re-run computes only what is missing
//!   (*resumability*);
//! * an in-process [`CancelToken`] provides the graceful counterpart:
//!   no new points are taken, the ones in hand finish, and the outcome
//!   reports `cancelled`;
//! * with [`EngineConfig::point_deadline`] set, each point gets a
//!   **deadline**, the instant its budget runs out, in
//!   [`ExecCtx::deadline`]; the simulator reads the clock itself and
//!   returns [`SimError::Deadline`] with the same diagnostic snapshot
//!   the deadlock watchdog takes — no thread watches it. A deadline
//!   trip judges the host's clock, not the code, so the point **fails
//!   this run** and nothing is stored: the next run computes it again;
//! * a point that returns any other error is **poisoned**: a structured
//!   failure record lands in the store (`poison/`), re-runs skip the
//!   point, and the campaign *continues* — one permanently sick point
//!   degrades its figure cells, never the whole campaign
//!   (`store gc` clears poison and makes the points runnable again).
//!   Without a store there is nowhere to record the verdict, so the
//!   point is reported as failed instead.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vr_core::{CoreConfig, RunaheadConfig, SimError, SimStats, Simulator};
use vr_mem::MemConfig;
use vr_obs::{Json, CAMPAIGN_SCHEMA};
use vr_workloads::Workload;

use crate::fingerprint::{point_key, PointKey};
use crate::store::{PoisonRecord, ResultStore};

/// One simulation point of a campaign: a workload plus the full
/// configuration and budget that determine its statistics.
///
/// The workload is held behind an [`Arc`] because many points of one
/// campaign typically share a workload (the same kernel swept across
/// configurations) and workload images can be large.
#[derive(Clone, Debug)]
pub struct CampaignPoint {
    /// Human-readable name for progress lines and failure reports
    /// (e.g. `"fig7/bfs/vr"`). Not part of the fingerprint.
    pub label: String,
    /// The workload (program text + memory image + entry registers).
    pub workload: Arc<Workload>,
    /// Core configuration.
    pub core: CoreConfig,
    /// Memory-system configuration.
    pub mem: MemConfig,
    /// Runahead configuration.
    pub ra: RunaheadConfig,
    /// Instruction budget.
    pub max_insts: u64,
}

impl CampaignPoint {
    /// The content address of this point in the result store.
    pub fn key(&self) -> PointKey {
        point_key(&self.workload, &self.core, &self.mem, &self.ra, self.max_insts)
    }
}

/// Anything the campaign engine can drive: a content-addressed unit
/// of work with a label and a way to load/save its result against the
/// [`ResultStore`]. The engine itself (dedup, deadlines, poison,
/// cancellation, resumability) is generic over this —
/// single-core [`CampaignPoint`]s and multi-core `ChipPoint`s flow
/// through the identical machinery.
pub trait SweepPoint: Sync {
    /// The computed result type (stored on success, returned on load).
    type Output: Send + Clone;

    /// The content address of this point in the result store. Poison
    /// records are keyed on this too.
    ///
    /// Deriving it reads the whole point (for simulation points, a
    /// digest of every memory image), so callers derive it **once**
    /// and hand it to [`SweepPoint::load`] and [`SweepPoint::save`],
    /// whose impls never call `key()`.
    fn key(&self) -> PointKey;

    /// Human-readable name for progress lines and failure reports.
    fn label(&self) -> &str;

    /// Loads this point's stored result, if complete and valid. `key`
    /// is this point's [`SweepPoint::key`].
    fn load(&self, store: &ResultStore, key: PointKey) -> Option<Self::Output>;

    /// Persists a computed result under `key`, this point's
    /// [`SweepPoint::key`].
    ///
    /// # Errors
    ///
    /// Propagates the store's I/O error; the engine degrades a failed
    /// save to "computed but not cached".
    fn save(&self, store: &ResultStore, key: PointKey, out: &Self::Output) -> std::io::Result<()>;
}

impl SweepPoint for CampaignPoint {
    type Output = SimStats;

    fn key(&self) -> PointKey {
        CampaignPoint::key(self)
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn load(&self, store: &ResultStore, key: PointKey) -> Option<SimStats> {
        store.load(key)
    }

    fn save(&self, store: &ResultStore, key: PointKey, out: &SimStats) -> std::io::Result<()> {
        store.save(key, &self.label, out)
    }
}

/// What an [`Executor`] is handed besides the point: when it must stop.
/// One field does not need a struct; this one stays only so the
/// repository benchmark's executor (`benchmark/`), which names it, keeps
/// compiling.
#[derive(Clone, Debug)]
pub struct ExecCtx {
    /// The instant the point's [`EngineConfig::point_deadline`] runs
    /// out, set when its execution starts (`None` without one). An
    /// executor stops promptly once it has passed and returns
    /// [`SimError::Deadline`].
    pub deadline: Option<Instant>,
}

/// How a campaign point is computed. The indirection exists so tests
/// can inject failing, slow or instant executors: the real simulator
/// is deterministic, so against [`SimExecutor`] a point either always
/// fails or never does, and only a deadline varies between runs.
///
/// Generic over the point type (defaulting to [`CampaignPoint`], so
/// plain `impl Executor for X` / `E: Executor` keep meaning the
/// single-core case); [`SimExecutor`] additionally implements
/// `Executor<ChipPoint>` so one executor value serves both scalar and
/// chip sweeps.
pub trait Executor<P: SweepPoint = CampaignPoint>: Sync {
    /// Computes the result for `p`.
    ///
    /// # Errors
    ///
    /// Returns the simulation error. The engine fails the point for this
    /// run on a [`SimError::Deadline`] and poisons it on any other.
    fn execute(&self, p: &P, ctx: &ExecCtx) -> Result<P::Output, SimError>;
}

/// The production executor: one fresh [`Simulator`] per call, with the
/// point's deadline armed so the simulator stops itself mid-run.
#[derive(Clone, Copy, Default, Debug)]
pub struct SimExecutor;

impl Executor for SimExecutor {
    fn execute(&self, p: &CampaignPoint, ctx: &ExecCtx) -> Result<SimStats, SimError> {
        let mut sim = Simulator::new(
            p.core.clone(),
            p.mem.clone(),
            p.ra.clone(),
            p.workload.program.clone(),
            p.workload.memory.clone(),
            &p.workload.init_regs,
        );
        if let Some(at) = ctx.deadline {
            sim.set_deadline(at);
        }
        sim.try_run(p.max_insts)
    }
}

/// Cooperative cancellation handle (the in-process analogue of
/// SIGTERM). Cloning shares the flag; any clone can cancel.
#[derive(Clone, Default, Debug)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation: workers finish their current point and
    /// stop. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Engine tuning knobs.
#[derive(Clone, Copy, Default, Debug)]
pub struct EngineConfig {
    /// Worker threads. `0` means one per available CPU; `1` runs
    /// inline on the calling thread (fully deterministic ordering).
    pub threads: usize,
    /// Wall-clock budget per point. When set, each execution is handed
    /// the instant it runs out ([`ExecCtx::deadline`]) and the
    /// simulator stops itself there, failing the point for this run;
    /// `None` lets points run unbounded.
    pub point_deadline: Option<Duration>,
}

impl EngineConfig {
    fn resolved_threads(&self, work: usize) -> usize {
        let t = if self.threads == 0 { vr_pool::cpus() } else { self.threads };
        t.clamp(1, work.max(1))
    }
}

/// What happened to one point, reported through the progress callback.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProgressKind {
    /// Result served from the store; no simulation ran.
    CacheHit,
    /// Simulated and stored.
    Computed,
    /// The point was declared unrunnable and a poison record was
    /// published; the campaign continues without it.
    Poisoned,
    /// The point already had a poison record from an earlier run and
    /// was skipped without executing.
    SkippedPoisoned,
    /// Given up on without a poison record (a deadline trip, no store,
    /// or the poison write failed); the point is recorded as failed.
    Failed,
}

/// One progress notification. `done` counts points that reached a
/// terminal state (hit, computed or failed) *including* this one.
#[derive(Clone, Copy, Debug)]
pub struct ProgressEvent<'a> {
    /// Terminal points so far.
    pub done: u64,
    /// Unique points in the campaign.
    pub total: u64,
    /// The point's label.
    pub label: &'a str,
    /// What just happened.
    pub kind: ProgressKind,
}

/// Progress callback type: called from worker threads, so it must be
/// `Sync` (the CLI wraps a locked `stderr` writer).
pub type ProgressSink<'a> = &'a (dyn Fn(&ProgressEvent<'_>) + Sync);

/// Aggregate result of [`run_campaign`].
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct CampaignOutcome {
    /// Points submitted (before dedup).
    pub submitted: u64,
    /// Points whose key duplicated an earlier point (skipped: same
    /// key, same result by construction).
    pub duplicates: u64,
    /// Unique points driven.
    pub total: u64,
    /// Points served from the store.
    pub cache_hits: u64,
    /// Points simulated this run.
    pub computed: u64,
    /// Always 0: the engine runs each point once, and
    /// [`CampaignOutcome::to_json`] leaves the field out. It stays only
    /// so the repository benchmark (`benchmark/`), which reads it, keeps
    /// compiling.
    pub retries: u64,
    /// `(label, error)` for points poisoned *this run* (a non-deadline
    /// error; a poison record was published for each).
    pub poisoned: Vec<(String, String)>,
    /// Points skipped because an earlier run already poisoned them.
    pub skipped_poisoned: u64,
    /// `(label, error)` for points that failed without a poison record
    /// (a deadline trip, no store, or the poison write itself failed).
    pub failed: Vec<(String, String)>,
    /// Whether the run stopped early on a [`CancelToken`].
    pub cancelled: bool,
}

impl CampaignOutcome {
    /// True when every unique point reached a stored result.
    pub fn complete(&self) -> bool {
        !self.cancelled
            && self.failed.is_empty()
            && self.poisoned.is_empty()
            && self.skipped_poisoned == 0
            && self.cache_hits + self.computed == self.total
    }

    /// True when the campaign finished *degraded*: every point reached
    /// a terminal state and the only shortfall is poisoned points
    /// (figures render HOLE cells for those). [`CampaignOutcome::complete`]
    /// implies this.
    pub fn degraded_complete(&self) -> bool {
        !self.cancelled
            && self.failed.is_empty()
            && self.cache_hits + self.computed + self.poisoned.len() as u64 + self.skipped_poisoned
                == self.total
    }

    /// Machine-readable rendering under [`CAMPAIGN_SCHEMA`].
    pub fn to_json(&self) -> Json {
        // Exhaustive destructuring: a new outcome field must decide
        // how it exports before this compiles.
        let CampaignOutcome {
            submitted,
            duplicates,
            total,
            cache_hits,
            computed,
            retries: _,
            poisoned,
            skipped_poisoned,
            failed,
            cancelled,
        } = self;
        let label_error_arr = |items: &[(String, String)]| {
            Json::Arr(
                items
                    .iter()
                    .map(|(label, error)| {
                        Json::Obj(vec![
                            ("label".into(), Json::from(label.as_str())),
                            ("error".into(), Json::from(error.as_str())),
                        ])
                    })
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("schema".into(), Json::from(CAMPAIGN_SCHEMA)),
            ("submitted".into(), Json::U64(*submitted)),
            ("duplicates".into(), Json::U64(*duplicates)),
            ("total".into(), Json::U64(*total)),
            ("cache_hits".into(), Json::U64(*cache_hits)),
            ("computed".into(), Json::U64(*computed)),
            ("poisoned".into(), label_error_arr(poisoned)),
            ("skipped_poisoned".into(), Json::U64(*skipped_poisoned)),
            ("failed".into(), label_error_arr(failed)),
            ("cancelled".into(), Json::Bool(*cancelled)),
        ])
    }
}

/// Cheap census for `campaign status`: which unique points already
/// have a record file (existence only — `verify` does validation).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct StatusReport {
    /// Points submitted (before dedup).
    pub submitted: u64,
    /// Unique points.
    pub total: u64,
    /// Unique points with a record present.
    pub present: u64,
    /// Unique points without a record that a run would compute
    /// (excludes poisoned points — those are skipped, so `missing`
    /// keeps meaning "what the next run will simulate").
    pub missing: u64,
    /// Unique points with a valid poison record (skipped by runs until
    /// `store gc` clears them).
    pub poisoned: u64,
}

impl StatusReport {
    /// Machine-readable rendering under [`CAMPAIGN_SCHEMA`].
    pub fn to_json(&self) -> Json {
        // Exhaustive destructuring: a new status field must decide how
        // it exports before this compiles.
        let StatusReport { submitted, total, present, missing, poisoned } = self;
        Json::Obj(vec![
            ("schema".into(), Json::from(CAMPAIGN_SCHEMA)),
            ("kind".into(), Json::from("status")),
            ("submitted".into(), Json::U64(*submitted)),
            ("total".into(), Json::U64(*total)),
            ("present".into(), Json::U64(*present)),
            ("missing".into(), Json::U64(*missing)),
            ("poisoned".into(), Json::U64(*poisoned)),
        ])
    }
}

/// Computes the [`StatusReport`] for `points` against `store`.
pub fn campaign_status<P: SweepPoint>(points: &[P], store: &ResultStore) -> StatusReport {
    let mut seen = HashSet::new();
    let mut rep = StatusReport { submitted: points.len() as u64, ..StatusReport::default() };
    for p in points {
        let key = p.key();
        if !seen.insert(key) {
            continue;
        }
        rep.total += 1;
        if store.contains(key) {
            rep.present += 1;
        } else if store.load_poison(key).is_some() {
            rep.poisoned += 1;
        } else {
            rep.missing += 1;
        }
    }
    rep
}

/// What one campaign run shares between the threads driving it.
struct Shared<'a> {
    store: Option<&'a ResultStore>,
    cancel: &'a CancelToken,
    progress: Option<ProgressSink<'a>>,
    total: u64,
    done: AtomicU64,
    /// [`EngineConfig::point_deadline`], turned into an instant when a
    /// point's execution starts.
    point_deadline: Option<Duration>,
}

impl Shared<'_> {
    /// Counts one more terminal point and reports it.
    fn finish(&self, label: &str, kind: ProgressKind) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(sink) = self.progress {
            sink(&ProgressEvent { done, total: self.total, label, kind });
        }
    }
}

/// How one unique point ended.
enum Fate<O> {
    /// The campaign was cancelled before the point was taken.
    Untaken,
    Hit(O),
    Computed(O),
    SkippedPoisoned,
    /// Given up on, with a poison record published.
    Poisoned(String),
    /// Given up on without one (a deadline trip, no store, or the
    /// poison write itself failed).
    Failed(String),
}

/// Drives `points` to completion against `store` (see the module docs
/// for the full contract) and returns the aggregate outcome. This is
/// [`run_points`] with a store and the outputs dropped.
pub fn run_campaign<P: SweepPoint, E: Executor<P>>(
    points: &[P],
    store: &ResultStore,
    exec: &E,
    cfg: &EngineConfig,
    cancel: &CancelToken,
    progress: Option<ProgressSink<'_>>,
) -> CampaignOutcome {
    run_points(points, Some(store), exec, cfg, cancel, progress).0
}

/// The one driver every point list goes through: returns the aggregate
/// outcome **and** one `Option<P::Output>` per submitted point, in
/// submission order — `Some` for a point served from the store or
/// computed this run (a duplicate receives its first occurrence's
/// output), `None` for one that was poisoned, skipped as poisoned,
/// failed or never taken.
///
/// With `store: None` nothing touches disk: every point is executed,
/// nothing is saved, and a point that is given up on lands in
/// [`CampaignOutcome::failed`] (there is nowhere to poison it).
///
/// Never panics on store or simulation trouble; a panic in `exec` (an
/// executor bug) does propagate to the caller.
///
/// Each submitted point's [`SweepPoint::key`] is derived exactly once,
/// serially on the calling thread before any point runs (a key digests
/// the point's memory images: one pass the first time a process sees
/// an image, a memo hit after); dedup, the hit and poison checks and
/// the save all reuse that value.
pub fn run_points<P: SweepPoint, E: Executor<P>>(
    points: &[P],
    store: Option<&ResultStore>,
    exec: &E,
    cfg: &EngineConfig,
    cancel: &CancelToken,
    progress: Option<ProgressSink<'_>>,
) -> (CampaignOutcome, Vec<Option<P::Output>>) {
    let keys: Vec<PointKey> = points.iter().map(SweepPoint::key).collect();
    // Dedup by key: the first occurrence names the point in progress
    // output; later duplicates would compute the identical record.
    let mut slot_of_key: HashMap<PointKey, usize> = HashMap::with_capacity(points.len());
    let mut unique: Vec<usize> = Vec::with_capacity(points.len());
    let slots: Vec<usize> = keys
        .iter()
        .enumerate()
        .map(|(i, &key)| {
            *slot_of_key.entry(key).or_insert_with(|| {
                unique.push(i);
                unique.len() - 1
            })
        })
        .collect();

    let shared = Shared {
        store,
        cancel,
        progress,
        total: unique.len() as u64,
        done: AtomicU64::new(0),
        point_deadline: cfg.point_deadline,
    };
    // The store is probed on the calling thread, in submission order;
    // only the points it cannot settle go to the pool, so a round of
    // hits starts no thread.
    let mut fates: Vec<Option<Fate<P::Output>>> =
        unique.iter().map(|&idx| probe(&points[idx], keys[idx], &shared)).collect();
    let misses: Vec<usize> = (0..unique.len()).filter(|&u| fates[u].is_none()).collect();
    let computed = vr_pool::map(cfg.resolved_threads(misses.len()), &misses, |&u| {
        let idx = unique[u];
        compute_point(&points[idx], keys[idx], &shared, exec)
    });
    for (&u, fate) in misses.iter().zip(computed) {
        fates[u] = Some(fate);
    }

    // `fates` is in submission order, so every list below is too,
    // regardless of how the threads interleaved.
    let mut outcome = CampaignOutcome {
        submitted: points.len() as u64,
        duplicates: (points.len() - unique.len()) as u64,
        total: shared.total,
        cancelled: cancel.is_cancelled(),
        ..CampaignOutcome::default()
    };
    let mut outputs: Vec<Option<P::Output>> = Vec::with_capacity(unique.len());
    for (&idx, fate) in unique.iter().zip(fates) {
        let label = || points[idx].label().to_string();
        outputs.push(match fate.expect("every point was probed or computed") {
            Fate::Untaken => None,
            Fate::Hit(out) => {
                outcome.cache_hits += 1;
                Some(out)
            }
            Fate::Computed(out) => {
                outcome.computed += 1;
                Some(out)
            }
            Fate::SkippedPoisoned => {
                outcome.skipped_poisoned += 1;
                None
            }
            Fate::Poisoned(error) => {
                outcome.poisoned.push((label(), error));
                None
            }
            Fate::Failed(error) => {
                outcome.failed.push((label(), error));
                None
            }
        });
    }
    (outcome, slots.into_iter().map(|s| outputs[s].clone()).collect())
}

/// Settles one unique point from the store, on the calling thread:
/// untaken once the campaign is cancelled, else a hit, else skipped if
/// poisoned. `None` means the point must be computed.
fn probe<P: SweepPoint>(p: &P, key: PointKey, shared: &Shared<'_>) -> Option<Fate<P::Output>> {
    if shared.cancel.is_cancelled() {
        return Some(Fate::Untaken);
    }
    let store = shared.store?;
    if let Some(out) = p.load(store, key) {
        shared.finish(p.label(), ProgressKind::CacheHit);
        return Some(Fate::Hit(out));
    }
    if store.load_poison(key).is_some() {
        // An earlier run already gave up on this point; skip it rather
        // than reproducing the same verdict (`store gc` un-poisons).
        shared.finish(p.label(), ProgressKind::SkippedPoisoned);
        return Some(Fate::SkippedPoisoned);
    }
    None
}

/// Takes one point the store could not settle to its [`Fate`], with
/// one execution: a result is saved, a deadline trip fails the point
/// for this run only, and any other error poisons it.
fn compute_point<P: SweepPoint, E: Executor<P>>(
    p: &P,
    key: PointKey,
    shared: &Shared<'_>,
    exec: &E,
) -> Fate<P::Output> {
    if shared.cancel.is_cancelled() {
        return Fate::Untaken;
    }
    let deadline = shared.point_deadline.map(|budget| Instant::now() + budget);
    let e = match exec.execute(p, &ExecCtx { deadline }) {
        Ok(out) => {
            // A failed save degrades to "computed but not cached" — the
            // result is still counted; a re-run will recompute the point.
            if let Some(store) = shared.store {
                let _ = p.save(store, key, &out);
            }
            shared.finish(p.label(), ProgressKind::Computed);
            return Fate::Computed(out);
        }
        Err(e) => e,
    };
    // A deadline trip depends on the host's clock, which the key does
    // not hash, so only another kind of error is a verdict worth storing.
    let error = e.to_string();
    let poisoned = !matches!(e, SimError::Deadline(_))
        && shared.store.is_some_and(|store| {
            let rec = PoisonRecord { key, label: p.label().to_string(), error: error.clone() };
            store.poison(&rec).is_ok()
        });
    if poisoned {
        shared.finish(p.label(), ProgressKind::Poisoned);
        Fate::Poisoned(error)
    } else {
        shared.finish(p.label(), ProgressKind::Failed);
        Fate::Failed(error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU32;
    use vr_workloads::{hpcdb, Scale};

    fn tiny_points(n: u64) -> Vec<CampaignPoint> {
        let w = Arc::new(hpcdb::kangaroo(Scale::Test));
        (0..n)
            .map(|i| CampaignPoint {
                label: format!("p{i}"),
                workload: Arc::clone(&w),
                core: CoreConfig::table1(),
                mem: MemConfig::tiny_for_tests(),
                ra: RunaheadConfig::none(),
                // Distinct budgets -> distinct keys.
                max_insts: 100 + i,
            })
            .collect()
    }

    /// Executor returning synthetic stats instantly (cycle count
    /// derived from the budget so records are distinguishable).
    struct FakeExec;
    impl Executor for FakeExec {
        fn execute(&self, p: &CampaignPoint, _ctx: &ExecCtx) -> Result<SimStats, SimError> {
            Ok(SimStats {
                cycles: p.max_insts * 3,
                instructions: p.max_insts,
                ..SimStats::default()
            })
        }
    }

    /// Fails every attempt of every point with a non-deadline error,
    /// counting the attempts.
    #[derive(Default)]
    struct FailingExec {
        calls: AtomicU32,
    }
    impl Executor for FailingExec {
        fn execute(&self, p: &CampaignPoint, _ctx: &ExecCtx) -> Result<SimStats, SimError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Err(SimError::Invariant { cycle: 1, what: format!("injected fault on {}", p.label) })
        }
    }

    /// Blocks points whose label contains `slow` until their deadline
    /// passes, then reports a deadline — the contract [`SimExecutor`]
    /// implements via the simulator — counting those executions.
    /// Without a deadline every point computes at once.
    #[derive(Default)]
    struct SlowExec {
        slow_calls: AtomicU32,
    }
    impl Executor for SlowExec {
        fn execute(&self, p: &CampaignPoint, ctx: &ExecCtx) -> Result<SimStats, SimError> {
            let Some(at) = ctx.deadline.filter(|_| p.label.contains("slow")) else {
                return FakeExec.execute(p, ctx);
            };
            self.slow_calls.fetch_add(1, Ordering::Relaxed);
            while Instant::now() < at {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(SimError::Deadline(Box::new(test_dump())))
        }
    }

    fn test_dump() -> vr_core::DeadlockDump {
        vr_core::DeadlockDump {
            cycle: 100,
            last_commit_cycle: 50,
            watchdog: 40,
            committed_insts: 10,
            pc: 0x4,
            rob_len: 1,
            rob_cap: 350,
            iq_used: 0,
            iq_cap: 128,
            lq_used: 0,
            lq_cap: 128,
            sq_used: 0,
            sq_cap: 72,
            fetch_q_len: 0,
            store_buffer_len: 0,
            free_int: 1,
            free_fp: 1,
            mshr_outstanding: 0,
            oldest: None,
            episode: None,
            halted: false,
            fetch_done: false,
        }
    }

    fn cfg_threads(threads: usize) -> EngineConfig {
        EngineConfig { threads, point_deadline: None }
    }

    fn tmp_store(tag: &str) -> (std::path::PathBuf, ResultStore) {
        let dir = std::env::temp_dir().join(format!(
            "vr-engine-test-{tag}-{}-{}",
            std::process::id(),
            crate::test_nonce()
        ));
        let store = ResultStore::open(&dir).expect("open store");
        (dir, store)
    }

    #[test]
    fn campaign_runs_then_resumes_with_zero_recomputation() {
        let (dir, store) = tmp_store("resume");
        let points = tiny_points(6);
        let first =
            run_campaign(&points, &store, &FakeExec, &cfg_threads(3), &CancelToken::new(), None);
        assert!(first.complete(), "{first:?}");
        assert_eq!((first.computed, first.cache_hits), (6, 0));

        // Resume with a fresh store handle: everything is a hit.
        let store2 = ResultStore::open(&dir).unwrap();
        let second =
            run_campaign(&points, &store2, &FakeExec, &cfg_threads(3), &CancelToken::new(), None);
        assert!(second.complete());
        assert_eq!((second.computed, second.cache_hits), (0, 6), "resume recomputed");

        // Partial resume: drop two records, only those recompute.
        for p in &points[..2] {
            std::fs::remove_file(store2.records_dir().join(format!("{}.json", p.key().hex())))
                .unwrap();
        }
        let third =
            run_campaign(&points, &store2, &FakeExec, &cfg_threads(1), &CancelToken::new(), None);
        assert_eq!((third.computed, third.cache_hits), (2, 4));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicates_are_skipped_not_recomputed() {
        let (dir, store) = tmp_store("dedup");
        let mut points = tiny_points(3);
        points.extend(tiny_points(3)); // same 3 keys again
        let out =
            run_campaign(&points, &store, &FakeExec, &cfg_threads(1), &CancelToken::new(), None);
        assert_eq!(out.submitted, 6);
        assert_eq!(out.duplicates, 3);
        assert_eq!(out.total, 3);
        assert_eq!(out.computed, 3);
        assert!(out.complete());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// p0..p4 healthy, p5 always fails, then p1 and p0 again.
    fn points_with_duplicates_and_a_sick_one() -> Vec<CampaignPoint> {
        let mut points = tiny_points(6);
        points[5].label = "p5-sick".into();
        let again = [points[1].clone(), points[0].clone()];
        points.extend(again);
        points
    }

    /// Fails `sick` points on every attempt, computes the rest.
    struct SickExec;
    impl Executor for SickExec {
        fn execute(&self, p: &CampaignPoint, ctx: &ExecCtx) -> Result<SimStats, SimError> {
            if p.label.contains("sick") {
                return Err(SimError::Invariant { cycle: 1, what: "injected fault".into() });
            }
            FakeExec.execute(p, ctx)
        }
    }

    #[test]
    fn outputs_follow_submission_order_at_any_thread_count_and_reload_identically() {
        let points = points_with_duplicates_and_a_sick_one();
        let expect: Vec<Option<SimStats>> =
            points.iter().map(|p| SickExec.execute(p, &ExecCtx { deadline: None }).ok()).collect();
        assert_eq!(expect.iter().filter(|o| o.is_none()).count(), 1);
        assert_eq!(expect[6], expect[1], "a duplicate receives its first occurrence's output");

        let mut runs = Vec::new();
        for threads in [1, 4] {
            let (dir, store) = tmp_store(&format!("outputs-{threads}"));
            let run = || {
                run_points(
                    &points,
                    Some(&store),
                    &SickExec,
                    &cfg_threads(threads),
                    &CancelToken::new(),
                    None,
                )
            };
            let (computed, outputs) = run();
            assert_eq!(outputs, expect, "threads={threads}");
            assert_eq!((computed.computed, computed.duplicates), (5, 2));
            assert_eq!(computed.poisoned.len(), 1);
            // What the store hands back next run is what was computed.
            let (loaded, reloaded) = run();
            assert_eq!((loaded.cache_hits, loaded.skipped_poisoned, loaded.computed), (5, 1, 0));
            assert_eq!(reloaded, outputs, "threads={threads}");
            runs.push((computed, outputs));
            std::fs::remove_dir_all(&dir).ok();
        }
        assert_eq!(runs[0], runs[1], "outcome and outputs do not depend on the thread count");
    }

    #[test]
    fn without_a_store_every_point_executes_and_a_sick_one_fails_unpoisoned() {
        // No store handle, so no disk: nothing to hit, save to or
        // poison in.
        let points = points_with_duplicates_and_a_sick_one();
        for threads in [1, 2] {
            let (out, outputs) = run_points(
                &points,
                None,
                &SickExec,
                &cfg_threads(threads),
                &CancelToken::new(),
                None,
            );
            assert_eq!((out.computed, out.cache_hits), (5, 0));
            assert!(out.poisoned.is_empty(), "nowhere to poison: {out:?}");
            assert_eq!(out.failed.len(), 1);
            assert_eq!(out.failed[0].0, "p5-sick");
            assert!(out.failed[0].1.contains("injected fault"), "{:?}", out.failed[0]);
            assert!(!out.complete() && !out.degraded_complete());
            assert_eq!(outputs.iter().filter(|o| o.is_none()).count(), 1);
            assert!(outputs[5].is_none());
        }
    }

    /// A point that counts how often it is asked for its key.
    struct Counted {
        inner: CampaignPoint,
        keyed: AtomicU32,
    }
    impl SweepPoint for Counted {
        type Output = SimStats;
        fn key(&self) -> PointKey {
            self.keyed.fetch_add(1, Ordering::Relaxed);
            self.inner.key()
        }
        fn label(&self) -> &str {
            &self.inner.label
        }
        fn load(&self, store: &ResultStore, key: PointKey) -> Option<SimStats> {
            self.inner.load(store, key)
        }
        fn save(&self, store: &ResultStore, key: PointKey, out: &SimStats) -> std::io::Result<()> {
            self.inner.save(store, key, out)
        }
    }
    /// Computes `sick` points never, every other point at once.
    struct CountedExec;
    impl Executor<Counted> for CountedExec {
        fn execute(&self, p: &Counted, ctx: &ExecCtx) -> Result<SimStats, SimError> {
            if p.inner.label.contains("sick") {
                return Err(SimError::Invariant { cycle: 1, what: "injected fault".into() });
            }
            FakeExec.execute(&p.inner, ctx)
        }
    }

    #[test]
    fn every_submitted_point_is_keyed_exactly_once_per_run() {
        for threads in [1, 2] {
            let (dir, store) = tmp_store(&format!("keyed-once-{threads}"));
            // p0..p3 healthy, p4/p5 always fail, then p0..p2 again.
            let mut inner = tiny_points(6);
            inner[4].label = "p4-sick".into();
            inner[5].label = "p5-sick".into();
            inner.extend(tiny_points(3));
            let points: Vec<Counted> = inner
                .into_iter()
                .map(|inner| Counted { inner, keyed: AtomicU32::new(0) })
                .collect();
            let run = || {
                let out = run_campaign(
                    &points,
                    &store,
                    &CountedExec,
                    &cfg_threads(threads),
                    &CancelToken::new(),
                    None,
                );
                let keyed: Vec<u32> =
                    points.iter().map(|p| p.keyed.swap(0, Ordering::Relaxed)).collect();
                assert_eq!(keyed, [1; 9], "threads={threads}: {out:?}");
                out
            };
            // Computed, poisoned and duplicate paths.
            let first = run();
            assert_eq!((first.computed, first.duplicates), (4, 3));
            assert_eq!(first.poisoned.len(), 2);
            // Hit, skipped-poisoned and duplicate paths.
            let second = run();
            assert_eq!((second.cache_hits, second.skipped_poisoned, second.computed), (4, 2, 0));
            // The census keys each point once as well.
            let status = campaign_status(&points, &store);
            assert_eq!((status.present, status.poisoned, status.missing), (4, 2, 0));
            assert!(points.iter().all(|p| p.keyed.load(Ordering::Relaxed) == 1));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_non_deadline_error_is_executed_once_and_poisoned() {
        for threads in [1, 2] {
            let (dir, store) = tmp_store(&format!("once-{threads}"));
            let points = tiny_points(1);
            let exec = FailingExec::default();
            let out = run_campaign(
                &points,
                &store,
                &exec,
                &cfg_threads(threads),
                &CancelToken::new(),
                None,
            );
            assert_eq!(exec.calls.load(Ordering::Relaxed), 1, "a deterministic error is final");
            assert_eq!(out.poisoned.len(), 1, "{out:?}");
            let rec = store.load_poison(points[0].key()).expect("poison record");
            assert!(rec.error.contains("injected fault"), "{rec:?}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn persistent_faults_poison_in_order_and_reruns_skip_them() {
        let (dir, store) = tmp_store("fail");
        let points = tiny_points(3);
        let exec = FailingExec::default();
        let out = run_campaign(&points, &store, &exec, &cfg_threads(2), &CancelToken::new(), None);
        assert!(!out.complete());
        assert!(out.degraded_complete(), "poison degrades, it does not wedge: {out:?}");
        assert_eq!(out.computed, 0);
        assert!(out.failed.is_empty(), "a sick point poisons, it does not fail: {out:?}");
        assert_eq!(out.poisoned.len(), 3);
        let labels: Vec<&str> = out.poisoned.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["p0", "p1", "p2"], "poisonings sorted by submission order");
        assert!(out.poisoned[0].1.contains("injected fault"), "{:?}", out.poisoned[0]);
        let calls_first = exec.calls.load(Ordering::Relaxed);
        assert_eq!(calls_first, 3, "one attempt per point");

        // Each point now carries a structured poison record...
        for p in &points {
            let rec = store.load_poison(p.key()).expect("poison record");
            assert!(rec.error.contains("injected fault"));
        }
        let status = campaign_status(&points, &store);
        assert_eq!((status.present, status.missing, status.poisoned), (0, 0, 3));

        // ...so a re-run skips them without executing anything.
        let out2 = run_campaign(&points, &store, &exec, &cfg_threads(2), &CancelToken::new(), None);
        assert_eq!(out2.skipped_poisoned, 3);
        assert!(out2.degraded_complete());
        assert_eq!(exec.calls.load(Ordering::Relaxed), calls_first, "no attempts burned");

        // gc clears the poison; the points execute again.
        assert_eq!(store.gc().unwrap().poison_removed, 3);
        let out3 = run_campaign(&points, &store, &exec, &cfg_threads(2), &CancelToken::new(), None);
        assert_eq!(out3.poisoned.len(), 3, "still failing, poisoned afresh");
        assert!(exec.calls.load(Ordering::Relaxed) > calls_first);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_deadline_trip_executes_once_and_fails_without_poison() {
        // One thread runs the points inline on the caller, two on the
        // caller and a scoped thread; each point's deadline is set the
        // same way for both.
        for threads in [1, 2] {
            let (dir, store) = tmp_store(&format!("deadline-{threads}"));
            let mut points = tiny_points(4);
            points[2].label = "p2-slow".into();
            let cfg = EngineConfig {
                point_deadline: Some(Duration::from_millis(25)),
                ..cfg_threads(threads)
            };
            let exec = SlowExec::default();
            let t0 = Instant::now();
            let out = run_campaign(&points, &store, &exec, &cfg, &CancelToken::new(), None);
            // One execution of ~25 ms, not an unbounded hang.
            assert!(t0.elapsed() < Duration::from_secs(5), "took {:?}", t0.elapsed());
            assert_eq!(exec.slow_calls.load(Ordering::Relaxed), 1, "executed exactly once");
            assert_eq!(out.computed, 3, "healthy points unaffected");
            assert!(out.poisoned.is_empty(), "{out:?}");
            assert_eq!(out.failed.len(), 1);
            assert_eq!(out.failed[0].0, "p2-slow");
            assert!(out.failed[0].1.contains("deadline"), "{:?}", out.failed[0]);
            assert!(!out.degraded_complete(), "a failure, not a degradation");
            let poison = std::fs::read_dir(dir.join("poison")).unwrap().count();
            assert_eq!(poison, 0, "a deadline trip is not a stored verdict");

            // The next run, without a deadline, computes the point; no
            // `gc` in between.
            let again = run_campaign(
                &points,
                &store,
                &exec,
                &cfg_threads(threads),
                &CancelToken::new(),
                None,
            );
            assert!(again.complete(), "{again:?}");
            assert_eq!((again.cache_hits, again.computed), (3, 1));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn cancellation_stops_taking_work_and_flags_the_outcome() {
        let (dir, store) = tmp_store("cancel");
        let points = tiny_points(8);
        let token = CancelToken::new();
        token.cancel();
        let out = run_campaign(&points, &store, &FakeExec, &cfg_threads(2), &token, None);
        assert!(out.cancelled);
        assert!(!out.complete());
        assert_eq!(out.computed + out.cache_hits, 0, "pre-cancelled run took work");

        // Cancel from the progress callback after 3 completions: the
        // run stops early but everything stored so far is durable.
        let token = CancelToken::new();
        let sink = |ev: &ProgressEvent<'_>| {
            if ev.done >= 3 {
                token.cancel();
            }
        };
        let out = run_campaign(&points, &store, &FakeExec, &cfg_threads(1), &token, Some(&sink));
        assert!(out.cancelled);
        assert!(out.computed >= 3 && out.computed < 8, "computed={}", out.computed);
        let status = campaign_status(&points, &store);
        assert_eq!(status.present, out.computed);
        assert_eq!(status.missing, 8 - out.computed);

        // A resumed run finishes the remainder only.
        let out2 =
            run_campaign(&points, &store, &FakeExec, &cfg_threads(2), &CancelToken::new(), None);
        assert!(out2.complete());
        assert_eq!(out2.computed, 8 - out.computed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sim_executor_matches_direct_simulation_and_status_tracks_store() {
        let (dir, store) = tmp_store("simexec");
        let w = Arc::new(hpcdb::kangaroo(Scale::Test));
        let p = CampaignPoint {
            label: "kangaroo/base".into(),
            workload: Arc::clone(&w),
            core: CoreConfig::table1(),
            mem: MemConfig::tiny_for_tests(),
            ra: RunaheadConfig::none(),
            max_insts: 2_000,
        };
        let before = campaign_status(std::slice::from_ref(&p), &store);
        assert_eq!((before.present, before.missing), (0, 1));

        let out = run_campaign(
            std::slice::from_ref(&p),
            &store,
            &SimExecutor,
            &cfg_threads(1),
            &CancelToken::new(),
            None,
        );
        assert!(out.complete(), "{out:?}");

        // The stored record equals a direct simulation bit-for-bit.
        let ctx = ExecCtx { deadline: None };
        let direct = SimExecutor.execute(&p, &ctx).expect("sim runs");
        assert_eq!(store.load(p.key()), Some(direct));

        let after = campaign_status(std::slice::from_ref(&p), &store);
        assert_eq!((after.present, after.missing), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn outcome_json_is_schema_tagged_and_exhaustive() {
        let out = CampaignOutcome {
            submitted: 10,
            duplicates: 2,
            total: 8,
            cache_hits: 5,
            computed: 1,
            retries: 4,
            poisoned: vec![("p3".into(), "deadline".into())],
            skipped_poisoned: 0,
            failed: vec![("p7".into(), "deadlock".into())],
            cancelled: false,
        };
        let j = out.to_json();
        assert_eq!(j.get("schema").and_then(Json::as_str), Some(CAMPAIGN_SCHEMA));
        assert_eq!(j.get("retries"), None, "a count that is always 0 is not exported");
        assert_eq!(j.get("cache_hits").and_then(Json::as_u64), Some(5));
        assert_eq!(j.get("cancelled"), Some(&Json::Bool(false)));
        let failed = j.get("failed").and_then(Json::as_arr).unwrap();
        assert_eq!(failed[0].get("label").and_then(Json::as_str), Some("p7"));
        let poisoned = j.get("poisoned").and_then(Json::as_arr).unwrap();
        assert_eq!(poisoned[0].get("label").and_then(Json::as_str), Some("p3"));
        // Round-trips through text.
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);

        // Status JSON mirrors the same schema and every field.
        let st = StatusReport { submitted: 10, total: 8, present: 5, missing: 2, poisoned: 1 };
        let js = st.to_json();
        assert_eq!(js.get("schema").and_then(Json::as_str), Some(CAMPAIGN_SCHEMA));
        assert_eq!(js.get("kind").and_then(Json::as_str), Some("status"));
        assert_eq!(js.get("missing").and_then(Json::as_u64), Some(2));
        assert_eq!(js.get("poisoned").and_then(Json::as_u64), Some(1));
    }

    /// Computes like [`FakeExec`], recording which points it ran.
    #[derive(Default)]
    struct RecordingExec {
        ran: std::sync::Mutex<Vec<String>>,
    }
    impl Executor for RecordingExec {
        fn execute(&self, p: &CampaignPoint, ctx: &ExecCtx) -> Result<SimStats, SimError> {
            self.ran.lock().unwrap().push(p.label.clone());
            FakeExec.execute(p, ctx)
        }
    }

    /// Every progress event of a run: the thread it came from, the
    /// point and what happened.
    type Events = std::sync::Mutex<Vec<(std::thread::ThreadId, u64, String, ProgressKind)>>;

    fn record(events: &Events) -> impl Fn(&ProgressEvent<'_>) + Sync + '_ {
        |ev| {
            let who = std::thread::current().id();
            events.lock().unwrap().push((who, ev.done, ev.label.to_string(), ev.kind));
        }
    }

    /// Fills a fresh store with `points`, then removes the records of
    /// the points at `cold`.
    fn warm_store(tag: &str, points: &[CampaignPoint], cold: &[usize]) -> (PathBuf, ResultStore) {
        let (dir, store) = tmp_store(tag);
        let fill =
            run_campaign(points, &store, &FakeExec, &cfg_threads(1), &CancelToken::new(), None);
        assert!(fill.complete(), "{fill:?}");
        for &i in cold {
            std::fs::remove_file(
                store.records_dir().join(format!("{}.json", points[i].key().hex())),
            )
            .unwrap();
        }
        (dir, store)
    }

    #[test]
    fn an_all_hit_campaign_executes_nothing_and_reports_its_hits_in_order_on_the_caller() {
        let points = tiny_points(6);
        let (dir, store) = warm_store("all-hit", &points, &[]);
        let (exec, events) = (RecordingExec::default(), Events::default());
        let sink = record(&events);
        let (out, outputs) = run_points(
            &points,
            Some(&store),
            &exec,
            &cfg_threads(4),
            &CancelToken::new(),
            Some(&sink),
        );
        assert!(out.complete() && out.cache_hits == 6, "{out:?}");
        assert!(exec.ran.lock().unwrap().is_empty(), "a hit executes nothing");
        assert!(outputs.iter().all(Option::is_some));
        let caller = std::thread::current().id();
        let events = std::mem::take(&mut *events.lock().unwrap());
        let want: Vec<_> =
            (0..6).map(|i| (caller, i + 1, format!("p{i}"), ProgressKind::CacheHit)).collect();
        assert_eq!(events, want, "every hit, on the calling thread, in submission order");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_half_warm_campaign_computes_exactly_the_misses() {
        let points = tiny_points(6);
        for threads in [1, 2] {
            let (dir, store) = warm_store(&format!("half-warm-{threads}"), &points, &[1, 3, 4]);
            let (exec, events) = (RecordingExec::default(), Events::default());
            let sink = record(&events);
            let out = run_campaign(
                &points,
                &store,
                &exec,
                &cfg_threads(threads),
                &CancelToken::new(),
                Some(&sink),
            );
            assert!(out.complete(), "{out:?}");
            assert_eq!((out.cache_hits, out.computed), (3, 3));
            let mut ran = exec.ran.into_inner().unwrap();
            ran.sort();
            assert_eq!(ran, ["p1", "p3", "p4"], "threads={threads}");
            // The hits are settled first, in submission order.
            let events = std::mem::take(&mut *events.lock().unwrap());
            let first: Vec<_> = events[..3].iter().map(|(_, _, l, k)| (l.as_str(), *k)).collect();
            let hit = ProgressKind::CacheHit;
            assert_eq!(first, [("p0", hit), ("p2", hit), ("p5", hit)], "threads={threads}");
            assert!(events[3..].iter().all(|e| e.3 == ProgressKind::Computed));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_campaign_cancelled_before_the_run_leaves_every_point_untaken() {
        let points = tiny_points(6);
        let (dir, store) = warm_store("cancelled", &points, &[0, 2, 4]);
        let (exec, events) = (RecordingExec::default(), Events::default());
        let sink = record(&events);
        let token = CancelToken::new();
        token.cancel();
        let read_before = store.counters();
        let (out, outputs) =
            run_points(&points, Some(&store), &exec, &cfg_threads(2), &token, Some(&sink));
        assert!(out.cancelled, "{out:?}");
        assert_eq!((out.cache_hits, out.computed, out.skipped_poisoned), (0, 0, 0));
        assert!(out.failed.is_empty() && out.poisoned.is_empty(), "{out:?}");
        assert!(outputs.iter().all(Option::is_none), "not even a stored point is taken");
        assert!(exec.ran.lock().unwrap().is_empty());
        assert!(events.lock().unwrap().is_empty(), "an untaken point reports nothing");
        assert_eq!(store.counters(), read_before, "the store is not read");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resolved_threads_is_clamped_to_the_work() {
        assert_eq!(cfg_threads(1).resolved_threads(100), 1);
        assert_eq!(cfg_threads(8).resolved_threads(3), 3);
        assert_eq!(EngineConfig::default().resolved_threads(0), 1, "empty campaign still valid");
    }
}
