//! The resumable sweep-campaign engine: the one thing in the workspace
//! that runs a list of simulation points.
//!
//! A *campaign* is a list of [`SweepPoint`]s (deduplicated by
//! fingerprint) driven to completion by [`run_points`], optionally
//! against a [`ResultStore`] ([`run_campaign`] is the store-required
//! form that drops the outputs):
//!
//! * points whose result is already stored are **cache hits** — no
//!   simulation runs, and the loaded value is the point's output;
//! * missing points are computed through [`vr_pool::map`], the
//!   workspace's one scheduler: inline on the caller at one thread
//!   (fully deterministic ordering), otherwise on the process-wide
//!   pool with one point claimed at a time, so load balances
//!   regardless of how wildly per-point runtimes differ;
//! * an attempt that returns a [`SimError`] is retried in place with
//!   bounded exponential backoff before the point is given up on — the
//!   retry never goes back to the scheduler, so "every point claimed"
//!   always means "no work left", with no completion race;
//! * each computed result is published atomically, so killing the
//!   process at any instant (SIGTERM, SIGKILL) leaves the store
//!   consistent and a re-run computes only what is missing
//!   (*resumability*);
//! * an in-process [`CancelToken`] provides the graceful counterpart:
//!   no new points are taken, the ones in hand finish, and the outcome
//!   reports `cancelled`;
//! * with [`EngineConfig::point_deadline`] set, a **supervisor** thread
//!   watches every in-flight attempt and trips its [`StopFlag`] when
//!   the wall clock runs out — the simulator stops cooperatively and
//!   returns [`SimError::Deadline`] with the same diagnostic snapshot
//!   the deadlock watchdog takes;
//! * a point that exhausts its retries, or trips the deadline
//!   [`POISON_DEADLINE_TRIPS`] times, is **poisoned**: a structured
//!   failure record lands in the store (`poison/`), re-runs skip the
//!   point, and the campaign *continues* — one permanently sick point
//!   degrades its figure cells, never the whole campaign
//!   (`store gc` clears poison and makes the points runnable again).
//!   Without a store there is nowhere to record the verdict, so the
//!   point is reported as failed instead;
//! * retry backoff is jittered ±25% by a [`SplitMix64`] stream seeded
//!   purely from `(jitter_seed, point key, attempt)`, so sleeps are
//!   decorrelated across points yet bit-reproducible run to run.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vr_core::{CoreConfig, RunaheadConfig, SimError, SimStats, Simulator, StopFlag};
use vr_isa::SplitMix64;
use vr_mem::MemConfig;
use vr_obs::{Json, CAMPAIGN_SCHEMA};
use vr_workloads::Workload;

use crate::fingerprint::{point_key, PointKey};
use crate::store::{PoisonRecord, ResultStore};

/// Deadline expiries a point is allowed before it is poisoned. Two,
/// not one: a single trip can be an unlucky machine stall (CI noise,
/// page cache cold); the second on the very same point is a verdict.
pub const POISON_DEADLINE_TRIPS: u32 = 2;

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
/// [`ResultStore`]. The engine itself (dedup, retries, backoff,
/// poison, deadline supervision, cancellation, resumability) is
/// generic over this — single-core [`CampaignPoint`]s and multi-core
/// `ChipPoint`s flow through the identical machinery.
pub trait SweepPoint: Sync {
    /// The computed result type (stored on success, returned on load).
    type Output: Send + Clone;

    /// The content address of this point in the result store. Poison
    /// records are keyed on this too.
    ///
    /// Deriving it reads the whole point (for simulation points, a
    /// digest of every memory image), so callers derive it **once**
    /// and hand it to [`SweepPoint::load`], [`SweepPoint::save`] and
    /// [`SweepPoint::present`], whose impls never call `key()`.
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

    /// Cheap existence check (no payload validation) for status
    /// censuses. The default is the single-record case.
    fn present(&self, store: &ResultStore, key: PointKey) -> bool {
        store.contains(key)
    }
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

/// Per-attempt context handed to an [`Executor`]: which attempt this
/// is and the supervisor's stop handle for it.
#[derive(Clone, Debug)]
pub struct ExecCtx {
    /// 0 on the first try, incremented on each retry.
    pub attempt: u32,
    /// Tripped by the supervisor when [`EngineConfig::point_deadline`]
    /// expires; a cooperative executor stops promptly and returns
    /// [`SimError::Deadline`].
    pub stop: StopFlag,
}

/// How a campaign point is computed. The indirection exists so tests
/// can inject flaky or instant executors: the real simulator is
/// deterministic, so a genuine [`SimError`] would recur on every
/// retry, making retry/backoff untestable against [`SimExecutor`].
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
    /// Returns the simulation error; the engine retries up to
    /// [`EngineConfig::max_retries`] times before recording a failure.
    fn execute(&self, p: &P, ctx: &ExecCtx) -> Result<P::Output, SimError>;
}

/// The production executor: one fresh [`Simulator`] per call, with the
/// attempt's [`StopFlag`] installed so the supervisor's deadline can
/// stop it mid-run.
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
        sim.set_stop_flag(ctx.stop.clone());
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
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads. `0` means one per available CPU; `1` runs
    /// inline on the calling thread (fully deterministic ordering).
    pub threads: usize,
    /// Retries per point after the first attempt (so a point is tried
    /// at most `max_retries + 1` times).
    pub max_retries: u32,
    /// Backoff before retry `n` is `min(backoff_base << n,
    /// backoff_cap)`, then jittered ±25% (still capped).
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep, jitter included.
    pub backoff_cap: Duration,
    /// Seed for the backoff jitter stream. The sleep before a given
    /// `(point, attempt)` is a pure function of this seed, so two runs
    /// with equal configs back off identically no matter how the
    /// workers interleave.
    pub jitter_seed: u64,
    /// Wall-clock budget per execution attempt. When set, a supervisor
    /// watches every in-flight attempt and trips its [`StopFlag`] at
    /// the deadline; `None` lets attempts run unbounded.
    pub point_deadline: Option<Duration>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            threads: 0,
            max_retries: 2,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            jitter_seed: 0,
            point_deadline: None,
        }
    }
}

impl EngineConfig {
    fn resolved_threads(&self, work: usize) -> usize {
        let t = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        };
        t.clamp(1, work.max(1))
    }

    fn backoff(&self, attempt: u32) -> Duration {
        // `attempt` is the attempt that just failed (0-based); shift
        // saturates well before overflow matters.
        let shifted =
            self.backoff_base.saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
        shifted.min(self.backoff_cap)
    }

    /// [`EngineConfig::backoff`] with deterministic ±25% jitter. The
    /// stream is seeded from `(jitter_seed, key, attempt)` alone —
    /// never from shared mutable state — so thread interleaving cannot
    /// change any draw. The result stays within `backoff_cap`.
    fn jittered_backoff(&self, key: PointKey, attempt: u32) -> Duration {
        let base = self.backoff(attempt);
        if base.is_zero() {
            return base;
        }
        let mut rng =
            SplitMix64::new(self.jitter_seed ^ key.0.rotate_left(17) ^ u64::from(attempt));
        let factor = 0.75 + 0.5 * rng.f64_unit(); // [0.75, 1.25)
        Duration::from_secs_f64(base.as_secs_f64() * factor).min(self.backoff_cap)
    }
}

/// What happened to one point, reported through the progress callback.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProgressKind {
    /// Result served from the store; no simulation ran.
    CacheHit,
    /// Simulated (possibly after retries) and stored.
    Computed,
    /// An attempt failed; the point will be retried.
    Retried {
        /// The 0-based attempt that failed.
        attempt: u32,
    },
    /// The point was declared unrunnable and a poison record was
    /// published; the campaign continues without it.
    Poisoned,
    /// The point already had a poison record from an earlier run and
    /// was skipped without executing.
    SkippedPoisoned,
    /// All attempts exhausted (and no poison record could be written,
    /// or the run was cancelled mid-retry); the point is recorded as
    /// failed.
    Failed,
}

/// One progress notification. `done` counts points that reached a
/// terminal state (hit, computed or failed) *including* this one —
/// retries report the current `done` without advancing it.
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
    /// Failed attempts that were retried.
    pub retries: u64,
    /// `(label, error)` for points poisoned *this run* (retries
    /// exhausted or repeated deadline trips; a poison record was
    /// published for each).
    pub poisoned: Vec<(String, String)>,
    /// Points skipped because an earlier run already poisoned them.
    pub skipped_poisoned: u64,
    /// `(label, error)` for points that failed without a poison record
    /// (cancelled mid-retry, or the poison write itself failed).
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
            retries,
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
            ("retries".into(), Json::U64(*retries)),
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
        if p.present(store, key) {
            rep.present += 1;
        } else if store.is_poisoned(key) {
            rep.poisoned += 1;
        } else {
            rep.missing += 1;
        }
    }
    rep
}

/// One in-flight attempt, visible to the supervisor: which unique
/// point, when it started and how to stop it.
struct InFlight {
    point: usize,
    started: Instant,
    stop: StopFlag,
}

/// What one campaign run shares between the threads driving it.
struct Shared<'a> {
    store: Option<&'a ResultStore>,
    cfg: &'a EngineConfig,
    cancel: &'a CancelToken,
    progress: Option<ProgressSink<'a>>,
    total: u64,
    done: AtomicU64,
    /// Armed around each execute call; at most one entry per thread.
    inflight: Mutex<Vec<InFlight>>,
}

impl Shared<'_> {
    /// Counts one more terminal point and reports it.
    fn finish(&self, label: &str, kind: ProgressKind) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.emit(done, label, kind);
    }

    fn emit(&self, done: u64, label: &str, kind: ProgressKind) {
        if let Some(sink) = self.progress {
            sink(&ProgressEvent { done, total: self.total, label, kind });
        }
    }

    fn inflight(&self) -> std::sync::MutexGuard<'_, Vec<InFlight>> {
        self.inflight.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
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
    /// Given up on without one (no store, cancelled mid-retry, or the
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
/// nothing is saved, and a point that exhausts its attempts lands in
/// [`CampaignOutcome::failed`] (there is nowhere to poison it).
///
/// Never panics on store or simulation trouble; a panic in `exec` (an
/// executor bug) does propagate to the caller.
///
/// Each submitted point's [`SweepPoint::key`] is derived exactly once,
/// serially on the calling thread before any point runs (a key digests
/// the point's memory images: one pass the first time a process sees
/// an image, a memo hit after); dedup, the hit and poison checks, the
/// save and the backoff jitter all reuse that value.
pub fn run_points<P: SweepPoint, E: Executor<P>>(
    points: &[P],
    store: Option<&ResultStore>,
    exec: &E,
    cfg: &EngineConfig,
    cancel: &CancelToken,
    progress: Option<ProgressSink<'_>>,
) -> (CampaignOutcome, Vec<Option<P::Output>>) {
    let keyed: Vec<(&P, PointKey)> = points.iter().map(|p| (p, p.key())).collect();
    run_keyed(&keyed, store, exec, cfg, cancel, progress)
}

/// [`run_points`] over points whose keys the caller has already
/// derived (the serve loop shard-filters by key first): every later
/// use of a key reads `points[i].1`.
pub(crate) fn run_keyed<P: SweepPoint, E: Executor<P>>(
    points: &[(&P, PointKey)],
    store: Option<&ResultStore>,
    exec: &E,
    cfg: &EngineConfig,
    cancel: &CancelToken,
    progress: Option<ProgressSink<'_>>,
) -> (CampaignOutcome, Vec<Option<P::Output>>) {
    // Dedup by key: the first occurrence names the point in progress
    // output; later duplicates would compute the identical record.
    let mut slot_of_key: HashMap<PointKey, usize> = HashMap::with_capacity(points.len());
    let mut unique: Vec<usize> = Vec::with_capacity(points.len());
    let slots: Vec<usize> = points
        .iter()
        .enumerate()
        .map(|(i, &(_, key))| {
            *slot_of_key.entry(key).or_insert_with(|| {
                unique.push(i);
                unique.len() - 1
            })
        })
        .collect();

    let shared = Shared {
        store,
        cfg,
        cancel,
        progress,
        total: unique.len() as u64,
        done: AtomicU64::new(0),
        inflight: Mutex::new(Vec::new()),
    };
    let drive = || {
        vr_pool::map(cfg.resolved_threads(unique.len()), &unique, |&idx| {
            drive_point(points[idx].0, points[idx].1, idx, &shared, exec)
        })
    };
    let driven = match cfg.point_deadline {
        None => drive(),
        Some(deadline) => {
            // The supervisor runs beside the sweep on its own scoped
            // thread, watching a done flag. The drop guard raises the
            // flag even when an executor panic unwinds out of `drive`,
            // so the supervisor always exits and the scope can join it
            // (then re-raise the panic).
            struct RaiseOnDrop<'a>(&'a AtomicBool);
            impl Drop for RaiseOnDrop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Release);
                }
            }
            let done = AtomicBool::new(false);
            std::thread::scope(|scope| {
                scope.spawn(|| supervise(&shared, deadline, &done));
                let _raise = RaiseOnDrop(&done);
                drive()
            })
        }
    };

    // `map` returns in input order, so every list below is in
    // submission order regardless of how the threads interleaved.
    let mut outcome = CampaignOutcome {
        submitted: points.len() as u64,
        duplicates: (points.len() - unique.len()) as u64,
        total: shared.total,
        cancelled: cancel.is_cancelled(),
        ..CampaignOutcome::default()
    };
    let mut outputs: Vec<Option<P::Output>> = Vec::with_capacity(unique.len());
    for (&idx, (fate, retries)) in unique.iter().zip(driven) {
        let label = || points[idx].0.label().to_string();
        outcome.retries += retries;
        outputs.push(match fate {
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

/// The deadline supervisor: polls the in-flight attempts and trips the
/// [`StopFlag`] of any past its wall-clock budget, until `done` is
/// raised. Pure observation plus one atomic store, so it can never
/// wedge the thread running the attempt.
fn supervise(shared: &Shared<'_>, deadline: Duration, done: &AtomicBool) {
    let poll = (deadline / 8).clamp(Duration::from_millis(1), Duration::from_millis(50));
    while !done.load(Ordering::Acquire) {
        for fl in shared.inflight().iter() {
            if fl.started.elapsed() >= deadline {
                fl.stop.trip();
            }
        }
        std::thread::sleep(poll);
    }
}

/// Takes one unique point (submitted at `idx`) to its [`Fate`] and
/// counts the retries it burned: hit, skip-if-poisoned, then execute
/// with retries in place — a point is never handed back to the
/// scheduler, so "every item claimed" always means "no work left".
fn drive_point<P: SweepPoint, E: Executor<P>>(
    p: &P,
    key: PointKey,
    idx: usize,
    shared: &Shared<'_>,
    exec: &E,
) -> (Fate<P::Output>, u64) {
    if shared.cancel.is_cancelled() {
        return (Fate::Untaken, 0);
    }
    if let Some(store) = shared.store {
        if let Some(out) = p.load(store, key) {
            shared.finish(p.label(), ProgressKind::CacheHit);
            return (Fate::Hit(out), 0);
        }
        if store.is_poisoned(key) {
            // An earlier run already gave up on this point; skip it
            // rather than burning its whole retry budget again
            // (`store gc` un-poisons).
            shared.finish(p.label(), ProgressKind::SkippedPoisoned);
            return (Fate::SkippedPoisoned, 0);
        }
    }

    let mut attempt = 0u32;
    let mut deadline_trips = 0u32;
    loop {
        let ctx = ExecCtx { attempt, stop: StopFlag::new() };
        shared.inflight().push(InFlight {
            point: idx,
            started: Instant::now(),
            stop: ctx.stop.clone(),
        });
        let result = exec.execute(p, &ctx);
        shared.inflight().retain(|fl| fl.point != idx);
        let e = match result {
            Ok(out) => {
                // A failed save degrades to "computed but not cached"
                // — the result is still counted; a re-run will
                // recompute the point.
                if let Some(store) = shared.store {
                    let _ = p.save(store, key, &out);
                }
                shared.finish(p.label(), ProgressKind::Computed);
                return (Fate::Computed(out), u64::from(attempt));
            }
            Err(e) => e,
        };
        if matches!(e, SimError::Deadline(_)) {
            deadline_trips += 1;
        }
        let cancelled = shared.cancel.is_cancelled();
        let give_up = cancelled
            || deadline_trips >= POISON_DEADLINE_TRIPS
            || attempt >= shared.cfg.max_retries;
        if !give_up {
            shared.emit(
                shared.done.load(Ordering::Relaxed),
                p.label(),
                ProgressKind::Retried { attempt },
            );
            let pause = shared.cfg.jittered_backoff(key, attempt);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
            attempt += 1;
            continue;
        }
        // Cancellation is not a verdict on the point — no poison
        // record, just a plain failure this run.
        let poisoned = !cancelled
            && shared.store.is_some_and(|store| {
                store
                    .poison(&PoisonRecord {
                        key,
                        label: p.label().to_string(),
                        error: e.to_string(),
                        attempts: attempt + 1,
                        deadline_trips,
                    })
                    .is_ok()
            });
        let fate = if poisoned {
            shared.finish(p.label(), ProgressKind::Poisoned);
            Fate::Poisoned(e.to_string())
        } else {
            shared.finish(p.label(), ProgressKind::Failed);
            Fate::Failed(e.to_string())
        };
        return (fate, u64::from(attempt));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Fails the first `fail_first` attempts of every point.
    struct FlakyExec {
        fail_first: u32,
        calls: AtomicU32,
    }
    impl Executor for FlakyExec {
        fn execute(&self, p: &CampaignPoint, ctx: &ExecCtx) -> Result<SimStats, SimError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            if ctx.attempt < self.fail_first {
                Err(SimError::Memory { cycle: 1, what: format!("injected fault on {}", p.label) })
            } else {
                FakeExec.execute(p, ctx)
            }
        }
    }

    /// Blocks points whose label contains `slow` until the attempt's
    /// stop flag trips, then reports a deadline — the cooperative
    /// contract [`SimExecutor`] implements via the simulator.
    struct SlowExec;
    impl Executor for SlowExec {
        fn execute(&self, p: &CampaignPoint, ctx: &ExecCtx) -> Result<SimStats, SimError> {
            if !p.label.contains("slow") {
                return FakeExec.execute(p, ctx);
            }
            while !ctx.stop.is_set() {
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

    fn cfg_fast(threads: usize) -> EngineConfig {
        EngineConfig {
            threads,
            max_retries: 2,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            jitter_seed: 0,
            point_deadline: None,
        }
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
            run_campaign(&points, &store, &FakeExec, &cfg_fast(3), &CancelToken::new(), None);
        assert!(first.complete(), "{first:?}");
        assert_eq!((first.computed, first.cache_hits), (6, 0));

        // Resume with a fresh store handle: everything is a hit.
        let store2 = ResultStore::open(&dir).unwrap();
        let second =
            run_campaign(&points, &store2, &FakeExec, &cfg_fast(3), &CancelToken::new(), None);
        assert!(second.complete());
        assert_eq!((second.computed, second.cache_hits), (0, 6), "resume recomputed");

        // Partial resume: drop two records, only those recompute.
        for p in &points[..2] {
            std::fs::remove_file(store2.records_dir().join(format!("{}.json", p.key().hex())))
                .unwrap();
        }
        let third =
            run_campaign(&points, &store2, &FakeExec, &cfg_fast(1), &CancelToken::new(), None);
        assert_eq!((third.computed, third.cache_hits), (2, 4));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicates_are_skipped_not_recomputed() {
        let (dir, store) = tmp_store("dedup");
        let mut points = tiny_points(3);
        points.extend(tiny_points(3)); // same 3 keys again
        let out = run_campaign(&points, &store, &FakeExec, &cfg_fast(1), &CancelToken::new(), None);
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
                return Err(SimError::Memory { cycle: 1, what: "injected fault".into() });
            }
            FakeExec.execute(p, ctx)
        }
    }

    #[test]
    fn outputs_follow_submission_order_at_any_thread_count_and_reload_identically() {
        let points = points_with_duplicates_and_a_sick_one();
        let expect: Vec<Option<SimStats>> = points
            .iter()
            .map(|p| SickExec.execute(p, &ExecCtx { attempt: 0, stop: StopFlag::new() }).ok())
            .collect();
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
                    &cfg_fast(threads),
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
            let (out, outputs) =
                run_points(&points, None, &SickExec, &cfg_fast(threads), &CancelToken::new(), None);
            assert_eq!((out.computed, out.cache_hits, out.retries), (5, 0, 2));
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
                return Err(SimError::Memory { cycle: 1, what: "injected fault".into() });
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
                    &cfg_fast(threads),
                    &CancelToken::new(),
                    None,
                );
                let keyed: Vec<u32> =
                    points.iter().map(|p| p.keyed.swap(0, Ordering::Relaxed)).collect();
                assert_eq!(keyed, [1; 9], "threads={threads}: {out:?}");
                out
            };
            // Computed, retried-then-poisoned and duplicate paths.
            let first = run();
            assert_eq!((first.computed, first.retries, first.duplicates), (4, 4, 3));
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
    fn transient_faults_are_retried_with_counts() {
        let (dir, store) = tmp_store("retry");
        let points = tiny_points(4);
        let exec = FlakyExec { fail_first: 2, calls: AtomicU32::new(0) };
        let out = run_campaign(&points, &store, &exec, &cfg_fast(2), &CancelToken::new(), None);
        assert!(out.complete(), "{out:?}");
        assert_eq!(out.computed, 4);
        assert_eq!(out.retries, 8, "2 failed attempts per point");
        assert_eq!(exec.calls.load(Ordering::Relaxed), 12, "3 attempts per point");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistent_faults_poison_in_order_and_reruns_skip_them() {
        let (dir, store) = tmp_store("fail");
        let points = tiny_points(3);
        let exec = FlakyExec { fail_first: u32::MAX, calls: AtomicU32::new(0) };
        let out = run_campaign(&points, &store, &exec, &cfg_fast(2), &CancelToken::new(), None);
        assert!(!out.complete());
        assert!(out.degraded_complete(), "poison degrades, it does not wedge: {out:?}");
        assert_eq!(out.computed, 0);
        assert!(out.failed.is_empty(), "exhausted retries poison, not fail: {out:?}");
        assert_eq!(out.poisoned.len(), 3);
        let labels: Vec<&str> = out.poisoned.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["p0", "p1", "p2"], "poisonings sorted by submission order");
        assert!(out.poisoned[0].1.contains("injected fault"), "{:?}", out.poisoned[0]);
        let calls_first = exec.calls.load(Ordering::Relaxed);
        assert_eq!(calls_first, 9, "3 attempts per point");

        // Each point now carries a structured poison record...
        for p in &points {
            let rec = store.load_poison(p.key()).expect("poison record");
            assert_eq!(rec.attempts, 3);
            assert_eq!(rec.deadline_trips, 0);
            assert!(rec.error.contains("injected fault"));
        }
        let status = campaign_status(&points, &store);
        assert_eq!((status.present, status.missing, status.poisoned), (0, 0, 3));

        // ...so a re-run skips them without executing anything.
        let out2 = run_campaign(&points, &store, &exec, &cfg_fast(2), &CancelToken::new(), None);
        assert_eq!(out2.skipped_poisoned, 3);
        assert!(out2.degraded_complete());
        assert_eq!(exec.calls.load(Ordering::Relaxed), calls_first, "no attempts burned");

        // gc clears the poison; the points execute again.
        assert_eq!(store.gc().unwrap().poison_removed, 3);
        let out3 = run_campaign(&points, &store, &exec, &cfg_fast(2), &CancelToken::new(), None);
        assert_eq!(out3.poisoned.len(), 3, "still failing, poisoned afresh");
        assert!(exec.calls.load(Ordering::Relaxed) > calls_first);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deadline_trips_twice_then_poisons_and_campaign_continues() {
        // One thread runs the points inline on the caller, two on the
        // pool; the supervisor's wiring is the same for both.
        for threads in [1, 2] {
            let (dir, store) = tmp_store("deadline");
            let mut points = tiny_points(4);
            points[2].label = "p2-slow".into();
            let cfg = EngineConfig {
                point_deadline: Some(Duration::from_millis(25)),
                ..cfg_fast(threads)
            };
            let t0 = std::time::Instant::now();
            let out = run_campaign(&points, &store, &SlowExec, &cfg, &CancelToken::new(), None);
            assert!(out.degraded_complete(), "{out:?}");
            assert_eq!(out.computed, 3, "healthy points unaffected");
            assert_eq!(out.poisoned.len(), 1);
            assert_eq!(out.poisoned[0].0, "p2-slow");
            assert!(out.poisoned[0].1.contains("deadline"), "{:?}", out.poisoned[0]);

            let rec = store.load_poison(points[2].key()).expect("poison record");
            assert_eq!(
                rec.deadline_trips, POISON_DEADLINE_TRIPS,
                "second trip is the verdict (one retry in between)"
            );
            assert_eq!(rec.attempts, 2);
            // Two supervised attempts of ~25ms each, not max_retries+1
            // unbounded hangs.
            assert!(t0.elapsed() < Duration::from_secs(5), "took {:?}", t0.elapsed());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn cancellation_stops_taking_work_and_flags_the_outcome() {
        let (dir, store) = tmp_store("cancel");
        let points = tiny_points(8);
        let token = CancelToken::new();
        token.cancel();
        let out = run_campaign(&points, &store, &FakeExec, &cfg_fast(2), &token, None);
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
        let out = run_campaign(&points, &store, &FakeExec, &cfg_fast(1), &token, Some(&sink));
        assert!(out.cancelled);
        assert!(out.computed >= 3 && out.computed < 8, "computed={}", out.computed);
        let status = campaign_status(&points, &store);
        assert_eq!(status.present, out.computed);
        assert_eq!(status.missing, 8 - out.computed);

        // A resumed run finishes the remainder only.
        let out2 =
            run_campaign(&points, &store, &FakeExec, &cfg_fast(2), &CancelToken::new(), None);
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
            &cfg_fast(1),
            &CancelToken::new(),
            None,
        );
        assert!(out.complete(), "{out:?}");

        // The stored record equals a direct simulation bit-for-bit.
        let ctx = ExecCtx { attempt: 0, stop: StopFlag::new() };
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

    #[test]
    fn engine_config_backoff_is_bounded() {
        let cfg = EngineConfig {
            threads: 1,
            max_retries: 40,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(80),
            ..EngineConfig::default()
        };
        assert_eq!(cfg.backoff(0), Duration::from_millis(10));
        assert_eq!(cfg.backoff(1), Duration::from_millis(20));
        assert_eq!(cfg.backoff(3), Duration::from_millis(80));
        assert_eq!(cfg.backoff(63), Duration::from_millis(80), "no overflow at large attempts");
        assert_eq!(cfg.resolved_threads(100), 1);
        assert_eq!(EngineConfig::default().resolved_threads(0), 1, "empty campaign still valid");
    }

    #[test]
    fn backoff_jitter_is_seeded_bounded_and_reproducible() {
        let cfg = EngineConfig {
            backoff_base: Duration::from_millis(40),
            backoff_cap: Duration::from_secs(1),
            jitter_seed: 7,
            ..EngineConfig::default()
        };
        let keys = [PointKey(0x1111), PointKey(0x2222), PointKey(0x3333)];
        let draw = |cfg: &EngineConfig| {
            let mut v = Vec::new();
            for key in keys {
                for attempt in 0..5 {
                    v.push(cfg.jittered_backoff(key, attempt));
                }
            }
            v
        };
        let a = draw(&cfg);
        // Pure function of (seed, key, attempt): replays identically.
        assert_eq!(a, draw(&cfg));
        // Every sleep within ±25% of the un-jittered value and capped.
        let mut distinct = std::collections::HashSet::new();
        for (i, key) in keys.iter().enumerate() {
            for attempt in 0..5u32 {
                let jittered = a[i * 5 + attempt as usize];
                let plain = cfg.backoff(attempt).as_secs_f64();
                assert!(jittered <= cfg.backoff_cap);
                assert!(
                    (0.75 * plain..1.25 * plain).contains(&jittered.as_secs_f64()),
                    "key {key:?} attempt {attempt}: {jittered:?} vs plain {plain}s"
                );
                distinct.insert(jittered);
            }
        }
        assert!(distinct.len() > 5, "jitter must decorrelate points: {distinct:?}");
        // A different seed draws a different schedule.
        let other = draw(&EngineConfig { jitter_seed: 8, ..cfg });
        assert_ne!(a, other);
        // The cap binds even after jitter pushes past it.
        let tight = EngineConfig {
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_millis(100),
            jitter_seed: 3,
            ..EngineConfig::default()
        };
        for attempt in 0..6 {
            assert!(tight.jittered_backoff(keys[0], attempt) <= tight.backoff_cap);
        }
        // Zero backoff stays zero (test configs sleep nothing).
        let zero = EngineConfig {
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            ..EngineConfig::default()
        };
        assert_eq!(zero.jittered_backoff(keys[0], 3), Duration::ZERO);
    }
}
