//! Chaos suite (`--features chaos`): drives real campaigns against a
//! store whose filesystem is deterministically sabotaged, and proves
//! the durability claims the module docs make:
//!
//! * any crash interleaving leaves the store recoverable — `gc` +
//!   `verify` come back clean and a re-run converges to byte-identical
//!   records;
//! * no injected fault (torn write, rename failure, bit flip, ENOSPC)
//!   ever panics the caller — the worst case is recomputation;
//! * the whole fault schedule is a pure function of the seed.
//!
//! Every campaign here runs single-threaded: determinism of the fault
//! schedule requires a deterministic operation order.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use vr_campaign::chaos::ChaosConfig;
use vr_campaign::{
    run_campaign, CampaignOutcome, CampaignPoint, CancelToken, ChipPoint, ChipSlot, EngineConfig,
    Executor, ResultStore, SimExecutor, SweepPoint,
};
use vr_chip::ChipConfig;
use vr_core::{CoreConfig, RunaheadConfig};
use vr_mem::MemConfig;
use vr_workloads::{hpcdb, Scale};

/// Scratch stores live under `VR_CHAOS_DIR` when set (the CI chaos
/// job points it inside the workspace and uploads it on failure, so a
/// red run ships the exact sabotaged store + quarantine for
/// post-mortem), else under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let root = std::env::var_os("VR_CHAOS_DIR").map_or_else(std::env::temp_dir, PathBuf::from);
    let dir = root.join(format!(
        "vr-chaos-it-{tag}-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Keeps the store for post-mortem when `VR_CHAOS_DIR` is set.
fn cleanup(dir: &Path) {
    if std::env::var_os("VR_CHAOS_DIR").is_none() {
        fs::remove_dir_all(dir).ok();
    }
}

fn points() -> Vec<CampaignPoint> {
    (0..4)
        .map(|i| CampaignPoint {
            label: format!("kangaroo/{i}"),
            workload: Arc::new(hpcdb::kangaroo(Scale::Test)),
            core: CoreConfig::table1(),
            mem: MemConfig::tiny_for_tests(),
            ra: RunaheadConfig::none(),
            max_insts: 900 + i,
        })
        .collect()
}

/// Two 2-core chip points (VR beside OoO), each stored as one record.
fn chip_points() -> Vec<ChipPoint> {
    let w = Arc::new(hpcdb::kangaroo(Scale::Test));
    (0..2)
        .map(|i| ChipPoint {
            label: format!("chip/2x/{i}"),
            chip: ChipConfig::with_cores(2),
            core: CoreConfig::table1(),
            mem: MemConfig::tiny_for_tests(),
            slots: [RunaheadConfig::vector(), RunaheadConfig::none()]
                .map(|ra| ChipSlot { workload: Arc::clone(&w), ra })
                .to_vec(),
            max_insts: 300 + i,
        })
        .collect()
}

fn run<P: SweepPoint>(points: &[P], store: &ResultStore) -> CampaignOutcome
where
    SimExecutor: Executor<P>,
{
    let cfg = EngineConfig { threads: 1, ..EngineConfig::default() };
    run_campaign(points, store, &SimExecutor, &cfg, &CancelToken::new(), None)
}

/// All published records as (name, bytes), sorted — the byte-identity
/// currency of every convergence assertion below (the shared helper,
/// unwrapped: a scratch store that cannot be read is a test failure).
fn snapshot_records(root: &Path) -> Vec<(String, Vec<u8>)> {
    vr_campaign::snapshot_records(root).unwrap()
}

/// The ground truth: the records a fault-free campaign produces, one
/// per point.
fn baseline<P: SweepPoint>(points: &[P]) -> Vec<(String, Vec<u8>)>
where
    SimExecutor: Executor<P>,
{
    let dir = scratch("baseline");
    let store = ResultStore::open(&dir).unwrap();
    assert!(run(points, &store).complete());
    let snap = snapshot_records(&dir);
    assert_eq!(snap.len(), points.len());
    fs::remove_dir_all(&dir).ok();
    snap
}

/// After any chaos run: reopen WITHOUT chaos (the dead process is
/// gone), reclaim, and re-run until the store equals the baseline.
fn recover_and_check<P: SweepPoint>(
    dir: &Path,
    points: &[P],
    truth: &[(String, Vec<u8>)],
    ctx: &str,
) where
    SimExecutor: Executor<P>,
{
    let store = ResultStore::open(dir).unwrap();
    // The killed process cannot still be writing: zero age gate.
    store.gc_with_tmp_age(Duration::ZERO).unwrap();
    let rep = store.verify().unwrap();
    assert!(rep.clean(), "{ctx}: store not clean after gc: {rep:?}");
    let out = run(points, &store);
    assert!(out.complete(), "{ctx}: recovery run incomplete: {out:?}");
    assert_eq!(snapshot_records(dir), truth, "{ctx}: records not byte-identical");
    let rep = store.verify().unwrap();
    assert_eq!(rep.ok, points.len() as u64, "{ctx}");
    assert!(rep.clean(), "{ctx}");
}

/// How many mutating fs ops (writes, renames, removes) one fault-free
/// campaign performs — the schedule length the crash matrix walks.
fn count_mutating_ops<P: SweepPoint>(points: &[P]) -> u64
where
    SimExecutor: Executor<P>,
{
    let dir = scratch("opcount");
    let store = ResultStore::open_with_chaos(&dir, ChaosConfig::quiet()).unwrap();
    assert!(run(points, &store).complete());
    let ops = store.chaos_counters().unwrap().mutating_ops;
    fs::remove_dir_all(&dir).ok();
    ops
}

/// Crashes before and after every single mutating op a campaign over
/// `points` performs (op == ops is the crash-never-fires sanity arm)
/// and recovers from each.
fn crash_matrix<P: SweepPoint>(points: &[P], tag: &str)
where
    SimExecutor: Executor<P>,
{
    let truth = baseline(points);
    let ops = count_mutating_ops(points);
    let publishes = 2 * points.len() as u64;
    assert!(ops >= publishes, "{tag}: a write + a rename per point, got {ops}");
    for op in 0..=ops {
        for before in [true, false] {
            let ctx = format!("{tag}: crash op {op}/{ops} before={before}");
            let dir = scratch(&format!("{tag}-crash-{op}-{before}"));
            let store =
                ResultStore::open_with_chaos(&dir, ChaosConfig::crash_only(op, before)).unwrap();
            // The campaign itself must survive the dead store: saves
            // fail silently, nothing panics.
            let out = run(points, &store);
            assert!(out.complete(), "{ctx}: campaign wedged: {out:?}");
            recover_and_check(&dir, points, &truth, &ctx);
            cleanup(&dir);
        }
    }
}

#[test]
fn every_crash_interleaving_is_recoverable() {
    crash_matrix(&points(), "scalar");
}

#[test]
fn every_chip_crash_interleaving_is_recoverable() {
    crash_matrix(&chip_points(), "chip");
}

#[test]
fn seeded_fault_storms_recover_to_byte_identical_records() {
    let truth = baseline(&points());
    // The CI chaos matrix: >= 8 distinct seeds, each a different mix
    // of torn writes, rename failures, bit flips, ENOSPC and one
    // crash point drawn from the stream.
    for seed in 0..10u64 {
        let ctx = format!("storm seed {seed}");
        let dir = scratch(&format!("storm-{seed}"));
        let store = ResultStore::open_with_chaos(&dir, ChaosConfig::storm(seed, 16)).unwrap();
        let out = run(&points(), &store);
        assert!(out.complete(), "{ctx}: campaign wedged: {out:?}");
        recover_and_check(&dir, &points(), &truth, &ctx);
        cleanup(&dir);
    }
}

#[test]
fn bitflip_reads_quarantine_and_recompute_never_panic() {
    let truth = baseline(&points());
    let dir = scratch("bitflip");
    // Populate cleanly first, then read everything back through a
    // store that flips one bit of every read.
    assert!(run(&points(), &ResultStore::open(&dir).unwrap()).complete());
    let store = ResultStore::open_with_chaos(
        &dir,
        ChaosConfig { bitflip_read: 1.0, seed: 42, ..ChaosConfig::quiet() },
    )
    .unwrap();
    let out = run(&points(), &store);
    assert!(out.complete());
    assert_eq!(out.cache_hits, 0, "every flipped read must miss");
    assert_eq!(out.computed, 4, "every point recomputed");
    let c = store.chaos_counters().unwrap();
    assert_eq!(c.bitflips, 4, "one flip per load");

    // The flipped-looking records were quarantined (the reader cannot
    // tell a flipped read from real corruption) and recomputed ones
    // republished; recovery converges as usual.
    let store = ResultStore::open(&dir).unwrap();
    assert!(store.quarantine_backlog().unwrap() >= 4);
    store.gc_with_tmp_age(Duration::ZERO).unwrap();
    recover_and_check(&dir, &points(), &truth, "bitflip");
    cleanup(&dir);
}

#[test]
fn full_disk_degrades_to_uncached_and_recovers() {
    let truth = baseline(&points());
    let dir = scratch("enospc");
    let store = ResultStore::open_with_chaos(
        &dir,
        ChaosConfig { enospc: 1.0, seed: 7, ..ChaosConfig::quiet() },
    )
    .unwrap();
    let out = run(&points(), &store);
    assert!(out.complete(), "a full disk must not fail the campaign: {out:?}");
    assert_eq!(out.computed, 4);
    assert_eq!(store.chaos_counters().unwrap().enospc, 4, "every save hit ENOSPC");
    assert_eq!(snapshot_records(&dir), Vec::new(), "nothing could be published");
    assert!(
        ResultStore::open(&dir).unwrap().verify().unwrap().clean(),
        "ENOSPC leaves no partial files behind"
    );
    recover_and_check(&dir, &points(), &truth, "enospc");
    cleanup(&dir);
}

#[test]
fn chaos_schedules_are_a_pure_function_of_the_seed() {
    let run_once = |tag: &str| {
        let dir = scratch(tag);
        let store = ResultStore::open_with_chaos(&dir, ChaosConfig::storm(1234, 16)).unwrap();
        let out = run(&points(), &store);
        assert!(out.complete());
        let counters = store.chaos_counters().unwrap();
        let snap = snapshot_records(&dir);
        fs::remove_dir_all(&dir).ok();
        (counters, snap)
    };
    let (ca, sa) = run_once("det-a");
    let (cb, sb) = run_once("det-b");
    assert_eq!(ca, cb, "same seed, same injected faults");
    assert_eq!(sa, sb, "same seed, same surviving records");
}
