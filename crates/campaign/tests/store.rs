//! Integration tests for the result store's durability contract:
//! crash consistency, corruption quarantine, staleness, and the
//! `verify` / `gc` maintenance passes — everything the `--cache` flag
//! and the CI kill-and-resume job lean on.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use vr_campaign::{
    point_key, run_campaign, CampaignPoint, CancelToken, EngineConfig, PointKey, ResultStore,
    SimExecutor, CODE_SALT,
};
use vr_chip::{ChipRun, ChipStats};
use vr_core::{CoreConfig, RunaheadConfig, SimStats};
use vr_mem::MemConfig;
use vr_workloads::{hpcdb, Scale};

fn scratch(tag: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "vr-store-it-{tag}-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn some_key(n: u64) -> PointKey {
    let w = hpcdb::kangaroo(Scale::Test);
    point_key(&w, &CoreConfig::table1(), &MemConfig::tiny_for_tests(), &RunaheadConfig::none(), n)
}

fn some_stats(n: u64) -> SimStats {
    SimStats { cycles: 17 * n + 1, instructions: n, branches: 3, ..SimStats::default() }
}

/// A two-core chip run whose per-core stats are [`some_stats`].
fn some_chip_run(n: u64) -> ChipRun {
    ChipRun {
        per_core: vec![some_stats(n), some_stats(n + 1)],
        chip: ChipStats { cycles: 19 * n + 2, bank_conflicts: n, ..ChipStats::default() },
    }
}

fn record_path(store: &ResultStore, key: PointKey) -> PathBuf {
    store.records_dir().join(format!("{}.json", key.hex()))
}

/// Rewrites `key`'s record through `mutate`, which must change it.
fn rewrite(store: &ResultStore, key: PointKey, mutate: fn(&str) -> String, ctx: &str) -> PathBuf {
    let path = record_path(store, key);
    let text = fs::read_to_string(&path).unwrap();
    let mutated = mutate(&text);
    assert_ne!(mutated, text, "{ctx} must actually change the record");
    fs::write(&path, mutated).unwrap();
    path
}

#[test]
fn save_load_round_trips_and_counts() {
    let dir = scratch("roundtrip");
    let store = ResultStore::open(&dir).unwrap();
    assert!(store.is_empty().unwrap());

    let (k, s) = (some_key(1), some_stats(1));
    assert_eq!(store.load(k), None, "empty store misses");
    store.save(k, "p1", &s).unwrap();
    assert_eq!(store.load(k), Some(s), "stored record reads back bit-identically");
    assert!(store.contains(k));
    assert_eq!(store.len().unwrap(), 1);

    let c = store.counters();
    assert_eq!((c.hits, c.misses, c.writes), (1, 1, 1));
    assert_eq!((c.stale, c.quarantined), (0, 0));

    // Overwrite with different stats: last save wins (same key should
    // never produce different stats in production, but the store must
    // not corrupt itself if it happens).
    let s2 = some_stats(2);
    store.save(k, "p1", &s2).unwrap();
    assert_eq!(store.load(k), Some(s2));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_record_is_quarantined_and_recomputed_not_a_crash() {
    let dir = scratch("corrupt");
    let store = ResultStore::open(&dir).unwrap();
    let (k, s) = (some_key(2), some_stats(2));
    store.save(k, "p", &s).unwrap();

    // Flip bytes in the middle of the record (checksum now fails).
    let path = record_path(&store, k);
    let mut bytes = fs::read(path.clone()).unwrap();
    let mid = bytes.len() / 2;
    for b in &mut bytes[mid..mid + 8] {
        *b = b'#';
    }
    fs::write(&path, &bytes).unwrap();

    // The load is a miss, never a panic; the record moves aside.
    assert_eq!(store.load(k), None);
    assert!(!path.exists(), "corrupt record removed from records/");
    assert_eq!(store.counters().quarantined, 1);
    let quarantined: Vec<_> = fs::read_dir(dir.join("quarantine")).unwrap().collect();
    assert_eq!(quarantined.len(), 1, "bytes preserved for diagnosis");

    // Recompute + restore works; the point becomes a hit again.
    store.save(k, "p", &s).unwrap();
    assert_eq!(store.load(k), Some(s));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_corruption_shape_quarantines() {
    let dir = scratch("shapes");
    let store = ResultStore::open(&dir).unwrap();
    let (k, s) = (some_key(3), some_stats(3));
    let (chip_key, run) = (some_key(33), some_chip_run(3));
    let cases: &[fn(&str) -> String] = &[
        |_| String::new(),                                             // empty file
        |_| "not json at all {{{".into(),                              // unparseable
        |t| t.replace("\"schema\": \"vr-", "\"schema\": \"vr-other-"), // unknown schema tag
        |t| t.replace("\"branches\": 3", "\"branches\": 4"),           // checksum mismatch
        |t| t.replace("\"cycles\"", "\"cyclez\""), // field missing -> strict parse fails
    ];
    // Every shape is applied to a scalar record and to a chip record.
    for (i, mutate) in cases.iter().enumerate() {
        store.save(k, "p", &s).unwrap();
        let path = rewrite(&store, k, *mutate, &format!("case {i}"));
        assert_eq!(store.load(k), None, "case {i} must miss");
        assert!(!path.exists(), "case {i} must quarantine");

        store.save_chip(chip_key, "chip", &run).unwrap();
        let path = rewrite(&store, chip_key, *mutate, &format!("chip case {i}"));
        assert_eq!(store.load_chip(chip_key, 2), None, "chip case {i} must miss");
        assert!(!path.exists(), "chip case {i} must quarantine");
    }
    assert_eq!(store.counters().quarantined, 2 * cases.len() as u64);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn chip_record_read_as_another_shape_is_a_quarantined_miss() {
    let dir = scratch("chip-shape");
    let store = ResultStore::open(&dir).unwrap();
    let (k, run) = (some_key(35), some_chip_run(5));
    store.save_chip(k, "chip/2x", &run).unwrap();
    assert_eq!(store.len().unwrap(), 1, "one record per chip point");
    assert_eq!(store.load_chip(k, 2), Some(run.clone()));
    // The point asking for it has three slots; the record holds two.
    assert_eq!(store.load_chip(k, 3), None);
    assert!(!record_path(&store, k).exists(), "moved out of records/");
    // Read as a single-core result, it is not what the key names either.
    store.save_chip(k, "chip/2x", &run).unwrap();
    assert_eq!(store.load(k), None);
    let c = store.counters();
    assert_eq!((c.hits, c.misses, c.quarantined), (1, 2, 2));
    assert_eq!(store.quarantine_backlog().unwrap(), 2);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn wrong_key_record_is_corrupt_even_if_well_formed() {
    let dir = scratch("wrongkey");
    let store = ResultStore::open(&dir).unwrap();
    let (ka, kb, s) = (some_key(4), some_key(5), some_stats(4));
    store.save(ka, "p", &s).unwrap();
    // Copy a's record into b's filename: embedded key mismatches.
    fs::copy(record_path(&store, ka), record_path(&store, kb)).unwrap();
    assert_eq!(store.load(kb), None);
    assert_eq!(store.counters().quarantined, 1);
    assert_eq!(store.load(ka), Some(s), "the genuine record is untouched");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_salt_is_a_miss_left_in_place_until_gc() {
    let dir = scratch("stale");
    let store = ResultStore::open(&dir).unwrap();
    let (k, s) = (some_key(6), some_stats(6));
    store.save(k, "p", &s).unwrap();

    // Rewrite the record as if an older code version had produced it.
    let path = record_path(&store, k);
    let text = fs::read_to_string(&path).unwrap();
    let old = text.replace(
        &format!("\"salt\": {CODE_SALT}"),
        &format!("\"salt\": {}", CODE_SALT + 1_000_000),
    );
    assert_ne!(old, text, "salt line must exist in the record");
    fs::write(&path, old).unwrap();

    assert_eq!(store.load(k), None, "stale is a miss");
    assert!(path.exists(), "stale records are NOT quarantined");
    let c = store.counters();
    assert_eq!((c.stale, c.quarantined), (1, 0));

    let rep = store.verify().unwrap();
    assert_eq!((rep.ok, rep.stale, rep.quarantined), (0, 1, 0));
    assert!(!rep.clean());

    let gc = store.gc().unwrap();
    assert_eq!(gc.stale_removed, 1);
    assert!(!path.exists(), "gc reclaims stale records");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_writer_leaves_only_a_tmp_file_that_gc_reclaims() {
    let dir = scratch("tornwrite");
    let store = ResultStore::open(&dir).unwrap();
    let (k, s) = (some_key(7), some_stats(7));
    store.save(k, "ok", &s).unwrap();

    // Simulate a writer killed between `write` and `rename`: a tmp
    // file exists, no record was published.
    let orphan = store.records_dir().join(".tmp-99999-0");
    fs::write(&orphan, "{\"half\": true").unwrap();

    // Readers never see the torn write.
    assert_eq!(store.len().unwrap(), 1, "tmp files are not records");
    assert_eq!(store.load(k), Some(s));

    let rep = store.verify().unwrap();
    assert_eq!((rep.ok, rep.tmp_files), (1, 1));
    assert!(!rep.clean());

    // A default gc keeps the fresh tmp file (it could belong to a
    // writer that is alive right now); the zero-age form reclaims it.
    let gc = store.gc().unwrap();
    assert_eq!((gc.tmp_removed, gc.tmp_kept), (0, 1));
    assert!(orphan.exists(), "fresh tmp files survive the age gate");
    let gc = store.gc_with_tmp_age(std::time::Duration::ZERO).unwrap();
    assert_eq!((gc.tmp_removed, gc.kept), (1, 1));
    assert!(!orphan.exists());
    assert!(store.verify().unwrap().clean(), "store is pristine after gc");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn gc_counts_an_aged_temp_file_in_poison_as_a_temp_file() {
    let dir = scratch("poison-tmp");
    let store = ResultStore::open(&dir).unwrap();
    fs::write(dir.join("poison").join(".tmp-a"), "x").unwrap();
    let gc = store.gc_with_tmp_age(std::time::Duration::ZERO).unwrap();
    assert_eq!((gc.tmp_removed, gc.poison_removed), (1, 0), "{gc:?}");
    assert!(!dir.join("poison").join(".tmp-a").exists());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn gc_reclaims_quarantine_backlog_and_keeps_valid_records() {
    let dir = scratch("gcall");
    let store = ResultStore::open(&dir).unwrap();
    for n in 0..4 {
        store.save(some_key(10 + n), &format!("p{n}"), &some_stats(n)).unwrap();
    }
    // Corrupt one (quarantined on load), orphan one tmp file.
    let victim = some_key(10);
    fs::write(record_path(&store, victim), "garbage").unwrap();
    assert_eq!(store.load(victim), None);
    fs::write(store.records_dir().join(".tmp-1-1"), "x").unwrap();

    let rep = store.verify().unwrap();
    assert_eq!(rep.ok, 3);
    assert_eq!(rep.quarantine_backlog, 1);
    assert_eq!(rep.tmp_files, 1);

    let gc = store.gc_with_tmp_age(std::time::Duration::ZERO).unwrap();
    assert_eq!(gc.kept, 3);
    assert_eq!(gc.quarantine_removed, 1);
    assert_eq!(gc.tmp_removed, 1);
    assert_eq!(store.len().unwrap(), 3);
    assert!(store.verify().unwrap().clean());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_record_is_recomputed_by_the_engine() {
    // End-to-end acceptance shape: corrupt a record under a real
    // campaign, re-run, and watch it recompute to the identical bytes.
    let dir = scratch("engine-recompute");
    let store = ResultStore::open(&dir).unwrap();
    let p = CampaignPoint {
        label: "kangaroo".into(),
        workload: std::sync::Arc::new(hpcdb::kangaroo(Scale::Test)),
        core: CoreConfig::table1(),
        mem: MemConfig::tiny_for_tests(),
        ra: RunaheadConfig::none(),
        max_insts: 1_500,
    };
    let cfg = EngineConfig { threads: 1, ..EngineConfig::default() };
    let out = run_campaign(
        std::slice::from_ref(&p),
        &store,
        &SimExecutor,
        &cfg,
        &CancelToken::new(),
        None,
    );
    assert!(out.complete());
    let path = record_path(&store, p.key());
    let pristine = fs::read(&path).unwrap();

    fs::write(&path, b"}{ totally broken").unwrap();
    let out2 = run_campaign(
        std::slice::from_ref(&p),
        &store,
        &SimExecutor,
        &cfg,
        &CancelToken::new(),
        None,
    );
    assert!(out2.complete());
    assert_eq!(out2.computed, 1, "corrupt record recomputed, not trusted");
    assert_eq!(fs::read(&path).unwrap(), pristine, "recomputation is byte-identical");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantine_preserves_the_original_bytes_verbatim() {
    let dir = scratch("qbytes");
    let store = ResultStore::open(&dir).unwrap();
    let (k, s) = (some_key(20), some_stats(20));
    store.save(k, "p", &s).unwrap();

    // Corrupt the record and keep the exact corrupted bytes.
    let path = record_path(&store, k);
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x55;
    fs::write(&path, &bytes).unwrap();

    assert_eq!(store.load(k), None);
    let mut q: Vec<_> =
        fs::read_dir(dir.join("quarantine")).unwrap().filter_map(Result::ok).collect();
    assert_eq!(q.len(), 1);
    let moved = q.pop().unwrap();
    assert_eq!(
        fs::read(moved.path()).unwrap(),
        bytes,
        "quarantine must preserve the evidence byte-for-byte"
    );
    // The quarantine name keeps the original record name as a prefix.
    let qname = moved.file_name().to_string_lossy().into_owned();
    assert!(qname.starts_with(&format!("{}.json.", k.hex())), "got {qname}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeated_verify_passes_report_a_stable_quarantine_backlog() {
    let dir = scratch("qstable");
    let store = ResultStore::open(&dir).unwrap();
    store.save(some_key(21), "ok", &some_stats(21)).unwrap();
    let victim = some_key(22);
    store.save(victim, "bad", &some_stats(22)).unwrap();
    fs::write(record_path(&store, victim), "garbage").unwrap();

    let first = store.verify().unwrap();
    assert_eq!((first.ok, first.quarantined, first.quarantine_backlog), (1, 1, 1));

    // Verify is idempotent on an unchanged store: nothing new is
    // quarantined and the backlog it reports does not drift.
    for pass in 0..3 {
        let rep = store.verify().unwrap();
        assert_eq!(rep.ok, 1, "pass {pass}");
        assert_eq!(rep.quarantined, 0, "pass {pass}: no new corruption");
        assert_eq!(rep.quarantine_backlog, 1, "pass {pass}: backlog stable");
        assert_eq!(store.quarantine_backlog().unwrap(), 1, "pass {pass}");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn gc_racing_a_live_writer_never_loses_a_publish() {
    // Regression for the tmp-reclaim race: a gc pass sweeping while a
    // writer sits between `write(tmp)` and `rename(tmp, record)` used
    // to delete the tmp file and fail the publish. The age gate keeps
    // young tmp files out of gc's reach.
    let dir = scratch("gcrace");
    let store = ResultStore::open(&dir).unwrap();
    let n = 200u64;
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            for i in 0..n {
                store.save(some_key(100 + i), "raced", &some_stats(i)).unwrap();
            }
        });
        // Hammer gc (default grace) the whole time the writer runs.
        while !writer.is_finished() {
            store.gc().unwrap();
        }
        writer.join().unwrap();
    });
    assert_eq!(store.len().unwrap(), n as usize, "every racing publish survived gc");
    for i in 0..n {
        assert_eq!(store.load(some_key(100 + i)), Some(some_stats(i)), "record {i}");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn poison_round_trips_and_gc_clears_it() {
    let dir = scratch("poison");
    let store = ResultStore::open(&dir).unwrap();
    let rec = vr_campaign::PoisonRecord {
        key: some_key(30),
        label: "kangaroo/none".into(),
        error: "wall-clock deadline expired (twice)".into(),
        attempts: 3,
        deadline_trips: 2,
    };
    assert!(store.load_poison(rec.key).is_none());
    store.poison(&rec).unwrap();
    assert!(store.load_poison(rec.key).is_some());
    assert_eq!(store.load_poison(rec.key), Some(rec.clone()), "poison round-trips exactly");
    assert_eq!(store.poison_list().unwrap(), vec![rec.clone()]);

    // Poison is deliberate state: verify counts it but stays clean.
    let rep = store.verify().unwrap();
    assert_eq!(rep.poisoned, 1);
    assert!(rep.clean());

    // gc is the retry lever: it clears poison, the point runs again.
    let gc = store.gc().unwrap();
    assert_eq!(gc.poison_removed, 1);
    assert!(store.load_poison(rec.key).is_none());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_poison_is_quarantined_and_the_point_runs_again() {
    let dir = scratch("poison-corrupt");
    let store = ResultStore::open(&dir).unwrap();
    let rec = vr_campaign::PoisonRecord {
        key: some_key(31),
        label: "p".into(),
        error: "e".into(),
        attempts: 1,
        deadline_trips: 0,
    };
    store.poison(&rec).unwrap();
    let path = dir.join("poison").join(format!("{}.json", rec.key.hex()));
    fs::write(&path, "{ definitely not a poison record").unwrap();
    assert!(store.load_poison(rec.key).is_none(), "corrupt poison must not mask the point");
    assert!(!path.exists(), "corrupt poison record moved aside");
    assert_eq!(store.quarantine_backlog().unwrap(), 1);

    // Stale-salt poison (from an older code version) is also ignored,
    // but left in place for gc rather than quarantined.
    store.poison(&rec).unwrap();
    let text = fs::read_to_string(&path).unwrap();
    let old =
        text.replace(&format!("\"salt\": {CODE_SALT}"), &format!("\"salt\": {}", CODE_SALT + 7));
    assert_ne!(old, text);
    fs::write(&path, old).unwrap();
    assert!(store.load_poison(rec.key).is_none());
    assert!(path.exists(), "stale poison is left for gc");
    assert_eq!(store.gc().unwrap().poison_removed, 1);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_poison_record_outside_the_envelope_is_quarantined_once() {
    // The flat shape earlier versions wrote: no checksum, no payload.
    let dir = scratch("poison-flat");
    let store = ResultStore::open(&dir).unwrap();
    let key = some_key(32);
    let path = dir.join("poison").join(format!("{}.json", key.hex()));
    let flat = format!(
        "{{\"schema\": \"vr-campaign-v1\", \"kind\": \"poison\", \"key\": \"{}\", \
         \"salt\": {CODE_SALT}, \"label\": \"p\", \"error\": \"e\", \"attempts\": 1, \
         \"deadline_trips\": 0}}",
        key.hex()
    );
    fs::write(&path, flat).unwrap();
    assert!(store.load_poison(key).is_none(), "the point is runnable again");
    assert!(!path.exists());
    assert!(store.load_poison(key).is_none());
    assert_eq!(store.counters().quarantined, 1, "quarantined once, then simply absent");
    fs::remove_dir_all(&dir).ok();
}

/// A record nested past the reader's depth bound is corrupt: a miss
/// that lands in quarantine. Read on a thread with the stack a
/// `vr_pool::map` worker gets (2 MiB), where an unbounded recursive
/// descent over 100 000 `[` overflows the stack and aborts the process.
#[test]
fn a_deeply_nested_record_is_a_quarantined_miss() {
    let dir = scratch("nested");
    let store = ResultStore::open(&dir).unwrap();
    let k = some_key(7);
    let path = record_path(&store, k);
    fs::write(&path, "[".repeat(100_000)).unwrap();
    let loaded = std::thread::scope(|s| {
        let worker = std::thread::Builder::new().stack_size(2 << 20);
        worker.spawn_scoped(s, || store.load(k)).unwrap().join().unwrap()
    });
    assert_eq!(loaded, None, "a nested record must miss");
    assert!(!path.exists(), "a nested record must quarantine");
    let c = store.counters();
    assert_eq!((c.hits, c.misses, c.quarantined), (0, 1, 1));
    assert_eq!(store.quarantine_backlog().unwrap(), 1);
    fs::remove_dir_all(&dir).ok();
}

/// A counter spelled with a leading zero is not JSON. The record reads
/// the same numbers and its checksum still matches, so only the
/// reader's grammar tells it apart: a miss that lands in quarantine,
/// never a hit.
#[test]
fn a_counter_with_a_leading_zero_is_quarantined_not_served() {
    let dir = scratch("leading-zero");
    let store = ResultStore::open(&dir).unwrap();
    let (k, s) = (some_key(8), some_stats(7));
    store.save(k, "p", &s).unwrap();
    let path =
        rewrite(&store, k, |t| t.replace("\"instructions\": 7,", "\"instructions\": 07,"), "07");
    assert_eq!(store.load(k), None, "a record read loosely would be served");
    assert!(!path.exists(), "the record must quarantine");
    let c = store.counters();
    assert_eq!((c.hits, c.misses, c.quarantined), (0, 1, 1));
    fs::remove_dir_all(&dir).ok();
}

/// `PointKey::hex` writes a key as 16 lowercase digits, and `load`
/// opens only that name. A record filed under another spelling of its
/// key (upper case, a leading `+`) would never be served, so `verify`
/// must not count it `ok` (and `gc` keep it forever): it quarantines.
#[test]
fn a_record_under_a_misspelled_key_is_quarantined_not_counted() {
    let k = PointKey(0x0123_4567_89ab_cdef);
    for name in ["0123456789ABCDEF.json", "+123456789abcdef.json"] {
        let dir = scratch("key-spelling");
        let store = ResultStore::open(&dir).unwrap();
        store.save(k, "p", &some_stats(3)).unwrap();
        let misspelled = store.records_dir().join(name);
        fs::rename(record_path(&store, k), &misspelled).unwrap();

        let rep = store.verify().unwrap();
        assert_eq!((rep.ok, rep.quarantined), (0, 1), "{name}: {rep:?}");
        assert!(!misspelled.exists(), "{name} must quarantine");
        assert_eq!(store.load(k), None, "{name}");
        assert_eq!(store.counters().hits, 0, "{name}");
        fs::remove_dir_all(&dir).ok();
    }
}

/// The same for the key a record embeds: spelled in upper case under
/// the right file name, the record is corrupt, not a hit.
#[test]
fn a_record_embedding_a_misspelled_key_is_quarantined_not_served() {
    let dir = scratch("embedded-key-spelling");
    let store = ResultStore::open(&dir).unwrap();
    let k = PointKey(0x0123_4567_89ab_cdef);
    store.save(k, "p", &some_stats(3)).unwrap();
    let path = rewrite(
        &store,
        k,
        |t| t.replace("\"0123456789abcdef\"", "\"0123456789ABCDEF\""),
        "upper-case key",
    );
    assert_eq!(store.load(k), None);
    assert!(!path.exists(), "the record must quarantine");
    let c = store.counters();
    assert_eq!((c.hits, c.misses, c.quarantined), (0, 1, 1));
    fs::remove_dir_all(&dir).ok();
}
