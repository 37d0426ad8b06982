//! The on-disk content-addressed result store.
//!
//! Layout under the store root (`--cache DIR`):
//!
//! ```text
//! DIR/
//!   records/<key-hex16>.json   one simulation result per point key
//!   chip/<key-hex16>.json      chip-level contention counters of one
//!                              multi-core point (its per-core stats
//!                              are ordinary records under derived
//!                              keys — see `crate::chip`)
//!   poison/<key-hex16>.json    structured failure records for points
//!                              the campaign supervisor gave up on
//!   quarantine/<name>.<nanos>  records that failed validation
//! ```
//!
//! **Crash consistency.** A record is written to a unique temp file in
//! `records/` and published with [`std::fs::rename`] — atomic on every
//! POSIX filesystem — so a reader (including a concurrent process)
//! sees either no record or a complete one, never a torn write. A
//! process killed mid-campaign (SIGTERM, SIGKILL, OOM) therefore
//! leaves the store consistent: finished points are durable, the
//! in-flight point at most leaves a `.tmp-*` file that [`ResultStore::gc`]
//! reclaims. Temp-file reclamation is **age-gated** (default
//! [`TMP_GC_GRACE`]): a `gc` running beside a live writer must not
//! delete the temp file that writer is about to rename.
//!
//! **Corruption policy.** Every load fully validates the record:
//! schema tag, embedded key vs filename, code-version salt, payload
//! checksum, and a strict field-exhaustive stats parse. Salt mismatch
//! means *stale* (a legitimate record from an older simulator) — it is
//! treated as a miss and left for `gc`. Everything else means
//! *corrupt* — the record is moved into `quarantine/` (never deleted:
//! the bytes may matter for diagnosis) and the point is recomputed.
//! No store problem ever panics the caller; the worst case is a cache
//! miss.
//!
//! **Poison records.** When the campaign supervisor declares a point
//! unrunnable (a deterministic error, repeated deadline trips) it writes a
//! [`PoisonRecord`] under `poison/` through the same atomic publish
//! protocol and the same validation policy (corrupt poison records are
//! quarantined, stale-salt ones ignored). A poisoned point is skipped
//! on re-runs — the campaign *degrades* instead of wedging on a
//! permanently failing point — and `gc` clears poison records, which
//! is the deliberate "retry everything" lever.
//!
//! **Fault injection.** With the `chaos` cargo feature, every
//! filesystem operation above can be routed through a seeded
//! [`crate::chaos::FaultFs`] ([`ResultStore::open_with_chaos`]); the
//! production build compiles to plain `std::fs` calls.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use vr_chip::ChipStats;
use vr_core::SimStats;
use vr_obs::{Fnv64, Json, CAMPAIGN_SCHEMA, CHIPSTORE_SCHEMA, RESULTSTORE_SCHEMA};

use crate::fingerprint::{PointKey, CODE_SALT};
use crate::serial::{chip_stats_from_json, chip_stats_to_json, stats_from_json, stats_to_json};

/// Minimum age a `.tmp-*` file must reach before a default
/// [`ResultStore::gc`] reclaims it. A temp file younger than this may
/// belong to a writer that is alive *right now*, about to publish;
/// deleting it would fail that writer's rename and lose a finished
/// simulation. Sixty seconds dwarfs any write-to-rename window while
/// still reclaiming genuinely orphaned files on the next maintenance
/// pass. Use [`ResultStore::gc_with_tmp_age`] with [`Duration::ZERO`]
/// when the store is known quiescent (e.g. recovering after a kill).
pub const TMP_GC_GRACE: Duration = Duration::from_secs(60);

/// Monotonic discriminator making concurrent temp-file names unique
/// within a process (the name also carries the pid for cross-process
/// uniqueness).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Why a load did not produce a result (beyond a simple absence).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RecordFault {
    /// Valid record from an older code version (salt mismatch).
    Stale,
    /// Unparseable / checksum-mismatched / wrong-key record.
    Corrupt,
}

/// Point-in-time snapshot of the store's session counters.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct StoreCounters {
    /// Loads that returned a validated record.
    pub hits: u64,
    /// Loads that found no record (and will trigger a computation).
    pub misses: u64,
    /// Loads/verifies that found a stale-salt record.
    pub stale: u64,
    /// Loads/verifies that quarantined a corrupt record.
    pub quarantined: u64,
    /// Records written (published via atomic rename).
    pub writes: u64,
}

/// Result of a full [`ResultStore::verify`] pass.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct VerifyReport {
    /// Records that validated end-to-end.
    pub ok: u64,
    /// Valid records with an old code-version salt.
    pub stale: u64,
    /// Corrupt records moved to quarantine by this pass.
    pub quarantined: u64,
    /// Orphaned temp files from an interrupted writer.
    pub tmp_files: u64,
    /// Files already sitting in quarantine.
    pub quarantine_backlog: u64,
    /// Valid poison records (points the supervisor gave up on).
    pub poisoned: u64,
}

impl VerifyReport {
    /// True when the store contains nothing but valid current records.
    /// Poison records do not dirty the store: they are deliberate,
    /// validated state, not damage.
    pub fn clean(&self) -> bool {
        self.stale == 0 && self.quarantined == 0 && self.tmp_files == 0
    }
}

/// Result of a [`ResultStore::gc`] pass.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct GcReport {
    /// Stale-salt records removed.
    pub stale_removed: u64,
    /// Corrupt records removed (quarantined first, then reclaimed).
    pub corrupt_removed: u64,
    /// Orphaned temp files removed.
    pub tmp_removed: u64,
    /// Temp files kept because they are younger than the age gate
    /// (possibly a live writer's).
    pub tmp_kept: u64,
    /// Quarantined files removed.
    pub quarantine_removed: u64,
    /// Poison records removed (those points become runnable again).
    pub poison_removed: u64,
    /// Valid current records kept.
    pub kept: u64,
}

/// A structured failure record for a point the campaign supervisor
/// declared unrunnable. Persisted under `poison/` so re-runs skip the
/// point instead of reproducing the same verdict; cleared by
/// [`ResultStore::gc`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PoisonRecord {
    /// The point's content-address.
    pub key: PointKey,
    /// Human-readable point label (workload / config).
    pub label: String,
    /// Rendering of the last error the point produced.
    pub error: String,
    /// Execution attempts consumed before giving up (one more than the
    /// deadline trips that were retried).
    pub attempts: u32,
    /// How many of those attempts were killed by the wall-clock
    /// deadline.
    pub deadline_trips: u32,
}

/// The content-addressed result store. All methods take `&self`:
/// counters are atomic and every filesystem mutation is a
/// single-syscall atomic publish (rename) or removal, so one store
/// handle is shared freely across sweep workers.
#[derive(Debug)]
pub struct ResultStore {
    records: PathBuf,
    chip: PathBuf,
    poison: PathBuf,
    quarantine: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    quarantined: AtomicU64,
    writes: AtomicU64,
    #[cfg(feature = "chaos")]
    chaos: Option<crate::chaos::FaultFs>,
}

impl ResultStore {
    /// Opens (creating if necessary) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directories cannot be
    /// created.
    pub fn open(root: &Path) -> io::Result<ResultStore> {
        let records = root.join("records");
        let chip = root.join("chip");
        let poison = root.join("poison");
        let quarantine = root.join("quarantine");
        fs::create_dir_all(&records)?;
        fs::create_dir_all(&chip)?;
        fs::create_dir_all(&poison)?;
        fs::create_dir_all(&quarantine)?;
        Ok(ResultStore {
            records,
            chip,
            poison,
            quarantine,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            #[cfg(feature = "chaos")]
            chaos: None,
        })
    }

    /// Opens the store with every filesystem operation routed through
    /// a seeded fault injector (`chaos` feature only — test builds).
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directories cannot be
    /// created.
    #[cfg(feature = "chaos")]
    pub fn open_with_chaos(root: &Path, cfg: crate::chaos::ChaosConfig) -> io::Result<ResultStore> {
        let mut store = ResultStore::open(root)?;
        store.chaos = Some(crate::chaos::FaultFs::new(cfg));
        Ok(store)
    }

    /// What the fault injector did so far (`None` if this store was
    /// opened without chaos).
    #[cfg(feature = "chaos")]
    pub fn chaos_counters(&self) -> Option<crate::chaos::ChaosCounters> {
        self.chaos.as_ref().map(crate::chaos::FaultFs::counters)
    }

    // ---- the I/O seam ------------------------------------------------
    // Every filesystem touch below goes through these four helpers, so
    // the chaos feature injects faults at exactly the syscalls the
    // durability argument is about. Without the feature they compile
    // to the plain `std::fs` calls.

    fn io_read(&self, path: &Path) -> io::Result<String> {
        #[cfg(feature = "chaos")]
        if let Some(c) = &self.chaos {
            return c.read_to_string(path);
        }
        fs::read_to_string(path)
    }

    fn io_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        #[cfg(feature = "chaos")]
        if let Some(c) = &self.chaos {
            return c.write(path, bytes);
        }
        fs::write(path, bytes)
    }

    fn io_rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        #[cfg(feature = "chaos")]
        if let Some(c) = &self.chaos {
            return c.rename(from, to);
        }
        fs::rename(from, to)
    }

    fn io_remove(&self, path: &Path) -> io::Result<()> {
        #[cfg(feature = "chaos")]
        if let Some(c) = &self.chaos {
            return c.remove_file(path);
        }
        fs::remove_file(path)
    }

    /// The directory holding record files.
    pub fn records_dir(&self) -> &Path {
        &self.records
    }

    fn record_path(&self, key: PointKey) -> PathBuf {
        self.records.join(format!("{}.json", key.hex()))
    }

    fn chip_path(&self, key: PointKey) -> PathBuf {
        self.chip.join(format!("{}.json", key.hex()))
    }

    fn poison_path(&self, key: PointKey) -> PathBuf {
        self.poison.join(format!("{}.json", key.hex()))
    }

    fn tmp_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!(".tmp-{}-{}", std::process::id(), TMP_SEQ.fetch_add(1, Ordering::Relaxed)))
    }

    /// Writes `bytes` into `dir/name` via the atomic temp-file +
    /// rename protocol, never leaving the temp file behind on a failed
    /// publish.
    fn publish(&self, dir: &Path, name: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.tmp_path(dir);
        self.io_write(&tmp, bytes)?;
        let published = self.io_rename(&tmp, name);
        if published.is_err() {
            let _ = self.io_remove(&tmp);
        }
        published
    }

    /// Loads and fully validates the record for `key`. `None` is a
    /// miss — absent, stale, or quarantined-just-now (see the module
    /// docs for the policy). Never panics on store contents.
    pub fn load(&self, key: PointKey) -> Option<SimStats> {
        let path = self.record_path(key);
        let text = match self.io_read(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                // Unreadable is indistinguishable from corrupt.
                self.quarantine_record(&path);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match validate_record(&text, Some(key)) {
            Ok(stats) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(stats)
            }
            Err(RecordFault::Stale) => {
                self.stale.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(RecordFault::Corrupt) => {
                self.quarantine_record(&path);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether a record file exists for `key` (existence only — no
    /// validation; `campaign status` uses this as a cheap census and
    /// leaves full validation to `verify`).
    pub fn contains(&self, key: PointKey) -> bool {
        self.record_path(key).exists()
    }

    /// Persists `stats` for `key` via the atomic temp-file + rename
    /// protocol.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (callers treat a failed save
    /// as "result not cached", never as a failed computation).
    pub fn save(&self, key: PointKey, label: &str, stats: &SimStats) -> io::Result<()> {
        let payload = stats_to_json(stats);
        let checksum = payload_checksum(&payload);
        let record = Json::Obj(vec![
            ("schema".into(), Json::from(RESULTSTORE_SCHEMA)),
            ("key".into(), Json::from(key.hex())),
            ("salt".into(), Json::U64(CODE_SALT)),
            ("label".into(), Json::from(label)),
            ("checksum".into(), Json::from(checksum)),
            ("stats".into(), payload),
        ]);
        self.publish(&self.records, &self.record_path(key), record.to_pretty().as_bytes())?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Loads and fully validates the chip-level record for `key` —
    /// same policy as [`ResultStore::load`] (absent/stale = miss,
    /// corrupt = quarantine + miss), same session counters.
    pub fn load_chip(&self, key: PointKey) -> Option<ChipStats> {
        let path = self.chip_path(key);
        let text = match self.io_read(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                self.quarantine_record(&path);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match validate_chip(&text, Some(key)) {
            Ok(stats) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(stats)
            }
            Err(RecordFault::Stale) => {
                self.stale.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(RecordFault::Corrupt) => {
                self.quarantine_record(&path);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether a chip-level record file exists for `key` (existence
    /// only, like [`ResultStore::contains`]).
    pub fn contains_chip(&self, key: PointKey) -> bool {
        self.chip_path(key).exists()
    }

    /// Persists the chip-level counters for `key` under `chip/` via
    /// the same atomic temp-file + rename protocol as
    /// [`ResultStore::save`].
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (callers treat a failed save
    /// as "result not cached").
    pub fn save_chip(&self, key: PointKey, label: &str, stats: &ChipStats) -> io::Result<()> {
        let payload = chip_stats_to_json(stats);
        let checksum = payload_checksum(&payload);
        let record = Json::Obj(vec![
            ("schema".into(), Json::from(CHIPSTORE_SCHEMA)),
            ("key".into(), Json::from(key.hex())),
            ("salt".into(), Json::U64(CODE_SALT)),
            ("label".into(), Json::from(label)),
            ("checksum".into(), Json::from(checksum)),
            ("stats".into(), payload),
        ]);
        self.publish(&self.chip, &self.chip_path(key), record.to_pretty().as_bytes())?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Persists a poison record for `rec.key`: the point is declared
    /// unrunnable and re-runs will skip it (until `gc` clears the
    /// record). Same atomic publish protocol as [`ResultStore::save`].
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (callers degrade to an
    /// unpersisted in-memory failure — the campaign still finishes).
    pub fn poison(&self, rec: &PoisonRecord) -> io::Result<()> {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::from(CAMPAIGN_SCHEMA)),
            ("kind".into(), Json::from("poison")),
            ("key".into(), Json::from(rec.key.hex())),
            ("salt".into(), Json::U64(CODE_SALT)),
            ("label".into(), Json::from(rec.label.as_str())),
            ("error".into(), Json::from(rec.error.as_str())),
            ("attempts".into(), Json::U64(u64::from(rec.attempts))),
            ("deadline_trips".into(), Json::U64(u64::from(rec.deadline_trips))),
        ]);
        self.publish(&self.poison, &self.poison_path(rec.key), doc.to_pretty().as_bytes())
    }

    /// Loads and validates the poison record for `key`, if any.
    /// Corrupt poison records are quarantined (and the point becomes
    /// runnable again); stale-salt ones are ignored and left for `gc`
    /// — poison from an old code version must not mask a point the
    /// current code might compute fine.
    pub fn load_poison(&self, key: PointKey) -> Option<PoisonRecord> {
        let path = self.poison_path(key);
        let text = match self.io_read(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(_) => {
                self.quarantine_record(&path);
                return None;
            }
        };
        match validate_poison(&text, Some(key)) {
            Ok(rec) => Some(rec),
            Err(RecordFault::Stale) => None,
            Err(RecordFault::Corrupt) => {
                self.quarantine_record(&path);
                None
            }
        }
    }

    /// Whether `key` has a valid poison record (the campaign skips
    /// such points).
    pub fn is_poisoned(&self, key: PointKey) -> bool {
        self.load_poison(key).is_some()
    }

    /// Every valid poison record, in deterministic (key-name) order.
    ///
    /// # Errors
    ///
    /// Returns the underlying error only if the poison directory
    /// cannot be listed; unreadable or invalid records are skipped
    /// (and quarantined where the policy says so).
    pub fn poison_list(&self) -> io::Result<Vec<PoisonRecord>> {
        let mut out = Vec::new();
        for entry in sorted_entries(&self.poison)? {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(".tmp-") {
                continue;
            }
            let Some(key) = name.strip_suffix(".json").and_then(PointKey::from_hex) else {
                continue;
            };
            if let Some(rec) = self.load_poison(key) {
                out.push(rec);
            }
        }
        Ok(out)
    }

    /// Number of files sitting in `quarantine/`. Stable across
    /// repeated `verify` passes: verify only *adds* to quarantine when
    /// it finds new corruption, so two consecutive passes over an
    /// unchanged store report the same backlog.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the quarantine directory cannot
    /// be listed.
    pub fn quarantine_backlog(&self) -> io::Result<u64> {
        Ok(sorted_entries(&self.quarantine)?.len() as u64)
    }

    /// Full-store validation sweep: every record is parsed and
    /// checked; corrupt ones are quarantined as a side effect (the
    /// maintenance counterpart of the per-load checks). Poison records
    /// get the same treatment and are counted separately.
    ///
    /// # Errors
    ///
    /// Returns the underlying error only if the store directories
    /// cannot be listed; per-record problems are counted, not raised.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut rep = VerifyReport::default();
        for entry in sorted_entries(&self.records)? {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(".tmp-") {
                rep.tmp_files += 1;
                continue;
            }
            let key = name.strip_suffix(".json").and_then(PointKey::from_hex);
            let outcome =
                self.io_read(&entry.path()).map_err(|_| RecordFault::Corrupt).and_then(|text| {
                    match key {
                        Some(k) => validate_record(&text, Some(k)).map(|_| ()),
                        // A record file not even named by a key is corrupt
                        // by construction.
                        None => Err(RecordFault::Corrupt),
                    }
                });
            match outcome {
                Ok(()) => rep.ok += 1,
                Err(RecordFault::Stale) => {
                    self.stale.fetch_add(1, Ordering::Relaxed);
                    rep.stale += 1;
                }
                Err(RecordFault::Corrupt) => {
                    self.quarantine_record(&entry.path());
                    rep.quarantined += 1;
                }
            }
        }
        for entry in sorted_entries(&self.chip)? {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(".tmp-") {
                rep.tmp_files += 1;
                continue;
            }
            let key = name.strip_suffix(".json").and_then(PointKey::from_hex);
            let outcome =
                self.io_read(&entry.path()).map_err(|_| RecordFault::Corrupt).and_then(|text| {
                    match key {
                        Some(k) => validate_chip(&text, Some(k)).map(|_| ()),
                        None => Err(RecordFault::Corrupt),
                    }
                });
            match outcome {
                Ok(()) => rep.ok += 1,
                Err(RecordFault::Stale) => {
                    self.stale.fetch_add(1, Ordering::Relaxed);
                    rep.stale += 1;
                }
                Err(RecordFault::Corrupt) => {
                    self.quarantine_record(&entry.path());
                    rep.quarantined += 1;
                }
            }
        }
        for entry in sorted_entries(&self.poison)? {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(".tmp-") {
                rep.tmp_files += 1;
                continue;
            }
            let key = name.strip_suffix(".json").and_then(PointKey::from_hex);
            let outcome =
                self.io_read(&entry.path()).map_err(|_| RecordFault::Corrupt).and_then(|text| {
                    match key {
                        Some(k) => validate_poison(&text, Some(k)).map(|_| ()),
                        None => Err(RecordFault::Corrupt),
                    }
                });
            match outcome {
                Ok(()) => rep.poisoned += 1,
                Err(RecordFault::Stale) => {
                    self.stale.fetch_add(1, Ordering::Relaxed);
                    rep.stale += 1;
                }
                Err(RecordFault::Corrupt) => {
                    self.quarantine_record(&entry.path());
                    rep.quarantined += 1;
                }
            }
        }
        rep.quarantine_backlog = self.quarantine_backlog()?;
        Ok(rep)
    }

    /// Reclaims everything that is not a valid current record —
    /// stale-salt records, corrupt records, orphaned temp files past
    /// the [`TMP_GC_GRACE`] age gate, the quarantine backlog — **and**
    /// all poison records (running `gc` is the deliberate way to make
    /// poisoned points runnable again).
    ///
    /// # Errors
    ///
    /// Returns the underlying error only if the store directories
    /// cannot be listed.
    pub fn gc(&self) -> io::Result<GcReport> {
        self.gc_with_tmp_age(TMP_GC_GRACE)
    }

    /// [`ResultStore::gc`] with an explicit temp-file age gate: temp
    /// files younger than `min_tmp_age` are kept (a live writer may be
    /// about to publish them). Pass [`Duration::ZERO`] when the store
    /// is known quiescent, e.g. when recovering right after a killed
    /// campaign.
    ///
    /// # Errors
    ///
    /// Returns the underlying error only if the store directories
    /// cannot be listed.
    pub fn gc_with_tmp_age(&self, min_tmp_age: Duration) -> io::Result<GcReport> {
        let mut rep = GcReport::default();
        for entry in sorted_entries(&self.records)? {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(".tmp-") {
                if tmp_older_than(&entry, min_tmp_age) {
                    if self.io_remove(&entry.path()).is_ok() {
                        rep.tmp_removed += 1;
                    }
                } else {
                    rep.tmp_kept += 1;
                }
                continue;
            }
            let key = name.strip_suffix(".json").and_then(PointKey::from_hex);
            let outcome =
                self.io_read(&entry.path()).map_err(|_| RecordFault::Corrupt).and_then(|text| {
                    match key {
                        Some(k) => validate_record(&text, Some(k)).map(|_| ()),
                        None => Err(RecordFault::Corrupt),
                    }
                });
            match outcome {
                Ok(()) => rep.kept += 1,
                Err(RecordFault::Stale) => {
                    if self.io_remove(&entry.path()).is_ok() {
                        rep.stale_removed += 1;
                    }
                }
                Err(RecordFault::Corrupt) => {
                    if self.io_remove(&entry.path()).is_ok() {
                        rep.corrupt_removed += 1;
                    }
                }
            }
        }
        for entry in sorted_entries(&self.chip)? {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(".tmp-") {
                if tmp_older_than(&entry, min_tmp_age) {
                    if self.io_remove(&entry.path()).is_ok() {
                        rep.tmp_removed += 1;
                    }
                } else {
                    rep.tmp_kept += 1;
                }
                continue;
            }
            let key = name.strip_suffix(".json").and_then(PointKey::from_hex);
            let outcome =
                self.io_read(&entry.path()).map_err(|_| RecordFault::Corrupt).and_then(|text| {
                    match key {
                        Some(k) => validate_chip(&text, Some(k)).map(|_| ()),
                        None => Err(RecordFault::Corrupt),
                    }
                });
            match outcome {
                Ok(()) => rep.kept += 1,
                Err(RecordFault::Stale) => {
                    if self.io_remove(&entry.path()).is_ok() {
                        rep.stale_removed += 1;
                    }
                }
                Err(RecordFault::Corrupt) => {
                    if self.io_remove(&entry.path()).is_ok() {
                        rep.corrupt_removed += 1;
                    }
                }
            }
        }
        for entry in sorted_entries(&self.poison)? {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(".tmp-") && !tmp_older_than(&entry, min_tmp_age) {
                rep.tmp_kept += 1;
                continue;
            }
            if self.io_remove(&entry.path()).is_ok() {
                rep.poison_removed += 1;
            }
        }
        for entry in sorted_entries(&self.quarantine)? {
            if self.io_remove(&entry.path()).is_ok() {
                rep.quarantine_removed += 1;
            }
        }
        Ok(rep)
    }

    /// Number of record files currently published (cheap census; does
    /// not validate).
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the records directory cannot be
    /// listed.
    pub fn len(&self) -> io::Result<usize> {
        Ok(sorted_entries(&self.records)?
            .iter()
            .filter(|e| !e.file_name().to_string_lossy().starts_with(".tmp-"))
            .count())
    }

    /// Whether the store holds no records.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the records directory cannot be
    /// listed.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Snapshot of the session counters (hits/misses/… since `open`).
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    /// Moves a failed record into `quarantine/` (unique suffix so
    /// repeated corruption never collides). Best-effort: on rename
    /// failure the record is deleted instead, and if even that fails
    /// the store degrades to treating the key as a permanent miss.
    fn quarantine_record(&self, path: &Path) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let name = path.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned());
        let nanos = std::time::UNIX_EPOCH
            .elapsed()
            .map_or(0, |d| d.as_nanos() as u64)
            .wrapping_add(TMP_SEQ.fetch_add(1, Ordering::Relaxed));
        let dest = self.quarantine.join(format!("{name}.{nanos:016x}"));
        if self.io_rename(path, &dest).is_err() {
            let _ = self.io_remove(path);
        }
    }
}

/// Whether a temp file is old enough to reclaim. Unknown age (no
/// metadata, mtime in the future) counts as *young* — when in doubt,
/// keep the file; the next pass gets it.
fn tmp_older_than(entry: &fs::DirEntry, min_age: Duration) -> bool {
    if min_age.is_zero() {
        return true;
    }
    entry
        .metadata()
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.elapsed().ok())
        .is_some_and(|age| age >= min_age)
}

/// Checksum of the serialized stats payload: FNV-1a over the
/// *compact* rendering (whitespace-independent, so the pretty record
/// layout may change without invalidating checksums).
fn payload_checksum(payload: &Json) -> String {
    let mut h = Fnv64::new();
    h.write_bytes(payload.to_string().as_bytes());
    format!("{:016x}", h.finish())
}

/// Full record validation. `expect_key` is the key implied by the
/// filename; `None` skips the filename cross-check (not used today,
/// but keeps the signature honest about what is being checked).
fn validate_record(text: &str, expect_key: Option<PointKey>) -> Result<SimStats, RecordFault> {
    let doc = Json::parse(text).map_err(|_| RecordFault::Corrupt)?;
    if doc.get("schema").and_then(Json::as_str) != Some(RESULTSTORE_SCHEMA) {
        return Err(RecordFault::Corrupt);
    }
    let embedded = doc
        .get("key")
        .and_then(Json::as_str)
        .and_then(PointKey::from_hex)
        .ok_or(RecordFault::Corrupt)?;
    if let Some(k) = expect_key {
        if embedded != k {
            return Err(RecordFault::Corrupt);
        }
    }
    let payload = doc.get("stats").ok_or(RecordFault::Corrupt)?;
    let checksum = doc.get("checksum").and_then(Json::as_str).ok_or(RecordFault::Corrupt)?;
    if checksum != payload_checksum(payload) {
        return Err(RecordFault::Corrupt);
    }
    let stats = stats_from_json(payload).map_err(|_| RecordFault::Corrupt)?;
    // Salt last: a record must be *well-formed* to be merely stale —
    // a garbled record with a garbled salt is corrupt, not stale.
    match doc.get("salt").and_then(Json::as_u64) {
        Some(CODE_SALT) => Ok(stats),
        Some(_) => Err(RecordFault::Stale),
        None => Err(RecordFault::Corrupt),
    }
}

/// Chip-record validation, mirroring [`validate_record`]'s policy
/// (including salt-last) under the [`CHIPSTORE_SCHEMA`] tag.
fn validate_chip(text: &str, expect_key: Option<PointKey>) -> Result<ChipStats, RecordFault> {
    let doc = Json::parse(text).map_err(|_| RecordFault::Corrupt)?;
    if doc.get("schema").and_then(Json::as_str) != Some(CHIPSTORE_SCHEMA) {
        return Err(RecordFault::Corrupt);
    }
    let embedded = doc
        .get("key")
        .and_then(Json::as_str)
        .and_then(PointKey::from_hex)
        .ok_or(RecordFault::Corrupt)?;
    if let Some(k) = expect_key {
        if embedded != k {
            return Err(RecordFault::Corrupt);
        }
    }
    let payload = doc.get("stats").ok_or(RecordFault::Corrupt)?;
    let checksum = doc.get("checksum").and_then(Json::as_str).ok_or(RecordFault::Corrupt)?;
    if checksum != payload_checksum(payload) {
        return Err(RecordFault::Corrupt);
    }
    let stats = chip_stats_from_json(payload).map_err(|_| RecordFault::Corrupt)?;
    // Salt last, as in `validate_record`.
    match doc.get("salt").and_then(Json::as_u64) {
        Some(CODE_SALT) => Ok(stats),
        Some(_) => Err(RecordFault::Stale),
        None => Err(RecordFault::Corrupt),
    }
}

/// Poison-record validation, mirroring [`validate_record`]'s policy
/// (including salt-last).
fn validate_poison(text: &str, expect_key: Option<PointKey>) -> Result<PoisonRecord, RecordFault> {
    let doc = Json::parse(text).map_err(|_| RecordFault::Corrupt)?;
    if doc.get("schema").and_then(Json::as_str) != Some(CAMPAIGN_SCHEMA)
        || doc.get("kind").and_then(Json::as_str) != Some("poison")
    {
        return Err(RecordFault::Corrupt);
    }
    let key = doc
        .get("key")
        .and_then(Json::as_str)
        .and_then(PointKey::from_hex)
        .ok_or(RecordFault::Corrupt)?;
    if let Some(k) = expect_key {
        if key != k {
            return Err(RecordFault::Corrupt);
        }
    }
    let label = doc.get("label").and_then(Json::as_str).ok_or(RecordFault::Corrupt)?;
    let error = doc.get("error").and_then(Json::as_str).ok_or(RecordFault::Corrupt)?;
    let attempts = doc
        .get("attempts")
        .and_then(Json::as_u64)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or(RecordFault::Corrupt)?;
    let deadline_trips = doc
        .get("deadline_trips")
        .and_then(Json::as_u64)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or(RecordFault::Corrupt)?;
    let rec =
        PoisonRecord { key, label: label.into(), error: error.into(), attempts, deadline_trips };
    match doc.get("salt").and_then(Json::as_u64) {
        Some(CODE_SALT) => Ok(rec),
        Some(_) => Err(RecordFault::Stale),
        None => Err(RecordFault::Corrupt),
    }
}

/// Directory entries in sorted name order (deterministic maintenance
/// reports regardless of filesystem enumeration order).
fn sorted_entries(dir: &Path) -> io::Result<Vec<fs::DirEntry>> {
    let mut v: Vec<fs::DirEntry> = fs::read_dir(dir)?.filter_map(Result::ok).collect();
    v.sort_by_key(fs::DirEntry::file_name);
    Ok(v)
}

/// Every published record of the store rooted at `root` as
/// `(file name, bytes)`, sorted by name — the byte-identity currency
/// of the convergence assertions (chaos recovery, concurrent
/// campaign runs): two stores are equivalent iff their snapshots are
/// equal. In-flight `.tmp-*` files are excluded (they are invisible to
/// readers by the atomic-publish contract).
///
/// # Errors
///
/// Propagates filesystem errors from enumerating or reading `records/`.
pub fn snapshot_records(root: &Path) -> io::Result<Vec<(String, Vec<u8>)>> {
    let mut v = Vec::new();
    for e in sorted_entries(&root.join("records"))? {
        let name = e.file_name().to_string_lossy().into_owned();
        if name.starts_with(".tmp-") {
            continue;
        }
        v.push((name, fs::read(e.path())?));
    }
    // Chip-level records participate in the identity with a "chip/"
    // prefix (never colliding with `records/` names). A store written
    // by a pre-chip code version simply has no such directory.
    match sorted_entries(&root.join("chip")) {
        Ok(entries) => {
            for e in entries {
                let name = e.file_name().to_string_lossy().into_owned();
                if name.starts_with(".tmp-") {
                    continue;
                }
                v.push((format!("chip/{name}"), fs::read(e.path())?));
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    Ok(v)
}
