//! The on-disk content-addressed result store.
//!
//! Layout under the store root (`--cache DIR`):
//!
//! ```text
//! DIR/
//!   records/<key-hex16>.json   one result per point key: a single-core
//!                              point's stats or a whole chip point's
//!                              run (see `crate::chip`)
//!   poison/<key-hex16>.json    the verdict on a point the campaign
//!                              supervisor gave up on
//!   quarantine/<name>.<nanos>  records that failed validation
//! ```
//!
//! **One envelope.** Every record is one JSON object with the fields
//! `schema`, `key`, `salt`, `label`, `checksum` and the payload, and the
//! `schema` tag names the payload's kind:
//!
//! * `vr-resultstore-v1` — a single-core point's `SimStats`;
//! * `vr-chipstore-v2` — a chip point's whole `ChipRun` (`per_core`
//!   stats plus the `chip` counters);
//! * `vr-campaign-v1` — a poison verdict (`error`, `attempts`,
//!   `deadline_trips`).
//!
//! The payload field is spelled `stats` for every kind, the name the
//! first scalar records used, so a scalar record is byte for byte what
//! earlier versions wrote. One private writer publishes every kind, one
//! private reader validates every kind, and one directory walk serves
//! `verify`, `gc` and [`snapshot_records`].
//!
//! **Crash consistency.** A record is written to a unique temp file in
//! its directory and published with [`std::fs::rename`] — atomic on
//! every POSIX filesystem — so a reader (including a concurrent
//! process) sees either no record or a complete one, never a torn
//! write. A process killed mid-campaign (SIGTERM, SIGKILL, OOM)
//! therefore leaves the store consistent: finished points are durable,
//! the in-flight point at most leaves a `.tmp-*` file that
//! [`ResultStore::gc`] reclaims. Temp-file reclamation is **age-gated**
//! (default [`TMP_GC_GRACE`]): a `gc` running beside a live writer must
//! not delete the temp file that writer is about to rename.
//!
//! **Corruption policy.** Every read fully validates the record: the
//! embedded key against the filename, the payload checksum, a strict
//! field-exhaustive parse of the payload by its tag (an unknown tag, or
//! a kind the caller did not ask for, is corrupt), and the code-version
//! salt last. Salt mismatch means *stale* (a legitimate record from an
//! older simulator) — it is treated as a miss and left for `gc`.
//! Everything else means *corrupt* — the record is moved into
//! `quarantine/` (never deleted: the bytes may matter for diagnosis)
//! and the point is recomputed. No store problem ever panics the
//! caller; the worst case is a cache miss.
//!
//! **Poison records.** When the campaign supervisor declares a point
//! unrunnable (a deterministic error, repeated deadline trips) it writes
//! a [`PoisonRecord`] under `poison/` through the same writer and reads
//! it back through the same reader (corrupt poison records are
//! quarantined, stale-salt ones ignored). A poisoned point is skipped on
//! re-runs — the campaign *degrades* instead of wedging on a permanently
//! failing point — and `gc` clears poison records, which is the
//! deliberate "retry everything" lever.
//!
//! **Fault injection.** With the `chaos` cargo feature, every
//! filesystem operation above can be routed through a seeded
//! `chaos::FaultFs` (`ResultStore::open_with_chaos`); the production
//! build compiles to plain `std::fs` calls.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use vr_chip::ChipRun;
use vr_core::SimStats;
use vr_obs::{Fnv64, Json, CAMPAIGN_SCHEMA, CHIPSTORE_SCHEMA, RESULTSTORE_SCHEMA};

use crate::fingerprint::{PointKey, CODE_SALT};
use crate::serial::{chip_run_from_json, chip_run_to_json, stats_from_json, stats_to_json};

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

/// Why a read did not produce a payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Fault {
    /// No file at the path.
    Absent,
    /// Valid record from an older code version (salt mismatch).
    Stale,
    /// Unreadable / unparseable / checksum-mismatched / wrong-key /
    /// wrong-kind record.
    Corrupt,
}

/// A validated record's payload, of the kind its schema tag names.
// Short-lived: every read unpacks it at once, and boxing the stats
// would put an allocation on every scalar load.
#[allow(clippy::large_enum_variant)]
enum Payload {
    Stats(SimStats),
    Chip(ChipRun),
    Poison(PoisonRecord),
}

/// What a read asks for; a record of any other kind is corrupt.
#[derive(Clone, Copy)]
enum Want {
    /// A single-core point's result (a cache lookup).
    Stats,
    /// A chip point's result with this many cores (a cache lookup).
    Chip(usize),
    /// Either result kind (a maintenance walk of `records/`).
    Result,
    /// A poison verdict.
    Poison,
}

/// Point-in-time snapshot of the store's session counters.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct StoreCounters {
    /// Loads that returned a validated record.
    pub hits: u64,
    /// Loads that found no record (and will trigger a computation).
    pub misses: u64,
    /// Reads (loads, poison checks, maintenance) that found a
    /// stale-salt record.
    pub stale: u64,
    /// Reads that quarantined a corrupt record.
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
    /// Corrupt records found by this pass (quarantined, then reclaimed
    /// with the quarantine backlog).
    pub corrupt_removed: u64,
    /// Orphaned temp files removed.
    pub tmp_removed: u64,
    /// Temp files kept because they are younger than the age gate
    /// (possibly a live writer's).
    pub tmp_kept: u64,
    /// Files removed from `quarantine/`, this pass's corrupt records
    /// included.
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
        let poison = root.join("poison");
        let quarantine = root.join("quarantine");
        for dir in [&records, &poison, &quarantine] {
            fs::create_dir_all(dir)?;
        }
        Ok(ResultStore {
            records,
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

    /// The directory holding result records.
    pub fn records_dir(&self) -> &Path {
        &self.records
    }

    /// The one writer: wraps `body` in the envelope under `schema` and
    /// publishes it as `key`'s record in `dir` — a unique temp file in
    /// `dir` renamed over the record, never left behind on a failed
    /// rename.
    fn write(
        &self,
        dir: &Path,
        key: PointKey,
        label: &str,
        schema: &str,
        body: Json,
    ) -> io::Result<()> {
        let record = Json::Obj(vec![
            ("schema".into(), Json::from(schema)),
            ("key".into(), Json::from(key.hex())),
            ("salt".into(), Json::U64(CODE_SALT)),
            ("label".into(), Json::from(label)),
            ("checksum".into(), Json::from(payload_checksum(&body))),
            ("stats".into(), body),
        ]);
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        self.io_write(&tmp, record.to_pretty().as_bytes())?;
        let published = self.io_rename(&tmp, &record_path(dir, key));
        if published.is_err() {
            let _ = self.io_remove(&tmp);
        }
        published?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The one reader: reads the record at `path`, validates it (see
    /// [`validate`]; `key` is the key its filename names, `None` for a
    /// misnamed file, which is corrupt) and settles the outcome — a
    /// lookup counts a hit or a miss, a stale record is counted and
    /// left for `gc`, a corrupt or unreadable one is quarantined.
    fn read(&self, path: &Path, key: Option<PointKey>, want: Want) -> Result<Payload, Fault> {
        let read = match self.io_read(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Err(Fault::Absent),
            // Unreadable is indistinguishable from corrupt.
            Err(_) => Err(Fault::Corrupt),
            Ok(text) => key.ok_or(Fault::Corrupt).and_then(|key| validate(&text, key, want)),
        };
        match read {
            Err(Fault::Stale) => {
                self.stale.fetch_add(1, Ordering::Relaxed);
            }
            Err(Fault::Corrupt) => self.quarantine_record(path),
            Ok(_) | Err(Fault::Absent) => {}
        }
        // Cache lookups count a hit or a miss; poison checks and
        // maintenance walks count neither.
        if matches!(want, Want::Stats | Want::Chip(_)) {
            let counter = if read.is_ok() { &self.hits } else { &self.misses };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        read
    }

    /// Loads and fully validates the single-core result for `key`.
    /// `None` is a miss — absent, stale, or quarantined-just-now (see
    /// the module docs for the policy). Never panics on store contents.
    pub fn load(&self, key: PointKey) -> Option<SimStats> {
        match self.read(&record_path(&self.records, key), Some(key), Want::Stats) {
            Ok(Payload::Stats(stats)) => Some(stats),
            _ => None,
        }
    }

    /// Loads and fully validates the chip result for `key`, which must
    /// hold exactly `cores` per-core stats (a record with any other
    /// count is corrupt). Same policy and counters as
    /// [`ResultStore::load`].
    pub fn load_chip(&self, key: PointKey, cores: usize) -> Option<ChipRun> {
        match self.read(&record_path(&self.records, key), Some(key), Want::Chip(cores)) {
            Ok(Payload::Chip(run)) => Some(run),
            _ => None,
        }
    }

    /// Whether a record file exists for `key`, of either result kind
    /// (existence only — no validation; `campaign status` uses this as
    /// a cheap census and leaves full validation to `verify`).
    pub fn contains(&self, key: PointKey) -> bool {
        record_path(&self.records, key).exists()
    }

    /// Persists `stats` for `key` via the atomic temp-file + rename
    /// protocol.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (callers treat a failed save
    /// as "result not cached", never as a failed computation).
    pub fn save(&self, key: PointKey, label: &str, stats: &SimStats) -> io::Result<()> {
        self.write(&self.records, key, label, RESULTSTORE_SCHEMA, stats_to_json(stats))
    }

    /// Persists a whole chip run for `key` as one record, the same way
    /// as [`ResultStore::save`].
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (callers treat a failed save
    /// as "result not cached").
    pub fn save_chip(&self, key: PointKey, label: &str, run: &ChipRun) -> io::Result<()> {
        self.write(&self.records, key, label, CHIPSTORE_SCHEMA, chip_run_to_json(run))
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
        let body = Json::Obj(vec![
            ("error".into(), Json::from(rec.error.as_str())),
            ("attempts".into(), Json::U64(u64::from(rec.attempts))),
            ("deadline_trips".into(), Json::U64(u64::from(rec.deadline_trips))),
        ]);
        self.write(&self.poison, rec.key, &rec.label, CAMPAIGN_SCHEMA, body)
    }

    /// Loads and validates the poison record for `key`, if any (the
    /// campaign skips points that have one). Corrupt poison records are quarantined (and the point becomes
    /// runnable again); stale-salt ones are ignored and left for `gc`
    /// — poison from an old code version must not mask a point the
    /// current code might compute fine.
    pub fn load_poison(&self, key: PointKey) -> Option<PoisonRecord> {
        match self.read(&record_path(&self.poison, key), Some(key), Want::Poison) {
            Ok(Payload::Poison(rec)) => Some(rec),
            _ => None,
        }
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
        for entry in walk(&self.poison, Duration::ZERO)? {
            if let Entry::Record { path, key, .. } = entry {
                if let Ok(Payload::Poison(rec)) = self.read(&path, key, Want::Poison) {
                    out.push(rec);
                }
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
        Ok(walk(&self.quarantine, Duration::ZERO)?.len() as u64)
    }

    /// Full-store validation sweep: every record, result or poison, is
    /// read through the validating reader, so corrupt ones are
    /// quarantined as a side effect (the maintenance counterpart of the
    /// per-load checks). Poison records are counted separately.
    ///
    /// # Errors
    ///
    /// Returns the underlying error only if the store directories
    /// cannot be listed; per-record problems are counted, not raised.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut rep = VerifyReport::default();
        for (dir, want) in [(&self.records, Want::Result), (&self.poison, Want::Poison)] {
            for entry in walk(dir, Duration::ZERO)? {
                let Entry::Record { path, key, .. } = entry else {
                    rep.tmp_files += 1;
                    continue;
                };
                match self.read(&path, key, want) {
                    Ok(Payload::Poison(_)) => rep.poisoned += 1,
                    Ok(_) => rep.ok += 1,
                    Err(Fault::Stale) => rep.stale += 1,
                    Err(Fault::Corrupt) => rep.quarantined += 1,
                    // Gone between the listing and the read (a
                    // concurrent gc): nothing left to judge.
                    Err(Fault::Absent) => {}
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
        for (dir, poison) in [(&self.records, false), (&self.poison, true)] {
            for entry in walk(dir, min_tmp_age)? {
                let (path, removed) = match entry {
                    Entry::Tmp { aged: false, .. } => {
                        rep.tmp_kept += 1;
                        continue;
                    }
                    Entry::Tmp { path, aged: true } => (path, &mut rep.tmp_removed),
                    Entry::Record { path, .. } if poison => (path, &mut rep.poison_removed),
                    Entry::Record { path, key, .. } => match self.read(&path, key, Want::Result) {
                        Ok(_) => {
                            rep.kept += 1;
                            continue;
                        }
                        Err(Fault::Stale) => (path, &mut rep.stale_removed),
                        // The reader moved it into quarantine, which
                        // the sweep below empties.
                        Err(Fault::Corrupt) => {
                            rep.corrupt_removed += 1;
                            continue;
                        }
                        Err(Fault::Absent) => continue,
                    },
                };
                if self.io_remove(&path).is_ok() {
                    *removed += 1;
                }
            }
        }
        for entry in walk(&self.quarantine, Duration::ZERO)? {
            let (Entry::Tmp { path, .. } | Entry::Record { path, .. }) = entry;
            if self.io_remove(&path).is_ok() {
                rep.quarantine_removed += 1;
            }
        }
        Ok(rep)
    }

    /// Number of result records currently published, one per point of
    /// either kind (cheap census; does not validate).
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the records directory cannot be
    /// listed.
    pub fn len(&self) -> io::Result<usize> {
        let entries = walk(&self.records, Duration::ZERO)?;
        Ok(entries.iter().filter(|e| matches!(e, Entry::Record { .. })).count())
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

fn record_path(dir: &Path, key: PointKey) -> PathBuf {
    dir.join(format!("{}.json", key.hex()))
}

/// Checksum of the serialized payload: FNV-1a over the *compact*
/// rendering (whitespace-independent, so the pretty record layout may
/// change without invalidating checksums).
fn payload_checksum(payload: &Json) -> String {
    let mut h = Fnv64::new();
    h.write_bytes(payload.to_string().as_bytes());
    format!("{:016x}", h.finish())
}

/// Full record validation: the embedded key against `key` (the one the
/// filename names), the payload checksum, a strict parse of the payload
/// by its schema tag (an unknown tag is corrupt), the kind `want` asks
/// for, and the salt last — a record must be *well-formed* to be merely
/// stale, so a garbled record with a garbled salt is corrupt.
fn validate(text: &str, key: PointKey, want: Want) -> Result<Payload, Fault> {
    let doc = Json::parse(text).map_err(|_| Fault::Corrupt)?;
    let text_field = |name| doc.get(name).and_then(Json::as_str).ok_or(Fault::Corrupt);
    if PointKey::from_hex(text_field("key")?) != Some(key) {
        return Err(Fault::Corrupt);
    }
    let body = doc.get("stats").ok_or(Fault::Corrupt)?;
    if text_field("checksum")? != payload_checksum(body) {
        return Err(Fault::Corrupt);
    }
    let label = text_field("label")?;
    let payload = match (text_field("schema")?, want) {
        (RESULTSTORE_SCHEMA, Want::Stats | Want::Result) => {
            stats_from_json(body).ok().map(Payload::Stats)
        }
        (CHIPSTORE_SCHEMA, Want::Chip(_) | Want::Result) => chip_run_from_json(body)
            .ok()
            .filter(|run| !matches!(want, Want::Chip(cores) if cores != run.per_core.len()))
            .map(Payload::Chip),
        (CAMPAIGN_SCHEMA, Want::Poison) => poison_from_json(body, key, label).map(Payload::Poison),
        // An unknown tag, or a kind the caller did not ask for.
        _ => None,
    };
    let payload = payload.ok_or(Fault::Corrupt)?;
    match doc.get("salt").and_then(Json::as_u64) {
        Some(CODE_SALT) => Ok(payload),
        Some(_) => Err(Fault::Stale),
        None => Err(Fault::Corrupt),
    }
}

/// Strict parse of a poison verdict's payload (the inverse of the body
/// [`ResultStore::poison`] writes); the key and label come from the
/// envelope.
fn poison_from_json(body: &Json, key: PointKey, label: &str) -> Option<PoisonRecord> {
    let count = |name| body.get(name).and_then(Json::as_u64).and_then(|v| u32::try_from(v).ok());
    Some(PoisonRecord {
        key,
        label: label.into(),
        error: body.get("error").and_then(Json::as_str)?.into(),
        attempts: count("attempts")?,
        deadline_trips: count("deadline_trips")?,
    })
}

/// One entry of a store directory, as [`walk`] sorts it out.
enum Entry {
    /// A `.tmp-*` file; `aged` says whether it passed the age gate.
    Tmp { path: PathBuf, aged: bool },
    /// Anything else: a record, with the key its `<key>.json` name
    /// spells (`None` for a misnamed file, which the reader calls
    /// corrupt).
    Record { name: String, path: PathBuf, key: Option<PointKey> },
}

/// The one directory walk: `dir`'s entries in sorted name order
/// (deterministic maintenance reports regardless of filesystem
/// enumeration order), temp files told apart from records and judged
/// against the `min_tmp_age` gate.
fn walk(dir: &Path, min_tmp_age: Duration) -> io::Result<Vec<Entry>> {
    let mut entries: Vec<fs::DirEntry> = fs::read_dir(dir)?.filter_map(Result::ok).collect();
    entries.sort_by_key(fs::DirEntry::file_name);
    Ok(entries
        .into_iter()
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            if name.starts_with(".tmp-") {
                return Entry::Tmp { aged: tmp_older_than(&e, min_tmp_age), path: e.path() };
            }
            let key = name.strip_suffix(".json").and_then(PointKey::from_hex);
            Entry::Record { path: e.path(), name, key }
        })
        .collect())
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

/// Every published result record of the store rooted at `root` as
/// `(file name, bytes)`, sorted by name — the byte-identity currency of
/// the convergence assertions (chaos recovery, concurrent campaign
/// runs): two stores are equivalent iff their snapshots are equal.
/// In-flight `.tmp-*` files are excluded (they are invisible to readers
/// by the atomic-publish contract).
///
/// # Errors
///
/// Propagates filesystem errors from enumerating or reading `records/`.
pub fn snapshot_records(root: &Path) -> io::Result<Vec<(String, Vec<u8>)>> {
    let mut v = Vec::new();
    for entry in walk(&root.join("records"), Duration::ZERO)? {
        if let Entry::Record { name, path, .. } = entry {
            v.push((name, fs::read(path)?));
        }
    }
    Ok(v)
}
