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
//!                              engine gave up on
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
//! **Corruption policy.** Every read fully validates the record, in one
//! pass of a [`vr_obs::Reader`] over its text with no tree built: the
//! embedded key against the filename, the payload checksum, a strict
//! read of the payload by its tag through the record's
//! [`vr_obs::Counters`] impl (an unknown tag, or a kind the caller did
//! not ask for, is corrupt), and the code-version salt last. Salt
//! mismatch means *stale* (a legitimate record from an older
//! simulator) — it is treated as a miss and left for `gc`.
//! Everything else means *corrupt* — the record is moved into
//! `quarantine/` (never deleted: the bytes may matter for diagnosis)
//! and the point is recomputed. No store problem ever panics the
//! caller; the worst case is a cache miss.
//!
//! **Poison records.** When the campaign engine declares a point
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

use std::borrow::Cow;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use vr_chip::ChipRun;
use vr_core::SimStats;
use vr_obs::{
    Counters, Event, Json, Reader, CAMPAIGN_SCHEMA, CHIPSTORE_SCHEMA, RESULTSTORE_SCHEMA,
};

use crate::fingerprint::{PointKey, CODE_SALT};
use crate::serial::{chip_run_to_json, read_chip_run};

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
#[cfg_attr(test, derive(PartialEq, Debug))]
enum Payload {
    Stats(SimStats),
    Chip(ChipRun),
    Poison(PoisonRecord),
}

/// What a read asks for; a record of any other kind is corrupt.
#[derive(Clone, Copy, Debug)]
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
    /// Valid poison records (points the engine gave up on).
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

/// A structured failure record for a point the campaign engine
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
        self.write(&self.records, key, label, RESULTSTORE_SCHEMA, stats.to_json())
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

/// `dir/<key-hex16>.json`.
fn record_path(dir: &Path, key: PointKey) -> PathBuf {
    dir.join(format!("{}.json", key.hex()))
}

/// Checksum of the serialized payload: FNV-1a over the *compact*
/// rendering (whitespace-independent, so the pretty record layout may
/// change without invalidating checksums).
fn payload_checksum(payload: &Json) -> String {
    format!("{:016x}", payload.digest())
}

/// Full record validation, in one pass of a [`Reader`] over `text`: the
/// embedded key against `key` (the one the filename names), the payload
/// checksum, a strict read of the payload by its schema tag (an unknown
/// tag is corrupt), the kind `want` asks for, and the salt last — a
/// record must be *well-formed* to be merely stale, so a garbled record
/// with a garbled salt is corrupt.
///
/// The envelope's members may come in any order; the first of a name
/// given twice counts and unknown names are skipped, as [`Json::get`]
/// reads a tree. The payload is decoded as it is read, with its
/// checksum folded from the same tokens; only when no `schema` precedes
/// it is it skipped and read again once the tag is known.
fn validate(text: &str, key: PointKey, want: Want) -> Result<Payload, Fault> {
    let mut r = Reader::new(text);
    let mut env = Envelope::default();
    r.object(|name, r| env.member(name, r, key, want)).map_err(|_| Fault::Corrupt)?;
    r.finish().map_err(|_| Fault::Corrupt)?;
    let (Some(embedded), Some(checksum), Some(label), Some(schema), Some(body)) =
        (env.key, env.checksum, env.label, env.schema, env.stats)
    else {
        return Err(Fault::Corrupt);
    };
    // The checksum is spelled as a key is, so it parses as one.
    let digest = PointKey::from_hex(&checksum).map(|k| k.0);
    if PointKey::from_hex(&embedded) != Some(key) || digest != Some(body.digest) {
        return Err(Fault::Corrupt);
    }
    let mut payload = match body.payload {
        Some(payload) => payload,
        None => {
            let mut again = Reader::new(&text[body.span]);
            let payload = read_payload(&schema, want, key, &mut again);
            payload.and_then(|p| again.finish().map(|()| p)).map_err(|_| Fault::Corrupt)?
        }
    };
    if let Payload::Poison(rec) = &mut payload {
        rec.label = label.into_owned();
    }
    match env.salt {
        Some(CODE_SALT) => Ok(payload),
        Some(_) => Err(Fault::Stale),
        None => Err(Fault::Corrupt),
    }
}

/// The first of each envelope member a record holds, as [`validate`]
/// reads them.
#[derive(Default)]
struct Envelope<'a> {
    schema: Option<Cow<'a, str>>,
    key: Option<Cow<'a, str>>,
    salt: Option<u64>,
    label: Option<Cow<'a, str>>,
    checksum: Option<Cow<'a, str>>,
    stats: Option<Body>,
}

/// The `stats` member: where it lies in the text, the digest of its
/// compact rendering and, if the schema tag preceded it, its payload.
struct Body {
    span: Range<usize>,
    digest: u64,
    payload: Option<Payload>,
}

impl<'a> Envelope<'a> {
    /// Reads the value of member `name`. A defect here is an error: a
    /// record with one is corrupt whatever else it holds.
    fn member(
        &mut self,
        name: &str,
        r: &mut Reader<'a>,
        key: PointKey,
        want: Want,
    ) -> Result<(), String> {
        let text = |r: &mut Reader<'a>| match r.next_event()? {
            Event::Str(s) => Ok(Some(s)),
            _ => Err("not a string".to_string()),
        };
        match name {
            "schema" if self.schema.is_none() => self.schema = text(r)?,
            "key" if self.key.is_none() => self.key = text(r)?,
            "label" if self.label.is_none() => self.label = text(r)?,
            "checksum" if self.checksum.is_none() => self.checksum = text(r)?,
            "salt" if self.salt.is_none() => self.salt = Some(u64::read(r)?),
            "stats" if self.stats.is_none() => {
                let start = r.offset();
                r.start_digest();
                let payload = match &self.schema {
                    Some(schema) => Some(read_payload(schema, want, key, r)?),
                    None => {
                        r.skip()?;
                        None
                    }
                };
                let digest = r.take_digest().expect("started above");
                self.stats = Some(Body { span: start..r.offset(), digest, payload });
            }
            _ => r.skip()?,
        }
        Ok(())
    }
}

/// Reads the payload that comes next in `r` by its schema tag, if it is
/// the kind `want` asks for. A poison verdict's label is the envelope's,
/// filled in by [`validate`].
fn read_payload(
    schema: &str,
    want: Want,
    key: PointKey,
    r: &mut Reader<'_>,
) -> Result<Payload, String> {
    match (schema, want) {
        (RESULTSTORE_SCHEMA, Want::Stats | Want::Result) => SimStats::read(r).map(Payload::Stats),
        (CHIPSTORE_SCHEMA, Want::Chip(cores)) => {
            let run = read_chip_run(r)?;
            if run.per_core.len() != cores {
                return Err(format!("{} cores, want {cores}", run.per_core.len()));
            }
            Ok(Payload::Chip(run))
        }
        (CHIPSTORE_SCHEMA, Want::Result) => read_chip_run(r).map(Payload::Chip),
        (CAMPAIGN_SCHEMA, Want::Poison) => read_poison(r, key).map(Payload::Poison),
        // An unknown tag, or a kind the caller did not ask for.
        _ => Err(format!("a `{schema}` record is not the kind asked for")),
    }
}

/// Strict reader of a poison verdict's payload (the inverse of the body
/// [`ResultStore::poison`] writes); the key and label come from the
/// envelope.
fn read_poison(r: &mut Reader<'_>, key: PointKey) -> Result<PoisonRecord, String> {
    let (mut error, mut attempts, mut deadline_trips) = (None, None, None);
    let count = |r: &mut Reader<'_>| {
        u32::try_from(u64::read(r)?).map(Some).map_err(|_| "not a u32".to_string())
    };
    r.object(|name, r| {
        match name {
            "error" if error.is_none() => match r.next_event()? {
                Event::Str(s) => error = Some(s.into_owned()),
                _ => return Err("field `error`: not a string".to_string()),
            },
            "attempts" if attempts.is_none() => attempts = count(r)?,
            "deadline_trips" if deadline_trips.is_none() => deadline_trips = count(r)?,
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(PoisonRecord {
        key,
        label: String::new(),
        error: error.ok_or("missing field `error`")?,
        attempts: attempts.ok_or("missing field `attempts`")?,
        deadline_trips: deadline_trips.ok_or("missing field `deadline_trips`")?,
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

#[cfg(test)]
mod tests {
    use super::*;
    use vr_chip::{Chip, ChipConfig, ChipStats, CoreSlot};
    use vr_core::{CoreConfig, RunaheadConfig, Simulator};
    use vr_isa::SplitMix64;
    use vr_mem::MemConfig;
    use vr_workloads::{hpcdb, Scale};

    // ---- the tree reader, kept as the oracle of `validate` -----------

    /// The reader [`validate`] replaced: parse the whole record into a
    /// tree, re-render `stats` to check its checksum, then decode the
    /// tree. Members are found with [`Json::get`], so the first of a
    /// repeated name counts and unknown names are ignored.
    fn tree_validate(text: &str, key: PointKey, want: Want) -> Result<Payload, Fault> {
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
                tree_stats(body).map(Payload::Stats)
            }
            (CHIPSTORE_SCHEMA, Want::Chip(_) | Want::Result) => tree_chip(body)
                .filter(|run| !matches!(want, Want::Chip(cores) if cores != run.per_core.len()))
                .map(Payload::Chip),
            (CAMPAIGN_SCHEMA, Want::Poison) => tree_poison(body, key, label).map(Payload::Poison),
            _ => None,
        };
        let payload = payload.ok_or(Fault::Corrupt)?;
        match doc.get("salt").and_then(Json::as_u64) {
            Some(CODE_SALT) => Ok(payload),
            Some(_) => Err(Fault::Stale),
            None => Err(Fault::Corrupt),
        }
    }

    /// `input` rebuilt in the shape of `template`, a counter record's
    /// `to_json`, each member found with [`Json::get`]: the tree's rules
    /// for names, so the oracle does not lean on [`Counters::read`]'s.
    fn canonical(template: &Json, input: &Json) -> Option<Json> {
        match template {
            Json::U64(_) => input.as_u64().map(Json::U64),
            Json::Arr(t) => {
                let a = input.as_arr().filter(|a| a.len() == t.len())?;
                a.iter().zip(t).map(|(v, t)| canonical(t, v)).collect::<Option<_>>().map(Json::Arr)
            }
            Json::Obj(t) => t
                .iter()
                .map(|(k, t)| Some((k.clone(), canonical(t, input.get(k)?)?)))
                .collect::<Option<_>>()
                .map(Json::Obj),
            other => unreachable!("a counter record holds no {other}"),
        }
    }

    fn tree_counters<T: Counters + Default>(body: &Json) -> Option<T> {
        let shaped = canonical(&T::default().to_json(), body)?;
        Some(T::from_json(&shaped).expect("a record in its own shape reads"))
    }

    fn tree_stats(body: &Json) -> Option<SimStats> {
        tree_counters(body)
    }

    fn tree_chip(body: &Json) -> Option<ChipRun> {
        let per_core = body.get("per_core")?.as_arr()?;
        Some(ChipRun {
            per_core: per_core.iter().map(tree_stats).collect::<Option<_>>()?,
            chip: tree_counters::<ChipStats>(body.get("chip")?)?,
        })
    }

    fn tree_poison(body: &Json, key: PointKey, label: &str) -> Option<PoisonRecord> {
        let count =
            |name| body.get(name).and_then(Json::as_u64).and_then(|v| u32::try_from(v).ok());
        Some(PoisonRecord {
            key,
            label: label.into(),
            error: body.get("error").and_then(Json::as_str)?.into(),
            attempts: count("attempts")?,
            deadline_trips: count("deadline_trips")?,
        })
    }

    // ---- real records and their mutations ----------------------------

    const SCALAR: PointKey = PointKey(0x0123_4567_89ab_cdef);
    const CHIP: PointKey = PointKey(0x1111_2222_3333_4444);
    const POISON: PointKey = PointKey(0xfedc_ba98_7654_3210);
    const WANTS: [Want; 5] =
        [Want::Stats, Want::Chip(2), Want::Chip(3), Want::Result, Want::Poison];

    /// A scalar record of a real `kangaroo` run under Vector Runahead, a
    /// record of a real 2-core chip run, and a poison verdict, as the
    /// store writes them.
    fn real_records() -> [(PointKey, String); 3] {
        let w = hpcdb::kangaroo(Scale::Test);
        let (core, mem, ra) =
            (CoreConfig::table1(), MemConfig::tiny_for_tests(), RunaheadConfig::vector());
        let stats = Simulator::new(
            core.clone(),
            mem.clone(),
            ra.clone(),
            w.program.clone(),
            w.memory.clone(),
            &w.init_regs,
        )
        .run(3_000);
        let slots = (0..2)
            .map(|_| CoreSlot {
                ra: ra.clone(),
                program: w.program.clone(),
                memory: w.memory.clone(),
                init_regs: w.init_regs.clone(),
            })
            .collect();
        let run = Chip::new(ChipConfig::with_cores(2), core, mem, slots)
            .try_run(2_000)
            .expect("2-core chip run");
        let dir = std::env::temp_dir().join(format!(
            "vr-store-unit-{}-{}",
            std::process::id(),
            crate::test_nonce()
        ));
        let store = ResultStore::open(&dir).expect("open store");
        store.save(SCALAR, "kangaroo/vr", &stats).unwrap();
        store.save_chip(CHIP, "kangaroo/vr-x2", &run).unwrap();
        let verdict = PoisonRecord {
            key: POISON,
            label: "kangaroo/\"sick\"".into(),
            error: "deadline exceeded at cycle 100".into(),
            attempts: 2,
            deadline_trips: 2,
        };
        store.poison(&verdict).unwrap();
        let read = |dir: &Path, key| fs::read_to_string(record_path(dir, key)).unwrap();
        let records = [
            (SCALAR, read(&store.records, SCALAR)),
            (CHIP, read(&store.records, CHIP)),
            (POISON, read(&store.poison, POISON)),
        ];
        fs::remove_dir_all(&dir).ok();
        records
    }

    /// Paths (member and element indices) to every object in `j`.
    fn object_paths(j: &Json, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        let children: Vec<&Json> = match j {
            Json::Obj(m) => {
                out.push(path.clone());
                m.iter().map(|(_, v)| v).collect()
            }
            Json::Arr(a) => a.iter().collect(),
            _ => return,
        };
        for (i, child) in children.into_iter().enumerate() {
            path.push(i);
            object_paths(child, path, out);
            path.pop();
        }
    }

    /// The members of a random object in `doc`.
    fn some_object<'j>(doc: &'j mut Json, rng: &mut SplitMix64) -> &'j mut Vec<(String, Json)> {
        let mut paths = Vec::new();
        object_paths(doc, &mut Vec::new(), &mut paths);
        let path = &paths[rng.below(paths.len() as u64) as usize];
        let node = path.iter().fold(doc, |j, &i| match j {
            Json::Obj(m) => &mut m[i].1,
            Json::Arr(a) => &mut a[i],
            _ => unreachable!("a path runs through containers"),
        });
        match node {
            Json::Obj(m) => m,
            _ => unreachable!("the path ends at an object"),
        }
    }

    /// Edits the parsed record and renders it again, compact or pretty.
    fn retree(
        text: &str,
        rng: &mut SplitMix64,
        edit: impl FnOnce(&mut Json, &mut SplitMix64),
    ) -> String {
        let Ok(mut doc) = Json::parse(text) else { return text.to_string() };
        edit(&mut doc, rng);
        if rng.flip() {
            doc.to_string()
        } else {
            doc.to_pretty()
        }
    }

    /// Byte ranges of the string tokens (quotes included) and of the
    /// other scalar tokens of `text`, as far as it lexes.
    fn tokens(text: &str) -> (Vec<Range<usize>>, Vec<Range<usize>>) {
        let (b, mut strings, mut numbers, mut i) = (text.as_bytes(), vec![], vec![], 0);
        while i < b.len() {
            match b[i] {
                b'"' => {
                    let start = i;
                    i += 1;
                    while i < b.len() && b[i] != b'"' {
                        i += if b[i] == b'\\' { 2 } else { 1 };
                    }
                    strings.push(start..(i + 1).min(b.len()));
                }
                b'-' | b'0'..=b'9' => {
                    let start = i;
                    while i < b.len()
                        && matches!(b[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                    {
                        i += 1;
                    }
                    numbers.push(start..i);
                    continue;
                }
                _ => {}
            }
            i += 1;
        }
        (strings, numbers)
    }

    /// `text` with `range` replaced by `with`.
    fn splice(text: &str, range: Range<usize>, with: &str) -> String {
        format!("{}{with}{}", &text[..range.start], &text[range.end..])
    }

    /// The value token after the first `"name":` in `text`.
    fn value_after(text: &str, name: &str) -> Option<Range<usize>> {
        let at = text.find(&format!("\"{name}\""))? + name.len() + 2;
        let (strings, numbers) = tokens(text);
        let colon = at + text[at..].find(':')?;
        strings.into_iter().chain(numbers).filter(|t| t.start > colon).min_by_key(|t| t.start)
    }

    /// One seeded mutation of a record.
    fn mutate(text: &str, rng: &mut SplitMix64) -> String {
        let pick = |rng: &mut SplitMix64, n: usize| rng.below(n as u64) as usize;
        match rng.below(10) {
            // Whitespace reflow: spaces, tabs and line breaks between
            // tokens added or removed.
            0 => {
                let (strings, _) = tokens(text);
                let mut out = String::new();
                for (i, c) in text.char_indices() {
                    let in_string = strings.iter().any(|s| s.start < i && i + 1 < s.end);
                    if in_string {
                        out.push(c);
                        continue;
                    }
                    if c.is_ascii_whitespace() && rng.flip() {
                        continue;
                    }
                    out.push(c);
                    if matches!(c, '{' | '}' | '[' | ']' | ',' | ':') && rng.chance(0.2) {
                        out.push([' ', '\t', '\n', '\r'][pick(rng, 4)]);
                    }
                }
                out
            }
            // Member reorder.
            1 => retree(text, rng, |doc, rng| {
                let members = some_object(doc, rng);
                for i in (1..members.len()).rev() {
                    members.swap(i, pick(rng, i + 1));
                }
            }),
            // A duplicate member, before or after the original, with
            // the same or a different value.
            2 => retree(text, rng, |doc, rng| {
                let members = some_object(doc, rng);
                if members.is_empty() {
                    return;
                }
                let (name, mut value) = members[pick(rng, members.len())].clone();
                if rng.flip() {
                    value = match value {
                        Json::U64(v) => Json::U64(v.wrapping_add(1)),
                        Json::Str(s) => Json::Str(s + "x"),
                        _ => Json::Null,
                    };
                }
                let at = pick(rng, members.len() + 1);
                members.insert(at, (name, value));
            }),
            // An unknown member.
            3 => retree(text, rng, |doc, rng| {
                let value =
                    [Json::U64(7), Json::from("x"), Json::Arr(vec![Json::Null]), Json::Obj(vec![])];
                let value = value[pick(rng, 4)].clone();
                let members = some_object(doc, rng);
                let at = pick(rng, members.len() + 1);
                members.insert(at, ("unknown".into(), value));
            }),
            // A `\uXXXX` (or `\/`) spelling of a character of a string.
            4 => {
                let (strings, _) = tokens(text);
                let Some(s) = strings.get(pick(rng, strings.len().max(1))) else {
                    return text.into();
                };
                let plain: Vec<usize> = (s.start + 1..s.end.saturating_sub(1))
                    .filter(|&i| {
                        text.as_bytes()[i].is_ascii_alphanumeric() || text.as_bytes()[i] == b'/'
                    })
                    .filter(|&i| text.as_bytes()[i - 1] != b'\\')
                    .collect();
                let Some(&i) = plain.get(pick(rng, plain.len().max(1))) else { return text.into() };
                let c = text.as_bytes()[i];
                let spelled = match rng.below(3) {
                    0 if c == b'/' => "\\/".to_string(),
                    1 => format!("\\u{c:04X}"),
                    _ => format!("\\u{c:04x}"),
                };
                splice(text, i..i + 1, &spelled)
            }
            // `-0`, an exponent, a fraction or a leading zero.
            5 => {
                let (_, numbers) = tokens(text);
                let Some(n) = numbers.get(pick(rng, numbers.len().max(1))) else {
                    return text.into();
                };
                let t = &text[n.clone()];
                let respelled = match rng.below(5) {
                    0 if t == "0" => "-0".to_string(),
                    1 if t.ends_with("000") && t.len() > 3 => format!("{}e3", &t[..t.len() - 3]),
                    1 => format!("{t}e0"),
                    2 => format!("0{t}"),
                    3 => format!("{t}.0"),
                    _ => "-0".to_string(),
                };
                splice(text, n.clone(), &respelled)
            }
            // Truncation.
            6 => text[..pick(rng, text.len())].to_string(),
            // A single-byte flip.
            7 => {
                let i = pick(rng, text.len());
                let b = b"{}[],:\"\\ 0123456789abcdefxyz-.eE"[pick(rng, 32)];
                splice(text, i..i + 1, std::str::from_utf8(&[b]).unwrap())
            }
            // A swapped key, salt or schema.
            _ => {
                let (name, with) = match rng.below(3) {
                    0 => ("key", format!("\"{}\"", [SCALAR, CHIP, POISON][pick(rng, 3)].hex())),
                    1 => (
                        "salt",
                        ["3", "5", "4", "40", "\"4\"", "-4", "4.0"][pick(rng, 7)].to_string(),
                    ),
                    _ => {
                        let tags = [RESULTSTORE_SCHEMA, CHIPSTORE_SCHEMA, CAMPAIGN_SCHEMA, "vr-x"];
                        ("schema", format!("\"{}\"", tags[pick(rng, 4)]))
                    }
                };
                match value_after(text, name) {
                    Some(r) => splice(text, r, &with),
                    None => text.into(),
                }
            }
        }
    }

    /// Sets the first `checksum` to the digest of the first `stats`, so
    /// a mutation inside the payload is judged on more than its
    /// checksum.
    fn fix_checksum(text: &str) -> String {
        let Ok(doc) = Json::parse(text) else { return text.into() };
        match (doc.get("stats"), value_after(text, "checksum")) {
            (Some(body), Some(r)) => splice(text, r, &format!("\"{}\"", payload_checksum(body))),
            _ => text.into(),
        }
    }

    /// The one-pass reader and the tree reader return the same verdict
    /// (the same payload, `Stale` or `Corrupt`) on seeded mutations of
    /// real scalar, chip and poison records, asked for as every kind.
    #[test]
    fn the_one_pass_reader_agrees_with_the_tree_reader_on_mutated_records() {
        let records = real_records();
        let mut rng = SplitMix64::new(0x5eed_0046);
        let (mut ok, mut stale, mut corrupt) = (0, 0, 0);
        for case in 0..2_400 {
            let (key, original) = &records[case % records.len()];
            let mut text = original.clone();
            for _ in 0..1 + rng.below(3) {
                text = mutate(&text, &mut rng);
            }
            if rng.flip() {
                text = fix_checksum(&text);
            }
            for want in WANTS {
                let verdict = validate(&text, *key, want);
                assert_eq!(
                    verdict,
                    tree_validate(&text, *key, want),
                    "case {case}, {want:?}:\n{text}"
                );
                match verdict {
                    Ok(_) => ok += 1,
                    Err(Fault::Stale) => stale += 1,
                    Err(_) => corrupt += 1,
                }
            }
        }
        // Every verdict is well represented, or the agreement says little.
        assert!(
            ok >= 300 && stale >= 50 && corrupt >= 3_000,
            "{ok} ok, {stale} stale, {corrupt} corrupt"
        );
    }

    /// Unmutated, each record reads as what was saved, asked for as its
    /// own kind only; a record's key is checked against the file's.
    #[test]
    fn real_records_read_back_as_their_own_kind_only() {
        for (key, text) in real_records() {
            for want in WANTS {
                let verdict = validate(&text, key, want);
                assert_eq!(verdict, tree_validate(&text, key, want), "{want:?}");
                let own = match key {
                    SCALAR => matches!(want, Want::Stats | Want::Result),
                    CHIP => matches!(want, Want::Chip(2) | Want::Result),
                    _ => matches!(want, Want::Poison),
                };
                assert_eq!(verdict.is_ok(), own, "{key:?} as {want:?}");
            }
            let other = PointKey(key.0 ^ 1);
            assert_eq!(validate(&text, other, Want::Result), Err(Fault::Corrupt));
        }
    }
}
