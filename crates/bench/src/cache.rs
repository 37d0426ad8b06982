//! The optional result store behind the figures
//! (`experiments --cache DIR`).
//!
//! When a store is [`enable`]d, the CLI hands it to [`crate::sweep`] —
//! the one way a figure's point list is run — and the campaign engine
//! underneath serves each point from it when it can and publishes each
//! fresh result when it cannot. Because the store round-trips
//! [`vr_core::SimStats`] bit-identically (see `vr_campaign::serial`), a
//! figure rendered from cached stats is **byte-identical** to an
//! uncached run: same stdout, same `--json`, same `--csv`.
//!
//! The store handle is process-global (`OnceLock`): the harness
//! resolves `--cache` once in `main`, and `enable` is first-write-wins
//! and cannot be undone within a process — exactly the CLI's
//! lifecycle.

use std::io;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

use vr_campaign::{ResultStore, StoreCounters};

static STORE: OnceLock<ResultStore> = OnceLock::new();

/// Labels of points that degraded to HOLE cells this process (noted
/// by [`crate::sweep`]): poisoned points skipped at lookup time and
/// fresh simulation failures recorded while a store was active. The
/// CLI prints these on stderr after rendering so a degraded figure is
/// loud without being fatal.
static HOLES: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Records that `label`'s point rendered as a HOLE.
pub fn note_hole(label: &str) {
    HOLES.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(label.to_string());
}

/// The labels that degraded to HOLEs so far, in first-seen order.
pub fn holes() -> Vec<String> {
    HOLES.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
}

/// Opens the store rooted at `dir` and makes it [`active`]. First call
/// wins; a second call (harness bug — `main` parses `--cache` once) is
/// reported as an error rather than silently switching stores mid-run.
///
/// # Errors
///
/// Returns the underlying error if the store directories cannot be
/// created, or an [`io::ErrorKind::AlreadyExists`] error if a store
/// was already enabled.
pub fn enable(dir: &Path) -> io::Result<()> {
    let store = ResultStore::open(dir)?;
    STORE
        .set(store)
        .map_err(|_| io::Error::new(io::ErrorKind::AlreadyExists, "result store already enabled"))
}

/// The enabled store, if any.
pub fn active() -> Option<&'static ResultStore> {
    STORE.get()
}

/// Session counters of the enabled store (hits/misses/writes since
/// `enable`); `None` when no store is active. The CLI prints them on
/// stderr after every run with `--cache`.
pub fn counters() -> Option<StoreCounters> {
    active().map(ResultStore::counters)
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: `enable` is process-global, so unit tests here must not
    // call it — it would leak a store into every other test in this
    // binary. The full enable → hit → byte-identical pipeline is
    // exercised by the `experiments` CLI integration tests, which get
    // a fresh process per invocation.

    #[test]
    fn cache_is_inactive_by_default() {
        assert!(active().is_none());
        assert!(counters().is_none());
    }

    #[test]
    fn holes_keep_first_seen_order() {
        // The registry is process-global like the store, but unlike
        // `enable` it is append-only bookkeeping — other tests in this
        // binary never read it, so exercising it here is safe.
        note_hole("zz-test-hole-b");
        note_hole("zz-test-hole-a");
        let h = holes();
        let pos = |l: &str| h.iter().position(|x| x == l).unwrap();
        assert!(pos("zz-test-hole-b") < pos("zz-test-hole-a"));
    }
}
