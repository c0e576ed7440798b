//! Checkpoint/resume for multi-experiment runs (`repro all --resume`).
//!
//! A full `repro all` at paper scale runs for a long time; a crash (or
//! an injected fault, see `moat-faults`) halfway through used to throw
//! the completed experiments away. This module persists each
//! experiment's rendered output as it completes, under
//! `.repro-checkpoint/<scale>/<name>.out`, so a rerun with `--resume`
//! replays the recorded outputs and only executes the experiments that
//! never finished.
//!
//! Entries are published with the same atomic discipline as the trace
//! cache: the output is written to a `{name}.{pid}.{counter}.tmp`
//! sibling and `rename(2)`d into place, so a checkpoint file either
//! holds one complete experiment's output or does not exist — a crash
//! mid-write can never produce a half-entry that `--resume` would
//! replay as truth. Checkpoint I/O failures are deliberately
//! non-fatal: the run degrades to executing the experiment live, which
//! is always correct, just slower.
//!
//! The arena and the fleet replay their cells from the same store: it is
//! the [`ShardStore`] of the supervised cell runner.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use moat_fleet::ShardStore;
use moat_telemetry::log;

/// Directory (relative to the working directory) holding checkpoints.
pub const CHECKPOINT_DIR: &str = ".repro-checkpoint";

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// FNV-1a over a string: the fingerprint in the arena and fleet store
/// keys.
pub(crate) fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A keyed store of completed outputs.
///
/// `repro all` keys its store by [`Scale::key`](crate::Scale::key), so
/// outputs recorded at one scale are never replayed at another; the
/// arena and the fleet key theirs by a fingerprint of the whole run.
#[derive(Debug)]
pub struct Checkpoint {
    dir: PathBuf,
}

impl Checkpoint {
    /// Opens the checkpoint store keyed by an arbitrary `key` (the fleet
    /// runner keys stores by its full topology + seed + fault-plan
    /// fingerprint, so a resume can never replay shards from a
    /// different configuration).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open_named(root: &Path, key: &str) -> io::Result<Checkpoint> {
        let dir = root.join(CHECKPOINT_DIR).join(key);
        fs::create_dir_all(&dir)?;
        Ok(Checkpoint { dir })
    }

    /// [`open_named`](Self::open_named) after discarding any prior
    /// entries under `key`.
    ///
    /// # Errors
    ///
    /// Propagates directory removal/creation failures.
    pub fn open_named_fresh(root: &Path, key: &str) -> io::Result<Checkpoint> {
        let dir = root.join(CHECKPOINT_DIR).join(key);
        match fs::remove_dir_all(&dir) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        fs::create_dir_all(&dir)?;
        Ok(Checkpoint { dir })
    }

    /// Opens the store under `key` for one run: kept for a `resume`,
    /// emptied otherwise. A store that cannot be opened is logged and
    /// the run goes on without one (every cell runs live).
    pub fn open_run(root: &Path, key: &str, resume: bool) -> Option<Checkpoint> {
        let open = if resume {
            Self::open_named(root, key)
        } else {
            Self::open_named_fresh(root, key)
        };
        open.map_err(|e| {
            log::warn(
                "checkpoint",
                format_args!("store {key} unavailable ({e}); running without resume"),
            );
        })
        .ok()
    }

    fn entry_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.out"))
    }

    /// The recorded output of `name`, if that experiment completed in a
    /// prior (or this) run.
    ///
    /// Unreadable entries count as absent — the experiment simply runs
    /// live again.
    pub fn lookup(&self, name: &str) -> Option<String> {
        fs::read_to_string(self.entry_path(name)).ok()
    }

    /// Records the completed output of `name`, atomically.
    ///
    /// The entry becomes visible only via `rename(2)`, so concurrent or
    /// crashed writers can never leave a torn entry behind.
    ///
    /// # Errors
    ///
    /// Propagates write/rename failures (callers treat these as
    /// non-fatal and keep running live).
    pub fn record(&self, name: &str, output: &str) -> io::Result<()> {
        let tmp = self.dir.join(format!(
            "{name}.{}.{}.tmp",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        let publish =
            fs::write(&tmp, output).and_then(|()| fs::rename(&tmp, self.entry_path(name)));
        if publish.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        publish
    }

    /// Names of all completed experiments in this store, sorted.
    pub fn completed(&self) -> Vec<String> {
        let mut names: Vec<String> = match fs::read_dir(&self.dir) {
            Ok(entries) => entries
                .filter_map(Result::ok)
                .filter_map(|e| {
                    let name = e.file_name().into_string().ok()?;
                    name.strip_suffix(".out").map(str::to_string)
                })
                .collect(),
            Err(_) => Vec::new(),
        };
        names.sort();
        names
    }
}

/// The supervised runner's view of the store. A failed write is logged
/// and the run carries on live — the same degradation discipline as
/// `repro all`.
impl ShardStore for Checkpoint {
    fn lookup(&self, name: &str) -> Option<String> {
        Checkpoint::lookup(self, name)
    }

    fn record(&self, name: &str, record: &str) {
        if let Err(e) = Checkpoint::record(self, name, record) {
            log::warn(
                "checkpoint",
                format_args!("could not checkpoint {name}: {e}"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("moat-checkpoint-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn record_then_lookup_roundtrips() {
        let root = temp_root("roundtrip");
        let cp = Checkpoint::open_named(&root, &Scale::scaled().key()).unwrap();
        assert_eq!(cp.lookup("table2"), None);
        cp.record("table2", "Table 2 output\n").unwrap();
        assert_eq!(cp.lookup("table2").as_deref(), Some("Table 2 output\n"));
        assert_eq!(cp.completed(), vec!["table2".to_string()]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn publish_is_atomic_no_tmp_left_behind() {
        let root = temp_root("atomic");
        let cp = Checkpoint::open_named(&root, &Scale::scaled().key()).unwrap();
        cp.record("fig13", "x\n").unwrap();
        let leftovers: Vec<_> = fs::read_dir(&cp.dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files must be renamed away");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn fresh_open_discards_prior_entries() {
        let root = temp_root("fresh");
        let cp = Checkpoint::open_named(&root, &Scale::scaled().key()).unwrap();
        cp.record("storage", "old\n").unwrap();
        let cp = Checkpoint::open_named_fresh(&root, &Scale::scaled().key()).unwrap();
        assert_eq!(cp.lookup("storage"), None);
        assert!(cp.completed().is_empty());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn named_stores_are_isolated_and_fresh_discards() {
        let root = temp_root("named");
        let named = Checkpoint::open_named(&root, "fleet-8s-24t").unwrap();
        named.record("shard-0", "record\n").unwrap();
        let scaled = Checkpoint::open_named(&root, &Scale::scaled().key()).unwrap();
        assert_eq!(scaled.lookup("shard-0"), None, "keys must not collide");
        assert_eq!(named.lookup("shard-0").as_deref(), Some("record\n"));
        let named = Checkpoint::open_named_fresh(&root, "fleet-8s-24t").unwrap();
        assert_eq!(named.lookup("shard-0"), None);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn scales_are_isolated() {
        let root = temp_root("scales");
        let scaled = Checkpoint::open_named(&root, &Scale::scaled().key()).unwrap();
        scaled.record("table2", "small\n").unwrap();
        let full = Checkpoint::open_named(&root, &Scale::full().key()).unwrap();
        assert_eq!(full.lookup("table2"), None, "scales must not share entries");
        assert_eq!(scaled.lookup("table2").as_deref(), Some("small\n"));
        fs::remove_dir_all(&root).unwrap();
    }
}
