//! Deterministic I/O failpoints for chaos-testing the trace store.
//!
//! The trace cache's promise is *graceful degradation*: any disk failure
//! — a full volume at record time, an `mmap` that cannot be established
//! at replay time, a short read of a truncated file — must surface as an
//! `io::Error` the callers already handle by falling back to live stream
//! generation, never as a panic. This module makes those failures
//! reproducible: each failpoint site counts its calls and starts failing
//! after a configured number of successes.
//!
//! Disarmed (the default), every check is a single relaxed atomic load —
//! recording and replay pay nothing. Arm programmatically with
//! [`arm`]/[`disarm`] (tests), or via the [`ENV_VAR`] environment
//! variable (`MOAT_IO_FAULTS=write=0,mmap=2,read=0`: writes fail from
//! the first call, mmaps from the third), which is read once on the
//! first check.
//!
//! Injected errors are shaped like the real thing: writes fail with
//! `ENOSPC`, reads with `UnexpectedEof` (a short read), mmaps with a
//! generic OS-style error — so callers exercise the exact match arms a
//! production failure would.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once};

use moat_telemetry::kv;

/// The environment variable that arms the failpoints process-wide.
pub const ENV_VAR: &str = "MOAT_IO_FAULTS";

/// Which I/O operations fail, after how many successes. `None` leaves an
/// operation untouched; `Some(n)` lets the first `n` calls through and
/// fails every call after that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoFaultConfig {
    /// Trace-record writes (`TraceWriter::push`/`finish`) fail with
    /// `ENOSPC` after this many successes.
    pub fail_writes_after: Option<u64>,
    /// Memory maps fail after this many successes.
    pub fail_mmaps_after: Option<u64>,
    /// Header reads fail with `UnexpectedEof` (a short read) after this
    /// many successes.
    pub fail_reads_after: Option<u64>,
}

impl IoFaultConfig {
    /// The config armed via [`ENV_VAR`]: `None` when unset or empty.
    ///
    /// # Errors
    ///
    /// Propagates [`parse`](Self::parse) errors, prefixed with the
    /// variable, and rejects a value that is not valid Unicode instead
    /// of silently ignoring it. The repro binary calls this eagerly at
    /// startup so a malformed spec fails the invocation with a clear
    /// message; the lazy in-library arming path degrades with a warning
    /// instead (chaos tooling must never turn a production run into a
    /// panic).
    pub fn from_env() -> Result<Option<IoFaultConfig>, String> {
        kv::from_env(ENV_VAR, Self::parse)
    }

    /// Parses a `key=value` list, e.g. `write=0,mmap=2,read=1`, in the
    /// shared [`kv`] grammar (no key twice).
    ///
    /// # Errors
    ///
    /// Returns a description of the offending token.
    pub fn parse(spec: &str) -> Result<IoFaultConfig, String> {
        let mut config = IoFaultConfig::default();
        for (key, value) in kv::pairs("I/O fault", spec)? {
            let after = Some(kv::num(&key, value)?);
            match key.as_str() {
                "write" => config.fail_writes_after = after,
                "mmap" => config.fail_mmaps_after = after,
                "read" => config.fail_reads_after = after,
                _ => return Err(kv::unknown("I/O fault", &key)),
            }
        }
        Ok(config)
    }
}

/// Mutable failpoint state: the armed config plus per-site call counts.
#[derive(Debug, Default)]
struct State {
    config: IoFaultConfig,
    writes: u64,
    mmaps: u64,
    reads: u64,
    injected: u64,
}

/// Fast disarmed-path guard: a relaxed load is all a check costs until
/// someone arms the failpoints.
static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<State> = Mutex::new(State {
    config: IoFaultConfig {
        fail_writes_after: None,
        fail_mmaps_after: None,
        fail_reads_after: None,
    },
    writes: 0,
    mmaps: 0,
    reads: 0,
    injected: 0,
});
static ENV_INIT: Once = Once::new();

/// Arms the failpoints with `config`, resetting all call counts.
pub fn arm(config: IoFaultConfig) {
    let mut state = STATE.lock().unwrap();
    *state = State {
        config,
        ..State::default()
    };
    ARMED.store(config != IoFaultConfig::default(), Ordering::SeqCst);
}

/// Disarms all failpoints.
pub fn disarm() {
    arm(IoFaultConfig::default());
}

/// How many errors have been injected since the last [`arm`].
pub fn injected() -> u64 {
    STATE.lock().unwrap().injected
}

/// Reads [`ENV_VAR`] once per process (called lazily by the first
/// check). A malformed value is reported loudly and left disarmed —
/// this path sits under arbitrary library I/O, so it cannot fail-fast;
/// binaries that want a hard error call [`IoFaultConfig::from_env`]
/// eagerly at startup (as `repro` does) before any check runs.
fn init_from_env() {
    ENV_INIT.call_once(|| match IoFaultConfig::from_env() {
        Ok(Some(config)) => arm(config),
        Ok(None) => {}
        Err(e) => moat_telemetry::log::warn(
            "moat-trace",
            format_args!("malformed {ENV_VAR} ignored (failpoints disarmed): {e}"),
        ),
    });
}

/// Consults one failpoint site: counts the call and decides failure.
fn check(
    site: fn(&mut State) -> (&mut u64, Option<u64>),
    error: fn() -> io::Error,
) -> io::Result<()> {
    init_from_env();
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    let mut state = STATE.lock().unwrap();
    let (calls, limit) = site(&mut state);
    let Some(after) = limit else { return Ok(()) };
    *calls += 1;
    if *calls > after {
        state.injected += 1;
        return Err(error());
    }
    Ok(())
}

/// ENOSPC for the trace-record write path.
pub(crate) fn check_write() -> io::Result<()> {
    check(
        |s| {
            let limit = s.config.fail_writes_after;
            (&mut s.writes, limit)
        },
        || io::Error::from_raw_os_error(28), // ENOSPC
    )
}

/// Failure to establish a memory map.
pub(crate) fn check_mmap() -> io::Result<()> {
    check(
        |s| {
            let limit = s.config.fail_mmaps_after;
            (&mut s.mmaps, limit)
        },
        || io::Error::other("injected mmap failure"),
    )
}

/// A short read of the trace header.
pub(crate) fn check_read() -> io::Result<()> {
    check(
        |s| {
            let limit = s.config.fail_reads_after;
            (&mut s.reads, limit)
        },
        || io::Error::new(io::ErrorKind::UnexpectedEof, "injected short read"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_env_surfaces_malformed_values_as_errors() {
        // Malformed and empty values only: a *valid* value here could
        // race the lazy `init_from_env` latch of a concurrently running
        // I/O test and arm the failpoints process-wide. Valid parsing
        // is covered by `parse_accepts_the_documented_form`.
        let check = |value: &str, expect_err: bool| {
            std::env::set_var(ENV_VAR, value);
            let result = IoFaultConfig::from_env();
            std::env::remove_var(ENV_VAR);
            assert_eq!(
                result.is_err(),
                expect_err,
                "{ENV_VAR}={value:?} -> {result:?}"
            );
        };
        check("write", true); // missing =
        check("write=x", true); // non-numeric count
        check("scribble=1", true); // unknown key
        check("write=0,write=1", true); // a key given twice
        check("", false); // empty means disarmed, not an error
        check("  ", false);
        assert_eq!(IoFaultConfig::from_env(), Ok(None), "unset means disarmed");

        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStringExt;
            let bogus = std::ffi::OsString::from_vec(vec![0x77, 0xFE]);
            std::env::set_var(ENV_VAR, &bogus);
            let result = IoFaultConfig::from_env();
            std::env::remove_var(ENV_VAR);
            assert!(result.is_err(), "non-Unicode must error: {result:?}");
        }
    }

    #[test]
    fn parse_accepts_the_documented_form() {
        let c = IoFaultConfig::parse("write=0, mmap=2,read=1").unwrap();
        assert_eq!(c.fail_writes_after, Some(0));
        assert_eq!(c.fail_mmaps_after, Some(2));
        assert_eq!(c.fail_reads_after, Some(1));
        assert_eq!(IoFaultConfig::parse("").unwrap(), IoFaultConfig::default());
        assert!(IoFaultConfig::parse("write").is_err());
        assert!(IoFaultConfig::parse("write=x").is_err());
        assert!(IoFaultConfig::parse("scribble=1").is_err());
        assert!(IoFaultConfig::parse("mmap=1,mmap=2").is_err(), "key twice");
    }
}
