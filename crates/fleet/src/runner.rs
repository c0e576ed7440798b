//! The one supervised cell runner behind every crash-isolated grid.
//!
//! The fault, recovery and security sweeps, the arena and the fleet all
//! run a grid of independent cells through [`run_supervised`]: a cell
//! is replayed from an optional [`ShardStore`] when its record parses,
//! and otherwise runs live under `catch_unwind`, retried through
//! [`RetryPolicy::run`]. A cell that fails every attempt reports its
//! last error without tearing down its siblings, and outcomes come back
//! in input order whatever the worker count.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::retry::RetryPolicy;

/// A store of completed cell records, keyed by cell name. Only live
/// successes are recorded — a failed cell re-runs on resume, because
/// the interruption may have *been* the failure.
pub trait ShardStore: Sync {
    /// The recorded line for the cell `name`, if any.
    fn lookup(&self, name: &str) -> Option<String>;
    /// Records `record` for the cell `name`. A failed write is the
    /// store's to report; the run carries on.
    fn record(&self, name: &str, record: &str);
}

/// How a grid's cells cross a [`ShardStore`].
pub struct Replay<'a, C, R> {
    /// The store to replay from and record into.
    pub store: &'a dyn ShardStore,
    /// The cell's entry name (unique across the grid).
    pub name: fn(&C) -> String,
    /// Parses a record into the cell's result; `None` runs it live.
    pub decode: fn(&C, &str) -> Option<R>,
    /// Serializes a live result for the store.
    pub encode: fn(&R) -> String,
}

/// The outcome of one supervised cell.
#[derive(Debug, Clone)]
pub struct CellOutcome<R, E> {
    /// The cell's result, or the last attempt's error.
    pub result: Result<R, E>,
    /// Live attempts made; `0` for a replayed cell.
    pub attempts: u32,
    /// Whether the result was replayed from the store.
    pub replayed: bool,
    /// Host wall-clock seconds spent on the cell, backoff included.
    pub wall_seconds: f64,
}

/// Runs `cells` on `threads` workers and returns one outcome per cell,
/// in input order. A cell that `replay` finds and decodes is not run;
/// every other cell runs `body(cell, attempt)` (attempt 1 first) under
/// `catch_unwind` through `policy`, a panic becoming the attempt's
/// error via [`panic_message`]. Live successes are recorded as each
/// cell finishes.
pub fn run_supervised<C, R, E, F>(
    cells: Vec<C>,
    threads: usize,
    policy: RetryPolicy,
    replay: Option<&Replay<'_, C, R>>,
    body: F,
) -> Vec<CellOutcome<R, E>>
where
    C: Send,
    R: Send,
    E: Send + From<String>,
    F: Fn(&C, u32) -> Result<R, E> + Sync,
{
    let supervise = |cell: C| {
        let start = Instant::now();
        let from_store = replay.and_then(|r| {
            let record = r.store.lookup(&(r.name)(&cell))?;
            (r.decode)(&cell, &record)
        });
        let (result, attempts) = match from_store {
            Some(result) => (Ok(result), 0),
            None => policy.run(|attempt| {
                catch_unwind(AssertUnwindSafe(|| body(&cell, attempt)))
                    .unwrap_or_else(|payload| Err(E::from(panic_message(payload))))
            }),
        };
        let replayed = attempts == 0;
        if let (Some(r), Ok(result), false) = (replay, &result, replayed) {
            r.store.record(&(r.name)(&cell), &(r.encode)(result));
        }
        CellOutcome {
            result,
            attempts,
            replayed,
            wall_seconds: start.elapsed().as_secs_f64(),
        }
    };
    rayon::queue::chunked_map(cells, supervise, threads.max(1))
}

/// Renders a panic payload: the `&str` or `String` it carries, or a
/// fixed note for any other payload type.
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast_ref::<&str>() {
            Some(s) => (*s).to_string(),
            None => "non-string panic payload".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    const QUICK: RetryPolicy = RetryPolicy::with_attempts(3, Duration::ZERO);

    #[derive(Default)]
    struct MemStore(Mutex<HashMap<String, String>>);

    impl ShardStore for MemStore {
        fn lookup(&self, name: &str) -> Option<String> {
            self.0.lock().unwrap().get(name).cloned()
        }
        fn record(&self, name: &str, record: &str) {
            self.0
                .lock()
                .unwrap()
                .insert(name.to_string(), record.to_string());
        }
    }

    fn replay(store: &MemStore) -> Replay<'_, u32, u32> {
        Replay {
            store,
            name: |c| format!("cell-{c}"),
            decode: |_, record| record.parse().ok(),
            encode: |r| r.to_string(),
        }
    }

    #[test]
    fn panic_message_renders_every_payload_kind() {
        assert_eq!(panic_message(Box::new("static str")), "static str");
        assert_eq!(panic_message(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_message(Box::new(42u8)), "non-string panic payload");
        let caught = catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(caught), "formatted 7");
    }

    #[test]
    fn outcomes_keep_input_order_across_thread_counts() {
        let cells: Vec<u32> = (0..40).rev().collect();
        for threads in [1, 2, 5] {
            let out = run_supervised(cells.clone(), threads, QUICK, None, |&c, _| {
                Ok::<_, String>(c * 3)
            });
            let results: Vec<u32> = out.iter().map(|o| *o.result.as_ref().unwrap()).collect();
            assert_eq!(results, cells.iter().map(|c| c * 3).collect::<Vec<_>>());
            assert!(out.iter().all(|o| o.attempts == 1 && !o.replayed));
        }
    }

    #[test]
    fn panics_retry_under_the_policy_and_isolate_the_cell() {
        let calls = AtomicU32::new(0);
        let out = run_supervised(vec![0u32, 1, 2], 2, QUICK, None, |&c, attempt| {
            if c == 1 {
                calls.fetch_add(1, Ordering::SeqCst);
                panic!("cell {c} attempt {attempt}");
            }
            if c == 2 && attempt < 2 {
                return Err(format!("transient {attempt}"));
            }
            Ok(c)
        });
        assert_eq!(calls.load(Ordering::SeqCst), 3, "all three attempts ran");
        assert_eq!(out[0].result, Ok(0));
        assert_eq!(out[0].attempts, 1);
        assert_eq!(out[1].result, Err("cell 1 attempt 3".to_string()));
        assert_eq!(out[1].attempts, 3);
        assert_eq!(out[2].result, Ok(2), "an Err retries like a panic");
        assert_eq!(out[2].attempts, 2);
    }

    #[test]
    fn retry_policy_knob_controls_attempt_budget() {
        let calls = AtomicU32::new(0);
        let policy = RetryPolicy::with_attempts(3, Duration::from_millis(0));
        let outcomes = run_supervised(vec![0u32], 1, policy, None, |_, _| {
            let n = calls.fetch_add(1, Ordering::SeqCst) + 1;
            if n < 3 {
                panic!("flaky until third attempt");
            }
            Ok::<_, String>(n)
        });
        match &outcomes[0].result {
            Ok(result) => assert_eq!(*result, 3),
            Err(message) => panic!("policy exhausted early: {message}"),
        }
        assert_eq!(
            outcomes[0].attempts, 3,
            "a 3-attempt policy survives two panics"
        );
    }

    #[test]
    fn store_replays_parsed_records_and_records_only_live_successes() {
        let store = MemStore::default();
        store.record("cell-0", "100");
        store.record("cell-1", "corrupt");
        let out = run_supervised(
            vec![0u32, 1, 2],
            1,
            QUICK,
            Some(&replay(&store)),
            |&c, _| {
                if c == 2 {
                    Err("always".to_string())
                } else {
                    Ok(c + 10)
                }
            },
        );
        assert_eq!(out[0].result, Ok(100), "replayed, not re-run");
        assert!(out[0].replayed);
        assert_eq!(out[0].attempts, 0);
        assert_eq!(out[1].result, Ok(11), "corrupt record runs live");
        assert!(!out[1].replayed);
        assert!(out[2].result.is_err());
        let recorded = store.0.lock().unwrap();
        assert_eq!(recorded.get("cell-1").map(String::as_str), Some("11"));
        assert_eq!(recorded.get("cell-0").map(String::as_str), Some("100"));
        assert!(
            !recorded.contains_key("cell-2"),
            "failures are not recorded"
        );
    }
}
