//! The fleet's determinism contract, pinned.
//!
//! 1. The merged report is byte-identical for *any* shard submission
//!    order and worker thread count (proptest over random permutations).
//! 2. Chaos: a pinned crash plan produces the *same* degraded report on
//!    every run — quarantine is a deterministic outcome, not a race.
//! 3. Resume: replaying recorded shards from a store merges
//!    byte-identically with computing them live.
//! 4. Telemetry: the metrics registry derived from the merged report
//!    (and its text/JSON renders) inherits the same bit-identity across
//!    shard order, thread count, and resume splits.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use moat_fleet::{
    FleetConfig, FleetFaultPlan, FleetSupervisor, FleetTopology, RetryPolicy, ShardStore,
};
use moat_telemetry::TelemetrySink;
use proptest::prelude::*;

/// A small fleet that still exercises multi-level topology and several
/// tenants per shard.
fn small_config(seed: u64) -> FleetConfig {
    let mut config = FleetConfig::new(FleetTopology::with_shards(8), 24, 48, seed);
    config.retry = RetryPolicy {
        base_backoff: Duration::from_millis(0),
        ..RetryPolicy::fleet_default()
    };
    config
}

/// Sorts shard indices by random keys — a permutation driven entirely
/// by proptest's input, so shrinking stays meaningful.
fn permutation(keys: &[u64], shards: u32) -> Vec<u32> {
    let mut order: Vec<u32> = (0..shards).collect();
    order.sort_by_key(|&i| keys.get(i as usize).copied().unwrap_or(u64::from(i)));
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn merged_report_is_bit_identical_across_order_and_threads(
        keys in prop::collection::vec(0u64..u64::MAX, 8),
        threads in 1usize..5,
        seed in 1u64..1_000_000,
    ) {
        let config = small_config(seed);
        let sup = FleetSupervisor::new(config);
        let natural: Vec<u32> = (0..8).collect();
        let (reference, _) = sup.run_with(&natural, 1, None);
        let order = permutation(&keys, 8);
        let (shuffled, _) = sup.run_with(&order, threads, None);
        prop_assert_eq!(reference.render(), shuffled.render());
        prop_assert_eq!(
            reference.render_telemetry(TelemetrySink::Text),
            shuffled.render_telemetry(TelemetrySink::Text)
        );
        prop_assert_eq!(
            reference.render_telemetry(TelemetrySink::Json),
            shuffled.render_telemetry(TelemetrySink::Json)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn degraded_report_is_bit_identical_across_order_and_threads(
        keys in prop::collection::vec(0u64..u64::MAX, 8),
        threads in 1usize..4,
    ) {
        // A pinned fault spec: half the shards crash with varying depth,
        // so the run mixes completed, recovered, and quarantined shards.
        let faults = FleetFaultPlan::parse("seed=1312,crash=0.5,slow=0.25,poison=0.25").unwrap();
        let config = small_config(0xD15EA5E).with_faults(faults);
        let sup = FleetSupervisor::new(config);
        let natural: Vec<u32> = (0..8).collect();
        let (reference, _) = sup.run_with(&natural, 1, None);
        let order = permutation(&keys, 8);
        let (shuffled, _) = sup.run_with(&order, threads, None);
        prop_assert_eq!(reference.render(), shuffled.render());
        prop_assert_eq!(
            reference.render_telemetry(TelemetrySink::Json),
            shuffled.render_telemetry(TelemetrySink::Json)
        );
    }
}

#[test]
fn crashed_shard_quarantines_deterministically_and_degrades_the_run() {
    // crash=1 makes every shard crash with a depth drawn in
    // 1..=max_attempts+1: with 8 shards some depths exceed the retry
    // budget, so the run must contain quarantined shards — and complete.
    let faults = FleetFaultPlan::parse("seed=97,crash=1").unwrap();
    let config = small_config(0xC0FFEE).with_faults(faults);
    let sup = FleetSupervisor::new(config);

    let (first, _) = sup.run_with(&(0..8).collect::<Vec<u32>>(), 2, None);
    let (second, _) = sup.run_with(&(0..8).collect::<Vec<u32>>(), 3, None);

    assert_eq!(
        first.render(),
        second.render(),
        "a degraded run must be reproducible"
    );
    assert!(
        first.degraded(),
        "crash=1 must quarantine at least one shard"
    );
    assert!(first.quarantined > 0);
    assert!(
        first.completed + first.recovered > 0,
        "siblings of quarantined shards still complete"
    );
    assert!(first.coverage() < 1.0);
    let rendered = first.render();
    assert!(rendered.contains("[DEGRADED]"));
    assert!(
        rendered.contains("quarantined-crash"),
        "the incident log must name the quarantine:\n{rendered}"
    );
    assert!(
        first.recovered > 0,
        "some crash depths are shallow enough for retry to recover"
    );
    assert!(rendered.contains("retry-recovered"));
}

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

#[test]
fn interrupted_run_resumes_to_the_same_report() {
    // The second plan is `repro fleet`'s chaos smoke plan. Under both,
    // a shard the partial resume replays recovered on retry, so its
    // record must carry the attempt that succeeded.
    for spec in ["seed=7,crash=0.4,poison=0.3", "seed=97,crash=0.4"] {
        let faults = FleetFaultPlan::parse(spec).unwrap();
        let config = small_config(0xAB1E).with_faults(faults);
        let sup = FleetSupervisor::new(config);
        let order: Vec<u32> = (0..8).collect();

        let complete_store = MemStore::default();
        let (uninterrupted, _) = sup.run_with(&order, 2, Some(&complete_store));

        // Simulate an interruption: only the even shards' records
        // survived to the checkpoint.
        let survived = |index: u32| index.is_multiple_of(2);
        let partial = MemStore::default();
        for index in order.iter().copied().filter(|&i| survived(i)) {
            let name = format!("shard-{index:05}");
            if let Some(record) = complete_store.lookup(&name) {
                partial.record(&name, &record);
            }
        }
        let (resumed, _) = sup.run_with(&order, 2, Some(&partial));
        // ...and a rerun after the whole run finished replays every
        // recorded shard.
        let (replayed, _) = sup.run_with(&order, 2, Some(&complete_store));
        assert_eq!(
            replayed.replayed,
            uninterrupted.completed + uninterrupted.recovered
        );
        for run in [&resumed, &replayed] {
            assert_eq!(
                uninterrupted.render(),
                run.render(),
                "resume must be invisible in the merged artifact ({spec})"
            );
            for sink in [
                TelemetrySink::Text,
                TelemetrySink::Json,
                TelemetrySink::Chrome,
            ] {
                assert_eq!(
                    uninterrupted.render_telemetry(sink),
                    run.render_telemetry(sink),
                    "resume must be invisible in the telemetry render ({spec}, {sink:?})"
                );
            }
        }
        assert!(
            uninterrupted
                .incidents
                .iter()
                .any(|i| i.kind == "retry-recovered" && survived(i.shard_index)),
            "the partial resume must replay a recovered shard ({spec})"
        );
    }
}
