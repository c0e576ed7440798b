//! The benchmark's own contract: the traced run's adapters change no
//! simulated result, and every metric `BENCHMARK.json` declares is
//! emitted under a legal name.

use moatbench::layers::Spans;
use moatbench::metrics::valid_name;
use moatbench::run::{self, Scale, WORKLOADS};

const SEED: u64 = 7;

/// The `"name"` values of one array of `BENCHMARK.json` (the file is
/// flat enough that a key scan suffices).
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split("\"name\"")
        .skip(1)
        .map(|field| {
            let value = field.split('"').nth(1).expect("quoted name");
            value.to_string()
        })
        .collect()
}

#[test]
fn adapters_are_transparent() {
    for workload in WORKLOADS {
        let mut plain = run::setup(workload, SEED, Scale::SMALL, None).unwrap();
        let mut spans = Spans::default();
        let mut traced_setup = run::setup(workload, SEED, Scale::SMALL, Some(&mut spans)).unwrap();
        let reference = plain.pass(None);
        assert!(!reference.cells.is_empty(), "{workload}: empty pass");
        assert_eq!(reference.failed(), 0, "{workload}: a cell panicked");
        let traced = traced_setup.pass(Some(&mut spans));
        assert_eq!(
            traced.mismatches(&reference),
            0,
            "{workload}: traced reports differ"
        );
        assert_eq!(traced.digest(), reference.digest(), "{workload}");
        assert!(
            spans.all().iter().any(|s| s.layer == "cell"),
            "{workload}: no cell spans recorded"
        );
        // The untraced pass after setup through the adapters agrees too.
        assert_eq!(
            traced_setup.pass(None).digest(),
            reference.digest(),
            "{workload}"
        );
    }
}

#[test]
fn checks_pass_on_small_cells() {
    for workload in WORKLOADS {
        let mut bench = run::setup(workload, SEED, Scale::SMALL, None).unwrap();
        let reference = bench.pass(None);
        for check in bench.check(&reference) {
            assert!(check.ok, "{workload}: {}", check.name);
        }
    }
}

#[test]
fn every_declared_metric_is_emitted() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(!end_to_end.is_empty() && !per_layer.is_empty());
    for name in end_to_end.iter().chain(&per_layer) {
        assert!(valid_name(name), "illegal metric name {name}");
    }
    for workload in WORKLOADS {
        let measured = run::measure(workload, SEED, 0.0, Scale::SMALL).unwrap();
        let names: Vec<&str> = measured.metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(names, end_to_end, "{workload}: end-to-end names");
        assert!(measured.correct(), "{workload}: {:?}", measured.failures);
        for (name, value, _) in &measured.metrics {
            assert!(*value > 0.0, "{workload}: {name} = {value}");
        }

        let traced = run::trace(workload, SEED, Scale::SMALL).unwrap();
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(names, per_layer, "{workload}: per-layer names");
        assert!(traced.correct(), "{workload}: {:?}", traced.failures);
    }
}

#[test]
fn metric_names_are_checked() {
    for good in ["wall_s", "trackers.cnc-prac.acts_per_grant", "9x"] {
        assert!(valid_name(good), "{good}");
    }
    for bad in ["", ".x", "a b", "a/b", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad}");
    }
}
