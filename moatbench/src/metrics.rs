//! Metric names and units, and the per-layer metrics shared by the two
//! PerfSim workloads.

use moat_trackers::registry::ENGINES;

use crate::battery::{engine_layer, ATTACKS};
use crate::layers::{ratio, Spans};
use crate::{Cell, Check, Pass, Report};

/// End-to-end metrics of an untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("acts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("slowdown_err_pp", "pp"),
];

/// Per-layer metrics of a traced run that are not per engine or per
/// attacker: (name, unit).
const LAYERS: [(&str, &str); 21] = [
    ("workloads.gen_ns_per_req", "ns"),
    ("trace.record_ns_per_req", "ns"),
    ("trace.open_s", "s"),
    ("trace.decode_ns_per_req", "ns"),
    ("sim.perf.ns_per_act", "ns"),
    ("sim.perf.chunk_speedup", "x"),
    ("sim.perf.acts", "count"),
    ("sim.perf.alerts", "count"),
    ("sim.perf.rfms", "count"),
    ("dram.bank.ns_per_act", "ns"),
    ("dram.ledger.ns_per_act", "ns"),
    ("core.moat.ns_per_act", "ns"),
    ("sim.unit.ns_per_act", "ns"),
    ("sim.security.ns_per_act", "ns"),
    ("sim.security.step_speedup", "x"),
    ("sim.security.acts_per_grant", "acts"),
    ("sim.security.grants", "count"),
    ("sim.security.acts", "count"),
    ("sim.security.alerts", "count"),
    ("sim.security.rfms", "count"),
    ("bench.trace_overhead", "ratio"),
];

/// Every per-layer metric a traced run emits, in output order: (name,
/// unit). A workload reports 0 for a layer it bypasses.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for spec in ENGINES {
        let layer = engine_layer(spec.name);
        out.push((format!("{layer}.cell_ns_per_act"), "ns"));
        out.push((format!("{layer}.acts_per_grant"), "acts"));
        out.push((format!("{layer}.alerts_per_macts"), "1/Macts"));
    }
    for attack in ATTACKS {
        out.push((format!("attacks.{attack}.publish_ns_per_act"), "ns"));
        out.push((format!("attacks.{attack}.acts_per_grant"), "acts"));
    }
    out
}

/// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The layers of a PerfSim workload: request generation, trace record,
/// open and decode (`replay` only), the simulator's self time, the
/// chunked-vs-per-request speedup and the exact counts.
pub fn perf_layers(
    spans: &Spans,
    checks: &[Check],
    reference: &Pass,
    replay: bool,
) -> Vec<(String, f64)> {
    let all = |_: &str| true;
    let gen = spans.total("workloads.gen", all);
    let record = spans.total("trace.record", all);
    let open = spans.total("trace.open", all);
    let stream = spans.total("stream", all);
    let cell = spans.total("cell", all);
    let timed = checks.iter().filter(|c| c.fast_ns > 0);
    let (slow_ns, fast_ns) = timed.fold((0u64, 0u64), |(s, f), c| {
        (s + c.reference_ns, f + c.fast_ns)
    });
    let count = |f: fn(&Report) -> u64| -> f64 {
        reference
            .cells
            .iter()
            .filter_map(Cell::report)
            .map(f)
            .sum::<u64>() as f64
    };
    vec![
        ("workloads.gen_ns_per_req".into(), gen.ns_per_unit()),
        (
            "trace.record_ns_per_req".into(),
            ratio(record.ns.saturating_sub(gen.ns) as f64, record.units as f64),
        ),
        ("trace.open_s".into(), open.ns as f64 / 1e9),
        (
            "trace.decode_ns_per_req".into(),
            if replay { stream.ns_per_unit() } else { 0.0 },
        ),
        (
            "sim.perf.ns_per_act".into(),
            ratio(cell.ns.saturating_sub(stream.ns) as f64, cell.units as f64),
        ),
        (
            "sim.perf.chunk_speedup".into(),
            ratio(slow_ns as f64, fast_ns as f64),
        ),
        ("sim.perf.acts".into(), count(Report::acts)),
        ("sim.perf.alerts".into(), count(Report::alerts)),
        ("sim.perf.rfms".into(), count(Report::rfms)),
    ]
}
