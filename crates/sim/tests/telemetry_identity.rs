//! Telemetry's read-only contract, pinned: arming a [`Tracer`] on any
//! simulation path — per-step or batched, on either engine family — must not change a single bit of the report the
//! disarmed path produces, and two armed runs of the same cell must
//! render the same telemetry artifact byte for byte.

use moat_core::{MoatConfig, MoatEngine};
use moat_dram::Nanos;
use moat_sim::{
    hammer_attacker, Hooks, PerfConfig, PerfSim, Request, SecurityConfig, SecuritySim, SemiStepped,
};
use moat_telemetry::{TelemetryLevel, TelemetrySink, Tracer};
use moat_trackers::{PanopticonConfig, PanopticonEngine};

fn moat_sim() -> SecuritySim<MoatEngine> {
    SecuritySim::new(
        SecurityConfig::paper_default(),
        MoatEngine::new(MoatConfig::paper_default()),
    )
}

fn pano_sim() -> SecuritySim<PanopticonEngine> {
    SecuritySim::new(
        SecurityConfig::paper_default(),
        PanopticonEngine::new(PanopticonConfig::paper_default()),
    )
}

const DURATION: Nanos = Nanos::from_millis(2);

/// Every (protocol × engine) cell: the armed-tracer report equals the
/// disarmed report bit for bit, and the tracer saw real boundaries.
#[test]
fn armed_tracer_never_changes_the_security_report() {
    // Per-step, MOAT and Panopticon.
    let baseline = moat_sim().run(&mut SemiStepped::new(hammer_attacker(30_000)), DURATION);
    let mut hooks = Hooks::default().with_tel(Tracer::full());
    let traced = moat_sim().run_with(
        &mut SemiStepped::new(hammer_attacker(30_000)),
        DURATION,
        &mut hooks,
    );
    assert_eq!(
        baseline, traced,
        "per-step/moat report changed under tracing"
    );
    assert!(hooks.tel.boundaries() > 0, "armed tracer saw no boundaries");
    assert!(hooks.tel.profile().total_ns() > 0, "no time was attributed");

    let baseline = pano_sim().run(&mut SemiStepped::new(hammer_attacker(30_000)), DURATION);
    let traced = pano_sim().run_with(
        &mut SemiStepped::new(hammer_attacker(30_000)),
        DURATION,
        &mut Hooks::default().with_tel(Tracer::full()),
    );
    assert_eq!(
        baseline, traced,
        "per-step/pano report changed under tracing"
    );

    // Batched (scripted attackers ride the blanket semi-scripted impl),
    // both engines.
    let baseline = moat_sim().run_semi_scripted(&mut hammer_attacker(30_000), DURATION);
    let traced = moat_sim().run_semi_scripted_with(
        &mut hammer_attacker(30_000),
        DURATION,
        &mut Hooks::default().with_tel(Tracer::full()),
    );
    assert_eq!(
        baseline, traced,
        "batched/moat report changed under tracing"
    );

    let baseline = pano_sim().run_semi_scripted(&mut hammer_attacker(30_000), DURATION);
    let traced = pano_sim().run_semi_scripted_with(
        &mut hammer_attacker(30_000),
        DURATION,
        &mut Hooks::default().with_tel(Tracer::full()),
    );
    assert_eq!(
        baseline, traced,
        "batched/pano report changed under tracing"
    );
}

/// The perf simulator: tracing the chunked stream path leaves the
/// report bit-identical too.
#[test]
fn armed_tracer_never_changes_the_perf_report() {
    let stream = || {
        (0..50_000u32).map(|i| Request {
            gap: Nanos::new(2),
            bank: moat_dram::BankId::new((i % 8) as u16),
            row: moat_dram::RowId::new(i.wrapping_mul(2654435761) % 65_536),
        })
    };
    let config = PerfConfig {
        banks: 8,
        ..PerfConfig::paper_default()
    };
    let baseline =
        PerfSim::new(config, || MoatEngine::new(MoatConfig::paper_default())).run(stream());
    let mut tracer = Tracer::full();
    let traced = PerfSim::new(config, || MoatEngine::new(MoatConfig::paper_default()))
        .run_traced(stream(), &mut tracer);
    assert_eq!(baseline, traced, "perf report changed under tracing");
    assert!(tracer.boundaries() > 0);
    assert!(tracer.profile().total_ns() > 0);
}

/// Two armed runs of the same cell render the same telemetry artifact
/// byte for byte, on every sink — telemetry is keyed to sim time, never
/// the host clock.
#[test]
fn armed_renders_are_bit_identical_across_runs() {
    let trace_once = || {
        let mut hooks = Hooks::default().with_tel(Tracer::new(TelemetryLevel::Full));
        moat_sim().run_semi_scripted_with(&mut hammer_attacker(30_000), DURATION, &mut hooks);
        hooks.tel
    };
    let first = trace_once();
    let second = trace_once();
    for sink in [
        TelemetrySink::Text,
        TelemetrySink::Json,
        TelemetrySink::Chrome,
    ] {
        assert_eq!(
            first.render(sink),
            second.render(sink),
            "armed render drifted across runs ({sink:?})"
        );
    }
}
