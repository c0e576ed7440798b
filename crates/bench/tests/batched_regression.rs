//! The batched issue pipeline must be invisible in the results: for real
//! workload streams across profiles and ABO levels, `PerfSim::run`
//! (chunked, prefetching) and `PerfSim::run_per_request` (the reference
//! loop) must produce bit-identical `PerfReport`s.

use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{AboLevel, DramConfig};
use moat_sim::{PerfConfig, PerfReport, PerfSim, SlotBudget};
use moat_workloads::{GeneratorConfig, WorkloadProfile, WorkloadStream};

fn config(level: AboLevel) -> PerfConfig {
    PerfConfig {
        dram: DramConfig::paper_baseline(),
        banks: 2,
        abo_level: level,
        budget: SlotBudget::paper_default(),
        alerts_enabled: true,
    }
}

fn stream(profile: &WorkloadProfile) -> WorkloadStream {
    let gen = GeneratorConfig {
        banks: 2,
        windows: 1,
        seed: 0xA0A7,
    };
    WorkloadStream::new(profile, &DramConfig::paper_baseline(), gen)
}

fn run_chunked(profile: &WorkloadProfile, level: AboLevel, chunk: usize) -> PerfReport {
    let mut sim = PerfSim::new(config(level), || {
        MoatEngine::new(MoatConfig::paper_default())
    });
    sim.set_chunk_size(chunk);
    sim.run(stream(profile))
}

fn run_reference(profile: &WorkloadProfile, level: AboLevel) -> PerfReport {
    let mut sim = PerfSim::new(config(level), || {
        MoatEngine::new(MoatConfig::paper_default())
    });
    sim.run_per_request(stream(profile))
}

/// Three profiles spanning the activation-intensity range (hot, medium,
/// light) × two ABO levels, each checked at several chunk sizes. The
/// f64 rate fields of `PerfReport` participate via `PartialEq`, so this
/// is bit-level equality on every metric the experiments report.
#[test]
fn batched_reports_match_per_request_reports() {
    let profiles = ["roms", "gcc", "x264"];
    let levels = [AboLevel::L1, AboLevel::L4];
    for name in profiles {
        let profile = WorkloadProfile::by_name(name).expect("known profile");
        for level in levels {
            let expect = run_reference(profile, level);
            assert!(expect.total_acts > 10_000, "{name}: stream too small");
            for chunk in [1usize, 33, 1024] {
                let got = run_chunked(profile, level, chunk);
                assert_eq!(
                    got, expect,
                    "{name} at level {level:?} with chunk {chunk} diverged"
                );
            }
        }
    }
}

/// The ALERT-heavy path (attack kernels) through the streaming kernel
/// front-end also matches the reference loop.
#[test]
fn batched_attack_kernels_match_per_request() {
    use moat_attacks::{single_row_stream, sync_multibank_stream};

    let mk = || {
        PerfSim::new(config(AboLevel::L1), || {
            MoatEngine::new(MoatConfig::paper_default())
        })
    };
    let expect = mk().run_per_request(single_row_stream(30_000, 0, 9_000));
    let got = mk().run(single_row_stream(30_000, 0, 9_000));
    assert_eq!(got, expect, "single-row kernel diverged");

    let rows = [100u32, 200, 300];
    let expect = mk().run_per_request(sync_multibank_stream(4_000, 2, &rows));
    let got = mk().run(sync_multibank_stream(4_000, 2, &rows));
    assert_eq!(got, expect, "synchronized multibank kernel diverged");
}
