//! Criterion micro-benchmarks of the hot paths.
//!
//! The kernels the simulator throughput is made of:
//!
//! 1. `bank/activate_plus_ledger` — `Bank::activate` plus the ground-truth
//!    `SecurityLedger::on_activate` blast-radius pass,
//! 2. `precharge_hook/moat_l1` — `MoatEngine::on_precharge_update`, the
//!    fused single-scan tracker update,
//! 3. `perf_sim/run_32bank_*` — the full `PerfSim::run` loop on a 32-bank
//!    uniform stream, monomorphized (`PerfSim<MoatEngine>`) next to the
//!    boxed dynamic-dispatch form and the unbatched per-request reference,
//! 4. `request_gen/*` — `WorkloadStream` generation through the batched
//!    `next_chunk` front-end versus per-request pulls,
//! 5. `work_queue/*` — the rayon shim's chunked lock-free queue versus
//!    the retired per-index-mutex queue, at a pinned worker count,
//! 6. `security_step/*` — the security simulator's per-step priority
//!    match versus the event-horizon batched path, and the flattened ABO
//!    episode versus the stateful per-RFM state machine.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{
    AboLevel, AboProtocol, ActCount, Bank, DramConfig, DramTiming, MitigationEngine, Nanos, RowId,
    SecurityLedger,
};
use moat_sim::{
    hammer_attacker, PerfConfig, PerfSim, RequestStream, SecurityConfig, SecuritySim, SemiStepped,
};
use moat_trackers::{PanopticonConfig, PanopticonEngine};
use moat_workloads::{GeneratorConfig, WorkloadProfile, WorkloadStream};

fn bench_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("precharge_hook");
    g.throughput(Throughput::Elements(1));

    g.bench_function("moat_l1", |b| {
        let mut e = MoatEngine::new(MoatConfig::paper_default());
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            e.on_precharge_update(RowId::new(i % 4096), ActCount::new(i % 63));
            black_box(e.alert_pending())
        });
    });

    g.bench_function("panopticon", |b| {
        let mut e = PanopticonEngine::new(PanopticonConfig::paper_default());
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            e.on_precharge_update(RowId::new(i % 4096), ActCount::new(i));
            if e.queue_len() == 8 {
                let _ = e.select_ref_mitigation();
            }
            black_box(e.alert_pending())
        });
    });
    g.finish();
}

fn bench_bank(c: &mut Criterion) {
    let mut g = c.benchmark_group("bank");
    g.throughput(Throughput::Elements(1));
    g.bench_function("activate", |b| {
        let cfg = DramConfig::paper_baseline();
        b.iter_batched(
            || Bank::new(&cfg),
            |mut bank| {
                let mut now = Nanos::ZERO;
                for i in 0..64u32 {
                    bank.activate(RowId::new(i * 17 % 65536), now).unwrap();
                    now += cfg.timing.t_rc;
                }
                bank
            },
            BatchSize::SmallInput,
        );
    });

    // Hot kernel 1: bank activation plus the ledger's blast-radius pass —
    // exactly what `BankUnit::activate` pays per simulated ACT.
    g.throughput(Throughput::Elements(64));
    g.bench_function("activate_plus_ledger", |b| {
        let cfg = DramConfig::paper_baseline();
        b.iter_batched(
            || (Bank::new(&cfg), SecurityLedger::new(&cfg)),
            |(mut bank, mut ledger)| {
                let mut now = Nanos::ZERO;
                for i in 0..64u32 {
                    let row = RowId::new(i * 17 % 65536);
                    bank.activate(row, now).unwrap();
                    ledger.on_activate(row);
                    now += cfg.timing.t_rc;
                }
                (bank, ledger)
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

// Hot kernel 3: the full performance-simulator loop on a 32-bank uniform
// stream (shared with `repro --json` via `moat_bench::uniform_stream`) —
// monomorphized versus boxed dispatch.
use moat_bench::uniform_stream;
fn bench_perf_sim(c: &mut Criterion) {
    let mk_cfg = || PerfConfig::paper_default();
    const ACTS: u32 = 50_000;

    let mut g = c.benchmark_group("perf_sim");
    g.sample_size(10);
    g.throughput(Throughput::Elements(u64::from(ACTS)));

    g.bench_function("run_32bank_mono", |b| {
        b.iter(|| {
            let mut sim = PerfSim::new(mk_cfg(), || MoatEngine::new(MoatConfig::paper_default()));
            sim.run(uniform_stream(ACTS, 32))
        });
    });

    g.bench_function("run_32bank_boxed", |b| {
        b.iter(|| {
            let mut sim = PerfSim::new(mk_cfg(), || {
                Box::new(MoatEngine::new(MoatConfig::paper_default())) as Box<dyn MitigationEngine>
            });
            sim.run(uniform_stream(ACTS, 32))
        });
    });

    g.bench_function("run_32bank_per_request", |b| {
        b.iter(|| {
            let mut sim = PerfSim::new(mk_cfg(), || MoatEngine::new(MoatConfig::paper_default()));
            sim.run_per_request(uniform_stream(ACTS, 32))
        });
    });
    g.finish();
}

// Hot kernel 4: workload-stream generation — the chunked front-end
// (`next_chunk` into a reusable buffer) against per-request pulls.
fn bench_request_gen(c: &mut Criterion) {
    let profile = WorkloadProfile::by_name("gcc").expect("known profile");
    let dram = DramConfig::paper_baseline();
    let gen = GeneratorConfig {
        banks: 2,
        windows: 1,
        seed: 7,
    };
    let stream_len = {
        let mut s = WorkloadStream::new(profile, &dram, gen);
        let mut n = 0u64;
        while s.next_request().is_some() {
            n += 1;
        }
        n
    };

    let mut g = c.benchmark_group("request_gen");
    g.sample_size(20);
    g.throughput(Throughput::Elements(stream_len));

    g.bench_function("next_request", |b| {
        b.iter(|| {
            let mut s = WorkloadStream::new(profile, &dram, gen);
            let mut n = 0u64;
            while let Some(r) = s.next_request() {
                n += u64::from(r.row.index() & 1);
            }
            black_box(n)
        });
    });

    g.bench_function("next_chunk", |b| {
        b.iter(|| {
            let mut s = WorkloadStream::new(profile, &dram, gen);
            let mut buf = Vec::with_capacity(1024);
            let mut n = 0u64;
            while s.next_chunk(&mut buf) > 0 {
                for r in &buf {
                    n += u64::from(r.row.index() & 1);
                }
            }
            black_box(n)
        });
    });
    g.finish();
}

// Hot kernel 5: the sweep runner's work queue — the chunked lock-free
// claim/stitch protocol versus the retired per-index-mutex queue, with
// the worker count pinned so single-core hosts still exercise the
// parallel paths.
fn bench_work_queue(c: &mut Criterion) {
    const ITEMS: usize = 8192;
    const THREADS: usize = 4;
    let items: Vec<u64> = (0..ITEMS as u64).collect();
    // A cell-sized unit of work: small enough that queue overhead shows.
    let work = |x: u64| -> u64 {
        let mut acc = x;
        for _ in 0..64 {
            acc = acc
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        acc
    };

    let mut g = c.benchmark_group("work_queue");
    g.sample_size(20);
    g.throughput(Throughput::Elements(ITEMS as u64));

    g.bench_function("chunked_lock_free", |b| {
        b.iter_batched(
            || items.clone(),
            |items| rayon::queue::chunked_map(items, work, THREADS),
            BatchSize::SmallInput,
        );
    });

    g.bench_function("per_index_mutex", |b| {
        b.iter_batched(
            || items.clone(),
            |items| rayon::queue::mutex_map(items, work, THREADS),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_security_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("security_sim");
    g.sample_size(20);
    g.bench_function("hammer_100us_mono", |b| {
        b.iter(|| {
            let mut sim = SecuritySim::new(
                SecurityConfig::paper_default(),
                MoatEngine::new(MoatConfig::paper_default()),
            );
            sim.run(&mut hammer_attacker(30_000), Nanos::from_micros(100))
        });
    });
    g.bench_function("hammer_100us_boxed", |b| {
        b.iter(|| {
            let mut sim = SecuritySim::new(
                SecurityConfig::paper_default(),
                Box::new(MoatEngine::new(MoatConfig::paper_default())) as Box<dyn MitigationEngine>,
            );
            sim.run(&mut hammer_attacker(30_000), Nanos::from_micros(100))
        });
    });
    g.finish();
}

// Hot kernel 6: the security simulator's per-step priority match versus
// the event-horizon batched path on the same scripted attack, plus the
// flattened ABO episode against the stateful per-RFM state machine.
fn bench_security_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("security_step");
    g.sample_size(10);
    const DURATION: Nanos = Nanos::from_millis(1);
    // ~1 ms of hammering at 52 ns/ACT minus episode stalls.
    g.throughput(Throughput::Elements(16_500));

    g.bench_function("per_step_hammer_1ms", |b| {
        b.iter(|| {
            let mut sim = SecuritySim::new(
                SecurityConfig::paper_default(),
                MoatEngine::new(MoatConfig::paper_default()),
            );
            sim.run(&mut SemiStepped::new(hammer_attacker(30_000)), DURATION)
        });
    });
    g.bench_function("batched_hammer_1ms", |b| {
        b.iter(|| {
            let mut sim = SecuritySim::new(
                SecurityConfig::paper_default(),
                MoatEngine::new(MoatConfig::paper_default()),
            );
            sim.run_semi_scripted(&mut hammer_attacker(30_000), DURATION)
        });
    });

    // One complete L4 episode (assert → window → 4 RFMs) per element:
    // the stateful per-RFM chain against the flattened arithmetic step.
    let timing = DramTiming::ddr5_prac();
    g.throughput(Throughput::Elements(1));
    g.bench_function("abo_episode_stateful", |b| {
        let mut abo = AboProtocol::new(AboLevel::L4, timing);
        let mut now = Nanos::ZERO;
        b.iter(|| {
            let mut t = abo.assert_alert(black_box(now)).unwrap();
            for _ in 0..4 {
                t = black_box(&mut abo).start_rfm(t).unwrap();
            }
            abo.on_acts(4);
            now = black_box(t) + Nanos::new(208);
            now
        });
    });
    g.bench_function("abo_episode_flattened", |b| {
        let mut abo = AboProtocol::new(AboLevel::L4, timing);
        let mut now = Nanos::ZERO;
        b.iter(|| {
            let stall = abo.assert_alert(black_box(now)).unwrap();
            let t = black_box(&mut abo).complete_episode(stall).unwrap();
            abo.on_acts(4);
            now = black_box(t) + Nanos::new(208);
            now
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_engines,
    bench_bank,
    bench_perf_sim,
    bench_request_gen,
    bench_work_queue,
    bench_security_sim,
    bench_security_step
);
criterion_main!(benches);
