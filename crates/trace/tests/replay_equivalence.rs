//! Property tests pinning the trace store's core contract: a recorded
//! stream replayed from the memory map is **bit-identical** to fresh
//! generation — request for request, and through both simulators
//! (`PerfReport` and `SecurityReport` equality).

use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{AboLevel, DramConfig, Nanos, RowId};
use moat_sim::{
    PerfConfig, PerfSim, Request, RequestStream, ScriptedAttacker, SecurityConfig, SecuritySim,
    SlotBudget, DEFAULT_CHUNK,
};
use moat_trace::{TraceCache, TraceFile, TraceReplay};
use moat_workloads::{trace_key, GeneratorConfig, WorkloadStream, PROFILES};
use proptest::prelude::*;

fn temp_cache(tag: &str) -> TraceCache {
    let dir = std::env::temp_dir().join(format!("moat-replay-eq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    TraceCache::open(dir).unwrap()
}

/// Records a profile's stream into `cache` and returns the mapped trace.
fn record(cache: &TraceCache, profile_idx: usize, cfg: GeneratorConfig) -> TraceFile {
    let profile = &PROFILES[profile_idx];
    let dram = DramConfig::paper_baseline();
    let key = trace_key(profile, &dram, cfg);
    cache
        .open_or_record(&key, || WorkloadStream::new(profile, &dram, cfg))
        .unwrap()
}

/// Drives a single-bank trace replay as a scripted attack: the rows, in
/// order, with gaps and banks dropped — the shape the batched security loop accepts.
#[derive(Debug)]
struct TraceScript<'a> {
    replay: TraceReplay<'a>,
    chunk: Vec<Request>,
    /// Unconsumed tail of the current chunk.
    pending: std::vec::IntoIter<RowId>,
}

impl<'a> TraceScript<'a> {
    fn new(trace: &'a TraceFile) -> Self {
        TraceScript {
            replay: trace.replay(),
            chunk: Vec::with_capacity(DEFAULT_CHUNK),
            pending: Vec::new().into_iter(),
        }
    }
}

impl ScriptedAttacker for TraceScript<'_> {
    fn next_run(&mut self, buf: &mut Vec<RowId>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            if let Some(row) = self.pending.next() {
                buf.push(row);
                n += 1;
                continue;
            }
            if self.replay.next_chunk(&mut self.chunk) == 0 {
                break;
            }
            let rows: Vec<RowId> = self.chunk.iter().map(|r| r.row).collect();
            self.pending = rows.into_iter();
        }
        n
    }
}

/// The generator-side equivalent of [`TraceScript`].
#[derive(Debug)]
struct StreamScript {
    stream: WorkloadStream,
}

impl ScriptedAttacker for StreamScript {
    fn next_run(&mut self, buf: &mut Vec<RowId>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.stream.next_request() {
                Some(r) => {
                    buf.push(r.row);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Request-level equivalence: the mmap replay yields exactly the
    /// sequence the live generator emits, under any chunk capacity.
    #[test]
    fn replayed_requests_match_generation(
        profile_idx in 0usize..PROFILES.len(),
        seed in 0u64..1_000,
        banks in 1u16..3,
        chunk_cap in 1usize..3000,
    ) {
        let cfg = GeneratorConfig { banks, windows: 1, seed };
        let cache = temp_cache("requests");
        let trace = record(&cache, profile_idx, cfg);

        let mut live = WorkloadStream::new(
            &PROFILES[profile_idx],
            &DramConfig::paper_baseline(),
            cfg,
        );
        let mut replay = trace.replay();
        let mut buf = Vec::with_capacity(chunk_cap);
        let mut replayed = 0u64;
        loop {
            let n = replay.next_chunk(&mut buf);
            if n == 0 {
                break;
            }
            for &r in &buf {
                prop_assert_eq!(Some(r), live.next_request());
            }
            replayed += n as u64;
        }
        prop_assert_eq!(live.next_request(), None, "replay covers the whole stream");
        prop_assert_eq!(replayed, trace.len());
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    /// Simulator-level equivalence: a `PerfSim` fed from the map reports
    /// bit-identically to one fed from the live generator, across MOAT
    /// configurations.
    #[test]
    fn perf_report_matches_generation(
        profile_idx in 0usize..PROFILES.len(),
        seed in 0u64..1_000,
        ath_idx in 0usize..3,
        level_idx in 0usize..3,
    ) {
        let gen_cfg = GeneratorConfig { banks: 2, windows: 1, seed };
        let cache = temp_cache("perf");
        let trace = record(&cache, profile_idx, gen_cfg);

        let level = AboLevel::ALL[level_idx];
        let perf_cfg = PerfConfig {
            dram: DramConfig::paper_baseline(),
            banks: 2,
            abo_level: level,
            budget: SlotBudget::paper_default(),
            alerts_enabled: true,
        };
        let moat = MoatConfig::with_ath([32, 64, 128][ath_idx]).level(level);
        let from_map = PerfSim::new(perf_cfg, || MoatEngine::new(moat)).run(trace.replay());
        let from_gen = PerfSim::new(perf_cfg, || MoatEngine::new(moat)).run(WorkloadStream::new(
            &PROFILES[profile_idx],
            &DramConfig::paper_baseline(),
            gen_cfg,
        ));
        prop_assert_eq!(from_map, from_gen);
        prop_assert_eq!(from_map.total_acts, trace.len());
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    /// Security-simulator equivalence: replaying a single-bank trace's
    /// rows as a scripted attack produces a `SecurityReport`
    /// bit-identical to scripting the generator directly.
    #[test]
    fn security_report_matches_generation(
        profile_idx in 0usize..PROFILES.len(),
        seed in 0u64..1_000,
        millis in 1u64..4,
    ) {
        let gen_cfg = GeneratorConfig { banks: 1, windows: 1, seed };
        let cache = temp_cache("security");
        let trace = record(&cache, profile_idx, gen_cfg);

        let mk = || SecuritySim::new(
            SecurityConfig::paper_default(),
            MoatEngine::new(MoatConfig::paper_default()),
        );
        let duration = Nanos::from_millis(millis);
        let from_map = mk().run_semi_scripted(&mut TraceScript::new(&trace), duration);
        let from_gen = mk().run_semi_scripted(
            &mut StreamScript {
                stream: WorkloadStream::new(
                    &PROFILES[profile_idx],
                    &DramConfig::paper_baseline(),
                    gen_cfg,
                ),
            },
            duration,
        );
        prop_assert_eq!(from_map, from_gen);
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }
}
