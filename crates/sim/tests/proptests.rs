//! Property-based tests of the simulators: conservation laws, the MOAT
//! security invariant under randomized adaptive attackers, and the
//! equivalence of the event-horizon batched security path with the
//! per-step reference.

use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{AboLevel, BankId, Nanos, RowId};
use moat_sim::{
    AttackStep, Attacker, DefenseView, PerfConfig, PerfSim, Request, ScriptedAttacker,
    SecurityConfig, SecuritySim, SemiStepped, SlotBudget,
};
use proptest::prelude::*;

/// A finite scripted kernel: cycle over a row pattern for a fixed number
/// of activations — the non-adaptive shape the batched loop accelerates.
#[derive(Debug, Clone)]
struct PatternScript {
    rows: Vec<RowId>,
    pos: usize,
    remaining: u64,
}

impl ScriptedAttacker for PatternScript {
    fn next_run(&mut self, buf: &mut Vec<RowId>, max: usize) -> usize {
        let n = (max as u64).min(self.remaining) as usize;
        for _ in 0..n {
            buf.push(self.rows[self.pos]);
            self.pos += 1;
            if self.pos == self.rows.len() {
                self.pos = 0;
            }
        }
        self.remaining -= n as u64;
        n
    }
}

/// A randomized attacker that replays a fixed decision tape: act on one
/// of a few rows, idle, or postpone.
struct TapeAttacker {
    tape: Vec<u8>,
    pos: usize,
    rows: Vec<RowId>,
}

impl Attacker for TapeAttacker {
    fn step(&mut self, _view: &DefenseView<'_>) -> AttackStep {
        if self.pos >= self.tape.len() {
            // Loop the tape; the duration bounds the run.
            self.pos = 0;
        }
        let op = self.tape[self.pos];
        self.pos += 1;
        match op % 10 {
            8 => AttackStep::Idle,
            9 => AttackStep::PostponeRef,
            r => AttackStep::Act(self.rows[usize::from(r) % self.rows.len()]),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The MOAT security invariant holds under arbitrary attacker tapes:
    /// no row's epoch ever exceeds the Appendix-A tolerated threshold.
    #[test]
    fn moat_invariant_under_random_tapes(
        tape in prop::collection::vec(0u8..10, 50..400),
        base in 1000u32..60_000
    ) {
        let mut sim = SecuritySim::new(
            SecurityConfig::paper_default(),
            Box::new(MoatEngine::new(MoatConfig::paper_default())),
        );
        let rows: Vec<RowId> = (0..8).map(|i| RowId::new(base % 60_000 + i * 6)).collect();
        let mut attacker = TapeAttacker { tape, pos: 0, rows };
        let report = sim.run(&mut attacker, Nanos::from_millis(2));
        prop_assert!(
            report.max_epoch <= 99,
            "epoch {} exceeded the tolerated threshold",
            report.max_epoch
        );
        prop_assert!(report.max_pressure <= 2 * 99, "pressure {}", report.max_pressure);
    }

    /// Conservation: the security report's activation count equals the
    /// tape's act steps (modulo the run horizon), and REFs never stop.
    #[test]
    fn security_sim_counts_are_consistent(
        tape in prop::collection::vec(0u8..10, 50..200)
    ) {
        let mut sim = SecuritySim::new(
            SecurityConfig::paper_default(),
            Box::new(MoatEngine::new(MoatConfig::paper_default())),
        );
        let rows: Vec<RowId> = (0..4).map(|i| RowId::new(30_000 + i * 6)).collect();
        let mut attacker = TapeAttacker { tape, pos: 0, rows };
        let report = sim.run(&mut attacker, Nanos::from_micros(500));
        prop_assert!(report.elapsed >= Nanos::from_micros(500));
        // 500 µs / 3900 ns ≈ 128 REFs.
        prop_assert!((120..=132).contains(&report.refs), "refs {}", report.refs);
        // Level 1 issues one RFM per ALERT; an ALERT asserted right at the
        // horizon may end the run before its RFM executes.
        prop_assert!(
            report.alerts - report.rfms <= 1,
            "alerts {} vs rfms {}",
            report.alerts,
            report.rfms
        );
    }

    /// The performance simulator executes every request exactly once and
    /// time never runs backwards, for arbitrary gap/bank/row streams.
    #[test]
    fn perf_sim_executes_all_requests(
        reqs in prop::collection::vec((0u64..500, 0u16..4, 0u32..4096), 1..2000)
    ) {
        let dram = moat_dram::DramConfig::builder().rows_per_bank(4096).build();
        let cfg = PerfConfig {
            dram,
            banks: 4,
            abo_level: moat_dram::AboLevel::L1,
            budget: SlotBudget::paper_default(),
            alerts_enabled: true,
        };
        let n = reqs.len() as u64;
        let stream = reqs.into_iter().map(|(gap, bank, row)| Request {
            gap: Nanos::new(gap),
            bank: BankId::new(bank),
            row: RowId::new(row),
        });
        let mut sim = PerfSim::new(cfg, || {
            Box::new(MoatEngine::new(MoatConfig::paper_default()))
        });
        let report = sim.run(stream);
        prop_assert_eq!(report.total_acts, n);
        prop_assert!(report.completion_time > Nanos::ZERO);
        // Level-1 accounting: RFMs equal ALERTs.
        prop_assert_eq!(report.rfms, report.alerts);
    }

    /// ALERT-disabled runs are never slower than ALERT-enabled runs of
    /// the same stream (stalls only add time).
    #[test]
    fn alerts_never_speed_things_up(
        seed_rows in prop::collection::vec(0u32..64, 10..50)
    ) {
        let dram = moat_dram::DramConfig::builder().rows_per_bank(4096).build();
        let mk = |alerts: bool| PerfConfig {
            dram,
            banks: 1,
            abo_level: moat_dram::AboLevel::L1,
            budget: SlotBudget::paper_default(),
            alerts_enabled: alerts,
        };
        // A hammering stream guaranteed to trigger ALERTs.
        let stream = |_| {
            let rows = seed_rows.clone();
            (0..8000usize).map(move |i| Request {
                gap: Nanos::ZERO,
                bank: BankId::new(0),
                row: RowId::new(2048 + rows[i % rows.len()] % 8),
            })
        };
        let with = PerfSim::new(mk(true), || {
            Box::new(MoatEngine::new(MoatConfig::paper_default()))
        })
        .run(stream(0));
        let without = PerfSim::new(mk(false), || {
            Box::new(MoatEngine::new(MoatConfig::paper_default()))
        })
        .run(stream(0));
        prop_assert!(with.completion_time >= without.completion_time);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SecuritySim analogue of `chunk_equivalence`: for random
    /// kernels, ABO levels, mitigation budgets, thresholds, and horizons,
    /// the event-horizon batched path produces a `SecurityReport`
    /// bit-identical to the per-step reference over the same script.
    #[test]
    fn batched_matches_per_step(
        base in 100u32..60_000,
        spacings in prop::collection::vec(1u32..12, 1..6),
        total in 500u64..6_000,
        level_idx in 0usize..3,
        budget_kind in 0u8..3,
        budget_trefi in 1u32..10,
        ath_idx in 0usize..3,
        alerts_coin in 0u8..2,
        micros in 100u64..1500,
    ) {
        let level = AboLevel::ALL[level_idx];
        let ath = [32u32, 64, 128][ath_idx];
        let budget = match budget_kind {
            0 => SlotBudget::paper_default(),
            1 => SlotBudget::disabled(),
            _ => SlotBudget::per_aggressor(5, budget_trefi),
        };
        let mut cfg = SecurityConfig::paper_default();
        cfg.abo_level = level;
        cfg.budget = budget;
        cfg.alerts_enabled = alerts_coin == 1;

        // Clustered rows (cumulative small spacings) stress the ledger's
        // blast radius and the tracker's displacement paths.
        let mut rows = Vec::new();
        let mut row = base;
        for s in &spacings {
            rows.push(RowId::new(row));
            row += s;
        }
        let script = PatternScript { rows, pos: 0, remaining: total };
        let duration = Nanos::from_micros(micros);

        let engine = || MoatEngine::new(MoatConfig::with_ath(ath).level(level));
        let mut per_step = SecuritySim::new(cfg, engine());
        let expect = per_step.run(&mut SemiStepped::new(script.clone()), duration);
        let mut batched = SecuritySim::new(cfg, engine());
        let got = batched.run_semi_scripted(&mut script.clone(), duration);
        prop_assert_eq!(got, expect);
    }

    /// Batched ≡ per-step holds for the Panopticon family too — the
    /// engines whose `min_acts_to_alert` is the queue's threshold
    /// distance. Small queues and thresholds make overflow ALERTs (and,
    /// for the drain variant, REF-triggered drain ALERTs) frequent inside
    /// the run.
    #[test]
    fn batched_matches_per_step_for_panopticon(
        base in 100u32..60_000,
        spacings in prop::collection::vec(1u32..12, 1..8),
        total in 500u64..6_000,
        level_idx in 0usize..3,
        entries in 1usize..5,
        threshold in 4u32..40,
        drain_coin in 0u8..2,
        micros in 100u64..1500,
    ) {
        use moat_trackers::{PanopticonConfig, PanopticonEngine};

        let mut cfg = SecurityConfig::paper_default();
        cfg.abo_level = AboLevel::ALL[level_idx];

        let mut rows = Vec::new();
        let mut row = base;
        for s in &spacings {
            rows.push(RowId::new(row));
            row += s;
        }
        let script = PatternScript { rows, pos: 0, remaining: total };
        let duration = Nanos::from_micros(micros);
        let pano = PanopticonConfig {
            queue_entries: entries,
            queue_threshold: threshold,
            drain_on_ref: drain_coin == 1,
        };

        let mut per_step = SecuritySim::new(cfg, PanopticonEngine::new(pano));
        let expect = per_step.run(&mut SemiStepped::new(script.clone()), duration);
        let mut batched = SecuritySim::new(cfg, PanopticonEngine::new(pano));
        let got = batched.run_semi_scripted(&mut script.clone(), duration);
        prop_assert_eq!(got, expect);
    }

    /// Batched ≡ per-step for *every* engine in the registry zoo. The
    /// batched path trusts each engine's `min_acts_to_alert` horizon to
    /// skip per-ACT polling; any unsound bound (ABACuS's shared RACs,
    /// CoMeT's stale sketch maxima, DSAC's stochastic counters,
    /// CnC-PRAC's coalesced queue) would surface here as report drift
    /// on clustered random scripts.
    #[test]
    fn batched_matches_per_step_for_the_zoo(
        base in 100u32..60_000,
        spacings in prop::collection::vec(1u32..12, 1..6),
        total in 500u64..4_000,
        level_idx in 0usize..3,
        micros in 100u64..900,
    ) {
        let mut cfg = SecurityConfig::paper_default();
        cfg.abo_level = AboLevel::ALL[level_idx];

        let mut rows = Vec::new();
        let mut row = base;
        for s in &spacings {
            rows.push(RowId::new(row));
            row += s;
        }
        let script = PatternScript { rows, pos: 0, remaining: total };
        let duration = Nanos::from_micros(micros);

        for spec in moat_trackers::registry::ENGINES {
            for variant in spec.variants {
                let mut per_step = SecuritySim::new(cfg, (variant.build)());
                let expect = per_step.run(&mut SemiStepped::new(script.clone()), duration);
                let mut batched = SecuritySim::new(cfg, (variant.build)());
                let got = batched.run_semi_scripted(&mut script.clone(), duration);
                prop_assert_eq!(got, expect, "{}/{}", spec.name, variant.label);
            }
        }
    }
}
