//! Recovery equivalence pins (PR 8 satellite):
//!
//! 1. A **disarmed** guard ([`NoGuard`]) is bit-identical to a
//!    fault-only [`Hooks`] bundle across per-step / batched scripted /
//!    semi-scripted × both engines — the guard hook constant-folds.
//! 2. An **armed detect-only** guard (no scrub, no fallback) is
//!    invisible on a clean run: only the engine's shadow state changes,
//!    never the simulated trajectory. (A *scrubbing* guard is allowed
//!    to differ on clean runs — a scrub lowers legitimately-conservative
//!    tracked counts to the in-array truth — so it is deliberately not
//!    pinned here.)
//! 3. Under a transient SEU burst, a fully guarded MOAT run (scrub +
//!    fallback) converges to the clean run's soundness verdict: zero
//!    unsound horizons, zero escaped ACTs, same tolerated-threshold
//!    verdict on [`SecurityReport::max_pressure`].

use moat_attacks::FeintingAttacker;
use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{MitigationEngine, Nanos};
use moat_faults::{FaultInjector, FaultPlan};
use moat_guard::{EngineGuard, RecoveryPlan};
use moat_sim::{
    hammer_attacker, round_robin_attacker, Hooks, NoGuard, NoTelemetry, SecurityConfig,
    SecuritySim, SemiStepped,
};
use moat_trackers::{PanopticonConfig, PanopticonEngine};
use proptest::prelude::*;

fn boxed_engine(idx: usize) -> Box<dyn MitigationEngine> {
    match idx {
        0 => Box::new(MoatEngine::new(MoatConfig::paper_default())),
        _ => Box::new(PanopticonEngine::new(PanopticonConfig::paper_default())),
    }
}

fn rows_per_bank() -> u32 {
    SecurityConfig::paper_default().dram.rows_per_bank
}

/// MOAT's tolerated Rowhammer threshold: a run is sound iff no victim
/// absorbed more pressure than this (Fig. 5's bound).
const TOLERATED: u32 = 99;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pin 1: a fault-only bundle and a bundle spelling out the disarmed
    /// guard are the same computation, even with a live fault stream
    /// (which also replays bit-identically from its seed).
    #[test]
    fn disarmed_guard_is_bit_identical_to_unguarded(
        seed in 0u64..u64::MAX,
        rows in prop::collection::vec(0u32..256, 1..24),
        engine_idx in 0usize..2,
    ) {
        let duration = Nanos::from_millis(1);
        let config = SecurityConfig::paper_default();
        let plan = FaultPlan::seu(seed, 1e-3);

        // Batched scripted mode.
        let mut a = SecuritySim::new(config, boxed_engine(engine_idx));
        let mut hooks_a = Hooks::default().with_faults(FaultInjector::new(plan, rows_per_bank()));
        let r_a = a.run_semi_scripted_with(
            &mut round_robin_attacker(rows.clone()),
            duration,
            &mut hooks_a,
        );
        let mut b = SecuritySim::new(config, boxed_engine(engine_idx));
        let mut hooks_b = Hooks {
            faults: FaultInjector::new(plan, rows_per_bank()),
            guard: NoGuard,
            tel: NoTelemetry,
        };
        let r_b = b.run_semi_scripted_with(
            &mut round_robin_attacker(rows.clone()),
            duration,
            &mut hooks_b,
        );
        prop_assert_eq!(r_a, r_b, "batched mode diverged");
        prop_assert_eq!(hooks_a.faults.stats(), hooks_b.faults.stats());

        // Per-step mode.
        let mut a = SecuritySim::new(config, boxed_engine(engine_idx));
        let mut hooks_a = Hooks::default().with_faults(FaultInjector::new(plan, rows_per_bank()));
        let r_a = a.run_with(
            &mut SemiStepped::new(round_robin_attacker(rows.clone())),
            duration,
            &mut hooks_a,
        );
        let mut b = SecuritySim::new(config, boxed_engine(engine_idx));
        let mut hooks_b = Hooks {
            faults: FaultInjector::new(plan, rows_per_bank()),
            guard: NoGuard,
            tel: NoTelemetry,
        };
        let r_b = b.run_with(
            &mut SemiStepped::new(round_robin_attacker(rows.clone())),
            duration,
            &mut hooks_b,
        );
        prop_assert_eq!(r_a, r_b, "per-step mode diverged");
        prop_assert_eq!(hooks_a.faults.stats(), hooks_b.faults.stats());

        // Semi-scripted mode.
        let mut a = SecuritySim::new(config, boxed_engine(engine_idx));
        let mut hooks_a = Hooks::default().with_faults(FaultInjector::new(plan, rows_per_bank()));
        let r_a = a.run_semi_scripted_with(
            &mut FeintingAttacker::new(4, rows[0]),
            duration,
            &mut hooks_a,
        );
        let mut b = SecuritySim::new(config, boxed_engine(engine_idx));
        let mut hooks_b = Hooks {
            faults: FaultInjector::new(plan, rows_per_bank()),
            guard: NoGuard,
            tel: NoTelemetry,
        };
        let r_b = b.run_semi_scripted_with(
            &mut FeintingAttacker::new(4, rows[0]),
            duration,
            &mut hooks_b,
        );
        prop_assert_eq!(r_a, r_b, "semi-scripted mode diverged");
        prop_assert_eq!(hooks_a.faults.stats(), hooks_b.faults.stats());
    }

    /// Pin 2: an armed detect-only guard observes a clean run without
    /// perturbing it — detection is pure, and nothing is ever detected
    /// when nothing was injected.
    #[test]
    fn armed_detect_only_guard_is_invisible_on_clean_runs(
        rows in prop::collection::vec(0u32..256, 1..24),
        engine_idx in 0usize..2,
    ) {
        let duration = Nanos::from_millis(1);
        let config = SecurityConfig::paper_default();

        // Batched scripted mode.
        let mut clean = SecuritySim::new(config, boxed_engine(engine_idx));
        let r_clean = clean.run_semi_scripted(&mut round_robin_attacker(rows.clone()), duration);
        let mut armed = SecuritySim::new(config, boxed_engine(engine_idx));
        let guard = EngineGuard::new(RecoveryPlan::detect_only());
        prop_assert!(guard.arm(armed.unit_mut()));
        let mut hooks = Hooks::default().with_guard(guard);
        let r_armed = armed.run_semi_scripted_with(
            &mut round_robin_attacker(rows.clone()),
            duration,
            &mut hooks,
        );
        prop_assert_eq!(r_clean, r_armed, "batched mode diverged");
        prop_assert_eq!(hooks.guard.stats().detections, 0);
        prop_assert!(hooks.guard.stats().checks > 0, "the guard must have run");

        // Per-step mode.
        let mut clean = SecuritySim::new(config, boxed_engine(engine_idx));
        let r_clean = clean.run(&mut SemiStepped::new(round_robin_attacker(rows.clone())), duration);
        let mut armed = SecuritySim::new(config, boxed_engine(engine_idx));
        let guard = EngineGuard::new(RecoveryPlan::detect_only());
        prop_assert!(guard.arm(armed.unit_mut()));
        let mut hooks = Hooks::default().with_guard(guard);
        let r_armed = armed.run_with(
            &mut SemiStepped::new(round_robin_attacker(rows.clone())),
            duration,
            &mut hooks,
        );
        prop_assert_eq!(r_clean, r_armed, "per-step mode diverged");
        prop_assert_eq!(hooks.guard.stats().detections, 0);

        // Semi-scripted mode.
        let mut clean = SecuritySim::new(config, boxed_engine(engine_idx));
        let r_clean = clean.run_semi_scripted(&mut FeintingAttacker::new(4, rows[0]), duration);
        let mut armed = SecuritySim::new(config, boxed_engine(engine_idx));
        let guard = EngineGuard::new(RecoveryPlan::detect_only());
        prop_assert!(guard.arm(armed.unit_mut()));
        let mut hooks = Hooks::default().with_guard(guard);
        let r_armed = armed.run_semi_scripted_with(
            &mut FeintingAttacker::new(4, rows[0]),
            duration,
            &mut hooks,
        );
        prop_assert_eq!(r_clean, r_armed, "semi-scripted mode diverged");
        prop_assert_eq!(hooks.guard.stats().detections, 0);
    }

    /// Pin 3: under a transient SEU burst, fully guarded MOAT converges
    /// to the clean run's soundness verdict — zero unsound horizons,
    /// zero escaped ACTs — while the identical unguarded fault stream is
    /// free to break the horizon.
    #[test]
    fn guarded_moat_recovers_clean_soundness_under_seu_burst(
        seed in 0u64..u64::MAX,
        rate_idx in 0usize..3,
        scrub_idx in 0usize..2,
    ) {
        let duration = Nanos::from_millis(2);
        let config = SecurityConfig::paper_default();
        let rate = [1e-4, 1e-3, 1e-2][rate_idx];
        let scrub = [50_000u64, 500_000][scrub_idx];
        let plan = FaultPlan::seu(seed, rate);
        let moat = || {
            Box::new(MoatEngine::new(MoatConfig::paper_default())) as Box<dyn MitigationEngine>
        };

        let mut clean = SecuritySim::new(config, moat());
        let r_clean = clean.run_semi_scripted(&mut hammer_attacker(5), duration);

        let mut unguarded = SecuritySim::new(config, moat());
        let mut unguarded_hooks =
            Hooks::default().with_faults(FaultInjector::new(plan, rows_per_bank()));
        let _ = unguarded.run_semi_scripted_with(&mut hammer_attacker(5), duration, &mut unguarded_hooks);

        let mut guarded = SecuritySim::new(config, moat());
        let guard = EngineGuard::new(RecoveryPlan {
            scrub_interval_ns: scrub,
            fallback: true,
        });
        prop_assert!(guard.arm(guarded.unit_mut()));
        let mut hooks = Hooks::default()
            .with_faults(FaultInjector::new(plan, rows_per_bank()))
            .with_guard(guard);
        let r_guarded = guarded.run_semi_scripted_with(&mut hammer_attacker(5), duration, &mut hooks);

        let g = hooks.faults.stats();
        let guard = hooks.guard;
        prop_assert_eq!(g.unsound_horizons, 0, "guard must close every horizon");
        prop_assert_eq!(g.escaped_acts, 0);
        prop_assert!(
            g.unsound_horizons <= unguarded_hooks.faults.stats().unsound_horizons,
            "recovery can only improve on the unguarded stream"
        );
        prop_assert_eq!(
            r_guarded.max_pressure <= TOLERATED,
            r_clean.max_pressure <= TOLERATED,
            "soundness verdict must match the clean run"
        );
        // The same stream was offered to both runs: same boundary count,
        // so any divergence in injected flips is the guard's mitigations
        // shifting boundary timing, never a different fault model.
        if g.seu_flips > 0 && guard.stats().detections == 0 {
            // Every flip that landed in live tracker state is caught at
            // the very next boundary; a flip can only go undetected if
            // it targeted a slot beyond the tracker's current length.
            prop_assert_eq!(guard.stats().fallback_mitigations, 0);
        }
        // After the final scrub the tracker is trusted again: no open
        // corruption episode may outlive the run by more than one
        // scrub interval.
        if let Some(open) = guard.stats().open_since {
            prop_assert!(
                r_guarded.elapsed.saturating_sub(open).as_u64() <= scrub,
                "an open episode must be younger than one scrub interval"
            );
        }
    }
}
