//! `repro recover sweep` — the recovery table.
//!
//! Extends the fault-sensitivity sweep with a guard ladder: every
//! engine × attack × SEU-rate cell runs once unguarded and once per
//! recovery policy rung (scrub-only at two cadences, and the full
//! scrub + conservative-fallback policy). Per-cell seeds use the exact
//! same derivation as `repro faults sweep` — the guard label is
//! deliberately **excluded** from the seed — so the unguarded rung
//! reproduces the fault sweep's numbers bit-for-bit and every guard
//! rung faces the identical injected fault stream.
//!
//! The headline the table quantifies: guarded MOAT closes its unsound
//! ACT horizons to zero, at a cost visible in the fallback-mitigation
//! and scrub columns. The base fault plan comes from
//! [`MOAT_FAULTS`](FaultPlan::ENV_VAR) when armed; the full rung's
//! recovery policy can be overridden via
//! [`MOAT_RECOVERY`](RecoveryPlan::ENV_VAR).

use moat_dram::{MitigationEngine, Nanos};
use moat_faults::{FaultInjector, FaultPlan, FaultStats};
use moat_guard::{EngineGuard, RecoveryPlan, RecoveryStats};
use moat_sim::{
    hammer_attacker, round_robin_attacker, GuardHook, Hooks, SecurityConfig, SecurityReport,
    SecuritySim,
};
use moat_trackers::registry;

use moat_fleet::Incident;
use moat_telemetry::{MetricsRegistry, TelemetryLevel};

use crate::sweep::{cell_metrics, try_run_cells};
use crate::telemetry_cli::{effective_config, render_registry, take_telemetry_flag};

/// Virtual time each cell simulates — matched to `repro faults sweep`
/// so the unguarded rung reproduces its table.
const CELL_DURATION: Nanos = Nanos::from_millis(4);

/// The SEU-rate ladder (labels fixed for platform-independent output).
const SEU_LADDER: [(&str, f64); 4] = [("0", 0.0), ("1e-4", 1e-4), ("1e-3", 1e-3), ("1e-2", 1e-2)];

const ENGINES: [&str; 2] = ["moat", "panopticon"];
const ATTACKS: [&str; 2] = ["hammer", "round-robin"];

/// The guard ladder: unguarded baseline, scrub-only at two cadences,
/// and the full policy (scrub + conservative fallback).
fn guard_ladder(full: RecoveryPlan) -> [(&'static str, Option<RecoveryPlan>); 4] {
    [
        ("none", None),
        ("scrub-500u", Some(RecoveryPlan::scrub_every(500_000))),
        ("scrub-50u", Some(RecoveryPlan::scrub_every(50_000))),
        ("full", Some(full)),
    ]
}

/// One cell of the recovery sweep.
#[derive(Debug, Clone, Copy)]
struct RecoverCell {
    engine: &'static str,
    attack: &'static str,
    rate_label: &'static str,
    guard_label: &'static str,
    plan: FaultPlan,
    recovery: Option<RecoveryPlan>,
}

/// Per-cell seed, FNV-1a over the *fault* coordinates only — identical
/// to `faults_cmd::cell_seed`, so guard rungs share the fault stream of
/// their unguarded sibling.
fn cell_seed(base: u64, engine: &str, attack: &str, rate_label: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ base;
    for byte in engine
        .bytes()
        .chain([b'/'])
        .chain(attack.bytes())
        .chain([b'/'])
        .chain(rate_label.bytes())
    {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Resolves the sweep's engine names through the central registry
/// (default configurations) instead of a local `match` — the sweep's
/// `ENGINES` grid stays at the MOAT/Panopticon contrast to bound
/// runtime; the full zoo runs through `repro arena`.
fn boxed_engine(name: &str) -> Box<dyn MitigationEngine> {
    registry::build(name).unwrap_or_else(|| unreachable!("unknown engine {name}"))
}

/// Runs one cell: a batched security simulation with the cell's fault
/// plan armed and (for guarded rungs) an [`EngineGuard`] at the
/// boundaries. Returns the fault stats plus the recovery telemetry.
fn run_cell(cell: RecoverCell) -> ((u64, FaultStats, Option<RecoveryStats>), u64) {
    let config = SecurityConfig::paper_default();
    let injector = FaultInjector::new(cell.plan, config.dram.rows_per_bank);
    let mut sim = SecuritySim::new(config, boxed_engine(cell.engine));
    let (report, faults, recovery) = match cell.recovery {
        None => {
            let mut hooks = Hooks::default().with_faults(injector);
            let report = run_attack(&mut sim, cell.attack, &mut hooks);
            (report, hooks.faults.stats(), None)
        }
        Some(plan) => {
            let guard = EngineGuard::new(plan);
            guard.arm(sim.unit_mut());
            let mut hooks = Hooks::default().with_faults(injector).with_guard(guard);
            let report = run_attack(&mut sim, cell.attack, &mut hooks);
            (report, hooks.faults.stats(), Some(hooks.guard.stats()))
        }
    };
    ((report.total_acts, faults, recovery), report.total_acts)
}

/// Runs the cell's batched attack with `hooks` armed.
fn run_attack<G: GuardHook>(
    sim: &mut SecuritySim,
    attack: &str,
    hooks: &mut Hooks<FaultInjector, G>,
) -> SecurityReport {
    match attack {
        "hammer" => sim.run_semi_scripted_with(&mut hammer_attacker(5), CELL_DURATION, hooks),
        "round-robin" => sim.run_semi_scripted_with(
            &mut round_robin_attacker((0..16).map(|i| i * 2).collect()),
            CELL_DURATION,
            hooks,
        ),
        other => unreachable!("unknown attack {other}"),
    }
}

/// Renders the recovery table. Bit-identical across runs with equal
/// base fault plans and full-rung policies (CI diffs two runs).
pub fn recover_sweep(base: FaultPlan, full: RecoveryPlan) -> String {
    recover_sweep_traced(base, full).0
}

/// [`recover_sweep`] plus the sweep's telemetry registry. The table now
/// ends with an integrity-incident section rendered through the same
/// [`Incident`] path the fleet report uses (`cell` noun instead of
/// `shard`), so the two surfaces' taxonomy and detail strings can never
/// drift. Incident lines contain no `|`, keeping the table's
/// column-indexed consumers (CI's awk gate) unaffected.
pub fn recover_sweep_traced(base: FaultPlan, full: RecoveryPlan) -> (String, MetricsRegistry) {
    let mut cells = Vec::new();
    for engine in ENGINES {
        for attack in ATTACKS {
            for (rate_label, rate) in SEU_LADDER {
                for (guard_label, recovery) in guard_ladder(full) {
                    let plan = FaultPlan {
                        seu_rate: rate,
                        seed: cell_seed(base.seed, engine, attack, rate_label),
                        ..base
                    };
                    cells.push(RecoverCell {
                        engine,
                        attack,
                        rate_label,
                        guard_label,
                        plan,
                        recovery,
                    });
                }
            }
        }
    }

    let (outcomes, stats) = try_run_cells(cells.clone(), run_cell);
    let mut reg = cell_metrics(&outcomes, &stats);
    let mut incidents: Vec<Incident> = Vec::new();

    let mut out = format!(
        "Recovery: guard ladder x SEU ladder x engine x attack ({} ms virtual time/cell)\n\
         base plan: {base}\n\
         full policy: {full}\n\
         engine      | attack      | seu   | guard      | acts   | unsound | escaped | det   | rep   | fb    | scrubs | resync-ns\n",
        CELL_DURATION.as_u64() / 1_000_000,
    );
    for (index, (cell, outcome)) in cells.iter().zip(&outcomes).enumerate() {
        match &outcome.result {
            Ok(result) => {
                let (total_acts, stats, recovery) = result;
                if let Some(r) = recovery {
                    let key = format!(
                        "recover.{}.{}.{}",
                        cell.engine, cell.attack, cell.guard_label
                    );
                    r.record_metrics(&key, &mut reg);
                    if r.detected > 0 {
                        incidents.push(Incident::integrity(
                            index as u32,
                            format!(
                                "{}/{}/{}/{}",
                                cell.engine, cell.attack, cell.rate_label, cell.guard_label
                            ),
                            r.detected,
                            r.repaired,
                            r.fallback_mitigations,
                            r.scrubs,
                            stats.unsound_horizons,
                        ));
                    }
                }
                let (det, rep, fb, scrubs, resync) = match recovery {
                    Some(r) => (
                        r.detected.to_string(),
                        r.repaired.to_string(),
                        r.fallback_mitigations.to_string(),
                        r.scrubs.to_string(),
                        match r.mean_resync_ns() {
                            Some(ns) => ns.to_string(),
                            None if r.open_since.is_some() => "open".to_string(),
                            None => "-".to_string(),
                        },
                    ),
                    None => (
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                    ),
                };
                out.push_str(&format!(
                    "  {:<10} | {:<11} | {:<5} | {:<10} | {:>6} | {:>7} | {:>7} | {:>5} | {:>5} | {:>5} | {:>6} | {resync}\n",
                    cell.engine,
                    cell.attack,
                    cell.rate_label,
                    cell.guard_label,
                    total_acts,
                    stats.unsound_horizons,
                    stats.escaped_acts,
                    det,
                    rep,
                    fb,
                    scrubs,
                ));
            }
            Err(message) => {
                out.push_str(&format!(
                    "  {:<10} | {:<11} | {:<5} | {:<10} | FAILED after {attempts} attempts: {message}\n",
                    cell.engine, cell.attack, cell.rate_label, cell.guard_label,
                    attempts = outcome.attempts,
                ));
            }
        }
    }
    if incidents.is_empty() {
        out.push_str("integrity incidents: none\n");
    } else {
        out.push_str(&format!("integrity incidents: {}\n", incidents.len()));
        for i in &incidents {
            out.push_str(&format!("  {}\n", i.render_as("cell")));
        }
    }
    (out, reg)
}

/// Dispatches `repro recover <subcommand>`.
///
/// # Errors
///
/// Returns a usage or diagnostic message for the caller to print to
/// stderr (with a nonzero exit).
pub fn run_recover_command(args: &[String]) -> Result<String, String> {
    let usage = "usage: repro recover sweep [--telemetry]\n\
                 (set MOAT_FAULTS=seed=N[,...] to pin the base fault plan and \
                 MOAT_RECOVERY=scrub=NS[,fallback=on|off] to override the full rung's policy. \
                 --telemetry, or MOAT_TELEMETRY with a level above off, appends the sweep's \
                 metrics registry)";
    let (rest, telemetry_flag) = take_telemetry_flag(args);
    match rest.first().map(String::as_str) {
        Some("sweep") => {
            let base = FaultPlan::from_env()?.unwrap_or_else(|| FaultPlan::none(0xFA17));
            let full = RecoveryPlan::from_env()?.unwrap_or_else(RecoveryPlan::full);
            let tel = effective_config(telemetry_flag)?;
            if tel.level == TelemetryLevel::Off {
                Ok(recover_sweep(base, full))
            } else {
                let (table, reg) = recover_sweep_traced(base, full);
                Ok(format!("{table}\n{}", render_registry(&reg, tel.sink)))
            }
        }
        _ => Err(usage.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_covers_grid() {
        let base = FaultPlan::none(0xFA17);
        let a = recover_sweep(base, RecoveryPlan::full());
        let b = recover_sweep(base, RecoveryPlan::full());
        assert_eq!(a, b, "same plans, bit-identical table");
        for engine in ENGINES {
            assert!(a.contains(engine), "missing engine {engine}");
        }
        for (label, _) in guard_ladder(RecoveryPlan::full()) {
            assert!(
                a.contains(&format!("| {label:<10} |")),
                "missing guard rung {label}"
            );
        }
        assert!(!a.contains("FAILED"), "no cell should crash:\n{a}");
    }

    #[test]
    fn guarded_moat_closes_the_unsound_horizons() {
        // The headline: at SEU 1e-2 under hammer, unguarded MOAT breaks
        // its promised ACT horizons (the fault sweep's result, same
        // seeds); the full guard closes every one of them.
        let table = recover_sweep(FaultPlan::none(0xFA17), RecoveryPlan::full());
        let unsound_at = |guard: &str| -> u64 {
            table
                .lines()
                .find(|l| {
                    l.contains("moat")
                        && l.contains("hammer")
                        && l.contains("| 1e-2  |")
                        && l.contains(&format!("| {guard:<10} |"))
                })
                .and_then(|l| l.split('|').nth(5))
                .and_then(|f| f.trim().parse().ok())
                .unwrap_or_else(|| panic!("row moat/hammer/1e-2/{guard} missing in:\n{table}"))
        };
        assert!(
            unsound_at("none") > 0,
            "unguarded MOAT must break at SEU 1e-2:\n{table}"
        );
        assert_eq!(
            unsound_at("full"),
            0,
            "the full guard must close every horizon:\n{table}"
        );
    }

    #[test]
    fn unguarded_rung_reproduces_the_fault_sweep() {
        // Same seed derivation, same duration: the `none` rung must
        // agree with `repro faults sweep` on the shared columns.
        let base = FaultPlan::none(0xFA17);
        let faults = crate::faults_cmd::faults_sweep(base);
        let recover = recover_sweep(base, RecoveryPlan::full());
        let faults_unsound = |engine: &str, rate: &str| -> String {
            faults
                .lines()
                .find(|l| l.contains(engine) && l.contains(&format!("| {rate:<5} |")))
                .and_then(|l| l.split('|').nth(7))
                .map(|f| f.trim().to_string())
                .unwrap()
        };
        let recover_unsound = |engine: &str, rate: &str| -> String {
            recover
                .lines()
                .find(|l| {
                    l.contains(engine)
                        && l.contains("hammer")
                        && l.contains(&format!("| {rate:<5} |"))
                        && l.contains("| none       |")
                })
                .and_then(|l| l.split('|').nth(5))
                .map(|f| f.trim().to_string())
                .unwrap()
        };
        for engine in ENGINES {
            for (rate, _) in SEU_LADDER {
                assert_eq!(
                    faults_unsound(engine, rate),
                    recover_unsound(engine, rate),
                    "{engine}/{rate}: the unguarded rung must reproduce the fault sweep"
                );
            }
        }
    }

    #[test]
    fn command_dispatch_and_usage() {
        assert!(run_recover_command(&[]).is_err());
        assert!(run_recover_command(&["bogus".to_string()]).is_err());
    }
}
