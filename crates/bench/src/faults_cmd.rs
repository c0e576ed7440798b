//! `repro faults sweep` — the fault-sensitivity table.
//!
//! Ladders the SEU rate of a seeded [`FaultPlan`] across two engines
//! (MOAT and Panopticon) × two attacks (single-row hammer and
//! round-robin feinting) and reports, per cell, the injections that
//! actually landed, how many engine-promised ACT horizons proved
//! unsound, the ACTs that escaped past a pending alert inside
//! already-granted runs, and when the first horizon broke. The base
//! plan (seed and the non-SEU rates) comes from the
//! [`MOAT_FAULTS`](FaultPlan::ENV_VAR) environment variable when armed,
//! so the CI chaos run can pin a fixed seed; unset, a built-in seed is
//! used. Equal seeds give bit-identical tables — the table itself is
//! the determinism artifact CI diffs across two runs.
//!
//! Cells run through the crash-isolated sweep harness
//! ([`try_run_cells`]): a cell that panics under corruption is retried
//! once and, if it fails again, reported as a `FAILED` row while every
//! sibling cell still prints.

use moat_dram::{MitigationEngine, Nanos};
use moat_faults::{FaultInjector, FaultPlan, FaultStats};
use moat_sim::{hammer_attacker, round_robin_attacker, Hooks, SecurityConfig, SecuritySim};
use moat_trackers::registry;

use moat_telemetry::{MetricsRegistry, TelemetryLevel};

use crate::sweep::{cell_metrics, try_run_cells};
use crate::telemetry_cli::{effective_config, render_registry, take_telemetry_flag};

/// Virtual time each cell simulates (per-boundary fault rates make the
/// injected-fault count proportional to this).
const CELL_DURATION: Nanos = Nanos::from_millis(4);

/// The SEU-rate ladder: label shown in the table, probability used.
/// Labels are fixed strings so the table renders identically on every
/// platform regardless of float formatting.
const SEU_LADDER: [(&str, f64); 4] = [("0", 0.0), ("1e-4", 1e-4), ("1e-3", 1e-3), ("1e-2", 1e-2)];

const ENGINES: [&str; 2] = ["moat", "panopticon"];
const ATTACKS: [&str; 2] = ["hammer", "round-robin"];

/// One cell of the fault-sensitivity sweep.
#[derive(Debug, Clone, Copy)]
struct FaultCell {
    engine: &'static str,
    attack: &'static str,
    rate_label: &'static str,
    plan: FaultPlan,
}

/// Derives a per-cell seed from the base seed and the cell coordinates
/// (FNV-1a), so every cell draws an independent, reproducible fault
/// stream.
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
/// plan armed. Returns the report's max pressure plus the injector's
/// stats, and the activation count for the sweep statistics.
fn run_cell(cell: FaultCell) -> ((u32, u64, FaultStats), u64) {
    let config = SecurityConfig::paper_default();
    let mut hooks =
        Hooks::default().with_faults(FaultInjector::new(cell.plan, config.dram.rows_per_bank));
    let mut sim = SecuritySim::new(config, boxed_engine(cell.engine));
    let report = match cell.attack {
        "hammer" => sim.run_semi_scripted_with(&mut hammer_attacker(5), CELL_DURATION, &mut hooks),
        "round-robin" => sim.run_semi_scripted_with(
            &mut round_robin_attacker((0..16).map(|i| i * 2).collect()),
            CELL_DURATION,
            &mut hooks,
        ),
        other => unreachable!("unknown attack {other}"),
    };
    (
        (report.max_pressure, report.total_acts, hooks.faults.stats()),
        report.total_acts,
    )
}

/// Renders the fault-sensitivity table. Bit-identical across runs with
/// equal base plans (CI asserts this by diffing two runs).
pub fn faults_sweep(base: FaultPlan) -> String {
    faults_sweep_traced(base).0
}

/// [`faults_sweep`] plus the sweep's derived telemetry registry:
/// crash-isolation accounting from the harness and per engine × attack
/// fault aggregates from the Ok cells. The registry is built from the
/// outcomes in input order, so its render is bit-identical across
/// worker thread counts — same invariance as the table itself.
pub fn faults_sweep_traced(base: FaultPlan) -> (String, MetricsRegistry) {
    let mut cells = Vec::new();
    for engine in ENGINES {
        for attack in ATTACKS {
            for (rate_label, rate) in SEU_LADDER {
                let plan = FaultPlan {
                    seu_rate: rate,
                    seed: cell_seed(base.seed, engine, attack, rate_label),
                    ..base
                };
                cells.push(FaultCell {
                    engine,
                    attack,
                    rate_label,
                    plan,
                });
            }
        }
    }

    let (outcomes, stats) = try_run_cells(cells.clone(), run_cell);
    let mut reg = cell_metrics(&outcomes, &stats);

    let mut out = format!(
        "Fault sensitivity: SEU ladder x engine x attack ({} ms virtual time/cell)\n\
         base plan: {base}\n\
         engine      | attack      | seu   | acts   | maxP | flips | stuck | unsound | escaped | first-unsound\n",
        CELL_DURATION.as_u64() / 1_000_000,
    );
    for (cell, outcome) in cells.iter().zip(&outcomes) {
        match &outcome.result {
            Ok(result) => {
                let (max_pressure, total_acts, stats) = result;
                let first = match stats.first_unsound {
                    Some(f) => format!("@{}ns {}/{}", f.at.as_u64(), f.done, f.promised),
                    None => "-".to_string(),
                };
                out.push_str(&format!(
                    "  {:<10} | {:<11} | {:<5} | {:>6} | {:>4} | {:>5} | {:>5} | {:>7} | {:>7} | {first}\n",
                    cell.engine,
                    cell.attack,
                    cell.rate_label,
                    total_acts,
                    max_pressure,
                    stats.seu_flips,
                    stats.stuck_entries,
                    stats.unsound_horizons,
                    stats.escaped_acts,
                ));
                let key = format!("faults.{}.{}", cell.engine, cell.attack);
                reg.add(&format!("{key}.acts"), *total_acts);
                reg.add(&format!("{key}.seu_flips"), stats.seu_flips);
                reg.add(&format!("{key}.stuck_entries"), stats.stuck_entries);
                reg.add(&format!("{key}.unsound_horizons"), stats.unsound_horizons);
                reg.add(&format!("{key}.escaped_acts"), stats.escaped_acts);
                reg.gauge_max(&format!("{key}.max_pressure"), u64::from(*max_pressure));
            }
            Err(message) => {
                out.push_str(&format!(
                    "  {:<10} | {:<11} | {:<5} | FAILED after {attempts} attempts: {message}\n",
                    cell.engine,
                    cell.attack,
                    cell.rate_label,
                    attempts = outcome.attempts,
                ));
            }
        }
    }
    (out, reg)
}

/// Dispatches `repro faults <subcommand>`.
///
/// # Errors
///
/// Returns a usage or diagnostic message for the caller to print to
/// stderr (with a nonzero exit).
pub fn run_faults_command(args: &[String]) -> Result<String, String> {
    let usage = "usage: repro faults sweep [--telemetry]\n\
                 (set MOAT_FAULTS=seed=N[,drop-rfm=R,lose-alert=R,stuck=R] to pin the base plan; \
                 the sweep ladders the SEU rate itself. --telemetry, or MOAT_TELEMETRY with a \
                 level above off, appends the sweep's metrics registry)";
    let (rest, telemetry_flag) = take_telemetry_flag(args);
    match rest.first().map(String::as_str) {
        Some("sweep") => {
            let base = FaultPlan::from_env()?.unwrap_or_else(|| FaultPlan::none(0xFA17));
            let tel = effective_config(telemetry_flag)?;
            if tel.level == TelemetryLevel::Off {
                Ok(faults_sweep(base))
            } else {
                let (table, reg) = faults_sweep_traced(base);
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
        let a = faults_sweep(base);
        let b = faults_sweep(base);
        assert_eq!(a, b, "same base plan, bit-identical table");
        for engine in ENGINES {
            assert!(a.contains(engine), "missing engine {engine}");
        }
        for attack in ATTACKS {
            assert!(a.contains(attack), "missing attack {attack}");
        }
        for (label, _) in SEU_LADDER {
            assert!(
                a.contains(&format!("| {label:<5} |")),
                "missing rate {label}"
            );
        }
        assert!(!a.contains("FAILED"), "no cell should crash:\n{a}");
    }

    #[test]
    fn seu_ladder_hurts_moat_not_panopticon() {
        // The design insight the table measures: MOAT's horizon bound
        // rides the tracked per-row counts, so downward SEU flips desync
        // the tracker from the in-array counters and break the bound;
        // Panopticon's bound rides queue occupancy, which tag flips do
        // not change.
        let table = faults_sweep(FaultPlan::none(0xFA17));
        let unsound_at = |engine: &str, rate: &str| -> u64 {
            table
                .lines()
                .find(|l| l.contains(engine) && l.contains(&format!("| {rate:<5} |")))
                .and_then(|l| l.split('|').nth(7))
                .and_then(|f| f.trim().parse().ok())
                .unwrap_or_else(|| panic!("row {engine}/{rate} missing in:\n{table}"))
        };
        assert_eq!(unsound_at("moat", "0"), 0, "no faults, no unsoundness");
        assert!(
            unsound_at("moat", "1e-2") > 0,
            "SEU flips must break MOAT's counter-derived horizon:\n{table}"
        );
        assert_eq!(
            unsound_at("panopticon", "1e-2"),
            0,
            "Panopticon's occupancy bound should survive tag flips:\n{table}"
        );
    }

    #[test]
    fn cell_seeds_are_distinct() {
        let mut seeds: Vec<u64> = Vec::new();
        for engine in ENGINES {
            for attack in ATTACKS {
                for (label, _) in SEU_LADDER {
                    seeds.push(cell_seed(1, engine, attack, label));
                }
            }
        }
        let total = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), total, "cell seeds must not collide");
    }

    #[test]
    fn command_dispatch_and_usage() {
        assert!(run_faults_command(&[]).is_err());
        assert!(run_faults_command(&["bogus".to_string()]).is_err());
    }
}
