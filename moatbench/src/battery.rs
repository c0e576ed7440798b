//! `attack_battery`: every registry engine variant against six attackers
//! in the semi-scripted security simulator.

use moat_attacks::{
    multi_row_kernel, single_row_kernel, tsa_stream, FeintingAttacker, JailbreakAttacker,
    PostponementAttacker, RatchetAttacker,
};
use moat_core::MoatConfig;
use moat_dram::{BankId, DramConfig, Nanos, RowId};
use moat_sim::{
    hammer_attacker, round_robin_attacker, Request, SecurityConfig, SecuritySim,
    SemiScriptedAttacker, SemiStepped,
};
use moat_trackers::registry::{EngineSpec, EngineVariant, ENGINES};

use crate::benign::{moat_cell, slowdown};
use crate::layers::{ratio, Busy, ObservedAttacker, Spans};
use crate::{Bench, Cell, Check, Pass, Report};

/// The attackers, in battery order.
pub const ATTACKS: [&str; 6] = [
    "hammer",
    "round-robin",
    "jailbreak",
    "ratchet",
    "feinting",
    "postponement",
];

/// Rows the Feinting attacker rotates through.
const FEINTING_POOL: usize = 256;

/// Most published rows kept for the ladder.
const LADDER_ROWS: usize = 8_000_000;

/// How long each cell runs.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Virtual time of a timed cell.
    pub cell: Nanos,
    /// Virtual time of the shortened copy each check runs per-step.
    pub check: Nanos,
}

impl Size {
    /// Cells long enough that a pass takes about a second of host time.
    pub const FULL: Size = Size {
        cell: Nanos::from_millis(32),
        check: Nanos::from_millis(1),
    };

    /// Short cells, for tests.
    pub const SMALL: Size = Size {
        cell: Nanos::new(200_000),
        check: Nanos::new(100_000),
    };
}

/// One cell of the battery.
#[derive(Debug, Clone, Copy)]
struct BatteryCell {
    spec: &'static EngineSpec,
    variant: &'static EngineVariant,
    attack: &'static str,
}

impl BatteryCell {
    fn name(&self) -> String {
        format!("{}/{}/{}", self.spec.name, self.variant.label, self.attack)
    }

    fn config(&self) -> SecurityConfig {
        let mut cfg = SecurityConfig::paper_default();
        if self.attack == "postponement" {
            // Fig. 16: the controller may postpone up to two REFs.
            cfg.dram = DramConfig::builder().max_postponed_refs(2).build();
        }
        cfg
    }

    fn sim(&self) -> SecuritySim {
        SecuritySim::new(self.config(), (self.variant.build)())
    }
}

/// How a cell drives its attacker through the simulator.
trait Drive {
    fn drive<A: SemiScriptedAttacker>(self, attacker: A) -> Report;
}

/// `run_semi_scripted`, the timed form.
struct Semi {
    sim: SecuritySim,
    duration: Nanos,
}

impl Drive for Semi {
    fn drive<A: SemiScriptedAttacker>(mut self, mut attacker: A) -> Report {
        Report::Security(self.sim.run_semi_scripted(&mut attacker, self.duration))
    }
}

/// `run_semi_scripted` through the publish-observing adapter.
struct Observed<'a> {
    sim: SecuritySim,
    duration: Nanos,
    publish: &'a mut Busy,
    rows: &'a mut Vec<RowId>,
}

impl Drive for Observed<'_> {
    fn drive<A: SemiScriptedAttacker>(mut self, attacker: A) -> Report {
        let mut observed = ObservedAttacker::new(attacker, self.publish, self.rows, LADDER_ROWS);
        Report::Security(self.sim.run_semi_scripted(&mut observed, self.duration))
    }
}

/// Per-step `SecuritySim::run` over `SemiStepped`, the reference form.
struct Stepped {
    sim: SecuritySim,
    duration: Nanos,
}

impl Drive for Stepped {
    fn drive<A: SemiScriptedAttacker>(mut self, attacker: A) -> Report {
        Report::Security(self.sim.run(&mut SemiStepped::new(attacker), self.duration))
    }
}

/// Builds `attack` around `base` and hands it to `d`.
fn drive(attack: &str, base: u32, d: impl Drive) -> Report {
    match attack {
        "hammer" => d.drive(hammer_attacker(base)),
        "round-robin" => d.drive(round_robin_attacker(
            (0..16).map(|i| base + 2 * i).collect(),
        )),
        "jailbreak" => d.drive(JailbreakAttacker::new(base)),
        "ratchet" => d.drive(RatchetAttacker::new(64, 128)),
        "feinting" => d.drive(FeintingAttacker::new(FEINTING_POOL, base)),
        "postponement" => d.drive(PostponementAttacker::new(base, 128)),
        other => unreachable!("unknown attack {other}"),
    }
}

/// The battery: its cells and the attack rows the seed chose.
#[derive(Debug)]
pub struct AttackBattery {
    size: Size,
    base: u32,
    cells: Vec<BatteryCell>,
    /// The next pass's simulators, one per cell, built ahead of it.
    ready: Vec<SecuritySim>,
    /// Rows published during the last traced pass (the ladder's input).
    published: Vec<RowId>,
}

/// SplitMix64 finalizer: spreads a seed over all 64 bits.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl AttackBattery {
    /// Lays out the cells and builds the first pass's simulators (engines
    /// from the registry); the seed picks the attack rows (a multiple of
    /// six from row 20 000, clear of the refresh pointer's early sweep).
    pub fn setup(seed: u64, size: Size) -> AttackBattery {
        let base = 20_000 + 6 * u32::try_from(mix(seed) % 512).expect("small");
        let cells = ENGINES
            .iter()
            .flat_map(|spec| {
                spec.variants.iter().flat_map(move |variant| {
                    ATTACKS.iter().map(move |&attack| BatteryCell {
                        spec,
                        variant,
                        attack,
                    })
                })
            })
            .collect();
        let mut battery = AttackBattery {
            size,
            base,
            cells,
            ready: Vec::new(),
            published: Vec::new(),
        };
        battery.prepare();
        battery
    }

    /// Paper invariants on a completed pass: MOAT at ATH-64 keeps every
    /// aggressor's epoch ≤ 99 under every attacker (Table 7's safe TRH),
    /// and Jailbreak drives Panopticon past 1000 ACTs (Fig. 5: ~1150).
    fn invariants(&self, reference: &Pass) -> Vec<Check> {
        let mut out = Vec::new();
        for (cell, c) in self.cells.iter().zip(&reference.cells) {
            let Some(Report::Security(r)) = c.report() else {
                continue;
            };
            let id = (cell.spec.name, cell.variant.label, cell.attack);
            if id.0 == "moat" && id.1 == "ath64" {
                out.push(Check::plain(
                    format!("{} max_epoch {} <= 99", c.name, r.max_epoch),
                    r.max_epoch <= 99,
                ));
            }
            if id == ("panopticon", "t128", "jailbreak") {
                out.push(Check::plain(
                    format!("{} max_pressure {} >= 1000", c.name, r.max_pressure),
                    r.max_pressure >= 1000,
                ));
            }
        }
        out
    }
}

impl Bench for AttackBattery {
    fn prepare(&mut self) {
        if self.ready.is_empty() {
            self.ready = self.cells.iter().map(BatteryCell::sim).collect();
        }
    }

    fn pass(&mut self, mut spans: Option<&mut Spans>) -> Pass {
        if spans.is_some() {
            self.published.clear();
        }
        self.prepare();
        let sims = std::mem::take(&mut self.ready);
        let (base, duration) = (self.base, self.size.cell);
        let mut cells = Vec::with_capacity(self.cells.len());
        for (cell, sim) in self.cells.iter().zip(sims) {
            let out = match spans.as_deref_mut() {
                Some(spans) => {
                    let mut publish = Busy::default();
                    let rows = &mut self.published;
                    let out = Cell::run(cell.name(), || {
                        drive(
                            cell.attack,
                            base,
                            Observed {
                                sim,
                                duration,
                                publish: &mut publish,
                                rows,
                            },
                        )
                    });
                    spans.push(out.name.clone(), "attacker.publish", publish);
                    spans.push(out.name.clone(), "cell", out.busy());
                    out
                }
                None => Cell::run(cell.name(), || {
                    drive(cell.attack, base, Semi { sim, duration })
                }),
            };
            cells.push(out);
        }
        Pass { cells }
    }

    /// `run_semi_scripted` against per-step `SecuritySim::run` over
    /// `SemiStepped` on a shortened copy of every cell, then the paper
    /// invariants on the full-length pass.
    fn check(&self, reference: &Pass) -> Vec<Check> {
        let (base, duration) = (self.base, self.size.check);
        let mut out: Vec<Check> = self
            .cells
            .iter()
            .map(|cell| {
                let fast = Cell::run(String::new(), || {
                    drive(
                        cell.attack,
                        base,
                        Semi {
                            sim: cell.sim(),
                            duration,
                        },
                    )
                });
                let slow = Cell::run(String::new(), || {
                    drive(
                        cell.attack,
                        base,
                        Stepped {
                            sim: cell.sim(),
                            duration,
                        },
                    )
                });
                Check {
                    name: format!("{} run_semi_scripted == per-step run", cell.name()),
                    ok: fast.report().is_some() && fast.report() == slow.report(),
                    reference_ns: slow.ns,
                    fast_ns: fast.ns,
                }
            })
            .collect();
        out.extend(self.invariants(reference));
        out
    }

    /// The paper's performance attacks (Figs. 12 and 13) on MOAT at
    /// ATH-64: mean over single-row (~10%), multi-row (~10%), TSA at 4
    /// banks (~24%) and at 17 banks (~52%) of |throughput loss − paper|.
    fn slowdown_err_pp(&self, _reference: &Pass) -> f64 {
        let row = 30_000;
        let kernels: [(Vec<Request>, u16, f64); 4] = [
            (single_row_kernel(30_000, 0, row), 1, 10.0),
            (
                multi_row_kernel(6_000, 0, &[row, row + 6, row + 12, row + 18, row + 24]),
                1,
                10.0,
            ),
            (tsa_stream(4, 64, row), 4, 24.0),
            (tsa_stream(17, 64, row), 17, 52.0),
        ];
        let dram = DramConfig::paper_baseline();
        let moat = MoatConfig::paper_default();
        let err: f64 = kernels
            .iter()
            .map(|(stream, banks, paper)| {
                let with = moat_cell(dram, *banks, Some(moat), stream.iter().copied(), false);
                let base = moat_cell(dram, *banks, None, stream.iter().copied(), false);
                (slowdown(&with, &base) * 100.0 - paper).abs()
            })
            .sum();
        err / kernels.len() as f64
    }

    fn ladder_input(&self) -> (Vec<(BankId, RowId)>, u16) {
        let bank = BankId::new(0);
        (self.published.iter().map(|&r| (bank, r)).collect(), 1)
    }

    fn layer_metrics(
        &self,
        spans: &Spans,
        checks: &[Check],
        reference: &Pass,
    ) -> Vec<(String, f64)> {
        let sum = |keep: &dyn Fn(&str) -> bool| -> (Busy, Busy, u64) {
            let alerts = reference
                .cells
                .iter()
                .filter(|c| keep(&c.name))
                .filter_map(Cell::report)
                .map(Report::alerts)
                .sum();
            (
                spans.total("cell", keep),
                spans.total("attacker.publish", keep),
                alerts,
            )
        };
        let (cell, publish, alerts) = sum(&|_| true);
        let rfms: u64 = reference
            .cells
            .iter()
            .filter_map(Cell::report)
            .map(Report::rfms)
            .sum();
        let timed: Vec<&Check> = checks.iter().filter(|c| c.fast_ns > 0).collect();
        let step_ns: u64 = timed.iter().map(|c| c.reference_ns).sum();
        let semi_ns: u64 = timed.iter().map(|c| c.fast_ns).sum();
        let mut out = vec![
            (
                "sim.security.ns_per_act".to_string(),
                ratio(cell.ns.saturating_sub(publish.ns) as f64, cell.units as f64),
            ),
            (
                "sim.security.step_speedup".into(),
                ratio(step_ns as f64, semi_ns as f64),
            ),
            (
                "sim.security.acts_per_grant".into(),
                ratio(publish.units as f64, publish.calls as f64),
            ),
            ("sim.security.grants".into(), publish.calls as f64),
            ("sim.security.acts".into(), cell.units as f64),
            ("sim.security.alerts".into(), alerts as f64),
            ("sim.security.rfms".into(), rfms as f64),
        ];
        for spec in ENGINES {
            let prefix = format!("{}/", spec.name);
            let (cell, publish, alerts) = sum(&|n: &str| n.starts_with(&prefix));
            let layer = engine_layer(spec.name);
            out.push((format!("{layer}.cell_ns_per_act"), cell.ns_per_unit()));
            out.push((
                format!("{layer}.acts_per_grant"),
                ratio(publish.units as f64, publish.calls as f64),
            ));
            out.push((
                format!("{layer}.alerts_per_macts"),
                ratio(alerts as f64 * 1e6, cell.units as f64),
            ));
        }
        for attack in ATTACKS {
            let suffix = format!("/{attack}");
            let (cell, publish, _) = sum(&|n: &str| n.ends_with(&suffix));
            out.push((
                format!("attacks.{attack}.publish_ns_per_act"),
                ratio(publish.ns as f64, cell.units as f64),
            ));
            out.push((
                format!("attacks.{attack}.acts_per_grant"),
                ratio(publish.units as f64, publish.calls as f64),
            ));
        }
        out
    }
}

/// The layer an engine's per-engine metrics are named under: the crate
/// it lives in, then its registry name.
pub fn engine_layer(engine: &str) -> String {
    if engine == "moat" {
        "core.moat".into()
    } else {
        format!("trackers.{engine}")
    }
}
