//! Host-time benchmark of the MOAT reproduction.
//!
//! Three workloads run on one thread through the simulators' public
//! entry points (`PerfSim::{run, run_per_request}`,
//! `SecuritySim::{run, run_semi_scripted}`, `registry::ENGINES`):
//!
//! * `benign_sweep` — Table 7's nine MOAT configurations plus the
//!   ALERT-free baseline over the 21 Table-4 profiles at 2 banks,
//!   replayed from memory.
//! * `paper_replay` — two profiles at 32 banks recorded into RAM-backed
//!   traces and replayed through the trace decoder.
//! * `attack_battery` — every registry engine variant against six
//!   attackers in the semi-scripted security simulator.
//!
//! A run sets up its inputs from the seed, checks correctness outside
//! the timed passes, and reports the median of its timed passes. See
//! `README.md` for the metrics and what moves them.

#![warn(missing_docs)]

pub mod battery;
pub mod benign;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod replay;
pub mod run;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use moat_dram::{BankId, RowId};
use moat_sim::{PerfReport, SecurityReport};

use crate::layers::{Busy, Spans};

/// One simulation's statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Report {
    /// A `PerfSim` run.
    Perf(PerfReport),
    /// A `SecuritySim` run.
    Security(SecurityReport),
}

impl Report {
    /// Simulated ACTs.
    pub fn acts(&self) -> u64 {
        match self {
            Report::Perf(r) => r.total_acts,
            Report::Security(r) => r.total_acts,
        }
    }

    /// ALERTs asserted.
    pub fn alerts(&self) -> u64 {
        match self {
            Report::Perf(r) => r.alerts,
            Report::Security(r) => r.alerts,
        }
    }

    /// RFMs issued.
    pub fn rfms(&self) -> u64 {
        match self {
            Report::Perf(r) => r.rfms,
            Report::Security(r) => r.rfms,
        }
    }

    /// Folds every statistic into an FNV-1a digest.
    fn fold(&self, h: &mut Fnv) {
        match self {
            Report::Perf(r) => {
                for v in [
                    r.completion_time.as_u64(),
                    r.total_acts,
                    r.alerts,
                    r.rfms,
                    r.refs,
                    r.proactive_mitigations,
                    r.reactive_mitigations,
                    r.alerts_per_trefi.to_bits(),
                    r.mitigations_per_bank_per_trefw.to_bits(),
                    u64::from(r.max_pressure),
                    u64::from(r.max_epoch),
                ] {
                    h.write(v);
                }
            }
            Report::Security(r) => {
                for v in [
                    u64::from(r.max_pressure),
                    u64::from(r.max_pressure_row.index()),
                    u64::from(r.max_epoch),
                    r.total_acts,
                    r.alerts,
                    r.rfms,
                    r.refs,
                    r.proactive_mitigations,
                    r.reactive_mitigations,
                    r.elapsed.as_u64(),
                ] {
                    h.write(v);
                }
            }
        }
    }
}

/// 64-bit FNV-1a over little-endian words.
#[derive(Debug)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One simulation of a pass: its name, host time and outcome. A panic
/// is caught and kept as the failure message.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `workload-profile/config` or `engine/variant/attacker`.
    pub name: String,
    /// Host nanoseconds the simulation took.
    pub ns: u64,
    /// The report, or the panic message.
    pub result: Result<Report, String>,
}

impl Cell {
    /// Runs `sim` as the cell `name`, timing it and catching a panic.
    pub fn run(name: String, sim: impl FnOnce() -> Report) -> Cell {
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(sim)).map_err(|e| {
            e.downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| e.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".into())
        });
        Cell {
            name,
            ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            result,
        }
    }

    /// The cell as a span: its host time and simulated ACTs.
    pub fn busy(&self) -> Busy {
        Busy {
            ns: self.ns,
            calls: 1,
            units: self.report().map_or(0, Report::acts),
        }
    }

    /// The report, if the cell did not panic.
    pub fn report(&self) -> Option<&Report> {
        self.result.as_ref().ok()
    }
}

/// The cells of one pass, in a fixed order.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// The cells.
    pub cells: Vec<Cell>,
}

impl Pass {
    /// Simulated ACTs over every cell that completed.
    pub fn acts(&self) -> u64 {
        self.cells
            .iter()
            .filter_map(Cell::report)
            .map(Report::acts)
            .sum()
    }

    /// Cells that panicked.
    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| c.result.is_err()).count()
    }

    /// Digest of every statistic of every cell (a panicked cell folds
    /// a marker), so two passes agree bit for bit iff digests match.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for c in &self.cells {
            match &c.result {
                Ok(r) => r.fold(&mut h),
                Err(_) => h.write(u64::MAX),
            }
        }
        h.0
    }

    /// Cells whose outcome differs from the same cell of `reference`
    /// (including cells missing from either side).
    pub fn mismatches(&self, reference: &Pass) -> usize {
        let n = self.cells.len().max(reference.cells.len());
        (0..n)
            .filter(|&i| match (self.cells.get(i), reference.cells.get(i)) {
                (Some(a), Some(b)) => {
                    a.name != b.name || a.report().is_none() || a.report() != b.report()
                }
                _ => true,
            })
            .count()
    }
}

/// One correctness check made outside the timed passes.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Host ns of the reference form (`run_per_request`, per-step
    /// `SecuritySim::run`), when the check timed one.
    pub reference_ns: u64,
    /// Host ns of the fast form it was compared with.
    pub fast_ns: u64,
}

impl Check {
    /// A check with no timing.
    pub fn plain(name: impl Into<String>, ok: bool) -> Check {
        Check {
            name: name.into(),
            ok,
            reference_ns: 0,
            fast_ns: 0,
        }
    }
}

/// A workload after setup: its inputs are built and every pass replays
/// them.
pub trait Bench {
    /// Builds what the next pass consumes, outside its timing (the
    /// battery's simulators; nothing for the PerfSim workloads, whose
    /// cells construct their own).
    fn prepare(&mut self) {}

    /// Runs one pass. With `spans`, calls go through the tracing
    /// adapters and each cell records its spans there.
    fn pass(&mut self, spans: Option<&mut Spans>) -> Pass;

    /// Correctness checks against `reference` (a completed pass).
    fn check(&self, reference: &Pass) -> Vec<Check>;

    /// Mean |simulated − paper| slowdown, in percentage points, over the
    /// paper rows this workload reproduces.
    fn slowdown_err_pp(&self, reference: &Pass) -> f64;

    /// The request sequence the ladder replays, and its bank count.
    fn ladder_input(&self) -> (Vec<(BankId, RowId)>, u16);

    /// Per-layer metrics measured by a traced pass (`spans`), the
    /// checks and the reference pass; names the workload bypasses are
    /// left out and reported as 0.
    fn layer_metrics(
        &self,
        spans: &Spans,
        checks: &[Check],
        reference: &Pass,
    ) -> Vec<(String, f64)>;
}
