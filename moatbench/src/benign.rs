//! `benign_sweep`: Table 7 over the 21 Table-4 profiles at `repro`'s
//! scaled size (2 banks, one tREFW), streams materialized in memory.

use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{AboLevel, BankId, DramConfig, RowId};
use moat_sim::{PerfConfig, PerfSim, Request, RequestStream, SlotBudget, DEFAULT_CHUNK};
use moat_workloads::{GeneratorConfig, WorkloadProfile, WorkloadStream, PROFILES};

use crate::layers::{Busy, Spans, TimedStream};
use crate::{Bench, Cell, Check, Pass, Report};

/// Table 7's rows: (ATH, ABO level, paper average slowdown in %).
pub const TABLE7: [(u32, u8, f64); 9] = [
    (32, 1, 3.90),
    (32, 2, 5.60),
    (32, 4, 9.50),
    (64, 1, 0.28),
    (64, 2, 0.34),
    (64, 4, 0.45),
    (128, 1, 0.0),
    (128, 2, 0.0),
    (128, 4, 0.0),
];

/// How much of the sweep to run.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Banks per sub-channel.
    pub banks: u16,
    /// Profiles, from the front of `PROFILES`.
    pub profiles: usize,
    /// Table 7 rows, from the front of [`TABLE7`].
    pub rows: usize,
}

impl Size {
    /// `repro`'s scaled Table 7.
    pub const FULL: Size = Size {
        banks: 2,
        profiles: PROFILES.len(),
        rows: TABLE7.len(),
    };

    /// A few cells at one bank, for tests.
    pub const SMALL: Size = Size {
        banks: 1,
        profiles: 2,
        rows: 2,
    };
}

/// The materialized sweep.
#[derive(Debug)]
pub struct BenignSweep {
    size: Size,
    dram: DramConfig,
    streams: Vec<(&'static WorkloadProfile, Vec<Request>)>,
}

/// Runs one MOAT cell over `stream`; `None` is the ALERT-free baseline.
pub fn moat_cell<S: RequestStream>(
    dram: DramConfig,
    banks: u16,
    moat: Option<MoatConfig>,
    stream: S,
    per_request: bool,
) -> Report {
    let engine = moat.unwrap_or(MoatConfig::paper_default());
    let cfg = PerfConfig {
        dram,
        banks,
        abo_level: engine.level,
        budget: SlotBudget::paper_default(),
        alerts_enabled: moat.is_some(),
    };
    let mut sim = PerfSim::new(cfg, || MoatEngine::new(engine));
    Report::Perf(if per_request {
        sim.run_per_request(stream)
    } else {
        sim.run(stream)
    })
}

/// Runs one `run` cell as a pass does: with `spans`, the stream goes
/// through [`TimedStream`] and the cell records its `stream` and `cell`
/// spans.
pub fn perf_cell<S: RequestStream>(
    name: String,
    dram: DramConfig,
    banks: u16,
    moat: Option<MoatConfig>,
    stream: impl Fn() -> S,
    spans: Option<&mut Spans>,
) -> Cell {
    let Some(spans) = spans else {
        return Cell::run(name, || moat_cell(dram, banks, moat, stream(), false));
    };
    let mut busy = Busy::default();
    let cell = Cell::run(name, || {
        moat_cell(
            dram,
            banks,
            moat,
            TimedStream::new(stream(), &mut busy),
            false,
        )
    });
    spans.push(cell.name.clone(), "stream", busy);
    spans.push(cell.name.clone(), "cell", cell.busy());
    cell
}

/// Runs `fast`'s cell again through `run_per_request` and checks the
/// reports are bit-identical; both host times are kept.
pub fn per_request_check<S: RequestStream>(
    fast: &Cell,
    dram: DramConfig,
    banks: u16,
    moat: Option<MoatConfig>,
    stream: S,
) -> Check {
    let slow = Cell::run(String::new(), || moat_cell(dram, banks, moat, stream, true));
    Check {
        name: format!("{} run == run_per_request", fast.name),
        ok: slow.report().is_some() && slow.report() == fast.report(),
        reference_ns: slow.ns,
        fast_ns: fast.ns,
    }
}

/// Slowdown of a cell against its baseline, clamped at 0 as `repro`
/// does.
pub fn slowdown(cell: &Report, base: &Report) -> f64 {
    match (cell, base) {
        (Report::Perf(c), Report::Perf(b)) => c.slowdown_vs(b).max(0.0),
        _ => 0.0,
    }
}

impl BenignSweep {
    /// Generates every profile's stream from `seed`. With `spans`, the
    /// generator's `next_chunk` is timed as `workloads.gen`.
    pub fn setup(seed: u64, size: Size, mut spans: Option<&mut Spans>) -> BenignSweep {
        let dram = DramConfig::paper_baseline();
        let gen = GeneratorConfig {
            banks: size.banks,
            windows: 1,
            seed,
        };
        let streams = PROFILES[..size.profiles]
            .iter()
            .map(|p| {
                let live = WorkloadStream::new(p, &dram, gen);
                let requests = match spans.as_deref_mut() {
                    Some(spans) => {
                        let mut busy = Busy::default();
                        let r = drain(TimedStream::new(live, &mut busy));
                        spans.push(p.name, "workloads.gen", busy);
                        r
                    }
                    None => drain(live),
                };
                (p, requests)
            })
            .collect();
        BenignSweep {
            size,
            dram,
            streams,
        }
    }

    /// The cells of one profile: baseline first, then Table 7's rows.
    fn configs(&self) -> impl Iterator<Item = (String, Option<MoatConfig>)> + '_ {
        std::iter::once(("base".to_string(), None)).chain(TABLE7[..self.size.rows].iter().map(
            |&(ath, level, _)| {
                let abo = AboLevel::from_u8(level).expect("legal level");
                (
                    format!("ath{ath}-l{level}"),
                    Some(MoatConfig::with_ath(ath).level(abo)),
                )
            },
        ))
    }

    fn cells_per_profile(&self) -> usize {
        1 + self.size.rows
    }
}

/// Drains a stream into a flat vector, chunk by chunk.
fn drain<S: RequestStream>(mut stream: S) -> Vec<Request> {
    let mut out = Vec::new();
    let mut chunk = Vec::with_capacity(DEFAULT_CHUNK);
    while stream.next_chunk(&mut chunk) > 0 {
        out.extend_from_slice(&chunk);
    }
    out
}

impl Bench for BenignSweep {
    fn pass(&mut self, mut spans: Option<&mut Spans>) -> Pass {
        let mut cells = Vec::with_capacity(self.streams.len() * self.cells_per_profile());
        for (p, requests) in &self.streams {
            for (label, moat) in self.configs() {
                let name = format!("{}/{label}", p.name);
                cells.push(perf_cell(
                    name,
                    self.dram,
                    self.size.banks,
                    moat,
                    || requests.iter().copied(),
                    spans.as_deref_mut(),
                ));
            }
        }
        Pass { cells }
    }

    /// `run_per_request` against `run` on one cell per profile, rotating
    /// through the configurations so every row is covered.
    fn check(&self, reference: &Pass) -> Vec<Check> {
        let per = self.cells_per_profile();
        self.streams
            .iter()
            .enumerate()
            .map(|(i, (_, requests))| {
                let (_, moat) = self.configs().nth(i % per).expect("config index");
                per_request_check(
                    &reference.cells[i * per + i % per],
                    self.dram,
                    self.size.banks,
                    moat,
                    requests.iter().copied(),
                )
            })
            .collect()
    }

    /// Table 7: mean over its rows of |21-profile average slowdown −
    /// paper|.
    fn slowdown_err_pp(&self, reference: &Pass) -> f64 {
        let per = self.cells_per_profile();
        let rows = self.size.rows;
        let mut err = 0.0;
        for (r, &(_, _, paper)) in TABLE7[..rows].iter().enumerate() {
            let mut sum = 0.0;
            for profile in reference.cells.chunks_exact(per) {
                match (profile[0].report(), profile[1 + r].report()) {
                    (Some(base), Some(cell)) => sum += slowdown(cell, base),
                    _ => return f64::NAN,
                }
            }
            let avg = sum / self.streams.len() as f64 * 100.0;
            err += (avg - paper).abs();
        }
        err / rows as f64
    }

    fn ladder_input(&self) -> (Vec<(BankId, RowId)>, u16) {
        let requests = self
            .streams
            .iter()
            .flat_map(|(_, r)| r.iter().map(|q| (q.bank, q.row)))
            .collect();
        (requests, self.size.banks)
    }

    fn layer_metrics(
        &self,
        spans: &Spans,
        checks: &[Check],
        reference: &Pass,
    ) -> Vec<(String, f64)> {
        crate::metrics::perf_layers(spans, checks, reference, false)
    }
}
