//! `paper_replay`: the `--full` path. Profiles at 32 banks are recorded
//! into RAM-backed v2 traces, opened with `TraceFile::open`, and
//! replayed through `TraceReplay` at the baseline, ATH-64 and ATH-128.

use std::io;
use std::time::Instant;

use moat_core::MoatConfig;
use moat_dram::{BankId, DramConfig, RowId};
use moat_sim::RequestStream;
use moat_trace::{record_stream, TraceFile};
use moat_workloads::{trace_key, GeneratorConfig, WorkloadProfile, WorkloadStream};

use crate::benign::{per_request_check, perf_cell, slowdown};
use crate::host::RamFile;
use crate::layers::{Busy, Spans, TimedStream};
use crate::{Bench, Check, Pass};

/// The replayed configurations: (label, MOAT config, paper Fig. 11
/// average slowdown in %); `None` is the ALERT-free baseline.
const CONFIGS: [(&str, Option<MoatConfig>, f64); 3] = [
    ("base", None, 0.0),
    ("ath64", Some(MoatConfig::with_ath(64)), 0.28),
    ("ath128", Some(MoatConfig::with_ath(128)), 0.0),
];

/// How much to record.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Banks per sub-channel.
    pub banks: u16,
    /// Profile names.
    pub profiles: &'static [&'static str],
}

impl Size {
    /// Two of the hottest SPEC profiles at paper scale, one tREFW.
    pub const FULL: Size = Size {
        banks: 32,
        profiles: &["cactuBSSN", "cam4"],
    };

    /// One profile at two banks, for tests.
    pub const SMALL: Size = Size {
        banks: 2,
        profiles: &["cam4"],
    };
}

/// One recorded profile. The trace maps the RAM file, which lives as
/// long as the trace does.
#[derive(Debug)]
struct Recorded {
    profile: &'static WorkloadProfile,
    trace: TraceFile,
    _file: RamFile,
}

/// The recorded traces.
#[derive(Debug)]
pub struct PaperReplay {
    size: Size,
    dram: DramConfig,
    traces: Vec<Recorded>,
}

impl PaperReplay {
    /// Records every profile from `seed`. With `spans`, the generator is
    /// timed as `workloads.gen`, the whole recording as `trace.record`
    /// and the open (map + checksum walk) as `trace.open`.
    ///
    /// # Errors
    ///
    /// Propagates RAM-file, recording and open errors.
    pub fn setup(seed: u64, size: Size, mut spans: Option<&mut Spans>) -> io::Result<PaperReplay> {
        let dram = DramConfig::paper_baseline();
        let gen = GeneratorConfig {
            banks: size.banks,
            windows: 1,
            seed,
        };
        let mut traces = Vec::with_capacity(size.profiles.len());
        for name in size.profiles {
            let profile = WorkloadProfile::by_name(name).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, format!("no profile {name}"))
            })?;
            let key = trace_key(profile, &dram, gen);
            let file = RamFile::new(name)?;
            let path = file.path();
            let live = WorkloadStream::new(profile, &dram, gen);
            let mut gen_busy = Busy::default();
            let t0 = Instant::now();
            let header = if spans.is_some() {
                record_stream(
                    &path,
                    key.fingerprint,
                    TimedStream::new(live, &mut gen_busy),
                )?
            } else {
                record_stream(&path, key.fingerprint, live)?
            };
            let record_ns = ns_since(t0);
            let t1 = Instant::now();
            let trace = TraceFile::open(&path)?;
            let open_ns = ns_since(t1);
            if let Some(spans) = spans.as_deref_mut() {
                spans.push(*name, "workloads.gen", gen_busy);
                let busy = |ns| Busy {
                    ns,
                    calls: 1,
                    units: header.count,
                };
                spans.push(*name, "trace.record", busy(record_ns));
                spans.push(*name, "trace.open", busy(open_ns));
            }
            traces.push(Recorded {
                profile,
                trace,
                _file: file,
            });
        }
        Ok(PaperReplay { size, dram, traces })
    }
}

fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Bench for PaperReplay {
    fn pass(&mut self, mut spans: Option<&mut Spans>) -> Pass {
        let (dram, banks) = (self.dram, self.size.banks);
        let mut cells = Vec::with_capacity(self.traces.len() * CONFIGS.len());
        for rec in &self.traces {
            for (label, moat, _) in CONFIGS {
                let name = format!("{}/{label}", rec.profile.name);
                cells.push(perf_cell(
                    name,
                    dram,
                    banks,
                    moat,
                    || rec.trace.replay(),
                    spans.as_deref_mut(),
                ));
            }
        }
        Pass { cells }
    }

    /// `run_per_request` against `run` on one cell per profile, rotating
    /// through the configurations.
    fn check(&self, reference: &Pass) -> Vec<Check> {
        let per = CONFIGS.len();
        self.traces
            .iter()
            .enumerate()
            .map(|(i, rec)| {
                per_request_check(
                    &reference.cells[i * per + (i + 1) % per],
                    self.dram,
                    self.size.banks,
                    CONFIGS[(i + 1) % per].1,
                    rec.trace.replay(),
                )
            })
            .chain(self.traces.iter().map(|rec| {
                // The replay must hand the simulator every recorded request.
                let mut replay = rec.trace.replay();
                let mut chunk = Vec::with_capacity(moat_sim::DEFAULT_CHUNK);
                let mut n = 0u64;
                while replay.next_chunk(&mut chunk) > 0 {
                    n += chunk.len() as u64;
                }
                Check::plain(
                    format!(
                        "{} replays all {} recorded requests",
                        rec.profile.name,
                        rec.trace.len()
                    ),
                    n == rec.trace.len() && n > 0,
                )
            }))
            .collect()
    }

    /// Fig. 11's averages: mean over ATH-64 (paper 0.28%) and ATH-128
    /// (paper ~0%) of |average slowdown over the replayed profiles −
    /// paper|.
    fn slowdown_err_pp(&self, reference: &Pass) -> f64 {
        let per = CONFIGS.len();
        let mut err = 0.0;
        for (c, &(_, _, paper)) in CONFIGS.iter().enumerate().skip(1) {
            let mut sum = 0.0;
            for profile in reference.cells.chunks_exact(per) {
                match (profile[0].report(), profile[c].report()) {
                    (Some(base), Some(cell)) => sum += slowdown(cell, base),
                    _ => return f64::NAN,
                }
            }
            let avg = sum / self.traces.len() as f64 * 100.0;
            err += (avg - paper).abs();
        }
        err / (per - 1) as f64
    }

    fn ladder_input(&self) -> (Vec<(BankId, RowId)>, u16) {
        let mut requests = Vec::new();
        let mut chunk = Vec::with_capacity(moat_sim::DEFAULT_CHUNK);
        for rec in &self.traces {
            let mut replay = rec.trace.replay();
            while replay.next_chunk(&mut chunk) > 0 {
                requests.extend(chunk.iter().map(|q| (q.bank, q.row)));
            }
        }
        (requests, self.size.banks)
    }

    fn layer_metrics(
        &self,
        spans: &Spans,
        checks: &[Check],
        reference: &Pass,
    ) -> Vec<(String, f64)> {
        crate::metrics::perf_layers(spans, checks, reference, true)
    }
}
