//! One benchmark run: setup, checks, timed passes, and the traced run's
//! layer metrics.

use std::io;
use std::time::Instant;

use crate::battery::AttackBattery;
use crate::benign::BenignSweep;
use crate::host;
use crate::layers::{ladder, median, Spans};
use crate::metrics::{per_layer, END_TO_END};
use crate::replay::PaperReplay;
use crate::{battery, benign, replay, Bench, Check, Pass};

/// The workloads, by the names the command line takes.
pub const WORKLOADS: [&str; 3] = ["benign_sweep", "paper_replay", "attack_battery"];

/// Setups per untraced run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Host seconds an untraced run keeps repeating setup for, up to
/// `MAX_SETUPS` times, so a cheap setup is measured many times over.
const SETUP_SECONDS: f64 = 0.25;

/// Most setups per untraced run.
const MAX_SETUPS: usize = 1000;

/// Timed passes per untraced run, at least; more while `--seconds` lasts.
const MIN_PASSES: usize = 3;

/// How large each workload runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `benign_sweep`.
    pub benign: benign::Size,
    /// `paper_replay`.
    pub replay: replay::Size,
    /// `attack_battery`.
    pub battery: battery::Size,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        benign: benign::Size::FULL,
        replay: replay::Size::FULL,
        battery: battery::Size::FULL,
    };

    /// Small cells of every workload, for tests.
    pub const SMALL: Scale = Scale {
        benign: benign::Size::SMALL,
        replay: replay::Size::SMALL,
        battery: battery::Size::SMALL,
    };
}

/// Builds `workload`'s inputs from `seed`.
///
/// # Errors
///
/// An unknown workload name, or a failed trace recording.
pub fn setup(
    workload: &str,
    seed: u64,
    scale: Scale,
    spans: Option<&mut Spans>,
) -> io::Result<Box<dyn Bench>> {
    Ok(match workload {
        "benign_sweep" => Box::new(BenignSweep::setup(seed, scale.benign, spans)),
        "paper_replay" => Box::new(PaperReplay::setup(seed, scale.replay, spans)?),
        "attack_battery" => Box::new(AttackBattery::setup(seed, scale.battery)),
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown workload {other} (one of {})", WORKLOADS.join(", ")),
            ))
        }
    })
}

/// Host accounting of one timed pass.
#[derive(Debug, Clone, Copy)]
pub struct PassHost {
    /// Wall seconds.
    pub wall_s: f64,
    /// Seconds this thread ran on a CPU.
    pub on_cpu_s: f64,
    /// Seconds this thread was runnable but waiting for a CPU.
    pub runq_wait_s: f64,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Cells and checks attempted.
    pub attempted: u64,
    /// Cells and checks that failed (a panic, a mismatch, a broken
    /// invariant).
    pub failed: u64,
    /// The failed checks and cells, by name.
    pub failures: Vec<String>,
    /// (name, value, unit), in declaration order.
    pub metrics: Vec<(String, f64, String)>,
    /// Digest of every simulated statistic of the reference pass.
    pub digest: u64,
    /// Setup durations, in seconds.
    pub setups_s: Vec<f64>,
    /// Per timed pass host accounting.
    pub passes: Vec<PassHost>,
    /// The traced run's spans (empty for untraced runs).
    pub spans: Spans,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            digest: 0,
            setups_s: Vec::new(),
            passes: Vec::new(),
            spans: Spans::default(),
        }
    }

    fn tally_pass(&mut self, pass: &Pass, reference: Option<&Pass>) {
        self.attempted += pass.cells.len() as u64;
        let bad = match reference {
            Some(r) => pass.mismatches(r),
            None => pass.failed(),
        };
        self.failed += bad as u64;
        for c in &pass.cells {
            if let Err(e) = &c.result {
                self.failures.push(format!("{}: {e}", c.name));
            }
        }
        if bad > 0 && reference.is_some() {
            self.failures
                .push(format!("{bad} cells differ from the reference pass"));
        }
    }

    /// Counts `checks` as attempted and each one that failed.
    pub fn tally_checks(&mut self, checks: &[Check]) {
        self.attempted += checks.len() as u64;
        for c in checks.iter().filter(|c| !c.ok) {
            self.failed += 1;
            self.failures.push(c.name.clone());
        }
    }

    /// Whether every cell and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
            && !self.metrics.is_empty()
    }
}

fn timed_pass(bench: &mut dyn Bench) -> (Pass, PassHost) {
    bench.prepare();
    let before = host::schedstat();
    let t0 = Instant::now();
    let pass = bench.pass(None);
    let wall_s = t0.elapsed().as_secs_f64();
    let (on_cpu_s, runq_wait_s) = match (before, host::schedstat()) {
        (Some((c0, w0)), Some((c1, w1))) => (
            c1.saturating_sub(c0) as f64 / 1e9,
            w1.saturating_sub(w0) as f64 / 1e9,
        ),
        _ => (0.0, 0.0),
    };
    (
        pass,
        PassHost {
            wall_s,
            on_cpu_s,
            runq_wait_s,
        },
    )
}

/// The untraced run: repeated setups (median → `setup_s`), an
/// untimed warm-up pass that is the reference, the checks, then timed
/// passes for `seconds` (median → `wall_s`).
///
/// # Errors
///
/// Setup errors.
pub fn measure(workload: &str, seed: u64, seconds: f64, scale: Scale) -> io::Result<Outcome> {
    let mut out = Outcome::new();
    let mut bench = None;
    let start = Instant::now();
    while out.setups_s.len() < SETUP_REPS
        || (out.setups_s.len() < MAX_SETUPS && start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(setup(workload, seed, scale, None)?);
        out.setups_s.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one setup");

    let reference = bench.pass(None);
    out.tally_pass(&reference, None);
    out.digest = reference.digest();
    out.tally_checks(&bench.check(&reference));

    let start = Instant::now();
    while out.passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let (pass, h) = timed_pass(bench.as_mut());
        out.tally_pass(&pass, Some(&reference));
        out.passes.push(h);
    }

    let wall_s = median(&mut out.passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let values = [
        wall_s,
        reference.acts() as f64 / wall_s,
        median(&mut out.setups_s.clone()),
        host::peak_rss_mib().unwrap_or(f64::NAN),
        bench.slowdown_err_pp(&reference),
    ];
    out.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit.to_string()))
        .collect();
    Ok(out)
}

/// The traced run: one setup through the tracing adapters, a warm-up
/// pass, an untraced and a traced pass (their reports must be
/// bit-identical; the time ratio is the tracing overhead), the checks,
/// and the layer ladder.
///
/// # Errors
///
/// Setup errors.
pub fn trace(workload: &str, seed: u64, scale: Scale) -> io::Result<Outcome> {
    let mut out = Outcome::new();
    let mut spans = Spans::default();
    let t0 = Instant::now();
    let mut bench = setup(workload, seed, scale, Some(&mut spans))?;
    out.setups_s.push(t0.elapsed().as_secs_f64());

    let warm = bench.pass(None);
    out.tally_pass(&warm, None);
    out.digest = warm.digest();
    let (untraced, h) = timed_pass(bench.as_mut());
    out.tally_pass(&untraced, Some(&warm));
    out.passes.push(h);
    bench.prepare();
    let t1 = Instant::now();
    let traced = bench.pass(Some(&mut spans));
    let traced_s = t1.elapsed().as_secs_f64();
    out.tally_pass(&traced, Some(&warm));
    let checks = bench.check(&untraced);
    out.tally_checks(&checks);

    let (requests, banks) = bench.ladder_input();
    let rungs = ladder(&requests, banks);

    let mut measured = bench.layer_metrics(&spans, &checks, &untraced);
    measured.extend([
        ("dram.bank.ns_per_act".to_string(), rungs.bank),
        ("dram.ledger.ns_per_act".into(), rungs.ledger),
        ("core.moat.ns_per_act".into(), rungs.moat),
        ("sim.unit.ns_per_act".into(), rungs.unit),
        ("bench.trace_overhead".into(), traced_s / h.wall_s - 1.0),
    ]);
    let declared = per_layer();
    for (name, _) in &measured {
        assert!(
            declared.iter().any(|(d, _)| d == name),
            "metric {name} is not declared"
        );
    }
    out.metrics = declared
        .into_iter()
        .map(|(name, unit)| {
            let v = measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            (name, v, unit.to_string())
        })
        .collect();
    out.spans = spans;
    Ok(out)
}
