//! The traced run's instruments, all outside the program: adapters that
//! time the calls crossing a layer boundary, the in-memory span store,
//! and the per-ACT layer ladder.

use std::borrow::Cow;
use std::time::Instant;

use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{ActCount, Bank, BankId, DramConfig, MitigationEngine, RowId, SecurityLedger};
use moat_sim::{
    BankUnit, DefenseView, Request, RequestStream, RunGrant, SemiRun, SemiScriptedAttacker,
    SlotBudget,
};

/// Busy time and work counted at one layer boundary.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Busy {
    /// Host nanoseconds spent inside the layer's calls.
    pub ns: u64,
    /// Calls into the layer.
    pub calls: u64,
    /// Units of work the calls did (requests, published ACTs).
    pub units: u64,
}

impl Busy {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Busy) {
        self.ns += other.ns;
        self.calls += other.calls;
        self.units += other.units;
    }

    /// Busy nanoseconds per unit, or 0 when the layer did no work.
    pub fn ns_per_unit(&self) -> f64 {
        ratio(self.ns as f64, self.units as f64)
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload bypasses).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One span: a layer's busy time inside one cell. Spans are aggregated
/// per (cell, layer) as the cell runs and written out when the run ends.
#[derive(Debug, Clone)]
pub struct Span {
    /// The cell the span belongs to (its parent).
    pub cell: String,
    /// The layer boundary (`"cell"` for the cell itself).
    pub layer: &'static str,
    /// What the layer did.
    pub busy: Busy,
}

/// The in-memory span store of a traced run.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Records a span.
    pub fn push(&mut self, cell: impl Into<String>, layer: &'static str, busy: Busy) {
        self.spans.push(Span {
            cell: cell.into(),
            layer,
            busy,
        });
    }

    /// Every recorded span, in recording order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// The sum of every span of `layer` whose cell name passes `keep`.
    pub fn total(&self, layer: &str, keep: impl Fn(&str) -> bool) -> Busy {
        let mut sum = Busy::default();
        for s in self
            .spans
            .iter()
            .filter(|s| s.layer == layer && keep(&s.cell))
        {
            sum.add(s.busy);
        }
        sum
    }
}

/// A [`RequestStream`] adapter timing `next_chunk`: the request-source
/// layer (generator, in-memory replay, or trace decode) as the simulator
/// sees it. The sequence is forwarded untouched.
#[derive(Debug)]
pub struct TimedStream<'a, S> {
    inner: S,
    busy: &'a mut Busy,
}

impl<'a, S: RequestStream> TimedStream<'a, S> {
    /// Wraps `inner`, accumulating into `busy`.
    pub fn new(inner: S, busy: &'a mut Busy) -> Self {
        TimedStream { inner, busy }
    }
}

impl<S: RequestStream> RequestStream for TimedStream<'_, S> {
    fn next_request(&mut self) -> Option<Request> {
        let r = self.inner.next_request();
        self.busy.units += u64::from(r.is_some());
        r
    }

    fn next_chunk(&mut self, buf: &mut Vec<Request>) -> usize {
        let t0 = Instant::now();
        let n = self.inner.next_chunk(buf);
        self.busy.ns += elapsed_ns(t0);
        self.busy.calls += 1;
        self.busy.units += n as u64;
        n
    }
}

/// A [`SemiScriptedAttacker`] adapter counting and timing `publish`: how
/// many grants the simulator hands out, how many ACTs each turns into,
/// and the attacker's own host time. It also keeps the published rows,
/// up to a cap, as the ladder's input.
#[derive(Debug)]
pub struct ObservedAttacker<'a, A> {
    inner: A,
    busy: &'a mut Busy,
    rows: &'a mut Vec<RowId>,
    cap: usize,
}

impl<'a, A: SemiScriptedAttacker> ObservedAttacker<'a, A> {
    /// Wraps `inner`, accumulating into `busy` and appending published
    /// rows to `rows` while it holds fewer than `cap`.
    pub fn new(inner: A, busy: &'a mut Busy, rows: &'a mut Vec<RowId>, cap: usize) -> Self {
        ObservedAttacker {
            inner,
            busy,
            rows,
            cap,
        }
    }
}

impl<A: SemiScriptedAttacker> SemiScriptedAttacker for ObservedAttacker<'_, A> {
    fn publish(
        &mut self,
        view: &DefenseView<'_>,
        buf: &mut Vec<RowId>,
        grant: RunGrant,
    ) -> SemiRun {
        let t0 = Instant::now();
        let run = self.inner.publish(view, buf, grant);
        self.busy.ns += elapsed_ns(t0);
        self.busy.calls += 1;
        if let SemiRun::Acts(n) = run {
            self.busy.units += n as u64;
            let room = self.cap.saturating_sub(self.rows.len()).min(n);
            self.rows.extend_from_slice(&buf[..room]);
        }
        run
    }

    fn name(&self) -> Cow<'_, str> {
        self.inner.name()
    }
}

/// Host ns/ACT of each rung of the per-ACT ladder, each rung driven
/// alone over the same request sequence on fresh state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ladder {
    /// `Bank::activate`: timing check and in-array counter.
    pub bank: f64,
    /// `SecurityLedger::on_activate`: ground-truth victim pressure.
    pub ledger: f64,
    /// `MoatEngine::on_precharge_update`: the tracker update.
    pub moat: f64,
    /// `BankUnit::activate`: all three together.
    pub unit: f64,
}

/// Repetitions per rung; the median is reported.
const LADDER_REPS: usize = 3;

/// Drives `requests` (over `banks` banks) through each rung of the
/// ladder and returns the median ns/ACT of each.
pub fn ladder(requests: &[(BankId, RowId)], banks: u16) -> Ladder {
    let dram = DramConfig::paper_baseline();
    let banks = usize::from(banks);
    let acts = requests.len() as f64;
    // The engine rung needs the counters the bank hands its precharge
    // logic; computed once, untimed.
    let counters: Vec<ActCount> = {
        let mut state: Vec<Bank> = (0..banks).map(|_| Bank::new(&dram)).collect();
        requests
            .iter()
            .map(|&(b, row)| {
                let bank = &mut state[b.as_usize()];
                let now = bank.next_ready();
                bank.activate(row, now).expect("ladder request in range")
            })
            .collect()
    };
    Ladder {
        bank: rung(
            acts,
            || (0..banks).map(|_| Bank::new(&dram)).collect::<Vec<_>>(),
            |state| {
                for &(b, row) in requests {
                    let bank = &mut state[b.as_usize()];
                    let now = bank.next_ready();
                    std::hint::black_box(bank.activate(row, now).expect("in range"));
                }
            },
        ),
        ledger: rung(
            acts,
            || {
                (0..banks)
                    .map(|_| SecurityLedger::new(&dram))
                    .collect::<Vec<_>>()
            },
            |state| {
                for &(b, row) in requests {
                    state[b.as_usize()].on_activate(row);
                }
            },
        ),
        moat: rung(
            acts,
            || {
                (0..banks)
                    .map(|_| MoatEngine::new(MoatConfig::paper_default()))
                    .collect::<Vec<_>>()
            },
            |state| {
                for (&(b, row), &c) in requests.iter().zip(&counters) {
                    state[b.as_usize()].on_precharge_update(row, c);
                }
            },
        ),
        unit: rung(
            acts,
            || {
                (0..banks)
                    .map(|_| {
                        BankUnit::new(
                            &dram,
                            MoatEngine::new(MoatConfig::paper_default()),
                            SlotBudget::paper_default(),
                        )
                    })
                    .collect::<Vec<_>>()
            },
            |state| {
                for &(b, row) in requests {
                    let unit = &mut state[b.as_usize()];
                    let now = unit.bank().next_ready();
                    std::hint::black_box(unit.activate(row, now).expect("in range"));
                }
            },
        ),
    }
}

/// Median ns per ACT of `run` over `LADDER_REPS` fresh states from
/// `make` (built outside the timing).
fn rung<T>(acts: f64, make: impl Fn() -> T, run: impl Fn(&mut T)) -> f64 {
    let mut ns: Vec<f64> = (0..LADDER_REPS)
        .map(|_| {
            let mut state = make();
            let t0 = Instant::now();
            run(&mut state);
            let ns = elapsed_ns(t0) as f64;
            std::hint::black_box(&state);
            ns / acts.max(1.0)
        })
        .collect();
    median(&mut ns)
}

/// The median of `v` (mean of the middle pair for even lengths); 0 for
/// an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
