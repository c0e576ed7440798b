//! Synthetic activation-stream generator calibrated to Table 4.
//!
//! The generator reproduces, per bank per tREFW, the row-activation
//! histogram the paper reports (rows with ≥32/≥64/≥128 activations) and an
//! overall activation rate derived from ACT-PKI under the paper's 8-core
//! 4 GHz rate-mode configuration. Each hot row's activations are emitted
//! as a *burst* over a random sub-window, which reproduces the temporal
//! clustering that makes proactive mitigation occasionally fall behind and
//! trigger ALERTs (§6.3).
//!
//! What the paper took from real SPEC/GAP traces, we synthesize — the
//! histogram plus the rate are precisely the statistics MOAT's behaviour
//! depends on (see DESIGN.md, substitution table).
//!
//! # Emission order
//!
//! Planning yields a list of *campaigns*: campaign `i` activates one row
//! at `start_i + k·interval_i` for `k < acts_i`. The stream is every
//! campaign event sorted by `(t, i)` — what a min-heap merge of the
//! campaigns emits, since such a merge always pops the least `(t, i)` and
//! each campaign's times never decrease.
//!
//! [`WorkloadStream`] produces that order from a *calendar* of fixed-width
//! time slabs covering the stream's span. Each slab heads a linked list
//! of the campaigns whose next event falls inside it. Expanding a slab
//! appends every listed campaign's events inside the slab as packed
//! `(t − slab_start, i)` keys, moves each campaign still running to the
//! list of the slab holding its next event (always a later slab), and
//! sorts the keys. A slab's keys are therefore exactly its events, sorted
//! by `(t, i)`, and slabs are served in time order, so the stream equals
//! the merge. Per request this costs a share of one small sort instead of
//! a pop and a push on a heap of every live campaign. Measured on a
//! 2-vCPU Intel Xeon (ns per request, draining through `next_chunk`,
//! heap merge → calendar): the 21 profiles at 2 banks 127–139 → 20–23;
//! cactuBSSN and cam4 at 32 banks 179–194 → 30–37; bwaves at 32 banks,
//! whose 30 MB of campaigns miss cache, 419 → 82. Memory is the
//! campaign list, 4 bytes per campaign and 4 bytes per slab of span; at
//! most one slab of requests is materialized at a time.

use moat_dram::{BankId, DramConfig, Nanos, RowId};
use moat_sim::{Request, RequestStream, DEFAULT_CHUNK};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::profiles::WorkloadProfile;

/// Version of the stream-generation algorithm. Folded into every trace
/// cache key (see [`crate::trace_key`]): recorded traces are replayed as
/// stand-ins for fresh generation, so **bump this whenever a change to
/// this module alters the emitted sequence** — otherwise warm caches
/// (developer checkouts, the persisted CI cache) would silently replay
/// the pre-change streams. The `golden_stream_digests` test pins the
/// emitted bytes of fixed streams; while it passes unchanged, the
/// sequence has not moved and the version must stay.
pub const GENERATOR_VERSION: u32 = 1;

/// Aggregate instruction rate of the paper's 8-core 4 GHz system at an
/// assumed IPC of 1 (instructions per second).
const INSTR_PER_SEC: f64 = 8.0 * 4.0e9;

/// Total banks in the paper's system (32 banks × 2 sub-channels).
const TOTAL_BANKS: f64 = 64.0;

/// Fraction of peak bank throughput the generator will not exceed.
const MAX_BANK_UTILIZATION: f64 = 0.75;

/// log2 of the calendar's slab width in nanoseconds. A 4 µs slab holds
/// about 4 (x264) to 120 (bwaves) events at 2 banks and up to ~1,500 at
/// 32 banks: small enough that sorting a slab stays cheap, wide enough
/// that light streams skip few empty slabs.
const SLAB_SHIFT: u32 = 12;

/// End of a calendar slab's campaign list.
const NIL: u32 = u32::MAX;

/// Configuration of the synthetic stream.
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// Banks to generate traffic for (the sub-channel under simulation).
    pub banks: u16,
    /// Number of tREFW windows to cover.
    pub windows: u32,
    /// RNG seed (streams are fully reproducible).
    pub seed: u64,
}

impl GeneratorConfig {
    /// A scaled-down default: 8 banks, one refresh window.
    pub fn scaled() -> Self {
        GeneratorConfig {
            banks: 8,
            windows: 1,
            seed: 0xA0A7,
        }
    }

    /// Paper-scale: 32 banks, two refresh windows.
    pub fn paper_scale() -> Self {
        GeneratorConfig {
            banks: 32,
            windows: 2,
            seed: 0xA0A7,
        }
    }
}

/// One scheduled burst of activations to a single row.
#[derive(Debug, Clone, Copy)]
struct Campaign {
    /// Time of the campaign's next activation.
    next: u64,
    /// Nanoseconds between consecutive activations of this campaign.
    interval: u64,
    row: u32,
    /// Activations left, including the one at `next`.
    remaining: u32,
    bank: u16,
}

impl Campaign {
    /// Time of the campaign's final activation.
    fn last(&self) -> u64 {
        self.next + u64::from(self.remaining - 1) * self.interval
    }
}

/// The calendar slab holding time `t`.
fn slab_of(t: u64) -> usize {
    usize::try_from(t >> SLAB_SHIFT).expect("stream span fits the address space")
}

/// The merged, time-ordered activation stream for one workload.
///
/// # Examples
///
/// ```
/// use moat_dram::DramConfig;
/// use moat_sim::RequestStream;
/// use moat_workloads::{GeneratorConfig, WorkloadProfile, WorkloadStream};
///
/// let profile = WorkloadProfile::by_name("xalancbmk").unwrap();
/// let mut cfg = GeneratorConfig::scaled();
/// cfg.banks = 2;
/// let mut stream =
///     WorkloadStream::new(profile, &DramConfig::paper_baseline(), cfg);
/// let first = stream.next_request().expect("non-empty stream");
/// assert!(first.bank.index() < 2);
/// ```
#[derive(Debug)]
pub struct WorkloadStream {
    campaigns: Vec<Campaign>,
    /// Heads of the calendar's per-slab campaign lists: slab `s` lists
    /// the campaigns whose next activation is in
    /// `[s << SLAB_SHIFT, (s + 1) << SLAB_SHIFT)`.
    slabs: Vec<u32>,
    /// `links[i]`: the campaign after `i` in its slab's list, or [`NIL`].
    /// Kept apart from `campaigns` so walking a list chases 4-byte links
    /// rather than whole campaigns, which at 32 banks do not fit in cache.
    links: Vec<u32>,
    /// First slab not yet expanded.
    next_slab: usize,
    /// The expanded slab's events, sorted `(t − ready_base) << 32 | idx`
    /// keys, served from `ready[cursor..]`.
    ready: Vec<u64>,
    cursor: usize,
    ready_base: u64,
    last_time: u64,
    total_emitted: u64,
}

impl WorkloadStream {
    /// Builds the stream for `profile` over the given DRAM organization.
    ///
    /// # Panics
    ///
    /// If one bank-window plans more campaigns than the bank has rows:
    /// every campaign needs a row of its own.
    pub fn new(profile: &WorkloadProfile, dram: &DramConfig, config: GeneratorConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ hash_name(profile.name));
        let trefw_ns = dram.timing.t_refw.as_u64();
        let budget = Self::acts_per_bank_per_window(profile, dram);

        let mut campaigns = Vec::new();
        for window in 0..config.windows {
            let window_start = u64::from(window) * trefw_ns;
            for bank in 0..config.banks {
                Self::plan_bank_window(
                    profile,
                    dram,
                    budget,
                    bank,
                    window_start,
                    trefw_ns,
                    &mut rng,
                    &mut campaigns,
                );
            }
        }
        assert!(
            campaigns.len() < NIL as usize,
            "{} campaigns overflow the calendar's u32 index",
            campaigns.len()
        );

        let span = campaigns.iter().map(Campaign::last).max();
        let mut slabs = vec![NIL; span.map_or(0, |t| slab_of(t) + 1)];
        let mut links = vec![NIL; campaigns.len()];
        for (idx, c) in campaigns.iter().enumerate() {
            let head = &mut slabs[slab_of(c.next)];
            links[idx] = *head;
            *head = idx as u32;
        }
        WorkloadStream {
            campaigns,
            slabs,
            links,
            next_slab: 0,
            ready: Vec::new(),
            cursor: 0,
            ready_base: 0,
            last_time: 0,
            total_emitted: 0,
        }
    }

    /// The activation budget per bank per tREFW: the ACT-PKI-derived rate,
    /// floored by what the hot-row histogram itself requires and capped at
    /// a sane bank utilization.
    pub fn acts_per_bank_per_window(profile: &WorkloadProfile, dram: &DramConfig) -> u64 {
        let trefw_s = dram.timing.t_refw.as_u64() as f64 / 1e9;
        let pki_rate = INSTR_PER_SEC * profile.act_pki / 1000.0 / TOTAL_BANKS;
        let capacity = 1e9 / dram.timing.t_rc.as_u64() as f64 * MAX_BANK_UTILIZATION;
        let from_pki = pki_rate.min(capacity) * trefw_s;
        // The histogram is a hard floor: a workload whose hot rows imply
        // more activations than IPC=1 would produce simply runs at a
        // higher IPC in the paper's OOO cores.
        let floor = profile.min_hot_acts() as f64 * 1.18;
        from_pki.max(floor) as u64
    }

    #[allow(clippy::too_many_arguments)]
    fn plan_bank_window(
        profile: &WorkloadProfile,
        dram: &DramConfig,
        budget: u64,
        bank: u16,
        window_start: u64,
        trefw_ns: u64,
        rng: &mut StdRng,
        campaigns: &mut Vec<Campaign>,
    ) {
        let rows = dram.rows_per_bank;
        let mut spent: u64 = 0;
        // Rows are sampled without replacement within a bank-window:
        // duplicate campaigns would silently push rows across the
        // 32/64/128 bucket lines and distort the Table 4 histogram.
        // Once every row is taken no draw can succeed, so sampling stops
        // and the rows still asked for are only counted, for the panic
        // below.
        let mut used = std::collections::HashSet::new();
        let mut needed: u64 = 0;
        let mut sample_row = |rng: &mut StdRng| {
            needed += 1;
            while used.len() < rows as usize {
                let r = rng.random_range(0..rows);
                if used.insert(r) {
                    return r;
                }
            }
            0
        };
        let mut push = |row: u32, acts: u32, interval: u64, start: u64| {
            campaigns.push(Campaign {
                next: start,
                interval,
                row,
                remaining: acts,
                bank,
            });
        };

        // Hot rows: (bucket count, min acts, max extra).
        let buckets = [
            (profile.bucket128(), 128u32, 192u32),
            (profile.bucket64(), 64, 63),
            (profile.bucket32(), 32, 31),
        ];
        for &(count, base, extra_max) in &buckets {
            for _ in 0..count {
                let extra = if extra_max > 0 {
                    // Skew extras low so low-PKI workloads stay in budget.
                    let r: f64 = rng.random();
                    (f64::from(extra_max) * r * r) as u32
                } else {
                    0
                };
                let acts = base + extra;
                spent += u64::from(acts);
                // Hot rows burst over 10–50% of the window.
                let frac = rng.random_range(0.10..0.50);
                let duration = (trefw_ns as f64 * frac) as u64;
                let start =
                    window_start + rng.random_range(0..trefw_ns.saturating_sub(duration).max(1));
                let interval = (duration / u64::from(acts)).max(52);
                push(sample_row(rng), acts, interval, start);
            }
        }

        // Cold background: spend the remaining budget on rows below the
        // 32-activation line, spread across the whole window.
        while spent < budget {
            let acts = rng
                .random_range(1..=31u32)
                .min((budget - spent) as u32)
                .max(1);
            spent += u64::from(acts);
            let start = window_start + rng.random_range(0..trefw_ns);
            push(sample_row(rng), acts, trefw_ns / u64::from(acts) / 4, start);
        }

        assert!(
            needed <= u64::from(rows),
            "workload {}: a bank-window needs {needed} distinct rows, but the bank has only \
             rows_per_bank = {rows}",
            profile.name
        );
    }

    /// Expands the next non-empty calendar slab into `ready`; `false`
    /// once every slab is spent.
    fn expand_next_slab(&mut self) -> bool {
        self.ready.clear();
        self.cursor = 0;
        while self.next_slab < self.slabs.len() {
            let slab = self.next_slab;
            self.next_slab += 1;
            let base = (slab as u64) << SLAB_SHIFT;
            let end = base + (1 << SLAB_SHIFT);
            let mut idx = std::mem::replace(&mut self.slabs[slab], NIL);
            while idx != NIL {
                let c = &mut self.campaigns[idx as usize];
                let following = self.links[idx as usize];
                loop {
                    self.ready.push(((c.next - base) << 32) | u64::from(idx));
                    c.remaining -= 1;
                    if c.remaining == 0 {
                        break;
                    }
                    c.next += c.interval;
                    if c.next >= end {
                        let head = &mut self.slabs[slab_of(c.next)];
                        self.links[idx as usize] = *head;
                        *head = idx;
                        break;
                    }
                }
                idx = following;
            }
            if !self.ready.is_empty() {
                self.ready.sort_unstable();
                self.ready_base = base;
                return true;
            }
        }
        false
    }

    /// The request for a `ready` key, and its activation time.
    fn request(&self, key: u64, last_time: u64) -> (Request, u64) {
        let t = self.ready_base + (key >> 32);
        let c = &self.campaigns[key as u32 as usize];
        let request = Request {
            gap: Nanos::new(t.saturating_sub(last_time)),
            bank: BankId::new(c.bank),
            row: RowId::new(c.row),
        };
        (request, t)
    }

    /// Total requests emitted so far.
    pub fn emitted(&self) -> u64 {
        self.total_emitted
    }
}

impl RequestStream for WorkloadStream {
    fn next_request(&mut self) -> Option<Request> {
        if self.cursor == self.ready.len() && !self.expand_next_slab() {
            return None;
        }
        let (request, t) = self.request(self.ready[self.cursor], self.last_time);
        self.cursor += 1;
        self.last_time = t;
        self.total_emitted += 1;
        Some(request)
    }

    /// Batched generation: whole runs of the expanded slab per copy, with
    /// the arrival clock held in a local instead of being written back
    /// through `&mut self` per request. Yields exactly the sequence
    /// repeated [`next_request`](RequestStream::next_request) calls would
    /// (pinned by the `chunk_equivalence` proptest).
    fn next_chunk(&mut self, buf: &mut Vec<Request>) -> usize {
        buf.clear();
        if buf.capacity() == 0 {
            buf.reserve(DEFAULT_CHUNK);
        }
        let cap = buf.capacity();
        let mut last_time = self.last_time;
        while buf.len() < cap {
            if self.cursor == self.ready.len() && !self.expand_next_slab() {
                break;
            }
            let take = (cap - buf.len()).min(self.ready.len() - self.cursor);
            for &key in &self.ready[self.cursor..self.cursor + take] {
                let (request, t) = self.request(key, last_time);
                buf.push(request);
                last_time = t;
            }
            self.cursor += take;
        }
        self.last_time = last_time;
        self.total_emitted += buf.len() as u64;
        buf.len()
    }
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

/// Measures the per-bank-per-window activation histogram of a stream —
/// used to verify the generator against Table 4.
#[derive(Debug, Default)]
pub struct HistogramCheck {
    /// Rows with ≥32 activations, averaged per bank per window.
    pub act32: f64,
    /// Rows with ≥64 activations.
    pub act64: f64,
    /// Rows with ≥128 activations.
    pub act128: f64,
    /// Total activations per bank per window.
    pub acts_per_bank: f64,
}

impl HistogramCheck {
    /// Drains `stream` and tabulates per-bank-per-window row activation
    /// counts.
    pub fn measure<S: RequestStream>(
        mut stream: S,
        dram: &DramConfig,
        banks: u16,
        windows: u32,
    ) -> Self {
        use std::collections::HashMap;
        let trefw = dram.timing.t_refw.as_u64();
        let mut counts: HashMap<(u32, u16, u32), u32> = HashMap::new();
        let mut now = 0u64;
        let mut total = 0u64;
        while let Some(r) = stream.next_request() {
            now += r.gap.as_u64();
            let window = (now / trefw) as u32;
            *counts
                .entry((window, r.bank.index(), r.row.index()))
                .or_default() += 1;
            total += 1;
        }
        let cells = f64::from(windows) * f64::from(banks);
        let mut h = HistogramCheck {
            acts_per_bank: total as f64 / cells,
            ..Default::default()
        };
        for &c in counts.values() {
            if c >= 32 {
                h.act32 += 1.0;
            }
            if c >= 64 {
                h.act64 += 1.0;
            }
            if c >= 128 {
                h.act128 += 1.0;
            }
        }
        h.act32 /= cells;
        h.act64 /= cells;
        h.act128 /= cells;
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::PROFILES;
    use moat_dram::{DramConfig, DramTiming};
    use proptest::prelude::*;

    /// The stream by definition: every planned campaign expanded into
    /// `(t, idx)` events, sorted, and emitted with inter-arrival gaps.
    fn reference(
        profile: &WorkloadProfile,
        dram: &DramConfig,
        cfg: GeneratorConfig,
    ) -> Vec<Request> {
        let planned = WorkloadStream::new(profile, dram, cfg).campaigns;
        let mut events: Vec<(u64, u32)> = Vec::new();
        for (idx, c) in planned.iter().enumerate() {
            for k in 0..u64::from(c.remaining) {
                events.push((c.next + k * c.interval, idx as u32));
            }
        }
        events.sort_unstable();
        let mut last = 0;
        events
            .into_iter()
            .map(|(t, idx)| {
                let c = &planned[idx as usize];
                let gap = Nanos::new(t - last);
                last = t;
                Request {
                    gap,
                    bank: BankId::new(c.bank),
                    row: RowId::new(c.row),
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The calendar emits exactly the sorted campaign events, however
        /// the stream is pulled: `pulls` cycles through single requests
        /// (kind 0), one-request chunks (kind 1) and `cap`-request chunks.
        /// Refresh windows of 1–8 ms (DDR5's is 32 ms) keep each case a
        /// debug-build-cheap miniature at the paper's activation rates,
        /// with window edges off the slab grid.
        #[test]
        fn stream_is_the_sorted_campaign_events(
            profile_idx in 0usize..PROFILES.len(),
            seed in 0u64..1_000,
            banks in 1u16..5,
            windows in 1u32..3,
            refw_us in 1_000u64..8_000,
            pulls in prop::collection::vec((0u8..3, 1usize..300), 1..8),
        ) {
            let profile = &PROFILES[profile_idx];
            let timing = DramTiming {
                t_refw: Nanos::new(refw_us * 1_000),
                ..DramTiming::ddr5_prac()
            };
            let dram = DramConfig::builder().timing(timing).build();
            let cfg = GeneratorConfig { banks, windows, seed };
            let expected = reference(profile, &dram, cfg);
            let mut stream = WorkloadStream::new(profile, &dram, cfg);
            let mut got = Vec::with_capacity(expected.len());
            for &(kind, cap) in pulls.iter().cycle() {
                let pulled = if kind == 0 {
                    stream.next_request().map(|r| got.push(r)).is_some()
                } else {
                    let mut buf = Vec::with_capacity(if kind == 1 { 1 } else { cap });
                    let n = stream.next_chunk(&mut buf);
                    got.extend_from_slice(&buf);
                    n > 0
                };
                if !pulled {
                    break;
                }
            }
            prop_assert!(stream.next_request().is_none());
            prop_assert_eq!(stream.emitted(), expected.len() as u64);
            prop_assert_eq!(got, expected);
        }
    }

    /// FNV-1a over every request's `(gap, bank, row)` as little-endian
    /// `u64`, `u16`, `u32`.
    fn digest(profile: &str, banks: u16, windows: u32, seed: u64) -> (u64, u64) {
        let profile = WorkloadProfile::by_name(profile).unwrap();
        let cfg = GeneratorConfig {
            banks,
            windows,
            seed,
        };
        let mut stream = WorkloadStream::new(profile, &DramConfig::paper_baseline(), cfg);
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut n = 0;
        while let Some(r) = stream.next_request() {
            let bytes = r.gap.as_u64().to_le_bytes().into_iter();
            let bytes = bytes
                .chain(r.bank.index().to_le_bytes())
                .chain(r.row.index().to_le_bytes());
            for b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            n += 1;
        }
        (n, h)
    }

    /// Today's streams, byte for byte: what keeps [`GENERATOR_VERSION`]
    /// (and every recorded trace keyed by it) valid. A failure here means
    /// the emitted sequence moved — bump the version, then re-pin.
    #[test]
    fn golden_stream_digests() {
        assert_eq!(digest("x264", 2, 1, 7), (31_132, 0x9299_f024_dd07_f684));
        assert_eq!(digest("gcc", 1, 2, 3), (49_181, 0x3074_0770_a2c6_928e));
        assert_eq!(
            digest("xalancbmk", 3, 1, 0xA0A7),
            (107_585, 0x4580_daf6_cf7c_110c)
        );
    }

    #[test]
    #[should_panic(expected = "workload bwaves: a bank-window needs")]
    fn too_few_rows_fail_fast() {
        let dram = DramConfig::builder().rows_per_bank(4096).build();
        let cfg = GeneratorConfig {
            banks: 1,
            windows: 1,
            seed: 0,
        };
        WorkloadStream::new(WorkloadProfile::by_name("bwaves").unwrap(), &dram, cfg);
    }

    fn check(name: &str) -> (HistogramCheck, &'static WorkloadProfile) {
        let profile = WorkloadProfile::by_name(name).unwrap();
        let dram = DramConfig::paper_baseline();
        let cfg = GeneratorConfig {
            banks: 2,
            windows: 1,
            seed: 7,
        };
        let stream = WorkloadStream::new(profile, &dram, cfg);
        (HistogramCheck::measure(stream, &dram, 2, 1), profile)
    }

    #[test]
    fn histogram_matches_profile_for_roms() {
        let (h, p) = check("roms");
        assert!(
            (h.act32 - f64::from(p.act32)).abs() / f64::from(p.act32) < 0.10,
            "act32 {} vs {}",
            h.act32,
            p.act32
        );
        assert!(
            (h.act64 - f64::from(p.act64)).abs() / f64::from(p.act64) < 0.10,
            "act64 {} vs {}",
            h.act64,
            p.act64
        );
        assert!(
            (h.act128 - f64::from(p.act128)).abs() / f64::from(p.act128) < 0.12,
            "act128 {} vs {}",
            h.act128,
            p.act128
        );
    }

    #[test]
    fn histogram_matches_profile_for_light_workload() {
        let (h, p) = check("x264");
        assert!((h.act32 - f64::from(p.act32)).abs() < 40.0, "{}", h.act32);
        assert!((h.act64 - f64::from(p.act64)).abs() < 20.0, "{}", h.act64);
        assert!(h.act128 < 5.0, "x264 has no 128+ rows, got {}", h.act128);
    }

    #[test]
    fn stream_is_time_ordered_and_reproducible() {
        let profile = WorkloadProfile::by_name("gcc").unwrap();
        let dram = DramConfig::paper_baseline();
        let cfg = GeneratorConfig {
            banks: 1,
            windows: 1,
            seed: 3,
        };
        let collect = || {
            let mut s = WorkloadStream::new(profile, &dram, cfg);
            let mut v = Vec::new();
            while let Some(r) = s.next_request() {
                v.push((r.gap.as_u64(), r.bank.index(), r.row.index()));
            }
            v
        };
        let a = collect();
        let b = collect();
        assert_eq!(a, b, "same seed must reproduce the same stream");
        assert!(a.len() > 10_000);
    }

    #[test]
    fn budget_respects_histogram_floor() {
        let dram = DramConfig::paper_baseline();
        for p in &crate::profiles::PROFILES {
            let budget = WorkloadStream::acts_per_bank_per_window(p, &dram);
            assert!(
                budget >= p.min_hot_acts(),
                "{}: budget {budget} below histogram floor {}",
                p.name,
                p.min_hot_acts()
            );
            // And below the bank's physical capacity.
            assert!(budget < 32_000_000 / 52);
        }
    }
}
