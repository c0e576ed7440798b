//! Experiment scale: how much of the paper-size configuration to run.

use moat_telemetry::kv;
use moat_workloads::GeneratorConfig;

/// How large to run the performance experiments.
///
/// Security experiments (Figs. 5, 7, 10, 15, 16) always run at full
/// fidelity — they are cheap counting loops. Performance experiments
/// sweep 21 workloads × many configurations, so the default scale
/// simulates a slice of the sub-channel and one refresh window; `full`
/// runs the paper-size configuration.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Banks per simulated sub-channel.
    pub banks: u16,
    /// Refresh windows of virtual time per run.
    pub windows: u32,
}

impl Scale {
    /// Fast default: 2 banks, 1 tREFW (~seconds per table).
    pub const fn scaled() -> Self {
        Scale {
            banks: 2,
            windows: 1,
        }
    }

    /// Paper-size: 32 banks, 2 tREFW (minutes per table).
    pub const fn full() -> Self {
        Scale {
            banks: 32,
            windows: 2,
        }
    }

    /// Reads `MOAT_REPRO_FULL`: `1` selects [`full`](Self::full); unset,
    /// empty or `0` selects [`scaled`](Self::scaled). Any other value
    /// panics naming the variable, so `MOAT_REPRO_FULL=true` never
    /// silently benchmarks the small configuration.
    pub fn from_env() -> Self {
        kv::from_env("MOAT_REPRO_FULL", Self::parse_full)
            .unwrap_or_else(|e| panic!("{e}"))
            .unwrap_or_else(Self::scaled)
    }

    /// The scale a `MOAT_REPRO_FULL` value selects.
    fn parse_full(value: &str) -> Result<Scale, String> {
        let scales = [("0", Self::scaled()), ("1", Self::full())];
        kv::choice("full-scale switch", value.trim(), &scales)
    }

    /// The checkpoint-store key of this scale (`"2b-1w"`), so outputs
    /// recorded at one scale never replay at another.
    pub fn key(&self) -> String {
        format!("{}b-{}w", self.banks, self.windows)
    }

    /// The matching workload-generator configuration.
    pub fn generator(&self, seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            banks: self.banks,
            windows: self.windows,
            seed,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert!(Scale::full().banks > Scale::scaled().banks);
        let g = Scale::scaled().generator(1);
        assert_eq!(g.banks, 2);
    }

    #[test]
    fn full_switch_accepts_only_zero_and_one() {
        assert_eq!(Scale::parse_full("1").unwrap().banks, Scale::full().banks);
        assert_eq!(
            Scale::parse_full(" 0 ").unwrap().banks,
            Scale::scaled().banks
        );
        for bad in ["true", "yes", "2", "full"] {
            let e = Scale::parse_full(bad).unwrap_err();
            assert!(e.contains(bad), "{bad:?} -> {e}");
        }
    }
}
