//! Configuration of the random limited-scan generator.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

use rls_fsim::{FaultId, SimOptions};
use rls_lfsr::SeedSequence;

/// A configuration that cannot be used, with an actionable message.
///
/// Mirrors `rls_netlist::NetlistError`: lowercase messages, no trailing
/// period, `std::error::Error` so drivers can render it for operators
/// instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A structural parameter is out of range.
    InvalidParam {
        /// Which parameter (e.g. "L_A").
        param: &'static str,
        /// What the constraint is.
        message: &'static str,
    },
    /// An environment variable holds an unusable value.
    InvalidEnv {
        /// The variable name (e.g. "RLS_THREADS").
        var: &'static str,
        /// The offending value.
        value: String,
        /// What would have been accepted.
        expected: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidParam { param, message } => {
                write!(f, "invalid parameter {param}: {message}")
            }
            ConfigError::InvalidEnv {
                var,
                value,
                expected,
            } => write!(f, "invalid {var}=`{value}`: expected {expected}"),
        }
    }
}

impl Error for ConfigError {}

/// The order in which Procedure 2 tries `D1` values within an iteration.
///
/// The paper's default is increasing (`1, 2, …, 10`), favouring frequent
/// limited scans; decreasing order (Table 7) favours longer at-speed
/// sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum D1Order {
    /// `D1 = 1, 2, …, d1_max` (the paper's Table 6 setting).
    #[default]
    Increasing,
    /// `D1 = d1_max, …, 2, 1` (the paper's Table 7 setting).
    Decreasing,
}

impl D1Order {
    /// The `D1` values in trial order.
    pub fn values(self, d1_max: u32) -> Vec<u32> {
        match self {
            D1Order::Increasing => (1..=d1_max).collect(),
            D1Order::Decreasing => (1..=d1_max).rev().collect(),
        }
    }
}

/// How Procedure 1 seeds its schedule generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedMode {
    /// Re-initialize with `seed(I)` for every test — the paper's literal
    /// Procedure 1, giving all tests of a set the same schedule stream.
    #[default]
    PerTest,
    /// Initialize once per test set and free-run across tests (ablation).
    FreeRunning,
}

/// What values are scanned in at the chain head during a limited scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillMode {
    /// Fresh random bits from the schedule stream (the paper's choice:
    /// "we assign to the leftmost bits random values").
    #[default]
    Random,
    /// Constant zeros (ablation: isolates how much the scanned-in
    /// randomness contributes beyond the state rotation itself).
    Zero,
}

/// The coverage target that defines "complete fault coverage".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CoverageTarget {
    /// Every collapsed fault (includes undetectable ones; complete coverage
    /// may then be unreachable).
    #[default]
    AllCollapsed,
    /// An explicit fault list, typically the ATPG-proven detectable set.
    Faults(Vec<FaultId>),
}

/// Full configuration for `TS0` generation and Procedures 1–2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RlsConfig {
    /// Shorter test length `L_A`.
    pub la: usize,
    /// Longer test length `L_B`.
    pub lb: usize,
    /// Number of tests of each length (`TS0` holds `2N` tests).
    pub n: usize,
    /// Largest `D1` tried per iteration (the paper uses 10).
    pub d1_max: u32,
    /// Trial order of `D1` values.
    pub d1_order: D1Order,
    /// Iterations without improvement before giving up (`N_SAME_FC`).
    pub n_same_fc: u32,
    /// Hard cap on iterations `I` (safety net; the paper has none).
    pub max_iterations: u32,
    /// Schedule seeding mode.
    pub seed_mode: SeedMode,
    /// Base seed family for `TS0` and `seed(I)`.
    pub seeds: SeedSequence,
    /// Override for `D2` (maximum shift + 1); `None` means the paper's
    /// `D2 = N_SV + 1`.
    pub d2_override: Option<u32>,
    /// What counts as complete coverage.
    pub target: CoverageTarget,
    /// Fill bits scanned in during limited scans.
    pub fill_mode: FillMode,
    /// Which observation points count toward detection (ablation support).
    pub observe: SimOptions,
    /// Threads for fault simulation. `1` (the default) runs the
    /// sequential oracle path; `> 1` runs Procedure 2's trials in windows
    /// of that many, all but the first on an `rls-dispatch` worker pool,
    /// with bit-identical results.
    pub threads: usize,
    /// When set, a JSONL campaign record (per-trial lines plus per-worker
    /// counters) is written into this directory, e.g. `results/`.
    pub campaign_dir: Option<PathBuf>,
}

impl RlsConfig {
    /// A configuration with the paper's defaults for the given
    /// `(L_A, L_B, N)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < la <= lb` and `n > 0`; see
    /// [`RlsConfig::try_new`] for the non-panicking variant.
    pub fn new(la: usize, lb: usize, n: usize) -> Self {
        Self::try_new(la, lb, n).unwrap_or_else(|e| panic!("{e}")) // lint: panic-ok(documented contract: try_new is the fallible path, this is its asserting wrapper)
    }

    /// Fallible variant of [`RlsConfig::new`], for drivers that take the
    /// combination from user input and want an actionable error instead
    /// of a panic.
    pub fn try_new(la: usize, lb: usize, n: usize) -> Result<Self, ConfigError> {
        if la == 0 {
            return Err(ConfigError::InvalidParam {
                param: "L_A",
                message: "L_A must be positive",
            });
        }
        if la > lb {
            return Err(ConfigError::InvalidParam {
                param: "L_B",
                message: "the paper requires L_A <= L_B",
            });
        }
        if n == 0 {
            return Err(ConfigError::InvalidParam {
                param: "N",
                message: "N must be positive",
            });
        }
        Ok(RlsConfig {
            la,
            lb,
            n,
            d1_max: 10,
            d1_order: D1Order::Increasing,
            n_same_fc: 5,
            max_iterations: 100,
            seed_mode: SeedMode::PerTest,
            seeds: SeedSequence::default(),
            d2_override: None,
            target: CoverageTarget::AllCollapsed,
            fill_mode: FillMode::Random,
            observe: SimOptions::default(),
            threads: 1,
            campaign_dir: None,
        })
    }

    /// The `D2` constant for a circuit with `n_sv` state variables: the
    /// override if set, otherwise the paper's `N_SV + 1` (allowing anything
    /// from no shift to a complete scan).
    pub fn d2(&self, n_sv: usize) -> u32 {
        self.d2_override.unwrap_or(n_sv as u32 + 1)
    }

    /// Builder-style: set the `D1` trial order.
    pub fn with_d1_order(mut self, order: D1Order) -> Self {
        self.d1_order = order;
        self
    }

    /// Builder-style: set the coverage target.
    pub fn with_target(mut self, target: CoverageTarget) -> Self {
        self.target = target;
        self
    }

    /// Builder-style: set the seed family.
    pub fn with_seeds(mut self, seeds: SeedSequence) -> Self {
        self.seeds = seeds;
        self
    }

    /// Builder-style: set the worker-thread count (`1` = sequential
    /// oracle). Zero is coerced to one.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder-style: write a JSONL campaign record into `dir`.
    pub fn with_campaign_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.campaign_dir = Some(dir.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = RlsConfig::new(8, 16, 64);
        assert_eq!(cfg.d1_max, 10);
        assert_eq!(cfg.d1_order, D1Order::Increasing);
        assert_eq!(cfg.seed_mode, SeedMode::PerTest);
        assert_eq!(cfg.d2(8), 9, "D2 = N_SV + 1");
        assert_eq!(cfg.target, CoverageTarget::AllCollapsed);
    }

    #[test]
    fn d1_orders() {
        assert_eq!(D1Order::Increasing.values(4), vec![1, 2, 3, 4]);
        assert_eq!(D1Order::Decreasing.values(4), vec![4, 3, 2, 1]);
    }

    #[test]
    fn d2_override() {
        let mut cfg = RlsConfig::new(8, 16, 64);
        cfg.d2_override = Some(4);
        assert_eq!(cfg.d2(100), 4);
    }

    #[test]
    #[should_panic(expected = "L_A <= L_B")]
    fn la_above_lb_rejected() {
        RlsConfig::new(32, 16, 64);
    }

    #[test]
    fn threads_default_to_sequential() {
        let cfg = RlsConfig::new(8, 16, 64);
        assert_eq!(cfg.threads, 1);
        assert!(cfg.campaign_dir.is_none());
        assert_eq!(cfg.with_threads(0).threads, 1, "zero coerces to one");
        let cfg = RlsConfig::new(8, 16, 64).with_campaign_dir("results");
        assert_eq!(
            cfg.campaign_dir.as_deref(),
            Some(std::path::Path::new("results"))
        );
    }

    #[test]
    fn try_new_reports_each_constraint() {
        assert!(RlsConfig::try_new(4, 8, 8).is_ok());
        let e = RlsConfig::try_new(0, 8, 8).unwrap_err();
        assert!(e.to_string().contains("L_A must be positive"), "{e}");
        let e = RlsConfig::try_new(32, 16, 8).unwrap_err();
        assert!(e.to_string().contains("L_A <= L_B"), "{e}");
        let e = RlsConfig::try_new(4, 8, 0).unwrap_err();
        assert!(e.to_string().contains("N must be positive"), "{e}");
    }

    #[test]
    fn config_error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
    }

    #[test]
    fn equal_lengths_allowed() {
        // The paper's grids use L_A < L_B, but equal lengths are a valid
        // degenerate configuration.
        let cfg = RlsConfig::new(16, 16, 64);
        assert_eq!(cfg.la, cfg.lb);
    }
}
