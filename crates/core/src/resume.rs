//! Checkpoint/resume for Procedure 2 campaigns.
//!
//! # Why this is sound
//!
//! Procedure 1 derives `TS(I, D1)` *replayably* from `(cfg.seeds, I, D1)`
//! alone, and Procedure 2's greedy loop carries only a small amount of
//! state between trials: the remaining-fault list, the accepted pairs,
//! and the loop counters. Persisting exactly that after every accepted
//! pair is therefore a complete checkpoint — a resumed run regenerates
//! `TS0` and every later derived set from the configuration, restricts
//! the simulator to the checkpointed live list, and provably converges to
//! the same final test set as an uninterrupted run. Trials *rejected*
//! after the last checkpoint are simply re-run on resume; they change no
//! state and derive identically, so replaying them is harmless.
//!
//! # Format
//!
//! Checkpoints are `{"type":"checkpoint",...}` lines appended to the
//! campaign JSONL file itself (crash-safe: each checkpoint is written and
//! fsynced together with the records before it — see
//! `rls_dispatch::campaign`), so `--resume <campaign.jsonl>` needs no
//! side file: [`load_checkpoint`] takes the *last* intact checkpoint line
//! and ignores a torn tail. A [`fingerprint`] of the trajectory-relevant
//! configuration (everything except `threads`/`campaign_dir`, which do
//! not affect the outcome) guards against resuming with a different
//! configuration or circuit.

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

use rls_dispatch::{CampaignLog, DispatchError};
use rls_fsim::{ChainMap, FaultId};
use rls_obs::jsonl::{array, JsonObject, JsonValue};

use crate::config::{CoverageTarget, RlsConfig};
use crate::procedure2::SelectedPair;

/// Why a checkpoint cannot be loaded or used.
#[derive(Debug)]
pub enum ResumeError {
    /// The campaign file could not be read or parsed.
    Load(DispatchError),
    /// The file holds no intact checkpoint record.
    NoCheckpoint {
        /// The campaign file.
        path: PathBuf,
    },
    /// A checkpoint record is missing or mistypes a field.
    Malformed {
        /// The campaign file.
        path: PathBuf,
        /// What is wrong.
        message: String,
    },
    /// The checkpoint belongs to a different circuit.
    CircuitMismatch {
        /// Circuit of the current run.
        expected: String,
        /// Circuit recorded in the checkpoint.
        found: String,
    },
    /// The checkpoint was produced under a different configuration
    /// (fingerprints differ), so replaying would diverge.
    ConfigMismatch,
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Load(e) => write!(f, "{e}"),
            ResumeError::NoCheckpoint { path } => {
                write!(f, "no checkpoint record in `{}`", path.display())
            }
            ResumeError::Malformed { path, message } => {
                write!(f, "malformed checkpoint in `{}`: {message}", path.display())
            }
            ResumeError::CircuitMismatch { expected, found } => {
                write!(f, "checkpoint is for circuit `{found}`, not `{expected}`")
            }
            ResumeError::ConfigMismatch => write!(
                f,
                "checkpoint was written under a different configuration (fingerprint mismatch)"
            ),
        }
    }
}

impl Error for ResumeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ResumeError::Load(e) => Some(e),
            _ => None,
        }
    }
}

/// A point mid-campaign from which Procedure 2 can continue.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeState {
    /// Circuit name the checkpoint belongs to.
    pub circuit: String,
    /// [`fingerprint`] of the configuration that produced it.
    pub fingerprint: u64,
    /// Iteration `I` the checkpoint was taken in (0 = after `TS0`).
    pub iteration: u64,
    /// Position in the `D1` trial order at which to continue (the trial
    /// *after* the accepted one).
    pub d1_pos: usize,
    /// Whether the checkpoint is mid-iteration (continue iteration
    /// `iteration` at `d1_pos`) or at an iteration boundary.
    pub in_iteration: bool,
    /// Whether the current iteration had improved by checkpoint time.
    pub improved: bool,
    /// `N_SAME_FC` counter value when the iteration was entered.
    pub n_same_fc: u32,
    /// Total session cycles accumulated so far.
    pub total_cycles: u64,
    /// Faults detected by `TS0` alone.
    pub initial_detected: usize,
    /// `N_cyc0`.
    pub initial_cycles: u64,
    /// Size of the coverage target.
    pub target_faults: usize,
    /// Remaining undetected faults, in live-list order.
    pub live: Vec<FaultId>,
    /// Pairs accepted so far, in selection order.
    pub pairs: Vec<SelectedPair>,
    /// The campaign file the checkpoint was loaded from (set by
    /// [`load_checkpoint`]; resumed runs append to it).
    pub source: Option<PathBuf>,
}

impl ResumeState {
    /// Renders the checkpoint as one JSONL record line.
    pub fn render(&self) -> String {
        let live = array(self.live.iter().map(|f| u64::from(f.0).to_string()));
        let pairs = array(self.pairs.iter().map(|p| {
            JsonObject::new()
                .num("i", p.i)
                .num("d1", u64::from(p.d1))
                .num("newly_detected", p.newly_detected as u64)
                .num("shift_cycles", p.shift_cycles)
                .num("limited_scan_units", p.limited_scan_units)
                .num("vector_units", p.vector_units)
                .render()
        }));
        JsonObject::new()
            .str("type", "checkpoint")
            .str("circuit", &self.circuit)
            .num("fingerprint", self.fingerprint)
            .num("iteration", self.iteration)
            .num("d1_pos", self.d1_pos as u64)
            .bool("in_iteration", self.in_iteration)
            .bool("improved", self.improved)
            .num("n_same_fc", u64::from(self.n_same_fc))
            .num("total_cycles", self.total_cycles)
            .num("initial_detected", self.initial_detected as u64)
            .num("initial_cycles", self.initial_cycles)
            .num("target_faults", self.target_faults as u64)
            .raw("live", &live)
            .raw("pairs", &pairs)
            .render()
    }

    /// Rebuilds a state from a parsed checkpoint record.
    pub fn from_value(v: &JsonValue) -> Result<Self, String> {
        fn u64f(v: &JsonValue, key: &str) -> Result<u64, String> {
            v.u64_field(key)
                .ok_or_else(|| format!("missing or non-integer field `{key}`"))
        }
        fn boolf(v: &JsonValue, key: &str) -> Result<bool, String> {
            v.bool_field(key)
                .ok_or_else(|| format!("missing or non-boolean field `{key}`"))
        }
        let live = v
            .get("live")
            .and_then(JsonValue::as_array)
            .ok_or("missing field `live`")?
            .iter()
            .map(|x| {
                x.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .map(FaultId)
                    .ok_or("non-integer fault id in `live`".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let pairs = v
            .get("pairs")
            .and_then(JsonValue::as_array)
            .ok_or("missing field `pairs`")?
            .iter()
            .map(|p| {
                Ok(SelectedPair {
                    i: u64f(p, "i")?,
                    d1: u64f(p, "d1")? as u32,
                    newly_detected: u64f(p, "newly_detected")? as usize,
                    shift_cycles: u64f(p, "shift_cycles")?,
                    limited_scan_units: u64f(p, "limited_scan_units")?,
                    vector_units: u64f(p, "vector_units")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ResumeState {
            circuit: v
                .str_field("circuit")
                .ok_or("missing field `circuit`")?
                .to_string(),
            fingerprint: u64f(v, "fingerprint")?,
            iteration: u64f(v, "iteration")?,
            d1_pos: u64f(v, "d1_pos")? as usize,
            in_iteration: boolf(v, "in_iteration")?,
            improved: boolf(v, "improved")?,
            n_same_fc: u64f(v, "n_same_fc")? as u32,
            total_cycles: u64f(v, "total_cycles")?,
            initial_detected: u64f(v, "initial_detected")? as usize,
            initial_cycles: u64f(v, "initial_cycles")?,
            target_faults: u64f(v, "target_faults")? as usize,
            live,
            pairs,
            source: None,
        })
    }
}

/// FNV-1a over the trajectory-relevant configuration, the circuit name
/// and the scan chains.
///
/// `threads` and `campaign_dir` are deliberately excluded: they change
/// how a campaign executes, never what it selects, so a campaign begun
/// with 4 threads may be resumed with 1 (or vice versa). The chain map is
/// mixed in only when it is not full scan, so every full-scan fingerprint
/// (and with it every campaign file name) is the one
/// the configuration alone gives.
pub fn fingerprint(circuit: &str, cfg: &RlsConfig, chains: &ChainMap) -> u64 {
    let target = match &cfg.target {
        CoverageTarget::AllCollapsed => "all".to_string(),
        CoverageTarget::Faults(fs) => {
            // The fault list itself defines the trajectory; hash it all.
            let mut s = String::from("faults:");
            for f in fs {
                s.push_str(&f.0.to_string());
                s.push(',');
            }
            s
        }
    };
    let mut canon = format!(
        "{circuit}|la={}|lb={}|n={}|d1_max={}|d1_order={:?}|n_same_fc={}|max_iterations={}|seed_mode={:?}|seed_base={}|d2={:?}|fill={:?}|observe={:?}|target={target}",
        cfg.la,
        cfg.lb,
        cfg.n,
        cfg.d1_max,
        cfg.d1_order,
        cfg.n_same_fc,
        cfg.max_iterations,
        cfg.seed_mode,
        cfg.seeds.base(),
        cfg.d2_override,
        cfg.fill_mode,
        cfg.observe,
    );
    if *chains != ChainMap::full(chains.n_sv()) {
        canon.push_str(&format!("|chains={chains:?}"));
    }
    fnv1a(canon.as_bytes())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Loads the last intact checkpoint from a campaign JSONL file.
///
/// Tolerates a torn final line (the crash-safety contract guarantees at
/// most one); rejects files with no checkpoint at all. A resumed
/// campaign cuts the file back to the end of this checkpoint before it
/// appends (`rls_dispatch::Campaign::append_to`). The returned
/// state's `source` is set to `path`, so a resumed campaign appends to
/// the same file.
pub fn load_checkpoint(path: &Path) -> Result<ResumeState, ResumeError> {
    let log = CampaignLog::read(path).map_err(ResumeError::Load)?;
    let last = log
        .of_type("checkpoint")
        .last()
        .ok_or_else(|| ResumeError::NoCheckpoint {
            path: path.to_path_buf(),
        })?;
    let mut state = ResumeState::from_value(last).map_err(|message| ResumeError::Malformed {
        path: path.to_path_buf(),
        message,
    })?;
    state.source = Some(path.to_path_buf());
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> ResumeState {
        ResumeState {
            circuit: "s27".to_string(),
            fingerprint: 0xdead_beef,
            iteration: 3,
            d1_pos: 2,
            in_iteration: true,
            improved: true,
            n_same_fc: 1,
            total_cycles: 420,
            initial_detected: 28,
            initial_cycles: 59,
            target_faults: 32,
            live: vec![FaultId(1), FaultId(5), FaultId(9)],
            pairs: vec![SelectedPair {
                i: 1,
                d1: 2,
                newly_detected: 3,
                shift_cycles: 10,
                limited_scan_units: 4,
                vector_units: 96,
            }],
            source: None,
        }
    }

    #[test]
    fn checkpoint_round_trips() {
        let state = sample_state();
        let line = state.render();
        let v = rls_obs::jsonl::parse(&line).unwrap();
        assert_eq!(v.str_field("type"), Some("checkpoint"));
        let back = ResumeState::from_value(&v).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn from_value_reports_missing_fields() {
        let v = rls_obs::jsonl::parse(r#"{"type":"checkpoint","circuit":"s27"}"#).unwrap();
        let e = ResumeState::from_value(&v).unwrap_err();
        assert!(e.contains("missing"), "{e}");
        let v =
            rls_obs::jsonl::parse(r#"{"type":"checkpoint","circuit":"s27","live":[],"pairs":[]}"#)
                .unwrap();
        let e = ResumeState::from_value(&v).unwrap_err();
        assert!(e.contains("fingerprint"), "{e}");
    }

    #[test]
    fn fingerprint_tracks_trajectory_fields_only() {
        let cfg = RlsConfig::new(4, 8, 8);
        let full = ChainMap::full(3);
        let base = fingerprint("s27", &cfg, &full);
        assert_eq!(base, fingerprint("s27", &cfg.clone(), &full), "stable");
        assert_ne!(base, fingerprint("s208", &cfg, &full), "circuit matters");
        assert_ne!(
            base,
            fingerprint("s27", &RlsConfig::new(4, 8, 16), &full),
            "N matters"
        );
        let threaded = cfg.clone().with_threads(4).with_campaign_dir("results");
        assert_eq!(
            base,
            fingerprint("s27", &threaded, &full),
            "threads and campaign_dir are execution-only"
        );
        let partial = ChainMap::from(&rls_scan::PartialScan::new(3, vec![0, 2]));
        let two = ChainMap::from(&rls_scan::MultiChain::new(3, 2));
        let one = ChainMap::from(&rls_scan::MultiChain::new(3, 1));
        assert_ne!(base, fingerprint("s27", &cfg, &partial), "chains matter");
        assert_ne!(base, fingerprint("s27", &cfg, &two), "chains matter");
        assert_ne!(
            fingerprint("s27", &cfg, &partial),
            fingerprint("s27", &cfg, &two)
        );
        assert_eq!(
            base,
            fingerprint("s27", &cfg, &one),
            "one chain is full scan"
        );
    }

    #[test]
    fn full_scan_fingerprints_are_pinned() {
        // Campaign file names and checkpoints carry the
        // full-scan fingerprint, so it must not move when other scan
        // styles join the hash.
        assert_eq!(
            fingerprint("s27", &RlsConfig::new(4, 8, 8), &ChainMap::full(3)),
            13_985_329_617_226_108_444
        );
        assert_eq!(
            fingerprint("s208", &RlsConfig::new(8, 16, 64), &ChainMap::full(8)),
            6_643_823_024_148_692_020
        );
    }

    #[test]
    fn load_checkpoint_takes_last_intact_line() {
        let dir = std::env::temp_dir().join(format!("rls-resume-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.jsonl");
        let mut early = sample_state();
        early.iteration = 1;
        let late = sample_state();
        let mut text = String::new();
        text.push_str("{\"type\":\"campaign\",\"circuit\":\"s27\"}\n");
        text.push_str(&early.render());
        text.push('\n');
        text.push_str(&late.render());
        text.push('\n');
        text.push_str("{\"type\":\"summ"); // torn tail
        std::fs::write(&path, &text).unwrap();
        let got = load_checkpoint(&path).unwrap();
        assert_eq!(got.iteration, 3, "last checkpoint wins");
        assert_eq!(got.source.as_deref(), Some(path.as_path()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn load_checkpoint_rejects_checkpointless_files() {
        let dir = std::env::temp_dir().join(format!("rls-resume-none-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.jsonl");
        std::fs::write(&path, "{\"type\":\"campaign\",\"circuit\":\"s27\"}\n").unwrap();
        let e = load_checkpoint(&path).unwrap_err();
        assert!(matches!(e, ResumeError::NoCheckpoint { .. }), "{e}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
