//! The span/metric name registry.
//!
//! Every name emitted through [`crate::span!`], [`crate::counter!`],
//! [`crate::gauge!`], or [`crate::histogram!`] anywhere in the workspace
//! must be a lowercase dot-separated **literal** listed here. The
//! registry is the contract between emitters and consumers: `rls-report`
//! aggregates by these names, DESIGN.md §9 documents them, and
//! `rls-lint`'s `obs-metric-name` rule rejects call sites whose first
//! argument is not a registered literal — so a typo'd or ad-hoc name is a
//! CI failure, not a silently empty report column.

/// Span names, one per instrumented phase.
pub const SPANS: &[&str] = &[
    "procedure2.run",     // one Procedure 2 campaign, root span
    "procedure2.ts0_gen", // TS0 generation (the bit-packed stimulus draw)
    "procedure2.ts0",     // TS0 simulation against the full target list
    "procedure2.iter",    // one outer iteration (paper index `i`)
    "procedure2.derive",  // one (I, D1) test set derived from TS0
    "procedure2.trial",   // one (I, D1) trial: simulate the derived set
    "procedure2.record",  // one trial's bookkeeping: gauge, degrade check, records, checkpoint
    "fsim.test",          // sequential engine: one test set against live faults
    "dispatch.submit",    // parallel executor: one window's pool trials handed to the pool
    "dispatch.set",       // parallel executor: waiting for one window's pool trials
    "bench.table",        // one table binary run
    "bench.circuit",      // one circuit within a table run
    "atpg.classify",      // PODEM classification of one fault list
];

/// Counter names (sinks accumulate by summing).
pub const COUNTERS: &[&str] = &[
    "procedure2.trials",       // (I, D1) trials attempted
    "procedure2.pairs_kept",   // trials whose pair entered the test set
    "procedure2.checkpoints",  // checkpoint records written
    "procedure2.resumes",      // campaigns continued from a checkpoint
    "procedure2.degrades",     // pool executor fell back to sequential
    "campaign.records",        // JSONL campaign lines written
    "campaign.sink_errors",    // campaign persistence disabled by IO error
    "fsim.faults_simulated",   // candidate faults pushed through the kernel
    "fsim.batches",            // wide-word kernel invocations
    "fsim.lanes_used",         // fault lanes across those batches (reference lanes excluded)
    "fsim.lanes_capacity",     // available lanes across those batches
    "fsim.tiles",              // SoA tile passes (a single test is a 1-tall tile)
    "dispatch.retry_waves",    // re-submission waves after job failures
    "dispatch.respawns",       // supervised worker replacements
    "dispatch.faults_dropped", // faults pool trials detected against their window-start list
    "dispatch.batches",        // kernel batches the pool's trial jobs ran
    "pool.worker.jobs",        // jobs executed, per worker
    "lint.findings",           // findings reported by an rls-lint run
    "sched.permutations",      // adversarial interleavings explored by the soak
    "obs.recorder.dumps",      // flight-recorder crash dumps written
    "obs.recorder.dropped",    // ring events overwritten before a dump read them
    "obs.late_events",         // events discarded after a sealed stream's summary
    "atpg.decisions",          // PODEM decisions made over one fault list
    "atpg.backtracks",         // PODEM decisions flipped over one fault list
    "atpg.detected",           // faults PODEM proved detectable
    "atpg.redundant",          // faults PODEM proved redundant
    "atpg.aborted",            // faults PODEM gave up on at the backtrack limit
];

/// Gauge names (sinks keep the last observation).
pub const GAUGES: &[&str] = &[
    "procedure2.coverage",    // detected-fault count after a kept pair
    "dispatch.queue_depth",   // jobs pending right after a submission wave
    "pool.worker.busy_nanos", // per-worker time inside simulate calls
    "pool.worker.idle_nanos", // per-worker pool lifetime minus busy time
];

/// Histogram names (sinks report count, mean, and log-scaled quantiles).
pub const HISTOGRAMS: &[&str] = &[
    "procedure2.trial_cycles", // N_SH(I, D1) cost of one trial
    "fsim.test_nanos",         // sequential engine time per test set
    "fsim.tile_height",        // tests packed into one tile by the fill rule
];

/// Instantaneous event names — the [`crate::mark!`] macro. Marks are
/// recorded only by the flight recorder ([`crate::recorder`]): they cost
/// nothing on the sink path and show up in crash dumps and timelines.
pub const EVENTS: &[&str] = &[
    "fsim.batch",       // one wide-word kernel batch boundary
    "dispatch.degrade", // pool executor fell back to the sequential oracle
    "dispatch.panic",   // supervised worker caught a job panic
];

/// Registry groups in index order — the flight recorder encodes names as
/// a `u16` index into this concatenation (see [`index_of`]/[`by_index`]).
fn groups() -> [&'static [&'static str]; 5] {
    [SPANS, COUNTERS, GAUGES, HISTOGRAMS, EVENTS]
}

/// True when `name` is registered under any kind.
pub fn is_registered(name: &str) -> bool {
    groups().iter().any(|g| g.contains(&name))
}

/// The compact registry index of `name` (stable for one build: names are
/// indexed in declaration order across all groups). `None` when the name
/// is not registered — the flight recorder stores a sentinel instead.
pub fn index_of(name: &str) -> Option<u16> {
    let mut base = 0u16;
    for group in groups() {
        if let Some(pos) = group.iter().position(|n| *n == name) {
            return Some(base + pos as u16);
        }
        base += group.len() as u16;
    }
    None
}

/// The inverse of [`index_of`].
pub fn by_index(index: u16) -> Option<&'static str> {
    let mut rest = index as usize;
    for group in groups() {
        if rest < group.len() {
            return Some(group[rest]); // lint: panic-ok(rest < group.len() checked just above)
        }
        rest -= group.len();
    }
    None
}

/// True when `name` is well-formed: non-empty dot-separated segments of
/// `[a-z0-9_]`. The lint rule reports malformed and unregistered names
/// separately, so both predicates are public.
pub fn is_well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_is_well_formed() {
        for name in SPANS
            .iter()
            .chain(COUNTERS)
            .chain(GAUGES)
            .chain(HISTOGRAMS)
            .chain(EVENTS)
        {
            assert!(is_well_formed(name), "bad registry entry {name:?}");
        }
    }

    #[test]
    fn index_round_trips_every_name() {
        let total: usize = [SPANS, COUNTERS, GAUGES, HISTOGRAMS, EVENTS]
            .iter()
            .map(|g| g.len())
            .sum();
        for idx in 0..total as u16 {
            let name = by_index(idx).expect("index in range");
            assert_eq!(index_of(name), Some(idx), "{name}");
        }
        assert_eq!(by_index(total as u16), None);
        assert_eq!(index_of("procedure2.bogus"), None);
        assert!(is_registered("fsim.batch"), "events are registered names");
    }

    #[test]
    fn registry_lookup_and_shape_checks() {
        assert!(is_registered("procedure2.iter"));
        assert!(is_registered("dispatch.queue_depth"));
        assert!(!is_registered("procedure2.bogus"));
        assert!(!is_well_formed("Procedure2.iter"));
        assert!(!is_well_formed("procedure2..iter"));
        assert!(!is_well_formed(""));
        assert!(!is_well_formed("a b"));
        assert!(is_well_formed("pool.worker.busy_nanos"));
    }

    #[test]
    fn no_duplicate_names_across_kinds() {
        let mut all: Vec<&str> = SPANS
            .iter()
            .chain(COUNTERS)
            .chain(GAUGES)
            .chain(HISTOGRAMS)
            .chain(EVENTS)
            .copied()
            .collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "a name is registered twice");
    }
}
