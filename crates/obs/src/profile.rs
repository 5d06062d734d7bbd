//! Phase profiler: names the hot phases of a co-analysis run and maps each
//! to its metrics-registry histogram.
//!
//! The profiler is deliberately passive — it owns no clocks. Call sites
//! time themselves (only when a trace sink is installed or profiling is
//! explicitly enabled, so the hot path takes no timestamps by default) and
//! feed microsecond durations here, either into the per-worker registry
//! shard via [`Phase::histogram`] or into a local [`PhaseTotals`] that is
//! folded into a trace record at segment end.

use crate::metrics::{HistogramId, MetricShard};

/// A hot phase of the co-analysis pipeline. Order is stable and is the
/// index into [`PhaseTotals`]; names appear in trace records and the
/// `symsim trace` hot-spot tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Engine settle: Active-region propagation until quiescent.
    Settle = 0,
    /// Snapshot save at a nondeterministic halt.
    SnapshotSave,
    /// Snapshot restore when a worker claims a path.
    SnapshotRestore,
    /// CSM subset (cover) check under the CSM lock.
    CsmCheck,
    /// CSM merge/widen of a new conservative state.
    CsmWiden,
    /// Time a worker spent blocked in the scheduler waiting for a task.
    SchedWait,
}

/// Number of phases; sizes [`PhaseTotals`].
pub const PHASE_COUNT: usize = Phase::SchedWait as usize + 1;

/// Every phase, in index order.
pub const ALL_PHASES: [Phase; PHASE_COUNT] = [
    Phase::Settle,
    Phase::SnapshotSave,
    Phase::SnapshotRestore,
    Phase::CsmCheck,
    Phase::CsmWiden,
    Phase::SchedWait,
];

impl Phase {
    /// Stable snake_case name used in trace records and CLI tables.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Settle => "settle",
            Phase::SnapshotSave => "snapshot_save",
            Phase::SnapshotRestore => "snapshot_restore",
            Phase::CsmCheck => "csm_check",
            Phase::CsmWiden => "csm_widen",
            Phase::SchedWait => "sched_wait",
        }
    }

    /// The registry histogram this phase's per-occurrence µs land in.
    pub fn histogram(self) -> HistogramId {
        match self {
            Phase::Settle => HistogramId::PhaseSettleUs,
            Phase::SnapshotSave => HistogramId::PhaseSaveUs,
            Phase::SnapshotRestore => HistogramId::PhaseRestoreUs,
            Phase::CsmCheck => HistogramId::PhaseCsmCheckUs,
            Phase::CsmWiden => HistogramId::PhaseCsmWidenUs,
            Phase::SchedWait => HistogramId::PhaseSchedWaitUs,
        }
    }

    /// Parses a [`Phase::name`] back; used by the trace reader.
    pub fn from_name(name: &str) -> Option<Phase> {
        ALL_PHASES.iter().copied().find(|p| p.name() == name)
    }
}

/// Per-segment (or per-worker) accumulated phase time in microseconds,
/// indexed by [`Phase`]. Plain integers — callers own any synchronization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    us: [u64; PHASE_COUNT],
}

impl PhaseTotals {
    /// All-zero totals.
    pub fn new() -> PhaseTotals {
        PhaseTotals::default()
    }

    /// Adds `us` microseconds to `phase`.
    #[inline]
    pub fn add(&mut self, phase: Phase, us: u64) {
        self.us[phase as usize] += us;
    }

    /// Microseconds accumulated for `phase`.
    #[inline]
    pub fn get(&self, phase: Phase) -> u64 {
        self.us[phase as usize]
    }

    /// Folds another totals in (e.g. segment totals into worker totals).
    pub fn merge(&mut self, other: &PhaseTotals) {
        for i in 0..PHASE_COUNT {
            self.us[i] += other.us[i];
        }
    }

    /// Sum over all phases, µs.
    pub fn total_us(&self) -> u64 {
        self.us.iter().sum()
    }

    /// `(phase, µs)` pairs in index order, including zero entries.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        ALL_PHASES.iter().map(move |&p| (p, self.us[p as usize]))
    }

    /// Records each nonzero phase into its histogram on `shard` — one
    /// observation per phase per segment, matching the histogram units.
    pub fn observe_into(&self, shard: &MetricShard) {
        for (phase, us) in self.iter() {
            if us > 0 {
                shard.observe(phase.histogram(), us);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for p in ALL_PHASES {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        let mut names: Vec<&str> = ALL_PHASES.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PHASE_COUNT);
    }

    #[test]
    fn totals_merge_and_sum() {
        let mut a = PhaseTotals::new();
        a.add(Phase::Settle, 5);
        a.add(Phase::CsmCheck, 2);
        let mut b = PhaseTotals::new();
        b.add(Phase::Settle, 1);
        b.add(Phase::SchedWait, 10);
        a.merge(&b);
        assert_eq!(a.get(Phase::Settle), 6);
        assert_eq!(a.get(Phase::SchedWait), 10);
        assert_eq!(a.total_us(), 18);
        assert_eq!(a.iter().count(), PHASE_COUNT);
    }
}
