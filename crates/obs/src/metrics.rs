//! The lock-free metrics registry.
//!
//! The metric set is static: every counter, gauge, and histogram the
//! pipeline records is an enum variant, so a handle is just a discriminant
//! and an increment indexes a fixed array — one relaxed atomic op, no
//! hashing. The registry is sharded per worker; workers write only their
//! own cache-line-aligned shard, and a [`MetricsRegistry::snapshot`] sums
//! shards on read. Gauges are signed up/down counters (additive across
//! shards), so `live = Σ shards(+1 on claim, -1 on done)` is exact.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Monotonic event counters, named as they appear in snapshot JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CounterId {
    /// Paths pushed onto the worklist (root included).
    PathsCreated,
    /// Children dropped by the `max_paths` cap.
    PathsDropped,
    /// Paths skipped because their halted state was covered.
    PathsSkipped,
    /// Paths that ran the application to completion.
    PathsFinished,
    /// Paths abandoned on the per-segment cycle budget.
    PathsBudgetExhausted,
    /// Path segments actually simulated.
    PathsSimulated,
    /// Total cycles simulated across all paths.
    Cycles,
    /// Level tapes run by the batched evaluation kernel.
    BatchedLevelEvals,
    /// Scalar node evaluations (event-driven dispatch).
    EventEvals,
    /// Evaluation writes overridden by an active force (path steering).
    ForcedWrites,
    /// States presented to the conservative-state manager.
    CsmObservations,
    /// Observations covered by a stored conservative state.
    CsmCovered,
    /// Superstate merges (widenings) performed.
    CsmWidenings,
    /// Full subset checks skipped by the unknown-bit-count early-out.
    CsmCoverChecksElided,
    /// Tasks taken from a peer's deque rather than the worker's own.
    SchedSteals,
    /// Times a worker parked on the scheduler condvar.
    SchedParks,
    /// Path cohorts packed for lane evaluation (one per cohort work item
    /// that passed the pack eligibility checks).
    CohortsFormed,
    /// Member paths carried by formed cohorts (mean lane occupancy is
    /// `cohort_member_paths / cohorts_formed`).
    CohortMemberPaths,
    /// Cohort lanes spilled back to scalar segments on a fully-unknown
    /// memory address.
    CohortLaneSpills,
    /// Adaptive-policy PC entries collapsed from multi-state to the
    /// single-merge uber-state (one per demoted PC).
    CsmPolicyDemotions,
    /// Stored conservative states absorbed by a sibling slot that widened
    /// enough to cover them (cross-slot subsumption pruning).
    CsmSlotsPruned,
    /// Observations rejected because the halted state contradicted an
    /// application constraint (the state is infeasible; treated as covered
    /// so widening terminates).
    CsmConstraintConflicts,
    /// Split children never enqueued because their forced start state was
    /// already covered by a sibling conservative state at the fork PC.
    PathsKilledPresplit,
}

/// Display/JSON names, indexed by [`CounterId`] discriminant.
const COUNTER_NAMES: [&str; COUNTERS] = [
    "paths_created",
    "paths_dropped",
    "paths_skipped",
    "paths_finished",
    "paths_budget_exhausted",
    "paths_simulated",
    "cycles",
    "batched_level_evals",
    "event_evals",
    "forced_writes",
    "csm_observations",
    "csm_covered",
    "csm_widenings",
    "csm_cover_checks_elided",
    "sched_steals",
    "sched_parks",
    "cohorts_formed",
    "cohort_member_paths",
    "cohort_lane_spills",
    "csm_policy_demotions",
    "csm_slots_pruned",
    "csm_constraint_conflicts",
    "paths_killed_presplit",
];
const COUNTERS: usize = CounterId::PathsKilledPresplit as usize + 1;

/// Up/down gauges (additive across shards; see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum GaugeId {
    /// Paths claimed by a worker and not yet finished.
    PathsLive,
    /// Paths sitting in scheduler queues.
    PathsQueued,
    /// Conservative states currently stored.
    CsmStoredStates,
    /// Distinct PCs with stored conservative states.
    CsmDistinctPcs,
}

const GAUGE_NAMES: [&str; GAUGES] = [
    "paths_live",
    "paths_queued",
    "csm_stored_states",
    "csm_distinct_pcs",
];
const GAUGES: usize = GaugeId::CsmDistinctPcs as usize + 1;

/// Fixed-bucket histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistogramId {
    /// Dirty fraction (percent) of levels at dispatch time, in deciles:
    /// buckets `0-9 %, 10-19 %, …, 90-99 %, 100 %`. The engine accumulates
    /// this locally with the same layout (see [`DIRTY_PCT_BUCKETS`]) and
    /// the explorer folds it in bucket-for-bucket.
    DirtyFractionPct,
    /// Fork fan-out: branch concretizations (`2^n` for `n` enumerated
    /// unknown control signals) per fork site, recorded *before* the
    /// `max_paths` clamp — the signal cohort sizing depends on.
    SplitFanout,
    /// Cycles simulated per path segment.
    SegmentCycles,
    /// Engine settle (Active-region propagation) time per segment, µs.
    PhaseSettleUs,
    /// Snapshot save time per halted segment, µs.
    PhaseSaveUs,
    /// Snapshot restore time per segment, µs.
    PhaseRestoreUs,
    /// CSM subset (cover) check time per observation, µs.
    PhaseCsmCheckUs,
    /// CSM merge/widen time per widening, µs.
    PhaseCsmWidenUs,
    /// Scheduler wait (time blocked in `next_task`) per claim, µs.
    PhaseSchedWaitUs,
    /// Batched level-tape evaluation time per segment, µs.
    PhaseBatchEvalUs,
    /// Scalar event-driven evaluation time per segment, µs.
    PhaseEventEvalUs,
    /// Member paths per formed cohort (lane occupancy).
    CohortLaneOccupancy,
}

const HISTOGRAM_COUNT: usize = HistogramId::CohortLaneOccupancy as usize + 1;

/// Bucket count of [`HistogramId::DirtyFractionPct`]: ten deciles plus the
/// exactly-100% bucket.
pub const DIRTY_PCT_BUCKETS: usize = 11;

/// Inclusive upper bounds per histogram; values above the last bound land
/// in one extra overflow bucket.
/// Power-of-two µs bounds shared by every phase-timing histogram: sub-µs
/// phases land in the first bucket, anything past ~1 ms in the overflow.
const PHASE_US_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

const HISTOGRAM_BOUNDS: [&[u64]; HISTOGRAM_COUNT] = [
    // deciles: <=9 → 0-9%, …, <=99 → 90-99%, overflow bucket = exactly 100%
    &[9, 19, 29, 39, 49, 59, 69, 79, 89, 99],
    &[1, 2, 4, 8, 16, 32, 64],
    &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
    PHASE_US_BOUNDS,
    PHASE_US_BOUNDS,
    PHASE_US_BOUNDS,
    PHASE_US_BOUNDS,
    PHASE_US_BOUNDS,
    PHASE_US_BOUNDS,
    PHASE_US_BOUNDS,
    PHASE_US_BOUNDS,
    // lane occupancy: powers of two up to the 64-lane plane width
    &[1, 2, 4, 8, 16, 32, 64],
];

const HISTOGRAM_NAMES: [&str; HISTOGRAM_COUNT] = [
    "dirty_fraction_pct",
    "split_fanout",
    "segment_cycles",
    "phase_settle_us",
    "phase_snapshot_save_us",
    "phase_snapshot_restore_us",
    "phase_csm_check_us",
    "phase_csm_widen_us",
    "phase_sched_wait_us",
    "phase_batch_eval_us",
    "phase_event_eval_us",
    "cohort_lane_occupancy",
];

/// Largest bucket array any histogram needs (bounds + overflow):
/// `segment_cycles` with its 11 bounds.
const MAX_BUCKETS: usize = 12;

/// One worker's slice of the registry. Aligned to two cache lines so
/// adjacent shards never share a line and relaxed increments stay local.
#[derive(Debug)]
#[repr(align(128))]
pub struct MetricShard {
    counters: [AtomicU64; COUNTERS],
    gauges: [AtomicI64; GAUGES],
    hists: [[AtomicU64; MAX_BUCKETS]; HISTOGRAM_COUNT],
}

impl MetricShard {
    fn new() -> MetricShard {
        MetricShard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicI64::new(0)),
            hists: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }

    /// Adds 1 to a counter: one relaxed atomic add.
    #[inline]
    pub fn inc(&self, c: CounterId) {
        self.add(c, 1);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, c: CounterId, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Moves a gauge by `delta` (may be negative).
    #[inline]
    pub fn gauge_add(&self, g: GaugeId, delta: i64) {
        self.gauges[g as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Stores an absolute gauge value into *this shard*. Only meaningful
    /// for gauges a single shard owns exclusively (e.g. the CSM updates
    /// its sizes under its own lock through shard 0).
    #[inline]
    pub fn gauge_set(&self, g: GaugeId, value: i64) {
        self.gauges[g as usize].store(value, Ordering::Relaxed);
    }

    /// Records `value` into the histogram's bucket.
    #[inline]
    pub fn observe(&self, h: HistogramId, value: u64) {
        let bounds = HISTOGRAM_BOUNDS[h as usize];
        let idx = bounds.partition_point(|&b| b < value);
        self.hists[h as usize][idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` pre-bucketed samples directly to bucket `bucket` — used to
    /// fold an engine-local histogram with the same layout into the
    /// registry without re-bucketing.
    #[inline]
    pub fn observe_bucket(&self, h: HistogramId, bucket: usize, n: u64) {
        let buckets = HISTOGRAM_BOUNDS[h as usize].len() + 1;
        self.hists[h as usize][bucket.min(buckets - 1)].fetch_add(n, Ordering::Relaxed);
    }
}

/// The sharded registry. See the module docs for the design.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Box<[MetricShard]>,
}

impl MetricsRegistry {
    /// Creates a registry with `shards` shards (at least one); one per
    /// worker keeps hot-path increments contention-free.
    pub fn new(shards: usize) -> MetricsRegistry {
        MetricsRegistry {
            shards: (0..shards.max(1)).map(|_| MetricShard::new()).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard for worker `i` (wraps, so any index is safe).
    #[inline]
    pub fn shard(&self, i: usize) -> &MetricShard {
        &self.shards[i % self.shards.len()]
    }

    /// Sum of a counter across all shards.
    pub fn counter_total(&self, c: CounterId) -> u64 {
        self.shards
            .iter()
            .map(|s| s.counters[c as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of a gauge across all shards.
    pub fn gauge_total(&self, g: GaugeId) -> i64 {
        self.shards
            .iter()
            .map(|s| s.gauges[g as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Per-shard values of one counter (worker-utilization breakdowns).
    pub fn counter_per_shard(&self, c: CounterId) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.counters[c as usize].load(Ordering::Relaxed))
            .collect()
    }

    /// Aggregates every metric across shards into an owned snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = (0..COUNTERS)
            .map(|i| {
                let c: u64 = self
                    .shards
                    .iter()
                    .map(|s| s.counters[i].load(Ordering::Relaxed))
                    .sum();
                (COUNTER_NAMES[i], c)
            })
            .collect();
        let gauges = (0..GAUGES)
            .map(|i| {
                let g: i64 = self
                    .shards
                    .iter()
                    .map(|s| s.gauges[i].load(Ordering::Relaxed))
                    .sum();
                (GAUGE_NAMES[i], g)
            })
            .collect();
        let histograms = (0..HISTOGRAM_COUNT)
            .map(|i| {
                let buckets = HISTOGRAM_BOUNDS[i].len() + 1;
                let counts: Vec<u64> = (0..buckets)
                    .map(|b| {
                        self.shards
                            .iter()
                            .map(|s| s.hists[i][b].load(Ordering::Relaxed))
                            .sum()
                    })
                    .collect();
                HistogramSnapshot {
                    name: HISTOGRAM_NAMES[i],
                    bounds: HISTOGRAM_BOUNDS[i],
                    samples: counts.iter().sum(),
                    counts,
                }
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            env: None,
        }
    }
}

/// Aggregated state of one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// JSON name.
    pub name: &'static str,
    /// Inclusive upper bounds; `counts` has one extra overflow bucket.
    pub bounds: &'static [u64],
    /// Per-bucket sample counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub samples: u64,
}

/// A point-in-time aggregation of a [`MetricsRegistry`] — the `metrics`
/// section embedded in `CoAnalysisReport` and written by `--metrics-out`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, total)` for every counter, in [`CounterId`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, total)` for every gauge, in [`GaugeId`] order.
    pub gauges: Vec<(&'static str, i64)>,
    /// Every histogram, in [`HistogramId`] order.
    pub histograms: Vec<HistogramSnapshot>,
    /// Environment fingerprint stamped at report assembly (absent on raw
    /// registry snapshots), making historical `--metrics-out` files
    /// attributable to a commit, toolchain, and host.
    pub env: Option<crate::ledger::EnvFingerprint>,
}

impl MetricsSnapshot {
    /// A counter's total by JSON name (0 when absent, e.g. on the empty
    /// default snapshot).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// A gauge's total by JSON name (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Serializes the snapshot: counters and gauges as flat top-level
    /// keys, histograms nested under `"histograms"` (the schema in
    /// `docs/schema/metrics.schema.json`). Pretty-printed for files.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("  \"{name}\": {v},\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("  \"{name}\": {v},\n"));
        }
        out.push_str("  \"histograms\": {\n");
        for (i, h) in self.histograms.iter().enumerate() {
            let bounds: Vec<String> = h.bounds.iter().map(u64::to_string).collect();
            let counts: Vec<String> = h.counts.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "    \"{}\": {{ \"bounds\": [{}], \"counts\": [{}], \"samples\": {} }}{}\n",
                h.name,
                bounds.join(", "),
                counts.join(", "),
                h.samples,
                if i + 1 < self.histograms.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        out.push_str("  }");
        if let Some(env) = &self.env {
            out.push_str(&format!(",\n  \"env\": {}", env.to_json()));
        }
        out.push_str("\n}\n");
        out
    }

    /// [`MetricsSnapshot::to_json`] on a single line, for embedding inside
    /// other single-line JSON records.
    pub fn to_json_compact(&self) -> String {
        let mut out = String::from("{");
        for (name, v) in &self.counters {
            out.push_str(&format!("\"{name}\":{v},"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("\"{name}\":{v},"));
        }
        out.push_str("\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            let bounds: Vec<String> = h.bounds.iter().map(u64::to_string).collect();
            let counts: Vec<String> = h.counts.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "{}\"{}\":{{\"bounds\":[{}],\"counts\":[{}],\"samples\":{}}}",
                if i > 0 { "," } else { "" },
                h.name,
                bounds.join(","),
                counts.join(","),
                h.samples,
            ));
        }
        out.push('}');
        if let Some(env) = &self.env {
            out.push_str(&format!(",\"env\":{}", env.to_json()));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate_across_shards() {
        let r = MetricsRegistry::new(4);
        r.shard(0).inc(CounterId::PathsCreated);
        r.shard(1).add(CounterId::PathsCreated, 2);
        r.shard(3).inc(CounterId::PathsCreated);
        r.shard(2).inc(CounterId::PathsSkipped);
        assert_eq!(r.counter_total(CounterId::PathsCreated), 4);
        assert_eq!(r.counter_total(CounterId::PathsSkipped), 1);
        assert_eq!(r.counter_per_shard(CounterId::PathsCreated), [1, 2, 0, 1]);
        let snap = r.snapshot();
        assert_eq!(snap.counter("paths_created"), 4);
        assert_eq!(snap.counter("paths_skipped"), 1);
        assert_eq!(snap.counter("cycles"), 0);
    }

    #[test]
    fn gauges_are_additive_up_down_counters() {
        let r = MetricsRegistry::new(2);
        r.shard(0).gauge_add(GaugeId::PathsLive, 3);
        r.shard(1).gauge_add(GaugeId::PathsLive, -2);
        assert_eq!(r.gauge_total(GaugeId::PathsLive), 1);
        r.shard(0).gauge_set(GaugeId::CsmStoredStates, 7);
        r.shard(0).gauge_set(GaugeId::CsmStoredStates, 5);
        assert_eq!(r.snapshot().gauge("csm_stored_states"), 5);
    }

    #[test]
    fn histogram_buckets_by_inclusive_upper_bound() {
        let r = MetricsRegistry::new(1);
        let s = r.shard(0);
        // split_fanout bounds [1, 2, 4, 8, 16, 32, 64]
        s.observe(HistogramId::SplitFanout, 1); // bucket 0
        s.observe(HistogramId::SplitFanout, 2); // bucket 1
        s.observe(HistogramId::SplitFanout, 3); // bucket 2
        s.observe(HistogramId::SplitFanout, 4); // bucket 2
        s.observe(HistogramId::SplitFanout, 1000); // overflow
        let snap = r.snapshot();
        let h = &snap.histograms[HistogramId::SplitFanout as usize];
        assert_eq!(h.name, "split_fanout");
        assert_eq!(h.samples, 5);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[2], 2);
        assert_eq!(*h.counts.last().unwrap(), 1, "overflow bucket");
    }

    #[test]
    fn dirty_fraction_deciles_match_the_engine_layout() {
        let r = MetricsRegistry::new(1);
        // the engine buckets pct as min(pct / 10, 10); the registry must
        // land the same values in the same buckets
        for pct in [0u64, 9, 10, 55, 99, 100] {
            r.shard(0).observe(HistogramId::DirtyFractionPct, pct);
            r.shard(0).observe_bucket(
                HistogramId::DirtyFractionPct,
                (pct as usize / 10).min(10),
                1,
            );
        }
        let snap = r.snapshot();
        let h = &snap.histograms[HistogramId::DirtyFractionPct as usize];
        assert_eq!(h.counts.len(), DIRTY_PCT_BUCKETS);
        assert_eq!(h.counts[0], 4, "0 and 9 via both routes");
        assert_eq!(h.counts[1], 2);
        assert_eq!(h.counts[5], 2);
        assert_eq!(h.counts[9], 2);
        assert_eq!(h.counts[10], 2, "exactly-100% bucket");
    }

    #[test]
    fn snapshot_json_is_flat_counters_plus_histograms() {
        let r = MetricsRegistry::new(2);
        r.shard(0).add(CounterId::Cycles, 42);
        r.shard(1).gauge_add(GaugeId::PathsQueued, 3);
        r.shard(0).observe(HistogramId::SegmentCycles, 10);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"cycles\": 42"), "{json}");
        assert!(json.contains("\"paths_queued\": 3"), "{json}");
        assert!(json.contains("\"segment_cycles\""), "{json}");
        assert!(json.contains("\"samples\": 1"), "{json}");
        // flat keys the acceptance check greps for
        for key in ["paths_created", "paths_skipped", "cycles"] {
            assert!(json.contains(&format!("\"{key}\"")), "{json}");
        }
    }

    #[test]
    fn shard_index_wraps() {
        let r = MetricsRegistry::new(2);
        r.shard(7).inc(CounterId::SchedSteals); // lands in shard 1
        assert_eq!(r.counter_per_shard(CounterId::SchedSteals), [0, 1]);
    }
}
