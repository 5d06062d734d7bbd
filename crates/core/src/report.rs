use std::time::Duration;

use symsim_netlist::Netlist;
use symsim_obs::ledger::LedgerRecord;
use symsim_obs::{env_fingerprint, EnvFingerprint, JsonObject, MetricsSnapshot};
use symsim_sim::{ActivityStats, ToggleProfile};

use crate::fingerprint::{self, Fnv};
use crate::provenance::ProvenanceMap;

/// The output of a co-analysis run: the exercisable-gate dichotomy and the
/// path statistics of the paper's Tables 3-4 / Figures 5-6.
#[derive(Debug, Clone)]
pub struct CoAnalysisReport {
    /// Design name.
    pub design: String,
    /// Total gate count of the design (combinational + sequential cells).
    pub total_gates: usize,
    /// Gates that could be exercised by some execution of the application.
    pub exercisable_gates: usize,
    /// Execution paths created (pushed onto the worklist), root included.
    /// Never exceeds the configured `max_paths` cap.
    pub paths_created: usize,
    /// Children dropped because creating them would have exceeded the
    /// `max_paths` cap. Non-zero means the exploration was truncated and
    /// the exercisable-gate result is a lower bound.
    pub paths_dropped: usize,
    /// Paths skipped because their halted state was covered by a
    /// conservative state.
    pub paths_skipped: usize,
    /// Paths that ran the application to completion.
    pub paths_finished: usize,
    /// Paths abandoned on the per-segment cycle budget (should be zero for
    /// a converged analysis).
    pub paths_budget_exhausted: usize,
    /// Path segments actually simulated.
    pub paths_simulated: usize,
    /// Split children never enqueued because a sibling conservative state
    /// already covered their forced start state (pre-split subsumption).
    pub paths_killed_presplit: usize,
    /// Adaptive-policy PC entries that crossed a demotion threshold and
    /// collapsed to the single-merge uber-state.
    pub csm_policy_demotions: usize,
    /// Stored conservative states absorbed by a sibling slot that widened
    /// enough to cover them.
    pub csm_slots_pruned: usize,
    /// Observations rejected as infeasible because a known value
    /// contradicted a designer constraint.
    pub csm_constraint_conflicts: usize,
    /// Total cycles simulated across all paths.
    pub simulated_cycles: u64,
    /// Distinct PCs at which conservative states were recorded.
    pub distinct_pcs: usize,
    /// Level tapes run by the batched evaluation kernel, summed over all
    /// workers (zero under [`symsim_sim::EvalMode::Event`]).
    pub batched_level_evals: u64,
    /// Scalar node evaluations (event-driven gates, memory reads, and
    /// symbolic-lane fallbacks), summed over all workers.
    pub event_evals: u64,
    /// The evaluation mode the run executed under.
    pub eval_mode: String,
    /// Order-independent content hash of the verdict — the exercisable
    /// gate set (combinational outputs and DFF `q`s that toggled), folded
    /// with the total gate count. Eval modes and CSM policies may change
    /// throughput; they must never change this digest, which is exactly
    /// what `symsim runs diff` enforces.
    pub verdict_digest: u64,
    /// Environment fingerprint (git commit, rustc, host, workers) making
    /// historical reports attributable.
    pub env: EnvFingerprint,
    /// Wall-clock time of the analysis.
    pub wall_time: Duration,
    /// The merged per-net toggle profile (input to bespoke generation).
    pub profile: ToggleProfile,
    /// Merged switching-activity statistics (present when
    /// `CoAnalysisConfig::activity_weights` was set).
    pub activity: Option<ActivityStats>,
    /// First-exercise provenance: per-net winning `(path, cycle, fork PC)`,
    /// the coverage-over-time curve, and witness extraction (present when
    /// [`symsim_sim::SimConfig::attribution`] was set).
    pub provenance: Option<ProvenanceMap>,
    /// Full end-of-run metrics snapshot. The path/cycle fields above are
    /// *populated from* this snapshot, so `metrics.counter("paths_created")
    /// == paths_created as u64` holds by construction.
    pub metrics: MetricsSnapshot,
}

impl CoAnalysisReport {
    /// Assembles a report from an end-of-run metrics snapshot: every path
    /// and cycle statistic is read from `metrics`, making the report and
    /// the `--metrics-out` file consistent by construction.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        netlist: &Netlist,
        profile: ToggleProfile,
        activity: Option<ActivityStats>,
        mut metrics: MetricsSnapshot,
        provenance: Option<ProvenanceMap>,
        eval_mode: &str,
        wall_time: Duration,
        workers: usize,
    ) -> CoAnalysisReport {
        let env = env_fingerprint(workers);
        metrics.env = Some(env.clone());
        CoAnalysisReport {
            design: netlist.name.clone(),
            total_gates: netlist.total_gate_count(),
            exercisable_gates: profile.exercisable_gate_count(netlist),
            paths_created: metrics.counter("paths_created") as usize,
            paths_dropped: metrics.counter("paths_dropped") as usize,
            paths_skipped: metrics.counter("paths_skipped") as usize,
            paths_finished: metrics.counter("paths_finished") as usize,
            paths_budget_exhausted: metrics.counter("paths_budget_exhausted") as usize,
            paths_simulated: metrics.counter("paths_simulated") as usize,
            paths_killed_presplit: metrics.counter("paths_killed_presplit") as usize,
            csm_policy_demotions: metrics.counter("csm_policy_demotions") as usize,
            csm_slots_pruned: metrics.counter("csm_slots_pruned") as usize,
            csm_constraint_conflicts: metrics.counter("csm_constraint_conflicts") as usize,
            simulated_cycles: metrics.counter("cycles"),
            distinct_pcs: metrics.gauge("csm_distinct_pcs") as usize,
            batched_level_evals: metrics.counter("batched_level_evals"),
            event_evals: metrics.counter("event_evals"),
            eval_mode: eval_mode.to_string(),
            verdict_digest: verdict_digest(netlist, &profile),
            env,
            wall_time,
            profile,
            activity,
            provenance,
            metrics,
        }
    }

    /// The verdict digest as the zero-padded hex the ledger records.
    pub fn verdict_digest_hex(&self) -> String {
        format!("{:016x}", self.verdict_digest)
    }

    /// Builds the persistent-ledger record for this run. `kind` is
    /// `"analyze"` or `"bench"`, `label` names the run for humans, and the
    /// fingerprint triple comes from [`crate::fingerprint`] — computed
    /// where the netlist, program, and config are all still in hand.
    pub fn ledger_record(
        &self,
        kind: &str,
        label: &str,
        design_hash: u64,
        program_hash: u64,
        config: &str,
    ) -> LedgerRecord {
        let wall_seconds = self.wall_time.as_secs_f64();
        LedgerRecord {
            kind: kind.to_string(),
            label: label.to_string(),
            design: self.design.clone(),
            fingerprint: format!(
                "{:016x}",
                fingerprint::combined(design_hash, program_hash, config)
            ),
            design_hash: format!("{design_hash:016x}"),
            program_hash: format!("{program_hash:016x}"),
            config: config.to_string(),
            eval_mode: self.eval_mode.clone(),
            verdict_digest: self.verdict_digest_hex(),
            total_gates: self.total_gates as u64,
            exercisable_gates: self.exercisable_gates as u64,
            paths_created: self.paths_created as u64,
            paths_skipped: self.paths_skipped as u64,
            paths_finished: self.paths_finished as u64,
            paths_dropped: self.paths_dropped as u64,
            simulated_cycles: self.simulated_cycles,
            wall_seconds,
            cycles_per_sec: if wall_seconds > 0.0 {
                self.simulated_cycles as f64 / wall_seconds
            } else {
                0.0
            },
            env: self.env.clone(),
            metrics_json: self.metrics.to_json_compact(),
        }
    }

    /// The paper's "% reduction": the share of gates guaranteed never to be
    /// exercised, which bespoke generation prunes away.
    pub fn reduction_percent(&self) -> f64 {
        if self.total_gates == 0 {
            return 0.0;
        }
        100.0 * (self.total_gates - self.exercisable_gates) as f64 / self.total_gates as f64
    }

    /// True when every path converged (nothing hit the cycle budget and no
    /// child was dropped by the path cap).
    pub fn converged(&self) -> bool {
        self.paths_budget_exhausted == 0 && self.paths_dropped == 0
    }

    /// The report as a single-line JSON object, embedding the full metrics
    /// snapshot under `"metrics"`.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("design", &self.design)
            .u64("total_gates", self.total_gates as u64)
            .u64("exercisable_gates", self.exercisable_gates as u64)
            .f64("reduction_percent", self.reduction_percent())
            .bool("converged", self.converged())
            .u64("paths_created", self.paths_created as u64)
            .u64("paths_dropped", self.paths_dropped as u64)
            .u64("paths_skipped", self.paths_skipped as u64)
            .u64("paths_finished", self.paths_finished as u64)
            .u64("paths_budget_exhausted", self.paths_budget_exhausted as u64)
            .u64("paths_simulated", self.paths_simulated as u64)
            .u64("paths_killed_presplit", self.paths_killed_presplit as u64)
            .u64("csm_policy_demotions", self.csm_policy_demotions as u64)
            .u64("csm_slots_pruned", self.csm_slots_pruned as u64)
            .u64(
                "csm_constraint_conflicts",
                self.csm_constraint_conflicts as u64,
            )
            .u64("simulated_cycles", self.simulated_cycles)
            .u64("distinct_pcs", self.distinct_pcs as u64)
            .u64("batched_level_evals", self.batched_level_evals)
            .u64("event_evals", self.event_evals)
            .str("eval_mode", &self.eval_mode)
            .str("verdict_digest", &self.verdict_digest_hex())
            .raw("env", &self.env.to_json())
            .f64("wall_time_s", self.wall_time.as_secs_f64());
        if let Some(p) = &self.provenance {
            let mut po = JsonObject::new();
            po.u64("attributed", p.attributed_count() as u64)
                .u64("reset", p.reset_count() as u64)
                .u64("coverage_samples", p.samples().len() as u64);
            if let Some(c) = p.convergence() {
                po.u64("cycles_to_50", c.cycles_to_50)
                    .u64("cycles_to_90", c.cycles_to_90)
                    .u64("cycles_to_100", c.cycles_to_100)
                    .u64("paths_to_50", c.paths_to_50)
                    .u64("paths_to_90", c.paths_to_90)
                    .u64("paths_to_100", c.paths_to_100);
            }
            o.raw("provenance", &po.finish());
        }
        o.raw("metrics", &self.metrics.to_json_compact());
        o.finish()
    }
}

/// Order-independent content hash of the exercisable-gate set: the sum
/// (mod 2^64) of one FNV hash per exercised element — combinational gates
/// by [`symsim_netlist::GateId`], sequential cells by DFF index — folded
/// with the total gate count. Summation makes the digest independent of
/// iteration order, so any evaluation mode producing the same verdict
/// produces the same digest.
fn verdict_digest(netlist: &Netlist, profile: &ToggleProfile) -> u64 {
    let mut acc: u64 = 0;
    for gate in profile.exercisable_gates(netlist) {
        let mut h = Fnv::new();
        h.bytes(b"gate").word(u64::from(gate.0));
        acc = acc.wrapping_add(h.finish());
    }
    for (i, dff) in netlist.dffs().iter().enumerate() {
        if profile.is_toggled(dff.q) {
            let mut h = Fnv::new();
            h.bytes(b"dff").word(i as u64);
            acc = acc.wrapping_add(h.finish());
        }
    }
    let mut h = Fnv::new();
    h.word(netlist.total_gate_count() as u64);
    h.word(acc);
    h.finish()
}

impl std::fmt::Display for CoAnalysisReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} / {} gates exercisable ({:.2}% reduction); paths {} created, \
             {} dropped, {} skipped, {} finished; {} cycles in {:?}; \
             evals {} batched-level / {} event",
            self.design,
            self.exercisable_gates,
            self.total_gates,
            self.reduction_percent(),
            self.paths_created,
            self.paths_dropped,
            self.paths_skipped,
            self.paths_finished,
            self.simulated_cycles,
            self.wall_time,
            self.batched_level_evals,
            self.event_evals,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsim_logic::Value;

    #[test]
    fn reduction_math() {
        let profile = ToggleProfile::baseline(&[Value::ZERO]);
        let report = CoAnalysisReport {
            design: "d".into(),
            total_gates: 200,
            exercisable_gates: 150,
            paths_created: 3,
            paths_dropped: 0,
            paths_skipped: 1,
            paths_finished: 2,
            paths_budget_exhausted: 0,
            paths_simulated: 3,
            paths_killed_presplit: 0,
            csm_policy_demotions: 0,
            csm_slots_pruned: 0,
            csm_constraint_conflicts: 0,
            simulated_cycles: 99,
            distinct_pcs: 2,
            batched_level_evals: 7,
            event_evals: 42,
            eval_mode: "hybrid".into(),
            verdict_digest: 0xfeed,
            env: EnvFingerprint {
                git_commit: "unknown".into(),
                rustc: "unknown".into(),
                host: "test".into(),
                workers: 1,
            },
            wall_time: Duration::from_millis(5),
            profile,
            activity: None,
            provenance: None,
            metrics: MetricsSnapshot::default(),
        };
        assert!((report.reduction_percent() - 25.0).abs() < 1e-9);
        assert!(report.converged());
        assert!(report.to_string().contains("25.00% reduction"));
        assert!(report.to_string().contains("0 dropped"));
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"paths_created\":3"));
        assert!(json.contains("\"metrics\":{"));
        assert!(json.contains("\"verdict_digest\":\"000000000000feed\""));
        assert!(json.contains("\"env\":{"));
        let rec = report.ledger_record("analyze", "d/app", 1, 2, "mode=hybrid");
        assert_eq!(rec.verdict_digest, "000000000000feed");
        assert_eq!(rec.design_hash, format!("{:016x}", 1));
        assert_eq!(rec.exercisable_gates, 150);
        assert!((rec.cycles_per_sec - 99.0 / 0.005).abs() < 1e-6);
        // the record parses back through the ledger reader
        let entry = symsim_obs::LedgerEntry::from_json(&rec.to_json()).unwrap();
        assert_eq!(entry.verdict_digest, rec.verdict_digest);
        assert_eq!(entry.env, report.env);
    }
}
