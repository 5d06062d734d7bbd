//! End-to-end evaluation-mode identity: event, hybrid, and cohort mode
//! must produce the *same analysis* — identical path counts, CSM
//! decisions, cycle totals, and exercisable-gate results — on real CPU
//! workloads. The modes may only differ in throughput, never in results.
//!
//! With one worker the exploration order is deterministic, so every
//! statistic must match bit-for-bit. With four workers the interleaving
//! of CSM observations is racy by design (a path may be widened in one
//! schedule and covered in another), so only the order-independent
//! result — the exercisable-gate dichotomy — is asserted.
//!
//! Runs two (cpu, benchmark) pairs x {1, 4} workers.

use std::sync::Arc;

use symsim_bench::{run_experiment, CpuKind};
use symsim_core::{CoAnalysisConfig, CoAnalysisReport};
use symsim_obs::{CounterId, MetricsRegistry};
use symsim_sim::{EvalMode, SimConfig};

const PAIRS: [(CpuKind, &str); 2] = [(CpuKind::Omsp16, "div"), (CpuKind::Bm32, "insort")];

fn run(
    kind: CpuKind,
    bench: &str,
    mode: EvalMode,
    workers: usize,
) -> (CoAnalysisReport, Arc<MetricsRegistry>) {
    let registry = Arc::new(MetricsRegistry::new(workers));
    let config = CoAnalysisConfig {
        workers,
        sim: SimConfig {
            eval_mode: mode,
            ..SimConfig::default()
        },
        metrics: Some(Arc::clone(&registry)),
        ..CoAnalysisConfig::default()
    };
    (run_experiment(kind, bench, config).report, registry)
}

#[test]
fn cohort_mode_reproduces_event_mode_results() {
    for (kind, bench) in PAIRS {
        // sequential: the DFS order is deterministic, so every statistic
        // that depends on exploration order must match exactly
        let (event, _) = run(kind, bench, EvalMode::Event, 1);
        let (hybrid, _) = run(kind, bench, EvalMode::Hybrid, 1);
        let (cohort, reg) = run(kind, bench, EvalMode::Cohort, 1);
        for (name, other) in [("hybrid", &hybrid), ("cohort", &cohort)] {
            let ctx = format!("{}/{bench} x1 ({name})", kind.name());
            assert_eq!(event.paths_created, other.paths_created, "{ctx}: created");
            assert_eq!(event.paths_skipped, other.paths_skipped, "{ctx}: skipped");
            assert_eq!(
                event.paths_finished, other.paths_finished,
                "{ctx}: finished"
            );
            assert_eq!(
                event.paths_simulated, other.paths_simulated,
                "{ctx}: simulated"
            );
            assert_eq!(
                event.simulated_cycles, other.simulated_cycles,
                "{ctx}: cycles"
            );
            assert_eq!(
                event.metrics.counter("csm_widenings"),
                other.metrics.counter("csm_widenings"),
                "{ctx}: csm_widenings"
            );
            assert_eq!(
                event.exercisable_gates, other.exercisable_gates,
                "{ctx}: exercisable gates"
            );
        }
        // the cohort run must actually have packed lanes — otherwise the
        // identity above is vacuous (everything fell back to scalar)
        let formed = reg.counter_total(CounterId::CohortsFormed);
        let members = reg.counter_total(CounterId::CohortMemberPaths);
        assert!(formed > 0, "{}/{bench}: no cohorts formed", kind.name());
        assert!(
            members >= 2 * formed,
            "{}/{bench}: cohorts under-occupied ({members} members / {formed})",
            kind.name()
        );

        // parallel: schedules race, but the exercisable-gate dichotomy is
        // the converged fixed point and must agree across modes
        let (event4, _) = run(kind, bench, EvalMode::Event, 4);
        let (cohort4, reg4) = run(kind, bench, EvalMode::Cohort, 4);
        let ctx = format!("{}/{bench} x4", kind.name());
        assert_eq!(
            event4.exercisable_gates, cohort4.exercisable_gates,
            "{ctx}: exercisable gates"
        );
        assert_eq!(
            event4.total_gates, cohort4.total_gates,
            "{ctx}: total gates"
        );
        assert!(
            reg4.counter_total(CounterId::CohortsFormed) > 0,
            "{ctx}: no cohorts formed"
        );
    }
}
