//! Emits `BENCH_coanalysis.json`: throughput and snapshot-cost numbers
//! for the co-analysis engine, in the same spirit as the `tables` binary.
//!
//! ```text
//! cargo run --release -p symsim-bench --bin bench_coanalysis [-- --smoke]
//! ```
//!
//! Each (cpu, benchmark) pair runs four times — event-driven, hybrid
//! batched dispatch, path-cohort lane evaluation, and a hybrid run under
//! the adaptive CSM policy — with a single worker so the explorations are
//! deterministic and comparable. The binary *asserts* that the three eval
//! modes produce identical `paths_created`/`simulated_cycles`/
//! exercisable-gate results (the batched and cohort kernels must only
//! change speed, never results) and records every throughput so the
//! speedups are visible in-repo. Cohort runs additionally carry a `cohort`
//! section per entry (cohorts formed, mean/max lane occupancy, scalar
//! spills).
//!
//! Modes and observability flags:
//!
//! * `--smoke` runs only the smallest pair in `event`, `hybrid`, and
//!   `cohort` modes and writes no bench file: the CI divergence check (all
//!   results are asserted identical to event mode).
//! * `--pair cpu/bench` (e.g. `dr5/binsearch`) runs that single pair once
//!   (`--eval-mode`, default hybrid; `--csm-policy single|multi:N|adaptive`,
//!   default single) and prints the report as JSON.
//! * The adaptive leg asserts the exercisable-gate verdict is bit-identical
//!   to the single-merge runs on every pair, and that `paths_created` drops
//!   by at least 15% on bm32/insort and dr5/binsearch (each entry carries a
//!   `csm` section with the policy's demotion/prune/pre-split-kill counts).
//! * `--log-format pretty|json`, `--log-level L` configure the trace layer;
//!   `--heartbeat-secs S` emits NDJSON progress (to `--progress-out` or
//!   stderr); `--metrics-out FILE` writes the metrics snapshot of the last
//!   run. Every run gets a fresh registry — one registry serves one run, so
//!   cross-mode identity checks stay exact.
//! * `--trace-out FILE` records the run trace (`docs/schema/trace.schema.json`);
//!   successive runs overwrite it, so the file holds the last run's trace.
//!   Each bench entry carries a `trace` section (event/drop/byte counts) for
//!   its own run. In `--smoke` the flag additionally runs a best-of-3
//!   traced-vs-untraced comparison and asserts the tracing-off run stays
//!   within noise (the dormant hooks must cost nothing measurable).
//! * Each pair additionally runs once in event mode with first-exercise
//!   attribution on (`--attribution` enables it for `--pair` runs too). The
//!   attributed run must match the event reference exactly, its attributed
//!   net count must equal the toggle profile's, and its entry carries a
//!   `provenance` section (attributed/reset counts and the cycles/paths to
//!   50/90/100% coverage). `--smoke` adds a best-of-3
//!   attributed-vs-unattributed comparison asserting the attribution-off
//!   run stays within noise — the one-shot first-toggle hook must be free
//!   when the flag is off.
//! * Every run appends one record to the persistent run ledger
//!   (`--ledger FILE|off`, else `$SYMSIM_LEDGER`, else
//!   `.symsim/ledger.ndjson`) — inspect with `symsim runs`. The final JSON
//!   carries a top-level `env` block (git commit, rustc, host). `--smoke`
//!   adds a best-of-3 ledger-on vs ledger-off comparison (the append must
//!   be free) plus an append → read-back → self-diff round trip.

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use symsim_bench::{noise, run_experiment, CpuKind};
use symsim_core::{CoAnalysisConfig, CoAnalysisReport, CsmPolicy};
use symsim_obs::{
    info, tracefile, Heartbeat, HeartbeatOut, MetricsRegistry, TraceSink, TraceStats,
};
use symsim_sim::{cow_clone_stats, reset_cow_clone_stats, EvalMode, MemArray, SimConfig};

/// The (cpu, benchmark) pairs measured: small enough to run in CI, big
/// enough to exercise forking and level batching.
const RUNS: [(CpuKind, &str); 3] = [
    (CpuKind::Omsp16, "div"),
    (CpuKind::Bm32, "insort"),
    (CpuKind::Dr5, "binsearch"),
];

/// The pair used by `--smoke` (the fastest of [`RUNS`]).
const SMOKE: (CpuKind, &str) = (CpuKind::Omsp16, "div");

#[derive(Default, Clone)]
struct Opts {
    smoke: bool,
    pair: Option<(CpuKind, String)>,
    eval_mode: Option<EvalMode>,
    csm_policy: Option<CsmPolicy>,
    metrics_out: Option<String>,
    heartbeat_secs: f64,
    progress_out: Option<String>,
    trace_out: Option<String>,
    attribution: bool,
    /// `--ledger FILE|off`: run-ledger destination override (default
    /// `$SYMSIM_LEDGER`, else `.symsim/ledger.ndjson`).
    ledger: Option<String>,
}

fn parse_policy_spec(spec: &str) -> CsmPolicy {
    match spec {
        "single" => CsmPolicy::SingleMerge,
        "adaptive" => CsmPolicy::adaptive(),
        other => {
            let n = other
                .strip_prefix("multi:")
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| {
                    panic!("--csm-policy: expected single, multi:N, or adaptive, got \"{other}\"")
                });
            CsmPolicy::MultiState { max_states: n }
        }
    }
}

fn parse_cpu(name: &str) -> CpuKind {
    match name {
        "omsp16" => CpuKind::Omsp16,
        "bm32" => CpuKind::Bm32,
        "dr5" => CpuKind::Dr5,
        other => panic!("unknown cpu \"{other}\" (expected omsp16, bm32, or dr5)"),
    }
}

fn parse_opts() -> Opts {
    let mut opts = Opts::default();
    let mut level = symsim_obs::Level::Info;
    let mut format = symsim_obs::LogFormat::Pretty;
    let mut args = std::env::args().skip(1);
    let value = |flag: &str, args: &mut dyn Iterator<Item = String>| -> String {
        args.next()
            .unwrap_or_else(|| panic!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--pair" => {
                let spec = value("--pair", &mut args);
                let (cpu, bench) = spec
                    .split_once('/')
                    .unwrap_or_else(|| panic!("--pair expects cpu/bench, got \"{spec}\""));
                opts.pair = Some((parse_cpu(cpu), bench.to_string()));
            }
            "--eval-mode" => {
                opts.eval_mode = Some(
                    value("--eval-mode", &mut args)
                        .parse()
                        .expect("--eval-mode"),
                );
            }
            "--csm-policy" => {
                opts.csm_policy = Some(parse_policy_spec(&value("--csm-policy", &mut args)));
            }
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out", &mut args)),
            "--heartbeat-secs" => {
                opts.heartbeat_secs = value("--heartbeat-secs", &mut args)
                    .parse()
                    .expect("--heartbeat-secs");
            }
            "--progress-out" => opts.progress_out = Some(value("--progress-out", &mut args)),
            "--trace-out" => opts.trace_out = Some(value("--trace-out", &mut args)),
            "--ledger" => opts.ledger = Some(value("--ledger", &mut args)),
            "--attribution" => opts.attribution = true,
            "--log-level" => {
                level = value("--log-level", &mut args)
                    .parse()
                    .expect("--log-level")
            }
            "--log-format" => {
                format = value("--log-format", &mut args)
                    .parse()
                    .expect("--log-format");
            }
            other => panic!("unknown flag \"{other}\""),
        }
    }
    symsim_obs::trace::init(level, format, None);
    opts
}

/// One `run_mode` result: the report plus, when the run was traced, the
/// sink's final event/drop/byte counts.
struct RunResult {
    report: CoAnalysisReport,
    trace: Option<TraceStats>,
}

/// Runs one (cpu, bench, mode) co-analysis with a fresh registry and,
/// when requested, a heartbeat. Successive runs append to `--progress-out`
/// so one invocation yields one NDJSON stream. With `traced` set and
/// `--trace-out` given, the run writes a fresh trace to that path
/// (successive traced runs overwrite it).
fn run_mode(
    kind: CpuKind,
    bench: &str,
    mode: EvalMode,
    policy: CsmPolicy,
    opts: &Opts,
    traced: bool,
    attribution: bool,
) -> RunResult {
    let registry = Arc::new(MetricsRegistry::new(1));
    let sink = match (&opts.trace_out, traced) {
        (Some(path), true) => {
            let sink = TraceSink::to_file(path, 1).expect("create --trace-out");
            tracefile::install_global(&sink);
            Some(sink)
        }
        _ => None,
    };
    let config = CoAnalysisConfig {
        // one worker: path creation order (and thus CSM coverage) is
        // deterministic, so cross-mode identity is a meaningful check
        workers: 1,
        sim: SimConfig {
            eval_mode: mode,
            attribution,
            ..SimConfig::default()
        },
        policy,
        metrics: Some(Arc::clone(&registry)),
        trace: sink.clone(),
        ..CoAnalysisConfig::default()
    };
    let heartbeat = if opts.heartbeat_secs > 0.0 {
        let out = match &opts.progress_out {
            Some(path) => {
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .expect("open --progress-out");
                HeartbeatOut::Writer(Box::new(file))
            }
            None => HeartbeatOut::Stderr,
        };
        Some(Heartbeat::start(
            Arc::clone(&registry),
            Duration::from_secs_f64(opts.heartbeat_secs),
            out,
        ))
    } else {
        None
    };
    let result = run_experiment(kind, bench, config);
    if let Some(hb) = heartbeat {
        hb.stop();
    }
    let report = result.report;
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, report.metrics.to_json()).expect("write --metrics-out");
    }
    // every bench run appends one record to the persistent run ledger
    // (--ledger FILE|off, else $SYMSIM_LEDGER, else .symsim/ledger.ndjson)
    if let Some(path) = symsim_obs::ledger::resolve_path(opts.ledger.as_deref()) {
        let record = report.ledger_record(
            "bench",
            &format!("{}/{bench}", kind.name()),
            result.design_hash,
            result.program_hash,
            &result.config,
        );
        if let Err(e) = symsim_obs::ledger::append(&path, &record) {
            symsim_obs::warn!("bench", "cannot append run-ledger record: {e}");
        }
    }
    let trace = sink.map(|sink| {
        tracefile::clear_global();
        sink.finish()
    });
    RunResult { report, trace }
}

/// Panics if `other` diverged from the event-mode reference — the batched
/// kernel is only allowed to change *how fast* results arrive.
fn assert_equivalent(
    kind: CpuKind,
    bench: &str,
    event: &CoAnalysisReport,
    other: &CoAnalysisReport,
    mode: EvalMode,
) {
    let pair = format!("{}/{bench} ({})", kind.name(), mode.name());
    assert_eq!(
        event.paths_created, other.paths_created,
        "{pair}: paths_created diverged from event mode"
    );
    assert_eq!(
        event.simulated_cycles, other.simulated_cycles,
        "{pair}: simulated_cycles diverged from event mode"
    );
    assert_eq!(
        event.paths_skipped, other.paths_skipped,
        "{pair}: paths_skipped diverged from event mode"
    );
    assert_eq!(
        event.metrics.counter("csm_widenings"),
        other.metrics.counter("csm_widenings"),
        "{pair}: csm_widenings diverged from event mode"
    );
    assert_eq!(
        event.exercisable_gates, other.exercisable_gates,
        "{pair}: exercisable_gates diverged from event mode"
    );
}

/// The per-entry `cohort` section: lane-packing effectiveness read from
/// the run's metrics snapshot. `null` when the run formed no cohorts
/// (event/hybrid entries, or a cohort run that never forked).
fn cohort_section(r: &CoAnalysisReport) -> String {
    let formed = r.metrics.counter("cohorts_formed");
    if formed == 0 {
        return "null".to_string();
    }
    let members = r.metrics.counter("cohort_member_paths");
    let spills = r.metrics.counter("cohort_lane_spills");
    // highest non-empty bucket of the occupancy histogram bounds the
    // largest cohort actually packed
    let max_occupancy = r
        .metrics
        .histograms
        .iter()
        .find(|h| h.name == "cohort_lane_occupancy")
        .map_or(0, |h| {
            h.counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, _)| h.bounds.get(i).copied().unwrap_or(64))
                .max()
                .unwrap_or(0)
        });
    format!(
        "{{ \"cohorts_formed\": {formed}, \"member_paths\": {members}, \
         \"mean_occupancy\": {:.2}, \"max_occupancy\": {max_occupancy}, \
         \"lane_spills\": {spills} }}",
        members as f64 / formed as f64,
    )
}

/// The per-entry `csm` section: which policy governed the run and what the
/// Conservative State Manager did with it — repository size, cover/widen
/// traffic, adaptive demotions, subsumption prunes, pre-split kills, and
/// constraint conflicts.
fn csm_section(r: &CoAnalysisReport, policy: CsmPolicy) -> String {
    format!(
        "{{ \"policy\": \"{}\", \"stored_states\": {}, \"distinct_pcs\": {}, \
         \"observations\": {}, \"covered\": {}, \"widenings\": {}, \
         \"policy_demotions\": {}, \"slots_pruned\": {}, \
         \"paths_killed_presplit\": {}, \"constraint_conflicts\": {} }}",
        policy.name(),
        r.metrics.gauge("csm_stored_states"),
        r.metrics.gauge("csm_distinct_pcs"),
        r.metrics.counter("csm_observations"),
        r.metrics.counter("csm_covered"),
        r.metrics.counter("csm_widenings"),
        r.csm_policy_demotions,
        r.csm_slots_pruned,
        r.paths_killed_presplit,
        r.csm_constraint_conflicts,
    )
}

/// The per-entry `provenance` section: first-exercise attribution counts
/// and coverage-convergence statistics. `null` for unattributed runs.
fn provenance_section(r: &CoAnalysisReport) -> String {
    let Some(p) = &r.provenance else {
        return "null".to_string();
    };
    let mut s = format!(
        "{{ \"attributed\": {}, \"reset\": {}, \"coverage_samples\": {}",
        p.attributed_count(),
        p.reset_count(),
        p.samples().len(),
    );
    if let Some(c) = p.convergence() {
        s.push_str(&format!(
            ", \"cycles_to_50\": {}, \"cycles_to_90\": {}, \"cycles_to_100\": {}, \
             \"paths_to_50\": {}, \"paths_to_90\": {}, \"paths_to_100\": {}",
            c.cycles_to_50,
            c.cycles_to_90,
            c.cycles_to_100,
            c.paths_to_50,
            c.paths_to_90,
            c.paths_to_100,
        ));
    }
    s.push_str(" }");
    s
}

fn entry(kind: CpuKind, bench: &str, mode: EvalMode, policy: CsmPolicy, run: &RunResult) -> String {
    let r = &run.report;
    let secs = r.wall_time.as_secs_f64().max(1e-9);
    let trace = match &run.trace {
        Some(t) => format!(
            "{{ \"events\": {}, \"dropped\": {}, \"bytes\": {} }}",
            t.events, t.dropped, t.bytes
        ),
        None => "null".to_string(),
    };
    format!(
        "    {{ \"cpu\": \"{}\", \"bench\": \"{}\", \"eval_mode\": \"{}\", \
         \"paths_created\": {}, \"paths_dropped\": {}, \"simulated_cycles\": {}, \
         \"batched_level_evals\": {}, \"event_evals\": {}, \"wall_seconds\": {:.6}, \
         \"cycles_per_sec\": {:.1}, \"paths_per_sec\": {:.1}, \"trace\": {trace}, \
         \"cohort\": {}, \"csm\": {}, \"provenance\": {}, \
         \"metrics\": {} }}",
        kind.name(),
        bench,
        mode.name(),
        r.paths_created,
        r.paths_dropped,
        r.simulated_cycles,
        r.batched_level_evals,
        r.event_evals,
        secs,
        r.simulated_cycles as f64 / secs,
        r.paths_simulated as f64 / secs,
        cohort_section(r),
        csm_section(r, policy),
        provenance_section(r),
        r.metrics.to_json_compact(),
    )
}

fn main() {
    let opts = parse_opts();

    if let Some((kind, bench)) = &opts.pair {
        let mode = opts.eval_mode.unwrap_or(EvalMode::Hybrid);
        info!(
            "bench",
            { cpu = kind.name(), bench = bench.as_str(), mode = mode.name() },
            "single-pair co-analysis: {} / {bench} ({})", kind.name(), mode.name()
        );
        let policy = opts.csm_policy.unwrap_or(CsmPolicy::SingleMerge);
        let run = run_mode(*kind, bench, mode, policy, &opts, true, opts.attribution);
        if let Some(t) = &run.trace {
            info!(
                "bench",
                { events = t.events, dropped = t.dropped, bytes = t.bytes },
                "wrote run trace ({} events, {} dropped, {} bytes)",
                t.events, t.dropped, t.bytes
            );
        }
        println!("{}", run.report.to_json());
        return;
    }

    if opts.smoke {
        let (kind, bench) = SMOKE;
        info!(
            "bench",
            "smoke: {} / {bench} in event, hybrid, and cohort modes...",
            kind.name()
        );
        let single = CsmPolicy::SingleMerge;
        let event = run_mode(kind, bench, EvalMode::Event, single, &opts, false, false).report;
        let hybrid = run_mode(kind, bench, EvalMode::Hybrid, single, &opts, false, false).report;
        assert_equivalent(kind, bench, &event, &hybrid, EvalMode::Hybrid);
        let cohort = run_mode(kind, bench, EvalMode::Cohort, single, &opts, false, false).report;
        assert_equivalent(kind, bench, &event, &cohort, EvalMode::Cohort);
        assert!(
            cohort.metrics.counter("cohorts_formed") > 0,
            "smoke: cohort mode never packed a lane cohort"
        );
        // the adaptive CSM may prune paths but must land on the identical
        // exercisable-gate verdict
        let adaptive = run_mode(
            kind,
            bench,
            EvalMode::Hybrid,
            CsmPolicy::adaptive(),
            &opts,
            false,
            false,
        )
        .report;
        assert_eq!(
            event.exercisable_gates, adaptive.exercisable_gates,
            "smoke: adaptive CSM changed the exercisable-gate result"
        );
        assert!(
            adaptive.paths_created <= event.paths_created,
            "smoke: adaptive CSM created more paths than single-merge"
        );
        // attribution must not perturb results, must attribute every
        // toggled net, and must cost nothing when off
        let attributed = run_mode(kind, bench, EvalMode::Event, single, &opts, false, true).report;
        assert_equivalent(kind, bench, &event, &attributed, EvalMode::Event);
        let prov = attributed
            .provenance
            .as_ref()
            .expect("smoke: attributed run yields no provenance");
        assert_eq!(
            prov.attributed_count(),
            attributed.profile.toggled_count(),
            "smoke: attribution missed toggled nets"
        );
        smoke_attribution_check(kind, bench, &event, &opts);
        smoke_ledger_check(kind, bench, &event, &opts);
        info!(
            "bench",
            { cycles = event.simulated_cycles, exercisable = event.exercisable_gates },
            "smoke ok: {} cycles, {} gates exercisable in all three modes",
            event.simulated_cycles, event.exercisable_gates
        );
        if opts.trace_out.is_some() {
            smoke_trace_check(kind, bench, &event, &opts);
        }
        return;
    }

    let mut entries = Vec::new();
    for (kind, bench) in RUNS {
        info!("bench", "co-analysis: {} / {bench} (event)...", kind.name());
        let single = CsmPolicy::SingleMerge;
        let event = run_mode(kind, bench, EvalMode::Event, single, &opts, true, false);
        info!(
            "bench",
            "co-analysis: {} / {bench} (hybrid)...",
            kind.name()
        );
        let hybrid = run_mode(kind, bench, EvalMode::Hybrid, single, &opts, true, false);
        assert_equivalent(kind, bench, &event.report, &hybrid.report, EvalMode::Hybrid);
        info!(
            "bench",
            "co-analysis: {} / {bench} (cohort)...",
            kind.name()
        );
        let cohort = run_mode(kind, bench, EvalMode::Cohort, single, &opts, true, false);
        assert_equivalent(kind, bench, &event.report, &cohort.report, EvalMode::Cohort);
        info!(
            "bench",
            "co-analysis: {} / {bench} (adaptive csm)...",
            kind.name()
        );
        // the adaptive leg is allowed — expected — to diverge on path counts:
        // pre-split subsumption kills sibling paths the single-merge CSM
        // would simulate. What it may never change is the verdict.
        let adaptive = run_mode(
            kind,
            bench,
            EvalMode::Hybrid,
            CsmPolicy::adaptive(),
            &opts,
            true,
            false,
        );
        assert_eq!(
            event.report.exercisable_gates,
            adaptive.report.exercisable_gates,
            "{}/{bench}: adaptive CSM changed the exercisable-gate result",
            kind.name()
        );
        if matches!(
            (kind, bench),
            (CpuKind::Bm32, "insort") | (CpuKind::Dr5, "binsearch")
        ) {
            let base = event.report.paths_created;
            let adapted = adaptive.report.paths_created;
            assert!(
                (adapted as f64) <= base as f64 * 0.85,
                "{}/{bench}: adaptive paths_created {adapted} is not >=15% below \
                 single-merge {base}",
                kind.name()
            );
        }
        info!(
            "bench",
            "co-analysis: {} / {bench} (event, attributed)...",
            kind.name()
        );
        // first-exercise attribution must not perturb the exploration and
        // must account for every net the toggle profile marks
        let attributed = run_mode(kind, bench, EvalMode::Event, single, &opts, false, true);
        assert_equivalent(
            kind,
            bench,
            &event.report,
            &attributed.report,
            EvalMode::Event,
        );
        let prov = attributed.report.provenance.as_ref().unwrap_or_else(|| {
            panic!(
                "{}/{bench}: attributed run yields no provenance",
                kind.name()
            )
        });
        assert_eq!(
            prov.attributed_count(),
            attributed.report.profile.toggled_count(),
            "{}/{bench}: attribution missed toggled nets",
            kind.name()
        );
        if let Some(c) = prov.convergence() {
            info!(
                "bench",
                "  {} / {bench}: {} nets attributed ({} at reset); 50/90/100% coverage \
                 after {}/{}/{} cycles, {}/{}/{} paths",
                kind.name(),
                prov.attributed_count(),
                prov.reset_count(),
                c.cycles_to_50,
                c.cycles_to_90,
                c.cycles_to_100,
                c.paths_to_50,
                c.paths_to_90,
                c.paths_to_100,
            );
        }
        let event_secs = event.report.wall_time.as_secs_f64().max(1e-9);
        let hybrid_secs = hybrid.report.wall_time.as_secs_f64().max(1e-9);
        let cohort_secs = cohort.report.wall_time.as_secs_f64().max(1e-9);
        info!(
            "bench",
            "  {} / {bench}: {:.1} -> {:.1} (hybrid, {:.2}x) -> {:.1} (cohort, {:.2}x) \
             cycles/sec",
            kind.name(),
            event.report.simulated_cycles as f64 / event_secs,
            hybrid.report.simulated_cycles as f64 / hybrid_secs,
            event_secs / hybrid_secs,
            cohort.report.simulated_cycles as f64 / cohort_secs,
            event_secs / cohort_secs,
        );
        info!(
            "bench",
            "  {} / {bench}: adaptive csm {} -> {} paths_created ({} killed pre-split, \
             {} demotions)",
            kind.name(),
            event.report.paths_created,
            adaptive.report.paths_created,
            adaptive.report.paths_killed_presplit,
            adaptive.report.csm_policy_demotions,
        );
        entries.push(entry(kind, bench, EvalMode::Event, single, &event));
        entries.push(entry(kind, bench, EvalMode::Hybrid, single, &hybrid));
        entries.push(entry(kind, bench, EvalMode::Cohort, single, &cohort));
        entries.push(entry(
            kind,
            bench,
            EvalMode::Hybrid,
            CsmPolicy::adaptive(),
            &adaptive,
        ));
        entries.push(entry(kind, bench, EvalMode::Event, single, &attributed));
    }
    let mut runs = String::new();
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            runs.push_str(",\n");
        }
        runs.push_str(e);
    }

    let snap = snapshot_cost();
    let env = symsim_obs::env_fingerprint(1).to_json();
    let json =
        format!("{{\n  \"runs\": [\n{runs}\n  ],\n  \"snapshot\": {snap},\n  \"env\": {env}\n}}\n");
    std::fs::write("BENCH_coanalysis.json", &json).expect("write BENCH_coanalysis.json");
    info!("bench", "wrote BENCH_coanalysis.json");
    print!("{json}");
}

/// The `--smoke --trace-out` check: best-of-3 untraced vs best-of-3 traced
/// hybrid runs of the smoke pair. Asserts the traced run reproduces the
/// reference results and records cleanly (events, no drops), and that the
/// untraced run stays within noise — tracing can only ever *add* work, so
/// an untraced run slower than the traced one beyond noise means the
/// dormant hooks are paying real hot-path cost.
fn smoke_trace_check(kind: CpuKind, bench: &str, reference: &CoAnalysisReport, opts: &Opts) {
    let best_of_3 = |traced: bool| {
        noise::best_of_3(|| {
            let run = run_mode(
                kind,
                bench,
                EvalMode::Hybrid,
                CsmPolicy::SingleMerge,
                opts,
                traced,
                false,
            );
            (run.report.wall_time, run)
        })
    };
    let (off_s, off_run) = best_of_3(false);
    let (on_s, on_run) = best_of_3(true);
    assert_equivalent(kind, bench, reference, &off_run.report, EvalMode::Hybrid);
    assert_equivalent(kind, bench, reference, &on_run.report, EvalMode::Hybrid);
    let stats = on_run.trace.expect("traced smoke run yields trace stats");
    assert!(stats.events > 0, "smoke trace recorded no events");
    assert_eq!(stats.dropped, 0, "smoke trace dropped records");
    noise::assert_within_noise("tracing-off vs traced smoke run", on_s, off_s);
    info!(
        "bench",
        { events = stats.events, bytes = stats.bytes },
        "smoke trace ok: best-of-3 {off_s:.3}s untraced vs {on_s:.3}s traced; \
         {} events / {} bytes",
        stats.events, stats.bytes
    );
}

/// The `--smoke` attribution-cost check: best-of-3 unattributed vs
/// best-of-3 attributed hybrid runs of the smoke pair. The attributed run
/// must reproduce the reference results; the attribution-off run must stay
/// within noise of the attributed one — the one-shot first-toggle hook is
/// behind an `Option` check, so with the flag off it must cost nothing
/// measurable.
fn smoke_attribution_check(kind: CpuKind, bench: &str, reference: &CoAnalysisReport, opts: &Opts) {
    let best_of_3 = |attribution: bool| {
        noise::best_of_3(|| {
            let run = run_mode(
                kind,
                bench,
                EvalMode::Hybrid,
                CsmPolicy::SingleMerge,
                opts,
                false,
                attribution,
            );
            (run.report.wall_time, run)
        })
    };
    let (off_s, off_run) = best_of_3(false);
    let (on_s, on_run) = best_of_3(true);
    assert_equivalent(kind, bench, reference, &off_run.report, EvalMode::Hybrid);
    assert_equivalent(kind, bench, reference, &on_run.report, EvalMode::Hybrid);
    let on_prov = on_run
        .report
        .provenance
        .as_ref()
        .expect("attributed smoke run yields provenance");
    assert!(
        off_run.report.provenance.is_none(),
        "unattributed run grew a provenance map"
    );
    noise::assert_within_noise("attribution-off vs attributed smoke run", on_s, off_s);
    info!(
        "bench",
        { attributed = on_prov.attributed_count() as u64 },
        "smoke attribution ok: best-of-3 {off_s:.3}s off vs {on_s:.3}s on; \
         {} nets attributed",
        on_prov.attributed_count()
    );
}

/// The `--smoke` ledger-cost check: best-of-3 ledger-off vs best-of-3
/// ledger-on hybrid runs of the smoke pair. The ledger record is built once
/// at report assembly and appended after the run, so the enabled run must
/// stay within the shared noise band of the disabled one. The three
/// appended records are then read back and the last is diffed against the
/// first two — a self-diff of identical runs must report no verdict drift.
fn smoke_ledger_check(kind: CpuKind, bench: &str, reference: &CoAnalysisReport, opts: &Opts) {
    let tmp =
        std::env::temp_dir().join(format!("symsim-smoke-ledger-{}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&tmp);
    let mut off_opts = opts.clone();
    off_opts.ledger = Some("off".into());
    let mut on_opts = opts.clone();
    on_opts.ledger = Some(tmp.to_string_lossy().into_owned());
    let best_of_3 = |o: &Opts| {
        noise::best_of_3(|| {
            let run = run_mode(
                kind,
                bench,
                EvalMode::Hybrid,
                CsmPolicy::SingleMerge,
                o,
                false,
                false,
            );
            (run.report.wall_time, run)
        })
    };
    let (off_s, off_run) = best_of_3(&off_opts);
    let (on_s, on_run) = best_of_3(&on_opts);
    assert_equivalent(kind, bench, reference, &off_run.report, EvalMode::Hybrid);
    assert_equivalent(kind, bench, reference, &on_run.report, EvalMode::Hybrid);
    // acceptance: ledger-enabled run within noise of the disabled run
    noise::assert_within_noise("ledger-on vs ledger-off smoke run", off_s, on_s);
    let entries = symsim_obs::ledger::read(&tmp).expect("read back the smoke ledger");
    assert_eq!(entries.len(), 3, "each ledger-on run appends one record");
    let baseline: Vec<&symsim_obs::LedgerEntry> = entries[..2].iter().collect();
    let diff = symsim_obs::ledger::compare(
        &entries[2],
        &baseline,
        &symsim_obs::ledger::DiffOpts::default(),
    );
    assert!(
        diff.verdict_drift.is_none(),
        "smoke: identical runs drifted in the ledger diff"
    );
    assert!(
        !diff.fingerprint_mismatch,
        "smoke: identical runs got different fingerprints"
    );
    let _ = std::fs::remove_file(&tmp);
    info!(
        "bench",
        "smoke ledger ok: best-of-3 {off_s:.3}s off vs {on_s:.3}s on; \
         3 records round-tripped, self-diff clean"
    );
}

/// Measures snapshot cost on the omsp16 core: bytes an eager memory copy
/// would move per fork versus the bytes copy-on-write actually clones
/// across one save + N restore/dirty cycles of the `div` benchmark's
/// exploration root.
fn snapshot_cost() -> String {
    let cpu = CpuKind::Omsp16.build();
    let bench = CpuKind::Omsp16.benchmark("div");
    let program = CpuKind::Omsp16.assemble(bench.source);
    let mut sim = symsim_sim::Simulator::new(&cpu.netlist, Default::default());
    cpu.prepare_symbolic(&mut sim, &program, &bench.data);
    sim.settle();
    let snapshot = sim.save_state();
    let eager_mem_bytes: usize = snapshot.mems.iter().map(MemArray::content_bytes).sum();

    const FORKS: u64 = 32;
    reset_cow_clone_stats();
    let start = Instant::now();
    for _ in 0..FORKS {
        sim.load_state(&snapshot);
        // a short segment dirties the pages a real child would
        sim.run(50);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let (pages, bytes) = cow_clone_stats();
    let per_fork = bytes / FORKS;
    format!(
        "{{ \"eager_mem_bytes\": {eager_mem_bytes}, \"cow_bytes_per_fork\": {per_fork}, \
         \"cow_pages_per_fork\": {:.2}, \"reduction_factor\": {:.1}, \
         \"owned_bytes_per_snapshot\": {}, \"fork_restore_per_sec\": {:.1} }}",
        pages as f64 / FORKS as f64,
        eager_mem_bytes as f64 / per_fork.max(1) as f64,
        snapshot.owned_bytes(),
        FORKS as f64 / elapsed.max(1e-9),
    )
}
