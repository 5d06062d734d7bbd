//! The three workloads. One pass runs every pair of a workload once,
//! through the program's public API, and checks every output.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use symsim_core::{fingerprint, CoAnalysis, CoAnalysisConfig, CoAnalysisReport};
use symsim_sim::{cow_clone_stats, HaltReason, SimConfig, Simulator};

use crate::hostref::HostRef;
use crate::pairs::{self, Expected, Pair};
use crate::trace::Tracer;

/// Host reference units timed after each pair, about 5 ms on a 2-vCPU
/// Xeon VM: a few percent of a pass.
const REF_UNITS_PER_PAIR: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 18 Table 3/4 pairs, analyzed as `symsim analyze` does, 1 worker.
    PaperMatrix,
    /// The seven fork-heavy pairs, symbolic co-analysis only, 2 workers.
    ForkHeavy2w,
    /// Seeded concrete inputs on all 18 pairs, checked against the ISS.
    ConcreteValidate,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperMatrix,
        Workload::ForkHeavy2w,
        Workload::ConcreteValidate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper-matrix",
            Workload::ForkHeavy2w => "fork-heavy-2w",
            Workload::ConcreteValidate => "concrete-validate",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn pairs(self) -> Vec<Pair> {
        match self {
            Workload::PaperMatrix | Workload::ConcreteValidate => pairs::matrix(),
            Workload::ForkHeavy2w => [
                "bm32/insort",
                "bm32/binsearch",
                "bm32/thold",
                "dr5/div",
                "dr5/insort",
                "dr5/binsearch",
                "dr5/thold",
            ]
            .iter()
            .map(|l| pairs::parse_pair(l).expect("fork-heavy pair is in the matrix"))
            .collect(),
        }
    }

    /// Worker threads the workload's co-analysis runs on, and so the
    /// threads of its host reference.
    pub fn workers(self) -> usize {
        match self {
            Workload::ForkHeavy2w => 2,
            Workload::PaperMatrix | Workload::ConcreteValidate => 1,
        }
    }

    /// Whether every count must repeat exactly across passes and runs.
    /// With two workers the exploration order, and so every path and CSM
    /// count, depends on thread timing; only the verdicts are fixed.
    pub fn exact_counts(self) -> bool {
        self != Workload::ForkHeavy2w
    }
}

/// A pair's verdict at the seed commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub digest: u64,
    pub exercisable_gates: usize,
    pub bespoke_gates: usize,
}

/// Parses `oracle.tsv`: `cpu/bench digest exercisable_gates bespoke_gates`
/// per line, `#` comments.
pub fn parse_oracle(text: &str) -> Result<BTreeMap<String, Verdict>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let [label, digest, ex, be] = f[..] else {
            return Err(format!("oracle line needs 4 fields: {line}"));
        };
        let num = |s: &str| s.parse::<usize>().map_err(|e| format!("{line}: {e}"));
        let verdict = Verdict {
            digest: u64::from_str_radix(digest, 16).map_err(|e| format!("{line}: {e}"))?,
            exercisable_gates: num(ex)?,
            bespoke_gates: num(be)?,
        };
        out.insert(label.to_string(), verdict);
    }
    Ok(out)
}

/// The inputs of one pair on `concrete-validate`, with the ISS's answers.
pub struct ConcreteCase {
    pub pair: Pair,
    pub inputs: Vec<Vec<u64>>,
    pub expected: Vec<Expected>,
}

impl ConcreteCase {
    /// Generates the seeded inputs and runs the golden ISS on each.
    pub fn new(seed: u64, pair: Pair) -> Result<ConcreteCase, String> {
        let bench = pair.kind.benchmark(pair.bench);
        let program = pair.kind.assemble(bench.source);
        let width = pair.kind.build().data_width;
        let inputs = pairs::gen_inputs(seed, pair, &bench, width);
        let expected = inputs
            .iter()
            .map(|input| {
                pairs::golden(pair.kind, &program, &bench, input)
                    .ok_or_else(|| format!("{}: ISS did not halt on input {input:?}", pair.label()))
            })
            .collect::<Result<_, _>>()?;
        Ok(ConcreteCase {
            pair,
            inputs,
            expected,
        })
    }
}

/// What a pass runs against: the pairs, the expected answers, and where
/// the ledger goes.
pub struct Ctx {
    pub workload: Workload,
    pub pairs: Vec<Pair>,
    pub oracle: BTreeMap<String, Verdict>,
    pub concrete: Vec<ConcreteCase>,
    pub ledger: PathBuf,
}

/// One pass's measurements.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds for the pass, checks included.
    pub elapsed: f64,
    /// Seconds in the benchmark's own correctness checks.
    pub checks: f64,
    /// Seconds in the host reference, run after each pair.
    pub ref_s: f64,
    /// Host reference units run.
    pub ref_units: u64,
    /// Seconds before the first analysis or simulation call, summed.
    pub setup: f64,
    /// `CoAnalysis::run` seconds summed over pairs that ran one path.
    pub single_path_run: f64,
    /// Operations (pairs or inputs) attempted.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Simulated cycles.
    pub cycles: u64,
    /// Paths simulated; on `concrete-validate`, inputs run (one path each).
    pub paths: u64,
    /// Bytes the ledger file holds after the pass.
    pub ledger_bytes: u64,
    /// Deterministic work counters, keyed by per-layer metric name.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Pass {
    /// Host seconds for the pass, setup included, checks and the host
    /// reference excluded.
    pub fn wall(&self) -> f64 {
        self.elapsed - self.checks - self.ref_s
    }

    /// Seconds one host reference unit took during the pass.
    pub fn ref_unit(&self) -> f64 {
        self.ref_s / self.ref_units as f64
    }

    /// Times the host reference after a pair.
    fn host_ref(&mut self, tr: &Tracer, id: u64, href: &mut HostRef) {
        self.ref_s += tr.span("bench.hostref", id, None, |_| href.run(REF_UNITS_PER_PAIR));
        self.ref_units += REF_UNITS_PER_PAIR as u64;
    }

    fn add(&mut self, name: &'static str, v: u64) {
        *self.counts.entry(name).or_insert(0) += v;
    }
}

pub fn run_pass(ctx: &Ctx, tr: &Tracer, href: &mut HostRef) -> Pass {
    // each pass appends to an empty ledger, so the append cost is the same
    // in every pass
    let _ = std::fs::remove_file(&ctx.ledger);
    let mut pass = match ctx.workload {
        Workload::PaperMatrix => symbolic_pass(ctx, tr, href, true),
        Workload::ForkHeavy2w => symbolic_pass(ctx, tr, href, false),
        Workload::ConcreteValidate => concrete_pass(ctx, tr, href),
    };
    pass.ledger_bytes = std::fs::metadata(&ctx.ledger).map_or(0, |m| m.len());
    pass
}

/// Co-analysis of every pair; with `full`, also bespoke generation and the
/// report JSON plus one ledger record, as `symsim analyze` does.
fn symbolic_pass(ctx: &Ctx, tr: &Tracer, href: &mut HostRef, full: bool) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    for (id, pair) in ctx.pairs.iter().enumerate() {
        let id = id as u64;
        let t_setup = Instant::now();
        let cpu = tr.span("cpu.build", id, None, |_| pair.kind.build());
        let bench = pair.kind.benchmark(pair.bench);
        let program = tr.span("cpu.assemble", id, None, |_| {
            pair.kind.assemble(bench.source)
        });
        let config = CoAnalysisConfig {
            max_cycles_per_segment: bench.max_cycles,
            workers: ctx.workload.workers(),
            ..CoAnalysisConfig::default()
        };
        let ledger_config = full.then(|| config.clone());
        let analysis = tr.span("core.new", id, None, |_| {
            CoAnalysis::new(&cpu.netlist, cpu.interface(), config)
        });
        let analysis = analysis.expect("the default configuration is valid");
        pass.setup += t_setup.elapsed().as_secs_f64();

        let prepare_calls = AtomicU64::new(0);
        let cow_before = cow_clone_stats().1;
        let t_run = Instant::now();
        let report = tr.span("core.run", id, None, |run| {
            analysis.run(|sim| {
                tr.span("core.prepare", id, run, |_| {
                    prepare_calls.fetch_add(1, Ordering::Relaxed);
                    cpu.prepare_symbolic(sim, &program, &bench.data);
                })
            })
        });
        let run_s = t_run.elapsed().as_secs_f64();
        let cow_bytes = cow_clone_stats().1 - cow_before;
        if report.paths_simulated == 1 {
            pass.single_path_run += run_s;
        }

        let mut bespoke_gates = None;
        let mut obs_error = None;
        if let Some(ledger_config) = ledger_config {
            let bespoke = tr.span("bespoke.generate", id, None, |_| {
                symsim_bespoke::generate(&cpu.netlist, &report.profile).report
            });
            pass.add(
                "bespoke.gates_removed",
                (bespoke.original_gates - bespoke.bespoke_gates) as u64,
            );
            bespoke_gates = Some(bespoke.bespoke_gates);
            obs_error = tr.span("obs.report", id, None, |_| {
                black_box(report.to_json());
                let record = report.ledger_record(
                    "bench",
                    &pair.label(),
                    fingerprint::design_fingerprint(&cpu.netlist),
                    fingerprint::program_fingerprint(&program),
                    &fingerprint::config_string(&ledger_config),
                );
                symsim_obs::ledger::append(&ctx.ledger, &record).err()
            });
        }

        let t_check = Instant::now();
        let failure = tr.span("bench.check", id, None, |_| {
            check_symbolic(ctx, pair, &report, bespoke_gates, obs_error)
        });
        pass.checks += t_check.elapsed().as_secs_f64();
        pass.attempted += 1;
        pass.failures.extend(failure);

        pass.cycles += report.simulated_cycles;
        pass.paths += report.paths_simulated as u64;
        add_report_counts(&mut pass, &report);
        pass.add("sim.cow_bytes", cow_bytes);
        pass.add("core.prepare_calls", prepare_calls.load(Ordering::Relaxed));
        pass.host_ref(tr, id, href);
    }
    pass.elapsed = start.elapsed().as_secs_f64();
    pass
}

fn add_report_counts(pass: &mut Pass, report: &CoAnalysisReport) {
    let m = &report.metrics;
    for (name, counter) in [
        ("sim.cycles", "cycles"),
        ("sim.event_evals", "event_evals"),
        ("sim.batched_level_evals", "batched_level_evals"),
        ("sim.forced_writes", "forced_writes"),
        ("sim.cohorts_formed", "cohorts_formed"),
        ("sim.cohort_lane_spills", "cohort_lane_spills"),
        ("core.paths_created", "paths_created"),
        ("core.paths_simulated", "paths_simulated"),
        ("core.paths_skipped", "paths_skipped"),
        ("core.paths_killed_presplit", "paths_killed_presplit"),
        ("csm.observations", "csm_observations"),
        ("csm.covered", "csm_covered"),
        ("csm.widenings", "csm_widenings"),
        ("csm.cover_checks_elided", "csm_cover_checks_elided"),
        ("sched.steals", "sched_steals"),
        ("sched.parks", "sched_parks"),
    ] {
        pass.add(name, m.counter(counter));
    }
    pass.add(
        "csm.stored_states",
        m.gauge("csm_stored_states").max(0) as u64,
    );
}

/// `None` when the pair's outputs are right, else what is wrong.
fn check_symbolic(
    ctx: &Ctx,
    pair: &Pair,
    report: &CoAnalysisReport,
    bespoke_gates: Option<usize>,
    obs_error: Option<String>,
) -> Option<String> {
    let label = pair.label();
    let Some(want) = ctx.oracle.get(&label) else {
        return Some(format!("{label}: no oracle entry"));
    };
    let mut wrong = Vec::new();
    if !report.converged() {
        wrong.push(format!(
            "did not converge ({} budget-exhausted, {} dropped)",
            report.paths_budget_exhausted, report.paths_dropped
        ));
    }
    if report.verdict_digest != want.digest {
        wrong.push(format!(
            "verdict digest {:016x}, expected {:016x}",
            report.verdict_digest, want.digest
        ));
    }
    if report.exercisable_gates != want.exercisable_gates {
        wrong.push(format!(
            "{} exercisable gates, expected {}",
            report.exercisable_gates, want.exercisable_gates
        ));
    }
    if let Some(got) = bespoke_gates.filter(|&g| g != want.bespoke_gates) {
        wrong.push(format!(
            "{got} bespoke gates, expected {}",
            want.bespoke_gates
        ));
    }
    if let Some(e) = obs_error {
        wrong.push(format!("ledger append failed: {e}"));
    }
    (!wrong.is_empty()).then(|| format!("{label}: {}", wrong.join("; ")))
}

/// Gate-level concrete simulation of every input, each from a fresh
/// post-construction snapshot, checked against the golden ISS.
fn concrete_pass(ctx: &Ctx, tr: &Tracer, href: &mut HostRef) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    for (pi, case) in ctx.concrete.iter().enumerate() {
        let pair = case.pair;
        let first_id = (pi * pairs::INPUTS_PER_PAIR) as u64;
        let t_setup = Instant::now();
        let cpu = tr.span("cpu.build", first_id, None, |_| pair.kind.build());
        let bench = pair.kind.benchmark(pair.bench);
        let program = tr.span("cpu.assemble", first_id, None, |_| {
            pair.kind.assemble(bench.source)
        });
        let mut sim = tr.span("sim.new", first_id, None, |_| {
            Simulator::new(&cpu.netlist, SimConfig::default())
        });
        sim.set_finish_net(cpu.finish);
        let fresh = tr.span("sim.save_state", first_id, None, |_| sim.save_state());
        pass.setup += t_setup.elapsed().as_secs_f64();

        for (j, (input, expected)) in case.inputs.iter().zip(&case.expected).enumerate() {
            let id = first_id + j as u64;
            let stats_before = sim.engine_stats();
            let cow_before = cow_clone_stats().1;
            tr.span("sim.load_state", id, None, |_| sim.load_state(&fresh));
            tr.span("sim.prepare", id, None, |_| {
                cpu.prepare_concrete(&mut sim, &program, &bench.data, input)
            });
            let cycle_before = sim.cycle();
            let halt = tr.span("sim.run", id, None, |_| sim.run(bench.max_cycles));
            let stats = sim.engine_stats();
            pass.cycles += sim.cycle() - cycle_before;
            pass.paths += 1;
            pass.add("sim.cycles", sim.cycle() - cycle_before);
            pass.add(
                "sim.event_evals",
                stats.event_evals - stats_before.event_evals,
            );
            pass.add(
                "sim.batched_level_evals",
                stats.batched_level_evals - stats_before.batched_level_evals,
            );
            pass.add(
                "sim.forced_writes",
                stats.forced_writes - stats_before.forced_writes,
            );
            pass.add("sim.cow_bytes", cow_clone_stats().1 - cow_before);

            let t_check = Instant::now();
            let failure = tr.span("bench.check", id, None, |_| {
                check_concrete(&cpu, &sim, &halt, expected)
                    .map(|e| format!("{} input {input:?}: {e}", pair.label()))
            });
            pass.checks += t_check.elapsed().as_secs_f64();
            pass.attempted += 1;
            pass.failures.extend(failure);
        }
        pass.host_ref(tr, first_id, href);
    }
    pass.elapsed = start.elapsed().as_secs_f64();
    pass
}

fn check_concrete(
    cpu: &symsim_cpu::Cpu,
    sim: &Simulator<'_>,
    halt: &HaltReason,
    want: &Expected,
) -> Option<String> {
    if *halt != HaltReason::Finished {
        return Some(format!("halted with {halt:?}, not Finished"));
    }
    if cpu.reg_nets.len() != want.regs.len() {
        return Some(format!(
            "{} registers, ISS has {}",
            cpu.reg_nets.len(),
            want.regs.len()
        ));
    }
    for (r, &w) in want.regs.iter().enumerate() {
        let got = cpu.read_reg(sim, r).to_u64();
        if got != Some(w) {
            return Some(format!("register {r} = {got:?}, ISS has {w:#x}"));
        }
    }
    for (a, &w) in want.mem.iter().enumerate() {
        let got = cpu.read_data(sim, a).to_u64();
        if got != Some(w) {
            return Some(format!("data word {a} = {got:?}, ISS has {w:#x}"));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_parses_and_rejects_short_lines() {
        let o = parse_oracle("# c\ndr5/div 00000000000000ff 10 9\n").unwrap();
        assert_eq!(
            o["dr5/div"],
            Verdict {
                digest: 255,
                exercisable_gates: 10,
                bespoke_gates: 9
            }
        );
        assert!(parse_oracle("dr5/div ff 10\n").is_err());
    }

    #[test]
    fn committed_oracle_covers_every_pair() {
        let o = parse_oracle(include_str!("../oracle.tsv")).unwrap();
        for p in pairs::matrix() {
            assert!(o.contains_key(&p.label()), "{}", p.label());
        }
        assert_eq!(o.len(), 18);
    }
}
