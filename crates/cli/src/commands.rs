//! Subcommand implementations.

use std::fs;
use std::sync::Arc;
use std::time::Duration;

use symsim_core::{
    replay_witness, CoAnalysis, CoAnalysisConfig, CoAnalysisReport, CsmPolicy, DesignInterface,
    Witness,
};
use symsim_logic::Word;
use symsim_netlist::{Netlist, NetlistStats};
use symsim_obs::{
    info, tracefile, warn, Heartbeat, HeartbeatOut, Level, LogFormat, MetricsRegistry, TraceSink,
};
use symsim_sim::{EvalMode, HaltReason, MonitorSpec, SimConfig, Simulator, ToggleProfile};

use crate::args::Args;
use crate::files;

const USAGE: &str = "\
usage:
  symsim stats    <design.v>
  symsim lint     <design.v>
  symsim dot      <design.v> [--out graph.dot] [--profile profile.txt]
                  [--max-gates N]
  symsim analyze  <design.v> --program app.hex --pc <bus> --finish <net>
                  --monitor control_signals.ini
                  [--qualifier <net>] [--pmem pmem] [--dmem dmem]
                  [--inputs a,b,...] [--data a=v,...] [--constraints file]
                  [--csm-policy single|multi:N|adaptive] [--csm-max-states N]
                  [--csm-demote-widenings N] [--csm-demote-obs N]
                  [--workers N] [--max-cycles N]
                  [--max-paths N] [--profile-out profile.txt] [--power yes]
                  [--tagged yes] [--eval-mode event|hybrid|cohort]
                  [--attribution yes]
  symsim explain  <design.v> ... (same flags as analyze) [--net <net>]
                  [--witness-out witness.json]
                  (run with first-exercise attribution and print the chosen
                  net's provenance: winning path, cycle, fork lineage, and
                  the branch decisions that reach it; default --net is the
                  hardest-won net — the latest first-exercise cycle)
  symsim replay   <design.v> --witness witness.json
                  (re-execute a witness deterministically in event mode and
                  check the net toggles at the witnessed cycle; exits
                  nonzero when the replay does not reproduce the toggle)
  symsim bespoke  <design.v> --profile profile.txt [--out bespoke.v]
  symsim simulate <design.v> --program app.hex --finish <net>
                  [--cycles N] [--pmem pmem] [--dmem dmem] [--data a=v,...]
                  [--watch net,net,...] [--vcd out.vcd]
                  [--eval-mode event|hybrid|cohort]
  symsim fault    <design.v> --program app.hex [--cycles N]
                  [--pmem pmem] [--dmem dmem] [--data a=v,...]
                  [--max-faults N] [--observe net,net,...]
  symsim convert  <design.{v,blif}> --out <design.{v,blif}>
  symsim trace    summarize|lineage|hotspots|coverage|export-chrome
                  <run.trace> [--top N] [--max-lines N] [--out FILE]
  symsim runs     list|show|diff|regressions [--ledger FILE]
                  (query the persistent run ledger; see below)
                  runs list                 one line per recorded run
                  runs show [N|last]        full record N (1-based, default last)
                  runs diff [BASE] [CUR]    compare run CUR (default last)
                  [--against FILE]          against run BASE, or without BASE
                  [--mad-k K] [--rel PCT]   against the median of all earlier
                                            same-fingerprint runs; exits
                                            nonzero on verdict drift or a
                                            perf regression beyond the
                                            MAD noise band (K sigmas, PCT%
                                            relative floor); --against
                                            diffs against a baseline ledger
                                            file (e.g. the CI baseline)
                  runs regressions          diff every run against its
                                            predecessors; exits nonzero on
                                            verdict drift

a flag a command does not take is an error.
every command also accepts the observability flags:
  --log-level error|warn|info|debug|trace   (default info)
  --log-format pretty|json                  (default pretty; json makes
                                             diagnostics NDJSON and analyze
                                             print its report as JSON)
  --metrics-out FILE      (analyze) write the end-of-run metrics snapshot
  --ledger FILE|off       (analyze, explain) where to append the run-ledger
                          record (default $SYMSIM_LEDGER, else
                          .symsim/ledger.ndjson; off disables)
  --heartbeat-secs S      (analyze) emit NDJSON progress every S seconds
  --progress-out FILE     (analyze) heartbeat destination (default stderr)
  --trace-out FILE        (analyze, simulate) record an NDJSON run trace:
                          path forks/outcomes, CSM decisions, span and
                          phase timings — inspect with symsim trace

designs are read as BLIF when the file ends in .blif, else as structural
Verilog";

pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(USAGE.into());
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    let args = Args::parse(rest)?;
    init_obs(&args)?;
    type Command = fn(&Args) -> Result<(), String>;
    let (run, flags): (Command, &[&str]) = match cmd.as_str() {
        "stats" => (stats, &[]),
        "lint" => (lint_cmd, &[]),
        "dot" => (dot_cmd, &["max-gates profile out"]),
        "analyze" => (
            analyze,
            &[
                SETUP_FLAGS,
                COANALYSIS_FLAGS,
                "attribution metrics-out profile-out",
            ],
        ),
        "explain" => (explain, &[SETUP_FLAGS, COANALYSIS_FLAGS, "net witness-out"]),
        "replay" => (replay_cmd, &["witness"]),
        "bespoke" => (bespoke, &["profile out"]),
        "simulate" => (
            simulate,
            &[SETUP_FLAGS, "finish cycles eval-mode trace-out vcd watch"],
        ),
        "fault" => (fault_cmd, &[SETUP_FLAGS, "cycles max-faults observe"]),
        "convert" => (convert, &["out"]),
        "trace" => (crate::trace_cmd::trace_cmd, &["max-lines top out"]),
        "runs" => (crate::runs_cmd::runs_cmd, &["ledger mad-k rel against"]),
        other => return Err(format!("unknown command \"{other}\"\n{USAGE}")),
    };
    args.reject_unknown(cmd, &[flags, &["log-level log-format"]].concat())?;
    run(&args)
}

/// Flags of [`Setup::from_args`].
const SETUP_FLAGS: &str = "program pmem dmem data inputs";

/// Flags of [`run_coanalysis`] beyond [`SETUP_FLAGS`].
const COANALYSIS_FLAGS: &str = "monitor qualifier pc finish constraints tagged workers \
    eval-mode csm-policy policy csm-max-states csm-demote-widenings csm-demote-obs max-cycles \
    max-paths max-split power trace-out heartbeat-secs progress-out ledger";

/// Whether `--log-format json` is active (machine-parseable output mode).
fn json_mode(args: &Args) -> bool {
    args.get("log-format") == Some("json")
}

/// Installs the trace sink from `--log-level` / `--log-format` before the
/// command runs. Without the flags this matches the built-in default
/// (pretty, info, stderr), so diagnostics look unchanged.
fn init_obs(args: &Args) -> Result<(), String> {
    let level: Level = args
        .get("log-level")
        .unwrap_or("info")
        .parse()
        .map_err(|e| format!("--log-level: {e}"))?;
    let format: LogFormat = args
        .get("log-format")
        .unwrap_or("pretty")
        .parse()
        .map_err(|e| format!("--log-format: {e}"))?;
    symsim_obs::trace::init(level, format, None);
    Ok(())
}

/// Opens the `--trace-out` run-trace sink and installs it as the global
/// span target. Returns `None` (and installs nothing) without the flag.
fn start_trace(args: &Args, workers: usize) -> Result<Option<Arc<TraceSink>>, String> {
    let Some(path) = args.get("trace-out") else {
        return Ok(None);
    };
    let sink =
        TraceSink::to_file(path, workers).map_err(|e| format!("cannot create {path}: {e}"))?;
    tracefile::install_global(&sink);
    Ok(Some(sink))
}

/// Merges, flushes, and uninstalls the run-trace sink; logs its totals.
fn finish_trace(args: &Args, sink: Option<Arc<TraceSink>>) {
    let Some(sink) = sink else { return };
    tracefile::clear_global();
    let stats = sink.finish();
    let path = args.get("trace-out").unwrap_or("?");
    info!(
        "trace",
        { events = stats.events, dropped = stats.dropped, bytes = stats.bytes },
        "wrote run trace to {path} ({} events, {} dropped, {} bytes)",
        stats.events,
        stats.dropped,
        stats.bytes
    );
}

/// Starts the heartbeat thread when `--heartbeat-secs` is given; records go
/// to `--progress-out` or stderr.
fn start_heartbeat(
    args: &Args,
    registry: &Arc<MetricsRegistry>,
) -> Result<Option<Heartbeat>, String> {
    let secs = args.get_f64("heartbeat-secs", 0.0)?;
    if secs <= 0.0 {
        return Ok(None);
    }
    let out = match args.get("progress-out") {
        Some(path) => {
            let file = fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            HeartbeatOut::Writer(Box::new(std::io::BufWriter::new(file)))
        }
        None => HeartbeatOut::Stderr,
    };
    Ok(Some(Heartbeat::start(
        Arc::clone(registry),
        Duration::from_secs_f64(secs),
        out,
    )))
}

/// Reads a design in either supported format, selected by extension
/// (`.blif` → BLIF, anything else → structural Verilog).
fn read_design(path: &str) -> Result<Netlist, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let netlist = if path.ends_with(".blif") {
        symsim_verilog::parse_blif(&text).map_err(|e| format!("{path}: {e}"))?
    } else {
        symsim_verilog::parse_netlist(&text).map_err(|e| format!("{path}: {e}"))?
    };
    netlist
        .validate()
        .map_err(|e| format!("{path}: invalid netlist: {e}"))?;
    Ok(netlist)
}

fn load_netlist(args: &Args) -> Result<Netlist, String> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| format!("missing design file\n{USAGE}"))?;
    read_design(path)
}

fn stats(args: &Args) -> Result<(), String> {
    let netlist = load_netlist(args)?;
    print!("{}", NetlistStats::of(&netlist));
    Ok(())
}

fn lint_cmd(args: &Args) -> Result<(), String> {
    let netlist = load_netlist(args)?;
    let findings = symsim_netlist::lint::lint(&netlist);
    if findings.is_empty() {
        println!("{}: clean", netlist.name);
        return Ok(());
    }
    for finding in &findings {
        println!("warning: {finding}");
    }
    println!("{} finding(s)", findings.len());
    Ok(())
}

fn dot_cmd(args: &Args) -> Result<(), String> {
    let netlist = load_netlist(args)?;
    let mut options = symsim_netlist::dot::DotOptions {
        max_gates: args.get_usize("max-gates", 500)?,
        ..Default::default()
    };
    if let Some(path) = args.get("profile") {
        let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let profile = ToggleProfile::from_text(&text)?;
        if profile.len() != netlist.net_count() {
            return Err("profile does not match this design".into());
        }
        options
            .highlight_gates
            .extend(profile.exercisable_gates(&netlist));
    }
    let text = symsim_netlist::dot::to_dot(&netlist, &options);
    match args.get("out") {
        Some(path) => {
            fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            info!("dot", "wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Shared design/application setup for `analyze` and `simulate`.
struct Setup {
    program: Vec<u32>,
    pmem: usize,
    dmem: usize,
    dmem_width: usize,
    dmem_depth: usize,
    data: Vec<(usize, u64)>,
    inputs: Vec<usize>,
}

impl Setup {
    fn from_args(args: &Args, netlist: &Netlist) -> Result<Setup, String> {
        let program_path = args.require("program")?;
        let text = fs::read_to_string(program_path)
            .map_err(|e| format!("cannot read {program_path}: {e}"))?;
        let program = files::parse_program(&text)?;
        let pmem = files::resolve_memory(netlist, args.get("pmem").unwrap_or("pmem"))?;
        let dmem = files::resolve_memory(netlist, args.get("dmem").unwrap_or("dmem"))?;
        if program.len() > netlist.memories()[pmem].depth {
            return Err(format!(
                "program ({} words) exceeds program memory ({} words)",
                program.len(),
                netlist.memories()[pmem].depth
            ));
        }
        let dmem_depth = netlist.memories()[dmem].depth;
        let data = args
            .get("data")
            .map(files::parse_data_init)
            .transpose()?
            .unwrap_or_default();
        let inputs = args
            .get("inputs")
            .map(files::parse_addr_list)
            .transpose()?
            .unwrap_or_default();
        for &addr in data.iter().map(|(a, _)| a).chain(&inputs) {
            if addr >= dmem_depth {
                return Err(format!(
                    "data address {addr} is outside the {dmem_depth}-word data memory"
                ));
            }
        }
        Ok(Setup {
            program,
            pmem,
            dmem,
            dmem_width: netlist.memories()[dmem].width,
            dmem_depth,
            data,
            inputs,
        })
    }

    fn apply(&self, sim: &mut Simulator<'_>, symbolic_inputs: bool, tagged: bool) {
        for (i, &w) in self.program.iter().enumerate() {
            sim.write_mem_word(self.pmem, i, &Word::from_u64(w as u64, 32));
        }
        for a in 0..self.dmem_depth {
            sim.write_mem_word(self.dmem, a, &Word::from_u64(0, self.dmem_width));
        }
        for &(a, v) in &self.data {
            sim.write_mem_word(self.dmem, a, &Word::from_u64(v, self.dmem_width));
        }
        if symbolic_inputs {
            let mut next_id = 0u32;
            for &a in &self.inputs {
                let word = if tagged {
                    let w = Word::symbols(next_id, self.dmem_width);
                    next_id += self.dmem_width as u32;
                    w
                } else {
                    Word::xs(self.dmem_width)
                };
                sim.write_mem_word(self.dmem, a, &word);
            }
        }
    }
}

fn parse_eval_mode(spec: Option<&str>) -> Result<EvalMode, String> {
    match spec {
        None => Ok(EvalMode::default()),
        Some(s) => s.parse().map_err(|e| format!("--eval-mode: {e}")),
    }
}

fn parse_policy(args: &Args) -> Result<CsmPolicy, String> {
    // --csm-policy is the canonical spelling; --policy remains an alias
    let spec = args.get("csm-policy").or_else(|| args.get("policy"));
    match spec {
        None | Some("single") => Ok(CsmPolicy::SingleMerge),
        Some("adaptive") => {
            let CsmPolicy::Adaptive {
                max_states,
                demote_widenings,
                demote_observations,
            } = CsmPolicy::adaptive()
            else {
                unreachable!("CsmPolicy::adaptive() is the Adaptive variant")
            };
            Ok(CsmPolicy::Adaptive {
                max_states: args.get_usize("csm-max-states", max_states)?.max(1),
                demote_widenings: args
                    .get_usize("csm-demote-widenings", demote_widenings)?
                    .max(1),
                demote_observations: args
                    .get_usize("csm-demote-obs", demote_observations)?
                    .max(1),
            })
        }
        Some(multi) => {
            let n = multi
                .strip_prefix("multi:")
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| {
                    format!("--csm-policy: expected single, multi:N, or adaptive, got \"{multi}\"")
                })?;
            Ok(CsmPolicy::MultiState { max_states: n })
        }
    }
}

/// The shared co-analysis run behind `analyze` and `explain`: builds the
/// design interface and configuration from the flags, runs the exploration
/// (with first-exercise attribution when `attribution` is set), and returns
/// the report after tearing down the heartbeat and trace sink.
fn run_coanalysis(
    args: &Args,
    netlist: &Netlist,
    attribution: bool,
) -> Result<CoAnalysisReport, String> {
    let setup = Setup::from_args(args, netlist)?;

    let monitor_path = args.require("monitor")?;
    let monitor_text =
        fs::read_to_string(monitor_path).map_err(|e| format!("cannot read {monitor_path}: {e}"))?;
    let monitor = files::parse_monitor_file(&monitor_text)?;
    let qualifier = match args
        .get("qualifier")
        .map(String::from)
        .or(monitor.qualifier.clone())
    {
        Some(name) => Some(files::resolve_net(netlist, &name)?),
        None => None,
    };
    let signals = monitor
        .signals
        .iter()
        .map(|s| files::resolve_net(netlist, s))
        .collect::<Result<Vec<_>, _>>()?;
    let split_signals = if monitor.split.is_empty() {
        None
    } else {
        Some(
            monitor
                .split
                .iter()
                .map(|s| files::resolve_net(netlist, s))
                .collect::<Result<Vec<_>, _>>()?,
        )
    };
    let iface = DesignInterface {
        pc: files::resolve_bus(netlist, args.require("pc")?)?,
        monitor: MonitorSpec { qualifier, signals },
        split_signals,
        finish: files::resolve_net(netlist, args.require("finish")?)?,
    };

    let constraints = match args.get("constraints") {
        None => Vec::new(),
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            files::parse_constraints(&text, netlist)?
        }
    };

    // --tagged yes: inputs become identified symbols and gates simplify on
    // recombination (paper Fig. 4 left)
    let tagged = args.get("tagged").is_some();
    let workers = args.get_usize("workers", 1)?.max(1);
    let registry = Arc::new(MetricsRegistry::new(workers));
    let trace_sink = start_trace(args, workers)?;
    let config = CoAnalysisConfig {
        sim: SimConfig {
            policy: if tagged {
                symsim_logic::PropagationPolicy::Tagged
            } else {
                symsim_logic::PropagationPolicy::Anonymous
            },
            eval_mode: parse_eval_mode(args.get("eval-mode"))?,
            attribution,
            ..SimConfig::default()
        },
        policy: parse_policy(args)?,
        constraints,
        max_cycles_per_segment: args.get_u64("max-cycles", 200_000)?,
        max_paths: args.get_usize("max-paths", 100_000)?,
        max_split_signals: args.get_usize("max-split", 6)?,
        workers,
        activity_weights: if args.get("power").is_some() {
            Some(symsim_power::switching_weights(netlist))
        } else {
            None
        },
        metrics: Some(Arc::clone(&registry)),
        trace: trace_sink.clone(),
    };

    // run identity, taken while the netlist/program/config are all in hand
    // (the config is consumed by CoAnalysis::new below)
    let design_fp = symsim_core::fingerprint::design_fingerprint(netlist);
    let program_fp = symsim_core::fingerprint::program_fingerprint(&setup.program);
    let config_str = symsim_core::fingerprint::config_string(&config);
    let label = format!(
        "{}/{}",
        netlist.name,
        std::path::Path::new(args.get("program").unwrap_or("?"))
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("?")
    );

    let heartbeat = start_heartbeat(args, &registry)?;
    let analysis = CoAnalysis::new(netlist, iface, config)?;
    let report = analysis.run(|sim| setup.apply(sim, true, tagged));
    if let Some(hb) = heartbeat {
        hb.stop();
    }
    finish_trace(args, trace_sink);

    // append to the persistent run ledger (--ledger FILE|off, else
    // $SYMSIM_LEDGER, else .symsim/ledger.ndjson); a ledger failure warns
    // but never fails the analysis that just succeeded
    if let Some(path) = symsim_obs::ledger::resolve_path(args.get("ledger")) {
        let record = report.ledger_record("analyze", &label, design_fp, program_fp, &config_str);
        match symsim_obs::ledger::append(&path, &record) {
            Ok(()) => info!("ledger", "appended run record to {}", path.display()),
            Err(e) => warn!("ledger", "cannot append run record: {e}"),
        }
    }
    Ok(report)
}

fn analyze(args: &Args) -> Result<(), String> {
    let netlist = load_netlist(args)?;
    let report = run_coanalysis(args, &netlist, args.get("attribution").is_some())?;

    if json_mode(args) {
        println!("{}", report.to_json());
    } else {
        println!("{report}");
        println!(
            "paths: {} dropped by the path cap; evals: {} batched-level, {} event",
            report.paths_dropped, report.batched_level_evals, report.event_evals
        );
        if let Some(p) = &report.provenance {
            match p.convergence() {
                Some(c) => println!(
                    "provenance: {} nets attributed ({} at reset); 50/90/100% coverage \
                     after {}/{}/{} cycles",
                    p.attributed_count(),
                    p.reset_count(),
                    c.cycles_to_50,
                    c.cycles_to_90,
                    c.cycles_to_100
                ),
                None => println!(
                    "provenance: {} nets attributed ({} at reset)",
                    p.attributed_count(),
                    p.reset_count()
                ),
            }
        }
    }
    if !report.converged() {
        warn!(
            "analyze",
            { budget_exhausted = report.paths_budget_exhausted, dropped = report.paths_dropped },
            "{} paths exhausted the cycle budget — raise --max-cycles",
            report.paths_budget_exhausted
        );
    }
    if let Some(power) = symsim_power::PowerReport::from_report(&report) {
        let slack = symsim_power::timing_slack(&netlist, &report.profile);
        if json_mode(args) {
            info!("analyze.power", "power: {power}");
            info!(
                "analyze.timing",
                { exercised_depth = slack.exercised_depth, design_depth = slack.design_depth },
                "exercised depth {} of {} levels", slack.exercised_depth, slack.design_depth
            );
        } else {
            println!("power: {power}");
            println!(
                "timing: exercised depth {} of {} levels ({:.0}% headroom)",
                slack.exercised_depth,
                slack.design_depth,
                slack.headroom() * 100.0
            );
        }
    }
    if let Some(out) = args.get("metrics-out") {
        fs::write(out, report.metrics.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
        info!("analyze", "wrote metrics snapshot to {out}");
    }
    if let Some(out) = args.get("profile-out") {
        fs::write(out, report.profile.to_text()).map_err(|e| format!("cannot write {out}: {e}"))?;
        info!("analyze", "wrote activity profile to {out}");
    }
    Ok(())
}

/// Runs the co-analysis with first-exercise attribution and prints one
/// net's provenance: the winning `(path, cycle, fork PC)`, the full fork
/// lineage with its forced branch decisions, and the replay prescription.
/// Defaults to the hardest-won net (latest first-exercise cycle).
fn explain(args: &Args) -> Result<(), String> {
    let netlist = load_netlist(args)?;
    let report = run_coanalysis(args, &netlist, true)?;
    let prov = report
        .provenance
        .as_ref()
        .ok_or("attributed run produced no provenance map")?;
    let attribution = match args.get("net") {
        Some(name) => {
            let net = files::resolve_net(&netlist, name)?;
            prov.attribution(net).ok_or_else(|| {
                format!("net \"{name}\" never toggles: it is unexercisable under this application")
            })?
        }
        None => prov
            .deepest()
            .ok_or("no nets were attributed — nothing to explain")?,
    };
    let net_name = netlist.net_name(attribution.net);

    println!(
        "{}: net {} (id {}) is first exercised at cycle {} by path {} (fork {})",
        prov.design(),
        net_name,
        attribution.net.0,
        attribution.cycle,
        attribution.path,
        attribution.pc
    );
    if attribution.reset {
        println!("  reset attribution: the net was already unknown when the observer armed");
    }
    let hops = prov
        .lineage(attribution.path)
        .ok_or("winning path has no recorded fork lineage")?;
    println!("  lineage ({} hops):", hops.len());
    for hop in &hops {
        let forces: Vec<String> = hop
            .forces
            .iter()
            .map(|&(net, bit)| format!("{}={}", netlist.net_name(net), u8::from(bit)))
            .collect();
        if forces.is_empty() {
            println!("    path {} @ {}", hop.path, hop.pc);
        } else {
            println!(
                "    path {} @ {} forcing {}",
                hop.path,
                hop.pc,
                forces.join(", ")
            );
        }
    }
    let witness = prov
        .witness(attribution.net, net_name)
        .ok_or("cannot extract a witness for the attributed net")?;
    println!(
        "  prescription: load the fork snapshot (cycle {}), force {} signal(s), \
         run to cycle {}",
        witness.snapshot.cycle,
        witness.forces.len(),
        witness.cycle
    );
    if let Some(out) = args.get("witness-out") {
        let mut text = witness.to_json();
        text.push('\n');
        fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
        info!("explain", "wrote witness to {out}");
    }
    Ok(())
}

/// Replays a witness produced by `explain --witness-out` against the design
/// and fails unless the net re-toggles at the witnessed cycle.
fn replay_cmd(args: &Args) -> Result<(), String> {
    let netlist = load_netlist(args)?;
    let path = args.require("witness")?;
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let witness = Witness::from_json(text.trim()).map_err(|e| format!("{path}: {e}"))?;
    let result = replay_witness(&netlist, &witness)?;
    println!(
        "replay {} (net {} \"{}\", {}): {}",
        witness.design,
        witness.net.0,
        witness.net_name,
        if witness.reset { "reset" } else { "toggle" },
        result
    );
    if result.ok() {
        Ok(())
    } else {
        Err(format!("replay did not reproduce the witness: {result}"))
    }
}

fn bespoke(args: &Args) -> Result<(), String> {
    let netlist = load_netlist(args)?;
    let profile_path = args.require("profile")?;
    let text =
        fs::read_to_string(profile_path).map_err(|e| format!("cannot read {profile_path}: {e}"))?;
    let profile = ToggleProfile::from_text(&text)?;
    if profile.len() != netlist.net_count() {
        return Err(format!(
            "profile covers {} nets but the design has {}",
            profile.len(),
            netlist.net_count()
        ));
    }
    let result = symsim_bespoke::generate(&netlist, &profile);
    println!(
        "bespoke: {} -> {} gates ({:.2}% reduction), area {:.0} -> {:.0}",
        result.report.original_gates,
        result.report.bespoke_gates,
        result.report.reduction_percent(),
        result.report.original_area,
        result.report.bespoke_area
    );
    if let Some(out) = args.get("out") {
        fs::write(out, symsim_verilog::write_netlist(&result.netlist))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        info!("bespoke", "wrote bespoke netlist to {out}");
    }
    Ok(())
}

fn simulate(args: &Args) -> Result<(), String> {
    let netlist = load_netlist(args)?;
    let setup = Setup::from_args(args, &netlist)?;
    let finish = files::resolve_net(&netlist, args.require("finish")?)?;
    let cycles = args.get_u64("cycles", 100_000)?;

    let trace_sink = start_trace(args, 1)?;
    if let Some(sink) = &trace_sink {
        sink.emit_meta(&netlist.name, 1);
    }
    let sim_config = SimConfig {
        eval_mode: parse_eval_mode(args.get("eval-mode"))?,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&netlist, sim_config);
    setup.apply(&mut sim, false, false);
    for &inp in netlist.inputs() {
        sim.poke(inp, symsim_logic::Value::ZERO);
    }
    sim.set_finish_net(finish);
    sim.settle();
    let run_span = symsim_obs::trace::span("simulate");
    let reason = if let Some(vcd_path) = args.get("vcd") {
        // waveform-enabled run: sample the watched nets every cycle
        let watch_nets: Vec<_> = match args.get("watch") {
            Some(watch) => {
                let mut nets = Vec::new();
                for name in watch.split(',').filter(|s| !s.trim().is_empty()) {
                    nets.extend(files::resolve_bus(&netlist, name.trim())?);
                }
                nets
            }
            None => netlist.outputs().to_vec(),
        };
        let file =
            fs::File::create(vcd_path).map_err(|e| format!("cannot create {vcd_path}: {e}"))?;
        let mut writer = std::io::BufWriter::new(file);
        let mut vcd = symsim_sim::VcdWriter::new(&mut writer, &netlist, &watch_nets)
            .map_err(|e| format!("vcd: {e}"))?;
        let mut reason = HaltReason::MaxCycles;
        for _ in 0..cycles {
            vcd.sample(&sim).map_err(|e| format!("vcd: {e}"))?;
            if let Some(r) = sim.step_cycle() {
                reason = r;
                break;
            }
        }
        info!("simulate", "wrote waveform to {vcd_path}");
        reason
    } else {
        sim.run(cycles)
    };
    drop(run_span);
    finish_trace(args, trace_sink);
    match reason {
        HaltReason::Finished => println!("finished after {} cycles", sim.cycle()),
        other => println!("stopped ({other:?}) after {} cycles", sim.cycle()),
    }
    if let Some(watch) = args.get("watch") {
        for name in watch.split(',').filter(|s| !s.trim().is_empty()) {
            let bus = files::resolve_bus(&netlist, name.trim())?;
            println!("{name} = {}", sim.read_bus(&bus));
        }
    }
    Ok(())
}

/// Converts between the supported netlist formats (by output extension).
fn convert(args: &Args) -> Result<(), String> {
    let netlist = load_netlist(args)?;
    let out = args.require("out")?;
    let text = if out.ends_with(".blif") {
        symsim_verilog::write_blif(&netlist).map_err(|e| e.to_string())?
    } else {
        symsim_verilog::write_netlist(&netlist)
    };
    fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
    info!(
        "convert",
        { gates = netlist.gate_count(), dffs = netlist.dff_count() },
        "wrote {out} ({} gates, {} flip-flops)",
        netlist.gate_count(),
        netlist.dff_count()
    );
    Ok(())
}

/// Fault grading: run the application as the test stimulus and measure
/// which stuck-at faults it detects at the observed nets.
fn fault_cmd(args: &Args) -> Result<(), String> {
    let netlist = load_netlist(args)?;
    let setup = Setup::from_args(args, &netlist)?;
    let cycles = args.get_u64("cycles", 2_000)?;
    let max_faults = args.get_usize("max-faults", 2_000)?;

    let mut sim = Simulator::new(&netlist, SimConfig::default());
    setup.apply(&mut sim, false, false);
    for &inp in netlist.inputs() {
        sim.poke(inp, symsim_logic::Value::ZERO);
    }
    sim.settle();

    let mut faults = symsim_sim::fault::all_output_faults(&netlist);
    if faults.len() > max_faults {
        // deterministic thinning keeps the sample spread across the design
        let stride = faults.len().div_ceil(max_faults);
        faults = faults.into_iter().step_by(stride).collect();
        info!(
            "fault",
            { graded = faults.len() },
            "grading a deterministic sample of {} faults (--max-faults)",
            faults.len()
        );
    }
    let report = symsim_sim::fault::grade(&mut sim, &faults, cycles, |_, _| {});
    println!(
        "fault coverage: {:.2}% ({} detected / {} graded) over {} cycles; {} simulated cycles total",
        report.coverage_percent(),
        report.detected,
        report.detected + report.undetected.len(),
        cycles,
        report.simulated_cycles
    );
    if let Some(spec) = args.get("observe") {
        // informational: show the observed nets' fault-free final values
        for name in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let bus = files::resolve_bus(&netlist, name.trim())?;
            println!("{name} = {}", sim.read_bus(&bus));
        }
    }
    for fault in report.undetected.iter().take(10) {
        println!(
            "undetected: {} stuck-at-{}",
            netlist.net_name(fault.net),
            u8::from(fault.stuck_at_one)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_on_no_command() {
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&["frobnicate".into()]).is_err());
    }

    #[test]
    fn policy_parsing() {
        let parse = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            parse_policy(&Args::parse(&argv).unwrap())
        };
        assert_eq!(parse(&[]).unwrap(), CsmPolicy::SingleMerge);
        assert_eq!(
            parse(&["--csm-policy", "single"]).unwrap(),
            CsmPolicy::SingleMerge
        );
        assert_eq!(
            parse(&["--csm-policy", "multi:3"]).unwrap(),
            CsmPolicy::MultiState { max_states: 3 }
        );
        // --policy stays as a compatible alias
        assert_eq!(
            parse(&["--policy", "multi:2"]).unwrap(),
            CsmPolicy::MultiState { max_states: 2 }
        );
        assert_eq!(
            parse(&["--csm-policy", "adaptive"]).unwrap(),
            CsmPolicy::adaptive()
        );
        assert_eq!(
            parse(&[
                "--csm-policy",
                "adaptive",
                "--csm-max-states",
                "6",
                "--csm-demote-widenings",
                "3",
                "--csm-demote-obs",
                "9",
            ])
            .unwrap(),
            CsmPolicy::Adaptive {
                max_states: 6,
                demote_widenings: 3,
                demote_observations: 9
            }
        );
        assert!(parse(&["--csm-policy", "weird"]).is_err());
        assert!(parse(&["--csm-policy", "adaptive", "--csm-max-states", "x"]).is_err());
    }

    #[test]
    fn eval_mode_parsing() {
        assert_eq!(parse_eval_mode(None).unwrap(), EvalMode::default());
        assert_eq!(parse_eval_mode(Some("event")).unwrap(), EvalMode::Event);
        assert_eq!(parse_eval_mode(Some("hybrid")).unwrap(), EvalMode::Hybrid);
        assert_eq!(parse_eval_mode(Some("cohort")).unwrap(), EvalMode::Cohort);
        // the removed batch and compiled modes are rejected like any typo
        for removed in ["batch", "compiled", "turbo"] {
            let err = parse_eval_mode(Some(removed)).unwrap_err();
            assert!(err.contains("expected event, hybrid, or cohort"), "{err}");
        }
    }
}
