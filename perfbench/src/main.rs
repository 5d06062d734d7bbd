//! The repository benchmark. One command runs one named workload for a
//! fixed time, checks every output, and prints every metric by name and
//! unit; the last line of standard output is one JSON object.
//!
//! ```text
//! perfbench --workload <paper-matrix|fork-heavy-2w|concrete-validate>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--pairs cpu/bench,...] [--passes n] [--inject wrong-digest|bad-iss]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from untraced passes.
//! `--trace 1` alternates untraced and traced passes and reports the
//! per-layer metrics. Times in the end-to-end metrics are in host
//! reference units (see [`hostref`]). See `README.md` beside this file.

mod hostref;
mod pairs;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use hostref::HostRef;
use trace::Tracer;
use workloads::{ConcreteCase, Ctx, Pass, Workload};

/// The end-to-end metrics, reported with `--trace 0`. A `ref` is one host
/// reference unit, timed beside the pass; `setup_s` is in reference units
/// too, converted to seconds at [`hostref::UNIT_SECONDS`] a unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("sim_cycles_per_ref", "1/ref"),
    ("paths_per_ref", "1/ref"),
    ("peak_rss_mb", "MB"),
];

/// The same times in host seconds, printed beside the end-to-end metrics
/// but not reported: they move with the host as much as with the program.
const HOST_SECONDS: [(&str, &str); 4] = [
    ("setup_host_s", "s"),
    ("wall_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("paths_per_s", "1/s"),
];

/// The per-layer metrics, reported with `--trace 1`. A metric of a layer
/// the workload makes no call into reads 0.
const PER_LAYER: [(&str, &str); 47] = [
    ("cpu.build_s", "s"),
    ("cpu.assemble_s", "s"),
    ("cpu.self_s", "s"),
    ("sim.new_s", "s"),
    ("sim.prepare_s", "s"),
    ("sim.load_state_s", "s"),
    ("sim.run_s", "s"),
    ("sim.self_s", "s"),
    ("sim.cycles", "count"),
    ("sim.event_evals", "count"),
    ("sim.batched_level_evals", "count"),
    ("sim.event_evals_per_cycle", "ratio"),
    ("sim.level_evals_per_cycle", "ratio"),
    ("sim.forced_writes", "count"),
    ("sim.cohorts_formed", "count"),
    ("sim.cohort_lane_spills", "count"),
    ("sim.cow_bytes", "bytes"),
    ("sim.cow_bytes_per_path", "bytes"),
    ("core.new_s", "s"),
    ("core.run_s", "s"),
    ("core.run_s.single_path", "s"),
    ("core.prepare_s", "s"),
    ("core.self_s", "s"),
    ("core.prepare_calls", "count"),
    ("core.paths_created", "count"),
    ("core.paths_simulated", "count"),
    ("core.paths_skipped", "count"),
    ("core.paths_killed_presplit", "count"),
    ("csm.observations", "count"),
    ("csm.covered", "count"),
    ("csm.widenings", "count"),
    ("csm.cover_checks_elided", "count"),
    ("csm.stored_states", "count"),
    ("csm.cover_ratio", "ratio"),
    ("sched.steals", "count"),
    ("sched.parks", "count"),
    ("sched.steals_per_path", "ratio"),
    ("bespoke.generate_s", "s"),
    ("bespoke.self_s", "s"),
    ("bespoke.gates_removed", "count"),
    ("obs.report_s", "s"),
    ("obs.self_s", "s"),
    ("obs.ledger_bytes", "bytes"),
    ("bench.check_s", "s"),
    ("trace.overhead", "ratio"),
    ("unattributed_share", "ratio"),
    ("host.ref_unit_ms", "ms"),
];

/// Untraced passes a run makes at least, so medians and the exact-count
/// check have something to compare.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    pairs: Option<String>,
    passes: Option<usize>,
    inject: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let mut take = |name: &str| flags.remove(name);
    let workload = take("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(&workload).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {workload}; one of {}", names.join(", "))
    })?;
    let num = |v: Option<String>, name: &str, default: &str| -> Result<f64, String> {
        let v = v.unwrap_or_else(|| default.to_string());
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| format!("--{name} {v}: not a non-negative number"))
    };
    let args = Args {
        workload,
        seed: take("seed")
            .unwrap_or_else(|| "1".into())
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: num(take("seconds"), "seconds", "10")?,
        trace: match take("trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(t) => return Err(format!("--trace {t}: 0 or 1")),
        },
        pairs: take("pairs"),
        passes: take("passes")
            .map(|p| p.parse().map_err(|e| format!("--passes: {e}")))
            .transpose()?,
        inject: take("inject"),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(args)
}

fn build_ctx(args: &Args, work_dir: &Path) -> Result<Ctx, String> {
    let mut pairs = args.workload.pairs();
    if let Some(list) = &args.pairs {
        let wanted: Vec<&str> = list.split(',').collect();
        if let Some(bad) = wanted
            .iter()
            .find(|w| !pairs.iter().any(|p| p.label() == **w))
        {
            return Err(format!(
                "--pairs: {bad} is not a pair of {}",
                args.workload.name()
            ));
        }
        pairs.retain(|p| wanted.contains(&p.label().as_str()));
    }
    let mut oracle = workloads::parse_oracle(include_str!("../oracle.tsv"))?;
    let concrete = if args.workload == Workload::ConcreteValidate {
        pairs
            .iter()
            .map(|&p| ConcreteCase::new(args.seed, p))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        Vec::new()
    };
    let mut ctx = Ctx {
        workload: args.workload,
        pairs,
        oracle: BTreeMap::new(),
        concrete,
        ledger: work_dir.join("ledger.ndjson"),
    };
    // deliberate faults, so a test can show that the checks fail
    match (args.inject.as_deref(), args.workload) {
        (None, _) => {}
        (Some("wrong-digest"), w) if w != Workload::ConcreteValidate => {
            let label = ctx.pairs[0].label();
            oracle.get_mut(&label).ok_or("no oracle entry")?.digest ^= 1;
        }
        (Some("bad-iss"), Workload::ConcreteValidate) => {
            ctx.concrete[0].expected[0].mem[0] ^= 1;
        }
        (Some(i), w) => return Err(format!("--inject {i} does not apply to {}", w.name())),
    }
    ctx.oracle = oracle;
    Ok(ctx)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// VmHWM of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics and the host-second ones, each the median over
/// the passes. `href_bytes`, which the host reference holds resident all
/// run, is taken off the peak RSS.
fn end_to_end(passes: &[Pass], href_bytes: usize) -> BTreeMap<&'static str, f64> {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(passes.iter().map(f).collect());
    let run = |p: &Pass| p.wall() - p.setup;
    BTreeMap::from([
        (
            "setup_s",
            per_pass(&|p| ratio(p.setup, p.ref_unit()) * hostref::UNIT_SECONDS),
        ),
        ("wall_ref", per_pass(&|p| ratio(p.wall(), p.ref_unit()))),
        (
            "sim_cycles_per_ref",
            per_pass(&|p| ratio(p.cycles as f64 * p.ref_unit(), run(p))),
        ),
        (
            "paths_per_ref",
            per_pass(&|p| ratio(p.paths as f64 * p.ref_unit(), run(p))),
        ),
        (
            "peak_rss_mb",
            peak_rss_mb() - href_bytes as f64 / (1024.0 * 1024.0),
        ),
        ("setup_host_s", per_pass(&|p| p.setup)),
        ("wall_s", per_pass(&|p| p.wall())),
        (
            "sim_cycles_per_s",
            per_pass(&|p| ratio(p.cycles as f64, run(p))),
        ),
        ("paths_per_s", per_pass(&|p| ratio(p.paths as f64, run(p)))),
    ])
}

/// One traced pass's per-layer values.
fn layer_values(pass: &Pass, spans: &BTreeMap<String, f64>) -> BTreeMap<&'static str, f64> {
    let count = |k: &str| pass.counts.get(k).copied().unwrap_or(0) as f64;
    let mut out = BTreeMap::new();
    for (name, unit) in PER_LAYER {
        let v = match name {
            "sim.event_evals_per_cycle" => ratio(count("sim.event_evals"), count("sim.cycles")),
            "sim.level_evals_per_cycle" => {
                ratio(count("sim.batched_level_evals"), count("sim.cycles"))
            }
            "sim.cow_bytes_per_path" => ratio(count("sim.cow_bytes"), pass.paths as f64),
            "csm.cover_ratio" => ratio(count("csm.covered"), count("csm.observations")),
            "sched.steals_per_path" => ratio(count("sched.steals"), pass.paths as f64),
            "core.run_s.single_path" => pass.single_path_run,
            "obs.ledger_bytes" => pass.ledger_bytes as f64,
            "unattributed_share" => 1.0 - ratio(spans["top_level_s"], pass.elapsed),
            "host.ref_unit_ms" => pass.ref_unit() * 1e3,
            "trace.overhead" => continue,
            _ if unit == "s" => spans.get(name).copied().unwrap_or(0.0),
            _ => count(name),
        };
        out.insert(name, v);
    }
    out
}

/// Checks that every count repeats exactly: across this run's passes, and
/// against the last run of the same binary, workload, seed and pairs,
/// recorded beside the binary. Returns what moved.
fn check_exact_counts(args: &Args, passes: &[&Pass], record_dir: &Path) -> Vec<String> {
    let render =
        |p: &Pass| -> String { p.counts.iter().map(|(k, v)| format!("{k}={v}\n")).collect() };
    let first = render(passes[0]);
    let mut moved: Vec<String> = passes[1..]
        .iter()
        .enumerate()
        .filter(|(_, p)| render(p) != first)
        .map(|(i, p)| {
            format!(
                "pass {} counts differ from pass 0: {}",
                i + 1,
                diff(&first, &render(p))
            )
        })
        .collect();
    let Some(exe_hash) = std::env::current_exe()
        .ok()
        .and_then(|e| std::fs::read(e).ok())
        .map(|b| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            h.write(&b);
            h.finish()
        })
    else {
        return moved;
    };
    let key = format!(
        "{}-seed{}-{}-{exe_hash:016x}.txt",
        args.workload.name(),
        args.seed,
        args.pairs.as_deref().unwrap_or("all").replace('/', "_"),
    );
    let path = record_dir.join(key);
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier != first => moved.push(format!(
            "counts differ from an earlier run ({}): {}",
            path.display(),
            diff(&earlier, &first)
        )),
        Ok(_) => {}
        Err(_) => {
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            let written = std::fs::create_dir_all(record_dir)
                .and_then(|_| std::fs::write(&tmp, &first))
                .and_then(|_| std::fs::rename(&tmp, &path));
            if let Err(e) = written {
                eprintln!("perfbench: cannot record counts at {}: {e}", path.display());
            }
        }
    }
    moved
}

fn diff(a: &str, b: &str) -> String {
    let a: Vec<&str> = a.lines().collect();
    let b: Vec<&str> = b.lines().collect();
    let changed: Vec<String> = a
        .iter()
        .zip(&b)
        .filter(|(x, y)| x != y)
        .map(|(x, y)| format!("{x} -> {y}"))
        .collect();
    if changed.is_empty() {
        format!("{} vs {} counters", a.len(), b.len())
    } else {
        changed.join(", ")
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // scratch space beside the binary, inside the build directory
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|e| e.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    let work_dir = exe_dir.join(format!("perfbench-tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let code = run(&args, &exe_dir, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    code
}

/// Measures in this process and prints its result.
fn run(args: &Args, exe_dir: &Path, work_dir: &Path) -> ExitCode {
    let ctx = match build_ctx(args, work_dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // the environment probes run once per process, as in any long-lived
    // caller; take them before timing
    let _ = symsim_obs::env_fingerprint(1);
    let mut href = HostRef::new(args.workload.workers());

    // a timed run first makes one pass that is checked but not timed, so
    // the allocator and caches are warm when timing starts
    let warmup: Vec<Pass> = match args.passes {
        Some(_) => Vec::new(),
        None => vec![workloads::run_pass(&ctx, &Tracer::off(), &mut href)],
    };
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, BTreeMap<String, f64>)> = Vec::new();
    let mut last_spans = Vec::new();
    let start = Instant::now();
    loop {
        let done = match args.passes {
            Some(n) => untraced.len() >= n,
            None => untraced.len() >= MIN_PASSES && start.elapsed().as_secs_f64() >= args.seconds,
        };
        if done {
            break;
        }
        untraced.push(workloads::run_pass(&ctx, &Tracer::off(), &mut href));
        if args.trace {
            let tr = Tracer::on();
            let pass = workloads::run_pass(&ctx, &tr, &mut href);
            let spans = tr.into_spans();
            traced.push((pass, trace::summarize(&spans)));
            last_spans = spans;
        }
    }

    let all: Vec<&Pass> = warmup
        .iter()
        .chain(&untraced)
        .chain(traced.iter().map(|(p, _)| p))
        .collect();
    let attempted: u64 = all.iter().map(|p| p.attempted).sum();
    let failures: Vec<&String> = all.iter().flat_map(|p| &p.failures).collect();
    let failed = failures.len() as u64;
    let moved = if args.workload.exact_counts() {
        check_exact_counts(args, &all, &exe_dir.join("perfbench-counts"))
    } else {
        Vec::new()
    };
    for f in failures.iter().take(20) {
        println!("FAILED {f}");
    }
    for m in &moved {
        println!("COUNT MOVED {m}");
    }
    let correct = failed == 0 && moved.is_empty();

    let w = args.workload.name();
    let untraced_e2e = end_to_end(&untraced, href.bytes());
    println!(
        "perfbench {w} seed {} {} untraced pass(es), {} traced, {} warm-up",
        args.seed,
        untraced.len(),
        traced.len(),
        warmup.len()
    );
    let per_pass = |f: &dyn Fn(&Pass) -> String| -> String {
        untraced.iter().map(f).collect::<Vec<_>>().join(" ")
    };
    println!(
        "{w} untraced pass wall_s: {}",
        per_pass(&|p| format!("{:.3}", p.wall()))
    );
    println!(
        "{w} untraced pass wall_ref: {}",
        per_pass(&|p| format!("{:.0}", ratio(p.wall(), p.ref_unit())))
    );
    for (name, unit) in END_TO_END.iter().chain(&HOST_SECONDS) {
        println!("{w} {name} = {} {unit}", untraced_e2e[name]);
    }
    println!(
        "{w} fail_ratio = {} ratio",
        ratio(failed as f64, attempted as f64)
    );

    if !args.workload.exact_counts() {
        let spread: Vec<String> = all[0]
            .counts
            .keys()
            .map(|k| {
                let vals = all.iter().map(|p| p.counts.get(k).copied().unwrap_or(0));
                format!(
                    "{k} {}..{}",
                    vals.clone().min().unwrap_or(0),
                    vals.max().unwrap_or(0)
                )
            })
            .collect();
        println!(
            "{w} count spread over {} passes: {}",
            all.len(),
            spread.join(", ")
        );
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let values: Vec<BTreeMap<&str, f64>> =
            traced.iter().map(|(p, s)| layer_values(p, s)).collect();
        let traced_wall = median(
            traced
                .iter()
                .map(|(p, _)| ratio(p.wall(), p.ref_unit()))
                .collect(),
        );
        let overhead = ratio(traced_wall, untraced_e2e["wall_ref"]) - 1.0;
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = if name == "trace.overhead" {
                    overhead
                } else {
                    median(values.iter().map(|m| m[name]).collect())
                };
                (name, v, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, untraced_e2e[name], unit))
            .collect()
    };
    if args.trace {
        for (name, v, unit) in &metrics {
            println!("{w} {name} = {v} {unit}");
        }
        let out = exe_dir.join(format!("perfbench-spans-{w}.ndjson"));
        match std::fs::write(&out, trace::to_ndjson(&last_spans)) {
            Ok(()) => eprintln!(
                "perfbench: spans of the last traced pass in {}",
                out.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", out.display()),
        }
    }
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
