//! Materializes one (cpu, benchmark) pair as the on-disk artifacts the
//! `symsim` CLI consumes — the bridge between the in-crate processor
//! builders and file-driven workflows (CI smoke runs, manual poking):
//!
//! ```text
//! cargo run --release -p symsim-bench --bin dump_pair -- \
//!     --pair omsp16/div --out work/
//! ```
//!
//! Writes into `--out`:
//!
//! * `design.v`     — the gate-level netlist as structural Verilog
//! * `program.hex`  — the assembled benchmark, one 32-bit word per line
//! * `monitor.ini`  — qualifier/signal/split lines (paper Listing 1 style)
//! * `analyze.flags` — the remaining `symsim analyze` flags for this pair
//!   (`--pc`, `--finish`, `--inputs`, `--data`, `--max-cycles`), one line,
//!   ready for shell substitution
//!
//! and prints the flags line to stdout.

#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;

use symsim_bench::CpuKind;

fn parse_cpu(name: &str) -> CpuKind {
    match name {
        "omsp16" => CpuKind::Omsp16,
        "bm32" => CpuKind::Bm32,
        "dr5" => CpuKind::Dr5,
        other => panic!("unknown cpu \"{other}\" (expected omsp16, bm32, or dr5)"),
    }
}

/// The bus base name of a net named like `pc[3]`.
fn base_name(name: &str) -> &str {
    name.split('[').next().unwrap_or(name)
}

fn main() {
    let mut pair: Option<(CpuKind, String)> = None;
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--pair" => {
                let spec = args.next().expect("--pair needs cpu/bench");
                let (cpu, bench) = spec
                    .split_once('/')
                    .unwrap_or_else(|| panic!("--pair expects cpu/bench, got \"{spec}\""));
                pair = Some((parse_cpu(cpu), bench.to_string()));
            }
            "--out" => out = Some(PathBuf::from(args.next().expect("--out needs a directory"))),
            other => panic!("unknown flag \"{other}\""),
        }
    }
    let (kind, bench_name) = pair.expect("usage: dump_pair --pair cpu/bench --out DIR");
    let dir = out.expect("usage: dump_pair --pair cpu/bench --out DIR");

    let cpu = kind.build();
    let bench = kind.benchmark(&bench_name);
    let program = kind.assemble(bench.source);
    fs::create_dir_all(&dir).expect("create --out directory");

    fs::write(
        dir.join("design.v"),
        symsim_verilog::write_netlist(&cpu.netlist),
    )
    .expect("write design.v");

    let hex: String = program.iter().map(|w| format!("{w:08x}\n")).collect();
    fs::write(dir.join("program.hex"), hex).expect("write program.hex");

    let nl = &cpu.netlist;
    let mut ini = format!(
        "# {}/{}: monitored control signals (paper Listing 1)\nqualifier {}\n",
        kind.name(),
        bench.name,
        nl.net_name(cpu.monitor_qualifier)
    );
    for &s in &cpu.monitor_signals {
        ini.push_str(&format!("signal {}\n", nl.net_name(s)));
    }
    if let Some(split) = &cpu.split_signals {
        for &s in split {
            ini.push_str(&format!("split {}\n", nl.net_name(s)));
        }
    }
    fs::write(dir.join("monitor.ini"), ini).expect("write monitor.ini");

    let mut flags = format!(
        "--pc {} --finish {} --max-cycles {}",
        base_name(nl.net_name(cpu.pc[0])),
        nl.net_name(cpu.finish),
        bench.max_cycles,
    );
    if !bench.data.inputs.is_empty() {
        let inputs: Vec<String> = bench.data.inputs.iter().map(ToString::to_string).collect();
        flags.push_str(&format!(" --inputs {}", inputs.join(",")));
    }
    if !bench.data.concrete.is_empty() {
        let data: Vec<String> = bench
            .data
            .concrete
            .iter()
            .map(|(a, v)| format!("{a}={v}"))
            .collect();
        flags.push_str(&format!(" --data {}", data.join(",")));
    }
    fs::write(dir.join("analyze.flags"), format!("{flags}\n")).expect("write analyze.flags");

    eprintln!(
        "dump_pair: wrote {}/{} ({} nets, {} program words) to {}",
        kind.name(),
        bench.name,
        nl.net_count(),
        program.len(),
        dir.display()
    );
    println!("{flags}");
}
