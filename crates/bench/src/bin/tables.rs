//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p symsim-bench --bin tables -- all
//! cargo run --release -p symsim-bench --bin tables -- table3 table4
//! ```

#![forbid(unsafe_code)]

use symsim_bench::{
    ext_table, fig3_ablation, fig4_ablation, fig5, fig6, power_table, scaling_table, sweep, table1,
    table2, table3, table4, validate,
};
use symsim_core::CoAnalysisConfig;

/// Every artifact this binary can regenerate.
const KNOWN: [&str; 13] = [
    "all",
    "table1",
    "table2",
    "table3",
    "table4",
    "fig5",
    "fig6",
    "fig3_ablation",
    "fig4_ablation",
    "validate",
    "power",
    "ext",
    "scaling",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for arg in &args {
        if !KNOWN.contains(&arg.as_str()) {
            eprintln!("unknown artifact \"{arg}\"; known: {}", KNOWN.join(" "));
            std::process::exit(2);
        }
    }
    let wants = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");

    if wants("table1") {
        println!("{}", table1());
    }
    if wants("table2") {
        println!("{}", table2());
    }

    let needs_sweep = ["table3", "table4", "fig5", "fig6"]
        .iter()
        .any(|t| wants(t));
    if needs_sweep {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(1);
        let config = CoAnalysisConfig {
            workers,
            ..CoAnalysisConfig::default()
        };
        eprintln!("running the 3 CPUs x 6 benchmarks sweep ({workers} workers)...");
        let results = sweep(&config);
        if wants("table3") {
            println!("{}", table3(&results));
        }
        if wants("table4") {
            println!("{}", table4(&results));
        }
        if wants("fig5") {
            println!("{}", fig5(&results));
        }
        if wants("fig6") {
            println!("{}", fig6(&results));
        }
        for r in &results {
            if !r.report.converged() {
                eprintln!(
                    "warning: {}/{} exhausted its cycle budget on {} paths",
                    r.cpu.name(),
                    r.bench,
                    r.report.paths_budget_exhausted
                );
            }
        }
    }

    if wants("fig3_ablation") {
        println!("{}", fig3_ablation());
    }
    if wants("fig4_ablation") {
        println!("{}", fig4_ablation());
    }
    if wants("validate") {
        println!("{}", validate());
    }
    if wants("power") {
        println!("{}", power_table());
    }
    if wants("ext") {
        println!("{}", ext_table());
    }
    if wants("scaling") {
        println!("{}", scaling_table());
    }
}
