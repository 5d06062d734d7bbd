//! `symsim` — the command-line face of the design-agnostic symbolic
//! co-analysis tool. Mirrors the paper's user workflow (§3.2): hand the
//! tool a gate-level netlist, an application image, and a list of
//! control-flow signals to monitor; get back the exercisable-gate
//! dichotomy and, optionally, a bespoke netlist.
//!
//! ```text
//! symsim stats    design.v
//! symsim analyze  design.v --program app.hex --pc pc --finish finish \
//!                 --monitor control_signals.ini [options]
//! symsim bespoke  design.v --profile profile.txt --out bespoke.v
//! symsim simulate design.v --program app.hex --finish finish --cycles 10000
//! ```

#![forbid(unsafe_code)]

mod args;
mod commands;
mod files;
mod runs_cmd;
mod trace_cmd;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // routed through the trace layer so --log-format json keeps even
            // failures machine-parseable (one NDJSON line on stderr)
            symsim_obs::error!("symsim", "{e}");
            ExitCode::FAILURE
        }
    }
}
