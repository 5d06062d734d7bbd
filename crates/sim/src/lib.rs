//! # symsim-sim
//!
//! An event-driven, cycle-accurate, four-state gate-level simulator with the
//! *symbolic* extensions the DAC'22 paper adds to iverilog:
//!
//! * **Event regions** (paper Fig. 2): each simulated time step executes
//!   Active → Inactive → NBA → Monitor → **Symbolic** in order. The added
//!   Symbolic region monitors control-flow signals for `X`
//!   (`$monitor_x`), halts the simulation, and supports saving/restoring
//!   complete simulation state (`$initialize_state`).
//! * **State save/restore** ([`SimState`], [`Simulator::save_state`],
//!   [`Simulator::load_state`]): snapshots cover every net value, every
//!   memory word, and the cycle counter, and serialize to a compact binary
//!   form so path exploration can fork simulations (unlike `force`/`release`
//!   fault injection, no recompile or restart is needed).
//! * **Symbol propagation policies** (paper Fig. 4) via
//!   [`symsim_logic::PropagationPolicy`].
//! * **Toggle observation** ([`ToggleProfile`]): which nets ever changed or
//!   carried unknowns after reset — the raw material of the
//!   exercisable-gate dichotomy.
//! * **Memory X semantics**: reads/writes with unknown address bits merge
//!   conservatively over all matching words.
//! * A [`Testbench`] harness mirroring the paper's Listing 1.
//!
//! # Example
//!
//! ```
//! use symsim_netlist::RtlBuilder;
//! use symsim_logic::{Value, Word};
//! use symsim_sim::{SimConfig, Simulator};
//!
//! // q toggles every cycle
//! let mut b = RtlBuilder::new("t");
//! let r = b.reg("q", 1, 0);
//! let q = r.q.clone();
//! let d = b.not(&q);
//! b.drive_reg(r, &d);
//! b.output("out", &q);
//! let nl = b.finish().expect("valid");
//!
//! let mut sim = Simulator::new(&nl, SimConfig::default());
//! sim.settle();
//! assert_eq!(sim.read_net_by_name("out").and_then(Value::to_bool), Some(false));
//! sim.step_cycle();
//! assert_eq!(sim.read_net_by_name("out").and_then(Value::to_bool), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod engine;
pub mod fault;
mod observer;
mod state;
mod testbench;
mod vcd;

pub use activity::ActivityStats;
pub use engine::{
    CohortLaneEnd, EngineStats, EvalMode, HaltReason, MonitorSpec, PathCohort, Region, SimConfig,
    Simulator,
};
pub use observer::ToggleProfile;
pub use state::{
    cow_clone_stats, reset_cow_clone_stats, DecodeStateError, MemArray, SimState, PAGE_WORDS,
};
pub use testbench::{Testbench, TestbenchError};
pub use vcd::VcdWriter;
