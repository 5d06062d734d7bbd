//! Regression tests for the batched evaluation kernel: every [`EvalMode`]
//! must produce identical values, snapshots, traces, and observer results —
//! the modes may only differ in *how* they evaluate, never in *what*.

use proptest::prelude::*;
use symsim_logic::{PropagationPolicy, Value, Word};
use symsim_netlist::{Bus, NetId, Netlist, RtlBuilder};
use symsim_sim::{EvalMode, SimConfig, SimState, Simulator};

/// A small datapath with some depth: an accumulator updated through an
/// add/xor mux, a memory written from the accumulator and read back at a
/// counter address, and a comparator — enough gate variety to fill
/// kind-sorted batches at several levels.
fn datapath() -> Netlist {
    let mut b = RtlBuilder::new("dp");
    let a_in = b.input("a", 8);
    let sel = b.input("sel", 1);
    let acc = b.reg("acc", 8, 1);
    let accq = acc.q.clone();
    let cnt = b.reg("cnt", 4, 0);
    let cntq = cnt.q.clone();
    let one4 = b.const_word(1, 4);
    let cnext = b.add(&cntq, &one4);
    b.drive_reg(cnt, &cnext);
    let sum = b.add(&accq, &a_in);
    let xored = b.xor(&accq, &a_in);
    let next = b.mux(sel.bit(0), &sum, &xored);
    b.drive_reg(acc, &next);
    let m = b.memory("ram", 16, 8);
    let one = b.one();
    b.mem_write(m, &cntq, &accq, one);
    let rdata = b.mem_read(m, &cntq);
    let hit = b.eq(&rdata, &accq);
    let hit_bus = Bus::from_nets(vec![hit]);
    b.output("hit", &hit_bus);
    b.output("acc_o", &accq);
    b.output("rdata_o", &rdata);
    b.finish().unwrap()
}

fn config(mode: EvalMode, trace: bool) -> SimConfig {
    SimConfig {
        eval_mode: mode,
        trace_events: trace,
        ..SimConfig::default()
    }
}

/// Drives the same stimulus (including `X` injections mid-run) under the
/// given configuration and returns the final quiescent snapshot plus the
/// event trace.
fn run_datapath(nl: &Netlist, config: SimConfig) -> (SimState, Vec<(u64, u32)>) {
    let mut sim = Simulator::new(nl, config);
    let a = sim.find_bus("a", 8).unwrap();
    let sel = nl.find_net("sel").unwrap();
    sim.poke_bus(&a, &Word::from_u64(0x5a, 8));
    sim.poke(sel, Value::ZERO);
    sim.settle();
    for cycle in 0..12u64 {
        if cycle == 4 {
            // unknown operand: X waves must propagate identically
            sim.poke(a[3], Value::X);
        }
        if cycle == 7 {
            sim.poke(sel, Value::X);
        }
        if cycle == 9 {
            sim.poke(a[3], Value::ONE);
            sim.poke(sel, Value::ONE);
        }
        sim.step_cycle();
    }
    let snap = sim.save_state();
    (snap, sim.take_event_trace())
}

#[test]
fn all_modes_reach_identical_states() {
    let nl = datapath();
    let (event, _) = run_datapath(&nl, config(EvalMode::Event, false));
    let (hybrid, _) = run_datapath(&nl, config(EvalMode::Hybrid, false));
    // at the Simulator level, cohort mode's scalar settles run the same
    // tape as hybrid (lane packing happens in the explorer)
    let (cohort, _) = run_datapath(&nl, config(EvalMode::Cohort, false));
    assert_eq!(event, hybrid, "hybrid mode diverged from event mode");
    assert_eq!(event, cohort, "cohort mode diverged from event mode");
}

#[test]
fn event_traces_identical_across_modes() {
    let nl = datapath();
    let (_, mut ev) = run_datapath(&nl, config(EvalMode::Event, true));
    let (_, mut ba) = run_datapath(&nl, config(EvalMode::Hybrid, true));
    assert!(!ev.is_empty(), "stimulus must produce events");
    // within a cycle the evaluation *order* is a scheduling artifact (LIFO
    // drain vs tape order); the set of changed nodes per cycle must match
    ev.sort_unstable();
    ba.sort_unstable();
    assert_eq!(ev, ba, "changed-node sets differ between modes");
}

#[test]
fn no_trace_pushes_when_tracing_off() {
    let nl = datapath();
    let (_, ev) = run_datapath(&nl, config(EvalMode::Event, false));
    let (_, ba) = run_datapath(&nl, config(EvalMode::Hybrid, false));
    assert!(ev.is_empty());
    assert!(ba.is_empty());
}

#[test]
fn batch_mode_actually_batches() {
    let nl = datapath();
    let mut sim = Simulator::new(&nl, config(EvalMode::Hybrid, false));
    sim.settle();
    assert!(
        sim.engine_stats().batched_level_evals > 0,
        "hybrid mode never ran a level tape"
    );

    let mut sim = Simulator::new(&nl, config(EvalMode::Event, false));
    sim.settle();
    let stats = sim.engine_stats();
    assert_eq!(
        stats.batched_level_evals, 0,
        "event mode must not run tapes"
    );
    assert!(stats.event_evals > 0);
}

#[test]
fn tagged_symbols_fall_back_to_scalar_lanes() {
    // s XOR s = 0 only holds when symbol identity survives — the planes
    // cannot represent symbols, so those lanes must use scalar evaluation
    let mut b = RtlBuilder::new("sym");
    let a = b.input("a", 1);
    let y = b.xor1(a.bit(0), a.bit(0));
    let n = b.not1(a.bit(0));
    let z = b.and1(y, n);
    b.output("y", &Bus::from_nets(vec![y]));
    b.output("z", &Bus::from_nets(vec![z]));
    let nl = b.finish().unwrap();
    for base in [
        config(EvalMode::Event, false),
        config(EvalMode::Hybrid, false),
        config(EvalMode::Cohort, false),
    ] {
        let mut sim = Simulator::new(
            &nl,
            SimConfig {
                policy: PropagationPolicy::Tagged,
                ..base
            },
        );
        sim.poke(nl.find_net("a").unwrap(), Value::symbol(5));
        sim.settle();
        assert_eq!(
            sim.read_net_by_name("y"),
            Some(Value::ZERO),
            "{}: s^s must simplify to 0 under the Tagged policy",
            base.eval_mode.name()
        );
        assert_eq!(
            sim.read_net_by_name("z"),
            Some(Value::ZERO),
            "{}: 0 & !s must be 0",
            base.eval_mode.name()
        );
    }
}

#[test]
fn snapshot_round_trip_preserves_batch_state() {
    // load_state must rebuild the packed planes: otherwise a batched settle
    // after a restore would read stale bits
    let nl = datapath();
    let mut sim = Simulator::new(&nl, config(EvalMode::Hybrid, false));
    let a = sim.find_bus("a", 8).unwrap();
    sim.poke_bus(&a, &Word::from_u64(0x33, 8));
    sim.poke(nl.find_net("sel").unwrap(), Value::ZERO);
    sim.settle();
    for _ in 0..3 {
        sim.step_cycle();
    }
    let snap = sim.save_state();
    for _ in 0..4 {
        sim.step_cycle();
    }
    sim.load_state(&snap);
    for _ in 0..4 {
        sim.step_cycle();
    }
    let replay = sim.save_state();

    let mut fresh = Simulator::new(&nl, config(EvalMode::Hybrid, false));
    let a = fresh.find_bus("a", 8).unwrap();
    fresh.poke_bus(&a, &Word::from_u64(0x33, 8));
    fresh.poke(nl.find_net("sel").unwrap(), Value::ZERO);
    fresh.settle();
    for _ in 0..7 {
        fresh.step_cycle();
    }
    assert_eq!(replay, fresh.save_state());
}

#[test]
fn poke_on_driven_net_agrees_across_modes() {
    // a poke on a gate's output holds until one of that gate's inputs
    // changes: the tape must not re-run the gate just because it ran last
    let mut b = RtlBuilder::new("poke");
    let a = b.input("a", 1);
    let c = b.input("c", 1);
    let y = b.and1(a.bit(0), c.bit(0));
    let ny = b.not1(y);
    b.output("ny", &Bus::from_nets(vec![ny]));
    let nl = b.finish().unwrap();
    for mode in [EvalMode::Event, EvalMode::Hybrid, EvalMode::Cohort] {
        let mut sim = Simulator::new(&nl, config(mode, false));
        sim.poke(a.bit(0), Value::ONE);
        sim.poke(c.bit(0), Value::ONE);
        sim.settle();
        assert_eq!(sim.read_net(y), Value::ONE, "{}", mode.name());
        sim.poke(y, Value::ZERO);
        sim.settle();
        assert_eq!(
            (sim.read_net(y), sim.read_net(ny)),
            (Value::ZERO, Value::ONE),
            "{}: the poke on y must hold",
            mode.name()
        );
    }
}

/// One stimulus step of the differential test. Net choices are raw draws
/// reduced modulo the candidate list when applied.
#[derive(Debug, Clone)]
enum Op {
    /// Poke any net (input, gate output, flip-flop, memory read data).
    Poke(usize, Value),
    /// Force a gate-output net.
    Force(usize, Value),
    ReleaseAll,
    Step,
}

/// `0`, `1`, `X`, `Z`, plus tagged symbols and their inversions under the
/// Tagged policy.
fn arb_value(tagged: bool) -> impl Strategy<Value = Value> {
    (0u32..if tagged { 12 } else { 4 }).prop_map(|i| match i {
        0..=3 => [Value::ZERO, Value::ONE, Value::X, Value::Z][i as usize],
        4..=7 => Value::symbol(i - 4),
        _ => Value::symbol_inverted(i - 8),
    })
}

fn arb_op(tagged: bool) -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<usize>(), arb_value(tagged)).prop_map(|(n, v)| Op::Poke(n, v)),
        (any::<usize>(), arb_value(tagged)).prop_map(|(n, v)| Op::Force(n, v)),
        Just(Op::ReleaseAll),
        Just(Op::Step),
        Just(Op::Step),
    ]
}

/// A random stimulus: the policy, the steps, and the step before which
/// the one save/load round trip happens.
fn arb_stimulus() -> impl Strategy<Value = (bool, Vec<Op>, usize)> {
    any::<bool>().prop_flat_map(|tagged| {
        (
            Just(tagged),
            prop::collection::vec(arb_op(tagged), 1..48),
            any::<usize>(),
        )
    })
}

/// Applies `ops` to `datapath()` under `mode` and returns the final
/// snapshot plus the sorted event trace.
fn drive(
    nl: &Netlist,
    mode: EvalMode,
    tagged: bool,
    ops: &[Op],
    rt: usize,
) -> (SimState, Vec<(u64, u32)>) {
    let policy = if tagged {
        PropagationPolicy::Tagged
    } else {
        PropagationPolicy::Anonymous
    };
    let mut sim = Simulator::new(
        nl,
        SimConfig {
            policy,
            ..config(mode, true)
        },
    );
    let gate_outs: Vec<NetId> = nl.gates().iter().map(|g| g.output).collect();
    let net = |n: usize| NetId((n % nl.net_count()) as u32);
    sim.settle();
    for (k, op) in ops.iter().enumerate() {
        if k == rt % ops.len() {
            sim.release_all();
            let snap = sim.save_state();
            sim.step_cycle();
            sim.load_state(&snap);
        }
        match *op {
            Op::Poke(n, v) => sim.poke(net(n), v),
            Op::Force(n, v) => sim.force(gate_outs[n % gate_outs.len()], v),
            Op::ReleaseAll => sim.release_all(),
            Op::Step => {
                sim.step_cycle();
            }
        }
    }
    sim.release_all();
    let snap = sim.save_state();
    let mut trace = sim.take_event_trace();
    trace.sort_unstable();
    (snap, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tape_mode_matches_event_mode_on_random_stimulus((tagged, ops, rt) in arb_stimulus()) {
        let nl = datapath();
        let event = drive(&nl, EvalMode::Event, tagged, &ops, rt);
        let tape = drive(&nl, EvalMode::Hybrid, tagged, &ops, rt);
        prop_assert_eq!(&event.0, &tape.0, "final snapshots differ");
        prop_assert_eq!(&event.1, &tape.1, "per-cycle event traces differ");
    }
}
