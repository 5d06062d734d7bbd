use std::collections::HashMap;

use symsim_logic::{ops, plane, plane::Lanes, PropagationPolicy, Value, Word};
use symsim_netlist::{CellKind, CombNode, Driver, NetId, Netlist};

use crate::activity::ActivityStats;
use crate::observer::ToggleProfile;
use crate::state::{MemArray, SimState};

mod cohort;

pub use cohort::{CohortLaneEnd, PathCohort};

/// How the Active region propagates values (see [`Simulator::settle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvalMode {
    /// Pure event-driven: only dirty nodes are evaluated, one at a time.
    Event,
    /// Event-driven below the activity threshold, batched above it
    /// (the default: dense propagation waves — reset, clock edges — run
    /// packed, sparse ripples stay event-driven).
    #[default]
    Hybrid,
    /// Path-cohort evaluation: the explorer packs up to 64 sibling paths
    /// forked from one snapshot into the lane dimension and settles them
    /// together (see [`PathCohort`]). Scalar segments (the root path, and
    /// any lane spilled out of a cohort) run exactly like [`EvalMode::
    /// Hybrid`]; reports stay bit-identical to event mode.
    Cohort,
}

impl EvalMode {
    /// The CLI spelling of this mode.
    pub fn name(self) -> &'static str {
        match self {
            EvalMode::Event => "event",
            EvalMode::Hybrid => "hybrid",
            EvalMode::Cohort => "cohort",
        }
    }
}

impl std::str::FromStr for EvalMode {
    type Err = String;

    fn from_str(s: &str) -> Result<EvalMode, String> {
        match s {
            "event" => Ok(EvalMode::Event),
            "hybrid" => Ok(EvalMode::Hybrid),
            "cohort" => Ok(EvalMode::Cohort),
            other => Err(format!(
                "expected event, hybrid, or cohort, got \"{other}\""
            )),
        }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// How unknowns propagate through gates (paper Fig. 4).
    pub policy: PropagationPolicy,
    /// Maximum number of unknown address bits enumerated on a memory
    /// access before the whole array is conservatively merged.
    pub max_addr_enum_bits: u32,
    /// Record the evaluation-event trace (used by the baseline-equivalence
    /// regression check of paper §5.0.1).
    pub trace_events: bool,
    /// Active-region dispatch: event-driven, hybrid, or cohort.
    /// All modes produce identical values, traces, and observer results;
    /// they differ only in evaluation strategy.
    pub eval_mode: EvalMode,
    /// Hybrid-mode activity threshold in percent: a level runs its batched
    /// tape when at least this share of its nodes have pending events.
    /// `0` batches every level with a pending event;
    /// `100` requires a fully dirty level.
    pub batch_threshold_pct: u8,
    /// Time settle and its batch/event dispatch paths (nanosecond fields in
    /// [`EngineStats`]). Off by default: no timestamps are taken on the hot
    /// path unless a profiler or trace sink asked for them.
    pub profile_phases: bool,
    /// First-exercise attribution: when the toggle observer is armed, also
    /// record the *cycle* of each net's first toggle since the last drain
    /// (see [`Simulator::take_first_toggles`]). Off by default: the
    /// dormant branch costs one `Option` check already paid by the profile
    /// itself, and no per-net buffer is allocated.
    pub attribution: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            policy: PropagationPolicy::Anonymous,
            max_addr_enum_bits: 10,
            trace_events: false,
            eval_mode: EvalMode::default(),
            // measured sweet spot on the omsp16/bm32/dr5 benchmarks: the
            // batched tape wins even at low dirty fractions because lean
            // write-back makes a skipped batch nearly free
            batch_threshold_pct: 5,
            profile_phases: false,
            attribution: false,
        }
    }
}

/// Per-segment first-toggle buffer (see [`SimConfig::attribution`]): for
/// each net, the cycle of its first [`Simulator::mark_toggled`] since the
/// last drain (`u64::MAX` = untouched), plus the touched-net list so a
/// drain is O(touched), not O(nets).
#[derive(Debug)]
struct AttrBuf {
    first: Vec<u64>,
    touched: Vec<u32>,
}

/// A `$monitor_x` registration: halt when any of `signals` is unknown,
/// optionally only while `qualifier` is asserted.
///
/// The qualifier models "at a PC-changing instruction": for the evaluation
/// CPUs it is the `is_branch` decode output, and `signals` are the
/// branch-condition nets (NZCV flags for openMSP430, comparator outputs for
/// bm32/dr5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorSpec {
    /// Only check while this net is 1 (an unknown qualifier also halts).
    pub qualifier: Option<NetId>,
    /// The control-flow signals to watch for `X`.
    pub signals: Vec<NetId>,
}

/// Why the simulation stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HaltReason {
    /// A monitored control-flow signal went unknown (Symbolic region halt).
    MonitorX {
        /// The monitored nets that were unknown at the halt point.
        signals: Vec<NetId>,
    },
    /// The finish net was asserted (the application ran to completion).
    Finished,
    /// The cycle budget was exhausted without halting.
    MaxCycles,
}

/// The five event regions of a time step (paper Fig. 2). `Symbolic` is the
/// region this work adds to iverilog; it executes strictly last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Gate evaluations and value propagation.
    Active,
    /// `#0`-delayed events (always empty in this cycle-accurate model).
    Inactive,
    /// Non-blocking assignments: flip-flop and memory commits.
    Nba,
    /// `$monitor`-style observation (toggle profile, waveforms).
    Monitor,
    /// The added region: `$monitor_x` checks, halt, save/restore.
    Symbolic,
}

/// Execution order of the regions within one time step.
pub(crate) const REGION_ORDER: [Region; 5] = [
    Region::Nba,
    Region::Active,
    Region::Inactive,
    Region::Monitor,
    Region::Symbolic,
];

/// A compiled memory write port: the nets to sample at the clock edge,
/// resolved once in [`Simulator::new`] so the cycle loop never walks the
/// netlist structures.
#[derive(Debug)]
struct WritePortDesc {
    mem: u32,
    addr: Vec<NetId>,
    data: Vec<NetId>,
    we: NetId,
}

/// Per-cycle write-port sample; the `Word` buffers are allocated once and
/// refilled in place every clock edge.
#[derive(Debug)]
struct WritePortSample {
    addr: Word,
    data: Word,
    we: Value,
}

/// Up to 64 gates of one level, evaluated by one word-op per gate kind
/// present over bit-packed planes. Lanes are kind-sorted, so `kinds` is a
/// short run-length list of `(kind, lane mask)` segments — full 64-lane
/// occupancy amortizes the per-batch dispatch far better than one batch
/// per (level, kind) would.
///
/// `node` holds the comb-node index per lane (for event traces and the
/// scalar fallback), `out` the output net per lane. The batch's operand
/// planes live in [`Simulator::packed`] (4 [`PackedOp`]s per batch).
#[derive(Debug)]
struct GateBatch {
    kinds: Vec<(CellKind, u64)>,
    node: Vec<u32>,
    out: Vec<u32>,
}

/// One packed batch operand: 64 lanes of two bitplanes plus an inexact
/// mask (`sym`) marking lanes whose scalar value the planes cannot
/// represent — tagged symbols and high-impedance `Z`.
///
/// These are *caches maintained event-style*: whenever a net's value
/// changes, [`Simulator::update_packed`] patches the one bit of every
/// operand reading that net (the subscriber list is compiled next to the
/// fanout map). Running a batch therefore needs no gather at all — it is
/// a handful of word-ops plus a change-mask-driven write-back.
#[derive(Debug, Default, Clone, Copy)]
struct PackedOp {
    val: u64,
    unk: u64,
    sym: u64,
}

impl PackedOp {
    #[inline]
    fn lanes(self) -> Lanes {
        Lanes {
            val: self.val,
            unk: self.unk,
        }
    }
}

/// The compiled instruction tape of one logic level: a contiguous range of
/// kind-sorted [`GateBatch`]es in [`Simulator::batches`], plus the level's
/// total comb-node count (the denominator of the hybrid activity
/// threshold). Memory-read nodes stay scalar — their conservative-merge
/// semantics are not plane-packable.
#[derive(Debug, Default, Clone, Copy)]
struct LevelTape {
    first_batch: u32,
    batch_count: u32,
    node_count: usize,
}

/// One subscription of a net to a batch operand bit:
/// `batch << 8 | operand << 6 | lane`, where operand 0-2 are the input
/// pins and [`SUB_OUT`] is the output plane.
type PackedSub = u32;

const SUB_OUT: u32 = 3;

/// [`Simulator::batch_dirty`] bit: a node of the batch was scheduled
/// event-style (its level's dirty bucket is complete, so the level may
/// still drain event-by-event below the activity threshold).
const DIRTY_SCHED: u8 = 1;
/// [`Simulator::batch_dirty`] bit: an operand changed via the batched
/// write-back, which skips per-node scheduling — the level's bucket is
/// incomplete and the level *must* run its tape.
const DIRTY_LEAN: u8 = 2;

/// Buckets of [`EngineStats::dirty_pct_hist`]: ten deciles (`0-9 %` …
/// `90-99 %`) plus the exactly-100% bucket. The layout matches
/// `symsim_obs`'s `dirty_fraction_pct` histogram, so the explorer can fold
/// the counts in bucket-for-bucket.
pub const DIRTY_PCT_BUCKETS: usize = 11;

/// Per-simulator evaluation statistics since construction — plain counters
/// a worker drains into the shared metrics registry once at the end of its
/// exploration (see [`Simulator::engine_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Level tapes run by the batched kernel.
    pub batched_level_evals: u64,
    /// Scalar node evaluations (event-driven gates, memory reads, and
    /// symbolic-lane fallbacks).
    pub event_evals: u64,
    /// Evaluation writes overridden by an active force (path steering).
    pub forced_writes: u64,
    /// Histogram of the dirty fraction (percent of nodes with pending
    /// events) of each dispatched level, bucketed `min(pct / 10, 10)`.
    pub dirty_pct_hist: [u64; DIRTY_PCT_BUCKETS],
    /// Wall time inside [`Simulator::settle`], ns. Zero unless
    /// [`SimConfig::profile_phases`] is set.
    pub settle_ns: u64,
    /// Wall time of batched level-tape dispatches within settle, ns. Zero
    /// unless [`SimConfig::profile_phases`] is set.
    pub batch_eval_ns: u64,
    /// Wall time of scalar event-driven drains within settle, ns. Zero
    /// unless [`SimConfig::profile_phases`] is set.
    pub event_eval_ns: u64,
}

/// The event-driven gate-level simulator.
///
/// One instance simulates one design; [`Simulator::load_state`] re-targets
/// it to any previously saved [`SimState`], which is how path exploration
/// forks execution without recompiling or restarting (paper §2, §3).
#[derive(Debug)]
pub struct Simulator<'n> {
    netlist: &'n Netlist,
    config: SimConfig,
    // compiled structure
    nodes: Vec<CombNode>,
    level: Vec<u32>,
    max_level: u32,
    // net -> node indices reading it, flattened CSR: the reader list of
    // net `n` is `fanout_list[fanout_start[n]..fanout_start[n + 1]]`
    fanout_start: Vec<u32>,
    fanout_list: Vec<u32>,
    driver_node: Vec<Option<u32>>,  // net -> producing comb node
    mem_readers: Vec<Vec<u32>>,     // memory -> its read-port node indices
    dff_pairs: Vec<(NetId, NetId)>, // (q, d) sample order, fixed at compile
    write_ports: Vec<WritePortDesc>,
    tapes: Vec<LevelTape>,   // per-level ranges into `batches`
    batches: Vec<GateBatch>, // all gate batches, level-major
    packed: Vec<PackedOp>,   // 4 operand planes per batch, flat
    node_batch: Vec<u32>,    // node -> owning batch (u32::MAX for MemReads)
    batch_dirty: Vec<u8>,    // batch -> DIRTY_SCHED | DIRTY_LEAN bits
    // net -> its memory-read readers only (CSR like `fanout_*`): the one
    // fanout class the batched write-back must still schedule explicitly
    memread_fanout_start: Vec<u32>,
    memread_fanout_list: Vec<u32>,
    // net -> batch operand bits mirroring it (see `PackedSub`), flattened
    // CSR like `fanout_*`; only maintained when `maintain_packed` (batch
    // dispatch is possible)
    subs_start: Vec<u32>,
    subs_list: Vec<PackedSub>,
    maintain_packed: bool,
    // mutable simulation state
    values: Vec<Value>,
    mems: Vec<MemArray>,
    cycle: u64,
    // lazily computed conservative merge of *all* words of each memory,
    // serving reads whose address is fully unknown (AddrSet::All)
    mem_all_merge: Vec<Option<Word>>,
    // scheduling
    dirty: Vec<Vec<u32>>, // buckets by level
    in_queue: Vec<bool>,
    // dispatch statistics: batched tape runs vs scalar node evaluations,
    // force-overridden eval writes, and the dirty-fraction decile histogram
    // (see `EngineStats`) — plain fields, not atomics: each simulator is
    // single-threaded and the explorer drains them into the shared metrics
    // registry once per worker, keeping the hot loop free of shared writes
    batched_level_evals: u64,
    event_evals: u64,
    forced_writes: u64,
    dirty_pct_hist: [u64; DIRTY_PCT_BUCKETS],
    // phase-profiler accumulators (ns); written only when
    // `config.profile_phases` — the default hot path takes no timestamps
    settle_ns: u64,
    batch_eval_ns: u64,
    event_eval_ns: u64,
    // per-cycle scratch, reused so the clock loop allocates nothing
    dff_scratch: Vec<Value>,
    wp_scratch: Vec<WritePortSample>,
    // symbolic extensions; `forced` mirrors the force map's keys as a
    // bitmap so the per-change hot paths never hash on the common
    // (unforced) case
    forces: HashMap<u32, Value>,
    forced: Vec<bool>,
    monitors: Vec<MonitorSpec>,
    finish_net: Option<NetId>,
    profile: Option<ToggleProfile>,
    activity: Option<ActivityStats>,
    attr: Option<AttrBuf>,
    event_trace: Vec<(u64, u32)>,
    region_trace: Vec<(u64, Region)>,
    trace_regions: bool,
}

impl<'n> Simulator<'n> {
    /// Compiles `netlist` for simulation. All nets power up `X`, flip-flops
    /// take their `init` values, memories are all-`X`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle (run
    /// [`Netlist::validate`] first for a `Result`).
    pub fn new(netlist: &'n Netlist, config: SimConfig) -> Simulator<'n> {
        // stable node indexing: comb_nodes() order; levels from the netlist
        let level = netlist
            .comb_levels()
            .expect("netlist has a combinational cycle");
        let max_level = level.iter().copied().max().unwrap_or(0);
        let nodes = netlist.comb_nodes();
        let index_of: HashMap<CombNode, u32> = nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as u32))
            .collect();

        let drivers = netlist.drivers();
        let driver_node: Vec<Option<u32>> = drivers
            .iter()
            .map(|d| match d {
                Some(Driver::Gate(g)) => index_of.get(&CombNode::Gate(*g)).copied(),
                Some(Driver::MemoryRead { mem, port }) => index_of
                    .get(&CombNode::MemRead {
                        mem: *mem,
                        port: *port,
                    })
                    .copied(),
                _ => None,
            })
            .collect();

        let (tapes, batches, node_batch, packed_subs) =
            compile_tapes(netlist, &nodes, &level, max_level);
        let (subs_start, subs_list) = flatten_csr(&packed_subs);

        let fanout: Vec<Vec<u32>> = netlist
            .fanout_map()
            .into_iter()
            .map(|nodes_reading| nodes_reading.into_iter().map(|n| index_of[&n]).collect())
            .collect();
        let (fanout_start, fanout_list) = flatten_csr(&fanout);
        let memread_fanout: Vec<Vec<u32>> = fanout
            .iter()
            .map(|readers| {
                readers
                    .iter()
                    .copied()
                    .filter(|&n| matches!(nodes[n as usize], CombNode::MemRead { .. }))
                    .collect()
            })
            .collect();
        let (memread_fanout_start, memread_fanout_list) = flatten_csr(&memread_fanout);

        let mut mem_readers: Vec<Vec<u32>> = vec![Vec::new(); netlist.memories().len()];
        for (i, &node) in nodes.iter().enumerate() {
            if let CombNode::MemRead { mem, .. } = node {
                mem_readers[mem.0 as usize].push(i as u32);
            }
        }

        let mut values = vec![Value::X; netlist.net_count()];
        for d in netlist.dffs() {
            values[d.q.0 as usize] = Value::Logic(d.init);
        }
        let mems: Vec<MemArray> = netlist
            .memories()
            .iter()
            .map(|m| MemArray::xs(m.depth, m.width))
            .collect();

        let dff_pairs: Vec<(NetId, NetId)> = netlist.dffs().iter().map(|d| (d.q, d.d)).collect();
        let write_ports: Vec<WritePortDesc> = netlist
            .memories()
            .iter()
            .enumerate()
            .flat_map(|(mi, m)| {
                m.write_ports.iter().map(move |wp| WritePortDesc {
                    mem: mi as u32,
                    addr: wp.addr.clone(),
                    data: wp.data.clone(),
                    we: wp.we,
                })
            })
            .collect();
        let wp_scratch = write_ports
            .iter()
            .map(|d| WritePortSample {
                addr: Word::xs(d.addr.len()),
                data: Word::xs(d.data.len()),
                we: Value::X,
            })
            .collect();
        let dff_scratch = vec![Value::X; dff_pairs.len()];

        let mem_count = netlist.memories().len();
        let packed = vec![PackedOp::default(); batches.len() * 4];
        let batch_dirty = vec![DIRTY_SCHED; batches.len()];
        let mut sim = Simulator {
            netlist,
            config,
            level,
            max_level,
            fanout_start,
            fanout_list,
            memread_fanout_start,
            memread_fanout_list,
            driver_node,
            mem_readers,
            dff_pairs,
            write_ports,
            tapes,
            batches,
            packed,
            node_batch,
            batch_dirty,
            subs_start,
            subs_list,
            // the packed batch-operand caches serve the batched tape
            maintain_packed: config.eval_mode != EvalMode::Event,
            forced: vec![false; values.len()],
            values,
            mems,
            cycle: 0,
            mem_all_merge: vec![None; mem_count],
            dirty: vec![Vec::new(); max_level as usize + 1],
            in_queue: vec![false; nodes.len()],
            batched_level_evals: 0,
            event_evals: 0,
            forced_writes: 0,
            dirty_pct_hist: [0; DIRTY_PCT_BUCKETS],
            settle_ns: 0,
            batch_eval_ns: 0,
            event_eval_ns: 0,
            nodes,
            dff_scratch,
            wp_scratch,
            forces: HashMap::new(),
            monitors: Vec::new(),
            finish_net: None,
            profile: None,
            activity: None,
            attr: None,
            event_trace: Vec::new(),
            region_trace: Vec::new(),
            trace_regions: false,
        };
        sim.rebuild_packed();
        sim.schedule_all();
        sim
    }

    /// The design being simulated.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// The active configuration.
    pub fn config(&self) -> SimConfig {
        self.config
    }

    /// Cycles simulated since power-on (or since the loaded snapshot's
    /// counter).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    // ---- $monitor_x / finish ----

    /// Registers a `$monitor_x` watch (see [`MonitorSpec`]).
    pub fn monitor_x(&mut self, spec: MonitorSpec) {
        self.monitors.push(spec);
    }

    /// Clears all `$monitor_x` watches.
    pub fn clear_monitors(&mut self) {
        self.monitors.clear();
    }

    /// Sets the net whose assertion (concrete `1`) ends the simulation.
    pub fn set_finish_net(&mut self, net: NetId) {
        self.finish_net = Some(net);
    }

    /// Enables recording of `(cycle, Region)` transitions, used to verify
    /// that the Symbolic region executes last (paper §3.1).
    pub fn trace_regions(&mut self, on: bool) {
        self.trace_regions = on;
    }

    /// Drains the recorded region trace.
    pub fn take_region_trace(&mut self) -> Vec<(u64, Region)> {
        std::mem::take(&mut self.region_trace)
    }

    /// Drains the recorded evaluation-event trace (`trace_events` must be
    /// set in [`SimConfig`]).
    pub fn take_event_trace(&mut self) -> Vec<(u64, u32)> {
        std::mem::take(&mut self.event_trace)
    }

    // ---- value access ----

    /// The current value of `net`.
    pub fn read_net(&self, net: NetId) -> Value {
        self.values[net.0 as usize]
    }

    /// The current value of the named net, if it exists.
    pub fn read_net_by_name(&self, name: &str) -> Option<Value> {
        self.netlist.find_net(name).map(|n| self.read_net(n))
    }

    /// Reads a bus (LSB first) as a [`Word`].
    pub fn read_bus(&self, nets: &[NetId]) -> Word {
        nets.iter().map(|&n| self.read_net(n)).collect()
    }

    /// Reads the bus named `name[0] .. name[width-1]`; `None` if any bit is
    /// missing.
    pub fn read_bus_by_name(&self, name: &str, width: usize) -> Option<Word> {
        let nets = self.find_bus(name, width)?;
        Some(self.read_bus(&nets))
    }

    /// Resolves the nets of the bus named `name[0] .. name[width-1]`.
    pub fn find_bus(&self, name: &str, width: usize) -> Option<Vec<NetId>> {
        let map = self.netlist.net_name_map();
        if width == 1 {
            if let Some(&n) = map.get(name) {
                return Some(vec![n]);
            }
        }
        (0..width)
            .map(|i| map.get(format!("{name}[{i}]").as_str()).copied())
            .collect()
    }

    /// Drives a primary input (or any undriven net) to `value` and schedules
    /// its fanout.
    pub fn poke(&mut self, net: NetId, value: Value) {
        self.set_value(net, value, false);
    }

    /// Drives a whole input bus.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn poke_bus(&mut self, nets: &[NetId], word: &Word) {
        assert_eq!(nets.len(), word.width(), "poke width mismatch");
        for (i, &n) in nets.iter().enumerate() {
            self.poke(n, word.bit(i));
        }
    }

    // ---- force / release ----

    /// Overrides `net` to `value` until [`Simulator::release_all`]. Used by
    /// path exploration to steer a non-deterministic branch down one
    /// outcome; unlike testbench `force`/`release` (paper §2) this composes
    /// with state save/restore and needs no recompilation.
    pub fn force(&mut self, net: NetId, value: Value) {
        self.forces.insert(net.0, value);
        self.forced[net.0 as usize] = true;
        if self.values[net.0 as usize] != value {
            self.values[net.0 as usize] = value;
            if self.maintain_packed {
                self.update_packed::<false>(net.0, value);
            }
            self.mark_toggled(net);
            self.schedule_fanout(net);
        }
    }

    /// Releases all forces and re-evaluates the affected drivers.
    pub fn release_all(&mut self) {
        let nets: Vec<u32> = self.forces.keys().copied().collect();
        self.forces.clear();
        for n in nets {
            self.forced[n as usize] = false;
            if let Some(node) = self.driver_node[n as usize] {
                self.schedule_node(node);
            }
        }
        self.settle();
    }

    // ---- memory access ----

    /// Writes a word into memory `mem_index` (e.g. loading a program image).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range memory index or address.
    pub fn write_mem_word(&mut self, mem_index: usize, addr: usize, word: &Word) {
        self.mems[mem_index].set_word(addr, word);
        // an overwrite can remove information from the all-words merge
        self.mem_all_merge[mem_index] = None;
        self.schedule_mem_readers(mem_index);
    }

    /// Reads a word from memory `mem_index`.
    pub fn read_mem_word(&self, mem_index: usize, addr: usize) -> Word {
        self.mems[mem_index].word(addr)
    }

    /// Index of the memory named `name`.
    pub fn find_memory(&self, name: &str) -> Option<usize> {
        self.netlist.memories().iter().position(|m| m.name == name)
    }

    // ---- toggle observation ----

    /// Arms the toggle observer: the current (typically post-reset) values
    /// become the baseline, and any subsequent change — or any bit already
    /// unknown — marks the net toggled.
    pub fn arm_toggle_observer(&mut self) {
        self.profile = Some(ToggleProfile::baseline(&self.values));
        if self.config.attribution {
            self.attr = Some(AttrBuf {
                first: vec![u64::MAX; self.values.len()],
                touched: Vec::new(),
            });
        }
    }

    /// The accumulated toggle profile, if armed.
    pub fn toggle_profile(&self) -> Option<&ToggleProfile> {
        self.profile.as_ref()
    }

    /// Removes and returns the toggle profile.
    pub fn take_toggle_profile(&mut self) -> Option<ToggleProfile> {
        self.profile.take()
    }

    /// Drains the first-toggle attribution buffer: every net toggled since
    /// the last drain (or since [`Simulator::arm_toggle_observer`]) with
    /// the cycle of its *first* toggle, in toggle order. Returns `None`
    /// when [`SimConfig::attribution`] is off. The buffer resets, so the
    /// explorer can call this once per path segment and attribute each
    /// batch to the segment's path.
    pub fn take_first_toggles(&mut self) -> Option<Vec<(NetId, u64)>> {
        let a = self.attr.as_mut()?;
        let out: Vec<(NetId, u64)> = a
            .touched
            .iter()
            .map(|&n| (NetId(n), a.first[n as usize]))
            .collect();
        for &n in &a.touched {
            a.first[n as usize] = u64::MAX;
        }
        a.touched.clear();
        Some(out)
    }

    // ---- state save / restore ----

    /// Snapshots the complete simulation state, settling any pending
    /// propagation first so the snapshot is quiescent (snapshots are taken
    /// at region boundaries, so the event queue is empty by construction).
    ///
    /// # Panics
    ///
    /// Panics if forces are active (release before saving — a forced state
    /// is mid-split and not a machine state).
    pub fn save_state(&mut self) -> SimState {
        assert!(
            self.forces.is_empty(),
            "cannot snapshot while forces are active"
        );
        self.settle();
        SimState {
            values: self.values.clone(),
            mems: self.mems.clone(),
            cycle: self.cycle,
        }
    }

    /// Restores a snapshot taken with [`Simulator::save_state`]
    /// (the `$initialize_state` system task).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot shape does not match this design.
    pub fn load_state(&mut self, state: &SimState) {
        assert_eq!(
            state.values.len(),
            self.values.len(),
            "snapshot is from a different design"
        );
        assert_eq!(state.mems.len(), self.mems.len());
        for &n in self.forces.keys() {
            self.forced[n as usize] = false;
        }
        self.forces.clear();
        if self.maintain_packed {
            // diff against the incoming snapshot and patch only the operand
            // bits of nets that actually differ: exploration restores
            // closely-related states, so this is far cheaper than a full
            // rebuild per fork
            for (net, (cur, new)) in self.values.iter_mut().zip(&state.values).enumerate() {
                if *cur != *new {
                    *cur = *new;
                    let v = *cur;
                    // an inlined `update_packed` is blocked by the borrow of
                    // `self.values`; patch through disjoint fields instead
                    let (vb, ub) = plane::encode(v);
                    let sym = matches!(v, Value::Sym(_)) || v == Value::Z;
                    let s = self.subs_start[net] as usize;
                    let e = self.subs_start[net + 1] as usize;
                    for k in s..e {
                        let r = self.subs_list[k];
                        let m = 1u64 << (r & 63);
                        let p = &mut self.packed[(r >> 6) as usize];
                        p.val = p.val & !m | if vb { m } else { 0 };
                        p.unk = p.unk & !m | if ub { m } else { 0 };
                        p.sym = p.sym & !m | if sym { m } else { 0 };
                    }
                }
            }
        } else {
            self.values.clone_from(&state.values);
        }
        self.mems.clone_from(&state.mems);
        self.cycle = state.cycle;
        self.mem_all_merge.iter_mut().for_each(|m| *m = None);
        // snapshots are quiescent; nothing to settle
        for bucket in &mut self.dirty {
            bucket.clear();
        }
        self.in_queue.iter_mut().for_each(|b| *b = false);
    }

    // ---- event loop ----

    fn schedule_all(&mut self) {
        for i in 0..self.nodes.len() {
            self.schedule_node(i as u32);
        }
    }

    fn schedule_node(&mut self, idx: u32) {
        if !self.in_queue[idx as usize] {
            self.in_queue[idx as usize] = true;
            self.dirty[self.level[idx as usize] as usize].push(idx);
            // a scheduled gate makes its batch stale, whatever the cause
            // (operand change, force release, explicit re-schedule)
            let b = self.node_batch[idx as usize];
            if b != u32::MAX {
                self.batch_dirty[b as usize] |= DIRTY_SCHED;
            }
        }
    }

    fn schedule_fanout(&mut self, net: NetId) {
        let s = self.fanout_start[net.0 as usize] as usize;
        let e = self.fanout_start[net.0 as usize + 1] as usize;
        for k in s..e {
            self.schedule_node(self.fanout_list[k]);
        }
    }

    fn schedule_mem_readers(&mut self, mem_index: usize) {
        let readers = std::mem::take(&mut self.mem_readers[mem_index]);
        for &node in &readers {
            self.schedule_node(node);
        }
        self.mem_readers[mem_index] = readers;
    }

    fn mark_toggled(&mut self, net: NetId) {
        if let Some(p) = &mut self.profile {
            p.mark(net);
        }
        if let Some(a) = &mut self.activity {
            a.record(net);
        }
        if let Some(f) = &mut self.attr {
            let i = net.0 as usize;
            if f.first[i] == u64::MAX {
                f.first[i] = self.cycle;
                f.touched.push(net.0);
            }
        }
    }

    /// Attaches a switching-activity observer with one weight per net
    /// (see [`ActivityStats`]); used for peak-power/energy analysis.
    ///
    /// # Panics
    ///
    /// Panics if the weight count differs from the net count.
    pub fn attach_activity_observer(&mut self, weights: Vec<f64>) {
        assert_eq!(weights.len(), self.values.len(), "one weight per net");
        self.activity = Some(ActivityStats::new(weights));
    }

    /// Removes and returns the activity observer.
    pub fn take_activity(&mut self) -> Option<ActivityStats> {
        self.activity.take()
    }

    fn set_value(&mut self, net: NetId, value: Value, from_eval: bool) {
        // the bitmap keeps the (overwhelmingly common) unforced case free
        // of a hash lookup
        let value = if from_eval && self.forced[net.0 as usize] {
            self.forced_writes += 1;
            self.forces[&net.0]
        } else {
            value
        };
        if self.values[net.0 as usize] != value {
            self.values[net.0 as usize] = value;
            if self.maintain_packed {
                self.update_packed::<false>(net.0, value);
            }
            self.mark_toggled(net);
            self.schedule_fanout(net);
        }
    }

    /// Patches the one bit of every batch operand plane mirroring `net`.
    /// This is the event-style maintenance of the packed caches: paid once
    /// per value *change* (alongside fanout scheduling, and proportional to
    /// the same fanout count), so [`Simulator::run_batch`] never gathers.
    ///
    /// With `MARK`, every subscribing batch is also flagged [`DIRTY_LEAN`]:
    /// the batched write-back uses this in place of per-node fanout
    /// scheduling, so a dense wave cascades level-to-level through batch
    /// dirty bits alone.
    #[inline]
    fn update_packed<const MARK: bool>(&mut self, net: u32, v: Value) {
        let (vb, ub) = plane::encode(v);
        // lanes the planes cannot represent exactly: tagged symbols (whose
        // identity scalar evaluation must preserve) and high-impedance Z
        // (which folds to unknown, hiding e.g. a Z -> X output transition)
        let sym = matches!(v, Value::Sym(_)) || v == Value::Z;
        let s = self.subs_start[net as usize] as usize;
        let e = self.subs_start[net as usize + 1] as usize;
        for k in s..e {
            let r = self.subs_list[k];
            // `r >> 6` is the flat operand index `batch * 4 + op`
            let m = 1u64 << (r & 63);
            let p = &mut self.packed[(r >> 6) as usize];
            p.val = p.val & !m | if vb { m } else { 0 };
            p.unk = p.unk & !m | if ub { m } else { 0 };
            p.sym = p.sym & !m | if sym { m } else { 0 };
            if MARK {
                self.batch_dirty[(r >> 8) as usize] |= DIRTY_LEAN;
            }
        }
    }

    /// Rebuilds every batch operand cache from the scalar store
    /// (construction).
    fn rebuild_packed(&mut self) {
        if !self.maintain_packed {
            return;
        }
        for net in 0..self.values.len() {
            if self.subs_start[net] != self.subs_start[net + 1] {
                let v = self.values[net];
                self.update_packed::<false>(net as u32, v);
            }
        }
    }

    /// `(batched_level_evals, event_evals)`: level tapes run batched, and
    /// scalar node evaluations (event-driven gates, memory reads, and
    /// symbolic-lane fallbacks) since construction.
    pub fn eval_stats(&self) -> (u64, u64) {
        (self.batched_level_evals, self.event_evals)
    }

    /// Full evaluation statistics since construction (a superset of
    /// [`Simulator::eval_stats`]).
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats {
            batched_level_evals: self.batched_level_evals,
            event_evals: self.event_evals,
            forced_writes: self.forced_writes,
            dirty_pct_hist: self.dirty_pct_hist,
            settle_ns: self.settle_ns,
            batch_eval_ns: self.batch_eval_ns,
            event_eval_ns: self.event_eval_ns,
        }
    }

    /// Propagates all pending events to quiescence (the Active region).
    /// Returns the number of node evaluations performed.
    ///
    /// Dispatch is hybrid (see [`EvalMode`]): a level whose dirty fraction
    /// reaches the activity threshold runs its compiled bit-packed tape —
    /// re-evaluating a clean gate is idempotent, and change detection keeps
    /// traces/observers identical to the event-driven path — otherwise the
    /// level drains event-by-event. Forced nets keep their overrides in
    /// both paths (the batched write-back consults the force map).
    pub fn settle(&mut self) -> usize {
        if !self.config.profile_phases {
            return self.settle_inner();
        }
        let t0 = std::time::Instant::now();
        let evals = self.settle_inner();
        self.settle_ns += t0.elapsed().as_nanos() as u64;
        evals
    }

    fn settle_inner(&mut self) -> usize {
        let mut evals = 0;
        let profile = self.config.profile_phases;
        let batch_ok = self.config.eval_mode != EvalMode::Event;
        for lvl in 0..=self.max_level as usize {
            // nodes only schedule strictly higher levels, so one ascending
            // pass reaches quiescence; same-level insertions are drained here
            let tape = self.tapes[lvl];
            let (first, last) = (
                tape.first_batch as usize,
                (tape.first_batch + tape.batch_count) as usize,
            );
            let mut stale = 0u8;
            if batch_ok {
                for &d in &self.batch_dirty[first..last] {
                    stale |= d;
                }
            }
            // DIRTY_LEAN forces the tape: upstream changes propagated via
            // batch bits alone, so the bucket under-counts this level
            let use_batch = batch_ok
                && tape.batch_count > 0
                && (stale & DIRTY_LEAN != 0
                    || self.dirty[lvl].len() * 100
                        >= tape.node_count * usize::from(self.config.batch_threshold_pct));
            if stale != 0 || !self.dirty[lvl].is_empty() {
                // dirty-fraction distribution of dispatched levels: a plain
                // array increment, so always-on costs nothing measurable
                let pct = self.dirty[lvl].len() * 100 / tape.node_count.max(1);
                self.dirty_pct_hist[(pct / 10).min(DIRTY_PCT_BUCKETS - 1)] += 1;
            }
            if use_batch {
                if stale != 0 || !self.dirty[lvl].is_empty() {
                    if profile {
                        let t = std::time::Instant::now();
                        evals += self.run_level_batch(lvl);
                        self.batch_eval_ns += t.elapsed().as_nanos() as u64;
                    } else {
                        evals += self.run_level_batch(lvl);
                    }
                }
            } else {
                if !self.dirty[lvl].is_empty() {
                    let t = profile.then(std::time::Instant::now);
                    while let Some(idx) = self.dirty[lvl].pop() {
                        self.in_queue[idx as usize] = false;
                        self.eval_node(idx);
                        evals += 1;
                    }
                    if let Some(t) = t {
                        self.event_eval_ns += t.elapsed().as_nanos() as u64;
                    }
                }
                if stale != 0 {
                    // every stale batch here was scheduled (DIRTY_SCHED
                    // only — lean bits force the tape), and the drain above
                    // just evaluated those nodes scalar
                    self.batch_dirty[first..last].fill(0);
                }
            }
        }
        evals
    }

    /// Runs one level's compiled tape: drain the dirty bucket (scalar-eval
    /// any non-gate nodes in it), then evaluate every gate batch of the
    /// level with word-ops. Returns the number of nodes evaluated.
    fn run_level_batch(&mut self, lvl: usize) -> usize {
        let mut evals = 0;
        // drain pending events for this level: gates are covered by the
        // tape; memory-read nodes are not plane-packable and stay scalar
        let mut bucket = std::mem::take(&mut self.dirty[lvl]);
        for &idx in &bucket {
            self.in_queue[idx as usize] = false;
            if matches!(self.nodes[idx as usize], CombNode::MemRead { .. }) {
                self.eval_node(idx);
                evals += 1;
            }
        }
        bucket.clear();
        self.dirty[lvl] = bucket;

        let tape = self.tapes[lvl];
        for bi in tape.first_batch..tape.first_batch + tape.batch_count {
            // only batches with a changed operand since their last run can
            // produce new outputs; the rest skip without touching planes
            if self.batch_dirty[bi as usize] != 0 {
                self.batch_dirty[bi as usize] = 0;
                evals += self.run_batch(bi as usize);
            }
        }
        self.batched_level_evals += 1;
        evals
    }

    /// Evaluates up to 64 gates with one word-op per kind present over the
    /// batch's pre-packed operand planes, then writes back only the lanes whose
    /// output actually changed — found in bulk by diffing the new planes
    /// against the cached output planes, so unchanged lanes cost nothing.
    /// Lanes carrying tagged symbols fall back to scalar evaluation to
    /// preserve symbol identity under [`PropagationPolicy::Tagged`].
    fn run_batch(&mut self, bi: usize) -> usize {
        use symsim_netlist::CellKind as K;
        let n = self.batches[bi].out.len();
        let used = if n == 64 { !0u64 } else { (1u64 << n) - 1 };
        let [p0, p1, p2, po]: [PackedOp; 4] = self.packed[bi * 4..bi * 4 + 4]
            .try_into()
            .expect("4 operand planes per batch");
        let symmask = (p0.sym | p1.sym | p2.sym) & used;
        // lanes are kind-sorted, so this is one word-op evaluation per
        // kind present (usually 1-3), merged by disjoint lane masks
        let mut y = Lanes { val: 0, unk: 0 };
        for &(kind, mask) in &self.batches[bi].kinds {
            let yk = match kind {
                K::Const0 => Lanes::ZEROS,
                K::Const1 => Lanes::ONES,
                K::Buf => plane::buf(p0.lanes()),
                K::Not => plane::not(p0.lanes()),
                K::And2 => plane::and2(p0.lanes(), p1.lanes()),
                K::Or2 => plane::or2(p0.lanes(), p1.lanes()),
                K::Nand2 => plane::nand2(p0.lanes(), p1.lanes()),
                K::Nor2 => plane::nor2(p0.lanes(), p1.lanes()),
                K::Xor2 => plane::xor2(p0.lanes(), p1.lanes()),
                K::Xnor2 => plane::xnor2(p0.lanes(), p1.lanes()),
                K::Mux2 => plane::mux2(p0.lanes(), p1.lanes(), p2.lanes()),
            };
            y.val |= yk.val & mask;
            y.unk |= yk.unk & mask;
        }
        // a lane must be revisited when its planes differ from the cached
        // output planes, or when its stored output is inexact (the planes
        // fold symbols/Z to unknown, hiding e.g. Sym -> X transitions)
        let diff = ((y.val ^ po.val) | (y.unk ^ po.unk) | po.sym) & used & !symmask;
        if symmask | diff == 0 {
            return n;
        }
        let trace = self.config.trace_events;

        let mut m = symmask;
        while m != 0 {
            let i = m.trailing_zeros();
            m &= m - 1;
            // a tagged symbol feeds this lane: scalar evaluation keeps
            // its identity (e.g. s XOR s = 0 under the Tagged policy)
            let node = self.batches[bi].node[i as usize];
            self.eval_node(node);
        }
        let mut m = diff;
        while m != 0 {
            let i = m.trailing_zeros();
            m &= m - 1;
            let net = self.batches[bi].out[i as usize];
            let mut v = y.get(i);
            if self.forced[net as usize] {
                // a forced output keeps its override, exactly like the
                // scalar path's `set_value(.., from_eval = true)`
                v = self.forces[&net];
            }
            if self.values[net as usize] != v {
                if trace {
                    let node = self.batches[bi].node[i as usize];
                    self.event_trace.push((self.cycle, node));
                }
                self.values[net as usize] = v;
                // lean write-back: subscribing batches are flagged by
                // `update_packed`, so gate fanout needs no per-node
                // scheduling — only memory-read readers stay event-driven
                self.update_packed::<true>(net, v);
                self.mark_toggled(NetId(net));
                let ms = self.memread_fanout_start[net as usize] as usize;
                let me = self.memread_fanout_start[net as usize + 1] as usize;
                for k in ms..me {
                    self.schedule_node(self.memread_fanout_list[k]);
                }
            }
        }
        n
    }

    fn eval_node(&mut self, idx: u32) {
        self.event_evals += 1;
        let policy = self.config.policy;
        match self.nodes[idx as usize] {
            CombNode::Gate(g) => {
                let gate = self.netlist.gate(g);
                let v = |i: usize| self.values[gate.inputs[i].0 as usize];
                use symsim_netlist::CellKind as K;
                let out = match gate.kind {
                    K::Const0 => Value::ZERO,
                    K::Const1 => Value::ONE,
                    K::Buf => ops::buf(v(0), policy),
                    K::Not => ops::not(v(0), policy),
                    K::And2 => ops::and(v(0), v(1), policy),
                    K::Or2 => ops::or(v(0), v(1), policy),
                    K::Nand2 => ops::nand(v(0), v(1), policy),
                    K::Nor2 => ops::nor(v(0), v(1), policy),
                    K::Xor2 => ops::xor(v(0), v(1), policy),
                    K::Xnor2 => ops::xnor(v(0), v(1), policy),
                    K::Mux2 => ops::mux(v(0), v(1), v(2), policy),
                };
                let out_net = gate.output;
                if self.config.trace_events && self.values[out_net.0 as usize] != out {
                    self.event_trace.push((self.cycle, idx));
                }
                self.set_value(out_net, out, true);
            }
            CombNode::MemRead { mem, port } => {
                // borrow the port description from the 'n netlist reference,
                // not through &self, so no clone is needed while mutating
                let nl: &'n Netlist = self.netlist;
                let rp = &nl.memories()[mem.0 as usize].read_ports[port];
                let addr = self.read_bus(&rp.addr);
                let word = self.mem_read_resolve(mem.0 as usize, &addr);
                if self.config.trace_events {
                    let changed = rp
                        .data
                        .iter()
                        .enumerate()
                        .any(|(i, &n)| self.values[n.0 as usize] != word.bit(i));
                    if changed {
                        self.event_trace.push((self.cycle, idx));
                    }
                }
                for (i, &n) in rp.data.iter().enumerate() {
                    self.set_value(n, word.bit(i), true);
                }
            }
        }
    }

    /// Resolves a memory read at a possibly-unknown address: the
    /// conservative merge of every word the address could select.
    ///
    /// The fully-unknown-address case (`AddrSet::All`) is served from a
    /// per-memory cache of the all-words merge, maintained incrementally by
    /// [`Simulator::commit_mem_write`] — without it, every event on such a
    /// read port rescans the whole array (O(depth) per event).
    fn mem_read_resolve(&mut self, mem_index: usize, addr: &Word) -> Word {
        let mem = &self.mems[mem_index];
        match enumerate_addresses(addr, mem.depth(), self.config.max_addr_enum_bits) {
            AddrSet::None => Word::xs(mem.width()),
            AddrSet::Some(addrs) => {
                let mut it = addrs.into_iter();
                let first = it.next();
                match first {
                    None => Word::xs(mem.width()),
                    Some(a0) => {
                        let mut acc = mem.word(a0);
                        for a in it {
                            acc = acc.merge(&mem.word(a));
                        }
                        acc
                    }
                }
            }
            AddrSet::All => self.mem_all_merge(mem_index),
        }
    }

    /// The conservative merge of every word of memory `mem_index`, cached.
    fn mem_all_merge(&mut self, mem_index: usize) -> Word {
        if let Some(w) = &self.mem_all_merge[mem_index] {
            return w.clone();
        }
        let mem = &self.mems[mem_index];
        let mut acc = mem.word(0);
        for a in 1..mem.depth() {
            acc = acc.merge(&mem.word(a));
        }
        self.mem_all_merge[mem_index] = Some(acc.clone());
        acc
    }

    fn commit_mem_write(&mut self, mem_index: usize, addr: &Word, data: &Word, we: Value) {
        if we == Value::ZERO {
            return;
        }
        let certain = we == Value::ONE;
        let depth = self.mems[mem_index].depth();
        match enumerate_addresses(addr, depth, self.config.max_addr_enum_bits) {
            AddrSet::None => {}
            AddrSet::Some(addrs) => {
                // an overwrite is only exact when the address is fully
                // known: with unknown bits, even a single in-range match
                // may correspond to an out-of-range (dropped) write, so
                // the old value must survive the merge
                let exact = certain && !addr.has_unknown();
                for a in addrs {
                    if exact {
                        self.mems[mem_index].set_word(a, data);
                    } else {
                        // the write may or may not land on this word
                        self.mems[mem_index].merge_word(a, data);
                    }
                }
                if exact {
                    // the overwrite can remove information: recompute lazily
                    self.mem_all_merge[mem_index] = None;
                } else if let Some(w) = self.mem_all_merge[mem_index].take() {
                    // merging `data` into any word only widens the all-words
                    // merge by exactly `merge(data)`: join is incremental
                    self.mem_all_merge[mem_index] = Some(w.merge(data));
                }
            }
            AddrSet::All => {
                for a in 0..depth {
                    self.mems[mem_index].merge_word(a, data);
                }
                if let Some(w) = self.mem_all_merge[mem_index].take() {
                    self.mem_all_merge[mem_index] = Some(w.merge(data));
                }
            }
        }
        self.schedule_mem_readers(mem_index);
    }

    /// Advances one clock cycle, executing the event regions in order:
    /// NBA commits (flip-flops, memory writes), Active propagation,
    /// Monitor observation, then the Symbolic region checks.
    ///
    /// Returns `Some(reason)` if the Symbolic region halted the simulation.
    pub fn step_cycle(&mut self) -> Option<HaltReason> {
        for region in REGION_ORDER {
            if self.trace_regions {
                self.region_trace.push((self.cycle, region));
            }
            match region {
                Region::Nba => {
                    // complete any pending Active-region propagation from
                    // pokes/loads so the clock edge samples settled values
                    self.settle();
                    // sample every flip-flop D and write port with pre-edge
                    // values into the scratch buffers (no allocation)
                    let mut dffs = std::mem::take(&mut self.dff_scratch);
                    dffs.clear();
                    dffs.extend(
                        self.dff_pairs
                            .iter()
                            .map(|&(_, d)| self.values[d.0 as usize]),
                    );
                    let mut wps = std::mem::take(&mut self.wp_scratch);
                    for (desc, sample) in self.write_ports.iter().zip(wps.iter_mut()) {
                        for (i, &n) in desc.addr.iter().enumerate() {
                            sample.addr.set_bit(i, self.values[n.0 as usize]);
                        }
                        for (i, &n) in desc.data.iter().enumerate() {
                            sample.data.set_bit(i, self.values[n.0 as usize]);
                        }
                        sample.we = self.values[desc.we.0 as usize].anonymize();
                    }
                    for (i, &v) in dffs.iter().enumerate() {
                        let q = self.dff_pairs[i].0;
                        self.set_value(q, v, false);
                    }
                    for (i, sample) in wps.iter().enumerate() {
                        let mem = self.write_ports[i].mem as usize;
                        self.commit_mem_write(mem, &sample.addr, &sample.data, sample.we);
                    }
                    self.dff_scratch = dffs;
                    self.wp_scratch = wps;
                }
                Region::Active => {
                    self.settle();
                }
                Region::Inactive => {
                    // no #0 events in the cycle-accurate model
                }
                Region::Monitor => {
                    // toggle profile updates happen inline on value changes
                }
                Region::Symbolic => {
                    if let Some(a) = &mut self.activity {
                        a.end_cycle(self.cycle);
                    }
                    self.cycle += 1;
                    if let Some(reason) = self.check_symbolic_region() {
                        return Some(reason);
                    }
                }
            }
        }
        None
    }

    fn check_symbolic_region(&self) -> Option<HaltReason> {
        if let Some(f) = self.finish_net {
            if self.values[f.0 as usize] == Value::ONE {
                return Some(HaltReason::Finished);
            }
        }
        for spec in &self.monitors {
            let mut xs = Vec::new();
            if let Some(q) = spec.qualifier {
                match self.values[q.0 as usize].anonymize() {
                    Value::Logic(symsim_logic::Logic::Zero) => continue,
                    Value::Logic(symsim_logic::Logic::One) => {}
                    _ => xs.push(q), // unknown qualifier is itself non-determinism
                }
            }
            for &s in &spec.signals {
                if self.values[s.0 as usize].is_unknown() {
                    xs.push(s);
                }
            }
            if !xs.is_empty() {
                return Some(HaltReason::MonitorX { signals: xs });
            }
        }
        None
    }

    /// Runs until a Symbolic-region halt, the finish net, or `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> HaltReason {
        for _ in 0..max_cycles {
            if let Some(reason) = self.step_cycle() {
                return reason;
            }
        }
        HaltReason::MaxCycles
    }
}

/// Flattens a per-key adjacency list into CSR form: `list[start[k]..
/// start[k + 1]]` holds key `k`'s entries. The hot loops walk these once
/// per value change, where the nested-`Vec` form costs a pointer chase
/// per key.
fn flatten_csr<T: Copy>(nested: &[Vec<T>]) -> (Vec<u32>, Vec<T>) {
    let mut start = Vec::with_capacity(nested.len() + 1);
    let mut list = Vec::with_capacity(nested.iter().map(Vec::len).sum());
    start.push(0);
    for row in nested {
        list.extend_from_slice(row);
        start.push(list.len() as u32);
    }
    (start, list)
}

/// Compiles the levelized netlist into per-level instruction tapes: each
/// level's gates sorted by kind and chunked into [`GateBatch`]es of up to
/// 64 lanes, so [`Simulator::run_level_batch`] evaluates a level with a
/// handful of word-ops instead of per-gate dispatch. Alongside the batches
/// it builds the net -> operand-bit subscriber map that keeps the batch
/// operand planes current (see [`Simulator::update_packed`]).
fn compile_tapes(
    netlist: &Netlist,
    nodes: &[CombNode],
    level: &[u32],
    max_level: u32,
) -> (
    Vec<LevelTape>,
    Vec<GateBatch>,
    Vec<u32>,
    Vec<Vec<PackedSub>>,
) {
    let mut tapes = vec![LevelTape::default(); max_level as usize + 1];
    let mut batches: Vec<GateBatch> = Vec::new();
    let mut node_batch = vec![u32::MAX; nodes.len()];
    let mut subs: Vec<Vec<PackedSub>> = vec![Vec::new(); netlist.net_count()];
    let mut gates_per_level: Vec<Vec<u32>> = vec![Vec::new(); max_level as usize + 1];
    for (i, &node) in nodes.iter().enumerate() {
        let lvl = level[i] as usize;
        tapes[lvl].node_count += 1;
        if matches!(node, CombNode::Gate(_)) {
            gates_per_level[lvl].push(i as u32);
        }
    }
    let kind_of = |i: u32| {
        let CombNode::Gate(g) = nodes[i as usize] else {
            unreachable!("gates_per_level holds only gate nodes")
        };
        netlist.gate(g).kind
    };
    for (lvl, mut gate_nodes) in gates_per_level.into_iter().enumerate() {
        tapes[lvl].first_batch = batches.len() as u32;
        // kind-major, node-index-minor: full 64-lane batches that span few
        // distinct kinds (one masked evaluation per kind present), in a
        // stable order
        gate_nodes.sort_by_key(|&i| (kind_of(i), i));
        for chunk in gate_nodes.chunks(64) {
            let bi = batches.len() as u32;
            let mut batch = GateBatch {
                kinds: Vec::new(),
                node: Vec::with_capacity(chunk.len()),
                out: Vec::with_capacity(chunk.len()),
            };
            for (lane, &ni) in chunk.iter().enumerate() {
                let CombNode::Gate(g) = nodes[ni as usize] else {
                    unreachable!()
                };
                let gate = netlist.gate(g);
                batch.node.push(ni);
                batch.out.push(gate.output.0);
                node_batch[ni as usize] = bi;
                match batch.kinds.last_mut() {
                    Some((k, mask)) if *k == gate.kind => *mask |= 1 << lane,
                    _ => batch.kinds.push((gate.kind, 1 << lane)),
                }
                let lane = lane as u32;
                subs[gate.output.0 as usize].push(bi << 8 | SUB_OUT << 6 | lane);
                for (pin, p) in gate.inputs.iter().enumerate() {
                    subs[p.0 as usize].push(bi << 8 | (pin as u32) << 6 | lane);
                }
            }
            batches.push(batch);
        }
        tapes[lvl].batch_count = batches.len() as u32 - tapes[lvl].first_batch;
    }
    (tapes, batches, node_batch, subs)
}

enum AddrSet {
    /// No in-range address matches.
    None,
    /// These addresses match.
    Some(Vec<usize>),
    /// Too many unknown bits: treat as "could be anywhere".
    All,
}

/// Enumerates the in-range concrete addresses a possibly-unknown address
/// word can take.
fn enumerate_addresses(addr: &Word, depth: usize, max_enum_bits: u32) -> AddrSet {
    let unknown: Vec<usize> = (0..addr.width())
        .filter(|&i| addr.bit(i).is_unknown())
        .collect();
    if unknown.len() as u32 > max_enum_bits {
        return AddrSet::All;
    }
    let mut base = 0usize;
    for i in 0..addr.width() {
        if addr.bit(i).to_bool() == Some(true) && i < usize::BITS as usize {
            base |= 1 << i;
        }
    }
    let count = 1usize << unknown.len();
    let mut out = Vec::new();
    for combo in 0..count {
        let mut a = base;
        for (j, &bit) in unknown.iter().enumerate() {
            if combo >> j & 1 == 1 && bit < usize::BITS as usize {
                a |= 1 << bit;
            }
        }
        if a < depth {
            out.push(a);
        }
    }
    if out.is_empty() {
        AddrSet::None
    } else {
        AddrSet::Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsim_netlist::RtlBuilder;

    fn counter4() -> Netlist {
        let mut b = RtlBuilder::new("cnt4");
        let r = b.reg("cnt", 4, 0);
        let q = r.q.clone();
        let one = b.const_word(1, 4);
        let next = b.add(&q, &one);
        b.drive_reg(r, &next);
        b.output("count", &q);
        b.finish().unwrap()
    }

    #[test]
    fn counter_counts() {
        let nl = counter4();
        let mut sim = Simulator::new(&nl, SimConfig::default());
        sim.settle();
        for expect in 0..20u64 {
            let w = sim.read_bus_by_name("count", 4).unwrap();
            assert_eq!(w.to_u64(), Some(expect % 16), "cycle {expect}");
            sim.step_cycle();
        }
        assert_eq!(sim.cycle(), 20);
    }

    #[test]
    fn save_restore_round_trip() {
        let nl = counter4();
        let mut sim = Simulator::new(&nl, SimConfig::default());
        sim.settle();
        for _ in 0..5 {
            sim.step_cycle();
        }
        let snap = sim.save_state();
        for _ in 0..3 {
            sim.step_cycle();
        }
        assert_eq!(sim.read_bus_by_name("count", 4).unwrap().to_u64(), Some(8));
        sim.load_state(&snap);
        assert_eq!(sim.read_bus_by_name("count", 4).unwrap().to_u64(), Some(5));
        sim.step_cycle();
        assert_eq!(sim.read_bus_by_name("count", 4).unwrap().to_u64(), Some(6));
        // serialized round trip too
        let bytes = snap.encode();
        let back = SimState::decode(&bytes).unwrap();
        sim.load_state(&back);
        assert_eq!(sim.cycle(), 5);
    }

    #[test]
    fn x_propagates_through_gates() {
        let mut b = RtlBuilder::new("xprop");
        let a = b.input("a", 1);
        let c = b.input("c", 1);
        let y = b.and1(a.bit(0), c.bit(0));
        let yo = symsim_netlist::Bus::from_nets(vec![y]);
        b.output("y", &yo);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl, SimConfig::default());
        sim.settle();
        assert!(sim.read_net_by_name("y").unwrap().is_x());
        sim.poke(nl.find_net("a").unwrap(), Value::ZERO);
        sim.settle();
        assert_eq!(sim.read_net_by_name("y").unwrap(), Value::ZERO);
    }

    #[test]
    fn monitor_x_halts_in_symbolic_region() {
        // register fed by an input; monitor the register output
        let mut b = RtlBuilder::new("mon");
        let a = b.input("a", 1);
        let one = b.one();
        let q = b.reg_en("q", &a, one, 0);
        b.output("qo", &q);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl, SimConfig::default());
        let qnet = nl.find_net("qo").unwrap();
        sim.monitor_x(MonitorSpec {
            qualifier: None,
            signals: vec![qnet],
        });
        sim.poke(nl.find_net("a").unwrap(), Value::X);
        sim.settle();
        // after one edge the X reaches q and the symbolic region halts
        let reason = sim.run(10);
        assert_eq!(
            reason,
            HaltReason::MonitorX {
                signals: vec![qnet]
            }
        );
        assert_eq!(sim.cycle(), 1);
    }

    #[test]
    fn qualifier_gates_monitor() {
        let mut b = RtlBuilder::new("qual");
        let en = b.input("en", 1);
        let sig = b.input("sig", 1);
        b.output("eno", &en);
        b.output("sigo", &sig);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl, SimConfig::default());
        sim.monitor_x(MonitorSpec {
            qualifier: Some(nl.find_net("eno").unwrap()),
            signals: vec![nl.find_net("sigo").unwrap()],
        });
        sim.poke(nl.find_net("en").unwrap(), Value::ZERO);
        sim.poke(nl.find_net("sig").unwrap(), Value::X);
        sim.settle();
        assert_eq!(sim.run(3), HaltReason::MaxCycles);
        sim.poke(nl.find_net("en").unwrap(), Value::ONE);
        sim.settle();
        assert!(matches!(sim.run(3), HaltReason::MonitorX { .. }));
    }

    #[test]
    fn force_and_release() {
        let mut b = RtlBuilder::new("f");
        let a = b.input("a", 1);
        let y = b.not(&a);
        b.output("y", &y);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl, SimConfig::default());
        sim.poke(nl.find_net("a").unwrap(), Value::ZERO);
        sim.settle();
        assert_eq!(sim.read_net_by_name("y").unwrap(), Value::ONE);
        sim.force(nl.find_net("y").unwrap(), Value::ZERO);
        sim.settle();
        assert_eq!(sim.read_net_by_name("y").unwrap(), Value::ZERO);
        sim.release_all();
        assert_eq!(sim.read_net_by_name("y").unwrap(), Value::ONE);
    }

    #[test]
    fn memory_read_with_unknown_address_merges() {
        let mut b = RtlBuilder::new("mem");
        let addr = b.input("addr", 2);
        let m = b.memory("ram", 4, 8);
        let rdata = b.mem_read(m, &addr);
        b.output("rdata", &rdata);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl, SimConfig::default());
        sim.write_mem_word(0, 0, &Word::from_u64(0x0f, 8));
        sim.write_mem_word(0, 1, &Word::from_u64(0x0e, 8));
        sim.write_mem_word(0, 2, &Word::from_u64(0xff, 8));
        sim.write_mem_word(0, 3, &Word::from_u64(0xfe, 8));
        let a = nl.find_net("addr[0]").unwrap();
        let a1 = nl.find_net("addr[1]").unwrap();
        sim.poke(a, Value::X);
        sim.poke(a1, Value::ZERO);
        sim.settle();
        // addr is {0,1}: merge of 0x0f and 0x0e = 0x0[ex] -> bits 1..4 known
        let w = sim.read_bus_by_name("rdata", 8).unwrap();
        assert!(w.bit(0).is_x());
        assert_eq!(w.bit(1), Value::ONE);
        assert_eq!(w.bit(4), Value::ZERO);
        sim.poke(a1, Value::X);
        sim.settle();
        let w = sim.read_bus_by_name("rdata", 8).unwrap();
        assert!(w.bit(4).is_x()); // now high nibble disagrees across words
    }

    #[test]
    fn memory_write_with_unknown_enable_merges() {
        let mut b = RtlBuilder::new("memw");
        let addr = b.input("addr", 2);
        let data = b.input("data", 8);
        let we = b.input("we", 1);
        let m = b.memory("ram", 4, 8);
        let rdata = b.mem_read(m, &addr);
        b.mem_write(m, &addr, &data, we.bit(0));
        b.output("rdata", &rdata);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl, SimConfig::default());
        sim.write_mem_word(0, 1, &Word::from_u64(0x00, 8));
        let map = nl.net_name_map();
        sim.poke_bus(&[map["addr[0]"], map["addr[1]"]], &Word::from_u64(1, 2));
        sim.poke_bus(
            &(0..8)
                .map(|i| map[format!("data[{i}]").as_str()])
                .collect::<Vec<_>>(),
            &Word::from_u64(0xff, 8),
        );
        sim.poke(map["we"], Value::X);
        sim.settle();
        sim.step_cycle();
        // write may or may not have happened: whole word unknown
        assert!(sim.read_mem_word(0, 1).is_all_x() || sim.read_mem_word(0, 1).has_unknown());
        // with we=1 the write is certain
        sim.poke(map["we"], Value::ONE);
        sim.settle();
        sim.step_cycle();
        assert_eq!(sim.read_mem_word(0, 1).to_u64(), Some(0xff));
    }

    #[test]
    fn region_order_puts_symbolic_last() {
        let nl = counter4();
        let mut sim = Simulator::new(&nl, SimConfig::default());
        sim.trace_regions(true);
        sim.settle();
        sim.step_cycle();
        let trace = sim.take_region_trace();
        let regions: Vec<Region> = trace.into_iter().map(|(_, r)| r).collect();
        assert_eq!(regions.last(), Some(&Region::Symbolic));
        assert_eq!(regions.len(), 5);
    }

    #[test]
    fn finish_net_ends_run() {
        // finish when count == 3
        let mut b = RtlBuilder::new("fin");
        let r = b.reg("cnt", 4, 0);
        let q = r.q.clone();
        let one = b.const_word(1, 4);
        let next = b.add(&q, &one);
        b.drive_reg(r, &next);
        let three = b.const_word(3, 4);
        let done = b.eq(&q, &three);
        let done_bus = symsim_netlist::Bus::from_nets(vec![done]);
        b.output("done", &done_bus);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl, SimConfig::default());
        sim.set_finish_net(nl.find_net("done").unwrap());
        sim.settle();
        assert_eq!(sim.run(100), HaltReason::Finished);
        assert_eq!(sim.cycle(), 3); // counts 0,1,2,3 -> finish observed after edge to 3
    }
}
