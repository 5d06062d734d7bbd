use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use symsim_logic::{plane::Lanes, Value, Word};
use symsim_netlist::{NetId, Netlist};
use symsim_obs::{
    debug, info, trace, tracefile, CounterId, GaugeId, HistogramId, MetricsRegistry, TraceSink,
    DIRTY_PCT_BUCKETS,
};
use symsim_sim::{
    CohortLaneEnd, EvalMode, HaltReason, MonitorSpec, SimConfig, SimState, Simulator, ToggleProfile,
};

use crate::csm::{
    validate_constraints, ConservativeStateManager, CsmKey, CsmPolicy, Observation, StateConstraint,
};
use crate::provenance::Collector;
use crate::report::CoAnalysisReport;
use crate::sched::{TaskWeight, WorkQueue};

/// The handful of design-specific facts co-analysis needs — everything else
/// is design-agnostic (the point of the paper). The `symsim-cpu` crate
/// provides these for its three processors.
#[derive(Debug, Clone)]
pub struct DesignInterface {
    /// Program-counter bus (LSB first), used to index conservative states.
    pub pc: Vec<NetId>,
    /// The `$monitor_x` registration: control-flow signals and qualifier.
    pub monitor: MonitorSpec,
    /// The "appropriate control flow signals" the CSM sets to steer each
    /// spawned path (paper §3). Defaults to the monitored signals; a design
    /// may narrow it (openMSP430 halts on any X flag but forks only on the
    /// branch's selected condition).
    pub split_signals: Option<Vec<NetId>>,
    /// Net asserted when the application completes.
    pub finish: NetId,
}

/// Tuning knobs for a co-analysis run.
#[derive(Debug, Clone)]
pub struct CoAnalysisConfig {
    /// Simulator configuration (propagation policy, tracing, ...).
    pub sim: SimConfig,
    /// Conservative-state formation policy (paper Fig. 3).
    pub policy: CsmPolicy,
    /// Application constraints applied to formed states (paper §3.3).
    pub constraints: Vec<StateConstraint>,
    /// Cycle budget for any single path segment.
    pub max_cycles_per_segment: u64,
    /// Hard cap on total paths created (runaway safeguard). Children past
    /// the cap are dropped and counted in
    /// [`CoAnalysisReport::paths_dropped`].
    pub max_paths: usize,
    /// At most this many unknown control signals are enumerated per split
    /// (`2^n` children); extra unknowns stay `X` and re-split later.
    pub max_split_signals: usize,
    /// Worker threads; `1` runs sequentially, more parallelizes path
    /// exploration with a shared CSM (paper §3.3) over a work-stealing
    /// scheduler.
    pub workers: usize,
    /// Per-net switching weights; when set, every worker collects
    /// [`symsim_sim::ActivityStats`] and the report carries the merged
    /// statistics (for peak-power/energy analysis).
    pub activity_weights: Option<Vec<f64>>,
    /// Shared metrics registry for live progress (heartbeat) visibility.
    /// When `None` the run creates a private one; the final snapshot is
    /// embedded in the report either way. A registry must serve exactly
    /// one run: reusing it across runs sums their counters.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Run-trace sink (`--trace-out`): every path fork, CSM decision, and
    /// path outcome is recorded as an NDJSON event, and per-segment phase
    /// timing (restore/exec/save/CSM, plus engine settle/batch/event time)
    /// is both carried on the `path_end` records and observed into the
    /// `phase_*_us` histograms. `None` keeps the hot path free of
    /// timestamps entirely. The caller owns the sink's lifecycle
    /// ([`TraceSink::finish`] merges and flushes the shards).
    pub trace: Option<Arc<TraceSink>>,
}

impl Default for CoAnalysisConfig {
    fn default() -> Self {
        CoAnalysisConfig {
            sim: SimConfig::default(),
            policy: CsmPolicy::SingleMerge,
            constraints: Vec::new(),
            max_cycles_per_segment: 200_000,
            max_paths: 100_000,
            max_split_signals: 6,
            workers: 1,
            activity_weights: None,
            metrics: None,
            trace: None,
        }
    }
}

/// How a popped path segment ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathOutcome {
    /// The application ran to completion on this path.
    Finished,
    /// The halted state was covered by a conservative state: skipped.
    Covered,
    /// The path split into children at a non-deterministic branch (the
    /// count excludes children dropped by the path cap).
    Split(usize),
    /// The per-segment cycle budget ran out.
    Budget,
    /// Killed at dequeue by pre-split subsumption (adaptive policy only):
    /// a conservative state formed after this child's fork covered its
    /// start state, so the path was never simulated — it consumed a path
    /// id but no segment, and emits no `path_start`/`path_end` records.
    Killed,
}

#[derive(Debug)]
struct Task {
    /// Trace-visible path identity. Ids are grants from the `created`
    /// counter: the root takes 0 and a fork's children take the contiguous
    /// range its CAS grant claimed, so ids are unique without any extra
    /// synchronization and the lineage tree is reconstructible from the
    /// fork records alone.
    id: u64,
    state: SimState,
    forces: Vec<(NetId, Value)>,
    /// Cycle budget override: a lane spilled out of a cohort continues
    /// with what remains of the segment budget it already partly consumed
    /// (`None` = the full per-segment budget).
    budget: Option<u64>,
    /// Cycles this path already consumed inside a cohort before spilling;
    /// folded into the segment's cycle accounting so the path's totals
    /// match a never-spilled (event-mode) run exactly.
    carried: u64,
    /// The fork this child came from: the CSM key it split at and the
    /// formation sequence number of the conservative state it split from.
    /// Consulted once at dequeue for pre-split subsumption (adaptive
    /// policy): a state formed after `born_seq` that covers this child's
    /// forced start state makes it redundant. `None` for the root, for
    /// spilled-lane continuations, and for lanes already screened by
    /// their cohort.
    fork: Option<(CsmKey, usize)>,
}

impl Task {
    fn fresh(id: u64, state: SimState, forces: Vec<(NetId, Value)>) -> Task {
        Task {
            id,
            state,
            forces,
            budget: None,
            carried: 0,
            fork: None,
        }
    }

    fn forked(
        id: u64,
        state: SimState,
        forces: Vec<(NetId, Value)>,
        fork: (CsmKey, usize),
    ) -> Task {
        Task {
            fork: Some(fork),
            ..Task::fresh(id, state, forces)
        }
    }
}

/// Up to 64 sibling paths from one fork, simulated together in cohort
/// eval mode. Lane `l` is path `first + l` taking branch combination
/// `base_combo + l` over `signals`.
#[derive(Debug)]
struct CohortTask {
    first: u64,
    base_combo: usize,
    n: usize,
    state: SimState,
    signals: Vec<NetId>,
    /// Fork provenance for the dequeue-time pre-split subsumption screen,
    /// as in [`Task::fork`]; `None` once the member lanes have been
    /// screened (re-packed survivor runs).
    fork: Option<(CsmKey, usize)>,
}

/// A quiescent `$monitor_x` halt state awaiting its CSM observation —
/// produced by cohort lane demux so the observation happens at the same
/// scheduler position (and therefore in the same DFS order) as the
/// equivalent event-mode segment's inline observation.
#[derive(Debug)]
struct ObserveTask {
    id: u64,
    state: SimState,
    /// Segment cycles the lane consumed, for the `path_end` record.
    cycles: u64,
}

/// A schedulable work item. Event/batch/hybrid modes only ever queue
/// `Seg`; cohort mode adds cohort simulation items and deferred CSM
/// observations. With one worker the LIFO pop order over these items
/// reproduces event mode's depth-first CSM observation sequence exactly
/// (cohort items push their per-lane continuations in ascending lane
/// order, so the highest lane — the one event mode would pop first —
/// resolves first).
#[derive(Debug)]
enum Work {
    Seg(Task),
    Cohort(CohortTask),
    Observe(ObserveTask),
}

impl TaskWeight for Work {
    /// A cohort carries all of its member paths; everything else is one.
    fn weight(&self) -> usize {
        match self {
            Work::Cohort(c) => c.n,
            Work::Seg(_) | Work::Observe(_) => 1,
        }
    }
}

// the engine and the registry accumulate the dirty-fraction distribution
// with the same decile bucket layout; folding relies on that
const _: () = assert!(DIRTY_PCT_BUCKETS == symsim_sim::DIRTY_PCT_BUCKETS);

/// Algorithm 1 of the paper: symbolic hardware-software co-analysis.
///
/// Drives a [`Simulator`] over every feasible execution path of the loaded
/// application, managing conservative states through a
/// [`ConservativeStateManager`], and accumulates the toggle profile that
/// yields the exercisable-gate dichotomy.
#[derive(Debug)]
pub struct CoAnalysis<'n> {
    netlist: &'n Netlist,
    iface: DesignInterface,
    config: CoAnalysisConfig,
}

impl<'n> CoAnalysis<'n> {
    /// Prepares a co-analysis of `netlist` with the given interface.
    ///
    /// The configured constraints are validated against the design here —
    /// a constraint naming a net outside the netlist, pinning an unknown
    /// value, or contradicting another constraint is an error up front
    /// rather than a panic in the middle of exploration.
    pub fn new(
        netlist: &'n Netlist,
        iface: DesignInterface,
        config: CoAnalysisConfig,
    ) -> Result<CoAnalysis<'n>, String> {
        validate_constraints(&config.constraints, netlist.net_count())?;
        Ok(CoAnalysis {
            netlist,
            iface,
            config,
        })
    }

    /// Runs the complete co-analysis.
    ///
    /// `prepare` must bring a fresh simulator to the start-of-application
    /// state: load the program image, drive reset, and replace application
    /// inputs with `X`s (the testbench duties of paper Listing 1). It is
    /// invoked once per worker and must be deterministic.
    pub fn run<F>(&self, prepare: F) -> CoAnalysisReport
    where
        F: Fn(&mut Simulator<'_>) + Sync,
    {
        let start = Instant::now();
        let _span = trace::span("analysis");
        let workers = self.config.workers.max(1);
        let registry = self
            .config
            .metrics
            .clone()
            .unwrap_or_else(|| Arc::new(MetricsRegistry::new(workers)));
        // the path cap is enforced with a CAS grant loop on this dedicated
        // counter; the `paths_created` counter in the registry is bumped
        // when a path starts simulating instead, so children killed by
        // pre-split subsumption consume id budget but are never counted
        let created = AtomicUsize::new(0);
        let csm = Mutex::new({
            let mut c = ConservativeStateManager::new(self.config.policy);
            c.set_constraints(self.config.constraints.clone(), self.netlist.net_count())
                .expect("constraints were validated in CoAnalysis::new");
            c.set_metrics(Arc::clone(&registry));
            c.set_profile(self.config.trace.is_some());
            c
        });
        if let Some(tr) = &self.config.trace {
            tr.emit_meta(&self.netlist.name, workers);
        }
        info!(
            "analysis.start",
            { design = self.netlist.name.as_str(), workers = workers, max_paths = self.config.max_paths },
            "co-analysis of {} starting", self.netlist.name
        );

        // root task from a freshly prepared simulator
        let root_state = {
            let mut sim = self.make_sim(&prepare);
            sim.save_state()
        };
        // the provenance collector seeds synthetic reset attributions from
        // the root snapshot — the same values ToggleProfile::baseline marks
        // toggled at arm time, since workers prepare deterministically
        let prov = self
            .config
            .sim
            .attribution
            .then(|| Mutex::new(Collector::new(&self.netlist.name, root_state.clone())));
        created.fetch_add(1, Ordering::Relaxed);
        let queue: WorkQueue<Work> = WorkQueue::with_metrics(workers, Arc::clone(&registry));
        queue.inject(Work::Seg(Task::fresh(0, root_state, Vec::new())));

        let profiles = Mutex::new(Vec::<ToggleProfile>::new());
        let activities = Mutex::new(Vec::<symsim_sim::ActivityStats>::new());

        std::thread::scope(|scope| {
            for w in 0..workers {
                let queue = &queue;
                let csm = &csm;
                let created = &created;
                let registry = &registry;
                let profiles = &profiles;
                let activities = &activities;
                let prepare = &prepare;
                let prov = &prov;
                scope.spawn(move || {
                    if self.config.trace.is_some() {
                        tracefile::set_thread_worker(w as i64);
                    }
                    let mut sim = self.make_sim(prepare);
                    self.worker_loop(w, &mut sim, queue, csm, created, registry, prov.as_ref());
                    // engine statistics are plain fields (no hot-path
                    // atomics); each worker drains its own once at exit
                    let stats = sim.engine_stats();
                    let shard = registry.shard(w);
                    shard.add(CounterId::BatchedLevelEvals, stats.batched_level_evals);
                    shard.add(CounterId::EventEvals, stats.event_evals);
                    shard.add(CounterId::ForcedWrites, stats.forced_writes);
                    for (bucket, &n) in stats.dirty_pct_hist.iter().enumerate() {
                        shard.observe_bucket(HistogramId::DirtyFractionPct, bucket, n);
                    }
                    if let Some(p) = sim.take_toggle_profile() {
                        profiles.lock().unwrap().push(p);
                    }
                    if let Some(a) = sim.take_activity() {
                        activities.lock().unwrap().push(a);
                    }
                });
            }
        });

        let mut profiles = profiles.into_inner().unwrap();
        let mut profile = profiles.pop().expect("at least one worker profile");
        for p in &profiles {
            profile.merge(p);
        }
        let mut activities = activities.into_inner().unwrap();
        let activity = activities.pop().map(|mut first| {
            for a in &activities {
                first.merge(a);
            }
            first
        });
        let csm = csm.into_inner().unwrap();
        // the repository-size gauges are updated on widenings only; pin them
        // to the authoritative values before the final snapshot
        registry
            .shard(0)
            .gauge_set(GaugeId::CsmStoredStates, csm.stored_states() as i64);
        registry
            .shard(0)
            .gauge_set(GaugeId::CsmDistinctPcs, csm.distinct_pcs() as i64);
        let metrics = registry.snapshot();
        // resolve provenance winners and dump the end-of-run cover_first
        // records before the caller finishes the trace sink
        let provenance = prov.map(|p| {
            let map = p.into_inner().unwrap().resolve();
            if let Some(t) = &self.config.trace {
                map.emit_cover_first(t);
            }
            map
        });
        let report = CoAnalysisReport::assemble(
            self.netlist,
            profile,
            activity,
            metrics,
            provenance,
            self.config.sim.eval_mode.name(),
            start.elapsed(),
            workers,
        );
        info!(
            "analysis.done",
            {
                paths_created = report.paths_created,
                paths_skipped = report.paths_skipped,
                paths_finished = report.paths_finished,
                cycles = report.simulated_cycles,
                distinct_pcs = report.distinct_pcs
            },
            "co-analysis of {} done in {:?}", report.design, report.wall_time
        );
        report
    }

    fn make_sim<F>(&self, prepare: &F) -> Simulator<'n>
    where
        F: Fn(&mut Simulator<'_>),
    {
        let mut sim_config = self.config.sim;
        // tracing needs the engine's settle/batch/event timers
        sim_config.profile_phases |= self.config.trace.is_some();
        let mut sim = Simulator::new(self.netlist, sim_config);
        prepare(&mut sim);
        sim.settle();
        sim.monitor_x(self.iface.monitor.clone());
        sim.set_finish_net(self.iface.finish);
        sim.arm_toggle_observer();
        if let Some(weights) = &self.config.activity_weights {
            sim.attach_activity_observer(weights.clone());
        }
        sim
    }

    #[allow(clippy::too_many_arguments)]
    fn worker_loop(
        &self,
        worker: usize,
        sim: &mut Simulator<'_>,
        queue: &WorkQueue<Work>,
        csm: &Mutex<ConservativeStateManager>,
        created: &AtomicUsize,
        registry: &Arc<MetricsRegistry>,
        prov: Option<&Mutex<Collector>>,
    ) {
        let tracing = self.config.trace.is_some();
        loop {
            // time spent waiting on (or stealing from) the scheduler is a
            // phase of its own; the final pop that observes shutdown is not
            // recorded because there is no segment to attribute it to
            let wait_t0 = tracing.then(Instant::now);
            let Some(work) = queue.next_task(worker) else {
                break;
            };
            let wait_us = elapsed_us(wait_t0);
            if tracing {
                registry
                    .shard(worker)
                    .observe(HistogramId::PhaseSchedWaitUs, wait_us);
            }
            let weight = work.weight();
            match work {
                Work::Seg(task) => {
                    self.run_segment(
                        worker, sim, task, wait_us, queue, csm, created, registry, prov,
                    );
                }
                Work::Cohort(task) => {
                    self.run_cohort(worker, sim, task, queue, csm, registry, prov);
                }
                Work::Observe(task) => {
                    self.run_observe(worker, task, queue, csm, created, registry, prov);
                }
            }
            queue.task_done(weight);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_segment(
        &self,
        worker: usize,
        sim: &mut Simulator<'_>,
        task: Task,
        wait_us: u64,
        queue: &WorkQueue<Work>,
        csm: &Mutex<ConservativeStateManager>,
        created: &AtomicUsize,
        registry: &Arc<MetricsRegistry>,
        prov: Option<&Mutex<Collector>>,
    ) -> PathOutcome {
        let _span = trace::span("segment");
        let tr = self.config.trace.as_deref();
        let shard = registry.shard(worker);
        // dequeue-time pre-split subsumption: under depth-first pop order
        // a sibling's subtree runs to exhaustion before this queued child
        // comes up, and the widenings it caused at the fork PC may by now
        // cover this child's start state — kill it before it costs a
        // segment. `covered_presplit` only ever fires under the adaptive
        // policy; the gate here just avoids the probe clone elsewhere
        if let Some((key, born_seq)) = &task.fork {
            if matches!(self.config.policy, CsmPolicy::Adaptive { .. }) {
                let csm_t0 = tr.map(|_| Instant::now());
                let mut probe = task.state.clone();
                for &(net, value) in &task.forces {
                    probe.values[net.0 as usize] = value;
                }
                let covered = csm.lock().unwrap().covered_presplit(key, &probe, *born_seq);
                if covered {
                    shard.inc(CounterId::PathsKilledPresplit);
                    if let Some(t) = tr {
                        let pc_label = key.to_string();
                        t.emit(worker as i64, "csm", |o| {
                            o.u64("path", task.id)
                                .str("pc", &pc_label)
                                .str("kind", "kill")
                                .u64("dur_us", elapsed_us(csm_t0));
                        });
                    }
                    debug!(
                        "path.presplit_kill",
                        { worker = worker, path = task.id },
                        "queued child covered by a later-formed conservative state"
                    );
                    return PathOutcome::Killed;
                }
            }
        }
        shard.inc(CounterId::PathsSimulated);
        // a path is "created" when it actually starts simulating; spilled
        // cohort lanes (carried > 0) were counted when their cohort began
        if task.carried == 0 {
            shard.inc(CounterId::PathsCreated);
        }
        let seg_t0 = tr.map(|_| Instant::now());
        let engine_before = tr.map(|_| sim.engine_stats());

        let restore_t0 = tr.map(|_| Instant::now());
        sim.load_state(&task.state);
        let restore_us = elapsed_us(restore_t0);
        let seg_start = sim.cycle();
        // a spilled lane's path_start was already emitted when its cohort
        // began; its continuation is the same traced segment
        if task.carried == 0 {
            if let Some(t) = tr {
                t.emit(worker as i64, "path_start", |o| {
                    o.u64("path", task.id).u64("cycle", seg_start);
                });
            }
        }

        // steer the non-deterministic branch down this task's outcome
        let exec_t0 = tr.map(|_| Instant::now());
        let mut pending: Option<HaltReason> = None;
        if !task.forces.is_empty() {
            for &(net, value) in &task.forces {
                sim.force(net, value);
            }
            sim.settle();
            pending = sim.step_cycle();
            sim.release_all();
        }

        let reason = match pending.take() {
            Some(r) => r,
            None => sim.run(task.budget.unwrap_or(self.config.max_cycles_per_segment)),
        };
        let exec_us = elapsed_us(exec_t0);
        let mut save_us = 0u64;
        let mut csm_us = 0u64;
        let outcome = match reason {
            HaltReason::Finished => {
                shard.inc(CounterId::PathsFinished);
                debug!(
                    "path.complete",
                    { worker = worker },
                    "path ran the application to completion"
                );
                PathOutcome::Finished
            }
            HaltReason::MaxCycles => {
                shard.inc(CounterId::PathsBudgetExhausted);
                debug!(
                    "path.budget",
                    { worker = worker, budget = self.config.max_cycles_per_segment },
                    "path abandoned on the per-segment cycle budget"
                );
                PathOutcome::Budget
            }
            HaltReason::MonitorX { .. } => {
                let pc = sim.read_bus(&self.iface.pc);
                let save_t0 = tr.map(|_| Instant::now());
                let state = sim.save_state();
                save_us = elapsed_us(save_t0);
                let key = pc_key(&pc);
                // the key renders to a string only when tracing
                let pc_label = tr.map(|_| key.to_string());
                let csm_t0 = tr.map(|_| Instant::now());
                let (observation, demotion, born_seq) = {
                    let mut guard = csm.lock().unwrap();
                    let obs = guard.observe_key(key.clone(), &state);
                    (obs, guard.take_demotion(), guard.formation_seq())
                };
                csm_us = elapsed_us(csm_t0);
                match observation {
                    Observation::Covered => {
                        shard.inc(CounterId::PathsSkipped);
                        if let Some(t) = tr {
                            t.emit(worker as i64, "csm", |o| {
                                o.u64("path", task.id)
                                    .str("pc", pc_label.as_deref().unwrap_or(""))
                                    .str("kind", "cover")
                                    .u64("dur_us", csm_us);
                            });
                        }
                        debug!(
                            "path.skip",
                            { worker = worker },
                            "halted state covered; path skipped"
                        );
                        PathOutcome::Covered
                    }
                    Observation::NewConservative(cons) => {
                        if let Some(t) = tr {
                            t.emit(worker as i64, "csm", |o| {
                                o.u64("path", task.id)
                                    .str("pc", pc_label.as_deref().unwrap_or(""))
                                    .str("kind", "widen")
                                    .u64("dur_us", csm_us);
                            });
                            if let Some(d) = demotion {
                                t.emit(worker as i64, "csm", |o| {
                                    o.u64("path", task.id)
                                        .str("pc", pc_label.as_deref().unwrap_or(""))
                                        .str("kind", "demote")
                                        .u64("slots", d.slots_collapsed as u64)
                                        .u64("dur_us", 0);
                                });
                            }
                        }
                        let children = self.spawn_children(
                            worker,
                            task.id,
                            pc_label.as_deref(),
                            &key,
                            &cons,
                            born_seq,
                            queue,
                            created,
                            registry,
                            prov,
                        );
                        PathOutcome::Split(children)
                    }
                }
            }
        };
        // a spilled lane's cohort cycles are carried into its continuation
        // so each path's cycle totals match a never-spilled run
        let seg_cycles = (sim.cycle() - seg_start) + task.carried;
        shard.add(CounterId::Cycles, seg_cycles);
        shard.observe(HistogramId::SegmentCycles, seg_cycles);
        if let Some(p) = prov {
            // drain this segment's first-toggle buffer; a spilled-lane
            // continuation (carried > 0) was already counted as a path when
            // its cohort packed, so it only contributes cycles here
            let obs: Vec<(u64, NetId, u64)> = sim
                .take_first_toggles()
                .unwrap_or_default()
                .into_iter()
                .map(|(net, cycle)| (task.id, net, cycle))
                .collect();
            p.lock().unwrap().submit(
                &obs,
                u64::from(task.carried == 0),
                seg_cycles,
                worker as i64,
                tr,
            );
        }
        if let Some(t) = tr {
            // engine-internal phase time is the delta of the simulator's
            // plain ns accumulators across the segment
            let before = engine_before.expect("taken when tracing");
            let after = sim.engine_stats();
            let settle_us = after.settle_ns.saturating_sub(before.settle_ns) / 1_000;
            let batch_us = after.batch_eval_ns.saturating_sub(before.batch_eval_ns) / 1_000;
            let event_us = after.event_eval_ns.saturating_sub(before.event_eval_ns) / 1_000;
            let seg_us = elapsed_us(seg_t0);
            shard.observe(HistogramId::PhaseSettleUs, settle_us);
            shard.observe(HistogramId::PhaseBatchEvalUs, batch_us);
            shard.observe(HistogramId::PhaseEventEvalUs, event_us);
            shard.observe(HistogramId::PhaseRestoreUs, restore_us);
            if save_us > 0 {
                shard.observe(HistogramId::PhaseSaveUs, save_us);
            }
            let children = match outcome {
                PathOutcome::Split(n) => n as u64,
                _ => 0,
            };
            t.emit(worker as i64, "path_end", |o| {
                o.u64("path", task.id)
                    .str("outcome", outcome_name(outcome))
                    .u64("cycles", seg_cycles)
                    .u64("children", children)
                    .u64("restore_us", restore_us)
                    .u64("exec_us", exec_us)
                    .u64("save_us", save_us)
                    .u64("csm_us", csm_us)
                    .u64("settle_us", settle_us)
                    .u64("batch_us", batch_us)
                    .u64("event_us", event_us)
                    .u64("wait_us", wait_us)
                    .u64("seg_us", seg_us);
            });
        }
        outcome
    }

    /// Simulates all member lanes of a cohort in one bit-plane pass, then
    /// demuxes each lane back into its own path outcome: finished/budget
    /// lanes close immediately, `$monitor_x` lanes queue an [`ObserveTask`]
    /// for their CSM observation, and spilled lanes queue a scalar
    /// continuation [`Task`] carrying the remaining segment budget.
    /// Continuations are pushed in ascending lane order so the LIFO pop
    /// resolves the highest lane first — the order event mode's scalar
    /// children would have run in.
    ///
    /// When the pack eligibility checks fail (symbol-carrying base state,
    /// non-anonymous policy, ...) the members fall back to exact scalar
    /// segments, also in lane order.
    #[allow(clippy::too_many_arguments)]
    fn run_cohort(
        &self,
        worker: usize,
        sim: &mut Simulator<'_>,
        task: CohortTask,
        queue: &WorkQueue<Work>,
        csm: &Mutex<ConservativeStateManager>,
        registry: &Arc<MetricsRegistry>,
        prov: Option<&Mutex<Collector>>,
    ) {
        let _span = trace::span("cohort");
        let tr = self.config.trace.as_deref();
        let shard = registry.shard(worker);
        let forces_of = |lane: usize| -> Vec<(NetId, Value)> {
            let combo = task.base_combo + lane;
            task.signals
                .iter()
                .enumerate()
                .map(|(j, &net)| (net, Value::from_bool(combo >> j & 1 == 1)))
                .collect()
        };
        // dequeue-time pre-split subsumption, lane by lane (the cohort
        // analogue of the screen at the top of `run_segment`): when any
        // lane is killed, the survivors are re-queued as maximal
        // contiguous lane runs with the check spent (`fork: None`) so the
        // bit-plane pass only carries lanes that still matter
        if let Some((key, born_seq)) = &task.fork {
            if matches!(self.config.policy, CsmPolicy::Adaptive { .. }) {
                let survivors: Vec<usize> = {
                    let guard = csm.lock().unwrap();
                    let mut probe = task.state.clone();
                    (0..task.n)
                        .filter(|&l| {
                            let combo = task.base_combo + l;
                            for (j, &net) in task.signals.iter().enumerate() {
                                probe.values[net.0 as usize] =
                                    Value::from_bool(combo >> j & 1 == 1);
                            }
                            !guard.covered_presplit(key, &probe, *born_seq)
                        })
                        .collect()
                };
                let killed = task.n - survivors.len();
                if killed > 0 {
                    shard.add(CounterId::PathsKilledPresplit, killed as u64);
                    debug!(
                        "path.presplit_kill",
                        { worker = worker, killed = killed, members = task.n },
                        "cohort lanes covered by a later-formed conservative state"
                    );
                    if let Some(t) = tr {
                        let pc_label = key.to_string();
                        let mut alive = vec![false; task.n];
                        for &l in &survivors {
                            alive[l] = true;
                        }
                        for (l, alive) in alive.iter().enumerate() {
                            if !alive {
                                t.emit(worker as i64, "csm", |o| {
                                    o.u64("path", task.first + l as u64)
                                        .str("pc", &pc_label)
                                        .str("kind", "kill")
                                        .u64("dur_us", 0);
                                });
                            }
                        }
                    }
                    let mut items: Vec<Work> = Vec::new();
                    let mut idx = 0usize;
                    while idx < survivors.len() {
                        let mut len = 1usize;
                        while idx + len < survivors.len()
                            && survivors[idx + len] == survivors[idx] + len
                        {
                            len += 1;
                        }
                        if len >= 2 {
                            items.push(Work::Cohort(CohortTask {
                                first: task.first + survivors[idx] as u64,
                                base_combo: task.base_combo + survivors[idx],
                                n: len,
                                state: task.state.clone(),
                                signals: task.signals.clone(),
                                fork: None,
                            }));
                        } else {
                            let l = survivors[idx];
                            items.push(Work::Seg(Task::fresh(
                                task.first + l as u64,
                                task.state.clone(),
                                forces_of(l),
                            )));
                        }
                        idx += len;
                    }
                    queue.push_local(worker, items);
                    return;
                }
            }
        }
        let Some(mut cohort) = sim.cohort_pack(&task.state, task.n) else {
            debug!(
                "cohort.fallback",
                { worker = worker, members = task.n },
                "cohort ineligible; members run as scalar segments"
            );
            queue.push_local(
                worker,
                (0..task.n).map(|l| {
                    Work::Seg(Task::fresh(
                        task.first + l as u64,
                        task.state.clone(),
                        forces_of(l),
                    ))
                }),
            );
            return;
        };
        shard.inc(CounterId::CohortsFormed);
        shard.add(CounterId::CohortMemberPaths, task.n as u64);
        // every member lane starts simulating here (spilled lanes continue
        // in a Seg with `carried > 0`, which does not re-count)
        shard.add(CounterId::PathsCreated, task.n as u64);
        shard.observe(HistogramId::CohortLaneOccupancy, task.n as u64);
        if let Some(t) = tr {
            let members: Vec<u64> = (0..task.n).map(|l| task.first + l as u64).collect();
            t.emit(worker as i64, "cohort", |o| {
                o.u64("first", task.first)
                    .u64("n", task.n as u64)
                    .u64_array("members", &members);
            });
            for &id in &members {
                t.emit(worker as i64, "path_start", |o| {
                    o.u64("path", id).u64("cycle", task.state.cycle);
                });
            }
        }
        // steer each lane down its branch combination: signal `j` carries
        // bit `j` of the lane's combo
        for (j, &net) in task.signals.iter().enumerate() {
            let mut lanes = Lanes::ZEROS;
            for l in 0..task.n {
                let bit = (task.base_combo + l) >> j & 1 == 1;
                lanes.set(l as u32, Value::from_bool(bit));
            }
            sim.cohort_force(&mut cohort, net, lanes);
        }
        sim.cohort_run(&mut cohort, self.config.max_cycles_per_segment);
        debug!(
            "cohort.done",
            { worker = worker, members = task.n },
            "cohort settled all member lanes"
        );
        let mut continuations: Vec<Work> = Vec::new();
        for l in 0..task.n {
            let id = task.first + l as u64;
            let lane_cycles = cohort.lane_cycles(l);
            let close = |outcome: PathOutcome, counter: CounterId| {
                shard.inc(CounterId::PathsSimulated);
                shard.inc(counter);
                shard.add(CounterId::Cycles, lane_cycles);
                shard.observe(HistogramId::SegmentCycles, lane_cycles);
                if let Some(t) = tr {
                    t.emit(worker as i64, "path_end", |o| {
                        o.u64("path", id)
                            .str("outcome", outcome_name(outcome))
                            .u64("cycles", lane_cycles)
                            .u64("children", 0);
                    });
                }
            };
            match cohort.outcome(l) {
                CohortLaneEnd::Finished => close(PathOutcome::Finished, CounterId::PathsFinished),
                CohortLaneEnd::Budget => {
                    close(PathOutcome::Budget, CounterId::PathsBudgetExhausted);
                }
                CohortLaneEnd::MonitorX => {
                    shard.inc(CounterId::PathsSimulated);
                    shard.add(CounterId::Cycles, lane_cycles);
                    shard.observe(HistogramId::SegmentCycles, lane_cycles);
                    continuations.push(Work::Observe(ObserveTask {
                        id,
                        state: sim.cohort_unpack(&cohort, l),
                        cycles: lane_cycles,
                    }));
                }
                CohortLaneEnd::Spilled => {
                    // the continuation does all of this segment's counting
                    // (PathsSimulated, Cycles, SegmentCycles) via `carried`
                    shard.inc(CounterId::CohortLaneSpills);
                    let total = 1 + self.config.max_cycles_per_segment;
                    continuations.push(Work::Seg(Task {
                        id,
                        state: sim.cohort_unpack(&cohort, l),
                        forces: Vec::new(),
                        budget: Some(total.saturating_sub(lane_cycles)),
                        carried: lane_cycles,
                        fork: None,
                    }));
                }
                CohortLaneEnd::Running => unreachable!("cohort_run ends every lane"),
            }
        }
        if let Some(p) = prov {
            // demux the cohort's per-lane first-toggle log: lane `l` is path
            // `first + l`. Spilled lanes defer their cycle accounting to the
            // scalar continuation (which carries them), matching the Cycles
            // counter; all member paths count now, matching PathsCreated.
            let mut obs: Vec<(u64, NetId, u64)> = Vec::new();
            for (net, lanes, cycle) in cohort.take_first_toggles() {
                for l in 0..task.n {
                    if lanes >> l & 1 == 1 {
                        obs.push((task.first + l as u64, NetId(net), cycle));
                    }
                }
            }
            let closed_cycles: u64 = (0..task.n)
                .filter(|&l| !matches!(cohort.outcome(l), CohortLaneEnd::Spilled))
                .map(|l| cohort.lane_cycles(l))
                .sum();
            p.lock()
                .unwrap()
                .submit(&obs, task.n as u64, closed_cycles, worker as i64, tr);
        }
        queue.push_local(worker, continuations);
    }

    /// Resolves a deferred CSM observation for a cohort lane's halt state:
    /// the covered/widen decision, skip accounting, and child spawning —
    /// exactly the `MonitorX` tail of [`CoAnalysis::run_segment`], at the
    /// same depth-first scheduler position.
    #[allow(clippy::too_many_arguments)]
    fn run_observe(
        &self,
        worker: usize,
        task: ObserveTask,
        queue: &WorkQueue<Work>,
        csm: &Mutex<ConservativeStateManager>,
        created: &AtomicUsize,
        registry: &Arc<MetricsRegistry>,
        prov: Option<&Mutex<Collector>>,
    ) {
        let tr = self.config.trace.as_deref();
        let shard = registry.shard(worker);
        let pc: Word = self
            .iface
            .pc
            .iter()
            .map(|&n| task.state.values[n.0 as usize])
            .collect();
        let key = pc_key(&pc);
        let pc_label = tr.map(|_| key.to_string());
        let csm_t0 = tr.map(|_| Instant::now());
        let (observation, demotion, born_seq) = {
            let mut guard = csm.lock().unwrap();
            let obs = guard.observe_key(key.clone(), &task.state);
            (obs, guard.take_demotion(), guard.formation_seq())
        };
        let csm_us = elapsed_us(csm_t0);
        let (outcome, children) = match observation {
            Observation::Covered => {
                shard.inc(CounterId::PathsSkipped);
                if let Some(t) = tr {
                    t.emit(worker as i64, "csm", |o| {
                        o.u64("path", task.id)
                            .str("pc", pc_label.as_deref().unwrap_or(""))
                            .str("kind", "cover")
                            .u64("dur_us", csm_us);
                    });
                }
                debug!(
                    "path.skip",
                    { worker = worker },
                    "halted state covered; path skipped"
                );
                (PathOutcome::Covered, 0)
            }
            Observation::NewConservative(cons) => {
                if let Some(t) = tr {
                    t.emit(worker as i64, "csm", |o| {
                        o.u64("path", task.id)
                            .str("pc", pc_label.as_deref().unwrap_or(""))
                            .str("kind", "widen")
                            .u64("dur_us", csm_us);
                    });
                    if let Some(d) = demotion {
                        t.emit(worker as i64, "csm", |o| {
                            o.u64("path", task.id)
                                .str("pc", pc_label.as_deref().unwrap_or(""))
                                .str("kind", "demote")
                                .u64("slots", d.slots_collapsed as u64)
                                .u64("dur_us", 0);
                        });
                    }
                }
                let n = self.spawn_children(
                    worker,
                    task.id,
                    pc_label.as_deref(),
                    &key,
                    &cons,
                    born_seq,
                    queue,
                    created,
                    registry,
                    prov,
                );
                (PathOutcome::Split(n), n)
            }
        };
        if let Some(t) = tr {
            t.emit(worker as i64, "path_end", |o| {
                o.u64("path", task.id)
                    .str("outcome", outcome_name(outcome))
                    .u64("cycles", task.cycles)
                    .u64("children", children as u64)
                    .u64("csm_us", csm_us);
            });
        }
    }

    /// Pushes one child task per concretization of the unknown monitored
    /// control signals in the conservative state, clamped to the remaining
    /// `max_paths` budget; dropped children are counted, never silently
    /// lost. Each child carries its fork's CSM key and formation sequence
    /// number (`born_seq`) so the dequeue-time pre-split subsumption screen
    /// can kill it if a conservative state formed after this fork covers
    /// its start state (`paths_killed_presplit`) — the halt-time cover
    /// check would only catch that one full segment later. In cohort eval
    /// mode, siblings are packed into cohort work items (up to 64 lanes
    /// each) instead of individual segments.
    #[allow(clippy::too_many_arguments)]
    fn spawn_children(
        &self,
        worker: usize,
        parent: u64,
        pc_label: Option<&str>,
        key: &CsmKey,
        cons: &SimState,
        born_seq: usize,
        queue: &WorkQueue<Work>,
        created: &AtomicUsize,
        registry: &Arc<MetricsRegistry>,
        prov: Option<&Mutex<Collector>>,
    ) -> usize {
        let mut xs: Vec<NetId> = Vec::new();
        if let Some(q) = self.iface.monitor.qualifier {
            if cons.values[q.0 as usize].is_unknown() {
                xs.push(q);
            }
        }
        let candidates = self
            .iface
            .split_signals
            .as_deref()
            .unwrap_or(&self.iface.monitor.signals);
        for &s in candidates {
            if cons.values[s.0 as usize].is_unknown() {
                xs.push(s);
            }
        }
        xs.truncate(self.config.max_split_signals);
        let combos = 1usize << xs.len();
        let shard = registry.shard(worker);
        // the fan-out histogram records the branch's concretization count
        // at fork time, before the path cap clamps it — the cohort sizing
        // (and lane-occupancy analysis) depends on it
        shard.observe(HistogramId::SplitFanout, combos as u64);
        let want = combos;

        // claim budget from the path cap *before* materializing children so
        // `paths_created` can never overshoot `max_paths`; the claimed range
        // `first..first + granted` doubles as the children's path ids
        let (first, granted) = loop {
            let so_far = created.load(Ordering::SeqCst);
            let remaining = self.config.max_paths.saturating_sub(so_far);
            let grant = want.min(remaining);
            if grant == 0 {
                break (so_far, 0);
            }
            if created
                .compare_exchange(so_far, so_far + grant, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break (so_far, grant);
            }
        };
        if granted < want {
            shard.add(CounterId::PathsDropped, (want - granted) as u64);
        }
        debug!(
            "path.fork",
            { worker = worker, children = granted, dropped = want - granted },
            "path split at a non-deterministic branch"
        );
        if granted == 0 {
            return 0;
        }
        if let Some(p) = prov {
            // one fork record reconstructs every child: child `first + i`
            // takes combination `i`, and the conservative state is a
            // copy-on-write clone shared with the child tasks below
            p.lock().unwrap().record_fork(
                parent,
                key.to_string(),
                first as u64,
                granted as u64,
                xs.clone(),
                cons.clone(),
            );
        }
        // `paths_created` is counted when a child actually starts (or when
        // its cohort packs), not here: children killed by the dequeue-time
        // subsumption screen consume id budget but are never counted
        if let Some(t) = self.config.trace.as_deref() {
            // one record per fork: child `first + i` takes branch
            // combination `i` in ascending order (bit j of a combo is the
            // value forced on `signals[j]`), so the per-child assignment
            // needs no per-child records
            let signals: Vec<u64> = xs.iter().map(|n| n.0 as u64).collect();
            t.emit(worker as i64, "fork", |o| {
                o.u64("parent", parent)
                    .str("pc", pc_label.unwrap_or(""))
                    .u64("first", first as u64)
                    .u64("n", granted as u64)
                    .u64("want", combos as u64)
                    .u64_array("signals", &signals);
            });
        }
        let fork = (key.clone(), born_seq);
        let cohort_ok = self.config.sim.eval_mode == EvalMode::Cohort
            && granted >= 2
            && self.config.activity_weights.is_none();
        if cohort_ok {
            // chunk the children into 64-lane cohorts (lane `l` of a chunk
            // is combo `base_combo + l`), chunks in ascending combo order:
            // LIFO pops the highest chunk (then the highest lane) first,
            // matching the scalar pop order combo-for-combo
            let mut items: Vec<Work> = Vec::new();
            let mut idx = 0usize;
            while idx < granted {
                let len = (granted - idx).min(64);
                if len >= 2 {
                    items.push(Work::Cohort(CohortTask {
                        first: (first + idx) as u64,
                        base_combo: idx,
                        n: len,
                        // cheap: copy-on-write pages, only dirty pages split
                        state: cons.clone(),
                        signals: xs.clone(),
                        fork: Some(fork.clone()),
                    }));
                } else {
                    let forces = xs
                        .iter()
                        .enumerate()
                        .map(|(i, &net)| (net, Value::from_bool(idx >> i & 1 == 1)))
                        .collect();
                    items.push(Work::Seg(Task::forked(
                        (first + idx) as u64,
                        cons.clone(),
                        forces,
                        fork.clone(),
                    )));
                }
                idx += len;
            }
            queue.push_local(worker, items);
        } else {
            queue.push_local(
                worker,
                (0..granted).map(|i| {
                    let forces = xs
                        .iter()
                        .enumerate()
                        .map(|(j, &net)| (net, Value::from_bool(i >> j & 1 == 1)))
                        .collect();
                    // cheap: copy-on-write pages, only dirty pages ever split
                    Work::Seg(Task::forked(
                        (first + i) as u64,
                        cons.clone(),
                        forces,
                        fork.clone(),
                    ))
                }),
            );
        }
        granted
    }
}

/// Microseconds since `t0`, or 0 when phase timing is off.
fn elapsed_us(t0: Option<Instant>) -> u64 {
    t0.map_or(0, |t| t.elapsed().as_micros() as u64)
}

/// The stable outcome name used in `path_end` trace records
/// ([`symsim_obs::tracefile::Outcome`] parses these back).
fn outcome_name(outcome: PathOutcome) -> &'static str {
    match outcome {
        PathOutcome::Finished => "finished",
        PathOutcome::Covered => "covered",
        PathOutcome::Split(_) => "split",
        PathOutcome::Budget => "budget",
        // killed paths never simulate, so no `path_end` carries this name
        PathOutcome::Killed => "killed",
    }
}

/// Canonical CSM key for a PC value: the integer when fully known, the
/// bit pattern otherwise — no string formatting on the hot path.
fn pc_key(pc: &Word) -> CsmKey {
    match pc.to_u64() {
        Some(v) => CsmKey::Concrete(v),
        None => CsmKey::Pattern(pc.iter().copied().collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsim_netlist::RtlBuilder;

    /// A miniature "processor": 3-bit PC counting up; at PC==2 a branch on
    /// an X input either jumps back to 0 or continues; finish at PC==5.
    fn branchy_design() -> (Netlist, DesignInterface) {
        let mut b = RtlBuilder::new("branchy");
        let cond_in = b.input("cond_in", 1);
        let pc = b.reg("pc", 3, 0);
        let pcq = pc.q.clone();
        let one3 = b.const_word(1, 3);
        let next_seq = b.add(&pcq, &one3);
        let two = b.const_word(2, 3);
        let at_branch_raw = b.eq(&pcq, &two);
        // monitored/forced nets must be the ones consumers read, so name
        // them in place via aliases that feed the datapath
        let at_branch = b.name_net("is_branch", at_branch_raw);
        let target = b.const_word(0, 3);
        let taken_raw = b.and1(at_branch, cond_in.bit(0));
        let taken = b.name_net("taken", taken_raw);
        let next = b.mux(taken, &next_seq, &target);
        b.drive_reg(pc, &next);
        let five = b.const_word(5, 3);
        let done_raw = b.eq(&pcq, &five);
        let done = b.name_net("done", done_raw);
        let done_b = symsim_netlist::Bus::from_nets(vec![done]);
        b.output("done_out", &done_b);
        let nl = b.finish().unwrap();
        let map = nl.net_name_map();
        let iface = DesignInterface {
            pc: (0..3).map(|i| map[format!("pc[{i}]").as_str()]).collect(),
            monitor: MonitorSpec {
                qualifier: Some(map["is_branch"]),
                signals: vec![map["taken"]],
            },
            split_signals: None,
            finish: map["done"],
        };
        (nl, iface)
    }

    #[test]
    fn explores_both_branch_outcomes() {
        let (nl, iface) = branchy_design();
        let config = CoAnalysisConfig {
            max_cycles_per_segment: 100,
            ..CoAnalysisConfig::default()
        };
        let analysis = CoAnalysis::new(&nl, iface, config).unwrap();
        let cond = nl.find_net("cond_in").unwrap();
        let report = analysis.run(|sim| {
            sim.poke(cond, Value::X);
        });
        // root + two children at the branch; the loop-back path re-reaches
        // the branch, is covered, and is skipped
        assert!(report.paths_created >= 3, "{report:?}");
        assert!(report.paths_skipped >= 1, "{report:?}");
        assert!(report.paths_finished >= 1, "{report:?}");
        assert_eq!(report.paths_dropped, 0, "no cap hit: {report:?}");
        assert!(report.simulated_cycles > 0);
        assert_eq!(report.total_gates, nl.total_gate_count());
        assert!(report.exercisable_gates <= report.total_gates);
        assert!(report.exercisable_gates > 0);
    }

    #[test]
    fn concrete_condition_yields_single_path() {
        let (nl, iface) = branchy_design();
        let analysis = CoAnalysis::new(&nl, iface, CoAnalysisConfig::default()).unwrap();
        let cond = nl.find_net("cond_in").unwrap();
        let report = analysis.run(|sim| {
            sim.poke(cond, Value::ZERO);
        });
        assert_eq!(report.paths_created, 1);
        assert_eq!(report.paths_skipped, 0);
        assert_eq!(report.paths_finished, 1);
    }

    #[test]
    fn parallel_matches_sequential_soundness() {
        let (nl, iface) = branchy_design();
        let cond = nl.find_net("cond_in").unwrap();
        let seq = CoAnalysis::new(&nl, iface.clone(), CoAnalysisConfig::default())
            .unwrap()
            .run(|sim| sim.poke(cond, Value::X));
        let par_cfg = CoAnalysisConfig {
            workers: 4,
            ..CoAnalysisConfig::default()
        };
        let par = CoAnalysis::new(&nl, iface, par_cfg)
            .unwrap()
            .run(|sim| sim.poke(cond, Value::X));
        // exercisable sets converge to the same fixpoint on this design
        assert_eq!(seq.exercisable_gates, par.exercisable_gates);
        assert_eq!(seq.paths_finished, par.paths_finished);
    }

    #[test]
    fn cohort_mode_matches_event_mode_exactly() {
        let (nl, iface) = branchy_design();
        let cond = nl.find_net("cond_in").unwrap();
        let run = |mode: EvalMode| {
            let registry = Arc::new(MetricsRegistry::new(1));
            let config = CoAnalysisConfig {
                sim: SimConfig {
                    eval_mode: mode,
                    ..SimConfig::default()
                },
                metrics: Some(Arc::clone(&registry)),
                ..CoAnalysisConfig::default()
            };
            let report = CoAnalysis::new(&nl, iface.clone(), config)
                .unwrap()
                .run(|sim| sim.poke(cond, Value::X));
            (report, registry)
        };
        let (event, _) = run(EvalMode::Event);
        let (cohort, reg) = run(EvalMode::Cohort);
        assert_eq!(event.paths_created, cohort.paths_created);
        assert_eq!(event.paths_skipped, cohort.paths_skipped);
        assert_eq!(event.paths_finished, cohort.paths_finished);
        assert_eq!(event.paths_simulated, cohort.paths_simulated);
        assert_eq!(event.paths_dropped, cohort.paths_dropped);
        assert_eq!(event.simulated_cycles, cohort.simulated_cycles);
        assert_eq!(
            event.metrics.counter("csm_widenings"),
            cohort.metrics.counter("csm_widenings")
        );
        assert_eq!(event.exercisable_gates, cohort.exercisable_gates);
        // the branch forks 2 children: every fork forms one 2-lane cohort
        assert!(reg.counter_total(CounterId::CohortsFormed) > 0);
        assert_eq!(
            reg.counter_total(CounterId::CohortMemberPaths),
            2 * reg.counter_total(CounterId::CohortsFormed)
        );
        // segment-cycle distributions agree sample-for-sample
        let (es, cs) = (event.metrics, cohort.metrics);
        assert_eq!(
            es.histograms[HistogramId::SegmentCycles as usize],
            cs.histograms[HistogramId::SegmentCycles as usize]
        );
        assert_eq!(
            es.histograms[HistogramId::SplitFanout as usize],
            cs.histograms[HistogramId::SplitFanout as usize]
        );
    }

    #[test]
    fn max_paths_caps_exploration() {
        let (nl, iface) = branchy_design();
        let cond = nl.find_net("cond_in").unwrap();
        let config = CoAnalysisConfig {
            max_paths: 1,
            ..CoAnalysisConfig::default()
        };
        let report = CoAnalysis::new(&nl, iface, config)
            .unwrap()
            .run(|sim| sim.poke(cond, Value::X));
        assert_eq!(report.paths_created, 1);
    }

    #[test]
    fn paths_created_never_exceeds_max_paths() {
        // regression: the cap used to be checked before the 2^n child count
        // was known, so `paths_created` could overshoot by up to 2^n - 1
        let (nl, iface) = branchy_design();
        let cond = nl.find_net("cond_in").unwrap();
        for cap in 1..=4usize {
            let config = CoAnalysisConfig {
                max_paths: cap,
                ..CoAnalysisConfig::default()
            };
            let report = CoAnalysis::new(&nl, iface.clone(), config)
                .unwrap()
                .run(|sim| sim.poke(cond, Value::X));
            assert!(
                report.paths_created <= cap,
                "cap {cap} overshot: {report:?}"
            );
            // the branch splits into 2 children; any cap that truncates the
            // full exploration must show up in the dropped counter
            if report.paths_created == cap && cap < 3 {
                assert!(report.paths_dropped > 0, "cap {cap}: {report:?}");
            }
        }
    }

    #[test]
    fn report_fields_match_metrics_snapshot() {
        let (nl, iface) = branchy_design();
        let cond = nl.find_net("cond_in").unwrap();
        let registry = Arc::new(MetricsRegistry::new(4));
        let config = CoAnalysisConfig {
            workers: 4,
            metrics: Some(Arc::clone(&registry)),
            ..CoAnalysisConfig::default()
        };
        let report = CoAnalysis::new(&nl, iface, config)
            .unwrap()
            .run(|sim| sim.poke(cond, Value::X));
        let m = &report.metrics;
        assert_eq!(m.counter("paths_created"), report.paths_created as u64);
        assert_eq!(m.counter("paths_dropped"), report.paths_dropped as u64);
        assert_eq!(m.counter("paths_skipped"), report.paths_skipped as u64);
        assert_eq!(m.counter("paths_finished"), report.paths_finished as u64);
        assert_eq!(m.counter("cycles"), report.simulated_cycles);
        assert_eq!(m.counter("batched_level_evals"), report.batched_level_evals);
        assert_eq!(m.counter("event_evals"), report.event_evals);
        // the live registry agrees with the embedded snapshot
        assert_eq!(
            registry.counter_total(CounterId::PathsCreated),
            report.paths_created as u64
        );
        // every claimed path was released and every queue drained
        assert_eq!(m.gauge("paths_live"), 0);
        assert_eq!(m.gauge("paths_queued"), 0);
        // the CSM gauges carry the authoritative end-of-run values
        assert_eq!(m.gauge("csm_distinct_pcs"), report.distinct_pcs as i64);
        // a segment ran for every simulated path
        let hist = &m.histograms[HistogramId::SegmentCycles as usize];
        assert_eq!(hist.name, "segment_cycles");
        assert_eq!(hist.samples, report.paths_simulated as u64);
    }

    #[test]
    fn traced_run_reconstructs_lineage_and_matches_report() {
        /// A `Write` the test can inspect after the run.
        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let (nl, iface) = branchy_design();
        let cond = nl.find_net("cond_in").unwrap();
        let buf = SharedBuf::default();
        let sink = Arc::new(symsim_obs::TraceSink::new(2, Box::new(buf.clone())));
        let config = CoAnalysisConfig {
            workers: 2,
            trace: Some(Arc::clone(&sink)),
            ..CoAnalysisConfig::default()
        };
        let report = CoAnalysis::new(&nl, iface, config)
            .unwrap()
            .run(|sim| sim.poke(cond, Value::X));
        let stats = sink.finish();
        assert!(stats.events > 0);
        assert_eq!(stats.dropped, 0);

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let trace = symsim_obs::Trace::parse(&text).expect("trace parses");
        let (design, workers) = trace.meta().expect("meta record");
        assert_eq!(design, "branchy");
        assert_eq!(workers, 2);
        // the traced totals equal the report's exactly
        assert_eq!(trace.paths_created(), report.paths_created as u64);
        assert_eq!(trace.total_cycles(), report.simulated_cycles);
        let oc = trace.outcome_counts();
        assert_eq!(oc.finished, report.paths_finished as u64);
        assert_eq!(oc.covered, report.paths_skipped as u64);
        assert_eq!(oc.total(), report.paths_simulated as u64);
        // the lineage is a tree rooted at path 0: the root has no fork
        // parent and every other ended path has exactly one
        let lineage = trace.lineage();
        assert!(!lineage.parent.contains_key(&0), "root must be parentless");
        for r in &trace.records {
            if let symsim_obs::TraceRecord::PathEnd { path, .. } = r {
                if *path != 0 {
                    assert!(
                        lineage.parent.contains_key(path),
                        "path {path} has no fork parent"
                    );
                }
            }
        }
        // forks happen at the branchy design's single branch PC
        let hotspots = trace.fork_hotspots();
        assert!(!hotspots.is_empty());
        // phase timings were recorded (exec covers the whole run loop)
        let phases = trace.phase_table();
        assert!(phases.iter().any(|(name, _)| *name == "exec"));
    }

    #[test]
    fn attribution_resolves_and_replays() {
        let (nl, iface) = branchy_design();
        let cond = nl.find_net("cond_in").unwrap();
        let config = CoAnalysisConfig {
            sim: SimConfig {
                attribution: true,
                ..SimConfig::default()
            },
            ..CoAnalysisConfig::default()
        };
        let report = CoAnalysis::new(&nl, iface, config)
            .unwrap()
            .run(|sim| sim.poke(cond, Value::X));
        let prov = report.provenance.as_ref().expect("attribution was on");
        // the provenance map covers exactly the toggled nets
        assert_eq!(prov.attributed_count(), report.profile.toggled_count());
        for a in prov.attributions() {
            assert!(report.profile.is_toggled(a.net), "net {}", a.net.0);
        }
        // synthetic reset attributions are exactly the baseline unknowns
        let resets: Vec<NetId> = prov
            .attributions()
            .iter()
            .filter(|a| a.reset)
            .map(|a| a.net)
            .collect();
        assert_eq!(resets, report.profile.baseline_unknowns());
        // every attribution has a lineage and a witness that replays to the
        // recorded cycle
        for a in prov.attributions() {
            assert!(prov.lineage(a.path).is_some(), "path {}", a.path);
            let w = prov.witness(a.net, nl.net_name(a.net)).unwrap();
            let back = crate::provenance::Witness::from_json(&w.to_json()).unwrap();
            let replay = crate::provenance::replay_witness(&nl, &back).unwrap();
            assert!(
                replay.ok(),
                "net {} ({}): {replay}",
                a.net.0,
                nl.net_name(a.net)
            );
        }
        // the coverage curve ends at the attributed count
        let last = prov.samples().last().unwrap();
        assert_eq!(last.covered as usize, prov.attributed_count());
        let conv = prov.convergence().unwrap();
        assert!(conv.cycles_to_50 <= conv.cycles_to_100);
        // an unattributed run carries no map
        let (nl2, iface2) = branchy_design();
        let plain = CoAnalysis::new(&nl2, iface2, CoAnalysisConfig::default())
            .unwrap()
            .run(|sim| sim.poke(nl2.find_net("cond_in").unwrap(), Value::X));
        assert!(plain.provenance.is_none());
    }

    #[test]
    fn pc_key_forms() {
        assert_eq!(pc_key(&Word::from_u64(12, 8)), CsmKey::Concrete(12));
        let mut w = Word::from_u64(0, 2);
        w.set_bit(1, Value::X);
        let CsmKey::Pattern(bits) = pc_key(&w) else {
            panic!("partially-unknown PC must key by bit pattern");
        };
        assert_eq!(&*bits, &[Value::ZERO, Value::X]);
    }
}
