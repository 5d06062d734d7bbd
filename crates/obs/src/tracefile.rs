//! Run-trace subsystem: causal NDJSON traces of a co-analysis run.
//!
//! A [`TraceSink`] records the events that make the path-lineage tree
//! reconstructible — path starts, forks (parent id, PC, forked signals),
//! CSM cover/widen decisions, path outcomes with per-phase timing — as one
//! JSON object per line. Writes go through per-worker buffered shards:
//! the hot path appends to the worker's own buffer under an uncontended
//! mutex and only drains to the shared writer opportunistically
//! (`try_lock`); a worker never blocks on another worker's flush. When a
//! shard is full *and* the writer is busy, the record is dropped and
//! counted rather than stalling simulation (drop-counted backpressure).
//! [`TraceSink::finish`] merges every shard, appends a `summary` record,
//! and returns the totals.
//!
//! Timestamps are microseconds from a single [`Instant`] taken at sink
//! creation — monotonic and shared by every worker. No timestamp is taken
//! anywhere unless a sink is installed.
//!
//! Record taxonomy (`"ev"` field): `meta`, `span_open`, `span_close`,
//! `path_start`, `fork`, `cohort`, `csm`, `path_end`, `coverage`,
//! `cover_first`, `summary`. Schema:
//! `docs/schema/trace.schema.json`. The same module reads traces back
//! ([`Trace`]) and derives the lineage tree and hot-spot aggregates the
//! `symsim trace` subcommand prints.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{JsonObject, JsonValue};

/// Drain a shard to the writer once it holds this many bytes.
const FLUSH_BYTES: usize = 64 * 1024;
/// Hard per-shard cap: beyond this, records are dropped (and counted) if
/// the shared writer cannot be taken without blocking.
const SHARD_CAP_BYTES: usize = 4 * 1024 * 1024;

/// Totals returned by [`TraceSink::finish`] and recorded in the trailing
/// `summary` record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Records successfully buffered (everything except drops; the
    /// `summary` record itself is not counted).
    pub events: u64,
    /// Records dropped under backpressure.
    pub dropped: u64,
    /// Bytes written to the output, excluding the summary line.
    pub bytes: u64,
}

struct SinkOut {
    w: Box<dyn Write + Send>,
    bytes: u64,
}

impl SinkOut {
    fn drain(&mut self, buf: &mut String) {
        if !buf.is_empty() {
            self.bytes += buf.len() as u64;
            let _ = self.w.write_all(buf.as_bytes());
            buf.clear();
        }
    }
}

/// Sharded NDJSON trace writer. See the module docs for the design.
pub struct TraceSink {
    origin: Instant,
    shards: Box<[Mutex<String>]>,
    out: Mutex<SinkOut>,
    events: AtomicU64,
    dropped: AtomicU64,
    finished: AtomicBool,
    done: Mutex<Option<TraceStats>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("shards", &self.shards.len())
            .field("events", &self.events.load(Ordering::Relaxed))
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl TraceSink {
    /// Creates a sink with one buffer shard per worker (at least one)
    /// writing merged NDJSON to `out`.
    pub fn new(workers: usize, out: Box<dyn Write + Send>) -> TraceSink {
        TraceSink {
            origin: Instant::now(),
            shards: (0..workers.max(1))
                .map(|_| Mutex::new(String::new()))
                .collect(),
            out: Mutex::new(SinkOut { w: out, bytes: 0 }),
            events: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            finished: AtomicBool::new(false),
            done: Mutex::new(None),
        }
    }

    /// Creates a sink writing to a freshly created file at `path`.
    pub fn to_file(path: &str, workers: usize) -> std::io::Result<Arc<TraceSink>> {
        let f = std::fs::File::create(path)?;
        Ok(Arc::new(TraceSink::new(
            workers,
            Box::new(std::io::BufWriter::new(f)),
        )))
    }

    /// Microseconds since sink creation — the `ts_us` of every record.
    #[inline]
    pub fn ts_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Emits one record: `{"ev":ev,"ts_us":…,"w":worker,…fill…}`. `worker`
    /// is the emitting worker's index, or -1 for the coordinating thread.
    /// No-op after [`TraceSink::finish`].
    pub fn emit(&self, worker: i64, ev: &str, fill: impl FnOnce(&mut JsonObject)) {
        if self.finished.load(Ordering::Relaxed) {
            return;
        }
        let ts = self.ts_us();
        let mut o = JsonObject::new();
        o.str("ev", ev).u64("ts_us", ts).i64("w", worker);
        fill(&mut o);
        self.push_line(worker, &o.finish());
    }

    /// The leading `meta` record: trace format version, design name,
    /// worker count.
    pub fn emit_meta(&self, design: &str, workers: usize) {
        self.emit(-1, "meta", |o| {
            o.u64("version", 1)
                .str("design", design)
                .u64("workers", workers as u64);
        });
    }

    fn push_line(&self, worker: i64, line: &str) {
        let idx = if worker < 0 {
            0
        } else {
            worker as usize % self.shards.len()
        };
        let mut buf = self.shards[idx].lock().unwrap();
        if buf.len() + line.len() + 1 > SHARD_CAP_BYTES {
            match self.out.try_lock() {
                Ok(mut out) => out.drain(&mut buf),
                Err(_) => {
                    // writer busy and shard full: drop rather than stall
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        buf.push_str(line);
        buf.push('\n');
        self.events.fetch_add(1, Ordering::Relaxed);
        if buf.len() >= FLUSH_BYTES {
            if let Ok(mut out) = self.out.try_lock() {
                out.drain(&mut buf);
            }
        }
    }

    /// Number of records dropped under backpressure so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drains every shard (blocking), appends the `summary` record, and
    /// flushes. Idempotent: later calls return the same stats and later
    /// [`TraceSink::emit`]s are ignored.
    pub fn finish(&self) -> TraceStats {
        let mut done = self.done.lock().unwrap();
        if let Some(stats) = *done {
            return stats;
        }
        self.finished.store(true, Ordering::SeqCst);
        let ts = self.ts_us();
        let mut out = self.out.lock().unwrap();
        for shard in self.shards.iter() {
            out.drain(&mut shard.lock().unwrap());
        }
        let stats = TraceStats {
            events: self.events.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            bytes: out.bytes,
        };
        let mut o = JsonObject::new();
        o.str("ev", "summary")
            .u64("ts_us", ts)
            .i64("w", -1)
            .u64("events", stats.events)
            .u64("dropped", stats.dropped)
            .u64("bytes", stats.bytes);
        let line = o.finish();
        let _ = out.w.write_all(line.as_bytes());
        let _ = out.w.write_all(b"\n");
        let _ = out.w.flush();
        *done = Some(stats);
        stats
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        // a sink dropped without finish() still persists what it buffered
        if self.done.get_mut().map_or(true, |d| d.is_none()) {
            self.finish();
        }
    }
}

// ---------------------------------------------------------------------------
// Global sink installation (used by `trace::SpanGuard` so span open/close
// reach the trace without threading the sink through every call site).
// ---------------------------------------------------------------------------

static GLOBAL: Mutex<Option<Arc<TraceSink>>> = Mutex::new(None);
static GLOBAL_ON: AtomicBool = AtomicBool::new(false);

/// Serializes tests that install the process-global sink.
#[cfg(test)]
pub(crate) static TEST_GLOBAL_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    /// The worker index records from this thread are attributed to; -1
    /// (the coordinating thread) until a worker loop claims an id.
    static THREAD_WORKER: Cell<i64> = const { Cell::new(-1) };
}

/// Installs `sink` as the process-global trace sink.
pub fn install_global(sink: &Arc<TraceSink>) {
    *GLOBAL.lock().unwrap() = Some(Arc::clone(sink));
    GLOBAL_ON.store(true, Ordering::Release);
}

/// Removes the global sink (does not finish it).
pub fn clear_global() {
    GLOBAL_ON.store(false, Ordering::Release);
    *GLOBAL.lock().unwrap() = None;
}

/// Whether a global sink is installed: one relaxed load, so hot paths can
/// skip timestamping entirely when tracing is off.
#[inline]
pub fn global_enabled() -> bool {
    GLOBAL_ON.load(Ordering::Relaxed)
}

/// Runs `f` against the global sink if one is installed.
pub fn with_global(f: impl FnOnce(&TraceSink)) {
    if !global_enabled() {
        return;
    }
    let guard = GLOBAL.lock().unwrap();
    if let Some(sink) = guard.as_ref() {
        f(sink);
    }
}

/// Tags the current thread's records with worker index `w` (workers call
/// this once at loop start; untagged threads record as -1).
pub fn set_thread_worker(w: i64) {
    THREAD_WORKER.with(|c| c.set(w));
}

/// The current thread's worker tag.
pub fn thread_worker() -> i64 {
    THREAD_WORKER.with(|c| c.get())
}

// ---------------------------------------------------------------------------
// Reading traces back
// ---------------------------------------------------------------------------

/// How a traced path ended. Mirrors the explorer's segment outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Ran to its cycle budget's natural end (program finished).
    Finished,
    /// Skipped: the CSM already covered its halt state.
    Covered,
    /// Forked children at a nondeterministic halt.
    Split,
    /// Global path budget exhausted before the halt could fork.
    Budget,
}

impl Outcome {
    /// Stable name used in `path_end` records.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Finished => "finished",
            Outcome::Covered => "covered",
            Outcome::Split => "split",
            Outcome::Budget => "budget",
        }
    }

    /// Parses a [`Outcome::name`] back.
    pub fn from_name(s: &str) -> Option<Outcome> {
        match s {
            "finished" => Some(Outcome::Finished),
            "covered" => Some(Outcome::Covered),
            "split" => Some(Outcome::Split),
            "budget" => Some(Outcome::Budget),
            _ => None,
        }
    }
}

/// A CSM decision kind in a `csm` record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsmEvent {
    /// The halt state was covered by a stored conservative state; the
    /// path is skipped.
    Cover,
    /// The halt state widened (or seeded) the stored state for its PC.
    Widen,
    /// An adaptive-policy PC entry crossed its demotion threshold and
    /// collapsed its multi-state slots into one single-merge uber-state.
    Demote,
    /// A queued split child was killed at dequeue: a conservative state
    /// formed after its fork already covered its start state, so it was
    /// never simulated (no `path_start`/`path_end` records exist for it).
    Kill,
}

impl CsmEvent {
    /// Stable name used in `csm` records.
    pub fn name(self) -> &'static str {
        match self {
            CsmEvent::Cover => "cover",
            CsmEvent::Widen => "widen",
            CsmEvent::Demote => "demote",
            CsmEvent::Kill => "kill",
        }
    }

    /// Parses a [`CsmEvent::name`] back.
    pub fn from_name(s: &str) -> Option<CsmEvent> {
        match s {
            "cover" => Some(CsmEvent::Cover),
            "widen" => Some(CsmEvent::Widen),
            "demote" => Some(CsmEvent::Demote),
            "kill" => Some(CsmEvent::Kill),
            _ => None,
        }
    }
}

/// Per-segment phase timing carried on a `path_end` record, µs. `settle`
/// is zero unless engine profiling was enabled for the run, and is
/// included in `exec`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentPhases {
    /// Snapshot restore when the worker claimed the path.
    pub restore_us: u64,
    /// Force application plus the simulation run loop.
    pub exec_us: u64,
    /// Snapshot save at the halt (zero when the path did not halt).
    pub save_us: u64,
    /// CSM lock + observe (subset check and any widening).
    pub csm_us: u64,
    /// Engine settle time within exec.
    pub settle_us: u64,
    /// Scheduler wait before this segment was claimed.
    pub wait_us: u64,
    /// Whole-segment wall time (claim to outcome).
    pub seg_us: u64,
}

/// One parsed trace record. Field meanings are shared across variants:
/// `ts_us` is microseconds from sink creation, `w` the emitting worker
/// (-1 = coordinating thread), `path` a path id.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum TraceRecord {
    /// Leading record: format version, design, worker count.
    Meta {
        ts_us: u64,
        version: u64,
        design: String,
        workers: u64,
    },
    /// A [`crate::trace::span`] opened.
    SpanOpen {
        ts_us: u64,
        w: i64,
        name: String,
        depth: u64,
    },
    /// The matching span closed after `dur_us`.
    SpanClose {
        ts_us: u64,
        w: i64,
        name: String,
        depth: u64,
        dur_us: u64,
    },
    /// A worker began simulating path `path` at architectural cycle
    /// `cycle`.
    PathStart {
        ts_us: u64,
        w: i64,
        path: u64,
        cycle: u64,
    },
    /// Path `parent` forked at `pc`: children get contiguous ids
    /// `first..first+n`. Child `first+i` takes branch combination `i`
    /// over `signals` (bit `j` of `i` is the value forced on
    /// `signals[j]`); `want` is the combination count before the path
    /// budget capped it at `n`.
    Fork {
        ts_us: u64,
        w: i64,
        parent: u64,
        pc: String,
        first: u64,
        n: u64,
        want: u64,
        signals: Vec<u64>,
    },
    /// Sibling paths `members` (ids `first..first+n`) were packed into one
    /// lane cohort and simulated together in a single bit-plane pass
    /// (cohort eval mode). Per-path `path_start`/`path_end` records still
    /// bracket each member's trajectory.
    Cohort {
        ts_us: u64,
        w: i64,
        first: u64,
        n: u64,
        members: Vec<u64>,
    },
    /// A CSM decision for path `path` halting at `pc`.
    Csm {
        ts_us: u64,
        w: i64,
        path: u64,
        pc: String,
        kind: CsmEvent,
        dur_us: u64,
    },
    /// Path `path` ended with `outcome` after `cycles` simulated cycles,
    /// having spawned `children` children.
    PathEnd {
        ts_us: u64,
        w: i64,
        path: u64,
        outcome: Outcome,
        cycles: u64,
        children: u64,
        phases: SegmentPhases,
    },
    /// A point on the coverage-over-time curve (attributed runs only):
    /// after `paths` segments and `cycles` simulated cycles, `covered` of
    /// `total` nets had toggled.
    Coverage {
        ts_us: u64,
        w: i64,
        paths: u64,
        cycles: u64,
        covered: u64,
        total: u64,
    },
    /// The first-exercise verdict for one net (attributed runs only,
    /// emitted at end of run in ascending net order): path `path` first
    /// toggled net `net` at cycle `cycle`; `pc` is the winning path's fork
    /// key, or the synthetic `"root"`/`"reset"` markers.
    CoverFirst {
        ts_us: u64,
        w: i64,
        net: u64,
        path: u64,
        cycle: u64,
        pc: String,
    },
    /// Trailing totals written by [`TraceSink::finish`].
    Summary {
        ts_us: u64,
        events: u64,
        dropped: u64,
        bytes: u64,
    },
}

fn req_u64(o: &JsonValue, key: &str, ev: &str) -> Result<u64, String> {
    o.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("{ev}: missing or non-integer {key:?}"))
}

fn req_str(o: &JsonValue, key: &str, ev: &str) -> Result<String, String> {
    o.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("{ev}: missing or non-string {key:?}"))
}

fn opt_u64(o: &JsonValue, key: &str) -> u64 {
    o.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

impl TraceRecord {
    /// Parses one NDJSON line.
    pub fn parse(line: &str) -> Result<TraceRecord, String> {
        let v = JsonValue::parse(line)?;
        let ev = req_str(&v, "ev", "record")?;
        let ts_us = req_u64(&v, "ts_us", &ev)?;
        let w = v.get("w").and_then(JsonValue::as_i64).unwrap_or(-1);
        match ev.as_str() {
            "meta" => Ok(TraceRecord::Meta {
                ts_us,
                version: req_u64(&v, "version", &ev)?,
                design: req_str(&v, "design", &ev)?,
                workers: req_u64(&v, "workers", &ev)?,
            }),
            "span_open" => Ok(TraceRecord::SpanOpen {
                ts_us,
                w,
                name: req_str(&v, "name", &ev)?,
                depth: req_u64(&v, "depth", &ev)?,
            }),
            "span_close" => Ok(TraceRecord::SpanClose {
                ts_us,
                w,
                name: req_str(&v, "name", &ev)?,
                depth: req_u64(&v, "depth", &ev)?,
                dur_us: req_u64(&v, "dur_us", &ev)?,
            }),
            "path_start" => Ok(TraceRecord::PathStart {
                ts_us,
                w,
                path: req_u64(&v, "path", &ev)?,
                cycle: opt_u64(&v, "cycle"),
            }),
            "fork" => {
                let signals = match v.get("signals").and_then(JsonValue::as_array) {
                    Some(items) => items
                        .iter()
                        .map(|s| {
                            s.as_u64()
                                .ok_or_else(|| "fork: non-integer signal id".to_string())
                        })
                        .collect::<Result<Vec<u64>, String>>()?,
                    None => Vec::new(),
                };
                let n = req_u64(&v, "n", &ev)?;
                Ok(TraceRecord::Fork {
                    ts_us,
                    w,
                    parent: req_u64(&v, "parent", &ev)?,
                    pc: req_str(&v, "pc", &ev)?,
                    first: req_u64(&v, "first", &ev)?,
                    n,
                    want: v.get("want").and_then(JsonValue::as_u64).unwrap_or(n),
                    signals,
                })
            }
            "cohort" => {
                let members = match v.get("members").and_then(JsonValue::as_array) {
                    Some(items) => items
                        .iter()
                        .map(|s| {
                            s.as_u64()
                                .ok_or_else(|| "cohort: non-integer member id".to_string())
                        })
                        .collect::<Result<Vec<u64>, String>>()?,
                    None => Vec::new(),
                };
                Ok(TraceRecord::Cohort {
                    ts_us,
                    w,
                    first: req_u64(&v, "first", &ev)?,
                    n: req_u64(&v, "n", &ev)?,
                    members,
                })
            }
            "csm" => Ok(TraceRecord::Csm {
                ts_us,
                w,
                path: req_u64(&v, "path", &ev)?,
                pc: req_str(&v, "pc", &ev)?,
                kind: CsmEvent::from_name(&req_str(&v, "kind", &ev)?)
                    .ok_or_else(|| "csm: unknown kind".to_string())?,
                dur_us: opt_u64(&v, "dur_us"),
            }),
            "path_end" => Ok(TraceRecord::PathEnd {
                ts_us,
                w,
                path: req_u64(&v, "path", &ev)?,
                outcome: Outcome::from_name(&req_str(&v, "outcome", &ev)?)
                    .ok_or_else(|| "path_end: unknown outcome".to_string())?,
                cycles: req_u64(&v, "cycles", &ev)?,
                children: opt_u64(&v, "children"),
                phases: SegmentPhases {
                    restore_us: opt_u64(&v, "restore_us"),
                    exec_us: opt_u64(&v, "exec_us"),
                    save_us: opt_u64(&v, "save_us"),
                    csm_us: opt_u64(&v, "csm_us"),
                    settle_us: opt_u64(&v, "settle_us"),
                    wait_us: opt_u64(&v, "wait_us"),
                    seg_us: opt_u64(&v, "seg_us"),
                },
            }),
            "coverage" => Ok(TraceRecord::Coverage {
                ts_us,
                w,
                paths: req_u64(&v, "paths", &ev)?,
                cycles: req_u64(&v, "cycles", &ev)?,
                covered: req_u64(&v, "covered", &ev)?,
                total: req_u64(&v, "total", &ev)?,
            }),
            "cover_first" => Ok(TraceRecord::CoverFirst {
                ts_us,
                w,
                net: req_u64(&v, "net", &ev)?,
                path: req_u64(&v, "path", &ev)?,
                cycle: req_u64(&v, "cycle", &ev)?,
                pc: req_str(&v, "pc", &ev)?,
            }),
            "summary" => Ok(TraceRecord::Summary {
                ts_us,
                events: req_u64(&v, "events", &ev)?,
                dropped: req_u64(&v, "dropped", &ev)?,
                bytes: req_u64(&v, "bytes", &ev)?,
            }),
            other => Err(format!("unknown record type {other:?}")),
        }
    }

    /// The record's timestamp.
    pub fn ts_us(&self) -> u64 {
        match self {
            TraceRecord::Meta { ts_us, .. }
            | TraceRecord::SpanOpen { ts_us, .. }
            | TraceRecord::SpanClose { ts_us, .. }
            | TraceRecord::PathStart { ts_us, .. }
            | TraceRecord::Fork { ts_us, .. }
            | TraceRecord::Cohort { ts_us, .. }
            | TraceRecord::Csm { ts_us, .. }
            | TraceRecord::PathEnd { ts_us, .. }
            | TraceRecord::Coverage { ts_us, .. }
            | TraceRecord::CoverFirst { ts_us, .. }
            | TraceRecord::Summary { ts_us, .. } => *ts_us,
        }
    }
}

/// Outcome tallies over every `path_end` record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Paths that ran to completion.
    pub finished: u64,
    /// Paths skipped because the CSM covered their halt state.
    pub covered: u64,
    /// Paths that forked children.
    pub split: u64,
    /// Paths cut off by the global path budget.
    pub budget: u64,
}

impl OutcomeCounts {
    /// Total paths ended — should equal paths created.
    pub fn total(&self) -> u64 {
        self.finished + self.covered + self.split + self.budget
    }
}

/// A fork program counter aggregated over the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForkSite {
    /// The halt PC (formatted key).
    pub pc: String,
    /// Fork events at this PC.
    pub forks: u64,
    /// Children materialized across those forks.
    pub children: u64,
}

/// One point of the coverage-over-time curve, from a `coverage` record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoveragePoint {
    /// Wall time of the sample, µs from sink creation.
    pub ts_us: u64,
    /// Path segments completed.
    pub paths: u64,
    /// Cycles simulated across all paths.
    pub cycles: u64,
    /// Nets attributed (toggled at least once).
    pub covered: u64,
    /// Total nets in the design.
    pub total: u64,
}

/// One net's first-exercise verdict, from a `cover_first` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirstExercise {
    /// The attributed net id.
    pub net: u64,
    /// The winning path.
    pub path: u64,
    /// Absolute cycle of the first toggle.
    pub cycle: u64,
    /// The winning path's fork PC, `"root"`, or `"reset"`.
    pub pc: String,
}

/// Per-worker activity aggregated from `path_start`/`path_end` records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStat {
    /// Worker index (-1 = coordinating thread).
    pub worker: i64,
    /// Segments this worker simulated.
    pub segments: u64,
    /// Cycles across those segments.
    pub cycles: u64,
    /// Total segment wall time, µs.
    pub busy_us: u64,
    /// Total scheduler wait, µs.
    pub wait_us: u64,
}

/// The parent/children view of the exploration DAG reconstructed from
/// `fork` records.
#[derive(Debug, Default)]
pub struct Lineage {
    /// child path → parent path.
    pub parent: HashMap<u64, u64>,
    /// parent path → children, in fork order.
    pub children: HashMap<u64, Vec<u64>>,
    /// forking path → the PC it forked at.
    pub fork_pc: HashMap<u64, String>,
}

impl Lineage {
    /// Subtree size (the path itself plus all descendants) per path that
    /// appears in any fork record.
    pub fn subtree_sizes(&self) -> HashMap<u64, u64> {
        let mut sizes: HashMap<u64, u64> = HashMap::new();
        // iterative post-order: push children first, fold once visited
        for &root in self
            .children
            .keys()
            .filter(|p| !self.parent.contains_key(p))
        {
            let mut stack: Vec<(u64, bool)> = vec![(root, false)];
            while let Some((path, expanded)) = stack.pop() {
                if expanded {
                    let mut size = 1u64;
                    if let Some(kids) = self.children.get(&path) {
                        for k in kids {
                            size += sizes.get(k).copied().unwrap_or(1);
                        }
                    }
                    sizes.insert(path, size);
                } else {
                    stack.push((path, true));
                    if let Some(kids) = self.children.get(&path) {
                        for &k in kids {
                            if self.children.contains_key(&k) {
                                stack.push((k, false));
                            }
                        }
                    }
                }
            }
        }
        sizes
    }

    /// Fork depth of `path` (root = 0).
    pub fn depth(&self, mut path: u64) -> u64 {
        let mut d = 0;
        while let Some(&p) = self.parent.get(&path) {
            d += 1;
            path = p;
            if d > self.parent.len() as u64 {
                break; // corrupt trace: cycle guard
            }
        }
        d
    }
}

/// A fully parsed trace with derived views.
#[derive(Debug, Default)]
pub struct Trace {
    /// Records in file (≈ timestamp) order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Parses NDJSON text; blank lines are skipped, any malformed line is
    /// an error naming its line number.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec = TraceRecord::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            records.push(rec);
        }
        Ok(Trace { records })
    }

    /// Reads and parses a trace file.
    pub fn read_file(path: &str) -> Result<Trace, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        Trace::parse(&text)
    }

    /// The `meta` record, if present.
    pub fn meta(&self) -> Option<(&str, u64)> {
        self.records.iter().find_map(|r| match r {
            TraceRecord::Meta {
                design, workers, ..
            } => Some((design.as_str(), *workers)),
            _ => None,
        })
    }

    /// The trailing `summary` record, if present.
    pub fn summary(&self) -> Option<TraceStats> {
        self.records.iter().rev().find_map(|r| match r {
            TraceRecord::Summary {
                events,
                dropped,
                bytes,
                ..
            } => Some(TraceStats {
                events: *events,
                dropped: *dropped,
                bytes: *bytes,
            }),
            _ => None,
        })
    }

    /// Wall span covered by the records, µs.
    pub fn wall_us(&self) -> u64 {
        let min = self
            .records
            .iter()
            .map(TraceRecord::ts_us)
            .min()
            .unwrap_or(0);
        let max = self
            .records
            .iter()
            .map(TraceRecord::ts_us)
            .max()
            .unwrap_or(0);
        max - min
    }

    /// Outcome tallies over every `path_end`.
    pub fn outcome_counts(&self) -> OutcomeCounts {
        let mut c = OutcomeCounts::default();
        for r in &self.records {
            if let TraceRecord::PathEnd { outcome, .. } = r {
                match outcome {
                    Outcome::Finished => c.finished += 1,
                    Outcome::Covered => c.covered += 1,
                    Outcome::Split => c.split += 1,
                    Outcome::Budget => c.budget += 1,
                }
            }
        }
        c
    }

    /// Total simulated cycles over every `path_end`.
    pub fn total_cycles(&self) -> u64 {
        self.records
            .iter()
            .map(|r| match r {
                TraceRecord::PathEnd { cycles, .. } => *cycles,
                _ => 0,
            })
            .sum()
    }

    /// Paths created: one `path_start` record per path that began
    /// simulating (spilled cohort lanes do not re-start). Fork children
    /// killed by pre-split subsumption hold an id in the fork record's
    /// range but never start, matching the run's `paths_created` counter.
    pub fn paths_created(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| matches!(r, TraceRecord::PathStart { .. }))
            .count() as u64
    }

    /// Lineage tree from the `fork` records.
    pub fn lineage(&self) -> Lineage {
        let mut l = Lineage::default();
        for r in &self.records {
            if let TraceRecord::Fork {
                parent,
                pc,
                first,
                n,
                ..
            } = r
            {
                let kids: Vec<u64> = (*first..*first + *n).collect();
                for &k in &kids {
                    l.parent.insert(k, *parent);
                }
                l.children.entry(*parent).or_default().extend(kids);
                l.fork_pc.insert(*parent, pc.clone());
            }
        }
        l
    }

    /// Fork PCs ranked by children spawned (descending).
    pub fn fork_hotspots(&self) -> Vec<ForkSite> {
        let mut by_pc: HashMap<&str, (u64, u64)> = HashMap::new();
        for r in &self.records {
            if let TraceRecord::Fork { pc, n, .. } = r {
                let e = by_pc.entry(pc.as_str()).or_default();
                e.0 += 1;
                e.1 += n;
            }
        }
        let mut sites: Vec<ForkSite> = by_pc
            .into_iter()
            .map(|(pc, (forks, children))| ForkSite {
                pc: pc.to_owned(),
                forks,
                children,
            })
            .collect();
        sites.sort_by(|a, b| b.children.cmp(&a.children).then(a.pc.cmp(&b.pc)));
        sites
    }

    /// Total µs per phase over every `path_end` (plus CSM record
    /// durations split by kind), descending. `settle` is a subset of
    /// `exec`.
    pub fn phase_table(&self) -> Vec<(&'static str, u64)> {
        let mut exec = 0u64;
        let mut restore = 0u64;
        let mut save = 0u64;
        let mut csm = 0u64;
        let mut settle = 0u64;
        let mut wait = 0u64;
        for r in &self.records {
            if let TraceRecord::PathEnd { phases, .. } = r {
                exec += phases.exec_us;
                restore += phases.restore_us;
                save += phases.save_us;
                csm += phases.csm_us;
                settle += phases.settle_us;
                wait += phases.wait_us;
            }
        }
        let mut table = vec![
            ("exec", exec),
            ("settle", settle),
            ("snapshot_restore", restore),
            ("snapshot_save", save),
            ("csm_observe", csm),
            ("sched_wait", wait),
        ];
        table.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        table
    }

    /// The coverage-over-time curve from the `coverage` records, in file
    /// order (monotonic in `covered` by construction).
    pub fn coverage_curve(&self) -> Vec<CoveragePoint> {
        self.records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Coverage {
                    ts_us,
                    paths,
                    cycles,
                    covered,
                    total,
                    ..
                } => Some(CoveragePoint {
                    ts_us: *ts_us,
                    paths: *paths,
                    cycles: *cycles,
                    covered: *covered,
                    total: *total,
                }),
                _ => None,
            })
            .collect()
    }

    /// The per-net first-exercise verdicts from the `cover_first` records,
    /// in file (= ascending net) order.
    pub fn cover_firsts(&self) -> Vec<FirstExercise> {
        self.records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::CoverFirst {
                    net,
                    path,
                    cycle,
                    pc,
                    ..
                } => Some(FirstExercise {
                    net: *net,
                    path: *path,
                    cycle: *cycle,
                    pc: pc.clone(),
                }),
                _ => None,
            })
            .collect()
    }

    /// Per-worker segments/cycles/busy/wait, ascending worker index.
    pub fn worker_stats(&self) -> Vec<WorkerStat> {
        let mut by_w: HashMap<i64, WorkerStat> = HashMap::new();
        for r in &self.records {
            if let TraceRecord::PathEnd {
                w, cycles, phases, ..
            } = r
            {
                let s = by_w.entry(*w).or_insert(WorkerStat {
                    worker: *w,
                    ..WorkerStat::default()
                });
                s.segments += 1;
                s.cycles += *cycles;
                s.busy_us += phases.seg_us;
                s.wait_us += phases.wait_us;
            }
        }
        let mut stats: Vec<WorkerStat> = by_w.into_values().collect();
        stats.sort_by_key(|s| s.worker);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` the test can inspect after the sink is finished.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn emit_fixture(sink: &TraceSink) {
        sink.emit_meta("dr5", 2);
        sink.emit(0, "path_start", |o| {
            o.u64("path", 0).u64("cycle", 0);
        });
        sink.emit(0, "fork", |o| {
            o.u64("parent", 0)
                .str("pc", "0x4400")
                .u64("first", 1)
                .u64("n", 2)
                .u64("want", 2)
                .u64_array("signals", &[7]);
        });
        sink.emit(0, "path_end", |o| {
            o.u64("path", 0)
                .str("outcome", "split")
                .u64("cycles", 100)
                .u64("children", 2)
                .u64("exec_us", 40)
                .u64("seg_us", 55)
                .u64("wait_us", 5);
        });
        sink.emit(1, "path_start", |o| {
            o.u64("path", 1).u64("cycle", 100);
        });
        sink.emit(1, "csm", |o| {
            o.u64("path", 1)
                .str("pc", "0x4400")
                .str("kind", "widen")
                .u64("dur_us", 3);
        });
        sink.emit(1, "path_end", |o| {
            o.u64("path", 1)
                .str("outcome", "finished")
                .u64("cycles", 60)
                .u64("seg_us", 30);
        });
        sink.emit(0, "path_start", |o| {
            o.u64("path", 2).u64("cycle", 100);
        });
        sink.emit(0, "csm", |o| {
            o.u64("path", 2)
                .str("pc", "0x4400")
                .str("kind", "cover")
                .u64("dur_us", 1);
        });
        sink.emit(0, "path_end", |o| {
            o.u64("path", 2)
                .str("outcome", "covered")
                .u64("cycles", 40)
                .u64("seg_us", 20);
        });
        sink.emit(0, "coverage", |o| {
            o.u64("paths", 3)
                .u64("cycles", 200)
                .u64("covered", 90)
                .u64("total", 120);
        });
        sink.emit(-1, "cover_first", |o| {
            o.u64("net", 7)
                .u64("path", 1)
                .u64("cycle", 130)
                .str("pc", "0x4400");
        });
    }

    #[test]
    fn sink_round_trips_through_reader() {
        let buf = SharedBuf::default();
        let sink = TraceSink::new(2, Box::new(buf.clone()));
        emit_fixture(&sink);
        let stats = sink.finish();
        assert_eq!(stats.events, 12);
        assert_eq!(stats.dropped, 0);
        assert!(stats.bytes > 0);
        assert_eq!(stats, sink.finish(), "finish is idempotent");
        sink.emit(0, "csm", |o| {
            o.u64("path", 9);
        });
        assert_eq!(sink.finish().events, 12, "post-finish emits are ignored");

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let trace = Trace::parse(&text).unwrap();
        assert_eq!(trace.meta(), Some(("dr5", 2)));
        let summary = trace.summary().unwrap();
        assert_eq!(summary.events, 12);
        assert_eq!(summary.bytes, stats.bytes);

        let outcomes = trace.outcome_counts();
        assert_eq!(outcomes.finished, 1);
        assert_eq!(outcomes.covered, 1);
        assert_eq!(outcomes.split, 1);
        assert_eq!(outcomes.total(), 3);
        assert_eq!(trace.total_cycles(), 200);
        assert_eq!(trace.paths_created(), 3);

        let lineage = trace.lineage();
        assert_eq!(lineage.parent.get(&1), Some(&0));
        assert_eq!(lineage.parent.get(&2), Some(&0));
        assert_eq!(lineage.children[&0], vec![1, 2]);
        assert_eq!(lineage.fork_pc[&0], "0x4400");
        assert_eq!(lineage.subtree_sizes()[&0], 3);
        assert_eq!(lineage.depth(2), 1);

        let sites = trace.fork_hotspots();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].children, 2);

        let table = trace.phase_table();
        assert_eq!(table[0], ("exec", 40));

        let curve = trace.coverage_curve();
        assert_eq!(curve.len(), 1);
        assert_eq!((curve[0].covered, curve[0].total), (90, 120));
        let firsts = trace.cover_firsts();
        assert_eq!(firsts.len(), 1);
        assert_eq!(firsts[0].net, 7);
        assert_eq!(firsts[0].cycle, 130);
        assert_eq!(firsts[0].pc, "0x4400");

        let workers = trace.worker_stats();
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[0].worker, 0);
        assert_eq!(workers[0].segments, 2);
        assert_eq!(workers[0].busy_us, 75);
        assert_eq!(workers[1].cycles, 60);
    }

    #[test]
    fn global_install_is_visible_and_clearable() {
        let _serial = TEST_GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let buf = SharedBuf::default();
        let sink = Arc::new(TraceSink::new(1, Box::new(buf.clone())));
        assert!(!global_enabled());
        install_global(&sink);
        assert!(global_enabled());
        with_global(|s| {
            s.emit(-1, "span_open", |o| {
                o.str("name", "x").u64("depth", 0);
            })
        });
        clear_global();
        assert!(!global_enabled());
        let stats = sink.finish();
        assert_eq!(stats.events, 1);
        assert_eq!(thread_worker(), -1);
        set_thread_worker(3);
        assert_eq!(thread_worker(), 3);
        set_thread_worker(-1);
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        let err = Trace::parse("{\"ev\":\"meta\",\"ts_us\":0}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err = Trace::parse("{\"ev\":\"nope\",\"ts_us\":0}").unwrap_err();
        assert!(err.contains("unknown record type"), "{err}");
        let err = Trace::parse("not json").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }
}
