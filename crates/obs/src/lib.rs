//! # symsim-obs
//!
//! The observability layer of the co-analysis pipeline: the introspection
//! the paper's evaluation (Table 4 / Fig. 6) relies on — paths created vs.
//! skipped, CSM merge decisions, cycles simulated — made available *while a
//! run is in flight* instead of only in the final report.
//!
//! Three pieces, deliberately dependency-free (the build environment is
//! sealed, so this crate implements its own `tracing`-style facade):
//!
//! * [`MetricsRegistry`] — a lock-free, per-worker-sharded registry of
//!   atomic counters, gauges, and fixed-bucket histograms. The metric set
//!   is static (enums [`CounterId`] / [`GaugeId`] / [`HistogramId`]), so a
//!   hot-path increment is a single relaxed atomic add into the worker's
//!   own cache-line-aligned shard — no hashing, no locking, no false
//!   sharing. Aggregation happens on read ([`MetricsRegistry::snapshot`]).
//! * [`trace`] — leveled spans and events with `pretty` or NDJSON `json`
//!   output. Call sites are guarded by one relaxed atomic level check
//!   (branch-predictable when tracing is off), via the [`event!`],
//!   [`info!`], [`warn!`], [`error!`], [`debug!`], and [`trace_event!`]
//!   macros and [`trace::span`].
//! * [`Heartbeat`] — a background thread emitting periodic NDJSON progress
//!   records (elapsed, cycles/sec, live/queued paths, CSM size, per-worker
//!   cycle counts) from a shared registry, plus a guaranteed final record
//!   on shutdown so even sub-interval runs produce at least one line.
//! * [`tracefile`] — the run-trace subsystem: a sharded, drop-counted
//!   NDJSON writer ([`TraceSink`]) recording the causal exploration events
//!   (forks, CSM decisions, path outcomes with per-phase timing) from
//!   which the full path-lineage tree is reconstructible, plus the reader
//!   and aggregation helpers ([`Trace`]) behind `symsim trace`; [`chrome`]
//!   renders a parsed trace as Chrome Trace Event JSON for Perfetto, and
//!   [`profile`] names the timed phases and their registry histograms.
//! * [`ledger`] — the persistent run ledger: one self-contained NDJSON
//!   record per run (fingerprints, environment, verdict digest, full
//!   metrics snapshot) appended to `$SYMSIM_LEDGER`, plus the reader and
//!   the MAD-noise-banded regression policy behind `symsim runs diff`;
//!   [`stats`] holds the shared robust statistics (median/MAD bands and
//!   the historic smoke noise allowance).
//!
//! The NDJSON record and metrics-snapshot schemas are checked in under
//! `docs/schema/` and validated in CI by `scripts/validate_metrics.py`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
mod heartbeat;
mod json;
pub mod ledger;
mod metrics;
pub mod profile;
pub mod stats;
pub mod trace;
pub mod tracefile;

pub use chrome::export_chrome;
pub use heartbeat::{Heartbeat, HeartbeatOut};
pub use json::{escape_json, JsonObject, JsonValue};
pub use ledger::{env_fingerprint, EnvFingerprint, LedgerEntry, LedgerRecord};
pub use metrics::{
    CounterId, GaugeId, HistogramId, HistogramSnapshot, MetricShard, MetricsRegistry,
    MetricsSnapshot,
};
pub use profile::{Phase, PhaseTotals};
pub use trace::{Level, LogFormat};
pub use tracefile::{CoveragePoint, FirstExercise, Trace, TraceRecord, TraceSink, TraceStats};

/// Emits a structured event when `level` is enabled.
///
/// ```
/// use symsim_obs::{event, Level};
/// event!(Level::Info, "path.fork", { worker = 0usize, children = 2usize }, "forked");
/// event!(Level::Debug, "csm", "covered at pc {:#x}", 0x42);
/// ```
#[macro_export]
macro_rules! event {
    ($lvl:expr, $target:expr, { $($k:ident = $v:expr),* $(,)? }, $($fmt:tt)+) => {
        if $crate::trace::enabled($lvl) {
            $crate::trace::emit(
                $lvl,
                $target,
                &format!($($fmt)+),
                &[$((stringify!($k), $crate::trace::FieldValue::from($v))),*],
            );
        }
    };
    ($lvl:expr, $target:expr, $($fmt:tt)+) => {
        $crate::event!($lvl, $target, {}, $($fmt)+)
    };
}

/// [`event!`] at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($target:expr, $($rest:tt)+) => { $crate::event!($crate::Level::Error, $target, $($rest)+) };
}

/// [`event!`] at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($target:expr, $($rest:tt)+) => { $crate::event!($crate::Level::Warn, $target, $($rest)+) };
}

/// [`event!`] at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($target:expr, $($rest:tt)+) => { $crate::event!($crate::Level::Info, $target, $($rest)+) };
}

/// [`event!`] at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($target:expr, $($rest:tt)+) => { $crate::event!($crate::Level::Debug, $target, $($rest)+) };
}

/// [`event!`] at [`Level::Trace`].
#[macro_export]
macro_rules! trace_event {
    ($target:expr, $($rest:tt)+) => { $crate::event!($crate::Level::Trace, $target, $($rest)+) };
}
