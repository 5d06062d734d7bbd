//! The persistent run ledger: one self-contained NDJSON record per
//! co-analysis run, appended to `$SYMSIM_LEDGER` (default
//! `.symsim/ledger.ndjson`).
//!
//! Each record carries everything a later `symsim runs diff` needs to
//! decide "did this change regress throughput or drift a verdict?" without
//! re-running anything: the design/program/config fingerprint that makes
//! runs comparable, the environment fingerprint that makes them
//! attributable, the canonical verdict digest (order-independent hash of
//! the exercisable-gate set — eval modes and CSM policies may change
//! speed, never this), the headline throughput numbers, and the full
//! metrics-registry snapshot including the phase histograms.
//!
//! Appending costs nothing on the hot path: the record is serialized once
//! at report-assembly time through the same [`crate::JsonObject`] builder
//! every other NDJSON artifact uses, and the file is opened in append mode
//! per record so concurrent runs interleave whole lines.
//!
//! [`compare`] implements the regression policy shared by `symsim runs
//! diff`, `symsim runs regressions`, and the CI perf gate: verdict drift
//! is a hard failure, counter deltas are reported, and wall-time /
//! throughput / phase-time movements are judged against the MAD-based
//! noise band of the baseline population ([`crate::stats`]).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::{JsonObject, JsonValue};
use crate::stats::{self, NoiseBand};

/// Wire-format version tag carried by every record.
pub const LEDGER_SCHEMA: &str = "symsim-ledger-v1";

/// Environment variable overriding the ledger destination. Set to `off`,
/// `none`, `0`, or the empty string to disable appending entirely.
pub const LEDGER_ENV: &str = "SYMSIM_LEDGER";

/// Default ledger location, relative to the working directory.
pub const LEDGER_DEFAULT: &str = ".symsim/ledger.ndjson";

// ---------------------------------------------------------------------------
// Environment fingerprint
// ---------------------------------------------------------------------------

/// Where a run executed: enough to attribute historical records to a
/// machine and toolchain. Captured once per process (the `git`/`rustc`
/// probes fork a subprocess) and reused for every report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvFingerprint {
    /// Short git commit of the working tree (`unknown` outside a repo).
    pub git_commit: String,
    /// `rustc -V` of the toolchain on `$PATH`.
    pub rustc: String,
    /// Host triple approximation: `arch-os` from the running binary.
    pub host: String,
    /// Worker threads the run was configured with.
    pub workers: usize,
}

impl EnvFingerprint {
    /// The fingerprint as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("git_commit", &self.git_commit)
            .str("rustc", &self.rustc)
            .str("host", &self.host)
            .u64("workers", self.workers as u64);
        o.finish()
    }
}

fn probe(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

/// Captures the environment fingerprint for a run with `workers` worker
/// threads. The subprocess probes (`git rev-parse`, `rustc -V`) run once
/// per process and are cached — report assembly stays cheap.
pub fn env_fingerprint(workers: usize) -> EnvFingerprint {
    static GIT: OnceLock<String> = OnceLock::new();
    static RUSTC: OnceLock<String> = OnceLock::new();
    let git = GIT.get_or_init(|| {
        probe("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into())
    });
    let rustc = RUSTC.get_or_init(|| probe("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()));
    EnvFingerprint {
        git_commit: git.clone(),
        rustc: rustc.clone(),
        host: format!("{}-{}", std::env::consts::ARCH, std::env::consts::OS),
        workers,
    }
}

// ---------------------------------------------------------------------------
// Record writing
// ---------------------------------------------------------------------------

/// One run, ready to append: every field the ledger schema
/// (`docs/schema/ledger.schema.json`) records.
#[derive(Debug, Clone)]
pub struct LedgerRecord {
    /// `analyze` (CLI) or `bench` (`bench_coanalysis`).
    pub kind: String,
    /// Human-readable run label (`omsp16/div`, a design name, ...).
    pub label: String,
    /// Design name from the netlist.
    pub design: String,
    /// Combined design + program + config fingerprint (hex).
    pub fingerprint: String,
    /// Design-structure content hash (hex).
    pub design_hash: String,
    /// Program-image content hash (hex).
    pub program_hash: String,
    /// Canonical config string the fingerprint folds in.
    pub config: String,
    /// Evaluation mode the run executed under.
    pub eval_mode: String,
    /// Order-independent hash of the exercisable-gate set (hex).
    pub verdict_digest: String,
    /// Total gates in the design.
    pub total_gates: u64,
    /// Exercisable gates — the verdict headline.
    pub exercisable_gates: u64,
    /// Paths created / skipped / finished / dropped, for quick scans.
    pub paths_created: u64,
    /// Paths skipped (covered by a conservative state).
    pub paths_skipped: u64,
    /// Paths that ran to completion.
    pub paths_finished: u64,
    /// Children dropped by the path cap.
    pub paths_dropped: u64,
    /// Total simulated cycles.
    pub simulated_cycles: u64,
    /// Wall-clock seconds of the analysis.
    pub wall_seconds: f64,
    /// `simulated_cycles / wall_seconds`.
    pub cycles_per_sec: f64,
    /// Environment fingerprint.
    pub env: EnvFingerprint,
    /// Full metrics snapshot as compact JSON (counters, gauges, phase
    /// histograms) — pre-serialized by the caller, embedded verbatim.
    pub metrics_json: String,
}

impl LedgerRecord {
    /// Serializes the record as one NDJSON line (no trailing newline),
    /// stamping the current wall-clock time.
    pub fn to_json(&self) -> String {
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let mut o = JsonObject::new();
        o.str("schema", LEDGER_SCHEMA)
            .u64("ts_ms", ts_ms)
            .str("kind", &self.kind)
            .str("label", &self.label)
            .str("design", &self.design)
            .str("fingerprint", &self.fingerprint)
            .str("design_hash", &self.design_hash)
            .str("program_hash", &self.program_hash)
            .str("config", &self.config)
            .str("eval_mode", &self.eval_mode)
            .str("verdict_digest", &self.verdict_digest)
            .u64("total_gates", self.total_gates)
            .u64("exercisable_gates", self.exercisable_gates)
            .u64("paths_created", self.paths_created)
            .u64("paths_skipped", self.paths_skipped)
            .u64("paths_finished", self.paths_finished)
            .u64("paths_dropped", self.paths_dropped)
            .u64("simulated_cycles", self.simulated_cycles)
            .f64("wall_seconds", self.wall_seconds)
            .f64("cycles_per_sec", self.cycles_per_sec)
            .raw("env", &self.env.to_json())
            .raw("metrics", &self.metrics_json);
        o.finish()
    }
}

/// Resolves where runs should append: an explicit `flag` wins (the CLI's
/// `--ledger`), then [`LEDGER_ENV`], then [`LEDGER_DEFAULT`]. `off`,
/// `none`, `0`, and the empty string disable appending (`None`).
pub fn resolve_path(flag: Option<&str>) -> Option<PathBuf> {
    let spec = match flag {
        Some(s) => s.to_string(),
        None => match std::env::var(LEDGER_ENV) {
            Ok(v) => v,
            Err(_) => LEDGER_DEFAULT.to_string(),
        },
    };
    match spec.as_str() {
        "" | "off" | "none" | "0" => None,
        _ => Some(PathBuf::from(spec)),
    }
}

/// Appends one record to the ledger at `path`, creating parent
/// directories on first use. Whole-line appends keep concurrent writers
/// from corrupting each other's records.
pub fn append(path: &Path, record: &LedgerRecord) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    let mut line = record.to_json();
    line.push('\n');
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    file.write_all(line.as_bytes())
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// Record reading
// ---------------------------------------------------------------------------

/// One parsed ledger record. Typed fields cover everything the diff
/// policy reads; `metrics` keeps the full snapshot for counter deltas and
/// phase estimates.
#[derive(Debug, Clone)]
pub struct LedgerEntry {
    /// Millisecond UNIX timestamp the record was appended at.
    pub ts_ms: u64,
    /// `analyze` or `bench`.
    pub kind: String,
    /// Run label.
    pub label: String,
    /// Design name.
    pub design: String,
    /// Combined fingerprint (hex).
    pub fingerprint: String,
    /// Canonical config string.
    pub config: String,
    /// Eval mode the run executed under.
    pub eval_mode: String,
    /// Verdict digest (hex).
    pub verdict_digest: String,
    /// Total gates.
    pub total_gates: u64,
    /// Exercisable gates.
    pub exercisable_gates: u64,
    /// Simulated cycles.
    pub simulated_cycles: u64,
    /// Wall seconds.
    pub wall_seconds: f64,
    /// Cycles per second.
    pub cycles_per_sec: f64,
    /// Environment fingerprint.
    pub env: EnvFingerprint,
    /// The embedded metrics snapshot (parsed JSON object).
    pub metrics: JsonValue,
}

impl LedgerEntry {
    /// Parses one NDJSON line.
    pub fn from_json(line: &str) -> Result<LedgerEntry, String> {
        let v = JsonValue::parse(line)?;
        let s = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(String::from)
                .ok_or_else(|| format!("ledger record missing string {key:?}"))
        };
        let u = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("ledger record missing integer {key:?}"))
        };
        let f = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("ledger record missing number {key:?}"))
        };
        let schema = s("schema")?;
        if schema != LEDGER_SCHEMA {
            return Err(format!("unsupported ledger schema {schema:?}"));
        }
        let env = v.get("env").ok_or("ledger record missing env")?;
        let env_s = |key: &str| -> Result<String, String> {
            env.get(key)
                .and_then(JsonValue::as_str)
                .map(String::from)
                .ok_or_else(|| format!("ledger env missing {key:?}"))
        };
        Ok(LedgerEntry {
            ts_ms: u("ts_ms")?,
            kind: s("kind")?,
            label: s("label")?,
            design: s("design")?,
            fingerprint: s("fingerprint")?,
            config: s("config")?,
            eval_mode: s("eval_mode")?,
            verdict_digest: s("verdict_digest")?,
            total_gates: u("total_gates")?,
            exercisable_gates: u("exercisable_gates")?,
            simulated_cycles: u("simulated_cycles")?,
            wall_seconds: f("wall_seconds")?,
            cycles_per_sec: f("cycles_per_sec")?,
            env: EnvFingerprint {
                git_commit: env_s("git_commit")?,
                rustc: env_s("rustc")?,
                host: env_s("host")?,
                workers: env
                    .get("workers")
                    .and_then(JsonValue::as_u64)
                    .ok_or("ledger env missing workers")? as usize,
            },
            metrics: v
                .get("metrics")
                .cloned()
                .ok_or("ledger record missing metrics")?,
        })
    }

    /// Flat numeric metrics (counters and gauges) of the embedded
    /// snapshot, in document order; histograms are skipped.
    pub fn metric_values(&self) -> Vec<(String, i64)> {
        let JsonValue::Object(members) = &self.metrics else {
            return Vec::new();
        };
        members
            .iter()
            .filter_map(|(k, v)| v.as_i64().map(|n| (k.clone(), n)))
            .collect()
    }

    /// Estimated total microseconds per `phase_*` histogram, from bucket
    /// counts × bucket midpoints (overflow counts at 2× the last bound).
    /// Coarse by construction — good enough to flag a phase that doubled,
    /// meaningless below the bucket resolution.
    pub fn phase_estimates_us(&self) -> Vec<(String, f64)> {
        let Some(JsonValue::Object(hists)) = self.metrics.get("histograms") else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (name, h) in hists {
            if !name.starts_with("phase_") {
                continue;
            }
            let (Some(bounds), Some(counts)) = (
                h.get("bounds").and_then(JsonValue::as_array),
                h.get("counts").and_then(JsonValue::as_array),
            ) else {
                continue;
            };
            let bounds: Vec<f64> = bounds.iter().filter_map(JsonValue::as_f64).collect();
            let mut total = 0.0;
            let mut lower = 0.0;
            for (i, c) in counts.iter().filter_map(JsonValue::as_f64).enumerate() {
                let mid = match bounds.get(i) {
                    Some(&upper) => (lower + upper) / 2.0,
                    None => bounds.last().copied().unwrap_or(0.0) * 2.0,
                };
                total += c * mid;
                lower = bounds.get(i).copied().unwrap_or(lower);
            }
            out.push((name.clone(), total));
        }
        out
    }
}

/// Reads every record of an NDJSON ledger file, in append order. A record
/// that fails to parse fails the whole read — a corrupt ledger should be
/// noticed, not silently truncated.
pub fn read(path: &Path) -> Result<Vec<LedgerEntry>, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(n, l)| {
            LedgerEntry::from_json(l).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Regression policy
// ---------------------------------------------------------------------------

/// Tunables of the [`compare`] policy. The defaults reuse the smoke
/// noise allowances ([`stats::SMOKE_NOISE_REL`] / [`stats::SMOKE_NOISE_ABS_S`])
/// as floors under the MAD band, so a single-sample baseline degrades to
/// exactly the band the bench smoke checks have always used.
#[derive(Debug, Clone, Copy)]
pub struct DiffOpts {
    /// MAD multiplier `k` of the noise band.
    pub mad_k: f64,
    /// Relative floor on the wall-time / throughput band.
    pub rel_floor: f64,
    /// Absolute floor on the wall-time band, seconds.
    pub wall_abs_floor_s: f64,
    /// Relative floor on phase-estimate bands (the estimates are coarse,
    /// so the floor is wide).
    pub phase_rel_floor: f64,
    /// Absolute floor on phase-estimate bands, microseconds.
    pub phase_abs_floor_us: f64,
}

impl Default for DiffOpts {
    fn default() -> DiffOpts {
        DiffOpts {
            mad_k: 3.0,
            rel_floor: stats::SMOKE_NOISE_REL,
            wall_abs_floor_s: stats::SMOKE_NOISE_ABS_S,
            phase_rel_floor: 0.5,
            phase_abs_floor_us: 500.0,
        }
    }
}

/// One counter that moved between baseline and current.
#[derive(Debug, Clone)]
pub struct CounterDelta {
    /// Metric name.
    pub name: String,
    /// Median of the baseline values.
    pub baseline: i64,
    /// Current value.
    pub current: i64,
}

/// One noise-banded performance check.
#[derive(Debug, Clone)]
pub struct PerfCheck {
    /// Metric name (`wall_seconds`, `cycles_per_sec`, `phase_*`).
    pub metric: String,
    /// Baseline band.
    pub band: NoiseBand,
    /// Current value.
    pub current: f64,
    /// True when higher values are better (throughput).
    pub higher_is_better: bool,
    /// Current is outside the band on the bad side.
    pub regressed: bool,
    /// Current is outside the band on the good side.
    pub improved: bool,
}

/// The verdict comparison of a diff.
#[derive(Debug, Clone)]
pub struct VerdictDrift {
    /// Baseline digest (hex).
    pub baseline_digest: String,
    /// Current digest (hex).
    pub current_digest: String,
    /// Baseline exercisable-gate count.
    pub baseline_gates: u64,
    /// Current exercisable-gate count.
    pub current_gates: u64,
}

/// Everything [`compare`] decides about one current run vs a baseline
/// population.
#[derive(Debug, Clone)]
pub struct LedgerDiff {
    /// Baseline records compared against.
    pub baseline_len: usize,
    /// The baseline fingerprints differ from the current run's: the runs
    /// executed under a different design, program, or configuration, so
    /// results (and result-shaped counters) are not expected to be
    /// identical. A gate comparing a run against its own baseline treats
    /// this as failure — the run under test is not the blessed one.
    pub fingerprint_mismatch: bool,
    /// Set when the verdict digest or exercisable-gate count drifted —
    /// always a hard failure.
    pub verdict_drift: Option<VerdictDrift>,
    /// Counters whose current value differs from the baseline median.
    pub counter_deltas: Vec<CounterDelta>,
    /// Noise-banded wall/throughput/phase checks.
    pub perf: Vec<PerfCheck>,
}

impl LedgerDiff {
    /// True when the diff should fail a gate: verdict drift, a
    /// fingerprint mismatch (the current run is not the configuration the
    /// baseline blessed), or any perf regression beyond its noise band.
    pub fn failed(&self) -> bool {
        self.verdict_drift.is_some()
            || self.fingerprint_mismatch
            || self.perf.iter().any(|p| p.regressed)
    }

    /// The regressed perf checks, worst-relative-excursion first.
    pub fn regressions(&self) -> Vec<&PerfCheck> {
        let mut r: Vec<&PerfCheck> = self.perf.iter().filter(|p| p.regressed).collect();
        r.sort_by(|a, b| {
            let excess = |p: &PerfCheck| {
                let c = p.band.center.abs().max(1e-12);
                (p.current - p.band.center).abs() / c
            };
            excess(b)
                .partial_cmp(&excess(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        r
    }
}

fn perf_check(
    metric: &str,
    baseline: &[f64],
    current: f64,
    higher_is_better: bool,
    k: f64,
    rel_floor: f64,
    abs_floor: f64,
) -> PerfCheck {
    let band = stats::noise_band(baseline, k, rel_floor, abs_floor);
    let (regressed, improved) = if higher_is_better {
        (band.below(current), band.above(current))
    } else {
        (band.above(current), band.below(current))
    };
    PerfCheck {
        metric: metric.to_string(),
        band,
        current,
        higher_is_better,
        regressed,
        improved,
    }
}

/// Compares `current` against a baseline population (one or more records,
/// typically of the same fingerprint). See [`LedgerDiff`] for what comes
/// out; `baseline` must be non-empty.
pub fn compare(current: &LedgerEntry, baseline: &[&LedgerEntry], opts: &DiffOpts) -> LedgerDiff {
    assert!(
        !baseline.is_empty(),
        "compare needs at least one baseline record"
    );
    let fingerprint_mismatch = baseline
        .iter()
        .any(|b| b.fingerprint != current.fingerprint);

    // verdict: digest and gate counts must match the (unanimous) baseline
    let base_digest = &baseline[0].verdict_digest;
    let base_gates = baseline[0].exercisable_gates;
    let verdict_drift = (current.verdict_digest != *base_digest
        || current.exercisable_gates != base_gates
        || baseline
            .iter()
            .any(|b| b.verdict_digest != *base_digest || b.exercisable_gates != base_gates))
    .then(|| VerdictDrift {
        baseline_digest: base_digest.clone(),
        current_digest: current.verdict_digest.clone(),
        baseline_gates: base_gates,
        current_gates: current.exercisable_gates,
    });

    // counter deltas: every flat metric vs the baseline median
    let current_metrics = current.metric_values();
    let mut counter_deltas = Vec::new();
    for (name, cur) in &current_metrics {
        let base_vals: Vec<f64> = baseline
            .iter()
            .filter_map(|b| {
                b.metrics
                    .get(name)
                    .and_then(JsonValue::as_i64)
                    .map(|v| v as f64)
            })
            .collect();
        if base_vals.is_empty() {
            continue;
        }
        let base = stats::median(&base_vals).round() as i64;
        if base != *cur {
            counter_deltas.push(CounterDelta {
                name: name.clone(),
                baseline: base,
                current: *cur,
            });
        }
    }

    // noise-banded perf checks
    let mut perf = Vec::new();
    let walls: Vec<f64> = baseline.iter().map(|b| b.wall_seconds).collect();
    perf.push(perf_check(
        "wall_seconds",
        &walls,
        current.wall_seconds,
        false,
        opts.mad_k,
        opts.rel_floor,
        opts.wall_abs_floor_s,
    ));
    let cps: Vec<f64> = baseline.iter().map(|b| b.cycles_per_sec).collect();
    perf.push(perf_check(
        "cycles_per_sec",
        &cps,
        current.cycles_per_sec,
        true,
        opts.mad_k,
        opts.rel_floor,
        0.0,
    ));
    for (phase, cur_us) in current.phase_estimates_us() {
        let base_us: Vec<f64> = baseline
            .iter()
            .filter_map(|b| {
                b.phase_estimates_us()
                    .into_iter()
                    .find(|(n, _)| *n == phase)
                    .map(|(_, v)| v)
            })
            .collect();
        if base_us.is_empty() {
            continue;
        }
        perf.push(perf_check(
            &phase,
            &base_us,
            cur_us,
            false,
            opts.mad_k,
            opts.phase_rel_floor,
            opts.phase_abs_floor_us,
        ));
    }

    LedgerDiff {
        baseline_len: baseline.len(),
        fingerprint_mismatch,
        verdict_drift,
        counter_deltas,
        perf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> LedgerRecord {
        LedgerRecord {
            kind: "bench".into(),
            label: "omsp16/div".into(),
            design: "omsp16".into(),
            fingerprint: format!("{:016x}", 0xabcdu64),
            design_hash: format!("{:016x}", 1u64),
            program_hash: format!("{:016x}", 2u64),
            config: "mode=hybrid,workers=1".into(),
            eval_mode: "hybrid".into(),
            verdict_digest: format!("{:016x}", 0xfeedu64),
            total_gates: 100,
            exercisable_gates: 80,
            paths_created: 10,
            paths_skipped: 3,
            paths_finished: 7,
            paths_dropped: 0,
            simulated_cycles: 5000,
            wall_seconds: 0.5,
            cycles_per_sec: 10_000.0,
            env: EnvFingerprint {
                git_commit: "deadbeef".into(),
                rustc: "rustc 1.0".into(),
                host: "x86_64-linux".into(),
                workers: 1,
            },
            metrics_json: r#"{"paths_created":10,"cycles":5000,"histograms":{"phase_settle_us":{"bounds":[1,2,4],"counts":[0,2,0,1],"samples":3}}}"#.into(),
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let rec = record();
        let entry = LedgerEntry::from_json(&rec.to_json()).unwrap();
        assert_eq!(entry.kind, "bench");
        assert_eq!(entry.label, "omsp16/div");
        assert_eq!(entry.fingerprint, rec.fingerprint);
        assert_eq!(entry.verdict_digest, rec.verdict_digest);
        assert_eq!(entry.exercisable_gates, 80);
        assert_eq!(entry.wall_seconds, 0.5);
        assert_eq!(entry.env, rec.env);
        assert_eq!(
            entry.metrics.get("paths_created").unwrap().as_u64(),
            Some(10)
        );
        // phase estimate: 2 samples in (1,2] at midpoint 1.5 + 1 overflow at 8
        let phases = entry.phase_estimates_us();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].0, "phase_settle_us");
        assert!((phases[0].1 - (2.0 * 1.5 + 8.0)).abs() < 1e-9);
    }

    #[test]
    fn append_and_read_back() {
        let dir = std::env::temp_dir().join(format!("symsim-ledger-test-{}", std::process::id()));
        let path = dir.join("sub/ledger.ndjson");
        let _ = fs::remove_dir_all(&dir);
        append(&path, &record()).unwrap();
        append(&path, &record()).unwrap();
        let entries = read(&path).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].label, "omsp16/div");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn self_diff_is_clean() {
        let entry = LedgerEntry::from_json(&record().to_json()).unwrap();
        let diff = compare(&entry, &[&entry], &DiffOpts::default());
        assert!(!diff.failed());
        assert!(diff.verdict_drift.is_none());
        assert!(!diff.fingerprint_mismatch);
        assert!(diff.counter_deltas.is_empty());
        assert!(diff.perf.iter().all(|p| !p.regressed && !p.improved));
    }

    #[test]
    fn metrics_only_the_baseline_carries_are_ignored() {
        let current = LedgerEntry::from_json(&record().to_json()).unwrap();
        let mut older = record();
        older.metrics_json = older
            .metrics_json
            .replacen("{", r#"{"retired_counter":7,"#, 1)
            .replace(
                r#""histograms":{"#,
                r#""histograms":{"phase_retired_us":{"bounds":[1],"counts":[0,4],"samples":4},"#,
            );
        let base = LedgerEntry::from_json(&older.to_json()).unwrap();
        assert_eq!(
            base.metrics
                .get("retired_counter")
                .and_then(JsonValue::as_i64),
            Some(7)
        );
        let diff = compare(&current, &[&base], &DiffOpts::default());
        assert!(!diff.failed());
        assert!(diff.counter_deltas.is_empty());
        assert!(diff.perf.iter().all(|p| p.metric != "phase_retired_us"));
    }

    #[test]
    fn slowdown_beyond_band_is_flagged() {
        let base = LedgerEntry::from_json(&record().to_json()).unwrap();
        let mut slow = base.clone();
        slow.wall_seconds *= 3.0;
        slow.cycles_per_sec /= 3.0;
        let diff = compare(&slow, &[&base], &DiffOpts::default());
        assert!(diff.failed());
        assert!(diff.verdict_drift.is_none());
        let regressed: Vec<&str> = diff
            .regressions()
            .iter()
            .map(|p| p.metric.as_str())
            .collect();
        assert!(regressed.contains(&"wall_seconds"), "{regressed:?}");
        assert!(regressed.contains(&"cycles_per_sec"), "{regressed:?}");
    }

    #[test]
    fn verdict_drift_is_a_hard_failure() {
        let base = LedgerEntry::from_json(&record().to_json()).unwrap();
        let mut drifted = base.clone();
        drifted.verdict_digest = format!("{:016x}", 0x0badu64);
        let diff = compare(&drifted, &[&base], &DiffOpts::default());
        assert!(diff.failed());
        let drift = diff.verdict_drift.expect("digest change must be drift");
        assert_eq!(drift.baseline_digest, base.verdict_digest);
        // gate-count drift alone is also drift
        let mut fewer = base.clone();
        fewer.exercisable_gates -= 1;
        assert!(compare(&fewer, &[&base], &DiffOpts::default())
            .verdict_drift
            .is_some());
    }

    #[test]
    fn counter_deltas_report_against_the_median() {
        let base = LedgerEntry::from_json(&record().to_json()).unwrap();
        let mut cur = base.clone();
        cur.metrics =
            JsonValue::parse(r#"{"paths_created":12,"cycles":5000,"histograms":{}}"#).unwrap();
        let diff = compare(&cur, &[&base], &DiffOpts::default());
        assert_eq!(diff.counter_deltas.len(), 1);
        assert_eq!(diff.counter_deltas[0].name, "paths_created");
        assert_eq!(diff.counter_deltas[0].baseline, 10);
        assert_eq!(diff.counter_deltas[0].current, 12);
    }

    #[test]
    fn resolve_path_honors_disable_spellings() {
        assert!(resolve_path(Some("off")).is_none());
        assert!(resolve_path(Some("none")).is_none());
        assert!(resolve_path(Some("0")).is_none());
        assert!(resolve_path(Some("")).is_none());
        assert_eq!(
            resolve_path(Some("x.ndjson")),
            Some(PathBuf::from("x.ndjson"))
        );
    }
}
