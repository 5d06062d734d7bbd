//! The benchmark's own tests: its output contract, and that its
//! correctness checks can fail.

use std::process::Command;

use symsim_obs::JsonValue;

struct Run {
    code: i32,
    last: JsonValue,
    stdout: String,
}

fn perfbench(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().unwrap_or_default().to_string();
    let last =
        JsonValue::parse(&line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {stdout}"));
    Run {
        code: out.status.code().unwrap_or(-1),
        last,
        stdout,
    }
}

fn field(run: &Run, key: &str) -> u64 {
    run.last.get(key).and_then(JsonValue::as_u64).unwrap()
}

fn metric_names(v: &JsonValue) -> Vec<String> {
    match v {
        JsonValue::Object(members) => members.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("not an object"),
    }
}

/// Names listed under `key` in the repository's `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let doc = JsonValue::parse(&text).unwrap();
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn output_carries_exactly_the_declared_metrics() {
    let base = [
        "--workload",
        "paper-matrix",
        "--pairs",
        "omsp16/div",
        "--seed",
        "3",
        "--seconds",
        "0",
    ];
    let e2e = perfbench(&[&base[..], &["--trace", "0"]].concat());
    assert_eq!(e2e.code, 0, "{}", e2e.stdout);
    assert_eq!(e2e.last.get("correct"), Some(&JsonValue::Bool(true)));
    // a warm-up pass and at least three timed passes of the one pair
    assert!(field(&e2e, "attempted") >= 4);
    assert_eq!(field(&e2e, "failed"), 0);
    let metrics = e2e.last.get("metrics").unwrap();
    assert_eq!(metric_names(metrics), declared("end_to_end"));
    for name in declared("end_to_end") {
        let m = metrics.get(&name).unwrap();
        assert!(
            m.get("value").and_then(JsonValue::as_f64).unwrap() > 0.0,
            "{name}"
        );
    }
    // every end-to-end metric and fail_ratio also print by name with unit
    assert!(e2e.stdout.contains("paper-matrix fail_ratio = 0 ratio"));

    let layers = perfbench(&[&base[..], &["--trace", "1"]].concat());
    assert_eq!(layers.code, 0, "{}", layers.stdout);
    let metrics = layers.last.get("metrics").unwrap();
    assert_eq!(metric_names(metrics), declared("per_layer"));
}

#[test]
fn a_wrong_expected_digest_fails_the_run() {
    let run = perfbench(&[
        "--workload",
        "paper-matrix",
        "--pairs",
        "omsp16/div,omsp16/mult",
        "--seed",
        "3",
        "--passes",
        "1",
        "--trace",
        "0",
        "--inject",
        "wrong-digest",
    ]);
    assert_ne!(run.code, 0);
    assert_eq!(run.last.get("correct"), Some(&JsonValue::Bool(false)));
    assert_eq!(field(&run, "attempted"), 2);
    assert_eq!(
        field(&run, "failed"),
        1,
        "only the first pair's digest is wrong"
    );
    assert!(run.stdout.contains("FAILED omsp16/div: verdict digest"));
}

#[test]
fn a_corrupted_iss_expectation_fails_the_run() {
    let run = perfbench(&[
        "--workload",
        "concrete-validate",
        "--pairs",
        "dr5/div",
        "--seed",
        "3",
        "--passes",
        "1",
        "--trace",
        "0",
        "--inject",
        "bad-iss",
    ]);
    assert_ne!(run.code, 0);
    assert_eq!(run.last.get("correct"), Some(&JsonValue::Bool(false)));
    assert_eq!(field(&run, "attempted"), 16);
    assert_eq!(
        field(&run, "failed"),
        1,
        "only the first input's expectation is wrong"
    );
    assert!(run.stdout.contains("FAILED dr5/div input"));
}

#[test]
fn a_fresh_seed_passes_the_iss_check_on_every_pair() {
    // a seed not used while the benchmark was written
    let run = perfbench(&[
        "--workload",
        "concrete-validate",
        "--seed",
        "982451653",
        "--passes",
        "1",
        "--trace",
        "0",
    ]);
    assert_eq!(run.code, 0, "{}", run.stdout);
    assert_eq!(field(&run, "attempted"), 18 * 16);
    assert_eq!(field(&run, "failed"), 0);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "paper-matrix", "--trace", "2"],
        &["--workload", "paper-matrix", "--pairs", "dr5/none"],
        &[
            "--workload",
            "concrete-validate",
            "--inject",
            "wrong-digest",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert_ne!(out.status.code(), Some(0), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
