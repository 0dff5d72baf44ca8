//! Exit-code contract of the `repro` binary: bad invocations fail fast
//! with the usage string on stderr and a non-zero status; good ones
//! exit zero. Driven through the real binary (`CARGO_BIN_EXE_repro`),
//! not a parser unit test, so the `main` wiring is covered too.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = repro(&[]);
    assert!(!out.status.success(), "bare invocation must fail");
    assert!(
        stderr(&out).contains("usage: repro"),
        "stderr must carry the usage string, got: {}",
        stderr(&out)
    );
}

#[test]
fn unknown_subcommand_prints_usage_and_fails() {
    let out = repro(&["fig99"]);
    assert!(!out.status.success(), "unknown subcommand must fail");
    let err = stderr(&out);
    assert!(err.contains("unknown command fig99"), "got: {err}");
    assert!(err.contains("usage: repro"), "got: {err}");
}

#[test]
fn unknown_flag_prints_usage_and_fails() {
    let out = repro(&["fig1", "--frobnicate"]);
    assert!(!out.status.success(), "unknown flag must fail");
    let err = stderr(&out);
    assert!(err.contains("unknown flag --frobnicate"), "got: {err}");
    assert!(err.contains("usage: repro"), "got: {err}");
}

#[test]
fn flag_missing_its_value_fails() {
    let out = repro(&["fig1", "--nodes"]);
    assert!(!out.status.success(), "dangling --nodes must fail");
    assert!(stderr(&out).contains("--nodes needs a value"));
}

#[test]
fn unparsable_flag_value_fails() {
    let out = repro(&["fig1", "--rounds", "many"]);
    assert!(!out.status.success(), "non-numeric --rounds must fail");
}

#[test]
fn zero_checkpoint_interval_is_rejected() {
    let out = repro(&["resume", "--checkpoint-every", "0"]);
    assert!(!out.status.success(), "--checkpoint-every 0 must fail");
    assert!(stderr(&out).contains("--checkpoint-every must be positive"));
}

#[test]
fn corrupt_snapshot_is_a_structured_error_not_a_panic() {
    let dir = std::env::temp_dir().join("repro-cli-corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.prgs");
    std::fs::write(&path, b"not a snapshot at all").unwrap();
    let out = repro(&["resume", "--quick", "--from", path.to_str().unwrap()]);
    assert!(!out.status.success(), "corrupt snapshot must fail");
    let err = stderr(&out);
    assert!(
        err.contains("bad magic"),
        "must name the structured snapshot error, got: {err}"
    );
    assert!(
        !err.contains("panicked"),
        "must not panic on corrupt input, got: {err}"
    );
}

#[test]
fn valid_quick_command_exits_zero() {
    let out = repro(&["fig1", "--quick", "--nodes", "40"]);
    assert!(
        out.status.success(),
        "fig1 --quick must succeed, stderr: {}",
        stderr(&out)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Figure 1"));
}

#[test]
fn quick_resume_roundtrip_exits_zero() {
    let out = repro(&[
        "resume", "--quick", "--nodes", "50", "--rounds", "8", "--blocks", "4",
    ]);
    assert!(
        out.status.success(),
        "resume --quick must succeed, stderr: {}",
        stderr(&out)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bit-identical"), "got: {stdout}");
}

/// `--out` names a directory `resume` creates, as every other command
/// does: a missing nested path receives the summary CSV and the
/// checkpoints.
#[test]
fn resume_creates_a_missing_out_directory() {
    let base = std::env::temp_dir().join(format!("repro-cli-resume-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dir = base.join("nested").join("deeper");
    let out = repro(&[
        "resume",
        "--quick",
        "--nodes",
        "50",
        "--rounds",
        "8",
        "--blocks",
        "4",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "resume --out into a missing directory must succeed, stderr: {}",
        stderr(&out)
    );
    assert!(dir.join("resume.csv").is_file(), "resume.csv is written");
    let checkpoints = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("checkpoint-r") && name.ends_with(".prgs"))
        .count();
    assert!(checkpoints > 0, "a checkpoint-r*.prgs file is written");
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn failed_csv_write_exits_nonzero() {
    // Point --out at a regular file: every CSV write inside must fail,
    // and a failed artifact write is a failed command (satellite of the
    // observability PR: no more swallowed `[csv write failed]`).
    let dir = std::env::temp_dir().join("repro-cli-csvfail");
    std::fs::create_dir_all(&dir).unwrap();
    let not_a_dir = dir.join("file-not-dir");
    std::fs::write(&not_a_dir, b"occupied").unwrap();
    let out = repro(&[
        "fig1",
        "--quick",
        "--nodes",
        "40",
        "--out",
        not_a_dir.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "failed csv write must exit nonzero");
    assert!(
        stderr(&out).contains("csv write"),
        "stderr must name the failed write, got: {}",
        stderr(&out)
    );
}

#[test]
fn trace_flag_writes_parseable_jsonl_and_trace_summarizes_it() {
    let dir = std::env::temp_dir().join("repro-cli-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("run.jsonl");
    let out = repro(&[
        "convergence",
        "--quick",
        "--nodes",
        "60",
        "--rounds",
        "3",
        "--blocks",
        "5",
        "--seeds",
        "7",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "traced convergence must succeed, stderr: {}",
        stderr(&out)
    );
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let mut rounds = 0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let value = perigee_telemetry::JsonValue::parse(line).expect("every line parses");
        let rec = perigee_telemetry::TraceRecord::from_json(&value).expect("record shape");
        if rec.kind == "round" {
            rounds += 1;
            assert!(!rec.phases_s.is_empty(), "round records carry phases");
            assert!(
                rec.get_counter("blocks").is_some(),
                "round records carry the block count"
            );
        }
    }
    assert_eq!(rounds, 3, "one record per engine round");

    let out = repro(&["trace", trace.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "trace summary must succeed, stderr: {}",
        stderr(&out)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Trace summary"), "got: {stdout}");
    assert!(stdout.contains("propagation"), "got: {stdout}");
}

/// Rows of a phase-table CSV as `(phase, total_s)`.
fn phase_totals(csv: &std::path::Path) -> Vec<(String, f64)> {
    std::fs::read_to_string(csv)
        .expect("phase table written")
        .lines()
        .skip(1)
        .map(|line| {
            let mut cells = line.split(',');
            let phase = cells.next().unwrap().to_string();
            (phase, cells.next().unwrap().parse().unwrap())
        })
        .collect()
}

#[test]
fn trace_summary_keeps_round_and_command_phases_apart() {
    // Two rounds and the command that ran them: the command's lap covers
    // the rounds, so folding it into the round table would double count.
    let dir = std::env::temp_dir().join("repro-cli-trace-tables");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("hand.jsonl");
    let lines = [
        r#"{"schema":1,"kind":"round","run":"demo","seed":7,"round":0,"phases_s":{"mine":0.25,"propagation":1.5},"counters":{},"values":{}}"#,
        r#"{"schema":1,"kind":"round","run":"demo","seed":7,"round":1,"phases_s":{"mine":0.5,"propagation":0.75},"counters":{},"values":{}}"#,
        r#"{"schema":1,"kind":"command","run":"demo","seed":7,"round":0,"phases_s":{"convergence":3.125},"counters":{},"values":{}}"#,
    ];
    std::fs::write(&trace, lines.join("\n")).unwrap();
    let out_dir = dir.join("out");
    let out = repro(&[
        "trace",
        trace.to_str().unwrap(),
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "trace summary must succeed, stderr: {}",
        stderr(&out)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("2 round(s), 1 command profile(s)"),
        "got: {stdout}"
    );

    let rounds = phase_totals(&out_dir.join("trace_phases.csv"));
    let (total, phases) = rounds.split_last().unwrap();
    assert_eq!(total.0, "total");
    let names: Vec<&str> = phases.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        ["mine", "propagation"],
        "no command lap in the round table"
    );
    let sum: f64 = phases.iter().map(|(_, s)| s).sum();
    assert_eq!(total.1, sum, "round total is the sum of the round phases");
    assert_eq!(total.1, 3.0);

    let commands = phase_totals(&out_dir.join("trace_commands.csv"));
    assert_eq!(
        commands,
        [
            ("convergence".to_string(), 3.125),
            ("total".to_string(), 3.125)
        ]
    );
}

#[test]
fn trace_without_a_file_fails() {
    let out = repro(&["trace"]);
    assert!(!out.status.success(), "bare trace must fail");
    assert!(stderr(&out).contains("trace needs a file"));
}

#[test]
fn deeply_nested_trace_line_is_an_error_not_a_crash() {
    let dir = std::env::temp_dir().join("repro-cli-deep-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep.jsonl");
    std::fs::write(&path, "[".repeat(100_000)).unwrap();
    let out = repro(&["trace", path.to_str().unwrap()]);
    assert!(!out.status.success(), "a hostile trace line must fail");
    let err = stderr(&out);
    assert!(
        err.contains("deep.jsonl:1: json error at byte 128: arrays and objects nest too deeply"),
        "must name the line and the parse error, got: {err}"
    );
}

#[test]
fn unopenable_trace_output_fails_fast() {
    let out = repro(&[
        "fig1",
        "--quick",
        "--nodes",
        "40",
        "--trace",
        "/definitely/not/a/dir/run.jsonl",
    ]);
    assert!(!out.status.success(), "unopenable --trace must fail");
    assert!(stderr(&out).contains("cannot open trace output"));
}
