//! The `tables` and `trace` CLIs refuse a bad flag value with a usage
//! line and exit code 2 before doing any work, instead of panicking in
//! a library `assert!` (exit 101) or silently running with the default.
//! A stdout whose reader has gone ends a command with the status it
//! would have exited with anyway, not with a panic.

use std::path::Path;
use std::process::{Command, Output};

fn command(bin: &str, args: &[&str]) -> Command {
    let exe = match bin {
        "tables" => env!("CARGO_BIN_EXE_tables"),
        _ => env!("CARGO_BIN_EXE_trace"),
    };
    let mut command = Command::new(exe);
    command.args(args);
    command
}

fn run(bin: &str, args: &[&str]) -> Output {
    command(bin, args).output().expect("the binary runs")
}

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.starts_with(&format!("usage: {bin}")),
        "{bin} {args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{bin} {args:?} did work first");
}

/// A per-test file under cargo's integration-test temp dir.
fn temp_path(name: &str) -> String {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(name)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn out_of_range_value_exits_2() {
    for args in [
        ["fig7", "--n", "1"],
        ["obs", "--n", "1"],
        ["obs", "--n", "2"],
        ["sched", "--n", "2"],
        ["sched", "--n", "10"],
        ["coll", "--max-n", "10"],
        ["congestion", "--max-n", "11"],
        ["thm6", "--max-n", "12"],
        ["dilation", "--max-n", "12"],
    ] {
        assert_usage_error("tables", &args);
    }
}

#[test]
fn unparsable_value_exits_2() {
    assert_usage_error("tables", &["table1", "--n", "abc"]);
    assert_usage_error("tables", &["dilation", "--max-n", "-3"]);
    assert_usage_error("tables", &["sched", "--n"]);
}

#[test]
fn fig2_exits_0() {
    let out = run("tables", &["fig2"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("nodes = 24, degree = 3"));
}

#[test]
fn trace_record_refuses_a_bad_order_or_seed() {
    let path = temp_path("trace-bad-flag.jsonl");
    for args in [
        ["--n", "10"],
        ["--n", "1"],
        ["--n", "abc"],
        ["--seed", "-1"],
    ] {
        let _ = std::fs::remove_file(&path);
        assert_usage_error("trace", &["record", &path, args[0], args[1]]);
        assert!(
            !Path::new(&path).exists(),
            "trace record {args:?} wrote a log"
        );
    }
    assert_usage_error("trace", &["record", &path, "--n"]);
}

#[test]
fn trace_replay_and_diff_refuse_a_bad_count() {
    let path = temp_path("trace-s3.jsonl");
    let out = run("trace", &["record", &path, "--n", "3", "--seed", "1"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_usage_error("trace", &["diff", &path, &path, "--context", "x"]);
    assert_usage_error("trace", &["replay", &path, "--top", "-2"]);
    let out = run("trace", &["diff", &path, &path, "--context", "0"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn trace_record_allreduce_replays_per_phase() {
    let path = temp_path("trace-allreduce-s3.jsonl");
    let out = run("trace", &["record", &path, "--allreduce", "--n", "3"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("allreduce run (6 phases as owners)"),
        "{stdout}"
    );
    let out = run("trace", &["stats", &path]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("jobs 6"), "{stdout}");
    assert_eq!(stdout.matches("  job ").count(), 6, "{stdout}");
}

#[test]
fn trace_record_allreduce_refuses_the_reference_engine_and_large_orders() {
    let path = temp_path("trace-allreduce-refused.jsonl");
    for args in [
        &["--allreduce", "--reference"][..],
        &["--reference", "--allreduce", "--n", "4"],
        &["--allreduce", "--n", "7"],
    ] {
        let _ = std::fs::remove_file(&path);
        let mut argv = vec!["record", path.as_str()];
        argv.extend_from_slice(args);
        assert_usage_error("trace", &argv);
        assert!(
            !Path::new(&path).exists(),
            "trace record {args:?} wrote a log"
        );
    }
}

#[test]
fn closed_stdout_ends_a_command_with_its_own_status() {
    let a = temp_path("trace-closed-stdout-a.jsonl");
    let b = temp_path("trace-closed-stdout-b.jsonl");
    let c = temp_path("trace-closed-stdout-c.jsonl");
    for (path, seed) in [(&a, "1"), (&b, "2")] {
        let out = run("trace", &["record", path, "--n", "3", "--seed", seed]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
    }
    for (bin, args, status) in [
        ("tables", &["table1"][..], 0),
        ("trace", &["record", &c, "--n", "4"], 0),
        ("trace", &["stats", &a], 0),
        ("trace", &["diff", &a, &b], 1),
    ] {
        // Stdout is a pipe whose reader is gone: the first write fails.
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = command(bin, args).stdout(writer).output().expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(status), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
}
