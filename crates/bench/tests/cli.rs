//! The `tables` CLI refuses a bad flag value with its usage line and
//! exit code 2 before doing any work, instead of panicking in a
//! library `assert!` (exit 101) or silently running with the default.

use std::process::{Command, Output};

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("the tables binary runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = tables(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "tables {args:?}: {stderr}");
    assert!(
        stderr.starts_with("usage: tables"),
        "tables {args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "tables {args:?} did work first");
}

#[test]
fn out_of_range_value_exits_2() {
    for args in [
        ["fig7", "--n", "1"],
        ["obs", "--n", "1"],
        ["obs", "--n", "2"],
        ["sched", "--n", "2"],
        ["traffic", "--n", "10"],
        ["coll", "--max-n", "10"],
        ["congestion", "--max-n", "11"],
        ["thm6", "--max-n", "12"],
        ["dilation", "--max-n", "12"],
    ] {
        assert_usage_error(&args);
    }
}

#[test]
fn unparsable_value_exits_2() {
    assert_usage_error(&["table1", "--n", "abc"]);
    assert_usage_error(&["dilation", "--max-n", "-3"]);
    assert_usage_error(&["traffic", "--n"]);
}

#[test]
fn fig2_exits_0() {
    let out = tables(&["fig2"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("nodes = 24, degree = 3"));
}
