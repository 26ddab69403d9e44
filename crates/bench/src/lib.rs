//! # sg-bench — the `tables` and `trace` CLIs
//!
//! `tables` regenerates every table and figure of the paper; `trace`
//! records, replays and diffs `sg-trace` logs. Performance is measured
//! by the `starbench` package and its `BENCHMARK.json`, not here.
//!
//! ```sh
//! cargo run --release -p sg-bench --bin tables -- all
//! cargo run --release -p sg-bench --bin trace -- record /tmp/s6.jsonl --n 6
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

pub use report::Table;

use std::fmt::Display;
use std::ops::RangeInclusive;
use std::str::FromStr;

/// The value of flag `name` in `args`, or `default` when the flag is
/// absent. A missing, unparsable or out-of-`range` value prints the
/// usage line `usage: <command> [<name> N]  (<lo> <= N <= <hi>)` and
/// exits 2 before any work starts; `command` names the binary and its
/// subcommand, e.g. `"trace record"`.
pub fn parse_flag<T>(
    command: &str,
    args: &[String],
    name: &str,
    default: T,
    range: RangeInclusive<T>,
) -> T
where
    T: FromStr + PartialOrd + Display,
{
    let Some(i) = args.iter().position(|a| a == name) else {
        return default;
    };
    match args.get(i + 1).and_then(|v| v.parse().ok()) {
        Some(v) if range.contains(&v) => v,
        _ => {
            let (lo, hi) = range.into_inner();
            eprintln!("usage: {command} [{name} N]  ({lo} <= N <= {hi})");
            std::process::exit(2);
        }
    }
}
