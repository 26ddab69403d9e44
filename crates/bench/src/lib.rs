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

use std::fmt::{Arguments, Display};
use std::io::{ErrorKind, Write};
use std::ops::RangeInclusive;
use std::str::FromStr;

/// Writes `args` to stdout for the binary `bin`, as `print!` does, but
/// without panicking when stdout fails. When the reader has gone (a
/// broken pipe), the command stops printing and exits with `status`,
/// the status it ends with anyway; any other write error prints
/// `<bin>: <error>` to stderr and exits 2.
pub fn write_out(bin: &str, status: i32, args: Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_fmt(args).and_then(|()| out.flush()) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(status);
        }
        eprintln!("{bin}: {e}");
        std::process::exit(2);
    }
}

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

/// `print!` through [`write_out`], for a command that exits 0. The
/// binaries import it (and [`println!`]) in place of the standard
/// macros, so all they print goes through [`write_out`].
#[macro_export]
macro_rules! print {
    ($($arg:tt)*) => { $crate::write_out(env!("CARGO_BIN_NAME"), 0, format_args!($($arg)*)) };
}

/// `println!` through [`write_out`], for a command that exits 0.
#[macro_export]
macro_rules! println {
    () => { $crate::print!("\n") };
    ($($arg:tt)*) => { $crate::print!("{}\n", format_args!($($arg)*)) };
}
