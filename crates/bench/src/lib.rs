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
