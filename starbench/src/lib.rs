//! The repository benchmark: three star-interconnect workloads run as
//! closed loops of end-to-end calls, with host time, simulated results
//! and per-layer spans timed from outside the library.
//!
//! ```sh
//! cargo run --release --offline --manifest-path starbench/Cargo.toml -- \
//!     --workload uniform-s9 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is
//! the full report with provenance, the output digest and every metric
//! with its layer. See `README.md` beside this crate.

pub mod bench;
pub mod host;
pub mod json;
pub mod spec;
pub mod trace;
pub mod workload;
