//! `starbench --workload W --seed N --seconds S --trace 0|1`: one
//! benchmark run; prints the report line, then the result line.

use starbench::bench::{self, Args};
use starbench::host;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("starbench: {e}\n{}", bench::USAGE);
            return ExitCode::from(2);
        }
    };
    // One CPU for the whole run: on shared virtual CPUs, waking a second
    // core for every short parallel section costs more, and varies more,
    // than the work it takes over.
    let cpus = host::pin_to_one_cpu();
    if cpus.pinned.is_none() {
        eprintln!("starbench: could not pin to one CPU; running unpinned");
    }
    match bench::run(&args) {
        Ok(out) => {
            for (m, v) in &out.metrics {
                eprintln!("{:<34} {v:>16.6} {}", m.name, m.unit);
            }
            if out.oracle != "ok" {
                eprintln!("starbench: oracle: {}", out.oracle);
            }
            println!("{}", bench::report_line(&args, &out, cpus));
            println!("{}", bench::result_line(&out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("starbench: {e}");
            ExitCode::FAILURE
        }
    }
}
