//! Record, replay, inspect, and diff `sg-trace` JSONL logs.
//!
//! ```sh
//! cargo run --release -p sg-bench --bin trace -- record /tmp/s6.jsonl --n 6 --seed 7
//! cargo run --release -p sg-bench --bin trace -- record /tmp/ar6.jsonl --allreduce --n 6
//! cargo run --release -p sg-bench --bin trace -- replay /tmp/s6.jsonl
//! cargo run --release -p sg-bench --bin trace -- stats /tmp/s6.jsonl
//! cargo run --release -p sg-bench --bin trace -- diff /tmp/a.jsonl /tmp/b.jsonl --context 3
//! ```
//!
//! `record` records a random-permutation run, or with `--allreduce`
//! the lattice allreduce compiled on `S_n` (`n ≤ 6`) as a partitioned
//! trace whose owners are its phases (fast engine only: the reference
//! engine keeps no per-phase statistics), and replays the log it wrote
//! before writing it. `replay` reconstructs the run's statistics and
//! dashboards from the log alone — byte-identical to what the live run
//! reported. `diff` exits 1 when the two logs diverge (localizing the
//! first diverging round and event) and 0 when they are identical, so
//! it slots into CI scripts directly, also when its output is cut
//! short.

use sg_bench::{parse_flag, print, println, write_out};
use sg_coll::allreduce_lattice;
use sg_net::trace::{record, replay, replay_jsonl};
use sg_net::{
    Engine, GreedyRouting, Network, RoutingPolicy, Tenants, TrafficStats, Workload, MAX_ORDER,
};
use sg_obs::{diff_events, NetProbe, Probe, Trace};
use sg_perm::factorial::factorial;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         trace record <path> [--n N] [--seed S] [--reference | --allreduce]\n  \
         trace replay <path> [--top K]\n  \
         trace stats <path>\n  \
         trace diff <a> <b> [--context K]"
    );
    std::process::exit(2);
}

fn die(msg: &str) -> ! {
    eprintln!("trace: {msg}");
    std::process::exit(2);
}

fn load(path: &str) -> Trace {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    Trace::parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

fn summary(tag: &str, s: &TrafficStats) {
    println!(
        "{tag}: injected {}  delivered {}  dropped {}  stranded {}  makespan {}  \
         wait {}  stalls {}  peak edge/node {}/{}  forwarded {}",
        s.injected,
        s.delivered,
        s.dropped(),
        s.stranded,
        s.makespan,
        s.total_wait_rounds,
        s.injection_stall_rounds,
        s.peak_edge_occupancy,
        s.peak_node_occupancy,
        s.forwarded_flits,
    );
}

/// Largest order `--allreduce` records: the `allreduce-s6`
/// benchmark's. At `S_7` the log would run to millions of events.
const ALLREDUCE_MAX_ORDER: usize = 6;

fn cmd_record(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    let allreduce = args.iter().any(|a| a == "--allreduce");
    let reference = args.iter().any(|a| a == "--reference");
    let max_n = if allreduce {
        ALLREDUCE_MAX_ORDER
    } else {
        MAX_ORDER
    };
    let n = parse_flag("trace record", args, "--n", 5, 2..=max_n);
    let seed = parse_flag("trace record", args, "--seed", 7, 0..=u64::MAX);
    if allreduce && reference {
        eprintln!(
            "usage: trace record <path> --allreduce [--n N] [--seed S]  \
             (the reference engine keeps no per-phase statistics; drop --reference)"
        );
        std::process::exit(2);
    }
    let engine = if reference {
        Engine::Reference
    } else {
        Engine::Fast
    };
    let net = Network::new(n);
    let chained = allreduce.then(|| allreduce_lattice(n).compile(&net, &GreedyRouting));
    let (policies, escape, permutation);
    let (workload, tenants, what) = match &chained {
        // One owner per phase: the replay splits the run per phase.
        Some(chained) => {
            policies = vec![&GreedyRouting as &dyn RoutingPolicy; chained.phase_count()];
            escape = vec![false; policies.len()];
            let tenants = Tenants::PerJob {
                policies: &policies,
                owner: &chained.owner,
                escape: &escape,
            };
            let what = format!("allreduce run ({} phases as owners)", policies.len());
            (&chained.workload, tenants, what)
        }
        None => {
            permutation = Workload::random_permutation(n, seed);
            let what = "permutation run".to_string();
            (&permutation, Tenants::One(&GreedyRouting), what)
        }
    };
    let (live, trace) = record(&net, workload, tenants, engine, seed);
    let text = trace.to_jsonl();
    // Self-check before writing: the file we emit must replay to the
    // exact statistics the live run produced, per phase included.
    let back =
        replay_jsonl(&text).unwrap_or_else(|e| die(&format!("self-check replay failed: {e}")));
    assert_eq!(
        back, live,
        "self-check: replayed stats diverge from live run"
    );
    std::fs::write(path, &text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    println!(
        "recorded S_{n} {what} ({}) to {path}: {} packets, {} events, replay self-check ok",
        trace.header.engine, trace.header.packets, trace.header.events
    );
    summary("live", &live.total);
}

fn cmd_replay(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    let top = parse_flag("trace replay", args, "--top", 5, 0..=usize::MAX);
    let trace = load(path);
    let h = &trace.header;
    println!(
        "{path}: schema {} engine {} n {} seed {} jobs {} [{}]",
        h.schema, h.engine, h.n, h.seed, h.jobs, h.fingerprint
    );
    let stats = replay(&trace).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    summary("replayed", &stats.total);
    for (j, s) in stats.per_job.iter().enumerate() {
        summary(&format!("  job {j}"), s);
    }
    let n = h.n as usize;
    let mut probe = NetProbe::new(factorial(n) as usize, n.saturating_sub(1));
    for ev in &trace.events {
        probe.event(ev);
    }
    println!();
    print!("{}", probe.render(top));
}

fn cmd_stats(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    let trace = load(path);
    let h = &trace.header;
    println!(
        "{path}: schema {} engine {} n {} seed {} packets {} events {} jobs {} [{}]",
        h.schema, h.engine, h.n, h.seed, h.packets, h.events, h.jobs, h.fingerprint
    );
    let stats = replay(&trace).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    summary("replayed", &stats.total);
    for (j, s) in stats.per_job.iter().enumerate() {
        summary(&format!("  job {j}"), s);
    }
}

fn cmd_diff(args: &[String]) {
    let (pa, pb) = match (args.first(), args.get(1)) {
        (Some(a), Some(b)) => (a, b),
        _ => usage(),
    };
    let context = parse_flag("trace diff", args, "--context", 3, 0..=usize::MAX);
    let a = load(pa);
    let b = load(pb);
    // The verdict is known before anything prints, so that a closed
    // stdout still exits with it.
    let diff = diff_events(&a.events, &b.events, context);
    let status = i32::from(diff.is_some());
    let mut text = String::new();
    if a.header.fingerprint != b.header.fingerprint {
        let (fa, fb) = (&a.header.fingerprint, &b.header.fingerprint);
        text = format!("note: configs differ — a: [{fa}]  b: [{fb}]\n");
    }
    text += &diff.map_or_else(
        || format!("identical: {} event(s)\n", a.events.len()),
        |d| d.render(),
    );
    write_out("trace", status, format_args!("{text}"));
    std::process::exit(status);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = &args[1.min(args.len())..];
    match args.first().map(String::as_str) {
        Some("record") => cmd_record(rest),
        Some("replay") => cmd_replay(rest),
        Some("stats") => cmd_stats(rest),
        Some("diff") => cmd_diff(rest),
        _ => usage(),
    }
}
