//! Trace replay and divergence diffing — debugging from a log file.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```
//!
//! 1. Records a saturated `S_5` run into the versioned `sg-trace`
//!    JSONL format (header + packet preamble + event stream).
//! 2. Replays the serialized text alone — no `Network`, no
//!    `Workload` — and shows the reconstructed statistics are
//!    **byte-identical** to what the live run returned.
//! 3. Re-renders the observability dashboard purely from the log.
//! 4. Mutates a single event and lets the structural differ localize
//!    the divergence to its exact round and in-round index — the
//!    workflow the differential harness uses when engines disagree.

use star_mesh_embedding::net::trace::{record, replay_jsonl};
use star_mesh_embedding::net::{Engine, GreedyRouting, Network, Tenants, Workload};
use star_mesh_embedding::obs::{diff_events, Event, NetProbe, Probe, Trace};
use star_mesh_embedding::perm::factorial::factorial;

fn main() {
    // 1. Record: one saturated uniform run on S_5, event log attached.
    let n = 5;
    let net = Network::new(n);
    let w = Workload::bernoulli_uniform(n, 10, 60, 0x7ACE);
    let (live, trace) = record(&net, &w, Tenants::One(&GreedyRouting), Engine::Fast, 0x7ACE);
    let text = trace.to_jsonl();
    println!("=== Recorded S_{n} run ===\n");
    println!(
        "{} packets, {} events, {} JSONL bytes; header:",
        trace.header.packets,
        trace.header.events,
        text.len()
    );
    println!("  {}\n", text.lines().next().unwrap());

    // 2. Replay from the text alone: byte-identical statistics.
    let replayed = replay_jsonl(&text).expect("clean log replays");
    assert_eq!(replayed, live, "replay reconstructs the live stats");
    println!("=== Replayed from the log alone ===\n");
    println!(
        "delivered {} / injected {}, makespan {}, wait rounds {}, peak node occupancy {}",
        replayed.total.delivered,
        replayed.total.injected,
        replayed.total.makespan,
        replayed.total.total_wait_rounds,
        replayed.total.peak_node_occupancy,
    );
    println!("replayed TrafficStats == live TrafficStats: byte-identical\n");

    // 3. The dashboard, re-rendered from the parsed stream.
    let parsed = Trace::parse(&text).expect("round-trips");
    let mut probe = NetProbe::new(factorial(n) as usize, n - 1);
    for ev in &parsed.events {
        probe.event(ev);
    }
    println!("=== Dashboard re-rendered from the log ===\n");
    print!("{}", probe.render(3));

    // 4. Inject a divergence and localize it.
    let a = parsed.events.clone();
    let mut b = a.clone();
    let victim = a.len() / 2;
    b[victim] = Event::Delivered {
        round: a[victim].round(),
        pid: 4242,
        pe: 0,
        hops: 9,
    };
    let d = diff_events(&a, &b, 2).expect("mutated stream diverges");
    println!("\n=== Structural diff after mutating event {victim} ===\n");
    print!("{}", d.render());
}
