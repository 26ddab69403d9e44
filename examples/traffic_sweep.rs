//! Traffic on the star interconnect: the paper's lockstep certificate
//! vs. real contention.
//!
//! ```sh
//! cargo run --release --example traffic_sweep
//! ```
//!
//! Four experiments on the `sg-net` simulator:
//!
//! 1. **Lemma 5 under load** — the mesh-dimension-sweep workload under
//!    embedding-path routing finishes in exactly 3 rounds (1 on
//!    dimension `n−1`) with zero queueing, for every dimension and
//!    direction. Theorem 6, now measured instead of proven.
//! 2. **Saturation** — uniform random traffic has no such certificate:
//!    as offered load rises toward full injection, queues grow and
//!    latency departs the distance bound.
//! 3. **Adversarial patterns** — transpose and hot-spot traffic.
//! 4. **Faults** — the paper's `n−2` dead-node budget under drop vs.
//!    reroute semantics.
//! 5. **Engines and flow control** — FastEngine ≡ ReferenceEngine on
//!    identical traffic (asserted), adaptive routing vs the oblivious
//!    policies on skewed traffic, and credit-based flow control
//!    trading tail drops for source stalls (zero loss, asserted). Two
//!    timing guards close it: the fast engine, probed with a
//!    `NullProbe`, within 1.1× of the reference engine's time on
//!    `S_7`, and a lossless full-injection sweep of all 40 320 PEs of
//!    `S_8` within 60 s. Run the example in release for them.
//! 6. **Observability** — an `sg-obs` probe riding a saturated run:
//!    the hottest links and the round of peak queue depth, recovered
//!    from the event stream without perturbing the statistics
//!    (asserted byte-identical to the unprobed run).

use star_mesh_embedding::net::{
    saturation_sweep, AdaptiveRouting, EmbeddingRouting, Engine, FaultPlan, FaultPolicy,
    FlowControl, GreedyRouting, NetConfig, Network, Tenants, Workload,
};
use star_mesh_embedding::obs::{NetProbe, NullProbe};
use std::time::Instant;

fn main() {
    lemma5_under_load();
    saturation();
    adversarial();
    faults();
    engines_and_flow_control();
    observability();
}

fn lemma5_under_load() {
    println!("=== 1. Lemma 5 under load: dimension sweep, embedding-path routing ===\n");
    println!(
        "{:>3} {:>3} {:>4} {:>9} {:>7} {:>6} {:>7} {:>9}",
        "n", "k", "dir", "messages", "rounds", "waits", "peak q", "conflict?"
    );
    for n in 4..=6usize {
        let net = Network::new(n);
        for k in 1..n {
            for plus in [true, false] {
                let w = Workload::dimension_sweep(n, k, plus);
                let stats = net.run(&w, &EmbeddingRouting);
                assert!(
                    stats.is_contention_free(),
                    "Lemma 5 must hold on the simulator"
                );
                let expect = if k == n - 1 { 1 } else { 3 };
                assert_eq!(stats.makespan as usize, expect, "Theorem 6 bound");
                assert_eq!(stats.delivered, stats.injected);
                println!(
                    "{:>3} {:>3} {:>4} {:>9} {:>7} {:>6} {:>7} {:>9}",
                    n,
                    k,
                    if plus { "+" } else { "-" },
                    stats.injected,
                    stats.makespan,
                    stats.total_wait_rounds,
                    stats.peak_edge_occupancy,
                    "none"
                );
            }
        }
    }
    println!("\nEvery sweep: 3 star unit routes per mesh unit route (1 on dim n-1),");
    println!("zero queueing — the paper's non-blocking schedule, reproduced with");
    println!("contention accounting switched on.\n");
}

fn saturation() {
    let n = 5;
    let rounds = 30;
    println!("=== 2. Saturation: uniform random traffic on S_{n}, {rounds} rounds ===\n");
    let net = Network::new(n);
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>11} {:>11} {:>8}",
        "rate%", "offered", "delivered", "avg lat", "thrpt/round", "wait rounds", "peak q"
    );
    let points = saturation_sweep(&net, &[10, 25, 50, 75, 100], rounds, 0xBEEF, &GreedyRouting);
    for p in &points {
        println!(
            "{:>6} {:>9} {:>9} {:>9.2} {:>11.1} {:>11} {:>8}",
            p.rate_pct,
            p.injected,
            p.delivered,
            p.avg_latency,
            p.throughput,
            p.total_wait_rounds,
            p.peak_edge_occupancy
        );
    }
    let full = points.last().expect("sweep has points");
    assert!(
        full.total_wait_rounds > 0 && full.peak_edge_occupancy > 1,
        "full injection must queue measurably"
    );
    println!("\nAt full injection (rate 100%) queues are unavoidable — contrast the");
    println!("zero-wait rows of experiment 1.\n");
}

fn adversarial() {
    let n = 5;
    println!("=== 3. Adversarial patterns on S_{n} ===\n");
    let net = Network::new(n);
    println!(
        "{:>14} {:>10} {:>9} {:>9} {:>9} {:>11} {:>8}",
        "workload", "policy", "packets", "rounds", "avg lat", "wait rounds", "peak q"
    );
    let transpose = Workload::transpose(n);
    let hotspot = Workload::hot_spot(n, 0, 30, 0x5EED);
    for w in [&transpose, &hotspot] {
        for (name, stats) in [
            ("greedy", net.run(w, &GreedyRouting)),
            ("embedding", net.run(w, &EmbeddingRouting)),
        ] {
            println!(
                "{:>14} {:>10} {:>9} {:>9} {:>9.2} {:>11} {:>8}",
                w.name(),
                name,
                stats.injected,
                stats.makespan,
                stats.avg_latency(),
                stats.total_wait_rounds,
                stats.peak_edge_occupancy
            );
        }
    }
    println!();
}

fn faults() {
    let n = 5;
    let dead = n - 2;
    println!("=== 4. Faults: {dead} dead PEs (the n-2 budget) on S_{n} ===\n");
    let w = Workload::random_permutation(n, 0xFADE);
    println!(
        "{:>9} {:>9} {:>9} {:>8} {:>13} {:>9}",
        "policy", "packets", "delivered", "dropped", "unreachable", "avg lat"
    );
    for policy in [FaultPolicy::Drop, FaultPolicy::Reroute] {
        let plan = FaultPlan::random_nodes(n, dead, 0xD00D).with_policy(policy);
        let net = Network::new(n).with_faults(plan.clone());
        let stats = net.run(&w, &GreedyRouting);
        println!(
            "{:>9} {:>9} {:>9} {:>8} {:>13} {:>9.2}",
            match policy {
                FaultPolicy::Drop => "drop",
                FaultPolicy::Reroute => "reroute",
            },
            stats.injected,
            stats.delivered,
            stats.dropped_fault,
            stats.dropped_unreachable,
            stats.avg_latency()
        );
        if policy == FaultPolicy::Reroute {
            // Packets from/to dead PEs are lost either way; every
            // live-to-live packet must survive rerouting.
            let live_pairs = stats
                .packets
                .iter()
                .filter(|r| !plan.is_node_dead(r.src) && !plan.is_node_dead(r.dst))
                .count() as u64;
            assert_eq!(
                stats.delivered, live_pairs,
                "n-2 faults never disconnect live PEs"
            );
        }
    }
    println!("\nReroute recovers every packet between live PEs: S_n is (n-1)-connected,");
    println!("so n-2 faults cannot cut it (the paper's fault-tolerance bound).\n");
}

fn engines_and_flow_control() {
    let n = 5;
    println!("=== 5. Engines, adaptive routing, credit-based flow control (S_{n}) ===\n");

    // FastEngine vs ReferenceEngine: byte-identical statistics on
    // contended traffic — the differential guarantee, demonstrated.
    let net = Network::new(n);
    let uniform = Workload::bernoulli_uniform(n, 20, 100, 0xBEEF);
    let fast = net.run_with(&uniform, &GreedyRouting, Engine::Fast);
    let reference = net.run_with(&uniform, &GreedyRouting, Engine::Reference);
    assert_eq!(fast, reference, "engines must agree bit for bit");
    println!(
        "engines agree on {} packets: makespan {}, wait rounds {}, peak queue {}\n",
        fast.injected, fast.makespan, fast.total_wait_rounds, fast.peak_edge_occupancy
    );

    // Adaptive routing spreads skewed traffic over the shortest-path
    // DAG instead of piling onto one fixed route per pair.
    println!(
        "{:>14} {:>10} {:>9} {:>9} {:>11} {:>8}",
        "workload", "policy", "packets", "rounds", "wait rounds", "peak q"
    );
    let hotspot = Workload::hot_spot(n, 0, 40, 0x5EED);
    for w in [&uniform, &hotspot] {
        for (name, stats) in [
            ("greedy", net.run(w, &GreedyRouting)),
            ("adaptive", net.run(w, &AdaptiveRouting)),
        ] {
            assert_eq!(stats.delivered, stats.injected);
            println!(
                "{:>14} {:>10} {:>9} {:>9} {:>11} {:>8}",
                w.name(),
                name,
                stats.injected,
                stats.makespan,
                stats.total_wait_rounds,
                stats.peak_edge_occupancy
            );
        }
    }

    // Credit-based flow control on a bounded buffer: where tail drop
    // loses packets, credits stall them at the source instead. (80%
    // injection over 2-slot queues: overloaded, but above the tiny
    // pool sizes where blocking flow control can deadlock.)
    let overload = Workload::bernoulli_uniform(n, 20, 80, 0xBEEF);
    println!();
    println!(
        "{:>14} {:>9} {:>9} {:>8} {:>13} {:>11}",
        "flow control", "packets", "delivered", "dropped", "inject stall", "wait rounds"
    );
    for (name, flow) in [
        ("tail-drop", FlowControl::TailDrop),
        ("credit", FlowControl::CreditBased),
    ] {
        let bounded = Network::new(n).with_config(NetConfig {
            queue_capacity: Some(2),
            flow_control: flow,
            ..NetConfig::default()
        });
        let stats = bounded.run(&overload, &GreedyRouting);
        if flow == FlowControl::CreditBased {
            assert_eq!(stats.dropped(), 0, "credits never drop");
            assert_eq!(stats.delivered, stats.injected);
            assert!(stats.injection_stall_rounds > 0, "overload must stall");
        } else {
            assert!(stats.dropped_overflow > 0, "overload must tail-drop");
        }
        println!(
            "{:>14} {:>9} {:>9} {:>8} {:>13} {:>11}",
            name,
            stats.injected,
            stats.delivered,
            stats.dropped(),
            stats.injection_stall_rounds,
            stats.total_wait_rounds
        );
    }
    println!("\nSame traffic, same buffers: tail drop sheds load, credits queue it at");
    println!("the source — nothing lost, latency paid in stall rounds instead.");

    // The deadlock demo: shrink the pool to 1 slot per queue and push
    // full injection — the credit run wedges at its fixed point and
    // strands survivors; the escape channel diverts the starved heads
    // onto the per-PE escape bank and drains everything.
    let crush = Workload::bernoulli_uniform(4, 20, 100, 0xBEEF);
    println!();
    println!(
        "{:>14} {:>9} {:>9} {:>9} {:>11}",
        "tiny pool", "packets", "delivered", "stranded", "diversions"
    );
    for (name, flow) in [
        ("credit", FlowControl::CreditBased),
        ("escape", FlowControl::EscapeChannel),
    ] {
        let tiny = Network::new(4).with_config(NetConfig {
            queue_capacity: Some(1),
            flow_control: flow,
            ..NetConfig::default()
        });
        let stats = tiny.run(&crush, &GreedyRouting);
        if flow == FlowControl::EscapeChannel {
            assert_eq!(stats.stranded, 0, "escape mode never deadlocks");
            assert_eq!(stats.delivered, stats.injected);
            assert!(stats.escape_diversions > 0, "the channel did the work");
        } else {
            assert!(stats.stranded > 0, "tiny pools must wedge credits");
        }
        println!(
            "{:>14} {:>9} {:>9} {:>9} {:>11}",
            name, stats.injected, stats.delivered, stats.stranded, stats.escape_diversions
        );
    }
    println!("\nOne reserved escape slot per residual-hop class, drained shortest-");
    println!("first along the embedding's dimension-order routes: the adaptive");
    println!("partition keeps credit semantics, and deadlock becomes impossible.");
    engine_margin_and_s8_sweep();
}

fn engine_margin_and_s8_sweep() {
    // FastEngine ≥ ReferenceEngine. Gate at n = 7 (5 040 PEs, 30 240
    // queues) under 20% injection, where the worklist's advantage is
    // structural (the reference engine scans 30k queues every round
    // regardless of how few are busy). At small n with saturated
    // queues the engines converge to parity — per-hop work dominates
    // and both engines share it — so the guard does not look there.
    // The fast side runs through `simulate` with a `NullProbe`: the
    // guard therefore also holds sg-obs's zero-overhead-when-disabled
    // claim — if the disabled probe hooks cost anything measurable,
    // the fast engine falls out of its margin.
    // Best of 3 interleaved runs: a transient slowdown (noisy
    // neighbor, frequency scaling) hits both sides instead of biasing
    // whichever happened to run first.
    let n_cmp = 7;
    let net = Network::new(n_cmp);
    let w = Workload::bernoulli_uniform(n_cmp, 10, 20, 0xBEEF);
    let (mut fast_ns, mut ref_ns) = (u128::MAX, u128::MAX);
    let tenants = Tenants::One(&GreedyRouting);
    for _ in 0..3 {
        let t = Instant::now();
        let _ = net.simulate(&w, tenants, Engine::Fast, &mut NullProbe);
        fast_ns = fast_ns.min(t.elapsed().as_nanos());
        let t = Instant::now();
        let _ = net.run_with(&w, &GreedyRouting, Engine::Reference);
        ref_ns = ref_ns.min(t.elapsed().as_nanos());
    }
    let speedup = ref_ns as f64 / fast_ns as f64;
    println!("\nengine comparison (n={n_cmp} uniform 20% injection, best of 3):");
    println!("  fast      {:>12.3} ms", fast_ns as f64 / 1e6);
    println!(
        "  reference {:>12.3} ms   (speedup {speedup:.2}x)",
        ref_ns as f64 / 1e6
    );
    // The 10% allowance absorbs shared-host timing noise without
    // letting a real regression (fast falling to parity or worse)
    // slip through.
    assert!(
        fast_ns <= ref_ns + ref_ns / 10,
        "FastEngine regressed: {fast_ns} ns vs reference {ref_ns} ns"
    );

    // The n = 8 full-injection uniform sweep (40 320 PEs, ~80k
    // packets over 2 injection rounds) finishes well within budget on
    // the fast engine.
    let n_big = 8;
    let t = Instant::now();
    let big = Network::new(n_big);
    let build_ns = t.elapsed().as_nanos();
    let wbig = Workload::bernoulli_uniform(n_big, 2, 100, 0xBEEF);
    let t = Instant::now();
    let stats = big.run(&wbig, &GreedyRouting);
    let sweep_ns = t.elapsed().as_nanos();
    assert_eq!(
        stats.delivered, stats.injected,
        "uniform traffic is lossless"
    );
    println!(
        "n=8 full-injection sweep: {} packets, {} rounds, build {:.2}s, run {:.2}s",
        stats.injected,
        stats.makespan,
        build_ns as f64 / 1e9,
        sweep_ns as f64 / 1e9
    );
    assert!(
        sweep_ns < 60_000_000_000,
        "n=8 sweep took {sweep_ns} ns, over the 60 s budget"
    );
}

fn observability() {
    let n = 7;
    let rounds = 10;
    println!("\n=== 6. Observability: a probe on saturated uniform S_{n} traffic ===\n");

    // Full injection on all 5040 PEs for 10 rounds, once bare and once
    // with a NetProbe attached: the probe recovers where the heat is
    // (per-link flit counts, the deepest queue and its round) from the
    // typed event stream alone — and changes nothing.
    let net = Network::new(n);
    let w = Workload::bernoulli_uniform(n, rounds, 100, 0x0B5);
    let bare = net.run(&w, &GreedyRouting);
    let mut probe = NetProbe::new(net.node_count(), net.n() - 1);
    let tenants = Tenants::One(&GreedyRouting);
    let probed = net.simulate(&w, tenants, Engine::Fast, &mut probe).total;
    assert_eq!(probed, bare, "a probe must never perturb the run");

    println!("{:>6} {:>9} {:>5} {:>7}", "rank", "PE", "gen", "flits");
    for (rank, link) in probe.top_links(5).iter().enumerate() {
        println!(
            "{:>6} {:>9} {:>5} {:>7}",
            rank + 1,
            link.pe,
            link.gen,
            link.count
        );
    }

    let (peak_depth, peak_round) = probe.peak_queue_depth();
    assert!(
        peak_round > 0,
        "saturated traffic cannot peak before queues build"
    );
    println!(
        "\npeak queue depth {} flits, first reached in round {} (of {})",
        peak_depth, peak_round, bare.makespan
    );
    let forwarded: u64 = probe.top_links(usize::MAX).iter().map(|l| l.count).sum();
    assert_eq!(forwarded, bare.forwarded_flits, "every forward has a link");
    println!("probe recount: {forwarded} flits forwarded over the per-link table — identical");
    println!("statistics with and without the probe (asserted byte-equal).");
}
