//! The `sg-trace` round-trip lock: a recorded run's JSONL trace must
//! parse back element-wise identical, and replaying it must rebuild
//! [`TrafficStats`] **byte-identical** to what the live run returned
//! — total and per-tenant — across the differential harness's `n ≤ 5`
//! axes (both engines, every flow-control mode including escape,
//! faults, multi-round links, partitioned multi-tenant runs).
//!
//! On top of the deterministic matrix, a proptest property fuzzes the
//! same round trip over seeded configuration axes, and a seeded
//! injected-divergence test proves the structural differ localizes a
//! single mutated event to its exact round and in-round index.

use proptest::prelude::*;
use sg_net::trace::{record, replay, replay_jsonl};
use sg_net::{
    AdaptiveRouting, Engine, FaultPlan, FaultPolicy, FlowControl, GreedyRouting, NetConfig,
    Network, RoutingPolicy, Tenants, Workload,
};
use sg_obs::{diff_events, Trace};

const SEEDS: u64 = 3;

fn workloads(n: usize, seed: u64) -> Vec<Workload> {
    vec![
        Workload::random_permutation(n, seed),
        Workload::bernoulli_uniform(n, 3, 40, seed),
        Workload::uniform_pairs(n, 64, seed),
        Workload::hot_spot(n, seed % 5, 60, seed),
    ]
}

fn configs() -> Vec<(&'static str, NetConfig)> {
    vec![
        ("default", NetConfig::default()),
        (
            "cap2-taildrop",
            NetConfig {
                queue_capacity: Some(2),
                ..NetConfig::default()
            },
        ),
        (
            "cap1-credit",
            NetConfig {
                queue_capacity: Some(1),
                flow_control: FlowControl::CreditBased,
                ..NetConfig::default()
            },
        ),
        (
            "cap1-credit-latency2",
            NetConfig {
                link_latency: 2,
                queue_capacity: Some(1),
                flow_control: FlowControl::CreditBased,
                ..NetConfig::default()
            },
        ),
        (
            "cap1-escape",
            NetConfig {
                queue_capacity: Some(1),
                flow_control: FlowControl::EscapeChannel,
                ..NetConfig::default()
            },
        ),
        (
            "cap2-escape-latency2",
            NetConfig {
                link_latency: 2,
                queue_capacity: Some(2),
                flow_control: FlowControl::EscapeChannel,
                ..NetConfig::default()
            },
        ),
        (
            "latency3",
            NetConfig {
                link_latency: 3,
                ..NetConfig::default()
            },
        ),
    ]
}

/// Record → serialize → parse → replay, asserting every leg: the
/// parsed trace equals the assembled one element-wise, and the
/// replayed stats equal the live ones byte-for-byte.
fn assert_round_trip(
    net: &Network,
    w: &Workload,
    policy: &dyn RoutingPolicy,
    engine: Engine,
    seed: u64,
    context: &str,
) {
    let (live, trace) = record(net, w, Tenants::One(policy), engine, seed);
    let text = trace.to_jsonl();
    let parsed = Trace::parse(&text).unwrap_or_else(|e| panic!("parse failed: {context}: {e}"));
    assert_eq!(parsed.header, trace.header, "header mangled: {context}");
    assert_eq!(parsed.packets, trace.packets, "preamble mangled: {context}");
    assert_eq!(
        parsed.events, trace.events,
        "events not element-wise identical: {context}"
    );
    let back = replay(&parsed).unwrap_or_else(|e| panic!("replay failed: {context}: {e}"));
    assert_eq!(
        back.total, live.total,
        "replayed stats not byte-identical: {context}"
    );
    assert!(back.per_job.is_empty(), "{context}");
}

/// The deterministic matrix: workloads × configs × engines × seeds at
/// `n ∈ {3, 4, 5}` under greedy and adaptive routing.
#[test]
fn round_trip_across_config_matrix() {
    for n in 3..=5usize {
        for seed in 0..SEEDS {
            for (config_name, config) in configs() {
                let net = Network::new(n).with_config(config);
                for (wi, w) in workloads(n, seed).iter().enumerate() {
                    for engine in [Engine::Fast, Engine::Reference] {
                        let context = format!(
                            "n={n} seed={seed} config={config_name} workload={wi} engine={engine:?}"
                        );
                        assert_round_trip(&net, w, &GreedyRouting, engine, seed, &context);
                        assert_round_trip(
                            &net,
                            w,
                            &AdaptiveRouting,
                            engine,
                            seed,
                            &format!("{context} adaptive"),
                        );
                    }
                }
            }
        }
    }
}

/// Faulty networks drop and reroute; the trace must still replay
/// byte-identically (dropped packets' destinations come from the
/// packet preamble, not the event stream).
#[test]
fn round_trip_under_faults() {
    for n in 3..=5usize {
        for seed in 0..SEEDS {
            for (fault_name, plan) in [
                (
                    "nodes-drop",
                    FaultPlan::random_nodes(n, n - 2, seed).with_policy(FaultPolicy::Drop),
                ),
                (
                    "nodes-reroute",
                    FaultPlan::random_nodes(n, n - 2, seed).with_policy(FaultPolicy::Reroute),
                ),
                (
                    "links-drop",
                    FaultPlan::random_links(n, n - 2, seed).with_policy(FaultPolicy::Drop),
                ),
            ] {
                let net = Network::new(n).with_faults(plan);
                for engine in [Engine::Fast, Engine::Reference] {
                    let w = Workload::bernoulli_uniform(n, 3, 40, seed);
                    let context = format!("n={n} seed={seed} faults={fault_name} {engine:?}");
                    assert_round_trip(&net, &w, &GreedyRouting, engine, seed, &context);
                }
            }
        }
    }
}

/// A run cut by the round cap strands flits that are still queued
/// (and, under credit flow control, packets still stalled at their
/// source). The cap round charges nothing, and the replay must agree.
#[test]
fn round_trip_through_round_cap_strands() {
    for n in 3..=5usize {
        for seed in 0..SEEDS {
            for (config_name, flow_control) in [
                ("taildrop", FlowControl::TailDrop),
                ("credit", FlowControl::CreditBased),
                ("escape", FlowControl::EscapeChannel),
            ] {
                let net = Network::new(n).with_config(NetConfig {
                    queue_capacity: Some(1),
                    flow_control,
                    max_rounds: 3,
                    ..NetConfig::default()
                });
                let w = Workload::bernoulli_uniform(n, 3, 100, seed);
                for engine in [Engine::Fast, Engine::Reference] {
                    let context = format!("n={n} seed={seed} cap3-{config_name} {engine:?}");
                    assert_round_trip(&net, &w, &GreedyRouting, engine, seed, &context);
                }
            }
        }
    }
}

/// Partitioned multi-tenant runs: the owner map rides the packet
/// preamble and the replayed **per-tenant** stats must equal the live
/// attribution byte-for-byte, next to the totals.
#[test]
fn partitioned_round_trip_restores_per_tenant_stats() {
    for n in 3..=5usize {
        for seed in 0..SEEDS {
            let parts = [
                Workload::uniform_pairs(n, 32, seed),
                Workload::transpose(n),
                Workload::bernoulli_uniform(n, 3, 40, seed ^ 0xBEEF),
            ];
            let with_offsets: Vec<(&Workload, u32)> = parts.iter().zip([0u32, 2, 5]).collect();
            let (composed, owner) = Workload::compose("trace-tenants", n, &with_offsets);
            let greedy = GreedyRouting;
            let adaptive = AdaptiveRouting;
            let per_job: [&dyn RoutingPolicy; 3] = [&greedy, &adaptive, &greedy];
            let escape = [true, false, true];
            for (config_name, config) in [
                ("default", NetConfig::default()),
                (
                    "cap1-escape",
                    NetConfig {
                        queue_capacity: Some(1),
                        flow_control: FlowControl::EscapeChannel,
                        ..NetConfig::default()
                    },
                ),
            ] {
                let net = Network::new(n).with_config(config);
                let tenants = Tenants::PerJob {
                    policies: &per_job,
                    owner: &owner,
                    escape: &escape,
                };
                let (live, trace) = record(&net, &composed, tenants, Engine::Fast, seed);
                let (total, per_job_live) = (live.total, live.per_job);
                let context = format!("n={n} seed={seed} config={config_name}");
                let back = replay_jsonl(&trace.to_jsonl())
                    .unwrap_or_else(|e| panic!("replay failed: {context}: {e}"));
                assert_eq!(back.total, total, "total diverged: {context}");
                assert_eq!(
                    back.per_job, per_job_live,
                    "per-tenant stats diverged: {context}"
                );
            }
        }
    }
}

/// Seeded injected divergence: flip one event deep in a recorded
/// stream and the differ must localize exactly that round and
/// in-round index — the debugging workflow the differential harness
/// now relies on.
#[test]
fn injected_divergence_is_localized() {
    let net = Network::new(4);
    let w = Workload::random_permutation(4, 0xD1FF);
    let (_, trace) = record(&net, &w, Tenants::One(&GreedyRouting), Engine::Fast, 0xD1FF);
    let a = trace.events.clone();
    // Pick a deterministic victim past the first round and recompute
    // its expected (round, index-in-round) independently of the
    // differ's own cursor.
    let victim = a.len() * 2 / 3;
    let mut expected_round = 0;
    let mut expected_index = 0;
    for ev in &a[..=victim] {
        if matches!(ev, sg_obs::Event::RoundBegin { .. }) || ev.round() != expected_round {
            expected_round = ev.round();
            expected_index = 0;
        } else {
            expected_index += 1;
        }
    }
    let mut b = a.clone();
    b[victim] = sg_obs::Event::Delivered {
        round: expected_round,
        pid: 9999,
        pe: 0,
        hops: 1,
    };
    assert_ne!(a[victim], b[victim], "mutation must actually mutate");
    let d = diff_events(&a, &b, 3).expect("mutated streams diverge");
    assert_eq!(d.index, victim, "differ must find the mutated event");
    assert_eq!(d.a.round, Some(expected_round));
    assert_eq!(d.a.index_in_round, expected_index);
    assert_eq!(d.b.event, Some(b[victim]));
    let report = d.render();
    assert!(report.contains(&format!("event {victim} ")));
    assert!(report.contains("\"pid\":9999"));
}

proptest! {
    /// The fuzzed round trip: over seeded config axes (order, seed,
    /// flow control including escape, injection rate, engine), the
    /// JSONL round trip is lossless and the replayed stats are
    /// byte-identical.
    #[test]
    fn prop_trace_round_trip(
        n in 3usize..=5,
        seed in any::<u64>(),
        rate in 1u32..=50,
        mode in 0u8..=2,
        cap in 1u32..=3,
        fast in any::<bool>(),
    ) {
        let config = match mode {
            0 => NetConfig::default(),
            1 => NetConfig {
                queue_capacity: Some(cap),
                flow_control: FlowControl::CreditBased,
                ..NetConfig::default()
            },
            _ => NetConfig {
                queue_capacity: Some(cap),
                flow_control: FlowControl::EscapeChannel,
                ..NetConfig::default()
            },
        };
        let engine = if fast { Engine::Fast } else { Engine::Reference };
        let net = Network::new(n).with_config(config);
        let w = Workload::bernoulli_uniform(n, 3, rate, seed);
        let (live, trace) = record(&net, &w, Tenants::One(&GreedyRouting), engine, seed);
        let text = trace.to_jsonl();
        let parsed = Trace::parse(&text).expect("parses");
        prop_assert_eq!(&parsed.events, &trace.events);
        let back = replay(&parsed).expect("replays");
        prop_assert_eq!(back.total, live.total);
    }

    /// Partitioned fuzzing: per-tenant attribution survives the round
    /// trip for any seed and escape-flag assignment.
    #[test]
    fn prop_partitioned_round_trip(
        n in 3usize..=4,
        seed in any::<u64>(),
        e0 in any::<bool>(),
        e1 in any::<bool>(),
    ) {
        let parts = [
            Workload::uniform_pairs(n, 24, seed),
            Workload::bernoulli_uniform(n, 3, 30, seed ^ 0x5EED),
        ];
        let with_offsets: Vec<(&Workload, u32)> = parts.iter().zip([0u32, 3]).collect();
        let (composed, owner) = Workload::compose("prop-tenants", n, &with_offsets);
        let greedy = GreedyRouting;
        let per_job: [&dyn RoutingPolicy; 2] = [&greedy, &greedy];
        let net = Network::new(n);
        let tenants = Tenants::PerJob {
            policies: &per_job,
            owner: &owner,
            escape: &[e0, e1],
        };
        let (live, trace) = record(&net, &composed, tenants, Engine::Fast, seed);
        let (total, per_job_live) = (live.total, live.per_job);
        let back = replay_jsonl(&trace.to_jsonl()).expect("replays");
        prop_assert_eq!(back.total, total);
        prop_assert_eq!(back.per_job, per_job_live);
    }
}
