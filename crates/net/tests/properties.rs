//! Property suite for the simulator: packet conservation, the
//! latency-vs-distance lower bound, seed determinism, the
//! credit-based flow-control contract (no drops; stalling only ever
//! costs time at moderate load), and the escape-channel deadlock-
//! freedom invariant (no `Stranded` outcome exists under
//! `FlowControl::EscapeChannel`, ever).

use proptest::prelude::*;
use sg_net::{
    EmbeddingRouting, Engine, FaultPlan, FaultPolicy, FlowControl, GreedyRouting, NetConfig,
    Network, PacketOutcome, RoutingPolicy, Workload,
};
use sg_perm::lehmer::unrank;
use sg_star::distance::distance;

fn policy_for(flip: bool) -> &'static dyn RoutingPolicy {
    if flip {
        &GreedyRouting
    } else {
        &EmbeddingRouting
    }
}

proptest! {
    /// Default config (unbounded queues, no faults): every injected
    /// packet is delivered exactly once — none lost, none duplicated.
    #[test]
    fn prop_packet_conservation(n in 3usize..=5, seed in any::<u64>(), rate in 1u32..=60, flip in any::<bool>()) {
        let net = Network::new(n);
        let w = Workload::bernoulli_uniform(n, 3, rate, seed);
        let stats = net.run(&w, policy_for(flip));
        prop_assert_eq!(stats.injected, w.len() as u64);
        prop_assert_eq!(stats.delivered, stats.injected);
        prop_assert_eq!(stats.dropped(), 0);
        prop_assert_eq!(stats.stranded, 0);
        // Exactly once: one record per injection, all delivered, and
        // the histogram re-counts them with no surplus.
        prop_assert_eq!(stats.packets.len() as u64, stats.injected);
        prop_assert!(stats.packets.iter().all(|r| r.outcome.is_delivered()));
        prop_assert_eq!(stats.latency_histogram.iter().sum::<u64>(), stats.delivered);
    }

    /// Conservation also holds as a partition when faults and finite
    /// queues make drops possible.
    #[test]
    fn prop_conservation_partitions_under_faults(n in 4usize..=5, seed in any::<u64>(), cap in 1u32..=4, reroute in any::<bool>()) {
        let policy = if reroute { FaultPolicy::Reroute } else { FaultPolicy::Drop };
        let plan = FaultPlan::random_nodes(n, n - 2, seed ^ 0xFA17).with_policy(policy);
        let net = Network::new(n)
            .with_config(NetConfig { queue_capacity: Some(cap), ..NetConfig::default() })
            .with_faults(plan);
        let w = Workload::bernoulli_uniform(n, 3, 40, seed);
        let stats = net.run(&w, policy_for(reroute));
        prop_assert_eq!(
            stats.delivered + stats.dropped() + stats.stranded,
            stats.injected
        );
    }

    /// No packet beats the star metric: observed latency is at least
    /// `distance(src, dst) · link_latency`.
    #[test]
    fn prop_latency_at_least_star_distance(n in 3usize..=5, seed in any::<u64>(), latency in 1u32..=3, flip in any::<bool>()) {
        let net = Network::new(n).with_config(NetConfig { link_latency: latency, ..NetConfig::default() });
        let w = Workload::random_permutation(n, seed);
        let stats = net.run(&w, policy_for(flip));
        for rec in &stats.packets {
            if let PacketOutcome::Delivered { hops, .. } = rec.outcome {
                let a = unrank(rec.src, n).unwrap();
                let b = unrank(rec.dst, n).unwrap();
                let d = distance(&a, &b);
                prop_assert!(hops >= d, "hops {} < distance {}", hops, d);
                let lat = rec.latency().unwrap();
                prop_assert!(lat >= d * latency, "latency {} < {}", lat, d * latency);
            }
        }
    }

    /// Same seed ⇒ bit-identical stats, independently constructed
    /// networks included. (The whole pipeline — workload generation,
    /// run setup, round loop, parallel aggregation — must
    /// be deterministic for this to hold.)
    #[test]
    fn prop_determinism(n in 3usize..=5, seed in any::<u64>(), rate in 1u32..=100, flip in any::<bool>()) {
        let w1 = Workload::bernoulli_uniform(n, 2, rate, seed);
        let w2 = Workload::bernoulli_uniform(n, 2, rate, seed);
        prop_assert_eq!(&w1, &w2);
        let s1 = Network::new(n).run(&w1, policy_for(flip));
        let s2 = Network::new(n).run(&w2, policy_for(flip));
        prop_assert_eq!(s1, s2);
    }

    /// Hot-spot traffic concentrates queueing at the hot PE.
    #[test]
    fn prop_hotspot_queues_when_hot(n in 4usize..=5, seed in any::<u64>()) {
        let net = Network::new(n);
        let hot = net.run(&Workload::hot_spot(n, 0, 100, seed), &GreedyRouting);
        prop_assert_eq!(hot.delivered, hot.injected);
        // n!−1 packets funnel into one PE of degree n−1: waiting is
        // unavoidable.
        prop_assert!(hot.total_wait_rounds > 0);
        prop_assert!(hot.peak_edge_occupancy > 1);
    }

    /// Credit-based flow control never drops: a full downstream pool
    /// stalls the packet (at its source or at a queue head) instead
    /// of discarding it, so without faults every delivered+stranded
    /// count is the whole workload — and outside a credit deadlock,
    /// stranded is zero too.
    #[test]
    fn prop_credit_zero_drops(n in 3usize..=5, seed in any::<u64>(), cap in 1u32..=4, rate in 1u32..=100, flip in any::<bool>()) {
        let net = Network::new(n).with_config(NetConfig {
            queue_capacity: Some(cap),
            flow_control: FlowControl::CreditBased,
            ..NetConfig::default()
        });
        let w = Workload::bernoulli_uniform(n, 3, rate, seed);
        let stats = net.run(&w, policy_for(flip));
        prop_assert_eq!(stats.dropped(), 0, "credits must never drop");
        prop_assert_eq!(stats.dropped_overflow, 0);
        // Conservation still partitions exactly (stranded covers the
        // deadlock case, which tiny pools can legitimately reach).
        prop_assert_eq!(stats.delivered + stats.stranded, stats.injected);
        // A packet that stalls before injection is charged stall
        // rounds, never wait rounds — the two books are disjoint.
        if stats.injection_stall_rounds > 0 {
            prop_assert!(stats.delivered > 0 || stats.stranded > 0);
        }
    }

    /// The tail-drop/credit contrast on the same traffic: whatever
    /// the lossy run dropped, the credit run delivers (or, in the
    /// deadlock corner, strands — observed never with cap ≥ 2 here),
    /// and both conserve packets exactly.
    #[test]
    fn prop_credit_conservation_vs_taildrop(n in 4usize..=5, seed in any::<u64>(), cap in 2u32..=4, flip in any::<bool>()) {
        let w = Workload::bernoulli_uniform(n, 3, 60, seed);
        let lossy = Network::new(n).with_config(NetConfig {
            queue_capacity: Some(cap),
            ..NetConfig::default()
        });
        let credit = Network::new(n).with_config(NetConfig {
            queue_capacity: Some(cap),
            flow_control: FlowControl::CreditBased,
            ..NetConfig::default()
        });
        let l = lossy.run(&w, policy_for(flip));
        let c = credit.run(&w, policy_for(flip));
        prop_assert_eq!(l.delivered + l.dropped() + l.stranded, l.injected);
        prop_assert_eq!(c.delivered + c.stranded, c.injected);
        prop_assert_eq!(c.dropped(), 0);
        prop_assert!(c.delivered >= l.delivered, "stalling outperforms dropping");
    }

    /// At moderate load, stalling only ever costs time: per packet,
    /// latency under credits ≥ latency under infinite queues for the
    /// same seed. (This is *not* a theorem at saturation — a credit
    /// stall upstream can hand a contested link to a packet that
    /// would otherwise have lost the FIFO race and deliver it a round
    /// early; `credit_latency_domination_fails_at_saturation` below
    /// pins a live counterexample. Up to 60% injection with pools of
    /// ≥ 2×(n−1) slots the domination held for every packet across a
    /// 555k-packet offline sweep, and this deterministic suite locks
    /// that regime in.)
    #[test]
    fn prop_credit_latency_dominates_at_moderate_load(n in 4usize..=5, seed in any::<u64>(), cap in 2u32..=4, rate in 1u32..=60) {
        let w = Workload::bernoulli_uniform(n, 3, rate, seed);
        let infinite = Network::new(n);
        let credit = Network::new(n).with_config(NetConfig {
            queue_capacity: Some(cap),
            flow_control: FlowControl::CreditBased,
            ..NetConfig::default()
        });
        let c = credit.run(&w, &GreedyRouting);
        let inf = infinite.run(&w, &GreedyRouting);
        prop_assert_eq!(inf.delivered, inf.injected);
        for (rc, ri) in c.packets.iter().zip(&inf.packets) {
            if let (Some(lc), Some(li)) = (rc.latency(), ri.latency()) {
                prop_assert!(
                    lc >= li,
                    "credit latency {} < infinite-queue latency {} for {}->{}",
                    lc, li, rc.src, rc.dst
                );
            }
        }
    }

    /// The deadlock-freedom invariant, as a property: under
    /// `EscapeChannel` no fault-free run ever strands a packet — not
    /// at pool size 1, not at full injection, not for any seed or
    /// order up to n = 6. Conservation sharpens to "all delivered,
    /// exactly once".
    #[test]
    fn prop_escape_never_strands(n in 2usize..=6, seed in any::<u64>(), cap in 1u32..=2, rate in 1u32..=100, flip in any::<bool>()) {
        let net = Network::new(n).with_config(NetConfig {
            queue_capacity: Some(cap),
            flow_control: FlowControl::EscapeChannel,
            ..NetConfig::default()
        });
        let w = Workload::bernoulli_uniform(n, 2, rate, seed);
        let stats = net.run(&w, policy_for(flip));
        prop_assert_eq!(stats.stranded, 0, "escape mode must never deadlock");
        prop_assert_eq!(stats.dropped(), 0, "escape mode must never drop");
        prop_assert_eq!(stats.delivered, stats.injected);
        prop_assert_eq!(stats.packets.len() as u64, stats.injected);
        prop_assert!(stats.packets.iter().all(|r| r.outcome.is_delivered()));
        prop_assert_eq!(stats.latency_histogram.iter().sum::<u64>(), stats.delivered);
        // Escape traffic is a sub-ledger of the main one.
        prop_assert!(stats.escape_forwarded_flits <= stats.forwarded_flits);
        prop_assert!(stats.escape_diversions <= stats.injected);
    }

    /// Escape diversions reroute but never teleport: every delivered
    /// packet still pays at least the star metric, at any link
    /// latency, even after hopping channels mid-flight.
    #[test]
    fn prop_escape_latency_at_least_star_distance(n in 3usize..=5, seed in any::<u64>(), latency in 1u32..=3, flip in any::<bool>()) {
        let net = Network::new(n).with_config(NetConfig {
            link_latency: latency,
            queue_capacity: Some(1),
            flow_control: FlowControl::EscapeChannel,
            ..NetConfig::default()
        });
        let w = Workload::random_permutation(n, seed);
        let stats = net.run(&w, policy_for(flip));
        prop_assert_eq!(stats.stranded, 0);
        prop_assert_eq!(stats.delivered, stats.injected);
        for rec in &stats.packets {
            if let PacketOutcome::Delivered { hops, .. } = rec.outcome {
                let a = unrank(rec.src, n).unwrap();
                let b = unrank(rec.dst, n).unwrap();
                let d = distance(&a, &b);
                prop_assert!(hops >= d, "hops {} < distance {}", hops, d);
                let lat = rec.latency().unwrap();
                prop_assert!(lat >= d * latency, "latency {} < {}", lat, d * latency);
            }
        }
    }
}

/// The documented edge of the domination property: at full injection
/// a credit stall can *reorder* link arbitration and deliver a packet
/// earlier than the infinite-queue run. This pins one concrete
/// counterexample so the restriction on the property above stays
/// honest (if engine semantics ever change and this starts passing
/// domination everywhere, the property's bounds should be revisited).
#[test]
fn credit_latency_domination_fails_at_saturation() {
    let n = 4;
    let w = Workload::bernoulli_uniform(n, 3, 100, 596);
    let infinite = Network::new(n);
    let credit = Network::new(n).with_config(NetConfig {
        queue_capacity: Some(2),
        flow_control: FlowControl::CreditBased,
        ..NetConfig::default()
    });
    let c = credit.run(&w, &GreedyRouting);
    let inf = infinite.run(&w, &GreedyRouting);
    let early = c
        .packets
        .iter()
        .zip(&inf.packets)
        .filter(|(rc, ri)| match (rc.latency(), ri.latency()) {
            (Some(lc), Some(li)) => lc < li,
            _ => false,
        })
        .count();
    assert!(
        early > 0,
        "expected at least one packet to beat the infinite-queue run at saturation"
    );
}

/// The counterexample above, promoted to a deadlock-freedom
/// regression. Same workload, both tiny pool sizes: at cap 2 (the
/// pinned scenario verbatim) credits reorder arbitration but still
/// drain; at cap 1 the very same traffic wedges the credit run at its
/// fixed point and strands survivors. Under `EscapeChannel` **both**
/// runs must fully drain — every packet delivered, zero stranded,
/// exact conservation, engines in byte agreement — and at cap 1 the
/// escape channel must demonstrably do the work (diversions > 0).
#[test]
fn escape_channel_drains_the_saturation_counterexample() {
    let n = 4;
    let w = Workload::bernoulli_uniform(n, 3, 100, 596);
    for cap in [1u32, 2] {
        let credit = Network::new(n)
            .with_config(NetConfig {
                queue_capacity: Some(cap),
                flow_control: FlowControl::CreditBased,
                ..NetConfig::default()
            })
            .run(&w, &GreedyRouting);
        if cap == 1 {
            assert!(
                credit.stranded > 0,
                "the pinned traffic must still deadlock credits at cap 1, \
                 else this regression guards nothing"
            );
        }
        let escape_net = Network::new(n).with_config(NetConfig {
            queue_capacity: Some(cap),
            flow_control: FlowControl::EscapeChannel,
            ..NetConfig::default()
        });
        let fast = escape_net.run_with(&w, &GreedyRouting, Engine::Fast);
        let reference = escape_net.run_with(&w, &GreedyRouting, Engine::Reference);
        assert_eq!(fast, reference, "engines diverged at cap {cap}");
        assert_eq!(
            fast.stranded, 0,
            "escape mode must break the cap-{cap} deadlock"
        );
        assert_eq!(fast.dropped(), 0);
        assert_eq!(fast.delivered, fast.injected, "every packet delivered");
        assert_eq!(
            fast.delivered + fast.dropped() + fast.stranded,
            fast.injected,
            "conservation"
        );
        if cap == 1 {
            assert!(
                fast.escape_diversions > 0,
                "the escape channel did the work"
            );
        }
    }
}
