//! Adaptive-routing validity: every hop the contention-aware policy
//! takes is a real edge of the **surviving** subgraph, and every
//! route terminates.
//!
//! The audit works on [`HopTraces`] collected from the run's
//! `Forwarded` events — the ground truth of what the engine actually
//! forwarded — under fault-plan
//! families within the paper's `n − 2` budget:
//!
//! * exhaustive single-node kills (every PE) at `n ≤ 5`,
//! * exhaustive single-link kills (every edge) at `n ≤ 5`,
//! * exhaustive two-node plans (every pair of PEs) at `n = 4`
//!   (`n − 2 = 2` is the full budget there),
//! * seeded full-budget node and link plans at `n = 5`.
//!
//! Because `S_n` is `(n−1)`-connected, plans within the budget never
//! disconnect live PEs: under `FaultPolicy::Reroute` every
//! live-to-live packet must also be delivered.

use sg_net::{
    AdaptiveRouting, Engine, FaultPlan, FaultPolicy, HopRecord, HopTraces, Network, PacketOutcome,
    Tenants, Workload,
};
use sg_perm::factorial::factorial;
use sg_perm::lehmer::unrank;

/// Audits one traced run: hops chain, stay on alive edges, and end at
/// the destination for every delivered packet.
fn audit(net: &Network, plan: &FaultPlan, w: &Workload, context: &str) {
    let mut traces = HopTraces::new(w.len());
    let tenants = Tenants::One(&AdaptiveRouting);
    let stats = net.simulate(w, tenants, Engine::Fast, &mut traces).total;
    let n = net.n();
    for (rec, tr) in stats.packets.iter().zip(&traces.hops) {
        // Termination: the engine resolved every packet (the run
        // returned), and the trace respects the structural bound —
        // an adaptive prefix of strictly-decreasing distance (≤ the
        // diameter, so < node_count) plus at most one pinned BFS
        // detour (a simple path, ≤ node_count − 1 hops). The route as
        // a whole may legally revisit PEs: after a block the detour
        // can backtrack.
        assert!(
            tr.len() < 2 * net.node_count(),
            "{context}: route of {} hops exceeds the adaptive+detour bound",
            tr.len()
        );
        let mut at = rec.src;
        for &HopRecord { from, gen, to, .. } in tr {
            assert_eq!(from, at, "{context}: trace must chain from the source");
            let g = gen as usize;
            assert!(g >= 1 && g < n, "{context}: generator {g} out of range");
            // The hop is a real star edge...
            let pi = unrank(from, n).expect("rank in range");
            let expect = sg_perm::lehmer::rank(&pi.with_slots_swapped(0, g));
            assert_eq!(to, expect, "{context}: {from} -g{g}-> {to} is not an edge");
            // ...and it survives the fault plan.
            assert!(
                !plan.is_link_dead(from, to, g),
                "{context}: hop {from} -g{g}-> {to} uses a dead link"
            );
            assert!(!plan.is_node_dead(to), "{context}: hop into dead PE {to}");
            at = to;
        }
        match rec.outcome {
            PacketOutcome::Delivered { hops, .. } => {
                assert_eq!(at, rec.dst, "{context}: delivered but trace ends at {at}");
                assert_eq!(hops as usize, tr.len(), "{context}: hop count mismatch");
            }
            _ => {
                // Never delivered: only possible when an endpoint is
                // dead (within the budget the survivors stay
                // connected).
                assert!(
                    plan.is_node_dead(rec.src) || plan.is_node_dead(rec.dst),
                    "{context}: live pair {}->{} not delivered within the n-2 budget",
                    rec.src,
                    rec.dst
                );
            }
        }
    }
}

/// Exhaustive single-fault plans at n ≤ 5: every node kill and every
/// link kill, each auditing a full random-permutation workload.
#[test]
fn exhaustive_single_faults() {
    for n in 3..=5usize {
        let size = factorial(n);
        let w = Workload::random_permutation(n, 0xADA9 + n as u64);
        // Every single dead PE.
        for dead in 0..size {
            let plan = FaultPlan::none()
                .with_policy(FaultPolicy::Reroute)
                .kill_node_rank(dead);
            let net = Network::new(n).with_faults(plan.clone());
            audit(&net, &plan, &w, &format!("n={n} dead-node={dead}"));
        }
        // Every single dead link (canonical endpoint × generator).
        for r in 0..size {
            let pi = unrank(r, n).expect("rank in range");
            for g in 1..n {
                let v = sg_perm::lehmer::rank(&pi.with_slots_swapped(0, g));
                if v < r {
                    continue; // each undirected edge once
                }
                let plan = FaultPlan::none()
                    .with_policy(FaultPolicy::Reroute)
                    .kill_link(&pi, g);
                let net = Network::new(n).with_faults(plan.clone());
                audit(&net, &plan, &w, &format!("n={n} dead-link=({r},g{g})"));
            }
        }
    }
}

/// Exhaustive full-budget plans at n = 4: every pair of dead PEs
/// (n − 2 = 2 is the whole budget).
#[test]
fn exhaustive_two_node_plans_n4() {
    let n = 4;
    let size = factorial(n);
    let w = Workload::random_permutation(n, 0x2BAD);
    for a in 0..size {
        for b in (a + 1)..size {
            let plan = FaultPlan::none()
                .with_policy(FaultPolicy::Reroute)
                .kill_node_rank(a)
                .kill_node_rank(b);
            let net = Network::new(n).with_faults(plan.clone());
            audit(&net, &plan, &w, &format!("n=4 dead-nodes=({a},{b})"));
        }
    }
}

/// Seeded full-budget (n − 2 = 3 faults) node and link plans at
/// n = 5, across many seeds and workload shapes.
#[test]
fn seeded_full_budget_plans_n5() {
    let n = 5;
    for seed in 0..16u64 {
        for plan in [
            FaultPlan::random_nodes(n, n - 2, seed).with_policy(FaultPolicy::Reroute),
            FaultPlan::random_links(n, n - 2, seed).with_policy(FaultPolicy::Reroute),
        ] {
            let net = Network::new(n).with_faults(plan.clone());
            for w in [
                Workload::random_permutation(n, seed),
                Workload::hot_spot(n, 0, 70, seed),
                Workload::uniform_pairs(n, 100, seed),
            ] {
                audit(
                    &net,
                    &plan,
                    &w,
                    &format!("n=5 seed={seed} workload={}", w.name()),
                );
            }
        }
    }
}

/// Under `FaultPolicy::Drop`, adaptive packets survive faults that
/// leave *any* shortest-path candidate alive — they only die when
/// every distance-reducing link at some PE is dead. A single link
/// fault at n ≥ 4 never blocks a packet with ≥ 2 candidate links, so
/// drops can only hit distance-1 traffic crossing the dead link's own
/// last hop.
#[test]
fn adaptive_routes_around_single_faults_under_drop_policy() {
    let n = 4;
    let size = factorial(n);
    let w = Workload::random_permutation(n, 77);
    for r in 0..size {
        let pi = unrank(r, n).expect("rank in range");
        for g in 1..n {
            let plan = FaultPlan::none()
                .with_policy(FaultPolicy::Drop)
                .kill_link(&pi, g);
            let net = Network::new(n).with_faults(plan.clone());
            let stats = net.run(&w, &AdaptiveRouting);
            for rec in &stats.packets {
                if !rec.outcome.is_delivered() {
                    // The only legal casualty: a packet one hop from
                    // its destination whose sole remaining candidate
                    // was the dead link.
                    assert_eq!(
                        stats.dropped_fault + stats.delivered,
                        stats.injected,
                        "dead-link=({r},g{g})"
                    );
                }
            }
        }
    }
}
