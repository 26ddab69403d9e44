//! Exhaustive containment audit (the isolation theorem, hop by hop).
//!
//! For every sub-star of every order `2 ≤ k < n` and every host
//! `n ≤ 5`: lift embedding-routed tenant traffic onto the sub-star,
//! drive it through the shared network (alone and next to a noisy
//! disjoint neighbor), and check **every recorded link traversal**
//! stays inside the tenant's sub-star — hop traces collected from the
//! run's `Forwarded` events are the ground truth, not a structural
//! argument.

use sg_net::{
    Engine, HopRecord, HopTraces, Network, RoutingPolicy, Tenants, TrafficStats, Workload,
};
use sg_sched::job::{JobSpec, TenantRouting, TrafficProfile};
use sg_sched::scheduler::schedule;
use sg_sched::AllocPolicy;
use sg_star::substar::{substars_of_order, SubStar};

/// The partitioned run's total statistics and one hop trace per
/// packet.
fn traced(
    net: &Network,
    w: &Workload,
    policies: &[&dyn RoutingPolicy],
    owner: &[u32],
) -> (TrafficStats, Vec<Vec<HopRecord>>) {
    let mut traces = HopTraces::new(w.len());
    let escape = vec![true; policies.len()];
    let tenants = Tenants::PerJob {
        policies,
        owner,
        escape: &escape,
    };
    let stats = net.simulate(w, tenants, Engine::Fast, &mut traces).total;
    (stats, traces.hops)
}

/// Every hop of every owned packet begins and ends inside `sub`.
fn assert_contained(sub: &SubStar, traces: &[Vec<HopRecord>], owner: &[u32], job: u32) {
    for (trace, &o) in traces.iter().zip(owner) {
        if o != job {
            continue;
        }
        for hop in trace {
            assert!(
                sub.contains_rank(hop.from) && sub.contains_rank(hop.to),
                "hop {} -> {} (g{}) left sub-star {sub}",
                hop.from,
                hop.to,
                hop.gen
            );
        }
    }
}

/// The tenant's lifted traffic: every profile the job module ships,
/// concatenated (sweeps on every dimension, transpose, a uniform
/// burst).
fn tenant_traffic(order: usize) -> Vec<TrafficProfile> {
    let mut profiles = vec![TrafficProfile::Transpose];
    for dim in 1..order {
        profiles.push(TrafficProfile::DimensionSweep { dim, plus: true });
        profiles.push(TrafficProfile::DimensionSweep { dim, plus: false });
    }
    profiles.push(TrafficProfile::UniformPairs {
        pairs: 20,
        seed: 0xA11CE,
    });
    profiles
}

#[test]
fn embedding_traffic_never_leaves_its_substar_exhaustive() {
    for n in 3..=5usize {
        let net = Network::new(n);
        for k in 2..n {
            for sub in substars_of_order(n, k) {
                for (p, profile) in tenant_traffic(k).into_iter().enumerate() {
                    let job = JobSpec {
                        id: 0,
                        order: k,
                        arrival: 0,
                        duration: 400,
                        traffic: profile,
                        routing: TenantRouting::Embedding,
                        escape: false,
                    };
                    // Schedule just this job through first-fit — but
                    // pin the placement to `sub` by scheduling on a
                    // fresh allocator and relabeling: the audit wants
                    // *every* sub-star, so build the run by hand.
                    let run = pinned_run(n, &[(job, sub.clone())]);
                    let (stats, traces) = traced(&net, &run.0, &run.2, &run.1);
                    assert_eq!(
                        stats.delivered, stats.injected,
                        "n={n} k={k} {sub} profile {p}: embedding traffic is lossless"
                    );
                    assert_contained(&sub, &traces, &run.1, 0);
                }
            }
        }
    }
}

#[test]
fn minimal_routing_is_confined_by_convexity() {
    // The emergent theorem the suite pins down: sub-stars are
    // geodesically closed, so even the tenancy-oblivious *minimal*
    // routers (greedy, adaptive) never leave a tenant's sub-star.
    for n in 4..=5usize {
        let net = Network::new(n);
        for k in 2..n {
            for (s, sub) in substars_of_order(n, k).into_iter().enumerate() {
                for routing in [TenantRouting::Greedy, TenantRouting::Adaptive] {
                    let job = JobSpec {
                        id: 0,
                        order: k,
                        arrival: 0,
                        duration: 400,
                        traffic: TrafficProfile::UniformPairs {
                            pairs: 25,
                            seed: s as u64,
                        },
                        routing,
                        escape: false,
                    };
                    let run = pinned_run(n, &[(job, sub.clone())]);
                    let (_, traces) = traced(&net, &run.0, &run.2, &run.1);
                    assert_contained(&sub, &traces, &run.1, 0);
                }
            }
        }
    }
}

#[test]
fn containment_holds_next_to_a_trespassing_neighbor() {
    // An embedding tenant shares the machine with a
    // machine-coordinate dimension-order tenant on a disjoint
    // sibling; the embedding side must still never leave home while
    // the oblivious side demonstrably does trespass somewhere.
    let mut trespassed = false;
    for n in 4..=5usize {
        let net = Network::new(n);
        for k in 2..n {
            let subs = substars_of_order(n, k);
            for pair in subs.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                if !a.is_disjoint(b) {
                    continue;
                }
                let quiet = JobSpec {
                    id: 0,
                    order: k,
                    arrival: 0,
                    duration: 400,
                    traffic: TrafficProfile::Transpose,
                    routing: TenantRouting::Embedding,
                    escape: false,
                };
                let noisy = JobSpec {
                    id: 1,
                    order: k,
                    arrival: 0,
                    duration: 400,
                    traffic: TrafficProfile::Bernoulli {
                        rounds: 2,
                        rate_pct: 100,
                        seed: 0xBAD,
                    },
                    routing: TenantRouting::GlobalEmbedding,
                    escape: false,
                };
                let run = pinned_run(n, &[(quiet, a.clone()), (noisy, b.clone())]);
                let (_, traces) = traced(&net, &run.0, &run.2, &run.1);
                assert_contained(a, &traces, &run.1, 0);
                trespassed |= traces.iter().zip(&run.1).any(|(trace, &o)| {
                    o == 1
                        && trace
                            .iter()
                            .any(|h| !b.contains_rank(h.from) || !b.contains_rank(h.to))
                });
            }
        }
    }
    assert!(
        trespassed,
        "machine-coordinate dimension-order routing must leave its sub-star somewhere"
    );
}

#[test]
fn scheduler_built_runs_are_contained_too() {
    // Same audit through the real scheduler path (allocator-chosen
    // placements instead of pinned ones).
    let n = 5;
    let net = Network::new(n);
    let jobs: Vec<JobSpec> = (0..4)
        .map(|id| JobSpec {
            id,
            order: 3,
            arrival: 0,
            duration: 300,
            traffic: TrafficProfile::UniformPairs {
                pairs: 15,
                seed: id as u64,
            },
            routing: TenantRouting::Embedding,
            escape: false,
        })
        .collect();
    for policy in AllocPolicy::ALL {
        let mut alloc = policy.build(n);
        let s = schedule(&jobs, alloc.as_mut());
        let run = s.tenant_run();
        let (_, traces) = traced(&net, run.workload(), &run.policies(), run.owner());
        for (i, p) in s.placements().iter().enumerate() {
            assert_contained(&p.substar, &traces, run.owner(), i as u32);
        }
    }
}

/// Builds (workload, owner, policies) with placements pinned to the
/// given sub-stars, bypassing the allocator. Policy boxes are leaked
/// (test-lifetime only, bounded count).
fn pinned_run(
    n: usize,
    tenants: &[(JobSpec, SubStar)],
) -> (Workload, Vec<u32>, Vec<&'static dyn RoutingPolicy>) {
    use sg_net::Injection;
    let mut parts = Vec::new();
    let mut policies: Vec<&'static dyn RoutingPolicy> = Vec::new();
    for (job, sub) in tenants {
        let local = job.traffic.local_workload(job.order);
        let map = sub.node_ranks();
        let injections = local
            .injections()
            .iter()
            .map(|i| Injection {
                round: i.round,
                src: map[i.src as usize],
                dst: map[i.dst as usize],
            })
            .collect();
        parts.push(Workload::from_injections("tenant", n, injections));
        policies.push(Box::leak(sg_sched::policy::tenant_policy(job.routing, sub)));
    }
    let with_offsets: Vec<(&Workload, u32)> = parts.iter().map(|w| (w, 0)).collect();
    let (merged, owner) = Workload::compose("pinned", n, &with_offsets);
    (merged, owner, policies)
}
