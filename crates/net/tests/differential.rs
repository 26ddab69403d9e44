//! Differential harness: `Engine::Fast` must be observationally
//! identical to `Engine::Reference`.
//!
//! For every combination of workload family × routing policy × fault
//! plan (and, orthogonally, flow-control/latency configuration) at
//! `n ≤ 6`, with at least 8 seeds each, the two engines must produce
//! **byte-identical** [`TrafficStats`] — the `Eq` impl compares every
//! counter, the full latency histogram, and every per-packet record.
//! This is the lock on the fast engine's worklist, intrusive per-link
//! FIFOs, batched arrivals and the next queue their records name,
//! idle-round skipping, credit accounting, and adaptive hop selection:
//! any divergence in any phase of any round shows up here as a stats
//! mismatch.
//!
//! The full cross product runs at `n ∈ {3, 4, 5}`; `n = 6` (720 PEs)
//! runs a narrower but still multi-axis slice to keep the suite's
//! debug-profile runtime in check.
//!
//! The **probed column** re-runs the `n ≤ 5` axes with an
//! [`EventLog`] attached to both engines and tightens the contract in
//! two directions at once: attaching a probe must leave the stats
//! byte-identical to the unprobed run, and the two engines must emit
//! the **same event stream**, event for event, in the same order —
//! not just agree on the aggregates.

use sg_net::{
    AdaptiveRouting, EmbeddingRouting, Engine, FaultPlan, FaultPolicy, FlowControl, GreedyRouting,
    NetConfig, Network, RoutingPolicy, Tenants, TrafficStats, Workload,
};
use sg_obs::{diff_events, EventLog, NullProbe};

const SEEDS: u64 = 8;

/// The workload families under test, sized for debug-profile runs.
fn workloads(n: usize, seed: u64) -> Vec<Workload> {
    vec![
        Workload::dimension_sweep(n, 1 + (seed as usize) % (n - 1), seed.is_multiple_of(2)),
        Workload::random_permutation(n, seed),
        Workload::bernoulli_uniform(n, 3, 40, seed),
        Workload::transpose(n),
        Workload::hot_spot(n, seed % 5, 60, seed),
        Workload::uniform_pairs(n, 64, seed),
        // Phase barriers: each phase opens one round after the one
        // before it resolves, the empty one included.
        Workload::chain(
            "chain",
            n,
            [
                Workload::dimension_sweep(n, 1, true),
                Workload::random_permutation(n, seed),
                Workload::from_injections("empty", n, Vec::new()),
                Workload::uniform_pairs(n, 24, seed),
            ]
            .iter()
            .map(|w| w.injections().iter().copied()),
        )
        .workload,
    ]
}

fn policies() -> Vec<(&'static str, Box<dyn RoutingPolicy>)> {
    vec![
        ("greedy", Box::new(GreedyRouting)),
        ("embedding", Box::new(EmbeddingRouting)),
        ("adaptive", Box::new(AdaptiveRouting)),
    ]
}

/// Fault-plan axis: nothing, node kills, and link kills under both
/// fault policies, all within the paper's `n−2` budget.
fn fault_plans(n: usize, seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
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
        (
            "links-reroute",
            FaultPlan::random_links(n, n - 2, seed).with_policy(FaultPolicy::Reroute),
        ),
    ]
}

/// Configuration axis: default, bounded tail-drop, credit-based flow
/// control (tight pool, so stalls actually happen), multi-round links.
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
            "latency3",
            NetConfig {
                link_latency: 3,
                ..NetConfig::default()
            },
        ),
        // Credit × multi-round links: in-flight reservations can hold
        // a pool while every queue is empty, so injection stalls and
        // the fast engine's idle-skip interact — a corner that once
        // diverged on injection_stall_rounds accounting.
        (
            "cap1-credit-latency2",
            NetConfig {
                link_latency: 2,
                queue_capacity: Some(1),
                flow_control: FlowControl::CreditBased,
                ..NetConfig::default()
            },
        ),
        // Escape-channel flow control at the tightest pool, where the
        // deadlocks that the escape bank exists to break are densest:
        // diversions, min-class arbitration, and the dual-channel
        // worklist-bit invariant all fire constantly.
        (
            "cap1-escape",
            NetConfig {
                queue_capacity: Some(1),
                flow_control: FlowControl::EscapeChannel,
                ..NetConfig::default()
            },
        ),
        (
            "cap2-escape",
            NetConfig {
                queue_capacity: Some(2),
                flow_control: FlowControl::EscapeChannel,
                ..NetConfig::default()
            },
        ),
        // Escape × multi-round links: bank reservations ride in-flight
        // flits, crossing the fast engine's arrival lanes & idle-skip.
        (
            "cap1-escape-latency2",
            NetConfig {
                link_latency: 2,
                queue_capacity: Some(1),
                flow_control: FlowControl::EscapeChannel,
                ..NetConfig::default()
            },
        ),
    ]
}

fn assert_engines_agree(
    net: &Network,
    w: &Workload,
    policy: &dyn RoutingPolicy,
    context: &str,
) -> TrafficStats {
    let fast = net.run_with(w, policy, Engine::Fast);
    let reference = net.run_with(w, policy, Engine::Reference);
    assert_eq!(
        fast, reference,
        "FastEngine diverged from ReferenceEngine: {context}"
    );
    fast
}

/// The probed column: both engines run with an [`EventLog`] attached;
/// the probed stats must match the unprobed fast baseline on both
/// engines, and the two event streams must be identical.
fn assert_probed_column(net: &Network, w: &Workload, tenants: Tenants<'_>, context: &str) {
    let baseline = net.simulate(w, tenants, Engine::Fast, &mut NullProbe).total;
    let mut fast_log = EventLog::new();
    let mut reference_log = EventLog::new();
    let fast = net.simulate(w, tenants, Engine::Fast, &mut fast_log).total;
    let reference = net
        .simulate(w, tenants, Engine::Reference, &mut reference_log)
        .total;
    assert_eq!(fast, baseline, "probe perturbed the fast engine: {context}");
    assert_eq!(
        reference, baseline,
        "probed reference diverged from fast: {context}"
    );
    assert_eq!(fast_log.dropped(), 0, "unbounded log dropped: {context}");
    // Stream equality through the structural differ: on failure it
    // localizes the first diverging round and event instead of
    // dumping two full streams.
    if let Some(d) = diff_events(fast_log.events(), reference_log.events(), 4) {
        panic!(
            "event streams diverged between engines: {context}\n{}",
            d.render()
        );
    }
}

/// The full cross product at n ∈ {3, 4, 5}: every workload × policy ×
/// fault plan, ≥ 8 seeds each, under the default configuration.
#[test]
fn full_cross_product_small_n() {
    for n in 3..=5usize {
        for seed in 0..SEEDS {
            for (fault_name, plan) in fault_plans(n, 0xFA17 ^ seed) {
                let net = Network::new(n).with_faults(plan);
                for (policy_name, policy) in policies() {
                    for w in workloads(n, seed) {
                        assert_engines_agree(
                            &net,
                            &w,
                            policy.as_ref(),
                            &format!(
                                "n={n} seed={seed} workload={} policy={policy_name} \
                                 faults={fault_name}",
                                w.name()
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// The configuration axis (tail-drop capacity, credit-based flow
/// control, multi-round links) crossed with every workload and
/// policy, with and without reroutable faults.
#[test]
fn config_axis_small_n() {
    for n in 3..=5usize {
        for seed in 0..SEEDS {
            for (config_name, config) in configs() {
                for fault in [
                    FaultPlan::none(),
                    FaultPlan::random_nodes(n, n - 2, seed).with_policy(FaultPolicy::Reroute),
                ] {
                    let net = Network::new(n).with_config(config).with_faults(fault);
                    for (policy_name, policy) in policies() {
                        for w in workloads(n, seed) {
                            assert_engines_agree(
                                &net,
                                &w,
                                policy.as_ref(),
                                &format!(
                                    "n={n} seed={seed} workload={} policy={policy_name} \
                                     config={config_name}",
                                    w.name()
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Probed column over the fault axis at n ∈ {3, 4, 5}: every workload
/// × policy × fault plan, all seeds, with event-stream equality on top
/// of stats equality.
#[test]
fn probed_full_cross_product_small_n() {
    for n in 3..=5usize {
        for seed in 0..SEEDS {
            for (fault_name, plan) in fault_plans(n, 0xFA17 ^ seed) {
                let net = Network::new(n).with_faults(plan);
                for (policy_name, policy) in policies() {
                    for w in workloads(n, seed) {
                        assert_probed_column(
                            &net,
                            &w,
                            Tenants::One(policy.as_ref()),
                            &format!(
                                "probed n={n} seed={seed} workload={} policy={policy_name} \
                                 faults={fault_name}",
                                w.name()
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Probed column over the configuration axis at n ∈ {3, 4, 5}: every
/// flow-control and latency configuration × workload × policy, all
/// seeds — escape diversions, credit stalls, and multi-round arrival
/// lanes must all show up identically in both engines' event streams.
#[test]
fn probed_config_axis_small_n() {
    for n in 3..=5usize {
        for seed in 0..SEEDS {
            for (config_name, config) in configs() {
                let net = Network::new(n).with_config(config);
                for (policy_name, policy) in policies() {
                    for w in workloads(n, seed) {
                        assert_probed_column(
                            &net,
                            &w,
                            Tenants::One(policy.as_ref()),
                            &format!(
                                "probed n={n} seed={seed} workload={} policy={policy_name} \
                                 config={config_name}",
                                w.name()
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// n = 6 slice: every policy and every fault family on the workloads
/// that stress distinct engine paths (contention-free sweep, permuted
/// all-to-all, fixed-size uniform), 8 seeds each.
#[test]
fn n6_slice() {
    let n = 6;
    for seed in 0..SEEDS {
        for (fault_name, plan) in fault_plans(n, 0x6A ^ seed) {
            let net = Network::new(n).with_faults(plan);
            for (policy_name, policy) in policies() {
                for w in [
                    Workload::dimension_sweep(n, 1 + (seed as usize) % (n - 1), true),
                    Workload::random_permutation(n, seed),
                    Workload::uniform_pairs(n, 96, seed),
                ] {
                    assert_engines_agree(
                        &net,
                        &w,
                        policy.as_ref(),
                        &format!(
                            "n=6 seed={seed} workload={} policy={policy_name} \
                             faults={fault_name}",
                            w.name()
                        ),
                    );
                }
            }
        }
    }
}

/// n = 6 credit-mode slice: tight pools under load, where head-of-line
/// credit stalls and injection stalls dominate the schedule.
#[test]
fn n6_credit_slice() {
    let n = 6;
    let config = NetConfig {
        queue_capacity: Some(1),
        flow_control: FlowControl::CreditBased,
        ..NetConfig::default()
    };
    for seed in 0..SEEDS {
        let net = Network::new(n).with_config(config);
        for (policy_name, policy) in policies() {
            let w = Workload::uniform_pairs(n, 96, seed);
            let stats = assert_engines_agree(
                &net,
                &w,
                policy.as_ref(),
                &format!("n=6 seed={seed} credit policy={policy_name}"),
            );
            assert_eq!(stats.dropped(), 0, "credits never drop");
        }
    }
}

/// n = 6 escape-mode slice: the deadlock-free channel at scale. Both
/// engines byte-identical, and — the headline invariant — nothing is
/// ever stranded or dropped: every packet that enters an escape-mode
/// fault-free network leaves it delivered.
#[test]
fn n6_escape_slice() {
    let n = 6;
    let config = NetConfig {
        queue_capacity: Some(1),
        flow_control: FlowControl::EscapeChannel,
        ..NetConfig::default()
    };
    for seed in 0..SEEDS {
        let net = Network::new(n).with_config(config);
        for (policy_name, policy) in policies() {
            let w = Workload::uniform_pairs(n, 96, seed);
            let stats = assert_engines_agree(
                &net,
                &w,
                policy.as_ref(),
                &format!("n=6 seed={seed} escape policy={policy_name}"),
            );
            assert_eq!(stats.dropped(), 0, "escape mode never drops");
            assert_eq!(stats.stranded, 0, "escape mode never deadlocks");
            assert_eq!(stats.delivered, stats.injected, "full drain");
        }
    }
}

/// Partitioned (multi-tenant) row: composed workloads with per-job
/// policies and mixed escape flags must produce byte-identical total
/// statistics on both engines — the lock under the scheduler's
/// drained-release co-simulation and its quiescence audit, which read
/// per-packet resolution rounds out of exactly these stats. It runs
/// through the probed column, so the two engines must also emit the
/// same event stream: the `cap1-escape` configuration's opt-ins
/// `[true, false, true]` hold the per-job escape eligibility to the
/// oracle event by event.
#[test]
fn partitioned_runs_identical_across_engines() {
    for n in 3..=5usize {
        for seed in 0..SEEDS {
            let parts = [
                Workload::uniform_pairs(n, 32, seed),
                Workload::transpose(n),
                Workload::bernoulli_uniform(n, 3, 40, seed ^ 0xBEEF),
            ];
            let with_offsets: Vec<(&Workload, u32)> = parts.iter().zip([0u32, 2, 5]).collect();
            let (composed, owner) = Workload::compose("diff-tenants", n, &with_offsets);
            let policy_boxes = policies();
            let per_job: Vec<&dyn RoutingPolicy> =
                policy_boxes.iter().map(|(_, p)| p.as_ref()).collect();
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
                let context = format!("partitioned n={n} seed={seed} config={config_name}");
                assert_probed_column(&net, &composed, tenants, &context);
            }
        }
    }
}

/// The Lemma-5 certificate workload must stay byte-identical across
/// engines for every dimension and direction — the run the paper's
/// Theorem 6 bound rests on.
#[test]
fn lemma5_sweep_identical_across_engines() {
    for n in 2..=6usize {
        let net = Network::new(n);
        for k in 1..n {
            for plus in [true, false] {
                let w = Workload::dimension_sweep(n, k, plus);
                let stats = assert_engines_agree(
                    &net,
                    &w,
                    &EmbeddingRouting,
                    &format!("lemma5 n={n} k={k} plus={plus}"),
                );
                assert!(stats.is_contention_free(), "n={n} k={k} {plus}");
                let expect = if k == n - 1 { 1 } else { 3 };
                assert_eq!(stats.makespan as usize, expect, "n={n} k={k} {plus}");
            }
        }
    }
}
