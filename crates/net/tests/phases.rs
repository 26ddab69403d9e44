//! Inject-after-quiescence phase chaining ([`Network::chain_phases`]).
//!
//! The contract under test is the temporal analogue of the spatial
//! isolation theorem: because phase `k + 1` injects strictly after
//! phase `k`'s last packet resolves, the network is empty at every
//! phase boundary, so the composed run must behave per phase exactly
//! like each phase run alone — byte-identical per-phase statistics
//! after rebasing, on both engines, under tail-drop and credit-based
//! flow control alike.

use sg_net::{
    Engine, FlowControl, GreedyRouting, NetConfig, Network, RoutingPolicy, TrafficStats, Workload,
};
use sg_obs::NullProbe;

/// A mixed bag of phases: contention-free sweep, random permutation,
/// hot-spot burst, an *empty* phase (the barrier must still advance
/// the clock), and scattered pairs.
fn phases(n: usize, seed: u64) -> Vec<Workload> {
    vec![
        Workload::dimension_sweep(n, 1, true),
        Workload::random_permutation(n, seed),
        Workload::hot_spot(n, seed % 3, 30, seed),
        Workload::from_injections("empty", n, Vec::new()),
        Workload::uniform_pairs(n, 40, seed ^ 0x5eed),
    ]
}

/// Phase starts are exactly `prev_start + prev_makespan + 1`, every
/// packet of phase `k` injects at `start_k + local_round`, and no
/// packet of phase `k` resolves at or after `start_{k+1}`.
#[test]
fn barriers_are_strict() {
    for n in [4, 5] {
        for seed in 0..4u64 {
            let net = Network::new(n);
            let ws = phases(n, seed);
            let chained = net.chain_phases("chain", &ws, &GreedyRouting);
            assert_eq!(chained.phase_count(), ws.len());
            assert_eq!(chained.phase_starts[0], 0);
            for k in 0..ws.len() {
                if k + 1 < ws.len() {
                    assert_eq!(
                        chained.phase_starts[k + 1],
                        chained.phase_starts[k] + chained.phase_makespans[k] + 1,
                        "n={n} seed={seed} phase {k}"
                    );
                }
                let isolated = if ws[k].injections().is_empty() {
                    0
                } else {
                    net.run(&ws[k], &GreedyRouting).makespan
                };
                assert_eq!(chained.phase_makespans[k], isolated);
            }

            // Resolve the composed run and audit the barrier per packet.
            let stats = net.run(&chained.workload, &GreedyRouting);
            assert_eq!(stats.stranded, 0);
            assert_eq!(stats.makespan + 1, chained.total_rounds());
            assert_eq!(chained.owner.len(), stats.packets.len());
            for (rec, &phase) in stats.packets.iter().zip(&chained.owner) {
                let start = chained.phase_starts[phase as usize];
                let end = start + chained.phase_makespans[phase as usize];
                assert!(
                    rec.inject_round >= start,
                    "phase {phase} packet injected before its barrier"
                );
                let resolved = rec.outcome.resolution_round().expect("no stranded packets");
                assert!(
                    resolved <= end,
                    "phase {phase} packet resolved at {resolved}, after its window end {end}"
                );
            }
        }
    }
}

/// The composed run, split per phase via the owner map and rebased
/// onto each phase's own clock, is **byte-identical** to running each
/// phase alone — `TrafficStats::eq` compares every counter, the full
/// latency histogram, and every per-packet record.
#[test]
fn chained_phases_equal_isolated_runs() {
    for n in [4, 5] {
        for seed in 0..4u64 {
            let net = Network::new(n);
            let ws = phases(n, seed);
            let chained = net.chain_phases("chain", &ws, &GreedyRouting);
            let policies: Vec<Box<dyn RoutingPolicy>> =
                ws.iter().map(|_| Box::new(GreedyRouting) as _).collect();
            let refs: Vec<&dyn RoutingPolicy> = policies.iter().map(|p| p.as_ref()).collect();
            let escape = vec![true; refs.len()];
            let (_, per_phase) = net.run_partitioned(
                &chained.workload,
                &refs,
                &chained.owner,
                &escape,
                &mut NullProbe,
            );
            assert_eq!(per_phase.len(), ws.len());
            for (k, w) in ws.iter().enumerate() {
                let rebased = per_phase[k].rebased(chained.phase_starts[k]);
                let isolated = net.run(w, &GreedyRouting);
                assert_eq!(
                    rebased, isolated,
                    "n={n} seed={seed} phase {k} diverges from its isolated run"
                );
            }
        }
    }
}

/// Both engines agree byte-for-byte on the chained workload — the
/// barrier structure (long idle gaps between phases) is exactly what
/// the fast engine's idle-round skipping accelerates, so this pins it
/// against the reference oracle.
#[test]
fn engines_agree_on_chained_workloads() {
    for n in [4, 5] {
        for seed in 0..4u64 {
            let net = Network::new(n);
            let chained = net.chain_phases("chain", &phases(n, seed), &GreedyRouting);
            let fast = net.run_with(&chained.workload, &GreedyRouting, Engine::Fast);
            let reference = net.run_with(&chained.workload, &GreedyRouting, Engine::Reference);
            assert_eq!(fast, reference, "n={n} seed={seed}");
            assert_eq!(fast.delivered, fast.injected);
        }
    }
}

/// Chaining under credit-based flow control: quiescence is judged
/// under the same configuration the chain will run under, the barrier
/// keeps every phase's credit pressure from leaking into the next,
/// and both engines still agree.
#[test]
fn credit_based_chains_stay_isolated() {
    let n = 4;
    let config = NetConfig {
        queue_capacity: Some(2),
        flow_control: FlowControl::CreditBased,
        ..NetConfig::default()
    };
    for seed in 0..4u64 {
        let net = Network::new(n).with_config(config);
        let ws = vec![
            Workload::uniform_pairs(n, 48, seed),
            Workload::random_permutation(n, seed),
            Workload::uniform_pairs(n, 48, seed ^ 1),
        ];
        let chained = net.chain_phases("credit-chain", &ws, &GreedyRouting);
        let fast = net.run_with(&chained.workload, &GreedyRouting, Engine::Fast);
        let reference = net.run_with(&chained.workload, &GreedyRouting, Engine::Reference);
        assert_eq!(fast, reference, "seed={seed}");
        assert_eq!(fast.stranded, 0);

        let policies: Vec<Box<dyn RoutingPolicy>> =
            ws.iter().map(|_| Box::new(GreedyRouting) as _).collect();
        let refs: Vec<&dyn RoutingPolicy> = policies.iter().map(|p| p.as_ref()).collect();
        let escape = vec![true; refs.len()];
        let (_, per_phase) = net.run_partitioned(
            &chained.workload,
            &refs,
            &chained.owner,
            &escape,
            &mut NullProbe,
        );
        for (k, w) in ws.iter().enumerate() {
            let rebased: TrafficStats = per_phase[k].rebased(chained.phase_starts[k]);
            assert_eq!(rebased, net.run(w, &GreedyRouting), "seed={seed} phase {k}");
        }
    }
}

/// Shifting every phase by its start on its own (a one-part
/// `Workload::compose`) and merging by hand reproduces the chained
/// workload.
#[test]
fn shifted_reconstruction_matches() {
    let n = 4;
    let net = Network::new(n);
    let ws = phases(n, 7);
    let chained = net.chain_phases("chain", &ws, &GreedyRouting);
    let mut manual: Vec<sg_net::Injection> = Vec::new();
    for (w, &start) in ws.iter().zip(&chained.phase_starts) {
        let (shifted, _) = Workload::compose("phase", n, &[(w, start)]);
        manual.extend(shifted.injections().iter().copied());
    }
    manual.sort_by_key(|i| i.round);
    assert_eq!(manual, chained.workload.injections());
}
