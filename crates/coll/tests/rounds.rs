//! Cost-level acceptance: measured rounds vs the distance lower
//! bound, at the stated constant factors (see the crate docs' cost
//! model).
//!
//! Everything here is deterministic — schedules are pure functions of
//! `(collective, order, root)` and the simulator is a pure function
//! of its inputs — so the assertions are exact, not statistical.

use sg_coll::{
    all_to_all_naive, all_to_all_rotation, allgather_doubling, allgather_naive, allreduce_lattice,
    broadcast_naive, broadcast_tree, distance_lower_bound, naive_root_lower_bound, reduce_naive,
    reduce_scatter_halving, reduce_tree, CollSchedule,
};
use sg_net::{ChainedWorkload, FlowControl, GreedyRouting, NetConfig, Network, TrafficStats};
use sg_perm::factorial::factorial;
use sg_star::SubStar;

/// Each phase's `(start, makespan)` as the run realized them: its
/// packets' injection round (every send is due at the phase's round
/// 0) and the last resolution counted from there.
fn phase_windows(chained: &ChainedWorkload, stats: &TrafficStats) -> Vec<(u32, u32)> {
    let mut windows = vec![(u32::MAX, 0); chained.phase_count()];
    for (rec, &k) in stats.packets.iter().zip(&chained.owner) {
        let (start, end) = &mut windows[k as usize];
        *start = (*start).min(rec.inject_round);
        *end = (*end).max(rec.outcome.resolution_round().expect("no stranded packets"));
    }
    windows.iter().map(|&(s, e)| (s, e - s)).collect()
}

fn compile_and_run(net: &Network, s: &CollSchedule) -> (ChainedWorkload, TrafficStats) {
    let chained = s.compile(net, &GreedyRouting);
    let stats = net.run(&chained.workload, &GreedyRouting);
    assert_eq!(
        stats.delivered,
        stats.injected,
        "{} loses packets",
        s.name()
    );
    (chained, stats)
}

/// Tree broadcast/reduce: exactly `ecc` contention-free one-hop
/// phases ⇒ makespan exactly `2·ecc − 1`, within factor 2 of the
/// eccentricity lower bound — from every probed root, at every order.
#[test]
fn tree_collectives_hit_two_ecc_minus_one() {
    for m in 2..=6usize {
        let net = Network::new(m);
        let lb = distance_lower_bound(m);
        let roots = if m <= 4 {
            (0..factorial(m)).collect::<Vec<_>>()
        } else {
            vec![0, factorial(m) / 2, factorial(m) - 1]
        };
        for root in roots {
            for s in [broadcast_tree(m, root), reduce_tree(m, root)] {
                assert_eq!(s.phase_count() as u32, lb, "{}: height ≠ ecc", s.name());
                assert_eq!(s.total_sends() as u64, factorial(m) - 1);
                let (chained, stats) = compile_and_run(&net, &s);
                assert_eq!(stats.makespan, 2 * lb - 1, "{} m={m} root={root}", s.name());
                assert_eq!(
                    stats.total_wait_rounds,
                    0,
                    "{} m={m} root={root}: a tree phase contended",
                    s.name()
                );
                // Every phase is a single parallel hop.
                assert!(phase_windows(&chained, &stats)
                    .iter()
                    .all(|&(_, ms)| ms == 1));
            }
        }
    }
}

/// The naive root collectives serialize on the root's `m − 1` links:
/// makespan ≥ `⌈(m! − 1)/(m − 1)⌉`.
#[test]
fn naive_root_collectives_serialize() {
    for m in 3..=5usize {
        let net = Network::new(m);
        for s in [broadcast_naive(m, 0), reduce_naive(m, 0)] {
            let (_, stats) = compile_and_run(&net, &s);
            assert!(
                stats.makespan >= naive_root_lower_bound(m),
                "{} m={m}: makespan {} under the serialization bound {}",
                s.name(),
                stats.makespan,
                naive_root_lower_bound(m)
            );
        }
    }
}

/// The tree's advantage over naive broadcast grows without bound:
/// tree wins from `m = 4` on, and the naive/tree ratio strictly
/// increases with `m` (the measured asymptotic gap).
#[test]
fn broadcast_gap_grows_with_order() {
    let mut last_ratio = 0.0f64;
    for m in 4..=6usize {
        let net = Network::new(m);
        let (_, tree) = compile_and_run(&net, &broadcast_tree(m, 0));
        let (_, naive) = compile_and_run(&net, &broadcast_naive(m, 0));
        assert!(
            tree.makespan < naive.makespan,
            "m={m}: tree {} !< naive {}",
            tree.makespan,
            naive.makespan
        );
        let ratio = f64::from(naive.makespan) / f64::from(tree.makespan);
        assert!(
            ratio > last_ratio,
            "m={m}: gap ratio {ratio:.2} did not grow past {last_ratio:.2}"
        );
        last_ratio = ratio;
    }
    // The serialization bound alone already forces the gap: naive is
    // Ω(m!/m) while the tree is exactly 2·⌊3(m−1)/2⌋ − 1 = O(m).
    assert!(
        last_ratio > 10.0,
        "gap at m=6 should exceed 10×, got {last_ratio:.2}"
    );
}

/// Lattice collectives: exact phase counts (`m(m−1)/2`; allreduce
/// `m(m−1)`; all-to-all `m! − 1`) and total rounds within the stated
/// factor `lb + 2` per phase of the distance lower bound.
#[test]
fn lattice_phase_counts_and_round_bounds() {
    for m in 2..=5usize {
        let net = Network::new(m);
        let lb = distance_lower_bound(m);
        let per_phase_cap = lb + 2;
        let mut schedules = vec![
            allgather_doubling(m),
            reduce_scatter_halving(m),
            allreduce_lattice(m),
        ];
        if m <= 4 {
            schedules.push(all_to_all_rotation(m));
        }
        for s in schedules {
            let expected_phases = match s.name() {
                "allgather/doubling" | "reduce-scatter/halving" => m * (m - 1) / 2,
                "allreduce/lattice" => m * (m - 1),
                "all-to-all/rotation" => factorial(m) as usize - 1,
                other => panic!("unexpected schedule {other}"),
            };
            assert_eq!(s.phase_count(), expected_phases, "{}", s.name());
            let (chained, stats) = compile_and_run(&net, &s);
            // Each phase takes ≥ 1 round plus its barrier…
            assert!(stats.makespan + 1 >= 2 * s.phase_count() as u32 - 1);
            // …and at most lb + 2, the stated constant factor.
            assert!(
                stats.makespan < s.phase_count() as u32 * (per_phase_cap + 1),
                "{} m={m}: {} rounds exceeds {} phases × (lb+2+1)",
                s.name(),
                stats.makespan + 1,
                s.phase_count()
            );
            let (start, makespan) = *phase_windows(&chained, &stats).last().expect("phases");
            assert_eq!(start + makespan + 1, stats.makespan + 1);
        }
    }
}

/// Structured allgather beats the naive all-pairs blast once the
/// network is big enough for structure to matter (m = 5: 412 total
/// wait rounds vs 1.18M), and waits stay orders of magnitude lower.
#[test]
fn allgather_structure_beats_all_pairs() {
    let m = 5;
    let net = Network::new(m);
    let (_, doubling) = compile_and_run(&net, &allgather_doubling(m));
    let (_, naive) = compile_and_run(&net, &allgather_naive(m));
    assert!(doubling.makespan < naive.makespan);
    assert!(doubling.total_wait_rounds * 100 < naive.total_wait_rounds);
}

/// The rotation all-to-all's phases are clean permutations: every PE
/// sends once and receives once per phase, and each ordered pair is
/// served exactly once across the whole schedule.
#[test]
fn all_to_all_rotation_is_a_permutation_schedule() {
    for m in 3..=5usize {
        let nodes = factorial(m);
        let s = all_to_all_rotation(m);
        assert_eq!(s.phase_count() as u64, nodes - 1);
        let mut pairs = std::collections::BTreeSet::new();
        for phase in s.phases() {
            assert_eq!(phase.len() as u64, nodes);
            let srcs: std::collections::BTreeSet<u64> = phase.iter().map(|s| s.src).collect();
            let dsts: std::collections::BTreeSet<u64> = phase.iter().map(|s| s.dst).collect();
            assert_eq!(srcs.len() as u64, nodes);
            assert_eq!(dsts.len() as u64, nodes);
            for snd in phase {
                assert!(pairs.insert((snd.src, snd.dst)), "pair served twice");
            }
        }
        assert_eq!(pairs.len() as u64, nodes * (nodes - 1));
        // Same pair coverage as naive, in m! − 1 contention-light
        // permutation phases instead of one all-pairs blast.
        let naive = all_to_all_naive(m);
        assert_eq!(naive.total_sends(), s.total_sends());
    }
}

/// Compiling simulates nothing: on networks whose one-slot credit
/// pools wedge the naive all-pairs allgather, `compile` and
/// `compile_on` still return the whole chained workload, and only the
/// run strands.
#[test]
fn compiling_simulates_nothing() {
    let wedging = NetConfig {
        queue_capacity: Some(1),
        flow_control: FlowControl::CreditBased,
        ..NetConfig::default()
    };
    let m = 4;
    let s = allgather_naive(m);
    let net = Network::new(m).with_config(wedging);
    let chained = s.compile(&net, &GreedyRouting);
    assert_eq!(chained.workload.len(), s.total_sends());
    assert!(net.run(&chained.workload, &GreedyRouting).stranded > 0);

    let host = Network::new(m + 1).with_config(wedging);
    let sub = SubStar::new(m + 1, vec![3]);
    let on = s.compile_on(&host, &sub);
    assert_eq!(on.owner, chained.owner);
    assert!(host.run(&on.workload, &GreedyRouting).stranded > 0);
}
