//! `sg-trace` coverage for collective-generated runs: a compiled
//! collective is an ordinary `sg-net` workload, so record → replay
//! must rebuild its statistics **byte-identical** (total and
//! per-phase), its JSONL serialization must survive a parse
//! round-trip, and a mutated event in a collective log must be
//! localized by the structural differ to its exact position.

use sg_coll::{
    all_to_all_rotation, allgather_doubling, allreduce_lattice, broadcast_naive, broadcast_tree,
    reduce_scatter_halving, reduce_tree, CollSchedule,
};
use sg_net::trace::{record, replay, replay_jsonl};
use sg_net::{
    Engine, GreedyRouting, Injection, Network, RoutingPolicy, RunStats, Tenants, Workload,
};
use sg_obs::{diff_events, Trace};

fn schedules(m: usize) -> Vec<CollSchedule> {
    let mut out = vec![
        broadcast_tree(m, 0),
        broadcast_naive(m, 1),
        reduce_tree(m, factorial_last(m)),
        allgather_doubling(m),
        reduce_scatter_halving(m),
        allreduce_lattice(m),
    ];
    if m <= 4 {
        out.push(all_to_all_rotation(m));
    }
    out
}

fn factorial_last(m: usize) -> u64 {
    sg_perm::factorial::factorial(m) - 1
}

/// Record → serialize → parse → replay, on both engines, for every
/// collective: replayed stats byte-equal live stats.
#[test]
fn collective_runs_replay_byte_identically() {
    for m in [3usize, 4, 5] {
        let net = Network::new(m);
        for s in schedules(m) {
            let chained = s.compile(&net, &GreedyRouting);
            for engine in [Engine::Fast, Engine::Reference] {
                let tenants = Tenants::One(&GreedyRouting);
                let (RunStats { total: live, .. }, trace) =
                    record(&net, &chained.workload, tenants, engine, 0xc011);
                assert_eq!(live.stranded, 0);
                let replayed = replay(&trace).expect("collective trace replays");
                assert_eq!(
                    replayed.total,
                    live,
                    "{} m={m} {engine:?}: replay diverged from the live run",
                    s.name()
                );
                // The serialized form survives a full parse + replay.
                let text = trace.to_jsonl();
                assert_eq!(Trace::parse(&text).expect("parses"), trace);
                assert_eq!(replay_jsonl(&text).expect("replays").total, live);
            }
        }
    }
}

/// The partitioned recorder with the chain's phase-owner map: per-
/// phase statistics replay byte-identically too, and each rebased
/// phase equals the phase run alone (the barrier lock, through the
/// trace layer).
#[test]
fn partitioned_collective_traces_attribute_phases() {
    let m = 4;
    let net = Network::new(m);
    for s in [broadcast_tree(m, 0), allreduce_lattice(m)] {
        let chained = s.compile(&net, &GreedyRouting);
        let phases: Vec<Workload> = s
            .phases()
            .iter()
            .map(|phase| {
                let sends = phase.iter().map(|x| Injection {
                    round: 0,
                    src: x.src,
                    dst: x.dst,
                });
                Workload::from_injections("phase", m, sends.collect())
            })
            .collect();
        let policies: Vec<Box<dyn RoutingPolicy>> = phases
            .iter()
            .map(|_| Box::new(GreedyRouting) as _)
            .collect();
        let refs: Vec<&dyn RoutingPolicy> = policies.iter().map(|p| p.as_ref()).collect();
        let escape = vec![false; phases.len()];
        let tenants = Tenants::PerJob {
            policies: &refs,
            owner: &chained.owner,
            escape: &escape,
        };
        let (live, trace) = record(&net, &chained.workload, tenants, Engine::Fast, 0xc011);
        let (total, per_phase) = (live.total, live.per_job);
        let replayed = replay(&trace).expect("partitioned collective trace replays");
        assert_eq!(replayed.total, total, "{}", s.name());
        assert_eq!(replayed.per_job, per_phase, "{}", s.name());
        for (k, w) in phases.iter().enumerate() {
            // The phase's start is its packets' injection round.
            let start = per_phase[k].packets[0].inject_round;
            assert_eq!(
                per_phase[k].rebased(start),
                net.run(w, &GreedyRouting),
                "{} phase {k}",
                s.name()
            );
        }
    }
}

/// Divergence localization on a mutated collective log: flip one
/// event deep inside an allreduce trace and the differ must name its
/// exact index, round, and in-round position.
#[test]
fn mutated_collective_log_divergence_is_localized() {
    let net = Network::new(4);
    let chained = allreduce_lattice(4).compile(&net, &GreedyRouting);
    let (_, trace) = record(
        &net,
        &chained.workload,
        Tenants::One(&GreedyRouting),
        Engine::Fast,
        0xd1ff,
    );
    let a = trace.events.clone();
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
        pid: 424_242,
        pe: 0,
        hops: 1,
    };
    assert_ne!(a[victim], b[victim], "mutation must actually mutate");
    let d = diff_events(&a, &b, 3).expect("mutated streams diverge");
    assert_eq!(d.index, victim, "differ must find the mutated event");
    assert_eq!(d.a.round, Some(expected_round));
    assert_eq!(d.a.index_in_round, expected_index);
    assert_eq!(d.b.event, Some(b[victim]));
    assert!(d.render().contains("424242"));
}
