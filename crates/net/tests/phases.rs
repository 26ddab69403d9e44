//! Phase barriers inside the engine ([`Workload::chain`]).
//!
//! The contract under test is the temporal analogue of the spatial
//! isolation theorem: because phase `k + 1` opens one round after
//! phase `k`'s last packet resolves, the network is empty at every
//! phase boundary, so a barrier run must behave per phase exactly like
//! each phase run alone — byte-identical per-phase statistics after
//! rebasing to the phase's realized start, on both engines, under
//! tail-drop and credit-based flow control alike. Nothing but the run
//! knows the starts: each is read from the run's packet records (a
//! packet's realized injection round minus its round within the
//! phase).

use sg_net::trace::{record, replay};
use sg_net::{
    ChainedWorkload, Engine, FlowControl, GreedyRouting, Injection, NetConfig, Network,
    PacketOutcome, PacketRecord, RoutingPolicy, RunCounters, RunStats, Tenants, TrafficStats,
    Workload,
};
use sg_obs::{DropReason, Event, EventLog, NullProbe};
use sg_star::SubStar;

/// [`Workload::chain`] over whole workloads, one per phase.
fn chain(name: &str, n: usize, phases: &[Workload]) -> ChainedWorkload {
    Workload::chain(
        name,
        n,
        phases.iter().map(|w| w.injections().iter().copied()),
    )
}
/// A mixed bag of phases: contention-free sweep, random permutation,
/// hot-spot burst, an *empty* phase (the barrier must still advance
/// the clock), open-loop traffic spread over three rounds of its
/// phase, and scattered pairs.
fn phases(n: usize, seed: u64) -> Vec<Workload> {
    vec![
        Workload::dimension_sweep(n, 1, true),
        Workload::random_permutation(n, seed),
        Workload::hot_spot(n, seed % 3, 30, seed),
        Workload::from_injections("empty", n, Vec::new()),
        Workload::bernoulli_uniform(n, 3, 20, seed),
        Workload::uniform_pairs(n, 40, seed ^ 0x5eed),
    ]
}

/// Each phase's realized start, read from the run: `None` for an
/// empty phase, which has no packet to tell.
fn realized_starts(chained: &ChainedWorkload, stats: &TrafficStats) -> Vec<Option<u32>> {
    let mut starts = vec![None; chained.phase_count()];
    let inj = chained.workload.injections();
    for ((rec, i), &k) in stats.packets.iter().zip(inj).zip(&chained.owner) {
        let start = rec.inject_round - i.round;
        let slot = &mut starts[k as usize];
        assert!(
            slot.is_none_or(|s| s == start),
            "phase {k}: packets disagree on its start"
        );
        *slot = Some(start);
    }
    starts
}

/// Where each phase must open: `start_{k+1} = start_k + makespan_k +
/// 1`, with each phase's makespan from its isolated run (0 for an
/// empty phase). The last entry is the round after the chain ends.
fn expected_starts(net: &Network, ws: &[Workload]) -> Vec<u32> {
    let mut starts = vec![0u32];
    for w in ws {
        let makespan = if w.is_empty() {
            0
        } else {
            net.run(w, &GreedyRouting).makespan
        };
        starts.push(starts.last().expect("seeded") + makespan + 1);
    }
    starts
}

/// One greedy policy and one escape flag per phase.
fn per_phase_run(net: &Network, chained: &ChainedWorkload) -> (TrafficStats, Vec<TrafficStats>) {
    let refs: Vec<&dyn RoutingPolicy> = vec![&GreedyRouting; chained.phase_count()];
    let escape = vec![true; refs.len()];
    let tenants = Tenants::PerJob {
        policies: &refs,
        owner: &chained.owner,
        escape: &escape,
    };
    let stats = net.simulate(&chained.workload, tenants, Engine::Fast, &mut NullProbe);
    (stats.total, stats.per_job)
}

/// The records of phase `k`'s packets, rebased to its start.
fn phase_records(stats: &TrafficStats, owner: &[u32], k: usize, start: u32) -> Vec<PacketRecord> {
    let mine: Vec<PacketRecord> = stats
        .packets
        .iter()
        .zip(owner)
        .filter(|&(_, &o)| o as usize == k)
        .map(|(r, _)| *r)
        .collect();
    TrafficStats::from_records(stats.n, mine, RunCounters::default())
        .rebased(start)
        .packets
}

/// Each phase's stats in the barrier run, split by owner and rebased
/// to the phase's realized start, equal its isolated run: fully
/// attributed on the fast engine, packet by packet on the reference
/// engine (whose partitioned run reports totals only).
fn assert_phases_isolated(net: &Network, ws: &[Workload], context: &str) {
    let chained = chain("chain", net.n(), ws);
    let (total, per_phase) = per_phase_run(net, &chained);
    let reference = net.run_with(&chained.workload, &GreedyRouting, Engine::Reference);
    assert_eq!(total, reference, "{context}: engines disagree");
    assert_eq!(total.stranded, 0, "{context}");
    let starts = realized_starts(&chained, &total);
    for (k, w) in ws.iter().enumerate() {
        let start = starts[k].unwrap_or(0);
        assert_eq!(
            per_phase[k].rebased(start),
            net.run(w, &GreedyRouting),
            "{context}: phase {k} diverges from its isolated run"
        );
        assert_eq!(
            phase_records(&reference, &chained.owner, k, start),
            net.run_with(w, &GreedyRouting, Engine::Reference).packets,
            "{context}: phase {k} records diverge on the reference engine"
        );
    }
}

/// Phases open exactly at `prev_start + prev_makespan + 1` (isolated
/// makespans, an empty phase counting 0), every packet of phase `k`
/// injects at `start_k + local_round`, and no packet of phase `k`
/// resolves after its window `start_k + makespan_k`. All of it is read
/// from the run's packet records.
#[test]
fn barriers_are_strict() {
    for n in [4, 5] {
        for seed in 0..4u64 {
            let net = Network::new(n);
            let ws = phases(n, seed);
            let chained = chain("chain", n, &ws);
            assert_eq!(chained.phase_count(), ws.len());
            let want = expected_starts(&net, &ws);
            let stats = net.run(&chained.workload, &GreedyRouting);
            assert_eq!(stats.stranded, 0);
            assert_eq!(
                stats.makespan + 1,
                want[ws.len()],
                "the last phase ends the run"
            );
            for (k, start) in realized_starts(&chained, &stats).iter().enumerate() {
                if let Some(s) = start {
                    assert_eq!(*s, want[k], "n={n} seed={seed} phase {k}");
                }
            }
            let inj = chained.workload.injections();
            for ((rec, i), &phase) in stats.packets.iter().zip(inj).zip(&chained.owner) {
                let k = phase as usize;
                assert_eq!(
                    rec.inject_round,
                    want[k] + i.round,
                    "phase {k} injected off its barrier"
                );
                let resolved = rec.outcome.resolution_round().expect("no stranded packets");
                let end = want[k + 1] - 1;
                assert!(
                    resolved <= end,
                    "phase {k} packet resolved at {resolved}, after its window end {end}"
                );
            }
        }
    }
}

/// The temporal-isolation theorem under tail-drop flow control, with
/// unbounded and with tight (dropping) queues: the barrier run, split
/// per phase via the owner map and rebased onto each phase's realized
/// start, is **byte-identical** to running each phase alone —
/// `TrafficStats::eq` compares every counter, the full latency
/// histogram, and every per-packet record.
#[test]
fn chained_phases_equal_isolated_runs() {
    for n in [4, 5] {
        for seed in 0..4u64 {
            for cap in [None, Some(1)] {
                let config = NetConfig {
                    queue_capacity: cap,
                    ..NetConfig::default()
                };
                let net = Network::new(n).with_config(config);
                let context = format!("n={n} seed={seed} cap={cap:?}");
                assert_phases_isolated(&net, &phases(n, seed), &context);
            }
        }
    }
}

/// Both engines agree byte-for-byte on barrier runs — the barrier
/// structure (long idle gaps between phases, each phase opened by a
/// resolution) is exactly what the fast engine's idle-round skipping
/// jumps over, so this pins it against the reference oracle.
#[test]
fn engines_agree_on_chained_workloads() {
    for n in [4, 5] {
        for seed in 0..4u64 {
            let net = Network::new(n);
            let chained = chain("chain", n, &phases(n, seed));
            let fast = net.run_with(&chained.workload, &GreedyRouting, Engine::Fast);
            let reference = net.run_with(&chained.workload, &GreedyRouting, Engine::Reference);
            assert_eq!(fast, reference, "n={n} seed={seed}");
            assert_eq!(fast.delivered, fast.injected);
        }
    }
}

/// Barriers under credit-based flow control: each phase opens only
/// once the one before it resolved under the same configuration, so no
/// phase's credit pressure leaks into the next, and both engines still
/// agree.
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
            Workload::from_injections("empty", n, Vec::new()),
            Workload::uniform_pairs(n, 48, seed ^ 1),
        ];
        assert_phases_isolated(&net, &ws, &format!("credit seed={seed}"));
    }
}

/// Shifting every phase by its realized start and merging them without
/// barriers (`Workload::compose`) reproduces the barrier run: the same
/// packets in the same order at the same rounds, and byte-identical
/// statistics on both engines, under tail-drop and credit flow control.
#[test]
fn shifted_reconstruction_matches() {
    let n = 4;
    for (fc, cap) in [
        (FlowControl::TailDrop, None),
        (FlowControl::CreditBased, Some(2)),
    ] {
        let net = Network::new(n).with_config(NetConfig {
            queue_capacity: cap,
            flow_control: fc,
            ..NetConfig::default()
        });
        for seed in [3, 7] {
            let ws = phases(n, seed);
            let chained = chain("chain", n, &ws);
            let barrier = net.run(&chained.workload, &GreedyRouting);
            let starts = realized_starts(&chained, &barrier);
            let parts: Vec<(&Workload, u32)> = ws
                .iter()
                .zip(starts.iter().map(|s| s.unwrap_or(0)))
                .collect();
            let (ungated, owner) = Workload::compose("ungated", n, &parts);
            assert_eq!(
                owner, chained.owner,
                "{fc:?} seed={seed}: same packets, same order"
            );
            let realized: Vec<Injection> = barrier
                .packets
                .iter()
                .map(|r| Injection {
                    round: r.inject_round,
                    src: r.src,
                    dst: r.dst,
                })
                .collect();
            assert_eq!(ungated.injections(), &realized[..]);
            for engine in [Engine::Fast, Engine::Reference] {
                assert_eq!(
                    net.run_with(&ungated, &GreedyRouting, engine),
                    net.run_with(&chained.workload, &GreedyRouting, engine),
                    "{fc:?} seed={seed} {engine:?}: barrier run differs from the ungated compose"
                );
            }
        }
    }
}

/// Leading and back-to-back empty phases each cost one round, and a
/// chain of nothing but empty phases is an empty run.
#[test]
fn empty_phases_advance_the_clock_one_round_each() {
    let n = 4;
    let net = Network::new(n);
    let empty = || Workload::from_injections("empty", n, Vec::new());
    let pairs = Workload::uniform_pairs(n, 5, 3);
    let chained = chain(
        "gaps",
        n,
        &[empty(), empty(), pairs.clone(), empty(), pairs],
    );
    let stats = net.run(&chained.workload, &GreedyRouting);
    let starts = realized_starts(&chained, &stats);
    assert_eq!(starts[2], Some(2));
    let first = net
        .run(&Workload::uniform_pairs(n, 5, 3), &GreedyRouting)
        .makespan;
    assert_eq!(starts[4], Some(2 + first + 2));

    let nothing = chain("nothing", n, &[empty(), empty()]);
    assert_eq!(nothing.phase_count(), 2);
    assert_eq!(net.run(&nothing.workload, &GreedyRouting).injected, 0);
}

/// A phase that strands: `n = 4` at a one-slot credit pool under
/// sustained full-rate traffic wedges (the `tests/deadlock.rs` sweep),
/// and one more phase waits behind it. The run reaches an outcome on
/// both engines without a panic; the successor never opens, so its
/// packets are `Stranded` with the round the run gave up (the round of
/// the strand events) as their injection round; and the trace round
/// trip reproduces all of it.
#[test]
fn a_phase_that_strands_strands_its_successors() {
    let n = 4;
    let net = Network::new(n).with_config(NetConfig {
        queue_capacity: Some(1),
        flow_control: FlowControl::CreditBased,
        ..NetConfig::default()
    });
    let wedge = Workload::bernoulli_uniform(n, 40, 100, 1);
    assert!(
        net.run(&wedge, &GreedyRouting).stranded > 0,
        "the first phase must wedge"
    );
    let after = Workload::uniform_pairs(n, 12, 5);
    let chained = chain("wedged", n, &[wedge.clone(), after.clone()]);
    for engine in [Engine::Fast, Engine::Reference] {
        let mut log = EventLog::new();
        let tenants = Tenants::One(&GreedyRouting);
        let RunStats { total: stats, .. } =
            net.simulate(&chained.workload, tenants, engine, &mut log);
        let gave_up = log
            .events()
            .iter()
            .find_map(|ev| match *ev {
                Event::Dropped {
                    round,
                    reason: DropReason::Stranded,
                    ..
                } => Some(round),
                _ => None,
            })
            .expect("the run strands");
        let successor = &stats.packets[wedge.len()..];
        assert_eq!(successor.len(), after.len());
        for (rec, i) in successor.iter().zip(after.injections()) {
            assert_eq!(rec.outcome, PacketOutcome::Stranded, "{engine:?}");
            assert_eq!(rec.inject_round, gave_up, "{engine:?}");
            assert_eq!((rec.src, rec.dst), (i.src, i.dst));
        }
        assert!(stats.stranded > after.len() as u64);

        let (live, trace) = record(&net, &chained.workload, tenants, engine, 1);
        assert_eq!(live.total, stats);
        let replayed = replay(&trace).expect("a stranded barrier run replays");
        assert_eq!(replayed.total, stats, "{engine:?}: replay diverged");
    }
    assert_eq!(
        net.run_with(&chained.workload, &GreedyRouting, Engine::Fast),
        net.run_with(&chained.workload, &GreedyRouting, Engine::Reference)
    );
}

/// The round cap gives up too: phases that have not opened by then
/// strand at the cap round, and a phase that opened keeps its start.
#[test]
fn the_round_cap_strands_unopened_phases_at_the_cap() {
    let n = 4;
    let max_rounds = 6;
    let net = Network::new(n).with_config(NetConfig {
        max_rounds,
        ..NetConfig::default()
    });
    let ws = [
        Workload::uniform_pairs(n, 4, 1),
        Workload::bernoulli_uniform(n, 40, 50, 2),
        Workload::uniform_pairs(n, 4, 3),
    ];
    let chained = chain("capped", n, &ws);
    let fast = net.run_with(&chained.workload, &GreedyRouting, Engine::Fast);
    assert_eq!(
        fast,
        net.run_with(&chained.workload, &GreedyRouting, Engine::Reference)
    );
    let first = Network::new(n).run(&ws[0], &GreedyRouting).makespan;
    let opened = first + 1;
    assert!(opened < max_rounds, "phase 1 must open before the cap");
    let p1 = &fast.packets[ws[0].len()..ws[0].len() + ws[1].len()];
    for (rec, i) in p1.iter().zip(ws[1].injections()) {
        assert_eq!(rec.inject_round, opened + i.round);
    }
    for rec in &fast.packets[ws[0].len() + ws[1].len()..] {
        assert_eq!(rec.outcome, PacketOutcome::Stranded);
        assert_eq!(rec.inject_round, max_rounds);
    }
}

/// `traffic` confined to `sub`: each PE of the local `S_m` relabeled
/// to its global rank.
fn lifted(sub: &SubStar, traffic: &Workload) -> Workload {
    let map = sub.node_ranks();
    let injections = traffic
        .injections()
        .iter()
        .map(|i| Injection {
            round: i.round,
            src: map[i.src as usize],
            dst: map[i.dst as usize],
        })
        .collect();
    Workload::from_injections(traffic.name(), sub.n(), injections)
}

/// A chained part composed with an ungated tenant on a disjoint
/// sub-star opens its phases exactly as when it runs alone: the
/// barrier is phase-local, so the tenant's ongoing traffic never holds
/// a phase back. The composed packet order is pinned: every ungated
/// packet first, then the chained part's phases.
#[test]
fn barriers_are_phase_local_under_compose() {
    let n = 5;
    let net = Network::new(n);
    let (a, b) = (SubStar::new(n, vec![0]), SubStar::new(n, vec![1]));
    for seed in 0..3u64 {
        let ws: Vec<Workload> = [
            Workload::random_permutation(4, seed),
            Workload::dimension_sweep(4, 2, true),
            Workload::hot_spot(4, 3, 50, seed),
        ]
        .iter()
        .map(|w| lifted(&a, w))
        .collect();
        let chained = chain("chain", n, &ws);
        let tenant = lifted(&b, &Workload::bernoulli_uniform(4, 30, 60, seed));
        let offset = 3;
        let (merged, owner) =
            Workload::compose("mixed", n, &[(&chained.workload, offset), (&tenant, 0)]);
        let pinned: Vec<u32> = std::iter::repeat_n(1, tenant.len())
            .chain(std::iter::repeat_n(0, chained.workload.len()))
            .collect();
        assert_eq!(owner, pinned, "ungated packets first, then the chain");
        assert_eq!(&merged.injections()[..tenant.len()], tenant.injections());

        let policies: [&dyn RoutingPolicy; 2] = [&GreedyRouting; 2];
        let tenants = Tenants::PerJob {
            policies: &policies,
            owner: &owner,
            escape: &[true; 2],
        };
        let run = net.simulate(&merged, tenants, Engine::Fast, &mut NullProbe);
        let (total, jobs) = (run.total, run.per_job);
        assert_eq!(
            total,
            net.run_with(&merged, &GreedyRouting, Engine::Reference),
            "seed={seed}: engines disagree on the mixed compose"
        );
        let alone = net.run(&chained.workload, &GreedyRouting);
        assert_eq!(
            jobs[0].rebased(offset),
            alone,
            "seed={seed}: the chain was held back"
        );
        assert_eq!(jobs[1], net.run(&tenant, &GreedyRouting), "seed={seed}");
        // The tenant is still injecting when the chain's phases open.
        let starts = realized_starts(&chained, &alone);
        assert!(starts.iter().flatten().any(|&s| s + offset < 30));
        for engine in [Engine::Fast, Engine::Reference] {
            let mut log = EventLog::new();
            let _ = net.simulate(&merged, Tenants::One(&GreedyRouting), engine, &mut log);
            assert_injections_in_pid_order(log.events(), merged.len(), engine);
        }
    }
}

/// A packet's first event happens in the round it injects, and
/// injections come after the round's arrivals: so within each round,
/// the packets seen for the first time must appear in ascending
/// packet-id order — the order in which packets due in the same round
/// inject, whichever part or phase they belong to.
fn assert_injections_in_pid_order(events: &[Event], packets: usize, engine: Engine) {
    let mut seen = vec![false; packets];
    let mut last: Option<(u32, u32)> = None;
    for ev in events {
        let (round, pid) = match *ev {
            Event::Queued { round, pid, .. }
            | Event::Stalled { round, pid, .. }
            | Event::Dropped { round, pid, .. }
            | Event::Delivered { round, pid, .. } => (round, pid),
            _ => continue,
        };
        if std::mem::replace(&mut seen[pid as usize], true) {
            continue;
        }
        if let Some((r, p)) = last {
            assert!(
                r != round || p < pid,
                "{engine:?}: round {round} injected packet {pid} after packet {p}"
            );
        }
        last = Some((round, pid));
    }
    assert!(
        seen.iter().all(|&s| s),
        "{engine:?}: a packet never showed up"
    );
}

/// The lone chain numbers its packets phase by phase, and its owner
/// map names each packet's phase.
#[test]
fn a_chain_numbers_its_packets_phase_by_phase() {
    let n = 4;
    let ws = phases(n, 7);
    let chained = chain("chain", n, &ws);
    let mut want: Vec<Injection> = Vec::new();
    let mut owner = Vec::new();
    for (k, w) in ws.iter().enumerate() {
        want.extend_from_slice(w.injections());
        owner.extend(std::iter::repeat_n(k as u32, w.len()));
    }
    assert_eq!(chained.workload.injections(), &want[..]);
    assert_eq!(chained.owner, owner);
}
