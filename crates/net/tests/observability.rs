//! Observability integration suite: the probe event stream as an
//! independent witness of `TrafficStats`.
//!
//! Every test here recounts some statistic from the raw [`Event`]
//! stream and checks the engine's own counter, or the `NetProbe`
//! dashboard, against it — the two are computed by disjoint code
//! paths (engine accumulators vs. this file's `Recount` fold), so
//! agreement is real evidence. Alongside: the purity guarantee
//! (attaching a probe never changes the stats), the engine-equality
//! of the streams at smoke scale (the full slice lives in
//! `differential.rs`), `TrafficStats::rebased` against event rounds,
//! and the fast engine's self-profiler under a counting clock local
//! to the test's thread.

use sg_net::{
    AdaptiveRouting, Engine, FlowControl, GreedyRouting, Injection, NetConfig, Network,
    PacketOutcome, RunStats, Tenants, TrafficStats, Workload,
};
use sg_obs::{DropReason, Event, EventLog, NetProbe, NullProbe, Probe, StallKind};
use std::cell::Cell;

/// Folds an event stream back into the aggregate counters
/// `TrafficStats` reports, by an entirely independent computation.
#[derive(Default)]
struct Recount {
    forwarded: u64,
    escape_forwarded: u64,
    delivered: u64,
    dropped: u64,
    stranded: u64,
    diverted: u64,
    wait_rounds: u64,
    stall_rounds: u64,
    /// `RoundEnd` events seen, and the largest queued total with the
    /// earliest round that reached it.
    rounds_ended: u64,
    peak_queued: Option<(u64, u32)>,
    /// `esc_occ[pe]` live escape residents, and the running peak.
    esc_occ: Vec<u32>,
    peak_escape: u64,
    /// Delivery round per pid, from `Delivered` events.
    delivery_round: Vec<Option<u32>>,
}

impl Recount {
    fn new(node_count: usize, packets: usize) -> Self {
        Recount {
            esc_occ: vec![0; node_count],
            delivery_round: vec![None; packets],
            ..Recount::default()
        }
    }
}

impl Probe for Recount {
    fn event(&mut self, ev: &Event) {
        match *ev {
            Event::Forwarded { from, escape, .. } => {
                self.forwarded += 1;
                if escape {
                    self.escape_forwarded += 1;
                    self.esc_occ[from as usize] -= 1;
                }
            }
            Event::Queued {
                pe, escape: true, ..
            } => {
                self.esc_occ[pe as usize] += 1;
                self.peak_escape = self.peak_escape.max(u64::from(self.esc_occ[pe as usize]));
            }
            Event::Diverted { pe, .. } => {
                self.diverted += 1;
                self.esc_occ[pe as usize] += 1;
                self.peak_escape = self.peak_escape.max(u64::from(self.esc_occ[pe as usize]));
            }
            Event::Delivered { round, pid, .. } => {
                self.delivered += 1;
                self.delivery_round[pid as usize] = Some(round);
            }
            Event::Dropped { reason, .. } => {
                if reason == DropReason::Stranded {
                    self.stranded += 1;
                } else {
                    self.dropped += 1;
                }
            }
            Event::RoundEnd {
                round,
                queued,
                stalled,
                ..
            } => {
                self.wait_rounds += queued;
                self.stall_rounds += stalled;
                self.rounds_ended += 1;
                if self.peak_queued.is_none_or(|(q, _)| queued > q) {
                    self.peak_queued = Some((queued, round));
                }
            }
            _ => {}
        }
    }
}

/// Checks stream bracketing: rounds strictly increase, every
/// `RoundBegin` is closed by a `RoundEnd` of the same round, and no
/// event falls outside a bracket.
fn assert_well_bracketed(events: &[Event]) {
    let mut open: Option<u32> = None;
    let mut last_closed: Option<u32> = None;
    for ev in events {
        match *ev {
            Event::RoundBegin { round } => {
                assert_eq!(open, None, "nested round {round}");
                assert!(
                    last_closed.is_none_or(|c| round > c),
                    "round {round} reopened after {last_closed:?}"
                );
                open = Some(round);
            }
            Event::RoundEnd { round, .. } => {
                assert_eq!(open, Some(round), "unbalanced round end {round}");
                open = None;
                last_closed = Some(round);
            }
            other => {
                assert_eq!(
                    open,
                    Some(other.round()),
                    "event outside its round bracket: {other:?}"
                );
            }
        }
    }
    assert_eq!(open, None, "stream ended inside a round");
}

fn recounted(
    net: &Network,
    w: &Workload,
    policy: &dyn sg_net::RoutingPolicy,
    engine: Engine,
) -> (TrafficStats, Recount, EventLog) {
    let mut probe = (Recount::new(net.node_count(), w.len()), EventLog::new());
    let tenants = Tenants::One(policy);
    let stats = net.simulate(w, tenants, engine, &mut probe).total;
    let (recount, log) = probe;
    (stats, recount, log)
}

/// Flits the probe's hot-link table counts, summed over every link.
fn link_total(np: &NetProbe) -> u64 {
    np.top_links(usize::MAX).iter().map(|l| l.count).sum()
}

/// A counting clock private to the calling thread: each call returns
/// the previous count and advances it by one.
fn thread_tick() -> u64 {
    thread_local!(static TICKS: Cell<u64> = const { Cell::new(0) });
    TICKS.with(|t| {
        let v = t.get();
        t.set(v + 1);
        v
    })
}

#[test]
fn probe_recount_matches_stats_on_both_engines() {
    let net = Network::new(5);
    let w = Workload::bernoulli_uniform(5, 30, 40, 0xA11CE);
    for engine in [Engine::Fast, Engine::Reference] {
        let (stats, rc, log) = recounted(&net, &w, &GreedyRouting, engine);
        let unprobed = net.run_with(&w, &GreedyRouting, engine);
        assert_eq!(stats, unprobed, "probe must not perturb {engine:?}");
        assert_well_bracketed(log.events());
        assert_eq!(rc.forwarded, stats.forwarded_flits);
        assert_eq!(rc.delivered, stats.delivered);
        assert_eq!(rc.dropped, stats.dropped());
        assert_eq!(rc.stranded, stats.stranded);
        assert_eq!(rc.wait_rounds, stats.total_wait_rounds);
        assert_eq!(rc.stall_rounds, stats.injection_stall_rounds);
        // Delivery rounds in the event stream are the packet records'.
        for (pid, rec) in stats.packets.iter().enumerate() {
            if let PacketOutcome::Delivered { round, .. } = rec.outcome {
                assert_eq!(rc.delivery_round[pid], Some(round), "pid {pid}");
            } else {
                assert_eq!(rc.delivery_round[pid], None, "pid {pid}");
            }
        }
    }
}

#[test]
fn event_streams_identical_across_engines_smoke() {
    // The exhaustive n ≤ 5 cross-product lives in differential.rs;
    // this pins the property on one contended run of each flavor.
    let configs = [
        NetConfig::default(),
        NetConfig {
            queue_capacity: Some(2),
            flow_control: FlowControl::CreditBased,
            ..NetConfig::default()
        },
        NetConfig {
            queue_capacity: Some(1),
            flow_control: FlowControl::EscapeChannel,
            ..NetConfig::default()
        },
    ];
    for config in configs {
        let net = Network::new(4).with_config(config);
        let w = Workload::bernoulli_uniform(4, 25, 100, 77);
        let mut fast = EventLog::new();
        let mut reference = EventLog::new();
        let tenants = Tenants::One(&AdaptiveRouting);
        let sf = net.simulate(&w, tenants, Engine::Fast, &mut fast).total;
        let RunStats { total: sr, .. } =
            net.simulate(&w, tenants, Engine::Reference, &mut reference);
        assert_eq!(sf, sr, "stats must agree under {config:?}");
        assert_eq!(
            fast.events().len(),
            reference.events().len(),
            "stream length under {config:?}"
        );
        assert_eq!(
            fast.events(),
            reference.events(),
            "streams must agree under {config:?}"
        );
    }
}

#[test]
fn escape_counters_cross_check_against_recount() {
    // The escape-crush configuration: a 1-slot credit pool under
    // saturating uniform traffic forces diversions; the probe recounts
    // every escape statistic from the raw events.
    let net = Network::new(4).with_config(NetConfig {
        queue_capacity: Some(1),
        flow_control: FlowControl::EscapeChannel,
        ..NetConfig::default()
    });
    let w = Workload::bernoulli_uniform(4, 40, 100, 1);
    let (stats, rc, log) = recounted(&net, &w, &GreedyRouting, Engine::Fast);
    assert!(
        stats.escape_diversions > 0,
        "the crush workload must exercise the channel"
    );
    assert_eq!(stats.stranded, 0, "escape mode must drain");
    assert_eq!(rc.diverted, stats.escape_diversions);
    assert_eq!(rc.escape_forwarded, stats.escape_forwarded_flits);
    assert_eq!(rc.peak_escape, stats.peak_escape_occupancy);
    assert_eq!(rc.forwarded, stats.forwarded_flits);
    // The dashboard's hot-link table accounts for every forward,
    // escape-channel forwards included.
    let mut np = NetProbe::new(net.node_count(), net.n() - 1);
    let tenants = Tenants::One(&GreedyRouting);
    let probed = net.simulate(&w, tenants, Engine::Fast, &mut np).total;
    assert_eq!(probed, stats);
    assert_eq!(link_total(&np), stats.forwarded_flits);
    // Escape traffic is visible in the log as typed events.
    assert!(log
        .events()
        .iter()
        .any(|e| matches!(e, Event::Diverted { .. })));
    assert!(log
        .events()
        .iter()
        .any(|e| matches!(e, Event::Forwarded { escape: true, .. })));
}

#[test]
fn credit_stalls_emit_typed_stall_events() {
    let net = Network::new(4).with_config(NetConfig {
        queue_capacity: Some(1),
        flow_control: FlowControl::CreditBased,
        ..NetConfig::default()
    });
    let w = Workload::bernoulli_uniform(4, 30, 100, 3);
    let (stats, rc, log) = recounted(&net, &w, &GreedyRouting, Engine::Fast);
    assert_eq!(rc.stall_rounds, stats.injection_stall_rounds);
    assert!(
        log.events().iter().any(|e| matches!(
            e,
            Event::Stalled {
                kind: StallKind::Injection,
                ..
            }
        )),
        "a 1-slot pool at rate 1.0 must stall injections"
    );
    if stats.stranded > 0 {
        assert_eq!(rc.stranded, stats.stranded);
        assert!(log.events().iter().any(|e| matches!(
            e,
            Event::Dropped {
                reason: DropReason::Stranded,
                ..
            }
        )));
    }
}

#[test]
fn rebased_shifts_packet_rounds_against_event_log() {
    let net = Network::new(4);
    let w = Workload::bernoulli_uniform(4, 10, 60, 9);
    let (stats, rc, _) = recounted(&net, &w, &GreedyRouting, Engine::Fast);
    assert_eq!(stats.rebased(0), stats, "offset 0 is the identity");
    let offset = 7u32;
    let shifted = stats.rebased(offset);
    assert_eq!(shifted.makespan, stats.makespan.saturating_sub(offset));
    assert_eq!(shifted.delivered, stats.delivered);
    assert_eq!(shifted.total_wait_rounds, stats.total_wait_rounds);
    assert_eq!(shifted.latency_histogram, stats.latency_histogram);
    for (pid, (orig, reb)) in stats.packets.iter().zip(&shifted.packets).enumerate() {
        assert_eq!(
            reb.inject_round,
            orig.inject_round.saturating_sub(offset),
            "pid {pid}"
        );
        if let PacketOutcome::Delivered { round, hops } = reb.outcome {
            // The event log holds the unshifted round: rebasing is a
            // pure re-clocking of what the probe saw.
            let ev_round = rc.delivery_round[pid].expect("delivered => event");
            assert_eq!(round, ev_round.saturating_sub(offset), "pid {pid}");
            let PacketOutcome::Delivered { hops: oh, .. } = orig.outcome else {
                panic!("outcome kind changed by rebased");
            };
            assert_eq!(hops, oh, "hops are round-free and must not move");
        }
    }
    // Rebasing past every event floors at zero.
    let floored = stats.rebased(u32::MAX);
    assert_eq!(floored.makespan, 0);
    assert!(floored
        .packets
        .iter()
        .all(|r| matches!(r.outcome, PacketOutcome::Delivered { round: 0, .. })));
}

#[test]
fn profiler_is_exact_under_the_tick_clock() {
    // One tick per phase sample makes the profile fully deterministic:
    // each phase accumulator equals the number of executed rounds.
    let net = Network::new(5).with_clock(thread_tick);
    let w = Workload::bernoulli_uniform(5, 20, 50, 0xBEEF);
    let (stats, profile) = net.run_profiled(&w, &GreedyRouting);
    assert_eq!(stats, net.run(&w, &GreedyRouting), "profiling is pure");
    assert!(profile.rounds > 0);
    assert_eq!(profile.arrivals_ticks, profile.rounds);
    assert_eq!(profile.injections_ticks, profile.rounds);
    assert_eq!(profile.arbitration_ticks, profile.rounds);
    assert_eq!(profile.accounting_ticks, profile.rounds);
    assert_eq!(profile.total_ticks(), 4 * profile.rounds);
    // The idle-skip makes executed rounds ≤ the makespan, and the
    // render names every phase.
    assert!(profile.rounds <= u64::from(stats.makespan) + 1);
    let text = profile.render();
    for phase in ["arrivals", "injections", "arbitration", "accounting"] {
        assert!(text.contains(phase), "{phase} missing from {text}");
    }
}

#[test]
fn bounded_event_log_drops_past_capacity_without_perturbing() {
    let net = Network::new(4);
    let w = Workload::bernoulli_uniform(4, 20, 80, 5);
    let mut full = EventLog::new();
    let total = {
        let tenants = Tenants::One(&GreedyRouting);
        let s = net.simulate(&w, tenants, Engine::Fast, &mut full).total;
        assert_eq!(s, net.run(&w, &GreedyRouting));
        full.events().len()
    };
    let cap = total / 2;
    let mut bounded = EventLog::with_capacity(cap);
    let tenants = Tenants::One(&GreedyRouting);
    let s = net.simulate(&w, tenants, Engine::Fast, &mut bounded).total;
    assert_eq!(s, net.run(&w, &GreedyRouting), "cap overflow is silent");
    assert_eq!(bounded.events().len(), cap);
    assert_eq!(bounded.dropped() as usize, total - cap);
    assert_eq!(bounded.events(), &full.events()[..cap]);
    // JSONL export: one object per recorded event.
    let jsonl = bounded.to_jsonl();
    assert_eq!(jsonl.lines().count(), cap);
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"ev\":\"") && line.ends_with('}'));
    }
}

#[test]
fn partitioned_probe_sees_tenant_traffic() {
    // Two synthetic tenants over one S_4: compose two workloads, run
    // partitioned with a NetProbe carrying the owner map, and check
    // the per-tenant in-flight peaks saw both tenants' flits — and
    // that probing perturbs neither the total nor the per-job stats.
    let net = Network::new(4);
    let a = Workload::random_permutation(4, 11);
    let b = Workload::transpose(4);
    let (w, owner) = Workload::compose("pair", 4, &[(&a, 0), (&b, 0)]);
    let policies: Vec<&dyn sg_net::RoutingPolicy> = vec![&GreedyRouting, &GreedyRouting];
    let tenants = Tenants::PerJob {
        policies: &policies,
        owner: &owner,
        escape: &[true; 2],
    };
    let s0 = net.simulate(&w, tenants, Engine::Fast, &mut NullProbe);
    let (t0, pj0) = (s0.total, s0.per_job);
    let mut np = NetProbe::new(net.node_count(), net.n() - 1).with_tenants(owner.clone(), 2);
    let s1 = net.simulate(&w, tenants, Engine::Fast, &mut np);
    let (t1, pj1) = (s1.total, s1.per_job);
    assert_eq!(t0, t1, "probed partitioned total must be identical");
    assert_eq!(pj0, pj1, "probed per-job stats must be identical");
    assert!(np.tenant_peak_in_flight(0) > 0);
    assert!(np.tenant_peak_in_flight(1) > 0);
    assert_eq!(link_total(&np), t0.forwarded_flits);
}

#[test]
fn peak_queued_line_covers_the_whole_run() {
    // A burst into PE 0 at round 0, then one packet per round for
    // 5 999 rounds: the dashboard must name the burst's round, not
    // the peak of the run's tail.
    let n = 4;
    let net = Network::new(n);
    let mut injections: Vec<Injection> = (1..24)
        .flat_map(|src| {
            [Injection {
                round: 0,
                src,
                dst: 0,
            }; 5]
        })
        .collect();
    injections.extend((1..6000).map(|round| Injection {
        round,
        src: 1,
        dst: 2,
    }));
    let w = Workload::from_injections("burst then trickle", n, injections);
    let mut probes = (
        Recount::new(net.node_count(), w.len()),
        NetProbe::new(net.node_count(), n - 1),
    );
    let tenants = Tenants::One(&GreedyRouting);
    let stats = net.simulate(&w, tenants, Engine::Fast, &mut probes).total;
    let (rc, np) = probes;
    assert_eq!(stats.delivered, stats.injected);
    assert!(rc.rounds_ended > 6000, "{} rounds", rc.rounds_ended);
    let (queued, round) = rc.peak_queued.expect("the run ends rounds");
    assert_eq!(round, 0, "the burst is the peak");
    let line = format!("peak queued flits {queued} in round {round}\n");
    let dashboard = np.render(3);
    assert!(dashboard.ends_with(&line), "want {line:?} in\n{dashboard}");
}
