//! The escape channel's rules on a run small enough to follow by hand.
//!
//! Both engines run one copy of the escape bank's rules (diversion,
//! landing, lowest-class-first forwarding), so the differential suite
//! cannot see a change to them. This fixture pins them instead: the
//! full event stream and the escape counters of a four-packet `S_3`
//! run, derived round by round in the comments below.
//!
//! `S_3` is a six-cycle. With PEs named by Lehmer rank and generator
//! `g` swapping slots 0 and `g`:
//!
//! ```text
//! 0 -g1- 2 -g2- 4 -g1- 1 -g2- 3 -g1- 5 -g2- 0
//! ```
//!
//! One-slot queues give each PE a pool of two credits. Greedy routes:
//! p0 `3 → 2` is g1 g2 g1 (via 5 and 0), p1 `1 → 5` is g2 g1 (via 3),
//! p2 `3 → 0` is g1 g2 (via 5), p3 `5 → 3` is g1. A diverted packet
//! takes the embedding route, graded by its length: `1 → 5` is g2 g1
//! (class 2) and `3 → 0` is g1 g2 g1 g1 (class 4), which passes `0`
//! after two hops and is delivered there.

use sg_net::{
    EmbeddingRouting, Engine, FlowControl, GreedyRouting, Injection, NetConfig, Network,
    RoutingPolicy, Tenants, Workload,
};
use sg_obs::{Event, EventLog, StallKind};
use sg_perm::lehmer::unrank;

fn begin(round: u32) -> Event {
    Event::RoundBegin { round }
}

fn end(round: u32, queued: u64, in_flight: u64) -> Event {
    Event::RoundEnd {
        round,
        queued,
        in_flight,
        stalled: 0,
    }
}

fn queued(round: u32, pid: u32, pe: u32, gen: u8, depth: u32, escape: bool) -> Event {
    Event::Queued {
        round,
        pid,
        pe,
        gen,
        depth,
        escape,
    }
}

fn stalled(round: u32, pid: u32, pe: u32) -> Event {
    Event::Stalled {
        round,
        pid,
        pe,
        kind: StallKind::CreditHead,
    }
}

fn forwarded(round: u32, pid: u32, from: u32, to: u32, gen: u8, escape: bool) -> Event {
    Event::Forwarded {
        round,
        pid,
        from,
        to,
        gen,
        escape,
    }
}

fn diverted(round: u32, pid: u32, pe: u32, class: u32) -> Event {
    Event::Diverted {
        round,
        pid,
        pe,
        class,
    }
}

fn delivered(round: u32, pid: u32, pe: u32, hops: u32) -> Event {
    Event::Delivered {
        round,
        pid,
        pe,
        hops,
    }
}

#[test]
fn escape_rules_by_hand_on_s3() {
    let embedding =
        |a: u64, b: u64| EmbeddingRouting.route(&unrank(a, 3).unwrap(), &unrank(b, 3).unwrap());
    assert_eq!(embedding(1, 5), [2, 1]);
    assert_eq!(embedding(3, 0), [1, 2, 1, 1]);

    let inj = |round, src, dst| Injection { round, src, dst };
    let w = Workload::from_injections(
        "escape-fixture",
        3,
        vec![inj(0, 3, 2), inj(0, 1, 5), inj(0, 3, 0), inj(1, 5, 3)],
    );
    let net = Network::new(3).with_config(NetConfig {
        queue_capacity: Some(1),
        flow_control: FlowControl::EscapeChannel,
        ..NetConfig::default()
    });
    let want = [
        // Round 0. p0, p1, p2 inject; p2 takes PE 3's second credit.
        // Links are scanned by index u·2 + (g−1): PE 1's g2 link comes
        // first, and its head p1 finds PE 3 out of credits, so it
        // stalls and stages a diversion. p0 leaves PE 3 for PE 5. After
        // the scan p1 diverts onto its class-2 slot at PE 1.
        begin(0),
        queued(0, 0, 3, 1, 1, false),
        queued(0, 1, 1, 2, 1, false),
        queued(0, 2, 3, 1, 2, false),
        stalled(0, 1, 1),
        forwarded(0, 0, 3, 5, 1, false),
        diverted(0, 1, 1, 2),
        end(0, 2, 1),
        // Round 1. p0 lands at PE 5, then p3 injects there, filling
        // its pool. Escape residents have priority on their link: p1
        // leaves PE 1, reserving the class-1 slot at PE 3. p2, now
        // PE 3's g1 head, finds PE 5 full and stages a diversion. p3's
        // final hop needs no credit, and p0 takes one at PE 0. p2 then
        // diverts onto the class-4 slot at PE 3.
        begin(1),
        queued(1, 0, 5, 2, 1, false),
        queued(1, 3, 5, 1, 1, false),
        forwarded(1, 1, 1, 3, 2, true),
        stalled(1, 2, 3),
        forwarded(1, 3, 5, 3, 1, false),
        forwarded(1, 0, 5, 0, 2, false),
        diverted(1, 2, 3, 4),
        end(1, 1, 3),
        // Round 2. p1 lands in its reserved class-1 slot at PE 3, next
        // to p2 in class 4: two residents, both bound for PE 3's g1
        // link. p3 is delivered, p0 queues at PE 0 and makes its final
        // hop. On PE 3's g1 link the lowest class goes first: p1, whose
        // final hop needs no slot. p2 waits.
        begin(2),
        queued(2, 1, 3, 1, 2, true),
        delivered(2, 3, 3, 1),
        queued(2, 0, 0, 1, 1, false),
        forwarded(2, 0, 0, 2, 1, false),
        forwarded(2, 1, 3, 5, 1, true),
        end(2, 1, 2),
        // Round 3. p0 and p1 are delivered; p2 leaves PE 3, reserving
        // the class-3 slot at PE 5.
        begin(3),
        delivered(3, 0, 2, 3),
        delivered(3, 1, 5, 2),
        forwarded(3, 2, 3, 5, 1, true),
        end(3, 0, 1),
        // Round 4. p2 lands in class 3 at PE 5; its next hop reaches
        // its destination mid-route, so it needs no slot.
        begin(4),
        queued(4, 2, 5, 2, 1, true),
        forwarded(4, 2, 5, 0, 2, true),
        end(4, 0, 1),
        // Round 5. p2 is delivered after two of its four route hops.
        begin(5),
        delivered(5, 2, 0, 2),
        end(5, 0, 0),
    ];
    for engine in [Engine::Fast, Engine::Reference] {
        let mut log = EventLog::new();
        let tenants = Tenants::One(&GreedyRouting);
        let stats = net.simulate(&w, tenants, engine, &mut log).total;
        assert_eq!(log.events(), want, "{engine:?}");
        assert_eq!(stats.delivered, 4, "{engine:?}");
        assert_eq!(stats.makespan, 5, "{engine:?}");
        assert_eq!(stats.escape_diversions, 2, "{engine:?}");
        // p1's two hops and p2's two.
        assert_eq!(stats.escape_forwarded_flits, 4, "{engine:?}");
        // p1 and p2 at PE 3 in round 2.
        assert_eq!(stats.peak_escape_occupancy, 2, "{engine:?}");
        assert_eq!(stats.forwarded_flits, 8, "{engine:?}");
        // Queued after arbitration: p1 and p2 (round 0), p2 (rounds 1
        // and 2).
        assert_eq!(stats.total_wait_rounds, 4, "{engine:?}");
    }
}
