//! Record and replay network runs through the `sg-trace` JSONL
//! format.
//!
//! [`record`] runs a workload through [`Network::simulate`] with an
//! [`EventLog`] attached and packages the result as a self-describing
//! [`Trace`]: header (schema version, engine, config fingerprint,
//! seed, job count, drop count), packet preamble (one line per packet,
//! with its owner in a multi-tenant run, written from the run's
//! [`PacketRecord`]s — what events alone cannot reconstruct), and the
//! verbatim event stream. The preamble holds each packet's realized
//! injection round, so a run with phase barriers replays with no
//! barrier logic at all.
//! [`replay`] inverts it: from a parsed trace alone it rebuilds the
//! [`RunStats`] — whole-run and per-tenant — **byte-identical** to what
//! the live run returned, so a round trip is one comparison. It feeds the
//! event stream through [`NetReplay`] into the same
//! [`sg_obs::RunTally`] the fast engine drives, then hands the
//! tallied counters and preamble-derived [`PacketRecord`]s to
//! [`TrafficStats::from_records`]. The round-trip suite asserts that
//! equality across the full `n ≤ 5` differential matrix.

use crate::network::{Engine, Network, Tenants, MAX_ORDER};
use crate::packet::PacketRecord;
use crate::stats::{RunStats, TrafficStats};
use crate::workload::Workload;
use sg_obs::{
    Event, EventLog, NetReplay, Trace, TraceError, TraceHeader, TracePacket, SCHEMA_VERSION,
};
use sg_perm::factorial::factorial;
use sg_perm::lehmer::{rank, unrank};

/// The header label for an [`Engine`].
#[must_use]
pub fn engine_label(engine: Engine) -> &'static str {
    match engine {
        Engine::Fast => "fast",
        Engine::Reference => "reference",
    }
}

/// An opaque-but-stable description of the network's knobs, written
/// into the trace header so two logs can be checked for "recorded
/// under the same configuration" before diffing.
#[must_use]
pub fn fingerprint(net: &Network) -> String {
    let c = net.config();
    let flow = match c.flow_control {
        crate::FlowControl::TailDrop => "tail_drop",
        crate::FlowControl::CreditBased => "credit",
        crate::FlowControl::EscapeChannel => "escape",
    };
    let cap = c
        .queue_capacity
        .map_or_else(|| "none".to_string(), |v| v.to_string());
    format!(
        "s{};latency={};cap={cap};flow={flow};max_rounds={};faults={}n+{}l",
        net.n(),
        c.link_latency,
        c.max_rounds,
        net.faults().dead_node_count(),
        net.faults().dead_link_count(),
    )
}

/// Package a finished [`EventLog`] (plus the packet records of the
/// run it watched, and the tenants it ran) as a [`Trace`]. This is the
/// primitive under [`record`]; use it directly when you need control
/// over the log (e.g. a capacity-bounded capture, whose drop count
/// lands in the header and makes [`replay`] refuse the file).
#[must_use]
pub fn assemble(
    net: &Network,
    records: &[PacketRecord],
    engine: Engine,
    seed: u64,
    tenants: Tenants<'_>,
    log: &EventLog,
) -> Trace {
    let (owner, jobs) = tenants.owner().unzip();
    let packets: Vec<TracePacket> = records
        .iter()
        .enumerate()
        .map(|(pid, rec)| TracePacket {
            pid: pid as u32,
            src: rec.src,
            dst: rec.dst,
            round: rec.inject_round,
            job: owner.map(|o| o[pid]),
        })
        .collect();
    Trace {
        header: TraceHeader {
            schema: SCHEMA_VERSION,
            engine: engine_label(engine).to_string(),
            n: net.n() as u32,
            seed,
            fingerprint: fingerprint(net),
            jobs: jobs.unwrap_or(0) as u32,
            packets: packets.len() as u64,
            events: log.events().len() as u64,
            dropped: log.dropped(),
        },
        packets,
        events: log.events().to_vec(),
    }
}

/// Run `workload` for `tenants` on the chosen engine with an unbounded
/// event log attached, and return the live statistics next to the
/// recorded trace. A [`Tenants::PerJob`] run writes its owner map into
/// the packet preamble. `seed` is stamped into the header (the
/// `Workload` does not remember what seeded it).
///
/// [`replay`] of the trace equals the returned [`RunStats`], except for
/// a [`Tenants::PerJob`] run on [`Engine::Reference`]: that engine
/// keeps no per-job statistics, while the replay attributes the logged
/// events per job.
///
/// # Panics
/// As [`Network::simulate`].
#[must_use]
pub fn record(
    net: &Network,
    workload: &Workload,
    tenants: Tenants<'_>,
    engine: Engine,
    seed: u64,
) -> (RunStats, Trace) {
    let mut log = EventLog::new();
    let stats = net.simulate(workload, tenants, engine, &mut log);
    let trace = assemble(net, &stats.total.packets, engine, seed, tenants, &log);
    (stats, trace)
}

/// Reconstruct a run's statistics from a parsed trace alone: the
/// whole-run statistics, and per-job statistics when the trace names
/// owners, each byte-identical to the live run's.
///
/// # Errors
/// Refuses truncated logs ([`TraceError::DroppedEvents`] when the
/// recorder's capacity bound dropped events) and headers, preambles
/// or streams that fail replay invariants
/// ([`TraceError::Inconsistent`]): an order outside
/// `2..=`[`MAX_ORDER`], a packet without an owner or with one the
/// header does not declare, a `forwarded` event whose `to` is not
/// `from`'s neighbour through its `gen`, and every check of
/// [`NetReplay`].
pub fn replay(trace: &Trace) -> Result<RunStats, TraceError> {
    let h = &trace.header;
    if h.dropped > 0 {
        return Err(TraceError::DroppedEvents { dropped: h.dropped });
    }
    let n = h.n as usize;
    if !(2..=MAX_ORDER).contains(&n) {
        return Err(TraceError::Inconsistent {
            msg: format!("header names S_{n}; the simulator runs 2 <= n <= {MAX_ORDER}"),
        });
    }
    let jobs = h.jobs as usize;
    let owner = if jobs > 0 {
        let owner: Result<Vec<u32>, u32> =
            trace.packets.iter().map(|p| p.job.ok_or(p.pid)).collect();
        Some(owner.map_err(|pid| TraceError::Inconsistent {
            msg: format!("header declares {jobs} job(s) but packet {pid} has no owner"),
        })?)
    } else {
        None
    };
    let mut run = NetReplay::new(
        factorial(n) as usize,
        n - 1,
        trace.packets.len(),
        owner.as_deref(),
        jobs,
    )?;
    for ev in &trace.events {
        run.observe(ev);
        if let Some(msg) = off_its_link(n, ev) {
            run.refuse(msg);
        }
    }
    let run = run.finish()?;
    let records: Vec<PacketRecord> = trace
        .packets
        .iter()
        .zip(run.outcomes)
        .map(|(p, outcome)| PacketRecord {
            src: p.src,
            dst: p.dst,
            inject_round: p.round,
            outcome,
        })
        .collect();
    let per_job = match &owner {
        Some(owner) => TrafficStats::split_by_owner(n, &records, owner, run.per_job),
        None => Vec::new(),
    };
    Ok(RunStats {
        total: TrafficStats::from_records(n, records, run.total),
        per_job,
    })
}

/// Why a `forwarded` event's `to` is not `from`'s neighbour through
/// its `gen` in `S_n`. `None` for every other event, and for one naming
/// a PE or generator out of range, which [`NetReplay`] refuses itself.
fn off_its_link(n: usize, ev: &Event) -> Option<String> {
    let Event::Forwarded {
        round,
        pid,
        from,
        to,
        gen,
        ..
    } = *ev
    else {
        return None;
    };
    let node = unrank(u64::from(from), n).ok()?;
    if !(1..n).contains(&usize::from(gen)) {
        return None;
    }
    let via = rank(&node.with_slots_swapped(0, usize::from(gen)));
    (via != u64::from(to)).then(|| {
        format!(
            "round {round}: packet {pid} forwarded from PE {from} to PE {to} through g{gen}, \
             which leads to PE {via}"
        )
    })
}

/// Parse and replay a JSONL trace in one step.
///
/// # Errors
/// As [`Trace::parse`] and [`replay`].
pub fn replay_jsonl(text: &str) -> Result<RunStats, TraceError> {
    replay(&Trace::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{GreedyRouting, RoutingPolicy};

    #[test]
    fn recorded_run_replays_byte_identical() {
        let net = Network::new(4);
        let w = Workload::random_permutation(4, 0xBEEF);
        let (live, trace) = record(&net, &w, Tenants::One(&GreedyRouting), Engine::Fast, 0xBEEF);
        let text = trace.to_jsonl();
        let back = replay_jsonl(&text).expect("replays");
        assert_eq!(
            back.total, live.total,
            "replayed stats must be byte-identical"
        );
        assert!(back.per_job.is_empty());
    }

    fn inconsistent(text: &str) {
        let got = replay_jsonl(text);
        assert!(
            matches!(got, Err(TraceError::Inconsistent { .. })),
            "{got:?}"
        );
    }

    fn partitioned_trace() -> Trace {
        let net = Network::new(4);
        let w = Workload::random_permutation(4, 5);
        let owner: Vec<u32> = (0..w.len() as u32).map(|pid| pid % 2).collect();
        let policies: [&dyn RoutingPolicy; 2] = [&GreedyRouting; 2];
        let tenants = Tenants::PerJob {
            policies: &policies,
            owner: &owner,
            escape: &[true; 2],
        };
        record(&net, &w, tenants, Engine::Fast, 5).1
    }

    #[test]
    fn owner_outside_the_declared_jobs_is_inconsistent() {
        let mut trace = partitioned_trace();
        trace.packets[3].job = Some(2);
        inconsistent(&trace.to_jsonl());
    }

    #[test]
    fn partitioned_event_past_the_preamble_is_inconsistent() {
        let mut trace = partitioned_trace();
        let ev = trace
            .events
            .iter_mut()
            .find(|ev| matches!(ev, Event::Queued { .. }))
            .expect("a queued event");
        if let Event::Queued { pid, .. } = ev {
            *pid = trace.header.packets as u32;
        }
        inconsistent(&trace.to_jsonl());
    }

    #[test]
    fn pe_past_the_node_count_is_inconsistent() {
        let net = Network::new(4);
        let w = Workload::random_permutation(4, 9);
        let (_, mut trace) = record(&net, &w, Tenants::One(&GreedyRouting), Engine::Fast, 9);
        let ev = trace
            .events
            .iter_mut()
            .find(|ev| matches!(ev, Event::Queued { .. }))
            .expect("a queued event");
        if let Event::Queued { pe, .. } = ev {
            *pe = 3_000_000_000;
        }
        inconsistent(&trace.to_jsonl());
    }

    /// Generators run `1..n`; a log naming 0 or one past `n - 1`
    /// must not reach a per-link table.
    #[test]
    fn generator_outside_1_to_n_is_inconsistent() {
        let net = Network::new(4);
        let w = Workload::random_permutation(4, 9);
        let (_, trace) = record(&net, &w, Tenants::One(&GreedyRouting), Engine::Fast, 9);
        for bad in [0, 4, 200] {
            let mut trace = trace.clone();
            let ev = trace
                .events
                .iter_mut()
                .find(|ev| matches!(ev, Event::Forwarded { .. }))
                .expect("a forwarded event");
            if let Event::Forwarded { gen, .. } = ev {
                *gen = bad;
            }
            inconsistent(&trace.to_jsonl());
        }
    }

    /// An in-range generator that does not lead from `from` to `to`
    /// would charge the flit to another PE's or another generator's
    /// link.
    #[test]
    fn forward_off_its_link_is_inconsistent() {
        let net = Network::new(4);
        let w = Workload::random_permutation(4, 9);
        let (_, trace) = record(&net, &w, Tenants::One(&GreedyRouting), Engine::Fast, 9);
        let k = trace
            .events
            .iter()
            .position(|ev| matches!(ev, Event::Forwarded { .. }))
            .expect("a forwarded event");
        let Event::Forwarded { pid, gen, to, .. } = trace.events[k] else {
            unreachable!()
        };
        let others = (1..4).filter(|&g| g != gen).map(|g| (g, to));
        for (bad_gen, bad_to) in others.chain([(gen, to ^ 1)]) {
            let mut trace = trace.clone();
            if let Event::Forwarded { gen, to, .. } = &mut trace.events[k] {
                (*gen, *to) = (bad_gen, bad_to);
            }
            match replay_jsonl(&trace.to_jsonl()) {
                Err(TraceError::Inconsistent { msg }) => {
                    assert!(msg.contains(&format!("packet {pid} forwarded")), "{msg}");
                }
                other => panic!("g{bad_gen} to PE {bad_to}: {other:?}"),
            }
        }
    }

    #[test]
    fn capped_log_is_refused_with_drop_count() {
        let net = Network::new(4);
        let w = Workload::random_permutation(4, 7);
        let mut log = EventLog::with_capacity(10);
        let tenants = Tenants::One(&GreedyRouting);
        let stats = net.simulate(&w, tenants, Engine::Fast, &mut log).total;
        assert!(log.dropped() > 0, "cap must actually truncate");
        let trace = assemble(&net, &stats.packets, Engine::Fast, 7, tenants, &log);
        assert_eq!(trace.header.dropped, log.dropped());
        let parsed = Trace::parse(&trace.to_jsonl()).expect("parses fine — replay refuses");
        assert_eq!(
            replay(&parsed),
            Err(TraceError::DroppedEvents {
                dropped: log.dropped()
            })
        );
    }
}
