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
//! event stream to the run tally the fast engine drives, which then
//! builds the statistics from the tallied counters and the
//! preamble-derived [`PacketRecord`]s. The round-trip suite asserts that
//! equality across the full `n ≤ 5` differential matrix.

use crate::network::{Engine, Network, Tenants, MAX_ORDER};
use crate::packet::{PacketOutcome, PacketRecord};
use crate::stats::RunStats;
use crate::tally::{RunTally, Sink};
use crate::workload::Workload;
use sg_obs::{
    DropReason, Event, EventLog, StallKind, Trace, TraceError, TraceHeader, TracePacket,
    SCHEMA_VERSION,
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
        blank_lines: Vec::new(),
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
/// owners, each byte-identical to the live run's. The replay is
/// strict: a truncated or hand-damaged log fails loudly instead of
/// producing quietly wrong statistics, and never panics.
///
/// # Errors
/// [`TraceError::DroppedEvents`] when the recorder's capacity bound
/// dropped events, and [`TraceError::Inconsistent`] for a header,
/// preamble or stream that breaks a replay invariant: an order outside
/// `2..=`[`MAX_ORDER`]; a packet without an owner, or with one the
/// header does not declare; an event naming a PE at or past `n!`, a
/// generator outside `1..n` or a packet past the preamble; a forward
/// whose `to` is not `from`'s neighbour through its `gen`; a net event
/// outside any round bracket or inside another round's; a
/// `round_begin` that does not come after the previous bracket; a
/// `round_end` that does not close its round or disagrees with the
/// replayed census; a flit leaving an empty PE, or more flits than its
/// job queued; a packet resolved twice, never, or before its injection
/// round; a stream that ends inside a round. A refused event's error
/// names the line it was read from ([`Trace::event_line`]). Scheduler
/// events (`job_*`) may stand anywhere.
pub fn replay(trace: &Trace) -> Result<RunStats, TraceError> {
    let h = &trace.header;
    if h.dropped > 0 {
        return Err(TraceError::DroppedEvents { dropped: h.dropped });
    }
    let n = h.n as usize;
    if !(2..=MAX_ORDER).contains(&n) {
        return Err(inconsistent(format!(
            "header names S_{n}; the simulator runs 2 <= n <= {MAX_ORDER}"
        )));
    }
    let jobs = h.jobs as usize;
    let owner_of = |p: &TracePacket| match p.job {
        Some(j) if (j as usize) < jobs => Ok(j),
        Some(j) => Err(format!(
            "packet {} names job {j}, but the header declares {jobs} job(s)",
            p.pid
        )),
        None => Err(format!(
            "header declares {jobs} job(s) but packet {} has no owner",
            p.pid
        )),
    };
    let owner: Option<Vec<u32>> = (jobs > 0)
        .then(|| trace.packets.iter().map(owner_of).collect())
        .transpose()
        .map_err(inconsistent)?;
    let mut run = Replayer::new(n, &trace.packets, owner.as_deref().map(|o| (o, jobs)));
    for (k, ev) in trace.events.iter().enumerate() {
        let refused = |msg| TraceError::Inconsistent {
            line: Some(trace.event_line(k)),
            msg,
        };
        run.apply(ev).map_err(refused)?;
        if let Some(msg) = off_its_link(n, ev) {
            return Err(refused(msg));
        }
    }
    run.finish()
}

/// Why a `forwarded` event's `to` is not `from`'s neighbour through
/// its `gen` in `S_n`. `None` for every other event. Runs after
/// [`Replayer::apply`], which has checked that `from` and `gen` are in
/// range.
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
    let via = rank(&node.with_slots_swapped(0, usize::from(gen)));
    (via != u64::from(to)).then(|| {
        format!(
            "round {round}: packet {pid} forwarded from PE {from} to PE {to} through g{gen}, \
             which leads to PE {via}"
        )
    })
}

/// A refusal no one event is at fault for.
fn inconsistent(msg: String) -> TraceError {
    TraceError::Inconsistent { line: None, msg }
}

/// Feeds a trace's events, one at a time, to the [`RunTally`] the fast
/// engine drives while running. What the engine holds and a log does
/// not, the replayer rebuilds: a per-PE census of adaptive and escape
/// residents (the PE totals the peak rule observes), sized once from
/// the star order, and the round's injection-stall count.
///
/// One accounting subtlety lives here rather than in the tally: the
/// strand round. Both kinds of strand close their round with a
/// `round_end`, but only a **deadlock strand** ran the round's phases
/// and charged its wait: the round holds the stall events that made it
/// a deadlock. A **round-cap strand** breaks at the top of the round,
/// so its round holds nothing but strand drops and charges nothing.
struct Replayer<'t> {
    n: usize,
    /// The preamble: one record per packet, in packet-id order.
    packets: &'t [TracePacket],
    tally: RunTally<'t>,
    /// `None` until the packet's resolution event.
    outcomes: Vec<Option<PacketOutcome>>,
    /// Per-PE adaptive-queue occupants.
    node_occ: Vec<u64>,
    /// Per-PE escape-bank occupants.
    esc_node: Vec<u64>,
    /// Flits in queues or escape banks.
    queued: u64,
    /// Injection stalls observed in the open round.
    stalls: u64,
    /// Any stall event (either kind) seen in the open round — the
    /// deadlock-strand signature.
    stall_any: bool,
    /// Strand drops seen in the open round.
    stranded: bool,
    /// The round whose bracket is open.
    open: Option<u32>,
    /// The round of the last bracket closed; the next one must come
    /// after it.
    closed: Option<u32>,
}

impl<'t> Replayer<'t> {
    /// A replayer for the run of `packets` on `S_n`, `2 <= n <=`
    /// [`MAX_ORDER`]. `owner` (one job id per packet, each below the
    /// job count it is paired with) switches on per-job attribution,
    /// exactly like a [`Tenants::PerJob`] run.
    fn new(n: usize, packets: &'t [TracePacket], owner: Option<(&'t [u32], usize)>) -> Self {
        let nodes = factorial(n) as usize;
        Replayer {
            n,
            packets,
            tally: RunTally::new(owner),
            outcomes: vec![None; packets.len()],
            node_occ: vec![0; nodes],
            esc_node: vec![0; nodes],
            queued: 0,
            stalls: 0,
            stall_any: false,
            stranded: false,
            open: None,
            closed: None,
        }
    }

    fn packet(&self, pid: u32) -> Result<(), String> {
        if (pid as usize) < self.outcomes.len() {
            Ok(())
        } else {
            Err(format!(
                "event names packet {pid}, but the preamble declares only {}",
                self.outcomes.len()
            ))
        }
    }

    fn pe(&self, pe: u32) -> Result<usize, String> {
        if (pe as usize) < self.node_occ.len() {
            Ok(pe as usize)
        } else {
            Err(format!(
                "event names PE {pe}, but the network has only {}",
                self.node_occ.len()
            ))
        }
    }

    fn gen(&self, gen: u8) -> Result<(), String> {
        if (1..self.n).contains(&usize::from(gen)) {
            Ok(())
        } else {
            Err(format!(
                "event names generator {gen}, but the network has generators 1..={}",
                self.n - 1
            ))
        }
    }

    /// Checks that a net event of `round` falls inside that round's
    /// bracket, as the engines emit every one.
    fn in_bracket(&self, round: u32) -> Result<(), String> {
        match self.open {
            Some(open) if open == round => Ok(()),
            Some(open) => Err(format!("an event of round {round} inside round {open}")),
            None => Err(format!("an event of round {round} outside any round")),
        }
    }

    /// Feeds the next event of the stream, or says why it cannot come
    /// next.
    fn apply(&mut self, ev: &Event) -> Result<(), String> {
        match *ev {
            Event::RoundBegin { round } => {
                if self.open.is_some() {
                    return Err(format!("round {round} begins inside an open round"));
                }
                if let Some(last) = self.closed.filter(|&last| round <= last) {
                    return Err(format!("round {round} begins after round {last} ended"));
                }
                self.open = Some(round);
                self.stalls = 0;
                self.stall_any = false;
                self.stranded = false;
            }
            Event::RoundEnd {
                round,
                queued,
                stalled,
                ..
            } => {
                if self.open.take() != Some(round) {
                    return Err(format!(
                        "round_end for round {round} without matching round_begin"
                    ));
                }
                self.closed = Some(round);
                if queued != self.queued {
                    return Err(format!(
                        "round {round}: round_end reports {queued} queued, replay counts {}",
                        self.queued
                    ));
                }
                // A round-cap strand broke before the round's phases
                // ran: nothing stalled in it and nothing is charged.
                if self.stranded && !self.stall_any {
                    return Ok(());
                }
                if stalled != self.stalls {
                    return Err(format!(
                        "round {round}: round_end reports {stalled} stalled, replay counted {} \
                         injection stalls",
                        self.stalls
                    ));
                }
                self.tally.end_round(queued, stalled);
            }
            Event::Queued {
                round,
                pid,
                pe,
                gen,
                depth,
                escape,
            } => {
                self.in_bracket(round)?;
                self.packet(pid)?;
                let pe = self.pe(pe)?;
                self.gen(gen)?;
                if escape {
                    self.esc_node[pe] += 1;
                } else {
                    self.node_occ[pe] += 1;
                }
                self.queued += 1;
                let at_pe = self.node_occ[pe] + self.esc_node[pe];
                self.tally.queued(pid, escape, u64::from(depth), at_pe);
            }
            Event::Forwarded {
                round,
                pid,
                from,
                to,
                gen,
                escape,
            } => {
                self.in_bracket(round)?;
                self.packet(pid)?;
                let from = self.pe(from)?;
                self.pe(to)?;
                self.gen(gen)?;
                let bank = if escape {
                    &mut self.esc_node
                } else {
                    &mut self.node_occ
                };
                if bank[from] == 0 {
                    return Err(format!("packet {pid} forwarded off an empty PE {from}"));
                }
                bank[from] -= 1;
                self.queued -= 1;
                if !self.tally.forwarded(pid, escape) {
                    return Err(format!(
                        "packet {pid}'s job forwarded more flits than it queued"
                    ));
                }
            }
            Event::Diverted { round, pid, pe, .. } => {
                self.in_bracket(round)?;
                self.packet(pid)?;
                let pe = self.pe(pe)?;
                if self.node_occ[pe] == 0 {
                    return Err(format!("packet {pid} diverted off an empty PE {pe}"));
                }
                self.node_occ[pe] -= 1;
                self.esc_node[pe] += 1;
                self.tally.diverted(pid, self.esc_node[pe]);
            }
            Event::Stalled {
                round,
                pid,
                pe,
                kind,
            } => {
                self.in_bracket(round)?;
                self.packet(pid)?;
                self.pe(pe)?;
                self.stall_any = true;
                if kind == StallKind::Injection {
                    self.stalls += 1;
                    self.tally.stalled(pid);
                }
            }
            Event::Delivered {
                round,
                pid,
                pe,
                hops,
            } => {
                self.in_bracket(round)?;
                self.pe(pe)?;
                self.resolve(pid, PacketOutcome::Delivered { round, hops })?;
            }
            Event::Dropped {
                round,
                pid,
                pe,
                reason,
            } => {
                self.in_bracket(round)?;
                self.pe(pe)?;
                let outcome = match reason {
                    DropReason::Fault => PacketOutcome::DroppedFault { round },
                    DropReason::Unreachable => PacketOutcome::DroppedUnreachable { round },
                    DropReason::Overflow => PacketOutcome::DroppedOverflow { round },
                    DropReason::Stranded => {
                        self.stranded = true;
                        PacketOutcome::Stranded
                    }
                };
                self.resolve(pid, outcome)?;
            }
            // Scheduler events may share a log with net events but
            // carry no network accounting.
            Event::JobArrived { .. }
            | Event::JobPlaced { .. }
            | Event::JobReleased { .. }
            | Event::JobReserved { .. }
            | Event::JobBackfilled { .. } => {}
        }
        Ok(())
    }

    fn resolve(&mut self, pid: u32, outcome: PacketOutcome) -> Result<(), String> {
        self.packet(pid)?;
        let slot = &mut self.outcomes[pid as usize];
        if slot.is_some() {
            return Err(format!("packet {pid} resolved twice"));
        }
        *slot = Some(outcome);
        if let Some(round) = outcome.resolution_round() {
            self.tally.resolved(pid, round);
        }
        Ok(())
    }

    /// Closes the stream: the replayed run's statistics.
    fn finish(self) -> Result<RunStats, TraceError> {
        if let Some(round) = self.open {
            return Err(inconsistent(format!("stream ends inside round {round}")));
        }
        let records: Result<Vec<PacketRecord>, String> = self
            .packets
            .iter()
            .zip(&self.outcomes)
            .enumerate()
            .map(|(pid, (p, outcome))| {
                let outcome = outcome.ok_or_else(|| {
                    format!("packet {pid} never resolved — is the log truncated?")
                })?;
                match outcome.resolution_round() {
                    Some(round) if round < p.round => Err(format!(
                        "packet {pid} resolves in round {round}, before its injection round {}",
                        p.round
                    )),
                    _ => Ok(PacketRecord {
                        src: p.src,
                        dst: p.dst,
                        inject_round: p.round,
                        outcome,
                    }),
                }
            })
            .collect();
        Ok(self.tally.finish(self.n, records.map_err(inconsistent)?))
    }
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
                Err(TraceError::Inconsistent { line, msg }) => {
                    assert!(msg.contains(&format!("packet {pid} forwarded")), "{msg}");
                    assert_eq!(line, Some(trace.packets.len() + k + 2), "{msg}");
                }
                other => panic!("g{bad_gen} to PE {bad_to}: {other:?}"),
            }
        }
    }

    /// A preamble round past the packet's resolution would make its
    /// latency negative: refused, naming the packet and both rounds.
    #[test]
    fn resolution_before_injection_is_inconsistent() {
        let net = Network::new(4);
        let w = Workload::random_permutation(4, 3);
        let (_, mut trace) = record(&net, &w, Tenants::One(&GreedyRouting), Engine::Fast, 3);
        let late = u32::MAX - 999;
        trace.packets[0].round = late;
        let resolved = trace
            .events
            .iter()
            .find_map(|ev| match *ev {
                Event::Delivered { round, pid: 0, .. } => Some(round),
                _ => None,
            })
            .expect("packet 0 is delivered");
        match replay_jsonl(&trace.to_jsonl()) {
            Err(TraceError::Inconsistent { line: None, msg }) => assert_eq!(
                msg,
                format!("packet 0 resolves in round {resolved}, before its injection round {late}")
            ),
            other => panic!("{other:?}"),
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

    /// The replayer on hand-written `S_3` streams.
    mod streams {
        use super::super::*;
        use crate::stats::RunCounters;

        /// What the assertions read back from a replayed run.
        #[derive(Debug)]
        struct Replayed {
            total: RunCounters,
            per_job: Vec<RunCounters>,
            outcomes: Vec<PacketOutcome>,
        }

        /// Replays `evs` on `S_3` (6 PEs, generators 1 and 2) for
        /// `packets` packets injected in round 0.
        fn run(
            owner: Option<&[u32]>,
            jobs: usize,
            packets: usize,
            evs: &[Event],
        ) -> Result<Replayed, TraceError> {
            let preamble: Vec<TracePacket> = (0..packets as u32)
                .map(|pid| TracePacket {
                    pid,
                    src: 0,
                    dst: 0,
                    round: 0,
                    job: owner.map(|o| o[pid as usize]),
                })
                .collect();
            let mut r = Replayer::new(3, &preamble, owner.map(|o| (o, jobs)));
            for ev in evs {
                r.apply(ev).map_err(inconsistent)?;
            }
            let stats = r.finish()?;
            Ok(Replayed {
                total: RunCounters::of(&stats.total),
                per_job: stats.per_job.iter().map(RunCounters::of).collect(),
                outcomes: stats.total.packets.iter().map(|p| p.outcome).collect(),
            })
        }

        fn begin(round: u32) -> Event {
            Event::RoundBegin { round }
        }

        fn end(round: u32, queued: u64, in_flight: u64, stalled: u64) -> Event {
            Event::RoundEnd {
                round,
                queued,
                in_flight,
                stalled,
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

        fn stalled(round: u32, pid: u32, pe: u32, kind: StallKind) -> Event {
            Event::Stalled {
                round,
                pid,
                pe,
                kind,
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

        fn stranded(round: u32, pid: u32, pe: u32) -> Event {
            Event::Dropped {
                round,
                pid,
                pe,
                reason: DropReason::Stranded,
            }
        }

        /// One packet queued at round 0, forwarded at round 1, delivered
        /// at round 2 — the smallest stream with a wait charge. As one
        /// owner's only packet, its share equals the total.
        #[test]
        fn tiny_stream_reconstructs_counters() {
            let evs = [
                begin(0),
                queued(0, 0, 3, 1, 1, false),
                end(0, 1, 0, 0),
                begin(1),
                forwarded(1, 0, 3, 5, 1, false),
                end(1, 0, 1, 0),
                begin(2),
                delivered(2, 0, 5, 1),
                end(2, 0, 0, 0),
            ];
            let expect = RunCounters {
                last_event: 2,
                total_wait_rounds: 1,
                injection_stall_rounds: 0,
                peak_edge: 1,
                peak_node: 1,
                forwarded: 1,
                escape_diversions: 0,
                escape_forwarded: 0,
                peak_escape: 0,
            };
            let whole = run(None, 0, 1, &evs).expect("consistent");
            assert_eq!(whole.total, expect);
            assert!(whole.per_job.is_empty());
            assert_eq!(
                whole.outcomes,
                vec![PacketOutcome::Delivered { round: 2, hops: 1 }]
            );
            let split = run(Some(&[0]), 1, 1, &evs).expect("consistent");
            assert_eq!(split.total, expect);
            assert_eq!(split.per_job, vec![expect]);
        }

        /// Two packets of two jobs serialize on one link: job 1's flit
        /// joins job 0's queue at depth 2 and leaves a round later.
        #[test]
        fn per_job_attribution_follows_owners() {
            let evs = [
                begin(0),
                queued(0, 0, 0, 1, 1, false),
                queued(0, 1, 0, 1, 2, false),
                end(0, 2, 0, 0),
                begin(1),
                forwarded(1, 0, 0, 1, 1, false),
                end(1, 1, 1, 0),
                begin(2),
                forwarded(2, 1, 0, 1, 1, false),
                delivered(2, 0, 1, 1),
                end(2, 0, 1, 0),
                begin(3),
                delivered(3, 1, 1, 1),
                end(3, 0, 0, 0),
            ];
            let r = run(Some(&[0, 1]), 2, 2, &evs).expect("consistent");
            // Job 0 waited 1 round (round 0); job 1 waited 2 (rounds 0–1).
            // Peaks are observed at each job's own enqueue: job 1 joined
            // the shared queue (and PE) at depth 2, job 0 at depth 1.
            let job0 = RunCounters {
                last_event: 2,
                total_wait_rounds: 1,
                peak_edge: 1,
                peak_node: 1,
                forwarded: 1,
                ..RunCounters::default()
            };
            let job1 = RunCounters {
                last_event: 3,
                total_wait_rounds: 2,
                peak_edge: 2,
                peak_node: 2,
                forwarded: 1,
                ..RunCounters::default()
            };
            assert_eq!(r.per_job, vec![job0, job1]);
            assert_eq!(
                r.total,
                RunCounters {
                    last_event: 3,
                    total_wait_rounds: 3,
                    peak_edge: 2,
                    peak_node: 2,
                    forwarded: 2,
                    ..RunCounters::default()
                }
            );
        }

        /// Job 1's packet is forwarded off a PE that holds only job 0's
        /// flit. The PE census has a flit to release, so only the
        /// per-job count can refuse the stream.
        #[test]
        fn job_forwarding_more_than_it_queued_is_inconsistent() {
            let evs = [
                begin(0),
                queued(0, 0, 0, 1, 1, false),
                end(0, 1, 0, 0),
                begin(1),
                forwarded(1, 1, 0, 2, 1, false),
            ];
            match run(Some(&[0, 1]), 2, 2, &evs) {
                Err(TraceError::Inconsistent { msg, .. }) => {
                    assert_eq!(msg, "packet 1's job forwarded more flits than it queued")
                }
                other => panic!("{other:?}"),
            }
        }

        /// A starved adaptive head (job 0) diverts into its PE's escape
        /// bank and finishes on the escape channel. Job 1's flit waits on
        /// the PE's other link without diverting, so its peak PE total (2)
        /// exceeds its peak queue depth (1).
        #[test]
        fn escape_diversion_moves_a_buffered_flit_into_the_bank() {
            let evs = [
                begin(0),
                queued(0, 0, 0, 1, 1, false),
                queued(0, 1, 0, 2, 1, false),
                end(0, 2, 0, 0),
                begin(1),
                stalled(1, 0, 0, StallKind::CreditHead),
                stalled(1, 1, 0, StallKind::CreditHead),
                Event::Diverted {
                    round: 1,
                    pid: 0,
                    pe: 0,
                    class: 2,
                },
                end(1, 2, 0, 0),
                begin(2),
                forwarded(2, 0, 0, 1, 1, true),
                forwarded(2, 1, 0, 2, 2, false),
                end(2, 0, 2, 0),
                begin(3),
                queued(3, 0, 1, 2, 1, true),
                delivered(3, 1, 2, 1),
                end(3, 1, 0, 0),
                begin(4),
                forwarded(4, 0, 1, 4, 2, true),
                end(4, 0, 1, 0),
                begin(5),
                delivered(5, 0, 4, 2),
                end(5, 0, 0, 0),
            ];
            let r = run(Some(&[0, 1]), 2, 2, &evs).expect("consistent");
            // Job 0 waits in rounds 0, 1 (diverted, still buffered) and 3.
            let job0 = RunCounters {
                last_event: 5,
                total_wait_rounds: 3,
                injection_stall_rounds: 0,
                peak_edge: 1,
                peak_node: 1,
                forwarded: 2,
                escape_diversions: 1,
                escape_forwarded: 2,
                peak_escape: 1,
            };
            let job1 = RunCounters {
                last_event: 3,
                total_wait_rounds: 2,
                peak_edge: 1,
                peak_node: 2,
                forwarded: 1,
                ..RunCounters::default()
            };
            assert_eq!(r.per_job, vec![job0, job1]);
            assert_eq!(
                r.total,
                RunCounters {
                    last_event: 5,
                    total_wait_rounds: 5,
                    injection_stall_rounds: 0,
                    peak_edge: 1,
                    peak_node: 2,
                    forwarded: 3,
                    escape_diversions: 1,
                    escape_forwarded: 2,
                    peak_escape: 1,
                }
            );
        }

        /// Credit mode: job 1's packet finds its source PE full and
        /// stalls before injection in rounds 0 and 1 — one stall charge
        /// per round — then enters once job 0's flit has left.
        #[test]
        fn injection_stall_charges_every_stalled_round() {
            let evs = [
                begin(0),
                queued(0, 0, 0, 1, 1, false),
                stalled(0, 1, 0, StallKind::Injection),
                end(0, 1, 0, 1),
                begin(1),
                stalled(1, 1, 0, StallKind::Injection),
                forwarded(1, 0, 0, 1, 1, false),
                end(1, 0, 1, 1),
                begin(2),
                delivered(2, 0, 1, 1),
                queued(2, 1, 0, 1, 1, false),
                end(2, 1, 0, 0),
                begin(3),
                forwarded(3, 1, 0, 1, 1, false),
                end(3, 0, 1, 0),
                begin(4),
                delivered(4, 1, 1, 1),
                end(4, 0, 0, 0),
            ];
            let r = run(Some(&[0, 1]), 2, 2, &evs).expect("consistent");
            let one_hop = RunCounters {
                total_wait_rounds: 1,
                peak_edge: 1,
                peak_node: 1,
                forwarded: 1,
                ..RunCounters::default()
            };
            let job0 = RunCounters {
                last_event: 2,
                ..one_hop
            };
            let job1 = RunCounters {
                last_event: 4,
                injection_stall_rounds: 2,
                ..one_hop
            };
            assert_eq!(r.per_job, vec![job0, job1]);
            assert_eq!(
                r.total,
                RunCounters {
                    last_event: 4,
                    total_wait_rounds: 2,
                    injection_stall_rounds: 2,
                    peak_edge: 1,
                    peak_node: 1,
                    forwarded: 2,
                    ..RunCounters::default()
                }
            );
        }

        /// The tiny stream with its delivery given `round` and inserted
        /// at index `at` of the stream.
        fn tiny_stream_with_delivery(round: u32, at: usize) -> Vec<Event> {
            let mut evs = vec![
                begin(0),
                queued(0, 0, 3, 1, 1, false),
                end(0, 1, 0, 0),
                begin(1),
                forwarded(1, 0, 3, 5, 1, false),
                end(1, 0, 1, 0),
                begin(2),
                end(2, 0, 0, 0),
            ];
            evs.insert(at, delivered(round, 0, 5, 1));
            evs
        }

        fn refused(r: Result<Replayed, TraceError>, msg: &str) {
            match r {
                Err(TraceError::Inconsistent { msg: got, .. }) => assert_eq!(got, msg),
                other => panic!("{other:?}"),
            }
        }

        /// A net event names the round of the bracket it stands in: a
        /// delivery moved to round 900 inside round 2's bracket would
        /// give a makespan of 900.
        #[test]
        fn event_off_its_round_is_inconsistent() {
            assert!(run(None, 0, 1, &tiny_stream_with_delivery(2, 7)).is_ok());
            let r = run(None, 0, 1, &tiny_stream_with_delivery(900, 7));
            refused(r, "an event of round 900 inside round 2");
            let r = run(None, 0, 1, &tiny_stream_with_delivery(1, 7));
            refused(r, "an event of round 1 inside round 2");
        }

        /// A refused event names the 1-based line it was read from,
        /// counting the blank lines the parser skips: the delivery moved
        /// to round 900, refused inside round 2's bracket.
        #[test]
        fn refusal_names_the_line_of_the_moved_event() {
            let jsonl = |round| {
                let events = tiny_stream_with_delivery(round, 7);
                let trace = Trace {
                    header: TraceHeader {
                        schema: SCHEMA_VERSION,
                        engine: "fast".into(),
                        n: 3,
                        seed: 0,
                        fingerprint: String::new(),
                        jobs: 0,
                        packets: 1,
                        events: events.len() as u64,
                        dropped: 0,
                    },
                    // PE 3 is (1 2 0); through g1 it reaches PE 5, (2 1 0).
                    packets: vec![TracePacket {
                        pid: 0,
                        src: 3,
                        dst: 5,
                        round: 0,
                        job: None,
                    }],
                    events,
                    blank_lines: Vec::new(),
                };
                trace.to_jsonl()
            };
            assert!(replay_jsonl(&jsonl(2)).is_ok());
            let moved = |line| TraceError::Inconsistent {
                line: Some(line),
                msg: "an event of round 900 inside round 2".into(),
            };
            // The header, the packet, then event 7 on line 10.
            let text = jsonl(900);
            assert_eq!(replay_jsonl(&text).err(), Some(moved(10)));
            // A blank line after the header and two before the event.
            let mut lines: Vec<&str> = text.lines().collect();
            lines.insert(9, "");
            lines.insert(9, "  ");
            lines.insert(1, "");
            assert!(lines[12].contains(r#""round":900"#));
            assert_eq!(replay_jsonl(&lines.join("\n")).err(), Some(moved(13)));
        }

        /// Net events stand inside a round bracket; scheduler events
        /// may stand anywhere.
        #[test]
        fn net_event_outside_a_round_is_inconsistent() {
            let r = run(None, 0, 1, &tiny_stream_with_delivery(2, 6));
            refused(r, "an event of round 2 outside any round");
            let mut evs = tiny_stream_with_delivery(2, 7);
            evs.insert(6, Event::JobArrived { round: 9, job: 0 });
            assert!(run(None, 0, 1, &evs).is_ok());
        }

        /// Brackets come in increasing rounds: a bracket may neither
        /// repeat the round before it nor go back.
        #[test]
        fn round_begin_not_after_the_previous_round_is_inconsistent() {
            for (again, msg) in [
                (1, "round 1 begins after round 1 ended"),
                (0, "round 0 begins after round 1 ended"),
            ] {
                let mut evs = tiny_stream_with_delivery(2, 7);
                evs[6] = begin(again);
                evs[7] = delivered(again, 0, 5, 1);
                evs[8] = end(again, 0, 0, 0);
                refused(run(None, 0, 1, &evs), msg);
            }
        }

        #[test]
        fn census_mismatch_is_inconsistent() {
            let r = run(None, 0, 1, &[begin(0), end(0, 5, 0, 0)]);
            assert!(matches!(r, Err(TraceError::Inconsistent { .. })));
        }

        #[test]
        fn mid_round_truncation_is_inconsistent() {
            let r = run(None, 0, 0, &[begin(0)]);
            assert!(matches!(r, Err(TraceError::Inconsistent { .. })));
        }

        #[test]
        fn unresolved_packet_is_inconsistent() {
            let r = run(None, 0, 1, &[]);
            assert!(matches!(r, Err(TraceError::Inconsistent { .. })));
        }

        /// Both strands close their round, as the engines emit them. A
        /// deadlock strand (stall events in the final round) ran the
        /// round's phases and charges its wait; a round-cap strand broke
        /// at the top of the round and charges neither the flits still
        /// queued nor the packets still stalled at their source.
        #[test]
        fn strand_rounds_charge_wait_only_on_deadlock() {
            let deadlock = [
                begin(0),
                queued(0, 0, 0, 1, 1, false),
                end(0, 1, 0, 0),
                begin(1),
                stalled(1, 0, 0, StallKind::CreditHead),
                stranded(1, 0, 0),
                end(1, 1, 0, 0),
            ];
            let expect = RunCounters {
                last_event: 0,
                total_wait_rounds: 2,
                peak_edge: 1,
                peak_node: 1,
                ..RunCounters::default()
            };
            let r = run(Some(&[0]), 1, 1, &deadlock).expect("consistent");
            assert_eq!(r.total, expect, "strand round charged; makespan untouched");
            assert_eq!(r.per_job, vec![expect]);
            assert_eq!(r.outcomes, vec![PacketOutcome::Stranded]);

            let capped = [
                begin(8),
                queued(8, 0, 0, 1, 1, false),
                stalled(8, 1, 0, StallKind::Injection),
                end(8, 1, 0, 1),
                begin(9),
                stranded(9, 0, 0),
                stranded(9, 1, 0),
                end(9, 1, 0, 1),
            ];
            let r = run(Some(&[0, 1]), 2, 2, &capped).expect("consistent");
            let job0 = RunCounters {
                total_wait_rounds: 1,
                peak_edge: 1,
                peak_node: 1,
                ..RunCounters::default()
            };
            let job1 = RunCounters {
                injection_stall_rounds: 1,
                ..RunCounters::default()
            };
            assert_eq!(r.per_job, vec![job0, job1], "cap strand charges nothing");
            assert_eq!(
                r.total,
                RunCounters {
                    injection_stall_rounds: 1,
                    ..job0
                }
            );
            assert_eq!(r.outcomes, vec![PacketOutcome::Stranded; 2]);
        }

        /// An owner map naming a job the header does not declare is
        /// refused before the replayer runs
        /// (`owner_outside_the_declared_jobs_is_inconsistent`).
        #[test]
        fn out_of_range_packets_pes_and_jobs_are_inconsistent() {
            let inconsistent = |r: Result<Replayed, TraceError>| {
                assert!(matches!(r, Err(TraceError::Inconsistent { .. })), "{r:?}");
            };
            // A partitioned event naming a packet past the preamble.
            inconsistent(run(
                Some(&[0]),
                1,
                1,
                &[begin(0), queued(0, 7, 0, 1, 1, false)],
            ));
            // A PE at or past n!.
            inconsistent(run(None, 0, 1, &[begin(0), queued(0, 0, 6, 1, 1, false)]));
            inconsistent(run(
                None,
                0,
                1,
                &[begin(0), queued(0, 0, 3_000_000_000, 1, 1, false)],
            ));
        }

        /// The tiny stream with one generator swapped for `q` (queued) and
        /// `f` (forwarded): consistent exactly when both lie in `1..3`.
        #[test]
        fn generator_outside_1_to_n_is_inconsistent() {
            let stream = |q: u8, f: u8| {
                run(
                    None,
                    0,
                    1,
                    &[
                        begin(0),
                        queued(0, 0, 3, q, 1, false),
                        end(0, 1, 0, 0),
                        begin(1),
                        forwarded(1, 0, 3, 5, f, false),
                        end(1, 0, 1, 0),
                        begin(2),
                        delivered(2, 0, 5, 1),
                        end(2, 0, 0, 0),
                    ],
                )
            };
            assert!(stream(2, 2).is_ok());
            for bad in [0, 3, 200] {
                for r in [stream(bad, 1), stream(1, bad)] {
                    assert!(matches!(r, Err(TraceError::Inconsistent { .. })), "{r:?}");
                }
            }
        }
    }
}
