//! Replaying a recorded event stream back into a run's accounting.
//!
//! [`NetReplay`] is a parser adapter: it walks an [`Event`] stream
//! and feeds each state transition to the same [`RunTally`] the
//! `sg-net` fast engine drives while running. A log file alone
//! therefore re-derives the run's counters, total and per job, and
//! every packet's outcome. `sg-net` turns the result into a
//! `TrafficStats` that is **byte-identical** to the live run's
//! (asserted across the full differential matrix).
//!
//! What the engine holds and a log does not, the replay rebuilds: a
//! per-PE census of adaptive and escape residents (the PE totals the
//! peak rule observes), sized once from the star order, and the
//! round's injection-stall count.
//!
//! The replay is strict. Every PE must lie below `n!`, every
//! generator in `1..n`, and every packet id below the preamble's
//! count. A `round_end` must close the round it names, and its totals
//! must equal the replayed census. Per-PE occupancy can never
//! underflow, and every packet must resolve. A truncated or
//! hand-damaged log fails loudly instead of producing quietly wrong
//! statistics, and never panics. A check that needs the star graph,
//! such as whether a forward's generator leads from `from` to `to`,
//! is the caller's: it reports a failure through
//! [`NetReplay::refuse`].
//!
//! One accounting subtlety lives here rather than in the tally: the
//! strand round. Both kinds of strand close their round with a
//! `round_end`, but only a **deadlock strand** ran the round's phases
//! and charged its wait: the round holds the stall events that made
//! it a deadlock. A **round-cap strand** breaks at the top of the
//! round, so its round holds nothing but strand drops and charges
//! nothing.

use crate::probe::{DropReason, Event, StallKind};
use crate::tally::{PacketOutcome, RunCounters, RunTally};
use crate::trace::TraceError;

/// Everything a finished replay reconstructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayedRun {
    /// Whole-run counters.
    pub total: RunCounters,
    /// Per-job counters for a partitioned run (empty otherwise).
    pub per_job: Vec<RunCounters>,
    /// One outcome per packet, in packet-id order.
    pub outcomes: Vec<PacketOutcome>,
}

/// Streaming replayer for `sg-net` event streams.
#[derive(Debug, Clone)]
pub struct NetReplay<'o> {
    tally: RunTally<'o>,
    /// Generators per PE (`n - 1`).
    gens: usize,
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
    open: Option<u32>,
    error: Option<String>,
}

impl<'o> NetReplay<'o> {
    /// A replayer for a run of `packets` packets on a network of
    /// `nodes` PEs with `gens = n - 1` generators each. `owner` (one
    /// job id per packet, each below `jobs`) switches on per-job
    /// attribution, exactly like the engines' partitioned entry
    /// points.
    ///
    /// # Errors
    /// [`TraceError::Inconsistent`] if `owner` has the wrong length or
    /// names a job outside `0..jobs`.
    pub fn new(
        nodes: usize,
        gens: usize,
        packets: usize,
        owner: Option<&'o [u32]>,
        jobs: usize,
    ) -> Result<Self, TraceError> {
        let tally = match owner {
            Some(o) => {
                if o.len() != packets {
                    return Err(inconsistent(format!(
                        "owner map covers {} packet(s), the preamble declares {packets}",
                        o.len()
                    )));
                }
                if let Some((pid, j)) = o.iter().enumerate().find(|&(_, &j)| j as usize >= jobs) {
                    return Err(inconsistent(format!(
                        "packet {pid} names job {j}, but the header declares {jobs} job(s)"
                    )));
                }
                RunTally::partitioned(o, jobs)
            }
            None => RunTally::default(),
        };
        Ok(NetReplay {
            tally,
            gens,
            outcomes: vec![None; packets],
            node_occ: vec![0; nodes],
            esc_node: vec![0; nodes],
            queued: 0,
            stalls: 0,
            stall_any: false,
            stranded: false,
            open: None,
            error: None,
        })
    }

    /// Feed the next event of the stream.
    pub fn observe(&mut self, ev: &Event) {
        if self.error.is_none() {
            if let Err(msg) = self.apply(ev) {
                self.error = Some(msg);
            }
        }
    }

    /// Refuse the stream at the event just observed, for a check only
    /// the caller can make: this crate has no star-graph dependency,
    /// so `sg-net` checks that a forward follows its link. An earlier
    /// failure keeps precedence.
    pub fn refuse(&mut self, msg: String) {
        self.error.get_or_insert(msg);
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
        if (1..=self.gens).contains(&usize::from(gen)) {
            Ok(())
        } else {
            Err(format!(
                "event names generator {gen}, but the network has generators 1..={}",
                self.gens
            ))
        }
    }

    fn apply(&mut self, ev: &Event) -> Result<(), String> {
        match *ev {
            Event::RoundBegin { round } => {
                if self.open.is_some() {
                    return Err(format!("round {round} begins inside an open round"));
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
                pid,
                pe,
                gen,
                depth,
                escape,
                ..
            } => {
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
                pid,
                from,
                to,
                gen,
                escape,
                ..
            } => {
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
            Event::Diverted { pid, pe, .. } => {
                self.packet(pid)?;
                let pe = self.pe(pe)?;
                if self.node_occ[pe] == 0 {
                    return Err(format!("packet {pid} diverted off an empty PE {pe}"));
                }
                self.node_occ[pe] -= 1;
                self.esc_node[pe] += 1;
                self.tally.diverted(pid, self.esc_node[pe]);
            }
            Event::Stalled { pid, pe, kind, .. } => {
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
                self.pe(pe)?;
                self.resolve(pid, PacketOutcome::Delivered { round, hops })?;
            }
            Event::Dropped {
                round,
                pid,
                pe,
                reason,
            } => {
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

    /// Close the stream and hand back the reconstructed run.
    ///
    /// # Errors
    /// [`TraceError::Inconsistent`] if any invariant failed along the
    /// way, the stream ended inside a round, or a packet never
    /// resolved.
    pub fn finish(self) -> Result<ReplayedRun, TraceError> {
        if let Some(msg) = self.error {
            return Err(inconsistent(msg));
        }
        if let Some(round) = self.open {
            return Err(inconsistent(format!("stream ends inside round {round}")));
        }
        let outcomes = self
            .outcomes
            .iter()
            .enumerate()
            .map(|(pid, o)| {
                o.ok_or_else(|| {
                    inconsistent(format!(
                        "packet {pid} never resolved — is the log truncated?"
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let (total, per_job) = self.tally.finish();
        Ok(ReplayedRun {
            total,
            per_job,
            outcomes,
        })
    }
}

fn inconsistent(msg: String) -> TraceError {
    TraceError::Inconsistent { msg }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays `evs` on `S_3`: 6 PEs, generators 1 and 2.
    fn run(
        owner: Option<&[u32]>,
        jobs: usize,
        packets: usize,
        evs: &[Event],
    ) -> Result<ReplayedRun, TraceError> {
        let mut r = NetReplay::new(6, 2, packets, owner, jobs)?;
        for ev in evs {
            r.observe(ev);
        }
        r.finish()
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

    #[test]
    fn out_of_range_packets_pes_and_jobs_are_inconsistent() {
        let inconsistent = |r: Result<ReplayedRun, TraceError>| {
            assert!(matches!(r, Err(TraceError::Inconsistent { .. })), "{r:?}");
        };
        // An owner map naming a job the header does not declare.
        inconsistent(run(Some(&[2]), 2, 1, &[]));
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
