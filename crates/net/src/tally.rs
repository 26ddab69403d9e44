//! A run's accounting: the [`Sink`] every counter update goes to, and
//! the [`RunTally`] that implements it for the fast engine and the
//! trace replayer. The [`Sink`] method docs are the accounting rules;
//! the reference engine implements them again on a [`RunCounters`],
//! with its own arithmetic, as the oracle the differential suite checks
//! the tally against.

use crate::packet::{PacketId, PacketRecord};
use crate::stats::{RunCounters, RunStats, TrafficStats};

/// Where a run's counter updates go, at every state transition: the
/// engines' run core passes the queue depths and per-PE occupancy it
/// holds, the trace replayer those of a census it rebuilds from the
/// log.
pub(crate) trait Sink {
    /// Packet `pid` joined an output queue (or, with `escape`, an
    /// escape bank) that now holds `depth` flits, at a PE that now
    /// holds `at_pe` flits across its queues and bank. **Peaks are
    /// observed at enqueue** (and at a diversion): the depth of the
    /// queue or bank the flit just joined, and the PE total, other
    /// owners' flits included. Under cross-owner sharing an owner's
    /// peaks therefore measure interference.
    fn queued(&mut self, pid: PacketId, escape: bool, depth: u64, at_pe: u64);

    /// Packet `pid` left its queue (or, with `escape`, its escape
    /// bank) over a link. Returns `false`, counting nothing, when the
    /// packet's owner has no queued flit: impossible for an engine, a
    /// malformed stream for a replay.
    fn forwarded(&mut self, pid: PacketId, escape: bool) -> bool;

    /// Packet `pid`, still buffered, moved from an adaptive queue into
    /// its PE's escape bank, which now holds `escape_at_pe` flits.
    fn diverted(&mut self, pid: PacketId, escape_at_pe: u64);

    /// Packet `pid` stalled at its source for lack of credit this
    /// round, once per round it stays stalled.
    fn stalled(&mut self, pid: PacketId);

    /// Packet `pid` resolved (delivered or dropped) at `round`. **A
    /// resolution advances the makespan**; a stranded packet never
    /// resolves and never advances it.
    fn resolved(&mut self, pid: PacketId, round: u32);

    /// Closes a round that ran its accounting phase, after its
    /// arbitration: `queued` flits waited and `stalled` injections
    /// stalled in it. **Wait and stall charges land once per round,
    /// here**: the whole run is charged these totals, and each owner
    /// its own queued flits and this round's stalls. A round in which
    /// nothing is queued or stalled charges nothing, so skipping it is
    /// free.
    fn end_round(&mut self, queued: u64, stalled: u64);

    /// The run's statistics from its per-packet `records`, in packet
    /// order: the whole run, and one [`TrafficStats`] per owner of a
    /// partitioned tally, each over its owner's records.
    fn finish(self, n: usize, records: Vec<PacketRecord>) -> RunStats;
}

/// The [`Sink`] of the fast engine and the trace replayer: the
/// [`RunCounters`] of the whole run and, given an owner map, of each
/// owner.
pub(crate) struct RunTally<'o> {
    total: RunCounters,
    /// `owner[pid]` names packet `pid`'s owner; `None` tallies the
    /// whole run only.
    owner: Option<&'o [u32]>,
    per_owner: Vec<RunCounters>,
    /// Flits each owner has in output queues and escape banks.
    queued: Vec<u64>,
    /// Injection stalls each owner took in the current round.
    stalled: Vec<u64>,
}

impl<'o> RunTally<'o> {
    /// A tally of the whole run that, given `(owner, owners)`, also
    /// splits every counter by owner: `owner[pid]` names packet `pid`'s
    /// owner, in `0..owners`. The caller validates the map.
    pub(crate) fn new(owner: Option<(&'o [u32], usize)>) -> Self {
        let owners = owner.map_or(0, |(_, owners)| owners);
        RunTally {
            total: RunCounters::default(),
            owner: owner.map(|(o, _)| o),
            per_owner: vec![RunCounters::default(); owners],
            queued: vec![0; owners],
            stalled: vec![0; owners],
        }
    }

    #[inline]
    fn owner_of(&self, pid: PacketId) -> Option<usize> {
        self.owner.map(|o| o[pid as usize] as usize)
    }
}

impl Sink for RunTally<'_> {
    #[inline]
    fn queued(&mut self, pid: PacketId, escape: bool, depth: u64, at_pe: u64) {
        observe_enqueue(&mut self.total, escape, depth, at_pe);
        if let Some(j) = self.owner_of(pid) {
            self.queued[j] += 1;
            observe_enqueue(&mut self.per_owner[j], escape, depth, at_pe);
        }
    }

    #[inline]
    fn forwarded(&mut self, pid: PacketId, escape: bool) -> bool {
        if let Some(j) = self.owner_of(pid) {
            let Some(left) = self.queued[j].checked_sub(1) else {
                return false;
            };
            self.queued[j] = left;
            count_forward(&mut self.per_owner[j], escape);
        }
        count_forward(&mut self.total, escape);
        true
    }

    #[inline]
    fn diverted(&mut self, pid: PacketId, escape_at_pe: u64) {
        count_diversion(&mut self.total, escape_at_pe);
        if let Some(j) = self.owner_of(pid) {
            count_diversion(&mut self.per_owner[j], escape_at_pe);
        }
    }

    #[inline]
    fn stalled(&mut self, pid: PacketId) {
        if let Some(j) = self.owner_of(pid) {
            self.stalled[j] += 1;
        }
    }

    #[inline]
    fn resolved(&mut self, pid: PacketId, round: u32) {
        self.total.last_event = self.total.last_event.max(round);
        if let Some(j) = self.owner_of(pid) {
            let c = &mut self.per_owner[j];
            c.last_event = c.last_event.max(round);
        }
    }

    #[inline]
    fn end_round(&mut self, queued: u64, stalled: u64) {
        self.total.total_wait_rounds += queued;
        self.total.injection_stall_rounds += stalled;
        for (c, (&q, s)) in self
            .per_owner
            .iter_mut()
            .zip(self.queued.iter().zip(&mut self.stalled))
        {
            c.total_wait_rounds += q;
            c.injection_stall_rounds += *s;
            *s = 0;
        }
    }

    fn finish(self, n: usize, records: Vec<PacketRecord>) -> RunStats {
        let mut mine: Vec<Vec<PacketRecord>> = vec![Vec::new(); self.per_owner.len()];
        for (rec, &j) in records.iter().zip(self.owner.unwrap_or_default()) {
            mine[j as usize].push(*rec);
        }
        let per_job = mine
            .into_iter()
            .zip(self.per_owner)
            .map(|(records, c)| TrafficStats::from_records(n, records, c))
            .collect();
        RunStats {
            total: TrafficStats::from_records(n, records, self.total),
            per_job,
        }
    }
}

#[inline]
fn observe_enqueue(c: &mut RunCounters, escape: bool, depth: u64, at_pe: u64) {
    if escape {
        c.peak_escape = c.peak_escape.max(depth);
    } else {
        c.peak_edge = c.peak_edge.max(depth);
    }
    c.peak_node = c.peak_node.max(at_pe);
}

#[inline]
fn count_forward(c: &mut RunCounters, escape: bool) {
    c.forwarded += 1;
    c.escape_forwarded += u64::from(escape);
}

#[inline]
fn count_diversion(c: &mut RunCounters, escape_at_pe: u64) {
    c.escape_diversions += 1;
    c.peak_escape = c.peak_escape.max(escape_at_pe);
}
