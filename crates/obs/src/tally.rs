//! The run tally: the one place a run's state transitions become
//! [`RunCounters`], for the whole run and per owner.
//!
//! Two callers drive it. `sg-net`'s fast engine calls it at every
//! state transition, passing the queue depth and per-PE occupancy it
//! already holds. The trace replayer ([`crate::NetReplay`]) calls it
//! from a parsed event stream, with its own per-PE census. Both
//! therefore share one set of accounting rules:
//!
//! * **Peaks are observed at enqueue** (and at an escape diversion):
//!   the depth of the queue or escape bank the flit just joined, and
//!   the total queued at its PE, other owners' flits included. Under
//!   cross-owner sharing an owner's peaks therefore measure
//!   interference.
//! * **Wait and stall charges land once per round**, after the
//!   round's arbitration: the caller's queued and stalled totals for
//!   the whole run, the tally's own census per owner. A round in
//!   which nothing is queued or stalled charges nothing, so skipping
//!   it is free.
//! * **A resolution advances the makespan.** A delivery or a drop
//!   does; a stranded packet never resolves and never advances it.
//!
//! The reference engine keeps its own inline counters. It is the
//! oracle, and the differential suite's comparison of its totals is
//! the independent check on this module.

/// Terminal state of one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketOutcome {
    /// Reached its destination.
    Delivered {
        /// Round of arrival at the destination PE.
        round: u32,
        /// Star links traversed (≥ the star distance `src → dst`).
        hops: u32,
    },
    /// Hit a dead node or link under `sg-net`'s drop fault policy, or
    /// was injected at a dead source PE.
    DroppedFault {
        /// Round of the drop.
        round: u32,
    },
    /// No fault-free path existed when a reroute was attempted
    /// (possible only beyond the paper's `n−2` fault tolerance, or
    /// when the destination itself is dead).
    DroppedUnreachable {
        /// Round of the drop.
        round: u32,
    },
    /// Tail-dropped: the next output queue was at capacity.
    DroppedOverflow {
        /// Round of the drop.
        round: u32,
    },
    /// Still queued, stalled or in flight when the run stranded: the
    /// round cap fired, or a credit deadlock froze the network.
    Stranded,
}

impl PacketOutcome {
    /// `true` for [`PacketOutcome::Delivered`].
    #[inline]
    #[must_use]
    pub fn is_delivered(&self) -> bool {
        matches!(self, PacketOutcome::Delivered { .. })
    }

    /// Round the packet resolved — delivery or any drop; `None` for
    /// [`PacketOutcome::Stranded`], which never resolves. The round a
    /// quiescence barrier must wait past.
    #[inline]
    #[must_use]
    pub fn resolution_round(&self) -> Option<u32> {
        match *self {
            PacketOutcome::Delivered { round, .. }
            | PacketOutcome::DroppedFault { round }
            | PacketOutcome::DroppedUnreachable { round }
            | PacketOutcome::DroppedOverflow { round } => Some(round),
            PacketOutcome::Stranded => None,
        }
    }
}

/// The counters of one run, or of one owner's share of it: what the
/// [`RunTally`] accumulates, and what `sg-net`'s reference engine
/// keeps inline as the oracle. `sg-net`'s `TrafficStats::from_records`
/// turns them, plus the per-packet records, into statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RunCounters {
    /// Round of the last packet resolution (= makespan).
    pub last_event: u32,
    /// Flit·rounds spent queued.
    pub total_wait_rounds: u64,
    /// Packet·rounds stalled pre-injection (credit mode only).
    pub injection_stall_rounds: u64,
    /// Peak single-queue occupancy.
    pub peak_edge: u64,
    /// Peak per-PE queued total.
    pub peak_node: u64,
    /// Links traversed.
    pub forwarded: u64,
    /// Adaptive→escape diversions (escape mode only).
    pub escape_diversions: u64,
    /// Links traversed on the escape channel.
    pub escape_forwarded: u64,
    /// Peak per-PE escape residents.
    pub peak_escape: u64,
}

/// Accumulates [`RunCounters`] from a run's state transitions, for
/// the whole run and — given an owner map — per owner. The default
/// tally counts the whole run only.
#[derive(Debug, Clone, Default)]
pub struct RunTally<'o> {
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
    /// A tally that also splits every counter by owner: `owner[pid]`
    /// names packet `pid`'s owner, in `0..owners`. The caller
    /// validates the map.
    #[must_use]
    pub fn partitioned(owner: &'o [u32], owners: usize) -> Self {
        RunTally {
            total: RunCounters::default(),
            owner: Some(owner),
            per_owner: vec![RunCounters::default(); owners],
            queued: vec![0; owners],
            stalled: vec![0; owners],
        }
    }

    #[inline]
    fn owner_of(&self, pid: u32) -> Option<usize> {
        self.owner.map(|o| o[pid as usize] as usize)
    }

    /// Packet `pid` joined an output queue (or, with `escape`, an
    /// escape bank) that now holds `depth` flits, at a PE that now
    /// holds `at_pe` flits across its queues and bank.
    #[inline]
    pub fn queued(&mut self, pid: u32, escape: bool, depth: u64, at_pe: u64) {
        observe_enqueue(&mut self.total, escape, depth, at_pe);
        if let Some(j) = self.owner_of(pid) {
            self.queued[j] += 1;
            observe_enqueue(&mut self.per_owner[j], escape, depth, at_pe);
        }
    }

    /// Packet `pid` left its queue (or, with `escape`, its escape
    /// bank) over a link. Returns `false`, counting nothing, when the
    /// packet's owner has no queued flit — impossible for an engine,
    /// a malformed stream for a replay.
    #[inline]
    pub fn forwarded(&mut self, pid: u32, escape: bool) -> bool {
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

    /// Packet `pid`, still buffered, moved from an adaptive queue
    /// into its PE's escape bank, which now holds `escape_at_pe`
    /// flits.
    #[inline]
    pub fn diverted(&mut self, pid: u32, escape_at_pe: u64) {
        count_diversion(&mut self.total, escape_at_pe);
        if let Some(j) = self.owner_of(pid) {
            count_diversion(&mut self.per_owner[j], escape_at_pe);
        }
    }

    /// Packet `pid` stalled at its source for lack of credit this
    /// round — once per round it stays stalled.
    #[inline]
    pub fn stalled(&mut self, pid: u32) {
        if let Some(j) = self.owner_of(pid) {
            self.stalled[j] += 1;
        }
    }

    /// Packet `pid` resolved (delivered or dropped) at `round`.
    #[inline]
    pub fn resolved(&mut self, pid: u32, round: u32) {
        self.total.last_event = self.total.last_event.max(round);
        if let Some(j) = self.owner_of(pid) {
            let c = &mut self.per_owner[j];
            c.last_event = c.last_event.max(round);
        }
    }

    /// Charges one round that ran its accounting phase: `queued`
    /// flits waited and `stalled` injections stalled in it. Each
    /// owner is charged its own queued flits and this round's stalls.
    #[inline]
    pub fn end_round(&mut self, queued: u64, stalled: u64) {
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

    /// The whole-run counters, and one per owner (empty for a
    /// whole-run tally).
    #[must_use]
    pub fn finish(self) -> (RunCounters, Vec<RunCounters>) {
        (self.total, self.per_owner)
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
