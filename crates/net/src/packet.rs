//! Per-packet records, outcomes and hop traces.
//!
//! Every packet injected into a [`crate::Network`] run ends in exactly
//! one [`PacketOutcome`]; the full table of [`PacketRecord`]s is part
//! of [`crate::TrafficStats`], so packet conservation
//! (`delivered + dropped + stranded == injected`) is checkable — and
//! checked, by the property suite — from the stats alone.

use sg_obs::{Event, Probe};

/// Dense packet id: index into the run's packet table (assigned in
/// workload order, so ids are stable across runs of the same
/// workload).
pub type PacketId = u32;

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
    /// Hit a dead node or link under [`crate::FaultPolicy::Drop`], or
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

/// One packet's life, as recorded in [`crate::TrafficStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRecord {
    /// Source PE (Lehmer rank of its star node).
    pub src: u64,
    /// Destination PE (Lehmer rank).
    pub dst: u64,
    /// Round the packet entered the network.
    pub inject_round: u32,
    /// How it ended.
    pub outcome: PacketOutcome,
}

impl PacketRecord {
    /// End-to-end latency in rounds (delivery − injection);
    /// `None` unless delivered.
    #[must_use]
    pub fn latency(&self) -> Option<u32> {
        match self.outcome {
            PacketOutcome::Delivered { round, .. } => Some(round - self.inject_round),
            _ => None,
        }
    }
}

/// One forwarded flit hop, rebuilt from a [`Event::Forwarded`] by
/// [`HopTraces`]. A packet's trace lists every link it traversed, in
/// order — the ground truth the adaptive-routing validity and
/// sub-star containment suites audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// PE the flit left (Lehmer rank).
    pub from: u64,
    /// Generator link taken (`1 ≤ g < n`).
    pub gen: u8,
    /// PE the flit was forwarded to (Lehmer rank).
    pub to: u64,
    /// Round the flit left `from`; it lands
    /// [`crate::NetConfig::link_latency`] rounds later.
    pub round: u32,
}

/// A [`Probe`] that collects every packet's hop trace from a run's
/// [`Event::Forwarded`] stream: attach it to any run through
/// [`crate::Network::simulate`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HopTraces {
    /// `hops[pid]` lists packet `pid`'s link traversals in order.
    pub hops: Vec<Vec<HopRecord>>,
}

impl HopTraces {
    /// An empty trace for a run of `packets` packets (an event naming
    /// a later packet panics).
    #[must_use]
    pub fn new(packets: usize) -> Self {
        HopTraces {
            hops: vec![Vec::new(); packets],
        }
    }
}

impl Probe for HopTraces {
    fn event(&mut self, ev: &Event) {
        if let Event::Forwarded {
            round,
            pid,
            from,
            to,
            gen,
            ..
        } = *ev
        {
            self.hops[pid as usize].push(HopRecord {
                from: u64::from(from),
                gen,
                to: u64::from(to),
                round,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_delivery_minus_injection() {
        let r = PacketRecord {
            src: 0,
            dst: 1,
            inject_round: 2,
            outcome: PacketOutcome::Delivered { round: 7, hops: 3 },
        };
        assert_eq!(r.latency(), Some(5));
        assert!(r.outcome.is_delivered());
        let d = PacketRecord {
            outcome: PacketOutcome::DroppedFault { round: 3 },
            ..r
        };
        assert_eq!(d.latency(), None);
        assert!(!d.outcome.is_delivered());
    }
}
