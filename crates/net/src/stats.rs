//! Traffic statistics and the saturation-sweep driver.
//!
//! [`TrafficStats`] is a pure-integer, `Eq`-comparable summary of one
//! simulation run (floats appear only in derived accessors), so the
//! determinism property — same seed ⇒ identical stats — is a single
//! `assert_eq!`.

use crate::network::Network;
use crate::packet::{PacketOutcome, PacketRecord};
use crate::routing::RoutingPolicy;
use crate::workload::Workload;

/// The counters of one run, or of one owner's share of it, kept online
/// while it runs: what the fast engine's and the trace replayer's tally
/// accumulates, and what the reference engine keeps with its own
/// arithmetic as the oracle. [`TrafficStats::from_records`] turns them,
/// plus the per-packet records, into statistics.
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

/// Aggregated outcome of one [`Network::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficStats {
    /// Star order.
    pub n: usize,
    /// Packets injected (= workload size).
    pub injected: u64,
    /// Packets delivered to their destination PE.
    pub delivered: u64,
    /// Packets dropped on a dead node/link under
    /// [`crate::FaultPolicy::Drop`].
    pub dropped_fault: u64,
    /// Packets with no surviving path under
    /// [`crate::FaultPolicy::Reroute`].
    pub dropped_unreachable: u64,
    /// Packets tail-dropped at a full output queue.
    pub dropped_overflow: u64,
    /// Packets still unresolved when the round cap fired.
    pub stranded: u64,
    /// Round of the last packet resolution (delivery or drop).
    pub makespan: u32,
    /// Total flit·rounds spent waiting in output queues beyond the
    /// round that forwarded each flit. Zero iff the run was
    /// contention-free.
    pub total_wait_rounds: u64,
    /// Packet·rounds spent stalled **before** injection because the
    /// source PE had no buffer credit (always 0 outside
    /// [`crate::FlowControl::CreditBased`]). Stalled packets are not
    /// in any queue yet, so this is disjoint from
    /// [`TrafficStats::total_wait_rounds`]; it still shows up in
    /// end-to-end latency, which is measured from the workload's
    /// injection round.
    pub injection_stall_rounds: u64,
    /// Peak occupancy of any single output queue.
    pub peak_edge_occupancy: u64,
    /// Peak queued packets at any single PE (all its queues summed).
    pub peak_node_occupancy: u64,
    /// Star links traversed in total.
    pub forwarded_flits: u64,
    /// Packets diverted from the adaptive partition onto the escape
    /// channel (always 0 outside
    /// [`crate::FlowControl::EscapeChannel`]). Each packet is counted
    /// at most once — a diversion is one-way.
    pub escape_diversions: u64,
    /// Links traversed on the escape channel (a subset of
    /// [`TrafficStats::forwarded_flits`]).
    pub escape_forwarded_flits: u64,
    /// Peak escape-channel residents at any single PE. Bounded by the
    /// network diameter: the escape partition holds one slot per
    /// residual-hop class.
    pub peak_escape_occupancy: u64,
    /// `latency_histogram[l]` counts delivered packets with latency
    /// `l` rounds.
    pub latency_histogram: Vec<u64>,
    /// Sum of delivered latencies (rounds).
    pub sum_latency: u64,
    /// Largest delivered latency (rounds); 0 if nothing was delivered.
    pub max_latency: u32,
    /// One record per packet, in injection order.
    pub packets: Vec<PacketRecord>,
}

/// What a run ([`Network::simulate`]) or its replay
/// ([`crate::trace::replay`]) returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Whole-run statistics.
    pub total: TrafficStats,
    /// One [`TrafficStats`] per job of a [`crate::Tenants::PerJob`]
    /// run on the fast engine, or of a trace that names owners.
    pub per_job: Vec<TrafficStats>,
}

/// The latency and outcome tallies folded over a run's records.
#[derive(Default)]
struct LatencyAgg {
    histogram: Vec<u64>,
    sum: u64,
    max: u32,
    delivered: u64,
    dropped_fault: u64,
    dropped_unreachable: u64,
    dropped_overflow: u64,
    stranded: u64,
}

impl LatencyAgg {
    fn absorb(mut self, rec: &PacketRecord) -> Self {
        match rec.outcome {
            PacketOutcome::Delivered { round, .. } => {
                let lat = round - rec.inject_round;
                if self.histogram.len() <= lat as usize {
                    self.histogram.resize(lat as usize + 1, 0);
                }
                self.histogram[lat as usize] += 1;
                self.sum += u64::from(lat);
                self.max = self.max.max(lat);
                self.delivered += 1;
            }
            PacketOutcome::DroppedFault { .. } => self.dropped_fault += 1,
            PacketOutcome::DroppedUnreachable { .. } => self.dropped_unreachable += 1,
            PacketOutcome::DroppedOverflow { .. } => self.dropped_overflow += 1,
            PacketOutcome::Stranded => self.stranded += 1,
        }
        self
    }
}

impl TrafficStats {
    /// Builds the stats from per-packet records plus the counters the
    /// simulator tracks online. The latency histogram and outcome
    /// tallies are one sequential fold: a few nanoseconds per record,
    /// which no thread fan-out pays for.
    ///
    /// Every run and every trace replay builds its statistics, whole
    /// and per job, through this one function when its accounting
    /// finishes; it is public so that a caller holding the records and
    /// counters of a run can rebuild its statistics (starbench times it
    /// as `net.finish`).
    #[must_use]
    pub fn from_records(n: usize, packets: Vec<PacketRecord>, counters: RunCounters) -> Self {
        let agg = packets
            .iter()
            .fold(LatencyAgg::default(), LatencyAgg::absorb);
        TrafficStats {
            n,
            injected: packets.len() as u64,
            delivered: agg.delivered,
            dropped_fault: agg.dropped_fault,
            dropped_unreachable: agg.dropped_unreachable,
            dropped_overflow: agg.dropped_overflow,
            stranded: agg.stranded,
            makespan: counters.last_event,
            total_wait_rounds: counters.total_wait_rounds,
            injection_stall_rounds: counters.injection_stall_rounds,
            peak_edge_occupancy: counters.peak_edge,
            peak_node_occupancy: counters.peak_node,
            forwarded_flits: counters.forwarded,
            escape_diversions: counters.escape_diversions,
            escape_forwarded_flits: counters.escape_forwarded,
            peak_escape_occupancy: counters.peak_escape,
            latency_histogram: agg.histogram,
            sum_latency: agg.sum,
            max_latency: agg.max,
            packets,
        }
    }

    /// All drops combined.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped_fault + self.dropped_unreachable + self.dropped_overflow
    }

    /// The same statistics on a clock shifted `offset` rounds
    /// earlier: `makespan` and every per-packet round (injection and
    /// outcome) drop by `offset`; latencies, waits, peaks and flit
    /// counts are round-differences and stay untouched. This is how a
    /// tenant's slice of a multi-tenant run ([`RunStats::per_job`]) is
    /// compared **byte for byte** against the same job run in
    /// isolation at round 0 — the executable form of the sub-star
    /// isolation theorem. Rounds saturate at 0 rather than underflow
    /// (relevant only to jobs with no events).
    #[must_use]
    pub fn rebased(&self, offset: u32) -> Self {
        let mut out = self.clone();
        out.makespan = out.makespan.saturating_sub(offset);
        for rec in &mut out.packets {
            rec.inject_round = rec.inject_round.saturating_sub(offset);
            rec.outcome = match rec.outcome {
                PacketOutcome::Delivered { round, hops } => PacketOutcome::Delivered {
                    round: round.saturating_sub(offset),
                    hops,
                },
                PacketOutcome::DroppedFault { round } => PacketOutcome::DroppedFault {
                    round: round.saturating_sub(offset),
                },
                PacketOutcome::DroppedUnreachable { round } => PacketOutcome::DroppedUnreachable {
                    round: round.saturating_sub(offset),
                },
                PacketOutcome::DroppedOverflow { round } => PacketOutcome::DroppedOverflow {
                    round: round.saturating_sub(offset),
                },
                PacketOutcome::Stranded => PacketOutcome::Stranded,
            };
        }
        out
    }

    /// Mean delivered latency in rounds (`NaN` if nothing delivered).
    #[must_use]
    pub fn avg_latency(&self) -> f64 {
        self.sum_latency as f64 / self.delivered as f64
    }

    /// Delivered packets per round over the whole run.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            self.delivered as f64
        } else {
            self.delivered as f64 / f64::from(self.makespan)
        }
    }

    /// `true` iff no packet ever waited in a queue — the network ran
    /// the workload exactly as a lockstep SIMD schedule would.
    #[must_use]
    pub fn is_contention_free(&self) -> bool {
        self.total_wait_rounds == 0 && self.peak_edge_occupancy <= 1
    }
}

/// One point of a saturation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationPoint {
    /// Injection rate in percent of full injection.
    pub rate_pct: u32,
    /// Packets offered.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Run length in rounds.
    pub makespan: u32,
    /// Mean delivered latency (rounds).
    pub avg_latency: f64,
    /// Delivered packets per round.
    pub throughput: f64,
    /// Peak single-queue occupancy.
    pub peak_edge_occupancy: u64,
    /// Total queue wait (flit·rounds).
    pub total_wait_rounds: u64,
}

/// Drives [`Workload::bernoulli_uniform`] across injection rates and
/// summarizes each run — the classic latency-vs-offered-load curve.
/// Deterministic: each rate reuses the same base `seed`.
///
/// # Panics
/// Panics if any rate exceeds 100.
#[must_use]
pub fn saturation_sweep(
    net: &Network,
    rates_pct: &[u32],
    rounds: u32,
    seed: u64,
    policy: &dyn RoutingPolicy,
) -> Vec<SaturationPoint> {
    rates_pct
        .iter()
        .map(|&rate_pct| {
            let w = Workload::bernoulli_uniform(net.n(), rounds, rate_pct, seed);
            let stats = net.run(&w, policy);
            SaturationPoint {
                rate_pct,
                injected: stats.injected,
                delivered: stats.delivered,
                makespan: stats.makespan,
                avg_latency: stats.avg_latency(),
                throughput: stats.throughput(),
                peak_edge_occupancy: stats.peak_edge_occupancy,
                total_wait_rounds: stats.total_wait_rounds,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RunCounters {
        /// The counters `s` was built from: how the crate's unit tests
        /// read a run's tally back.
        pub(crate) fn of(s: &TrafficStats) -> Self {
            RunCounters {
                last_event: s.makespan,
                total_wait_rounds: s.total_wait_rounds,
                injection_stall_rounds: s.injection_stall_rounds,
                peak_edge: s.peak_edge_occupancy,
                peak_node: s.peak_node_occupancy,
                forwarded: s.forwarded_flits,
                escape_diversions: s.escape_diversions,
                escape_forwarded: s.escape_forwarded_flits,
                peak_escape: s.peak_escape_occupancy,
            }
        }
    }

    fn rec(inject: u32, outcome: PacketOutcome) -> PacketRecord {
        PacketRecord {
            src: 0,
            dst: 1,
            inject_round: inject,
            outcome,
        }
    }

    #[test]
    fn from_records_tallies_outcomes() {
        let packets = vec![
            rec(0, PacketOutcome::Delivered { round: 3, hops: 3 }),
            rec(0, PacketOutcome::Delivered { round: 5, hops: 4 }),
            rec(1, PacketOutcome::DroppedFault { round: 2 }),
            rec(1, PacketOutcome::DroppedOverflow { round: 2 }),
            rec(2, PacketOutcome::Stranded),
        ];
        let s = TrafficStats::from_records(
            4,
            packets,
            RunCounters {
                last_event: 5,
                total_wait_rounds: 7,
                injection_stall_rounds: 0,
                peak_edge: 2,
                peak_node: 3,
                forwarded: 11,
                ..RunCounters::default()
            },
        );
        assert_eq!(s.injected, 5);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.stranded, 1);
        assert_eq!(s.sum_latency, 3 + 5);
        assert_eq!(s.max_latency, 5);
        assert_eq!(s.latency_histogram[3], 1);
        assert_eq!(s.latency_histogram[5], 1);
        assert!((s.avg_latency() - 4.0).abs() < 1e-12);
        assert!(!s.is_contention_free());
        assert_eq!(
            s.delivered + s.dropped() + s.stranded,
            s.injected,
            "conservation"
        );
    }

    #[test]
    fn contention_free_requires_zero_waits() {
        let packets = vec![rec(0, PacketOutcome::Delivered { round: 3, hops: 3 })];
        let s = TrafficStats::from_records(
            4,
            packets,
            RunCounters {
                last_event: 3,
                total_wait_rounds: 0,
                injection_stall_rounds: 0,
                peak_edge: 1,
                peak_node: 1,
                forwarded: 3,
                ..RunCounters::default()
            },
        );
        assert!(s.is_contention_free());
        assert!((s.throughput() - 1.0 / 3.0).abs() < 1e-12);
    }
}
