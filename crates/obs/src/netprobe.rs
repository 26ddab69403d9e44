//! `NetProbe` — the dashboard probe for `sg-net` runs.
//!
//! Folds the event stream into what a run's `TrafficStats` cannot
//! say: per-link forward counts (the "hot link" table), the
//! queue-depth histogram and its peak, the peak number of queued flits
//! and its round, and optional per-tenant in-flight peaks. Whatever
//! `TrafficStats` already counts (forwards, deliveries, drops, escape
//! diversions and occupancy) it leaves to `TrafficStats`, so every
//! number a run reports has one producer. Per-link state lives in a
//! flat array sized at construction.

use crate::probe::{Event, Probe};

/// Inclusive upper bounds of the queue-depth histogram's buckets
/// (powers of two); the implicit `+inf` bucket catches deeper queues.
const DEPTH_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// A histogram over fixed upper-bound buckets plus an overflow bucket.
///
/// `bounds` are inclusive upper bounds in strictly increasing order;
/// a sample lands in the first bucket whose bound it does not exceed,
/// or in the final `+inf` bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
}

impl Histogram {
    /// A histogram with the given inclusive upper bounds.
    ///
    /// # Panics
    /// If `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, sample: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| sample <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
    }

    /// Per-bucket counts; the last entry is the `+inf` bucket.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Render as aligned `<=bound count bar` lines.
    #[must_use]
    pub fn render(&self) -> String {
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let label = match self.bounds.get(i) {
                Some(b) => format!("<={b}"),
                None => "+inf".to_string(),
            };
            let bar = "#".repeat((c * 40 / peak) as usize);
            out.push_str(&format!("{label:>8} {c:>10} {bar}\n"));
        }
        out
    }
}

/// One entry of the hot-link table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotLink {
    /// Link tail PE (Lehmer rank).
    pub pe: u32,
    /// Generator of the link (`1..n`).
    pub gen: u8,
    /// Flits forwarded over the link.
    pub count: u64,
}

/// A dashboard probe for interconnect runs.
///
/// Construct with the network's `node_count()` and `n() - 1`
/// generators; optionally attach a tenant owner map to get per-tenant
/// in-flight peaks. Attach with [`Network::simulate`] — the run's
/// `TrafficStats` are untouched (asserted by the differential suite).
///
/// [`Network::simulate`]: ../sg_net/struct.Network.html#method.simulate
#[derive(Debug, Clone)]
pub struct NetProbe {
    gens: usize,
    link_forwards: Vec<u64>,
    depth: Histogram,
    peak_depth: u32,
    peak_depth_round: u32,
    /// Largest `RoundEnd` queued total and its round, earliest on ties.
    peak_queued: Option<(u64, u32)>,
    owner: Vec<u32>,
    /// Per tenant: flits in flight now, and the peak.
    in_flight: Vec<(u64, u64)>,
    entered: Vec<bool>,
}

impl NetProbe {
    /// A probe for a network of `node_count` PEs with `gens = n - 1`
    /// generators per PE.
    #[must_use]
    pub fn new(node_count: usize, gens: usize) -> Self {
        Self {
            gens,
            link_forwards: vec![0; node_count * gens],
            depth: Histogram::new(DEPTH_BUCKETS),
            peak_depth: 0,
            peak_depth_round: 0,
            peak_queued: None,
            owner: Vec::new(),
            in_flight: Vec::new(),
            entered: Vec::new(),
        }
    }

    /// Attach a tenant owner map (`owner[pid] = tenant index`) and
    /// track one in-flight peak per tenant.
    #[must_use]
    pub fn with_tenants(mut self, owner: Vec<u32>, tenants: usize) -> Self {
        self.in_flight = vec![(0, 0); tenants];
        self.entered = vec![false; owner.len()];
        self.owner = owner;
        self
    }

    fn enter(&mut self, pid: u32) {
        if let Some(&t) = self.owner.get(pid as usize) {
            if !std::mem::replace(&mut self.entered[pid as usize], true) {
                let (now, peak) = &mut self.in_flight[t as usize];
                *now += 1;
                *peak = (*peak).max(*now);
            }
        }
    }

    fn exit(&mut self, pid: u32) {
        if let Some(&t) = self.owner.get(pid as usize) {
            if std::mem::replace(&mut self.entered[pid as usize], false) {
                self.in_flight[t as usize].0 -= 1;
            }
        }
    }

    /// The `k` busiest links, by forward count (ties: lowest PE, then
    /// lowest generator — deterministic).
    #[must_use]
    pub fn top_links(&self, k: usize) -> Vec<HotLink> {
        let mut busy: Vec<HotLink> = self
            .link_forwards
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &count)| HotLink {
                pe: (i / self.gens) as u32,
                gen: (i % self.gens + 1) as u8,
                count,
            })
            .collect();
        busy.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then(a.pe.cmp(&b.pe))
                .then(a.gen.cmp(&b.gen))
        });
        busy.truncate(k);
        busy
    }

    /// Peak single-queue depth observed, and the round it was first
    /// reached.
    #[must_use]
    pub fn peak_queue_depth(&self) -> (u32, u32) {
        (self.peak_depth, self.peak_depth_round)
    }

    /// The queue-depth histogram (one sample per enqueue).
    #[must_use]
    pub fn depth_histogram(&self) -> &Histogram {
        &self.depth
    }

    /// The most flits queued at the end of any round, and the earliest
    /// round that reached it; `None` before the first `RoundEnd`.
    #[must_use]
    pub fn peak_queued(&self) -> Option<(u64, u32)> {
        self.peak_queued
    }

    /// Peak in-flight flits for tenant `t` (requires
    /// [`NetProbe::with_tenants`]).
    #[must_use]
    pub fn tenant_peak_in_flight(&self, t: usize) -> u64 {
        self.in_flight.get(t).map_or(0, |&(_, peak)| peak)
    }

    /// Render the probe's dashboard section: top-k hot links, the
    /// queue-depth histogram, and the peak queued flits.
    #[must_use]
    pub fn render(&self, k: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!("top-{k} hot links (pe, generator, flits):\n"));
        for l in self.top_links(k) {
            out.push_str(&format!("  pe {:>7}  g{}  {:>9}\n", l.pe, l.gen, l.count));
        }
        let (d, r) = self.peak_queue_depth();
        out.push_str(&format!(
            "peak queue depth {d} first reached in round {r}\n"
        ));
        out.push_str("queue-depth histogram (samples are depth-after-push):\n");
        out.push_str(&self.depth.render());
        if let Some((v, round)) = self.peak_queued {
            out.push_str(&format!("peak queued flits {v} in round {round}\n"));
        }
        out
    }
}

impl Probe for NetProbe {
    fn event(&mut self, ev: &Event) {
        match *ev {
            Event::RoundEnd { round, queued, .. } => {
                if self.peak_queued.is_none_or(|(peak, _)| queued > peak) {
                    self.peak_queued = Some((queued, round));
                }
            }
            Event::Forwarded { pid, from, gen, .. } => {
                self.link_forwards[from as usize * self.gens + (gen as usize - 1)] += 1;
                self.enter(pid);
            }
            Event::Queued {
                round,
                pid,
                depth,
                escape,
                ..
            } => {
                if !escape {
                    self.depth.record(u64::from(depth));
                    if depth > self.peak_depth {
                        self.peak_depth = depth;
                        self.peak_depth_round = round;
                    }
                }
                self.enter(pid);
            }
            Event::Dropped { pid, .. } | Event::Delivered { pid, .. } => self.exit(pid),
            Event::RoundBegin { .. }
            | Event::Stalled { .. }
            | Event::Diverted { .. }
            | Event::JobArrived { .. }
            | Event::JobPlaced { .. }
            | Event::JobReleased { .. }
            | Event::JobReserved { .. }
            | Event::JobBackfilled { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queued(round: u32, pid: u32, pe: u32, depth: u32, escape: bool) -> Event {
        Event::Queued {
            round,
            pid,
            pe,
            gen: 1,
            depth,
            escape,
        }
    }

    fn round_end(round: u32, queued: u64) -> Event {
        Event::RoundEnd {
            round,
            queued,
            in_flight: 0,
            stalled: 0,
        }
    }

    #[test]
    fn histogram_buckets_inclusive_bounds() {
        let mut h = Histogram::new(&[1, 4, 16]);
        for s in [0, 1, 2, 4, 5, 16, 17, 1000] {
            h.record(s);
        }
        assert_eq!(h.counts(), &[2, 2, 2, 2]);
        assert!(h.render().contains("+inf"));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[4, 4]);
    }

    #[test]
    fn counts_forwards_per_link_and_tracks_peak_depth() {
        let mut p = NetProbe::new(4, 2);
        p.event(&Event::RoundBegin { round: 0 });
        p.event(&queued(0, 0, 1, 1, false));
        p.event(&queued(0, 1, 1, 2, false));
        p.event(&queued(0, 2, 1, 3, true));
        p.event(&Event::Forwarded {
            round: 0,
            pid: 0,
            from: 1,
            to: 3,
            gen: 2,
            escape: false,
        });
        p.event(&round_end(0, 2));
        assert_eq!(p.peak_queue_depth(), (2, 0), "escape flits stay out");
        assert_eq!(p.depth_histogram().counts()[..2], [1, 1]);
        let top = p.top_links(3);
        assert_eq!(top.len(), 1);
        assert_eq!((top[0].pe, top[0].gen, top[0].count), (1, 2, 1));
        assert_eq!(p.peak_queued(), Some((2, 0)));
    }

    #[test]
    fn peak_queued_prefers_the_earliest_round_on_ties() {
        let mut p = NetProbe::new(2, 1);
        assert_eq!(p.peak_queued(), None);
        for (round, q) in [(1, 7), (2, 7), (3, 5)] {
            p.event(&round_end(round, q));
        }
        assert_eq!(p.peak_queued(), Some((7, 1)));
        assert!(p.render(1).ends_with("peak queued flits 7 in round 1\n"));
    }

    #[test]
    fn tenant_gauges_track_in_flight() {
        let mut p = NetProbe::new(2, 1).with_tenants(vec![0, 0, 1, 0], 2);
        for pid in [0u32, 1] {
            p.event(&queued(0, pid, 0, pid + 1, false));
        }
        p.event(&queued(0, 2, 1, 1, false));
        assert_eq!(p.tenant_peak_in_flight(0), 2);
        assert_eq!(p.tenant_peak_in_flight(1), 1);
        p.event(&Event::Delivered {
            round: 3,
            pid: 0,
            pe: 1,
            hops: 1,
        });
        // Packet 0 left, so packet 3 brings tenant 0 back to 2, not 3.
        p.event(&queued(4, 3, 0, 1, false));
        assert_eq!(p.tenant_peak_in_flight(0), 2);
        assert_eq!(p.tenant_peak_in_flight(2), 0, "no such tenant");
    }
}
