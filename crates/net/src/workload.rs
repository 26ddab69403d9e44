//! Traffic workload generators.
//!
//! A [`Workload`] is a deterministic list of [`Injection`]s (round,
//! source PE, destination PE), sorted by round. All randomized
//! generators are seeded, so a `(generator, seed)` pair always
//! produces byte-identical traffic — the determinism property the
//! test suite asserts end-to-end.
//!
//! A workload can also carry **phase barriers** ([`Workload::chain`]):
//! phase `k + 1`'s rounds count from one round after the last packet
//! of phase `k` resolves, a round only the run itself can tell.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use sg_core::lemma3::{mesh_neighbor_minus, mesh_neighbor_plus};
use sg_perm::factorial::factorial;
use sg_perm::lehmer::{rank, unrank};

/// One packet to be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Round at which the packet enters its source PE.
    pub round: u32,
    /// Source PE (Lehmer rank of its star node).
    pub src: u64,
    /// Destination PE (Lehmer rank).
    pub dst: u64,
}

/// A named batch of injections, sorted by round, optionally followed
/// by barrier phases (see [`Workload::chain`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    name: String,
    n: usize,
    injections: Vec<Injection>,
    /// The barrier phases, in packet order; empty for an ungated
    /// workload. Packets before the first phase are ungated.
    gates: Vec<Gate>,
}

/// One barrier phase: packet ids `start..end`, whose injection rounds
/// count from the round the phase opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Gate {
    pub(crate) start: u32,
    pub(crate) end: u32,
    /// `Some(t)`: the phase opens at round `t` (the head of a chain).
    /// `None`: it opens one round after the last packet of the phase
    /// before it resolves.
    pub(crate) at: Option<u32>,
}

impl Workload {
    /// Builds a workload from raw injections (sorted by round, stably,
    /// so same-round order is the caller's order).
    ///
    /// # Panics
    /// Panics if any rank is `≥ n!`.
    #[must_use]
    pub fn from_injections(name: &str, n: usize, mut injections: Vec<Injection>) -> Self {
        check_and_sort(n, &mut injections);
        Workload {
            name: name.to_string(),
            n,
            injections,
            gates: Vec::new(),
        }
    }

    /// The Lemma-5 scenario: every mesh node with a neighbor along
    /// dimension `k` (direction `plus`) sends one packet to that
    /// neighbor, all at round 0. Under [`crate::EmbeddingRouting`]
    /// this is exactly one SIMD-A mesh unit route.
    ///
    /// # Panics
    /// Panics unless `1 ≤ k < n`.
    #[must_use]
    pub fn dimension_sweep(n: usize, k: usize, plus: bool) -> Self {
        assert!(k >= 1 && k < n, "dimension out of range");
        let mut injections = Vec::new();
        for r in 0..factorial(n) {
            let pi = unrank(r, n).expect("rank in range");
            let neighbor = if plus {
                mesh_neighbor_plus(&pi, k)
            } else {
                mesh_neighbor_minus(&pi, k)
            };
            if let Some(q) = neighbor {
                injections.push(Injection {
                    round: 0,
                    src: r,
                    dst: rank(&q),
                });
            }
        }
        let sign = if plus { '+' } else { '-' };
        Workload::from_injections(&format!("sweep(k={k},{sign})"), n, injections)
    }

    /// Uniform random permutation traffic: destinations are a seeded
    /// random permutation of the PEs, one packet per PE at round 0
    /// (fixed points — self-sends — are skipped).
    #[must_use]
    pub fn random_permutation(n: usize, seed: u64) -> Self {
        let size = factorial(n);
        let mut dst: Vec<u64> = (0..size).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        dst.shuffle(&mut rng);
        let injections = dst
            .into_iter()
            .enumerate()
            .filter(|&(src, d)| src as u64 != d)
            .map(|(src, d)| Injection {
                round: 0,
                src: src as u64,
                dst: d,
            })
            .collect();
        Workload::from_injections("random-perm", n, injections)
    }

    /// Transpose-style fixed permutation: every PE `π` sends to `π⁻¹`
    /// at round 0 (the star-graph analogue of mesh transpose traffic;
    /// an involution, so traffic is perfectly symmetric). Self-inverse
    /// nodes are skipped.
    #[must_use]
    pub fn transpose(n: usize) -> Self {
        let mut injections = Vec::new();
        for r in 0..factorial(n) {
            let pi = unrank(r, n).expect("rank in range");
            let inv = rank(&pi.inverse());
            if inv != r {
                injections.push(Injection {
                    round: 0,
                    src: r,
                    dst: inv,
                });
            }
        }
        Workload::from_injections("transpose", n, injections)
    }

    /// Hot-spot traffic at round 0: each PE draws its destination —
    /// `hotspot` with probability `hot_pct`%, a uniformly random PE
    /// otherwise (so background traffic can still hit the hotspot by
    /// chance). Draws that land on the sender itself are skipped
    /// rather than redrawn, so the packet count can be slightly below
    /// `n!` (and the hotspot PE sends nothing at `hot_pct = 100`).
    ///
    /// # Panics
    /// Panics if `hot_pct > 100` or `hotspot ≥ n!`.
    #[must_use]
    pub fn hot_spot(n: usize, hotspot: u64, hot_pct: u32, seed: u64) -> Self {
        assert!(hot_pct <= 100, "hot_pct is a percentage");
        let size = factorial(n);
        assert!(hotspot < size, "hotspot rank out of range");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut injections = Vec::new();
        for src in 0..size {
            let dst = if rng.gen_range(0u32..100) < hot_pct {
                hotspot
            } else {
                rng.gen_range(0..size)
            };
            if dst != src {
                injections.push(Injection { round: 0, src, dst });
            }
        }
        Workload::from_injections(&format!("hotspot({hot_pct}%)"), n, injections)
    }

    /// Open-loop uniform traffic: for `rounds` rounds, every PE
    /// injects a packet with probability `rate_pct`% per round, to a
    /// uniformly random other PE. `rate_pct = 100` is full injection
    /// — one packet per PE per round — the saturation regime where
    /// queueing is unavoidable.
    ///
    /// # Panics
    /// Panics if `rate_pct > 100`.
    #[must_use]
    pub fn bernoulli_uniform(n: usize, rounds: u32, rate_pct: u32, seed: u64) -> Self {
        assert!(rate_pct <= 100, "rate_pct is a percentage");
        let size = factorial(n);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut injections = Vec::new();
        for round in 0..rounds {
            for src in 0..size {
                if rng.gen_range(0u32..100) < rate_pct {
                    let dst = rng.gen_range(0..size);
                    if dst != src {
                        injections.push(Injection { round, src, dst });
                    }
                }
            }
        }
        Workload::from_injections(&format!("uniform({rate_pct}%)"), n, injections)
    }

    /// Fixed-count uniform random traffic: exactly `pairs` packets,
    /// each with an independently uniform source and destination
    /// (`src ≠ dst`, redrawn on collision), all injected at round 0.
    ///
    /// Unlike [`Workload::bernoulli_uniform`] the generation cost is
    /// `O(pairs)` rather than `O(n!·rounds)`, which is what the
    /// differential suite and the engine benchmarks want: the same
    /// traffic shape at a size chosen independently of `n!`.
    #[must_use]
    pub fn uniform_pairs(n: usize, pairs: usize, seed: u64) -> Self {
        let size = factorial(n);
        debug_assert!(size >= 2, "S_n has at least two PEs for n >= 2");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut injections = Vec::with_capacity(pairs);
        for _ in 0..pairs {
            let src = rng.gen_range(0..size);
            let mut dst = rng.gen_range(0..size);
            while dst == src {
                dst = rng.gen_range(0..size);
            }
            injections.push(Injection { round: 0, src, dst });
        }
        Workload::from_injections(&format!("pairs({pairs})"), n, injections)
    }

    /// Stably merges per-tenant workloads into one shared-network
    /// workload. Part `j`'s injections are offset by its start round
    /// and tagged with owner `j`; the merge is **stable** — packets
    /// of the same round keep part order, and packets of the same
    /// part keep their own order — so each tenant sees exactly the
    /// injection sequence it would see alone, shifted in time. The
    /// returned owner map (one entry per packet of the merged
    /// workload, aligned with [`Workload::injections`]) is what
    /// [`crate::Tenants::PerJob`] attributes statistics by.
    ///
    /// Barriers stay phase-local: a part's phases keep gating only
    /// each other, its chain heads open at their rounds plus the
    /// part's offset, and the ungated packets of every part never
    /// wait on them. Packet ids run in this order: first the ungated
    /// packets of all parts, merged as above, then each gated part's
    /// phases in part order, phase by phase. Without barriers this is
    /// the plain stable merge.
    ///
    /// # Panics
    /// Panics if a part targets a different star order, or if a
    /// part's offset pushes one of its rounds past `u32::MAX`.
    #[must_use]
    pub fn compose(name: &str, n: usize, parts: &[(&Workload, u32)]) -> (Workload, Vec<u32>) {
        let shift = |j: usize, round: u32, offset: u32| {
            round.checked_add(offset).unwrap_or_else(|| {
                panic!("part {j}: round {round} + offset {offset} overflows u32")
            })
        };
        let mut tagged: Vec<(Injection, u32)> = Vec::new();
        for (j, &(w, offset)) in parts.iter().enumerate() {
            assert_eq!(w.n(), n, "part {j} targets S_{} not S_{n}", w.n());
            tagged.extend(w.injections[..w.lead()].iter().map(|i| {
                let round = shift(j, i.round, offset);
                (Injection { round, ..*i }, j as u32)
            }));
        }
        tagged.sort_by_key(|(i, _)| i.round);
        let mut owner: Vec<u32> = tagged.iter().map(|&(_, j)| j).collect();
        let mut injections: Vec<Injection> = tagged.into_iter().map(|(i, _)| i).collect();
        let mut gates = Vec::new();
        for (j, &(w, offset)) in parts.iter().enumerate() {
            let (lead, base) = (w.lead() as u32, injections.len() as u32);
            injections.extend_from_slice(&w.injections[lead as usize..]);
            owner.resize(injections.len(), j as u32);
            gates.extend(w.gates.iter().map(|g| Gate {
                start: g.start - lead + base,
                end: g.end - lead + base,
                at: g.at.map(|t| shift(j, t, offset)),
            }));
        }
        // Every part validated its ranks, and the ungated packets are
        // already round-sorted.
        let merged = Workload {
            name: name.to_string(),
            n,
            injections,
            gates,
        };
        (merged, owner)
    }

    /// Chains `phases` behind barriers, simulating nothing: phase `0`
    /// injects from round 0, and phase `k + 1`'s rounds count from one
    /// round after the last packet of phase `k` resolves (delivery or
    /// drop). The network is then empty at every phase boundary, so a
    /// run behaves, phase by phase, exactly like each phase run alone
    /// and shifted in time — the temporal analogue of the spatial
    /// isolation theorem. An empty phase still advances the clock by
    /// one round.
    ///
    /// Each phase is its injections, sorted by round stably as in
    /// [`Workload::from_injections`]. Packets are numbered phase by
    /// phase, and the owner map names each packet's phase. A run
    /// records every packet's realized injection round in
    /// [`crate::PacketRecord::inject_round`]; if a phase never resolves
    /// (a credit deadlock, or the round cap), the phases after it never
    /// open, and their packets end [`crate::PacketOutcome::Stranded`]
    /// with the round the run gave up as their injection round.
    ///
    /// # Panics
    /// Panics if any rank is `≥ n!`.
    #[must_use]
    pub fn chain<P>(name: &str, n: usize, phases: impl IntoIterator<Item = P>) -> ChainedWorkload
    where
        P: IntoIterator<Item = Injection>,
    {
        let mut injections = Vec::new();
        let mut owner = Vec::new();
        let mut gates = Vec::new();
        for (k, phase) in phases.into_iter().enumerate() {
            let start = injections.len();
            injections.extend(phase);
            check_and_sort(n, &mut injections[start..]);
            owner.resize(injections.len(), k as u32);
            gates.push(Gate {
                start: start as u32,
                end: injections.len() as u32,
                at: (k == 0).then_some(0),
            });
        }
        let workload = Workload {
            name: name.to_string(),
            n,
            injections,
            gates,
        };
        ChainedWorkload { workload, owner }
    }

    /// Workload name (used in tables and reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Star order `n` the workload targets.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The injections: the ungated packets sorted by round, then each
    /// barrier phase's packets sorted by their round relative to the
    /// round the phase opens.
    #[must_use]
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// The barrier phases, in packet order.
    pub(crate) fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of ungated packets (they come first).
    pub(crate) fn lead(&self) -> usize {
        self.gates
            .first()
            .map_or(self.injections.len(), |g| g.start as usize)
    }

    /// Number of packets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.injections.len()
    }

    /// `true` if no packets are injected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }
}

/// Checks every rank against `n!` and sorts by round, stably, so
/// same-round order is the caller's order.
fn check_and_sort(n: usize, injections: &mut [Injection]) {
    let size = factorial(n);
    for inj in injections.iter() {
        assert!(inj.src < size && inj.dst < size, "PE rank out of range");
    }
    injections.sort_by_key(|i| i.round);
}

/// A multi-phase workload with inject-after-quiescence barriers,
/// produced by [`Workload::chain`]. Run [`workload`](Self::workload)
/// like any other [`Workload`]: each phase opens one round after its
/// predecessor's last packet resolves, so every phase's start and
/// makespan are read from the run — a packet's realized injection
/// round is its phase's start plus its round within the phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainedWorkload {
    /// The chained workload: every phase, numbered phase by phase.
    pub workload: Workload,
    /// Phase index of each packet of [`workload`](Self::workload), in
    /// packet order — the owner map [`crate::Tenants::PerJob`]
    /// expects, so per-phase
    /// statistics of the chained run can be split out directly.
    pub owner: Vec<u32>,
}

impl ChainedWorkload {
    /// Number of phases.
    #[must_use]
    pub fn phase_count(&self) -> usize {
        self.workload.gates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_sweep_counts_match_lemma5() {
        // Along dimension k, '+' participants number n!·k/(k+1).
        let n = 5;
        for k in 1..n {
            let w = Workload::dimension_sweep(n, k, true);
            assert_eq!(w.len() as u64, factorial(n) * k as u64 / (k as u64 + 1));
            let wm = Workload::dimension_sweep(n, k, false);
            assert_eq!(wm.len(), w.len());
        }
    }

    #[test]
    fn random_permutation_is_a_permutation() {
        let w = Workload::random_permutation(4, 42);
        let mut seen = [false; 24];
        for inj in w.injections() {
            assert!(!seen[inj.dst as usize], "duplicate destination");
            seen[inj.dst as usize] = true;
            assert_ne!(inj.src, inj.dst);
        }
        // Deterministic per seed.
        assert_eq!(w, Workload::random_permutation(4, 42));
        assert_ne!(
            w.injections(),
            Workload::random_permutation(4, 43).injections()
        );
    }

    #[test]
    fn transpose_pairs_up() {
        let w = Workload::transpose(4);
        for inj in w.injections() {
            let pi = unrank(inj.src, 4).unwrap();
            assert_eq!(rank(&pi.inverse()), inj.dst);
        }
    }

    #[test]
    fn bernoulli_rate_bounds() {
        let zero = Workload::bernoulli_uniform(4, 10, 0, 1);
        assert!(zero.is_empty());
        let full = Workload::bernoulli_uniform(4, 10, 100, 1);
        // rate 100 injects every PE every round, minus skipped self-sends.
        assert!(full.len() as u64 >= 10 * 24 - 20);
        assert!(full
            .injections()
            .windows(2)
            .all(|w| w[0].round <= w[1].round));
    }

    #[test]
    fn uniform_pairs_sized_and_seeded() {
        let w = Workload::uniform_pairs(4, 100, 9);
        assert_eq!(w.len(), 100);
        assert!(w.injections().iter().all(|i| i.src != i.dst));
        assert!(w.injections().iter().all(|i| i.round == 0));
        assert_eq!(w, Workload::uniform_pairs(4, 100, 9));
        assert_ne!(
            w.injections(),
            Workload::uniform_pairs(4, 100, 10).injections()
        );
    }

    #[test]
    fn hot_spot_concentrates() {
        let hot = Workload::hot_spot(5, 7, 100, 3);
        assert!(hot.injections().iter().all(|i| i.dst == 7));
        let none = Workload::hot_spot(5, 7, 0, 3);
        let frac = none.injections().iter().filter(|i| i.dst == 7).count();
        assert!(frac < 10, "0% hot traffic should rarely hit the hotspot");
    }

    #[test]
    #[should_panic(expected = "part 1: round 2 + offset 4294967294 overflows u32")]
    fn compose_refuses_to_wrap_a_round() {
        let inj = |round| Injection {
            round,
            src: 0,
            dst: 1,
        };
        let w = Workload::from_injections("two", 4, vec![inj(0), inj(2)]);
        let _ = Workload::compose("m", 4, &[(&w, 0), (&w, u32::MAX - 1)]);
    }

    #[test]
    fn compose_reaches_the_last_round_exactly() {
        let w = Workload::uniform_pairs(4, 3, 1);
        let (merged, _) = Workload::compose("last", 4, &[(&w, u32::MAX)]);
        assert_eq!(merged.injections().len(), 3);
        assert!(merged.injections().iter().all(|i| i.round == u32::MAX));
    }
}
