//! The round-based discrete-event interconnect simulator — two
//! engines, one semantics.
//!
//! Model: one PE per star node (addressed by Lehmer rank). Each PE
//! owns `n−1` output queues, one per generator link. A round has four
//! deterministic phases:
//!
//! 1. **Arrivals** — flits finishing a link traversal land at the far
//!    PE; a flit at its destination is delivered, any other is
//!    enqueued on the output queue its hop rule names next: its
//!    route's next generator, the greedy hop off the `dst⁻¹ ∘ cur` it
//!    carries, or the queue the adaptive policy picks (see
//!    [`crate::HopRule`]).
//! 2. **Injections** — packets stalled for credit retry in FIFO
//!    order, then this round's workload packets enter their source
//!    PE's queues.
//! 3. **Arbitration** — every link forwards **at most one flit per
//!    round** (FIFO head of its queue); the flit is in flight for
//!    [`NetConfig::link_latency`] rounds. Under
//!    [`FlowControl::CreditBased`] a head flit stalls in place while
//!    the downstream PE has no free buffer credit.
//! 4. **Accounting** — every flit still queued is charged one wait
//!    round; every packet still stalled pre-injection is charged one
//!    stall round.
//!
//! PEs are scanned in rank order and queues in generator order, so a
//! run is a pure function of `(workload, policy, config, faults)`.
//!
//! ## Phase barriers
//!
//! A workload built by [`Workload::chain`] carries barriers: its
//! phases are contiguous packet-id ranges whose injection rounds count
//! from the round the phase opens. Both engines drive the same
//! injection schedule: ungated packets inject at their rounds, a chain
//! head opens at its round, and every later phase opens one round
//! after the last packet of the phase before it resolves (delivery or
//! drop). The engines learn that at the end of the round: a phase
//! that has injected every packet scans forward over its packets'
//! outcomes, so each outcome is looked at about once per run and a
//! resolution itself costs nothing extra. An empty phase opens and
//! resolves at once, so its successor opens a round later. Packets due
//! in the same round inject in packet-id order. The fast engine's idle
//! skip jumps straight to a phase's opening round. If the run gives up
//! (round cap or credit deadlock), phases that never opened strand
//! with the round it gave up as their injection round. Each
//! [`crate::PacketRecord::inject_round`] holds the realized round, so
//! nothing downstream — statistics, rebasing, trace replay — needs to
//! know about barriers.
//!
//! ## The two engines
//!
//! Both engines drive one run core, generic over the two things they
//! keep differently: the queue store and the accounting sink. The core
//! holds every rule they share — the packet table, routes, the state
//! greedy and adaptive packets carry, and outcomes; credits; the
//! injection phase with its stalled retries; landing and delivery;
//! next-hop selection with its drop path; tail-drop placement; the
//! escape bank's landing, forwarding and diversions; strands; and the
//! lazy round bracket — so a rule is written once and each engine's
//! round loop is statically dispatched.
//!
//! Setup packs what each packet follows once, by its policy's
//! [`crate::HopRule`]. A source-routed packet unranks its endpoints and
//! its route goes into the run's route arena. A greedy packet packs
//! `dst⁻¹ ∘ src` into its own record and an adaptive one its selector
//! state into a side table, both straight from the packed Lehmer
//! decodes of the two ranks ([`sg_perm::lehmer::unrank_packed`]) by
//! one nibble scatter and one gather, with no [`Perm`]: only an
//! adaptive destination's mesh coordinates go through one. Only
//! source-routed policies append to the arena, so a greedy run routes
//! nothing at setup and reads no route byte per hop.
//!
//! [`Engine::Reference`] is the transparent oracle. It keeps what the
//! differential suite checks the fast engine against: a `VecDeque` per
//! queue, an arbitration phase that scans *every* queue every round
//! (`O(n!·(n−1))` per round no matter how idle the network is),
//! arrivals that name no queue, so every flit lands through next-hop
//! selection, no skipped rounds, and its own arithmetic on the
//! [`RunCounters`].
//!
//! [`Engine::Fast`] (the default behind [`Network::run`]) is the
//! production engine:
//!
//! * an **active-queue worklist** — an occupancy bitmap scanned a
//!   word at a time — so arbitration touches only non-empty queues,
//!   in exactly the reference scan order;
//! * **intrusive per-link FIFOs** — each output queue is a 12-byte
//!   `{head, tail, len}` record and one `next` link per packet chains
//!   the flits behind the head (a flit sits in at most one queue at a
//!   time), so a queue one flit deep touches no other memory;
//! * **batched arrivals keyed by round** — flits landing in round `r`
//!   are drained as one batch from a `link_latency + 1` lane ring.
//!   Each arrival record names the output queue its flit joins at the
//!   landing PE whenever the forward can know it (a source-routed or
//!   greedy flit short of its destination on a fault-free network), so
//!   that flit lands without reading its packet record or route;
//! * **idle-round skipping** — when nothing is queued, time jumps
//!   straight to the next injection or landing round;
//! * every counter update goes to the run tally, the one
//!   implementation of the accounting rules, which the trace replayer
//!   feeds from a log and which alone splits a run by owner.
//!
//! The two engines are **observationally identical**: for any
//! `(workload, policy, config, faults)` they produce byte-identical
//! [`TrafficStats`] — enforced by `tests/differential.rs` across
//! every workload × policy × fault-plan axis. That suite checks what
//! the engines keep apart: the queue store, the scan, the arrival
//! hints, the idle skip and the tally. The rules they share are pinned
//! by hand-derived fixtures and oracles instead (`tests/escape_fixture.rs`
//! and `tests/deadlock.rs` for the escape bank, the routing-kernel
//! oracles for hop selection). Queue capacity is enforced at enqueue
//! time (tail drop) or as stalling buffer credits (see
//! [`FlowControl`]); faults are consulted whenever a flit is about to
//! take a link (see [`crate::FaultPlan`]).
//!
//! ## Observability
//!
//! The run core is generic over an [`sg_obs::Probe`] and emits typed
//! [`sg_obs::Event`]s at every state transition (enqueues, forwards,
//! stalls, diversions, drops, deliveries), in reference-scan order —
//! the differential suite asserts the two engines produce *identical
//! event streams*, not just identical stats. Round brackets are lazy:
//! `RoundBegin` precedes a round's first event and `RoundEnd` closes
//! it at accounting time, so a round in which nothing observable
//! happens (only in-flight flits crossing a multi-round link) emits
//! nothing — which is exactly what keeps the fast engine's idle-round
//! skipping invisible to probes. The default path runs with
//! [`sg_obs::NullProbe`], whose `ENABLED = false` constant folds
//! every emission site out of the monomorphized loop: attach nothing,
//! pay nothing. Attach a probe to any run through [`Network::simulate`];
//! profile the fast engine's phases via [`Network::run_profiled`]
//! (with a clock injected at construction through
//! [`Network::with_clock`], so profiled runs stay deterministic and
//! testable).

use crate::fault::{FaultPlan, FaultPolicy};
use crate::packet::{PacketId, PacketOutcome, PacketRecord};
use crate::routing::{HopRule, RoutingPolicy};
use crate::stats::{RunCounters, RunStats, TrafficStats};
use crate::tally::{RunTally, Sink};
use crate::workload::{Gate, Injection, Workload};
use rayon::prelude::*;
use sg_core::convert::convert_s_d_coords;
use sg_obs::{DropReason, Event, NullProbe, PhaseProfile, Probe, StallKind};
use sg_perm::factorial::factorial;
use sg_perm::lehmer::{next_perm, unrank, unrank_packed};
use sg_perm::{Perm, MAX_N};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;

/// Largest star order the simulator materializes: `9! = 362 880` PEs.
/// [`Network::new`] enforces it. Through `MAX_GENS = MAX_ORDER − 1` it
/// sizes the adaptive selector's per-PE occupancy array, and a node's
/// `MAX_ORDER` symbols fit the 4-bit fields of the state a greedy or
/// adaptive packet carries (36 bits, so a greedy packet's word fits
/// the two span fields of its record).
pub const MAX_ORDER: usize = 9;

/// Generators per PE at [`MAX_ORDER`]: the length of the per-PE stack
/// buffers.
const MAX_GENS: usize = MAX_ORDER - 1;

/// What happens when a packet heads for a full downstream buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowControl {
    /// Enqueue onto a full queue drops the packet
    /// ([`crate::PacketOutcome::DroppedOverflow`]). The classic lossy
    /// model; [`NetConfig::queue_capacity`] bounds each queue.
    #[default]
    TailDrop,
    /// Credit-based (shared-buffer virtual cut-through): each PE owns
    /// a pool of `queue_capacity × (n−1)` buffer slots shared by its
    /// output queues. A flit is forwarded over a link only when the
    /// downstream PE has a free slot (reserved at forward time,
    /// released on delivery), and a packet enters the network only
    /// when its source PE has one — otherwise it **stalls at the
    /// source** and retries every round, FIFO. Nothing is ever
    /// tail-dropped; `queue_capacity = None` means infinite credits.
    CreditBased,
    /// [`FlowControl::CreditBased`] plus a deadlock-free **escape
    /// partition** per PE. The adaptive partition is the identical
    /// credit pool; on top of it every PE reserves one escape buffer
    /// slot per *residual-hop class* (Gopal's structured buffer pool,
    /// graded by hops left on the packet's pinned escape route). A
    /// head flit stalled for adaptive credit may **divert**: it claims
    /// the escape slot of its residual class, is re-routed onto the
    /// canonical dimension-order embedding path (BFS over the
    /// surviving subgraph when faults are installed) and from then on
    /// travels the escape channel, which has priority on every link
    /// and forwards lowest residual class first. A class-`k` flit
    /// moving to the next PE needs only the class-`k−1` slot there, so
    /// the slot-dependency relation is strictly decreasing — acyclic —
    /// and on a fault-free network **no packet is ever
    /// [`crate::PacketOutcome::Stranded`]**: the configurations where
    /// `CreditBased` deadlocks drain to completion (the tiny-pool
    /// sweep in `tests/deadlock.rs` proves the contrast). Diversions
    /// are counted in [`crate::TrafficStats::escape_diversions`].
    EscapeChannel,
}

/// Which simulation engine executes the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Worklist + intrusive per-link FIFOs + batched arrivals that
    /// name each flit's next queue (the default).
    #[default]
    Fast,
    /// The scan-everything oracle the differential suite compares
    /// against.
    Reference,
}

/// Who a run's packets belong to: how each routes, and whether it may
/// divert onto the escape channel.
#[derive(Clone, Copy)]
pub enum Tenants<'a> {
    /// Every packet routes under one policy and may divert.
    One(&'a dyn RoutingPolicy),
    /// A multi-tenant run over one shared interconnect (see
    /// [`Workload::compose`]), with per-job routing and statistics.
    PerJob {
        /// `policies[j]` routes job `j`'s packets.
        policies: &'a [&'a dyn RoutingPolicy],
        /// `owner[pid]` names the job packet `pid` belongs to.
        owner: &'a [u32],
        /// Under [`FlowControl::EscapeChannel`], only jobs with
        /// `escape[j]` may divert; the others run as under
        /// [`FlowControl::CreditBased`] and can still deadlock, so
        /// mixing opt-ins trades the global deadlock-freedom guarantee
        /// for per-tenant control. Inert under other flow control.
        escape: &'a [bool],
    },
}

impl<'a> Tenants<'a> {
    /// The owner map and job count of a [`Tenants::PerJob`] run.
    pub(crate) fn owner(self) -> Option<(&'a [u32], usize)> {
        match self {
            Tenants::One(_) => None,
            Tenants::PerJob {
                policies, owner, ..
            } => Some((owner, policies.len())),
        }
    }
}

/// Tunable knobs of the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Rounds one link traversal takes (≥ 1).
    pub link_latency: u32,
    /// Per-output-queue capacity; `None` = unbounded (the default —
    /// packet conservation then means every packet is delivered).
    /// Under [`FlowControl::CreditBased`] this sizes the shared
    /// per-PE buffer pool instead (`capacity × (n−1)` slots).
    pub queue_capacity: Option<u32>,
    /// What a full downstream buffer does: drop or stall.
    pub flow_control: FlowControl,
    /// Safety valve: packets unresolved after this many rounds are
    /// recorded as [`PacketOutcome::Stranded`]. (A credit deadlock —
    /// possible when tiny pools form a cycle of full PEs — is
    /// detected as soon as the network provably cannot move again and
    /// strands the survivors immediately instead of spinning to this
    /// cap.)
    pub max_rounds: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            link_latency: 1,
            queue_capacity: None,
            flow_control: FlowControl::TailDrop,
            max_rounds: 1_000_000,
        }
    }
}

/// One packet that outlived its tenant's sub-star release — evidence
/// of a dirty region handoff, produced by
/// [`Network::region_quiescence_violations`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuiescenceViolation {
    /// Owning job (index into the run's policy/release tables).
    pub job: u32,
    /// Offending packet id.
    pub pid: u32,
    /// Round the packet resolved (delivery or drop), or `None` for a
    /// stranded packet that never resolved at all.
    pub resolved: Option<u32>,
    /// Round the scheduler returned the job's sub-star. Quiescence
    /// requires `resolved < release`.
    pub release: u32,
}

/// A simulated `S_n` interconnect: topology + configuration + faults.
///
/// The struct is immutable; [`Network::run`] builds fresh per-run
/// state, so one `Network` can drive many workloads.
///
/// ```
/// use sg_net::{GreedyRouting, Network, Workload};
/// let net = Network::new(4);
/// let w = Workload::random_permutation(4, 0xC0FFEE);
/// let stats = net.run(&w, &GreedyRouting);
/// assert_eq!(stats.delivered, stats.injected); // nothing drops
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    n: usize,
    node_count: usize,
    config: NetConfig,
    faults: FaultPlan,
    /// `neighbor[u·(n−1) + (g−1)]` = rank of `u`'s neighbor via `g`.
    neighbor: Vec<u32>,
    /// Monotonic counter for [`Network::run_profiled`]; `None` means
    /// wall-clock nanoseconds. Never consulted outside profiled runs.
    clock: Option<fn() -> u64>,
}

impl Network {
    /// Builds the `S_n` interconnect with default configuration and no
    /// faults.
    ///
    /// # Panics
    /// Panics for `n` outside `2..=`[`MAX_ORDER`] (the node table is
    /// materialized, `9! = 362 880` PEs).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(
            (2..=MAX_ORDER).contains(&n),
            "simulator materializes n! PEs; supported for 2 <= n <= {MAX_ORDER}"
        );
        let node_count = factorial(n) as usize;
        let gens = n - 1;
        let mut neighbor = vec![0u32; node_count * gens];
        neighbor_rows(n, &mut neighbor);
        Network {
            n,
            node_count,
            config: NetConfig::default(),
            faults: FaultPlan::none(),
            neighbor,
            clock: None,
        }
    }

    /// Replaces the configuration.
    #[must_use]
    pub fn with_config(mut self, config: NetConfig) -> Self {
        assert!(config.link_latency >= 1, "links need at least one round");
        self.config = config;
        self
    }

    /// Installs a fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Installs the monotonic counter [`Network::run_profiled`]
    /// samples around the fast engine's phases. Defaults to
    /// [`sg_obs::wall_clock`] (nanoseconds). A test that wants exact
    /// counts injects a counting clock of its own, such as a
    /// thread-local counter each call advances by one: every phase
    /// delta is then exactly 1, so profile totals are exact round
    /// counts. The clock never influences the simulation itself:
    /// profiled stats stay byte-identical.
    #[must_use]
    pub fn with_clock(mut self, clock: fn() -> u64) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Star order.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of PEs (`n!`).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// The installed fault plan.
    #[must_use]
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    #[inline]
    fn neighbor_of(&self, u: u32, g: usize) -> u32 {
        self.neighbor[u as usize * (self.n - 1) + (g - 1)]
    }

    /// Per-PE buffer pool under credit-based flow control; `None`
    /// means credits are not limiting (tail-drop mode, or unbounded
    /// capacity).
    fn credit_pool(&self) -> Option<u64> {
        match self.config.flow_control {
            FlowControl::TailDrop => None,
            // The escape mode's adaptive partition is *exactly* the
            // credit-based pool, so deadlock-prone configurations stay
            // comparable between the two modes.
            FlowControl::CreditBased | FlowControl::EscapeChannel => self
                .config
                .queue_capacity
                .map(|cap| u64::from(cap) * (self.n as u64 - 1)),
        }
    }

    /// Runs `workload` for `tenants` on `engine` with `probe` attached:
    /// the one entry point behind every run method.
    ///
    /// Setup runs in parallel chunks: source-routed packets append
    /// their routes to the run's route arena, and greedy and adaptive
    /// packets pack the state they carry straight from their
    /// endpoints' ranks. The round loop is sequential and
    /// deterministic. `probe` sees the run's full [`sg_obs::Event`]
    /// stream in reference-scan order, the same on both engines, and
    /// leaves the statistics byte-identical; a [`NullProbe`] costs
    /// nothing.
    ///
    /// With [`Tenants::PerJob`] on the fast engine, `per_job` holds one
    /// fully attributed [`TrafficStats`] per job on the global clock
    /// ([`TrafficStats::rebased`] shifts it to the job's own): the
    /// records, latencies, waits, stalls and forwarded flits of the
    /// job's packets, and the queue and PE peaks seen at the job's own
    /// enqueues, foreign flits included — on a sub-star of its own
    /// they equal the isolated run's peaks, under sharing they measure
    /// interference. `per_job` is empty for [`Tenants::One`] and on
    /// [`Engine::Reference`], whose own counters cover the whole run
    /// only.
    ///
    /// # Panics
    /// Panics if the workload targets a different star order, or if a
    /// [`Tenants::PerJob`] owner map does not cover every packet or
    /// names a job without a policy, or its escape flags do not name
    /// every job.
    #[must_use]
    pub fn simulate<P: Probe>(
        &self,
        workload: &Workload,
        tenants: Tenants<'_>,
        engine: Engine,
        probe: &mut P,
    ) -> RunStats {
        match engine {
            Engine::Fast => self.run_fast(workload, tenants, probe, None).0,
            Engine::Reference => {
                let prepared = self.prepare(workload, tenants);
                let (counters, records) = ReferenceSim::new(self, workload, prepared, probe).run();
                counters.finish(self.n, records)
            }
        }
    }

    /// Runs `workload` under `policy` on the default [`Engine::Fast`].
    ///
    /// # Panics
    /// Panics if the workload targets a different star order.
    #[must_use]
    pub fn run(&self, workload: &Workload, policy: &dyn RoutingPolicy) -> TrafficStats {
        let tenants = Tenants::One(policy);
        self.simulate(workload, tenants, Engine::Fast, &mut NullProbe)
            .total
    }

    /// Runs `workload` under `policy` on the chosen engine. Both
    /// engines produce byte-identical [`TrafficStats`]; the reference
    /// engine is the differential suite's oracle.
    ///
    /// # Panics
    /// Panics if the workload targets a different star order.
    #[must_use]
    pub fn run_with(
        &self,
        workload: &Workload,
        policy: &dyn RoutingPolicy,
        engine: Engine,
    ) -> TrafficStats {
        let tenants = Tenants::One(policy);
        self.simulate(workload, tenants, engine, &mut NullProbe)
            .total
    }

    /// Runs `workload` on the fast engine with the self-profiler
    /// armed: returns the usual statistics plus a [`PhaseProfile`]
    /// splitting each executed round into its arrivals / injections /
    /// arbitration / accounting phases, measured with the clock from
    /// [`Network::with_clock`] (wall-clock nanoseconds by default).
    /// The clock feeds only the profile — the statistics are
    /// byte-identical to an unprofiled run.
    ///
    /// # Panics
    /// Panics if the workload targets a different star order.
    #[must_use]
    pub fn run_profiled(
        &self,
        workload: &Workload,
        policy: &dyn RoutingPolicy,
    ) -> (TrafficStats, PhaseProfile) {
        let clock = self.clock.unwrap_or(sg_obs::wall_clock);
        let (stats, profile) =
            self.run_fast(workload, Tenants::One(policy), &mut NullProbe, Some(clock));
        (stats.total, profile.expect("profiler was armed"))
    }

    /// Collects every region-handoff violation of a finished
    /// multi-tenant run: packets of job `j` (per `owner`) that were
    /// still unresolved — queued, in flight, stalled, or holding a
    /// credit/escape slot — at round `release[j]`, the round the
    /// scheduler returned the job's sub-star. A delivered or dropped
    /// packet frees every resource it holds at its resolution round,
    /// so "resolved strictly before the release round" is exactly
    /// "the region is quiescent when the successor can first inject";
    /// a stranded packet never resolves and is always a violation.
    ///
    /// The check reads only [`TrafficStats::packets`], which both
    /// engines produce byte-identically (differential suite), so the
    /// verdict is engine-independent by construction.
    ///
    /// # Panics
    /// Panics if `owner` does not cover every packet or names a job
    /// without a release round.
    #[must_use]
    pub fn region_quiescence_violations(
        stats: &TrafficStats,
        owner: &[u32],
        release: &[u32],
    ) -> Vec<QuiescenceViolation> {
        assert_eq!(
            owner.len(),
            stats.packets.len(),
            "owner map must cover every packet"
        );
        let mut out = Vec::new();
        for (pid, (rec, &j)) in stats.packets.iter().zip(owner).enumerate() {
            let released = release[j as usize];
            let resolved = rec.outcome.resolution_round();
            if resolved.is_none_or(|r| r >= released) {
                out.push(QuiescenceViolation {
                    job: j,
                    pid: pid as u32,
                    resolved,
                    release: released,
                });
            }
        }
        out
    }

    /// [`Network::region_quiescence_violations`] as a hard error: a
    /// dirty sub-star handoff — any tenant flit still owning queue,
    /// credit, or escape state at its release round — panics with the
    /// offending job, packet, and rounds. `Drained` release schedules
    /// pass by construction; `Declared` schedules whose tenants
    /// under-declare fail here instead of silently perturbing the
    /// successor.
    ///
    /// # Panics
    /// Panics on the first violation (and as
    /// [`Network::region_quiescence_violations`]).
    pub fn assert_region_quiescent(stats: &TrafficStats, owner: &[u32], release: &[u32]) {
        let violations = Self::region_quiescence_violations(stats, owner, release);
        assert!(
            violations.is_empty(),
            "dirty sub-star handoff: {} tenant flit(s) outlived their release round; first: {:?}",
            violations.len(),
            violations[0]
        );
    }

    /// A fast-engine run, with the profiler armed when `clock` is set.
    fn run_fast<P: Probe>(
        &self,
        workload: &Workload,
        tenants: Tenants<'_>,
        probe: &mut P,
        clock: Option<fn() -> u64>,
    ) -> (RunStats, Option<PhaseProfile>) {
        let prepared = self.prepare(workload, tenants);
        let tally = RunTally::new(tenants.owner());
        let mut sim = FastSim::new(self, workload, prepared, tally, probe);
        sim.profile = clock.map(|clock| (clock, PhaseProfile::default()));
        let (tally, records, profile) = sim.run();
        (tally.finish(self.n, records), profile)
    }

    /// Run setup: workload and tenant validation, then the initial
    /// packet table, filled in place chunk by chunk in parallel. Packet
    /// `pid` follows its job's policy by that policy's [`HopRule`] and
    /// may divert onto the escape channel iff its job opted in (every
    /// packet may under [`Tenants::One`]). Only source-routed packets
    /// unrank their endpoints and put routes in the shared
    /// [`RouteArena`]; a greedy packet packs its `dst⁻¹ ∘ src` into its
    /// record, and an adaptive one its [`AdaptiveState`] into the
    /// arena's side table, both from the packed decodes of the two
    /// ranks ([`route_chunk`]).
    fn prepare(&self, workload: &Workload, tenants: Tenants<'_>) -> (RouteArena, Vec<SimPacket>) {
        assert_eq!(
            workload.n(),
            self.n,
            "workload is for S_{} but network is S_{}",
            workload.n(),
            self.n
        );
        if let Tenants::PerJob {
            policies,
            owner,
            escape,
        } = tenants
        {
            assert_eq!(
                owner.len(),
                workload.len(),
                "owner map must cover every packet"
            );
            assert!(
                owner.iter().all(|&j| (j as usize) < policies.len()),
                "owner names a job >= policies.len()"
            );
            assert_eq!(
                escape.len(),
                policies.len(),
                "escape eligibility must name every job"
            );
        }
        let inj = workload.injections();
        let n = self.n;
        let len = route_chunk_len(inj.len());
        // Each chunk of injections sets up its own slice of the final
        // packet table in place.
        let mut pkts = vec![SimPacket::default(); inj.len()];
        let work: Vec<_> = pkts
            .chunks_mut(len)
            .zip(inj.chunks(len))
            .enumerate()
            .collect();
        let chunks: Vec<RouteChunk> = work
            .into_par_iter()
            .map(|(c, (out, chunk))| {
                let start = c * len;
                route_chunk(n, out, chunk, |k| match tenants {
                    Tenants::One(policy) => (policy, true),
                    Tenants::PerJob {
                        policies,
                        owner,
                        escape,
                    } => {
                        let j = owner[start + k] as usize;
                        (policies[j], escape[j])
                    }
                })
            })
            .collect();
        let arena = assemble_routes(&mut pkts, len, chunks);
        (arena, pkts)
    }
}

/// Fills the neighbor table `rows` of `S_n` (`n − 1` ranks per PE,
/// generator order) without ranking a neighbor. PEs are visited in
/// rank order by [`next_perm`]. Swapping slots 0 and `g` of a node `s`
/// only changes the Lehmer digits of slots `0..=g` (each digit `c_i`
/// counts the smaller symbols after slot `i`), so with `a = s_0` and
/// `b = s_g` the neighbor's rank is the PE's own plus
///
/// * `(b − a)·(n−1)!` for slot 0 (its digit is its symbol);
/// * `([a < s_i] − [b < s_i])·(n−1−i)!` for `0 < i < g`, where `b`
///   after slot `i` became `a`;
/// * `(#{j > g : s_j < a} − #{j > g : s_j < b})·(n−1−g)!` for slot
///   `g`, counted from the symbols before `g` (`#{j > g : s_j < x}` is
///   `x` less the smaller symbols in slots `0..=g`).
fn neighbor_rows(n: usize, rows: &mut [u32]) {
    let f = |k: usize| factorial(k) as i64;
    let mut p = Perm::identity(n);
    for (u, row) in rows.chunks_exact_mut(n - 1).enumerate() {
        let s = p.as_slice();
        let a = i64::from(s[0]);
        for (g, v) in (1..n).zip(row) {
            let b = i64::from(s[g]);
            let mut delta = (b - a) * f(n - 1);
            // Symbols in slots 1..g below a and below b.
            let (mut below_a, mut below_b) = (0, 0);
            for (i, &si) in s.iter().enumerate().take(g).skip(1) {
                let si = i64::from(si);
                delta += (i64::from(a < si) - i64::from(b < si)) * f(n - 1 - i);
                below_a += i64::from(si < a);
                below_b += i64::from(si < b);
            }
            let after_a = a - below_a - i64::from(b < a);
            let after_b = b - below_b - i64::from(a < b);
            delta += (after_a - after_b) * f(n - 1 - g);
            *v = (u as i64 + delta) as u32;
        }
        next_perm(&mut p);
    }
}

/// Parallel setup granularity: big enough to amortize thread
/// dispatch, small enough to balance uneven route lengths.
const ROUTE_CHUNK: usize = 4096;

/// Packets per setup chunk for a workload of `packets`: it splits into
/// `⌊packets / ROUTE_CHUNK⌋` near-equal chunks (one below
/// `2 · ROUTE_CHUNK`), so no thread starts for a short remainder and a
/// run that small is set up inline.
fn route_chunk_len(packets: usize) -> usize {
    packets.div_ceil((packets / ROUTE_CHUNK).max(1)).max(1)
}

/// One chunk's route bytes and adaptive states. The offsets its
/// source-routed and adaptive packets hold count from the chunk's own
/// start until [`assemble_routes`] moves them to the arena's.
type RouteChunk = (Vec<u8>, Vec<AdaptiveState>);

/// Sets up one chunk of the packet table, `out`, in place from its
/// injections; `policy_for(k)` names the policy of the chunk's `k`-th
/// packet and whether that packet may divert. A source-routed packet
/// unranks its endpoints and appends its route to the chunk's slab. A
/// greedy packet packs its `dst⁻¹ ∘ src` into its own record and an
/// adaptive one its [`AdaptiveState`] into the chunk's side table,
/// each straight from the two ranks' packed decodes ([`relative`]),
/// with no [`Perm`] but the adaptive destination's, which
/// `CONVERT-S-D` reads.
fn route_chunk<'p>(
    n: usize,
    out: &mut [SimPacket],
    chunk: &[Injection],
    policy_for: impl Fn(usize) -> (&'p dyn RoutingPolicy, bool),
) -> RouteChunk {
    let (mut data, mut states) = (Vec::new(), Vec::new());
    for (k, (pkt, i)) in out.iter_mut().zip(chunk).enumerate() {
        let (policy, may_escape) = policy_for(k);
        *pkt = SimPacket {
            cur: i.src as u32,
            dst: i.dst as u32,
            may_escape,
            ..SimPacket::default()
        };
        if i.src == i.dst {
            continue;
        }
        pkt.rule = policy.hop_rule();
        match pkt.rule {
            HopRule::SourceRoute => {
                let start = data.len();
                policy.route_into(&node(n, i.src), &node(n, i.dst), &mut data);
                pkt.route_off = start as u32;
                pkt.route_len = (data.len() - start) as u32;
            }
            HopRule::Greedy => {
                let rel = relative(n, packed_node(n, i.src), packed_node(n, i.dst));
                debug_assert_eq!(rel, packed_rel(n, pkt.cur, pkt.dst));
                pkt.set_greedy_rel(rel);
            }
            HopRule::Adaptive => {
                let state = AdaptiveState::from_ranks(n, i.src, i.dst);
                debug_assert_eq!(state, AdaptiveState::new(&node(n, i.src), &node(n, i.dst)));
                pkt.route_off = states.len() as u32;
                states.push(state);
            }
        }
    }
    (data, states)
}

/// Stitches the chunks' slabs and side tables into the shared arena in
/// chunk order, moving the offsets of each chunk's source-routed and
/// adaptive packets from the chunk's start to the arena's (`len` is
/// the chunk length `pkts` was split by). Greedy packets have nothing
/// in the arena: an all-greedy run allocates none of it and never
/// revisits its packets here.
fn assemble_routes(pkts: &mut [SimPacket], len: usize, chunks: Vec<RouteChunk>) -> RouteArena {
    let bytes = chunks.iter().map(|(data, _)| data.len()).sum();
    let states = chunks.iter().map(|(_, states)| states.len()).sum();
    let mut arena = RouteArena {
        data: Vec::with_capacity(bytes),
        adaptive: Vec::with_capacity(states),
    };
    for (out, (data, states)) in pkts.chunks_mut(len).zip(chunks) {
        let (off, idx) = (arena.data.len() as u32, arena.adaptive.len() as u32);
        if off > 0 || idx > 0 {
            for pkt in out {
                match pkt.rule {
                    HopRule::SourceRoute => pkt.route_off += off,
                    HopRule::Adaptive => pkt.route_off += idx,
                    HopRule::Greedy => {}
                }
            }
        }
        arena.data.extend_from_slice(&data);
        arena.adaptive.extend_from_slice(&states);
    }
    arena
}

// ---------------------------------------------------------------------
// Run state and the rules the run core applies: routes, packets, hop
// selection, the escape bank and the injection schedule.
// ---------------------------------------------------------------------

/// The source routes of a run, packed into one flat byte arena; each
/// source-routed packet names its route as an `(offset, len)` span.
/// Replacing the per-packet `Vec<u8>` keeps the packet table a plain
/// structure-of-arrays record and makes the route byte read in
/// `enqueue_next` a dense-arena index instead of a pointer chase —
/// the SoA headroom item noted in the ROADMAP after the fast-engine
/// PR. Fault reroutes and escape diversions append their route and
/// repoint the span; the stale bytes are never reclaimed (reroutes are
/// rare and per-run).
///
/// Only source-routed policies append at setup. Greedy packets carry
/// their packed `dst⁻¹ ∘ cur` in their own record and have no bytes
/// here until a reroute or a diversion pins a route. Adaptive packets
/// have no route bytes either; their otherwise unused `route_off`
/// indexes `adaptive`, the side table of the state they carry from
/// hop to hop.
struct RouteArena {
    data: Vec<u8>,
    adaptive: Vec<AdaptiveState>,
}

impl RouteArena {
    /// Appends a route, returning its `(offset, len)` span.
    fn push(&mut self, route: &[u8]) -> (u32, u32) {
        let off = self.data.len() as u32;
        self.data.extend_from_slice(route);
        (off, route.len() as u32)
    }
}

/// In-flight per-packet state (32 B). What the span fields hold
/// depends on `rule`: a source-routed packet's route lives in the
/// shared [`RouteArena`] and `route_off`/`route_len` span its bytes; a
/// greedy packet's carried `dst⁻¹ ∘ cur` lives in those two fields
/// ([`SimPacket::greedy_rel`]); an adaptive packet's `route_off`
/// indexes its [`AdaptiveState`].
#[derive(Clone, Copy, Default)]
struct SimPacket {
    cur: u32,
    dst: u32,
    route_off: u32,
    route_len: u32,
    route_pos: u32,
    hops: u32,
    /// How the next hop is chosen. A fault reroute or an escape
    /// diversion pins an arena route, which turns a greedy or adaptive
    /// packet into a source-routed one.
    rule: HopRule,
    /// The packet diverted onto the escape channel (escape mode only;
    /// a one-way transition — escaped packets stay escape-routed).
    escaped: bool,
    /// Whether the packet may divert at all: its job's opt-in under
    /// [`Tenants::PerJob`], `true` under [`Tenants::One`].
    may_escape: bool,
    /// The residual-hop class whose escape slot the packet currently
    /// holds (occupied while buffered, reserved while in flight).
    /// Meaningful only while `escaped`.
    esc_class: u32,
}

impl SimPacket {
    /// A greedy packet's carried `dst⁻¹ ∘ cur` ([`rel_word`]): 36 bits
    /// at [`MAX_ORDER`], the low 32 in `route_off` and the rest in
    /// `route_len`, the two span fields a greedy packet has no use for.
    #[inline]
    fn greedy_rel(&self) -> u64 {
        u64::from(self.route_off) | u64::from(self.route_len) << 32
    }

    #[inline]
    fn set_greedy_rel(&mut self, rel: u64) {
        self.route_off = rel as u32;
        self.route_len = (rel >> 32) as u32;
    }
}

/// Outcome of one adaptive next-hop selection.
enum HopChoice {
    /// Take generator `g` (its link is alive and reduces distance).
    Go(usize),
    /// Faults killed every distance-reducing link at this PE.
    Blocked,
}

/// What an adaptive packet carries from hop to hop, packed in 4-bit
/// fields (field `i` is bits `4i..4i + 4`; the `n ≤ MAX_ORDER = 9`
/// fields of a node fit a `u64`). Route setup packs it once from the
/// packet's endpoints, so the selector never unranks. When the
/// selector picks generator `g`, [`AdaptiveState::advance`] swaps
/// fields 0 and `g` of `rel` and `cur`: from then on the flit only
/// leaves by that link, is dropped, or stops being adaptive (a fault
/// reroute or an escape diversion), so when it next asks for a hop, at
/// the PE that link leads to, the state describes that PE.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct AdaptiveState {
    /// `dst⁻¹ ∘ cur`: field `i` is the slot of `dst` that holds
    /// `cur`'s slot-`i` symbol.
    rel: u64,
    /// `cur`: field `i` is the symbol in slot `i`.
    cur: u64,
    /// `dst`'s mesh coordinates ([`convert_s_d_coords`]): field `k` is
    /// `d_k ≤ k`, for `1 ≤ k < n`.
    target: u64,
}

/// PE `rank` of `S_n` as a [`Perm`].
fn node(n: usize, rank: u64) -> Perm {
    unrank(rank, n).expect("rank in range")
}

/// PE `rank` of `S_n` packed: field `i` is the symbol in slot `i`, and
/// the fields from `n` on are 0.
fn packed_node(n: usize, rank: u64) -> u64 {
    unrank_packed(rank, n).expect("rank in range")
}

/// Field `i` of a packed word: a greedy packet's `dst⁻¹ ∘ cur` or a
/// word of an [`AdaptiveState`].
#[inline]
fn field(x: u64, i: usize) -> usize {
    (x >> (4 * i) & 0xF) as usize
}

/// Packs `vals` (each below 16) into 4-bit fields, field 0 first.
fn pack(vals: impl IntoIterator<Item = u32>) -> u64 {
    vals.into_iter()
        .enumerate()
        .fold(0, |x, (i, v)| x | u64::from(v) << (4 * i))
}

/// The symbols of `p` packed: field `i` is the symbol in slot `i`.
fn symbols(p: &Perm) -> u64 {
    pack(p.as_slice().iter().map(|&s| u32::from(s)))
}

/// `dst⁻¹ ∘ cur` packed: field `i` is the slot of `dst` that holds
/// `cur`'s slot-`i` symbol, so field `i` holds `i` for every `i < n`
/// exactly when `cur == dst`. Setup computes it with [`relative`];
/// this form over [`Perm`]s is the oracle.
fn rel_word(cur: &Perm, dst: &Perm) -> u64 {
    symbols(&cur.relative_to(dst))
}

/// [`rel_word`] from the packed nodes `cur` and `dst` of `S_n`, with no
/// [`Perm`]: one nibble scatter writes `dst⁻¹` (field `s` is the slot
/// holding symbol `s`), and one gather reads it at `cur`'s symbols.
/// Both loops run over all [`MAX_ORDER`] fields, a fixed trip count:
/// the fields from `n` on first take the [`IDENTITY`]'s, which map to
/// themselves, and are cleared again at the end.
fn relative(n: usize, cur: u64, dst: u64) -> u64 {
    let low = (1 << (4 * n)) - 1;
    let (cur, dst) = (cur | IDENTITY & !low, dst | IDENTITY & !low);
    let mut inv = 0;
    for i in 0..MAX_ORDER {
        inv |= (i as u64) << (4 * field(dst, i));
    }
    let mut rel = 0;
    for i in 0..MAX_ORDER {
        rel |= (field(inv, field(cur, i)) as u64) << (4 * i);
    }
    rel & low
}

/// [`rel_word`] of PE `cur` and destination `dst` of `S_n`, unranked
/// into [`Perm`]s: the oracle the carried word and setup's
/// [`relative`] are held to. It costs two unranks, so only debug
/// asserts and tests call it.
fn packed_rel(n: usize, cur: u32, dst: u32) -> u64 {
    rel_word(&node(n, u64::from(cur)), &node(n, u64::from(dst)))
}

/// `x` with fields 0 and `g` swapped: what taking generator `g` does
/// to a packed node or to a packed `dst⁻¹ ∘ cur`.
#[inline]
fn swap_fields(x: u64, g: usize) -> u64 {
    let d = (x ^ x >> (4 * g)) & 0xF;
    x ^ d ^ d << (4 * g)
}

/// The identity's fields: field `i` holds `i`, for every
/// `i <` [`MAX_ORDER`].
const IDENTITY: u64 = 0x8_7654_3210;

/// The greedy hop off a packed `dst⁻¹ ∘ cur` that is not the identity,
/// the rule of [`sg_star::routing::greedy_sort`]: the front field when
/// it is non-zero (send the front symbol home), otherwise the lowest
/// misplaced field (fetch the smallest misplaced slot), found by one
/// XOR with [`IDENTITY`] and a trailing-zeros count. The fields at and
/// past `n` are zero in `rel` but not in [`IDENTITY`], so they never
/// hide a misplaced field below `n`.
#[inline]
fn greedy_hop(rel: u64) -> usize {
    let front = field(rel, 0);
    let lowest = (rel ^ IDENTITY).trailing_zeros() as usize / 4;
    if front != 0 {
        front
    } else {
        lowest
    }
}

impl AdaptiveState {
    /// The state of a packet at PE `cur` bound for PE `dst` of `S_n`,
    /// as setup packs it: `rel` and `cur` straight from the two ranks'
    /// packed decodes, and `target` from `dst`'s one [`Perm`], which
    /// `CONVERT-S-D` reads.
    fn from_ranks(n: usize, cur: u64, dst: u64) -> Self {
        let (here, there) = (packed_node(n, cur), node(n, dst));
        AdaptiveState {
            rel: relative(n, here, symbols(&there)),
            cur: here,
            target: pack(convert_s_d_coords(&there).into_iter().take(n)),
        }
    }

    /// The state of a packet at `cur` bound for `dst`, from their
    /// [`Perm`]s: the oracle [`AdaptiveState::from_ranks`] and the
    /// carried state are held to, in debug asserts and tests.
    fn new(cur: &Perm, dst: &Perm) -> Self {
        let n = cur.len();
        AdaptiveState {
            rel: rel_word(cur, dst),
            cur: symbols(cur),
            target: pack(convert_s_d_coords(dst).into_iter().take(n)),
        }
    }

    /// [`sg_star::distance::improving_mask`] of `rel`, read off the
    /// packed fields: the generators that move the packet one hop
    /// closer to `dst`.
    #[inline]
    fn improving(&self, n: usize) -> u32 {
        let rel = self.rel;
        let mut misplaced = 0u32;
        for j in 1..n {
            misplaced |= u32::from(field(rel, j) != j) << j;
        }
        let front = field(rel, 0);
        if front == 0 {
            return misplaced;
        }
        let mut own_cycle = 0u32;
        let mut j = front;
        while j != 0 {
            own_cycle |= 1 << j;
            j = field(rel, j);
        }
        (misplaced & !own_cycle) | 1 << front
    }

    /// The tie-break: the first generator of
    /// [`crate::EmbeddingRouting`]'s path from `cur` to `dst`, from one
    /// `CONVERT-S-D` of `cur` against the carried target.
    fn embedding_hop(&self, n: usize) -> usize {
        let symbols: [u8; MAX_ORDER] = std::array::from_fn(|i| field(self.cur, i) as u8);
        let cur = Perm::from_slice(&symbols[..n]).expect("carried node is a permutation");
        let mut target = [0u32; MAX_N];
        for (k, d) in target.iter_mut().enumerate().take(n) {
            *d = field(self.target, k) as u32;
        }
        usize::from(crate::routing::embedding_first_hop(&cur, &target))
    }

    /// Takes generator `g`: slots 0 and `g` of `cur` swap, and so do
    /// the same fields of `dst⁻¹ ∘ cur`.
    #[inline]
    fn advance(&mut self, g: usize) {
        self.rel = swap_fields(self.rel, g);
        self.cur = swap_fields(self.cur, g);
    }
}

/// The adaptive hop selector: among the generators that move the
/// packet strictly closer to its destination and whose link survives
/// the fault plan, pick the one with the smallest output queue at the
/// current PE `u` (`occ[g−1]` is that queue's occupancy). Ties prefer the next generator of the dimension-order
/// embedding path, then the smallest generator index. This runs once
/// per hop of every adaptive packet, so it reads everything off the
/// packet's carried [`AdaptiveState`]: the candidates are the
/// improving set of its packed `dst⁻¹ ∘ cur`, and only a tie converts
/// `cur` to mesh coordinates. Allocation-free, and nothing is
/// unranked.
fn adaptive_hop(net: &Network, u: u32, state: &AdaptiveState, occ: &[u32]) -> HopChoice {
    let n = net.n;
    let improving = state.improving(n);
    debug_assert!(improving != 0, "adaptive hop requested at the destination");
    let faulty = !net.faults.is_empty();
    let mut cands = 0u32;
    let mut min_occ = u32::MAX;
    for g in (1..n).filter(|&g| improving >> g & 1 == 1) {
        if faulty {
            let v = net.neighbor_of(u, g);
            if net.faults.is_link_dead(u64::from(u), u64::from(v), g) {
                continue;
            }
        }
        cands |= 1 << g;
        min_occ = min_occ.min(occ[g - 1]);
    }
    if min_occ == u32::MAX {
        return HopChoice::Blocked;
    }
    let is_best = |g: usize| cands >> g & 1 == 1 && occ[g - 1] == min_occ;
    let mut best = (1..n).filter(|&g| is_best(g));
    let first = best.next().expect("a candidate attains the minimum");
    if best.next().is_some() {
        // Tie: follow the embedding path's order when it is one of
        // the tied candidates.
        let eg = state.embedding_hop(n);
        if is_best(eg) {
            return HopChoice::Go(eg);
        }
    }
    HopChoice::Go(first)
}

/// Why [`select_generator`] could not name a next hop.
enum HopFail {
    /// The fault policy says drop on the spot.
    Fault,
    /// No surviving path exists (reroute exhausted).
    Unreachable,
}

/// Decides which generator link packet `pid` takes next from its
/// current PE, by its hop rule: the fixed route's next entry
/// (source-routed), the greedy hop off its carried `dst⁻¹ ∘ cur`
/// (greedy; the word advances when the flit leaves, in [`Core::hop`]),
/// or the least-occupied shortest-path candidate (adaptive, `occ`
/// holds the current PE's queue occupancies), after which the adaptive
/// packet's carried state advances over the chosen link. When faults
/// block the hop this applies the fault policy — dropping, or pinning
/// the BFS detour over the surviving subgraph, which turns a greedy or
/// adaptive packet into a source-routed one.
fn select_generator(
    net: &Network,
    faulty: bool,
    pkts: &mut [SimPacket],
    routes: &mut RouteArena,
    memo: &mut HashMap<u32, Vec<u8>>,
    pid: PacketId,
    occ: &[u32],
) -> Result<usize, HopFail> {
    let p = pid as usize;
    let u = pkts[p].cur;
    let fixed = match pkts[p].rule {
        HopRule::Adaptive => {
            let state = &mut routes.adaptive[pkts[p].route_off as usize];
            debug_assert_eq!(
                *state,
                AdaptiveState::new(
                    &node(net.n, u64::from(u)),
                    &node(net.n, u64::from(pkts[p].dst))
                ),
                "carried state drifted from the packet's PE"
            );
            if let HopChoice::Go(g) = adaptive_hop(net, u, state, occ) {
                state.advance(g);
                return Ok(g);
            }
            None
        }
        HopRule::Greedy => {
            let rel = pkts[p].greedy_rel();
            debug_assert_eq!(
                rel,
                packed_rel(net.n, u, pkts[p].dst),
                "carried word drifted from the packet's PE"
            );
            Some(greedy_hop(rel))
        }
        HopRule::SourceRoute => {
            let pos = pkts[p].route_pos;
            debug_assert!(
                pos < pkts[p].route_len,
                "route exhausted before destination"
            );
            Some(usize::from(routes.data[(pkts[p].route_off + pos) as usize]))
        }
    };
    if let Some(g) = fixed {
        let v = net.neighbor_of(u, g);
        if !(faulty && net.faults.is_link_dead(u64::from(u), u64::from(v), g)) {
            return Ok(g);
        }
    }
    // The hop (or every adaptive candidate) is dead: fault fallback.
    match net.faults.policy() {
        FaultPolicy::Drop => Err(HopFail::Fault),
        FaultPolicy::Reroute => {
            let dst = pkts[p].dst;
            match reroute_from(net, memo, u, dst) {
                Some(route) => {
                    let g = route[0] as usize;
                    let (off, len) = routes.push(&route);
                    pkts[p].route_off = off;
                    pkts[p].route_len = len;
                    pkts[p].route_pos = 0;
                    pkts[p].rule = HopRule::SourceRoute;
                    Ok(g)
                }
                None => Err(HopFail::Unreachable),
            }
        }
    }
}

/// BFS over the surviving subgraph, memoized per destination: returns
/// the generator sequence `u → dst`, or `None` if `u` is cut off.
fn reroute_from(
    net: &Network,
    memo: &mut HashMap<u32, Vec<u8>>,
    u: u32,
    dst: u32,
) -> Option<Vec<u8>> {
    let gens = net.n - 1;
    let next_gen = memo.entry(dst).or_insert_with(|| {
        let mut next = vec![0u8; net.node_count];
        let mut frontier = VecDeque::from([dst]);
        let mut seen = vec![false; net.node_count];
        seen[dst as usize] = true;
        while let Some(w) = frontier.pop_front() {
            for g in 1..=gens {
                let v = net.neighbor_of(w, g);
                if seen[v as usize] || net.faults.is_link_dead(u64::from(w), u64::from(v), g) {
                    continue;
                }
                seen[v as usize] = true;
                // The same generator leads back toward dst (the slot
                // swap is an involution).
                next[v as usize] = g as u8;
                frontier.push_back(v);
            }
        }
        next
    });
    let mut route = Vec::new();
    let mut cur = u;
    while cur != dst {
        let g = next_gen[cur as usize];
        if g == 0 {
            return None;
        }
        route.push(g);
        cur = net.neighbor_of(cur, g as usize);
        debug_assert!(route.len() <= net.node_count, "reroute cycle");
    }
    Some(route)
}

/// An empty escape slot.
const ESC_FREE: u32 = u32::MAX;
/// Tag bit on a slot holder that is still in flight toward the PE
/// (the slot is *reserved*, not yet occupied); cleared on arrival.
const ESC_RESV: u32 = 1 << 31;

/// The escape partition: Gopal's structured buffer pool, graded by
/// residual hops. `classes[c][u]` is the single class-`c` escape slot
/// of PE `u` — [`ESC_FREE`], the resident packet id, or the id tagged
/// [`ESC_RESV`] while the holder is in flight toward `u`. A class-`c`
/// flit forwarding to the next PE needs only that PE's class-`c−1`
/// slot (final hops need none), so slot dependencies strictly descend
/// the grading and can never cycle. Class arrays are grown lazily:
/// only classes some packet actually reaches are ever allocated
/// (bounded by the longest pinned escape route).
struct EscapeBank {
    node_count: usize,
    classes: Vec<Vec<u32>>,
}

impl EscapeBank {
    fn new(node_count: usize) -> Self {
        EscapeBank {
            node_count,
            classes: Vec::new(),
        }
    }

    #[inline]
    fn holder(&self, c: usize, u: usize) -> u32 {
        self.classes.get(c).map_or(ESC_FREE, |slots| slots[u])
    }

    #[inline]
    fn is_free(&self, c: usize, u: usize) -> bool {
        self.holder(c, u) == ESC_FREE
    }

    /// The packet occupying PE `u`'s class-`c` slot: neither free nor
    /// reserved for a holder still in flight.
    #[inline]
    fn resident(&self, c: usize, u: usize) -> Option<PacketId> {
        let h = self.holder(c, u);
        (h != ESC_FREE && h & ESC_RESV == 0).then_some(h)
    }

    fn set(&mut self, c: usize, u: usize, val: u32) {
        if self.classes.len() <= c {
            self.classes
                .resize_with(c + 1, || vec![ESC_FREE; self.node_count]);
        }
        self.classes[c][u] = val;
    }

    fn clear(&mut self, c: usize, u: usize) {
        self.classes[c][u] = ESC_FREE;
    }
}

/// The pinned escape route `u → dst`, as a memoized arena span: the
/// canonical dimension-order embedding path on a clean network, the
/// BFS route over the surviving subgraph when faults are installed
/// (`None` only if `dst` is unreachable — the diversion then simply
/// fails and the head keeps waiting for adaptive credit). Either way
/// the route is pinned and every hop shortens it, which is what the
/// residual-hop grading needs.
fn escape_span(
    net: &Network,
    routes: &mut RouteArena,
    memo: &mut HashMap<(u32, u32), Option<(u32, u32)>>,
    reroute_memo: &mut HashMap<u32, Vec<u8>>,
    u: u32,
    dst: u32,
) -> Option<(u32, u32)> {
    if let Some(&span) = memo.get(&(u, dst)) {
        return span;
    }
    let route = if net.faults.is_empty() {
        let (a, b) = (node(net.n, u64::from(u)), node(net.n, u64::from(dst)));
        Some(crate::routing::EmbeddingRouting.route(&a, &b))
    } else {
        reroute_from(net, reroute_memo, u, dst)
    };
    let span = route.map(|r| routes.push(&r));
    memo.insert((u, dst), span);
    span
}

/// A run's injection schedule: the ungated packets walk by round, and
/// each barrier phase opens one round after the last packet of the
/// phase before it resolves. Packets due in the same round come out in
/// packet-id order.
struct Injector<'a> {
    inj: &'a [Injection],
    /// First gated packet id (`inj.len()` without barriers).
    lead: usize,
    /// Next ungated packet to inject.
    next_lead: usize,
    phases: Vec<PhaseState>,
    /// Opened phases with packets still to inject, ascending.
    live: Vec<u32>,
    /// Phases with every packet injected and some still unresolved.
    draining: Vec<u32>,
}

/// One barrier phase during a run.
#[derive(Clone, Copy)]
struct PhaseState {
    gate: Gate,
    /// Round the phase opened, once it has.
    open: Option<u32>,
    /// Next packet to inject.
    next: u32,
    /// Every packet before this one has resolved.
    settled: u32,
}

impl<'a> Injector<'a> {
    fn new(workload: &'a Workload) -> Self {
        let phases = workload.gates().iter().map(|&gate| PhaseState {
            gate,
            open: None,
            next: gate.start,
            settled: gate.start,
        });
        let mut due = Injector {
            inj: workload.injections(),
            lead: workload.lead(),
            next_lead: 0,
            phases: phases.collect(),
            live: Vec::new(),
            draining: Vec::new(),
        };
        for (k, g) in workload.gates().iter().enumerate() {
            if let Some(t) = g.at {
                due.open_phase(k, t);
            }
        }
        due
    }

    /// Opens phase `k` at round `t`. An empty phase resolves as it
    /// opens, so its successor opens one round later.
    fn open_phase(&mut self, mut k: usize, mut t: u32) {
        loop {
            self.phases[k].open = Some(t);
            let g = self.phases[k].gate;
            if g.start < g.end {
                let at = self.live.partition_point(|&j| (j as usize) < k);
                self.live.insert(at, k as u32);
                return;
            }
            match self.phases.get(k + 1) {
                Some(next) if next.gate.at.is_none() => (k, t) = (k + 1, t.saturating_add(1)),
                _ => return,
            }
        }
    }

    /// The next run of consecutive packets due at or before `round`:
    /// runs come out in packet-id order, the ungated packets first.
    fn next_due(&mut self, round: u32) -> Option<Range<usize>> {
        let start = self.next_lead;
        while self.next_lead < self.lead && self.inj[self.next_lead].round <= round {
            self.next_lead += 1;
        }
        if self.next_lead > start {
            return Some(start..self.next_lead);
        }
        for i in 0..self.live.len() {
            let k = self.live[i];
            let ph = &mut self.phases[k as usize];
            let open = ph.open.expect("live phases are open");
            let (start, end) = (ph.next as usize, ph.gate.end as usize);
            let mut next = start;
            while next < end && open.saturating_add(self.inj[next].round) <= round {
                next += 1;
            }
            if next > start {
                ph.next = next as u32;
                if next == end {
                    self.live.remove(i);
                    self.draining.push(k);
                }
                return Some(start..next);
            }
        }
        None
    }

    /// Ends `round`, after all of its resolutions: a phase whose last
    /// packet resolved in it opens its successor at `round + 1`. Each
    /// packet's outcome is looked at about once over the run.
    fn end_round(&mut self, round: u32, outcomes: &[Option<PacketOutcome>]) {
        let mut i = 0;
        while i < self.draining.len() {
            let k = self.draining[i] as usize;
            let ph = &mut self.phases[k];
            let end = ph.gate.end as usize;
            let mut p = ph.settled as usize;
            while p < end && outcomes[p].is_some() {
                p += 1;
            }
            ph.settled = p as u32;
            if p < end {
                i += 1;
                continue;
            }
            self.draining.remove(i);
            if self.phases.get(k + 1).is_some_and(|n| n.gate.at.is_none()) {
                self.open_phase(k + 1, round.saturating_add(1));
            }
        }
    }

    /// The round the next packet is due, if any is scheduled.
    fn next_round(&self) -> Option<u32> {
        let lead = (self.next_lead < self.lead).then(|| self.inj[self.next_lead].round);
        let gated = self.live.iter().map(|&k| {
            let ph = &self.phases[k as usize];
            let open = ph.open.expect("live phases are open");
            open.saturating_add(self.inj[ph.next as usize].round)
        });
        lead.into_iter().chain(gated).min()
    }

    /// `true` once no packet is scheduled: every remaining one waits on
    /// a phase that has not opened.
    fn exhausted(&self) -> bool {
        self.next_lead == self.lead && self.live.is_empty()
    }
}

// ---------------------------------------------------------------------
// The run core: one copy of every rule both engines apply.
// ---------------------------------------------------------------------

/// The output queues of an engine, `qi = u·(n−1) + (g−1)` for PE `u`'s
/// generator-`g` link. One of the two things the engines keep
/// differently; the other is the [`Sink`].
trait Queues {
    /// Empty queues for a run of `packets` packets.
    fn new(queues: usize, packets: usize) -> Self;
    /// Flits queued on `qi`.
    fn len(&self, qi: usize) -> u32;
    /// The head flit of `qi`, if any.
    fn front(&self, qi: usize) -> Option<PacketId>;
    /// Appends `pid` to `qi`.
    fn push(&mut self, qi: usize, pid: PacketId);
    /// Removes and returns the head flit of non-empty `qi`.
    fn pop(&mut self, qi: usize) -> PacketId;
    /// An escape resident of link `li`'s PE now wants that link.
    fn want(&mut self, li: usize);
}

/// The arrival record's marker for a flit whose next queue the
/// forward cannot name: a delivery, an adaptive or escape flit, or
/// any flit on a network with faults. Such a flit lands the long way,
/// through its packet record ([`Core::land`]).
const NO_HINT: u32 = u32::MAX;

/// One run's state and every rule both engines apply to it: the
/// packet table, routes and outcomes; credits; injection with its
/// stalled retries; landing and delivery; next-hop selection with its
/// drop path; tail-drop placement; the escape bank's landing,
/// forwarding and diversions; strands; and the lazy round bracket.
/// Generic over the engine's [`Queues`] and [`Sink`], so each engine's
/// round loop is monomorphized with no dynamic call.
struct Core<'a, P: Probe, Q: Queues, T: Sink> {
    net: &'a Network,
    gens: usize,
    due: Injector<'a>,
    pkts: Vec<SimPacket>,
    routes: RouteArena,
    outcomes: Vec<Option<PacketOutcome>>,
    q: Q,
    node_occ: Vec<u32>,
    /// Credits reserved at each PE by flits in flight toward it.
    /// Allocated only when a credit pool exists: every access is
    /// guarded by `pool`.
    reserved: Vec<u32>,
    in_flight: usize,
    /// Packets waiting at their source for a buffer credit, FIFO.
    stalled: VecDeque<PacketId>,
    /// Per-destination BFS next-hop tables for fault reroutes.
    reroute_memo: HashMap<u32, Vec<u8>>,
    resolved: usize,
    total_queued: u64,
    pool: Option<u64>,
    /// Cached `!faults.is_empty()`: skips the per-hop fault lookups
    /// entirely on a clean network.
    faulty: bool,
    /// The escape partition — `Some` only under
    /// [`FlowControl::EscapeChannel`].
    esc: Option<EscapeBank>,
    /// Escape residents per PE (adaptive occupancy stays in
    /// `node_occ`, so the credit math is untouched by escape traffic).
    /// Allocated only in escape mode: every access is guarded by `esc`.
    esc_node: Vec<u32>,
    /// Memoized escape-route spans per `(PE, dst)`.
    esc_memo: HashMap<(u32, u32), Option<(u32, u32)>>,
    /// Diversion attempts staged during the arbitration scan, applied
    /// after it in scan order, so a diversion can never alter the scan
    /// it was decided in.
    divert: Vec<(usize, PacketId)>,
    tally: T,
    /// Event sink; [`NullProbe`]'s `ENABLED = false` folds every
    /// emission site out of the monomorphized loop.
    probe: &'a mut P,
    /// Lazy round bracket: set by the first [`Event`] of a round, so
    /// eventless rounds emit neither `RoundBegin` nor `RoundEnd`.
    round_open: bool,
}

impl<'a, P: Probe, Q: Queues, T: Sink> Core<'a, P, Q, T> {
    fn new(
        net: &'a Network,
        workload: &'a Workload,
        (routes, pkts): (RouteArena, Vec<SimPacket>),
        tally: T,
        probe: &'a mut P,
    ) -> Self {
        let esc_mode = net.config.flow_control == FlowControl::EscapeChannel;
        let pool = net.credit_pool();
        // Per-PE state a mode never reads stays unallocated.
        let per_pe = |needed: bool| {
            if needed {
                vec![0; net.node_count]
            } else {
                Vec::new()
            }
        };
        Core {
            net,
            gens: net.n - 1,
            due: Injector::new(workload),
            pkts,
            routes,
            outcomes: vec![None; workload.len()],
            q: Q::new(net.node_count * (net.n - 1), workload.len()),
            node_occ: vec![0; net.node_count],
            reserved: per_pe(pool.is_some()),
            in_flight: 0,
            stalled: VecDeque::new(),
            reroute_memo: HashMap::new(),
            resolved: 0,
            total_queued: 0,
            pool,
            faulty: !net.faults.is_empty(),
            esc: esc_mode.then(|| EscapeBank::new(net.node_count)),
            esc_node: per_pe(esc_mode),
            esc_memo: HashMap::new(),
            divert: Vec::new(),
            tally,
            probe,
            round_open: false,
        }
    }

    /// `true` while some packet is unresolved.
    fn running(&self) -> bool {
        self.resolved < self.outcomes.len()
    }

    fn resolve(&mut self, pid: PacketId, round: u32, outcome: PacketOutcome) {
        debug_assert!(self.outcomes[pid as usize].is_none(), "double resolution");
        self.outcomes[pid as usize] = Some(outcome);
        self.resolved += 1;
        self.tally.resolved(pid, round);
    }

    /// Emits `ev`, opening the round bracket first when this is the
    /// round's first event. Call sites are guarded by `P::ENABLED`.
    fn emit(&mut self, round: u32, ev: Event) {
        if !self.round_open {
            self.round_open = true;
            self.probe.event(&Event::RoundBegin { round });
        }
        self.probe.event(&ev);
    }

    /// Closes the round bracket if the round emitted anything.
    fn close_round(&mut self, round: u32) {
        if self.round_open {
            self.round_open = false;
            self.probe.event(&Event::RoundEnd {
                round,
                queued: self.total_queued,
                in_flight: self.in_flight as u64,
                stalled: self.stalled.len() as u64,
            });
        }
    }

    fn deliver(&mut self, pid: PacketId, pe: u32, round: u32, hops: u32) {
        self.resolve(pid, round, PacketOutcome::Delivered { round, hops });
        if P::ENABLED {
            self.emit(
                round,
                Event::Delivered {
                    round,
                    pid,
                    pe,
                    hops,
                },
            );
        }
    }

    /// Drops `pid` at PE `pe` for `reason`, which is never
    /// [`DropReason::Stranded`] (see [`Core::strand`]).
    fn drop_packet(&mut self, pid: PacketId, pe: u32, round: u32, reason: DropReason) {
        let outcome = match reason {
            DropReason::Fault => PacketOutcome::DroppedFault { round },
            DropReason::Unreachable => PacketOutcome::DroppedUnreachable { round },
            DropReason::Overflow => PacketOutcome::DroppedOverflow { round },
            DropReason::Stranded => unreachable!("strands resolve through Core::strand"),
        };
        self.resolve(pid, round, outcome);
        if P::ENABLED {
            self.emit(
                round,
                Event::Dropped {
                    round,
                    pid,
                    pe,
                    reason,
                },
            );
        }
    }

    /// Gives up at `round` (round cap or credit deadlock): every
    /// unresolved packet strands, with a `Dropped { Stranded }` event
    /// each in pid order, and the round bracket closes.
    fn strand(&mut self, round: u32) {
        for pid in 0..self.outcomes.len() {
            if self.outcomes[pid].is_some() {
                continue;
            }
            if P::ENABLED {
                let pe = self.pkts[pid].cur;
                self.emit(
                    round,
                    Event::Dropped {
                        round,
                        pid: pid as PacketId,
                        pe,
                        reason: DropReason::Stranded,
                    },
                );
            }
            self.outcomes[pid] = Some(PacketOutcome::Stranded);
            self.resolved += 1;
        }
        if P::ENABLED {
            self.close_round(round);
        }
    }

    fn has_credit(&self, v: u32) -> bool {
        self.pool.is_none_or(|pool| {
            u64::from(self.node_occ[v as usize]) + u64::from(self.reserved[v as usize]) < pool
        })
    }

    /// Phase 1 for a flit whose next queue the arrival does not name:
    /// delivered at its destination, otherwise its forward-time credit
    /// reservation becomes occupancy and it joins its next queue.
    /// Escaped flits reserve class slots instead of pool credits.
    fn land(&mut self, pid: PacketId, round: u32) {
        let pkt = &self.pkts[pid as usize];
        let (pe, hops) = (pkt.cur, pkt.hops);
        if pe == pkt.dst {
            self.deliver(pid, pe, round, hops);
            return;
        }
        if self.pool.is_some() && !pkt.escaped {
            self.reserved[pe as usize] -= 1;
        }
        self.enqueue_next(pid, round);
    }

    /// Phase 2: packets stalled for credit retry in FIFO order, then
    /// this round's packets enter their source PE. Returns whether any
    /// packet moved or resolved.
    fn inject(&mut self, round: u32) -> bool {
        let mut progress = false;
        for _ in 0..self.stalled.len() {
            let pid = self.stalled.pop_front().expect("len checked");
            let src = self.pkts[pid as usize].cur;
            if self.has_credit(src) {
                self.enqueue_next(pid, round);
                progress = true;
            } else {
                self.stall(pid, src, round);
            }
        }
        while let Some(due) = self.due.next_due(round) {
            for p in due {
                let pid = p as PacketId;
                let (src, dst) = (self.due.inj[p].src, self.due.inj[p].dst);
                let pe = src as u32;
                if self.faulty && self.net.faults.is_node_dead(src) {
                    self.drop_packet(pid, pe, round, DropReason::Fault);
                    progress = true;
                } else if src == dst {
                    self.deliver(pid, pe, round, 0);
                    progress = true;
                } else if !self.has_credit(pe) {
                    self.stall(pid, pe, round);
                } else {
                    self.enqueue_next(pid, round);
                    progress = true;
                }
            }
        }
        progress
    }

    /// `pid` waits at its source `pe` for a credit, once more.
    fn stall(&mut self, pid: PacketId, pe: u32, round: u32) {
        if P::ENABLED {
            self.emit(
                round,
                Event::Stalled {
                    round,
                    pid,
                    pe,
                    kind: StallKind::Injection,
                },
            );
        }
        self.tally.stalled(pid);
        self.stalled.push_back(pid);
    }

    /// Places a packet (known not to be at its destination) onto an
    /// output queue: the one its route names next, or the adaptive
    /// pick — handling faults and queue capacity.
    fn enqueue_next(&mut self, pid: PacketId, round: u32) {
        let p = pid as usize;
        let u = self.pkts[p].cur;
        let mut occ = [0u32; MAX_GENS];
        if self.pkts[p].rule == HopRule::Adaptive {
            let base = u as usize * self.gens;
            for (i, slot) in occ[..self.gens].iter_mut().enumerate() {
                *slot = self.q.len(base + i);
            }
        }
        let g = match select_generator(
            self.net,
            self.faulty,
            &mut self.pkts,
            &mut self.routes,
            &mut self.reroute_memo,
            pid,
            &occ[..self.gens],
        ) {
            Ok(g) => g,
            Err(fail) => {
                if self.pkts[p].escaped {
                    // The class slot reserved at forward time is
                    // surrendered along with the packet.
                    let c = self.pkts[p].esc_class as usize;
                    let bank = self.esc.as_mut().expect("escaped packet implies bank");
                    bank.clear(c, u as usize);
                }
                let reason = match fail {
                    HopFail::Fault => DropReason::Fault,
                    HopFail::Unreachable => DropReason::Unreachable,
                };
                self.drop_packet(pid, u, round, reason);
                return;
            }
        };
        if self.pkts[p].escaped {
            self.place_escape(pid, g, round);
        } else {
            self.place(pid, u as usize * self.gens + (g - 1), round);
        }
    }

    /// Enqueues `pid` on output queue `qi`, or tail-drops it when the
    /// queue is full. Reads nothing of the packet, so a flit whose
    /// arrival names its queue lands without touching `pkts` or the
    /// route arena.
    fn place(&mut self, pid: PacketId, qi: usize, round: u32) {
        let u = qi / self.gens;
        if self.net.config.flow_control == FlowControl::TailDrop {
            if let Some(cap) = self.net.config.queue_capacity {
                if self.q.len(qi) >= cap {
                    self.drop_packet(pid, u as u32, round, DropReason::Overflow);
                    return;
                }
            }
        }
        self.q.push(qi, pid);
        self.total_queued += 1;
        self.node_occ[u] += 1;
        let mut at_pe = u64::from(self.node_occ[u]);
        if self.esc.is_some() {
            at_pe += u64::from(self.esc_node[u]);
        }
        let depth = self.q.len(qi);
        self.tally.queued(pid, false, u64::from(depth), at_pe);
        if P::ENABLED {
            self.emit(
                round,
                Event::Queued {
                    round,
                    pid,
                    pe: u as u32,
                    gen: (qi % self.gens + 1) as u8,
                    depth,
                    escape: false,
                },
            );
        }
    }

    /// An escaped packet lands: its forward-time slot reservation
    /// becomes occupancy and the packet sits in the escape bank (not
    /// in any queue) until link arbitration forwards it.
    fn place_escape(&mut self, pid: PacketId, g: usize, round: u32) {
        let p = pid as usize;
        let u = self.pkts[p].cur as usize;
        let remaining = self.pkts[p].route_len - self.pkts[p].route_pos;
        let mut c = self.pkts[p].esc_class;
        let bank = self.esc.as_mut().expect("escaped packet implies bank");
        // A fault fallback can repin the route mid-flight and change
        // the residual length; re-grade to the new class when its slot
        // is free (pinned escape routes never hit the static fault
        // plan, so this is defensive — the grading invariant is only
        // claimed fault-free anyway).
        if remaining != c && bank.is_free(remaining as usize, u) {
            bank.clear(c as usize, u);
            c = remaining;
            self.pkts[p].esc_class = c;
        }
        bank.set(c as usize, u, pid);
        self.esc_node[u] += 1;
        self.total_queued += 1;
        self.q.want(u * self.gens + (g - 1));
        let depth = self.esc_node[u];
        let at_pe = u64::from(self.node_occ[u]) + u64::from(depth);
        self.tally.queued(pid, true, u64::from(depth), at_pe);
        if P::ENABLED {
            self.emit(
                round,
                Event::Queued {
                    round,
                    pid,
                    pe: u as u32,
                    gen: g as u8,
                    depth,
                    escape: true,
                },
            );
        }
    }

    /// The generator escape resident `pid` takes next.
    #[inline]
    fn next_gen(&self, pid: PacketId) -> u8 {
        let pkt = &self.pkts[pid as usize];
        self.routes.data[(pkt.route_off + pkt.route_pos) as usize]
    }

    /// `true` iff some escape resident's next hop uses link `li`.
    fn escape_wants(&self, li: usize) -> bool {
        let u = li / self.gens;
        if self.esc_node[u] == 0 {
            return false;
        }
        let g = (li % self.gens + 1) as u8;
        let bank = self.esc.as_ref().expect("escape mode");
        (1..bank.classes.len()).any(|c| bank.resident(c, u).is_some_and(|p| self.next_gen(p) == g))
    }

    /// Phase 3 for link `li`: the escape channel first (escape mode),
    /// then the head of the link's queue, which under credit flow
    /// control forwards only if the downstream PE has a free credit
    /// and otherwise stalls and, if it may, stages a diversion.
    /// Returns the flit that left over the link, with the queue it
    /// joins on landing as [`Core::hop`] names it.
    #[inline]
    fn serve(&mut self, li: usize, round: u32) -> Option<(PacketId, u32)> {
        if self.esc.is_some() {
            if let Some(pid) = self.escape_forward(li, round) {
                return Some((pid, NO_HINT));
            }
        }
        let pid = self.q.front(li)?;
        let v = self.net.neighbor[li];
        let p = pid as usize;
        // Final hops need no downstream buffer: delivery consumes the
        // ejection port, not a credit.
        if self.pool.is_some() && self.pkts[p].dst != v {
            if !self.has_credit(v) {
                if P::ENABLED {
                    let pe = (li / self.gens) as u32;
                    self.emit(
                        round,
                        Event::Stalled {
                            round,
                            pid,
                            pe,
                            kind: StallKind::CreditHead,
                        },
                    );
                }
                if self.esc.is_some() && self.pkts[p].may_escape {
                    self.divert.push((li, pid));
                }
                return None;
            }
            self.reserved[v as usize] += 1;
        }
        self.q.pop(li);
        self.total_queued -= 1;
        self.node_occ[li / self.gens] -= 1;
        let next_q = self.hop(pid, li, v, false, round);
        Some((pid, next_q))
    }

    /// Escape-channel arbitration for link `li`: forwards the resident
    /// of the **lowest** residual class bound for this link whose
    /// downstream slot is free (final hops need none). Lowest-class-
    /// first service is what the deadlock-freedom argument leans on:
    /// the globally minimal class always finds its next slot empty.
    /// Kept out of line so that [`Core::serve`], which every forward
    /// runs, stays small outside escape mode.
    #[inline(never)]
    fn escape_forward(&mut self, li: usize, round: u32) -> Option<PacketId> {
        let u = li / self.gens;
        if self.esc_node[u] == 0 {
            return None;
        }
        let g = (li % self.gens + 1) as u8;
        let v = self.net.neighbor[li];
        let nclasses = self.esc.as_ref().expect("escape mode").classes.len();
        for c in 1..nclasses {
            let bank = self.esc.as_ref().expect("escape mode");
            let Some(pid) = bank.resident(c, u).filter(|&p| self.next_gen(p) == g) else {
                continue;
            };
            let pkt = &mut self.pkts[pid as usize];
            debug_assert_eq!(pkt.esc_class as usize, c, "bank/class drift");
            let bank = self.esc.as_mut().expect("escape mode");
            // A final hop is delivered on arrival even when the pinned
            // route only passes through dst (dilation-3 transpositions
            // revisit lattice points), so it needs no downstream slot.
            if v != pkt.dst {
                let c_next = (pkt.route_len - pkt.route_pos - 1) as usize;
                if !bank.is_free(c_next, v as usize) {
                    continue; // this class stalls; a higher one may still go
                }
                bank.set(c_next, v as usize, pid | ESC_RESV);
                pkt.esc_class = c_next as u32;
            }
            bank.clear(c, u);
            self.esc_node[u] -= 1;
            self.total_queued -= 1;
            self.hop(pid, li, v, true, round);
            return Some(pid);
        }
        None
    }

    /// `pid` leaves over link `li` toward `v`. A greedy packet leaves
    /// by its greedy hop, so its carried word advances here and from
    /// then on describes `v`. Returns the queue the flit joins at `v`,
    /// named while its record is at hand, when the forward can know it:
    /// a source-routed flit short of its destination, off the escape
    /// channel, on a clean network joins the queue of its next route
    /// byte, and a greedy one the queue of the greedy hop off its
    /// advanced word. Any other flit gets [`NO_HINT`]. Only the fast
    /// engine's arrivals carry the name; the reference engine lands
    /// every flit through [`Core::land`].
    #[inline]
    fn hop(&mut self, pid: PacketId, li: usize, v: u32, escape: bool, round: u32) -> u32 {
        let pkt = &mut self.pkts[pid as usize];
        pkt.cur = v;
        pkt.hops += 1;
        pkt.route_pos += 1;
        let greedy = pkt.rule == HopRule::Greedy;
        if greedy {
            let rel = pkt.greedy_rel();
            let g = greedy_hop(rel);
            debug_assert_eq!(g, li % self.gens + 1, "greedy flit left off its greedy hop");
            pkt.set_greedy_rel(swap_fields(rel, g));
        }
        let next_q = if escape || self.faulty || pkt.rule == HopRule::Adaptive || pkt.dst == v {
            NO_HINT
        } else {
            let g = if greedy {
                debug_assert_eq!(
                    pkt.greedy_rel(),
                    packed_rel(self.net.n, v, pkt.dst),
                    "carried word drifted from the packet's PE"
                );
                greedy_hop(pkt.greedy_rel())
            } else {
                debug_assert!(pkt.route_pos < pkt.route_len, "route ends short of dst");
                usize::from(self.routes.data[(pkt.route_off + pkt.route_pos) as usize])
            };
            v * self.gens as u32 + g as u32 - 1
        };
        self.tally.forwarded(pid, escape);
        self.in_flight += 1;
        if P::ENABLED {
            self.emit(
                round,
                Event::Forwarded {
                    round,
                    pid,
                    from: (li / self.gens) as u32,
                    to: v,
                    gen: (li % self.gens + 1) as u8,
                    escape,
                },
            );
        }
        next_q
    }

    /// Applies the diversions staged by this round's scan, in scan
    /// order, and returns whether any took place. The staged list is
    /// left for the engine to clear.
    fn apply_diversions(&mut self, round: u32) -> bool {
        let mut progress = false;
        for i in 0..self.divert.len() {
            let (li, pid) = self.divert[i];
            progress |= self.divert_head(li, pid, round);
        }
        progress
    }

    /// One staged diversion: the (still-)head of adaptive queue `li`
    /// moves onto the escape channel if its residual-class slot at
    /// this PE is free and an escape route exists. Frees one adaptive
    /// pool slot at the PE; the flit stays buffered (and charged wait
    /// rounds) throughout. The pinned escape route makes a greedy or
    /// adaptive packet source-routed from here on.
    fn divert_head(&mut self, li: usize, pid: PacketId, round: u32) -> bool {
        let p = pid as usize;
        let u = (li / self.gens) as u32;
        let dst = self.pkts[p].dst;
        let Some((off, len)) = escape_span(
            self.net,
            &mut self.routes,
            &mut self.esc_memo,
            &mut self.reroute_memo,
            u,
            dst,
        ) else {
            return false;
        };
        let bank = self.esc.as_mut().expect("escape mode");
        if !bank.is_free(len as usize, u as usize) {
            return false;
        }
        bank.set(len as usize, u as usize, pid);
        let popped = self.q.pop(li);
        debug_assert_eq!(popped, pid, "staged head moved before apply");
        let pkt = &mut self.pkts[p];
        pkt.route_off = off;
        pkt.route_len = len;
        pkt.route_pos = 0;
        pkt.rule = HopRule::SourceRoute;
        pkt.escaped = true;
        pkt.esc_class = len;
        self.node_occ[u as usize] -= 1;
        self.esc_node[u as usize] += 1;
        self.tally
            .diverted(pid, u64::from(self.esc_node[u as usize]));
        if P::ENABLED {
            self.emit(
                round,
                Event::Diverted {
                    round,
                    pid,
                    pe: u,
                    class: len,
                },
            );
        }
        // The resident now wants the first link of its escape route.
        let g_e = self.routes.data[off as usize] as usize;
        self.q.want(u as usize * self.gens + (g_e - 1));
        true
    }

    /// Phase 4: wait and stall charges, phase openings, and credit
    /// deadlock detection, which strands the survivors. Returns `true`
    /// when the run stranded.
    fn end_round(&mut self, round: u32, progress: bool) -> bool {
        self.tally
            .end_round(self.total_queued, self.stalled.len() as u64);
        // Phases whose predecessor resolved this round open next round.
        self.due.end_round(round, &self.outcomes);
        // Credit deadlock: no event fired, nothing in flight, no packet
        // scheduled (a phase that has not opened waits on one that
        // cannot resolve) — the state is a fixed point, so the
        // survivors can never move again.
        if !progress && self.in_flight == 0 && self.due.exhausted() && self.running() {
            self.strand(round);
            return true;
        }
        if P::ENABLED {
            self.close_round(round);
        }
        false
    }

    /// Frees the run state and hands back the tally and the
    /// per-packet records, whose statistics [`Sink::finish`] builds.
    /// `stopped` is the round the round loop ended in: for a run that
    /// gave up, the round it gave up, which is recorded as the
    /// injection round of every packet whose phase never opened.
    fn finish(self, stopped: u32) -> (T, Vec<PacketRecord>) {
        let mut records: Vec<PacketRecord> = self
            .due
            .inj
            .iter()
            .zip(&self.outcomes)
            .map(|(i, o)| PacketRecord {
                src: i.src,
                dst: i.dst,
                inject_round: i.round,
                outcome: o.expect("all packets resolved"),
            })
            .collect();
        // A gated packet's round counts from its phase's realized start.
        for ph in &self.due.phases {
            for rec in &mut records[ph.gate.start as usize..ph.gate.end as usize] {
                rec.inject_round = ph
                    .open
                    .map_or(stopped, |t| t.saturating_add(rec.inject_round));
            }
        }
        (self.tally, records)
    }
}

// ---------------------------------------------------------------------
// Reference engine: the scan-everything oracle.
// ---------------------------------------------------------------------

/// The reference engine's queues: a `VecDeque` per queue and no
/// worklist, since its scan visits every link every round.
impl Queues for Vec<VecDeque<PacketId>> {
    fn new(queues: usize, _packets: usize) -> Self {
        vec![VecDeque::new(); queues]
    }

    fn len(&self, qi: usize) -> u32 {
        self[qi].len() as u32
    }

    fn front(&self, qi: usize) -> Option<PacketId> {
        self[qi].front().copied()
    }

    fn push(&mut self, qi: usize, pid: PacketId) {
        self[qi].push_back(pid);
    }

    fn pop(&mut self, qi: usize) -> PacketId {
        self[qi].pop_front().expect("pop from empty queue")
    }

    fn want(&mut self, _li: usize) {}
}

/// The reference engine's accounting: its own arithmetic on the
/// counters, independent of [`RunTally`], for the whole run only.
impl Sink for RunCounters {
    fn queued(&mut self, _pid: PacketId, escape: bool, depth: u64, at_pe: u64) {
        if escape {
            self.peak_escape = self.peak_escape.max(depth);
        } else {
            self.peak_edge = self.peak_edge.max(depth);
        }
        self.peak_node = self.peak_node.max(at_pe);
    }

    fn forwarded(&mut self, _pid: PacketId, escape: bool) -> bool {
        self.forwarded += 1;
        if escape {
            self.escape_forwarded += 1;
        }
        true
    }

    fn diverted(&mut self, _pid: PacketId, escape_at_pe: u64) {
        self.escape_diversions += 1;
        self.peak_escape = self.peak_escape.max(escape_at_pe);
    }

    // Stalls are charged from the stalled queue's length each round.
    fn stalled(&mut self, _pid: PacketId) {}

    fn resolved(&mut self, _pid: PacketId, round: u32) {
        self.last_event = self.last_event.max(round);
    }

    fn end_round(&mut self, queued: u64, stalled: u64) {
        self.total_wait_rounds += queued;
        self.injection_stall_rounds += stalled;
    }

    fn finish(self, n: usize, records: Vec<PacketRecord>) -> RunStats {
        RunStats {
            total: TrafficStats::from_records(n, records, self),
            per_job: Vec::new(),
        }
    }
}

/// One reference run: the run core over a `VecDeque` per queue, every
/// queue scanned every round, every landing routed through next-hop
/// selection, and no round skipped — the simplest faithful
/// implementation of the phase semantics, kept as the differential
/// oracle.
struct ReferenceSim<'a, P: Probe> {
    core: Core<'a, P, Vec<VecDeque<PacketId>>, RunCounters>,
    /// Ring buffer of arrival lists, indexed by `round % lanes`.
    arrivals: Vec<Vec<PacketId>>,
}

impl<'a, P: Probe> ReferenceSim<'a, P> {
    fn new(
        net: &'a Network,
        workload: &'a Workload,
        prepared: (RouteArena, Vec<SimPacket>),
        probe: &'a mut P,
    ) -> Self {
        ReferenceSim {
            core: Core::new(net, workload, prepared, RunCounters::default(), probe),
            arrivals: vec![Vec::new(); net.config.link_latency as usize + 1],
        }
    }

    /// Runs to completion: the counters and the per-packet records.
    fn run(mut self) -> (RunCounters, Vec<PacketRecord>) {
        let lanes = self.arrivals.len();
        let mut round: u32 = 0;
        while self.core.running() {
            if round >= self.core.net.config.max_rounds {
                self.core.strand(round);
                break;
            }
            // 1. Arrivals.
            let arrived = std::mem::take(&mut self.arrivals[round as usize % lanes]);
            let mut progress = !arrived.is_empty();
            self.core.in_flight -= arrived.len();
            for pid in arrived {
                self.core.land(pid, round);
            }
            // 2. Injections.
            progress |= self.core.inject(round);
            // 3. Arbitration: every link in index order, then the
            // staged diversions.
            let land = (round as usize + lanes - 1) % lanes;
            for li in 0..self.core.q.len() {
                if let Some((pid, _)) = self.core.serve(li, round) {
                    progress = true;
                    self.arrivals[land].push(pid);
                }
            }
            progress |= self.core.apply_diversions(round);
            self.core.divert.clear();
            // 4. Accounting.
            if self.core.end_round(round, progress) {
                break;
            }
            round += 1;
        }
        self.core.finish(round)
    }
}

// ---------------------------------------------------------------------
// Fast engine: worklist + intrusive FIFOs + batched arrivals.
// ---------------------------------------------------------------------

/// One output queue: its first and last flit and its length (12 B).
/// `head` and `tail` mean nothing while `len == 0`.
#[derive(Clone, Copy, Default)]
struct QState {
    head: PacketId,
    tail: PacketId,
    len: u32,
}

/// All output queues of the network as intrusive FIFOs, plus the fast
/// engine's worklist. Each queue keeps only its [`QState`], and
/// `next[pid]` chains the flit queued behind `pid`. A flit sits in at
/// most one output queue at a time, so one link per packet serves
/// every queue, and pushing or popping a queue one flit deep touches
/// nothing but its `QState` and worklist word.
struct LinkedQueues {
    q: Vec<QState>,
    next: Vec<PacketId>,
    /// Occupancy-bitmap worklist: bit `qi` is set iff queue `qi` is
    /// non-empty or, in escape mode, an escape resident wants its
    /// link. [`Queues::push`] and [`Queues::want`] set bits, and
    /// [`FastSim::settle`] clears them after arbitration pops. The
    /// scan walks words and skips zeros, visiting the set links in
    /// ascending index order — the reference engine's scan order —
    /// with no per-round sorting.
    active: Vec<u64>,
}

impl Queues for LinkedQueues {
    fn new(queues: usize, packets: usize) -> Self {
        LinkedQueues {
            q: vec![QState::default(); queues],
            next: vec![0; packets],
            active: vec![0; queues.div_ceil(64)],
        }
    }

    #[inline]
    fn len(&self, qi: usize) -> u32 {
        self.q[qi].len
    }

    fn front(&self, qi: usize) -> Option<PacketId> {
        let q = self.q[qi];
        (q.len > 0).then_some(q.head)
    }

    fn push(&mut self, qi: usize, pid: PacketId) {
        let q = &mut self.q[qi];
        if q.len == 0 {
            q.head = pid;
        } else {
            self.next[q.tail as usize] = pid;
        }
        q.tail = pid;
        q.len += 1;
        self.want(qi);
    }

    fn pop(&mut self, qi: usize) -> PacketId {
        let q = &mut self.q[qi];
        debug_assert!(q.len > 0, "pop from empty queue");
        let pid = q.head;
        q.len -= 1;
        if q.len > 0 {
            q.head = self.next[pid as usize];
        }
        pid
    }

    #[inline]
    fn want(&mut self, li: usize) {
        self.active[li / 64] |= 1u64 << (li % 64);
    }
}

/// One fast run: the run core over intrusive FIFOs and a worklist,
/// with hinted arrivals, idle-round skipping, the optional profiler
/// and a [`RunTally`].
struct FastSim<'a, P: Probe> {
    core: Core<'a, P, LinkedQueues, RunTally<'a>>,
    /// Arrival batches keyed by landing round, one lane per possible
    /// in-flight round (`link_latency + 1`). Each record pairs the
    /// flit with the output queue it joins at the landing PE, named
    /// at forward time, or [`NO_HINT`].
    arrivals: Vec<Vec<(PacketId, u32)>>,
    arrival_round: Vec<u32>,
    /// Armed only by [`Network::run_profiled`]: the injected phase
    /// clock plus the accumulating profile.
    profile: Option<(fn() -> u64, PhaseProfile)>,
}

impl<'a, P: Probe> FastSim<'a, P> {
    fn new(
        net: &'a Network,
        workload: &'a Workload,
        prepared: (RouteArena, Vec<SimPacket>),
        tally: RunTally<'a>,
        probe: &'a mut P,
    ) -> Self {
        let lanes = net.config.link_latency as usize + 1;
        FastSim {
            core: Core::new(net, workload, prepared, tally, probe),
            arrivals: vec![Vec::new(); lanes],
            arrival_round: vec![0; lanes],
            profile: None,
        }
    }

    /// Profiler sampling: charges the delta since `mark` to phase
    /// accumulator `phase` (0 = arrivals … 3 = accounting) and
    /// advances `mark`. No-op (and `mark` stays `None`) when the
    /// profiler is unarmed.
    fn sample(&mut self, mark: &mut Option<u64>, phase: usize) {
        if let Some((clock, prof)) = self.profile.as_mut() {
            let now = clock();
            let delta = now - mark.unwrap_or(now);
            match phase {
                0 => prof.arrivals_ticks += delta,
                1 => prof.injections_ticks += delta,
                2 => prof.arbitration_ticks += delta,
                _ => prof.accounting_ticks += delta,
            }
            *mark = Some(now);
        }
    }

    /// Clears link `li`'s worklist bit once nothing is left for it:
    /// its queue is empty and no escape resident wants it. Runs after
    /// every link the worklist visits, so it must inline.
    #[inline(always)]
    fn settle(&mut self, li: usize) {
        let core = &mut self.core;
        if core.q.len(li) == 0 && !(core.esc.is_some() && core.escape_wants(li)) {
            core.q.active[li / 64] &= !(1u64 << (li % 64));
        }
    }

    /// Runs to completion: the tally, the per-packet records, and the
    /// phase profile when armed.
    fn run(mut self) -> (RunTally<'a>, Vec<PacketRecord>, Option<PhaseProfile>) {
        let lanes = self.arrivals.len();
        let latency = lanes as u32 - 1;
        let max_rounds = self.core.net.config.max_rounds;
        let mut round: u32 = 0;
        while self.core.running() {
            if round >= max_rounds {
                self.core.strand(round);
                break;
            }
            let mut mark = None;
            if let Some((clock, prof)) = self.profile.as_mut() {
                prof.rounds += 1;
                mark = Some(clock());
            }
            // 1. Arrivals: drain this round's batch. The batch was
            // filled in ascending forwarding-link order, which is
            // exactly the order the reference engine lands flits in.
            // A record that names its next queue lands straight there.
            let slot = round as usize % lanes;
            let mut progress = !self.arrivals[slot].is_empty();
            if progress {
                debug_assert_eq!(self.arrival_round[slot], round, "lane landed early/late");
                let arrived = std::mem::take(&mut self.arrivals[slot]);
                self.core.in_flight -= arrived.len();
                for (pid, next_q) in arrived {
                    if next_q != NO_HINT {
                        let qi = next_q as usize;
                        if self.core.pool.is_some() {
                            self.core.reserved[qi / self.core.gens] -= 1;
                        }
                        self.core.place(pid, qi, round);
                        continue;
                    }
                    self.core.land(pid, round);
                }
            }
            self.sample(&mut mark, 0);
            // 2. Injections.
            progress |= self.core.inject(round);
            self.sample(&mut mark, 1);
            // 3. Arbitration over the worklist, in the reference scan
            // order. Enqueues only happen in phases 1–2 and diversions
            // are applied after the walk, so no bit is set during it.
            let land = (round as usize + lanes - 1) % lanes;
            for wi in 0..self.core.q.active.len() {
                let mut word = self.core.q.active[wi];
                while word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    let li = wi * 64 + bit;
                    if let Some(left) = self.core.serve(li, round) {
                        progress = true;
                        self.arrivals[land].push(left);
                    }
                    self.settle(li);
                }
            }
            // A diversion pops its link's queue.
            progress |= self.core.apply_diversions(round);
            for i in 0..self.core.divert.len() {
                self.settle(self.core.divert[i].0);
            }
            self.core.divert.clear();
            if !self.arrivals[land].is_empty() {
                self.arrival_round[land] = round.saturating_add(latency);
            }
            self.sample(&mut mark, 2);
            // 4. Accounting.
            let stranded = self.core.end_round(round, progress);
            self.sample(&mut mark, 3);
            if stranded {
                break;
            }
            // Idle skip: with nothing queued and nothing stalled,
            // rounds pass eventlessly until the next injection (a
            // phase's opening round included) or landing — jump
            // straight there. Unobservable in the stats: idle rounds
            // accrue zero wait, and the stalled guard keeps
            // injection_stall_rounds accounting exact (a stalled
            // packet is charged every round even when the pool is held
            // only by in-flight reservations).
            round = if self.core.total_queued == 0
                && self.core.stalled.is_empty()
                && self.core.running()
            {
                let next_inj = self.core.due.next_round();
                let next_arr = (0..lanes)
                    .filter(|&s| !self.arrivals[s].is_empty())
                    .map(|s| self.arrival_round[s])
                    .min();
                match next_inj.into_iter().chain(next_arr).min() {
                    Some(t) => t.clamp(round + 1, max_rounds),
                    None => max_rounds,
                }
            } else {
                round + 1
            };
        }
        let profile = self.profile.map(|(_, prof)| prof);
        let (tally, records) = self.core.finish(round);
        (tally, records, profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::HopTraces;
    use crate::routing::{AdaptiveRouting, EmbeddingRouting, GreedyRouting};
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;
    use sg_perm::lehmer::rank;
    use sg_star::distance::{distance, improving_mask};

    #[test]
    fn neighbor_rows_match_the_sequential_definition() {
        // The Lehmer-delta build against rank(unrank(u)·τ_g).
        for n in 2..=8usize {
            let net = Network::new(n);
            for u in 0..net.node_count() {
                let p = unrank(u as u64, n).unwrap();
                for g in 1..n {
                    assert_eq!(
                        u64::from(net.neighbor_of(u as u32, g)),
                        rank(&p.with_slots_swapped(0, g)),
                        "n={n} u={u} g={g}"
                    );
                }
            }
        }
    }

    #[test]
    fn neighbor_rows_at_max_order_match_the_definition() {
        // Every 101st PE of S_9, whose ranks need every Lehmer digit.
        let n = MAX_ORDER;
        let net = Network::new(n);
        for u in (0..net.node_count()).step_by(101) {
            let p = unrank(u as u64, n).unwrap();
            for g in 1..n {
                let v = rank(&p.with_slots_swapped(0, g));
                assert_eq!(u64::from(net.neighbor_of(u as u32, g)), v, "u={u} g={g}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "supported for 2 <= n <= 9")]
    fn orders_past_max_order_are_refused() {
        let _ = Network::new(10);
    }

    #[test]
    fn quiescence_audit_is_strict_about_the_release_round() {
        // One packet delivered at round d: a release at d (or any
        // earlier round) is a dirty handoff, a release at d + 1 is
        // clean — resolution frees the region's state *at* its round,
        // so the successor may arrive strictly after.
        let net = Network::new(4);
        let w = Workload::from_injections(
            "one",
            4,
            vec![Injection {
                round: 0,
                src: 7,
                dst: 0,
            }],
        );
        let stats = net.run(&w, &GreedyRouting);
        let d = match stats.packets[0].outcome {
            PacketOutcome::Delivered { round, .. } => round,
            other => panic!("expected delivery, got {other:?}"),
        };
        assert!(d > 0, "a multi-hop route resolves after injection");
        let owner = vec![0u32];
        let dirty = Network::region_quiescence_violations(&stats, &owner, &[d]);
        assert_eq!(
            dirty,
            vec![QuiescenceViolation {
                job: 0,
                pid: 0,
                resolved: Some(d),
                release: d,
            }]
        );
        assert_eq!(
            Network::region_quiescence_violations(&stats, &owner, &[d + 1]),
            vec![]
        );
        Network::assert_region_quiescent(&stats, &owner, &[d + 1]);
    }

    #[test]
    #[should_panic(expected = "dirty sub-star handoff")]
    fn quiescence_assert_panics_on_stranded_flits() {
        // A stranded packet never resolves: no release round is late
        // enough.
        let net = Network::new(3).with_config(NetConfig {
            queue_capacity: Some(1),
            flow_control: FlowControl::CreditBased,
            ..NetConfig::default()
        });
        let w = Workload::bernoulli_uniform(3, 10, 100, 5);
        let stats = net.run(&w, &GreedyRouting);
        assert!(stats.stranded > 0, "the tiny credit pool must wedge");
        let owner = vec![0u32; stats.packets.len()];
        Network::assert_region_quiescent(&stats, &owner, &[u32::MAX]);
    }

    #[test]
    fn single_packet_latency_equals_distance() {
        let net = Network::new(4);
        let a = Perm::from_slice(&[3, 1, 0, 2]).unwrap();
        let b = Perm::from_slice(&[0, 1, 2, 3]).unwrap();
        let w = Workload::from_injections(
            "one",
            4,
            vec![Injection {
                round: 0,
                src: rank(&a),
                dst: rank(&b),
            }],
        );
        let stats = net.run(&w, &GreedyRouting);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.makespan, distance(&a, &b));
        assert_eq!(stats.max_latency, distance(&a, &b));
        assert!(stats.is_contention_free());
    }

    #[test]
    fn link_latency_scales_delivery_time() {
        let a = Perm::from_slice(&[3, 1, 0, 2]).unwrap();
        let b = Perm::identity(4);
        let d = distance(&a, &b);
        for latency in [1u32, 2, 5] {
            let net = Network::new(4).with_config(NetConfig {
                link_latency: latency,
                ..NetConfig::default()
            });
            let w = Workload::from_injections(
                "one",
                4,
                vec![Injection {
                    round: 0,
                    src: rank(&a),
                    dst: rank(&b),
                }],
            );
            let stats = net.run(&w, &GreedyRouting);
            assert_eq!(stats.makespan, d * latency);
        }
    }

    #[test]
    fn two_packets_sharing_a_link_serialize() {
        // Both packets need link identity→g1 in the same round; one of
        // them must wait exactly one round.
        let net = Network::new(3);
        let id = Perm::identity(3);
        let via = id.with_slots_swapped(0, 1); // (1 0 2)
        let far = via.with_slots_swapped(0, 2); // two hops from id
        let near = via;
        // Packet A: id -> far (route g1,g2 under greedy), B: id -> near (g1).
        let w = Workload::from_injections(
            "collide",
            3,
            vec![
                Injection {
                    round: 0,
                    src: rank(&id),
                    dst: rank(&far),
                },
                Injection {
                    round: 0,
                    src: rank(&id),
                    dst: rank(&near),
                },
            ],
        );
        let stats = net.run(&w, &GreedyRouting);
        assert_eq!(stats.delivered, 2);
        assert_eq!(stats.total_wait_rounds, 1, "loser waits one round");
        assert_eq!(stats.peak_edge_occupancy, 2);
        assert!(!stats.is_contention_free());
        // Every tallied counter, total and per owner (one packet per
        // job): A wins the link in round 0 and hops on over g2 in
        // round 1; B joined the queue at depth 2 and leaves in round 1.
        // Both land in round 2.
        let tenants = Tenants::PerJob {
            policies: &[&GreedyRouting as &dyn RoutingPolicy; 2],
            owner: &[0, 1],
            escape: &[true; 2],
        };
        let run = net.simulate(&w, tenants, Engine::Fast, &mut NullProbe);
        let (total, jobs) = (run.total, run.per_job);
        assert_eq!(total, stats);
        let expect = [
            (
                &total,
                RunCounters {
                    last_event: 2,
                    total_wait_rounds: 1,
                    peak_edge: 2,
                    peak_node: 2,
                    forwarded: 3,
                    ..RunCounters::default()
                },
            ),
            (
                &jobs[0],
                RunCounters {
                    last_event: 2,
                    peak_edge: 1,
                    peak_node: 1,
                    forwarded: 2,
                    ..RunCounters::default()
                },
            ),
            (
                &jobs[1],
                RunCounters {
                    last_event: 2,
                    total_wait_rounds: 1,
                    peak_edge: 2,
                    peak_node: 2,
                    forwarded: 1,
                    ..RunCounters::default()
                },
            ),
        ];
        for (got, want) in expect {
            assert_eq!(RunCounters::of(got), want);
        }
    }

    #[test]
    fn self_send_delivers_instantly() {
        // Also exercises the fast engine's idle-round skip: nothing
        // happens until round 4.
        let net = Network::new(3);
        let w = Workload::from_injections(
            "self",
            3,
            vec![Injection {
                round: 4,
                src: 2,
                dst: 2,
            }],
        );
        let stats = net.run(&w, &GreedyRouting);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.makespan, 4);
        assert_eq!(stats.sum_latency, 0);
        assert_eq!(stats, net.run_with(&w, &GreedyRouting, Engine::Reference));
    }

    #[test]
    fn queue_capacity_tail_drops() {
        // Saturate one node's single useful output link.
        let net = Network::new(3).with_config(NetConfig {
            queue_capacity: Some(1),
            ..NetConfig::default()
        });
        let id = Perm::identity(3);
        let dst = id.with_slots_swapped(0, 1);
        let injections = (0..3)
            .map(|_| Injection {
                round: 0,
                src: rank(&id),
                dst: rank(&dst),
            })
            .collect();
        let stats = net.run(
            &Workload::from_injections("burst", 3, injections),
            &GreedyRouting,
        );
        assert_eq!(stats.delivered + stats.dropped_overflow, 3);
        assert!(stats.dropped_overflow >= 1, "capacity 1 must tail-drop");
    }

    #[test]
    fn credit_flow_stalls_instead_of_dropping() {
        // The same over-capacity burst under credit-based flow
        // control: no drops, everything delivered late.
        let id = Perm::identity(3);
        let dst = id.with_slots_swapped(0, 1);
        let injections: Vec<Injection> = (0..6)
            .map(|_| Injection {
                round: 0,
                src: rank(&id),
                dst: rank(&dst),
            })
            .collect();
        let w = Workload::from_injections("burst", 3, injections);
        let net = Network::new(3).with_config(NetConfig {
            queue_capacity: Some(1),
            flow_control: FlowControl::CreditBased,
            ..NetConfig::default()
        });
        let stats = net.run(&w, &GreedyRouting);
        assert_eq!(stats.dropped(), 0, "credits never drop");
        assert_eq!(stats.delivered, 6);
        assert!(
            stats.injection_stall_rounds > 0,
            "a 6-packet burst into a 2-slot pool must stall at the source"
        );
        assert_eq!(stats, net.run_with(&w, &GreedyRouting, Engine::Reference));
    }

    #[test]
    fn fault_drop_vs_reroute() {
        let n = 4;
        let a = Perm::identity(n);
        let b = Perm::from_slice(&[3, 2, 1, 0]).unwrap();
        // Kill the first hop of the greedy route a -> b.
        let first_gen = GreedyRouting.route(&a, &b)[0] as usize;
        let dead_plan = |policy| {
            FaultPlan::none()
                .with_policy(policy)
                .kill_link(&a, first_gen)
        };
        let w = Workload::from_injections(
            "faulted",
            n,
            vec![Injection {
                round: 0,
                src: rank(&a),
                dst: rank(&b),
            }],
        );
        let dropped = Network::new(n)
            .with_faults(dead_plan(FaultPolicy::Drop))
            .run(&w, &GreedyRouting);
        assert_eq!(dropped.dropped_fault, 1);
        assert_eq!(dropped.delivered, 0);

        let rerouted = Network::new(n)
            .with_faults(dead_plan(FaultPolicy::Reroute))
            .run(&w, &GreedyRouting);
        assert_eq!(rerouted.delivered, 1);
        // The detour can cost more than the fault-free distance but
        // must still be a real path.
        assert!(rerouted.max_latency >= distance(&a, &b));
    }

    #[test]
    fn dead_destination_is_unreachable_under_reroute() {
        let n = 4;
        let a = Perm::identity(n);
        let b = Perm::from_slice(&[1, 0, 3, 2]).unwrap();
        let plan = FaultPlan::none()
            .with_policy(FaultPolicy::Reroute)
            .kill_node(&b);
        let w = Workload::from_injections(
            "dead-dst",
            n,
            vec![Injection {
                round: 0,
                src: rank(&a),
                dst: rank(&b),
            }],
        );
        let stats = Network::new(n).with_faults(plan).run(&w, &GreedyRouting);
        assert_eq!(stats.dropped_unreachable, 1);
    }

    #[test]
    fn n_minus_2_faults_still_deliver_everything_with_reroute() {
        // The paper's fault-tolerance bound: n-2 dead nodes cannot
        // disconnect S_n, so every packet between live PEs delivers.
        let n = 5;
        let plan = FaultPlan::random_nodes(n, n - 2, 99).with_policy(FaultPolicy::Reroute);
        let net = Network::new(n).with_faults(plan.clone());
        let w = Workload::random_permutation(n, 1234);
        let stats = net.run(&w, &GreedyRouting);
        for rec in &stats.packets {
            if plan.is_node_dead(rec.src) || plan.is_node_dead(rec.dst) {
                assert!(!rec.outcome.is_delivered());
            } else {
                assert!(
                    rec.outcome.is_delivered(),
                    "live pair {}->{} must survive n-2 faults",
                    rec.src,
                    rec.dst
                );
            }
        }
    }

    #[test]
    fn embedding_and_greedy_agree_on_delivery() {
        let net = Network::new(4);
        let w = Workload::random_permutation(4, 5);
        let g = net.run(&w, &GreedyRouting);
        let e = net.run(&w, &EmbeddingRouting);
        assert_eq!(g.delivered, g.injected);
        assert_eq!(e.delivered, e.injected);
        // Greedy routes are never longer than embedding routes.
        assert!(g.forwarded_flits <= e.forwarded_flits);
    }

    #[test]
    fn adaptive_routing_is_minimal_without_contention_or_faults() {
        // One lone packet: adaptive must take a shortest path — same
        // flit count and latency as greedy.
        let n = 5;
        let net = Network::new(n);
        for seed in 0..4u64 {
            let w = Workload::uniform_pairs(n, 1, seed);
            let a = net.run(&w, &AdaptiveRouting);
            let g = net.run(&w, &GreedyRouting);
            assert_eq!(a.forwarded_flits, g.forwarded_flits, "seed {seed}");
            assert_eq!(a.sum_latency, g.sum_latency, "seed {seed}");
        }
    }

    #[test]
    fn sim_packet_stays_32_bytes() {
        // The adaptive state lives in a side table and a greedy packet's
        // word in its span fields, so the record every forward reads
        // does not grow.
        assert_eq!(std::mem::size_of::<SimPacket>(), 32);
    }

    /// Sets up `w` on `S_n` as a three-job run — packet `pid` follows
    /// [`EmbeddingRouting`], [`GreedyRouting`] or [`AdaptiveRouting`] by
    /// `pid % 3`, and only the greedy job may not divert — over at
    /// least three setup chunks, and checks every packet once the
    /// chunks are stitched: its escape opt-in is its job's, a
    /// source-routed packet's arena span holds [`EmbeddingRouting`]'s
    /// route, a greedy packet carries [`packed_rel`] and an adaptive
    /// one's side-table entry equals [`AdaptiveState::new`] of its
    /// endpoints. Each endpoint's [`Perm`] is held to [`rank`] first, so
    /// a wrong decode fails here even though setup and the oracles
    /// share the one kernel.
    fn assert_setup_matches_oracle(n: usize, w: &Workload) {
        let net = Network::new(n);
        let policies: [&dyn RoutingPolicy; 3] =
            [&EmbeddingRouting, &GreedyRouting, &AdaptiveRouting];
        let owner: Vec<u32> = (0..w.len() as u32).map(|pid| pid % 3).collect();
        let escape = [true, false, true];
        let tenants = Tenants::PerJob {
            policies: &policies,
            owner: &owner,
            escape: &escape,
        };
        let (arena, pkts) = net.prepare(w, tenants);
        assert!(w.len().div_ceil(route_chunk_len(w.len())) >= 3);
        let node = |r: u64| {
            let p = unrank(r, n).unwrap();
            assert_eq!(rank(&p), r, "S_{n}: unrank({r}) = {p}");
            p
        };
        for ((i, pkt), &j) in w.injections().iter().zip(&pkts).zip(&owner) {
            assert_eq!(pkt.may_escape, escape[j as usize]);
            if i.src == i.dst {
                continue;
            }
            let (a, b) = (node(i.src), node(i.dst));
            assert_eq!(pkt.rule, policies[j as usize].hop_rule());
            match pkt.rule {
                HopRule::SourceRoute => {
                    let span = pkt.route_off as usize..(pkt.route_off + pkt.route_len) as usize;
                    assert_eq!(arena.data[span], EmbeddingRouting.route(&a, &b));
                }
                HopRule::Greedy => {
                    let want = packed_rel(n, pkt.cur, pkt.dst);
                    assert_eq!(pkt.greedy_rel(), want, "S_{n}: {a} -> {b}");
                }
                HopRule::Adaptive => {
                    let state = arena.adaptive[pkt.route_off as usize];
                    assert_eq!(state, AdaptiveState::new(&a, &b), "S_{n}: {a} -> {b}");
                }
            }
        }
    }

    #[test]
    fn setup_packs_every_packet_across_chunks() {
        // Three setup chunks of source-routed, greedy and adaptive
        // packets between uniform endpoints.
        let n = 6;
        let w = Workload::uniform_pairs(n, 3 * ROUTE_CHUNK + 17, 3);
        assert_eq!(w.len().div_ceil(route_chunk_len(w.len())), 3);
        assert_setup_matches_oracle(n, &w);
    }

    /// Every ordered pair of distinct ranks of `S_n`.
    fn every_pair(n: usize) -> Vec<(u64, u64)> {
        let size = factorial(n);
        (0..size)
            .flat_map(|a| (0..size).filter(move |&b| b != a).map(move |b| (a, b)))
            .collect()
    }

    /// 256 pairs of distinct ranks of `S_n` drawn from `seed`.
    fn random_pairs(n: usize, seed: u64) -> Vec<(u64, u64)> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut node = || rng.gen_range(0..factorial(n));
        std::iter::repeat_with(|| (node(), node()))
            .filter(|(a, b)| a != b)
            .take(256)
            .collect()
    }

    /// `pairs` (source and destination ranks of `S_n`) as the packets of
    /// [`assert_setup_matches_oracle`]: each pair three times in a row,
    /// once per job, cycled until setup runs at least three chunks.
    fn setup_oracle_workload(n: usize, pairs: &[(u64, u64)]) -> Workload {
        let len = (3 * pairs.len()).max(3 * ROUTE_CHUNK + 17);
        let inj = (0..len).map(|k| {
            let (src, dst) = pairs[k / 3 % pairs.len()];
            Injection { round: 0, src, dst }
        });
        Workload::from_injections("setup oracle", n, inj.collect())
    }

    #[test]
    fn setup_matches_its_oracle_on_every_pair() {
        for n in 2..=5usize {
            assert_setup_matches_oracle(n, &setup_oracle_workload(n, &every_pair(n)));
        }
    }

    #[test]
    fn setup_matches_its_oracle_at_max_order() {
        let n = MAX_ORDER;
        assert_setup_matches_oracle(n, &setup_oracle_workload(n, &random_pairs(n, 28)));
    }

    /// A greedy policy the engines must never ask for a route.
    struct GreedyWithoutRoutes;

    impl RoutingPolicy for GreedyWithoutRoutes {
        fn name(&self) -> &'static str {
            "greedy without routes"
        }

        fn route_into(&self, _: &Perm, _: &Perm, _: &mut Vec<u8>) {
            panic!("a greedy run routes nothing at setup");
        }

        fn hop_rule(&self) -> HopRule {
            HopRule::Greedy
        }
    }

    /// Sends the greedy packets `pairs` (source and destination ranks
    /// of `S_n`) through the run core over the fast engine's queue
    /// store, one at a time, so each travels alone. Setup may neither
    /// route them nor put a byte in the route arena. A packet leaves
    /// its source through next-hop selection and lands through its
    /// arrival's queue hint when `hinted` and the forward named one,
    /// otherwise through next-hop selection, as the reference engine
    /// lands every flit. At every PE a packet stands on, its carried
    /// word must equal the packed `dst⁻¹ ∘ cur`, and no packet may
    /// take more hops than the diameter `⌊3(n − 1)/2⌋`. Returns the
    /// generators each packet was forwarded over.
    fn drive_greedy_packets(n: usize, pairs: &[(u64, u64)], hinted: bool) -> Vec<Vec<u8>> {
        let net = Network::new(n);
        let inj = pairs
            .iter()
            .map(|&(src, dst)| Injection { round: 0, src, dst });
        let w = Workload::from_injections("lone greedy", n, inj.collect());
        let prepared = net.prepare(&w, Tenants::One(&GreedyWithoutRoutes));
        assert!(
            prepared.0.data.is_empty(),
            "greedy packets have no arena bytes"
        );
        let mut probe = NullProbe;
        let tally = RunCounters::default();
        let mut core: Core<'_, _, LinkedQueues, _> =
            Core::new(&net, &w, prepared, tally, &mut probe);
        let gens = n - 1;
        let mut routes = Vec::new();
        for pid in 0..pairs.len() as PacketId {
            let p = pid as usize;
            let mut route = Vec::new();
            core.enqueue_next(pid, 0);
            let mut round = 0;
            while core.outcomes[p].is_none() {
                assert!(
                    route.len() < 3 * (n - 1) / 2,
                    "S_{n}: {route:?} past the diameter"
                );
                let pkt = core.pkts[p];
                assert_eq!(pkt.rule, HopRule::Greedy);
                assert_eq!(pkt.greedy_rel(), packed_rel(n, pkt.cur, pkt.dst));
                let u = pkt.cur as usize;
                let li = (u * gens..(u + 1) * gens)
                    .find(|&li| core.q.len(li) > 0)
                    .expect("a lone packet short of its destination is queued at its PE");
                let (left, next_q) = core.serve(li, round).expect("a lone flit leaves");
                assert_eq!(left, pid);
                route.push((li % gens + 1) as u8);
                core.in_flight -= 1;
                round += 1;
                if hinted && next_q != NO_HINT {
                    core.place(pid, next_q as usize, round);
                } else {
                    core.land(pid, round);
                }
            }
            routes.push(route);
        }
        routes
    }

    /// Each of `pairs` sent alone takes exactly [`GreedyRouting`]'s
    /// route, hinted landings or not.
    fn assert_greedy_packets_follow_greedy_routes(n: usize, pairs: &[(u64, u64)]) {
        for hinted in [true, false] {
            let routes = drive_greedy_packets(n, pairs, hinted);
            for (&(a, b), route) in pairs.iter().zip(&routes) {
                let (a, b) = (unrank(a, n).unwrap(), unrank(b, n).unwrap());
                let want = GreedyRouting.route(&a, &b);
                assert_eq!(*route, want, "S_{n}: {a} -> {b}, hinted {hinted}");
            }
        }
    }

    #[test]
    fn greedy_hops_match_their_oracle_on_every_pair() {
        for n in 2..=5usize {
            assert_greedy_packets_follow_greedy_routes(n, &every_pair(n));
        }
    }

    #[test]
    fn greedy_hops_match_their_oracle_at_max_order() {
        let n = MAX_ORDER;
        assert_greedy_packets_follow_greedy_routes(n, &random_pairs(n, 27));
    }

    /// Drives one adaptive packet `src → dst` through [`adaptive_hop`]
    /// hop by hop, under queue occupancies drawn from `rng` (0 or 1 per
    /// link, so most hops tie). At every hop the carried state must
    /// agree with its definitions: the improving set with
    /// [`improving_mask`] of `dst⁻¹ ∘ cur`, the tie-break with the
    /// first generator of [`EmbeddingRouting`]'s route `cur → dst`, and
    /// the choice with the least-occupied improving link, ties going to
    /// that generator when it is tied, else to the smallest index.
    fn drive_adaptive_packet(net: &Network, src: &Perm, dst: &Perm, rng: &mut ChaCha8Rng) {
        let n = net.n();
        let mut state = AdaptiveState::new(src, dst);
        let mut cur = *src;
        let mut hops = 0;
        while cur != *dst {
            let improving = improving_mask(&cur.relative_to(dst));
            assert_eq!(state.improving(n), improving, "{src} -> {dst} at {cur}");
            let embed = usize::from(EmbeddingRouting.route(&cur, dst)[0]);
            assert_eq!(state.embedding_hop(n), embed, "{src} -> {dst} at {cur}");
            let occ: Vec<u32> = (1..n).map(|_| rng.gen_range(0..2)).collect();
            let min = (1..n)
                .filter(|&g| improving >> g & 1 == 1)
                .map(|g| occ[g - 1])
                .min()
                .expect("an improving generator exists");
            let tied: Vec<usize> = (1..n)
                .filter(|&g| improving >> g & 1 == 1 && occ[g - 1] == min)
                .collect();
            let want = if tied.len() > 1 && tied.contains(&embed) {
                embed
            } else {
                tied[0]
            };
            let HopChoice::Go(g) = adaptive_hop(net, rank(&cur) as u32, &state, &occ) else {
                panic!("a clean network never blocks {src} -> {dst} at {cur}");
            };
            assert_eq!(g, want, "{src} -> {dst} at {cur}, occupancies {occ:?}");
            state.advance(g);
            cur.swap_slots(0, g);
            hops += 1;
        }
        assert_eq!(hops, distance(src, dst), "adaptive hops are minimal");
    }

    #[test]
    fn adaptive_selector_matches_its_oracle_on_every_pair() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        for n in 2..=5usize {
            let net = Network::new(n);
            for ra in 0..factorial(n) {
                let a = unrank(ra, n).unwrap();
                for rb in (0..factorial(n)).filter(|&rb| rb != ra) {
                    drive_adaptive_packet(&net, &a, &unrank(rb, n).unwrap(), &mut rng);
                }
            }
        }
    }

    #[test]
    fn adaptive_selector_matches_its_oracle_at_max_order() {
        let n = MAX_ORDER;
        let net = Network::new(n);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..256 {
            let a = unrank(rng.gen_range(0..factorial(n)), n).unwrap();
            let b = unrank(rng.gen_range(0..factorial(n)), n).unwrap();
            drive_adaptive_packet(&net, &a, &b, &mut rng);
        }
    }

    #[test]
    fn engines_agree_on_contended_uniform_traffic() {
        let net = Network::new(4);
        let w = Workload::bernoulli_uniform(4, 5, 80, 0xABBA);
        let fast = net.run_with(&w, &GreedyRouting, Engine::Fast);
        let reference = net.run_with(&w, &GreedyRouting, Engine::Reference);
        assert_eq!(fast, reference);
        assert!(fast.total_wait_rounds > 0, "the case must exercise queues");
    }

    #[test]
    fn max_rounds_strands_in_both_engines() {
        let w = Workload::hot_spot(4, 0, 100, 7);
        let net = Network::new(4).with_config(NetConfig {
            max_rounds: 2,
            ..NetConfig::default()
        });
        let fast = net.run_with(&w, &GreedyRouting, Engine::Fast);
        assert!(fast.stranded > 0, "2 rounds cannot drain a hot spot");
        assert_eq!(
            fast.delivered + fast.stranded + fast.dropped(),
            fast.injected
        );
        assert_eq!(fast, net.run_with(&w, &GreedyRouting, Engine::Reference));
    }

    #[test]
    fn landing_past_the_last_round_strands_at_the_cap() {
        // Forwarded in round u32::MAX − 1 over two-round links, the
        // flit would land past u32::MAX: its landing round saturates at
        // the cap, where the run strands it with its injection round
        // kept. Fast engine only — the reference engine would step
        // through every round.
        let late = u32::MAX - 1;
        let w = Workload::from_injections(
            "late",
            3,
            vec![Injection {
                round: late,
                src: 0,
                dst: 5,
            }],
        );
        let net = Network::new(3).with_config(NetConfig {
            link_latency: 2,
            max_rounds: u32::MAX,
            ..NetConfig::default()
        });
        let stats = net.run(&w, &GreedyRouting);
        assert_eq!(stats.stranded, 1);
        assert_eq!(stats.packets[0].outcome, PacketOutcome::Stranded);
        assert_eq!(stats.packets[0].inject_round, late);
    }

    #[test]
    fn phase_opening_past_the_last_round_strands_at_the_cap() {
        // Phase 0's one hop lands in round u32::MAX − 3, so phase 1
        // opens in round u32::MAX − 2 and its packet is due 5 rounds
        // later, past u32::MAX: the due round saturates at the cap,
        // where the run strands the packet with that round as its
        // injection round. Fast engine only, as above.
        let at = |round, src, dst| vec![Injection { round, src, dst }];
        let chained = Workload::chain("late", 3, [at(u32::MAX - 4, 0, 5), at(5, 1, 4)]);
        let net = Network::new(3).with_config(NetConfig {
            max_rounds: u32::MAX,
            ..NetConfig::default()
        });
        let stats = net.run(&chained.workload, &GreedyRouting);
        let delivered = PacketOutcome::Delivered {
            round: u32::MAX - 3,
            hops: 1,
        };
        assert_eq!(stats.packets[0].outcome, delivered);
        assert_eq!(stats.packets[1].outcome, PacketOutcome::Stranded);
        assert_eq!(stats.packets[1].inject_round, u32::MAX);
        assert_eq!(stats.makespan, u32::MAX - 3);
    }

    #[test]
    fn hop_traces_record_every_forwarded_flit() {
        let net = Network::new(4);
        let w = Workload::random_permutation(4, 21);
        let mut traces = HopTraces::new(w.len());
        let tenants = Tenants::One(&GreedyRouting);
        let stats = net.simulate(&w, tenants, Engine::Fast, &mut traces).total;
        let hops: u64 = traces.hops.iter().map(|t| t.len() as u64).sum();
        assert_eq!(hops, stats.forwarded_flits);
        for (rec, tr) in stats.packets.iter().zip(&traces.hops) {
            assert_eq!(tr.first().map(|h| h.from), Some(rec.src));
            assert_eq!(tr.last().map(|h| h.to), Some(rec.dst));
            for pair in tr.windows(2) {
                assert_eq!(pair[0].to, pair[1].from, "trace must chain");
                assert!(pair[0].round < pair[1].round, "hops take time");
            }
        }
    }

    #[test]
    fn partitioned_run_attributes_everything_exactly_once() {
        // Two tenants composed onto one S_5: every additive counter
        // splits exactly, per-packet records partition by owner.
        let n = 5;
        let net = Network::new(n);
        let a = Workload::uniform_pairs(n, 40, 11);
        let b = Workload::bernoulli_uniform(n, 3, 30, 22);
        let (merged, owner) = Workload::compose("two-tenant", n, &[(&a, 0), (&b, 2)]);
        assert_eq!(owner.len(), merged.len());
        let tenants = Tenants::PerJob {
            policies: &[&GreedyRouting as &dyn RoutingPolicy; 2],
            owner: &owner,
            escape: &[true; 2],
        };
        let run = net.simulate(&merged, tenants, Engine::Fast, &mut NullProbe);
        let (total, jobs) = (run.total, run.per_job);
        assert_eq!(
            total,
            net.run(&merged, &GreedyRouting),
            "attribution is free"
        );
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].injected, a.len() as u64);
        assert_eq!(jobs[1].injected, b.len() as u64);
        for (f, sum) in [
            (
                total.forwarded_flits,
                jobs[0].forwarded_flits + jobs[1].forwarded_flits,
            ),
            (
                total.total_wait_rounds,
                jobs[0].total_wait_rounds + jobs[1].total_wait_rounds,
            ),
            (total.delivered, jobs[0].delivered + jobs[1].delivered),
        ] {
            assert_eq!(f, sum, "additive counters must split exactly");
        }
        assert_eq!(total.makespan, jobs[0].makespan.max(jobs[1].makespan));
        for j in &jobs {
            assert_eq!(j.delivered + j.dropped() + j.stranded, j.injected);
            assert!(j.peak_edge_occupancy <= total.peak_edge_occupancy);
        }
    }

    #[test]
    fn compose_is_stable_per_part() {
        let n = 4;
        let a = Workload::uniform_pairs(n, 10, 1);
        let b = Workload::uniform_pairs(n, 10, 2);
        let (merged, owner) = Workload::compose("m", n, &[(&a, 3), (&b, 3)]);
        // Part packets, in merged order, are the part's own sequence
        // shifted by its offset.
        for (j, part) in [&a, &b].iter().enumerate() {
            let mine: Vec<Injection> = merged
                .injections()
                .iter()
                .zip(&owner)
                .filter(|&(_, &o)| o == j as u32)
                .map(|(i, _)| *i)
                .collect();
            assert_eq!(mine.len(), part.len());
            for (got, want) in mine.iter().zip(part.injections()) {
                assert_eq!(got.round, want.round + 3);
                assert_eq!((got.src, got.dst), (want.src, want.dst));
            }
        }
    }

    #[test]
    fn rebased_shifts_rounds_only() {
        let n = 4;
        let net = Network::new(n);
        let w = Workload::uniform_pairs(n, 20, 5);
        let (merged, owner) = Workload::compose("solo", n, &[(&w, 7)]);
        let tenants = Tenants::PerJob {
            policies: &[&GreedyRouting],
            owner: &owner,
            escape: &[true],
        };
        let RunStats { per_job: jobs, .. } =
            net.simulate(&merged, tenants, Engine::Fast, &mut NullProbe);
        let alone = net.run(&w, &GreedyRouting);
        assert_eq!(jobs[0].rebased(7), alone, "one tenant, shifted clock");
    }

    #[test]
    fn linked_queues_fifo_interleaved() {
        let mut qs = LinkedQueues::new(2, 1100);
        // Interleave two deep queues.
        for i in 0..100u32 {
            qs.push(0, i);
            qs.push(1, 1000 + i);
        }
        assert_eq!(qs.len(0), 100);
        for i in 0..100u32 {
            assert_eq!(qs.front(0), Some(i));
            assert_eq!(qs.pop(0), i);
            assert_eq!(qs.pop(1), 1000 + i);
        }
        assert_eq!(qs.len(0), 0);
        assert_eq!(qs.front(0), None);
        // Drained queues take new flits, in any order of pids.
        for i in 0..50u32 {
            qs.push(0, i * 3);
        }
        for i in 0..50u32 {
            assert_eq!(qs.pop(0), i * 3);
        }
    }

    proptest! {
        /// Random pushes and pops over a handful of queues, with every
        /// pid in at most one queue at a time and popped pids pushed
        /// again onto any queue: after each step, every queue's
        /// `front` and `len` and each popped pid match a `VecDeque`
        /// model.
        #[test]
        fn linked_queues_match_a_vecdeque_model(
            queues in 1usize..=4,
            pids in 1u32..=24,
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut qs = LinkedQueues::new(queues, pids as usize);
            let mut model = vec![VecDeque::new(); queues];
            let mut idle: Vec<PacketId> = (0..pids).collect();
            for _ in 0..200 {
                let qi = rng.gen_range(0..queues);
                if !idle.is_empty() && rng.gen_bool(0.55) {
                    let pid = idle.swap_remove(rng.gen_range(0..idle.len()));
                    qs.push(qi, pid);
                    model[qi].push_back(pid);
                } else if let Some(want) = model[qi].pop_front() {
                    prop_assert_eq!(qs.pop(qi), want);
                    idle.push(want);
                }
                for (k, m) in model.iter().enumerate() {
                    prop_assert_eq!(qs.len(k), m.len() as u32);
                    prop_assert_eq!(qs.front(k), m.front().copied());
                }
            }
        }
    }
}
