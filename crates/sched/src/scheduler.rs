//! The batch scheduler: admission, placement, composition, and the
//! measured run.
//!
//! [`schedule`] replays a job stream against an [`Allocator`] (one
//! of three placement policies) in a deterministic event loop (FCFS with
//! declared walltimes, releases before arrivals, admissions in
//! arrival order), producing a [`Schedule`] of placements plus a
//! fragmentation timeline. [`Schedule::tenant_run`] then lifts every
//! job's local traffic onto its sub-star, composes one shared
//! workload, and [`TenantRun::run`] drives it through a single
//! [`Network`] with per-job routing and per-job statistics — the
//! whole multi-tenant machine in one simulated run.

use crate::alloc::{Allocator, MIN_ORDER};
use crate::job::{JobId, JobSpec, TenantRouting};
use crate::policy::{tenant_policy, AdmissionPolicy, ReleaseMode, SchedConfig, SchedPolicy};
use rayon::prelude::*;
use sg_net::{
    Engine, Injection, Network, QuiescenceViolation, RoutingPolicy, RunStats, Tenants,
    TrafficStats, Workload,
};
use sg_obs::{Event, NullProbe, Probe, SchedPhaseProfile};
use sg_star::substar::SubStar;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One admitted job: where it ran and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// The job as specified.
    pub job: JobSpec,
    /// The disjoint slice of the machine it received.
    pub substar: SubStar,
    /// Round the allocation was granted (traffic starts here).
    pub start: u32,
    /// Round the allocation is returned. Under
    /// [`ReleaseMode::Declared`] this is the declared
    /// `start + duration` (min 1); under [`ReleaseMode::Drained`] it
    /// is `start + max(duration, drain + 1)` — never earlier than
    /// declared, and late enough that the last flit has resolved.
    pub finish: u32,
    /// True when the job jumped the FCFS queue under
    /// [`SchedPolicy::EasyBackfill`].
    pub backfilled: bool,
}

impl Placement {
    /// Rounds spent waiting in the arrival queue.
    #[must_use]
    pub fn queueing_delay(&self) -> u32 {
        self.start - self.job.arrival
    }

    /// The finish the *declaration* promised (`start + duration`, min
    /// 1 round) — what EASY reservations are computed from, and equal
    /// to [`Placement::finish`] under [`ReleaseMode::Declared`].
    #[must_use]
    pub fn declared_finish(&self) -> u32 {
        self.start + self.job.duration.max(1)
    }
}

/// Allocator state observed after the admissions of one event round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragSample {
    /// Event round.
    pub round: u32,
    /// PEs not allocated to anyone.
    pub free_pes: u64,
    /// Largest sub-star order still allocatable.
    pub largest_free_order: usize,
    /// Jobs waiting in the arrival queue.
    pub pending: usize,
}

impl FragSample {
    /// External fragmentation in `[0, 1]`: the share of free capacity
    /// *not* reachable as one largest free sub-star (`0` when the
    /// free space is one block or the machine is full).
    #[must_use]
    pub fn fragmentation(&self) -> f64 {
        if self.free_pes == 0 {
            return 0.0;
        }
        let largest = sg_perm::factorial::factorial(self.largest_free_order);
        1.0 - largest as f64 / self.free_pes as f64
    }
}

/// The outcome of replaying a job stream against one allocator.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    n: usize,
    placements: Vec<Placement>,
    frag: Vec<FragSample>,
    horizon: u32,
}

impl Schedule {
    /// Host star order.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Placements in admission order.
    #[must_use]
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Fragmentation timeline, one sample per event round.
    #[must_use]
    pub fn frag_timeline(&self) -> &[FragSample] {
        &self.frag
    }

    /// Round the last allocation is released — the schedule makespan.
    #[must_use]
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// Jobs placed by jumping the queue (EASY backfill).
    #[must_use]
    pub fn backfills(&self) -> usize {
        self.placements.iter().filter(|p| p.backfilled).count()
    }

    /// Mean queueing delay over all jobs, in rounds.
    #[must_use]
    pub fn mean_queueing_delay(&self) -> f64 {
        if self.placements.is_empty() {
            return 0.0;
        }
        self.placements
            .iter()
            .map(|p| f64::from(p.queueing_delay()))
            .sum::<f64>()
            / self.placements.len() as f64
    }

    /// Mean external fragmentation over the timeline.
    #[must_use]
    pub fn mean_fragmentation(&self) -> f64 {
        if self.frag.is_empty() {
            return 0.0;
        }
        self.frag.iter().map(FragSample::fragmentation).sum::<f64>() / self.frag.len() as f64
    }

    /// `true` iff every pair of placements with overlapping
    /// `[start, finish)` residency holds disjoint sub-stars — the
    /// allocator contract, checkable after the fact.
    #[must_use]
    pub fn concurrent_placements_disjoint(&self) -> bool {
        for (i, a) in self.placements.iter().enumerate() {
            for b in &self.placements[i + 1..] {
                let overlap = a.start < b.finish && b.start < a.finish;
                if overlap && !a.substar.is_disjoint(&b.substar) {
                    return false;
                }
            }
        }
        true
    }

    /// Builds the composed multi-tenant run for this schedule.
    #[must_use]
    pub fn tenant_run(&self) -> TenantRun {
        self.tenant_run_with(|_, _| None)
    }

    /// [`Schedule::tenant_run`] with a per-job traffic override:
    /// `part_override(i, placement)` may replace placement `i`'s
    /// declared [`crate::TrafficProfile`] with an explicit workload —
    /// **global** PE ranks, **job-local** rounds (exactly what an
    /// isolated run of the job would inject; the job's start offset
    /// is applied here, as for declared traffic). Return `None` to
    /// keep the declared profile.
    ///
    /// This is how structured traffic that cannot be described by a
    /// profile enum — e.g. an `sg-coll` collective compiled onto the
    /// job's sub-star — runs as a tenant: confined overrides keep the
    /// byte-isolation theorem, since the run machinery downstream is
    /// identical.
    ///
    /// # Panics
    /// Panics if an override targets a different star order.
    #[must_use]
    pub fn tenant_run_with<F>(&self, part_override: F) -> TenantRun
    where
        F: Fn(usize, &Placement) -> Option<Workload>,
    {
        let parts: Vec<Workload> = self
            .placements
            .iter()
            .enumerate()
            .map(|(i, p)| match part_override(i, p) {
                Some(w) => {
                    assert_eq!(
                        w.n(),
                        self.n,
                        "override for job {} targets S_{} not S_{}",
                        p.job.id,
                        w.n(),
                        self.n
                    );
                    w
                }
                None => lift_workload(self.n, p),
            })
            .collect();
        let with_offsets: Vec<(&Workload, u32)> = parts
            .iter()
            .zip(&self.placements)
            .map(|(w, p)| (w, p.start))
            .collect();
        let (workload, owner) = Workload::compose("tenants", self.n, &with_offsets);
        let policies = self
            .placements
            .iter()
            .map(|p| tenant_policy(p.job.routing, &p.substar))
            .collect();
        TenantRun {
            schedule: self.clone(),
            parts,
            workload,
            owner,
            policies,
        }
    }
}

/// A job's local traffic lifted onto its sub-star (rounds still
/// job-local; [`Workload::compose`] applies the start offset).
fn lift_workload(n: usize, p: &Placement) -> Workload {
    let local = p.job.traffic.local_workload(p.job.order);
    let map = p.substar.node_ranks();
    let injections = local
        .injections()
        .iter()
        .map(|i| Injection {
            round: i.round,
            src: map[i.src as usize],
            dst: map[i.dst as usize],
        })
        .collect();
    Workload::from_injections(&format!("job{}", p.job.id), n, injections)
}

/// Replays `jobs` (FCFS by arrival, stable on ties) against `alloc`.
/// Deterministic: same stream + same policy ⇒ identical schedule.
///
/// Event loop per distinct round: releases first, then arrivals, then
/// admissions from the queue head while they fit (strict FCFS — a
/// blocked head blocks everyone behind it, the classic batch
/// discipline).
///
/// # Panics
/// Panics if a job requests an order outside
/// [`MIN_ORDER`]`..=alloc.n()` (it could never be placed).
#[must_use]
pub fn schedule(jobs: &[JobSpec], alloc: &mut Allocator) -> Schedule {
    schedule_with(jobs, alloc, &SchedConfig::default(), &mut NullProbe)
}

/// How long a placement holds its sub-star under
/// [`ReleaseMode::Drained`]: the job's traffic is co-simulated alone
/// on its sub-star (same lift, same policy, same escape flag the
/// composed run will use) and the region is held one round past the
/// last flit's resolution — or the full declaration, whichever is
/// longer. Exact when every tenant in the stream is confined
/// ([`TenantRouting::is_confined`]): byte-isolation makes the
/// isolated co-simulation identical to the job's slice of the shared
/// run.
fn drained_hold(net: &Network, n: usize, job: &JobSpec, substar: &SubStar) -> u32 {
    let probe_placement = Placement {
        job: *job,
        substar: substar.clone(),
        start: 0,
        finish: 0,
        backfilled: false,
    };
    let workload = lift_workload(n, &probe_placement);
    let policy = tenant_policy(job.routing, substar);
    let owner = vec![0u32; workload.len()];
    let tenants = Tenants::PerJob {
        policies: &[policy.as_ref()],
        owner: &owner,
        escape: &[job.escape],
    };
    let RunStats { total, .. } = net.simulate(&workload, tenants, Engine::Fast, &mut NullProbe);
    assert_eq!(
        total.stranded, 0,
        "job {} wedges in isolation and never drains — drained release would hold its sub-star forever",
        job.id
    );
    job.duration.max(1).max(total.makespan + 1)
}

/// When could the blocked head start, if every running job released
/// at its **declared** finish? Probes a clone of the allocator,
/// releasing running placements in declared-finish order (never
/// before `now` — an over-running job's best-case release is
/// immediate) until the head's order fits. The classic EASY shadow
/// time.
fn easy_shadow(
    alloc: &Allocator,
    placements: &[Placement],
    running: &[usize],
    head_order: usize,
    now: u32,
) -> u32 {
    let mut ghost = alloc.clone();
    if ghost.allocate(head_order).is_some() {
        return now;
    }
    let mut order: Vec<usize> = running.to_vec();
    order.sort_by_key(|&i| (placements[i].declared_finish().max(now), i));
    for &i in &order {
        ghost.release(&placements[i].substar);
        if ghost.allocate(head_order).is_some() {
            return placements[i].declared_finish().max(now);
        }
    }
    unreachable!("an order <= n job always fits the drained machine")
}

/// [`schedule`] under an explicit policy bundle — release mode
/// ([`ReleaseMode`]), queueing discipline ([`SchedPolicy`]), and
/// pool admission ([`AdmissionPolicy`]) — with an attached [`Probe`].
/// `SchedConfig::default()` reproduces [`schedule`] byte-identically.
///
/// The probe sees [`Event::JobArrived`] when a job enters the pending
/// queue, [`Event::JobPlaced`] when it is admitted, and
/// [`Event::JobReleased`] when its sub-star is returned — in the
/// event loop's own deterministic order; the schedule returned is
/// byte-identical to an unprobed one. Under
/// [`SchedPolicy::EasyBackfill`] the probe additionally sees
/// [`Event::JobReserved`] when a blocked head receives its
/// declared-walltime reservation (once per head) and
/// [`Event::JobBackfilled`] next to the [`Event::JobPlaced`] of every
/// queue-jumper.
///
/// # Panics
/// Panics if a job requests an order outside
/// [`MIN_ORDER`]`..=alloc.n()`, if [`ReleaseMode::Drained`] is asked
/// for without [`SchedConfig::net`], or if a job's isolated
/// co-simulation strands flits (it would never drain).
#[must_use]
pub fn schedule_with<P: Probe>(
    jobs: &[JobSpec],
    alloc: &mut Allocator,
    cfg: &SchedConfig<'_>,
    probe: &mut P,
) -> Schedule {
    schedule_inner(jobs, alloc, cfg, probe, None).0
}

/// [`schedule_with`] under an injected monotonic clock, returning the
/// event loop's [`SchedPhaseProfile`] next to the schedule — which is
/// **byte-identical** to the unprofiled one (profiling only reads the
/// clock; it never touches scheduling state).
///
/// Use [`sg_obs::wall_clock`] for real timings, or a counting clock
/// (a thread-local counter each call advances by one) for exact
/// assertable phase counts.
///
/// # Panics
/// As [`schedule_with`].
#[must_use]
pub fn schedule_profiled<P: Probe>(
    jobs: &[JobSpec],
    alloc: &mut Allocator,
    cfg: &SchedConfig<'_>,
    probe: &mut P,
    clock: fn() -> u64,
) -> (Schedule, SchedPhaseProfile) {
    let (schedule, prof) = schedule_inner(jobs, alloc, cfg, probe, Some(clock));
    (schedule, prof.expect("profiler was armed"))
}

/// Armed profiler state: the injected clock, the running mark, and
/// the accumulators. Lives in a `RefCell` so the placement closure
/// and the loop body can both charge through a shared borrow.
struct SchedProf {
    clock: fn() -> u64,
    mark: u64,
    prof: SchedPhaseProfile,
}

#[derive(Clone, Copy)]
enum SchedPhase {
    Placement,
    Drain,
    Backfill,
    Release,
}

/// Charge the delta since the last mark to `phase` and advance the
/// mark. No-op when the profiler is unarmed. Nested phases share the
/// one mark, so an inner charge (the drain co-simulation inside a
/// placement) is automatically subtracted from the enclosing phase.
fn charge(slot: &RefCell<Option<SchedProf>>, phase: SchedPhase) {
    if let Some(p) = slot.borrow_mut().as_mut() {
        let now = (p.clock)();
        let delta = now - p.mark;
        match phase {
            SchedPhase::Placement => p.prof.placement_ticks += delta,
            SchedPhase::Drain => p.prof.drain_ticks += delta,
            SchedPhase::Backfill => p.prof.backfill_ticks += delta,
            SchedPhase::Release => p.prof.release_ticks += delta,
        }
        p.mark = now;
    }
}

/// Open a new event round: count it and reset the mark so the
/// inter-round gap is charged to nothing.
fn begin_round(slot: &RefCell<Option<SchedProf>>) {
    if let Some(p) = slot.borrow_mut().as_mut() {
        p.prof.rounds += 1;
        p.mark = (p.clock)();
    }
}

fn schedule_inner<P: Probe>(
    jobs: &[JobSpec],
    alloc: &mut Allocator,
    cfg: &SchedConfig<'_>,
    probe: &mut P,
    clock: Option<fn() -> u64>,
) -> (Schedule, Option<SchedPhaseProfile>) {
    let prof: RefCell<Option<SchedProf>> = RefCell::new(clock.map(|clock| SchedProf {
        clock,
        mark: clock(),
        prof: SchedPhaseProfile::default(),
    }));
    let n = alloc.n();
    for j in jobs {
        assert!(
            (MIN_ORDER..=n).contains(&j.order),
            "job {} requests order {} outside {MIN_ORDER}..={n}",
            j.id,
            j.order
        );
    }
    assert!(
        cfg.release == ReleaseMode::Declared || cfg.net.is_some(),
        "ReleaseMode::Drained needs SchedConfig::net to co-simulate drain times"
    );
    // Pool-level admission rewrites happen before the loop sees the
    // stream, so every downstream consumer (placements, TenantRun)
    // observes the adjusted specs.
    let adjusted: Vec<JobSpec> = match cfg.admission {
        AdmissionPolicy::AsRequested => jobs.to_vec(),
        AdmissionPolicy::UniformEscape => {
            let any = jobs.iter().any(|j| j.escape);
            jobs.iter()
                .map(|j| JobSpec {
                    escape: j.escape || any,
                    ..*j
                })
                .collect()
        }
    };
    let mut sorted: Vec<&JobSpec> = adjusted.iter().collect();
    sorted.sort_by_key(|j| j.arrival);
    let mut placements: Vec<Placement> = Vec::with_capacity(jobs.len());
    let mut frag = Vec::new();
    let mut pending: VecDeque<&JobSpec> = VecDeque::new();
    // Min-heap of (finish, placement index) for capacity releases.
    let mut releases: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
    let mut next_arrival = 0usize;
    // The sticky EASY reservation: (head job, promised start).
    // Recomputed only when a different job becomes the blocked head,
    // so the optimism gap is measured against the first promise.
    let mut reservation: Option<(JobId, u32)> = None;
    let place = |job: &JobSpec,
                 substar: SubStar,
                 now: u32,
                 backfilled: bool,
                 placements: &mut Vec<Placement>,
                 releases: &mut BinaryHeap<Reverse<(u32, usize)>>,
                 probe: &mut P| {
        let hold = match cfg.release {
            ReleaseMode::Declared => job.duration.max(1),
            ReleaseMode::Drained => {
                // The allocator work so far belongs to placement; the
                // co-simulation itself is its own phase.
                charge(&prof, SchedPhase::Placement);
                let hold = drained_hold(cfg.net.expect("validated above"), n, job, &substar);
                charge(&prof, SchedPhase::Drain);
                hold
            }
        };
        let finish = now + hold;
        releases.push(Reverse((finish, placements.len())));
        if P::ENABLED {
            probe.event(&Event::JobPlaced {
                round: now,
                job: job.id,
                order: substar.order() as u8,
                pes: sg_perm::factorial::factorial(substar.order()),
            });
            if backfilled {
                probe.event(&Event::JobBackfilled {
                    round: now,
                    job: job.id,
                });
            }
        }
        placements.push(Placement {
            job: *job,
            substar,
            start: now,
            finish,
            backfilled,
        });
    };
    while next_arrival < sorted.len() || !pending.is_empty() {
        begin_round(&prof);
        let mut now = u32::MAX;
        if let Some(j) = sorted.get(next_arrival) {
            now = j.arrival;
        }
        if let Some(&Reverse((f, _))) = releases.peek() {
            now = now.min(f);
        }
        debug_assert!(now != u32::MAX, "blocked queue with no future release");
        while let Some(&Reverse((f, idx))) = releases.peek() {
            if f > now {
                break;
            }
            releases.pop();
            alloc.release(&placements[idx].substar);
            if P::ENABLED {
                probe.event(&Event::JobReleased {
                    round: f,
                    job: placements[idx].job.id,
                });
            }
        }
        charge(&prof, SchedPhase::Release);
        while sorted.get(next_arrival).is_some_and(|j| j.arrival <= now) {
            if P::ENABLED {
                probe.event(&Event::JobArrived {
                    round: sorted[next_arrival].arrival,
                    job: sorted[next_arrival].id,
                });
            }
            pending.push_back(sorted[next_arrival]);
            next_arrival += 1;
        }
        while let Some(&head) = pending.front() {
            let Some(substar) = alloc.allocate(head.order) else {
                break;
            };
            pending.pop_front();
            place(
                head,
                substar,
                now,
                false,
                &mut placements,
                &mut releases,
                probe,
            );
        }
        charge(&prof, SchedPhase::Placement);
        if cfg.policy == SchedPolicy::EasyBackfill {
            if let Some(&head) = pending.front() {
                // The head is blocked: reserve it a start (sticky per
                // head), then let queued jobs that — by declaration —
                // finish before that start jump onto free PEs.
                let shadow = match reservation {
                    Some((id, s)) if id == head.id => s,
                    _ => {
                        let running: Vec<usize> =
                            releases.iter().map(|&Reverse((_, idx))| idx).collect();
                        let s = easy_shadow(alloc, &placements, &running, head.order, now);
                        reservation = Some((head.id, s));
                        if P::ENABLED {
                            probe.event(&Event::JobReserved {
                                round: now,
                                job: head.id,
                                start: s,
                            });
                        }
                        s
                    }
                };
                let mut i = 1;
                while i < pending.len() {
                    let cand = pending[i];
                    if now + cand.duration.max(1) <= shadow {
                        if let Some(substar) = alloc.allocate(cand.order) {
                            pending.remove(i);
                            place(
                                cand,
                                substar,
                                now,
                                true,
                                &mut placements,
                                &mut releases,
                                probe,
                            );
                            continue;
                        }
                    }
                    i += 1;
                }
            }
            charge(&prof, SchedPhase::Backfill);
        }
        frag.push(FragSample {
            round: now,
            free_pes: alloc.free_pes(),
            largest_free_order: alloc.largest_free_order(),
            pending: pending.len(),
        });
    }
    // The loop ends once the last job is admitted; releases still in
    // the heap happen after every remaining event, so the allocator
    // state no longer matters — but the probe's timeline does. Drain
    // them in finish order so every placed job gets its release event.
    if P::ENABLED {
        while let Some(Reverse((f, idx))) = releases.pop() {
            probe.event(&Event::JobReleased {
                round: f,
                job: placements[idx].job.id,
            });
        }
    }
    charge(&prof, SchedPhase::Release);
    let horizon = placements.iter().map(|p| p.finish).max().unwrap_or(0);
    let profile = prof.into_inner().map(|p| p.prof);
    (
        Schedule {
            n,
            placements,
            frag,
            horizon,
        },
        profile,
    )
}

/// A schedule compiled down to one shared-network run: the composed
/// workload, the per-packet owner map, and one routing policy per
/// tenant.
pub struct TenantRun {
    schedule: Schedule,
    /// Per-job lifted workloads at job-local rounds — exactly what an
    /// isolated run of the job injects.
    parts: Vec<Workload>,
    workload: Workload,
    owner: Vec<u32>,
    policies: Vec<Box<dyn RoutingPolicy>>,
}

impl TenantRun {
    /// The schedule this run was compiled from.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The composed workload (all tenants, global PEs and rounds).
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Owner map: `owner()[pid]` = placement index of the packet.
    #[must_use]
    pub fn owner(&self) -> &[u32] {
        &self.owner
    }

    /// Job `i`'s traffic as an isolated run would inject it (local
    /// clock, global PEs).
    #[must_use]
    pub fn part(&self, i: usize) -> &Workload {
        &self.parts[i]
    }

    /// Per-tenant routing policies, by placement index.
    #[must_use]
    pub fn policies(&self) -> Vec<&dyn RoutingPolicy> {
        self.policies.iter().map(Box::as_ref).collect()
    }

    /// Drives all tenants concurrently through `net` and splits the
    /// statistics per job (each rebased to its own clock).
    ///
    /// Each job's [`JobSpec::escape`] opt-in is threaded through to
    /// the network: on a [`sg_net::FlowControl::EscapeChannel`] host,
    /// opted-in tenants may divert starved packets onto the
    /// deadlock-free escape partition while opted-out tenants keep
    /// pure credit semantics. (On every other flow-control mode the
    /// flags are inert, so this is byte-identical to the pre-escape
    /// behavior.) Note a *mixed* tenancy — some jobs opted out — can
    /// still deadlock through the opted-out packets; only an
    /// all-opted-in run carries the zero-`Stranded` guarantee.
    ///
    /// # Panics
    /// Panics if `net` is not an `S_n` of the schedule's order.
    #[must_use]
    pub fn run(&self, net: &Network) -> ScheduleReport {
        let RunStats { total, per_job } = self.simulate(net, Engine::Fast);
        let jobs = self
            .schedule
            .placements
            .iter()
            .zip(per_job)
            .map(|(p, stats)| JobReport {
                id: p.job.id,
                routing: p.job.routing,
                placement: p.clone(),
                stats: stats.rebased(p.start),
            })
            .collect();
        ScheduleReport { total, jobs }
    }

    /// [`TenantRun::run`] plus the cross-layer handoff check:
    /// panics (via [`Network::assert_region_quiescent`]) if any
    /// tenant's flit resolved at — or survived past — its placement's
    /// release round, i.e. if a sub-star was handed to a successor
    /// still dirty. Under [`ReleaseMode::Drained`] with confined
    /// tenants this always passes; under [`ReleaseMode::Declared`]
    /// with under-declared walltimes it is exactly the hard error the
    /// drain-aware release exists to prevent. Both engines feed the
    /// same per-packet resolution records into the check, so a dirty
    /// handoff is a hard error on either engine.
    ///
    /// # Panics
    /// Panics on a network order mismatch or a dirty handoff.
    #[must_use]
    pub fn run_quiesce_checked(&self, net: &Network) -> ScheduleReport {
        let report = self.run(net);
        Network::assert_region_quiescent(&report.total, &self.owner, &self.release_rounds());
        report
    }

    /// The handoff audit without the panic: every tenant flit that
    /// resolved at or after its placement's release round (or never
    /// resolved at all). Empty iff the schedule's releases were truly
    /// drain-aware.
    #[must_use]
    pub fn quiescence_violations(&self, report: &ScheduleReport) -> Vec<QuiescenceViolation> {
        Network::region_quiescence_violations(&report.total, &self.owner, &self.release_rounds())
    }

    /// The composed run on `engine`, each tenant under its own policy
    /// and escape opt-in.
    ///
    /// # Panics
    /// Panics if `net` is not an `S_n` of the schedule's order.
    fn simulate(&self, net: &Network, engine: Engine) -> RunStats {
        assert_eq!(net.n(), self.schedule.n, "network order mismatch");
        let escape: Vec<bool> = self
            .schedule
            .placements
            .iter()
            .map(|p| p.job.escape)
            .collect();
        let tenants = Tenants::PerJob {
            policies: &self.policies(),
            owner: &self.owner,
            escape: &escape,
        };
        net.simulate(&self.workload, tenants, engine, &mut NullProbe)
    }

    fn release_rounds(&self) -> Vec<u32> {
        self.schedule.placements.iter().map(|p| p.finish).collect()
    }

    /// The composed run on the **reference** engine, total statistics
    /// only — the oracle side of the differential argument. Byte-equal
    /// to [`TenantRun::run`]'s `total` on the fast engine for the same
    /// network.
    ///
    /// # Panics
    /// Panics if `net` is not an `S_n` of the schedule's order.
    #[must_use]
    pub fn run_reference_total(&self, net: &Network) -> TrafficStats {
        self.simulate(net, Engine::Reference).total
    }

    /// Runs every job **alone** on the same network (same policy
    /// object, same sub-star, local clock) — the baseline the
    /// isolation theorem compares against. Jobs are fanned out in
    /// `par_chunks` lanes, each lane simulating its jobs serially on
    /// one thread.
    ///
    /// # Panics
    /// Panics if `net` is not an `S_n` of the schedule's order.
    #[must_use]
    pub fn isolated_stats(&self, net: &Network) -> Vec<TrafficStats> {
        assert_eq!(net.n(), self.schedule.n, "network order mismatch");
        let pairs: Vec<(&Workload, &Box<dyn RoutingPolicy>)> =
            self.parts.iter().zip(&self.policies).collect();
        if pairs.is_empty() {
            return Vec::new();
        }
        let lane = pairs.len().div_ceil(8).max(1);
        let lanes: Vec<Vec<TrafficStats>> = pairs
            .par_chunks(lane)
            .map(|jobs| {
                jobs.iter()
                    .map(|(w, policy)| net.run(w, policy.as_ref()))
                    .collect()
            })
            .collect();
        lanes.concat()
    }
}

/// One tenant's slice of the shared run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Job id.
    pub id: JobId,
    /// Routing discipline the tenant used.
    pub routing: TenantRouting,
    /// Where and when it ran.
    pub placement: Placement,
    /// The job's attributed statistics, rebased to its own clock
    /// (round 0 = allocation grant) so they compare byte-for-byte
    /// against an isolated run.
    pub stats: TrafficStats,
}

/// The full measured outcome of a multi-tenant run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleReport {
    /// Whole-network statistics of the composed run.
    pub total: TrafficStats,
    /// Per-tenant reports, in admission order.
    pub jobs: Vec<JobReport>,
}

impl ScheduleReport {
    /// Ids of jobs whose per-tenant stats differ from their isolated
    /// baseline — empty for embedding-routed tenants on disjoint
    /// sub-stars (the isolation theorem), generally non-empty when
    /// greedy/adaptive tenants trespass.
    #[must_use]
    pub fn perturbed_jobs(&self, isolated: &[TrafficStats]) -> Vec<JobId> {
        self.jobs
            .iter()
            .zip(isolated)
            .filter(|(j, iso)| j.stats != **iso)
            .map(|(j, _)| j.id)
            .collect()
    }

    /// Extra queue-wait rounds each job paid versus isolation
    /// (cross-job interference, by job id).
    #[must_use]
    pub fn interference_wait(&self, isolated: &[TrafficStats]) -> Vec<(JobId, i64)> {
        self.jobs
            .iter()
            .zip(isolated)
            .map(|(j, iso)| {
                (
                    j.id,
                    j.stats.total_wait_rounds as i64 - iso.total_wait_rounds as i64,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocPolicy;
    use crate::job::TrafficProfile;
    use crate::stream::{generate, StreamConfig};

    fn tiny_jobs() -> Vec<JobSpec> {
        vec![
            JobSpec {
                id: 0,
                order: 3,
                arrival: 0,
                duration: 50,
                traffic: TrafficProfile::DimensionSweep { dim: 1, plus: true },
                routing: TenantRouting::Embedding,
                escape: false,
            },
            JobSpec {
                id: 1,
                order: 3,
                arrival: 0,
                duration: 50,
                traffic: TrafficProfile::Transpose,
                routing: TenantRouting::Embedding,
                escape: false,
            },
            JobSpec {
                id: 2,
                order: 4,
                arrival: 5,
                duration: 40,
                traffic: TrafficProfile::UniformPairs { pairs: 30, seed: 9 },
                routing: TenantRouting::Embedding,
                escape: false,
            },
        ]
    }

    #[test]
    fn schedule_is_fcfs_and_disjoint() {
        for policy in AllocPolicy::ALL {
            let mut alloc = policy.build(4);
            let s = schedule(&tiny_jobs(), alloc.as_mut());
            assert_eq!(s.placements().len(), 3, "{}", policy.name());
            assert!(s.concurrent_placements_disjoint());
            // Jobs 0 and 1 (order 3) fill S_4 half each; job 2 wants
            // the whole S_4 and must wait for both releases.
            assert_eq!(s.placements()[0].start, 0);
            assert_eq!(s.placements()[1].start, 0);
            assert_eq!(s.placements()[2].start, 50);
            assert_eq!(s.placements()[2].queueing_delay(), 45);
            assert_eq!(s.horizon(), 90);
        }
    }

    #[test]
    fn schedules_replay_identically() {
        let cfg = StreamConfig {
            greedy_pct: 25,
            ..StreamConfig::isolated(5, 20, 77)
        };
        let jobs = generate(&cfg);
        for policy in AllocPolicy::ALL {
            let a = schedule(&jobs, policy.build(5).as_mut());
            let b = schedule(&jobs, policy.build(5).as_mut());
            assert_eq!(a, b, "{} must replay", policy.name());
        }
    }

    #[test]
    fn all_embedding_tenants_are_isolated_end_to_end() {
        // The tentpole property at unit-test scale: S_5, every tenant
        // embedding-routed, long enough walltimes that regions drain
        // before reuse — per-job stats byte-equal isolated runs.
        let net = Network::new(5);
        let cfg = StreamConfig {
            duration: (80, 120),
            ..StreamConfig::isolated(5, 10, 3)
        };
        let jobs = generate(&cfg);
        let mut alloc = AllocPolicy::FirstFit.build(5);
        let s = schedule(&jobs, alloc.as_mut());
        assert!(s.concurrent_placements_disjoint());
        let run = s.tenant_run();
        let report = run.run(&net);
        let isolated = run.isolated_stats(&net);
        assert_eq!(
            report.perturbed_jobs(&isolated),
            Vec::<JobId>::new(),
            "embedding tenants must be byte-isolated"
        );
        // Conservation per job.
        for j in &report.jobs {
            assert_eq!(
                j.stats.delivered + j.stats.dropped() + j.stats.stranded,
                j.stats.injected
            );
        }
    }

    #[test]
    fn minimal_routing_tenants_are_isolated_too() {
        // Convexity in action end-to-end: greedy and adaptive tenants
        // route globally, yet minimal routes cannot leave a sub-star,
        // so they byte-isolate exactly like embedding tenants.
        let net = Network::new(5);
        let cfg = StreamConfig {
            duration: (80, 120),
            greedy_pct: 50,
            adaptive_pct: 30,
            ..StreamConfig::isolated(5, 10, 5)
        };
        let jobs = generate(&cfg);
        assert!(
            jobs.iter().any(|j| j.routing != TenantRouting::Embedding),
            "the mix must actually include minimal-routing tenants"
        );
        let mut alloc = AllocPolicy::BestFit.build(5);
        let s = schedule(&jobs, alloc.as_mut());
        let run = s.tenant_run();
        let report = run.run(&net);
        let isolated = run.isolated_stats(&net);
        assert_eq!(report.perturbed_jobs(&isolated), Vec::<JobId>::new());
    }

    #[test]
    fn oblivious_tenants_interfere_measurably() {
        // Machine-coordinate dimension-order tenants trespass, so
        // somebody's shared-run stats depart their isolated baseline.
        let net = Network::new(5);
        let cfg = StreamConfig {
            duration: (80, 120),
            oblivious_pct: 60,
            pattern: crate::stream::ArrivalPattern::Bursty { burst: 4, gap: 30 },
            ..StreamConfig::isolated(5, 8, 11)
        };
        let jobs = generate(&cfg);
        assert!(jobs
            .iter()
            .any(|j| j.routing == TenantRouting::GlobalEmbedding));
        let mut alloc = AllocPolicy::FirstFit.build(5);
        let s = schedule(&jobs, alloc.as_mut());
        let run = s.tenant_run();
        let report = run.run(&net);
        let isolated = run.isolated_stats(&net);
        let perturbed = report.perturbed_jobs(&isolated);
        assert!(
            !perturbed.is_empty(),
            "oblivious dimension-order tenants must interfere"
        );
        // Everything still conserves per job, interference or not.
        for j in &report.jobs {
            assert_eq!(
                j.stats.delivered + j.stats.dropped() + j.stats.stranded,
                j.stats.injected
            );
        }
    }

    #[test]
    fn escape_optin_threads_through_tenant_run() {
        // One whole-machine tenant pushing saturating traffic through
        // a 1-slot credit pool: opted out it wedges at the credit
        // fixed point (stranded survivors), opted in the escape
        // channel drains every packet — the per-job flag reaching the
        // network is exactly the difference.
        let n = 4;
        let net = Network::new(n).with_config(sg_net::NetConfig {
            queue_capacity: Some(1),
            flow_control: sg_net::FlowControl::EscapeChannel,
            ..sg_net::NetConfig::default()
        });
        let mk = |escape| {
            vec![JobSpec {
                id: 0,
                order: n,
                arrival: 0,
                duration: 400,
                traffic: TrafficProfile::Bernoulli {
                    rounds: 40,
                    rate_pct: 100,
                    seed: 1,
                },
                routing: TenantRouting::Greedy,
                escape,
            }]
        };
        let run_with = |jobs: &[JobSpec]| {
            let mut alloc = AllocPolicy::FirstFit.build(n);
            let s = schedule(jobs, alloc.as_mut());
            assert_eq!(s.placements().len(), 1, "whole machine placed");
            s.tenant_run().run(&net)
        };
        let out = run_with(&mk(false));
        assert!(
            out.total.stranded > 0,
            "opted-out tenant must still hit the credit deadlock"
        );
        assert_eq!(out.total.escape_diversions, 0, "flag off ⇒ channel idle");
        let inn = run_with(&mk(true));
        assert_eq!(inn.total.stranded, 0, "opted-in tenant must drain");
        assert_eq!(inn.total.delivered, inn.total.injected);
        assert!(inn.total.escape_diversions > 0, "the channel did the work");
        assert!(inn.jobs[0].stats.escape_diversions > 0, "per-job stats too");
    }

    #[test]
    fn schedule_with_default_is_byte_identical_to_schedule() {
        let cfg = StreamConfig {
            greedy_pct: 25,
            ..StreamConfig::isolated(5, 20, 77)
        };
        let jobs = generate(&cfg);
        for policy in AllocPolicy::ALL {
            let old = schedule(&jobs, policy.build(5).as_mut());
            let new = schedule_with(
                &jobs,
                policy.build(5).as_mut(),
                &SchedConfig::default(),
                &mut sg_obs::NullProbe,
            );
            assert_eq!(old, new, "{}", policy.name());
        }
    }

    #[test]
    fn drained_release_holds_past_the_declaration() {
        // An under-declared job (1 round declared, multi-round
        // transpose drain) keeps its sub-star strictly longer under
        // Drained; honest declarations are never released earlier.
        let net = Network::new(4);
        let jobs = vec![
            JobSpec {
                duration: 1,
                ..tiny_jobs()[1]
            },
            tiny_jobs()[1],
        ];
        let mut alloc = AllocPolicy::FirstFit.build(4);
        let s = schedule_with(
            &jobs,
            alloc.as_mut(),
            &SchedConfig::drained(&net),
            &mut sg_obs::NullProbe,
        );
        let liar = &s.placements()[0];
        assert!(
            liar.finish > liar.declared_finish(),
            "under-declared job must be held until drain ({} vs declared {})",
            liar.finish,
            liar.declared_finish()
        );
        for p in s.placements() {
            assert!(p.finish >= p.declared_finish());
        }
    }

    #[test]
    fn easy_backfill_jumps_only_safe_jobs() {
        // j0 holds half of S_4 for 50 rounds; j1 wants the whole
        // machine and blocks; j2 (order 3, 40 rounds) fits the free
        // half and ends before j1's reservation at 50 — EASY starts it
        // immediately, FCFS makes it wait behind j1.
        let jobs = vec![
            JobSpec {
                id: 0,
                order: 3,
                arrival: 0,
                duration: 50,
                traffic: TrafficProfile::Transpose,
                routing: TenantRouting::Embedding,
                escape: false,
            },
            JobSpec {
                id: 1,
                order: 4,
                arrival: 0,
                duration: 30,
                traffic: TrafficProfile::Transpose,
                routing: TenantRouting::Embedding,
                escape: false,
            },
            JobSpec {
                id: 2,
                order: 3,
                arrival: 0,
                duration: 40,
                traffic: TrafficProfile::Transpose,
                routing: TenantRouting::Embedding,
                escape: false,
            },
        ];
        let fcfs = schedule(&jobs, AllocPolicy::FirstFit.build(4).as_mut());
        assert_eq!(fcfs.backfills(), 0);
        let mut probe = sg_obs::SchedProbe::new();
        let easy = schedule_with(
            &jobs,
            AllocPolicy::FirstFit.build(4).as_mut(),
            &SchedConfig {
                policy: SchedPolicy::EasyBackfill,
                ..SchedConfig::default()
            },
            &mut probe,
        );
        assert_eq!(easy.backfills(), 1);
        let j2 = easy.placements().iter().find(|p| p.job.id == 2).unwrap();
        assert!(j2.backfilled);
        assert_eq!(j2.start, 0, "j2 jumps the blocked head immediately");
        // The head was promised (and got) its FCFS start: backfill did
        // not delay it.
        let j1 = easy.placements().iter().find(|p| p.job.id == 1).unwrap();
        let j1_fcfs = fcfs.placements().iter().find(|p| p.job.id == 1).unwrap();
        assert_eq!(j1.start, j1_fcfs.start);
        let span1 = probe.spans().iter().find(|s| s.job == 1).unwrap();
        assert_eq!(span1.reserved, Some(50), "reserved at j0's declared finish");
        assert_eq!(
            span1.optimism_gap(),
            Some(0),
            "honest declarations: promise held"
        );
        assert_eq!(probe.backfills(), 1);
        assert!(
            easy.horizon() < fcfs.horizon(),
            "backfill shortens the schedule"
        );
        assert!(easy.concurrent_placements_disjoint());
    }

    #[test]
    fn uniform_escape_admission_is_all_or_nothing() {
        let mut jobs = tiny_jobs();
        jobs[1].escape = true;
        let mixed = schedule_with(
            &jobs,
            AllocPolicy::FirstFit.build(4).as_mut(),
            &SchedConfig::default(),
            &mut sg_obs::NullProbe,
        );
        assert_eq!(
            mixed.placements().iter().filter(|p| p.job.escape).count(),
            1,
            "as-requested keeps the mix"
        );
        let uniform = schedule_with(
            &jobs,
            AllocPolicy::FirstFit.build(4).as_mut(),
            &SchedConfig {
                admission: AdmissionPolicy::UniformEscape,
                ..SchedConfig::default()
            },
            &mut sg_obs::NullProbe,
        );
        assert!(
            uniform.placements().iter().all(|p| p.job.escape),
            "one opt-in opts the whole pool in"
        );
        // A pool with no opt-ins stays untouched.
        let none = schedule_with(
            &tiny_jobs(),
            AllocPolicy::FirstFit.build(4).as_mut(),
            &SchedConfig {
                admission: AdmissionPolicy::UniformEscape,
                ..SchedConfig::default()
            },
            &mut sg_obs::NullProbe,
        );
        assert!(none.placements().iter().all(|p| !p.job.escape));
    }

    #[test]
    fn fragmentation_samples_are_sane() {
        let mut alloc = AllocPolicy::Buddy.build(4);
        let s = schedule(&tiny_jobs(), alloc.as_mut());
        for f in s.frag_timeline() {
            assert!(f.free_pes <= 24);
            assert!((0.0..=1.0).contains(&f.fragmentation()));
        }
        // Once everything is released, the machine coalesces whole.
        let last = s.frag_timeline().last().unwrap();
        assert_eq!(last.pending, 0);
    }

    /// A counting clock private to the calling thread, so parallel
    /// tests cannot perturb each other's exact phase counts.
    fn thread_tick() -> u64 {
        use std::cell::Cell;
        thread_local!(static T: Cell<u64> = const { Cell::new(0) });
        T.with(|t| {
            let v = t.get();
            t.set(v + 1);
            v
        })
    }

    #[test]
    fn profiling_never_perturbs_the_schedule() {
        let cfg = StreamConfig {
            greedy_pct: 25,
            ..StreamConfig::isolated(5, 20, 77)
        };
        let jobs = generate(&cfg);
        for policy in AllocPolicy::ALL {
            let bare = schedule(&jobs, policy.build(5).as_mut());
            let (profiled, prof) = schedule_profiled(
                &jobs,
                policy.build(5).as_mut(),
                &SchedConfig::default(),
                &mut NullProbe,
                thread_tick,
            );
            assert_eq!(
                bare,
                profiled,
                "{}: profiling must not perturb",
                policy.name()
            );
            assert!(prof.rounds > 0);
        }
    }

    #[test]
    fn tick_clock_phase_counts_are_exact() {
        // Fcfs + Declared: exactly one release charge and one
        // placement charge per event round, plus the post-loop heap
        // drain; drain and backfill never run.
        let (_, prof) = schedule_profiled(
            &tiny_jobs(),
            AllocPolicy::Buddy.build(4).as_mut(),
            &SchedConfig::default(),
            &mut NullProbe,
            thread_tick,
        );
        assert!(prof.rounds > 0);
        assert_eq!(prof.release_ticks, prof.rounds + 1);
        assert_eq!(prof.placement_ticks, prof.rounds);
        assert_eq!(prof.drain_ticks, 0);
        assert_eq!(prof.backfill_ticks, 0);
        assert_eq!(prof.total_ticks(), 2 * prof.rounds + 1);
    }

    #[test]
    fn drained_and_backfill_phases_self_charge() {
        let net = Network::new(4);
        let cfg = SchedConfig {
            policy: SchedPolicy::EasyBackfill,
            ..SchedConfig::drained(&net)
        };
        let (s, prof) = schedule_profiled(
            &tiny_jobs(),
            AllocPolicy::Buddy.build(4).as_mut(),
            &cfg,
            &mut NullProbe,
            thread_tick,
        );
        let placed = s.placements().len() as u64;
        assert_eq!(placed, 3);
        // Every placement runs one drain co-simulation (one extra
        // placement charge + one drain charge); backfill charges once
        // per round under EasyBackfill.
        assert_eq!(prof.drain_ticks, placed);
        assert_eq!(prof.placement_ticks, prof.rounds + placed);
        assert_eq!(prof.backfill_ticks, prof.rounds);
        assert_eq!(prof.release_ticks, prof.rounds + 1);
    }
}
