//! Per-tenant routing policies, plus the scheduler-wide policy axes
//! ([`ReleaseMode`], [`SchedPolicy`], [`AdmissionPolicy`] —
//! bundled in [`SchedConfig`]).
//!
//! A multi-tenant run ([`sg_net::Tenants::PerJob`]) routes every packet
//! under its own job's policy, so each tenant gets exactly one
//! [`RoutingPolicy`] object. Embedding tenants use
//! [`SubstarEmbedding`]: dimension-order routing of the job's `D_k`
//! computed in **local** sub-star coordinates — and because
//! [`SubStar::project`] commutes with generators `g_1 … g_{k−1}`, the
//! locally computed generator sequence is valid verbatim on the host
//! and provably never leaves the sub-star. Greedy and adaptive
//! tenants route globally yet stay confined too (minimal routes
//! cannot leave a geodesically closed sub-star — measured by the
//! containment suite); the discipline that really trespasses is
//! [`TenantRouting::GlobalEmbedding`], dimension-order routing in
//! machine coordinates — the measurable-interference side of the
//! contrast.
//!
//! One caveat rides on top of the policy axis: a tenant opted into
//! the escape channel ([`crate::job::JobSpec::escape`]) whose packet
//! actually diverts abandons its tenant policy mid-flight for the
//! machine-coordinate dimension-order escape route — which, like
//! `GlobalEmbedding`, may traverse foreign sub-stars. Deadlock
//! freedom is bought at the price of confinement for exactly the
//! packets that would otherwise have wedged; tenants that need the
//! byte-isolation guarantee should stay opted out.

use crate::job::TenantRouting;
use sg_net::{AdaptiveRouting, EmbeddingRouting, GreedyRouting, Network, RoutingPolicy};
use sg_perm::Perm;
use sg_star::substar::SubStar;

/// When a job's sub-star is returned to the allocator.
///
/// The original event loop released at the *declared* walltime — the
/// batch-scheduler convention, and a correctness bug on a real
/// interconnect: a tenant whose traffic out-lives its declaration
/// leaves flits in the region's queues, credit pools, and escape
/// banks, and the successor placed there inherits them — a silent
/// violation of the byte-isolation theorem. `Drained` fixes the
/// semantics by co-simulating each job's traffic on its sub-star at
/// placement time and holding the region until the last flit has
/// resolved; [`Network::assert_region_quiescent`] turns any residual
/// dirty handoff into a hard error in both engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReleaseMode {
    /// Release at `start + duration` (min 1 round), trusting the
    /// declaration — fast, classic, and unsound when traffic
    /// out-lives the declared walltime.
    #[default]
    Declared,
    /// Release at `start + max(duration, drain + 1)` where `drain` is
    /// the makespan of the job's traffic co-simulated alone on its
    /// sub-star (requires [`SchedConfig::net`]). Exact for confined
    /// tenants (embedding / greedy / adaptive) when the whole stream
    /// is confined — the byte-isolation theorem makes the isolated
    /// co-simulation the truth; for trespassing
    /// ([`TenantRouting::GlobalEmbedding`]) mixes it is an estimate,
    /// backstopped by
    /// [`crate::scheduler::TenantRun::run_quiesce_checked`].
    Drained,
}

impl ReleaseMode {
    /// Table/report label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReleaseMode::Declared => "declared",
            ReleaseMode::Drained => "drained",
        }
    }
}

/// How the pending queue is drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Strict first-come-first-served: a blocked head blocks everyone
    /// behind it — the classic batch discipline, and the one drained
    /// release makes strictly slower (releases only move later).
    #[default]
    Fcfs,
    /// EASY backfill: when the head blocks, it receives a start-time
    /// *reservation* computed from the running jobs' **declared**
    /// walltimes, and any queued job whose declared walltime ends by
    /// that reservation may start immediately on currently free
    /// PEs — it cannot (by declaration) delay the head. Under
    /// [`ReleaseMode::Drained`] the truth is drain times, so an
    /// under-declared backfill *can* still push the head past its
    /// promise; that optimism gap is measured per job by
    /// `sg_obs::JobSpan::optimism_gap`.
    EasyBackfill,
}

impl SchedPolicy {
    /// Table/report label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::Fcfs => "fcfs",
            SchedPolicy::EasyBackfill => "easy",
        }
    }
}

/// Pool-level admission adjustments applied to job specs before
/// scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Run every job exactly as specified.
    #[default]
    AsRequested,
    /// All-or-nothing escape opt-in per pool: if **any** job in the
    /// stream opts into the escape channel, every job is admitted
    /// opted-in. A *mixed* tenancy on an
    /// [`sg_net::FlowControl::EscapeChannel`] host can still wedge —
    /// opted-out packets keep pure credit semantics and deadlock
    /// through the shared pool, stranding flits the escape channel
    /// would have drained; uniform opt-in restores the
    /// zero-`Stranded` guarantee for the whole pool.
    UniformEscape,
}

/// The scheduler's policy bundle, consumed by
/// [`crate::scheduler::schedule_with`].
///
/// The default (`Declared` + `Fcfs` + `AsRequested`, no network) is
/// byte-identical to the original [`crate::scheduler::schedule`]
/// event loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedConfig<'n> {
    /// When sub-stars are returned to the allocator.
    pub release: ReleaseMode,
    /// How the pending queue is drained.
    pub policy: SchedPolicy,
    /// Pool-level spec adjustments before scheduling.
    pub admission: AdmissionPolicy,
    /// The host network [`ReleaseMode::Drained`] co-simulates drain
    /// times on (its flow control, queue capacity, and link latency
    /// all shape the drain). Required for `Drained`, ignored
    /// otherwise.
    pub net: Option<&'n Network>,
}

impl<'n> SchedConfig<'n> {
    /// Drain-aware release on `net`, strict FCFS otherwise.
    #[must_use]
    pub fn drained(net: &'n Network) -> Self {
        SchedConfig {
            release: ReleaseMode::Drained,
            net: Some(net),
            ..SchedConfig::default()
        }
    }

    /// This config with EASY backfill switched on.
    #[must_use]
    pub fn with_backfill(self) -> Self {
        SchedConfig {
            policy: SchedPolicy::EasyBackfill,
            ..self
        }
    }
}

/// Dimension-order embedding routing **inside one sub-star**: both
/// endpoints are projected to the local `S_k`, routed by
/// [`EmbeddingRouting`], and the generator sequence is reused
/// globally unchanged. Containment is structural: every generator it
/// emits is `< k`, and those never touch the fixed slots.
#[derive(Debug, Clone)]
pub struct SubstarEmbedding {
    sub: SubStar,
}

impl SubstarEmbedding {
    /// Embedding routing confined to `sub`.
    #[must_use]
    pub fn new(sub: SubStar) -> Self {
        SubstarEmbedding { sub }
    }

    /// The sub-star this policy is confined to.
    #[must_use]
    pub fn substar(&self) -> &SubStar {
        &self.sub
    }
}

impl RoutingPolicy for SubstarEmbedding {
    fn name(&self) -> &'static str {
        "substar-embedding"
    }

    fn route_into(&self, src: &Perm, dst: &Perm, out: &mut Vec<u8>) {
        assert!(
            self.sub.contains(src) && self.sub.contains(dst),
            "sub-star embedding routing asked to route foreign traffic"
        );
        EmbeddingRouting.route_into(&self.sub.project(src), &self.sub.project(dst), out);
    }
}

/// The policy object a tenant with the given discipline routes under.
#[must_use]
pub fn tenant_policy(routing: TenantRouting, sub: &SubStar) -> Box<dyn RoutingPolicy> {
    match routing {
        TenantRouting::Embedding => Box::new(SubstarEmbedding::new(sub.clone())),
        TenantRouting::Greedy => Box::new(GreedyRouting),
        TenantRouting::Adaptive => Box::new(AdaptiveRouting),
        TenantRouting::GlobalEmbedding => Box::new(EmbeddingRouting),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_net::HopRule;
    use sg_perm::lehmer::unrank;

    #[test]
    fn substar_embedding_routes_stay_inside_and_land() {
        let n = 5;
        let sub = SubStar::new(n, vec![2]);
        let policy = SubstarEmbedding::new(sub.clone());
        for ra in (0..sub.size()).step_by(3) {
            for rb in (0..sub.size()).step_by(5) {
                let a = sub.lift(&unrank(ra, 4).unwrap());
                let b = sub.lift(&unrank(rb, 4).unwrap());
                let route = policy.route(&a, &b);
                assert_eq!(route.is_empty(), a == b);
                let mut cur = a;
                for &g in &route {
                    assert!((g as usize) < sub.order(), "generator {g} is non-local");
                    cur.swap_slots(0, g as usize);
                    assert!(sub.contains(&cur), "hop {g} left the sub-star");
                }
                assert_eq!(cur, b, "route must land on dst");
            }
        }
    }

    #[test]
    fn tenant_policy_dispatch() {
        let sub = SubStar::new(4, vec![1]);
        let rule = |routing| tenant_policy(routing, &sub).hop_rule();
        assert_eq!(rule(TenantRouting::Embedding), HopRule::SourceRoute);
        assert_eq!(rule(TenantRouting::Greedy), HopRule::Greedy);
        assert_eq!(rule(TenantRouting::Adaptive), HopRule::Adaptive);
        assert_eq!(rule(TenantRouting::GlobalEmbedding), HopRule::SourceRoute);
        assert_eq!(
            tenant_policy(TenantRouting::GlobalEmbedding, &sub).name(),
            "embedding",
            "oblivious tenants use the machine-coordinate router"
        );
    }
}
