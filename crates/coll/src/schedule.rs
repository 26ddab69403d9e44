//! The collective schedule IR: barrier-synchronized phases of
//! point-to-point transfers, compiled onto `sg-net` via
//! [`Workload::chain`]. Compiling simulates nothing: the barriers
//! travel inside the workload, and the caller's one run opens each
//! phase one round after the previous phase's last packet resolves.
//!
//! A [`CollSchedule`] is pure data — which PE sends which payload
//! slots to which PE in which phase — so the same schedule drives
//! three independent checks: the payload executor
//! ([`crate::exec::execute`]) folds the values and compares against
//! the reference result, the network compiler measures rounds against
//! the distance lower bound, and `sg-trace` replays the compiled run
//! byte-for-byte.

use sg_net::{ChainedWorkload, Injection, Network, RoutingPolicy, Workload};
use sg_perm::factorial::factorial;
use sg_star::SubStar;
use std::sync::Arc;

/// How a transfer combines into the receiver's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotAction {
    /// The sender keeps its copy; the receiver must not already hold
    /// the destination slot. The duplicate check makes every gather
    /// exactly-once: a schedule that delivers a block twice is
    /// rejected by the executor, not silently overwritten.
    Copy,
    /// The sender gives the slots up; the receiver wrapping-adds each
    /// value into its own slot (missing slots count as 0). The fold
    /// is commutative and associative, so arrival order within a
    /// phase cannot matter.
    Reduce,
    /// The sender gives the slots up; the receiver must not already
    /// hold them — personalized (all-to-all) transfers.
    Move,
}

/// One point-to-point transfer inside a phase. On the network it is a
/// single packet `src → dst` regardless of how many slots it carries
/// (the unit-message, latency-dominated cost model — see the crate
/// docs); at the payload level it moves each `(src_slot, dst_slot)`
/// pair under the phase's snapshot semantics.
///
/// Cloning a send copies no slot data: the list is shared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Send {
    /// Sending PE (rank in the schedule's `S_order`).
    pub src: u64,
    /// Receiving PE (rank in the schedule's `S_order`).
    pub dst: u64,
    /// `(slot at the sender, slot at the receiver)` pairs carried. A
    /// schedule stores each block set once and every send that ships
    /// it holds the same list: in a lattice level, every send out of
    /// one child sub-star (allgather) or into one (reduce-scatter).
    /// Equality still compares the pairs, not the pointers.
    pub slots: Arc<[(u64, u64)]>,
    /// How the payload combines at the receiver.
    pub action: SlotAction,
}

/// A collective as a sequence of barrier-synchronized phases: all
/// sends of phase `k` complete (network: deliver; payload: read,
/// remove, land) before any send of phase `k + 1` starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollSchedule {
    name: String,
    order: usize,
    phases: Vec<Vec<Send>>,
}

impl CollSchedule {
    /// Builds a schedule over `S_order` and validates every send:
    /// ranks in range, no self-sends, no empty slot lists.
    ///
    /// # Panics
    /// Panics on an invalid send.
    #[must_use]
    pub fn new(name: &str, order: usize, phases: Vec<Vec<Send>>) -> Self {
        assert!(order >= 2, "collectives need S_2 or larger");
        let nodes = factorial(order);
        for (k, phase) in phases.iter().enumerate() {
            for s in phase {
                assert!(
                    s.src < nodes && s.dst < nodes,
                    "{name} phase {k}: send {} -> {} outside S_{order}",
                    s.src,
                    s.dst
                );
                assert_ne!(s.src, s.dst, "{name} phase {k}: self-send at {}", s.src);
                assert!(
                    !s.slots.is_empty(),
                    "{name} phase {k}: empty send {} -> {}",
                    s.src,
                    s.dst
                );
            }
        }
        CollSchedule {
            name: name.to_owned(),
            order,
            phases,
        }
    }

    /// Schedule name (used for workload names and tables).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Star order `m` the schedule targets (`m!` PEs).
    #[must_use]
    pub fn order(&self) -> usize {
        self.order
    }

    /// The phases, in barrier order.
    #[must_use]
    pub fn phases(&self) -> &[Vec<Send>] {
        &self.phases
    }

    /// Number of phases (each costs one barrier on the network).
    #[must_use]
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }

    /// Total number of point-to-point sends (= network packets).
    #[must_use]
    pub fn total_sends(&self) -> usize {
        self.phases.iter().map(Vec::len).sum()
    }

    /// Concatenates schedules over the same order into one (e.g.
    /// allreduce = reduce-scatter ++ allgather). It consumes its parts
    /// and moves their phases into the result: no send and no slot
    /// list is copied.
    ///
    /// # Panics
    /// Panics if the parts disagree on order or `parts` is empty.
    #[must_use]
    pub fn concat(name: &str, parts: impl IntoIterator<Item = CollSchedule>) -> Self {
        let mut parts = parts.into_iter();
        let first = parts.next().expect("at least one part");
        let order = first.order;
        let mut phases = first.phases;
        for p in parts {
            assert_eq!(p.order, order, "concat of schedules over different orders");
            phases.extend(p.phases);
        }
        // Every part validated its sends when it was built.
        CollSchedule {
            name: name.to_owned(),
            order,
            phases,
        }
    }

    /// Compiles the schedule for the whole of `net` (which must be
    /// `S_order`): phases become a [`ChainedWorkload`] with
    /// inject-after-quiescence barriers, without simulating anything.
    /// Run its workload under any policy; each phase starts when the
    /// run has resolved the one before it. `_policy` is not consulted.
    ///
    /// # Panics
    /// Panics if `net.n() != order`.
    #[must_use]
    pub fn compile(&self, net: &Network, _policy: &dyn RoutingPolicy) -> ChainedWorkload {
        assert_eq!(
            net.n(),
            self.order,
            "schedule over S_{} compiled for S_{}",
            self.order,
            net.n()
        );
        self.chain(&self.name, self.order, |pe| pe)
    }

    /// Chains the phases, each send one round-0 packet from `pe(src)`
    /// to `pe(dst)`, in the schedule's send order, so the compiled run
    /// is deterministic.
    fn chain(&self, name: &str, n: usize, pe: impl Fn(u64) -> u64 + Copy) -> ChainedWorkload {
        let phases = self.phases.iter().map(|phase| {
            phase.iter().map(move |s| Injection {
                round: 0,
                src: pe(s.src),
                dst: pe(s.dst),
            })
        });
        Workload::chain(name, n, phases)
    }

    /// The same schedule with every PE lifted onto `sub`'s nodes in
    /// the host star — slots are payload keys and stay as they are,
    /// so every lifted send shares its original's slot list.
    /// Because lift commutes with the generators, the lifted sends
    /// stay inside the sub-star under greedy routing (geodesic
    /// closure), which is what lets a collective run as a confined,
    /// byte-isolated `sg-sched` tenant.
    ///
    /// # Panics
    /// Panics if `sub.order() != order`.
    #[must_use]
    pub fn lifted(&self, sub: &SubStar) -> CollSchedule {
        let (name, nodes) = self.lift(sub);
        let phases = self
            .phases
            .iter()
            .map(|phase| {
                phase
                    .iter()
                    .map(|s| Send {
                        src: nodes[s.src as usize],
                        dst: nodes[s.dst as usize],
                        slots: Arc::clone(&s.slots),
                        action: s.action,
                    })
                    .collect()
            })
            .collect();
        CollSchedule {
            name,
            order: sub.n(),
            phases,
        }
    }

    /// Compiles the schedule onto sub-star `sub` of the **host**
    /// network: lifts every send straight into the chain of phases on
    /// the host, simulating nothing. The barriers stay phase-local
    /// when the result is composed with other tenants, so its phases
    /// open exactly as when it runs alone. The result injects only at
    /// `sub`'s nodes and, under a confined policy, never leaves them.
    ///
    /// # Panics
    /// Panics if `sub.order() != order` or `net.n() != sub.n()`.
    #[must_use]
    pub fn compile_on(&self, net: &Network, sub: &SubStar) -> ChainedWorkload {
        assert_eq!(net.n(), sub.n(), "sub-star of a different host");
        let (name, nodes) = self.lift(sub);
        self.chain(&name, sub.n(), |pe| nodes[pe as usize])
    }

    /// The lifted schedule's name and the host rank of each of `sub`'s
    /// nodes, by local rank.
    fn lift(&self, sub: &SubStar) -> (String, Vec<u64>) {
        assert_eq!(
            sub.order(),
            self.order,
            "schedule over S_{} lifted onto an order-{} sub-star",
            self.order,
            sub.order()
        );
        let name = format!("{}@{:?}", self.name, sub.fixed_suffix());
        (name, sub.node_ranks())
    }
}
