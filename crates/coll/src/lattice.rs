//! Allgather, reduce-scatter, and allreduce over the sub-star
//! lattice — the star graph's native recursive halving/doubling.
//!
//! `S_m` splits into `m` copies of `S_{m−1}` (fix the last slot's
//! symbol), recursively. The lift/project isomorphisms commute with
//! the generators, so node `u` of child `C_i` has a canonical
//! *counterpart* in every sibling `C_j`: the node with the same local
//! rank. Exchanging data between counterpart pairs is the star
//! analogue of the hypercube's dimension exchange.
//!
//! **Allgather (recursive doubling)** ascends the lattice. Invariant:
//! after the order-ℓ level completes, every node of every order-ℓ
//! sub-star holds exactly the blocks of that sub-star's `ℓ!` nodes.
//! Base ℓ = 1: each node holds its own block. The order-ℓ level runs
//! `ℓ − 1` phases; in phase `t` every node of child `C_i` copies its
//! current `(ℓ−1)!` blocks to its counterpart in `C_{(i+t) mod ℓ}`.
//! Each node receives each sibling's block set exactly once, so the
//! [`SlotAction::Copy`] exactly-once check proves no block travels
//! twice. Total phases: `Σ_{ℓ=2}^{m} (ℓ−1) = m(m−1)/2`.
//!
//! **Reduce-scatter (recursive halving)** descends the same lattice
//! with the mirror invariant: entering the order-ℓ level, every node
//! of an order-ℓ sub-star holds one partial sum per node of that
//! sub-star, and the partials held by counterpart classes partition
//! the contributors. In phase `t` of the level, each node of `C_i`
//! ships the partials destined for `C_{(i+t) mod ℓ}`'s nodes to its
//! counterpart there ([`SlotAction::Reduce`], giving the slots away) —
//! after the level each node keeps only its own child's slots, each
//! now folded over the whole parent. After the final (order-2) level
//! node `u` holds exactly `{u: Σ_w x_w[u]}`.
//!
//! **Allreduce** is reduce-scatter followed by allgather — the
//! scatter's final state is exactly the gather's initial shape.
//!
//! The naive references do everything in a single phase of direct
//! sends (`m!(m!−1)` packets), the all-pairs traffic the structured
//! schedules are measured against.

use crate::schedule::{CollSchedule, Send, SlotAction};
use sg_perm::factorial::factorial;
use sg_star::substar::substars_of_order;
use std::sync::Arc;

/// A shared list of `(slot at the sender, slot at the receiver)` pairs.
type BlockList = Arc<[(u64, u64)]>;

/// Counterpart-exchange phases over the lattice. Each level builds
/// one block list per child sub-star, `(b, b)` for each node rank `b`
/// of the child in local-rank order, and a send from child `C_i` to
/// its counterpart in `C_j` ships the list of child `ships(i, j)`:
/// every send of that block set holds the same list.
fn lattice_phases(
    order: usize,
    levels: impl Iterator<Item = usize>,
    ships: impl Fn(usize, usize) -> usize,
    action: SlotAction,
) -> Vec<Vec<Send>> {
    let nodes = factorial(order) as usize;
    let mut phases = Vec::new();
    for lvl in levels {
        // In DFS order, the children of the order-`lvl` sub-stars are
        // the order-`lvl − 1` sub-stars, `lvl` consecutive ones per
        // parent. A child's block list doubles as its node table:
        // entry `local` holds the rank of its node `local`.
        let kids: Vec<BlockList> = substars_of_order(order, lvl - 1)
            .iter()
            .map(|child| child.node_rank_iter().map(|b| (b, b)).collect())
            .collect();
        for t in 1..lvl {
            // Every node sends exactly once per phase.
            let mut sends = Vec::with_capacity(nodes);
            for family in kids.chunks(lvl) {
                for (i, kid) in family.iter().enumerate() {
                    let j = (i + t) % lvl;
                    let slots = &family[ships(i, j)];
                    for (&(u, _), &(v, _)) in kid.iter().zip(family[j].iter()) {
                        sends.push(Send {
                            src: u,
                            dst: v,
                            slots: Arc::clone(slots),
                            action,
                        });
                    }
                }
            }
            phases.push(sends);
        }
    }
    phases
}

/// One single-block list `(b, b)` per PE `b` of `S_order`, shared by
/// every naive send that ships block `b`.
fn single_blocks(order: usize) -> Vec<BlockList> {
    (0..factorial(order)).map(|b| Arc::from([(b, b)])).collect()
}

/// Recursive-doubling allgather: block slot = origin PE rank; node
/// `u` starts holding `{u: x_u}` and ends holding every block.
/// Exactly `m(m−1)/2` phases.
#[must_use]
pub fn allgather_doubling(order: usize) -> CollSchedule {
    let phases = lattice_phases(
        order,
        2..=order,
        // Ship every block of the sender's own child — by the level
        // invariant, exactly what the sender holds.
        |i, _| i,
        SlotAction::Copy,
    );
    CollSchedule::new("allgather/doubling", order, phases)
}

/// Naive allgather: one phase, every PE copies its block directly to
/// every other PE — `m!(m!−1)` packets.
#[must_use]
pub fn allgather_naive(order: usize) -> CollSchedule {
    let blocks = single_blocks(order);
    let nodes = blocks.len() as u64;
    let phase = (0..nodes)
        .flat_map(|u| {
            let slots = &blocks[u as usize];
            (0..nodes).filter(move |&v| v != u).map(move |v| Send {
                src: u,
                dst: v,
                slots: Arc::clone(slots),
                action: SlotAction::Copy,
            })
        })
        .collect();
    CollSchedule::new("allgather/naive", order, vec![phase])
}

/// Recursive-halving reduce-scatter: slot = destination PE rank; node
/// `u` starts holding a full vector `{v: x_u[v] ∀v}` and ends holding
/// `{u: Σ_w x_w[u]}`. Exactly `m(m−1)/2` phases.
#[must_use]
pub fn reduce_scatter_halving(order: usize) -> CollSchedule {
    let phases = lattice_phases(
        order,
        (2..=order).rev(),
        // Ship the partials destined for the *target* child's nodes.
        |_, j| j,
        SlotAction::Reduce,
    );
    CollSchedule::new("reduce-scatter/halving", order, phases)
}

/// Naive reduce-scatter: one phase, every PE sends each destination's
/// partial straight to it.
#[must_use]
pub fn reduce_scatter_naive(order: usize) -> CollSchedule {
    let blocks = single_blocks(order);
    let nodes = blocks.len() as u64;
    let phase = (0..nodes)
        .flat_map(|u| {
            let blocks = &blocks;
            (0..nodes).filter(move |&v| v != u).map(move |v| Send {
                src: u,
                dst: v,
                slots: Arc::clone(&blocks[v as usize]),
                action: SlotAction::Reduce,
            })
        })
        .collect();
    CollSchedule::new("reduce-scatter/naive", order, vec![phase])
}

/// Allreduce = [`reduce_scatter_halving`] ++ [`allgather_doubling`]:
/// `m(m−1)` phases; every PE ends holding the full reduced vector.
#[must_use]
pub fn allreduce_lattice(order: usize) -> CollSchedule {
    CollSchedule::concat(
        "allreduce/lattice",
        [reduce_scatter_halving(order), allgather_doubling(order)],
    )
}

/// Naive allreduce = naive reduce-scatter ++ naive allgather.
#[must_use]
pub fn allreduce_naive(order: usize) -> CollSchedule {
    CollSchedule::concat(
        "allreduce/naive",
        [reduce_scatter_naive(order), allgather_naive(order)],
    )
}
