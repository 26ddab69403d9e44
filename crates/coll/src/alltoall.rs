//! Personalized all-to-all: every PE has a distinct block for every
//! other PE.
//!
//! The rotation schedule runs `m! − 1` phases; in phase `t` every PE
//! `u` moves its block for `v = (u + t) mod m!` directly to `v`. Each
//! phase is a rank-space rotation — a permutation with every PE
//! sending and receiving exactly once — so per-phase contention stays
//! low, and each (ordered) pair is served in exactly one phase.
//!
//! Slot key spaces are split so gathers cannot collide: PE `u`'s
//! *outgoing* block for `v` lives in slot `v` (`< m!`), and a block
//! *received from* `u` lands in slot `m! + u`. PE `u`'s block for
//! itself starts — and stays — in slot `m! + u`.
//!
//! The naive reference collapses all rotations into a single phase of
//! `m!(m!−1)` simultaneous direct sends.

use crate::schedule::{CollSchedule, Send, SlotAction};
use sg_perm::factorial::factorial;
use std::sync::Arc;

/// Slot where a block *received from* PE `u` lands (disjoint from the
/// outgoing slots `0..m!`).
#[must_use]
pub fn origin_slot(order: usize, u: u64) -> u64 {
    factorial(order) + u
}

/// Rotation all-to-all: `m! − 1` phases, phase `t` moves `u`'s block
/// for `(u + t) mod m!` ([`SlotAction::Move`], so the exactly-once
/// check covers both ends).
#[must_use]
pub fn all_to_all_rotation(order: usize) -> CollSchedule {
    let nodes = factorial(order);
    let phases = (1..nodes)
        .map(|t| {
            (0..nodes)
                .map(|u| {
                    let v = (u + t) % nodes;
                    Send {
                        src: u,
                        dst: v,
                        slots: Arc::from([(v, origin_slot(order, u))]),
                        action: SlotAction::Move,
                    }
                })
                .collect()
        })
        .collect();
    CollSchedule::new("all-to-all/rotation", order, phases)
}

/// Naive all-to-all: one phase, all `m!(m!−1)` personalized sends at
/// once.
#[must_use]
pub fn all_to_all_naive(order: usize) -> CollSchedule {
    let nodes = factorial(order);
    let phase = (0..nodes)
        .flat_map(|u| {
            (0..nodes).filter(move |&v| v != u).map(move |v| Send {
                src: u,
                dst: v,
                slots: Arc::from([(v, origin_slot(order, u))]),
                action: SlotAction::Move,
            })
        })
        .collect();
    CollSchedule::new("all-to-all/naive", order, vec![phase])
}
