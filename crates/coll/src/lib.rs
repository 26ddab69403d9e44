//! # sg-coll — collective communication on the star interconnect
//!
//! The paper's mesh-into-star embedding exists so that real parallel
//! programs can run on `S_n`, and real programs communicate in
//! *collectives* — broadcast, reduce, allgather, reduce-scatter,
//! allreduce, all-to-all — not in unstructured packet soups. This
//! crate builds deterministic collective algorithms out of the star's
//! own structure and compiles them onto the `sg-net` simulator:
//!
//! * **Broadcast / reduce** ([`tree`]) descend/ascend the
//!   lowest-generator-first spanning tree
//!   ([`sg_star::distance::improving_generators`]): one tree level
//!   per phase, every phase provably contention-free, makespan
//!   exactly `2·ecc − 1` against the eccentricity lower bound `ecc`.
//! * **Allgather / reduce-scatter / allreduce** ([`lattice`]) do
//!   recursive doubling/halving over the sub-star lattice: `S_m`
//!   splits into `m` copies of `S_{m−1}`, and counterpart nodes
//!   (equal local rank under the lift/project isomorphism) exchange
//!   blocks — `m(m−1)/2` phases each, `m(m−1)` for allreduce.
//! * **All-to-all** ([`alltoall`]) rotates: phase `t` moves `u`'s
//!   block for `(u + t) mod m!` — every phase a clean rank-space
//!   permutation.
//!
//! A schedule stores each block set once: [`Send::slots`] is a shared
//! list, and every send that ships the same set holds it — in a
//! lattice level, one list per child sub-star, held by every send out
//! of it (allgather) or into it (reduce-scatter).
//! [`CollSchedule::concat`] moves its parts' phases and
//! [`CollSchedule::lifted`] only relabels PEs, so neither copies slot
//! data.
//!
//! Every algorithm carries a **naive reference** (flat send-to-root /
//! send-to-all in one phase) and is checked two independent ways:
//!
//! * **Payload-level** ([`exec`], [`payload`]): schedules execute
//!   over concrete values with exactly-once slot accounting; the
//!   final state must equal the reference fold — exhaustively for
//!   `m ≤ 5`, seeded at `m = 6, 7`.
//! * **Cost-level**: schedules compile to multi-phase workloads via
//!   [`sg_net::Workload::chain`] (a phase opens only one round after
//!   the previous phase fully resolves, which the run itself
//!   determines — compiling simulates nothing) and measured rounds
//!   are asserted against the distance lower bound — see the cost
//!   model below.
//!
//! ## Cost model
//!
//! Unit-message (latency-dominated) accounting: one [`Send`] is one
//! network packet regardless of how many payload slots it carries —
//! the `α` term of the classic `α-β` model, the regime where
//! collective *structure* (phase counts, tree depth, link
//! serialization) dominates. Under it, with unit link latency:
//!
//! * any rooted collective needs ≥ `ecc(root)` rounds (= the diameter
//!   `⌊3(m−1)/2⌋`, by vertex transitivity — [`distance_lower_bound`]);
//! * tree broadcast/reduce achieve exactly `2·ecc − 1` (ecc
//!   contention-free 1-hop phases + ecc − 1 barrier rounds) — within
//!   factor **2** of the bound;
//! * the naive root-collectives need ≥ `(m! − 1)/(m − 1)` rounds
//!   ([`naive_root_lower_bound`]: `m! − 1` packets through the
//!   root's `m − 1` links), so the tree's advantage grows without
//!   bound in `m`;
//! * the lattice collectives run exactly `m(m−1)/2` barrier phases of
//!   counterpart exchanges.
//!
//! ## Tenancy and tracing
//!
//! [`CollSchedule::lifted`]/[`CollSchedule::compile_on`] put a
//! collective on any sub-star of a host network. Lift commutes with
//! the generators, so under confined routing the collective is
//! **byte-isolated** by the existing `sg-sched` theorem — it runs as
//! a tenant via `Schedule::tenant_run_with` with zero perturbation of
//! (or by) its neighbors: its barriers are phase-local, so composed
//! with other tenants it opens its phases exactly as when it runs
//! alone. Compiled runs are ordinary `sg-net` workloads: they emit the
//! standard `Probe` event stream, each packet record holds its
//! realized injection round, and `sg-trace` record/replay/diff works
//! on them unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alltoall;
pub mod exec;
pub mod lattice;
pub mod payload;
pub mod schedule;
pub mod tree;

pub use alltoall::{all_to_all_naive, all_to_all_rotation, origin_slot};
pub use exec::{execute, GlobalState, PayloadError, PeState};
pub use lattice::{
    allgather_doubling, allgather_naive, allreduce_lattice, allreduce_naive,
    reduce_scatter_halving, reduce_scatter_naive,
};
pub use payload::{
    all_to_all_case, allgather_case, allreduce_case, broadcast_case, reduce_case,
    reduce_scatter_case, seeded_matrix, seeded_values, PayloadCase,
};
pub use schedule::{CollSchedule, Send, SlotAction};
pub use tree::{broadcast_naive, broadcast_tree, reduce_naive, reduce_tree, SpanningTree};

use sg_perm::factorial::factorial;

/// The distance lower bound for any collective touching all of
/// `S_m`: the eccentricity of every node equals the diameter
/// `⌊3(m−1)/2⌋` (vertex transitivity; the formula is BFS-verified in
/// `sg-star`). At least one packet must travel this many hops.
#[must_use]
pub fn distance_lower_bound(order: usize) -> u32 {
    sg_star::properties::diameter_formula(order)
}

/// Lower bound on any single-phase root collective: `m! − 1` packets
/// must cross the root's `m − 1` links at one flit per link per
/// round.
#[must_use]
pub fn naive_root_lower_bound(order: usize) -> u32 {
    let packets = factorial(order) - 1;
    let links = (order - 1) as u64;
    packets.div_ceil(links) as u32
}
