//! Pluggable routing policies.
//!
//! A [`RoutingPolicy`] maps a `(src, dst)` pair of star nodes to the
//! generator sequence the packet will follow, and names the
//! [`HopRule`] by which the engines follow it; the [`crate::Network`]
//! charges contention along that path. Three policies ship:
//!
//! * [`GreedyRouting`] — the Akers–Krishnamurthy "sort the front
//!   symbol home" shortest path of [`sg_star::routing`]; optimal in
//!   hops, oblivious to contention.
//! * [`EmbeddingRouting`] — dimension-order routing in the embedded
//!   mesh `D_n`: walk the mesh coordinates of `src` to those of `dst`
//!   one unit move at a time, expanding every mesh edge through its
//!   Lemma-2 dilation-3 (or 1) path. Longer in hops, but on the
//!   mesh-dimension-sweep workload it reproduces the paper's Lemma-5
//!   schedule exactly — provably contention-free.
//! * [`AdaptiveRouting`] — contention-aware: instead of fixing the
//!   route at injection, each hop is chosen **at enqueue time** among
//!   the shortest-path candidate generators, picking the one whose
//!   output queue is least occupied (ties broken toward the
//!   embedding path's order). Still minimal in hops while any
//!   shortest-path link survives; falls back to a BFS detour over the
//!   surviving subgraph when faults block every candidate.

use sg_core::convert::convert_s_d_coords;
use sg_perm::{Perm, MAX_N};
use sg_star::distance::length_to_identity;
use sg_star::routing::greedy_sort;

/// How the engines pick a packet's hops under a [`RoutingPolicy`]
/// (see [`RoutingPolicy::hop_rule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HopRule {
    /// Follow the route [`RoutingPolicy::route_into`] appends, fixed
    /// at injection.
    #[default]
    SourceRoute,
    /// Follow the greedy shortest path of [`GreedyRouting`], read hop
    /// by hop off the packed `dst⁻¹ ∘ cur` the packet carries.
    Greedy,
    /// Pick each hop at enqueue time from live queue occupancy, as
    /// [`AdaptiveRouting`] describes.
    Adaptive,
}

/// A routing strategy: a generator sequence from `src` to `dst`, and
/// the rule the engines follow hop by hop (faults may later replace
/// the rest of a route, see [`crate::FaultPolicy::Reroute`]).
///
/// An implementation provides [`RoutingPolicy::route_into`], which
/// only appends; [`RoutingPolicy::route`] wraps it. `Sync` is required
/// so the simulator can set up large workloads in parallel.
pub trait RoutingPolicy: Sync {
    /// Human-readable policy name (used in tables and reports).
    fn name(&self) -> &'static str;

    /// Appends the generator indices (`1 ≤ g < n`) carrying `src` to
    /// `dst` to `out`, leaving what `out` already holds untouched.
    /// Must append nothing iff `src == dst`.
    ///
    /// The engines call this once per source-routed packet per run,
    /// appending every route of a run straight into one shared slab,
    /// so it sits on every such run's setup path. An implementation
    /// should allocate nothing but `out`'s growth, and reserve the
    /// route's length before it appends, so that `out` grows at most
    /// once per call and [`RoutingPolicy::route`] allocates exactly
    /// once.
    fn route_into(&self, src: &Perm, dst: &Perm, out: &mut Vec<u8>);

    /// The route [`RoutingPolicy::route_into`] appends, as a `Vec` of
    /// its own (empty iff `src == dst`).
    fn route(&self, src: &Perm, dst: &Perm) -> Vec<u8> {
        let mut gens = Vec::new();
        self.route_into(src, dst, &mut gens);
        gens
    }

    /// The rule the engines follow for this policy's packets.
    ///
    /// * [`HopRule::SourceRoute`] (the default): the engines append
    ///   [`RoutingPolicy::route_into`]'s route to the run's route slab
    ///   at setup and follow it.
    /// * [`HopRule::Greedy`]: the engines route nothing at setup. Each
    ///   packet carries its packed `dst⁻¹ ∘ cur`, and every hop reads
    ///   the next generator off it and swaps two of its fields. Only a
    ///   policy whose route is [`GreedyRouting`]'s may say so.
    /// * [`HopRule::Adaptive`]: the engines pack the state the choice
    ///   needs once per packet and call their shared hop selector per
    ///   hop. [`RoutingPolicy::route`] is then only a static
    ///   description of the zero-contention path.
    ///
    /// In multi-tenant runs ([`crate::Tenants::PerJob`]) each job
    /// brings its own policy, so the rule is effectively per packet.
    fn hop_rule(&self) -> HopRule {
        HopRule::SourceRoute
    }
}

/// Greedy shortest-path routing (always `distance(src, dst)` hops).
///
/// The engines never call [`RoutingPolicy::route_into`] for it: a
/// greedy packet carries `dst⁻¹ ∘ cur` packed in 4-bit fields and
/// reads each hop off it, sending the front symbol home, else fetching
/// the smallest misplaced slot — the rule of
/// [`sg_star::routing::greedy_sort`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyRouting;

impl RoutingPolicy for GreedyRouting {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn route_into(&self, src: &Perm, dst: &Perm, out: &mut Vec<u8>) {
        let rel = src.relative_to(dst);
        out.reserve(length_to_identity(&rel) as usize);
        greedy_sort(&rel, |g| out.push(g));
    }

    fn hop_rule(&self) -> HopRule {
        HopRule::Greedy
    }
}

/// Dimension-order routing through the mesh embedding.
///
/// Corrects mesh dimension 1 first, then 2, …, then `n−1`; each unit
/// move is expanded via [`sg_core::paths::transposition_generators`]
/// on the Lemma-3 symbol pair, i.e. every hop sequence is exactly the
/// path [`sg_core::paths::dilation3_path`] would take for that mesh
/// edge.
///
/// These are also the canonical escape routes: when a packet diverts
/// onto [`crate::FlowControl::EscapeChannel`]'s escape bank on a
/// fault-free network, the route pinned for it is exactly this
/// policy's dimension-order path from the diversion point (dilation-3
/// walks can *pass through* the destination mid-route, in which case
/// the packet simply delivers early).
#[derive(Debug, Clone, Copy, Default)]
pub struct EmbeddingRouting;

impl RoutingPolicy for EmbeddingRouting {
    fn name(&self) -> &'static str {
        "embedding"
    }

    fn route_into(&self, src: &Perm, dst: &Perm, out: &mut Vec<u8>) {
        let n = src.len();
        assert_eq!(n, dst.len(), "routing between different star orders");
        let (at, target) = (convert_s_d_coords(src), convert_s_d_coords(dst));
        // Every unit move costs 3 hops, or 1 on dimension n−1 (Lemma 2).
        let hops: u32 = (1..n)
            .map(|k| at[k].abs_diff(target[k]) * if k == n - 1 { 1 } else { 3 })
            .sum();
        out.reserve(hops as usize);
        embedding_walk(src, at, &target, |g| {
            out.push(g);
            true
        });
    }
}

/// The dimension-order walk of [`EmbeddingRouting`] from `src`, whose
/// mesh coordinates are `at`, to the node with mesh coordinates
/// `target` (both as [`convert_s_d_coords`] gives them): corrects
/// dimension 1 first, then 2, …, then `n−1`, expanding each unit move
/// into the Lemma-2 hops of its Lemma-3 symbol pair. Each generator
/// goes to `emit`; the walk stops early when `emit` returns `false`.
/// Allocation-free.
///
/// A unit move along dimension `k` transposes the symbol in slot
/// `s = n−1−k` with its Lemma-3 partner, found by one scan of the
/// slots after `s` ([`lemma3_partner`]). For `k < n−1` neither symbol
/// is in front, so the Lemma-2 path is `[s, partner, s]`; for
/// `k = n−1` the symbol is the front one and the path is the one hop
/// `[partner]`. Either way the move's net effect is one slot swap,
/// which is all the walk applies to its copy of the node — the same
/// hops [`sg_core::lemma3::plus_swap_symbols`] (or `minus_`) and
/// [`sg_core::paths::transposition_hops`] give, without rescanning
/// for the symbols' slots.
fn embedding_walk(
    src: &Perm,
    mut at: [u32; MAX_N],
    target: &[u32; MAX_N],
    mut emit: impl FnMut(u8) -> bool,
) {
    let n = src.len();
    let mut cur = *src;
    for k in 1..n {
        let s = n - 1 - k;
        while at[k] != target[k] {
            let plus = at[k] < target[k];
            let partner = lemma3_partner(&cur, s, plus);
            let (hops, len) = if s == 0 {
                ([partner, 0, 0], 1)
            } else {
                ([s as u8, partner, s as u8], 3)
            };
            for &g in &hops[..len] {
                if !emit(g) {
                    return;
                }
            }
            cur.swap_slots(s, usize::from(partner));
            at[k] = if plus { at[k] + 1 } else { at[k] - 1 };
        }
    }
    debug_assert_eq!(
        convert_s_d_coords(&cur),
        *target,
        "mesh walk must land on dst"
    );
}

/// The slot of the Lemma-3 partner of the symbol in slot `s` of
/// `cur`: among the slots after `s`, the one holding the largest
/// smaller symbol (`plus`, the move `d_k + 1` for `k = n−1−s`) or the
/// smallest larger one (`d_k − 1`). One scan; the walk only asks for a
/// move toward its target, whose partner always exists.
fn lemma3_partner(cur: &Perm, s: usize, plus: bool) -> u8 {
    let slots = cur.as_slice();
    let a = slots[s];
    // 0 on the wrong side of `a`, growing toward `a` on the right one:
    // the partner holds the largest key.
    let key = |b: u8| match (plus, b < a) {
        (true, true) => b + 1,
        (false, false) => MAX_N as u8 - b,
        _ => 0,
    };
    let (mut best, mut slot) = (0, 0);
    for (t, &b) in slots.iter().enumerate().skip(s + 1) {
        let k = key(b);
        if k > best {
            (best, slot) = (k, t);
        }
    }
    assert!(
        best > 0,
        "interior coordinate always has a neighbor toward the target"
    );
    slot as u8
}

/// The first generator of the dimension-order walk from `cur` to the
/// node whose mesh coordinates are `target`, which differs from `cur`'s:
/// one [`convert_s_d_coords`] of `cur` finds the first dimension `k`
/// the walk corrects, whose first hop is slot `n−1−k` when
/// `k < n−1`, and the Lemma-3 partner's slot when `k = n−1`.
///
/// # Panics
/// Panics if `target` is `cur`'s own coordinates (there is no first
/// hop).
pub(crate) fn embedding_first_hop(cur: &Perm, target: &[u32; MAX_N]) -> u8 {
    let n = cur.len();
    let at = convert_s_d_coords(cur);
    let k = (1..n)
        .find(|&k| at[k] != target[k])
        .expect("cur == dst has no first embedding hop");
    if k < n - 1 {
        (n - 1 - k) as u8
    } else {
        lemma3_partner(cur, 0, at[k] < target[k])
    }
}

/// Contention-aware minimal routing, decided hop by hop.
///
/// At every enqueue the engines ask: which generators `g` move the
/// packet strictly closer to its destination (there is always at
/// least one in a fault-free star graph), and which of their output
/// queues at the current PE is least occupied? The least-occupied
/// surviving candidate wins; ties prefer the generator the
/// dimension-order [`EmbeddingRouting`] path would take next, then
/// the smallest generator index. Every adaptive hop reduces the star
/// distance by exactly 1, so routes are minimal and provably
/// terminate; when faults kill **all** candidate links at some PE the
/// packet falls back to [`crate::FaultPolicy`] semantics (drop, or
/// pin the BFS detour over the surviving subgraph and follow it to
/// the end).
///
/// The engines make this choice without unranking: at route setup
/// each adaptive packet gets `dst⁻¹ ∘ cur`, `cur` and `dst`'s mesh
/// coordinates packed once, every hop swaps two of their fields, and
/// only a tie converts `cur` to mesh coordinates (one `CONVERT-S-D`)
/// to find the embedding path's next generator.
///
/// [`RoutingPolicy::route`] returns the greedy shortest path — the
/// route an adaptive packet takes when it never meets contention.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptiveRouting;

impl RoutingPolicy for AdaptiveRouting {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn route_into(&self, src: &Perm, dst: &Perm, out: &mut Vec<u8>) {
        GreedyRouting.route_into(src, dst, out);
    }

    fn hop_rule(&self) -> HopRule {
        HopRule::Adaptive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sg_core::convert::convert_s_d;
    use sg_perm::factorial::factorial;
    use sg_perm::lehmer::unrank;
    use sg_star::distance::distance;

    fn apply(src: &Perm, route: &[u8]) -> Perm {
        let mut cur = *src;
        for &g in route {
            cur.swap_slots(0, g as usize);
        }
        cur
    }

    #[test]
    fn both_policies_reach_target_exhaustive_small() {
        for n in 2..=4usize {
            for ra in 0..factorial(n) {
                for rb in 0..factorial(n) {
                    let a = unrank(ra, n).unwrap();
                    let b = unrank(rb, n).unwrap();
                    for policy in [&GreedyRouting as &dyn RoutingPolicy, &EmbeddingRouting] {
                        let route = policy.route(&a, &b);
                        assert_eq!(apply(&a, &route), b, "{} {a}->{b}", policy.name());
                        assert_eq!(route.is_empty(), a == b);
                        assert!(route.iter().all(|&g| g >= 1 && (g as usize) < n));
                    }
                }
            }
        }
    }

    #[test]
    fn greedy_is_shortest() {
        // Against the shortest-path definition: exactly distance(a, b)
        // hops, landing on b, for every ordered pair of S_n, n <= 5.
        for n in 2..=5usize {
            for ra in 0..factorial(n) {
                for rb in 0..factorial(n) {
                    let a = unrank(ra, n).unwrap();
                    let b = unrank(rb, n).unwrap();
                    let route = GreedyRouting.route(&a, &b);
                    assert_eq!(route.len() as u32, distance(&a, &b), "n={n} {a} -> {b}");
                    assert_eq!(apply(&a, &route), b, "n={n} {a} -> {b}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_greedy_route_is_a_shortest_path(n in 2usize..=MAX_N, sa in any::<u64>(), sb in any::<u64>()) {
            let a = unrank(sa % factorial(n), n).unwrap();
            let b = unrank(sb % factorial(n), n).unwrap();
            let route = GreedyRouting.route(&a, &b);
            prop_assert_eq!(route.len() as u32, distance(&a, &b));
            prop_assert_eq!(apply(&a, &route), b);
        }
    }

    #[test]
    fn embedding_route_length_matches_dilation_times_l1() {
        // Every unit mesh move costs 1 hop (dimension n−1) or 3 hops
        // (all other dimensions), so the total is a per-dimension sum.
        let n = 5;
        for ra in (0..factorial(n)).step_by(11) {
            let a = unrank(ra, n).unwrap();
            let b = unrank((ra * 13 + 5) % factorial(n), n).unwrap();
            let da = convert_s_d(&a);
            let db = convert_s_d(&b);
            let mut expect = 0u64;
            for k in 1..n {
                let delta = u64::from(da.d(k).abs_diff(db.d(k)));
                expect += delta * if k == n - 1 { 1 } else { 3 };
            }
            assert_eq!(EmbeddingRouting.route(&a, &b).len() as u64, expect);
        }
    }

    #[test]
    fn embedding_beats_nothing_but_is_valid_for_single_mesh_hops() {
        // For a single mesh edge the embedding route is the exact
        // Lemma-2 path: 3 hops (or 1 on dimension n−1).
        let n = 5;
        for r in 0..factorial(n) {
            let a = unrank(r, n).unwrap();
            for k in 1..n {
                if let Some(b) = sg_core::lemma3::mesh_neighbor_plus(&a, k) {
                    let route = EmbeddingRouting.route(&a, &b);
                    let expect = if k == n - 1 { 1 } else { 3 };
                    assert_eq!(route.len(), expect, "{a} k={k}");
                }
            }
        }
    }
}
