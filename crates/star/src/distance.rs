//! Exact star-graph distances via the Akers–Krishnamurthy formula.
//!
//! Sorting a permutation with moves "swap the front symbol into any
//! slot" is a classic problem (`[AKER89]`): writing `m` for the number
//! of misplaced symbols and `c` for the number of nontrivial cycles,
//! the minimum number of moves is
//!
//! * `m + c`       if the front slot holds its own symbol,
//! * `m + c − 2`   otherwise.
//!
//! Intuition: a front-not-home move can always place one symbol
//! (consuming it from its cycle), while entering a new cycle costs one
//! unplaced move; the `−2` credits the cycle the front slot already
//! sits on. Lemma 2 of the paper ("distance between `π` and `π_(i,j)`
//! is 1 or 3") is the special case of a single 2-cycle.
//!
//! Tests validate the formula exhaustively against BFS for `n ≤ 7`.

use sg_perm::cycles::cycle_counts;
use sg_perm::Perm;

/// Minimum number of star-graph moves sorting `p` to the identity.
/// Allocation-free: one cycle walk.
#[must_use]
pub fn length_to_identity(p: &Perm) -> u32 {
    let (m, c) = cycle_counts(p);
    let (m, c) = (m as u32, c as u32);
    if m == 0 {
        return 0;
    }
    if p.symbol_at(0) as usize == 0 {
        // front slot already home: every cycle must be entered and exited
        m + c
    } else {
        // front slot sits on a nontrivial cycle: that cycle is free to
        // enter, and its last placement also retires the front slot
        m + c - 2
    }
}

/// Exact hop distance between two nodes of the same `S_n`.
///
/// Star-graph edges are *right* multiplications by the generators, so
/// left translation is an automorphism and
/// `d(π, σ) = ℓ(σ⁻¹ ∘ π)` with `ℓ` = [`length_to_identity`].
///
/// # Panics
/// Panics if the permutations have different lengths.
#[must_use]
pub fn distance(a: &Perm, b: &Perm) -> u32 {
    length_to_identity(&a.relative_to(b))
}

/// The generators that shorten the relative permutation
/// `rel = target⁻¹ ∘ p` as a bitmask: bit `j` is set iff
/// `ℓ(rel · τ_j) < ℓ(rel)`, i.e. iff `g_j` moves `p` one hop closer to
/// `target`. Zero iff `rel` is the identity. Allocation-free: a right
/// transposition `(0 j)` merges the cycles of `0` and `j` or splits
/// their common cycle, so the formula of [`length_to_identity`] gives
/// the set in closed form:
///
/// * front home (`rel[0] = 0`): every misplaced slot `j`;
/// * front misplaced: the front symbol's home slot `rel[0]`, plus every
///   misplaced slot off the front's own cycle.
#[must_use]
pub fn improving_mask(rel: &Perm) -> u32 {
    let s = rel.as_slice();
    let misplaced = s
        .iter()
        .enumerate()
        .skip(1)
        .filter(|&(j, &x)| x as usize != j)
        .fold(0u32, |mask, (j, _)| mask | 1 << j);
    let front = s[0] as usize;
    if front == 0 {
        return misplaced;
    }
    let mut own_cycle = 0u32;
    let mut j = front;
    while j != 0 {
        own_cycle |= 1 << j;
        j = s[j] as usize;
    }
    (misplaced & !own_cycle) | 1 << front
}

/// Generators whose application moves `p` one hop closer to `target`,
/// ascending: the set bits of [`improving_mask`]. Empty iff
/// `p == target`: in a Cayley graph every
/// non-target node has at least one improving generator (greedy
/// routing terminates), and taking the **lowest** one everywhere
/// orients a spanning tree toward `target` along the star's dimension
/// structure — the tree `sg-coll` builds its broadcast and reduce
/// collectives on.
///
/// # Panics
/// Panics if the permutations have different lengths.
#[must_use]
pub fn improving_generators(p: &Perm, target: &Perm) -> Vec<u8> {
    assert_eq!(p.len(), target.len(), "nodes of different star orders");
    let mask = improving_mask(&p.relative_to(target));
    (1..p.len() as u8).filter(|&j| mask >> j & 1 == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sg_graph::bfs::bfs;
    use sg_graph::builders::star_graph;
    use sg_perm::factorial::factorial;
    use sg_perm::lehmer::{rank, unrank};
    use sg_perm::MAX_N;

    #[test]
    fn identity_distance_zero() {
        for n in 1..=8 {
            assert_eq!(length_to_identity(&Perm::identity(n)), 0);
        }
    }

    #[test]
    fn single_generator_distance_one() {
        for n in 2..=8usize {
            for j in 1..n {
                let p = Perm::identity(n).with_slots_swapped(0, j);
                assert_eq!(length_to_identity(&p), 1);
            }
        }
    }

    #[test]
    fn lemma2_non_front_transposition_distance_three() {
        // Lemma 2: π_(i,j) with neither symbol at the front is at
        // distance exactly 3 from π.
        for n in 3..=8usize {
            for i in 1..n {
                for j in i + 1..n {
                    let p = Perm::identity(n).with_slots_swapped(i, j);
                    assert_eq!(length_to_identity(&p), 3, "n={n} swap ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn formula_matches_bfs_exhaustively() {
        for n in 2..=7usize {
            let g = star_graph(n);
            let id_rank = rank(&Perm::identity(n)) as u32;
            let tree = bfs(&g, id_rank);
            for r in 0..factorial(n) {
                let p = unrank(r, n).unwrap();
                assert_eq!(
                    length_to_identity(&p),
                    tree.dist[r as usize],
                    "n={n} perm {p}"
                );
            }
        }
    }

    #[test]
    fn pairwise_distance_matches_bfs_spot() {
        let n = 5;
        let g = star_graph(n);
        for a_rank in [0u64, 7, 33, 100] {
            let tree = bfs(&g, a_rank as u32);
            let a = unrank(a_rank, n).unwrap();
            for b_rank in 0..factorial(n) {
                let b = unrank(b_rank, n).unwrap();
                assert_eq!(distance(&b, &a), tree.dist[b_rank as usize]);
                assert_eq!(distance(&a, &b), tree.dist[b_rank as usize]);
            }
        }
    }

    #[test]
    fn max_distance_is_the_diameter() {
        // §2 property 2: max_π ℓ(π) = floor(3(n-1)/2).
        for n in 2..=8usize {
            let max = (0..factorial(n))
                .map(|r| length_to_identity(&unrank(r, n).unwrap()))
                .max()
                .unwrap();
            assert_eq!(max, (3 * (n as u32 - 1)) / 2, "n={n}");
        }
    }

    #[test]
    fn cayley_lower_bound_holds() {
        // Star distance >= minimum transpositions (Cayley distance).
        for r in 0..factorial(6) {
            let p = unrank(r, 6).unwrap();
            assert!(length_to_identity(&p) as usize >= sg_perm::cycles::cayley_distance(&p));
        }
    }

    #[test]
    fn improving_generators_exact() {
        // Non-empty off-target, each listed generator reduces the
        // distance by exactly 1, each omitted one does not, ascending.
        for n in 2..=5usize {
            for t_rank in [0u64, 3] {
                let t = unrank(t_rank % factorial(n), n).unwrap();
                for r in 0..factorial(n) {
                    let p = unrank(r, n).unwrap();
                    let d = distance(&p, &t);
                    let gens = improving_generators(&p, &t);
                    assert_eq!(gens.is_empty(), d == 0);
                    assert!(gens.windows(2).all(|w| w[0] < w[1]));
                    for j in 1..n {
                        let dn = distance(&p.with_slots_swapped(0, j), &t);
                        if gens.contains(&(j as u8)) {
                            assert_eq!(dn, d - 1);
                        } else {
                            assert!(dn >= d);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn improving_mask_matches_brute_force_at_every_target() {
        // The closed form against one distance per generator, for every
        // (node, target) pair of S_n, n <= 5.
        for n in 2..=5usize {
            for t_rank in 0..factorial(n) {
                let t = unrank(t_rank, n).unwrap();
                for r in 0..factorial(n) {
                    let p = unrank(r, n).unwrap();
                    let d = distance(&p, &t);
                    let mask = improving_mask(&p.relative_to(&t));
                    for j in 0..n {
                        let improves = j > 0 && distance(&p.with_slots_swapped(0, j), &t) < d;
                        assert_eq!(mask >> j & 1 == 1, improves, "n={n} {p} -> {t}, g_{j}");
                    }
                    assert_eq!(mask >> n, 0);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_improving_mask_matches_brute_force(n in 2usize..=MAX_N, sa in any::<u64>(), sb in any::<u64>()) {
            let p = unrank(sa % factorial(n), n).unwrap();
            let t = unrank(sb % factorial(n), n).unwrap();
            let d = distance(&p, &t);
            let mask = improving_mask(&p.relative_to(&t));
            prop_assert_eq!(mask == 0, d == 0);
            for j in 1..n {
                let improves = distance(&p.with_slots_swapped(0, j), &t) < d;
                prop_assert_eq!(mask >> j & 1 == 1, improves);
            }
        }

        #[test]
        fn prop_symmetry(n in 2usize..=10, sa in any::<u64>(), sb in any::<u64>()) {
            let a = unrank(sa % factorial(n), n).unwrap();
            let b = unrank(sb % factorial(n), n).unwrap();
            prop_assert_eq!(distance(&a, &b), distance(&b, &a));
        }

        #[test]
        fn prop_triangle_inequality(n in 2usize..=8, sa in any::<u64>(), sb in any::<u64>(), sc in any::<u64>()) {
            let a = unrank(sa % factorial(n), n).unwrap();
            let b = unrank(sb % factorial(n), n).unwrap();
            let c = unrank(sc % factorial(n), n).unwrap();
            prop_assert!(distance(&a, &c) <= distance(&a, &b) + distance(&b, &c));
        }

        #[test]
        fn prop_neighbors_at_distance_one(n in 2usize..=10, s in any::<u64>()) {
            let p = unrank(s % factorial(n), n).unwrap();
            for j in 1..n {
                let q = p.with_slots_swapped(0, j);
                prop_assert_eq!(distance(&p, &q), 1);
            }
        }

        #[test]
        fn prop_left_translation_invariance(n in 2usize..=8, sa in any::<u64>(), sb in any::<u64>(), st in any::<u64>()) {
            let a = unrank(sa % factorial(n), n).unwrap();
            let b = unrank(sb % factorial(n), n).unwrap();
            let t = unrank(st % factorial(n), n).unwrap();
            prop_assert_eq!(
                distance(&t.compose(&a), &t.compose(&b)),
                distance(&a, &b)
            );
        }
    }
}
