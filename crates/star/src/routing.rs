//! Constructive shortest-path routing on `S_n`.
//!
//! The greedy "sort the front symbol home" algorithm:
//!
//! 1. if the front symbol `x ≠ 0`… is misplaced, swap it into its home
//!    slot (generator `g_x`) — this places one symbol per move;
//! 2. if the front symbol is home but the node is not the identity,
//!    swap in any symbol lying on a nontrivial cycle (we pick the
//!    smallest-indexed misplaced slot for determinism).
//!
//! The resulting move count matches the Akers–Krishnamurthy formula of
//! [`crate::distance`] exactly, so these are true shortest paths
//! (verified against BFS in tests).

use crate::distance::length_to_identity;
use sg_perm::{Perm, MAX_N};

/// The greedy sort of `rel` to the identity, handing each generator
/// index to `emit` in order: the one shortest-path construction behind
/// [`sorting_generators`], [`route_generators`] and `sg-net`'s greedy
/// router. Allocation-free. Run on the relative permutation
/// `dst⁻¹ ∘ src` it emits a shortest route `src → dst`.
///
/// A slot other than the front, once home, is never touched again
/// (both moves only swap the front with a misplaced slot), so the
/// smallest misplaced slot only moves right and one cursor finds it.
pub fn greedy_sort(rel: &Perm, mut emit: impl FnMut(u8)) {
    let n = rel.len();
    let mut s = [0u8; MAX_N];
    s[..n].copy_from_slice(rel.as_slice());
    let mut lo = 1;
    loop {
        let front = s[0] as usize;
        let j = if front != 0 {
            // Send the front symbol home.
            front
        } else {
            // Front is home; fetch the smallest misplaced symbol's slot.
            while lo < n && s[lo] as usize == lo {
                lo += 1;
            }
            if lo == n {
                break; // identity reached
            }
            lo
        };
        emit(j as u8);
        s.swap(0, j);
    }
}

/// Generator sequence (each `g_j`, `1 ≤ j < n`) sorting `p` to the
/// identity in the minimum number of moves.
#[must_use]
pub fn sorting_generators(p: &Perm) -> Vec<usize> {
    let mut moves = Vec::with_capacity(length_to_identity(p) as usize);
    greedy_sort(p, |j| moves.push(usize::from(j)));
    moves
}

/// Generator sequence carrying `a` to `b` along a shortest path.
///
/// With `g = b⁻¹∘a` it holds that `a · τ_{g_1} ⋯ τ_{g_k} = b` where
/// the `τ`s are the slot-0 transpositions returned for `g`.
///
/// # Panics
/// Panics if the permutations have different lengths.
#[must_use]
pub fn route_generators(a: &Perm, b: &Perm) -> Vec<usize> {
    sorting_generators(&a.relative_to(b))
}

/// Full node sequence of a shortest path `a → b` (inclusive).
#[must_use]
pub fn shortest_path(a: &Perm, b: &Perm) -> Vec<Perm> {
    let mut path = Vec::new();
    let mut cur = *a;
    path.push(cur);
    for j in route_generators(a, b) {
        cur.swap_slots(0, j);
        path.push(cur);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::distance;
    use crate::StarGraph;
    use proptest::prelude::*;
    use sg_perm::factorial::factorial;
    use sg_perm::lehmer::unrank;

    #[test]
    fn sorting_reaches_identity_with_optimal_length() {
        for n in 2..=7usize {
            for r in 0..factorial(n) {
                let p = unrank(r, n).unwrap();
                let moves = sorting_generators(&p);
                assert_eq!(moves.len() as u32, length_to_identity(&p), "perm {p}");
                let mut cur = p;
                for &j in &moves {
                    cur.swap_slots(0, j);
                }
                assert!(cur.is_identity(), "perm {p} not sorted");
            }
        }
    }

    #[test]
    fn paths_are_valid_walks() {
        let s = StarGraph::new(5);
        let a = unrank(37, 5).unwrap();
        let b = unrank(101, 5).unwrap();
        let path = shortest_path(&a, &b);
        assert_eq!(*path.first().unwrap(), a);
        assert_eq!(*path.last().unwrap(), b);
        assert_eq!(path.len() as u32, distance(&a, &b) + 1);
        for w in path.windows(2) {
            assert!(s.are_adjacent(&w[0], &w[1]));
        }
    }

    #[test]
    fn route_between_equal_nodes_is_empty() {
        let a = unrank(50, 5).unwrap();
        assert!(route_generators(&a, &a).is_empty());
        assert_eq!(shortest_path(&a, &a), vec![a]);
    }

    #[test]
    fn paper_worst_case_shape() {
        // A diameter-attaining node for n = 4 takes floor(3*3/2) = 4 moves.
        // (2 3 0 1) in slot form: two 2-cycles, front misplaced:
        // m=4, c=2 => 4 + 2 - 2 = 4.
        let p = Perm::from_slice(&[2, 3, 0, 1]).unwrap();
        assert_eq!(sorting_generators(&p).len(), 4);
    }

    proptest! {
        #[test]
        fn prop_route_reaches_target(n in 2usize..=9, sa in any::<u64>(), sb in any::<u64>()) {
            let a = unrank(sa % factorial(n), n).unwrap();
            let b = unrank(sb % factorial(n), n).unwrap();
            let mut cur = a;
            for j in route_generators(&a, &b) {
                prop_assert!(j >= 1 && j < n);
                cur.swap_slots(0, j);
            }
            prop_assert_eq!(cur, b);
        }

        #[test]
        fn prop_route_length_is_distance(n in 2usize..=9, sa in any::<u64>(), sb in any::<u64>()) {
            let a = unrank(sa % factorial(n), n).unwrap();
            let b = unrank(sb % factorial(n), n).unwrap();
            prop_assert_eq!(route_generators(&a, &b).len() as u32, distance(&a, &b));
        }

        #[test]
        fn prop_path_within_diameter(n in 2usize..=10, sa in any::<u64>(), sb in any::<u64>()) {
            let a = unrank(sa % factorial(n), n).unwrap();
            let b = unrank(sb % factorial(n), n).unwrap();
            prop_assert!(route_generators(&a, &b).len() as u32 <= (3 * (n as u32 - 1)) / 2);
        }
    }
}
