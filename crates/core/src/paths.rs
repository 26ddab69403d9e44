//! Lemma 2's constructive dilation-3 paths and the mesh-edge router.
//!
//! For a symbol transposition `π ↦ π_(x,y)`:
//!
//! * if `x` or `y` is the front symbol, one generator suffices
//!   (distance 1);
//! * otherwise the canonical 3-hop path swaps the front through both
//!   symbols: `π → (x …) → (y …) → π_(x,y)` — first fetch `x` to the
//!   front, then exchange it with `y`'s slot, then park `y` where the
//!   original front symbol waits.
//!
//! Combined with Lemma 3 (each mesh edge *is* a symbol transposition)
//! this yields the edge-to-path map of the embedding, and its
//! regularity is what makes the Theorem-6 unit-route schedule
//! conflict-free (see `crate::congestion`).

use crate::lemma3::{minus_swap_symbols, plus_swap_symbols};
use sg_perm::Perm;

/// The canonical shortest path realizing the symbol transposition
/// `π → π_(x,y)`, inclusive of both endpoints (so its length is 2 or
/// 4 nodes = 1 or 3 hops).
///
/// # Panics
/// Panics if `x == y` or either symbol is out of range.
#[must_use]
pub fn transposition_path(pi: &Perm, x: u8, y: u8) -> Vec<Perm> {
    let (gens, len) = transposition_hops(pi, x, y);
    let mut path = Vec::with_capacity(len + 1);
    let mut cur = *pi;
    path.push(cur);
    for &g in &gens[..len] {
        cur.swap_slots(0, usize::from(g));
        path.push(cur);
    }
    path
}

/// Generator indices (`g_j`) realizing [`transposition_path`].
#[must_use]
pub fn transposition_generators(pi: &Perm, x: u8, y: u8) -> Vec<usize> {
    let (gens, len) = transposition_hops(pi, x, y);
    gens[..len].iter().map(|&g| usize::from(g)).collect()
}

/// [`transposition_generators`] on the stack: the first `len` entries
/// of `gens` (`len` is 1 or 3). One hop to the other symbol's slot
/// when `x` or `y` is the front symbol; otherwise fetch `x` to the
/// front, exchange it with `y`'s slot, and park `y` where the
/// original front symbol waits.
///
/// # Panics
/// Panics if `x == y` or either symbol is out of range.
#[must_use]
pub fn transposition_hops(pi: &Perm, x: u8, y: u8) -> ([u8; 3], usize) {
    assert_ne!(x, y, "transposing a symbol with itself");
    let front = pi.symbol_at(0);
    if front == x || front == y {
        let other = if front == x { y } else { x };
        return ([pi.slot_of(other) as u8, 0, 0], 1);
    }
    let slot_x = pi.slot_of(x) as u8;
    let slot_y = pi.slot_of(y) as u8;
    ([slot_x, slot_y, slot_x], 3)
}

/// The dilation-3 path for one mesh edge: from the star node `pi`
/// (image of mesh node `d`) to the image of `d`'s neighbor along
/// dimension `k` in the `plus` direction (`true` = `d_k + 1`).
/// `None` if the mesh neighbor does not exist.
///
/// # Panics
/// Panics unless `1 ≤ k ≤ n−1`.
#[must_use]
pub fn dilation3_path(pi: &Perm, k: usize, plus: bool) -> Option<Vec<Perm>> {
    let (a, b) = if plus {
        plus_swap_symbols(pi, k)?
    } else {
        minus_swap_symbols(pi, k)?
    };
    Some(transposition_path(pi, a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert_d_s;
    use crate::lemma3::{mesh_neighbor_minus, mesh_neighbor_plus};
    use proptest::prelude::*;
    use sg_mesh::dn::DnMesh;
    use sg_perm::factorial::factorial;
    use sg_perm::lehmer::unrank;
    use sg_star::distance::distance;
    use sg_star::StarGraph;

    #[test]
    fn paper_edge_to_path_examples() {
        // §3.2 (after Lemma 3):
        // ((2,1,0,1),(2,2,0,1)) → (2 3 4 0 1)(3 2 4 0 1)(1 2 4 0 3)(2 1 4 0 3)
        let pi = Perm::from_slice(&[2, 3, 4, 0, 1]).unwrap();
        let path = dilation3_path(&pi, 3, true).unwrap();
        let strs: Vec<String> = path.iter().map(|p| p.to_string()).collect();
        assert_eq!(
            strs,
            ["(2 3 4 0 1)", "(3 2 4 0 1)", "(1 2 4 0 3)", "(2 1 4 0 3)"]
        );
        // ((2,1,0,1),(2,0,0,1)) → (2 3 4 0 1)(3 2 4 0 1)(4 2 3 0 1)(2 4 3 0 1)
        let path_m = dilation3_path(&pi, 3, false).unwrap();
        let strs_m: Vec<String> = path_m.iter().map(|p| p.to_string()).collect();
        assert_eq!(
            strs_m,
            ["(2 3 4 0 1)", "(3 2 4 0 1)", "(4 2 3 0 1)", "(2 4 3 0 1)"]
        );
    }

    #[test]
    fn paths_are_valid_walks_with_correct_endpoints() {
        for n in 2..=6usize {
            let star = StarGraph::new(n);
            let dn = DnMesh::new(n);
            for d in dn.points() {
                let pi = convert_d_s(&d);
                for k in 1..n {
                    for plus in [true, false] {
                        let target = if plus {
                            mesh_neighbor_plus(&pi, k)
                        } else {
                            mesh_neighbor_minus(&pi, k)
                        };
                        let path = dilation3_path(&pi, k, plus);
                        match (target, path) {
                            (None, None) => {}
                            (Some(t), Some(p)) => {
                                assert_eq!(*p.first().unwrap(), pi);
                                assert_eq!(*p.last().unwrap(), t);
                                for w in p.windows(2) {
                                    assert!(star.are_adjacent(&w[0], &w[1]));
                                }
                            }
                            (t, p) => panic!("mismatch at {d} k={k}: {t:?} vs {p:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn path_lengths_match_lemma2() {
        // Length 1 iff the front symbol is in the pair (always for
        // k = n-1, never otherwise); length 3 else.
        for n in 3..=6usize {
            let dn = DnMesh::new(n);
            for d in dn.points() {
                let pi = convert_d_s(&d);
                for k in 1..n {
                    if let Some(p) = dilation3_path(&pi, k, true) {
                        let hops = p.len() - 1;
                        if k == n - 1 {
                            assert_eq!(hops, 1, "d={d} k={k}");
                        } else {
                            assert_eq!(hops, 3, "d={d} k={k}");
                        }
                        // Path length equals the true star distance.
                        assert_eq!(hops as u32, distance(p.first().unwrap(), p.last().unwrap()));
                    }
                }
            }
        }
    }

    #[test]
    fn generators_reproduce_path() {
        let pi = Perm::from_slice(&[2, 3, 4, 0, 1]).unwrap();
        let gens = transposition_generators(&pi, 3, 1);
        let path = transposition_path(&pi, 3, 1);
        let mut cur = pi;
        for (step, &j) in gens.iter().enumerate() {
            cur.swap_slots(0, j);
            assert_eq!(cur, path[step + 1]);
        }
    }

    #[test]
    fn transposition_path_is_symmetric_in_xy() {
        let pi = Perm::from_slice(&[4, 1, 3, 0, 2]).unwrap();
        // Same endpoints regardless of argument order.
        let p1 = transposition_path(&pi, 1, 3);
        let p2 = transposition_path(&pi, 3, 1);
        assert_eq!(p1.last(), p2.last());
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn same_symbol_rejected() {
        let pi = Perm::identity(4);
        let _ = transposition_path(&pi, 2, 2);
    }

    proptest! {
        #[test]
        fn prop_transposition_path_correct(n in 3usize..=10, seed in any::<u64>(), xs in any::<u8>(), ys in any::<u8>()) {
            let pi = unrank(seed % factorial(n), n).unwrap();
            let x = xs % n as u8;
            let mut y = ys % n as u8;
            if x == y { y = (y + 1) % n as u8; }
            let path = transposition_path(&pi, x, y);
            prop_assert_eq!(*path.last().unwrap(), pi.with_symbols_swapped(x, y));
            prop_assert!(path.len() == 2 || path.len() == 4);
            // consecutive nodes differ by a front swap
            for w in path.windows(2) {
                prop_assert_eq!(w[0].symbol_at(0) == w[1].symbol_at(0), false);
                let diff: Vec<usize> = (0..n).filter(|&i| w[0].symbol_at(i) != w[1].symbol_at(i)).collect();
                prop_assert_eq!(diff.len(), 2);
                prop_assert_eq!(diff[0], 0);
            }
        }
    }
}
