//! `CONVERT-D-S` and `CONVERT-S-D` (paper Figures 5 and 6).
//!
//! The vertex mapping of the embedding. Mesh node
//! `(d_{n-1}, …, d_1)` of `D_n` maps to the star node reached from the
//! identity `(n−1 n−2 ⋯ 1 0)` by applying, for each dimension
//! `i = 1 … n−1` in order, the first `d_i` symbol exchanges of
//! Table 1's row `i`:
//!
//! ```text
//! row i:   (i−1 i) (i−2 i−1) ⋯ (1 2) (0 1)
//! ```
//!
//! Equivalently (Figure 5): build the *position* array `q` by bubbling
//! value `i` down `d_i` slots, then invert. Both formulations are
//! implemented and tested equal; the inverse recovers the coordinates
//! by reading off, for each `i` from `n−1` down, how far symbol
//! placement is displaced (Figure 6).
//!
//! Conventions: our `Perm` slot `s` is the paper's position `n−1−s`
//! (slot 0 = front). `MeshPoint::d(i)` is the paper's `d_i`.

use sg_mesh::dn::DnMesh;
use sg_mesh::MeshPoint;
use sg_perm::{Perm, MAX_N};

/// Maps a mesh node of `D_n` to its star-graph node (Figure 5,
/// `CONVERT-D-S`). `O(n²)`.
///
/// ```
/// use sg_core::convert::convert_d_s;
/// use sg_mesh::MeshPoint;
/// // §3.2 worked example: (3,0,1) ↦ (0 3 1 2) on S_4.
/// let d = MeshPoint::new(&[3, 0, 1]).unwrap();
/// assert_eq!(convert_d_s(&d).to_string(), "(0 3 1 2)");
/// ```
///
/// # Panics
/// Panics if some coordinate exceeds its dimension (`d_i > i`).
#[must_use]
pub fn convert_d_s(d: &MeshPoint) -> Perm {
    let m = d.dims();
    let n = m + 1;
    // q[k] = value currently at position k; starts as the identity.
    let mut q: Vec<u8> = (0..n as u8).collect();
    for i in 1..n {
        let di = d.d(i) as usize;
        assert!(
            di <= i,
            "coordinate d_{i} = {di} exceeds dimension size {}",
            i + 1
        );
        for j in 1..=di {
            q.swap(i - j, i - j + 1);
        }
    }
    // p[k] = symbol at paper position k: p[q[i]] = i.
    let mut p = vec![0u8; n];
    for (i, &qi) in q.iter().enumerate() {
        p[qi as usize] = i as u8;
    }
    // Our slot s = paper position n-1-s: display order is p reversed.
    p.reverse();
    Perm::from_slice(&p).expect("permutation by construction")
}

/// Same mapping computed by applying Table 1's symbol exchanges
/// directly to the identity node — the formulation used in the
/// paper's §3.2 walkthrough. Exposed for the Table-1 regenerator and
/// cross-checked against [`convert_d_s`] in tests.
#[must_use]
pub fn convert_d_s_via_exchanges(d: &MeshPoint) -> Perm {
    let n = d.dims() + 1;
    let mut node = home_node(n);
    for i in 1..n {
        for (a, b) in exchanges_for(i, d.d(i) as usize) {
            node.swap_symbols(a, b);
        }
    }
    node
}

/// The image of the mesh origin `(0, …, 0)`: the paper's
/// "(n−1 n−2 ⋯ 1 0)", i.e. display slot `s` holds symbol `n−1−s`.
/// (Note this is *not* the slot-order identity `(0 1 ⋯ n−1)` — the
/// paper numbers positions from the right.)
#[must_use]
pub fn home_node(n: usize) -> Perm {
    let rev: Vec<u8> = (0..n as u8).rev().collect();
    Perm::from_slice(&rev).expect("valid length")
}

/// The first `count` symbol exchanges of Table 1's row `i`:
/// `(i−1 i), (i−2 i−1), …` — `count = d_i` of them.
///
/// # Panics
/// Panics if `count > i`.
#[must_use]
pub fn exchanges_for(i: usize, count: usize) -> Vec<(u8, u8)> {
    assert!(count <= i, "dimension {i} admits at most {i} exchanges");
    (0..count)
        .map(|j| ((i - 1 - j) as u8, (i - j) as u8))
        .collect()
}

/// Full row `i` of Table 1 (all `i` exchanges).
#[must_use]
pub fn table1_row(i: usize) -> Vec<(u8, u8)> {
    exchanges_for(i, i)
}

/// Maps a star-graph node back to its mesh node (Figure 6,
/// `CONVERT-S-D`). Exact inverse of [`convert_d_s`]. `O(n²)`.
///
/// ```
/// use sg_core::convert::convert_s_d;
/// use sg_perm::Perm;
/// // §3.2 worked example: (0 2 1 3) ↦ (3,1,1).
/// let pi = Perm::from_slice(&[0, 2, 1, 3]).unwrap();
/// assert_eq!(convert_s_d(&pi).to_string(), "(3,1,1)");
/// ```
///
/// # Panics
/// Panics on a length-1 permutation (`D_1` does not exist).
#[must_use]
pub fn convert_s_d(pi: &Perm) -> MeshPoint {
    let coords = convert_s_d_coords(pi);
    MeshPoint::from_ascending(&coords[1..pi.len()]).expect("n >= 2")
}

/// [`convert_s_d`] on the stack: `coords[i]` is the paper's `d_i` for
/// `1 ≤ i < n`; `coords[0]` and the tail are 0. The kernel routers use
/// to walk mesh coordinates without a heap-allocated [`MeshPoint`].
///
/// Still Figure 6's loop, written branch-free: `d_i = i − q(i)` for
/// every `i` (it is 0 when `q(i) = i`, and then no smaller position
/// holds a larger value), and each `q(j) > q(i)` drops by one through
/// a subtraction of the comparison instead of a branch, whose outcome
/// a random node makes unpredictable.
///
/// # Panics
/// Panics on a length-1 permutation (`D_1` does not exist).
#[must_use]
pub fn convert_s_d_coords(pi: &Perm) -> [u32; MAX_N] {
    let n = pi.len();
    assert!(n >= 2, "CONVERT-S-D needs n >= 2");
    // Recover the paper's p array (p[k] = symbol at position k) and
    // work on q := p as in Figure 6.
    let s = pi.as_slice();
    let mut q = [0u32; MAX_N];
    for (k, qk) in q.iter_mut().enumerate().take(n) {
        *qk = u32::from(s[n - 1 - k]);
    }
    let mut coords = [0u32; MAX_N]; // coords[i] = d_i (index 0 unused)
    for i in (1..n).rev() {
        let qi = q[i];
        debug_assert!(
            qi <= i as u32,
            "invariant: after removing larger symbols, q(i) <= i"
        );
        coords[i] = i as u32 - qi;
        for qj in q.iter_mut().take(i).skip(1) {
            *qj -= u32::from(*qj > qi);
        }
    }
    coords
}

/// Alternative `CONVERT-S-D` via explicit insertion-code decoding
/// (delete the largest remaining value and record its displacement).
/// Used as an independent cross-check of the Figure-6 algorithm.
#[must_use]
pub fn convert_s_d_via_removal(pi: &Perm) -> MeshPoint {
    let n = pi.len();
    assert!(n >= 2, "CONVERT-S-D needs n >= 2");
    // The forward pass built the position-indexed array q (q[pos] =
    // value) by inserting value i at position i - d_i, for i rising.
    // Its inverse is the paper's p array — the displayed node itself:
    // position of value i = p[i] = symbol_at(n-1-i). Decode by
    // removing values n-1 … 1 and recording displacements.
    let mut positions: Vec<u8> = (0..n).map(|i| pi.symbol_at(n - 1 - i)).collect();
    let mut coords = vec![0u32; n];
    for i in (1..n).rev() {
        let pos = positions[i];
        debug_assert!(
            u32::from(pos) <= i as u32,
            "largest remaining value cannot sit past position {i}"
        );
        coords[i] = (i as u32) - u32::from(pos);
        // Removing the value at `pos` closes the gap: every remaining
        // position greater than `pos` shifts down by one.
        positions.truncate(i);
        for p in positions.iter_mut() {
            if *p > pos {
                *p -= 1;
            }
        }
    }
    MeshPoint::from_ascending(&coords[1..]).expect("n >= 2")
}

/// Regenerates the full Figure-7 table: all 24 rows of
/// `V(D_4) ↔ V(S_4)` in mesh-index order, as
/// `(mesh display string, star display string)` pairs — and the
/// general-`n` analogue.
#[must_use]
pub fn mapping_table(n: usize) -> Vec<(String, String)> {
    let dn = DnMesh::new(n);
    dn.points()
        .map(|d| {
            let pi = convert_d_s(&d);
            (d.to_string(), pi.to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sg_perm::lehmer::rank;

    #[test]
    fn origin_maps_to_home_node() {
        // §3.2: node (0,…,0) maps to (n-1 n-2 … 1 0).
        for n in 2..=8usize {
            let d = MeshPoint::from_ascending(&vec![0; n - 1]).unwrap();
            let pi = convert_d_s(&d);
            assert_eq!(pi, home_node(n), "n={n}: got {pi}");
            assert_eq!(pi.symbol_at(0), (n - 1) as u8, "front symbol is n-1");
        }
    }

    #[test]
    fn paper_worked_example_forward() {
        // (3,0,1): d1=1 gives (3 2 0 1); d2=0; d3=3 gives (0 3 1 2).
        let d = MeshPoint::new(&[3, 0, 1]).unwrap();
        assert_eq!(convert_d_s(&d).to_string(), "(0 3 1 2)");
        // Intermediate from the text: (3,0,1) with only d1 applied:
        let d1_only = MeshPoint::new(&[0, 0, 1]).unwrap();
        assert_eq!(convert_d_s(&d1_only).to_string(), "(3 2 0 1)");
    }

    #[test]
    fn paper_worked_example_inverse() {
        let pi = Perm::from_slice(&[0, 2, 1, 3]).unwrap();
        assert_eq!(convert_s_d(&pi).to_string(), "(3,1,1)");
    }

    /// The full Figure 7 table, transcribed from the paper.
    const FIGURE7: [(&str, &str); 24] = [
        ("(0,0,0)", "(3 2 1 0)"),
        ("(0,0,1)", "(3 2 0 1)"),
        ("(0,1,0)", "(3 1 2 0)"),
        ("(0,1,1)", "(3 1 0 2)"),
        ("(0,2,0)", "(3 0 2 1)"),
        ("(0,2,1)", "(3 0 1 2)"),
        ("(1,0,0)", "(2 3 1 0)"),
        ("(1,0,1)", "(2 3 0 1)"),
        ("(1,1,0)", "(2 1 3 0)"),
        ("(1,1,1)", "(2 1 0 3)"),
        ("(1,2,0)", "(2 0 3 1)"),
        ("(1,2,1)", "(2 0 1 3)"),
        ("(2,0,0)", "(1 3 2 0)"),
        ("(2,0,1)", "(1 3 0 2)"),
        ("(2,1,0)", "(1 2 3 0)"),
        ("(2,1,1)", "(1 2 0 3)"),
        ("(2,2,0)", "(1 0 3 2)"),
        ("(2,2,1)", "(1 0 2 3)"),
        ("(3,0,0)", "(0 3 2 1)"),
        ("(3,0,1)", "(0 3 1 2)"),
        ("(3,1,0)", "(0 2 3 1)"),
        ("(3,1,1)", "(0 2 1 3)"),
        ("(3,2,0)", "(0 1 3 2)"),
        ("(3,2,1)", "(0 1 2 3)"),
    ];

    #[test]
    fn figure7_table_reproduced_exactly() {
        for (mesh_str, star_str) in FIGURE7 {
            let display: Vec<u32> = mesh_str
                .trim_matches(|c| c == '(' || c == ')')
                .split(',')
                .map(|t| t.parse().unwrap())
                .collect();
            let d = MeshPoint::new(&display).unwrap();
            assert_eq!(convert_d_s(&d).to_string(), star_str, "mesh {mesh_str}");
            let symbols: Vec<u8> = star_str
                .trim_matches(|c| c == '(' || c == ')')
                .split(' ')
                .map(|t| t.parse().unwrap())
                .collect();
            let pi = Perm::from_slice(&symbols).unwrap();
            assert_eq!(convert_s_d(&pi).to_string(), mesh_str, "star {star_str}");
        }
    }

    #[test]
    fn roundtrip_exhaustive() {
        for n in 2..=7usize {
            let dn = DnMesh::new(n);
            let mut seen = std::collections::HashSet::new();
            for d in dn.points() {
                let pi = convert_d_s(&d);
                assert_eq!(convert_s_d(&pi), d, "n={n} d={d}");
                assert!(seen.insert(rank(&pi)), "mapping not injective at {d}");
            }
            assert_eq!(seen.len() as u64, dn.node_count(), "mapping not onto");
        }
    }

    #[test]
    fn exchange_formulation_matches_position_formulation() {
        for n in 2..=7usize {
            let dn = DnMesh::new(n);
            for d in dn.points() {
                assert_eq!(
                    convert_d_s(&d),
                    convert_d_s_via_exchanges(&d),
                    "n={n} d={d}"
                );
            }
        }
    }

    #[test]
    fn removal_inverse_matches_figure6_inverse() {
        for n in 2..=7usize {
            let dn = DnMesh::new(n);
            for d in dn.points() {
                let pi = convert_d_s(&d);
                assert_eq!(convert_s_d(&pi), convert_s_d_via_removal(&pi), "n={n}");
            }
        }
    }

    #[test]
    fn stack_convert_s_d_matches_removal_decoder_exhaustively() {
        // The stack kernel against the independent insertion-code
        // decoder, over every node of S_n, n <= 7.
        for n in 2..=7usize {
            for r in 0..sg_perm::factorial::factorial(n) {
                let pi = sg_perm::lehmer::unrank(r, n).unwrap();
                let coords = convert_s_d_coords(&pi);
                let d = convert_s_d_via_removal(&pi);
                assert_eq!(&coords[1..n], d.ascending(), "n={n} {pi}");
                assert!(coords[n..].iter().all(|&c| c == 0) && coords[0] == 0);
            }
        }
    }

    #[test]
    fn table1_rows() {
        assert_eq!(table1_row(1), vec![(0, 1)]);
        assert_eq!(table1_row(2), vec![(1, 2), (0, 1)]);
        assert_eq!(table1_row(4), vec![(3, 4), (2, 3), (1, 2), (0, 1)]);
        assert_eq!(exchanges_for(3, 0), vec![]);
        assert_eq!(exchanges_for(3, 2), vec![(2, 3), (1, 2)]);
    }

    #[test]
    fn mapping_table_matches_figure7_order() {
        let table = mapping_table(4);
        assert_eq!(table.len(), 24);
        // Mesh-index order is (d3,d2,d1) with d1 fastest:
        assert_eq!(table[0], ("(0,0,0)".to_string(), "(3 2 1 0)".to_string()));
        assert_eq!(table[1], ("(0,0,1)".to_string(), "(3 2 0 1)".to_string()));
        assert_eq!(table[23], ("(3,2,1)".to_string(), "(0 1 2 3)".to_string()));
    }

    #[test]
    #[should_panic(expected = "exceeds dimension size")]
    fn out_of_range_coordinate_rejected() {
        let d = MeshPoint::new(&[0, 0, 2]).unwrap(); // d_1 = 2 > 1
        let _ = convert_d_s(&d);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(n in 2usize..=12, seed in any::<u64>()) {
            let dn = DnMesh::new(n);
            let idx = seed % dn.node_count();
            let d = dn.point_at(idx);
            let pi = convert_d_s(&d);
            prop_assert_eq!(convert_s_d(&pi), d);
        }

        #[test]
        fn prop_inverse_roundtrip(n in 2usize..=12, seed in any::<u64>()) {
            let pi = sg_perm::lehmer::unrank(
                seed % sg_perm::factorial::factorial(n), n).unwrap();
            let d = convert_s_d(&pi);
            prop_assert_eq!(convert_d_s(&d), pi);
        }

        #[test]
        fn prop_stack_convert_s_d_matches_removal(n in 2usize..=MAX_N, seed in any::<u64>()) {
            let pi = sg_perm::lehmer::unrank(
                seed % sg_perm::factorial::factorial(n), n).unwrap();
            let coords = convert_s_d_coords(&pi);
            prop_assert_eq!(&coords[1..n], convert_s_d_via_removal(&pi).ascending());
        }

        #[test]
        fn prop_exchange_formulation_agrees(n in 2usize..=12, seed in any::<u64>()) {
            let dn = DnMesh::new(n);
            let d = dn.point_at(seed % dn.node_count());
            prop_assert_eq!(convert_d_s(&d), convert_d_s_via_exchanges(&d));
        }
    }
}
