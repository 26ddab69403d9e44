//! Cycle structure of permutations.
//!
//! The exact star-graph distance formula (Akers–Krishnamurthy, used by
//! the paper's §2 property list and Lemma 2) is a function of the
//! cycle structure of a node's permutation: `m + c` or `m + c − 2`
//! where `m` counts misplaced symbols and `c` counts nontrivial
//! cycles. This module computes those quantities.

use crate::{Perm, MAX_N};

/// Cycle decomposition of a permutation, in canonical form: each cycle
/// starts with its smallest element and cycles are sorted by that
/// leader. Fixed points (1-cycles) are *excluded*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleStructure {
    /// Nontrivial cycles (length ≥ 2), canonical order. Each cycle
    /// lists *slots*: `cycle[k+1] = p[cycle[k]]` … i.e. it follows the
    /// mapping `slot i ↦ symbol p[i]` interpreted as `i ↦ p(i)`.
    pub cycles: Vec<Vec<u8>>,
    /// Number of fixed points (slots holding their own index).
    pub fixed_points: usize,
}

impl CycleStructure {
    /// Total number of elements on nontrivial cycles (the paper's /
    /// Akers–Krishnamurthy `m`: misplaced symbols).
    #[must_use]
    pub fn moved(&self) -> usize {
        self.cycles.iter().map(Vec::len).sum()
    }

    /// Number of nontrivial cycles (`c` in the distance formula).
    #[must_use]
    pub fn nontrivial_cycles(&self) -> usize {
        self.cycles.len()
    }

    /// `true` iff `slot` lies on some nontrivial cycle.
    #[must_use]
    pub fn is_moved(&self, slot: u8) -> bool {
        self.cycles.iter().any(|c| c.contains(&slot))
    }
}

/// The cycle walk behind every query of this module: hands each
/// nontrivial cycle of `p`, in canonical order, to `visit` as a slice
/// of a stack buffer. Allocation-free.
fn for_each_cycle(p: &Perm, mut visit: impl FnMut(&[u8])) {
    let s = p.as_slice();
    let mut seen = 0u32;
    let mut cycle = [0u8; MAX_N];
    for start in 0..s.len() {
        if seen >> start & 1 == 1 || s[start] as usize == start {
            continue;
        }
        let (mut len, mut cur) = (0, start);
        loop {
            seen |= 1 << cur;
            cycle[len] = cur as u8;
            len += 1;
            cur = s[cur] as usize;
            if cur == start {
                break;
            }
        }
        visit(&cycle[..len]);
    }
}

/// `(moved, cycles)` of `p` without materializing the cycles: the
/// number of slots on nontrivial cycles (the distance formula's `m`)
/// and the number of those cycles (its `c`). Allocation-free; equals
/// `(cs.moved(), cs.nontrivial_cycles())` of [`cycle_structure`].
#[must_use]
pub fn cycle_counts(p: &Perm) -> (usize, usize) {
    let (mut moved, mut cycles) = (0, 0);
    for_each_cycle(p, |c| {
        moved += c.len();
        cycles += 1;
    });
    (moved, cycles)
}

/// Computes the canonical cycle decomposition of `p` (viewing `p` as
/// the function `i ↦ p[i]` on `0..n`).
#[must_use]
pub fn cycle_structure(p: &Perm) -> CycleStructure {
    let mut cycles = Vec::new();
    for_each_cycle(p, |c| cycles.push(c.to_vec()));
    let moved: usize = cycles.iter().map(Vec::len).sum();
    CycleStructure {
        cycles,
        fixed_points: p.len() - moved,
    }
}

/// Parity of the permutation: `true` iff `p` is even (an even number
/// of transpositions). A cycle of length `ℓ` contributes `ℓ − 1`
/// transpositions.
#[must_use]
pub fn is_even(p: &Perm) -> bool {
    cayley_distance(p).is_multiple_of(2)
}

/// Sign of the permutation: `+1` for even, `−1` for odd.
#[must_use]
pub fn sign(p: &Perm) -> i8 {
    if is_even(p) {
        1
    } else {
        -1
    }
}

/// Minimum number of (arbitrary) transpositions expressing `p`:
/// `n − (#cycles including fixed points)`, i.e. `moved − cycles`.
/// This is the Cayley distance — a lower bound for the star-graph
/// distance, useful as a sanity check in tests.
#[must_use]
pub fn cayley_distance(p: &Perm) -> usize {
    let (moved, cycles) = cycle_counts(p);
    moved - cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factorial::factorial;
    use crate::lehmer::unrank;
    use proptest::prelude::*;

    #[test]
    fn identity_has_no_nontrivial_cycles() {
        let cs = cycle_structure(&Perm::identity(5));
        assert!(cs.cycles.is_empty());
        assert_eq!(cs.fixed_points, 5);
        assert_eq!(cs.moved(), 0);
        assert!(is_even(&Perm::identity(5)));
    }

    #[test]
    fn single_transposition() {
        let p = Perm::from_slice(&[0, 2, 1, 3]).unwrap();
        let cs = cycle_structure(&p);
        assert_eq!(cs.cycles, vec![vec![1, 2]]);
        assert_eq!(cs.fixed_points, 2);
        assert_eq!(cs.moved(), 2);
        assert!(!is_even(&p));
        assert_eq!(sign(&p), -1);
        assert_eq!(cayley_distance(&p), 1);
    }

    #[test]
    fn three_cycle() {
        // 0 -> 1 -> 2 -> 0
        let p = Perm::from_slice(&[1, 2, 0]).unwrap();
        let cs = cycle_structure(&p);
        assert_eq!(cs.cycles, vec![vec![0, 1, 2]]);
        assert!(is_even(&p));
        assert_eq!(cayley_distance(&p), 2);
    }

    #[test]
    fn canonical_ordering() {
        // Two 2-cycles: (0 3)(1 2); leaders 0 and 1 in order.
        let p = Perm::from_slice(&[3, 2, 1, 0]).unwrap();
        let cs = cycle_structure(&p);
        assert_eq!(cs.cycles, vec![vec![0, 3], vec![1, 2]]);
        assert!(is_even(&p));
        assert_eq!(cayley_distance(&p), 2);
    }

    #[test]
    fn moved_equals_misplaced_everywhere_small() {
        for n in 1..=6 {
            for r in 0..factorial(n) {
                let p = unrank(r, n).unwrap();
                let cs = cycle_structure(&p);
                assert_eq!(cs.moved(), p.misplaced());
                assert_eq!(cs.moved() + cs.fixed_points, n);
            }
        }
    }

    #[test]
    fn cycle_counts_match_cycle_structure_exhaustively() {
        for n in 1..=7 {
            for r in 0..factorial(n) {
                let p = unrank(r, n).unwrap();
                let cs = cycle_structure(&p);
                assert_eq!(
                    cycle_counts(&p),
                    (cs.moved(), cs.nontrivial_cycles()),
                    "{p}"
                );
            }
        }
    }

    #[test]
    fn sign_is_multiplicative_on_samples() {
        let a = Perm::from_slice(&[1, 0, 2, 3, 4]).unwrap();
        let b = Perm::from_slice(&[0, 1, 3, 2, 4]).unwrap();
        assert_eq!(sign(&a.compose(&b)), sign(&a) * sign(&b));
        let c = Perm::from_slice(&[4, 3, 2, 1, 0]).unwrap();
        assert_eq!(sign(&a.compose(&c)), sign(&a) * sign(&c));
    }

    #[test]
    fn parity_counts_split_evenly() {
        // Exactly half of S_n is even for n >= 2.
        for n in 2..=6 {
            let even = (0..factorial(n))
                .filter(|&r| is_even(&unrank(r, n).unwrap()))
                .count() as u64;
            assert_eq!(even, factorial(n) / 2);
        }
    }

    proptest! {
        #[test]
        fn prop_cycle_counts_match_cycle_structure(n in 1usize..=MAX_N, seed in any::<u64>()) {
            let p = unrank(seed % factorial(n), n).unwrap();
            let cs = cycle_structure(&p);
            prop_assert_eq!(cycle_counts(&p), (cs.moved(), cs.nontrivial_cycles()));
            prop_assert_eq!(cs.moved(), p.misplaced());
        }
    }
}
