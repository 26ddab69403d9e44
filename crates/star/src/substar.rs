//! Hierarchical decomposition of `S_n` into sub-stars.
//!
//! Fixing the symbol in the *last* slot (display slot `n−1`, the
//! paper's position 0) partitions `S_n` into `n` node-disjoint copies
//! of `S_{n−1}`: no generator touches the last slot except `g_{n−1}`,
//! so the subgraph induced on each part is an `S_{n−1}` over the
//! remaining symbols. This is the structural fact behind the star
//! graph's recursive algorithms (broadcast, sorting) and its fault
//! tolerance.

use crate::StarGraph;
use sg_perm::factorial::factorial;
use sg_perm::lehmer::{next_perm, rank, unrank};
use sg_perm::{Perm, MAX_N};

/// Label of the sub-star containing `p` when decomposing by slot
/// `slot` (usually `n−1`): the symbol held in that slot.
#[must_use]
pub fn substar_label(p: &Perm, slot: usize) -> u8 {
    p.symbol_at(slot)
}

/// Partitions all nodes of `S_n` into the `n` sub-stars obtained by
/// fixing the last slot. Returns `groups[s]` = nodes whose last slot
/// holds symbol `s`, each sorted by Lehmer rank.
///
/// Materializes all `n!` nodes — small `n` only.
#[must_use]
pub fn substar_partition(star: &StarGraph) -> Vec<Vec<Perm>> {
    let n = star.n();
    let mut groups: Vec<Vec<Perm>> = vec![Vec::new(); n];
    for r in 0..star.node_count() {
        let p = star.node_at(r);
        groups[p.symbol_at(n - 1) as usize].push(p);
    }
    groups
}

/// The *canonical relabelling* of a node within its last-slot
/// sub-star: deleting the last slot and compressing the remaining
/// symbols to `0..n-1` order-preservingly yields a node of `S_{n−1}`.
///
/// # Panics
/// Panics on `n = 1`.
#[must_use]
pub fn project_to_substar(p: &Perm) -> Perm {
    let n = p.len();
    assert!(n >= 2, "S_1 has no sub-stars");
    let fixed = p.symbol_at(n - 1);
    let mut out = Vec::with_capacity(n - 1);
    for i in 0..n - 1 {
        let s = p.symbol_at(i);
        out.push(if s > fixed { s - 1 } else { s });
    }
    Perm::from_slice(&out).expect("projection is a valid permutation")
}

/// Inverse of [`project_to_substar`]: embeds a node `q` of `S_{n−1}`
/// into the sub-star of `S_n` whose last slot holds `fixed`.
///
/// # Panics
/// Panics if `fixed > q.len()` (must be a symbol of `0..n`).
#[must_use]
pub fn lift_from_substar(q: &Perm, fixed: u8) -> Perm {
    let m = q.len();
    assert!(
        (fixed as usize) <= m,
        "fixed symbol {fixed} out of range for S_{}",
        m + 1
    );
    let mut out = Vec::with_capacity(m + 1);
    for i in 0..m {
        let s = q.symbol_at(i);
        out.push(if s >= fixed { s + 1 } else { s });
    }
    out.push(fixed);
    Perm::from_slice(&out).expect("lift is a valid permutation")
}

/// A sub-star of `S_n` identified by its fixed slot suffix: the
/// induced copy of `S_m` on all nodes holding `fixed[i]` in slot
/// `n−1−i` (outermost slot first). `fixed` empty means all of `S_n`;
/// each additional fixed symbol descends one level of the recursive
/// decomposition, so the sub-stars of `S_n` form a tree with
/// branching factor equal to the current order — the processor
/// allocation lattice `sg-sched` carves tenants from.
///
/// Only generators `g_1 … g_{m−1}` act on the first `m` slots, so a
/// route using them never leaves the sub-star, and
/// [`SubStar::project`]/[`SubStar::lift`] are graph isomorphisms onto
/// `S_m` that commute with those generators — the structural fact
/// behind tenant isolation.
///
/// The suffix is stored inline, so building, cloning and descending
/// sub-stars never touches the heap.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SubStar {
    n: usize,
    /// `fixed[i]` = symbol pinned in slot `n−1−i`, for `i < len`; the
    /// rest stays zero, so the derived equality and hash see only the
    /// suffix.
    fixed: [u8; MAX_N],
    len: usize,
}

impl SubStar {
    /// The whole of `S_n` (nothing fixed).
    ///
    /// # Panics
    /// Panics for `n < 2`.
    #[must_use]
    pub fn whole(n: usize) -> Self {
        assert!(n >= 2, "S_n needs n >= 2");
        SubStar {
            n,
            fixed: [0; MAX_N],
            len: 0,
        }
    }

    /// Builds a sub-star from an explicit fixed suffix (`fixed[i]` in
    /// slot `n−1−i`).
    ///
    /// # Panics
    /// Panics if a symbol repeats, is out of range, or the suffix
    /// leaves order `< 1`.
    #[must_use]
    pub fn new(n: usize, fixed: Vec<u8>) -> Self {
        Self::from_suffix(n, &fixed)
    }

    /// [`SubStar::new`] from a borrowed suffix.
    fn from_suffix(n: usize, suffix: &[u8]) -> Self {
        assert!(n >= 2, "S_n needs n >= 2");
        assert!(
            suffix.len() < n,
            "fixing {} slots of S_{n} leaves no star",
            suffix.len()
        );
        let mut seen = 0u32;
        for &s in suffix {
            assert!((s as usize) < n, "symbol {s} out of range for S_{n}");
            assert!(seen >> s & 1 == 0, "symbol {s} fixed twice");
            seen |= 1 << s;
        }
        let mut fixed = [0; MAX_N];
        fixed[..suffix.len()].copy_from_slice(suffix);
        SubStar {
            n,
            fixed,
            len: suffix.len(),
        }
    }

    /// Host star order `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Order `m` of the sub-star (`n −` fixed slots).
    #[must_use]
    pub fn order(&self) -> usize {
        self.n - self.len
    }

    /// Nodes in the sub-star (`order()!`).
    #[must_use]
    pub fn size(&self) -> u64 {
        factorial(self.order())
    }

    /// The fixed suffix, outermost slot first.
    #[must_use]
    pub fn fixed_suffix(&self) -> &[u8] {
        &self.fixed[..self.len]
    }

    /// Symbols still free inside the sub-star, ascending. The local
    /// symbol `v` of the projected `S_m` corresponds to global symbol
    /// `free_symbols()[v]`.
    #[must_use]
    pub fn free_symbols(&self) -> Vec<u8> {
        self.free_array()[..self.order()].to_vec()
    }

    /// Bitmask of the fixed symbols.
    fn pinned(&self) -> u32 {
        self.fixed_suffix().iter().fold(0, |mask, &s| mask | 1 << s)
    }

    /// [`SubStar::free_symbols`] on the stack: the first `order()`
    /// entries.
    fn free_array(&self) -> [u8; MAX_N] {
        let pinned = self.pinned();
        let mut free = [0u8; MAX_N];
        let symbols = (0..self.n as u8).filter(|&s| pinned >> s & 1 == 0);
        for (slot, s) in free.iter_mut().zip(symbols) {
            *slot = s;
        }
        free
    }

    /// Descends one level: fixes slot `order()−1` to `symbol`.
    ///
    /// # Panics
    /// Panics if `symbol` is already fixed or the result would drop
    /// below order 1.
    #[must_use]
    pub fn child(&self, symbol: u8) -> Self {
        assert!(self.order() >= 2, "an S_1 sub-star has no children");
        let mut suffix = self.fixed;
        suffix[self.len] = symbol;
        Self::from_suffix(self.n, &suffix[..=self.len])
    }

    /// All `order()` children (one per free symbol, ascending) — the
    /// canonical split of the allocation tree.
    #[must_use]
    pub fn children(&self) -> Vec<Self> {
        self.free_array()[..self.order()]
            .iter()
            .map(|&s| self.child(s))
            .collect()
    }

    /// `true` iff `p` is a node of this sub-star.
    ///
    /// # Panics
    /// Panics if `p` is not a permutation of `0..n`.
    #[must_use]
    pub fn contains(&self, p: &Perm) -> bool {
        assert_eq!(p.len(), self.n, "node of the wrong star order");
        self.fixed_suffix()
            .iter()
            .enumerate()
            .all(|(i, &s)| p.symbol_at(self.n - 1 - i) == s)
    }

    /// [`SubStar::contains`] by Lehmer rank.
    #[must_use]
    pub fn contains_rank(&self, r: u64) -> bool {
        self.contains(&unrank(r, self.n).expect("rank in range"))
    }

    /// Embeds a node `q` of the local `S_m` into the host `S_n`:
    /// local symbols are renamed order-preservingly onto
    /// [`SubStar::free_symbols`] and the fixed suffix is appended.
    /// Inverse of [`SubStar::project`]; commutes with generators
    /// `g_1 … g_{m−1}`.
    ///
    /// # Panics
    /// Panics unless `q.len() == order()`.
    #[must_use]
    pub fn lift(&self, q: &Perm) -> Perm {
        let m = self.order();
        assert_eq!(q.len(), m, "local node of the wrong order");
        let free = self.free_array();
        let mut out = [0u8; MAX_N];
        for (slot, &v) in out.iter_mut().zip(q.as_slice()) {
            *slot = free[v as usize];
        }
        for (i, &s) in self.fixed_suffix().iter().enumerate() {
            out[self.n - 1 - i] = s;
        }
        Perm::from_slice(&out[..self.n]).expect("lift is a valid permutation")
    }

    /// Projects a node of this sub-star to the local `S_m` by
    /// deleting the fixed suffix and compressing the free symbols to
    /// `0..m` order-preservingly. Inverse of [`SubStar::lift`].
    ///
    /// # Panics
    /// Panics unless [`SubStar::contains`]`(p)`.
    #[must_use]
    pub fn project(&self, p: &Perm) -> Perm {
        assert!(self.contains(p), "node {p} outside sub-star");
        let m = self.order();
        let pinned = self.pinned();
        let mut out = [0u8; MAX_N];
        for (slot, &s) in out.iter_mut().zip(&p.as_slice()[..m]) {
            // The local symbol is the number of free symbols below `s`.
            *slot = (!pinned & ((1 << s) - 1)).count_ones() as u8;
        }
        Perm::from_slice(&out[..m]).expect("projection is a valid permutation")
    }

    /// [`SubStar::lift`] on Lehmer ranks: local rank in `S_m` → global
    /// rank in `S_n`.
    #[must_use]
    pub fn lift_rank(&self, r: u64) -> u64 {
        rank(&self.lift(&unrank(r, self.order()).expect("rank in range")))
    }

    /// [`SubStar::project`] on Lehmer ranks.
    #[must_use]
    pub fn project_rank(&self, r: u64) -> u64 {
        rank(&self.project(&unrank(r, self.n).expect("rank in range")))
    }

    /// All global node ranks of the sub-star, in local-rank order: one
    /// lexicographic sweep of the local `S_m`, each rank read off the
    /// local node's own Lehmer digits (see [`SubStar::node_rank_iter`]).
    #[must_use]
    pub fn node_ranks(&self) -> Vec<u64> {
        self.node_rank_iter().collect()
    }

    /// [`SubStar::node_ranks`] as an iterator of known length, so a
    /// caller can collect it straight into the container it keeps
    /// (one allocation, no intermediate `Vec`).
    ///
    /// No node is lifted or ranked. Take a local node `q` and the free
    /// symbols `F` in ascending order. Slot `i < m` of `lift(q)` holds
    /// `F[q_i]`, and the slots after it hold `c_i(q)` smaller free
    /// symbols (`q`'s own Lehmer digit) and `F[q_i] − q_i` smaller
    /// fixed ones, while the digits of the fixed slots depend on the
    /// suffix alone. So `rank(lift(q)) = C + Σ_{i<m} (c_i(q) + F[q_i] −
    /// q_i)·(n−1−i)!`, with the constant `C` read off the lift of the
    /// identity.
    pub fn node_rank_iter(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        let (n, m) = (self.n, self.order());
        let free = self.free_array();
        let weight: [u64; MAX_N] =
            std::array::from_fn(|i| if i < m { factorial(n - 1 - i) } else { 0 });
        // F[v] − v: the fixed symbols below the global symbol of local v.
        let fixed_below: [u64; MAX_N] =
            std::array::from_fn(|v| u64::from(free[v]).saturating_sub(v as u64));
        let free_part: u64 = (0..m).map(|i| fixed_below[i] * weight[i]).sum();
        let base = rank(&self.lift(&Perm::identity(m))) - free_part;
        let mut q = Perm::identity(m);
        (0..self.size() as usize).map(move |_| {
            let mut r = base;
            // The symbols after slot `i` are exactly those not yet seen.
            let mut unseen = (1u32 << m) - 1;
            for (i, &v) in q.as_slice().iter().enumerate() {
                let smaller_after = (unseen & ((1 << v) - 1)).count_ones();
                unseen &= !(1 << v);
                r += (u64::from(smaller_after) + fixed_below[usize::from(v)]) * weight[i];
            }
            next_perm(&mut q);
            r
        })
    }

    /// `true` iff this sub-star is `other` or contains it (i.e. our
    /// fixed suffix is a prefix of theirs).
    #[must_use]
    pub fn contains_substar(&self, other: &Self) -> bool {
        self.n == other.n
            && other.len >= self.len
            && other.fixed[..self.len] == *self.fixed_suffix()
    }

    /// `true` iff the two sub-stars share no node. Two fixed-suffix
    /// sub-stars either nest or are disjoint: they overlap exactly
    /// when they agree on the slots both fix.
    ///
    /// # Panics
    /// Panics if the host orders differ.
    #[must_use]
    pub fn is_disjoint(&self, other: &Self) -> bool {
        assert_eq!(self.n, other.n, "sub-stars of different hosts");
        let k = self.len.min(other.len);
        self.fixed[..k] != other.fixed[..k]
    }
}

/// Prints the fields a `Vec` suffix would: `SubStar { n, fixed }`.
impl std::fmt::Debug for SubStar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubStar")
            .field("n", &self.n)
            .field("fixed", &self.fixed_suffix())
            .finish()
    }
}

impl std::fmt::Display for SubStar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S_{}[", self.order())?;
        for (i, s) in self.fixed_suffix().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "]")
    }
}

/// Enumerates every order-`m` sub-star of `S_n` (`n!/m!` of them), in
/// allocation-tree DFS order (children by ascending fixed symbol).
///
/// # Panics
/// Panics unless `1 ≤ m ≤ n` and `n ≥ 2`.
#[must_use]
pub fn substars_of_order(n: usize, m: usize) -> Vec<SubStar> {
    assert!(m >= 1 && m <= n, "order out of range");
    let mut out = Vec::with_capacity((factorial(n) / factorial(m)) as usize);
    descend(SubStar::whole(n), m, &mut out);
    out
}

/// Appends every order-`m` sub-star below `sub` in DFS order.
fn descend(sub: SubStar, m: usize, out: &mut Vec<SubStar>) {
    if sub.order() == m {
        out.push(sub);
        return;
    }
    for &s in &sub.free_array()[..sub.order()] {
        descend(sub.child(s), m, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_sizes() {
        let star = StarGraph::new(5);
        let groups = substar_partition(&star);
        assert_eq!(groups.len(), 5);
        for g in &groups {
            assert_eq!(g.len() as u64, factorial(4));
        }
    }

    #[test]
    fn substars_are_closed_under_small_generators() {
        // Generators g_1..g_{n-2} never leave a sub-star; g_{n-1} always does.
        let star = StarGraph::new(5);
        for r in 0..star.node_count() {
            let p = star.node_at(r);
            let label = substar_label(&p, 4);
            for j in 1..4 {
                assert_eq!(substar_label(&star.apply_generator(&p, j), 4), label);
            }
            assert_ne!(substar_label(&star.apply_generator(&p, 4), 4), label);
        }
    }

    #[test]
    fn projection_roundtrip() {
        let star = StarGraph::new(6);
        for r in (0..star.node_count()).step_by(7) {
            let p = star.node_at(r);
            let fixed = p.symbol_at(5);
            let q = project_to_substar(&p);
            assert_eq!(q.len(), 5);
            assert_eq!(lift_from_substar(&q, fixed), p);
        }
    }

    #[test]
    fn projection_preserves_adjacency() {
        // Within a sub-star, adjacency in S_n matches adjacency of the
        // projections in S_{n-1}.
        let s5 = StarGraph::new(5);
        let s4 = StarGraph::new(4);
        let groups = substar_partition(&s5);
        for group in &groups {
            for p in group.iter().take(12) {
                for j in 1..4 {
                    let q = s5.apply_generator(p, j);
                    assert!(s4.are_adjacent(&project_to_substar(p), &project_to_substar(&q)));
                }
            }
        }
    }

    #[test]
    fn lift_respects_label() {
        let q = Perm::from_slice(&[2, 0, 1]).unwrap();
        for fixed in 0..=3u8 {
            let p = lift_from_substar(&q, fixed);
            assert_eq!(p.len(), 4);
            assert_eq!(p.symbol_at(3), fixed);
            assert_eq!(project_to_substar(&p), q);
        }
    }

    #[test]
    fn substar_single_level_matches_legacy_helpers() {
        // A one-deep SubStar is exactly the project/lift pair above.
        let n = 5;
        for fixed in 0..n as u8 {
            let sub = SubStar::whole(n).child(fixed);
            for r in (0..factorial(n)).step_by(13) {
                let p = unrank(r, n).unwrap();
                if p.symbol_at(n - 1) != fixed {
                    assert!(!sub.contains(&p));
                    continue;
                }
                assert!(sub.contains(&p));
                let q = project_to_substar(&p);
                assert_eq!(sub.project(&p), q);
                assert_eq!(sub.lift(&q), p);
            }
        }
    }

    #[test]
    fn substar_rank_roundtrip_and_sizes() {
        let n = 5;
        for m in 1..=n {
            let subs = substars_of_order(n, m);
            assert_eq!(subs.len() as u64, factorial(n) / factorial(m));
            for sub in subs.iter().take(8) {
                assert_eq!(sub.order(), m);
                assert_eq!(sub.size(), factorial(m));
                for r in 0..sub.size() {
                    let g = sub.lift_rank(r);
                    assert!(sub.contains_rank(g));
                    assert_eq!(sub.project_rank(g), r);
                }
            }
        }
    }

    #[test]
    fn node_ranks_match_lift_of_unrank_for_every_substar() {
        for n in 2..=7usize {
            for m in 1..=n {
                for sub in substars_of_order(n, m) {
                    let expect: Vec<u64> = (0..sub.size())
                        .map(|r| rank(&sub.lift(&unrank(r, m).unwrap())))
                        .collect();
                    assert_eq!(sub.node_ranks(), expect, "{sub} of S_{n}");
                }
            }
        }
    }

    #[test]
    fn substar_partition_covers_host_exactly() {
        // Order-m sub-stars partition the n! nodes.
        let n = 5;
        for m in [2usize, 3] {
            let mut seen = vec![false; factorial(n) as usize];
            for sub in substars_of_order(n, m) {
                for g in sub.node_ranks() {
                    assert!(!seen[g as usize], "rank {g} covered twice");
                    seen[g as usize] = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "partition must cover S_{n}");
        }
    }

    #[test]
    fn substar_disjointness_is_suffix_disagreement() {
        let n = 5;
        let subs = substars_of_order(n, 3);
        for a in &subs {
            for b in &subs {
                let disjoint = a.is_disjoint(b);
                assert_eq!(
                    disjoint,
                    a != b,
                    "equal-order sub-stars nest only trivially"
                );
                // Semantics check on the node sets themselves.
                let bn: std::collections::HashSet<u64> = b.node_ranks().into_iter().collect();
                let overlap = a.node_ranks().iter().any(|g| bn.contains(g));
                assert_eq!(overlap, !disjoint);
            }
        }
        // Nesting: a child is contained, never disjoint.
        let parent = SubStar::whole(n).child(2);
        for kid in parent.children() {
            assert!(parent.contains_substar(&kid));
            assert!(!parent.is_disjoint(&kid));
            assert!(!kid.contains_substar(&parent));
        }
    }

    #[test]
    fn lift_commutes_with_small_generators() {
        // The isolation fact: for g < order, lift(q g) = lift(q) g —
        // sub-star-internal routes stay internal.
        let n = 6;
        let sub = SubStar::new(n, vec![4, 1]);
        let m = sub.order();
        for r in 0..factorial(m) {
            let q = unrank(r, m).unwrap();
            let p = sub.lift(&q);
            for g in 1..m {
                assert_eq!(
                    sub.lift(&q.with_slots_swapped(0, g)),
                    p.with_slots_swapped(0, g),
                    "generator {g} must commute with the lift"
                );
            }
            // The first non-local generator leaves the sub-star.
            assert!(!sub.contains(&p.with_slots_swapped(0, m)));
        }
    }
}
