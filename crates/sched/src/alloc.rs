//! Sub-star allocation — the processor-allocation lattice.
//!
//! The recursive decomposition of `S_n` into `n` copies of `S_{n−1}`
//! (and so on down) is a tree: each order-`m` node splits into `m`
//! order-`(m−1)` children, one per symbol pinned into slot `m−1`.
//! Allocating an order-`k` sub-star means claiming one tree node such
//! that no ancestor or descendant is claimed — which makes tenant
//! placements **pairwise node-disjoint by construction**. One
//! [`Allocator`] claims nodes under one of three policies
//! ([`AllocPolicy::FirstFit`], [`AllocPolicy::BestFit`],
//! [`AllocPolicy::Buddy`]), which differ only in *which* feasible node
//! they claim, i.e. in how they fragment the machine.
//!
//! The allocation tree materializes only the visited part of the
//! lattice and re-coalesces fully-free siblings on release, so a
//! drained machine always reports a whole free `S_n` again.

use sg_perm::factorial::factorial;
use sg_star::substar::SubStar;

/// Smallest sub-star worth allocating (`S_1` is a single PE with no
/// links; the mesh `D_1` is a point).
pub const MIN_ORDER: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    Free,
    Allocated,
    Split,
}

#[derive(Debug, Clone)]
struct Node {
    sub: SubStar,
    parent: Option<u32>,
    /// Child node ids by ascending fixed symbol; empty unless Split.
    children: Vec<u32>,
    state: NodeState,
}

/// The materialized allocation tree shared by every policy.
#[derive(Debug, Clone)]
struct AllocTree {
    n: usize,
    nodes: Vec<Node>,
    allocated_pes: u64,
}

impl AllocTree {
    fn new(n: usize) -> Self {
        AllocTree {
            n,
            nodes: vec![Node {
                sub: SubStar::whole(n),
                parent: None,
                children: Vec::new(),
                state: NodeState::Free,
            }],
            allocated_pes: 0,
        }
    }

    fn order(&self, id: u32) -> usize {
        self.nodes[id as usize].sub.order()
    }

    /// Splits a free node into its children (ascending fixed symbol).
    fn split(&mut self, id: u32) {
        let node = &self.nodes[id as usize];
        debug_assert_eq!(node.state, NodeState::Free, "only free nodes split");
        debug_assert!(
            node.sub.order() > MIN_ORDER,
            "won't split below S_{MIN_ORDER}"
        );
        let kids = node.sub.children();
        let mut ids = Vec::with_capacity(kids.len());
        for sub in kids {
            ids.push(self.nodes.len() as u32);
            self.nodes.push(Node {
                sub,
                parent: Some(id),
                children: Vec::new(),
                state: NodeState::Free,
            });
        }
        let node = &mut self.nodes[id as usize];
        node.children = ids;
        node.state = NodeState::Split;
    }

    fn mark_allocated(&mut self, id: u32) -> SubStar {
        let node = &mut self.nodes[id as usize];
        debug_assert_eq!(node.state, NodeState::Free, "allocating a non-free node");
        node.state = NodeState::Allocated;
        self.allocated_pes += node.sub.size();
        node.sub.clone()
    }

    /// Splits `id` down to `order`, following the first child at
    /// every level, and allocates the bottom node.
    fn allocate_descending(&mut self, mut id: u32, order: usize) -> SubStar {
        while self.order(id) > order {
            self.split(id);
            id = self.nodes[id as usize].children[0];
        }
        self.mark_allocated(id)
    }

    /// Walks the fixed-symbol path from the root to the node holding
    /// exactly `sub`.
    fn find(&self, sub: &SubStar) -> Option<u32> {
        let mut id = 0u32;
        for &symbol in sub.fixed_suffix() {
            let node = &self.nodes[id as usize];
            id = *node
                .children
                .iter()
                .find(|&&c| self.nodes[c as usize].sub.fixed_suffix().last() == Some(&symbol))?;
        }
        (self.nodes[id as usize].sub == *sub).then_some(id)
    }

    /// Frees an allocated node and coalesces upward while every
    /// sibling is free. Returns the id left Free at the top of the
    /// merge chain plus every node id that ceased to exist (merged
    /// children — relevant to free-list policies).
    fn release(&mut self, id: u32) -> (u32, Vec<u32>) {
        {
            let node = &mut self.nodes[id as usize];
            debug_assert_eq!(
                node.state,
                NodeState::Allocated,
                "releasing a non-allocation"
            );
            node.state = NodeState::Free;
            self.allocated_pes -= node.sub.size();
        }
        let mut top = id;
        let mut dead = Vec::new();
        while let Some(parent) = self.nodes[top as usize].parent {
            let all_free = self.nodes[parent as usize]
                .children
                .iter()
                .all(|&c| self.nodes[c as usize].state == NodeState::Free);
            if !all_free {
                break;
            }
            let kids = std::mem::take(&mut self.nodes[parent as usize].children);
            dead.extend(kids);
            self.nodes[parent as usize].state = NodeState::Free;
            top = parent;
        }
        (top, dead)
    }

    /// Ids of all live nodes in DFS (canonical) order.
    fn dfs(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack = vec![0u32];
        while let Some(id) = stack.pop() {
            out.push(id);
            let node = &self.nodes[id as usize];
            stack.extend(node.children.iter().rev());
        }
        out
    }
}

/// Placement policy: which feasible node of the lattice an
/// [`Allocator`] claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocPolicy {
    /// First fit: claims the **canonically first** (leftmost in tree
    /// DFS order) feasible order-`k` sub-star, splitting free ancestors
    /// along the way — spatially greedy, oblivious to block sizes.
    FirstFit,
    /// Best fit by fragmentation score: claims inside the **smallest**
    /// free block that still fits, preferring blocks whose siblings are
    /// already busy (packing nearly-full parents tight), ties broken
    /// canonically. Large free blocks are split only when nothing
    /// smaller fits.
    BestFit,
    /// Buddy-style splitter: per-order LIFO free lists. An exact-order
    /// block is reused if one exists (most recently split or freed
    /// first — temporal locality); otherwise the smallest larger block
    /// is popped and split level by level, siblings going onto the
    /// free lists. Releases coalesce merged siblings back off the
    /// lists, so a drained machine is one whole free `S_n` again.
    Buddy,
}

impl AllocPolicy {
    /// All shipped policies.
    pub const ALL: [AllocPolicy; 3] = [
        AllocPolicy::FirstFit,
        AllocPolicy::BestFit,
        AllocPolicy::Buddy,
    ];

    /// Table label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AllocPolicy::FirstFit => "first-fit",
            AllocPolicy::BestFit => "best-fit",
            AllocPolicy::Buddy => "buddy",
        }
    }

    /// Builds the allocator over an empty `S_n`.
    #[must_use]
    pub fn build(self, n: usize) -> Box<Allocator> {
        Box::new(Allocator::new(self, n))
    }
}

/// The sub-star allocator: the allocation tree and the
/// [`AllocPolicy`] that claims its nodes. Every policy guarantees
/// disjointness and exact capacity accounting; they differ in
/// fragmentation behavior.
///
/// A clone is an independent copy in the current state — the shadow
/// the EASY backfill reservation probes ("when could the blocked head
/// start if running jobs released on schedule?") without touching the
/// live tree. A failed `allocate` never mutates the allocator, so
/// probing the clone has no side effect on the real machine state.
#[derive(Debug, Clone)]
pub struct Allocator {
    policy: AllocPolicy,
    tree: AllocTree,
    /// Buddy free lists: `free[m]` = free node ids of order `m`, LIFO.
    /// Empty under the other policies.
    free: Vec<Vec<u32>>,
}

impl Allocator {
    /// An allocator over an empty `S_n`.
    #[must_use]
    pub fn new(policy: AllocPolicy, n: usize) -> Self {
        let mut free = Vec::new();
        if policy == AllocPolicy::Buddy {
            free = vec![Vec::new(); n + 1];
            free[n].push(0);
        }
        Allocator {
            policy,
            tree: AllocTree::new(n),
            free,
        }
    }

    /// Host star order.
    #[must_use]
    pub fn n(&self) -> usize {
        self.tree.n
    }

    /// Claims a free order-`order` sub-star, or `None` if the current
    /// allocation state cannot fit one.
    ///
    /// # Panics
    /// Panics if `order` is below [`MIN_ORDER`] or above `n`.
    pub fn allocate(&mut self, order: usize) -> Option<SubStar> {
        let n = self.tree.n;
        assert!(
            (MIN_ORDER..=n).contains(&order),
            "allocation order {order} outside {MIN_ORDER}..={n}"
        );
        match self.policy {
            AllocPolicy::FirstFit => self.first_fit(0, order),
            AllocPolicy::BestFit => self.best_fit(order),
            AllocPolicy::Buddy => self.buddy(order),
        }
    }

    /// Returns a previously allocated sub-star to the pool,
    /// re-coalescing fully free blocks.
    ///
    /// # Panics
    /// Panics if `sub` is not a live allocation of this allocator.
    pub fn release(&mut self, sub: &SubStar) {
        let id = self.tree.find(sub).expect("release of unknown sub-star");
        let (top, dead) = self.tree.release(id);
        if self.policy == AllocPolicy::Buddy {
            if !dead.is_empty() {
                for list in &mut self.free {
                    list.retain(|c| !dead.contains(c));
                }
            }
            self.free[self.tree.order(top)].push(top);
        }
    }

    /// PEs not held by any allocation (free or unreachable fragments
    /// of split nodes — split nodes themselves hold nothing).
    #[must_use]
    pub fn free_pes(&self) -> u64 {
        factorial(self.tree.n) - self.tree.allocated_pes
    }

    /// Order of the largest sub-star an `allocate` could currently
    /// claim (0 when the machine is completely full).
    #[must_use]
    pub fn largest_free_order(&self) -> usize {
        self.in_state(NodeState::Free)
            .map(|id| self.tree.order(id))
            .max()
            .unwrap_or(0)
    }

    /// Every live allocation, in canonical tree order.
    #[must_use]
    pub fn live_allocations(&self) -> Vec<SubStar> {
        self.in_state(NodeState::Allocated)
            .map(|id| self.tree.nodes[id as usize].sub.clone())
            .collect()
    }

    /// Ids of the live nodes in `state`, in DFS (canonical) order.
    fn in_state(&self, state: NodeState) -> impl Iterator<Item = u32> + '_ {
        self.tree
            .dfs()
            .into_iter()
            .filter(move |&id| self.tree.nodes[id as usize].state == state)
    }

    /// The first fit below node `id`.
    fn first_fit(&mut self, id: u32, order: usize) -> Option<SubStar> {
        match self.tree.nodes[id as usize].state {
            NodeState::Allocated => None,
            NodeState::Free => {
                (self.tree.order(id) >= order).then(|| self.tree.allocate_descending(id, order))
            }
            NodeState::Split => {
                if self.tree.order(id) <= order {
                    return None; // children are strictly smaller
                }
                let kids = self.tree.nodes[id as usize].children.clone();
                kids.into_iter().find_map(|c| self.first_fit(c, order))
            }
        }
    }

    fn best_fit(&mut self, order: usize) -> Option<SubStar> {
        // Scan the live tree for free nodes that fit; score =
        // (block order, free siblings, DFS position), minimized.
        let tree = &self.tree;
        let mut best: Option<(usize, usize, usize, u32)> = None;
        for (pos, id) in tree.dfs().into_iter().enumerate() {
            let node = &tree.nodes[id as usize];
            if node.state != NodeState::Free || node.sub.order() < order {
                continue;
            }
            let free_siblings = match node.parent {
                None => 0,
                Some(p) => tree.nodes[p as usize]
                    .children
                    .iter()
                    .filter(|&&c| c != id && tree.nodes[c as usize].state == NodeState::Free)
                    .count(),
            };
            let score = (node.sub.order(), free_siblings, pos, id);
            if best.is_none_or(|b| score < b) {
                best = Some(score);
            }
        }
        best.map(|(_, _, _, id)| self.tree.allocate_descending(id, order))
    }

    fn buddy(&mut self, order: usize) -> Option<SubStar> {
        let source = (order..=self.tree.n).find(|&m| !self.free[m].is_empty())?;
        let mut id = self.free[source].pop().expect("non-empty list");
        while self.tree.order(id) > order {
            self.tree.split(id);
            let kids = self.tree.nodes[id as usize].children.clone();
            // Push the non-taken siblings in reverse so the
            // ascending-symbol sibling pops first later.
            for &c in kids[1..].iter().rev() {
                self.free[self.tree.order(c)].push(c);
            }
            id = kids[0];
        }
        Some(self.tree.mark_allocated(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_check(alloc: &mut Allocator) {
        // Fill with order-2 tenants to exhaustion, then free all.
        let n = alloc.n();
        let mut live = Vec::new();
        while let Some(sub) = alloc.allocate(2) {
            live.push(sub);
        }
        assert_eq!(
            live.len() as u64,
            factorial(n) / 2,
            "perfect packing at order 2"
        );
        assert_eq!(alloc.free_pes(), 0);
        assert_eq!(alloc.largest_free_order(), 0);
        for a in &live {
            for b in &live {
                if a != b {
                    assert!(a.is_disjoint(b), "{a} overlaps {b}");
                }
            }
        }
        for sub in live {
            alloc.release(&sub);
        }
        assert_eq!(alloc.free_pes(), factorial(n));
        assert_eq!(
            alloc.largest_free_order(),
            n,
            "full coalescing back to S_{n}"
        );
        assert!(alloc.live_allocations().is_empty());
    }

    #[test]
    fn all_policies_pack_and_drain() {
        for policy in AllocPolicy::ALL {
            let mut alloc = policy.build(4);
            drain_check(alloc.as_mut());
        }
    }

    #[test]
    fn first_fit_takes_leftmost() {
        let mut ff = Allocator::new(AllocPolicy::FirstFit, 4);
        let a = ff.allocate(3).unwrap();
        let b = ff.allocate(3).unwrap();
        assert_eq!(a.fixed_suffix(), &[0]);
        assert_eq!(b.fixed_suffix(), &[1]);
    }

    #[test]
    fn best_fit_prefers_tight_blocks() {
        // Carve an order-2 hole inside substar [0], then free an
        // order-3 block elsewhere: a new order-2 request must land in
        // the partly-used [0] rather than split the pristine [1].
        let mut bf = Allocator::new(AllocPolicy::BestFit, 4);
        let small = bf.allocate(2).unwrap(); // inside [0]
        assert_eq!(small.fixed_suffix(), &[0, 1]);
        let next = bf.allocate(2).unwrap();
        assert_eq!(
            next.fixed_suffix(),
            &[0, 2],
            "best fit packs the already-split parent first"
        );
        // First-fit would do the same here; the difference shows when
        // an exact block exists further right.
        let mut bf = Allocator::new(AllocPolicy::BestFit, 4);
        let s3 = bf.allocate(3).unwrap(); // [0]
        let s2 = bf.allocate(2).unwrap(); // inside [1]
        bf.release(&s3); // [0] free again (order 3), [1] split with a free order-2 hole...
        let hole = bf.allocate(2).unwrap();
        assert_eq!(
            hole.fixed_suffix()[0],
            s2.fixed_suffix()[0],
            "best fit reuses the order-2 hole instead of splitting the free order-3 block"
        );
    }

    #[test]
    fn buddy_reuses_most_recent_split() {
        let mut bd = Allocator::new(AllocPolicy::Buddy, 5);
        let a = bd.allocate(3).unwrap();
        // The split left order-4 and order-3 siblings on the lists;
        // an exact order-3 request reuses the freshest sibling.
        let b = bd.allocate(3).unwrap();
        assert!(a.is_disjoint(&b));
        assert_eq!(
            a.fixed_suffix()[0],
            b.fixed_suffix()[0],
            "buddy stays inside the block it just split"
        );
        bd.release(&b);
        let c = bd.allocate(3).unwrap();
        assert_eq!(b, c, "LIFO: the block just freed is reused first");
        bd.release(&a);
        bd.release(&c);
        assert_eq!(bd.largest_free_order(), 5);
    }

    #[test]
    fn clone_is_independent() {
        for policy in AllocPolicy::ALL {
            let mut alloc = policy.build(4);
            let held = alloc.allocate(3).unwrap();
            let mut ghost = alloc.clone();
            // Probing the ghost (release + allocate) leaves the real
            // allocator untouched.
            ghost.release(&held);
            assert!(ghost.allocate(4).is_some(), "{}", policy.name());
            assert!(alloc.allocate(4).is_none(), "{}", policy.name());
            assert_eq!(alloc.live_allocations(), vec![held]);
        }
    }

    #[test]
    fn allocation_fails_only_when_nothing_fits() {
        let mut ff = Allocator::new(AllocPolicy::FirstFit, 4);
        let whole = ff.allocate(4).unwrap();
        assert_eq!(whole.order(), 4);
        assert!(ff.allocate(2).is_none(), "machine is fully claimed");
        ff.release(&whole);
        assert!(ff.allocate(2).is_some());
    }
}
