//! Broadcast and reduce along the star's dimension spanning tree.
//!
//! Every non-root node `v` has at least one generator that moves it
//! closer to the root (greedy routing terminates); picking the
//! **lowest** such generator everywhere
//! ([`sg_star::distance::improving_generators`]) orients a spanning
//! tree toward the root whose depth equals each node's exact star
//! distance — so the tree is simultaneously a shortest-path tree and
//! a fixed, dimension-structured object (level `d` uses only edges
//! that reduce distance from `d` to `d − 1`).
//!
//! Broadcast descends the tree one level per phase: each phase's
//! sends are parent → child edges into a fixed depth, and since every
//! such edge is a distinct star link, each phase is contention-free —
//! the compiled run finishes in exactly `2·ecc − 1` rounds (ecc
//! phases of 1-hop sends plus ecc − 1 barrier rounds), within a
//! factor 2 of the eccentricity lower bound. Reduce is the mirror
//! image: leaves fold up one level per phase.
//!
//! The naive references flatten everything into one phase: the root
//! sends to (or receives from) all `m! − 1` other PEs directly, which
//! serializes on the root's `m − 1` links and costs at least
//! `(m! − 1)/(m − 1)` rounds — the asymptotic gap the benches
//! measure.

use crate::schedule::{CollSchedule, Send, SlotAction};
use sg_perm::factorial::factorial;
use sg_perm::lehmer::{rank, unrank};
use sg_star::distance::{distance, improving_generators};
use std::sync::Arc;

/// The payload slot broadcast and reduce operate on.
pub const TREE_SLOT: u64 = 0;

/// The one-pair list every rooted send ships, [`TREE_SLOT`] to
/// [`TREE_SLOT`]; each schedule builds it once and its sends share it.
fn tree_slot() -> Arc<[(u64, u64)]> {
    Arc::new([(TREE_SLOT, TREE_SLOT)])
}

/// The lowest-generator-first spanning tree of `S_order` oriented
/// toward `root`.
#[derive(Debug, Clone)]
pub struct SpanningTree {
    order: usize,
    root: u64,
    /// `parent[v]` (the root is its own parent).
    parent: Vec<u64>,
    /// `depth[v]` = exact star distance `v → root`.
    depth: Vec<u32>,
}

impl SpanningTree {
    /// Builds the tree: each non-root node's parent is its neighbor
    /// across the **lowest** distance-reducing generator.
    ///
    /// # Panics
    /// Panics if `root` is not a rank of `S_order`.
    #[must_use]
    pub fn new(order: usize, root: u64) -> Self {
        let nodes = factorial(order);
        assert!(root < nodes, "root {root} outside S_{order}");
        let root_perm = unrank(root, order).expect("root in range");
        let mut parent = Vec::with_capacity(nodes as usize);
        let mut depth = Vec::with_capacity(nodes as usize);
        for r in 0..nodes {
            let p = unrank(r, order).expect("rank in range");
            depth.push(distance(&p, &root_perm));
            if r == root {
                parent.push(r);
            } else {
                let g = improving_generators(&p, &root_perm)[0];
                parent.push(rank(&p.with_slots_swapped(0, g as usize)));
            }
        }
        SpanningTree {
            order,
            root,
            parent,
            depth,
        }
    }

    /// Star order.
    #[must_use]
    pub fn order(&self) -> usize {
        self.order
    }

    /// The root rank.
    #[must_use]
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Parent of `v` (the root maps to itself).
    #[must_use]
    pub fn parent(&self, v: u64) -> u64 {
        self.parent[v as usize]
    }

    /// Depth of `v` = exact star distance `v → root`.
    #[must_use]
    pub fn depth(&self, v: u64) -> u32 {
        self.depth[v as usize]
    }

    /// Tree height = eccentricity of the root (= the graph diameter,
    /// by vertex transitivity).
    #[must_use]
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Nodes at each depth, rank-ascending; `levels()[0] == [root]`.
    #[must_use]
    pub fn levels(&self) -> Vec<Vec<u64>> {
        let mut levels = vec![Vec::new(); self.height() as usize + 1];
        for (v, &d) in self.depth.iter().enumerate() {
            levels[d as usize].push(v as u64);
        }
        levels
    }
}

/// Tree broadcast: one phase per tree level, parents copy
/// [`TREE_SLOT`] to their children. `height()` phases; every phase is
/// contention-free (each parent→child edge is a distinct star link),
/// so the compiled makespan is exactly `2·height − 1`.
#[must_use]
pub fn broadcast_tree(order: usize, root: u64) -> CollSchedule {
    let tree = SpanningTree::new(order, root);
    let slots = tree_slot();
    let phases = tree
        .levels()
        .into_iter()
        .skip(1)
        .map(|level| {
            level
                .into_iter()
                .map(|v| Send {
                    src: tree.parent(v),
                    dst: v,
                    slots: Arc::clone(&slots),
                    action: SlotAction::Copy,
                })
                .collect()
        })
        .collect();
    CollSchedule::new("broadcast/tree", order, phases)
}

/// Naive broadcast: one phase, the root sends [`TREE_SLOT`] to every
/// other PE directly — `m! − 1` packets squeezed through the root's
/// `m − 1` links, so the makespan is at least `(m! − 1)/(m − 1)`.
#[must_use]
pub fn broadcast_naive(order: usize, root: u64) -> CollSchedule {
    let slots = tree_slot();
    let phase = (0..factorial(order))
        .filter(|&v| v != root)
        .map(|v| Send {
            src: root,
            dst: v,
            slots: Arc::clone(&slots),
            action: SlotAction::Copy,
        })
        .collect();
    CollSchedule::new("broadcast/naive", order, vec![phase])
}

/// Tree reduce: the mirror of [`broadcast_tree`] — deepest level
/// first, children fold [`TREE_SLOT`] into their parents with
/// [`SlotAction::Reduce`]. After the last phase the root holds the
/// wrapping sum of all `m!` initial values and every other PE holds
/// nothing.
#[must_use]
pub fn reduce_tree(order: usize, root: u64) -> CollSchedule {
    let tree = SpanningTree::new(order, root);
    let slots = tree_slot();
    let phases = tree
        .levels()
        .into_iter()
        .skip(1)
        .rev()
        .map(|level| {
            level
                .into_iter()
                .map(|v| Send {
                    src: v,
                    dst: tree.parent(v),
                    slots: Arc::clone(&slots),
                    action: SlotAction::Reduce,
                })
                .collect()
        })
        .collect();
    CollSchedule::new("reduce/tree", order, phases)
}

/// Naive reduce: one phase, every PE sends [`TREE_SLOT`] straight to
/// the root, which folds all `m! − 1` arrivals — the root's links
/// serialize exactly as in [`broadcast_naive`].
#[must_use]
pub fn reduce_naive(order: usize, root: u64) -> CollSchedule {
    let slots = tree_slot();
    let phase = (0..factorial(order))
        .filter(|&v| v != root)
        .map(|v| Send {
            src: v,
            dst: root,
            slots: Arc::clone(&slots),
            action: SlotAction::Reduce,
        })
        .collect();
    CollSchedule::new("reduce/naive", order, vec![phase])
}
