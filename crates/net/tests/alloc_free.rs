//! The permutation kernels on the routing path allocate nothing, a
//! route allocates exactly the `Vec` it returns, appending a route to
//! a `Vec` with room for it allocates nothing, and a run's allocations
//! do not grow with its hops: greedy hops read off the carried word,
//! adaptive hop selection and the embedding walk allocate nothing per
//! hop or per packet.
//!
//! A counting global allocator (a thread-local counter in front of
//! [`System`]) measures each call. The `unsafe` that implementing
//! [`GlobalAlloc`] takes lives in this test binary only; every library
//! crate keeps `#![forbid(unsafe_code)]`. Order 7 is the `jobs-s7`
//! benchmark network; order 9 is the largest the simulator
//! materializes.

use sg_net::{
    AdaptiveRouting, EmbeddingRouting, GreedyRouting, Network, RoutingPolicy, TrafficStats,
    Workload,
};
use sg_perm::factorial::factorial;
use sg_perm::lehmer::{rank, unrank};
use sg_perm::Perm;
use sg_star::distance::{distance, improving_mask};
use sg_star::SubStar;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter
// is a plain thread-local `Cell` without a destructor, so bumping it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the heap allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = black_box(f());
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const ORDERS: [usize; 2] = [7, 9];

/// A spread of ranks of `S_n`, both ends included.
fn ranks(n: usize) -> [u64; 5] {
    let size = factorial(n);
    [0, 1, size / 3 + 17, size / 2, size - 1]
}

/// Ordered pairs of distinct nodes of `S_n`.
fn pairs(n: usize) -> Vec<(Perm, Perm)> {
    let nodes: Vec<Perm> = ranks(n).iter().map(|&r| unrank(r, n).unwrap()).collect();
    let mut out = Vec::new();
    for a in &nodes {
        for b in &nodes {
            if a != b {
                out.push((*a, *b));
            }
        }
    }
    out
}

#[test]
fn rank_and_unrank_allocate_nothing() {
    for n in ORDERS {
        for r in ranks(n) {
            let (p, count) = allocations(|| unrank(r, n).unwrap());
            assert_eq!(count, 0, "unrank({r}, {n})");
            let (back, count) = allocations(|| rank(&p));
            assert_eq!(count, 0, "rank({p})");
            assert_eq!(back, r);
        }
    }
}

#[test]
fn distance_and_improving_mask_allocate_nothing() {
    for n in ORDERS {
        for (a, b) in pairs(n) {
            let (d, count) = allocations(|| distance(&a, &b));
            assert_eq!(count, 0, "distance({a}, {b})");
            let (mask, count) = allocations(|| improving_mask(&a.relative_to(&b)));
            assert_eq!(count, 0, "improving_mask({a}, {b})");
            assert!(d > 0 && mask != 0);
        }
    }
}

#[test]
fn greedy_route_allocates_exactly_its_vec() {
    for n in ORDERS {
        for (a, b) in pairs(n) {
            let (route, count) = allocations(|| GreedyRouting.route(&a, &b));
            assert_eq!(count, 1, "GreedyRouting::route({a}, {b})");
            assert_eq!(route.len() as u32, distance(&a, &b));
        }
    }
}

#[test]
fn embedding_route_allocates_exactly_its_vec() {
    for n in ORDERS {
        for (a, b) in pairs(n) {
            let (route, count) = allocations(|| EmbeddingRouting.route(&a, &b));
            assert_eq!(count, 1, "EmbeddingRouting::route({a}, {b})");
            assert!(!route.is_empty());
        }
    }
}

#[test]
fn route_into_spare_capacity_allocates_nothing() {
    let policies: [&dyn RoutingPolicy; 2] = [&GreedyRouting, &EmbeddingRouting];
    for n in ORDERS {
        for policy in policies {
            // Room for every route below, as a run's route slab has
            // once it has grown.
            let mut slab = Vec::with_capacity(1 << 12);
            for (a, b) in pairs(n) {
                let start = slab.len();
                let ((), count) = allocations(|| policy.route_into(&a, &b, &mut slab));
                assert_eq!(count, 0, "{}::route_into({a}, {b})", policy.name());
                assert_eq!(slab[start..], policy.route(&a, &b), "appends its route");
            }
        }
    }
}

#[test]
fn substar_lift_and_project_allocate_nothing() {
    for n in ORDERS {
        let sub = SubStar::new(n, vec![2, 0]);
        for r in ranks(n - 2) {
            let q = unrank(r, n - 2).unwrap();
            let (p, count) = allocations(|| sub.lift(&q));
            assert_eq!(count, 0, "lift({q}) into {sub}");
            let (back, count) = allocations(|| sub.project(&p));
            assert_eq!(count, 0, "project({p}) out of {sub}");
            assert_eq!(back, q);
        }
    }
}

/// Fixed setup allocations of one run: the packet table, the route
/// slab (grown by doubling; empty for greedy packets) and the adaptive
/// side table, the per-run queue and outcome state, and the statistics
/// (about 30 at `S_7`).
const RUN_SETUP: u64 = 64;

/// What a run of `k` packets may allocate: its setup, plus in each
/// executed round (at most `makespan + 1` of them) the growth of the
/// arrival lane the round fills, which starts empty and doubles up to
/// at most `k` flits. A buffer per hop would add one per forwarded
/// flit, a buffer per packet `k`; neither fits.
fn run_allocation_bound(k: usize, stats: &TrafficStats) -> u64 {
    let doublings = u64::from(k.next_power_of_two().trailing_zeros()) + 1;
    RUN_SETUP + (u64::from(stats.makespan) + 1) * doublings
}

/// Runs `k` packets injected at once on `S_7` under `policy` and holds
/// the run's allocations to [`run_allocation_bound`], which its
/// forwarded flits must exceed for the check to mean anything.
fn assert_run_allocates_nothing_per_hop(policy: &dyn RoutingPolicy) {
    let net = Network::new(7);
    for k in [64, 512, 2048] {
        let w = Workload::uniform_pairs(7, k, 5);
        let (stats, count) = allocations(|| net.run(&w, policy));
        assert_eq!(stats.delivered, k as u64, "{}", policy.name());
        let bound = run_allocation_bound(k, &stats);
        assert!(
            count <= bound,
            "{} run of {k} packets made {count} allocations, over {bound} ({} rounds, {} flits)",
            policy.name(),
            stats.makespan,
            stats.forwarded_flits
        );
        assert!(stats.forwarded_flits > bound + k as u64, "vacuous bound");
    }
}

#[test]
fn greedy_runs_allocate_nothing_per_hop() {
    // Every hop is read off the packet's carried word.
    assert_run_allocates_nothing_per_hop(&GreedyRouting);
}

#[test]
fn adaptive_runs_allocate_nothing_per_hop() {
    // Every hop goes through the selector and the carried state.
    assert_run_allocates_nothing_per_hop(&AdaptiveRouting);
}

#[test]
fn embedding_runs_allocate_nothing_per_hop() {
    // Every route goes through the embedding walk.
    assert_run_allocates_nothing_per_hop(&EmbeddingRouting);
}
