//! The permutation kernels on the routing path allocate nothing, a
//! route allocates exactly the `Vec` it returns, and appending a route
//! to a `Vec` with room for it allocates nothing.
//!
//! A counting global allocator (a thread-local counter in front of
//! [`System`]) measures each call. The `unsafe` that implementing
//! [`GlobalAlloc`] takes lives in this test binary only; every library
//! crate keeps `#![forbid(unsafe_code)]`. Order 7 is the `jobs-s7`
//! benchmark network; order 9 is the largest the simulator
//! materializes.

use sg_net::{EmbeddingRouting, GreedyRouting, RoutingPolicy};
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
