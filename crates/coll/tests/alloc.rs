//! A schedule stores each block set once. Building the lattice
//! allreduce over `S_6` (the `allreduce-s6` benchmark's schedule:
//! 21 600 sends carrying 1 035 360 slot pairs) allocates its send
//! table and one block list per child sub-star per level, not a list
//! per send; lifting it onto a sub-star allocates the relabeled send
//! table only; and every send that ships one child's block set holds
//! the same list.
//!
//! A counting global allocator (thread-local counters in front of
//! [`System`]) measures each call. The `unsafe` that implementing
//! [`GlobalAlloc`] takes lives in this test binary only; every library
//! crate keeps `#![forbid(unsafe_code)]`.

use sg_coll::{allreduce_lattice, CollSchedule, Send};
use sg_perm::factorial::factorial;
use sg_star::SubStar;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::hint::black_box;
use std::mem::size_of;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are plain thread-local `Cell`s without destructors, so bumping them
// never allocates or re-enters the allocator. A `realloc` goes through
// the trait's default, which calls `alloc` for the new block and so
// counts its full size.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result, and the heap allocations and bytes it requested on
/// this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let calls = ALLOCATIONS.with(Cell::get);
    let bytes = BYTES.with(Cell::get);
    let out = black_box(f());
    (
        out,
        ALLOCATIONS.with(Cell::get) - calls,
        BYTES.with(Cell::get) - bytes,
    )
}

/// The `allreduce-s6` benchmark's star order.
const ORDER: usize = 6;

const KB: u64 = 1 << 10;

/// Bytes of a schedule's sends: what any build or lift must allocate.
fn send_table(s: &CollSchedule) -> u64 {
    (s.total_sends() * size_of::<Send>()) as u64
}

/// The send table (0.86 MB) plus at most 1 MiB for the block lists
/// and the lattice scaffolding (0.30 MB). A list per send would add
/// 16.5 MB; a `concat` that clones its parts, a second send table.
#[test]
fn building_the_allreduce_allocates_no_list_per_send() {
    let (s, _, bytes) = allocations(|| allreduce_lattice(ORDER));
    assert_eq!(s.total_sends(), 21_600);
    let table = send_table(&s);
    assert!(
        bytes < table + 1024 * KB,
        "allreduce_lattice({ORDER}) allocated {bytes} bytes over a {table}-byte send table"
    );
}

/// Allocations per build: each phase's send vector, one block list
/// per child sub-star per level, collected straight from its node
/// ranks (1 236 per half), and one or two per level — 2 532 in all.
/// The sub-star scaffolding itself allocates nothing. A node-rank
/// vector per child and a child vector and block-list family per
/// split sub-star made 7 072; a suffix vector per sub-star, 20 614.
#[test]
fn building_the_allreduce_allocates_nothing_per_sub_star() {
    let (s, calls, _) = allocations(|| allreduce_lattice(ORDER));
    assert_eq!(s.total_sends(), 21_600);
    assert!(
        calls < 2_600,
        "allreduce_lattice({ORDER}) made {calls} allocations"
    );
}

/// A lift allocates the relabeled send table, its phase vectors and
/// the sub-star's node table, and shares every slot list.
#[test]
fn lifting_allocates_the_send_table_only() {
    let s = allreduce_lattice(ORDER);
    let sub = SubStar::new(ORDER + 1, vec![2]);
    let (lifted, calls, bytes) = allocations(|| s.lifted(&sub));
    let table = send_table(&s);
    assert!(calls < 100, "lifting made {calls} allocations");
    assert!(
        bytes < table + 64 * KB,
        "lifting allocated {bytes} bytes over a {table}-byte send table"
    );
    let sends = s.phases().iter().flatten();
    for (a, b) in sends.zip(lifted.phases().iter().flatten()) {
        assert!(
            Arc::ptr_eq(&a.slots, &b.slots),
            "a lifted send copied its list"
        );
    }
}

#[test]
fn sends_of_one_block_set_share_one_list() {
    let s = allreduce_lattice(ORDER);
    // Level `l` splits each order-`l` sub-star into `l` children of
    // order `l − 1`: `m!/(l − 1)!` children, one block set each.
    let children: u64 = (2..=ORDER)
        .map(|l| factorial(ORDER) / factorial(l - 1))
        .sum();
    // Reduce-scatter, then allgather; each half builds its own lists.
    for half in s.phases().chunks(ORDER * (ORDER - 1) / 2) {
        let mut first: HashMap<&[(u64, u64)], &Send> = HashMap::new();
        for send in half.iter().flatten() {
            let other = first.entry(&send.slots).or_insert(send);
            assert!(
                Arc::ptr_eq(&other.slots, &send.slots),
                "sends {} -> {} and {} -> {} ship one block set in two lists",
                other.src,
                other.dst,
                send.src,
                send.dst
            );
        }
        assert_eq!(first.len() as u64, children);
    }
}
