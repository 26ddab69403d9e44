//! The embedding routes, rebuilt from sg-core's own API.
//!
//! `EmbeddingRouting` (sg-net) and `SubstarEmbedding` (sg-sched) walk
//! the dimension-order path of the mesh embedding with their own
//! kernel, which the simulator's differential suite cannot check: both
//! engines share it, and a changed route that still lands is still a
//! valid run. The oracle here recomputes every route from the paper's
//! pieces as sg-core exposes them: mesh coordinates from the
//! insertion-code decoder `convert_s_d_via_removal`, then, per unit
//! move, the Lemma-3 symbol pair (`plus_swap_symbols` /
//! `minus_swap_symbols`) and its Lemma-2 hops (`transposition_hops`).
//! Both policies must reproduce it generator for generator: on every
//! ordered pair of `S_n` (and of every sub-star of `S_n`) for `n ≤ 5`,
//! and on random pairs up to `n = 9`.

use proptest::prelude::*;
use sg_core::convert::convert_s_d_via_removal;
use sg_core::lemma3::{minus_swap_symbols, plus_swap_symbols};
use sg_core::paths::transposition_hops;
use sg_net::{EmbeddingRouting, RoutingPolicy};
use sg_perm::factorial::factorial;
use sg_perm::lehmer::unrank;
use sg_perm::Perm;
use sg_sched::SubstarEmbedding;
use sg_star::substar::substars_of_order;
use sg_star::SubStar;

/// The dimension-order embedding route `src → dst`, one Lemma-3 unit
/// move at a time, re-deriving the mesh coordinates after every move.
fn oracle_route(src: &Perm, dst: &Perm) -> Vec<u8> {
    let n = src.len();
    let target = convert_s_d_via_removal(dst);
    let mut cur = *src;
    let mut route = Vec::new();
    for k in 1..n {
        loop {
            let at = convert_s_d_via_removal(&cur);
            if at.d(k) == target.d(k) {
                break;
            }
            let plus = at.d(k) < target.d(k);
            let (a, b) = if plus {
                plus_swap_symbols(&cur, k)
            } else {
                minus_swap_symbols(&cur, k)
            }
            .expect("a move toward the target exists");
            let (gens, len) = transposition_hops(&cur, a, b);
            for &g in &gens[..len] {
                route.push(g);
                cur.swap_slots(0, usize::from(g));
            }
            let moved = convert_s_d_via_removal(&cur);
            assert_eq!(moved.d(k), if plus { at.d(k) + 1 } else { at.d(k) - 1 });
        }
    }
    assert_eq!(cur, *dst, "the oracle's walk lands on dst");
    route
}

/// Every sub-star of `S_n` of order at least 2.
fn substars(n: usize) -> Vec<SubStar> {
    (2..=n).flat_map(|m| substars_of_order(n, m)).collect()
}

/// `SubstarEmbedding` on `sub` between the lifts of local ranks `ra`
/// and `rb`, against the oracle on the local pair.
fn check_substar_pair(sub: &SubStar, ra: u64, rb: u64) -> Result<(), String> {
    let m = sub.order();
    let (a, b) = (unrank(ra, m).unwrap(), unrank(rb, m).unwrap());
    let got = SubstarEmbedding::new(sub.clone()).route(&sub.lift(&a), &sub.lift(&b));
    let want = oracle_route(&a, &b);
    if got == want {
        Ok(())
    } else {
        Err(format!("{sub}: {a} -> {b}: {got:?} != oracle {want:?}"))
    }
}

#[test]
fn embedding_routing_matches_the_oracle_on_every_pair() {
    for n in 2..=5usize {
        for ra in 0..factorial(n) {
            let a = unrank(ra, n).unwrap();
            for rb in 0..factorial(n) {
                let b = unrank(rb, n).unwrap();
                assert_eq!(
                    EmbeddingRouting.route(&a, &b),
                    oracle_route(&a, &b),
                    "n={n} {a} -> {b}"
                );
            }
        }
    }
}

#[test]
fn substar_embedding_matches_the_oracle_on_every_pair() {
    for n in 2..=5usize {
        for sub in substars(n) {
            for ra in 0..sub.size() {
                for rb in 0..sub.size() {
                    if let Err(e) = check_substar_pair(&sub, ra, rb) {
                        panic!("{e}");
                    }
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn prop_embedding_routing_matches_the_oracle(
        n in 2usize..=9,
        sa in any::<u64>(),
        sb in any::<u64>(),
    ) {
        let a = unrank(sa % factorial(n), n).unwrap();
        let b = unrank(sb % factorial(n), n).unwrap();
        prop_assert_eq!(EmbeddingRouting.route(&a, &b), oracle_route(&a, &b));
    }

    #[test]
    fn prop_substar_embedding_matches_the_oracle(
        n in 2usize..=9,
        m_seed in any::<u64>(),
        fix in any::<u64>(),
        sa in any::<u64>(),
        sb in any::<u64>(),
    ) {
        // A random sub-star of order 2..=n: the last n − m slots of a
        // random node are its fixed suffix.
        let m = 2 + (m_seed % (n as u64 - 1)) as usize;
        let p = unrank(fix % factorial(n), n).unwrap();
        let sub = SubStar::new(n, (0..n - m).map(|i| p.symbol_at(n - 1 - i)).collect());
        let check = check_substar_pair(&sub, sa % sub.size(), sb % sub.size());
        prop_assert_eq!(check, Ok(()));
    }
}
