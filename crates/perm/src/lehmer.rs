//! Lehmer-code ranking and unranking of permutations.
//!
//! Graph-scale code (exhaustive dilation sweeps, the SIMD simulator's
//! register files) addresses star-graph nodes by a dense integer id in
//! `0..n!`. We use the classical lexicographic Lehmer rank so that ids
//! are stable, ordered, and independent of any hash state.
//!
//! Both directions run on the stack in straight-line code. Ranking
//! keeps a `u32` bitmask of the symbols not yet seen, so a Lehmer
//! digit is one masked popcount. Unranking keeps the symbols not yet
//! placed as a packed ascending list, so decoding a digit is one shift
//! to read its symbol and one splice to close the gap.

use crate::factorial::FACTORIALS;
use crate::{Perm, PermError, MAX_N};

/// Lehmer code of `p` on the stack: `digits[i]` counts the symbols
/// *after* slot `i` that are smaller than `slots[i]`; entries from
/// `n` on are 0. The kernel behind [`lehmer_code`] and [`rank`].
fn lehmer_digits(p: &Perm) -> [u8; MAX_N] {
    let mut digits = [0u8; MAX_N];
    // The symbols after slot `i` are exactly those not yet seen.
    let mut unseen = (1u32 << p.len()) - 1;
    for (d, &s) in digits.iter_mut().zip(p.as_slice()) {
        *d = (unseen & ((1 << s) - 1)).count_ones() as u8;
        unseen &= !(1 << s);
    }
    digits
}

/// Lehmer code of a permutation: `code[i]` counts symbols *after*
/// slot `i` that are smaller than `slots[i]`. `code[n-1]` is always 0.
#[must_use]
pub fn lehmer_code(p: &Perm) -> Vec<u8> {
    lehmer_digits(p)[..p.len()].to_vec()
}

/// Symbols `0..MAX_N` in ascending order, 5 bits each: field `k`
/// (bits `5k..5k + 5`) holds `k`. `MAX_N = 20` fields fill 100 bits.
const ALL_SYMBOLS: u128 = {
    let mut list = 0u128;
    let mut k = 0;
    while k < MAX_N {
        list |= (k as u128) << (5 * k);
        k += 1;
    }
    list
};

/// Decodes `n` Lehmer digits (`digit(i) < n − i`, unchecked) into
/// their permutation: slot `i` takes the `digit(i)`-th smallest symbol
/// still unplaced. The unplaced symbols stay in ascending order as the
/// fields of one `u128`, so a digit is one shift that reads its
/// symbol and one splice that moves every field above it down a
/// place, whatever the digit's value: no data-dependent loop, hence
/// no branch to mispredict. Symbols `≥ n` sit above the `n − i` fields
/// digit `i` can reach. The kernel behind [`from_lehmer_code`] and
/// [`unrank`].
fn decode(n: usize, mut digit: impl FnMut(usize) -> usize) -> Perm {
    let mut unplaced = ALL_SYMBOLS;
    let mut slots = [0u8; MAX_N];
    for (i, slot) in slots.iter_mut().enumerate().take(n) {
        let at = 5 * digit(i) as u32;
        *slot = (unplaced >> at) as u8 & 0x1f;
        unplaced ^= (unplaced ^ (unplaced >> 5)) & (u128::MAX << at);
    }
    Perm::from_parts(n, slots)
}

/// Reconstructs a permutation from its Lehmer code.
///
/// # Errors
/// [`PermError::BadLength`] for unsupported lengths;
/// [`PermError::SymbolOutOfRange`] if `code[i] >= n - i`.
pub fn from_lehmer_code(code: &[u8]) -> crate::Result<Perm> {
    let n = code.len();
    if n == 0 || n > MAX_N {
        return Err(PermError::BadLength(n));
    }
    if let Some((_, &c)) = code.iter().enumerate().find(|&(i, &c)| c as usize >= n - i) {
        return Err(PermError::SymbolOutOfRange { symbol: c, n });
    }
    Ok(decode(n, |i| code[i] as usize))
}

/// Lexicographic rank of `p` among all permutations of its length:
/// `rank = Σ code[i] · (n-1-i)!`.
#[must_use]
pub fn rank(p: &Perm) -> u64 {
    let n = p.len();
    let digits = lehmer_digits(p);
    (0..n)
        .map(|i| u64::from(digits[i]) * FACTORIALS[n - 1 - i])
        .sum()
}

/// `(m, l)` per `k ≤ MAX_N` with `x / k! = ⌊4x · m / 2^64⌋ >> l` for
/// every `x < 2^62` (Granlund–Montgomery: `l = ⌈log₂ k!⌉` and
/// `m = ⌈2^(62+l) / k!⌉ ≤ 2^63`). Every rank is below `20! < 2^62`.
const FACTORIAL_RECIPROCALS: [(u64, u32); MAX_N + 1] = {
    let mut table = [(0, 0); MAX_N + 1];
    let mut k = 0;
    while k <= MAX_N {
        let d = FACTORIALS[k] as u128;
        let l = u128::BITS - (d - 1).leading_zeros();
        table[k] = ((1u128 << (62 + l)).div_ceil(d) as u64, l);
        k += 1;
    }
    table
};

/// `x / k!` for `x < 2^62` as one widening multiply and two shifts:
/// the quotient chain is the critical path of [`unrank`], and a
/// hardware division costs several times as much.
#[inline]
fn div_factorial(x: u64, k: usize) -> u64 {
    debug_assert!(x < 1 << 62, "{x} is not a rank");
    let (m, l) = FACTORIAL_RECIPROCALS[k];
    ((u128::from(x << 2) * u128::from(m)) >> 64) as u64 >> l
}

/// Inverse of [`rank`]: the `rank`-th permutation of length `n` in
/// lexicographic order.
///
/// # Errors
/// [`PermError::RankOutOfRange`] if `rank >= n!`;
/// [`PermError::BadLength`] for unsupported `n`.
pub fn unrank(rank: u64, n: usize) -> crate::Result<Perm> {
    if n == 0 || n > MAX_N {
        return Err(PermError::BadLength(n));
    }
    if rank >= FACTORIALS[n] {
        return Err(PermError::RankOutOfRange { rank, n });
    }
    let mut rest = rank;
    let p = decode(n, |i| {
        let k = n - 1 - i;
        let digit = div_factorial(rest, k);
        rest -= digit * FACTORIALS[k];
        digit as usize
    });
    debug_assert_eq!(rest, 0);
    Ok(p)
}

/// Advances `p` to its lexicographic successor in place, returning
/// `false` (and resetting to the identity) when `p` was the last
/// permutation. This is the classical "next permutation" step and
/// lets callers sweep `S_n` without `n!` unrank calls.
pub fn next_perm(p: &mut Perm) -> bool {
    let n = p.len();
    let s = p.as_slice();
    // Find the longest non-increasing suffix.
    let mut i = n - 1;
    while i > 0 && s[i - 1] >= s[i] {
        i -= 1;
    }
    if i == 0 {
        *p = Perm::identity(n);
        return false;
    }
    // Pivot is s[i-1]; find rightmost element greater than it.
    let pivot = s[i - 1];
    let mut j = n - 1;
    while p.as_slice()[j] <= pivot {
        j -= 1;
    }
    p.swap_slots(i - 1, j);
    // Reverse the suffix.
    let (mut lo, mut hi) = (i, n - 1);
    while lo < hi {
        p.swap_slots(lo, hi);
        lo += 1;
        hi -= 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factorial::factorial;
    use proptest::prelude::*;

    #[test]
    fn rank_unrank_roundtrip_exhaustive() {
        for n in 1..=8usize {
            for r in 0..factorial(n) {
                let p = unrank(r, n).unwrap();
                assert_eq!(rank(&p), r);
            }
        }
    }

    #[test]
    fn rank_is_lexicographic() {
        let n = 5;
        let mut prev = unrank(0, n).unwrap();
        for r in 1..factorial(n) {
            let p = unrank(r, n).unwrap();
            assert!(prev.as_slice() < p.as_slice());
            prev = p;
        }
    }

    #[test]
    fn identity_has_rank_zero_and_reverse_is_last() {
        for n in 1..=8usize {
            assert_eq!(rank(&Perm::identity(n)), 0);
            let rev: Vec<u8> = (0..n as u8).rev().collect();
            let p = Perm::from_slice(&rev).unwrap();
            assert_eq!(rank(&p), factorial(n) - 1);
        }
    }

    #[test]
    fn lehmer_code_roundtrip() {
        let p = Perm::from_slice(&[3, 1, 4, 2, 0]).unwrap();
        let code = lehmer_code(&p);
        assert_eq!(from_lehmer_code(&code).unwrap(), p);
        // Hand-checked: 3 has 3 smaller after it; 1 has 1; 4 has 2; 2 has 1; 0 has 0.
        assert_eq!(code, vec![3, 1, 2, 1, 0]);
    }

    #[test]
    fn lehmer_digits_match_the_definition_exhaustively() {
        // The popcount kernel against the quadratic definition.
        for n in 1..=7usize {
            for r in 0..factorial(n) {
                let p = unrank(r, n).unwrap();
                let s = p.as_slice();
                let digits = lehmer_digits(&p);
                for i in 0..n {
                    let smaller_after = s[i + 1..].iter().filter(|&&x| x < s[i]).count();
                    assert_eq!(digits[i] as usize, smaller_after, "{p} slot {i}");
                }
                assert!(digits[n..].iter().all(|&d| d == 0));
            }
        }
    }

    #[test]
    fn unrank_matches_a_next_perm_sweep_of_s9() {
        // Every rank of S_9 in order against the lexicographic
        // successor chain: the decode kernel at the largest order the
        // simulator materializes, with no rank left out.
        let n = 9;
        let mut p = Perm::identity(n);
        for r in 0..factorial(n) {
            assert_eq!(unrank(r, n).unwrap(), p, "rank {r}");
            next_perm(&mut p);
        }
        assert!(p.is_identity(), "the sweep wrapped around");
    }

    #[test]
    fn from_lehmer_code_matches_the_quadratic_definition() {
        // Every code of length n ≤ 7 (digit i ranges over 0..n−i):
        // slot i takes the code[i]-th smallest symbol still unplaced,
        // removed from an explicit list.
        for n in 1..=7usize {
            let mut code = vec![0u8; n];
            loop {
                let mut unplaced: Vec<u8> = (0..n as u8).collect();
                let expect: Vec<u8> = code.iter().map(|&c| unplaced.remove(c as usize)).collect();
                assert_eq!(from_lehmer_code(&code).unwrap().as_slice(), &expect[..]);
                // Next code in mixed radix, last digit fastest.
                let Some(i) = (0..n).rev().find(|&i| usize::from(code[i]) + 1 < n - i) else {
                    break;
                };
                code[i] += 1;
                code[i + 1..].fill(0);
            }
        }
    }

    #[test]
    fn extreme_ranks_round_trip_at_every_order() {
        // The wide end of the one kernel: fields up to symbol 19 and
        // quotients up to 19!.
        for n in 1..=MAX_N {
            let size = factorial(n);
            for r in [0, 1 % size, size / 2, size - 1] {
                let p = unrank(r, n).unwrap();
                assert_eq!(rank(&p), r, "n={n} rank {r}");
                assert_eq!(from_lehmer_code(&lehmer_code(&p)).unwrap(), p);
            }
            let last: Vec<u8> = (0..n as u8).rev().collect();
            assert_eq!(unrank(size - 1, n).unwrap().as_slice(), &last[..]);
        }
    }

    #[test]
    fn reciprocal_division_is_exact() {
        // Around every multiple boundary the quotient chain meets, and
        // at the top of the range the reciprocals are proved for.
        for k in 0..=MAX_N {
            let d = factorial(k);
            let mut xs = vec![0, 1, (1 << 62) - 1, (1 << 62) - 2];
            for q in [1u64, 2, 3, 7, 19, 20, 1 << 20, (1 << 62) / d] {
                let x = q.saturating_mul(d);
                xs.extend([x.wrapping_sub(1), x, x.saturating_add(1)]);
            }
            for x in xs.into_iter().filter(|&x| x < 1 << 62) {
                assert_eq!(div_factorial(x, k), x / d, "{x} / {k}!");
            }
        }
    }

    #[test]
    fn next_perm_enumerates_everything_in_order() {
        let n = 6;
        let mut p = Perm::identity(n);
        let mut count = 1u64;
        while next_perm(&mut p) {
            assert_eq!(rank(&p), count);
            count += 1;
        }
        assert_eq!(count, factorial(n));
        assert!(p.is_identity(), "wraps back to identity");
    }

    #[test]
    fn unrank_rejects_out_of_range() {
        assert!(unrank(719, 6).is_ok());
        assert!(unrank(720, 6).is_err()); // 6! = 720 is the first invalid rank
        assert!(unrank(factorial(6), 6).is_err());
        assert!(unrank(0, 0).is_err());
        assert!(unrank(0, MAX_N + 1).is_err());
    }

    #[test]
    fn from_lehmer_rejects_bad_codes() {
        assert!(from_lehmer_code(&[3, 0, 0]).is_err()); // code[0] must be < 3
        assert!(from_lehmer_code(&[]).is_err());
    }

    proptest! {
        #[test]
        fn prop_rank_unrank_roundtrip(n in 1usize..=MAX_N, seed in any::<u64>()) {
            let r = seed % factorial(n);
            let p = unrank(r, n).unwrap();
            prop_assert_eq!(rank(&p), r);
        }

        #[test]
        fn prop_lehmer_roundtrip(n in 1usize..=MAX_N, seed in any::<u64>()) {
            let p = unrank(seed % factorial(n), n).unwrap();
            let code = lehmer_code(&p);
            prop_assert_eq!(from_lehmer_code(&code).unwrap(), p);
        }

        #[test]
        fn prop_next_perm_matches_unrank(n in 2usize..=9, seed in any::<u64>()) {
            let r = seed % (factorial(n) - 1);
            let mut p = unrank(r, n).unwrap();
            prop_assert!(next_perm(&mut p));
            prop_assert_eq!(rank(&p), r + 1);
        }
    }
}
