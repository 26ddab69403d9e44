//! Lehmer-code ranking and unranking of permutations.
//!
//! Graph-scale code (exhaustive dilation sweeps, the SIMD simulator's
//! register files) addresses star-graph nodes by a dense integer id in
//! `0..n!`. We use the classical lexicographic Lehmer rank so that ids
//! are stable, ordered, and independent of any hash state.
//!
//! Both directions run on the stack: a `u32` bitmask holds the symbols
//! not yet placed (`n ≤ 20`), so a Lehmer digit is one masked popcount
//! and decoding a digit is one select on the mask.

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

/// Decodes `n` Lehmer digits (`digit(i) < n − i`, unchecked) into
/// their permutation: slot `i` takes the `digit(i)`-th smallest symbol
/// still unplaced. The kernel behind [`from_lehmer_code`] and
/// [`unrank`].
fn decode(n: usize, mut digit: impl FnMut(usize) -> usize) -> Perm {
    let mut avail = (1u32 << n) - 1;
    let mut slots = [0u8; MAX_N];
    for (i, slot) in slots.iter_mut().enumerate().take(n) {
        let mut rest = avail;
        for _ in 0..digit(i) {
            rest &= rest - 1;
        }
        let s = rest.trailing_zeros();
        *slot = s as u8;
        avail &= !(1 << s);
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
        let w = FACTORIALS[n - 1 - i];
        let digit = rest / w;
        rest %= w;
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
