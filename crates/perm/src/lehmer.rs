//! Lehmer-code ranking and unranking of permutations.
//!
//! Graph-scale code (exhaustive dilation sweeps, the SIMD simulator's
//! register files) addresses star-graph nodes by a dense integer id in
//! `0..n!`. We use the classical lexicographic Lehmer rank so that ids
//! are stable, ordered, and independent of any hash state.
//!
//! Both directions run on the stack in straight-line code. Ranking
//! keeps a `u32` bitmask of the symbols not yet seen, so a Lehmer
//! digit is one masked popcount. Unranking reads every digit straight
//! off the rank, each from its own quotient by a factorial (a
//! multiply and shifts, no division), and keeps the symbols not yet
//! placed as a packed ascending list, so placing a digit's symbol is
//! one shift to read it and one splice to close the gap. For
//! `n ≤` [`PACKED_MAX_N`] the list is the 4-bit fields of a `u64` and
//! the decode is one kernel monomorphized per order, whose result
//! [`unrank_packed`] returns as 4-bit fields; [`unrank`] and
//! [`from_lehmer_code`] unpack it. Only `17 ≤ n ≤ 20` keep a `u128`
//! list of 5-bit fields.

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

/// The largest order [`unrank_packed`] decodes: `n` symbols below 16
/// fill the 4-bit fields of a `u64`.
pub const PACKED_MAX_N: usize = 16;

/// The Lehmer digit of a rank's slot of place value `k!`, from two
/// quotients of the rank: `q = rank / k!` and `above = rank / (k + 1)!`,
/// which is `q / (k + 1)`, so the digit is `q mod (k + 1) =
/// q − (k + 1) · above`. Every quotient comes off the rank itself, so
/// the digits do not wait for each other.
#[inline(always)]
fn digit(q: u64, above: u64, k: usize) -> u64 {
    q - (k as u64 + 1) * above
}

/// The decode kernel at order `N ≤` [`PACKED_MAX_N`]: the `rank`-th
/// permutation of length `N` (`rank < N!`, unchecked), field `i`
/// (bits `4i..4i + 4`) holding the symbol in slot `i` and fields from
/// `N` on zero. Slot `i` takes the `digit`-th smallest symbol still
/// unplaced. The unplaced symbols stay in ascending order in the 4-bit
/// fields of one `u64`, so a digit is one shift that reads its symbol
/// and one splice that moves every field above it down a place,
/// whatever the digit's value: no data-dependent loop, hence no branch
/// to mispredict. Symbols `≥ N` sit above the `N − i` fields digit `i`
/// can reach. With `N` a constant the loop unrolls and every
/// factorial reciprocal is an immediate.
#[inline(always)]
fn decode_packed<const N: usize>(rank: u64) -> u64 {
    let mut unplaced: u64 = 0xFEDC_BA98_7654_3210;
    let (mut packed, mut above) = (0, 0);
    for i in 0..N {
        let k = N - 1 - i;
        let q = div_factorial(rank, k);
        let at = 4 * digit(q, above, k) as u32;
        above = q;
        packed |= (unplaced >> at & 0xF) << (4 * i);
        unplaced ^= (unplaced ^ unplaced >> 4) & (u64::MAX << at);
    }
    packed
}

/// [`decode_packed`] unpacked into a [`Perm`], at order `N`.
#[inline(always)]
fn decode_unpacked<const N: usize>(rank: u64) -> Perm {
    let packed = decode_packed::<N>(rank);
    let mut slots = [0u8; MAX_N];
    for (i, slot) in slots[..N].iter_mut().enumerate() {
        *slot = (packed >> (4 * i)) as u8 & 0xF;
    }
    Perm::from_parts(N, slots)
}

/// `$kernel::<N>($rank)` at the runtime order `N = $n`, `1 ≤ n ≤`
/// [`PACKED_MAX_N`]: one jump to the order's monomorphized body.
macro_rules! at_order {
    ($kernel:ident, $rank:expr, $n:expr) => {
        match $n {
            1 => $kernel::<1>($rank),
            2 => $kernel::<2>($rank),
            3 => $kernel::<3>($rank),
            4 => $kernel::<4>($rank),
            5 => $kernel::<5>($rank),
            6 => $kernel::<6>($rank),
            7 => $kernel::<7>($rank),
            8 => $kernel::<8>($rank),
            9 => $kernel::<9>($rank),
            10 => $kernel::<10>($rank),
            11 => $kernel::<11>($rank),
            12 => $kernel::<12>($rank),
            13 => $kernel::<13>($rank),
            14 => $kernel::<14>($rank),
            15 => $kernel::<15>($rank),
            16 => $kernel::<16>($rank),
            n => unreachable!("S_{n} does not fit 4-bit fields"),
        }
    };
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

/// The `rank`-th permutation of length `n` (`rank < n!`, unchecked).
/// Up to [`PACKED_MAX_N`] it unpacks the kernel's fields; the orders
/// above, whose symbols need 5 bits, keep the unplaced list in the
/// 5-bit fields of a `u128` and follow the same steps.
fn decode(rank: u64, n: usize) -> Perm {
    if n <= PACKED_MAX_N {
        return at_order!(decode_unpacked, rank, n);
    }
    let mut slots = [0u8; MAX_N];
    let (mut unplaced, mut above) = (ALL_SYMBOLS, 0);
    for (i, slot) in slots.iter_mut().enumerate().take(n) {
        let k = n - 1 - i;
        let q = div_factorial(rank, k);
        let at = 5 * digit(q, above, k) as u32;
        above = q;
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
    let rank = code
        .iter()
        .enumerate()
        .map(|(i, &c)| u64::from(c) * FACTORIALS[n - 1 - i])
        .sum();
    Ok(decode(rank, n))
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
/// every digit [`unrank`] decodes takes one, and a hardware division
/// costs several times as much.
#[inline]
fn div_factorial(x: u64, k: usize) -> u64 {
    debug_assert!(x < 1 << 62, "{x} is not a rank");
    let (m, l) = FACTORIAL_RECIPROCALS[k];
    ((u128::from(x << 2) * u128::from(m)) >> 64) as u64 >> l
}

/// Checks that `rank` names a permutation of length `n`, for `n` up to
/// `max_n`.
fn check_rank(rank: u64, n: usize, max_n: usize) -> crate::Result<()> {
    if n == 0 || n > max_n {
        return Err(PermError::BadLength(n));
    }
    if rank >= FACTORIALS[n] {
        return Err(PermError::RankOutOfRange { rank, n });
    }
    Ok(())
}

/// Inverse of [`rank`]: the `rank`-th permutation of length `n` in
/// lexicographic order.
///
/// # Errors
/// [`PermError::RankOutOfRange`] if `rank >= n!`;
/// [`PermError::BadLength`] for unsupported `n`.
pub fn unrank(rank: u64, n: usize) -> crate::Result<Perm> {
    check_rank(rank, n, MAX_N)?;
    Ok(decode(rank, n))
}

/// [`unrank`] packed: field `i` (bits `4i..4i + 4`) of the result is
/// the symbol in slot `i`, and the fields from `n` on are 0. The
/// form a caller that works on 4-bit fields wants, with no [`Perm`] in
/// between.
///
/// # Errors
/// [`PermError::RankOutOfRange`] if `rank >= n!`;
/// [`PermError::BadLength`] unless `1 ≤ n ≤` [`PACKED_MAX_N`].
pub fn unrank_packed(rank: u64, n: usize) -> crate::Result<u64> {
    check_rank(rank, n, PACKED_MAX_N)?;
    Ok(at_order!(decode_packed, rank, n))
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

    /// The textbook Lehmer digits of `rank`: digit `i` is
    /// `(rank / (n − 1 − i)!) mod (n − i)`, by plain division.
    fn naive_digits(rank: u64, n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| (rank / factorial(n - 1 - i) % (n - i) as u64) as u8)
            .collect()
    }

    /// The textbook unrank the kernel is held to: slot `i` takes the
    /// `digit`-th unused symbol, removed from a list.
    fn naive_unrank(rank: u64, n: usize) -> Vec<u8> {
        let mut unused: Vec<u8> = (0..n as u8).collect();
        naive_digits(rank, n)
            .into_iter()
            .map(|d| unused.remove(usize::from(d)))
            .collect()
    }

    /// `slots` in 4-bit fields, slot 0 lowest.
    fn pack(slots: &[u8]) -> u64 {
        slots.iter().rev().fold(0, |w, &s| w << 4 | u64::from(s))
    }

    #[test]
    fn decode_matches_the_naive_unrank_exhaustively() {
        // Every rank at n <= 9, packed and unpacked.
        for n in 1..=9usize {
            for r in 0..factorial(n) {
                let want = naive_unrank(r, n);
                assert_eq!(unrank_packed(r, n).unwrap(), pack(&want), "n={n} rank {r}");
                assert_eq!(
                    unrank(r, n).unwrap().as_slice(),
                    &want[..],
                    "n={n} rank {r}"
                );
            }
        }
    }

    #[test]
    fn rank_unrank_roundtrip_exhaustive() {
        for n in 1..=9usize {
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
        // The wide end of both symbol lists: 4-bit fields up to symbol
        // 15, 5-bit ones up to 19, and quotients up to 19!.
        for n in 1..=MAX_N {
            let size = factorial(n);
            for r in [0, 1 % size, size / 2, size - 1] {
                let p = unrank(r, n).unwrap();
                assert_eq!(rank(&p), r, "n={n} rank {r}");
                assert_eq!(from_lehmer_code(&lehmer_code(&p)).unwrap(), p);
            }
            let last: Vec<u8> = (0..n as u8).rev().collect();
            assert_eq!(unrank(size - 1, n).unwrap().as_slice(), &last[..]);
            if n <= PACKED_MAX_N {
                assert_eq!(unrank_packed(size - 1, n), Ok(pack(&last)));
            }
        }
        // The widest packed order, written out: symbol 15 in slot 0.
        let last = factorial(PACKED_MAX_N) - 1;
        assert_eq!(unrank_packed(last, PACKED_MAX_N), Ok(0x0123_4567_89AB_CDEF));
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
        // The packed decode stops where 4-bit fields do.
        assert_eq!(unrank_packed(0, 0), Err(PermError::BadLength(0)));
        let n = PACKED_MAX_N + 1;
        assert_eq!(unrank_packed(0, n), Err(PermError::BadLength(n)));
        assert!(unrank(0, n).is_ok());
        let rank = factorial(6);
        assert_eq!(
            unrank_packed(rank, 6),
            Err(PermError::RankOutOfRange { rank, n: 6 })
        );
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
        fn prop_packed_decode_matches_the_naive_unrank(
            n in 1usize..=PACKED_MAX_N,
            seed in any::<u64>(),
        ) {
            let r = seed % factorial(n);
            prop_assert_eq!(unrank_packed(r, n).unwrap(), pack(&naive_unrank(r, n)));
        }

        #[test]
        fn prop_unrank_and_code_decode_match_the_naive_unrank(
            n in 1usize..=MAX_N,
            seed in any::<u64>(),
        ) {
            let r = seed % factorial(n);
            let want = naive_unrank(r, n);
            prop_assert_eq!(unrank(r, n).unwrap().as_slice(), &want[..]);
            let code = naive_digits(r, n);
            prop_assert_eq!(from_lehmer_code(&code).unwrap().as_slice(), &want[..]);
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
