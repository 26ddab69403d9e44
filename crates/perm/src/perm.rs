//! The [`Perm`] value type.

use core::fmt;

/// Maximum supported permutation length.
///
/// `20! = 2 432 902 008 176 640 000 < 2^64`, while `21!` overflows
/// `u64`; since graph-level code addresses star-graph nodes by their
/// Lehmer rank in a `u64`, `n = 20` is the natural ceiling. A star
/// graph that large has 2.4 × 10¹⁸ nodes — far beyond anything that
/// can be materialized — so the cap is not a practical restriction.
pub const MAX_N: usize = 20;

/// Errors produced when constructing a [`Perm`] from untrusted input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PermError {
    /// The requested length is 0 or exceeds [`MAX_N`].
    BadLength(usize),
    /// An entry is out of range `0..n`.
    SymbolOutOfRange {
        /// Offending symbol value.
        symbol: u8,
        /// Permutation length.
        n: usize,
    },
    /// A symbol appears more than once.
    DuplicateSymbol(u8),
    /// A rank passed to `unrank` is `>= n!`.
    RankOutOfRange {
        /// Offending rank.
        rank: u64,
        /// Permutation length.
        n: usize,
    },
}

impl fmt::Display for PermError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PermError::BadLength(n) => {
                write!(
                    f,
                    "permutation length {n} not supported (1..={MAX_N}, packed 1..={})",
                    crate::lehmer::PACKED_MAX_N
                )
            }
            PermError::SymbolOutOfRange { symbol, n } => {
                write!(f, "symbol {symbol} out of range for length-{n} permutation")
            }
            PermError::DuplicateSymbol(s) => write!(f, "symbol {s} appears more than once"),
            PermError::RankOutOfRange { rank, n } => {
                write!(f, "rank {rank} >= {n}! for length-{n} permutation")
            }
        }
    }
}

impl std::error::Error for PermError {}

/// A permutation of the symbols `0..n`, stored inline (no heap).
///
/// `slots[i]` holds the symbol currently in slot `i`. Only the first
/// `len` entries are meaningful; the tail is zero so that derived
/// `Eq`/`Ord`/`Hash` are consistent.
///
/// ```
/// use sg_perm::Perm;
/// let p = Perm::from_slice(&[2, 0, 1]).unwrap();
/// assert_eq!(p.symbol_at(0), 2);
/// assert_eq!(p.slot_of(2), 0);
/// assert_eq!(p.inverse().as_slice(), &[1, 2, 0]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Perm {
    len: u8,
    slots: [u8; MAX_N],
}

impl Perm {
    /// The identity permutation `(0 1 … n-1)` in slot order.
    ///
    /// # Panics
    /// Panics if `n` is 0 or exceeds [`MAX_N`]; use [`Perm::try_identity`]
    /// for a fallible variant.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Self::try_identity(n).expect("identity: n out of range")
    }

    /// Fallible [`Perm::identity`].
    pub fn try_identity(n: usize) -> crate::Result<Self> {
        if n == 0 || n > MAX_N {
            return Err(PermError::BadLength(n));
        }
        let mut slots = [0u8; MAX_N];
        for (i, s) in slots.iter_mut().enumerate().take(n) {
            *s = i as u8;
        }
        Ok(Perm {
            len: n as u8,
            slots,
        })
    }

    /// Builds a permutation from an explicit slot assignment,
    /// validating length, range and distinctness.
    pub fn from_slice(v: &[u8]) -> crate::Result<Self> {
        let n = v.len();
        if n == 0 || n > MAX_N {
            return Err(PermError::BadLength(n));
        }
        let mut seen = [false; MAX_N];
        let mut slots = [0u8; MAX_N];
        for (i, &s) in v.iter().enumerate() {
            if (s as usize) >= n {
                return Err(PermError::SymbolOutOfRange { symbol: s, n });
            }
            if seen[s as usize] {
                return Err(PermError::DuplicateSymbol(s));
            }
            seen[s as usize] = true;
            slots[i] = s;
        }
        Ok(Perm {
            len: n as u8,
            slots,
        })
    }

    /// Wraps a slot array the caller built as a permutation of `0..n`
    /// (checked in debug builds only): the constructor of the crate's
    /// stack kernels, which produce valid permutations by construction.
    pub(crate) fn from_parts(n: usize, slots: [u8; MAX_N]) -> Self {
        debug_assert!(Self::from_slice(&slots[..n]).is_ok() && slots[n..].iter().all(|&s| s == 0));
        Perm {
            len: n as u8,
            slots,
        }
    }

    /// Length `n` of the permutation.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Always `false`: zero-length permutations are unconstructible.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The meaningful prefix of the slot array.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.slots[..self.len as usize]
    }

    /// Symbol stored in slot `i`.
    ///
    /// # Panics
    /// Panics if `i >= n`.
    #[inline]
    #[must_use]
    pub fn symbol_at(&self, i: usize) -> u8 {
        assert!(i < self.len(), "slot {i} out of range (n = {})", self.len());
        self.slots[i]
    }

    /// Slot currently holding `symbol` (linear scan; `n ≤ 20`).
    ///
    /// # Panics
    /// Panics if `symbol >= n`.
    #[inline]
    #[must_use]
    pub fn slot_of(&self, symbol: u8) -> usize {
        assert!(
            (symbol as usize) < self.len(),
            "symbol {symbol} out of range (n = {})",
            self.len()
        );
        // n <= 20: a linear scan beats maintaining an inverse table.
        self.as_slice()
            .iter()
            .position(|&s| s == symbol)
            .expect("valid Perm contains every symbol")
    }

    /// Swaps the contents of two slots in place.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    #[inline]
    pub fn swap_slots(&mut self, i: usize, j: usize) {
        assert!(i < self.len() && j < self.len(), "slot out of range");
        self.slots.swap(i, j);
    }

    /// Returns a copy with slots `i` and `j` swapped.
    #[inline]
    #[must_use]
    pub fn with_slots_swapped(&self, i: usize, j: usize) -> Self {
        let mut p = *self;
        p.swap_slots(i, j);
        p
    }

    /// Swaps two *symbols* (wherever they live) in place — the paper's
    /// `(a b)` exchange and its `π_(i,j)` notation (Definition 1).
    ///
    /// # Panics
    /// Panics if either symbol is out of range.
    #[inline]
    pub fn swap_symbols(&mut self, a: u8, b: u8) {
        let ia = self.slot_of(a);
        let ib = self.slot_of(b);
        self.slots.swap(ia, ib);
    }

    /// Returns a copy with symbols `a` and `b` exchanged
    /// (the paper's `π_(a,b)`).
    #[inline]
    #[must_use]
    pub fn with_symbols_swapped(&self, a: u8, b: u8) -> Self {
        let mut p = *self;
        p.swap_symbols(a, b);
        p
    }

    /// `true` iff every slot holds its own index.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.as_slice()
            .iter()
            .enumerate()
            .all(|(i, &s)| i == s as usize)
    }

    /// The inverse permutation: `inv[p[i]] = i`.
    #[must_use]
    pub fn inverse(&self) -> Self {
        let mut slots = [0u8; MAX_N];
        for (i, &s) in self.as_slice().iter().enumerate() {
            slots[s as usize] = i as u8;
        }
        Perm {
            len: self.len,
            slots,
        }
    }

    /// Composition `self ∘ other`: the permutation mapping
    /// `i ↦ self[other[i]]`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    #[must_use]
    pub fn compose(&self, other: &Self) -> Self {
        assert_eq!(
            self.len, other.len,
            "composing permutations of unequal length"
        );
        let mut slots = [0u8; MAX_N];
        for (i, &s) in other.as_slice().iter().enumerate() {
            slots[i] = self.slots[s as usize];
        }
        Perm {
            len: self.len,
            slots,
        }
    }

    /// Number of slots whose symbol differs from the identity.
    #[must_use]
    pub fn misplaced(&self) -> usize {
        self.as_slice()
            .iter()
            .enumerate()
            .filter(|&(i, &s)| i != s as usize)
            .count()
    }

    /// Hamming distance to another permutation of the same length
    /// (number of slots where they differ).
    ///
    /// # Panics
    /// Panics if lengths differ.
    #[must_use]
    pub fn hamming(&self, other: &Self) -> usize {
        assert_eq!(
            self.len, other.len,
            "comparing permutations of unequal length"
        );
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .filter(|(a, b)| a != b)
            .count()
    }

    /// The "relative" permutation `other⁻¹ ∘ self`, i.e. the
    /// rearrangement that carries `other` to `self`. Useful because
    /// star-graph distance is left-invariant: `d(π, σ) = d(σ⁻¹∘π, e)`
    /// *does not hold* for the star metric (which is generated by
    /// right multiplications); see `sg-star::distance` for the correct
    /// reduction. This helper is still the right tool for
    /// vertex-transitivity arguments.
    #[must_use]
    pub fn relative_to(&self, other: &Self) -> Self {
        other.inverse().compose(self)
    }
}

impl fmt::Debug for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Perm{:?}", self.as_slice())
    }
}

/// Displays in the paper's style: `(a_{n-1} … a_0)` = slot order,
/// space-separated, e.g. `(3 2 1 0)`.
impl fmt::Display for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, s) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        for n in 1..=MAX_N {
            let id = Perm::identity(n);
            assert_eq!(id.len(), n);
            assert!(id.is_identity());
            assert_eq!(id.inverse(), id);
            assert_eq!(id.misplaced(), 0);
        }
    }

    #[test]
    fn identity_rejects_bad_lengths() {
        assert_eq!(Perm::try_identity(0), Err(PermError::BadLength(0)));
        assert_eq!(
            Perm::try_identity(MAX_N + 1),
            Err(PermError::BadLength(MAX_N + 1))
        );
    }

    #[test]
    fn from_slice_validates() {
        assert!(Perm::from_slice(&[0, 1, 2]).is_ok());
        assert_eq!(
            Perm::from_slice(&[0, 3, 1]),
            Err(PermError::SymbolOutOfRange { symbol: 3, n: 3 })
        );
        assert_eq!(
            Perm::from_slice(&[0, 1, 1]),
            Err(PermError::DuplicateSymbol(1))
        );
        assert_eq!(Perm::from_slice(&[]), Err(PermError::BadLength(0)));
    }

    #[test]
    fn inverse_is_involutive_on_samples() {
        let p = Perm::from_slice(&[3, 1, 4, 2, 0]).unwrap();
        assert_eq!(p.inverse().inverse(), p);
        assert!(p.compose(&p.inverse()).is_identity());
        assert!(p.inverse().compose(&p).is_identity());
    }

    #[test]
    fn slot_and_symbol_agree() {
        let p = Perm::from_slice(&[3, 1, 4, 2, 0]).unwrap();
        for i in 0..p.len() {
            assert_eq!(p.slot_of(p.symbol_at(i)), i);
        }
    }

    #[test]
    fn swap_symbols_matches_paper_example() {
        // Definition 1 example: π = (3 1 4 2 0), π_(2,3) = (2 1 4 3 0).
        let p = Perm::from_slice(&[3, 1, 4, 2, 0]).unwrap();
        let q = p.with_symbols_swapped(2, 3);
        assert_eq!(q.as_slice(), &[2, 1, 4, 3, 0]);
    }

    #[test]
    fn swap_slots_and_symbols_are_involutions() {
        let p = Perm::from_slice(&[1, 3, 0, 2]).unwrap();
        assert_eq!(p.with_slots_swapped(1, 2).with_slots_swapped(1, 2), p);
        assert_eq!(p.with_symbols_swapped(0, 3).with_symbols_swapped(0, 3), p);
    }

    #[test]
    fn hamming_and_misplaced() {
        let id = Perm::identity(4);
        let p = Perm::from_slice(&[1, 0, 2, 3]).unwrap();
        assert_eq!(p.misplaced(), 2);
        assert_eq!(p.hamming(&id), 2);
        assert_eq!(p.hamming(&p), 0);
    }

    #[test]
    fn compose_associates() {
        let a = Perm::from_slice(&[1, 2, 0]).unwrap();
        let b = Perm::from_slice(&[2, 0, 1]).unwrap();
        let c = Perm::from_slice(&[0, 2, 1]).unwrap();
        assert_eq!(a.compose(&b).compose(&c), a.compose(&b.compose(&c)));
    }

    #[test]
    fn display_matches_paper_style() {
        let p = Perm::from_slice(&[3, 2, 1, 0]).unwrap();
        assert_eq!(p.to_string(), "(3 2 1 0)");
    }

    #[test]
    fn relative_to_identity_is_self() {
        let p = Perm::from_slice(&[2, 0, 3, 1]).unwrap();
        assert_eq!(p.relative_to(&Perm::identity(4)), p);
        assert!(p.relative_to(&p).is_identity());
    }
}
