//! Compact model subsets.
//!
//! The scheduler's decision variable is "which subset of base models runs
//! this query" — the indicator vector `s ∈ {0,1}^m` of the paper. Deep
//! ensembles are small (m ≤ ~8 here), so a bitmask is the natural encoding.

/// A subset of the ensemble's base models, encoded as a bitmask
/// (bit *k* set ⇔ model *k* included).
///
/// # Examples
///
/// ```
/// use schemble_models::ModelSet;
///
/// let set = ModelSet::from_indices(&[0, 2]);
/// assert!(set.contains(2) && !set.contains(1));
/// assert!(set.is_subset_of(ModelSet::full(3)));
/// assert_eq!(ModelSet::all_nonempty(3).count(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ModelSet(pub u32);

impl ModelSet {
    /// The empty set (no models — a rejected query).
    pub const EMPTY: ModelSet = ModelSet(0);

    /// The full ensemble of `m` models.
    ///
    /// # Panics
    /// Panics if `m > 32`.
    pub fn full(m: usize) -> ModelSet {
        assert!(m <= 32, "ModelSet supports at most 32 models");
        if m == 32 {
            ModelSet(u32::MAX)
        } else {
            ModelSet((1u32 << m) - 1)
        }
    }

    /// The singleton set `{k}`.
    pub fn singleton(k: usize) -> ModelSet {
        assert!(k < 32);
        ModelSet(1 << k)
    }

    /// Builds a set from member indices.
    pub fn from_indices(indices: &[usize]) -> ModelSet {
        let mut s = ModelSet::EMPTY;
        for &k in indices {
            s = s.with(k);
        }
        s
    }

    /// This set plus model `k`.
    #[inline]
    pub fn with(self, k: usize) -> ModelSet {
        assert!(k < 32);
        ModelSet(self.0 | (1 << k))
    }

    /// This set minus model `k`.
    #[inline]
    pub fn without(self, k: usize) -> ModelSet {
        ModelSet(self.0 & !(1 << k))
    }

    /// The members of this set that are not in `other`.
    #[inline]
    pub fn minus(self, other: ModelSet) -> ModelSet {
        ModelSet(self.0 & !other.0)
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, k: usize) -> bool {
        k < 32 && (self.0 >> k) & 1 == 1
    }

    /// Number of members.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True for the empty set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True if `self ⊆ other`.
    #[inline]
    pub fn is_subset_of(self, other: ModelSet) -> bool {
        self.0 & other.0 == self.0
    }

    /// Iterates over member indices, ascending — one step per member, not
    /// per bit position (the DP walks these in its innermost loops).
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let k = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                k
            })
        })
    }

    /// All non-empty subsets of an `m`-model ensemble (2^m − 1 of them).
    pub fn all_nonempty(m: usize) -> impl Iterator<Item = ModelSet> {
        assert!(m <= 16, "enumerating subsets of more than 16 models is a bug");
        (1u32..(1u32 << m)).map(ModelSet)
    }

    /// All subsets including the empty one.
    pub fn all(m: usize) -> impl Iterator<Item = ModelSet> {
        assert!(m <= 16, "enumerating subsets of more than 16 models is a bug");
        (0u32..(1u32 << m)).map(ModelSet)
    }
}

impl std::fmt::Display for ModelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for k in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{k}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_membership() {
        let s = ModelSet::from_indices(&[0, 2]);
        assert!(s.contains(0) && !s.contains(1) && s.contains(2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn full_and_empty() {
        assert_eq!(ModelSet::full(3).0, 0b111);
        assert!(ModelSet::EMPTY.is_empty());
        assert_eq!(ModelSet::full(3).len(), 3);
    }

    #[test]
    fn with_without_roundtrip() {
        let s = ModelSet::singleton(1).with(3);
        assert_eq!(s.without(3), ModelSet::singleton(1));
        assert_eq!(s.without(5), s, "removing an absent member is a no-op");
        assert_eq!(s.minus(ModelSet::from_indices(&[3, 4])), ModelSet::singleton(1));
    }

    #[test]
    fn subset_relation() {
        let small = ModelSet::from_indices(&[1]);
        let big = ModelSet::from_indices(&[0, 1, 2]);
        assert!(small.is_subset_of(big));
        assert!(!big.is_subset_of(small));
        assert!(small.is_subset_of(small));
        assert!(ModelSet::EMPTY.is_subset_of(small));
    }

    #[test]
    fn enumeration_counts() {
        assert_eq!(ModelSet::all_nonempty(3).count(), 7);
        assert_eq!(ModelSet::all(3).count(), 8);
        // Every enumerated subset is within the ensemble.
        for s in ModelSet::all_nonempty(3) {
            assert!(s.is_subset_of(ModelSet::full(3)));
        }
    }

    #[test]
    fn display_formats_members() {
        assert_eq!(ModelSet::from_indices(&[0, 2]).to_string(), "{0,2}");
        assert_eq!(ModelSet::EMPTY.to_string(), "{}");
    }
}
