//! Deterministic bitmap index allocators for kernel table slots.
//!
//! The kernel hands out UPID-pool slots (receiver registration) and
//! UITT entries (sender registration) through these. Allocation is
//! lowest-free-index-first, so replays are deterministic, and release
//! reports double-frees instead of silently corrupting the bitmap.

/// A fixed-capacity bitmap allocator over indices `0..capacity`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexAllocator {
    bits: Vec<u64>,
    capacity: usize,
    allocated: usize,
}

impl IndexAllocator {
    /// An empty allocator over `0..capacity`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let mut a = Self::default();
        a.reset(capacity);
        a
    }

    /// Frees every index and sets the capacity to `capacity`, reusing
    /// the bitmap's buffer: afterwards the allocator equals
    /// [`IndexAllocator::new`]`(capacity)`.
    pub fn reset(&mut self, capacity: usize) {
        self.bits.clear();
        self.bits.resize(capacity.div_ceil(64), 0);
        self.capacity = capacity;
        self.allocated = 0;
    }

    /// The number of indices this allocator manages.
    #[must_use]
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many indices are currently allocated.
    #[must_use]
    pub const fn allocated(&self) -> usize {
        self.allocated
    }

    /// True when no free index remains (the table-full `ENOSPC` case).
    #[must_use]
    pub const fn is_full(&self) -> bool {
        self.allocated == self.capacity
    }

    /// Whether `index` is currently allocated.
    #[must_use]
    pub fn is_allocated(&self, index: usize) -> bool {
        index < self.capacity && self.bits[index / 64] & (1 << (index % 64)) != 0
    }

    /// Claims and returns the lowest free index, or `None` when the
    /// table is full.
    pub fn allocate(&mut self) -> Option<usize> {
        for (word_idx, word) in self.bits.iter_mut().enumerate() {
            if *word != u64::MAX {
                let bit = word.trailing_ones() as usize;
                let index = word_idx * 64 + bit;
                if index >= self.capacity {
                    return None;
                }
                *word |= 1 << bit;
                self.allocated += 1;
                return Some(index);
            }
        }
        None
    }

    /// Releases `index` back to the pool. Returns `true` when the index
    /// was allocated (so a double free or an out-of-range index is
    /// observable rather than silent).
    pub fn release(&mut self, index: usize) -> bool {
        if !self.is_allocated(index) {
            return false;
        }
        self.bits[index / 64] &= !(1 << (index % 64));
        self.allocated -= 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_lowest_free_index_first() {
        let mut a = IndexAllocator::new(4);
        assert_eq!(a.allocate(), Some(0));
        assert_eq!(a.allocate(), Some(1));
        assert!(a.release(0));
        assert_eq!(a.allocate(), Some(0), "freed slot is reused first");
        assert_eq!(a.allocate(), Some(2));
        assert_eq!(a.allocate(), Some(3));
        assert!(a.is_full());
        assert_eq!(a.allocate(), None, "table full");
    }

    #[test]
    fn release_reports_double_free_and_out_of_range() {
        let mut a = IndexAllocator::new(2);
        assert!(!a.release(0), "never allocated");
        assert_eq!(a.allocate(), Some(0));
        assert!(a.release(0));
        assert!(!a.release(0), "double free");
        assert!(!a.release(7), "out of range");
    }

    #[test]
    fn capacity_not_a_multiple_of_64_is_bounded() {
        let mut a = IndexAllocator::new(65);
        for i in 0..65 {
            assert_eq!(a.allocate(), Some(i));
        }
        assert_eq!(a.allocate(), None);
        assert!(a.release(64));
        assert_eq!(a.allocate(), Some(64));
    }

    #[test]
    fn reset_equals_new() {
        let mut a = IndexAllocator::new(70);
        for _ in 0..69 {
            a.allocate();
        }
        a.reset(70);
        assert_eq!(a, IndexAllocator::new(70));
        a.reset(3);
        assert_eq!(a, IndexAllocator::new(3));
    }

    #[test]
    fn zero_capacity_is_always_full() {
        let mut a = IndexAllocator::new(0);
        assert!(a.is_full());
        assert_eq!(a.allocate(), None);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// Against a model set: allocate returns the lowest free index,
        /// release frees exactly that index, and the allocator never
        /// leaks (every freed index is allocatable again).
        #[test]
        fn matches_a_model_set(ops in proptest::collection::vec((any::<bool>(), 0usize..96), 1..200)) {
            let mut a = IndexAllocator::new(96);
            let mut model = std::collections::BTreeSet::new();
            for (is_alloc, idx) in ops {
                if is_alloc {
                    let expect = (0..96).find(|i| !model.contains(i));
                    let got = a.allocate();
                    prop_assert_eq!(got, expect);
                    if let Some(i) = got {
                        model.insert(i);
                    }
                } else {
                    let expect = model.remove(&idx);
                    prop_assert_eq!(a.release(idx), expect);
                }
                prop_assert_eq!(a.allocated(), model.len());
                for i in 0..96 {
                    prop_assert_eq!(a.is_allocated(i), model.contains(&i));
                }
            }
        }
    }
}
