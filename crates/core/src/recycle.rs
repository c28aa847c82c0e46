//! A `Vec` that keeps what it clears, for models that are reset and
//! rebuilt many times over.
//!
//! [`Recycled::clear`] forgets the elements without dropping them, and
//! [`Recycled::push_reset`] hands the next forgotten one back, reset in
//! place, before it allocates a new one — so an element's own buffers
//! (a thread's UITT, its delivery log) keep their capacity across
//! resets. Only the live elements are state: slicing, equality and
//! `Debug` see them alone.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A `Vec` whose cleared elements stay allocated for reuse.
///
/// # Examples
///
/// ```
/// use xui_core::recycle::Recycled;
///
/// let mut logs: Recycled<Vec<u8>> = Recycled::new();
/// logs.push_reset(Vec::clear).extend([1, 2, 3]);
/// logs.clear();
/// assert!(logs.is_empty());
/// // The retired log comes back empty, with its capacity.
/// let log = logs.push_reset(Vec::clear);
/// assert!(log.is_empty() && log.capacity() >= 3);
/// ```
#[derive(Clone)]
pub struct Recycled<T> {
    items: Vec<T>,
    live: usize,
}

impl<T> Recycled<T> {
    /// An empty collection.
    #[must_use]
    pub const fn new() -> Self {
        Self { items: Vec::new(), live: 0 }
    }

    /// Forgets every element; each is reset and handed out again by
    /// [`Recycled::push_reset`].
    pub fn clear(&mut self) {
        self.live = 0;
    }

    /// Appends an element: the next retired one if there is one, else
    /// `T::default()`. Either way `reset` runs on it, so a new element
    /// and a reused one start from the same state when `reset` writes
    /// every field.
    pub fn push_reset(&mut self, reset: impl FnOnce(&mut T)) -> &mut T
    where
        T: Default,
    {
        if self.live == self.items.len() {
            self.items.push(T::default());
        }
        self.live += 1;
        let item = &mut self.items[self.live - 1];
        reset(item);
        item
    }
}

impl<T> Default for Recycled<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Deref for Recycled<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.live]
    }
}

impl<T> DerefMut for Recycled<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.live]
    }
}

impl<T: PartialEq> PartialEq for Recycled<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for Recycled<T> {}

impl<T: fmt::Debug> fmt::Debug for Recycled<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cleared_elements_are_not_state() {
        let mut a: Recycled<Vec<u8>> = Recycled::new();
        a.push_reset(Vec::clear).push(7);
        a.push_reset(Vec::clear).push(8);
        a.clear();
        a.push_reset(Vec::clear).push(9);
        let mut b = Recycled::new();
        b.push_reset(Vec::clear).push(9);
        assert_eq!(a, b, "the retired second element is not compared");
        assert_eq!(format!("{a:?}"), "[[9]]");
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn reuse_keeps_capacity_and_runs_reset() {
        let mut a: Recycled<Vec<u8>> = Recycled::new();
        a.push_reset(Vec::clear).extend(0..100);
        a.clear();
        let v = a.push_reset(Vec::clear);
        assert!(v.is_empty());
        assert!(v.capacity() >= 100);
    }
}
