//! A short list of `Copy` values kept inside its owner.
//!
//! Instruction operands and phi incoming blocks are almost always short:
//! no instruction of the benchmark corpora has more than three operands
//! and no phi more than two incoming blocks. [`InlineList`] keeps up to
//! [`INLINE_CAP`] elements in place and moves them to a heap `Vec` only
//! when a fourth is pushed, so creating, cloning, journaling and dropping
//! an instruction allocates nothing — the way LLVM co-allocates operands
//! with the instruction. The list occupies the same 24 bytes a `Vec` did.
//!
//! The list behaves like a `Vec` for every observer: it derefs to `[T]`,
//! and equality, hashing and `Debug` go through that slice. An inline list
//! and a spilled one with the same contents are equal, hash the same and
//! print the same.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// How many elements an [`InlineList`] holds before it spills to the heap.
pub const INLINE_CAP: usize = 3;

/// A list of `Copy` elements stored inline up to [`INLINE_CAP`] elements
/// and on the heap beyond that. Used for [`InstData::operands`] and phi
/// incoming blocks. Unused inline slots hold `T::default()` and are never
/// read.
///
/// [`InstData::operands`]: crate::inst::InstData::operands
#[derive(Clone)]
pub struct InlineList<T: Copy + Default>(Repr<T>);

#[derive(Clone)]
enum Repr<T: Copy + Default> {
    /// The list is `items[..len]`.
    Inline { len: u8, items: [T; INLINE_CAP] },
    /// Taken on the first push past `INLINE_CAP`; a spilled list stays
    /// spilled when it shrinks, except through [`InlineList::shrink_to_fit`].
    Spilled(Vec<T>),
}

impl<T: Copy + Default> InlineList<T> {
    /// An empty list; allocates nothing.
    pub fn new() -> Self {
        InlineList(Repr::Inline {
            len: 0,
            items: [T::default(); INLINE_CAP],
        })
    }

    /// An empty list with room for `capacity` elements: inline when that
    /// fits, one heap block when it does not.
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity <= INLINE_CAP {
            Self::new()
        } else {
            InlineList(Repr::Spilled(Vec::with_capacity(capacity)))
        }
    }

    /// True once the elements live on the heap.
    pub fn spilled(&self) -> bool {
        matches!(self.0, Repr::Spilled(_))
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// Appends `value`, spilling to the heap when the inline slots are full.
    pub fn push(&mut self, value: T) {
        match &mut self.0 {
            Repr::Inline { len, items } if (*len as usize) < INLINE_CAP => {
                items[*len as usize] = value;
                *len += 1;
            }
            Repr::Inline { .. } => {
                let mut v = Vec::with_capacity(2 * INLINE_CAP);
                v.extend_from_slice(self.as_slice());
                v.push(value);
                self.0 = Repr::Spilled(v);
            }
            Repr::Spilled(v) => v.push(value),
        }
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        let last = self[n - 1];
        self.truncate(n - 1);
        Some(last)
    }

    /// Inserts `value` at `index`, shifting the tail right.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, value: T) {
        let n = self.len();
        assert!(index <= n, "insertion index {index} past length {n}");
        self.push(value);
        self.as_mut_slice()[index..].rotate_right(1);
    }

    /// Removes and returns the element at `index`, shifting the tail left.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        let n = self.len();
        assert!(index < n, "removal index {index} out of length {n}");
        let value = self[index];
        self.as_mut_slice()[index..].rotate_left(1);
        self.truncate(n - 1);
        value
    }

    /// Shortens the list to `len` elements; no-op if it is not longer.
    pub fn truncate(&mut self, new_len: usize) {
        match &mut self.0 {
            Repr::Inline { len, .. } => {
                if new_len < *len as usize {
                    *len = new_len as u8;
                }
            }
            Repr::Spilled(v) => v.truncate(new_len),
        }
    }

    /// Keeps only the elements `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut kept = 0;
        for i in 0..self.len() {
            let x = self[i];
            if keep(&x) {
                self[kept] = x;
                kept += 1;
            }
        }
        self.truncate(kept);
    }

    /// Appends every element of `items`.
    pub fn extend_from_slice(&mut self, items: &[T]) {
        for &x in items {
            self.push(x);
        }
    }

    /// Returns a spilled list to the inline slots when it fits again, or
    /// drops the heap list's spare capacity when it does not.
    pub fn shrink_to_fit(&mut self) {
        if let Repr::Spilled(v) = &mut self.0 {
            if v.len() <= INLINE_CAP {
                *self = Self::from(v.as_slice());
            } else {
                v.shrink_to_fit();
            }
        }
    }
}

impl<T: Copy + Default> Default for InlineList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default> Deref for InlineList<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default> DerefMut for InlineList<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default + PartialEq> PartialEq for InlineList<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq> Eq for InlineList<T> {}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<[T; N]> for InlineList<T> {
    fn eq(&self, other: &[T; N]) -> bool {
        self.as_slice() == other
    }
}

impl<T: Copy + Default + Hash> Hash for InlineList<T> {
    /// Hashes as the slice does (length, then elements), so a key hashed
    /// from an instruction's operands does not depend on where they live.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl<T: Copy + Default + fmt::Debug> fmt::Debug for InlineList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<T: Copy + Default> From<&[T]> for InlineList<T> {
    fn from(items: &[T]) -> Self {
        if items.len() <= INLINE_CAP {
            let mut list = Self::new();
            if let Repr::Inline { len, items: slots } = &mut list.0 {
                slots[..items.len()].copy_from_slice(items);
                *len = items.len() as u8;
            }
            list
        } else {
            InlineList(Repr::Spilled(items.to_vec()))
        }
    }
}

impl<T: Copy + Default, const N: usize> From<[T; N]> for InlineList<T> {
    fn from(items: [T; N]) -> Self {
        Self::from(&items[..])
    }
}

impl<T: Copy + Default> FromIterator<T> for InlineList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut list = Self::with_capacity(iter.size_hint().0);
        list.extend(iter);
        list
    }
}

impl<T: Copy + Default> Extend<T> for InlineList<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl<T: Copy + Default> IntoIterator for InlineList<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;
    fn into_iter(self) -> IntoIter<T> {
        IntoIter {
            list: self,
            next: 0,
        }
    }
}

/// The by-value iterator of an [`InlineList`].
#[derive(Debug, Clone)]
pub struct IntoIter<T: Copy + Default> {
    list: InlineList<T>,
    next: usize,
}

impl<T: Copy + Default> Iterator for IntoIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        let x = self.list.get(self.next).copied();
        self.next += usize::from(x.is_some());
        x
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.list.len() - self.next;
        (n, Some(n))
    }
}

impl<T: Copy + Default> ExactSizeIterator for IntoIter<T> {}

impl<'a, T: Copy + Default> IntoIterator for &'a InlineList<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T: Copy + Default> IntoIterator for &'a mut InlineList<T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(x: &T) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    /// A spilled list holding `items`, built by pushing past the inline
    /// slots and truncating back.
    fn spilled(items: &[u32]) -> InlineList<u32> {
        let mut l: InlineList<u32> = InlineList::new();
        l.extend_from_slice(items);
        for _ in l.len()..=INLINE_CAP {
            l.push(0);
        }
        assert!(l.spilled());
        l.truncate(items.len());
        l
    }

    #[test]
    fn spills_on_the_fourth_push() {
        let mut l = InlineList::new();
        for x in 0..3u32 {
            l.push(x);
            assert!(!l.spilled());
        }
        l.push(3);
        assert!(l.spilled());
        assert_eq!(l, [0, 1, 2, 3]);
        assert_eq!(l.len(), 4);
        assert!(InlineList::<u32>::with_capacity(4).spilled());
        assert!(!InlineList::<u32>::with_capacity(3).spilled());
    }

    #[test]
    fn inline_and_spilled_lists_agree() {
        for n in 0..=INLINE_CAP {
            let items: Vec<u32> = (10..10 + n as u32).collect();
            let inline = InlineList::from(&items[..]);
            let heap = spilled(&items);
            assert!(!inline.spilled());
            assert!(heap.spilled());
            assert_eq!(inline, heap);
            assert_eq!(hash_of(&inline), hash_of(&heap));
            assert_eq!(hash_of(&inline), hash_of(&items));
            assert_eq!(format!("{inline:?}"), format!("{heap:?}"));
            assert_eq!(format!("{inline:?}"), format!("{items:?}"));
        }
        let five: InlineList<u32> = (0..5).collect();
        assert_eq!(format!("{five:?}"), "[0, 1, 2, 3, 4]");
        assert_eq!(hash_of(&five), hash_of(&vec![0u32, 1, 2, 3, 4]));
    }

    #[test]
    fn shrinking_a_spilled_list_keeps_it_equal_to_an_inline_one() {
        let mut by_truncate: InlineList<u32> = (0..6).collect();
        by_truncate.truncate(3);
        let mut by_remove: InlineList<u32> = (0..4).collect();
        by_remove.remove(3);
        let inline = InlineList::from([0u32, 1, 2]);
        for shrunk in [&by_truncate, &by_remove] {
            assert!(shrunk.spilled());
            assert_eq!(*shrunk, inline);
            assert_eq!(hash_of(shrunk), hash_of(&inline));
            assert_eq!(format!("{shrunk:?}"), format!("{inline:?}"));
        }
        by_truncate.shrink_to_fit();
        assert!(!by_truncate.spilled());
        assert_eq!(by_truncate, inline);
    }

    #[test]
    fn insert_remove_and_retain_keep_order() {
        let mut l: InlineList<u32> = InlineList::from([1, 3]);
        l.insert(1, 2);
        l.insert(0, 0);
        assert!(l.spilled());
        l.insert(4, 4);
        assert_eq!(l, [0, 1, 2, 3, 4]);
        assert_eq!(l.remove(0), 0);
        assert_eq!(l, [1, 2, 3, 4]);
        l.retain(|&x| x % 2 == 0);
        assert_eq!(l, [2, 4]);

        let mut small = InlineList::from([5u32, 6, 7]);
        assert_eq!(small.remove(1), 6);
        assert_eq!(small, [5, 7]);
        small.insert(1, 9);
        assert_eq!(small, [5, 9, 7]);
        small.retain(|&x| x != 9);
        assert_eq!(small, [5, 7]);
        assert_eq!(small.pop(), Some(7));
        assert_eq!(small.pop(), Some(5));
        assert_eq!(small.pop(), None);
    }
}
