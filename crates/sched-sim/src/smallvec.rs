//! A vector that keeps its first few elements inline.
//!
//! Kernel forks copy every process's call stack and every processor's
//! window list, and start with the kernel's step scratch buffers; those
//! are almost always a few elements long, so keeping them inline makes a
//! fork allocate nothing for them. A vector that outgrows its inline
//! capacity moves to the heap and stays there.

use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Up to `N` elements inline, any number on the heap.
#[derive(Clone, Debug)]
pub(crate) enum SmallVec<T, const N: usize> {
    Inline { buf: [T; N], len: usize },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> SmallVec<T, N> {
    pub(crate) fn new() -> Self {
        SmallVec::Inline { buf: [T::default(); N], len: 0 }
    }

    #[inline]
    pub(crate) fn push(&mut self, x: T) {
        match self {
            SmallVec::Inline { buf, len } if *len < N => {
                buf[*len] = x;
                *len += 1;
            }
            SmallVec::Inline { .. } => self.spill(x),
            SmallVec::Heap(v) => v.push(x),
        }
    }

    /// Moves a full inline vector to the heap and pushes `x` there.
    #[cold]
    fn spill(&mut self, x: T) {
        let mut v = Vec::with_capacity(2 * N);
        v.extend_from_slice(self);
        v.push(x);
        *self = SmallVec::Heap(v);
    }

    pub(crate) fn pop(&mut self) -> Option<T> {
        match self {
            SmallVec::Inline { buf, len } => {
                *len = len.checked_sub(1)?;
                Some(buf[*len])
            }
            SmallVec::Heap(v) => v.pop(),
        }
    }

    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match self {
            SmallVec::Inline { buf, len } => {
                let mut kept = 0;
                for i in 0..*len {
                    if keep(&buf[i]) {
                        buf[kept] = buf[i];
                        kept += 1;
                    }
                }
                *len = kept;
            }
            SmallVec::Heap(v) => v.retain(keep),
        }
    }

    pub(crate) fn clear(&mut self) {
        match self {
            SmallVec::Inline { len, .. } => *len = 0,
            SmallVec::Heap(v) => v.clear(),
        }
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for SmallVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for SmallVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            SmallVec::Inline { buf, len } => &buf[..*len],
            SmallVec::Heap(v) => v,
        }
    }
}

impl<T, const N: usize> DerefMut for SmallVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            SmallVec::Inline { buf, len } => &mut buf[..*len],
            SmallVec::Heap(v) => v,
        }
    }
}

/// Hashes like the slice it holds, wherever the elements live.
impl<T: Hash, const N: usize> Hash for SmallVec<T, N> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        (**self).hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_vec_across_the_spill() {
        let mut s: SmallVec<u32, 2> = SmallVec::new();
        let mut v: Vec<u32> = Vec::new();
        for x in 0..7 {
            s.push(x);
            v.push(x);
            assert_eq!(&*s, &v[..]);
        }
        s.retain(|x| x % 2 == 0);
        v.retain(|x| x % 2 == 0);
        assert_eq!(&*s, &v[..]);
        assert_eq!(s.pop(), v.pop());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn inline_retain_pop_and_hash_match_a_vec() {
        use crate::statehash::StateHasher;
        let mut s: SmallVec<(usize, usize), 4> = SmallVec::new();
        s.push((1, 2));
        s.push((3, 4));
        s.push((5, 6));
        s.retain(|&(a, _)| a != 3);
        assert_eq!(&*s, &[(1, 2), (5, 6)]);
        let hash = |x: &dyn Fn(&mut StateHasher)| {
            let mut h = StateHasher::new(0);
            x(&mut h);
            h.finish128()
        };
        assert_eq!(hash(&|h| s.hash(h)), hash(&|h| vec![(1usize, 2usize), (5, 6)].hash(h)));
        assert_eq!(s.pop(), Some((5, 6)));
        assert_eq!(s.len(), 1);
    }
}
