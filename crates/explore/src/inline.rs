//! A list that lives inline up to a fixed small length and spills to
//! the heap beyond it.
//!
//! Everything the per-schedule path records is a short list sized by
//! the number of threads alive: a branch point's candidates, a DPOR
//! node's child order, a vector clock, a race's witnesses. Kept inline
//! they are copied by value and cost no allocation; a program with more
//! threads than the inline length pays one `Vec` per list and is
//! otherwise treated alike.

/// Up to `N` elements inline, more on the heap.
#[derive(Debug, Clone)]
pub(crate) enum InlineVec<T, const N: usize> {
    Inline { len: u8, buf: [T; N] },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    pub(crate) fn new() -> Self {
        InlineVec::Inline {
            len: 0,
            buf: [T::default(); N],
        }
    }

    pub(crate) fn push(&mut self, item: T) {
        match self {
            InlineVec::Inline { len, buf } => {
                if (*len as usize) < N {
                    buf[*len as usize] = item;
                    *len += 1;
                } else {
                    let mut v = buf.to_vec();
                    v.push(item);
                    *self = InlineVec::Heap(v);
                }
            }
            InlineVec::Heap(v) => v.push(item),
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match self {
            InlineVec::Inline { len, buf } => &buf[..*len as usize],
            InlineVec::Heap(v) => v,
        }
    }
}

impl<T, const N: usize> std::ops::DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            InlineVec::Inline { len, buf } => &mut buf[..*len as usize],
            InlineVec::Heap(v) => v,
        }
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spills_past_the_inline_length_and_keeps_order() {
        let mut list: InlineVec<u32, 2> = InlineVec::new();
        assert!(list.is_empty());
        for i in 0..5 {
            list.push(i);
            assert_eq!(list.len(), i as usize + 1);
            assert_eq!(
                matches!(list, InlineVec::Heap(_)),
                i >= 2,
                "inline up to N, then one heap list"
            );
        }
        assert_eq!(*list, [0, 1, 2, 3, 4]);
        list[4] = 9;
        list[1..].reverse();
        assert_eq!(*list, [0, 9, 3, 2, 1]);
        // Equality is by contents, whichever side spilled.
        let mut wide: InlineVec<u32, 2> = InlineVec::new();
        [0, 9].into_iter().for_each(|i| wide.push(i));
        let mut same: InlineVec<u32, 2> = InlineVec::Heap(vec![0, 9]);
        assert_eq!(wide, same);
        same.push(3);
        assert_ne!(wide, same);
    }
}
