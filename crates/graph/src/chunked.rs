//! A copy-on-write vector in fixed-size shared chunks.
//!
//! The storage behind [`Network`](crate::Network)'s user table and seal
//! columns. Cloning shares every chunk (one reference count each); a
//! write copies only the chunk it lands in, and only when another clone
//! still holds it. A live-world generation that touches a handful of
//! users therefore pays for a handful of chunks, not for the table.

use std::sync::Arc;

/// Elements per chunk, as a power of two.
const CHUNK_BITS: u32 = 10;
/// Elements per chunk.
pub(crate) const CHUNK: usize = 1 << CHUNK_BITS;

#[derive(Debug)]
pub(crate) struct Chunked<T> {
    /// Every chunk but the last holds exactly `CHUNK` elements.
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Clone for Chunked<T> {
    fn clone(&self) -> Self {
        Chunked { chunks: self.chunks.clone(), len: self.len }
    }
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked { chunks: Vec::new(), len: 0 }
    }
}

impl<T: Clone> Chunked<T> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i >> CHUNK_BITS).and_then(|c| c.get(i & (CHUNK - 1)))
    }

    /// Append, filling the last chunk in place while no clone shares it.
    pub(crate) fn push(&mut self, value: T) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        let last = self.chunks.last_mut().expect("a chunk was just ensured");
        Arc::make_mut(last).push(value);
        self.len += 1;
    }

    /// Mutable access to element `i`, copying its chunk first if a
    /// clone shares it.
    pub(crate) fn make_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} out of range for length {}", self.len);
        &mut Arc::make_mut(&mut self.chunks[i >> CHUNK_BITS])[i & (CHUNK - 1)]
    }

    /// The chunks in order, as slices; chunk `c` starts at `c * CHUNK`.
    pub(crate) fn chunks(&self) -> impl Iterator<Item = &[T]> {
        self.chunks.iter().map(|c| c.as_slice())
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks().flatten()
    }
}

impl<T: Clone> std::ops::Index<usize> for Chunked<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.chunks[i >> CHUNK_BITS][i & (CHUNK - 1)]
    }
}

impl<T: Clone> FromIterator<T> for Chunked<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut out = Chunked::default();
        for item in items {
            out.push(item);
        }
        out
    }
}

/// Equal when the elements are, however the chunks are shared.
impl<T: Clone + PartialEq> PartialEq for Chunked<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_across_chunk_boundaries() {
        let v: Chunked<usize> = (0..3 * CHUNK + 5).collect();
        assert_eq!(v.len(), 3 * CHUNK + 5);
        for i in [0, CHUNK - 1, CHUNK, 2 * CHUNK + 7, 3 * CHUNK + 4] {
            assert_eq!(v[i], i);
            assert_eq!(v.get(i), Some(&i));
        }
        assert_eq!(v.get(3 * CHUNK + 5), None);
        assert!(v.iter().copied().eq(0..3 * CHUNK + 5));
        assert_eq!(v.chunks().count(), 4);
    }

    #[test]
    fn writes_to_a_clone_leave_the_original_alone() {
        let mut a: Chunked<u32> = (0..2 * CHUNK as u32).collect();
        let b = a.clone();
        *a.make_mut(CHUNK + 3) = 99;
        a.push(7);
        assert_eq!(a[CHUNK + 3], 99);
        assert_eq!(b[CHUNK + 3], CHUNK as u32 + 3);
        assert_eq!((a.len(), b.len()), (2 * CHUNK + 1, 2 * CHUNK));
        // The untouched first chunk is still shared.
        assert!(Arc::ptr_eq(&a.chunks[0], &b.chunks[0]));
        assert!(!Arc::ptr_eq(&a.chunks[1], &b.chunks[1]));
        assert_ne!(a, b);
        *a.make_mut(CHUNK + 3) = CHUNK as u32 + 3;
        let mut c = b.clone();
        c.push(7);
        assert_eq!(a, c);
    }
}
