//! [`Events`], the one storage type of a recorded stream: what the log
//! appends to and what an [`ObsBuffer`](crate::ObsBuffer) snapshot holds.
//!
//! A stream is a list of sealed chunks, each exactly [`CHUNK`] events
//! long and shared behind an `Arc`, plus one open chunk that appends
//! go to. A sealed chunk is never written again, so cloning a stream —
//! what [`Recording::snapshot`](crate::Recording::snapshot) does — bumps
//! one reference count per sealed chunk and copies at most the open
//! chunk, and later appends to the log cannot change an earlier
//! snapshot. Readers only iterate or index a stream; its JSON is the
//! array a `Vec<T>` of the same events writes, and equality compares
//! events, not chunk layout.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use serde::Serialize;

/// Events per chunk. Chunks are allocated whole and never grow, so an
/// append never relocates previously recorded events and the amortized
/// copy cost of `Vec` doubling never lands on the recording path.
pub const CHUNK: usize = 4096;

/// An append-only stream of recorded events in emission order; see the
/// [module docs](self).
///
/// `Arc<Vec<T>>` rather than `Arc<[T]>`: sealing moves the full chunk's
/// buffer into the `Arc` as it is, where building an `Arc<[T]>` from a
/// `Vec` would copy it.
#[derive(Clone)]
pub struct Events<T> {
    /// Sealed chunks, each exactly `CHUNK` long.
    sealed: Vec<Arc<Vec<T>>>,
    /// The open chunk: at most `CHUNK` long, and once written to, its
    /// capacity is `CHUNK`, so it never reallocates.
    open: Vec<T>,
}

impl<T> Events<T> {
    /// Appends `v`. The fast path is one capacity compare and a push
    /// into reserved space; sealing a full chunk (or reserving the first
    /// one) is the only slow branch and runs once per `CHUNK` events.
    #[inline]
    pub(crate) fn push(&mut self, v: T) {
        if self.open.len() == self.open.capacity() {
            self.grow();
        }
        self.open.push(v);
    }

    /// Seals the open chunk if it is full, else moves it into a chunk of
    /// capacity `CHUNK` (the first push into an empty or cloned stream).
    /// `Vec::with_capacity` is documented to give exactly the capacity
    /// asked for, which is what keeps every sealed chunk `CHUNK` long.
    #[cold]
    fn grow(&mut self) {
        let open = std::mem::replace(&mut self.open, Vec::with_capacity(CHUNK));
        if open.len() == CHUNK {
            self.sealed.push(Arc::new(open));
        } else {
            self.open.extend(open);
        }
    }

    /// Events in the stream.
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK + self.open.len()
    }

    /// Whether the stream holds no event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`th event appended, if there is one.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        match self.sealed.get(i / CHUNK) {
            Some(c) => Some(&c[i % CHUNK]),
            None => self.open.get(i - self.sealed.len() * CHUNK),
        }
    }

    /// The event appended last, if there is one.
    pub fn last(&self) -> Option<&T> {
        self.open
            .last()
            .or_else(|| self.sealed.last().and_then(|c| c.last()))
    }

    /// The events in emission order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            sealed: self.sealed.iter(),
            open: &self.open,
            chunk: [].iter(),
            left: self.len(),
        }
    }
}

impl<T> Default for Events<T> {
    fn default() -> Self {
        Events {
            sealed: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl<T> Index<usize> for Events<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        match self.get(i) {
            Some(v) => v,
            None => panic!("index {i} out of bounds for a stream of {}", self.len()),
        }
    }
}

impl<T: PartialEq> PartialEq for Events<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other)
    }
}

impl<T: Eq> Eq for Events<T> {}

impl<T: PartialEq> PartialEq<Vec<T>> for Events<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.len() == other.len() && self.iter().eq(other)
    }
}

impl<T: fmt::Debug> fmt::Debug for Events<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl<T: Serialize> Serialize for Events<T> {
    fn serialize_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.serialize_json(out);
        }
        out.push(']');
    }
}

impl<'a, T> IntoIterator for &'a Events<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// The events of an [`Events`] stream in emission order, chunk by chunk.
pub struct Iter<'a, T> {
    /// Sealed chunks not yet entered.
    sealed: std::slice::Iter<'a, Arc<Vec<T>>>,
    /// The open chunk, until it is entered.
    open: &'a [T],
    /// The rest of the chunk being read.
    chunk: std::slice::Iter<'a, T>,
    /// Events not yet yielded.
    left: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    #[inline]
    fn next(&mut self) -> Option<&'a T> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        // `left` counts what the chunks still hold, so a next event exists.
        loop {
            if let Some(v) = self.chunk.next() {
                return Some(v);
            }
            self.chunk = match self.sealed.next() {
                Some(c) => c.iter(),
                None => std::mem::take(&mut self.open).iter(),
            };
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> Events<u64> {
        let mut s = Events::default();
        for i in 0..n as u64 {
            s.push(i);
        }
        s
    }

    #[test]
    fn reads_back_what_was_pushed_at_chunk_edges() {
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK, 3 * CHUNK + 1] {
            let s = filled(n);
            let want: Vec<u64> = (0..n as u64).collect();
            assert_eq!(s.len(), n);
            assert_eq!(s.is_empty(), n == 0);
            assert_eq!(s.iter().len(), n);
            assert!(s.iter().copied().eq(want.iter().copied()), "n = {n}");
            assert_eq!(s.last(), want.last());
            assert!((0..n).all(|i| s[i] == want[i] && s.get(i) == Some(&want[i])));
            assert_eq!(s.get(n), None);
            assert_eq!(s, want);
            assert_eq!(format!("{s:?}"), format!("{want:?}"));
            let (mut a, mut b) = (String::new(), String::new());
            s.serialize_json(&mut a);
            want.serialize_json(&mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn a_clone_shares_sealed_chunks_and_keeps_its_events() {
        let mut s = filled(2 * CHUNK + 5);
        let before = s.clone();
        assert!(Arc::ptr_eq(&s.sealed[0], &before.sealed[0]));
        for i in 0..CHUNK as u64 {
            s.push(i);
        }
        assert_eq!(before, filled(2 * CHUNK + 5));
        assert!(s.iter().take(before.len()).eq(&before));
    }

    #[test]
    fn equality_ignores_chunk_layout() {
        // The same events, one stream sealed at 4 096 and one whose open
        // chunk was cloned out before it filled.
        let a = filled(CHUNK + 3);
        let mut b = filled(CHUNK - 1).clone();
        for i in (CHUNK - 1) as u64..(CHUNK + 3) as u64 {
            b.push(i);
        }
        assert_eq!(a, b);
        b.push(0);
        assert_ne!(a, b);
    }
}
