//! Items ripening toward a ready cycle: the L1D's responses on their
//! way to the core and the L2 slice's replies on their way to the
//! interconnect. A min-heap on `(ready, insertion order)`, so items due
//! in the same cycle leave in the order they were pushed.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

struct Entry<T> {
    ready: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.ready, self.seq) == (other.ready, other.seq)
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.ready, self.seq).cmp(&(other.ready, other.seq))
    }
}

/// The queue.
pub(crate) struct Ripening<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    /// Items pushed so far; each one's insertion stamp.
    seq: u64,
}

impl<T> Default for Ripening<T> {
    fn default() -> Self {
        Ripening { heap: BinaryHeap::new(), seq: 0 }
    }
}

impl<T> Ripening<T> {
    /// Queue `item` to ripen at cycle `ready`.
    pub(crate) fn push(&mut self, ready: u64, item: T) {
        self.seq += 1;
        self.heap.push(Reverse(Entry { ready, seq: self.seq, item }));
    }

    /// Pop the earliest item if it is ripe by cycle `now`.
    pub(crate) fn pop_ripe(&mut self, now: u64) -> Option<T> {
        if self.next_ready()? > now {
            return None;
        }
        self.pop()
    }

    /// Pop the earliest item, ripe or not (window-edge drains).
    pub(crate) fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|Reverse(e)| e.item)
    }

    /// Ready cycle of the earliest item.
    pub(crate) fn next_ready(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.ready)
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Items pushed so far.
    #[cfg(test)]
    pub(crate) fn pushed(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ripens_in_ready_then_insertion_order() {
        let mut q = Ripening::default();
        for (ready, item) in [(5, 'a'), (3, 'b'), (5, 'c'), (3, 'd'), (9, 'e')] {
            q.push(ready, item);
        }
        assert_eq!(q.next_ready(), Some(3));
        assert_eq!(q.pop_ripe(2), None);
        let ripe: Vec<char> = std::iter::from_fn(|| q.pop_ripe(5)).collect();
        assert_eq!(ripe, ['b', 'd', 'a', 'c']);
        assert_eq!((q.len(), q.pushed()), (1, 5));
        assert_eq!(q.pop(), Some('e'));
        assert!(q.is_empty());
    }
}
