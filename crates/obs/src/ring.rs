//! Bounded ring-buffered event log.

use std::collections::VecDeque;

/// A bounded ring buffer of events: the last `capacity` pushes are
/// retained, older events are evicted.
#[derive(Clone, Debug)]
pub struct RingLog<T> {
    buf: VecDeque<T>,
    capacity: usize,
}

impl<T> RingLog<T> {
    /// Creates a log retaining the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> RingLog<T> {
        assert!(capacity > 0, "ring log needs capacity");
        RingLog { buf: VecDeque::with_capacity(capacity.min(1024)), capacity }
    }

    /// Appends an event, evicting the oldest beyond capacity.
    pub fn push(&mut self, event: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(event);
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no event is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl<'a, T> IntoIterator for &'a RingLog<T> {
    type Item = &'a T;
    type IntoIter = std::collections::vec_deque::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_newest_events() {
        let mut log = RingLog::new(3);
        for i in 0..10u32 {
            log.push(i);
        }
        assert_eq!(log.iter().copied().collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(log.len(), 3);
        assert_eq!(log.capacity(), 3);
        assert!(!log.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = RingLog::<u32>::new(0);
    }
}
