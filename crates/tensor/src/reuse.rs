//! The two ways a warm step keeps a buffer instead of allocating one
//! (DESIGN.md §10, *Pools*).

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A list shared with its readers: it reads as a slice and a clone shares
/// the buffer. Its owner refills it ([`Lent::clear`], then
/// [`Lent::to_mut`]) in the same buffer once no clone is left and in a new
/// one while a clone lives, so a held copy never changes. Holds no
/// allocation until first filled.
#[derive(Clone)]
pub struct Lent<T>(Option<Arc<Vec<T>>>);

impl<T> Default for Lent<T> {
    fn default() -> Self {
        Lent(None)
    }
}

impl<T: Clone> Lent<T> {
    /// Empties the list in place when no reader holds it, else lets it go:
    /// the next [`Lent::to_mut`] then refills its own buffer, or a new one.
    pub fn clear(&mut self) {
        match self.0.as_mut().and_then(Arc::get_mut) {
            Some(list) => list.clear(),
            None => self.0 = None,
        }
    }

    /// The list to update in place: its own buffer when no reader holds
    /// it, else a copy.
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        Arc::make_mut(self.0.get_or_insert_with(Arc::default))
    }
}

impl<T> Deref for Lent<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.0.as_deref().map_or(&[], Vec::as_slice)
    }
}

impl<'a, T> IntoIterator for &'a Lent<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq> PartialEq for Lent<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug> fmt::Debug for Lent<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A free list that never keeps more items than were ever out at once.
/// An owner that gives back only what it took is never refused; one
/// that also gives back items built elsewhere (a storage header dropped
/// on a thread that did not build it) keeps no more than its own takes
/// can reuse, and one that only gives keeps nothing.
#[derive(Debug, Default)]
pub struct Spares<T> {
    free: Vec<T>,
    /// Items taken less items given, never below zero.
    live: usize,
    /// The most `live` has been: `free` never holds more.
    peak: usize,
}

impl<T> Spares<T> {
    /// An empty list; `const`, so a thread-local can hold one.
    pub const fn new() -> Self {
        Spares {
            free: Vec::new(),
            live: 0,
            peak: 0,
        }
    }

    /// Counts one item out: a kept one, or `None` for the caller to build.
    pub fn take(&mut self) -> Option<T> {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        self.free.pop()
    }

    /// Counts `item` back in and keeps it while fewer than the peak of
    /// items out are kept; otherwise drops it.
    pub fn give(&mut self, item: T) {
        self.live = self.live.saturating_sub(1);
        if self.free.len() < self.peak {
            self.free.push(item);
        }
    }

    /// Items kept for the next takes.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// Whether no item is kept.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refill<T: Clone>(lent: &mut Lent<T>, items: impl IntoIterator<Item = T>) {
        lent.clear();
        lent.to_mut().extend(items);
    }

    #[test]
    fn a_held_lent_is_unchanged_by_later_refills() {
        let mut lent = Lent::default();
        refill(&mut lent, [1, 2, 3]);
        let held = lent.clone();
        refill(&mut lent, [7; 5]);
        lent.to_mut().push(8);
        assert_eq!(*held, [1, 2, 3]);
        assert_eq!(*lent, [7, 7, 7, 7, 7, 8]);
        assert_ne!(held.as_ptr(), lent.as_ptr(), "a held buffer was refilled");
    }

    #[test]
    fn a_dropped_lent_is_refilled_in_its_own_buffer() {
        let mut lent = Lent::default();
        assert!(lent.is_empty());
        refill(&mut lent, 0..64);
        let buffer = lent.as_ptr();
        drop(lent.clone());
        refill(&mut lent, 0..32);
        assert_eq!(lent.as_ptr(), buffer, "a refill took a new buffer");
        assert_eq!(lent.len(), 32);
        lent.to_mut()[0] = 9;
        assert_eq!(lent.as_ptr(), buffer, "an update copied an unshared list");
        assert_eq!(lent.iter().take(2).collect::<Vec<_>>(), [&9, &1]);
    }

    #[test]
    fn a_spares_never_holds_more_than_its_peak_of_live_items() {
        let mut spares = Spares::new();
        assert_eq!((spares.take(), spares.take()), (None, None));
        for item in [1, 2, 3, 4] {
            spares.give(item);
        }
        assert_eq!(spares.len(), 2, "two out at most, so two kept");
        assert_eq!(spares.take(), Some(2));
        spares.give(5);
        assert_eq!(spares.len(), 2);
        // Balanced takes and gives are never refused.
        let taken: Vec<_> = (0..3).map(|_| spares.take()).collect();
        assert_eq!(taken, [Some(5), Some(1), None]);
        for item in [6, 7, 8] {
            spares.give(item);
        }
        assert_eq!(spares.len(), 3);
    }

    #[test]
    fn a_thread_that_only_gives_keeps_nothing() {
        thread_local! {
            static SPARES: std::cell::RefCell<Spares<Vec<u8>>> =
                const { std::cell::RefCell::new(Spares::new()) };
        }
        let kept = std::thread::spawn(|| {
            SPARES.with(|s| {
                let mut s = s.borrow_mut();
                s.give(vec![1]);
                s.give(vec![2]);
                s.len()
            })
        });
        assert_eq!(kept.join().ok(), Some(0));
        assert!(SPARES.with(|s| s.borrow().is_empty()));
    }
}
