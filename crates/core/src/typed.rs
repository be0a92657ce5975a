//! A generic typed facade over the raw `u64` queues.
//!
//! The paper's queue transfers 64-bit integers or pointers (Figure 3a,
//! "val: 64 bits (int or pointer)"). [`Typed<T, R>`] takes the pointer
//! route over any [`RingList<R>`]: values are boxed and the queue moves the
//! box address, so any `Send` type rides the same nonblocking fast path.

use core::marker::PhantomData;

use lcrq_atomic::HardwareFaa;

use crate::config::LcrqConfig;
use crate::crq::Crq;
use crate::ring_list::{RingList, TantrumRing};
use crate::scq::ScqD;
use crate::wcq::WcqRing;

/// The typed LCRQ: boxed values ride the CRQ's F&A/CAS2 fast path.
///
/// ```
/// use lcrq_core::TypedLcrq;
/// let q: TypedLcrq<String> = TypedLcrq::new();
/// q.enqueue("hello".to_string());
/// q.enqueue("world".to_string());
/// assert_eq!(q.dequeue().as_deref(), Some("hello"));
/// assert_eq!(q.dequeue().as_deref(), Some("world"));
/// assert_eq!(q.dequeue(), None);
/// ```
pub type TypedLcrq<T, P = HardwareFaa> = Typed<T, Crq<P>>;

/// The typed facade over the portable SCQ-based [`Lscq`](crate::Lscq):
/// the box address goes through the SCQ index indirection like any other
/// `u64`.
///
/// ```
/// use lcrq_core::TypedLscq;
/// let q: TypedLscq<String> = TypedLscq::new();
/// q.enqueue("hello".to_string());
/// assert_eq!(q.dequeue().as_deref(), Some("hello"));
/// assert_eq!(q.dequeue(), None);
/// ```
pub type TypedLscq<T, P = HardwareFaa> = Typed<T, ScqD<P>>;

/// The typed facade over the wait-free [`Wcq`](crate::Wcq), so channels
/// and other `T`-valued layers inherit its bounded-steps progress class.
///
/// ```
/// use lcrq_core::TypedWcq;
/// let q: TypedWcq<String> = TypedWcq::new();
/// q.enqueue("hello".to_string());
/// assert_eq!(q.dequeue().as_deref(), Some("hello"));
/// assert_eq!(q.dequeue(), None);
/// ```
pub type TypedWcq<T, P = HardwareFaa> = Typed<T, WcqRing<P>>;

/// An unbounded, linearizable MPMC FIFO queue of `T` over a list of `R`
/// rings.
pub struct Typed<T: Send, R: TantrumRing = Crq> {
    inner: RingList<R>,
    _marker: PhantomData<T>,
}

/// Boxes `value`; the box address is the queue item.
fn into_item<T>(value: T) -> u64 {
    let ptr = Box::into_raw(Box::new(value)) as u64;
    debug_assert!(ptr < crate::BOTTOM && ptr != 0);
    ptr
}

/// Takes back the value behind a queue item.
///
/// # Safety
///
/// `item` came from [`into_item::<T>`] and is taken back exactly once.
unsafe fn from_item<T>(item: u64) -> T {
    // SAFETY: forwarded from this function's contract.
    *unsafe { Box::from_raw(item as *mut T) }
}

impl<T: Send, R: TantrumRing> Typed<T, R> {
    /// Creates an empty queue with the default configuration.
    pub fn new() -> Self {
        Self::with_config(LcrqConfig::default())
    }

    /// Creates an empty queue with an explicit configuration.
    pub fn with_config(config: LcrqConfig) -> Self {
        Self {
            inner: RingList::with_config(config),
            _marker: PhantomData,
        }
    }

    /// Appends `value`.
    pub fn enqueue(&self, value: T) {
        self.inner.enqueue(into_item(value));
    }

    /// Removes and returns the oldest value, or `None` if empty.
    pub fn dequeue(&self) -> Option<T> {
        // SAFETY: every item in the queue is a boxed `T` that is handed out
        // exactly once (queue items are dequeued exactly once by
        // linearizability).
        self.inner.dequeue().map(|item| unsafe { from_item(item) })
    }

    /// Appends `value` unless the queue has been [`close`](Self::close)d,
    /// in which case ownership is handed back as `Err(value)`.
    pub fn try_enqueue(&self, value: T) -> Result<(), T> {
        self.inner.try_enqueue(into_item(value)).map_err(|item| {
            // SAFETY: the queue rejected the item, so we still own the box
            // we just created.
            unsafe { from_item(item) }
        })
    }

    /// Batch counterpart of [`try_enqueue`](Self::try_enqueue): appends
    /// every value of `values` through the raw batch path, or — if the
    /// queue is closed partway — returns the **unplaced suffix** as
    /// `Err(remainder)`. Items of the placed prefix are in the queue and
    /// will be drained by receivers like any others.
    pub fn try_extend(&self, values: Vec<T>) -> Result<(), Vec<T>> {
        let items: Vec<u64> = values.into_iter().map(into_item).collect();
        self.inner.try_enqueue_batch(&items).map_err(|placed| {
            // SAFETY: items past `placed` were never enqueued; we still own
            // those boxes.
            items[placed..]
                .iter()
                .map(|&item| unsafe { from_item(item) })
                .collect()
        })
    }

    /// Closes the queue for further enqueues (see [`RingList::close`]):
    /// [`try_enqueue`](Self::try_enqueue) starts failing while dequeues
    /// drain the remaining items. Returns `true` on the first call.
    pub fn close(&self) -> bool {
        self.inner.close()
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }

    /// Whether the queue appears empty (racy snapshot; see
    /// [`RingList::is_empty_hint`]).
    pub fn is_empty_hint(&self) -> bool {
        self.inner.is_empty_hint()
    }

    /// Appends every value of `iter` through the raw batch path: all values
    /// are boxed up front, then their addresses enter the queue via
    /// [`RingList::enqueue_batch`] — for the LCRQ, one fetch-and-add per
    /// multi-slot reservation instead of one per item.
    ///
    /// Like the raw batch, this is a sequence of individual enqueues in
    /// iterator order, not an atomic group (see DESIGN.md "Batched
    /// operations"). Takes `&self`: concurrent callers are fine.
    pub fn extend<I: IntoIterator<Item = T>>(&self, iter: I) {
        let items: Vec<u64> = iter.into_iter().map(into_item).collect();
        self.inner.enqueue_batch(&items);
    }

    /// Removes up to `max` of the oldest values, appending them to `out` in
    /// FIFO order through the raw batch path ([`RingList::dequeue_batch`]);
    /// returns how many were moved. A return `< max` is a linearizable
    /// EMPTY observation.
    pub fn drain_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut items = Vec::with_capacity(max.min(1024));
        let taken = self.inner.dequeue_batch(&mut items, max);
        // SAFETY: as in `dequeue`, each item is a boxed `T` handed out
        // exactly once.
        out.extend(items.into_iter().map(|item| unsafe { from_item(item) }));
        taken
    }

    /// Returns an iterator that dequeues until the queue reports empty.
    pub fn drain(&self) -> TypedDrain<'_, T, R> {
        TypedDrain { queue: self }
    }
}

/// Draining iterator returned by [`Typed::drain`].
pub struct TypedDrain<'a, T: Send, R: TantrumRing> {
    queue: &'a Typed<T, R>,
}

impl<T: Send, R: TantrumRing> Iterator for TypedDrain<'_, T, R> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.queue.dequeue()
    }
}

/// Draining iterator returned by [`TypedLcrq::drain`].
pub type Drain<'a, T, P> = TypedDrain<'a, T, Crq<P>>;

/// Draining iterator returned by [`TypedLscq::drain`].
pub type LscqDrain<'a, T, P> = TypedDrain<'a, T, ScqD<P>>;

/// Draining iterator returned by [`TypedWcq::drain`].
pub type WcqTypedDrain<'a, T, P> = TypedDrain<'a, T, WcqRing<P>>;

impl<T: Send, R: TantrumRing> Default for Typed<T, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send, R: TantrumRing> core::fmt::Debug for Typed<T, R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Typed")
            .field("value_type", &core::any::type_name::<T>())
            .field("queue", &self.inner)
            .finish()
    }
}

impl<T: Send, R: TantrumRing> FromIterator<T> for Typed<T, R> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let q = Self::new();
        q.extend(iter);
        q
    }
}

impl<T: Send, R: TantrumRing> Extend<T> for Typed<T, R> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        Typed::extend(self, iter);
    }
}

impl<T: Send, R: TantrumRing> Drop for Typed<T, R> {
    fn drop(&mut self) {
        // Drain and drop any remaining boxed values before the rings go.
        while self.dequeue().is_some() {}
    }
}

// SAFETY: the queue owns boxed `T` values in transit; handing them across
// threads requires `T: Send` (already bounded on the struct).
unsafe impl<T: Send, R: TantrumRing> Send for Typed<T, R> {}
unsafe impl<T: Send, R: TantrumRing> Sync for Typed<T, R> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn fifo_of_strings() {
        let q: TypedLcrq<String> = TypedLcrq::new();
        for i in 0..100 {
            q.enqueue(format!("item-{i}"));
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(format!("item-{i}")));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn zero_sized_types_work() {
        // Box<()> still yields a unique-ish dangling pointer; ensure the
        // round trip works and nothing is lost.
        let q: TypedLcrq<()> = TypedLcrq::new();
        q.enqueue(());
        q.enqueue(());
        assert_eq!(q.dequeue(), Some(()));
        assert_eq!(q.dequeue(), Some(()));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn values_are_dropped_exactly_once() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let q: TypedLcrq<Counted> = TypedLcrq::new();
        for _ in 0..50 {
            q.enqueue(Counted(Arc::clone(&drops)));
        }
        for _ in 0..20 {
            drop(q.dequeue());
        }
        assert_eq!(drops.load(Ordering::SeqCst), 20);
        drop(q); // remaining 30 freed by the queue's Drop
        assert_eq!(drops.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn from_iterator_extend_and_drain() {
        let q: TypedLcrq<String> = ["a", "b"].into_iter().map(String::from).collect();
        q.extend(["c".to_string()]);
        let out: Vec<String> = q.drain().collect();
        assert_eq!(out, vec!["a", "b", "c"]);
        assert!(format!("{q:?}").contains("String"));
    }

    #[test]
    fn extend_and_drain_into_round_trip_through_the_batch_path() {
        let q: TypedLcrq<String> = TypedLcrq::new();
        q.extend((0..100).map(|i| format!("item-{i}"))); // &self: no mut
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out, 30), 30);
        assert_eq!(q.drain_into(&mut out, 1_000), 70, "short return = EMPTY");
        let expected: Vec<String> = (0..100).map(|i| format!("item-{i}")).collect();
        assert_eq!(out, expected);
        assert_eq!(q.drain_into(&mut out, 1), 0);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn extend_spills_across_tiny_rings() {
        let q: TypedLcrq<u32> = TypedLcrq::with_config(LcrqConfig::new().with_ring_order(3));
        q.extend(0..500u32);
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out, 500), 500);
        assert_eq!(out, (0..500).collect::<Vec<u32>>());
    }

    #[test]
    fn drain_into_appends_after_existing_contents() {
        let q: TypedLcrq<u8> = TypedLcrq::new();
        q.extend([10, 11]);
        let mut out = vec![9];
        assert_eq!(q.drain_into(&mut out, 5), 2);
        assert_eq!(out, vec![9, 10, 11]);
    }

    #[test]
    fn batch_moved_values_drop_exactly_once() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let q: TypedLcrq<Counted> = TypedLcrq::new();
        q.extend((0..50).map(|_| Counted(Arc::clone(&drops))));
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out, 20), 20);
        drop(out); // 20 drained values dropped here
        assert_eq!(drops.load(Ordering::SeqCst), 20);
        drop(q); // remaining 30 freed by the queue's Drop
        assert_eq!(drops.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn close_returns_ownership_and_drains_in_order() {
        let q: TypedLcrq<String> = TypedLcrq::new();
        assert_eq!(q.try_enqueue("a".into()), Ok(()));
        q.extend(["b".to_string(), "c".to_string()]);
        assert!(q.close());
        assert!(q.is_closed());
        assert!(!q.close());
        assert_eq!(q.try_enqueue("x".to_string()), Err("x".to_string()));
        let rejected = q
            .try_extend(vec!["y".to_string(), "z".to_string()])
            .unwrap_err();
        assert_eq!(rejected, vec!["y".to_string(), "z".to_string()]);
        let drained: Vec<String> = q.drain().collect();
        assert_eq!(drained, vec!["a", "b", "c"]);
    }

    #[test]
    fn rejected_values_drop_exactly_once() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let q: TypedLcrq<Counted> = TypedLcrq::new();
        q.enqueue(Counted(Arc::clone(&drops)));
        q.close();
        // Rejected scalar and batch values come back still owned; dropping
        // them must free each exactly once.
        drop(q.try_enqueue(Counted(Arc::clone(&drops))).unwrap_err());
        let rejected = q
            .try_extend((0..5).map(|_| Counted(Arc::clone(&drops))).collect())
            .unwrap_err();
        assert_eq!(rejected.len(), 5);
        drop(rejected);
        assert_eq!(drops.load(Ordering::SeqCst), 6);
        drop(q); // the one enqueued value freed by the queue's Drop
        assert_eq!(drops.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn lscq_fifo_of_strings() {
        let q: TypedLscq<String> = TypedLscq::with_config(LcrqConfig::new().with_ring_order(3));
        for i in 0..100 {
            q.enqueue(format!("item-{i}"));
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(format!("item-{i}")));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn lscq_values_are_dropped_exactly_once() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let q: TypedLscq<Counted> = TypedLscq::with_config(LcrqConfig::new().with_ring_order(2));
        for _ in 0..50 {
            q.enqueue(Counted(Arc::clone(&drops)));
        }
        for _ in 0..20 {
            drop(q.dequeue());
        }
        assert_eq!(drops.load(Ordering::SeqCst), 20);
        drop(q); // remaining 30 freed by the queue's Drop
        assert_eq!(drops.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn lscq_close_returns_ownership_and_drains_in_order() {
        let q: TypedLscq<String> = TypedLscq::new();
        assert_eq!(q.try_enqueue("a".into()), Ok(()));
        q.extend(["b".to_string(), "c".to_string()]);
        assert!(q.close());
        assert!(q.is_closed());
        assert_eq!(q.try_enqueue("x".to_string()), Err("x".to_string()));
        let drained: Vec<String> = q.drain().collect();
        assert_eq!(drained, vec!["a", "b", "c"]);
        assert!(format!("{q:?}").contains("String"));
    }

    #[test]
    fn wcq_fifo_of_strings() {
        let q: TypedWcq<String> = TypedWcq::with_config(LcrqConfig::new().with_ring_order(3));
        for i in 0..100 {
            q.enqueue(format!("item-{i}"));
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(format!("item-{i}")));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn wcq_values_are_dropped_exactly_once() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let q: TypedWcq<Counted> = TypedWcq::with_config(LcrqConfig::new().with_ring_order(2));
        for _ in 0..50 {
            q.enqueue(Counted(Arc::clone(&drops)));
        }
        for _ in 0..20 {
            drop(q.dequeue());
        }
        assert_eq!(drops.load(Ordering::SeqCst), 20);
        drop(q); // remaining 30 freed by the queue's Drop
        assert_eq!(drops.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn wcq_close_returns_ownership_and_drains_in_order() {
        let q: TypedWcq<String> = TypedWcq::new();
        assert_eq!(q.try_enqueue("a".into()), Ok(()));
        q.extend(["b".to_string(), "c".to_string()]);
        assert!(q.close());
        assert!(q.is_closed());
        assert_eq!(q.try_enqueue("x".to_string()), Err("x".to_string()));
        let drained: Vec<String> = q.drain().collect();
        assert_eq!(drained, vec!["a", "b", "c"]);
        assert!(format!("{q:?}").contains("String"));
    }

    #[test]
    fn mpmc_stress_typed() {
        let q: Arc<TypedLcrq<(usize, u64)>> =
            Arc::new(TypedLcrq::with_config(LcrqConfig::new().with_ring_order(4)));
        let producers = 3usize;
        let per = 3_000u64;
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..per {
                        q.enqueue((p, i));
                    }
                })
            })
            .collect();
        let total = producers as u64 * per;
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = 0;
                let mut last = [None; 8];
                while got < total {
                    if let Some((p, i)) = q.dequeue() {
                        if let Some(prev) = last[p] {
                            assert!(i > prev);
                        }
                        last[p] = Some(i);
                        got += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        consumer.join().unwrap();
        assert!(q.dequeue().is_none());
    }
}
