//! The list of rings — the Michael–Scott outer queue shared by every
//! unbounded backend (paper §4.2, Figure 5).
//!
//! LCRQ, LSCQ and wCQ are one algorithm over three rings. A [`RingList`]
//! links bounded *tantrum* rings (rings whose enqueue may refuse and
//! permanently close the ring) into an unbounded FIFO queue:
//!
//! * Enqueuers work in the tail ring. One that finds it closed allocates
//!   a fresh ring *pre-seeded with its item* and races to link it; the
//!   winner is done, losers release their ring and move into the new one.
//! * Dequeuers drain the head ring. One that finds it empty with a
//!   successor tries once more — the December-2013 erratum: without the
//!   second attempt an item enqueued between the first dequeue and the
//!   `next` check can be lost — and then swings `head` to the next ring,
//!   retiring the old one through hazard pointers.
//! * A queue-level `closed` flag plus a tantrum-close of the tail chain
//!   fences enqueuers for shutdown while dequeuers drain what was placed.
//!
//! Progress: op-wise nonblocking (§4.2.1) — some enqueue always completes
//! in a finite number of enqueuer steps (closing + linking always succeeds
//! for someone), and likewise for dequeues. Inside a ring the progress
//! class is the ring's own (wCQ's is wait-free).
//!
//! A ring joins by implementing [`TantrumRing`]; the trait carries only
//! what differs between rings.

use core::sync::atomic::{AtomicBool, AtomicIsize, AtomicPtr, Ordering};

use lcrq_atomic::{ops, FaaPolicy};
use lcrq_hazard::Domain;
use lcrq_queues::EnqueueError;
use lcrq_util::backoff::Backoff;
use lcrq_util::fault::{self, Site};
use lcrq_util::metrics::{self, Event};
use lcrq_util::CachePadded;

use crate::config::LcrqConfig;
use crate::crq::CrqClosed;
use crate::BOTTOM;

/// Hazard slot protecting the ring an operation is working in.
const HP_SLOT: usize = 0;

/// Hazard slot the list never holds; handed to [`TantrumRing::reuse`],
/// which runs while [`HP_SLOT`] still protects the closed tail ring.
const HP_REUSE_SLOT: usize = 1;

/// The `next` of a last ring sealed by a closed queue's fence: no ring can
/// be linked after it. A dangling address, never dereferenced.
#[inline]
fn sealed<R>() -> *mut R {
    core::ptr::NonNull::dangling().as_ptr()
}

/// A bounded ring with tantrum semantics that a [`RingList`] can link:
/// once an enqueue is refused the ring stays closed to enqueues, while
/// dequeues keep draining it.
pub trait TantrumRing: Sized + Send + Sync + 'static {
    /// The fetch-and-add policy the ring is built on.
    type Faa: FaaPolicy;
    /// Per-queue state for ring disposal: the CRQ's recycling pool, `()`
    /// for rings that are simply freed.
    type Pool: Send + Sync + core::fmt::Debug;

    /// Creates the queue's disposal state.
    fn new_pool(config: &LcrqConfig) -> Self::Pool;

    /// Allocates an open ring holding `seed` (at most
    /// [`capacity`](Self::capacity) values) that disposes through `pool`.
    fn with_seed(config: &LcrqConfig, pool: &Self::Pool, seed: &[u64]) -> Self;

    /// The link to the next ring of the list (null while this is the tail;
    /// sealed once the tail of a closed queue).
    fn next(&self) -> &AtomicPtr<Self>;

    /// Appends `value`, or refuses once the ring is closed.
    fn enqueue(&self, value: u64) -> Result<(), CrqClosed>;

    /// Removes the oldest value, or `None` when the ring is empty.
    fn dequeue(&self) -> Option<u64>;

    /// Closes the ring to enqueues (idempotent).
    fn close(&self);

    /// Whether the ring is closed.
    fn is_closed(&self) -> bool;

    /// Head index (racy diagnostic).
    fn head_index(&self) -> u64;

    /// Tail index without any closed bit (racy diagnostic).
    fn tail_index(&self) -> u64;

    /// Number of values a fresh ring holds: the cap on a spill seed.
    fn capacity(&self) -> u64;

    /// The registry name of a list of these rings under `config`.
    fn name(config: &LcrqConfig) -> &'static str;

    /// Runs before the abandonment double-check dequeue. SCQ and wCQ
    /// re-arm their threshold here, so the check really scans.
    #[inline]
    fn before_abandon(&self) {}

    /// Runs before every operation enters the ring (the LCRQ+H cluster
    /// gate).
    #[inline]
    fn enter(&self, _config: &LcrqConfig) {}

    /// Places a prefix of `values`; returns its length. A short count
    /// means the ring is closed and the rest must spill.
    fn enqueue_batch(&self, values: &[u64]) -> usize {
        values
            .iter()
            .take_while(|&&v| self.enqueue(v).is_ok())
            .count()
    }

    /// Moves up to `max` values into `out`; returns how many.
    fn dequeue_batch(&self, out: &mut Vec<u64>, max: usize) -> usize {
        let before = out.len();
        out.extend(core::iter::from_fn(|| self.dequeue()).take(max));
        out.len() - before
    }

    /// A recycled ring holding `seed`, taken before allocating a fresh one.
    /// `slot` is a hazard slot of `domain` that is free for the call.
    fn reuse(
        _pool: &Self::Pool,
        _domain: &Domain,
        _slot: usize,
        _seed: &[u64],
    ) -> Option<Box<Self>> {
        None
    }

    /// Disposes of a spill ring that lost its link race (never linked).
    fn release(ring: Box<Self>, _pool: &Self::Pool, _domain: &Domain) {
        drop(ring);
    }

    /// Disposes of a ring the head has swung past.
    ///
    /// # Safety
    ///
    /// `ring` is a `Box::into_raw` ring no longer reachable from the queue;
    /// only hazard-protected readers may still hold it.
    unsafe fn retire(ring: *mut Self, _pool: &Self::Pool, domain: &Domain) {
        // SAFETY: forwarded from this function's contract.
        unsafe { domain.retire(ring) };
    }
}

/// An unbounded, linearizable, op-wise nonblocking MPMC FIFO queue of `u64`
/// values (`< BOTTOM`): a Michael–Scott list of `R` rings.
///
/// ```
/// use lcrq_core::Lcrq;
/// let q = Lcrq::new();
/// q.enqueue(10);
/// assert_eq!(q.dequeue(), Some(10));
/// assert_eq!(q.dequeue(), None);
/// ```
pub struct RingList<R: TantrumRing> {
    head: CachePadded<AtomicPtr<R>>,
    tail: CachePadded<AtomicPtr<R>>,
    domain: Domain,
    /// Declared after `domain` so the domain drops first: reclaim callbacks
    /// running during domain teardown can still hand rings to the pool,
    /// which then frees everything it holds.
    pool: R::Pool,
    config: LcrqConfig,
    /// Queue-level shutdown flag (see [`close`](Self::close)). Distinct from
    /// per-ring tantrum closes, which only redirect enqueuers to a new ring.
    closed: AtomicBool,
    /// Rings linked from `head`: +1 after a successful link, −1 after a
    /// successful head swing. A swing can land before its successor's
    /// link is counted, so the value may briefly read low.
    rings: AtomicIsize,
}

impl<R: TantrumRing> RingList<R> {
    /// Creates an empty queue with the default [`LcrqConfig`].
    pub fn new() -> Self {
        Self::with_config(LcrqConfig::default())
    }

    /// Creates an empty queue with an explicit configuration
    /// (`ring_order` sets the per-ring capacity; knobs a ring does not use
    /// are ignored).
    pub fn with_config(config: LcrqConfig) -> Self {
        let pool = R::new_pool(&config);
        let first = Box::into_raw(Box::new(R::with_seed(&config, &pool, &[])));
        Self {
            head: CachePadded::new(AtomicPtr::new(first)),
            tail: CachePadded::new(AtomicPtr::new(first)),
            domain: Domain::new(),
            pool,
            config,
            closed: AtomicBool::new(false),
            rings: AtomicIsize::new(1),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &LcrqConfig {
        &self.config
    }

    /// The queue's hazard-pointer domain (diagnostic: lets tests assert the
    /// calling thread's retired-ring backlog stays within the domain's
    /// reclamation [`threshold`](Domain::threshold) even while other
    /// participants are stalled holding published hazards).
    pub fn hazard_domain(&self) -> &Domain {
        &self.domain
    }

    /// The queue's per-ring disposal state (see [`TantrumRing::Pool`]).
    pub(crate) fn pool(&self) -> &R::Pool {
        &self.pool
    }

    /// Produces a fresh open ring holding `seed`: recycled when the ring
    /// type offers one, otherwise heap-allocated.
    ///
    /// Returns `None` only when no ring was recycled **and** the allocation
    /// was refused — today that refusal exists only as the `ring-alloc`
    /// fail point, but it is the graceful-degradation path a real fallible
    /// allocator would use.
    fn alloc_ring(&self, seed: &[u64]) -> Option<*mut R> {
        if let Some(ring) = R::reuse(&self.pool, &self.domain, HP_REUSE_SLOT, seed) {
            return Some(Box::into_raw(ring));
        }
        if fault::inject(Site::RingAlloc) {
            metrics::inc(Event::AllocDegraded);
            return None;
        }
        let ring = R::with_seed(&self.config, &self.pool, seed);
        Some(Box::into_raw(Box::new(ring)))
    }

    /// The tantrum spill: races to link a fresh ring holding `seed` after
    /// the closed tail ring `ring` (hazard-protected by the caller).
    /// `Some(true)`: linked, so `seed` is enqueued; `Some(false)`: another
    /// enqueuer linked first and nothing was placed; `None`: the ring
    /// allocation was refused.
    fn spill(&self, ring: *mut R, seed: &[u64]) -> Option<bool> {
        // Fail point in the close-race window: between observing the
        // tantrum and racing to link a replacement ring.
        let _ = fault::inject(Site::CloseRace);
        let newring = self.alloc_ring(seed)?;
        // SAFETY: the caller holds `ring` hazard-protected.
        let next = unsafe { (*ring).next() };
        if ops::ptr::cas_ptr(next, core::ptr::null_mut(), newring).is_ok() {
            self.rings.fetch_add(1, Ordering::Relaxed);
            let _ = ops::ptr::cas_ptr(&self.tail, ring, newring);
            return Some(true);
        }
        // SAFETY: `newring` was never linked and is uniquely owned here.
        R::release(unsafe { Box::from_raw(newring) }, &self.pool, &self.domain);
        Some(false)
    }

    /// Appends `value` (must be `< BOTTOM`). Figure 5c.
    ///
    /// # Panics
    ///
    /// Panics if the queue has been [`close`](Self::close)d; use
    /// [`try_enqueue`](Self::try_enqueue) when shutdown is possible.
    pub fn enqueue(&self, value: u64) {
        if self.try_enqueue(value).is_err() {
            panic!("enqueue on a closed queue (use try_enqueue to handle shutdown)");
        }
    }

    /// Appends `value` (must be `< BOTTOM`) unless the queue has been
    /// [`close`](Self::close)d, in which case the value is handed back as
    /// `Err(value)`. This is the Figure 5c enqueue with a shutdown fence:
    /// the closed flag is checked at the top of each attempt *and* again
    /// after finding the tail ring tantrum-closed, so no enqueuer can
    /// append a fresh ring to a closed queue.
    pub fn try_enqueue(&self, value: u64) -> Result<(), u64> {
        // A refused ring allocation is transient (the pool can refill, the
        // injected refusal is probabilistic): back off and retry, keeping
        // "closed is the only failure". Callers that want to see the
        // refusal use `try_enqueue_fallible`.
        self.enqueue_with(core::slice::from_ref(&value), false, Self::place_one)
            .map_err(|_| value)
    }

    /// Like [`try_enqueue`](Self::try_enqueue), but also surfaces a refused
    /// ring allocation as [`EnqueueError::AllocFailed`] instead of retrying
    /// internally. The queue stays open and fully usable after an
    /// `AllocFailed` — the value was not placed and is handed back, so the
    /// caller may retry, shed load, or propagate the error.
    pub fn try_enqueue_fallible(&self, value: u64) -> Result<(), EnqueueError> {
        self.enqueue_with(core::slice::from_ref(&value), true, Self::place_one)
            .map_err(|(_, e)| e)
    }

    /// A scalar op's placement: [`TantrumRing::enqueue`] of `values[0]`.
    #[inline]
    fn place_one(ring: &R, values: &[u64]) -> usize {
        ring.enqueue(values[0]).is_ok() as usize
    }

    /// The one enqueue loop (Figure 5c), for scalar and batch ops alike:
    /// protect the tail ring, help a half-finished append, enter, let
    /// `place` put a prefix of the rest into the ring, and on a short
    /// count (the ring closed) check the shutdown fence and spill up to one
    /// ring's worth into a fresh ring. A lost link race backs off and
    /// retries; so does a refused allocation unless `surface_alloc`.
    /// `Err` carries how many leading values were placed, and the refusal
    /// for the first value that was not.
    #[inline]
    fn enqueue_with(
        &self,
        values: &[u64],
        surface_alloc: bool,
        place: impl Fn(&R, &[u64]) -> usize,
    ) -> Result<(), (usize, EnqueueError)> {
        for &v in values {
            assert!(v != BOTTOM, "BOTTOM (u64::MAX) is reserved");
        }
        let mut placed = 0;
        let mut backoff: Option<Backoff> = None;
        let outcome = loop {
            if placed == values.len() {
                break Ok(());
            }
            if self.closed.load(Ordering::SeqCst) {
                break Err((placed, EnqueueError::Closed(values[placed])));
            }
            let ring = self.domain.protect(HP_SLOT, &self.tail);
            // SAFETY: hazard-protected, so it cannot be reclaimed while we
            // use it.
            let ring_ref = unsafe { &*ring };
            // Help a half-finished append: tail must point at the last ring.
            let next = ring_ref.next().load(Ordering::SeqCst);
            if !next.is_null() && next != sealed() {
                let _ = ops::ptr::cas_ptr(&self.tail, ring, next);
                continue;
            }
            ring_ref.enter(&self.config);
            placed += place(ring_ref, &values[placed..]);
            if placed == values.len() {
                break Ok(());
            }
            debug_assert!(ring_ref.is_closed(), "a short placement means closed");
            // Shutdown close and tantrum close look the same at ring level
            // — distinguish them here: if the *queue* is closed, fail
            // instead of appending a fresh ring past the fence.
            if self.closed.load(Ordering::SeqCst) {
                break Err((placed, EnqueueError::Closed(values[placed])));
            }
            let rest = &values[placed..];
            let seed = &rest[..rest.len().min(ring_ref.capacity() as usize)];
            match self.spill(ring, seed) {
                Some(true) => placed += seed.len(),
                None if surface_alloc => {
                    break Err((placed, EnqueueError::AllocFailed(values[placed])))
                }
                // Lost the link race (the winner's ring has room, but under
                // heavy churn repeated losses waste an allocation each
                // round), or a transient allocation refusal: bounded
                // jittered backoff de-synchronizes the contenders.
                _ => backoff.get_or_insert_with(Backoff::jittered).spin(),
            }
        };
        self.domain.clear(HP_SLOT);
        outcome
    }

    /// Closes the queue for further enqueues: every subsequent
    /// [`try_enqueue`](Self::try_enqueue) fails and [`enqueue`](Self::enqueue)
    /// panics, while dequeues continue to drain what was already placed.
    /// Returns `true` on the first call, `false` if already closed.
    ///
    /// A queue-level flag is raised first, then every ring from the tail on
    /// is tantrum-closed and the last ring's `next` is sealed. Enqueuers
    /// already past the flag check are diverted into the "ring closed"
    /// path, where they re-check the flag and fail, and a spill that passed
    /// that re-check before the flag rose either links before the seal (its
    /// items are drained normally) or finds the seal and fails. A dequeue
    /// that finds the closed queue empty seals the last ring itself first,
    /// so once any caller has seen [`is_closed`](Self::is_closed), an EMPTY
    /// dequeue is final: no enqueue can succeed after it. No item is lost
    /// or double-freed; see DESIGN.md "Channel layer".
    pub fn close(&self) -> bool {
        if self.closed.swap(true, Ordering::SeqCst) {
            return false;
        }
        // Walk to the end of the chain, closing every ring from the current
        // tail on, so in-flight enqueuers are fenced no matter which ring
        // they are working in.
        loop {
            let ring = self.domain.protect(HP_SLOT, &self.tail);
            // SAFETY: hazard-protected.
            let next = Self::seal(unsafe { &*ring });
            if next == sealed() {
                self.domain.clear(HP_SLOT);
                return true;
            }
            let _ = ops::ptr::cas_ptr(&self.tail, ring, next);
        }
    }

    /// Closes `ring` and, if it is the last ring, seals its `next` so no
    /// ring can be linked after it. Returns the seal, or the ring linked
    /// after `ring` first.
    fn seal(ring: &R) -> *mut R {
        ring.close();
        match ops::ptr::cas_ptr(ring.next(), core::ptr::null_mut(), sealed()) {
            Ok(()) => sealed(),
            Err(next) => next,
        }
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Removes the oldest value, or `None` when the queue is empty.
    /// Figure 5b (December-2013 corrected version).
    pub fn dequeue(&self) -> Option<u64> {
        loop {
            let ring = self.domain.protect(HP_SLOT, &self.head);
            // SAFETY: hazard-protected.
            let ring_ref = unsafe { &*ring };
            ring_ref.enter(&self.config);
            if let Some(v) = ring_ref.dequeue() {
                self.domain.clear(HP_SLOT);
                return Some(v);
            }
            let mut next = ring_ref.next().load(Ordering::SeqCst);
            if next.is_null() {
                if !self.closed.load(Ordering::SeqCst) {
                    self.domain.clear(HP_SLOT);
                    return None;
                }
                // A closed queue: finish the fence before reporting EMPTY,
                // so the report is final even if `close` is still walking.
                next = Self::seal(ring_ref);
            }
            // An enqueue may have slipped into this ring between our failed
            // dequeue and the `next` read (the ring closes *after* accepting
            // its last items). Re-check before abandoning the ring — the
            // erratum fix (Figure 5b lines 146-147). The ring has a `next`
            // (or the seal), so it is closed and its tail frozen: the check
            // terminates.
            ring_ref.before_abandon();
            if let Some(v) = ring_ref.dequeue() {
                self.domain.clear(HP_SLOT);
                return Some(v);
            }
            if next == sealed() {
                // Closed, sealed and drained.
                self.domain.clear(HP_SLOT);
                return None;
            }
            let swung = ops::ptr::cas_ptr(&self.head, ring, next).is_ok();
            // Drop our own protection first so the retirement below can
            // reclaim `ring` immediately (we are done touching it).
            self.domain.clear(HP_SLOT);
            if swung {
                self.rings.fetch_sub(1, Ordering::Relaxed);
                // SAFETY: `ring` is now unreachable from the queue (head
                // moved past it and enqueuers long since moved to `next` or
                // later); hazard retirement defers reclamation until no
                // operation still holds it protected.
                unsafe { R::retire(ring, &self.pool, &self.domain) };
            }
        }
    }

    /// Appends every value in `values` (all must be `< BOTTOM`) through the
    /// ring's batch path (for the CRQ: one `FAA(tail, k)` claims up to `k`
    /// consecutive indices, see [`Crq::enqueue_batch`](crate::Crq::enqueue_batch)).
    ///
    /// **Linearizability**: this is *not* an atomic multi-enqueue. It
    /// linearizes as `values.len()` individual enqueues in slice order.
    /// When the tail ring closes mid-batch (tantrum), the unplaced
    /// remainder spills into the fresh ring this thread races to append —
    /// pre-seeded, so the spill costs no further F&As — and a concurrent
    /// enqueuer may slip between the two parts. See DESIGN.md "Batched
    /// operations".
    ///
    /// # Panics
    ///
    /// Panics if the queue has been [`close`](Self::close)d; use
    /// [`try_enqueue_batch`](Self::try_enqueue_batch) when shutdown is
    /// possible (a close racing mid-batch can leave a prefix placed — the
    /// panic reports nothing was rolled back).
    pub fn enqueue_batch(&self, values: &[u64]) {
        if let Err(placed) = self.try_enqueue_batch(values) {
            panic!(
                "enqueue_batch on a closed queue ({placed}/{} items placed; \
                 use try_enqueue_batch to handle shutdown)",
                values.len()
            );
        }
    }

    /// Batch counterpart of [`try_enqueue`](Self::try_enqueue): appends
    /// every value unless the queue is [`close`](Self::close)d. On shutdown
    /// `Err(placed)` reports how many leading items of `values` made it into
    /// the queue before the close was observed (they will be drained by
    /// receivers like any other items); the remainder `values[placed..]` was
    /// not enqueued and stays owned by the caller.
    pub fn try_enqueue_batch(&self, values: &[u64]) -> Result<(), usize> {
        self.enqueue_with(values, false, R::enqueue_batch)
            .map_err(|(placed, _)| placed)
    }

    /// Removes up to `max` of the oldest values, appending them to `out` in
    /// queue order; returns how many were removed. A return `< max` is a
    /// linearizable EMPTY observation, exactly like a scalar
    /// [`dequeue`](Self::dequeue) returning `None`.
    ///
    /// Takes values through the ring's batch path (for the CRQ: one
    /// `FAA(head, k)` bounded by the observed backlog). When it finds
    /// nothing, one scalar dequeue performs the December-2013 erratum
    /// double-check and the head-ring switch, then batches resume on the
    /// new ring. Each removed item linearizes as an individual dequeue.
    pub fn dequeue_batch(&self, out: &mut Vec<u64>, max: usize) -> usize {
        let mut taken = 0usize;
        while taken < max {
            let ring = self.domain.protect(HP_SLOT, &self.head);
            // SAFETY: hazard-protected.
            let ring_ref = unsafe { &*ring };
            ring_ref.enter(&self.config);
            let got = ring_ref.dequeue_batch(out, max - taken);
            taken += got;
            if got > 0 {
                continue;
            }
            // The batch found nothing: one scalar dequeue settles emptiness
            // and switches rings. It re-protects and clears HP_SLOT itself.
            match self.dequeue() {
                Some(v) => {
                    out.push(v);
                    taken += 1;
                }
                None => break, // linearizable EMPTY
            }
        }
        self.domain.clear(HP_SLOT);
        taken
    }

    /// Whether the queue appears empty (racy snapshot; `dequeue` is the
    /// linearizable way to observe emptiness).
    pub fn is_empty_hint(&self) -> bool {
        let ring = self.domain.protect(HP_SLOT, &self.head);
        // SAFETY: hazard-protected.
        let ring_ref = unsafe { &*ring };
        let next = ring_ref.next().load(Ordering::SeqCst);
        let empty =
            ring_ref.head_index() >= ring_ref.tail_index() && (next.is_null() || next == sealed());
        self.domain.clear(HP_SLOT);
        empty
    }

    /// Number of rings currently linked (racy diagnostic: exact when
    /// quiescent; reads no ring, so it is safe on a live queue).
    pub fn ring_count(&self) -> usize {
        self.rings.load(Ordering::Relaxed).max(1) as usize
    }

    /// Returns an iterator that dequeues until the queue reports empty.
    /// Safe to use concurrently with other operations (it is just repeated
    /// `dequeue`); it ends at the first linearizable EMPTY it observes.
    pub fn drain(&self) -> Drain<'_, R> {
        Drain { queue: self }
    }
}

/// Draining iterator returned by [`RingList::drain`].
pub struct Drain<'a, R: TantrumRing> {
    queue: &'a RingList<R>,
}

impl<R: TantrumRing> Iterator for Drain<'_, R> {
    type Item = u64;
    fn next(&mut self) -> Option<u64> {
        self.queue.dequeue()
    }
}

impl<R: TantrumRing> Default for RingList<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: TantrumRing> core::fmt::Debug for RingList<R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RingList")
            .field("kind", &R::name(&self.config))
            .field("faa_policy", &<R::Faa as FaaPolicy>::name())
            .field("ring_order", &self.config.ring_order)
            .field("rings", &self.ring_count())
            .field("closed", &self.is_closed())
            .field("pool", &self.pool)
            .finish()
    }
}

impl<R: TantrumRing> FromIterator<u64> for RingList<R> {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut q = Self::new();
        q.extend(iter);
        q
    }
}

impl<R: TantrumRing> Extend<u64> for RingList<R> {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        let values: Vec<u64> = iter.into_iter().collect();
        self.enqueue_batch(&values);
    }
}

impl<R: TantrumRing> Drop for RingList<R> {
    fn drop(&mut self) {
        // Exclusive access: free the whole ring chain. Rings retired earlier
        // but not yet reclaimed are dispatched when `domain` drops (before
        // `pool`, see field order). A pooled CRQ is never also on the chain:
        // scrubbing nulls its `next`, which then only links pooled rings.
        let mut cur = *self.head.get_mut();
        while !cur.is_null() && cur != sealed() {
            // SAFETY: exclusive access in drop.
            let ring = unsafe { Box::from_raw(cur) };
            cur = ring.next().load(Ordering::Relaxed);
        }
    }
}

impl<R: TantrumRing> lcrq_queues::ConcurrentQueue for RingList<R> {
    fn enqueue(&self, value: u64) {
        RingList::enqueue(self, value)
    }
    fn dequeue(&self) -> Option<u64> {
        RingList::dequeue(self)
    }
    fn enqueue_batch(&self, values: &[u64]) {
        RingList::enqueue_batch(self, values)
    }
    fn dequeue_batch(&self, out: &mut Vec<u64>, max: usize) -> usize {
        RingList::dequeue_batch(self, out, max)
    }
    fn name(&self) -> &'static str {
        R::name(&self.config)
    }
    fn is_nonblocking(&self) -> bool {
        true
    }
}

impl<R: TantrumRing> lcrq_queues::ClosableQueue for RingList<R> {
    fn close(&self) -> bool {
        RingList::close(self)
    }
    fn is_closed(&self) -> bool {
        RingList::is_closed(self)
    }
    fn try_enqueue(&self, value: u64) -> Result<(), u64> {
        RingList::try_enqueue(self, value)
    }
    // Native override: surfaces a refused ring allocation as
    // `AllocFailed` instead of the default's retry-until-closed.
    fn try_enqueue_fallible(&self, value: u64) -> Result<(), EnqueueError> {
        RingList::try_enqueue_fallible(self, value)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    use super::{RingList, TantrumRing};
    use crate::config::LcrqConfig;
    use crate::{Crq, ScqD, WcqRing};

    /// Formats the queue and reads its ring count while two threads churn
    /// it through R = 8 rings, so rings are linked and retired throughout.
    fn observe_while_churning<R: TantrumRing>() {
        let q = RingList::<R>::with_config(LcrqConfig::new().with_ring_order(3));
        let stop = AtomicBool::new(false);
        let rounds = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (q, stop, rounds) = (&q, &stop, &rounds);
                s.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for j in 0..20 {
                            q.enqueue((t << 40) | (i + j));
                        }
                        for _ in 0..20 {
                            let _ = q.dequeue();
                        }
                        i += 20;
                        rounds.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            // Each round of 20 spills at least one R = 8 ring.
            let mut observed = 0u64;
            while observed < 2_000 || rounds.load(Ordering::Relaxed) < 500 {
                observed += 1;
                let text = format!("{q:?}");
                assert!(text.contains("rings"), "{text}");
                std::hint::black_box(q.ring_count());
            }
            stop.store(true, Ordering::Relaxed);
        });
        while q.dequeue().is_some() {}
        assert_eq!(
            q.ring_count(),
            1,
            "a drained queue keeps only its tail ring"
        );
    }

    /// R = 8 and a 1000-item batch: the tail ring closes mid-batch over a
    /// hundred times; every remainder spills (capped at the ring's own
    /// capacity) into a fresh seeded ring and FIFO order must survive the
    /// whole chain.
    fn batch_spills_in_order<R: TantrumRing>() {
        let q = RingList::<R>::with_config(LcrqConfig::new().with_ring_order(3));
        let values: Vec<u64> = (0..1_000).collect();
        q.enqueue_batch(&values);
        assert!(q.ring_count() > 1, "tiny rings must have spilled");
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 2_000), 1_000);
        assert_eq!(out, values);
        assert_eq!(q.dequeue(), None);
    }

    /// Fills several rings with scalar enqueues, then drains with one big
    /// batch dequeue: the scalar fallback inside `dequeue_batch` must
    /// retire exhausted rings (erratum double-check included) and resume
    /// batches on the next ring.
    fn batch_dequeue_switches<R: TantrumRing>() {
        let q = RingList::<R>::with_config(LcrqConfig::new().with_ring_order(3));
        for i in 0..300 {
            q.enqueue(i);
        }
        let before = q.ring_count();
        assert!(before > 1);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 300), 300);
        assert_eq!(out, (0..300).collect::<Vec<u64>>());
        assert!(q.ring_count() <= before);
        assert_eq!(q.dequeue(), None);
    }

    /// A batch on a closed queue places nothing and reports `Err(0)`.
    fn batch_after_close_places_nothing<R: TantrumRing>() {
        let q = RingList::<R>::with_config(LcrqConfig::new().with_ring_order(3));
        q.enqueue(1);
        assert!(q.close());
        assert_eq!(q.try_enqueue_batch(&[2, 3, 4]), Err(0));
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), None);
    }

    /// Producers race `close` on R = 2 rings, so nearly every enqueue
    /// spills. Once the closer has seen the queue EMPTY, that must be
    /// final: no enqueue may still succeed, so nothing is left over after
    /// the producers finish.
    fn empty_after_close_is_final<R: TantrumRing>() {
        for round in 0..1_000 {
            let q = RingList::<R>::with_config(LcrqConfig::new().with_ring_order(1));
            let accepted = AtomicU64::new(0);
            let drained = std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        while q.try_enqueue(7).is_ok() {
                            accepted.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
                while accepted.load(Ordering::Relaxed) < 8 * (round % 5) {
                    std::thread::yield_now();
                }
                q.close();
                q.drain().count() as u64
            });
            assert_eq!(
                q.dequeue(),
                None,
                "round {round}: an item landed after EMPTY"
            );
            assert_eq!(drained, accepted.into_inner(), "round {round}");
        }
    }

    /// The list drives the CRQ batch path the way it drives a scalar
    /// enqueue: with `starvation_limit = 2` and the tail ring's next two
    /// indices poisoned, both starve, close the ring and spill the value
    /// into a second ring.
    #[test]
    fn batch_enqueue_starving_closes_the_ring_like_scalar() {
        type Enqueue = fn(&RingList<Crq>, u64);
        let scalar: Enqueue = |q, v| q.try_enqueue(v).unwrap();
        let batch: Enqueue = |q, v| q.try_enqueue_batch(&[v]).unwrap();
        for enqueue in [scalar, batch] {
            let config = LcrqConfig::new()
                .with_ring_order(4)
                .with_starvation_limit(2);
            let q = RingList::<Crq>::with_config(config);
            // SAFETY: the first ring stays linked (nothing dequeues it away).
            let first = unsafe { &*q.tail.load(Ordering::SeqCst) };
            crate::crq::tests::poison_tail(first, 2);
            enqueue(&q, 7);
            assert!(first.is_closed(), "a starving enqueue closes its ring");
            assert_eq!(q.ring_count(), 2, "the value spilled to a new ring");
            assert_eq!(q.dequeue(), Some(7));
        }
    }

    #[test]
    fn empty_dequeue_after_close_is_final() {
        empty_after_close_is_final::<Crq>();
        empty_after_close_is_final::<ScqD>();
        empty_after_close_is_final::<WcqRing>();
    }

    #[test]
    fn batch_spills_across_tiny_rings_in_order() {
        batch_spills_in_order::<Crq>();
        batch_spills_in_order::<ScqD>();
        batch_spills_in_order::<WcqRing>();
    }

    #[test]
    fn batch_dequeue_switches_rings() {
        batch_dequeue_switches::<Crq>();
        batch_dequeue_switches::<ScqD>();
        batch_dequeue_switches::<WcqRing>();
    }

    #[test]
    fn batch_enqueue_after_close_places_nothing() {
        batch_after_close_places_nothing::<Crq>();
        batch_after_close_places_nothing::<ScqD>();
        batch_after_close_places_nothing::<WcqRing>();
    }

    #[test]
    fn ring_count_and_debug_are_safe_on_a_live_queue() {
        observe_while_churning::<Crq>();
        observe_while_churning::<ScqD>();
        observe_while_churning::<WcqRing>();
    }
}
