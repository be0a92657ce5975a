//! SCQ — the scalable circular queue of Nikolaev (arXiv:1908.04511), the
//! portable successor to the CRQ ring.
//!
//! Like the CRQ, an SCQ spreads threads over ring slots with fetch-and-add
//! on `head`/`tail` so that contended F&A does the heavy lifting. Unlike
//! the CRQ it needs only **single-word CAS**: a slot is one 64-bit word
//! packing `(cycle, is_safe, index)`, where the index field addresses one
//! of the ring's `2n` entries and the all-ones pattern is ⊥ (empty). Three
//! ideas replace the CRQ's double-width CAS and starvation counter:
//!
//! * **Cycle tags.** Position `p` lives in slot `p mod 2n` at cycle
//!   `p / 2n`; a dequeuer may consume only an entry whose cycle matches its
//!   own, so the consume itself is an unconditional `fetch_or` that sets
//!   the index field to ⊥ (no failure path — the consume right is
//!   exclusive, and the OR preserves a racing unsafe-marking).
//! * **Threshold counter.** Every unsuccessful dequeue attempt decrements a
//!   shared counter initialized to `3n - 1` (reset by each enqueue); once
//!   it goes negative, dequeuers report EMPTY *before* touching `head`.
//!   This bounds the number of F&As an empty-dequeue storm can waste and is
//!   the livelock-freedom argument (the CRQ instead closes the ring).
//! * **Catchup.** When a dequeue observes `tail <= head + 1`, it CASes the
//!   lagging `tail` forward so enqueuers do not burn F&As walking positions
//!   the dequeuers already invalidated (the CRQ's `fix_state` analogue).
//!
//! An SCQ stores `n`-bounded *indices*, not arbitrary values: callers must
//! keep at most `n` values in circulation (the index-queue contract), which
//! is what makes enqueue's retry loop terminate without a full check. The
//! [`ScqD`] pairing below restores arbitrary `u64` payloads: a free-index
//! ring `fq` (initially full) and an allocated-index ring `aq` shuttle the
//! indices of `n` data slots, so `enqueue(v)` is "pop a slot from `fq`,
//! write `v`, push the slot into `aq`" and dequeue is the mirror image.
//! `ScqD` also reuses the CRQ's tantrum convention (CLOSED bit 63 of the
//! `aq` tail) so [`Lscq`](crate::Lscq) can link rings exactly like LCRQ.
//!
//! Everything here is single-word: this is the one backend in the repo
//! that would run unchanged on non-x86 targets (no `CMPXCHG16B`).

use core::marker::PhantomData;
use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use lcrq_atomic::{ops, FaaPolicy, HardwareFaa};
use lcrq_util::metrics::{self, Event};
use lcrq_util::{adversary, CachePadded};

use crate::config::LcrqConfig;
use crate::crq::CrqClosed;
use crate::cycle::{CycleRing, CLOSED_BIT};

/// A bounded ring of *indices* in `0..capacity`, the SCQ of Nikolaev
/// (arXiv:1908.04511 Figure 9), generic over the fetch-and-add policy.
///
/// Entries are single 64-bit words `(cycle << (k+2)) | (safe << (k+1)) |
/// index` for capacity `2^k`; the ring has `2n = 2^(k+1)` entries and the
/// all-ones index pattern is ⊥. Callers must keep at most `capacity`
/// indices in circulation (pop before re-push) — [`ScqD`] enforces this
/// structurally. Most users want [`ScqD`] or the unbounded
/// [`Lscq`](crate::Lscq). Positions, cycles, threshold and the finalized
/// bit live in the cycle core (`cycle.rs`) shared with wCQ.
pub struct Scq<P: FaaPolicy = HardwareFaa> {
    ring: CycleRing<AtomicU64>,
    _marker: PhantomData<P>,
}

impl<P: FaaPolicy> Scq<P> {
    /// An empty index ring with capacity `2^order` (so `2^(order+1)`
    /// entries), every entry ⊥ at cycle 0.
    pub fn new_empty(order: u32) -> Self {
        let q = Scq {
            ring: CycleRing::new(order, || AtomicU64::new(0)),
            _marker: PhantomData,
        };
        let bottom = q.bottom_index();
        for e in q.ring.entries.iter() {
            e.store(q.pack(0, true, bottom), Ordering::Relaxed);
        }
        q
    }

    /// A *full* index ring holding `0..2^order` in order — the initial
    /// state of an [`ScqD`] free-index ring.
    pub fn new_full(order: u32) -> Self {
        let q = Self::new_empty(order);
        let base = q.ring.entries.len() as u64;
        for k in 0..q.capacity() {
            let pos = base + k;
            let j = q.ring.remap(pos);
            q.ring.entries[j].store(q.pack(q.ring.cycle_of(pos), true, k), Ordering::Relaxed);
        }
        q.ring.tail.store(base + q.capacity(), Ordering::Relaxed);
        q.ring.reset_threshold();
        q
    }

    /// Number of indices the ring can circulate (`2^order`); half the
    /// entry-array size.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.ring.capacity()
    }

    /// The ⊥ pattern: all ones in the index field (`2n - 1`). Stored
    /// indices must be strictly below this.
    #[inline]
    fn bottom_index(&self) -> u64 {
        (1u64 << self.ring.array_order) - 1
    }

    #[inline]
    fn pack(&self, cycle: u64, safe: bool, index: u64) -> u64 {
        let order = self.ring.array_order;
        (cycle << (order + 1)) | ((safe as u64) << order) | index
    }

    /// Splits an entry into `(cycle, is_safe, index)`.
    #[inline]
    fn unpack(&self, entry: u64) -> (u64, bool, u64) {
        let order = self.ring.array_order;
        (
            entry >> (order + 1),
            entry & (1 << order) != 0,
            entry & self.bottom_index(),
        )
    }

    /// Appends index `index` (must be `< capacity`). Fails only once the
    /// ring is [`finalize`](Self::finalize)d — there is no full check, per
    /// the index-queue contract (at most `capacity` indices circulating).
    pub fn enqueue(&self, index: u64) -> Result<(), CrqClosed> {
        debug_assert!(index < self.capacity(), "SCQ stores ring indices only");
        let ring = &self.ring;
        loop {
            let t = P::fetch_add(&ring.tail, 1);
            if t & CLOSED_BIT != 0 {
                return Err(CrqClosed);
            }
            let tcycle = ring.cycle_of(t);
            let entry = &ring.entries[ring.remap(t)];
            let mut e = entry.load(Ordering::SeqCst);
            loop {
                metrics::inc(Event::NodeVisit);
                let (ecycle, safe, idx) = self.unpack(e);
                if ecycle < tcycle && idx == self.bottom_index() && (safe || ring.head_index() <= t)
                {
                    // The read→CAS window a preemption can waste. A `Fail`
                    // here is a spurious CAS miss: re-read and retry, the
                    // same path a lost race takes.
                    adversary::preempt_point();
                    if lcrq_util::fault::inject(lcrq_util::fault::Site::ScqEnqueue) {
                        e = entry.load(Ordering::SeqCst);
                        continue;
                    }
                    match ops::cas(entry, e, self.pack(tcycle, true, index)) {
                        Ok(()) => {
                            ring.arm_threshold();
                            return Ok(());
                        }
                        Err(cur) => {
                            e = cur;
                            continue;
                        }
                    }
                }
                break; // slot unusable at this cycle: take the next position
            }
        }
    }

    /// Removes the oldest index, or `None` when the ring is empty.
    pub fn dequeue(&self) -> Option<u64> {
        let ring = &self.ring;
        if ring.exhausted() {
            return None;
        }
        loop {
            let h = P::fetch_add(&ring.head, 1);
            let hcycle = ring.cycle_of(h);
            let entry = &ring.entries[ring.remap(h)];
            let mut e = entry.load(Ordering::SeqCst);
            loop {
                metrics::inc(Event::NodeVisit);
                let (ecycle, safe, idx) = self.unpack(e);
                if ecycle == hcycle && idx != self.bottom_index() {
                    // Dequeue transition: only position h's owner may
                    // consume slot j at this cycle, so the unconditional OR
                    // (index := ⊥) cannot clobber anything except a racing
                    // unsafe-marking, which it preserves.
                    adversary::preempt_point();
                    // `Fail` = spurious consume failure: re-read the slot
                    // and re-run the transition logic before the fetch-OR.
                    if lcrq_util::fault::inject(lcrq_util::fault::Site::ScqDequeue) {
                        e = entry.load(Ordering::SeqCst);
                        continue;
                    }
                    let (_, _, v) = self.unpack(ops::or_bits(entry, self.bottom_index()));
                    debug_assert!(v != self.bottom_index());
                    return Some(v);
                }
                if ecycle < hcycle {
                    let new = if idx == self.bottom_index() {
                        // Empty transition: advance the slot to our cycle so
                        // no same-or-older enqueue can use it.
                        self.pack(hcycle, safe, idx)
                    } else {
                        // Unsafe transition: an unconsumed previous-lap
                        // entry; force its future enqueuers through the
                        // `head <= t` re-validation.
                        self.pack(ecycle, false, idx)
                    };
                    if new != e {
                        adversary::preempt_point();
                        if let Err(cur) = ops::cas(entry, e, new) {
                            e = cur;
                            continue;
                        }
                        metrics::inc(if idx == self.bottom_index() {
                            Event::EmptyTransition
                        } else {
                            Event::UnsafeTransition
                        });
                    }
                }
                // Failed attempt (transitioned, or lapped by a later
                // cycle): decide whether the queue looked empty.
                if ring.spend(h) {
                    return None;
                }
                break; // next head position
            }
        }
    }

    /// Re-arms the threshold to its maximum, forcing the next dequeue to
    /// actually scan the ring even if the counter was exhausted (see
    /// [`TantrumRing::before_abandon`](crate::TantrumRing::before_abandon)).
    pub fn reset_threshold(&self) {
        self.ring.reset_threshold();
    }

    /// Closes the ring to further enqueues (tantrum-style, `LOCK BTS` on
    /// tail bit 63). Returns `true` if this call closed it.
    pub fn finalize(&self) -> bool {
        self.ring.close()
    }

    /// Whether [`finalize`](Self::finalize) has been called.
    pub fn is_finalized(&self) -> bool {
        self.ring.is_closed()
    }

    /// The head position (next to dequeue). Diagnostic.
    #[inline]
    pub fn head_index(&self) -> u64 {
        self.ring.head_index()
    }

    /// The tail position (next to enqueue), with the finalized bit masked
    /// off. Diagnostic.
    #[inline]
    pub fn tail_index(&self) -> u64 {
        self.ring.tail_index()
    }

    /// The current threshold value. Diagnostic (tests assert the
    /// livelock-freedom bound through this).
    pub fn threshold(&self) -> i64 {
        self.ring.threshold.load(Ordering::SeqCst)
    }
}

// SAFETY: all state is atomic words.
unsafe impl<P: FaaPolicy> Send for Scq<P> {}
unsafe impl<P: FaaPolicy> Sync for Scq<P> {}

/// An SCQ ring carrying arbitrary `u64` payloads through index
/// indirection (Nikolaev §2.3): a free-index ring `fq` (initially full)
/// and an allocated-index ring `aq` shuttle the indices of `capacity`
/// data slots. Enqueue pops a slot index from `fq`, writes the value,
/// pushes the index into `aq`; dequeue mirrors it. Index ownership is
/// exclusive between the two rings, so the data-slot accesses never race.
///
/// Tantrum semantics like [`Crq`](crate::Crq): an enqueue that finds no
/// free slot closes the ring and returns [`CrqClosed`], permanently — the
/// signal [`Lscq`](crate::Lscq) uses to link a fresh ring.
pub struct ScqD<P: FaaPolicy = HardwareFaa> {
    /// Indices of slots holding live values.
    aq: Scq<P>,
    /// Free slot indices; starts full, never finalized.
    fq: Scq<P>,
    /// The value slots. `data[i]` is owned by whichever thread holds index
    /// `i` between a ring pop and the matching push; atomics (rather than
    /// `UnsafeCell`) keep the handoff visibly race-free.
    data: Box<[AtomicU64]>,
    /// The next ring in an LSCQ list (null while this is the tail ring).
    pub(crate) next: CachePadded<AtomicPtr<ScqD<P>>>,
}

impl<P: FaaPolicy> ScqD<P> {
    /// An empty ring with capacity `config.ring_size()`.
    pub fn new(config: &LcrqConfig) -> Self {
        metrics::inc(Event::RingAlloc);
        let order = config.ring_size().trailing_zeros();
        let n = 1usize << order;
        ScqD {
            aq: Scq::new_empty(order),
            fq: Scq::new_full(order),
            data: (0..n).map(|_| AtomicU64::new(0)).collect(),
            next: CachePadded::new(AtomicPtr::new(core::ptr::null_mut())),
        }
    }

    /// An empty ring pre-loaded with `seed` (at most `capacity` values) —
    /// how the LSCQ spill path hands its item to a fresh ring without
    /// re-contending.
    pub fn with_seed(config: &LcrqConfig, seed: &[u64]) -> Self {
        let q = Self::new(config);
        for &v in seed {
            let placed = q.enqueue(v);
            debug_assert!(placed.is_ok(), "seeding a fresh ring cannot fail");
            let _ = placed;
        }
        q
    }

    /// Number of values the ring can hold.
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    /// Appends `value` (any `u64`). Fails with [`CrqClosed`] once the ring
    /// is closed — including the self-inflicted close when no free slot is
    /// available (the tantrum).
    pub fn enqueue(&self, value: u64) -> Result<(), CrqClosed> {
        if self.is_closed() {
            return Err(CrqClosed);
        }
        let Some(i) = self.fq.dequeue() else {
            // No free slot: the ring is full (or transiently looks full).
            // Throw the tantrum so an LSCQ spills into a fresh ring.
            self.close();
            return Err(CrqClosed);
        };
        self.data[i as usize].store(value, Ordering::SeqCst);
        if self.aq.enqueue(i).is_err() {
            // Finalized under us. Hand the slot back so the index count
            // stays exact, and report the tantrum; the caller's item was
            // never published, so no double-delivery is possible.
            self.fq
                .enqueue(i)
                .expect("the free-index ring is never finalized");
            return Err(CrqClosed);
        }
        Ok(())
    }

    /// Removes the oldest value, or `None` when the ring is empty. Keeps
    /// draining after a close (tantrum queues refuse enqueues, not
    /// dequeues).
    pub fn dequeue(&self) -> Option<u64> {
        let i = self.aq.dequeue()?;
        let v = self.data[i as usize].load(Ordering::SeqCst);
        self.fq
            .enqueue(i)
            .expect("the free-index ring is never finalized");
        Some(v)
    }

    /// Closes the ring to further enqueues (idempotent). Returns `true` if
    /// this call closed it.
    pub fn close(&self) -> bool {
        self.aq.finalize()
    }

    /// Whether the ring has been closed.
    pub fn is_closed(&self) -> bool {
        self.aq.is_finalized()
    }

    /// Re-arms the allocated ring's threshold; see
    /// [`Scq::reset_threshold`].
    pub fn reset_threshold(&self) {
        self.aq.reset_threshold();
    }

    /// Head position of the allocated ring (diagnostic).
    pub fn head_index(&self) -> u64 {
        self.aq.head_index()
    }

    /// Tail position of the allocated ring (diagnostic).
    pub fn tail_index(&self) -> u64 {
        self.aq.tail_index()
    }
}

// SAFETY: all state is atomic; `next` is managed by the owning Lscq.
unsafe impl<P: FaaPolicy> Send for ScqD<P> {}
unsafe impl<P: FaaPolicy> Sync for ScqD<P> {}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrq_atomic::CasLoopFaa;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Mutex};

    // The metrics aggregate is process-wide: serialize tests that bracket
    // it (same pattern as crq.rs / faa.rs).
    static METRICS_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn entry_packing_round_trips() {
        let q: Scq = Scq::new_empty(4);
        for (cycle, safe, idx) in [(0, true, 0), (3, false, 7), (99, true, 31), (7, false, 30)] {
            let e = q.pack(cycle, safe, idx);
            assert_eq!(q.unpack(e), (cycle, safe, idx));
        }
        // ⊥ is all-ones in the index field of a 2^5-entry ring.
        assert_eq!(q.bottom_index(), 31);
    }

    #[test]
    fn remap_is_a_permutation_and_spreads_neighbours() {
        let q: Scq = Scq::new_empty(6); // 128 entries
        let slots = q.ring.entries.len();
        let mut seen = vec![false; slots];
        for p in 0..slots as u64 {
            let j = q.ring.remap(p);
            assert!(!seen[j], "remap must be a bijection");
            seen[j] = true;
        }
        // Consecutive positions land 8 entries (one cache line) apart.
        assert_eq!(q.ring.remap(1).abs_diff(q.ring.remap(0)), 8);
    }

    #[test]
    fn empty_ring_dequeues_none_without_faa() {
        let _g = METRICS_LOCK.lock().unwrap();
        let q: Scq = Scq::new_empty(3);
        let before = lcrq_util::metrics::local_snapshot();
        assert_eq!(q.dequeue(), None);
        let after = lcrq_util::metrics::local_snapshot();
        // Fresh ring: threshold starts exhausted, EMPTY costs zero F&As.
        assert_eq!(after.get(Event::Faa), before.get(Event::Faa));
        assert_eq!(
            after.get(Event::ThresholdExhausted),
            before.get(Event::ThresholdExhausted) + 1
        );
    }

    #[test]
    fn index_ring_is_fifo_within_capacity() {
        let q: Scq = Scq::new_empty(4);
        for _lap in 0..10 {
            for i in 0..q.capacity() {
                q.enqueue(i).unwrap();
            }
            for i in 0..q.capacity() {
                assert_eq!(q.dequeue(), Some(i));
            }
            assert_eq!(q.dequeue(), None);
        }
    }

    #[test]
    fn full_ring_hands_out_every_index_in_order() {
        let q: Scq = Scq::new_full(3);
        for i in 0..8 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
        // And keeps cycling.
        q.enqueue(5).unwrap();
        assert_eq!(q.dequeue(), Some(5));
    }

    #[test]
    fn finalize_refuses_enqueues_but_drains() {
        let q: Scq = Scq::new_empty(3);
        q.enqueue(1).unwrap();
        q.enqueue(2).unwrap();
        assert!(q.finalize());
        assert!(!q.finalize(), "second finalize is a no-op");
        assert!(q.is_finalized());
        assert_eq!(q.enqueue(3), Err(CrqClosed));
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn threshold_exhausts_and_rearms() {
        let q: Scq = Scq::new_empty(2);
        q.enqueue(1).unwrap();
        assert_eq!(q.threshold(), q.ring.threshold_max());
        assert_eq!(q.dequeue(), Some(1));
        // Drive the counter negative with empty dequeues.
        let mut spins = 0;
        while q.threshold() >= 0 {
            assert_eq!(q.dequeue(), None);
            spins += 1;
            assert!(spins <= 4 * q.ring.entries.len(), "threshold must decay");
        }
        // Exhausted: head stops moving.
        let head = q.head_index();
        for _ in 0..64 {
            assert_eq!(q.dequeue(), None);
        }
        assert_eq!(q.head_index(), head);
        // An enqueue re-arms it.
        q.enqueue(2).unwrap();
        assert!(q.threshold() >= 0);
        assert_eq!(q.dequeue(), Some(2));
    }

    #[test]
    fn catchup_repairs_a_lagging_tail() {
        let q: Scq = Scq::new_empty(2);
        q.enqueue(0).unwrap();
        assert_eq!(q.dequeue(), Some(0));
        // Empty dequeues push head past tail; catchup must drag tail along
        // so it never lags more than the in-flight window.
        for _ in 0..32 {
            q.dequeue();
        }
        assert!(q.tail_index() + 1 >= q.head_index());
        // Enqueue/dequeue still work after the repairs.
        q.enqueue(3).unwrap();
        assert_eq!(q.dequeue(), Some(3));
    }

    #[test]
    fn scqd_round_trips_arbitrary_values() {
        let q: ScqD = ScqD::new(&LcrqConfig::new().with_ring_order(4));
        for v in [0u64, 1, u64::MAX, u64::MAX - 1, 0xdead_beef_dead_beef] {
            q.enqueue(v).unwrap();
        }
        for v in [0u64, 1, u64::MAX, u64::MAX - 1, 0xdead_beef_dead_beef] {
            assert_eq!(q.dequeue(), Some(v));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn scqd_tantrums_when_full_and_drains_after() {
        let q: ScqD = ScqD::new(&LcrqConfig::new().with_ring_order(2));
        for v in 0..q.capacity() {
            q.enqueue(v).unwrap();
        }
        // No free slot left: the enqueue throws the tantrum.
        assert_eq!(q.enqueue(99), Err(CrqClosed));
        assert!(q.is_closed());
        assert_eq!(q.enqueue(100), Err(CrqClosed), "closed is permanent");
        for v in 0..q.capacity() {
            assert_eq!(q.dequeue(), Some(v));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn scqd_seeded_ring_serves_its_seed_first() {
        let q: ScqD = ScqD::with_seed(&LcrqConfig::new().with_ring_order(3), &[7, 8, 9]);
        q.enqueue(10).unwrap();
        assert_eq!(q.dequeue(), Some(7));
        assert_eq!(q.dequeue(), Some(8));
        assert_eq!(q.dequeue(), Some(9));
        assert_eq!(q.dequeue(), Some(10));
    }

    #[test]
    fn scqd_mpmc_exchange_is_exactly_once() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 2_000;
        // Capacity covers the whole run: a bare ScqD closes permanently on
        // full (the tantrum), so this test sizes it for the backlog.
        let q: Arc<ScqD> = Arc::new(ScqD::new(&LcrqConfig::new().with_ring_order(13)));
        let seen = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS as u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    // Ring is big enough that the tantrum never fires here.
                    q.enqueue((t << 32) | i).unwrap();
                }
            }));
        }
        for _ in 0..THREADS {
            let q = Arc::clone(&q);
            let seen = Arc::clone(&seen);
            handles.push(std::thread::spawn(move || {
                let mut last = [None::<u64>; THREADS];
                let mut got = 0usize;
                while got < PER_THREAD as usize {
                    let Some(v) = q.dequeue() else {
                        std::hint::spin_loop();
                        continue;
                    };
                    let (t, i) = ((v >> 32) as usize, v & 0xffff_ffff);
                    assert!(last[t].is_none_or(|prev| prev < i), "per-producer FIFO");
                    last[t] = Some(i);
                    got += 1;
                }
                seen.fetch_add(got, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(seen.load(Ordering::SeqCst), THREADS * PER_THREAD as usize);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn cas_policy_variant_works() {
        let q: ScqD<CasLoopFaa> = ScqD::new(&LcrqConfig::new().with_ring_order(4));
        for v in 0..10 {
            q.enqueue(v).unwrap();
        }
        for v in 0..10 {
            assert_eq!(q.dequeue(), Some(v));
        }
    }
}
