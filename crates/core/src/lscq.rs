//! LSCQ — the shared [`RingList`] protocol over [`ScqD`] rings, the
//! portable sibling of [`Lcrq`](crate::Lcrq).
//!
//! Two SCQ-specific twists:
//!
//! * The abandonment double-check (the December-2013 LCRQ erratum) first
//!   **re-arms the ring's threshold counter**: a racing enqueue may have
//!   published its entry but not yet reset the threshold, and an exhausted
//!   counter would otherwise let the double-check report EMPTY without
//!   scanning — losing the item when `head` swings past the ring. With the
//!   ring already closed its tail is frozen, so the forced scan terminates.
//!   (Nikolaev's unbounded SCQ does the same.)
//! * There is no recycling pool: rings are plain heap boxes, freed through
//!   the hazard domain once no dequeuer can still hold them.
//!
//! Because SCQ needs only single-word atomics, this is the one unbounded
//! queue in the repo that would run on non-x86 targets unchanged.

use core::sync::atomic::AtomicPtr;

use lcrq_atomic::{CasLoopFaa, FaaPolicy, HardwareFaa};

use crate::config::LcrqConfig;
use crate::crq::CrqClosed;
use crate::ring_list::{self, RingList, TantrumRing};
use crate::scq::ScqD;

/// The unbounded SCQ list with hardware fetch-and-add.
pub type Lscq = LscqGeneric<HardwareFaa>;

/// LSCQ-CAS: the identical algorithm with F&A emulated by a CAS loop,
/// mirroring [`LcrqCas`](crate::LcrqCas) for the ablation.
pub type LscqCas = LscqGeneric<CasLoopFaa>;

/// An unbounded, linearizable, nonblocking MPMC FIFO queue of `u64` values
/// (`< BOTTOM`) built from linked [`ScqD`] rings — single-word CAS only.
///
/// ```
/// use lcrq_core::Lscq;
/// let q = Lscq::new();
/// q.enqueue(10);
/// assert_eq!(q.dequeue(), Some(10));
/// assert_eq!(q.dequeue(), None);
/// ```
pub type LscqGeneric<P> = RingList<ScqD<P>>;

/// Draining iterator returned by [`LscqGeneric::drain`].
pub type Drain<'a, P> = ring_list::Drain<'a, ScqD<P>>;

impl<P: FaaPolicy> TantrumRing for ScqD<P> {
    type Faa = P;
    type Pool = ();

    fn new_pool(_config: &LcrqConfig) {}

    fn with_seed(config: &LcrqConfig, _pool: &(), seed: &[u64]) -> Self {
        ScqD::with_seed(config, seed)
    }

    #[inline]
    fn next(&self) -> &AtomicPtr<Self> {
        &self.next
    }

    #[inline]
    fn enqueue(&self, value: u64) -> Result<(), CrqClosed> {
        ScqD::enqueue(self, value)
    }

    #[inline]
    fn dequeue(&self) -> Option<u64> {
        ScqD::dequeue(self)
    }

    fn close(&self) {
        ScqD::close(self);
    }

    fn is_closed(&self) -> bool {
        ScqD::is_closed(self)
    }

    fn head_index(&self) -> u64 {
        ScqD::head_index(self)
    }

    fn tail_index(&self) -> u64 {
        ScqD::tail_index(self)
    }

    fn capacity(&self) -> u64 {
        ScqD::capacity(self)
    }

    fn name(_config: &LcrqConfig) -> &'static str {
        match P::name() {
            "faa" => "lscq",
            _ => "lscq-cas",
        }
    }

    fn before_abandon(&self) {
        self.reset_threshold();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrq_queues::testing;

    fn tiny() -> LcrqConfig {
        LcrqConfig::new().with_ring_order(3)
    }

    #[test]
    fn empty_queue_returns_none() {
        let q = Lscq::new();
        assert_eq!(q.dequeue(), None);
        assert!(q.is_empty_hint());
    }

    #[test]
    fn fifo_order_sequential() {
        let q = Lscq::with_config(tiny());
        for i in 0..100 {
            q.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn overflowing_one_ring_spills_into_new_rings_in_order() {
        let q = Lscq::with_config(tiny());
        let total = 4 * q.config().ring_size();
        for i in 0..total {
            q.enqueue(i);
        }
        assert!(q.ring_count() > 1, "tiny rings must have spilled");
        for i in 0..total {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn drained_queue_is_reusable() {
        let q = Lscq::with_config(tiny());
        for round in 0..5 {
            for i in 0..50 {
                q.enqueue(round * 100 + i);
            }
            for i in 0..50 {
                assert_eq!(q.dequeue(), Some(round * 100 + i));
            }
            assert_eq!(q.dequeue(), None);
        }
    }

    #[test]
    #[should_panic(expected = "BOTTOM")]
    fn enqueueing_bottom_panics() {
        Lscq::new().enqueue(u64::MAX);
    }

    #[test]
    fn max_value_is_enqueueable() {
        let q = Lscq::new();
        q.enqueue(u64::MAX - 1);
        assert_eq!(q.dequeue(), Some(u64::MAX - 1));
    }

    #[test]
    fn mpmc_stress_default_ring() {
        let q = Lscq::new();
        testing::mpmc_stress(&q, 4, 4, 10_000);
    }

    #[test]
    fn mpmc_stress_tiny_ring_exercises_ring_switching() {
        let q = Lscq::with_config(tiny());
        testing::mpmc_stress(&q, 4, 4, 5_000);
        assert!(q.ring_count() < 100, "drained rings must be retired");
    }

    #[test]
    fn mpmc_stress_cas_variant() {
        let q = LscqCas::new();
        testing::mpmc_stress(&q, 4, 4, 10_000);
    }

    #[test]
    fn mpmc_stress_cas_variant_tiny_ring() {
        let q = LscqCas::with_config(tiny());
        testing::mpmc_stress(&q, 4, 4, 5_000);
    }

    #[test]
    fn model_check_against_vecdeque() {
        for seed in [0x15C9, 0x25C9] {
            let q = Lscq::with_config(tiny());
            testing::model_check(&q, seed);
        }
    }

    #[test]
    fn pairs_workload_drains() {
        let q = Lscq::with_config(tiny());
        testing::pairs_smoke(&q, 4, 5_000);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn retired_rings_are_reclaimed() {
        let q = Lscq::with_config(LcrqConfig::new().with_ring_order(2));
        for i in 0..10_000 {
            q.enqueue(i);
            assert_eq!(q.dequeue(), Some(i));
        }
        assert!(
            q.ring_count() < 64,
            "ring chain kept growing: {}",
            q.ring_count()
        );
    }

    #[test]
    fn names_reflect_variant() {
        use lcrq_queues::ConcurrentQueue;
        assert_eq!(ConcurrentQueue::name(&Lscq::new()), "lscq");
        assert_eq!(ConcurrentQueue::name(&LscqCas::new()), "lscq-cas");
    }

    #[test]
    fn close_fences_enqueues_but_drains_existing_items() {
        let q = Lscq::with_config(tiny());
        for i in 0..20 {
            q.enqueue(i);
        }
        assert!(q.close());
        assert!(!q.close(), "second close reports false");
        assert!(q.is_closed());
        assert_eq!(q.try_enqueue(99), Err(99));
        for i in 0..20 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    #[should_panic(expected = "closed")]
    fn enqueue_after_close_panics() {
        let q = Lscq::new();
        q.close();
        q.enqueue(1);
    }

    #[test]
    fn close_races_with_producers_without_losing_items() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        for round in 0..20 {
            let q = Arc::new(Lscq::with_config(tiny()));
            let accepted = Arc::new(AtomicU64::new(0));
            let mut handles = Vec::new();
            for t in 0..3u64 {
                let q = Arc::clone(&q);
                let accepted = Arc::clone(&accepted);
                handles.push(std::thread::spawn(move || {
                    for i in 0..200u64 {
                        if q.try_enqueue((t << 32) | i).is_ok() {
                            accepted.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }));
            }
            let closer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    if round % 2 == 0 {
                        std::thread::yield_now();
                    }
                    q.close();
                })
            };
            for h in handles {
                h.join().unwrap();
            }
            closer.join().unwrap();
            let drained = q.drain().count() as u64;
            assert_eq!(drained, accepted.load(Ordering::SeqCst));
        }
    }

    #[test]
    fn dequeue_empty_is_never_transient() {
        // An EMPTY observed by one thread with no concurrent dequeuers
        // must mean everything enqueued so far was handed out.
        let q = Lscq::with_config(tiny());
        for i in 0..500 {
            q.enqueue(i);
        }
        let mut seen = 0;
        while q.dequeue().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 500);
        q.enqueue(7);
        assert_eq!(q.dequeue(), Some(7));
    }

    #[test]
    fn drop_with_items_across_rings_is_clean() {
        let q = Lscq::with_config(tiny());
        for i in 0..100 {
            q.enqueue(i);
        }
        drop(q); // must not leak or double-free (ASan job covers this)
    }

    #[test]
    fn closable_trait_object_round_trip() {
        use lcrq_queues::ClosableQueue;
        let q: Box<dyn ClosableQueue> = Box::new(Lscq::new());
        q.try_enqueue(5).unwrap();
        assert_eq!(q.dequeue(), Some(5));
        q.close();
        assert_eq!(q.try_enqueue(6), Err(6));
    }
}
