//! The cycle-index core shared by the SCQ ([`crate::scq`], Nikolaev
//! arXiv:1908.04511) and wCQ ([`crate::wcq`], arXiv:2201.02179) rings.
//!
//! Both rings spread `head`/`tail` positions over `2n` entries: position
//! `p` lives in slot [`remap(p)`](CycleRing::remap) at cycle
//! [`cycle_of(p)`](CycleRing::cycle_of), and a slot tagged with an older
//! cycle is free for a newer position. The core also holds the threshold
//! counter that bounds how many F&As an empty-dequeue storm can waste,
//! the catchup that drags a lagging tail forward, and the CLOSED bit 63 of
//! `tail` (the CRQ's tantrum convention). The rings differ only in the
//! entry type `E`: the SCQ packs `(cycle, safe, index)` into one word, wCQ
//! pairs a meta word with the value in a double-width entry.

use core::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use lcrq_atomic::ops;
use lcrq_util::metrics::{self, Event};
use lcrq_util::CachePadded;

/// Bit 63 of `tail`: the ring is closed to further enqueues.
pub(crate) const CLOSED_BIT: u64 = 1 << 63;

/// `head`, `tail`, threshold and `2n` entries of type `E`.
pub(crate) struct CycleRing<E> {
    pub(crate) head: CachePadded<AtomicU64>,
    /// Bit 63 = closed; bits 62..0 = the tail position.
    pub(crate) tail: CachePadded<AtomicU64>,
    /// The livelock-freedom counter: armed to `3n - 1` by enqueues,
    /// decremented by unsuccessful dequeue attempts; negative means a
    /// dequeue may report EMPTY without touching `head`.
    pub(crate) threshold: CachePadded<AtomicI64>,
    pub(crate) entries: Box<[E]>,
    /// log2 of the entry count (`k + 1` for capacity `2^k`).
    pub(crate) array_order: u32,
}

impl<E> CycleRing<E> {
    /// An empty core with capacity `2^order` (so `2^(order+1)` entries,
    /// each made by `entry`). Positions start at `2n` (cycle 1) so
    /// freshly-initialized entries (cycle 0) always compare older than any
    /// live position. The threshold starts exhausted, so dequeuers on a
    /// never-used ring exit without an F&A; the first enqueue arms it.
    pub(crate) fn new(order: u32, entry: impl FnMut() -> E) -> Self {
        let array_order = order.clamp(1, 30) + 1;
        let slots = 1u64 << array_order;
        CycleRing {
            head: CachePadded::new(AtomicU64::new(slots)),
            tail: CachePadded::new(AtomicU64::new(slots)),
            threshold: CachePadded::new(AtomicI64::new(-1)),
            entries: core::iter::repeat_with(entry)
                .take(slots as usize)
                .collect(),
            array_order,
        }
    }

    /// Number of values the ring can hold: half the entry count.
    #[inline]
    pub(crate) fn capacity(&self) -> u64 {
        (self.entries.len() as u64) / 2
    }

    /// 3n - 1 (capacity + array size - 1): the paper's bound on
    /// unsuccessful dequeue attempts while the queue is non-empty.
    #[inline]
    pub(crate) fn threshold_max(&self) -> i64 {
        (self.capacity() + self.entries.len() as u64 - 1) as i64
    }

    #[inline]
    pub(crate) fn cycle_of(&self, pos: u64) -> u64 {
        pos >> self.array_order
    }

    /// Maps a position to an entry slot, spreading consecutive positions
    /// across cache lines (8 `u64` entries per 64-byte line) the way
    /// Nikolaev's `lfring` does, so neighbouring F&A winners do not false-
    /// share. Degenerates to the identity for rings of ≤ 8 entries.
    #[inline]
    pub(crate) fn remap(&self, pos: u64) -> usize {
        let slots = self.entries.len() as u64;
        let j = pos & (slots - 1);
        if slots >= 16 {
            (((j & (slots / 8 - 1)) * 8) | (j / (slots / 8))) as usize
        } else {
            j as usize
        }
    }

    /// Inverse of [`remap`](Self::remap): the position of the entry in
    /// slot `j` at `cycle`.
    #[inline]
    pub(crate) fn pos_of(&self, j: usize, cycle: u64) -> u64 {
        let slots = self.entries.len() as u64;
        let j = j as u64;
        let x = if slots >= 16 {
            (j & 7) * (slots / 8) + (j >> 3)
        } else {
            j
        };
        (cycle << self.array_order) | x
    }

    /// Re-arms the threshold after an enqueue published its entry, so a
    /// negative threshold implies the ring was observably empty.
    #[inline]
    pub(crate) fn arm_threshold(&self) {
        let max = self.threshold_max();
        if self.threshold.load(Ordering::SeqCst) != max {
            self.threshold.store(max, Ordering::SeqCst);
        }
    }

    /// Re-arms the threshold unconditionally, forcing the next dequeue to
    /// scan the ring. The list does this before abandoning a ring: a racing
    /// enqueue may have published an entry but not yet re-armed the
    /// threshold, and the abandonment double-check must be able to find it.
    pub(crate) fn reset_threshold(&self) {
        self.threshold.store(self.threshold_max(), Ordering::SeqCst);
    }

    /// The livelock-freedom fast exit: an exhausted threshold proves the
    /// ring was empty, so a dequeue may report EMPTY without an F&A.
    #[inline]
    pub(crate) fn exhausted(&self) -> bool {
        let exhausted = self.threshold.load(Ordering::SeqCst) < 0;
        if exhausted {
            metrics::inc(Event::ThresholdExhausted);
        }
        exhausted
    }

    /// Spends one unit of threshold for a dequeue that failed at position
    /// `h`, catching a lagging tail up first. Returns whether the dequeue
    /// should report EMPTY: the tail was not past `h`, or the threshold
    /// ran out.
    #[inline]
    pub(crate) fn spend(&self, h: u64) -> bool {
        let t = self.tail_index();
        let behind = t <= h + 1;
        if behind {
            self.catchup(t, h + 1);
        }
        metrics::inc(Event::Faa);
        let exhausted = self.threshold.fetch_sub(1, Ordering::SeqCst) <= 0;
        behind || exhausted
    }

    /// CASes a lagging `tail` forward to `h` so enqueuers do not spend
    /// F&As on positions the dequeuers already invalidated (the CRQ's
    /// `fix_state` analogue).
    pub(crate) fn catchup(&self, mut t: u64, h: u64) {
        while ops::cas(&self.tail, t, h).is_err() {
            let head_now = self.head.load(Ordering::SeqCst);
            let t_raw = self.tail.load(Ordering::SeqCst);
            if t_raw & CLOSED_BIT != 0 {
                break; // never clobber the closed bit
            }
            t = t_raw;
            if t >= head_now {
                break;
            }
        }
    }

    /// Closes the ring to further enqueues (`LOCK BTS` on tail bit 63).
    /// Returns `true` if this call closed it.
    pub(crate) fn close(&self) -> bool {
        let newly = !ops::tas_bit(&self.tail, 63);
        if newly {
            metrics::inc(Event::CrqClosed);
        }
        newly
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.tail.load(Ordering::SeqCst) & CLOSED_BIT != 0
    }

    #[inline]
    pub(crate) fn head_index(&self) -> u64 {
        self.head.load(Ordering::SeqCst)
    }

    /// The tail position with the closed bit masked off.
    #[inline]
    pub(crate) fn tail_index(&self) -> u64 {
        self.tail.load(Ordering::SeqCst) & !CLOSED_BIT
    }
}
