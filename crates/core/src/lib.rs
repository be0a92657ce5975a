//! LCRQ — the linked concurrent ring queue of Morrison & Afek,
//! *Fast Concurrent Queues for x86 Processors* (PPoPP 2013).
//!
//! LCRQ is a linearizable, op-wise nonblocking MPMC FIFO queue. Its design
//! insight: the scalability collapse of CAS-based queues comes from *work
//! wasted on CAS failures*, not from the raw cost of a contended location.
//! x86's fetch-and-add always succeeds, so LCRQ uses contended F&A objects
//! to spread threads across the slots of a ring, where they complete in
//! parallel with (almost always uncontended) double-width CAS.
//!
//! # Architecture
//!
//! * [`crq::Crq`] — a bounded *concurrent ring queue* with **tantrum queue**
//!   semantics: an enqueue may refuse and permanently close the ring. In the
//!   common case an operation touches only one of head/tail — half the
//!   synchronization of prior array queues.
//! * [`ring_list::RingList`] — the Michael–Scott linked list of tantrum
//!   rings, written once over the [`TantrumRing`] trait: enqueuers that find
//!   the tail ring closed append a fresh ring; dequeuers drain the head ring
//!   and swing past it when empty. Retired rings are reclaimed with hazard
//!   pointers. This restores unbounded, never-refusing queue semantics and
//!   the op-wise nonblocking property.
//! * [`Lcrq`] — the list over CRQs (`RingList<Crq>`), recycling retired
//!   rings through a [`RingPool`].
//! * [`LcrqCas`] — the same algorithm with every F&A emulated by a CAS loop
//!   (the paper's LCRQ-CAS), isolating the contribution of always-succeeding
//!   F&A. Generic parameter: [`lcrq_atomic::FaaPolicy`].
//! * LCRQ+H — enable [`config::HierarchicalConfig`] to batch operations per
//!   cluster (the paper's hierarchy-aware optimization, §4.1.1).
//! * [`scq::Scq`] / [`scq::ScqD`] / [`Lscq`] — the portable sibling family
//!   (Nikolaev's SCQ, arXiv:1908.04511): cycle-tagged single-word entries,
//!   a threshold counter for livelock-free dequeue, and index indirection
//!   for arbitrary payloads — no double-width CAS anywhere, so this
//!   backend would run on non-x86 targets. [`Lscq`] is the same list over
//!   SCQ rings (`RingList<ScqD>`).
//! * [`wcq::Wcq`] — the wait-free sibling (Nikolaev's wCQ,
//!   arXiv:2201.02179): the SCQ cycle arithmetic plus per-ring request
//!   records and help-first scanning, so every operation completes in a
//!   bounded number of its own steps even when peers stall. See the
//!   module docs for the claim-serialized helping protocol. [`Wcq`] is
//!   `RingList<WcqRing>`.
//! * [`sharded::ShardedQueue`] — a relaxed d-choice front-end: N shards of
//!   any backend behind one facade, balanced by cached length estimates,
//!   with an exact-empty fallback sweep. Trades a bounded amount of
//!   cross-shard FIFO order for throughput.
//! * [`infinite::InfiniteArrayQueue`] — the idealized Figure-2 queue the
//!   CRQ is derived from (SWAP-based, livelock-prone; educational).
//! * [`Typed`] — a generic `T`-valued facade over any ring list (values are
//!   boxed; the queue transfers pointers, as the paper's workloads do);
//!   [`TypedLcrq`], [`TypedLscq`] and [`TypedWcq`] are its aliases.
//!
//! # Quick start
//!
//! ```
//! use lcrq_core::Lcrq;
//! use lcrq_queues::ConcurrentQueue as _;
//!
//! let q = Lcrq::new();
//! q.enqueue(7);
//! q.enqueue(8);
//! assert_eq!(q.dequeue(), Some(7));
//! assert_eq!(q.dequeue(), Some(8));
//! assert_eq!(q.dequeue(), None);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod crq;
mod cycle;
pub mod infinite;
pub mod lcrq;
pub mod lscq;
pub mod node;
pub mod pool;
pub mod ring_list;
pub mod scq;
pub mod sharded;
pub mod typed;
pub mod wcq;

pub use config::{HierarchicalConfig, LcrqConfig};
pub use crq::{Crq, CrqClosed};
pub use lcrq::{Lcrq, LcrqCas, LcrqGeneric};
pub use lscq::{Lscq, LscqCas, LscqGeneric};
pub use pool::RingPool;
pub use ring_list::{RingList, TantrumRing};
pub use scq::{Scq, ScqD};
pub use sharded::{rank_error_bound_for, ShardedConfig, ShardedQueue};
pub use typed::{Typed, TypedLcrq, TypedLscq, TypedWcq};
pub use wcq::{Wcq, WcqGeneric, WcqRing};

/// The reserved "empty cell" value ⊥. User values must be strictly below it.
pub const BOTTOM: u64 = u64::MAX;

/// Largest enqueueable value (`BOTTOM - 1`).
pub const MAX_VALUE: u64 = u64::MAX - 1;
