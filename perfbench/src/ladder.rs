//! The layer ladder of the traced run: the same enqueue → dequeue pair
//! stream pushed through each public API up the stack (one rung per
//! layer), plus single-thread timings of the layers' own entry points.
//!
//! A rung's self time is its ns/op minus the rung below it; every rung is
//! reported net of the `harness` rung (the op loop with no queue).

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use lcrq::atomic::{FaaPolicy, HardwareFaa};
use lcrq::channel::{channel, Receiver, Sender};
use lcrq::hazard::Domain;
use lcrq::util::metrics::{self, Event};
use lcrq::util::rng::splitmix64;
use lcrq::util::{affinity, CachePadded};
use lcrq::{
    ConcurrentQueue, Crq, Lcrq, LcrqConfig, RingPool, ShardedConfig, ShardedQueue, TypedLcrq,
};

use crate::clock::{self, ticks};
use crate::stats::{self, median};
use crate::trace::{self, Span, SpanLog};

/// Ladder rungs, bottom to top.
pub const RUNGS: [&str; 7] = [
    "harness",
    "atomic.faa",
    "core.crq",
    "core.lcrq",
    "core.sharded",
    "core.typed",
    "channel",
];

/// Single-thread timings of layer entry points.
pub const MICROS: [&str; 5] = [
    "hazard.protect_clear.ns",
    "core.pool.push.ns",
    "core.pool.pop.ns",
    "hazard.scan.ns",
    "util.metrics.inc.ns",
];

/// One pair step of a rung.
trait Pairs: Sync {
    /// Synthetic rungs move no values, so delivery is not checked.
    const SYNTHETIC: bool = false;
    fn enq(&self, v: u64);
    fn deq(&self) -> Option<u64>;
}

/// `harness`: the op loop with no queue behind it.
struct NoQueue;
impl Pairs for NoQueue {
    const SYNTHETIC: bool = true;
    #[inline]
    fn enq(&self, v: u64) {
        std::hint::black_box(v);
    }
    #[inline]
    fn deq(&self) -> Option<u64> {
        std::hint::black_box(None)
    }
}

/// `atomic.faa`: one `HardwareFaa` F&A per call, on a tail and a head
/// counter in separate cache lines, as a ring's indices are.
struct FaaOnly {
    tail: CachePadded<AtomicU64>,
    head: CachePadded<AtomicU64>,
}
impl Pairs for FaaOnly {
    const SYNTHETIC: bool = true;
    #[inline]
    fn enq(&self, _v: u64) {
        std::hint::black_box(HardwareFaa::fetch_add(&self.tail, 1));
    }
    #[inline]
    fn deq(&self) -> Option<u64> {
        std::hint::black_box(HardwareFaa::fetch_add(&self.head, 1));
        None
    }
}

/// `core.crq`: a bare ring that never closes (no starvation limit, and the
/// pair stream keeps it near empty). A close would lose the value and fail
/// the rung's delivery check.
impl Pairs for Crq {
    #[inline]
    fn enq(&self, v: u64) {
        let _ = self.enqueue(v);
    }
    #[inline]
    fn deq(&self) -> Option<u64> {
        self.dequeue()
    }
}

impl Pairs for Lcrq {
    #[inline]
    fn enq(&self, v: u64) {
        self.enqueue(v)
    }
    #[inline]
    fn deq(&self) -> Option<u64> {
        self.dequeue()
    }
}

impl Pairs for ShardedQueue<Lcrq> {
    #[inline]
    fn enq(&self, v: u64) {
        ConcurrentQueue::enqueue(self, v)
    }
    #[inline]
    fn deq(&self) -> Option<u64> {
        ConcurrentQueue::dequeue(self)
    }
}

impl Pairs for TypedLcrq<u64> {
    #[inline]
    fn enq(&self, v: u64) {
        self.enqueue(v)
    }
    #[inline]
    fn deq(&self) -> Option<u64> {
        self.dequeue()
    }
}

/// `channel`: `send` + `try_recv` on one unbounded channel.
struct Chan(Sender<u64>, Receiver<u64>);
impl Pairs for Chan {
    #[inline]
    fn enq(&self, v: u64) {
        self.0.send(v).expect("channel open");
    }
    #[inline]
    fn deq(&self) -> Option<u64> {
        self.1.try_recv().ok()
    }
}

/// One rung round: `threads` pinned workers loop pairs for `dur`. Returns
/// ns per call (per-thread busy time over calls), or an error if values
/// were lost or duplicated.
fn rung_round<P: Pairs>(q: &P, threads: usize, dur: Duration, seed: u64) -> Result<f64, String> {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    let (stop_ref, barrier_ref) = (&stop, &barrier);
    let outs: Vec<(u64, u64, u64, u64, f64)> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let _ = affinity::pin_round_robin(t);
                    let tag = ((t + 1) as u64) << 48;
                    let mut seq = 1 + (splitmix64(seed ^ t as u64) & ((1 << 40) - 1));
                    let (mut sent, mut sent_sum, mut got, mut got_sum) = (0u64, 0u64, 0u64, 0u64);
                    barrier_ref.wait();
                    let t0 = Instant::now();
                    while !stop_ref.load(Ordering::Relaxed) {
                        for _ in 0..64 {
                            let v = tag | seq;
                            seq += 1;
                            q.enq(v);
                            sent += 1;
                            sent_sum = sent_sum.wrapping_add(v);
                            if let Some(x) = q.deq() {
                                got += 1;
                                got_sum = got_sum.wrapping_add(x);
                            }
                        }
                    }
                    (sent, sent_sum, got, got_sum, t0.elapsed().as_nanos() as f64)
                })
            })
            .collect();
        barrier_ref.wait();
        std::thread::sleep(dur);
        stop_ref.store(true, Ordering::Relaxed);
        hs.into_iter()
            .map(|h| h.join().expect("rung worker panicked"))
            .collect()
    });
    let calls: u64 = outs.iter().map(|o| 2 * o.0).sum();
    let busy_ns: f64 = outs.iter().map(|o| o.4).sum();
    if !P::SYNTHETIC {
        let (mut sent, mut sent_sum, mut got, mut got_sum) = (0u64, 0u64, 0u64, 0u64);
        for o in &outs {
            sent += o.0;
            sent_sum = sent_sum.wrapping_add(o.1);
            got += o.2;
            got_sum = got_sum.wrapping_add(o.3);
        }
        while let Some(x) = q.deq() {
            got += 1;
            got_sum = got_sum.wrapping_add(x);
        }
        if sent != got || sent_sum != got_sum {
            return Err(format!(
                "delivery violation on a ladder rung: {got} of {sent} values back"
            ));
        }
    }
    Ok(busy_ns / calls.max(1) as f64)
}

fn run_rung(i: usize, threads: usize, dur: Duration, seed: u64) -> Result<f64, String> {
    match RUNGS[i] {
        "harness" => rung_round(&NoQueue, threads, dur, seed),
        "atomic.faa" => {
            let q = FaaOnly {
                tail: CachePadded::new(AtomicU64::new(0)),
                head: CachePadded::new(AtomicU64::new(0)),
            };
            rung_round(&q, threads, dur, seed)
        }
        "core.crq" => {
            let cfg = LcrqConfig::new().with_starvation_limit(u32::MAX);
            rung_round(&Crq::new(&cfg), threads, dur, seed)
        }
        "core.lcrq" => rung_round(&Lcrq::new(), threads, dur, seed),
        "core.sharded" => {
            let cfg = ShardedConfig::new().with_shards(8).with_d(2);
            let q = ShardedQueue::from_factory(&cfg, |_| Lcrq::new());
            rung_round(&q, threads, dur, seed)
        }
        "core.typed" => rung_round(&TypedLcrq::<u64>::new(), threads, dur, seed),
        "channel" => {
            let (tx, rx) = channel::<u64>();
            rung_round(&Chan(tx, rx), threads, dur, seed)
        }
        other => unreachable!("unknown rung {other}"),
    }
}

/// Ladder result: median ns/op per rung (raw, not yet net of the harness).
pub struct Ladder {
    pub raw_ns: Vec<f64>,
    pub rounds: usize,
}

/// Runs `rounds` rounds of every rung, rotating the order each round so no
/// rung always follows the same neighbour. Each round is one span.
pub fn ladder(
    threads: usize,
    budget: Duration,
    seed: u64,
    spans: &mut SpanLog,
) -> Result<Ladder, String> {
    let rounds = 5;
    let dur = budget / (rounds * RUNGS.len()) as u32;
    let mut samples = vec![Vec::new(); RUNGS.len()];
    for r in 0..rounds {
        for k in 0..RUNGS.len() {
            let i = (r + k) % RUNGS.len();
            let t0 = ticks();
            let ns = run_rung(i, threads, dur, splitmix64(seed ^ (r * 16 + i) as u64))?;
            spans.record(Span {
                name: trace::RUNG,
                thread: 0,
                op: i as u64,
                parent: 0,
                start: t0,
                end: ticks(),
            });
            samples[i].push(ns);
        }
    }
    Ok(Ladder {
        raw_ns: samples.iter().map(|s| median(s)).collect(),
        rounds,
    })
}

/// Single-thread micro timings, in ns per call.
pub struct Micros {
    pub protect_clear: f64,
    pub pool_push: f64,
    pub pool_pop: f64,
    pub scan: f64,
    pub metrics_inc: f64,
}

/// Repeats `chunk` until `budget` is spent (at least 3 times); returns
/// the median of its results.
fn repeat(budget: Duration, mut chunk: impl FnMut() -> f64) -> f64 {
    let end = Instant::now() + budget;
    let mut samples = Vec::new();
    while Instant::now() < end || samples.len() < 3 {
        samples.push(chunk());
    }
    median(&samples)
}

// Each micro-benchmark is its own non-inlined function, so the layer
// calls are compiled in small, separate frames (see README.md, "Known
// library defect": the CAS2 inline assembly misbehaves when the register
// allocator hands its result byte to `bl`).

#[inline(never)]
fn micro_protect_clear(budget: Duration) -> f64 {
    let domain = Domain::new();
    let target = AtomicPtr::new(Box::into_raw(Box::new(0u64)));
    let ns = repeat(budget, || {
        let t0 = ticks();
        for _ in 0..1024 {
            std::hint::black_box(domain.protect(0, &target));
            domain.clear(0);
        }
        clock::to_ns(ticks() - t0) / 1024.0
    });
    // SAFETY: the pointer came from `Box::into_raw` above, was only ever
    // published as a hazard, and the slot is clear again.
    drop(unsafe { Box::from_raw(target.load(Ordering::Relaxed)) });
    ns
}

type PoolPush = fn(&RingPool, Box<Crq>) -> Result<(), Box<Crq>>;
type PoolPop = fn(&RingPool, &Domain, usize) -> Option<Box<Crq>>;

/// Push (which scrubs a default 4096-node ring) and pop of 8 rings. The
/// two calls go through opaque function pointers, so the library's own
/// out-of-line `push`/`pop` run rather than copies inlined here.
#[inline(never)]
fn micro_pool(budget: Duration) -> (f64, f64) {
    let push_fn: PoolPush = std::hint::black_box(RingPool::push);
    let pop_fn: PoolPop = std::hint::black_box(RingPool::pop);
    let pool = RingPool::<HardwareFaa>::new(8);
    let domain = Domain::new();
    let cfg = LcrqConfig::new();
    let mut rings: Vec<_> = (0..8).map(|_| Box::new(Crq::new(&cfg))).collect();
    let mut pop_ns = Vec::new();
    let push = repeat(budget, || {
        let t0 = ticks();
        for r in rings.drain(..) {
            assert!(push_fn(&pool, r).is_ok(), "pool has room for 8 rings");
        }
        let t1 = ticks();
        rings.extend((0..8).map_while(|_| pop_fn(&pool, &domain, 0)));
        let t2 = ticks();
        assert_eq!(rings.len(), 8, "pool hands back every ring");
        pop_ns.push(clock::to_ns(t2 - t1) / 8.0);
        clock::to_ns(t1 - t0) / 8.0
    });
    (push, median(&pop_ns))
}

/// One scan over 16 retired boxes: below the domain's automatic threshold
/// (2 x records x slots + 16), so only the timed call scans.
#[inline(never)]
fn micro_scan(budget: Duration) -> f64 {
    let domain = Domain::new();
    repeat(budget, || {
        for i in 0..16u64 {
            // SAFETY: a fresh `Box::into_raw` pointer, retired once and
            // never dereferenced afterwards.
            unsafe { domain.retire(Box::into_raw(Box::new(i))) };
        }
        let t0 = ticks();
        std::hint::black_box(domain.scan());
        clock::to_ns(ticks() - t0)
    })
}

#[inline(never)]
fn micro_metrics_inc(budget: Duration) -> f64 {
    repeat(budget, || {
        let t0 = ticks();
        for _ in 0..4096 {
            metrics::inc(std::hint::black_box(Event::NodeVisit));
        }
        clock::to_ns(ticks() - t0) / 4096.0
    })
}

/// Runs the micro timings on a thread pinned like worker 0, one span each.
/// Its metric counters are never flushed, so they stay out of the
/// workload's counter deltas.
pub fn micros(budget: Duration, spans: &mut SpanLog) -> Micros {
    let each = budget / MICROS.len() as u32;
    let (m, log) = std::thread::scope(|s| {
        s.spawn(|| {
            let _ = affinity::pin_round_robin(0);
            let mut log = SpanLog::new(64);
            let mut timed = |i: usize, t0: u64| {
                log.record(Span {
                    name: trace::MICRO,
                    thread: 0,
                    op: i as u64,
                    parent: 0,
                    start: t0,
                    end: ticks(),
                })
            };
            let t0 = ticks();
            let protect_clear = micro_protect_clear(each);
            timed(0, t0);
            let t0 = ticks();
            let (pool_push, pool_pop) = micro_pool(each * 2);
            timed(1, t0);
            let t0 = ticks();
            let scan = micro_scan(each);
            timed(3, t0);
            let t0 = ticks();
            let metrics_inc = micro_metrics_inc(each);
            timed(4, t0);
            let m = Micros {
                protect_clear,
                pool_push,
                pool_pop,
                scan,
                metrics_inc,
            };
            (m, log)
        })
        .join()
        .expect("micro-benchmark thread panicked")
    });
    for s in log.spans() {
        spans.record(*s);
    }
    m
}

/// p50 of the held spans with one of `names`, in ns, with their count.
pub fn span_p50(logs: &[&SpanLog], names: &[u8]) -> (f64, usize) {
    let mut v: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.spans())
        .filter(|s| names.contains(&s.name))
        .map(|s| clock::to_ns(s.ticks()))
        .collect();
    v.sort_by(f64::total_cmp);
    (stats::quantile(&v, 0.5), v.len())
}
