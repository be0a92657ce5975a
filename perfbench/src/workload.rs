//! The four closed-loop workloads, their set-up, timed window and delivery
//! checks.
//!
//! Every run follows one shape: `EPISODES` times, set up
//! `SETUPS_PER_EPISODE` times (construction, prefill, thread spawn + pin),
//! then warm the last set-up up and measure its share of the window in
//! slices. Workers publish their call counts so the main thread can read a
//! throughput per slice; in a traced run the slices alternate untraced and
//! traced so both throughputs come from one process.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use lcrq::channel::{channel, Receiver, Sender, TryRecvError};
use lcrq::util::metrics::{self, Snapshot};
use lcrq::util::rng::splitmix64;
use lcrq::util::{affinity, CachePadded, XorShift64Star};
use lcrq::{ConcurrentQueue, Lcrq, ShardedConfig, ShardedQueue};

use crate::clock::{self, ticks};
use crate::stats::Reservoir;
use crate::trace::{self, Span, SpanLog};

/// Set-ups per episode; the last one is measured. `setup_s` is the median
/// of all set-ups, which spread over the whole run instead of one instant.
const SETUPS_PER_EPISODE: usize = 4;
/// Measured episodes of an untraced run (a traced run measures one).
const EPISODES: usize = 8;
/// Warm-up before the first episode is timed: past the CPU frequency ramp
/// and first-touch page faults.
const WARMUP: Duration = Duration::from_millis(500);
/// Warm-up of the later episodes, on their fresh instances.
const WARMUP_AGAIN: Duration = Duration::from_millis(200);
/// Items prefilled on `backlog` (the paper's Fig. 7a prefill).
pub const BACKLOG_PREFILL: u64 = 1 << 16;
/// Client pause between round trips on `channel-rtt`.
pub const RTT_PAUSE_NS: f64 = 10_000.0;
/// Pairs between two reads of the phase flag by a queue worker.
const BATCH: u64 = 64;
/// Mean pairs between two latency-sampled pairs (seeded, uniform gaps in
/// `1..=2*SAMPLE_GAP-1`).
const SAMPLE_GAP: u64 = 128;
/// Latency samples kept per thread and kind (a uniform sample of all the
/// timed calls).
const RESERVOIR: usize = 1 << 16;
/// Spans kept per thread in a traced run.
const SPAN_LOG: usize = 1 << 15;
/// Sequence bits of a value; the producer id sits above them.
const SEQ_BITS: u32 = 48;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;
/// Stops the `channel-rtt` server; requests are below 2^62.
const SENTINEL: u64 = 1 << 62;
/// One value in this many is dropped by the lossy planted twin.
const LOSSY_EVERY: u64 = 1_000_000;
/// Extra spin per call added by the slow planted twin.
pub const SLOW_EXTRA_NS: f64 = 100.0;

const PH_WARMUP: u8 = 0;
const PH_RUN: u8 = 1;
const PH_TRACED: u8 = 2;
const PH_STOP: u8 = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Pairwise,
    Backlog,
    ChannelRtt,
    ShardedPairwise,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Pairwise,
        Workload::Backlog,
        Workload::ChannelRtt,
        Workload::ShardedPairwise,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pairwise => "pairwise",
            Workload::Backlog => "backlog",
            Workload::ChannelRtt => "channel-rtt",
            Workload::ShardedPairwise => "sharded-pairwise",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The queue or channel under test, as a registry spec where one exists.
    pub fn subject(self) -> &'static str {
        match self {
            Workload::Pairwise | Workload::Backlog => "lcrq",
            Workload::ShardedPairwise => "sharded:shards=8,d=2,inner=lcrq",
            Workload::ChannelRtt => "lcrq_channel::channel::<u64>() x2",
        }
    }
}

/// A test-only wrapper planted around the queue to prove the benchmark
/// catches what it must.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plant {
    None,
    /// Spins [`SLOW_EXTRA_NS`] before every call: must read as a
    /// throughput regression.
    Slow,
    /// Drops one enqueued value in [`LOSSY_EVERY`]: must fail the
    /// delivery check.
    Lossy,
}

impl Plant {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(Plant::None),
            "slow" => Some(Plant::Slow),
            "lossy" => Some(Plant::Lossy),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Plant::None => "none",
            Plant::Slow => "slow",
            Plant::Lossy => "lossy",
        }
    }
}

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window.
    pub window: Duration,
    pub traced: bool,
    pub plant: Plant,
    pub threads: usize,
}

/// The queue workloads' view of their queue: the public queue API plus the
/// hazard-domain probe sampled for `hazard.retired_peak`.
pub trait Workq: ConcurrentQueue {
    /// Retired-but-unreclaimed objects of the calling thread.
    fn retired(&self) -> usize {
        0
    }
}

impl Workq for Lcrq {
    fn retired(&self) -> usize {
        self.hazard_domain().retired_count()
    }
}

impl Workq for ShardedQueue<Lcrq> {}

/// Planted twin: a fixed extra spin before every call.
pub struct Slow<Q>(pub Q);

impl<Q: ConcurrentQueue> ConcurrentQueue for Slow<Q> {
    fn enqueue(&self, value: u64) {
        clock::spin_ns(SLOW_EXTRA_NS);
        self.0.enqueue(value)
    }
    fn dequeue(&self) -> Option<u64> {
        clock::spin_ns(SLOW_EXTRA_NS);
        self.0.dequeue()
    }
    fn name(&self) -> &'static str {
        "slow"
    }
    fn is_nonblocking(&self) -> bool {
        self.0.is_nonblocking()
    }
}

impl<Q: Workq> Workq for Slow<Q> {
    fn retired(&self) -> usize {
        self.0.retired()
    }
}

thread_local! {
    static LOSSY_COUNT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Planted twin: silently drops one enqueued value in [`LOSSY_EVERY`].
pub struct Lossy<Q>(pub Q);

impl<Q: ConcurrentQueue> ConcurrentQueue for Lossy<Q> {
    fn enqueue(&self, value: u64) {
        let n = LOSSY_COUNT.with(|c| {
            c.set(c.get() + 1);
            c.get()
        });
        if !n.is_multiple_of(LOSSY_EVERY) {
            self.0.enqueue(value)
        }
    }
    fn dequeue(&self) -> Option<u64> {
        self.0.dequeue()
    }
    fn name(&self) -> &'static str {
        "lossy"
    }
    fn is_nonblocking(&self) -> bool {
        self.0.is_nonblocking()
    }
}

impl<Q: Workq> Workq for Lossy<Q> {
    fn retired(&self) -> usize {
        self.0.retired()
    }
}

/// Phase flag and per-thread progress shared by the main thread and the
/// workers of one run.
pub struct Ctl {
    phase: AtomicU8,
    progress: Box<[CachePadded<AtomicU64>]>,
    /// Workers that have flushed their counters at the window start.
    flushed: AtomicUsize,
}

impl Ctl {
    fn new(threads: usize, phase: u8) -> Self {
        Self {
            phase: AtomicU8::new(phase),
            progress: (0..threads)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            flushed: AtomicUsize::new(0),
        }
    }

    fn calls(&self) -> u64 {
        self.progress
            .iter()
            .map(|p| p.load(Ordering::Relaxed))
            .sum()
    }
}

/// A worker's own accounting, returned when it stops.
pub struct WorkerOut {
    /// Calls made over the whole run (warm-up included).
    pub calls: u64,
    pub enq: u64,
    pub enq_sum: u64,
    pub check: Checker,
    /// Calls and own CPU time from the window's start to the stop.
    pub window_calls: u64,
    pub window_cpu_ns: u64,
    /// Dequeue calls and how many found the queue empty (timed window).
    pub deq_calls: u64,
    pub deq_empty: u64,
    /// Single-call latency samples (ticks).
    pub op: Reservoir,
    /// Round-trip (or enqueue→dequeue pair) samples (ticks).
    pub rtt: Reservoir,
    pub spans: SpanLog,
    pub retired_peak: usize,
    pub pinned: bool,
}

impl WorkerOut {
    fn new(seed: u64, producers: usize, fifo: bool) -> Self {
        Self {
            calls: 0,
            window_calls: 0,
            window_cpu_ns: 0,
            enq: 0,
            enq_sum: 0,
            check: Checker::new(producers, fifo),
            deq_calls: 0,
            deq_empty: 0,
            op: Reservoir::new(RESERVOIR, seed ^ 1),
            rtt: Reservoir::new(RESERVOIR, seed ^ 2),
            spans: SpanLog::new(SPAN_LOG),
            retired_peak: 0,
            pinned: false,
        }
    }
}

/// Exactly-once and per-producer FIFO check at one consumer. A value is
/// `producer << 48 | seq`, with each producer's `seq` strictly increasing.
pub struct Checker {
    last: Vec<u64>,
    fifo: bool,
    pub got: u64,
    pub got_sum: u64,
    /// Values that arrived at or below their producer's last seen `seq`.
    pub order_violations: u64,
    /// Values no producer could have made.
    pub bad_values: u64,
}

impl Checker {
    fn new(producers: usize, fifo: bool) -> Self {
        Self {
            last: vec![0; producers],
            fifo,
            got: 0,
            got_sum: 0,
            order_violations: 0,
            bad_values: 0,
        }
    }

    #[inline]
    fn accept(&mut self, v: u64) {
        let p = (v >> SEQ_BITS) as usize;
        let seq = v & SEQ_MASK;
        let Some(last) = self.last.get_mut(p) else {
            self.bad_values += 1;
            return;
        };
        if self.fifo && seq <= *last {
            self.order_violations += 1;
        }
        *last = seq;
        self.got += 1;
        self.got_sum = self.got_sum.wrapping_add(v);
    }
}

/// The first sequence number of `producer`, drawn from the seed (>= 1, so
/// the checker's initial 0 is below every real value).
fn seq_base(seed: u64, producer: usize) -> u64 {
    1 + (splitmix64(seed ^ splitmix64(producer as u64 + 0x51)) & ((1 << 40) - 1))
}

/// Delivery verdict of one run.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, n: u64, what: String) {
        if n > 0 {
            self.failed += n;
            self.problems.push(what);
        }
    }
}

/// Everything a run measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub episodes: Vec<Episode>,
    /// Counter delta over the last episode's window (`metrics::snapshot()`
    /// before/after); a traced run has one episode.
    pub counters: Snapshot,
    /// Peak resident set when the workers stopped, MiB.
    pub rss_peak_mib: f64,
    pub verdict: Verdict,
}

/// One measured episode: a fresh instance timed for its share of the window.
pub struct Episode {
    /// Throughput of each untraced slice, Mops/s.
    pub slice_mops: Vec<f64>,
    /// Throughput of each traced slice, Mops/s (traced runs only).
    pub traced_slice_mops: Vec<f64>,
    /// Calls completed in the episode's window, as the slices counted them.
    pub calls: u64,
    pub workers: Vec<WorkerOut>,
}

impl Outcome {
    pub fn workers(&self) -> impl Iterator<Item = &WorkerOut> {
        self.episodes.iter().flat_map(|e| &e.workers)
    }

    pub fn window_calls(&self) -> u64 {
        self.episodes.iter().map(|e| e.calls).sum()
    }

    pub fn slice_mops(&self, traced: bool) -> Vec<f64> {
        self.episodes
            .iter()
            .flat_map(|e| {
                if traced {
                    &e.traced_slice_mops
                } else {
                    &e.slice_mops
                }
            })
            .copied()
            .collect()
    }
}

/// Runs `p.workload` and checks its delivery.
pub fn run(p: &Params) -> Result<Outcome, String> {
    match (p.workload, p.plant) {
        (Workload::ChannelRtt, Plant::None) => run_channel(p),
        (Workload::ChannelRtt, _) => Err("planted twins wrap a queue; use a queue workload".into()),
        (Workload::ShardedPairwise, plant) => {
            let cfg = ShardedConfig::new().with_shards(8).with_d(2);
            let make = move || ShardedQueue::from_factory(&cfg, |_| Lcrq::new());
            run_planted(p, plant, make)
        }
        (_, plant) => run_planted(p, plant, Lcrq::new),
    }
}

fn run_planted<Q: Workq + 'static>(
    p: &Params,
    plant: Plant,
    make: impl Fn() -> Q + Sync,
) -> Result<Outcome, String> {
    match plant {
        Plant::None => run_queue(p, make),
        Plant::Slow => run_queue(p, || Slow(make())),
        Plant::Lossy => run_queue(p, || Lossy(make())),
    }
}

/// Set-up repetitions, warm-up and the sliced timed window, shared by all
/// workloads. `build` constructs the shared state, `work` is one worker
/// and `check` judges one episode's delivery once its workers stopped.
///
/// Each episode measures a fresh instance for an equal share of the
/// window, so one instance's memory placement or balancing history does
/// not decide the whole run.
fn drive<S: Sync>(
    p: &Params,
    threads: usize,
    build: impl Fn() -> S,
    work: impl Fn(&S, &Ctl, usize) -> WorkerOut + Sync,
    check: impl Fn(&S, &[WorkerOut], &mut Verdict),
) -> Result<Outcome, String> {
    let episodes = if p.traced { 1 } else { EPISODES };
    let mut out = Outcome {
        setup_s: Vec::with_capacity(episodes * SETUPS_PER_EPISODE),
        episodes: Vec::with_capacity(episodes),
        counters: Snapshot::default(),
        rss_peak_mib: 0.0,
        verdict: Verdict::default(),
    };
    for rep in 0..episodes * SETUPS_PER_EPISODE {
        let episode = (rep % SETUPS_PER_EPISODE == SETUPS_PER_EPISODE - 1)
            .then_some(rep / SETUPS_PER_EPISODE);
        let t0 = Instant::now();
        let shared = build();
        let phase = if episode.is_some() {
            PH_WARMUP
        } else {
            PH_STOP
        };
        let ctl = Ctl::new(threads, phase);
        let barrier = Barrier::new(threads + 1);
        let (shared_ref, ctl_ref, barrier_ref, work_ref) = (&shared, &ctl, &barrier, &work);
        let timed = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let pinned = affinity::pin_round_robin(t).is_ok();
                        barrier_ref.wait();
                        if ctl_ref.phase.load(Ordering::SeqCst) == PH_STOP {
                            return None;
                        }
                        let mut out = work_ref(shared_ref, ctl_ref, t);
                        out.pinned = pinned;
                        Some(out)
                    })
                })
                .collect();
            barrier_ref.wait();
            out.setup_s.push(t0.elapsed().as_secs_f64());
            let timed = episode.map(|e| {
                let warmup = if e == 0 { WARMUP } else { WARMUP_AGAIN };
                time_window(p, ctl_ref, threads, warmup, p.window / episodes as u32)
            });
            let outs: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("benchmark worker panicked"))
                .collect();
            timed.map(|t| (t, outs))
        });
        if let Some((timed, outs)) = timed {
            let (slices, window) = timed;
            out.counters = metrics::snapshot().delta_since(&window.before);
            out.rss_peak_mib = clock::peak_rss_mib()?;
            let workers: Vec<WorkerOut> = outs.into_iter().flatten().collect();
            check(&shared, &workers, &mut out.verdict);
            out.episodes.push(Episode {
                slice_mops: slices.untraced,
                traced_slice_mops: slices.traced,
                calls: window.calls,
                workers,
            });
        }
    }
    Ok(out)
}

struct Slices {
    untraced: Vec<f64>,
    traced: Vec<f64>,
}

struct Window {
    before: Snapshot,
    calls: u64,
}

/// Main-thread side of the timed window: warm up, open the window (workers
/// flush their counters, then the "before" snapshot is taken), read one
/// throughput per slice, stop the workers.
fn time_window(
    p: &Params,
    ctl: &Ctl,
    threads: usize,
    warmup: Duration,
    window: Duration,
) -> (Slices, Window) {
    std::thread::sleep(warmup);
    // Half-second slices: enough of them for a stable median, long enough
    // that the slice edges (one batch per worker) do not matter.
    let n = ((window.as_secs_f64() / 0.5).round() as usize).max(4);
    let slice = window / n as u32;
    ctl.phase.store(PH_RUN, Ordering::SeqCst);
    while ctl.flushed.load(Ordering::SeqCst) < threads {
        std::thread::yield_now();
    }
    let before = metrics::snapshot();
    let start = Instant::now();
    let calls0 = ctl.calls();
    let (mut prev_t, mut prev_c) = (start, calls0);
    let mut slices = Slices {
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    for k in 0..n {
        let traced = p.traced && k % 2 == 1;
        ctl.phase
            .store(if traced { PH_TRACED } else { PH_RUN }, Ordering::SeqCst);
        std::thread::sleep(slice);
        let (t, c) = (Instant::now(), ctl.calls());
        let mops = (c - prev_c) as f64 / (t - prev_t).as_secs_f64() / 1e6;
        if traced {
            slices.traced.push(mops);
        } else {
            slices.untraced.push(mops);
        }
        (prev_t, prev_c) = (t, c);
    }
    ctl.phase.store(PH_STOP, Ordering::SeqCst);
    let window = Window {
        before,
        calls: prev_c - calls0,
    };
    (slices, window)
}

/// Per-thread state of a queue worker.
struct QueueWorker<'a, Q> {
    q: &'a Q,
    tag: u64,
    seq: u64,
    thread: u8,
    out: WorkerOut,
}

impl<Q: Workq> QueueWorker<'_, Q> {
    #[inline(always)]
    fn next_value(&mut self) -> u64 {
        let v = self.tag | self.seq;
        self.seq += 1;
        self.out.enq += 1;
        self.out.enq_sum = self.out.enq_sum.wrapping_add(v);
        v
    }

    #[inline(always)]
    fn take(&mut self, got: Option<u64>) {
        match got {
            Some(v) => self.out.check.accept(v),
            None => self.out.deq_empty += 1,
        }
    }

    #[inline(always)]
    fn pair(&mut self) {
        let v = self.next_value();
        self.q.enqueue(v);
        let got = self.q.dequeue();
        self.take(got);
    }

    #[inline(always)]
    fn sampled_pair(&mut self) {
        let v = self.next_value();
        let t0 = ticks();
        self.q.enqueue(v);
        let t1 = ticks();
        let got = self.q.dequeue();
        let t2 = ticks();
        self.take(got);
        self.out.op.add(t1 - t0);
        self.out.op.add(t2 - t1);
        self.out.rtt.add(t2 - t0);
    }

    #[inline(always)]
    fn traced_pair(&mut self) {
        let v = self.next_value();
        let op = self.out.enq * 2;
        let t0 = ticks();
        self.q.enqueue(v);
        let t1 = ticks();
        let got = self.q.dequeue();
        let t2 = ticks();
        self.take(got);
        let span = |name, op, start, end| Span {
            name,
            thread: self.thread,
            op,
            parent: 0,
            start,
            end,
        };
        self.out.spans.record(span(trace::ENQUEUE, op - 1, t0, t1));
        self.out.spans.record(span(trace::DEQUEUE, op, t1, t2));
    }
}

/// `pairwise`, `backlog`, `sharded-pairwise`: each worker loops
/// enqueue → dequeue with no delay.
fn run_queue<Q: Workq>(p: &Params, make: impl Fn() -> Q + Sync) -> Result<Outcome, String> {
    let threads = p.threads;
    let producers = threads + 1; // producer 0 is the prefill
    let fifo = p.workload != Workload::ShardedPairwise;
    let prefill = if p.workload == Workload::Backlog {
        BACKLOG_PREFILL
    } else {
        0
    };
    let base0 = seq_base(p.seed, 0);
    let build = || {
        let q = make();
        for i in 0..prefill {
            q.enqueue(base0 + i);
        }
        q
    };
    let work = |q: &Q, ctl: &Ctl, t: usize| {
        let seed = splitmix64(p.seed ^ splitmix64(t as u64 + 1));
        let mut w = QueueWorker {
            q,
            tag: ((t + 1) as u64) << SEQ_BITS,
            seq: seq_base(p.seed, t + 1),
            thread: t as u8,
            out: WorkerOut::new(seed, producers, fifo),
        };
        let mut rng = XorShift64Star::new(seed);
        let mut gap = 1 + rng.next_below(2 * SAMPLE_GAP - 1);
        let mut opened = false;
        let (mut calls0, mut cpu0) = (0, 0);
        let (mut deq_empty0, mut batches) = (0, 0u64);
        loop {
            let phase = ctl.phase.load(Ordering::Relaxed);
            if phase == PH_STOP {
                break;
            }
            if phase != PH_WARMUP && !opened {
                metrics::flush();
                ctl.flushed.fetch_add(1, Ordering::SeqCst);
                opened = true;
                (calls0, cpu0) = (w.out.calls, clock::thread_cpu_ns());
                deq_empty0 = w.out.deq_empty;
            }
            match phase {
                PH_RUN => {
                    for _ in 0..BATCH {
                        gap -= 1;
                        if gap == 0 {
                            w.sampled_pair();
                            gap = 1 + rng.next_below(2 * SAMPLE_GAP - 1);
                        } else {
                            w.pair();
                        }
                    }
                }
                PH_TRACED => {
                    for _ in 0..BATCH {
                        w.traced_pair();
                    }
                    batches += 1;
                    if batches % 16 == 0 {
                        w.out.retired_peak = w.out.retired_peak.max(q.retired());
                    }
                }
                _ => {
                    for _ in 0..BATCH {
                        w.pair();
                    }
                }
            }
            w.out.calls += 2 * BATCH;
            ctl.progress[t].store(w.out.calls, Ordering::Relaxed);
        }
        metrics::flush();
        w.out.window_calls = w.out.calls - calls0;
        w.out.window_cpu_ns = clock::thread_cpu_ns() - cpu0;
        w.out.deq_calls = w.out.window_calls / 2;
        w.out.deq_empty -= deq_empty0;
        w.out
    };
    // Exactly-once: what the workers did not dequeue must still be in the
    // queue, and count and wrapping checksum must reconcile.
    let check = |q: &Q, workers: &[WorkerOut], v: &mut Verdict| {
        let mut drain = Checker::new(producers, fifo);
        let mut drained_calls = 0;
        while let Some(x) = q.dequeue() {
            drain.accept(x);
            drained_calls += 1;
        }
        let prefill_sum = (0..prefill).fold(0u64, |s, i| s.wrapping_add(base0 + i));
        let (mut sent, mut sent_sum) = (prefill, prefill_sum);
        let (mut got, mut got_sum) = (drain.got, drain.got_sum);
        v.attempted += prefill + drained_calls + 1;
        v.fail(
            drain.bad_values,
            format!("{} undecodable values in the drain", drain.bad_values),
        );
        v.fail(
            drain.order_violations,
            format!("{} FIFO violations in the drain", drain.order_violations),
        );
        for (t, w) in workers.iter().enumerate() {
            v.attempted += w.calls;
            sent += w.enq;
            sent_sum = sent_sum.wrapping_add(w.enq_sum);
            got += w.check.got;
            got_sum = got_sum.wrapping_add(w.check.got_sum);
            v.fail(
                w.check.order_violations,
                format!(
                    "thread {t}: {} values out of per-producer FIFO order",
                    w.check.order_violations
                ),
            );
            v.fail(
                w.check.bad_values,
                format!("thread {t}: {} undecodable values", w.check.bad_values),
            );
        }
        v.fail(
            sent.saturating_sub(got),
            format!("{} of {sent} values lost", sent.saturating_sub(got)),
        );
        v.fail(
            got.saturating_sub(sent),
            format!("{} values delivered twice", got.saturating_sub(sent)),
        );
        if sent == got && sent_sum != got_sum {
            v.fail(
                1,
                format!("checksum {got_sum:#x} != {sent_sum:#x} with matching counts"),
            );
        }
    };
    drive(p, threads, build, work, check)
}

/// The two channels of `channel-rtt`: requests client → server, replies
/// server → client.
struct RttChannels {
    req_tx: Sender<u64>,
    req_rx: Receiver<u64>,
    rep_tx: Sender<u64>,
    rep_rx: Receiver<u64>,
}

/// `channel-rtt`: thread 0 is the client (send, block in `recv` for the
/// reply, pause), thread 1 the server (block in `recv`, reply `x + 1`).
fn run_channel(p: &Params) -> Result<Outcome, String> {
    let build = || {
        let (req_tx, req_rx) = channel::<u64>();
        let (rep_tx, rep_rx) = channel::<u64>();
        RttChannels {
            req_tx,
            req_rx,
            rep_tx,
            rep_rx,
        }
    };
    let work = |ch: &RttChannels, ctl: &Ctl, t: usize| {
        let seed = splitmix64(p.seed ^ splitmix64(t as u64 + 1));
        let mut out = WorkerOut::new(seed, 1, false);
        if t == 0 {
            rtt_client(ch, ctl, seed, &mut out);
        } else {
            rtt_server(ch, ctl, &mut out);
        }
        out
    };
    let check = |ch: &RttChannels, workers: &[WorkerOut], v: &mut Verdict| {
        let (client, server) = (&workers[0], &workers[1]);
        v.attempted += client.calls + server.calls + 2;
        // `check.bad_values` counts wrong replies; `enq` counts requests
        // sent (client) and answered (server).
        v.fail(
            client.check.bad_values,
            format!("{} replies were not request + 1", client.check.bad_values),
        );
        v.fail(
            client.enq.saturating_sub(server.enq),
            format!("server answered {} of {} requests", server.enq, client.enq),
        );
        let leftovers = [ch.req_rx.try_recv(), ch.rep_rx.try_recv()]
            .into_iter()
            .filter(|r| !matches!(r, Err(TryRecvError::Empty)))
            .count() as u64;
        v.fail(leftovers, format!("{leftovers} channels not drained dry"));
    };
    drive(p, 2, build, work, check)
}

fn rtt_client(ch: &RttChannels, ctl: &Ctl, seed: u64, out: &mut WorkerOut) {
    let mut rng = XorShift64Star::new(seed);
    let mut opened = false;
    let (mut calls0, mut cpu0) = (0, 0);
    let mut rtt_id = 0u64;
    loop {
        let phase = ctl.phase.load(Ordering::Relaxed);
        if phase == PH_STOP {
            break;
        }
        if phase != PH_WARMUP && !opened {
            metrics::flush();
            ctl.flushed.fetch_add(1, Ordering::SeqCst);
            opened = true;
            (calls0, cpu0) = (out.calls, clock::thread_cpu_ns());
        }
        let req = rng.next_u64() >> 2; // below SENTINEL
        rtt_id += 1;
        let t0 = ticks();
        ch.req_tx.send(req).expect("request channel open");
        let t1 = ticks();
        let reply = ch.rep_rx.recv().expect("reply channel open");
        let t2 = ticks();
        out.enq += 1;
        if reply == req + 1 {
            out.check.got += 1;
        } else {
            out.check.bad_values += 1;
        }
        match phase {
            PH_RUN => {
                out.op.add(t1 - t0);
                out.rtt.add(t2 - t0);
            }
            PH_TRACED => {
                let span = |name, op, parent, start, end| Span {
                    name,
                    thread: 0,
                    op,
                    parent,
                    start,
                    end,
                };
                out.spans.record(span(trace::RTT, rtt_id, 0, t0, t2));
                out.spans
                    .record(span(trace::SEND, 2 * rtt_id - 1, rtt_id, t0, t1));
                out.spans
                    .record(span(trace::RECV, 2 * rtt_id, rtt_id, t1, t2));
            }
            _ => {}
        }
        if phase != PH_WARMUP {
            out.deq_calls += 1;
        }
        out.calls += 2;
        ctl.progress[0].store(out.calls, Ordering::Relaxed);
        clock::spin_ns(RTT_PAUSE_NS);
    }
    ch.req_tx.send(SENTINEL).expect("request channel open");
    metrics::flush();
    out.window_calls = out.calls - calls0;
    out.window_cpu_ns = clock::thread_cpu_ns() - cpu0;
}

fn rtt_server(ch: &RttChannels, ctl: &Ctl, out: &mut WorkerOut) {
    let mut opened = false;
    let (mut calls0, mut cpu0) = (0, 0);
    let mut rtt_id = 0u64;
    loop {
        let t0 = ticks();
        let req = ch.req_rx.recv().expect("request channel open");
        let t1 = ticks();
        if req == SENTINEL {
            break;
        }
        rtt_id += 1;
        let phase = ctl.phase.load(Ordering::Relaxed);
        if phase != PH_WARMUP && !opened {
            metrics::flush();
            ctl.flushed.fetch_add(1, Ordering::SeqCst);
            opened = true;
            (calls0, cpu0) = (out.calls, clock::thread_cpu_ns());
        }
        ch.rep_tx.send(req + 1).expect("reply channel open");
        let t2 = ticks();
        out.enq += 1;
        match phase {
            PH_RUN => out.op.add(t2 - t1),
            PH_TRACED => {
                let span = |name, op, start, end| Span {
                    name,
                    thread: 1,
                    op,
                    parent: rtt_id,
                    start,
                    end,
                };
                out.spans
                    .record(span(trace::SERVER_RECV, 2 * rtt_id - 1, t0, t1));
                out.spans
                    .record(span(trace::SERVER_SEND, 2 * rtt_id, t1, t2));
            }
            _ => {}
        }
        if phase != PH_WARMUP {
            out.deq_calls += 1;
        }
        out.calls += 2;
        ctl.progress[1].store(out.calls, Ordering::Relaxed);
    }
    metrics::flush();
    out.window_calls = out.calls - calls0;
    out.window_cpu_ns = clock::thread_cpu_ns() - cpu0;
}
