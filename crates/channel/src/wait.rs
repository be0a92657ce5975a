//! A combined wait queue: blocking waiters (threads parked on an
//! [`EventCount`]) and async waiters (futures parked in a
//! [`WakerRegistry`]) on one condition, notified together.
//!
//! A producer cannot know whether the consumer it is about to unblock is a
//! thread or a future, so each notify fans out to both sides. A spurious
//! notification to the wrong side is harmless — both protocols re-poll the
//! real condition on wakeup — while a missed one would hang a consumer, so
//! the fan-out errs on the side of waking.

use core::task::{Context, Poll};
use std::time::Instant;

use lcrq_util::backoff::Backoff;
use lcrq_util::parker::EventCount;

use crate::waker::{Registration, WakerRegistry};

/// Waiters for one condition of the channel ("not empty" / "not full").
pub(crate) struct WaitQueue {
    /// Blocking-side waiters (`send`/`recv`/`recv_timeout`).
    pub(crate) evc: EventCount,
    /// Async-side waiters (`send_async`/`recv_async`/`poll_recv`).
    pub(crate) wakers: WakerRegistry,
}

impl WaitQueue {
    pub(crate) fn new() -> Self {
        Self {
            evc: EventCount::new(),
            wakers: WakerRegistry::new(),
        }
    }

    /// Wakes one waiter on each side (one item's worth of wake tokens).
    pub(crate) fn notify_one(&self) {
        self.evc.notify_one();
        self.wakers.wake_one();
    }

    /// Wakes every waiter on both sides (shutdown, batch production).
    pub(crate) fn notify_all(&self) {
        self.evc.notify_all();
        self.wakers.wake_all();
    }

    /// The blocking wait ladder: poll → [`Backoff`] (spin, then yield) →
    /// park on the event count. `attempt` returns `Some` once the operation
    /// is done. Each park first takes a ticket and re-runs `attempt`, so a
    /// notify racing the park is never lost, and a parked thread runs no
    /// attempt (zero F&A) until woken. Gives up with `None` at `deadline`;
    /// the park then wakes exactly at the deadline.
    pub(crate) fn wait_until<X>(
        &self,
        deadline: Option<Instant>,
        mut attempt: impl FnMut() -> Option<X>,
    ) -> Option<X> {
        if let Some(done) = attempt() {
            return Some(done);
        }
        let backoff = Backoff::new();
        while !backoff.is_completed() {
            backoff.snooze();
            if let Some(done) = attempt() {
                return Some(done);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return None;
            }
        }
        loop {
            let ticket = self.evc.prepare();
            if let Some(done) = attempt() {
                self.evc.cancel(ticket);
                return Some(done);
            }
            let Some(deadline) = deadline else {
                self.evc.wait(ticket);
                continue;
            };
            let Some(left) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                self.evc.cancel(ticket);
                return None;
            };
            self.evc.wait_timeout(ticket, left);
        }
    }

    /// The async twin of [`wait_until`](Self::wait_until): `attempt`,
    /// register the task's waker, `attempt` again, then `Pending`. A notify
    /// racing the registration either finds it or happened before the
    /// second attempt, which then sees its effect. `reg` is the caller's
    /// standing registration: dropped on entry, replaced on `Pending`.
    pub(crate) fn poll_until<X>(
        &self,
        reg: &mut Option<Registration>,
        cx: &mut Context<'_>,
        mut attempt: impl FnMut() -> Option<X>,
    ) -> Poll<X> {
        if let Some(old) = reg.take() {
            self.wakers.deregister(old);
        }
        if let Some(done) = attempt() {
            return Poll::Ready(done);
        }
        let new = self.wakers.register(cx.waker());
        if let Some(done) = attempt() {
            self.wakers.deregister(new);
            return Poll::Ready(done);
        }
        *reg = Some(new);
        Poll::Pending
    }
}
