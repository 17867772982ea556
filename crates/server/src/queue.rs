//! Bounded per-subscriber event queues — the broadcast path's
//! backpressure policy.
//!
//! Every subscriber owns one single-producer single-consumer queue. The
//! producer is the session's scheduling turn (the worker thread inside
//! the broadcast path), which must **never block and never grow memory
//! without bound** on behalf of a slow consumer; the consumer is
//! whoever holds the [`EventReceiver`] — an in-process viewer or a wire
//! connection's writer thread.
//!
//! Overflow policy, in order:
//!
//! 1. **Coalesce** — if the incoming event and the newest queued event
//!    are both `TraceDelta`s, the new entries are appended to the queued
//!    delta (up to [`MAX_COALESCED_ENTRIES`] per delta). No data is
//!    lost; the subscriber just sees one bigger delta.
//! 2. **Drop oldest** — otherwise the oldest queued events are dropped
//!    to make room and counted; the receiver is handed an
//!    [`EngineEvent::Lagged`] carrying that count *before* the next
//!    surviving event, so loss is visible exactly where it happened.
//!    A dropped `TraceDelta` counts one per trace entry it carried;
//!    every other event counts one.
//!
//! A capacity of `0` selects the legacy unbounded queue (no coalescing,
//! no loss, unbounded memory) — the pre-backpressure behaviour.

use crate::event::EngineEvent;
use crate::metrics::{Counter, Gauge};
use crate::server::{lock, SessionId};
use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Hard cap on the entries a coalesced `TraceDelta` may accumulate;
/// past this, overflow falls through to drop-oldest so a stalled
/// subscriber bounds memory even on a delta-only stream.
pub const MAX_COALESCED_ENTRIES: usize = 4096;

/// A shared wake flag for a consumer multiplexing **many** queues: the
/// wire streamer drains every attach on its connection round-robin,
/// so it cannot block inside any single queue's condvar. Each of its
/// queues is built with the same `Arc<Notify>`; every push (and sender
/// drop) raises the flag, and the streamer sleeps on
/// [`Notify::wait_timeout`] only when a full sweep found nothing.
///
/// The flag is level-triggered and sticky: a notify that lands between
/// the streamer's sweep and its wait returns the wait immediately, so
/// no event can be stranded for a full poll interval.
#[derive(Debug, Default)]
pub(crate) struct Notify {
    flag: Mutex<bool>,
    cv: Condvar,
}

impl Notify {
    /// Raises the flag and wakes a waiter.
    pub(crate) fn notify(&self) {
        *lock(&self.flag) = true;
        self.cv.notify_all();
    }

    /// Sleeps until the flag is raised (consuming it) or `timeout`
    /// elapses. A flag raised before the call returns immediately.
    pub(crate) fn wait_timeout(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut flag = lock(&self.flag);
        loop {
            if *flag {
                *flag = false;
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            flag = self
                .cv
                .wait_timeout(flag, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }
}

#[derive(Debug)]
struct State {
    events: VecDeque<EngineEvent>,
    /// Events dropped since the last `Lagged` was handed out.
    dropped: u64,
    rx_alive: bool,
    tx_alive: bool,
}

#[derive(Debug)]
struct Channel {
    session: SessionId,
    /// Maximum queued events; `0` = unbounded (legacy behaviour).
    capacity: usize,
    state: Mutex<State>,
    cv: Condvar,
    /// The owning session's cumulative drop counter — bumped alongside
    /// `State::dropped` so losses outlive this queue (they feed
    /// [`crate::SessionSnapshot::lagged_drops`]).
    lagged: Counter,
    /// Fleet-wide queued-event gauge.
    depth: Gauge,
    /// External wake hook for consumers multiplexing many queues (the
    /// wire streamer); raised on every push and on sender drop.
    notify: Option<Arc<Notify>>,
}

/// Creates one subscriber queue for `session` with the given capacity
/// (`0` = unbounded). Drops are counted into `lagged` (the session's
/// cumulative counter) in addition to the in-stream `Lagged` report;
/// `depth` tracks the queue's current length in the fleet-wide
/// subscriber-depth gauge; `notify` — when present — is
/// raised on every push so a consumer sweeping many queues (the wire
/// streamer) can sleep on one flag instead of polling each condvar.
pub(crate) fn channel(
    session: SessionId,
    capacity: usize,
    lagged: Counter,
    depth: Gauge,
    notify: Option<Arc<Notify>>,
) -> (EventSender, EventReceiver) {
    let chan = Arc::new(Channel {
        session,
        capacity,
        state: Mutex::new(State {
            events: VecDeque::new(),
            dropped: 0,
            rx_alive: true,
            tx_alive: true,
        }),
        cv: Condvar::new(),
        lagged,
        depth,
        notify,
    });
    (EventSender(Arc::clone(&chan)), EventReceiver(chan))
}

/// The producer half, held in the session's subscriber list.
#[derive(Debug)]
pub(crate) struct EventSender(Arc<Channel>);

impl EventSender {
    /// Enqueues `event`, applying the overflow policy. Never blocks.
    /// Returns `false` once the receiver is gone (prune the sender).
    pub(crate) fn push(&self, mut event: EngineEvent) -> bool {
        let ch = &*self.0;
        let mut s = lock(&ch.state);
        if !s.rx_alive {
            return false;
        }
        if ch.capacity > 0 && s.events.len() >= ch.capacity {
            if let EngineEvent::TraceDelta {
                session,
                mut entries,
            } = event
            {
                if let Some(EngineEvent::TraceDelta { entries: tail, .. }) = s.events.back_mut() {
                    if tail.len() + entries.len() <= MAX_COALESCED_ENTRIES {
                        tail.append(&mut entries);
                        drop(s);
                        ch.cv.notify_one();
                        if let Some(notify) = &ch.notify {
                            notify.notify();
                        }
                        return true;
                    }
                }
                event = EngineEvent::TraceDelta { session, entries };
            }
            while s.events.len() >= ch.capacity {
                let lost = match s.events.pop_front() {
                    Some(EngineEvent::TraceDelta { entries, .. }) => entries.len() as u64,
                    Some(_) => 1,
                    None => break,
                };
                s.dropped += lost;
                ch.lagged.add(lost);
                ch.depth.dec();
            }
        }
        s.events.push_back(event);
        ch.depth.inc();
        drop(s);
        ch.cv.notify_one();
        if let Some(notify) = &ch.notify {
            notify.notify();
        }
        true
    }
}

impl Drop for EventSender {
    fn drop(&mut self) {
        lock(&self.0.state).tx_alive = false;
        self.0.cv.notify_all();
        if let Some(notify) = &self.0.notify {
            notify.notify();
        }
    }
}

/// Takes the next deliverable item under the lock: a pending `Lagged`
/// report first (drops always happen *before* the current queue front
/// in stream order), then the front event.
fn take_next(ch: &Channel, s: &mut State) -> Option<EngineEvent> {
    if s.dropped > 0 {
        let dropped = std::mem::take(&mut s.dropped);
        return Some(EngineEvent::Lagged {
            session: ch.session,
            dropped,
        });
    }
    let event = s.events.pop_front();
    if event.is_some() {
        ch.depth.dec();
    }
    event
}

/// The consumer half of a session's broadcast subscription.
///
/// Behaves like an [`mpsc::Receiver`] over [`EngineEvent`]s (the
/// pre-backpressure subscription type), with one addition: when the
/// bounded queue overflowed, the next received event is an
/// [`EngineEvent::Lagged`] marking exactly where data was dropped.
/// Dropping the receiver unsubscribes.
#[derive(Debug)]
pub struct EventReceiver(Arc<Channel>);

impl EventReceiver {
    /// The session this subscription observes.
    pub fn session(&self) -> SessionId {
        self.0.session
    }

    /// The queue's capacity (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.0.capacity
    }

    /// Events currently queued (excluding a pending `Lagged` report).
    /// Never exceeds the capacity of a bounded queue.
    pub fn len(&self) -> usize {
        lock(&self.0.state).events.len()
    }

    /// `true` when nothing is ready — no queued event and no pending
    /// `Lagged` report.
    pub fn is_empty(&self) -> bool {
        let s = lock(&self.0.state);
        s.events.is_empty() && s.dropped == 0
    }

    /// Non-blocking receive.
    ///
    /// # Errors
    ///
    /// [`mpsc::TryRecvError::Empty`] when nothing is queued,
    /// [`mpsc::TryRecvError::Disconnected`] once the session is gone
    /// *and* the queue is drained.
    pub fn try_recv(&self) -> Result<EngineEvent, mpsc::TryRecvError> {
        let mut s = lock(&self.0.state);
        match take_next(&self.0, &mut s) {
            Some(event) => Ok(event),
            None if !s.tx_alive => Err(mpsc::TryRecvError::Disconnected),
            None => Err(mpsc::TryRecvError::Empty),
        }
    }

    /// Blocking receive with a timeout.
    ///
    /// # Errors
    ///
    /// [`mpsc::RecvTimeoutError::Timeout`] when `timeout` elapses,
    /// [`mpsc::RecvTimeoutError::Disconnected`] once the session is
    /// gone *and* the queue is drained.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<EngineEvent, mpsc::RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut s = lock(&self.0.state);
        loop {
            if let Some(event) = take_next(&self.0, &mut s) {
                return Ok(event);
            }
            if !s.tx_alive {
                return Err(mpsc::RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(mpsc::RecvTimeoutError::Timeout);
            }
            s = self
                .0
                .cv
                .wait_timeout(s, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    /// Drains everything currently deliverable without blocking — the
    /// post-run inspection loop (`for event in sub.try_iter()`).
    pub fn try_iter(&self) -> TryIter<'_> {
        TryIter(self)
    }
}

impl Drop for EventReceiver {
    fn drop(&mut self) {
        let mut s = lock(&self.0.state);
        s.rx_alive = false;
        // Events still queued will never be taken: release them now so
        // the fleet depth gauge doesn't leak this queue's residue.
        self.0.depth.sub(s.events.len() as u64);
        s.events.clear();
        // No cv notify needed: only the receiver waits on the condvar.
    }
}

/// Iterator over currently deliverable events (see
/// [`EventReceiver::try_iter`]).
#[derive(Debug)]
pub struct TryIter<'a>(&'a EventReceiver);

impl Iterator for TryIter<'_> {
    type Item = EngineEvent;

    fn next(&mut self) -> Option<EngineEvent> {
        self.0.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmdf_engine::TraceEntry;
    use gmdf_gdm::{EventKind, ModelEvent};

    fn entry(seq: u64) -> TraceEntry {
        TraceEntry {
            seq,
            event: ModelEvent::new(seq * 10, EventKind::StateEnter, "A/fsm"),
            reactions: vec![],
            violations: vec![],
        }
    }

    fn delta(seqs: std::ops::Range<u64>) -> EngineEvent {
        EngineEvent::TraceDelta {
            session: 7,
            entries: seqs.map(entry).collect(),
        }
    }

    fn idle(now_ns: u64) -> EngineEvent {
        EngineEvent::Idle { session: 7, now_ns }
    }

    #[test]
    fn unbounded_queue_never_drops() {
        let (tx, rx) = channel(7, 0, Counter::new(), Gauge::new(), None);
        for i in 0..1000 {
            assert!(tx.push(idle(i)));
        }
        assert_eq!(rx.try_iter().count(), 1000);
        assert!(matches!(rx.try_recv(), Err(mpsc::TryRecvError::Empty)));
    }

    #[test]
    fn overflow_coalesces_consecutive_trace_deltas() {
        let (tx, rx) = channel(7, 2, Counter::new(), Gauge::new(), None);
        assert!(tx.push(delta(0..2)));
        assert!(tx.push(delta(2..4)));
        // Queue full; the next delta merges into the newest one.
        assert!(tx.push(delta(4..6)));
        let got: Vec<_> = rx.try_iter().collect();
        assert_eq!(got.len(), 2);
        let EngineEvent::TraceDelta { entries, .. } = &got[1] else {
            panic!("expected delta, got {:?}", got[1]);
        };
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5]);
    }

    #[test]
    fn overflow_drops_oldest_and_reports_lagged_first() {
        let (tx, rx) = channel(7, 2, Counter::new(), Gauge::new(), None);
        assert!(tx.push(idle(0)));
        assert!(tx.push(idle(1)));
        assert!(tx.push(idle(2))); // drops idle(0)
        let got: Vec<_> = rx.try_iter().collect();
        assert_eq!(
            got[0],
            EngineEvent::Lagged {
                session: 7,
                dropped: 1
            }
        );
        assert_eq!(got[1], idle(1));
        assert_eq!(got[2], idle(2));
    }

    #[test]
    fn dropped_trace_delta_counts_its_entries() {
        let (tx, rx) = channel(7, 1, Counter::new(), Gauge::new(), None);
        assert!(tx.push(delta(0..3)));
        assert!(tx.push(idle(0))); // cannot coalesce → drops the delta
        let got: Vec<_> = rx.try_iter().collect();
        assert_eq!(
            got[0],
            EngineEvent::Lagged {
                session: 7,
                dropped: 3
            }
        );
        assert_eq!(got[1], idle(0));
    }

    #[test]
    fn bounded_queue_length_never_exceeds_capacity() {
        let (tx, rx) = channel(7, 4, Counter::new(), Gauge::new(), None);
        for i in 0..100 {
            assert!(tx.push(idle(i)));
            assert!(rx.len() <= 4);
        }
    }

    #[test]
    fn receiver_drop_unsubscribes() {
        let (tx, rx) = channel(7, 0, Counter::new(), Gauge::new(), None);
        drop(rx);
        assert!(!tx.push(idle(0)));
    }

    #[test]
    fn sender_drop_disconnects_after_drain() {
        let (tx, rx) = channel(7, 0, Counter::new(), Gauge::new(), None);
        assert!(tx.push(idle(0)));
        drop(tx);
        assert!(rx.try_recv().is_ok());
        assert!(matches!(
            rx.try_recv(),
            Err(mpsc::TryRecvError::Disconnected)
        ));
        assert!(matches!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(mpsc::RecvTimeoutError::Disconnected)
        ));
    }

    #[test]
    fn notify_wakes_on_push_and_is_sticky() {
        let notify = Arc::new(Notify::default());
        let (tx, rx) = channel(
            7,
            0,
            Counter::new(),
            Gauge::new(),
            Some(Arc::clone(&notify)),
        );
        // Raised before the wait: returns immediately (sticky flag).
        assert!(tx.push(idle(0)));
        let start = Instant::now();
        notify.wait_timeout(Duration::from_secs(5));
        assert!(start.elapsed() < Duration::from_secs(1));
        // Flag was consumed: with nothing new, the wait times out.
        let start = Instant::now();
        notify.wait_timeout(Duration::from_millis(10));
        assert!(start.elapsed() >= Duration::from_millis(10));
        // Sender drop raises it too, so a sweeping consumer notices
        // disconnects without polling.
        drop(tx);
        let start = Instant::now();
        notify.wait_timeout(Duration::from_secs(5));
        assert!(start.elapsed() < Duration::from_secs(1));
        drop(rx);
    }
}
