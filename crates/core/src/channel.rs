//! An unbounded channel with a shareable receiver.
//!
//! The simulated interconnect hands each node one receive queue per port and
//! shares that queue between the node's compute thread and whichever thread
//! serves its requests. `std::sync::mpsc::Receiver` is `!Sync`, which
//! rules it out; this module provides the minimal replacement: an unbounded
//! FIFO whose [`Sender`] is cheaply cloneable and whose [`Receiver`] is
//! `Sync`, with disconnection reported once every sender is gone.
//!
//! Per-channel FIFO ordering is guaranteed: messages pushed by one thread
//! are popped in push order, which is the delivery-order property the DSM
//! protocol relies on (write notices and diffs from one node must not
//! overtake each other).

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How many times a receive that finds its queue empty yields the processor
/// and re-checks the queue before it parks on the condition variable. The
/// simulated adapter is polled, like the SP/2's, and on a host with fewer
/// cores than runnable threads most replies arrive within a few yields, which
/// costs far less than a futex sleep and its wake-up. Swept at 1, 4, 16 and
/// 64 yields (6 alternating 4-s runs a bound, seeds 0–5, 2 CPUs): `wide64`'s
/// host time fell 7 %, 15 %, 20 % and 21 %, `tmk8`'s moved +2 %, −3 %, −8 %
/// and −11 % inside an 8 % spread; 64 against 16 resolved no gain on `tmk8`,
/// `locks8` or `chaos8`.
const YIELDS_BEFORE_PARK: u32 = 16;

/// Error returned by [`Receiver::recv`] when the channel is empty and every
/// sender has been dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty but senders remain.
    Empty,
    /// The channel is empty and every sender has been dropped.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("channel is empty"),
            TryRecvError::Disconnected => f.write_str("channel is empty and disconnected"),
        }
    }
}

impl std::error::Error for TryRecvError {}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout; senders remain.
    Timeout,
    /// The channel is empty and every sender has been dropped.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
            RecvTimeoutError::Disconnected => f.write_str("channel is empty and disconnected"),
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

struct Shared<T> {
    queue: Mutex<Queue<T>>,
    ready: Condvar,
    senders: AtomicUsize,
}

struct Queue<T> {
    items: VecDeque<T>,
    /// Receivers blocked on `ready`; a send with nobody parked skips the
    /// condition variable's wake-up call.
    parked: usize,
    /// Wake-ups sent to parked receivers that none has returned from yet. A
    /// send wakes a receiver only while `parked > woken`, so a parked
    /// receiver is woken once, not once per message queued before it runs.
    woken: usize,
    /// Waits entered, ever.
    #[cfg(test)]
    parks: usize,
    /// Wake-up calls made, ever.
    #[cfg(test)]
    notifies: usize,
    /// Yields made by receivers that found the queue empty, ever.
    #[cfg(test)]
    yields: usize,
}

impl<T> Queue<T> {
    /// Called under the lock just before a receiver waits on `ready`.
    fn park(&mut self) {
        self.parked += 1;
        #[cfg(test)]
        {
            self.parks += 1;
        }
    }

    /// Called under the lock as a receiver returns from a wait, whatever
    /// ended it: a wake-up, a timeout or a spurious return. Counting every
    /// return as the consumption of a wake-up can only lower `woken`, which
    /// costs at most an extra wake-up, never a lost one.
    fn unpark(&mut self) {
        self.parked -= 1;
        self.woken = self.woken.saturating_sub(1);
    }
}

impl<T> Shared<T> {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, Queue<T>> {
        // Poisoning cannot leave the queue in a broken state (pushes and pops
        // are single operations), so recover instead of propagating panics.
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The sending half of an unbounded channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Appends `value` to the channel. Never blocks; the queue is unbounded.
    /// A send after all receivers are gone simply parks the value in the
    /// queue, matching the semantics the interconnect expects at teardown.
    pub fn send(&self, value: T) {
        let mut queue = self.shared.lock_queue();
        queue.items.push_back(value);
        let wake = queue.parked > queue.woken;
        if wake {
            queue.woken += 1;
            #[cfg(test)]
            {
                queue.notifies += 1;
            }
        }
        drop(queue);
        if wake {
            self.shared.ready.notify_one();
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::Relaxed);
        Sender { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender gone: wake blocked receivers so they observe the
            // disconnection. The queue mutex must be held across the
            // notification — otherwise a receiver that has checked the
            // sender count but not yet parked on the condvar would miss the
            // wakeup and block forever.
            let _guard = self.shared.lock_queue();
            self.shared.ready.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender").finish_non_exhaustive()
    }
}

/// The receiving half of an unbounded channel.
///
/// Unlike `std::sync::mpsc`, the receiver is `Sync`: several threads may
/// receive from it through a shared reference (each message is delivered to
/// exactly one of them).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Blocks until a message is available or every sender has been dropped.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] if the channel is empty and disconnected.
    pub fn recv(&self) -> Result<T, RecvError> {
        // With no deadline the wait ends only in a message or a disconnection.
        self.wait(None).map_err(|_| RecvError)
    }

    /// Blocks until a message is available, every sender has been dropped, or
    /// `timeout` (real time) elapses. The timeout is a liveness backstop —
    /// callers use it to turn a wedged protocol into a diagnosable failure —
    /// so the deadline is measured against the wall clock, not virtual time.
    ///
    /// # Errors
    ///
    /// Returns [`RecvTimeoutError::Timeout`] when the deadline passes with the
    /// channel still empty, and [`RecvTimeoutError::Disconnected`] when the
    /// channel is empty and every sender is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        // A timeout too long to represent is no deadline at all.
        self.wait(Instant::now().checked_add(timeout))
    }

    /// The one blocking receive: pops the next message, first re-checking an
    /// empty queue [`YIELDS_BEFORE_PARK`] times with a yield of the processor
    /// between checks, then parking on `ready` until a send or the deadline.
    /// The deadline is checked before every yield and every park, so the
    /// yield phase never stretches it.
    fn wait(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let mut queue = self.shared.lock_queue();
        let mut yields = 0;
        loop {
            if let Some(value) = queue.items.pop_front() {
                return Ok(value);
            }
            if self.shared.senders.load(Ordering::Acquire) == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let remaining =
                deadline.map(|deadline| deadline.saturating_duration_since(Instant::now()));
            if remaining.is_some_and(|remaining| remaining.is_zero()) {
                return Err(RecvTimeoutError::Timeout);
            }
            if yields < YIELDS_BEFORE_PARK {
                // Not parked, so a send makes no wake-up call for this
                // receiver: the next check finds the message.
                yields += 1;
                #[cfg(test)]
                {
                    queue.yields += 1;
                }
                drop(queue);
                std::thread::yield_now();
                queue = self.shared.lock_queue();
                continue;
            }
            // Spurious wakeups are handled by the loop; the deadline is
            // rechecked each iteration so the total wait never exceeds it.
            queue.park();
            queue = match remaining {
                None => self.shared.ready.wait(queue).unwrap_or_else(|e| e.into_inner()),
                Some(remaining) => {
                    self.shared
                        .ready
                        .wait_timeout(queue, remaining)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
            queue.unpark();
        }
    }

    /// Number of messages currently queued. A concurrent send or pop can
    /// change the answer as soon as it returns, but it is read under the
    /// queue's lock, so it counts every send that happened before the call
    /// and has not been popped.
    pub fn len(&self) -> usize {
        self.shared.lock_queue().items.len()
    }

    /// Whether the channel is currently empty. Same caveat as [`len`](Self::len):
    /// the answer is advisory under concurrency.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pops a message if one is queued.
    ///
    /// # Errors
    ///
    /// Returns [`TryRecvError::Empty`] when nothing is queued and
    /// [`TryRecvError::Disconnected`] when additionally no sender remains.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut queue = self.shared.lock_queue();
        match queue.items.pop_front() {
            Some(value) => Ok(value),
            None if self.shared.senders.load(Ordering::Acquire) == 0 => {
                Err(TryRecvError::Disconnected)
            }
            None => Err(TryRecvError::Empty),
        }
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver").finish_non_exhaustive()
    }
}

/// Creates an unbounded channel, returning the sender and receiver halves.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(Queue {
            items: VecDeque::new(),
            parked: 0,
            woken: 0,
            #[cfg(test)]
            parks: 0,
            #[cfg(test)]
            notifies: 0,
            #[cfg(test)]
            yields: 0,
        }),
        ready: Condvar::new(),
        senders: AtomicUsize::new(1),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_then_recv_is_fifo() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i);
        }
        for i in 0..100 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn len_tracks_queued_messages() {
        let (tx, rx) = unbounded();
        assert!(rx.is_empty());
        for i in 0..5 {
            tx.send(i);
        }
        assert_eq!(rx.len(), 5);
        assert!(!rx.is_empty());
        assert_eq!(rx.try_recv(), Ok(0));
        assert_eq!(rx.len(), 4);
    }

    #[test]
    fn try_recv_reports_empty_and_disconnected() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(1);
        assert_eq!(rx.try_recv(), Ok(1));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn recv_unblocks_on_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        let handle = std::thread::spawn(move || rx.recv());
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(tx);
        assert_eq!(handle.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn recv_timeout_returns_queued_messages_immediately() {
        let (tx, rx) = unbounded();
        tx.send(3);
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)), Ok(3));
    }

    #[test]
    fn recv_timeout_times_out_on_an_empty_connected_channel() {
        let (_tx, rx) = unbounded::<u8>();
        let start = std::time::Instant::now();
        let got = rx.recv_timeout(std::time::Duration::from_millis(20));
        assert_eq!(got, Err(RecvTimeoutError::Timeout));
        assert!(start.elapsed() >= std::time::Duration::from_millis(20));
    }

    #[test]
    fn the_yield_phase_never_stretches_a_deadline() {
        let (_tx, rx) = unbounded::<u8>();
        let start = Instant::now();
        assert_eq!(rx.recv_timeout(Duration::ZERO), Err(RecvTimeoutError::Timeout));
        assert!(start.elapsed() < Duration::from_secs(1), "took {:?}", start.elapsed());
        assert_eq!(
            (wake_tally(&rx), yield_count(&rx)),
            ((0, 0), 0),
            "a spent deadline neither yields nor parks"
        );
    }

    #[test]
    fn a_receive_that_finds_a_message_queued_neither_yields_nor_parks() {
        let (tx, rx) = unbounded::<u8>();
        tx.send(1);
        tx.send(2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(2));
        assert_eq!((wake_tally(&rx), yield_count(&rx)), ((0, 0), 0));
    }

    #[test]
    fn a_receive_that_outlasts_the_yield_phase_parks_once_and_is_woken_once() {
        let (tx, rx) = unbounded::<u8>();
        std::thread::scope(|s| {
            let receiver = s.spawn(|| rx.recv());
            while rx.shared.lock_queue().parked == 0 {
                std::thread::yield_now();
            }
            tx.send(4);
            assert_eq!(receiver.join().unwrap(), Ok(4));
        });
        assert_eq!(yield_count(&rx), YIELDS_BEFORE_PARK as usize);
        assert_eq!(wake_tally(&rx), (1, 1), "(parks, wake-up calls)");
    }

    #[test]
    fn recv_timeout_reports_disconnection() {
        let (tx, rx) = unbounded::<u8>();
        drop(tx);
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn recv_timeout_wakes_on_late_send() {
        let (tx, rx) = unbounded::<u8>();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                tx.send(9);
            });
            assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)), Ok(9));
        });
    }

    #[test]
    fn a_send_wakes_a_parked_receiver() {
        // The receiver is parked before the send, so only the send's
        // notification can wake it before its deadline.
        let (tx, rx) = unbounded::<u8>();
        let timeout = std::time::Duration::from_secs(10);
        std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                let start = std::time::Instant::now();
                (rx.recv_timeout(timeout), start.elapsed())
            });
            while rx.shared.lock_queue().parked == 0 {
                std::thread::yield_now();
            }
            tx.send(5);
            let (got, waited) = receiver.join().unwrap();
            assert_eq!(got, Ok(5));
            assert!(waited < timeout / 2, "the send left the receiver parked for {waited:?}");
        });
    }

    /// `(parks, notifies)` of `rx`'s channel so far.
    fn wake_tally<T>(rx: &Receiver<T>) -> (usize, usize) {
        let queue = rx.shared.lock_queue();
        (queue.parks, queue.notifies)
    }

    /// Yields made by `rx`'s receivers so far.
    fn yield_count<T>(rx: &Receiver<T>) -> usize {
        rx.shared.lock_queue().yields
    }

    #[test]
    fn a_burst_to_one_parked_receiver_wakes_it_once_per_park() {
        let (tx, rx) = unbounded::<u32>();
        let timeout = std::time::Duration::from_secs(10);
        std::thread::scope(|s| {
            let receiver =
                s.spawn(|| (0..100).map(|_| rx.recv_timeout(timeout)).collect::<Vec<_>>());
            while rx.shared.lock_queue().parked == 0 {
                std::thread::yield_now();
            }
            // The sends outrun the woken receiver: one wake-up covers every
            // message queued before it runs, where a call per send made
            // up to 100.
            for i in 0..100 {
                tx.send(i);
            }
            let got = receiver.join().unwrap();
            assert_eq!(got, (0..100).map(Ok).collect::<Vec<_>>());
        });
        let (parks, notifies) = wake_tally(&rx);
        assert!(notifies <= parks, "{notifies} wake-up calls for {parks} parks");
        assert!(notifies >= 1, "the first send must wake the parked receiver");
    }

    #[test]
    fn under_contention_every_message_arrives_once_and_no_park_is_woken_twice() {
        const SENDERS: usize = 4;
        const RECEIVERS: usize = 3;
        const PER_SENDER: usize = 2_000;
        let (tx, rx) = unbounded::<usize>();
        let done = AtomicUsize::new(0);
        let received: Vec<Vec<usize>> = std::thread::scope(|s| {
            for sender in 0..SENDERS {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..PER_SENDER {
                        tx.send(sender * PER_SENDER + i);
                        if i % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let receivers: Vec<_> = (0..RECEIVERS)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        while done.load(Ordering::Relaxed) < SENDERS * PER_SENDER {
                            // Short waits: most of them time out, which
                            // must not cost a later message its wake-up.
                            if let Ok(v) = rx.recv_timeout(std::time::Duration::from_millis(1)) {
                                got.push(v);
                                done.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        got
                    })
                })
                .collect();
            receivers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let mut all: Vec<usize> = received.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..SENDERS * PER_SENDER).collect::<Vec<_>>());
        let (parks, notifies) = wake_tally(&rx);
        assert!(notifies <= parks, "{notifies} wake-up calls for {parks} parks");
    }

    #[test]
    fn pending_messages_survive_sender_drop() {
        let (tx, rx) = unbounded();
        tx.send(7);
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn cloned_senders_feed_one_queue() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..500 {
                    tx.send(1u64);
                }
            });
            s.spawn(move || {
                for _ in 0..500 {
                    tx2.send(1u64);
                }
            });
        });
        let mut total = 0;
        while let Ok(v) = rx.try_recv() {
            total += v;
        }
        assert_eq!(total, 1000);
    }
}
