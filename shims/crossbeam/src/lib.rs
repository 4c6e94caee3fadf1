//! Offline shim for the `crossbeam` crate.
//!
//! The workspace uses `crossbeam::thread::scope` and
//! `crossbeam::channel`. Since Rust 1.63 the standard library provides
//! scoped threads, so the thread half is a thin adapter: it reproduces
//! crossbeam's closure signature (the scope handle is passed to every
//! spawned closure, and the outer call returns `Err` instead of
//! panicking when a child thread panics). The channel half is a
//! Mutex+Condvar MPMC queue with crossbeam's disconnect semantics
//! (`recv` errors once every sender is gone and the queue is drained;
//! `send` errors once every receiver is gone).

/// Scoped-thread support mirroring `crossbeam::thread`.
pub mod thread {
    use std::any::Any;

    /// Handle for spawning threads inside a [`scope`] call.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread. As in crossbeam, the closure receives
        /// the scope handle so it can spawn further threads.
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            self.inner.spawn(move || f(&Scope { inner }))
        }
    }

    /// Runs `f` with a scope handle; all spawned threads are joined before
    /// returning. A panic in any spawned thread surfaces as `Err`.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }
}

/// Multi-producer multi-consumer channels mirroring `crossbeam::channel`.
///
/// Implemented as a `Mutex<VecDeque>` + two `Condvar`s. The subset is
/// what the workspace needs: `bounded`/`unbounded` constructors,
/// cloneable `Sender`/`Receiver` halves, blocking `send`/`recv`,
/// `try_recv`, and iteration. `bounded(0)` is a true rendezvous channel,
/// matching crossbeam: `send` blocks until a receiver takes the message
/// (tracked by per-message tickets), not until the message is merely
/// enqueued.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};

    struct State<T> {
        /// Messages with their push tickets. For capacity > 0 the ticket
        /// is bookkeeping only; for a rendezvous channel (`cap == 0`) a
        /// blocked sender uses it to learn when *its* message was taken
        /// (and to reclaim it if every receiver leaves first).
        queue: VecDeque<(u64, T)>,
        /// `None` = unbounded.
        cap: Option<usize>,
        /// Tickets assigned to pushed messages so far.
        pushed: u64,
        /// Tickets consumed by `recv`/`try_recv` so far. Pops are FIFO,
        /// so `popped > t` means the message with ticket `t` was taken.
        popped: u64,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone;
    /// carries the unsent message back.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty but senders remain.
        Empty,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// A channel holding at most `cap` in-flight messages; `send` blocks
    /// while it is full. `bounded(0)` is a rendezvous channel: `send`
    /// blocks until a receiver takes the message.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap))
    }

    /// A channel with no capacity bound; `send` never blocks.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                cap,
                pushed: 0,
                popped: 0,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Blocks until the message is enqueued — or, on a rendezvous
        /// channel (`bounded(0)`), until a receiver has taken it. If
        /// every receiver is dropped first, the message comes back in
        /// the error.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            if st.cap == Some(0) {
                return self.send_rendezvous(st, msg);
            }
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                match st.cap {
                    Some(cap) if st.queue.len() >= cap => {
                        st = self.shared.not_full.wait(st).expect("channel poisoned");
                    }
                    _ => break,
                }
            }
            let ticket = st.pushed;
            st.pushed += 1;
            st.queue.push_back((ticket, msg));
            drop(st);
            self.shared.not_empty.notify_one();
            Ok(())
        }

        /// The rendezvous handoff: park the message in the queue, then
        /// block until a receiver pops it. Pops are FIFO by ticket, so
        /// `popped > ticket` proves *this* message was taken; if every
        /// receiver leaves while it is still queued, it is reclaimed
        /// into the `SendError`.
        fn send_rendezvous(
            &self,
            mut st: std::sync::MutexGuard<'_, State<T>>,
            msg: T,
        ) -> Result<(), SendError<T>> {
            if st.receivers == 0 {
                return Err(SendError(msg));
            }
            let ticket = st.pushed;
            st.pushed += 1;
            st.queue.push_back((ticket, msg));
            self.shared.not_empty.notify_one();
            loop {
                if st.popped > ticket {
                    return Ok(());
                }
                if st.receivers == 0 {
                    return match st.queue.iter().position(|(t, _)| *t == ticket) {
                        Some(at) => {
                            let (_, msg) = st.queue.remove(at).expect("position just found");
                            Err(SendError(msg))
                        }
                        // FIFO pops mean an absent ticket was consumed
                        // (popped is updated under the same lock, so this
                        // arm is unreachable; kept for robustness).
                        None => Ok(()),
                    };
                }
                st = self.shared.not_full.wait(st).expect("channel poisoned");
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives (or until the channel is empty
        /// with every sender dropped).
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            loop {
                if let Some((ticket, msg)) = st.queue.pop_front() {
                    st.popped = ticket + 1;
                    let rendezvous = st.cap == Some(0);
                    drop(st);
                    if rendezvous {
                        // Every parked sender re-checks its own ticket.
                        self.shared.not_full.notify_all();
                    } else {
                        self.shared.not_full.notify_one();
                    }
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.shared.not_empty.wait(st).expect("channel poisoned");
            }
        }

        /// Pops a message if one is ready; never blocks. On a rendezvous
        /// channel this succeeds exactly when a sender is parked in
        /// `send`, completing that sender's handoff.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            if let Some((ticket, msg)) = st.queue.pop_front() {
                st.popped = ticket + 1;
                let rendezvous = st.cap == Some(0);
                drop(st);
                if rendezvous {
                    self.shared.not_full.notify_all();
                } else {
                    self.shared.not_full.notify_one();
                }
                return Ok(msg);
            }
            if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.shared
                .state
                .lock()
                .expect("channel poisoned")
                .queue
                .len()
        }

        /// True when no message is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// A blocking iterator that ends when the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    /// Iterator over received messages (see [`Receiver::iter`]).
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;

        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().expect("channel poisoned").senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared
                .state
                .lock()
                .expect("channel poisoned")
                .receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                // Unblock every receiver waiting for data that will never
                // arrive.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                // Unblock every sender waiting for room that will never
                // appear.
                self.shared.not_full.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn spawned_threads_run_and_join() {
        let counter = AtomicUsize::new(0);
        super::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| counter.fetch_add(1, Ordering::Relaxed));
            }
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn child_panic_becomes_err() {
        let res = super::thread::scope(|s| {
            s.spawn(|_| panic!("boom"));
        });
        assert!(res.is_err());
    }

    #[test]
    fn channel_fifo_and_disconnect() {
        let (tx, rx) = super::channel::unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(super::channel::RecvError));
    }

    #[test]
    fn send_fails_once_receivers_are_gone() {
        let (tx, rx) = super::channel::unbounded();
        drop(rx);
        assert_eq!(tx.send(7), Err(super::channel::SendError(7)));
    }

    #[test]
    fn bounded_channel_applies_backpressure() {
        let (tx, rx) = super::channel::bounded(2);
        let produced = AtomicUsize::new(0);
        super::thread::scope(|s| {
            s.spawn(|_| {
                for i in 0..64 {
                    tx.send(i).unwrap();
                    produced.fetch_add(1, Ordering::SeqCst);
                }
            });
            let got: Vec<usize> = (0..64).map(|_| rx.recv().unwrap()).collect();
            assert_eq!(got, (0..64).collect::<Vec<_>>());
        })
        .unwrap();
        assert_eq!(produced.load(Ordering::SeqCst), 64);
        // The queue never grew past the bound.
        assert!(rx.is_empty());
    }

    #[test]
    fn mpmc_consumers_drain_everything_exactly_once() {
        let (tx, rx) = super::channel::bounded(4);
        let consumed = AtomicUsize::new(0);
        super::thread::scope(|s| {
            for _ in 0..3 {
                let rx = rx.clone();
                let consumed = &consumed;
                s.spawn(move |_| {
                    while rx.recv().is_ok() {
                        consumed.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
        })
        .unwrap();
        assert_eq!(consumed.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn bounded_zero_is_a_rendezvous() {
        // `send` on a zero-capacity channel must not complete until a
        // receiver takes the message — enqueueing alone is not enough.
        use std::sync::atomic::AtomicBool;
        let (tx, rx) = super::channel::bounded(0);
        let sent = AtomicBool::new(false);
        super::thread::scope(|s| {
            s.spawn(|_| {
                tx.send(42).unwrap();
                sent.store(true, Ordering::SeqCst);
            });
            // Give the sender ample time to park: if bounded(0) silently
            // rounded up to capacity 1 (the old divergence), the send
            // would have completed by now.
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(
                !sent.load(Ordering::SeqCst),
                "send completed before any receiver took the message"
            );
            assert_eq!(rx.recv(), Ok(42));
        })
        .unwrap();
        assert!(sent.load(Ordering::SeqCst));
    }

    #[test]
    fn rendezvous_reclaims_message_when_receivers_leave() {
        // A parked rendezvous sender whose receivers all drop must get
        // its message back in the SendError instead of hanging (or
        // pretending delivery happened).
        let (tx, rx) = super::channel::bounded::<u32>(0);
        let res = super::thread::scope(|s| {
            let h = s.spawn(move |_| tx.send(7));
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(rx);
            h.join().unwrap()
        })
        .unwrap();
        assert_eq!(res, Err(super::channel::SendError(7)));
    }

    #[test]
    fn rendezvous_handoffs_stay_fifo_across_senders() {
        let (tx, rx) = super::channel::bounded(0);
        super::thread::scope(|s| {
            for i in 0..4 {
                let tx = tx.clone();
                s.spawn(move |_| tx.send(i).unwrap());
                // Serialize the parks so arrival order is deterministic:
                // a parked sender's message is visible in the queue, and
                // nothing receives until all four are parked.
                while rx.len() <= i as usize {
                    std::thread::yield_now();
                }
            }
            drop(tx);
            let got: Vec<i32> = rx.iter().collect();
            assert_eq!(got, vec![0, 1, 2, 3]);
        })
        .unwrap();
    }

    #[test]
    fn try_recv_reports_empty_vs_disconnected() {
        use super::channel::TryRecvError;
        let (tx, rx) = super::channel::unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(9).unwrap();
        assert_eq!(rx.try_recv(), Ok(9));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn receiver_iterates_until_disconnect() {
        let (tx, rx) = super::channel::unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let all: Vec<i32> = rx.iter().collect();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }
}
