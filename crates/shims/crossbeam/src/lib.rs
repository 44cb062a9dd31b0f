//! Offline shim for the `crossbeam` API subset this workspace uses: multi-producer,
//! multi-consumer unbounded channels (`crossbeam::channel`).
//!
//! Implemented over `Mutex<VecDeque>` + `Condvar`. Unlike `std::sync::mpsc`, the receiver
//! side is cloneable and shareable across threads — the worker-pool pattern the container
//! relies on.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    struct Inner<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when every receiver has been dropped.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and disconnected.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// Every sender has been dropped and the queue is drained.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// Every sender has been dropped and the queue is drained.
        Disconnected,
    }

    /// The sending half of an unbounded channel.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of an unbounded channel (cloneable: multi-consumer).
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Creates an unbounded multi-producer multi-consumer channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.inner.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Wake blocked receivers so they observe the disconnect.
                self.inner.ready.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.inner.receivers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<T> Sender<T> {
        /// Enqueues a message; fails when every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.inner.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(value));
            }
            let mut queue = self.inner.queue.lock().unwrap_or_else(|p| p.into_inner());
            queue.push_back(value);
            drop(queue);
            self.inner.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.inner.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(value) = queue.pop_front() {
                    return Ok(value);
                }
                if self.inner.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                queue = self
                    .inner
                    .ready
                    .wait(queue)
                    .unwrap_or_else(|p| p.into_inner());
            }
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut queue = self.inner.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(value) = queue.pop_front() {
                    return Ok(value);
                }
                if self.inner.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _result) = self
                    .inner
                    .ready
                    .wait_timeout(queue, deadline - now)
                    .unwrap_or_else(|p| p.into_inner());
                queue = guard;
            }
        }

        /// Removes a message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut queue = self.inner.queue.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(value) = queue.pop_front() {
                return Ok(value);
            }
            if self.inner.senders.load(Ordering::SeqCst) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// A non-blocking iterator draining currently queued messages.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { receiver: self }
        }

        /// A blocking iterator that ends when every sender is dropped.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }

        /// Number of currently queued messages.
        pub fn len(&self) -> usize {
            self.inner
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .len()
        }

        /// True when no message is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// Iterator returned by [`Receiver::try_iter`].
    pub struct TryIter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.try_recv().ok()
        }
    }

    /// Iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;

    #[test]
    #[allow(clippy::disallowed_methods)] // the property under test needs other threads
    fn send_and_receive_across_threads() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let consumer = std::thread::spawn(move || {
            let mut got = 0;
            while rx2.recv().is_ok() {
                got += 1;
            }
            got
        });
        producer.join().unwrap();
        let got = consumer.join().unwrap();
        assert_eq!(got, 100);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn try_iter_drains_without_blocking() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let items: Vec<i32> = rx.try_iter().collect();
        assert_eq!(items, vec![1, 2]);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_after_receivers_drop() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert!(tx.send(5).is_err());
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_tx, rx) = unbounded::<u8>();
        let err = rx
            .recv_timeout(std::time::Duration::from_millis(10))
            .unwrap_err();
        assert_eq!(err, RecvTimeoutError::Timeout);
    }
}
