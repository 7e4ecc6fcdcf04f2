//! `std::sync::mpsc`-backed stand-in for `crossbeam::channel` as used by the
//! repository: unbounded MPSC only. The real `Receiver` is also `Clone` and
//! `Sync` (MPMC); this one is single-consumer, which is all `pilot` needs.

pub mod channel {
    use std::sync::mpsc;
    pub use std::sync::mpsc::{RecvError, SendError};

    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }
    }

    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn one_sender_is_fifo() {
            let (tx, rx) = unbounded();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            for i in 0..100 {
                assert_eq!(rx.recv(), Ok(i));
            }
            assert!(rx.recv().is_err(), "all senders gone");
        }

        #[test]
        fn many_senders_keep_per_sender_order() {
            let (tx, rx) = unbounded();
            std::thread::scope(|s| {
                for id in 0..4u32 {
                    let tx = tx.clone();
                    s.spawn(move || {
                        for seq in 0..250u32 {
                            tx.send((id, seq)).unwrap();
                        }
                    });
                }
            });
            drop(tx);
            let mut next = [0u32; 4];
            while let Ok((id, seq)) = rx.recv() {
                assert_eq!(seq, next[id as usize], "sender {id} reordered");
                next[id as usize] += 1;
            }
            assert_eq!(next, [250; 4]);
        }

        #[test]
        fn send_to_a_dropped_receiver_errors() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert!(tx.send(1).is_err());
        }
    }
}
