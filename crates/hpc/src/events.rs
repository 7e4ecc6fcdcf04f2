//! Pooled, indexed min-heap event queue for the discrete-event engine.
//!
//! The seed implementation kept one `BinaryHeap` entry per core and per
//! pending completion (plus a side `HashMap` for payloads) and rebuilt the
//! whole heap on every barrier. This queue replaces those patterns:
//!
//! - **O(log n) push/pop** with explicit sift operations over a flat `Vec`
//!   — no drain-and-rebuild anywhere, no reconstruction on resize beyond
//!   the `Vec`'s amortized growth;
//! - **pooled payload slots**: payloads live in a slab indexed by the heap
//!   entries, and freed slots are recycled, so steady-state operation does
//!   not allocate and payloads never move while queued;
//! - **FIFO among equal timestamps**: a strictly increasing sequence number
//!   breaks ties, which the executors rely on for deterministic completion
//!   order (equal-time events pop in push order).

use crate::time::SimTime;

/// A heap entry: the event time, its FIFO tie-break, and the slab slot
/// holding the payload.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Min-ordered event queue over [`SimTime`] with pooled payload storage.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: Vec<HeapEntry>,
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        EventQueue { heap: Vec::new(), slots: Vec::new(), free: Vec::new(), seq: 0 }
    }

    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            seq: 0,
        }
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Timestamp of the earliest queued event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.time)
    }

    /// Payload slots ever allocated (diagnostics: in steady state this
    /// plateaus at the maximum number of simultaneously queued events).
    pub fn pool_size(&self) -> usize {
        self.slots.len()
    }

    /// Queue `payload` at `time`. Equal-time events preserve push order.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(payload);
                s
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "event queue slot overflow");
                self.slots.push(Some(payload));
                (self.slots.len() - 1) as u32
            }
        };
        let entry = HeapEntry { time, seq: self.seq, slot };
        self.seq += 1;
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1);
    }

    /// Remove and return the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.heap.is_empty() {
            return None;
        }
        let entry = self.heap.swap_remove(0);
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        let payload = self.slots[entry.slot as usize].take().expect("queued slot is occupied");
        self.free.push(entry.slot);
        Some((entry.time, payload))
    }

    /// Earliest event's time and a borrow of its payload.
    pub fn peek(&self) -> Option<(SimTime, &T)> {
        self.heap.first().map(|e| {
            let payload = self.slots[e.slot as usize].as_ref().expect("queued slot is occupied");
            (e.time, payload)
        })
    }

    /// Pop the earliest event and push `payload` at `time` in one heap
    /// operation: the root entry is replaced in place (reusing its payload
    /// slot) and re-sunk once, instead of a `swap_remove` + sift-down
    /// followed by a push + sift-up. The pushed event still receives a fresh
    /// FIFO sequence number, so tie-breaking behaves exactly as a `pop`
    /// followed by a `push`.
    ///
    /// Panics if the queue is empty (callers pair this with a non-empty
    /// invariant, e.g. the timeline's "group counts sum to n_cores").
    pub fn pop_push(&mut self, time: SimTime, payload: T) -> (SimTime, T) {
        let root = *self.heap.first().expect("pop_push on empty queue");
        let out = self.slots[root.slot as usize].replace(payload).expect("queued slot is occupied");
        self.heap[0] = HeapEntry { time, seq: self.seq, slot: root.slot };
        self.seq += 1;
        self.sift_down(0);
        (root.time, out)
    }

    /// Hole-based sift (the `std::collections::BinaryHeap` technique): the
    /// displaced entry is held in a register and written once at its final
    /// position, one copy per level instead of a three-write swap.
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if entry.key() < self.heap[parent].key() {
                self.heap[i] = self.heap[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = entry;
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        let entry = self.heap[i];
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = if r < n && self.heap[r].key() < self.heap[l].key() { r } else { l };
            if self.heap[child].key() < entry.key() {
                self.heap[i] = self.heap[child];
                i = child;
            } else {
                break;
            }
        }
        self.heap[i] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for (t, v) in [(5.0, "e"), (1.0, "a"), (3.0, "c"), (2.0, "b"), (4.0, "d")] {
            q.push(SimTime::seconds(t), v);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec!["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn fifo_among_equal_timestamps() {
        // The executor contract: completions with identical end times are
        // delivered in submission order.
        let mut q = EventQueue::new();
        let t = SimTime::seconds(7.0);
        for i in 0..100 {
            q.push(t, i);
        }
        // Interleave an earlier and a later event to exercise sifting.
        q.push(SimTime::seconds(1.0), -1);
        q.push(SimTime::seconds(9.0), 100);
        assert_eq!(q.pop(), Some((SimTime::seconds(1.0), -1)));
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)), "equal-time events must pop FIFO");
        }
        assert_eq!(q.pop(), Some((SimTime::seconds(9.0), 100)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn slots_are_pooled_and_recycled() {
        let mut q = EventQueue::new();
        for round in 0..50 {
            for i in 0..8 {
                q.push(SimTime::seconds(round as f64 + i as f64 * 0.1), i);
            }
            for _ in 0..8 {
                q.pop().expect("eight queued");
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.pool_size(), 8, "pool plateaus at peak occupancy");
    }

    #[test]
    fn pop_push_equals_pop_then_push() {
        // The fused operation must be observationally identical to the
        // two-step sequence, including FIFO order among equal timestamps.
        let mut fused = EventQueue::new();
        let mut twostep = EventQueue::new();
        for (t, v) in [(3.0, 'a'), (1.0, 'b'), (3.0, 'c'), (2.0, 'd')] {
            fused.push(SimTime::seconds(t), v);
            twostep.push(SimTime::seconds(t), v);
        }
        let got = fused.pop_push(SimTime::seconds(3.0), 'e');
        let expect = twostep.pop().expect("non-empty");
        twostep.push(SimTime::seconds(3.0), 'e');
        assert_eq!(got, expect);
        let mut a = Vec::new();
        while let Some(x) = fused.pop() {
            a.push(x);
        }
        let mut b = Vec::new();
        while let Some(x) = twostep.pop() {
            b.push(x);
        }
        assert_eq!(a, b, "drain order diverged after pop_push");
        // 'e' entered at t=3 after 'a' and 'c' were queued: it pops last
        // among the equal-time events.
        assert_eq!(a.last(), Some(&(SimTime::seconds(3.0), 'e')));
    }

    #[test]
    fn pop_push_reuses_the_slot() {
        let mut q = EventQueue::new();
        q.push(SimTime::seconds(1.0), 10);
        q.push(SimTime::seconds(2.0), 20);
        for i in 0..100 {
            q.pop_push(SimTime::seconds(3.0 + f64::from(i)), 30 + i);
        }
        assert_eq!(q.pool_size(), 2, "fused replace must not grow the pool");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::seconds(2.0), 'b');
        q.push(SimTime::seconds(1.0), 'a');
        assert_eq!(q.peek_time(), Some(SimTime::seconds(1.0)));
        assert_eq!(q.peek().map(|(t, &v)| (t, v)), Some((SimTime::seconds(1.0), 'a')));
        assert_eq!(q.len(), 2);
        let (t, v) = q.pop().expect("two queued");
        assert_eq!((t, v), (SimTime::seconds(1.0), 'a'));
    }

    /// Against the model: popping everything yields the input stably
    /// sorted by (time, insertion index).
    #[test]
    fn pop_order_is_stable_sort() {
        rng::check(256, |r| {
            let len = r.range(0..200usize);
            let times: Vec<u32> = (0..len).map(|_| r.range(0u32..50)).collect();
            let mut q = EventQueue::new();
            let mut model: Vec<(u32, usize)> = Vec::new();
            for (idx, &t) in times.iter().enumerate() {
                q.push(SimTime::seconds(f64::from(t)), idx);
                model.push((t, idx));
            }
            model.sort_by_key(|&(t, idx)| (t, idx));
            let mut got = Vec::new();
            while let Some((t, idx)) = q.pop() {
                got.push((t.as_secs() as u32, idx));
            }
            assert_eq!(got, model);
        });
    }
}
