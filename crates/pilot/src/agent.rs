//! The pilot's agent: the only place a unit's payload runs. RADICAL-Pilot
//! acquires a pilot's cores once and its agent runs every unit on them; here
//! the agent's slots are the host's `available_parallelism` threads — `n − 1`
//! workers, started at the first queued unit and joined on drop, and the
//! thread that waits for results, which drains the same queue meanwhile.
//!
//! A slot keeps a scratch value between the units it runs ([`with_scratch`]),
//! freed with the agent. A payload panic is caught on its slot, which
//! survives (the scratch is dropped), and is re-raised on the thread that
//! takes the unit's result.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZero;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

#[cfg(loom)]
use loom::sync;
#[cfg(not(loom))]
use std::sync;

/// A queued unit: it borrows its slot's scratch and reports its own result.
pub(crate) type Job = Box<dyn FnOnce(&mut Scratch) + Send>;

/// What a slot keeps between units: one value, of the type they ask for.
#[derive(Default)]
pub(crate) struct Scratch(Option<Box<dyn Any + Send>>);

thread_local! {
    /// The running unit's slot scratch, lent for the unit's run.
    static LENT: Cell<Option<Scratch>> = const { Cell::new(None) };
}

impl Scratch {
    /// Run `work` with the scratch lent to it, catching a panic (after which
    /// the scratch, possibly half-updated, is dropped).
    pub(crate) fn lend<T>(&mut self, work: impl FnOnce() -> T) -> thread::Result<T> {
        // A unit that runs units of its own (another agent's) lends theirs in
        // turn and gets its own back after.
        let outer = LENT.replace(Some(std::mem::take(self)));
        let out = catch_unwind(AssertUnwindSafe(work));
        let back = LENT.replace(outer);
        if out.is_ok() {
            *self = back.unwrap_or_default();
        }
        out
    }
}

/// Call `f` on the `T` the calling slot keeps between units, made on first
/// use (or when a unit asks for another type). Off a slot, a fresh `T`.
pub fn with_scratch<T: Default + Send + 'static, U>(f: impl FnOnce(&mut T) -> U) -> U {
    let Some(Scratch(kept)) = LENT.take() else { return f(&mut T::default()) };
    let mut kept = kept.filter(|s| s.is::<T>()).unwrap_or_else(|| Box::new(T::default()));
    let out = f(kept.downcast_mut().expect("the scratch is a T"));
    LENT.set(Some(Scratch(Some(kept))));
    out
}

/// A FIFO that one side waits on: the agent's queued units, or a mailbox
/// of the results they leave for the waiting thread. A mutex and a condvar,
/// so waiting allocates nothing.
pub(crate) struct Fifo<T> {
    /// `None` once closed.
    items: Mutex<Option<VecDeque<T>>>,
    ready: Condvar,
}

impl<T> Default for Fifo<T> {
    fn default() -> Self {
        Fifo { items: Mutex::new(Some(VecDeque::new())), ready: Condvar::new() }
    }
}

impl<T> Fifo<T> {
    // Every update is one operation and no unit runs under the lock, so a
    // poisoned lock is recovered.
    fn lock(&self) -> MutexGuard<'_, Option<VecDeque<T>>> {
        self.items.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append `items` under one lock, with one wakeup.
    pub(crate) fn push(&self, items: impl IntoIterator<Item = T>) {
        if let Some(queued) = self.lock().as_mut() {
            queued.extend(items);
        }
        self.ready.notify_all();
    }

    fn try_pop(&self) -> Option<T> {
        self.lock().as_mut()?.pop_front()
    }

    /// The oldest item, waiting for one; `None` once closed.
    fn pop(&self) -> Option<T> {
        let mut items = self.lock();
        loop {
            if let Some(item) = items.as_mut()?.pop_front() {
                return Some(item);
            }
            items = self.ready.wait(items).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Drop what is queued, and end every `pop`.
    fn close(&self) {
        self.lock().take();
        self.ready.notify_all();
    }
}

/// A worker slot: run queued units until the agent closes.
fn work(queue: &Fifo<Job>) {
    let mut scratch = Scratch::default();
    while let Some(job) = queue.pop() {
        job(&mut scratch);
    }
}

/// The host slots a pilot's units run on (see the module docs).
#[derive(Default)]
pub struct Agent {
    queue: Arc<Fifo<Job>>,
    /// `None` until the first queued unit starts them.
    workers: Option<Vec<JoinHandle<()>>>,
    /// The waiting thread's slot.
    scratch: Scratch,
}

impl Agent {
    /// An agent with no thread yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Host slots, the waiting thread's included.
    pub fn slots() -> usize {
        thread::available_parallelism().map_or(1, NonZero::get)
    }

    /// Worker threads started so far: 0, then `slots() − 1`.
    pub fn workers(&self) -> usize {
        self.workers.as_ref().map_or(0, Vec::len)
    }

    /// Run one unit on the calling thread's slot; a panic is re-raised here.
    pub fn run_here<T>(&mut self, work: impl FnOnce() -> T) -> T {
        self.scratch.lend(work).unwrap_or_else(|panic| resume_unwind(panic))
    }

    /// Run a wave of independent units on every slot; results in submission
    /// order, handed out of the buffer they were gathered in. A wave of one
    /// runs on the calling slot. A panic is re-raised once the whole wave has
    /// run (the first in submission order).
    pub fn run_wave<T: Send + 'static>(
        &mut self,
        works: Vec<impl FnOnce() -> T + Send + 'static>,
    ) -> impl ExactSizeIterator<Item = T> {
        let mut done: Vec<_> = if works.len() <= 1 {
            works.into_iter().map(|work| (0, self.scratch.lend(work))).collect()
        } else {
            let n = works.len();
            let mailbox = Arc::new(Fifo::default());
            self.queue(works.into_iter().enumerate().map(|(i, work)| -> Job {
                let mailbox = Arc::clone(&mailbox);
                Box::new(move |scratch| mailbox.push([(i, scratch.lend(work))]))
            }));
            let mut done: Vec<_> = (0..n).map(|_| self.wait(&mailbox)).collect();
            done.sort_unstable_by_key(|&(i, _)| i);
            done
        };
        if let Some(first) = done.iter().position(|(_, out)| out.is_err()) {
            if let Err(panic) = done.swap_remove(first).1 {
                resume_unwind(panic);
            }
        }
        done.into_iter().map(|(_, out)| out.unwrap_or_else(|panic| resume_unwind(panic)))
    }

    /// Queue units under one lock and one wakeup; the first call starts the
    /// workers.
    pub(crate) fn queue(&mut self, jobs: impl IntoIterator<Item = Job>) {
        if self.workers.is_none() {
            let spawn = |k| {
                let queue = Arc::clone(&self.queue);
                let worker = thread::Builder::new().name(format!("pilot-slot-{k}"));
                worker.spawn(move || work(&queue)).expect("start a pilot worker thread")
            };
            self.workers = Some((1..Self::slots()).map(spawn).collect());
        }
        self.queue.push(jobs);
    }

    /// Wait for a result in `mailbox`, running queued units meanwhile.
    pub(crate) fn wait<T>(&mut self, mailbox: &Fifo<T>) -> T {
        loop {
            if let Some(out) = mailbox.try_pop() {
                return out;
            }
            // Only this thread queues units: none can arrive while it waits.
            let Some(job) = self.queue.try_pop() else {
                return mailbox.pop().expect("a mailbox is never closed");
            };
            job(&mut self.scratch);
        }
    }
}

impl Drop for Agent {
    /// Close the queue (dropping what it still holds) and join the workers,
    /// so every slot's scratch is freed when this returns.
    fn drop(&mut self) {
        self.queue.close();
        for worker in self.workers.take().into_iter().flatten() {
            // A slot catches every payload panic: a worker cannot end in one.
            let _ = worker.join();
        }
    }
}

/// Core permits for the local backend: a unit that requests `k` cores holds
/// `k` of them for its whole run, whichever slot runs it.
///
/// One body over `sync`: `std::sync` in production, loom's modeled
/// primitives under `--cfg loom`, where `tests/loom_permits.rs`
/// exhaustively checks the acquire/release protocol for over-subscription
/// and lost wakeups. Every update leaves the count valid, so a poisoned
/// lock is recovered rather than propagated.
pub struct Permits {
    available: sync::Mutex<usize>,
    cv: sync::Condvar,
}

impl Permits {
    pub fn new(cores: usize) -> Self {
        Permits { available: sync::Mutex::new(cores), cv: sync::Condvar::new() }
    }

    /// Block until `n` permits are free, then take them.
    pub fn acquire(&self, n: usize) {
        let mut avail = self.available.lock().unwrap_or_else(PoisonError::into_inner);
        while *avail < n {
            avail = self.cv.wait(avail).unwrap_or_else(PoisonError::into_inner);
        }
        *avail -= n;
    }

    /// Return `n` permits and wake every waiter: waiters need different
    /// permit counts, so a single `notify_one` could wake a waiter whose
    /// demand still isn't met while a satisfiable one keeps sleeping.
    pub fn release(&self, n: usize) {
        *self.available.lock().unwrap_or_else(PoisonError::into_inner) += n;
        self.cv.notify_all();
    }

    /// Currently free permits (a racy snapshot, for observability only).
    pub fn available(&self) -> usize {
        *self.available.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
