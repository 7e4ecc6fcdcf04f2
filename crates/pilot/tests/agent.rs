//! The agent: the host slots every unit runs on, the waiting thread among
//! them. Tests that need two or more slots return early under `taskset -c
//! 0`, where the one-slot test runs instead.

use pilot::executor::{drain, Executor};
use pilot::{with_scratch, Agent, LocalExecutor, UnitDescription};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::{self, ThreadId};
use std::time::Duration;

/// A wave of `n` units that each report their index and the thread that ran
/// them. The first `slots` meet at a barrier, so each slot takes one of them.
fn wave(n: usize, slots: usize) -> Vec<impl FnOnce() -> (usize, ThreadId) + Send + 'static> {
    let barrier = Arc::new(Barrier::new(slots));
    (0..n)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            move || {
                if i < slots {
                    barrier.wait();
                }
                // Later units finish out of order.
                thread::sleep(Duration::from_micros(((n - i) % 5) as u64 * 200));
                (i, thread::current().id())
            }
        })
        .collect()
}

fn distinct(ran: &[(usize, ThreadId)]) -> HashSet<ThreadId> {
    ran.iter().map(|&(_, id)| id).collect()
}

#[test]
fn a_wave_comes_back_in_submission_order_whichever_slot_ran_each_unit() {
    let slots = Agent::slots();
    let mut agent = Agent::new();
    assert_eq!(agent.workers(), 0, "no thread before the first wave");
    let ran = agent.run_wave(wave(40, slots)).collect::<Vec<_>>();
    assert_eq!(ran.iter().map(|&(i, _)| i).collect::<Vec<_>>(), (0..40).collect::<Vec<_>>());
    let ids = distinct(&ran);
    assert_eq!(ids.len(), slots, "every slot ran a unit");
    assert!(ids.contains(&thread::current().id()), "the waiting thread is a slot");
    assert_eq!(agent.workers(), slots - 1);
}

#[test]
fn a_panic_is_re_raised_on_the_waiting_thread_and_the_next_wave_runs_on_every_slot() {
    let slots = Agent::slots();
    let mut agent = Agent::new();
    let mut units: Vec<Box<dyn FnOnce() -> usize + Send>> =
        (0..8usize).map(|i| Box::new(move || i) as Box<dyn FnOnce() -> usize + Send>).collect();
    units[3] = Box::new(|| panic!("boom in unit 3"));
    let caught = catch_unwind(AssertUnwindSafe(|| agent.run_wave(units).count()));
    let message = *caught.expect_err("the panic reaches the waiter").downcast::<&str>().unwrap();
    assert_eq!(message, "boom in unit 3");
    let ran = agent.run_wave(wave(2 * slots, slots)).collect::<Vec<_>>();
    assert_eq!(distinct(&ran).len(), slots, "a slot was lost to the panic");
    assert_eq!(agent.workers(), slots - 1, "no thread was started again");
}

#[test]
fn on_one_slot_the_caller_runs_everything_and_no_thread_starts() {
    if Agent::slots() != 1 {
        return;
    }
    let mut agent = Agent::new();
    let ran = agent.run_wave(wave(16, 1)).collect::<Vec<_>>();
    assert!(ran.iter().all(|&(_, id)| id == thread::current().id()));
    assert_eq!(agent.workers(), 0);
}

#[test]
fn a_wave_of_one_runs_on_the_caller_and_starts_no_thread() {
    let mut agent = Agent::new();
    let ran = agent.run_wave(wave(1, 1)).collect::<Vec<_>>();
    assert_eq!(ran[0].1, thread::current().id());
    assert_eq!(agent.run_here(|| thread::current().id()), thread::current().id());
    assert_eq!(agent.workers(), 0);
}

#[derive(Default)]
struct Kept(usize);

#[test]
fn a_slot_keeps_its_scratch_between_units_and_drops_it_after_a_panic() {
    let mut agent = Agent::new();
    let bump = || {
        with_scratch(|k: &mut Kept| {
            k.0 += 1;
            k.0 - 1
        })
    };
    assert_eq!((agent.run_here(bump), agent.run_here(bump)), (0, 1));
    // Off a slot every call gets a fresh value.
    assert_eq!((bump(), bump()), (0, 0));
    let caught = catch_unwind(AssertUnwindSafe(|| {
        agent.run_here(|| with_scratch(|k: &mut Kept| -> usize { panic!("at {}", k.0) }))
    }));
    assert!(caught.is_err());
    assert_eq!(agent.run_here(bump), 0, "a panicking unit's scratch is not reused");
    // A unit that runs another agent's unit gets its own scratch back after.
    let mut inner = Agent::new();
    assert_eq!(agent.run_here(|| inner.run_here(bump)), 0);
    assert_eq!(agent.run_here(bump), 1);
}

/// Whatever a payload keeps in a slot's scratch is freed when the agent is
/// dropped, the workers' included.
#[test]
fn a_dropped_agent_holds_no_scratch() {
    #[derive(Default)]
    struct Holds(Option<Arc<()>>);
    let shared = Arc::new(());
    let mut agent = Agent::new();
    let units: Vec<_> = (0..4 * Agent::slots())
        .map(|_| {
            let shared = Arc::clone(&shared);
            move || with_scratch(|h: &mut Holds| h.0 = Some(shared))
        })
        .collect();
    agent.run_wave(units).for_each(drop);
    assert!(Arc::strong_count(&shared) > 1, "the slots keep what the units left");
    drop(agent);
    assert_eq!(Arc::strong_count(&shared), 1);
}

/// The local backend meters cores with `Permits` whatever the host's slots:
/// a one-core pool runs one unit at a time, a two-core unit holds the whole
/// of a two-core pool.
#[test]
fn local_executor_concurrency_stays_bounded_by_permits() {
    for (cores, width) in [(1, 1), (2, 1), (2, 2)] {
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut ex: LocalExecutor<()> = LocalExecutor::new(cores);
        for i in 0..6 {
            let (running, peak) = (Arc::clone(&running), Arc::clone(&peak));
            let desc = UnitDescription::new(format!("t{i}"), "local", width);
            ex.submit(
                desc,
                Box::new(move || {
                    let now = running.fetch_add(width, Ordering::SeqCst) + width;
                    peak.fetch_max(now, Ordering::SeqCst);
                    thread::sleep(Duration::from_millis(5));
                    running.fetch_sub(width, Ordering::SeqCst);
                    Ok(())
                }),
            )
            .unwrap();
        }
        assert_eq!(drain(&mut ex).len(), 6);
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak <= cores, "{peak} cores busy in a pool of {cores}");
    }
}
