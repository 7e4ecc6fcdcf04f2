//! `SimExecutor::submit_batch` against its oracle: the same units through
//! `submit`, one by one, and through `submit_batch` a window at a time.

use hpc::fault::{FaultModel, HazardModel};
use pilot::executor::{drain, Executor, TaskWork, UnitId};
use pilot::{DurationSpec, SimExecutor, UnitDescription};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

type Unit = (UnitDescription, TaskWork<u64>);

/// Noisy units of mixed width; every seventh payload fails on its own.
fn units(n: u64) -> Vec<Unit> {
    (0..n)
        .map(|i| {
            let desc =
                UnitDescription::new(format!("md-r{i:05}_c0000-d0-a0"), "sander", 1 << (i % 3))
                    .with_replica(i as usize)
                    .with_duration(DurationSpec::Modeled {
                        seconds: 100.0 + i as f64,
                        sigma: 0.05,
                    });
            let work: TaskWork<u64> = Box::new(move || match i % 7 {
                6 => Err(format!("payload {i} failed")),
                _ => Ok(i * i),
            });
            (desc, work)
        })
        .collect()
}

/// Everything a completion carries, floats as bits.
type Completion = (u64, String, usize, u64, u64, Result<u64, String>);

fn stream(ex: &mut SimExecutor<u64>) -> Vec<Completion> {
    drain(ex)
        .into_iter()
        .map(|c| {
            (
                c.id.0,
                c.name,
                c.cores,
                c.start.as_secs().to_bits(),
                c.end.as_secs().to_bits(),
                c.outcome,
            )
        })
        .collect()
}

/// A storm: calm MTBF 5000 s, 150 s in the storm half of each 400 s period.
fn storm() -> HazardModel {
    HazardModel::Storm {
        calm: FaultModel::new(5000.0).expect("a positive MTBF"),
        storm: FaultModel::new(150.0).expect("a positive MTBF"),
        period_seconds: 400.0,
        storm_fraction: 0.5,
    }
}

#[test]
fn batch_equals_one_by_one() {
    let hazards =
        [HazardModel::NONE, HazardModel::Constant(FaultModel::new(300.0).unwrap()), storm()];
    // 64 units of 1/2/4 cores: Mode I on 256 cores, Mode II on 12.
    for hazard in hazards {
        for cores in [256, 12] {
            let executor = || SimExecutor::<u64>::new(cores, 11).with_hazard(hazard);
            let mut single = executor();
            let mut batched = executor();
            // Two waves with a clock advance between them, so storm phase
            // and timeline state carry across batches.
            for _ in 0..2 {
                for (desc, work) in units(64) {
                    single.submit(desc, work).unwrap();
                }
                batched.submit_batch(units(64)).unwrap();
                let (a, b) = (stream(&mut single), stream(&mut batched));
                assert!(a.iter().any(|c| c.5.is_err()), "{hazard:?}: some unit must fail");
                assert_eq!(a, b, "{hazard:?} on {cores} cores");
                single.charge_overhead(7.5);
                batched.charge_overhead(7.5);
            }
            assert_eq!(single.now(), batched.now());
            assert_eq!(single.busy_core_seconds().to_bits(), batched.busy_core_seconds().to_bits());
        }
    }
}

/// A wave submitted a window at a time, as the driver submits one, is the
/// wave in one batch and unit by unit: no window moves the clock, so ids,
/// start and end times, fates and the busy core-seconds are the same.
#[test]
fn a_wave_in_windows_equals_one_batch_and_one_by_one() {
    // 64 units of 1/2/4 cores: Mode I on 256 cores, Mode II on 12.
    for cores in [256, 12] {
        let executor = || SimExecutor::<u64>::new(cores, 11).with_hazard(storm());
        let (mut single, mut batched, mut windowed) = (executor(), executor(), executor());
        let ids: Vec<UnitId> =
            units(64).into_iter().map(|(desc, work)| single.submit(desc, work).unwrap()).collect();
        assert_eq!(batched.submit_batch(units(64)).unwrap(), ids, "on {cores} cores");
        let (mut rest, mut windows) = (units(64), Vec::new());
        while !rest.is_empty() {
            let tail = rest.split_off(rest.len().min(7));
            windows.extend(windowed.submit_batch(rest).unwrap());
            rest = tail;
        }
        assert_eq!(windows, ids, "on {cores} cores");
        let one = stream(&mut single);
        assert!(one.iter().any(|c| c.5.is_err()), "on {cores} cores: some unit must fail");
        assert_eq!(stream(&mut batched), one, "one batch on {cores} cores");
        assert_eq!(stream(&mut windowed), one, "windows of 7 on {cores} cores");
        let busy = single.busy_core_seconds().to_bits();
        assert_eq!(batched.busy_core_seconds().to_bits(), busy, "on {cores} cores");
        assert_eq!(windowed.busy_core_seconds().to_bits(), busy, "on {cores} cores");
    }
}

#[test]
fn recorder_counts_match_one_by_one() {
    let counts = |batch: bool| {
        let rec = obs::Recorder::enabled();
        let mut ex = SimExecutor::<u64>::new(8, 3);
        ex.set_recorder(rec.clone());
        if batch {
            ex.submit_batch(units(20)).unwrap();
        } else {
            units(20).into_iter().for_each(|(d, w)| ex.submit(d, w).map(drop).unwrap());
        }
        drain(&mut ex);
        rec.counters()
    };
    assert_eq!(counts(true), counts(false));
}

#[test]
fn payload_panic_propagates() {
    for n in [1, 9] {
        let mut batch = units(n);
        batch[0].1 = Box::new(|| panic!("boom in payload"));
        let mut ex = SimExecutor::<u64>::new(64, 1);
        let caught = catch_unwind(AssertUnwindSafe(|| ex.submit_batch(batch)));
        let message =
            *caught.expect_err("the panic must reach the submitter").downcast::<&str>().unwrap();
        assert_eq!(message, "boom in payload", "batch of {n}");
    }
}

#[test]
fn invalid_unit_in_a_batch_submits_nothing() {
    let ran = Arc::new(AtomicUsize::new(0));
    let mut batch: Vec<Unit> = (0..6)
        .map(|i| {
            let ran = Arc::clone(&ran);
            let desc = UnitDescription::new(format!("u{i}"), "sander", 1)
                .with_duration(DurationSpec::Modeled { seconds: 1.0, sigma: 0.0 });
            let work: TaskWork<u64> =
                Box::new(move || Ok(ran.fetch_add(1, Ordering::SeqCst) as u64));
            (desc, work)
        })
        .collect();
    batch[4].0.cores = 5; // wider than the pilot
    let mut ex = SimExecutor::<u64>::new(4, 1);
    let err = ex.submit_batch(batch).unwrap_err();
    assert!(err.contains("u4"), "{err}");
    assert_eq!(ran.load(Ordering::SeqCst), 0, "no payload may run");
    assert!(ex.next_completion().is_none(), "nothing was scheduled");
    assert_eq!(ex.busy_core_seconds(), 0.0);
}

/// With two or more host slots a wave's payloads overlap: each of two
/// payloads waits for the other at a barrier, which one thread running them
/// in turn could never pass. (Under `taskset -c 0` the agent has one slot,
/// the waiting thread runs every unit, and this has nothing to check.)
#[test]
fn payloads_of_a_wave_run_concurrently_when_the_host_has_cores() {
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());
    if host < 2 {
        return;
    }
    let barrier = Arc::new(Barrier::new(2));
    let batch: Vec<Unit> = (0..2)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            let desc = UnitDescription::new(format!("u{i}"), "sander", 1)
                .with_duration(DurationSpec::Modeled { seconds: 1.0, sigma: 0.0 });
            let work: TaskWork<u64> = Box::new(move || {
                barrier.wait();
                Ok(i)
            });
            (desc, work)
        })
        .collect();
    let mut ex = SimExecutor::<u64>::new(2, 1);
    ex.submit_batch(batch).unwrap();
    let results: Vec<u64> = drain(&mut ex).into_iter().map(|c| c.outcome.unwrap()).collect();
    assert_eq!(results, vec![0, 1], "results stay in submission order");
}
