//! Unit costs of the parallel runtime, timed from outside the VM by
//! calling `machine`'s public entry points directly.

use crate::stats::median;
use machine::{OmpSchedule, PureFuture, ThreadPool, SATURATION_FACTOR};
use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Timed batches per probe; each probe reports the median batch.
const BATCHES: usize = 31;

/// Median over [`BATCHES`] batches of the mean cost of one `op` call, in
/// nanoseconds.
fn per_call_ns(per_batch: usize, mut op: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                op();
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&batches)
}

/// One empty parallel region of `threads` iterations on the process-wide
/// pool, launch to join, in microseconds.
pub fn region_launch_us(threads: usize) -> f64 {
    let launch = || {
        machine::parallel_for_pooled(threads as u64, threads, OmpSchedule::Static, |i| {
            black_box(i);
        })
    };
    launch();
    per_call_ns(200, launch) / 1e3
}

/// Spawn of a no-op pure future on the process-wide pool followed by its
/// await, in microseconds.
pub fn future_roundtrip_us(threads: usize) -> f64 {
    let pool = machine::global_pool(threads);
    let roundtrip = || {
        let fut = PureFuture::spawn(&pool, true, || black_box(0u64));
        black_box(fut.wait());
    };
    roundtrip();
    per_call_ns(200, roundtrip) / 1e3
}

/// One admission check (`spawn_capacity`) that declines because the pool
/// already holds `threads × SATURATION_FACTOR` pending tasks, in
/// nanoseconds. Uses a private pool whose tasks block on a gate until
/// the probe ends, so the process-wide pool is left alone.
pub fn spawn_decline_ns(threads: usize) -> Result<f64, String> {
    let pool = ThreadPool::new(threads, 4, 16);
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let blockers = threads * SATURATION_FACTOR;
    for _ in 0..blockers {
        let gate = Arc::clone(&gate);
        pool.submit(move || {
            let (open, cv) = &*gate;
            let mut open = open.lock().expect("gate mutex poisoned");
            while !*open {
                open = cv.wait(open).expect("gate mutex poisoned");
            }
        });
    }
    let mut admitted = 0u64;
    let ns = per_call_ns(10_000, || {
        admitted += u64::from(black_box(machine::spawn_capacity(&pool, threads, true)));
    });
    {
        let (open, cv) = &*gate;
        *open.lock().expect("gate mutex poisoned") = true;
        cv.notify_all();
    }
    pool.join();
    if admitted != 0 {
        return Err(format!(
            "spawn_capacity admitted {admitted} spawns on a pool holding {blockers} pending tasks"
        ));
    }
    Ok(ns)
}
