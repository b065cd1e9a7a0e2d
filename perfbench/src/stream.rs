//! The stream phase: an open-loop main thread sliding arrivals through a
//! time-based window, with one open-loop reader querying beside it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slider_core::Slider;
use slider_model::{NodeId, Term, TermTriple};
use slider_store::TriplePattern;
use slider_workloads::stream::{TimedWindow, TimedWindowStep};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What the reader queries.
pub struct QueryMix<'a> {
    /// Queries per second.
    pub rate: f64,
    /// Seed of the query choices.
    pub seed: u64,
    /// Predicate of the `(?, p, C)` scans.
    pub scan_predicate: &'a Term,
    /// Objects `C` of the scans.
    pub scan_objects: &'a [Term],
}

/// Share of queries that are `(s, ?, ?)` lookups on a live arrival's
/// subject, in percent; the rest are scans.
const LOOKUP_PERCENT: usize = 70;

/// The reader sleeps until this long before a query is due, then spins,
/// so a query's latency is not mostly the sleep's wake-up delay.
const SPIN: Duration = Duration::from_micros(250);

/// Measurements of one stream phase.
#[derive(Debug, Default)]
pub struct StreamOutcome {
    /// Per step: due time to closure visible and expiries retracted, ms.
    pub step_ms: Vec<f64>,
    /// Per query: due time to `matches` returning, µs.
    pub query_us: Vec<f64>,
    /// Rows returned over all queries.
    pub rows: u64,
    /// Time in `remove_terms_deferred`.
    pub expire: Duration,
    /// Per `flush_maintenance` call, ms.
    pub flush_ms: Vec<f64>,
    /// Time in `add_terms_owned`.
    pub add: Duration,
    /// Time in `wait_idle`.
    pub drain: Duration,
    /// Largest delay between a step's due time and its start, ms.
    pub late_ms_max: f64,
}

fn sleep_until(due: Instant, spin: Duration) {
    let now = Instant::now();
    if due > now + spin {
        std::thread::sleep(due - now - spin);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Plays `window` into `slider`: at each step's due time the expired
/// batches go to `remove_terms_deferred`, then `flush_maintenance` (when
/// something expired), then the arrival to `add_terms_owned`, then
/// `wait_idle`. Meanwhile one reader thread issues `mix` against
/// `slider.store()`.
///
/// `paced` plays the stream open-loop, each step due at its arrival time.
/// Otherwise each step is due as soon as the one before ends (closed
/// loop), so `step_ms` is the reasoner's service time per step: the
/// window's expiries stay the same, because they follow the arrivals'
/// virtual times.
pub fn run(
    slider: &Slider,
    window: &TimedWindow,
    mix: &QueryMix<'_>,
    paced: bool,
) -> StreamOutcome {
    let steps: Vec<TimedWindowStep<'_>> = window.steps().collect();
    let arrivals: Vec<&[TermTriple]> = steps.iter().map(|s| s.arrival).collect();
    // Batches [expired, arrived) are live; expiry is in arrival order.
    let arrived = AtomicUsize::new(0);
    let expired = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let origin = Instant::now() + Duration::from_millis(5);
    let mut out = StreamOutcome::default();

    std::thread::scope(|scope| {
        let reader =
            scope.spawn(|| read_loop(slider, mix, origin, &arrivals, &arrived, &expired, &done));
        for (i, step) in steps.iter().enumerate() {
            let arrival = step.arrival.to_vec();
            let due = if paced {
                origin + step.at
            } else {
                Instant::now().max(origin)
            };
            sleep_until(due, Duration::ZERO);
            let start = Instant::now();
            out.late_ms_max = out
                .late_ms_max
                .max(start.saturating_duration_since(due).as_secs_f64() * 1e3);
            if !step.expiring.is_empty() {
                for batch in &step.expiring {
                    slider.remove_terms_deferred(batch);
                }
                let flush = Instant::now();
                out.expire += flush - start;
                slider.flush_maintenance();
                out.flush_ms.push(flush.elapsed().as_secs_f64() * 1e3);
                expired.fetch_add(step.expiring.len(), Ordering::SeqCst);
            }
            let add = Instant::now();
            slider.add_terms_owned(arrival);
            let drain = Instant::now();
            out.add += drain - add;
            slider.wait_idle();
            let end = Instant::now();
            out.drain += end - drain;
            out.step_ms.push((end - due).as_secs_f64() * 1e3);
            arrived.store(i + 1, Ordering::SeqCst);
        }
        done.store(true, Ordering::SeqCst);
        let (query_us, rows) = reader.join().expect("reader thread panicked");
        out.query_us = query_us;
        out.rows = rows;
    });
    out
}

/// The reader: one query every `1 / mix.rate` seconds from `origin` until
/// `done`. Returns per-query latencies (µs) and the rows returned.
fn read_loop(
    slider: &Slider,
    mix: &QueryMix<'_>,
    origin: Instant,
    arrivals: &[&[TermTriple]],
    arrived: &AtomicUsize,
    expired: &AtomicUsize,
    done: &AtomicBool,
) -> (Vec<f64>, u64) {
    let mut rng = StdRng::seed_from_u64(mix.seed);
    let gap = Duration::from_secs_f64(1.0 / mix.rate);
    let dict = slider.dict();
    let id = |t: &Term| -> Option<NodeId> { dict.id_of(t) };
    let mut latencies = Vec::new();
    let mut rows = 0u64;
    let mut due = origin;
    while !done.load(Ordering::SeqCst) {
        let (lo, hi) = (
            expired.load(Ordering::SeqCst),
            arrived.load(Ordering::SeqCst),
        );
        let lookup = rng.random_range(0..100usize) < LOOKUP_PERCENT;
        let pattern = if lookup && lo < hi {
            let batch = arrivals[rng.random_range(lo..hi)];
            let subject = &batch[rng.random_range(0..batch.len())].0;
            id(subject).map(|s| TriplePattern {
                s: Some(s),
                p: None,
                o: None,
            })
        } else {
            let object = &mix.scan_objects[rng.random_range(0..mix.scan_objects.len())];
            match (id(mix.scan_predicate), id(object)) {
                (Some(p), Some(o)) => Some(TriplePattern {
                    s: None,
                    p: Some(p),
                    o: Some(o),
                }),
                _ => None,
            }
        };
        if let Some(pattern) = pattern {
            sleep_until(due, SPIN);
            let found = slider.store().matches(pattern);
            latencies.push(due.elapsed().as_secs_f64() * 1e6);
            rows += found.len() as u64;
        }
        due += gap;
    }
    (latencies, rows)
}
