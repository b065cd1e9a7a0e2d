//! The repository benchmark.
//!
//! One run measures one workload (see [`workload`]) in two timed phases on
//! `SliderConfig::default()`:
//!
//! 1. **load** — the workload's bulk input goes through the Table 1 path
//!    ([`slider_bench::run_slider`]: parse → `encode_triple_owned` →
//!    `add_triples` in 4096-triple chunks → `wait_idle`) a fixed number
//!    of times, and through the batch baseline
//!    ([`slider_bench::run_baseline`]);
//! 2. **stream** — a reasoner holding the resident input (preloaded through
//!    the same Table 1 path during setup) takes an open-loop, bursty
//!    arrival stream through a time-based window while one reader thread
//!    queries it at a fixed rate (see [`stream`]).
//!
//! Every output is checked outside the timed phases: each load's input and
//! inferred counts against the baseline's, and the stream reasoner's final
//! store, triple for triple, against a [`RecomputeOracle`] driven with the
//! same add/remove calls (through [`NaiveReasoner`] for the two load
//! workloads, whose resident input is their whole load input).
//!
//! With `trace` set, the run instead reports per-layer metrics: the load
//! goes through the Table 1 path with a timer around each call into the
//! parser, dictionary and session, the ruleset is wrapped in
//! [`timed::timed_ruleset`], the stream runs on a reasoner holding the
//! resident input as in the untraced run, and the workload's input is
//! replayed straight into a [`ShardedStore`] at N and 2N triples.

#![forbid(unsafe_code)]

pub mod stream;
pub mod sys;
pub mod timed;
pub mod workload;

use slider_baseline::{NaiveReasoner, RecomputeOracle};
use slider_bench::report::{BenchReport, Cell};
use slider_bench::{run_baseline, run_slider, EngineKind, RunResult};
use slider_core::{Slider, SliderConfig, StatsSnapshot};
use slider_model::{Dictionary, TermTriple, Triple};
use slider_parser::NTriplesParser;
use slider_rules::Ruleset;
use slider_store::ShardedStore;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Input, Sizes, Workload};

/// Times the setup (input generation, serialisation and the resident
/// preload) is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// The Table 1 path's chunk size (as in [`slider_bench::run_slider`]).
const CHUNK: usize = 4096;

/// Chunk size of the direct store replay.
const REPLAY_CHUNK: usize = 1024;

/// One run's request.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generators, the gap schedule and the query mix.
    pub seed: u64,
    /// Nominal length of the timed phases.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// The `perfbench` executable, to run each load and batch baseline in
    /// a child process of its own; `None` runs them in-process.
    pub exe: Option<PathBuf>,
}

impl Options {
    /// The arguments that make a child process rebuild this run's input.
    fn input_args(&self) -> Vec<String> {
        let mut args = vec![
            "--workload".to_owned(),
            self.workload.name().to_owned(),
            "--seed".to_owned(),
            self.seed.to_string(),
            "--seconds".to_owned(),
            self.seconds.to_string(),
        ];
        if self.sizes == Sizes::SMOKE {
            args.push("--smoke".to_owned());
        }
        args
    }
}

/// One run's result.
#[derive(Debug)]
pub struct Outcome {
    /// Correctness checks made.
    pub attempted: u64,
    /// Correctness checks failed.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sizes, rates and configuration the run used.
    pub config: Vec<(&'static str, String)>,
}

impl Outcome {
    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The run as a bench trajectory report: one cell holding every
    /// metric plus the check counts.
    pub fn report(&self, opts: &Options) -> BenchReport {
        let mut report = BenchReport::new("perfbench", opts.workload.name())
            .config("seed", opts.seed)
            .config("seconds", opts.seconds)
            .config("trace", opts.trace);
        for (key, value) in &self.config {
            report = report.config(key, value);
        }
        let mut cell = Cell::new(opts.workload.name())
            .metric("checks.attempted", self.attempted as f64)
            .metric("checks.failed", self.failed as f64);
        for &(name, value) in &self.metrics {
            cell = cell.metric(name, value);
        }
        report.push(cell);
        report
    }
}

/// Nearest-rank percentile `q` (0–1) of `values`; 0 when empty.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One Table 1 load or batch-baseline run, as measured by the process
/// that ran it.
#[derive(Debug, Clone, Copy)]
struct Measured {
    run: RunResult,
    /// User + system CPU seconds of the run.
    cpu_s: f64,
    /// Peak RSS during the run, MiB.
    rss_mb: f64,
}

/// A batch-baseline measurement repeats the baseline until this much time
/// has gone into it, and reports the median run: a baseline far shorter
/// than a load then still gives a steady figure.
const BASELINE_MIN_SPAN: Duration = Duration::from_millis(300);

/// Runs `engine` on `input` in this process: a Table 1 load once, the
/// batch baseline for at least [`BASELINE_MIN_SPAN`].
fn measure(engine: EngineKind, workload: Workload, input: &Input) -> Measured {
    sys::reset_peak_rss();
    let cpu_start = sys::cpu_seconds();
    let run = match engine {
        EngineKind::Slider => run_slider(&input.text, workload.fragment(), SliderConfig::default()),
        EngineKind::Baseline => {
            let mut runs = vec![run_baseline(&input.text, workload.fragment())];
            while runs.iter().map(|r| r.elapsed).sum::<Duration>() < BASELINE_MIN_SPAN {
                runs.push(run_baseline(&input.text, workload.fragment()));
            }
            runs.sort_by_key(|r| r.elapsed);
            runs[(runs.len() - 1) / 2]
        }
    };
    Measured {
        run,
        cpu_s: sys::cpu_seconds() - cpu_start,
        rss_mb: sys::peak_rss_mb(),
    }
}

/// [`measure`]s `engine` on `input`: in a fresh child process when
/// `opts.exe` is set, so no run inherits another's heap and the stream
/// phase's process holds only the stream reasoner.
fn measured(engine: EngineKind, opts: &Options, input: &Input) -> Measured {
    let Some(exe) = &opts.exe else {
        return measure(engine, opts.workload, input);
    };
    let out = Command::new(exe)
        .args(["--child", engine.name()])
        .args(opts.input_args())
        .output()
        .expect("child process starts");
    assert!(out.status.success(), "{} child failed", engine.name());
    let line = String::from_utf8(out.stdout).expect("child prints text");
    let fields: Vec<f64> = line
        .split_whitespace()
        .map(|f| f.parse().expect("child prints numbers"))
        .collect();
    Measured {
        run: RunResult {
            elapsed: Duration::from_secs_f64(fields[0]),
            input: fields[1] as usize,
            inferred: fields[2] as usize,
        },
        cpu_s: fields[3],
        rss_mb: fields[4],
    }
}

/// The child side of [`measured`]: rebuilds the run's input, measures
/// `engine` and prints `<seconds> <input> <inferred> <cpu seconds> <peak MiB>`.
pub fn child(engine: EngineKind, opts: &Options) {
    let input = workload::setup(opts.workload, opts.seed, opts.sizes, opts.seconds);
    let m = measure(engine, opts.workload, &input);
    println!(
        "{} {} {} {} {}",
        secs(m.run.elapsed),
        m.run.input,
        m.run.inferred,
        m.cpu_s,
        m.rss_mb
    );
}

/// One Table 1 load and its batch-baseline reference: the mean of the
/// baseline measurements taken last before and first after it (or only
/// the one before, at the end of the phase).
#[derive(Debug, Clone, Copy)]
struct Load {
    load: Measured,
    baseline: Duration,
}

impl Load {
    /// The batch baseline's time over the load's.
    fn speedup(&self) -> f64 {
        secs(self.baseline) / secs(self.load.run.elapsed)
    }
}

/// The load phase: `workload.load_reps(seconds)` Table 1 loads interleaved
/// with batch-baseline measurements, so both see the same machine
/// conditions. A baseline runs before a load whenever the baselines so far
/// took no longer than the loads, so a slow baseline runs less often.
/// Returns the loads and the baseline measurements.
fn load_phase(opts: &Options, input: &Input) -> (Vec<Load>, Vec<Measured>) {
    // Each load with the index of the last baseline before it.
    let mut loads: Vec<(Measured, usize)> = Vec::new();
    let mut baselines: Vec<Measured> = Vec::new();
    let (mut load_time, mut baseline_time) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..opts.workload.load_reps(opts.seconds) {
        if baseline_time <= load_time {
            let baseline = measured(EngineKind::Baseline, opts, input);
            baseline_time += baseline.run.elapsed;
            baselines.push(baseline);
        }
        let load = measured(EngineKind::Slider, opts, input);
        load_time += load.run.elapsed;
        loads.push((load, baselines.len() - 1));
    }
    let loads = loads
        .into_iter()
        .map(|(load, before)| {
            let around = &baselines[before..baselines.len().min(before + 2)];
            let sum: Duration = around.iter().map(|m| m.run.elapsed).sum();
            Load {
                load,
                baseline: sum / around.len() as u32,
            }
        })
        .collect();
    (loads, baselines)
}

/// Counts checks and reports failures on stderr.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn record(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// A load agrees with the batch baseline on input and inferred counts.
    fn load(&mut self, load: &RunResult, expected: &RunResult) {
        self.record(
            load.input == expected.input && load.inferred == expected.inferred,
            &format!(
                "load gave {} input / {} inferred, baseline {} / {}",
                load.input, load.inferred, expected.input, expected.inferred
            ),
        );
    }
}

/// One setup: the run's input, and a reasoner holding its resident part,
/// preloaded through the Table 1 path.
fn setup(opts: &Options) -> (Input, Slider) {
    let workload = opts.workload;
    let input = workload::setup(workload, opts.seed, opts.sizes, opts.seconds);
    let (resident, _) = table1_load(&input.resident_text, |dict| {
        Ruleset::fragment(workload.fragment(), dict)
    });
    (input, resident)
}

/// Checks `slider`'s final store against the closure of the explicit set
/// left by the same add/remove calls, replayed into a [`RecomputeOracle`]
/// in the reasoner's own id space. The load workloads take the closure
/// from [`NaiveReasoner`], the stream workload from the oracle itself.
fn final_store_matches(slider: &Slider, input: &Input, workload: Workload) -> bool {
    let dict = slider.dict();
    let encode = |batch: &[TermTriple]| -> Vec<Triple> {
        batch.iter().map(|t| dict.encode_triple(t)).collect()
    };
    let mut oracle = RecomputeOracle::new(Ruleset::fragment(workload.fragment(), dict));
    oracle.add(&encode(&input.resident));
    for step in input.window.steps() {
        for batch in &step.expiring {
            oracle.remove(&encode(batch));
        }
        oracle.add(&encode(step.arrival));
    }
    let expected = match workload {
        Workload::StreamWindow => oracle.to_sorted_vec(),
        Workload::BsbmLoad | Workload::ChainClosure => {
            let mut naive = NaiveReasoner::new(Ruleset::fragment(workload.fragment(), dict));
            naive.load(&oracle.explicit());
            naive.materialize();
            naive.store().to_sorted_vec()
        }
    };
    let actual = slider.store().to_sorted_vec();
    if expected != actual {
        eprintln!(
            "final store has {} triples, expected {}",
            actual.len(),
            expected.len()
        );
    }
    expected == actual
}

/// The reader's query mix over `input`.
fn query_mix<'a>(opts: &Options, input: &'a Input) -> stream::QueryMix<'a> {
    stream::QueryMix {
        rate: workload::QUERY_RATE,
        seed: workload::sub_seed(opts.seed, workload::SubSeed::Queries),
        scan_predicate: &input.scan_predicate,
        scan_objects: &input.scan_objects,
    }
}

/// Runs one workload and returns its metrics.
pub fn run(opts: &Options) -> Outcome {
    let workload = opts.workload;
    let params = workload.stream_params();
    let calibration = workload.calibration();
    let config = |input: &Input| {
        vec![
            ("slider_config", "SliderConfig::default()".to_owned()),
            ("fragment", workload.fragment().to_string()),
            ("load_triples", input.load.len().to_string()),
            ("resident_triples", input.resident.len().to_string()),
            ("stream_steps", input.window.len().to_string()),
            ("stream_batch", params.batch.to_string()),
            (
                "stream_mean_gap_ms",
                (secs(params.mean_gap) * 1e3).to_string(),
            ),
            (
                "stream_window_ms",
                (secs(input.window.window()) * 1e3).to_string(),
            ),
            (
                "calibrated_step_ms",
                calibration.closed_loop_step_ms.to_string(),
            ),
            ("calibrated_load_s", calibration.load_s.to_string()),
            ("query_rate_per_s", workload::QUERY_RATE.to_string()),
            ("load_reps", workload.load_reps(opts.seconds).to_string()),
            (
                "workers",
                std::thread::available_parallelism()
                    .map_or(0, usize::from)
                    .to_string(),
            ),
        ]
    };
    let mut checks = Checks::default();

    if opts.trace {
        let input = workload::setup(workload, opts.seed, opts.sizes, opts.seconds);
        let metrics = run_traced(opts, &input, &query_mix(opts, &input), &mut checks);
        let mut config = config(&input);
        config.push(("mode", "trace".to_owned()));
        return Outcome {
            attempted: checks.attempted,
            failed: checks.failed,
            metrics,
            config,
        };
    }

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(setup(opts));
        setup_s.push(secs(start.elapsed()));
    }
    let (input, slider) = prepared.expect("at least one setup");

    let (loads, baselines) = load_phase(opts, &input);
    let cpu_start = sys::cpu_seconds();
    let streamed = stream::run(&slider, &input.window, &query_mix(opts, &input), true);
    let stream_cpu_s = sys::cpu_seconds() - cpu_start;

    for load in &loads {
        checks.load(&load.load.run, &baselines[0].run);
    }
    checks.record(
        final_store_matches(&slider, &input, workload),
        "final store equals the closure of the surviving input",
    );

    let load_median =
        |f: fn(&Load) -> f64| -> f64 { median(&loads.iter().map(f).collect::<Vec<_>>()) };
    let metrics = vec![
        ("setup_s", median(&setup_s)),
        ("load_s", load_median(|l| secs(l.load.run.elapsed))),
        ("speedup_vs_batch", load_median(Load::speedup)),
        ("step_ms.p50", percentile(&streamed.step_ms, 0.5)),
        ("query_us.p50", percentile(&streamed.query_us, 0.5)),
        ("rss_peak_mb", load_median(|l| l.load.rss_mb)),
        (
            "cpu_s",
            loads.iter().map(|l| l.load.cpu_s).sum::<f64>() + stream_cpu_s,
        ),
    ];
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        config: config(&input),
    }
}

/// The figures [`workload::Calibration`] records, measured on the current
/// code: the median step time of the stream played closed-loop, ms, and
/// the median of three Table 1 loads, s.
pub fn calibrate(opts: &Options) -> (f64, f64) {
    let (input, slider) = setup(opts);
    let streamed = stream::run(&slider, &input.window, &query_mix(opts, &input), false);
    drop(slider);
    let loads: Vec<f64> = (0..3)
        .map(|_| secs(measured(EngineKind::Slider, opts, &input).run.elapsed))
        .collect();
    (percentile(&streamed.step_ms, 0.5), median(&loads))
}

/// Per-call timings of a Table 1 load.
#[derive(Debug, Default)]
struct LoadTimes {
    parse: Duration,
    encode: Duration,
    add: Duration,
    drain: Duration,
    triples: usize,
    publications: u64,
    wall: Duration,
}

/// The Table 1 path of [`run_slider`] on `text`, over the ruleset that
/// `rules` builds, keeping the reasoner. A timer runs around every call
/// into the parser, the dictionary and the session.
fn table1_load(text: &str, rules: impl FnOnce(&Arc<Dictionary>) -> Ruleset) -> (Slider, LoadTimes) {
    let mut times = LoadTimes::default();
    let start = Instant::now();
    let dict = Arc::new(Dictionary::new());
    let ruleset = rules(&dict);
    let slider = Slider::new(Arc::clone(&dict), ruleset, SliderConfig::default());
    let generation = slider.store().snapshot_generation();
    let mut parser = NTriplesParser::new(text.as_bytes());
    let mut chunk = Vec::with_capacity(CHUNK);
    loop {
        let t = Instant::now();
        let next = parser.next();
        times.parse += t.elapsed();
        let Some(triple) = next else { break };
        let t = Instant::now();
        chunk.push(dict.encode_triple_owned(triple.expect("generated data parses")));
        times.encode += t.elapsed();
        times.triples += 1;
        if chunk.len() == CHUNK {
            let t = Instant::now();
            slider.add_triples(&chunk);
            times.add += t.elapsed();
            chunk.clear();
        }
    }
    let t = Instant::now();
    slider.add_triples(&chunk);
    times.add += t.elapsed();
    let t = Instant::now();
    slider.wait_idle();
    times.drain += t.elapsed();
    times.wall = start.elapsed();
    times.publications = slider.store().snapshot_generation() - generation;
    (slider, times)
}

/// Replays `triples` into a fresh store in [`REPLAY_CHUNK`]-triple
/// `insert_batch_explicit` calls; returns the time taken.
fn replay(triples: &[Triple]) -> Duration {
    let store = ShardedStore::new();
    let mut fresh = Vec::new();
    let start = Instant::now();
    for chunk in triples.chunks(REPLAY_CHUNK) {
        fresh.clear();
        store.insert_batch_explicit(chunk, &mut fresh);
    }
    start.elapsed()
}

/// Store write scaling: the encoded load input (N triples) and the load
/// input plus a subject-renamed copy of itself (2N) replayed straight into
/// a store. Returns `(t(N), t(2N) / t(N))`.
fn store_scaling(input: &Input) -> (Duration, f64) {
    let dict = Dictionary::new();
    let once: Vec<Triple> = input.load.iter().map(|t| dict.encode_triple(t)).collect();
    let copy = workload::renamed_copy(&input.load, "twin");
    let twice: Vec<Triple> = once
        .iter()
        .copied()
        .chain(copy.iter().map(|t| dict.encode_triple(t)))
        .collect();
    let t1 = replay(&once);
    let t2 = replay(&twice);
    (t1, secs(t2) / secs(t1))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The cumulative counters the traced run reports, in the order
/// [`counters`] reads them.
const COUNTERS: [&str; 17] = [
    "buffer.fired",
    "buffer.full_flushes",
    "buffer.timeout_flushes",
    "rules.apply_s",
    "rules.apply_calls",
    "rules.derived",
    "rules.fresh",
    "rules.derives_s",
    "rules.derives_calls",
    "store.gate_write_acquisitions",
    "store.shard_write_conflicts",
    "maintenance.retracted",
    "maintenance.overdeleted",
    "maintenance.rederived",
    "maintenance.coalesced_runs",
    "maintenance.partitioned_runs",
    "dict.sweeps",
];

/// The [`COUNTERS`] of a reasoner and its rules' clock so far.
fn counters(stats: &StatsSnapshot, clock: &timed::RuleClock) -> [f64; COUNTERS.len()] {
    let rules =
        |f: fn(&slider_core::RuleStats) -> u64| stats.rules.iter().map(f).sum::<u64>() as f64;
    let ns = |a: &std::sync::atomic::AtomicU64| a.load(Relaxed) as f64 / 1e9;
    let count = |a: &std::sync::atomic::AtomicU64| a.load(Relaxed) as f64;
    [
        rules(|r| r.fired),
        rules(|r| r.full_flushes),
        rules(|r| r.timeout_flushes),
        ns(&clock.apply_ns),
        count(&clock.apply_calls),
        rules(|r| r.derived),
        rules(|r| r.fresh),
        ns(&clock.derives_ns),
        count(&clock.derives_calls),
        stats.gate_write_acquisitions as f64,
        stats.shard_write_conflicts as f64,
        stats.retracted as f64,
        stats.overdeleted as f64,
        stats.rederived as f64,
        stats.coalesced_runs as f64,
        stats.partitioned_runs as f64,
        stats.dict_sweeps as f64,
    ]
}

/// The traced run: per-layer metrics.
///
/// The load goes through [`table1_load`] over a timed ruleset. The stream
/// then runs on a reasoner holding the resident input, as in the untraced
/// run: the loaded reasoner itself where the resident input is the load
/// input, otherwise a second one preloaded with the resident input over
/// the same rules' clock. The counters cover the load and the stream
/// phase, not that second preload; the dictionary's size is the stream
/// reasoner's at the end.
fn run_traced(
    opts: &Options,
    input: &Input,
    mix: &stream::QueryMix<'_>,
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    let workload = opts.workload;
    let reference = run_slider(&input.text, workload.fragment(), SliderConfig::default());
    let clock = Arc::new(timed::RuleClock::default());
    let timed_rules =
        |dict: &Arc<Dictionary>| timed::timed_ruleset(workload.fragment(), dict, &clock);
    let (loaded, load) = table1_load(&input.text, timed_rules);
    let after_load = loaded.stats();
    let load_counters = counters(&after_load, &clock);
    let traced_load = RunResult {
        input: after_load.input_fresh as usize,
        inferred: after_load.total_inferred() as usize,
        elapsed: load.wall,
    };
    let slider = if input.resident_is_load {
        loaded
    } else {
        drop(loaded);
        table1_load(&input.resident_text, timed_rules).0
    };
    let before_stream = counters(&slider.stats(), &clock);
    sys::reset_peak_rss();
    let streamed = stream::run(&slider, &input.window, mix, true);
    let stream_rss_mb = sys::peak_rss_mb();
    let stats = slider.stats();
    let after_stream = counters(&stats, &clock);

    let baseline = measured(EngineKind::Baseline, opts, input).run;
    checks.load(&reference, &baseline);
    checks.load(&traced_load, &baseline);
    let check_start = Instant::now();
    checks.record(
        final_store_matches(&slider, input, workload),
        "final store equals the closure of the surviving input",
    );
    let check = check_start.elapsed();
    let (insert, insert_scaling) = store_scaling(input);

    let mut metrics: Vec<(&'static str, f64)> = COUNTERS
        .iter()
        .enumerate()
        .map(|(i, &name)| (name, load_counters[i] + after_stream[i] - before_stream[i]))
        .collect();
    let counter = |name: &str| metrics.iter().find(|m| m.0 == name).expect("a counter").1;
    let derived_ratios = [
        (
            "rules.useful_ratio",
            ratio(counter("rules.fresh"), counter("rules.derived")),
        ),
        (
            "maintenance.rederive_ratio",
            ratio(
                counter("maintenance.rederived"),
                counter("maintenance.overdeleted"),
            ),
        ),
    ];
    metrics.extend(derived_ratios);
    metrics.extend([
        ("parser.parse_s", secs(load.parse)),
        ("parser.triples", load.triples as f64),
        ("dict.encode_s", secs(load.encode)),
        ("dict.terms", stats.dict_terms as f64),
        ("dict.bytes", stats.dict_bytes_estimate as f64),
        ("core.add_s", secs(load.add)),
        ("core.drain_s", secs(load.drain)),
        ("core.step_add_s", secs(streamed.add)),
        ("core.step_drain_s", secs(streamed.drain)),
        ("core.expire_s", secs(streamed.expire)),
        ("store.publications", load.publications as f64),
        (
            "store.publications_per_triple",
            ratio(load.publications as f64, load.triples as f64),
        ),
        ("store.insert_s", secs(insert)),
        ("store.insert_scaling", insert_scaling),
        (
            "store.rows_per_query",
            ratio(streamed.rows as f64, streamed.query_us.len() as f64),
        ),
        (
            "maintenance.flush_ms.p50",
            percentile(&streamed.flush_ms, 0.5),
        ),
        (
            "maintenance.flush_ms.p95",
            percentile(&streamed.flush_ms, 0.95),
        ),
        ("baseline.materialize_s", secs(baseline.elapsed)),
        ("baseline.check_s", secs(check)),
        ("driver.late_ms_max", streamed.late_ms_max),
        ("driver.step_ms.p95", percentile(&streamed.step_ms, 0.95)),
        ("driver.query_us.p99", percentile(&streamed.query_us, 0.99)),
        ("driver.queries", streamed.query_us.len() as f64),
        ("driver.stream_rss_mb", stream_rss_mb),
        ("driver.load_s", secs(reference.elapsed)),
        ("driver.step_ms.p50", percentile(&streamed.step_ms, 0.5)),
        ("driver.query_us.p50", percentile(&streamed.query_us, 0.5)),
        ("trace.load_wall_s", secs(load.wall)),
        ("trace.overhead", secs(load.wall) / secs(reference.elapsed)),
    ]);
    metrics
}
