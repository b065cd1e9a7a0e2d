//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its bench trajectory report (see
//! `slider_bench::report`) as the last line of standard output. Exits with
//! code 1 when a correctness check failed, 2 on bad arguments.
//!
//! `perfbench --calibrate --workload <name>` instead prints the figures
//! that `workload::Calibration` records, measured on the current code.

use perfbench::workload::{Sizes, Workload, DEFAULT_SEED};
use perfbench::Options;
use slider_bench::EngineKind;

const USAGE: &str = "perfbench --workload <bsbm_load|chain_closure|stream_window> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--calibrate]";

fn usage() -> ! {
    eprintln!("usage: {USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::BsbmLoad,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        sizes: Sizes::FULL,
        exe: std::env::current_exe().ok(),
    };
    let mut child = None;
    let mut calibrate = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()).unwrap_or_else(|| usage())),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                opts.seconds = value()
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => opts.sizes = Sizes::SMOKE,
            "--calibrate" => calibrate = true,
            "--child" => {
                child = match value().as_str() {
                    "slider" => Some(EngineKind::Slider),
                    "baseline" => Some(EngineKind::Baseline),
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    opts.workload = workload.unwrap_or_else(|| usage());
    if let Some(engine) = child {
        perfbench::child(engine, &opts);
        return;
    }
    if calibrate {
        let (step_ms, load_s) = perfbench::calibrate(&opts);
        println!(
            "{}: closed_loop_step_ms {step_ms:.3} load_s {load_s:.3}",
            opts.workload.name()
        );
        return;
    }
    let outcome = perfbench::run(&opts);
    println!("{}", outcome.report(&opts).to_json());
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}
