//! The benchmark's own tests, at smoke size: every workload passes its
//! correctness checks and reports every metric `BENCHMARK.json` names, and
//! the rules-layer timing probe does not change what the reasoner derives.

use perfbench::timed::{timed_ruleset, RuleClock};
use perfbench::workload::{self, Sizes, Workload, DEFAULT_SEED, WORKLOADS};
use perfbench::{run, Options, Outcome};
use slider_core::{Slider, SliderConfig};
use slider_model::{Dictionary, Triple};
use slider_rules::Ruleset;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Metric names of one section (`"end_to_end"` or `"per_layer"`) of
/// `BENCHMARK.json`.
fn declared_metrics(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    // A section is an array of flat objects: its first `]` ends it.
    let body = &spec[start..];
    let end = body.find(']').expect("section is an array");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_owned())
        .collect()
}

fn smoke(workload: Workload, trace: bool) -> Outcome {
    run(&Options {
        workload,
        seed: DEFAULT_SEED,
        seconds: 1.0,
        trace,
        sizes: Sizes::SMOKE,
        exe: Some(env!("CARGO_BIN_EXE_perfbench").into()),
    })
}

fn assert_reports(outcome: &Outcome, names: &[String], workload: Workload) {
    assert!(!names.is_empty());
    for name in names {
        let value = outcome
            .metric(name)
            .unwrap_or_else(|| panic!("{} did not report {name}", workload.name()));
        assert!(value.is_finite(), "{}: {name} = {value}", workload.name());
    }
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_end_to_end_metric() {
    let names = declared_metrics("end_to_end");
    for workload in WORKLOADS {
        let outcome = smoke(workload, false);
        assert!(outcome.attempted >= 2, "{}", workload.name());
        assert_eq!(outcome.failed, 0, "{}", workload.name());
        assert_reports(&outcome, &names, workload);
        for name in &names {
            assert!(
                outcome.metric(name).unwrap() > 0.0,
                "{}: {name} must never be 0",
                workload.name()
            );
        }
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_when_traced() {
    let names = declared_metrics("per_layer");
    for workload in WORKLOADS {
        let outcome = smoke(workload, true);
        assert_eq!(outcome.failed, 0, "{}", workload.name());
        assert_reports(&outcome, &names, workload);
        let parsed = outcome.metric("parser.triples").unwrap();
        assert!(parsed > 0.0, "{}", workload.name());
    }
}

#[test]
fn report_carries_checks_and_metrics() {
    let opts = Options {
        workload: Workload::ChainClosure,
        seed: DEFAULT_SEED,
        seconds: 1.0,
        trace: false,
        sizes: Sizes::SMOKE,
        exe: None,
    };
    let json = run(&opts).report(&opts).to_json();
    assert!(json.contains(r#""checks.failed":0.000000"#), "{json}");
    assert!(json.contains(r#""load_s":"#), "{json}");
    assert!(json.contains(r#""seed":"1""#), "{json}");
}

#[test]
fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
    for workload in [Workload::BsbmLoad, Workload::StreamWindow] {
        let a = workload::setup(workload, 3, Sizes::SMOKE, 1.0);
        let b = workload::setup(workload, 3, Sizes::SMOKE, 1.0);
        let c = workload::setup(workload, 4, Sizes::SMOKE, 1.0);
        assert_eq!(a.text, b.text, "{}", workload.name());
        let arrivals = |i: &workload::Input| -> Vec<_> {
            i.window
                .steps()
                .map(|s| (s.at, s.arrival.to_vec()))
                .collect()
        };
        assert_eq!(arrivals(&a), arrivals(&b), "{}", workload.name());
        assert_ne!(arrivals(&a), arrivals(&c), "{}", workload.name());
    }
}

/// The closure of `triples` under `ruleset`, computed by a default-config
/// reasoner over `dict`.
fn closure(dict: &Arc<Dictionary>, ruleset: Ruleset, triples: &[Triple]) -> Vec<Triple> {
    let slider = Slider::new(Arc::clone(dict), ruleset, SliderConfig::default());
    slider.add_triples(triples);
    slider.wait_idle();
    slider.store().to_sorted_vec()
}

#[test]
fn timing_probe_is_transparent() {
    for workload in WORKLOADS {
        let input = workload::setup(workload, DEFAULT_SEED, Sizes::SMOKE, 1.0);
        let dict = Arc::new(Dictionary::new());
        let triples: Vec<Triple> = input.load.iter().map(|t| dict.encode_triple(t)).collect();
        let clock = Arc::new(RuleClock::default());
        let plain = closure(
            &dict,
            Ruleset::fragment(workload.fragment(), &dict),
            &triples,
        );
        let timed = closure(
            &dict,
            timed_ruleset(workload.fragment(), &dict, &clock),
            &triples,
        );
        assert!(plain.len() > triples.len(), "{} infers", workload.name());
        assert_eq!(plain, timed, "{}", workload.name());
        assert!(clock.apply_calls.load(Relaxed) > 0, "{}", workload.name());
    }
}
