//! The rules-layer probe: a delegating [`Rule`] that times every call to
//! `apply` and `derives` of the rule it wraps, so the traced run sees the
//! rules layer from outside the engine.

use slider_model::{Dictionary, NodeId, Triple};
use slider_rules::{Fragment, InputFilter, OutputSignature, Rule, Ruleset};
use slider_store::StoreView;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Cumulative call counts and busy time of every wrapped rule.
#[derive(Debug, Default)]
pub struct RuleClock {
    /// Nanoseconds spent in `apply`.
    pub apply_ns: AtomicU64,
    /// Calls to `apply`.
    pub apply_calls: AtomicU64,
    /// Nanoseconds spent in `derives`.
    pub derives_ns: AtomicU64,
    /// Calls to `derives`.
    pub derives_calls: AtomicU64,
}

struct TimedRule {
    inner: Arc<dyn Rule>,
    clock: Arc<RuleClock>,
}

impl Rule for TimedRule {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn definition(&self) -> &'static str {
        self.inner.definition()
    }

    fn input_filter(&self) -> InputFilter {
        self.inner.input_filter()
    }

    fn output_signature(&self) -> OutputSignature {
        self.inner.output_signature()
    }

    fn apply(&self, store: &StoreView, delta: &[Triple], out: &mut Vec<Triple>) {
        let start = Instant::now();
        self.inner.apply(store, delta, out);
        self.clock
            .apply_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        self.clock.apply_calls.fetch_add(1, Relaxed);
    }

    fn read_predicates(&self) -> Option<Vec<NodeId>> {
        self.inner.read_predicates()
    }

    fn subject_local_inputs(&self) -> Vec<NodeId> {
        self.inner.subject_local_inputs()
    }

    fn derives(&self, store: &StoreView, t: Triple) -> Option<bool> {
        let start = Instant::now();
        let answer = self.inner.derives(store, t);
        self.clock
            .derives_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        self.clock.derives_calls.fetch_add(1, Relaxed);
        answer
    }
}

/// `fragment`'s ruleset with every rule wrapped in a timing probe that
/// reports into `clock`.
pub fn timed_ruleset(
    fragment: Fragment,
    dict: &Arc<Dictionary>,
    clock: &Arc<RuleClock>,
) -> Ruleset {
    let plain = Ruleset::fragment(fragment, dict);
    let mut timed = Ruleset::custom(plain.name());
    for rule in plain.rules() {
        timed.push_arc(Arc::new(TimedRule {
            inner: Arc::clone(rule),
            clock: Arc::clone(clock),
        }));
    }
    timed
}
