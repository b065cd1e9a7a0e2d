//! The three workloads: what each generates from its seed, how its input
//! is split into a bulk load and a stream, and the stream's schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slider_model::vocab::{RDFS_NS, RDF_NS};
use slider_model::{Term, TermTriple};
use slider_rules::Fragment;
use slider_workloads::stream::{TimedStream, TimedWindow};
use slider_workloads::wikipedia::WIKI_NS;
use slider_workloads::{bsbm, chains, to_ntriples, wikipedia};
use std::time::Duration;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A large BSBM-shaped A-Box over a tiny schema, under ρdf.
    BsbmLoad,
    /// The paper's Eq. 1 `subClassOf` chain, under ρdf.
    ChainClosure,
    /// A resident Wikipedia-shaped category tree with an article stream
    /// sliding through a time-based window, under RDFS.
    StreamWindow,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload::BsbmLoad,
    Workload::ChainClosure,
    Workload::StreamWindow,
];

/// Seed a claim is developed on.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept back for re-checking a claim.
pub const HELD_OUT_SEED: u64 = 7;

/// What a seed drawn from the workload seed is for.
#[derive(Debug, Clone, Copy)]
pub enum SubSeed {
    /// Offsets of the copied stream slices.
    Copies = 1,
    /// The arrival gap schedule.
    Gaps = 2,
    /// The reader's query choices.
    Queries = 3,
}

/// An independent seed for `purpose`, derived from the workload seed.
pub fn sub_seed(seed: u64, purpose: SubSeed) -> u64 {
    seed ^ (purpose as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Bursty gaps are `k · tick` with `k ~ Geometric(GAP_CONTINUE_PROB)`:
/// one arrival in ten comes back-to-back with the one before, and the
/// mean gap is nine ticks.
const GAP_CONTINUE_PROB: f64 = 0.9;

/// Input sizes. [`Sizes::FULL`] is what the benchmark measures; the
/// smoke sizes keep the package's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// BSBM target triples of `bsbm_load`.
    pub bsbm_triples: usize,
    /// Chain length `n` of `chain_closure`.
    pub chain_n: usize,
    /// Wikipedia target triples of `stream_window` (tree + articles).
    pub wiki_triples: usize,
}

impl Sizes {
    /// The measured sizes.
    pub const FULL: Sizes = Sizes {
        bsbm_triples: 20_000,
        chain_n: 500,
        wiki_triples: 30_000,
    };
    /// Sizes for the package's tests.
    pub const SMOKE: Sizes = Sizes {
        bsbm_triples: 2_000,
        chain_n: 60,
        wiki_triples: 3_000,
    };
}

/// Shape of a workload's stream phase.
#[derive(Debug, Clone, Copy)]
pub struct StreamParams {
    /// Triples per arrival batch.
    pub batch: usize,
    /// Mean gap between arrivals (open loop, bursty).
    pub mean_gap: Duration,
}

/// What the code the benchmark was defined on measured, per workload, at
/// [`Sizes::FULL`] on a 2-core x86-64 box (`perfbench --calibrate`, median
/// over seeds 1, 7 and 2 and earlier readings at the same settings). The
/// stream rate and the number of loads follow from these figures by the
/// rules below, and stay fixed for every later commit.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Median step time of the stream played closed-loop, ms.
    pub closed_loop_step_ms: f64,
    /// Median time of one Table 1 load, s.
    pub load_s: f64,
}

/// The stream offers this share of the closed-loop capacity: the mean gap
/// is the closed-loop step time divided by it.
pub const OFFERED_SHARE: f64 = 0.25;

/// Share of `--seconds` the load phase takes at the calibrated load time.
pub const LOAD_SHARE: f64 = 0.5;

/// Stream steps per second of `--seconds`: the stream phase has the same
/// number of steps on every workload, whatever its rate.
pub const STEPS_PER_SECOND: f64 = 15.0;

/// Arrival batches of `stream_window` whose articles its load input holds
/// beside the category tree: sized, like the other load inputs, so that a
/// load takes about a second on the box the benchmark was defined on.
const LOAD_ARTICLE_BATCHES: usize = 200;

/// Stream window length, in mean gaps.
pub const WINDOW_GAPS: u32 = 20;

/// Reader queries per second (open loop, uniform).
pub const QUERY_RATE: f64 = 200.0;

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BsbmLoad => "bsbm_load",
            Workload::ChainClosure => "chain_closure",
            Workload::StreamWindow => "stream_window",
        }
    }

    /// The rule fragment the workload reasons under.
    pub fn fragment(self) -> Fragment {
        match self {
            Workload::BsbmLoad | Workload::ChainClosure => Fragment::RhoDf,
            Workload::StreamWindow => Fragment::Rdfs,
        }
    }

    /// Triples per arrival batch: a size, not a rate, set so that one
    /// closed-loop step takes 5 to 12 ms in the [`Calibration`].
    fn batch(self) -> usize {
        match self {
            Workload::BsbmLoad => 35,
            Workload::ChainClosure => 8,
            Workload::StreamWindow => 70,
        }
    }

    /// The figures the fixed rates were derived from.
    pub fn calibration(self) -> Calibration {
        match self {
            Workload::BsbmLoad => Calibration {
                closed_loop_step_ms: 8.5,
                load_s: 2.0,
            },
            Workload::ChainClosure => Calibration {
                closed_loop_step_ms: 11.3,
                load_s: 0.9,
            },
            Workload::StreamWindow => Calibration {
                closed_loop_step_ms: 5.6,
                load_s: 1.3,
            },
        }
    }

    /// Bulk loads in a run of `seconds`: [`LOAD_SHARE`] of it in
    /// calibrated loads. Fixed for a given `seconds`, so `cpu_s` covers the
    /// same work on every commit.
    pub fn load_reps(self, seconds: f64) -> usize {
        ((seconds * LOAD_SHARE / self.calibration().load_s).round() as usize).max(1)
    }

    /// Stream steps in a run of `seconds`.
    pub fn stream_steps(seconds: f64) -> usize {
        ((seconds * STEPS_PER_SECOND).round() as usize).max(4)
    }

    /// The stream phase's fixed schedule: [`OFFERED_SHARE`] of the
    /// calibrated closed-loop capacity.
    pub fn stream_params(self) -> StreamParams {
        let step_ms = self.calibration().closed_loop_step_ms / OFFERED_SHARE;
        StreamParams {
            batch: self.batch(),
            mean_gap: Duration::from_secs_f64(step_ms.round() / 1e3),
        }
    }
}

/// Everything a run needs, generated from the seed.
pub struct Input {
    /// The load phase's input as N-Triples text (the Table 1 path's input).
    pub text: String,
    /// The load phase's input as terms.
    pub load: Vec<TermTriple>,
    /// What the stream phase's reasoner holds before the first arrival.
    pub resident: Vec<TermTriple>,
    /// `resident` as N-Triples text.
    pub resident_text: String,
    /// Whether `resident` is `load`.
    pub resident_is_load: bool,
    /// The stream: arrival batches with virtual times and expiries.
    pub window: TimedWindow,
    /// Predicate of the reader's scans `(?, p, C)`.
    pub scan_predicate: Term,
    /// Objects `C` the reader's scans draw from: every object of
    /// `scan_predicate` in the load input.
    pub scan_objects: Vec<Term>,
}

fn rdf_type() -> Term {
    Term::iri(format!("{RDF_NS}type"))
}

fn sub_class_of() -> Term {
    Term::iri(format!("{RDFS_NS}subClassOf"))
}

/// `triples` with every subject renamed by appending `tag`: a copy that
/// derives what the originals derive without repeating any of them.
pub fn renamed_copy(triples: &[TermTriple], tag: &str) -> Vec<TermTriple> {
    let rename = |t: &Term| match t {
        Term::Iri(iri) => Term::iri(format!("{iri}/{tag}")),
        Term::Blank(label) => Term::blank(format!("{label}{tag}")),
        other => other.clone(),
    };
    triples
        .iter()
        .map(|(s, p, o)| (rename(s), p.clone(), o.clone()))
        .collect()
}

/// `steps` batches of `batch` triples: each a contiguous slice of `bulk`
/// at a seeded offset, copied with [`renamed_copy`].
fn copied_stream(bulk: &[TermTriple], batch: usize, steps: usize, seed: u64) -> Vec<TermTriple> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(batch * steps);
    for k in 0..steps {
        let start = rng.random_range(0..=bulk.len() - batch);
        out.extend(renamed_copy(
            &bulk[start..start + batch],
            &format!("copy{k}"),
        ));
    }
    out
}

/// Generates a workload's input for a run of `seconds`.
pub fn setup(workload: Workload, seed: u64, sizes: Sizes, seconds: f64) -> Input {
    let params = workload.stream_params();

    let steps = Workload::stream_steps(seconds);
    let copy_seed = sub_seed(seed, SubSeed::Copies);
    let (load, resident, arrivals, scan_predicate) = match workload {
        Workload::BsbmLoad => {
            let load = bsbm::generate(&bsbm::BsbmConfig {
                target_triples: sizes.bsbm_triples,
                seed,
            });
            let arrivals = copied_stream(&load, params.batch, steps, copy_seed);
            let product_type = Term::iri(format!("{}productType", bsbm::VOCAB_NS));
            (load.clone(), load, arrivals, product_type)
        }
        Workload::ChainClosure => {
            let load = chains::subclass_chain(sizes.chain_n);
            let arrivals = copied_stream(&load, params.batch, steps, copy_seed);
            (load.clone(), load, arrivals, sub_class_of())
        }
        Workload::StreamWindow => {
            let data = wikipedia::generate(&wikipedia::WikipediaConfig {
                target_triples: sizes.wiki_triples,
                seed,
            });
            let category_prefix = format!("{WIKI_NS}category/");
            let (tree, mut articles): (Vec<TermTriple>, Vec<TermTriple>) =
                data.into_iter().partition(|t| {
                    t.0.as_iri()
                        .is_some_and(|s| s.starts_with(&category_prefix))
                });
            articles.truncate(steps * params.batch);
            // The load phase materialises the tree and a prefix of the
            // article stream from scratch, as a batch reasoner would.
            let prefix = (LOAD_ARTICLE_BATCHES * params.batch).min(articles.len());
            let load = tree.iter().chain(&articles[..prefix]).cloned().collect();
            (load, tree, articles, rdf_type())
        }
    };
    let stream = TimedStream::bursty(
        &arrivals,
        params.batch,
        params
            .mean_gap
            .mul_f64((1.0 - GAP_CONTINUE_PROB) / GAP_CONTINUE_PROB),
        GAP_CONTINUE_PROB,
        sub_seed(seed, SubSeed::Gaps),
    );
    let window = TimedWindow::from_stream(&stream, params.mean_gap * WINDOW_GAPS);
    let mut scan_objects: Vec<Term> = load
        .iter()
        .filter(|t| t.1 == scan_predicate)
        .map(|t| t.2.clone())
        .collect();
    scan_objects.sort();
    scan_objects.dedup();
    let text = to_ntriples(&load);
    // The load workloads stream copies beside their whole input.
    let resident_is_load = workload != Workload::StreamWindow;
    Input {
        resident_text: if resident_is_load {
            text.clone()
        } else {
            to_ntriples(&resident)
        },
        resident_is_load,
        text,
        load,
        resident,
        window,
        scan_predicate,
        scan_objects,
    }
}
