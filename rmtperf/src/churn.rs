//! `feasibility_churn`: `IncrementalEngine` fed a seeded edge-toggle
//! stream, as in experiment E17 (ring+chords n = 20, t = 4, ad hoc views).
//!
//! One operation applies one delta and answers both characterizations
//! (`decide_rmt` and `decide_zpp`). No protocol runs: the cost is the
//! knowledge refresh, the anchored cut searches and the antichain
//! families behind them. Several independent chains are interleaved so a
//! run's cost does not hang on where one random walk over graphs wanders.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use rand::Rng;
use rmt_adversary::AdversaryStructure;
use rmt_core::cuts::{
    find_rmt_cut_anchored, zpp_cut_by_enumeration_anchored, RmtCutWitness, ZppCutWitness,
};
use rmt_core::engine::{ApplyStats, Delta, IncrementalEngine};
use rmt_core::sampling::threshold_instance;
use rmt_core::Instance;
use rmt_graph::generators::{self, seeded};
use rmt_graph::{Graph, ViewKind};
use rmt_obs::Registry;
use rmt_sets::NodeId;

use crate::harness::{elapsed_ns, quantile, Checked};
use crate::layers::Layers;
use crate::workload::{input_rng, Metric, TracedPass, Workload};

const N: usize = 20;
const T: usize = 4;
/// Independent chains; chain 0 starts from E17's own n = 20 graph.
const CHAINS: usize = 4;
/// Toggles a chain walks away from its start graph before walking back.
const REACH: usize = 10;
/// Fixed segments per chain.
const SEGMENTS: usize = 12;
/// Seed of chain `k > 0`'s start graph: `POOL_SEED + k`.
const POOL_SEED: u64 = 0xE17_0000;
/// Seed of segment `s` of chain `k`: `SEGMENT_SEED + k * SEGMENTS + s`.
const SEGMENT_SEED: u64 = 0xE17_1000;

const APPLY: &str = "core.engine.apply_ms";
const DECIDE_RMT: &str = "core.engine.decide_rmt_ms";
const DECIDE_ZPP: &str = "core.engine.decide_zpp_ms";
const PARTS: &str = "core.engine.parts_rebuilt";
const CERTS: &str = "core.engine.certs_dropped";

/// The registry counters the engine's `_observed` calls emit, reported per
/// operation (its invalidated parts and certificates duplicate
/// [`ApplyStats`]). The standalone deciders' `rmt_cut.*`, `zpp.*` and
/// `family.*` counters are not among them: the engine scans anchors itself.
const COUNTERS: [&str; 3] = [
    "cache.cert_hits",
    "cache.cert_misses",
    "cache.invalidate.domains",
];

/// One delta on one chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    /// Which chain the delta applies to.
    pub chain: usize,
    /// The edge toggle.
    pub delta: Delta,
}

/// Both answers after one delta.
pub type Out = (Option<RmtCutWitness>, Option<ZppCutWitness>);

type Edge = (NodeId, NodeId);

struct Chain {
    engine: IncrementalEngine,
    start: Graph,
    structure: AdversaryStructure,
}

/// The engines, one per chain.
pub struct FeasibilityChurn {
    chains: Vec<Chain>,
}

fn start_graph(chain: usize) -> Graph {
    let seed = if chain == 0 {
        0xE17 + N as u64
    } else {
        POOL_SEED + chain as u64
    };
    generators::ring_with_chords(N, N / 4, &mut seeded(seed))
}

fn instance(g: Graph) -> Instance {
    threshold_instance(g, T, ViewKind::AdHoc, 0, (N / 2) as u32)
}

/// E17's toggle rule: a random node pair other than the dealer–receiver
/// pair (adjacent endpoints skip the scan entirely); remove the edge if
/// present, add it otherwise.
fn toggle(g: &Graph, rng: &mut impl Rng) -> Delta {
    let (dealer, receiver) = (NodeId::new(0), NodeId::new((N / 2) as u32));
    loop {
        let u = NodeId::new(rng.random_range(0..N as u32));
        let v = NodeId::new(rng.random_range(0..N as u32));
        if u == v || (u == dealer && v == receiver) || (u == receiver && v == dealer) {
            continue;
        }
        return if g.has_edge(u, v) {
            Delta::RemoveEdge(u, v)
        } else {
            Delta::AddEdge(u, v)
        };
    }
}

/// One segment of the stream: REACH toggles by E17's rule from `start`,
/// then the same toggles undone in reverse order.
fn segment(start: &Graph, rng: &mut impl Rng) -> Vec<Delta> {
    let mut g = start.clone();
    let out: Vec<Delta> = (0..REACH)
        .map(|_| {
            let d = toggle(&g, rng);
            apply_to(&mut g, &d);
            d
        })
        .collect();
    let back: Vec<Delta> = out.iter().rev().map(undo).collect();
    out.into_iter().chain(back).collect()
}

/// The toggle that reverts `delta`.
fn undo(delta: &Delta) -> Delta {
    match *delta {
        Delta::AddEdge(u, v) => Delta::RemoveEdge(u, v),
        Delta::RemoveEdge(u, v) => Delta::AddEdge(u, v),
        _ => unreachable!("the stream only toggles edges"),
    }
}

fn apply_to(g: &mut Graph, delta: &Delta) {
    match *delta {
        Delta::AddEdge(u, v) => {
            g.add_edge(u, v);
        }
        Delta::RemoveEdge(u, v) => {
            g.remove_edge(u, v);
        }
        _ => unreachable!("the stream only toggles edges"),
    }
}

impl Workload for FeasibilityChurn {
    const NAME: &'static str = "feasibility_churn";
    const NOMINAL_OPS_PER_S: f64 = 180.0;
    const POOL: usize = CHAINS * SEGMENTS * 2 * REACH;

    type Op = Op;
    type Out = Out;

    fn setup(seed: u64, ops: usize) -> (Self, Vec<Op>) {
        let chains: Vec<Chain> = (0..CHAINS)
            .map(|k| {
                let inst = instance(start_graph(k));
                Chain {
                    engine: IncrementalEngine::from_instance(&inst, ViewKind::AdHoc),
                    start: inst.graph().clone(),
                    structure: inst.adversary().clone(),
                }
            })
            .collect();
        // Every segment walks REACH toggles out from its chain's start graph
        // and back, so segments commute: the seed orders a fixed set of them.
        let mut segments: Vec<(usize, Vec<Delta>)> = (0..CHAINS)
            .flat_map(|chain| {
                let start = &chains[chain].start;
                (0..SEGMENTS).map(move |k| {
                    (
                        chain,
                        segment(
                            start,
                            &mut seeded(SEGMENT_SEED + (chain * SEGMENTS + k) as u64),
                        ),
                    )
                })
            })
            .collect();
        let mut rng = input_rng(seed, 0xC4);
        let mut list = Vec::with_capacity(ops);
        for _ in 0..ops / Self::POOL {
            for i in (1..segments.len()).rev() {
                segments.swap(i, rng.random_range(0..=i));
            }
            for (chain, deltas) in &segments {
                list.extend(deltas.iter().map(|delta| Op {
                    chain: *chain,
                    delta: delta.clone(),
                }));
            }
        }
        (FeasibilityChurn { chains }, list)
    }

    /// E17's warm-up: both deciders once per chain before the stream.
    fn warm_up(&mut self) {
        for chain in &mut self.chains {
            chain.engine.decide_rmt();
            chain.engine.decide_zpp();
        }
    }

    fn run(&mut self, op: &Op, layers: Option<&Rc<Layers>>) -> Out {
        let engine = &mut self.chains[op.chain].engine;
        let Some(layers) = layers else {
            engine
                .apply(op.delta.clone())
                .expect("edge toggles keep the instance well-formed");
            return (engine.decide_rmt(), engine.decide_zpp());
        };
        let reg = Registry::new();
        let stats: ApplyStats = layers.time(APPLY, || {
            engine
                .apply_observed(op.delta.clone(), &reg)
                .expect("edge toggles keep the instance well-formed")
        });
        layers.count(PARTS, stats.parts_rebuilt as f64);
        layers.count(CERTS, stats.certs_dropped as f64);
        let rmt = layers.time(DECIDE_RMT, || engine.decide_rmt_observed(&reg));
        let zpp = layers.time(DECIDE_ZPP, || engine.decide_zpp_observed(&reg));
        for name in COUNTERS {
            layers.count(name, reg.counter(name).get() as f64);
        }
        (rmt, zpp)
    }

    /// Replays every chain on a plain graph and compares each answer with
    /// the from-scratch anchored deciders on the same graph, timing them
    /// as the reference. Segments revisit graphs (on the way back, and on
    /// every pass), so each distinct graph is decided from scratch once.
    fn check(&self, ops: &[Op], outs: &[Result<Out, String>]) -> Vec<Checked> {
        let mut graphs: Vec<Graph> = self.chains.iter().map(|c| c.start.clone()).collect();
        let mut reference: HashMap<(usize, Vec<Edge>), (Out, u64)> = HashMap::new();
        ops.iter()
            .zip(outs)
            .map(|(op, out)| {
                let g = &mut graphs[op.chain];
                apply_to(g, &op.delta);
                let mut edges: Vec<_> = g.edges().collect();
                edges.sort_unstable();
                let (fresh, reference_ns) =
                    reference.entry((op.chain, edges)).or_insert_with(|| {
                        let start = Instant::now();
                        let inst = Instance::new(
                            g.clone(),
                            self.chains[op.chain].structure.clone(),
                            ViewKind::AdHoc,
                            NodeId::new(0),
                            NodeId::new((N / 2) as u32),
                        )
                        .expect("edge toggles keep the instance well-formed");
                        let fresh = (
                            find_rmt_cut_anchored(&inst),
                            zpp_cut_by_enumeration_anchored(&inst),
                        );
                        (fresh, elapsed_ns(start))
                    });
                Checked {
                    panicked: out.is_err(),
                    wrong: out.as_ref().is_ok_and(|got| got != fresh),
                    delivered: u64::from(out.as_ref().is_ok_and(|got| got == fresh)),
                    deliverable: 1,
                    reference_ns: *reference_ns,
                    ..Checked::default()
                }
            })
            .collect()
    }

    fn layer_metrics(pass: &TracedPass) -> Vec<Metric> {
        let mut out: Vec<Metric> = [APPLY, DECIDE_RMT, DECIDE_ZPP]
            .iter()
            .map(|&l| (l, pass.ms_per_op(l), "ms"))
            .collect();
        for name in [PARTS, CERTS].into_iter().chain(COUNTERS) {
            out.push((name, pass.per_op(name), "count/op"));
        }
        let mut reference: Vec<u64> = pass.checked.iter().map(|c| c.reference_ns).collect();
        let mut incremental = pass.plain_samples_ns.to_vec();
        let speedup =
            quantile(&mut reference, 0.5) as f64 / quantile(&mut incremental, 0.5).max(1) as f64;
        out.push(("core.engine.speedup_vs_scratch", speedup, "ratio"));
        out
    }
}
