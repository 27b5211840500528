//! `session_attack`: batch-16 `Session`s over `rmt_net::NetRunner` under
//! Byzantine attack and a lossless fault plan.
//!
//! Instances of experiment E2's family (n = 9, ad hoc views), each paired
//! with its first worst-case corruption and every attack of `PKA_ATTACKS`,
//! lifted to frames by `SessionAdversary`. Links delay, duplicate and
//! reorder but never drop. The receiver's decide cache answers most slot
//! decisions, so the time goes to relaying, the frame codec, the fault
//! scheduler and the attackers' floods.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use rand::Rng;
use rmt_core::protocols::attacks::{pka_adversary, PkaAttack, PKA_ATTACKS};
use rmt_core::sampling::random_instance_nonadjacent;
use rmt_core::{Instance, Value};
use rmt_graph::generators::seeded;
use rmt_graph::{Graph, ViewKind};
use rmt_net::{FaultPlan, LinkPolicy, NetRunner};
use rmt_session::{
    ReceiverStats, Session, SessionAdversary, SessionFrame, SessionNode, SessionPlan,
};
use rmt_sets::NodeSet;
use rmt_sim::{Adversary, Envelope, Metrics, RoundInboxes, WirePayload};

use crate::harness::{elapsed_ns, ms, Checked};
use crate::layers::{Layers, TimedAdversary, TimedNode};
use crate::workload::{input_rng, Metric, TracedPass, Workload};

const N: usize = 9;
const BATCH: usize = 16;
/// Instances drawn from E2's sampler; those whose structure admits no
/// corruption outside the endpoints are skipped (there is nothing to
/// attack with).
const INSTANCES: usize = 16;
/// Seed of the first instance; instance `k` replays E2's sampler from
/// `POOL_SEED + k`.
const POOL_SEED: u64 = 0xE2_0000;

/// Delayed, duplicated and reordered, never lost.
/// Seed of the one fault plan every session runs under. Fault draws are
/// keyed by message coordinates, so a cell meets the same faults whatever
/// the values it carries.
const FAULT_SEED: u64 = 0xFA_0117;

const LINKS: LinkPolicy = LinkPolicy {
    drop: 0.0,
    delay: 0.1,
    max_delay: 2,
    duplicate: 0.05,
    reorder: true,
};

/// The most trail-table rows and entries an operation may deliver in
/// total before it is abandoned as a failure. Some attacks amplify without
/// bound once delays stretch the round cap; an operation past this budget
/// would otherwise run for minutes and exhaust the machine's memory.
const TRAFFIC_BUDGET: u64 = 1 << 20;

const RELAY: &str = "session.engine.relay_ms";
const RECEIVER: &str = "session.engine.receiver_ms";
const NODE_BUILD: &str = "session.engine.node_build_ms";
const ENCODE: &str = "session.codec.encode_ms";
const DECODE: &str = "session.codec.decode_ms";
const EXPAND: &str = "session.codec.expand_ms";
const ADVERSARY: &str = "attack.adversary_ms";
const HITS: &str = "session.decide_cache_hits";
const MISSES: &str = "session.decide_cache_misses";
const WIRE_BITS: &str = "session.wire_bits";
const MODEL_BITS: &str = "session.model_bits";
const DELAYED: &str = "net.faults.delayed";
const DUPLICATED: &str = "net.faults.duplicated";

/// One session: which (instance, attack) cell, and the slot values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    /// Index into the cell pool (instance-major, attack-minor).
    pub cell: usize,
    /// One dealer value per payload slot.
    pub values: Vec<Value>,
}

/// What the checker needs from one session.
#[derive(Debug, PartialEq)]
pub struct Out {
    verdicts: Vec<Option<Value>>,
    wire: Metrics,
}

struct Target {
    inst: Instance,
    plan: SessionPlan,
    corrupted: NodeSet,
}

/// The instance pool with its precomputed session plans.
pub struct SessionAttack {
    targets: Vec<Target>,
    warm_up: Op,
}

impl SessionAttack {
    /// One inner adversary per slot, each told its slot's value; the
    /// randomized attacks are seeded by the cell, so a cell is the same
    /// attack in every pass.
    fn adversary(target: &Target, attack: PkaAttack, op: &Op) -> SessionAdversary {
        let slots = op
            .values
            .iter()
            .map(|&v| {
                pka_adversary(
                    &target.inst,
                    v,
                    target.corrupted.clone(),
                    attack,
                    op.cell as u64,
                )
            })
            .collect();
        SessionAdversary::new(slots)
    }
}

impl Workload for SessionAttack {
    const NAME: &'static str = "session_attack";
    const NOMINAL_OPS_PER_S: f64 = 6.0;
    const POOL: usize = INSTANCES * PKA_ATTACKS.len();

    type Op = Op;
    type Out = Out;

    fn setup(seed: u64, ops: usize) -> (Self, Vec<Op>) {
        let targets = (POOL_SEED..)
            .map(|s| random_instance_nonadjacent(N, 0.35, ViewKind::AdHoc, 3, 2, &mut seeded(s)))
            .filter_map(|inst| {
                let corrupted = inst.worst_case_corruptions().into_iter().next()?;
                let plan = SessionPlan::build(&inst);
                Some(Target {
                    inst,
                    plan,
                    corrupted,
                })
            })
            .take(INSTANCES)
            .collect();
        let mut rng = input_rng(seed, 0x5E);
        let mut op = |cell| Op {
            cell,
            values: (0..BATCH).map(|_| rng.random_range(0..u64::MAX)).collect(),
        };
        // A flip-value session on the second instance: a few tens of
        // milliseconds, where the first cell would be a 1 ms measurement.
        let warm_up = op(PKA_ATTACKS.len() + 1);
        let list = crate::workload::shuffled_cycles(Self::POOL, ops, &mut input_rng(seed, 0x5F))
            .into_iter()
            .map(op)
            .collect();
        (SessionAttack { targets, warm_up }, list)
    }

    fn warm_up(&mut self) {
        let op = self.warm_up.clone();
        self.run(&op, None);
    }

    fn run(&mut self, op: &Op, layers: Option<&Rc<Layers>>) -> Out {
        let target = &self.targets[op.cell / PKA_ATTACKS.len()];
        let attack = PKA_ATTACKS[op.cell % PKA_ATTACKS.len()];
        let faults = FaultPlan::new(FAULT_SEED).with_default_policy(LINKS);
        let adversary = Self::adversary(target, attack, op);
        let Some(layers) = layers else {
            let report = Session::new(&target.plan, op.values.clone())
                .run_over_net(Guard::new(adversary), faults);
            return Out {
                verdicts: report.verdicts,
                wire: report.wire,
            };
        };
        let plan = &target.plan;
        let out = NetRunner::new(
            plan.graph().clone(),
            |v| {
                let node = layers.time(NODE_BUILD, || SessionNode::new(plan, v, &op.values));
                let layer = if v == plan.receiver() {
                    RECEIVER
                } else {
                    RELAY
                };
                TimedNode::new(node, layer, layers.clone(), frame_codec)
            },
            Guard::new(TimedAdversary::new(adversary, ADVERSARY, layers.clone())),
            faults,
        )
        .run();
        let mut model_bits = 0u64;
        let mut verdicts = Vec::new();
        let mut stats = ReceiverStats::default();
        for v in plan.graph().nodes() {
            let Some(node) = out.protocol(v) else {
                continue;
            };
            model_bits += node.inner.model_sent().iter().map(|&(_, b)| b).sum::<u64>();
            if v == plan.receiver() {
                verdicts = node.inner.receiver_verdicts().unwrap_or_default();
                stats = node.inner.receiver_stats().unwrap_or_default();
            }
        }
        layers.count(DELAYED, out.faults.delayed as f64);
        layers.count(DUPLICATED, out.faults.duplicated as f64);
        layers.count(HITS, stats.decide_cache_hits as f64);
        layers.count(MISSES, stats.decide_cache_misses as f64);
        layers.count(WIRE_BITS, out.metrics.honest_bits as f64);
        layers.count(MODEL_BITS, model_bits as f64);
        Out {
            verdicts,
            wire: out.metrics,
        }
    }

    fn check(&self, ops: &[Op], outs: &[Result<Out, String>]) -> Vec<Checked> {
        ops.iter()
            .zip(outs)
            .map(|(op, out)| {
                let deliverable = op.values.len() as u64;
                let Ok(out) = out else {
                    return Checked {
                        panicked: true,
                        deliverable,
                        ..Checked::default()
                    };
                };
                let wrong = out.verdicts.len() != op.values.len()
                    || out
                        .verdicts
                        .iter()
                        .zip(&op.values)
                        .any(|(got, sent)| got.is_some_and(|x| x != *sent));
                Checked {
                    wrong,
                    delivered: out
                        .verdicts
                        .iter()
                        .zip(&op.values)
                        .filter(|(got, sent)| **got == Some(**sent))
                        .count() as u64,
                    deliverable,
                    wire_bits: out.wire.honest_bits,
                    msgs: out.wire.honest_messages,
                    ..Checked::default()
                }
            })
            .collect()
    }

    fn layer_metrics(pass: &TracedPass) -> Vec<Metric> {
        let timed = [RELAY, RECEIVER, ENCODE, DECODE, EXPAND, ADVERSARY];
        let inside: u64 = timed
            .iter()
            .chain(&[NODE_BUILD])
            .map(|l| pass.layers.ns(l))
            .sum();
        let mut out: Vec<Metric> = timed
            .iter()
            .map(|&l| (l, pass.ms_per_op(l), "ms"))
            .collect();
        let self_ns = pass.traced_ns.saturating_sub(inside);
        out.push(("net.runner.self_ms", ms(self_ns) / pass.ops as f64, "ms"));
        let (hits, misses) = (pass.layers.total(HITS), pass.layers.total(MISSES));
        out.push((
            "session.engine.decide_cache_hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        ));
        let model_bits = pass.layers.total(MODEL_BITS).max(1.0);
        out.push((
            "session.wire_model_ratio",
            pass.layers.total(WIRE_BITS) / model_bits,
            "ratio",
        ));
        for name in [DELAYED, DUPLICATED] {
            out.push((name, pass.per_op(name), "count/op"));
        }
        out
    }
}

/// Encodes, decodes and expands every delivered frame, each timed as its
/// own codec layer.
fn frame_codec(layers: &Layers, inbox: &[Envelope<SessionFrame>]) {
    for env in inbox {
        let start = Instant::now();
        let bytes = env.payload.to_bytes();
        let encoded = Instant::now();
        black_box(SessionFrame::decode(&bytes).expect("an encoded frame decodes"));
        let decoded = Instant::now();
        black_box(env.payload.expand().expect("an honest frame expands"));
        layers.add_ns(ENCODE, (encoded - start).as_nanos() as u64);
        layers.add_ns(DECODE, (decoded - encoded).as_nanos() as u64);
        layers.add_ns(EXPAND, elapsed_ns(decoded));
    }
}

/// Bounds an operation's traffic: panics (failing the operation) once the
/// frames delivered across the network carry more than [`TRAFFIC_BUDGET`]
/// trail-table rows and entries in total. It sees every delivered frame,
/// as any full-information adversary does, and otherwise delegates.
pub struct Guard<A> {
    inner: A,
    delivered: u64,
}

impl<A> Guard<A> {
    fn new(inner: A) -> Self {
        Guard {
            inner,
            delivered: 0,
        }
    }
}

impl<A: Adversary<SessionFrame>> Adversary<SessionFrame> for Guard<A> {
    fn corrupted(&self) -> &NodeSet {
        self.inner.corrupted()
    }

    fn start(&mut self, graph: &Graph) -> Vec<Envelope<SessionFrame>> {
        self.inner.start(graph)
    }

    fn on_round(
        &mut self,
        round: u32,
        graph: &Graph,
        delivered: &RoundInboxes<SessionFrame>,
    ) -> Vec<Envelope<SessionFrame>> {
        for v in graph.nodes() {
            self.delivered += delivered
                .inbox(v)
                .iter()
                .map(|e| (e.payload.trails.len() + e.payload.entries.len()) as u64)
                .sum::<u64>();
        }
        assert!(
            self.delivered <= TRAFFIC_BUDGET,
            "traffic budget exceeded at round {round}: {} trail rows and entries delivered",
            self.delivered
        );
        self.inner.on_round(round, graph, delivered)
    }

    fn is_quiescent(&self) -> bool {
        self.inner.is_quiescent()
    }
}
