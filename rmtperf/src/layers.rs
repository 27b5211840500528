//! Per-layer accounting for the traced run.
//!
//! The traced run times calls into each layer's public functions from the
//! benchmark's side of the boundary: wrapper [`Protocol`] and [`Adversary`]
//! types delegate every call to the wrapped value and add the call's wall
//! time to a named total. The untraced run never constructs them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use rmt_graph::Graph;
use rmt_sets::{NodeId, NodeSet};
use rmt_sim::{Adversary, Envelope, NodeContext, Payload, Protocol, RoundInboxes};

use crate::harness::elapsed_ns;

/// Named totals shared by the wrappers of one traced pass: nanoseconds per
/// layer and counts per counter.
#[derive(Debug, Default)]
pub struct Layers {
    ns: RefCell<BTreeMap<&'static str, u64>>,
    counts: RefCell<BTreeMap<&'static str, f64>>,
}

impl Layers {
    /// A fresh, shareable set of totals.
    pub fn new() -> Rc<Layers> {
        Rc::new(Layers::default())
    }

    /// Runs `f`, adding its wall time to `layer`.
    pub fn time<R>(&self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add_ns(layer, elapsed_ns(start));
        out
    }

    /// Adds `ns` nanoseconds to `layer`.
    pub fn add_ns(&self, layer: &'static str, ns: u64) {
        *self.ns.borrow_mut().entry(layer).or_default() += ns;
    }

    /// Adds `n` to counter `name`.
    pub fn count(&self, name: &'static str, n: f64) {
        *self.counts.borrow_mut().entry(name).or_default() += n;
    }

    /// Total nanoseconds recorded under `layer`.
    pub fn ns(&self, layer: &str) -> u64 {
        self.ns.borrow().get(layer).copied().unwrap_or(0)
    }

    /// Total recorded under counter `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.counts.borrow().get(name).copied().unwrap_or(0.0)
    }
}

/// A protocol node whose calls are timed under a layer chosen per node.
pub struct TimedNode<Q: Protocol> {
    /// The wrapped node.
    pub inner: Q,
    layer: &'static str,
    layers: Rc<Layers>,
    /// Called on each delivered inbox before the node sees it, so the
    /// wrapper can time codec work on exactly the payloads delivered.
    on_inbox: fn(&Layers, &[Envelope<Q::Payload>]),
}

impl<Q: Protocol> TimedNode<Q> {
    /// Wraps `inner`, charging its `start`/`on_round` time to `layer`.
    pub fn new(
        inner: Q,
        layer: &'static str,
        layers: Rc<Layers>,
        on_inbox: fn(&Layers, &[Envelope<Q::Payload>]),
    ) -> Self {
        TimedNode {
            inner,
            layer,
            layers,
            on_inbox,
        }
    }
}

impl<Q: Protocol> Protocol for TimedNode<Q> {
    type Payload = Q::Payload;
    type Decision = Q::Decision;

    fn start(&mut self, ctx: &NodeContext) -> Vec<(NodeId, Q::Payload)> {
        let inner = &mut self.inner;
        self.layers.time(self.layer, || inner.start(ctx))
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext,
        inbox: &[Envelope<Q::Payload>],
    ) -> Vec<(NodeId, Q::Payload)> {
        (self.on_inbox)(&self.layers, inbox);
        let inner = &mut self.inner;
        self.layers.time(self.layer, || inner.on_round(ctx, inbox))
    }

    fn decision(&self) -> Option<Q::Decision> {
        self.inner.decision()
    }

    fn is_terminated(&self) -> bool {
        self.inner.is_terminated()
    }
}

/// An adversary whose calls are timed under `layer`.
pub struct TimedAdversary<A> {
    inner: A,
    layer: &'static str,
    layers: Rc<Layers>,
}

impl<A> TimedAdversary<A> {
    /// Wraps `inner`, charging its `start`/`on_round` time to `layer`.
    pub fn new(inner: A, layer: &'static str, layers: Rc<Layers>) -> Self {
        TimedAdversary {
            inner,
            layer,
            layers,
        }
    }
}

impl<P: Payload, A: Adversary<P>> Adversary<P> for TimedAdversary<A> {
    fn corrupted(&self) -> &NodeSet {
        self.inner.corrupted()
    }

    fn start(&mut self, graph: &Graph) -> Vec<Envelope<P>> {
        let inner = &mut self.inner;
        self.layers.time(self.layer, || inner.start(graph))
    }

    fn on_round(
        &mut self,
        round: u32,
        graph: &Graph,
        delivered: &RoundInboxes<P>,
    ) -> Vec<Envelope<P>> {
        let inner = &mut self.inner;
        self.layers
            .time(self.layer, || inner.on_round(round, graph, delivered))
    }

    fn is_quiescent(&self) -> bool {
        self.inner.is_quiescent()
    }
}
