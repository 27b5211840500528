//! The interface every workload implements, and the fixed-work sizing rule.

use rand::Rng;
use rand_chacha::ChaCha12Rng;
use rmt_graph::generators::seeded;

use crate::harness::Checked;
use crate::layers::Layers;

/// One benchmark workload: a fixed operation list made from a seed, a way
/// to run one operation (plainly or through the tracing wrappers), and a
/// checker that judges every outcome after the timed pass.
pub trait Workload: Sized {
    /// The name `--workload` selects.
    const NAME: &'static str;
    /// Operations per second of wall time the list is sized by: a run of
    /// `--seconds s` replays `ops_for(s)` operations, whatever the
    /// machine's speed (fixed work, never a time-boxed loop).
    const NOMINAL_OPS_PER_S: f64;
    /// Operations in one pass over the fixed pool (instances, attack cells
    /// or walk segments); operation counts are whole multiples of it so
    /// every seed covers every pool entry equally.
    const POOL: usize;

    /// One operation's input.
    type Op;
    /// One operation's result, as the checker needs it.
    type Out;

    /// Builds the program state (instances, plans or engines) and `ops`
    /// timed operations, all from `seed`.
    fn setup(seed: u64, ops: usize) -> (Self, Vec<Self::Op>);

    /// The warm-up: work done once before the timed pass (counted in
    /// set-up time, excluded from the samples).
    fn warm_up(&mut self);

    /// Runs one operation. With `layers` the run goes through the
    /// tracing wrappers and charges each layer's time there.
    fn run(&mut self, op: &Self::Op, layers: Option<&std::rc::Rc<Layers>>) -> Self::Out;

    /// Judges every outcome of a pass over `ops`, in order. Runs outside
    /// the timed section.
    fn check(&self, ops: &[Self::Op], outs: &[Result<Self::Out, String>]) -> Vec<Checked>;

    /// Folds a traced pass's totals into per-layer metrics.
    fn layer_metrics(pass: &TracedPass) -> Vec<Metric>;
}

/// A named metric with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a workload's per-layer metrics are computed from.
pub struct TracedPass<'a> {
    /// The totals the wrappers recorded.
    pub layers: &'a Layers,
    /// Operations in the pass.
    pub ops: usize,
    /// Sum of the traced operations' wall times, in nanoseconds.
    pub traced_ns: u64,
    /// The untraced pass's samples over the same operation list.
    pub plain_samples_ns: &'a [u64],
    /// The checker's verdicts on the untraced pass.
    pub checked: &'a [Checked],
}

impl TracedPass<'_> {
    /// Milliseconds per operation recorded under `layer`.
    pub fn ms_per_op(&self, layer: &str) -> f64 {
        crate::harness::ms(self.layers.ns(layer)) / self.ops as f64
    }

    /// Counter `name` per operation.
    pub fn per_op(&self, name: &str) -> f64 {
        self.layers.total(name) / self.ops as f64
    }
}

/// The number of timed operations for a run of `seconds`: at least
/// `min_ops`, rounded up to a whole number of passes over the pool.
pub fn ops_for<W: Workload>(seconds: f64, min_ops: usize) -> usize {
    let wanted = ((seconds * W::NOMINAL_OPS_PER_S).ceil() as usize).max(min_ops.max(1));
    wanted.div_ceil(W::POOL) * W::POOL
}

/// The generator for a workload's inputs: a function of the run's seed and
/// a per-workload salt, so workloads sharing a seed draw independent lists.
pub fn input_rng(seed: u64, salt: u64) -> ChaCha12Rng {
    seeded(seed ^ salt.rotate_left(32))
}

/// `ops / pool` back-to-back passes over `0..pool`, each in its own seeded
/// order, so every pool entry appears equally often whatever the seed.
pub fn shuffled_cycles(pool: usize, ops: usize, rng: &mut ChaCha12Rng) -> Vec<usize> {
    assert_eq!(
        ops % pool,
        0,
        "operation counts are whole passes over the pool"
    );
    let mut out = Vec::with_capacity(ops);
    for _ in 0..ops / pool {
        let mut cycle: Vec<usize> = (0..pool).collect();
        for i in (1..pool).rev() {
            cycle.swap(i, rng.random_range(0..=i));
        }
        out.extend(cycle);
    }
    out
}
