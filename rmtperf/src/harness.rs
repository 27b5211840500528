//! The workload-independent half of the benchmark: the closed-loop timed
//! phase, the speed gauge, the rank rule for quantiles, and process-level
//! measurements.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What the checker concluded about one operation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checked {
    /// The operation panicked (or overran its resource budget).
    pub panicked: bool,
    /// The operation delivered a value that was never sent, or disagreed
    /// with the reference decider.
    pub wrong: bool,
    /// Correct deliveries this operation made (transmissions, payload slots
    /// or deltas answered).
    pub delivered: u64,
    /// Deliveries this operation could have made.
    pub deliverable: u64,
    /// Honest wire bits the operation sent (0 where nothing is sent).
    pub wire_bits: u64,
    /// Honest messages (or frames) the operation sent.
    pub msgs: u64,
    /// Wall time of the checker's reference computation, where it has one.
    pub reference_ns: u64,
}

impl Checked {
    /// A failed operation counts against `failed_share`.
    pub fn failed(&self) -> bool {
        self.panicked || self.wrong
    }
}

/// The samples and outcomes of one timed pass over an operation list.
pub struct Pass<O> {
    /// Wall time of each operation, in nanoseconds, in list order.
    pub samples_ns: Vec<u64>,
    /// Each operation's result; `Err` holds the panic message.
    pub outcomes: Vec<Result<O, String>>,
    /// Wall time of the whole pass, `between` hooks included, in
    /// nanoseconds.
    pub total_ns: u64,
}

/// Runs `op` once per item in a closed loop (one client: the next call
/// starts when the previous one returned), timing each call from outside.
/// A panic is caught and kept as that operation's outcome; outcomes are
/// checked after the pass, never inside the timed section. `between(i)`
/// runs after operation `i`, outside its sample but inside the pass's
/// total.
pub fn timed_pass<T, O>(
    items: &[T],
    mut between: impl FnMut(usize),
    mut op: impl FnMut(&T) -> O,
) -> Pass<O> {
    let mut samples_ns = Vec::with_capacity(items.len());
    let mut outcomes = Vec::with_capacity(items.len());
    let pass_start = Instant::now();
    for (i, item) in items.iter().enumerate() {
        IN_OP.with(|f| f.set(true));
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| op(item)));
        samples_ns.push(elapsed_ns(start));
        IN_OP.with(|f| f.set(false));
        outcomes.push(outcome.map_err(panic_message));
        between(i);
    }
    let total_ns = elapsed_ns(pass_start);
    Pass {
        samples_ns,
        outcomes,
        total_ns,
    }
}

thread_local! {
    static IN_OP: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Keeps the default panic report for the benchmark's own code but
/// silences panics inside timed operations: those are caught, counted and
/// summarized, and printing each one would be timed with the operation.
pub fn quiet_panics_in_ops() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !IN_OP.with(|f| f.get()) {
            default(info);
        }
    }));
}

/// Measures how fast the machine runs right now, so that timings can be
/// reported at a fixed reference speed.
///
/// The benchmark's host is a 2-core VM on a shared machine whose speed
/// drifts by 20–50% over seconds to minutes, while the process is never
/// descheduled (its CPU time equals its wall time). No run is long enough
/// to average that out. The gauge times a fixed kernel of ordinary
/// library work (a sort, B-tree and hash-map inserts, small allocations;
/// 0.5–1 ms depending on the machine's speed) once after every operation.
/// Timed next to the program, those parts slowed down in step with it,
/// while a pure arithmetic loop and pointer chases through 8 and 64 MiB
/// tracked it poorly (NOTES.md has the figures).
///
/// A timing *at reference speed* is the measured time scaled so that the
/// kernel takes exactly 1 ms: `measured × 1 ms / median kernel time`,
/// with the median taken over the ticks around the timed work.
pub struct Gauge {
    state: u64,
    samples_ns: Vec<u64>,
}

impl Gauge {
    /// A gauge with no ticks yet.
    pub fn new() -> Gauge {
        Gauge {
            state: 0x9E37_79B9_7F4A_7C15,
            samples_ns: Vec::new(),
        }
    }

    /// Runs the kernel once and records its wall time.
    pub fn tick(&mut self) {
        use std::collections::{BTreeMap, HashMap};
        use std::hash::{BuildHasherDefault, DefaultHasher};

        let start = Instant::now();
        let mut keys: Vec<u64> = (0..4096).map(|_| xorshift(&mut self.state)).collect();
        keys.sort_unstable();
        let mut tree = BTreeMap::new();
        let mut map = HashMap::<u64, usize, BuildHasherDefault<DefaultHasher>>::default();
        for (i, &k) in keys.iter().step_by(2).enumerate() {
            tree.insert(k % 100_000, i);
            map.insert(k, i);
        }
        let found = keys.iter().filter(|k| map.contains_key(k)).count();
        let mut held = Vec::with_capacity(64);
        for &k in &keys[..2048] {
            let len = 16 + (k % 1000) as usize;
            held.push(vec![k as u8; len]);
            if held.len() == held.capacity() {
                held.clear();
            }
        }
        let work = tree.len() ^ found ^ held.len();
        self.state ^= std::hint::black_box(work as u64);
        self.samples_ns.push(elapsed_ns(start));
    }

    /// Ticks recorded so far.
    pub fn ticks(&self) -> usize {
        self.samples_ns.len()
    }

    /// The median kernel time so far, in nanoseconds.
    pub fn median_ns(&self) -> f64 {
        let mut s = self.samples_ns.clone();
        quantile(&mut s, 0.5) as f64
    }

    /// The median time of the ticks within `half` of tick number `at`, in
    /// nanoseconds: the machine's speed around that moment.
    pub fn median_ns_near(&self, at: usize, half: usize) -> f64 {
        let end = (at + half).min(self.samples_ns.len());
        let mut s = self.samples_ns[at.saturating_sub(half)..end].to_vec();
        quantile(&mut s, 0.5) as f64
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Nanoseconds since `start`, saturating at `u64::MAX`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The least number of samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// The smallest operation count for which the p90 keeps [`MIN_BEYOND`]
/// samples beyond it under [`rank`].
pub const MIN_OPS: usize = 100;

/// Nearest-rank index (0-based) of quantile `q` among `n` sorted samples:
/// the smallest index whose cumulative share reaches `q`.
pub fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "no samples");
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The nearest-rank quantile `q` of `samples` (which it sorts).
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    samples[rank(samples.len(), q)]
}

/// The nearest-rank quantile `q` of `values` (which it sorts).
pub fn quantile_f64(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    values[rank(values.len(), q)]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_leaves_at_least_ten_samples_beyond_it_from_the_minimum_op_count() {
        for n in MIN_OPS..=5_000 {
            let r = rank(n, 0.9);
            assert!(n - 1 - r >= MIN_BEYOND, "n = {n}: rank {r}");
        }
        // And the minimum is tight: one op fewer would break the rule.
        let n = MIN_OPS - 1;
        assert!(n - 1 - rank(n, 0.9) < MIN_BEYOND);
    }

    #[test]
    fn rank_is_the_nearest_rank() {
        assert_eq!(rank(1, 0.5), 0);
        assert_eq!(rank(4, 0.5), 1);
        assert_eq!(rank(5, 0.5), 2);
        assert_eq!(rank(100, 0.9), 89);
        let mut s: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(quantile(&mut s, 0.9), 9);
    }

    #[test]
    fn a_panicking_operation_is_kept_as_a_failed_outcome() {
        let pass = timed_pass(
            &[1u32, 0, 2],
            |_| {},
            |&x| {
                assert!(x != 0, "zero");
                x * 2
            },
        );
        assert_eq!(pass.samples_ns.len(), 3);
        assert_eq!(pass.outcomes[0], Ok(2));
        assert!(pass.outcomes[1].as_ref().unwrap_err().contains("zero"));
        assert_eq!(pass.outcomes[2], Ok(4));
    }

    #[test]
    fn the_gauge_ticks_once_per_operation_and_scales_by_its_median() {
        let mut gauge = Gauge::new();
        let pass = timed_pass(&[1u32, 2, 3], |_| gauge.tick(), |&x| x);
        assert_eq!(pass.outcomes.len(), 3);
        assert_eq!(gauge.ticks(), 3);
        let median = gauge.median_ns();
        assert!(median > 0.0);
        assert_eq!(gauge.median_ns_near(0, 1), gauge.samples_ns[0] as f64);
        assert_eq!(gauge.median_ns_near(3, 8), median);
    }
}
