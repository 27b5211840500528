//! The rmt benchmark: three fixed-work workloads, closed loop, one client,
//! one thread.
//!
//! ```text
//! cargo run --release --manifest-path rmtperf/Cargo.toml -- \
//!     --workload pka_honest --seed 1 --seconds 25 --trace 0
//! ```
//!
//! With `--trace 0` it runs the named workload untraced and prints its
//! end-to-end metrics, with every timing scaled to the reference speed of
//! [`Gauge`]. With `--trace 1` it runs every workload twice over
//! the same operation list, plainly and through the tracing wrappers, and
//! prints the per-layer metrics (each layer belongs to one workload, so the
//! traced run covers them all). Either way the last line of standard
//! output is one JSON object; a human-readable report goes to standard
//! error. See `NOTES.md` for the choice of workloads and metrics.

mod churn;
mod harness;
mod layers;
mod pka_honest;
mod session_attack;
mod workload;

#[cfg(test)]
mod tests;

use churn::FeasibilityChurn;
use harness::{
    elapsed_ns, ms, peak_rss_mib, quantile, quantile_f64, timed_pass, Checked, Gauge, Pass,
};
use layers::Layers;
use pka_honest::PkaHonest;
use session_attack::SessionAttack;
use workload::{ops_for, Metric, TracedPass, Workload};

/// Set-ups per run: one before the timed pass and the rest spread evenly
/// through it, so that they meet the same phases of machine speed as the
/// operations and the gauge.
const SETUP_REPS: usize = 11;

/// An operation or set-up is scaled to reference speed by the median of
/// the gauge ticks within this many ticks of it.
const GAUGE_HALF: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} is outside (0, 600]", args.seconds));
    }
    if ![PkaHonest::NAME, SessionAttack::NAME, FeasibilityChurn::NAME]
        .contains(&args.workload.as_str())
    {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Aggregates over one pass's checked outcomes.
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    delivered: u64,
    deliverable: u64,
    wire_bits: u64,
    msgs: u64,
}

impl Tally {
    fn of(checked: &[Checked]) -> Tally {
        Tally {
            attempted: checked.len() as u64,
            failed: checked.iter().filter(|c| c.failed()).count() as u64,
            wrong: checked.iter().filter(|c| c.wrong).count() as u64,
            delivered: checked.iter().map(|c| c.delivered).sum(),
            deliverable: checked.iter().map(|c| c.deliverable).sum(),
            wire_bits: checked.iter().map(|c| c.wire_bits).sum(),
            msgs: checked.iter().map(|c| c.msgs).sum(),
        }
    }

    fn per_delivery(&self, x: u64) -> f64 {
        x as f64 / self.delivered.max(1) as f64
    }
}

/// One set-up (building the state and operation list, then the warm-up)
/// and its wall time in nanoseconds.
fn set_up<W: Workload>(seed: u64, ops: usize) -> (u64, W, Vec<W::Op>) {
    let start = std::time::Instant::now();
    let (mut w, list) = W::setup(seed, ops);
    w.warm_up();
    (elapsed_ns(start), w, list)
}

/// One untraced run of `W`: the end-to-end metrics.
fn end_to_end<W: Workload>(args: &Args) -> (Tally, Vec<Metric>) {
    let ops = ops_for::<W>(args.seconds, harness::MIN_OPS);
    let (first_setup_ns, mut w, list) = set_up::<W>(args.seed, ops);
    // The gauge ticks after every operation, and each operation and set-up
    // is scaled to reference speed by the gauge around it. The other
    // set-ups are made and dropped between operations; the one being timed
    // keeps running.
    let mut gauge = Gauge::new();
    let mut setups = vec![(first_setup_ns, 0)];
    let every = list.len().div_ceil(SETUP_REPS - 1);
    let pass = timed_pass(
        &list,
        |i| {
            gauge.tick();
            if i % every == every / 2 {
                setups.push((set_up::<W>(args.seed, ops).0, gauge.ticks()));
            }
        },
        |op| w.run(op, None),
    );
    let mut setup_ns: Vec<u64> = setups.iter().map(|s| s.0).collect();
    let mut setup_ref_s: Vec<f64> = setups
        .iter()
        .map(|&(ns, at)| ns as f64 / gauge.median_ns_near(at, GAUGE_HALF) / 1e3)
        .collect();
    // Tick `i` follows operation `i`.
    let mut ref_ms: Vec<f64> = pass
        .samples_ns
        .iter()
        .enumerate()
        .map(|(i, &ns)| ns as f64 / gauge.median_ns_near(i, GAUGE_HALF))
        .collect();
    let checked = w.check(&list, &pass.outcomes);
    let tally = Tally::of(&checked);
    let mut samples = pass.samples_ns.clone();
    let (p50, p90) = (quantile(&mut samples, 0.5), quantile(&mut samples, 0.9));
    // The ops' own time: the pass's total less the gauge's ticks and the
    // extra set-ups.
    let busy_ns: u64 = pass.samples_ns.iter().sum();
    let busy_ref_s = ref_ms.iter().sum::<f64>() / 1e3;
    let beyond = samples.len() - 1 - harness::rank(samples.len(), 0.9);
    assert!(beyond >= harness::MIN_BEYOND, "p90 over too few samples");
    let metrics = vec![
        ("setup_s", quantile_f64(&mut setup_ref_s, 0.5), "s"),
        ("op_p50_ref_ms", quantile_f64(&mut ref_ms, 0.5), "ms"),
        ("op_p90_ref_ms", quantile_f64(&mut ref_ms, 0.9), "ms"),
        (
            "goodput_per_ref_s",
            tally.delivered as f64 / busy_ref_s,
            "1/s",
        ),
        (
            "ok_share",
            1.0 - tally.failed as f64 / tally.attempted as f64,
            "share",
        ),
        (
            "delivered_share",
            tally.delivered as f64 / tally.deliverable.max(1) as f64,
            "share",
        ),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];
    eprintln!(
        "{}: {} ops ({} samples, p90 leaves {} beyond), {} failed ({} wrong), \
         {:.1} wire bits and {:.2} msgs per delivery; measured: {} set-ups, median {:.4} s, \
         p50 {:.3} ms, p90 {:.3} ms, goodput {:.2}/s over {:.3} s busy; \
         gauge median {:.4} ms over {} ticks",
        W::NAME,
        tally.attempted,
        samples.len(),
        beyond,
        tally.failed,
        tally.wrong,
        tally.per_delivery(tally.wire_bits),
        tally.per_delivery(tally.msgs),
        setup_ns.len(),
        ms(quantile(&mut setup_ns, 0.5)) / 1e3,
        ms(p50),
        ms(p90),
        tally.delivered as f64 / (busy_ns as f64 / 1e9),
        busy_ns as f64 / 1e9,
        ms(gauge.median_ns() as u64),
        gauge.ticks(),
    );
    report_panics(W::NAME, &pass);
    (tally, metrics)
}

fn report_panics<O>(name: &str, pass: &Pass<O>) {
    let mut seen = std::collections::BTreeMap::<String, usize>::new();
    for e in pass.outcomes.iter().filter_map(|o| o.as_ref().err()) {
        let head: String = e.chars().take(100).collect();
        *seen.entry(head).or_default() += 1;
    }
    for (msg, n) in seen {
        eprintln!("{name}: {n} op(s) panicked: {msg}");
    }
}

/// A traced run of `W`: an untraced pass and a traced pass over the same
/// operation list (each on its own fresh set-up), the outcomes of the
/// traced pass compared with the untraced ones, and the per-layer metrics.
fn traced<W: Workload>(args: &Args) -> (Tally, Vec<(String, f64, &'static str)>)
where
    W::Out: PartialEq,
{
    // Two passes for each of three workloads share the run's seconds. The
    // traced run reports no quantiles, so it needs no operation floor.
    let ops = ops_for::<W>(args.seconds / 6.0, 1);
    let (_, mut plain_w, list) = set_up::<W>(args.seed, ops);
    let plain = timed_pass(&list, |_| {}, |op| plain_w.run(op, None));
    let (_, mut traced_w, _) = set_up::<W>(args.seed, ops);
    let layers = Layers::new();
    let traced = timed_pass(&list, |_| {}, |op| traced_w.run(op, Some(&layers)));
    let mut checked = plain_w.check(&list, &plain.outcomes);
    // The wrappers must be transparent: any traced outcome that differs
    // from the untraced one is a wrong result.
    for (c, (a, b)) in checked
        .iter_mut()
        .zip(plain.outcomes.iter().zip(&traced.outcomes))
    {
        c.wrong |= a != b;
    }
    let tally = Tally::of(&checked);
    let pass = TracedPass {
        layers: &layers,
        ops: list.len(),
        traced_ns: traced.samples_ns.iter().sum(),
        plain_samples_ns: &plain.samples_ns,
        checked: &checked,
    };
    let mut metrics: Vec<(String, f64, &'static str)> = W::layer_metrics(&pass)
        .into_iter()
        .map(|(n, v, u)| (n.to_string(), v, u))
        .collect();
    let prefix = W::NAME;
    metrics.push((
        format!("trace.{prefix}.op_mean_ms"),
        ms(pass.traced_ns) / list.len() as f64,
        "ms",
    ));
    // Traced time over untraced time for the same work: the untraced
    // goodput divided by the traced goodput.
    metrics.push((
        format!("trace.{prefix}.overhead"),
        traced.total_ns as f64 / plain.total_ns.max(1) as f64,
        "ratio",
    ));
    if tally.wire_bits > 0 {
        metrics.push((
            format!("{prefix}.wire_bits_per_delivery"),
            tally.per_delivery(tally.wire_bits),
            "bits",
        ));
        metrics.push((
            format!("{prefix}.msgs_per_delivery"),
            tally.per_delivery(tally.msgs),
            "count",
        ));
    }
    eprintln!(
        "{}: traced {} ops, {} failed ({} wrong or not transparent)",
        W::NAME,
        tally.attempted,
        tally.failed,
        tally.wrong
    );
    report_panics(W::NAME, &plain);
    (tally, metrics)
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rmtperf: {e}");
            eprintln!("usage: rmtperf --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    // Everything runs on this one thread; the parallel deciders would read
    // the pool size from here if any path reached them.
    std::env::set_var("RMT_THREADS", "1");
    harness::quiet_panics_in_ops();
    let threads = rmt_par::configured_threads();
    eprintln!(
        "rmtperf: workload {} seed {} seconds {} trace {} threads {threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let (tallies, metrics) = if args.trace {
        let mut tallies = Vec::new();
        let mut metrics = Vec::new();
        for (t, m) in [
            traced::<PkaHonest>(&args),
            traced::<SessionAttack>(&args),
            traced::<FeasibilityChurn>(&args),
        ] {
            tallies.push(t);
            metrics.extend(m);
        }
        (tallies, metrics)
    } else {
        let (tally, m) = match args.workload.as_str() {
            PkaHonest::NAME => end_to_end::<PkaHonest>(&args),
            SessionAttack::NAME => end_to_end::<SessionAttack>(&args),
            _ => end_to_end::<FeasibilityChurn>(&args),
        };
        let m = m
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect();
        (vec![tally], m)
    };
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<48} {value:>16.6} {unit}");
    }
    let attempted = tallies.iter().map(|t| t.attempted).sum();
    let failed = tallies.iter().map(|t| t.failed).sum();
    let wrong: u64 = tallies.iter().map(|t| t.wrong).sum();
    println!("{}", json_line(wrong == 0, attempted, failed, &metrics));
}
