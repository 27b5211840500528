//! The benchmark's own checks: the tracing wrappers change nothing the
//! checker sees, and an operation list is a function of its seed.

use crate::churn::FeasibilityChurn;
use crate::layers::Layers;
use crate::pka_honest::PkaHonest;
use crate::session_attack::SessionAttack;
use crate::workload::Workload;

/// Runs the first `n` operations of `W`'s list plainly and traced, each on
/// its own fresh set-up, and asserts every outcome is identical.
fn assert_transparent<W: Workload>(n: usize)
where
    W::Out: PartialEq + std::fmt::Debug,
{
    let (mut plain, list) = W::setup(7, W::POOL);
    let (mut traced, _) = W::setup(7, W::POOL);
    let layers = Layers::new();
    for op in &list[..n] {
        let a = plain.run(op, None);
        let b = traced.run(op, Some(&layers));
        assert_eq!(a, b, "{}: traced outcome differs", W::NAME);
    }
}

#[test]
fn pka_wrappers_keep_verdicts_and_metrics() {
    assert_transparent::<PkaHonest>(6);
}

#[test]
fn session_wrappers_keep_verdicts_and_metrics() {
    // Out of the list's order: the silent, flip-value and fictitious-
    // topology cells of the first two instances (cheap in a debug build).
    let (mut plain, list) = SessionAttack::setup(7, SessionAttack::POOL);
    let (mut traced, _) = SessionAttack::setup(7, SessionAttack::POOL);
    let layers = Layers::new();
    let cheap = [0, 1, 3, 5, 6, 8];
    for op in list.iter().filter(|op| cheap.contains(&op.cell)) {
        assert_eq!(
            plain.run(op, None),
            traced.run(op, Some(&layers)),
            "cell {}",
            op.cell
        );
    }
    assert!(layers.ns("session.engine.receiver_ms") > 0);
    assert!(layers.ns("attack.adversary_ms") > 0);
}

#[test]
fn churn_observed_calls_keep_witnesses() {
    assert_transparent::<FeasibilityChurn>(12);
}

fn assert_deterministic<W: Workload>()
where
    W::Op: PartialEq + std::fmt::Debug,
{
    let ops = 2 * W::POOL;
    let (_, a) = W::setup(11, ops);
    let (_, b) = W::setup(11, ops);
    let (_, c) = W::setup(12, ops);
    assert_eq!(a.len(), ops);
    assert_eq!(a, b, "{}: same seed, different list", W::NAME);
    assert_ne!(a, c, "{}: the seed does not reach the list", W::NAME);
}

#[test]
fn op_lists_are_a_function_of_the_seed() {
    assert_deterministic::<PkaHonest>();
    assert_deterministic::<SessionAttack>();
    assert_deterministic::<FeasibilityChurn>();
}

#[test]
fn every_pool_entry_appears_equally_often() {
    let (_, list) = SessionAttack::setup(3, 3 * SessionAttack::POOL);
    for cell in 0..SessionAttack::POOL {
        assert_eq!(list.iter().filter(|op| op.cell == cell).count(), 3);
    }
}
