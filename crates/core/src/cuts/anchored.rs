//! Separator-anchored cut search: the fast exact deciders.
//!
//! The exhaustive deciders scan all `2^(n-2)` subsets of `V∖{D,R}` even
//! though almost none of them are D–R cuts. This module searches the same
//! space through its *structure* instead:
//!
//! 1. **Only receiver components matter.** Both cut conditions
//!    (Definitions 3 and 7) are monotone in the cut for a fixed receiver
//!    component `B`: if any cut `C` with `comp_R(G∖C) = B` admits a
//!    partition, then so does the minimal one, `C = N(B)` (shrinking `C`
//!    shrinks every trace tested against the downward-closed structures).
//!    A cut therefore exists **iff** some valid component
//!    `B ∋ R` (connected, `D ∉ N[B]`) makes `N(B)` admissible.
//! 2. **Separator anchors partition the components.** Every valid `B` is
//!    charged to exactly one minimal D–R separator — the D-side
//!    minimalization `S*(B) = N(comp_D(G ∖ N(B))) ⊆ N(B)` — so scanning,
//!    per anchor `S` from [`rmt_graph::separators`], the connected subsets
//!    of `S`'s receiver-side region whose neighbourhood contains `S`
//!    visits every candidate exactly once, with no cross-anchor
//!    deduplication ([`rmt_graph::separators::scan_anchor`]). The anchors
//!    are independent, which is what the rmt-par twins parallelize over.
//! 3. **Everything is allocation-light.** Component extraction is masked
//!    BFS (no graph clones), and one [`KnowledgeCache`] per search holds
//!    every `𝒵_u` both partition checks read and memoizes `V(γ(B))` per
//!    component bitset.
//!
//! The searches are **budgeted**: if the separator enumeration or a
//! per-anchor component scan exceeds [`AnchorBudget`], the decider falls
//! back to the exhaustive scan — so the verdict is exact in every case,
//! and the exhaustive deciders remain the differential ground truth (see
//! `crates/core/tests/anchored_differential.rs`).
//!
//! Witnesses may differ from the exhaustive deciders' (the search order
//! differs), but they are always genuine: every returned witness verifies
//! via [`is_rmt_cut`](super::is_rmt_cut) / [`is_zpp_cut`](super::is_zpp_cut).

use rmt_graph::separators::{cut_anchors, scan_anchor, AnchorScan, CutAnchor};
use rmt_obs::{Counter, Registry};

use crate::instance::Instance;
use crate::knowledge::KnowledgeCache;

use super::rmt_cut::{admissible_partition, find_rmt_cut, find_rmt_cut_observed, RmtCutWitness};
use super::zpp::{zpp_admissible_partition, zpp_cut_by_enumeration, ZppCutWitness};

/// Budgets bounding the anchored search. Exceeding either one triggers the
/// exact exhaustive fallback (counted as `*.exhaustive_fallbacks`), so the
/// budgets trade speed, never correctness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnchorBudget {
    /// Maximum number of minimal D–R separators to enumerate.
    pub max_separators: usize,
    /// Maximum connected subsets emitted per anchor scan.
    pub max_components_per_anchor: u64,
}

impl Default for AnchorBudget {
    fn default() -> Self {
        AnchorBudget {
            max_separators: 4096,
            max_components_per_anchor: 1 << 20,
        }
    }
}

/// How scanning one anchor ended, when it did not simply run dry: either a
/// witness was found or the component budget overflowed (→ exhaustive
/// fallback). `None` from the scan helpers means "anchor exhausted, keep
/// going" — exactly the shape [`rmt_par::search_min`] wants, which is how
/// the sequential scan and the parallel twins stay witness-identical.
#[derive(Clone, Debug)]
pub(crate) enum AnchorOutcome<W> {
    /// A witness was found at this anchor.
    Witness(W),
    /// The per-anchor component budget ran out.
    Overflow,
}

/// The anchor list for an instance's D–R cut search. Endpoint adjacency
/// must be ruled out by the caller (no cut exists then).
pub(crate) fn instance_anchors(
    inst: &Instance,
    budget: &AnchorBudget,
) -> Result<Vec<CutAnchor>, rmt_graph::separators::SeparatorBudgetExceeded> {
    cut_anchors(
        inst.graph(),
        inst.dealer(),
        inst.receiver(),
        budget.max_separators,
    )
}

/// Scans one anchor for an RMT-cut witness; returns the outcome and the
/// number of connected subsets emitted (for the `components_enumerated`
/// counter).
pub(crate) fn scan_rmt_anchor(
    inst: &Instance,
    cache: &KnowledgeCache,
    anchor: &CutAnchor,
    budget: &AnchorBudget,
    partition_checks: Option<&Counter>,
) -> (Option<AnchorOutcome<RmtCutWitness>>, u64) {
    let mut found = None;
    let stats = scan_anchor(
        inst.graph(),
        anchor,
        inst.receiver(),
        budget.max_components_per_anchor,
        |b, cut| match admissible_partition(inst, cache, cut, b, partition_checks) {
            Some((c1, c2)) => {
                found = Some(RmtCutWitness {
                    cut: cut.clone(),
                    c1,
                    c2,
                    receiver_component: b.clone(),
                });
                false
            }
            None => true,
        },
    );
    let outcome = match stats.outcome {
        AnchorScan::Exhausted => None,
        AnchorScan::Stopped => Some(AnchorOutcome::Witness(
            found.expect("scan stops only on a witness"),
        )),
        AnchorScan::BudgetExceeded => Some(AnchorOutcome::Overflow),
    };
    (outcome, stats.emitted)
}

/// Scans one anchor for a 𝒵-pp-cut witness, reading every `𝒵_u` from
/// `cache`; same contract as [`scan_rmt_anchor`].
pub(crate) fn scan_zpp_anchor(
    inst: &Instance,
    cache: &KnowledgeCache,
    anchor: &CutAnchor,
    budget: &AnchorBudget,
    plausibility_checks: Option<&Counter>,
) -> (Option<AnchorOutcome<ZppCutWitness>>, u64) {
    let mut found = None;
    let stats = scan_anchor(
        inst.graph(),
        anchor,
        inst.receiver(),
        budget.max_components_per_anchor,
        |b, cut| match zpp_admissible_partition(inst, cache, cut, b, plausibility_checks) {
            Some((c1, c2)) => {
                found = Some(ZppCutWitness {
                    cut: cut.clone(),
                    c1,
                    c2,
                });
                false
            }
            None => true,
        },
    );
    let outcome = match stats.outcome {
        AnchorScan::Exhausted => None,
        AnchorScan::Stopped => Some(AnchorOutcome::Witness(
            found.expect("scan stops only on a witness"),
        )),
        AnchorScan::BudgetExceeded => Some(AnchorOutcome::Overflow),
    };
    (outcome, stats.emitted)
}

/// Separator-anchored RMT-cut search with the default [`AnchorBudget`]:
/// same verdict as [`find_rmt_cut`](super::find_rmt_cut), orders of
/// magnitude less work on instances beyond `n ≈ 14`.
///
/// # Example
///
/// ```
/// use rmt_core::{cuts, gallery};
/// use rmt_graph::ViewKind;
///
/// let inst = gallery::unsolvable_diamond(ViewKind::AdHoc);
/// let w = cuts::find_rmt_cut_anchored(&inst).expect("cut exists");
/// // Anchored witnesses always verify against the ground-truth checker.
/// let cache = rmt_core::KnowledgeCache::new(&inst);
/// assert!(cuts::is_rmt_cut(&inst, &cache, &w.cut).is_some());
/// ```
pub fn find_rmt_cut_anchored(inst: &Instance) -> Option<RmtCutWitness> {
    find_rmt_cut_anchored_with(inst, &AnchorBudget::default())
}

/// [`find_rmt_cut_anchored`] with an explicit budget (tests use tiny
/// budgets to exercise the exhaustive fallback).
pub fn find_rmt_cut_anchored_with(inst: &Instance, budget: &AnchorBudget) -> Option<RmtCutWitness> {
    if inst.graph().has_edge(inst.dealer(), inst.receiver()) {
        return None;
    }
    let anchors = match instance_anchors(inst, budget) {
        Ok(anchors) => anchors,
        Err(_) => return find_rmt_cut(inst),
    };
    let cache = KnowledgeCache::new(inst);
    for anchor in &anchors {
        match scan_rmt_anchor(inst, &cache, anchor, budget, None).0 {
            Some(AnchorOutcome::Witness(w)) => return Some(w),
            Some(AnchorOutcome::Overflow) => return find_rmt_cut(inst),
            None => {}
        }
    }
    None
}

/// [`find_rmt_cut_anchored`] with the search effort recorded in `reg`:
///
/// * `rmt_cut.separators_enumerated` — anchors scanned;
/// * `rmt_cut.components_enumerated` — connected subsets emitted across
///   the anchor scans;
/// * `rmt_cut.partition_checks` — `(C₁, C₂)` partitions tested against 𝒵_B
///   (same name and meaning as the exhaustive decider's);
/// * `rmt_cut.cache_hits` / `rmt_cut.cache_misses` — the
///   [`KnowledgeCache`] joint-domain memo's effectiveness;
/// * `rmt_cut.exhaustive_fallbacks` — budget overflows that re-ran the
///   exhaustive decider;
/// * `rmt_cut.anchored_ns` — wall time of the whole search (histogram).
///
/// The cache hit/miss counters are recorded by this sequential variant
/// only: under the parallel twin their values would depend on worker
/// interleaving, and the parallel observed deciders guarantee
/// thread-count-deterministic counters.
pub fn find_rmt_cut_anchored_observed(inst: &Instance, reg: &Registry) -> Option<RmtCutWitness> {
    find_rmt_cut_anchored_observed_with(inst, reg, &AnchorBudget::default())
}

/// [`find_rmt_cut_anchored_observed`] with an explicit budget.
pub fn find_rmt_cut_anchored_observed_with(
    inst: &Instance,
    reg: &Registry,
    budget: &AnchorBudget,
) -> Option<RmtCutWitness> {
    let _phase = reg.phase("rmt_cut.anchored");
    let _timer = reg.timer("rmt_cut.anchored_ns");
    if inst.graph().has_edge(inst.dealer(), inst.receiver()) {
        return None;
    }
    let anchors = {
        let _p = reg.phase("rmt_cut.anchored.anchors");
        instance_anchors(inst, budget)
    };
    let anchors = match anchors {
        Ok(anchors) => anchors,
        Err(_) => {
            reg.counter("rmt_cut.exhaustive_fallbacks").inc();
            return find_rmt_cut_observed(inst, reg);
        }
    };
    let _scan = reg.phase("rmt_cut.anchored.scan");
    let separators_enumerated = reg.counter("rmt_cut.separators_enumerated");
    let components_enumerated = reg.counter("rmt_cut.components_enumerated");
    let partition_checks = reg.counter("rmt_cut.partition_checks");
    let cache = KnowledgeCache::new(inst);
    let record_cache = |cache: &KnowledgeCache| {
        reg.counter("rmt_cut.cache_hits").add(cache.memo_hits());
        reg.counter("rmt_cut.cache_misses").add(cache.memo_misses());
    };
    for anchor in &anchors {
        separators_enumerated.inc();
        let (outcome, emitted) =
            scan_rmt_anchor(inst, &cache, anchor, budget, Some(&partition_checks));
        components_enumerated.add(emitted);
        match outcome {
            Some(AnchorOutcome::Witness(w)) => {
                record_cache(&cache);
                return Some(w);
            }
            Some(AnchorOutcome::Overflow) => {
                record_cache(&cache);
                reg.counter("rmt_cut.exhaustive_fallbacks").inc();
                return find_rmt_cut_observed(inst, reg);
            }
            None => {}
        }
    }
    record_cache(&cache);
    None
}

/// Separator-anchored 𝒵-pp-cut search with the default [`AnchorBudget`]:
/// same verdict as [`zpp_cut_by_enumeration`](super::zpp_cut_by_enumeration).
pub fn zpp_cut_by_enumeration_anchored(inst: &Instance) -> Option<ZppCutWitness> {
    zpp_cut_by_enumeration_anchored_with(inst, &AnchorBudget::default())
}

/// [`zpp_cut_by_enumeration_anchored`] with an explicit budget.
pub fn zpp_cut_by_enumeration_anchored_with(
    inst: &Instance,
    budget: &AnchorBudget,
) -> Option<ZppCutWitness> {
    if inst.graph().has_edge(inst.dealer(), inst.receiver()) {
        return None;
    }
    let anchors = match instance_anchors(inst, budget) {
        Ok(anchors) => anchors,
        Err(_) => return zpp_cut_by_enumeration(inst),
    };
    let cache = KnowledgeCache::new(inst);
    for anchor in &anchors {
        match scan_zpp_anchor(inst, &cache, anchor, budget, None).0 {
            Some(AnchorOutcome::Witness(w)) => return Some(w),
            Some(AnchorOutcome::Overflow) => return zpp_cut_by_enumeration(inst),
            None => {}
        }
    }
    None
}

/// [`zpp_cut_by_enumeration_anchored`] with the search effort recorded in
/// `reg`: `zpp.separators_enumerated`, `zpp.components_enumerated`,
/// `zpp.plausibility_checks`, `zpp.exhaustive_fallbacks` and the
/// `zpp.anchored_ns` wall-time histogram.
pub fn zpp_cut_by_enumeration_anchored_observed(
    inst: &Instance,
    reg: &Registry,
) -> Option<ZppCutWitness> {
    let _phase = reg.phase("zpp.anchored");
    let _timer = reg.timer("zpp.anchored_ns");
    if inst.graph().has_edge(inst.dealer(), inst.receiver()) {
        return None;
    }
    let budget = AnchorBudget::default();
    let anchors = {
        let _p = reg.phase("zpp.anchored.anchors");
        instance_anchors(inst, &budget)
    };
    let anchors = match anchors {
        Ok(anchors) => anchors,
        Err(_) => {
            reg.counter("zpp.exhaustive_fallbacks").inc();
            return zpp_cut_by_enumeration(inst);
        }
    };
    let _scan = reg.phase("zpp.anchored.scan");
    let separators_enumerated = reg.counter("zpp.separators_enumerated");
    let components_enumerated = reg.counter("zpp.components_enumerated");
    let plausibility_checks = reg.counter("zpp.plausibility_checks");
    let cache = KnowledgeCache::new(inst);
    for anchor in &anchors {
        separators_enumerated.inc();
        let (outcome, emitted) =
            scan_zpp_anchor(inst, &cache, anchor, &budget, Some(&plausibility_checks));
        components_enumerated.add(emitted);
        match outcome {
            Some(AnchorOutcome::Witness(w)) => return Some(w),
            Some(AnchorOutcome::Overflow) => {
                reg.counter("zpp.exhaustive_fallbacks").inc();
                return zpp_cut_by_enumeration(inst);
            }
            None => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::{is_rmt_cut, is_zpp_cut};
    use crate::sampling::{random_instance, random_instance_nonadjacent};
    use rmt_adversary::AdversaryStructure;
    use rmt_graph::{generators, Graph, ViewKind};
    use rmt_sets::NodeSet;

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    fn diamond() -> Graph {
        let mut g = Graph::new();
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        g
    }

    #[test]
    fn anchored_agrees_with_exhaustive_on_the_diamonds() {
        for z in [
            AdversaryStructure::from_sets([set(&[1])]),
            AdversaryStructure::from_sets([set(&[1]), set(&[2])]),
        ] {
            let inst =
                crate::Instance::new(diamond(), z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap();
            assert_eq!(
                find_rmt_cut_anchored(&inst).is_some(),
                find_rmt_cut(&inst).is_some()
            );
            assert_eq!(
                zpp_cut_by_enumeration_anchored(&inst).is_some(),
                zpp_cut_by_enumeration(&inst).is_some()
            );
        }
    }

    #[test]
    fn anchored_witnesses_verify_on_random_instances() {
        let mut rng = generators::seeded(0xA11C);
        for trial in 0..40 {
            let n = 5 + trial % 4;
            let inst = random_instance(n, 0.4, ViewKind::AdHoc, 3, 2, &mut rng);
            let cache = KnowledgeCache::new(&inst);
            let exhaustive = find_rmt_cut(&inst);
            let anchored = find_rmt_cut_anchored(&inst);
            assert_eq!(exhaustive.is_some(), anchored.is_some(), "trial {trial}");
            if let Some(w) = anchored {
                assert!(
                    is_rmt_cut(&inst, &cache, &w.cut).is_some(),
                    "trial {trial}: witness {w:?}"
                );
            }
            let anchored = zpp_cut_by_enumeration_anchored(&inst);
            assert_eq!(
                zpp_cut_by_enumeration(&inst).is_some(),
                anchored.is_some(),
                "trial {trial}"
            );
            if let Some(w) = anchored {
                assert!(is_zpp_cut(&inst, &cache, &w.cut).is_some(), "trial {trial}");
            }
        }
    }

    #[test]
    fn tiny_budgets_fall_back_to_the_exhaustive_verdict() {
        let budgets = [
            AnchorBudget {
                max_separators: 1,
                max_components_per_anchor: 1 << 20,
            },
            AnchorBudget {
                max_separators: 4096,
                max_components_per_anchor: 1,
            },
        ];
        let mut rng = generators::seeded(0xFA11);
        for trial in 0..20 {
            let n = 5 + trial % 4;
            let inst = random_instance_nonadjacent(n, 0.35, ViewKind::AdHoc, 3, 2, &mut rng);
            for budget in &budgets {
                assert_eq!(
                    find_rmt_cut_anchored_with(&inst, budget).is_some(),
                    find_rmt_cut(&inst).is_some(),
                    "trial {trial}, budget {budget:?}"
                );
                assert_eq!(
                    zpp_cut_by_enumeration_anchored_with(&inst, budget).is_some(),
                    zpp_cut_by_enumeration(&inst).is_some(),
                    "trial {trial}, budget {budget:?}"
                );
            }
        }
    }

    #[test]
    fn observed_variants_match_and_count() {
        let reg = rmt_obs::Registry::new();
        let mut rng = generators::seeded(0x0B5);
        for trial in 0..12 {
            let n = 5 + trial % 3;
            let inst = random_instance_nonadjacent(n, 0.35, ViewKind::AdHoc, 3, 2, &mut rng);
            assert_eq!(
                find_rmt_cut_anchored(&inst),
                find_rmt_cut_anchored_observed(&inst, &reg),
                "trial {trial}"
            );
            assert_eq!(
                zpp_cut_by_enumeration_anchored(&inst),
                zpp_cut_by_enumeration_anchored_observed(&inst, &reg),
                "trial {trial}"
            );
        }
        assert!(reg.counter("rmt_cut.separators_enumerated").get() > 0);
        assert!(reg.counter("rmt_cut.components_enumerated").get() > 0);
        assert!(reg.counter("rmt_cut.cache_misses").get() > 0);
        assert!(reg.counter("zpp.separators_enumerated").get() > 0);
        assert_eq!(reg.histogram("rmt_cut.anchored_ns").count(), 12);
    }

    #[test]
    fn profiled_decider_emits_well_nested_phase_spans() {
        let reg = rmt_obs::Registry::new().with_clock(rmt_obs::Clock::virtual_ns(1));
        let prof = rmt_obs::Profiler::new(reg.clock());
        reg.attach_profiler(prof.clone());
        let mut rng = generators::seeded(0x0B5);
        let inst = random_instance_nonadjacent(6, 0.35, ViewKind::AdHoc, 3, 2, &mut rng);
        let expected = find_rmt_cut_anchored(&inst);
        assert_eq!(find_rmt_cut_anchored_observed(&inst, &reg), expected);
        let roots = rmt_obs::span_tree(&prof.events()).expect("well nested");
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "rmt_cut.anchored");
        let kids: Vec<&str> = roots[0].children.iter().map(|c| c.name.as_str()).collect();
        assert!(kids.contains(&"rmt_cut.anchored.anchors"), "{kids:?}");
        // Virtual clock: a second identical run replays identical timestamps.
        let reg2 = rmt_obs::Registry::new().with_clock(rmt_obs::Clock::virtual_ns(1));
        let prof2 = rmt_obs::Profiler::new(reg2.clock());
        reg2.attach_profiler(prof2.clone());
        find_rmt_cut_anchored_observed(&inst, &reg2);
        assert_eq!(prof.events(), prof2.events());
        assert_eq!(reg.render(), reg2.render());
    }

    #[test]
    fn disconnected_endpoints_yield_the_empty_cut() {
        let mut g = generators::path_graph(2);
        g.add_node(4.into());
        let inst = crate::Instance::new(
            g,
            AdversaryStructure::trivial(),
            ViewKind::AdHoc,
            0.into(),
            4.into(),
        )
        .unwrap();
        // The empty-separator anchor's largest component is B = {4} itself,
        // whose neighbourhood is the empty cut.
        let w = find_rmt_cut_anchored(&inst).expect("empty cut separates");
        assert!(w.cut.is_empty());
        assert!(find_rmt_cut(&inst).is_some());
    }

    #[test]
    fn adjacent_endpoints_have_no_anchored_cut() {
        let mut g = diamond();
        g.add_edge(0.into(), 3.into());
        let z = AdversaryStructure::from_sets([set(&[1]), set(&[2])]);
        let inst = crate::Instance::new(g, z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap();
        assert!(find_rmt_cut_anchored(&inst).is_none());
        assert!(zpp_cut_by_enumeration_anchored(&inst).is_none());
    }
}
