//! The incremental decision engine: exact cut decisions under graph churn.
//!
//! A production deployment does not decide one frozen instance — links come
//! and go, nodes join, the adversary model gets re-estimated. Re-deciding
//! from scratch after every mutation pays the full anchored search again
//! even when the delta cannot possibly change the verdict's evidence.
//! [`IncrementalEngine`] keeps, per separator anchor, a *certificate* of the
//! last scan outcome together with the **footprint** the scan depended on,
//! and on each [`Delta`] invalidates only the certificates whose footprint
//! the delta touches.
//!
//! # Why the footprint rule is sound
//!
//! The outcome of scanning one anchor `(S, region)` (see
//! [`cuts::anchored`](crate::cuts::anchored)) is a pure function of:
//!
//! * the adjacency of `S ∪ region` — the connected-subset enumeration walks
//!   neighbours of region nodes, and every candidate cut is `N(B)` for some
//!   `B ⊆ region`;
//! * the per-node knowledge of region nodes — both partition checks
//!   ([`admissible_partition`](crate::cuts::rmt_cut) and its 𝒵-pp twin)
//!   consult only `𝒵_b` resp. local structures for `b ⊆ region`;
//! * the global structure 𝒵, the receiver, and the budget.
//!
//! So the certificate footprint `S ∪ region ∪ N(S ∪ region)` (taken at scan
//! time) covers everything but 𝒵: an edge delta `{u, v}` disjoint from it
//! cannot alter adjacency *inside* the scan (any edge changing a region
//! node's neighbourhood has an endpoint in the region), and a view-domain
//! change at a node outside the region cannot alter any `𝒵_b`. Footprints
//! cannot silently go stale either: extending `N(region)` requires an edge
//! at a region node, which invalidates the certificate first. Structure
//! changes invalidate everything ([`KnowledgeCache::rebuild`]).
//!
//! Decisions replay the sequential anchored deciders' control flow anchor
//! by anchor (fresh anchor enumeration, first witness in anchor order,
//! identical overflow and budget fallbacks) against the refreshed
//! [`KnowledgeCache`], so [`IncrementalEngine::decide_rmt`] /
//! [`IncrementalEngine::decide_zpp`] return **byte-identical** witnesses to
//! [`find_rmt_cut_anchored`](crate::cuts::find_rmt_cut_anchored) /
//! [`zpp_cut_by_enumeration_anchored`](crate::cuts::zpp_cut_by_enumeration_anchored)
//! on the mutated instance — the from-scratch deciders remain the
//! differential ground truth (`crates/core/tests/incremental_differential.rs`,
//! and E17 asserts the identity per delta).

use std::collections::HashMap;

use rmt_adversary::AdversaryStructure;
use rmt_graph::separators::CutAnchor;
use rmt_graph::traversal::neighborhood;
use rmt_graph::{Graph, ViewKind};
use rmt_obs::Registry;
use rmt_sets::{NodeId, NodeSet};

use crate::cuts::anchored::{
    instance_anchors, scan_rmt_anchor, scan_zpp_anchor, AnchorBudget, AnchorOutcome,
};
use crate::cuts::rmt_cut::{find_rmt_cut, RmtCutWitness};
use crate::cuts::zpp::{zpp_cut_by_enumeration, ZppCutWitness};
use crate::instance::{Instance, InstanceError};
use crate::knowledge::KnowledgeCache;

/// One instance mutation the engine can absorb incrementally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delta {
    /// Add the edge `{u, v}` (endpoints are created if absent).
    AddEdge(NodeId, NodeId),
    /// Remove the edge `{u, v}` (a no-op if absent).
    RemoveEdge(NodeId, NodeId),
    /// Add an isolated node.
    AddNode(NodeId),
    /// Replace the global adversary structure.
    StructureChange(AdversaryStructure),
}

/// What one [`IncrementalEngine::apply`] invalidated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Per-node knowledge parts rebuilt by the cache refresh.
    pub parts_rebuilt: u64,
    /// Joint-domain memo entries dropped by the cache refresh.
    pub domains_dropped: u64,
    /// Anchor certificates (RMT and 𝒵-pp combined) dropped because their
    /// footprint touched the delta.
    pub certs_dropped: u64,
    /// `true` iff the delta forced a full rebuild (structure change).
    pub full_rebuild: bool,
}

/// A cached per-anchor scan outcome plus the state it depends on.
#[derive(Clone, Debug)]
struct Cert<W> {
    /// `None` = anchor exhausted without witness or overflow.
    outcome: Option<AnchorOutcome<W>>,
    /// `S ∪ region ∪ N(S ∪ region)` at scan time.
    footprint: NodeSet,
}

type CertKey = (NodeSet, NodeSet); // (separator, region)

/// An [`Instance`] plus the cached state needed to re-decide cheaply after
/// mutations: a refreshable [`KnowledgeCache`] and per-anchor scan
/// certificates keyed `(separator, region)`.
///
/// # Example
///
/// ```
/// use rmt_core::engine::{Delta, IncrementalEngine};
/// use rmt_core::{cuts, gallery};
/// use rmt_graph::ViewKind;
///
/// let inst = gallery::unsolvable_diamond(ViewKind::AdHoc);
/// let mut engine = IncrementalEngine::from_instance(&inst, ViewKind::AdHoc);
/// assert!(engine.decide_rmt().is_some()); // cut exists
/// engine.apply(Delta::AddEdge(0.into(), 3.into())).unwrap();
/// assert!(engine.decide_rmt().is_none()); // adjacent endpoints: no cut
/// // Every decision equals the from-scratch anchored decider's.
/// assert_eq!(
///     engine.decide_rmt(),
///     cuts::find_rmt_cut_anchored(engine.instance())
/// );
/// ```
pub struct IncrementalEngine {
    inst: Instance,
    views: ViewKind,
    budget: AnchorBudget,
    cache: KnowledgeCache,
    rmt_certs: HashMap<CertKey, Cert<RmtCutWitness>>,
    zpp_certs: HashMap<CertKey, Cert<ZppCutWitness>>,
}

impl IncrementalEngine {
    /// Builds an engine over a fresh instance. `views` is remembered so the
    /// view assignment can be re-derived after every mutation.
    pub fn new(
        graph: Graph,
        adversary: AdversaryStructure,
        views: ViewKind,
        dealer: NodeId,
        receiver: NodeId,
    ) -> Result<Self, InstanceError> {
        let inst = Instance::new(graph, adversary, views, dealer, receiver)?;
        Ok(IncrementalEngine::from_instance(&inst, views))
    }

    /// Builds an engine from an existing instance whose views were assigned
    /// uniformly with `views`.
    pub fn from_instance(inst: &Instance, views: ViewKind) -> Self {
        IncrementalEngine {
            cache: KnowledgeCache::new(inst),
            inst: inst.clone(),
            views,
            budget: AnchorBudget::default(),
            rmt_certs: HashMap::new(),
            zpp_certs: HashMap::new(),
        }
    }

    /// Replaces the anchor budget (dropping all certificates, which were
    /// scanned under the old one).
    pub fn with_budget(mut self, budget: AnchorBudget) -> Self {
        self.budget = budget;
        self.rmt_certs.clear();
        self.zpp_certs.clear();
        self
    }

    /// The current instance.
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// Live anchor certificates: `(rmt, zpp)` counts.
    pub fn cert_counts(&self) -> (usize, usize) {
        (self.rmt_certs.len(), self.zpp_certs.len())
    }

    /// Applies one mutation, invalidating only the cached knowledge and
    /// certificates whose footprint the delta touches.
    ///
    /// # Errors
    ///
    /// Returns the [`InstanceError`] if the mutated instance is ill-formed
    /// (e.g. a structure change whose support escapes the node set). The
    /// engine is left unchanged in that case.
    pub fn apply(&mut self, delta: Delta) -> Result<ApplyStats, InstanceError> {
        self.apply_inner(delta, None)
    }

    /// [`IncrementalEngine::apply`] with the invalidation recorded in `reg`:
    /// `cache.invalidate.parts`, `cache.invalidate.domains`,
    /// `cache.invalidate.certs`, `cache.invalidate.full`. All values are
    /// pure functions of the delta stream, so they are deterministic across
    /// runs and thread counts.
    pub fn apply_observed(
        &mut self,
        delta: Delta,
        reg: &Registry,
    ) -> Result<ApplyStats, InstanceError> {
        self.apply_inner(delta, Some(reg))
    }

    fn apply_inner(
        &mut self,
        delta: Delta,
        reg: Option<&Registry>,
    ) -> Result<ApplyStats, InstanceError> {
        let mut graph = self.inst.graph().clone();
        let mut endpoints = NodeSet::new();
        let mut new_structure = None;
        match delta {
            Delta::AddEdge(u, v) => {
                graph.add_edge(u, v);
                endpoints.insert(u);
                endpoints.insert(v);
            }
            Delta::RemoveEdge(u, v) => {
                graph.remove_edge(u, v);
                endpoints.insert(u);
                endpoints.insert(v);
            }
            Delta::AddNode(v) => {
                graph.add_node(v);
            }
            Delta::StructureChange(z) => new_structure = Some(z),
        }
        let structure_changed = new_structure.is_some();
        self.inst = match new_structure {
            Some(z) => Instance::new(
                graph,
                z,
                self.views,
                self.inst.dealer(),
                self.inst.receiver(),
            )?,
            // Graph-only delta: share 𝒵 instead of cloning and revalidating
            // it — the dominant apply cost on large structures.
            None => self.inst.with_graph(graph, self.views)?,
        };

        let mut stats = ApplyStats::default();
        if structure_changed {
            let cache = self.cache.rebuild(&self.inst);
            stats.parts_rebuilt = cache.parts_rebuilt;
            stats.domains_dropped = cache.domains_dropped;
            stats.certs_dropped = (self.rmt_certs.len() + self.zpp_certs.len()) as u64;
            stats.full_rebuild = true;
            self.rmt_certs.clear();
            self.zpp_certs.clear();
        } else {
            let (changed, cache) = self.cache.refresh(&self.inst);
            stats.parts_rebuilt = cache.parts_rebuilt;
            stats.domains_dropped = cache.domains_dropped;
            // Touched = delta endpoints (adjacency changed there even when
            // no view domain did, e.g. under Full views) ∪ changed-domain
            // nodes.
            let mut touched = endpoints;
            touched.union_with(&changed);
            if !touched.is_empty() {
                let before = self.rmt_certs.len() + self.zpp_certs.len();
                self.rmt_certs
                    .retain(|_, cert| cert.footprint.is_disjoint(&touched));
                self.zpp_certs
                    .retain(|_, cert| cert.footprint.is_disjoint(&touched));
                stats.certs_dropped = (before - self.rmt_certs.len() - self.zpp_certs.len()) as u64;
            }
        }
        if let Some(reg) = reg {
            reg.counter("cache.invalidate.parts")
                .add(stats.parts_rebuilt);
            reg.counter("cache.invalidate.domains")
                .add(stats.domains_dropped);
            reg.counter("cache.invalidate.certs")
                .add(stats.certs_dropped);
            reg.counter("cache.invalidate.full")
                .add(stats.full_rebuild as u64);
        }
        Ok(stats)
    }

    /// Decides the RMT-cut question on the current instance, re-scanning
    /// only anchors without a live certificate. Byte-identical to
    /// [`find_rmt_cut_anchored`](crate::cuts::find_rmt_cut_anchored).
    pub fn decide_rmt(&mut self) -> Option<RmtCutWitness> {
        self.decide_rmt_inner(None)
    }

    /// [`IncrementalEngine::decide_rmt`] with certificate reuse recorded in
    /// `reg` as `cache.cert_hits` / `cache.cert_misses`.
    pub fn decide_rmt_observed(&mut self, reg: &Registry) -> Option<RmtCutWitness> {
        self.decide_rmt_inner(Some(reg))
    }

    fn decide_rmt_inner(&mut self, reg: Option<&Registry>) -> Option<RmtCutWitness> {
        if self
            .inst
            .graph()
            .has_edge(self.inst.dealer(), self.inst.receiver())
        {
            return None;
        }
        let anchors = match instance_anchors(&self.inst, &self.budget) {
            Ok(anchors) => anchors,
            Err(_) => return find_rmt_cut(&self.inst),
        };
        let mut reuse = CertReuse::default();
        let mut verdict = None;
        for anchor in &anchors {
            let key = (anchor.separator.clone(), anchor.region.clone());
            let cert = match self.rmt_certs.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    reuse.hits += 1;
                    e.into_mut()
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    reuse.misses += 1;
                    let (outcome, _emitted) =
                        scan_rmt_anchor(&self.inst, &self.cache, anchor, &self.budget, None);
                    e.insert(Cert {
                        outcome,
                        footprint: anchor_footprint(self.inst.graph(), anchor),
                    })
                }
            };
            match &cert.outcome {
                Some(AnchorOutcome::Witness(w)) => {
                    verdict = Some(Some(w.clone()));
                    break;
                }
                Some(AnchorOutcome::Overflow) => {
                    verdict = Some(find_rmt_cut(&self.inst));
                    break;
                }
                None => {}
            }
        }
        reuse.record(reg);
        verdict.unwrap_or(None)
    }

    /// Decides the 𝒵-pp-cut question on the current instance, re-scanning
    /// only anchors without a live certificate. Byte-identical to
    /// [`zpp_cut_by_enumeration_anchored`](crate::cuts::zpp_cut_by_enumeration_anchored).
    pub fn decide_zpp(&mut self) -> Option<ZppCutWitness> {
        self.decide_zpp_inner(None)
    }

    /// [`IncrementalEngine::decide_zpp`] with certificate reuse recorded in
    /// `reg` as `cache.cert_hits` / `cache.cert_misses`.
    pub fn decide_zpp_observed(&mut self, reg: &Registry) -> Option<ZppCutWitness> {
        self.decide_zpp_inner(Some(reg))
    }

    fn decide_zpp_inner(&mut self, reg: Option<&Registry>) -> Option<ZppCutWitness> {
        if self
            .inst
            .graph()
            .has_edge(self.inst.dealer(), self.inst.receiver())
        {
            return None;
        }
        let anchors = match instance_anchors(&self.inst, &self.budget) {
            Ok(anchors) => anchors,
            Err(_) => return zpp_cut_by_enumeration(&self.inst),
        };
        let mut reuse = CertReuse::default();
        let mut verdict = None;
        for anchor in &anchors {
            let key = (anchor.separator.clone(), anchor.region.clone());
            let cert = match self.zpp_certs.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    reuse.hits += 1;
                    e.into_mut()
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    reuse.misses += 1;
                    let (outcome, _emitted) =
                        scan_zpp_anchor(&self.inst, &self.cache, anchor, &self.budget, None);
                    e.insert(Cert {
                        outcome,
                        footprint: anchor_footprint(self.inst.graph(), anchor),
                    })
                }
            };
            match &cert.outcome {
                Some(AnchorOutcome::Witness(w)) => {
                    verdict = Some(Some(w.clone()));
                    break;
                }
                Some(AnchorOutcome::Overflow) => {
                    verdict = Some(zpp_cut_by_enumeration(&self.inst));
                    break;
                }
                None => {}
            }
        }
        reuse.record(reg);
        verdict.unwrap_or(None)
    }
}

impl std::fmt::Debug for IncrementalEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalEngine")
            .field("instance", &self.inst)
            .field("rmt_certs", &self.rmt_certs.len())
            .field("zpp_certs", &self.zpp_certs.len())
            .finish()
    }
}

#[derive(Default)]
struct CertReuse {
    hits: u64,
    misses: u64,
}

impl CertReuse {
    fn record(&self, reg: Option<&Registry>) {
        if let Some(reg) = reg {
            reg.counter("cache.cert_hits").add(self.hits);
            reg.counter("cache.cert_misses").add(self.misses);
        }
    }
}

/// Everything a `(S, region)` anchor scan reads from the graph:
/// `S ∪ region ∪ N(S ∪ region)`.
fn anchor_footprint(g: &Graph, anchor: &CutAnchor) -> NodeSet {
    let mut fp = anchor.separator.union(&anchor.region);
    fp.union_with(&neighborhood(g, &fp));
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::{find_rmt_cut_anchored, zpp_cut_by_enumeration_anchored};
    use rmt_graph::generators;

    fn engine_and_mirror() -> (IncrementalEngine, Instance) {
        let g = generators::ring_with_chords(10, 2, &mut generators::seeded(0xE17));
        let z = rmt_adversary::threshold(g.nodes(), 2);
        let inst = Instance::new(g, z, ViewKind::AdHoc, 0.into(), 5.into()).unwrap();
        (
            IncrementalEngine::from_instance(&inst, ViewKind::AdHoc),
            inst,
        )
    }

    #[test]
    fn decisions_match_from_scratch_over_a_mutation_stream() {
        let (mut engine, _) = engine_and_mirror();
        let deltas = [
            Delta::AddEdge(1.into(), 4.into()),
            Delta::RemoveEdge(1.into(), 4.into()),
            Delta::RemoveEdge(0.into(), 1.into()),
            Delta::AddNode(12.into()),
            Delta::AddEdge(12.into(), 3.into()),
            Delta::AddEdge(0.into(), 1.into()),
        ];
        assert_eq!(
            engine.decide_rmt(),
            find_rmt_cut_anchored(engine.instance())
        );
        for (i, delta) in deltas.into_iter().enumerate() {
            engine.apply(delta).unwrap();
            assert_eq!(
                engine.decide_rmt(),
                find_rmt_cut_anchored(engine.instance()),
                "rmt after delta {i}"
            );
            assert_eq!(
                engine.decide_zpp(),
                zpp_cut_by_enumeration_anchored(engine.instance()),
                "zpp after delta {i}"
            );
        }
    }

    #[test]
    fn untouched_certificates_survive_a_far_away_delta() {
        let (mut engine, _) = engine_and_mirror();
        engine.decide_rmt();
        engine.decide_zpp();
        let (rmt, zpp) = engine.cert_counts();
        assert!(rmt > 0);
        // Mutate an edge; only footprint-touching certificates may drop.
        let stats = engine.apply(Delta::RemoveEdge(7.into(), 8.into())).unwrap();
        assert!(!stats.full_rebuild);
        let (rmt2, zpp2) = engine.cert_counts();
        assert_eq!(rmt + zpp - rmt2 - zpp2, stats.certs_dropped as usize);
        // And the next decision is still exact.
        assert_eq!(
            engine.decide_rmt(),
            find_rmt_cut_anchored(engine.instance())
        );
    }

    #[test]
    fn structure_change_invalidates_everything() {
        let (mut engine, inst) = engine_and_mirror();
        engine.decide_rmt();
        let z1 = rmt_adversary::threshold(inst.graph().nodes(), 1);
        let stats = engine.apply(Delta::StructureChange(z1)).unwrap();
        assert!(stats.full_rebuild);
        assert_eq!(engine.cert_counts(), (0, 0));
        assert_eq!(
            engine.decide_rmt(),
            find_rmt_cut_anchored(engine.instance())
        );
        assert_eq!(
            engine.decide_zpp(),
            zpp_cut_by_enumeration_anchored(engine.instance())
        );
    }

    #[test]
    fn ill_formed_delta_leaves_the_engine_unchanged() {
        let (mut engine, _) = engine_and_mirror();
        let before = engine.decide_rmt();
        // Structure support escapes the node set: rejected.
        let bad = AdversaryStructure::from_sets([NodeSet::singleton(99.into())]);
        assert!(engine.apply(Delta::StructureChange(bad)).is_err());
        assert_eq!(engine.decide_rmt(), before);
    }

    #[test]
    fn observed_apply_and_decide_record_counters() {
        let (mut engine, _) = engine_and_mirror();
        let reg = Registry::new();
        engine.decide_rmt_observed(&reg);
        assert!(reg.counter("cache.cert_misses").get() > 0);
        // Re-deciding an unchanged instance reuses every certificate.
        let misses = reg.counter("cache.cert_misses").get();
        engine.decide_rmt_observed(&reg);
        assert!(reg.counter("cache.cert_hits").get() > 0);
        assert_eq!(reg.counter("cache.cert_misses").get(), misses);
        engine
            .apply_observed(Delta::AddEdge(2.into(), 6.into()), &reg)
            .unwrap();
        assert!(reg.counter("cache.invalidate.parts").get() > 0);
        engine.decide_rmt_observed(&reg);
        // Plain and observed twins agree.
        let (mut twin, _) = engine_and_mirror();
        let twin_reg = Registry::new();
        twin.decide_rmt();
        twin.apply(Delta::AddEdge(2.into(), 6.into())).unwrap();
        assert_eq!(twin.decide_rmt(), engine.decide_rmt_observed(&twin_reg));
    }
}
