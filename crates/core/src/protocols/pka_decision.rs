//! The receiver's decision subroutine of RMT-PKA (Protocol 1, subroutine
//! *decision*): full message sets (Definition 5) and adversary covers
//! (Definition 6).
//!
//! The receiver accumulates type-1 messages (value + propagation trail) and
//! type-2 messages (a node's claimed view γ(u) and local structure 𝒵_u).
//! Corrupted nodes can inject *conflicting* claims about the same node and
//! entirely fictitious nodes, so a candidate valid set M corresponds to a
//! *selection*: one claim per claimed node (conflicts arise only through
//! corrupted trails, so honest information always survives as one of the
//! options). For each selection the engine
//!
//! 1. builds `G_M` — the subgraph induced by the joint claimed view on the
//!    claiming node set `V_M` (plus the receiver's own knowledge) — and
//!    enumerates its D–R paths;
//! 2. checks **fullness** per candidate value `x`: every D–R path of `G_M`
//!    must have arrived as a type-1 trail carrying `x`;
//! 3. only if some `x` makes M full, searches for an **adversary cover**
//!    (Definition 6): a D–R cut `C` of `G_M` with `C ∩ V(γ(B)) ∈ 𝒵_B`,
//!    where `B` is R's component of `G_M ∖ C` and `𝒵_B` is the joint of the
//!    *claimed* structures of `B` (evaluated with the cylinder membership
//!    test — never materialized). The search is one pruned enumeration of
//!    the connected candidate components `B`;
//!    the first full, cover-free `(selection, x)` decides `x`.
//!
//! Everything is budgeted ([`DecisionConfig`]); exceeding a budget makes the
//! receiver *conservative* (it abstains rather than risking an unverified
//! decision), preserving safety unconditionally — the [`truncated`] flag
//! records that feasibility may have been under-reported.
//!
//! [`truncated`]: ReceiverState::truncated
//!
//! Deviation from the paper's presentation (documented in DESIGN.md): the
//! subroutine runs once per round instead of once per received message —
//! observationally equivalent in a synchronous model.

use std::collections::{BTreeMap, HashSet};

use rmt_adversary::AdversaryStructure;
use rmt_graph::{paths, traversal, Graph};
use rmt_obs::Registry;
use rmt_sets::{NodeId, NodeSet};

use crate::protocols::Value;

/// Budgets for the receiver's (exponential in the worst case) decision
/// search.
#[derive(Clone, Copy, Debug)]
pub struct DecisionConfig {
    /// Maximum number of claim selections examined per round.
    pub max_selections: usize,
    /// Maximum number of D–R paths enumerated per candidate `G_M`.
    pub max_paths: usize,
    /// Maximum `|V_M| − 2` for the adversary-cover search, which visits
    /// connected node sets of `G_M` containing R and so at most
    /// `2^(|V_M|−2)` of them; above it the receiver abstains.
    pub max_cover_candidates: usize,
}

impl Default for DecisionConfig {
    fn default() -> Self {
        DecisionConfig {
            max_selections: 256,
            max_paths: 50_000,
            max_cover_candidates: 22,
        }
    }
}

/// One node's claimed knowledge, as carried by a type-2 message.
#[derive(Clone, Debug, PartialEq)]
pub struct Claim {
    /// The claimed view γ(u).
    pub view: Graph,
    /// The claimed local structure 𝒵_u.
    pub structure: AdversaryStructure,
}

/// The receiver's accumulated messages and decision engine.
#[derive(Clone, Debug)]
pub struct ReceiverState {
    me: NodeId,
    dealer: NodeId,
    my_view: Graph,
    my_structure: AdversaryStructure,
    /// Received dealer-value trails, as full D…R paths, grouped by value.
    type1: BTreeMap<Value, HashSet<Vec<NodeId>>>,
    /// Claims per node; conflicting claims are kept side by side.
    claims: BTreeMap<NodeId, Vec<Claim>>,
    /// `true` once any search budget was exceeded (feasibility may be
    /// under-reported; safety is unaffected).
    pub truncated: bool,
    /// Claims dropped as self-inconsistent (structure escaping the view, or
    /// view not containing the node).
    pub malformed_claims: u64,
    /// Claim selections examined across all [`ReceiverState::decide`] calls.
    pub selections_examined: u64,
    /// Candidate components `B` reached by the adversary-cover search
    /// (pruned or tested) across all [`ReceiverState::decide`] calls.
    pub cover_sets_visited: u64,
}

impl ReceiverState {
    /// Creates the engine for receiver `me` with its own knowledge.
    pub fn new(
        me: NodeId,
        dealer: NodeId,
        my_view: Graph,
        my_structure: AdversaryStructure,
    ) -> Self {
        ReceiverState {
            me,
            dealer,
            my_view,
            my_structure,
            type1: BTreeMap::new(),
            claims: BTreeMap::new(),
            truncated: false,
            malformed_claims: 0,
            selections_examined: 0,
            cover_sets_visited: 0,
        }
    }

    /// Ingests a validated type-1 message: `trail` is the propagation trail
    /// (ending at the neighbour that delivered it); the stored D–R path is
    /// `trail ‖ me`.
    pub fn ingest_value(&mut self, value: Value, trail: &[NodeId]) {
        let mut path = trail.to_vec();
        path.push(self.me);
        self.type1.entry(value).or_default().insert(path);
    }

    /// Ingests a validated type-2 message: node `u` claims knowledge
    /// `(view, structure)`.
    ///
    /// Self-inconsistent claims (the view does not contain `u`, or the
    /// structure mentions nodes outside the view) are detectably malformed
    /// and dropped.
    pub fn ingest_claim(&mut self, u: NodeId, view: Graph, structure: AdversaryStructure) {
        if u == self.me {
            // The receiver's own knowledge is authoritative; claims about it
            // are noise by construction.
            self.malformed_claims += 1;
            return;
        }
        if !view.contains_node(u)
            || structure
                .maximal_sets()
                .iter()
                .any(|m| !m.is_subset(view.nodes()))
        {
            self.malformed_claims += 1;
            return;
        }
        let claim = Claim { view, structure };
        let entry = self.claims.entry(u).or_default();
        if !entry.contains(&claim) {
            entry.push(claim);
        }
    }

    /// The number of distinct claims currently held for node `u`.
    pub fn claim_count(&self, u: NodeId) -> usize {
        self.claims.get(&u).map_or(0, Vec::len)
    }

    /// Runs the full-message-set propagation rule; `Some(x)` iff some valid,
    /// full, cover-free message set M with `value(M) = x` exists within the
    /// budgets.
    ///
    /// A candidate M is determined by (a) an *exclusion set* E of claiming
    /// nodes whose type-2 messages are left out of M — necessary because a
    /// corrupted node may report honest knowledge while lying about values,
    /// so the honest full set omits it — and (b) one claim per remaining
    /// node with conflicting claims. Exclusion sets are enumerated in
    /// increasing size (the honest run needs E = ∅, an attacked run
    /// |E| ≤ |T|), claim selections by a mixed-radix counter, all under the
    /// shared `max_selections` budget.
    pub fn decide(&mut self, cfg: &DecisionConfig) -> Option<Value> {
        if self.type1.is_empty() || !self.claims.contains_key(&self.dealer) {
            return None;
        }
        let mut visited = 0u64;
        let (result, truncated, examined) = self.search_selections(cfg, |selection, truncated| {
            self.examine_selection(selection, cfg, truncated, &mut visited)
        });
        self.truncated |= truncated;
        self.selections_examined += examined as u64;
        self.cover_sets_visited += visited;
        result
    }

    /// [`ReceiverState::decide`] with the search effort recorded in `reg`:
    ///
    /// * `pka.decide_ns` — wall time per call (histogram, stamped by the
    ///   registry's clock);
    /// * `pka.selections_examined` — claim selections examined;
    /// * `pka.cover_components` — candidate components reached by the
    ///   adversary-cover search;
    /// * `pka.decisions` — calls that returned a value;
    /// * `pka.truncations` — calls that ran into a budget and abstained
    ///   conservatively;
    ///
    /// plus a `pka.decide` phase span when the registry carries a profiler.
    pub fn decide_observed(&mut self, cfg: &DecisionConfig, reg: &Registry) -> Option<Value> {
        let _phase = reg.phase("pka.decide");
        let _timer = reg.timer("pka.decide_ns");
        let before_examined = self.selections_examined;
        let before_visited = self.cover_sets_visited;
        let before_truncated = self.truncated;
        let result = self.decide(cfg);
        reg.counter("pka.selections_examined")
            .add(self.selections_examined - before_examined);
        reg.counter("pka.cover_components")
            .add(self.cover_sets_visited - before_visited);
        if result.is_some() {
            reg.counter("pka.decisions").inc();
        }
        if self.truncated && !before_truncated {
            reg.counter("pka.truncations").inc();
        }
        result
    }

    /// Enumerates the candidate message sets in the order described at
    /// [`ReceiverState::decide`] and hands each claim selection to `visit`
    /// (with the shared truncation flag) until `visit` returns a value or
    /// the `max_selections` budget runs out. Returns the value, whether a
    /// budget was exceeded, and the number of selections examined.
    fn search_selections<F>(
        &self,
        cfg: &DecisionConfig,
        mut visit: F,
    ) -> (Option<Value>, bool, usize)
    where
        F: FnMut(&[(NodeId, &Claim)], &mut bool) -> Option<Value>,
    {
        let all_nodes: Vec<NodeId> = self.claims.keys().copied().collect();
        let mut excludable: NodeSet = all_nodes.iter().copied().collect();
        excludable.remove(self.dealer); // D must be in V_M for paths to exist

        let mut truncated = false;
        let mut examined = 0usize;
        for k in 0..=excludable.len() {
            for excluded in excludable.combinations(k) {
                let nodes: Vec<NodeId> = all_nodes
                    .iter()
                    .copied()
                    .filter(|u| !excluded.contains(*u))
                    .collect();
                let radices: Vec<usize> = nodes.iter().map(|u| self.claims[u].len()).collect();
                let mut counter = vec![0usize; nodes.len()];
                loop {
                    if examined >= cfg.max_selections {
                        return (None, true, examined);
                    }
                    examined += 1;
                    let selection: Vec<(NodeId, &Claim)> = nodes
                        .iter()
                        .zip(&counter)
                        .map(|(&u, &i)| (u, &self.claims[&u][i]))
                        .collect();
                    if let Some(x) = visit(&selection, &mut truncated) {
                        return (Some(x), truncated, examined);
                    }
                    // Advance the mixed-radix counter; done when it wraps.
                    let mut wrapped = true;
                    for (digit, &radix) in counter.iter_mut().zip(&radices) {
                        *digit += 1;
                        if *digit < radix {
                            wrapped = false;
                            break;
                        }
                        *digit = 0;
                    }
                    if wrapped {
                        break;
                    }
                }
            }
        }
        (None, truncated, examined)
    }

    /// Builds `G_M` for one claim selection and enumerates its D–R paths.
    /// `None` if M cannot decide: D or R is missing, G_M has no D–R path,
    /// or the path budget overflowed (which sets `truncated`).
    fn candidate(
        &self,
        selection: &[(NodeId, &Claim)],
        cfg: &DecisionConfig,
        truncated: &mut bool,
    ) -> Option<(Graph, Vec<Vec<NodeId>>)> {
        // V_M: the claiming nodes plus the receiver itself (whose knowledge
        // R holds locally).
        let mut v_m: NodeSet = selection.iter().map(|(u, _)| *u).collect();
        v_m.insert(self.me);
        if !v_m.contains(self.dealer) {
            return None;
        }

        // γ(V_M) and the induced G_M.
        let mut joint = self.my_view.clone();
        for (_, claim) in selection {
            joint.union_with(&claim.view);
        }
        let g_m = joint.induced(&v_m);
        if !g_m.contains_node(self.dealer) || !g_m.contains_node(self.me) {
            return None;
        }

        let all_paths = match paths::simple_paths(&g_m, self.dealer, self.me, cfg.max_paths) {
            Ok(p) => p,
            Err(_) => {
                *truncated = true;
                return None;
            }
        };
        if all_paths.is_empty() {
            return None;
        }
        Some((g_m, all_paths))
    }

    /// The first value `x` whose paths make M full: every D–R path of G_M
    /// arrived as a type-1 trail carrying `x`.
    fn full_value(&self, all_paths: &[Vec<NodeId>]) -> Option<Value> {
        self.type1
            .iter()
            .find(|(_, received)| all_paths.iter().all(|p| received.contains(p)))
            .map(|(&x, _)| x)
    }

    /// Examines one claim selection: builds G_M, looks for a value whose
    /// paths make M full, and decides it unless M has an adversary cover.
    fn examine_selection(
        &self,
        selection: &[(NodeId, &Claim)],
        cfg: &DecisionConfig,
        truncated: &mut bool,
        cover_sets_visited: &mut u64,
    ) -> Option<Value> {
        let (g_m, all_paths) = self.candidate(selection, cfg, truncated)?;
        if g_m.node_count().saturating_sub(2) > cfg.max_cover_candidates {
            // Cannot verify the absence of a cover: abstain conservatively.
            *truncated = true;
            return None;
        }
        // Fullness is cheap and fails for most selections (a trail or claim
        // is still missing), so it goes first; the cover verdict depends on
        // M alone, not on x.
        let x = self.full_value(&all_paths)?;
        if self.has_adversary_cover(&g_m, selection, cover_sets_visited) {
            return None;
        }
        Some(x)
    }

    /// Search for an adversary cover of M (Definition 6).
    ///
    /// Because the claimed structures are subset-closed, a cover exists iff
    /// some connected `B ∋ R` of `G_M` with `D ∉ N[B]` makes `C = N(B)` a
    /// cover: every `u ∈ B` admits `N(B) ∩ γ(u) ∈ 𝒵_u`. One include/exclude
    /// enumeration of the connected sets `B ∋ R` inside
    /// `V_M ∖ N_{G_M}[D]` visits each such `B` once. A branch is dropped as
    /// soon as its committed boundary (the part of `N(B)` no extension can
    /// absorb) is already rejected by some `u ∈ B`: every set of the branch
    /// keeps `u` and has a boundary containing the committed one.
    /// `cover_sets_visited` counts the sets the enumeration reaches.
    fn has_adversary_cover(
        &self,
        g_m: &Graph,
        selection: &[(NodeId, &Claim)],
        cover_sets_visited: &mut u64,
    ) -> bool {
        let knowledge = self.knowledge(selection);
        let mut allowed = g_m.nodes().clone();
        allowed.difference_with(&g_m.closed_neighborhood(self.dealer));
        let mut covered = false;
        traversal::for_each_connected_subset(
            g_m,
            self.me,
            &allowed,
            |b, frontier| {
                *cover_sets_visited += 1;
                let mut committed = traversal::neighborhood(g_m, b);
                committed.difference_with(frontier);
                rejects(b, &committed, &knowledge)
            },
            |b| {
                covered = !rejects(b, &traversal::neighborhood(g_m, b), &knowledge);
                !covered
            },
        );
        covered
    }

    /// Claimed knowledge (γ(u), 𝒵_u) per node of `V_M`.
    fn knowledge<'a>(
        &'a self,
        selection: &[(NodeId, &'a Claim)],
    ) -> BTreeMap<NodeId, (&'a NodeSet, &'a AdversaryStructure)> {
        selection
            .iter()
            .map(|(u, c)| (*u, (c.view.nodes(), &c.structure)))
            .chain(std::iter::once((
                self.me,
                (self.my_view.nodes(), &self.my_structure),
            )))
            .collect()
    }
}

/// `true` iff some node `u ∈ B` rejects the boundary: `boundary ∩ γ(u)` is
/// not in its claimed `𝒵_u` (the cylinder test for `𝒵_B` membership).
fn rejects(
    b: &NodeSet,
    boundary: &NodeSet,
    knowledge: &BTreeMap<NodeId, (&NodeSet, &AdversaryStructure)>,
) -> bool {
    b.iter().any(|u| {
        knowledge
            .get(&u)
            .is_some_and(|(gamma, structure)| !structure.contains(&boundary.intersection(gamma)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_graph::ViewKind;

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    /// Diamond D=0, relays 1,2, R=3 with ad hoc views and 𝒵 = {{1}}.
    fn setup(z_sets: &[&[u32]]) -> (ReceiverState, Graph, AdversaryStructure) {
        let mut g = Graph::new();
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        let z = AdversaryStructure::from_sets(
            z_sets
                .iter()
                .map(|s| s.iter().copied().collect::<NodeSet>()),
        );
        let me = NodeId::new(3);
        let my_view = ViewKind::AdHoc.view_of(&g, me);
        let my_structure = z.restrict_sets(my_view.nodes());
        (
            ReceiverState::new(me, 0.into(), my_view, my_structure),
            g,
            z,
        )
    }

    fn feed_honest(
        state: &mut ReceiverState,
        g: &Graph,
        z: &AdversaryStructure,
        x: Value,
        skip: &NodeSet,
    ) {
        // Claims from every non-receiver node not in `skip`.
        for u in g.nodes() {
            if u == state.me || skip.contains(u) {
                continue;
            }
            let view = ViewKind::AdHoc.view_of(g, u);
            let structure = z.restrict_sets(view.nodes());
            state.ingest_claim(u, view, structure);
        }
        // Trails through honest relays.
        for relay in [1u32, 2] {
            if !skip.contains(relay.into()) {
                state.ingest_value(x, &[0.into(), relay.into()]);
            }
        }
    }

    #[test]
    fn full_honest_information_decides() {
        let (mut state, g, z) = setup(&[&[1]]);
        feed_honest(&mut state, &g, &z, 7, &NodeSet::new());
        assert_eq!(state.decide(&DecisionConfig::default()), Some(7));
        assert!(!state.truncated);
    }

    #[test]
    fn silent_tolerated_corruption_still_decides() {
        // Node 1 silent (𝒵 = {{1}}): G_M misses 1, the only cover candidate
        // is {2} which is not admissible for B = {3}.
        let (mut state, g, z) = setup(&[&[1]]);
        feed_honest(&mut state, &g, &z, 7, &set(&[1]));
        assert_eq!(state.decide(&DecisionConfig::default()), Some(7));
    }

    #[test]
    fn cover_blocks_decision_when_both_relays_are_suspect() {
        // 𝒵 = {{1},{2}}: with node 1 silent, C = {2} is an adversary cover
        // of the received M — R must abstain.
        let (mut state, g, z) = setup(&[&[1], &[2]]);
        feed_honest(&mut state, &g, &z, 7, &set(&[1]));
        assert_eq!(state.decide(&DecisionConfig::default()), None);
    }

    #[test]
    fn exclusion_recovers_fullness_when_a_path_is_missing() {
        // All claims arrive but only the trail through 2 carries the value:
        // the M containing node 1's claim is not full, but the valid M that
        // *excludes* node 1 is full and cover-free ({2} ∉ 𝒵_R), so R decides
        // — the subset semantics of the full-message-set rule.
        let (mut state, g, z) = setup(&[&[1]]);
        for u in g.nodes() {
            if u == state.me {
                continue;
            }
            let view = ViewKind::AdHoc.view_of(&g, u);
            let structure = z.restrict_sets(view.nodes());
            state.ingest_claim(u, view, structure);
        }
        state.ingest_value(7, &[0.into(), 2.into()]);
        assert_eq!(state.decide(&DecisionConfig::default()), Some(7));
    }

    #[test]
    fn missing_path_blocks_when_exclusion_would_leave_a_cover() {
        // Same shape but 𝒵 = {{1},{2}}: excluding 1 leaves the cover {2},
        // keeping 1 breaks fullness — R must abstain either way.
        let (mut state, g, z) = setup(&[&[1], &[2]]);
        for u in g.nodes() {
            if u == state.me {
                continue;
            }
            let view = ViewKind::AdHoc.view_of(&g, u);
            let structure = z.restrict_sets(view.nodes());
            state.ingest_claim(u, view, structure);
        }
        state.ingest_value(7, &[0.into(), 2.into()]);
        assert_eq!(state.decide(&DecisionConfig::default()), None);
    }

    #[test]
    fn conflicting_values_on_all_paths_block_decision() {
        let (mut state, g, z) = setup(&[&[1]]);
        feed_honest(&mut state, &g, &z, 7, &NodeSet::new());
        // Corrupted 1 also injected value 9 over its trail: the 9-set is not
        // full (missing the path through 2), the 7-set is full and decides.
        state.ingest_value(9, &[0.into(), 1.into()]);
        assert_eq!(state.decide(&DecisionConfig::default()), Some(7));
    }

    #[test]
    fn malformed_claims_are_dropped() {
        let (mut state, _, _) = setup(&[&[1]]);
        let mut bad_view = Graph::new();
        bad_view.add_edge(0.into(), 2.into()); // does not contain claimant 1
        state.ingest_claim(1.into(), bad_view, AdversaryStructure::trivial());
        assert_eq!(state.malformed_claims, 1);
        assert_eq!(state.claim_count(1.into()), 0);

        let mut view = Graph::new();
        view.add_edge(1.into(), 0.into());
        let escaping = AdversaryStructure::from_sets([set(&[9])]);
        state.ingest_claim(1.into(), view, escaping);
        assert_eq!(state.malformed_claims, 2);
    }

    #[test]
    fn conflicting_claims_enumerate_both_options() {
        let (mut state, g, z) = setup(&[&[1]]);
        feed_honest(&mut state, &g, &z, 7, &NodeSet::new());
        // A second, fake claim about node 2 with an absurd view: the honest
        // selection still exists and decides.
        let mut fake = Graph::new();
        fake.add_edge(2.into(), 9.into());
        fake.add_node(2.into());
        state.ingest_claim(2.into(), fake, AdversaryStructure::trivial());
        assert_eq!(state.claim_count(2.into()), 2);
        assert_eq!(state.decide(&DecisionConfig::default()), Some(7));
    }

    #[test]
    fn observed_decide_is_transparent_and_records_effort() {
        let (mut state, g, z) = setup(&[&[1]]);
        feed_honest(&mut state, &g, &z, 7, &NodeSet::new());
        let mut twin = state.clone();
        let reg = Registry::new();
        let prof = rmt_obs::Profiler::new(rmt_obs::Clock::virtual_ns(1));
        reg.attach_profiler(prof.clone());
        let cfg = DecisionConfig::default();
        assert_eq!(state.decide_observed(&cfg, &reg), twin.decide(&cfg));
        assert_eq!(state.truncated, twin.truncated);
        assert_eq!(state.selections_examined, twin.selections_examined);
        assert_eq!(
            reg.counter("pka.selections_examined").get(),
            twin.selections_examined
        );
        assert_eq!(reg.counter("pka.decisions").get(), 1);
        assert_eq!(reg.counter("pka.truncations").get(), 0);
        assert_eq!(reg.histogram("pka.decide_ns").count(), 1);
        let roots = rmt_obs::span_tree(&prof.events()).expect("well nested");
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "pka.decide");
    }

    #[test]
    fn exhausted_selection_budget_sets_truncated() {
        let (mut state, g, z) = setup(&[&[1]]);
        feed_honest(&mut state, &g, &z, 7, &NodeSet::new());
        let cfg = DecisionConfig {
            max_selections: 0,
            ..DecisionConfig::default()
        };
        assert_eq!(state.decide(&cfg), None);
        assert!(state.truncated);
    }

    #[test]
    fn cover_budget_forces_conservative_abstention() {
        let (mut state, g, z) = setup(&[&[1]]);
        feed_honest(&mut state, &g, &z, 7, &NodeSet::new());
        let cfg = DecisionConfig {
            max_cover_candidates: 0,
            ..DecisionConfig::default()
        };
        // Unable to verify the absence of a cover, R abstains (safely).
        assert_eq!(state.decide(&cfg), None);
        assert!(state.truncated);
    }

    /// γ(B) from the claimed views of B.
    fn claimed_domain(
        b: &NodeSet,
        knowledge: &BTreeMap<NodeId, (&NodeSet, &AdversaryStructure)>,
    ) -> NodeSet {
        let mut gamma_b = NodeSet::new();
        for u in b {
            if let Some((gamma, _)) = knowledge.get(&u) {
                gamma_b.union_with(gamma);
            }
        }
        gamma_b
    }

    /// The exhaustive cover search the pruned enumeration replaced: every
    /// subset `C ⊆ V_M ∖ {D, R}` that cuts D from R in `G_M` is tried as a
    /// cover of R's component `B` of `G_M ∖ C`.
    fn oracle_has_cover(
        state: &ReceiverState,
        g_m: &Graph,
        selection: &[(NodeId, &Claim)],
    ) -> bool {
        let knowledge = state.knowledge(selection);
        let mut candidates = g_m.nodes().clone();
        candidates.remove(state.dealer);
        candidates.remove(state.me);
        candidates.subsets().any(|c| {
            let b = traversal::reachable_avoiding(g_m, state.me, &c);
            if b.contains(state.dealer) {
                return false; // not a cut of G_M
            }
            let trace = c.intersection(&claimed_domain(&b, &knowledge));
            b.iter().all(|u| {
                knowledge
                    .get(&u)
                    .is_none_or(|(gamma, structure)| structure.contains(&trace.intersection(gamma)))
            })
        })
    }

    /// The decision rule in its previous order, over the same selection
    /// enumeration: the exhaustive cover search first, then fullness.
    fn oracle_decide(state: &ReceiverState, cfg: &DecisionConfig) -> (Option<Value>, bool, usize) {
        if state.type1.is_empty() || !state.claims.contains_key(&state.dealer) {
            return (None, false, 0);
        }
        state.search_selections(cfg, |selection, truncated| {
            let (g_m, all_paths) = state.candidate(selection, cfg, truncated)?;
            if g_m.node_count().saturating_sub(2) > cfg.max_cover_candidates {
                *truncated = true;
                return None;
            }
            if oracle_has_cover(state, &g_m, selection) {
                return None;
            }
            state.full_value(&all_paths)
        })
    }

    /// A random receiver state: a connected graph on 4–10 nodes (D = 0,
    /// R = the last node), views of a random kind, an adversary structure
    /// that is a global or local threshold (t ∈ {1, 2}) or random sets,
    /// silent nodes, conflicting claims, claims by fictitious nodes, and
    /// honest, conflicting and fictitious type-1 trails. Budgets are drawn
    /// small and large so the truncation paths run too.
    fn random_case(seed: u64) -> (ReceiverState, DecisionConfig) {
        use rand::Rng as _;
        use rmt_graph::generators;
        let mut rng = generators::seeded(seed);
        let n = rng.random_range(4..=10usize);
        let g = generators::gnp_connected(n, rng.random_range(0.15..0.6), &mut rng);
        let dealer = NodeId::new(0);
        let me = NodeId::new(n as u32 - 1);
        let fictitious: Vec<NodeId> = (n as u32..n as u32 + 2).map(NodeId::new).collect();
        let kind = [ViewKind::AdHoc, ViewKind::Radius(1), ViewKind::Radius(2)]
            [rng.random_range(0..3usize)];
        let t = rng.random_range(1..=2usize);
        let mut relays = g.nodes().clone();
        relays.remove(dealer);
        relays.remove(me);
        let random_sets = |rng: &mut rand_chacha::ChaCha12Rng, ground: &NodeSet| {
            AdversaryStructure::from_sets((0..rng.random_range(1..4)).map(|_| {
                ground
                    .iter()
                    .filter(|_| rng.random_bool(0.35))
                    .collect::<NodeSet>()
            }))
        };
        let style = rng.random_range(0..3u32);
        let global = match style {
            0 => rmt_adversary::threshold(&relays, t),
            _ => random_sets(&mut rng, &relays),
        };
        let local = |view: &Graph, u: NodeId| match style {
            1 => {
                let mut around = view.nodes().clone();
                around.remove(u);
                rmt_adversary::local_threshold_trace(&around, t)
            }
            _ => global.restrict_sets(view.nodes()),
        };

        let my_view = kind.view_of(&g, me);
        let my_structure = local(&my_view, me);
        let mut state = ReceiverState::new(me, dealer, my_view, my_structure);
        let mut everyone: NodeSet = g.nodes().clone();
        everyone.extend(fictitious.iter().copied());
        for u in g.nodes() {
            if u == me {
                continue;
            }
            if u == dealer || !rng.random_bool(0.15) {
                let view = kind.view_of(&g, u);
                let structure = local(&view, u);
                state.ingest_claim(u, view, structure);
            }
            if rng.random_bool(0.2) {
                // A conflicting claim: a random star around u, possibly
                // reaching fictitious nodes, with a random structure.
                let mut fake = Graph::new();
                fake.add_node(u);
                for v in everyone.iter().filter(|&v| v != u && rng.random_bool(0.4)) {
                    fake.add_edge(u, v);
                }
                let structure = random_sets(&mut rng, fake.nodes());
                state.ingest_claim(u, fake, structure);
            }
        }
        for &f in &fictitious {
            if rng.random_bool(0.3) {
                let mut fake = Graph::new();
                fake.add_node(f);
                for v in g
                    .nodes()
                    .iter()
                    .filter(|&v| v != me && rng.random_bool(0.4))
                {
                    fake.add_edge(f, v);
                }
                state.ingest_claim(f, fake, AdversaryStructure::trivial());
            }
        }
        let honest = paths::simple_paths(&g, dealer, me, 500).unwrap_or_default();
        for path in &honest {
            let trail = &path[..path.len() - 1];
            if rng.random_bool(0.85) {
                state.ingest_value(7, trail);
            }
            if rng.random_bool(0.15) {
                state.ingest_value(9, trail);
            }
        }
        for &f in &fictitious {
            if rng.random_bool(0.3) {
                state.ingest_value(9, &[dealer, f]);
            }
        }
        let cfg = DecisionConfig {
            max_selections: [6, 48][rng.random_range(0..2usize)],
            max_paths: [3, 50_000][usize::from(rng.random_bool(0.85))],
            max_cover_candidates: [5, 22][usize::from(rng.random_bool(0.85))],
        };
        (state, cfg)
    }

    /// Compares the pruned cover search with the oracle on the `G_M` of
    /// every selection within the budget; returns (covered, compared).
    fn compare_covers(state: &ReceiverState, cfg: &DecisionConfig) -> (usize, usize) {
        let (mut covered, mut compared) = (0, 0);
        let mut visited = 0;
        state.search_selections(cfg, |selection, truncated| {
            if let Some((g_m, _)) = state.candidate(selection, cfg, truncated) {
                let fast = state.has_adversary_cover(&g_m, selection, &mut visited);
                assert_eq!(fast, oracle_has_cover(state, &g_m, selection), "{g_m:?}");
                covered += usize::from(fast);
                compared += 1;
            }
            None
        });
        (covered, compared)
    }

    proptest::proptest! {
        #[test]
        fn pruned_cover_search_matches_the_exhaustive_oracle(seed in proptest::prelude::any::<u64>()) {
            let (state, cfg) = random_case(seed);
            compare_covers(&state, &cfg);
            let (want, want_truncated, want_examined) = oracle_decide(&state, &cfg);
            let mut fast = state.clone();
            proptest::prop_assert_eq!(fast.decide(&cfg), want, "seed {}", seed);
            proptest::prop_assert_eq!(fast.truncated, want_truncated, "seed {}", seed);
            proptest::prop_assert_eq!(fast.selections_examined, want_examined as u64);
        }
    }

    #[test]
    fn cover_differential_exercises_both_verdicts() {
        // The differential above is only meaningful if covers are found
        // (the positive branch) as well as refuted, and if the receiver
        // both decides and abstains.
        let (mut covered, mut compared, mut decided, mut cases) = (0, 0, 0, 0);
        for seed in 0..64 {
            let (state, cfg) = random_case(seed);
            let (c, n) = compare_covers(&state, &cfg);
            covered += c;
            compared += n;
            decided += usize::from(state.clone().decide(&cfg).is_some());
            cases += 1;
        }
        assert!(
            covered * 20 >= compared && covered * 10 <= compared * 9,
            "{covered} of {compared} G_M have a cover"
        );
        assert!(
            decided > 0 && decided < cases,
            "{decided} of {cases} decided"
        );
    }

    use rmt_graph::Graph;
}
