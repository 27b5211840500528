//! Property tests for graph invariants: components partition the node set,
//! cuts separate, Menger duality, and view/joint-view laws.

use proptest::prelude::*;
use rmt_graph::{cuts, generators, paths, traversal, Graph, ViewAssignment, ViewKind};
use rmt_sets::{NodeId, NodeSet};

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..10, 0.0f64..1.0, any::<u64>())
        .prop_map(|(n, p, seed)| generators::gnp(n, p, &mut generators::seeded(seed)))
}

fn arb_connected() -> impl Strategy<Value = Graph> {
    (2usize..10, 0.0f64..0.6, any::<u64>())
        .prop_map(|(n, p, seed)| generators::gnp_connected(n, p, &mut generators::seeded(seed)))
}

/// Per-node subset-closed families in the shape of the RMT-PKA cover test:
/// node `u` admits a boundary `C` iff `C ∩ γ(u)` lies inside one of its
/// maximal sets.
#[derive(Debug)]
struct Families {
    gamma: Vec<NodeSet>,
    maximal: Vec<Vec<NodeSet>>,
}

impl Families {
    fn admits(&self, u: NodeId, boundary: &NodeSet) -> bool {
        let trace = boundary.intersection(&self.gamma[u.index()]);
        self.maximal[u.index()].iter().any(|m| trace.is_subset(m))
    }

    /// `true` iff some node of `b` rejects `boundary`.
    fn refutes(&self, b: &NodeSet, boundary: &NodeSet) -> bool {
        b.iter().any(|u| !self.admits(u, boundary))
    }
}

/// A random graph on up to 12 nodes, an `allowed` mask and random families.
fn arb_cover_case() -> impl Strategy<Value = (Graph, NodeSet, Families)> {
    (1usize..=12, 0.1f64..0.7, any::<u64>()).prop_map(|(n, p, seed)| {
        use rand::Rng as _;
        let mut rng = generators::seeded(seed);
        let g = generators::gnp(n, p, &mut rng);
        let allowed: NodeSet = g.nodes().iter().filter(|_| rng.random_bool(0.8)).collect();
        let mut gamma = Vec::new();
        let mut maximal = Vec::new();
        for u in g.nodes() {
            let mut view: NodeSet = g.nodes().iter().filter(|_| rng.random_bool(0.6)).collect();
            view.insert(u);
            gamma.push(view);
            let sets = rng.random_range(0..4);
            maximal.push(
                (0..sets)
                    .map(|_| g.nodes().iter().filter(|_| rng.random_bool(0.4)).collect())
                    .collect(),
            );
        }
        (g, allowed, Families { gamma, maximal })
    })
}

proptest! {
    #[test]
    fn components_partition_nodes(g in arb_graph()) {
        let comps = traversal::components(&g);
        let mut union = NodeSet::new();
        for c in &comps {
            prop_assert!(!c.is_empty());
            prop_assert!(union.is_disjoint(c));
            union.union_with(c);
        }
        prop_assert_eq!(&union, g.nodes());
        // No edges across components.
        for (u, v) in g.edges() {
            prop_assert!(comps.iter().any(|c| c.contains(u) && c.contains(v)));
        }
    }

    #[test]
    fn menger_duality(g in arb_connected()) {
        let d = NodeId::new(0);
        let r = g.nodes().last().unwrap();
        if d != r && !g.has_edge(d, r) {
            let k = cuts::vertex_connectivity(&g, d, r).unwrap();
            let cut = cuts::min_vertex_cut(&g, d, r).unwrap();
            prop_assert_eq!(cut.len(), k);
            if k > 0 {
                prop_assert!(cuts::is_dr_cut(&g, d, r, &cut));
            }
            // No smaller subset separates: every (k-1)-subset of any minimal
            // cut fails. (Checked via the enumeration on these small graphs.)
            for c in cuts::minimal_dr_cuts(&g, d, r) {
                prop_assert!(c.len() >= k);
            }
            // Path count lower-bounds: there are at least k vertex-disjoint
            // paths, so at least k simple paths.
            if k > 0 {
                let n_paths = paths::count_simple_paths(&g, d, r, 100_000).unwrap();
                prop_assert!(n_paths >= k);
            }
        }
    }

    #[test]
    fn enumerated_paths_are_valid_and_distinct(g in arb_connected()) {
        let d = NodeId::new(0);
        let r = g.nodes().last().unwrap();
        if d != r {
            let ps = paths::simple_paths(&g, d, r, 100_000).unwrap();
            let mut seen = std::collections::HashSet::new();
            for p in &ps {
                prop_assert!(paths::is_simple_path(&g, p));
                prop_assert_eq!(p.first(), Some(&d));
                prop_assert_eq!(p.last(), Some(&r));
                prop_assert!(seen.insert(p.clone()));
            }
        }
    }

    #[test]
    fn induced_then_union_recovers_subgraphs(g in arb_graph(), mask_seed in any::<u64>()) {
        let mut rng = generators::seeded(mask_seed);
        use rand::Rng as _;
        let keep: NodeSet = g.nodes().iter().filter(|_| rng.random_bool(0.5)).collect();
        let a = g.induced(&keep);
        let b = g.induced(&g.nodes().difference(&keep));
        let u = a.union(&b);
        prop_assert_eq!(u.nodes(), g.nodes());
        // The union lacks exactly the crossing edges.
        prop_assert!(u.edge_count() <= g.edge_count());
        for (x, y) in u.edges() {
            prop_assert!(g.has_edge(x, y));
        }
    }

    #[test]
    fn joint_view_covers_individual_views(g in arb_connected()) {
        let gamma = ViewAssignment::uniform(&g, ViewKind::AdHoc);
        let joint = gamma.joint_view(g.nodes());
        // Joint over all nodes reconstructs the whole graph in the ad hoc model.
        prop_assert_eq!(joint.nodes(), g.nodes());
        prop_assert_eq!(joint.edge_count(), g.edge_count());
        // Radius views grow monotonically with k.
        for v in g.nodes() {
            let v1 = ViewKind::Radius(1).view_of(&g, v);
            let v2 = ViewKind::Radius(2).view_of(&g, v);
            prop_assert!(v1.nodes().is_subset(v2.nodes()));
        }
    }

    #[test]
    fn ball_matches_bfs_distances(g in arb_graph(), k in 0usize..4) {
        for v in g.nodes() {
            let ball = traversal::ball(&g, v, k);
            let dist = traversal::distances(&g, v);
            for u in g.nodes() {
                let within = dist[u.index()].is_some_and(|d| d as usize <= k);
                prop_assert_eq!(ball.contains(u), within);
            }
        }
    }

    #[test]
    fn pruned_connected_subset_search_is_exact(case in arb_cover_case()) {
        // Pruning on the committed boundary N(S) ∖ frontier is exact for
        // subset-closed families: the pruned search visits an ordered
        // subsequence of the full scan and keeps every witness, i.e. every
        // B with N(B) admitted by all of B.
        let (g, allowed, fam) = case;
        let root = NodeId::new(0);
        let mut all = Vec::new();
        prop_assert!(traversal::for_each_connected_subset(&g, root, &allowed, |_, _| false, |b| {
            all.push(b.clone());
            true
        }));
        let mut pruned = Vec::new();
        prop_assert!(traversal::for_each_connected_subset(
            &g,
            root,
            &allowed,
            |b, frontier| {
                let mut committed = traversal::neighborhood(&g, b);
                committed.difference_with(frontier);
                fam.refutes(b, &committed)
            },
            |b| {
                pruned.push(b.clone());
                true
            },
        ));
        let mut rest = all.iter();
        for b in &pruned {
            prop_assert!(rest.any(|a| a == b), "{b:?} is not in the full scan's order");
        }
        let is_witness = |b: &&NodeSet| !fam.refutes(b, &traversal::neighborhood(&g, b));
        let full: Vec<&NodeSet> = all.iter().filter(is_witness).collect();
        let kept: Vec<&NodeSet> = pruned.iter().filter(is_witness).collect();
        prop_assert_eq!(kept, full);
    }
}
