//! Breadth-first traversal, reachability and connected components.

use std::collections::VecDeque;

use rmt_sets::{NodeId, NodeSet};

use crate::graph::Graph;

/// The set of nodes reachable from `start` without entering `blocked`.
///
/// `start` itself is included (if present and not blocked). This is the
/// primitive behind every cut predicate: `C` separates D from R iff R is not
/// in `reachable_avoiding(g, D, C)`.
pub fn reachable_avoiding(g: &Graph, start: NodeId, blocked: &NodeSet) -> NodeSet {
    let mut seen = NodeSet::new();
    if !g.contains_node(start) || blocked.contains(start) {
        return seen;
    }
    let mut queue = VecDeque::new();
    seen.insert(start);
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        for u in g.neighbors(v) {
            if !seen.contains(u) && !blocked.contains(u) {
                seen.insert(u);
                queue.push_back(u);
            }
        }
    }
    seen
}

/// The set of nodes reachable from `start`.
pub fn reachable(g: &Graph, start: NodeId) -> NodeSet {
    reachable_avoiding(g, start, &NodeSet::new())
}

/// The connected component containing `v` (empty if `v` is absent).
pub fn component_of(g: &Graph, v: NodeId) -> NodeSet {
    reachable(g, v)
}

/// The connected component of `v` in `G ∖ mask`, computed by masked BFS on
/// `g` itself — equivalent to `component_of(&g.without_nodes(mask), v)` but
/// without cloning the graph, which matters in the cut deciders where this
/// runs once per candidate cut.
///
/// Returns the empty set if `v` is masked or absent.
pub fn component_of_avoiding(g: &Graph, v: NodeId, mask: &NodeSet) -> NodeSet {
    reachable_avoiding(g, v, mask)
}

/// All connected components of `G ∖ mask`, ordered by their smallest node —
/// the masked, allocation-free equivalent of
/// `components(&g.without_nodes(mask))`.
pub fn components_avoiding(g: &Graph, mask: &NodeSet) -> Vec<NodeSet> {
    let mut remaining = g.nodes().difference(mask);
    let mut out = Vec::new();
    while let Some(v) = remaining.first() {
        let comp = component_of_avoiding(g, v, mask);
        remaining.difference_with(&comp);
        out.push(comp);
    }
    out
}

/// The open neighbourhood of a node set: `N(S) = (∪_{v∈S} N(v)) ∖ S`.
pub fn neighborhood(g: &Graph, s: &NodeSet) -> NodeSet {
    let mut out = NodeSet::new();
    for v in s {
        out.union_with(g.neighbors(v));
    }
    out.difference_with(s);
    out
}

/// Visits every **connected** subset of `allowed` (connectivity taken in the
/// subgraph induced on `allowed`) that contains `root`, each exactly once,
/// except those a `prune` hook rules out.
///
/// The enumeration is the classic include/exclude frontier recursion with
/// polynomial delay: from the current set `S`, each extension vertex `v`
/// (a neighbour of `S` inside `allowed` and not yet excluded) spawns one
/// branch on `S ∪ {v}` and is excluded from the following branches, so no
/// subset is ever produced twice. The order is deterministic: `{root}`
/// first, then depth-first by ascending extension vertex.
///
/// Before a set `S` is visited, `prune(S, frontier)` is asked, where
/// `frontier` is the set of vertices the branch may still add next (the
/// neighbours of `S` inside `allowed` not excluded on this path). Every set
/// of the branch is a superset of `S` whose open neighbourhood contains
/// `N(S) ∖ frontier`, the branch's committed boundary. Returning `true`
/// skips `S` and its whole branch; a never-pruning hook (`|_, _| false`)
/// visits every connected subset.
///
/// `f` returns `false` to stop the enumeration early; the function returns
/// `true` iff the enumeration ran to completion. If `root ∉ allowed`,
/// nothing is visited.
pub fn for_each_connected_subset<P, F>(
    g: &Graph,
    root: NodeId,
    allowed: &NodeSet,
    mut prune: P,
    mut f: F,
) -> bool
where
    P: FnMut(&NodeSet, &NodeSet) -> bool,
    F: FnMut(&NodeSet) -> bool,
{
    if !allowed.contains(root) || !g.contains_node(root) {
        return true;
    }
    let mut current = NodeSet::singleton(root);
    let mut ext0 = g.neighbors(root).intersection(allowed);
    ext0.remove(root);
    if prune(&current, &ext0) {
        return true;
    }
    if !f(&current) {
        return false;
    }
    recurse(
        g,
        allowed,
        &mut current,
        ext0,
        &NodeSet::new(),
        &mut prune,
        &mut f,
    )
}

/// One level of the include/exclude recursion: tries each extension vertex
/// in ascending order, recursing with it included (unless `prune` refutes
/// that branch) and excluding it afterwards. Returns `false` if `f` stopped
/// the enumeration.
fn recurse<P, F>(
    g: &Graph,
    allowed: &NodeSet,
    current: &mut NodeSet,
    extensions: NodeSet,
    excluded: &NodeSet,
    prune: &mut P,
    f: &mut F,
) -> bool
where
    P: FnMut(&NodeSet, &NodeSet) -> bool,
    F: FnMut(&NodeSet) -> bool,
{
    let mut excluded = excluded.clone();
    for v in &extensions {
        current.insert(v);
        // New frontier: v's neighbours inside `allowed`, minus what is
        // already in the set or excluded on this path.
        let mut next = extensions.union(&g.neighbors(v).intersection(allowed));
        next.difference_with(current);
        next.difference_with(&excluded);
        if !prune(current, &next) {
            if !f(current) {
                return false;
            }
            if !recurse(g, allowed, current, next, &excluded, prune, f) {
                return false;
            }
        }
        current.remove(v);
        excluded.insert(v);
    }
    true
}

/// All connected components, ordered by their smallest node.
pub fn components(g: &Graph) -> Vec<NodeSet> {
    let mut remaining = g.nodes().clone();
    let mut out = Vec::new();
    while let Some(v) = remaining.first() {
        let comp = component_of(g, v);
        remaining.difference_with(&comp);
        out.push(comp);
    }
    out
}

/// `true` if the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    match g.nodes().first() {
        None => true,
        Some(v) => component_of(g, v) == *g.nodes(),
    }
}

/// `true` if `u` and `v` are connected without entering `blocked`.
pub fn connected_avoiding(g: &Graph, u: NodeId, v: NodeId, blocked: &NodeSet) -> bool {
    reachable_avoiding(g, u, blocked).contains(v)
}

/// BFS distances from `start`; `None` for unreachable or absent nodes.
///
/// The returned vector is indexed by [`NodeId::index`] and sized to the
/// largest present id + 1.
pub fn distances(g: &Graph, start: NodeId) -> Vec<Option<u32>> {
    let size = g.nodes().last().map_or(0, |v| v.index() + 1);
    let mut dist = vec![None; size];
    if !g.contains_node(start) {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[start.index()] = Some(0);
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()].expect("queued nodes have distances");
        for u in g.neighbors(v) {
            if dist[u.index()].is_none() {
                dist[u.index()] = Some(d + 1);
                queue.push_back(u);
            }
        }
    }
    dist
}

/// The ball of radius `k` around `v`: nodes at BFS distance ≤ `k`.
pub fn ball(g: &Graph, v: NodeId, k: usize) -> NodeSet {
    let mut frontier = NodeSet::singleton(v);
    let mut seen = frontier.clone();
    if !g.contains_node(v) {
        return NodeSet::new();
    }
    for _ in 0..k {
        let mut next = NodeSet::new();
        for u in &frontier {
            next.union_with(g.neighbors(u));
        }
        next.difference_with(&seen);
        if next.is_empty() {
            break;
        }
        seen.union_with(&next);
        frontier = next;
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn reachability_respects_blocked_set() {
        let g = generators::path_graph(5); // 0-1-2-3-4
        assert_eq!(reachable(&g, 0.into()), NodeSet::universe(5));
        let r = reachable_avoiding(&g, 0.into(), &set(&[2]));
        assert_eq!(r, set(&[0, 1]));
        assert!(reachable_avoiding(&g, 0.into(), &set(&[0])).is_empty());
    }

    #[test]
    fn components_partition_the_nodes() {
        let mut g = generators::path_graph(3);
        g.add_edge(10.into(), 11.into());
        g.add_node(20.into());
        let comps = components(&g);
        assert_eq!(comps.len(), 3);
        let mut union = NodeSet::new();
        for c in &comps {
            assert!(union.is_disjoint(c));
            union.union_with(c);
        }
        assert_eq!(&union, g.nodes());
    }

    #[test]
    fn connectivity_predicates() {
        let g = generators::cycle(6);
        assert!(is_connected(&g));
        assert!(connected_avoiding(&g, 0.into(), 3.into(), &set(&[1])));
        assert!(!connected_avoiding(&g, 0.into(), 3.into(), &set(&[1, 5])));
        assert!(is_connected(&Graph::new()));
    }

    #[test]
    fn bfs_distances_on_a_cycle() {
        let g = generators::cycle(6);
        let d = distances(&g, 0.into());
        assert_eq!(d[0], Some(0));
        assert_eq!(d[1], Some(1));
        assert_eq!(d[3], Some(3));
        assert_eq!(d[5], Some(1));
    }

    #[test]
    fn distances_mark_unreachable_nodes() {
        let mut g = generators::path_graph(2);
        g.add_node(4.into());
        let d = distances(&g, 0.into());
        assert_eq!(d[1], Some(1));
        assert_eq!(d[4], None);
    }

    #[test]
    fn masked_traversal_matches_graph_surgery() {
        let mut rng = generators::seeded(4242);
        for trial in 0..40 {
            let n = 4 + trial % 7;
            let g = generators::gnp(n, 0.3, &mut rng);
            let mask: NodeSet = g.nodes().iter().filter(|v| v.raw() % 3 == 1).collect();
            let without = g.without_nodes(&mask);
            assert_eq!(components_avoiding(&g, &mask), components(&without));
            for v in g.nodes().difference(&mask).iter() {
                assert_eq!(
                    component_of_avoiding(&g, v, &mask),
                    component_of(&without, v),
                    "trial {trial}, node {v}"
                );
            }
        }
    }

    #[test]
    fn masked_component_of_masked_node_is_empty() {
        let g = generators::path_graph(4);
        assert!(component_of_avoiding(&g, 1.into(), &set(&[1])).is_empty());
        assert!(component_of_avoiding(&g, 9.into(), &NodeSet::new()).is_empty());
    }

    #[test]
    fn neighborhood_is_open() {
        let g = generators::cycle(6);
        assert_eq!(neighborhood(&g, &set(&[0, 1])), set(&[2, 5]));
        assert_eq!(neighborhood(&g, &NodeSet::new()), NodeSet::new());
        assert_eq!(neighborhood(&g, g.nodes()), NodeSet::new());
    }

    /// Brute-force reference: all subsets of `allowed` containing `root`
    /// that induce a connected subgraph.
    fn brute_connected_subsets(g: &Graph, root: NodeId, allowed: &NodeSet) -> Vec<NodeSet> {
        allowed
            .subsets()
            .filter(|s| {
                s.contains(root) && reachable_avoiding(g, root, &g.nodes().difference(s)) == *s
            })
            .collect()
    }

    #[test]
    fn connected_subset_enumeration_is_exact_and_duplicate_free() {
        let mut rng = generators::seeded(515);
        for trial in 0..40 {
            let n = 4 + trial % 6;
            let g = generators::gnp(n, 0.35, &mut rng);
            let allowed: NodeSet = g.nodes().iter().filter(|v| v.raw() % 4 != 2).collect();
            let root = match allowed.first() {
                Some(v) => v,
                None => continue,
            };
            let mut seen = Vec::new();
            let completed = for_each_connected_subset(
                &g,
                root,
                &allowed,
                |_, _| false,
                |s| {
                    seen.push(s.clone());
                    true
                },
            );
            assert!(completed);
            let mut expected = brute_connected_subsets(&g, root, &allowed);
            let mut got = seen.clone();
            got.sort();
            expected.sort();
            assert_eq!(got, expected, "trial {trial}: {g:?}");
            got.dedup();
            assert_eq!(got.len(), seen.len(), "trial {trial}: duplicates");
        }
    }

    #[test]
    fn connected_subset_enumeration_stops_early_and_handles_absent_root() {
        let g = generators::cycle(8);
        let mut count = 0;
        let completed = for_each_connected_subset(
            &g,
            0.into(),
            g.nodes(),
            |_, _| false,
            |_| {
                count += 1;
                count < 5
            },
        );
        assert!(!completed);
        assert_eq!(count, 5);
        // Root outside `allowed`: vacuously complete, nothing visited.
        assert!(for_each_connected_subset(
            &g,
            0.into(),
            &set(&[1, 2]),
            |_, _| panic!("must not consult the prune hook"),
            |_| { panic!("must not visit") }
        ));
    }

    #[test]
    fn connected_subset_visit_order_is_fixed() {
        // The 4-cycle 0-1-2-3-0 from root 0: depth-first by ascending
        // extension vertex, with each set's frontier. Separator scans count
        // emissions in this order, so it must not drift.
        let g = generators::cycle(4);
        let mut seen = Vec::new();
        let mut frontiers = Vec::new();
        let completed = for_each_connected_subset(
            &g,
            0.into(),
            g.nodes(),
            |s, frontier| {
                frontiers.push((s.clone(), frontier.clone()));
                false
            },
            |s| {
                seen.push(s.clone());
                true
            },
        );
        assert!(completed);
        let order: Vec<NodeSet> = [
            &[0][..],
            &[0, 1],
            &[0, 1, 2],
            &[0, 1, 2, 3],
            &[0, 1, 3],
            &[0, 3],
            &[0, 2, 3],
        ]
        .iter()
        .map(|ids| set(ids))
        .collect();
        assert_eq!(seen, order);
        let expected_frontiers: Vec<NodeSet> = [&[1, 3][..], &[2, 3], &[3], &[], &[], &[2], &[]]
            .iter()
            .map(|ids| set(ids))
            .collect();
        assert_eq!(
            frontiers,
            order
                .into_iter()
                .zip(expected_frontiers)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn pruning_a_set_skips_its_whole_branch() {
        // Refuting {0,1} drops every set containing both 0 and 1 (the
        // branch excludes nothing yet); node 1 is then excluded.
        let g = generators::cycle(4);
        let mut seen = Vec::new();
        let completed = for_each_connected_subset(
            &g,
            0.into(),
            g.nodes(),
            |s, _| *s == set(&[0, 1]),
            |s| {
                seen.push(s.clone());
                true
            },
        );
        assert!(completed);
        assert_eq!(seen, vec![set(&[0]), set(&[0, 3]), set(&[0, 2, 3])]);
        // Pruning the root visits nothing and still completes.
        assert!(for_each_connected_subset(
            &g,
            0.into(),
            g.nodes(),
            |_, _| true,
            |_| panic!("pruned root must not be visited"),
        ));
    }

    #[test]
    fn balls_grow_with_radius() {
        let g = generators::path_graph(7);
        assert_eq!(ball(&g, 3.into(), 0), set(&[3]));
        assert_eq!(ball(&g, 3.into(), 1), set(&[2, 3, 4]));
        assert_eq!(ball(&g, 3.into(), 2), set(&[1, 2, 3, 4, 5]));
        assert_eq!(ball(&g, 3.into(), 99), NodeSet::universe(7));
    }

    use crate::graph::Graph;
}
