//! Strongly connected components.
//!
//! The paper finds wash-trading candidates by computing, for each NFT's
//! transaction graph, the strongly connected components "consisting of at
//! least two nodes and including single nodes with a self-loop" using
//! Tarjan's algorithm with Nuutila's modifications (the variant implemented
//! by NetworkX). This module provides:
//!
//! * [`strongly_connected_components`] — an **iterative** Tarjan/Nuutila SCC
//!   over a [`DiMultiGraph`] (iterative so that long trading chains cannot
//!   overflow the call stack),
//! * [`suspicious_components`] — the paper's filtered view (≥ 2 nodes, or a
//!   single node with a self-loop),
//! * [`suspicious_components_masked`] — the same filtered view restricted to
//!   a node subset *without materializing the subgraph*: ring refinement
//!   drops service accounts and contracts and re-runs SCC, and the masked
//!   variant answers that query on the original graph directly,
//!
//! Every entry point reuses a per-thread set of traversal buffers, so a
//! sweep over many graphs (one per NFT) pays for allocation once per thread
//! instead of once per graph. The tests cross-check Tarjan's output against
//! an independent Kosaraju implementation.
//!
//! The traversal walks the graph's CSR adjacency slices
//! ([`DiMultiGraph::outgoing_edges`]) in place: no per-node successor lists
//! are built, and parallel edges are simply revisited (harmless for Tarjan —
//! the `on_stack`/`lowlink` updates are idempotent).

use std::cell::RefCell;
use std::hash::Hash;

use crate::multigraph::{DiMultiGraph, NodeIndex};

const UNVISITED: usize = usize::MAX;

/// Explicit DFS frame: enter a node, or resume it at a successor position.
enum Frame {
    Enter(NodeIndex),
    Resume(NodeIndex, usize),
}

/// Reusable buffers for the iterative Tarjan traversal.
///
/// All state the search needs — discovery indices, lowlinks, the Tarjan
/// stack and the explicit call stack — lives here, sized to the graph on
/// each run but *retaining capacity* across runs. The per-NFT SCC sweep
/// reuses one scratch per worker thread, which removes every allocation
/// from the steady state. A scratch is not tied to any particular graph.
#[derive(Default)]
pub(crate) struct SccScratch {
    index_of: Vec<usize>,
    lowlink: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<NodeIndex>,
    call_stack: Vec<Frame>,
}

impl SccScratch {
    /// Fresh scratch with no capacity yet.
    fn new() -> Self {
        SccScratch::default()
    }

    /// Size every buffer for an `n`-node graph, keeping allocations.
    fn reset(&mut self, n: usize) {
        self.index_of.clear();
        self.index_of.resize(n, UNVISITED);
        self.lowlink.clear();
        self.lowlink.resize(n, 0);
        self.on_stack.clear();
        self.on_stack.resize(n, false);
        self.stack.clear();
        self.call_stack.clear();
    }
}

thread_local! {
    /// Per-thread scratch backing the convenience entry points. The worker
    /// threads of a fork–join executor each get their own, so a sweep over
    /// thousands of NFT graphs allocates traversal state once per thread.
    static THREAD_SCRATCH: RefCell<SccScratch> = RefCell::new(SccScratch::new());
}

fn with_thread_scratch<R>(f: impl FnOnce(&mut SccScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        // Re-entrant use (caller already holds the scratch): fall back to a
        // one-off allocation rather than panicking.
        Err(_) => f(&mut SccScratch::new()),
    })
}

/// The Tarjan/Nuutila core. `keep` optionally restricts the search to a node
/// subset: masked-out nodes are never entered and their edges are skipped,
/// which is exactly SCC on the induced subgraph.
fn tarjan<N: Eq + Hash + Clone, E>(
    graph: &DiMultiGraph<N, E>,
    keep: Option<&[bool]>,
    scratch: &mut SccScratch,
) -> Vec<Vec<NodeIndex>> {
    let n = graph.node_count();
    if let Some(mask) = keep {
        assert_eq!(mask.len(), n, "keep mask must cover every node");
    }
    scratch.reset(n);
    let kept = |node: NodeIndex| keep.is_none_or(|mask| mask[node]);
    let mut next_index = 0usize;
    let mut components: Vec<Vec<NodeIndex>> = Vec::new();

    for start in 0..n {
        if scratch.index_of[start] != UNVISITED || !kept(start) {
            continue;
        }
        scratch.call_stack.push(Frame::Enter(start));
        while let Some(frame) = scratch.call_stack.pop() {
            match frame {
                Frame::Enter(v) => {
                    scratch.index_of[v] = next_index;
                    scratch.lowlink[v] = next_index;
                    next_index += 1;
                    scratch.stack.push(v);
                    scratch.on_stack[v] = true;
                    scratch.call_stack.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut child_position) => {
                    // The CSR slice is indexable, so the frame can resume at
                    // its saved position without rebuilding a successor list.
                    let successors = graph.outgoing_edges(v);
                    let mut descended = false;
                    while child_position < successors.len() {
                        let w = graph.edge_target(successors[child_position]);
                        child_position += 1;
                        if !kept(w) {
                            continue;
                        }
                        if scratch.index_of[w] == UNVISITED {
                            // Descend into w, then resume v afterwards.
                            scratch.call_stack.push(Frame::Resume(v, child_position));
                            scratch.call_stack.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if scratch.on_stack[w] {
                            scratch.lowlink[v] = scratch.lowlink[v].min(scratch.index_of[w]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    // All successors processed: close v.
                    if scratch.lowlink[v] == scratch.index_of[v] {
                        let mut component = Vec::new();
                        loop {
                            let w = scratch.stack.pop().expect("stack non-empty closing root");
                            scratch.on_stack[w] = false;
                            component.push(w);
                            if w == v {
                                break;
                            }
                        }
                        component.sort_unstable();
                        components.push(component);
                    }
                    // Propagate lowlink to the parent frame, if any.
                    if let Some(Frame::Resume(parent, _)) = scratch.call_stack.last() {
                        let parent = *parent;
                        scratch.lowlink[parent] = scratch.lowlink[parent].min(scratch.lowlink[v]);
                    }
                }
            }
        }
    }
    components
}

/// Compute all strongly connected components of `graph`.
///
/// Components are returned as vectors of node indices. Every node appears in
/// exactly one component (singletons included). Components are emitted in
/// reverse topological order of the condensation (a property of Tarjan's
/// algorithm), and node indices within a component are sorted ascending for
/// deterministic output.
///
/// Uses the per-thread traversal buffers.
pub fn strongly_connected_components<N: Eq + Hash + Clone, E>(
    graph: &DiMultiGraph<N, E>,
) -> Vec<Vec<NodeIndex>> {
    with_thread_scratch(|scratch| tarjan(graph, None, scratch))
}

/// The paper's candidate components: strongly connected components with at
/// least two nodes, plus single nodes that carry a self-loop.
pub fn suspicious_components<N: Eq + Hash + Clone, E>(
    graph: &DiMultiGraph<N, E>,
) -> Vec<Vec<NodeIndex>> {
    with_thread_scratch(|scratch| filter_suspicious(graph, tarjan(graph, None, scratch)))
}

/// [`suspicious_components`] restricted to the nodes where `keep` is `true`,
/// computed on the original graph — equivalent to building the subgraph
/// induced by the kept nodes and running [`suspicious_components`] on it,
/// but with no graph construction. Indices in the result are indices into
/// `graph` (not a rebuilt subgraph).
///
/// # Panics
///
/// Panics if `keep.len() != graph.node_count()`.
pub fn suspicious_components_masked<N: Eq + Hash + Clone, E>(
    graph: &DiMultiGraph<N, E>,
    keep: &[bool],
) -> Vec<Vec<NodeIndex>> {
    with_thread_scratch(|scratch| filter_suspicious(graph, tarjan(graph, Some(keep), scratch)))
}

/// Apply the "≥ 2 nodes or self-loop singleton" filter. A self-loop's two
/// endpoints are the same node, so the check is mask-agnostic: a kept
/// singleton's self-loop lies entirely inside any induced subgraph.
fn filter_suspicious<N: Eq + Hash + Clone, E>(
    graph: &DiMultiGraph<N, E>,
    components: Vec<Vec<NodeIndex>>,
) -> Vec<Vec<NodeIndex>> {
    components
        .into_iter()
        .filter(|component| component.len() >= 2 || graph.has_self_loop(component[0]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_from_edges(n: usize, edges: &[(usize, usize)]) -> DiMultiGraph<usize, ()> {
        let mut graph = DiMultiGraph::new();
        for i in 0..n {
            graph.add_node(i);
        }
        for &(s, t) in edges {
            graph.add_edge(s, t, ());
        }
        graph
    }

    fn normalize(mut components: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
        components.sort();
        components
    }

    /// Reference Kosaraju implementation (two DFS passes), the independent
    /// oracle the Tarjan implementation is cross-checked against. Returns
    /// components with sorted node indices; the set of components is identical
    /// to [`strongly_connected_components`] up to ordering.
    fn kosaraju_scc<N: Eq + Hash + Clone, E>(graph: &DiMultiGraph<N, E>) -> Vec<Vec<NodeIndex>> {
        let n = graph.node_count();
        let mut visited = vec![false; n];
        let mut order: Vec<NodeIndex> = Vec::with_capacity(n);

        // First pass: finish times on the forward graph (iterative DFS over the
        // CSR slices; parallel edges revisit already-marked nodes, harmlessly).
        for start in 0..n {
            if visited[start] {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            visited[start] = true;
            while let Some(&mut (v, ref mut position)) = stack.last_mut() {
                let successors = graph.outgoing_edges(v);
                if *position < successors.len() {
                    let w = graph.edge_target(successors[*position]);
                    *position += 1;
                    if !visited[w] {
                        visited[w] = true;
                        stack.push((w, 0));
                    }
                } else {
                    order.push(v);
                    stack.pop();
                }
            }
        }

        // Second pass: DFS on the reverse graph in reverse finish order.
        let mut assigned = vec![usize::MAX; n];
        let mut components: Vec<Vec<NodeIndex>> = Vec::new();
        for &start in order.iter().rev() {
            if assigned[start] != usize::MAX {
                continue;
            }
            let component_id = components.len();
            let mut component = Vec::new();
            let mut stack = vec![start];
            assigned[start] = component_id;
            while let Some(v) = stack.pop() {
                component.push(v);
                for w in graph.predecessors_iter(v) {
                    if assigned[w] == usize::MAX {
                        assigned[w] = component_id;
                        stack.push(w);
                    }
                }
            }
            component.sort_unstable();
            components.push(component);
        }
        components
    }

    /// Reference semantics for the masked variant: materialize the induced
    /// subgraph and run the unmasked filter on it.
    fn suspicious_by_rebuild(graph: &DiMultiGraph<usize, ()>, keep: &[bool]) -> Vec<Vec<usize>> {
        let mut filtered: DiMultiGraph<usize, ()> = DiMultiGraph::new();
        for (index, key) in graph.nodes() {
            if keep[index] {
                filtered.add_node(*key);
            }
        }
        for edge in graph.edges() {
            if keep[edge.source] && keep[edge.target] {
                filtered.add_edge_by_key(*graph.node(edge.source), *graph.node(edge.target), ());
            }
        }
        suspicious_components(&filtered)
            .into_iter()
            .map(|component| {
                let mut keys: Vec<usize> = component.iter().map(|&i| *filtered.node(i)).collect();
                keys.sort_unstable();
                keys
            })
            .collect()
    }

    #[test]
    fn single_cycle_is_one_component() {
        let graph = graph_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let sccs = strongly_connected_components(&graph);
        assert_eq!(normalize(sccs), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn dag_has_only_singletons() {
        let graph = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let sccs = strongly_connected_components(&graph);
        assert_eq!(sccs.len(), 4);
        assert!(sccs.iter().all(|c| c.len() == 1));
        assert!(suspicious_components(&graph).is_empty());
    }

    #[test]
    fn round_trip_pair_is_suspicious() {
        let graph = graph_from_edges(3, &[(0, 1), (1, 0), (1, 2)]);
        let suspicious = suspicious_components(&graph);
        assert_eq!(normalize(suspicious), vec![vec![0, 1]]);
    }

    #[test]
    fn self_loop_singleton_is_suspicious() {
        let graph = graph_from_edges(2, &[(0, 0), (0, 1)]);
        let suspicious = suspicious_components(&graph);
        assert_eq!(normalize(suspicious), vec![vec![0]]);
    }

    #[test]
    fn singleton_without_self_loop_is_not_suspicious() {
        let graph = graph_from_edges(2, &[(0, 1)]);
        assert!(suspicious_components(&graph).is_empty());
    }

    #[test]
    fn two_separate_cycles() {
        let graph = graph_from_edges(6, &[(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (4, 5)]);
        let sccs = normalize(strongly_connected_components(&graph));
        assert!(sccs.contains(&vec![0, 1]));
        assert!(sccs.contains(&vec![2, 3, 4]));
        assert!(sccs.contains(&vec![5]));
        assert_eq!(sccs.len(), 3);
    }

    #[test]
    fn parallel_edges_do_not_change_components() {
        let graph = graph_from_edges(2, &[(0, 1), (0, 1), (1, 0), (1, 0), (1, 0)]);
        let sccs = strongly_connected_components(&graph);
        assert_eq!(normalize(sccs), vec![vec![0, 1]]);
    }

    #[test]
    fn empty_graph() {
        let graph: DiMultiGraph<usize, ()> = DiMultiGraph::new();
        assert!(strongly_connected_components(&graph).is_empty());
        assert!(suspicious_components(&graph).is_empty());
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 100k-node cycle: a recursive Tarjan would overflow here.
        let n = 100_000;
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        let graph = graph_from_edges(n, &edges);
        let sccs = strongly_connected_components(&graph);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0].len(), n);
    }

    #[test]
    fn scratch_is_reusable_across_graphs_of_different_sizes() {
        let mut scratch = SccScratch::new();
        let big = graph_from_edges(50, &(0..49).map(|i| (i, i + 1)).collect::<Vec<_>>());
        assert_eq!(tarjan(&big, None, &mut scratch).len(), 50);
        let small = graph_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let sccs = tarjan(&small, None, &mut scratch);
        assert_eq!(normalize(sccs), vec![vec![0, 1, 2]]);
        // And back up again.
        let cycle = graph_from_edges(10, &{
            let mut e: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
            e.push((9, 0));
            e
        });
        assert_eq!(tarjan(&cycle, None, &mut scratch).len(), 1);
    }

    #[test]
    fn masked_drops_nodes_and_their_edges() {
        // 0 <-> 1 <-> 2 in a triangle; masking node 1 out leaves 0 and 2
        // disconnected singletons — nothing suspicious remains.
        let graph = graph_from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]);
        let all = suspicious_components_masked(&graph, &[true, true, true]);
        assert_eq!(normalize(all), vec![vec![0, 1, 2]]);
        let masked = suspicious_components_masked(&graph, &[true, false, true]);
        assert_eq!(normalize(masked), vec![vec![0, 2]]);
        let isolated = suspicious_components_masked(&graph, &[true, false, false]);
        assert!(isolated.is_empty());
    }

    #[test]
    fn masked_keeps_self_loop_singletons() {
        let graph = graph_from_edges(3, &[(0, 0), (0, 1), (1, 2)]);
        let masked = suspicious_components_masked(&graph, &[true, false, true]);
        assert_eq!(normalize(masked), vec![vec![0]]);
    }

    #[test]
    fn tarjan_matches_kosaraju_on_fixed_graphs() {
        let cases: Vec<(usize, Vec<(usize, usize)>)> = vec![
            (5, vec![(0, 1), (1, 2), (2, 0), (3, 4)]),
            (6, vec![(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4), (1, 2), (3, 4)]),
            (4, vec![(0, 0), (1, 1), (2, 3), (3, 2)]),
            (7, vec![(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 4)]),
        ];
        for (n, edges) in cases {
            let graph = graph_from_edges(n, &edges);
            assert_eq!(
                normalize(strongly_connected_components(&graph)),
                normalize(kosaraju_scc(&graph)),
                "mismatch on n={n}, edges={edges:?}"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn tarjan_matches_kosaraju_on_random_graphs(
            n in 1usize..40,
            edges in proptest::collection::vec((0usize..40, 0usize..40), 0..120)
        ) {
            let edges: Vec<(usize, usize)> =
                edges.into_iter().map(|(s, t)| (s % n, t % n)).collect();
            let graph = graph_from_edges(n, &edges);
            let tarjan = normalize(strongly_connected_components(&graph));
            let kosaraju = normalize(kosaraju_scc(&graph));
            proptest::prop_assert_eq!(&tarjan, &kosaraju);
            // Partition property: every node appears exactly once.
            let mut seen: Vec<usize> = tarjan.iter().flatten().copied().collect();
            seen.sort_unstable();
            proptest::prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }

        #[test]
        fn suspicious_components_respect_definition(
            n in 1usize..25,
            edges in proptest::collection::vec((0usize..25, 0usize..25), 0..80)
        ) {
            let edges: Vec<(usize, usize)> =
                edges.into_iter().map(|(s, t)| (s % n, t % n)).collect();
            let graph = graph_from_edges(n, &edges);
            for component in suspicious_components(&graph) {
                proptest::prop_assert!(
                    component.len() >= 2 || graph.has_self_loop(component[0])
                );
            }
        }

        #[test]
        fn masked_matches_subgraph_rebuild(
            n in 1usize..20,
            edges in proptest::collection::vec((0usize..20, 0usize..20), 0..60),
            mask_bits in proptest::collection::vec(0usize..2, 20..21)
        ) {
            let edges: Vec<(usize, usize)> =
                edges.into_iter().map(|(s, t)| (s % n, t % n)).collect();
            let graph = graph_from_edges(n, &edges);
            let keep: Vec<bool> = mask_bits[..n].iter().map(|&bit| bit == 1).collect();
            let masked: Vec<Vec<usize>> = suspicious_components_masked(&graph, &keep)
                .into_iter()
                .map(|component| {
                    let mut keys: Vec<usize> =
                        component.iter().map(|&i| *graph.node(i)).collect();
                    keys.sort_unstable();
                    keys
                })
                .collect();
            proptest::prop_assert_eq!(
                normalize(masked),
                normalize(suspicious_by_rebuild(&graph, &keep))
            );
        }
    }
}
