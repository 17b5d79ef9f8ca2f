//! A directed multigraph keyed by arbitrary node values, stored as an
//! arena of struct-of-arrays edge columns with CSR adjacency.
//!
//! The paper builds, for each NFT, a directed multigraph whose nodes are
//! Ethereum accounts and whose edges are individual sales annotated with
//! `(timestamp, tx hash, interacted contract, price)`. This module provides
//! that container generically: nodes are any `Eq + Hash + Clone` key, edges
//! carry an arbitrary payload, and parallel edges and self-loops are allowed.
//!
//! # Layout
//!
//! Edges live in three parallel columns (`sources`, `targets`, `weights`) —
//! an append-only arena; an edge index is a row into all three. Adjacency is
//! a compressed-sparse-row (CSR) view over that arena: one offsets array per
//! direction plus one flat edge-index array, so a node's outgoing (or
//! incoming) edges are a contiguous slice and the whole graph costs a fixed
//! handful of allocations regardless of node count. The per-node
//! `Vec<Vec<EdgeIndex>>` adjacency this replaces allocated two `Vec`s per
//! node and scattered the lists across the heap.
//!
//! The CSR view is built **once**, lazily, at the first adjacency query
//! after construction (a counting sort over the edge columns, `O(V + E)`),
//! and cached; mutating the graph invalidates the cache. The expected
//! lifecycle — build the graph, then analyze it read-only — therefore pays
//! for exactly one build. Pure edge scans ([`DiMultiGraph::edges`],
//! [`DiMultiGraph::edges_within`], …) never need the CSR view at all.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::OnceLock;

/// Index of a node inside a [`DiMultiGraph`]. Stable for the life of the graph.
pub type NodeIndex = usize;

/// Index of an edge inside a [`DiMultiGraph`]. Stable for the life of the graph.
pub type EdgeIndex = usize;

/// A borrowed view of one edge: endpoints plus a reference to the payload.
///
/// This is what [`DiMultiGraph::edges`] and [`DiMultiGraph::edge`] yield;
/// the edge payload itself lives in the graph's struct-of-arrays weight
/// column and is never copied by iteration.
#[derive(Debug)]
pub struct EdgeRef<'a, E> {
    /// Source node index.
    pub source: NodeIndex,
    /// Target node index.
    pub target: NodeIndex,
    /// Borrowed edge payload (e.g. sale annotation).
    pub weight: &'a E,
}

impl<E> Clone for EdgeRef<'_, E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for EdgeRef<'_, E> {}

/// The CSR adjacency view: for each direction, `offsets[v]..offsets[v + 1]`
/// is node `v`'s contiguous slice of `edges` (edge indices in insertion
/// order — the same order the per-node `Vec`s used to hold).
#[derive(Debug, Clone, Default)]
struct CsrTopology {
    out_offsets: Vec<u32>,
    out_edges: Vec<EdgeIndex>,
    in_offsets: Vec<u32>,
    in_edges: Vec<EdgeIndex>,
}

impl CsrTopology {
    /// Counting sort of the edge arena by source (and by target), `O(V + E)`.
    /// Stable: within a node's slice, edge indices ascend — i.e. insertion
    /// order, matching the per-node-`Vec` layout this view replaces.
    fn build(nodes: usize, sources: &[NodeIndex], targets: &[NodeIndex]) -> CsrTopology {
        let edge_count = sources.len();
        let mut topology = CsrTopology {
            out_offsets: vec![0u32; nodes + 1],
            out_edges: vec![0; edge_count],
            in_offsets: vec![0u32; nodes + 1],
            in_edges: vec![0; edge_count],
        };
        for &source in sources {
            topology.out_offsets[source + 1] += 1;
        }
        for &target in targets {
            topology.in_offsets[target + 1] += 1;
        }
        for v in 0..nodes {
            topology.out_offsets[v + 1] += topology.out_offsets[v];
            topology.in_offsets[v + 1] += topology.in_offsets[v];
        }
        let mut out_cursor: Vec<u32> = topology.out_offsets[..nodes].to_vec();
        let mut in_cursor: Vec<u32> = topology.in_offsets[..nodes].to_vec();
        for (edge, (&source, &target)) in sources.iter().zip(targets).enumerate() {
            topology.out_edges[out_cursor[source] as usize] = edge;
            out_cursor[source] += 1;
            topology.in_edges[in_cursor[target] as usize] = edge;
            in_cursor[target] += 1;
        }
        topology
    }

    fn outgoing(&self, node: NodeIndex) -> &[EdgeIndex] {
        &self.out_edges[self.out_offsets[node] as usize..self.out_offsets[node + 1] as usize]
    }

    fn incoming(&self, node: NodeIndex) -> &[EdgeIndex] {
        &self.in_edges[self.in_offsets[node] as usize..self.in_offsets[node + 1] as usize]
    }
}

/// Lazily-built, mutation-invalidated cache of the CSR adjacency view.
///
/// `OnceLock` gives interior mutability that stays `Sync` (concurrent
/// readers may race to build; one wins, the results are identical), while
/// every `&mut self` mutation path resets the cell.
#[derive(Debug, Default)]
struct TopologyCache(OnceLock<CsrTopology>);

impl Clone for TopologyCache {
    fn clone(&self) -> Self {
        let cache = TopologyCache::default();
        if let Some(csr) = self.0.get() {
            let _ = cache.0.set(csr.clone());
        }
        cache
    }
}

/// A directed multigraph with parallel edges and self-loops.
///
/// # Examples
///
/// ```
/// use graphlib::DiMultiGraph;
///
/// let mut graph: DiMultiGraph<&str, u32> = DiMultiGraph::new();
/// let a = graph.add_node("alice");
/// let b = graph.add_node("bob");
/// graph.add_edge(a, b, 1);
/// graph.add_edge(b, a, 2);
/// graph.add_edge(a, b, 3); // parallel edge
/// assert_eq!(graph.edge_count(), 3);
/// assert_eq!(graph.node_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DiMultiGraph<N, E> {
    nodes: Vec<N>,
    node_index: HashMap<N, NodeIndex>,
    /// Edge arena, struct-of-arrays: row `e` of the three columns is edge `e`.
    sources: Vec<NodeIndex>,
    targets: Vec<NodeIndex>,
    weights: Vec<E>,
    topology: TopologyCache,
}

impl<N: Eq + Hash + Clone, E> Default for DiMultiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: Eq + Hash + Clone, E> DiMultiGraph<N, E> {
    /// Create an empty graph.
    pub fn new() -> Self {
        DiMultiGraph {
            nodes: Vec::new(),
            node_index: HashMap::new(),
            sources: Vec::new(),
            targets: Vec::new(),
            weights: Vec::new(),
            topology: TopologyCache::default(),
        }
    }

    /// Create an empty graph with room for `nodes` nodes and `edges` edges —
    /// batch builders that know their row count ahead of time (per-NFT graph
    /// construction) use this to avoid incremental column growth.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiMultiGraph {
            nodes: Vec::with_capacity(nodes),
            node_index: HashMap::with_capacity(nodes),
            sources: Vec::with_capacity(edges),
            targets: Vec::with_capacity(edges),
            weights: Vec::with_capacity(edges),
            topology: TopologyCache::default(),
        }
    }

    /// The CSR adjacency view, building it on first use after a mutation.
    #[inline]
    fn csr(&self) -> &CsrTopology {
        self.topology
            .0
            .get_or_init(|| CsrTopology::build(self.nodes.len(), &self.sources, &self.targets))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (parallel edges counted individually).
    pub fn edge_count(&self) -> usize {
        self.sources.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Add a node with the given key, or return the existing index if the key
    /// is already present.
    pub fn add_node(&mut self, key: N) -> NodeIndex {
        if let Some(&index) = self.node_index.get(&key) {
            return index;
        }
        let index = self.nodes.len();
        self.node_index.insert(key.clone(), index);
        self.nodes.push(key);
        self.topology.0.take();
        index
    }

    /// Look up a node index by key.
    pub fn node_id(&self, key: &N) -> Option<NodeIndex> {
        self.node_index.get(key).copied()
    }

    /// The key stored at a node index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn node(&self, index: NodeIndex) -> &N {
        &self.nodes[index]
    }

    /// Iterate over `(index, key)` pairs of all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeIndex, &N)> {
        self.nodes.iter().enumerate()
    }

    /// Add a directed edge between existing node indices and return its index.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn add_edge(&mut self, source: NodeIndex, target: NodeIndex, weight: E) -> EdgeIndex {
        assert!(source < self.nodes.len(), "source node out of bounds");
        assert!(target < self.nodes.len(), "target node out of bounds");
        let index = self.sources.len();
        self.sources.push(source);
        self.targets.push(target);
        self.weights.push(weight);
        self.topology.0.take();
        index
    }

    /// Convenience: add an edge by node keys, creating nodes as needed.
    pub fn add_edge_by_key(&mut self, source: N, target: N, weight: E) -> EdgeIndex {
        let s = self.add_node(source);
        let t = self.add_node(target);
        self.add_edge(s, t, weight)
    }

    /// An edge by index, as a borrowed [`EdgeRef`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn edge(&self, index: EdgeIndex) -> EdgeRef<'_, E> {
        EdgeRef {
            source: self.sources[index],
            target: self.targets[index],
            weight: &self.weights[index],
        }
    }

    /// The source node of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn edge_source(&self, index: EdgeIndex) -> NodeIndex {
        self.sources[index]
    }

    /// The target node of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn edge_target(&self, index: EdgeIndex) -> NodeIndex {
        self.targets[index]
    }

    /// The payload of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn edge_weight(&self, index: EdgeIndex) -> &E {
        &self.weights[index]
    }

    /// Iterate over all edges in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef<'_, E>> {
        self.sources
            .iter()
            .zip(&self.targets)
            .zip(&self.weights)
            .map(|((&source, &target), weight)| EdgeRef { source, target, weight })
    }

    /// Outgoing edge indices from a node, as a contiguous CSR slice in
    /// insertion order.
    pub fn outgoing_edges(&self, node: NodeIndex) -> &[EdgeIndex] {
        self.csr().outgoing(node)
    }

    /// Incoming edge indices to a node, as a contiguous CSR slice in
    /// insertion order.
    pub fn incoming_edges(&self, node: NodeIndex) -> &[EdgeIndex] {
        self.csr().incoming(node)
    }

    /// Iterate the targets of a node's outgoing edges, in insertion order —
    /// one entry **per parallel edge** (no deduplication, no allocation).
    /// Traversals with a visited set (DFS/BFS/SCC) want exactly this; for
    /// sorted-distinct successors, collect and `sort_unstable` + `dedup` at
    /// the call site.
    pub fn successors_iter(&self, node: NodeIndex) -> impl Iterator<Item = NodeIndex> + '_ {
        self.outgoing_edges(node).iter().map(|&edge| self.targets[edge])
    }

    /// Iterate the sources of a node's incoming edges, in insertion order —
    /// one entry **per parallel edge** (no deduplication, no allocation).
    pub fn predecessors_iter(&self, node: NodeIndex) -> impl Iterator<Item = NodeIndex> + '_ {
        self.incoming_edges(node).iter().map(|&edge| self.sources[edge])
    }

    /// Out-degree counting parallel edges.
    pub fn out_degree(&self, node: NodeIndex) -> usize {
        self.outgoing_edges(node).len()
    }

    /// In-degree counting parallel edges.
    pub fn in_degree(&self, node: NodeIndex) -> usize {
        self.incoming_edges(node).len()
    }

    /// Whether the node has at least one self-loop.
    pub fn has_self_loop(&self, node: NodeIndex) -> bool {
        self.successors_iter(node).any(|target| target == node)
    }

    /// All edge indices whose source and target both lie in `nodes`
    /// (self-loops included), in insertion order.
    pub fn edges_within(&self, nodes: &[NodeIndex]) -> Vec<EdgeIndex> {
        let set: std::collections::HashSet<NodeIndex> = nodes.iter().copied().collect();
        self.sources
            .iter()
            .zip(&self.targets)
            .enumerate()
            .filter(|(_, (source, target))| set.contains(source) && set.contains(target))
            .map(|(index, _)| index)
            .collect()
    }

    /// The set of distinct `(source, target)` pairs among `nodes`, expressed in
    /// positions local to the given slice (i.e. `0..nodes.len()`), excluding
    /// nothing — self-loops are kept. This is the "shape" used for pattern
    /// classification.
    pub fn simple_shape_within(&self, nodes: &[NodeIndex]) -> Vec<(usize, usize)> {
        let position: HashMap<NodeIndex, usize> =
            nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut shape: Vec<(usize, usize)> = self
            .sources
            .iter()
            .zip(&self.targets)
            .filter_map(|(source, target)| match (position.get(source), position.get(target)) {
                (Some(&s), Some(&t)) => Some((s, t)),
                _ => None,
            })
            .collect();
        shape.sort_unstable();
        shape.dedup();
        shape
    }
}

impl<N: Eq + Hash + Clone, E> FromIterator<(N, N, E)> for DiMultiGraph<N, E> {
    fn from_iter<T: IntoIterator<Item = (N, N, E)>>(iter: T) -> Self {
        let mut graph = DiMultiGraph::new();
        for (source, target, weight) in iter {
            graph.add_edge_by_key(source, target, weight);
        }
        graph
    }
}

impl<N: Eq + Hash + Clone, E> Extend<(N, N, E)> for DiMultiGraph<N, E> {
    fn extend<T: IntoIterator<Item = (N, N, E)>>(&mut self, iter: T) {
        for (source, target, weight) in iter {
            self.add_edge_by_key(source, target, weight);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_node_is_idempotent_per_key() {
        let mut graph: DiMultiGraph<&str, ()> = DiMultiGraph::new();
        let a1 = graph.add_node("a");
        let a2 = graph.add_node("a");
        assert_eq!(a1, a2);
        assert_eq!(graph.node_count(), 1);
        assert_eq!(graph.node(a1), &"a");
        assert_eq!(graph.node_id(&"a"), Some(a1));
        assert_eq!(graph.node_id(&"missing"), None);
    }

    #[test]
    fn parallel_edges_and_degrees() {
        let mut graph: DiMultiGraph<u32, &str> = DiMultiGraph::new();
        let a = graph.add_node(1);
        let b = graph.add_node(2);
        graph.add_edge(a, b, "first");
        graph.add_edge(a, b, "second");
        graph.add_edge(b, a, "back");
        assert_eq!(graph.edge_count(), 3);
        assert_eq!(graph.out_degree(a), 2);
        assert_eq!(graph.in_degree(a), 1);
        // Parallel edges appear once per edge; dedup is a call-site concern.
        assert_eq!(graph.successors_iter(a).collect::<Vec<_>>(), vec![b, b]);
        assert_eq!(graph.predecessors_iter(a).collect::<Vec<_>>(), vec![b]);
        let mut distinct: Vec<_> = graph.successors_iter(a).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct, vec![b]);
    }

    #[test]
    fn csr_slices_match_insertion_order() {
        let mut graph: DiMultiGraph<u32, u8> = DiMultiGraph::new();
        let a = graph.add_node(1);
        let b = graph.add_node(2);
        let c = graph.add_node(3);
        let e0 = graph.add_edge(a, b, 10);
        let e1 = graph.add_edge(b, c, 11);
        let e2 = graph.add_edge(a, c, 12);
        let e3 = graph.add_edge(a, b, 13);
        assert_eq!(graph.outgoing_edges(a), &[e0, e2, e3]);
        assert_eq!(graph.outgoing_edges(b), &[e1]);
        assert_eq!(graph.outgoing_edges(c), &[] as &[EdgeIndex]);
        assert_eq!(graph.incoming_edges(b), &[e0, e3]);
        assert_eq!(graph.incoming_edges(c), &[e1, e2]);
        assert_eq!(graph.edge_source(e2), a);
        assert_eq!(graph.edge_target(e2), c);
        assert_eq!(graph.edge_weight(e2), &12);
        let view = graph.edge(e3);
        assert_eq!((view.source, view.target, *view.weight), (a, b, 13));
    }

    #[test]
    fn csr_rebuilds_after_mutation() {
        let mut graph: DiMultiGraph<u32, ()> = DiMultiGraph::new();
        let a = graph.add_node(1);
        let b = graph.add_node(2);
        graph.add_edge(a, b, ());
        assert_eq!(graph.out_degree(a), 1); // builds the CSR view
        let c = graph.add_node(3); // invalidates it
        graph.add_edge(b, c, ());
        graph.add_edge(a, c, ());
        assert_eq!(graph.out_degree(a), 2);
        assert_eq!(graph.in_degree(c), 2);
        assert_eq!(graph.successors_iter(a).collect::<Vec<_>>(), vec![b, c]);
    }

    #[test]
    fn clone_preserves_structure_and_cache() {
        let mut graph: DiMultiGraph<&str, u8> = DiMultiGraph::new();
        graph.add_edge_by_key("a", "b", 1);
        graph.add_edge_by_key("b", "a", 2);
        let _ = graph.outgoing_edges(0); // force the CSR build
        let clone = graph.clone();
        assert_eq!(clone.node_count(), 2);
        assert_eq!(clone.edge_count(), 2);
        assert_eq!(clone.outgoing_edges(0), graph.outgoing_edges(0));
        assert_eq!(clone.incoming_edges(1), graph.incoming_edges(1));
    }

    #[test]
    fn self_loops() {
        let mut graph: DiMultiGraph<&str, ()> = DiMultiGraph::new();
        let a = graph.add_node("self");
        assert!(!graph.has_self_loop(a));
        graph.add_edge(a, a, ());
        assert!(graph.has_self_loop(a));
        assert_eq!(graph.successors_iter(a).collect::<Vec<_>>(), vec![a]);
        assert_eq!(graph.predecessors_iter(a).collect::<Vec<_>>(), vec![a]);
    }

    #[test]
    fn edges_within_subset() {
        let mut graph: DiMultiGraph<&str, u8> = DiMultiGraph::new();
        let a = graph.add_node("a");
        let b = graph.add_node("b");
        let c = graph.add_node("c");
        graph.add_edge(a, b, 1);
        graph.add_edge(b, a, 2);
        graph.add_edge(b, c, 3);
        graph.add_edge(c, c, 4);
        let within = graph.edges_within(&[a, b]);
        assert_eq!(within.len(), 2);
        let shape = graph.simple_shape_within(&[a, b]);
        assert_eq!(shape, vec![(0, 1), (1, 0)]);
        let shape_all = graph.simple_shape_within(&[a, b, c]);
        assert_eq!(shape_all, vec![(0, 1), (1, 0), (1, 2), (2, 2)]);
    }

    #[test]
    fn from_iterator_builds_by_key() {
        let graph: DiMultiGraph<&str, u32> =
            [("a", "b", 1), ("b", "a", 2), ("a", "b", 3)].into_iter().collect();
        assert_eq!(graph.node_count(), 2);
        assert_eq!(graph.edge_count(), 3);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let graph: DiMultiGraph<&str, ()> = DiMultiGraph::with_capacity(8, 16);
        assert!(graph.is_empty());
        assert_eq!(graph.edge_count(), 0);
    }

    #[test]
    #[should_panic]
    fn add_edge_out_of_bounds_panics() {
        let mut graph: DiMultiGraph<&str, ()> = DiMultiGraph::new();
        let a = graph.add_node("a");
        graph.add_edge(a, 99, ());
    }
}
