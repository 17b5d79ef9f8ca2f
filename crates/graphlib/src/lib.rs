//! # graphlib — graph analysis primitives for wash-trading detection
//!
//! The paper's methodology is graph-centric: every NFT gets a directed
//! multigraph of its sales, candidate manipulations are the strongly
//! connected components of those graphs (computed with Tarjan's algorithm
//! plus Nuutila's modifications, the NetworkX variant), and confirmed
//! activities are classified by the isomorphism class of their component
//! shape (Fig. 7). This crate is the reproduction's substitute for NetworkX:
//!
//! * [`DiMultiGraph`] — a directed multigraph with parallel edges and
//!   self-loops, generic over node keys and edge payloads;
//! * [`scc::strongly_connected_components`] / [`scc::suspicious_components`]
//!   / [`scc::suspicious_components_masked`] — iterative Tarjan SCC plus the
//!   paper's "≥ 2 nodes or self-loop singleton" filter, on the whole graph or
//!   on a node subset, property-tested against a Kosaraju reference kept in
//!   the tests;
//! * [`pattern::PatternCatalogue`] — canonical forms for small digraphs and
//!   the 12-pattern Fig. 7 catalogue.
//!
//! # Example
//!
//! ```
//! use graphlib::{DiMultiGraph, scc::suspicious_components, pattern::PatternCatalogue};
//!
//! // Two accounts round-tripping an NFT, plus an uninvolved buyer.
//! let mut graph: DiMultiGraph<&str, ()> = DiMultiGraph::new();
//! graph.add_edge_by_key("washer-a", "washer-b", ());
//! graph.add_edge_by_key("washer-b", "washer-a", ());
//! graph.add_edge_by_key("washer-b", "victim", ());
//!
//! let components = suspicious_components(&graph);
//! assert_eq!(components.len(), 1);
//! let shape = graph.simple_shape_within(&components[0]);
//! let catalogue = PatternCatalogue::paper();
//! let pattern = catalogue.classify(components[0].len(), &shape).unwrap();
//! assert_eq!(pattern.0, 1); // the paper's "round trip" pattern
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod multigraph;
pub mod pattern;
pub mod scc;

pub use multigraph::{DiMultiGraph, EdgeIndex, EdgeRef, NodeIndex};
pub use pattern::{CanonicalDigraph, PatternCatalogue, PatternId, PatternSpec};
pub use scc::{strongly_connected_components, suspicious_components, suspicious_components_masked};
