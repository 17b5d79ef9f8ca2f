//! # washtrade — NFT wash-trading detection, characterization and
//! profitability analysis
//!
//! This crate is a from-scratch Rust reproduction of the measurement pipeline
//! of *"A Game of NFTs: Characterizing NFT Wash Trading in the Ethereum
//! Blockchain"* (La Morgia, Mei, Mongardini, Nemmi — ICDCS 2023). It consumes
//! an Ethereum-like chain (the [`ethsim`] substrate, populated either by the
//! calibrated `workload` generator or by any other producer of transactions
//! and ERC-721 transfer logs) and runs the paper's methodology end to end:
//!
//! 1. [`dataset`] — collect ERC-721 transfer events by log shape, filter
//!    contracts through the ERC-165 compliance probe, annotate each transfer
//!    with the amount paid and the marketplace interacted with (§III). The
//!    scan runs as a two-phase pipeline ([`ingest`]): parallel block-sharded
//!    decode, then a serial order-preserving commit that keeps id assignment
//!    bit-identical at any thread count.
//! 2. [`txgraph`] — build the per-NFT directed multigraph of sales (§IV-A).
//! 3. [`refine`] — drop service accounts, contract accounts and zero-volume
//!    components from the suspicious strongly connected components (§IV-B).
//! 4. [`detect`] — confirm wash trading through five signals: zero-risk
//!    position, common funder, common exit, self-trades and leveraging of
//!    previously confirmed account sets; compare the methods (§IV-C/D).
//! 5. [`characterize`](mod@characterize) — volumes per marketplace and collection, lifetimes,
//!    participation patterns, serial traders (§V, Tables II, Figs. 3–7).
//! 6. [`profit`] — reward-system exploitation (Table III) and resale
//!    profitability (§VI).
//!
//! [`pipeline::analyze`] chains all of the above as six [`PipelineStage`]s
//! over a shared [`pipeline::AnalysisContext`], timing each stage into the
//! report's [`StageMetrics`]; the parallel stages share the [`parallel`]
//! fork–join executor. [`report`] renders each table and figure as text.
//!
//! The analysis layers run on **dense interned ids** (the `ids` crate):
//! the dataset stage maps every account, NFT and marketplace to a `u32`
//! once at ingest and stores transfers in the columnar [`columns`] store;
//! graphs, refinement, detection, characterization and profit all index
//! `Vec`s by those ids, and addresses reappear exactly once, at report
//! assembly. See the README crate map for the intern-once /
//! resolve-at-report-boundary rule.
//!
//! ```no_run
//! use washtrade::pipeline::{analyze, AnalysisInput};
//! use workload::{WorkloadConfig, World};
//!
//! let world = World::generate(WorkloadConfig::small(42)).expect("world");
//! let report = analyze(AnalysisInput {
//!     chain: &world.chain,
//!     labels: &world.labels,
//!     directory: &world.directory,
//!     oracle: &world.oracle,
//! });
//! println!("{} confirmed wash-trading activities", report.detection.confirmed.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterize;
pub mod columns;
pub mod dataset;
pub mod detect;
pub mod ingest;
pub mod parallel;
pub mod pipeline;
pub mod profit;
pub mod refine;
pub mod report;
pub mod stats;
pub mod txgraph;

pub use characterize::{characterize, Characterization};
pub use columns::{TransferColumns, TransferRow};
pub use dataset::{AppliedEntries, Dataset, MarketplaceVolume, NftTransfer};
pub use detect::{
    ConfirmedActivity, DenseActivity, DenseDetectionOutcome, DetectionOutcome, Detector, MethodSet,
    VennCounts,
};
pub use ingest::IngestMetrics;
pub use parallel::Executor;
pub use pipeline::{
    analyze, analyze_with, AnalysisInput, AnalysisOptions, AnalysisReport, PipelineStage,
    StageMetrics,
};
pub use profit::{analyze_resales, analyze_rewards, ResaleReport, RewardReport};
pub use refine::{
    aggregate_refinements, Candidate, DenseCandidate, NftRefinement, RefinementReport, Refiner,
};
pub use txgraph::{DenseTradeEdge, NftGraph, TradeEdge};
