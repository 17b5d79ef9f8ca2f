//! # washtrade-stream — streaming wash-trade analysis
//!
//! The batch pipeline in `washtrade` consumes a completed chain and
//! recomputes everything from scratch — the shape of the paper's one-shot,
//! 34-month study. This crate turns that pipeline into an *incremental* one,
//! the "real-time detection" direction the follow-up literature flags as the
//! gap between one-shot studies and deployable systems:
//!
//! * [`BlockCursor`] tails an [`ethsim::Chain`] from a watermark block,
//!   handing out contiguous ingestion epochs;
//! * each epoch's blocks go through the same `Dataset::ingest_blocks`
//!   path as a batch build (parallel decode, one serial commit), which
//!   interns and appends the new transfers into the columnar store, and
//!   [`IncrementalGraphs`] grows the touched per-NFT graphs in place via
//!   `NftGraph::apply_rows` (dirty sets travel as dense `Vec<NftKey>`s, the
//!   graph table is `NftKey`-indexed);
//! * [`StreamAnalyzer`] re-runs refinement and detection only for the
//!   *dirty* NFT set (the NFTs touched since the last epoch), fanned out
//!   over the shared `washtrade::parallel::Executor`, patches the confirmed
//!   set for the NFTs whose confirmed group changed, and reports a per-epoch
//!   [`EpochDelta`]; the full [`LiveReport`] is built on its first read
//!   after an epoch. A query API ([`StreamAnalyzer::status`],
//!   [`StreamAnalyzer::suspects_since`], [`StreamAnalyzer::top_movers`])
//!   answers without building it;
//! * after every epoch the analyzer builds an immutable, epoch-versioned
//!   `washtrade_serve::Snapshot` from the dense layers and the fan-out's
//!   cached facts (a publish prices nothing) and swaps it into a
//!   [`SnapshotPublisher`](washtrade_serve::SnapshotPublisher) — the
//!   publication seam the read-side subsystem (`washtrade-serve`) serves
//!   concurrent queries from while ingestion keeps running. The analyzer's
//!   own `suspects_since` / `top_movers` helpers are answered from those
//!   snapshot indexes too (bit-identically to the linear scans they
//!   replaced).
//!
//! **Headline invariant:** after ingesting all epochs, the [`LiveReport`] is
//! bit-identical to batch `washtrade::pipeline::analyze` on the same chain —
//! same confirmed wash-trade set, Venn counts and characterization — at any
//! epoch size and any thread count. The equivalence proptest in
//! `tests/equivalence.rs` slices random worlds at random epoch boundaries to
//! enforce exactly that.
//!
//! ```no_run
//! use washtrade::pipeline::AnalysisInput;
//! use washtrade_stream::{StreamAnalyzer, StreamOptions};
//! use workload::{WorkloadConfig, World};
//!
//! let world = World::generate(WorkloadConfig::small(42)).expect("world");
//! let input = AnalysisInput {
//!     chain: &world.chain,
//!     labels: &world.labels,
//!     directory: &world.directory,
//!     oracle: &world.oracle,
//! };
//! let mut live = StreamAnalyzer::new(input, StreamOptions::default());
//! while let Some(delta) = live.ingest_epoch(500) {
//!     println!(
//!         "epoch {}: {} dirty NFTs, {} new suspects",
//!         delta.index,
//!         delta.dirty_nfts,
//!         delta.new_suspects.len()
//!     );
//! }
//! println!("{} confirmed activities", live.report().detection.confirmed.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cursor;
pub mod incremental;
pub mod live;
pub mod tail;

pub use cursor::{BlockCursor, EpochSpan};
pub use incremental::IncrementalGraphs;
pub use live::{EpochDelta, LiveReport, NftStatus, StreamAnalyzer, StreamOptions};
pub use tail::LegitVolumeSet;
