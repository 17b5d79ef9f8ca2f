//! # washtrade-serve — the query-serving subsystem
//!
//! The analysis pipeline (batch in `washtrade`, incremental in
//! `washtrade-stream`) produces exactly what explorers, marketplaces and
//! auditors query millions of times a day: suspicious NFTs, collection and
//! marketplace rollups, account dossiers. This crate is the read side that
//! makes those answers fast *while ingestion keeps running*:
//!
//! * [`Snapshot`] — an immutable, epoch-versioned view with dense secondary
//!   indexes (account → suspect-activity postings, a block-sorted suspect
//!   log, the wash-volume ranking, collection/marketplace rollups), built
//!   once per epoch from the dense analysis layers or from a finished batch
//!   report; addresses resolve exactly once, at build time.
//! * [`SnapshotPublisher`] — the `Arc`-swapped publication slot between one
//!   writer and many readers. One `load` = one epoch; torn reads are
//!   impossible by construction.
//! * [`Query`] / [`Response`] / [`QueryService`] — the typed request path,
//!   with a sharded LRU response cache keyed by `(epoch, query)` so cache
//!   entries invalidate themselves the moment a new epoch is published.
//!
//! ```
//! use washtrade_serve::{Query, QueryService, Response, SnapshotPublisher};
//!
//! let publisher = SnapshotPublisher::new(); // the stream publishes into this
//! let service = QueryService::new(publisher.clone());
//! let served = service.query(&Query::TopMovers(10));
//! assert_eq!(served.epoch, 0); // nothing ingested yet
//! assert!(matches!(served.response, Response::TopMovers(ref movers) if movers.is_empty()));
//! ```
//!
//! The streaming analyzer publishes into a [`SnapshotPublisher`] after every
//! ingested epoch and routes its own `suspects_since` / `top_movers` query
//! helpers through the published indexes, so the stream and serve layers can
//! never disagree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chunks;
pub mod publish;
pub mod query;
pub mod snapshot;

pub use cache::{CacheStats, ShardedLru};
pub use chunks::SegmentedVec;
pub use obs::MetricsSnapshot;
pub use publish::{RetentionPolicy, SnapshotPublisher};
pub use query::{Query, QueryService, Response, Served, TrendPoint};
pub use snapshot::{
    AccountDossier, ActivityRecord, CollectionRollup, NftSummary, Snapshot, SnapshotBuildStats,
    SnapshotMeta, SnapshotStats,
};
