//! Incremental graph maintenance: the per-NFT transaction graphs grown in
//! place with each ingested epoch instead of being rebuilt from scratch.
//!
//! The epoch's transfers themselves are appended by
//! [`Dataset::ingest_blocks_instrumented`](washtrade::dataset::Dataset::ingest_blocks_instrumented),
//! whose sorted dirty set says which graphs to grow. The layer is dense: the
//! graph table is a `Vec` indexed by [`NftKey`] — the stream never hashes an
//! NFT identity after ingest.

use ids::NftKey;
use washtrade::dataset::Dataset;
use washtrade::txgraph::NftGraph;

/// Per-NFT transaction graphs maintained in place, indexed by [`NftKey`]:
/// each sync appends only the column rows an NFT gained since its last sync,
/// via the incremental [`NftGraph::apply_rows`] seam.
#[derive(Debug, Clone, Default)]
pub struct IncrementalGraphs {
    /// `graphs[key.index()]` is that NFT's graph. Keys are dense and
    /// assigned in first-transfer order, so the table grows at the tail.
    graphs: Vec<NftGraph>,
    /// How many of each NFT's column rows are already in its graph.
    applied: Vec<usize>,
}

impl IncrementalGraphs {
    /// No graphs yet.
    pub fn new() -> Self {
        IncrementalGraphs::default()
    }

    /// Bring the graphs of the `dirty` NFTs up to date with `dataset`,
    /// appending each NFT's unseen row suffix to its graph (creating the
    /// graph on first sight — dirty keys are dense, so the table extends by
    /// plain pushes).
    ///
    /// Sound because epoch ingestion only ever *appends* to a per-NFT row
    /// slice: the unseen suffix is exactly the new transfers, so the grown
    /// graph equals a from-scratch [`NftGraph::from_columns`] over the full
    /// history.
    pub fn sync(&mut self, dataset: &Dataset, dirty: &[NftKey]) {
        for &nft in dirty {
            while self.graphs.len() <= nft.index() {
                self.graphs.push(NftGraph::new(NftKey(self.graphs.len() as u32)));
                self.applied.push(0);
            }
            let rows = dataset.columns.rows_of(nft);
            let seen = &mut self.applied[nft.index()];
            if *seen >= rows.len() {
                continue;
            }
            self.graphs[nft.index()].apply_rows(&dataset.columns, &rows[*seen..]);
            *seen = rows.len();
        }
    }

    /// The graph of one NFT, if it has any transfers yet.
    pub fn get(&self, nft: NftKey) -> Option<&NftGraph> {
        self.graphs.get(nft.index())
    }

    /// The full [`NftKey`]-indexed graph table — the same shape batch
    /// [`NftGraph::from_dataset`] builds, for callers running batch-path
    /// code (e.g. the full-rescan reference report) over maintained graphs.
    pub fn table(&self) -> &[NftGraph] {
        &self.graphs
    }

    /// Number of NFTs with a graph.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// Whether no NFT has a graph yet.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethsim::{Address, BlockNumber, Timestamp, TxHash, Wei};
    use tokens::NftId;
    use washtrade::dataset::NftTransfer;

    fn transfer(nft: NftId, from: &str, to: &str, block: u64) -> NftTransfer {
        NftTransfer {
            nft,
            from: Address::derived(from),
            to: Address::derived(to),
            tx_hash: TxHash::hash_of(format!("{from}->{to}@{block}").as_bytes()),
            block: BlockNumber(block),
            timestamp: Timestamp::from_secs(block * 13),
            price: Wei::from_eth(1.0),
            marketplace: None,
        }
    }

    #[test]
    fn sync_appends_only_the_unseen_suffix() {
        let nft = NftId::new(Address::derived("c"), 1);
        let mut dataset = Dataset::default();
        let key = dataset.push_transfer(&transfer(nft, "a", "b", 1));
        dataset.push_transfer(&transfer(nft, "b", "a", 2));

        let mut graphs = IncrementalGraphs::new();
        graphs.sync(&dataset, &[key]);
        assert_eq!(graphs.get(key).unwrap().graph.edge_count(), 2);

        // Re-syncing without new transfers is a no-op.
        graphs.sync(&dataset, &[key]);
        assert_eq!(graphs.get(key).unwrap().graph.edge_count(), 2);

        // A new transfer arrives: only it is appended.
        dataset.push_transfer(&transfer(nft, "a", "c", 3));
        graphs.sync(&dataset, &[key]);
        let grown = graphs.get(key).unwrap();
        assert_eq!(grown.graph.edge_count(), 3);

        // And the grown graph equals a from-scratch build.
        let batch = NftGraph::from_columns(key, &dataset.columns);
        assert_eq!(
            grown.suspicious_account_sets(&dataset.interner),
            batch.suspicious_account_sets(&dataset.interner)
        );
        assert_eq!(grown.graph.node_count(), batch.graph.node_count());
        assert_eq!(graphs.len(), 1);
        assert!(!graphs.is_empty());
    }
}
