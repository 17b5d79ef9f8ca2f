//! Columnar transfer storage: the canonical, struct-of-arrays home of every
//! compliant ERC-721 transfer.
//!
//! The address-keyed pipeline stored one `Vec<NftTransfer>` per NFT inside a
//! `HashMap<NftId, _>`, which meant a 28-byte hash per history touch and a
//! scattered allocation per NFT. [`TransferColumns`] replaces that with one
//! global append-only column per field — `from`/`to` as dense
//! [`AccountId`]s, `marketplace` as dense [`MarketId`]s — plus a CSR-style
//! per-NFT row index ([`TransferColumns::rows_of`]) that yields each NFT's
//! chronological history as a slice of row numbers.
//!
//! Rows are appended in chain execution order (the same order the streaming
//! block cursor produces), so per-NFT row lists are automatically sorted by
//! `(block, timestamp)` and the store needs no re-sorting as epochs arrive.
//! A physically contiguous per-NFT layout would require exactly that
//! re-sort on every epoch; the row index gives dense, branch-free history
//! iteration without it.
//!
//! Transactions get dense ids here too ([`TransferColumns::tx`]): a row
//! starts a new [`TxId`] exactly when its hash differs from the previous
//! row's, and [`TransferColumns::tx_rows`] answers a transaction's rows as
//! one contiguous range — no map, no hashing.
//!
//! Dense ids resolve back to addresses only at the report boundary, through
//! [`TransferColumns::resolve`], which materializes the compatibility view
//! type [`NftTransfer`].

use std::ops::Range;

use ethsim::{BlockNumber, Timestamp, TxHash, Wei};
use ids::{AccountId, Interner, MarketId, NftKey, TxId};
use serde::{Deserialize, Serialize};

use crate::dataset::NftTransfer;

/// One transfer in dense form: every entity field is an interned id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferRow {
    /// The NFT being moved.
    pub nft: NftKey,
    /// Previous owner (the interned null address for mints).
    pub from: AccountId,
    /// New owner.
    pub to: AccountId,
    /// The transaction carrying the transfer log.
    pub tx_hash: TxHash,
    /// Block of the transaction.
    pub block: BlockNumber,
    /// Timestamp of the transaction.
    pub timestamp: Timestamp,
    /// Amount paid for the NFT in this transaction.
    pub price: Wei,
    /// The marketplace the transaction interacted with, if any.
    pub marketplace: Option<MarketId>,
}

/// The struct-of-arrays transfer store. See the module docs for the layout.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TransferColumns {
    /// NFT of each row.
    pub nft: Vec<NftKey>,
    /// Seller (previous owner) of each row.
    pub from: Vec<AccountId>,
    /// Buyer (new owner) of each row.
    pub to: Vec<AccountId>,
    /// Transaction hash of each row.
    pub tx_hash: Vec<TxHash>,
    /// Block number of each row.
    pub block: Vec<BlockNumber>,
    /// Timestamp of each row.
    pub timestamp: Vec<Timestamp>,
    /// Price paid in each row.
    pub price: Vec<Wei>,
    /// Marketplace attribution of each row.
    pub marketplace: Vec<Option<MarketId>>,
    /// Dense transaction id of each row, numbered in chain order. Ingest
    /// appends rows in execution order, and a transaction's logs
    /// are consecutive within its block, so one transaction's rows are
    /// consecutive: a row takes the next id exactly when its `tx_hash`
    /// differs from the previous row's. Ids are therefore bijective with the
    /// hashes in the store, and the same at any epoch slicing and thread
    /// count.
    pub tx: Vec<TxId>,
    /// First row of each transaction, indexed by [`TxId`].
    tx_first_row: Vec<u32>,
    /// CSR-style index: `rows_by_nft[key]` lists the store rows of that
    /// NFT's history, ascending (appends are chronological per NFT).
    rows_by_nft: Vec<Vec<u32>>,
}

impl TransferColumns {
    /// An empty store.
    pub fn new() -> Self {
        TransferColumns::default()
    }

    /// Number of transfers stored.
    pub fn len(&self) -> usize {
        self.nft.len()
    }

    /// Whether the store has no transfers.
    pub fn is_empty(&self) -> bool {
        self.nft.is_empty()
    }

    /// Reserve room for `additional` more transfers across every column —
    /// the commit calls this once per ingested range with the decoded
    /// transfer count, an upper bound on the rows it appends.
    pub fn reserve(&mut self, additional: usize) {
        self.nft.reserve(additional);
        self.from.reserve(additional);
        self.to.reserve(additional);
        self.tx_hash.reserve(additional);
        self.block.reserve(additional);
        self.timestamp.reserve(additional);
        self.price.reserve(additional);
        self.marketplace.reserve(additional);
        self.tx.reserve(additional);
    }

    /// Append a transfer; returns its row number.
    pub fn push(&mut self, row: TransferRow) -> u32 {
        let index = u32::try_from(self.nft.len()).expect("row space fits u32");
        self.nft.push(row.nft);
        self.from.push(row.from);
        self.to.push(row.to);
        self.tx_hash.push(row.tx_hash);
        self.block.push(row.block);
        self.timestamp.push(row.timestamp);
        self.price.push(row.price);
        self.marketplace.push(row.marketplace);
        self.index_row(index as usize);
        index
    }

    /// Index the just-appended `row`: give it its transaction id and add it
    /// to its NFT's row list.
    fn index_row(&mut self, row: usize) {
        let tx = if row > 0 && self.tx_hash[row - 1] == self.tx_hash[row] {
            self.tx[row - 1]
        } else {
            let id = TxId(u32::try_from(self.tx_first_row.len()).expect("tx space fits u32"));
            self.tx_first_row.push(row as u32);
            id
        };
        self.tx.push(tx);
        let nft = self.nft[row].index();
        if self.rows_by_nft.len() <= nft {
            self.rows_by_nft.resize_with(nft + 1, Vec::new);
        }
        self.rows_by_nft[nft].push(row as u32);
    }

    /// Number of distinct transactions stored.
    pub fn tx_count(&self) -> usize {
        self.tx_first_row.len()
    }

    /// The rows carried by one transaction: a contiguous range, since a
    /// transaction's rows are consecutive (see [`TransferColumns::tx`]).
    ///
    /// # Panics
    ///
    /// Panics if `tx` is beyond the store.
    pub fn tx_rows(&self, tx: TxId) -> Range<usize> {
        let start = self.tx_first_row[tx.index()] as usize;
        let end = self.tx_first_row.get(tx.index() + 1).map_or(self.len(), |&row| row as usize);
        start..end
    }

    /// The chronological rows of one NFT's history (empty for keys beyond
    /// the store).
    pub fn rows_of(&self, key: NftKey) -> &[u32] {
        self.rows_by_nft.get(key.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of transfers of one NFT.
    pub fn transfer_count_of(&self, key: NftKey) -> usize {
        self.rows_of(key).len()
    }

    /// Gather one row back into a [`TransferRow`].
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn row(&self, row: u32) -> TransferRow {
        let i = row as usize;
        TransferRow {
            nft: self.nft[i],
            from: self.from[i],
            to: self.to[i],
            tx_hash: self.tx_hash[i],
            block: self.block[i],
            timestamp: self.timestamp[i],
            price: self.price[i],
            marketplace: self.marketplace[i],
        }
    }

    /// Resolve one row into the address-keyed [`NftTransfer`] view — the
    /// report-boundary compatibility type.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds or an id is foreign to `interner`.
    pub fn resolve(&self, row: u32, interner: &Interner) -> NftTransfer {
        let i = row as usize;
        NftTransfer {
            nft: interner.nft(self.nft[i]),
            from: interner.address(self.from[i]),
            to: interner.address(self.to[i]),
            tx_hash: self.tx_hash[i],
            block: self.block[i],
            timestamp: self.timestamp[i],
            price: self.price[i],
            marketplace: self.marketplace[i].map(|id| interner.market(id)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethsim::Address;
    use tokens::NftId;

    fn row(nft: u32, from: u32, to: u32, at: u64) -> TransferRow {
        TransferRow {
            nft: NftKey(nft),
            from: AccountId(from),
            to: AccountId(to),
            tx_hash: TxHash::hash_of(format!("{nft}-{from}-{to}-{at}").as_bytes()),
            block: BlockNumber(at),
            timestamp: Timestamp::from_secs(at * 13),
            price: Wei::from_eth(1.0),
            marketplace: if at.is_multiple_of(2) { Some(MarketId(0)) } else { None },
        }
    }

    #[test]
    fn pushes_index_rows_per_nft_in_order() {
        let mut columns = TransferColumns::new();
        columns.push(row(0, 0, 1, 1));
        columns.push(row(1, 1, 2, 2));
        columns.push(row(0, 1, 0, 3));
        assert_eq!(columns.len(), 3);
        assert_eq!(columns.rows_of(NftKey(0)), &[0, 2]);
        assert_eq!(columns.rows_of(NftKey(1)), &[1]);
        assert_eq!(columns.rows_of(NftKey(9)), &[] as &[u32]);
        assert_eq!(columns.transfer_count_of(NftKey(0)), 2);
        let back = columns.row(2);
        assert_eq!((back.nft, back.from, back.to), (NftKey(0), AccountId(1), AccountId(0)));
    }

    #[test]
    fn consecutive_rows_of_one_transaction_share_an_id() {
        let mut columns = TransferColumns::new();
        for (nft, at) in [(0, 1), (1, 1), (0, 2), (2, 3), (1, 3)] {
            columns.push(TransferRow { tx_hash: TxHash::hash_of(&[at]), ..row(nft, 0, 1, 0) });
        }
        assert_eq!(columns.tx, [0, 0, 1, 2, 2].map(TxId));
        assert_eq!(columns.tx_count(), 3);
        assert_eq!(columns.tx_rows(TxId(0)), 0..2);
        assert_eq!(columns.tx_rows(TxId(1)), 2..3);
        assert_eq!(columns.tx_rows(TxId(2)), 3..5);
    }

    #[test]
    fn resolve_round_trips_through_the_interner() {
        let mut interner = Interner::new();
        let nft = NftId::new(Address::derived("collection"), 4);
        let key = interner.intern_nft(nft);
        let from = interner.intern_account(Address::derived("a"));
        let to = interner.intern_account(Address::derived("b"));
        let market = interner.intern_market(Address::derived("opensea"));
        let mut columns = TransferColumns::new();
        let index = columns.push(TransferRow {
            nft: key,
            from,
            to,
            tx_hash: TxHash::hash_of(b"t"),
            block: BlockNumber(7),
            timestamp: Timestamp::from_secs(91),
            price: Wei::from_eth(2.0),
            marketplace: Some(market),
        });
        let view = columns.resolve(index, &interner);
        assert_eq!(view.nft, nft);
        assert_eq!(view.from, Address::derived("a"));
        assert_eq!(view.to, Address::derived("b"));
        assert_eq!(view.marketplace, Some(Address::derived("opensea")));
        assert_eq!(view.price, Wei::from_eth(2.0));
    }
}
