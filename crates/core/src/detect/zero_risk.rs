//! The zero-risk position heuristic (§IV-C i).
//!
//! Wash trading is, by definition, a zero-risk manipulation: the colluding
//! set ends the operation without having changed its net market position.
//! Concretely, summing over the component's accounts the ETH received from
//! sales of the NFT minus the ETH spent buying it — over *every* trade of
//! that NFT touching the component, acquisitions from and disposals to
//! outsiders included, and factoring out gas — must come out to (almost)
//! exactly zero. Trades entirely inside the component always cancel; buying
//! the NFT from an outsider for value, or selling it onwards, breaks the
//! balance and therefore the zero-risk evidence.

use ethsim::Wei;
use ids::AccountId;

use crate::txgraph::NftGraph;

/// Tolerance below which a component's net position counts as zero:
/// 0.001 ETH absorbs rounding dust without masking real acquisitions.
pub const ZERO_RISK_TOLERANCE: Wei = Wei(1_000_000_000_000_000);

/// The component's net ETH position over all trades of the NFT that touch it
/// (positive = the component extracted value, negative = it injected value),
/// or `None` when it does not fit: the component's receipts or payments total
/// more than `u128::MAX` wei, or their difference leaves `i128`. Prices come
/// from chain logs, so a malformed one can be as large as `u128::MAX`.
///
/// Walks each member's incident edge lists from the graph's CSR topology —
/// O(component degree), not O(all trades of the NFT) — so evaluating many
/// candidates on a heavily traded NFT no longer rescans the full edge set
/// per candidate. Every edge is visited once per member endpoint (an
/// internal trade adds its price to both receipts and payments, cancelling
/// exactly), and both totals are exact integer sums of non-negative terms,
/// so the result, `None` included, is identical to a full-edge scan in any
/// order.
pub fn net_position(graph: &NftGraph, accounts: &[AccountId]) -> Option<i128> {
    let (mut received, mut paid) = (0u128, 0u128);
    for account in accounts {
        let Some(node) = graph.graph.node_id(account) else {
            continue;
        };
        for &edge in graph.graph.outgoing_edges(node) {
            received = received.checked_add(graph.graph.edge_weight(edge).price.raw())?;
        }
        for &edge in graph.graph.incoming_edges(node) {
            paid = paid.checked_add(graph.graph.edge_weight(edge).price.raw())?;
        }
    }
    if received >= paid {
        i128::try_from(received - paid).ok()
    } else {
        0i128.checked_sub_unsigned(paid - received)
    }
}

/// Whether the component holds a zero-risk position. A net position that
/// does not fit ([`net_position`] is `None`) is not zero-risk.
pub fn is_zero_risk(graph: &NftGraph, accounts: &[AccountId]) -> bool {
    net_position(graph, accounts).is_some_and(|net| net.unsigned_abs() <= ZERO_RISK_TOLERANCE.raw())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::txgraph::tests::{dataset_of, ids_of, transfer};
    use ethsim::Address;
    use tokens::NftId;

    fn world(transfers: &[(&str, &str, f64)]) -> (Dataset, NftGraph) {
        let nft = NftId::new(Address::derived("c"), 1);
        let transfers: Vec<_> = transfers
            .iter()
            .enumerate()
            .map(|(i, (from, to, price))| transfer(nft, from, to, *price, (i as u64 + 1) * 100))
            .collect();
        let dataset = dataset_of(&transfers);
        let key = dataset.interner.nft_key(nft).unwrap();
        let graph = NftGraph::from_columns(key, &dataset.columns);
        (dataset, graph)
    }

    fn pair(dataset: &Dataset) -> Vec<AccountId> {
        ids_of(dataset, &["a", "b"])
    }

    #[test]
    fn minted_round_trip_is_zero_risk() {
        let (dataset, graph) = world(&[("null", "a", 0.0), ("a", "b", 3.0), ("b", "a", 3.0)]);
        assert!(is_zero_risk(&graph, &pair(&dataset)));
        assert_eq!(net_position(&graph, &pair(&dataset)), Some(0));
    }

    #[test]
    fn internal_trades_cancel_even_with_escalating_prices() {
        // Internal trades always cancel within the component, regardless of
        // price path; only flows across the component boundary matter.
        let (dataset, graph) = world(&[("null", "a", 0.0), ("a", "b", 1.0), ("b", "a", 5.0)]);
        assert!(is_zero_risk(&graph, &pair(&dataset)));
    }

    #[test]
    fn external_acquisition_breaks_zero_risk() {
        let (dataset, graph) = world(&[
            ("null", "seller", 0.0),
            ("seller", "a", 1.0), // bought from an outsider for 1 ETH
            ("a", "b", 3.0),
            ("b", "a", 3.0),
        ]);
        assert!(!is_zero_risk(&graph, &pair(&dataset)));
        assert_eq!(
            net_position(&graph, &pair(&dataset)),
            Some(-(ethsim::Wei::from_eth(1.0).raw() as i128))
        );
    }

    #[test]
    fn external_resale_breaks_zero_risk() {
        let (dataset, graph) =
            world(&[("null", "a", 0.0), ("a", "b", 3.0), ("b", "a", 3.0), ("a", "victim", 10.0)]);
        assert!(!is_zero_risk(&graph, &pair(&dataset)));
        assert_eq!(
            net_position(&graph, &pair(&dataset)),
            Some(ethsim::Wei::from_eth(10.0).raw() as i128)
        );
    }

    #[test]
    fn max_price_acquisition_is_not_zero_risk() {
        // One ERC-20 log can price a sale at u128::MAX. Cast to i128 that
        // price reads as -1 wei, so buying the NFT from an outsider at it
        // would show as a +1 wei net position: false zero-risk evidence.
        let nft = NftId::new(Address::derived("c"), 1);
        let mut transfers = vec![
            transfer(nft, "null", "seller", 0.0, 100),
            transfer(nft, "seller", "a", 0.0, 200),
            transfer(nft, "a", "b", 3.0, 300),
            transfer(nft, "b", "a", 3.0, 400),
        ];
        transfers[1].price = ethsim::Wei(u128::MAX);
        let dataset = dataset_of(&transfers);
        let key = dataset.interner.nft_key(nft).unwrap();
        let graph = NftGraph::from_columns(key, &dataset.columns);
        assert!(!is_zero_risk(&graph, &pair(&dataset)));
        assert_eq!(net_position(&graph, &pair(&dataset)), None);
    }

    #[test]
    fn free_mint_and_free_transfers_are_trivially_zero_risk() {
        let (dataset, graph) = world(&[("null", "a", 0.0), ("a", "b", 0.0), ("b", "a", 0.0)]);
        assert!(is_zero_risk(&graph, &pair(&dataset)));
    }
}
