//! The common-funder (§IV-C ii) and common-exit (§IV-C iii) heuristics.
//!
//! Colluding accounts are usually operated by one entity, which shows up in
//! the money flow around the manipulation: the accounts receive their initial
//! funds from a common account before the first wash trade, and sweep the
//! proceeds back to a common account afterwards. Exchange and DeFi addresses
//! are excluded from being common *external* funders/exits, because they fund
//! and receive from thousands of unrelated users.
//!
//! Both heuristics are the same computation with the flow direction
//! reversed, so they share `common_flow`: collect the counterparties of
//! each colluding account's qualifying transactions, then pick the account
//! that touches the most colluders. Per-counterparty colluder sets are
//! [`BitSet`]s over component-local positions — the counterparty key itself
//! stays an [`Address`], because funders and exits are arbitrary chain
//! accounts that need not appear in any transfer (and hence have no dense
//! id).

use std::collections::HashMap;

use ethsim::{Address, Chain, Timestamp};
use ids::BitSet;
use labels::LabelRegistry;
use serde::{Deserialize, Serialize};

/// Whether the common account sits inside or outside the colluding set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowKind {
    /// The common account is one of the colluding accounts.
    Internal,
    /// The common account is outside the colluding set.
    External,
}

/// Evidence produced by the funder or exit heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowEvidence {
    /// Internal or external common account.
    pub kind: FlowKind,
    /// The common funder / exit account.
    pub account: Address,
    /// How many colluding accounts it funded / received from.
    pub degree: usize,
}

/// Which side of the manipulation a flow search looks at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowDirection {
    /// Money *into* the colluders before the first trade (common funder).
    Funding,
    /// Money *out of* the colluders after the last trade (common exit).
    Exit,
}

/// Find a common funder for the component: an account that sends ETH or
/// ERC-20 tokens (in transactions that move no NFT) to colluding accounts
/// *before* the first wash trade. An internal funder needs to fund at least
/// one other colluder; an external funder at least two, and must not be an
/// exchange or DeFi service.
pub fn common_funder(
    chain: &Chain,
    labels: &LabelRegistry,
    accounts: &[Address],
    first_trade: Timestamp,
) -> Option<FlowEvidence> {
    common_flow(chain, labels, accounts, first_trade, FlowDirection::Funding)
}

/// Find a common exit for the component: an account that receives ETH or
/// ERC-20 tokens from colluding accounts (in transactions that move no NFT)
/// *after* the last wash trade. An internal exit needs one sender, an
/// external exit at least two and must not be an exchange or DeFi service.
pub fn common_exit(
    chain: &Chain,
    labels: &LabelRegistry,
    accounts: &[Address],
    last_trade: Timestamp,
) -> Option<FlowEvidence> {
    common_flow(chain, labels, accounts, last_trade, FlowDirection::Exit)
}

/// The shared direction-parameterized search behind both heuristics.
fn common_flow(
    chain: &Chain,
    labels: &LabelRegistry,
    accounts: &[Address],
    cutoff: Timestamp,
    direction: FlowDirection,
) -> Option<FlowEvidence> {
    // Counterparty → bitset of component positions it touched.
    let mut touched: HashMap<Address, BitSet> = HashMap::new();
    let mut counterparties: Vec<Address> = Vec::new();
    for (position, &account) in accounts.iter().enumerate() {
        for tx in chain.transactions_of(account) {
            counterparties.clear();
            match direction {
                FlowDirection::Funding => {
                    if tx.timestamp >= cutoff || !tx.is_funding_of(account) {
                        continue;
                    }
                    // The funder is the transaction sender for plain ETH
                    // transfers and the token sender for ERC-20 funding.
                    counterparties.push(tx.from);
                    for log in &tx.logs {
                        if let Some(transfer) = log.decode_erc20_transfer() {
                            if transfer.to == account && transfer.amount > 0 {
                                counterparties.push(transfer.from);
                            }
                        }
                    }
                }
                FlowDirection::Exit => {
                    if tx.timestamp <= cutoff {
                        continue;
                    }
                    if tx.logs.iter().any(|log| log.is_erc721_transfer()) {
                        continue;
                    }
                    if tx.from == account && !tx.value.is_zero() {
                        if let Some(to) = tx.to {
                            counterparties.push(to);
                        }
                    }
                    for transfer in &tx.internal_transfers {
                        if transfer.from == account && !transfer.value.is_zero() {
                            counterparties.push(transfer.to);
                        }
                    }
                    for log in &tx.logs {
                        if let Some(transfer) = log.decode_erc20_transfer() {
                            if transfer.from == account && transfer.amount > 0 {
                                counterparties.push(transfer.to);
                            }
                        }
                    }
                }
            }
            for &counterparty in &counterparties {
                if counterparty == account {
                    continue;
                }
                touched.entry(counterparty).or_default().insert(position);
            }
        }
    }

    // Components hold a handful of accounts, so a linear probe beats any
    // sortedness precondition (and keeps the public API order-insensitive).
    let kind_of = |counterparty: &Address| {
        if accounts.contains(counterparty) {
            FlowKind::Internal
        } else {
            FlowKind::External
        }
    };
    // Prefer an internal account (the paper finds internal funders 4× as
    // often as external ones). Degree ties break towards the lowest address:
    // `touched` is a HashMap, so an unkeyed max would follow per-process
    // random iteration order.
    let internal = touched
        .iter()
        .filter(|(counterparty, set)| {
            kind_of(counterparty) == FlowKind::Internal && !set.is_empty()
        })
        .max_by_key(|(counterparty, set)| (set.len(), std::cmp::Reverse(**counterparty)))
        .map(|(counterparty, set)| FlowEvidence {
            kind: FlowKind::Internal,
            account: *counterparty,
            degree: set.len(),
        });
    if internal.is_some() {
        return internal;
    }
    touched
        .iter()
        .filter(|(counterparty, set)| {
            kind_of(counterparty) == FlowKind::External
                && set.len() >= 2
                && !labels.is_exchange_or_defi(**counterparty)
        })
        .max_by_key(|(counterparty, set)| (set.len(), std::cmp::Reverse(**counterparty)))
        .map(|(counterparty, set)| FlowEvidence {
            kind: FlowKind::External,
            account: *counterparty,
            degree: set.len(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethsim::{TxRequest, Wei};
    use labels::LabelCategory;

    struct Setup {
        chain: Chain,
        labels: LabelRegistry,
        a: Address,
        b: Address,
    }

    impl Setup {
        /// The colluding pair, sorted as candidate account lists are.
        fn pair(&self) -> Vec<Address> {
            let mut pair = vec![self.a, self.b];
            pair.sort();
            pair
        }
    }

    fn setup() -> Setup {
        let mut chain = Chain::new(Timestamp::from_secs(1_000_000));
        let a = chain.create_eoa("washer-a").unwrap();
        let b = chain.create_eoa("washer-b").unwrap();
        chain.fund(a, Wei::from_eth(1.0));
        chain.fund(b, Wei::from_eth(1.0));
        Setup { chain, labels: LabelRegistry::new(), a, b }
    }

    fn gwei() -> Wei {
        Wei::from_gwei(20)
    }

    #[test]
    fn internal_funder_is_found() {
        let mut s = setup();
        s.chain.fund(s.a, Wei::from_eth(10.0));
        s.chain.submit(TxRequest::ether_transfer(s.a, s.b, Wei::from_eth(4.0), gwei())).unwrap();
        s.chain.seal_block(Timestamp::from_secs(2_000_000)).unwrap();
        let first_trade = Timestamp::from_secs(2_000_000);
        let evidence = common_funder(&s.chain, &s.labels, &s.pair(), first_trade).expect("funder");
        assert_eq!(evidence.kind, FlowKind::Internal);
        assert_eq!(evidence.account, s.a);
        assert_eq!(evidence.degree, 1);
    }

    #[test]
    fn external_funder_requires_two_recipients_and_no_exchange_label() {
        let mut s = setup();
        let funder = s.chain.create_eoa("outside-funder").unwrap();
        s.chain.fund(funder, Wei::from_eth(20.0));
        s.chain.submit(TxRequest::ether_transfer(funder, s.a, Wei::from_eth(3.0), gwei())).unwrap();
        let first_trade = Timestamp::from_secs(2_000_000);
        // Only one colluder funded: not enough.
        assert!(common_funder(&s.chain, &s.labels, &s.pair(), first_trade).is_none());
        s.chain.submit(TxRequest::ether_transfer(funder, s.b, Wei::from_eth(3.0), gwei())).unwrap();
        let evidence = common_funder(&s.chain, &s.labels, &s.pair(), first_trade).expect("funder");
        assert_eq!(evidence.kind, FlowKind::External);
        assert_eq!(evidence.account, funder);
        assert_eq!(evidence.degree, 2);

        // Once the funder is labelled as an exchange, the evidence vanishes.
        s.labels.insert(funder, "Coinbase 12", LabelCategory::Exchange);
        assert!(common_funder(&s.chain, &s.labels, &s.pair(), first_trade).is_none());
    }

    #[test]
    fn funding_after_the_first_trade_does_not_count() {
        let mut s = setup();
        s.chain.fund(s.a, Wei::from_eth(10.0));
        s.chain.seal_block(Timestamp::from_secs(3_000_000)).unwrap();
        s.chain.submit(TxRequest::ether_transfer(s.a, s.b, Wei::from_eth(4.0), gwei())).unwrap();
        // The "funding" happens after the trades started.
        let first_trade = Timestamp::from_secs(2_000_000);
        assert!(common_funder(&s.chain, &s.labels, &s.pair(), first_trade).is_none());
    }

    #[test]
    fn internal_exit_is_found() {
        let mut s = setup();
        s.chain.fund(s.b, Wei::from_eth(10.0));
        s.chain.seal_block(Timestamp::from_secs(5_000_000)).unwrap();
        s.chain.submit(TxRequest::ether_transfer(s.b, s.a, Wei::from_eth(9.0), gwei())).unwrap();
        let last_trade = Timestamp::from_secs(4_000_000);
        let evidence = common_exit(&s.chain, &s.labels, &s.pair(), last_trade).expect("exit");
        assert_eq!(evidence.kind, FlowKind::Internal);
        assert_eq!(evidence.account, s.a);
    }

    #[test]
    fn external_exit_requires_two_senders() {
        let mut s = setup();
        let sink = s.chain.create_eoa("profit-sink").unwrap();
        s.chain.fund(s.a, Wei::from_eth(5.0));
        s.chain.fund(s.b, Wei::from_eth(5.0));
        s.chain.seal_block(Timestamp::from_secs(5_000_000)).unwrap();
        s.chain.submit(TxRequest::ether_transfer(s.a, sink, Wei::from_eth(4.0), gwei())).unwrap();
        let last_trade = Timestamp::from_secs(4_000_000);
        assert!(common_exit(&s.chain, &s.labels, &s.pair(), last_trade).is_none());
        s.chain.submit(TxRequest::ether_transfer(s.b, sink, Wei::from_eth(4.0), gwei())).unwrap();
        let evidence = common_exit(&s.chain, &s.labels, &s.pair(), last_trade).expect("exit");
        assert_eq!(evidence.kind, FlowKind::External);
        assert_eq!(evidence.account, sink);
        assert_eq!(evidence.degree, 2);
    }

    #[test]
    fn transfers_before_last_trade_are_ignored_for_exit() {
        let mut s = setup();
        s.chain.fund(s.a, Wei::from_eth(5.0));
        s.chain.submit(TxRequest::ether_transfer(s.a, s.b, Wei::from_eth(4.0), gwei())).unwrap();
        let last_trade = Timestamp::from_secs(9_000_000);
        assert!(common_exit(&s.chain, &s.labels, &s.pair(), last_trade).is_none());
    }
}
