//! Event logs emitted by (simulated) smart contracts.
//!
//! The paper identifies ERC-721 transfers purely from log structure: the
//! `Transfer(address,address,uint256)` topic (`0xddf252ad…`) with **four**
//! topics (the token id is indexed), versus ERC-20 which uses the same topic
//! hash but only **three** topics (the value lives in the data field), versus
//! ERC-1155 which uses a different topic hash entirely
//! (`TransferSingle(address,address,address,uint256,uint256)`).
//! This module provides constructors and decoders for all three shapes.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::keccak::event_topic;
use crate::types::{Address, B256};

/// The shared `Transfer(address,address,uint256)` topic used by both ERC-20
/// and ERC-721.
pub fn transfer_topic() -> B256 {
    static TOPIC: OnceLock<B256> = OnceLock::new();
    *TOPIC.get_or_init(|| B256(event_topic("Transfer(address,address,uint256)")))
}

/// The ERC-1155 `TransferSingle` topic.
pub fn transfer_single_topic() -> B256 {
    static TOPIC: OnceLock<B256> = OnceLock::new();
    *TOPIC.get_or_init(|| {
        B256(event_topic("TransferSingle(address,address,address,uint256,uint256)"))
    })
}

/// An event log emitted by a contract during a transaction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Log {
    /// The contract that emitted the log.
    pub address: Address,
    /// Indexed topics; `topics[0]` is the event signature hash.
    pub topics: Vec<B256>,
    /// ABI-encoded non-indexed data.
    pub data: Vec<u8>,
}

/// A decoded ERC-721 `Transfer` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Erc721Transfer {
    /// The NFT contract that emitted the event.
    pub contract: Address,
    /// Previous owner (the null address for mints).
    pub from: Address,
    /// New owner (the null address for burns).
    pub to: Address,
    /// The token id within the collection.
    pub token_id: u64,
}

/// A decoded ERC-20 `Transfer` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Erc20Transfer {
    /// The token contract that emitted the event.
    pub contract: Address,
    /// Sender of the tokens.
    pub from: Address,
    /// Recipient of the tokens.
    pub to: Address,
    /// Amount in the token's base units.
    pub amount: u128,
}

impl Log {
    /// Build an ERC-721 compliant `Transfer` log: 4 topics, empty data.
    pub fn erc721_transfer(contract: Address, from: Address, to: Address, token_id: u64) -> Log {
        Log {
            address: contract,
            topics: vec![
                transfer_topic(),
                B256::from_address(from),
                B256::from_address(to),
                B256::from_u128(token_id as u128),
            ],
            data: Vec::new(),
        }
    }

    /// Build an ERC-20 compliant `Transfer` log: 3 topics, amount in data.
    pub fn erc20_transfer(contract: Address, from: Address, to: Address, amount: u128) -> Log {
        Log {
            address: contract,
            topics: vec![transfer_topic(), B256::from_address(from), B256::from_address(to)],
            data: B256::from_u128(amount).0.to_vec(),
        }
    }

    /// Build an ERC-1155 `TransferSingle` log.
    pub fn erc1155_transfer_single(
        contract: Address,
        operator: Address,
        from: Address,
        to: Address,
        token_id: u64,
        amount: u128,
    ) -> Log {
        let mut data = Vec::with_capacity(64);
        data.extend_from_slice(&B256::from_u128(token_id as u128).0);
        data.extend_from_slice(&B256::from_u128(amount).0);
        Log {
            address: contract,
            topics: vec![
                transfer_single_topic(),
                B256::from_address(operator),
                B256::from_address(from),
                B256::from_address(to),
            ],
            data,
        }
    }

    /// Whether this log has the ERC-721 transfer shape (shared topic + 4 topics).
    pub fn is_erc721_transfer(&self) -> bool {
        self.topics.len() == 4 && self.topics[0] == transfer_topic()
    }

    /// Whether this log has the ERC-20 transfer shape (shared topic + 3 topics).
    pub fn is_erc20_transfer(&self) -> bool {
        self.topics.len() == 3 && self.topics[0] == transfer_topic()
    }

    /// Whether this log is an ERC-1155 `TransferSingle`.
    pub fn is_erc1155_transfer(&self) -> bool {
        self.topics.len() == 4 && self.topics[0] == transfer_single_topic()
    }

    /// Decode as an ERC-721 transfer, if the shape matches. Token ids
    /// outside `u64` are dropped rather than truncated: keeping only the low
    /// bits would merge two tokens of one contract into one NFT. So are
    /// address topics with non-zero padding, which would otherwise alias the
    /// account in their low 20 bytes.
    pub fn decode_erc721_transfer(&self) -> Option<Erc721Transfer> {
        if !self.is_erc721_transfer() {
            return None;
        }
        Some(Erc721Transfer {
            contract: self.address,
            from: self.topics[1].to_address()?,
            to: self.topics[2].to_address()?,
            token_id: u64::try_from(self.topics[3].to_u128()?).ok()?,
        })
    }

    /// Decode as an ERC-20 transfer, if the shape matches. Address topics
    /// with non-zero padding are dropped, as in
    /// [`Log::decode_erc721_transfer`].
    pub fn decode_erc20_transfer(&self) -> Option<Erc20Transfer> {
        if !self.is_erc20_transfer() {
            return None;
        }
        if self.data.len() != 32 {
            return None;
        }
        let mut word = [0u8; 32];
        word.copy_from_slice(&self.data);
        Some(Erc20Transfer {
            contract: self.address,
            from: self.topics[1].to_address()?,
            to: self.topics[2].to_address()?,
            amount: B256(word).to_u128()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_constants_match_known_values() {
        assert!(transfer_topic().to_hex().starts_with("0xddf252ad"));
        assert!(transfer_single_topic().to_hex().starts_with("0xc3d58168"));
    }

    #[test]
    fn erc721_log_roundtrip() {
        let contract = Address::derived("nft-contract");
        let from = Address::derived("seller");
        let to = Address::derived("buyer");
        let log = Log::erc721_transfer(contract, from, to, 42);
        assert!(log.is_erc721_transfer());
        assert!(!log.is_erc20_transfer());
        assert!(!log.is_erc1155_transfer());
        let decoded = log.decode_erc721_transfer().expect("decode");
        assert_eq!(decoded.contract, contract);
        assert_eq!(decoded.from, from);
        assert_eq!(decoded.to, to);
        assert_eq!(decoded.token_id, 42);
        assert_eq!(log.decode_erc20_transfer(), None);
    }

    #[test]
    fn erc721_token_ids_beyond_u64_are_dropped_not_truncated() {
        let mut log =
            Log::erc721_transfer(Address::derived("c"), Address::NULL, Address::derived("m"), 5);
        log.topics[3] = B256::from_u128((1u128 << 64) + 5);
        assert_eq!(log.decode_erc721_transfer(), None);
        log.topics[3] = B256::from_u128(u128::from(u64::MAX));
        assert_eq!(log.decode_erc721_transfer().map(|t| t.token_id), Some(u64::MAX));
    }

    /// `topic` with its first padding byte set: the low 20 bytes still spell
    /// the original address.
    fn dirty(topic: B256) -> B256 {
        let mut bytes = topic.0;
        bytes[0] = 0xff;
        B256(bytes)
    }

    #[test]
    fn erc721_padded_address_topics_are_dropped_not_aliased() {
        let (from, to) = (Address::derived("seller"), Address::derived("buyer"));
        let clean = Log::erc721_transfer(Address::derived("c"), from, to, 3);
        assert!(clean.decode_erc721_transfer().is_some());
        for topic in [1, 2] {
            let mut log = clean.clone();
            log.topics[topic] = dirty(log.topics[topic]);
            assert_eq!(log.decode_erc721_transfer(), None, "dirty topic {topic}");
        }
    }

    #[test]
    fn erc20_padded_address_topics_are_dropped_not_aliased() {
        let (from, to) = (Address::derived("payer"), Address::derived("payee"));
        let clean = Log::erc20_transfer(Address::derived("weth"), from, to, 9);
        assert!(clean.decode_erc20_transfer().is_some());
        for topic in [1, 2] {
            let mut log = clean.clone();
            log.topics[topic] = dirty(log.topics[topic]);
            assert_eq!(log.decode_erc20_transfer(), None, "dirty topic {topic}");
        }
    }

    #[test]
    fn erc20_log_roundtrip() {
        let contract = Address::derived("weth");
        let from = Address::derived("payer");
        let to = Address::derived("payee");
        let log = Log::erc20_transfer(contract, from, to, 1_000_000);
        assert!(log.is_erc20_transfer());
        assert!(!log.is_erc721_transfer());
        let decoded = log.decode_erc20_transfer().expect("decode");
        assert_eq!(decoded.amount, 1_000_000);
        assert_eq!(decoded.from, from);
        assert_eq!(decoded.to, to);
        assert_eq!(log.decode_erc721_transfer(), None);
    }

    #[test]
    fn erc1155_log_is_not_confused_with_erc721() {
        let log = Log::erc1155_transfer_single(
            Address::derived("multi"),
            Address::derived("op"),
            Address::derived("a"),
            Address::derived("b"),
            7,
            3,
        );
        assert!(log.is_erc1155_transfer());
        assert!(!log.is_erc721_transfer());
        assert_eq!(log.decode_erc721_transfer(), None);
    }

    #[test]
    fn mint_and_burn_use_null_address() {
        let log = Log::erc721_transfer(
            Address::derived("c"),
            Address::NULL,
            Address::derived("minter"),
            1,
        );
        let decoded = log.decode_erc721_transfer().unwrap();
        assert!(decoded.from.is_null());
    }

    #[test]
    fn malformed_erc20_data_is_rejected() {
        let mut log = Log::erc20_transfer(
            Address::derived("weth"),
            Address::derived("a"),
            Address::derived("b"),
            5,
        );
        log.data.truncate(10);
        assert_eq!(log.decode_erc20_transfer(), None);
    }

    /// Whether `word` left-pads a value of at most `width` bytes.
    fn fits(word: &[u8], width: usize) -> bool {
        word[..word.len() - width].iter().all(|&byte| byte == 0)
    }

    /// The ERC-721 encoder's image, read off the bytes: four topics under
    /// the transfer topic, two address words and a `u64` token id word
    /// (`data` is not part of the shape).
    fn canonical_erc721(log: &Log) -> bool {
        log.topics.len() == 4
            && log.topics[0] == transfer_topic()
            && fits(&log.topics[1].0, 20)
            && fits(&log.topics[2].0, 20)
            && fits(&log.topics[3].0, 8)
    }

    /// The ERC-20 encoder's image: three topics under the transfer topic,
    /// two address words, and one `u128` amount word as the whole data.
    fn canonical_erc20(log: &Log) -> bool {
        log.topics.len() == 3
            && log.topics[0] == transfer_topic()
            && fits(&log.topics[1].0, 20)
            && fits(&log.topics[2].0, 20)
            && log.data.len() == 32
            && fits(&log.data, 16)
    }

    proptest::proptest! {
        // Valid ERC-721 and ERC-20 transfer logs, each with one mutation:
        // 0–6 topics, a non-zero byte in an address topic's padding, a
        // token id ≥ 2⁶⁴ (ERC-721) or an amount word ≥ 2¹²⁸ (ERC-20), or
        // 0–96 data bytes. Some mutations land on a valid log (the original
        // topic count, 32 data bytes, a fourth topic shaped like a token
        // id). Neither decoder panics, and each decodes exactly the logs in
        // its encoder's image: whatever it decodes re-encodes to the log
        // (the topics for ERC-721, whose decoder ignores `data`; the whole
        // log for ERC-20), and every other log decodes to `None`.
        #[test]
        fn mutated_transfer_logs_decode_only_when_they_re_encode(
            (topics, data_len) in (0usize..7, 0usize..97),
            (padded_topic, at) in (1usize..3, 0usize..24),
            (byte, token) in (1u16..256, 0u64..u64::MAX),
            (high, low) in (0u64..u64::MAX, 0u64..u64::MAX),
            noise in proptest::collection::vec(0u16..256, 192..193),
        ) {
            let noise: Vec<u8> = noise.into_iter().map(|byte| byte as u8).collect();
            let byte = byte as u8;
            let address = |offset: usize| {
                let mut bytes = [0u8; 20];
                bytes.copy_from_slice(&noise[offset..offset + 20]);
                Address(bytes)
            };
            let (contract, from, to) = (address(0), address(20), address(40));
            let amount = (u128::from(high) << 64) | u128::from(low);
            for erc20 in [false, true] {
                for mutation in 0..4 {
                    let mut log = if erc20 {
                        Log::erc20_transfer(contract, from, to, amount)
                    } else {
                        Log::erc721_transfer(contract, from, to, token)
                    };
                    match mutation {
                        0 => {
                            log.topics.truncate(topics);
                            // Extra topics are noise words, every other one
                            // shaped like a token id.
                            while log.topics.len() < topics {
                                let slot = log.topics.len();
                                let mut word = [0u8; 32];
                                word.copy_from_slice(&noise[60 + 32 * (slot - 3)..][..32]);
                                if slot % 2 == 1 {
                                    word[..24].fill(0);
                                }
                                log.topics.push(B256(word));
                            }
                        }
                        1 => log.topics[padded_topic].0[at % 12] = byte,
                        2 if erc20 => log.data[at % 16] = byte,
                        2 => log.topics[3].0[at] = byte,
                        _ => {
                            log.data.truncate(data_len);
                            let kept = log.data.len();
                            log.data.extend_from_slice(&noise[96..96 + data_len - kept]);
                        }
                    }

                    let erc721_decoded = log.decode_erc721_transfer();
                    let erc20_decoded = log.decode_erc20_transfer();
                    proptest::prop_assert_eq!(
                        erc721_decoded.is_some(),
                        canonical_erc721(&log),
                        "{log:?}"
                    );
                    proptest::prop_assert_eq!(
                        erc20_decoded.is_some(),
                        canonical_erc20(&log),
                        "{log:?}"
                    );
                    if let Some(transfer) = erc721_decoded {
                        let encoded = Log::erc721_transfer(
                            transfer.contract,
                            transfer.from,
                            transfer.to,
                            transfer.token_id,
                        );
                        proptest::prop_assert_eq!(encoded.address, log.address);
                        proptest::prop_assert_eq!(&encoded.topics, &log.topics);
                    }
                    if let Some(transfer) = erc20_decoded {
                        let encoded = Log::erc20_transfer(
                            transfer.contract,
                            transfer.from,
                            transfer.to,
                            transfer.amount,
                        );
                        proptest::prop_assert_eq!(&encoded, &log);
                    }
                }
            }
        }
    }
}
