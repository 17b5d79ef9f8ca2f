//! Primitive Ethereum value types: addresses, 32-byte words, wei amounts,
//! block numbers, timestamps and function selectors.
//!
//! All types are small `Copy` newtypes with the common trait set
//! (`Debug`, `Display`, `Eq`, `Ord`, `Hash`, `serde`), so they can be used
//! directly as map keys and in serialized reports.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::keccak::keccak256;

/// Number of wei per ether (10^18).
pub const WEI_PER_ETH: u128 = 1_000_000_000_000_000_000;
/// Number of wei per gwei (10^9).
pub const WEI_PER_GWEI: u128 = 1_000_000_000;
/// Number of seconds per day, used to bucket activity by day as the paper does.
pub const SECONDS_PER_DAY: u64 = 86_400;

/// A 20-byte Ethereum account address.
///
/// # Examples
///
/// ```
/// use ethsim::types::Address;
/// let a = Address::derived("wash-trader-1");
/// assert!(!a.is_null());
/// assert!(a.to_string().starts_with("0x"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// The Ethereum null address (`0x0000…0000`), used as mint source and burn
    /// destination.
    pub const NULL: Address = Address([0u8; 20]);

    /// Create an address from raw bytes.
    pub fn from_bytes(bytes: [u8; 20]) -> Self {
        Address(bytes)
    }

    /// Deterministically derive an address from a seed string by taking the
    /// last 20 bytes of its Keccak-256 digest (mirroring how real addresses
    /// are the last 20 bytes of the Keccak of a public key).
    pub fn derived(seed: &str) -> Self {
        let digest = keccak256(seed.as_bytes());
        let mut bytes = [0u8; 20];
        bytes.copy_from_slice(&digest[12..32]);
        Address(bytes)
    }

    /// Whether this is the null address.
    pub fn is_null(&self) -> bool {
        self.0 == [0u8; 20]
    }

    /// Hex representation with `0x` prefix (42 characters total).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(42);
        s.push_str("0x");
        for byte in self.0 {
            s.push_str(&format!("{byte:02x}"));
        }
        s
    }

    /// The raw bytes of the address.
    pub fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({})", self.to_hex())
    }
}

/// Error returned when parsing an [`Address`] or [`B256`] from a hex string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseHexError {
    kind: &'static str,
    reason: String,
}

impl fmt::Display for ParseHexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {} hex string: {}", self.kind, self.reason)
    }
}

impl std::error::Error for ParseHexError {}

fn parse_hex(kind: &'static str, s: &str, expected_len: usize) -> Result<Vec<u8>, ParseHexError> {
    let stripped = s.strip_prefix("0x").unwrap_or(s);
    if stripped.len() != expected_len * 2 {
        return Err(ParseHexError {
            kind,
            reason: format!(
                "expected {} hex characters, found {}",
                expected_len * 2,
                stripped.len()
            ),
        });
    }
    let mut out = Vec::with_capacity(expected_len);
    let bytes = stripped.as_bytes();
    for i in 0..expected_len {
        let hi = (bytes[2 * i] as char).to_digit(16);
        let lo = (bytes[2 * i + 1] as char).to_digit(16);
        match (hi, lo) {
            (Some(h), Some(l)) => out.push(((h << 4) | l) as u8),
            _ => {
                return Err(ParseHexError {
                    kind,
                    reason: format!("non-hex character at position {}", 2 * i),
                })
            }
        }
    }
    Ok(out)
}

impl FromStr for Address {
    type Err = ParseHexError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bytes = parse_hex("address", s, 20)?;
        let mut arr = [0u8; 20];
        arr.copy_from_slice(&bytes);
        Ok(Address(arr))
    }
}

/// A 32-byte word: transaction hashes, log topics, storage keys.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct B256(pub [u8; 32]);

impl B256 {
    /// The all-zero word.
    pub const ZERO: B256 = B256([0u8; 32]);

    /// Create from raw bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        B256(bytes)
    }

    /// Keccak-256 of arbitrary bytes.
    pub fn hash_of(data: &[u8]) -> Self {
        B256(keccak256(data))
    }

    /// Left-pad a 20-byte address into a 32-byte topic, as the EVM does for
    /// indexed `address` event parameters.
    pub fn from_address(address: Address) -> Self {
        let mut bytes = [0u8; 32];
        bytes[12..32].copy_from_slice(address.as_bytes());
        B256(bytes)
    }

    /// Encode a u128 as a big-endian 32-byte word (indexed `uint256` topics).
    pub fn from_u128(value: u128) -> Self {
        let mut bytes = [0u8; 32];
        bytes[16..32].copy_from_slice(&value.to_be_bytes());
        B256(bytes)
    }

    /// Interpret the low 16 bytes as a big-endian u128. Returns `None` if any
    /// of the high 16 bytes are non-zero (value does not fit).
    pub fn to_u128(&self) -> Option<u128> {
        if self.0[..16].iter().any(|b| *b != 0) {
            return None;
        }
        let mut low = [0u8; 16];
        low.copy_from_slice(&self.0[16..32]);
        Some(u128::from_be_bytes(low))
    }

    /// Extract the trailing 20 bytes as an address (inverse of
    /// [`B256::from_address`]). Returns `None` unless the 12 leading padding
    /// bytes are zero: dropping them would map 2^96 distinct words onto one
    /// account.
    pub fn to_address(&self) -> Option<Address> {
        if self.0[..12].iter().any(|b| *b != 0) {
            return None;
        }
        let mut bytes = [0u8; 20];
        bytes.copy_from_slice(&self.0[12..32]);
        Some(Address(bytes))
    }

    /// Hex representation with `0x` prefix (66 characters total).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(66);
        s.push_str("0x");
        for byte in self.0 {
            s.push_str(&format!("{byte:02x}"));
        }
        s
    }
}

impl fmt::Display for B256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for B256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B256({})", self.to_hex())
    }
}

impl FromStr for B256 {
    type Err = ParseHexError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bytes = parse_hex("b256", s, 32)?;
        let mut arr = [0u8; 32];
        arr.copy_from_slice(&bytes);
        Ok(B256(arr))
    }
}

/// A transaction hash. Newtype over [`B256`] for static distinction from
/// topics and other 32-byte words.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct TxHash(pub B256);

impl TxHash {
    /// Hash arbitrary bytes into a transaction hash.
    pub fn hash_of(data: &[u8]) -> Self {
        TxHash(B256::hash_of(data))
    }

    /// Hex representation with `0x` prefix.
    pub fn to_hex(&self) -> String {
        self.0.to_hex()
    }
}

impl fmt::Display for TxHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.to_hex())
    }
}

impl fmt::Debug for TxHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TxHash({})", self.0.to_hex())
    }
}

/// An amount of wei (10^-18 ETH). Arithmetic is checked in debug builds and
/// saturating via the explicit `saturating_*` helpers.
///
/// # Examples
///
/// ```
/// use ethsim::types::Wei;
/// let one_eth = Wei::from_eth(1.0);
/// assert_eq!(one_eth.to_eth(), 1.0);
/// assert_eq!(one_eth + one_eth, Wei::from_eth(2.0));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct Wei(pub u128);

impl Wei {
    /// Zero wei.
    pub const ZERO: Wei = Wei(0);

    /// Construct from a raw wei amount.
    pub fn new(wei: u128) -> Self {
        Wei(wei)
    }

    /// Construct from a (non-negative) amount of ETH.
    ///
    /// # Panics
    ///
    /// Panics if `eth` is negative or not finite.
    pub fn from_eth(eth: f64) -> Self {
        assert!(eth.is_finite() && eth >= 0.0, "ETH amount must be non-negative and finite");
        Wei((eth * WEI_PER_ETH as f64).round() as u128)
    }

    /// Construct from an amount of gwei.
    pub fn from_gwei(gwei: u64) -> Self {
        Wei(gwei as u128 * WEI_PER_GWEI)
    }

    /// The value in ETH as a float (lossy for very large amounts, fine for
    /// reporting).
    pub fn to_eth(&self) -> f64 {
        self.0 as f64 / WEI_PER_ETH as f64
    }

    /// The raw wei amount.
    pub fn raw(&self) -> u128 {
        self.0
    }

    /// Whether the amount is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Wei) -> Wei {
        Wei(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Wei) -> Wei {
        Wei(self.0.saturating_add(rhs.0))
    }

    /// Checked subtraction; `None` on underflow.
    pub fn checked_sub(self, rhs: Wei) -> Option<Wei> {
        self.0.checked_sub(rhs.0).map(Wei)
    }

    /// Multiply by a basis-point fraction (1 bps = 0.01%), rounding down.
    /// Used for marketplace fee computation.
    pub fn bps(self, basis_points: u32) -> Wei {
        Wei(self.0 / 10_000 * basis_points as u128
            + self.0 % 10_000 * basis_points as u128 / 10_000)
    }
}

impl std::ops::Add for Wei {
    type Output = Wei;
    fn add(self, rhs: Wei) -> Wei {
        Wei(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Wei {
    fn add_assign(&mut self, rhs: Wei) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for Wei {
    type Output = Wei;
    fn sub(self, rhs: Wei) -> Wei {
        Wei(self.0 - rhs.0)
    }
}

impl std::ops::SubAssign for Wei {
    fn sub_assign(&mut self, rhs: Wei) {
        self.0 -= rhs.0;
    }
}

impl std::iter::Sum for Wei {
    fn sum<I: Iterator<Item = Wei>>(iter: I) -> Wei {
        iter.fold(Wei::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Display for Wei {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6} ETH", self.to_eth())
    }
}

impl fmt::Debug for Wei {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Wei({} = {:.6} ETH)", self.0, self.to_eth())
    }
}

/// A block number.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default, Debug,
)]
pub struct BlockNumber(pub u64);

impl BlockNumber {
    /// The genesis block number.
    pub const GENESIS: BlockNumber = BlockNumber(0);

    /// The next block number.
    pub fn next(&self) -> BlockNumber {
        BlockNumber(self.0 + 1)
    }
}

impl fmt::Display for BlockNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A unix timestamp in seconds.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default, Debug,
)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// Construct from unix seconds.
    pub fn from_secs(secs: u64) -> Self {
        Timestamp(secs)
    }

    /// Unix seconds value.
    pub fn secs(&self) -> u64 {
        self.0
    }

    /// The day index (days since the unix epoch); the paper buckets activity
    /// and reward distribution by day.
    pub fn day(&self) -> u64 {
        self.0 / SECONDS_PER_DAY
    }

    /// A timestamp this many seconds later.
    pub fn plus_secs(&self, secs: u64) -> Timestamp {
        Timestamp(self.0 + secs)
    }

    /// A timestamp this many whole days later.
    pub fn plus_days(&self, days: u64) -> Timestamp {
        Timestamp(self.0 + days * SECONDS_PER_DAY)
    }

    /// Seconds elapsed since an earlier timestamp (saturating).
    pub fn seconds_since(&self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Whole days elapsed since an earlier timestamp (saturating).
    pub fn days_since(&self, earlier: Timestamp) -> u64 {
        self.seconds_since(earlier) / SECONDS_PER_DAY
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

/// A 4-byte function selector.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default, Debug,
)]
pub struct Selector(pub [u8; 4]);

impl Selector {
    /// Compute the selector of a canonical Solidity signature.
    pub fn of(signature: &str) -> Self {
        Selector(crate::keccak::selector(signature))
    }
}

impl fmt::Display for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:02x}{:02x}{:02x}{:02x}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_derivation_is_deterministic_and_distinct() {
        let a = Address::derived("alice");
        let b = Address::derived("alice");
        let c = Address::derived("bob");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_null());
    }

    #[test]
    fn null_address_roundtrip() {
        assert!(Address::NULL.is_null());
        assert_eq!(Address::NULL.to_hex(), format!("0x{}", "00".repeat(20)));
    }

    #[test]
    fn address_hex_roundtrip() {
        let a = Address::derived("roundtrip");
        let parsed: Address = a.to_hex().parse().expect("parse");
        assert_eq!(a, parsed);
    }

    #[test]
    fn address_parse_rejects_bad_input() {
        assert!("0x1234".parse::<Address>().is_err());
        assert!("0xzz00000000000000000000000000000000000000".parse::<Address>().is_err());
    }

    #[test]
    fn b256_address_roundtrip() {
        let a = Address::derived("topic");
        let topic = B256::from_address(a);
        assert_eq!(topic.to_address(), Some(a));
        // A word with any non-zero padding byte is not an address.
        for byte in [0, 11] {
            let mut dirty = topic;
            dirty.0[byte] = 0xff;
            assert_eq!(dirty.to_address(), None, "padding byte {byte} set");
        }
    }

    #[test]
    fn b256_u128_roundtrip() {
        let v = 123_456_789_u128;
        assert_eq!(B256::from_u128(v).to_u128(), Some(v));
        // A hash will essentially never fit in the low 16 bytes.
        assert_eq!(B256::hash_of(b"big").to_u128(), None);
    }

    #[test]
    fn wei_eth_conversion() {
        assert_eq!(Wei::from_eth(1.5).raw(), 1_500_000_000_000_000_000);
        assert!((Wei::new(2_500_000_000_000_000_000).to_eth() - 2.5).abs() < 1e-12);
        assert_eq!(Wei::from_gwei(30).raw(), 30_000_000_000);
    }

    #[test]
    #[should_panic]
    fn wei_from_negative_eth_panics() {
        let _ = Wei::from_eth(-1.0);
    }

    #[test]
    fn wei_bps_fee() {
        // 2.5% of 1 ETH is 0.025 ETH.
        let fee = Wei::from_eth(1.0).bps(250);
        assert_eq!(fee, Wei::from_eth(0.025));
        // 2% of 100 ETH is 2 ETH.
        assert_eq!(Wei::from_eth(100.0).bps(200), Wei::from_eth(2.0));
        assert_eq!(Wei::ZERO.bps(250), Wei::ZERO);
    }

    #[test]
    fn wei_arithmetic() {
        let a = Wei::from_eth(3.0);
        let b = Wei::from_eth(1.0);
        assert_eq!(a - b, Wei::from_eth(2.0));
        assert_eq!(a.saturating_sub(Wei::from_eth(5.0)), Wei::ZERO);
        assert_eq!(b.checked_sub(a), None);
        let total: Wei = vec![a, b, b].into_iter().sum();
        assert_eq!(total, Wei::from_eth(5.0));
    }

    #[test]
    fn timestamp_day_math() {
        let t = Timestamp::from_secs(10 * SECONDS_PER_DAY + 5);
        assert_eq!(t.day(), 10);
        assert_eq!(t.plus_days(2).day(), 12);
        assert_eq!(t.plus_days(2).days_since(t), 2);
        assert_eq!(t.days_since(t.plus_days(2)), 0, "saturating");
    }

    #[test]
    fn selector_display() {
        let sel = Selector::of("supportsInterface(bytes4)");
        assert_eq!(sel.to_string(), "0x01ffc9a7");
    }
}
