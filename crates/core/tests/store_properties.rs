//! Robustness of the persistent store's record envelope
//! (`store::encode_record` / `store::decode_record`): arbitrary bytes
//! are an error, never a panic; a valid record round-trips; and a wrong
//! key, any truncation, an appended byte or any single-byte flip is an
//! error.

use bmp_core::store::{decode_record, encode_record, RECORD_HEADER_LEN};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bytes that were never a record — empty, header-sized, or with a
    /// valid magic and version in front — are rejected without a panic.
    #[test]
    fn arbitrary_bytes_are_an_error(
        key in any::<u64>(),
        bytes in prop::collection::vec(0u8..=255, 0..96),
        forge_header in any::<bool>(),
    ) {
        let mut bytes = bytes;
        if forge_header && bytes.len() >= 8 {
            let valid = encode_record(key, &[]);
            bytes[..8].copy_from_slice(&valid[..8]);
        }
        // A forged header over random bytes could in principle be valid;
        // only a genuine encoding may decode.
        if let Ok(payload) = decode_record(key, &bytes) {
            prop_assert_eq!(encode_record(key, payload), bytes);
        }
    }

    /// A valid record decodes to its payload; every mutation of it fails.
    #[test]
    fn valid_records_round_trip_and_every_mutation_fails(
        key in any::<u64>(),
        other in any::<u64>(),
        payload in prop::collection::vec(0u8..=255, 0..64),
        extra in 0u8..=255,
        mask in 1u8..=255,
    ) {
        let record = encode_record(key, &payload);
        prop_assert_eq!(record.len(), RECORD_HEADER_LEN + payload.len());
        prop_assert_eq!(decode_record(key, &record), Ok(&payload[..]));
        if other != key {
            prop_assert!(decode_record(other, &record).is_err());
        }
        for cut in 0..record.len() {
            prop_assert!(decode_record(key, &record[..cut]).is_err(), "prefix {}", cut);
        }
        let mut longer = record.clone();
        longer.push(extra);
        prop_assert!(decode_record(key, &longer).is_err());
        for at in 0..record.len() {
            let mut flipped = record.clone();
            flipped[at] ^= mask;
            prop_assert!(decode_record(key, &flipped).is_err(), "flip at {}", at);
        }
    }
}
