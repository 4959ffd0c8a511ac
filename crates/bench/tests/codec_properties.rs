//! Robustness of the persisted-simulation codec: `decode_sim_result`
//! reads bytes from disk, so on any input it must return a result or an
//! error, never panic. Valid encodings round-trip exactly; truncated or
//! extended ones are rejected; and because the format is strict, any
//! bytes that do decode re-encode to themselves.

use bmp_bench::codec::{decode_sim_result, encode_sim_result, CODEC_VERSION};
use bmp_sim::{SimOptions, SimResult, Simulator};
use bmp_uarch::presets;
use bmp_workloads::spec;
use proptest::prelude::*;
use proptest::TestCaseError;

/// A simulation of a short spec-profile trace; `mode` picks plain,
/// warmed-up or dispatch-timeline output, so every optional field of the
/// layout is exercised.
fn simulate(name: &str, ops: usize, seed: u64, mode: u8) -> SimResult {
    let options = match mode {
        0 => SimOptions::default(),
        1 => SimOptions::with_warmup(ops as u64 / 2),
        _ => SimOptions::with_timeline(),
    };
    let trace = spec::by_name(name)
        .expect("spec profile")
        .generate(ops, seed);
    Simulator::with_options(presets::baseline_4wide(), options).run(&trace)
}

fn arb_encoding() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::sample::select(spec::NAMES.to_vec()),
        50usize..800,
        0u64..1_000,
        0u8..3,
    )
        .prop_map(|(name, ops, seed, mode)| encode_sim_result(&simulate(name, ops, seed, mode)))
}

/// Decodes `bytes` (a panic fails the test) and, when they decode,
/// checks that they are exactly the encoding of what they decoded to.
fn decode_is_strict(bytes: &[u8]) -> Result<bool, TestCaseError> {
    match decode_sim_result(bytes) {
        Ok(r) => {
            prop_assert_eq!(encode_sim_result(&r), bytes.to_vec());
            Ok(true)
        }
        Err(_) => Ok(false),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Valid encodings decode to an identical result, which re-encodes
    /// to the same bytes.
    #[test]
    fn valid_encodings_round_trip(
        name in prop::sample::select(spec::NAMES.to_vec()),
        ops in 50usize..800,
        seed in 0u64..1_000,
        mode in 0u8..3,
    ) {
        let result = simulate(name, ops, seed, mode);
        let bytes = encode_sim_result(&result);
        let back = decode_sim_result(&bytes).expect("a valid encoding decodes");
        prop_assert_eq!(&back, &result);
        prop_assert_eq!(encode_sim_result(&back), bytes);
    }

    /// Arbitrary bytes are rejected, with or without this build's
    /// version word in front (which gets them past the version check
    /// into the length prefixes and enum tags).
    #[test]
    fn arbitrary_bytes_are_rejected(
        body in prop::collection::vec(0u8..=255, 0..600),
        versioned in any::<bool>(),
    ) {
        let mut bytes = Vec::new();
        if versioned {
            bytes.extend_from_slice(&CODEC_VERSION.to_le_bytes());
        }
        bytes.extend_from_slice(&body);
        prop_assert!(!decode_is_strict(&bytes)?, "arbitrary bytes decoded");
    }

    /// Every strict prefix and every extension of a valid encoding is
    /// rejected.
    #[test]
    fn truncated_or_extended_encodings_are_rejected(
        bytes in arb_encoding(),
        cut in any::<u64>(),
        tail in prop::collection::vec(0u8..=255, 1..40),
    ) {
        let cut = (cut % bytes.len() as u64) as usize;
        prop_assert!(decode_sim_result(&bytes[..cut]).is_err(), "prefix of {} bytes", cut);
        let mut longer = bytes.clone();
        longer.extend_from_slice(&tail);
        prop_assert!(decode_sim_result(&longer).is_err());
    }

    /// Overwriting any byte, or any 8-byte word (a count, a cycle value,
    /// a length prefix), never panics; whatever still decodes is exactly
    /// the encoding of what it decoded to.
    #[test]
    fn mutated_encodings_never_panic(
        bytes in arb_encoding(),
        at in any::<u64>(),
        flip in 1u8..=255,
        word in any::<u64>(),
        whole_word in any::<bool>(),
    ) {
        let mut mutated = bytes.clone();
        let at = (at % bytes.len() as u64) as usize;
        if whole_word {
            let end = (at + 8).min(mutated.len());
            mutated[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
        } else {
            mutated[at] ^= flip;
        }
        decode_is_strict(&mutated)?;
        if at < 4 && mutated[..4] != bytes[..4] {
            prop_assert!(decode_sim_result(&mutated).is_err(), "version skew decoded");
        }
    }
}
