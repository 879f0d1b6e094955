//! The storage layer's one checksum.
//!
//! Every stored fault-detection value in the crate is this function: a
//! journal record's CRC, the journal superblock's CRC, and a
//! [`VersionedStore`](crate::VersionedStore) block's `(version, data)` sum,
//! which a [`SealedBlock`](crate::SealedBlock) carries from where a write
//! chose the version to every replica it installs on, and which an unsealed
//! install, a repair and a scrub compute in place. The threat model is a
//! crash (a torn or misordered write), not an adversary, so it needs to be
//! deterministic, dependency-free and cheap, not collision-resistant.

/// Odd 64-bit multipliers (the xxHash64 primes).
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One multiply-rotate step. For a fixed `word` it is a bijection of `acc`
/// and vice versa, so a difference confined to one input of a chain of
/// steps can never cancel.
#[inline(always)]
fn mix(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(P1).rotate_left(31)
}

/// Checksums `payload` under the metadata words in `header` (version,
/// epoch, block — whatever the caller binds the bytes to).
///
/// The payload is consumed as little-endian `u64` words in four independent
/// lanes, 32 bytes per round, so the multiplies of a round overlap instead
/// of forming one serial chain per byte. The length and the header words
/// start a fifth chain that then absorbs the lanes and the sub-32-byte
/// tail, and a final avalanche spreads every input bit over the result.
/// Because every step is bijective in the chain value, changing one header
/// word, or any bits within one payload word, always changes the result;
/// wider differences collide with probability 2⁻⁶⁴.
pub(crate) fn checksum(header: &[u64], payload: &[u8]) -> u64 {
    let mut lanes = [P2, P3, P4, P5];
    let mut rounds = payload.chunks_exact(32);
    for round in &mut rounds {
        for (lane, word) in lanes.iter_mut().zip(round.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"));
            *lane = mix(*lane, word);
        }
    }
    let mut h = mix(P5, payload.len() as u64);
    for &word in header.iter().chain(&lanes) {
        h = mix(h, word);
    }
    for &byte in rounds.remainder() {
        h = mix(h, u64::from(byte));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::checksum;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// A 1 KiB block with no repeating 32-byte round.
    fn block() -> Vec<u8> {
        (0..1024u32).map(|i| (i * 31 + i / 7) as u8).collect()
    }

    #[test]
    fn every_single_bit_flip_of_a_block_changes_the_sum() {
        // 1055 bytes adds a 31-byte tail behind the 32 whole rounds.
        for mut data in [block(), vec![0u8; 1024], vec![0xFF; 1055]] {
            let clean = checksum(&[7], &data);
            for bit in 0..data.len() * 8 {
                data[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(
                    checksum(&[7], &data),
                    clean,
                    "flip of bit {bit} went unseen"
                );
                data[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn header_words_are_bound_to_the_sum() {
        let data = block();
        let sums: BTreeSet<u64> = (0..4096u64).map(|v| checksum(&[v], &data)).collect();
        assert_eq!(sums.len(), 4096, "two versions share a sum");
        // Position matters: (epoch, block) is not (block, epoch).
        assert_ne!(checksum(&[1, 2], &data), checksum(&[2, 1], &data));
        assert_ne!(checksum(&[], &data), checksum(&[0], &data));
    }

    #[test]
    fn zero_payloads_of_different_lengths_have_different_sums() {
        let zeros = vec![0u8; 2049];
        let sums: BTreeSet<u64> = (0..=zeros.len())
            .map(|n| checksum(&[0], &zeros[..n]))
            .collect();
        assert_eq!(sums.len(), zeros.len() + 1);
    }

    proptest! {
        #[test]
        fn prop_bit_flip_and_version_change_are_seen(
            data in prop::collection::vec(any::<u8>(), 1024..1025),
            bit in 0usize..8192,
            v in any::<u64>(),
            dv in 1u64..u64::MAX,
        ) {
            let clean = checksum(&[v], &data);
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert_ne!(checksum(&[v], &flipped), clean);
            prop_assert_ne!(checksum(&[v.wrapping_add(dv)], &data), clean);
        }

        #[test]
        fn prop_truncation_is_seen(
            data in prop::collection::vec(any::<u8>(), 1..1025),
            cut in any::<usize>(),
        ) {
            let cut = cut % data.len();
            prop_assert_ne!(checksum(&[3], &data[..cut]), checksum(&[3], &data));
        }
    }
}
