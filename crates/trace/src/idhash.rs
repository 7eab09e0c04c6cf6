//! One cheap hasher for the integer keys the trace folds look up per event.
//!
//! The audit fold and the obs fold key their maps by query id (`u64`) or by
//! task (`(u64, u16)`), and look them up once or more per event, a million
//! times a run. Neither map is iterated into an export, so the hash needs no
//! DoS resistance and no stable order: a SplitMix64 finish per written word
//! spreads sequential ids over the table at a fraction of SipHash's cost.

use schemble_sim::rng::splitmix64;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes each written integer into the state with a SplitMix64 finish.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = splitmix64(self.0 ^ n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by integer ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    #[test]
    fn ids_and_task_keys_hash_apart() {
        assert_eq!(hash_of(7u64), splitmix64(7));
        assert_ne!(hash_of(1u64), hash_of(2u64));
        assert_ne!(hash_of((1u64, 0u16)), hash_of((0u64, 1u16)));
        let mut map: IdMap<(u64, u16), u32> = IdMap::default();
        for q in 0..1000u64 {
            for e in 0..3u16 {
                map.insert((q, e), (q as u32) * 3 + u32::from(e));
            }
        }
        assert_eq!(map.len(), 3000);
        assert_eq!(map[&(999, 2)], 2999);
    }
}
