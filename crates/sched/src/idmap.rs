//! The hash map for ids the simulator mints itself.
//!
//! Machine and task ids are `u64`s this program hands out — ascending
//! counters, cells strided apart at bit 40, the autoscaler's ids from
//! bit 48 — never chosen by an adversary, so SipHash's flooding
//! resistance buys nothing on them. [`IdHasher`] is one folded
//! multiply: the two halves of the 128-bit product `x · K`, xored. The
//! fold matters: a plain `x · K` keeps keys that differ only above bit
//! 40 identical in their low bits, which are the bits the table probes
//! by, so machine *i* of every cell would land in one group.
//!
//! The hash order reaches no output: the tables are looked up, and the
//! one that is iterated (`FaultPlan::downtime_us`'s) is summed.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by a `MachineId` or `TaskId`, hashed by
/// [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A folded-multiply hasher for `u64` ids (see the module docs).
#[derive(Default)]
pub(crate) struct IdHasher(u64);

/// An odd 64-bit constant: splitmix64's second multiplier. Of the
/// well-known mixing constants it is the one whose fold spreads both
/// id strides in `strided_ids_spread_over_the_low_bits`.
const K: u64 = 0x94D0_49BB_1331_11EB;

impl Hasher for IdHasher {
    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * u128::from(K);
        self.0 = (p as u64) ^ (p >> 64) as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    use super::*;

    /// Distinct values among the low 12 hash bits of `keys`.
    fn low_bits_covered(keys: impl Iterator<Item = u64>) -> usize {
        let build = BuildHasherDefault::<IdHasher>::default();
        keys.map(|k| build.hash_one(k) & 0xfff)
            .collect::<HashSet<_>>()
            .len()
    }

    #[test]
    fn strided_ids_spread_over_the_low_bits() {
        // Cell-strided ids (bit 40 up) and autoscaler ids (bit 48 base,
        // a coarse stride): 4 096 of each into 4 096 low-bit values. A
        // uniform random hash would cover about 2 590 and a plain
        // multiply covers one; the fold spreads a stride like a Weyl
        // sequence.
        let cells = low_bits_covered((0..4096u64).map(|i| i << 40));
        let autoscaled = low_bits_covered((0..4096u64).map(|i| (1 << 48) + (i << 20)));
        assert!(cells >= 3500, "cell-strided ids cover {cells} of 4096");
        assert!(
            autoscaled >= 3500,
            "autoscaler ids cover {autoscaled} of 4096"
        );
    }
}
