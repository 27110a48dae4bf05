//! A word-at-a-time multiplicative hasher in the style of rustc's `FxHasher`,
//! for maps and sets keyed by ids the program assigns.
//!
//! The rule for which hasher a map uses:
//!
//! * **Fx** for keys the program hands out: arena ids (`InstId`, `ValueId`,
//!   `BlockId`, `GlobalId`, `FuncId`, alignment-graph nodes, expression
//!   ids) and structures built only from them, such as a rolling
//!   candidate. These are a handful of small integers, for which SipHash's
//!   resistance to chosen keys buys nothing and costs most of a lookup.
//! * **std's `RandomState`** for keys an input chooses: symbol names, the
//!   function-local constant pool ([`crate::function::Function`]'s
//!   `ConstKey`s), and [`crate::types::TypeKind`]s in the type store.
//!
//! The reason for the split: Fx's low output bits depend only on its
//! input's low bits, and a hash table picks buckets by the low bits. An
//! input that declares 100,000 integer constants sharing their low 32 bits
//! therefore lands them in a handful of buckets: inserting them took
//! 1.68 s with Fx against 22 ms with SipHash, growing ×4 per doubling, so
//! one hostile request could stall a server. Ids are dense and handed out
//! in order, so they spread evenly.
//!
//! Nothing observable may depend on iteration order: no map or set built
//! with this hasher is iterated where the order would reach output.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit multiplier of rustc's `FxHasher`.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state: one word, folded with every word written.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` hashed with [`FxHasher`]; for program-assigned keys only.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` hashed with [`FxHasher`]; for program-assigned keys only.
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;
