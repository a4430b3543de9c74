//! Deterministic 64-bit state hashing.
//!
//! Both search algorithms in the paper store *hashes* of visited states
//! rather than the states themselves ("the model checker does not cache
//! previously visited states (it only stores their hashes)", §5.5), and
//! consequence prediction additionally keys its `localExplored` set by
//! `hash(n, s)` (Fig. 8). We use FNV-1a: it is fully deterministic (no
//! per-process random keys like `std`'s default SipHash seeds), fast on the
//! short buffers produced by hashing protocol states, and trivially
//! portable.

use std::hash::{Hash, Hasher};

/// 64-bit FNV-1a hasher implementing [`std::hash::Hasher`].
///
/// Determinism matters: replaying a search must visit the same hash values,
/// and the ablation benches compare explored-set sizes across runs.
#[derive(Clone, Debug)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// Creates a hasher in the standard FNV-1a initial state.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Convenience alias used by search code that parametrizes over hashers.
pub type StableHasher = Fnv64;

/// Hashes any `Hash` value with the deterministic FNV-1a hasher.
///
/// This is the `hash(state)` function of Fig. 5 line 9 and Fig. 8 lines
/// 10/17/20.
pub fn stable_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv64::new();
    value.hash(&mut h);
    h.finish()
}

/// Combines two hashes order-*dependently* (for sequences).
pub fn combine(a: u64, b: u64) -> u64 {
    // Feed both operands through the byte pipeline; simply XOR-ing `a` into
    // the initial state would collide with XOR-ing it into `b`'s first byte.
    let mut h = Fnv64::new();
    h.write(&a.to_le_bytes());
    h.write(&b.to_le_bytes());
    h.finish()
}

/// Combines element hashes order-*independently* (for multisets such as the
/// in-flight message bag, whose Vec ordering is an implementation artifact
/// and must not distinguish otherwise-identical global states).
pub fn combine_unordered(hashes: impl IntoIterator<Item = u64>) -> u64 {
    hashes.into_iter().collect::<BagFold>().finish()
}

/// [`combine_unordered`] opened up: the running sum, xor and count of
/// per-element mixes, which a successor's bag fold can take from its
/// parent's and update in place — [`BagFold::remove`] the delivered item,
/// [`BagFold::add`] the queued ones — instead of re-folding every item.
/// Sum and xor of mixes are commutative, associative, and resistant to
/// the trivial "pairs cancel" failure of plain xor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BagFold {
    sum: u64,
    xor: u64,
    count: u64,
}

impl BagFold {
    fn mix(h: u64) -> u64 {
        h.wrapping_mul(FNV_PRIME) ^ h.rotate_left(17)
    }

    /// Adds one element hash.
    pub fn add(&mut self, h: u64) {
        let mixed = Self::mix(h);
        self.sum = self.sum.wrapping_add(mixed);
        self.xor ^= mixed;
        self.count += 1;
    }

    /// Takes back one element hash that was [`BagFold::add`]ed.
    pub fn remove(&mut self, h: u64) {
        let mixed = Self::mix(h);
        self.sum = self.sum.wrapping_sub(mixed);
        self.xor ^= mixed;
        self.count -= 1;
    }

    /// The bag's hash: [`combine_unordered`] of the elements it holds.
    pub fn finish(&self) -> u64 {
        combine(self.sum, combine(self.xor, self.count))
    }
}

impl FromIterator<u64> for BagFold {
    fn from_iter<I: IntoIterator<Item = u64>>(hashes: I) -> Self {
        let mut fold = BagFold::default();
        for h in hashes {
            fold.add(h);
        }
        fold
    }
}

/// A [`Hasher`] for keys that are *already* 64-bit digests
/// (`state_hash`/`local_hash` values, or a word folded from several):
/// SipHashing them again buys nothing, so this is one multiply and a
/// rotate. For tables that are only inserted into and probed, never
/// iterated, so the bucket layout cannot reach a result.
#[derive(Default)]
pub struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a digest key hashes as one u64");
    }

    fn write_u64(&mut self, digest: u64) {
        // Multiply pushes entropy up, rotate brings the well-mixed top
        // bits down to where the table takes its bucket index.
        self.0 = digest.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(26);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Reference vectors for FNV-1a 64-bit.
        let mut h = Fnv64::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn stable_across_calls() {
        let v = vec![1u32, 2, 3];
        assert_eq!(stable_hash(&v), stable_hash(&v.clone()));
        assert_ne!(stable_hash(&v), stable_hash(&vec![3u32, 2, 1]));
    }

    #[test]
    fn unordered_combination_is_order_independent() {
        let a = combine_unordered([1, 2, 3]);
        let b = combine_unordered([3, 1, 2]);
        assert_eq!(a, b);
        // ...but multiset-sensitive:
        assert_ne!(combine_unordered([1, 1, 2]), combine_unordered([1, 2, 2]));
        // ...and not fooled by duplicate pairs cancelling out.
        assert_ne!(combine_unordered([7, 7]), combine_unordered([] as [u64; 0]));
        assert_ne!(combine_unordered([7, 7, 9]), combine_unordered([9]));
    }

    #[test]
    fn bag_fold_updates_in_place() {
        let mut fold: BagFold = [4, 8, 15, 16].into_iter().collect();
        assert_eq!(fold.finish(), combine_unordered([4, 8, 15, 16]));
        fold.remove(8);
        fold.add(23);
        fold.add(42);
        assert_eq!(fold.finish(), combine_unordered([42, 4, 23, 15, 16]));
        fold.remove(4);
        fold.remove(16);
        assert_eq!(fold.finish(), combine_unordered([15, 23, 42]));
    }

    #[test]
    fn ordered_combination_is_order_dependent() {
        assert_ne!(combine(1, 2), combine(2, 1));
    }
}
