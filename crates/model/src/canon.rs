//! Canonical state encoding and wide hashing for frontier dedup.
//!
//! Exhaustive exploration lives or dies on recognizing a state it has
//! already visited. Two requirements drive this module:
//!
//! 1. **Canonical** — two semantically equal states must encode to the
//!    same byte string, independent of how they were reached. The
//!    encoding is therefore field-by-field and order-pinned (maps encode
//!    in key order, vectors in index order), with no pointers or
//!    padding in play; floats appear only inside JSON text, in shortest
//!    round-trip form.
//! 2. **Collision-safe** — a hash collision would silently merge two
//!    distinct states and could mask a reachable violation. Frontier
//!    keys are 128-bit FNV-1a digests of the canonical encoding: at the
//!    bounded exploration sizes this checker targets (≲ 10⁷ states) the
//!    collision probability is below 10⁻²⁴, far past the point where a
//!    soundness argument would need the full encoding as the key.
//!
//! Primitives and containers encode by hand below, as fixed-width
//! little-endian fields with length prefixes. The two model states mix
//! in JSON: [`SessionMachine`](bios_platform::SessionMachine) encodes as
//! the JSON text of its checkpoint, and [`ServerState`](crate::ServerState)
//! as the JSON text of its clock, stats, phase, queues, in-flight lanes
//! and ledger, with the resolved draws, ticked shards, strikes and
//! quarantine sets encoded by hand. So every state hash and exploration
//! counter changes when a serialized field of those platform and server
//! types is renamed, added or reordered.

/// Types with a canonical, order-pinned byte encoding.
pub trait CanonEncode {
    /// Appends this value's canonical encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

impl CanonEncode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl CanonEncode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl CanonEncode for u16 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl CanonEncode for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl CanonEncode for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl CanonEncode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl<T: CanonEncode> CanonEncode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: CanonEncode> CanonEncode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for v in self {
            v.encode(out);
        }
    }
}

impl<A: CanonEncode, B: CanonEncode> CanonEncode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: CanonEncode, B: CanonEncode, C: CanonEncode> CanonEncode for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
}

impl<K: CanonEncode, V: CanonEncode> CanonEncode for std::collections::BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
}

impl<T: CanonEncode> CanonEncode for std::collections::BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for v in self {
            v.encode(out);
        }
    }
}

/// The canonical byte encoding of a value.
pub(crate) fn canon_bytes<T: CanonEncode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    value.encode(&mut out);
    out
}

/// 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// 128-bit FNV-1a hash of a byte string.
pub(crate) fn fnv128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// The 128-bit canonical hash of a state: `fnv128(canon_bytes(value))`.
pub(crate) fn canon_hash<T: CanonEncode + ?Sized>(value: &T) -> u128 {
    fnv128(&canon_bytes(value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn primitive_encodings_are_order_pinned() {
        assert_eq!(canon_bytes(&true), vec![1]);
        assert_eq!(canon_bytes(&0x0102u16), vec![0x02, 0x01]);
        assert_eq!(canon_bytes(&Some(7u8)), vec![1, 7]);
        assert_eq!(canon_bytes(&None::<u8>), vec![0]);
        let v: Vec<u8> = vec![3, 4];
        assert_eq!(canon_bytes(&v)[..8], 2u64.to_le_bytes());
    }

    #[test]
    fn map_encoding_is_key_ordered() {
        let mut a = BTreeMap::new();
        a.insert(2u8, 20u8);
        a.insert(1u8, 10u8);
        let mut b = BTreeMap::new();
        b.insert(1u8, 10u8);
        b.insert(2u8, 20u8);
        assert_eq!(canon_bytes(&a), canon_bytes(&b));
    }

    #[test]
    fn fnv128_matches_known_vectors() {
        // FNV-1a 128: hash of empty input is the offset basis.
        assert_eq!(fnv128(b""), FNV128_OFFSET);
        // Distinct inputs with equal u64-FNV-style prefixes stay distinct.
        assert_ne!(fnv128(b"a"), fnv128(b"b"));
        assert_ne!(fnv128(&[0, 1]), fnv128(&[1, 0]));
    }

    #[test]
    fn nested_containers_roundtrip_distinctly() {
        let a: Vec<Option<u16>> = vec![Some(1), None];
        let b: Vec<Option<u16>> = vec![None, Some(1)];
        assert_ne!(canon_hash(&a), canon_hash(&b));
    }
}
