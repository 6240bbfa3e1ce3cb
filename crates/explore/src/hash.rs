//! FNV-1a 64-bit folding — the crate's digest primitive.
//!
//! Frontier digests must be stable across runs, processes and axis
//! re-orderings, so everything is hashed by *value* (bit patterns of
//! floats, ordinals of enums) through this one deterministic accumulator.
//! No `std::hash::Hasher`: its output is not specified to be stable across
//! releases.

/// Incremental FNV-1a over 64 bits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv {
    pub(crate) fn new() -> Self {
        Self(FNV_OFFSET)
    }

    pub(crate) fn write_u8(&mut self, v: u8) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(FNV_PRIME);
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    pub(crate) fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    pub(crate) fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector_and_order_sensitivity() {
        // FNV-1a("a") — the published test vector.
        let mut h = Fnv::new();
        h.write_u8(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);

        let mut ab = Fnv::new();
        ab.write_u8(1);
        ab.write_u8(2);
        let mut ba = Fnv::new();
        ba.write_u8(2);
        ba.write_u8(1);
        assert_ne!(ab.finish(), ba.finish());
    }
}
