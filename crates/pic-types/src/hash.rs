//! Dependency-free content hashing (FNV-1a).
//!
//! The serve-side trace registry content-addresses every ingested
//! artifact: the address of a trace is a digest of its raw encoded bytes,
//! so re-ingesting identical bytes lands on the identical registry entry
//! (and a changed byte lands elsewhere). The workspace is offline and
//! vendored, so the digest is a hand-rolled FNV-1a — not cryptographic,
//! but 128 bits of it make accidental collisions vanishingly unlikely for
//! a registry of at most thousands of artifacts. The 64-bit variant
//! serves as a cheap structural fingerprint (e.g. mesh specifications
//! keying assignment-artifact caches).

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// FNV-1a over `bytes`, 64-bit.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV64_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// Incremental 128-bit FNV-1a digest, for hashing streamed bytes without
/// buffering them (e.g. a request body on its way into the trace decoder).
#[derive(Debug, Clone)]
pub struct Fnv128 {
    state: u128,
    len: u64,
}

impl Default for Fnv128 {
    fn default() -> Fnv128 {
        Fnv128::new()
    }
}

impl Fnv128 {
    /// Fresh digest state.
    pub fn new() -> Fnv128 {
        Fnv128 {
            state: FNV128_OFFSET,
            len: 0,
        }
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
        self.len += bytes.len() as u64;
    }

    /// Bytes absorbed so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when nothing was absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The digest of everything absorbed so far.
    pub fn digest(&self) -> u128 {
        self.state
    }

    /// The digest as 32 lowercase hex characters — the registry's
    /// content-address format.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv1a_128(bytes: &[u8]) -> u128 {
        let mut d = Fnv128::new();
        d.update(bytes);
        d.digest()
    }

    #[test]
    fn known_vectors_64() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let mut d = Fnv128::new();
        for chunk in data.chunks(37) {
            d.update(chunk);
        }
        assert_eq!(d.digest(), fnv1a_128(&data));
        assert_eq!(d.len(), 10_000);
        assert_eq!(d.hex().len(), 32);
    }

    #[test]
    fn single_byte_change_changes_digest() {
        let a = vec![7u8; 512];
        let mut b = a.clone();
        b[300] ^= 1;
        assert_ne!(fnv1a_128(&a), fnv1a_128(&b));
        assert_ne!(fnv1a_64(&a), fnv1a_64(&b));
    }

    #[test]
    fn empty_digest_is_offset_basis() {
        let d = Fnv128::new();
        assert!(d.is_empty());
        assert_eq!(d.digest(), FNV128_OFFSET);
    }
}
