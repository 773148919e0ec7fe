//! The two stable hashes the workspace keys deterministic decisions on.
//!
//! Trace ids, sensor fault placement, hazard schedules, chaos plans, retry
//! jitter, session shards and rendezvous routing are pure functions of
//! these two hashes, so a seed or a key reproduces the same decision in
//! every build, run and thread count. Each exists once, here, in the
//! std-only crate every other crate already depends on; the known-answer
//! tests pin both.

/// The splitmix64 finalizer: a bijective 64-bit mix with full avalanche.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// 64-bit FNV-1a over `bytes`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_known_answers() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn fnv1a64_known_answers() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
