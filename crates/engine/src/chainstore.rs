//! Chain-storage selection for engine-served flows.
//!
//! A host with a short chain should keep every element resident
//! ([`ChainStorage::Full`]): recompute costs more than the few KiB it
//! saves. From the engine's default chain length (1024) on, that trade
//! inverts: the warm-flow regime the engine lives in is long-lived flows,
//! and full storage there costs ~40 KiB per flow (two chains × 1025 SHA-1
//! digests) — at the measured ~14k hot flows/GB over half the hot-flow
//! footprint — while √n checkpointing stores ~33 digests per chain
//! (~1.3 KiB/flow) and costs at most ⌈√n⌉ = 32 extra hashes per
//! disclosure. So chains from [`SQRT_THRESHOLD`] up default to
//! [`ChainStorage::Sqrt`], however long: a 4096-element chain then
//! stores 65 digests per chain, thaws in 0 hashes and costs at most 64 a
//! disclosure.
//!
//! A caller who wants another layout says so with
//! `Config::with_chain_storage`; there is no process-wide override.

use alpha_core::{ChainStorage, Config};

/// Chains at or above this length default to √n checkpointing when the
/// caller left storage at [`ChainStorage::Full`]. Set at the engine's
/// default chain length on purpose: warm long-lived flows are exactly the
/// population whose resident chain bytes dominate memory (~40 KiB/flow
/// Full vs ~1.3 KiB/flow Sqrt at 1024 elements) while the recompute cost
/// stays bounded at ⌈√n⌉ hashes per disclosure.
pub const SQRT_THRESHOLD: u64 = 1024;

/// Stable label for a [`ChainStorage`] variant, used by `engine stats`
/// and every `BENCH_*.json` emitter.
#[must_use]
pub fn name(storage: ChainStorage) -> &'static str {
    match storage {
        ChainStorage::Full => "full",
        ChainStorage::Sqrt => "sqrt",
    }
}

/// The selection rule, applied by `EngineConfig::new`: a default
/// [`ChainStorage::Full`] at [`SQRT_THRESHOLD`] elements or more is
/// upgraded to [`ChainStorage::Sqrt`]. A non-default storage choice by
/// the caller is always respected.
#[must_use]
pub fn resolve(mut protocol: Config) -> Config {
    if protocol.chain_storage == ChainStorage::Full && protocol.chain_len >= SQRT_THRESHOLD {
        protocol.chain_storage = ChainStorage::Sqrt;
    }
    protocol
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_crypto::Algorithm;

    #[test]
    fn short_chains_keep_full_storage() {
        let c = resolve(Config::new(Algorithm::Sha1).with_chain_len(64));
        assert_eq!(c.chain_storage, ChainStorage::Full);
        let c = resolve(Config::new(Algorithm::Sha1).with_chain_len(SQRT_THRESHOLD - 2));
        assert_eq!(c.chain_storage, ChainStorage::Full);
        assert_eq!(name(c.chain_storage), "full");
    }

    #[test]
    fn default_length_warm_flows_pick_sqrt() {
        // The regression this pins: the engine's *default* protocol
        // config (chain_len = 1024) must not keep every chain element
        // resident for long-lived flows.
        let default_cfg = Config::new(Algorithm::Sha1);
        assert_eq!(default_cfg.chain_len, SQRT_THRESHOLD, "default moved?");
        let c = resolve(default_cfg);
        assert_eq!(c.chain_storage, ChainStorage::Sqrt);
        assert_eq!(name(c.chain_storage), "sqrt");
        // Boundary pins for the ladder.
        let at = |len: u64| resolve(Config::new(Algorithm::Sha1).with_chain_len(len)).chain_storage;
        assert_eq!(at(SQRT_THRESHOLD - 2), ChainStorage::Full);
        assert_eq!(at(SQRT_THRESHOLD), ChainStorage::Sqrt);
    }

    #[test]
    fn long_chains_stay_sqrt() {
        for len in [4096, 1 << 16] {
            let c = resolve(Config::new(Algorithm::Sha1).with_chain_len(len));
            assert_eq!(c.chain_storage, ChainStorage::Sqrt, "{len}");
            assert_eq!(name(c.chain_storage), "sqrt");
        }
    }

    #[test]
    fn sqrt_decision_identity_at_default_length() {
        // Storage is a space/time trade only: a Sqrt chain must
        // disclose byte-identical elements to a Full chain from the
        // same seed, and a verifier anchored on one must accept the
        // other's disclosures. If this breaks, the auto-select above
        // silently changes what goes on the wire.
        use alpha_crypto::chain::{ChainKind, ChainVerifier, HashChain, Role};
        let len = SQRT_THRESHOLD;
        let kind = ChainKind::RoleBoundSignature;
        let mut full = HashChain::from_seed(Algorithm::Sha1, kind, len, b"warm");
        let mut sqrt = HashChain::from_seed_compact(Algorithm::Sha1, kind, len, b"warm");
        assert_eq!(full.anchor(), sqrt.anchor());
        let mut verifier =
            ChainVerifier::new(Algorithm::Sha1, kind, sqrt.anchor(), sqrt.anchor_index());
        let mut pairs = 0u64;
        while let Ok(f) = full.disclose_pair() {
            let s = sqrt.disclose_pair().expect("sqrt pair in lockstep");
            assert_eq!(f, s);
            let ((ai, a), (ki, k)) = s;
            verifier
                .accept_role(ai, &a, Role::Announce)
                .expect("announce");
            verifier
                .accept_role(ki, &k, Role::Disclose)
                .expect("disclose");
            pairs += 1;
        }
        assert!(sqrt.disclose_pair().is_err(), "chain exhausted in lockstep");
        assert!(pairs >= len / 2 - 1, "walked the whole chain: {pairs}");
    }

    #[test]
    fn explicit_caller_choice_is_respected() {
        // A non-default choice wins over the ladder, below the threshold
        // as above it.
        let explicit = |len: u64, storage: ChainStorage| {
            resolve(
                Config::new(Algorithm::Sha1)
                    .with_chain_len(len)
                    .with_chain_storage(storage),
            )
            .chain_storage
        };
        assert_eq!(explicit(1 << 16, ChainStorage::Sqrt), ChainStorage::Sqrt);
        assert_eq!(explicit(64, ChainStorage::Sqrt), ChainStorage::Sqrt);
    }
}
