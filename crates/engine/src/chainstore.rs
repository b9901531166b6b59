//! Chain-storage selection for engine-served flows.
//!
//! A host with a short chain should keep every element resident
//! ([`ChainStorage::Full`]): recompute costs more than the few KiB it
//! saves. Long chains invert that trade — a 65k-element SHA-256 chain
//! is 2 MiB per flow — so the engine defaults them to
//! [`ChainStorage::Dyadic`] pebbling (O(log n) space) above a length
//! threshold, mirroring how the digest and UDP backends self-select.
//!
//! Between those extremes sits the warm-flow regime the engine actually
//! lives in: long-lived flows at the default chain length (1024). Full
//! storage there costs ~40 KiB per flow (two chains × 1025 SHA-1
//! digests) — at the measured ~14k hot flows/GB that is over half the
//! hot-flow footprint — while √n checkpointing stores ~33 digests per
//! chain (~1.3 KiB/flow) and amortizes to at most ⌈√n⌉ = 32 extra
//! hashes per disclosure. So chains in `[SQRT_THRESHOLD,
//! DYADIC_THRESHOLD)` default to [`ChainStorage::Sqrt`]: the default
//! engine config now pebbles instead of keeping every element resident.
//!
//! A caller who wants another layout says so with
//! `Config::with_chain_storage`; there is no process-wide override.

use alpha_core::{ChainStorage, Config};

/// Chains at or above this length default to dyadic pebbling when the
/// caller left storage at [`ChainStorage::Full`].
pub const DYADIC_THRESHOLD: u64 = 4096;

/// Chains at or above this length (and below [`DYADIC_THRESHOLD`])
/// default to √n checkpointing when the caller left storage at
/// [`ChainStorage::Full`]. Set at the engine's default chain length on
/// purpose: warm long-lived flows are exactly the population whose
/// resident chain bytes dominate memory (~40 KiB/flow Full vs
/// ~1.3 KiB/flow Sqrt at 1024 elements) while the recompute cost stays
/// bounded at ⌈√n⌉ hashes per disclosure.
pub const SQRT_THRESHOLD: u64 = 1024;

/// Stable label for a [`ChainStorage`] variant, used by `engine stats`
/// and every `BENCH_*.json` emitter.
#[must_use]
pub fn name(storage: ChainStorage) -> &'static str {
    match storage {
        ChainStorage::Full => "full",
        ChainStorage::Sqrt => "sqrt",
        ChainStorage::Dyadic => "dyadic",
    }
}

/// The selection rule, applied by `EngineConfig::new`: a default
/// [`ChainStorage::Full`] is upgraded by length — `[SQRT_THRESHOLD,
/// DYADIC_THRESHOLD)` picks [`ChainStorage::Sqrt`], `DYADIC_THRESHOLD`
/// and above picks [`ChainStorage::Dyadic`]. A non-default storage
/// choice by the caller is always respected.
#[must_use]
pub fn resolve(mut protocol: Config) -> Config {
    if protocol.chain_storage == ChainStorage::Full {
        if protocol.chain_len >= DYADIC_THRESHOLD {
            protocol.chain_storage = ChainStorage::Dyadic;
        } else if protocol.chain_len >= SQRT_THRESHOLD {
            protocol.chain_storage = ChainStorage::Sqrt;
        }
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
        // Boundary pins for the whole ladder.
        let at = |len: u64| resolve(Config::new(Algorithm::Sha1).with_chain_len(len)).chain_storage;
        assert_eq!(at(SQRT_THRESHOLD), ChainStorage::Sqrt);
        assert_eq!(at(DYADIC_THRESHOLD - 2), ChainStorage::Sqrt);
        assert_eq!(at(DYADIC_THRESHOLD), ChainStorage::Dyadic);
    }

    #[test]
    fn long_chains_default_to_dyadic() {
        let c = resolve(Config::new(Algorithm::Sha1).with_chain_len(DYADIC_THRESHOLD));
        assert_eq!(c.chain_storage, ChainStorage::Dyadic);
        let c = resolve(Config::new(Algorithm::Sha1).with_chain_len(1 << 16));
        assert_eq!(c.chain_storage, ChainStorage::Dyadic);
        assert_eq!(name(c.chain_storage), "dyadic");
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
        // A non-default choice wins over the ladder in both directions:
        // above the threshold it would have picked, and below any.
        let explicit = |len: u64, storage: ChainStorage| {
            resolve(
                Config::new(Algorithm::Sha1)
                    .with_chain_len(len)
                    .with_chain_storage(storage),
            )
            .chain_storage
        };
        assert_eq!(explicit(1 << 16, ChainStorage::Sqrt), ChainStorage::Sqrt);
        assert_eq!(explicit(64, ChainStorage::Dyadic), ChainStorage::Dyadic);
        assert_eq!(explicit(64, ChainStorage::Sqrt), ChainStorage::Sqrt);
    }
}
