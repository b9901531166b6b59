//! Instrumented protocol runs: execute one full exchange and attribute
//! every hash operation to the role (signer / verifier / relay) that
//! performed it. Ground truth for Table 1 and the throughput estimates.

use alpha_core::bootstrap::{self, AuthRequirement};
use alpha_core::{AssociationRelay, Config, MacScheme, Mode, RelayConfig, Reliability, Timestamp};
use alpha_crypto::counting::{self, Counts};
use alpha_crypto::Algorithm;
use alpha_wire::{Packet, PacketView};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hash activity of one exchange, split by role.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoleCounts {
    /// Everything the signer computed (signing, A1/A2 verification).
    pub signer: Counts,
    /// Everything the verifier computed (S1/S2 verification, commitments).
    pub verifier: Counts,
    /// Everything one relay computed.
    pub relay: Counts,
    /// One-time chain generation per host at bootstrap.
    pub chain_gen: Counts,
    /// Messages the exchange carried.
    pub messages: usize,
    /// Wire bytes: (s1, a1, total_s2, total_a2).
    pub wire_bytes: (usize, usize, usize, usize),
}

fn add(into: &mut Counts, delta: Counts) {
    into.invocations += delta.invocations;
    into.input_bytes += delta.input_bytes;
    into.long_input_invocations += delta.long_input_invocations;
    into.mac_invocations += delta.mac_invocations;
    into.mac_raw_invocations += delta.mac_raw_invocations;
}

/// Fixed-length (non-MAC) hash invocations.
#[must_use]
pub fn fixed_hashes(c: Counts) -> f64 {
    (c.invocations - c.mac_raw_invocations) as f64
}

/// Run one instrumented exchange of `n` messages of `payload_len` bytes.
#[must_use]
pub fn run_exchange(
    alg: Algorithm,
    mode: Mode,
    reliability: Reliability,
    n: usize,
    payload_len: usize,
    seed: u64,
) -> RoleCounts {
    run_exchange_with(
        alg,
        mode,
        reliability,
        MacScheme::Hmac,
        n,
        payload_len,
        seed,
    )
}

/// [`run_exchange`] with an explicit MAC construction.
#[must_use]
pub fn run_exchange_with(
    alg: Algorithm,
    mode: Mode,
    reliability: Reliability,
    mac_scheme: MacScheme,
    n: usize,
    payload_len: usize,
    seed: u64,
) -> RoleCounts {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = Config::new(alg)
        .with_mode(mode)
        .with_reliability(reliability)
        .with_mac_scheme(mac_scheme)
        .with_chain_len(64);
    let t = Timestamp::ZERO;
    let mut out = RoleCounts {
        messages: n,
        ..RoleCounts::default()
    };

    // Bootstrap (chain generation measured separately; halve for per-host).
    let scope = counting::Scope::start();
    let (hs, init_pkt) = bootstrap::initiate(cfg, 1, None, &mut rng);
    let (mut bob, reply_pkt, _) =
        bootstrap::respond(cfg, &init_pkt, None, AuthRequirement::None, &mut rng).unwrap();
    let (mut alice, _) = hs.complete(&reply_pkt, AuthRequirement::None).unwrap();
    let gen = scope.finish();
    out.chain_gen = Counts {
        invocations: gen.invocations / 2,
        input_bytes: gen.input_bytes / 2,
        long_input_invocations: gen.long_input_invocations / 2,
        mac_invocations: gen.mac_invocations / 2,
        mac_raw_invocations: gen.mac_raw_invocations / 2,
    };

    // The relay judges with the deployment's own config, so a prefix-MAC
    // exchange is checked with prefix MACs.
    let relay_cfg = RelayConfig {
        s1_bytes_per_sec: None,
        ..RelayConfig::default()
    };
    let mut relay = AssociationRelay::new(relay_cfg, &cfg, 1);
    let observe = |relay: &mut AssociationRelay, pkt: &Packet, counts: &mut Counts| {
        let bytes = pkt.emit();
        let view = PacketView::parse(&bytes).expect("an encoded packet");
        let scope = counting::Scope::start();
        let (decision, _) = relay.observe_view(&view, bytes.len(), t);
        assert_eq!(
            decision,
            alpha_core::RelayDecision::Forward,
            "relay dropped in harness"
        );
        add(counts, scope.finish());
    };
    observe(&mut relay, &init_pkt, &mut Counts::default());
    observe(&mut relay, &reply_pkt, &mut Counts::default());

    let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; payload_len]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();

    // S1.
    let scope = counting::Scope::start();
    let s1 = alice.sign_batch(&refs, mode, t).unwrap();
    add(&mut out.signer, scope.finish());
    out.wire_bytes.0 = s1.wire_len();
    observe(&mut relay, &s1, &mut out.relay);

    // A1.
    let scope = counting::Scope::start();
    let a1 = bob.handle(&s1, t, &mut rng).unwrap().packet().unwrap();
    add(&mut out.verifier, scope.finish());
    out.wire_bytes.1 = a1.wire_len();
    observe(&mut relay, &a1, &mut out.relay);

    // S2 burst.
    let scope = counting::Scope::start();
    let s2s = alice.handle(&a1, t, &mut rng).unwrap().packets;
    add(&mut out.signer, scope.finish());

    let mut a2s = Vec::new();
    for s2 in &s2s {
        out.wire_bytes.2 += s2.wire_len();
        observe(&mut relay, s2, &mut out.relay);
        let scope = counting::Scope::start();
        let resp = bob.handle(s2, t, &mut rng).unwrap();
        add(&mut out.verifier, scope.finish());
        a2s.extend(resp.packets);
    }

    // A2 (reliable only).
    for a2 in &a2s {
        out.wire_bytes.3 += a2.wire_len();
        observe(&mut relay, a2, &mut out.relay);
        let scope = counting::Scope::start();
        let _ = alice.handle(a2, t, &mut rng).unwrap();
        add(&mut out.signer, scope.finish());
    }

    if reliability == Reliability::Reliable {
        assert!(
            alice.signer().is_idle(),
            "exchange must complete in harness"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_mode_counts_match_protocol_structure() {
        let rc = run_exchange(
            Algorithm::Sha1,
            Mode::Base,
            Reliability::Unreliable,
            1,
            100,
            1,
        );
        // Signer: 1 MAC (the pre-signature) and 1 fixed hash (verify A1).
        assert_eq!(rc.signer.mac_invocations, 1);
        assert_eq!(fixed_hashes(rc.signer), 1.0);
        // Verifier: 1 MAC recompute + 2 fixed (S1 element, S2 key).
        assert_eq!(rc.verifier.mac_invocations, 1);
        assert_eq!(fixed_hashes(rc.verifier), 2.0);
        // Relay: same verification burden as the verifier, plus the A1
        // element it also authenticates.
        assert_eq!(rc.relay.mac_invocations, 1);
        assert_eq!(fixed_hashes(rc.relay), 3.0);
    }

    #[test]
    fn merkle_verifier_costs_log_n() {
        let n = 16;
        // 200-byte payloads so leaf hashes classify as message-sized.
        let rc = run_exchange(
            Algorithm::Sha1,
            Mode::Merkle,
            Reliability::Unreliable,
            n,
            200,
            2,
        );
        // Verifier per message: 1 leaf hash (message-sized, classified
        // long) + log2(n) short hashes for the path + 2/n chain checks.
        let per_msg_long = rc.verifier.long_input_invocations as f64 / n as f64;
        let per_msg_short = rc.verifier.short_input_invocations() as f64 / n as f64;
        assert!((per_msg_long - 1.0).abs() < 0.01, "leaves: {per_msg_long}");
        let expected = 4.0 + 2.0 / n as f64; // log2(16) = 4
        assert!(
            (per_msg_short - expected).abs() < 0.01,
            "paths: {per_msg_short}"
        );
    }

    #[test]
    fn cumulative_amortizes_chain_costs() {
        let one = run_exchange(
            Algorithm::Sha1,
            Mode::Cumulative,
            Reliability::Unreliable,
            1,
            64,
            3,
        );
        let many = run_exchange(
            Algorithm::Sha1,
            Mode::Cumulative,
            Reliability::Unreliable,
            20,
            64,
            3,
        );
        let per_msg_one = fixed_hashes(one.verifier) / 1.0;
        let per_msg_many = fixed_hashes(many.verifier) / 20.0;
        assert!(per_msg_many < per_msg_one, "{per_msg_many} < {per_msg_one}");
        // MACs stay 1 per message.
        assert_eq!(many.verifier.mac_invocations, 20);
    }
}
